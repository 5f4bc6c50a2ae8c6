//! End-to-end delivery benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! With `--trace 0` it sets the named workload up several times
//! (reporting the median set-up time), measures it for `--seconds`
//! with tracing off, checks every output, reconciles the server's
//! counters with the clients', and prints the end-to-end metrics.
//! With `--trace 1` it runs every workload, each for a quarter of
//! `--seconds` split between an untraced and a traced half, and prints
//! the per-layer metrics; the spans go to `--trace-out`. The last line
//! of standard output is the JSON result.

mod common;
mod deliver;
mod evaluate;
mod metrics;
mod pace;
mod release;
mod replay;
mod revalidate;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use common::{peak_rss_mb, Phase, Window};
use metrics::{result_line, Values, END_TO_END, PER_LAYER};
use stats::{mean, median, percentile};
use trace::Tracer;

/// The workloads, in the order a traced run visits them after the
/// named one. `revalidate_under_seal` is not declared as an end-to-end
/// workload in `BENCHMARK.json`: its op p90 sits about one seal time
/// minus 12.5 ms, so it amplifies the host's drift in sealing speed
/// ~1.5x, and its run-to-run spread exceeded the bounds. Traced runs
/// still measure its layers.
const WORKLOADS: &[&str] = &[
    "deliver_cold",
    "revalidate_under_seal",
    "evaluate_cosim",
    "release_gate",
];

/// An untraced run repeats its set-up for at least this long (and at
/// least [`MIN_SETUPS`] times) before the measured window and again
/// after it, and reports the median. The host's speed drifts over
/// seconds, so set-ups sampled in one short burst read whatever state
/// the host was in; the first set-up, which also pays for the
/// process's one-time initialisation, does not count either.
const SETUP_SPAN: Duration = Duration::from_millis(1500);
/// See [`SETUP_SPAN`].
const MIN_SETUPS: usize = 5;
/// The fewest ops an untraced phase may hold (a p90 needs 100).
const MIN_OPS: u64 = 100;
/// The fewest ops a traced-run phase may hold (a p50 needs 20).
const MIN_TRACE_OPS: u64 = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            "--trace-out" => trace_out = Some(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// One workload's set-up.
enum Fixture {
    Deliver(Box<deliver::Deliver>),
    Reval(Box<revalidate::Reval>),
    Evaluate(Box<evaluate::Evaluate>),
    Release(Box<release::Release>),
}

impl Fixture {
    fn setup(workload: &str, seed: u64, seconds: f64) -> Result<Self, String> {
        Ok(match workload {
            // Enough distinct customers for sessions of 5 ms.
            "deliver_cold" => Fixture::Deliver(Box::new(deliver::Deliver::setup(
                seed,
                (seconds * 200.0).ceil() as usize + 200,
            )?)),
            "revalidate_under_seal" => Fixture::Reval(Box::new(revalidate::Reval::setup(seed)?)),
            "evaluate_cosim" => Fixture::Evaluate(Box::new(evaluate::Evaluate::setup(seed)?)),
            _ => Fixture::Release(Box::new(release::Release::setup(seed)?)),
        })
    }

    /// One phase. The open-loop workload pauses its seal class after
    /// `seal_for` of the window.
    fn run(&mut self, window: Window, seal_for: Duration, tr: &mut Tracer) -> Phase {
        match self {
            Fixture::Deliver(f) => f.run(window, tr),
            Fixture::Reval(f) => f.run(window, seal_for, tr),
            Fixture::Evaluate(f) => f.run(window, tr),
            Fixture::Release(f) => f.run(window, tr),
        }
    }

    /// Reconciles and stops servers; per-layer counters that need the
    /// server go to `out`.
    fn finish(&mut self, out: &mut Values) -> Result<(), String> {
        match self {
            Fixture::Deliver(f) => f.finish(out),
            Fixture::Reval(f) => f.finish(out),
            Fixture::Evaluate(f) => f.finish(),
            Fixture::Release(_) => Ok(()),
        }
    }
}

/// Totals over every phase of a run.
struct Tally {
    attempted: u64,
    failed: u64,
    /// False once a reconciliation failed.
    correct: bool,
}

impl Tally {
    fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    fn phase(&mut self, workload: &str, p: &Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        for e in &p.errors {
            eprintln!("perfbench: {workload}: failed: {e}");
        }
    }

    fn reconciled(&mut self, workload: &str, r: Result<(), String>) {
        if let Err(e) = r {
            eprintln!("perfbench: {workload}: reconciliation failed: {e}");
            self.correct = false;
        }
    }
}

/// Sets the workload up repeatedly (see [`SETUP_SPAN`]), noting each
/// set-up's time; returns the last fixture.
fn repeat_setups(args: &Args, times: &mut Vec<f64>) -> Result<Fixture, String> {
    let begin = Instant::now();
    let mut count = 0;
    loop {
        let start = Instant::now();
        let mut fixture = Fixture::setup(&args.workload, args.seed, args.seconds)?;
        times.push(start.elapsed().as_secs_f64());
        count += 1;
        if count >= MIN_SETUPS && begin.elapsed() >= SETUP_SPAN {
            return Ok(fixture);
        }
        fixture.finish(&mut Values::new())?;
    }
}

fn untraced(args: &Args) -> Result<(Values, Tally), String> {
    let mut setups = Vec::new();
    let mut fixture = repeat_setups(args, &mut setups)?;
    let window = Window {
        length: Duration::from_secs_f64(args.seconds),
        min_ops: MIN_OPS,
    };
    let mut tr = Tracer::new(false, Instant::now());
    let phase = fixture.run(window, window.length, &mut tr);
    let mut tally = Tally::new();
    tally.phase(&args.workload, &phase);
    tally.reconciled(&args.workload, fixture.finish(&mut Values::new()));
    let peak_rss = peak_rss_mb()?;
    drop(fixture);
    repeat_setups(args, &mut setups)?.finish(&mut Values::new())?;
    // Op latency: from the call in a closed loop, from the due time in
    // the open loop. Reported with its sample count, not gated (see
    // `metrics::END_TO_END`).
    println!(
        "perfbench: workload={} seed={} transport={:?} ops={} op_p50_ms={:.3} op_p90_ms={:.3} \
         bg_ops={} bg_p50_ms={:.3} setups={}",
        args.workload,
        args.seed,
        ipd_wire::ServerMode::from_env(),
        phase.op_ms.len(),
        percentile(&phase.op_ms, 0.5)?,
        percentile(&phase.op_ms, 0.9)?,
        phase.bg_ms.len(),
        percentile(&phase.bg_ms, 0.5)?,
        setups.len(),
    );
    let mut v = Values::new();
    v.insert("setup_s".into(), median(&setups).expect("set-ups ran"));
    v.insert(
        "ops_per_s".into(),
        phase.completed as f64 / phase.busy_s.max(f64::MIN_POSITIVE),
    );
    v.insert(
        "bg_mean_ms".into(),
        mean(&phase.bg_ms).ok_or("no second-class requests completed")?,
    );
    v.insert(
        "success_ratio".into(),
        (phase.attempted - phase.failed) as f64 / phase.attempted.max(1) as f64,
    );
    v.insert("peak_rss_mb".into(), peak_rss);
    Ok((v, tally))
}

fn traced(args: &Args) -> Result<(Values, Tally), String> {
    let mut order = vec![args.workload.as_str()];
    order.extend(WORKLOADS.iter().filter(|w| **w != args.workload));
    let half = Duration::from_secs_f64(args.seconds / 8.0);
    let window = Window {
        length: half,
        min_ops: MIN_TRACE_OPS,
    };
    let mut v = Values::new();
    let mut tally = Tally::new();
    let mut dump = String::from("workload\tid\tparent\tname\tstart_ns\tdur_ns\tself_ns\n");
    for workload in order {
        let mut fixture = Fixture::setup(workload, args.seed, args.seconds)?;
        let mut off = Tracer::new(false, Instant::now());
        let plain = fixture.run(window, half / 2, &mut off);
        let mut tr = Tracer::new(true, Instant::now());
        let traced = fixture.run(window, half / 2, &mut tr);
        tally.phase(workload, &plain);
        tally.phase(workload, &traced);
        let reconciled = fixture.finish(&mut v);
        tally.reconciled(workload, reconciled);
        v.insert(
            format!("trace.overhead_ratio.{workload}"),
            percentile(&traced.op_ms, 0.5)? / percentile(&plain.op_ms, 0.5)?,
        );
        v.insert(
            format!("trace.coverage_ratio.{workload}"),
            trace::coverage(tr.spans(), "op").ok_or(format!("{workload}: no op spans"))?,
        );
        match &fixture {
            Fixture::Deliver(f) => f.layer_metrics(&mut v),
            Fixture::Reval(f) => f.layer_metrics(&plain, &mut v)?,
            Fixture::Evaluate(f) => f.layer_metrics(&mut v)?,
            Fixture::Release(f) => f.layer_metrics(&tr, &mut v)?,
        }
        for row in tr.tsv_rows() {
            dump.push_str(workload);
            dump.push('\t');
            dump.push_str(&row);
            dump.push('\n');
        }
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, dump).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!(
        "perfbench: traced workload={} seed={} transport={:?}",
        args.workload,
        args.seed,
        ipd_wire::ServerMode::from_env(),
    );
    Ok((v, tally))
}

fn main() {
    let result = parse_args().and_then(|args| {
        let (values, tally) = if args.trace {
            traced(&args)?
        } else {
            untraced(&args)?
        };
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        result_line(
            table,
            &values,
            tally.correct && tally.failed == 0,
            tally.attempted,
            tally.failed,
        )
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
