//! Timed calls and in-process replays.
//!
//! [`timed`] and [`call`] time a call into a layer's public API as a
//! span. After a traced call, the same request runs again through the
//! public layer functions the server reaches for it, each recorded as
//! a child span of the call. The replays follow the call graph of
//! `ipd-core` as its source reads; when that graph changes, these
//! functions change with it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use ipd_estimate::TimingConstraints;
use ipd_hdl::{Circuit, FlatNetlist};
use ipd_lint::{LintConfig, Linter, OracleOptions};
use ipd_netlist::NetlistFormat;
use ipd_verify::{check_equiv, CecStats, EquivConfig};

use crate::trace::{SpanId, Tracer};

/// Layer counters that spans alone do not carry.
#[derive(Debug, Default)]
pub struct Layers {
    /// Bytes sealed and nanoseconds spent sealing them.
    pub seal_bytes: u64,
    /// See `seal_bytes`.
    pub seal_ns: u64,
    /// EDIF bytes generated and nanoseconds spent generating them.
    pub edif_bytes: u64,
    /// See `edif_bytes`.
    pub edif_ns: u64,
    /// Lint verdicts seen so far in this process.
    pub verdicts: VerdictLog,
    /// Durations (ms) per span name and design, so that a metric can
    /// average per-design medians instead of taking the median of a
    /// mix of designs whose costs differ.
    pub samples: BTreeMap<(&'static str, String), Vec<f64>>,
    /// Equivalence-check statistics per design (they repeat exactly).
    pub cec: BTreeMap<String, CecStats>,
}

impl Layers {
    /// Records one duration of `name` on `design`.
    pub fn sample(&mut self, name: &'static str, design: &str, ms: f64) {
        self.samples
            .entry((name, design.to_owned()))
            .or_default()
            .push(ms);
    }

    /// The mean over designs of each design's median duration (ms) of
    /// `name`.
    pub fn per_design_ms(&self, name: &str) -> Option<f64> {
        let medians: Vec<f64> = self
            .samples
            .iter()
            .filter(|((n, _), _)| *n == name)
            .filter_map(|(_, v)| crate::stats::median(v))
            .collect();
        (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
    }
}

/// Which lint runs re-derived a verdict an earlier run in the same
/// process had already computed.
#[derive(Debug, Default)]
pub struct VerdictLog {
    seen: HashSet<(String, u64)>,
    /// Lint runs.
    pub runs: u64,
    /// Lint runs whose verdict was already known.
    pub reused: u64,
}

impl VerdictLog {
    /// Notes one lint run of `tier` over `design` with its report.
    pub fn note(&mut self, tier: &str, design: &str, report_json: &str) {
        let mut h = DefaultHasher::new();
        report_json.hash(&mut h);
        self.runs += 1;
        if !self.seen.insert((format!("{tier}/{design}"), h.finish())) {
            self.reused += 1;
        }
    }
}

/// Times `f` as span `name` under `parent` and, when tracing, as a
/// sample of `name` on `design`; returns its result, its span and its
/// duration in nanoseconds.
pub fn timed<T>(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<SpanId>,
    name: &'static str,
    design: &str,
    f: impl FnOnce() -> T,
) -> (T, Option<SpanId>, u64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let ns = end.duration_since(start).as_nanos() as u64;
    let span = tr.record(parent, name, start, end);
    if span.is_some() {
        layers.sample(name, design, ns as f64 / 1e6);
    }
    (out, span, ns)
}

/// [`timed`] for a fallible call into a layer's public API: returns
/// its output, its span and its duration in milliseconds, or the error
/// prefixed with `name`.
pub fn call<T, E: std::fmt::Display>(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<SpanId>,
    name: &'static str,
    design: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<(T, Option<SpanId>, f64), String> {
    let (out, span, ns) = timed(tr, layers, parent, name, design, f);
    out.map(|v| (v, span, ns as f64 / 1e6))
        .map_err(|e| format!("{name}: {e}"))
}

fn flatten(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<SpanId>,
    design: &str,
    c: &Circuit,
) -> FlatNetlist {
    timed(tr, layers, parent, "hdl.flatten", design, || {
        FlatNetlist::build(c)
    })
    .0
    .expect("replayed design flattens")
}

fn edif(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<SpanId>,
    design: &str,
    c: &Circuit,
) -> String {
    let (text, _, ns) = timed(tr, layers, parent, "netlist.edif", design, || {
        NetlistFormat::Edif.generate(c)
    });
    let text = text.expect("replayed design netlists");
    layers.edif_bytes += text.len() as u64;
    layers.edif_ns += ns;
    text
}

#[allow(clippy::too_many_arguments)]
fn seal(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<SpanId>,
    design: &str,
    plain: &[u8],
    key: &[u8; 32],
    nonce: u64,
) {
    let (_, _, ns) = timed(tr, layers, parent, "core.seal", design, || {
        ipd_core::seal(plain, key, nonce)
    });
    layers.seal_bytes += plain.len() as u64;
    layers.seal_ns += ns;
}

/// `sealed_design`: the timed lint gate, EDIF and the seal
/// (`AppletServer::serve_design_sealed_timed` → `seal_design_timed`).
#[allow(clippy::too_many_arguments)]
pub fn sealed_design(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<SpanId>,
    name: &str,
    c: &Circuit,
    constraints: &TimingConstraints,
    key: &[u8; 32],
    nonce: u64,
) {
    let flat = flatten(tr, layers, parent, name, c);
    let (report, ..) = timed(tr, layers, parent, "lint.structural_timed", name, || {
        Linter::with_timing(LintConfig::new(), constraints.clone()).run_flat(&flat)
    });
    layers.verdicts.note("timed", name, &report.to_json());
    let text = edif(tr, layers, parent, name, c);
    seal(tr, layers, parent, name, text.as_bytes(), key, nonce);
}

/// `lint_report`: the structural lint suite.
pub fn lint_report(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<SpanId>,
    name: &str,
    c: &Circuit,
) {
    let flat = flatten(tr, layers, parent, name, c);
    let (report, ..) = timed(tr, layers, parent, "lint.structural", name, || {
        Linter::with_config(LintConfig::new()).run_flat(&flat)
    });
    layers.verdicts.note("structural", name, &report.to_json());
}

/// `sta_report`: static timing analysis and its slack summary.
pub fn sta_report(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<SpanId>,
    name: &str,
    c: &Circuit,
    constraints: &TimingConstraints,
) {
    timed(tr, layers, parent, "estimate.sta", name, || {
        ipd_estimate::analyze_timing(c, constraints).map(|r| r.slack_summary())
    })
    .0
    .expect("replayed design analyzes");
}

/// `seal_design_semantic`: the semantic lint tier, EDIF and the seal.
#[allow(clippy::too_many_arguments)]
pub fn seal_semantic(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<SpanId>,
    name: &str,
    c: &Circuit,
    key: &[u8; 32],
    nonce: u64,
) {
    let flat = flatten(tr, layers, parent, name, c);
    let (report, ..) = timed(tr, layers, parent, "lint.semantic", name, || {
        Linter::with_oracle(LintConfig::new(), OracleOptions::default()).run_flat(&flat)
    });
    layers.verdicts.note("semantic", name, &report.to_json());
    let text = edif(tr, layers, parent, name, c);
    seal(tr, layers, parent, name, text.as_bytes(), key, nonce);
}

/// `seal_design_verified`: both flattens, the equivalence check, the
/// structural gate with its EDIF and seal, then the two EDIF texts the
/// certificate binds.
#[allow(clippy::too_many_arguments)]
pub fn seal_verified(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<SpanId>,
    name: &str,
    c: &Circuit,
    golden: &Circuit,
    key: &[u8; 32],
    nonce: u64,
) {
    let golden_flat = flatten(tr, layers, parent, name, golden);
    let revised_flat = flatten(tr, layers, parent, name, c);
    let report = timed(tr, layers, parent, "verify.equiv", name, || {
        check_equiv(&golden_flat, &revised_flat, &EquivConfig::default())
    })
    .0
    .expect("replayed equivalence check completes");
    layers.cec.insert(name.to_owned(), report.stats);
    let flat = flatten(tr, layers, parent, name, c);
    let (lint, ..) = timed(tr, layers, parent, "lint.structural", name, || {
        Linter::with_config(LintConfig::new()).run_flat(&flat)
    });
    layers.verdicts.note("structural", name, &lint.to_json());
    let text = edif(tr, layers, parent, name, c);
    seal(tr, layers, parent, name, text.as_bytes(), key, nonce);
    edif(tr, layers, parent, name, golden);
    edif(tr, layers, parent, name, c);
}
