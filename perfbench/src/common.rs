//! Pieces every workload shares: the seeded generator, the designs,
//! per-phase outcome tallies, wire reconciliation and process memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ipd_estimate::TimingConstraints;
use ipd_hdl::Circuit;
use ipd_modgen::{FirFilter, KcmMultiplier};
use ipd_wire::{EndpointStats, WireStats};

/// The day every license is checked against (vendor epoch days).
pub const TODAY: u32 = 30;

/// The vendor's name, signing key and sealing master key.
pub const VENDOR: &str = "byu";
/// See [`VENDOR`].
pub const VENDOR_KEY: &[u8] = b"perfbench-vendor-key";
/// The product every customer is licensed for.
pub const PRODUCT: &str = "virtex-kcm";

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that each
    /// input family (customers, stimulus, order, rotation) has its own.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            out.swap(i, self.below(i as u64 + 1) as usize);
        }
        out
    }
}

/// The 16-bit full-width signed KCM (constant -12345).
pub fn kcm_w16() -> Circuit {
    let full = KcmMultiplier::new(-12345, 16, 1)
        .signed(true)
        .full_product_width();
    Circuit::from_generator(&KcmMultiplier::new(-12345, 16, full).signed(true))
        .expect("kcm_w16 elaborates")
}

/// The 16-tap, 8-bit FIR filter.
pub fn fir_t16() -> Circuit {
    let taps: Vec<i64> = (0..16i64).map(|i| (i % 7) - 3).collect();
    Circuit::from_generator(&FirFilter::new(taps, 8).expect("fir parameters"))
        .expect("fir_t16 elaborates")
}

/// The clock the delivery designs are registered under: `clk` at
/// 25 MHz, which every design of the example zoo meets.
pub fn clock_constraints() -> TimingConstraints {
    let mut t = TimingConstraints::new();
    t.clock("clk", 40.0, "clk");
    t
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Op latencies (ms): from the call for closed loops, from the due
    /// time for open loops.
    pub op_ms: Vec<f64>,
    /// Latencies (ms) of the workload's second request class.
    pub bg_ms: Vec<f64>,
    /// Open loop only: how late each op-class request was sent (ms).
    pub late_ms: Vec<f64>,
    /// Operations attempted (every class).
    pub attempted: u64,
    /// Operations that failed, were refused or returned wrong output.
    pub failed: u64,
    /// Seconds spent issuing operations, excluding output checks.
    pub busy_s: f64,
    /// Op-class operations that completed.
    pub completed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Phase {
    /// Counts one attempted operation and its outcome.
    pub fn outcome(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// Folds another phase in (the second client thread's share).
    pub fn absorb(&mut self, other: Phase) {
        self.op_ms.extend(other.op_ms);
        self.bg_ms.extend(other.bg_ms);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.errors.extend(other.errors);
    }
}

/// Closed-loop stopping rule: keep going until the window has passed
/// and at least `min_ops` operations ran.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// How long to measure.
    pub length: Duration,
    /// The fewest operations a phase may hold.
    pub min_ops: u64,
}

impl Window {
    /// Whether a closed loop that started at `start` and has run `ops`
    /// operations is done.
    pub fn done(&self, start: Instant, ops: u64) -> bool {
        start.elapsed() >= self.length && ops >= self.min_ops
    }
}

/// Per-endpoint totals summed over every client of one server.
#[derive(Debug, Default)]
pub struct WireTally {
    endpoints: BTreeMap<u16, EndpointStats>,
    sessions: u64,
}

impl WireTally {
    /// Adds one client connection's counters.
    pub fn add(&mut self, client: &WireStats) {
        self.sessions += 1;
        for (endpoint, s) in client.per_endpoint() {
            let slot = self.endpoints.entry(endpoint).or_default();
            slot.requests += s.requests;
            slot.errors += s.errors;
            slot.bytes_in += s.bytes_in;
            slot.bytes_out += s.bytes_out;
        }
    }

    /// Client requests and bytes (both directions) summed.
    pub fn totals(&self) -> (u64, u64) {
        self.endpoints.values().fold((0, 0), |(r, b), s| {
            (r + s.requests, b + s.bytes_in + s.bytes_out)
        })
    }

    /// Exact reconciliation: the server's per-endpoint counters and
    /// session count must equal the clients' sums.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn reconcile(&self, server: &WireStats) -> Result<(), String> {
        let served: BTreeMap<u16, EndpointStats> = server.per_endpoint().into_iter().collect();
        if served != self.endpoints {
            return Err(format!(
                "server endpoint totals {served:?} differ from the clients' {:?}",
                self.endpoints
            ));
        }
        if server.sessions_opened() != self.sessions {
            return Err(format!(
                "server opened {} sessions, clients made {}",
                server.sessions_opened(),
                self.sessions
            ));
        }
        Ok(())
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Milliseconds between two instants.
pub fn ms(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e3
}

/// Checks a condition, naming it when it fails.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_input_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, 1);
        let mut y = Rng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let mut p = Rng::new(3, 0).permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
