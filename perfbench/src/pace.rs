//! Open-loop pacing: requests go out on a fixed schedule whatever the
//! server does, and each is timed from when it was due. A stalled
//! server therefore shows as latency on every request that fell due
//! during the stall, never as a lower offered rate.

use std::thread;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSample {
    /// When it was due, in seconds after the schedule's start.
    pub due_s: f64,
    /// From due to completion.
    pub latency_ms: f64,
    /// From due to send: how late the generator ran.
    pub late_ms: f64,
    /// Whether the request succeeded and its output checked out.
    pub ok: bool,
}

/// Issues `op(k)` for the `k`-th request due at `start + k * period`,
/// for every due time before `start + window`. The sender sleeps when
/// early; when late (the previous request overran) it sends at once,
/// and the wait counts into the request's latency. `op` returns when
/// its response arrived (work it does afterwards, such as checking
/// the output, is not latency) and whether it succeeded.
pub fn open_loop(
    start: Instant,
    period: Duration,
    window: Duration,
    mut op: impl FnMut(u64) -> (Instant, bool),
) -> Vec<OpenSample> {
    let period_ns = period.as_nanos().max(1) as u64;
    let count = window.as_nanos() as u64 / period_ns;
    let mut out = Vec::with_capacity(count as usize);
    for k in 0..count {
        let due = start + Duration::from_nanos(k * period_ns);
        let now = Instant::now();
        if now < due {
            thread::sleep(due - now);
        }
        let sent = Instant::now();
        let (done, ok) = op(k);
        out.push(OpenSample {
            due_s: (due - start).as_secs_f64(),
            latency_ms: (done - due).as_secs_f64() * 1e3,
            late_ms: (sent - due).as_secs_f64() * 1e3,
            ok,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_server_counts_as_latency_not_as_a_lower_rate() {
        let period = Duration::from_millis(2);
        let stall = Duration::from_millis(40);
        let start = Instant::now() + Duration::from_millis(1);
        let samples = open_loop(start, period, Duration::from_millis(120), |k| {
            if k == 10 {
                thread::sleep(stall);
            }
            (Instant::now(), true)
        });
        // Every due request was sent: the offered rate is the schedule's.
        assert_eq!(samples.len(), 60);
        // Request 11 fell due 2 ms into the stall and waited out the
        // remaining ~38 ms; it is charged that wait.
        let eleventh = samples[11];
        assert!(eleventh.late_ms >= 30.0, "{eleventh:?}");
        assert!(eleventh.latency_ms >= eleventh.late_ms);
        // Later requests see less of the stall as the sender catches up.
        assert!(samples[15].latency_ms < eleventh.latency_ms);
        // A closed-loop clock (send to completion) would have shown
        // request 11 as instant.
        assert!(eleventh.latency_ms - eleventh.late_ms < 5.0);
        // Due times stay on the schedule.
        assert!((samples[30].due_s - 0.060).abs() < 1e-9);
    }

    #[test]
    fn an_early_sender_sleeps_until_due() {
        let start = Instant::now() + Duration::from_millis(5);
        let samples = open_loop(
            start,
            Duration::from_millis(5),
            Duration::from_millis(20),
            |_| (Instant::now(), true),
        );
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().all(|s| s.late_ms >= 0.0 && s.ok));
        assert!(start.elapsed() >= Duration::from_millis(15));
    }
}
