//! In-memory spans recorded from outside the program.
//!
//! Each client call into a layer's public API is a span. After the
//! call, the generator replays the same request in-process through the
//! layer functions it reaches and records those calls as child spans
//! of the call's span. Replayed children are therefore not nested in
//! time inside their parent: they ran afterwards, against the same
//! inputs. A span's self time is its duration minus the summed
//! durations of its children, floored at zero.

use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.seal`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Span storage for one thread. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every method a no-op.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished interval and returns its id (`None` when
    /// disabled).
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now, to be closed with [`Tracer::end`]; children
    /// recorded meanwhile can name it as their parent.
    pub fn begin(&mut self, parent: Option<SpanId>, name: &'static str) -> Option<SpanId> {
        let now = Instant::now();
        self.record(parent, name, now, now)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.epoch.elapsed().as_nanos() as u64;
            let span = &mut self.spans[id];
            span.dur_ns = now.saturating_sub(span.start_ns);
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans in, re-basing their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// One tab-separated row per span: id, parent, name, start,
    /// duration and self time (nanoseconds).
    pub fn tsv_rows(&self) -> Vec<String> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
                format!(
                    "{i}\t{parent}\t{}\t{}\t{}\t{}",
                    s.name, s.start_ns, s.dur_ns, selfs[i]
                )
            })
            .collect()
    }
}

/// Self time of every span: its duration minus its children's summed
/// durations, floored at zero (a replay that costs more than the call
/// it mirrors leaves the call no self time, and the excess shows as
/// coverage above one).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur_ns;
        }
    }
    spans
        .iter()
        .zip(child_sum)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// Summed self time of every descendant of the spans named `op`,
/// divided by those spans' summed duration. One means the spans below
/// the op account for all of its time; below one, the op spent time no
/// span covers; above one, replays cost more than the calls they
/// mirror.
pub fn coverage(spans: &[Span], op: &str) -> Option<f64> {
    let selfs = self_times(spans);
    // Attribute each span's self time to its nearest ancestor named
    // `op`, if any.
    let mut covered = 0u64;
    let mut total = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.name == op {
            total += s.dur_ns;
            continue;
        }
        let mut up = s.parent;
        while let Some(p) = up {
            if spans[p].name == op {
                covered += selfs[i];
                break;
            }
            up = spans[p].parent;
        }
    }
    (total > 0).then(|| covered as f64 / total as f64)
}

/// Spans named `name` per span named `per`.
pub fn count_per(spans: &[Span], name: &str, per: &str) -> Option<f64> {
    let n = spans.iter().filter(|s| s.name == name).count();
    let d = spans.iter().filter(|s| s.name == per).count();
    (d > 0).then(|| n as f64 / d as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, dur_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op(100) -> call(80) -> {flatten(20), lint(30)}; lint -> x(5)
        let spans = vec![
            span("op", None, 100),
            span("call", Some(0), 80),
            span("flatten", Some(1), 20),
            span("lint", Some(1), 30),
            span("x", Some(3), 5),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 25, 5]);
        // Descendant self times: 30 + 20 + 25 + 5 = 80 of 100.
        assert_eq!(coverage(&spans, "op"), Some(0.8));
    }

    #[test]
    fn self_time_floors_at_zero_and_coverage_shows_the_excess() {
        // The replayed children (70 + 50) cost more than the call (100).
        let spans = vec![
            span("op", None, 100),
            span("call", Some(0), 100),
            span("a", Some(1), 70),
            span("b", Some(1), 50),
        ];
        assert_eq!(self_times(&spans), vec![0, 0, 70, 50]);
        assert_eq!(coverage(&spans, "op"), Some(1.2));
    }

    #[test]
    fn coverage_sums_over_ops_and_ignores_other_trees() {
        let spans = vec![
            span("op", None, 10),
            span("call", Some(0), 10),
            span("op", None, 30),
            span("call", Some(2), 20),
            span("other", None, 1000),
            span("child", Some(4), 7),
        ];
        assert_eq!(coverage(&spans, "op"), Some(0.75));
        assert_eq!(coverage(&spans, "missing"), None);
    }

    #[test]
    fn absorb_rebases_parent_ids() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let t = Instant::now();
        a.record(None, "op", t, t);
        let mut b = Tracer::new(true, epoch);
        let root = b.record(None, "op", t, t);
        b.record(root, "call", t, t);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(count_per(a.spans(), "call", "op"), Some(0.5));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let now = Instant::now();
        assert_eq!(t.record(None, "op", now, now), None);
        let id = t.begin(None, "op");
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
