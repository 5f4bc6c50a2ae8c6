//! The metric tables `BENCHMARK.json` declares, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    // Median of set-ups repeated before and after the measured window:
    // elaborate and register designs, enroll customers, prime the
    // bundle store, read golden netlists, bind servers.
    ("setup_s", "s"),
    // Completed ops per second spent issuing them (output checks, which
    // are the benchmark's own work, excluded); the achieved rate in the
    // open loop. For the closed loops this is one over the mean op
    // latency.
    //
    // Op latency percentiles are printed on the run's summary line, not
    // here. On a shared host the CPU switches every few seconds between
    // a fast state and one ~1.6x slower, so per-op latency is bimodal
    // and its median jumps between the two modes with the share of the
    // run spent in each (deliver_cold: 40 ms +- 12 ms across runs of
    // the same code). A mean moves only in proportion to that share.
    ("ops_per_s", "1/s"),
    // Mean latency of the workload's second request class: the seal
    // class of revalidate_under_seal; the two sealed_design calls of a
    // deliver_cold session; the seal_design_verified step of a
    // release; the 600 black-box round trips of an evaluate_cosim op.
    ("bg_mean_ms", "ms"),
    // Ops that succeeded with correct output over ops attempted: one
    // minus the failure ratio, so that the metric is never zero.
    ("success_ratio", "ratio"),
    // VmHWM of the process (one process per workload run).
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.connect_us", "us"),
    ("wire.bytes_per_op", "B"),
    ("wire.requests_per_op", "count"),
    ("wire.echo_rtt_us", "us"),
    ("core.endpoint.manifest_us", "us"),
    ("core.endpoint.fetch_us", "us"),
    ("core.endpoint.fetch_segment_us", "us"),
    ("core.endpoint.sealed_design_us", "us"),
    ("core.endpoint.lint_report_us", "us"),
    ("core.endpoint.sta_report_us", "us"),
    ("core.manifest_us", "us"),
    ("core.fetch_304_us", "us"),
    ("core.fetch_segment_us", "us"),
    ("core.service_wait_p90_ms", "ms"),
    ("core.seal_ms", "ms"),
    ("core.seal_mb_s", "MB/s"),
    ("core.store_hit_ratio", "ratio"),
    ("core.audit_records", "count"),
    ("pack.cold_pack_ms", "ms"),
    ("pack.packed_bytes", "B"),
    ("lint.structural_timed_ms", "ms"),
    ("lint.verdict_reuse_ratio", "ratio"),
    ("lint.semantic_ms", "ms"),
    ("estimate.sta_ms", "ms"),
    ("estimate.area_timing_ms", "ms"),
    ("netlist.edif_ms", "ms"),
    ("netlist.edif_mb_s", "MB/s"),
    ("netlist.edif_per_op", "count"),
    ("netlist.read_edif_ms", "ms"),
    ("hdl.elaborate_ms", "ms"),
    ("hdl.flatten_ms", "ms"),
    ("hdl.flatten_per_op", "count"),
    ("sim.local_cycles_per_s", "1/s"),
    ("sim.batch_vectors_per_s", "1/s"),
    ("cosim.event_us", "us"),
    ("cosim.inproc_event_us", "us"),
    ("cosim.round_trips_per_op", "count"),
    ("verify.equiv_ms", "ms"),
    ("verify.sat_queries", "count"),
    ("verify.sat_conflicts", "count"),
    ("verify.outputs_by_hash_ratio", "ratio"),
    ("viewer.render_ms", "ms"),
    ("loadgen.late_p90_ms", "ms"),
    ("trace.overhead_ratio.deliver_cold", "ratio"),
    ("trace.overhead_ratio.revalidate_under_seal", "ratio"),
    ("trace.overhead_ratio.evaluate_cosim", "ratio"),
    ("trace.overhead_ratio.release_gate", "ratio"),
    ("trace.coverage_ratio.deliver_cold", "ratio"),
    ("trace.coverage_ratio.revalidate_under_seal", "ratio"),
    ("trace.coverage_ratio.evaluate_cosim", "ratio"),
    ("trace.coverage_ratio.release_gate", "ratio"),
];

/// Metric values collected during a run, by name.
pub type Values = BTreeMap<String, f64>;

/// Renders the result line: exactly the metrics of `table`, in table
/// order, each with its unit.
///
/// # Errors
///
/// Names a metric of the table that was not measured, one that was
/// measured but is not in the table, or a value that is not finite.
pub fn result_line(
    table: &[(&str, &str)],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !table.iter().any(|(name, _)| name == k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = values
            .get(*name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest text that reads back to the same
        // f64, so no measured digit is lost.
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Just enough JSON to read `BENCHMARK.json`.
    #[derive(Debug)]
    enum Json {
        Str(String),
        Other,
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
            self.i += 1;
        }

        fn string(&mut self) -> String {
            self.eat(b'"');
            let start = self.i;
            while self.s[self.i] != b'"' {
                assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                self.i += 1;
            }
            self.i += 1;
            String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'"' => Json::Str(self.string()),
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b']' {
                            self.i += 1;
                            return Json::Arr(items);
                        }
                        items.push(self.value());
                        self.ws();
                        if self.s[self.i] == b',' {
                            self.i += 1;
                        }
                    }
                }
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b'}' {
                            self.i += 1;
                            return Json::Obj(fields);
                        }
                        let key = self.string();
                        self.eat(b':');
                        fields.push((key, self.value()));
                        self.ws();
                        if self.s[self.i] == b',' {
                            self.i += 1;
                        }
                    }
                }
                _ => {
                    while self.i < self.s.len() && !b",]}".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    Json::Other
                }
            }
        }
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(fields) = obj else {
            panic!("not an object")
        };
        &fields.iter().find(|(k, _)| k == key).unwrap().1
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let root = Parser {
            s: text.as_bytes(),
            i: 0,
        }
        .value();
        let Json::Arr(items) = field(&root, section) else {
            panic!("{section} is not a list")
        };
        items
            .iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
                other => panic!("bad metric {other:?}"),
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_those_declared() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn result_line_demands_every_metric_and_no_other() {
        let table = &[("a_ms", "ms"), ("b", "count")];
        let mut values = Values::new();
        values.insert("a_ms".into(), 1.25);
        assert!(result_line(table, &values, true, 1, 0)
            .unwrap_err()
            .contains("b was not measured"));
        values.insert("b".into(), 3.0);
        assert_eq!(
            result_line(table, &values, true, 5, 0).unwrap(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        values.insert("c".into(), 1.0);
        assert!(result_line(table, &values, true, 1, 0).is_err());
        values.remove("c");
        values.insert("b".into(), f64::NAN);
        assert!(result_line(table, &values, true, 1, 0).is_err());
    }
}
