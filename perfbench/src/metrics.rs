//! Every metric the command prints, with its unit and direction — the
//! same list `BENCHMARK.json` declares (a test holds the two together).

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// `<name>` for end-to-end metrics, `<module>.<metric>` per layer.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the store sees; printed by untraced runs.
pub const END_TO_END: &[Def] = &[
    def("commits_per_s", "1/s", "higher"),
    def("ack_p50_us", "us", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Single layers; printed by traced runs.
pub const PER_LAYER: &[Def] = &[
    def("tx.template.canonicalize_p50_us", "us", "lower"),
    def("store.guard.prepare_p50_us", "us", "lower"),
    def("store.guard.prepare_p99_us", "us", "lower"),
    def("store.guard.hit_ratio", "ratio", "higher"),
    def("store.guard.compile_ms_per_shape", "ms", "lower"),
    def("eval.guard_p50_us", "us", "lower"),
    def("eval.guard_p99_us", "us", "lower"),
    def("eval.guard_pass_ratio", "ratio", "higher"),
    def("tx.program.run_p50_us", "us", "lower"),
    def("tx.program.run_p99_us", "us", "lower"),
    def("store.snapshot.publish_p50_us", "us", "lower"),
    def("store.snapshot.publish_lock_p99_us", "us", "lower"),
    def("store.snapshot.conflicts_per_commit", "count", "lower"),
    def("store.wal.encode_p50_us", "us", "lower"),
    def("store.wal.record_bytes_p50", "B", "lower"),
    def("store.wal.fsyncs_per_commit", "count", "lower"),
    def("store.wal.batch_p50", "count", "higher"),
    def("store.wal.publish_to_durable_p50_us", "us", "lower"),
    def("store.wal.publish_to_durable_p99_us", "us", "lower"),
    def("store.wal.recover_events_per_s", "1/s", "higher"),
    def("store.wal.recovery_s", "s", "lower"),
    def("store.wal.log_bytes_per_commit", "B", "lower"),
    def("store.server.submit_p50_us", "us", "lower"),
    def("store.server.queue_wait_p50_us", "us", "lower"),
    def("store.server.queue_wait_p99_us", "us", "lower"),
    def("store.server.tx_total_p50_us", "us", "lower"),
    def("store.server.unattributed_frac", "ratio", "lower"),
    def("store.shard.cross_submit_p50_us", "us", "lower"),
    def("store.shard.cross_submit_p99_us", "us", "lower"),
    def("store.shard.prepare_p99_us", "us", "lower"),
    def("store.shard.decide_p50_us", "us", "lower"),
    def("store.shard.prepare_retries_per_cross", "count", "lower"),
    def("store.shard.cross_commit_ratio", "ratio", "higher"),
    def("store.shard.single_conflicts_per_commit", "count", "lower"),
    def("net.request_codec_p50_us", "us", "lower"),
    def("net.response_codec_p50_us", "us", "lower"),
    def("net.frame_p50_us", "us", "lower"),
    def("net.bytes_per_tx", "B", "lower"),
    def("net.server_request_p50_us", "us", "lower"),
    def("net.wire_overhead_p50_us", "us", "lower"),
    def("store.audit.cold_audit_s", "s", "lower"),
    def("store.audit.replay_commits_per_s", "1/s", "higher"),
    def("loadgen.ack_p99_us", "us", "lower"),
    def("loadgen.late_p99_us", "us", "lower"),
    def("loadgen.offered_per_s", "1/s", "higher"),
    def("loadgen.failed_frac", "ratio", "lower"),
    def("trace.commits_per_s", "1/s", "higher"),
    def("trace.overhead_frac", "ratio", "lower"),
];

/// The values of one run, restricted to one declared list.
pub struct Values {
    defs: &'static [Def],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// An empty set for `defs`.
    pub fn new(defs: &'static [Def]) -> Self {
        Values {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Sets a metric. Panics on a name the list does not declare: that
    /// is a bug in this program, not a measurement.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            self.defs.iter().any(|d| d.name == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    /// Every declared metric with its value, in declaration order; errors
    /// when one is missing or not a finite number.
    pub fn complete(&self) -> Result<Vec<(Def, f64)>, String> {
        self.defs
            .iter()
            .map(|d| match self.values.get(d.name) {
                Some(v) if v.is_finite() => Ok((*d, *v)),
                Some(v) => Err(format!("metric {} is {v}", d.name)),
                None => Err(format!("metric {} was not measured", d.name)),
            })
            .collect()
    }
}

/// One `metric <name> = <value> <unit> (<better> is better)` line each.
pub fn print(values: &[(Def, f64)]) {
    for (d, value) in values {
        println!(
            "metric {} = {value} {} ({} is better)",
            d.name, d.unit, d.better
        );
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_line(attempted: u64, failed: u64, values: &[(Def, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every metric object in one top-level
    /// array of `BENCHMARK.json`, read with a minimal scanner (the file is
    /// flat: one object per metric, string values only).
    fn declared(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
            let rest = &obj[at..];
            let q = rest.find('"').expect("value") + 1;
            rest[q..q + rest[q..].find('"').expect("close")].to_string()
        };
        json[open + 1..close]
            .split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    fn ours(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let json = benchmark_json();
        assert_eq!(declared(&json, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn values_refuse_gaps_and_render_every_digit() {
        let mut v = Values::new(END_TO_END);
        for d in END_TO_END {
            v.put(d.name, 1.0);
        }
        v.put("setup_s", 0.123456789);
        let done = v.complete().unwrap();
        let line = result_line(10, 0, &done);
        assert!(line.ends_with("}}}"), "{line}");
        assert!(line.contains("\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}"));
        let mut gap = Values::new(END_TO_END);
        gap.put("setup_s", f64::NAN);
        assert!(gap.complete().is_err());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_bugs() {
        Values::new(END_TO_END).put("tx.template.canonicalize_p50_us", 1.0);
    }
}
