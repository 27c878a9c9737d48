//! Metric names and units, and the lines a run prints.

/// Every end-to-end metric (untraced run), with its unit, in print order.
/// Latencies are of one client call of any kind, pooled: `get` on
/// `lookup`, `get_batch(32)` on `multiget`, and get/insert/scan on
/// `hotwrite`, where the p50 falls among gets and inserts and the p99
/// among the scans. Each call kind's own p50/p99/p99.9 and sample count
/// are in the run record.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mops", "Mops/s"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("bytes_per_key", "B/key"),
    ("setup_s", "s"),
];

/// Every per-layer metric (traced run), with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.throughput_mops", "Mops/s"),
    ("trace.spans", "count"),
    ("trace.call_mean_ns", "ns"),
    ("region.get_ns", "ns"),
    ("region.route_ns", "ns"),
    ("region.get_batch_ns_per_key", "ns"),
    ("region.batch_split_ns_per_key", "ns"),
    ("region.scan_ns", "ns"),
    ("region.scan_merge_ns", "ns"),
    ("region.route_retries", "count"),
    ("region.bulk_load_s", "s"),
    ("alt.get_ns", "ns"),
    ("alt.get_learned_ns", "ns"),
    ("alt.get_art_ns", "ns"),
    ("alt.learned_share", "ratio"),
    ("alt.models", "count"),
    ("alt.fast_pointers", "count"),
    ("alt.art_hops_jump", "hops"),
    ("alt.art_hops_root", "hops"),
    ("alt.get_batch_ns_per_key", "ns"),
    ("alt.scan_ns", "ns"),
    ("alt.mem_learned_bpk", "B/key"),
    ("alt.mem_art_bpk", "B/key"),
    ("alt.mem_fastptr_bpk", "B/key"),
    ("alt.bulk_load_s", "s"),
    ("alt.retrains", "count"),
    ("alt.retrain_attempts", "count"),
    ("alt.retrain_stall_inserts", "count"),
    ("alt.retrain_stall_s", "s"),
    ("alt.rollbacks", "count"),
    ("alt.degraded", "count"),
    ("art.get_ns", "ns"),
    ("art.get_batch_ns_per_key", "ns"),
    ("art.scan_ns", "ns"),
    ("art.arena_bytes", "bytes"),
    ("learned.gpl_segment_s", "s"),
    ("learned.segments", "count"),
    ("serve.perkey_ns", "ns"),
    ("serve.batched_ns_per_key", "ns"),
    ("serve.avg_batch", "keys"),
    ("serve.shed_frac", "ratio"),
    ("floor.btree_get_ns", "ns"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit from the same table.
    pub unit: &'static str,
}

/// Collects metrics by name; the unit comes from the tables above.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Record `name`. Panics on a name missing from both tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
            .1;
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, value, unit });
    }
}

/// What one run of the benchmark produced.
#[derive(Debug)]
pub struct Report {
    /// Every answer checked out.
    pub correct: bool,
    /// Calls attempted in the measured phase.
    pub attempted: u64,
    /// Calls that returned an error or were refused.
    pub failed: u64,
    /// The metrics to print: every end-to-end one, or every per-layer one.
    pub metrics: Vec<Metric>,
    /// Run description (seed, revision, sizes, sample counts, per-call
    /// latencies) as `(key, JSON value)` pairs.
    pub record: Vec<(String, String)>,
    /// Why the run failed: the first wrong answer, or a `hotwrite` stream
    /// that did not run to its end.
    pub wrong: Option<String>,
}

impl Report {
    /// The result line: the last line the benchmark prints.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    jstr(m.name),
                    num(m.value),
                    jstr(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run record, printed before the result line.
    pub fn record_json(&self) -> String {
        let fields: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("{}: {v}", jstr(k)))
            .collect();
        format!("{{\"record\": {{{}}}}}", fields.join(", "))
    }

    /// Human-readable metric lines.
    pub fn table(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| format!("{:<32} {:>16.4} {}", m.name, m.value, m.unit))
            .collect()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints; non-finite values (which
/// JSON cannot hold) print as `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Nearest-rank quantile of sorted `ns` samples, in µs (0 when empty).
pub fn quantile_us(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1]) / 1e3
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "{n} declared twice");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let s: Vec<u32> = (1..=1000).map(|i| i * 1000).collect();
        assert_eq!(quantile_us(&s, 0.5), 500.0);
        assert_eq!(quantile_us(&s, 0.999), 999.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
