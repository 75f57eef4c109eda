//! Percentiles, the metric catalogue, and the JSON result line.

/// The nearest-rank `q`-quantile of `sorted` (ascending): the smallest
/// sample with at least `q · n` samples at or below it.  `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The 1-based nearest rank of the `q`-quantile among `n >= 1` samples.
/// The small epsilon keeps `0.9 · 100` from rounding up to rank 91.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile.  A
/// tail percentile is only reported when this is at least [`MIN_TAIL`].
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Fewest samples a reported tail percentile must have beyond it.
pub const MIN_TAIL: usize = 10;

/// Median of unsorted samples (nearest rank); 0 when empty.
pub fn median(samples: &[u64]) -> u64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    percentile(&s, 0.5).unwrap_or(0)
}

/// Median of unsorted `f64` samples (nearest rank); 0 when empty.
pub fn median_f64(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), 0.5) - 1]
}

/// `num / den`, or 0 when the denominator is 0 (the layer saw no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One metric of the catalogue: name, unit and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Mirrors `BENCHMARK.json`; read by the test that keeps the two equal.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// The metrics an untraced run (`--trace 0`) prints, in order.
pub const END_TO_END: &[Metric] = &[
    m("throughput_rps", "1/s", "higher"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_p90_ms", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// The metrics a traced run (`--trace 1`) prints, in order.  A metric of a
/// layer or request kind the workload never reaches reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("failed_ratio", "ratio", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
    m("trace.spans", "count", "lower"),
    m("service.residual_ns", "ns", "lower"),
    m("service.tax_ratio.fw", "ratio", "lower"),
    m("service.tax_ratio.lcs", "ratio", "lower"),
    m("service.tax_ratio.mm", "ratio", "lower"),
    m("kind.p50_ms.apsp", "ms", "lower"),
    m("kind.p50_ms.lcs", "ms", "lower"),
    m("kind.p50_ms.mm", "ms", "lower"),
    m("kind.p50_ms.sort", "ms", "lower"),
    m("kind.p50_ms.inc_update", "ms", "lower"),
    m("kind.p50_ms.inc_snapshot", "ms", "lower"),
    m("cache.hit_ratio", "ratio", "higher"),
    m("cache.misses", "count", "lower"),
    m("compile.cold_ns.apsp", "ns", "lower"),
    m("compile.cold_ns.lcs", "ns", "lower"),
    m("compile.cold_ns.mm", "ns", "lower"),
    m("compile.cold_ns.sort", "ns", "lower"),
    m("compile.cold_ns.incr", "ns", "lower"),
    m("bind.ns.apsp", "ns", "lower"),
    m("bind.ns.lcs", "ns", "lower"),
    m("bind.ns.mm", "ns", "lower"),
    m("bind.ns.sort", "ns", "lower"),
    m("bind.ns.inc_update", "ns", "lower"),
    m("bind.ns.inc_snapshot", "ns", "lower"),
    m("arena.reuse_ratio", "ratio", "higher"),
    m("engine.coalesce_ratio", "ratio", "higher"),
    m("engine.passes", "count", "lower"),
    m("engine.max_queue_depth", "count", "lower"),
    m("engine.errors", "count", "lower"),
    m("plan.waves", "count", "lower"),
    m("plan.steps", "count", "lower"),
    m("pool.barriers", "count", "lower"),
    m("exec.wall_ns", "ns", "lower"),
    m("exec.compute_ns", "ns", "lower"),
    m("exec.tmax_ns", "ns", "lower"),
    m("exec.barrier_idle_ns", "ns", "lower"),
    m("exec.balance", "ratio", "higher"),
    m("runtime.empty_wave_ns", "ns", "lower"),
    m("leaf.fw_ns_per_relax", "ns", "lower"),
    m("leaf.lcs_ns_per_cell", "ns", "lower"),
    m("leaf.mm_gflops", "GFLOP/s", "higher"),
    m("kernel.generic_leaves", "count", "lower"),
    m("lcs.table_bytes", "bytes", "lower"),
    m("incr.update_ns", "ns", "lower"),
    m("incr.snapshot_ns", "ns", "lower"),
    m("incr.incremental_share", "ratio", "higher"),
    m("incr.blocks_repropagated", "count", "lower"),
    m("dist.words_per_rank", "count", "lower"),
    m("dist.messages", "count", "lower"),
    m("dist.supersteps", "count", "lower"),
    m("dist.lower_hit_ratio", "ratio", "higher"),
];

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `catalogue` looked up in `values` (a missing one is a
/// bug in the benchmark, so it panics).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &[(&str, f64)],
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|metric| {
            let value = values
                .iter()
                .find(|(n, _)| *n == metric.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", metric.name))
                .1;
            assert!(value.is_finite(), "metric {} is {value}", metric.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(value),
                metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// A string as a JSON string literal (the benchmark's own strings only
/// need quotes and backslashes escaped).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric or workload name: starts with a letter
    /// or digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// Whether `unit` is a valid unit: at most 16 characters of letters,
    /// digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        assert_eq!(percentile(&s, 0.9), Some(90));
        assert_eq!(percentile(&s, 1.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.9), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // Odd count: the true middle; even count: the lower middle.
        assert_eq!(percentile(&[1, 2, 3], 0.5), Some(2));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
        assert_eq!(median(&[5, 1, 3]), 3);
        assert_eq!(median_f64(&[2.0, -1.0, 9.0]), 2.0);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(0, 0.9), 0);
        // p90 has MIN_TAIL samples beyond it from 100 samples on.
        assert!((100..2000).all(|n| beyond(n, 0.9) >= MIN_TAIL));
    }

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for metric in &all {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
            assert!(matches!(metric.better, "higher" | "lower"));
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert!(!valid_unit("m s") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"better\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for w in crate::workload::NAMES {
            assert!(valid_name(w));
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
    }

    #[test]
    fn result_line_shape() {
        let cat = &END_TO_END[..1];
        let line = result_line(true, 3, 0, cat, &[("throughput_rps", 12.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"throughput_rps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
