//! Summary statistics, the metric catalogue and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Command classes that carry traffic on at least one workload.
pub const CF_CLASSES: &[&str] = &[
    "lock_request",
    "lock_release",
    "lock_record",
    "cache_read",
    "cache_write",
    "cache_castout",
    "list_write",
    "list_move",
];

/// The six remote calls of one `cf_wire` sequence, in issue order.
pub const WIRE_CALLS: &[&str] =
    &["lock_request", "register_read", "cache_write", "enqueue", "take", "release"];

/// Per-layer metrics of layers that are not per class or per call.
const LAYER_FIXED: &[(&str, &str)] = &[
    ("tm.commit_and_retry_us", "us"),
    ("db.attempt_self_us", "us"),
    ("db.read_us", "us"),
    ("db.write_us", "us"),
    ("db.attempts_per_op", "count"),
    ("db.aborts_per_op", "count"),
    ("irlm.requests_per_op", "count"),
    ("irlm.regrant_local_ratio", "ratio"),
    ("irlm.cf_sync_grant_ratio", "ratio"),
    ("irlm.false_contention_pct", "%"),
    ("irlm.real_conflict_pct", "%"),
    ("irlm.negotiations_per_op", "count"),
    ("irlm.recalls_per_op", "count"),
    ("buf.local_hit_ratio", "ratio"),
    ("buf.cf_refreshes_per_op", "count"),
    ("buf.dasd_reads_per_op", "count"),
    ("buf.coherency_misses_per_op", "count"),
    ("buf.writes_per_op", "count"),
    ("log.block_writes_per_op", "count"),
    ("log.capacity_used_pct", "%"),
    ("castout.pages_per_s", "1/s"),
    ("castout.checkpoints", "count"),
    ("cache.changed_pages_end", "count"),
    ("dasd.page_reads_per_op", "count"),
    ("dasd.page_writes_per_op", "count"),
    ("cf.cmds_per_op", "count"),
    ("cf.time_per_op_us", "us"),
    ("cf.sync_ratio", "ratio"),
    ("cf.async_converted", "count"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric, reported by every traced run (`--trace 1`), in
/// report order. Metrics of a layer the workload does not cross read 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for class in CF_CLASSES {
        out.push((format!("cf.{class}.per_op"), "count"));
        out.push((format!("cf.{class}.mean_us"), "us"));
    }
    for call in WIRE_CALLS {
        out.push((format!("wire.{call}.client_us"), "us"));
        out.push((format!("wire.{call}.overhead_us"), "us"));
    }
    out
}

/// Whether `name` is a legal metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Candidate percentiles for a tail figure, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest candidate percentile, at most `cap`, that leaves at least
/// ten samples beyond it among `n`; `None` when even the median does not.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_CANDIDATES.iter().copied().filter(|&p| p <= cap).find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
/// The small slack keeps float error in `p` (99.9 is not exact) from
/// pushing an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of `values`: the mean of the two middle values when their
/// count is even.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The last line of standard output: the machine-readable result.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// Layer counters keyed by name. Keys under `gauge.` are levels read at
/// the end of a window; every other key is a cumulative count.
pub type Counters = BTreeMap<String, u64>;

/// Activity between two snapshots: counts subtract, gauges keep the later
/// level.
pub fn delta(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, &v)| {
            let d = if k.starts_with("gauge.") { v } else { v.saturating_sub(*before.get(k).unwrap_or(&0)) };
            (k.clone(), d)
        })
        .collect()
}

/// Fold one window's activity into a run total: counts add, gauges keep
/// the highest level seen.
pub fn accumulate(total: &mut Counters, window: &Counters) {
    for (k, &v) in window {
        let slot = total.entry(k.clone()).or_insert(0);
        *slot = if k.starts_with("gauge.") { (*slot).max(v) } else { *slot + v };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(100_000, 100.0), Some(99.9));
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0), "exactly ten beyond p99");
        assert_eq!(tail_percentile(999, 99.0), Some(95.0), "nine beyond p99 is too few");
        assert_eq!(tail_percentile(10_000, 100.0), Some(99.9));
        assert_eq!(tail_percentile(9_999, 100.0), Some(99.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn percentiles_and_medians() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_characters() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for name in &names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        assert!(names.len() <= 16 + 128);
        for unit in END_TO_END.iter().map(|(_, u)| *u).chain(per_layer().iter().map(|(_, u)| *u)) {
            assert!(valid_unit(unit), "{unit}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_name("cf.lock_request.mean_us") && valid_name("9-a.b_c"));
        assert!(!valid_unit("") && !valid_unit("ms per op") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed: Vec<&str> =
            spec.split("\"name\": \"").skip(1).map(|s| &s[..s.find('"').unwrap()]).collect();
        let mut expected: Vec<String> = ["browse", "cf_wire"].iter().map(|s| s.to_string()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(per_layer().into_iter().map(|(n, _)| n));
        assert_eq!(listed, expected);
    }

    #[test]
    fn deltas_subtract_counts_and_keep_gauges() {
        let before: Counters = [("a".to_string(), 5), ("gauge.g".to_string(), 9)].into();
        let after: Counters = [("a".to_string(), 8), ("gauge.g".to_string(), 4), ("b".to_string(), 2)].into();
        let d = delta(&after, &before);
        assert_eq!(d["a"], 3);
        assert_eq!(d["gauge.g"], 4);
        assert_eq!(d["b"], 2);
        let mut total = Counters::new();
        accumulate(&mut total, &d);
        accumulate(&mut total, &[("a".to_string(), 1), ("gauge.g".to_string(), 2)].into());
        assert_eq!(total["a"], 4);
        assert_eq!(total["gauge.g"], 4);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line =
            result_line(true, 10, 0, &[("ops_per_s".into(), "1/s", 12.5), ("x".into(), "us", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 12.5, \
             \"unit\": \"1/s\"}, \"x\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
    }
}
