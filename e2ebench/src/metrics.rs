//! Reducing raw per-operation samples to the reported metrics, and the one
//! JSON line every run ends with.
//!
//! Percentiles come from the sorted raw samples (nearest rank), never from
//! a bucketed histogram.

use std::collections::BTreeMap;
use std::time::Duration;

/// A latency summary of one run's samples.
pub struct Latency {
    pub samples: usize,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is, e.g. `p99`.
    pub tail_label: String,
    /// Samples strictly beyond the tail's rank.
    pub tail_beyond: usize,
}

/// Nearest-rank value at `permille`/1000 of sorted `v`, with its 1-based rank.
fn rank(v: &[u64], permille: usize) -> (usize, u64) {
    let r = (v.len() * permille).div_ceil(1000).max(1);
    (r, v[r - 1])
}

/// Median and tail of `ns` (nanoseconds), the tail at the workload's
/// fixed percentile `tail_permille`/1000.
pub fn latency(ns: &mut [u64], tail_permille: usize) -> Latency {
    ns.sort_unstable();
    if ns.is_empty() {
        return Latency {
            samples: 0,
            p50_ms: 0.0,
            tail_ms: 0.0,
            tail_label: "none".to_owned(),
            tail_beyond: 0,
        };
    }
    let (_, p50) = rank(ns, 500);
    let (r, tail) = rank(ns, tail_permille);
    Latency {
        samples: ns.len(),
        p50_ms: p50 as f64 / 1e6,
        tail_ms: tail as f64 / 1e6,
        tail_label: format!("p{}", tail_permille as f64 / 10.0),
        tail_beyond: ns.len() - r,
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks beyond per-operation verdicts (ingest counts, trace
    /// coverage); any failure makes the run incorrect.
    pub checks_failed: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.checks_failed.push(what());
        }
    }

    /// The end-to-end metrics of a timed run.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        completed: usize,
        elapsed: Duration,
        latency: &Latency,
        peak_rss_mb: f64,
    ) {
        self.metric("setup_s", setup_s, "s");
        self.metric(
            "throughput_ops_s",
            completed as f64 / elapsed.as_secs_f64().max(1e-9),
            "1/s",
        );
        self.metric("p50_ms", latency.p50_ms, "ms");
        self.metric("tail_ms", latency.tail_ms, "ms");
        self.metric("peak_rss_mb", peak_rss_mb, "MB");
        self.notes.push(format!(
            "tail_ms is {} of {} samples ({} beyond it)",
            latency.tail_label, latency.samples, latency.tail_beyond
        ));
    }

    /// Prints the notes, then the result line last.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for check in &self.checks_failed {
            println!("# check failed: {check}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.checks_failed.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Every per-layer metric a traced run prints, with its unit. A layer that
/// does no work on a workload reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("service.unattributed_ms", "ms"),
    ("service.server_total_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.analysis_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("serde_json.request_decode_us", "us"),
    ("serde_json.manifest_decode_ms", "ms"),
    ("serde_json.decode_mb_s", "MB/s"),
    ("serde_json.report_encode_us", "us"),
    ("ingest.walk_ms", "ms"),
    ("scan.scan_ms", "ms"),
    ("scan.mb_s", "MB/s"),
    ("ingest.lower_ms", "ms"),
    ("ingest.lower_mb_s", "MB/s"),
    ("ingest.manifest_encode_ms", "ms"),
    ("ingest.fns_lowered", "count"),
    ("ingest.fns_skipped", "count"),
    ("scan.unsafe_usages", "count"),
    ("mir.parse_ms", "ms"),
    ("mir.validate_ms", "ms"),
    ("mir.parse_mb_s", "MB/s"),
    ("analysis.points_to_ms", "ms"),
    ("analysis.storage_dead_ms", "ms"),
    ("analysis.maybe_freed_ms", "ms"),
    ("analysis.maybe_invalid_ms", "ms"),
    ("analysis.held_guards_ms", "ms"),
    ("analysis.heap_state_ms", "ms"),
    ("analysis.call_graph_ms", "ms"),
    ("analysis.points-to.iterations", "count"),
    ("analysis.dataflow.block_visits", "count"),
    ("core.suite_ms", "ms"),
    ("core.detector.use-after-free_ms", "ms"),
    ("core.detector.double-free_ms", "ms"),
    ("core.detector.invalid-free_ms", "ms"),
    ("core.detector.uninit-read_ms", "ms"),
    ("core.detector.null-deref_ms", "ms"),
    ("core.detector.buffer-overflow_ms", "ms"),
    ("core.detector.double-lock_ms", "ms"),
    ("core.detector.lock-order_ms", "ms"),
    ("core.detector.blocking-misuse_ms", "ms"),
    ("core.detector.interior-mutability_ms", "ms"),
    ("core.detectors_only_ms", "ms"),
    ("core.suite_overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Adds every per-layer metric to `out`, taking values from `layers` and 0
/// for a layer that did no work. A value under a name outside the table is
/// a bug in this benchmark.
pub fn emit_layers(out: &mut Outcome, layers: &BTreeMap<String, f64>) {
    for name in layers.keys() {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "per-layer metric `{name}` is not in the table"
        );
    }
    for (name, unit) in LAYER_METRICS {
        out.metric(name, layers.get(*name).copied().unwrap_or(0.0), unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_on_the_raw_samples() {
        let mut v: Vec<u64> = (1..=5000).rev().collect();
        let l = latency(&mut v, 990);
        assert_eq!((l.tail_label.as_str(), l.tail_beyond), ("p99", 50));
        assert_eq!(l.tail_ms, 4950.0 / 1e6);
        assert_eq!(l.p50_ms, 2500.0 / 1e6);
        let mut v: Vec<u64> = (1..=999).collect();
        let l = latency(&mut v, 900);
        assert_eq!(
            (l.tail_label.as_str(), l.tail_beyond, l.tail_ms),
            ("p90", 99, 900.0 / 1e6)
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
