//! The metric catalogue and the per-run report.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! runner refuses a report whose names differ from it. Every run reports
//! every metric of its mode, so a layer a workload does not exercise reads
//! 0 with 0 samples.

use crate::stats;
use crate::trace::{minus, per_id, PerId};
use hummer_server::Json;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("heap_mb", "MB"),
    ("cluster_f1", "ratio"),
    ("pair_precision", "ratio"),
    ("pair_recall", "ratio"),
    ("correspondence_accuracy", "ratio"),
];

/// Per-layer metrics (`--trace 1`), timed from the benchmark's side of
/// each crate's public functions.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("matching.sniff_ms", "ms"),
    ("matching.correspondence_ms", "ms"),
    ("matching.transform_ms", "ms"),
    ("dupdetect.attrs_ms", "ms"),
    ("dupdetect.measure_ms", "ms"),
    ("dupdetect.blocking_ms", "ms"),
    ("dupdetect.candidates", "count"),
    ("dupdetect.score_ms", "ms"),
    ("dupdetect.compared", "count"),
    ("dupdetect.filtered_out", "count"),
    ("dupdetect.accept_ratio", "ratio"),
    ("dupdetect.closure_ms", "ms"),
    ("dupdetect.annotate_ms", "ms"),
    ("dupdetect.delta_detect_ms", "ms"),
    ("dupdetect.dirty_row_ratio", "ratio"),
    ("dupdetect.full_rescore_ratio", "ratio"),
    ("fusion.fuse_ms", "ms"),
    ("fusion.conflicts", "count"),
    ("query.parse_us", "us"),
    ("query.exec_ms", "ms"),
    ("server.service_query_ms", "ms"),
    ("server.serialize_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("server.service_delta_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_upgrades_per_delta", "ratio"),
    ("server.query_ms_tail", "ms"),
    ("server.delta_request_ms_p50", "ms"),
    ("server.delta_request_ms_tail", "ms"),
    ("delta.apply_us", "us"),
    ("store.fsyncs_per_delta", "ratio"),
    ("store.group_commit_batch_mean", "count"),
    ("store.wal_bytes_per_user_byte", "ratio"),
    ("engine.csv_parse_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// One metric value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The reported number.
    pub value: f64,
    /// Samples it summarizes (1 for a single count or ratio).
    pub samples: usize,
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Report {
    catalogue: &'static [(&'static str, &'static str)],
    metrics: BTreeMap<&'static str, Value>,
    /// Operations attempted inside the measured windows.
    pub attempted: u64,
    /// Of those, failed, refused or wrong.
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
    notes: Vec<(String, Json)>,
}

impl Report {
    /// An empty report for `--trace 0` (`traced == false`) or `--trace 1`.
    pub fn new(traced: bool) -> Report {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        Report {
            catalogue,
            metrics: catalogue
                .iter()
                .map(|&(name, _)| {
                    (
                        name,
                        Value {
                            value: 0.0,
                            samples: 0,
                        },
                    )
                })
                .collect(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Set a metric of this report's mode; names of the other mode are
    /// ignored, so a workload can fill both kinds unconditionally.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        if let Some(slot) = self.metrics.get_mut(name) {
            *slot = Value { value, samples };
        } else {
            let known = END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name);
            assert!(known, "metric `{name}` is in neither catalogue");
        }
    }

    /// Set a metric to the median of `samples` (left at 0 when empty).
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(m) = stats::median(samples) {
            self.set(name, m, samples.len());
        }
    }

    /// Set a metric to the tail percentile `samples` can support, noting
    /// which percentile that was.
    pub fn set_tail(&mut self, name: &'static str, samples: &[f64]) {
        if let Some((p, v)) = stats::tail(samples) {
            self.set(name, v, samples.len());
            self.note(format!("{name}.percentile"), Json::Float(p));
        }
    }

    /// Set each `(metric, span, scale)` to the median over ids of the
    /// span's self time in ms, times `scale` (1e3 for a metric in µs).
    pub fn set_spans(
        &mut self,
        by_name: &BTreeMap<&'static str, PerId>,
        metrics: &[(&'static str, &str, f64)],
    ) {
        for &(metric, span, scale) in metrics {
            let v: Vec<f64> = per_id(by_name, span)
                .into_values()
                .map(|ms| ms * scale)
                .collect();
            self.set_median(metric, &v);
        }
    }

    /// Set the `matching.*` metrics: the sniff from its probe, the
    /// correspondence step as `match_star_par` minus that sniff, and the
    /// transform.
    pub fn set_matching(
        &mut self,
        by_tree: &BTreeMap<&'static str, PerId>,
        by_probe: &BTreeMap<&'static str, PerId>,
    ) {
        let sniff = per_id(by_probe, "matching.sniff");
        let star = per_id(by_tree, "matching.match_star");
        self.set_median("matching.correspondence_ms", &minus(&star, &sniff));
        self.set_spans(by_probe, &[("matching.sniff_ms", "matching.sniff", 1.0)]);
        self.set_spans(
            by_tree,
            &[("matching.transform_ms", "matching.transform", 1.0)],
        );
    }

    /// Record a correctness check; a failed check makes the run incorrect.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    /// Attach a free-form note to the report file.
    pub fn note(&mut self, key: impl Into<String>, value: Json) {
        self.notes.push((key.into(), value));
    }

    /// All checks passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The report document.
    pub fn to_json(&self) -> Json {
        let metrics: Vec<Json> = self
            .catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics[name];
                Json::object()
                    .with("name", name)
                    .with("value", Json::Float(v.value))
                    .with("unit", unit)
                    .with("samples", v.samples)
            })
            .collect();
        let checks: Vec<Json> = self
            .checks
            .iter()
            .map(|(name, ok, detail)| {
                Json::object()
                    .with("name", name.clone())
                    .with("ok", *ok)
                    .with("detail", detail.clone())
            })
            .collect();
        let mut notes = Json::object();
        for (k, v) in &self.notes {
            notes.push(k.clone(), v.clone());
        }
        Json::object()
            .with("correct", self.correct())
            .with("attempted", self.attempted as i64)
            .with("failed", self.failed as i64)
            .with("metrics", Json::Arr(metrics))
            .with("checks", Json::Arr(checks))
            .with("notes", notes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }

    #[test]
    fn every_metric_is_reported_and_other_mode_is_ignored() {
        let mut r = Report::new(false);
        r.set("matching.sniff_ms", 5.0, 1);
        r.set_median("latency_ms_p50", &[3.0, 1.0, 2.0]);
        let doc = r.to_json();
        let metrics = doc.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let p50 = metrics
            .iter()
            .find(|m| m.get("name").unwrap().as_str() == Some("latency_ms_p50"))
            .unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(2.0));
        assert!(r.correct());
        r.check("x", false, "mismatch");
        assert!(!r.correct());
    }
}
