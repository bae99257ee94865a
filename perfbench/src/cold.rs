//! `cold_prepare`: the analyst's wait for a fully automatic fusion of two
//! heterogeneous ~10k-row sources, every iteration cold (no cache).
//!
//! Matching (DUMAS sniffing) and duplicate detection do nearly all the
//! work; `server`, `query` and `store` do none. Degree 1 keeps the figure
//! steady on a small host.

use crate::common::{
    ctx, ms_since, parse_sources, quality, report_quality, table_fingerprint, world_csv,
    BenchResult,
};
use crate::report::Report;
use crate::trace::{self_ms_by_name, PerId, Recorder};
use crate::{Outcome, Run};
use hummer_core::dupdetect::{
    annotate_object_ids, candidate_pairs, resolve_attributes, resolve_candidate_strategy,
    score_candidates, sort_pairs_canonical, CandidateSpec, DetectionResult, DetectionStats,
    TupleSimilarity,
};
use hummer_core::engine::Table;
use hummer_core::matching::{integrate_with_layout, match_star_par, sniff_duplicates_par};
use hummer_core::{
    fuse_prepared, fuse_prepared_par, prepare_tables, FunctionRegistry, HummerConfig,
    MatcherConfig, Parallelism, PipelineOutcome, PreparedSources, SniffConfig, StageTimings,
};
use hummer_datagen::scenarios::person_scale;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// `person_scale` entities: a ≈10k-row union of two sources.
pub const ENTITIES: usize = 7200;
/// Sorted-neighbourhood window on `Name`.
const WINDOW: usize = 15;

/// The pipeline configuration: exp7/exp13's sniffing and blocking, degree 1.
pub fn config() -> HummerConfig {
    let mut config = HummerConfig {
        matcher: MatcherConfig {
            sniff: SniffConfig {
                top_k: 10,
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        },
        parallelism: Parallelism::sequential(),
        ..Default::default()
    };
    config.detector.candidates = CandidateSpec::SortedNeighborhood {
        key: vec!["Name".into()],
        window: WINDOW,
    };
    config
}

/// Generated inputs of one seed, as the program sees them: parsed CSV.
pub struct Inputs {
    /// Sources A and B, parsed from CSV.
    pub tables: Vec<Table>,
    /// CSV parse time, ms.
    pub csv_ms: f64,
}

/// Generate and parse the inputs of `seed` at `entities`.
pub fn inputs(seed: u64, entities: usize) -> BenchResult<Inputs> {
    let world = person_scale(entities, seed);
    let (tables, csv_ms) = parse_sources(&world_csv(&world, ""))?;
    Ok(Inputs { tables, csv_ms })
}

/// `prepare_tables` + `fuse_prepared`: the measured operation.
pub fn prepare_and_fuse(
    tables: &[&Table],
    config: &HummerConfig,
    registry: &FunctionRegistry,
) -> BenchResult<(PreparedSources, PipelineOutcome)> {
    let prepared = ctx(prepare_tables(tables, config), "prepare")?;
    let outcome = ctx(fuse_prepared(&prepared, &[], registry), "fuse")?;
    Ok((prepared, outcome))
}

/// Everything of a prepare + fuse except wall-clock timings, for
/// byte-identity comparisons.
pub fn fingerprint(prepared: &PreparedSources, outcome: &PipelineOutcome) -> String {
    format!(
        "{:?}\n{}\n{:?}\n{}\n{}\n{:?}\n{:?}\n{:?}\n{}",
        prepared.match_results,
        table_fingerprint(&prepared.integrated),
        prepared.detection,
        table_fingerprint(&prepared.annotated),
        table_fingerprint(&outcome.result),
        outcome.lineage,
        outcome.sample_conflicts,
        outcome.detection,
        outcome.conflict_count,
    )
}

/// Counters of one layer-by-layer iteration.
pub struct Counts {
    candidates: usize,
    compared: usize,
    filtered_out: usize,
    accepted: usize,
    conflicts: usize,
}

/// The same program as [`prepare_and_fuse`], composed from each crate's
/// public functions with a span around every call. The sniff is also
/// timed as its own call on the same inputs (a probe), since
/// `match_star_par` runs it internally.
pub fn layered(
    tables: &[&Table],
    config: &HummerConfig,
    registry: &FunctionRegistry,
    id: u64,
    tree: &mut Recorder,
    probes: &mut Recorder,
) -> BenchResult<(PreparedSources, PipelineOutcome, Counts)> {
    let par = config.parallelism;
    for other in &tables[1..] {
        probes.time("matching.sniff", id, None, || {
            black_box(sniff_duplicates_par(
                tables[0],
                other,
                &config.matcher.sniff,
                par,
            ))
        });
    }
    let root = tree.start("core.cold_fuse", id, None);
    let match_results = tree.time("matching.match_star", id, Some(root), || {
        match_star_par(tables, &config.matcher, par)
    });
    let integrated = ctx(
        tree.time("matching.transform", id, Some(root), || {
            integrate_with_layout(tables, &match_results, "Integrated", config.layout)
        }),
        "transform",
    )?;

    let dcfg = config.detector_config();
    let detect = tree.start("dupdetect.detect", id, Some(root));
    let attrs = ctx(
        tree.time("dupdetect.attrs", id, Some(detect), || {
            resolve_attributes(&integrated, &dcfg)
        }),
        "attributes",
    )?;
    let attributes_used: Vec<String> = attrs
        .iter()
        .map(|&i| integrated.schema().column(i).name.clone())
        .collect();
    let strategy = ctx(
        resolve_candidate_strategy(&integrated, &dcfg.candidates),
        "strategy",
    )?;
    let measure = tree.time("dupdetect.measure", id, Some(detect), || {
        TupleSimilarity::new(&integrated, attrs)
    });
    let candidates = tree.time("dupdetect.blocking", id, Some(detect), || {
        candidate_pairs(&integrated, &strategy)
    });
    let scored = tree.time("dupdetect.score", id, Some(detect), || {
        score_candidates(&integrated, &measure, &dcfg, &candidates, par)
    });
    let counts_scored = (scored.compared, scored.filtered_out);
    let accepted = scored.pairs.len() + scored.unsure.len();
    let detection = tree.time("dupdetect.closure", id, Some(detect), || {
        let mut pairs = scored.pairs;
        let mut unsure = scored.unsure;
        sort_pairs_canonical(&mut pairs);
        sort_pairs_canonical(&mut unsure);
        let mut result = DetectionResult {
            pairs,
            unsure,
            cluster_ids: vec![0; integrated.len()],
            clusters: Vec::new(),
            stats: DetectionStats {
                candidates: candidates.len(),
                filtered_out: scored.filtered_out,
                compared: scored.compared,
                memo_hits: scored.memo_hits,
            },
            attributes_used,
        };
        result.recluster();
        result
    });
    tree.end(detect);
    let annotated = ctx(
        tree.time("dupdetect.annotate", id, Some(root), || {
            annotate_object_ids(&integrated, &detection)
        }),
        "annotate",
    )?;
    let prepared = PreparedSources {
        match_results,
        integrated,
        detection,
        annotated,
        timings: StageTimings::default(),
    };
    let outcome = ctx(
        tree.time("fusion.fuse", id, Some(root), || {
            fuse_prepared_par(&prepared, &[], registry, par)
        }),
        "fuse",
    )?;
    tree.end(root);
    let counts = Counts {
        candidates: candidates.len(),
        compared: counts_scored.0,
        filtered_out: counts_scored.1,
        accepted,
        conflicts: outcome.conflict_count,
    };
    Ok((prepared, outcome, counts))
}

/// Set the full-detection `dupdetect.*` metrics and `fusion.fuse_ms` from
/// the spans of [`layered`] iterations and the counters of the last one.
pub fn report_detection(
    report: &mut Report,
    by_tree: &BTreeMap<&'static str, PerId>,
    counts: Option<&Counts>,
) {
    report.set_spans(
        by_tree,
        &[
            ("dupdetect.attrs_ms", "dupdetect.attrs", 1.0),
            ("dupdetect.measure_ms", "dupdetect.measure", 1.0),
            ("dupdetect.blocking_ms", "dupdetect.blocking", 1.0),
            ("dupdetect.score_ms", "dupdetect.score", 1.0),
            ("dupdetect.closure_ms", "dupdetect.closure", 1.0),
            ("fusion.fuse_ms", "fusion.fuse", 1.0),
        ],
    );
    if let Some(c) = counts {
        report.set("dupdetect.candidates", c.candidates as f64, 1);
        report.set("dupdetect.compared", c.compared as f64, 1);
        report.set("dupdetect.filtered_out", c.filtered_out as f64, 1);
        report.set(
            "dupdetect.accept_ratio",
            c.accepted as f64 / c.compared.max(1) as f64,
            1,
        );
    }
}

/// Run the workload.
pub fn run(run: &Run) -> BenchResult<Outcome> {
    let mut out = Outcome::new(run);
    let config = config();
    let registry = FunctionRegistry::standard();

    // Set-up: generate, parse, and the first cold prepare + fuse (which
    // doubles as the reference answer). The generated world is dropped
    // inside it, so `heap_mb` counts the parsed sources and the prepare.
    let (tables, csv_ms, (ref_prepared, ref_outcome)) = run.set_up(
        &mut out.report,
        |_| {
            let Inputs { tables, csv_ms } = inputs(run.seed, ENTITIES)?;
            let refs: Vec<&Table> = tables.iter().collect();
            let reference = prepare_and_fuse(&refs, &config, &registry)?;
            Ok((tables, csv_ms, reference))
        },
        |_| Ok(()),
    )?;
    out.report.set("engine.csv_parse_ms", csv_ms, 1);
    let world = person_scale(ENTITIES, run.seed);
    report_quality(&mut out.report, &[quality(&world, &ref_prepared)]);
    let reference = fingerprint(&ref_prepared, &ref_outcome);
    let refs: Vec<&Table> = tables.iter().collect();

    // Untraced window (all of it, or the first half of a traced run).
    let window = run.window();
    let mut latencies = Vec::new();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let result = prepare_and_fuse(black_box(&refs), &config, &registry);
        let ms = ms_since(t0);
        out.report.attempted += 1;
        match result {
            Ok((p, o))
                if o.result == ref_outcome.result
                    && p.detection.cluster_ids == ref_prepared.detection.cluster_ids =>
            {
                latencies.push(ms)
            }
            _ => out.report.failed += 1,
        }
    }
    out.report.set_median("latency_ms_p50", &latencies);
    out.report
        .note("latency_ms.samples", latencies.len().into());
    out.report.note(
        "latency_ms.all",
        hummer_server::Json::Arr(
            latencies
                .iter()
                .map(|&v| hummer_server::Json::Float(v))
                .collect(),
        ),
    );

    // Layer-by-layer iterations: the traced window, or one iteration after
    // an untraced run so its composition is always checked.
    let mut traced_ms = Vec::new();
    let mut identical = 0usize;
    let mut last_counts;
    let deadline = Instant::now() + window;
    let mut id = 0u64;
    loop {
        id += 1;
        let (prepared, outcome, counts) = layered(
            &refs,
            &config,
            &registry,
            id,
            &mut out.tree,
            &mut out.probes,
        )?;
        let root = out
            .tree
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == "core.cold_fuse");
        traced_ms.push(root.map_or(0.0, |s| s.duration() as f64 / 1e6));
        if fingerprint(&prepared, &outcome) == reference {
            identical += 1;
        }
        last_counts = Some(counts);
        if run.traced {
            out.report.attempted += 1;
        }
        if !run.traced || Instant::now() >= deadline {
            break;
        }
    }
    let iterations = id as usize;
    if run.traced {
        out.report.failed += (iterations - identical) as u64;
    }
    out.report.check(
        "layered composition is byte-identical to prepare_tables + fuse_prepared",
        identical == iterations,
        format!("{identical} of {iterations} iterations identical"),
    );

    if run.traced {
        let by_tree = self_ms_by_name(out.tree.spans());
        out.report
            .set_matching(&by_tree, &self_ms_by_name(out.probes.spans()));
        report_detection(&mut out.report, &by_tree, last_counts.as_ref());
        out.report.set_spans(
            &by_tree,
            &[
                ("dupdetect.annotate_ms", "dupdetect.annotate", 1.0),
                ("trace.residual_ms", "core.cold_fuse", 1.0),
            ],
        );
        if let Some(c) = &last_counts {
            out.report.set("fusion.conflicts", c.conflicts as f64, 1);
        }
        if let (Some(t), Some(u)) = (
            crate::stats::median(&traced_ms),
            crate::stats::median(&latencies),
        ) {
            out.report.set("trace.overhead_ms", t - u, traced_ms.len());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed seed reproduces identical inputs and identical quality.
    #[test]
    fn fixed_seed_reproduces_inputs_and_quality() {
        let config = config();
        let score = |seed| {
            let inputs = inputs(seed, 150).unwrap();
            let refs: Vec<&Table> = inputs.tables.iter().collect();
            let prepared = prepare_tables(&refs, &config).unwrap();
            (inputs.tables, quality(&person_scale(150, seed), &prepared))
        };
        let (tables_a, q_a) = score(11);
        let (tables_b, q_b) = score(11);
        assert_eq!(tables_a, tables_b);
        assert_eq!(q_a, q_b);
        let (tables_c, _) = score(12);
        assert_ne!(tables_a, tables_c);
    }

    /// The layer-by-layer composition equals the public entry points.
    #[test]
    fn layered_matches_prepare_and_fuse() {
        let config = config();
        let registry = FunctionRegistry::standard();
        let inputs = inputs(5, 120).unwrap();
        let refs: Vec<&Table> = inputs.tables.iter().collect();
        let (p, o) = prepare_and_fuse(&refs, &config, &registry).unwrap();
        let origin = Instant::now();
        let (mut tree, mut probes) = (Recorder::new(origin), Recorder::new(origin));
        let (lp, lo, _) = layered(&refs, &config, &registry, 1, &mut tree, &mut probes).unwrap();
        assert_eq!(fingerprint(&p, &o), fingerprint(&lp, &lo));
        assert_eq!(probes.spans().len(), 1);
        assert!(tree.spans().iter().any(|s| s.name == "dupdetect.score"));
    }
}
