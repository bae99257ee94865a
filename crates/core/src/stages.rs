//! The pipeline's stages, one implementation each: prepare, the delta
//! refresh, fusion, the [`crate::Wizard`] and the shard coordinator all run
//! them. Each stage records its span under `parent` and returns the
//! span's duration ([`Span::finish`]); [`crate::StageTimings`] is built
//! from those, so it, `hummer_stage_seconds` and `GET /trace/{id}` read
//! one clock (`detection` = the `detect` plus the `cluster` span).

use crate::error::Result;
use crate::pipeline::HummerConfig;
use hummer_dupdetect::{annotate_object_ids, detect_duplicates_par, DetectionResult, PAIR_BLOCK};
use hummer_engine::{ExecutionLayout, Table};
use hummer_fusion::{FunctionRegistry, FusedTable, FusionSpec, Parallelism, ResolutionSpec};
use hummer_matching::{integrate_with_layout, match_star_par, MatchResult};
use hummer_obs::Span;
use std::time::Duration;

/// Span `match`: the preferred (first) table against each other table.
pub fn match_sources(
    tables: &[&Table],
    config: &HummerConfig,
    parent: &Span,
) -> (Vec<MatchResult>, Duration) {
    let mut span = parent.child("match");
    let match_results = match_star_par(tables, &config.matcher, config.parallelism);
    let correspondences = match_results.iter().map(|m| m.correspondence_count());
    span.count("tables", tables.len() as u64);
    span.count("correspondences", correspondences.sum::<usize>() as u64);
    span.count("degree", config.parallelism.get() as u64);
    (match_results, span.finish())
}

/// Span `transform`: rename, tag `sourceID`, full outer union.
pub fn transform(
    tables: &[&Table],
    match_results: &[MatchResult],
    config: &HummerConfig,
    parent: &Span,
) -> Result<(Table, Duration)> {
    let mut span = parent.child("transform");
    let integrated = integrate_with_layout(tables, match_results, "Integrated", config.layout)?;
    span.count("union_rows", integrated.len() as u64);
    span.count("union_cols", integrated.schema().len() as u64);
    Ok((integrated, span.finish()))
}

/// Span `detect`: duplicate detection under
/// [`HummerConfig::detector_config`].
pub fn detect(
    integrated: &Table,
    config: &HummerConfig,
    parent: &Span,
) -> Result<(DetectionResult, Duration)> {
    let mut span = parent.child("detect");
    let detection =
        detect_duplicates_par(integrated, &config.detector_config(), config.parallelism)?;
    let stats = &detection.stats;
    span.count("candidates", stats.candidates as u64);
    span.count("filtered_out", stats.filtered_out as u64);
    span.count("compared", stats.compared as u64);
    span.count("memo_hits", stats.memo_hits as u64);
    if config.layout == ExecutionLayout::Columnar {
        let blocks = stats.compared.div_ceil(PAIR_BLOCK);
        span.count("columnar_blocks", blocks as u64);
    }
    Ok((detection, span.finish()))
}

/// Span `cluster`: append each row's `objectID`.
pub fn cluster(
    integrated: &Table,
    detection: &DetectionResult,
    parent: &Span,
) -> Result<(Table, Duration)> {
    let mut span = parent.child("cluster");
    let annotated = annotate_object_ids(integrated, detection)?;
    span.count("clusters", detection.object_count() as u64);
    span.count("duplicate_pairs", detection.pairs.len() as u64);
    Ok((annotated, span.finish()))
}

/// Span `fuse`: fusion by [`FusionSpec::by_object_id`].
pub fn fuse(
    annotated: &Table,
    resolutions: &[(String, ResolutionSpec)],
    registry: &FunctionRegistry,
    par: Parallelism,
    parent: &Span,
) -> Result<(FusedTable, Duration)> {
    let mut span = parent.child("fuse");
    let spec = FusionSpec::by_object_id(resolutions, par);
    let fused = hummer_fusion::fuse(annotated, &spec, registry)?;
    span.count("fused_rows", fused.table.len() as u64);
    span.count("merged_clusters", fused.merged_clusters as u64);
    span.count("conflicts", fused.conflict_count as u64);
    span.count("degree", par.get() as u64);
    Ok((fused, span.finish()))
}
