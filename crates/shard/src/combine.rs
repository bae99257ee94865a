//! The combiner: deterministic merge of per-shard partials into the exact
//! output of the single-shard pipeline.
//!
//! ## The merge contract
//!
//! Partials may arrive in any order. The combiner
//!
//! 1. concatenates and canonically re-sorts the accepted/unsure pair lists
//!    (similarity descending, then `(left, right)` — a total order, so the
//!    merged lists equal the global detector's);
//! 2. re-runs the transitive closure over the merged accepted pairs on the
//!    full row space (pairs never cross shards, so this reproduces each
//!    shard's clusters, globally renumbered in smallest-member order — the
//!    same dense `objectID` numbering the single-shard detector emits);
//! 3. orders fused cluster rows by their global smallest member. Global
//!    fusion emits clusters in `objectID` first-appearance order, which *is*
//!    smallest-member order, so concatenating shard partials and sorting by
//!    the `min_member` tag reproduces the global row order byte for byte;
//! 4. re-caps conflict samples at [`MAX_SAMPLE_CONFLICTS`] while walking
//!    clusters in global order. Shard-side truncation is lossless: a
//!    shard's predecessors of cluster C are a subset of C's global
//!    predecessors, so the shard always ships at least as many samples for
//!    C as the global cap admits.

use crate::error::{Result, ShardError};
use crate::exec::ShardPartial;
use hummer_dupdetect::{
    annotate_object_ids, sort_pairs_canonical, DetectionResult, DetectionStats, UnionFind,
};
use hummer_engine::{Row, Table, OBJECT_ID_COLUMN, SOURCE_ID_COLUMN};
use hummer_fusion::{Lineage, SampleConflict, MAX_SAMPLE_CONFLICTS};

/// The combiner's output: the merged detection artifacts plus the fused
/// table — field for field what `prepare_tables` + `fuse_prepared` yield.
#[derive(Debug, Clone)]
pub struct Combined {
    /// Merged detection (pairs, clusters, summed work counters).
    pub detection: DetectionResult,
    /// `integrated` with the globally renumbered `objectID` column.
    pub annotated: Table,
    /// The fused result table.
    pub table: Table,
    /// Per-cell lineage of `table` (global row indices).
    pub lineage: Lineage,
    /// Conflict samples, re-capped in global cluster order.
    pub sample_conflicts: Vec<SampleConflict>,
    /// Total resolved conflicts.
    pub conflict_count: usize,
}

/// Merge shard partials over the integrated table they were computed from.
/// `attributes_used` are the comparison column names (the coordinator
/// resolved them once; they land in the merged [`DetectionResult`]).
pub fn combine_partials(
    integrated: &Table,
    attributes_used: Vec<String>,
    partials: Vec<ShardPartial>,
) -> Result<Combined> {
    // 1. Merge detection: summed counters, canonically re-sorted pairs.
    let mut stats = DetectionStats::default();
    let mut pairs = Vec::new();
    let mut unsure = Vec::new();
    let mut conflict_count = 0usize;
    let mut flat = Vec::new();
    for partial in partials {
        stats.candidates += partial.candidates;
        stats.filtered_out += partial.filtered_out;
        stats.compared += partial.compared;
        stats.memo_hits += partial.memo_hits;
        conflict_count += partial.conflict_count;
        pairs.extend(partial.pairs);
        unsure.extend(partial.unsure);
        flat.extend(partial.clusters);
    }
    sort_pairs_canonical(&mut pairs);
    sort_pairs_canonical(&mut unsure);

    // 2. Global transitive closure → dense objectIDs in smallest-member
    // order, exactly as the single-shard detector numbers them.
    let mut uf = UnionFind::new(integrated.len());
    for p in &pairs {
        if p.left >= integrated.len() || p.right >= integrated.len() {
            return Err(ShardError::Wire(format!(
                "merged pair ({}, {}) outside the row space",
                p.left, p.right
            )));
        }
        uf.union(p.left, p.right);
    }
    let detection = DetectionResult {
        pairs,
        unsure,
        cluster_ids: uf.cluster_ids(),
        clusters: uf.clusters(),
        stats,
        attributes_used,
    };
    let annotated = annotate_object_ids(integrated, &detection)?;

    // 3. Assemble the fused table in global cluster order.
    flat.sort_by_key(|c| c.min_member);
    if flat.len() != detection.clusters.len() {
        return Err(ShardError::Wire(format!(
            "partials carry {} fused clusters but the merged closure has {}",
            flat.len(),
            detection.clusters.len()
        )));
    }
    for (cluster, partial) in detection.clusters.iter().zip(&flat) {
        if cluster[0] != partial.min_member {
            return Err(ShardError::Wire(format!(
                "cluster anchored at row {} has no matching partial (got {})",
                cluster[0], partial.min_member
            )));
        }
    }

    let oid = annotated.resolve(OBJECT_ID_COLUMN)?;
    let sid = annotated.resolve(SOURCE_ID_COLUMN)?;
    let out_cols: Vec<usize> = (0..annotated.schema().len())
        .filter(|&i| i != oid && i != sid)
        .collect();
    let out_schema = annotated.schema().project(&out_cols)?;
    let out_names: Vec<String> = out_schema.names().iter().map(|s| s.to_string()).collect();
    let mut table = Table::empty(annotated.name(), out_schema);
    let mut lineage = Lineage::new(out_names);
    let mut samples: Vec<SampleConflict> = Vec::new();
    for (global_idx, partial) in flat.into_iter().enumerate() {
        if partial.values.len() != out_cols.len() || partial.cells.len() != out_cols.len() {
            return Err(ShardError::Wire(format!(
                "partial cluster {global_idx} arity {} != output arity {}",
                partial.values.len(),
                out_cols.len()
            )));
        }
        // 4. Re-cap samples in global order (see module docs for why the
        // shard-side cap never starves this loop).
        for mut sample in partial.samples {
            if samples.len() >= MAX_SAMPLE_CONFLICTS {
                break;
            }
            sample.cluster = global_idx;
            samples.push(sample);
        }
        table.push(Row::from_values(partial.values))?;
        lineage.push_row(partial.cells);
    }

    Ok(Combined {
        detection,
        annotated,
        table,
        lineage,
        sample_conflicts: samples,
        conflict_count,
    })
}
