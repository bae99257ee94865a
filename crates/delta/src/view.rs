//! An incrementally maintained fused view.
//!
//! [`FusedView`] pins a fusion query (resolution functions over the
//! `objectID`-annotated union) and keeps its result current across deltas
//! by re-resolving **only dirty clusters** — clusters that gained, lost, or
//! changed a member — while clean clusters are served from the fusion memo
//! with their lineage remapped. The maintained table is byte-identical to
//! fusing the updated annotated input from scratch.
//!
//! Dirtiness is decided here, conservatively and self-containedly: the view
//! snapshots the annotated input it reflects, so a cluster is reused only
//! when its (remapped) membership matches an old cluster exactly *and*
//! every member row's contents — all columns except the `objectID` label,
//! which legitimately renumbers — are equal to the snapshot. No trust in
//! the caller's bookkeeping is required for correctness.

use hummer_dupdetect::{DetectionResult, RowMapping};
use hummer_engine::{Table, OBJECT_ID_COLUMN};
use hummer_fusion::{
    fuse_incremental, fuse_memo, ClusterPlan, FunctionRegistry, FusedTable, FusionError,
    FusionMemo, FusionSpec, IncrementalFusionStats, Parallelism, ResolutionSpec,
};

/// Work counters of one [`FusedView::apply_delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedViewStats {
    /// Per-cluster reuse/recompute counts.
    pub fusion: IncrementalFusionStats,
    /// True when nothing could be reused (e.g. the union schema changed).
    pub full_refresh: bool,
}

/// A fused result kept current under deltas by dirty-cluster re-resolution.
#[derive(Debug, Clone)]
pub struct FusedView {
    resolutions: Vec<(String, ResolutionSpec)>,
    par: Parallelism,
    /// Snapshot of the annotated input the current result reflects.
    annotated: Table,
    /// Snapshot of the duplicate clusters over that input.
    clusters: Vec<Vec<usize>>,
    cluster_ids: Vec<usize>,
    memo: FusionMemo,
    fused: FusedTable,
}

impl FusedView {
    /// Build the view: fuse `annotated` by `objectID` (bookkeeping columns
    /// dropped, as the automatic pipeline does) with the given per-column
    /// resolutions, memoizing every cluster.
    pub fn new(
        annotated: &Table,
        detection: &DetectionResult,
        resolutions: &[(String, ResolutionSpec)],
        registry: &FunctionRegistry,
        par: Parallelism,
    ) -> Result<FusedView, FusionError> {
        let spec = FusionSpec::by_object_id(resolutions, par);
        let (fused, memo) = fuse_memo(annotated, &spec, registry)?;
        Ok(FusedView {
            resolutions: resolutions.to_vec(),
            par,
            annotated: annotated.clone(),
            clusters: detection.clusters.clone(),
            cluster_ids: detection.cluster_ids.clone(),
            memo,
            fused,
        })
    }

    /// The maintained fused result.
    pub fn fused(&self) -> &FusedTable {
        &self.fused
    }

    /// The maintained fused table (shorthand for `fused().table`).
    pub fn table(&self) -> &Table {
        &self.fused.table
    }

    /// The resolutions the view was built with.
    pub fn resolutions(&self) -> &[(String, ResolutionSpec)] {
        &self.resolutions
    }

    /// Bring the view up to date with the post-delta `annotated` input and
    /// its `detection`, where `mapping` relates old and new rows. Only
    /// dirty clusters re-run their resolution functions; the result is
    /// byte-identical to fusing `annotated` from scratch.
    pub fn apply_delta(
        &mut self,
        annotated: &Table,
        detection: &DetectionResult,
        mapping: &RowMapping,
        registry: &FunctionRegistry,
    ) -> Result<FusedViewStats, FusionError> {
        if mapping.old_len() != self.annotated.len() || mapping.new_len() != annotated.len() {
            return Err(FusionError::BadArgument(format!(
                "row mapping shape ({} -> {}) does not match the view ({} -> {})",
                mapping.old_len(),
                mapping.new_len(),
                self.annotated.len(),
                annotated.len()
            )));
        }
        let spec = FusionSpec::by_object_id(&self.resolutions, self.par);

        // The union schema can change when matching decisions change; then
        // old fused rows describe different columns and nothing is safe to
        // reuse.
        let same_schema = annotated.schema().names() == self.annotated.schema().names();
        let object_col = annotated.resolve(OBJECT_ID_COLUMN)?;

        let plans: Vec<ClusterPlan> = detection
            .clusters
            .iter()
            .map(|members| {
                if !same_schema {
                    return ClusterPlan::Recompute;
                }
                self.reusable_cluster(annotated, mapping, members, object_col)
                    .map_or(ClusterPlan::Recompute, |old| ClusterPlan::Reuse { old })
            })
            .collect();

        let (fused, memo, fusion_stats) = fuse_incremental(
            annotated,
            &spec,
            registry,
            &plans,
            &self.memo,
            &mapping.old_to_new,
        )?;

        self.annotated = annotated.clone();
        self.clusters = detection.clusters.clone();
        self.cluster_ids = detection.cluster_ids.clone();
        self.memo = memo;
        self.fused = fused;
        Ok(FusedViewStats {
            fusion: fusion_stats,
            full_refresh: !same_schema,
        })
    }

    /// The old cluster index this new cluster can reuse, if any: identical
    /// (remapped) membership and bit-for-bit member contents outside the
    /// `objectID` label.
    fn reusable_cluster(
        &self,
        annotated: &Table,
        mapping: &RowMapping,
        members: &[usize],
        object_col: usize,
    ) -> Option<usize> {
        let old_members: Vec<usize> = members
            .iter()
            .map(|&m| mapping.new_to_old[m])
            .collect::<Option<_>>()?;
        let old_cid = self.cluster_ids[old_members[0]];
        if self.clusters[old_cid] != old_members {
            return None;
        }
        let width = annotated.schema().len();
        if width != self.annotated.schema().len() {
            return None;
        }
        for (&new_m, &old_m) in members.iter().zip(&old_members) {
            let new_row = &annotated.rows()[new_m];
            let old_row = &self.annotated.rows()[old_m];
            for col in 0..width {
                if col == object_col {
                    continue; // cluster labels legitimately renumber
                }
                if new_row[col] != old_row[col] {
                    return None;
                }
            }
        }
        Some(old_cid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableDelta;
    use hummer_dupdetect::{annotate_object_ids, detect_delta, detect_duplicates, DetectorConfig};
    use hummer_engine::{table, Value};
    use hummer_fusion::fuse;

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            threshold: 0.7,
            unsure_threshold: 0.55,
            ..Default::default()
        }
    }

    fn annotated_for(t: &Table) -> (Table, DetectionResult) {
        let d = detect_duplicates(t, &cfg()).unwrap();
        (annotate_object_ids(t, &d).unwrap(), d)
    }

    fn source() -> Table {
        table! {
            "People" => ["Name", "City", "Age", "sourceID"];
            ["John Smith", "Berlin", 34, "A"],
            ["Jon Smith", "Berlin", 34, "B"],
            ["Mary Jones", "Hamburg", 28, "A"],
            ["Peter Miller", "Munich", 45, "B"],
        }
    }

    fn assert_fused_eq(a: &FusedTable, b: &FusedTable) {
        assert_eq!(a.table.rows(), b.table.rows());
        assert_eq!(a.table.schema().names(), b.table.schema().names());
        assert_eq!(a.conflict_count, b.conflict_count);
        assert_eq!(a.sample_conflicts, b.sample_conflicts);
        for row in 0..a.table.len() {
            for col in 0..a.table.schema().len() {
                assert_eq!(a.lineage.cell(row, col), b.lineage.cell(row, col));
            }
        }
    }

    #[test]
    fn view_tracks_deltas_and_matches_scratch() {
        let registry = FunctionRegistry::standard();
        let t0 = source();
        let (a0, d0) = annotated_for(&t0);
        let resolutions = vec![("Age".to_string(), ResolutionSpec::named("max"))];
        let mut view =
            FusedView::new(&a0, &d0, &resolutions, &registry, Parallelism::sequential()).unwrap();
        assert_eq!(view.resolutions().len(), 1);
        assert_eq!(view.table().len(), 3); // Smiths fuse

        // Update Peter's age, everything else untouched.
        let delta = TableDelta::new("People").update(
            3,
            vec![
                Value::text("Peter Miller"),
                Value::text("Munich"),
                Value::Int(46),
                Value::text("B"),
            ],
        );
        let (t1, mapping) = delta.apply(&t0).unwrap();
        let (d1, _) =
            detect_delta(&t0, &d0, &t1, &mapping, &cfg(), Parallelism::sequential()).unwrap();
        let a1 = annotate_object_ids(&t1, &d1).unwrap();
        let stats = view.apply_delta(&a1, &d1, &mapping, &registry).unwrap();
        assert!(!stats.full_refresh);
        assert!(stats.fusion.reused >= 1, "{stats:?}");
        assert!(stats.fusion.recomputed >= 1);

        let spec_check = fuse(
            &a1,
            &FusionSpec::by_object_id(&resolutions, Parallelism::sequential()),
            &registry,
        )
        .unwrap();
        assert_fused_eq(view.fused(), &spec_check);
    }

    #[test]
    fn delete_dissolves_only_its_cluster() {
        let registry = FunctionRegistry::standard();
        let t0 = source();
        let (a0, d0) = annotated_for(&t0);
        let mut view = FusedView::new(&a0, &d0, &[], &registry, Parallelism::sequential()).unwrap();

        let delta = TableDelta::new("People").delete(2); // drop Mary
        let (t1, mapping) = delta.apply(&t0).unwrap();
        let (d1, _) =
            detect_delta(&t0, &d0, &t1, &mapping, &cfg(), Parallelism::sequential()).unwrap();
        let a1 = annotate_object_ids(&t1, &d1).unwrap();
        let stats = view.apply_delta(&a1, &d1, &mapping, &registry).unwrap();
        let scratch = fuse(
            &a1,
            &FusionSpec::by_object_id(&[], Parallelism::sequential()),
            &registry,
        )
        .unwrap();
        assert_fused_eq(view.fused(), &scratch);
        // Deleting a 6-row-table row moves the (exact) corpus counts, so
        // detection re-scores broadly — but cluster membership for the
        // Smiths and Peter is unchanged, and fusion reuses them.
        assert!(stats.fusion.reused >= 1, "{stats:?}");
    }

    #[test]
    fn mapping_shape_validated() {
        let registry = FunctionRegistry::standard();
        let t0 = source();
        let (a0, d0) = annotated_for(&t0);
        let mut view = FusedView::new(&a0, &d0, &[], &registry, Parallelism::sequential()).unwrap();
        let bad = RowMapping::identity(2);
        assert!(view.apply_delta(&a0, &d0, &bad, &registry).is_err());
    }
}
