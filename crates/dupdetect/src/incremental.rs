//! Incremental duplicate detection under source deltas.
//!
//! [`detect_delta`] maintains a [`DetectionResult`] across a change to the
//! underlying table with cost proportional to the *change*, not the corpus:
//!
//! 1. the similarity caches for the updated table are rebuilt (linear —
//!    cheap next to pair scoring) exactly as a from-scratch run would build
//!    them;
//! 2. every surviving row's cell cache is compared **bit-for-bit** against
//!    its old cache; rows with identical caches are *clean*, the rest —
//!    inserted, updated, or drifted by a corpus-statistics step — are
//!    *dirty*;
//! 3. the incremental blocking index generates candidate pairs only for
//!    dirty rows (`dirty × all`), and those are scored through the same
//!    scoring loop the full detector uses;
//! 4. classifications of clean–clean pairs are **carried over** unchanged:
//!    the measure reads nothing but the two cell caches and the attribute
//!    scales, so bit-identical inputs give bit-identical scores — carrying
//!    is not an approximation;
//! 5. the transitive closure is maintained incrementally: connected
//!    components untouched by the delta keep their union-find structure
//!    (their members are re-linked directly, no pair is re-scored or
//!    re-unioned), while components containing deleted or dirty rows are
//!    dissolved and re-clustered from the merged pair list — the "scoped
//!    re-clustering" of only the affected components.
//!
//! ## The byte-identity contract
//!
//! For every delta, the resulting `pairs`, `unsure`, `cluster_ids`,
//! `clusters`, and `attributes_used` are **bit-identical** to
//! [`crate::detect_duplicates`] run from scratch over the updated table —
//! at every parallelism degree. This leans on the quantized corpus
//! statistics of [`crate::measure`]: weights are step functions of the
//! corpus, so small deltas leave untouched rows' caches literally
//! unchanged. When a quantization boundary *is* crossed (roughly every
//! `N/32` inserted or deleted rows), every row reads new weights, the dirty
//! set becomes the whole table, and that one delta degrades to a full
//! rescore — still byte-identical, just not cheap. `DetectionResult::stats`
//! is the one field outside the contract: it reports the work *this* run
//! performed, which for a delta run is delta-sized by design.
//!
//! The caller must pass the same [`DetectorConfig`] that produced the old
//! result; changing thresholds between runs invalidates carried
//! classifications.

use crate::detector::{
    check_thresholds, detect_with_measure, resolve_attributes, score_candidates,
    sort_pairs_canonical, DetectionResult, DetectionStats, DetectorConfig, DuplicatePair,
};
use crate::measure::TupleSimilarity;
use crate::unionfind::UnionFind;
use crate::CandidateSpec;
use hummer_engine::error::EngineError;
use hummer_engine::{Result, Table};
use hummer_par::Parallelism;

/// How rows of the old table relate to rows of the new table after a delta.
///
/// The mapping must be *monotone*: surviving rows keep their relative
/// order (deltas delete, update in place, and append — they never permute).
/// This is what lets carried pairs keep `left < right` and the candidate
/// order stay lexicographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMapping {
    /// For each old row: its index in the new table, or `None` if deleted.
    pub old_to_new: Vec<Option<usize>>,
    /// For each new row: its index in the old table, or `None` if inserted.
    pub new_to_old: Vec<Option<usize>>,
}

impl RowMapping {
    /// Build from the forward map and the new row count; the reverse map is
    /// derived. Errors if the forward map is out of bounds, collides, or is
    /// not monotone.
    pub fn new(old_to_new: Vec<Option<usize>>, new_len: usize) -> Result<Self> {
        let mut new_to_old: Vec<Option<usize>> = vec![None; new_len];
        let mut prev: Option<usize> = None;
        for (o, n) in old_to_new.iter().enumerate() {
            if let Some(n) = n {
                if *n >= new_len {
                    return Err(EngineError::Expression(format!(
                        "row mapping target {n} out of bounds (new length {new_len})"
                    )));
                }
                if new_to_old[*n].is_some() {
                    return Err(EngineError::Expression(format!(
                        "row mapping target {n} assigned twice"
                    )));
                }
                if prev.is_some_and(|p| p >= *n) {
                    return Err(EngineError::Expression(
                        "row mapping must be monotone (surviving rows keep their order)".into(),
                    ));
                }
                prev = Some(*n);
                new_to_old[*n] = Some(o);
            }
        }
        Ok(RowMapping {
            old_to_new,
            new_to_old,
        })
    }

    /// The identity mapping over `n` rows (an empty delta).
    pub fn identity(n: usize) -> Self {
        RowMapping {
            old_to_new: (0..n).map(Some).collect(),
            new_to_old: (0..n).map(Some).collect(),
        }
    }

    /// Old row count.
    pub fn old_len(&self) -> usize {
        self.old_to_new.len()
    }

    /// New row count.
    pub fn new_len(&self) -> usize {
        self.new_to_old.len()
    }

    /// Number of inserted (new, unmapped) rows.
    pub fn inserted(&self) -> usize {
        self.new_to_old.iter().filter(|o| o.is_none()).count()
    }

    /// Number of deleted (old, unmapped) rows.
    pub fn deleted(&self) -> usize {
        self.old_to_new.iter().filter(|n| n.is_none()).count()
    }
}

/// Work counters for one [`detect_delta`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaDetectionStats {
    /// Rows before the delta.
    pub old_rows: usize,
    /// Rows after the delta.
    pub new_rows: usize,
    /// Rows whose similarity caches changed (inserted, updated, or drifted).
    pub dirty_rows: usize,
    /// Candidate pairs generated by the incremental blocking index.
    pub candidates: usize,
    /// Full similarity evaluations performed.
    pub compared: usize,
    /// Candidates discarded by the upper-bound filter.
    pub filtered_out: usize,
    /// Accepted pairs carried over without rescoring.
    pub carried_pairs: usize,
    /// Unsure pairs carried over without rescoring.
    pub carried_unsure: usize,
    /// Accepted pairs produced by delta scoring.
    pub scored_pairs: usize,
    /// Unsure pairs produced by delta scoring.
    pub scored_unsure: usize,
    /// Old connected components dissolved and re-clustered.
    pub affected_components: usize,
    /// Old connected components whose union-find structure was preserved.
    pub preserved_components: usize,
    /// True when the delta degraded to a full rescore (quantization
    /// boundary, attribute-selection change, or a blocking strategy with no
    /// incremental index).
    pub full_rescore: bool,
    /// Why a full rescore happened, when it did.
    pub fallback_reason: Option<String>,
}

/// Run a full detection with `measure` over `new_table` and report it as a
/// (degenerate) delta outcome.
fn full_rescore(
    new_table: &Table,
    measure: &TupleSimilarity,
    mapping: &RowMapping,
    cfg: &DetectorConfig,
    par: Parallelism,
    reason: &str,
) -> Result<(DetectionResult, DeltaDetectionStats)> {
    let result = detect_with_measure(new_table, measure, cfg, par)?;
    let stats = DeltaDetectionStats {
        old_rows: mapping.old_len(),
        new_rows: new_table.len(),
        dirty_rows: new_table.len(),
        candidates: result.stats.candidates,
        compared: result.stats.compared,
        filtered_out: result.stats.filtered_out,
        scored_pairs: result.pairs.len(),
        scored_unsure: result.unsure.len(),
        affected_components: result.clusters.len(),
        full_rescore: true,
        fallback_reason: Some(reason.to_string()),
        ..Default::default()
    };
    Ok((result, stats))
}

/// Incrementally update `old` (detected over `old_table`) to describe
/// `new_table`, where `mapping` relates the two tables' rows.
///
/// Output (everything except the work counters in `stats`) is
/// bit-identical to [`crate::detect_duplicates_par`] over `new_table` at
/// every degree — see the module docs for the argument. `cfg` must be the
/// configuration that produced `old`.
///
/// # Example
///
/// ```
/// use hummer_dupdetect::{detect_duplicates, detect_delta, DetectorConfig, RowMapping};
/// use hummer_engine::table;
///
/// let before = table! {
///     "People" => ["Name", "City"];
///     ["John Smith", "Berlin"],
///     ["Mary Jones", "Hamburg"],
/// };
/// let after = table! {
///     "People" => ["Name", "City"];
///     ["John Smith", "Berlin"],
///     ["Mary Jones", "Hamburg"],
///     ["Jon Smith",  "Berlin"],   // inserted typo duplicate
/// };
/// let cfg = DetectorConfig { threshold: 0.6, unsure_threshold: 0.5, ..Default::default() };
/// let old = detect_duplicates(&before, &cfg).unwrap();
/// let mapping = RowMapping::new(vec![Some(0), Some(1)], 3).unwrap();
/// let (updated, stats) = detect_delta(&before, &old, &after, &mapping, &cfg, Default::default()).unwrap();
/// assert_eq!(updated.object_count(), 2); // the Smiths cluster
/// assert_eq!(stats.new_rows, 3);
/// let scratch = detect_duplicates(&after, &cfg).unwrap();
/// assert_eq!(updated.cluster_ids, scratch.cluster_ids);
/// ```
pub fn detect_delta(
    old_table: &Table,
    old: &DetectionResult,
    new_table: &Table,
    mapping: &RowMapping,
    cfg: &DetectorConfig,
    par: Parallelism,
) -> Result<(DetectionResult, DeltaDetectionStats)> {
    check_thresholds(cfg)?;
    if mapping.old_len() != old_table.len() || mapping.new_len() != new_table.len() {
        return Err(EngineError::Expression(format!(
            "row mapping shape ({} -> {}) does not match the tables ({} -> {})",
            mapping.old_len(),
            mapping.new_len(),
            old_table.len(),
            new_table.len()
        )));
    }
    if old.cluster_ids.len() != old_table.len() {
        return Err(EngineError::Expression(
            "old detection result does not describe the old table".into(),
        ));
    }

    let attrs_new = resolve_attributes(new_table, cfg)?;
    let names_new: Vec<String> = attrs_new
        .iter()
        .map(|&i| new_table.schema().column(i).name.clone())
        .collect();
    // Only the all-pairs strategy has an incremental index (a
    // sorted-neighborhood window shifts globally under inserts), and the
    // attribute selection must agree with the old run (same names, same
    // order) — otherwise the cell caches are not comparable.
    let unusable = if cfg.candidates != CandidateSpec::AllPairs {
        Some("blocking strategy has no incremental candidate index")
    } else if names_new != old.attributes_used {
        Some("attribute selection changed")
    } else {
        None
    };
    if let Some(reason) = unusable {
        let measure = TupleSimilarity::new(new_table, attrs_new);
        return full_rescore(new_table, &measure, mapping, cfg, par, reason);
    }
    let attrs_old: Vec<usize> = old
        .attributes_used
        .iter()
        .map(|n| old_table.resolve(n))
        .collect::<Result<_>>()?;

    // Rebuild both scorers exactly as a from-scratch run would; the old
    // scorer is a pure function of the old table, so this reproduces the
    // caches the old result was scored against.
    let measure_old = TupleSimilarity::new(old_table, attrs_old);
    let measure_new = TupleSimilarity::new(new_table, attrs_new);

    // Dirty rows: inserted, or cell caches not bit-identical.
    let n_new = new_table.len();
    let mut dirty = vec![false; n_new];
    for (i, o) in mapping.new_to_old.iter().enumerate() {
        dirty[i] = match o {
            None => true,
            Some(o) => !measure_new.row_cells_identical(i, &measure_old, *o),
        };
    }
    // A changed numeric comparison scale affects every numeric pair in that
    // attribute even when the cells themselves are unchanged.
    let ranges_old = measure_old.range_bits();
    let ranges_new = measure_new.range_bits();
    for (k, (ro, rn)) in ranges_old.iter().zip(&ranges_new).enumerate() {
        if ro != rn {
            for (i, d) in dirty.iter_mut().enumerate() {
                if measure_new.cell_is_numeric(i, k) {
                    *d = true;
                }
            }
        }
    }
    let dirty_rows: Vec<usize> = (0..n_new).filter(|&i| dirty[i]).collect();

    // When a corpus-statistics window crossing dirties most of the table,
    // the incremental bookkeeping (carry-over scans, scoped closure) costs
    // more than it saves — cap the worst case at a plain full run.
    if 2 * dirty_rows.len() > n_new {
        return full_rescore(
            new_table,
            &measure_new,
            mapping,
            cfg,
            par,
            "delta dirtied a majority of rows (corpus-statistics window crossed)",
        );
    }

    // The incremental blocking index: all pairs with a dirty endpoint, in
    // lexicographic order (the order the full detector enumerates).
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for (i, &is_dirty) in dirty.iter().enumerate() {
        if is_dirty {
            for j in (i + 1)..n_new {
                candidates.push((i, j));
            }
        } else {
            let start = dirty_rows.partition_point(|&d| d <= i);
            for &j in &dirty_rows[start..] {
                candidates.push((i, j));
            }
        }
    }

    let scored = score_candidates(new_table, &measure_new, cfg, &candidates, par);

    // Carry over every classification whose endpoints are both clean; their
    // scores are bit-identical by construction. Accepted pairs remember
    // their old component for the scoped re-clustering below.
    let mut pairs: Vec<DuplicatePair> = Vec::with_capacity(scored.pairs.len() + old.pairs.len());
    let mut carried_components: Vec<usize> = Vec::new();
    for p in &old.pairs {
        if let (Some(l), Some(r)) = (mapping.old_to_new[p.left], mapping.old_to_new[p.right]) {
            if !dirty[l] && !dirty[r] {
                debug_assert!(l < r, "monotone mapping preserves pair orientation");
                pairs.push(DuplicatePair {
                    left: l,
                    right: r,
                    similarity: p.similarity,
                });
                carried_components.push(old.cluster_ids[p.left]);
            }
        }
    }
    let carried_pairs = pairs.len();
    let mut unsure: Vec<DuplicatePair> = Vec::with_capacity(scored.unsure.len());
    for p in &old.unsure {
        if let (Some(l), Some(r)) = (mapping.old_to_new[p.left], mapping.old_to_new[p.right]) {
            if !dirty[l] && !dirty[r] {
                unsure.push(DuplicatePair {
                    left: l,
                    right: r,
                    similarity: p.similarity,
                });
            }
        }
    }
    let carried_unsure = unsure.len();

    // Incremental closure. An old component is *affected* when it lost a
    // member or contains a dirty row; everything else keeps its structure.
    let mut affected = vec![false; old.clusters.len()];
    for (o, n) in mapping.old_to_new.iter().enumerate() {
        let cid = old.cluster_ids[o];
        match n {
            None => affected[cid] = true,
            Some(n) => affected[cid] |= dirty[*n],
        }
    }
    let affected_components = affected.iter().filter(|a| **a).count();
    let mut uf = UnionFind::new(n_new);
    // Preserved components: unions applied directly along the member chain
    // (no pair consulted). No merged pair can join two preserved
    // components: accepted pairs lie within one old component by
    // transitivity, and every delta-scored pair has a dirty endpoint.
    for (cid, members) in old.clusters.iter().enumerate() {
        if affected[cid] {
            continue;
        }
        let mut prev: Option<usize> = None;
        for &m in members {
            let n = mapping.old_to_new[m].expect("unaffected components lose no members");
            if let Some(p) = prev {
                uf.union(p, n);
            }
            prev = Some(n);
        }
    }
    // Affected components re-cluster from scratch: carried pairs that lived
    // in them, plus everything the delta scored.
    for (p, cid) in pairs.iter().zip(&carried_components) {
        if affected[*cid] {
            uf.union(p.left, p.right);
        }
    }
    for p in &scored.pairs {
        uf.union(p.left, p.right);
    }

    // Merge carried and scored classifications into the canonical order.
    let scored_pairs = scored.pairs.len();
    let scored_unsure = scored.unsure.len();
    pairs.extend(scored.pairs);
    unsure.extend(scored.unsure);
    sort_pairs_canonical(&mut pairs);
    sort_pairs_canonical(&mut unsure);

    let cluster_ids = uf.cluster_ids();
    let clusters = uf.clusters();
    let stats = DeltaDetectionStats {
        old_rows: old_table.len(),
        new_rows: n_new,
        dirty_rows: dirty_rows.len(),
        candidates: candidates.len(),
        compared: scored.compared,
        filtered_out: scored.filtered_out,
        carried_pairs,
        carried_unsure,
        scored_pairs,
        scored_unsure,
        affected_components,
        preserved_components: old.clusters.len() - affected_components,
        full_rescore: false,
        fallback_reason: None,
    };
    let result = DetectionResult {
        pairs,
        unsure,
        cluster_ids,
        clusters,
        stats: DetectionStats {
            candidates: stats.candidates,
            filtered_out: stats.filtered_out,
            compared: stats.compared,
            memo_hits: 0,
        },
        attributes_used: names_new,
    };
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect_duplicates;
    use hummer_engine::{table, Row, Value};

    fn people() -> Table {
        table! {
            "People" => ["Name", "City", "Age"];
            ["John Smith", "Berlin", 34],
            ["Jon Smith", "Berlin", 34],
            ["Mary Jones", "Hamburg", 28],
            ["Mary Jones", "Hamburg", 28],
            ["Peter Miller", "Munich", 45],
            ["Ada Lovelace", "London", 36],
        }
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            threshold: 0.75,
            unsure_threshold: 0.55,
            ..Default::default()
        }
    }

    /// Every field of the contract (everything but `stats`).
    fn assert_matches_scratch(incremental: &DetectionResult, new_table: &Table) {
        let scratch = detect_duplicates(new_table, &cfg()).unwrap();
        assert_eq!(incremental.pairs, scratch.pairs);
        assert_eq!(incremental.unsure, scratch.unsure);
        assert_eq!(incremental.cluster_ids, scratch.cluster_ids);
        assert_eq!(incremental.clusters, scratch.clusters);
        assert_eq!(incremental.attributes_used, scratch.attributes_used);
    }

    fn edit(table: &Table, f: impl FnOnce(&mut Vec<Row>)) -> Table {
        let mut rows = table.rows().to_vec();
        f(&mut rows);
        let names: Vec<String> = table
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        Table::from_rows(table.name(), &names, rows).unwrap()
    }

    #[test]
    fn insert_only_delta_matches_scratch() {
        let before = people();
        let old = detect_duplicates(&before, &cfg()).unwrap();
        let after = edit(&before, |rows| {
            rows.push(Row::from_values(vec![
                Value::text("Peter Miller"),
                Value::text("Munich"),
                Value::Int(45),
            ]));
        });
        let mapping = RowMapping::new((0..6).map(Some).collect(), 7).unwrap();
        let (result, stats) = detect_delta(
            &before,
            &old,
            &after,
            &mapping,
            &cfg(),
            Parallelism::sequential(),
        )
        .unwrap();
        // On a 6-row table the insert moves the (exact, sub-64) document
        // count, so every weight — and with it every row — goes dirty, and
        // the majority-dirty guard degrades to a full rescore. The
        // carry-over economics only kick in at quantized corpus sizes; what
        // matters here is that the result is still exactly from-scratch.
        assert!(stats.full_rescore);
        assert_eq!(stats.new_rows, 7);
        assert_matches_scratch(&result, &after);
    }

    #[test]
    fn update_delta_matches_scratch() {
        let before = people();
        let old = detect_duplicates(&before, &cfg()).unwrap();
        // Fix the typo: "Jon" -> "John" (strengthens the cluster).
        let after = edit(&before, |rows| {
            rows[1] = Row::from_values(vec![
                Value::text("John Smith"),
                Value::text("Berlin"),
                Value::Int(34),
            ]);
        });
        let mapping = RowMapping::identity(6);
        let (result, stats) = detect_delta(
            &before,
            &old,
            &after,
            &mapping,
            &cfg(),
            Parallelism::sequential(),
        )
        .unwrap();
        assert!(!stats.full_rescore);
        assert!(stats.carried_pairs + stats.scored_pairs >= result.pairs.len());
        assert_matches_scratch(&result, &after);
    }

    #[test]
    fn delete_delta_matches_scratch() {
        let before = people();
        let old = detect_duplicates(&before, &cfg()).unwrap();
        // Delete one Mary (breaks that cluster down to a singleton).
        let after = edit(&before, |rows| {
            rows.remove(3);
        });
        let mapping =
            RowMapping::new(vec![Some(0), Some(1), Some(2), None, Some(3), Some(4)], 5).unwrap();
        let (result, stats) = detect_delta(
            &before,
            &old,
            &after,
            &mapping,
            &cfg(),
            Parallelism::sequential(),
        )
        .unwrap();
        assert!(stats.affected_components >= 1);
        assert_matches_scratch(&result, &after);
    }

    #[test]
    fn mixed_delta_matches_scratch_at_every_degree() {
        let before = people();
        let old = detect_duplicates(&before, &cfg()).unwrap();
        let after = edit(&before, |rows| {
            rows.remove(4); // delete Peter
            rows[0] = Row::from_values(vec![
                Value::text("John A Smith"),
                Value::text("Berlin"),
                Value::Int(34),
            ]);
            rows.push(Row::from_values(vec![
                Value::text("Ada Lovelace"),
                Value::text("London"),
                Value::Int(37),
            ]));
        });
        let mapping =
            RowMapping::new(vec![Some(0), Some(1), Some(2), Some(3), None, Some(4)], 6).unwrap();
        for degree in 1..=4 {
            let (result, _) = detect_delta(
                &before,
                &old,
                &after,
                &mapping,
                &cfg(),
                Parallelism::degree(degree),
            )
            .unwrap();
            assert_matches_scratch(&result, &after);
        }
    }

    /// A corpus large enough for the quantized-count window: deleting one
    /// row leaves every other row's caches bit-identical, so the delta
    /// carries all surviving pairs, dissolves only the deleted row's
    /// component, and skips the quadratic work.
    #[test]
    fn delete_inside_stats_window_carries_pairs() {
        // 71 rows: q(71) == q(70) == 70 for the document count, so the
        // delete does not cross a window boundary.
        let mut rows: Vec<Row> = (0..69)
            .map(|i| Row::from_values(vec![Value::text(format!("solo person number {i}"))]))
            .collect();
        rows.push(Row::from_values(vec![Value::text(
            "twin alexander hamilton",
        )]));
        rows.push(Row::from_values(vec![Value::text(
            "twin alexander hamilton",
        )]));
        let before = Table::from_rows("T", &["Name"], rows).unwrap();
        let cfg = DetectorConfig {
            attributes: Some(vec!["Name".into()]),
            threshold: 0.7,
            unsure_threshold: 0.55,
            ..Default::default()
        };
        let old = detect_duplicates(&before, &cfg).unwrap();
        assert!(!old.pairs.is_empty(), "the twins must pair up");

        // Delete row 5 (a solo, far from the twins).
        let after = {
            let mut rows = before.rows().to_vec();
            rows.remove(5);
            Table::from_rows("T", &["Name"], rows).unwrap()
        };
        let old_to_new: Vec<Option<usize>> = (0..71)
            .map(|i| match i {
                5 => None,
                i if i < 5 => Some(i),
                i => Some(i - 1),
            })
            .collect();
        let mapping = RowMapping::new(old_to_new, 70).unwrap();
        let (result, stats) = detect_delta(
            &before,
            &old,
            &after,
            &mapping,
            &cfg,
            Parallelism::sequential(),
        )
        .unwrap();
        assert!(!stats.full_rescore, "{:?}", stats.fallback_reason);
        assert_eq!(stats.dirty_rows, 0, "window held: nothing to re-score");
        assert_eq!(stats.candidates, 0);
        assert!(stats.carried_pairs >= 1, "twin pair carried");
        assert_eq!(stats.affected_components, 1, "only the deleted singleton");
        assert!(stats.preserved_components > 60);
        let scratch = detect_duplicates(&after, &cfg).unwrap();
        assert_eq!(result.pairs, scratch.pairs);
        assert_eq!(result.unsure, scratch.unsure);
        assert_eq!(result.cluster_ids, scratch.cluster_ids);
        assert_eq!(result.clusters, scratch.clusters);
    }

    #[test]
    fn empty_delta_is_cheap_and_identical() {
        let before = people();
        let old = detect_duplicates(&before, &cfg()).unwrap();
        let (result, stats) = detect_delta(
            &before,
            &old,
            &before,
            &RowMapping::identity(6),
            &cfg(),
            Parallelism::sequential(),
        )
        .unwrap();
        assert_eq!(stats.dirty_rows, 0);
        assert_eq!(stats.candidates, 0);
        assert_eq!(stats.compared, 0);
        assert_eq!(stats.preserved_components, old.clusters.len());
        assert_matches_scratch(&result, &before);
    }

    #[test]
    fn sorted_neighborhood_falls_back_to_full() {
        let before = people();
        let sn_cfg = DetectorConfig {
            candidates: CandidateSpec::SortedNeighborhood {
                key: vec!["Name".into()],
                window: 3,
            },
            ..cfg()
        };
        let old = detect_duplicates(&before, &sn_cfg).unwrap();
        let (result, stats) = detect_delta(
            &before,
            &old,
            &before,
            &RowMapping::identity(6),
            &sn_cfg,
            Parallelism::sequential(),
        )
        .unwrap();
        assert!(stats.full_rescore);
        assert!(stats.fallback_reason.is_some());
        let scratch = detect_duplicates(&before, &sn_cfg).unwrap();
        assert_eq!(result.cluster_ids, scratch.cluster_ids);
    }

    #[test]
    fn mapping_validation_rejects_bad_shapes() {
        assert!(RowMapping::new(vec![Some(3)], 2).is_err()); // out of bounds
        assert!(RowMapping::new(vec![Some(0), Some(0)], 2).is_err()); // collision
        assert!(RowMapping::new(vec![Some(1), Some(0)], 2).is_err()); // not monotone
        let m = RowMapping::new(vec![Some(0), None, Some(2)], 3).unwrap();
        assert_eq!(m.new_to_old, vec![Some(0), None, Some(2)]);
        assert_eq!(m.inserted(), 1);
        assert_eq!(m.deleted(), 1);

        let before = people();
        let old = detect_duplicates(&before, &cfg()).unwrap();
        let bad = RowMapping::identity(3);
        assert!(detect_delta(
            &before,
            &old,
            &before,
            &bad,
            &cfg(),
            Parallelism::sequential()
        )
        .is_err());
    }

    #[test]
    fn thresholds_validated() {
        let before = people();
        let old = detect_duplicates(&before, &cfg()).unwrap();
        let bad = DetectorConfig {
            threshold: 0.5,
            unsure_threshold: 0.9,
            ..Default::default()
        };
        assert!(detect_delta(
            &before,
            &old,
            &before,
            &RowMapping::identity(6),
            &bad,
            Parallelism::sequential()
        )
        .is_err());
    }
}
