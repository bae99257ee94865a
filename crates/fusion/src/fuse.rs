//! The fusion operator: collapse each duplicate cluster into one consistent
//! tuple, resolving conflicts per column.
//!
//! "Tuples with same objectID are fused into a single tuple and conflicts
//! among them are resolved according to the query specification" (paper §3).

use crate::context::ConflictContext;
use crate::error::FusionError;
use crate::functions::ResolutionFunction;
use crate::lineage::{CellLineage, Lineage};
use crate::registry::{FunctionRegistry, ResolutionSpec};
use hummer_engine::{is_bookkeeping_column, Row, Table, Value, OBJECT_ID_COLUMN, SOURCE_ID_COLUMN};
use hummer_par::{par_map_indexed, Parallelism};
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::sync::Arc;

/// Specification of one fusion run.
#[derive(Debug, Clone)]
pub struct FusionSpec {
    /// The object-identity columns (`FUSE BY (...)`): tuples agreeing on
    /// all of them form one cluster. Typically this is the detector's
    /// `objectID`, or a natural key like `Name`.
    pub key_columns: Vec<String>,
    /// Per-column resolution functions (`RESOLVE(col, f)`), by column name.
    pub resolutions: Vec<(String, ResolutionSpec)>,
    /// Function for every column without an explicit `RESOLVE` — the paper
    /// mandates `COALESCE` as default.
    pub default_function: ResolutionSpec,
    /// Columns to drop from the fused output (e.g. bookkeeping columns).
    pub drop_columns: Vec<String>,
    /// How many threads may resolve disjoint clusters concurrently.
    /// Clusters are independent by construction, and results merge in
    /// first-appearance order, so the degree never changes the output —
    /// only the wall-clock cost of wide fusions. Defaults to sequential.
    pub parallelism: Parallelism,
}

impl FusionSpec {
    /// Fuse by the given key columns with `COALESCE` everywhere else.
    pub fn by_key<S: Into<String>>(keys: Vec<S>) -> Self {
        FusionSpec {
            key_columns: keys.into_iter().map(Into::into).collect(),
            resolutions: Vec::new(),
            default_function: ResolutionSpec::named("coalesce"),
            drop_columns: Vec::new(),
            parallelism: Parallelism::sequential(),
        }
    }

    /// The pipeline's fusion: group by `objectID`, drop the bookkeeping
    /// columns, resolve `resolutions` (`COALESCE` elsewhere) on `par`.
    pub fn by_object_id(resolutions: &[(String, ResolutionSpec)], par: Parallelism) -> Self {
        FusionSpec {
            resolutions: resolutions.to_vec(),
            drop_columns: vec![OBJECT_ID_COLUMN.into(), SOURCE_ID_COLUMN.into()],
            parallelism: par,
            ..FusionSpec::by_key(vec![OBJECT_ID_COLUMN])
        }
    }

    /// Add a `RESOLVE(column, function)` clause.
    pub fn resolve(mut self, column: impl Into<String>, spec: ResolutionSpec) -> Self {
        self.resolutions.push((column.into(), spec));
        self
    }

    /// Drop a column from the output.
    pub fn drop_column(mut self, column: impl Into<String>) -> Self {
        self.drop_columns.push(column.into());
        self
    }

    /// Resolve disjoint clusters on up to `par.get()` threads.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }
}

/// A sample of an actual conflict encountered during fusion (the wizard's
/// "sample conflicts" pane, Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleConflict {
    /// Output row (cluster) index.
    pub cluster: usize,
    /// Column name.
    pub column: String,
    /// The distinct conflicting values, rendered.
    pub values: Vec<String>,
    /// The resolved value, rendered.
    pub resolved: String,
}

/// The fused table plus per-cell lineage and conflict samples.
#[derive(Debug, Clone)]
pub struct FusedTable {
    /// The clean, consistent result (one tuple per real-world object).
    pub table: Table,
    /// Per-cell lineage (same shape as `table`).
    pub lineage: Lineage,
    /// Up to [`MAX_SAMPLE_CONFLICTS`] resolved conflicts for inspection.
    pub sample_conflicts: Vec<SampleConflict>,
    /// Total number of cell-level conflicts resolved.
    pub conflict_count: usize,
    /// Output rows whose cluster merged more than one input row — the
    /// fusions that actually combined sources, as opposed to singleton
    /// pass-throughs.
    pub merged_clusters: usize,
}

/// Cap on collected [`SampleConflict`]s.
pub const MAX_SAMPLE_CONFLICTS: usize = 25;

/// One cluster's fused row plus its by-products, computed independently of
/// every other cluster (the unit of parallelism in [`fuse`], and the unit
/// of caching in [`crate::incremental`]).
#[derive(Debug, Clone)]
pub(crate) struct ResolvedCluster {
    pub(crate) values: Vec<Value>,
    pub(crate) cell_lineages: Vec<CellLineage>,
    /// Conflict samples in column order, capped at [`MAX_SAMPLE_CONFLICTS`]
    /// (the global merge keeps the first `MAX_SAMPLE_CONFLICTS` across
    /// clusters in order, so a per-cluster cap loses nothing).
    pub(crate) samples: Vec<SampleConflict>,
    pub(crate) conflicts: usize,
    /// Input rows this cluster fused.
    pub(crate) members: usize,
}

/// Fuse the cluster whose member row indices are `members` into one tuple.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve_cluster(
    cluster_idx: usize,
    members: &[usize],
    input: &Table,
    out_cols: &[usize],
    row_sources: &[Option<String>],
    explicit: &HashMap<usize, Arc<dyn ResolutionFunction>>,
    default_fn: &Arc<dyn ResolutionFunction>,
) -> Result<ResolvedCluster, FusionError> {
    let member_rows: Vec<&Row> = members.iter().map(|&i| &input.rows()[i]).collect();
    let member_sources: Vec<Option<String>> =
        members.iter().map(|&i| row_sources[i].clone()).collect();

    let mut values: Vec<Value> = Vec::with_capacity(out_cols.len());
    let mut cell_lineages: Vec<CellLineage> = Vec::with_capacity(out_cols.len());
    let mut samples: Vec<SampleConflict> = Vec::new();
    let mut conflicts = 0usize;
    // One context per cluster, re-aimed per column: the member rows/sources
    // are shared by every column, and cloning them per column would put
    // O(members) String allocations inside the hottest fusion loop.
    let mut ctx = ConflictContext {
        table_name: input.name(),
        schema: input.schema(),
        column: "",
        column_index: 0,
        rows: member_rows,
        source_ids: member_sources,
    };
    for &col in out_cols {
        ctx.column = &input.schema().column(col).name;
        ctx.column_index = col;
        // `sourceID` differs by construction whenever sources merge, and
        // `objectID` is the grouping key: neither is a data conflict.
        let is_data_column = !is_bookkeeping_column(ctx.column);
        let had_conflict = is_data_column && ctx.is_conflict();
        let func = explicit.get(&col).unwrap_or(default_fn);
        let resolved = func.resolve(&ctx)?;

        if had_conflict {
            conflicts += 1;
            if samples.len() < MAX_SAMPLE_CONFLICTS {
                let mut distinct: Vec<String> = Vec::new();
                for (_, v) in ctx.non_null_values() {
                    let s = v.to_string();
                    if !distinct.contains(&s) {
                        distinct.push(s);
                    }
                }
                samples.push(SampleConflict {
                    cluster: cluster_idx,
                    column: ctx.column.to_string(),
                    values: distinct,
                    resolved: resolved.value.to_string(),
                });
            }
        }

        let mut sources: Vec<String> = resolved
            .contributors
            .iter()
            .filter_map(|&local| ctx.source_ids[local].clone())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        sources.sort();
        cell_lineages.push(CellLineage {
            row_indices: resolved.contributors.iter().map(|&l| members[l]).collect(),
            sources,
            had_conflict,
        });
        values.push(resolved.value);
    }
    Ok(ResolvedCluster {
        values,
        cell_lineages,
        samples,
        conflicts,
        members: members.len(),
    })
}

/// Run fusion over `input` according to `spec`, instantiating resolution
/// functions from `registry`.
///
/// Clusters are the groups of tuples agreeing on all `key_columns`
/// (`NULL` keys compare equal, so tuples with missing keys form their own
/// cluster per distinct null-pattern). Output cluster order follows first
/// appearance in the input; column order follows the input schema minus
/// dropped columns.
pub fn fuse(
    input: &Table,
    spec: &FusionSpec,
    registry: &FunctionRegistry,
) -> Result<FusedTable, FusionError> {
    let setup = FusionSetup::new(input, spec, registry)?;
    let resolved = setup.resolve_all(input, spec, |_| None)?;
    setup.assemble(input, resolved)
}

/// Everything [`fuse`] derives from the spec before touching clusters:
/// resolved columns, instantiated functions, per-row source ids, and the
/// key groups in first-appearance order. Shared with [`crate::incremental`]
/// so the incremental path groups, resolves, and assembles byte-identically.
pub(crate) struct FusionSetup {
    pub(crate) out_cols: Vec<usize>,
    pub(crate) order: Vec<Row>,
    pub(crate) groups: HashMap<Row, Vec<usize>>,
    row_sources: Vec<Option<String>>,
    explicit: HashMap<usize, Arc<dyn ResolutionFunction>>,
    default_fn: Arc<dyn ResolutionFunction>,
}

impl FusionSetup {
    pub(crate) fn new(
        input: &Table,
        spec: &FusionSpec,
        registry: &FunctionRegistry,
    ) -> Result<FusionSetup, FusionError> {
        // Resolve key and output columns.
        let key_idx: Vec<usize> = spec
            .key_columns
            .iter()
            .map(|k| input.resolve(k).map_err(FusionError::from))
            .collect::<Result<_, _>>()?;
        if key_idx.is_empty() {
            return Err(FusionError::BadArgument(
                "fusion requires at least one key column (FUSE BY)".into(),
            ));
        }
        let dropped: BTreeSet<usize> = spec
            .drop_columns
            .iter()
            .map(|c| input.resolve(c).map_err(FusionError::from))
            .collect::<Result<_, _>>()?;
        let out_cols: Vec<usize> = (0..input.schema().len())
            .filter(|i| !dropped.contains(i))
            .collect();

        // Instantiate one function per output column.
        let default_fn = registry.build(&spec.default_function)?;
        let mut explicit: HashMap<usize, Arc<dyn ResolutionFunction>> = HashMap::new();
        for (col, rspec) in &spec.resolutions {
            let idx = input.resolve(col).map_err(FusionError::from)?;
            explicit.insert(idx, registry.build(rspec)?);
        }

        // Source ids per input row, if the provenance column exists.
        let source_idx = input.schema().index_of(SOURCE_ID_COLUMN);
        let row_sources: Vec<Option<String>> = input
            .rows()
            .iter()
            .map(|r| source_idx.and_then(|i| r[i].as_text()))
            .collect();

        // Group rows by key, preserving first-appearance order.
        let mut order: Vec<Row> = Vec::new();
        let mut groups: HashMap<Row, Vec<usize>> = HashMap::new();
        for (i, row) in input.rows().iter().enumerate() {
            let key = row.project(&key_idx);
            groups
                .entry(key.clone())
                .or_insert_with(|| {
                    order.push(key);
                    Vec::new()
                })
                .push(i);
        }

        Ok(FusionSetup {
            out_cols,
            order,
            groups,
            row_sources,
            explicit,
            default_fn,
        })
    }

    /// Resolve every cluster, either through `shortcut` (the incremental
    /// path's cache) or by running the resolution functions. Clusters are
    /// independent, so they run on up to `spec.parallelism` threads and
    /// merge in first-appearance order — the output is the same at every
    /// degree.
    pub(crate) fn resolve_all(
        &self,
        input: &Table,
        spec: &FusionSpec,
        shortcut: impl Fn(usize) -> Option<ResolvedCluster> + Sync,
    ) -> Result<Vec<ResolvedCluster>, FusionError> {
        let one_cluster = |cluster_idx: usize, key: &Row| match shortcut(cluster_idx) {
            Some(cached) => Ok(cached),
            None => resolve_cluster(
                cluster_idx,
                &self.groups[key],
                input,
                &self.out_cols,
                &self.row_sources,
                &self.explicit,
                &self.default_fn,
            ),
        };
        let resolved: Vec<Result<ResolvedCluster, FusionError>> =
            if spec.parallelism.is_sequential() {
                // Inline, stopping at the first error (a parallel run
                // finishes in-flight clusters before the merge surfaces the
                // same error).
                let mut acc = Vec::with_capacity(self.order.len());
                for (cluster_idx, key) in self.order.iter().enumerate() {
                    let result = one_cluster(cluster_idx, key);
                    let failed = result.is_err();
                    acc.push(result);
                    if failed {
                        break;
                    }
                }
                acc
            } else {
                par_map_indexed(spec.parallelism, &self.order, |cluster_idx, key| {
                    one_cluster(cluster_idx, key)
                })
            };
        resolved.into_iter().collect()
    }

    /// Merge resolved clusters (in first-appearance order) into the fused
    /// table, its lineage, and the global conflict sample/count.
    pub(crate) fn assemble(
        &self,
        input: &Table,
        resolved: Vec<ResolvedCluster>,
    ) -> Result<FusedTable, FusionError> {
        let out_schema = input
            .schema()
            .project(&self.out_cols)
            .map_err(FusionError::from)?;
        let out_names: Vec<String> = out_schema.names().iter().map(|s| s.to_string()).collect();
        let mut out = Table::empty(input.name(), out_schema);
        let mut lineage = Lineage::new(out_names);
        let mut samples: Vec<SampleConflict> = Vec::new();
        let mut conflict_count = 0usize;
        let mut merged_clusters = 0usize;
        for cluster in resolved {
            conflict_count += cluster.conflicts;
            if cluster.members > 1 {
                merged_clusters += 1;
            }
            for sample in cluster.samples {
                if samples.len() >= MAX_SAMPLE_CONFLICTS {
                    break;
                }
                samples.push(sample);
            }
            out.push(Row::from_values(cluster.values))
                .map_err(FusionError::from)?;
            lineage.push_row(cluster.cell_lineages);
        }
        Ok(FusedTable {
            table: out,
            lineage,
            sample_conflicts: samples,
            conflict_count,
            merged_clusters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::table;

    /// The integrated student table after matching + duplicate detection:
    /// objectID identifies clusters.
    fn students() -> Table {
        table! {
            "Students" => ["Name", "Age", "Semester", "sourceID", "objectID"];
            ["John Smith", 24, (), "EE", 0],
            ["John Smith", 25, 5, "CS", 0],
            ["Mary Jones", 22, (), "EE", 1],
            ["Marie Curie", 31, 9, "CS", 2],
        }
    }

    fn registry() -> FunctionRegistry {
        FunctionRegistry::standard()
    }

    #[test]
    fn fuses_one_tuple_per_object() {
        let spec = FusionSpec::by_key(vec!["objectID"]);
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        assert_eq!(fused.table.len(), 3);
        // Key uniqueness after fusion: no two rows share an objectID.
        let oid = fused.table.resolve("objectID").unwrap();
        let mut seen: Vec<String> = fused
            .table
            .rows()
            .iter()
            .map(|r| r[oid].to_string())
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn default_coalesce_fills_from_later_rows() {
        let spec = FusionSpec::by_key(vec!["objectID"]);
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        let sem = fused.table.resolve("Semester").unwrap();
        // John's EE row has NULL semester; CS supplies 5.
        assert_eq!(fused.table.cell(0, sem), &Value::Int(5));
    }

    #[test]
    fn explicit_resolution_overrides_default() {
        // The paper's example: RESOLVE(Age, max) — students only get older.
        let spec =
            FusionSpec::by_key(vec!["objectID"]).resolve("Age", ResolutionSpec::named("max"));
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        let age = fused.table.resolve("Age").unwrap();
        assert_eq!(fused.table.cell(0, age), &Value::Int(25));
    }

    #[test]
    fn conflicts_counted_and_sampled() {
        let spec = FusionSpec::by_key(vec!["objectID"]);
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        // Exactly one conflict: John's age 24 vs 25. (sourceID values EE/CS
        // differ too — also a conflict under the definition.)
        assert!(fused.conflict_count >= 1);
        let age_conflict = fused
            .sample_conflicts
            .iter()
            .find(|c| c.column == "Age")
            .expect("age conflict sampled");
        assert_eq!(
            age_conflict.values,
            vec!["24".to_string(), "25".to_string()]
        );
        assert_eq!(age_conflict.cluster, 0);
    }

    #[test]
    fn lineage_tracks_sources_and_conflicts() {
        let spec =
            FusionSpec::by_key(vec!["objectID"]).resolve("Age", ResolutionSpec::named("max"));
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        let age = fused.table.resolve("Age").unwrap();
        let cell = fused.lineage.cell(0, age);
        assert!(cell.had_conflict);
        assert_eq!(cell.sources, vec!["CS".to_string()]); // max came from CS
        assert_eq!(cell.row_indices, vec![1]); // input row 1
        let name = fused.table.resolve("Name").unwrap();
        assert!(!fused.lineage.cell(2, name).had_conflict);
    }

    #[test]
    fn drop_columns_removes_bookkeeping() {
        let spec = FusionSpec::by_key(vec!["objectID"])
            .drop_column("objectID")
            .drop_column("sourceID");
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        assert_eq!(
            fused.table.schema().names(),
            vec!["Name", "Age", "Semester"]
        );
    }

    #[test]
    fn natural_key_fusion_without_object_id() {
        // FUSE BY (Name) directly, as in the paper's §2.1 example.
        let t = table! {
            "S" => ["Name", "Age"];
            ["Alice", 22],
            ["Alice", 23],
            ["Bob", 24],
        };
        let spec = FusionSpec::by_key(vec!["Name"]).resolve("Age", ResolutionSpec::named("max"));
        let fused = fuse(&t, &spec, &registry()).unwrap();
        assert_eq!(fused.table.len(), 2);
        assert_eq!(fused.table.cell(0, 1), &Value::Int(23));
    }

    #[test]
    fn fusion_is_idempotent() {
        // Fusing an already-fused table changes nothing.
        let spec = FusionSpec::by_key(vec!["objectID"]);
        let once = fuse(&students(), &spec, &registry()).unwrap();
        let twice = fuse(&once.table, &spec, &registry()).unwrap();
        assert_eq!(once.table.rows(), twice.table.rows());
        assert_eq!(twice.conflict_count, 0);
    }

    #[test]
    fn missing_key_column_errors() {
        let spec = FusionSpec::by_key(vec!["nope"]);
        assert!(fuse(&students(), &spec, &registry()).is_err());
    }

    #[test]
    fn empty_key_errors() {
        let spec = FusionSpec {
            key_columns: vec![],
            ..FusionSpec::by_key(vec!["x"])
        };
        assert!(fuse(&students(), &spec, &registry()).is_err());
    }

    #[test]
    fn unknown_resolution_function_errors() {
        let spec = FusionSpec::by_key(vec!["objectID"])
            .resolve("Age", ResolutionSpec::named("frobnicate"));
        assert!(matches!(
            fuse(&students(), &spec, &registry()),
            Err(FusionError::UnknownFunction(_))
        ));
    }

    #[test]
    fn empty_table_fuses_to_empty() {
        let t = table! { "E" => ["k", "v"]; };
        let spec = FusionSpec::by_key(vec!["k"]);
        let fused = fuse(&t, &spec, &registry()).unwrap();
        assert!(fused.table.is_empty());
        assert_eq!(fused.conflict_count, 0);
    }

    #[test]
    fn null_keys_cluster_together() {
        let t = table! {
            "T" => ["k", "v"];
            [(), 1],
            [(), 2],
            ["x", 3],
        };
        let spec = FusionSpec::by_key(vec!["k"]);
        let fused = fuse(&t, &spec, &registry()).unwrap();
        assert_eq!(fused.table.len(), 2);
    }

    #[test]
    fn choose_function_with_sources() {
        let spec = FusionSpec::by_key(vec!["objectID"]).resolve(
            "Age",
            ResolutionSpec::with_args("choose", vec!["EE".into()]),
        );
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        let age = fused.table.resolve("Age").unwrap();
        assert_eq!(fused.table.cell(0, age), &Value::Int(24)); // EE said 24
    }
}
