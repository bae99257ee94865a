//! E11 — incremental fusion under source deltas: delta-apply vs.
//! from-scratch latency across delta kinds and sizes, with the hard
//! byte-identity gate.
//!
//! For each scenario world and each delta (update / insert / delete ×
//! size), the experiment:
//!
//! 1. prepares the original sources once (the artifacts a server would
//!    cache),
//! 2. applies the delta incrementally (`PreparedSources::apply_delta`) at
//!    parallelism degrees 1–4,
//! 3. re-prepares the updated sources from scratch,
//! 4. **asserts** that every incremental result — prepared artifacts *and*
//!    the `FusedView`-maintained fused table — is byte-identical to the
//!    from-scratch run, at every degree. A mismatch aborts with a non-zero
//!    exit code.
//!
//! `BENCH_incremental.json` records the latency curves: delta-apply time
//! should scale with the *delta* size, not the corpus size, except where a
//! corpus-statistics quantization boundary forces a (reported) full
//! rescore — inserts and deletes shift those counters, updates never do.

use hummer_bench::render_table;
use hummer_core::{
    prepare_tables, DeltaReport, HummerConfig, MatcherConfig, Parallelism, PreparedSources,
    SniffConfig,
};
use hummer_datagen::scenarios::{cd_shopping, student_rosters};
use hummer_datagen::GeneratedWorld;
use hummer_delta::{concat_mappings, FusedView, RowMapping, TableDelta};
use hummer_engine::{Table, Value};
use hummer_fusion::{fuse, FunctionRegistry};
use hummer_server::Json;
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 2005;
const DELTA_SIZES: [usize; 4] = [1, 4, 16, 64];
const DEGREES: [usize; 4] = [1, 2, 3, 4];

fn config(par: Parallelism) -> HummerConfig {
    HummerConfig {
        matcher: MatcherConfig {
            sniff: SniffConfig {
                top_k: 10,
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        },
        parallelism: par,
        ..Default::default()
    }
}

/// A bit-exact rendering of the prepared artifacts under the delta
/// contract: everything except the (run-scoped) work counters.
fn fingerprint(p: &PreparedSources) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        p.annotated.rows(),
        p.annotated.schema().names(),
        p.detection.pairs,
        p.detection.unsure,
        p.detection.cluster_ids,
        p.detection.attributes_used,
        p.match_results
            .iter()
            .map(|m| &m.correspondences)
            .collect::<Vec<_>>(),
    )
}

/// Build a delta of `kind` touching `size` rows of source 0.
fn build_delta(world: &GeneratedWorld, kind: &str, size: usize) -> TableDelta {
    let table = &world.sources[0].table;
    let n = table.len();
    let size = size.min(n / 2);
    let mut delta = TableDelta::new(table.name());
    match kind {
        "update" => {
            for r in 0..size {
                let mut values: Vec<Value> = table.rows()[r].values().to_vec();
                if let Some(v) = values.iter_mut().find(|v| matches!(v, Value::Text(_))) {
                    *v = Value::text(format!("{v} upd"));
                }
                delta = delta.update(r, values);
            }
        }
        "insert" => {
            for r in 0..size {
                let mut values: Vec<Value> = table.rows()[n - 1 - r].values().to_vec();
                if let Some(v) = values.iter_mut().find(|v| matches!(v, Value::Text(_))) {
                    *v = Value::text(format!("{v} new{r}"));
                }
                delta = delta.insert(values);
            }
        }
        "delete" => {
            for r in 0..size {
                delta = delta.delete(r);
            }
        }
        other => panic!("unknown delta kind {other}"),
    }
    delta
}

/// Apply `delta` to the world's sources; returns the updated tables and
/// the union-level row mapping.
fn updated_tables(world: &GeneratedWorld, delta: &TableDelta) -> (Vec<Table>, RowMapping) {
    let mut tables = Vec::new();
    let mut maps: Vec<RowMapping> = Vec::new();
    for (i, s) in world.sources.iter().enumerate() {
        if i == 0 {
            let (t, m) = delta.apply(&s.table).expect("delta applies");
            tables.push(t);
            maps.push(m);
        } else {
            tables.push(s.table.clone());
            maps.push(RowMapping::identity(s.table.len()));
        }
    }
    let mapping = concat_mappings(&maps).expect("mappings concatenate");
    (tables, mapping)
}

struct Measurement {
    kind: String,
    delta_rows: usize,
    delta_ms: f64,
    scratch_ms: f64,
    dirty_rows: usize,
    rescored_pairs: usize,
    carried_pairs: usize,
    full_rescore: bool,
    fused_reused: usize,
    fused_recomputed: usize,
}

/// Run one (world, kind, size) cell; `None` means a byte-identity failure.
#[allow(clippy::too_many_lines)]
fn run_cell(
    world: &GeneratedWorld,
    prepared: &PreparedSources,
    view_template: &FusedView,
    kind: &str,
    size: usize,
) -> Option<Measurement> {
    let registry = FunctionRegistry::standard();
    let delta = build_delta(world, kind, size);
    let delta_rows = delta.counts().total();
    let (tables, mapping) = updated_tables(world, &delta);
    let refs: Vec<&Table> = tables.iter().collect();

    // From-scratch reference over the updated sources.
    let t0 = Instant::now();
    let scratch = prepare_tables(&refs, &config(Parallelism::sequential())).expect("scratch");
    let scratch_ms = t0.elapsed().as_secs_f64() * 1e3;
    let scratch_fp = fingerprint(&scratch);
    let scratch_fused = fuse(
        &scratch.annotated,
        &hummer_fusion::FusionSpec::by_object_id(&[], Parallelism::sequential()),
        &registry,
    )
    .expect("scratch fuse");

    // Incremental at every degree; all must match the reference.
    let mut delta_ms = f64::INFINITY;
    let mut report: Option<DeltaReport> = None;
    let mut fused_stats = None;
    for &degree in &DEGREES {
        let cfg = config(Parallelism::degree(degree));
        let t0 = Instant::now();
        let (upgraded, rep) = prepared
            .apply_delta(&refs, &mapping, &cfg)
            .expect("apply_delta");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if fingerprint(&upgraded) != scratch_fp {
            eprintln!(
                "FAIL: {} {kind} x{size} at degree {degree}: incremental != from-scratch",
                world.sources[0].table.name()
            );
            return None;
        }
        // Incrementally maintained fused view, same identity bar.
        let mut view = view_template.clone();
        let stats = view
            .apply_delta(
                &upgraded.annotated,
                &upgraded.detection,
                &mapping,
                &registry,
            )
            .expect("view delta");
        if view.table().rows() != scratch_fused.table.rows()
            || view.fused().conflict_count != scratch_fused.conflict_count
            || view.fused().sample_conflicts != scratch_fused.sample_conflicts
        {
            eprintln!(
                "FAIL: {} {kind} x{size} at degree {degree}: fused view != from-scratch fuse",
                world.sources[0].table.name()
            );
            return None;
        }
        if degree == 1 {
            delta_ms = ms;
            report = Some(rep);
            fused_stats = Some(stats);
        }
    }
    let report = report.expect("degree 1 ran");
    let fused_stats = fused_stats.expect("degree 1 ran");
    Some(Measurement {
        kind: kind.to_string(),
        delta_rows,
        delta_ms,
        scratch_ms,
        dirty_rows: report.detection.dirty_rows,
        rescored_pairs: report.detection.scored_pairs,
        carried_pairs: report.detection.carried_pairs,
        full_rescore: report.detection.full_rescore,
        fused_reused: fused_stats.fusion.reused,
        fused_recomputed: fused_stats.fusion.recomputed,
    })
}

fn main() -> ExitCode {
    println!("E11 — incremental fusion under source deltas\n");
    let worlds: Vec<(&str, GeneratedWorld)> = vec![
        ("student_rosters_small", student_rosters(150, SEED)),
        // Large enough that the quadratic stage (pair scoring) dominates a
        // cold prepare — the stage the delta path makes delta-sized.
        ("cd_shopping_medium", cd_shopping(600, SEED)),
    ];
    let registry = FunctionRegistry::standard();

    let mut world_reports = Vec::new();
    let mut table_rows = Vec::new();
    for (name, world) in &worlds {
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let t0 = Instant::now();
        let prepared = prepare_tables(&tables, &config(Parallelism::sequential())).expect("prep");
        let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;
        let view = FusedView::new(
            &prepared.annotated,
            &prepared.detection,
            &[],
            &registry,
            Parallelism::sequential(),
        )
        .expect("view");
        println!(
            "{name}: {} union rows, cold prepare {prepare_ms:.0} ms",
            prepared.integrated.len()
        );

        let mut kind_reports = Vec::new();
        for kind in ["update", "insert", "delete"] {
            let mut size_reports = Vec::new();
            for &size in &DELTA_SIZES {
                let Some(m) = run_cell(world, &prepared, &view, kind, size) else {
                    return ExitCode::FAILURE;
                };
                table_rows.push(vec![
                    name.to_string(),
                    m.kind.clone(),
                    m.delta_rows.to_string(),
                    format!("{:.1}", m.delta_ms),
                    format!("{:.1}", m.scratch_ms),
                    format!("{:.1}x", m.scratch_ms / m.delta_ms.max(1e-9)),
                    m.dirty_rows.to_string(),
                    if m.full_rescore { "yes" } else { "no" }.to_string(),
                ]);
                size_reports.push(
                    Json::object()
                        .with("delta_rows", m.delta_rows)
                        .with("delta_apply_ms", m.delta_ms)
                        .with("from_scratch_ms", m.scratch_ms)
                        .with("speedup", m.scratch_ms / m.delta_ms.max(1e-9))
                        .with("dirty_rows", m.dirty_rows)
                        .with("rescored_pairs", m.rescored_pairs)
                        .with("carried_pairs", m.carried_pairs)
                        .with("full_rescore", m.full_rescore)
                        .with("fused_clusters_reused", m.fused_reused)
                        .with("fused_clusters_recomputed", m.fused_recomputed),
                );
            }
            kind_reports.push(
                Json::object()
                    .with("kind", kind)
                    .with("sizes", Json::Arr(size_reports)),
            );
        }
        world_reports.push(
            Json::object()
                .with("scenario", *name)
                .with("union_rows", prepared.integrated.len())
                .with("cold_prepare_ms", prepare_ms)
                .with("identical_to_from_scratch", true)
                .with(
                    "degrees_checked",
                    Json::Arr(DEGREES.iter().map(|&d| Json::Int(d as i64)).collect()),
                )
                .with("kinds", Json::Arr(kind_reports)),
        );
    }

    println!(
        "\n{}",
        render_table(
            &[
                "world",
                "kind",
                "rows",
                "delta ms",
                "scratch ms",
                "speedup",
                "dirty",
                "full"
            ],
            &table_rows
        )
    );
    println!("incremental output byte-identical to from-scratch on every world, kind, size, and degree\n");

    let report = Json::object()
        .with("experiment", "exp11_incremental")
        .with(
            "contract",
            "apply_delta == prepare_tables(from scratch) byte-identically (pairs, unsure, \
             clusters, annotated union, fused view) at degrees 1-4; stats are run-scoped",
        )
        .with("worlds", Json::Arr(world_reports));
    let path = "BENCH_incremental.json";
    std::fs::write(path, report.to_string_pretty()).expect("write BENCH_incremental.json");
    println!("wrote {path}");
    println!("PASS: byte-identity held on every world, kind, size, and degree");
    ExitCode::SUCCESS
}
