//! `delta_mixed`: writes beside reads on one durable server. A reader
//! issues the fused query back to back while a writer cycles 1-row
//! update, insert and delete deltas on source A with a fixed think time
//! (see [`Writer::next_body`] for why the cycle restores A's rows).
//! Each delta re-runs DUMAS matching, re-detects incrementally, appends to
//! the WAL (fsync on, default group-commit window) and upgrades the cache
//! entry; each read fuses and serializes the ≈1.4k-row union. A change
//! that speeds one side by slowing the other shows here.

use crate::common::{
    answer_result, ctx, expected_result, fuse_sql, ms_since, parse_sources, quality, quality_seeds,
    report_quality, table_fingerprint, upload, world_csv, BenchResult, LiveServer, ScratchDir,
    SplitMix,
};
use crate::reads::{Probe, Reads};
use crate::trace::{self_ms_by_name, Recorder};
use crate::{Outcome, Run};
use hummer_core::dupdetect::{annotate_object_ids, detect_delta, RowMapping};
use hummer_core::engine::{Table, Value};
use hummer_core::matching::{integrate_with_layout, match_star_par, sniff_duplicates_par};
use hummer_core::{prepare_tables, FunctionRegistry, HummerConfig, PreparedSources, StageTimings};
use hummer_datagen::scenarios::person_scale;
use hummer_delta::concat_mappings;
use hummer_server::loadgen::Client;
use hummer_server::service::{parse_delta, value_to_json};
use hummer_server::{FusionService, Json, StoreOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `person_scale` entities: a ≈1.4k-row union.
const ENTITIES: usize = 1000;
/// Writer think time between a delta's answer and the next delta.
const THINK: Duration = Duration::from_millis(100);
/// Server worker threads. One: with two, the event loop hands each
/// connection to whichever worker accepts it first, so reader and writer
/// share a worker on some runs and not on others, and a read that misses
/// the cache during a delta's upgrade can evict the upgraded entry (see
/// `README.md`), which flips the read median between ~10 ms and ~450 ms
/// from run to run.
const THREADS: usize = 1;
/// Request ids of the writer start here (the reader's start at 1).
const WRITER_IDS: u64 = 1 << 32;
/// Ids of the layer-by-layer from-scratch prepares after a traced run.
const COLD_IDS: u64 = 1 << 48;
/// Layer-by-layer from-scratch prepares after a traced run.
const COLD_REPEATS: u64 = 3;
/// Worlds the quality metrics average over (see [`quality_seeds`]).
const QUALITY_WORLDS: usize = 16;

struct Setup {
    // Field order is drop order: the server stops before its data dir goes.
    server: LiveServer,
    _dir: ScratchDir,
}

/// Generate the world, start a durable server in a fresh data dir,
/// upload both sources and run the first (cold) query. The generated
/// inputs are dropped before returning, so only the server's state stays
/// live.
fn set_up(run: &Run, k: usize) -> BenchResult<Setup> {
    let dir = ScratchDir::new(&run.work, &format!("delta-store-{k}"))?;
    let mut config = crate::warm::server_config(THREADS);
    config.data_dir = Some(dir.0.clone());
    config.store = StoreOptions::default();
    let server = LiveServer::start(config)?;
    let mut client = server.client()?;
    upload(
        &mut client,
        &world_csv(&person_scale(ENTITIES, run.seed), ""),
    )?;
    let sql = fuse_sql(&["A", "B"]);
    let (status, body) = ctx(
        client.request("POST", "/query", "text/plain", sql.as_bytes()),
        "first query",
    )?;
    if status != 200 {
        return Err(format!("first query: HTTP {status}: {body}"));
    }
    Ok(Setup { server, _dir: dir })
}

/// The writer's view of source A and its seeded choice of the next delta.
struct Writer {
    table: Table,
    rng: SplitMix,
    issued: u64,
    /// The row this cycle alters and its original values.
    target: (usize, Vec<Value>),
}

impl Writer {
    fn new(table: Table, seed: u64) -> Writer {
        Writer {
            table,
            rng: SplitMix::new(seed),
            issued: 0,
            target: (0, Vec::new()),
        }
    }

    /// The JSON body of the next delta. A cycle alters a random row
    /// (update), re-inserts that row's original values at the end
    /// (insert), and deletes the altered row (delete), so after every
    /// cycle A holds its original rows again, only reordered: the corpus
    /// statistics the incremental detector depends on do not drift over a
    /// run.
    fn next_body(&mut self) -> String {
        let doc = match self.issued % 3 {
            0 => {
                let row = self.rng.below(self.table.len());
                let original = self.table.rows()[row].values().to_vec();
                let mut altered: Vec<Json> = original.iter().map(value_to_json).collect();
                if let Some(Json::Str(s)) = altered.iter_mut().find(|v| matches!(v, Json::Str(_))) {
                    s.push('x');
                }
                self.target = (row, original);
                Json::object().with(
                    "update",
                    Json::Arr(vec![Json::object()
                        .with("row", row)
                        .with("values", Json::Arr(altered))]),
                )
            }
            1 => {
                let original = self.target.1.iter().map(value_to_json).collect();
                Json::object().with("insert", Json::Arr(vec![Json::Arr(original)]))
            }
            _ => Json::object().with("delete", Json::Arr(vec![Json::from(self.target.0)])),
        };
        self.issued += 1;
        doc.to_string_compact()
    }

    /// Replay an acknowledged delta on the writer's copy of A.
    fn commit(&mut self, body: &str) -> BenchResult<()> {
        let delta = ctx(parse_delta("A", body), "parse delta")?;
        self.table = ctx(delta.apply(&self.table), "apply delta")?.0;
        Ok(())
    }
}

/// What the writer saw.
#[derive(Default)]
struct Writes {
    /// HTTP latency (ms) of each acknowledged untraced delta.
    latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Cache entries upgraded, per acknowledged delta.
    upgrades: Vec<f64>,
    /// Request bytes of acknowledged deltas.
    user_bytes: u64,
    dirty_ratio: Vec<f64>,
    full_rescores: Vec<f64>,
}

/// Sleep out the think time that started at `since`, but not past `until`.
fn think(since: Instant, until: Instant) {
    let wake = (since + THINK).min(until);
    if let Some(d) = wake.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// Closed-loop deltas over HTTP until `until`.
fn write_window(client: &mut Client, w: &mut Writer, until: Instant, out: &mut Writes) {
    while Instant::now() < until {
        let body = w.next_body();
        let t0 = Instant::now();
        let result = client.request(
            "POST",
            "/tables/A/delta",
            "application/json",
            body.as_bytes(),
        );
        let ms = ms_since(t0);
        out.attempted += 1;
        match (upgraded(result), w.commit(&body)) {
            (Some(n), Ok(_)) => {
                out.latencies.push(ms);
                out.upgrades.push(n);
                out.user_bytes += body.len() as u64;
            }
            _ => out.failed += 1,
        }
        think(Instant::now(), until);
    }
}

/// The benchmark's replica of the server's prepared sources, upgraded
/// delta by delta with each crate's public functions.
struct Replica {
    prepared: PreparedSources,
    b: Table,
}

/// The HTTP `upgraded` count of a delta answer, `None` unless HTTP 200.
fn upgraded(result: hummer_server::Result<(u16, String)>) -> Option<f64> {
    match result {
        Ok((200, answer)) => Json::parse(&answer).ok().and_then(|d| {
            d.get("cache")
                .and_then(|c| c.get("upgraded"))
                .and_then(Json::as_f64)
        }),
        _ => None,
    }
}

/// [`write_window`] with a `server.delta_request` span around each HTTP
/// delta, followed in its think time by the same delta timed in-process:
/// `FusionService::apply_delta` on a shadow service (its own store and
/// warm cache, touched by this thread only), then the replica upgraded
/// layer by layer, all under the delta's request id. The live server only
/// ever sees HTTP, so its requests stay serialized on its worker.
#[allow(clippy::too_many_arguments)]
fn traced_write_window(
    client: &mut Client,
    w: &mut Writer,
    replica: &mut Replica,
    shadow: &FusionService,
    config: &HummerConfig,
    until: Instant,
    out: &mut Writes,
    tree: &mut Recorder,
    probes: &mut Recorder,
) -> BenchResult<()> {
    let par = config.parallelism;
    let mut id = WRITER_IDS;
    while Instant::now() < until {
        id += 1;
        let body = w.next_body();
        let delta = ctx(parse_delta("A", &body), "parse delta")?;
        let root = tree.start("server.delta_request", id, None);
        let result = client.request(
            "POST",
            "/tables/A/delta",
            "application/json",
            body.as_bytes(),
        );
        tree.end(root);
        let answered = Instant::now();
        out.attempted += 1;
        let Some(n) = upgraded(result) else {
            out.failed += 1;
            think(answered, until);
            continue;
        };
        out.upgrades.push(n);
        out.user_bytes += body.len() as u64;
        let shadowed = tree.time("server.service_delta", id, None, || {
            shadow.apply_delta("A", &delta)
        });
        if shadowed.is_err() {
            out.failed += 1;
        }

        let root = tree.start("core.delta_upgrade", id, None);
        let (a, mapping_a) = ctx(
            tree.time("delta.apply", id, Some(root), || delta.apply(&w.table)),
            "replica apply",
        )?;
        let tables = [&a, &replica.b];
        let match_results = tree.time("matching.match_star", id, Some(root), || {
            match_star_par(&tables, &config.matcher, par)
        });
        let integrated = ctx(
            tree.time("matching.transform", id, Some(root), || {
                integrate_with_layout(&tables, &match_results, "Integrated", config.layout)
            }),
            "replica transform",
        )?;
        let mapping = ctx(
            concat_mappings(&[mapping_a, RowMapping::identity(replica.b.len())]),
            "mapping",
        )?;
        let (detection, stats) = ctx(
            tree.time("dupdetect.delta_detect", id, Some(root), || {
                detect_delta(
                    &replica.prepared.integrated,
                    &replica.prepared.detection,
                    &integrated,
                    &mapping,
                    &config.detector_config(),
                    par,
                )
            }),
            "replica detect",
        )?;
        let annotated = ctx(
            tree.time("dupdetect.annotate", id, Some(root), || {
                annotate_object_ids(&integrated, &detection)
            }),
            "replica annotate",
        )?;
        tree.end(root);
        // The sniff `match_star_par` ran inside, timed again on its own
        // outside the root so the root's self time stays unmeasured work.
        probes.time("matching.sniff", id, None, || {
            black_box(sniff_duplicates_par(
                &a,
                &replica.b,
                &config.matcher.sniff,
                par,
            ))
        });
        out.dirty_ratio
            .push(stats.dirty_rows as f64 / stats.new_rows.max(1) as f64);
        out.full_rescores
            .push(f64::from(u8::from(stats.full_rescore)));
        replica.prepared = PreparedSources {
            match_results,
            integrated,
            detection,
            annotated,
            timings: StageTimings::default(),
        };
        w.table = a;
        think(answered, until);
    }
    Ok(())
}

/// A service outside the server, loaded with `tables` (as CSV) and warmed
/// with `sql`; durable in `dir` when given.
fn shadow_service(
    config: &HummerConfig,
    tables: &[&Table],
    sql: &str,
    dir: Option<&std::path::Path>,
) -> BenchResult<FusionService> {
    let service_config = hummer_server::ServiceConfig {
        pipeline: config.clone(),
        ..Default::default()
    };
    let service = match dir {
        Some(dir) => {
            let (store, recovery) = ctx(
                hummer_server::CatalogStore::open(dir, StoreOptions::default()),
                "open shadow store",
            )?;
            FusionService::with_store(service_config, store, recovery)
        }
        None => FusionService::new(service_config),
    };
    for t in tables {
        ctx(
            service.put_table(t.name(), &hummer_core::engine::csv::write_csv_str(t)),
            "shadow upload",
        )?;
    }
    ctx(service.query(sql), "shadow warm query")?;
    Ok(service)
}

/// Everything of a prepare that an incremental upgrade must reproduce
/// (detection work counters excepted, which report the upgrade's own work).
fn prepared_fingerprint(p: &PreparedSources) -> String {
    let d = &p.detection;
    format!(
        "{:?}\n{}\n{}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        p.match_results,
        table_fingerprint(&p.integrated),
        table_fingerprint(&p.annotated),
        d.pairs,
        d.unsure,
        d.cluster_ids,
        d.clusters,
        d.attributes_used
    )
}

/// Run the workload.
pub fn run(run: &Run) -> BenchResult<Outcome> {
    let mut out = Outcome::new(run);
    let setup = run.set_up(
        &mut out.report,
        |k| set_up(run, k),
        |previous: Setup| previous.server.stop(),
    )?;

    let config = crate::warm::server_config(THREADS).service.pipeline;
    let registry = FunctionRegistry::standard();
    let (mut tables, csv_ms) = parse_sources(&world_csv(&person_scale(ENTITIES, run.seed), ""))?;
    out.report.set("engine.csv_parse_ms", csv_ms, 1);
    let b = tables.pop().expect("source B");
    let a = tables.pop().expect("source A");
    let mut scores = Vec::new();
    for seed in quality_seeds(run.seed, QUALITY_WORLDS) {
        let world = person_scale(ENTITIES, seed);
        let (tables, _) = parse_sources(&world_csv(&world, ""))?;
        let prepared = ctx(
            prepare_tables(&[&tables[0], &tables[1]], &config),
            "prepare",
        )?;
        scores.push(quality(&world, &prepared));
    }
    report_quality(&mut out.report, &scores);

    let service = &setup.server.service;
    let store_before = service.store_stats().ok_or("no store attached")?;
    let cache_before = service.cache_stats();
    let sqls = vec![fuse_sql(&["A", "B"])];
    let window = run.window();
    let mut writer = Writer::new(a, run.seed);
    let mut reads = Reads::default();
    let mut writes = Writes::default();

    // Untraced window: reader and writer over HTTP.
    let until = Instant::now() + window;
    let mut reader_client = setup.server.client()?;
    let mut writer_client = setup.server.client()?;
    std::thread::scope(|s| {
        s.spawn(|| reads.window(&mut reader_client, &sqls, until, false));
        write_window(&mut writer_client, &mut writer, until, &mut writes);
    });
    let http_deltas = writes.latencies.clone();

    // Traced window: both still talk HTTP to the server. The reader probes
    // each request in-process on a shadow service; in its think time the
    // writer applies each delta to another shadow service and upgrades
    // the replica layer by layer.
    let mut replica_checked = None;
    if run.traced {
        let prepared = ctx(
            prepare_tables(&[&writer.table, &b], &config),
            "replica prepare",
        )?;
        let mut replica = Replica {
            prepared,
            b: b.clone(),
        };
        let snapshot = replica.prepared.annotated.clone();
        let current = [&writer.table, &b];
        let shadow_dir = ScratchDir::new(&run.work, "delta-shadow")?;
        let writer_shadow = shadow_service(&config, &current, &sqls[0], Some(&shadow_dir.0))?;
        let reader_shadow = shadow_service(&config, &current, &sqls[0], None)?;
        let probe = Probe {
            service: &reader_shadow,
            annotated: vec![&snapshot],
            registry: &registry,
            par: config.parallelism,
        };
        let until = Instant::now() + window;
        let mut reader_tree = Recorder::new(run.origin);
        let mut reader_probes = Recorder::new(run.origin);
        let writer_result = std::thread::scope(|s| {
            s.spawn(|| {
                let mut next_id = 0;
                reads.traced_window(
                    &mut reader_client,
                    &sqls,
                    until,
                    false,
                    &probe,
                    &mut next_id,
                    &mut reader_tree,
                    &mut reader_probes,
                )
            });
            traced_write_window(
                &mut writer_client,
                &mut writer,
                &mut replica,
                &writer_shadow,
                &config,
                until,
                &mut writes,
                &mut out.tree,
                &mut out.probes,
            )
        });
        writer_result?;
        reads.report_layers(&mut out.report, &reader_tree, &reader_probes);
        out.tree.absorb(reader_tree);
        out.probes.absorb(reader_probes);
        replica_checked = Some(prepared_fingerprint(&replica.prepared));
    }
    drop(reader_client);
    drop(writer_client);

    out.report.attempted += reads.attempted + writes.attempted;
    out.report.failed += reads.failed + writes.failed;
    out.report.set_median("latency_ms_p50", &reads.latencies);
    out.report
        .note("latency_ms.samples", reads.latencies.len().into());
    out.report
        .note("deltas", (writes.attempted as usize).into());
    if let Some(p50) = crate::stats::median(&http_deltas) {
        out.report.note("delta_ms_p50", Json::Float(p50));
    }
    out.report
        .set_median("server.delta_request_ms_p50", &http_deltas);
    out.report
        .set_tail("server.delta_request_ms_tail", &http_deltas);

    if run.traced {
        let by_tree = self_ms_by_name(out.tree.spans());
        out.report
            .set_matching(&by_tree, &self_ms_by_name(out.probes.spans()));
        out.report.set_spans(
            &by_tree,
            &[
                ("dupdetect.delta_detect_ms", "dupdetect.delta_detect", 1.0),
                ("dupdetect.annotate_ms", "dupdetect.annotate", 1.0),
                ("server.service_delta_ms", "server.service_delta", 1.0),
                ("delta.apply_us", "delta.apply", 1e3),
            ],
        );
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        out.report.set(
            "dupdetect.dirty_row_ratio",
            mean(&writes.dirty_ratio),
            writes.dirty_ratio.len(),
        );
        out.report.set(
            "dupdetect.full_rescore_ratio",
            mean(&writes.full_rescores),
            writes.full_rescores.len(),
        );
        out.report.set(
            "server.cache_upgrades_per_delta",
            mean(&writes.upgrades),
            writes.upgrades.len(),
        );
        let cache = service.cache_stats();
        let (hits, misses) = (
            cache.hits - cache_before.hits,
            cache.misses - cache_before.misses,
        );
        out.report.set(
            "server.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
        );
        let store = service.store_stats().ok_or("no store attached")?;
        let deltas = writes.upgrades.len().max(1) as f64;
        let commits = (store.group_commits - store_before.group_commits).max(1) as f64;
        out.report.set(
            "store.fsyncs_per_delta",
            (store.fsyncs - store_before.fsyncs) as f64 / deltas,
            writes.upgrades.len(),
        );
        out.report.set(
            "store.group_commit_batch_mean",
            (store.wal_records - store_before.wal_records) as f64 / commits,
            commits as usize,
        );
        out.report.set(
            "store.wal_bytes_per_user_byte",
            store.wal_bytes.saturating_sub(store_before.wal_bytes) as f64
                / writes.user_bytes.max(1) as f64,
            writes.upgrades.len(),
        );
    }

    // After the run: the server's fused answer equals a from-scratch
    // prepare + fuse over the final tables (A replayed delta by delta).
    let scratch = ctx(
        prepare_tables(&[&writer.table, &b], &config),
        "final prepare",
    )?;
    let sql = &sqls[0];
    let expected = expected_result(sql, &scratch.annotated, &registry, config.parallelism)?;
    let mut client = setup.server.client()?;
    let served = match client.request("POST", "/query", "text/plain", sql.as_bytes()) {
        Ok((200, body)) => answer_result(&body),
        _ => None,
    };
    drop(client);
    out.report.check(
        "served answer equals a from-scratch prepare + fuse over the replayed tables",
        served.as_deref() == Some(expected.as_str()),
        format!("{} deltas replayed", writes.attempted),
    );
    if let Some(upgraded) = replica_checked {
        out.report.check(
            "layer-by-layer incremental upgrade equals a from-scratch prepare",
            upgraded == prepared_fingerprint(&scratch),
            "replica after every traced delta",
        );
    }
    if run.traced {
        // The same from-scratch prepare + fuse, composed layer by layer:
        // the full-detection steps a cold miss on these sources runs.
        let reference = crate::cold::prepare_and_fuse(&[&writer.table, &b], &config, &registry)?;
        let reference = crate::cold::fingerprint(&reference.0, &reference.1);
        let mut tree = Recorder::new(run.origin);
        let mut probes = Recorder::new(run.origin);
        let mut identical = 0;
        let mut counts = None;
        for id in COLD_IDS..COLD_IDS + COLD_REPEATS {
            let (p, o, c) = crate::cold::layered(
                &[&writer.table, &b],
                &config,
                &registry,
                id,
                &mut tree,
                &mut probes,
            )?;
            identical += u64::from(crate::cold::fingerprint(&p, &o) == reference);
            counts = Some(c);
        }
        out.report.failed += COLD_REPEATS - identical;
        out.report.check(
            "layered from-scratch composition is byte-identical to prepare_tables + fuse_prepared",
            identical == COLD_REPEATS,
            format!("{identical} of {COLD_REPEATS} iterations identical"),
        );
        let by_tree = self_ms_by_name(tree.spans());
        crate::cold::report_detection(&mut out.report, &by_tree, counts.as_ref());
        out.probes.absorb(tree);
        out.probes.absorb(probes);
    }
    let Setup { server, .. } = setup;
    server.stop()?;
    Ok(out)
}
