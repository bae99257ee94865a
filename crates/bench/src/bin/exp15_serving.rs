//! E15 — the event-loop serving path under saturation.
//!
//! Four gates on the serving transport:
//!
//! 1. **Identity** — every fused result served over HTTP is bit-identical
//!    to in-process `FusionService::query` over the same tables, for every
//!    demo scenario at intra-query parallelism degrees 1–4 (the serving
//!    transport must not perturb pipeline output).
//! 2. **Tail latency at 16× the connections** — the same mixed
//!    read/update load runs at 1, 8 and 128 connections; p99 at 128 must
//!    stay at or below 16× the p99 measured at 8 in the same run, i.e. no
//!    worse than linear queueing.
//! 3. **Overload sheds, never stalls** — with `max_connections` below the
//!    offered concurrency, the server answers the excess with fast 503s
//!    and keeps serving afterwards.
//! 4. **Group commit** — concurrent writers through the WAL's group-commit
//!    path: fsync delta throughput must be ≥ 85% of no-fsync (one fsync
//!    amortized over a batch), where the sequential baseline managed ~80%
//!    (`BENCH_durability.json`).
//!
//! Writes `BENCH_serving2.json` and exits nonzero if any gate fails.

use hummer_bench::{f3, render_table};
use hummer_delta::TableDelta;
use hummer_engine::{csv, Value};
use hummer_server::loadgen::{
    http_request, run_load, scenario_worlds, update_pool_for_worlds, upload_world, LoadConfig,
    LoadReport,
};
use hummer_server::promlint::sample;
use hummer_server::service::query_result_to_json;
use hummer_server::{
    CatalogStore, FusionService, HummerServer, Json, Parallelism, ServerConfig, ServiceConfig,
    StoreOptions,
};
use hummer_store::scratch;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Connection counts of the mixed load, in run order; the p99 at
/// [`BASELINE_CONNS`] bounds the p99 at [`PEAK_CONNS`].
const LOAD_CONNS: [usize; 3] = [1, BASELINE_CONNS, PEAK_CONNS];
const BASELINE_CONNS: usize = 8;
const PEAK_CONNS: usize = 128;
/// Requests per load run (10 per connection at the peak).
const LOAD_REQUESTS: usize = 1280;
/// Allowed p99 growth from 8 to 128 connections: the connection ratio,
/// i.e. linear queueing.
const QUEUEING_FACTOR: f64 = (PEAK_CONNS / BASELINE_CONNS) as f64;
/// Minimum fsync/no-fsync throughput ratio through group commit.
const GROUP_COMMIT_FLOOR: f64 = 0.85;
/// Writers × records for the group-commit throughput measurement. 16
/// concurrent writers is what 128 connections at a 12.5% write ratio
/// offer; the batch has to be deep enough that one fsync's wall time is
/// filled by the other writers' (serialized) delta applies.
const WRITERS: usize = 16;
const RECORDS_PER_WRITER: usize = 40;
/// Leader linger for the fsync run (the `--group-commit-window-us` knob).
const WINDOW_US: u64 = 200;

const SCENARIO_NAMES: [&str; 4] = [
    "cd_shopping",
    "disaster_registry",
    "student_rosters",
    "cleansing_service",
];

fn service_config(degree: usize) -> ServiceConfig {
    let mut service = ServiceConfig::narrow_schema();
    service.pipeline.parallelism = Parallelism::degree(degree);
    service
}

fn start_server(degree: usize, max_connections: usize) -> (String, impl FnOnce()) {
    let server = HummerServer::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        service: service_config(degree),
        max_connections,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, move || {
        handle.shutdown();
        join.join().expect("server thread");
    })
}

/// The fused `result` object of one query — the identity fingerprint.
fn query_result(addr: &str, sql: &str) -> String {
    let (status, body) =
        http_request(addr, "POST", "/query", "text/plain", sql.as_bytes()).expect("query");
    assert_eq!(status, 200, "{body}");
    Json::parse(&body)
        .expect("query response JSON")
        .get("result")
        .expect("result field")
        .to_string_compact()
}

/// Gate 1: served vs in-process fused output, degrees 1–4.
fn identity_gate() -> (bool, Vec<Json>) {
    let worlds = scenario_worlds(4, 40, 2005);
    let mut reports = Vec::new();
    let mut identical = true;
    for degree in 1..=4 {
        let (addr, stop) = start_server(degree, 1024);
        let reference = FusionService::new(service_config(degree));
        let mut same = true;
        for (i, world) in worlds.iter().enumerate() {
            let prefix = format!("w{i}");
            let sql = upload_world(&addr, &prefix, world).expect("upload world");
            for source in &world.sources {
                let alias = format!("{prefix}_{}", source.table.name());
                reference
                    .put_table(&alias, &csv::write_csv_str(&source.table))
                    .expect("register in-process");
            }
            let local = reference.query(&sql).expect("in-process query");
            let local = query_result_to_json(&local)
                .get("result")
                .expect("result field")
                .to_string_compact();
            same &= query_result(&addr, &sql) == local;
        }
        stop();
        identical &= same;
        reports.push(
            Json::object()
                .with("degree", degree)
                .with("scenarios", SCENARIO_NAMES.len())
                .with("identical", same),
        );
    }
    (identical, reports)
}

/// One timed run of `WRITERS` concurrent delta writers through the full
/// serving path (`FusionService::apply_delta`: catalog update, prepared
/// cache upgrade, then WAL enqueue + group-commit wait); returns
/// (deltas/sec, batches, mean batch size). This mirrors the
/// `BENCH_durability.json` "delta throughput" measurement, now with the
/// WAL wait happening *outside* the catalog lock so concurrent writers
/// share one fsync.
fn group_commit_run(
    world: &hummer_datagen::GeneratedWorld,
    fsync: bool,
    window_us: u64,
) -> (f64, u64, f64) {
    let dir = scratch::dir(&format!("exp15_gc_{fsync}"));
    let options = StoreOptions {
        fsync,
        compact_after_bytes: 0, // isolate logging cost from compaction
        group_commit_window_us: window_us,
    };
    let (store, recovery) = CatalogStore::open(&dir, options).expect("open store");
    let service = Arc::new(FusionService::with_store(
        ServiceConfig::narrow_schema(),
        store,
        recovery,
    ));
    let mut aliases = Vec::new();
    for s in &world.sources {
        let alias = s.table.name().to_string();
        service
            .put_table(&alias, &csv::write_csv_str(&s.table))
            .expect("upload");
        aliases.push(alias);
    }
    // Warm the prepared cache so each delta pays the realistic incremental
    // cache-upgrade cost, as the mixed serving load does.
    let sql = format!(
        "SELECT * FUSE FROM {} FUSE BY (objectID)",
        aliases.join(", ")
    );
    service.query(&sql).expect("warm query");

    // Two alternating single-row updates, as the serving mixed load sends.
    let table = &world.sources[0].table;
    let alias = table.name().to_string();
    let original: Vec<Value> = table.rows()[0].values().to_vec();
    let mut perturbed = original.clone();
    if let Some(v) = perturbed.iter_mut().find(|v| matches!(v, Value::Text(_))) {
        *v = Value::text(format!("{v} upd"));
    }
    let deltas = [
        TableDelta::new(&alias).update(0, perturbed),
        TableDelta::new(&alias).update(0, original),
    ];

    let t0 = Instant::now();
    let handles: Vec<_> = (0..WRITERS)
        .map(|_| {
            let service = Arc::clone(&service);
            let alias = alias.clone();
            let deltas = deltas.clone();
            std::thread::spawn(move || {
                for i in 0..RECORDS_PER_WRITER {
                    service
                        .apply_delta(&alias, &deltas[i % 2])
                        .expect("apply delta");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = service.store_stats().expect("durable service");
    std::fs::remove_dir_all(&dir).ok();
    let records = (WRITERS * RECORDS_PER_WRITER) as f64;
    // Registrations share the WAL, so subtract nothing: batches counts all
    // group commits, which the deltas dominate (RECORDS_PER_WRITER >> sources).
    let batches = stats.group_commits;
    (records / elapsed, batches, records / batches.max(1) as f64)
}

fn main() -> ExitCode {
    println!("E15 — serving: identity, 1/8/128-connection load, overload, group commit\n");

    // ---- Gate 1: served vs in-process output, degrees 1-4. ----
    let (identical, identity_reports) = identity_gate();
    println!(
        "identity (HTTP vs in-process, degrees 1-4): {}",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    // ---- Gate 2: the same mixed load at 1, 8 and 128 connections. ----
    let (addr, stop) = start_server(1, 1024);
    let worlds = scenario_worlds(4, 40, 2005);
    let mut sql_pool = Vec::new();
    for (i, world) in worlds.iter().enumerate() {
        sql_pool.push(upload_world(&addr, &format!("w{i}"), world).expect("upload world"));
    }
    for sql in &sql_pool {
        query_result(&addr, sql); // warm the prepared-pipeline cache
    }
    let prefixed: Vec<(String, &hummer_datagen::GeneratedWorld)> = worlds
        .iter()
        .enumerate()
        .map(|(i, w)| (format!("w{i}"), w))
        .collect();
    let update_pool = update_pool_for_worlds(&prefixed);
    let loads: Vec<LoadReport> = LOAD_CONNS
        .iter()
        .map(|&connections| {
            run_load(&LoadConfig {
                addr: addr.clone(),
                connections,
                requests: LOAD_REQUESTS,
                sql_pool: sql_pool.clone(),
                update_every: 8, // 12.5% writes
                update_pool: update_pool.clone(),
            })
        })
        .collect();
    let (_, metrics) = http_request(&addr, "GET", "/metrics", "text/plain", b"").expect("metrics");
    let serving = [
        "overload_rejects",
        "read_timeouts",
        "idle_reclaims",
        "worker_panics",
    ]
    .into_iter()
    .fold(Json::object(), |doc, key| {
        let name = format!("hummer_{key}_total");
        let value = sample(&metrics, &name, &[]).expect("serving counter");
        doc.with(key, value as u64)
    });
    stop();
    let rows: Vec<Vec<String>> = LOAD_CONNS
        .iter()
        .zip(&loads)
        .map(|(conns, load)| {
            vec![
                conns.to_string(),
                LOAD_REQUESTS.to_string(),
                load.ok.to_string(),
                load.errors.to_string(),
                load.rejects.to_string(),
                format!("{:.1}", load.throughput_rps),
                format!("{:.2}", load.p50_ms),
                format!("{:.2}", load.p99_ms),
                format!("{:.2}", load.p999_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["conns", "requests", "ok", "err", "rejects", "rps", "p50", "p99", "p999"],
            &rows,
        )
    );
    let at = |conns: usize| &loads[LOAD_CONNS.iter().position(|&c| c == conns).unwrap()];
    let (baseline, peak) = (at(BASELINE_CONNS), at(PEAK_CONNS));
    let p99_bound_ms = QUEUEING_FACTOR * baseline.p99_ms;
    println!(
        "p99 at {PEAK_CONNS} connections: {:.2} ms, bound {QUEUEING_FACTOR}x the p99 at \
         {BASELINE_CONNS} = {p99_bound_ms:.2} ms\n",
        peak.p99_ms
    );

    // ---- Gate 3: overload sheds with 503s and the server survives. ----
    let (addr, stop) = start_server(1, 16);
    let worlds_small = scenario_worlds(1, 40, 7);
    let sql = upload_world(&addr, "o0", &worlds_small[0]).expect("upload world");
    query_result(&addr, &sql);
    let overload = run_load(&LoadConfig::read_only(addr.clone(), 64, 512, vec![sql]));
    let (health_status, _) =
        http_request(&addr, "GET", "/healthz", "text/plain", b"").expect("healthz after overload");
    stop();
    println!(
        "overload (64 conns vs cap 16): ok {} rejects {} healthz-after {}",
        overload.ok, overload.rejects, health_status
    );

    // ---- Gate 4: group-commit fsync throughput vs no-fsync. ----
    // A serving-scale world: `delta.apply` rebuilds the table under the
    // catalog lock, so the per-delta compute is realistic and the batched
    // fsync overlaps the other writers' applies.
    let gc_world = scenario_worlds(1, 400, 2005).remove(0);
    let (nofsync_rps, nofsync_batches, nofsync_mean) = group_commit_run(&gc_world, false, 0);
    let (fsync_rps, fsync_batches, fsync_mean) = group_commit_run(&gc_world, true, WINDOW_US);
    let ratio = fsync_rps / nofsync_rps.max(1e-9);
    println!(
        "{}",
        render_table(
            &["mode", "records/s", "batches", "mean batch"],
            &[
                vec![
                    "nofsync".into(),
                    format!("{nofsync_rps:.0}"),
                    nofsync_batches.to_string(),
                    format!("{nofsync_mean:.1}"),
                ],
                vec![
                    format!("fsync+{WINDOW_US}us"),
                    format!("{fsync_rps:.0}"),
                    fsync_batches.to_string(),
                    format!("{fsync_mean:.1}"),
                ],
            ],
        )
    );
    println!(
        "group-commit fsync/no-fsync throughput ratio: {}\n",
        f3(ratio)
    );

    // ---- Report + gates. ----
    let load_errors: usize = loads.iter().map(|l| l.errors).sum();
    let gate_p99 = peak.p99_ms <= p99_bound_ms && load_errors == 0;
    let gate_overload = overload.rejects >= 1 && health_status == 200;
    let gate_ratio = ratio >= GROUP_COMMIT_FLOOR;
    let report = Json::object()
        .with("experiment", "exp15_serving")
        .with(
            "contract",
            "serving: fused output over HTTP identical to in-process FusionService::query at \
             degrees 1-4; p99 at 128 connections <= 16x the same run's p99 at 8; overload \
             answers 503 and keeps serving; group-commit fsync throughput >= 85% of no-fsync",
        )
        .with("identity", Json::Arr(identity_reports))
        .with(
            "load",
            Json::object()
                .with("requests", LOAD_REQUESTS)
                .with("update_every", 8usize)
                .with(
                    "runs",
                    Json::Arr(
                        LOAD_CONNS
                            .iter()
                            .zip(&loads)
                            .map(|(&conns, load)| {
                                Json::object()
                                    .with("connections", conns)
                                    .with("ok", load.ok)
                                    .with("errors", load.errors)
                                    .with("rejects", load.rejects)
                                    .with("updates_ok", load.updates_ok)
                                    .with("throughput_rps", load.throughput_rps)
                                    .with("p50_ms", load.p50_ms)
                                    .with("p99_ms", load.p99_ms)
                                    .with("p999_ms", load.p999_ms)
                            })
                            .collect(),
                    ),
                )
                .with("baseline_p99_at_8_conns_ms", baseline.p99_ms)
                .with("queueing_factor", QUEUEING_FACTOR)
                .with("p99_bound_at_128_conns_ms", p99_bound_ms)
                .with("serving_counters", serving),
        )
        .with(
            "overload",
            Json::object()
                .with("max_connections", 16usize)
                .with("connections", 64usize)
                .with("requests", 512usize)
                .with("ok", overload.ok)
                .with("rejects", overload.rejects)
                .with("healthz_after", health_status as usize),
        )
        .with(
            "group_commit",
            Json::object()
                .with("writers", WRITERS)
                .with("records_per_writer", RECORDS_PER_WRITER)
                .with("window_us", WINDOW_US)
                .with("nofsync_records_per_sec", nofsync_rps)
                .with("fsync_records_per_sec", fsync_rps)
                .with("fsync_batches", fsync_batches as usize)
                .with("fsync_mean_batch", fsync_mean)
                .with("ratio", ratio),
        )
        .with(
            "gates",
            Json::object()
                .with("identity_degrees_1_4", identical)
                .with("p99_at_128_conns_le_baseline", gate_p99)
                .with("overload_sheds_and_survives", gate_overload)
                .with("group_commit_ratio_ge_085", gate_ratio),
        );
    let path = "BENCH_serving2.json";
    std::fs::write(path, report.to_string_pretty()).expect("write BENCH_serving2.json");
    println!("wrote {path}");

    let mut failed = false;
    if !identical {
        eprintln!("FAIL: served and in-process fused outputs diverged");
        failed = true;
    }
    if !gate_p99 {
        eprintln!(
            "FAIL: p99 {:.2} ms at {PEAK_CONNS} connections exceeds {p99_bound_ms:.2} ms \
             ({QUEUEING_FACTOR}x the p99 at {BASELINE_CONNS}), or load errors: {load_errors}",
            peak.p99_ms
        );
        failed = true;
    }
    if !gate_overload {
        eprintln!(
            "FAIL: overload did not shed cleanly (rejects {}, healthz {health_status})",
            overload.rejects
        );
        failed = true;
    }
    if !gate_ratio {
        eprintln!(
            "FAIL: group-commit fsync throughput is {}x of no-fsync, below {GROUP_COMMIT_FLOOR}",
            f3(ratio)
        );
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("PASS: all four serving gates hold");
    ExitCode::SUCCESS
}
