//! `warm_query`: the cleansing service answering repeat FUSE queries from
//! its prepared cache. Every answer is a cache hit, so matching and
//! detection do no work; transport, query execution and serialization
//! dominate. One keep-alive connection, because the event loop hands a
//! connection to whichever worker accepts it first and two connections
//! make throughput flip between runs.

use crate::common::{
    answer_result, answer_without_timings, ctx, expected_result, fuse_sql, parse_sources, quality,
    quality_seeds, report_quality, upload, world_csv, BenchResult, LiveServer, Quality,
};
use crate::reads::{Probe, Reads};
use crate::{Outcome, Run};
use hummer_core::engine::Table;
use hummer_core::{prepare_tables, FunctionRegistry, HummerConfig, Parallelism, PreparedSources};
use hummer_datagen::GeneratedWorld;
use hummer_server::loadgen::scenario_worlds;
use hummer_server::service::query_result_to_json;
use hummer_server::{ServerConfig, ServiceConfig};
use std::time::Instant;

/// Scenario worlds in the mix (loadgen's standard four).
const WORLDS: usize = 4;
/// Entities per world.
const ENTITIES: usize = 60;
/// Server worker threads.
const THREADS: usize = 2;
/// World mixes the quality metrics average over (see
/// [`quality_seeds`]); a 60-entity world prepares in milliseconds.
const QUALITY_MIXES: usize = 32;

/// The serving configuration of both serving workloads: default pipeline
/// at degree 1 and the default event transport with `threads` workers.
pub fn server_config(threads: usize) -> ServerConfig {
    let mut service = ServiceConfig::default();
    service.pipeline.parallelism = Parallelism::sequential();
    ServerConfig {
        threads,
        service,
        ..ServerConfig::default()
    }
}

struct Setup {
    server: LiveServer,
    sqls: Vec<String>,
}

/// `(alias, csv)` of every source of each world, as uploaded.
fn world_sources(worlds: &[GeneratedWorld]) -> Vec<Vec<(String, String)>> {
    worlds
        .iter()
        .enumerate()
        .map(|(i, world)| world_csv(world, &format!("w{i}_")))
        .collect()
}

/// Generate the worlds, start a server, upload every source and warm the
/// cache with one query per world. The generated inputs are dropped
/// before returning, so only the server's state stays live.
fn set_up(seed: u64) -> BenchResult<Setup> {
    let server = LiveServer::start(server_config(THREADS))?;
    let mut client = server.client()?;
    let mut sqls = Vec::new();
    for csv in world_sources(&scenario_worlds(WORLDS, ENTITIES, seed)) {
        upload(&mut client, &csv)?;
        let aliases: Vec<&str> = csv.iter().map(|(a, _)| a.as_str()).collect();
        let sql = fuse_sql(&aliases);
        let (status, body) = ctx(
            client.request("POST", "/query", "text/plain", sql.as_bytes()),
            "warm query",
        )?;
        if status != 200 {
            return Err(format!("warm query: HTTP {status}: {body}"));
        }
        sqls.push(sql);
    }
    Ok(Setup { server, sqls })
}

/// Parse and prepare each world's sources as the server does, scoring
/// each prepare against the world's gold labels. Returns the prepares,
/// their quality and the total CSV parse time (ms).
fn prepare_worlds(
    worlds: &[GeneratedWorld],
    pipeline: &HummerConfig,
) -> BenchResult<(Vec<PreparedSources>, Vec<Quality>, f64)> {
    let mut csv_ms = 0.0;
    let mut prepares = Vec::new();
    let mut scores = Vec::new();
    for (world, csv) in worlds.iter().zip(world_sources(worlds)) {
        let (tables, ms) = parse_sources(&csv)?;
        csv_ms += ms;
        let refs: Vec<&Table> = tables.iter().collect();
        let prepared = ctx(prepare_tables(&refs, pipeline), "replica prepare")?;
        scores.push(quality(world, &prepared));
        prepares.push(prepared);
    }
    Ok((prepares, scores, csv_ms))
}

/// Run the workload.
pub fn run(run: &Run) -> BenchResult<Outcome> {
    let mut out = Outcome::new(run);
    let setup = run.set_up(
        &mut out.report,
        |_| set_up(run.seed),
        |previous: Setup| previous.server.stop(),
    )?;

    // The benchmark's own replica of each world's prepared sources (for
    // the answer check and the `query.exec` probe), built outside the
    // set-up time from the same CSV text the server parsed, and the
    // quality of further world mixes drawn from the seed.
    let pipeline = server_config(THREADS).service.pipeline;
    let (replicas, mut scores, csv_ms) =
        prepare_worlds(&scenario_worlds(WORLDS, ENTITIES, run.seed), &pipeline)?;
    out.report
        .set("engine.csv_parse_ms", csv_ms, replicas.len());
    for &seed in &quality_seeds(run.seed, QUALITY_MIXES)[1..] {
        scores.extend(prepare_worlds(&scenario_worlds(WORLDS, ENTITIES, seed), &pipeline)?.1);
    }
    report_quality(&mut out.report, &scores);

    let service = &setup.server.service;
    let before = service.cache_stats();
    let window = run.window();
    let mut client = setup.server.client()?;
    let mut reads = Reads::default();
    reads.window(&mut client, &setup.sqls, Instant::now() + window, true);
    let registry = FunctionRegistry::standard();
    if run.traced {
        let probe = Probe {
            service,
            annotated: replicas.iter().map(|p| &p.annotated).collect(),
            registry: &registry,
            par: pipeline.parallelism,
        };
        let mut next_id = 0;
        reads.traced_window(
            &mut client,
            &setup.sqls,
            Instant::now() + window,
            true,
            &probe,
            &mut next_id,
            &mut out.tree,
            &mut out.probes,
        );
        reads.report_layers(&mut out.report, &out.tree, &out.probes);
        let after = service.cache_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        out.report.set(
            "server.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
        );
    }
    drop(client);
    out.report.attempted += reads.attempted;
    out.report.failed += reads.failed;
    out.report.set_median("latency_ms_p50", &reads.latencies);
    out.report
        .note("latency_ms.samples", reads.latencies.len().into());

    // Every distinct HTTP answer must equal the in-process answer, and
    // its result the benchmark's own prepare + execute of the same world
    // (a kept answer is cut before `timings_ms`, its last field, so
    // closing the object makes it a document again).
    let mut wrong = 0;
    let mut unlike_replica = 0;
    let mut distinct = 0;
    for (i, sql) in setup.sqls.iter().enumerate() {
        let expected = ctx(service.query(sql), "in-process query")?;
        let expected = query_result_to_json(&expected).to_string_compact();
        let expected = answer_without_timings(&expected);
        let replicated =
            expected_result(sql, &replicas[i].annotated, &registry, pipeline.parallelism)?;
        for (answer, n) in reads.answers.get(&i).into_iter().flatten() {
            distinct += 1;
            if answer.as_str() != expected {
                wrong += n;
            } else if answer_result(&format!("{answer}}}")).as_deref() != Some(replicated.as_str())
            {
                unlike_replica += n;
            }
        }
    }
    out.report.failed += wrong + unlike_replica;
    out.report.check(
        "each distinct HTTP answer equals in-process FusionService::query",
        wrong == 0,
        format!(
            "{distinct} distinct answers over {} queries, {wrong} wrong requests",
            setup.sqls.len()
        ),
    );
    out.report.check(
        "each served result equals execute_combined_par over the benchmark's own prepare",
        unlike_replica == 0,
        format!("{unlike_replica} requests differ from the replica"),
    );
    let Setup { server, .. } = setup;
    server.stop()?;
    Ok(out)
}
