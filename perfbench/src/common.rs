//! What the three workloads share: the in-process server, CSV ingestion,
//! fusion quality against the generator's gold labels, answer
//! comparison, and a seeded generator for benchmark-side choices.

use hummer_core::engine::{csv, Table};
use hummer_core::query::{execute_combined_par, parse};
use hummer_core::{FunctionRegistry, Parallelism, PreparedSources};
use hummer_datagen::{cluster_pair_metrics, correspondence_metrics, pair_metrics, GeneratedWorld};
use hummer_server::loadgen::Client;
use hummer_server::service::table_to_json;
use hummer_server::{FusionService, HummerServer, Json, ServerConfig, ShutdownHandle};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Error type of the benchmark: a message naming what went wrong.
pub type BenchResult<T> = Result<T, String>;

/// Attach context to any displayable error.
pub fn ctx<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> BenchResult<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// A server running on an ephemeral local port in this process.
pub struct LiveServer {
    /// `host:port`.
    pub addr: String,
    /// The server's shared service, for in-process calls.
    pub service: Arc<FusionService>,
    handle: ShutdownHandle,
    join: Option<JoinHandle<std::io::Result<()>>>,
}

impl LiveServer {
    /// Bind `config` (its address is replaced by an ephemeral port) and
    /// serve it on a background thread.
    pub fn start(mut config: ServerConfig) -> BenchResult<LiveServer> {
        config.addr = "127.0.0.1:0".into();
        let server = ctx(HummerServer::bind(config), "bind server")?;
        let addr = server.local_addr().to_string();
        let service = Arc::clone(server.service());
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        Ok(LiveServer {
            addr,
            service,
            handle,
            join: Some(join),
        })
    }

    /// A fresh keep-alive connection.
    pub fn client(&self) -> BenchResult<Client> {
        ctx(Client::connect(&self.addr), "connect")
    }

    /// Stop serving and wait for the server thread to end.
    pub fn stop(mut self) -> BenchResult<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> BenchResult<()> {
        let Some(join) = self.join.take() else {
            return Ok(());
        };
        self.handle.shutdown();
        match join.join() {
            Ok(r) => ctx(r, "server run"),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A directory inside the checkout that is removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Create `<work>/<name>-<pid>`, emptying any leftover first.
    pub fn new(work: &std::path::Path, name: &str) -> BenchResult<ScratchDir> {
        let dir = work.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ctx(std::fs::create_dir_all(&dir), "create scratch dir")?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Parse each source's CSV text as table `alias`, the way the server's
/// `PUT /tables/{alias}` does. Returns the tables and the parse time (ms).
pub fn parse_sources(sources: &[(String, String)]) -> BenchResult<(Vec<Table>, f64)> {
    let t0 = Instant::now();
    let tables = sources
        .iter()
        .map(|(alias, text)| ctx(csv::read_csv_str(alias, text), "parse CSV"))
        .collect::<BenchResult<Vec<_>>>()?;
    Ok((tables, t0.elapsed().as_secs_f64() * 1e3))
}

/// A table's name, columns and rows, for byte-identity comparisons
/// (`Table`'s own `Debug` also prints the schema's hash index, whose order
/// varies between maps).
pub fn table_fingerprint(t: &Table) -> String {
    format!("{}\n{:?}\n{:?}", t.name(), t.schema().columns(), t.rows())
}

/// `(alias, csv)` for every source of `world`, aliased `{prefix}{name}`.
pub fn world_csv(world: &GeneratedWorld, prefix: &str) -> Vec<(String, String)> {
    world
        .sources
        .iter()
        .map(|s| {
            (
                format!("{prefix}{}", s.table.name()),
                csv::write_csv_str(&s.table),
            )
        })
        .collect()
}

/// Upload sources with `PUT /tables/{alias}`.
pub fn upload(client: &mut Client, sources: &[(String, String)]) -> BenchResult<()> {
    for (alias, text) in sources {
        let (status, body) = ctx(
            client.request(
                "PUT",
                &format!("/tables/{alias}"),
                "text/csv",
                text.as_bytes(),
            ),
            "upload",
        )?;
        if status != 200 {
            return Err(format!("upload {alias}: HTTP {status}: {body}"));
        }
    }
    Ok(())
}

/// The fusion query over `aliases`, as loadgen issues it.
pub fn fuse_sql(aliases: &[&str]) -> String {
    format!(
        "SELECT * FUSE FROM {} FUSE BY (objectID)",
        aliases.join(", ")
    )
}

/// A `/query` answer without its wall-clock `timings_ms` and what follows
/// it (the server renders `timings_ms` after every result field), so two
/// answers compare as strings. Cheap and constant per answer: on the event
/// transport a client's turnaround shifts where its next request lands in
/// a worker's park cycle, so the read loop keeps it short.
pub fn answer_without_timings(body: &str) -> &str {
    body.rfind(",\"timings_ms\":")
        .map_or(body, |at| &body[..at])
}

/// The `result` field of a `/query` answer, re-rendered compactly.
pub fn answer_result(body: &str) -> Option<String> {
    Json::parse(body)
        .ok()?
        .get("result")
        .map(Json::to_string_compact)
}

/// What `/query` must answer for `sql` over `annotated`, rendered as
/// [`answer_result`] renders the served answer: `execute_combined_par`
/// on the benchmark's own prepare of the same sources.
pub fn expected_result(
    sql: &str,
    annotated: &Table,
    registry: &FunctionRegistry,
    par: Parallelism,
) -> BenchResult<String> {
    let query = ctx(parse(sql), "parse")?;
    let executed = ctx(
        execute_combined_par(&query, annotated, registry, par),
        "execute",
    )?;
    let rendered = table_to_json(&executed.table).to_string_compact();
    Ok(ctx(Json::parse(&rendered), "re-parse")?.to_string_compact())
}

/// The seeds of the worlds a run's quality metrics average over: `seed`
/// itself, then `n - 1` more drawn from it. One world's quality moves by
/// several percent from seed to seed; the mean over `n` moves about
/// `sqrt(n)` times less, so the quality bounds can be tight.
pub fn quality_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix::new(seed ^ 0x0A11_7E57_5EED_0002);
    std::iter::once(seed)
        .chain((1..n).map(|_| rng.next_u64() >> 16))
        .collect()
}

/// Fusion quality of one prepared world against its gold labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// F1 of the detected clusters' implied pairs.
    pub cluster_f1: f64,
    /// Precision of the accepted duplicate pairs.
    pub pair_precision: f64,
    /// Recall of the accepted duplicate pairs.
    pub pair_recall: f64,
    /// Mean correspondence F1 over non-preferred sources; `None` for a
    /// single-source world.
    pub correspondence: Option<f64>,
}

/// Score `prepared` (a prepare over `world`'s sources, in order).
pub fn quality(world: &GeneratedWorld, prepared: &PreparedSources) -> Quality {
    let detection = &prepared.detection;
    let cluster = cluster_pair_metrics(&detection.cluster_ids, &world.gold_union_entity_ids());
    let predicted: Vec<(usize, usize)> =
        detection.pairs.iter().map(|p| (p.left, p.right)).collect();
    let pairs = pair_metrics(&predicted, &world.gold_union_pairs());
    let per_source: Vec<f64> = prepared
        .match_results
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let predicted: Vec<(String, String)> = m
                .correspondences
                .iter()
                .filter(|c| !c.right_column.eq_ignore_ascii_case(&c.left_column))
                .map(|c| (c.right_column.clone(), c.left_column.clone()))
                .collect();
            let gold: Vec<(String, String)> = world.gold_renames[i + 1]
                .iter()
                .filter(|(l, c)| !l.eq_ignore_ascii_case(c))
                .map(|(l, c)| (l.clone(), c.clone()))
                .collect();
            correspondence_metrics(&predicted, &gold).f1()
        })
        .collect();
    Quality {
        cluster_f1: cluster.f1(),
        pair_precision: pairs.precision,
        pair_recall: pairs.recall,
        correspondence: (!per_source.is_empty())
            .then(|| per_source.iter().sum::<f64>() / per_source.len() as f64),
    }
}

/// Report the mean quality over `scores` (end-to-end metrics).
pub fn report_quality(report: &mut crate::report::Report, scores: &[Quality]) {
    let mean = |xs: Vec<f64>| (xs.iter().sum::<f64>() / xs.len().max(1) as f64, xs.len());
    let (v, n) = mean(scores.iter().map(|q| q.cluster_f1).collect());
    report.set("cluster_f1", v, n);
    let (v, n) = mean(scores.iter().map(|q| q.pair_precision).collect());
    report.set("pair_precision", v, n);
    let (v, n) = mean(scores.iter().map(|q| q.pair_recall).collect());
    report.set("pair_recall", v, n);
    let (v, n) = mean(scores.iter().filter_map(|q| q.correspondence).collect());
    report.set("correspondence_accuracy", v, n);
}

/// A field of `/proc/self/status` in MiB (such as `VmHWM`).
pub fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded choices (which row a delta
/// touches), independent of the generator crate's stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5EED_BE4C_4D0E_0001)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_compare_without_timings() {
        let a = r#"{"result":{"rows":[[1]]},"cache":"hit","timings_ms":{"execute":0.25}}"#;
        let b = r#"{"result":{"rows":[[1]]},"cache":"hit","timings_ms":{"execute":9.5}}"#;
        let c = r#"{"result":{"rows":[[2]]},"cache":"hit","timings_ms":{"execute":0.25}}"#;
        assert_eq!(answer_without_timings(a), answer_without_timings(b));
        assert_ne!(answer_without_timings(a), answer_without_timings(c));
        assert_eq!(answer_without_timings("{}"), "{}");
    }

    #[test]
    fn quality_seeds_start_with_the_run_seed() {
        let seeds = quality_seeds(7, 5);
        assert_eq!(seeds.len(), 5);
        assert_eq!(seeds[0], 7);
        assert_eq!(seeds, quality_seeds(7, 5));
        assert_ne!(seeds[1..], quality_seeds(8, 5)[1..]);
    }

    #[test]
    fn splitmix_is_seeded() {
        let draw = |seed| {
            let mut r = SplitMix::new(seed);
            (0..4).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
