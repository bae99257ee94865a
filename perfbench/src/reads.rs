//! The closed-loop FUSE-query client both serving workloads use, and its
//! traced variant: after each HTTP request the same query is timed again
//! in-process, call by call (parse, service, serialize, execute), so the
//! transport's share is what the in-process calls do not explain.

use crate::common::{answer_without_timings, ms_since};
use crate::report::Report;
use crate::trace::{per_id, self_ms_by_name, Recorder};
use hummer_core::engine::Table;
use hummer_core::query::{execute_combined_par, parse};
use hummer_core::{FunctionRegistry, Parallelism};
use hummer_server::loadgen::Client;
use hummer_server::service::query_result_to_json;
use hummer_server::FusionService;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What a read loop saw.
#[derive(Debug, Default)]
pub struct Reads {
    /// HTTP latency (ms) of each successful untraced request.
    pub latencies: Vec<f64>,
    /// HTTP latency (ms) of each successful traced request.
    pub traced: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Per query index, each distinct answer (without timings) and how
    /// often it came back.
    pub answers: HashMap<usize, HashMap<String, u64>>,
    /// Conflicts the in-process fusion resolved, per traced request.
    pub conflicts: Vec<f64>,
}

/// In-process counterparts a traced read times after each request.
pub struct Probe<'a> {
    /// The service to query in-process: the server's own on `warm_query`,
    /// a shadow that no other thread mutates on `delta_mixed`.
    pub service: &'a FusionService,
    /// Annotated union per query, for `execute_combined_par`.
    pub annotated: Vec<&'a Table>,
    /// Registry and degree the service executes with.
    pub registry: &'a FunctionRegistry,
    /// Intra-query degree.
    pub par: Parallelism,
}

impl Reads {
    fn send(&mut self, client: &mut Client, sqls: &[String], n: usize, keep: bool) -> Option<f64> {
        let i = n % sqls.len();
        let t0 = Instant::now();
        let result = client.request("POST", "/query", "text/plain", sqls[i].as_bytes());
        let ms = ms_since(t0);
        self.attempted += 1;
        let Ok((200, body)) = result else {
            self.failed += 1;
            return None;
        };
        if keep {
            let seen = self.answers.entry(i).or_default();
            let answer = answer_without_timings(&body);
            match seen.get_mut(answer) {
                Some(n) => *n += 1,
                None => {
                    seen.insert(answer.to_string(), 1);
                }
            }
        }
        Some(ms)
    }

    /// Closed-loop queries, round-robin over `sqls`, until `until`. With
    /// `keep`, every answer is kept (without timings) for the identity check.
    pub fn window(&mut self, client: &mut Client, sqls: &[String], until: Instant, keep: bool) {
        let mut n = 0;
        while Instant::now() < until {
            if let Some(ms) = self.send(client, sqls, n, keep) {
                self.latencies.push(ms);
            }
            n += 1;
        }
    }

    /// [`Reads::window`] with a `server.request` span around each request
    /// followed by the in-process probes, all under one request id drawn
    /// from `next_id`.
    #[allow(clippy::too_many_arguments)]
    pub fn traced_window(
        &mut self,
        client: &mut Client,
        sqls: &[String],
        until: Instant,
        keep: bool,
        probe: &Probe<'_>,
        next_id: &mut u64,
        tree: &mut Recorder,
        probes: &mut Recorder,
    ) {
        let mut n = 0;
        while Instant::now() < until {
            *next_id += 1;
            let id = *next_id;
            let i = n % sqls.len();
            let root = tree.start("server.request", id, None);
            let ok = self.send(client, sqls, n, keep);
            let ms = tree.end(root);
            n += 1;
            if ok.is_none() {
                continue;
            }
            self.traced.push(ms);
            let sql = sqls[i].as_str();
            let parsed = probes.time("query.parse", id, None, || parse(black_box(sql)));
            let served = probes.time("server.service_query", id, None, || {
                probe.service.query(black_box(sql))
            });
            let (Ok(parsed), Ok(served)) = (parsed, served) else {
                self.failed += 1;
                continue;
            };
            probes.time("server.serialize", id, None, || {
                black_box(query_result_to_json(&served).to_string_compact())
            });
            if let Some(info) = &served.output.fusion {
                self.conflicts.push(info.conflict_count as f64);
            }
            let executed = probes.time("query.exec", id, None, || {
                execute_combined_par(&parsed, probe.annotated[i], probe.registry, probe.par)
            });
            if executed.is_err() {
                self.failed += 1;
            }
        }
    }

    /// Set the read-path per-layer metrics from the traced requests'
    /// spans. `server.transport_ms` (and the residual) is the request's
    /// latency minus the in-process service and serialization times.
    pub fn report_layers(&self, report: &mut Report, tree: &Recorder, probes: &Recorder) {
        let by_probe = self_ms_by_name(probes.spans());
        let requests = per_id(&self_ms_by_name(tree.spans()), "server.request");
        let service = per_id(&by_probe, "server.service_query");
        let serialize = per_id(&by_probe, "server.serialize");
        let transport: Vec<f64> = requests
            .iter()
            .filter_map(|(id, ms)| Some(ms - service.get(id)? - serialize.get(id)?))
            .collect();
        report.set_spans(
            &by_probe,
            &[
                ("query.parse_us", "query.parse", 1e3),
                ("query.exec_ms", "query.exec", 1.0),
                ("server.service_query_ms", "server.service_query", 1.0),
                ("server.serialize_ms", "server.serialize", 1.0),
            ],
        );
        report.set_median("server.transport_ms", &transport);
        report.set_median("trace.residual_ms", &transport);
        report.set_median("fusion.conflicts", &self.conflicts);
        report.set_tail("server.query_ms_tail", &self.latencies);
        if let (Some(t), Some(u)) = (
            crate::stats::median(&self.traced),
            crate::stats::median(&self.latencies),
        ) {
            report.set("trace.overhead_ms", t - u, self.traced.len());
        }
    }
}
