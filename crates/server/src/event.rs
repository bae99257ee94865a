//! The serving transport: nonblocking sockets driven by `poll(2)`.
//!
//! The listener and every accepted socket run in nonblocking mode, and each
//! worker thread owns a set of per-connection state machines. A sweep
//! accepts a burst, then pumps every owned connection one step. When a
//! sweep moves nothing, the worker blocks in `poll(2)` on the shared
//! listener plus its own connections (`POLLIN` while reading, `POLLOUT`
//! while writing) until one is ready or the nearest connection deadline
//! (read, idle or write) is due — at most [`POLL_CAP`], so a shutdown is
//! noticed even if its wake-up connection went to another worker. A ready
//! connection is served as soon as the kernel reports it.
//!
//! ## Per-connection state machine
//!
//! ```text
//!             bytes arrive            request complete
//!   idle ───────────────▶ reading ─────────────────▶ executing
//!    ▲                      │  ▲                         │
//!    │   response flushed   │  │ pipelined bytes         │ response bytes
//!    └────────── writing ◀──┼──┴─────────────────────────┘
//!                  │        │
//!                  ▼        ▼
//!                closed (error / timeout / EOF / `connection: close`)
//! ```
//!
//! * **reading** — header/body bytes accumulate in the connection buffer;
//!   [`crate::http::try_parse_request`] decides `complete` / `need more` /
//!   `never valid` (400). A started request that stalls past the read
//!   deadline is answered `408` and closed; a connection idle past the
//!   idle deadline is reclaimed silently.
//! * **executing** — the request runs *inline* on the worker through
//!   `execute_request` (panic containment included: a panicked handler
//!   yields `500` + close and the slot is recycled).
//! * **writing** — the serialized response drains through nonblocking
//!   writes; on completion the connection returns to reading (keep-alive)
//!   or closes.
//!
//! One request is served per connection per sweep, so a pipelining client
//! cannot starve its neighbors.
//!
//! ## Admission control
//!
//! A shared live-connection counter caps concurrently open sockets
//! (`ServerConfig::max_connections`). Arrivals beyond the cap get an
//! immediate `503` with `Retry-After: 1` and are closed — overload
//! degrades into fast, explicit rejections instead of unbounded queueing.
//!
//! ## Shutdown
//!
//! The shutdown flag stops accepting; idle connections close immediately,
//! in-flight requests finish and flush; each worker exits once its set is
//! empty. The wake-up connection that [`ShutdownHandle::shutdown`] opens
//! makes the listener readable, which ends every worker's wait.

use crate::error::ServerError;
use crate::http::{try_parse_request, write_response, Response};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::server::{execute_request, HummerServer, ShutdownHandle};
use crate::service::FusionService;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections accepted per worker per sweep before yielding to pumping —
/// bounds accept-side latency under a connection storm without starving
/// established connections.
const ACCEPT_BURST: usize = 32;

/// The longest a worker waits in `poll(2)` before re-checking the shutdown
/// flag, even when no connection deadline is nearer.
pub const POLL_CAP: Duration = Duration::from_millis(50);

/// Read chunk size per pump step.
const READ_CHUNK: usize = 16 * 1024;

/// Event-loop tuning, copied out of the server config.
#[derive(Debug, Clone, Copy)]
struct Options {
    max_connections: usize,
    read_timeout: Duration,
    idle_timeout: Duration,
}

/// Was the transient error a "try again later" (nonblocking readiness)?
fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

/// How long a worker with nothing to do may wait: until the nearest of
/// `deadlines` (zero once one has passed), and never longer than `cap`.
pub fn poll_timeout(
    now: Instant,
    deadlines: impl IntoIterator<Item = Instant>,
    cap: Duration,
) -> Duration {
    deadlines
        .into_iter()
        .map(|d| d.saturating_duration_since(now))
        .fold(cap, Duration::min)
}

/// Serve `server` with the event loop until shutdown; returns after every
/// worker drained its connections.
pub(crate) fn run(server: HummerServer) -> std::io::Result<()> {
    let HummerServer {
        listener,
        service,
        threads,
        shutdown,
        local_addr,
        max_connections,
        read_timeout,
        idle_timeout,
        ..
    } = server;
    listener.set_nonblocking(true)?;
    let listener = Arc::new(listener);
    let options = Options {
        max_connections,
        read_timeout,
        idle_timeout,
    };
    let live = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..threads.max(1))
        .map(|i| {
            let listener = Arc::clone(&listener);
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let live = Arc::clone(&live);
            std::thread::Builder::new()
                .name(format!("hummer-event-{i}"))
                .spawn(move || {
                    worker_loop(&listener, &service, &shutdown, local_addr, &live, options)
                })
                .expect("spawn event worker")
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// One worker: accept a burst, pump every owned connection, wait for
/// readiness when nothing moved.
fn worker_loop(
    listener: &TcpListener,
    service: &Arc<FusionService>,
    shutdown: &Arc<AtomicBool>,
    local_addr: std::net::SocketAddr,
    live: &AtomicUsize,
    options: Options,
) {
    let handle = ShutdownHandle::from_parts(local_addr, Arc::clone(shutdown));
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    // Reused across waits: the loop allocates nothing per wait.
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let shutting_down = shutdown.load(Ordering::SeqCst);
        let mut progress = false;
        let mut accept_failed = false;

        if !shutting_down {
            for _ in 0..ACCEPT_BURST {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progress = true;
                        // Reserve a slot; over the cap → fast 503.
                        if live.fetch_add(1, Ordering::SeqCst) >= options.max_connections {
                            live.fetch_sub(1, Ordering::SeqCst);
                            service.metrics().record_overload_reject();
                            reject_overloaded(stream, service);
                            continue;
                        }
                        match Conn::adopt(stream, options, service) {
                            Some(conn) => conns.push(conn),
                            None => {
                                live.fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                    }
                    Err(ref e) if would_block(e) => break,
                    Err(_) => {
                        // Transient accept failure (e.g. out of descriptors):
                        // the listener stays readable, so leave it out of
                        // the wait and retry after it instead of spinning.
                        accept_failed = true;
                        break;
                    }
                }
            }
        }

        let now = Instant::now();
        let mut i = 0;
        while i < conns.len() {
            match conns[i].pump(service, &handle, now, &mut scratch, shutting_down) {
                Pump::Keep { moved } => {
                    progress |= moved;
                    i += 1;
                }
                Pump::Close => {
                    progress = true;
                    conns.swap_remove(i).finish(service);
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }

        if shutting_down && conns.is_empty() {
            return;
        }
        if !progress {
            // Nothing moved: sleep until a socket is ready or a deadline is
            // due. A shutting-down worker stops watching the listener — it
            // accepts nothing more, and the unaccepted wake-up connection
            // would keep it readable.
            fds.clear();
            if !shutting_down && !accept_failed {
                fds.push(PollFd::new(listener, POLLIN));
            }
            fds.extend(conns.iter().map(Conn::interest));
            let deadlines = conns.iter().map(|c| c.deadline);
            let timeout = poll_timeout(Instant::now(), deadlines, POLL_CAP);
            poll::wait(&mut fds, timeout);
        }
    }
}

/// Refuse an over-cap connection: blocking write of `503` +
/// `Retry-After`, then drop. The socket was accepted from a nonblocking
/// listener, so flip it to blocking with a short timeout for the one
/// write — portable regardless of whether nonblocking was inherited.
fn reject_overloaded(stream: TcpStream, service: &FusionService) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let mut r = Response::json(
        503,
        "{\"error\":\"server is at its connection limit\",\"status\":503}",
    );
    r.close = true;
    let r = r.with_header("retry-after", "1");
    // Overload rejects get an accept-time trace id too: the connection never
    // reaches dispatch, but the client's error is still correlatable.
    let r = crate::server::finish_rejected(
        service,
        r,
        service.tracer().allocate_trace_id(),
        Duration::ZERO,
    );
    let _ = write_response(&mut stream, &r);
}

/// What the sweep should do with a connection after one pump.
enum Pump {
    /// Keep the connection; `moved` reports whether any byte or state
    /// transition happened (a sweep where nothing moved ends in a wait).
    Keep { moved: bool },
    /// Remove and drop the connection, releasing its slot.
    Close,
}

/// I/O state of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) a request.
    Reading,
    /// Draining a serialized response.
    Writing,
}

/// One connection's state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// When the current activity expires: read deadline while a request is
    /// in flight, idle deadline between requests, write deadline while
    /// draining. The nearest one bounds the worker's wait.
    deadline: Instant,
    /// A request has started arriving (first byte seen, not yet answered).
    in_request: bool,
    /// Close once `outbuf` drains.
    close_after_write: bool,
    /// Peer EOF observed (half-close): serve what is buffered, then close.
    eof: bool,
    options: Options,
    /// Current phase label for the conn-state histograms.
    phase: &'static str,
    phase_since: Instant,
    /// Trace id allocated at accept time, so a request rejected before
    /// dispatch (408/400) is still traceable via `X-Hummer-Trace`.
    pretrace: Option<u64>,
}

impl Conn {
    /// Wrap a fresh socket; `None` if it cannot be made nonblocking.
    fn adopt(stream: TcpStream, options: Options, service: &FusionService) -> Option<Conn> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        Some(Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            state: ConnState::Reading,
            deadline: now + options.idle_timeout,
            in_request: false,
            close_after_write: false,
            eof: false,
            options,
            phase: "idle",
            phase_since: now,
            pretrace: service.tracer().allocate_trace_id(),
        })
    }

    /// Finish a pre-dispatch rejection: stamp the accept-time trace id onto
    /// the response and account it under the `rejected` endpoint label. The
    /// latency charged is the time spent in the current phase (how long the
    /// doomed request was allowed to dawdle).
    fn reject(&self, service: &FusionService, response: Response, now: Instant) -> Response {
        crate::server::finish_rejected(
            service,
            response,
            self.pretrace,
            now.saturating_duration_since(self.phase_since),
        )
    }

    /// What to wait for: request bytes while reading, buffer space while
    /// writing.
    fn interest(&self) -> PollFd {
        match self.state {
            ConnState::Reading => PollFd::new(&self.stream, POLLIN),
            ConnState::Writing => PollFd::new(&self.stream, POLLOUT),
        }
    }

    /// Record time spent in the current phase and enter a new one.
    fn set_phase(&mut self, service: &FusionService, phase: &'static str, now: Instant) {
        if self.phase != phase {
            service
                .metrics()
                .record_conn_state(self.phase, now.saturating_duration_since(self.phase_since));
            self.phase = phase;
            self.phase_since = now;
        }
    }

    /// Flush the current phase's residency on close.
    fn finish(mut self, service: &FusionService) {
        let now = Instant::now();
        self.set_phase(service, "closed", now);
    }

    /// One step of the state machine.
    fn pump(
        &mut self,
        service: &Arc<FusionService>,
        shutdown: &ShutdownHandle,
        now: Instant,
        scratch: &mut [u8],
        shutting_down: bool,
    ) -> Pump {
        match self.state {
            ConnState::Reading => self.pump_read(service, shutdown, now, scratch, shutting_down),
            ConnState::Writing => self.pump_write(service, now),
        }
    }

    fn pump_read(
        &mut self,
        service: &Arc<FusionService>,
        shutdown: &ShutdownHandle,
        now: Instant,
        scratch: &mut [u8],
        shutting_down: bool,
    ) -> Pump {
        let mut moved = false;
        // Drain whatever the socket has ready (bounded by the sweep's one
        // chunk) unless the peer already half-closed.
        if !self.eof {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.eof = true;
                    moved = true;
                }
                Ok(n) => {
                    if !self.in_request {
                        self.in_request = true;
                        self.deadline = now + self.options.read_timeout;
                        self.set_phase(service, "reading", now);
                    }
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    moved = true;
                }
                Err(ref e) if would_block(e) => {}
                Err(_) => return Pump::Close, // transport error
            }
        }

        // Serve at most one buffered request per sweep (fairness across
        // the worker's connections).
        if !self.inbuf.is_empty() {
            match try_parse_request(&self.inbuf) {
                Ok(Some((request, consumed))) => {
                    self.inbuf.drain(..consumed);
                    self.set_phase(service, "executing", now);
                    let mut response = execute_request(&request, service, shutdown);
                    response.close = response.close
                        || request.wants_close()
                        || self.eof
                        || shutdown.is_requested();
                    // `start_write`'s transition out of "executing" records
                    // the handler's residency in the conn-state histogram.
                    return self.start_write(service, &response, Instant::now());
                }
                Ok(None) => {} // valid prefix: keep reading
                Err(e) => {
                    // Protocol junk can never become a request: 400, close.
                    let r = crate::server::error_response(&e, true);
                    let r = self.reject(service, r, now);
                    return self.start_write(service, &r, now);
                }
            }
        }

        if self.eof {
            if self.inbuf.is_empty() && !self.in_request {
                return Pump::Close; // clean close between requests
            }
            // Half-close mid-request: the prefix can never complete.
            let e = ServerError::BadRequest("connection half-closed mid-request".into());
            let r = crate::server::error_response(&e, true);
            let r = self.reject(service, r, now);
            return self.start_write(service, &r, now);
        }

        if now >= self.deadline {
            if self.in_request {
                // A started request stalled (slowloris or a dead peer).
                service.metrics().record_read_timeout();
                let mut r = Response::json(
                    408,
                    "{\"error\":\"request did not arrive in time\",\"status\":408}",
                );
                r.close = true;
                let r = self.reject(service, r, now);
                return self.start_write(service, &r, now);
            }
            service.metrics().record_idle_reclaim();
            return Pump::Close; // silent idle reclamation
        }

        if shutting_down && !self.in_request && self.inbuf.is_empty() {
            return Pump::Close; // idle at shutdown: no more requests coming
        }

        Pump::Keep { moved }
    }

    /// Serialize `response` and enter the writing state (flushing what the
    /// socket will take right away).
    fn start_write(&mut self, service: &FusionService, response: &Response, now: Instant) -> Pump {
        self.outbuf = response.to_bytes();
        self.out_pos = 0;
        self.close_after_write = response.close;
        self.in_request = false;
        self.state = ConnState::Writing;
        self.deadline = now + self.options.read_timeout;
        self.set_phase(service, "writing", now);
        self.pump_write(service, now)
    }

    fn pump_write(&mut self, service: &FusionService, now: Instant) -> Pump {
        let mut moved = false;
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => return Pump::Close,
                Ok(n) => {
                    self.out_pos += n;
                    moved = true;
                }
                Err(ref e) if would_block(e) => {
                    if now >= self.deadline {
                        return Pump::Close; // peer stopped draining
                    }
                    return Pump::Keep { moved };
                }
                Err(_) => return Pump::Close,
            }
        }
        let _ = self.stream.flush();
        if self.close_after_write {
            return Pump::Close;
        }
        // Back to keep-alive; pipelined bytes already buffered count as a
        // started request for deadline purposes.
        self.outbuf.clear();
        self.out_pos = 0;
        self.state = ConnState::Reading;
        self.in_request = !self.inbuf.is_empty();
        self.deadline = now
            + if self.in_request {
                self.options.read_timeout
            } else {
                self.options.idle_timeout
            };
        self.set_phase(
            service,
            if self.in_request { "reading" } else { "idle" },
            now,
        );
        Pump::Keep { moved: true }
    }
}
