//! The exploration server: a TCP accept loop, one thread per
//! connection, and the shared run gate that bounds the cold runs those
//! threads execute.
//!
//! Request flow for `/run`: read the head into the connection's one
//! reused buffer (at most 16 KiB, enforced while reading) → decode the
//! query pairs in place, copying only a half that has escapes →
//! validate them into a borrowed [`QueryRef`](crate::query::QueryRef),
//! whose strings point into the request and the registry's stored
//! defaults → key it → cache probe. A hit is answered from that
//! borrowed form with six heap allocations: the decoded pair list, the
//! validation's two small vectors, the manifest's model name, the key,
//! and the request-id header. On a miss, the request is admitted to
//! the run gate (or `503`), the owned [`RunQuery`] is built, and the
//! connection thread waits for a run slot, executes the cell, gives the
//! slot back, renders once, and caches and answers the rendered
//! bytes. A later hit returns the *same* `Arc` of bytes the cold run
//! produced — byte-identity is structural, not re-derived. `/trace` is
//! admitted the same way and writes its head before it waits; the run
//! then narrates itself through a [`JsonlSink`] over chunked transfer
//! encoding, and a client hangup latches the sink's error hook, which
//! cancels the run at the next replication boundary. A panicking run
//! gives its slot back in the unwind: `/run` answers `500`, `/trace`
//! drops the stream with no tail.
//!
//! Every request gets a server-scoped id ([`Pulse::begin_request`]),
//! echoed in the `X-Atlarge-Request` header and attached to the span
//! the pulse plane records, so one request is traceable from HTTP
//! accept through admission, queueing, the run, and the response
//! write. Wall-clock readings go through [`Stopwatch`] only, and only
//! into reports (`/stats`, `/metrics`, `/watch`, headers) — never into
//! a response body the cache could serve back.

use crate::cache::ResultCache;
use crate::gate::{RunGate, Ticket};
use crate::http::{
    read_request, write_chunked_head, write_response, ChunkedWriter, ReadError, Request,
};
use crate::pulse::{
    render_prometheus, render_window, ExpositionGauges, Outcome, Pulse, SloSpec, SpanRecord,
};
use crate::query::{
    error_body, query_manifest, render_body, render_domains, validate_query, RunQuery,
};
use crate::stats::ServerStats;
use atlarge_exp::{CancelToken, CellOutput, Registry};
use atlarge_telemetry::export::{json_f64, json_object, json_str};
use atlarge_telemetry::wall::Stopwatch;
use atlarge_telemetry::{JsonlSink, NullTracer, Tracer};
use std::borrow::Cow;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Server tuning knobs.
pub struct ServeConfig {
    /// Listen address; port `0` binds an ephemeral port (tests).
    pub addr: String,
    /// Cold runs executing at once; `0` means one per available core.
    pub threads: usize,
    /// Admitted queries waiting for a run slot before `503`.
    pub queue_capacity: usize,
    /// Cached result bodies.
    pub cache_capacity: usize,
    /// Cache shards.
    pub cache_shards: usize,
    /// Service-level objectives the pulse plane tracks burn against.
    pub slo: SloSpec,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue_capacity: 128,
            cache_capacity: 1024,
            cache_shards: 8,
            slo: SloSpec::default(),
        }
    }
}

struct Shared {
    registry: Registry,
    gate: RunGate,
    cache: ResultCache,
    stats: ServerStats,
    pulse: Pulse,
    running: AtomicBool,
    /// Open connections, so shutdown can wait for them to drain.
    connections: Mutex<usize>,
    drained: Condvar,
}

/// A running exploration server. Dropping the handle without calling
/// [`Server::shutdown`] leaves detached threads running; call
/// `shutdown` for an orderly stop.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop, and returns once the socket is
    /// listening — `addr()` is immediately connectable.
    pub fn start(registry: Registry, config: ServeConfig) -> std::io::Result<Server> {
        let threads = if config.threads > 0 {
            config.threads
        } else {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let pulse = Pulse::new(&registry.domains(), threads, config.slo);
        let shared = Arc::new(Shared {
            registry,
            gate: RunGate::new(threads, config.queue_capacity),
            cache: ResultCache::new(config.cache_capacity, config.cache_shards),
            stats: ServerStats::new(),
            pulse,
            running: AtomicBool::new(true),
            connections: Mutex::new(0),
            drained: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept loop");
        let ticker_shared = Arc::clone(&shared);
        let ticker = std::thread::Builder::new()
            .name("serve-pulse".to_string())
            .spawn(move || ticker_loop(&ticker_shared))
            .expect("spawn pulse ticker");
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            ticker: Some(ticker),
        })
    }

    /// The bound address (resolved port when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for open connections to finish, and
    /// joins every thread the server owns.
    pub fn shutdown(mut self) {
        self.shared.running.store(false, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _nudge = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            handle.join().expect("accept loop panicked");
        }
        let mut open = self
            .shared
            .connections
            .lock()
            .expect("connection count lock");
        while *open > 0 {
            open = self
                .shared
                .drained
                .wait(open)
                .expect("connection count lock");
        }
        drop(open);
        if let Some(handle) = self.ticker.take() {
            handle.join().expect("pulse ticker panicked");
        }
    }
}

/// Advances SLO burn accounting once per second until shutdown,
/// sleeping in short steps so shutdown never waits a full tick.
fn ticker_loop(shared: &Arc<Shared>) {
    const STEP: std::time::Duration = std::time::Duration::from_millis(100);
    const TICK: std::time::Duration = std::time::Duration::from_secs(1);
    loop {
        let mut slept = std::time::Duration::ZERO;
        while slept < TICK {
            if !shared.running.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(STEP);
            slept += STEP;
        }
        shared.pulse.tick();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if !shared.running.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Responses (and especially chunked trace records) go out as
        // several small writes; without NODELAY, Nagle + delayed ACKs
        // turn each into a ~40 ms stall on loopback.
        let _best_effort = stream.set_nodelay(true);
        *shared.connections.lock().expect("connection count lock") += 1;
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                let mut open = conn_shared
                    .connections
                    .lock()
                    .expect("connection count lock");
                *open -= 1;
                if *open == 0 {
                    conn_shared.drained.notify_all();
                }
            });
        if spawned.is_err() {
            let mut open = shared.connections.lock().expect("connection count lock");
            *open -= 1;
            if *open == 0 {
                shared.drained.notify_all();
            }
        }
    }
}

/// How often an idle connection wakes up to check for server shutdown.
const IDLE_POLL: std::time::Duration = std::time::Duration::from_millis(50);
/// Idle keep-alive connections are reaped after this long without a
/// request (clients send a request head in one write, so a poll-tick
/// timeout mid-request does not happen in practice).
const IDLE_MAX: std::time::Duration = std::time::Duration::from_secs(30);

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // A bounded read timeout keeps this thread responsive to shutdown:
    // without it, an open keep-alive connection would pin the drain in
    // `Server::shutdown` until the client went away on its own.
    let _best_effort = read_half.set_read_timeout(Some(IDLE_POLL));
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    // Every request head on this connection is read into this buffer.
    let mut head = Vec::new();
    let mut idle = std::time::Duration::ZERO;
    loop {
        let request = match read_request(&mut reader, &mut head) {
            Ok(request) => request,
            Err(ReadError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if !shared.running.load(Ordering::Acquire) {
                    return;
                }
                idle += IDLE_POLL;
                if idle >= IDLE_MAX {
                    return;
                }
                continue;
            }
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(reason)) => {
                shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
                let _closing = write_response(
                    &mut writer,
                    400,
                    "application/json",
                    &[],
                    error_body(&reason).as_bytes(),
                );
                return;
            }
        };
        idle = std::time::Duration::ZERO;
        let keep_alive = request.keep_alive;
        // Streaming endpoints take ownership of the stream for their
        // lifetime.
        if request.method == "GET" && (request.path == "/trace" || request.path == "/watch") {
            if let Ok(stream) = writer.into_inner() {
                if request.path == "/trace" {
                    handle_trace(stream, &request, shared);
                } else {
                    handle_watch(stream, &request, shared);
                }
            }
            return;
        }
        if route(&mut writer, &request, shared).is_err() {
            return; // client hung up mid-response
        }
        if !keep_alive {
            return;
        }
    }
}

/// First value of query parameter `key`, if present.
fn query_param<'h>(request: &Request<'h>, key: &str) -> Option<Cow<'h, str>> {
    request
        .query_pairs()
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn route<W: Write>(w: &mut W, request: &Request, shared: &Arc<Shared>) -> std::io::Result<()> {
    if request.method != "GET" {
        shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
        return write_response(
            w,
            405,
            "application/json",
            &[],
            error_body("only GET is supported").as_bytes(),
        );
    }
    match request.path {
        "/healthz" => {
            let slo = shared.pulse.slo_status();
            let domains: Vec<String> = shared
                .registry
                .domains()
                .iter()
                .map(|d| format!("\"{d}\""))
                .collect();
            let queue_depth = shared.gate.queued();
            let queue_capacity = shared.gate.capacity();
            let cache_entries = shared.cache.len();
            let cache_capacity = shared.cache.capacity();
            let body = format!(
                "{}\n",
                json_object(&[
                    (
                        "status",
                        json_str(if slo.healthy { "ok" } else { "degraded" }),
                    ),
                    ("domains", format!("[{}]", domains.join(","))),
                    ("uptime_ms", json_f64(shared.pulse.uptime_ms())),
                    (
                        "pool",
                        json_object(&[
                            ("workers", shared.gate.slots().to_string()),
                            ("queue_depth", queue_depth.to_string()),
                            ("queue_capacity", queue_capacity.to_string()),
                            (
                                "saturation",
                                json_f64(queue_depth as f64 / queue_capacity.max(1) as f64),
                            ),
                        ]),
                    ),
                    (
                        "cache",
                        json_object(&[
                            ("entries", cache_entries.to_string()),
                            ("capacity", cache_capacity.to_string()),
                            (
                                "occupancy",
                                json_f64(cache_entries as f64 / cache_capacity.max(1) as f64),
                            ),
                            ("hit_rate", json_f64(shared.stats.hit_rate())),
                        ]),
                    ),
                    ("slo", slo.render_json(shared.pulse.slo_spec())),
                ])
            );
            // A server critically burning its availability budget asks
            // the balancer to take it out of rotation; the body still
            // carries the full diagnosis.
            let status = if slo.healthy { 200 } else { 503 };
            write_response(w, status, "application/json", &[], body.as_bytes())
        }
        "/domains" => {
            let body = render_domains(&shared.registry);
            write_response(w, 200, "application/json", &[], body.as_bytes())
        }
        "/stats" => {
            let body = format!(
                "{}\n",
                shared
                    .stats
                    .render_json(shared.gate.queued(), &shared.pulse)
            );
            write_response(w, 200, "application/json", &[], body.as_bytes())
        }
        "/metrics" => {
            let body = render_prometheus(
                &shared.pulse,
                &shared.stats,
                &ExpositionGauges {
                    queue_depth: shared.gate.queued(),
                    queue_capacity: shared.gate.capacity(),
                    workers: shared.gate.slots(),
                    cache_entries: shared.cache.len(),
                    cache_capacity: shared.cache.capacity(),
                },
            );
            write_response(w, 200, "text/plain; version=0.0.4", &[], body.as_bytes())
        }
        "/run" => handle_run(w, request, shared),
        _ => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            write_response(
                w,
                404,
                "application/json",
                &[],
                error_body(&format!("no route {}", request.path)).as_bytes(),
            )
        }
    }
}

fn handle_run<W: Write>(w: &mut W, request: &Request, shared: &Arc<Shared>) -> std::io::Result<()> {
    let total = Stopwatch::start();
    let req_id = shared.pulse.begin_request();
    let req_header = req_id.to_string();
    shared.stats.queries.fetch_add(1, Ordering::Relaxed);
    let pairs = request.query_pairs();
    let query = match validate_query(&shared.registry, &pairs) {
        Ok(query) => query,
        Err(reason) => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            return write_response(
                w,
                400,
                "application/json",
                &[("X-Atlarge-Request", &req_header)],
                error_body(&reason).as_bytes(),
            );
        }
    };
    let key = query.cache_key();

    if let Some(body) = shared.cache.get(&key) {
        shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        let write_watch = Stopwatch::start();
        let result = write_response(
            w,
            200,
            "application/json",
            &[
                ("X-Atlarge-Cache", "hit"),
                ("X-Atlarge-Key", &key),
                ("X-Atlarge-Request", &req_header),
            ],
            &body,
        );
        shared.pulse.observe(
            req_id,
            query.domain,
            Outcome::Hit,
            [0, 0, 0, write_watch.elapsed_nanos()],
        );
        return result;
    }

    let Some(ticket) = shared.gate.admit() else {
        return shed(w, shared, &req_header);
    };
    let query = query.to_run_query();
    let (outcome, [queue_ns, run_ns]) =
        run_in_slot(ticket, shared, &query, &CancelToken::new(), &NullTracer);
    match outcome {
        Some(Ok(output)) => {
            let render_watch = Stopwatch::start();
            let body = Arc::new(render_body(&query, &key, &output).into_bytes());
            shared.cache.insert(&key, Arc::clone(&body));
            shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            let render_ns = render_watch.elapsed_nanos();
            let write_watch = Stopwatch::start();
            let result = write_response(
                w,
                200,
                "application/json",
                &[
                    ("X-Atlarge-Cache", "miss"),
                    ("X-Atlarge-Key", &key),
                    ("X-Atlarge-Request", &req_header),
                ],
                &body,
            );
            shared.pulse.observe(
                req_id,
                &query.domain,
                Outcome::Miss,
                [queue_ns, run_ns, render_ns, write_watch.elapsed_nanos()],
            );
            result
        }
        Some(Err(reason)) => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            write_response(
                w,
                400,
                "application/json",
                &[("X-Atlarge-Request", &req_header)],
                error_body(&reason).as_bytes(),
            )
        }
        None => {
            shared.stats.server_errors.fetch_add(1, Ordering::Relaxed);
            shared.pulse.observe(
                req_id,
                &query.domain,
                Outcome::Error,
                [0, total.elapsed_nanos(), 0, 0],
            );
            write_response(
                w,
                500,
                "application/json",
                &[("X-Atlarge-Request", &req_header)],
                error_body("worker dropped the query").as_bytes(),
            )
        }
    }
}

/// Waits for a run slot, runs the query's cell in it on this thread and
/// gives the slot back, also when the run panics; the outcome is then
/// `None`. Returns the outcome with the queue and run stage times.
fn run_in_slot(
    ticket: Ticket<'_>,
    shared: &Shared,
    query: &RunQuery,
    cancel: &CancelToken,
    tracer: &dyn Tracer,
) -> (Option<Result<CellOutput, String>>, [u64; 2]) {
    let scenario = shared
        .registry
        .get(&query.domain)
        .expect("validated queries name registered domains");
    let queued = Stopwatch::start();
    let _slot = ticket.wait();
    let queue_ns = queued.elapsed_nanos();
    let run_watch = Stopwatch::start();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        scenario.run_cell(
            &query.params,
            query.seed,
            query.replications,
            cancel,
            tracer,
        )
    }));
    (outcome.ok(), [queue_ns, run_watch.elapsed_nanos()])
}

/// Answers `503` with a `Retry-After` derived from the pulse plane's
/// service-time EWMA and the current backlog, and charges the shed to
/// the availability budget.
fn shed<W: Write>(w: &mut W, shared: &Arc<Shared>, req_header: &str) -> std::io::Result<()> {
    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
    shared.pulse.observe_shed();
    let retry = shared
        .pulse
        .retry_after_secs(shared.gate.queued(), shared.gate.slots())
        .to_string();
    write_response(
        w,
        503,
        "application/json",
        &[("Retry-After", &retry), ("X-Atlarge-Request", req_header)],
        error_body("query pool saturated, retry later").as_bytes(),
    )
}

/// Streams a traced run as chunked JSONL. The run is admitted to the
/// same gate as `/run` and executes on this connection thread once it
/// holds a slot, so tracing traffic and `/run` traffic share one bound.
fn handle_trace(mut stream: TcpStream, request: &Request, shared: &Arc<Shared>) {
    let req_id = shared.pulse.begin_request();
    let req_header = req_id.to_string();
    let pairs = request.query_pairs();
    let query = match validate_query(&shared.registry, &pairs) {
        Ok(query) => query,
        Err(reason) => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            let _closing = write_response(
                &mut stream,
                400,
                "application/json",
                &[("X-Atlarge-Request", &req_header)],
                error_body(&reason).as_bytes(),
            );
            return;
        }
    };
    let Some(ticket) = shared.gate.admit() else {
        let _closing = shed(&mut stream, shared, &req_header);
        return;
    };
    shared.stats.trace_streams.fetch_add(1, Ordering::Relaxed);

    let key = query.cache_key();
    let query = query.to_run_query();
    if write_chunked_head(
        &mut stream,
        200,
        "application/jsonl",
        &[("X-Atlarge-Key", &key), ("X-Atlarge-Request", &req_header)],
    )
    .is_err()
    {
        return; // the ticket's drop gives its place back
    }

    let cancel = CancelToken::new();
    let hangup = cancel.clone();
    let sink = JsonlSink::new(ChunkedWriter::new(stream)).on_error(move || hangup.cancel());
    let (outcome, [queue_ns, run_ns]) = run_in_slot(ticket, shared, &query, &cancel, &sink);
    // A panicking run drops the stream with no tail: the client sees
    // the body end without its terminating chunk.
    let Some(outcome) = outcome else { return };
    let client_gone = sink.has_failed();
    // The serving-side span rides in the stream itself, ahead of the
    // manifest so the manifest stays the last record before the
    // closing result document.
    let span = SpanRecord {
        id: req_id,
        domain: query.domain.clone(),
        outcome: if outcome.is_ok() || client_gone {
            Outcome::Stream
        } else {
            Outcome::Error
        },
        stage_ns: [queue_ns, run_ns, 0, 0],
        total_ns: queue_ns + run_ns,
        seq: 0,
    };
    sink.emit_raw(&span.render_trace_line());
    let manifest = query_manifest(&query);
    // Closing handshake: manifest line, then the final result line (or
    // the error), then the terminating chunk.
    let write_watch = Stopwatch::start();
    if let Ok(mut chunked) = sink.finish_into(&manifest) {
        let tail = match &outcome {
            Ok(output) => render_body(&query, &key, output),
            Err(reason) => error_body(reason),
        };
        if chunked.write_all(tail.as_bytes()).is_ok() {
            let _closing = chunked.finish();
        }
    }
    if outcome.is_err() && !client_gone {
        shared.stats.server_errors.fetch_add(1, Ordering::Relaxed);
    }
    shared.pulse.observe(
        req_id,
        &query.domain,
        span.outcome,
        [queue_ns, run_ns, 0, write_watch.elapsed_nanos()],
    );
}

/// `/watch` window length bounds, milliseconds.
const WATCH_WINDOW_MIN_MS: u64 = 100;
/// See [`WATCH_WINDOW_MIN_MS`].
const WATCH_WINDOW_MAX_MS: u64 = 60_000;

/// Streams 1-second (configurable) aggregate windows as chunked JSONL
/// `kind:"pulse"` lines until the client hangs up, the server shuts
/// down, or the requested window count is reached.
fn handle_watch(mut stream: TcpStream, request: &Request, shared: &Arc<Shared>) {
    let req_id = shared.pulse.begin_request();
    let req_header = req_id.to_string();
    let windows: u64 = match query_param(request, "windows")
        .map(|n| n.parse())
        .transpose()
    {
        Ok(n) => n.unwrap_or(0),
        Err(_) => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            let _closing = write_response(
                &mut stream,
                400,
                "application/json",
                &[("X-Atlarge-Request", &req_header)],
                error_body("windows must be a non-negative integer").as_bytes(),
            );
            return;
        }
    };
    let window_ms: u64 = match query_param(request, "window_ms")
        .map(|n| n.parse())
        .transpose()
    {
        Ok(n) => n
            .unwrap_or(1_000)
            .clamp(WATCH_WINDOW_MIN_MS, WATCH_WINDOW_MAX_MS),
        Err(_) => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            let _closing = write_response(
                &mut stream,
                400,
                "application/json",
                &[("X-Atlarge-Request", &req_header)],
                error_body("window_ms must be a positive integer").as_bytes(),
            );
            return;
        }
    };
    if write_chunked_head(
        &mut stream,
        200,
        "application/jsonl",
        &[("X-Atlarge-Request", &req_header)],
    )
    .is_err()
    {
        return;
    }
    shared.stats.watch_streams.fetch_add(1, Ordering::Relaxed);

    let mut chunked = ChunkedWriter::new(stream);
    let watch = Stopwatch::start();
    let window = std::time::Duration::from_millis(window_ms);
    let mut prev = shared.pulse.snapshot(&shared.stats);
    let mut last_s = watch.elapsed_secs();
    let mut emitted = 0u64;
    loop {
        let mut slept = std::time::Duration::ZERO;
        while slept < window {
            if !shared.running.load(Ordering::Acquire) {
                let _closing = chunked.finish();
                return;
            }
            let step = IDLE_POLL.min(window - slept);
            std::thread::sleep(step);
            slept += step;
        }
        let now_s = watch.elapsed_secs();
        let cur = shared.pulse.snapshot(&shared.stats);
        let line = render_window(
            &shared.pulse,
            &prev,
            &cur,
            now_s - last_s,
            shared.gate.queued(),
        );
        if chunked.write_all(line.as_bytes()).is_err() {
            return; // client hung up; nothing to clean beyond the stream
        }
        prev = cur;
        last_s = now_s;
        emitted += 1;
        if windows != 0 && emitted >= windows {
            let _closing = chunked.finish();
            return;
        }
    }
}
