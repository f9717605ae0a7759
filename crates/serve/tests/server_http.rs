//! End-to-end tests of the exploration server over real sockets:
//! routing, validation, caching byte-identity, overload shedding,
//! streaming, keep-alive, and concurrent-client determinism.

use atlarge_exp::registry::{CellOutput, CellScenario, ParamSpec};
use atlarge_exp::{CancelToken, Registry};
use atlarge_obsv::jsonl::parse;
use atlarge_serve::client::{get, get_stream, ClientConn};
use atlarge_serve::server::{ServeConfig, Server};
use atlarge_serve::standard_registry;
use atlarge_stats::descriptive::Summary;
use atlarge_telemetry::tracer::Tracer;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;

/// A fast fixture domain that exercises the tracer hooks.
struct EchoCell;

impl CellScenario for EchoCell {
    fn domain(&self) -> &str {
        "echo"
    }
    fn describe(&self) -> &str {
        "test echo"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::optional("x", "a number", "1")]
    }
    fn run_cell(
        &self,
        params: &BTreeMap<String, String>,
        seed: u64,
        replications: usize,
        _cancel: &CancelToken,
        tracer: &dyn Tracer,
    ) -> Result<CellOutput, String> {
        let x: f64 = params["x"]
            .parse()
            .map_err(|_| format!("parameter 'x': cannot parse '{}'", params["x"]))?;
        for rep in 0..replications as u64 {
            tracer.on_span_enter(0.0, "echo");
            tracer.on_schedule(0.0, 1.0, "tick", rep, None);
            tracer.on_dispatch(1.0, "tick", 0, rep, None);
            tracer.on_span_exit(1.0, "echo");
        }
        Ok(CellOutput {
            metrics: vec![(
                "x_plus_seed".to_string(),
                Summary::from_iter((0..replications).map(|_| x + seed as f64)),
            )],
            notes: vec![("echoed".to_string(), params["x"].clone())],
        })
    }
}

/// A fixture domain that blocks until the test releases it — the lever
/// for deterministic overload tests.
struct GateCell {
    started: Sender<()>,
    release: Mutex<Receiver<()>>,
}

impl CellScenario for GateCell {
    fn domain(&self) -> &str {
        "gate"
    }
    fn describe(&self) -> &str {
        "test gate"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::optional("tag", "cache-buster", "0")]
    }
    fn run_cell(
        &self,
        _params: &BTreeMap<String, String>,
        _seed: u64,
        _replications: usize,
        _cancel: &CancelToken,
        _tracer: &dyn Tracer,
    ) -> Result<CellOutput, String> {
        self.started.send(()).expect("test alive");
        self.release
            .lock()
            .expect("gate lock")
            .recv()
            .expect("release signal");
        Ok(CellOutput {
            metrics: vec![("one".to_string(), Summary::from_slice(&[1.0]))],
            notes: vec![],
        })
    }
}

/// A fixture domain whose every run panics, like a model tripping an
/// assertion on an input its validation let through.
struct PanicCell;

impl CellScenario for PanicCell {
    fn domain(&self) -> &str {
        "boom"
    }
    fn describe(&self) -> &str {
        "test panic"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::optional("tag", "cache-buster", "0")]
    }
    fn run_cell(
        &self,
        _params: &BTreeMap<String, String>,
        _seed: u64,
        _replications: usize,
        _cancel: &CancelToken,
        _tracer: &dyn Tracer,
    ) -> Result<CellOutput, String> {
        panic!("the model tripped an assertion")
    }
}

fn echo_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(Box::new(EchoCell));
    registry
}

fn start(registry: Registry) -> (Server, String) {
    let server = Server::start(
        registry,
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    (server, addr)
}

#[test]
fn healthz_and_domains_describe_the_directory() {
    let (server, addr) = start(standard_registry());
    let health = get(&addr, "/healthz").expect("responds");
    assert_eq!(health.status, 200);
    let body = health.body_str();
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    for domain in [
        "p2p",
        "mmog",
        "serverless",
        "graph",
        "scheduling",
        "datacenter",
        "autoscaling",
    ] {
        assert!(body.contains(&format!("\"{domain}\"")), "missing {domain}");
    }
    let domains = get(&addr, "/domains").expect("responds");
    assert_eq!(domains.status, 200);
    let body = domains.body_str();
    assert!(body.contains("\"algorithm\""), "{body}");
    assert!(body.contains("\"choices\":[\"bfs\""), "{body}");
    server.shutdown();
}

#[test]
fn cold_then_cached_responses_are_byte_identical() {
    let (server, addr) = start(echo_registry());
    let path = "/run?domain=echo&x=3&seed=9";
    let cold = get(&addr, path).expect("cold run");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("X-Atlarge-Cache"), Some("miss"));
    let key = cold
        .header("X-Atlarge-Key")
        .expect("key header")
        .to_string();
    assert!(key.starts_with("ak1|"), "{key}");

    let warm = get(&addr, path).expect("cached run");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("X-Atlarge-Cache"), Some("hit"));
    assert_eq!(warm.header("X-Atlarge-Key"), Some(key.as_str()));
    assert_eq!(cold.body, warm.body, "hit must be byte-identical to cold");

    // A reordered spelling of the same cell also hits.
    let reordered = get(&addr, "/run?seed=9&x=3&domain=echo").expect("reordered");
    assert_eq!(reordered.header("X-Atlarge-Cache"), Some("hit"));
    assert_eq!(reordered.body, cold.body);

    let stats = get(&addr, "/stats").expect("stats");
    let body = stats.body_str();
    assert!(body.contains("\"cache_hits\":2"), "{body}");
    assert!(body.contains("\"cache_misses\":1"), "{body}");
    assert!(body.contains("\"echo\":{\"count\":"), "{body}");
    server.shutdown();
}

#[test]
fn validation_and_routing_errors_use_http_semantics() {
    let (server, addr) = start(echo_registry());
    let missing = get(&addr, "/run").expect("responds");
    assert_eq!(missing.status, 400);
    assert!(
        missing.body_str().contains("domain"),
        "{}",
        missing.body_str()
    );

    let unknown_domain = get(&addr, "/run?domain=nonesuch").expect("responds");
    assert_eq!(unknown_domain.status, 400);
    assert!(unknown_domain.body_str().contains("unknown domain"));

    let unknown_param = get(&addr, "/run?domain=echo&bogus=1").expect("responds");
    assert_eq!(unknown_param.status, 400);
    assert!(unknown_param.body_str().contains("unknown parameter"));

    let bad_value = get(&addr, "/run?domain=echo&x=banana").expect("responds");
    assert_eq!(bad_value.status, 400);
    assert!(bad_value.body_str().contains("cannot parse"));

    let lost = get(&addr, "/nonesuch").expect("responds");
    assert_eq!(lost.status, 404);

    let stats = get(&addr, "/stats").expect("stats");
    assert!(
        stats.body_str().contains("\"client_errors\":5"),
        "{}",
        stats.body_str()
    );
    server.shutdown();
}

#[test]
fn saturated_pool_answers_503_and_recovers() {
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel();
    let mut registry = Registry::new();
    registry.register(Box::new(GateCell {
        started: started_tx,
        release: Mutex::new(release_rx),
    }));
    let server = Server::start(
        registry,
        ServeConfig {
            threads: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    // First query occupies the single worker...
    let addr_a = addr.clone();
    let client_a = std::thread::spawn(move || get(&addr_a, "/run?domain=gate&tag=a"));
    started_rx.recv().expect("worker entered the gate");
    // ...second fills the single queue slot...
    let addr_b = addr.clone();
    let client_b = std::thread::spawn(move || get(&addr_b, "/run?domain=gate&tag=b"));
    // Wait until B's job actually holds the queue slot.
    loop {
        let stats = get(&addr, "/stats").expect("stats stays responsive");
        if stats.body_str().contains("\"queue_depth\":1") {
            break;
        }
        std::thread::yield_now();
    }
    // ...and the third is shed.
    let shed = get(&addr, "/run?domain=gate&tag=c").expect("responds");
    assert_eq!(shed.status, 503);
    assert!(shed.body_str().contains("saturated"));
    assert_eq!(shed.header("Retry-After"), Some("1"));

    release_tx.send(()).expect("A waiting");
    release_tx.send(()).expect("B waiting");
    let a = client_a.join().expect("join").expect("A answered");
    let b = client_b.join().expect("join").expect("B answered");
    assert_eq!(a.status, 200);
    assert_eq!(b.status, 200);

    // Capacity freed: the same shed query now succeeds.
    release_tx.send(()).expect("C waiting");
    let retried = get(&addr, "/run?domain=gate&tag=c").expect("responds");
    assert_eq!(retried.status, 200);
    let stats = get(&addr, "/stats").expect("stats");
    assert!(
        stats.body_str().contains("\"rejected\":1"),
        "{}",
        stats.body_str()
    );
    // Every admitted request gave its place back: a leaked ticket would
    // still count as queued here.
    let health = get(&addr, "/healthz").expect("healthz").body_str();
    let pool = parse(health.trim()).expect("valid JSON");
    let pool = pool.get("pool").expect("pool block");
    assert_eq!(pool.u64_field("queue_depth"), Some(0), "{health}");
    assert_eq!(pool.f64_field("saturation"), Some(0.0), "{health}");
    server.shutdown();
}

#[test]
fn trace_streams_chunked_jsonl_with_manifest_and_result() {
    let (server, addr) = start(echo_registry());
    let trace = get(&addr, "/trace?domain=echo&x=5&replications=2").expect("streams");
    assert_eq!(trace.status, 200);
    assert_eq!(
        trace.header("transfer-encoding"),
        Some("chunked"),
        "trace must stream"
    );
    let body = trace.body_str();
    let lines: Vec<&str> = body.lines().collect();
    // 2 replications × 4 hook calls, then the serving-side span, the
    // manifest, and the result.
    assert_eq!(lines.len(), 11, "{body}");
    assert!(lines[0].contains("\"kind\":\"span_enter\""), "{}", lines[0]);
    assert!(
        lines[8].contains("\"kind\":\"server_span\""),
        "{}",
        lines[8]
    );
    // The streamed span carries the same request id as the header —
    // one request is traceable end to end across the telemetry.
    let req_id = trace.header("X-Atlarge-Request").expect("request id");
    assert!(
        lines[8].contains(&format!("\"req\":{req_id},")),
        "span {} vs header {req_id}",
        lines[8]
    );
    assert!(lines[9].contains("\"kind\":\"manifest\""), "{}", lines[9]);
    assert!(
        lines[9].contains("\"model\":\"serve.echo\""),
        "{}",
        lines[9]
    );
    assert!(
        lines[10].starts_with("{\"domain\":\"echo\""),
        "{}",
        lines[10]
    );

    // The traced result agrees with the /run body for the same query.
    let run = get(&addr, "/run?domain=echo&x=5&replications=2").expect("runs");
    assert_eq!(lines[10], run.body_str().trim_end());

    let stats = get(&addr, "/stats").expect("stats");
    assert!(
        stats.body_str().contains("\"trace_streams\":1"),
        "{}",
        stats.body_str()
    );
    server.shutdown();
}

#[test]
fn keep_alive_connections_serve_request_sequences() {
    let (server, addr) = start(echo_registry());
    let mut conn = ClientConn::connect(&addr).expect("connect");
    let first = conn.get("/run?domain=echo&x=1").expect("first");
    let second = conn
        .get("/run?domain=echo&x=1")
        .expect("second on same socket");
    let health = conn.get("/healthz").expect("third on same socket");
    assert_eq!(first.status, 200);
    assert_eq!(second.header("X-Atlarge-Cache"), Some("hit"));
    assert_eq!(first.body, second.body);
    assert_eq!(health.status, 200);
    server.shutdown();
}

#[test]
fn sixty_four_concurrent_clients_get_deterministic_answers() {
    let (server, addr) = start(echo_registry());
    // 8 distinct cells, 8 clients each, all in flight together.
    let handles: Vec<_> = (0..64)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let cell = i % 8;
                let path = format!("/run?domain=echo&x={cell}&seed={cell}");
                let response = get(&addr, &path).expect("answered");
                (cell, response)
            })
        })
        .collect();
    let mut by_cell: BTreeMap<usize, Vec<atlarge_serve::HttpResponse>> = BTreeMap::new();
    for handle in handles {
        let (cell, response) = handle.join().expect("client thread");
        assert_eq!(response.status, 200);
        by_cell.entry(cell).or_default().push(response);
    }
    assert_eq!(by_cell.len(), 8);
    for (cell, responses) in &by_cell {
        assert_eq!(responses.len(), 8);
        let reference = &responses[0].body;
        for response in responses {
            assert_eq!(
                &response.body, reference,
                "cell {cell}: concurrent responses diverged"
            );
        }
        let body = String::from_utf8_lossy(reference);
        assert!(body.contains(&format!("\"echoed\":\"{cell}\"")), "{body}");
    }
    server.shutdown();
}

#[test]
fn a_real_domain_round_trips_through_the_server() {
    let (server, addr) = start(standard_registry());
    let path = "/run?domain=datacenter&hosts=2&cores_per_host=8&jobs=40&replications=2&seed=17";
    let cold = get(&addr, path).expect("cold");
    assert_eq!(cold.status, 200, "{}", cold.body_str());
    assert_eq!(cold.header("X-Atlarge-Cache"), Some("miss"));
    let body = cold.body_str();
    assert!(body.contains("\"makespan\""), "{body}");
    assert!(body.contains("\"n\":2"), "{body}");
    let warm = get(&addr, path).expect("warm");
    assert_eq!(warm.header("X-Atlarge-Cache"), Some("hit"));
    assert_eq!(cold.body, warm.body);
    server.shutdown();
}

#[test]
fn oversized_datacenter_queries_get_400_and_the_server_survives() {
    let (server, addr) = start(standard_registry());
    for path in [
        // The cluster's u32 core count would wrap to 0.
        "/run?domain=datacenter&hosts=4&cores_per_host=1073741824&jobs=50",
        // Holding every host would exhaust memory.
        "/run?domain=datacenter&hosts=100000000000&jobs=5",
    ] {
        let refused = get(&addr, path).expect("responds");
        assert_eq!(refused.status, 400, "{path}: {}", refused.body_str());
    }
    let health = get(&addr, "/healthz").expect("still answers");
    assert_eq!(health.status, 200);
    server.shutdown();
}

#[test]
fn a_panicking_query_answers_500_and_its_worker_keeps_serving() {
    let mut registry = echo_registry();
    registry.register(Box::new(PanicCell));
    let server = Server::start(
        registry,
        ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    // Every query after the first panic needs the one run slot to have
    // come back from it; without that they never answer, so bound the
    // wait.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let status = |path: &str| get(&addr, path).expect("responds").status;
        let boom = [
            status("/run?domain=boom&tag=a"),
            status("/run?domain=boom&tag=b"),
        ];
        // A panicking traced run: the head is already out, so the
        // stream just ends, without its terminating chunk.
        let mut stream = get_stream(&addr, "/trace?domain=boom&tag=c").expect("trace opens");
        let mut traced = Vec::new();
        while let Ok(Some(line)) = stream.next_line() {
            traced.push(line);
        }
        let fresh = get(&addr, "/run?domain=echo&x=7&seed=99").expect("responds");
        let _unobserved = tx.send((boom, (stream.status, traced), fresh));
    });
    let (boom, (trace_status, traced), fresh) = rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("a panicking query kept the only run slot");
    assert_eq!(boom, [500, 500]);
    assert_eq!(trace_status, 200);
    assert!(
        traced
            .iter()
            .all(|line| !line.contains("\"kind\":\"manifest\"")),
        "a panicking traced run closed its stream: {traced:?}"
    );
    assert_eq!(fresh.status, 200, "{}", fresh.body_str());
    // A run that unwound past its connection thread would never close
    // that connection, and the drain would wait for it forever.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _unobserved = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("shutdown never drained the panicking runs' connections");
}
