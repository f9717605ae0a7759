//! Bench: the exploration server under concurrent what-if load.
//!
//! Starts a real `atlarge-serve` server on an ephemeral port and drives
//! it with 1, 8, and 64 concurrent keep-alive clients, twice over:
//!
//! - **cold** — every request is a distinct cache key (the seed varies
//!   per request), so each answer runs a fresh datacenter capacity cell
//!   behind the run gate;
//! - **cached** — every request repeats one prewarmed query, so each
//!   answer comes from the fingerprint-keyed LRU.
//!
//! Reports p50/p99 latency and aggregate throughput per concurrency
//! level, asserts the cache contract along the way (every cached
//! response byte-identical to the cold body that populated it), and
//! rewrites the `BENCH_serve.json` baseline at the workspace root.
//! `--test` runs a seconds-scale smoke and writes nothing.

use atlarge_serve::{standard_registry, ClientConn, ServeConfig, Server};
use atlarge_stats::descriptive::Summary;
use std::time::Instant;

/// The benched query, sans seed: a small capacity cell (~a millisecond
/// of simulation), so the harness measures the server, not one domain.
const QUERY: &str = "/run?domain=datacenter&hosts=2&cores_per_host=8&jobs=40&replications=1";

/// Per-level measurements.
struct Level {
    clients: usize,
    p50_ms: f64,
    p99_ms: f64,
    throughput_rps: f64,
}

fn start_server() -> Server {
    Server::start(
        standard_registry(),
        ServeConfig {
            queue_capacity: 256,
            cache_capacity: 16_384,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// Runs `clients` keep-alive connections, each issuing `requests`
/// queries produced by `path(client, request)`, and returns per-request
/// latencies (ms) plus the measured wall time (s).
fn drive(
    addr: &str,
    clients: usize,
    requests: usize,
    path: impl Fn(usize, usize) -> String + Send + Sync + Copy + 'static,
) -> (Vec<f64>, f64) {
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut conn = ClientConn::connect(&addr).expect("connect");
                let mut latencies = Vec::with_capacity(requests);
                for request in 0..requests {
                    let target = path(client, request);
                    let sent = Instant::now();
                    let response = conn.get(&target).expect("response");
                    latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                    assert_eq!(response.status, 200, "{}", response.body_str());
                }
                latencies
            })
        })
        .collect();
    let mut all = Vec::with_capacity(clients * requests);
    for handle in handles {
        all.extend(handle.join().expect("client thread"));
    }
    let elapsed = wall.elapsed().as_secs_f64();
    (all, elapsed)
}

fn level_from(clients: usize, latencies_ms: &[f64], wall_s: f64) -> Level {
    let summary = Summary::from_slice(latencies_ms);
    Level {
        clients,
        p50_ms: summary.quantile(0.5),
        p99_ms: summary.quantile(0.99),
        throughput_rps: latencies_ms.len() as f64 / wall_s,
    }
}

/// Cold pass at one concurrency level: unique seed per request, so
/// every query is a distinct cell. `epoch` keeps seeds distinct across
/// levels too — reuse would turn late "cold" requests into hits.
fn cold_level(addr: &str, clients: usize, requests: usize, epoch: usize) -> Level {
    let (latencies, wall) = drive(addr, clients, requests, move |client, request| {
        let seed = 1_000_000 * epoch + 10_000 * client + request;
        format!("{QUERY}&seed={seed}")
    });
    level_from(clients, &latencies, wall)
}

/// Cached pass: every client repeats the prewarmed query.
fn cached_level(addr: &str, clients: usize, requests: usize, warm_seed: usize) -> Level {
    let (latencies, wall) = drive(addr, clients, requests, move |_, _| {
        format!("{QUERY}&seed={warm_seed}")
    });
    level_from(clients, &latencies, wall)
}

/// Asserts the cache contract: a repeat of a cold query is a hit and
/// byte-identical to the cold body.
fn assert_cache_contract(addr: &str, seed: usize) {
    let path = format!("{QUERY}&seed={seed}");
    let cold = atlarge_serve::get(addr, &path).expect("cold");
    let warm = atlarge_serve::get(addr, &path).expect("warm");
    assert_eq!(cold.status, 200);
    assert_eq!(warm.header("X-Atlarge-Cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "cache hit must be byte-identical");
}

fn json_levels(levels: &[Level]) -> String {
    let items: Vec<String> = levels
        .iter()
        .map(|l| {
            format!(
                "    {{\"clients\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"throughput_rps\": {:.0}}}",
                l.clients, l.p50_ms, l.p99_ms, l.throughput_rps
            )
        })
        .collect();
    items.join(",\n")
}

fn print_levels(kind: &str, levels: &[Level]) {
    for l in levels {
        println!(
            "  {kind} @ {:>2} clients: p50 {:.3} ms, p99 {:.3} ms, {:.0} req/s",
            l.clients, l.p50_ms, l.p99_ms, l.throughput_rps
        );
    }
}

/// Full measurement pass, written to `BENCH_serve.json`.
fn baseline() {
    let server = start_server();
    let addr = server.addr().to_string();
    let requests = 50;
    println!("serve_load baseline ({requests} requests per client):");

    assert_cache_contract(&addr, 999_999_999);

    let concurrency = [1usize, 8, 64];
    let cold: Vec<Level> = concurrency
        .iter()
        .enumerate()
        .map(|(epoch, &clients)| cold_level(&addr, clients, requests, epoch))
        .collect();
    print_levels("cold  ", &cold);

    // Prewarm one cell, then hammer it.
    let warm_seed = 424_242;
    let prewarmed =
        atlarge_serve::get(&addr, &format!("{QUERY}&seed={warm_seed}")).expect("prewarm");
    assert_eq!(prewarmed.status, 200);
    let cached: Vec<Level> = concurrency
        .iter()
        .map(|&clients| cached_level(&addr, clients, requests, warm_seed))
        .collect();
    print_levels("cached", &cached);

    // The hammered cell still answers exactly the prewarmed bytes.
    let still = atlarge_serve::get(&addr, &format!("{QUERY}&seed={warm_seed}")).expect("recheck");
    assert_eq!(still.header("X-Atlarge-Cache"), Some("hit"));
    assert_eq!(still.body, prewarmed.body, "cache body drifted under load");

    server.shutdown();

    let json = format!(
        "{{\n  \"schema\": \"atlarge-bench/serve/v1\",\n  \"query\": \"{}\",\n  \"requests_per_client\": {requests},\n  \"cold\": [\n{}\n  ],\n  \"cached\": [\n{}\n  ]\n}}\n",
        QUERY.replace('"', "\\\""),
        json_levels(&cold),
        json_levels(&cached),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Seconds-scale smoke of every measured code path, for CI.
fn smoke() {
    let server = start_server();
    let addr = server.addr().to_string();
    assert_cache_contract(&addr, 999_999_999);
    let cold = cold_level(&addr, 2, 3, 0);
    let prewarm = atlarge_serve::get(&addr, &format!("{QUERY}&seed=424242")).expect("prewarm");
    assert_eq!(prewarm.status, 200);
    let cached = cached_level(&addr, 2, 3, 424_242);
    assert!(cold.throughput_rps > 0.0 && cached.throughput_rps > 0.0);
    assert!(cold.p50_ms > 0.0 && cached.p99_ms >= cached.p50_ms);
    server.shutdown();
    println!("serve_load smoke: cold/cached paths all ran (--test mode, no JSON written)");
}

fn main() {
    // `cargo bench -- --test` (as in CI) runs everything briefly and
    // measures nothing.
    if std::env::args().any(|a| a == "--test") {
        smoke();
        return;
    }
    baseline();
}
