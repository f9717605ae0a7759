//! Property tests for the exploration server's reproducibility
//! contract: for *any* sequence of what-if queries, every response —
//! cold or cached, under whatever interleaving the connection and pool
//! threads produce — is byte-identical to a fresh single-threaded
//! execution of the same cell.

use atlarge::exp::{CancelToken, Registry};
use atlarge::obsv::fingerprint::canonical_key;
use atlarge::serve::http::{parse_query, read_request};
use atlarge::serve::query::{parse_run_query, query_manifest, render_body, validate_query};
use atlarge::serve::{cache_key, get, standard_registry, ServeConfig, Server};
use atlarge::telemetry::NullTracer;
use atlarge_check::{check, vec_of};
use rand::rngs::StdRng;
use rand::Rng;
use std::io::BufReader;

/// One generated what-if query over the cheap corners of two domains,
/// decoded from plain integer draws.
fn build_query(pick: u64, seed: u64, reps: u64, a: u64, b: u64) -> String {
    let seed = seed % 1_000;
    let reps = 1 + reps % 3;
    if pick.is_multiple_of(2) {
        let hosts = 1 + a % 4;
        let cores = 2 + b % 7;
        let jobs = 20 + (a % 5) * 13;
        format!(
            "/run?domain=datacenter&hosts={hosts}&cores_per_host={cores}&jobs={jobs}&seed={seed}&replications={reps}"
        )
    } else {
        let platform = ["sequential", "parallel", "edge-centric", "accelerator"][(a % 4) as usize];
        let algorithm = ["bfs", "pagerank", "wcc"][(b % 3) as usize];
        let n = 250 + (a % 4) * 50;
        format!(
            "/run?domain=graph&platform={platform}&algorithm={algorithm}&n={n}&seed={seed}&replications={reps}"
        )
    }
}

/// The reference answer: parse + validate the same query string, then
/// run the cell directly on this thread — no server, no pool, no cache
/// — and render it with the same canonical encoder.
fn reference_body(registry: &Registry, path_and_query: &str) -> Vec<u8> {
    let query_string = path_and_query
        .split_once('?')
        .expect("generated queries carry a query string")
        .1;
    let pairs: Vec<(String, String)> = query_string
        .split('&')
        .map(|pair| {
            let (k, v) = pair.split_once('=').expect("k=v");
            (k.to_string(), v.to_string())
        })
        .collect();
    let query = parse_run_query(registry, &pairs).expect("generated queries validate");
    let output = registry
        .get(&query.domain)
        .expect("registered domain")
        .run_cell(
            &query.params,
            query.seed,
            query.replications,
            &CancelToken::new(),
            &NullTracer,
        )
        .expect("cheap cells succeed");
    render_body(&query, &cache_key(&query), &output).into_bytes()
}

/// Any query sequence: every server answer (first ask = cold run on the
/// pool, second ask = cache hit) equals the fresh single-threaded
/// reference, byte for byte.
#[test]
fn prop_responses_match_fresh_single_threaded_runs() {
    check(
        "prop_responses_match_fresh_single_threaded_runs",
        8,
        |rng| {
            let picks = vec_of(rng, 1..5, |rng| {
                let mut draw = || rng.gen_range(0u64..u64::MAX);
                (draw(), draw(), draw(), draw(), draw())
            });
            let registry = standard_registry();
            let server = Server::start(standard_registry(), ServeConfig::default())
                .expect("bind ephemeral port");
            let addr = server.addr().to_string();

            for (pick, seed, reps, a, b) in picks {
                let path = build_query(pick, seed, reps, a, b);
                let expected = reference_body(&registry, &path);

                let cold = get(&addr, &path).expect("cold response");
                assert_eq!(cold.status, 200, "{}", cold.body_str());
                assert_eq!(
                    &cold.body, &expected,
                    "cold body diverged from the single-threaded reference for {path}"
                );

                let cached = get(&addr, &path).expect("cached response");
                assert_eq!(cached.header("X-Atlarge-Cache"), Some("hit"));
                assert_eq!(
                    &cached.body, &expected,
                    "cache hit diverged from the single-threaded reference for {path}"
                );
            }
            server.shutdown();
        },
    );
}

/// Equivalent spellings (reordered pairs, defaults made explicit,
/// percent-encoded bytes) alias to the same cache entry; the first
/// spelling's cold body answers every later spelling.
#[test]
fn prop_equivalent_spellings_share_one_cache_entry() {
    check(
        "prop_equivalent_spellings_share_one_cache_entry",
        8,
        |rng| {
            let a = rng.gen_range(0u64..u64::MAX);
            let b = rng.gen_range(0u64..u64::MAX);
            let seed = rng.gen_range(0u64..500);
            let server = Server::start(standard_registry(), ServeConfig::default())
                .expect("bind ephemeral port");
            let addr = server.addr().to_string();

            let hosts = 1 + a % 4;
            let jobs = 20 + (b % 5) * 13;
            let spellings = [
            format!("/run?domain=datacenter&hosts={hosts}&jobs={jobs}&seed={seed}"),
            format!("/run?jobs={jobs}&seed={seed}&domain=datacenter&hosts={hosts}"),
            // Defaults written out: cores_per_host and replications.
            format!(
                "/run?domain=datacenter&hosts={hosts}&cores_per_host=16&jobs={jobs}&seed={seed}&replications=1"
            ),
            // Percent-encoded bytes in a reserved key's value and in a
            // parameter's name.
            format!("/run?domain=%64atacenter&hosts={hosts}&%6Aobs={jobs}&seed={seed}"),
        ];
            let first = get(&addr, &spellings[0]).expect("cold response");
            assert_eq!(first.status, 200, "{}", first.body_str());
            assert_eq!(first.header("X-Atlarge-Cache"), Some("miss"));
            for spelling in &spellings[1..] {
                let again = get(&addr, spelling).expect("response");
                assert_eq!(
                    again.header("X-Atlarge-Cache"),
                    Some("hit"),
                    "alias missed the cache: {spelling}"
                );
                assert_eq!(&again.body, &first.body);
            }
            server.shutdown();
        },
    );
}

/// `text` with each byte, at random, written as a `%XX` escape.
fn percent_encode(rng: &mut StdRng, text: &str) -> String {
    text.bytes()
        .map(|b| {
            if rng.gen_bool(0.3) {
                format!("%{b:02X}")
            } else {
                char::from(b).to_string()
            }
        })
        .collect()
}

/// The key the server computes for a `/run` head — decode the query in
/// place, validate it borrowed, key the borrowed query — equals the
/// owned path's key, `canonical_key(&query_manifest(&parse_run_query(..)))`,
/// of the canonical spelling, over every domain of the standard
/// registry and any spelling: reordered pairs, defaults written out or
/// left out, and percent-encoded keys and values (`domain=%67raph`).
#[test]
fn prop_borrowed_server_key_equals_owned_key() {
    let registry = standard_registry();
    check("prop_borrowed_server_key_equals_owned_key", 64, |rng| {
        for &domain in &registry.domains() {
            let seed = if rng.gen_bool(0.3) {
                42
            } else {
                rng.gen_range(0u64..1_000_000)
            };
            let replications = if rng.gen_bool(0.5) {
                1
            } else {
                rng.gen_range(1u64..=64)
            };
            let mut canonical = vec![
                ("domain".to_string(), domain.to_string()),
                ("seed".to_string(), seed.to_string()),
                ("replications".to_string(), replications.to_string()),
            ];
            // The spelling leaves out what is at its default half the time.
            let mut spelled = vec![canonical[0].clone()];
            if seed != 42 || rng.gen_bool(0.5) {
                spelled.push(canonical[1].clone());
            }
            if replications != 1 || rng.gen_bool(0.5) {
                spelled.push(canonical[2].clone());
            }
            for spec in registry.specs(domain).expect("listed") {
                let value = match (&spec.default, spec.choices.is_empty()) {
                    (Some(d), _) if rng.gen_bool(0.4) => d.clone(),
                    (_, false) => spec.choices[rng.gen_range(0..spec.choices.len())].clone(),
                    _ => rng.gen_range(1u32..100_000).to_string(),
                };
                let pair = (spec.name.clone(), value);
                if spec.default.as_ref() != Some(&pair.1) || rng.gen_bool(0.5) {
                    spelled.push(pair.clone());
                }
                canonical.push(pair);
            }
            for i in (1..spelled.len()).rev() {
                spelled.swap(i, rng.gen_range(0..=i));
            }
            let query_string: Vec<String> = spelled
                .iter()
                .map(|(k, v)| format!("{}={}", percent_encode(rng, k), percent_encode(rng, v)))
                .collect();
            let head = format!(
                "GET /run?{} HTTP/1.1\r\nHost: h\r\n\r\n",
                query_string.join("&")
            );

            let mut buffer = Vec::new();
            let request = read_request(&mut BufReader::new(head.as_bytes()), &mut buffer)
                .expect("head parses");
            let pairs = request.query_pairs();
            let server_key = validate_query(&registry, &pairs)
                .unwrap_or_else(|e| panic!("{head}: {e}"))
                .cache_key();

            let owned_key = |raw: &[(String, String)]| {
                canonical_key(&query_manifest(
                    &parse_run_query(&registry, raw).unwrap_or_else(|e| panic!("{head}: {e}")),
                ))
            };
            assert_eq!(server_key, owned_key(&canonical), "{head}");
            assert_eq!(server_key, owned_key(&parse_query(request.query)), "{head}");
        }
    });
}
