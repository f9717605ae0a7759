//! `atlarge-serve` — the persistent design-exploration server.
//!
//! The AtLarge vision's design process (§5) is iterative: pose a
//! what-if question, simulate, inspect, refine. Running a whole
//! campaign binary per question makes that loop minutes long; this
//! crate makes it a keep-alive HTTP round-trip. A long-lived server
//! holds every reproduced domain behind one query schema
//! ([`Registry`]), runs each cold cell on the connection thread that
//! asked for it behind a bounded run gate (at most `threads` runs at
//! once; overload answers `503`, never a growing backlog), and memoizes
//! rendered results in a fingerprint-keyed LRU — repeat questions are
//! answered from cache with **byte-identical** bodies, the same
//! reproducibility contract (`same_run_as`) the rest of the workspace
//! gates on, now applied to a service boundary.
//!
//! Endpoints:
//!
//! - `GET /healthz` — liveness plus the registered domain list.
//! - `GET /domains` — the query schema: every domain's parameters,
//!   defaults, and choices.
//! - `GET /run?domain=<d>&seed=<n>&replications=<r>&<param>=<v>…` —
//!   execute (or recall) one cell; `X-Atlarge-Cache: hit|miss` and
//!   `X-Atlarge-Key` report cache behavior without touching the body.
//! - `GET /trace?…` — the same query, streamed live as JSONL trace
//!   records over chunked transfer encoding, closed by a
//!   `server_span` record (the serving-side story of the request),
//!   the query manifest, and the result document.
//! - `GET /stats` — queue depth, cache hit rate, SLO state, and
//!   per-domain latency quantiles from log-scale histograms.
//! - `GET /metrics` — Prometheus text exposition: counters, gauges,
//!   per-stage and per-domain latency histograms, SLO burn rates.
//! - `GET /watch?windows=<n>&window_ms=<m>` — chunked JSONL stream of
//!   per-window aggregates (rps, p50/p99 per stage, hit rate, shed
//!   rate, queue depth, SLO burn) — the live dashboard feed.
//!
//! The observability plane behind `/metrics`, `/watch`, and the
//! request-scoped spans is [`pulse`]: lock-free sharded histograms
//! over [`atlarge_telemetry::hist`], a per-second SLO sample ring, and
//! a request-id counter whose ids ride the `X-Atlarge-Request` header.
//!
//! Everything is `std`-only: sockets from `std::net`, the HTTP/1.1
//! subset hand-written in [`http`], JSON via `atlarge-telemetry`'s
//! canonical encoder. No runtime, no framework, no serde.

pub mod cache;
pub mod client;
mod gate;
pub mod http;
pub mod pulse;
pub mod query;
pub mod server;
pub mod stats;

pub use atlarge_exp::Registry;
pub use cache::ResultCache;
pub use client::{get, get_stream, ClientConn, HttpResponse, StreamingResponse};
pub use pulse::{retry_after_secs, Outcome, Pulse, SloSpec, SloStatus, SpanRecord, Stage};
pub use query::{cache_key, parse_run_query, RunQuery};
pub use server::{ServeConfig, Server};
pub use stats::ServerStats;

/// The standard registry: every reproduced domain of the paper's
/// Table 5–9 and §6 studies, under its published domain name.
pub fn standard_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(Box::new(atlarge_p2p::experiments::TABLE5));
    registry.register(Box::new(atlarge_mmog::experiments::TABLE6));
    registry.register(Box::new(atlarge_serverless::experiments::TABLE7));
    registry.register(Box::new(atlarge_graph::experiments::PadExplorerCell));
    registry.register(Box::new(atlarge_scheduling::experiments::Table9Cell));
    registry.register(Box::new(atlarge_datacenter::experiments::CapacityCell));
    registry.register(Box::new(atlarge_autoscaling::experiments::AutoscaleCell));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_serves_all_seven_domains() {
        let registry = standard_registry();
        assert_eq!(
            registry.domains(),
            vec![
                "autoscaling",
                "datacenter",
                "graph",
                "mmog",
                "p2p",
                "scheduling",
                "serverless"
            ]
        );
        for domain in registry.domains() {
            let scenario = registry.get(domain).expect("listed");
            assert!(!scenario.describe().is_empty());
            assert!(!scenario.params().is_empty(), "{domain} declares params");
        }
    }
}
