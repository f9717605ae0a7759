//! The design-exploration server: every reproduced domain behind one
//! HTTP query schema, with fingerprint-keyed result caching and a
//! chunked JSONL `/trace` endpoint. `/trace` streams whatever records a
//! cell hands its tracer, but no registered domain routes the tracer
//! into its model run yet, so its answers hold the request's span, the
//! query manifest and the result only.
//!
//! ```sh
//! cargo run --release --example observatory_serve
//! # then, from another shell:
//! curl 'http://127.0.0.1:7411/run?domain=datacenter&hosts=8&jobs=400'
//! ```
//!
//! Pass `--addr HOST:PORT` to bind elsewhere (default `127.0.0.1:7411`,
//! port 0 picks a free one). The server runs until killed.

use atlarge::serve::{standard_registry, ServeConfig, Server};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = args
        .iter()
        .position(|a| a == "--addr")
        .map_or("127.0.0.1:7411".to_string(), |i| {
            args.get(i + 1).expect("--addr needs HOST:PORT").clone()
        });

    let registry = standard_registry();
    let domains = registry.domains().join(", ");
    let server = Server::start(
        registry,
        ServeConfig {
            addr,
            ..ServeConfig::default()
        },
    )
    .expect("bind address");
    let at = server.addr();

    println!("observatory serving on http://{at}");
    println!("domains: {domains}");
    println!();
    println!("try:");
    println!("  curl 'http://{at}/healthz'");
    println!("  curl 'http://{at}/domains'            # the full query schema");
    println!("  curl 'http://{at}/run?domain=datacenter&hosts=8&jobs=400'");
    println!("  curl 'http://{at}/run?domain=p2p&study=flashcrowd&replications=5'");
    println!("  curl 'http://{at}/trace?domain=graph&algorithm=pagerank&n=400'");
    println!("  curl 'http://{at}/stats'              # watch the cache warm up");
    println!("  curl 'http://{at}/metrics'            # Prometheus text exposition");
    println!("  curl 'http://{at}/watch'              # live 1s-window JSONL stream");
    println!();
    println!("or tail the live dashboard:");
    println!("  cargo run --release --example trace_lens -- watch {at}");
    println!();
    println!("repeat a query to see X-Atlarge-Cache flip from miss to hit");
    println!("(the body stays byte-identical). Ctrl-C to stop.");

    // The accept loop owns its own thread; park the main one for good.
    loop {
        std::thread::park();
    }
}
