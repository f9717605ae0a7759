//! Function pools on the parallel-in-time kernel.
//!
//! The sealed [`platform`](crate::platform) model routes every
//! invocation through one global `FaasPlatform` state — exact, but
//! serial. This module decomposes the platform the way real FaaS
//! deployments shard it: each *function's pool* (warm instances, busy
//! count, billing meter) is an independent [`LogicalProcess`], and
//! workflow chains hop between pools through the router. Every hop pays
//! the router overhead in transit, and that overhead is exactly the
//! kernel lookahead: no function can influence another's pool sooner
//! than `router_overhead`, so shards simulate independently between
//! router hops and the merged run is byte-identical at any shard count.
//!
//! Per-invocation semantics mirror the sealed platform: an invocation
//! pays `router_overhead` (here: in transit to the pool) plus
//! `cold_start` when no warm instance is idle, then `exec_time`; idle
//! instances are reclaimed `keep_alive` seconds after going idle.
//!
//! `FaasPlatform`: crate::FaasPlatform

use crate::platform::{FaasConfig, FunctionSpec};
use atlarge_des::shard::{
    LogicalProcess, PartitionError, ShardCtx, ShardedSimulation, StaticPartition,
};
use atlarge_telemetry::tracer::EventLabel;
use std::sync::Arc;

/// Events of one function pool.
#[derive(Debug, Clone)]
pub(crate) enum PoolEvent {
    /// A request arrives at this function's pool (router overhead
    /// already paid in transit).
    Invoke {
        /// Unique request id, assigned in arrival order.
        req: u64,
        /// Workflow chain the request follows.
        chain: u32,
        /// Stage of the chain this invocation executes.
        stage: u32,
        /// When the request originally arrived at the router.
        enqueued: f64,
        /// Cold starts paid by the request so far.
        cold_hops: u32,
    },
    /// An instance finishes executing.
    Finish {
        /// Request id.
        req: u64,
        /// Workflow chain.
        chain: u32,
        /// Completed stage.
        stage: u32,
        /// Original arrival time.
        enqueued: f64,
        /// Cold starts paid so far (including this stage's, if any).
        cold_hops: u32,
    },
    /// A keep-alive timer fires for an idle instance.
    Expire {
        /// When the instance went idle.
        idle_since: f64,
    },
}

impl EventLabel for PoolEvent {
    fn label(&self) -> &'static str {
        match self {
            PoolEvent::Invoke { .. } => "invoke",
            PoolEvent::Finish { .. } => "finish",
            PoolEvent::Expire { .. } => "expire",
        }
    }
}

/// End-to-end outcome of one workflow request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Request id (arrival order).
    pub req: u64,
    /// Arrival time at the router.
    pub enqueued: f64,
    /// End-to-end latency through the whole chain.
    pub latency: f64,
    /// Cold starts the request paid across its stages.
    pub cold_hops: u32,
}

/// Result of a sharded platform run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedFaasResult {
    /// Completed requests, sorted by request id.
    pub requests: Vec<RequestOutcome>,
    /// Total function invocations executed (stages, not requests).
    pub invocations: usize,
    /// Invocations that paid a cold start.
    pub cold: usize,
    /// Total GB-seconds billed.
    pub gb_seconds: f64,
}

impl ShardedFaasResult {
    /// Fraction of invocations that paid a cold start.
    pub fn cold_fraction(&self) -> f64 {
        self.cold as f64 / self.invocations.max(1) as f64
    }

    /// Mean end-to-end request latency.
    pub fn mean_latency(&self) -> f64 {
        self.requests.iter().map(|r| r.latency).sum::<f64>() / self.requests.len().max(1) as f64
    }
}

/// One function's pool: the per-function slice of the sealed platform's
/// state, plus the routing table of the workflow chains.
pub(crate) struct FunctionPool {
    spec: FunctionSpec,
    config: FaasConfig,
    chains: Arc<Vec<Vec<usize>>>,
    /// Warm idle instances, keyed by when they went idle.
    idle: Vec<f64>,
    busy: usize,
    /// Requests whose *final* stage ran here.
    completed: Vec<RequestOutcome>,
    invocations: usize,
    cold: usize,
    gb_seconds: f64,
}

impl FunctionPool {
    fn new(spec: FunctionSpec, config: FaasConfig, chains: Arc<Vec<Vec<usize>>>) -> Self {
        FunctionPool {
            spec,
            config,
            chains,
            idle: Vec::new(),
            busy: 0,
            completed: Vec::new(),
            invocations: 0,
            cold: 0,
            gb_seconds: 0.0,
        }
    }
}

impl LogicalProcess for FunctionPool {
    type Event = PoolEvent;

    fn handle(&mut self, ev: PoolEvent, ctx: &mut ShardCtx<'_, PoolEvent>) {
        match ev {
            PoolEvent::Invoke {
                req,
                chain,
                stage,
                enqueued,
                cold_hops,
            } => {
                self.invocations += 1;
                let warm = self.idle.pop().is_some();
                self.busy += 1;
                let mut delay = self.spec.exec_time;
                let mut cold_hops = cold_hops;
                if !warm {
                    self.cold += 1;
                    cold_hops += 1;
                    delay += self.config.cold_start;
                }
                self.gb_seconds += self.spec.exec_time * self.spec.memory_gb;
                ctx.schedule_in(
                    delay,
                    PoolEvent::Finish {
                        req,
                        chain,
                        stage,
                        enqueued,
                        cold_hops,
                    },
                );
            }
            PoolEvent::Finish {
                req,
                chain,
                stage,
                enqueued,
                cold_hops,
            } => {
                self.busy = self.busy.saturating_sub(1);
                self.idle.push(ctx.now());
                ctx.schedule_in(
                    self.config.keep_alive,
                    PoolEvent::Expire {
                        idle_since: ctx.now(),
                    },
                );
                let next = self
                    .chains
                    .get(chain as usize)
                    .and_then(|c| c.get(stage as usize + 1))
                    .copied();
                match next {
                    Some(func) => {
                        // The next router hop: its overhead is the
                        // lookahead the partition declared, so this send
                        // is legal from any shard to any other.
                        ctx.send_in(
                            self.config.router_overhead,
                            func as u32,
                            PoolEvent::Invoke {
                                req,
                                chain,
                                stage: stage + 1,
                                enqueued,
                                cold_hops,
                            },
                        );
                    }
                    None => self.completed.push(RequestOutcome {
                        req,
                        enqueued,
                        latency: ctx.now() - enqueued,
                        cold_hops,
                    }),
                }
            }
            PoolEvent::Expire { idle_since } => {
                // Reclaim the instance only if it is still idle since then.
                if let Some(pos) = self.idle.iter().position(|&t| t == idle_since) {
                    self.idle.remove(pos);
                }
            }
        }
    }
}

/// Runs workflow chains over sharded function pools.
///
/// `chains` lists each workflow as a sequence of function indices;
/// `requests` lists `(arrival_time, chain_index)` pairs. Functions are
/// distributed over `shards` shards block-wise with the router overhead
/// as lookahead (it must be strictly positive). The result is
/// byte-identical for every `shards`/`threads` combination.
///
/// # Panics
///
/// Panics if a chain is empty or names an unknown function, mirroring
/// `FaasPlatform::new`'s
/// up-front registry validation.
pub fn run_sharded_platform(
    functions: Vec<FunctionSpec>,
    config: FaasConfig,
    chains: Vec<Vec<usize>>,
    requests: &[(f64, usize)],
    seed: u64,
    shards: usize,
    threads: usize,
) -> Result<ShardedFaasResult, PartitionError> {
    assert!(!functions.is_empty(), "register at least one function");
    for chain in &chains {
        assert!(!chain.is_empty(), "workflow chains must have a stage");
        for &f in chain {
            assert!(f < functions.len(), "chain names unknown function {f}");
        }
    }
    let part = StaticPartition::block(functions.len(), shards, config.router_overhead);
    let chains = Arc::new(chains);
    let lps: Vec<FunctionPool> = functions
        .into_iter()
        .map(|spec| FunctionPool::new(spec, config, Arc::clone(&chains)))
        .collect();
    let mut sim: ShardedSimulation<_, _> =
        ShardedSimulation::new(part, lps, seed)?.with_threads(threads);
    for (req, &(t, chain)) in requests.iter().enumerate() {
        let Some(entry) = chains.get(chain).and_then(|c| c.first()).copied() else {
            continue;
        };
        // The entry router hop: requests reach the first pool one
        // router overhead after arriving at the router.
        sim.schedule(
            t + config.router_overhead,
            entry as u32,
            PoolEvent::Invoke {
                req: req as u64,
                chain: chain as u32,
                stage: 0,
                enqueued: t,
                cold_hops: 0,
            },
        );
    }
    sim.run();
    let mut requests_out = Vec::new();
    let mut invocations = 0;
    let mut cold = 0;
    let mut gb_seconds = 0.0;
    for pool in sim.into_lps() {
        requests_out.extend(pool.completed);
        invocations += pool.invocations;
        cold += pool.cold;
        gb_seconds += pool.gb_seconds;
    }
    requests_out.sort_by_key(|r| r.req);
    Ok(ShardedFaasResult {
        requests: requests_out,
        invocations,
        cold,
        gb_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::run_platform;

    /// End-to-end latencies sorted ascending (for percentile reads and
    /// order-insensitive comparisons).
    fn sorted_latencies(result: &ShardedFaasResult) -> Vec<f64> {
        let mut v: Vec<f64> = result.requests.iter().map(|r| r.latency).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn specs(n: usize) -> Vec<FunctionSpec> {
        (0..n)
            .map(|i| FunctionSpec {
                name: format!("f{i}"),
                exec_time: 0.05 + 0.01 * i as f64,
                memory_gb: 0.128,
            })
            .collect()
    }

    #[test]
    fn results_are_identical_at_every_shard_and_thread_count() {
        let chains = vec![vec![0, 1, 2], vec![3, 4, 5], vec![2, 4], vec![5]];
        let requests: Vec<(f64, usize)> = (0..40).map(|i| (i as f64 * 0.3, i % 4)).collect();
        let reference = run_sharded_platform(
            specs(6),
            FaasConfig::default(),
            chains.clone(),
            &requests,
            5,
            1,
            1,
        )
        .expect("valid run");
        assert_eq!(reference.requests.len(), 40);
        for shards in [2usize, 3, 6] {
            for threads in [1usize, 2] {
                let got = run_sharded_platform(
                    specs(6),
                    FaasConfig::default(),
                    chains.clone(),
                    &requests,
                    5,
                    shards,
                    threads,
                )
                .expect("valid run");
                assert_eq!(
                    got, reference,
                    "platform diverged at {shards} shards / {threads} threads"
                );
            }
        }
    }

    #[test]
    fn single_stage_chains_match_the_sealed_platform() {
        // On one-function workflows the sharded pools degenerate to the
        // sealed platform's per-invocation semantics: router overhead +
        // optional cold start + exec time, with keep-alive reuse.
        let requests: Vec<(f64, usize)> = (0..20).map(|i| (i as f64 * 1.7, i % 3)).collect();
        let chains = vec![vec![0], vec![1], vec![2]];
        let sharded =
            run_sharded_platform(specs(3), FaasConfig::default(), chains, &requests, 9, 3, 2)
                .expect("valid run");
        let invocations: Vec<(f64, usize)> = requests.iter().map(|&(t, c)| (t, c)).collect();
        let sealed = run_platform(specs(3), FaasConfig::default(), &invocations, 9, None);
        let mut sealed_lat = sealed.latencies.clone();
        sealed_lat.sort_by(f64::total_cmp);
        let got = sorted_latencies(&sharded);
        assert_eq!(got.len(), sealed_lat.len());
        for (g, s) in got.iter().zip(&sealed_lat) {
            // The sealed engine sums router + exec (+ cold) in one
            // expression; the sharded run splits the router hop out, so
            // the two associate differently — equal up to rounding.
            assert!((g - s).abs() < 1e-12, "latency {g} vs sealed {s}");
        }
        assert_eq!(sharded.cold_fraction(), sealed.cold_fraction);
        assert!((sharded.gb_seconds - sealed.gb_seconds).abs() < 1e-12);
    }

    #[test]
    fn chain_latency_adds_router_hops_and_cold_starts() {
        let config = FaasConfig::default();
        let result = run_sharded_platform(specs(2), config, vec![vec![0, 1]], &[(0.0, 0)], 1, 2, 2)
            .expect("valid run");
        assert_eq!(result.requests.len(), 1);
        let r = result.requests[0];
        assert_eq!(r.cold_hops, 2, "both stages start cold");
        let expected = 2.0 * config.router_overhead + 2.0 * config.cold_start + 0.05 + 0.06;
        assert!(
            (r.latency - expected).abs() < 1e-9,
            "latency {} expected {expected}",
            r.latency
        );
    }

    #[test]
    fn warm_instances_are_reused_within_keep_alive() {
        let result = run_sharded_platform(
            specs(2),
            FaasConfig::default(),
            vec![vec![0, 1]],
            &[(0.0, 0), (10.0, 0)],
            1,
            2,
            1,
        )
        .expect("valid run");
        assert_eq!(result.invocations, 4);
        assert_eq!(result.cold, 2, "second request must run warm end to end");
        assert_eq!(result.requests[1].cold_hops, 0);
        assert!(result.requests[1].latency < result.requests[0].latency);
    }

    #[test]
    fn zero_router_overhead_is_rejected() {
        let config = FaasConfig {
            router_overhead: 0.0,
            ..FaasConfig::default()
        };
        let err = run_sharded_platform(specs(2), config, vec![vec![0]], &[], 1, 2, 1).err();
        assert!(
            matches!(err, Some(PartitionError::BadLookahead { .. })),
            "expected BadLookahead, got {err:?}"
        );
    }
}
