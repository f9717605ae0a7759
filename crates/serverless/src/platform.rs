//! The FaaS platform simulator.
//!
//! The components follow the SPEC-RG reference architecture
//! ([`crate::refarch`]): requests enter through a router, a scheduler
//! places them on warm instances of the target function or triggers a
//! cold start; idle instances expire after a keep-alive window. The
//! simulator exposes the metrics that the performance-challenges vision
//! \[102\] put on the agenda — cold-start fraction, latency percentiles,
//! and the pay-per-use cost that principle (2) of \[101\] demands.

use atlarge_des::sim::{Ctx, Model, Simulation};
use atlarge_stats::descriptive::Summary;
use atlarge_telemetry::manifest::config_digest;
use atlarge_telemetry::recorder::Recorder;
use atlarge_telemetry::tracer::EventLabel;

/// A registered function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// Function name.
    pub name: String,
    /// Execution time on a warm instance, seconds.
    pub exec_time: f64,
    /// Memory footprint in GB (drives cost).
    pub memory_gb: f64,
}

/// Platform configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaasConfig {
    /// Cold-start delay (instance provisioning + runtime boot), seconds.
    pub cold_start: f64,
    /// Idle keep-alive before an instance is reclaimed, seconds.
    pub keep_alive: f64,
    /// Router/scheduler overhead per invocation, seconds.
    pub router_overhead: f64,
    /// Price per GB-second of execution.
    pub price_gb_s: f64,
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            cold_start: 0.5,
            keep_alive: 600.0,
            router_overhead: 0.002,
            price_gb_s: 0.000_016_7, // Lambda-like
        }
    }
}

/// Metrics of one platform run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaasMetrics {
    /// Per-invocation end-to-end latencies.
    pub latencies: Vec<f64>,
    /// Fraction of invocations that paid a cold start.
    pub cold_fraction: f64,
    /// Total GB-s billed.
    pub gb_seconds: f64,
    /// Peak concurrent instances.
    pub peak_instances: usize,
    /// Completed invocations.
    pub completed: usize,
}

impl FaasMetrics {
    /// Latency summary.
    pub fn latency_summary(&self) -> Summary {
        Summary::from_slice(&self.latencies)
    }

    /// Execution cost under the configured price.
    pub fn cost(&self, price_gb_s: f64) -> f64 {
        self.gb_seconds * price_gb_s
    }
}

/// The platform's event alphabet.
#[derive(Debug)]
pub(crate) enum FaasEvent {
    /// An invocation request arrives at the router.
    Invoke {
        /// Target function index.
        func: usize,
        /// Request arrival time (for end-to-end latency).
        enqueued: f64,
    },
    /// An instance finishes executing.
    Finish {
        /// Function index.
        func: usize,
        /// Original request arrival time.
        enqueued: f64,
    },
    /// A keep-alive timer fires for an idle instance.
    Expire {
        /// Function index.
        func: usize,
        /// When the instance went idle.
        idle_since: f64,
    },
}

impl EventLabel for FaasEvent {
    fn label(&self) -> &'static str {
        match self {
            FaasEvent::Invoke { .. } => "invoke",
            FaasEvent::Finish { .. } => "finish",
            FaasEvent::Expire { .. } => "expire",
        }
    }
}

#[derive(Debug, Default)]
struct Pool {
    /// Warm idle instances, keyed by when they went idle.
    idle: Vec<f64>,
    /// Busy instances.
    busy: usize,
}

/// The FaaS platform model.
#[derive(Debug)]
pub(crate) struct FaasPlatform {
    functions: Vec<FunctionSpec>,
    config: FaasConfig,
    pools: Vec<Pool>,
    latencies: Vec<f64>,
    cold: usize,
    total: usize,
    gb_seconds: f64,
    peak_instances: usize,
    recorder: Option<Recorder>,
}

impl FaasPlatform {
    /// Creates a platform with the given function registry.
    ///
    /// # Panics
    ///
    /// Panics if `functions` is empty.
    pub fn new(functions: Vec<FunctionSpec>, config: FaasConfig) -> Self {
        assert!(!functions.is_empty(), "register at least one function");
        let pools = functions.iter().map(|_| Pool::default()).collect();
        FaasPlatform {
            functions,
            config,
            pools,
            latencies: Vec::new(),
            cold: 0,
            total: 0,
            gb_seconds: 0.0,
            peak_instances: 0,
            recorder: None,
        }
    }

    fn instances(&self) -> usize {
        self.pools.iter().map(|p| p.idle.len() + p.busy).sum()
    }
}

impl Model for FaasPlatform {
    type Event = FaasEvent;

    fn handle(&mut self, ev: FaasEvent, ctx: &mut Ctx<FaasEvent>) {
        match ev {
            FaasEvent::Invoke { func, enqueued } => {
                self.total += 1;
                let warm = {
                    let pool = &mut self.pools[func];
                    match pool.idle.pop() {
                        Some(_) => {
                            pool.busy += 1;
                            true
                        }
                        None => {
                            pool.busy += 1;
                            false
                        }
                    }
                };
                let spec = &self.functions[func];
                let mut delay = self.config.router_overhead + spec.exec_time;
                if !warm {
                    self.cold += 1;
                    delay += self.config.cold_start;
                }
                self.gb_seconds += spec.exec_time * spec.memory_gb;
                self.peak_instances = self.peak_instances.max(self.instances());
                if let Some(rec) = &self.recorder {
                    rec.incr("faas.invocations");
                    if !warm {
                        rec.incr("faas.cold_starts");
                    }
                    rec.gauge_set("faas.instances", ctx.now(), self.instances() as f64);
                }
                ctx.schedule_in(delay, FaasEvent::Finish { func, enqueued });
            }
            FaasEvent::Finish { func, enqueued } => {
                let latency = ctx.now() - enqueued;
                self.latencies.push(latency);
                if let Some(rec) = &self.recorder {
                    rec.observe("faas.latency_s", latency);
                }
                let pool = &mut self.pools[func];
                pool.busy -= 1;
                pool.idle.push(ctx.now());
                ctx.schedule_in(
                    self.config.keep_alive,
                    FaasEvent::Expire {
                        func,
                        idle_since: ctx.now(),
                    },
                );
            }
            FaasEvent::Expire { func, idle_since } => {
                // Reclaim the instance only if it is still idle since then.
                let pool = &mut self.pools[func];
                if let Some(pos) = pool.idle.iter().position(|&t| t == idle_since) {
                    pool.idle.remove(pos);
                    if let Some(rec) = &self.recorder {
                        rec.incr("faas.expirations");
                        rec.gauge_set("faas.instances", ctx.now(), self.instances() as f64);
                    }
                }
            }
        }
    }
}

/// Runs the platform over an invocation schedule `(time, function
/// index)`. Returns the metrics.
///
/// With `rec`, the recorder is attached as the simulation tracer and as
/// the sink for platform metrics (`faas.invocations`, `faas.cold_starts`,
/// `faas.expirations`, the `faas.instances` gauge, the `faas.latency_s`
/// tally). Telemetry is observational: the returned metrics are
/// identical to an untraced run of the same inputs and seed — a property
/// the test suite asserts.
pub fn run_platform(
    functions: Vec<FunctionSpec>,
    config: FaasConfig,
    invocations: &[(f64, usize)],
    seed: u64,
    rec: Option<&Recorder>,
) -> FaasMetrics {
    if let Some(rec) = rec {
        rec.set_run_info("serverless.faas", seed, config_digest(&config));
    }
    let n_funcs = functions.len();
    for &(_, f) in invocations {
        assert!(f < n_funcs, "invocation references unknown function");
    }
    let mut platform = FaasPlatform::new(functions, config);
    platform.recorder = rec.cloned();
    // Every invocation is scheduled up front; pre-size the event queue
    // so the fill phase never reallocates.
    let mut sim = Simulation::with_capacity(platform, seed, invocations.len());
    if let Some(rec) = rec {
        sim = sim.with_tracer(rec.clone());
    }
    for &(t, f) in invocations {
        sim.schedule(
            t,
            FaasEvent::Invoke {
                func: f,
                enqueued: t,
            },
        );
    }
    sim.run();
    let m = sim.model();
    FaasMetrics {
        latencies: m.latencies.clone(),
        cold_fraction: m.cold as f64 / m.total.max(1) as f64,
        gb_seconds: m.gb_seconds,
        peak_instances: m.peak_instances,
        completed: m.latencies.len(),
    }
}

/// The serverless-vs-reserved comparison of the FaaS argument: a bursty,
/// mostly-idle workload on (a) the FaaS platform, billed per use, and
/// (b) an always-on reserved VM fleet sized for the peak. Returns
/// `(faas_cost, reserved_cost, faas_p50_latency)`.
pub(crate) fn faas_vs_reserved(
    invocations: &[(f64, usize)],
    spec: FunctionSpec,
    horizon: f64,
    vm_price_per_hour: f64,
    seed: u64,
) -> (f64, f64, f64) {
    let config = FaasConfig::default();
    let metrics = run_platform(vec![spec.clone()], config, invocations, seed, None);
    let faas_cost = metrics.cost(config.price_gb_s);
    // Reserved fleet: enough VMs for the peak concurrency, always on.
    let mut events: Vec<(f64, i64)> = Vec::new();
    for &(t, _) in invocations {
        events.push((t, 1));
        events.push((t + spec.exec_time, -1));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut level = 0i64;
    let mut peak = 0i64;
    for (_, d) in events {
        level += d;
        peak = peak.max(level);
    }
    let reserved_cost = peak.max(1) as f64 * vm_price_per_hour * horizon / 3600.0;
    let p50 = metrics.latency_summary().median();
    (faas_cost, reserved_cost, p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, exec: f64) -> FunctionSpec {
        FunctionSpec {
            name: name.into(),
            exec_time: exec,
            memory_gb: 0.5,
        }
    }

    #[test]
    fn first_call_is_cold_second_is_warm() {
        let invs = vec![(0.0, 0), (10.0, 0)];
        let m = run_platform(vec![spec("f", 1.0)], FaasConfig::default(), &invs, 1, None);
        assert_eq!(m.completed, 2);
        assert_eq!(m.cold_fraction, 0.5);
        // First latency includes the cold start.
        assert!(m.latencies[0] > m.latencies[1]);
    }

    #[test]
    fn keep_alive_expiry_causes_recold() {
        let cfg = FaasConfig {
            keep_alive: 5.0,
            ..FaasConfig::default()
        };
        let invs = vec![(0.0, 0), (100.0, 0)];
        let m = run_platform(vec![spec("f", 1.0)], cfg, &invs, 1, None);
        assert_eq!(m.cold_fraction, 1.0, "expired instance must re-cold-start");
    }

    #[test]
    fn concurrent_burst_scales_instances() {
        let invs: Vec<(f64, usize)> = (0..20).map(|_| (0.0, 0)).collect();
        let m = run_platform(vec![spec("f", 2.0)], FaasConfig::default(), &invs, 1, None);
        assert_eq!(
            m.peak_instances, 20,
            "each concurrent call gets an instance"
        );
        assert_eq!(m.cold_fraction, 1.0);
    }

    #[test]
    fn pay_per_use_tracks_execution_only() {
        let invs = vec![(0.0, 0), (1_000.0, 0)];
        let m = run_platform(vec![spec("f", 2.0)], FaasConfig::default(), &invs, 1, None);
        // 2 invocations × 2 s × 0.5 GB = 2 GB-s regardless of idle time.
        assert!((m.gb_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faas_cheaper_for_bursty_sparse_workloads() {
        // One call a minute for a day: a reserved VM idles ~97% of the
        // time.
        let invs: Vec<(f64, usize)> = (0..1440).map(|i| (i as f64 * 60.0, 0)).collect();
        let (faas, reserved, p50) = faas_vs_reserved(&invs, spec("f", 1.0), 86_400.0, 0.05, 3);
        assert!(
            faas < reserved / 10.0,
            "faas {faas} should be far below reserved {reserved}"
        );
        assert!(p50 < 2.0);
    }

    #[test]
    fn cold_starts_hurt_tail_latency() {
        // Sparse calls with a short keep-alive: every call cold.
        let cfg = FaasConfig {
            keep_alive: 1.0,
            cold_start: 1.5,
            ..FaasConfig::default()
        };
        let invs: Vec<(f64, usize)> = (0..50).map(|i| (i as f64 * 100.0, 0)).collect();
        let m = run_platform(vec![spec("f", 0.2)], cfg, &invs, 1, None);
        let s = m.latency_summary();
        assert!(
            s.median() > 1.5,
            "cold-start dominated median {}",
            s.median()
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_records() {
        let invs: Vec<(f64, usize)> = (0..30).map(|i| (i as f64 * 7.0, 0)).collect();
        let cfg = FaasConfig {
            keep_alive: 20.0,
            ..FaasConfig::default()
        };
        let plain = run_platform(vec![spec("f", 1.0)], cfg, &invs, 11, None);
        let rec = Recorder::new();
        let traced = run_platform(vec![spec("f", 1.0)], cfg, &invs, 11, Some(&rec));
        assert_eq!(plain, traced, "telemetry must not perturb the run");
        assert_eq!(rec.counter("faas.invocations"), 30);
        assert_eq!(
            rec.counter("faas.cold_starts") as f64 / 30.0,
            traced.cold_fraction
        );
        assert_eq!(
            rec.tally("faas.latency_s")
                .expect("latencies recorded")
                .len(),
            traced.completed
        );
        assert_eq!(rec.dispatches("invoke"), 30);
        let m = rec.manifest();
        assert_eq!(m.model, "serverless.faas");
        assert!(m.events_dispatched >= 60, "invokes + finishes at least");
    }
}
