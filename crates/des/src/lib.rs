//! `atlarge-des` — a deterministic discrete-event simulation kernel.
//!
//! Every domain simulator in the AtLarge reproduction (P2P swarms, MMOG
//! ecosystems, datacenters, serverless platforms) runs on this kernel. Its
//! contract is strict determinism: given a model and a seed, a run produces
//! the same event trace on every execution and platform. Determinism is the
//! paper's own methodological demand — §5.1/C3 names *calibration and
//! reproducibility* as key to simulation-based design-space exploration.
//!
//! # Architecture
//!
//! - [`queue::EventQueue`] — a total-order priority queue over
//!   `(time, sequence)` pairs, so simultaneous events fire in insertion
//!   order.
//! - [`fel`] — the sealed [`fel::FutureEventList`] abstraction the queue
//!   stores through: the amortised-O(1) [`calendar::CalendarQueue`]
//!   (default) and the O(log n) reference [`fel::BinaryHeapFel`], proven
//!   pop-for-pop identical by the side-by-side equivalence suite.
//! - [`sim::Simulation`] / [`sim::Model`] — the engine: a model consumes
//!   events and schedules new ones through a [`sim::Ctx`], which also carries
//!   the seeded RNG. The dispatch loop is monomorphized into split
//!   traced/untraced bodies and pops through a fused peek-then-pop.
//! - [`queueing`] — analytic M/M/c results (Erlang C) used to *validate*
//!   the kernel against theory in the test suite.
//!
//! Kernel throughput is measured by the repository benchmark's `kernel`
//! workload (`python3 perfbench/run.py --workload kernel --seed N
//! --seconds S --trace 1`, run offline from the workspace root): a
//! 10^6-entity hold model on the sealed engine and on the sharded
//! kernel, with the future-event list, the handler and each engine's
//! dispatch reported as separate per-event costs.
//!
//! Metric types (counters, gauges, tallies) live in `atlarge-telemetry`;
//! the old `monitor` module that once aliased them has been removed.
//!
//! # Observability
//!
//! The kernel is instrumented for the `atlarge-telemetry` subsystem: attach
//! any [`Tracer`] with [`Simulation::with_tracer`] and the run loop reports
//! every schedule, every dispatch (with [`EventLabel`] labels), span
//! enters/exits, and the end of each run. Untraced simulations pay a single
//! branch per hook site, and tracing is observational only — a traced run
//! reaches the same final state as an untraced one.
//!
//! # Examples
//!
//! A two-event model:
//!
//! ```
//! use atlarge_des::sim::{Ctx, Model, Simulation};
//!
//! struct Ping { count: u32 }
//! #[derive(Debug)]
//! enum Ev { Ping }
//!
//! impl Model for Ping {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
//!         match ev {
//!             Ev::Ping => {
//!                 self.count += 1;
//!                 if self.count < 3 {
//!                     ctx.schedule_in(1.0, Ev::Ping);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ping { count: 0 }, 42);
//! sim.schedule(0.0, Ev::Ping);
//! sim.run();
//! assert_eq!(sim.model().count, 3);
//! assert_eq!(sim.now(), 2.0);
//! ```

pub mod calendar;
pub mod fel;
mod hint;
pub mod queue;
pub mod queueing;
pub mod shard;
pub mod sim;

pub use atlarge_telemetry::tracer::{EventLabel, NullTracer, Tracer};
pub use calendar::CalendarQueue;
pub use fel::{BinaryHeapFel, FutureEventList};
pub use queue::EventQueue;
pub use shard::{
    LogicalProcess, PartitionError, Routed, ShardCtx, ShardedSimulation, StaticPartition,
};
pub use sim::{Ctx, Model, Simulation};
