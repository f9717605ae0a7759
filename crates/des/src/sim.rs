//! The simulation engine: models, contexts, and the run loop.

use crate::queue::EventQueue;
use atlarge_telemetry::tracer::{EventLabel, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// A simulation model: owns domain state and reacts to events.
///
/// A model never touches the event queue directly; it schedules follow-up
/// events through the [`Ctx`] handed to [`Model::handle`]. This keeps the
/// borrow structure simple (model state and scheduler are disjoint) and the
/// event order deterministic.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Reacts to `event` occurring now. New events are scheduled via `ctx`.
    fn handle(&mut self, event: Self::Event, ctx: &mut Ctx<Self::Event>);
}

fn unlabeled<E>(_: &E) -> &'static str {
    "event"
}

/// The execution context passed into [`Model::handle`]: the clock, the
/// scheduler, the seeded RNG, the stop flag, and the optional tracer.
///
/// Tracing is observational only — no tracer hook can alter the clock, the
/// queue, or the RNG, so a traced run reaches the same final state as an
/// untraced run of the same model and seed. Untraced simulations (the
/// default) pay one branch per hook site.
pub struct Ctx<E> {
    now: f64,
    queue: EventQueue<E>,
    rng: StdRng,
    stopped: bool,
    processed: u64,
    current: Option<u64>,
    tracer: Option<Box<dyn Tracer>>,
    labeler: fn(&E) -> &'static str,
}

impl<E> fmt::Debug for Ctx<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("stopped", &self.stopped)
            .field("processed", &self.processed)
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl<E> Ctx<E> {
    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` after a non-negative `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(delay.is_finite() && delay >= 0.0, "delay must be >= 0");
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at an absolute time not before now. The new
    /// event's causal parent is the event currently being handled.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the current time.
    pub(crate) fn schedule_at(&mut self, time: f64, event: E) {
        assert!(time >= self.now, "cannot schedule into the past");
        // One branch on the untraced hot path; the label is only built
        // when somebody is listening.
        if self.tracer.is_some() {
            let label = (self.labeler)(&event);
            let id = self.queue.push_from(time, self.current, event);
            if let Some(tracer) = &self.tracer {
                tracer.on_schedule(self.now, time, label, id, self.current);
            }
        } else {
            self.queue.push_from(time, self.current, event);
        }
    }

    /// The deterministic random source of this run.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Requests the run loop to stop after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Opens an instrumented span named `name` at the current simulated
    /// time. Pair with [`Ctx::span_exit`].
    pub fn span_enter(&mut self, name: &str) {
        if let Some(tracer) = &self.tracer {
            tracer.on_span_enter(self.now, name);
        }
    }

    /// Closes the innermost open span named `name`.
    pub fn span_exit(&mut self, name: &str) {
        if let Some(tracer) = &self.tracer {
            tracer.on_span_exit(self.now, name);
        }
    }
}

/// A discrete-event simulation: a [`Model`] plus its [`Ctx`].
///
/// See the [crate-level docs](crate) for a complete example.
#[derive(Debug)]
pub struct Simulation<M: Model> {
    model: M,
    ctx: Ctx<M::Event>,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation over `model`, seeding the RNG with `seed`.
    pub fn new(model: M, seed: u64) -> Self {
        Self::with_capacity(model, seed, 0)
    }

    /// [`Simulation::new`] with the event queue pre-sized for about
    /// `events` pending events — worth passing wherever the initial
    /// population is known (e.g. one event per arriving job, peer, or
    /// invocation), so the fill phase stays allocation-quiet.
    pub fn with_capacity(model: M, seed: u64, events: usize) -> Self {
        Simulation {
            model,
            ctx: Ctx {
                now: 0.0,
                queue: EventQueue::with_capacity(events),
                rng: StdRng::seed_from_u64(seed),
                stopped: false,
                processed: 0,
                current: None,
                tracer: None,
                labeler: unlabeled::<M::Event>,
            },
        }
    }

    /// Attaches `tracer`, labelling events through their [`EventLabel`]
    /// implementation. Replaces any previously attached tracer.
    ///
    /// A tracer whose [`Tracer::is_enabled`] returns `false` (like
    /// [`NullTracer`](atlarge_telemetry::tracer::NullTracer)) is dropped
    /// instead of installed: the run takes the exact untraced hot path.
    pub fn with_tracer<T: Tracer + 'static>(mut self, tracer: T) -> Self
    where
        M::Event: EventLabel,
    {
        if tracer.is_enabled() {
            self.ctx.tracer = Some(Box::new(tracer));
            self.ctx.labeler = <M::Event as EventLabel>::label;
        } else {
            self.ctx.tracer = None;
            self.ctx.labeler = unlabeled::<M::Event>;
        }
        self
    }

    /// Schedules an initial event at absolute `time`. Events scheduled
    /// here are causal roots: they have no parent event.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite or precedes the current time.
    pub fn schedule(&mut self, time: f64, event: M::Event) {
        assert!(
            time.is_finite() && time >= self.ctx.now,
            "event time must be finite and not in the past"
        );
        let label = self.ctx.tracer.as_ref().map(|_| (self.ctx.labeler)(&event));
        let id = self.ctx.queue.push(time, event);
        if let (Some(tracer), Some(label)) = (&self.ctx.tracer, label) {
            tracer.on_schedule(self.ctx.now, time, label, id, None);
        }
    }

    /// Runs until the event queue drains or the model calls [`Ctx::stop`].
    /// Returns the number of events processed in this call.
    pub fn run(&mut self) -> u64 {
        self.run_until(f64::INFINITY)
    }

    /// Runs until `horizon` (exclusive for later events), queue exhaustion,
    /// or [`Ctx::stop`]. Events at exactly `horizon` still execute. Returns
    /// the number of events processed in this call. A horizon before the
    /// current time dispatches nothing and leaves the clock where it is.
    ///
    /// The dispatch loop is monomorphized into a traced and an untraced
    /// body, chosen once per call: the untraced hot path carries no
    /// per-dispatch tracer branch at all.
    pub fn run_until(&mut self, horizon: f64) -> u64 {
        if self.ctx.tracer.is_some() {
            self.run_loop::<true>(horizon)
        } else {
            self.run_loop::<false>(horizon)
        }
    }

    fn run_loop<const TRACED: bool>(&mut self, horizon: f64) -> u64 {
        let start = self.ctx.processed;
        while !self.ctx.stopped {
            // Fused peek-then-pop: one queue traversal per dispatch.
            let Some((t, id, parent, ev)) = self.ctx.queue.pop_entry_until(horizon) else {
                if self.ctx.queue.peek_time().is_some() && horizon > self.ctx.now {
                    // Next event is beyond the horizon; advance the clock
                    // to the horizon so repeated bounded runs compose.
                    self.ctx.now = horizon;
                }
                break;
            };
            self.dispatch::<TRACED>(t, id, parent, ev);
        }
        if TRACED {
            if let Some(tracer) = &self.ctx.tracer {
                tracer.on_run_end(self.ctx.now, self.ctx.processed);
            }
        }
        self.ctx.processed - start
    }

    /// The dispatch body of [`Simulation::run_until`]: clock/bookkeeping
    /// updates, the monotonicity check, the (compile-time-gated) tracer
    /// hook, and the model callback.
    #[inline(always)]
    fn dispatch<const TRACED: bool>(&mut self, t: f64, id: u64, parent: Option<u64>, ev: M::Event) {
        debug_assert!(t >= self.ctx.now, "time must not go backwards");
        self.ctx.now = t;
        self.ctx.processed += 1;
        self.ctx.current = Some(id);
        if TRACED {
            if let Some(tracer) = &self.ctx.tracer {
                tracer.on_dispatch(t, (self.ctx.labeler)(&ev), self.ctx.queue.len(), id, parent);
            }
        }
        self.model.handle(ev, &mut self.ctx);
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.ctx.now
    }

    /// Shared view of the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Total events processed since construction.
    pub fn processed(&self) -> u64 {
        self.ctx.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_telemetry::recorder::Recorder;
    use atlarge_telemetry::tracer::NullTracer;
    use rand::Rng;

    struct Counter {
        fired: Vec<(f64, u32)>,
    }

    enum Ev {
        Tick(u32),
        Stop,
    }

    impl EventLabel for Ev {
        fn label(&self) -> &'static str {
            match self {
                Ev::Tick(_) => "tick",
                Ev::Stop => "stop",
            }
        }
    }

    impl Model for Counter {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
            match ev {
                Ev::Tick(i) => {
                    self.fired.push((ctx.now(), i));
                    if i < 5 {
                        ctx.schedule_in(2.0, Ev::Tick(i + 1));
                    }
                }
                Ev::Stop => ctx.stop(),
            }
        }
    }

    #[test]
    fn chain_of_events_advances_clock() {
        let mut sim = Simulation::new(Counter { fired: vec![] }, 1);
        sim.schedule(1.0, Ev::Tick(1));
        let n = sim.run();
        assert_eq!(n, 5);
        assert_eq!(sim.now(), 9.0);
        assert_eq!(sim.model().fired.len(), 5);
        assert_eq!(sim.model().fired[0], (1.0, 1));
        assert_eq!(sim.model().fired[4], (9.0, 5));
    }

    #[test]
    fn stop_event_halts_mid_queue() {
        let mut sim = Simulation::new(Counter { fired: vec![] }, 1);
        sim.schedule(0.0, Ev::Tick(1));
        sim.schedule(3.0, Ev::Stop);
        sim.run();
        assert!(sim.ctx.stopped);
        // Ticks at 0 and 2 fire; the tick at 4 never runs.
        assert_eq!(sim.model().fired.len(), 2);
    }

    #[test]
    fn horizon_bounds_run_and_sets_clock() {
        let mut sim = Simulation::new(Counter { fired: vec![] }, 1);
        sim.schedule(0.0, Ev::Tick(1));
        sim.run_until(3.0);
        assert_eq!(sim.model().fired.len(), 2); // t=0, t=2
        assert_eq!(sim.now(), 3.0);
        sim.run_until(100.0);
        assert_eq!(sim.model().fired.len(), 5);
    }

    #[test]
    fn horizon_inclusive_at_boundary() {
        let mut sim = Simulation::new(Counter { fired: vec![] }, 1);
        sim.schedule(2.0, Ev::Tick(5));
        sim.run_until(2.0);
        assert_eq!(sim.model().fired.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not in the past")]
    fn roots_before_now_panic_in_every_build() {
        let mut sim = Simulation::new(Counter { fired: vec![] }, 1);
        sim.schedule(10.0, Ev::Tick(5));
        sim.run();
        sim.schedule(5.0, Ev::Tick(5));
    }

    #[test]
    fn an_earlier_horizon_leaves_the_clock_alone() {
        let mut sim = Simulation::new(Counter { fired: vec![] }, 1);
        sim.schedule(10.0, Ev::Tick(5));
        sim.schedule(20.0, Ev::Tick(5));
        sim.run_until(15.0);
        assert_eq!(sim.now(), 15.0);
        assert_eq!(sim.run_until(5.0), 0);
        assert_eq!(sim.now(), 15.0);
        sim.run();
        assert_eq!(sim.model().fired, vec![(10.0, 5), (20.0, 5)]);
    }

    #[test]
    fn same_seed_same_trace() {
        struct R {
            draws: Vec<f64>,
        }
        enum E {
            Draw(u32),
        }
        impl Model for R {
            type Event = E;
            fn handle(&mut self, E::Draw(i): E, ctx: &mut Ctx<E>) {
                let x: f64 = ctx.rng().gen();
                self.draws.push(x);
                if i < 10 {
                    ctx.schedule_in(x, E::Draw(i + 1));
                }
            }
        }
        let run = |seed| {
            let mut sim = Simulation::new(R { draws: vec![] }, seed);
            sim.schedule(0.0, E::Draw(0));
            sim.run();
            (sim.now(), sim.into_model().draws)
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).1, run(100).1);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        enum E {
            Go,
        }
        impl Model for Bad {
            type Event = E;
            fn handle(&mut self, _: E, ctx: &mut Ctx<E>) {
                ctx.schedule_at(ctx.now() - 1.0, E::Go);
            }
        }
        let mut sim = Simulation::new(Bad, 0);
        sim.schedule(5.0, E::Go);
        sim.run();
    }

    #[test]
    fn tracer_observes_schedules_and_dispatches() {
        let rec = Recorder::new();
        let mut sim = Simulation::new(Counter { fired: vec![] }, 1).with_tracer(rec.clone());
        sim.schedule(1.0, Ev::Tick(1));
        sim.run();
        // 1 initial + 4 follow-ups scheduled; 5 dispatched.
        assert_eq!(rec.events_scheduled(), 5);
        assert_eq!(rec.events_dispatched(), 5);
        assert_eq!(rec.dispatches("tick"), 5);
        assert_eq!(rec.sim_time(), sim.now());
        let manifest = rec.manifest();
        assert_eq!(manifest.events_dispatched, 5);
        assert_eq!(manifest.sim_time, 9.0);
    }

    #[test]
    fn follow_up_events_carry_causal_parents() {
        let rec = Recorder::new();
        let mut sim = Simulation::new(Counter { fired: vec![] }, 1).with_tracer(rec.clone());
        sim.schedule(1.0, Ev::Tick(1));
        sim.run();
        let mut out = Vec::new();
        rec.write_trace_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let schedules: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"schedule\""))
            .collect();
        // The external root has no parent; every follow-up tick names one.
        assert!(!schedules[0].contains("\"parent\""));
        assert!(schedules[1..].iter().all(|l| l.contains("\"parent\"")));
        // Tick(2) is scheduled by the dispatch of event 0, Tick(3) by event 1…
        assert!(schedules[1].contains("\"parent\":0"));
        assert!(schedules[2].contains("\"parent\":1"));
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let run = |traced: bool| {
            let mut sim = Simulation::new(Counter { fired: vec![] }, 7);
            if traced {
                sim = sim.with_tracer(Recorder::new());
            }
            sim.schedule(0.5, Ev::Tick(1));
            sim.run();
            (sim.now(), sim.processed(), sim.into_model().fired)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn spans_reach_the_tracer() {
        struct Spanned;
        enum E {
            Work,
        }
        impl EventLabel for E {
            fn label(&self) -> &'static str {
                "work"
            }
        }
        impl Model for Spanned {
            type Event = E;
            fn handle(&mut self, _: E, ctx: &mut Ctx<E>) {
                ctx.span_enter("work.body");
                ctx.span_exit("work.body");
            }
        }
        let rec = Recorder::new();
        let mut sim = Simulation::new(Spanned, 0).with_tracer(rec.clone());
        sim.schedule(1.0, E::Work);
        sim.run();
        assert_eq!(rec.span_stats()["work.body"].entries, 1);
    }

    #[test]
    fn null_tracer_is_dropped_not_installed() {
        struct Idle;
        enum E {}
        impl EventLabel for E {
            fn label(&self) -> &'static str {
                match *self {}
            }
        }
        impl Model for Idle {
            type Event = E;
            fn handle(&mut self, e: E, _: &mut Ctx<E>) {
                match e {}
            }
        }
        assert!(Simulation::new(Idle, 0).ctx.tracer.is_none());
        // A `NullTracer` is dropped, not installed: the run is untraced,
        // which is why attaching one costs nothing.
        let null = Simulation::new(Idle, 0).with_tracer(NullTracer);
        assert!(null.ctx.tracer.is_none());
        let rec = Simulation::new(Idle, 0).with_tracer(Recorder::new());
        assert!(rec.ctx.tracer.is_some());
    }
}
