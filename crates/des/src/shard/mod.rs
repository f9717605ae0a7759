//! The parallel-in-time sharded kernel: one simulation, many calendar
//! queues, conservative synchronization.
//!
//! [`Simulation`](crate::sim::Simulation) dispatches every event of a
//! run through one future-event list. This module generalizes it:
//! entities are partitioned into *logical processes* grouped onto
//! shards, each shard owns a sealed FEL of its own, and shards advance
//! in windowed rounds bounded by conservative horizons derived from the
//! [`Partition`]'s declared per-edge lookahead (the minimum cross-shard
//! latency of the domain model: a link delay, a router overhead, a tick
//! period). Cross-shard events are posted to per-shard mailboxes and
//! merged between rounds; see `sync` for the protocol.
//!
//! # Determinism
//!
//! The sharded kernel keeps the workspace's serial ≡ parallel contract
//! at the single-run level: for a fixed model, partition, and seed, the
//! dispatched `(time, seq, parent, event)` sequence — merged across
//! shards in `(time, seq)` order — is byte-for-byte identical at every
//! shard count and every thread count. Three rules make this hold *by
//! construction* rather than by luck:
//!
//! - **Entity-owned state.** A [`LogicalProcess`] owns its state
//!   exclusively and reacts only to its own events, so behavior cannot
//!   depend on which shard an entity landed on.
//! - **Lane-based event ids.** `seq` is `(lane << 32) | counter` where
//!   lane is `entity + 1` (lane 0 is reserved for externally scheduled
//!   roots) and the counter is per-lane. Ids depend only on how many
//!   events an entity has scheduled — not on global dispatch
//!   interleaving — so they are shard-count-invariant, unlike the dense
//!   global counter of the single-queue path.
//! - **Per-entity RNG streams.** [`ShardCtx::rng`] draws from a stream
//!   seeded by `(root seed, entity)`, so randomness is attached to the
//!   entity, never to the shard or thread that happens to run it.
//!
//! Tracer hooks are buffered per shard and replayed in merged order
//! after the run (`trace`), so traces are also shard-count-invariant.
//!
//! # Why conservative, not optimistic
//!
//! Optimistic engines (Time Warp) need rollback: snapshots of model
//! state and anti-messages to undo mis-speculated dispatches. Rollback
//! is at odds with every contract this kernel exports — state capsules
//! assume monotone time, tracer output is append-only, and byte-stable
//! determinism under speculation requires bit-exact rollback of every
//! side effect. Conservative lookahead synchronization needs none of
//! that: nothing executes until it provably cannot be preempted, so
//! the merged dispatch order *is* the single-queue order.
//!
//! # Bounded runs and `stop()`
//!
//! There is deliberately no `stop()` on [`ShardCtx`]: a stop observed
//! on one shard mid-round is a determinism race against events other
//! shards have already dispatched inside their own windows. Sharded
//! runs are horizon-bounded ([`ShardedSimulation::run_until`]) or run
//! to exhaustion ([`ShardedSimulation::run`]).

mod sync;
mod trace;

use crate::calendar::CalendarQueue;
use crate::fel::{Entry, FutureEventList};
use crate::hint::prefetch;
use atlarge_telemetry::tracer::{EventLabel, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sync::{SyncPlane, Verdict};
use trace::{TraceBuf, TraceOp};

/// Bit position of the lane in an event id: the low 32 bits count
/// events per lane, the bits above identify the lane.
const LANE_SHIFT: u32 = 32;

/// Maximum number of entities a sharded simulation accepts. Lanes must
/// stay below 2^20 so every id fits in 52 bits — ids survive any
/// JSON consumer that routes integers through an f64.
pub(crate) const MAX_ENTITIES: usize = (1 << 20) - 1;

fn unlabeled<E>(_: &E) -> &'static str {
    "event"
}

/// SplitMix64-style finalizer deriving entity `e`'s RNG stream from the
/// root seed: statistically independent streams per entity, stable
/// across shard counts and partitions.
fn entity_stream_seed(seed: u64, entity: u32) -> u64 {
    let mut z = seed ^ (u64::from(entity).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where `entity` lives. Panics in every build for an entity the
/// simulation does not have: its event would otherwise vanish, and the
/// caller would get an id that already names another event.
fn locate(index: &[EntitySlot], entity: u32) -> EntitySlot {
    let found = index.get(entity as usize).copied();
    assert!(found.is_some(), "event for unknown entity {entity}");
    found.unwrap_or(EntitySlot { shard: 0, slot: 0 })
}

/// An event addressed to an entity — what shard FELs store. The
/// target's shard-local slot is resolved once, at scheduling time (the
/// sender already has the entity index in cache to route the event), so
/// the dispatch loop never touches the index again: at large entity
/// counts that lookup is a guaranteed cache miss per event.
#[derive(Debug, Clone)]
pub struct Routed<E> {
    entity: u32,
    slot: u32,
    event: E,
}

/// One dispatched event as seen by the optional event log
/// ([`ShardedSimulation::with_event_log`]): the global merge order of
/// these records is the kernel's determinism contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Simulated dispatch time.
    pub time: f64,
    /// The event's lane-based id.
    pub id: u64,
    /// Id of the event whose handler scheduled this one.
    pub parent: Option<u64>,
    /// The entity that handled the event.
    pub entity: u32,
}

/// How entities map onto shards, and how much cross-shard latency the
/// model guarantees per directed shard pair.
///
/// `lookahead(from, to)` must return either a strictly positive finite
/// minimum delay (every event shard `from` sends to shard `to` fires at
/// least that far in the future) or `INFINITY` to declare "no edge".
/// Zero, negative, and NaN lookaheads are rejected up front by
/// [`ShardedSimulation::new`] — a zero-lookahead edge would allow
/// cycles of simultaneous cross-shard events, which no conservative
/// schedule can order without global knowledge.
pub trait Partition {
    /// Number of shards (logical-process groups).
    fn shards(&self) -> usize;
    /// The shard owning `entity`.
    fn shard_of(&self, entity: u32) -> usize;
    /// Minimum cross-shard event latency from shard `from` to shard
    /// `to` (`from != to`), or `INFINITY` for "no edge".
    fn lookahead(&self, from: usize, to: usize) -> f64;
}

/// A table-driven [`Partition`]: an explicit entity→shard assignment
/// plus a dense lookahead matrix. The common constructors cover block
/// and round-robin placement with a uniform all-to-all lookahead.
#[derive(Debug, Clone)]
pub struct StaticPartition {
    shards: usize,
    assign: Vec<usize>,
    lookahead: Vec<f64>,
}

impl StaticPartition {
    fn with_uniform(shards: usize, assign: Vec<usize>, la: f64) -> Self {
        let shards = shards.max(1);
        let lookahead = (0..shards * shards)
            .map(|i| {
                if i / shards == i % shards {
                    f64::INFINITY
                } else {
                    la
                }
            })
            .collect();
        StaticPartition {
            shards,
            assign,
            lookahead,
        }
    }

    /// Contiguous blocks of entities per shard, uniform lookahead `la`
    /// on every directed edge.
    pub fn block(entities: usize, shards: usize, la: f64) -> Self {
        let shards = shards.max(1);
        let per = entities.div_ceil(shards.max(1)).max(1);
        let assign = (0..entities).map(|e| (e / per).min(shards - 1)).collect();
        Self::with_uniform(shards, assign, la)
    }

    /// Entities dealt round-robin across shards, uniform lookahead.
    pub fn round_robin(entities: usize, shards: usize, la: f64) -> Self {
        let shards = shards.max(1);
        let assign = (0..entities).map(|e| e % shards).collect();
        Self::with_uniform(shards, assign, la)
    }

    /// An explicit entity→shard map with uniform lookahead. Entity `e`
    /// lives on shard `assign[e]`; an entity past the end of the map has
    /// no shard, so [`ShardedSimulation::new`] rejects a map shorter
    /// than its process list.
    pub fn from_assignment(assign: Vec<usize>, shards: usize, la: f64) -> Self {
        Self::with_uniform(shards, assign, la)
    }
}

impl Partition for StaticPartition {
    fn shards(&self) -> usize {
        self.shards
    }

    /// An entity the map does not cover reports shard `shards()`, one
    /// past the last, so construction fails with
    /// [`PartitionError::ShardOutOfRange`] instead of placing it.
    fn shard_of(&self, entity: u32) -> usize {
        self.assign
            .get(entity as usize)
            .copied()
            .unwrap_or(self.shards)
    }

    fn lookahead(&self, from: usize, to: usize) -> f64 {
        self.lookahead
            .get(from * self.shards + to)
            .copied()
            .unwrap_or(f64::INFINITY)
    }
}

/// Why a [`ShardedSimulation`] could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// The partition declared zero shards.
    NoShards,
    /// More entities than `MAX_ENTITIES`.
    TooManyEntities {
        /// The offending entity count.
        entities: usize,
    },
    /// `shard_of` returned a shard outside `0..shards()`, or the
    /// entity is past the end of a [`StaticPartition`]'s map.
    ShardOutOfRange {
        /// The entity with the bad assignment.
        entity: u32,
        /// The out-of-range shard index.
        shard: usize,
    },
    /// A declared lookahead was zero, negative, or NaN.
    BadLookahead {
        /// Source shard of the edge.
        from: usize,
        /// Destination shard of the edge.
        to: usize,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoShards => write!(f, "partition declares zero shards"),
            PartitionError::TooManyEntities { entities } => write!(
                f,
                "{entities} entities exceed the sharded kernel's limit of {MAX_ENTITIES}"
            ),
            PartitionError::ShardOutOfRange { entity, shard } => {
                write!(f, "entity {entity} assigned to out-of-range shard {shard}")
            }
            PartitionError::BadLookahead { from, to, value } => write!(
                f,
                "lookahead {value} on edge {from}->{to} must be strictly positive \
                 (use INFINITY for no edge)"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A logical process: one entity's state and behavior. The sharded
/// kernel's unit of partitioning.
///
/// Unlike [`Model`](crate::sim::Model) — which owns the whole world —
/// a logical process owns exactly one entity, so a run's outcome
/// cannot depend on entity co-location. Events for other entities go
/// through `ShardCtx::send_at`/[`ShardCtx::send_in`], which enforce
/// the partition's lookahead on cross-shard edges. A model that wants
/// to stay valid under *every* partition should respect the declared
/// lookahead on all entity-to-entity sends.
pub trait LogicalProcess {
    /// The event alphabet of this process.
    type Event;

    /// Reacts to `event` occurring now; schedules follow-ups via `ctx`.
    fn handle(&mut self, event: Self::Event, ctx: &mut ShardCtx<'_, Self::Event>);
}

/// Where an entity lives: its shard and its dense slot within it.
#[derive(Debug, Clone, Copy)]
struct EntitySlot {
    shard: u32,
    slot: u32,
}

/// Read-only per-round environment shared by every shard.
struct RoundEnv<'a, E> {
    index: &'a [EntitySlot],
    lookahead: &'a [f64],
    nshards: usize,
    seed: u64,
    labeler: fn(&E) -> &'static str,
    log_events: bool,
}

impl<E> Clone for RoundEnv<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<E> Copy for RoundEnv<'_, E> {}

/// One entity's dispatch-hot state: its lane counter and its logical
/// process, colocated so a dispatch touches one cache line instead of
/// two parallel arrays.
struct EntityCell<L> {
    lane: u64,
    lp: L,
}

/// One shard: its FEL, its entities' processes and lane counters, and
/// the round-local buffers of the synchronization protocol.
struct Shard<L: LogicalProcess, F> {
    fel: F,
    cells: Vec<EntityCell<L>>,
    entities: Vec<u32>,
    /// Per-slot RNG streams, grown on the first [`ShardCtx::rng`] call
    /// that reaches a slot: models that never draw allocate nothing.
    rngs: Vec<Option<StdRng>>,
    spare_rng: Option<StdRng>,
    /// Outgoing cross-shard events, buffered per target shard during a
    /// round and posted to the target shards' mailboxes after it.
    outbox: Vec<Vec<Entry<Routed<<L as LogicalProcess>::Event>>>>,
    /// Local events scheduled during a round at or beyond the round
    /// horizon, and the cross-shard arrivals collected from this
    /// shard's mailbox after it: bulk-inserted (sorted) between rounds,
    /// which turns random-access FEL maintenance into a batched,
    /// ascending pass.
    staging: Vec<Entry<Routed<<L as LogicalProcess>::Event>>>,
    now: f64,
    dispatched: u64,
    trace: Option<TraceBuf>,
    log: Vec<EventRecord>,
}

impl<L: LogicalProcess, F: FutureEventList<Routed<L::Event>>> Shard<L, F> {
    fn new(nshards: usize, entities: usize) -> Self {
        Shard {
            fel: F::with_capacity(0),
            cells: Vec::with_capacity(entities),
            entities: Vec::with_capacity(entities),
            rngs: Vec::new(),
            spare_rng: None,
            outbox: (0..nshards).map(|_| Vec::new()).collect(),
            staging: Vec::new(),
            now: 0.0,
            dispatched: 0,
            trace: None,
            log: Vec::new(),
        }
    }

    /// Merges everything staged since the last round into the FEL, in
    /// ascending `(time, seq)` order — the batched maintenance pass that
    /// makes per-shard queues cheap.
    fn absorb_staged(&mut self) {
        self.staging.sort_unstable();
        for entry in self.staging.drain(..) {
            self.fel.insert(entry);
        }
    }

    fn lower_bound(&self) -> f64 {
        self.fel.peek_min().map_or(f64::INFINITY, |e| e.time)
    }
}

/// The execution context handed to [`LogicalProcess::handle`]: clock,
/// scheduler, per-entity RNG, and causal identity of the current event.
pub struct ShardCtx<'a, E> {
    now: f64,
    entity: u32,
    slot: usize,
    cur_id: u64,
    cur_parent: Option<u64>,
    shard: usize,
    nshards: usize,
    seed: u64,
    /// Where same-shard events go: the shard's FEL when they fire
    /// inside the current round's window (they must interleave with the
    /// events being popped), its staging buffer otherwise. Type-erased
    /// so the context need not name the shard's FEL backend.
    local: &'a mut dyn FnMut(Entry<Routed<E>>),
    outbox: &'a mut [Vec<Entry<Routed<E>>>],
    /// The current entity's lane counter (all events a handler
    /// schedules carry the handling entity's lane).
    lane: &'a mut u64,
    rngs: &'a mut Vec<Option<StdRng>>,
    spare_rng: &'a mut Option<StdRng>,
    index: &'a [EntitySlot],
    la_row: &'a [f64],
    trace: Option<&'a mut TraceBuf>,
    labeler: fn(&E) -> &'static str,
}

impl<E> ShardCtx<'_, E> {
    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The entity this handler runs as.
    pub fn entity(&self) -> u32 {
        self.entity
    }

    /// Id of the event being handled.
    pub fn event_id(&self) -> u64 {
        self.cur_id
    }

    /// Id of the event whose handler scheduled the current one.
    pub fn parent(&self) -> Option<u64> {
        self.cur_parent
    }

    /// The shard this entity lives on (informational — model behavior
    /// must never depend on it).
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total shard count of the partition.
    pub fn shards(&self) -> usize {
        self.nshards
    }

    fn next_seq(&mut self) -> u64 {
        let lane = u64::from(self.entity) + 1;
        // Hard assert even in release: a wrapped counter would bleed
        // into the lane bits and silently break the (time, seq)
        // uniqueness the determinism contract rests on.
        assert!(
            *self.lane < 1 << LANE_SHIFT,
            "entity {} exhausted its event-id lane (2^32 scheduled events)",
            self.entity
        );
        let seq = (lane << LANE_SHIFT) | *self.lane;
        *self.lane += 1;
        seq
    }

    fn push(
        &mut self,
        target: u32,
        target_shard: usize,
        target_slot: u32,
        time: f64,
        event: E,
    ) -> u64 {
        let seq = self.next_seq();
        if let Some(tb) = self.trace.as_deref_mut() {
            tb.op(TraceOp::Schedule {
                fire_at: time,
                label: (self.labeler)(&event),
                id: seq,
                parent: Some(self.cur_id),
            });
        }
        let entry = Entry::new(
            time,
            seq,
            Some(self.cur_id),
            Routed {
                entity: target,
                slot: target_slot,
                event,
            },
        );
        if target_shard == self.shard {
            (self.local)(entry);
        } else if let Some(bucket) = self.outbox.get_mut(target_shard) {
            bucket.push(entry);
        } else {
            debug_assert!(false, "outbox missing for shard {target_shard}");
        }
        seq
    }

    /// Schedules an event for this entity `delay` from now. Returns the
    /// new event's id.
    pub fn schedule_in(&mut self, delay: f64, event: E) -> u64 {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules an event for this entity at absolute `time`.
    pub(crate) fn schedule_at(&mut self, time: f64, event: E) -> u64 {
        assert!(
            time.is_finite() && time >= self.now,
            "event time must be finite and not in the past"
        );
        self.push(self.entity, self.shard, self.slot as u32, time, event)
    }

    /// Sends an event to `target` firing `delay` from now. Cross-shard
    /// sends must respect the partition's declared lookahead.
    pub fn send_in(&mut self, delay: f64, target: u32, event: E) -> u64 {
        self.send_at(self.now + delay, target, event)
    }

    /// Sends an event to `target` at absolute `time`. For a target on
    /// another shard, `time` must be at least `now + lookahead(edge)` —
    /// the contract the conservative horizons are derived from.
    pub(crate) fn send_at(&mut self, time: f64, target: u32, event: E) -> u64 {
        assert!(
            time.is_finite() && time >= self.now,
            "event time must be finite and not in the past"
        );
        let EntitySlot { shard, slot } = locate(self.index, target);
        let target_shard = shard as usize;
        if target_shard != self.shard {
            let la = self
                .la_row
                .get(target_shard)
                .copied()
                .unwrap_or(f64::INFINITY);
            assert!(
                la.is_finite(),
                "no lookahead edge declared from shard {} to shard {target_shard}",
                self.shard
            );
            assert!(
                time >= self.now + la,
                "cross-shard send at t={time} violates lookahead {la} from shard {} to {} \
                 (now={})",
                self.shard,
                target_shard,
                self.now
            );
        }
        self.push(target, target_shard, slot, time, event)
    }

    /// This entity's deterministic RNG stream, seeded from
    /// `(root seed, entity)` — identical under every partition.
    pub fn rng(&mut self) -> &mut StdRng {
        let entity = self.entity;
        let seed = self.seed;
        if self.rngs.len() <= self.slot {
            self.rngs.resize_with(self.slot + 1, || None);
        }
        let holder = match self.rngs.get_mut(self.slot) {
            Some(h) => h,
            None => {
                debug_assert!(false, "rng slot missing for slot {}", self.slot);
                &mut *self.spare_rng
            }
        };
        holder.get_or_insert_with(|| StdRng::seed_from_u64(entity_stream_seed(seed, entity)))
    }

    /// Opens a tracer span (buffered; replayed in global order).
    pub fn span_enter(&mut self, name: &str) {
        if let Some(tb) = self.trace.as_deref_mut() {
            tb.op(TraceOp::SpanEnter { name: name.into() });
        }
    }

    /// Closes a tracer span.
    pub fn span_exit(&mut self, name: &str) {
        if let Some(tb) = self.trace.as_deref_mut() {
            tb.op(TraceOp::SpanExit { name: name.into() });
        }
    }
}

/// A sharded, parallel-in-time generalization of
/// [`Simulation`](crate::sim::Simulation).
///
/// Construction partitions the entities; [`run_until`] advances every
/// shard in conservative windows, split over up to
/// [`with_threads`] workers of which the calling thread is one. `F` is
/// the sealed FEL backend of *each shard* (default: the calendar
/// queue), so the same equivalence suite that seals the single-queue
/// path seals this one.
///
/// [`run_until`]: ShardedSimulation::run_until
/// [`with_threads`]: ShardedSimulation::with_threads
pub struct ShardedSimulation<P, L, F = CalendarQueue<Routed<<L as LogicalProcess>::Event>>>
where
    L: LogicalProcess,
{
    /// `new` reads the partition once; the engine keeps its type only.
    partition: PhantomData<fn() -> P>,
    shards: Vec<Shard<L, F>>,
    index: Vec<EntitySlot>,
    lookahead: Vec<f64>,
    nshards: usize,
    seed: u64,
    threads: usize,
    root_seq: u64,
    now: f64,
    processed: u64,
    tracer: Option<Box<dyn Tracer>>,
    labeler: fn(&L::Event) -> &'static str,
    trace_pending: u64,
    log_events: bool,
    event_log: Vec<EventRecord>,
}

impl<P, L, F> ShardedSimulation<P, L, F>
where
    P: Partition,
    L: LogicalProcess,
    F: FutureEventList<Routed<L::Event>>,
{
    /// Validates `partition` and distributes `lps` (entity `e` is
    /// `lps[e]`) onto shards. Rejects non-positive / NaN lookaheads and
    /// out-of-range shard assignments up front.
    pub fn new(partition: P, lps: Vec<L>, seed: u64) -> Result<Self, PartitionError> {
        let nshards = partition.shards();
        if nshards == 0 {
            return Err(PartitionError::NoShards);
        }
        if lps.len() > MAX_ENTITIES {
            return Err(PartitionError::TooManyEntities {
                entities: lps.len(),
            });
        }
        let mut lookahead = Vec::with_capacity(nshards * nshards);
        for from in 0..nshards {
            for to in 0..nshards {
                if from == to {
                    lookahead.push(f64::INFINITY);
                    continue;
                }
                let la = partition.lookahead(from, to);
                if la.is_nan() || la <= 0.0 {
                    return Err(PartitionError::BadLookahead {
                        from,
                        to,
                        value: la,
                    });
                }
                lookahead.push(la);
            }
        }
        // Place every entity first, so each shard's arrays are sized once.
        let mut sizes = vec![0usize; nshards];
        let mut index = Vec::with_capacity(lps.len());
        for entity in 0..lps.len() as u32 {
            let s = partition.shard_of(entity);
            let Some(size) = sizes.get_mut(s) else {
                return Err(PartitionError::ShardOutOfRange { entity, shard: s });
            };
            index.push(EntitySlot {
                shard: s as u32,
                slot: *size as u32,
            });
            *size += 1;
        }
        let mut shards: Vec<Shard<L, F>> = sizes.iter().map(|&n| Shard::new(nshards, n)).collect();
        for ((entity, lp), at) in (0u32..).zip(lps).zip(&index) {
            if let Some(shard) = shards.get_mut(at.shard as usize) {
                shard.entities.push(entity);
                shard.cells.push(EntityCell { lane: 0, lp });
            }
        }
        Ok(ShardedSimulation {
            partition: PhantomData,
            shards,
            index,
            lookahead,
            nshards,
            seed,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            root_seq: 0,
            now: 0.0,
            processed: 0,
            tracer: None,
            labeler: unlabeled::<L::Event>,
            trace_pending: 0,
            log_events: false,
            event_log: Vec::new(),
        })
    }

    /// Attaches a tracer (with [`EventLabel`] labels). Disabled tracers
    /// are dropped so the hot path stays branch-light. Attach before
    /// scheduling roots so the replayed pending counts are faithful.
    pub fn with_tracer<T: Tracer + 'static>(mut self, tracer: T) -> Self
    where
        L::Event: EventLabel,
    {
        if tracer.is_enabled() {
            self.labeler = <L::Event as EventLabel>::label;
            self.tracer = Some(Box::new(tracer));
        }
        self
    }

    /// Records every dispatch into an in-memory log retrievable with
    /// [`take_event_log`](ShardedSimulation::take_event_log) — the
    /// equivalence suites compare these across shard counts.
    pub fn with_event_log(mut self) -> Self {
        self.log_events = true;
        self
    }

    /// Caps the worker count (default: the machine's available
    /// parallelism; never more than one worker per shard). The calling
    /// thread is one of the workers, so `with_threads(1)` spawns no
    /// thread. Results are identical at every worker count; this only
    /// tunes wall-clock behavior.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Pre-reserves room for about `events` pending events across all
    /// shards.
    pub fn with_pending_capacity(mut self, events: usize) -> Self {
        let per = events / self.nshards.max(1);
        for shard in &mut self.shards {
            shard.fel.reserve(per);
        }
        self
    }

    /// Schedules a root event (no parent) for `entity` at absolute
    /// `time`. Roots occupy lane 0, so pre-run roots order before any
    /// handler-scheduled event at the same timestamp. Returns the id.
    pub fn schedule(&mut self, time: f64, entity: u32, event: L::Event) -> u64 {
        assert!(
            time.is_finite() && time >= self.now,
            "event time must be finite and not in the past"
        );
        let EntitySlot { shard, slot } = locate(&self.index, entity);
        assert!(
            self.root_seq < 1 << LANE_SHIFT,
            "root event-id lane exhausted (2^32 pre-run roots)"
        );
        let seq = self.root_seq;
        self.root_seq += 1;
        if let Some(tracer) = &self.tracer {
            tracer.on_schedule(self.now, time, (self.labeler)(&event), seq, None);
            self.trace_pending += 1;
        }
        if let Some(shard) = self.shards.get_mut(shard as usize) {
            shard.fel.insert(Entry::new(
                time,
                seq,
                None,
                Routed {
                    entity,
                    slot,
                    event,
                },
            ));
        }
        seq
    }

    /// Current simulated time (advances to the horizon of a bounded run
    /// when events remain beyond it, mirroring `Simulation::run_until`).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total events dispatched across all runs.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Total pending events across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.fel.len()).sum()
    }

    /// Borrows entity `e`'s logical process.
    pub fn lp(&self, entity: u32) -> Option<&L> {
        let &EntitySlot { shard, slot } = self.index.get(entity as usize)?;
        self.shards
            .get(shard as usize)?
            .cells
            .get(slot as usize)
            .map(|cell| &cell.lp)
    }

    /// Consumes the simulation, returning the logical processes in
    /// entity order.
    pub fn into_lps(mut self) -> Vec<L> {
        let mut out: Vec<Option<L>> = (0..self.index.len()).map(|_| None).collect();
        for shard in &mut self.shards {
            for (entity, cell) in shard.entities.iter().zip(shard.cells.drain(..)) {
                if let Some(slot) = out.get_mut(*entity as usize) {
                    *slot = Some(cell.lp);
                }
            }
        }
        debug_assert!(out.iter().all(Option::is_some));
        out.into_iter().flatten().collect()
    }

    /// Drains the merged event log (requires
    /// [`with_event_log`](ShardedSimulation::with_event_log)).
    pub fn take_event_log(&mut self) -> Vec<EventRecord> {
        std::mem::take(&mut self.event_log)
    }

    /// Runs until the FELs drain. Returns events processed this call.
    pub fn run(&mut self) -> u64
    where
        L: Send,
        L::Event: Send,
        F: Send,
    {
        self.run_until(f64::INFINITY)
    }

    /// Runs until `horizon` (events at exactly `horizon` still
    /// execute) or queue exhaustion. Returns the number of events
    /// processed in this call. Deterministic for any shard count,
    /// worker count, and FEL backend. A horizon before the current time
    /// dispatches nothing and leaves the clock where it is.
    ///
    /// Every run takes the same round loop (see `sync`): one worker
    /// per chunk of shards, the calling thread working the last chunk.
    /// A handler panic on any worker ends the run for all of them and
    /// is resumed here; so is the abort of a run whose horizons freeze.
    pub fn run_until(&mut self, horizon: f64) -> u64
    where
        L: Send,
        L::Event: Send,
        F: Send,
    {
        assert!(!horizon.is_nan(), "run horizon must not be NaN");
        let start = self.processed;
        if self.tracer.is_some() {
            for shard in &mut self.shards {
                if shard.trace.is_none() {
                    shard.trace = Some(TraceBuf::default());
                }
            }
        }
        self.run_rounds(horizon);
        self.processed = self.shards.iter().map(|s| s.dispatched).sum();
        let max_now = self.shards.iter().map(|s| s.now).fold(self.now, f64::max);
        self.now = if self.pending() > 0 && horizon.is_finite() {
            horizon.max(max_now)
        } else {
            max_now
        };
        if self.log_events {
            let mut merged: Vec<EventRecord> = Vec::new();
            for shard in &mut self.shards {
                merged.append(&mut shard.log);
            }
            merged.sort_unstable_by(|a, b| a.time.total_cmp(&b.time).then(a.id.cmp(&b.id)));
            self.event_log.extend(merged);
        }
        if let Some(tracer) = &self.tracer {
            let mut groups: Vec<trace::TraceGroup> = Vec::new();
            for shard in &mut self.shards {
                if let Some(tb) = shard.trace.as_mut() {
                    groups.append(&mut tb.take());
                }
            }
            groups.sort_unstable_by(|a, b| a.time.total_cmp(&b.time).then(a.seq.cmp(&b.seq)));
            trace::replay(tracer.as_ref(), &groups, &mut self.trace_pending);
            tracer.on_run_end(self.now, self.processed);
        }
        self.processed - start
    }

    /// Splits the shards into one contiguous chunk per worker and runs
    /// every worker's round loop, the last on the calling thread, until
    /// their common verdict ends the run.
    fn run_rounds(&mut self, run_horizon: f64)
    where
        L: Send,
        L::Event: Send,
        F: Send,
    {
        let per = self.nshards.div_ceil(self.threads.min(self.nshards).max(1));
        let workers = self.nshards.div_ceil(per);
        let plane = SyncPlane::new(self.shards.iter().map(Shard::lower_bound), workers);
        let env = RoundEnv {
            index: &self.index,
            lookahead: &self.lookahead,
            nshards: self.nshards,
            seed: self.seed,
            labeler: self.labeler,
            log_events: self.log_events,
        };
        let plane = &plane;
        let mut chunks = self.shards.chunks_mut(per).enumerate();
        let last = chunks.next_back();
        let ends: Vec<Result<Verdict, Payload>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = chunks
                .map(|(c, chunk)| {
                    scope.spawn(move || worker_loop(chunk, c * per, plane, env, run_horizon))
                })
                .collect();
            let mine = last.map(|(c, chunk)| worker_loop(chunk, c * per, plane, env, run_horizon));
            spawned
                .into_iter()
                .map(|worker| worker.join().unwrap_or_else(Err))
                .chain(mine)
                .collect()
        });
        // Every worker reached the same verdict, so any worker's
        // stall speaks for the run.
        let mut stalled_at = None;
        for end in ends {
            match end {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(Verdict::Stalled(t)) => stalled_at = Some(t),
                Ok(_) => {}
            }
        }
        // API-boundary contract: a frozen round aborts loudly. Some
        // lookahead is below half an ulp of the clock at this time
        // scale, so `lb + la` rounds back to `lb` and the horizons can
        // never pass the earliest pending event; retrying would livelock.
        assert!(
            stalled_at.is_none(),
            "sharded run cannot advance past t={}: a declared lookahead is below \
             the clock's floating-point resolution at this time scale (lb + lookahead \
             rounds back to lb); rescale time units or enlarge the partition's lookaheads",
            stalled_at.unwrap_or_default()
        );
    }
}

/// Dispatches every event of `shard` strictly below horizon `h` (and at
/// most `run_horizon`) in `(time, seq)` order.
fn run_round<L, F>(
    shard: &mut Shard<L, F>,
    s: usize,
    h: f64,
    run_horizon: f64,
    env: RoundEnv<'_, L::Event>,
) where
    L: LogicalProcess,
    F: FutureEventList<Routed<L::Event>>,
{
    let row_start = s * env.nshards;
    let la_row = env
        .lookahead
        .get(row_start..row_start + env.nshards)
        .unwrap_or(&[]);
    loop {
        let Some(entry) = shard.fel.pop_min_until(run_horizon) else {
            break;
        };
        if entry.time >= h {
            // Beyond this round's conservative window: put it back and
            // wait for the horizon to advance.
            shard.fel.insert(entry);
            break;
        }
        // The FEL already knows the next event's target: start loading
        // its cell now, so that miss overlaps this handler instead of
        // stalling the next dispatch.
        if let Some(cell) = shard
            .fel
            .peek_min()
            .and_then(|next| shard.cells.get(next.event.slot as usize))
        {
            prefetch(cell);
        }
        let parent = entry.parent();
        let Entry {
            time,
            seq,
            event:
                Routed {
                    entity,
                    slot,
                    event,
                },
            ..
        } = entry;
        debug_assert!(
            time >= shard.now,
            "time went backwards on shard {s}: popped t={time} seq={seq} after now={}",
            shard.now
        );
        shard.now = time;
        shard.dispatched += 1;
        let slot = slot as usize;
        if let Some(tb) = shard.trace.as_mut() {
            tb.begin(time, seq, parent, (env.labeler)(&event));
        }
        if env.log_events {
            shard.log.push(EventRecord {
                time,
                id: seq,
                parent,
                entity,
            });
        }
        let Some(cell) = shard.cells.get_mut(slot) else {
            debug_assert!(false, "missing entity cell {slot}");
            continue;
        };
        // Split borrow: the handler gets the process, the context gets
        // the lane counter — disjoint fields of the same cell, so the
        // dispatch path moves nothing in or out.
        let EntityCell { lane, lp } = cell;
        let (fel, staging) = (&mut shard.fel, &mut shard.staging);
        let mut local = |e: Entry<Routed<L::Event>>| {
            if e.time < h {
                fel.insert(e);
            } else {
                staging.push(e);
            }
        };
        let mut ctx = ShardCtx {
            now: time,
            entity,
            slot,
            cur_id: seq,
            cur_parent: parent,
            shard: s,
            nshards: env.nshards,
            seed: env.seed,
            local: &mut local,
            outbox: &mut shard.outbox,
            lane,
            rngs: &mut shard.rngs,
            spare_rng: &mut shard.spare_rng,
            index: env.index,
            la_row,
            trace: shard.trace.as_mut(),
            labeler: env.labeler,
        };
        lp.handle(event, &mut ctx);
    }
}

type Payload = Box<dyn Any + Send>;

/// One worker: runs its chunk of shards (the first is shard `base`)
/// through the round protocol of [`sync`] until its verdict ends the
/// run, and returns that verdict. A handler panic is caught so the
/// barriers stay populated, announced between the round's barriers,
/// and returned instead.
fn worker_loop<L, F>(
    chunk: &mut [Shard<L, F>],
    base: usize,
    plane: &SyncPlane<Entry<Routed<L::Event>>>,
    env: RoundEnv<'_, L::Event>,
    run_horizon: f64,
) -> Result<Verdict, Payload>
where
    L: LogicalProcess,
    F: FutureEventList<Routed<L::Event>>,
{
    let mut lbs = Vec::new();
    let mut horizons = Vec::new();
    let mut payload = None;
    let verdict = loop {
        match plane.verdict(env.lookahead, run_horizon, &mut lbs, &mut horizons) {
            Verdict::Run => {}
            end => break end,
        }
        let ran = catch_unwind(AssertUnwindSafe(|| {
            for (shard, s) in chunk.iter_mut().zip(base..) {
                let h = horizons.get(s).copied().unwrap_or(f64::INFINITY);
                run_round(shard, s, h, run_horizon, env);
                for (t, bucket) in shard.outbox.iter_mut().enumerate() {
                    plane.post(t, bucket);
                }
            }
        }));
        plane.wait(); // every post of the round is in
        let collected = ran.and_then(|()| {
            catch_unwind(AssertUnwindSafe(|| {
                for (shard, s) in chunk.iter_mut().zip(base..) {
                    plane.collect(s, &mut shard.staging);
                    shard.absorb_staged();
                    plane.set_lb(s, shard.lower_bound());
                }
            }))
        });
        if let Err(p) = collected {
            plane.mark_panicked();
            payload = Some(p);
        }
        plane.wait(); // every announcement of the round is in
    };
    payload.map_or(Ok(verdict), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_telemetry::recorder::Recorder;
    use atlarge_telemetry::tracer::NullTracer;
    use rand::Rng;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on its own thread and returns how it ended, panic
    /// included. A run still going after 30 s fails the test with
    /// "deadlock" instead of hanging the test binary; its thread is left
    /// behind.
    fn watchdog<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (done, ended) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(catch_unwind(AssertUnwindSafe(f)));
        });
        match ended.recv_timeout(Duration::from_secs(30)) {
            Ok(end) => end,
            Err(_) => panic!("deadlock: the sharded run did not end within 30 s"),
        }
    }

    /// A ring of entities: each handles Tick by forwarding a Tick to the
    /// next entity after a delay >= the partition lookahead, mixing its
    /// RNG stream into a running checksum.
    struct RingNode {
        next: u32,
        hops_left: u32,
        sum: u64,
    }

    #[derive(Debug, Clone)]
    struct Tick;

    impl EventLabel for Tick {
        fn label(&self) -> &'static str {
            "tick"
        }
    }

    impl LogicalProcess for RingNode {
        type Event = Tick;
        fn handle(&mut self, _ev: Tick, ctx: &mut ShardCtx<'_, Tick>) {
            self.sum = self
                .sum
                .wrapping_mul(31)
                .wrapping_add(ctx.rng().gen::<u64>());
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.send_in(1.0, self.next, Tick);
            }
        }
    }

    fn ring(n: u32, hops: u32) -> Vec<RingNode> {
        (0..n)
            .map(|e| RingNode {
                next: (e + 1) % n,
                hops_left: hops,
                sum: 0,
            })
            .collect()
    }

    fn run_ring(shards: usize, threads: usize) -> (Vec<EventRecord>, Vec<u64>, f64, u64) {
        let part = StaticPartition::round_robin(8, shards, 1.0);
        let mut sim: ShardedSimulation<_, _> = match ShardedSimulation::new(part, ring(8, 5), 7) {
            Ok(sim) => sim,
            Err(e) => unreachable!("valid partition rejected: {e}"),
        };
        sim = sim.with_event_log().with_threads(threads);
        for e in 0..8 {
            sim.schedule(0.5, e, Tick);
        }
        sim.run();
        let log = sim.take_event_log();
        let now = sim.now();
        let processed = sim.processed();
        let sums = sim.into_lps().into_iter().map(|n| n.sum).collect();
        (log, sums, now, processed)
    }

    #[test]
    fn shard_and_thread_counts_do_not_change_results() {
        let base = run_ring(1, 1);
        assert_eq!(base.3, 8 * 6);
        for (shards, threads) in [(2, 1), (2, 2), (8, 1), (8, 4), (3, 2)] {
            let got = run_ring(shards, threads);
            assert_eq!(
                got, base,
                "divergence at {shards} shards / {threads} threads"
            );
        }
    }

    #[test]
    fn null_tracer_is_dropped_not_installed() {
        let new_ring = || {
            let part = StaticPartition::round_robin(8, 2, 1.0);
            match ShardedSimulation::new(part, ring(8, 5), 7) {
                Ok(sim) => sim,
                Err(e) => unreachable!("valid partition rejected: {e}"),
            }
        };
        // The run keeps the untraced hot path, so attaching costs nothing.
        let sim: ShardedSimulation<_, _> = new_ring().with_tracer(NullTracer);
        assert!(sim.tracer.is_none());
        let sim: ShardedSimulation<_, _> = new_ring().with_tracer(Recorder::new());
        assert!(sim.tracer.is_some());
    }

    #[test]
    fn zero_lookahead_edges_are_rejected_up_front() {
        let part = StaticPartition::round_robin(4, 2, 0.0);
        let res: Result<ShardedSimulation<_, RingNode>, _> =
            ShardedSimulation::new(part, ring(4, 1), 1);
        assert!(matches!(
            res,
            Err(PartitionError::BadLookahead { value, .. }) if value == 0.0
        ));
    }

    #[test]
    fn run_until_bounds_time_like_the_sealed_engine() {
        let part = StaticPartition::block(4, 2, 1.0);
        let mut sim: ShardedSimulation<_, _> = match ShardedSimulation::new(part, ring(4, 10), 3) {
            Ok(sim) => sim,
            Err(e) => unreachable!("valid partition rejected: {e}"),
        };
        sim = sim.with_threads(1);
        sim.schedule(0.0, 0, Tick);
        sim.run_until(3.0);
        assert_eq!(sim.now(), 3.0);
        assert_eq!(sim.processed(), 4); // t = 0, 1, 2, 3
        sim.run_until(f64::INFINITY);
        // Each of the 4 nodes forwards 10 times; node 0 handles once
        // more with hops exhausted: 41 events, last at t = 40.
        assert_eq!(sim.processed(), 41);
        assert_eq!(sim.now(), 40.0);
    }

    /// One-directional flooder: entity 0 bursts 64 cross-shard events
    /// per dispatch at a sink entity and re-arms itself a fixed number
    /// of times; the sink only counts.
    struct Pump {
        target: u32,
        bursts_left: u32,
        received: u64,
    }

    impl LogicalProcess for Pump {
        type Event = Tick;
        fn handle(&mut self, _ev: Tick, ctx: &mut ShardCtx<'_, Tick>) {
            self.received += 1;
            if self.bursts_left > 0 {
                self.bursts_left -= 1;
                for _ in 0..64 {
                    ctx.send_in(1.0, self.target, Tick);
                }
                if self.bursts_left > 0 {
                    ctx.schedule_in(1.0, Tick);
                }
            }
        }
    }

    fn run_flood(shards: usize, threads: usize) -> (Vec<EventRecord>, Vec<u64>) {
        let part = StaticPartition::round_robin(2, shards, 1.0);
        let lps = vec![
            Pump {
                target: 1,
                bursts_left: 3,
                received: 0,
            },
            Pump {
                target: 0,
                bursts_left: 0,
                received: 0,
            },
        ];
        let mut sim: ShardedSimulation<_, _> = match ShardedSimulation::new(part, lps, 11) {
            Ok(sim) => sim,
            Err(e) => unreachable!("valid partition rejected: {e}"),
        };
        sim = sim.with_event_log().with_threads(threads);
        sim.schedule(0.0, 0, Tick);
        sim.run();
        let log = sim.take_event_log();
        let received = sim.into_lps().into_iter().map(|p| p.received).collect();
        (log, received)
    }

    #[test]
    fn one_directional_floods_survive() {
        // 192 events cross one edge while the receiving worker has
        // nothing to send back.
        let base = run_flood(1, 1);
        assert_eq!(base.1, vec![3, 192]);
        for (shards, threads) in [(2, 2), (2, 1)] {
            let got = watchdog(move || run_flood(shards, threads));
            assert_eq!(
                got.ok().as_ref(),
                Some(&base),
                "divergence at {shards} shards / {threads} threads"
            );
        }
    }

    #[test]
    fn handler_panics_surface_without_deadlocking_workers() {
        struct Bomb;
        #[derive(Debug)]
        struct Go;
        impl LogicalProcess for Bomb {
            type Event = Go;
            fn handle(&mut self, _ev: Go, _ctx: &mut ShardCtx<'_, Go>) {
                panic!("boom");
            }
        }
        let part = StaticPartition::round_robin(4, 4, 1.0);
        let mut sim: ShardedSimulation<_, _> =
            match ShardedSimulation::new(part, vec![Bomb, Bomb, Bomb, Bomb], 1) {
                Ok(sim) => sim,
                Err(e) => unreachable!("valid partition rejected: {e}"),
            };
        sim = sim.with_threads(4);
        sim.schedule(0.0, 2, Go);
        let caught = watchdog(move || {
            sim.run();
        });
        assert!(caught.is_err());
    }

    /// Entity 0 floods shard 1 in the same round that shard 1's only
    /// entity panics: `run()` must re-panic, not hang.
    #[test]
    fn panics_with_flooded_shards_do_not_deadlock() {
        struct FloodOrBomb {
            flood_to: Option<u32>,
        }
        #[derive(Debug)]
        struct Poke;
        impl LogicalProcess for FloodOrBomb {
            type Event = Poke;
            fn handle(&mut self, _ev: Poke, ctx: &mut ShardCtx<'_, Poke>) {
                match self.flood_to {
                    Some(target) => {
                        for _ in 0..64 {
                            ctx.send_in(1.0, target, Poke);
                        }
                    }
                    None => panic!("boom"),
                }
            }
        }
        let part = StaticPartition::round_robin(2, 2, 1.0);
        let lps = vec![
            FloodOrBomb { flood_to: Some(1) },
            FloodOrBomb { flood_to: None },
        ];
        let mut sim: ShardedSimulation<_, _> = match ShardedSimulation::new(part, lps, 1) {
            Ok(sim) => sim,
            Err(e) => unreachable!("valid partition rejected: {e}"),
        };
        sim = sim.with_threads(2);
        sim.schedule(0.0, 0, Poke);
        sim.schedule(0.0, 1, Poke);
        let caught = watchdog(move || {
            sim.run();
        });
        assert!(caught.is_err());
    }

    /// A ring node that forwards every tick to the next node, one time
    /// unit on, and panics on its `fuse`-th tick when it has a fuse.
    struct Fused {
        next: u32,
        fuse: Option<u32>,
    }

    impl LogicalProcess for Fused {
        type Event = Tick;
        fn handle(&mut self, _ev: Tick, ctx: &mut ShardCtx<'_, Tick>) {
            if let Some(left) = self.fuse.as_mut() {
                *left -= 1;
                assert!(*left > 0, "late boom at t={}", ctx.now());
            }
            ctx.send_in(1.0, self.next, Tick);
        }
    }

    /// A handler panics in a later round, after several rounds of
    /// cross-shard traffic, on one shard per worker. The panicking
    /// entity sits once on the first shard (a spawned worker's) and
    /// once on the last (the calling thread's). Whichever worker
    /// panics, every worker must leave the round loop together and the
    /// payload must reach the caller.
    #[test]
    fn later_round_panics_end_every_worker() {
        for workers in [2u32, 3, 4] {
            for fused in [0, workers - 1] {
                let end = watchdog(move || {
                    let n = 12;
                    let lps = (0..n)
                        .map(|e| Fused {
                            next: (e + 1) % n,
                            fuse: (e == fused).then_some(6),
                        })
                        .collect();
                    let part = StaticPartition::round_robin(n as usize, workers as usize, 1.0);
                    let mut sim: ShardedSimulation<_, _> =
                        match ShardedSimulation::new(part, lps, 3) {
                            Ok(sim) => sim.with_threads(workers as usize),
                            Err(e) => unreachable!("valid partition rejected: {e}"),
                        };
                    for e in 0..n {
                        sim.schedule(0.0, e, Tick);
                    }
                    sim.run();
                });
                let msg = match end {
                    Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
                    Ok(()) => unreachable!("run with a fuse returned at {workers} workers"),
                };
                assert_eq!(
                    msg, "late boom at t=5",
                    "entity {fused} at {workers} workers"
                );
            }
        }
    }

    /// At t = 1e16 the clock's ulp is 2.0, so `lb + 1.0` rounds back to
    /// `lb` and the conservative horizons freeze. The kernel must fail
    /// with a diagnostic instead of spinning in zero-progress rounds.
    #[test]
    fn sub_ulp_lookaheads_panic_instead_of_livelocking() {
        for threads in [1, 2] {
            let part = StaticPartition::round_robin(2, 2, 1.0);
            let mut sim: ShardedSimulation<_, _> = match ShardedSimulation::new(part, ring(2, 1), 1)
            {
                Ok(sim) => sim,
                Err(e) => unreachable!("valid partition rejected: {e}"),
            };
            sim = sim.with_threads(threads);
            sim.schedule(1e16, 0, Tick);
            sim.schedule(1e16, 1, Tick);
            let caught = watchdog(move || {
                sim.run();
            });
            let payload = match caught {
                Err(p) => p,
                Ok(()) => unreachable!("frozen run returned at {threads} threads"),
            };
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("cannot advance"),
                "unexpected panic message: {msg}"
            );
        }
    }

    fn ring_sim(nodes: Vec<RingNode>) -> ShardedSimulation<StaticPartition, RingNode> {
        let part = StaticPartition::round_robin(nodes.len(), 2, 1.0);
        match ShardedSimulation::new(part, nodes, 5) {
            Ok(sim) => sim.with_threads(1),
            Err(e) => unreachable!("valid partition rejected: {e}"),
        }
    }

    #[test]
    #[should_panic(expected = "unknown entity 3")]
    fn roots_for_unknown_entities_panic_in_every_build() {
        ring_sim(ring(3, 1)).schedule(0.0, 3, Tick);
    }

    #[test]
    #[should_panic(expected = "unknown entity 9")]
    fn sends_to_unknown_entities_panic_in_every_build() {
        let mut nodes = ring(3, 1);
        nodes[2].next = 9;
        let mut sim = ring_sim(nodes);
        sim.schedule(0.0, 2, Tick);
        sim.run();
    }

    /// Two idle nodes with roots at t = 10 and t = 20, run to t = 15.
    fn half_run_pair() -> ShardedSimulation<StaticPartition, RingNode> {
        let mut sim = ring_sim(ring(2, 0)).with_event_log();
        sim.schedule(10.0, 0, Tick);
        sim.schedule(20.0, 1, Tick);
        sim.run_until(15.0);
        assert_eq!(sim.now(), 15.0);
        sim
    }

    #[test]
    fn an_earlier_horizon_leaves_the_clock_alone() {
        let mut sim = half_run_pair();
        assert_eq!(sim.run_until(5.0), 0);
        assert_eq!(sim.now(), 15.0);
        sim.run();
        let times: Vec<f64> = sim.take_event_log().iter().map(|r| r.time).collect();
        assert_eq!(times, vec![10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "not in the past")]
    fn roots_before_now_panic_after_an_earlier_horizon() {
        let mut sim = half_run_pair();
        sim.run_until(5.0);
        sim.schedule(7.0, 0, Tick);
    }

    #[test]
    fn short_assignment_maps_are_rejected() {
        let part = StaticPartition::from_assignment(vec![1], 2, 1.0);
        let res: Result<ShardedSimulation<_, RingNode>, _> =
            ShardedSimulation::new(part, ring(3, 1), 1);
        assert_eq!(
            res.err(),
            Some(PartitionError::ShardOutOfRange {
                entity: 1,
                shard: 2
            })
        );
    }

    #[test]
    fn rng_slots_are_allocated_by_the_first_draw() {
        // Pump never draws: its shards hold no RNG slots after a run.
        let part = StaticPartition::round_robin(2, 1, 1.0);
        let pumps = (0..2)
            .map(|e| Pump {
                target: 1 - e,
                bursts_left: 2,
                received: 0,
            })
            .collect();
        let mut quiet: ShardedSimulation<_, _> = match ShardedSimulation::new(part, pumps, 1) {
            Ok(sim) => sim,
            Err(e) => unreachable!("valid partition rejected: {e}"),
        };
        quiet.schedule(0.0, 0, Tick);
        quiet.run();
        assert!(quiet.shards.iter().all(|s| s.rngs.is_empty()));
        // Every ring node draws, so every slot of its shard is filled.
        let mut drawing = ring_sim(ring(5, 1));
        for e in 0..5 {
            drawing.schedule(0.0, e, Tick);
        }
        drawing.run();
        for shard in &drawing.shards {
            assert_eq!(shard.rngs.len(), shard.cells.len());
            assert!(shard.rngs.iter().all(Option::is_some));
        }
    }
}
