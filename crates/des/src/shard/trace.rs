//! Deterministic trace capture for sharded runs.
//!
//! Shards execute concurrently, so tracer hooks cannot be invoked live:
//! the interleaving of calls across worker threads would differ run to
//! run (and shard count to shard count) even though the simulation
//! itself is deterministic. Instead each shard buffers its tracer
//! activity as one [`TraceGroup`] per dispatched event; after the run
//! the calling thread sorts all groups by the global `(time, seq)` order
//! and replays them into the single attached tracer. A 1-shard run
//! buffers and replays identically, so traces are byte-for-byte
//! invariant in the shard count.

use atlarge_telemetry::tracer::Tracer;

/// One buffered tracer call made during a dispatch.
pub(crate) enum TraceOp {
    /// `Ctx`-equivalent `on_schedule`: a handler scheduled `id` to fire
    /// at `fire_at`.
    Schedule {
        fire_at: f64,
        label: &'static str,
        id: u64,
        parent: Option<u64>,
    },
    SpanEnter {
        name: String,
    },
    SpanExit {
        name: String,
    },
}

/// Everything one dispatch contributes to the trace: the dispatch
/// itself plus the in-order schedule/span calls its handler made.
pub(crate) struct TraceGroup {
    pub(crate) time: f64,
    pub(crate) seq: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) label: &'static str,
    pub(crate) ops: Vec<TraceOp>,
}

/// Per-shard buffer of dispatch groups, appended in shard-local
/// dispatch order (which is `(time, seq)`-monotone, so a global sort
/// after the run is a pure merge).
#[derive(Default)]
pub(crate) struct TraceBuf {
    pub(crate) groups: Vec<TraceGroup>,
}

impl TraceBuf {
    pub(crate) fn begin(&mut self, time: f64, seq: u64, parent: Option<u64>, label: &'static str) {
        self.groups.push(TraceGroup {
            time,
            seq,
            parent,
            label,
            ops: Vec::new(),
        });
    }

    pub(crate) fn op(&mut self, op: TraceOp) {
        if let Some(group) = self.groups.last_mut() {
            group.ops.push(op);
        }
    }

    pub(crate) fn take(&mut self) -> Vec<TraceGroup> {
        std::mem::take(&mut self.groups)
    }
}

/// Replays merged dispatch groups into `tracer`, reconstructing the
/// global pending-event count (`queue_len` of `on_dispatch`) that a
/// single-queue run would have reported: dispatch decrements it,
/// every schedule increments it. `pending` persists across `run_until`
/// calls on the owning simulation (roots scheduled between runs are
/// counted at schedule time).
pub(crate) fn replay(tracer: &dyn Tracer, groups: &[TraceGroup], pending: &mut u64) {
    for group in groups {
        *pending = pending.saturating_sub(1);
        let queue_len = usize::try_from(*pending).unwrap_or(usize::MAX);
        tracer.on_dispatch(group.time, group.label, queue_len, group.seq, group.parent);
        for op in &group.ops {
            match op {
                TraceOp::Schedule {
                    fire_at,
                    label,
                    id,
                    parent,
                } => {
                    tracer.on_schedule(group.time, *fire_at, label, *id, *parent);
                    *pending += 1;
                }
                TraceOp::SpanEnter { name } => tracer.on_span_enter(group.time, name),
                TraceOp::SpanExit { name } => tracer.on_span_exit(group.time, name),
            }
        }
    }
}
