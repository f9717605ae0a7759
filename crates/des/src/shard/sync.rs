//! Conservative-synchronization internals of the sharded kernel.
//!
//! This module is the *machinery* side of the `shard-boundary` layer
//! contract (lint.toml `[layer.shard-boundary]`, enforced by AL008):
//! domain crates program against [`Partition`](super::Partition) /
//! [`ShardedSimulation`](super::ShardedSimulation) and must never name
//! the mailboxes, lower-bound announcements, or horizon math in here —
//! those are free to change as the protocol evolves.
//!
//! # Horizons
//!
//! The kernel runs Chandy–Misra–Bryant conservative synchronization in
//! *windowed* form: instead of per-channel null messages, every shard
//! announces one lower bound (LB) per round — the timestamp of its
//! earliest pending event — which acts as a batched null message on all
//! of its outgoing edges at once. The raw LB vector is not yet safe to
//! window on: a shard whose own queue is empty (LB = ∞) can still
//! *receive* an event this round and relay a consequence of it early
//! the next — a multi-hop path the single-hop bound misses. So the LBs
//! are first relaxed through the lookahead graph to earliest-execution
//! bounds (the fixpoint of)
//!
//! ```text
//! exec(s) = min( LB(s), min over r != s of exec(r) + lookahead(r, s) )
//! ```
//!
//! — each shard's earliest time it could possibly execute *any* event,
//! pending or yet to arrive over any path — and then turned into
//! horizons:
//!
//! ```text
//! horizon(s) = min over r != s of  exec(r) + lookahead(r, s)
//! ```
//!
//! A shard may safely dispatch every event strictly below its horizon:
//! any event that could still reach it fires no earlier than that.
//! Because every declared lookahead is strictly positive, the shard
//! holding the globally earliest event has `exec` equal to its LB and a
//! horizon strictly above it, so every round makes progress — in exact
//! arithmetic. When a lookahead is below half an ulp of the clock,
//! `lb + la` rounds back to `lb` and the horizons freeze; [`stalled`]
//! detects that corner so the run can abort with a diagnostic instead
//! of livelocking.
//!
//! # Rounds
//!
//! Every run, with one worker or many, is one loop of rounds. Each
//! worker owns a contiguous chunk of shards, and the calling thread is
//! the last worker. A round has two barriers:
//!
//! 1. **Verdict.** The worker reads the announced LBs and the panic
//!    flag and decides for itself ([`SyncPlane::verdict`]): stop on a
//!    panic or at quiescence, abort on a stall, or run below the
//!    horizons it just computed. The inputs are the same on every
//!    worker, so every worker reaches the same verdict in the same round
//!    and no coordinator is needed.
//! 2. **Run and post.** It dispatches each of its shards below that
//!    shard's horizon, then appends each non-empty outbox bucket to the
//!    target shard's mailbox, one `Mutex<Vec<_>>` per shard.
//! 3. *First barrier:* every post of the round is in.
//! 4. **Collect and announce.** It moves each of its shards' mailboxes
//!    into that shard's staging buffer, merges the buffer into the FEL
//!    (sorted by `(time, seq)`, so the order in which posts landed never
//!    matters), and announces the shard's new LB. A handler panic caught
//!    in step 2 or here is announced now.
//! 5. *Second barrier:* every announcement of the round is in.
//!
//! A round's cross-shard events sit in the outboxes until the round
//! ends, so a bound on the mailboxes would bound nothing, and no worker
//! ever waits on a peer except at the two barriers.
//!
//! **The invariant:** a verdict reads only values written between a
//! round's two barriers (or before the workers started). Nothing a
//! worker writes before the first barrier may change a verdict, since a
//! peer can still be deciding the same round: a panic flag set the
//! moment a panic is caught would let that peer stop while the
//! panicking worker waits at the first barrier for it forever. Writes
//! after the first barrier cannot race a verdict: every worker has
//! passed its verdict to reach that barrier, and the next verdict comes
//! after the second.
//!
//! With one worker the barriers are skipped: `Barrier::wait` pays a
//! futex wake even when alone, and there is no peer to order against.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

/// Computes the conservative horizon of every shard from the current
/// lower-bound vector and the row-major `lookahead` matrix
/// (`lookahead[r * n + s]` = minimum cross-shard latency from `r` to
/// `s`, `INFINITY` when no edge exists). A shard with no incoming
/// edges gets an infinite horizon.
///
/// The LBs are first relaxed to earliest-execution bounds through the
/// lookahead graph (see the module docs): the shortest relaxing path
/// has at most `n - 1` edges, so `n - 1` Bellman–Ford sweeps reach the
/// fixpoint, and strictly positive lookaheads rule out the analogue of
/// negative cycles.
pub(crate) fn conservative_horizons(lbs: &[f64], lookahead: &[f64], out: &mut Vec<f64>) {
    let n = lbs.len();
    let edge = |r: usize, s: usize| lookahead.get(r * n + s).copied().unwrap_or(f64::INFINITY);
    let mut exec: Vec<f64> = lbs.to_vec();
    for _ in 1..n {
        let mut changed = false;
        for s in 0..n {
            let mut recv = f64::INFINITY;
            for r in 0..n {
                if r == s {
                    continue;
                }
                // `INFINITY + la` stays infinite, so unreachable peers
                // and missing edges drop out of the min automatically.
                let bound = exec.get(r).copied().unwrap_or(f64::INFINITY) + edge(r, s);
                if bound < recv {
                    recv = bound;
                }
            }
            if let Some(slot) = exec.get_mut(s) {
                if recv < *slot {
                    *slot = recv;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    out.clear();
    for s in 0..n {
        let mut h = f64::INFINITY;
        for (r, ex) in exec.iter().enumerate() {
            if r == s {
                continue;
            }
            let bound = *ex + edge(r, s);
            if bound < h {
                h = bound;
            }
        }
        out.push(h);
    }
}

/// Whether a bounded run is finished: every shard's earliest pending
/// event is either nonexistent or strictly beyond the run horizon
/// (events *at* the horizon still execute, mirroring
/// `Simulation::run_until`).
pub(crate) fn quiescent(lbs: &[f64], run_horizon: f64) -> bool {
    lbs.iter()
        .all(|&lb| lb == f64::INFINITY || lb > run_horizon)
}

/// Whether a round would dispatch nothing at all: every shard's
/// earliest pending event is at or beyond its horizon, or beyond the
/// run horizon. With events remaining (`!quiescent`) this is impossible
/// in exact arithmetic — the globally earliest shard always has a
/// horizon strictly above its LB — but when a lookahead is smaller than
/// half an ulp of the clock the horizon math rounds to a fixpoint that
/// never advances. A stalled round re-derives the same LBs and horizons
/// forever, so callers must treat it as fatal rather than retry.
pub(crate) fn stalled(lbs: &[f64], horizons: &[f64], run_horizon: f64) -> bool {
    lbs.iter()
        .zip(horizons)
        .all(|(&lb, &h)| lb >= h || lb > run_horizon)
}

/// What a worker decides at the top of a round.
pub(crate) enum Verdict {
    /// Dispatch below the horizons just computed.
    Run,
    /// The run is over: quiescent, or a handler panicked.
    Stop,
    /// The horizons froze with the earliest pending event at this time
    /// (see [`stalled`]).
    Stalled(f64),
}

/// The shared state of one run: one lower bound (an f64 bit pattern)
/// and one mailbox per shard, the panic flag, and the round barrier.
/// The barrier orders every access (see the module docs), so the
/// atomics only need to be tear-free. A mailbox is only ever changed
/// by one `append`, which leaves the vector valid at every step, so a
/// poisoned mailbox lock still guards valid events.
pub(crate) struct SyncPlane<T> {
    lbs: Vec<AtomicU64>,
    mailboxes: Vec<Mutex<Vec<T>>>,
    panicked: AtomicBool,
    /// `None` with one worker.
    barrier: Option<Barrier>,
}

impl<T> SyncPlane<T> {
    /// A plane for `workers` workers whose shards start with `lbs`.
    pub(crate) fn new(lbs: impl Iterator<Item = f64>, workers: usize) -> Self {
        let lbs: Vec<AtomicU64> = lbs.map(|lb| AtomicU64::new(lb.to_bits())).collect();
        SyncPlane {
            mailboxes: lbs.iter().map(|_| Mutex::new(Vec::new())).collect(),
            lbs,
            panicked: AtomicBool::new(false),
            barrier: (workers > 1).then(|| Barrier::new(workers)),
        }
    }

    /// Waits until every worker reaches the same barrier.
    pub(crate) fn wait(&self) {
        if let Some(barrier) = &self.barrier {
            barrier.wait();
        }
    }

    /// Decides the next round from the announced lower bounds, leaving
    /// them in `lbs` and, for [`Verdict::Run`], the horizons in
    /// `horizons`.
    pub(crate) fn verdict(
        &self,
        lookahead: &[f64],
        run_horizon: f64,
        lbs: &mut Vec<f64>,
        horizons: &mut Vec<f64>,
    ) -> Verdict {
        if self.panicked.load(Ordering::Relaxed) {
            return Verdict::Stop;
        }
        lbs.clear();
        lbs.extend(
            self.lbs
                .iter()
                .map(|slot| f64::from_bits(slot.load(Ordering::Relaxed))),
        );
        if quiescent(lbs, run_horizon) {
            return Verdict::Stop;
        }
        conservative_horizons(lbs, lookahead, horizons);
        if stalled(lbs, horizons, run_horizon) {
            return Verdict::Stalled(lbs.iter().copied().fold(f64::INFINITY, f64::min));
        }
        Verdict::Run
    }

    /// Appends `bucket` to `shard`'s mailbox, unless it is empty; the
    /// bucket keeps its allocation.
    pub(crate) fn post(&self, shard: usize, bucket: &mut Vec<T>) {
        if bucket.is_empty() {
            return;
        }
        if let Some(mailbox) = self.mailboxes.get(shard) {
            mailbox
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(bucket);
        }
    }

    /// Moves everything posted to `shard` onto `into`.
    pub(crate) fn collect(&self, shard: usize, into: &mut Vec<T>) {
        if let Some(mailbox) = self.mailboxes.get(shard) {
            into.append(&mut mailbox.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }

    pub(crate) fn set_lb(&self, shard: usize, lb: f64) {
        if let Some(slot) = self.lbs.get(shard) {
            slot.store(lb.to_bits(), Ordering::Relaxed);
        }
    }

    /// Ends the run at the next verdict. Call only between a round's
    /// barriers.
    pub(crate) fn mark_panicked(&self) {
        self.panicked.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizons_follow_relaxed_exec_plus_lookahead() {
        // Two shards, lookahead 1.0 both ways. Shard 1's earliest
        // pending event is at 20, but it could receive shard 0's t=5
        // event's consequence and relay at 5 + 1 + 1 = 7 — shard 0's
        // horizon must be 7, not 21.
        let la = vec![f64::INFINITY, 1.0, 1.0, f64::INFINITY];
        let mut out = Vec::new();
        conservative_horizons(&[5.0, 20.0], &la, &mut out);
        assert_eq!(out, vec![7.0, 6.0]);
    }

    #[test]
    fn empty_relay_shards_do_not_unbound_downstream_horizons() {
        // Chain 0 -> 1 -> 2 with unit lookahead; shard 1 is empty.
        // Shard 2 must still be bounded by the two-hop path through 1:
        // 0.0 + 1 + 1 = 2.0.
        let inf = f64::INFINITY;
        #[rustfmt::skip]
        let la = vec![
            inf, 1.0, inf,
            inf, inf, 1.0,
            inf, inf, inf,
        ];
        let mut out = Vec::new();
        conservative_horizons(&[0.0, inf, 100.0], &la, &mut out);
        assert_eq!(out, vec![inf, 1.0, 2.0]);
    }

    #[test]
    fn empty_peer_and_missing_edge_drop_out() {
        // 0 -> 1 only; shard 0 has no incoming edge.
        let la = vec![f64::INFINITY, 2.0, f64::INFINITY, f64::INFINITY];
        let mut out = Vec::new();
        conservative_horizons(&[3.0, f64::INFINITY], &la, &mut out);
        assert_eq!(out, vec![f64::INFINITY, 5.0]);
    }

    #[test]
    fn quiescence_is_strict_past_the_horizon() {
        assert!(!quiescent(&[10.0, f64::INFINITY], 10.0));
        assert!(quiescent(&[10.5, f64::INFINITY], 10.0));
        assert!(quiescent(&[f64::INFINITY], f64::INFINITY));
        assert!(!quiescent(&[3.0], f64::INFINITY));
    }
}
