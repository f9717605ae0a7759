//! Conservative-synchronization internals of the sharded kernel.
//!
//! This module is the *machinery* side of the `shard-boundary` layer
//! contract (lint.toml `[layer.shard-boundary]`, enforced by AL008):
//! domain crates program against [`StaticPartition`](super::StaticPartition) /
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
//! the next. So each shard's earliest possible execution is
//! `exec(s) = min(LB(s), exec(r) + la)` over every other shard `r`, and
//! its horizon is `min(exec(r) + la)` over every other shard `r`.
//!
//! Every pair of shards shares the one lookahead `la`, so that fixpoint
//! has a closed form. Let `m` be the smallest LB, `s*` the first shard
//! holding it, and `m2` the smallest LB of the other shards. Then
//!
//! ```text
//! horizon(s)  = m + la                     for s != s*
//! horizon(s*) = min(m2, m + la) + la
//! ```
//!
//! and a lone shard's horizon is infinite. A shard may safely dispatch
//! every event strictly below its horizon: any event that could still
//! reach it fires no earlier than that. Because `la` is strictly
//! positive, `s*` has a horizon strictly above `m`, so every round makes
//! progress — in exact arithmetic. When `la` is below half an ulp of the
//! clock, `m + la` rounds back to `m` and the horizons freeze; [`stalled`]
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
/// lower-bound vector and the partition's lookahead `la`, in one pass
/// (see the module docs for the closed form).
pub(crate) fn conservative_horizons(lbs: &[f64], la: f64, out: &mut Vec<f64>) {
    let (mut first, mut m, mut m2) = (0, f64::INFINITY, f64::INFINITY);
    for (s, &lb) in lbs.iter().enumerate() {
        if lb < m {
            (first, m, m2) = (s, lb, m);
        } else if lb < m2 {
            m2 = lb;
        }
    }
    out.clear();
    out.resize(lbs.len(), m + la);
    if let Some(h) = out.get_mut(first) {
        *h = if lbs.len() > 1 {
            m2.min(m + la) + la
        } else {
            f64::INFINITY
        };
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
        la: f64,
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
        conservative_horizons(lbs, la, horizons);
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
    use atlarge_check::check;
    use rand::Rng;

    /// The reference the closed form must match: `n - 1` Bellman–Ford
    /// sweeps of `exec(s) = min(exec(s), exec(r) + la)` over every
    /// other shard `r`, then `horizon(s) = min(exec(r) + la)`.
    fn reference_horizons(lbs: &[f64], la: f64) -> Vec<f64> {
        let n = lbs.len();
        let mut exec: Vec<f64> = lbs.to_vec();
        for _ in 1..n {
            let mut changed = false;
            for s in 0..n {
                let mut recv = f64::INFINITY;
                for (r, ex) in exec.iter().enumerate() {
                    if r != s && *ex + la < recv {
                        recv = *ex + la;
                    }
                }
                if recv < exec[s] {
                    exec[s] = recv;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (0..n)
            .map(|s| {
                let mut h = f64::INFINITY;
                for (r, ex) in exec.iter().enumerate() {
                    if r != s && *ex + la < h {
                        h = *ex + la;
                    }
                }
                h
            })
            .collect()
    }

    fn horizons(lbs: &[f64], la: f64) -> Vec<f64> {
        let mut out = Vec::new();
        conservative_horizons(lbs, la, &mut out);
        out
    }

    #[test]
    fn horizons_follow_relaxed_exec_plus_lookahead() {
        // Two shards, lookahead 1.0. Shard 1's earliest pending event
        // is at 20, but it could receive shard 0's t=5 event's
        // consequence and relay at 5 + 1 + 1 = 7 — shard 0's horizon
        // must be 7, not 21.
        assert_eq!(horizons(&[5.0, 20.0], 1.0), vec![7.0, 6.0]);
        // Nothing can reach a lone shard.
        assert_eq!(horizons(&[5.0], 1.0), vec![f64::INFINITY]);
    }

    #[test]
    fn closed_form_equals_the_relaxation_bit_for_bit() {
        const LOOKAHEADS: [f64; 7] = [
            f64::INFINITY,
            f64::MIN_POSITIVE,
            5e-324,
            1e-9,
            0.5,
            1.0,
            3.0,
        ];
        const BASES: [f64; 5] = [0.0, 1.0, 1e9, 1e16, 1e300];
        check("closed_form_horizons", 20_000, |rng| {
            let la = if rng.gen_bool(0.2) {
                rng.gen_range(1e-3..1e3)
            } else {
                LOOKAHEADS[rng.gen_range(0..LOOKAHEADS.len())]
            };
            let base = if rng.gen_bool(0.2) {
                rng.gen_range(0.0..1e300)
            } else {
                BASES[rng.gen_range(0..BASES.len())]
            };
            let mut lbs: Vec<f64> = Vec::new();
            for _ in 0..rng.gen_range(1..10) {
                let lb = match rng.gen_range(0..5) {
                    0 => f64::INFINITY,
                    1 if !lbs.is_empty() => lbs[rng.gen_range(0..lbs.len())], // a tie
                    1 | 2 => base,
                    3 => base + f64::from(rng.gen_range(0u32..4)) * la.min(1.0),
                    _ => base * (1.0 + rng.gen::<f64>()),
                };
                lbs.push(lb);
            }
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(horizons(&lbs, la)),
                bits(reference_horizons(&lbs, la)),
                "lbs {lbs:?} at lookahead {la:e}"
            );
        });
    }

    #[test]
    fn quiescence_is_strict_past_the_horizon() {
        assert!(!quiescent(&[10.0, f64::INFINITY], 10.0));
        assert!(quiescent(&[10.5, f64::INFINITY], 10.0));
        assert!(quiescent(&[f64::INFINITY], f64::INFINITY));
        assert!(!quiescent(&[3.0], f64::INFINITY));
    }
}
