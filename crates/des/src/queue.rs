//! The event queue: a total-order priority queue over simulated time.

use crate::calendar::CalendarQueue;
use crate::fel::{Entry, FutureEventList};
use std::marker::PhantomData;

/// A deterministic future-event list.
///
/// Events pop in non-decreasing time order; events scheduled for the same
/// instant pop in the order they were pushed. This total order is what makes
/// simulation runs reproducible byte-for-byte.
///
/// The storage behind the queue is a sealed [`FutureEventList`] backend,
/// defaulting to the amortised-O(1) [`CalendarQueue`]. The reference
/// [`BinaryHeapFel`](crate::fel::BinaryHeapFel) backend is retained as the
/// equivalence suite's oracle; both backends pop the byte-for-byte
/// identical `(time, seq, parent, event)` sequence on any schedule. The
/// repository benchmark's `kernel` workload measures the calendar
/// (`des.fel.ns_per_op`).
///
/// # Examples
///
/// ```
/// use atlarge_des::queue::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(2.0, "late");
/// q.push(1.0, "early");
/// q.push(1.0, "early-second");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((1.0, "early-second")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E, F: FutureEventList<E> = CalendarQueue<E>> {
    fel: F,
    seq: u64,
    _event: PhantomData<fn() -> E>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default calendar-queue backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue pre-sized for about `events` pending
    /// events, so steady-state scheduling stays allocation-free.
    pub fn with_capacity(events: usize) -> Self {
        EventQueue {
            fel: CalendarQueue::with_capacity(events),
            seq: 0,
            _event: PhantomData,
        }
    }
}

impl<E, F: FutureEventList<E>> EventQueue<E, F> {
    /// Schedules `event` at absolute `time` as a causal root (no parent).
    /// Returns the event's id (its sequence number).
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or negative.
    pub fn push(&mut self, time: f64, event: E) -> u64 {
        self.push_from(time, None, event)
    }

    /// Schedules `event` at absolute `time`, recording `parent` — the id
    /// of the event whose handler caused this schedule — as its causal
    /// provenance. Returns the new event's id. Ids are the tie-breaking
    /// sequence numbers, so they are unique, dense, and assigned in
    /// schedule order.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or negative, or if `parent` is
    /// `Some(u64::MAX)`, which the compact [`Entry`] layout reserves.
    pub fn push_from(&mut self, time: f64, parent: Option<u64>, event: E) -> u64 {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and non-negative"
        );
        let seq = self.seq;
        self.seq += 1;
        self.fel.insert(Entry::new(time, seq, parent, event));
        seq
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.fel.pop_min().map(|e| (e.time, e.event))
    }

    /// Removes and returns the earliest event as
    /// `(time, id, parent, event)`, exposing the tie-breaking sequence
    /// number (the event's id) and its causal parent. Ids are assigned in
    /// push order, so the stream of `(time, id)` pairs popped from a queue
    /// is strictly increasing — the total order that makes runs
    /// reproducible, and that trace tooling can sort on.
    pub fn pop_entry(&mut self) -> Option<(f64, u64, Option<u64>, E)> {
        self.fel
            .pop_min()
            .map(|e| (e.time, e.seq, e.parent(), e.event))
    }

    /// [`EventQueue::pop_entry`], but only if the earliest event's time
    /// is at most `horizon`. This is the dispatch loop's fused
    /// peek-then-pop: one backend traversal instead of two.
    pub fn pop_entry_until(&mut self, horizon: f64) -> Option<(f64, u64, Option<u64>, E)> {
        self.fel
            .pop_min_until(horizon)
            .map(|e| (e.time, e.seq, e.parent(), e.event))
    }

    /// Time of the next event without removing it.
    pub(crate) fn peek_time(&self) -> Option<f64> {
        self.fel.peek_min().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.fel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.fel.is_empty()
    }

    /// Removes all pending events.
    ///
    /// The sequence counter keeps running: event ids stay unique (and
    /// monotone) across a `clear()`, so causal traces that straddle a
    /// reset never alias two events onto one id. A future "reset"
    /// refactor must preserve this — see the regression test
    /// `clear_does_not_reuse_ids`.
    pub fn clear(&mut self) {
        self.fel.clear();
    }
}

impl<E, F: FutureEventList<E>> Default for EventQueue<E, F> {
    fn default() -> Self {
        EventQueue {
            fel: F::with_capacity(0),
            seq: 0,
            _event: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fel::BinaryHeapFel;
    use atlarge_check::{check, vec_of};
    use rand::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, 3);
        q.push(1.0, 1);
        q.push(2.0, 2);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert_eq!(q.pop(), Some((3.0, 3)));
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(1.0, "a");
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(1.0, ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_does_not_reuse_ids() {
        // `clear()` keeps the sequence counter running: ids stay unique
        // across clears, so trace tooling can never see one id name two
        // different events. Regression-guards any future "reset" work.
        let mut q = EventQueue::new();
        let a = q.push(1.0, "a");
        let b = q.push(2.0, "b");
        q.clear();
        let c = q.push(0.5, "c");
        assert_eq!((a, b), (0, 1));
        assert_eq!(c, 2, "ids must continue, not restart, after clear()");
        assert_eq!(q.pop_entry(), Some((0.5, 2, None, "c")));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(1024);
        assert!(q.is_empty());
        q.push(2.0, "b");
        q.push(1.0, "a");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
    }

    #[test]
    fn pop_entry_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(1.0, "a");
        q.push(3.0, "b");
        assert_eq!(q.pop_entry_until(0.5), None);
        assert_eq!(q.pop_entry_until(1.0), Some((1.0, 0, None, "a")));
        assert_eq!(q.pop_entry_until(2.0), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_entry_until(f64::INFINITY), Some((3.0, 1, None, "b")));
    }

    #[test]
    fn ids_are_dense_and_parents_round_trip() {
        let mut q = EventQueue::new();
        let root = q.push(1.0, "root");
        let child = q.push_from(2.0, Some(root), "child");
        assert_eq!(root, 0);
        assert_eq!(child, 1);
        let (t, id, parent, ev) = q.pop_entry().expect("root first");
        assert_eq!((t, id, parent, ev), (1.0, root, None, "root"));
        let (t, id, parent, ev) = q.pop_entry().expect("child second");
        assert_eq!((t, id, parent, ev), (2.0, child, Some(root), "child"));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_time() {
        let mut q = EventQueue::new();
        q.push(-1.0, ());
    }

    /// Popping any set of pushed events yields non-decreasing times, and
    /// within an equal-time run the payload order matches push order.
    #[test]
    fn prop_total_order() {
        check("prop_total_order", 256, |rng| {
            let times = vec_of(rng, 1..200, |r| r.gen_range(0.0f64..1000.0));
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                // Quantize times to force plenty of ties.
                q.push((t * 10.0).round() / 10.0, i);
            }
            let mut prev_time = f64::NEG_INFINITY;
            let mut prev_seq_at_time = None::<usize>;
            while let Some((t, i)) = q.pop() {
                assert!(t >= prev_time);
                if t == prev_time {
                    if let Some(ps) = prev_seq_at_time {
                        assert!(i > ps, "FIFO violated at t={t}");
                    }
                    prev_seq_at_time = Some(i);
                } else {
                    prev_seq_at_time = Some(i);
                }
                prev_time = t;
            }
        });
    }

    /// The queue is a *strict total order* over (time, seq): every pop
    /// yields a lexicographically greater pair than the one before it,
    /// with no equal pairs possible.
    #[test]
    fn prop_strict_time_seq_order() {
        check("prop_strict_time_seq_order", 256, |rng| {
            let times = vec_of(rng, 1..300, |r| r.gen_range(0.0f64..100.0));
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                // Quantize times so many entries collide on the same instant
                // and the seq tie-break carries the order.
                q.push((t * 4.0).round() / 4.0, i);
            }
            let mut prev: Option<(f64, u64)> = None;
            let mut popped = 0;
            while let Some((t, seq, _parent, _payload)) = q.pop_entry() {
                if let Some((pt, ps)) = prev {
                    assert!(
                        (t, seq) > (pt, ps),
                        "non-strict order: ({pt}, {ps}) then ({t}, {seq})"
                    );
                }
                prev = Some((t, seq));
                popped += 1;
            }
            assert_eq!(popped, times.len());
        });
    }

    /// len() tracks pushes and pops exactly.
    #[test]
    fn prop_len() {
        check("prop_len", 256, |rng| {
            let times = vec_of(rng, 0..64, |r| r.gen_range(0.0f64..10.0));
            let mut q = EventQueue::new();
            for &t in &times {
                q.push(t, ());
            }
            assert_eq!(q.len(), times.len());
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            assert_eq!(n, times.len());
        });
    }

    /// The heap backend satisfies the same contract the calendar
    /// default is tested on above (the full adversarial side-by-side
    /// suite lives in tests/fel_equivalence.rs).
    #[test]
    fn prop_heap_backend_total_order() {
        check("prop_heap_backend_total_order", 256, |rng| {
            let times = vec_of(rng, 1..200, |r| r.gen_range(0.0f64..100.0));
            let mut q = EventQueue::<usize, BinaryHeapFel<usize>>::default();
            for (i, &t) in times.iter().enumerate() {
                q.push((t * 4.0).round() / 4.0, i);
            }
            let mut prev: Option<(f64, u64)> = None;
            while let Some((t, seq, _, _)) = q.pop_entry() {
                if let Some(p) = prev {
                    assert!((t, seq) > p);
                }
                prev = Some((t, seq));
            }
        });
    }
}
