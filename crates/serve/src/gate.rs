//! The run gate: bounded admission in front of a fixed number of run
//! slots.
//!
//! The server's overload policy lives here. A request is first
//! *admitted* ([`RunGate::admit`]): that takes a place in a queue of at
//! most `capacity` waiting requests, or refuses at once, and the caller
//! answers `503` *before* anything waits — an overloaded server sheds
//! load in O(1) instead of growing a backlog. An admitted request then
//! *waits* ([`Ticket::wait`]) until fewer than `slots` cells run, and
//! runs on its own connection thread while it holds the [`Slot`].
//! Splitting admission from waiting lets `/trace` answer its head
//! between the two, knowing it cannot be bounced.
//!
//! One mutex guards the two counts and one condvar wakes a waiter when
//! a slot frees. Both guards give their place back on drop, an unwind
//! included, so a panicking run cannot leak a slot or a queue place.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Admission and slot accounting shared by every connection thread.
pub(crate) struct RunGate {
    slots: usize,
    capacity: usize,
    /// `(running, queued)`: slots held, and admitted tickets holding none.
    counts: Mutex<(usize, usize)>,
    freed: Condvar,
}

/// An admitted request's place in the queue. Dropping it unused gives
/// the place back.
pub(crate) struct Ticket<'g> {
    gate: &'g RunGate,
}

/// A held run slot; dropping it frees the slot for the next waiter.
pub(crate) struct Slot<'g> {
    gate: &'g RunGate,
}

impl RunGate {
    /// A gate running at most `slots` cells at once and queueing at
    /// most `capacity` admitted requests behind them.
    ///
    /// # Panics
    ///
    /// Panics if `slots` or `capacity` is zero.
    pub(crate) fn new(slots: usize, capacity: usize) -> Self {
        assert!(slots > 0, "a gate needs at least one run slot");
        assert!(capacity > 0, "a zero-capacity gate refuses everything");
        RunGate {
            slots,
            capacity,
            counts: Mutex::new((0, 0)),
            freed: Condvar::new(),
        }
    }

    /// Takes a queue place, or `None` when `capacity` requests already
    /// wait — the caller's cue to answer `503 Service Unavailable`.
    pub(crate) fn admit(&self) -> Option<Ticket<'_>> {
        let mut counts = self.lock();
        if counts.1 >= self.capacity {
            return None;
        }
        counts.1 += 1;
        Some(Ticket { gate: self })
    }

    /// Cells allowed to run at once.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Admitted requests not yet holding a slot.
    pub(crate) fn queued(&self) -> usize {
        self.lock().1
    }

    /// Queue budget [`RunGate::admit`] enforces.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The counts, also after a panic elsewhere poisoned the lock:
    /// every update is one counter step, so the counts stay valid, and
    /// the guards' `Drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, (usize, usize)> {
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<'g> Ticket<'g> {
    /// Blocks until fewer than `slots` cells run, then trades this
    /// queue place for a slot.
    pub(crate) fn wait(self) -> Slot<'g> {
        let gate = self.gate;
        let mut counts = gate.lock();
        while counts.0 >= gate.slots {
            counts = gate
                .freed
                .wait(counts)
                .unwrap_or_else(PoisonError::into_inner);
        }
        counts.0 += 1;
        counts.1 -= 1;
        drop(counts);
        // The queue place moved into the slot; nothing is left to give back.
        std::mem::forget(self);
        Slot { gate }
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.gate.lock().1 -= 1;
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.gate.lock().0 -= 1;
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn sixteen_threads_through_two_slots_never_run_more_than_two() {
        let gate = RunGate::new(2, 16);
        let admitted = Barrier::new(16);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    let ticket = gate.admit().expect("16 places admit 16");
                    // Everyone queues before anyone runs, so all 16 contend.
                    admitted.wait();
                    let slot = ticket.wait();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                    drop(slot);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "a third cell ran");
        assert_eq!(*gate.lock(), (0, 0), "every place given back");
    }

    #[test]
    fn saturated_gate_refuses_admission() {
        let gate = RunGate::new(2, 2);
        // Both slots are taken without waiting...
        let _running = [
            gate.admit().expect("first admitted").wait(),
            gate.admit().expect("second admitted").wait(),
        ];
        // ...the queue budget fills...
        let queued = [gate.admit(), gate.admit()];
        assert!(queued.iter().all(Option::is_some), "queued within capacity");
        assert_eq!(gate.queued(), 2);
        // ...and the next admission is refused.
        assert!(gate.admit().is_none(), "saturated gate must refuse");
    }

    #[test]
    fn dropped_tickets_and_unwound_slots_give_their_place_back() {
        let gate = RunGate::new(1, 1);
        let ticket = gate.admit().expect("place free");
        assert!(gate.admit().is_none(), "place held by the ticket");
        drop(ticket);
        assert_eq!(gate.queued(), 0);

        let unwound = std::panic::catch_unwind(|| {
            let _slot = gate.admit().expect("place freed by the drop").wait();
            panic!("the run tripped an assertion");
        });
        assert!(unwound.is_err());
        assert_eq!(*gate.lock(), (0, 0), "the unwind freed the slot");
        // The freed slot is usable at once; a leaked one would block here.
        drop(gate.admit().expect("place free").wait());
    }
}
