//! A two-rung calendar queue: the default future-event list.
//!
//! The classic result (R. Brown, "Calendar queues: a fast O(1) priority
//! queue implementation for the simulation event set problem", CACM
//! 1988) is that a bucketed ring over simulated time turns the two FEL
//! operations a discrete-event kernel lives on — insert and
//! extract-min — into amortised O(1) work, where a comparison-based
//! heap pays O(log n) with a full `(time, seq)` comparison per sift
//! step. The AtLarge kernel pushes millions of events per campaign
//! through this structure, so the constant factors here set the
//! throughput ceiling of every Section-6 experiment.
//!
//! # Design
//!
//! A single bucket width has to trade two costs against each other.
//! Inserts touch one random bucket tail, so the live bucket span must
//! stay cache-resident, which asks for wide buckets; a bucket is sorted
//! when the drain reaches it, which asks for narrow ones. At 10^6
//! pending no single width wins both. So the queue has two rungs, after
//! the Ladder Queue (W. T. Tang, R. S. M. Goh and I. L.-J. Thng, ACM
//! TOMACS 2005):
//!
//! - **Coarse rung.** Simulated time is cut into `nb` consecutive
//!   coarse buckets of adaptive `width`, covering one **year**
//!   `[window_start, window_end)` with `window_end = window_start +
//!   nb * width`. A bucket is an unsorted holding pen: an insert
//!   computes its index arithmetically and appends a 32-byte entry (for
//!   an 8-byte payload), then hints the bucket's next free slot into
//!   the cache, so the next append there finds its line.
//! - **Fine ring.** When the drain cursor reaches a coarse bucket with
//!   more than `SPLIT_LEN` entries, the bucket is scattered once into
//!   a ring of `fine` narrow buckets that together cover its width;
//!   `fine` is derived from the bucket's own population (about
//!   `FINE_OCCUPANCY` entries each, at most `MAX_RING`). A smaller
//!   bucket is drained whole, as a single-level calendar would, so a
//!   small queue never allocates a ring.
//! - **Run.** The front bucket — the fine bucket under the cursor, or
//!   an unsplit coarse bucket — is sorted when the cursor reaches it and
//!   its buffer becomes the **run**, a sorted deque that always holds
//!   the global minimum. Pop-min is `run.pop_front()`; an insert that
//!   lands in the front bucket goes into the run in sorted position —
//!   an O(1) `push_back` for the common monotone case, including
//!   equal-time floods, whose growing `seq` always sorts last.
//!
//! Each event is appended once to a coarse bucket, moved at most once
//! into the ring, and sorted once in a bucket of about
//! `FINE_OCCUPANCY` entries, so the amortised cost per operation is
//! O(1). Buffers are recycled rather than reallocated: ring slots keep
//! theirs, the run hands its drained buffer back to the slot it came
//! from, and emptied coarse buffers go to a bounded spare pool that
//! buckets without a buffer draw from on their first insert. A grow
//! rebuild keeps the coarse buffers it empties; a shrink rebuild frees
//! them, with the ring and the pool, so a draining queue gives its
//! memory back.
//!
//! Events scheduled beyond the current year land in the **far-future
//! band**, kept descending by `(time, seq)` so its near end is the
//! tail. Pushes append unsorted; when the calendar drains and the window
//! advances onto the band's minimum, only the appended suffix is sorted
//! and merged into the sorted rest. The entries the new year covers
//! then move into their coarse buckets, as in a rebuild.
//!
//! The queue **recalibrates** (rebuilds) whenever its population `n`
//! doubles or quarters relative to the last rebuild. The coarse width is
//! a multiple of the mean gap between consecutive distinct times among
//! the earliest pending events: `BUCKET_GAPS` gaps for small queues,
//! growing as `n / LIVE_BUCKETS` so that about `LIVE_BUCKETS` coarse
//! buckets are live at any population. Rebuilds are O(n) — only the
//! head is sorted, to sample the gaps — and geometrically spaced, so
//! their amortised cost is O(1) per operation.
//!
//! # What the drain sees
//!
//! The width is sampled only at a rebuild, so it reflects the density
//! the population had then. The benchmark's `kernel` workload (10^6
//! pending) last rebuilds during its fill phase, at about a quarter of
//! its steady density near the head. At seed 601 its sealed run splits
//! 934 coarse buckets that reach the cursor holding 1 829 entries on
//! average, where 512 were planned, and sorts 237 727 fine buckets of
//! 7.2 entries. The single-level calendar this replaced, with the same
//! sampling, drained 222 entries per bucket where 64 were planned.
//! Splitting takes its density from the bucket itself, so the sorted
//! unit stays near `FINE_OCCUPANCY` whatever the sample said.
//!
//! # When it degrades
//!
//! - **Equal-time floods** collapse into a single fine bucket; inserts
//!   stay O(1) (append), and the one-time sort when the cursor arrives
//!   is a single pass over an already-sorted bucket. An out-of-order
//!   insert into the draining run costs O(k) in the worst case.
//! - **Inserts behind the cursor** (times before the front bucket,
//!   possible through the raw FEL but not from a simulation, whose
//!   inserts never precede `now`) restart the run there; one that
//!   undercuts the split coarse bucket first folds the ring back into
//!   that bucket.
//! - **Strongly bimodal schedules** put the far mode in the band; each
//!   window advance sorts only the suffix pushed since the last one.
//! - **Skewed gap distributions** can fool the head-sampled width
//!   estimate until the next rebuild (at the latest, one doubling
//!   away); the ring absorbs an overfull coarse bucket, not the sort.
//!
//! The side-by-side equivalence suite drives exactly these adversaries
//! against the retained [`BinaryHeapFel`](crate::fel::BinaryHeapFel)
//! and asserts identical pop sequences, so none of them can cost
//! correctness — only constants.

use crate::fel::{Entry, FutureEventList};
use crate::hint::prefetch;
use std::collections::VecDeque;

/// Smallest and largest coarse bucket-array sizes (powers of two). The
/// lower bound keeps the geometry sane for tiny queues; the upper bound
/// caps the bucket array's memory at a few tens of MB.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 20;

/// Population at which the first calibrating rebuild fires. Below this
/// the default geometry is fine and rebuild overhead would dominate.
const CALIBRATE_LEN: usize = 32;

/// How many of the earliest pending events the width heuristic samples.
const SAMPLE: usize = 25;

/// Coarse bucket width in mean inter-event gaps for populations up to
/// `BUCKET_GAPS * LIVE_BUCKETS`: the single-level width this calendar
/// had before it grew a second rung, so a small queue keeps its
/// geometry. Brown's original tuning was 3; on modern hardware the
/// cache footprint of the live bucket span matters more than sorting
/// a bucket of this size.
const BUCKET_GAPS: usize = 64;

/// Target number of live coarse buckets: above `BUCKET_GAPS *
/// LIVE_BUCKETS` pending, the coarse width grows with the population so
/// the live bucket tails (a cache line each) and headers stay within
/// an L2 cache instead of spreading over the whole bucket array. On the
/// benchmark's hold model at 10^6 pending (2-vCPU Xeon VM), 256 to
/// 1 024 live buckets measured alike, 29–44 ns per FEL operation within
/// run-to-run noise; 2 048 and 4 096 measured 50–56 ns.
const LIVE_BUCKETS: usize = 1024;

/// A coarse bucket with more entries than this is split into a fine
/// ring when the cursor reaches it; one at most this size is sorted
/// whole and drained as the run. The threshold keeps small queues on
/// the single-level path, allocation for allocation: creating, filling
/// and draining a 10- or 100-event queue allocates no more often than
/// the single-level calendar did.
const SPLIT_LEN: usize = 128;

/// Target entries per fine bucket. Sorting 4–8 cache-hot entries costs
/// about 10 ns each on a 2-vCPU Xeon VM; sorting 64 costs 29–40 ns each.
/// Targets of 4 and 16 measured no better on the hold model above
/// (38–47 ns per FEL operation, against 33–44 ns at 8).
const FINE_OCCUPANCY: usize = 8;

/// Most fine buckets in the ring: enough to split a 2 000-entry coarse
/// bucket down to [`FINE_OCCUPANCY`], few enough that the ring's slot
/// headers and tails stay in the L1 cache while it is scattered.
const MAX_RING: usize = 256;

const DEFAULT_WIDTH: f64 = 1.0;

/// Most emptied coarse bucket buffers kept for reuse. A steady schedule
/// frees one buffer per coarse bucket the cursor leaves and claims one
/// per bucket the scheduling frontier enters, so the pool stays near
/// empty; the bound caps what a shrinking population leaves behind.
const SPARE_BUFFERS: usize = 64;

/// The calendar queue. See the [module docs](self) for the design; see
/// [`FutureEventList`] for the contract it is proven to satisfy.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// The coarse rung: one year of time, cut into `buckets.len()`
    /// equal widths. Each bucket holds (unsorted) exactly the entries
    /// whose [`bucket_index`](Self::bucket_index) equals its position;
    /// buckets up to and including `buckets[cur]` are empty — the
    /// cursor's bucket lives in the ring and the run.
    buckets: Vec<Vec<Entry<E>>>,
    /// The fine rung: `buckets[cur]` split into `fine` equal widths
    /// when `fine > 1`. Slots up to and including `ring[fcur]` are
    /// empty, and every slot is empty when `fine == 1`. Slots keep their
    /// buffers between splits.
    ring: Vec<Vec<Entry<E>>>,
    /// The front bucket's events, sorted ascending by `(time, seq)`:
    /// fine bucket `fcur` when split, all of coarse bucket `cur`
    /// otherwise. Non-empty whenever any event is bucketed, so the
    /// global minimum is always `run.front()`.
    run: VecDeque<Entry<E>>,
    /// Far-future band: every entry's time is `>= window_end`. Kept
    /// descending by `(time, seq)` when `overflow_sorted`; pushes
    /// append unsorted and the next drain merges them in.
    overflow: Vec<Entry<E>>,
    overflow_sorted: bool,
    /// Coarse bucket the ring and run were filled from. Only moves
    /// backward for inserts that undercut it.
    cur: usize,
    /// Fine buckets `buckets[cur]` is split into; 1 when it is drained
    /// whole through the run.
    fine: usize,
    /// Fine bucket the run was filled from (meaningful when `fine > 1`).
    fcur: usize,
    /// Start time of `buckets[cur]` and `fine / width`, the fine rung's
    /// geometry for the split under the cursor.
    fine_start: f64,
    fine_inv_width: f64,
    /// Entries currently in buckets + ring + run (`len - overflow.len()`).
    n_bucketed: usize,
    len: usize,
    window_start: f64,
    window_end: f64,
    width: f64,
    /// `1.0 / width`, cached so the per-insert index computation is a
    /// multiply, not a divide.
    inv_width: f64,
    /// Population at the last rebuild; rebuilds fire when `len` leaves
    /// `[watermark / 4, watermark * 2]`.
    watermark: usize,
    /// Reusable gather buffer for rebuilds.
    scratch: Vec<Entry<E>>,
    /// Emptied coarse bucket buffers, at most [`SPARE_BUFFERS`], for
    /// buckets that have none.
    spare: Vec<Vec<Entry<E>>>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<E> CalendarQueue<E> {
    /// Coarse bucket index for a time inside (or before) the current
    /// window. Times before `window_start` clamp to bucket 0 — the run
    /// is restarted there on insert, so ordering is preserved.
    #[inline]
    fn bucket_index(&self, time: f64) -> usize {
        let rel = (time - self.window_start) * self.inv_width;
        if rel <= 0.0 {
            0
        } else {
            // The saturating float→int cast plus `min` make this safe
            // for any finite time, including fp-rounding edges where
            // `time < window_end` but `rel` rounds up to `nb`.
            (rel as usize).min(self.buckets.len() - 1)
        }
    }

    /// Fine bucket index, within the split under the cursor, for a time
    /// in `buckets[cur]`. Monotone in `time` and clamped to the ring,
    /// like [`bucket_index`](Self::bucket_index), so fp rounding at a
    /// coarse boundary can only file an entry at the ring's first or
    /// last bucket, never out of order.
    #[inline]
    fn fine_index(&self, time: f64) -> usize {
        let rel = (time - self.fine_start) * self.fine_inv_width;
        if rel <= 0.0 {
            0
        } else {
            (rel as usize).min(self.fine - 1)
        }
    }

    /// Appends an entry to coarse bucket `idx` and hints the bucket's
    /// next free slot, which the next append to it writes. On the hold
    /// model at 10^6 pending the hint takes the FEL from 66–70 to 42–44
    /// ns per operation: about a thousand appends to other buckets
    /// separate two appends to one bucket, long enough for its tail line
    /// to leave the cache.
    #[inline]
    fn append_coarse(&mut self, idx: usize, entry: Entry<E>) {
        let Some(bucket) = self.buckets.get_mut(idx) else {
            return self.stray(entry);
        };
        if bucket.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        bucket.push(entry);
        if let Some(next) = bucket.spare_capacity_mut().first() {
            prefetch(next);
        }
        self.n_bucketed += 1;
    }

    /// Keeps an entry whose bucket lookup missed. Unreachable — every
    /// index is clamped below its rung's length — so this only has to
    /// keep the entry in the queue, not in order.
    #[cold]
    #[inline(never)]
    fn stray(&mut self, entry: Entry<E>) {
        debug_assert!(false, "bucket index out of range");
        let pos = self.run.partition_point(|e| e < &entry);
        self.run.insert(pos, entry);
        self.n_bucketed += 1;
    }

    /// Places an entry with `time < window_end` into the structure,
    /// keeping every invariant (run sorted, everything before the
    /// cursor empty).
    fn insert_bucketed(&mut self, entry: Entry<E>) {
        let idx = self.bucket_index(entry.time);
        if self.n_bucketed == 0 {
            self.cur = idx;
            self.fine = 1;
        } else if idx > self.cur {
            return self.append_coarse(idx, entry);
        } else if idx < self.cur {
            // The new entry undercuts the cursor's coarse bucket: fold
            // that bucket back together and restart the run at `idx`.
            self.unsplit();
            self.cur = idx;
        } else if self.fine > 1 {
            let f = self.fine_index(entry.time);
            if f > self.fcur {
                let Some(slot) = self.ring.get_mut(f) else {
                    return self.stray(entry);
                };
                slot.push(entry);
                self.n_bucketed += 1;
                return;
            }
            if f < self.fcur {
                // Undercuts the run's fine bucket: park the run back in
                // its (empty) slot and restart the run at `f`.
                if let Some(slot) = self.ring.get_mut(self.fcur) {
                    slot.extend(self.run.drain(..));
                }
                self.fcur = f;
            }
        }
        // Into the sorted run. Fast path: the new entry sorts last
        // (monotone pushes, including equal-time floods whose growing
        // `seq` always appends). Otherwise binary-search;
        // `VecDeque::insert` shifts whichever side is shorter.
        if self.run.back().is_none_or(|b| b < &entry) {
            self.run.push_back(entry);
        } else {
            let pos = self.run.partition_point(|e| e < &entry);
            self.run.insert(pos, entry);
        }
        self.n_bucketed += 1;
    }

    /// Moves the run and the ring back into `buckets[cur]`, unsorted,
    /// and leaves the cursor's bucket unsplit.
    fn unsplit(&mut self) {
        let Some(bucket) = self.buckets.get_mut(self.cur) else {
            debug_assert!(false, "run cursor out of range");
            return;
        };
        bucket.extend(self.run.drain(..));
        for slot in &mut self.ring {
            bucket.append(slot);
        }
        self.fine = 1;
    }

    /// Hands an emptied coarse buffer to the spare pool.
    fn recycle(&mut self, buf: Vec<Entry<E>>) {
        if buf.capacity() > 0 && self.spare.len() < SPARE_BUFFERS {
            self.spare.push(buf);
        }
    }

    /// Fills the empty run from `buckets[cur]`: sorted whole when it is
    /// small, otherwise scattered into a ring of fine buckets sized from
    /// its population, whose first non-empty bucket becomes the run.
    /// Keys are unique (dense seq), so unstable sorts are deterministic.
    fn split(&mut self) {
        debug_assert!(self.run.is_empty(), "splitting under a non-empty run");
        let Some(bucket) = self.buckets.get_mut(self.cur) else {
            debug_assert!(false, "run cursor out of range");
            return;
        };
        let mut entries = std::mem::take(bucket);
        if entries.len() <= SPLIT_LEN {
            // Sorted in place; its buffer becomes the run (`VecDeque::from`
            // a `Vec` moves no entries).
            self.fine = 1;
            entries.sort_unstable();
            let drained = Vec::from(std::mem::replace(&mut self.run, VecDeque::from(entries)));
            return self.recycle(drained);
        }
        let fine = (entries.len() / FINE_OCCUPANCY)
            .next_power_of_two()
            .min(MAX_RING);
        self.fine = fine;
        self.fcur = 0;
        self.fine_start = self.window_start + self.cur as f64 * self.width;
        self.fine_inv_width = fine as f64 * self.inv_width;
        if self.ring.len() < fine {
            self.ring
                .resize_with(fine, || Vec::with_capacity(2 * FINE_OCCUPANCY));
        }
        for entry in entries.drain(..) {
            let f = self.fine_index(entry.time);
            match self.ring.get_mut(f) {
                Some(slot) => slot.push(entry),
                None => {
                    self.n_bucketed -= 1;
                    self.stray(entry);
                }
            }
        }
        self.recycle(entries);
        self.load_fine();
    }

    /// Makes the first non-empty fine bucket at or after `fcur` the run,
    /// sorting it and handing the run's drained buffer to its slot.
    /// Returns `false` when the ring is exhausted.
    fn load_fine(&mut self) -> bool {
        let mut ahead = self.ring.iter().take(self.fine).skip(self.fcur);
        let Some(offset) = ahead.position(|slot| !slot.is_empty()) else {
            return false;
        };
        self.fcur += offset;
        let Some(slot) = self.ring.get_mut(self.fcur) else {
            return false;
        };
        slot.sort_unstable();
        let sorted = VecDeque::from(std::mem::take(slot));
        *slot = Vec::from(std::mem::replace(&mut self.run, sorted));
        true
    }

    /// Refills the empty run from the next non-empty bucket: the next
    /// fine bucket of the split under the cursor, or else the next
    /// non-empty coarse bucket, split.
    fn reload_run(&mut self) {
        debug_assert!(self.run.is_empty(), "reloading a non-empty run");
        if self.fine > 1 {
            self.fcur += 1;
            if self.load_fine() {
                return;
            }
            self.fine = 1;
        }
        self.cur += 1;
        while self.buckets.get(self.cur).is_some_and(|b| b.is_empty()) {
            self.cur += 1;
        }
        if self.cur < self.buckets.len() {
            self.split();
        } else {
            // Unreachable while n_bucketed > 0: some bucket after the
            // old cursor must be non-empty. Degrade gracefully rather
            // than walk off the array.
            debug_assert!(false, "no non-empty bucket to reload from");
        }
    }

    /// Starts the drain at the first non-empty coarse bucket, after a
    /// rebuild or a window advance has refilled the coarse rung with the
    /// run and ring empty.
    fn start_drain(&mut self) {
        self.fine = 1;
        if self.n_bucketed == 0 {
            self.cur = 0;
            return;
        }
        self.cur = self
            .buckets
            .iter()
            .position(|b| !b.is_empty())
            .unwrap_or_default();
        self.split();
    }

    fn sort_overflow(&mut self) {
        if !self.overflow_sorted {
            // Descending (time, seq): the near-future end is the tail,
            // so draining it never memmoves the far tail. The stable
            // sort finds the descending run the band already holds and
            // merges the suffix pushed since into it, sorting only that
            // suffix; an unstable sort would re-sort the whole band.
            // Keys are unique (dense seq), so both orders agree.
            self.overflow.sort_by(|a, b| b.cmp(a));
            self.overflow_sorted = true;
        }
    }

    /// Moves every band entry the window covers into its coarse bucket.
    /// Precondition: the band is sorted.
    fn pull_band(&mut self) {
        let end = self.window_end;
        while let Some(entry) = self.overflow.pop_if(|e| e.time < end) {
            let idx = self.bucket_index(entry.time);
            self.append_coarse(idx, entry);
        }
    }

    /// Recomputes the window geometry for a given anchor (earliest
    /// pending time), growing the width until the window is non-empty
    /// under fp rounding (`start + year` must exceed `start`). The
    /// anchor lands in bucket 0, where the drain restarts, so that
    /// bucket borrows the idle run's buffer, which `split` hands back.
    /// Precondition: the run is empty.
    fn anchor_window(&mut self, min_time: f64) {
        self.window_start = min_time;
        let nb = self.buckets.len() as f64;
        let mut year = self.width * nb;
        while self.window_start + year <= self.window_start {
            self.width *= 2.0;
            year = self.width * nb;
        }
        self.window_end = self.window_start + year;
        self.inv_width = 1.0 / self.width;
        if let Some(first) = self.buckets.first_mut() {
            if first.capacity() == 0 {
                *first = Vec::from(std::mem::take(&mut self.run));
            }
        }
    }

    /// Advances the window onto the band's minimum and moves every
    /// newly-covered entry into its coarse bucket, then starts the drain
    /// as a rebuild does. Precondition: nothing is bucketed and the band
    /// is not empty. The anchor entry itself is below `window_end`, so
    /// at least one entry always moves and the queue cannot livelock
    /// here.
    fn advance_window(&mut self) {
        self.sort_overflow();
        let Some(min_time) = self.overflow.last().map(|e| e.time) else {
            return;
        };
        self.anchor_window(min_time);
        self.pull_band();
        self.start_drain();
    }

    /// O(n) recalibration: re-derives the coarse bucket count and width
    /// from the population and the gaps near the head, then
    /// redistributes everything. Geometrically spaced by the watermark
    /// triggers, so amortised O(1).
    fn rebuild(&mut self) {
        let mut gathered = std::mem::take(&mut self.scratch);
        gathered.clear();
        gathered.reserve(self.n_bucketed);
        // The run, the ring and the coarse buckets cover disjoint
        // ascending time ranges in that order, and the run is sorted.
        // Sorting each later bucket until SAMPLE + 1 entries are in
        // place yields a sorted head — all the width heuristic reads;
        // the rest is redistributed unsorted.
        gathered.extend(self.run.drain(..));
        let mut sorted = gathered.len();
        for bucket in self.ring.iter_mut().chain(&mut self.buckets) {
            let start = gathered.len();
            gathered.append(bucket);
            if sorted <= SAMPLE {
                if let Some(appended) = gathered.get_mut(start..) {
                    appended.sort_unstable();
                }
                sorted = gathered.len();
            }
        }
        self.n_bucketed = 0;
        self.fine = 1;
        let shrinking = self.len < self.watermark;
        self.watermark = self.len;
        if self.len == 0 {
            self.scratch = gathered;
            self.reset_geometry();
            return;
        }
        self.sort_overflow();

        // Brown's width heuristic: a multiple of the mean gap between
        // consecutive distinct times among the earliest pending events.
        // An all-ties sample (gap-free) keeps the previous width.
        let mut sample: Vec<f64> = gathered
            .iter()
            .take(sorted.min(SAMPLE + 1))
            .map(|e| e.time)
            .collect();
        if sample.len() <= SAMPLE {
            let missing = SAMPLE + 1 - sample.len();
            sample.extend(self.overflow.iter().rev().take(missing).map(|e| e.time));
        }
        let mut gap_sum = 0.0;
        let mut gaps = 0u32;
        // Accumulated in canonical ascending (time, seq) order, so the
        // float summation order is deterministic.
        for pair in sample.windows(2) {
            if let [a, b] = pair {
                let d = b - a;
                if d > 0.0 {
                    gap_sum += d;
                    gaps += 1;
                }
            }
        }
        let bucket_gaps = (self.len / LIVE_BUCKETS).max(BUCKET_GAPS);
        if gaps > 0 {
            let w = bucket_gaps as f64 * gap_sum / f64::from(gaps);
            if w.is_finite() && w > 0.0 {
                self.width = w;
            }
        }

        // `BUCKET_GAPS` pending-event horizons per year: a steadily
        // advancing simulation outruns `window_end` (and pays a band
        // sort) only once per many multiples of the horizon. The tail
        // buckets beyond the live span are never touched between
        // rebuilds, so they cost memory, not cache. A growing queue
        // refills the buffers it just emptied; a shrinking one frees
        // them, with the ring's and the pool's.
        let nb = (self.len * BUCKET_GAPS / bucket_gaps)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if shrinking {
            self.buckets.clear();
            self.ring.clear();
            self.spare.clear();
        }
        self.buckets.truncate(nb);
        self.buckets.resize_with(nb, Vec::new);

        // Every bucketed time is below the old `window_end`, hence below
        // everything in the band, so the head of the gather is the
        // global minimum whenever anything was gathered.
        let min_time = match (gathered.first(), self.overflow.last()) {
            (Some(a), _) => a.time,
            (None, Some(b)) => b.time,
            (None, None) => 0.0, // unreachable: len > 0
        };
        self.anchor_window(min_time);

        // Redistribute. Entries at or beyond the new window spill into
        // the band's unsorted suffix; band entries the new (larger)
        // window covers are pulled in. The two are mutually exclusive
        // by construction.
        for entry in gathered.drain(..) {
            if entry.time >= self.window_end {
                self.overflow.push(entry);
                self.overflow_sorted = false;
            } else {
                let idx = self.bucket_index(entry.time);
                self.append_coarse(idx, entry);
            }
        }
        self.scratch = gathered;
        if self.overflow_sorted {
            self.pull_band();
        }
        self.start_drain();
    }

    fn reset_geometry(&mut self) {
        self.buckets.clear();
        self.buckets.resize_with(MIN_BUCKETS, Vec::new);
        self.ring.clear();
        self.run.clear();
        self.cur = 0;
        self.fine = 1;
        self.fcur = 0;
        self.width = DEFAULT_WIDTH;
        self.inv_width = 1.0 / DEFAULT_WIDTH;
        self.window_start = 0.0;
        self.window_end = DEFAULT_WIDTH * MIN_BUCKETS as f64;
    }

    /// The minimum entry by a full scan, for the unreachable case of an
    /// empty run while events are pending. Kept out of line so the
    /// `peek_min` every pop runs stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn scan_min(&self) -> Option<&Entry<E>> {
        debug_assert!(false, "run empty while events are pending");
        self.ring
            .iter()
            .chain(&self.buckets)
            .flatten()
            .chain(&self.overflow)
            .min()
    }

    /// Restores the `n_bucketed > 0 ⇒ run non-empty` invariant after a
    /// pop, advancing the window when the calendar drains into the
    /// band, then applies the shrink trigger.
    fn after_pop(&mut self) {
        if self.n_bucketed == 0 {
            self.cur = 0;
            self.fine = 1;
            if !self.overflow.is_empty() {
                self.advance_window();
            }
        } else if self.run.is_empty() {
            self.reload_run();
        }
        if self.watermark >= 2 * CALIBRATE_LEN && self.len * 4 < self.watermark {
            self.rebuild();
        }
    }
}

impl<E> FutureEventList<E> for CalendarQueue<E> {
    fn with_capacity(events: usize) -> Self {
        let mut q = CalendarQueue {
            buckets: Vec::new(),
            ring: Vec::new(),
            run: VecDeque::new(),
            overflow: Vec::new(),
            overflow_sorted: true,
            cur: 0,
            fine: 1,
            fcur: 0,
            fine_start: 0.0,
            fine_inv_width: 0.0,
            n_bucketed: 0,
            len: 0,
            window_start: 0.0,
            window_end: 0.0,
            width: DEFAULT_WIDTH,
            inv_width: 1.0 / DEFAULT_WIDTH,
            watermark: 0,
            scratch: Vec::with_capacity(events),
            spare: Vec::new(),
        };
        q.reset_geometry();
        q
    }

    fn insert(&mut self, entry: Entry<E>) {
        if entry.time >= self.window_end {
            self.overflow.push(entry);
            self.overflow_sorted = false;
            if self.n_bucketed == 0 {
                self.advance_window();
            }
        } else {
            self.insert_bucketed(entry);
        }
        self.len += 1;
        if self.len >= CALIBRATE_LEN && self.len > 2 * self.watermark {
            self.rebuild();
        }
    }

    fn pop_min(&mut self) -> Option<Entry<E>> {
        if self.len == 0 {
            return None;
        }
        let entry = match self.run.pop_front() {
            Some(e) => e,
            None => {
                // Unreachable — the run is refilled eagerly whenever
                // events are bucketed. Resync gracefully instead of
                // losing the queue.
                debug_assert!(false, "run empty while events are bucketed");
                self.reload_run();
                self.run.pop_front()?
            }
        };
        self.len -= 1;
        self.n_bucketed = self.n_bucketed.saturating_sub(1);
        self.after_pop();
        Some(entry)
    }

    fn pop_min_until(&mut self, horizon: f64) -> Option<Entry<E>> {
        // The run makes this peek O(1); the pop below re-reads the same
        // cache-hot run front.
        if self.peek_min()?.time <= horizon {
            self.pop_min()
        } else {
            None
        }
    }

    #[inline]
    fn peek_min(&self) -> Option<&Entry<E>> {
        if self.len == 0 {
            return None;
        }
        match self.run.front() {
            Some(e) => Some(e),
            None => self.scan_min(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.overflow.clear();
        self.overflow_sorted = true;
        self.scratch.clear();
        self.len = 0;
        self.n_bucketed = 0;
        self.watermark = 0;
        self.reset_geometry();
    }

    fn reserve(&mut self, additional: usize) {
        // Rebuilds gather through `scratch`; pre-sizing it is what
        // keeps the fill phase allocation-quiet.
        self.scratch.reserve(additional);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(time: f64, seq: u64) -> Entry<u64> {
        Entry::new(time, seq, None, seq)
    }

    fn drain_keys(q: &mut CalendarQueue<u64>) -> Vec<(f64, u64)> {
        std::iter::from_fn(|| q.pop_min().map(|e| e.key())).collect()
    }

    #[test]
    fn pops_sorted_across_window_and_band() {
        let mut q = CalendarQueue::with_capacity(0);
        // Mix near-term, far-future (band), and pre-window times.
        for (i, &t) in [5.0, 1e6, 0.25, 3.0, 2e6, 0.5].iter().enumerate() {
            q.insert(entry(t, i as u64));
        }
        let keys = drain_keys(&mut q);
        assert_eq!(
            keys,
            vec![(0.25, 2), (0.5, 5), (3.0, 3), (5.0, 0), (1e6, 1), (2e6, 4)]
        );
    }

    #[test]
    fn equal_time_flood_is_fifo() {
        // 10k events at one instant: everything lands in the run (the
        // flood instant is the front bucket) and FIFO rides entirely on
        // the seq tie-break through the O(1) append fast path.
        let mut q = CalendarQueue::with_capacity(0);
        for i in 0..10_000u64 {
            q.insert(entry(7.5, i));
        }
        assert_eq!(q.len(), 10_000);
        let keys = drain_keys(&mut q);
        assert!(keys
            .iter()
            .enumerate()
            .all(|(i, &(t, s))| t == 7.5 && s == i as u64));
    }

    #[test]
    fn nine_decades_of_time_scale() {
        // Times spanning 1e-9..1e9 force repeated window advances and
        // exercise the fp guards in `anchor_window`.
        let mut q = CalendarQueue::with_capacity(0);
        let mut times: Vec<f64> = (0..200)
            .map(|i| 1e-9 * 10f64.powf((i % 19) as f64))
            .collect();
        times.extend((0..50).map(|i| 1e9 - i as f64));
        for (i, &t) in times.iter().enumerate() {
            q.insert(entry(t, i as u64));
        }
        let keys = drain_keys(&mut q);
        assert_eq!(keys.len(), times.len());
        for pair in keys.windows(2) {
            assert!(pair[0] < pair[1], "order violated: {pair:?}");
        }
    }

    #[test]
    fn grow_and_shrink_rebuilds_preserve_order() {
        // Push far past the grow trigger, drain past the shrink
        // trigger, refill — rebuild churn must never reorder.
        let mut q = CalendarQueue::with_capacity(0);
        let mut seq = 0u64;
        let mut reference = Vec::new();
        let push =
            |q: &mut CalendarQueue<u64>, t: f64, seq: &mut u64, reference: &mut Vec<(f64, u64)>| {
                q.insert(entry(t, *seq));
                reference.push((t, *seq));
                *seq += 1;
            };
        for i in 0..500 {
            push(&mut q, (i % 97) as f64 * 0.37, &mut seq, &mut reference);
        }
        let mut popped = Vec::new();
        for _ in 0..450 {
            popped.push(q.pop_min().map(|e| e.key()).unwrap());
        }
        for i in 0..100 {
            push(&mut q, 40.0 + (i % 13) as f64, &mut seq, &mut reference);
        }
        popped.extend(drain_keys(&mut q));
        reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Everything popped before the refill is a prefix of the sorted
        // reference only if order held throughout; compare as multisets
        // in pop order against a fully sorted merge of both phases.
        let mut sorted_popped = popped.clone();
        sorted_popped.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sorted_popped, reference, "events lost or duplicated");
        for pair in popped[..450].windows(2) {
            assert!(pair[0] < pair[1]);
        }
        for pair in popped[450..].windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn all_events_in_one_bucket_still_sorted() {
        // Times chosen inside one default bucket width, out of order.
        let mut q = CalendarQueue::with_capacity(0);
        let times = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6];
        for (i, &t) in times.iter().enumerate() {
            q.insert(entry(t, i as u64));
        }
        let keys = drain_keys(&mut q);
        let times_out: Vec<f64> = keys.iter().map(|&(t, _)| t).collect();
        let mut want = times.to_vec();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(times_out, want);
    }

    #[test]
    fn run_restart_on_undercutting_insert() {
        // Fill the run, then insert an event that sorts before its
        // bucket (the park-and-restart path), then one after; order
        // must hold throughout.
        let mut q = CalendarQueue::with_capacity(0);
        q.insert(entry(8.0, 0));
        q.insert(entry(9.0, 1));
        assert_eq!(q.pop_min().map(|e| e.key()), Some((8.0, 0)));
        q.insert(entry(0.5, 2));
        q.insert(entry(12.0, 3));
        let keys = drain_keys(&mut q);
        assert_eq!(keys, vec![(0.5, 2), (9.0, 1), (12.0, 3)]);
    }

    #[test]
    fn peek_and_horizon_pop_agree() {
        let mut q = CalendarQueue::with_capacity(0);
        q.insert(entry(4.0, 0));
        q.insert(entry(2.0, 1));
        assert_eq!(q.peek_min().map(Entry::key), Some((2.0, 1)));
        assert!(q.pop_min_until(1.9).is_none());
        assert_eq!(q.pop_min_until(2.0).map(|e| e.key()), Some((2.0, 1)));
        assert_eq!(q.peek_min().map(Entry::key), Some((4.0, 0)));
        assert_eq!(
            q.pop_min_until(f64::INFINITY).map(|e| e.key()),
            Some((4.0, 0))
        );
        assert!(q.peek_min().is_none());
    }

    #[test]
    fn clear_resets_geometry_and_len() {
        let mut q = CalendarQueue::with_capacity(0);
        for i in 0..1000u64 {
            q.insert(entry(i as f64 * 1e3, i));
        }
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(q.pop_min().is_none());
        q.insert(entry(0.5, 0));
        assert_eq!(q.pop_min().map(|e| e.key()), Some((0.5, 0)));
    }

    /// A queue whose head is four times denser than its last rebuild
    /// sampled: 4096 events spread over [0, 4096), then 4096 more packed
    /// into [0, 1024). The last rebuild fires at 4 223 pending and sorts
    /// bucket 0 whole; the buckets after it reach the cursor crowded.
    fn crowded_head() -> (CalendarQueue<u64>, Vec<(f64, u64)>) {
        let mut q = CalendarQueue::with_capacity(0);
        let mut keys = Vec::new();
        for i in 0..8192u64 {
            let t = if i < 4096 {
                ((i * 2654435761) % 4096) as f64
            } else {
                ((i * 40503) % 1024) as f64 + 0.5
            };
            q.insert(entry(t, i));
            keys.push((t, i));
        }
        keys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (q, keys)
    }

    #[test]
    fn crowded_coarse_buckets_drain_through_the_fine_ring() {
        let (mut q, keys) = crowded_head();
        let mut popped = Vec::new();
        while q.cur == 0 && !q.is_empty() {
            popped.extend(q.pop_min().map(|e| e.key()));
        }
        assert!(q.fine > 1, "a crowded bucket was drained whole");
        assert!(q.run.len() <= SPLIT_LEN / 4, "run of {}", q.run.len());
        popped.extend(drain_keys(&mut q));
        assert_eq!(popped, keys);
    }

    #[test]
    fn an_undercut_folds_the_ring_back_into_its_bucket() {
        let (mut q, keys) = crowded_head();
        let mut popped = Vec::new();
        while (q.cur == 0 || q.fine == 1) && !q.is_empty() {
            popped.extend(q.pop_min().map(|e| e.key()));
        }
        assert!(q.cur > 0 && q.fine > 1, "no split past bucket 0");
        assert_eq!(popped, keys[..popped.len()]);
        // Half a coarse width before the split bucket under the cursor.
        let t = q.window_start + (q.cur as f64 - 0.5) * q.width;
        q.insert(entry(t, 99_999));
        assert_eq!(q.fine, 1, "the ring was left split");
        assert_eq!(q.pop_min().map(|e| e.key()), Some((t, 99_999)));
        assert_eq!(drain_keys(&mut q), keys[popped.len()..]);
    }
}
