//! Lock-free latency histograms for live measurement planes.
//!
//! A serving hot path cannot afford a mutex around a `BTreeMap` of
//! histograms: under tens of thousands of requests per second the lock
//! becomes the contention point the measurement was supposed to expose.
//! This module provides the workspace's wall-latency recorder built for
//! that path:
//!
//! - `AtomicHistogram` — fixed log-scale buckets over nanosecond
//!   durations, every bucket an `AtomicU64`; recording is three relaxed
//!   `fetch_add`s, no allocation, no lock, no fences.
//! - [`ShardedHistogram`] — N independent `AtomicHistogram`s; each
//!   recording thread is assigned a shard once (thread-local), so
//!   concurrent recorders do not even share cache lines. Reads merge
//!   all shards into a [`HistogramSnapshot`].
//! - [`HistogramSnapshot`] — a plain owned copy supporting quantiles,
//!   windowed deltas (`snapshot_now - snapshot_1s_ago` is the last
//!   second's histogram), and Prometheus-style cumulative bucket
//!   iteration.
//!
//! Bucket layout: HDR-style log₂ octaves with `SUB` linear
//! sub-buckets per octave, covering `OCTAVE_MIN`..=`OCTAVE_MAX`
//! (≈1 µs to ≈69 s) plus one overflow bucket. Relative error of a
//! reported quantile is bounded by one sub-bucket, i.e. ≤ 1/`SUB`
//! (25%) of the value — ample for latency percentiles spanning five
//! orders of magnitude.
//!
//! Like everything in this crate, these histograms measure *wall* time
//! and therefore feed reports (`/metrics`, `/watch`, `/stats`), never
//! simulation results — the `wall-clock-in-sim` contract in `lint.toml`
//! stays intact because the readings originate from
//! [`wall::Stopwatch`](crate::wall::Stopwatch).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Smallest resolved octave: durations below `2^OCTAVE_MIN` ns (≈1 µs)
/// merge into the first bucket.
pub(crate) const OCTAVE_MIN: u32 = 10;
/// Largest resolved octave: durations of `2^(OCTAVE_MAX+1)` ns (≈137 s)
/// and beyond land in the overflow bucket.
pub(crate) const OCTAVE_MAX: u32 = 36;
/// Linear sub-buckets per octave (`2^SUB_BITS`).
pub(crate) const SUB_BITS: u32 = 2;
/// Sub-bucket count per octave.
pub(crate) const SUB: usize = 1 << SUB_BITS;
/// Total bucket count, including the final overflow bucket.
pub(crate) const NUM_BUCKETS: usize = (OCTAVE_MAX - OCTAVE_MIN + 1) as usize * SUB + 1;

/// The bucket a duration of `ns` nanoseconds falls into.
pub fn bucket_index(ns: u64) -> usize {
    if ns < (1u64 << OCTAVE_MIN) {
        return 0;
    }
    let octave = 63 - u64::from(ns.leading_zeros());
    if octave > u64::from(OCTAVE_MAX) {
        return NUM_BUCKETS - 1;
    }
    let sub = ((ns >> (octave - u64::from(SUB_BITS))) & (SUB as u64 - 1)) as usize;
    (octave as usize - OCTAVE_MIN as usize) * SUB + sub
}

/// Exclusive upper bound of bucket `index`, in nanoseconds; `None` for
/// the overflow bucket (conceptually `+Inf`).
pub(crate) fn bucket_upper_ns(index: usize) -> Option<u64> {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    if index == NUM_BUCKETS - 1 {
        return None;
    }
    let octave = OCTAVE_MIN + (index / SUB) as u32;
    let sub = (index % SUB) as u64;
    Some((1u64 << octave) + (sub + 1) * (1u64 << (octave - SUB_BITS)))
}

/// A fixed-bucket log-scale histogram of nanosecond durations with
/// atomic counters. Recording never blocks; reading merges by copy.
pub(crate) struct AtomicHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// A zeroed histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration. Three relaxed atomic adds; the counters
    /// are statistical, so no ordering beyond eventual visibility is
    /// needed.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds this histogram's counters into `snap`.
    fn merge_into(&self, snap: &mut HistogramSnapshot) {
        for (b, out) in self.buckets.iter().zip(snap.buckets.iter_mut()) {
            *out += b.load(Ordering::Relaxed);
        }
        snap.count += self.count.load(Ordering::Relaxed);
        snap.sum_ns += self.sum_ns.load(Ordering::Relaxed);
    }
}

/// Which shard the calling thread records into. Threads are assigned
/// round-robin on first use, so a pool of N workers spreads evenly
/// over min(N, shards) shards.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// A set of per-thread-sharded `AtomicHistogram`s behind one
/// recording API. Writers touch only their own shard; readers merge
/// all shards into a snapshot.
pub struct ShardedHistogram {
    shards: Vec<AtomicHistogram>,
}

impl ShardedHistogram {
    /// A histogram sharded `shards` ways (rounded up to a power of
    /// two so shard selection is a mask, minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedHistogram {
            shards: (0..n).map(|_| AtomicHistogram::new()).collect(),
        }
    }

    /// Records one nanosecond duration into the calling thread's shard.
    pub fn record(&self, ns: u64) {
        let slot = THREAD_SLOT.with(|s| *s);
        self.shards[slot & (self.shards.len() - 1)].record(ns);
    }

    /// Merges every shard into one owned snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::zero();
        for shard in &self.shards {
            shard.merge_into(&mut snap);
        }
        snap
    }
}

/// An owned, mergeable copy of histogram state at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (length `NUM_BUCKETS`).
    pub buckets: Vec<u64>,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of recorded durations, nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn zero() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }

    /// Adds `other` into this snapshot (merging two recorders).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// The histogram of everything recorded after `earlier` was taken:
    /// per-bucket saturating difference. This is how 1-second `/watch`
    /// windows fall out of two cumulative snapshots.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
        }
    }

    /// Nearest-rank quantile in nanoseconds — the upper edge of the
    /// bucket holding the sample of rank `ceil(q * count)`, matching
    /// the estimator convention of `atlarge_stats` and `atlarge_obsv`.
    /// The overflow bucket reports its lower edge (the largest bound
    /// the histogram can attest). `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub(crate) fn quantile_ns(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Some(bucket_upper_ns(i).unwrap_or(1u64 << (OCTAVE_MAX + 1)));
            }
        }
        None // unreachable: cumulative count reaches self.count
    }

    /// `HistogramSnapshot::quantile_ns` converted to milliseconds.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.quantile_ns(q).map(|ns| ns as f64 / 1e6)
    }

    /// Cumulative `(upper_bound_ns, count_le)` pairs in bucket order —
    /// the exact shape of Prometheus `_bucket{le=...}` lines; the final
    /// pair has `None` as its bound (`le="+Inf"`) and carries the total
    /// count.
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut acc = 0u64;
        (0..NUM_BUCKETS)
            .map(|i| {
                acc += self.buckets[i];
                (bucket_upper_ns(i), acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotone_and_cover_the_range() {
        let mut prev = 0u64;
        for i in 0..NUM_BUCKETS - 1 {
            let upper = bucket_upper_ns(i).expect("finite bucket");
            assert!(upper > prev, "bucket {i} bound {upper} <= {prev}");
            prev = upper;
        }
        assert_eq!(bucket_upper_ns(NUM_BUCKETS - 1), None, "overflow is +Inf");
        // Every duration maps into a bucket whose bound contains it.
        for ns in [0, 1, 1023, 1024, 1025, 999_983, 1 << 30, u64::MAX] {
            let idx = bucket_index(ns);
            assert!(idx < NUM_BUCKETS);
            if let Some(upper) = bucket_upper_ns(idx) {
                assert!(ns < upper, "ns {ns} not below its bucket bound {upper}");
            }
        }
    }

    #[test]
    fn quantiles_are_within_one_sub_bucket() {
        let h = AtomicHistogram::new();
        for _ in 0..900 {
            h.record(1_000_000); // 1 ms
        }
        for _ in 0..100 {
            h.record(80_000_000); // 80 ms
        }
        let mut snap = HistogramSnapshot::zero();
        h.merge_into(&mut snap);
        assert_eq!(snap.count, 1000);
        let p50 = snap.quantile_ms(0.5).expect("samples");
        let p99 = snap.quantile_ms(0.99).expect("samples");
        // Upper-edge convention: estimate ∈ [value, value * (1 + 1/SUB)].
        assert!((1.0..=1.3).contains(&p50), "p50 {p50}");
        assert!((80.0..=100.1).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn deltas_recover_a_window() {
        let h = ShardedHistogram::new(4);
        h.record(2_000_000);
        let before = h.snapshot();
        h.record(50_000_000);
        h.record(50_000_000);
        let after = h.snapshot();
        let window = after.delta(&before);
        assert_eq!(window.count, 2);
        let p50 = window.quantile_ms(0.5).expect("window samples");
        assert!((50.0..=63.0).contains(&p50), "window p50 {p50}");
    }

    /// A shard whose first report lands mid-window: the `earlier`
    /// snapshot predates the shard entirely, so the delta must contain
    /// exactly the late shard's samples plus the veteran's new ones —
    /// never a wrapped or negative count.
    #[test]
    fn shard_first_reporting_mid_window_adds_only_its_samples() {
        let veteran = AtomicHistogram::new();
        let late = AtomicHistogram::new();
        veteran.record(1_000_000);
        // Window boundary: the late shard has not recorded yet, so the
        // merge at this instant sees only the veteran.
        let mut before = HistogramSnapshot::zero();
        veteran.merge_into(&mut before);
        // Mid-window, the late shard starts reporting.
        late.record(30_000_000);
        late.record(30_000_000);
        veteran.record(1_000_000);
        let mut after = HistogramSnapshot::zero();
        veteran.merge_into(&mut after);
        late.merge_into(&mut after);
        let window = after.delta(&before);
        assert_eq!(window.count, 3);
        assert_eq!(window.sum_ns, 61_000_000);
        let bucket_total: u64 = window.buckets.iter().sum();
        assert_eq!(bucket_total, 3, "every windowed sample sits in a bucket");
        assert!(
            window.buckets.iter().all(|&c| c <= 3),
            "a mid-window shard join must not wrap any bucket count"
        );
    }

    /// Snapshots from mismatched merge sets (an `earlier` that saw a
    /// shard the later merge missed, e.g. across a histogram reset)
    /// must clamp to zero, not wrap to 2^64 — the saturating per-bucket
    /// difference is what keeps a `/watch` window from reporting
    /// astronomical request counts at the boundary.
    #[test]
    fn delta_saturates_instead_of_wrapping_when_counts_regress() {
        let h = ShardedHistogram::new(2);
        h.record(4_000_000);
        let full = h.snapshot();
        let degenerate = HistogramSnapshot::zero().delta(&full);
        assert_eq!(degenerate.count, 0);
        assert_eq!(degenerate.sum_ns, 0);
        assert!(degenerate.buckets.iter().all(|&c| c == 0));
        assert_eq!(degenerate.quantile_ns(0.5), None, "empty window, no p50");
    }

    /// A recorder thread that spins up between two snapshots: its
    /// shard joins the merge mid-window and the delta counts exactly
    /// its contribution, with quantiles over only the new samples.
    #[test]
    fn thread_joining_between_snapshots_lands_in_that_window() {
        let h = std::sync::Arc::new(ShardedHistogram::new(8));
        h.record(1_000_000);
        let before = h.snapshot();
        let worker = {
            let h = std::sync::Arc::clone(&h);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    h.record(10_000_000);
                }
            })
        };
        worker.join().expect("recorder thread");
        let after = h.snapshot();
        let window = after.delta(&before);
        assert_eq!(window.count, 100);
        assert_eq!(window.sum_ns, 100 * 10_000_000);
        let p50 = window.quantile_ms(0.5).expect("window samples");
        assert!((10.0..=12.6).contains(&p50), "window p50 {p50}");
    }

    #[test]
    fn sharded_recording_from_many_threads_loses_nothing() {
        let h = std::sync::Arc::new(ShardedHistogram::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        h.record(5_000_000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 80_000);
        assert_eq!(snap.sum_ns, 80_000 * 5_000_000);
    }

    #[test]
    fn cumulative_ends_at_total_count_and_inf() {
        let h = AtomicHistogram::new();
        h.record(10); // underflow -> first bucket
        h.record(1 << 40); // overflow -> last bucket
        h.record(1_000_000);
        let mut snap = HistogramSnapshot::zero();
        h.merge_into(&mut snap);
        let cum = snap.cumulative();
        assert_eq!(cum.len(), NUM_BUCKETS);
        assert_eq!(cum.last().expect("buckets").0, None);
        assert_eq!(cum.last().expect("buckets").1, 3);
        // Cumulative counts are monotone nondecreasing.
        for pair in cum.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
        }
    }
}
