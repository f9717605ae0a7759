//! A fork-join executor on `std::thread`.
//!
//! Jobs are indexed `0..n`. Scoped workers claim the next unclaimed
//! index from one shared counter (a single `fetch_add` per job, far
//! below the cost of any simulation run), so a worker that finishes a
//! short job simply takes the next one and no worker idles while jobs
//! remain.
//!
//! Results are returned **in job-index order regardless of execution
//! interleaving**, which is what lets the campaign engine guarantee
//! byte-identical aggregation between serial and parallel runs.

use crate::cancel::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `jobs` invocations of `job` on up to `threads` workers and
/// returns the results in job-index order.
///
/// `threads <= 1` (or fewer than two jobs) short-circuits to a plain
/// serial loop — the reference execution the parallel path must match.
///
/// Cancellation is cooperative: every worker checks
/// `cancel` before claiming its next job, so cancellation takes effect
/// at the next job boundary. Returns `None` if the token fired before
/// every job completed — a cancelled execution yields *no* results,
/// never partial ones, so callers cannot mistake an aborted campaign
/// for a finished one.
pub(crate) fn run_indexed_cancellable<T, F>(
    jobs: usize,
    threads: usize,
    cancel: &CancelToken,
    job: F,
) -> Option<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || jobs <= 1 {
        let mut out = Vec::with_capacity(jobs);
        for j in 0..jobs {
            if cancel.is_cancelled() {
                return None;
            }
            out.push(job(j));
        }
        return Some(out);
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    let chunks = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(jobs))
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, T)> = Vec::new();
                    while !cancel.is_cancelled() {
                        // Relaxed: the counter publishes no data, only
                        // indices; results come back through `join`.
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= jobs {
                            break;
                        }
                        done.push((idx, job(idx)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });
    for (idx, value) in chunks.into_iter().flatten() {
        debug_assert!(slots[idx].is_none(), "job {idx} ran twice");
        slots[idx] = Some(value);
    }
    if cancel.is_cancelled() && slots.iter().any(Option::is_none) {
        return None;
    }
    Some(
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("job {i} never ran")))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The executor under a fresh token, which never fires.
    fn run<T: Send>(jobs: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        run_indexed_cancellable(jobs, threads, &CancelToken::new(), job)
            .expect("a fresh token is never cancelled")
    }
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 3;
        let serial = run(257, 1, f);
        for threads in [2, 3, 4, 8] {
            assert_eq!(run(257, threads, f), serial, "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = run(1000, 4, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        assert_eq!(run(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run(1, 4, |i| i * 7), vec![0]);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(run(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn pre_cancelled_runs_yield_nothing() {
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(run_indexed_cancellable(100, 1, &token, |i| i), None);
        assert_eq!(run_indexed_cancellable(100, 4, &token, |i| i), None);
    }

    #[test]
    fn mid_run_cancellation_stops_at_a_job_boundary() {
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let t = token.clone();
        let out = run_indexed_cancellable(1000, 1, &token, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 9 {
                t.cancel();
            }
            i
        });
        assert_eq!(out, None);
        assert_eq!(ran.load(Ordering::Relaxed), 10, "stops after job 9");
    }

    #[test]
    fn uncancelled_token_matches_plain_run() {
        let token = CancelToken::new();
        let f = |i: usize| i * 3 + 1;
        assert_eq!(
            run_indexed_cancellable(57, 4, &token, f),
            Some(run(57, 1, f))
        );
    }

    #[test]
    fn uneven_job_costs_still_order_results() {
        // Early jobs are slow: claiming reorders execution but not output.
        let out = run(40, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 2
        });
        assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
    }
}
