//! Cooperative cancellation for served cells.
//!
//! An exploration server cannot afford to finish a cell whose requester
//! is gone: a [`CancelToken`] is a cheaply cloneable flag that
//! [`run_replicated`](crate::registry::run_replicated) polls before each
//! replication of a [`CellScenario::run_cell`](crate::CellScenario::run_cell),
//! so a cell the server cancels (a `/trace` whose client hung up) stops
//! at the next replication boundary instead of running to completion.
//! Cancellation is *cooperative and deterministic-safe*: a cell either
//! completes (and is byte-identical to any other completion) or returns
//! an error — a cancelled cell never yields partial results that could
//! be mistaken for a full answer. Campaigns
//! ([`Campaign::run`](crate::Campaign::run)) are not cancellable: they
//! always run every job.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag.
///
/// Cloning shares the flag: cancelling any clone cancels them all.
/// Tokens start un-cancelled and can only ever transition to cancelled
/// (there is no reset — one token per unit of cancellable work).
///
/// # Examples
///
/// ```
/// use atlarge_exp::cancel::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested on this token (or any clone).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        // Idempotent.
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn token_crosses_threads() {
        let token = CancelToken::new();
        let t = token.clone();
        std::thread::spawn(move || t.cancel())
            .join()
            .expect("cancel thread");
        assert!(token.is_cancelled());
    }
}
