//! Adapters wiring the campaign engine to the design framework
//! (`atlarge-core`): Figure 6's process comparison as a declared,
//! replicated campaign instead of a hand-rolled trial loop.

use crate::campaign::{Campaign, CampaignResult};
use atlarge_core::exploration::{ExplorationProcess, ExplorationReport, Explorer};
use atlarge_core::space::DesignSpace;

/// Figure 6 through the engine: all four processes × `trials`
/// replications on one grid, each run one seeded [`Explorer`] execution
/// of the cell's process. The summary view
/// (`satisfice rate, novelty, best quality` per process) matches
/// `atlarge_core::exploration::compare_processes` in meaning, with
/// replication seeds derived from `root_seed` instead of `0..trials`.
pub fn exploration_campaign<S: DesignSpace + Sync>(
    space: S,
    threshold: f64,
    budget: usize,
    trials: usize,
    root_seed: u64,
) -> CampaignResult<ExplorationProcess, ExplorationReport> {
    let explore = |process: &ExplorationProcess, seed| {
        Explorer::new(*process, budget).run(&space, threshold, seed)
    };
    Campaign::new("core.exploration", explore)
        .factor(
            "process",
            ExplorationProcess::all().map(|p| p.name().to_string()),
        )
        .replications(trials)
        .root_seed(root_seed)
        .run(|cell| {
            ExplorationProcess::all()
                .into_iter()
                .find(|p| p.name() == cell.level("process"))
                .expect("grid levels come from the process roster")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_core::space::RuggedSpace;

    /// The Figure-6 scale law through the engine: on 80-bit spaces
    /// `RuggedSpace(80, 3, s)`, `s` in `0..20`, freezing an axis and
    /// co-evolving satisfice at least as often as free exploration on at
    /// least 90% of spaces (100 trials each from root seed 2026; the
    /// distribution is in EXPERIMENTS.md).
    #[test]
    fn exploration_campaign_reproduces_figure6_ordering() {
        const SPACES: usize = 20;
        let (mut fix_what, mut co_evolving) = (0, 0);
        for s in 0..SPACES as u64 {
            let r = exploration_campaign(RuggedSpace::new(80, 3, s), 0.64, 400, 100, 2026);
            assert_eq!(r.cells.len(), 4);
            let rate = |name: &str| {
                let cell = r
                    .cells
                    .iter()
                    .find(|c| c.spec.level("process") == name)
                    .unwrap();
                cell.summarize(|o| f64::from(u8::from(o.satisficed))).mean()
            };
            fix_what += usize::from(rate("fix-what") >= rate("free"));
            co_evolving += usize::from(rate("co-evolving") >= rate("free"));
        }
        assert!(
            fix_what * 10 >= SPACES * 9,
            "fix-what >= free on {fix_what} of {SPACES}"
        );
        assert!(
            co_evolving * 10 >= SPACES * 9,
            "co-evolving >= free on {co_evolving} of {SPACES}"
        );
    }

    #[test]
    fn exploration_campaign_is_deterministic_across_thread_counts() {
        let a = exploration_campaign(RuggedSpace::new(20, 3, 5), 0.6, 120, 4, 7);
        let b = exploration_campaign(RuggedSpace::new(20, 3, 5), 0.6, 120, 4, 7);
        assert_eq!(a, b);
    }
}
