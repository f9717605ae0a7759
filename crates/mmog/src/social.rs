//! Implicit social networks, matchmaking, and toxicity (\[74\], \[75\],
//! \[77\], \[91\]).
//!
//! Match logs induce an *implicit* social network: players who repeatedly
//! co-play are socially linked even if the game has no friend system. The
//! studies used these graphs for matchmaking and best-practice sharing,
//! and for detecting toxicity. Here: graph construction from co-play
//! events, degree/clustering analyses, the social-match rate of rosters,
//! and a report-plus-lexicon toxicity detector scored against synthetic
//! ground truth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// An undirected weighted interaction graph over players.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SocialGraph {
    edges: BTreeMap<(u32, u32), u32>,
}

impl SocialGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a co-play event between two players.
    pub(crate) fn record_coplay(&mut self, a: u32, b: u32) {
        if a == b {
            return;
        }
        let key = (a.min(b), a.max(b));
        *self.edges.entry(key).or_insert(0) += 1;
    }

    /// Builds the graph from match rosters: every pair in a match
    /// co-plays.
    pub(crate) fn from_matches(matches: &[Vec<u32>]) -> Self {
        let mut g = SocialGraph::new();
        for m in matches {
            for i in 0..m.len() {
                for j in (i + 1)..m.len() {
                    g.record_coplay(m[i], m[j]);
                }
            }
        }
        g
    }

    /// Edge weight between two players (0 if absent).
    pub fn weight(&self, a: u32, b: u32) -> u32 {
        self.edges.get(&(a.min(b), a.max(b))).copied().unwrap_or(0)
    }

    /// The *social* subgraph: edges with weight ≥ `threshold` (repeated
    /// co-play implies a tie, single co-occurrence does not).
    pub(crate) fn social_ties(&self, threshold: u32) -> Vec<(u32, u32)> {
        self.edges
            .iter()
            .filter(|(_, &w)| w >= threshold)
            .map(|(&(a, b), _)| (a, b))
            .collect()
    }

    /// Global clustering coefficient of the tie graph: closed triplets /
    /// all triplets.
    pub(crate) fn clustering_coefficient(&self, threshold: u32) -> f64 {
        let ties = self.social_ties(threshold);
        let mut adj: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for (a, b) in ties {
            adj.entry(a).or_default().insert(b);
            adj.entry(b).or_default().insert(a);
        }
        let mut triplets = 0u64;
        let mut closed = 0u64;
        for ns in adj.values() {
            let ns: Vec<u32> = ns.iter().copied().collect();
            for i in 0..ns.len() {
                for j in (i + 1)..ns.len() {
                    triplets += 1;
                    if adj.get(&ns[i]).is_some_and(|s| s.contains(&ns[j])) {
                        closed += 1;
                    }
                }
            }
        }
        if triplets == 0 {
            0.0
        } else {
            closed as f64 / triplets as f64
        }
    }
}

/// Generates match rosters with embedded friend groups: friends queue
/// together with probability `group_play`, strangers fill the rest.
pub(crate) fn generate_matches(
    players: u32,
    group_size: u32,
    matches: usize,
    roster: usize,
    group_play: f64,
    seed: u64,
) -> Vec<Vec<u32>> {
    assert!(group_size > 0 && players >= group_size);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..matches)
        .map(|_| {
            let mut m = Vec::with_capacity(roster);
            if rng.gen::<f64>() < group_play {
                // A friend group joins together.
                let g = rng.gen_range(0..players / group_size);
                for k in 0..group_size.min(roster as u32) {
                    m.push(g * group_size + k);
                }
            }
            while m.len() < roster {
                let p = rng.gen_range(0..players);
                if !m.contains(&p) {
                    m.push(p);
                }
            }
            m
        })
        .collect()
}

/// Matchmaking (\[74\], \[91\]): prefers rosters with existing social ties.
/// Returns the fraction of matches containing at least one tie.
pub(crate) fn social_match_rate(matches: &[Vec<u32>], graph: &SocialGraph, threshold: u32) -> f64 {
    if matches.is_empty() {
        return 0.0;
    }
    let with_tie = matches
        .iter()
        .filter(|m| {
            m.iter()
                .enumerate()
                .any(|(i, &a)| m[i + 1..].iter().any(|&b| graph.weight(a, b) >= threshold))
        })
        .count();
    with_tie as f64 / matches.len() as f64
}

/// A chat message with ground-truth toxicity (for detector scoring).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChatMessage {
    /// Author.
    pub player: u32,
    /// Lexicon hits in the message (the detector's signal).
    pub flagged_terms: u32,
    /// Peer reports received.
    pub reports: u32,
    /// Ground truth: actually toxic.
    pub toxic: bool,
}

/// Generates a chat log where toxic messages carry more flagged terms and
/// attract more reports — with noise on both signals.
pub(crate) fn generate_chat(messages: usize, toxic_rate: f64, seed: u64) -> Vec<ChatMessage> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..messages)
        .map(|i| {
            let toxic = rng.gen::<f64>() < toxic_rate;
            let flagged_terms = if toxic {
                1 + rng.gen_range(0..4)
            } else {
                u32::from(rng.gen::<f64>() < 0.05)
            };
            let reports = if toxic {
                rng.gen_range(0..5)
            } else {
                u32::from(rng.gen::<f64>() < 0.02)
            };
            ChatMessage {
                player: i as u32 % 500,
                flagged_terms,
                reports,
                toxic,
            }
        })
        .collect()
}

/// The \[77\]-style detector: a message is toxic if its lexicon score plus
/// weighted reports crosses a threshold.
pub(crate) fn detect_toxicity(msg: &ChatMessage, threshold: f64) -> bool {
    f64::from(msg.flagged_terms) + 0.8 * f64::from(msg.reports) >= threshold
}

/// Precision and recall of the detector on a log.
pub(crate) fn detector_quality(log: &[ChatMessage], threshold: f64) -> (f64, f64) {
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for m in log {
        let flagged = detect_toxicity(m, threshold);
        match (flagged, m.toxic) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let recall = tp as f64 / (tp + fn_).max(1) as f64;
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coplay_builds_weighted_edges() {
        let mut g = SocialGraph::new();
        g.record_coplay(1, 2);
        g.record_coplay(2, 1);
        g.record_coplay(1, 1); // ignored
        assert_eq!(g.weight(1, 2), 2);
        assert_eq!(g.edges.len(), 1);
    }

    #[test]
    fn friend_groups_emerge_as_ties() {
        // The implicit-social-network finding: repeated co-play separates
        // friends from random fill players.
        let matches = generate_matches(1_000, 4, 2_000, 8, 0.6, 5);
        let g = SocialGraph::from_matches(&matches);
        let ties = g.social_ties(5);
        assert!(!ties.is_empty(), "friend ties should emerge");
        // Ties overwhelmingly connect same-group players.
        let same_group = ties.iter().filter(|(a, b)| a / 4 == b / 4).count();
        assert!(
            same_group as f64 / ties.len() as f64 > 0.9,
            "{same_group}/{} ties within groups",
            ties.len()
        );
    }

    #[test]
    fn tie_graph_clusters() {
        let matches = generate_matches(400, 4, 3_000, 8, 0.7, 6);
        let g = SocialGraph::from_matches(&matches);
        let cc_ties = g.clustering_coefficient(5);
        assert!(
            cc_ties > 0.3,
            "friend groups should form triangles: {cc_ties}"
        );
    }

    #[test]
    fn matchmaking_with_ties_beats_random() {
        let matches = generate_matches(1_000, 4, 3_000, 8, 0.6, 7);
        let g = SocialGraph::from_matches(&matches);
        let grouped = social_match_rate(&matches, &g, 3);
        let random = generate_matches(1_000, 4, 3_000, 8, 0.0, 8);
        let random_rate = social_match_rate(&random, &g, 3);
        assert!(
            grouped > random_rate + 0.2,
            "grouped {grouped} vs random {random_rate}"
        );
    }

    #[test]
    fn toxicity_detector_has_useful_precision_recall() {
        let log = generate_chat(20_000, 0.05, 9);
        let (p, r) = detector_quality(&log, 2.0);
        assert!(p > 0.7, "precision {p}");
        assert!(r > 0.5, "recall {r}");
    }

    #[test]
    fn threshold_trades_precision_for_recall() {
        let log = generate_chat(20_000, 0.05, 10);
        let (p_strict, r_strict) = detector_quality(&log, 3.5);
        let (p_loose, r_loose) = detector_quality(&log, 1.0);
        assert!(p_strict >= p_loose, "{p_strict} vs {p_loose}");
        assert!(r_loose >= r_strict, "{r_loose} vs {r_strict}");
    }
}
