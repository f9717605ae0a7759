//! The Figure-3 generative review model and violin analysis.
//!
//! Figure 3 plots, for one year of a top distributed-systems conference,
//! the distribution of final scores for *merit*, *quality*, and *topic*
//! (integers 1–4), split by design vs non-design articles. The paper draws
//! two findings: (1) design articles have a slightly better merit
//! distribution (higher median, mean, IQR mass at ≥2); (2) a significant
//! share of design articles still scores significantly below 3 — evidence
//! that professionals struggle to produce and self-assess designs. The
//! right panel shows topic scores clustering high (the CfP steers
//! submissions).
//!
//! The generative model encodes exactly those relationships; the analysis
//! then *recovers* them, which is the reproduction contract for a figure
//! whose raw data is confidential.

use atlarge_stats::dist::{Normal, Sample};
use atlarge_stats::violin::ViolinSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One reviewed submission with final (median-of-reviewers) scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReviewedArticle {
    /// Whether the submission is a design article.
    pub is_design: bool,
    /// Whether the PC accepted it.
    pub accepted: bool,
    /// Final merit score (1–4).
    pub merit: u8,
    /// Final quality-of-approach score (1–4).
    pub quality: u8,
    /// Final topic-fit score (1–4).
    pub topic: u8,
}

/// Parameters of the review model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReviewModel {
    /// Number of submissions.
    pub submissions: usize,
    /// Fraction that are design articles.
    pub design_fraction: f64,
    /// Number of reviewers per submission (the paper's "3+").
    pub reviewers: usize,
    /// Acceptance threshold on mean merit.
    pub accept_threshold: f64,
}

impl Default for ReviewModel {
    fn default() -> Self {
        ReviewModel {
            submissions: 300,
            design_fraction: 0.4,
            reviewers: 3,
            accept_threshold: 2.8,
        }
    }
}

fn clamp_score(x: f64) -> u8 {
    (x.round() as i64).clamp(1, 4) as u8
}

impl ReviewModel {
    /// Simulates one review cycle.
    pub fn simulate(&self, seed: u64) -> Vec<ReviewedArticle> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(self.submissions);
        for i in 0..self.submissions {
            let is_design = (i as f64 / self.submissions as f64) < self.design_fraction;
            // Latent quality: design articles slightly better on average
            // (finding 1) but with wide spread so many still land below 3
            // (finding 2).
            let latent_mu = if is_design { 2.45 } else { 2.3 };
            let latent = Normal::new(latent_mu, 0.55).sample(&mut rng);
            // Topic fit clusters high for everyone (the CfP steers
            // submissions; Figure 3 right).
            let topic_latent = Normal::new(3.4, 0.5).sample(&mut rng);
            let reviewer_scores = |center: f64, rng: &mut StdRng| -> u8 {
                let mut scores: Vec<u8> = (0..self.reviewers)
                    .map(|_| clamp_score(Normal::new(center, 0.4).sample(rng)))
                    .collect();
                scores.sort_unstable();
                scores[scores.len() / 2] // median reviewer
            };
            let merit = reviewer_scores(latent, &mut rng);
            let quality = reviewer_scores(latent - 0.1, &mut rng);
            let topic = reviewer_scores(topic_latent, &mut rng);
            let accepted = f64::from(merit) >= self.accept_threshold;
            out.push(ReviewedArticle {
                is_design,
                accepted,
                merit,
                quality,
                topic,
            });
        }
        out
    }
}

/// Which score the analysis groups on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Overall merit (Figure 3 left).
    Merit,
    /// Quality of the approach (Figure 3 middle).
    Quality,
    /// Topic fit (Figure 3 right).
    Topic,
}

impl Criterion {
    fn of(&self, a: &ReviewedArticle) -> f64 {
        f64::from(match self {
            Criterion::Merit => a.merit,
            Criterion::Quality => a.quality,
            Criterion::Topic => a.topic,
        })
    }
}

/// The Figure-3 panel for one criterion: violins for design and
/// non-design groups.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolinPanel {
    /// Which criterion this panel shows.
    pub criterion: Criterion,
    /// Violin statistics of design articles.
    pub design: ViolinSummary,
    /// Violin statistics of non-design articles.
    pub non_design: ViolinSummary,
}

/// Computes one panel of Figure 3.
///
/// # Panics
///
/// Panics if either group is empty.
pub fn violin_panel(articles: &[ReviewedArticle], criterion: Criterion) -> ViolinPanel {
    let design: Vec<f64> = articles
        .iter()
        .filter(|a| a.is_design)
        .map(|a| criterion.of(a))
        .collect();
    let non_design: Vec<f64> = articles
        .iter()
        .filter(|a| !a.is_design)
        .map(|a| criterion.of(a))
        .collect();
    ViolinPanel {
        criterion,
        design: ViolinSummary::from_samples(&design, 64),
        non_design: ViolinSummary::from_samples(&non_design, 64),
    }
}

/// The paper's two findings, as measured facts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Findings {
    /// Finding 1: design articles' merit mean exceeds non-design's.
    pub design_merit_mean_higher: bool,
    /// Finding 1 (median component).
    pub design_merit_median_at_least: bool,
    /// Finding 2: fraction of design articles with merit < 3.
    pub design_below_3_fraction: f64,
    /// Figure 3 right: mean topic score across all submissions.
    pub mean_topic: f64,
}

/// Extracts the findings from a simulated review cycle.
pub fn extract_findings(articles: &[ReviewedArticle]) -> Findings {
    let merit = violin_panel(articles, Criterion::Merit);
    let design_n = articles.iter().filter(|a| a.is_design).count();
    let below3 = articles
        .iter()
        .filter(|a| a.is_design && a.merit < 3)
        .count();
    let mean_topic =
        articles.iter().map(|a| f64::from(a.topic)).sum::<f64>() / articles.len().max(1) as f64;
    Findings {
        design_merit_mean_higher: merit.design.mean() > merit.non_design.mean(),
        design_merit_median_at_least: merit.design.median() >= merit.non_design.median(),
        design_below_3_fraction: below3 as f64 / design_n.max(1) as f64,
        mean_topic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance rates per group: `(design_rate, non_design_rate)`.
    fn acceptance_rates(articles: &[ReviewedArticle]) -> (f64, f64) {
        let rate = |pred: fn(&ReviewedArticle) -> bool| {
            let group: Vec<&ReviewedArticle> = articles.iter().filter(|a| pred(a)).collect();
            let accepted = group.iter().filter(|a| a.accepted).count();
            accepted as f64 / group.len().max(1) as f64
        };
        (rate(|a| a.is_design), rate(|a| !a.is_design))
    }

    /// The Figure-3 grouping the paper also plots: accepted vs rejected.
    /// Returns `(accepted_merit_summary, rejected_merit_summary)`.
    ///
    /// # Panics
    ///
    /// Panics if either group is empty (the model's acceptance threshold
    /// guarantees both exist at realistic sizes).
    fn acceptance_split(articles: &[ReviewedArticle]) -> (ViolinSummary, ViolinSummary) {
        let accepted: Vec<f64> = articles
            .iter()
            .filter(|a| a.accepted)
            .map(|a| f64::from(a.merit))
            .collect();
        let rejected: Vec<f64> = articles
            .iter()
            .filter(|a| !a.accepted)
            .map(|a| f64::from(a.merit))
            .collect();
        (
            ViolinSummary::from_samples(&accepted, 64),
            ViolinSummary::from_samples(&rejected, 64),
        )
    }

    fn articles() -> Vec<ReviewedArticle> {
        ReviewModel::default().simulate(77)
    }

    #[test]
    fn scores_are_integers_1_to_4() {
        for a in articles() {
            assert!((1..=4).contains(&a.merit));
            assert!((1..=4).contains(&a.quality));
            assert!((1..=4).contains(&a.topic));
        }
    }

    #[test]
    fn finding1_design_slightly_better_merit() {
        let f = extract_findings(&articles());
        assert!(f.design_merit_mean_higher);
        assert!(f.design_merit_median_at_least);
    }

    #[test]
    fn finding2_many_design_articles_below_3() {
        // "a significant percentage of the design articles are not of high
        // quality or high merit (scores significantly below 3)".
        let f = extract_findings(&articles());
        assert!(
            f.design_below_3_fraction > 0.25,
            "below-3 fraction {}",
            f.design_below_3_fraction
        );
    }

    #[test]
    fn topic_scores_cluster_high() {
        // Figure 3 right: submissions match the CfP topics closely.
        let f = extract_findings(&articles());
        assert!(f.mean_topic > 3.0, "mean topic {}", f.mean_topic);
    }

    #[test]
    fn scores_cluster_mid_range() {
        // The C2 discussion: "many scores cluster around the middle of the
        // given range".
        let arts = articles();
        let mid = arts.iter().filter(|a| a.merit == 2 || a.merit == 3).count();
        assert!(mid as f64 / arts.len() as f64 > 0.5);
    }

    #[test]
    fn acceptance_requires_merit() {
        for a in articles() {
            if a.accepted {
                assert!(a.merit >= 3);
            }
        }
    }

    #[test]
    fn panels_are_computable_for_all_criteria() {
        let arts = articles();
        for c in [Criterion::Merit, Criterion::Quality, Criterion::Topic] {
            let p = violin_panel(&arts, c);
            assert!(p.design.n() > 0 && p.non_design.n() > 0);
            assert!(p.design.median() >= 1.0 && p.design.median() <= 4.0);
        }
    }

    #[test]
    fn accepted_articles_outscore_rejected() {
        let arts = articles();
        let (acc, rej) = acceptance_split(&arts);
        assert!(acc.mean() > rej.mean() + 0.5);
        assert!(acc.median() >= 3.0);
        assert!(rej.median() <= 2.0);
    }

    #[test]
    fn design_articles_accepted_slightly_more_often() {
        // Follows from finding 1: slightly better merit implies a slightly
        // higher acceptance rate. A single year is noisy, so aggregate
        // several review cycles (as a longitudinal study would).
        let model = ReviewModel::default();
        let mut design_sum = 0.0;
        let mut non_design_sum = 0.0;
        for seed in 0..10 {
            let (d, n) = acceptance_rates(&model.simulate(seed));
            design_sum += d;
            non_design_sum += n;
        }
        assert!(
            design_sum > non_design_sum,
            "design {design_sum} vs non-design {non_design_sum}"
        );
        // Top-tier acceptance stays selective.
        assert!(design_sum / 10.0 < 0.5);
    }

    #[test]
    fn simulation_is_deterministic() {
        let m = ReviewModel::default();
        assert_eq!(m.simulate(5), m.simulate(5));
    }
}
