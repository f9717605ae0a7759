//! The synthetic publication corpus.
//!
//! Generation is calibrated to the paper's qualitative claims, not to any
//! proprietary dataset: venue start years induce censoring (§2.2: "some of
//! the venues have started earlier, so for them only censured data is
//! available"); the design-article share rises markedly after 2000
//! ("a marked increase in design articles accepted for publication since
//! 2000"); keyword frequencies differ by venue and era.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The keywords tracked by the Figure-1 analysis.
pub(crate) const KEYWORDS: [&str; 6] = [
    "design",
    "performance",
    "scalability",
    "availability",
    "elasticity",
    "scheduling",
];

/// A publication venue with its first year of publication.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Venue {
    /// Venue name.
    pub name: &'static str,
    /// First year with proceedings (censoring boundary for Figure 2).
    pub start_year: u32,
    /// Mean accepted articles per year.
    pub articles_per_year: u32,
}

/// The venue list used by the analyses (top systems venues, as in the
/// figures' axis).
pub(crate) fn venues() -> Vec<Venue> {
    vec![
        Venue {
            name: "ICDCS",
            start_year: 1980,
            articles_per_year: 70,
        },
        Venue {
            name: "SOSP",
            start_year: 1980,
            articles_per_year: 30,
        },
        Venue {
            name: "OSDI",
            start_year: 1994,
            articles_per_year: 30,
        },
        Venue {
            name: "NSDI",
            start_year: 2004,
            articles_per_year: 40,
        },
        Venue {
            name: "EuroSys",
            start_year: 2006,
            articles_per_year: 40,
        },
        Venue {
            name: "HPDC",
            start_year: 1992,
            articles_per_year: 40,
        },
        Venue {
            name: "SC",
            start_year: 1988,
            articles_per_year: 80,
        },
        Venue {
            name: "ATC",
            start_year: 1992,
            articles_per_year: 50,
        },
    ]
}

/// One article of the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct Article {
    /// Venue index into `Corpus::venues`.
    pub venue: usize,
    /// Publication year.
    pub year: u32,
    /// Whether this is a design article.
    pub is_design: bool,
    /// Keyword presence flags, aligned with `KEYWORDS`.
    pub keywords: [bool; 6],
}

/// The synthetic corpus: venues plus articles from 1980 to 2018.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    venues: Vec<Venue>,
    articles: Vec<Article>,
}

/// First year covered by the corpus.
pub(crate) const FIRST_YEAR: u32 = 1980;
/// Last year covered by the corpus (2015-block is incomplete, as in the
/// paper's Figure 2).
pub(crate) const LAST_YEAR: u32 = 2018;

impl Corpus {
    /// Generates the corpus with a seed.
    pub fn generate(seed: u64) -> Self {
        let venues = venues();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut articles = Vec::new();
        for (vi, v) in venues.iter().enumerate() {
            for year in v.start_year.max(FIRST_YEAR)..=LAST_YEAR {
                let n = v.articles_per_year;
                for _ in 0..n {
                    let is_design = rng.gen::<f64>() < design_probability(year);
                    let keywords = sample_keywords(&mut rng, year, is_design);
                    articles.push(Article {
                        venue: vi,
                        year,
                        is_design,
                        keywords,
                    });
                }
            }
        }
        Corpus { venues, articles }
    }

    /// The venue list.
    pub(crate) fn venues(&self) -> &[Venue] {
        &self.venues
    }

    /// All articles.
    pub fn articles(&self) -> &[Article] {
        &self.articles
    }
}

/// Probability that an article published in `year` is a design article.
///
/// Calibration: a modest base rate through the 1980s–90s, a marked rise
/// after 2000, saturating in the 2010s — the shape Figure 2 reports.
pub(crate) fn design_probability(year: u32) -> f64 {
    let base = 0.06;
    if year < 2000 {
        base + 0.002 * (year.saturating_sub(FIRST_YEAR)) as f64 / 2.0
    } else {
        let t = (year - 2000) as f64;
        (base + 0.02 + 0.012 * t).min(0.30)
    }
}

fn sample_keywords(rng: &mut StdRng, year: u32, is_design: bool) -> [bool; 6] {
    let era = ((year - FIRST_YEAR) as f64 / (LAST_YEAR - FIRST_YEAR) as f64).clamp(0.0, 1.0);
    let mut flags = [false; 6];
    // "design" tracks design articles plus background mentions that grow
    // over time (Figure 1 shows design as a common keyword).
    flags[0] = is_design || rng.gen::<f64>() < 0.10 + 0.15 * era;
    // "performance" is perennially dominant in systems venues.
    flags[1] = rng.gen::<f64>() < 0.55;
    // "scalability" grows with the field.
    flags[2] = rng.gen::<f64>() < 0.10 + 0.25 * era;
    // "availability" moderate and stable.
    flags[3] = rng.gen::<f64>() < 0.15;
    // "elasticity" only exists after the cloud era.
    flags[4] = year >= 2009 && rng.gen::<f64>() < 0.12;
    // "scheduling" stable.
    flags[5] = rng.gen::<f64>() < 0.20;
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::generate(1);
        let b = Corpus::generate(1);
        assert_eq!(a, b);
        assert_ne!(a, Corpus::generate(2));
    }

    #[test]
    fn censoring_respects_start_years() {
        let c = Corpus::generate(3);
        for a in c.articles() {
            assert!(a.year >= c.venues()[a.venue].start_year);
            assert!((FIRST_YEAR..=LAST_YEAR).contains(&a.year));
        }
        // NSDI has no articles before 2004.
        let nsdi = c.venues().iter().position(|v| v.name == "NSDI").unwrap();
        assert!(c
            .articles()
            .iter()
            .filter(|a| a.venue == nsdi)
            .all(|a| a.year >= 2004));
    }

    #[test]
    fn design_probability_rises_after_2000() {
        assert!(design_probability(1985) < design_probability(2005));
        assert!(design_probability(2005) < design_probability(2015));
        assert!(design_probability(2018) <= 0.30);
    }

    #[test]
    fn elasticity_keyword_is_cloud_era_only() {
        let c = Corpus::generate(4);
        for a in c.articles() {
            if a.keywords[4] {
                assert!(a.year >= 2009, "elasticity keyword in {}", a.year);
            }
        }
    }

    #[test]
    fn corpus_has_expected_scale() {
        let c = Corpus::generate(5);
        // 8 venues × decades of articles: tens of thousands.
        assert!(c.articles().len() > 10_000);
        assert_eq!(c.venues().len(), 8);
    }
}
