//! The Figure-1 analysis: keyword presence in top systems venues.

use crate::corpus::{Corpus, KEYWORDS};

/// The Figure-1 table: per venue, per keyword, the fraction of articles
/// mentioning the keyword.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordPresence {
    /// Venue names, row order.
    pub venues: Vec<&'static str>,
    /// Keyword names, column order.
    pub keywords: Vec<&'static str>,
    /// `fractions[v][k]` in `[0, 1]`.
    pub fractions: Vec<Vec<f64>>,
}

impl KeywordPresence {
    /// Renders the table as aligned text (the harness prints this as the
    /// Figure-1 series).
    pub fn to_table_string(&self) -> String {
        let mut out = format!("{:<10}", "venue");
        for k in &self.keywords {
            out.push_str(&format!("{k:>14}"));
        }
        out.push('\n');
        for (vi, v) in self.venues.iter().enumerate() {
            out.push_str(&format!("{v:<10}"));
            for f in &self.fractions[vi] {
                out.push_str(&format!("{:>13.1}%", f * 100.0));
            }
            out.push('\n');
        }
        out
    }
}

/// Computes keyword presence per venue over the whole corpus.
pub fn keyword_presence(corpus: &Corpus) -> KeywordPresence {
    let nv = corpus.venues().len();
    let mut hits = vec![[0u64; 6]; nv];
    let mut totals = vec![0u64; nv];
    for a in corpus.articles() {
        totals[a.venue] += 1;
        for (k, &present) in a.keywords.iter().enumerate() {
            if present {
                hits[a.venue][k] += 1;
            }
        }
    }
    KeywordPresence {
        venues: corpus.venues().iter().map(|v| v.name).collect(),
        keywords: KEYWORDS.to_vec(),
        fractions: (0..nv)
            .map(|v| {
                (0..KEYWORDS.len())
                    .map(|k| hits[v][k] as f64 / totals[v].max(1) as f64)
                    .collect()
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Looks up a fraction by names.
    fn fraction(t: &KeywordPresence, venue: &str, keyword: &str) -> Option<f64> {
        let v = t.venues.iter().position(|&n| n == venue)?;
        let k = t.keywords.iter().position(|&n| n == keyword)?;
        Some(t.fractions[v][k])
    }

    /// Keyword presence restricted to a year range (used to show era effects).
    fn keyword_presence_in_years(corpus: &Corpus, from: u32, to: u32) -> KeywordPresence {
        let nv = corpus.venues().len();
        let mut hits = vec![[0u64; 6]; nv];
        let mut totals = vec![0u64; nv];
        for a in corpus
            .articles()
            .iter()
            .filter(|a| a.year >= from && a.year <= to)
        {
            totals[a.venue] += 1;
            for (k, &present) in a.keywords.iter().enumerate() {
                if present {
                    hits[a.venue][k] += 1;
                }
            }
        }
        KeywordPresence {
            venues: corpus.venues().iter().map(|v| v.name).collect(),
            keywords: KEYWORDS.to_vec(),
            fractions: (0..nv)
                .map(|v| {
                    (0..KEYWORDS.len())
                        .map(|k| hits[v][k] as f64 / totals[v].max(1) as f64)
                        .collect()
                })
                .collect(),
        }
    }

    #[test]
    fn design_is_a_common_keyword_everywhere() {
        // Figure 1's finding: design is a common keyword in top venues,
        // including ICDCS.
        let c = Corpus::generate(10);
        let t = keyword_presence(&c);
        for v in &t.venues {
            let f = fraction(&t, v, "design").unwrap();
            assert!(f > 0.10, "{v} design fraction {f}");
        }
    }

    #[test]
    fn performance_dominates_design() {
        let c = Corpus::generate(11);
        let t = keyword_presence(&c);
        let perf = fraction(&t, "ICDCS", "performance").unwrap();
        let design = fraction(&t, "ICDCS", "design").unwrap();
        assert!(perf > design);
    }

    #[test]
    fn elasticity_absent_pre_cloud() {
        let c = Corpus::generate(12);
        let early = keyword_presence_in_years(&c, 1980, 2005);
        let late = keyword_presence_in_years(&c, 2010, 2018);
        assert_eq!(fraction(&early, "ICDCS", "elasticity").unwrap(), 0.0);
        assert!(fraction(&late, "ICDCS", "elasticity").unwrap() > 0.05);
    }

    #[test]
    fn fractions_are_probabilities() {
        let c = Corpus::generate(13);
        let t = keyword_presence(&c);
        for row in &t.fractions {
            for &f in row {
                assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    #[test]
    fn table_string_has_all_rows() {
        let c = Corpus::generate(14);
        let t = keyword_presence(&c);
        let s = t.to_table_string();
        for v in &t.venues {
            assert!(s.contains(v));
        }
        assert!(s.contains("design"));
    }

    #[test]
    fn unknown_lookup_is_none() {
        let c = Corpus::generate(15);
        let t = keyword_presence(&c);
        assert!(fraction(&t, "NOPE", "design").is_none());
        assert!(fraction(&t, "ICDCS", "nope").is_none());
    }
}
