//! Study tables: the one shape the paper's Tables 5, 6 and 7 share.
//!
//! Each of those tables lists independently reproduced studies — a
//! citation, a feature, an instrument or team, the reproduction's key
//! finding, and whether the paper's claim held. A domain declares its
//! table once, as a [`StudyTable`] constant holding its row functions
//! and the names and widths it prints. The declaration runs as a
//! campaign (one `study` factor with one level per row, so every study
//! and replication gets its own derived seed) and serves as a
//! [`CellScenario`] (one `study` choice, defaulting to the first row,
//! replicated on the seed stream of a single-cell campaign); both call
//! the study's row function.

use crate::campaign::{Campaign, CampaignResult};
use crate::cancel::CancelToken;
use crate::registry::{run_replicated, CellOutput, CellScenario, ParamSpec};
use atlarge_stats::descriptive::Summary;
use atlarge_telemetry::tracer::Tracer;
use std::collections::BTreeMap;

/// One reproduced study: a row of a [`StudyTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct StudyRow {
    /// Citation tag and year, as printed in the table.
    pub study: &'static str,
    /// The study's feature column.
    pub feature: &'static str,
    /// The third column: the instrument (Tables 5 and 6) or the team
    /// (Table 7), headed by [`StudyTable::source_header`].
    pub source: &'static str,
    /// The key quantitative finding of the reproduction.
    pub finding: String,
    /// Whether the paper's qualitative claim held in the reproduction.
    pub claim_holds: bool,
}

/// A study function: derives one [`StudyRow`] from a seed. Paired
/// contrasts within a row reuse that seed (common random numbers).
pub type StudyFn = fn(u64) -> StudyRow;

/// A declared table of reproduced studies.
#[derive(Debug, Clone, Copy)]
pub struct StudyTable {
    /// Campaign name (the manifest model), e.g. `"p2p.table5"`.
    pub name: &'static str,
    /// Registry key of the served cell, e.g. `"p2p"`.
    pub domain: &'static str,
    /// One-line description for discovery endpoints.
    pub describe: &'static str,
    /// Help text of the served `study` parameter.
    pub study_help: &'static str,
    /// Printed header of the third column. Lowercased, it is also the
    /// note key under which the served cell reports that column.
    pub source_header: &'static str,
    /// Printed widths of the study, feature and third columns.
    pub widths: [usize; 3],
    /// `(grid level, row function)` per study, in printed order.
    pub studies: &'static [(&'static str, StudyFn)],
}

impl StudyTable {
    /// Runs the table as a declared campaign: a `study` factor with one
    /// level per row, `replications` runs per cell, all seeds derived
    /// from `seed`. Each cell's config is its study's index.
    pub fn campaign(&self, seed: u64, replications: usize) -> CampaignResult<usize, StudyRow> {
        let run = |&study: &usize, seed| (self.studies[study].1)(seed);
        Campaign::new(self.name, run)
            .factor("study", self.studies.iter().map(|(name, _)| *name))
            .replications(replications)
            .root_seed(seed)
            .run(|cell| cell.index)
    }

    /// Runs every study once (the single-replication view of
    /// [`StudyTable::campaign`]).
    pub fn rows(&self, seed: u64) -> Vec<StudyRow> {
        self.campaign(seed, 1)
            .first_outcomes()
            .into_iter()
            .cloned()
            .collect()
    }

    /// Renders rows as the printed table.
    pub fn render(&self, rows: &[StudyRow]) -> String {
        let mut out = self.line("Study", "Feature", self.source_header, "OK", 6, "Finding");
        for r in rows {
            let ok = if r.claim_holds { "yes" } else { "NO" };
            out += &self.line(r.study, r.feature, r.source, ok, 6, &r.finding);
        }
        out
    }

    /// Renders a replicated campaign: the first replication's findings
    /// plus, per row, how many replications the claim held in.
    pub fn render_campaign(&self, result: &CampaignResult<usize, StudyRow>) -> String {
        let mut out = self.line(
            "Study",
            "Feature",
            self.source_header,
            "OK",
            8,
            "Finding (first replication)",
        );
        for cell in &result.cells {
            let r = cell.first();
            let rate = cell
                .summarize(|row| f64::from(u8::from(row.claim_holds)))
                .mean();
            let ok = format!("{:.0}/{}", rate * cell.runs.len() as f64, cell.runs.len());
            out += &self.line(r.study, r.feature, r.source, &ok, 8, &r.finding);
        }
        out
    }

    /// One printed line: three declared-width columns, the `OK` column
    /// at `ok_width`, then the finding.
    fn line(
        &self,
        study: &str,
        feature: &str,
        source: &str,
        ok: &str,
        ok_width: usize,
        finding: &str,
    ) -> String {
        let [s, f, c] = self.widths;
        format!("{study:<s$}{feature:<f$}{source:<c$}{ok:<ok_width$} {finding}\n")
    }
}

/// A query names one study and gets the replicated claim-holds rate
/// plus the first replication's printed columns.
impl CellScenario for StudyTable {
    fn domain(&self) -> &str {
        self.domain
    }

    fn describe(&self) -> &str {
        self.describe
    }

    fn params(&self) -> Vec<ParamSpec> {
        let names: Vec<&str> = self.studies.iter().map(|(name, _)| *name).collect();
        vec![ParamSpec::choice("study", self.study_help, &names)]
    }

    fn run_cell(
        &self,
        params: &BTreeMap<String, String>,
        seed: u64,
        replications: usize,
        cancel: &CancelToken,
        _tracer: &dyn Tracer,
    ) -> Result<CellOutput, String> {
        let chosen = params.get("study").expect("validated params").as_str();
        let &(_, study) = self
            .studies
            .iter()
            .find(|(name, _)| *name == chosen)
            .expect("choice validation admits only declared studies");
        let rows = run_replicated(seed, replications, cancel, study)?;
        let first = &rows[0];
        Ok(CellOutput {
            metrics: vec![(
                "claim_holds".to_string(),
                Summary::from_iter(rows.iter().map(|r| f64::from(u8::from(r.claim_holds)))),
            )],
            notes: vec![
                ("study".to_string(), first.study.to_string()),
                ("feature".to_string(), first.feature.to_string()),
                (self.source_header.to_lowercase(), first.source.to_string()),
                ("finding".to_string(), first.finding.clone()),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use atlarge_telemetry::NullTracer;
    use std::collections::BTreeSet;

    /// Holds on even seeds only, so claim rates vary with the stream.
    fn even(seed: u64) -> StudyRow {
        StudyRow {
            study: "[1] ('19)",
            feature: "Even seeds",
            source: "Probe",
            finding: format!("seed {seed}"),
            claim_holds: seed.is_multiple_of(2),
        }
    }

    fn odd(seed: u64) -> StudyRow {
        StudyRow {
            study: "[2] ('20)",
            feature: "Odd seeds",
            source: "Probe",
            finding: format!("seed {seed}"),
            claim_holds: !seed.is_multiple_of(2),
        }
    }

    const FIXTURE: StudyTable = StudyTable {
        name: "fixture.table",
        domain: "fixture",
        describe: "two seed-parity studies",
        study_help: "which parity study to run",
        source_header: "Crew",
        widths: [10, 12, 6],
        studies: &[("even", even), ("odd", odd)],
    };

    fn registry() -> Registry {
        let mut registry = Registry::new();
        registry.register(Box::new(FIXTURE));
        registry
    }

    fn query(study: &str) -> BTreeMap<String, String> {
        BTreeMap::from([("study".to_string(), study.to_string())])
    }

    #[test]
    fn each_study_and_replication_gets_its_own_seed() {
        let r = FIXTURE.campaign(11, 3);
        assert_eq!(r.name, "fixture.table");
        let seeds: BTreeSet<u64> = r
            .cells
            .iter()
            .flat_map(|c| c.runs.iter().map(|run| run.seed))
            .collect();
        assert_eq!(seeds.len(), 6, "each study must get its own stream");
        let rows = FIXTURE.rows(11);
        assert_eq!(
            rows,
            vec![even(r.cells[0].runs[0].seed), odd(r.cells[1].runs[0].seed)],
            "rows are the first replication, in declared order"
        );
    }

    #[test]
    fn renders_declared_headers_and_widths() {
        let row = |claim_holds| StudyRow {
            claim_holds,
            ..even(4)
        };
        assert_eq!(
            FIXTURE.render(&[row(true), row(false)]),
            "Study     Feature     Crew  OK     Finding\n\
             [1] ('19) Even seeds  Probe yes    seed 4\n\
             [1] ('19) Even seeds  Probe NO     seed 4\n"
        );
        let r = FIXTURE.campaign(11, 4);
        let held = |cell: usize| {
            r.cells[cell]
                .outcomes()
                .filter(|row| row.claim_holds)
                .count()
        };
        let rendered = FIXTURE.render_campaign(&r);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(
            lines[0],
            "Study     Feature     Crew  OK       Finding (first replication)"
        );
        assert_eq!(lines.len(), 3);
        for (cell, line) in lines[1..].iter().enumerate() {
            let first = r.cells[cell].first();
            let ok = format!("{}/4", held(cell));
            assert_eq!(
                *line,
                format!(
                    "{:<10}{:<12}Probe {ok:<8} {}",
                    first.study, first.feature, first.finding
                )
            );
        }
    }

    #[test]
    fn served_default_is_the_first_study_and_a_bad_choice_is_refused() {
        let registry = registry();
        let defaults = registry
            .validate("fixture", &BTreeMap::new())
            .expect("defaults fill");
        assert_eq!(defaults, query("even"));
        let err = registry
            .validate("fixture", &query("nonesuch"))
            .unwrap_err();
        assert_eq!(err, "parameter 'study': 'nonesuch' is not one of even|odd");
    }

    #[test]
    fn served_cell_equals_a_single_study_campaign() {
        // The served cell reproduces the exact outcome stream a declared
        // single-cell campaign yields for the same root seed.
        let run = |&study: &usize, seed| (FIXTURE.studies[study].1)(seed);
        let direct = Campaign::new("fixture.one", run)
            .replications(5)
            .root_seed(77)
            .run(|_| 1);
        let params = registry().validate("fixture", &query("odd")).unwrap();
        let run = || {
            FIXTURE
                .run_cell(&params, 77, 5, &CancelToken::new(), &NullTracer)
                .expect("runs clean")
        };
        let out = run();
        assert_eq!(out, run(), "repeat queries must agree");
        let first = direct.cells[0].first();
        assert_eq!(
            out.metrics,
            vec![(
                "claim_holds".to_string(),
                direct.cells[0].summarize(|r| f64::from(u8::from(r.claim_holds)))
            )]
        );
        let notes: Vec<(&str, &str)> = out
            .notes
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            notes,
            [
                ("study", first.study),
                ("feature", first.feature),
                ("crew", first.source),
                ("finding", first.finding.as_str()),
            ],
            "the third column's note key is its lowercased header"
        );
    }
}
