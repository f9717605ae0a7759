//! Integration: the headline claim of every paper table holds when the
//! experiments run end to end — the workspace-level reproduction
//! contract.

#[test]
fn table5_all_p2p_claims_hold() {
    for row in atlarge::p2p::experiments::TABLE5.rows(99) {
        assert!(row.claim_holds, "{} failed: {}", row.study, row.finding);
    }
}

#[test]
fn table6_all_mmog_claims_hold() {
    for row in atlarge::mmog::experiments::TABLE6.rows(99) {
        assert!(row.claim_holds, "{} failed: {}", row.study, row.finding);
    }
}

#[test]
fn table7_all_serverless_claims_hold() {
    for row in atlarge::serverless::experiments::TABLE7.rows(99) {
        assert!(row.claim_holds, "{} failed: {}", row.study, row.finding);
    }
}

#[test]
fn table8_pad_law_holds_at_scale() {
    let cells = atlarge::graph::experiments::pad_sweep(1_000, 99);
    let d = atlarge::graph::experiments::pad_decomposition(&cells);
    assert!(
        d.interaction_share() > 0.05,
        "interaction share {}",
        d.interaction_share()
    );
}

#[test]
fn table9_portfolio_is_useful() {
    use atlarge::scheduling::experiments::{table9, Scale};
    let rows = table9(Scale::Quick, 99);
    assert_eq!(rows.len(), 7);
    for row in &rows {
        assert!(
            row.portfolio_gap() < 3.0,
            "{}: gap {}",
            row.study,
            row.portfolio_gap()
        );
    }
    // At least one row reads "useful" outright.
    assert!(rows.iter().any(|r| r.finding() == "useful"));
}

#[test]
fn figures_1_to_3_recover_calibrated_findings() {
    use atlarge::biblio::corpus::Corpus;
    use atlarge::biblio::reviews::{extract_findings, ReviewModel};
    use atlarge::biblio::trends::design_counts_by_block;

    let corpus = Corpus::generate(99);
    let table = design_counts_by_block(&corpus);
    assert!(table.is_increasing());
    assert!(table.post_2000_increase() > 2.0);

    let f = extract_findings(&ReviewModel::default().simulate(99));
    assert!(f.design_merit_mean_higher);
    assert!(f.design_below_3_fraction > 0.2);
}

#[test]
fn catalogs_are_consistent_and_complete() {
    assert!(atlarge::core::catalog::integrity_violations().is_empty());
    assert_eq!(atlarge::core::catalog::principles().len(), 8);
    assert_eq!(atlarge::core::catalog::challenges().len(), 10);
}
