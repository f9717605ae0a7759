//! 2fast: collaborative downloads (\[68\]).
//!
//! The bandwidth-asymmetry finding (\[62\]) made a leecher's tit-for-tat
//! share proportional to its (small) ADSL upload, leaving its (large)
//! download capacity idle. 2fast lets a *collector* enlist *helpers* from
//! its social group: each helper downloads distinct pieces using its own
//! tit-for-tat standing and relays them to the collector, demanding no
//! immediate reciprocation. The collector's effective rate becomes the sum
//! of the group's earned shares, up to its download capacity.
//!
//! This module implements the group-rate model and the comparison
//! experiment the paper summarizes as "2fast ... can improve significantly
//! the performance of BT-based file-sharing".

use crate::swarm::Bandwidth;

/// A 2fast download group: one collector plus helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// The collector's access link.
    pub collector: Bandwidth,
    /// The helpers' access links.
    pub helpers: Vec<Bandwidth>,
}

impl Group {
    /// Creates a group of a collector and `n` identical helpers.
    pub(crate) fn uniform(link: Bandwidth, n: usize) -> Self {
        Group {
            collector: link,
            helpers: vec![link; n],
        }
    }
}

/// Swarm-side parameters of the rate model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwarmSide {
    /// Aggregate upload capacity peers dedicate to strangers, bytes/s.
    pub total_upload: f64,
    /// Sum of tit-for-tat weights of competing leechers, bytes/s.
    pub competing_weight: f64,
    /// Optimistic-unchoke floor weight, bytes/s.
    pub optimistic_floor: f64,
}

/// Tit-for-tat share a single peer with upload `up` earns from the swarm.
pub(crate) fn tit_for_tat_share(up: f64, swarm: &SwarmSide) -> f64 {
    let w = up + swarm.optimistic_floor;
    swarm.total_upload * w / (swarm.competing_weight + w)
}

/// Effective download rate of a standalone leecher.
pub(crate) fn standalone_rate(link: Bandwidth, swarm: &SwarmSide) -> f64 {
    tit_for_tat_share(link.up, swarm).min(link.down)
}

/// Effective download rate of a 2fast collector: the group's earned
/// shares (helpers relay at up to their upload capacity), capped by the
/// collector's download link.
pub(crate) fn group_rate(group: &Group, swarm: &SwarmSide) -> f64 {
    let own = tit_for_tat_share(group.collector.up, swarm);
    let helped: f64 = group
        .helpers
        .iter()
        .map(|h| tit_for_tat_share(h.up, swarm).min(h.up.max(h.down)))
        .sum();
    (own + helped).min(group.collector.down)
}

/// Speed-up of 2fast over a standalone download for the same collector.
pub fn speedup(group: &Group, swarm: &SwarmSide) -> f64 {
    group_rate(group, swarm) / standalone_rate(group.collector, swarm).max(1e-9)
}

/// The paper-shaped experiment: ADSL peers (download:upload = `ratio`),
/// group sizes 0..=`max_helpers`. Returns `(helpers, speedup)` rows.
pub fn speedup_curve(up: f64, ratio: f64, max_helpers: usize) -> Vec<(usize, f64)> {
    let link = Bandwidth::adsl(up, ratio);
    let swarm = SwarmSide {
        total_upload: up * 200.0, // a healthy swarm of ~200 peer-uploads
        competing_weight: up * 100.0,
        optimistic_floor: up * 0.1,
    };
    (0..=max_helpers)
        .map(|n| {
            let g = Group::uniform(link, n);
            (n, speedup(&g, &swarm))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn swarm() -> SwarmSide {
        SwarmSide {
            total_upload: 10e6,
            competing_weight: 5e6,
            optimistic_floor: 10e3,
        }
    }

    #[test]
    fn zero_helpers_is_standalone() {
        let link = Bandwidth::adsl(100e3, 8.0);
        let g = Group::uniform(link, 0);
        assert!((group_rate(&g, &swarm()) - standalone_rate(link, &swarm())).abs() < 1e-9);
        assert!((speedup(&g, &swarm()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn helpers_speed_up_asymmetric_collectors() {
        // The headline 2fast result: with ADSL asymmetry, helpers unlock
        // the idle download capacity.
        let link = Bandwidth::adsl(100e3, 8.0);
        let g = Group::uniform(link, 4);
        let s = speedup(&g, &swarm());
        assert!(s > 2.0, "speedup {s} should be substantial");
    }

    #[test]
    fn download_link_caps_the_group() {
        // With enough helpers the collector saturates its download link;
        // more helpers add nothing.
        let curve = speedup_curve(64e3, 8.0, 30);
        let last = curve.last().unwrap().1;
        let mid = curve[10].1;
        assert!((last - mid).abs() / mid < 0.5, "saturation expected");
        // Monotone non-decreasing.
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
    }

    #[test]
    fn symmetric_links_gain_less() {
        // With symmetric links the standalone is not upload-starved, so
        // 2fast's relative gain is smaller.
        let adsl = Bandwidth::adsl(100e3, 8.0);
        let sym = Bandwidth::symmetric(100e3);
        let s_adsl = speedup(&Group::uniform(adsl, 4), &swarm());
        let s_sym = speedup(&Group::uniform(sym, 4), &swarm());
        assert!(
            s_adsl > s_sym,
            "asymmetric gain {s_adsl} should exceed symmetric {s_sym}"
        );
    }

    #[test]
    fn curve_starts_at_one() {
        let curve = speedup_curve(64e3, 8.0, 5);
        assert_eq!(curve[0].0, 0);
        assert!((curve[0].1 - 1.0).abs() < 1e-9);
        assert_eq!(curve.len(), 6);
    }
}
