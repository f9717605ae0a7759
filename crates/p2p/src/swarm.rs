//! The BitTorrent swarm simulator.
//!
//! A fluid-flow model on the DES kernel: every `recalc_interval` seconds
//! the swarm's aggregate upload capacity is divided among leechers by
//! tit-for-tat weight (a peer's share grows with its own upload
//! contribution, plus a small optimistic-unchoke floor), bounded by each
//! leecher's download capacity. Fluid models of BitTorrent are standard in
//! the measurement literature the paper builds on and capture the swarm-
//! level phenomena the studies report — flashcrowd starvation, asymmetric-
//! bandwidth limits, seed-ratio effects — without per-packet detail.

use atlarge_des::sim::{Ctx, Model, Simulation};
use atlarge_evolve::{Capsule, CapsuleError, Evolvable, Live, SwapPlan, SwapRecord};
use atlarge_stats::dist::{Exponential, Sample};
use atlarge_telemetry::manifest::config_digest;
use atlarge_telemetry::recorder::Recorder;
use atlarge_telemetry::tracer::EventLabel;
use std::collections::BTreeMap;

/// Access-link profile of a peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    /// Upload capacity, bytes/s.
    pub up: f64,
    /// Download capacity, bytes/s.
    pub down: f64,
}

impl Bandwidth {
    /// A symmetric link.
    pub(crate) fn symmetric(rate: f64) -> Self {
        Bandwidth {
            up: rate,
            down: rate,
        }
    }

    /// An ADSL-style asymmetric link: download `ratio` times the upload.
    /// The 2006 ecosystem-Internet study found exactly this "large
    /// imbalance between upload and download" (\[62\]).
    pub fn adsl(up: f64, ratio: f64) -> Self {
        Bandwidth {
            up,
            down: up * ratio,
        }
    }
}

/// Swarm configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwarmConfig {
    /// File size in bytes.
    pub file_size: f64,
    /// Peer access link.
    pub bandwidth: Bandwidth,
    /// Mean time a finished peer seeds before leaving (exponential).
    pub mean_seed_time: f64,
    /// Number of always-on origin seeds.
    pub origin_seeds: usize,
    /// Rate recomputation interval, seconds.
    pub recalc_interval: f64,
    /// Optimistic-unchoke floor weight (fraction of a full upload
    /// contribution granted to everyone).
    pub optimistic_floor: f64,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            file_size: 700e6, // the classic 700 MB rip
            bandwidth: Bandwidth::adsl(64e3, 8.0),
            mean_seed_time: 1_800.0,
            origin_seeds: 1,
            recalc_interval: 10.0,
            optimistic_floor: 0.1,
        }
    }
}

/// How the swarm's aggregate upload is divided among leechers at each
/// recalculation: the p2p piece-selection surface of live evolution.
///
/// Policies are [`Evolvable`], so [`run_swarm`] can retire one and
/// rebind its successor mid-swarm (e.g. switch to egalitarian
/// sharing when a flashcrowd peaks).
pub trait SharingPolicy: Evolvable + std::fmt::Debug + Send {
    /// Short display name (also the swap-plan key).
    fn name(&self) -> &'static str;

    /// Allocation weight of a leecher whose upload capacity is
    /// `peer_up`, under `config`.
    fn weight(&self, peer_up: f64, config: &SwarmConfig) -> f64;
}

/// BitTorrent's default: a peer's share grows with its own upload
/// contribution, plus the optimistic-unchoke floor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TitForTat;

impl SharingPolicy for TitForTat {
    fn name(&self) -> &'static str {
        "tit-for-tat"
    }

    fn weight(&self, peer_up: f64, config: &SwarmConfig) -> f64 {
        peer_up + config.optimistic_floor * config.bandwidth.up
    }
}

impl Evolvable for TitForTat {
    fn capsule_kind(&self) -> &'static str {
        "p2p.sharing.tit-for-tat"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), self.capsule_version())
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())
    }
}

/// Egalitarian sharing: every leecher weighs the same regardless of its
/// contribution (pure optimistic unchoke) — kind to asymmetric links,
/// vulnerable to free-riding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Egalitarian;

impl SharingPolicy for Egalitarian {
    fn name(&self) -> &'static str {
        "egalitarian"
    }

    fn weight(&self, _peer_up: f64, _config: &SwarmConfig) -> f64 {
        1.0
    }
}

impl Evolvable for Egalitarian {
    fn capsule_kind(&self) -> &'static str {
        "p2p.sharing.egalitarian"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), self.capsule_version())
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())
    }
}

/// Builds a sharing policy by its swap-plan name.
pub(crate) fn sharing_by_name(name: &str) -> Option<Box<dyn SharingPolicy>> {
    match name {
        "tit-for-tat" => Some(Box::new(TitForTat)),
        "egalitarian" => Some(Box::new(Egalitarian)),
        _ => None,
    }
}

/// The outcome of a swarm run.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmResult {
    /// Completed downloads as `(join_time, download_duration)`.
    pub downloads: Vec<(f64, f64)>,
    /// Swarm-size samples `(time, leechers, seeds)`.
    pub size_samples: Vec<(f64, usize, usize)>,
    /// Peers that joined in total.
    pub joined: usize,
}

impl SwarmResult {
    /// Mean download duration.
    pub fn mean_download_time(&self) -> f64 {
        self.downloads.iter().map(|&(_, d)| d).sum::<f64>() / self.downloads.len().max(1) as f64
    }

    /// Mean download duration of peers joining within a window.
    pub(crate) fn mean_download_time_in(&self, from: f64, to: f64) -> f64 {
        let v: Vec<f64> = self
            .downloads
            .iter()
            .filter(|&&(j, _)| j >= from && j < to)
            .map(|&(_, d)| d)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PeerState {
    Leeching,
    Seeding,
}

#[derive(Debug, Clone, Copy)]
struct Peer {
    bw: Bandwidth,
    state: PeerState,
    remaining: f64,
    join_time: f64,
}

#[derive(Debug)]
enum Ev {
    Join { peer: u64, bw: Bandwidth },
    Recalc,
    SeedLeave { peer: u64 },
    End,
}

impl EventLabel for Ev {
    fn label(&self) -> &'static str {
        match self {
            Ev::Join { .. } => "join",
            Ev::Recalc => "recalc",
            Ev::SeedLeave { .. } => "seed_leave",
            Ev::End => "end",
        }
    }
}

struct SwarmModel {
    config: SwarmConfig,
    peers: BTreeMap<u64, Peer>,
    last_recalc: f64,
    downloads: Vec<(f64, f64)>,
    size_samples: Vec<(f64, usize, usize)>,
    joined: usize,
    horizon: f64,
    sharing: Live<dyn SharingPolicy>,
    recorder: Option<Recorder>,
}

impl SwarmModel {
    fn leechers(&self) -> usize {
        self.peers
            .values()
            .filter(|p| p.state == PeerState::Leeching)
            .count()
    }

    fn seeds(&self) -> usize {
        self.peers
            .values()
            .filter(|p| p.state == PeerState::Seeding)
            .count()
    }

    /// Advances all leechers by the elapsed interval under tit-for-tat
    /// allocation, returning peers that completed.
    fn advance(&mut self, now: f64) -> Vec<u64> {
        let dt = now - self.last_recalc;
        self.last_recalc = now;
        if dt <= 0.0 {
            return Vec::new();
        }
        let total_upload: f64 = self.peers.values().map(|p| p.bw.up).sum::<f64>()
            + self.config.origin_seeds as f64 * self.config.bandwidth.up * 4.0;
        let leecher_ids: Vec<u64> = self
            .peers
            .iter()
            .filter(|(_, p)| p.state == PeerState::Leeching)
            .map(|(&id, _)| id)
            .collect();
        if leecher_ids.is_empty() {
            return Vec::new();
        }
        // Sharing-policy weights (tit-for-tat by default: own upload
        // contribution plus the optimistic-unchoke floor).
        let weights: Vec<f64> = leecher_ids
            .iter()
            .map(|id| {
                let p = &self.peers[id];
                self.sharing.current().weight(p.bw.up, &self.config)
            })
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let mut completed = Vec::new();
        for (id, w) in leecher_ids.iter().zip(&weights) {
            let p = self.peers.get_mut(id).expect("leecher exists");
            let share = total_upload * w / weight_sum;
            let rate = share.min(p.bw.down);
            p.remaining -= rate * dt;
            if p.remaining <= 0.0 {
                completed.push(*id);
            }
        }
        completed
    }
}

impl Model for SwarmModel {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
        match ev {
            Ev::Join { peer, bw } => {
                let done = self.advance(ctx.now());
                self.complete(done, ctx);
                self.peers.insert(
                    peer,
                    Peer {
                        bw,
                        state: PeerState::Leeching,
                        remaining: self.config.file_size,
                        join_time: ctx.now(),
                    },
                );
                self.joined += 1;
                if let Some(rec) = &self.recorder {
                    rec.incr("swarm.joins");
                }
            }
            Ev::Recalc => {
                let leechers = self.leechers() as f64;
                if let Some(label) = self.sharing.swap_due(ctx.now(), leechers) {
                    ctx.span_enter(&label);
                    self.sharing.apply_swap(ctx.now());
                    ctx.span_exit(&label);
                }
                let done = self.advance(ctx.now());
                self.complete(done, ctx);
                self.size_samples
                    .push((ctx.now(), self.leechers(), self.seeds()));
                if let Some(rec) = &self.recorder {
                    rec.gauge_set("swarm.leechers", ctx.now(), self.leechers() as f64);
                    rec.gauge_set("swarm.seeds", ctx.now(), self.seeds() as f64);
                }
                if ctx.now() < self.horizon {
                    ctx.schedule_in(self.config.recalc_interval, Ev::Recalc);
                }
            }
            Ev::SeedLeave { peer } => {
                self.peers.remove(&peer);
            }
            Ev::End => ctx.stop(),
        }
    }
}

impl SwarmModel {
    fn complete(&mut self, done: Vec<u64>, ctx: &mut Ctx<Ev>) {
        for id in done {
            let p = self.peers.get_mut(&id).expect("completed peer exists");
            p.state = PeerState::Seeding;
            p.remaining = 0.0;
            let dl_time = ctx.now() - p.join_time;
            self.downloads.push((p.join_time, dl_time));
            if let Some(rec) = &self.recorder {
                rec.incr("swarm.completions");
                rec.observe("swarm.download_s", dl_time);
            }
            let seed_for = Exponential::with_mean(self.config.mean_seed_time).sample(ctx.rng());
            ctx.schedule_in(seed_for, Ev::SeedLeave { peer: id });
        }
    }
}

/// Runs a swarm until `horizon`: peers join at the given times with
/// their own access links, and the swarm shares upload under the
/// `initial` sharing policy while `plan` executes against it (trigger
/// metric: leecher count at each recalculation — a flashcrowd peak).
/// [`TitForTat`] with [`SwapPlan::none`] is the classic BitTorrent
/// swarm. Returns the result and the swap log, or an error, before
/// anything runs, when a policy name is unknown.
///
/// With `rec`, kernel events are traced, and the swarm records
/// `swarm.joins` / `swarm.completions` counters, `swarm.leechers` /
/// `swarm.seeds` gauges, the `swarm.download_s` tally, and swaps as
/// `evolve.swap(from->to)` spans. The recorder never influences the run:
/// results equal an untraced run with the same seed.
pub fn run_swarm(
    config: SwarmConfig,
    joins: &[(f64, Bandwidth)],
    horizon: f64,
    seed: u64,
    initial: &str,
    plan: SwapPlan,
    rec: Option<&Recorder>,
) -> Result<(SwarmResult, Vec<SwapRecord>), String> {
    let sharing = Live::new("sharing policy", sharing_by_name, initial, plan)?;
    if let Some(rec) = rec {
        rec.set_run_info("p2p.swarm", seed, config_digest(&config));
    }
    let model = SwarmModel {
        config,
        peers: BTreeMap::new(),
        last_recalc: 0.0,
        downloads: Vec::new(),
        size_samples: Vec::new(),
        joined: 0,
        horizon,
        sharing,
        recorder: rec.cloned(),
    };
    // Every join is scheduled up front; pre-size the event queue so the
    // fill phase never reallocates.
    let mut sim = Simulation::with_capacity(model, seed, joins.len() + 2);
    if let Some(rec) = rec {
        sim = sim.with_tracer(rec.clone());
    }
    for (i, &(t, bw)) in joins.iter().enumerate() {
        sim.schedule(t, Ev::Join { peer: i as u64, bw });
    }
    sim.schedule(0.0, Ev::Recalc);
    sim.schedule(horizon, Ev::End);
    sim.run();
    let m = sim.into_model();
    Ok((
        SwarmResult {
            downloads: m.downloads,
            size_samples: m.size_samples,
            joined: m.joined,
        },
        m.sharing.swap_log().to_vec(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tit-for-tat swarm, no swaps, every peer on `config`'s link.
    fn classic(
        config: SwarmConfig,
        times: &[f64],
        horizon: f64,
        seed: u64,
        rec: Option<&Recorder>,
    ) -> SwarmResult {
        let joins: Vec<(f64, Bandwidth)> = times.iter().map(|&t| (t, config.bandwidth)).collect();
        let (result, log) = run_swarm(
            config,
            &joins,
            horizon,
            seed,
            TitForTat.name(),
            SwapPlan::none(),
            rec,
        )
        .unwrap();
        assert!(log.is_empty());
        result
    }

    /// A `small_config` swarm starting under `initial` with `plan`.
    fn evolving(
        joins: &[(f64, Bandwidth)],
        horizon: f64,
        initial: &str,
        plan: &str,
        rec: Option<&Recorder>,
    ) -> Result<(SwarmResult, Vec<SwapRecord>), String> {
        let plan = SwapPlan::parse(plan)?;
        run_swarm(small_config(), joins, horizon, 7, initial, plan, rec)
    }

    fn small_config() -> SwarmConfig {
        SwarmConfig {
            file_size: 10e6,
            bandwidth: Bandwidth::adsl(100e3, 8.0),
            mean_seed_time: 600.0,
            origin_seeds: 1,
            recalc_interval: 5.0,
            optimistic_floor: 0.1,
        }
    }

    #[test]
    fn lone_peer_downloads_from_origin() {
        let r = classic(small_config(), &[0.0], 50_000.0, 1, None);
        assert_eq!(r.downloads.len(), 1);
        let (_, d) = r.downloads[0];
        // Origin seed uploads 4× peer up = 400 KB/s; 10 MB -> ~25 s
        // (quantized by the 5 s recalc).
        assert!((20.0..=60.0).contains(&d), "download time {d}");
    }

    #[test]
    fn swarm_scales_with_peers() {
        // BitTorrent's promise: more peers bring more capacity, so mean
        // download time stays bounded as the swarm grows.
        let few: Vec<f64> = (0..5).map(|i| i as f64 * 10.0).collect();
        let many: Vec<f64> = (0..50).map(|i| i as f64 * 1.0).collect();
        let rf = classic(small_config(), &few, 100_000.0, 2, None);
        let rm = classic(small_config(), &many, 100_000.0, 2, None);
        assert_eq!(rf.downloads.len(), 5);
        assert_eq!(rm.downloads.len(), 50);
        assert!(
            rm.mean_download_time() < rf.mean_download_time() * 10.0,
            "swarm failed to scale: few {} many {}",
            rf.mean_download_time(),
            rm.mean_download_time()
        );
    }

    #[test]
    fn download_capacity_caps_speed() {
        // A symmetric fast swarm vs one with tiny download caps.
        let mut fast = small_config();
        fast.bandwidth = Bandwidth::symmetric(1e6);
        let mut capped = small_config();
        capped.bandwidth = Bandwidth {
            up: 1e6,
            down: 50e3,
        };
        let joins: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let rf = classic(fast, &joins, 200_000.0, 3, None);
        let rc = classic(capped, &joins, 200_000.0, 3, None);
        assert!(rf.mean_download_time() < rc.mean_download_time());
    }

    #[test]
    fn seeds_appear_then_leave() {
        let r = classic(small_config(), &[0.0, 1.0, 2.0], 100_000.0, 4, None);
        let max_seeds = r.size_samples.iter().map(|&(_, _, s)| s).max().unwrap();
        let final_seeds = r.size_samples.last().unwrap().2;
        assert!(max_seeds >= 1);
        assert_eq!(final_seeds, 0, "seeds should eventually leave");
    }

    #[test]
    fn deterministic() {
        let joins = [0.0, 5.0, 9.0];
        let a = classic(small_config(), &joins, 50_000.0, 7, None);
        let b = classic(small_config(), &joins, 50_000.0, 7, None);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_matches_untraced_and_records() {
        let joins = [0.0, 5.0, 9.0];
        let plain = classic(small_config(), &joins, 50_000.0, 7, None);
        let rec = Recorder::new();
        let traced = classic(small_config(), &joins, 50_000.0, 7, Some(&rec));
        assert_eq!(plain, traced, "tracing changed the run");
        assert_eq!(rec.counter("swarm.joins"), 3);
        assert_eq!(
            rec.counter("swarm.completions"),
            traced.downloads.len() as u64
        );
        assert_eq!(
            rec.tally("swarm.download_s").map_or(0, |t| t.len()),
            traced.downloads.len()
        );
        assert_eq!(rec.dispatches("join"), 3);
        let m = rec.manifest();
        assert_eq!(m.model, "p2p.swarm");
        assert_eq!(m.seed, 7);
        assert!(m.events_dispatched > 0);
    }

    fn mixed_joins(n: usize, gap: f64) -> Vec<(f64, Bandwidth)> {
        (0..n)
            .map(|i| {
                let bw = if i % 2 == 0 {
                    Bandwidth::adsl(100e3, 8.0)
                } else {
                    Bandwidth::symmetric(400e3)
                };
                (i as f64 * gap, bw)
            })
            .collect()
    }

    #[test]
    fn identity_swap_is_observationally_free() {
        let joins = mixed_joins(10, 5.0);
        let baseline = evolving(&joins, 50_000.0, "tit-for-tat", "none", None).unwrap();
        let swapped = evolving(&joins, 50_000.0, "tit-for-tat", "tit-for-tat@100", None).unwrap();
        assert_eq!(swapped.1.len(), 1, "swap must fire");
        assert!(swapped.1[0].resumed, "same-kind swap must resume");
        assert_eq!(baseline.0, swapped.0, "identity swap changed the swarm");
        assert!(baseline.1.is_empty());
    }

    #[test]
    fn flashcrowd_peak_triggers_sharing_swap_and_changes_downloads() {
        // A dense join wave builds the leecher population past the
        // threshold; the swarm then flips to egalitarian sharing, which
        // reallocates capacity toward slow uploaders.
        let joins = mixed_joins(24, 2.0);
        let (baseline, _) = evolving(&joins, 100_000.0, "tit-for-tat", "none", None).unwrap();
        let (swapped, log) =
            evolving(&joins, 100_000.0, "tit-for-tat", "egalitarian@peak10", None).unwrap();
        assert_eq!(log.len(), 1, "the flashcrowd must exceed 10 leechers");
        assert_eq!(log[0].from, "tit-for-tat");
        assert_eq!(log[0].to, "egalitarian");
        assert!(!log[0].resumed, "cross-kind swap starts fresh");
        assert_eq!(baseline.downloads.len(), swapped.downloads.len());
        assert_ne!(
            baseline.downloads, swapped.downloads,
            "egalitarian sharing must reallocate download times"
        );
    }

    #[test]
    fn traced_swap_appears_as_span_and_leaves_events_identical() {
        let joins = mixed_joins(10, 5.0);
        let base_rec = Recorder::new();
        evolving(&joins, 50_000.0, "tit-for-tat", "none", Some(&base_rec)).unwrap();
        let swap_rec = Recorder::new();
        evolving(
            &joins,
            50_000.0,
            "tit-for-tat",
            "tit-for-tat@100",
            Some(&swap_rec),
        )
        .unwrap();
        let strip = |rec: &Recorder| -> Vec<String> {
            rec.trace()
                .into_iter()
                .filter(|r| !r.label.starts_with("evolve.swap("))
                .map(|r| r.to_json())
                .collect()
        };
        assert_eq!(strip(&base_rec), strip(&swap_rec));
        assert_eq!(
            swap_rec
                .trace()
                .iter()
                .filter(|r| r.label == "evolve.swap(tit-for-tat->tit-for-tat)")
                .count(),
            2
        );
    }

    #[test]
    fn unknown_sharing_policies_are_rejected_up_front() {
        let joins = mixed_joins(2, 5.0);
        let rec = Recorder::new();
        assert!(evolving(&joins, 1_000.0, "nope", "none", Some(&rec)).is_err());
        assert!(evolving(&joins, 1_000.0, "tit-for-tat", "nope@10", Some(&rec)).is_err());
        assert_eq!(
            rec.events_dispatched(),
            0,
            "a rejected run simulates nothing"
        );
    }
}
