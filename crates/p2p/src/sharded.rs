//! Regional sub-swarms on the parallel-in-time kernel.
//!
//! The classic [`swarm`](crate::swarm) module is a *global* fluid model:
//! one allocator divides the whole swarm's upload capacity every recalc
//! tick, which is exact but inherently serial. This module decomposes
//! the ecosystem the way the measurement studies describe it — as
//! loosely-coupled *regional* sub-swarms (ISP- or continent-local peer
//! clusters) whose intra-region transfers are fast and whose
//! inter-region help arrives over tangibly slower transit links.
//!
//! Each region is a [`LogicalProcess`] owning its own peers and fluid
//! recalculation; regions exchange *capacity gossip* — periodic
//! announcements of the upload capacity they could not consume locally —
//! over links with a fixed propagation delay. That delay is exactly the
//! lookahead the conservative kernel needs: a region can never influence
//! another sooner than `link_delay`, so shards simulate whole recalc
//! windows independently and the merged run is byte-identical at any
//! shard count.

use crate::swarm::{Bandwidth, SwarmConfig};
use atlarge_des::shard::{
    LogicalProcess, PartitionError, ShardCtx, ShardedSimulation, StaticPartition,
};
use atlarge_stats::dist::{Exponential, Sample};
use atlarge_telemetry::tracer::EventLabel;
use std::collections::BTreeMap;

/// Configuration of a regionalised swarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionalConfig {
    /// Per-region fluid-swarm parameters (file size, access links,
    /// recalc interval, …).
    pub swarm: SwarmConfig,
    /// Number of regional sub-swarms.
    pub regions: usize,
    /// One-way propagation delay of inter-region transit links,
    /// seconds. Doubles as the kernel lookahead, so it must be
    /// strictly positive.
    pub link_delay: f64,
    /// Fraction of a remote region's spare upload capacity usable
    /// across a transit link (0 isolates the regions entirely).
    pub transit_fraction: f64,
}

impl Default for RegionalConfig {
    fn default() -> Self {
        RegionalConfig {
            swarm: SwarmConfig::default(),
            regions: 4,
            link_delay: 0.25,
            transit_fraction: 0.5,
        }
    }
}

/// Events of one regional sub-swarm.
#[derive(Debug, Clone)]
pub(crate) enum RegionEvent {
    /// A peer joins this region's sub-swarm.
    Join {
        /// Region-local peer id.
        peer: u64,
        /// The peer's access link.
        bw: Bandwidth,
    },
    /// The region's periodic fluid recalculation tick.
    Recalc,
    /// A finished seed leaves.
    SeedLeave {
        /// Region-local peer id.
        peer: u64,
    },
    /// Capacity gossip from a remote region: `spare` bytes/s of upload
    /// it could not consume locally last window.
    Capacity {
        /// Originating region.
        from: u32,
        /// Unconsumed upload capacity, bytes/s.
        spare: f64,
    },
}

impl EventLabel for RegionEvent {
    fn label(&self) -> &'static str {
        match self {
            RegionEvent::Join { .. } => "join",
            RegionEvent::Recalc => "recalc",
            RegionEvent::SeedLeave { .. } => "seed_leave",
            RegionEvent::Capacity { .. } => "capacity",
        }
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

/// Result of one region after a regionalised run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegionStats {
    /// Completed downloads as `(join_time, download_duration)`.
    pub downloads: Vec<(f64, f64)>,
    /// Swarm-size samples `(time, leechers, seeds)`.
    pub size_samples: Vec<(f64, usize, usize)>,
    /// Peers that joined this region in total.
    pub joined: usize,
}

/// Result of a whole regionalised run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionalResult {
    /// Per-region outcomes, indexed by region.
    pub per_region: Vec<RegionStats>,
}

impl RegionalResult {
    /// Mean download duration across all regions.
    pub fn mean_download_time(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in &self.per_region {
            for &(_, d) in &r.downloads {
                sum += d;
                n += 1;
            }
        }
        sum / n.max(1) as f64
    }

    /// Total completed downloads.
    pub fn completed(&self) -> usize {
        self.per_region.iter().map(|r| r.downloads.len()).sum()
    }
}

/// One regional sub-swarm: the fluid model of [`crate::swarm`] scoped to
/// the region's own peers, plus the transit capacity its neighbours
/// gossiped last window.
pub(crate) struct RegionSwarm {
    config: RegionalConfig,
    horizon: f64,
    peers: BTreeMap<u64, Peer>,
    /// Latest spare-capacity announcement per remote region.
    remote_spare: BTreeMap<u32, f64>,
    last_recalc: f64,
    stats: RegionStats,
}

impl RegionSwarm {
    fn new(config: RegionalConfig, horizon: f64) -> Self {
        RegionSwarm {
            config,
            horizon,
            peers: BTreeMap::new(),
            remote_spare: BTreeMap::new(),
            last_recalc: 0.0,
            stats: RegionStats::default(),
        }
    }

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

    /// This region's own aggregate upload capacity: every member peer
    /// plus the origin seeds pinned to the region.
    fn local_upload(&self) -> f64 {
        let cfg = &self.config.swarm;
        self.peers.values().map(|p| p.bw.up).sum::<f64>()
            + cfg.origin_seeds as f64 * cfg.bandwidth.up * 4.0
    }

    /// Transit capacity granted by remote regions' last announcements.
    fn transit_upload(&self) -> f64 {
        self.config.transit_fraction * self.remote_spare.values().sum::<f64>()
    }

    /// Advances all leechers by the elapsed interval under tit-for-tat
    /// allocation over local + transit capacity. Returns the ids of
    /// peers that completed and the capacity left unconsumed (the next
    /// gossip payload).
    fn advance(&mut self, now: f64) -> (Vec<u64>, f64) {
        let dt = now - self.last_recalc;
        self.last_recalc = now;
        let local = self.local_upload();
        if dt <= 0.0 {
            return (Vec::new(), local);
        }
        let total_upload = local + self.transit_upload();
        let cfg = self.config.swarm;
        let leecher_ids: Vec<u64> = self
            .peers
            .iter()
            .filter(|(_, p)| p.state == PeerState::Leeching)
            .map(|(&id, _)| id)
            .collect();
        if leecher_ids.is_empty() {
            // Nothing drank from the pool: the whole *local* capacity is
            // spare (transit grants are not re-exported — capacity never
            // multiplies by bouncing between idle regions).
            return (Vec::new(), local);
        }
        let weights: Vec<f64> = leecher_ids
            .iter()
            .map(|id| {
                let up = self.peers.get(id).map_or(0.0, |p| p.bw.up);
                up + cfg.optimistic_floor * cfg.bandwidth.up
            })
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let mut completed = Vec::new();
        let mut consumed = 0.0;
        for (id, w) in leecher_ids.iter().zip(&weights) {
            let Some(p) = self.peers.get_mut(id) else {
                continue;
            };
            let share = total_upload * w / weight_sum;
            let rate = share.min(p.bw.down);
            consumed += rate;
            p.remaining -= rate * dt;
            if p.remaining <= 0.0 {
                completed.push(*id);
            }
        }
        (completed, (local - consumed).max(0.0))
    }

    fn complete(&mut self, done: Vec<u64>, ctx: &mut ShardCtx<'_, RegionEvent>) {
        let mean_seed = self.config.swarm.mean_seed_time;
        for id in done {
            let Some(p) = self.peers.get_mut(&id) else {
                continue;
            };
            p.state = PeerState::Seeding;
            p.remaining = 0.0;
            self.stats
                .downloads
                .push((p.join_time, ctx.now() - p.join_time));
            let seed_for = Exponential::with_mean(mean_seed).sample(ctx.rng());
            ctx.schedule_in(seed_for, RegionEvent::SeedLeave { peer: id });
        }
    }
}

impl LogicalProcess for RegionSwarm {
    type Event = RegionEvent;

    fn handle(&mut self, ev: RegionEvent, ctx: &mut ShardCtx<'_, RegionEvent>) {
        match ev {
            RegionEvent::Join { peer, bw } => {
                let (done, _) = self.advance(ctx.now());
                self.complete(done, ctx);
                self.peers.insert(
                    peer,
                    Peer {
                        bw,
                        state: PeerState::Leeching,
                        remaining: self.config.swarm.file_size,
                        join_time: ctx.now(),
                    },
                );
                self.stats.joined += 1;
            }
            RegionEvent::Recalc => {
                let (done, spare) = self.advance(ctx.now());
                self.complete(done, ctx);
                self.stats
                    .size_samples
                    .push((ctx.now(), self.leechers(), self.seeds()));
                // Gossip this window's spare capacity to every other
                // region; the link delay is exactly the lookahead, so
                // the conservative kernel windows on it.
                if self.config.transit_fraction > 0.0 {
                    let me = ctx.entity();
                    for region in 0..self.config.regions as u32 {
                        if region != me {
                            ctx.send_in(
                                self.config.link_delay,
                                region,
                                RegionEvent::Capacity { from: me, spare },
                            );
                        }
                    }
                }
                if ctx.now() < self.horizon {
                    ctx.schedule_in(self.config.swarm.recalc_interval, RegionEvent::Recalc);
                }
            }
            RegionEvent::SeedLeave { peer } => {
                self.peers.remove(&peer);
            }
            RegionEvent::Capacity { from, spare } => {
                self.remote_spare.insert(from, spare);
            }
        }
    }
}

/// Runs a regionalised swarm on the sharded kernel.
///
/// `joins` lists `(time, region, bandwidth)` arrivals; regions are
/// distributed over `shards` shards block-wise and the run is windowed
/// on the transit `link_delay`. The result is byte-identical for every
/// `shards`/`threads` combination — partitioning is an execution detail,
/// never a modelling one.
pub fn run_regional_swarm(
    config: RegionalConfig,
    joins: &[(f64, u32, Bandwidth)],
    horizon: f64,
    seed: u64,
    shards: usize,
    threads: usize,
) -> Result<RegionalResult, PartitionError> {
    let part = StaticPartition::block(config.regions, shards, config.link_delay);
    let lps: Vec<RegionSwarm> = (0..config.regions)
        .map(|_| RegionSwarm::new(config, horizon))
        .collect();
    let mut sim: ShardedSimulation<_, _> =
        ShardedSimulation::new(part, lps, seed)?.with_threads(threads);
    for (peer, &(t, region, bw)) in joins.iter().enumerate() {
        sim.schedule(
            t,
            region,
            RegionEvent::Join {
                peer: peer as u64,
                bw,
            },
        );
    }
    for region in 0..config.regions as u32 {
        sim.schedule(0.0, region, RegionEvent::Recalc);
    }
    sim.run_until(horizon);
    Ok(RegionalResult {
        per_region: sim.into_lps().into_iter().map(|r| r.stats).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(regions: usize) -> RegionalConfig {
        RegionalConfig {
            swarm: SwarmConfig {
                file_size: 10e6,
                bandwidth: Bandwidth::adsl(100e3, 8.0),
                mean_seed_time: 600.0,
                origin_seeds: 1,
                recalc_interval: 5.0,
                optimistic_floor: 0.1,
            },
            regions,
            link_delay: 2.5,
            transit_fraction: 0.5,
        }
    }

    fn spread_joins(n: usize, regions: u32, gap: f64) -> Vec<(f64, u32, Bandwidth)> {
        (0..n)
            .map(|i| {
                (
                    i as f64 * gap,
                    i as u32 % regions,
                    Bandwidth::adsl(100e3, 8.0),
                )
            })
            .collect()
    }

    #[test]
    fn results_are_identical_at_every_shard_and_thread_count() {
        let config = small_config(4);
        let joins = spread_joins(12, 4, 7.0);
        let reference = run_regional_swarm(config, &joins, 50_000.0, 11, 1, 1).expect("valid run");
        assert!(reference.completed() > 0, "no downloads completed");
        for shards in [2usize, 4] {
            for threads in [1usize, 2] {
                let got = run_regional_swarm(config, &joins, 50_000.0, 11, shards, threads)
                    .expect("valid run");
                assert_eq!(
                    got, reference,
                    "regional swarm diverged at {shards} shards / {threads} threads"
                );
            }
        }
    }

    #[test]
    fn transit_capacity_speeds_up_a_flashcrowded_region() {
        // Region 0 takes a flashcrowd; regions 1..3 sit idle with their
        // origin seeds. With transit gossip the idle regions' spare
        // capacity flows in; isolated, region 0 fends for itself.
        let mut open = small_config(4);
        open.transit_fraction = 1.0;
        let mut closed = open;
        closed.transit_fraction = 0.0;
        let joins: Vec<(f64, u32, Bandwidth)> = (0..8)
            .map(|i| (i as f64, 0u32, Bandwidth::adsl(100e3, 8.0)))
            .collect();
        let helped = run_regional_swarm(open, &joins, 100_000.0, 3, 4, 2).expect("valid run");
        let alone = run_regional_swarm(closed, &joins, 100_000.0, 3, 4, 2).expect("valid run");
        assert_eq!(helped.completed(), 8);
        assert_eq!(alone.completed(), 8);
        assert!(
            helped.mean_download_time() < alone.mean_download_time(),
            "transit failed to help: open {} closed {}",
            helped.mean_download_time(),
            alone.mean_download_time()
        );
    }

    #[test]
    fn zero_link_delay_is_rejected() {
        let mut config = small_config(2);
        config.link_delay = 0.0;
        let err = run_regional_swarm(config, &[], 100.0, 1, 2, 1).err();
        assert!(
            matches!(err, Some(PartitionError::BadLookahead { .. })),
            "expected BadLookahead, got {err:?}"
        );
    }
}
