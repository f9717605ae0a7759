//@ path: crates/p2p/src/shard_boundary_ok_fixture.rs
// ui fixture (negative): StaticPartition and ShardedSimulation are the
// sanctioned way onto the sharded kernel — lookahead is *declared*
// through the partition, never computed against the sync internals.

use atlarge_des::shard::{ShardedSimulation, StaticPartition};

pub fn through_the_api(regions: usize, shards: usize, link_delay: f64) -> StaticPartition {
    StaticPartition::block(regions, shards, link_delay)
}
