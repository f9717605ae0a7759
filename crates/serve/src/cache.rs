//! The fingerprint-keyed result cache: sharded, bounded, LRU.
//!
//! Keys are [`atlarge_obsv::fingerprint::canonical_key`] strings of the
//! *query manifest* — computed before a run from the canonical
//! parameter map, so two textually different queries that canonicalize
//! to the same cell share an entry, and a hit returns the exact bytes
//! the cold run produced (the server's byte-identity contract).
//!
//! Sharding bounds lock contention under concurrent clients: a key is
//! FNV-hashed to one of a fixed set of shards, each an independently
//! locked `BTreeMap` (hashed *placement* is fine — nothing iterates a
//! shard into a result). Recency is a monotone stamp per shard;
//! eviction removes the smallest stamp, so each shard is an exact LRU
//! of its own keys.

use atlarge_telemetry::manifest::fnv1a;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

struct Entry {
    body: Arc<Vec<u8>>,
    stamp: u64,
}

struct Shard {
    map: BTreeMap<String, Entry>,
    clock: u64,
}

impl Shard {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A sharded in-memory LRU of response bodies.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ResultCache {
    /// A cache of at most `capacity` entries spread over `shards`
    /// locks. Each shard holds `ceil(capacity / shards)` entries, so
    /// total occupancy never exceeds `capacity` rounded up per shard.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity cache cannot hold results");
        assert!(shards > 0, "need at least one shard");
        ResultCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: BTreeMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            per_shard_capacity: capacity.div_ceil(shards),
        }
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        let idx = fnv1a(key.as_bytes()) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let mut shard = self.shard_of(key).lock().expect("cache shard lock");
        let stamp = shard.touch();
        let entry = shard.map.get_mut(key)?;
        entry.stamp = stamp;
        Some(Arc::clone(&entry.body))
    }

    /// Inserts (or refreshes) `key`, evicting the shard's
    /// least-recently-used entry if the shard is full.
    pub fn insert(&self, key: &str, body: Arc<Vec<u8>>) {
        let mut shard = self.shard_of(key).lock().expect("cache shard lock");
        let stamp = shard.touch();
        shard.map.insert(key.to_string(), Entry { body, stamp });
        if shard.map.len() > self.per_shard_capacity {
            let coldest = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty shard has a minimum");
            shard.map.remove(&coldest);
        }
    }

    /// Entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Total entry budget (per-shard budget times shard count).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<Vec<u8>> {
        Arc::new(s.as_bytes().to_vec())
    }

    #[test]
    fn round_trips_a_body() {
        let cache = ResultCache::new(8, 2);
        assert!(cache.get("k1").is_none());
        cache.insert("k1", body("v1"));
        assert_eq!(cache.get("k1").expect("cached").as_slice(), b"v1");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // One shard makes recency order fully observable.
        let cache = ResultCache::new(2, 1);
        cache.insert("a", body("a"));
        cache.insert("b", body("b"));
        assert!(cache.get("a").is_some(), "refresh a");
        cache.insert("c", body("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none(), "b was coldest and evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn reinserting_a_key_replaces_without_growth() {
        let cache = ResultCache::new(4, 1);
        cache.insert("k", body("old"));
        cache.insert("k", body("new"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("k").expect("cached").as_slice(), b"new");
    }

    #[test]
    fn shards_bound_occupancy_independently() {
        let cache = ResultCache::new(8, 4); // 2 per shard
        for i in 0..64 {
            cache.insert(&format!("key-{i}"), body("x"));
        }
        assert!(cache.len() <= 8, "len {} exceeds capacity", cache.len());
        assert!(!cache.is_empty());
    }
}
