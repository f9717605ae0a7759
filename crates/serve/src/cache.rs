//! The fingerprint-keyed result cache: sharded, bounded, LRU.
//!
//! Keys are [`atlarge_obsv::fingerprint::canonical_key`] strings of the
//! *query manifest* — computed before a run from the canonical
//! parameter map, so two textually different queries that canonicalize
//! to the same cell share an entry, and a hit returns the exact bytes
//! the cold run produced (the server's byte-identity contract).
//!
//! Sharding bounds lock contention under concurrent clients: a key is
//! FNV-hashed to one of a fixed set of shards, each independently
//! locked (hashed *placement* is fine — nothing iterates a shard into a
//! result). A shard is an exact LRU of its own keys: a `BTreeMap` from
//! key to slot, and the slots linked in recency order. A hit relinks
//! its slot at the front in O(1); an evicting insert takes the back
//! slot and reuses it in O(log n), whatever the shard's size.

use atlarge_telemetry::manifest::fnv1a;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The end of a recency list.
const NIL: usize = usize::MAX;

/// One cached body, linked into its shard's recency list.
struct Slot {
    key: Arc<str>,
    body: Arc<Vec<u8>>,
    /// The next more recently used slot, or [`NIL`].
    newer: usize,
    /// The next less recently used slot, or [`NIL`].
    older: usize,
}

struct Shard {
    index: BTreeMap<Arc<str>, usize>,
    slots: Vec<Slot>,
    /// The most recently used slot, or [`NIL`] when empty.
    newest: usize,
    /// The least recently used slot, or [`NIL`] when empty.
    oldest: usize,
}

impl Shard {
    /// Takes slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (newer, older) = (self.slots[i].newer, self.slots[i].older);
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
    }

    /// Links slot `i`, which is in no list, in as the most recent.
    fn push_newest(&mut self, i: usize) {
        self.slots[i].newer = NIL;
        self.slots[i].older = self.newest;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// Marks slot `i` the most recently used.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
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
                        index: BTreeMap::new(),
                        slots: Vec::new(),
                        newest: NIL,
                        oldest: NIL,
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
        let i = *shard.index.get(key)?;
        shard.touch(i);
        Some(Arc::clone(&shard.slots[i].body))
    }

    /// Inserts (or refreshes) `key`, evicting the shard's
    /// least-recently-used entry if the shard is full.
    pub fn insert(&self, key: &str, body: Arc<Vec<u8>>) {
        let mut shard = self.shard_of(key).lock().expect("cache shard lock");
        if let Some(&i) = shard.index.get(key) {
            shard.slots[i].body = body;
            shard.touch(i);
            return;
        }
        let key: Arc<str> = Arc::from(key);
        let i = if shard.slots.len() < self.per_shard_capacity {
            shard.slots.push(Slot {
                key: Arc::clone(&key),
                body,
                newer: NIL,
                older: NIL,
            });
            shard.slots.len() - 1
        } else {
            // Full: the least recently used slot takes the new entry.
            let i = shard.oldest;
            shard.unlink(i);
            let evicted = std::mem::replace(&mut shard.slots[i].key, Arc::clone(&key));
            shard.index.remove(&evicted);
            shard.slots[i].body = body;
            i
        };
        shard.push_newest(i);
        shard.index.insert(key, i);
    }

    /// Entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").index.len())
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

    /// The keys of a one-shard cache from least to most recently used.
    fn recency(cache: &ResultCache) -> Vec<String> {
        let shard = cache.shards[0].lock().unwrap();
        let mut order = Vec::new();
        let mut i = shard.oldest;
        while i != NIL {
            order.push(shard.slots[i].key.to_string());
            i = shard.slots[i].newer;
        }
        order
    }

    #[test]
    fn interleaved_gets_and_reinserts_evict_in_recency_order() {
        let cache = ResultCache::new(4, 1);
        for k in ["a", "b", "c", "d"] {
            cache.insert(k, body(k));
        }
        assert_eq!(recency(&cache), ["a", "b", "c", "d"]);
        assert!(cache.get("b").is_some());
        cache.insert("a", body("a2")); // a re-insert refreshes too
        assert!(cache.get("c").is_some());
        assert!(cache.get("zz").is_none(), "a miss refreshes nothing");
        assert_eq!(recency(&cache), ["d", "b", "a", "c"]);
        cache.insert("e", body("e"));
        assert!(cache.get("d").is_none(), "d was coldest");
        cache.insert("f", body("f"));
        assert!(cache.get("b").is_none(), "then b");
        assert!(cache.get("a").is_some());
        cache.insert("g", body("g"));
        assert!(cache.get("c").is_none(), "then c, since a was just read");
        assert_eq!(recency(&cache), ["e", "f", "a", "g"]);
        assert_eq!(cache.get("a").expect("kept").as_slice(), b"a2");
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn matches_a_reference_lru_over_a_long_mixed_sequence() {
        // The reference keeps keys from least to most recently used.
        let cache = ResultCache::new(6, 1);
        let mut reference: Vec<String> = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for step in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = format!("k{}", state % 10);
            let pos = reference.iter().position(|k| *k == key);
            if state & (1 << 40) == 0 {
                let found = cache.get(&key).is_some();
                assert_eq!(found, pos.is_some(), "get {key} at step {step}");
                if let Some(pos) = pos {
                    let k = reference.remove(pos);
                    reference.push(k);
                }
            } else {
                cache.insert(&key, body(&key));
                if let Some(pos) = pos {
                    reference.remove(pos);
                } else if reference.len() == 6 {
                    reference.remove(0);
                }
                reference.push(key);
            }
            assert_eq!(recency(&cache), reference, "step {step}");
        }
    }
}
