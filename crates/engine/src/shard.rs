//! A sharded, LRU-bounded concurrent map.
//!
//! [`ShardedLru`] is the storage layer of the
//! [`TransitionCache`](crate::TransitionCache): entries are spread over
//! `N` independently locked shards (selected by a caller-supplied 64-bit
//! hash, in practice the Hamiltonian fingerprint), so lookups for distinct
//! Hamiltonians never contend on one mutex. Each shard is bounded by an
//! optional entry cap with least-recently-used eviction, which turns the
//! unbounded "cache forever" behaviour of the original single-mutex cache
//! into a memory ceiling suitable for long-lived services.
//!
//! The map distinguishes a *bucket key* `B` (hashable, e.g. the 64-bit
//! fingerprint plus strategy key) from a *full key* `K` (equality-comparable,
//! e.g. the whole Hamiltonian). Entries sharing a bucket key — fingerprint
//! collisions — live side by side in one bucket and are told apart by full
//! `K` equality, so a collision degrades to an extra comparison, never a
//! wrong value. Eviction removes individual *entries* (the globally
//! least-recently-used one in the shard), not whole buckets, so the
//! surviving members of a collision bucket stay cached.
//!
//! Poisoned shard locks are recovered with
//! [`PoisonError::into_inner`]: values are immutable once inserted (the
//! cache stores `Arc`s) and every mutation below is a sequence of
//! already-valid states, so a panicking thread cannot leave a shard
//! half-updated in a way that matters.
//!
//! **Lock order.** All shard acquisition funnels through
//! `ShardedLru::lock_shard` (one shard) or
//! `ShardedLru::lock_all_ascending` (every shard, by ascending index —
//! the workspace convention for multi-shard operations, documented in
//! `docs/analysis.md`). Both register with the debug-build lock witness
//! (`marqsim_obs::lockcheck`), which panics on a descending same-family
//! acquisition, so any future code path that grabs two shards out of
//! order fails loudly under the stress tests instead of deadlocking in
//! production.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

use marqsim_obs::lockcheck;

/// Upper bound on the automatically selected shard count.
const MAX_AUTO_SHARDS: usize = 64;

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    last_used: u64,
}

#[derive(Debug)]
struct Shard<B, K, V> {
    buckets: HashMap<B, Vec<Entry<K, V>>>,
    /// Total entries across all buckets of this shard.
    len: usize,
    /// Monotonic recency clock; bumped on every get/insert.
    tick: u64,
    evictions: u64,
}

impl<B, K, V> Default for Shard<B, K, V> {
    fn default() -> Self {
        Shard {
            buckets: HashMap::new(),
            len: 0,
            tick: 0,
            evictions: 0,
        }
    }
}

/// A concurrent map sharded by a caller-supplied hash, with an optional
/// per-shard LRU entry cap. See the module docs for the design.
#[derive(Debug)]
pub struct ShardedLru<B, K, V> {
    shards: Box<[Mutex<Shard<B, K, V>>]>,
    cap_per_shard: usize,
}

/// Rounds a requested shard count to the actual one: at least 1, at most
/// `MAX_AUTO_SHARDS` (64), always a power of two (so shard selection is a mask).
/// `0` means "auto": the machine's available parallelism.
pub fn resolve_shard_count(requested: usize) -> usize {
    let base = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    base.clamp(1, MAX_AUTO_SHARDS).next_power_of_two()
}

impl<B, K, V> ShardedLru<B, K, V>
where
    B: Eq + Hash + Clone,
    K: PartialEq,
    V: Clone,
{
    /// Creates a map with `shards` shards (`0` = auto, see
    /// [`resolve_shard_count`]) and `cap_per_shard` entries per shard
    /// (`0` = unbounded).
    pub fn new(shards: usize, cap_per_shard: usize) -> Self {
        let count = resolve_shard_count(shards);
        ShardedLru {
            shards: (0..count).map(|_| Mutex::default()).collect(),
            cap_per_shard,
        }
    }

    fn shard(&self, hash: u64) -> ShardGuard<'_, B, K, V> {
        let index = (hash as usize) & (self.shards.len() - 1);
        self.lock_shard(index)
    }

    /// Locks the shard at `index` (all single-shard paths funnel here, so
    /// the lock witness sees every acquisition).
    fn lock_shard(&self, index: usize) -> ShardGuard<'_, B, K, V> {
        let witness = lockcheck::acquire_indexed("engine.cache.shard", index);
        let guard = self.shards[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        ShardGuard {
            guard,
            _witness: witness,
        }
    }

    /// Locks **every** shard in ascending index order and returns the
    /// guards (index order preserved). This is the only sanctioned way to
    /// hold more than one shard at a time: ascending acquisition cannot
    /// deadlock against another ascending acquirer, and the witness
    /// panics in debug builds if any path ever descends. Holding all
    /// shards gives multi-shard read-outs a consistent snapshot.
    fn lock_all_ascending(&self) -> Vec<ShardGuard<'_, B, K, V>> {
        (0..self.shards.len())
            .map(|index| self.lock_shard(index))
            .collect()
    }

    /// Looks up the entry with full key `key` in bucket `bucket`, bumping
    /// its recency. `hash` selects the shard and must be stable per bucket.
    pub fn get(&self, hash: u64, bucket: &B, key: &K) -> Option<V> {
        let mut shard = self.shard(hash);
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard
            .buckets
            .get_mut(bucket)?
            .iter_mut()
            .find(|entry| entry.key == *key)?;
        entry.last_used = tick;
        Some(entry.value.clone())
    }

    /// Inserts (or refreshes) an entry, evicting least-recently-used entries
    /// from the shard while it exceeds the cap. An existing entry with an
    /// equal full key has its value replaced in place (racing builders
    /// produce identical values, so "second insert wins" is harmless).
    pub fn insert(&self, hash: u64, bucket: B, key: K, value: V) {
        let mut guard = self.shard(hash);
        let shard = &mut *guard;
        shard.tick += 1;
        let tick = shard.tick;
        let entries = shard.buckets.entry(bucket).or_default();
        if let Some(entry) = entries.iter_mut().find(|entry| entry.key == key) {
            entry.value = value;
            entry.last_used = tick;
            return;
        }
        entries.push(Entry {
            key,
            value,
            last_used: tick,
        });
        shard.len += 1;
        if self.cap_per_shard > 0 {
            while shard.len > self.cap_per_shard {
                evict_lru(shard);
            }
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Entry cap per shard (`0` = unbounded).
    pub fn cap_per_shard(&self) -> usize {
        self.cap_per_shard
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shard_lens().iter().sum()
    }

    /// Returns `true` if no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry count of each shard, in shard order. Holds all shards
    /// (ascending) so the counts are a consistent snapshot — a concurrent
    /// insert cannot be double-counted or missed while the vector is
    /// assembled.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.lock_all_ascending()
            .iter()
            .map(|shard| shard.len)
            .collect()
    }

    /// Total LRU evictions across all shards since creation (or the last
    /// [`clear`](Self::clear)); a consistent all-shards snapshot like
    /// [`shard_lens`](Self::shard_lens).
    pub fn evictions(&self) -> u64 {
        self.lock_all_ascending()
            .iter()
            .map(|shard| shard.evictions)
            .sum()
    }

    /// Drops every entry and resets the eviction counters. Holding all
    /// shards makes the clear atomic: no reader can observe some shards
    /// cleared and others not.
    pub fn clear(&self) {
        for shard in self.lock_all_ascending().iter_mut() {
            **shard = Shard::default();
        }
    }
}

/// A locked shard: the mutex guard plus its lock-witness token, released
/// together. Dereferences to the shard.
struct ShardGuard<'a, B, K, V> {
    guard: MutexGuard<'a, Shard<B, K, V>>,
    _witness: lockcheck::Held,
}

impl<B, K, V> Deref for ShardGuard<'_, B, K, V> {
    type Target = Shard<B, K, V>;

    fn deref(&self) -> &Shard<B, K, V> {
        &self.guard
    }
}

impl<B, K, V> DerefMut for ShardGuard<'_, B, K, V> {
    fn deref_mut(&mut self) -> &mut Shard<B, K, V> {
        &mut self.guard
    }
}

/// Removes the least-recently-used entry of the shard. Scans every entry:
/// O(entries), which is fine because eviction only runs past the cap and
/// caps are small compared to lookup traffic.
fn evict_lru<B, K, V>(shard: &mut Shard<B, K, V>)
where
    B: Eq + Hash + Clone,
{
    let mut victim: Option<(B, usize, u64)> = None;
    for (bucket, entries) in &shard.buckets {
        for (index, entry) in entries.iter().enumerate() {
            if victim
                .as_ref()
                .is_none_or(|&(_, _, last_used)| entry.last_used < last_used)
            {
                victim = Some((bucket.clone(), index, entry.last_used));
            }
        }
    }
    let Some((bucket, index, _)) = victim else {
        return;
    };
    let entries = shard
        .buckets
        .get_mut(&bucket)
        .expect("victim bucket exists");
    entries.swap_remove(index);
    if entries.is_empty() {
        shard.buckets.remove(&bucket);
    }
    shard.len -= 1;
    shard.evictions += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shard, so the cap is exercised deterministically.
    fn single_shard(cap: usize) -> ShardedLru<u64, String, u64> {
        ShardedLru::new(1, cap)
    }

    #[test]
    fn shard_count_resolution() {
        assert_eq!(resolve_shard_count(1), 1);
        assert_eq!(resolve_shard_count(3), 4);
        assert_eq!(resolve_shard_count(64), 64);
        assert_eq!(resolve_shard_count(1000), 64, "capped");
        let auto = resolve_shard_count(0);
        assert!(auto.is_power_of_two() && (1..=64).contains(&auto));
    }

    #[test]
    fn get_returns_inserted_values_and_misses_cleanly() {
        let map = single_shard(0);
        map.insert(7, 7, "a".into(), 1);
        assert_eq!(map.get(7, &7, &"a".into()), Some(1));
        assert_eq!(map.get(7, &7, &"b".into()), None, "same bucket, other key");
        assert_eq!(map.get(9, &9, &"a".into()), None, "other bucket");
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn reinsert_replaces_in_place_without_growing() {
        let map = single_shard(0);
        map.insert(1, 1, "k".into(), 10);
        map.insert(1, 1, "k".into(), 20);
        assert_eq!(map.len(), 1, "no duplicate entries");
        assert_eq!(map.get(1, &1, &"k".into()), Some(20));
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let map = single_shard(2);
        map.insert(1, 1, "old".into(), 1);
        map.insert(2, 2, "young".into(), 2);
        // Touch "old" so "young" becomes the LRU entry.
        assert_eq!(map.get(1, &1, &"old".into()), Some(1));
        map.insert(3, 3, "new".into(), 3);
        assert_eq!(map.len(), 2);
        assert_eq!(map.evictions(), 1);
        assert_eq!(map.get(2, &2, &"young".into()), None, "LRU entry evicted");
        assert_eq!(map.get(1, &1, &"old".into()), Some(1));
        assert_eq!(map.get(3, &3, &"new".into()), Some(3));
    }

    #[test]
    fn collision_bucket_survives_eviction_of_one_member() {
        // Two entries share bucket key 42 (a fingerprint collision); a third
        // entry overflows the cap. Only the least-recently-used collision
        // member goes — the other survives inside the same bucket.
        let map = single_shard(2);
        map.insert(42, 42, "first".into(), 1);
        map.insert(42, 42, "second".into(), 2);
        map.insert(9, 9, "other".into(), 3);
        assert_eq!(map.len(), 2);
        assert_eq!(map.evictions(), 1);
        assert_eq!(map.get(42, &42, &"first".into()), None, "LRU member gone");
        assert_eq!(
            map.get(42, &42, &"second".into()),
            Some(2),
            "collision sibling survives its bucket-mate's eviction"
        );
        assert_eq!(map.get(9, &9, &"other".into()), Some(3));
    }

    #[test]
    fn shards_never_exceed_the_cap() {
        let map: ShardedLru<u64, u64, u64> = ShardedLru::new(4, 3);
        for i in 0..200u64 {
            map.insert(i, i, i, i);
            assert!(
                map.shard_lens().iter().all(|&len| len <= 3),
                "cap violated after insert {i}"
            );
        }
        assert_eq!(map.evictions(), 200 - map.len() as u64);
    }

    #[test]
    fn unbounded_multithread_hammer_loses_no_entries() {
        let map: ShardedLru<u64, u64, u64> = ShardedLru::new(8, 0);
        let threads = 8u64;
        let per_thread = 250u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = t * per_thread + i;
                        map.insert(key, key, key, key * 2);
                        // Interleave reads of this thread's own keys.
                        assert_eq!(map.get(key, &key, &key), Some(key * 2));
                    }
                });
            }
        });
        assert_eq!(map.len() as u64, threads * per_thread, "no lost entries");
        for key in 0..threads * per_thread {
            assert_eq!(map.get(key, &key, &key), Some(key * 2), "key {key}");
        }
        assert_eq!(map.evictions(), 0);
    }

    #[test]
    fn bounded_multithread_hammer_keeps_the_invariant() {
        let cap = 5usize;
        let map: ShardedLru<u64, u64, u64> = ShardedLru::new(4, cap);
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..300u64 {
                        let key = t * 1000 + i;
                        map.insert(key, key, key, key);
                    }
                });
            }
        });
        assert!(map.shard_lens().iter().all(|&len| len <= cap));
        assert!(map.evictions() > 0);
    }

    #[test]
    fn clear_empties_every_shard_and_resets_counters() {
        let map = single_shard(1);
        map.insert(1, 1, "a".into(), 1);
        map.insert(2, 2, "b".into(), 2);
        assert_eq!(map.evictions(), 1);
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.evictions(), 0);
        assert_eq!(map.get(2, &2, &"b".into()), None);
    }
}
