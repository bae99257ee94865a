//! The prepared-pipeline cache — the server's key performance piece.
//!
//! Preparation (DUMAS schema matching, the renamed outer-union transform,
//! and duplicate detection's `objectID` annotation) dominates the cost of a
//! fusion query and depends only on the *source tables*, not on the query's
//! select list, predicates, or resolution functions. So the cache keys on
//! the ordered source-table set together with each table's content version:
//! any repeat query over the same sources skips straight to fusion + query
//! execution, and any re-upload changes a version and misses naturally.
//!
//! Eviction is LRU over a fixed capacity. Entries are `Arc`-shared so a hit
//! hands out the artifacts without copying tables under the lock.

use hummer_core::PreparedSources;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: the query-ordered `(alias lowercase, content version)` list.
/// Order matters — the first source donates the preferred schema.
pub type PreparedKey = Vec<(String, u64)>;

/// Hit/miss counters (monotone; snapshot via [`PreparedCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only a stale version).
    pub misses: u64,
    /// Entries evicted to respect capacity.
    pub evictions: u64,
    /// Current entry count.
    pub entries: usize,
}

#[derive(Debug)]
struct Entry {
    artifacts: Arc<PreparedSources>,
    last_used: u64,
}

/// An LRU map from source-set keys to prepared artifacts.
#[derive(Debug)]
pub struct PreparedCache {
    entries: HashMap<PreparedKey, Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PreparedCache {
    /// A cache holding at most `capacity` prepared source sets (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PreparedCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up prepared artifacts, refreshing recency on a hit.
    pub fn get(&mut self, key: &PreparedKey) -> Option<Arc<PreparedSources>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits += 1;
                Some(Arc::clone(&entry.artifacts))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert artifacts under `key`, evicting the least-recently-used entry
    /// beyond capacity and any older versions of the same source names.
    ///
    /// Content versions only grow, so a cached entry over the same names
    /// with any newer version means `key` is already stale: a late insert
    /// (a slow prepare finishing after a delta upgraded the entry) is
    /// skipped instead of evicting the newer entry.
    pub fn insert(&mut self, key: PreparedKey, artifacts: Arc<PreparedSources>) {
        let same_names = |k: &PreparedKey| {
            k.len() == key.len() && k.iter().zip(&key).all(|((a, _), (b, _))| a == b)
        };
        let newer = |k: &PreparedKey| k.iter().zip(&key).any(|((_, v), (_, mine))| v > mine);
        if self.entries.keys().any(|k| same_names(k) && newer(k)) {
            return;
        }
        // Every other entry over the same names is older: dead weight, so
        // drop it eagerly rather than waiting for LRU.
        let stale: Vec<PreparedKey> = self
            .entries
            .keys()
            .filter(|k| *k != &key && same_names(k))
            .cloned()
            .collect();
        for k in stale {
            self.entries.remove(&k);
            self.evictions += 1;
        }

        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                artifacts,
                last_used: self.tick,
            },
        );
        while self.entries.len() > self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
    }

    /// The live entries whose key references source `name` at `version` —
    /// the entries a delta to that table can *upgrade* in place instead of
    /// invalidating. Recency is not refreshed (this is bookkeeping, not a
    /// query hit).
    pub fn entries_for_source(
        &self,
        name: &str,
        version: u64,
    ) -> Vec<(PreparedKey, Arc<PreparedSources>)> {
        self.entries
            .iter()
            .filter(|(k, _)| k.iter().any(|(n, v)| n == name && *v == version))
            .map(|(k, e)| (k.clone(), Arc::clone(&e.artifacts)))
            .collect()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
        }
    }

    /// Drop all entries (counters survive).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_core::{prepare_tables, HummerConfig};
    use hummer_engine::table;

    fn artifacts() -> Arc<PreparedSources> {
        let t =
            table! { "A" => ["Name", "City"]; ["John Smith", "Berlin"], ["Mary Jones", "Hamburg"] };
        Arc::new(prepare_tables(&[&t], &HummerConfig::default()).unwrap())
    }

    fn key(parts: &[(&str, u64)]) -> PreparedKey {
        parts.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn miss_then_hit() {
        let mut c = PreparedCache::new(4);
        let k = key(&[("a", 1), ("b", 1)]);
        assert!(c.get(&k).is_none());
        c.insert(k.clone(), artifacts());
        assert!(c.get(&k).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn version_bump_misses_and_supersedes() {
        let mut c = PreparedCache::new(4);
        c.insert(key(&[("a", 1)]), artifacts());
        assert!(c.get(&key(&[("a", 2)])).is_none());
        // Inserting the new version drops the stale entry for the same name
        // set instead of letting both linger.
        c.insert(key(&[("a", 2)]), artifacts());
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 1);
        assert!(c.get(&key(&[("a", 1)])).is_none());
        assert!(c.get(&key(&[("a", 2)])).is_some());
    }

    #[test]
    fn order_is_significant() {
        // (a, b) and (b, a) prepare different preferred schemas.
        let mut c = PreparedCache::new(4);
        c.insert(key(&[("a", 1), ("b", 1)]), artifacts());
        assert!(c.get(&key(&[("b", 1), ("a", 1)])).is_none());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = PreparedCache::new(2);
        c.insert(key(&[("a", 1)]), artifacts());
        c.insert(key(&[("b", 1)]), artifacts());
        assert!(c.get(&key(&[("a", 1)])).is_some()); // refresh a
        c.insert(key(&[("c", 1)]), artifacts()); // evicts b
        assert!(c.get(&key(&[("a", 1)])).is_some());
        assert!(c.get(&key(&[("b", 1)])).is_none());
        assert!(c.get(&key(&[("c", 1)])).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn entries_for_source_matches_name_and_version() {
        let mut c = PreparedCache::new(4);
        c.insert(key(&[("a", 1), ("b", 2)]), artifacts());
        c.insert(key(&[("b", 2)]), artifacts());
        c.insert(key(&[("a", 3)]), artifacts());
        let hits = c.entries_for_source("b", 2);
        assert_eq!(hits.len(), 2);
        assert!(c.entries_for_source("b", 9).is_empty());
        assert_eq!(c.entries_for_source("a", 3).len(), 1);
        // No recency refresh, no counter movement.
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn late_insert_of_an_older_version_keeps_the_newer_entry() {
        let mut c = PreparedCache::new(4);
        c.insert(key(&[("a", 1), ("b", 2)]), artifacts());
        // A slow prepare keyed before the delta finishes last.
        c.insert(key(&[("a", 1), ("b", 1)]), artifacts());
        let s = c.stats();
        assert_eq!((s.entries, s.evictions), (1, 0));
        assert_eq!(c.entries_for_source("b", 2).len(), 1);
        assert!(c.entries_for_source("b", 1).is_empty());
        assert!(c.get(&key(&[("a", 1), ("b", 2)])).is_some());
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c = PreparedCache::new(2);
        c.insert(key(&[("a", 1)]), artifacts());
        assert!(c.get(&key(&[("a", 1)])).is_some());
        c.clear();
        assert!(c.get(&key(&[("a", 1)])).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.entries, 0);
    }
}
