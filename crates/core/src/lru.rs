//! The one bounded LRU behind both memo layers: the compiled-program cache
//! ([`ProgramCache`](crate::ProgramCache)) and the serve pool's result
//! cache.
//!
//! Keys are 64-bit content fingerprints ([`fnv1a`](crate::fnv1a) of a
//! canonical key string). Recency is a monotone tick bumped by every lookup
//! and insert; a full cache evicts the entry touched longest ago. The map
//! itself takes no lock: each user wraps it in the `Mutex` its sharing
//! needs and keeps its own storage policy at the call site.

use std::collections::HashMap;

use ipim_trace::MetricsRegistry;

/// A bounded least-recently-used map from `u64` keys to cloneable values,
/// with hit/miss/eviction counters.
#[derive(Debug)]
pub struct Lru<V> {
    capacity: usize,
    tick: u64,
    /// Value and the tick it was last touched at.
    entries: HashMap<u64, (V, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Clone> Lru<V> {
    /// Creates a map holding at most `capacity` entries. A capacity of 0
    /// stores nothing: every lookup misses.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, tick: 0, entries: HashMap::new(), hits: 0, misses: 0, evictions: 0 }
    }

    /// Looks `key` up, counting a hit or a miss; a hit refreshes the
    /// entry's recency and returns a clone of its value.
    pub fn get(&mut self, key: u64) -> Option<V> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some((value, touched)) => {
                *touched = self.tick;
                self.hits += 1;
                Some(value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `value` under `key`, evicting the least-recently-used entry
    /// when full. A key already present keeps its first value: racing
    /// producers of one key compute the same value, so the loser's copy is
    /// dropped.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 || self.entries.contains_key(&key) {
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(&lru) = self.entries.iter().min_by_key(|(_, e)| e.1).map(|(k, _)| k) {
                self.entries.remove(&lru);
                self.evictions += 1;
            }
        }
        self.tick += 1;
        self.entries.insert(key, (value, self.tick));
    }

    /// Entries held right now.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot of `(hits, misses, evictions)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Registers the counters as `{prefix}/hits`, `{prefix}/misses` and
    /// `{prefix}/evictions`, and the entry count as the gauge
    /// `{prefix}/entries`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter_add(&format!("{prefix}/hits"), self.hits);
        reg.counter_add(&format!("{prefix}/misses"), self.misses);
        reg.counter_add(&format!("{prefix}/evictions"), self.evictions);
        reg.gauge_set(&format!("{prefix}/entries"), self.entries.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_stored_value_and_counts() {
        let mut c = Lru::new(4);
        c.insert(7, "seven".to_string());
        assert_eq!(c.get(7).as_deref(), Some("seven"));
        assert_eq!(c.stats(), (1, 0, 0));
        assert_eq!(c.get(8), None);
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut c = Lru::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 becomes the victim.
        assert_eq!(c.get(1), Some(10));
        c.insert(3, 30);
        assert_eq!(c.stats().2, 1);
        assert_eq!(c.get(1), Some(10), "recently used survives");
        assert_eq!(c.get(2), None, "least recently used is evicted");
        assert_eq!(c.get(3), Some(30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn the_first_insert_of_a_key_wins() {
        let mut c = Lru::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.get(1), Some(10));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = Lru::new(0);
        c.insert(1, 10);
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
        assert_eq!(c.stats(), (0, 1, 0));
    }

    #[test]
    fn metrics_export_under_the_prefix() {
        let mut c = Lru::new(1);
        c.get(9);
        c.insert(9, ());
        c.get(9);
        c.insert(10, ());
        let mut reg = MetricsRegistry::default();
        c.export_metrics(&mut reg, "serve/cache");
        assert_eq!(reg.counter("serve/cache/hits"), 1);
        assert_eq!(reg.counter("serve/cache/misses"), 1);
        assert_eq!(reg.counter("serve/cache/evictions"), 1);
        assert!(reg.get("serve/cache/entries").is_some());
    }
}
