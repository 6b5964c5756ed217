//! A hot-key result cache with hit/miss accounting.
//!
//! Social multiget workloads are heavily skewed: a small set of hot keys (popular users)
//! appears in a large fraction of queries. Caching their records in the serving tier cuts both
//! shard load and effective fanout — a query whose remaining misses all land on one shard
//! contacts one shard instead of several. The cache is segmented (16 lock stripes, each on
//! cache lines of its own) and counts hits and misses in per-thread [`Counter`] shards, so a
//! lookup writes only the line of the segment it locks: concurrent clients contend only when
//! they lock the same segment. Eviction is per-segment FIFO: simple, O(1), and good enough
//! for a skewed key distribution where hot keys are re-inserted immediately after any
//! eviction.
//!
//! Cached values are placement-independent (a repartition moves records between shards but
//! never changes them), so entries survive live partition swaps untouched.

use crate::store::RecordMap;
use shp_hypergraph::DataId;
use shp_telemetry::Counter;
use std::collections::VecDeque;
use std::sync::Mutex;

const NUM_SEGMENTS: usize = 16;

/// One FIFO segment. Aligned to a cache line, so each segment's lock and map sit on lines
/// of their own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Segment {
    map: RecordMap,
    order: VecDeque<DataId>,
}

/// Segmented FIFO cache of `key -> record` with hit/miss counters.
#[derive(Debug)]
pub struct HotKeyCache {
    segments: Vec<Mutex<Segment>>,
    capacity_per_segment: usize,
    hits: Counter,
    misses: Counter,
}

/// Hit/miss counters of a [`HotKeyCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the shards.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl HotKeyCache {
    /// Creates a cache holding at most `capacity` records (rounded up to a multiple of the
    /// segment count; a capacity of 0 creates a cache that never stores anything).
    pub fn new(capacity: usize) -> Self {
        HotKeyCache {
            segments: (0..NUM_SEGMENTS)
                .map(|_| Mutex::new(Segment::default()))
                .collect(),
            capacity_per_segment: capacity.div_ceil(NUM_SEGMENTS),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    #[inline]
    fn segment(&self, key: DataId) -> &Mutex<Segment> {
        // Multiplicative hash so contiguous key ranges spread over segments.
        let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.segments[h as usize % NUM_SEGMENTS]
    }

    /// Looks up one key, counting the outcome.
    pub fn get(&self, key: DataId) -> Option<u64> {
        let segment = self.segment(key).lock().expect("cache segment poisoned");
        match segment.map.get(&key).copied() {
            Some(value) => {
                self.hits.inc();
                Some(value)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts a record, evicting the oldest entry of the key's segment when full.
    pub fn insert(&self, key: DataId, value: u64) {
        if self.capacity_per_segment == 0 {
            return;
        }
        let mut segment = self.segment(key).lock().expect("cache segment poisoned");
        if segment.map.insert(key, value).is_none() {
            segment.order.push_back(key);
            if segment.order.len() > self.capacity_per_segment {
                if let Some(evicted) = segment.order.pop_front() {
                    segment.map.remove(&evicted);
                }
            }
        }
    }

    /// Number of records currently cached.
    pub fn len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.lock().expect("cache segment poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = HotKeyCache::new(64);
        assert_eq!(cache.get(1), None);
        cache.insert(1, 10);
        assert_eq!(cache.get(1), Some(10));
        assert_eq!(cache.get(2), None);
        let stats = cache.stats();
        assert_eq!(stats, CacheStats { hits: 1, misses: 2 });
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let cache = HotKeyCache::new(0);
        cache.insert(1, 10);
        assert_eq!(cache.get(1), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_bounds_the_size() {
        let cache = HotKeyCache::new(NUM_SEGMENTS); // one record per segment
        for key in 0..1000u32 {
            cache.insert(key, key as u64);
        }
        assert!(cache.len() <= NUM_SEGMENTS);
    }

    #[test]
    fn reinserting_an_existing_key_updates_without_growth() {
        let cache = HotKeyCache::new(64);
        cache.insert(5, 1);
        cache.insert(5, 2);
        assert_eq!(cache.get(5), Some(2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn empty_stats_have_zero_hit_rate() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
