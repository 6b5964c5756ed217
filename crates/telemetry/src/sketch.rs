//! [`TopKSketch`]: a bounded, lock-free, space-saving-style per-key frequency sketch.
//!
//! The serving engine records every accessed key into this sketch so a repartition controller
//! can observe which keys are hot — the "access trace collection" half of the paper's
//! serve→observe→repartition loop — in **constant memory** at multiget rates.
//!
//! ## Design
//!
//! One fixed power-of-two table of 64-bit slots per recording thread (the
//! [`HISTOGRAM_SHARDS`] per-thread shards a [`Histogram`](crate::Histogram) uses, each table
//! on cache lines of its own and each at the full capacity), so concurrent writers never
//! touch the same slot. A slot packs `(key: u32) << 32 | count: u32` (the empty
//! sentinel is `u64::MAX`, which no real entry can equal because counts saturate at
//! `u32::MAX - 1`). Recording a key probes a small deterministic window of slots of the
//! calling thread's table, derived from a fixed hash of the key:
//!
//! 1. a slot already holding the key is bumped with one `fetch_add(1)`;
//! 2. otherwise an empty slot is claimed with one CAS;
//! 3. otherwise — the window is full of *other* keys — the window's minimum-count slot is
//!    decremented (the space-saving/`Frequent` eviction rule): a slot that reaches zero is
//!    replaced by the new key via CAS.
//!
//! Every step is a bounded number of atomic operations on pre-allocated slots: no locks, no
//! allocation, no unbounded retries (a failed CAS falls through rather than looping). Counts
//! are approximate in the usual space-saving sense once a table evicts; a table with a single
//! writer is fully deterministic for a given key sequence, and a sketch with one recording
//! thread reads exactly as a single table would.
//!
//! ## Deterministic extraction
//!
//! [`TopKSketch::top`] sums each key's counts across the per-thread tables, then sorts by
//! `(count descending, key ascending)` — ties broken by the smaller key id — so two identical
//! traces always extract the identical top-K list, which the conformance tests rely on.

use crate::{shard_index, Pad, HISTOGRAM_SHARDS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of slots probed per record (the set-associativity of the table).
const PROBE_WIDTH: usize = 4;

/// Slots per 64-byte cache line.
const LINE_SLOTS: usize = 8;

const EMPTY: u64 = u64::MAX;
const COUNT_MASK: u64 = 0xFFFF_FFFF;
/// Counts saturate one below the mask so an occupied slot can never equal [`EMPTY`].
const COUNT_SATURATE: u64 = COUNT_MASK - 1;

/// One recording thread's slot table, laid out in whole cache lines.
struct Table {
    lines: Box<[Pad<[AtomicU64; LINE_SLOTS]>]>,
}

impl Table {
    fn new(capacity: usize) -> Self {
        Table {
            lines: (0..capacity / LINE_SLOTS)
                .map(|_| Pad(std::array::from_fn(|_| AtomicU64::new(EMPTY))))
                .collect(),
        }
    }

    #[inline]
    fn slot(&self, index: usize) -> &AtomicU64 {
        &self.lines[index / LINE_SLOTS].0[index % LINE_SLOTS]
    }

    fn slots(&self) -> impl Iterator<Item = &AtomicU64> {
        self.lines.iter().flat_map(|line| line.0.iter())
    }
}

/// A bounded lock-free top-K frequency sketch over `u32` keys (see the module docs).
pub struct TopKSketch {
    tables: Box<[Table]>,
    mask: usize,
}

impl std::fmt::Debug for TopKSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKSketch")
            .field("capacity", &self.capacity())
            .field("tables", &self.tables.len())
            .field("occupied", &self.occupied())
            .finish()
    }
}

/// A fixed 64-bit mix (splitmix64 finalizer) — deterministic across runs and platforms.
#[inline]
fn mix(key: u32) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TopKSketch {
    /// Creates a sketch whose per-thread tables hold `capacity` slots each, rounded up to a
    /// power of two (minimum 16).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16).next_power_of_two();
        TopKSketch {
            tables: (0..HISTOGRAM_SHARDS)
                .map(|_| Table::new(capacity))
                .collect(),
            mask: capacity - 1,
        }
    }

    /// Number of slots in each per-thread table (fixed at construction).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Records one access of `key` in the calling thread's table. Lock-free with a bounded
    /// number of atomic operations.
    #[inline]
    pub fn record(&self, key: u32) {
        let table = &self.tables[shard_index(HISTOGRAM_SHARDS)];
        let base = mix(key) as usize;
        let packed_key = (key as u64) << 32;

        // Pass 1: bump the key if present, or claim the first empty slot.
        let mut min_slot = base & self.mask;
        let mut min_count = u64::MAX;
        for probe in 0..PROBE_WIDTH {
            let index = (base + probe) & self.mask;
            let slot = table.slot(index);
            let current = slot.load(Ordering::Relaxed);
            if current == EMPTY {
                if slot
                    .compare_exchange(EMPTY, packed_key | 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                // Lost the race; fall through and treat whatever landed there as occupied.
                let raced = slot.load(Ordering::Relaxed);
                if raced >> 32 == key as u64 {
                    slot.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                continue;
            }
            if current >> 32 == key as u64 {
                if current & COUNT_MASK < COUNT_SATURATE {
                    slot.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            let count = current & COUNT_MASK;
            if count < min_count {
                min_count = count;
                min_slot = index;
            }
        }

        // Pass 2 (space-saving eviction): every probed slot belongs to another key. Decrement
        // the window's minimum; a slot that reaches zero is recycled for the new key. A failed
        // CAS simply drops this observation — bounded work beats exactness here.
        let slot = table.slot(min_slot);
        let current = slot.load(Ordering::Relaxed);
        if current == EMPTY {
            let _ =
                slot.compare_exchange(EMPTY, packed_key | 1, Ordering::Relaxed, Ordering::Relaxed);
            return;
        }
        let count = current & COUNT_MASK;
        let next = if count <= 1 {
            packed_key | 1
        } else {
            current - 1
        };
        let _ = slot.compare_exchange(current, next, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Every occupied slot of every table (scrape-time only).
    fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.tables
            .iter()
            .flat_map(Table::slots)
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&packed| packed != EMPTY)
            .map(|packed| ((packed >> 32) as u32, packed & COUNT_MASK))
    }

    /// Number of occupied slots over all per-thread tables (scrape-time only).
    pub fn occupied(&self) -> usize {
        self.entries().count()
    }

    /// The `k` highest-count `(key, count)` entries, each key's counts summed across the
    /// per-thread tables, sorted by count descending with ties broken by ascending key —
    /// fully deterministic for a given table state.
    pub fn top(&self, k: usize) -> Vec<(u32, u64)> {
        let mut entries: Vec<(u32, u64)> = self.entries().filter(|&(_, c)| c > 0).collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(entries.len());
        for (key, count) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == key => last.1 += count,
                _ => merged.push((key, count)),
            }
        }
        merged.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        merged.truncate(k);
        merged
    }

    /// Empties every slot of every table.
    pub fn reset(&self) {
        for slot in self.tables.iter().flat_map(Table::slots) {
            slot.store(EMPTY, Ordering::Relaxed);
        }
    }

    /// Bytes of slot storage held over all per-thread tables (constant for the lifetime of
    /// the sketch).
    pub fn memory_bytes(&self) -> usize {
        self.tables.len() * self.capacity() * std::mem::size_of::<AtomicU64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_repeated_keys_exactly_when_uncontended() {
        let s = TopKSketch::new(256);
        for _ in 0..10 {
            s.record(7);
        }
        for _ in 0..5 {
            s.record(3);
        }
        s.record(9);
        assert_eq!(s.top(3), vec![(7, 10), (3, 5), (9, 1)]);
    }

    #[test]
    fn tie_breaking_is_by_ascending_key() {
        let s = TopKSketch::new(256);
        for key in [42, 7, 99] {
            for _ in 0..4 {
                s.record(key);
            }
        }
        assert_eq!(s.top(3), vec![(7, 4), (42, 4), (99, 4)]);
    }

    #[test]
    fn identical_traces_extract_identical_topk() {
        let trace: Vec<u32> = (0..5_000).map(|i| (i * i + 13) % 97).collect();
        let a = TopKSketch::new(128);
        let b = TopKSketch::new(128);
        for &key in &trace {
            a.record(key);
        }
        for &key in &trace {
            b.record(key);
        }
        assert_eq!(a.top(20), b.top(20));
    }

    #[test]
    fn heavy_hitters_survive_eviction_pressure() {
        // 8 hot keys at ~1000 hits each against 2000 cold keys at 1 hit, in a small table:
        // the space-saving rule must keep every hot key on top.
        let s = TopKSketch::new(64);
        for round in 0..1000 {
            for hot in 0..8u32 {
                s.record(1_000_000 + hot);
            }
            for cold in 0..2u32 {
                s.record(round * 2 + cold);
            }
        }
        let top: Vec<u32> = s.top(8).into_iter().map(|(k, _)| k).collect();
        for hot in 0..8u32 {
            assert!(
                top.contains(&(1_000_000 + hot)),
                "hot key {hot} missing: {top:?}"
            );
        }
    }

    #[test]
    fn memory_is_bounded_under_unbounded_distinct_keys() {
        let s = TopKSketch::new(128);
        let before = s.memory_bytes();
        for key in 0..500_000u32 {
            s.record(key);
        }
        assert_eq!(s.memory_bytes(), before);
        assert!(s.occupied() <= s.capacity());
    }

    #[test]
    fn concurrent_recording_is_safe_and_finds_the_hot_key() {
        let s = TopKSketch::new(256);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..20_000u32 {
                        // Every thread hammers key 5 plus a thread-local cold stream.
                        s.record(5);
                        s.record(1000 + (i * 4 + t) % 64);
                    }
                });
            }
        });
        let top = s.top(1);
        assert_eq!(top[0].0, 5, "hot key must dominate: {top:?}");
        assert!(top[0].1 > 20_000, "hot count underestimated: {top:?}");
    }

    #[test]
    fn per_thread_tables_merge_the_hot_key_exactly() {
        // Each thread records key 5 n times plus a few cold keys of its own; with one table
        // per thread no observation is lost to a race, so the merged count is exact.
        let n = 20_000u64;
        let s = TopKSketch::new(256);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..n {
                        s.record(5);
                        if i % 1_000 == 0 {
                            s.record(1000 + t * 8 + (i / 1_000 % 8) as u32);
                        }
                    }
                });
            }
        });
        assert_eq!(s.top(1), vec![(5, 4 * n)]);
    }

    #[test]
    fn reset_empties_the_table() {
        let s = TopKSketch::new(64);
        s.record(1);
        s.reset();
        assert_eq!(s.occupied(), 0);
        assert!(s.top(4).is_empty());
    }
}
