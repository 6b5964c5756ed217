//! The swappable partition map: immutable placement snapshots behind an epoch-tagged,
//! atomically replaceable cell.
//!
//! Serving must never pause for a repartition. The engine therefore keeps every piece of
//! placement-dependent state — the assignment vector *and* the shard contents built from it —
//! inside one immutable [`PartitionSnapshot`]-tagged generation, published through an
//! [`EpochSwap`]. Readers `load()` an `Arc` to the current generation and keep using it for
//! the whole multiget, so a concurrent [`EpochSwap::swap`] can never tear a query between the
//! old and new placement: in-flight queries finish on the generation they started on, new
//! queries observe the new one. This is the classic double-buffer / RCU pattern (arc-swap
//! style) built from `std` primitives only.
//!
//! ## Copy-on-write deltas
//!
//! An online repartition controller moves a *bounded* number of keys per epoch (the migration
//! budget), so rebuilding the full assignment vector for every swap would copy millions of
//! untouched entries to change a few hundred. The snapshot therefore stores its assignment in
//! fixed `PAGE_SIZE`-key (4096) pages behind `Arc`s: [`PartitionSnapshot::apply_delta`] clones only
//! the page *table* (one `Arc` bump per page) and copy-on-writes the pages a
//! [`PartitionDelta`] actually touches. A delta moving `m` keys costs `O(pages + m·PAGE_SIZE)`
//! instead of `O(num_keys)`, and the untouched pages are shared bit-for-bit with the previous
//! generation.

use crate::error::{Result, ServingError};
use shp_hypergraph::{DataId, Partition};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Keys per copy-on-write page: 2^12 = 4096. Small enough that a delta touching a handful of
/// keys copies a few KiB per touched page; large enough that the page table stays tiny (one
/// `Arc` per 16 KiB of assignment).
const PAGE_SHIFT: u32 = 12;
/// Page size in keys (`1 << PAGE_SHIFT`).
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// An immutable placement of every key onto a shard, tagged with the epoch that installed it.
///
/// The assignment is stored as fixed-size pages behind `Arc`s so that
/// [`PartitionSnapshot::apply_delta`] can produce the next generation while sharing every
/// untouched page with this one. Equality compares logical content (epoch, shard count, and
/// the full assignment), not sharing structure — a delta-derived snapshot and a freshly built
/// one with the same placement compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSnapshot {
    epoch: u64,
    num_shards: u32,
    num_keys: usize,
    pages: Vec<Arc<Vec<u32>>>,
}

impl PartitionSnapshot {
    /// Captures a partition as the placement of epoch `epoch`.
    ///
    /// # Errors
    /// Returns [`ServingError::EmptyPartition`] when the partition has no buckets.
    pub fn from_partition(partition: &Partition, epoch: u64) -> Result<Self> {
        if partition.num_buckets() == 0 {
            return Err(ServingError::EmptyPartition);
        }
        let assignment = partition.assignment();
        Ok(PartitionSnapshot {
            epoch,
            num_shards: partition.num_buckets(),
            num_keys: assignment.len(),
            pages: assignment
                .chunks(PAGE_SIZE)
                .map(|page| Arc::new(page.to_vec()))
                .collect(),
        })
    }

    /// Epoch at which this snapshot was installed (0 for the initial placement).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards the placement spreads keys over.
    #[inline]
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// Number of keys covered by the placement.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.num_keys
    }

    /// Shard holding `key`.
    ///
    /// # Errors
    /// Returns [`ServingError::KeyOutOfRange`] when the key is outside the placement.
    #[inline]
    pub fn shard_of(&self, key: DataId) -> Result<u32> {
        if (key as usize) >= self.num_keys {
            return Err(ServingError::KeyOutOfRange {
                key,
                num_keys: self.num_keys,
            });
        }
        let page = &self.pages[(key >> PAGE_SHIFT) as usize];
        Ok(page[key as usize & (PAGE_SIZE - 1)])
    }

    /// The full assignment vector (`key -> shard`), flattened out of the page table.
    pub fn assignment(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.num_keys);
        for page in &self.pages {
            out.extend_from_slice(page);
        }
        out
    }

    /// Ids of the keys placed on each shard, in one pass.
    pub fn keys_by_shard(&self) -> Vec<Vec<DataId>> {
        let mut by_shard = vec![Vec::new(); self.num_shards as usize];
        let mut key = 0u32;
        for page in &self.pages {
            for &shard in page.iter() {
                by_shard[shard as usize].push(key);
                key += 1;
            }
        }
        by_shard
    }

    /// Produces the next generation's snapshot by applying `delta` on top of this one,
    /// copy-on-writing only the pages that contain a moved key. Every untouched page is shared
    /// (`Arc`) with this snapshot.
    ///
    /// # Errors
    /// - [`ServingError::StaleDelta`] when the delta was computed against a different epoch
    ///   than this snapshot's — applying it would silently undo moves from the generations in
    ///   between.
    /// - [`ServingError::KeyOutOfRange`] / [`ServingError::ShardOutOfRange`] when a move names
    ///   a key or shard outside this placement.
    pub fn apply_delta(&self, delta: &PartitionDelta, new_epoch: u64) -> Result<Self> {
        if delta.base_epoch() != self.epoch {
            return Err(ServingError::StaleDelta {
                delta_epoch: delta.base_epoch(),
                live_epoch: self.epoch,
            });
        }
        let mut pages = self.pages.clone();
        for &(key, shard) in delta.moves() {
            if (key as usize) >= self.num_keys {
                return Err(ServingError::KeyOutOfRange {
                    key,
                    num_keys: self.num_keys,
                });
            }
            if shard >= self.num_shards {
                return Err(ServingError::ShardOutOfRange {
                    shard,
                    num_shards: self.num_shards,
                });
            }
            let page = Arc::make_mut(&mut pages[(key >> PAGE_SHIFT) as usize]);
            page[key as usize & (PAGE_SIZE - 1)] = shard;
        }
        Ok(PartitionSnapshot {
            epoch: new_epoch,
            num_shards: self.num_shards,
            num_keys: self.num_keys,
            pages,
        })
    }
}

/// The moved keys between two placement generations: everything an [`EpochSwap`] needs to
/// produce the next [`PartitionSnapshot`] without touching the unmoved majority.
///
/// Moves are stored sorted by key ascending with at most one entry per key, so two deltas
/// describing the same repartition compare equal regardless of how they were assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionDelta {
    base_epoch: u64,
    moves: Vec<(DataId, u32)>,
}

impl PartitionDelta {
    /// Builds a delta of `moves` (`(key, destination shard)`) against the snapshot of epoch
    /// `base_epoch`. Moves are normalized: sorted by key, later duplicates win.
    pub fn new(base_epoch: u64, mut moves: Vec<(DataId, u32)>) -> Self {
        // Stable sort keeps duplicate keys in submission order; dedup-from-the-back keeps the
        // last submitted destination for each key.
        moves.sort_by_key(|&(key, _)| key);
        moves.reverse();
        moves.dedup_by_key(|&mut (key, _)| key);
        moves.reverse();
        PartitionDelta { base_epoch, moves }
    }

    /// Computes the delta that turns `base` into `target`: one move per key whose shard
    /// differs. The result applied to `base` reproduces `target`'s placement exactly.
    ///
    /// # Errors
    /// Returns [`ServingError::PartitionMismatch`] when `target` does not cover the same key
    /// universe as `base`.
    pub fn between(base: &PartitionSnapshot, target: &Partition) -> Result<Self> {
        if target.num_data() != base.num_keys() {
            return Err(ServingError::PartitionMismatch {
                got: target.num_data(),
                expected: base.num_keys(),
            });
        }
        let mut moves = Vec::new();
        let mut key = 0u32;
        for page in &base.pages {
            for &shard in page.iter() {
                let target_shard = target.bucket_of(key);
                if target_shard != shard {
                    moves.push((key, target_shard));
                }
                key += 1;
            }
        }
        Ok(PartitionDelta {
            base_epoch: base.epoch(),
            moves,
        })
    }

    /// Epoch of the snapshot this delta was computed against.
    #[inline]
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The moves, sorted by key ascending: `(key, destination shard)`.
    #[inline]
    pub fn moves(&self) -> &[(DataId, u32)] {
        &self.moves
    }

    /// Number of keys the delta moves.
    #[inline]
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the delta moves no keys (the epoch still advances when applied).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// An epoch-counting, atomically swappable holder of an immutable generation `T`.
///
/// `load` is wait-free with respect to writers in all practical terms: it briefly takes a read
/// lock only to clone the `Arc`, never while the generation is being *built* (builders prepare
/// the new `T` entirely off to the side).
#[derive(Debug)]
pub struct EpochSwap<T> {
    current: RwLock<Arc<T>>,
    swaps: AtomicU64,
}

impl<T> EpochSwap<T> {
    /// Creates the cell holding the initial generation (epoch 0).
    pub fn new(initial: T) -> Self {
        EpochSwap {
            current: RwLock::new(Arc::new(initial)),
            swaps: AtomicU64::new(0),
        }
    }

    /// Returns the current generation. The caller keeps the `Arc` for as long as it needs a
    /// consistent view; concurrent swaps do not invalidate it.
    #[inline]
    pub fn load(&self) -> Arc<T> {
        self.current
            .read()
            .expect("partition map lock poisoned")
            .clone()
    }

    /// Publishes `next` as the new generation and returns the previous one. The swap itself is
    /// a pointer replacement; readers holding the old generation finish undisturbed.
    pub fn swap(&self, next: T) -> Arc<T> {
        let mut slot = self.current.write().expect("partition map lock poisoned");
        let old = std::mem::replace(&mut *slot, Arc::new(next));
        self.swaps.fetch_add(1, Ordering::Relaxed);
        old
    }

    /// Number of swaps performed since construction.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

/// The plain partition map used where only the placement (not shard contents) must swap,
/// e.g. router-only benchmarks.
pub type PartitionMap = EpochSwap<PartitionSnapshot>;

#[cfg(test)]
mod tests {
    use super::*;
    use shp_hypergraph::GraphBuilder;

    fn partition(k: u32, assignment: Vec<u32>) -> Partition {
        let mut b = GraphBuilder::new();
        b.add_query(0..assignment.len() as u32);
        let g = b.build().unwrap();
        Partition::from_assignment(&g, k, assignment).unwrap()
    }

    #[test]
    fn snapshot_captures_partition() {
        let p = partition(3, vec![0, 1, 2, 0]);
        let s = PartitionSnapshot::from_partition(&p, 7).unwrap();
        assert_eq!(s.epoch(), 7);
        assert_eq!(s.num_shards(), 3);
        assert_eq!(s.num_keys(), 4);
        assert_eq!(s.shard_of(2).unwrap(), 2);
        assert_eq!(
            s.shard_of(9),
            Err(ServingError::KeyOutOfRange {
                key: 9,
                num_keys: 4
            })
        );
        assert_eq!(s.keys_by_shard(), vec![vec![0, 3], vec![1], vec![2]]);
        assert_eq!(s.assignment(), vec![0, 1, 2, 0]);
    }

    #[test]
    fn snapshot_spanning_multiple_pages_is_consistent() {
        let n = PAGE_SIZE as u32 * 2 + 17;
        let assignment: Vec<u32> = (0..n).map(|v| v % 5).collect();
        let p = partition(5, assignment.clone());
        let s = PartitionSnapshot::from_partition(&p, 0).unwrap();
        assert_eq!(s.num_keys(), n as usize);
        assert_eq!(s.assignment(), assignment);
        for key in [0, PAGE_SIZE as u32 - 1, PAGE_SIZE as u32, n - 1] {
            assert_eq!(s.shard_of(key).unwrap(), key % 5);
        }
        let by_shard = s.keys_by_shard();
        assert_eq!(by_shard.iter().map(Vec::len).sum::<usize>(), n as usize);
    }

    #[test]
    fn replica_groups_chain_and_clamp() {
        let s = PartitionSnapshot::from_partition(&partition(4, vec![0, 1, 2, 3]), 0).unwrap();
        let group = |key, replication| {
            let primary = s.shard_of(key).unwrap();
            crate::store::ShardSet::replica_chain(primary, s.num_shards(), replication)
                .collect::<Vec<u32>>()
        };
        assert_eq!(group(1, 1), vec![1]);
        assert_eq!(group(1, 2), vec![1, 2]);
        assert_eq!(group(3, 3), vec![3, 0, 1]);
        // Replication above the shard count clamps: each shard appears at most once.
        assert_eq!(group(2, 9), vec![2, 3, 0, 1]);
        // Replication 0 clamps up to 1 (the primary alone).
        assert_eq!(group(0, 0), vec![0]);
    }

    #[test]
    fn apply_delta_moves_only_the_named_keys_and_shares_pages() {
        let n = PAGE_SIZE as u32 * 3;
        let base_assignment: Vec<u32> = vec![0; n as usize];
        let p = partition(2, base_assignment);
        let base = PartitionSnapshot::from_partition(&p, 4).unwrap();
        // Move two keys, both inside the middle page.
        let delta = PartitionDelta::new(4, vec![(PAGE_SIZE as u32 + 1, 1), (PAGE_SIZE as u32, 1)]);
        let next = base.apply_delta(&delta, 5).unwrap();
        assert_eq!(next.epoch(), 5);
        assert_eq!(next.shard_of(PAGE_SIZE as u32).unwrap(), 1);
        assert_eq!(next.shard_of(PAGE_SIZE as u32 + 1).unwrap(), 1);
        assert_eq!(next.shard_of(0).unwrap(), 0);
        assert_eq!(next.shard_of(n - 1).unwrap(), 0);
        // Untouched pages are shared with the base snapshot; the touched one is not.
        assert!(Arc::ptr_eq(&base.pages[0], &next.pages[0]));
        assert!(!Arc::ptr_eq(&base.pages[1], &next.pages[1]));
        assert!(Arc::ptr_eq(&base.pages[2], &next.pages[2]));
        // The base snapshot is untouched.
        assert_eq!(base.shard_of(PAGE_SIZE as u32).unwrap(), 0);
    }

    #[test]
    fn apply_delta_matches_a_full_rebuild() {
        let assignment: Vec<u32> = (0..100u32).map(|v| v % 4).collect();
        let base = PartitionSnapshot::from_partition(&partition(4, assignment.clone()), 0).unwrap();
        let mut target_assignment = assignment;
        for key in [3u32, 40, 41, 99] {
            target_assignment[key as usize] = (target_assignment[key as usize] + 1) % 4;
        }
        let target = partition(4, target_assignment);
        let delta = PartitionDelta::between(&base, &target).unwrap();
        assert_eq!(delta.len(), 4);
        let via_delta = base.apply_delta(&delta, 1).unwrap();
        let via_full = PartitionSnapshot::from_partition(&target, 1).unwrap();
        assert_eq!(via_delta, via_full);
    }

    #[test]
    fn stale_and_out_of_range_deltas_are_rejected() {
        let base = PartitionSnapshot::from_partition(&partition(2, vec![0, 1, 0, 1]), 3).unwrap();
        assert_eq!(
            base.apply_delta(&PartitionDelta::new(2, vec![(0, 1)]), 4),
            Err(ServingError::StaleDelta {
                delta_epoch: 2,
                live_epoch: 3
            })
        );
        assert_eq!(
            base.apply_delta(&PartitionDelta::new(3, vec![(9, 1)]), 4),
            Err(ServingError::KeyOutOfRange {
                key: 9,
                num_keys: 4
            })
        );
        assert_eq!(
            base.apply_delta(&PartitionDelta::new(3, vec![(0, 7)]), 4),
            Err(ServingError::ShardOutOfRange {
                shard: 7,
                num_shards: 2
            })
        );
    }

    #[test]
    fn delta_normalization_sorts_and_keeps_the_last_duplicate() {
        let delta = PartitionDelta::new(0, vec![(5, 1), (2, 3), (5, 2), (1, 0)]);
        assert_eq!(delta.moves(), &[(1, 0), (2, 3), (5, 2)]);
        assert_eq!(delta.len(), 3);
        assert!(!delta.is_empty());
        assert!(PartitionDelta::new(0, vec![]).is_empty());
    }

    #[test]
    fn swap_replaces_generation_and_counts() {
        let p = partition(2, vec![0, 1]);
        let map = PartitionMap::new(PartitionSnapshot::from_partition(&p, 0).unwrap());
        let before = map.load();
        assert_eq!(before.epoch(), 0);
        assert_eq!(map.swap_count(), 0);

        let p2 = partition(2, vec![1, 0]);
        let old = map.swap(PartitionSnapshot::from_partition(&p2, 1).unwrap());
        assert_eq!(old.epoch(), 0);
        assert_eq!(map.load().epoch(), 1);
        assert_eq!(map.swap_count(), 1);
        // The reader that loaded before the swap still sees a fully consistent old view.
        assert_eq!(before.shard_of(0).unwrap(), 0);
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_generation() {
        // Alternate between two placements that disagree on every key; readers must always see
        // one of the two pure assignments, never a mix.
        let a = PartitionSnapshot::from_partition(&partition(2, vec![0, 0, 0, 0]), 0).unwrap();
        let b = PartitionSnapshot::from_partition(&partition(2, vec![1, 1, 1, 1]), 1).unwrap();
        let map = PartitionMap::new(a.clone());
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let map = &map;
            let stop_ref = &stop;
            for _ in 0..4 {
                scope.spawn(move || {
                    while !stop_ref.load(Ordering::Relaxed) {
                        let snap = map.load();
                        let first = snap.shard_of(0).unwrap();
                        for k in 1..4 {
                            assert_eq!(snap.shard_of(k).unwrap(), first, "torn snapshot");
                        }
                    }
                });
            }
            for i in 0..200 {
                map.swap(if i % 2 == 0 { b.clone() } else { a.clone() });
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(map.swap_count(), 200);
    }
}
