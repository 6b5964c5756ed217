//! The shard router: turns a multiget's key list into per-shard batches.
//!
//! This is the fanout-defining step of the tail-at-scale pipeline: a query's latency is the
//! maximum over the per-shard requests it must issue (Figure 4 of the paper), so the number of
//! batches the router emits *is* the quantity SHP minimizes. The router is stateless; all
//! placement comes from the [`PartitionSnapshot`] the caller passes in, which makes routing
//! trivially safe under live partition swaps.

use crate::error::Result;
use crate::partition_map::PartitionSnapshot;
use shp_hypergraph::DataId;

/// The keys a multiget needs from one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardBatch {
    /// Destination shard.
    pub shard: u32,
    /// Deduplicated keys requested from that shard, in ascending order.
    pub keys: Vec<DataId>,
}

/// A routed multiget: one batch per shard that must be contacted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePlan {
    /// Epoch of the snapshot the plan was computed against.
    pub epoch: u64,
    /// Per-shard batches, in ascending shard order. The batches partition the deduplicated
    /// key set of the query: every requested key appears in exactly one batch.
    pub batches: Vec<ShardBatch>,
}

impl RoutePlan {
    /// Number of shards the query must contact (its fanout under the snapshot's placement).
    #[inline]
    pub fn fanout(&self) -> u32 {
        self.batches.len() as u32
    }

    /// Total number of (deduplicated) keys fetched by the plan.
    pub fn num_keys(&self) -> usize {
        self.batches.iter().map(|b| b.keys.len()).sum()
    }
}

/// Stateless multiget router.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardRouter;

impl ShardRouter {
    /// Creates a router.
    pub fn new() -> Self {
        ShardRouter
    }

    /// Routes `keys` against `snapshot`: deduplicates the key list, resolves each key's shard,
    /// and groups keys into one batch per contacted shard.
    ///
    /// # Errors
    /// Returns [`crate::ServingError::KeyOutOfRange`] when any key is outside the snapshot,
    /// leaving no partial plan behind.
    pub fn route(&self, snapshot: &PartitionSnapshot, keys: &[DataId]) -> Result<RoutePlan> {
        // Resolve every key first so an out-of-range key fails the whole multiget atomically.
        let mut placed: Vec<(u32, DataId)> = Vec::with_capacity(keys.len());
        for &key in keys {
            placed.push((snapshot.shard_of(key)?, key));
        }
        // Group by shard and deduplicate repeated keys in one sort pass.
        placed.sort_unstable();
        placed.dedup();

        let mut batches: Vec<ShardBatch> = Vec::new();
        for (shard, key) in placed {
            match batches.last_mut() {
                Some(batch) if batch.shard == shard => batch.keys.push(key),
                _ => batches.push(ShardBatch {
                    shard,
                    keys: vec![key],
                }),
            }
        }
        Ok(RoutePlan {
            epoch: snapshot.epoch(),
            batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServingError;
    use shp_hypergraph::{GraphBuilder, Partition};

    fn snapshot(k: u32, assignment: Vec<u32>) -> PartitionSnapshot {
        let mut b = GraphBuilder::new();
        b.add_query(0..assignment.len() as u32);
        let g = b.build().unwrap();
        let p = Partition::from_assignment(&g, k, assignment).unwrap();
        PartitionSnapshot::from_partition(&p, 3).unwrap()
    }

    #[test]
    fn batches_group_keys_by_shard_in_order() {
        let snap = snapshot(3, vec![2, 0, 1, 0, 2, 1]);
        let plan = ShardRouter::new()
            .route(&snap, &[0, 1, 2, 3, 4, 5])
            .unwrap();
        assert_eq!(plan.epoch, 3);
        assert_eq!(plan.fanout(), 3);
        assert_eq!(plan.num_keys(), 6);
        assert_eq!(
            plan.batches,
            vec![
                ShardBatch {
                    shard: 0,
                    keys: vec![1, 3]
                },
                ShardBatch {
                    shard: 1,
                    keys: vec![2, 5]
                },
                ShardBatch {
                    shard: 2,
                    keys: vec![0, 4]
                },
            ]
        );
    }

    #[test]
    fn duplicate_keys_are_fetched_once() {
        let snap = snapshot(2, vec![0, 1, 0]);
        let plan = ShardRouter::new()
            .route(&snap, &[2, 0, 2, 0, 1, 1])
            .unwrap();
        assert_eq!(plan.fanout(), 2);
        assert_eq!(plan.num_keys(), 3);
        assert_eq!(plan.batches[0].keys, vec![0, 2]);
        assert_eq!(plan.batches[1].keys, vec![1]);
    }

    #[test]
    fn colocated_keys_yield_fanout_one() {
        let snap = snapshot(4, vec![2, 2, 2, 2]);
        let plan = ShardRouter::new().route(&snap, &[3, 1, 0]).unwrap();
        assert_eq!(plan.fanout(), 1);
        assert_eq!(plan.batches[0].shard, 2);
        assert_eq!(plan.batches[0].keys, vec![0, 1, 3]);
    }

    #[test]
    fn out_of_range_key_fails_the_whole_multiget() {
        let snap = snapshot(2, vec![0, 1]);
        let err = ShardRouter::new().route(&snap, &[0, 7]).unwrap_err();
        assert_eq!(
            err,
            ServingError::KeyOutOfRange {
                key: 7,
                num_keys: 2
            }
        );
    }

    #[test]
    fn failover_candidates_start_at_the_primary_and_chain() {
        let snap = snapshot(4, vec![0, 1, 2, 3]);
        let plan = ShardRouter::new().route(&snap, &[2]).unwrap();
        let batch = &plan.batches[0];
        let candidates = |num_shards, replication| {
            crate::store::ShardSet::replica_chain(batch.shard, num_shards, replication)
                .collect::<Vec<u32>>()
        };
        assert_eq!(candidates(4, 1), vec![2]);
        assert_eq!(candidates(4, 2), vec![2, 3]);
        assert_eq!(candidates(4, 3), vec![2, 3, 0]);
        // Clamped to the shard count: no shard is listed twice.
        assert_eq!(candidates(3, 8), vec![2, 0, 1]);
        assert_eq!(candidates(4, 0), vec![2]);
    }

    #[test]
    fn empty_multiget_routes_to_nothing() {
        let snap = snapshot(2, vec![0, 1]);
        let plan = ShardRouter::new().route(&snap, &[]).unwrap();
        assert_eq!(plan.fanout(), 0);
        assert_eq!(plan.num_keys(), 0);
    }
}
