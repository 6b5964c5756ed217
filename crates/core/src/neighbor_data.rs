//! Per-query "neighbor data": the number of a query's pins in each bucket.
//!
//! The paper calls the vector `n_i(q)` the *neighbor data* of query `q`; it is the only state
//! the gain computation needs (Equation 1). Following the paper's space analysis (Section 3.3),
//! only the non-zero entries are stored — at most `fanout(q)` of them per query — so the total
//! footprint is `O(|E|)` regardless of the bucket count.

use shp_hypergraph::{BipartiteGraph, BucketId, DataId, Partition, QueryId};

/// Sparse per-query bucket counts, kept in sync with the partition by the refinement loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborData {
    /// For each query, the sorted list of `(bucket, count)` pairs with `count > 0`.
    counts: Vec<Vec<(BucketId, u32)>>,
}

impl NeighborData {
    /// Builds the neighbor data of every query for the given partition, sequentially.
    pub fn build(graph: &BipartiteGraph, partition: &Partition) -> Self {
        Self::build_with_workers(graph, partition, 1)
    }

    /// Builds the neighbor data over `workers` threads: queries are split into contiguous
    /// index chunks and each worker fills the per-query histograms of its own chunk, so the
    /// result is bit-identical to the sequential build for every worker count.
    pub fn build_with_workers(
        graph: &BipartiteGraph,
        partition: &Partition,
        workers: usize,
    ) -> Self {
        let counts = rayon::pool::map_index(graph.num_queries(), workers, |q| {
            let pins = graph.query_neighbors(q as QueryId);
            let mut counts = Vec::new();
            count_buckets(pins.iter().map(|&v| partition.bucket_of(v)), &mut counts);
            counts
        });
        NeighborData { counts }
    }

    /// Number of queries tracked.
    pub fn num_queries(&self) -> usize {
        self.counts.len()
    }

    /// Number of pins of query `q` in bucket `b` (0 if none).
    #[inline]
    pub fn count(&self, q: QueryId, b: BucketId) -> u32 {
        count_in(&self.counts[q as usize], b)
    }

    /// The non-zero `(bucket, count)` entries of query `q`, sorted by bucket.
    #[inline]
    pub fn nonzero(&self, q: QueryId) -> &[(BucketId, u32)] {
        &self.counts[q as usize]
    }

    /// Current fanout of query `q` (number of distinct buckets it touches).
    #[inline]
    pub fn fanout(&self, q: QueryId) -> usize {
        self.counts[q as usize].len()
    }

    /// Total number of stored non-zero entries (equals `Σ_q fanout(q)`).
    pub fn total_entries(&self) -> usize {
        self.counts.iter().map(|c| c.len()).sum()
    }

    /// Updates the neighbor data after data vertex `v` moved from bucket `from` to bucket `to`.
    ///
    /// Each adjacent query is updated with a single combined decrement-increment pass: both
    /// bucket positions are located together (one linear scan for the common `fanout ≤ 4`
    /// case, otherwise one binary search over the full entry plus one over the remaining
    /// suffix), and the remove-then-insert case shifts the entry once via an in-place rotate
    /// instead of two memmoves.
    ///
    /// # Panics
    /// Debug-asserts that `v` actually had a pin counted in `from` for each adjacent query.
    pub fn apply_move(&mut self, graph: &BipartiteGraph, v: DataId, from: BucketId, to: BucketId) {
        if from == to {
            return;
        }
        for &q in graph.data_neighbors(v) {
            let entry = &mut self.counts[q as usize];
            let (from_pos, to_pos) = if entry.len() <= SMALL_FANOUT {
                locate_pair_linear(entry, from, to)
            } else {
                locate_pair_binary(entry, from, to)
            };
            let Some(from_idx) = from_pos else {
                debug_assert!(false, "query {q} had no pins in bucket {from}");
                continue;
            };
            debug_assert!(entry[from_idx].1 >= 1);
            match to_pos {
                Ok(to_idx) => {
                    // Both buckets present: pure count updates, no shifting.
                    entry[to_idx].1 += 1;
                    if entry[from_idx].1 == 1 {
                        entry.remove(from_idx);
                    } else {
                        entry[from_idx].1 -= 1;
                    }
                }
                Err(insert_at) if entry[from_idx].1 > 1 => {
                    entry[from_idx].1 -= 1;
                    entry.insert(insert_at, (to, 1));
                }
                Err(insert_at) => {
                    // `from` empties exactly as `to` appears: rewrite the slot in place and
                    // rotate it to its sorted position — one shift instead of remove + insert.
                    entry[from_idx] = (to, 1);
                    if insert_at > from_idx + 1 {
                        entry[from_idx..insert_at].rotate_left(1);
                    } else if insert_at <= from_idx {
                        entry[insert_at..=from_idx].rotate_right(1);
                    }
                }
            }
        }
    }

    /// Average fanout implied by the stored counts (must equal the metric computed from the
    /// partition; used as a consistency check and for cheap convergence reporting).
    pub fn average_fanout(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.total_entries() as f64 / self.counts.len() as f64
    }

    /// Average p-fanout implied by the stored counts.
    pub fn average_p_fanout(&self, p: f64) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let q = 1.0 - p;
        let total: f64 = self
            .counts
            .iter()
            .map(|entry| {
                entry
                    .iter()
                    .map(|&(_, n)| 1.0 - q.powi(n as i32))
                    .sum::<f64>()
            })
            .sum();
        total / self.counts.len() as f64
    }
}

/// The count of bucket `b` in a query's sorted non-zero entries (0 if none).
#[inline]
pub(crate) fn count_in(entries: &[(BucketId, u32)], b: BucketId) -> u32 {
    let found = entries.binary_search_by_key(&b, |&(bb, _)| bb);
    found.map_or(0, |idx| entries[idx].1)
}

/// Fills `counts` with one query's neighbor data, the sorted non-zero `(bucket, count)`
/// entries, from the buckets of its pins (in-process) or of the messages it received (a BSP
/// query vertex, into its worker's reused buffer).
pub(crate) fn count_buckets(
    buckets: impl IntoIterator<Item = BucketId>,
    counts: &mut Vec<(BucketId, u32)>,
) {
    counts.clear();
    for b in buckets {
        match counts.binary_search_by_key(&b, |&(bb, _)| bb) {
            Ok(idx) => counts[idx].1 += 1,
            Err(idx) => counts.insert(idx, (b, 1)),
        }
    }
}

/// Fanout threshold at or below which [`locate_pair_linear`] (one cache-friendly scan) beats
/// two binary searches. Most social-graph queries sit in this regime once refinement has
/// colocated their pins.
const SMALL_FANOUT: usize = 4;

/// Locates `from` and `to` in a sorted entry with a single linear pass: returns the index of
/// `from` (if present) and the index of `to` (`Ok`) or its insertion point (`Err`).
#[inline]
fn locate_pair_linear(
    entry: &[(BucketId, u32)],
    from: BucketId,
    to: BucketId,
) -> (Option<usize>, Result<usize, usize>) {
    let mut from_pos = None;
    let mut less_than_to = 0usize;
    let mut to_pos = None;
    for (i, &(b, _)) in entry.iter().enumerate() {
        if b == from {
            from_pos = Some(i);
        }
        if b < to {
            less_than_to += 1;
        } else if b == to {
            to_pos = Some(i);
        }
    }
    (from_pos, to_pos.ok_or(less_than_to))
}

/// Binary-search counterpart of [`locate_pair_linear`] for larger fanouts: the smaller bucket
/// is searched over the full entry, the larger one only over the remaining suffix.
#[inline]
fn locate_pair_binary(
    entry: &[(BucketId, u32)],
    from: BucketId,
    to: BucketId,
) -> (Option<usize>, Result<usize, usize>) {
    let (lo, hi) = if from < to { (from, to) } else { (to, from) };
    let lo_res = entry.binary_search_by_key(&lo, |&(b, _)| b);
    let split = match lo_res {
        Ok(i) => i + 1,
        Err(i) => i,
    };
    let hi_res = match entry[split..].binary_search_by_key(&hi, |&(b, _)| b) {
        Ok(i) => Ok(split + i),
        Err(i) => Err(split + i),
    };
    if from < to {
        (lo_res.ok(), hi_res)
    } else {
        (hi_res.ok(), lo_res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shp_hypergraph::{average_fanout, average_p_fanout, GraphBuilder};

    fn figure1() -> (BipartiteGraph, Partition) {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 5]);
        b.add_query([0u32, 1, 2, 3]);
        b.add_query([3u32, 4, 5]);
        let g = b.build().unwrap();
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        (g, p)
    }

    #[test]
    fn build_matches_metric_counts() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        assert_eq!(nd.num_queries(), 3);
        assert_eq!(nd.count(0, 0), 2);
        assert_eq!(nd.count(0, 1), 1);
        assert_eq!(nd.count(2, 0), 0);
        assert_eq!(nd.count(2, 1), 3);
        assert_eq!(nd.fanout(0), 2);
        assert_eq!(nd.fanout(2), 1);
        assert_eq!(nd.nonzero(1), &[(0, 3), (1, 1)]);
        assert_eq!(nd.total_entries(), 5);
    }

    #[test]
    fn averages_match_partition_metrics() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        assert!((nd.average_fanout() - average_fanout(&g, &p)).abs() < 1e-12);
        for prob in [0.1, 0.5, 0.9] {
            assert!((nd.average_p_fanout(prob) - average_p_fanout(&g, &p, prob)).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_move_keeps_counts_in_sync_with_rebuild() {
        let (g, mut p) = figure1();
        let mut nd = NeighborData::build(&g, &p);
        // Move vertex 3 from bucket 1 to bucket 0, then vertex 0 from 0 to 1.
        nd.apply_move(&g, 3, 1, 0);
        p.assign(3, 0);
        nd.apply_move(&g, 0, 0, 1);
        p.assign(0, 1);
        let rebuilt = NeighborData::build(&g, &p);
        assert_eq!(nd, rebuilt);
    }

    #[test]
    fn apply_move_to_same_bucket_is_noop() {
        let (g, p) = figure1();
        let mut nd = NeighborData::build(&g, &p);
        let before = nd.clone();
        nd.apply_move(&g, 2, 0, 0);
        assert_eq!(nd, before);
    }

    #[test]
    fn counts_removed_when_they_reach_zero() {
        let (g, p) = figure1();
        let mut nd = NeighborData::build(&g, &p);
        // Query 0 has one pin (vertex 5) in bucket 1; moving it away empties that bucket entry.
        nd.apply_move(&g, 5, 1, 0);
        assert_eq!(nd.count(0, 1), 0);
        assert_eq!(nd.fanout(0), 1);
        let _ = p;
    }

    #[test]
    fn combined_pass_matches_rebuild_across_the_fanout_threshold() {
        // One query over 12 vertices spread across 8 buckets (fanout > SMALL_FANOUT, binary
        // path) and one over 3 vertices (linear path); drive both through every branch:
        // decrement-only, increment-only, remove+insert with to>from and to<from, and
        // adjacent-slot rewrites.
        let mut b = GraphBuilder::new();
        b.add_query((0u32..12).collect::<Vec<_>>());
        b.add_query([0u32, 1, 2]);
        let g = b.build().unwrap();
        let assignment: Vec<u32> = (0..12).map(|v| v % 8).collect();
        let mut p = Partition::from_assignment(&g, 8, assignment).unwrap();
        let mut nd = NeighborData::build(&g, &p);
        // A move script hitting: to far above from, to far below from, to adjacent to from,
        // emptying and refilling buckets, repeated single-pin hops.
        let script: [(u32, u32); 10] = [
            (0, 7), // 0 -> 7: count 0 empties low, 7 doubles
            (8, 2), // 0 -> 2 again? vertex 8 was in bucket 0: empties 0 entirely
            (7, 0), // 7 -> 0: refill far below
            (3, 4), // adjacent rewrite upward
            (4, 3), // and back
            (11, 6),
            (6, 1),
            (2, 5),
            (1, 2),
            (5, 2),
        ];
        for (v, to) in script {
            let from = p.bucket_of(v);
            nd.apply_move(&g, v, from, to);
            p.assign(v, to);
            assert_eq!(nd, NeighborData::build(&g, &p), "after moving {v} to {to}");
        }
    }

    #[test]
    fn locate_pair_helpers_agree() {
        let entry: Vec<(BucketId, u32)> = vec![(1, 2), (3, 1), (4, 5), (8, 1), (9, 2)];
        for from in 0..11u32 {
            for to in 0..11u32 {
                if from == to {
                    continue;
                }
                assert_eq!(
                    locate_pair_linear(&entry, from, to),
                    locate_pair_binary(&entry, from, to),
                    "from={from} to={to}"
                );
            }
        }
        assert_eq!(locate_pair_linear(&[], 0, 1), (None, Err(0)));
        assert_eq!(locate_pair_binary(&[], 0, 1), (None, Err(0)));
    }

    #[test]
    fn works_with_many_buckets_sparsely() {
        // 1 query over 6 vertices spread across 6 of 1000 buckets: storage stays at 6 entries.
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 2, 3, 4, 5]);
        let g = b.build().unwrap();
        let p = Partition::from_assignment(&g, 1000, vec![0, 100, 200, 300, 400, 500]).unwrap();
        let nd = NeighborData::build(&g, &p);
        assert_eq!(nd.fanout(0), 6);
        assert_eq!(nd.total_entries(), 6);
        assert_eq!(nd.count(0, 300), 1);
        assert_eq!(nd.count(0, 999), 0);
    }
}
