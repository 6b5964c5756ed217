//! Partitions of data vertices into buckets with balance bookkeeping.

use crate::bipartite::{BipartiteGraph, DataId};
use crate::error::{GraphError, Result};
use rand::Rng;

/// Identifier of a bucket `V_i`, `0..k`.
pub type BucketId = u32;

/// An assignment of every data vertex to one of `k` buckets.
///
/// The paper's balance constraint is `|V_i| ≤ (1 + ε)·n/k` for all buckets (Section 1); this
/// struct maintains per-bucket sizes (weights) incrementally so that both the partitioner and
/// the metrics can query balance in O(1).
///
/// # Example
///
/// ```
/// use shp_hypergraph::{GraphBuilder, Partition};
///
/// let mut b = GraphBuilder::new();
/// b.add_query([0, 1, 2, 3]);
/// let graph = b.build().unwrap();
///
/// let mut part = Partition::new_uniform(&graph, 2).unwrap();
/// part.assign(3, 1);
/// assert_eq!(part.bucket_of(3), 1);
/// assert_eq!(part.bucket_weight(0), 3);
/// assert_eq!(part.bucket_weight(1), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Bucket of every data vertex.
    assignment: Vec<BucketId>,
    /// Number of buckets, k.
    num_buckets: u32,
    /// Total vertex weight currently assigned to each bucket.
    bucket_weights: Vec<u64>,
    /// Per-vertex weights (uniform 1 when `None`), copied from the graph at construction.
    vertex_weights: Option<Vec<u32>>,
    /// Sum of all bucket weights; invariant under [`Partition::assign`], cached so
    /// [`Partition::total_weight`] is O(1).
    total_weight: u64,
    /// Lowest-indexed bucket of minimum weight, maintained incrementally by
    /// [`Partition::assign`] (O(1) except when the least-loaded bucket itself gains weight,
    /// which triggers an O(k) rescan). Always equals what a fresh
    /// `(0..k).min_by_key(bucket_weight)` scan would return.
    least_loaded: BucketId,
}

impl Partition {
    /// Creates a partition that places every data vertex of `graph` in bucket 0.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidBucketCount`] when `k == 0`.
    pub fn new_uniform(graph: &BipartiteGraph, k: u32) -> Result<Self> {
        if k == 0 {
            return Err(GraphError::InvalidBucketCount(k));
        }
        let n = graph.num_data();
        let vertex_weights = if graph.has_weights() {
            Some((0..n).map(|v| graph.data_weight(v as DataId)).collect())
        } else {
            None
        };
        let mut bucket_weights = vec![0u64; k as usize];
        bucket_weights[0] = graph.total_data_weight();
        let least_loaded = first_min_bucket(&bucket_weights);
        Ok(Partition {
            assignment: vec![0; n],
            num_buckets: k,
            total_weight: bucket_weights.iter().sum(),
            least_loaded,
            bucket_weights,
            vertex_weights,
        })
    }

    /// Creates a partition by assigning every data vertex to an independently uniform random
    /// bucket — the initial partitioning step of Algorithm 1.
    pub fn new_random<R: Rng>(graph: &BipartiteGraph, k: u32, rng: &mut R) -> Result<Self> {
        let mut part = Self::new_uniform(graph, k)?;
        for v in 0..graph.num_data() as DataId {
            let b = rng.gen_range(0..k);
            part.assign(v, b);
        }
        Ok(part)
    }

    /// Creates a partition from an explicit assignment vector.
    ///
    /// # Errors
    /// Fails if the vector length does not match the graph, a bucket id is out of range, or
    /// `k == 0`.
    pub fn from_assignment(
        graph: &BipartiteGraph,
        k: u32,
        assignment: Vec<BucketId>,
    ) -> Result<Self> {
        if k == 0 {
            return Err(GraphError::InvalidBucketCount(k));
        }
        if assignment.len() != graph.num_data() {
            return Err(GraphError::PartitionLengthMismatch {
                got: assignment.len(),
                expected: graph.num_data(),
            });
        }
        let vertex_weights: Option<Vec<u32>> = if graph.has_weights() {
            Some(
                (0..graph.num_data())
                    .map(|v| graph.data_weight(v as DataId))
                    .collect(),
            )
        } else {
            None
        };
        let mut bucket_weights = vec![0u64; k as usize];
        for (v, &b) in assignment.iter().enumerate() {
            if b >= k {
                return Err(GraphError::BucketOutOfRange {
                    bucket: b,
                    num_buckets: k,
                });
            }
            let w = vertex_weights.as_ref().map_or(1, |ws| ws[v]) as u64;
            bucket_weights[b as usize] += w;
        }
        let least_loaded = first_min_bucket(&bucket_weights);
        Ok(Partition {
            assignment,
            num_buckets: k,
            total_weight: bucket_weights.iter().sum(),
            least_loaded,
            bucket_weights,
            vertex_weights,
        })
    }

    /// Number of buckets `k`.
    #[inline]
    pub fn num_buckets(&self) -> u32 {
        self.num_buckets
    }

    /// Number of data vertices covered by the partition.
    #[inline]
    pub fn num_data(&self) -> usize {
        self.assignment.len()
    }

    /// Current bucket of data vertex `v`.
    #[inline]
    pub fn bucket_of(&self, v: DataId) -> BucketId {
        self.assignment[v as usize]
    }

    /// Weight of vertex `v` (1 unless the source graph carried weights).
    #[inline]
    pub fn vertex_weight(&self, v: DataId) -> u64 {
        self.vertex_weights
            .as_ref()
            .map_or(1, |w| w[v as usize] as u64)
    }

    /// Total vertex weight currently in bucket `b`.
    #[inline]
    pub fn bucket_weight(&self, b: BucketId) -> u64 {
        self.bucket_weights[b as usize]
    }

    /// Slice of all bucket weights.
    #[inline]
    pub fn bucket_weights(&self) -> &[u64] {
        &self.bucket_weights
    }

    /// Total weight across all buckets. O(1): the total is invariant under moves and cached at
    /// construction.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// The lowest-indexed bucket of minimum weight, maintained incrementally (O(1) accessor).
    ///
    /// Equals `(0..k).min_by_key(|&b| bucket_weight(b))` at all times; the refinement loop
    /// reads it once per gain sweep instead of rescanning all `k` buckets.
    #[inline]
    pub fn least_loaded_bucket(&self) -> BucketId {
        self.least_loaded
    }

    /// Read-only view of the full assignment vector.
    #[inline]
    pub fn assignment(&self) -> &[BucketId] {
        &self.assignment
    }

    /// Consumes the partition, returning the raw assignment vector.
    pub fn into_assignment(self) -> Vec<BucketId> {
        self.assignment
    }

    /// Moves vertex `v` to bucket `b`, updating bucket weights. A no-op if `v` is already
    /// in `b`. Returns the previous bucket.
    pub fn assign(&mut self, v: DataId, b: BucketId) -> BucketId {
        let old = self.assignment[v as usize];
        if old != b {
            let w = self.vertex_weight(v);
            self.bucket_weights[old as usize] -= w;
            self.bucket_weights[b as usize] += w;
            self.assignment[v as usize] = b;
            if b == self.least_loaded {
                // The least-loaded bucket gained weight; the minimum may now sit anywhere.
                self.least_loaded = first_min_bucket(&self.bucket_weights);
            } else if (self.bucket_weights[old as usize], old)
                < (
                    self.bucket_weights[self.least_loaded as usize],
                    self.least_loaded,
                )
            {
                // Only the shrinking bucket can beat (or tie at a lower index) the incumbent:
                // every other weight is unchanged, so the lexicographic check suffices.
                self.least_loaded = old;
            }
        }
        old
    }

    /// Applies every `(v, b)` move in order, leaving the same state as one
    /// [`Partition::assign`] call per move. The least-loaded bucket is recomputed once at the
    /// end, so a batch costs `O(moves + k)` instead of up to `O(k)` per move.
    pub fn assign_all(&mut self, moves: &[(DataId, BucketId)]) {
        for &(v, b) in moves {
            let old = std::mem::replace(&mut self.assignment[v as usize], b);
            let w = self.vertex_weight(v);
            self.bucket_weights[old as usize] -= w;
            self.bucket_weights[b as usize] += w;
        }
        self.least_loaded = first_min_bucket(&self.bucket_weights);
    }

    /// The maximum allowed bucket weight under imbalance ratio `epsilon`:
    /// `⌊(1 + ε) · ⌈total / k⌉⌋` — the usual hypergraph-partitioning convention, which keeps
    /// perfectly balanced partitions feasible when `k` does not divide the total weight.
    pub fn max_allowed_weight(&self, epsilon: f64) -> u64 {
        let ideal = (self.total_weight() as f64 / self.num_buckets as f64).ceil();
        ((1.0 + epsilon) * ideal).floor() as u64
    }

    /// Whether every bucket satisfies the balance constraint for the given `epsilon`.
    pub fn is_balanced(&self, epsilon: f64) -> bool {
        let cap = self.max_allowed_weight(epsilon);
        self.bucket_weights.iter().all(|&w| w <= cap)
    }

    /// The realized imbalance: `max_i |V_i| / (total / k) − 1`. Zero for a perfectly balanced
    /// partition; may be negative only when some buckets are empty and `k` does not divide the
    /// total weight (clamped to 0 in that case).
    pub fn imbalance(&self) -> f64 {
        let total = self.total_weight();
        if total == 0 {
            return 0.0;
        }
        let ideal = total as f64 / self.num_buckets as f64;
        let max = *self.bucket_weights.iter().max().unwrap_or(&0) as f64;
        (max / ideal - 1.0).max(0.0)
    }

    /// Ids of the vertices currently assigned to bucket `b`.
    pub fn bucket_members(&self, b: BucketId) -> Vec<DataId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &bb)| bb == b)
            .map(|(v, _)| v as DataId)
            .collect()
    }

    /// Splits the vertex ids by bucket, returning `k` membership vectors in one pass.
    pub fn members_by_bucket(&self) -> Vec<Vec<DataId>> {
        let mut members = vec![Vec::new(); self.num_buckets as usize];
        for (v, &b) in self.assignment.iter().enumerate() {
            members[b as usize].push(v as DataId);
        }
        members
    }

    /// Remaps every bucket id through `f`, producing a partition with `new_k` buckets.
    /// Used by recursive bisection to embed per-subproblem buckets into the global numbering.
    ///
    /// # Panics
    /// Panics (in debug builds) if `f` maps any vertex to a bucket `>= new_k`.
    pub fn remap_buckets<F>(&self, new_k: u32, f: F) -> Partition
    where
        F: Fn(DataId, BucketId) -> BucketId,
    {
        let mut bucket_weights = vec![0u64; new_k as usize];
        let mut assignment = Vec::with_capacity(self.assignment.len());
        for (v, &b) in self.assignment.iter().enumerate() {
            let nb = f(v as DataId, b);
            debug_assert!(nb < new_k);
            bucket_weights[nb as usize] += self.vertex_weight(v as DataId);
            assignment.push(nb);
        }
        let least_loaded = first_min_bucket(&bucket_weights);
        Partition {
            assignment,
            num_buckets: new_k,
            total_weight: bucket_weights.iter().sum(),
            least_loaded,
            bucket_weights,
            vertex_weights: self.vertex_weights.clone(),
        }
    }

    /// Number of vertices whose bucket differs between `self` and `other`.
    ///
    /// # Panics
    /// Panics if the two partitions cover a different number of vertices.
    pub fn hamming_distance(&self, other: &Partition) -> usize {
        assert_eq!(self.assignment.len(), other.assignment.len());
        self.assignment
            .iter()
            .zip(other.assignment.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

/// The lowest-indexed bucket attaining the minimum weight (what
/// `(0..k).min_by_key(|&b| weights[b])` returns).
fn first_min_bucket(weights: &[u64]) -> BucketId {
    let mut best = 0usize;
    for (b, &w) in weights.iter().enumerate().skip(1) {
        if w < weights[best] {
            best = b;
        }
    }
    best as BucketId
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use rand::SeedableRng;
    use rand_pcg::Pcg64;

    fn chain_graph(n: u32) -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for i in 0..n.saturating_sub(1) {
            b.add_query([i, i + 1]);
        }
        b.ensure_data_count(n as usize);
        b.build().unwrap()
    }

    #[test]
    fn uniform_partition_places_everything_in_bucket_zero() {
        let g = chain_graph(10);
        let p = Partition::new_uniform(&g, 4).unwrap();
        assert_eq!(p.num_buckets(), 4);
        assert_eq!(p.bucket_weight(0), 10);
        assert_eq!(p.bucket_weight(1), 0);
        assert!(p.assignment().iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_buckets_is_rejected() {
        let g = chain_graph(3);
        assert!(Partition::new_uniform(&g, 0).is_err());
        assert!(Partition::from_assignment(&g, 0, vec![0, 0, 0]).is_err());
    }

    #[test]
    fn random_partition_is_roughly_balanced_and_seeded() {
        let g = chain_graph(10_000);
        let mut rng = Pcg64::seed_from_u64(42);
        let p = Partition::new_random(&g, 4, &mut rng).unwrap();
        // With 10k vertices and 4 buckets, each bucket should be within a few percent of 2500.
        for b in 0..4 {
            let w = p.bucket_weight(b) as f64;
            assert!((w - 2500.0).abs() < 250.0, "bucket {b} weight {w}");
        }
        // Determinism: the same seed yields the same partition.
        let mut rng2 = Pcg64::seed_from_u64(42);
        let p2 = Partition::new_random(&g, 4, &mut rng2).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn assign_updates_weights_incrementally() {
        let g = chain_graph(6);
        let mut p = Partition::new_uniform(&g, 3).unwrap();
        p.assign(0, 1);
        p.assign(1, 2);
        p.assign(2, 2);
        assert_eq!(p.bucket_weight(0), 3);
        assert_eq!(p.bucket_weight(1), 1);
        assert_eq!(p.bucket_weight(2), 2);
        // Re-assigning to the same bucket is a no-op.
        let old = p.assign(2, 2);
        assert_eq!(old, 2);
        assert_eq!(p.bucket_weight(2), 2);
        assert_eq!(p.total_weight(), 6);
    }

    #[test]
    fn assign_all_equals_one_assign_per_move() {
        let g = chain_graph(8);
        let moves = [(0, 2), (1, 2), (7, 0), (0, 3), (5, 5), (3, 1), (2, 2)];
        let mut batched = Partition::new_uniform(&g, 6).unwrap();
        let mut single = batched.clone();
        batched.assign_all(&moves);
        for &(v, b) in &moves {
            single.assign(v, b);
        }
        assert_eq!(batched, single);
        assert_eq!(batched.bucket_weights(), single.bucket_weights());
        assert_eq!(batched.least_loaded_bucket(), single.least_loaded_bucket());
    }

    #[test]
    fn from_assignment_validates_input() {
        let g = chain_graph(4);
        assert!(Partition::from_assignment(&g, 2, vec![0, 1, 0]).is_err());
        assert!(Partition::from_assignment(&g, 2, vec![0, 1, 0, 5]).is_err());
        let p = Partition::from_assignment(&g, 2, vec![0, 1, 0, 1]).unwrap();
        assert_eq!(p.bucket_weight(0), 2);
        assert_eq!(p.bucket_weight(1), 2);
    }

    #[test]
    fn weighted_vertices_affect_bucket_weights() {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 2]);
        b.set_data_weights(vec![10, 1, 1]);
        let g = b.build().unwrap();
        let p = Partition::from_assignment(&g, 2, vec![0, 1, 1]).unwrap();
        assert_eq!(p.bucket_weight(0), 10);
        assert_eq!(p.bucket_weight(1), 2);
        assert_eq!(p.vertex_weight(0), 10);
        assert!(p.imbalance() > 0.5);
    }

    #[test]
    fn balance_checks_follow_epsilon() {
        let g = chain_graph(8);
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 0, 0, 0, 1, 1, 1]).unwrap();
        // sizes 5 and 3, ideal 4 -> imbalance 0.25
        assert!((p.imbalance() - 0.25).abs() < 1e-12);
        assert!(!p.is_balanced(0.1));
        assert!(p.is_balanced(0.25));
        assert!(p.is_balanced(0.5));
    }

    #[test]
    fn members_and_remap() {
        let g = chain_graph(6);
        let p = Partition::from_assignment(&g, 2, vec![0, 1, 0, 1, 0, 1]).unwrap();
        assert_eq!(p.bucket_members(0), vec![0, 2, 4]);
        let by_bucket = p.members_by_bucket();
        assert_eq!(by_bucket[1], vec![1, 3, 5]);
        // Remap into 4 buckets: bucket b of vertex v becomes 2*b + (v % 2 == 0 ? 0 : 1)... keep
        // simple: shift by 2.
        let remapped = p.remap_buckets(4, |_, b| b + 2);
        assert_eq!(remapped.num_buckets(), 4);
        assert_eq!(remapped.bucket_weight(2), 3);
        assert_eq!(remapped.bucket_weight(3), 3);
        assert_eq!(remapped.bucket_weight(0), 0);
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let g = chain_graph(4);
        let p1 = Partition::from_assignment(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let p2 = Partition::from_assignment(&g, 2, vec![0, 1, 1, 0]).unwrap();
        assert_eq!(p1.hamming_distance(&p2), 2);
        assert_eq!(p1.hamming_distance(&p1), 0);
    }

    #[test]
    fn least_loaded_matches_full_scan_under_random_moves() {
        let g = chain_graph(200);
        let mut rng = Pcg64::seed_from_u64(17);
        let mut p = Partition::new_random(&g, 7, &mut rng).unwrap();
        let scan = |p: &Partition| {
            (0..p.num_buckets())
                .min_by_key(|&b| p.bucket_weight(b))
                .unwrap()
        };
        assert_eq!(p.least_loaded_bucket(), scan(&p));
        // Random move sequence, including moves into and out of the least-loaded bucket.
        for step in 0..2_000u64 {
            let v = (step.wrapping_mul(48271) % 200) as DataId;
            let b = ((step.wrapping_mul(16807) >> 3) % 7) as BucketId;
            p.assign(v, b);
            assert_eq!(p.least_loaded_bucket(), scan(&p), "step {step}");
        }
        assert_eq!(p.total_weight(), 200);
    }

    #[test]
    fn least_loaded_breaks_ties_by_lowest_index() {
        let g = chain_graph(6);
        // Weights 2/2/2: the scan convention picks bucket 0.
        let p = Partition::from_assignment(&g, 3, vec![0, 0, 1, 1, 2, 2]).unwrap();
        assert_eq!(p.least_loaded_bucket(), 0);
        // Weights 3/1/2: unique minimum.
        let p = Partition::from_assignment(&g, 3, vec![0, 0, 0, 1, 2, 2]).unwrap();
        assert_eq!(p.least_loaded_bucket(), 1);
        // A decrement that ties a higher-indexed bucket with the incumbent keeps the incumbent.
        let mut p = Partition::from_assignment(&g, 3, vec![0, 0, 1, 2, 2, 2]).unwrap();
        assert_eq!(p.least_loaded_bucket(), 1);
        p.assign(5, 0); // weights 3/1/2 -> 3/1/2? no: 2/1/3 -> after move 3/1/2
        assert_eq!(p.least_loaded_bucket(), 1);
    }

    #[test]
    fn total_weight_is_cached_and_invariant_under_moves() {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 2]);
        b.set_data_weights(vec![10, 1, 1]);
        let g = b.build().unwrap();
        let mut p = Partition::from_assignment(&g, 2, vec![0, 1, 1]).unwrap();
        assert_eq!(p.total_weight(), 12);
        p.assign(0, 1);
        p.assign(1, 0);
        assert_eq!(p.total_weight(), 12);
        assert_eq!(p.bucket_weights().iter().sum::<u64>(), 12);
    }

    #[test]
    fn max_allowed_weight_uses_ceiled_ideal() {
        let g = chain_graph(10);
        let p = Partition::new_uniform(&g, 3).unwrap();
        // ideal = ceil(10/3) = 4, floor(1.05 * 4) = 4
        assert_eq!(p.max_allowed_weight(0.05), 4);
        assert_eq!(p.max_allowed_weight(0.0), 4);
        assert_eq!(p.max_allowed_weight(0.5), 6);
    }
}
