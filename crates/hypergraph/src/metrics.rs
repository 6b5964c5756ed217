//! Partition-quality metrics: fanout, probabilistic fanout, cut metrics, imbalance.
//!
//! All metrics operate on a [`BipartiteGraph`] plus a [`Partition`] of its data vertices and
//! match the definitions of Sections 1 and 3.1 of the SHP paper.

use crate::bipartite::{BipartiteGraph, QueryId};
use crate::partition::{BucketId, Partition};

/// Fanout of a single query: the number of distinct buckets containing at least one of its
/// data neighbors. Queries with no neighbors have fanout 0.
pub fn query_fanout(graph: &BipartiteGraph, partition: &Partition, q: QueryId) -> u32 {
    let mut scratch = BucketCounts::new(partition);
    scratch.count(graph, partition, q);
    scratch.fanout()
}

/// Number of neighbors of query `q` in each bucket — the "neighbor data" `n_i(q)` of the paper.
pub fn query_neighbor_counts(
    graph: &BipartiteGraph,
    partition: &Partition,
    q: QueryId,
) -> Vec<u32> {
    let mut counts = vec![0u32; partition.num_buckets() as usize];
    for &v in graph.query_neighbors(q) {
        counts[partition.bucket_of(v) as usize] += 1;
    }
    counts
}

/// Per-query bucket counts over one reused `k`-slot scratch: counting a query costs
/// `O(|N(q)|)` and resetting it `O(fanout(q))`, so a whole-graph metric runs in `O(pins + k)`
/// instead of allocating and scanning `k` slots per query.
struct BucketCounts {
    /// Pins of the current query per bucket; zero for untouched buckets.
    counts: Vec<u32>,
    /// Buckets with a non-zero count, in first-touch order.
    touched: Vec<BucketId>,
}

impl BucketCounts {
    fn new(partition: &Partition) -> Self {
        BucketCounts {
            counts: vec![0; partition.num_buckets() as usize],
            touched: Vec::new(),
        }
    }

    /// Clears the previous query and counts `q`'s pins per bucket.
    fn count(&mut self, graph: &BipartiteGraph, partition: &Partition, q: QueryId) {
        for &b in &self.touched {
            self.counts[b as usize] = 0;
        }
        self.touched.clear();
        for &v in graph.query_neighbors(q) {
            let b = partition.bucket_of(v);
            let count = &mut self.counts[b as usize];
            if *count == 0 {
                self.touched.push(b);
            }
            *count += 1;
        }
    }

    /// Fanout of the counted query.
    fn fanout(&self) -> u32 {
        self.touched.len() as u32
    }

    /// The counted query's non-zero counts in ascending bucket order — the order a scan over
    /// all `k` buckets visits them, so float sums over them stay bit-identical to one.
    fn ascending(&mut self) -> impl Iterator<Item = u32> + '_ {
        self.touched.sort_unstable();
        self.touched.iter().map(|&b| self.counts[b as usize])
    }
}

/// Fanout of every query in id order, over one reused scratch.
fn query_fanouts<'a>(
    graph: &'a BipartiteGraph,
    partition: &'a Partition,
) -> impl Iterator<Item = u32> + 'a {
    let mut scratch = BucketCounts::new(partition);
    graph.queries().map(move |q| {
        scratch.count(graph, partition, q);
        scratch.fanout()
    })
}

/// Average fanout over all queries: `fanout(P) = (1/|Q|) Σ_q fanout(P, q)`.
///
/// Returns 0 for a graph without queries.
pub fn average_fanout(graph: &BipartiteGraph, partition: &Partition) -> f64 {
    if graph.num_queries() == 0 {
        return 0.0;
    }
    let total: u64 = query_fanouts(graph, partition).map(u64::from).sum();
    total as f64 / graph.num_queries() as f64
}

/// Maximum fanout over all queries.
pub fn max_fanout(graph: &BipartiteGraph, partition: &Partition) -> u32 {
    query_fanouts(graph, partition).max().unwrap_or(0)
}

/// Probabilistic fanout of one query for probability `p`:
/// `p-fanout(q) = Σ_i (1 − (1 − p)^{n_i(q)})`.
pub fn query_p_fanout(graph: &BipartiteGraph, partition: &Partition, q: QueryId, p: f64) -> f64 {
    let mut scratch = BucketCounts::new(partition);
    scratch.count(graph, partition, q);
    p_fanout_terms(&mut scratch, p)
}

/// The counted query's p-fanout, summed in ascending bucket order.
fn p_fanout_terms(scratch: &mut BucketCounts, p: f64) -> f64 {
    scratch
        .ascending()
        .map(|n| 1.0 - (1.0 - p).powi(n as i32))
        .sum()
}

/// Average probabilistic fanout over all queries (the optimization objective of the paper).
pub fn average_p_fanout(graph: &BipartiteGraph, partition: &Partition, p: f64) -> f64 {
    if graph.num_queries() == 0 {
        return 0.0;
    }
    let mut scratch = BucketCounts::new(partition);
    let total: f64 = graph
        .queries()
        .map(|q| {
            scratch.count(graph, partition, q);
            p_fanout_terms(&mut scratch, p)
        })
        .sum();
    total / graph.num_queries() as f64
}

/// Number of hyperedges (queries) spanning more than one bucket — the hyperedge-cut metric.
pub fn hyperedge_cut(graph: &BipartiteGraph, partition: &Partition) -> u64 {
    query_fanouts(graph, partition).filter(|&f| f > 1).count() as u64
}

/// Sum of external degrees: `Σ_q fanout(q) [fanout(q) > 1]`, i.e. communication volume plus
/// hyperedge cut (footnote 2 of the paper), computed un-normalized.
pub fn sum_external_degrees(graph: &BipartiteGraph, partition: &Partition) -> u64 {
    query_fanouts(graph, partition)
        .filter(|&f| f > 1)
        .map(u64::from)
        .sum()
}

/// Weighted edge-cut of the clique-net graph (Lemma 2): for every query and every unordered
/// pair of its data neighbors lying in different buckets, add 1.
///
/// This is `Σ_{u<v} w(u,v) [bucket(u) ≠ bucket(v)]` with `w(u,v)` = number of shared queries,
/// evaluated query-by-query in `O(pins + k)` without materializing the clique graph.
pub fn weighted_edge_cut(graph: &BipartiteGraph, partition: &Partition) -> u64 {
    let mut scratch = BucketCounts::new(partition);
    let mut cut = 0u64;
    for q in graph.queries() {
        scratch.count(graph, partition, q);
        let deg = graph.query_neighbors(q).len() as u64;
        let total_pairs = deg * deg.saturating_sub(1) / 2;
        let same_pairs: u64 = scratch
            .touched
            .iter()
            .map(|&b| {
                let c = scratch.counts[b as usize] as u64;
                c * c.saturating_sub(1) / 2
            })
            .sum();
        cut += total_pairs - same_pairs;
    }
    cut
}

/// Realized imbalance of the partition: `max_i |V_i| / (n/k) − 1` (clamped at 0).
pub fn imbalance(partition: &Partition) -> f64 {
    partition.imbalance()
}

/// Histogram of query fanout values, used for reporting latency-vs-fanout experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutHistogram {
    /// `counts[f]` = number of queries with fanout exactly `f`.
    counts: Vec<u64>,
    /// Total number of queries observed.
    total: u64,
}

impl FanoutHistogram {
    /// Builds the histogram of fanout values for all queries of the graph.
    pub fn compute(graph: &BipartiteGraph, partition: &Partition) -> Self {
        let mut counts = vec![0u64; partition.num_buckets() as usize + 1];
        for f in query_fanouts(graph, partition) {
            counts[f as usize] += 1;
        }
        FanoutHistogram {
            counts,
            total: graph.num_queries() as u64,
        }
    }

    /// Number of queries with fanout exactly `f` (0 when `f` exceeds the recorded range).
    pub fn count(&self, f: usize) -> u64 {
        self.counts.get(f).copied().unwrap_or(0)
    }

    /// Total number of queries recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean fanout implied by the histogram.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(f, &c)| f as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// The smallest fanout value `f` such that at least `quantile` (in `[0,1]`) of the queries
    /// have fanout ≤ `f`.
    pub fn quantile(&self, quantile: f64) -> usize {
        if self.total == 0 {
            return 0;
        }
        let target = (quantile.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (f, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return f;
            }
        }
        self.counts.len() - 1
    }

    /// Largest fanout value with a non-zero count.
    pub fn max(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Partition};

    /// The Figure-1 example: queries {0,1,5}, {0,1,2,3}, {3,4,5}; partition {0,1,2} | {3,4,5}.
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
    fn figure1_fanout_matches_paper() {
        // The paper states fanouts 2, 2, 1 and average (2+2+1)/3.
        let (g, p) = figure1();
        assert_eq!(query_fanout(&g, &p, 0), 2);
        assert_eq!(query_fanout(&g, &p, 1), 2);
        assert_eq!(query_fanout(&g, &p, 2), 1);
        assert!((average_fanout(&g, &p) - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(max_fanout(&g, &p), 2);
    }

    #[test]
    fn neighbor_counts_match_definition() {
        let (g, p) = figure1();
        assert_eq!(query_neighbor_counts(&g, &p, 0), vec![2, 1]);
        assert_eq!(query_neighbor_counts(&g, &p, 1), vec![3, 1]);
        assert_eq!(query_neighbor_counts(&g, &p, 2), vec![0, 3]);
    }

    #[test]
    fn p_fanout_is_below_fanout_and_monotone_in_p() {
        let (g, p) = figure1();
        for q in g.queries() {
            let f = query_fanout(&g, &p, q) as f64;
            let pf_small = query_p_fanout(&g, &p, q, 0.3);
            let pf_large = query_p_fanout(&g, &p, q, 0.9);
            assert!(pf_small <= f + 1e-12);
            assert!(pf_large <= f + 1e-12);
            assert!(pf_small <= pf_large + 1e-12, "p-fanout should grow with p");
        }
    }

    #[test]
    fn p_fanout_limit_p_to_one_equals_fanout() {
        // Lemma 1: as p -> 1, p-fanout -> fanout.
        let (g, p) = figure1();
        let diff = (average_p_fanout(&g, &p, 1.0 - 1e-12) - average_fanout(&g, &p)).abs();
        assert!(diff < 1e-6, "diff = {diff}");
    }

    #[test]
    fn p_fanout_exact_value() {
        let (g, p) = figure1();
        // Query 0: n = [2,1]; p=0.5 -> (1-0.25) + (1-0.5) = 1.25
        let val = query_p_fanout(&g, &p, 0, 0.5);
        assert!((val - 1.25).abs() < 1e-12);
    }

    #[test]
    fn hyperedge_cut_and_soed() {
        let (g, p) = figure1();
        // Queries 0 and 1 are cut, query 2 is internal.
        assert_eq!(hyperedge_cut(&g, &p), 2);
        // SOED = 2 + 2 = 4 (only cut queries contribute their fanout).
        assert_eq!(sum_external_degrees(&g, &p), 4);
    }

    #[test]
    fn weighted_edge_cut_matches_bruteforce() {
        let (g, p) = figure1();
        // Brute force: for each query, count cross-bucket pairs.
        let mut expected = 0u64;
        for q in g.queries() {
            let pins = g.query_neighbors(q);
            for i in 0..pins.len() {
                for j in (i + 1)..pins.len() {
                    if p.bucket_of(pins[i]) != p.bucket_of(pins[j]) {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(weighted_edge_cut(&g, &p), expected);
        assert_eq!(expected, 2 + 3); // query0: pairs crossing = 2, query1: 3, query2: 0
    }

    #[test]
    fn all_in_one_bucket_gives_fanout_one() {
        let (g, _) = figure1();
        let p = Partition::from_assignment(&g, 2, vec![0; 6]).unwrap();
        assert!((average_fanout(&g, &p) - 1.0).abs() < 1e-12);
        assert_eq!(hyperedge_cut(&g, &p), 0);
        assert_eq!(weighted_edge_cut(&g, &p), 0);
        assert_eq!(sum_external_degrees(&g, &p), 0);
    }

    #[test]
    fn empty_graph_metrics_are_zero() {
        let g = GraphBuilder::new().build().unwrap();
        let p = Partition::new_uniform(&g, 3).unwrap();
        assert_eq!(average_fanout(&g, &p), 0.0);
        assert_eq!(average_p_fanout(&g, &p, 0.5), 0.0);
        assert_eq!(max_fanout(&g, &p), 0);
        assert_eq!(hyperedge_cut(&g, &p), 0);
    }

    #[test]
    fn fanout_histogram_counts_and_quantiles() {
        let (g, p) = figure1();
        let h = FanoutHistogram::compute(&g, &p);
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(0), 0);
        assert!((h.mean() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(0.33), 1);
        assert_eq!(h.max(), 2);
    }

    #[test]
    fn p_fanout_with_p_zero_is_zero() {
        // With p = 0 every term (1 - (1-0)^n) vanishes, so the value is identically 0; the
        // clique-net behaviour only appears in the second-order term (see core::objective).
        let (g, p) = figure1();
        assert_eq!(average_p_fanout(&g, &p, 0.0), 0.0);
    }
}
