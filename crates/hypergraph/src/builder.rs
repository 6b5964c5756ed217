//! Incremental construction of [`BipartiteGraph`]s on a flat pin arena.
//!
//! The builder is the single funnel every ingestion path goes through — text parsers, the
//! binary `.shpb` reader's conformance oracle, the dataset generators, and the subgraph
//! extractors. Its hot path is allocation-shaped accordingly: hyperedges live in **one flat
//! `Vec<DataId>` arena plus an offsets vector** (no per-query `Vec`), `(query, data)` edge
//! pairs stream into a flat edge arena, and [`GraphBuilder::build`] assembles both CSR
//! directions with a two-pass counting sort whose data→query transpose can run on the real
//! thread pool ([`GraphBuilder::with_workers`]).
//!
//! For any sequence of `add_query`/`add_edge` calls the built graph is **bit-identical** at
//! every worker count to the straightforward per-query-`Vec` build kept in
//! `shp_bench::oracles::ingest` (locked in by `tests/parallel_conformance.rs` and the
//! `graph_ingest` bench).

use crate::bipartite::{BipartiteGraph, DataId, QueryId};
use crate::error::{GraphError, Result};

/// Builds a [`BipartiteGraph`] from hyperedges (queries) added one at a time and/or a stream
/// of `(query, data)` edge pairs.
///
/// The builder stores hyperedges as supplied, deduplicates pins inside each hyperedge, and
/// on [`GraphBuilder::build`] produces CSR adjacency in both directions. Data-vertex ids are
/// taken literally: adding a query containing data id `v` implies the graph has at least
/// `v + 1` data vertices. Likewise [`GraphBuilder::add_edge`] takes query ids literally
/// (query ids with no edges become empty hyperedges); pins from both ingestion shapes
/// targeting the same query id are merged at build time.
///
/// # Example
///
/// ```
/// use shp_hypergraph::GraphBuilder;
///
/// let mut builder = GraphBuilder::new();
/// builder.add_query([0, 1, 2]);
/// builder.add_query([2, 3]);
/// let graph = builder.build().unwrap();
/// assert_eq!(graph.num_queries(), 2);
/// assert_eq!(graph.num_data(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    /// Flat arena of pins of all hyperedges added through `add_query*`.
    pins: Vec<DataId>,
    /// Arena offsets: `offsets[q]..offsets[q+1]` are the pins of query `q`; starts at `[0]`.
    offsets: Vec<u64>,
    /// Flat arena of `(query, data)` pairs added through `add_edge`/`add_edges`.
    edges: Vec<(QueryId, DataId)>,
    /// Largest edge-mode query id seen plus one.
    edge_num_queries: usize,
    /// Largest data id seen plus one.
    num_data: usize,
    /// Optional explicit data weights.
    data_weights: Option<Vec<u32>>,
    /// Whether duplicate pins within a hyperedge should be removed (default true).
    dedup_pins: bool,
    /// Worker threads used by the CSR passes.
    workers: usize,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        // Not derived: the flat arena's invariant is that `offsets` starts as `[0]`.
        GraphBuilder::new()
    }
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder {
            pins: Vec::new(),
            offsets: vec![0],
            edges: Vec::new(),
            edge_num_queries: 0,
            num_data: 0,
            data_weights: None,
            dedup_pins: true,
            workers: 1,
        }
    }

    /// Creates an empty builder with capacity hints: the offsets vector reserves
    /// `num_queries + 1` slots up front and the final graph has at least `num_data` data
    /// vertices. Use [`GraphBuilder::reserve_pins`] when the total pin count is also known.
    pub fn with_capacity(num_queries: usize, num_data: usize) -> Self {
        let mut builder = GraphBuilder::new();
        builder.offsets.reserve(num_queries);
        builder.num_data = num_data;
        builder
    }

    /// Reserves room for at least `additional` more pins in the flat arena. Readers that
    /// know the exact pin count from a header or a completed parallel parse use this to make
    /// arena growth a single allocation.
    pub fn reserve_pins(&mut self, additional: usize) {
        self.pins.reserve(additional);
    }

    /// Reserves room for at least `additional` more `(query, data)` edge pairs.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Disables in-hyperedge pin deduplication (useful when the caller guarantees uniqueness
    /// and wants to avoid the sort).
    pub fn without_dedup(mut self) -> Self {
        self.dedup_pins = false;
        self
    }

    /// Sets the number of worker threads the CSR passes may use (default 1).
    /// The built graph is bit-identical for every worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Adds one query (hyperedge) with the given data-vertex pins. Returns the id assigned to
    /// the new query.
    pub fn add_query<I>(&mut self, pins: I) -> QueryId
    where
        I: IntoIterator<Item = DataId>,
    {
        let start = self.pins.len();
        self.pins.extend(pins);
        self.finish_arena_query(start)
    }

    /// Adds one query from a pin slice, appending straight into the flat arena without the
    /// `IntoIterator` indirection — the fast path for hot callers (generators, parsers) that
    /// accumulate pins in a reusable scratch buffer.
    pub fn add_query_slice(&mut self, pins: &[DataId]) -> QueryId {
        let start = self.pins.len();
        self.pins.extend_from_slice(pins);
        self.finish_arena_query(start)
    }

    /// Canonicalizes the pins appended since `start` (sort + dedup unless disabled), tracks
    /// the data-vertex count, and seals the hyperedge.
    fn finish_arena_query(&mut self, start: usize) -> QueryId {
        if self.dedup_pins {
            let tail = &mut self.pins[start..];
            tail.sort_unstable();
            // In-place dedup of the tail (Vec::dedup only covers the whole vector).
            let mut write = start;
            for read in start..self.pins.len() {
                if write == start || self.pins[read] != self.pins[write - 1] {
                    self.pins[write] = self.pins[read];
                    write += 1;
                }
            }
            self.pins.truncate(write);
            // Sorted tail: the maximum pin is the last one.
            if let Some(&last) = self.pins.last() {
                if self.pins.len() > start && (last as usize) >= self.num_data {
                    self.num_data = last as usize + 1;
                }
            }
        } else {
            for &v in &self.pins[start..] {
                if (v as usize) >= self.num_data {
                    self.num_data = v as usize + 1;
                }
            }
        }
        let id = (self.offsets.len() - 1) as QueryId;
        self.offsets.push(self.pins.len() as u64);
        id
    }

    /// Adds one `(query, data)` edge pair. Query ids are taken literally — query ids that
    /// never appear become empty hyperedges, and the final query count is at least `q + 1`.
    pub fn add_edge(&mut self, q: QueryId, v: DataId) {
        if (q as usize) >= self.edge_num_queries {
            self.edge_num_queries = q as usize + 1;
        }
        if (v as usize) >= self.num_data {
            self.num_data = v as usize + 1;
        }
        self.edges.push((q, v));
    }

    /// Streams a batch of `(query, data)` edge pairs into the edge arena.
    pub fn add_edges<I>(&mut self, edges: I)
    where
        I: IntoIterator<Item = (QueryId, DataId)>,
    {
        for (q, v) in edges {
            self.add_edge(q, v);
        }
    }

    /// Ensures that the built graph has at least `n` data vertices even if some of them are
    /// isolated (not referenced by any query).
    pub fn ensure_data_count(&mut self, n: usize) {
        if n > self.num_data {
            self.num_data = n;
        }
    }

    /// Attaches explicit data-vertex weights; the vector length must match the final data
    /// count at `build()` time.
    pub fn set_data_weights(&mut self, weights: Vec<u32>) {
        self.ensure_data_count(weights.len());
        self.data_weights = Some(weights);
    }

    /// Number of queries added so far (hyperedges plus the span implied by edge-mode ids).
    pub fn num_queries(&self) -> usize {
        (self.offsets.len() - 1).max(self.edge_num_queries)
    }

    /// Number of data vertices implied so far.
    pub fn num_data(&self) -> usize {
        self.num_data
    }

    /// Total number of pins added so far (hyperedge pins after in-hyperedge dedup, plus raw
    /// edge pairs — edge pairs are deduplicated only at build time).
    pub fn num_pins(&self) -> usize {
        self.pins.len() + self.edges.len()
    }

    /// Finalizes the builder into an immutable [`BipartiteGraph`].
    ///
    /// # Errors
    /// Returns [`GraphError::PartitionLengthMismatch`] if explicit weights were supplied whose
    /// length differs from the final number of data vertices.
    pub fn build(self) -> Result<BipartiteGraph> {
        let _span = shp_telemetry::Span::enter("ingest/csr_build");
        if let Some(w) = &self.data_weights {
            if w.len() != self.num_data {
                return Err(GraphError::PartitionLengthMismatch {
                    got: w.len(),
                    expected: self.num_data,
                });
            }
        }
        // The arena already *is* the query-side CSR when no edge pairs were added; otherwise
        // one counting sort merges both arenas. The data side is always a two-pass counting
        // sort (degree histogram → prefix sum → scatter), parallelized over `workers`.
        let arena_queries = self.offsets.len() - 1;
        let num_queries = arena_queries.max(self.edge_num_queries);
        let num_data = self.num_data;
        let workers = self.workers;

        let (query_offsets, query_adjacency) = if self.edges.is_empty() {
            // Zero-copy: hyperedges were canonicalized at add time, so the arena is final.
            let mut offsets = self.offsets;
            offsets.resize(num_queries + 1, *offsets.last().expect("starts at [0]"));
            (offsets, self.pins)
        } else {
            merge_arena_and_edges(
                num_queries,
                &self.offsets,
                &self.pins,
                &self.edges,
                self.dedup_pins,
                workers,
            )
        };

        let (data_offsets, data_adjacency) = transpose(
            num_queries,
            num_data,
            &query_offsets,
            &query_adjacency,
            workers,
        );

        Ok(BipartiteGraph::from_csr(
            query_offsets,
            query_adjacency,
            data_offsets,
            data_adjacency,
            self.data_weights,
        ))
    }

    /// Convenience constructor: builds a graph from a slice of hyperedges.
    pub fn from_hyperedges<I, P>(hyperedges: I) -> Result<BipartiteGraph>
    where
        I: IntoIterator<Item = P>,
        P: IntoIterator<Item = DataId>,
    {
        let mut builder = GraphBuilder::new();
        for pins in hyperedges {
            builder.add_query(pins);
        }
        builder.build()
    }

    /// Convenience constructor: builds a graph from `(query, data)` edge pairs. Query ids are
    /// taken literally (queries with no edges become empty hyperedges).
    pub fn from_edge_list(edges: &[(QueryId, DataId)]) -> Result<BipartiteGraph> {
        let mut builder = GraphBuilder::new();
        builder.reserve_edges(edges.len());
        builder.add_edges(edges.iter().copied());
        builder.build()
    }
}

/// Counting sort by query id over the hyperedge arena plus the edge arena: per-query degree
/// histogram → prefix sum → scatter (arena pins first, then edge pins in insertion order),
/// then per-query canonicalization (sort + dedup) of every query that received edge pins.
fn merge_arena_and_edges(
    num_queries: usize,
    offsets: &[u64],
    pins: &[DataId],
    edges: &[(QueryId, DataId)],
    dedup_pins: bool,
    workers: usize,
) -> (Vec<u64>, Vec<DataId>) {
    let arena_queries = offsets.len() - 1;
    let mut degree = vec![0u64; num_queries];
    for q in 0..arena_queries {
        degree[q] = offsets[q + 1] - offsets[q];
    }
    let mut touched = vec![false; num_queries];
    for &(q, _) in edges {
        degree[q as usize] += 1;
        touched[q as usize] = true;
    }
    let mut query_offsets = vec![0u64; num_queries + 1];
    for q in 0..num_queries {
        query_offsets[q + 1] = query_offsets[q] + degree[q];
    }
    let total = *query_offsets.last().expect("offsets are non-empty") as usize;
    let mut adjacency = vec![0 as DataId; total];
    let mut cursor: Vec<u64> = query_offsets[..num_queries].to_vec();
    for q in 0..arena_queries {
        let span = &pins[offsets[q] as usize..offsets[q + 1] as usize];
        let at = cursor[q] as usize;
        adjacency[at..at + span.len()].copy_from_slice(span);
        cursor[q] += span.len() as u64;
    }
    for &(q, v) in edges {
        let at = cursor[q as usize] as usize;
        adjacency[at] = v;
        cursor[q as usize] += 1;
    }

    if dedup_pins {
        // Sort the touched queries' spans in place, in parallel over query ranges (each part
        // owns a consecutive adjacency slice aligned on query boundaries)...
        let query_ranges = rayon::pool::chunk_ranges(num_queries, workers);
        if query_ranges.len() > 1 && adjacency.len() >= 1 << 14 {
            let part_sizes: Vec<usize> = query_ranges
                .iter()
                .map(|r| (query_offsets[r.end] - query_offsets[r.start]) as usize)
                .collect();
            rayon::pool::for_each_part_mut(&mut adjacency, &part_sizes, |part, slice| {
                let range = &query_ranges[part];
                let base = query_offsets[range.start];
                for q in range.clone() {
                    if touched[q] {
                        let lo = (query_offsets[q] - base) as usize;
                        let hi = (query_offsets[q + 1] - base) as usize;
                        slice[lo..hi].sort_unstable();
                    }
                }
            });
        } else {
            for q in 0..num_queries {
                if touched[q] {
                    let lo = query_offsets[q] as usize;
                    let hi = query_offsets[q + 1] as usize;
                    adjacency[lo..hi].sort_unstable();
                }
            }
        }
        // ...then compact duplicates in one sequential left-to-right pass (the write cursor
        // never overtakes the read cursor), rebuilding the offsets.
        let mut write = 0usize;
        let mut new_offsets = vec![0u64; num_queries + 1];
        for q in 0..num_queries {
            let lo = query_offsets[q] as usize;
            let hi = query_offsets[q + 1] as usize;
            let row_start = write;
            for read in lo..hi {
                if write == row_start || adjacency[read] != adjacency[write - 1] {
                    adjacency[write] = adjacency[read];
                    write += 1;
                }
            }
            new_offsets[q + 1] = write as u64;
        }
        adjacency.truncate(write);
        (new_offsets, adjacency)
    } else {
        (query_offsets, adjacency)
    }
}

/// Builds the data→query CSR transpose of a query→data CSR with a two-pass counting sort.
/// With `workers > 1`, the degree histogram merges per-chunk histograms in chunk order and the
/// scatter partitions the **output** by data-id range — each worker scans the shared query
/// adjacency and writes only the rows of its own range, so workers share no mutable state and
/// the result is bit-identical to the sequential scatter.
///
/// Cost note: partitioning the output means every worker re-reads the whole (shared,
/// cache-friendly) query adjacency — `O(workers × pins)` reads for `O(pins)` partitioned
/// writes. The read-optimal alternative (partition the *input* and scatter through a
/// chunk×vertex offset matrix) needs scatter-writes to disjoint but non-contiguous slots,
/// which safe Rust cannot hand to workers without per-worker output buffers and a merge
/// pass; under `forbid(unsafe_code)` the output-partitioned form is the better trade until
/// profiling on real multi-core hardware says otherwise.
fn transpose(
    num_queries: usize,
    num_data: usize,
    query_offsets: &[u64],
    query_adjacency: &[DataId],
    workers: usize,
) -> (Vec<u64>, Vec<QueryId>) {
    let total = query_adjacency.len();

    // Pass 1: data-degree histogram.
    let mut degree: Vec<u64> = if workers > 1 && total >= 1 << 14 {
        let partials = rayon::pool::run_chunks(total, workers, |range| {
            let mut local = vec![0u64; num_data];
            for &v in &query_adjacency[range] {
                local[v as usize] += 1;
            }
            local
        });
        let mut merged = vec![0u64; num_data];
        for partial in partials {
            for (slot, add) in merged.iter_mut().zip(partial) {
                *slot += add;
            }
        }
        merged
    } else {
        let mut local = vec![0u64; num_data];
        for &v in query_adjacency {
            local[v as usize] += 1;
        }
        local
    };

    // Prefix sum.
    let mut data_offsets = vec![0u64; num_data + 1];
    for v in 0..num_data {
        data_offsets[v + 1] = data_offsets[v] + degree[v];
    }

    // Pass 2: scatter, in ascending query order within every data vertex.
    let mut data_adjacency = vec![0 as QueryId; total];
    let data_ranges = rayon::pool::chunk_ranges(num_data, workers);
    if data_ranges.len() > 1 && total >= 1 << 14 {
        let part_sizes: Vec<usize> = data_ranges
            .iter()
            .map(|r| (data_offsets[r.end] - data_offsets[r.start]) as usize)
            .collect();
        rayon::pool::for_each_part_mut(&mut data_adjacency, &part_sizes, |part, out| {
            let range = &data_ranges[part];
            let base = data_offsets[range.start];
            let mut cursor: Vec<u64> = data_offsets[range.start..range.end]
                .iter()
                .map(|&o| o - base)
                .collect();
            let lo = range.start as u64;
            let hi = range.end as u64;
            for q in 0..num_queries {
                let span =
                    &query_adjacency[query_offsets[q] as usize..query_offsets[q + 1] as usize];
                for &v in span {
                    if (v as u64) >= lo && (v as u64) < hi {
                        let local = (v as usize) - range.start;
                        out[cursor[local] as usize] = q as QueryId;
                        cursor[local] += 1;
                    }
                }
            }
        });
    } else {
        // Reuse the histogram vector as the scatter cursor.
        degree.copy_from_slice(&data_offsets[..num_data]);
        let cursor = &mut degree;
        for q in 0..num_queries {
            let span = &query_adjacency[query_offsets[q] as usize..query_offsets[q + 1] as usize];
            for &v in span {
                let pos = cursor[v as usize];
                data_adjacency[pos as usize] = q as QueryId;
                cursor[v as usize] = pos + 1;
            }
        }
    }
    (data_offsets, data_adjacency)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.num_queries(), 0);
        assert_eq!(g.num_data(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn default_is_equivalent_to_new() {
        let mut b = GraphBuilder::default();
        assert_eq!(b.num_queries(), 0);
        b.add_query([0u32, 1]);
        let g = b.build().unwrap();
        assert_eq!(g.num_queries(), 1);
        assert_eq!(g.num_data(), 2);
    }

    #[test]
    fn duplicate_pins_are_removed() {
        let mut b = GraphBuilder::new();
        b.add_query([1u32, 1, 2, 2, 2]);
        let g = b.build().unwrap();
        assert_eq!(g.query_neighbors(0), &[1, 2]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn without_dedup_keeps_duplicates() {
        let mut b = GraphBuilder::new().without_dedup();
        b.add_query([1u32, 1, 2]);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn ensure_data_count_creates_isolated_vertices() {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1]);
        b.ensure_data_count(10);
        let g = b.build().unwrap();
        assert_eq!(g.num_data(), 10);
        assert_eq!(g.data_degree(9), 0);
    }

    #[test]
    fn weights_must_match_data_count() {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 2]);
        b.set_data_weights(vec![5, 5]); // ensure_data_count keeps 3 from the query
        assert!(b.build().is_err());
    }

    #[test]
    fn from_hyperedges_matches_incremental() {
        let g1 = GraphBuilder::from_hyperedges(vec![vec![0u32, 1], vec![1, 2, 3]]).unwrap();
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1]);
        b.add_query([1u32, 2, 3]);
        let g2 = b.build().unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn from_edge_list_groups_by_query() {
        let g = GraphBuilder::from_edge_list(&[(0, 5), (1, 2), (0, 3), (2, 0)]).unwrap();
        assert_eq!(g.num_queries(), 3);
        assert_eq!(g.query_neighbors(0), &[3, 5]);
        assert_eq!(g.query_neighbors(1), &[2]);
        assert_eq!(g.query_neighbors(2), &[0]);
        assert_eq!(g.num_data(), 6);
    }

    #[test]
    fn builder_counts_are_tracked() {
        let mut b = GraphBuilder::new();
        assert_eq!(b.num_queries(), 0);
        b.add_query([0u32, 4]);
        b.add_query([1u32]);
        assert_eq!(b.num_queries(), 2);
        assert_eq!(b.num_data(), 5);
        assert_eq!(b.num_pins(), 3);
    }

    #[test]
    fn data_side_adjacency_is_sorted_by_query_id() {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1]);
        b.add_query([0u32, 2]);
        b.add_query([0u32, 1, 2]);
        let g = b.build().unwrap();
        // Counting sort emits queries in insertion order, which is ascending query id.
        assert_eq!(g.data_neighbors(0), &[0, 1, 2]);
        assert_eq!(g.data_neighbors(1), &[0, 2]);
        assert_eq!(g.data_neighbors(2), &[1, 2]);
    }

    #[test]
    fn add_query_slice_matches_add_query() {
        let mut a = GraphBuilder::new();
        let mut b = GraphBuilder::new();
        for pins in [[5u32, 3, 3, 0].as_slice(), &[2, 2], &[7]] {
            a.add_query(pins.iter().copied());
            b.add_query_slice(pins);
        }
        assert_eq!(a.build().unwrap(), b.build().unwrap());
    }

    #[test]
    fn edge_mode_and_query_mode_pins_merge_per_query() {
        // Query 0 gets pins from both shapes; query 2 only from edges; query 1 only arena.
        let mut b = GraphBuilder::new();
        b.add_query([4u32, 1]);
        b.add_query([3u32]);
        b.add_edge(0, 2);
        b.add_edge(2, 0);
        b.add_edge(0, 1); // duplicate with the arena pin — deduplicated at build
        let g = b.build().unwrap();
        assert_eq!(g.num_queries(), 3);
        assert_eq!(g.query_neighbors(0), &[1, 2, 4]);
        assert_eq!(g.query_neighbors(1), &[3]);
        assert_eq!(g.query_neighbors(2), &[0]);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn edge_mode_without_dedup_keeps_insertion_order_after_arena_pins() {
        let mut b = GraphBuilder::new().without_dedup();
        b.add_query([4u32, 1]);
        b.add_edge(0, 4);
        b.add_edge(0, 0);
        let g = b.build().unwrap();
        assert_eq!(g.query_neighbors(0), &[4, 1, 4, 0]);
    }

    #[test]
    fn parallel_transpose_matches_sequential_on_a_large_graph() {
        // Large enough to clear the parallel threshold (2^14 pins).
        let pins_of = |seed: u64, q: u64| -> Vec<u32> {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(q);
            (0..6)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 2_000) as u32
                })
                .collect()
        };
        let mut baseline = GraphBuilder::new().with_workers(1);
        let mut parallel = GraphBuilder::new().with_workers(4);
        for q in 0..4_000u64 {
            baseline.add_query(pins_of(7, q));
            parallel.add_query(pins_of(7, q));
        }
        assert_eq!(baseline.build().unwrap(), parallel.build().unwrap());
    }

    #[test]
    fn capacity_hints_do_not_change_results() {
        let mut hinted = GraphBuilder::with_capacity(3, 8);
        hinted.reserve_pins(6);
        hinted.reserve_edges(2);
        let mut plain = GraphBuilder::new();
        for b in [&mut hinted, &mut plain] {
            b.add_query([0u32, 7]);
            b.add_query([1u32, 2, 3]);
            b.add_edge(2, 5);
        }
        plain.ensure_data_count(8);
        assert_eq!(hinted.build().unwrap(), plain.build().unwrap());
    }
}
