//! Engine-side graph topology: a CSR of out-neighbors per vertex.
//!
//! The topology is directed from the engine's point of view; for the bipartite SHP graph the
//! caller adds both directions (data → query and query → data) so that messages can flow both
//! ways, matching how Giraph stores the bipartite graph as undirected adjacency.

use std::borrow::Cow;

/// Immutable CSR adjacency used by the [`crate::Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
}

impl Topology {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Out-neighbors of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        &self.neighbors[start..end]
    }

    /// Out-degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Builds the CSR of the directed `edges` `(from, to)`, in two passes over them and without
    /// a buffer per vertex: each vertex lists its out-neighbors in edge order, as
    /// [`TopologyBuilder::add_edge`] would.
    ///
    /// # Panics
    /// Panics if either endpoint of an edge is out of range.
    pub fn from_edges<I>(num_vertices: usize, edges: I) -> Topology
    where
        I: IntoIterator<Item = (u32, u32)>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        let mut offsets = vec![0u64; num_vertices + 1];
        for (from, to) in edges.clone() {
            assert!(
                (from as usize) < num_vertices && (to as usize) < num_vertices,
                "edge ({from}, {to}) out of range"
            );
            offsets[from as usize + 1] += 1;
        }
        for v in 1..offsets.len() {
            offsets[v] += offsets[v - 1];
        }
        let mut cursor = offsets[..num_vertices].to_vec();
        let mut neighbors = vec![0u32; offsets[num_vertices] as usize];
        for (from, to) in edges {
            let slot = &mut cursor[from as usize];
            neighbors[*slot as usize] = to;
            *slot += 1;
        }
        Topology { offsets, neighbors }
    }
}

impl From<Topology> for Cow<'_, Topology> {
    fn from(topology: Topology) -> Self {
        Cow::Owned(topology)
    }
}

impl<'t> From<&'t Topology> for Cow<'t, Topology> {
    fn from(topology: &'t Topology) -> Self {
        Cow::Borrowed(topology)
    }
}

/// Incremental builder for a [`Topology`].
#[derive(Debug, Default, Clone)]
pub struct TopologyBuilder {
    adjacency: Vec<Vec<u32>>,
}

impl TopologyBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        TopologyBuilder {
            adjacency: vec![Vec::new(); num_vertices],
        }
    }

    /// Adds a directed edge `from → to`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: u32, to: u32) {
        assert!(
            (to as usize) < self.adjacency.len(),
            "edge target {to} out of range"
        );
        self.adjacency[from as usize].push(to);
    }

    /// Adds both directions of an undirected edge.
    pub fn add_undirected_edge(&mut self, a: u32, b: u32) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Sets the full out-neighbor list of a vertex at once (replacing any previous edges).
    pub fn set_neighbors(&mut self, v: u32, neighbors: Vec<u32>) {
        for &n in &neighbors {
            assert!(
                (n as usize) < self.adjacency.len(),
                "edge target {n} out of range"
            );
        }
        self.adjacency[v as usize] = neighbors;
    }

    /// Finalizes the builder into an immutable CSR topology.
    pub fn build(self) -> Topology {
        let n = self.adjacency.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let total: usize = self.adjacency.iter().map(|a| a.len()).sum();
        let mut neighbors = Vec::with_capacity(total);
        for adj in &self.adjacency {
            neighbors.extend_from_slice(adj);
            offsets.push(neighbors.len() as u64);
        }
        Topology { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_adjacency() {
        let mut b = TopologyBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_undirected_edge(2, 3);
        let t = b.build();
        assert_eq!(t.num_vertices(), 4);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.neighbors(0), &[1, 2]);
        assert_eq!(t.neighbors(2), &[3]);
        assert_eq!(t.neighbors(3), &[2]);
        assert_eq!(t.degree(1), 0);
    }

    #[test]
    fn set_neighbors_replaces_existing() {
        let mut b = TopologyBuilder::new(3);
        b.add_edge(0, 1);
        b.set_neighbors(0, vec![2]);
        let t = b.build();
        assert_eq!(t.neighbors(0), &[2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = TopologyBuilder::new(2);
        b.add_edge(0, 5);
    }

    #[test]
    fn from_edges_matches_the_builder() {
        let edges = [(0u32, 3u32), (2, 1), (0, 1), (3, 0), (0, 3), (1, 2)];
        let mut b = TopologyBuilder::new(5);
        for &(from, to) in &edges {
            b.add_edge(from, to);
        }
        assert_eq!(Topology::from_edges(5, edges), b.build());
        assert_eq!(Topology::from_edges(0, []), TopologyBuilder::new(0).build());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_an_out_of_range_edge() {
        Topology::from_edges(2, [(0, 2)]);
    }

    #[test]
    fn empty_topology() {
        let t = TopologyBuilder::new(0).build();
        assert_eq!(t.num_vertices(), 0);
        assert_eq!(t.num_edges(), 0);
    }
}
