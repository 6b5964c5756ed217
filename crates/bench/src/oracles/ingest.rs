//! The per-query-`Vec` CSR build and the per-line text readers: the reference for
//! `shp_hypergraph`'s flat-arena [`GraphBuilder`](shp_hypergraph::GraphBuilder) and its
//! zero-copy parallel parsers.
//!
//! [`ReferenceBuilder`] keeps one `Vec<DataId>` per hyperedge and assembles both CSR
//! directions sequentially; [`read_edge_list`] and [`read_hmetis`] read one `String` per line
//! and parse tokens with `str::parse`. The result is a [`ReferenceGraph`] — plain CSR arrays —
//! which compares equal to a [`BipartiteGraph`] when every row in both directions and every
//! data weight agree, as seen through the graph's public accessors.

use shp_hypergraph::{BipartiteGraph, DataId, GraphError, QueryId};
use std::io::{BufRead, BufReader, Read};

/// A graph in CSR form, as the reference build assembles it.
#[derive(Debug)]
pub struct ReferenceGraph {
    /// `query_offsets[q]..query_offsets[q + 1]` indexes query `q`'s pins.
    query_offsets: Vec<u64>,
    /// Concatenated pins of all queries.
    query_adjacency: Vec<DataId>,
    /// `data_offsets[v]..data_offsets[v + 1]` indexes data vertex `v`'s queries.
    data_offsets: Vec<u64>,
    /// Concatenated queries of all data vertices, ascending per vertex.
    data_adjacency: Vec<QueryId>,
    /// Explicit data weights, when any were attached.
    data_weights: Option<Vec<u32>>,
}

impl ReferenceGraph {
    fn rows<'a>(offsets: &'a [u64], adjacency: &'a [u32]) -> impl Iterator<Item = &'a [u32]> {
        offsets
            .windows(2)
            .map(move |w| &adjacency[w[0] as usize..w[1] as usize])
    }
}

impl PartialEq<BipartiteGraph> for ReferenceGraph {
    fn eq(&self, graph: &BipartiteGraph) -> bool {
        let weights_match = match &self.data_weights {
            None => !graph.has_weights(),
            Some(weights) => {
                graph.has_weights()
                    && graph
                        .data_vertices()
                        .all(|v| graph.data_weight(v) == weights[v as usize])
            }
        };
        self.query_offsets.len() == graph.num_queries() + 1
            && self.data_offsets.len() == graph.num_data() + 1
            && Self::rows(&self.query_offsets, &self.query_adjacency)
                .zip(graph.queries())
                .all(|(row, q)| row == graph.query_neighbors(q))
            && Self::rows(&self.data_offsets, &self.data_adjacency)
                .zip(graph.data_vertices())
                .all(|(row, v)| row == graph.data_neighbors(v))
            && weights_match
    }
}

impl PartialEq<ReferenceGraph> for BipartiteGraph {
    fn eq(&self, reference: &ReferenceGraph) -> bool {
        reference == self
    }
}

/// The per-query-`Vec` builder, with `GraphBuilder`'s contract: pins are deduplicated within
/// each hyperedge (unless [`ReferenceBuilder::without_dedup`]), data and edge-mode query ids
/// are taken literally, and edge pairs are appended to their query's pins at build time.
#[derive(Debug)]
pub struct ReferenceBuilder {
    queries: Vec<Vec<DataId>>,
    edges: Vec<(QueryId, DataId)>,
    edge_num_queries: usize,
    num_data: usize,
    data_weights: Option<Vec<u32>>,
    dedup_pins: bool,
}

impl Default for ReferenceBuilder {
    fn default() -> Self {
        ReferenceBuilder::new()
    }
}

impl ReferenceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ReferenceBuilder {
            queries: Vec::new(),
            edges: Vec::new(),
            edge_num_queries: 0,
            num_data: 0,
            data_weights: None,
            dedup_pins: true,
        }
    }

    /// Keeps duplicate pins within a hyperedge.
    pub fn without_dedup(mut self) -> Self {
        self.dedup_pins = false;
        self
    }

    /// Adds one hyperedge: collect, sort, dedup, push one `Vec`.
    pub fn add_query<I: IntoIterator<Item = DataId>>(&mut self, pins: I) {
        let mut pins: Vec<DataId> = pins.into_iter().collect();
        if self.dedup_pins {
            pins.sort_unstable();
            pins.dedup();
        }
        for &v in &pins {
            self.num_data = self.num_data.max(v as usize + 1);
        }
        self.queries.push(pins);
    }

    /// Adds `(query, data)` edge pairs.
    pub fn add_edges<I: IntoIterator<Item = (QueryId, DataId)>>(&mut self, edges: I) {
        for (q, v) in edges {
            self.edge_num_queries = self.edge_num_queries.max(q as usize + 1);
            self.num_data = self.num_data.max(v as usize + 1);
            self.edges.push((q, v));
        }
    }

    /// Ensures at least `n` data vertices.
    pub fn ensure_data_count(&mut self, n: usize) {
        self.num_data = self.num_data.max(n);
    }

    /// Attaches data weights; their length must match the final data count.
    pub fn set_data_weights(&mut self, weights: Vec<u32>) {
        self.ensure_data_count(weights.len());
        self.data_weights = Some(weights);
    }

    /// Concatenates the per-query `Vec`s, then counting-sorts the data side sequentially.
    ///
    /// # Errors
    /// [`GraphError::PartitionLengthMismatch`] when attached weights do not match the data
    /// count.
    pub fn build(self) -> Result<ReferenceGraph, GraphError> {
        let num_data = self.num_data;
        if let Some(w) = &self.data_weights {
            if w.len() != num_data {
                return Err(GraphError::PartitionLengthMismatch {
                    got: w.len(),
                    expected: num_data,
                });
            }
        }
        let mut queries = self.queries;
        let num_queries = queries.len().max(self.edge_num_queries);
        queries.resize(num_queries, Vec::new());
        if !self.edges.is_empty() {
            let mut touched = vec![false; num_queries];
            for &(q, v) in &self.edges {
                queries[q as usize].push(v);
                touched[q as usize] = true;
            }
            if self.dedup_pins {
                for (q, pins) in queries.iter_mut().enumerate() {
                    if touched[q] {
                        pins.sort_unstable();
                        pins.dedup();
                    }
                }
            }
        }

        let mut query_offsets: Vec<u64> = Vec::with_capacity(num_queries + 1);
        query_offsets.push(0);
        let total_pins: usize = queries.iter().map(|q| q.len()).sum();
        let mut query_adjacency: Vec<DataId> = Vec::with_capacity(total_pins);
        for pins in &queries {
            query_adjacency.extend_from_slice(pins);
            query_offsets.push(query_adjacency.len() as u64);
        }

        let mut data_degree = vec![0u64; num_data];
        for &v in &query_adjacency {
            data_degree[v as usize] += 1;
        }
        let mut data_offsets = vec![0u64; num_data + 1];
        for v in 0..num_data {
            data_offsets[v + 1] = data_offsets[v] + data_degree[v];
        }
        let mut cursor = data_offsets.clone();
        let mut data_adjacency = vec![0 as QueryId; total_pins];
        for (q, pins) in queries.iter().enumerate() {
            for &v in pins {
                let pos = cursor[v as usize];
                data_adjacency[pos as usize] = q as QueryId;
                cursor[v as usize] = pos + 1;
            }
        }

        Ok(ReferenceGraph {
            query_offsets,
            query_adjacency,
            data_offsets,
            data_adjacency,
            data_weights: self.data_weights,
        })
    }
}

/// The per-line edge-list reader: `query data` per line, `#` comments and blank lines
/// skipped, errors reported at their 1-based line.
///
/// # Errors
/// [`GraphError::Parse`] for a malformed line, [`GraphError::Io`] for a read failure.
pub fn read_edge_list<R: Read>(reader: R) -> Result<ReferenceGraph, GraphError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let q = parse_u32(parts.next(), idx + 1, "query id")?;
        let d = parse_u32(parts.next(), idx + 1, "data id")?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: idx + 1,
                message: "expected exactly two columns".into(),
            });
        }
        edges.push((q, d));
    }
    let mut builder = ReferenceBuilder::new();
    builder.add_edges(edges);
    builder.build()
}

/// The per-line hMetis reader: a `num_hyperedges num_vertices` header, then one line of
/// 1-based vertex ids per hyperedge; `%` comments and blank lines skipped, lines past the
/// declared hyperedge count ignored.
///
/// # Errors
/// [`GraphError::EmptyGraph`] without a header, [`GraphError::Parse`] for a malformed line
/// or a short file, [`GraphError::Io`] for a read failure.
pub fn read_hmetis<R: Read>(reader: R) -> Result<ReferenceGraph, GraphError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();

    // Find the header line (skip comments starting with '%').
    let (header_line_no, header) = loop {
        match lines.next() {
            Some((idx, line)) => {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break (idx + 1, line);
            }
            None => return Err(GraphError::EmptyGraph),
        }
    };
    let mut header_parts = header.split_whitespace();
    let num_hyperedges =
        parse_u32(header_parts.next(), header_line_no, "hyperedge count")? as usize;
    let num_vertices = parse_u32(header_parts.next(), header_line_no, "vertex count")? as usize;

    let mut builder = ReferenceBuilder::new();
    let mut read_edges = 0usize;
    for (idx, line) in lines {
        if read_edges == num_hyperedges {
            break;
        }
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut pins = Vec::new();
        for token in t.split_whitespace() {
            let one_based: u32 = token.parse().map_err(|_| GraphError::Parse {
                line: idx + 1,
                message: format!("invalid vertex id {token:?}"),
            })?;
            if one_based == 0 || one_based as usize > num_vertices {
                return Err(GraphError::Parse {
                    line: idx + 1,
                    message: format!("vertex id {one_based} outside 1..={num_vertices}"),
                });
            }
            pins.push(one_based - 1);
        }
        builder.add_query(pins);
        read_edges += 1;
    }
    if read_edges != num_hyperedges {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("expected {num_hyperedges} hyperedges, found {read_edges}"),
        });
    }
    builder.ensure_data_count(num_vertices);
    builder.build()
}

/// Parses a string token with the readers' error wording.
fn parse_u32(token: Option<&str>, line: usize, what: &str) -> Result<u32, GraphError> {
    let token = token.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    token.parse().map_err(|_| GraphError::Parse {
        line,
        message: format!("invalid {what}: {token:?}"),
    })
}
