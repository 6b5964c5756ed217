//! Readers and writers for graphs and partitions.
//!
//! Four formats are supported:
//!
//! * **Bipartite edge list** — one `query_id<TAB>data_id` pair per line, `#` comments allowed.
//!   This mirrors the SNAP edge-list format the paper's datasets are distributed in.
//! * **hMetis hypergraph format** — the de-facto standard exchanged between hypergraph
//!   partitioners (hMetis, PaToH, Mondriaan, Parkway, Zoltan): a header line
//!   `num_hyperedges num_vertices`, then one line of 1-based vertex ids per hyperedge.
//! * **`.shpb` compact binary** — a checksummed little-endian container holding the CSR
//!   arrays verbatim (see [`shpb`]), an order of magnitude faster to load than text.
//! * **Partition files** — one bucket id per line, line `i` holding the bucket of data
//!   vertex `i`; the format the open-sourced SHP job and the other partitioners emit.
//!
//! # The ingestion hot path
//!
//! The text readers are zero-copy: the input is loaded into one byte buffer and scanned in
//! place (no per-line `String`, no UTF-8 validation, a hand-rolled decimal parser), streaming
//! records straight into the flat-arena [`GraphBuilder`]. [`parse_edge_list_bytes`] and
//! [`parse_hmetis_bytes`] additionally split the buffer **at line boundaries** into chunks
//! parsed on real threads and merged in chunk order — the parsed graph *and* the line numbers
//! of [`GraphError::Parse`] are bit-identical for every worker count, and equal to those of
//! the per-line `String` readers kept in `shp_bench::oracles::ingest`
//! (`tests/parallel_conformance.rs` and the `graph_ingest` bench lock this in).
//!
//! [`GraphFormat`] resolves a graph file's format from its extension, falling back to
//! content sniffing (`.shpb` magic, comment style); [`read_graph_file`] composes detection
//! and parsing for callers that accept "any graph file", like the CLI subcommands.

mod scan;
pub mod shpb;
pub mod stream;

pub use shpb::{
    map_shpb_file, parse_shpb_bytes, read_shpb, read_shpb_file, write_shpb, write_shpb_file,
    SHPB_VERSION,
};
pub use stream::{stream_shpb_file, stream_shpb_file_with, QueryStream, StreamStats};

use crate::bipartite::BipartiteGraph;
use crate::builder::GraphBuilder;
use crate::error::{GraphError, Result};
use crate::partition::{BucketId, Partition};
use std::io::{Read, Write};
use std::path::Path;

// ---------------------------------------------------------------------------------------------
// Format detection
// ---------------------------------------------------------------------------------------------

/// A graph file format, resolvable from a name, a file extension, or file contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// Plain-text bipartite edge list (`query data` per line).
    EdgeList,
    /// hMetis hypergraph text format.
    Hmetis,
    /// `.shpb` compact binary container.
    Shpb,
}

impl GraphFormat {
    /// Resolves a format from a user-supplied name (CLI `--from`/`--to` values).
    pub fn from_name(name: &str) -> Option<GraphFormat> {
        match name.to_ascii_lowercase().as_str() {
            "edgelist" | "edge-list" | "edges" | "txt" | "tsv" => Some(GraphFormat::EdgeList),
            "hmetis" | "hgr" => Some(GraphFormat::Hmetis),
            "shpb" | "binary" | "bin" => Some(GraphFormat::Shpb),
            _ => None,
        }
    }

    /// Resolves a format from a path's extension: `.shpb` → binary; `.hgr`, `.hmetis`,
    /// `.graph` → hMetis; `.txt`, `.tsv`, `.edges`, `.edgelist`, `.el` → edge list.
    pub fn from_extension<P: AsRef<Path>>(path: P) -> Option<GraphFormat> {
        let extension = path.as_ref().extension()?.to_str()?.to_ascii_lowercase();
        match extension.as_str() {
            "shpb" => Some(GraphFormat::Shpb),
            "hgr" | "hmetis" | "graph" => Some(GraphFormat::Hmetis),
            "txt" | "tsv" | "edges" | "edgelist" | "el" => Some(GraphFormat::EdgeList),
            _ => None,
        }
    }

    /// Guesses a format from file contents: the `.shpb` magic wins, a first non-blank byte of
    /// `#` means an edge list, anything else (including `%` comments) is read as hMetis —
    /// the two text formats are otherwise ambiguous, and hMetis is the workspace's primary
    /// interchange format.
    pub fn sniff(bytes: &[u8]) -> GraphFormat {
        if bytes.starts_with(&shpb::MAGIC) {
            return GraphFormat::Shpb;
        }
        match bytes.iter().find(|b| !b.is_ascii_whitespace()) {
            Some(b'#') => GraphFormat::EdgeList,
            _ => GraphFormat::Hmetis,
        }
    }

    /// Full detection for an input file: extension first, then content sniffing.
    pub fn detect<P: AsRef<Path>>(path: P, bytes: &[u8]) -> GraphFormat {
        GraphFormat::from_extension(path).unwrap_or_else(|| GraphFormat::sniff(bytes))
    }

    /// Canonical lowercase name (the values accepted by [`GraphFormat::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            GraphFormat::EdgeList => "edgelist",
            GraphFormat::Hmetis => "hmetis",
            GraphFormat::Shpb => "shpb",
        }
    }
}

/// Reads a graph file of any supported format, detected from the extension or the contents.
pub fn read_graph_file<P: AsRef<Path>>(path: P) -> Result<BipartiteGraph> {
    read_graph_file_with(path, 1)
}

/// Like [`read_graph_file`], parsing text formats with up to `workers` threads.
pub fn read_graph_file_with<P: AsRef<Path>>(path: P, workers: usize) -> Result<BipartiteGraph> {
    let span = shp_telemetry::Span::enter("ingest/read_graph");
    let bytes = std::fs::read(&path)?;
    if shp_telemetry::enabled() {
        shp_telemetry::global()
            .counter("ingest/bytes_read")
            .add(bytes.len() as u64);
    }
    let (format, child) = match GraphFormat::detect(&path, &bytes) {
        GraphFormat::EdgeList => (GraphFormat::EdgeList, "parse_edge_list"),
        GraphFormat::Hmetis => (GraphFormat::Hmetis, "parse_hmetis"),
        GraphFormat::Shpb => (GraphFormat::Shpb, "parse_shpb"),
    };
    let _parse_span = span.child(child);
    match format {
        GraphFormat::EdgeList => parse_edge_list_bytes(&bytes, workers),
        GraphFormat::Hmetis => parse_hmetis_bytes(&bytes, workers),
        GraphFormat::Shpb => parse_shpb_bytes(&bytes),
    }
}

/// Writes a graph to a file in the given format.
pub fn write_graph_file<P: AsRef<Path>>(
    graph: &BipartiteGraph,
    path: P,
    format: GraphFormat,
) -> Result<()> {
    let _span = shp_telemetry::Span::enter("ingest/write_graph");
    match format {
        GraphFormat::EdgeList => write_edge_list(graph, std::fs::File::create(&path)?),
        GraphFormat::Hmetis => write_hmetis_file(graph, &path),
        GraphFormat::Shpb => write_shpb_file(graph, &path),
    }?;
    if shp_telemetry::enabled() {
        if let Ok(meta) = std::fs::metadata(&path) {
            shp_telemetry::global()
                .counter("ingest/bytes_written")
                .add(meta.len());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------------------------
// Edge lists
// ---------------------------------------------------------------------------------------------

/// Reads a bipartite edge list (`query<TAB or space>data` per line) from a reader.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<BipartiteGraph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_edge_list_bytes(&bytes, 1)
}

/// Parses an in-memory edge list with up to `workers` threads. The result (including
/// parse-error line numbers) is identical for every worker count.
pub fn parse_edge_list_bytes(bytes: &[u8], workers: usize) -> Result<BipartiteGraph> {
    let workers = workers.max(1);
    let mut builder = GraphBuilder::new().with_workers(workers);
    if workers == 1 {
        // `"123\t45678\n"` is ~10 bytes per edge; reserving at a denser estimate keeps the
        // arena to one grow in the worst case instead of O(log n).
        builder.reserve_edges(bytes.len() / 10 + 4);
        scan::scan_edge_records(bytes, |q, v| builder.add_edge(q, v)).map_err(|e| {
            GraphError::Parse {
                line: e.line,
                message: e.message,
            }
        })?;
    } else {
        let chunks = scan::line_aligned_chunks(bytes, workers);
        let parsed = rayon::pool::map_vec(chunks, workers, |_, range| {
            let slice = &bytes[range];
            let mut edges: Vec<(u32, u32)> = Vec::with_capacity(slice.len() / 10 + 4);
            scan::scan_edge_records(slice, |q, v| edges.push((q, v))).map(|lines| (lines, edges))
        });
        let total: usize = parsed
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|(_, edges)| edges.len())
            .sum();
        builder.reserve_edges(total);
        let mut line_offset = 0usize;
        for chunk in parsed {
            match chunk {
                Ok((lines, edges)) => {
                    line_offset += lines;
                    builder.add_edges(edges);
                }
                Err(e) => {
                    return Err(GraphError::Parse {
                        line: line_offset + e.line,
                        message: e.message,
                    })
                }
            }
        }
    }
    builder.build()
}

/// Writes a bipartite edge list to a writer.
pub fn write_edge_list<W: Write>(graph: &BipartiteGraph, writer: W) -> Result<()> {
    let mut w = ByteWriter::new(writer);
    w.text(b"# bipartite edge list: query_id\tdata_id\n")?;
    for (q, v) in graph.edges() {
        w.decimal(q);
        w.byte(b'\t');
        w.decimal(v);
        w.byte(b'\n');
        w.maybe_flush()?;
    }
    w.finish()
}

// ---------------------------------------------------------------------------------------------
// hMetis
// ---------------------------------------------------------------------------------------------

/// Reads a hypergraph in (unweighted) hMetis format from a reader.
///
/// The format is: a header `|Q| |D|`, followed by `|Q|` lines each listing the 1-based data
/// vertex ids of one hyperedge.
pub fn read_hmetis<R: Read>(mut reader: R) -> Result<BipartiteGraph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_hmetis_bytes(&bytes, 1)
}

/// Parses an in-memory hMetis document with up to `workers` threads. The result (including
/// parse-error line numbers) is identical for every worker count.
pub fn parse_hmetis_bytes(bytes: &[u8], workers: usize) -> Result<BipartiteGraph> {
    let workers = workers.max(1);

    // Find the header record (skipping comments) sequentially.
    let mut records = scan::Records::new(bytes);
    let mut header = None;
    for (line, raw) in records.by_ref() {
        let record = raw.trim_ascii();
        if record.is_empty() || record[0] == b'%' {
            continue;
        }
        header = Some((line, record));
        break;
    }
    let Some((header_line, header)) = header else {
        return Err(GraphError::EmptyGraph);
    };
    let mut tokens = scan::Tokens::new(header);
    let num_hyperedges = parse_u32_token(tokens.next(), header_line, "hyperedge count")? as usize;
    let num_vertices = parse_u32_token(tokens.next(), header_line, "vertex count")? as usize;

    // Scan the body (everything after the header line), in parallel for workers > 1.
    let body = &bytes[records.pos()..];
    let chunks: Vec<scan::HedgeChunk> = if workers == 1 {
        vec![scan::scan_hmetis_records(body, num_vertices)]
    } else {
        let ranges = scan::line_aligned_chunks(body, workers);
        rayon::pool::map_vec(ranges, workers, |_, range| {
            scan::scan_hmetis_records(&body[range], num_vertices)
        })
    };

    // Merge in chunk order, consuming exactly the declared number of hyperedges: records —
    // and even scan errors — past that count are ignored, like a per-line reader that stops
    // at the declared count. The offsets reservation is clamped by what the body could
    // possibly hold (a record is at least two bytes), so a corrupt header count cannot
    // trigger an enormous allocation — the short file then fails the "expected N
    // hyperedges" check.
    let plausible_records = num_hyperedges.min(body.len() / 2 + 1);
    let mut builder =
        GraphBuilder::with_capacity(plausible_records, num_vertices).with_workers(workers);
    builder.reserve_pins(chunks.iter().map(|c| c.pins.len()).sum());
    let mut read_edges = 0usize;
    let mut line_offset = header_line;
    'merge: for chunk in &chunks {
        let mut at = 0usize;
        for &len in &chunk.lens {
            if read_edges == num_hyperedges {
                break 'merge;
            }
            builder.add_query_slice(&chunk.pins[at..at + len as usize]);
            at += len as usize;
            read_edges += 1;
        }
        if read_edges == num_hyperedges {
            break;
        }
        if let Some(error) = &chunk.error {
            return Err(GraphError::Parse {
                line: line_offset + error.line,
                message: error.message.clone(),
            });
        }
        line_offset += chunk.lines;
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

/// Reads an hMetis hypergraph from a file path.
pub fn read_hmetis_file<P: AsRef<Path>>(path: P) -> Result<BipartiteGraph> {
    parse_hmetis_bytes(&std::fs::read(path)?, 1)
}

/// Writes a hypergraph in hMetis format.
pub fn write_hmetis<W: Write>(graph: &BipartiteGraph, writer: W) -> Result<()> {
    let mut w = ByteWriter::new(writer);
    w.decimal(graph.num_queries() as u32);
    w.byte(b' ');
    w.decimal(graph.num_data() as u32);
    w.byte(b'\n');
    for q in graph.queries() {
        let mut first = true;
        for &v in graph.query_neighbors(q) {
            if !first {
                w.byte(b' ');
            }
            first = false;
            w.decimal(v + 1);
        }
        w.byte(b'\n');
        w.maybe_flush()?;
    }
    w.finish()
}

/// Writes a hypergraph in hMetis format to a file path.
pub fn write_hmetis_file<P: AsRef<Path>>(graph: &BipartiteGraph, path: P) -> Result<()> {
    write_hmetis(graph, std::fs::File::create(path)?)
}

// ---------------------------------------------------------------------------------------------
// Partition files
// ---------------------------------------------------------------------------------------------

/// Reads a partition file (one bucket id per line) and pairs it with a graph.
///
/// Every entry is validated as it is read: a bucket id `>= k`, an entry beyond the graph's
/// data-vertex count, or a file ending before every data vertex has a bucket all produce a
/// line-numbered [`GraphError::Parse`] instead of a partition that silently disagrees with
/// the graph.
pub fn read_partition<R: Read>(graph: &BipartiteGraph, k: u32, mut reader: R) -> Result<Partition> {
    if k == 0 {
        return Err(GraphError::InvalidBucketCount(k));
    }
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let expected = graph.num_data();
    let mut assignment: Vec<BucketId> = Vec::with_capacity(expected);
    let records = scan::Records::new(&bytes);
    let mut last_line = 0usize;
    for (line, raw) in records {
        let t = raw.trim_ascii();
        last_line = line;
        if t.is_empty() || t[0] == b'#' {
            continue;
        }
        if assignment.len() == expected {
            return Err(GraphError::Parse {
                line,
                message: format!(
                    "unexpected extra entry {}: the graph has only {expected} data vertices",
                    scan::token_display(t)
                ),
            });
        }
        let b = scan::parse_u32_digits(t).ok_or_else(|| GraphError::Parse {
            line,
            message: format!("invalid bucket id {}", scan::token_display(t)),
        })?;
        if b >= k {
            return Err(GraphError::Parse {
                line,
                message: format!("bucket id {b} out of range (declared bucket count k = {k})"),
            });
        }
        assignment.push(b);
    }
    if assignment.len() != expected {
        return Err(GraphError::Parse {
            line: last_line + 1,
            message: format!(
                "truncated partition file: found {} entries but the graph has {expected} data vertices",
                assignment.len()
            ),
        });
    }
    Partition::from_assignment(graph, k, assignment)
}

/// Reads a partition file from a path.
pub fn read_partition_file<P: AsRef<Path>>(
    graph: &BipartiteGraph,
    k: u32,
    path: P,
) -> Result<Partition> {
    read_partition(graph, k, std::fs::File::open(path)?)
}

/// Writes a partition as one bucket id per line.
pub fn write_partition<W: Write>(partition: &Partition, writer: W) -> Result<()> {
    let mut w = ByteWriter::new(writer);
    for &b in partition.assignment() {
        w.decimal(b);
        w.byte(b'\n');
        w.maybe_flush()?;
    }
    w.finish()
}

/// Writes a partition file to a path.
pub fn write_partition_file<P: AsRef<Path>>(partition: &Partition, path: P) -> Result<()> {
    write_partition(partition, std::fs::File::create(path)?)
}

// ---------------------------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------------------------

/// A buffered text emitter rendering integers through a reusable byte buffer (itoa-style):
/// one `write_all` per 64 KiB instead of one `fmt::Write` round trip per line.
struct ByteWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

const WRITER_FLUSH: usize = 64 << 10;

impl<W: Write> ByteWriter<W> {
    fn new(inner: W) -> Self {
        ByteWriter {
            inner,
            buf: Vec::with_capacity(WRITER_FLUSH + 32),
        }
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    fn text(&mut self, text: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(text);
        self.maybe_flush()
    }

    /// Renders `v` in decimal straight into the buffer.
    #[inline]
    fn decimal(&mut self, mut v: u32) {
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.buf.extend_from_slice(&digits[at..]);
    }

    #[inline]
    fn maybe_flush(&mut self) -> Result<()> {
        if self.buf.len() >= WRITER_FLUSH {
            self.inner.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(mut self) -> Result<()> {
        if !self.buf.is_empty() {
            self.inner.write_all(&self.buf)?;
        }
        self.inner.flush()?;
        Ok(())
    }
}

/// Parses a byte token, naming `what` in the error message.
fn parse_u32_token(token: Option<&[u8]>, line: usize, what: &str) -> Result<u32> {
    let token = token.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    scan::parse_u32_digits(token).ok_or_else(|| GraphError::Parse {
        line,
        message: format!("invalid {what}: {}", scan::token_display(token)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn figure1() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 5]);
        b.add_query([0u32, 1, 2, 3]);
        b.add_query([3u32, 4, 5]);
        b.build().unwrap()
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = figure1();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_skips_comments_and_blank_lines() {
        let text = "# comment\n\n0 1\n0\t2\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_queries(), 2);
        assert_eq!(g.num_data(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_list_rejects_malformed_lines() {
        assert!(read_edge_list("0".as_bytes()).is_err());
        assert!(read_edge_list("0 1 2".as_bytes()).is_err());
        assert!(read_edge_list("a b".as_bytes()).is_err());
    }

    #[test]
    fn hmetis_roundtrip() {
        let g = figure1();
        let mut buf = Vec::new();
        write_hmetis(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("3 6\n"));
        let g2 = read_hmetis(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn hmetis_rejects_out_of_range_and_short_files() {
        // Vertex id 0 is invalid in the 1-based format.
        assert!(read_hmetis("1 3\n0 1\n".as_bytes()).is_err());
        // Vertex id above the declared count.
        assert!(read_hmetis("1 3\n1 4\n".as_bytes()).is_err());
        // Fewer hyperedge lines than declared.
        assert!(read_hmetis("2 3\n1 2\n".as_bytes()).is_err());
        // Completely empty file.
        assert!(read_hmetis("".as_bytes()).is_err());
    }

    #[test]
    fn hmetis_corrupt_header_counts_fail_without_huge_allocations() {
        // A tiny file declaring u32::MAX hyperedges must produce a parse error, not a
        // multi-gigabyte capacity reservation.
        for workers in [1usize, 4] {
            match parse_hmetis_bytes(b"4294967295 1\n1\n", workers) {
                Err(GraphError::Parse { message, .. }) => {
                    assert!(message.contains("expected 4294967295"), "{message}");
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn hmetis_skips_percent_comments() {
        let g = read_hmetis("% header comment\n2 3\n1 2\n% between\n2 3\n".as_bytes()).unwrap();
        assert_eq!(g.num_queries(), 2);
        assert_eq!(g.query_neighbors(1), &[1, 2]);
    }

    #[test]
    fn writers_match_the_formatting_machinery_byte_for_byte() {
        use std::io::Write as _;
        let g = figure1();

        let mut fast = Vec::new();
        write_edge_list(&g, &mut fast).unwrap();
        let mut slow = Vec::new();
        writeln!(slow, "# bipartite edge list: query_id\tdata_id").unwrap();
        for (q, v) in g.edges() {
            writeln!(slow, "{q}\t{v}").unwrap();
        }
        assert_eq!(fast, slow);

        let mut fast = Vec::new();
        write_hmetis(&g, &mut fast).unwrap();
        let mut slow = Vec::new();
        writeln!(slow, "{} {}", g.num_queries(), g.num_data()).unwrap();
        for q in g.queries() {
            let line: Vec<String> = g
                .query_neighbors(q)
                .iter()
                .map(|&v| (v + 1).to_string())
                .collect();
            writeln!(slow, "{}", line.join(" ")).unwrap();
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn format_detection_by_extension_magic_and_comment_style() {
        assert_eq!(
            GraphFormat::from_extension("a/b.shpb"),
            Some(GraphFormat::Shpb)
        );
        assert_eq!(
            GraphFormat::from_extension("a/b.hgr"),
            Some(GraphFormat::Hmetis)
        );
        assert_eq!(
            GraphFormat::from_extension("a/b.edges"),
            Some(GraphFormat::EdgeList)
        );
        assert_eq!(GraphFormat::from_extension("a/b.dat"), None);
        assert_eq!(GraphFormat::from_extension("noext"), None);

        assert_eq!(
            GraphFormat::sniff(b"SHPB\x01\x00\x00\x00"),
            GraphFormat::Shpb
        );
        assert_eq!(
            GraphFormat::sniff(b"# an edge list\n0 1\n"),
            GraphFormat::EdgeList
        );
        assert_eq!(
            GraphFormat::sniff(b"% hmetis comment\n1 2\n"),
            GraphFormat::Hmetis
        );
        assert_eq!(GraphFormat::sniff(b"3 6\n1 2 6\n"), GraphFormat::Hmetis);

        // Extension wins over contents.
        assert_eq!(
            GraphFormat::detect("g.txt", b"3 6\n1 2 6\n"),
            GraphFormat::EdgeList
        );
        // No (or unknown) extension falls back to sniffing.
        assert_eq!(
            GraphFormat::detect("g.dat", b"SHPB rest"),
            GraphFormat::Shpb
        );

        for format in [
            GraphFormat::EdgeList,
            GraphFormat::Hmetis,
            GraphFormat::Shpb,
        ] {
            assert_eq!(GraphFormat::from_name(format.name()), Some(format));
        }
        assert_eq!(GraphFormat::from_name("csv"), None);
    }

    #[test]
    fn read_graph_file_autodetects_all_three_formats() {
        let dir = std::env::temp_dir().join(format!("shp-io-detect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = figure1();

        let hgr = dir.join("g.hgr");
        write_graph_file(&g, &hgr, GraphFormat::Hmetis).unwrap();
        assert_eq!(read_graph_file(&hgr).unwrap(), g);

        let txt = dir.join("g.txt");
        write_graph_file(&g, &txt, GraphFormat::EdgeList).unwrap();
        assert_eq!(read_graph_file(&txt).unwrap(), g);

        let bin = dir.join("g.shpb");
        write_graph_file(&g, &bin, GraphFormat::Shpb).unwrap();
        assert_eq!(read_graph_file(&bin).unwrap(), g);

        // Contents-based detection: binary container behind an unknown extension.
        let disguised = dir.join("g.dat");
        write_graph_file(&g, &disguised, GraphFormat::Shpb).unwrap();
        assert_eq!(read_graph_file_with(&disguised, 4).unwrap(), g);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partition_roundtrip() {
        let g = figure1();
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let mut buf = Vec::new();
        write_partition(&p, &mut buf).unwrap();
        let p2 = read_partition(&g, 2, &buf[..]).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn partition_read_validates_length_and_range() {
        let g = figure1();
        assert!(read_partition(&g, 2, "0\n1\n".as_bytes()).is_err());
        assert!(read_partition(&g, 2, "0\n0\n0\n1\n1\n7\n".as_bytes()).is_err());
        assert!(read_partition(&g, 2, "0\nx\n0\n1\n1\n1\n".as_bytes()).is_err());
    }

    #[test]
    fn partition_read_errors_carry_line_numbers() {
        let g = figure1(); // 6 data vertices

        // Out-of-range bucket id on line 6 (k = 2 declares buckets 0 and 1).
        match read_partition(&g, 2, "0\n0\n0\n1\n1\n7\n".as_bytes()) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 6);
                assert!(message.contains("bucket id 7"), "{message}");
                assert!(message.contains("k = 2"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }

        // Truncated file: only 2 of 6 entries, reported just past the last line read.
        match read_partition(&g, 2, "# header\n0\n1\n".as_bytes()) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("truncated"), "{message}");
                assert!(message.contains("found 2"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }

        // Overlong file: a 7th entry for a 6-vertex graph is rejected at its line.
        match read_partition(&g, 2, "0\n0\n0\n1\n1\n1\n0\n".as_bytes()) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 7);
                assert!(message.contains("extra entry"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }

        // Zero buckets are rejected up front.
        assert!(matches!(
            read_partition(&g, 0, "0\n".as_bytes()),
            Err(GraphError::InvalidBucketCount(0))
        ));

        // Comments and blank lines do not count as entries.
        let p = read_partition(&g, 2, "# c\n0\n\n0\n0\n1\n1\n1\n".as_bytes()).unwrap();
        assert_eq!(p.assignment(), &[0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn file_based_roundtrip() {
        let dir = std::env::temp_dir().join(format!("shp-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = figure1();
        let graph_path = dir.join("graph.hgr");
        let part_path = dir.join("graph.part");
        write_hmetis_file(&g, &graph_path).unwrap();
        let g2 = read_hmetis_file(&graph_path).unwrap();
        assert_eq!(g, g2);
        let p = Partition::from_assignment(&g, 3, vec![0, 1, 2, 0, 1, 2]).unwrap();
        write_partition_file(&p, &part_path).unwrap();
        let p2 = read_partition_file(&g, 3, &part_path).unwrap();
        assert_eq!(p, p2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
