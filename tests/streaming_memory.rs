//! Bounded-memory gate for the streaming `.shpb` writer.
//!
//! This binary installs the peak-live-tracking allocator of `tests/peak_heap` and holds
//! exactly one test, so the measurement cannot be polluted by concurrent tests in the same
//! process.
//!
//! The claim under test: streaming a graph to disk peaks at `O(D + chunk)` live heap — the
//! degree/offset table plus one bounded transpose window — not at `O(P)` like materializing
//! the graph does. A generator whose CSR would occupy megabytes must stream through a peak
//! several times smaller than the graph itself.

mod peak_heap;

use peak_heap::peak_during;
use shp::datagen::{power_law_bipartite, PowerLawConfig, PowerLawStream};
use shp::hypergraph::io::stream_shpb_file_with;

#[test]
fn streaming_peaks_far_below_the_materialized_graph() {
    let config = PowerLawConfig {
        num_queries: 40_000,
        num_data: 12_000,
        min_degree: 4,
        max_degree: 60,
        exponent: 2.0,
        preferential: 0.5,
        seed: 0x5047,
    };

    // The materialized footprint: the owned CSR alone (ignoring the builder's transient
    // arena, which makes materializing even more expensive than this number).
    let (graph_bytes, materialize_peak) = peak_during(|| {
        let graph = power_law_bipartite(&config);
        graph.memory_bytes()
    });
    assert!(
        graph_bytes > 2 << 20,
        "fixture too small to be meaningful: CSR is only {graph_bytes} bytes"
    );
    assert!(materialize_peak >= graph_bytes);

    // Streaming the very same graph to disk with a small transpose window. The peak must be
    // bounded by O(D + chunk) — the degree table (12k × 8 B), the writer's fixed buffers
    // (~320 KiB of BufWriter + staging), and the 8k-pin window — and must stay several times
    // below the graph it would have taken to materialize.
    let path = std::env::temp_dir().join(format!("shp-stream-mem-{}.shpb", std::process::id()));
    let (stats, stream_peak) = peak_during(|| {
        let mut stream = PowerLawStream::new(config.clone());
        stream_shpb_file_with(&mut stream, &path, 8 << 10).unwrap()
    });
    std::fs::remove_file(&path).ok();

    assert_eq!(stats.num_queries as usize, config.num_queries);
    assert!(stats.num_pins as usize * 8 > graph_bytes / 2, "sanity");
    assert!(
        stream_peak * 4 < graph_bytes,
        "streaming peaked at {stream_peak} bytes, more than a quarter of the {graph_bytes}-byte \
         CSR it avoids materializing"
    );
    assert!(
        stream_peak < materialize_peak / 4,
        "streaming peak {stream_peak} vs materialization peak {materialize_peak}"
    );
}
