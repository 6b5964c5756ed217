//! Bounded-memory gate for SHP-2 at many buckets.
//!
//! This binary installs the peak-live-tracking allocator of `tests/peak_heap` and holds
//! exactly one test, so the measurement cannot be polluted by concurrent tests in the same
//! process.
//!
//! The claim under test: a recursive-bisection level costs memory in the pairs and pins it
//! touches, not in `k²`. Only sibling buckets can swap, so every pair table of the last level
//! holds about `k` slots. Tables sized by the full level width would need 64 MiB per table
//! at k = 4096 (this run peaked at about 216 MiB with them); sibling-sized tables keep the
//! whole run to a few MiB above the graph.

mod peak_heap;

use peak_heap::peak_during;
use shp::core::{partition_recursive, ShpConfig};
use shp::datagen::{power_law_bipartite, PowerLawConfig};

#[test]
fn bisection_at_4096_buckets_stays_within_32_mib_of_heap() {
    let graph = power_law_bipartite(&PowerLawConfig {
        num_queries: 40_000,
        num_data: 20_000,
        min_degree: 2,
        max_degree: 40,
        exponent: 2.0,
        preferential: 0.5,
        seed: 0x5047,
    });
    // Two workers, so the per-worker partial histogram sets are part of the measurement.
    let config = ShpConfig::recursive_bisection(4096)
        .with_max_iterations(2)
        .with_workers(2)
        .with_seed(1);

    let (result, peak) = peak_during(|| partition_recursive(&graph, &config).unwrap());

    assert_eq!(result.partition.num_buckets(), 4096);
    assert_eq!(result.report.levels.len(), 12);
    assert!(
        peak <= 32 << 20,
        "partitioning into 4096 buckets peaked at {:.1} MiB of extra live heap",
        peak as f64 / f64::from(1 << 20)
    );
    println!(
        "peak extra live heap: {:.1} MiB",
        peak as f64 / f64::from(1 << 20)
    );
}
