//! Reference implementations the optimized hot paths are checked against.
//!
//! Each oracle is the original, straightforward version of a hot path that the shipped crates
//! now run in an optimized form:
//!
//! * [`gains`] — the per-vertex `HashMap` gain kernel, against `shp_core::gains`' dense
//!   scratch kernel (bit-identical proposals, gain bits included);
//! * [`ingest`] — the per-query-`Vec` CSR build and the per-line `String` edge-list and
//!   hMetis readers, against `GraphBuilder`'s flat arena and the zero-copy parallel parsers
//!   (identical graphs, identical parse-error lines and messages);
//! * [`refinement`] — one refinement iteration from a full hash-map-kernel rescan, with the
//!   penalty, binning and coins done per proposal, against `shp_core::Refiner`'s cached
//!   standings and one-pass assembly (identical partitions and `IterationStats` bits);
//! * [`metrics`] — the `Mutex<Vec>` serving metrics with exact sorted-vector percentiles,
//!   against the lock-free `shp_serving::ServingMetrics` (exact fields equal, percentiles
//!   within the documented quantization bound).
//!
//! An oracle never calls the code it checks: the gain kernel evaluates
//! `Objective::per_query_gain` directly, the reference CSR build does not use `GraphBuilder`,
//! and a reference graph is compared with a built [`shp_hypergraph::BipartiteGraph`] through
//! its public accessors only. No shipped crate depends on `shp-bench`, so the oracles stay out
//! of production builds; the root package's tests and the `shp-bench` benches use them.

pub mod gains;
pub mod ingest;
pub mod metrics;
pub mod refinement;
