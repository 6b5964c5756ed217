//! # shp-core
//!
//! The Social Hash Partitioner (SHP): a scalable hypergraph partitioner that minimizes query
//! fanout by local search on the *probabilistic fanout* objective, as described in
//! "Social Hash Partitioner: A Scalable Distributed Hypergraph Partitioner" (Kabiljo et al.,
//! VLDB 2017).
//!
//! Two execution paths implement the same algorithm:
//!
//! * the in-process path ([`partition_direct`] for SHP-k, [`partition_recursive`] for
//!   SHP-2 / SHP-r), whose refinement sweeps — gain computation, neighbor-data and
//!   gain-histogram construction — run on the rayon shim's scoped thread pool with
//!   `ShpConfig::workers` (`PartitionSpec::workers`) threads, and
//! * the distributed path ([`distributed::partition_distributed`]) which runs the identical
//!   four-superstep iteration (Figure 3 of the paper) on the vertex-centric BSP engine of
//!   `shp-vertex-centric`, with per-superstep communication accounting and one real thread
//!   per simulated worker.
//!
//! # Determinism contract
//!
//! Parallelism never changes results: every parallel phase splits its index space into
//! contiguous chunks and merges the per-chunk results **in chunk order** (ordered chunk
//! reduction — see the vendored `rayon` crate docs), and probabilistic move decisions hash
//! `(seed, iteration, vertex)` instead of sampling from a shared RNG stream. A fixed
//! [`api::PartitionSpec`] therefore produces a bit-identical [`api::PartitionOutcome`] for
//! every worker count, which `tests/parallel_conformance.rs` enforces for all registered
//! algorithms.
//!
//! Every execution path (plus the baselines of `shp-baselines`) is also reachable through the
//! unified [`api`] module — one [`api::Partitioner`] trait, one [`api::PartitionSpec`], one
//! [`api::PartitionOutcome`], and a runtime [`api::AlgorithmRegistry`] for dispatch by name.
//!
//! For example, SHP-2 through the registry:
//!
//! ```
//! use shp_core::api::{AlgorithmRegistry, NoopObserver, PartitionSpec};
//! use shp_hypergraph::GraphBuilder;
//!
//! // Three queries over six data records (Figure 1 of the paper).
//! let mut builder = GraphBuilder::new();
//! builder.add_query([0, 1, 5]);
//! builder.add_query([0, 1, 2, 3]);
//! builder.add_query([3, 4, 5]);
//! let graph = builder.build().unwrap();
//!
//! let spec = PartitionSpec::new(2);
//! let outcome = AlgorithmRegistry::core()
//!     .run("shp2", &graph, &spec, &mut NoopObserver)
//!     .unwrap();
//! assert_eq!(outcome.partition.num_buckets(), 2);
//! assert!(outcome.fanout <= 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod direct;
pub mod distributed;
pub mod error;
pub mod gains;
pub mod histogram;
pub mod incremental;
pub mod multidim;
pub mod neighbor_data;
pub mod objective;
pub mod pair_table;
pub mod recursive;
pub mod refinement;
pub mod report;
pub mod swap;

pub use api::{
    AlgorithmRegistry, BoxedPartitioner, DistributedShp, IncrementalShp, IterationEvent,
    NoopObserver, PartitionOutcome, PartitionSpec, Partitioner, ProgressObserver, Shp2, ShpK,
    TelemetryObserver, TraceObserver,
};
pub use config::{BalanceMode, ObjectiveKind, PartitionMode, ShpConfig, SwapStrategy};
pub use direct::partition_direct;
pub use distributed::{partition_distributed, DistributedRunResult};
pub use error::{ShpError, ShpResult};
pub use gains::{GainKernel, GainScratch, MoveProposal, TargetConstraint};
pub use incremental::{partition_incremental, IncrementalConfig};
pub use multidim::{partition_multidimensional, MultiDimConfig};
pub use neighbor_data::NeighborData;
pub use objective::Objective;
pub use pair_table::PairTable;
pub use recursive::partition_recursive;
pub use refinement::{ActiveSet, IterationStats, Refiner};
pub use report::{LevelReport, PartitionResult, RunReport};
