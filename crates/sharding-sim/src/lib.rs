//! # shp-sharding-sim
//!
//! A storage-sharding simulator used to reproduce the fanout-vs-latency experiments of
//! Section 4.2.1 of the SHP paper (Figure 4a/4b).
//!
//! The paper's argument for fanout as the sharding objective: a multi-get query issues its
//! per-server requests in parallel, so its latency is the *maximum* of the individual request
//! latencies; the more servers are contacted (the higher the fanout), the higher the chance of
//! hitting a slow request ("the tail at scale"). [`latency`] models exactly that mechanism: a
//! heavy-tailed per-request latency distribution normalized so that a single request has mean
//! latency `t`, plus percentile bookkeeping. `shp-serving`'s shards draw their service times
//! from it, and Figure 4 is measured on that serving path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;

pub use latency::{LatencyModel, LatencySummary};
