//! The `Mutex<Vec>` serving metrics: the reference for the lock-free
//! `shp_serving::ServingMetrics`.
//!
//! Every observation is appended to unbounded vectors under one `Mutex`, and percentiles come
//! from the fully sorted latency list, so every report field is exact. The lock-free
//! implementation must match the exact fields bit for bit and report each percentile as the
//! lower edge of the histogram bucket holding this oracle's value.

use shp_serving::{CacheStats, ServingReport};
use std::sync::Mutex;

#[derive(Debug, Default)]
struct Inner {
    fanout_counts: Vec<u64>,
    latencies: Vec<f64>,
    shard_requests: Vec<u64>,
    min_epoch: Option<u64>,
    max_epoch: Option<u64>,
}

/// Serving metrics with exact sorted-vector percentiles; it never observes faults.
#[derive(Debug, Default)]
pub struct ReferenceServingMetrics {
    inner: Mutex<Inner>,
}

impl ReferenceServingMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served multiget (the contract of `ServingMetrics::record`): its fanout,
    /// the generation's shard count, the shards it contacted, its latency and its epoch.
    pub fn record(
        &self,
        fanout: u32,
        num_shards: u32,
        shards: impl IntoIterator<Item = u32>,
        latency: f64,
        epoch: u64,
    ) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        let f = fanout as usize;
        if inner.fanout_counts.len() <= f {
            inner.fanout_counts.resize(f + 1, 0);
        }
        inner.fanout_counts[f] += 1;
        inner.latencies.push(latency);
        if inner.shard_requests.len() < num_shards as usize {
            inner.shard_requests.resize(num_shards as usize, 0);
        }
        for shard in shards {
            let s = shard as usize;
            if inner.shard_requests.len() <= s {
                inner.shard_requests.resize(s + 1, 0);
            }
            inner.shard_requests[s] += 1;
        }
        inner.min_epoch = Some(inner.min_epoch.map_or(epoch, |e| e.min(epoch)));
        inner.max_epoch = Some(inner.max_epoch.map_or(epoch, |e| e.max(epoch)));
    }

    /// Aggregates into a report with exact sorted-vector percentiles.
    pub fn report(&self, cache: CacheStats) -> ServingReport {
        let inner = self.inner.lock().expect("metrics poisoned");
        let queries: u64 = inner.fanout_counts.iter().sum();
        let mean_fanout = if queries == 0 {
            0.0
        } else {
            inner
                .fanout_counts
                .iter()
                .enumerate()
                .map(|(f, &c)| f as f64 * c as f64)
                .sum::<f64>()
                / queries as f64
        };
        let max_fanout = inner
            .fanout_counts
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0) as u32;

        let mut sorted = inner.latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pct = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
            sorted[idx]
        };
        let mean_latency = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        };

        let shard_requests = inner.shard_requests.clone();
        let busiest = shard_requests.iter().copied().max().unwrap_or(0);
        let total_requests: u64 = shard_requests.iter().sum();
        let shard_skew = if total_requests == 0 || shard_requests.is_empty() {
            0.0
        } else {
            busiest as f64 / (total_requests as f64 / shard_requests.len() as f64)
        };

        ServingReport {
            queries,
            mean_fanout,
            max_fanout,
            fanout_histogram: inner.fanout_counts.clone(),
            mean_latency,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            p999: pct(0.999),
            shard_requests,
            shard_skew,
            cache,
            min_epoch: inner.min_epoch.unwrap_or(0),
            max_epoch: inner.max_epoch.unwrap_or(0),
            degraded_queries: 0,
            missing_keys: 0,
            retries: 0,
            hedges_won: 0,
            // With no degraded query every multiget was served complete.
            availability: 1.0,
        }
    }
}
