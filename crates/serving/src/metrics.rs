//! Per-query serving metrics and the aggregated [`ServingReport`].
//!
//! Tracks exactly the quantities the paper's serving argument is about: the fanout histogram
//! (how many shards each multiget touched), latency percentiles up to p999 (the tail that
//! fanout inflates, Figure 4), and per-shard load (whose skew bounds the capacity headroom a
//! partition leaves on the table).
//!
//! ## Record path
//!
//! [`ServingMetrics::record`] is **lock-free and allocation-free**: every observation lands in
//! pre-allocated sharded atomics ([`shp_telemetry::IndexedCounter`] for the fanout and
//! per-shard counts, [`shp_telemetry::Histogram`] for latency). Memory is bounded by
//! construction — a replay of any length holds the same few hundred KiB — where the previous
//! implementation pushed every latency into an unbounded `Vec<f64>` under a `Mutex` that
//! serialized all client threads.
//!
//! ## Quantization contract
//!
//! Latency percentiles come out of a log-linear histogram with 64 sub-buckets per octave:
//! each reported percentile is the **lower edge** of the bucket holding the exact rank, so
//! `reported ≤ exact ≤ reported · (1 + 2⁻⁶)` — at most ≈1.56% below the sorted-vector value
//! the old implementation returned (values below `2⁻¹⁶` report 0, values at or above `2¹⁶`
//! clamp). The mean is accumulated in fixed point and is independent of thread interleaving.
//! Everything else in the report — query counts, the fanout histogram, per-shard request
//! counts, skew, epochs — is exact. The old sorted-vector implementation lives on outside
//! the shipped crates, in `shp_bench::oracles::metrics`, as the oracle the conformance tests
//! and the `telemetry_overhead` bench compare against.

use crate::cache::CacheStats;
use shp_telemetry::{Histogram, IndexedCounter};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Fanout slots tracked exactly; a larger fanout clamps into the overflow slot. Sized past
/// any shard count the serving simulations use.
const MAX_FANOUT_SLOTS: usize = 1025;

/// Shard slots tracked exactly; higher shard ids clamp into the overflow slot.
const MAX_SHARD_SLOTS: usize = 1024;

/// Thread-safe accumulator of per-query observations (see the module docs: the record path
/// is lock-free, memory is bounded, latency percentiles are quantized to ≤1.56%).
#[derive(Debug)]
pub struct ServingMetrics {
    fanout: IndexedCounter,
    latency: Histogram,
    shard_requests: IndexedCounter,
    /// Highest shard-count bound observed (`num_shards` or a touched `shard + 1`), so the
    /// report can show idle shards without storing a resizable vector.
    max_shards: AtomicU32,
    min_epoch: AtomicU64,
    max_epoch: AtomicU64,
    /// Multigets that came back partial (at least one key unreachable on every replica).
    degraded: AtomicU64,
    /// Total unreachable keys across all degraded multigets.
    missing_keys: AtomicU64,
    /// Failover retries performed by the fault-aware execution paths.
    retries: AtomicU64,
    /// Hedged duplicate requests that beat the attempt they shadowed.
    hedges_won: AtomicU64,
}

impl Default for ServingMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServingMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        ServingMetrics {
            fanout: IndexedCounter::new(MAX_FANOUT_SLOTS),
            latency: Histogram::new(),
            shard_requests: IndexedCounter::new(MAX_SHARD_SLOTS),
            max_shards: AtomicU32::new(0),
            min_epoch: AtomicU64::new(u64::MAX),
            max_epoch: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            missing_keys: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
        }
    }

    /// Records one served multiget: its fanout, the shards it contacted (out of the
    /// generation's `num_shards` total — the full shard count matters so that load
    /// concentrated on low-numbered shards still registers as skew), its simulated latency,
    /// and the placement epoch it was served under.
    ///
    /// Lock-free: a bounded number of relaxed atomic operations, no allocation.
    pub fn record(
        &self,
        fanout: u32,
        num_shards: u32,
        shards: impl IntoIterator<Item = u32>,
        latency: f64,
        epoch: u64,
    ) {
        self.fanout.inc(fanout as usize);
        self.latency.record(latency);
        self.max_shards.fetch_max(num_shards, Ordering::Relaxed);
        for shard in shards {
            self.shard_requests.inc(shard as usize);
            self.max_shards.fetch_max(shard + 1, Ordering::Relaxed);
        }
        self.min_epoch.fetch_min(epoch, Ordering::Relaxed);
        self.max_epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// Records the fault-tolerance outcome of one served multiget: how many requested keys
    /// were unreachable on every replica (a non-zero count marks the query degraded), how
    /// many failover retries it performed, and how many hedged duplicates won.
    ///
    /// Lock-free, like [`ServingMetrics::record`]; on the no-fault path the engine skips the
    /// call entirely.
    pub fn record_faults(&self, missing_keys: u64, retries: u64, hedges_won: u64) {
        if missing_keys > 0 {
            self.degraded.fetch_add(1, Ordering::Relaxed);
            self.missing_keys.fetch_add(missing_keys, Ordering::Relaxed);
        }
        if retries > 0 {
            self.retries.fetch_add(retries, Ordering::Relaxed);
        }
        if hedges_won > 0 {
            self.hedges_won.fetch_add(hedges_won, Ordering::Relaxed);
        }
    }

    /// Clears all recorded observations.
    pub fn reset(&self) {
        self.fanout.reset();
        self.latency.reset();
        self.shard_requests.reset();
        self.max_shards.store(0, Ordering::Relaxed);
        self.min_epoch.store(u64::MAX, Ordering::Relaxed);
        self.max_epoch.store(0, Ordering::Relaxed);
        self.degraded.store(0, Ordering::Relaxed);
        self.missing_keys.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.hedges_won.store(0, Ordering::Relaxed);
    }

    /// Bytes of metric storage held — constant for the lifetime of the accumulator, however
    /// many observations are recorded.
    pub fn memory_bytes(&self) -> usize {
        self.fanout.memory_bytes()
            + self.latency.memory_bytes()
            + self.shard_requests.memory_bytes()
            + 7 * std::mem::size_of::<u64>()
    }

    /// The latency histogram, for export into a telemetry snapshot.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency
    }

    /// The merged fanout histogram truncated past the largest observed fanout
    /// (`histogram[f]` = multigets that touched exactly `f` shards).
    pub fn fanout_histogram(&self) -> Vec<u64> {
        let mut counts = self.fanout.values(MAX_FANOUT_SLOTS);
        let len = counts.iter().rposition(|&c| c > 0).map_or(0, |f| f + 1);
        counts.truncate(len);
        counts
    }

    /// The per-shard request counts over every shard of the widest generation observed.
    pub fn shard_request_counts(&self) -> Vec<u64> {
        self.shard_requests
            .values(self.max_shards.load(Ordering::Relaxed) as usize)
    }

    /// Aggregates the recorded observations into a report, attaching the given cache stats.
    pub fn report(&self, cache: CacheStats) -> ServingReport {
        let fanout_histogram = self.fanout_histogram();
        let queries: u64 = fanout_histogram.iter().sum();
        let mean_fanout = if queries == 0 {
            0.0
        } else {
            fanout_histogram
                .iter()
                .enumerate()
                .map(|(f, &c)| f as f64 * c as f64)
                .sum::<f64>()
                / queries as f64
        };
        let max_fanout = fanout_histogram.len().saturating_sub(1) as u32;

        let percentiles = self.latency.quantiles(&[0.50, 0.90, 0.99, 0.999]);

        let shard_requests = self.shard_request_counts();
        let busiest = shard_requests.iter().copied().max().unwrap_or(0);
        let total_requests: u64 = shard_requests.iter().sum();
        let shard_skew = if total_requests == 0 || shard_requests.is_empty() {
            0.0
        } else {
            busiest as f64 / (total_requests as f64 / shard_requests.len() as f64)
        };

        let (min_epoch, max_epoch) = if queries == 0 {
            (0, 0)
        } else {
            (
                self.min_epoch.load(Ordering::Relaxed),
                self.max_epoch.load(Ordering::Relaxed),
            )
        };

        let degraded_queries = self.degraded.load(Ordering::Relaxed);
        ServingReport {
            queries,
            mean_fanout,
            max_fanout,
            fanout_histogram,
            mean_latency: self.latency.mean(),
            p50: percentiles[0],
            p90: percentiles[1],
            p99: percentiles[2],
            p999: percentiles[3],
            shard_requests,
            shard_skew,
            cache,
            min_epoch,
            max_epoch,
            degraded_queries,
            missing_keys: self.missing_keys.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            hedges_won: self.hedges_won.load(Ordering::Relaxed),
            availability: availability(queries, degraded_queries),
        }
    }
}

/// Fraction of served multigets that came back complete: `1 - degraded / queries`, and 1.0
/// before any query is served. Shared by both metric implementations so the conformance
/// oracle stays bit-identical.
fn availability(queries: u64, degraded: u64) -> f64 {
    if queries == 0 {
        1.0
    } else {
        1.0 - degraded as f64 / queries as f64
    }
}

/// Aggregated results of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Number of multigets served.
    pub queries: u64,
    /// Mean number of shards contacted per multiget.
    pub mean_fanout: f64,
    /// Largest observed fanout.
    pub max_fanout: u32,
    /// `fanout_histogram[f]` = number of multigets that contacted exactly `f` shards.
    pub fanout_histogram: Vec<u64>,
    /// Mean simulated latency (units of the latency model's `t`).
    pub mean_latency: f64,
    /// Median latency.
    pub p50: f64,
    /// 90th percentile latency.
    pub p90: f64,
    /// 99th percentile latency.
    pub p99: f64,
    /// 99.9th percentile latency.
    pub p999: f64,
    /// Batch requests served per shard.
    pub shard_requests: Vec<u64>,
    /// Load skew: busiest shard's requests over the per-shard mean (1.0 = perfectly even).
    pub shard_skew: f64,
    /// Result-cache hit/miss counters.
    pub cache: CacheStats,
    /// Smallest placement epoch observed by a served query.
    pub min_epoch: u64,
    /// Largest placement epoch observed by a served query.
    pub max_epoch: u64,
    /// Multigets that came back partial (at least one requested key unreachable).
    pub degraded_queries: u64,
    /// Total unreachable keys across all degraded multigets.
    pub missing_keys: u64,
    /// Failover retries performed across all multigets.
    pub retries: u64,
    /// Hedged duplicate requests that beat the attempt they shadowed.
    pub hedges_won: u64,
    /// Fraction of multigets served complete: `1 - degraded_queries / queries` (1.0 when no
    /// query has been served).
    pub availability: f64,
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "queries        {}", self.queries)?;
        writeln!(
            f,
            "mean fanout    {:.3} (max {})",
            self.mean_fanout, self.max_fanout
        )?;
        writeln!(
            f,
            "latency        mean {:.3}t  p50 {:.3}t  p90 {:.3}t  p99 {:.3}t  p999 {:.3}t",
            self.mean_latency, self.p50, self.p90, self.p99, self.p999
        )?;
        writeln!(
            f,
            "shard skew     {:.3} over {} shards",
            self.shard_skew,
            self.shard_requests.len()
        )?;
        if self.degraded_queries > 0 || self.retries > 0 || self.hedges_won > 0 {
            writeln!(
                f,
                "availability   {:.4} ({} degraded / {} missing keys, {} retries, {} hedges won)",
                self.availability,
                self.degraded_queries,
                self.missing_keys,
                self.retries,
                self.hedges_won
            )?;
        }
        if self.cache.hits + self.cache.misses > 0 {
            writeln!(
                f,
                "cache          {:.1}% hit ({} hits / {} misses)",
                100.0 * self.cache.hit_rate(),
                self.cache.hits,
                self.cache.misses
            )?;
        }
        write!(f, "epochs         {}..={}", self.min_epoch, self.max_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates_fanout_latency_and_load() {
        let m = ServingMetrics::new();
        m.record(1, 3, [0], 1.0, 0);
        m.record(2, 3, [0, 1], 3.0, 0);
        m.record(2, 3, [1, 2], 5.0, 1);
        let r = m.report(CacheStats::default());
        assert_eq!(r.queries, 3);
        assert!((r.mean_fanout - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.max_fanout, 2);
        assert_eq!(r.fanout_histogram, vec![0, 1, 2]);
        assert!((r.mean_latency - 3.0).abs() < 1e-12);
        assert_eq!(r.p50, 3.0);
        assert_eq!(r.shard_requests, vec![2, 2, 1]);
        // Busiest shard served 2 of 5 requests over 3 shards: skew = 2 / (5/3).
        assert!((r.shard_skew - 2.0 / (5.0 / 3.0)).abs() < 1e-12);
        assert_eq!((r.min_epoch, r.max_epoch), (0, 1));
    }

    #[test]
    fn load_concentrated_on_one_shard_registers_full_skew() {
        // All traffic hits shard 0 of a 4-shard generation: the skew must report the idle
        // shards, not shrink the denominator to the shards that happened to be touched.
        let m = ServingMetrics::new();
        for _ in 0..10 {
            m.record(1, 4, [0], 1.0, 0);
        }
        let r = m.report(CacheStats::default());
        assert_eq!(r.shard_requests, vec![10, 0, 0, 0]);
        assert!((r.shard_skew - 4.0).abs() < 1e-12, "skew {}", r.shard_skew);
    }

    #[test]
    fn empty_metrics_produce_zero_report() {
        let r = ServingMetrics::new().report(CacheStats::default());
        assert_eq!(r.queries, 0);
        assert_eq!(r.mean_fanout, 0.0);
        assert_eq!(r.p999, 0.0);
        assert_eq!(r.shard_skew, 0.0);
        assert_eq!((r.min_epoch, r.max_epoch), (0, 0));
    }

    #[test]
    fn reset_clears_observations() {
        let m = ServingMetrics::new();
        m.record(3, 3, [0, 1, 2], 2.0, 0);
        m.record_faults(2, 1, 1);
        m.reset();
        let r = m.report(CacheStats::default());
        assert_eq!(r.queries, 0);
        assert_eq!(r.degraded_queries, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.availability, 1.0);
    }

    #[test]
    fn fault_accounting_drives_availability() {
        let m = ServingMetrics::new();
        for _ in 0..10 {
            m.record(1, 2, [0], 1.0, 0);
        }
        // 2 of 10 queries degraded; retries and hedges accumulate independently.
        m.record_faults(3, 1, 0);
        m.record_faults(1, 2, 1);
        m.record_faults(0, 4, 0); // retries without degradation
        let r = m.report(CacheStats::default());
        assert_eq!(r.degraded_queries, 2);
        assert_eq!(r.missing_keys, 4);
        assert_eq!(r.retries, 7);
        assert_eq!(r.hedges_won, 1);
        assert!((r.availability - 0.8).abs() < 1e-12);
        let text = r.to_string();
        assert!(text.contains("availability   0.8000"), "{text}");
    }

    #[test]
    fn display_renders_the_key_lines() {
        let m = ServingMetrics::new();
        m.record(1, 1, [0], 1.0, 2);
        let text = m.report(CacheStats { hits: 1, misses: 3 }).to_string();
        assert!(text.contains("mean fanout"));
        assert!(text.contains("p999"));
        assert!(text.contains("cache"));
        assert!(text.contains("epochs         2..=2"));
    }

    #[test]
    fn percentiles_are_monotone() {
        let m = ServingMetrics::new();
        for i in 0..1000 {
            m.record(1, 1, [0], i as f64, 0);
        }
        let r = m.report(CacheStats::default());
        assert!(r.p50 <= r.p90 && r.p90 <= r.p99 && r.p99 <= r.p999);
        assert!(r.p999 >= 990.0);
    }

    #[test]
    fn memory_stays_constant_over_a_long_replay() {
        // Satellite of the telemetry PR: the old implementation grew a Vec<f64> per query
        // without bound; the accumulator must now hold identical memory after a million
        // observations as when empty.
        let m = ServingMetrics::new();
        let empty_bytes = m.memory_bytes();
        for i in 0..1_000_000u64 {
            m.record(
                (i % 16) as u32 + 1,
                16,
                [(i % 16) as u32],
                0.5 + (i % 1000) as f64 * 0.01,
                i / 100_000,
            );
        }
        assert_eq!(m.memory_bytes(), empty_bytes);
        let r = m.report(CacheStats::default());
        assert_eq!(r.queries, 1_000_000);
        assert_eq!(r.shard_requests.iter().sum::<u64>(), 1_000_000);
        assert_eq!((r.min_epoch, r.max_epoch), (0, 9));
    }
}
