//! The serving engine: cache → route → scatter → gather under a swappable placement.
//!
//! [`ServingEngine`] owns one [`EpochSwap`] cell holding the current [`Generation`] — an
//! immutable pair of placement snapshot and the shard set built from it. Every multiget loads
//! the generation once and serves entirely against it, so a concurrent
//! [`ServingEngine::install_partition`] (which builds the next generation's shards **off to
//! the side** and then swaps one pointer) can never make a query observe half-moved data:
//! there is no serving gap and no torn read, the exact property the live-repartition
//! requirement of Section 5 demands from a production tier.

use crate::cache::HotKeyCache;
use crate::error::{Result, ServingError};
use crate::metrics::{ServingMetrics, ServingReport};
use crate::partition_map::{EpochSwap, PartitionDelta, PartitionSnapshot};
use crate::router::ShardRouter;
use crate::store::ShardSet;
use crate::workload::WorkloadEvent;
use shp_faults::FaultInjector;
use shp_hypergraph::{BipartiteGraph, DataId, Partition};
use shp_sharding_sim::LatencyModel;
use shp_telemetry::{HistogramSnapshot, Snapshot, Span, Timer, TopKSketch};
use std::sync::Arc;

/// Slots in the per-engine hot-key access sketch (bounds its memory at 32 KiB).
const HOT_KEY_SLOTS: usize = 4096;

/// How many of the hottest keys [`ServingEngine::telemetry_snapshot`] exports.
const HOT_KEYS_EXPORTED: usize = 32;

/// A sink for the deduplicated key-set of every served multiget — the observation tap of the
/// serve→observe→repartition loop.
///
/// Implementations are called on the serving hot path with the query's *distinct, sorted*
/// keys, so they must be lock-free (or very close), bounded in memory, and must not allocate
/// per call — exactly the contract `shp-controller`'s `AccessTraceCollector` satisfies. The
/// observer sees every query regardless of whether global telemetry is enabled.
pub trait AccessObserver: Send + Sync + std::fmt::Debug {
    /// Records one multiget's distinct key-set.
    fn observe(&self, keys: &[DataId]);
}

/// Configuration of a [`ServingEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Per-request service-time model shared by all shards.
    pub latency_model: LatencyModel,
    /// Capacity of the hot-key result cache (0 disables caching).
    pub cache_capacity: usize,
    /// Latency (in units of the model's `t`) of a multiget answered entirely from the cache.
    pub cache_hit_latency: f64,
    /// Seed of the simulated service times: a shard's `n`-th request in a generation samples
    /// from a PCG seeded by a hash of (seed, epoch, shard, `n`).
    pub seed: u64,
    /// Replica-group size: every shard additionally stores the records of the `replication-1`
    /// primaries chained before it, giving each batch that many failover candidates. 1 (the
    /// default) disables replication and is bit-identical to the pre-replication engine.
    pub replication: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            latency_model: LatencyModel::default(),
            cache_capacity: 0,
            cache_hit_latency: 0.05,
            seed: 0x5047,
            replication: 1,
        }
    }
}

/// One immutable serving generation: the placement and the shards built from it.
#[derive(Debug)]
pub struct Generation {
    /// Placement of every key.
    pub snapshot: PartitionSnapshot,
    /// Shard contents matching the placement exactly.
    pub shards: ShardSet,
}

/// The answer to one multiget.
#[derive(Debug, Clone, PartialEq)]
pub struct MultigetResult {
    /// `(key, value)` for every distinct requested key, in ascending key order.
    pub values: Vec<(DataId, u64)>,
    /// Number of shards contacted (0 when the cache answered everything).
    pub fanout: u32,
    /// Simulated latency in units of the latency model's `t`.
    pub latency: f64,
    /// Placement epoch the query was served under.
    pub epoch: u64,
    /// Number of keys answered from the hot-key cache.
    pub cache_hits: usize,
    /// Requested keys that were unreachable on every replica of their failover chain,
    /// ascending. Always empty without an attached fault injector: a degraded multiget is a
    /// typed partial result, never a panic or a silently wrong value.
    pub missing_keys: Vec<DataId>,
    /// Failover retries the query performed.
    pub retries: u64,
    /// Hedged duplicate requests that beat the attempt they shadowed.
    pub hedges_won: u64,
}

impl MultigetResult {
    /// Whether the multiget came back partial (some keys unreachable on every replica).
    pub fn is_degraded(&self) -> bool {
        !self.missing_keys.is_empty()
    }

    /// Converts a degraded result into [`ServingError::DegradedService`], passing a complete
    /// result through — for callers that treat partial service as an error.
    ///
    /// # Errors
    /// Returns [`ServingError::DegradedService`] when any requested key was unreachable.
    pub fn require_complete(self) -> Result<Self> {
        if self.missing_keys.is_empty() {
            Ok(self)
        } else {
            Err(ServingError::DegradedService {
                missing: self.missing_keys.len(),
            })
        }
    }
}

/// A partition-aware multiget serving engine with live repartition swap.
#[derive(Debug)]
pub struct ServingEngine {
    generation: EpochSwap<Generation>,
    router: ShardRouter,
    cache: HotKeyCache,
    metrics: ServingMetrics,
    config: EngineConfig,
    num_keys: usize,
    /// Serializes installs: each numbers its generation one past the live epoch.
    install_lock: std::sync::Mutex<()>,
    /// Bounded per-key access-frequency sketch — the observation feed of the paper's
    /// serve→observe→repartition loop. Only written when telemetry is enabled.
    tracer: TopKSketch,
    /// Pre-resolved span timers for the per-multiget hot path (`serving/route`,
    /// `serving/shard_service`): resolved once here, recorded lock-free per query.
    route_timer: Timer,
    service_timer: Timer,
    /// Optional access-trace sink, fed every multiget's distinct key-set (set at build time
    /// via [`ServingEngine::with_access_observer`], before the engine is shared).
    observer: Option<Arc<dyn AccessObserver>>,
    /// Optional deterministic fault injector that makes batches walk their replica chains
    /// (set at build time via [`ServingEngine::with_fault_injector`]). `None` — the default —
    /// serves every batch from its primary.
    faults: Option<Arc<FaultInjector>>,
}

impl ServingEngine {
    /// Boots the engine on an initial partition (epoch 0), building and loading every shard.
    ///
    /// # Errors
    /// Returns [`ServingError::EmptyPartition`] for a partition with no buckets.
    pub fn new(partition: &Partition, config: EngineConfig) -> Result<Self> {
        let snapshot = PartitionSnapshot::from_partition(partition, 0)?;
        let shards = ShardSet::build_replicated(
            &snapshot,
            config.latency_model.clone(),
            config.seed,
            config.replication,
        );
        let num_keys = snapshot.num_keys();
        Ok(ServingEngine {
            generation: EpochSwap::new(Generation { snapshot, shards }),
            router: ShardRouter::new(),
            cache: HotKeyCache::new(config.cache_capacity),
            metrics: ServingMetrics::new(),
            config,
            num_keys,
            install_lock: std::sync::Mutex::new(()),
            tracer: TopKSketch::new(HOT_KEY_SLOTS),
            route_timer: shp_telemetry::global().timer("serving/route"),
            service_timer: shp_telemetry::global().timer("serving/shard_service"),
            observer: None,
            faults: None,
        })
    }

    /// Attaches an [`AccessObserver`] that is fed every multiget's distinct key-set. Builder
    /// style: call before the engine is shared across threads.
    pub fn with_access_observer(mut self, observer: Arc<dyn AccessObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a deterministic [`FaultInjector`]: every multiget advances its query clock
    /// one tick and walks each batch's replica chain. With an empty
    /// [`FaultPlan`](shp_faults::FaultPlan) results are bit-identical to an engine without an
    /// injector. Builder style: call before the engine is shared across threads.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Number of keys in the engine's key universe.
    pub fn num_keys(&self) -> usize {
        self.num_keys
    }

    /// The currently installed placement epoch.
    pub fn current_epoch(&self) -> u64 {
        self.generation.load().snapshot.epoch()
    }

    /// Number of shards of the current generation.
    pub fn num_shards(&self) -> u32 {
        self.generation.load().shards.num_shards()
    }

    /// Serves one multiget. Duplicate keys are answered once; values come back in ascending
    /// key order with their verified records.
    ///
    /// # Errors
    /// Returns [`ServingError::KeyOutOfRange`] when a key is outside the key universe.
    pub fn multiget(&self, keys: &[DataId]) -> Result<MultigetResult> {
        let generation = self.generation.load();
        let epoch = generation.snapshot.epoch();

        // Deduplicate up front: both the cache split and the router operate on distinct keys.
        let mut distinct: Vec<DataId> = keys.to_vec();
        distinct.sort_unstable();
        distinct.dedup();

        // Access tracing feeds the hot-key sketch; never read back on the serving path, so
        // results are identical with telemetry on or off.
        if shp_telemetry::enabled() {
            for &key in &distinct {
                self.tracer.record(key);
            }
        }

        // The attached observer (repartition controller's trace collector) sees every query's
        // distinct key-set; its contract forbids allocation and blocking.
        if let Some(observer) = &self.observer {
            observer.observe(&distinct);
        }

        // Split into cache hits and misses.
        let mut values: Vec<(DataId, u64)> = Vec::with_capacity(distinct.len());
        let mut misses: Vec<DataId> = Vec::with_capacity(distinct.len());
        if self.config.cache_capacity > 0 {
            for &key in &distinct {
                if key as usize >= self.num_keys {
                    return Err(ServingError::KeyOutOfRange {
                        key,
                        num_keys: self.num_keys,
                    });
                }
                match self.cache.get(key) {
                    Some(value) => values.push((key, value)),
                    None => misses.push(key),
                }
            }
        } else {
            misses = distinct.clone();
        }
        let cache_hits = values.len();

        // Route the misses and execute one batch per contacted shard. The cache-hit floor
        // only applies when the cache actually answered something; a cache-less multiget's
        // latency is purely what the shards charge.
        let plan = {
            let _route = self.route_timer.start();
            self.router.route(&generation.snapshot, &misses)?
        };
        let fanout = plan.fanout();
        let mut latency = if cache_hits > 0 {
            self.config.cache_hit_latency * self.config.latency_model.mean_t
        } else {
            0.0
        };
        let mut missing_keys: Vec<DataId> = Vec::new();
        let mut retries = 0u64;
        let mut hedges_won = 0u64;
        if !plan.batches.is_empty() {
            let _service = self.service_timer.start();
            let faults = self.faults.as_deref();
            let fetched = generation.shards.execute_with_faults(&plan, faults)?;
            latency = latency.max(fetched.latency);
            if self.config.cache_capacity > 0 {
                for &(key, value) in &fetched.values {
                    self.cache.insert(key, value);
                }
            }
            values.extend(fetched.values);
            missing_keys = fetched.missing;
            retries = fetched.retries;
            hedges_won = fetched.hedges_won;
        }
        values.sort_unstable_by_key(|&(key, _)| key);

        self.metrics.record(
            fanout,
            generation.snapshot.num_shards(),
            plan.batches.iter().map(|b| b.shard),
            latency,
            epoch,
        );
        if !missing_keys.is_empty() || retries > 0 || hedges_won > 0 {
            self.metrics
                .record_faults(missing_keys.len() as u64, retries, hedges_won);
        }
        Ok(MultigetResult {
            values,
            fanout,
            latency,
            epoch,
            cache_hits,
            missing_keys,
            retries,
            hedges_won,
        })
    }

    /// Installs a new partition under live traffic.
    ///
    /// The next generation — snapshot *and* fully populated shards — is built here, off the
    /// serving path, and then published with one atomic pointer swap. Queries in flight finish
    /// on the generation they loaded; queries arriving after the swap see the new placement.
    /// Returns the epoch of the installed placement.
    ///
    /// # Errors
    /// Rejects partitions that do not cover the engine's key universe exactly.
    pub fn install_partition(&self, partition: &Partition) -> Result<u64> {
        if partition.num_data() != self.num_keys {
            return Err(ServingError::PartitionMismatch {
                got: partition.num_data(),
                expected: self.num_keys,
            });
        }
        // Serialize concurrent installs: each numbers its generation one past the live one
        // and publishes it before the next install reads the live epoch, so epochs only grow
        // and a rejected install uses none up. Readers never take this lock.
        let _install = self.install_lock.lock().expect("install lock poisoned");
        let _span = Span::enter("serving/epoch_swap");
        let epoch = self.current_epoch() + 1;
        let snapshot = PartitionSnapshot::from_partition(partition, epoch)?;
        let shards = ShardSet::build_replicated(
            &snapshot,
            self.config.latency_model.clone(),
            self.config.seed,
            self.config.replication,
        );
        self.generation.swap(Generation { snapshot, shards });
        Ok(epoch)
    }

    /// Installs a delta placement under live traffic: only the moved keys' pages and shards
    /// are rebuilt, everything else is shared (`Arc`) with the live generation — the
    /// bounded-churn install path a repartition controller uses every epoch.
    ///
    /// The produced generation is bit-identical to what
    /// [`install_partition`](ServingEngine::install_partition) would build for the same
    /// placement at the same epoch (same shard contents, counters, and service-time draws),
    /// which the conformance tests assert; the full-map path stays as the oracle. Returns the
    /// installed epoch.
    ///
    /// # Errors
    /// Returns [`ServingError::StaleDelta`] when the delta's base epoch is not the live epoch
    /// (another install won the race — recompute against the new generation), and propagates
    /// out-of-range keys or shards.
    pub fn install_delta(&self, delta: &PartitionDelta) -> Result<u64> {
        let _install = self.install_lock.lock().expect("install lock poisoned");
        let _span = Span::enter("serving/epoch_swap");
        let current = self.generation.load();
        if delta.base_epoch() != current.snapshot.epoch() {
            return Err(ServingError::StaleDelta {
                delta_epoch: delta.base_epoch(),
                live_epoch: current.snapshot.epoch(),
            });
        }
        let epoch = current.snapshot.epoch() + 1;
        let snapshot = current.snapshot.apply_delta(delta, epoch)?;
        let shards = current
            .shards
            .apply_delta(&current.snapshot, delta, epoch)?;
        self.generation.swap(Generation { snapshot, shards });
        Ok(epoch)
    }

    /// The live placement snapshot (an `Arc`-shared view; cheap to call).
    pub fn current_snapshot(&self) -> PartitionSnapshot {
        self.generation.load().snapshot.clone()
    }

    /// Installs the partition of a finished unified-API run ([`shp_core::api::PartitionOutcome`])
    /// as the next serving generation — the warm-start path from `AlgorithmRegistry::run`
    /// straight into the live [`EpochSwap`]: compute off the serving path with any registered
    /// algorithm, then publish with one atomic pointer swap. Returns the installed epoch.
    ///
    /// # Errors
    /// Same contract as [`ServingEngine::install_partition`].
    pub fn warm_start(&self, outcome: &shp_core::api::PartitionOutcome) -> Result<u64> {
        self.install_partition(&outcome.partition)
    }

    /// Number of partition swaps installed since boot.
    pub fn swap_count(&self) -> u64 {
        self.generation.swap_count()
    }

    /// Replays an open-loop arrival schedule against the engine with `clients` concurrent
    /// client threads, then returns the aggregated report. Metrics are reset first, so the
    /// report covers exactly this run.
    ///
    /// # Errors
    /// Propagates the first serving error any client encounters.
    pub fn run_workload(
        &self,
        graph: &BipartiteGraph,
        events: &[WorkloadEvent],
        clients: usize,
    ) -> Result<ServingReport> {
        self.reset_metrics();
        let clients = clients.max(1);
        let chunk = events.len().div_ceil(clients).max(1);
        let outcome: Result<()> = std::thread::scope(|scope| {
            let handles: Vec<_> = events
                .chunks(chunk)
                .map(|slice| {
                    scope.spawn(move || -> Result<()> {
                        for event in slice {
                            self.multiget(graph.query_neighbors(event.query))?;
                        }
                        Ok(())
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("client thread panicked")?;
            }
            Ok(())
        });
        outcome?;
        Ok(self.report())
    }

    /// Aggregated metrics since boot or the last reset.
    pub fn report(&self) -> ServingReport {
        self.metrics.report(self.cache.stats())
    }

    /// Clears the per-query metrics (cache contents and hit counters are preserved).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    /// The `k` most frequently accessed keys with their approximate hit counts (count
    /// descending, ties by ascending key), from the bounded access sketch. Empty when
    /// telemetry was disabled for the whole run.
    pub fn hot_keys(&self, k: usize) -> Vec<(DataId, u64)> {
        self.tracer.top(k)
    }

    /// Exports the engine's serving metrics as a telemetry [`Snapshot`] with every metric
    /// name under `prefix` (e.g. `serving/shp2`): query/cache counters, per-shard request
    /// counters, the latency histogram, an exact integer-bucketed fanout histogram, skew and
    /// epoch gauges, and the hot-key list.
    ///
    /// Phase spans (`serving/route`, `serving/shard_service`, `serving/epoch_swap`) live in
    /// the process-wide [`shp_telemetry::global`] registry — shared by all engines — and are
    /// merged in by the callers that want them.
    pub fn telemetry_snapshot(&self, prefix: &str) -> Snapshot {
        let report = self.report();
        let mut snap = Snapshot::new();
        snap.counters
            .insert(format!("{prefix}/queries"), report.queries);
        snap.counters
            .insert(format!("{prefix}/cache/hits"), report.cache.hits);
        snap.counters
            .insert(format!("{prefix}/cache/misses"), report.cache.misses);
        snap.counters
            .insert(format!("{prefix}/epoch_swaps"), self.swap_count());
        snap.counters.insert(
            format!("{prefix}/degraded_queries"),
            report.degraded_queries,
        );
        snap.counters
            .insert(format!("{prefix}/fault_retries"), report.retries);
        snap.counters
            .insert(format!("{prefix}/hedges_won"), report.hedges_won);
        for (shard, &count) in report.shard_requests.iter().enumerate() {
            snap.counters
                .insert(format!("{prefix}/shard_requests/{shard:04}"), count);
        }
        snap.gauges
            .insert(format!("{prefix}/availability"), report.availability);
        // Per-shard up/down gauges at the injector's current query clock: 1.0 = serving,
        // 0.0 = scripted down. Only meaningful (and only exported) with an injector attached.
        if let Some(inj) = &self.faults {
            let tick = inj.current_tick();
            for shard in 0..self.num_shards() {
                let up = if inj.is_down(shard, tick) { 0.0 } else { 1.0 };
                snap.gauges
                    .insert(format!("{prefix}/shard_up/{shard:04}"), up);
            }
        }
        snap.gauges
            .insert(format!("{prefix}/shard_skew"), report.shard_skew);
        snap.gauges
            .insert(format!("{prefix}/epoch"), self.current_epoch() as f64);
        snap.gauges
            .insert(format!("{prefix}/mean_fanout"), report.mean_fanout);
        snap.histograms.insert(
            format!("{prefix}/latency"),
            snapshot_of_histogram(self.metrics.latency_histogram()),
        );
        snap.histograms.insert(
            format!("{prefix}/fanout"),
            fanout_histogram_snapshot(&report.fanout_histogram),
        );
        let hot = self.hot_keys(HOT_KEYS_EXPORTED);
        if !hot.is_empty() {
            snap.top_keys.insert(
                format!("{prefix}/hot_keys"),
                shp_telemetry::TopKeysSnapshot { entries: hot },
            );
        }
        snap
    }
}

fn snapshot_of_histogram(h: &shp_telemetry::Histogram) -> HistogramSnapshot {
    HistogramSnapshot {
        count: h.count(),
        sum: h.sum(),
        min: h.min(),
        max: h.max(),
        buckets: h.cumulative_buckets(),
    }
}

/// Renders the exact per-fanout counts as a classic cumulative histogram: the bucket with
/// upper edge `f` counts the multigets that touched at most `f` shards (exact integers, no
/// quantization).
fn fanout_histogram_snapshot(counts: &[u64]) -> HistogramSnapshot {
    let count: u64 = counts.iter().sum();
    let sum: f64 = counts
        .iter()
        .enumerate()
        .map(|(f, &c)| f as f64 * c as f64)
        .sum();
    let min = counts.iter().position(|&c| c > 0).unwrap_or(0) as f64;
    let max = counts.len().saturating_sub(1) as f64;
    let mut buckets = Vec::new();
    let mut cumulative = 0u64;
    for (f, &c) in counts.iter().enumerate() {
        if c > 0 {
            cumulative += c;
            buckets.push((f as f64, cumulative));
        }
    }
    if count > 0 {
        buckets.push((f64::INFINITY, count));
    }
    HistogramSnapshot {
        count,
        sum,
        min,
        max,
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::value_of;
    use shp_hypergraph::GraphBuilder;

    /// `groups` communities of `size` keys; one query per member spanning its community.
    fn community_graph(groups: u32, size: u32) -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for g in 0..groups {
            let members: Vec<u32> = (0..size).map(|i| g * size + i).collect();
            for _ in 0..size {
                b.add_query(members.clone());
            }
        }
        b.build().unwrap()
    }

    fn aligned_partition(graph: &BipartiteGraph, groups: u32, size: u32) -> Partition {
        Partition::from_assignment(
            graph,
            groups,
            (0..groups * size).map(|v| v / size).collect(),
        )
        .unwrap()
    }

    fn scattered_partition(graph: &BipartiteGraph, groups: u32, size: u32) -> Partition {
        Partition::from_assignment(
            graph,
            groups,
            (0..groups * size).map(|v| v % groups).collect(),
        )
        .unwrap()
    }

    #[test]
    fn multiget_returns_each_distinct_key_once_with_verified_values() {
        let graph = community_graph(4, 8);
        let engine =
            ServingEngine::new(&aligned_partition(&graph, 4, 8), EngineConfig::default()).unwrap();
        let result = engine.multiget(&[5, 1, 5, 9, 1, 30]).unwrap();
        assert_eq!(
            result.values,
            vec![
                (1, value_of(1)),
                (5, value_of(5)),
                (9, value_of(9)),
                (30, value_of(30))
            ]
        );
        // Keys 1 and 5 share shard 0; 9 is on shard 1; 30 on shard 3.
        assert_eq!(result.fanout, 3);
        assert_eq!(result.epoch, 0);
    }

    #[test]
    fn aligned_placement_has_lower_fanout_than_scattered() {
        let graph = community_graph(4, 8);
        let config = EngineConfig::default();
        let aligned = ServingEngine::new(&aligned_partition(&graph, 4, 8), config.clone()).unwrap();
        let scattered = ServingEngine::new(&scattered_partition(&graph, 4, 8), config).unwrap();
        for q in graph.queries() {
            aligned.multiget(graph.query_neighbors(q)).unwrap();
            scattered.multiget(graph.query_neighbors(q)).unwrap();
        }
        let a = aligned.report();
        let s = scattered.report();
        assert!(
            (a.mean_fanout - 1.0).abs() < 1e-9,
            "aligned fanout {}",
            a.mean_fanout
        );
        assert!(
            (s.mean_fanout - 4.0).abs() < 1e-9,
            "scattered fanout {}",
            s.mean_fanout
        );
        assert!(a.mean_latency < s.mean_latency);
    }

    #[test]
    fn cache_answers_repeated_hot_keys_and_cuts_fanout() {
        let graph = community_graph(2, 4);
        let config = EngineConfig {
            cache_capacity: 1024,
            ..Default::default()
        };
        let engine = ServingEngine::new(&scattered_partition(&graph, 2, 4), config).unwrap();
        let first = engine.multiget(&[0, 1, 2, 3]).unwrap();
        assert_eq!(first.cache_hits, 0);
        assert_eq!(first.fanout, 2);
        let second = engine.multiget(&[0, 1, 2, 3]).unwrap();
        assert_eq!(second.cache_hits, 4);
        assert_eq!(second.fanout, 0);
        assert!(second.latency < first.latency);
        assert_eq!(second.values, first.values);
        let stats = engine.report().cache;
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn install_partition_swaps_epoch_and_preserves_values() {
        let graph = community_graph(3, 4);
        let engine =
            ServingEngine::new(&scattered_partition(&graph, 3, 4), EngineConfig::default())
                .unwrap();
        let before = engine.multiget(&[0, 1, 2, 3]).unwrap();
        let epoch = engine
            .install_partition(&aligned_partition(&graph, 3, 4))
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(engine.current_epoch(), 1);
        assert_eq!(engine.swap_count(), 1);
        let after = engine.multiget(&[0, 1, 2, 3]).unwrap();
        assert_eq!(after.values, before.values);
        assert_eq!(after.epoch, 1);
        assert!(after.fanout < before.fanout);
    }

    #[test]
    fn warm_start_installs_a_registry_outcome() {
        use shp_core::api::{AlgorithmRegistry, NoopObserver, PartitionSpec};
        let graph = community_graph(3, 4);
        let engine =
            ServingEngine::new(&scattered_partition(&graph, 3, 4), EngineConfig::default())
                .unwrap();
        let before = engine.multiget(&[0, 1, 2, 3]).unwrap();
        let spec = PartitionSpec::new(3).with_seed(5).with_max_iterations(10);
        let outcome = AlgorithmRegistry::core()
            .run("shp2", &graph, &spec, &mut NoopObserver)
            .unwrap();
        let epoch = engine.warm_start(&outcome).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(engine.current_epoch(), 1);
        let after = engine.multiget(&[0, 1, 2, 3]).unwrap();
        assert_eq!(after.values, before.values);
        assert_eq!(after.epoch, 1);
    }

    #[test]
    fn install_rejects_mismatched_partitions() {
        let graph = community_graph(2, 4);
        let other = community_graph(2, 5);
        let engine =
            ServingEngine::new(&aligned_partition(&graph, 2, 4), EngineConfig::default()).unwrap();
        let wrong = aligned_partition(&other, 2, 5);
        assert_eq!(
            engine.install_partition(&wrong),
            Err(ServingError::PartitionMismatch {
                got: 10,
                expected: 8
            })
        );
    }

    #[test]
    fn out_of_range_keys_are_rejected() {
        let graph = community_graph(2, 4);
        let engine =
            ServingEngine::new(&aligned_partition(&graph, 2, 4), EngineConfig::default()).unwrap();
        assert_eq!(
            engine.multiget(&[0, 99]),
            Err(ServingError::KeyOutOfRange {
                key: 99,
                num_keys: 8
            })
        );
        let cached = ServingEngine::new(
            &aligned_partition(&graph, 2, 4),
            EngineConfig {
                cache_capacity: 16,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(cached.multiget(&[99]).is_err());
    }

    #[test]
    fn empty_multiget_is_served_with_zero_fanout() {
        let graph = community_graph(2, 4);
        let engine =
            ServingEngine::new(&aligned_partition(&graph, 2, 4), EngineConfig::default()).unwrap();
        let result = engine.multiget(&[]).unwrap();
        assert_eq!(result.fanout, 0);
        assert_eq!(result.latency, 0.0);
        assert!(result.values.is_empty());
    }

    #[test]
    fn hot_key_tracing_and_telemetry_snapshot_reflect_traffic() {
        let graph = community_graph(4, 8);
        let engine =
            ServingEngine::new(&aligned_partition(&graph, 4, 8), EngineConfig::default()).unwrap();
        // Key 3 is requested in every multiget; the rest once each.
        for q in 0..8u32 {
            engine.multiget(&[3, 8 + q]).unwrap();
        }
        let hot = engine.hot_keys(1);
        assert_eq!(hot[0].0, 3, "hot keys: {hot:?}");
        assert_eq!(hot[0].1, 8);

        let snap = engine.telemetry_snapshot("serving/test");
        assert_eq!(snap.counters["serving/test/queries"], 8);
        assert_eq!(snap.histograms["serving/test/latency"].count, 8);
        let fanout = &snap.histograms["serving/test/fanout"];
        assert_eq!(fanout.count, 8);
        assert_eq!(fanout.buckets.last().unwrap(), &(f64::INFINITY, 8));
        assert_eq!(snap.top_keys["serving/test/hot_keys"].entries[0], (3, 8));
        assert_eq!(
            snap.counters
                .keys()
                .filter(|k| k.contains("shard_requests"))
                .count(),
            4
        );
        // The snapshot is valid JSON that round-trips.
        let parsed = shp_telemetry::Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn install_delta_swaps_epoch_and_matches_full_install() {
        let graph = community_graph(3, 4);
        let scattered = scattered_partition(&graph, 3, 4);
        let aligned = aligned_partition(&graph, 3, 4);
        let engine = ServingEngine::new(&scattered, EngineConfig::default()).unwrap();
        let before = engine.multiget(&[0, 1, 2, 3]).unwrap();

        let delta =
            crate::partition_map::PartitionDelta::between(&engine.current_snapshot(), &aligned)
                .unwrap();
        let epoch = engine.install_delta(&delta).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(engine.current_epoch(), 1);
        let after = engine.multiget(&[0, 1, 2, 3]).unwrap();
        assert_eq!(after.values, before.values);
        assert_eq!(after.fanout, 1);

        // Oracle: a second engine taking the full-map path lands on the identical generation.
        let oracle = ServingEngine::new(&scattered, EngineConfig::default()).unwrap();
        oracle.install_partition(&aligned).unwrap();
        // Replay the multiget `engine` served after its install: a shard's service time
        // depends on how many requests it served before, so the histories must match.
        oracle.multiget(&[0, 1, 2, 3]).unwrap();
        assert_eq!(engine.current_snapshot(), oracle.current_snapshot());
        let via_delta = engine.multiget(&[0, 5, 9]).unwrap();
        let via_full = oracle.multiget(&[0, 5, 9]).unwrap();
        assert_eq!(via_delta.values, via_full.values);
        assert_eq!(via_delta.latency, via_full.latency);
    }

    #[test]
    fn a_rejected_install_uses_up_no_epoch() {
        let graph = community_graph(3, 4);
        let engine =
            ServingEngine::new(&scattered_partition(&graph, 3, 4), EngineConfig::default())
                .unwrap();
        assert_eq!(
            engine.install_delta(&PartitionDelta::new(0, vec![(0, 99)])),
            Err(ServingError::ShardOutOfRange {
                shard: 99,
                num_shards: 3
            })
        );
        assert_eq!(engine.current_epoch(), 0);
        assert_eq!(engine.swap_count(), 0);
        let epoch = engine
            .install_delta(&PartitionDelta::new(0, vec![(0, 1)]))
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(engine.current_epoch(), 1);
        assert_eq!(engine.swap_count(), 1);
    }

    #[test]
    fn stale_deltas_are_rejected() {
        let graph = community_graph(3, 4);
        let engine =
            ServingEngine::new(&scattered_partition(&graph, 3, 4), EngineConfig::default())
                .unwrap();
        let aligned = aligned_partition(&graph, 3, 4);
        let delta =
            crate::partition_map::PartitionDelta::between(&engine.current_snapshot(), &aligned)
                .unwrap();
        // Another install lands first; the delta's base epoch 0 is no longer live.
        engine.install_partition(&aligned).unwrap();
        assert_eq!(
            engine.install_delta(&delta),
            Err(ServingError::StaleDelta {
                delta_epoch: 0,
                live_epoch: 1
            })
        );
    }

    #[test]
    fn access_observer_sees_every_distinct_key_set() {
        #[derive(Debug, Default)]
        struct Recorder(std::sync::Mutex<Vec<Vec<u32>>>);
        impl AccessObserver for Recorder {
            fn observe(&self, keys: &[DataId]) {
                self.0.lock().unwrap().push(keys.to_vec());
            }
        }
        let graph = community_graph(2, 4);
        let recorder = Arc::new(Recorder::default());
        let engine = ServingEngine::new(&aligned_partition(&graph, 2, 4), EngineConfig::default())
            .unwrap()
            .with_access_observer(recorder.clone());
        engine.multiget(&[3, 1, 3, 5]).unwrap();
        engine.multiget(&[7]).unwrap();
        let seen = recorder.0.lock().unwrap();
        assert_eq!(*seen, vec![vec![1, 3, 5], vec![7]]);
    }

    #[test]
    fn degraded_multiget_is_typed_and_tracked_in_metrics() {
        use shp_faults::{FaultInjector, FaultPlan};
        let graph = community_graph(3, 4);
        let config = EngineConfig {
            replication: 2,
            ..Default::default()
        };
        // Keys 0..4 live on shard 0 (primary) with replicas on shard 1; crashing both makes
        // exactly those keys unreachable while the rest of the universe still serves.
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new().crash(0, 0).crash(1, 0),
            7,
        ));
        let engine = ServingEngine::new(&aligned_partition(&graph, 3, 4), config)
            .unwrap()
            .with_fault_injector(inj);
        let result = engine.multiget(&[0, 1, 8, 9]).unwrap();
        assert!(result.is_degraded());
        assert_eq!(result.missing_keys, vec![0, 1]);
        assert_eq!(
            result.values,
            vec![(8, value_of(8)), (9, value_of(9))],
            "reachable keys still come back correct"
        );
        assert_eq!(
            result.require_complete(),
            Err(ServingError::DegradedService { missing: 2 })
        );
        // A fully reachable multiget passes require_complete untouched.
        let ok = engine
            .multiget(&[8, 9])
            .unwrap()
            .require_complete()
            .unwrap();
        assert_eq!(ok.values.len(), 2);

        let report = engine.report();
        assert_eq!(report.degraded_queries, 1);
        assert_eq!(report.missing_keys, 2);
        assert!((report.availability - 0.5).abs() < 1e-12);

        let snap = engine.telemetry_snapshot("serving/faulty");
        assert_eq!(snap.counters["serving/faulty/degraded_queries"], 1);
        assert_eq!(snap.gauges["serving/faulty/availability"], 0.5);
        assert_eq!(snap.gauges["serving/faulty/shard_up/0000"], 0.0);
        assert_eq!(snap.gauges["serving/faulty/shard_up/0002"], 1.0);
    }

    #[test]
    fn engine_with_empty_fault_plan_matches_the_plain_engine_bitwise() {
        use shp_faults::{FaultInjector, FaultPlan};
        let graph = community_graph(3, 4);
        let config = EngineConfig {
            replication: 2,
            ..Default::default()
        };
        let plain = ServingEngine::new(&aligned_partition(&graph, 3, 4), config.clone()).unwrap();
        let faulty = ServingEngine::new(&aligned_partition(&graph, 3, 4), config)
            .unwrap()
            .with_fault_injector(Arc::new(FaultInjector::new(FaultPlan::new(), 3)));
        for q in graph.queries() {
            let a = plain.multiget(graph.query_neighbors(q)).unwrap();
            let b = faulty.multiget(graph.query_neighbors(q)).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.report(), faulty.report());
    }

    #[test]
    fn replicated_engine_fails_over_and_keeps_serving_correct_values() {
        use shp_faults::{FaultInjector, FaultPlan};
        let graph = community_graph(4, 8);
        let config = EngineConfig {
            replication: 2,
            ..Default::default()
        };
        let engine = ServingEngine::new(&aligned_partition(&graph, 4, 8), config)
            .unwrap()
            .with_fault_injector(Arc::new(FaultInjector::new(
                FaultPlan::new().crash(1, 0),
                9,
            )));
        // Every community query still completes: shard 1's keys fail over to shard 2.
        for q in graph.queries() {
            let keys = graph.query_neighbors(q);
            let result = engine.multiget(keys).unwrap();
            assert!(result.missing_keys.is_empty(), "query {q} degraded");
            assert_eq!(result.values.len(), keys.len());
            for &(k, v) in &result.values {
                assert_eq!(v, value_of(k));
            }
        }
        let report = engine.report();
        assert_eq!(report.availability, 1.0);
        assert_eq!(report.retries, 8, "one retry per shard-1 community query");
    }

    #[test]
    fn run_workload_reports_over_the_whole_schedule() {
        let graph = community_graph(4, 8);
        let engine =
            ServingEngine::new(&aligned_partition(&graph, 4, 8), EngineConfig::default()).unwrap();
        let config = crate::workload::WorkloadConfig {
            arrival_rate: 50.0,
            duration: 10.0,
            ..Default::default()
        };
        let events = crate::workload::open_loop_schedule(graph.num_queries(), &config);
        let report = engine.run_workload(&graph, &events, 4).unwrap();
        assert_eq!(report.queries, events.len() as u64);
        assert!((report.mean_fanout - 1.0).abs() < 1e-9);
        assert!(report.p999 >= report.p50);
    }
}
