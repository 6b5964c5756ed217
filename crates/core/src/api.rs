//! The unified partitioning API: one trait, one spec, one outcome, one registry.
//!
//! The paper's central claim is *comparative* — SHP's probabilistic-fanout local search beats
//! random/hash/greedy/multilevel baselines at scale — and this module is the interface that
//! claim is expressed through. Every algorithm in the workspace (the four SHP execution paths
//! of this crate and the five baselines of `shp-baselines`) implements [`Partitioner`]:
//!
//! ```
//! use shp_core::api::{AlgorithmRegistry, NoopObserver, PartitionSpec};
//! use shp_hypergraph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! b.add_query([0u32, 1, 2]);
//! b.add_query([3u32, 4, 5]);
//! let graph = b.build().unwrap();
//!
//! let registry = AlgorithmRegistry::core();
//! let spec = PartitionSpec::new(2).with_seed(42);
//! let shp2 = registry.get("shp2").unwrap();
//! let outcome = shp2.partition(&graph, &spec, &mut NoopObserver).unwrap();
//! assert_eq!(outcome.partition.num_buckets(), 2);
//! assert!(outcome.fanout <= 2.0);
//! ```
//!
//! Design notes:
//!
//! * [`PartitionSpec`] carries only the knobs every algorithm shares (buckets, `ε`, seed,
//!   iteration cap, objective, simulated workers). Algorithm-specific options live on the
//!   adapter structs ([`IncrementalShp::with_previous`], [`DistributedShp::num_workers`] for
//!   overriding the simulated machine count, …)
//!   and are reachable through the registry's spec-aware [`AlgorithmRegistry::create`].
//! * Every [`PartitionOutcome`] respects the spec's balance bound: adapters run
//!   [`enforce_balance`] before computing metrics, so no bucket ever exceeds
//!   [`Partition::max_allowed_weight`]`(ε)`. Algorithms that already balance (greedy,
//!   multilevel, SHP in the common case) are returned untouched.
//! * [`ProgressObserver`] receives the per-iteration trace; pass [`NoopObserver`] when you only
//!   want the final outcome, or [`TraceObserver`] to collect the history (Figure 7's series).

use crate::config::{PartitionMode, ShpConfig};
use crate::distributed::partition_distributed;
use crate::error::{ShpError, ShpResult};
use crate::incremental::{partition_incremental, IncrementalConfig};
use crate::report::{PartitionResult, RunReport};
use rand::SeedableRng;
use rand_pcg::Pcg64;
use serde::{Deserialize, Serialize};
use shp_hypergraph::{
    average_fanout, average_p_fanout, BipartiteGraph, BucketId, DataId, Partition,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

pub use crate::config::ObjectiveKind;

/// One refinement-iteration event reported to a [`ProgressObserver`].
///
/// This is the least common denominator of the in-process
/// [`IterationStats`](crate::refinement::IterationStats) and the distributed per-iteration
/// statistics, so a single observer type can trace every algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationEvent {
    /// Iteration index (0-based) in execution order across recursion levels.
    pub iteration: usize,
    /// Number of data vertices moved in the iteration.
    pub moved: usize,
    /// Average query fanout associated with the iteration.
    pub fanout: f64,
}

/// Receives progress callbacks while a [`Partitioner`] runs.
///
/// All methods have empty default bodies, so implementors override only what they need.
pub trait ProgressObserver {
    /// Called when a recursion/split level completes (recursive algorithms only).
    fn on_level(&mut self, _level: usize, _buckets_after: u32) {}
    /// Called once per refinement iteration.
    fn on_iteration(&mut self, _event: &IterationEvent) {}
    /// Whether this observer consumes [`IterationEvent`]s. Adapters whose per-iteration
    /// metrics cost extra work (e.g. a full fanout scan per sweep) may skip computing them
    /// when this returns `false`. Defaults to `true`.
    fn wants_iterations(&self) -> bool {
        true
    }
}

/// An observer that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl ProgressObserver for NoopObserver {
    fn wants_iterations(&self) -> bool {
        false
    }
}

/// An observer that records every event, for tests and post-run analysis.
#[derive(Debug, Clone, Default)]
pub struct TraceObserver {
    /// Every iteration event in execution order.
    pub iterations: Vec<IterationEvent>,
    /// `(level, buckets_after)` for every completed split level.
    pub levels: Vec<(usize, u32)>,
}

impl ProgressObserver for TraceObserver {
    fn on_level(&mut self, level: usize, buckets_after: u32) {
        self.levels.push((level, buckets_after));
    }

    fn on_iteration(&mut self, event: &IterationEvent) {
        self.iterations.push(*event);
    }
}

/// An observer bridge that mirrors every progress event into the process-wide telemetry
/// registry ([`shp_telemetry::global`]) while forwarding it, unchanged, to the wrapped
/// observer — so a [`TraceObserver`] (or any other observer) keeps working exactly as before
/// while counters/gauges accumulate alongside.
///
/// Records, when telemetry is enabled: `partition/observer/iterations` and
/// `partition/observer/moves` counters, a `partition/observer/fanout` gauge (the latest
/// iteration's fanout), and a `partition/observer/levels` counter. Never alters events and
/// never feeds anything back into the algorithm, so wrapping cannot change an outcome.
/// [`ProgressObserver::wants_iterations`] forwards the inner observer's answer unchanged —
/// telemetry alone never forces adapters into computing per-iteration metrics.
pub struct TelemetryObserver<'a> {
    inner: &'a mut dyn ProgressObserver,
}

impl std::fmt::Debug for TelemetryObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryObserver").finish_non_exhaustive()
    }
}

impl<'a> TelemetryObserver<'a> {
    /// Wraps `inner`, mirroring its events into the global telemetry registry.
    pub fn new(inner: &'a mut dyn ProgressObserver) -> Self {
        TelemetryObserver { inner }
    }
}

impl ProgressObserver for TelemetryObserver<'_> {
    fn on_level(&mut self, level: usize, buckets_after: u32) {
        if shp_telemetry::enabled() {
            shp_telemetry::global()
                .counter("partition/observer/levels")
                .inc();
        }
        self.inner.on_level(level, buckets_after);
    }

    fn on_iteration(&mut self, event: &IterationEvent) {
        if shp_telemetry::enabled() {
            let registry = shp_telemetry::global();
            registry.counter("partition/observer/iterations").inc();
            registry
                .counter("partition/observer/moves")
                .add(event.moved as u64);
            registry
                .gauge("partition/observer/fanout")
                .set(event.fanout);
        }
        self.inner.on_iteration(event);
    }

    fn wants_iterations(&self) -> bool {
        self.inner.wants_iterations()
    }
}

/// The algorithm-independent request: what to partition into, under which constraints.
///
/// Built with [`PartitionSpec::new`] plus `with_*` setters; [`PartitionSpec::validate`] is run
/// by every adapter before it starts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// Number of buckets `k`. It may exceed the number of data vertices `|D|`: with `ε < 1`
    /// the capacity `⌊(1 + ε)·⌈|D|/k⌉⌋` is then one vertex, so [`enforce_balance`] leaves at
    /// most one unit-weight vertex per bucket, `k − |D|` buckets stay empty, and the outcome
    /// reports imbalance `k/|D| − 1`.
    pub num_buckets: u32,
    /// Allowed imbalance ratio `ε ≥ 0`; every outcome satisfies the corresponding
    /// [`Partition::max_allowed_weight`] capacity.
    pub epsilon: f64,
    /// Seed for every random decision, making runs reproducible.
    pub seed: u64,
    /// Iteration cap for iterative algorithms; `None` keeps each algorithm's paper default
    /// (60 for direct SHP-k, 20 per split for SHP-2, 15 sweeps for label propagation, …).
    pub max_iterations: Option<usize>,
    /// Optimization objective for algorithms that have one (the SHP family).
    pub objective: ObjectiveKind,
    /// Worker count: the number of real threads driving every parallel hot path (gain
    /// computation, neighbor-data/histogram construction, clique-net build), and doubling as
    /// the simulated machine count for the distributed BSP algorithms. Outcomes are
    /// **bit-identical for every worker count** — the rayon shim reduces per-chunk results in
    /// chunk order — so `workers` trades wall-clock time only.
    pub workers: usize,
}

impl Default for PartitionSpec {
    fn default() -> Self {
        PartitionSpec {
            num_buckets: 2,
            epsilon: 0.05,
            seed: 0x5047,
            max_iterations: None,
            objective: ObjectiveKind::default_p_fanout(),
            workers: 4,
        }
    }
}

impl PartitionSpec {
    /// A spec for `k` buckets with the paper-default `ε = 0.05`, `p = 0.5`, seed `0x5047`.
    pub fn new(k: u32) -> Self {
        PartitionSpec {
            num_buckets: k,
            ..Default::default()
        }
    }

    /// Sets the allowed imbalance ratio.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the refinement iterations (per split level for recursive algorithms).
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = Some(iters);
        self
    }

    /// Sets the optimization objective.
    pub fn with_objective(mut self, objective: ObjectiveKind) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the worker count (real threads for the hot paths; also the simulated machine
    /// count of the distributed algorithms). The outcome does not depend on it.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    /// Returns [`ShpError::InvalidConfig`] for zero buckets, a non-finite or negative `ε`,
    /// `p` outside `(0, 1)`, a zero iteration cap, or zero workers.
    pub fn validate(&self) -> ShpResult<()> {
        if self.workers == 0 {
            return Err(ShpError::InvalidConfig("workers must be at least 1".into()));
        }
        if self.max_iterations == Some(0) {
            return Err(ShpError::InvalidConfig(
                "max_iterations must be at least 1".into(),
            ));
        }
        // Bucket count, epsilon, and objective share the ShpConfig validation rules.
        self.shp_config(PartitionMode::Direct).validate()
    }

    /// Lowers the spec into the legacy [`ShpConfig`] for the given execution mode, applying the
    /// paper-default iteration caps when none is set.
    pub fn shp_config(&self, mode: PartitionMode) -> ShpConfig {
        let default_iterations = match mode {
            PartitionMode::Direct => 60,
            PartitionMode::Recursive { .. } => 20,
        };
        ShpConfig {
            num_buckets: self.num_buckets,
            epsilon: self.epsilon,
            objective: self.objective,
            mode,
            max_iterations: self.max_iterations.unwrap_or(default_iterations),
            seed: self.seed,
            workers: self.workers.max(1),
            ..ShpConfig::default()
        }
    }
}

/// The unified result of any partitioning run.
///
/// One type replaces the previous zoo ([`PartitionResult`], `DistributedRunResult`, and the
/// baselines' bare [`Partition`] returns) so tables, sweeps, and the serving warm-start path
/// consume every algorithm identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionOutcome {
    /// Registry name of the algorithm that produced the partition.
    pub algorithm: String,
    /// The bucket assignment.
    pub partition: Partition,
    /// Average query fanout of the partition.
    pub fanout: f64,
    /// Average p-fanout (p = 0.5), comparable across objectives.
    pub p_fanout: f64,
    /// Realized imbalance `max_i |V_i| / (n/k) − 1`.
    pub imbalance: f64,
    /// Refinement iterations executed (0 for one-shot algorithms like random/hash).
    pub iterations: usize,
    /// Total vertex moves applied during refinement (0 for one-shot algorithms).
    pub moves: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl PartitionOutcome {
    /// Assembles an outcome from a finished partition, computing the quality metrics.
    pub fn from_partition(
        algorithm: impl Into<String>,
        graph: &BipartiteGraph,
        partition: Partition,
        iterations: usize,
        moves: u64,
        elapsed: Duration,
    ) -> Self {
        PartitionOutcome {
            algorithm: algorithm.into(),
            fanout: average_fanout(graph, &partition),
            p_fanout: average_p_fanout(graph, &partition, 0.5),
            imbalance: partition.imbalance(),
            partition,
            iterations,
            moves,
            elapsed,
        }
    }

    /// Renders the outcome as a JSON object (the vendored serde backend has no data format, so
    /// the canonical machine-readable form is emitted by hand).
    ///
    /// The `assignment` array holds the bucket of every data vertex in id order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + 2 * self.partition.num_data());
        out.push_str("{\"algorithm\":\"");
        for c in self.algorithm.chars() {
            match c {
                '"' | '\\' => {
                    out.push('\\');
                    out.push(c);
                }
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str(&format!(
            "\",\"num_buckets\":{},\"fanout\":{:.6},\"p_fanout\":{:.6},\"imbalance\":{:.6},\
             \"iterations\":{},\"moves\":{},\"elapsed_micros\":{},\"assignment\":[",
            self.partition.num_buckets(),
            self.fanout,
            self.p_fanout,
            self.imbalance,
            self.iterations,
            self.moves,
            self.elapsed.as_micros()
        ));
        for (i, &b) in self.partition.assignment().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&b.to_string());
        }
        out.push_str("]}");
        out
    }
}

/// A k-way hypergraph partitioner behind the unified interface.
///
/// Implementations read **everything** run-specific from the [`PartitionSpec`] (including the
/// seed), so one instance can serve many specs and two runs with equal specs produce equal
/// partitions.
pub trait Partitioner {
    /// Registry name of the algorithm (stable, lowercase, e.g. `"shp2"`).
    fn name(&self) -> &str;

    /// Partitions the data vertices of `graph` according to `spec`, reporting progress to
    /// `obs`.
    ///
    /// # Errors
    /// Returns [`ShpError::InvalidConfig`] for invalid specs and algorithm-specific errors
    /// otherwise (e.g. [`ShpError::PartitionMismatch`] for a bad warm start).
    fn partition(
        &self,
        graph: &BipartiteGraph,
        spec: &PartitionSpec,
        obs: &mut dyn ProgressObserver,
    ) -> ShpResult<PartitionOutcome>;
}

/// Deterministically repairs `partition` so no bucket exceeds
/// [`Partition::max_allowed_weight`]`(epsilon)`.
///
/// Vertices are taken from overfull buckets in descending id order and moved to the currently
/// lightest bucket. For the unit-weight partitions this workspace produces, the capacity
/// `⌊(1 + ε)⌈n/k⌉⌋ ≥ ⌈n/k⌉` always admits a full repair; with heterogeneous vertex weights the
/// repair is best-effort. When `k > n` and `ε < 1` the capacity is one vertex, so the repair
/// spreads the vertices one per bucket and `k − n` buckets stay empty. Returns the number of
/// vertices moved (0 when already balanced).
///
/// Costs `O(k)` on a balanced partition and `O(|D| + k·log k + moves·log k)` otherwise.
pub fn enforce_balance(partition: &mut Partition, epsilon: f64) -> usize {
    let moves = balance_moves(partition, partition.max_allowed_weight(epsilon));
    partition.assign_all(&moves);
    moves.len()
}

/// The moves of [`enforce_balance`], in order, for capacity `cap`: one pass over the
/// assignment collects the members of the overfull buckets, and an ordered set over
/// `(weight, bucket)` yields the lightest target. `partition_incremental` repairs with it too.
pub(crate) fn balance_moves(partition: &Partition, cap: u64) -> Vec<(DataId, BucketId)> {
    let mut weights = partition.bucket_weights().to_vec();
    let overfull: Vec<BucketId> = (0..partition.num_buckets())
        .filter(|&b| weights[b as usize] > cap)
        .collect();
    if overfull.is_empty() {
        return Vec::new();
    }
    let mut by_weight: BTreeSet<(u64, BucketId)> = weights
        .iter()
        .enumerate()
        .map(|(b, &w)| (w, b as BucketId))
        .collect();
    // `position[b]` is bucket b's index in `overfull` (usize::MAX when b is not overfull).
    let mut position = vec![usize::MAX; weights.len()];
    for (i, &b) in overfull.iter().enumerate() {
        position[b as usize] = i;
    }
    let mut members: Vec<Vec<DataId>> = vec![Vec::new(); overfull.len()];
    for (v, &b) in partition.assignment().iter().enumerate() {
        if let Some(list) = members.get_mut(position[b as usize]) {
            list.push(v as DataId);
        }
    }
    let mut moves = Vec::new();
    for (&b, members) in overfull.iter().zip(&mut members) {
        // Highest ids first: deterministic, and leaves the low-id (often hub) vertices alone.
        while weights[b as usize] > cap {
            let Some(v) = members.pop() else { break };
            let (_, target) = *by_weight
                .iter()
                .find(|&&(_, t)| t != b)
                .expect("k >= 2 when a bucket is overfull");
            let w = partition.vertex_weight(v);
            if weights[target as usize] + w > cap {
                break; // best-effort: every other bucket is at capacity
            }
            for (bucket, weight) in [
                (b, weights[b as usize] - w),
                (target, weights[target as usize] + w),
            ] {
                by_weight.remove(&(weights[bucket as usize], bucket));
                by_weight.insert((weight, bucket));
                weights[bucket as usize] = weight;
            }
            moves.push((v, target));
        }
    }
    moves
}

/// Shared adapter epilogue: repair the spec's balance bound with [`enforce_balance`], then
/// assemble the [`PartitionOutcome`] with its quality metrics.
///
/// Every adapter in the workspace (the core SHP paths here and the baselines of
/// `shp-baselines`) funnels through this one function, so the repair-then-measure contract
/// cannot diverge between crates.
pub fn assemble_outcome(
    algorithm: &str,
    graph: &BipartiteGraph,
    mut partition: Partition,
    spec: &PartitionSpec,
    iterations: usize,
    moves: u64,
    elapsed: Duration,
) -> PartitionOutcome {
    let repaired = {
        let _span = shp_telemetry::Span::enter("partition/balance_repair");
        enforce_balance(&mut partition, spec.epsilon)
    };
    if shp_telemetry::enabled() {
        let registry = shp_telemetry::global();
        registry.counter("partition/runs").inc();
        registry
            .counter("partition/iterations_total")
            .add(iterations as u64);
        registry.counter("partition/moves_total").add(moves);
        registry
            .counter("partition/balance_repair_moves")
            .add(repaired as u64);
    }
    PartitionOutcome::from_partition(algorithm, graph, partition, iterations, moves, elapsed)
}

/// Replays a finished [`RunReport`] into an observer (iterations, then levels).
fn replay_report(report: &RunReport, obs: &mut dyn ProgressObserver) {
    for stats in &report.history {
        obs.on_iteration(&IterationEvent {
            iteration: stats.iteration,
            moved: stats.moved,
            fanout: stats.fanout_after,
        });
    }
    for level in &report.levels {
        obs.on_level(level.level, level.buckets_after);
    }
}

/// Converts a [`PartitionResult`] into an outcome, feeding the observer.
fn outcome_of_result(
    algorithm: &str,
    graph: &BipartiteGraph,
    result: PartitionResult,
    spec: &PartitionSpec,
    obs: &mut dyn ProgressObserver,
) -> PartitionOutcome {
    replay_report(&result.report, obs);
    assemble_outcome(
        algorithm,
        graph,
        result.partition,
        spec,
        result.report.total_iterations(),
        result.report.total_moves() as u64,
        result.report.elapsed,
    )
}

/// SHP-2: recursive bisection (the open-sourced variant). Registry name `"shp2"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shp2;

impl Partitioner for Shp2 {
    fn name(&self) -> &str {
        "shp2"
    }

    fn partition(
        &self,
        graph: &BipartiteGraph,
        spec: &PartitionSpec,
        obs: &mut dyn ProgressObserver,
    ) -> ShpResult<PartitionOutcome> {
        spec.validate()?;
        let config = spec.shp_config(PartitionMode::recursive_bisection());
        let result = crate::recursive::partition_recursive(graph, &config)?;
        Ok(outcome_of_result(self.name(), graph, result, spec, obs))
    }
}

/// SHP-k: direct k-way optimization. Registry name `"shpk"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShpK;

impl Partitioner for ShpK {
    fn name(&self) -> &str {
        "shpk"
    }

    fn partition(
        &self,
        graph: &BipartiteGraph,
        spec: &PartitionSpec,
        obs: &mut dyn ProgressObserver,
    ) -> ShpResult<PartitionOutcome> {
        spec.validate()?;
        let config = spec.shp_config(PartitionMode::Direct);
        let result = crate::direct::partition_direct(graph, &config)?;
        Ok(outcome_of_result(self.name(), graph, result, spec, obs))
    }
}

/// SHP on the vertex-centric BSP engine (Figure 3's four supersteps), with
/// `spec.workers` simulated workers. Registry name `"distributed"` (recursive-bisection
/// mode, the production default); construct with [`DistributedShp::direct`] for the direct
/// k-way distributed variant.
#[derive(Debug, Clone, Copy)]
pub struct DistributedShp {
    /// Overrides `spec.workers` when set.
    pub num_workers: Option<usize>,
    /// Execution mode of the engine jobs (one job per split level in recursive mode).
    pub mode: PartitionMode,
}

impl Default for DistributedShp {
    fn default() -> Self {
        DistributedShp {
            num_workers: None,
            mode: PartitionMode::recursive_bisection(),
        }
    }
}

impl DistributedShp {
    /// The direct k-way distributed variant (SHP-k on the BSP engine).
    pub fn direct() -> Self {
        DistributedShp {
            num_workers: None,
            mode: PartitionMode::Direct,
        }
    }
}

impl Partitioner for DistributedShp {
    fn name(&self) -> &str {
        "distributed"
    }

    fn partition(
        &self,
        graph: &BipartiteGraph,
        spec: &PartitionSpec,
        obs: &mut dyn ProgressObserver,
    ) -> ShpResult<PartitionOutcome> {
        spec.validate()?;
        let workers = self.num_workers.unwrap_or(spec.workers).max(1);
        let config = spec.shp_config(self.mode);
        let result = partition_distributed(graph, &config, workers)?;
        let mut moves = 0u64;
        for stats in &result.history {
            obs.on_iteration(&IterationEvent {
                iteration: stats.iteration,
                moved: stats.moved as usize,
                fanout: stats.fanout,
            });
            moves += stats.moved;
        }
        let iterations = result.history.len();
        Ok(assemble_outcome(
            self.name(),
            graph,
            result.partition,
            spec,
            iterations,
            moves,
            result.elapsed,
        ))
    }
}

/// Incremental SHP (Section 5, requirement (i)): refine a previous partition, penalizing
/// movement away from it. Registry name `"incremental"`.
///
/// Without a warm start ([`IncrementalShp::with_previous`]), the run starts from a seeded
/// random partition — useful for sweeps, though then nothing distinguishes the "previous"
/// placement from noise.
#[derive(Debug, Clone, Default)]
pub struct IncrementalShp {
    /// Penalty/churn options of the incremental run.
    pub config: IncrementalConfig,
    /// Previous partition to warm-start from; must match the graph and `spec.num_buckets`.
    pub previous: Option<Partition>,
}

impl IncrementalShp {
    /// Warm-starts the refinement from `previous`.
    pub fn with_previous(mut self, previous: Partition) -> Self {
        self.previous = Some(previous);
        self
    }

    /// Sets the incremental penalty/churn options.
    pub fn with_config(mut self, config: IncrementalConfig) -> Self {
        self.config = config;
        self
    }
}

impl Partitioner for IncrementalShp {
    fn name(&self) -> &str {
        "incremental"
    }

    fn partition(
        &self,
        graph: &BipartiteGraph,
        spec: &PartitionSpec,
        obs: &mut dyn ProgressObserver,
    ) -> ShpResult<PartitionOutcome> {
        spec.validate()?;
        let config = spec.shp_config(PartitionMode::Direct);
        let previous = match &self.previous {
            Some(previous) => previous.clone(),
            None => {
                let mut rng = Pcg64::seed_from_u64(spec.seed);
                Partition::new_random(graph, spec.num_buckets, &mut rng)?
            }
        };
        let result = partition_incremental(graph, &config, &self.config, &previous)?;
        Ok(outcome_of_result(self.name(), graph, result, spec, obs))
    }
}

/// A boxed partitioner, as handed out by the registry.
pub type BoxedPartitioner = Box<dyn Partitioner + Send + Sync>;

/// A factory building a partitioner for a given spec.
pub type PartitionerFactory = Box<dyn Fn(&PartitionSpec) -> BoxedPartitioner + Send + Sync>;

/// A runtime name → algorithm table, so callers enumerate and construct partitioners by
/// string (`shp partition --mode <name>`, sweep drivers, baseline tables).
///
/// [`AlgorithmRegistry::core`] registers this crate's four execution paths; `shp-baselines`
/// adds its five with `register_baselines`, and downstream crates may register their own.
#[derive(Default)]
pub struct AlgorithmRegistry {
    factories: BTreeMap<String, PartitionerFactory>,
}

impl AlgorithmRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry with this crate's algorithms: `shp2`, `shpk`, `distributed`, `incremental`.
    pub fn core() -> Self {
        let mut registry = Self::new();
        registry.register("shp2", |_| Box::new(Shp2));
        registry.register("shpk", |_| Box::new(ShpK));
        registry.register("distributed", |_| Box::new(DistributedShp::default()));
        registry.register("incremental", |_| Box::new(IncrementalShp::default()));
        registry
    }

    /// Registers (or replaces) an algorithm under `name`.
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F)
    where
        F: Fn(&PartitionSpec) -> BoxedPartitioner + Send + Sync + 'static,
    {
        self.factories.insert(name.into(), Box::new(factory));
    }

    /// Constructs the named algorithm for `spec`.
    ///
    /// # Errors
    /// Returns [`ShpError::UnknownAlgorithm`] (listing every registered name) when `name` is
    /// not registered.
    pub fn create(&self, name: &str, spec: &PartitionSpec) -> ShpResult<BoxedPartitioner> {
        match self.factories.get(name) {
            Some(factory) => Ok(factory(spec)),
            None => Err(ShpError::UnknownAlgorithm {
                name: name.to_string(),
                available: self.names(),
            }),
        }
    }

    /// Constructs the named algorithm with default construction-time options (the common case:
    /// all run-time behaviour comes from the spec passed to [`Partitioner::partition`]).
    ///
    /// # Errors
    /// Same contract as [`AlgorithmRegistry::create`].
    pub fn get(&self, name: &str) -> ShpResult<BoxedPartitioner> {
        self.create(name, &PartitionSpec::default())
    }

    /// Every registered name, sorted.
    pub fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Convenience: construct the named algorithm and run it in one call.
    ///
    /// # Errors
    /// Propagates [`AlgorithmRegistry::create`] and [`Partitioner::partition`] errors.
    pub fn run(
        &self,
        name: &str,
        graph: &BipartiteGraph,
        spec: &PartitionSpec,
        obs: &mut dyn ProgressObserver,
    ) -> ShpResult<PartitionOutcome> {
        self.create(name, spec)?.partition(graph, spec, obs)
    }
}

impl std::fmt::Debug for AlgorithmRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgorithmRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shp_hypergraph::GraphBuilder;

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

    #[test]
    fn telemetry_observer_forwards_events_unchanged() {
        let graph = community_graph(4, 8);
        let spec = PartitionSpec::new(4).with_seed(7).with_max_iterations(8);
        let registry = AlgorithmRegistry::core();

        let mut bare = TraceObserver::default();
        let plain = registry.run("shp2", &graph, &spec, &mut bare).unwrap();

        let mut wrapped_inner = TraceObserver::default();
        let mut wrapped = TelemetryObserver::new(&mut wrapped_inner);
        assert!(wrapped.wants_iterations());
        let bridged = registry.run("shp2", &graph, &spec, &mut wrapped).unwrap();

        // The bridge is invisible to both the observer and the algorithm.
        assert_eq!(wrapped_inner.iterations, bare.iterations);
        assert_eq!(wrapped_inner.levels, bare.levels);
        assert_eq!(bridged.partition.assignment(), plain.partition.assignment());
        assert_eq!(bridged.fanout.to_bits(), plain.fanout.to_bits());
    }

    #[test]
    fn core_registry_runs_all_four_algorithms() {
        let graph = community_graph(4, 8);
        let registry = AlgorithmRegistry::core();
        assert_eq!(
            registry.names(),
            vec!["distributed", "incremental", "shp2", "shpk"]
        );
        let spec = PartitionSpec::new(4).with_seed(3).with_max_iterations(10);
        for name in registry.names() {
            let outcome = registry
                .run(&name, &graph, &spec, &mut NoopObserver)
                .unwrap();
            assert_eq!(outcome.algorithm, name);
            assert_eq!(outcome.partition.num_buckets(), 4);
            assert_eq!(outcome.partition.num_data(), graph.num_data());
            assert!(outcome.fanout >= 1.0, "{name} fanout {}", outcome.fanout);
        }
    }

    #[test]
    fn unknown_algorithm_lists_available_names() {
        let registry = AlgorithmRegistry::core();
        let Err(err) = registry.get("shp3") else {
            panic!("lookup of an unregistered name must fail")
        };
        match err {
            ShpError::UnknownAlgorithm { name, available } => {
                assert_eq!(name, "shp3");
                assert!(available.contains(&"shp2".to_string()));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn observer_receives_the_iteration_trace() {
        let graph = community_graph(4, 8);
        let spec = PartitionSpec::new(4).with_seed(3).with_max_iterations(10);
        let mut trace = TraceObserver::default();
        let outcome = Shp2.partition(&graph, &spec, &mut trace).unwrap();
        assert_eq!(trace.iterations.len(), outcome.iterations);
        assert!(!trace.levels.is_empty());
        assert_eq!(
            trace.iterations.iter().map(|e| e.moved).sum::<usize>() as u64,
            outcome.moves
        );
    }

    #[test]
    fn equal_specs_produce_equal_partitions() {
        let graph = community_graph(4, 6);
        let registry = AlgorithmRegistry::core();
        let spec = PartitionSpec::new(4).with_seed(11).with_max_iterations(8);
        for name in registry.names() {
            let a = registry
                .run(&name, &graph, &spec, &mut NoopObserver)
                .unwrap();
            let b = registry
                .run(&name, &graph, &spec, &mut NoopObserver)
                .unwrap();
            assert_eq!(
                a.partition.assignment(),
                b.partition.assignment(),
                "{name} must be deterministic for a fixed seed"
            );
        }
    }

    #[test]
    fn incremental_warm_start_limits_churn() {
        let graph = community_graph(4, 8);
        let spec = PartitionSpec::new(4).with_seed(3).with_max_iterations(20);
        let good = ShpK.partition(&graph, &spec, &mut NoopObserver).unwrap();
        let warm = IncrementalShp::default().with_previous(good.partition.clone());
        let refined = warm.partition(&graph, &spec, &mut NoopObserver).unwrap();
        assert!(refined.fanout <= good.fanout + 1e-9);
        assert!(refined.partition.hamming_distance(&good.partition) <= graph.num_data() / 2);
    }

    #[test]
    fn incremental_rejects_mismatched_warm_start() {
        let graph = community_graph(4, 8);
        let other = community_graph(4, 9);
        let spec = PartitionSpec::new(4).with_seed(3);
        let mut rng = Pcg64::seed_from_u64(1);
        let previous = Partition::new_random(&other, 4, &mut rng).unwrap();
        let err = IncrementalShp::default()
            .with_previous(previous)
            .partition(&graph, &spec, &mut NoopObserver)
            .unwrap_err();
        assert!(matches!(err, ShpError::PartitionMismatch { .. }));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(PartitionSpec::new(0).validate().is_err());
        assert!(PartitionSpec::new(4).with_epsilon(-1.0).validate().is_err());
        assert!(PartitionSpec::new(4)
            .with_objective(ObjectiveKind::ProbabilisticFanout { p: 1.5 })
            .validate()
            .is_err());
        assert!(matches!(
            PartitionSpec {
                workers: 0,
                ..PartitionSpec::new(4)
            }
            .validate(),
            Err(ShpError::InvalidConfig(_))
        ));
        assert!(PartitionSpec::new(4)
            .with_max_iterations(1)
            .validate()
            .is_ok());
        let graph = community_graph(2, 4);
        let err = Shp2
            .partition(&graph, &PartitionSpec::new(0), &mut NoopObserver)
            .unwrap_err();
        assert!(matches!(err, ShpError::InvalidConfig(_)));
    }

    #[test]
    fn enforce_balance_repairs_an_overfull_bucket() {
        let graph = community_graph(2, 8);
        // Everything in bucket 0 of 4: maximally imbalanced.
        let mut partition =
            Partition::from_assignment(&graph, 4, vec![0; graph.num_data()]).unwrap();
        let moved = enforce_balance(&mut partition, 0.0);
        assert!(moved > 0);
        assert!(
            partition.is_balanced(0.0),
            "weights {:?}",
            partition.bucket_weights()
        );
        // Repairing an already balanced partition is a no-op.
        assert_eq!(enforce_balance(&mut partition, 0.0), 0);
    }

    /// The original repair loop, kept as the oracle for [`balance_moves`]: it collects each
    /// overfull bucket's members with a full scan and finds every target with a scan over all
    /// `k` buckets.
    fn enforce_balance_oracle(partition: &mut Partition, epsilon: f64) -> Vec<(DataId, BucketId)> {
        let cap = partition.max_allowed_weight(epsilon);
        let mut moves = Vec::new();
        if partition.is_balanced(epsilon) {
            return moves;
        }
        let k = partition.num_buckets();
        let overfull: Vec<BucketId> = (0..k)
            .filter(|&b| partition.bucket_weight(b) > cap)
            .collect();
        for b in overfull {
            let mut members = partition.bucket_members(b);
            while partition.bucket_weight(b) > cap {
                let Some(v) = members.pop() else { break };
                let target = (0..k)
                    .filter(|&t| t != b)
                    .min_by_key(|&t| (partition.bucket_weight(t), t))
                    .expect("k >= 2 when a bucket is overfull");
                if partition.bucket_weight(target) + partition.vertex_weight(v) > cap {
                    break;
                }
                partition.assign(v, target);
                moves.push((v, target));
            }
        }
        moves
    }

    #[test]
    fn balance_moves_equal_the_original_repair_loop() {
        use rand::Rng;
        let mut repairs = 0;
        for seed in 0..60u64 {
            let mut rng = Pcg64::seed_from_u64(seed);
            let n: u32 = rng.gen_range(1..400);
            let mut b = GraphBuilder::new();
            for v in 0..n {
                b.add_query([v]);
            }
            if seed % 2 == 1 {
                b.set_data_weights((0..n).map(|_| rng.gen_range(0..6)).collect());
            }
            let graph = b.build().unwrap();
            let k: u32 = rng.gen_range(1..48);
            // A skewed start: most vertices crowd into a few hot buckets.
            let hot = rng.gen_range(1..=k.min(3));
            let assignment = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.7) {
                        rng.gen_range(0..hot)
                    } else {
                        rng.gen_range(0..k)
                    }
                })
                .collect();
            let epsilon = [0.0, 0.03, 0.1, 0.5][seed as usize % 4];
            let partition = Partition::from_assignment(&graph, k, assignment).unwrap();

            let mut oracle = partition.clone();
            let expected = enforce_balance_oracle(&mut oracle, epsilon);
            if !partition.is_balanced(epsilon) {
                let cap = partition.max_allowed_weight(epsilon);
                assert_eq!(balance_moves(&partition, cap), expected, "seed {seed}");
                repairs += 1;
            }
            let mut repaired = partition;
            assert_eq!(enforce_balance(&mut repaired, epsilon), expected.len());
            assert_eq!(repaired, oracle, "seed {seed}");
        }
        assert!(repairs > 30, "only {repairs} inputs needed a repair");
    }

    #[test]
    fn outcomes_respect_the_spec_epsilon() {
        let graph = community_graph(4, 8);
        let registry = AlgorithmRegistry::core();
        let spec = PartitionSpec::new(4)
            .with_seed(1)
            .with_epsilon(0.0)
            .with_max_iterations(5);
        for name in registry.names() {
            let outcome = registry
                .run(&name, &graph, &spec, &mut NoopObserver)
                .unwrap();
            assert!(
                outcome.partition.is_balanced(spec.epsilon),
                "{name} weights {:?}",
                outcome.partition.bucket_weights()
            );
        }
    }

    #[test]
    fn json_rendering_contains_every_field() {
        let graph = community_graph(2, 4);
        let spec = PartitionSpec::new(2).with_seed(1).with_max_iterations(5);
        let outcome = Shp2.partition(&graph, &spec, &mut NoopObserver).unwrap();
        let json = outcome.to_json();
        for needle in [
            "\"algorithm\":\"shp2\"",
            "\"num_buckets\":2",
            "\"fanout\":",
            "\"p_fanout\":",
            "\"imbalance\":",
            "\"iterations\":",
            "\"moves\":",
            "\"elapsed_micros\":",
            "\"assignment\":[",
        ] {
            assert!(json.contains(needle), "{json} should contain {needle}");
        }
        assert!(
            json.matches(',').count() >= graph.num_data() - 1,
            "assignment array should list every vertex"
        );
    }
}
