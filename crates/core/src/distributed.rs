//! The distributed execution path: SHP as a vertex-centric program (Figure 3 of the paper).
//!
//! Every iteration of Algorithm 1 is expressed as four supersteps on the BSP engine of
//! `shp-vertex-centric`:
//!
//! 1. **Collect buckets** — every data vertex sends its current bucket to its adjacent query
//!    vertices (and, under the `All` constraint, its weight to the master, which broadcasts
//!    the least-loaded bucket: lowest weight, then lowest id).
//! 2. **Neighbor data** — every query vertex aggregates the received buckets into its neighbor
//!    data `n_i(q)` and sends the non-zero entries back to its adjacent data vertices.
//! 3. **Move gains** — every data vertex computes its move gains from the received neighbor
//!    data, picks a target bucket, and contributes its proposal to the master's gain
//!    histograms (the aggregate).
//! 4. **Apply moves** — the master has turned the aggregated histograms into move
//!    probabilities (the global value); every data vertex flips its deterministic coin and
//!    moves accordingly.
//!
//! What the distributed path adds is per-superstep communication accounting and the ability to
//! scale the number of simulated workers (Figures 5a/5b, Table 3). All else it shares with the
//! in-process paths ([`crate::partition_recursive`], [`crate::partition_direct`]): the split
//! schedule, seeds, random start, gain kernel (over the payloads a data vertex received, in
//! ascending query order), least-loaded bucket, move probabilities and move coins.
//!
//! One difference is left: the BSP path reads no `ε`, `balance_mode` or
//! `allow_imbalanced_moves`, so no capacity trim, strict pairing or imbalanced move follows
//! the coins. Wherever the trim cannot bind (a large `ε`, the default balance mode, imbalanced
//! moves off) both paths return the same partition and per-iteration move counts bit for bit,
//! at every worker count
//! (`tests/parallel_conformance.rs::bsp_equals_in_process_where_the_trim_cannot_bind`).

use crate::config::{PartitionMode, ShpConfig, SwapStrategy};
use crate::error::{ShpError, ShpResult};
use crate::gains::{standing_with, GainScratch, MoveProposal, TargetConstraint};
use crate::histogram::GainHistogramSet;
use crate::neighbor_data::count_buckets;
use crate::objective::Objective;
use crate::pair_table::PairLayout;
use crate::recursive::split_schedule;
use crate::refinement::unit_hash;
use crate::swap::{MoveProbabilities, SwapMatrix};
use rand::SeedableRng;
use rand_pcg::Pcg64;
use serde::{Deserialize, Serialize};
use shp_hypergraph::{average_fanout, average_p_fanout, BipartiteGraph, BucketId, Partition};
use shp_vertex_centric::{
    Context, Engine, EngineConfig, ExecutionMetrics, MasterOutcome, Messages, Topology,
    VertexProgram,
};
use std::time::Instant;

/// Per-iteration statistics reported by the distributed master.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributedIterationStats {
    /// Iteration index within the current engine run.
    pub iteration: usize,
    /// Number of data vertices moved.
    pub moved: u64,
    /// Average query fanout observed at the start of the iteration.
    pub fanout: f64,
}

/// Result of a distributed partitioning run.
#[derive(Debug, Clone)]
pub struct DistributedRunResult {
    /// The final bucket assignment.
    pub partition: Partition,
    /// Per-iteration statistics (concatenated over recursion levels in recursive mode).
    pub history: Vec<DistributedIterationStats>,
    /// Engine communication metrics (concatenated over recursion levels).
    pub metrics: ExecutionMetrics,
    /// Average fanout of the final partition.
    pub final_fanout: f64,
    /// Average p-fanout (p = 0.5) of the final partition.
    pub final_p_fanout: f64,
    /// Total wall-clock time.
    pub elapsed: std::time::Duration,
}

/// Vertex value: data vertices carry their bucket and pending proposal, query vertices are
/// stateless (their neighbor data is recomputed every iteration from fresh messages).
#[derive(Debug, Clone)]
enum ShpValue {
    Data {
        bucket: BucketId,
        proposal: Option<(BucketId, f64)>,
    },
    Query,
}

/// Messages exchanged along bipartite edges.
///
/// The engine stores a message once in the sending worker's outbox, however many vertices it
/// is sent to, and each receiver reads it in place; [`VertexProgram::message_size`] still
/// charges every receiver its wire size (Section 3.3's accounting).
#[derive(Debug, Clone)]
enum ShpMessage {
    /// Data → query: the sender's current bucket.
    Bucket(BucketId),
    /// Query → data: the query's non-zero neighbor data `n_i(q)`, built once per iteration and
    /// sent to all its pins; charged 8 bytes per entry.
    NeighborData(NeighborCounts),
}

/// A query's non-zero neighbor data as sent: `(bucket, count)` pairs in ascending bucket
/// order. Up to two entries are stored inline, so a query whose pins sit in at most two
/// buckets allocates nothing to send them.
#[derive(Debug, Clone)]
enum NeighborCounts {
    Inline(u8, [(BucketId, u32); 2]),
    Boxed(Box<[(BucketId, u32)]>),
}

impl NeighborCounts {
    fn new(counts: &[(BucketId, u32)]) -> Self {
        match *counts {
            [one] => NeighborCounts::Inline(1, [one, (0, 0)]),
            [one, two] => NeighborCounts::Inline(2, [one, two]),
            _ => NeighborCounts::Boxed(counts.into()),
        }
    }

    fn as_slice(&self) -> &[(BucketId, u32)] {
        match self {
            NeighborCounts::Inline(len, entries) => &entries[..usize::from(*len)],
            NeighborCounts::Boxed(entries) => entries,
        }
    }
}

/// Per-superstep aggregate collected by the master.
///
/// A vertex adds its share to its worker's accumulator in place ([`Context::accumulator`]): a
/// gain proposal to `histograms`, a weight to `bucket_weights`, a move to `moved`, a fanout to
/// `fanout_sum`. So a contribution allocates nothing and each worker builds exactly one
/// histogram set per superstep, laid out by the program's constraint
/// ([`TargetConstraint::pair_layout`]): under SHP-2's sibling constraint one slot per sibling
/// pair, under `All` the k² pair index. The master merges the workers' accumulators, which
/// share that layout, in worker-index order ([`VertexProgram::merge_aggregates`]).
#[derive(Debug, Clone, Default)]
struct ShpAggregate {
    histograms: GainHistogramSet,
    /// Under `All`: the weight of every bucket.
    bucket_weights: Vec<u64>,
    moved: u64,
    fanout_sum: u64,
}

impl ShpAggregate {
    /// The histogram set, laid out by `layout` before its first proposal.
    fn histograms(&mut self, layout: &PairLayout) -> &mut GainHistogramSet {
        if self.histograms.num_pairs() == 0 {
            self.histograms = GainHistogramSet::with_layout(layout.clone());
        }
        &mut self.histograms
    }
}

/// A worker's scratch: the gain kernel's, created at the worker's first gain superstep, and
/// the buffer its query vertices count their neighbor data in.
#[derive(Debug, Default)]
struct ShpScratch {
    gains: Option<GainScratch>,
    counts: Vec<(BucketId, u32)>,
}

/// Global value broadcast by the master.
#[derive(Debug, Clone, Default)]
struct ShpGlobal {
    iteration: usize,
    /// Under `All`, the current iteration's least-loaded bucket: lowest weight, then lowest id.
    least_loaded: BucketId,
    /// The current iteration's move probabilities; empty outside the move superstep.
    probabilities: MoveProbabilities,
    pending_fanout: f64,
    history: Vec<DistributedIterationStats>,
}

/// The SHP vertex program over `graph`, which it reads only for the data vertices' weights.
struct ShpProgram<'g> {
    graph: &'g BipartiteGraph,
    objective: Objective,
    constraint: TargetConstraint,
    /// The pairs `constraint` admits: the layout of every worker's histogram set.
    pair_layout: PairLayout,
    swap_strategy: SwapStrategy,
    max_iterations: usize,
    convergence_threshold: f64,
    seed: u64,
}

impl ShpProgram<'_> {
    /// The bucket count under `All`, where the master tracks bucket weights for the
    /// least-loaded bucket; `None` under `Siblings`, which never reads it.
    fn all_buckets(&self) -> Option<u32> {
        match self.constraint {
            TargetConstraint::All { k } => Some(k),
            TargetConstraint::Siblings { .. } => None,
        }
    }
}

impl VertexProgram for ShpProgram<'_> {
    type Value = ShpValue;
    type Message = ShpMessage;
    type Aggregate = ShpAggregate;
    type Global = ShpGlobal;
    type Scratch = ShpScratch;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        vertex: u32,
        value: &mut ShpValue,
        messages: Messages<'_, ShpMessage>,
    ) {
        let phase = ctx.superstep() % 4;
        match value {
            ShpValue::Data { bucket, proposal } => match phase {
                0 => {
                    // Superstep 1: send the current bucket to all adjacent queries, and under
                    // `All` the vertex weight to the master.
                    ctx.send_to_neighbors(ShpMessage::Bucket(*bucket));
                    if let Some(k) = self.all_buckets() {
                        let weights = &mut ctx.accumulator().bucket_weights;
                        weights.resize(k as usize, 0);
                        weights[*bucket as usize] += u64::from(self.graph.data_weight(vertex));
                    }
                }
                2 => {
                    // Superstep 3: the in-process gain kernel over the received neighbor data,
                    // one payload per adjacent query in ascending query order, and the
                    // proposal into the worker's histogram set.
                    let least_loaded = ctx.global().least_loaded;
                    let k = self.all_buckets().unwrap_or(0);
                    let scratch = ctx
                        .scratch()
                        .gains
                        .get_or_insert_with(|| GainScratch::new(k));
                    *proposal = standing_with(
                        &self.objective,
                        &self.constraint,
                        *bucket,
                        messages.iter().filter_map(|m| match m {
                            ShpMessage::NeighborData(counts) => Some(counts.as_slice()),
                            ShpMessage::Bucket(_) => None,
                        }),
                        least_loaded,
                        scratch,
                    )
                    .resolve(&self.constraint, *bucket, least_loaded);
                    if let Some((to, gain)) = *proposal {
                        let candidate = MoveProposal {
                            vertex,
                            from: *bucket,
                            to,
                            gain,
                        };
                        ctx.accumulator()
                            .histograms(&self.pair_layout)
                            .record(&candidate);
                    }
                }
                3 => {
                    // Superstep 4: apply the move with the master-provided probability.
                    if let Some((to, gain)) = proposal.take() {
                        let candidate = MoveProposal {
                            vertex,
                            from: *bucket,
                            to,
                            gain,
                        };
                        let prob = ctx.global().probabilities.probability(&candidate);
                        let iteration = ctx.global().iteration as u64;
                        if prob > 0.0 && unit_hash(self.seed, iteration, vertex as u64) < prob {
                            *bucket = to;
                            ctx.accumulator().moved += 1;
                        }
                    }
                }
                _ => {}
            },
            ShpValue::Query => {
                if phase == 1 {
                    // Superstep 2: count the received buckets into neighbor data in the
                    // worker's buffer, report the fanout, and send the non-zero entries back to
                    // the adjacent data vertices.
                    let counts = &mut ctx.scratch().counts;
                    let buckets = messages.iter().filter_map(|m| match m {
                        ShpMessage::Bucket(b) => Some(*b),
                        ShpMessage::NeighborData(_) => None,
                    });
                    count_buckets(buckets, counts);
                    if !counts.is_empty() {
                        let (fanout, payload) = (counts.len(), NeighborCounts::new(counts));
                        ctx.accumulator().fanout_sum += fanout as u64;
                        ctx.send_to_neighbors(ShpMessage::NeighborData(payload));
                    }
                }
            }
        }
    }

    fn merge_aggregates(&self, into: &mut ShpAggregate, other: ShpAggregate) {
        // An empty set may be a default without a layout; every non-empty set is laid out by
        // `pair_layout`, so two non-empty sets merge in place.
        if into.histograms.num_pairs() == 0 {
            into.histograms = other.histograms;
        } else {
            into.histograms.merge(&other.histograms);
        }
        if into.bucket_weights.len() < other.bucket_weights.len() {
            into.bucket_weights.resize(other.bucket_weights.len(), 0);
        }
        for (sum, w) in into.bucket_weights.iter_mut().zip(&other.bucket_weights) {
            *sum += w;
        }
        into.moved += other.moved;
        into.fanout_sum += other.fanout_sum;
    }

    fn master_compute(
        &self,
        superstep: usize,
        aggregate: ShpAggregate,
        previous: &ShpGlobal,
    ) -> MasterOutcome<ShpGlobal> {
        let mut global = previous.clone();
        match superstep % 4 {
            1 => {
                // End of the neighbor-data superstep: remember the fanout observed this
                // iteration.
                let num_queries = self.graph.num_queries();
                global.pending_fanout = if num_queries == 0 {
                    0.0
                } else {
                    aggregate.fanout_sum as f64 / num_queries as f64
                };
                MasterOutcome::Continue(global)
            }
            2 => {
                // End of the gain superstep: turn the aggregated histograms into move
                // probabilities.
                global.probabilities = match self.swap_strategy {
                    SwapStrategy::Histogram => {
                        MoveProbabilities::from_histograms(&aggregate.histograms)
                    }
                    SwapStrategy::Matrix => {
                        SwapMatrix::from_histograms(&aggregate.histograms).move_probabilities()
                    }
                };
                MasterOutcome::Continue(global)
            }
            3 => {
                // End of the move superstep: record history and decide whether to continue.
                let moved = aggregate.moved;
                global.history.push(DistributedIterationStats {
                    iteration: global.iteration,
                    moved,
                    fanout: global.pending_fanout,
                });
                global.iteration += 1;
                global.probabilities = MoveProbabilities::default();
                let moved_fraction = moved as f64 / self.graph.num_data().max(1) as f64;
                if global.iteration >= self.max_iterations
                    || moved_fraction < self.convergence_threshold
                {
                    // Halting here would discard the global carrying the final history entry
                    // (MasterOutcome::Halt keeps the *previous* global), so broadcast it with
                    // the iteration counter saturated and halt at the start of the next
                    // superstep instead.
                    global.iteration = self.max_iterations;
                }
                MasterOutcome::Continue(global)
            }
            _ => {
                // End of the bucket-collection superstep: halt cleanly if the previous
                // iteration decided to stop, otherwise broadcast the least-loaded bucket.
                if global.iteration >= self.max_iterations {
                    return MasterOutcome::Halt;
                }
                let weights = &aggregate.bucket_weights;
                global.least_loaded = (0..weights.len())
                    .min_by_key(|&b| (weights[b], b))
                    .map_or(0, |b| b as BucketId);
                MasterOutcome::Continue(global)
            }
        }
    }

    fn message_size(&self, message: &ShpMessage) -> usize {
        match message {
            ShpMessage::Bucket(_) => 4,
            ShpMessage::NeighborData(counts) => 8 * counts.as_slice().len(),
        }
    }
}

/// Runs the distributed SHP on `num_workers` simulated workers.
///
/// Direct mode runs one engine job; recursive mode runs one engine job per recursion level with
/// the appropriate sibling constraints, exactly as the Giraph implementation schedules one job
/// per split level.
///
/// # Errors
/// Returns [`ShpError::InvalidConfig`] when the configuration is invalid or `num_workers` is
/// zero.
pub fn partition_distributed(
    graph: &BipartiteGraph,
    config: &ShpConfig,
    num_workers: usize,
) -> ShpResult<DistributedRunResult> {
    config.validate()?;
    if num_workers == 0 {
        return Err(ShpError::InvalidConfig(
            "the BSP engine needs at least one worker".into(),
        ));
    }
    let start = Instant::now();
    let mut metrics = ExecutionMetrics::new(num_workers);
    let mut history = Vec::new();
    let topology = bipartite_topology(graph);

    let assignment = match config.mode {
        PartitionMode::Direct => {
            let mut rng = Pcg64::seed_from_u64(config.seed);
            let initial = Partition::new_random(graph, config.num_buckets, &mut rng)?;
            run_level(
                graph,
                &topology,
                config,
                initial.assignment(),
                Objective::from_kind(config.objective),
                TargetConstraint::all(config.num_buckets),
                num_workers,
                config.seed,
                &mut metrics,
                &mut history,
            )
        }
        PartitionMode::Recursive { arity } => {
            let mut assignment: Vec<BucketId> = vec![0; graph.num_data()];
            for level in split_schedule(config, arity) {
                assignment = run_level(
                    graph,
                    &topology,
                    config,
                    &level.split(&assignment),
                    level.objective,
                    level.constraint,
                    num_workers,
                    level.seed,
                    &mut metrics,
                    &mut history,
                );
            }
            assignment
        }
    };
    let partition = Partition::from_assignment(graph, config.num_buckets, assignment)?;

    Ok(DistributedRunResult {
        final_fanout: average_fanout(graph, &partition),
        final_p_fanout: average_p_fanout(graph, &partition, 0.5),
        partition,
        history,
        metrics,
        elapsed: start.elapsed(),
    })
}

/// The engine's view of `graph`: data vertices first, then query vertices, with both directions
/// of every pin.
fn bipartite_topology(graph: &BipartiteGraph) -> Topology {
    let num_data = graph.num_data() as u32;
    let edges = (0..graph.num_queries() as u32).flat_map(move |q| {
        let query = num_data + q;
        graph
            .query_neighbors(q)
            .iter()
            .flat_map(move |&v| [(query, v), (v, query)])
    });
    Topology::from_edges(graph.num_data() + graph.num_queries(), edges)
}

/// Runs one engine job (one recursion level or the whole direct optimization) of at most
/// `config.max_iterations` iterations over `topology` ([`bipartite_topology`]), returning the
/// final bucket assignment.
#[allow(clippy::too_many_arguments)]
fn run_level(
    graph: &BipartiteGraph,
    topology: &Topology,
    config: &ShpConfig,
    initial_assignment: &[BucketId],
    objective: Objective,
    constraint: TargetConstraint,
    num_workers: usize,
    seed: u64,
    metrics: &mut ExecutionMetrics,
    history: &mut Vec<DistributedIterationStats>,
) -> Vec<BucketId> {
    let num_data = graph.num_data();
    let num_queries = graph.num_queries();
    let mut values: Vec<ShpValue> = Vec::with_capacity(num_data + num_queries);
    for &b in initial_assignment {
        values.push(ShpValue::Data {
            bucket: b,
            proposal: None,
        });
    }
    for _ in 0..num_queries {
        values.push(ShpValue::Query);
    }
    let program = ShpProgram {
        graph,
        objective,
        pair_layout: constraint.pair_layout(),
        constraint,
        swap_strategy: config.swap_strategy,
        max_iterations: config.max_iterations,
        convergence_threshold: config.convergence_threshold,
        seed,
    };
    let engine_config = EngineConfig::new(num_workers, config.max_iterations * 4 + 4);
    let mut engine = Engine::new(program, topology, values, engine_config);
    engine.run();

    let base = history.len();
    for stat in &engine.global().history {
        history.push(DistributedIterationStats {
            iteration: base + stat.iteration,
            moved: stat.moved,
            fanout: stat.fanout,
        });
    }
    metrics.absorb(engine.metrics());

    // Read the data vertices' buckets in place rather than cloning every vertex value.
    (0..num_data as u32)
        .map(|v| match engine.value(v) {
            ShpValue::Data { bucket, .. } => *bucket,
            ShpValue::Query => unreachable!("data vertices occupy the first num_data slots"),
        })
        .collect()
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
        for g in 0..groups.saturating_sub(1) {
            b.add_query([g * size, (g + 1) * size]);
        }
        b.build().unwrap()
    }

    #[test]
    fn distributed_direct_reduces_fanout() {
        let graph = community_graph(4, 8);
        let config = ShpConfig::direct(4).with_seed(3).with_max_iterations(20);
        let result = partition_distributed(&graph, &config, 4).unwrap();
        assert_eq!(result.partition.num_buckets(), 4);
        let first = result.history.first().unwrap().fanout;
        assert!(
            result.final_fanout < first,
            "fanout should improve: initial {first}, final {}",
            result.final_fanout
        );
        assert!(result.metrics.total_messages() > 0);
        assert!(!result.history.is_empty());
    }

    #[test]
    fn distributed_recursive_reaches_k_buckets() {
        let graph = community_graph(8, 6);
        let config = ShpConfig::recursive_bisection(8)
            .with_seed(5)
            .with_max_iterations(10);
        let result = partition_distributed(&graph, &config, 4).unwrap();
        assert_eq!(result.partition.num_buckets(), 8);
        assert!(result.partition.bucket_weights().iter().all(|&w| w > 0));
        assert!(result.final_fanout < 4.0);
    }

    /// The counters of a run that must not depend on the worker count: all but the remote
    /// counters, the busiest worker's load and the durations.
    fn worker_independent_counters(metrics: &ExecutionMetrics) -> (u64, u64, u64, Vec<usize>) {
        (
            metrics.total_messages(),
            metrics.total_bytes(),
            metrics.supersteps.iter().map(|s| s.combined_messages).sum(),
            metrics
                .supersteps
                .iter()
                .map(|s| s.active_vertices)
                .collect(),
        )
    }

    #[test]
    fn distributed_results_do_not_depend_on_worker_count() {
        let graph = community_graph(4, 6);
        let direct = ShpConfig::direct(4).with_seed(9).with_max_iterations(8);
        let recursive = ShpConfig::recursive_bisection(4)
            .with_seed(9)
            .with_max_iterations(8);
        for config in [direct, recursive] {
            let one = partition_distributed(&graph, &config, 1).unwrap();
            let four = partition_distributed(&graph, &config, 4).unwrap();
            let eight = partition_distributed(&graph, &config, 8).unwrap();
            assert_eq!(one.partition.assignment(), four.partition.assignment());
            assert_eq!(four.partition.assignment(), eight.partition.assignment());
            // Messages, bytes, combined messages, supersteps and active vertices per
            // superstep (the vector's length is the superstep count) are equal too.
            let counters = worker_independent_counters(&one.metrics);
            assert!(counters.0 > 0 && counters.3.len() > 4);
            assert_eq!(counters, worker_independent_counters(&four.metrics));
            assert_eq!(counters, worker_independent_counters(&eight.metrics));
            assert_eq!(one.metrics.total_remote_messages(), 0);
            assert!(four.metrics.total_remote_messages() > 0);
        }
    }

    #[test]
    fn communication_volume_is_bounded_by_fanout_times_edges() {
        // Section 3.3: the heavy superstep sends at most fanout·|E| neighbor-data entries; in
        // bytes this is 8·fanout·|E| with our 8-byte entries, plus |E| bucket messages of
        // 4 bytes. Check the recorded totals stay within this bound per iteration.
        let graph = community_graph(4, 8);
        let config = ShpConfig::direct(4).with_seed(1).with_max_iterations(5);
        let result = partition_distributed(&graph, &config, 4).unwrap();
        let iterations = result.history.len() as u64;
        let k = 4u64;
        let bound_per_iter = 4 * graph.num_edges() as u64 + 8 * k * graph.num_edges() as u64;
        assert!(
            result.metrics.total_bytes() <= bound_per_iter * iterations,
            "bytes {} exceed bound {}",
            result.metrics.total_bytes(),
            bound_per_iter * iterations
        );
    }

    #[test]
    fn matrix_swap_strategy_also_works_distributed() {
        let graph = community_graph(4, 6);
        let config = ShpConfig::direct(4)
            .with_seed(2)
            .with_max_iterations(15)
            .with_swap_strategy(SwapStrategy::Matrix);
        let result = partition_distributed(&graph, &config, 2).unwrap();
        let first = result.history.first().unwrap().fanout;
        assert!(result.final_fanout <= first);
    }

    #[test]
    fn buckets_outside_every_sibling_group_never_move() {
        // Only buckets 0 and 1 split; 2, 3 and 4 pass through, numbered past the last group,
        // and their vertices share queries, so an unconstrained kernel would swap them.
        let mut b = GraphBuilder::new();
        for g in 0..10u32 {
            for _ in 0..4 {
                b.add_query([g * 4, g * 4 + 1, g * 4 + 2, g * 4 + 3, (g * 4 + 7) % 40]);
            }
        }
        let graph = b.build().unwrap();
        let initial: Vec<BucketId> = (0..40u32).map(|v| v % 5).collect();
        let config = ShpConfig::recursive_bisection(5).with_max_iterations(10);
        let constraint = TargetConstraint::sibling_groups(&[vec![0, 1]]);
        let mut metrics = ExecutionMetrics::new(2);
        let mut history = Vec::new();
        let out = run_level(
            &graph,
            &bipartite_topology(&graph),
            &config,
            &initial,
            Objective::from_kind(config.objective),
            constraint,
            2,
            1,
            &mut metrics,
            &mut history,
        );
        for (v, (&before, &after)) in initial.iter().zip(&out).enumerate() {
            assert!(
                before == after || (before < 2 && after < 2),
                "vertex {v} moved from {before} to {after}"
            );
        }
    }

    #[test]
    fn an_envelope_is_twelve_bytes_whatever_the_message() {
        // A queued message is `(destination, sender, payload index)`; the payload itself is
        // stored once per send in the sender's outbox, so a message type larger than the
        // envelope, as `ShpMessage` is, does not grow it.
        assert_eq!(
            std::mem::size_of::<shp_vertex_centric::routing::Envelope>(),
            12
        );
        assert!(std::mem::size_of::<ShpMessage>() > 12);
    }

    #[test]
    fn neighbor_counts_round_trip_inline_and_boxed() {
        for entries in [
            &[][..],
            &[(3, 1)],
            &[(0, 2), (5, 1)],
            &[(0, 1), (1, 1), (7, 4)],
        ] {
            assert_eq!(NeighborCounts::new(entries).as_slice(), entries);
        }
        assert!(matches!(
            NeighborCounts::new(&[(0, 2), (5, 1)]),
            NeighborCounts::Inline(2, _)
        ));
    }

    #[test]
    fn the_topology_lists_both_directions_of_every_pin_in_edge_order() {
        let graph = community_graph(2, 3);
        let topology = bipartite_topology(&graph);
        let num_data = graph.num_data() as u32;
        let mut builder = shp_vertex_centric::TopologyBuilder::new(topology.num_vertices());
        for (q, v) in graph.edges() {
            builder.add_undirected_edge(num_data + q, v);
        }
        assert_eq!(topology, builder.build());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let graph = community_graph(2, 4);
        assert!(partition_distributed(&graph, &ShpConfig::direct(0), 2).is_err());
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let graph = community_graph(2, 4);
        for config in [ShpConfig::direct(2), ShpConfig::recursive_bisection(2)] {
            match partition_distributed(&graph, &config, 0) {
                Err(ShpError::InvalidConfig(message)) => assert!(message.contains("worker")),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }
}
