//! The distributed execution path: SHP as a vertex-centric program (Figure 3 of the paper).
//!
//! Every iteration of Algorithm 1 is expressed as four supersteps on the BSP engine of
//! `shp-vertex-centric`:
//!
//! 1. **Collect buckets** — every data vertex sends its current bucket to its adjacent query
//!    vertices.
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
//! scale the number of simulated workers (Figures 5a/5b, Table 3). It shares with the
//! in-process paths ([`crate::partition_recursive`], [`crate::partition_direct`]) the SHP-r
//! split schedule, the per-level seeds, the random start of direct mode, the move
//! probabilities ([`MoveProbabilities`], built from the merged gain histograms) and the
//! per-(seed, iteration, vertex) move coins. It is **not** numerically equivalent to them:
//!
//! * it reads no `ε`, `balance_mode` or `allow_imbalanced_moves`, so no capacity trim follows
//!   the coins;
//! * under the `All` constraint it never proposes the least-loaded untouched bucket;
//! * it sums a vertex's gain as a base gain plus per-bucket deltas, which rounds differently.
//!
//! On email-Enron 0.05, soc-Epinions 0.02 and web-Stanford 0.01 at k ∈ {2, 5, 8, 13, 32, 64},
//! with both swap strategies and seed 7, the two give the same partition in 0 of 36 bisection
//! runs and 2 of 36 direct runs; `tests/end_to_end.rs` checks that their fanouts stay in one
//! quality band.

use crate::config::{PartitionMode, ShpConfig, SwapStrategy};
use crate::error::{ShpError, ShpResult};
use crate::gains::{MoveProposal, TargetConstraint};
use crate::histogram::GainHistogramSet;
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
    Context, Engine, EngineConfig, ExecutionMetrics, MasterOutcome, TopologyBuilder, VertexProgram,
};
use std::sync::Arc;
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
#[derive(Debug, Clone)]
enum ShpMessage {
    /// Data → query: the sender's current bucket.
    Bucket(BucketId),
    /// Query → data: the query's non-zero neighbor data `n_i(q)`, as (bucket, count) pairs in
    /// ascending bucket order. A query builds it once per iteration and every adjacent data
    /// vertex receives a reference to that one immutable payload, so sending it costs no copy
    /// per pin; [`VertexProgram::message_size`] still charges 8 bytes per entry per copy, the
    /// wire size of Section 3.3's accounting.
    NeighborData(Arc<[(BucketId, u32)]>),
}

/// Per-superstep aggregate collected by the master.
///
/// A vertex contributes at most one `proposal`. [`VertexProgram::merge_aggregates`] folds it,
/// in place, into the `histograms` of its worker's accumulator, so a contribution allocates no
/// table and each worker builds exactly one histogram set per superstep. That set is laid out
/// by the program's constraint ([`TargetConstraint::pair_layout`]): under SHP-2's sibling
/// constraint it holds one slot per sibling pair, under `All` the k² pair index. The master
/// merges the workers' sets, which share that layout, in worker-index order.
#[derive(Debug, Clone, Default)]
struct ShpAggregate {
    histograms: GainHistogramSet,
    proposal: Option<MoveProposal>,
    moved: u64,
    fanout_sum: u64,
}

/// Global value broadcast by the master.
#[derive(Debug, Clone, Default)]
struct ShpGlobal {
    iteration: usize,
    /// The current iteration's move probabilities; empty outside the move superstep.
    probabilities: MoveProbabilities,
    pending_fanout: f64,
    history: Vec<DistributedIterationStats>,
}

/// The SHP vertex program.
struct ShpProgram {
    num_data: usize,
    num_queries: usize,
    objective: Objective,
    constraint: TargetConstraint,
    /// The pairs `constraint` admits: the layout of every worker's histogram set.
    pair_layout: PairLayout,
    swap_strategy: SwapStrategy,
    max_iterations: usize,
    convergence_threshold: f64,
    seed: u64,
}

impl ShpProgram {
    /// The buckets `from` may move to, or `None` when any bucket is admissible. A bucket in no
    /// sibling group has no targets, exactly as in the in-process gain kernel.
    fn allowed_targets(&self, from: BucketId) -> Option<&[BucketId]> {
        match &self.constraint {
            TargetConstraint::All { .. } => None,
            TargetConstraint::Siblings { allowed } => {
                Some(allowed.get(from as usize).map_or(&[], |v| v.as_slice()))
            }
        }
    }
}

impl VertexProgram for ShpProgram {
    type Value = ShpValue;
    type Message = ShpMessage;
    type Aggregate = ShpAggregate;
    type Global = ShpGlobal;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        vertex: u32,
        value: &mut ShpValue,
        messages: &[ShpMessage],
    ) {
        let phase = ctx.superstep() % 4;
        match value {
            ShpValue::Data { bucket, proposal } => match phase {
                0 => {
                    // Superstep 1: send the current bucket to all adjacent queries.
                    ctx.send_to_neighbors(ShpMessage::Bucket(*bucket));
                }
                2 => {
                    // Superstep 3: compute move gains from the received neighbor data. The
                    // contribution carries the bare proposal; the per-worker accumulator folds
                    // it into its histogram set (see `merge_aggregates`).
                    *proposal = compute_distributed_proposal(self, *bucket, messages);
                    if let Some((to, gain)) = *proposal {
                        ctx.aggregate(ShpAggregate {
                            proposal: Some(MoveProposal {
                                vertex,
                                from: *bucket,
                                to,
                                gain,
                            }),
                            ..Default::default()
                        });
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
                            ctx.aggregate(ShpAggregate {
                                moved: 1,
                                ..Default::default()
                            });
                        }
                    }
                }
                _ => {}
            },
            ShpValue::Query => {
                if phase == 1 {
                    // Superstep 2: aggregate buckets into neighbor data, report fanout, and send
                    // the non-zero entries back to the adjacent data vertices.
                    let mut counts: Vec<(BucketId, u32)> = Vec::new();
                    for m in messages {
                        if let ShpMessage::Bucket(b) = m {
                            match counts.binary_search_by_key(b, |&(bb, _)| bb) {
                                Ok(idx) => counts[idx].1 += 1,
                                Err(idx) => counts.insert(idx, (*b, 1)),
                            }
                        }
                    }
                    if !counts.is_empty() {
                        ctx.aggregate(ShpAggregate {
                            fanout_sum: counts.len() as u64,
                            ..Default::default()
                        });
                        ctx.send_to_neighbors(ShpMessage::NeighborData(counts.into()));
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
        // Fold pending single-proposal contributions into the accumulator's table; histogram
        // bins are commutative counters, so any merge association yields the same set.
        for p in [other.proposal, into.proposal.take()].into_iter().flatten() {
            if into.histograms.num_pairs() == 0 {
                into.histograms = GainHistogramSet::with_layout(self.pair_layout.clone());
            }
            into.histograms.record(&p);
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
                global.pending_fanout = if self.num_queries == 0 {
                    0.0
                } else {
                    aggregate.fanout_sum as f64 / self.num_queries as f64
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
                let moved_fraction = moved as f64 / self.num_data.max(1) as f64;
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
                // iteration decided to stop.
                if global.iteration >= self.max_iterations {
                    MasterOutcome::Halt
                } else {
                    MasterOutcome::Continue(global)
                }
            }
        }
    }

    fn message_size(&self, message: &ShpMessage) -> usize {
        match message {
            ShpMessage::Bucket(_) => 4,
            ShpMessage::NeighborData(counts) => 8 * counts.len(),
        }
    }
}

/// Computes the best proposal of a data vertex from the neighbor data it received.
///
/// Candidate deltas live in a bucket-sorted `Vec` (binary-search insertion) instead of a hash
/// map: the candidate set is bounded by the received fanout, accumulation per bucket happens in
/// the same message-visit order, and the final scan needs no sort — the result is bit-identical
/// to the previous hash-map implementation without any hashing.
fn compute_distributed_proposal(
    program: &ShpProgram,
    from: BucketId,
    messages: &[ShpMessage],
) -> Option<(BucketId, f64)> {
    // Gain of moving to a bucket none of the adjacent queries touch, plus per-candidate deltas.
    let mut base_gain = 0.0;
    let mut deltas: Vec<(BucketId, f64)> = Vec::new();
    let add_delta = |deltas: &mut Vec<(BucketId, f64)>, b: BucketId, adjustment: f64| match deltas
        .binary_search_by_key(&b, |&(bb, _)| bb)
    {
        Ok(idx) => deltas[idx].1 += adjustment,
        Err(idx) => deltas.insert(idx, (b, adjustment)),
    };
    let allowed = program.allowed_targets(from);
    for message in messages {
        let counts: &[(BucketId, u32)] = match message {
            ShpMessage::NeighborData(counts) => counts,
            ShpMessage::Bucket(_) => continue,
        };
        let n_src = counts
            .iter()
            .find(|&&(b, _)| b == from)
            .map(|&(_, c)| c)
            .unwrap_or(1);
        base_gain += program.objective.per_query_gain(n_src, 0);
        match allowed {
            None => {
                for &(b, c) in counts {
                    if b == from {
                        continue;
                    }
                    let adjustment = program.objective.per_query_gain(n_src, c)
                        - program.objective.per_query_gain(n_src, 0);
                    add_delta(&mut deltas, b, adjustment);
                }
            }
            Some(targets) => {
                for &b in targets {
                    if b == from {
                        continue;
                    }
                    let n_dst = counts
                        .iter()
                        .find(|&&(bb, _)| bb == b)
                        .map(|&(_, c)| c)
                        .unwrap_or(0);
                    let adjustment = program.objective.per_query_gain(n_src, n_dst)
                        - program.objective.per_query_gain(n_src, 0);
                    add_delta(&mut deltas, b, adjustment);
                }
            }
        }
    }
    if let Some(targets) = allowed {
        // Ensure every allowed sibling is a candidate even when untouched by any query.
        for &b in targets {
            if b != from {
                if let Err(idx) = deltas.binary_search_by_key(&b, |&(bb, _)| bb) {
                    deltas.insert(idx, (b, 0.0));
                }
            }
        }
    }
    let mut best: Option<(BucketId, f64)> = None;
    for (b, delta) in deltas {
        let gain = base_gain + delta;
        best = match best {
            Some((bb, bg)) if bg > gain || (bg == gain && bb <= b) => Some((bb, bg)),
            _ => Some((b, gain)),
        };
    }
    best
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

    let assignment = match config.mode {
        PartitionMode::Direct => {
            let mut rng = Pcg64::seed_from_u64(config.seed);
            let initial = Partition::new_random(graph, config.num_buckets, &mut rng)?;
            run_level(
                graph,
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

/// Runs one engine job (one recursion level or the whole direct optimization) of at most
/// `config.max_iterations` iterations, returning the final bucket assignment.
#[allow(clippy::too_many_arguments)]
fn run_level(
    graph: &BipartiteGraph,
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
    // Vertex universe: data vertices first, then query vertices.
    let mut topo = TopologyBuilder::new(num_data + num_queries);
    for (q, v) in graph.edges() {
        topo.add_undirected_edge(num_data as u32 + q, v);
    }
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
        num_data,
        num_queries,
        objective,
        pair_layout: constraint.pair_layout(),
        constraint,
        swap_strategy: config.swap_strategy,
        max_iterations: config.max_iterations,
        convergence_threshold: config.convergence_threshold,
        seed,
    };
    let engine_config = EngineConfig::new(num_workers, config.max_iterations * 4 + 4);
    let mut engine = Engine::new(program, topo.build(), values, engine_config);
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
