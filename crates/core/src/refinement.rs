//! The local-refinement iteration of Algorithm 1: propose, coordinate, and apply vertex moves.
//!
//! # The dirty-vertex active set and its exactness argument
//!
//! A vertex's best-move proposal is a pure function of three inputs: (1) its own bucket, (2)
//! the neighbor data of its adjacent queries, and (3) — under the `All` constraint — the
//! globally least-loaded bucket. [`ActiveSet`] caches every vertex's standing proposal and
//! tracks which of those inputs changed when moves were applied:
//!
//! * a moved vertex dirties **itself** (input 1) and every query it belongs to; every vertex
//!   adjacent to a dirtied query is dirtied (input 2) — this is the `O(moved · deg²)`
//!   frontier;
//! * input 3 is global, so it gets a conservative **escape hatch**: whenever the least-loaded
//!   bucket differs from the one the cache was computed against, *every* vertex is dirtied and
//!   the next sweep is a full rescan. This is the only global input to the gain kernel; any
//!   future global input must adopt the same conservative invalidation to keep the argument
//!   valid. (Under the `Siblings` constraint the kernel never reads the least-loaded bucket,
//!   so the hatch is skipped.)
//!
//! Clean vertices therefore have bit-identical inputs to the previous sweep, and the kernel is
//! deterministic, so serving their cached proposal is **exactly** what recomputing them would
//! produce: the assembled proposal list (ascending vertex order, same gain filter) equals a
//! full rescan bit-for-bit, for every worker count. A full rescan is
//! [`Refiner::run_iteration`], which starts from a fresh [`ActiveSet`]. The conformance suite
//! (`tests/parallel_conformance.rs`) locks this in: a dirty-set run equals a loop of full
//! rescans, whose proposals before every iteration equal the reference hash-map kernel's.
//!
//! Late iterations in the Figure 7 convergence regime move a vanishing fraction of vertices,
//! so the per-iteration cost drops from `O(|V| · deg · fanout)` to the dirty frontier's
//! `O(moved · deg²)` plus an `O(|V|)` bitmap-and-assemble scan.

use crate::config::{BalanceMode, SwapStrategy};
use crate::gains::{compute_proposals_for, GainKernel, MoveProposal, TargetConstraint};
use crate::histogram::GainHistogramSet;
use crate::neighbor_data::NeighborData;
use crate::objective::Objective;
use crate::swap::{MoveProbabilities, SwapMatrix};
use serde::{Deserialize, Serialize};
use shp_hypergraph::{BipartiteGraph, BucketId, DataId, Partition, QueryId};
use std::collections::HashMap;

/// Statistics of one refinement iteration, used for convergence decisions and for reproducing
/// Figure 7 of the paper (objective progress and fraction of moved vertices per iteration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration index (0-based) within the current refinement run.
    pub iteration: usize,
    /// Number of vertices that proposed a move.
    pub candidates: usize,
    /// Number of vertices actually moved.
    pub moved: usize,
    /// Fraction of all data vertices moved.
    pub moved_fraction: f64,
    /// Sum of the gains of the applied moves (an upper estimate of the objective improvement;
    /// exact when moves do not interact).
    pub applied_gain: f64,
    /// Average fanout after the iteration (from the neighbor data, so it is cheap).
    pub fanout_after: f64,
}

/// A hook that rewrites the gain of a proposal before swap coordination; used e.g. by the
/// incremental-update path to penalize moves away from a previous partition (Section 5).
pub type GainAdjuster = Box<dyn Fn(&MoveProposal) -> f64 + Send + Sync>;

/// Cross-iteration refinement state: each vertex's standing (unadjusted, unfiltered) proposal
/// plus the dirty bookkeeping that decides which proposals must be recomputed. See the module
/// docs for the exactness argument.
///
/// An `ActiveSet` is valid for **exactly one** (refiner, partition, neighbor-data) evolution:
/// the cached proposals embody the refiner's objective and constraint, and the dirty
/// flags assume every partition/neighbor-data mutation since the last call went through
/// [`Refiner::run_iteration_with`] with this same state. Reusing it with a differently
/// configured refiner, or after mutating the partition behind its back, silently serves stale
/// proposals — create a fresh state via [`Refiner::new_active_set`] instead (a graph-size
/// mismatch is caught by a debug assertion).
#[derive(Debug)]
pub struct ActiveSet {
    /// The standing best proposal of every vertex (`None` when the vertex has no admissible
    /// target), exactly as a gain sweep with non-positive proposals included would produce it.
    cached: Vec<Option<MoveProposal>>,
    /// Vertices whose cached proposal is stale.
    vertex_dirty: Vec<bool>,
    /// Scratch flags for the query frontier of one apply phase (always reset after use).
    query_dirty: Vec<bool>,
    /// Scratch list of the queries flagged in `query_dirty`.
    dirty_queries: Vec<QueryId>,
    /// The least-loaded bucket the cache was computed against (`None` until the first sweep).
    cached_least_loaded: Option<BucketId>,
}

impl ActiveSet {
    /// Creates the state for `graph` with every vertex dirty (the first iteration is a full
    /// rescan).
    pub fn new(graph: &BipartiteGraph) -> Self {
        ActiveSet {
            cached: vec![None; graph.num_data()],
            vertex_dirty: vec![true; graph.num_data()],
            query_dirty: vec![false; graph.num_queries()],
            dirty_queries: Vec::new(),
            cached_least_loaded: None,
        }
    }

    /// Number of currently dirty vertices (diagnostics / tests).
    pub fn num_dirty(&self) -> usize {
        self.vertex_dirty.iter().filter(|&&d| d).count()
    }

    /// Marks every vertex dirty (the conservative escape hatch).
    fn mark_all_dirty(&mut self) {
        self.vertex_dirty.iter_mut().for_each(|d| *d = true);
    }

    /// Marks the refinement frontier of the applied moves dirty: each moved vertex itself
    /// (its `from` bucket changed) and every vertex sharing a query with it (their neighbor
    /// data changed).
    fn mark_moves_dirty(&mut self, graph: &BipartiteGraph, moves: &[MoveProposal]) {
        for p in moves {
            self.vertex_dirty[p.vertex as usize] = true;
            for &q in graph.data_neighbors(p.vertex) {
                if !self.query_dirty[q as usize] {
                    self.query_dirty[q as usize] = true;
                    self.dirty_queries.push(q);
                }
            }
        }
        for i in 0..self.dirty_queries.len() {
            let q = self.dirty_queries[i];
            for &v in graph.query_neighbors(q) {
                self.vertex_dirty[v as usize] = true;
            }
            self.query_dirty[q as usize] = false;
        }
        self.dirty_queries.clear();
    }
}

/// Runs refinement iterations over one partition with a fixed constraint and objective.
pub struct Refiner<'a> {
    graph: &'a BipartiteGraph,
    objective: Objective,
    constraint: TargetConstraint,
    swap_strategy: SwapStrategy,
    balance_mode: BalanceMode,
    allow_imbalanced_moves: bool,
    epsilon: f64,
    seed: u64,
    workers: usize,
    gain_adjuster: Option<GainAdjuster>,
}

impl<'a> Refiner<'a> {
    /// Creates a refiner.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: &'a BipartiteGraph,
        objective: Objective,
        constraint: TargetConstraint,
        swap_strategy: SwapStrategy,
        balance_mode: BalanceMode,
        allow_imbalanced_moves: bool,
        epsilon: f64,
        seed: u64,
    ) -> Self {
        Refiner {
            graph,
            objective,
            constraint,
            swap_strategy,
            balance_mode,
            allow_imbalanced_moves,
            epsilon,
            seed,
            workers: 1,
            gain_adjuster: None,
        }
    }

    /// The objective being optimized.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Installs a gain adjuster applied to every proposal before swap coordination.
    pub fn with_gain_adjuster(mut self, adjuster: GainAdjuster) -> Self {
        self.gain_adjuster = Some(adjuster);
        self
    }

    /// Sets the worker-thread count used by the parallel phases of each iteration (gain
    /// computation and histogram construction). The produced moves are bit-identical for every
    /// worker count; the default is 1 (fully sequential).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Creates the cross-iteration [`ActiveSet`] for this refiner's graph, with every vertex
    /// initially dirty.
    pub fn new_active_set(&self) -> ActiveSet {
        ActiveSet::new(self.graph)
    }

    /// Runs one iteration of Algorithm 1, mutating the partition and neighbor data in place.
    ///
    /// Stateless convenience wrapper: it builds a fresh [`ActiveSet`] (full rescan) each call.
    /// Loops should create the state once and call [`Refiner::run_iteration_with`] so late
    /// iterations only recompute the dirty frontier — [`Refiner::run`] does exactly that.
    pub fn run_iteration(
        &self,
        partition: &mut Partition,
        nd: &mut NeighborData,
        iteration: usize,
    ) -> IterationStats {
        let mut active = self.new_active_set();
        self.run_iteration_with(&mut active, partition, nd, iteration)
    }

    /// Runs one iteration of Algorithm 1 with cross-iteration dirty-vertex state: only
    /// vertices whose gain inputs changed since the previous call are recomputed (see the
    /// module docs), while the assembled proposal list stays bit-identical to a full rescan.
    pub fn run_iteration_with(
        &self,
        active: &mut ActiveSet,
        partition: &mut Partition,
        nd: &mut NeighborData,
        iteration: usize,
    ) -> IterationStats {
        debug_assert_eq!(
            active.cached.len(),
            self.graph.num_data(),
            "ActiveSet built for a different graph (see ActiveSet docs)"
        );
        debug_assert_eq!(active.query_dirty.len(), self.graph.num_queries());
        let include_nonpositive = self.swap_strategy == SwapStrategy::Histogram;

        // Refresh the cache. The least-loaded bucket is a global input of the `All` kernel:
        // if it moved since the cache was filled, conservatively dirty everything.
        let least_loaded = partition.least_loaded_bucket();
        let least_loaded_is_input = matches!(self.constraint, TargetConstraint::All { .. });
        if least_loaded_is_input && active.cached_least_loaded != Some(least_loaded) {
            active.mark_all_dirty();
        }
        let dirty: Vec<DataId> = active
            .vertex_dirty
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(v, _)| v as DataId)
            .collect();
        let recomputed = compute_proposals_for(
            &self.objective,
            self.graph,
            partition,
            nd,
            &self.constraint,
            least_loaded,
            &dirty,
            self.workers,
            GainKernel::Scratch,
        );
        for (&v, proposal) in dirty.iter().zip(recomputed) {
            active.cached[v as usize] = proposal;
            active.vertex_dirty[v as usize] = false;
        }
        active.cached_least_loaded = Some(least_loaded);

        // Assemble the iteration's proposal list from the (now fresh) standing proposals,
        // applying the same adjust-then-filter steps a full rescan would.
        let mut proposals: Vec<MoveProposal> = Vec::new();
        for cached in &active.cached {
            let Some(mut p) = *cached else { continue };
            if let Some(adjuster) = &self.gain_adjuster {
                p.gain = adjuster(&p);
            }
            if include_nonpositive || p.gain > 0.0 {
                proposals.push(p);
            }
        }

        let probabilities = match self.swap_strategy {
            SwapStrategy::Matrix => SwapMatrix::from_proposals(&proposals).move_probabilities(),
            SwapStrategy::Histogram => MoveProbabilities::from_histograms(
                &GainHistogramSet::from_proposals_with_workers(&proposals, self.workers),
            ),
        };

        // Probabilistic selection with a per-(seed, iteration, vertex) hash so the outcome does
        // not depend on thread scheduling.
        let mut selected: Vec<MoveProposal> = Vec::new();
        let mut unselected_positive: Vec<MoveProposal> = Vec::new();
        for p in &proposals {
            let prob = probabilities.probability(p);
            let taken =
                prob > 0.0 && unit_hash(self.seed, iteration as u64, p.vertex as u64) < prob;
            if taken {
                selected.push(*p);
            } else if p.gain > 0.0 {
                unselected_positive.push(*p);
            }
        }

        if self.balance_mode == BalanceMode::Strict {
            selected = enforce_strict_pairing(selected);
        } else {
            // The move probabilities equalize the two directions of every bucket pair only in
            // expectation; on small instances the variance accumulates into real imbalance over
            // many iterations. Guard the application step with the ε capacity so drift never
            // exceeds the allowed imbalance (large instances are virtually unaffected).
            selected = enforce_capacity(partition, selected, self.epsilon);
        }

        if self.allow_imbalanced_moves {
            let extra = select_imbalanced_extras(
                partition,
                &selected,
                &mut unselected_positive,
                self.epsilon,
            );
            selected.extend(extra);
        }

        // Apply the moves, then mark the affected gain inputs dirty for the next iteration.
        let mut applied_gain = 0.0;
        let mut moved = 0usize;
        for p in &selected {
            debug_assert_eq!(partition.bucket_of(p.vertex), p.from);
            partition.assign(p.vertex, p.to);
            nd.apply_move(self.graph, p.vertex, p.from, p.to);
            applied_gain += p.gain;
            moved += 1;
        }
        active.mark_moves_dirty(self.graph, &selected);

        let num_data = self.graph.num_data().max(1);
        IterationStats {
            iteration,
            candidates: proposals.len(),
            moved,
            moved_fraction: moved as f64 / num_data as f64,
            applied_gain,
            fanout_after: nd.average_fanout(),
        }
    }

    /// Runs up to `max_iterations` iterations, stopping early once the fraction of moved
    /// vertices drops below `convergence_threshold`. Returns the per-iteration statistics.
    pub fn run(
        &self,
        partition: &mut Partition,
        nd: &mut NeighborData,
        max_iterations: usize,
        convergence_threshold: f64,
    ) -> Vec<IterationStats> {
        let span = shp_telemetry::Span::enter("partition/refinement");
        let mut active = self.new_active_set();
        let mut history = Vec::with_capacity(max_iterations);
        for iteration in 0..max_iterations {
            let _iteration_span = span.child("iteration");
            let stats = self.run_iteration_with(&mut active, partition, nd, iteration);
            let converged = stats.moved_fraction < convergence_threshold;
            history.push(stats);
            if converged {
                break;
            }
        }
        history
    }
}

/// Keeps, for every unordered bucket pair, only as many moves in each direction as the opposite
/// direction selected (highest gains first), so bucket weights are exactly preserved.
fn enforce_strict_pairing(selected: Vec<MoveProposal>) -> Vec<MoveProposal> {
    let mut by_pair: HashMap<(BucketId, BucketId), (Vec<MoveProposal>, Vec<MoveProposal>)> =
        HashMap::new();
    for p in selected {
        let key = if p.from < p.to {
            (p.from, p.to)
        } else {
            (p.to, p.from)
        };
        let entry = by_pair.entry(key).or_default();
        if p.from == key.0 {
            entry.0.push(p);
        } else {
            entry.1.push(p);
        }
    }
    let mut result = Vec::new();
    let mut keys: Vec<_> = by_pair.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let (mut forward, mut backward) = by_pair.remove(&key).expect("key exists");
        forward.sort_by(|a, b| {
            b.gain
                .partial_cmp(&a.gain)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        backward.sort_by(|a, b| {
            b.gain
                .partial_cmp(&a.gain)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let m = forward.len().min(backward.len());
        result.extend(forward.into_iter().take(m));
        result.extend(backward.into_iter().take(m));
    }
    result
}

/// Drops selected moves (worst gains first) whose target bucket would exceed the `(1 + ε)`
/// capacity after accounting for the moves processed so far. Departures free capacity as they
/// are processed, so paired swaps generally survive; only drift-inducing surplus is trimmed.
fn enforce_capacity(
    partition: &Partition,
    mut selected: Vec<MoveProposal>,
    epsilon: f64,
) -> Vec<MoveProposal> {
    // A bucket must always be allowed to hold at least the ideal weight plus one vertex,
    // otherwise tight instances would freeze entirely.
    let cap = partition
        .max_allowed_weight(epsilon)
        .max((partition.total_weight() as f64 / partition.num_buckets() as f64).ceil() as u64 + 1);
    selected.sort_by(|a, b| {
        b.gain
            .partial_cmp(&a.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut weights: Vec<u64> = partition.bucket_weights().to_vec();
    let mut kept = Vec::with_capacity(selected.len());
    for p in selected {
        let w = partition.vertex_weight(p.vertex);
        if weights[p.to as usize] + w <= cap {
            weights[p.to as usize] += w;
            weights[p.from as usize] -= w;
            kept.push(p);
        }
    }
    kept
}

/// Selects additional unpaired positive-gain moves as long as the target bucket stays within
/// the `(1 + ε)` capacity, given the moves already selected (Section 3.4's use of the allowed
/// imbalance).
fn select_imbalanced_extras(
    partition: &Partition,
    already_selected: &[MoveProposal],
    candidates: &mut [MoveProposal],
    epsilon: f64,
) -> Vec<MoveProposal> {
    let cap = partition.max_allowed_weight(epsilon);
    // Projected weights after the already-selected moves.
    let mut weights: Vec<u64> = partition.bucket_weights().to_vec();
    for p in already_selected {
        let w = partition.vertex_weight(p.vertex);
        weights[p.from as usize] -= w;
        weights[p.to as usize] += w;
    }
    candidates.sort_by(|a, b| {
        b.gain
            .partial_cmp(&a.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut extras = Vec::new();
    for p in candidates.iter() {
        let w = partition.vertex_weight(p.vertex);
        if weights[p.to as usize] + w <= cap {
            weights[p.to as usize] += w;
            weights[p.from as usize] -= w;
            extras.push(*p);
        }
    }
    extras
}

/// Deterministic hash of `(seed, iteration, vertex)` to a uniform value in `[0, 1)`
/// (SplitMix64 finalizer), so probabilistic move decisions are reproducible and independent of
/// worker scheduling.
pub fn unit_hash(seed: u64, iteration: u64, vertex: u64) -> f64 {
    let mut x = seed ^ iteration.rotate_left(24) ^ vertex.rotate_left(48);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BalanceMode, SwapStrategy};
    use rand::SeedableRng;
    use rand_pcg::Pcg64;
    use shp_hypergraph::{average_fanout, GraphBuilder};

    /// A small community-structured graph: `groups` cliques of `size` members; every member
    /// issues a query over its whole clique, plus a few cross-clique queries for noise.
    fn community_graph(groups: u32, size: u32) -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for g in 0..groups {
            let members: Vec<u32> = (0..size).map(|i| g * size + i).collect();
            for _ in 0..size {
                b.add_query(members.clone());
            }
        }
        // A few cross-group queries.
        for g in 0..groups.saturating_sub(1) {
            b.add_query([g * size, (g + 1) * size]);
        }
        b.build().unwrap()
    }

    fn refine(
        graph: &BipartiteGraph,
        k: u32,
        strategy: SwapStrategy,
        balance: BalanceMode,
        iterations: usize,
        seed: u64,
    ) -> (Partition, Vec<IterationStats>) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut partition = Partition::new_random(graph, k, &mut rng).unwrap();
        let mut nd = NeighborData::build(graph, &partition);
        let refiner = Refiner::new(
            graph,
            Objective::PFanout { p: 0.5 },
            TargetConstraint::all(k),
            strategy,
            balance,
            false,
            0.05,
            seed,
        );
        let history = refiner.run(&mut partition, &mut nd, iterations, 0.0);
        (partition, history)
    }

    #[test]
    fn refinement_reduces_fanout_on_community_graph() {
        let graph = community_graph(4, 8);
        let mut rng = Pcg64::seed_from_u64(3);
        let initial = Partition::new_random(&graph, 4, &mut rng).unwrap();
        let initial_fanout = average_fanout(&graph, &initial);

        for strategy in [SwapStrategy::Matrix, SwapStrategy::Histogram] {
            let (partition, history) = refine(&graph, 4, strategy, BalanceMode::Expectation, 20, 3);
            let final_fanout = average_fanout(&graph, &partition);
            assert!(
                final_fanout < initial_fanout,
                "{strategy:?}: fanout should drop ({initial_fanout} -> {final_fanout})"
            );
            assert!(!history.is_empty());
            // The history's last fanout must agree with the metric recomputed from scratch.
            let last = history.last().unwrap();
            assert!((last.fanout_after - final_fanout).abs() < 1e-9);
        }
    }

    #[test]
    fn histogram_strategy_finds_near_optimal_community_split() {
        // With 4 communities and k=4 and enough iterations, the partitioner should isolate the
        // communities almost perfectly: average fanout close to 1 for intra-community queries.
        let graph = community_graph(4, 8);
        let (partition, _) = refine(
            &graph,
            4,
            SwapStrategy::Histogram,
            BalanceMode::Expectation,
            40,
            3,
        );
        let fanout = average_fanout(&graph, &partition);
        assert!(
            fanout < 1.5,
            "expected a near-perfect community split, got fanout {fanout}"
        );
    }

    #[test]
    fn strict_balance_mode_preserves_bucket_weights_exactly() {
        let graph = community_graph(4, 8);
        let mut rng = Pcg64::seed_from_u64(7);
        let mut partition = Partition::new_random(&graph, 4, &mut rng).unwrap();
        let before: Vec<u64> = partition.bucket_weights().to_vec();
        let mut nd = NeighborData::build(&graph, &partition);
        let refiner = Refiner::new(
            &graph,
            Objective::PFanout { p: 0.5 },
            TargetConstraint::all(4),
            SwapStrategy::Histogram,
            BalanceMode::Strict,
            false,
            0.05,
            7,
        );
        refiner.run(&mut partition, &mut nd, 15, 0.0);
        assert_eq!(partition.bucket_weights(), &before[..]);
    }

    #[test]
    fn expectation_mode_stays_roughly_balanced() {
        let graph = community_graph(6, 16);
        let (partition, _) = refine(
            &graph,
            4,
            SwapStrategy::Histogram,
            BalanceMode::Expectation,
            30,
            11,
        );
        // Expectation-mode balance: allow a generous 25% deviation on this small instance.
        assert!(
            partition.imbalance() < 0.25,
            "imbalance {}",
            partition.imbalance()
        );
    }

    #[test]
    fn refinement_is_deterministic_for_a_fixed_seed() {
        let graph = community_graph(4, 8);
        let (p1, h1) = refine(
            &graph,
            4,
            SwapStrategy::Histogram,
            BalanceMode::Expectation,
            10,
            42,
        );
        let (p2, h2) = refine(
            &graph,
            4,
            SwapStrategy::Histogram,
            BalanceMode::Expectation,
            10,
            42,
        );
        assert_eq!(p1, p2);
        assert_eq!(h1, h2);
        let (p3, _) = refine(
            &graph,
            4,
            SwapStrategy::Histogram,
            BalanceMode::Expectation,
            10,
            44,
        );
        // A different seed almost surely yields a different partition on this instance.
        assert_ne!(p1, p3);
    }

    #[test]
    fn neighbor_data_stays_consistent_after_refinement() {
        let graph = community_graph(3, 6);
        let mut rng = Pcg64::seed_from_u64(5);
        let mut partition = Partition::new_random(&graph, 3, &mut rng).unwrap();
        let mut nd = NeighborData::build(&graph, &partition);
        let refiner = Refiner::new(
            &graph,
            Objective::PFanout { p: 0.5 },
            TargetConstraint::all(3),
            SwapStrategy::Matrix,
            BalanceMode::Expectation,
            false,
            0.05,
            5,
        );
        refiner.run(&mut partition, &mut nd, 8, 0.0);
        assert_eq!(nd, NeighborData::build(&graph, &partition));
    }

    #[test]
    fn convergence_threshold_stops_early() {
        let graph = community_graph(2, 4);
        let mut rng = Pcg64::seed_from_u64(2);
        let mut partition = Partition::new_random(&graph, 2, &mut rng).unwrap();
        let mut nd = NeighborData::build(&graph, &partition);
        let refiner = Refiner::new(
            &graph,
            Objective::PFanout { p: 0.5 },
            TargetConstraint::all(2),
            SwapStrategy::Histogram,
            BalanceMode::Expectation,
            false,
            0.05,
            2,
        );
        let history = refiner.run(&mut partition, &mut nd, 100, 1.1);
        // A threshold above 1.0 can never be exceeded, so the run stops after one iteration.
        assert_eq!(history.len(), 1);
    }

    #[test]
    fn imbalanced_moves_respect_capacity() {
        let graph = community_graph(4, 8);
        let mut rng = Pcg64::seed_from_u64(9);
        let mut partition = Partition::new_random(&graph, 4, &mut rng).unwrap();
        let mut nd = NeighborData::build(&graph, &partition);
        let epsilon = 0.10;
        let refiner = Refiner::new(
            &graph,
            Objective::PFanout { p: 0.5 },
            TargetConstraint::all(4),
            SwapStrategy::Histogram,
            BalanceMode::Expectation,
            true,
            epsilon,
            9,
        );
        for it in 0..10 {
            refiner.run_iteration(&mut partition, &mut nd, it);
            let cap = partition.max_allowed_weight(epsilon);
            // Projected capacity is computed before the iteration's own moves, so allow the
            // slack of one vertex weight.
            for b in 0..4 {
                assert!(
                    partition.bucket_weight(b) <= cap + 1,
                    "bucket {b} exceeded capacity: {} > {cap}",
                    partition.bucket_weight(b)
                );
            }
        }
    }

    #[test]
    fn dirty_set_shrinks_as_refinement_converges() {
        let graph = community_graph(4, 8);
        let mut rng = Pcg64::seed_from_u64(3);
        let mut partition = Partition::new_random(&graph, 4, &mut rng).unwrap();
        let mut nd = NeighborData::build(&graph, &partition);
        let refiner = Refiner::new(
            &graph,
            Objective::PFanout { p: 0.5 },
            TargetConstraint::all(4),
            SwapStrategy::Histogram,
            BalanceMode::Expectation,
            false,
            0.05,
            3,
        );
        let mut active = refiner.new_active_set();
        let n = graph.num_data();
        assert_eq!(active.num_dirty(), n, "everything starts dirty");
        let mut last_dirty = n;
        for it in 0..25 {
            let stats = refiner.run_iteration_with(&mut active, &mut partition, &mut nd, it);
            last_dirty = active.num_dirty();
            if stats.moved == 0 {
                break;
            }
        }
        // Once no moves are applied, nothing is dirty: the next sweep is (near) free.
        assert_eq!(
            last_dirty, 0,
            "a move-free iteration must leave the active set empty"
        );
        // And the cached proposals still match a full rescan exactly.
        let stateless = {
            let mut p2 = partition.clone();
            let mut nd2 = nd.clone();
            refiner.run_iteration(&mut p2, &mut nd2, 99)
        };
        let stateful = refiner.run_iteration_with(&mut active, &mut partition, &mut nd, 99);
        assert_eq!(stateless.candidates, stateful.candidates);
        assert_eq!(stateless.moved, stateful.moved);
    }

    #[test]
    fn gain_adjuster_composes_with_the_dirty_set() {
        // The adjuster is applied at list-assembly time, so cached proposals must still yield
        // the same adjusted/filtered list as a full rescan.
        let graph = community_graph(3, 6);
        let mut rng = Pcg64::seed_from_u64(8);
        let initial = Partition::new_random(&graph, 3, &mut rng).unwrap();
        let refiner = Refiner::new(
            &graph,
            Objective::PFanout { p: 0.5 },
            TargetConstraint::all(3),
            SwapStrategy::Matrix,
            BalanceMode::Expectation,
            false,
            0.05,
            8,
        )
        .with_gain_adjuster(Box::new(|p| p.gain - 0.125));
        let (mut p_dirty, mut p_full) = (initial.clone(), initial);
        let mut nd_dirty = NeighborData::build(&graph, &p_dirty);
        let mut nd_full = nd_dirty.clone();
        let h_dirty = refiner.run(&mut p_dirty, &mut nd_dirty, 10, 0.0);
        let h_full: Vec<IterationStats> = (0..10)
            .map(|it| refiner.run_iteration(&mut p_full, &mut nd_full, it))
            .collect();
        assert_eq!(p_dirty, p_full);
        assert_eq!(h_dirty, h_full);
    }

    #[test]
    fn unit_hash_is_uniform_and_deterministic() {
        let a = unit_hash(1, 2, 3);
        assert_eq!(a, unit_hash(1, 2, 3));
        assert_ne!(a, unit_hash(1, 2, 4));
        let n = 10_000;
        let mean: f64 = (0..n).map(|v| unit_hash(99, 0, v)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((0..n).all(|v| {
            let x = unit_hash(99, 0, v);
            (0.0..1.0).contains(&x)
        }));
    }

    #[test]
    fn strict_pairing_keeps_highest_gains() {
        let proposals = vec![
            MoveProposal {
                vertex: 0,
                from: 0,
                to: 1,
                gain: 5.0,
            },
            MoveProposal {
                vertex: 1,
                from: 0,
                to: 1,
                gain: 1.0,
            },
            MoveProposal {
                vertex: 2,
                from: 1,
                to: 0,
                gain: 3.0,
            },
        ];
        let kept = enforce_strict_pairing(proposals);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().any(|p| p.vertex == 0));
        assert!(kept.iter().any(|p| p.vertex == 2));
        assert!(!kept.iter().any(|p| p.vertex == 1));
    }
}
