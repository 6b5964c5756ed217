//! The local-refinement iteration of Algorithm 1: propose, coordinate, and apply vertex moves.
//!
//! # The dirty-vertex active set and its exactness argument
//!
//! A vertex's best-move proposal is a pure function of three inputs: (1) its own bucket, (2)
//! the neighbor data of its adjacent queries, and (3) — under the `All` constraint — the
//! globally least-loaded bucket. [`ActiveSet`] caches for every vertex only what depends on
//! the first two, its *standing*: the best target among the buckets its queries touch, with
//! that gain, and its base gain — the gain of moving to a bucket none of its queries touches.
//! The least-loaded bucket is resolved against the standing while the iteration's candidates
//! are assembled, by the kernel's rule: the untouched least-loaded bucket is considered after
//! the touched targets and wins with a higher gain, or an equal gain and a lower bucket id.
//!
//! * A moved vertex dirties **itself** (input 1) and every query it belongs to; every vertex
//!   adjacent to a dirtied query is dirtied (input 2) — this is the `O(moved · deg²)`
//!   frontier. Dirty vertices are recomputed before the next assembly.
//! * Input 3 reaches a resolution only through one fact: whether the vertex's queries touch
//!   the least-loaded bucket. That fact decides the move only for a **tie**, a vertex whose
//!   best touched gain does not strictly exceed its base gain: a strictly better touched
//!   target beats every untouched bucket, and a vertex without a touched target moves to the
//!   untouched least-loaded bucket, whichever bucket that is. So when the least-loaded bucket
//!   moves, only the ties are recomputed. The gain functions never rank a touched bucket below
//!   an untouched one, so a tie needs exactly equal gains. (Under the `Siblings` constraint
//!   the kernel never reads the least-loaded bucket and nothing is a tie.)
//! * Under `All`, a vertex without queries has a constant standing — no touched bucket, base
//!   gain −0.0 — so it is never recomputed, and its candidates are counted per bucket in bulk;
//!   only its coin is drawn per vertex.
//!
//! Clean vertices therefore resolve to exactly the proposal a recomputation would produce:
//! the assembled candidates (ascending vertex order, same penalty and gain filter) equal a
//! full rescan's bit for bit, for every worker count. A full rescan is
//! [`Refiner::run_iteration`], which starts from a fresh [`ActiveSet`]. The conformance
//! harness `shp_bench::conformance::checked_full_rescan` checks every full-rescan iteration
//! against the pre-cache iteration kept as an oracle (`shp_bench::oracles::refinement`), and
//! the conformance suites check dirty-set runs against those full rescans.
//!
//! Each iteration assembles its candidates in one pass over the cache into buffers the
//! [`ActiveSet`] owns and reuses: the movement penalty is read inline, and each gain is binned
//! once, for both its histogram count and its coin. Late iterations in the Figure 7
//! convergence regime move a vanishing fraction of vertices, so the per-iteration cost drops
//! from `O(|V| · deg · fanout)` to the dirty frontier's `O(moved · deg²)` plus that `O(|V|)`
//! pass.

use crate::config::{BalanceMode, SwapStrategy};
use crate::gains::{standing_with, GainScratch, MoveProposal, Standing, TargetConstraint};
use crate::histogram::{bin_index, GainHistogramSet};
use crate::neighbor_data::NeighborData;
use crate::objective::Objective;
use crate::pair_table::PairLayout;
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
    /// Number of positive-gain candidates whose move probability was 0: improving moves the
    /// swap coordination could not match with any move in the opposite direction.
    pub stranded: usize,
}

/// Whether a vertex's cached standing is current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cached {
    Clean,
    Dirty,
    /// A vertex without queries under `All`: its standing never changes.
    Constant,
}

/// Cross-iteration refinement state: each vertex's standing (the part of its best move that
/// does not depend on the least-loaded bucket), the dirty bookkeeping that decides which
/// standings must be recomputed, and the buffers each iteration assembles into. See the module
/// docs for the exactness argument.
///
/// An `ActiveSet` is valid for **exactly one** (refiner, partition, neighbor-data) evolution:
/// the cached standings embody the refiner's objective and constraint, and the dirty
/// flags assume every partition/neighbor-data mutation since the last call went through
/// [`Refiner::run_iteration_with`] with this same state. Reusing it with a differently
/// configured refiner, or after mutating the partition behind its back, silently serves stale
/// proposals — create a fresh state via [`Refiner::new_active_set`] instead (a graph-size
/// mismatch is caught by a debug assertion).
#[derive(Debug)]
pub struct ActiveSet {
    /// Every vertex's standing, current for `Clean` and `Constant` vertices.
    standings: Vec<Standing>,
    state: Vec<Cached>,
    /// Scratch list of the `Dirty` vertices, ascending, during a refresh.
    dirty: Vec<DataId>,
    /// Scratch flags for the query frontier of one apply phase (always reset after use).
    query_dirty: Vec<bool>,
    /// Scratch list of the queries flagged in `query_dirty`.
    dirty_queries: Vec<QueryId>,
    /// The least-loaded bucket the ties' standings were computed against (`None` until the
    /// first sweep).
    cached_least_loaded: Option<BucketId>,
    /// The vertices the assembly pass visits, ascending: every vertex except the `Constant`
    /// ones.
    members: Vec<DataId>,
    /// The `Constant` vertices, ascending.
    isolated: Vec<DataId>,
    /// The ties among `members`, as of the last assembly pass.
    ties: Vec<DataId>,
    /// The last assembly's candidates from `members`, ascending, and their gain bins (filled
    /// under the histogram strategy only).
    candidates: Vec<MoveProposal>,
    bins: Vec<u8>,
    /// Per bucket, the isolated vertices in it that propose a move, split by gain: unpenalized
    /// (−0.0) and penalized.
    isolated_counts: Vec<[u64; 2]>,
    /// Per bucket, the isolated vertices in it (empty until the first assembly that counts
    /// them; then kept up to date by the applied moves).
    isolated_in: Vec<u64>,
    /// With a movement penalty: the isolated vertices away from their previous bucket (and,
    /// until the next count prunes them, some that returned to it).
    displaced: Vec<DataId>,
    /// The selected moves: after an iteration, the moves it applied, in application order.
    selected: Vec<MoveProposal>,
    unselected_positive: Vec<MoveProposal>,
}

impl ActiveSet {
    /// Number of currently dirty vertices (diagnostics / tests).
    pub fn num_dirty(&self) -> usize {
        self.state.iter().filter(|&&s| s == Cached::Dirty).count()
    }

    /// The moves the last [`Refiner::run_iteration_with`] call applied, in application order.
    pub fn applied_moves(&self) -> &[MoveProposal] {
        &self.selected
    }

    fn mark_dirty(&mut self, v: DataId) {
        if self.state[v as usize] == Cached::Clean {
            self.state[v as usize] = Cached::Dirty;
        }
    }

    /// Marks the refinement frontier of the applied moves dirty: each moved vertex itself
    /// (its `from` bucket changed) and every vertex sharing a query with it (their neighbor
    /// data changed).
    fn mark_moves_dirty(&mut self, graph: &BipartiteGraph) {
        for i in 0..self.selected.len() {
            let v = self.selected[i].vertex;
            self.mark_dirty(v);
            for &q in graph.data_neighbors(v) {
                if !self.query_dirty[q as usize] {
                    self.query_dirty[q as usize] = true;
                    self.dirty_queries.push(q);
                }
            }
        }
        for i in 0..self.dirty_queries.len() {
            let q = self.dirty_queries[i];
            for &v in graph.query_neighbors(q) {
                self.mark_dirty(v);
            }
            self.query_dirty[q as usize] = false;
        }
        self.dirty_queries.clear();
    }

    /// Brings every standing up to date for `least_loaded`: the dirty vertices, plus the ties
    /// when the least-loaded bucket moved since the last refresh.
    fn refresh(
        &mut self,
        refiner: &Refiner<'_>,
        partition: &Partition,
        nd: &NeighborData,
        least_loaded: BucketId,
    ) {
        if self.cached_least_loaded != Some(least_loaded) {
            for i in 0..self.ties.len() {
                self.mark_dirty(self.ties[i]);
            }
            self.cached_least_loaded = Some(least_loaded);
        }
        let (dirty, state) = (&mut self.dirty, &self.state);
        dirty.clear();
        dirty.extend(
            self.members
                .iter()
                .copied()
                .filter(|&v| state[v as usize] == Cached::Dirty),
        );
        let (dirty, graph) = (&self.dirty, refiner.graph);
        let fresh = rayon::pool::map_index_with(
            dirty.len(),
            refiner.workers,
            || GainScratch::new(partition.num_buckets()),
            |scratch, i| {
                let v = dirty[i];
                standing_with(
                    &refiner.objective,
                    &refiner.constraint,
                    partition.bucket_of(v),
                    graph.data_neighbors(v).iter().map(|&q| nd.nonzero(q)),
                    least_loaded,
                    scratch,
                )
            },
        );
        for (&v, standing) in self.dirty.iter().zip(fresh) {
            self.standings[v as usize] = standing;
            self.state[v as usize] = Cached::Clean;
        }
    }

    /// Assembles the iteration's candidates in one pass over the standings: resolves the
    /// least-loaded bucket, applies the penalty and the gain filter, bins each histogram
    /// candidate's gain once, and records the ties. The non-positive proposals are candidates
    /// under the histogram strategy only (Section 3.4). The vertices without queries are
    /// counted per bucket and gain group in `isolated_counts`; returns their number.
    fn assemble(
        &mut self,
        refiner: &Refiner<'_>,
        partition: &Partition,
        least_loaded: BucketId,
    ) -> usize {
        let histogram = refiner.swap_strategy == SwapStrategy::Histogram;
        let all = matches!(refiner.constraint, TargetConstraint::All { .. });
        let assignment = partition.assignment();
        self.candidates.clear();
        self.bins.clear();
        self.ties.clear();
        for &v in &self.members {
            let standing = self.standings[v as usize];
            if all && standing.is_tie() {
                self.ties.push(v);
            }
            let from = assignment[v as usize];
            let Some((to, gain)) = standing.resolve(&refiner.constraint, from, least_loaded) else {
                continue;
            };
            let gain = refiner.penalized(v, to, gain);
            if !(histogram || gain > 0.0) {
                continue;
            }
            if histogram {
                self.bins.push(bin_index(gain) as u8);
            }
            self.candidates.push(MoveProposal {
                vertex: v,
                from,
                to,
                gain,
            });
        }

        // A vertex without queries proposes the least-loaded bucket with gain −0.0, less the
        // penalty when that bucket is not its previous one (`Standing::NONE` resolves so for
        // any `from` but the least-loaded bucket itself). Such gains are never positive, so
        // only the histogram strategy counts them.
        self.isolated_counts.clear();
        self.isolated_counts
            .resize(partition.num_buckets() as usize, [0; 2]);
        let proposes = Standing::NONE
            .resolve(&refiner.constraint, BucketId::MAX, least_loaded)
            .is_some();
        if self.isolated.is_empty() || !(histogram && proposes) {
            return 0;
        }
        if self.isolated_in.is_empty() {
            self.isolated_in.resize(partition.num_buckets() as usize, 0);
            for &v in &self.isolated {
                let from = assignment[v as usize];
                self.isolated_in[from as usize] += 1;
                if matches!(refiner.movement_penalty, Some((previous, _)) if previous[v as usize] != from)
                {
                    self.displaced.push(v);
                }
            }
        }
        // Every isolated vertex outside the least-loaded bucket proposes it, penalized unless
        // the least-loaded bucket is its previous one, which puts it among the displaced.
        let group = usize::from(refiner.movement_penalty.is_some());
        for (counts, &n) in self.isolated_counts.iter_mut().zip(&self.isolated_in) {
            counts[group] = n;
        }
        if let Some((previous, _)) = refiner.movement_penalty {
            self.displaced
                .retain(|&v| assignment[v as usize] != previous[v as usize]);
            for &v in &self.displaced {
                if previous[v as usize] == least_loaded {
                    let counts = &mut self.isolated_counts[assignment[v as usize] as usize];
                    counts[1] -= 1;
                    counts[0] += 1;
                }
            }
        }
        self.isolated_counts[least_loaded as usize] = [0; 2];
        self.isolated_counts.iter().flatten().sum::<u64>() as usize
    }

    /// The move probabilities the master broadcasts for the assembled candidates: the swap
    /// matrix's, or the matched gain histograms' (Section 3.4), each candidate counted in the
    /// bin its gain was assigned once, the isolated vertices counted per bucket.
    fn probabilities(&self, refiner: &Refiner<'_>, least_loaded: BucketId) -> MoveProbabilities {
        if refiner.swap_strategy == SwapStrategy::Matrix {
            return SwapMatrix::from_proposals(&self.candidates).move_probabilities();
        }
        let isolated_bins = refiner.isolated_gains().map(bin_index);
        let isolated_pairs = self
            .isolated_counts
            .iter()
            .enumerate()
            .filter(|(_, counts)| counts[0] + counts[1] > 0)
            .map(|(from, _)| (from as BucketId, least_loaded));
        let layout = PairLayout::from_pairs(
            self.candidates
                .iter()
                .map(|p| (p.from, p.to))
                .chain(isolated_pairs),
        );
        let mut set = GainHistogramSet::with_layout(layout);
        for (p, &bin) in self.candidates.iter().zip(&self.bins) {
            set.add(p.from, p.to, bin as usize, 1);
        }
        for (from, counts) in self.isolated_counts.iter().enumerate() {
            for (group, &count) in counts.iter().enumerate() {
                if count > 0 {
                    set.add(from as BucketId, least_loaded, isolated_bins[group], count);
                }
            }
        }
        MoveProbabilities::from_histograms(&set)
    }

    /// Draws every candidate's coin with a per-(seed, iteration, vertex) hash, so the outcome
    /// does not depend on thread scheduling, filling `selected` in ascending vertex order and,
    /// with imbalanced moves on, `unselected_positive`. Returns the number of stranded
    /// candidates: positive gain, move probability 0.
    fn draw_coins(
        &mut self,
        refiner: &Refiner<'_>,
        partition: &Partition,
        probabilities: &MoveProbabilities,
        iteration: usize,
        least_loaded: BucketId,
    ) -> usize {
        let coin = |v: DataId| unit_hash(refiner.seed, iteration as u64, v as u64);
        self.selected.clear();
        self.unselected_positive.clear();
        let mut stranded = 0;
        for (i, p) in self.candidates.iter().enumerate() {
            let bin = self.bins.get(i).map_or(0, |&bin| bin as usize);
            let prob = probabilities.probability_in_bin(p, bin);
            if prob > 0.0 && coin(p.vertex) < prob {
                self.selected.push(*p);
            } else if p.gain > 0.0 {
                if prob == 0.0 {
                    stranded += 1;
                }
                if refiner.allow_imbalanced_moves {
                    self.unselected_positive.push(*p);
                }
            }
        }

        // The isolated vertices' gains are never positive, so none of them is stranded.
        if self
            .isolated_counts
            .iter()
            .flatten()
            .all(|&count| count == 0)
        {
            return stranded;
        }
        let gains = refiner.isolated_gains();
        let bins = gains.map(bin_index);
        let probs: Vec<[f64; 2]> = (0..self.isolated_counts.len() as BucketId)
            .map(|from| {
                [0, 1].map(|group| {
                    let p = MoveProposal {
                        vertex: 0,
                        from,
                        to: least_loaded,
                        gain: gains[group],
                    };
                    probabilities.probability_in_bin(&p, bins[group])
                })
            })
            .collect();
        if probs.iter().flatten().all(|&prob| prob == 0.0) {
            return stranded;
        }
        // With a zero penalty both gains are −0.0, and nothing depends on the group.
        let split = gains[0].to_bits() != gains[1].to_bits();
        let assignment = partition.assignment();
        let connected = self.selected.len();
        for &v in &self.isolated {
            let from = assignment[v as usize];
            if from == least_loaded {
                continue;
            }
            let group = if split {
                refiner.isolated_group(v, least_loaded)
            } else {
                0
            };
            let prob = probs[from as usize][group];
            if prob > 0.0 && coin(v) < prob {
                self.selected.push(MoveProposal {
                    vertex: v,
                    from,
                    to: least_loaded,
                    gain: gains[group],
                });
            }
        }
        if self.selected.len() > connected {
            self.selected.sort_unstable_by_key(|p| p.vertex);
        }
        stranded
    }

    /// Records an applied move of the isolated vertex `v` in the per-bucket counts.
    fn move_isolated(&mut self, refiner: &Refiner<'_>, v: DataId, from: BucketId, to: BucketId) {
        if self.isolated_in.is_empty() {
            return;
        }
        self.isolated_in[from as usize] -= 1;
        self.isolated_in[to as usize] += 1;
        if matches!(refiner.movement_penalty, Some((previous, _)) if previous[v as usize] == from) {
            self.displaced.push(v);
        }
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
    /// The previous assignment and the penalty of a move away from it.
    movement_penalty: Option<(&'a [BucketId], f64)>,
    /// Every bucket's share of the final buckets; 1 each when `None`.
    bucket_shares: Option<&'a [u32]>,
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
            movement_penalty: None,
            bucket_shares: None,
        }
    }

    /// The objective being optimized.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The constraint on each vertex's targets.
    pub fn constraint(&self) -> &TargetConstraint {
        &self.constraint
    }

    /// The swap-coordination scheme.
    pub fn swap_strategy(&self) -> SwapStrategy {
        self.swap_strategy
    }

    /// How bucket weights are kept balanced.
    pub fn balance_mode(&self) -> BalanceMode {
        self.balance_mode
    }

    /// Whether unpaired improving moves may use the ε slack.
    pub fn allows_imbalanced_moves(&self) -> bool {
        self.allow_imbalanced_moves
    }

    /// The allowed imbalance ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The seed of the per-vertex move coins.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The previous assignment and the movement penalty, if set.
    pub fn movement_penalty(&self) -> Option<(&'a [BucketId], f64)> {
        self.movement_penalty
    }

    /// Every bucket's share of the final buckets, if set.
    pub fn bucket_shares(&self) -> Option<&'a [u32]> {
        self.bucket_shares
    }

    /// Subtracts `penalty` from the gain of every proposal whose target differs from the
    /// vertex's bucket in `previous` (one entry per data vertex), before swap coordination; a
    /// move back to that bucket keeps its full gain. This is the incremental update's penalty
    /// on movement away from a previous partition (Section 5). The penalty is read inline
    /// while the candidates are assembled, so the cached standings stay penalty-free.
    ///
    /// # Panics
    /// Panics when `previous` does not hold one bucket per data vertex.
    pub fn with_movement_penalty(mut self, previous: &'a [BucketId], penalty: f64) -> Self {
        assert_eq!(
            previous.len(),
            self.graph.num_data(),
            "the previous assignment must hold one bucket per data vertex"
        );
        self.movement_penalty = Some((previous, penalty));
        self
    }

    /// Sets every bucket's share of the final buckets (1 each by default), to which its
    /// `(1 + ε)` capacity is proportional: SHP-r's shares differ where a bucket splits 3 → 2 + 1.
    pub fn with_bucket_shares(mut self, shares: &'a [u32]) -> Self {
        self.bucket_shares = Some(shares);
        self
    }

    /// Every bucket's ideal weight `⌈total · share / Σ shares⌉` and `(1 + ε)` capacity
    /// `⌊(1 + ε) · ideal⌋`, the one rule of the capacity trim and the imbalanced extras. Equal
    /// shares reduce it to [`Partition::max_allowed_weight`] bit for bit.
    fn capacities(&self, partition: &Partition) -> Vec<(u64, u64)> {
        let k = partition.num_buckets() as usize;
        let share = |b: usize| self.bucket_shares.map_or(1.0, |s| f64::from(s[b]));
        let total_shares: f64 = (0..k).map(share).sum();
        let total = partition.total_weight() as f64;
        (0..k)
            .map(|b| {
                let ideal = (total * share(b) / total_shares).ceil();
                (ideal as u64, ((1.0 + self.epsilon) * ideal).floor() as u64)
            })
            .collect()
    }

    /// Sets the worker-thread count used by the parallel phases of each iteration (gain
    /// computation and histogram construction). The produced moves are bit-identical for every
    /// worker count; the default is 1 (fully sequential).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Creates the cross-iteration [`ActiveSet`] for this refiner's graph, with every vertex
    /// initially dirty except, under `All`, the vertices without queries, whose standing is
    /// constant.
    pub fn new_active_set(&self) -> ActiveSet {
        let graph = self.graph;
        let bulk = matches!(self.constraint, TargetConstraint::All { .. });
        let (isolated, members): (Vec<DataId>, Vec<DataId>) = graph
            .data_vertices()
            .partition(|&v| bulk && graph.data_neighbors(v).is_empty());
        let mut state = vec![Cached::Dirty; graph.num_data()];
        for &v in &isolated {
            state[v as usize] = Cached::Constant;
        }
        ActiveSet {
            standings: vec![Standing::NONE; graph.num_data()],
            state,
            dirty: Vec::new(),
            query_dirty: vec![false; graph.num_queries()],
            dirty_queries: Vec::new(),
            cached_least_loaded: None,
            members,
            isolated,
            ties: Vec::new(),
            candidates: Vec::new(),
            bins: Vec::new(),
            isolated_counts: Vec::new(),
            isolated_in: Vec::new(),
            displaced: Vec::new(),
            selected: Vec::new(),
            unselected_positive: Vec::new(),
        }
    }

    /// `gain` after the movement penalty of moving `v` to `to`.
    #[inline]
    fn penalized(&self, v: DataId, to: BucketId, gain: f64) -> f64 {
        match self.movement_penalty {
            Some((previous, penalty)) if previous[v as usize] != to => gain - penalty,
            _ => gain,
        }
    }

    /// The two gains a vertex without queries can propose the least-loaded bucket with:
    /// −0.0, and −0.0 less the penalty.
    fn isolated_gains(&self) -> [f64; 2] {
        [
            -0.0,
            self.movement_penalty
                .map_or(-0.0, |(_, penalty)| -0.0 - penalty),
        ]
    }

    /// Which of [`Refiner::isolated_gains`] vertex `v` proposes `least_loaded` with.
    #[inline]
    fn isolated_group(&self, v: DataId, least_loaded: BucketId) -> usize {
        usize::from(matches!(
            self.movement_penalty,
            Some((previous, _)) if previous[v as usize] != least_loaded
        ))
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
    /// module docs), while the assembled candidates stay bit-identical to a full rescan.
    pub fn run_iteration_with(
        &self,
        active: &mut ActiveSet,
        partition: &mut Partition,
        nd: &mut NeighborData,
        iteration: usize,
    ) -> IterationStats {
        debug_assert_eq!(
            active.state.len(),
            self.graph.num_data(),
            "ActiveSet built for a different graph (see ActiveSet docs)"
        );
        debug_assert_eq!(active.query_dirty.len(), self.graph.num_queries());
        let least_loaded = partition.least_loaded_bucket();
        active.refresh(self, partition, nd, least_loaded);

        let isolated_candidates = active.assemble(self, partition, least_loaded);
        let probabilities = active.probabilities(self, least_loaded);
        let stranded = active.draw_coins(self, partition, &probabilities, iteration, least_loaded);

        if self.balance_mode == BalanceMode::Strict {
            active.selected = enforce_strict_pairing(std::mem::take(&mut active.selected));
        } else {
            // The move probabilities equalize the two directions of every bucket pair only in
            // expectation; on small instances the variance accumulates into real imbalance over
            // many iterations. Guard the application step with the ε capacity so drift never
            // exceeds the allowed imbalance (large instances are virtually unaffected).
            enforce_capacity(partition, &mut active.selected, &self.capacities(partition));
        }

        if self.allow_imbalanced_moves {
            let extra = select_imbalanced_extras(
                partition,
                &active.selected,
                &mut active.unselected_positive,
                &self.capacities(partition),
            );
            active.selected.extend(extra);
        }

        // Apply the moves, then mark the affected gain inputs dirty for the next iteration.
        let mut applied_gain = 0.0;
        for i in 0..active.selected.len() {
            let p = active.selected[i];
            debug_assert_eq!(partition.bucket_of(p.vertex), p.from);
            partition.assign(p.vertex, p.to);
            nd.apply_move(self.graph, p.vertex, p.from, p.to);
            if active.state[p.vertex as usize] == Cached::Constant {
                active.move_isolated(self, p.vertex, p.from, p.to);
            }
            applied_gain += p.gain;
        }
        active.mark_moves_dirty(self.graph);
        if shp_telemetry::enabled() {
            shp_telemetry::global()
                .counter("partition/refinement/stranded")
                .add(stranded as u64);
        }

        let moved = active.selected.len();
        let num_data = self.graph.num_data().max(1);
        IterationStats {
            iteration,
            candidates: active.candidates.len() + isolated_candidates,
            moved,
            moved_fraction: moved as f64 / num_data as f64,
            applied_gain,
            fanout_after: nd.average_fanout(),
            stranded,
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

/// Drops selected moves (worst gains first) whose target bucket would exceed its `(1 + ε)`
/// capacity ([`Refiner::capacities`]) after accounting for the moves processed so far,
/// leaving the kept moves in gain order. Departures free capacity as they are processed, so
/// paired swaps generally survive; only drift-inducing surplus is trimmed.
fn enforce_capacity(
    partition: &Partition,
    selected: &mut Vec<MoveProposal>,
    capacities: &[(u64, u64)],
) {
    selected.sort_by(|a, b| {
        b.gain
            .partial_cmp(&a.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut weights: Vec<u64> = partition.bucket_weights().to_vec();
    selected.retain(|p| {
        let w = partition.vertex_weight(p.vertex);
        // A bucket must always be allowed to hold at least its ideal weight plus one vertex,
        // otherwise tight instances would freeze entirely.
        let (ideal, cap) = capacities[p.to as usize];
        let fits = weights[p.to as usize] + w <= cap.max(ideal + 1);
        if fits {
            weights[p.to as usize] += w;
            weights[p.from as usize] -= w;
        }
        fits
    });
}

/// Selects additional unpaired positive-gain moves as long as the target bucket stays within
/// its `(1 + ε)` capacity, given the moves already selected (Section 3.4's use of the allowed
/// imbalance).
fn select_imbalanced_extras(
    partition: &Partition,
    already_selected: &[MoveProposal],
    candidates: &mut [MoveProposal],
    capacities: &[(u64, u64)],
) -> Vec<MoveProposal> {
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
        if weights[p.to as usize] + w <= capacities[p.to as usize].1 {
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
        // The movement penalty is applied at candidate-assembly time, so cached standings must
        // still yield the same penalized/filtered candidates as a full rescan.
        let graph = community_graph(3, 6);
        let mut rng = Pcg64::seed_from_u64(8);
        let initial = Partition::new_random(&graph, 3, &mut rng).unwrap();
        let previous = Partition::new_random(&graph, 3, &mut rng).unwrap();
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
        .with_movement_penalty(previous.assignment(), 0.125);
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
    fn a_tie_resolves_the_least_loaded_bucket_exactly_as_the_kernel() {
        // Vertex 0 sits in bucket 0; its two queries touch buckets 2 and 4. A p so small that
        // (1 − p)^n rounds to 1 makes every gain 0: the best touched bucket, 2, ties with the
        // base gain. Whatever least-loaded bucket the standing was cached against, resolving
        // it against another one must give the kernel's proposal: untouched below the target
        // (1), untouched above it (3, 5), touched (2, 4) and the vertex's own bucket (0).
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1]);
        b.add_query([0u32, 2]);
        let graph = b.build().unwrap();
        let partition = Partition::from_assignment(&graph, 6, vec![0, 2, 4]).unwrap();
        let nd = NeighborData::build(&graph, &partition);
        let objective = Objective::PFanout { p: 1e-300 };
        let constraint = TargetConstraint::all(6);
        let refiner = Refiner::new(
            &graph,
            objective,
            constraint.clone(),
            SwapStrategy::Histogram,
            BalanceMode::Expectation,
            false,
            0.05,
            1,
        );
        let bits = |p: Option<MoveProposal>| p.map(|p| (p.vertex, p.from, p.to, p.gain.to_bits()));
        for cached in 0..6 {
            for least_loaded in 0..6 {
                let mut active = refiner.new_active_set();
                active.refresh(&refiner, &partition, &nd, cached);
                active.assemble(&refiner, &partition, cached);
                let standing = active.standings[0];
                assert_eq!((standing.to, standing.gain), (2, standing.base_gain));
                active.refresh(&refiner, &partition, &nd, least_loaded);
                active.assemble(&refiner, &partition, least_loaded);
                let assembled = active.candidates.iter().find(|p| p.vertex == 0).copied();
                let kernel = crate::gains::best_move_for_vertex(
                    &objective,
                    &graph,
                    &partition,
                    &nd,
                    &constraint,
                    least_loaded,
                    0,
                );
                assert!(kernel.is_some());
                assert_eq!(
                    bits(assembled),
                    bits(kernel),
                    "cached against {cached}, resolved against {least_loaded}"
                );
            }
        }
    }

    #[test]
    fn one_sided_demand_strands_every_improving_candidate() {
        // Three communities, each querying itself three times. A (0..=5) lies wholly in bucket
        // 0; B (6..=9) and C (10..=13) each have one member in bucket 0 and three in bucket 1.
        // The two lone members improve by moving 0 -> 1, and no vertex improves by moving
        // 1 -> 0, so the swap matrix gives both improving candidates probability 0.
        let mut b = GraphBuilder::new();
        for community in [0u32..6, 6..10, 10..14] {
            for _ in 0..3 {
                b.add_query(community.clone());
            }
        }
        let graph = b.build().unwrap();
        let assignment = vec![0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1];
        let mut partition = Partition::from_assignment(&graph, 2, assignment).unwrap();
        let mut nd = NeighborData::build(&graph, &partition);
        let refiner = Refiner::new(
            &graph,
            Objective::Fanout,
            TargetConstraint::all(2),
            SwapStrategy::Matrix,
            BalanceMode::Expectation,
            false,
            0.5,
            1,
        );
        let stats = refiner.run_iteration(&mut partition, &mut nd, 0);
        assert_eq!(stats.candidates, 2, "only vertices 6 and 10 improve");
        assert_eq!(stats.stranded, 2);
        assert_eq!(stats.moved, 0);
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
