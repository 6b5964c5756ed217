//! Move-gain computation: for every data vertex, the best target bucket and its gain.
//!
//! This is the "compute move gains / find best bucket" phase of Algorithm 1. Gains are computed
//! from the per-query [`NeighborData`] in `O(Σ_{q ∈ N(v)} fanout(q))` per vertex — the zero
//! entries of the neighbor data never need to be touched, mirroring the communication
//! optimization of Section 3.3.
//!
//! # The scratch kernel and its determinism contract
//!
//! The kernel accumulates per-candidate-bucket gain deltas in a [`GainScratch`]: a dense
//! `Vec<f64>` of size `k` plus a touched-bucket stack, allocated **once per worker** (via
//! `rayon::pool::filter_map_index_with`) and reset in `O(touched)` after each vertex. No
//! hashing, heap allocation or large sort runs in the inner loop — only the tiny touched list
//! is sorted.
//!
//! Its proposals are **bit-identical** to those of the direct per-vertex `HashMap` kernel:
//!
//! * per-bucket delta accumulation follows the exact same visit order (outer loop over the
//!   vertex's queries, inner loop over each query's non-zero entries), so every slot sees the
//!   identical sequence of f64 additions;
//! * candidates are considered in ascending bucket order (the touched stack is sorted, matching
//!   a sorted hash-map key collection), with the same tie-breaking;
//! * the `least_loaded` fallback candidate is handled identically (considered last, only when
//!   untouched).
//!
//! That hash-map kernel is kept outside the shipped crates, in `shp_bench::oracles::gains`;
//! the conformance tests and the `gain_computation` bench assert bit-identical `MoveProposal`
//! lists (gain float bits included) against it.

use crate::neighbor_data::{count_in, NeighborData};
use crate::objective::Objective;
use crate::pair_table::PairLayout;
use shp_hypergraph::{BipartiteGraph, BucketId, DataId, Partition};

/// A proposed move of one data vertex to its best target bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveProposal {
    /// The moving data vertex.
    pub vertex: DataId,
    /// Its current bucket.
    pub from: BucketId,
    /// The proposed target bucket.
    pub to: BucketId,
    /// Gain (objective reduction) of the move; may be non-positive when non-positive proposals
    /// are requested (histogram strategy).
    pub gain: f64,
}

/// Restricts which buckets a vertex may move to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetConstraint {
    /// Any of the `k` buckets (direct SHP-k optimization).
    All {
        /// Total number of buckets.
        k: u32,
    },
    /// Recursive splitting: a vertex currently in bucket `b` may only move to `allowed[b]`
    /// (its sibling buckets at the current recursion level).
    Siblings {
        /// Allowed target buckets per current bucket.
        allowed: Vec<Vec<BucketId>>,
    },
}

impl TargetConstraint {
    /// Constraint allowing movement between every pair of the `k` buckets.
    pub fn all(k: u32) -> Self {
        TargetConstraint::All { k }
    }

    /// Constraint allowing movement only inside sibling groups. `groups[g]` lists the buckets
    /// of group `g`; each bucket may move to any other bucket of its group.
    pub fn sibling_groups(groups: &[Vec<BucketId>]) -> Self {
        let max_bucket = groups
            .iter()
            .flat_map(|g| g.iter().copied())
            .max()
            .map_or(0, |b| b as usize + 1);
        let mut allowed: Vec<Vec<BucketId>> = vec![Vec::new(); max_bucket];
        for group in groups {
            for &b in group {
                allowed[b as usize] = group.iter().copied().filter(|&o| o != b).collect();
            }
        }
        TargetConstraint::Siblings { allowed }
    }

    /// The ordered `(from, to)` pairs a proposal under this constraint can take: every pair
    /// of the `k` buckets under `All`, each bucket and its siblings under `Siblings` — about
    /// `k·(r − 1)` slots at arity `r`, because a group's children are numbered contiguously.
    pub fn pair_layout(&self) -> PairLayout {
        match self {
            TargetConstraint::All { k } => PairLayout::dense(*k),
            TargetConstraint::Siblings { allowed } => {
                PairLayout::from_pairs(allowed.iter().enumerate().flat_map(|(from, targets)| {
                    targets.iter().map(move |&to| (from as BucketId, to))
                }))
            }
        }
    }
}

/// Computes the exact gain of moving vertex `v` from its current bucket to `to`.
pub fn move_gain(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    v: DataId,
    to: BucketId,
) -> f64 {
    let from = partition.bucket_of(v);
    if from == to {
        return 0.0;
    }
    graph
        .data_neighbors(v)
        .iter()
        .map(|&q| objective.per_query_gain(nd.count(q, from), nd.count(q, to)))
        .sum()
}

/// The gain kernel [`compute_proposals_for`] runs: the dense scratch kernel is the only one.
///
/// The type and that function's `kernel` parameter remain only because the pipeline benchmark
/// (`perfbench/`) passes them; the next change to the benchmark deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GainKernel {
    /// Allocation-free dense-scratch kernel.
    #[default]
    Scratch,
}

/// Worker-local scratch state for the dense gain kernel: a delta accumulator of size `k`, a
/// presence mark per bucket, and the stack of touched buckets used for `O(touched)` reset.
///
/// One scratch is created per worker chunk and reused for every vertex of the chunk; after
/// each vertex the kernel resets exactly the slots it touched, so reuse cannot leak state
/// between vertices (the determinism contract in the module docs).
#[derive(Debug, Clone)]
pub struct GainScratch {
    /// Per-bucket gain adjustment relative to an untouched bucket; 0.0 when not touched.
    delta: Vec<f64>,
    /// Whether the bucket currently has an entry (mirrors hash-map key presence).
    marked: Vec<bool>,
    /// Buckets touched for the current vertex, in first-touch order (sorted before use).
    touched: Vec<BucketId>,
}

impl GainScratch {
    /// Creates a scratch for `k` buckets.
    pub fn new(k: u32) -> Self {
        GainScratch {
            delta: vec![0.0; k as usize],
            marked: vec![false; k as usize],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn add(&mut self, b: BucketId, adjustment: f64) {
        let i = b as usize;
        if !self.marked[i] {
            self.marked[i] = true;
            self.touched.push(b);
        }
        self.delta[i] += adjustment;
    }

    #[inline]
    fn reset(&mut self) {
        for &b in &self.touched {
            self.delta[b as usize] = 0.0;
            self.marked[b as usize] = false;
        }
        self.touched.clear();
    }
}

/// Marks "no target" in a [`Standing`].
pub(crate) const NO_TARGET: BucketId = BucketId::MAX;

/// A vertex's best move before the least-loaded bucket is resolved: the best target among the
/// buckets its queries touch (its siblings under `Siblings`) with that gain, and under `All`
/// its base gain — the gain of moving to a bucket none of its queries touches — plus whether
/// the least-loaded bucket it was computed against is one of the touched buckets.
///
/// Only `least_loaded_touched` depends on the least-loaded bucket, and [`Standing::resolve`]
/// reads it only when the best touched gain does not strictly exceed the base gain: a bucket
/// none of the vertex's queries touches can then tie or beat the touched target.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Standing {
    /// Best touched (or sibling) target, [`NO_TARGET`] when there is none.
    pub(crate) to: BucketId,
    /// Whether the vertex's queries touch the least-loaded bucket passed to the kernel.
    pub(crate) least_loaded_touched: bool,
    /// Gain of moving to `to`.
    pub(crate) gain: f64,
    /// Gain of moving to an untouched bucket (`All` only).
    pub(crate) base_gain: f64,
}

impl Standing {
    /// No admissible target. Under `All` this is also the standing of a vertex without
    /// queries: no touched bucket, and the empty sum −0.0 as its base gain.
    pub(crate) const NONE: Standing = Standing {
        to: NO_TARGET,
        least_loaded_touched: false,
        gain: 0.0,
        base_gain: -0.0,
    };

    /// Whether this standing's move can change with the least-loaded bucket: it has a touched
    /// target whose gain does not strictly exceed the base gain. (Without a touched target
    /// the untouched least-loaded bucket always wins, whichever bucket that is.)
    #[inline]
    pub(crate) fn is_tie(&self) -> bool {
        self.to != NO_TARGET
            && self.gain.partial_cmp(&self.base_gain) != Some(std::cmp::Ordering::Greater)
    }

    /// The best move `(to, gain)` of a vertex in bucket `from` with this standing, given the
    /// least-loaded bucket: under `All` the untouched least-loaded bucket is considered after
    /// the touched ones, with the kernel's tie rule (the lower bucket id wins an equal gain).
    /// `least_loaded_touched` must refer to `least_loaded` unless [`Standing::is_tie`] is
    /// false.
    #[inline]
    pub(crate) fn resolve(
        &self,
        constraint: &TargetConstraint,
        from: BucketId,
        least_loaded: BucketId,
    ) -> Option<(BucketId, f64)> {
        let best = (self.to != NO_TARGET).then_some((self.to, self.gain));
        match constraint {
            TargetConstraint::Siblings { .. } => best,
            TargetConstraint::All { k } => {
                if *k <= 1 {
                    return None;
                }
                if least_loaded == from || self.least_loaded_touched || least_loaded >= *k {
                    return best;
                }
                match best {
                    Some((bb, bg))
                        if bg > self.base_gain || (bg == self.base_gain && bb <= least_loaded) =>
                    {
                        best
                    }
                    _ => Some((least_loaded, self.base_gain)),
                }
            }
        }
    }
}

/// Computes the best move proposal for a single vertex under the given constraint, or `None`
/// when the vertex has no admissible target (e.g. an isolated vertex under `All` with every
/// candidate equal to its own bucket).
///
/// `least_loaded` supplies a representative empty-ish bucket so that moving to a bucket none of
/// the vertex's queries touch is also considered under the `All` constraint.
///
/// This convenience wrapper allocates a fresh [`GainScratch`] per call; hot paths reuse a
/// worker-local scratch through [`best_move_for_vertex_with`].
pub fn best_move_for_vertex(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    least_loaded: BucketId,
    v: DataId,
) -> Option<MoveProposal> {
    let mut scratch = GainScratch::new(partition.num_buckets());
    best_move_for_vertex_with(
        objective,
        graph,
        partition,
        nd,
        constraint,
        least_loaded,
        &mut scratch,
        v,
    )
}

/// The allocation-free gain kernel: like [`best_move_for_vertex`] but reusing a caller-provided
/// [`GainScratch`] (which must cover at least `partition.num_buckets()` buckets). Zero heap
/// allocation, zero hashing; only the touched-bucket list (at most the vertex's neighborhood
/// fanout) is sorted. Bit-identical to the hash-map kernel — see the module docs.
#[allow(clippy::too_many_arguments)]
pub fn best_move_for_vertex_with(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    least_loaded: BucketId,
    scratch: &mut GainScratch,
    v: DataId,
) -> Option<MoveProposal> {
    let from = partition.bucket_of(v);
    standing_with(
        objective,
        constraint,
        from,
        graph.data_neighbors(v).iter().map(|&q| nd.nonzero(q)),
        least_loaded,
        scratch,
    )
    .resolve(constraint, from, least_loaded)
    .map(|(to, gain)| MoveProposal {
        vertex: v,
        from,
        to,
        gain,
    })
}

/// The kernel itself: the [`Standing`] of a vertex in bucket `from`, computed against
/// `least_loaded` from its neighbor data — the non-zero `(bucket, count)` entries of each of
/// its queries, sorted by bucket, the queries in ascending id order. The in-process paths read
/// them from [`NeighborData`]; a BSP data vertex reads the payloads it received, which the
/// engine delivers in ascending sender order. Every gain is summed in query order, so both get
/// the same bits. Under `All`, `scratch` must cover every bucket the entries name.
pub(crate) fn standing_with<'n>(
    objective: &Objective,
    constraint: &TargetConstraint,
    from: BucketId,
    neighbor_data: impl Iterator<Item = &'n [(BucketId, u32)]> + Clone,
    least_loaded: BucketId,
    scratch: &mut GainScratch,
) -> Standing {
    match constraint {
        TargetConstraint::Siblings { allowed } => {
            // The sibling candidate set is tiny (the recursion arity); each target's exact
            // gain is summed like `move_gain` (from −0.0, in query order) and needs no scratch.
            let mut standing = Standing::NONE;
            for &to in allowed.get(from as usize).map_or(&[][..], Vec::as_slice) {
                if to == from {
                    continue;
                }
                let gain: f64 = neighbor_data
                    .clone()
                    .map(|entries| {
                        objective.per_query_gain(count_in(entries, from), count_in(entries, to))
                    })
                    .sum();
                let keep = standing.to != NO_TARGET
                    && (standing.gain > gain || (standing.gain == gain && standing.to < to));
                if !keep {
                    standing.to = to;
                    standing.gain = gain;
                }
            }
            standing
        }
        TargetConstraint::All { k } => {
            if *k <= 1 {
                return Standing::NONE;
            }
            // One fused pass per query: find `n_from` with a linear scan of the (tiny) entry
            // list, evaluate the escape gain `g0 = per_query_gain(n_from, 0)` once, and reuse
            // it for the base gain and for every entry's adjustment. Bit-identical to the
            // hash-map kernel's separate loops: base-gain accumulation visits queries in the
            // same order and starts from -0.0 exactly like `Iterator::sum` for f64 (so an
            // isolated vertex's empty sum keeps its sign bit), `g0` is a pure function of
            // `n_from` (reusing it cannot change a single bit), and per-bucket delta
            // accumulation keeps the same (query, entry) visit order.
            let mut base_gain = -0.0f64;
            for entries in neighbor_data {
                let mut n_from = 0u32;
                for &(b, c) in entries {
                    if b == from {
                        n_from = c;
                        break;
                    }
                }
                let g0 = objective.per_query_gain(n_from, 0);
                base_gain += g0;
                for &(b, c) in entries {
                    if b == from {
                        continue;
                    }
                    let adjustment = objective.per_query_gain(n_from, c) - g0;
                    scratch.add(b, adjustment);
                }
            }
            // Candidates in ascending bucket order (sorting only the touched stack), exactly
            // like the hash-map kernel's sorted key collection; the first of equal gains wins.
            scratch.touched.sort_unstable();
            let mut standing = Standing {
                base_gain,
                ..Standing::NONE
            };
            for &b in &scratch.touched {
                let gain = base_gain + scratch.delta[b as usize];
                let keep = standing.to != NO_TARGET && standing.gain >= gain;
                if !keep {
                    standing.to = b;
                    standing.gain = gain;
                }
            }
            // The least-loaded bucket is the untouched candidate only when no query touches
            // it. An out-of-range caller-supplied `least_loaded` counts as untouched (and is
            // then filtered by `< k` in `resolve`), exactly like the hash-map kernel.
            standing.least_loaded_touched = scratch
                .marked
                .get(least_loaded as usize)
                .is_some_and(|&m| m);
            scratch.reset();
            standing
        }
    }
}

/// Computes move proposals for every data vertex in parallel over `workers` threads.
///
/// When `include_nonpositive` is false only strictly improving proposals are returned (the
/// basic Algorithm 1 behaviour); when true every vertex's best proposal is returned so the
/// histogram strategy can pair positive with non-positive gains (Section 3.4).
///
/// Vertices are partitioned into contiguous index chunks and the per-chunk candidate lists are
/// concatenated in chunk order (the rayon shim's ordered reduction), so the returned list is
/// **bit-identical for every worker count** — sorted by vertex id, exactly as the sequential
/// scan would produce it.
pub fn compute_proposals(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    include_nonpositive: bool,
    workers: usize,
) -> Vec<MoveProposal> {
    let least_loaded = partition.least_loaded_bucket();
    rayon::pool::filter_map_index_with(
        graph.num_data(),
        workers,
        || GainScratch::new(partition.num_buckets()),
        |scratch, v| {
            best_move_for_vertex_with(
                objective,
                graph,
                partition,
                nd,
                constraint,
                least_loaded,
                scratch,
                v as DataId,
            )
            .filter(|p| include_nonpositive || p.gain > 0.0)
        },
    )
}

/// Recomputes the best proposal of each vertex in `vertices` (ascending ids expected), in
/// parallel with worker-local scratches, returning one `Option<MoveProposal>` per input vertex
/// in input order, against the given least-loaded bucket. Unlike [`compute_proposals`] it
/// never filters by gain. `kernel` has one value and remains only because the pipeline
/// benchmark passes it; see [`GainKernel`].
#[allow(clippy::too_many_arguments)]
pub fn compute_proposals_for(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    least_loaded: BucketId,
    vertices: &[DataId],
    workers: usize,
    kernel: GainKernel,
) -> Vec<Option<MoveProposal>> {
    let GainKernel::Scratch = kernel;
    rayon::pool::map_index_with(
        vertices.len(),
        workers,
        || GainScratch::new(partition.num_buckets()),
        |scratch, i| {
            best_move_for_vertex_with(
                objective,
                graph,
                partition,
                nd,
                constraint,
                least_loaded,
                scratch,
                vertices[i],
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use shp_hypergraph::GraphBuilder;

    fn figure1() -> (BipartiteGraph, Partition) {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 5]);
        b.add_query([0u32, 1, 2, 3]);
        b.add_query([3u32, 4, 5]);
        let g = b.build().unwrap();
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        (g, p)
    }

    #[test]
    fn move_gain_matches_objective_difference() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        for v in 0..6u32 {
            for to in 0..2u32 {
                let gain = move_gain(&obj, &g, &p, &nd, v, to);
                let before = obj.evaluate(&g, &p) * g.num_queries() as f64;
                let mut moved = p.clone();
                moved.assign(v, to);
                let after = obj.evaluate(&g, &moved) * g.num_queries() as f64;
                assert!((gain - (before - after)).abs() < 1e-9, "v={v} to={to}");
            }
        }
    }

    #[test]
    fn best_move_prefers_highest_gain_bucket() {
        // Vertex 5 belongs to queries {0,1,5} (two pins in bucket 0) and {3,4,5} (all three in
        // bucket 1). Moving it to bucket 0 helps query 0 but hurts query 2, and vice versa.
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let proposal = best_move_for_vertex(&obj, &g, &p, &nd, &TargetConstraint::all(2), 0, 5)
            .expect("vertex 5 has an admissible target");
        assert_eq!(proposal.from, 1);
        assert_eq!(proposal.to, 0);
        let expected = move_gain(&obj, &g, &p, &nd, 5, 0);
        assert!((proposal.gain - expected).abs() < 1e-12);
    }

    #[test]
    fn all_constraint_explores_untouched_bucket() {
        // With k = 3 and the third bucket empty, the least-loaded bucket (2) must be considered
        // even though no query touches it.
        let (g, _) = figure1();
        let p = Partition::from_assignment(&g, 3, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::Fanout;
        let proposal =
            best_move_for_vertex(&obj, &g, &p, &nd, &TargetConstraint::all(3), 2, 4).unwrap();
        // Vertex 4 only belongs to query {3,4,5}; moving anywhere splits it, so the best gain is
        // non-positive, but a proposal must still exist and consider bucket 2 or 0.
        assert!(proposal.gain <= 0.0);
        assert!(proposal.to == 0 || proposal.to == 2);
    }

    #[test]
    fn sibling_constraint_restricts_targets() {
        let (g, _) = figure1();
        let p = Partition::from_assignment(&g, 4, vec![0, 0, 1, 1, 2, 3]).unwrap();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        // Groups {0,1} and {2,3}: a vertex in bucket 0 may only move to 1, etc.
        let constraint = TargetConstraint::sibling_groups(&[vec![0, 1], vec![2, 3]]);
        for v in 0..6u32 {
            let proposal = best_move_for_vertex(&obj, &g, &p, &nd, &constraint, 0, v).unwrap();
            let expected_to = match p.bucket_of(v) {
                0 => 1,
                1 => 0,
                2 => 3,
                _ => 2,
            };
            assert_eq!(proposal.to, expected_to, "vertex {v}");
        }
    }

    #[test]
    fn compute_proposals_filters_nonpositive_by_default() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let strict = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(2), false, 1);
        assert!(strict.iter().all(|m| m.gain > 0.0));
        let all = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(2), true, 1);
        assert_eq!(
            all.len(),
            6,
            "every vertex proposes when non-positive gains are allowed"
        );
        assert!(all.len() >= strict.len());
    }

    #[test]
    fn proposals_are_deterministic() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let a = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(2), true, 1);
        let b = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(2), true, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn single_bucket_has_no_proposals() {
        let (g, _) = figure1();
        let p = Partition::from_assignment(&g, 1, vec![0; 6]).unwrap();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::Fanout;
        let proposals = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(1), true, 2);
        assert!(proposals.is_empty());
    }

    #[test]
    fn scratch_reuse_across_vertices_does_not_leak_state() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let constraint = TargetConstraint::all(2);
        let mut scratch = GainScratch::new(2);
        // Reusing one scratch sequentially must match fresh-scratch computation per vertex.
        for v in 0..6u32 {
            let reused =
                best_move_for_vertex_with(&obj, &g, &p, &nd, &constraint, 0, &mut scratch, v);
            let fresh = best_move_for_vertex(&obj, &g, &p, &nd, &constraint, 0, v);
            assert_eq!(reused, fresh, "vertex {v}");
        }
    }

    #[test]
    fn compute_proposals_for_matches_full_scan() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let constraint = TargetConstraint::all(2);
        let full = compute_proposals(&obj, &g, &p, &nd, &constraint, true, 1);
        let vertices: Vec<u32> = (0..6).collect();
        let per_vertex = compute_proposals_for(
            &obj,
            &g,
            &p,
            &nd,
            &constraint,
            p.least_loaded_bucket(),
            &vertices,
            2,
            GainKernel::Scratch,
        );
        let flattened: Vec<MoveProposal> = per_vertex.into_iter().flatten().collect();
        assert_eq!(flattened, full);
    }

    #[test]
    fn all_and_sibling_agree_for_two_buckets() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let all = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(2), true, 1);
        let sib = compute_proposals(
            &obj,
            &g,
            &p,
            &nd,
            &TargetConstraint::sibling_groups(&[vec![0, 1]]),
            true,
            1,
        );
        assert_eq!(all.len(), sib.len());
        for (a, s) in all.iter().zip(sib.iter()) {
            assert_eq!(a.vertex, s.vertex);
            assert_eq!(a.to, s.to);
            assert!((a.gain - s.gain).abs() < 1e-12);
        }
    }
}
