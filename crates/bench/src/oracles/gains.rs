//! The per-vertex `HashMap` gain kernel: the reference for `shp_core::gains`' scratch kernel.
//!
//! For every data vertex it computes the best target bucket and its gain the direct way —
//! a base gain summed over the vertex's queries, then one hash-map delta per touched bucket,
//! candidates visited in ascending bucket order — which is the visit order the scratch kernel
//! promises to reproduce bit for bit. It runs sequentially, so its output is also the
//! reference for the parallel kernel at every worker count.

use shp_core::{MoveProposal, NeighborData, Objective, TargetConstraint};
use shp_hypergraph::{BipartiteGraph, BucketId, DataId, Partition};
use std::collections::HashMap;

/// A proposal as `(vertex, from, to, gain bits)`, so equality compares the gain bit for bit.
pub type ProposalBits = (DataId, BucketId, BucketId, u64);

/// The bit-exact fingerprint of a proposal.
pub fn proposal_bits(p: &MoveProposal) -> ProposalBits {
    (p.vertex, p.from, p.to, p.gain.to_bits())
}

/// The best move of vertex `v` under `constraint`, or `None` when it has no admissible
/// target. `least_loaded` is the untouched bucket also considered under `All`; a value at or
/// above the constraint's `k` is never proposed.
pub fn best_move_for_vertex(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    least_loaded: BucketId,
    v: DataId,
) -> Option<MoveProposal> {
    let from = partition.bucket_of(v);
    match constraint {
        TargetConstraint::Siblings { allowed } => {
            let targets = allowed.get(from as usize)?;
            let mut best: Option<(BucketId, f64)> = None;
            for &to in targets {
                if to == from {
                    continue;
                }
                let gain: f64 = graph
                    .data_neighbors(v)
                    .iter()
                    .map(|&q| objective.per_query_gain(nd.count(q, from), nd.count(q, to)))
                    .sum();
                best = match best {
                    Some((bb, bg)) if bg > gain || (bg == gain && bb < to) => Some((bb, bg)),
                    _ => Some((to, gain)),
                };
            }
            best.map(|(to, gain)| MoveProposal {
                vertex: v,
                from,
                to,
                gain,
            })
        }
        TargetConstraint::All { k } => {
            if *k <= 1 {
                return None;
            }
            // Gain of moving to a bucket none of v's queries touch.
            let base_gain: f64 = graph
                .data_neighbors(v)
                .iter()
                .map(|&q| objective.per_query_gain(nd.count(q, from), 0))
                .sum();
            // Adjustment for every bucket that at least one adjacent query already touches.
            let mut deltas: HashMap<BucketId, f64> = HashMap::new();
            for &q in graph.data_neighbors(v) {
                let n_from = nd.count(q, from);
                for &(b, c) in nd.nonzero(q) {
                    if b == from {
                        continue;
                    }
                    let adjustment =
                        objective.per_query_gain(n_from, c) - objective.per_query_gain(n_from, 0);
                    *deltas.entry(b).or_insert(0.0) += adjustment;
                }
            }
            let mut best: Option<(BucketId, f64)> = None;
            let mut consider = |to: BucketId, gain: f64| {
                best = match best {
                    Some((bb, bg)) if bg > gain || (bg == gain && bb <= to) => Some((bb, bg)),
                    _ => Some((to, gain)),
                };
            };
            // Iterate candidates in bucket order so results are deterministic across runs
            // (HashMap iteration order is not).
            let mut candidates: Vec<(BucketId, f64)> =
                deltas.iter().map(|(&b, &d)| (b, d)).collect();
            candidates.sort_unstable_by_key(|&(b, _)| b);
            for (b, delta) in candidates {
                consider(b, base_gain + delta);
            }
            // Also consider an untouched bucket (the globally least-loaded one) if admissible.
            if least_loaded != from && !deltas.contains_key(&least_loaded) && least_loaded < *k {
                consider(least_loaded, base_gain);
            }
            best.map(|(to, gain)| MoveProposal {
                vertex: v,
                from,
                to,
                gain,
            })
        }
    }
}

/// Every vertex's best proposal in ascending vertex order, against the partition's
/// least-loaded bucket; strictly improving ones only unless `include_nonpositive`. The
/// reference for `shp_core::gains::compute_proposals`.
pub fn compute_proposals(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    include_nonpositive: bool,
) -> Vec<MoveProposal> {
    let least_loaded = partition.least_loaded_bucket();
    (0..graph.num_data() as DataId)
        .filter_map(|v| {
            best_move_for_vertex(objective, graph, partition, nd, constraint, least_loaded, v)
        })
        .filter(|p| include_nonpositive || p.gain > 0.0)
        .collect()
}

/// The unfiltered best proposal of each vertex in `vertices`, in input order. The reference
/// for `shp_core::gains::compute_proposals_for`.
pub fn compute_proposals_for(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    least_loaded: BucketId,
    vertices: &[DataId],
) -> Vec<Option<MoveProposal>> {
    vertices
        .iter()
        .map(|&v| {
            best_move_for_vertex(objective, graph, partition, nd, constraint, least_loaded, v)
        })
        .collect()
}
