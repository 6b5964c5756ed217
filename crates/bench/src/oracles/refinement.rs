//! The refinement iteration as it ran before standings were cached: the reference for
//! `shp_core::Refiner::run_iteration`.
//!
//! One iteration, the direct way: every vertex's proposal from the hash-map kernel against the
//! current least-loaded bucket, the movement penalty, the gain filter, the swap matrix or
//! `GainHistogramSet::from_proposals`, one `MoveProbabilities::probability` per candidate, the
//! coins, the capacity trim or strict pairing, the imbalanced extras, and the moves.

use crate::oracles::gains;
use shp_core::histogram::GainHistogramSet;
use shp_core::refinement::unit_hash;
use shp_core::swap::{MoveProbabilities, SwapMatrix};
use shp_core::{BalanceMode, IterationStats, MoveProposal, NeighborData, Refiner, SwapStrategy};
use shp_hypergraph::{BipartiteGraph, BucketId, DataId, Partition};
use std::collections::HashMap;

/// Runs one iteration of `refiner`'s Algorithm 1 on `partition` and `nd`, returning its
/// statistics.
pub fn run_iteration(
    graph: &BipartiteGraph,
    refiner: &Refiner<'_>,
    partition: &mut Partition,
    nd: &mut NeighborData,
    iteration: usize,
) -> IterationStats {
    let include_nonpositive = refiner.swap_strategy() == SwapStrategy::Histogram;
    let least_loaded = partition.least_loaded_bucket();
    let vertices: Vec<DataId> = graph.data_vertices().collect();
    let proposals: Vec<MoveProposal> = gains::compute_proposals_for(
        refiner.objective(),
        graph,
        partition,
        nd,
        refiner.constraint(),
        least_loaded,
        &vertices,
    )
    .into_iter()
    .flatten()
    .map(|mut p| {
        if let Some((previous, penalty)) = refiner.movement_penalty() {
            if p.to != previous[p.vertex as usize] {
                p.gain -= penalty;
            }
        }
        p
    })
    .filter(|p| include_nonpositive || p.gain > 0.0)
    .collect();

    let probabilities = match refiner.swap_strategy() {
        SwapStrategy::Matrix => SwapMatrix::from_proposals(&proposals).move_probabilities(),
        SwapStrategy::Histogram => {
            MoveProbabilities::from_histograms(&GainHistogramSet::from_proposals(&proposals))
        }
    };

    let mut selected = Vec::new();
    let mut unselected_positive = Vec::new();
    let mut stranded = 0;
    for p in &proposals {
        let prob = probabilities.probability(p);
        if prob > 0.0 && unit_hash(refiner.seed(), iteration as u64, p.vertex as u64) < prob {
            selected.push(*p);
        } else if p.gain > 0.0 {
            unselected_positive.push(*p);
            if prob == 0.0 {
                stranded += 1;
            }
        }
    }

    let mut selected = match refiner.balance_mode() {
        BalanceMode::Strict => strict_pairing(selected),
        BalanceMode::Expectation => capacity_trim(partition, selected, refiner.epsilon()),
    };
    if refiner.allows_imbalanced_moves() {
        let extra = imbalanced_extras(
            partition,
            &selected,
            &mut unselected_positive,
            refiner.epsilon(),
        );
        selected.extend(extra);
    }

    let mut applied_gain = 0.0;
    for p in &selected {
        partition.assign(p.vertex, p.to);
        nd.apply_move(graph, p.vertex, p.from, p.to);
        applied_gain += p.gain;
    }
    IterationStats {
        iteration,
        candidates: proposals.len(),
        moved: selected.len(),
        moved_fraction: selected.len() as f64 / graph.num_data().max(1) as f64,
        applied_gain,
        fanout_after: nd.average_fanout(),
        stranded,
    }
}

/// Sorts moves by descending gain, keeping the order of equal gains.
fn by_gain(moves: &mut [MoveProposal]) {
    moves.sort_by(|a, b| {
        b.gain
            .partial_cmp(&a.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// Per unordered bucket pair, keeps the best `m` moves of each direction, `m` the smaller
/// direction's count; pairs in ascending order, forward moves before backward ones.
fn strict_pairing(selected: Vec<MoveProposal>) -> Vec<MoveProposal> {
    type Directions = (Vec<MoveProposal>, Vec<MoveProposal>);
    let mut by_pair: HashMap<(BucketId, BucketId), Directions> = HashMap::new();
    for p in selected {
        let key = (p.from.min(p.to), p.from.max(p.to));
        let entry = by_pair.entry(key).or_default();
        if p.from == key.0 {
            entry.0.push(p);
        } else {
            entry.1.push(p);
        }
    }
    let mut keys: Vec<_> = by_pair.keys().copied().collect();
    keys.sort_unstable();
    let mut result = Vec::new();
    for key in keys {
        let (mut forward, mut backward) = by_pair.remove(&key).expect("key exists");
        by_gain(&mut forward);
        by_gain(&mut backward);
        let m = forward.len().min(backward.len());
        result.extend(forward.into_iter().take(m));
        result.extend(backward.into_iter().take(m));
    }
    result
}

/// In descending gain order, keeps each move whose target stays within the capacity (at least
/// the ideal weight plus one), given the moves kept before it.
fn capacity_trim(
    partition: &Partition,
    mut selected: Vec<MoveProposal>,
    epsilon: f64,
) -> Vec<MoveProposal> {
    let ideal = (partition.total_weight() as f64 / partition.num_buckets() as f64).ceil() as u64;
    let cap = partition.max_allowed_weight(epsilon).max(ideal + 1);
    by_gain(&mut selected);
    let mut weights = partition.bucket_weights().to_vec();
    let mut kept = Vec::new();
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

/// In descending gain order, the unselected improving moves whose target stays within the
/// `(1 + ε)` capacity after the selected moves and the extras before them.
fn imbalanced_extras(
    partition: &Partition,
    selected: &[MoveProposal],
    candidates: &mut [MoveProposal],
    epsilon: f64,
) -> Vec<MoveProposal> {
    let cap = partition.max_allowed_weight(epsilon);
    let mut weights = partition.bucket_weights().to_vec();
    for p in selected {
        let w = partition.vertex_weight(p.vertex);
        weights[p.from as usize] -= w;
        weights[p.to as usize] += w;
    }
    by_gain(candidates);
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
