//! Checking harnesses shared by the conformance tests that compare a shipped path with an
//! [oracle](crate::oracles) step by step.

use crate::oracles;
use crate::oracles::gains::{proposal_bits, ProposalBits};
use shp_core::gains::{self, GainKernel, MoveProposal, TargetConstraint};
use shp_core::{IterationStats, NeighborData, Refiner};
use shp_hypergraph::{BipartiteGraph, Partition};

/// Refines from `start` with a full gain rescan every iteration ([`Refiner::run_iteration`],
/// a fresh `ActiveSet` each time), stopping like [`Refiner::run`] once the moved fraction drops
/// below `threshold`. Before every iteration it asserts that the scratch kernel's proposal for
/// every vertex equals the hash-map oracle's bit for bit, and after it that the iteration left
/// the partition and `IterationStats` (float bits included) that
/// [`oracles::refinement::run_iteration`] leaves from the same state. So a run equal to this
/// one equals, by induction over the iterations, the pre-cache pipeline that runs the hash-map
/// kernel with a full rescan every iteration.
///
/// `constraint` must be the one `refiner` was built with; `workers` is the worker count the
/// scratch proposals are computed with.
///
/// # Panics
///
/// When the scratch proposals differ from the oracle's before some iteration, or an
/// iteration's outcome differs from the oracle iteration's.
pub fn checked_full_rescan(
    graph: &BipartiteGraph,
    refiner: &Refiner<'_>,
    constraint: &TargetConstraint,
    workers: usize,
    start: &Partition,
    max_iterations: usize,
    threshold: f64,
) -> (Partition, Vec<IterationStats>) {
    let bits = |proposals: Vec<Option<MoveProposal>>| -> Vec<Option<ProposalBits>> {
        proposals
            .iter()
            .map(|p| p.as_ref().map(proposal_bits))
            .collect()
    };
    let mut partition = start.clone();
    let mut nd = NeighborData::build(graph, &partition);
    let vertices: Vec<u32> = graph.data_vertices().collect();
    let mut history = Vec::new();
    for iteration in 0..max_iterations {
        let least_loaded = partition.least_loaded_bucket();
        let scratch = gains::compute_proposals_for(
            refiner.objective(),
            graph,
            &partition,
            &nd,
            constraint,
            least_loaded,
            &vertices,
            workers,
            GainKernel::Scratch,
        );
        let oracle = oracles::gains::compute_proposals_for(
            refiner.objective(),
            graph,
            &partition,
            &nd,
            constraint,
            least_loaded,
            &vertices,
        );
        assert_eq!(
            bits(scratch),
            bits(oracle),
            "iteration {iteration}: scratch proposals diverged from the hash-map kernel"
        );
        let mut oracle_partition = partition.clone();
        let mut oracle_nd = nd.clone();
        let oracle_stats = oracles::refinement::run_iteration(
            graph,
            refiner,
            &mut oracle_partition,
            &mut oracle_nd,
            iteration,
        );
        let stats = refiner.run_iteration(&mut partition, &mut nd, iteration);
        assert_eq!(
            (&partition, stats_bits(&stats)),
            (&oracle_partition, stats_bits(&oracle_stats)),
            "iteration {iteration}: the refiner's iteration diverged from the oracle iteration"
        );
        let converged = stats.moved_fraction < threshold;
        history.push(stats);
        if converged {
            break;
        }
    }
    (partition, history)
}

/// An iteration's statistics with every float as its bits.
fn stats_bits(s: &IterationStats) -> (usize, usize, usize, u64, u64, u64, usize) {
    (
        s.iteration,
        s.candidates,
        s.moved,
        s.moved_fraction.to_bits(),
        s.applied_gain.to_bits(),
        s.fanout_after.to_bits(),
        s.stranded,
    )
}
