//! Checks `shp_core::Refiner`'s dirty-set pipeline against a full rescan every iteration whose
//! proposals are checked against [`crate::oracles::gains`].

mod tests {
    use crate::conformance::checked_full_rescan;
    use rand::SeedableRng;
    use rand_pcg::Pcg64;
    use shp_core::{BalanceMode, NeighborData, Objective, Refiner, SwapStrategy, TargetConstraint};
    use shp_hypergraph::{BipartiteGraph, GraphBuilder, Partition};

    /// `groups` cliques of `size` members, every member querying its whole clique, plus a few
    /// cross-group queries.
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
    fn dirty_set_and_scratch_kernel_match_legacy_full_rescan_bit_for_bit() {
        // The complete oracle: the optimized pipeline (scratch kernel + dirty-vertex active
        // set) must reproduce the pre-optimization pipeline (hash-map kernel + full rescan
        // every iteration) exactly — same partitions, same stats including float bit patterns.
        // Checked in two steps: the dirty-set run equals a full rescan every iteration, and
        // that rescan's proposals equal the hash-map kernel's before every iteration.
        let graph = community_graph(5, 7);
        for strategy in [SwapStrategy::Matrix, SwapStrategy::Histogram] {
            for constraint in [
                TargetConstraint::all(4),
                TargetConstraint::sibling_groups(&[vec![0, 1], vec![2, 3]]),
            ] {
                let mut rng = Pcg64::seed_from_u64(21);
                let initial = Partition::new_random(&graph, 4, &mut rng).unwrap();
                let refiner = Refiner::new(
                    &graph,
                    Objective::PFanout { p: 0.5 },
                    constraint.clone(),
                    strategy,
                    BalanceMode::Expectation,
                    false,
                    0.05,
                    21,
                );

                let (p_new, h_new) = {
                    let mut partition = initial.clone();
                    let mut nd = NeighborData::build(&graph, &partition);
                    let history = refiner.run(&mut partition, &mut nd, 12, 0.0);
                    (partition, history)
                };
                let (p_old, h_old) =
                    checked_full_rescan(&graph, &refiner, &constraint, 1, &initial, 12, 0.0);
                assert_eq!(
                    p_new, p_old,
                    "{strategy:?}/{constraint:?}: partitions diverged"
                );
                assert_eq!(h_new.len(), h_old.len());
                for (a, b) in h_new.iter().zip(h_old.iter()) {
                    assert_eq!(a.candidates, b.candidates);
                    assert_eq!(a.moved, b.moved);
                    assert_eq!(
                        a.applied_gain.to_bits(),
                        b.applied_gain.to_bits(),
                        "{strategy:?}/{constraint:?} iteration {}",
                        a.iteration
                    );
                    assert_eq!(a.fanout_after.to_bits(), b.fanout_after.to_bits());
                }
            }
        }
    }
}
