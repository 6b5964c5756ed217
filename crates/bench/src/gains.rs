//! Checks `shp_core::gains`' dense scratch kernel against the hash-map kernel of
//! [`crate::oracles::gains`].

mod tests {
    use crate::oracles;
    use shp_core::gains::{self, best_move_for_vertex, TargetConstraint};
    use shp_core::{NeighborData, Objective};
    use shp_hypergraph::{GraphBuilder, Partition};

    #[test]
    fn scratch_kernel_is_bit_identical_to_legacy_kernel() {
        // Random-ish graph with enough structure to hit every kernel branch: touched and
        // untouched least-loaded buckets, ties, isolated vertices.
        let mut b = GraphBuilder::new();
        for q in 0..40u32 {
            let base = (q * 7) % 50;
            b.add_query([base, (base + 3) % 50, (base + 11) % 50, (base + 19) % 50]);
        }
        b.ensure_data_count(55); // vertices 50..55 are isolated
        let g = b.build().unwrap();
        let assignment: Vec<u32> = (0..55).map(|v| (v * 13) % 6).collect();
        let p = Partition::from_assignment(&g, 6, assignment).unwrap();
        let nd = NeighborData::build(&g, &p);
        for obj in [
            Objective::Fanout,
            Objective::PFanout { p: 0.5 },
            Objective::CliqueNet,
        ] {
            for constraint in [
                TargetConstraint::all(6),
                TargetConstraint::sibling_groups(&[vec![0, 1, 2], vec![3, 4, 5]]),
            ] {
                for include in [false, true] {
                    let legacy =
                        oracles::gains::compute_proposals(&obj, &g, &p, &nd, &constraint, include);
                    for workers in [1usize, 2, 4] {
                        let scratch = gains::compute_proposals(
                            &obj,
                            &g,
                            &p,
                            &nd,
                            &constraint,
                            include,
                            workers,
                        );
                        assert_eq!(scratch.len(), legacy.len());
                        for (s, l) in scratch.iter().zip(legacy.iter()) {
                            assert_eq!(s.vertex, l.vertex);
                            assert_eq!(s.from, l.from);
                            assert_eq!(s.to, l.to);
                            assert_eq!(
                                s.gain.to_bits(),
                                l.gain.to_bits(),
                                "gain bits diverged for vertex {} ({obj:?})",
                                s.vertex
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_least_loaded_degrades_like_legacy_instead_of_panicking() {
        // The constraint's k may legitimately exceed the partition's bucket count (and thus
        // the scratch size); a caller-supplied least_loaded in that gap must be filtered by
        // the `< k` guard on both kernels, never panic on the scratch mark index.
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 5]);
        b.add_query([0u32, 1, 2, 3]);
        b.add_query([3u32, 4, 5]);
        let g = b.build().unwrap();
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let constraint = TargetConstraint::all(5); // partition only has 2 buckets
        for least_loaded in [2u32, 4, 7, u32::MAX] {
            for v in 0..6u32 {
                let scratch = best_move_for_vertex(&obj, &g, &p, &nd, &constraint, least_loaded, v);
                let legacy = oracles::gains::best_move_for_vertex(
                    &obj,
                    &g,
                    &p,
                    &nd,
                    &constraint,
                    least_loaded,
                    v,
                );
                assert_eq!(scratch, legacy, "v={v} least_loaded={least_loaded}");
            }
        }
    }
}
