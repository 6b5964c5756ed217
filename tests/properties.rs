//! Property-based tests over the public API: invariants that must hold for arbitrary
//! hypergraphs and configurations, checked with proptest.

use proptest::prelude::*;
use shp::core::gains::{self, GainKernel, TargetConstraint};
use shp::core::{
    partition_direct, partition_recursive, BalanceMode, IterationStats, NeighborData, Objective,
    Refiner, ShpConfig, SwapStrategy,
};
use shp::hypergraph::{
    average_fanout, average_p_fanout, io, metrics, weighted_edge_cut, GraphBuilder, Partition,
};
use shp_bench::oracles;
use shp_bench::oracles::gains::{proposal_bits, ProposalBits};

/// Strategy: an arbitrary small hypergraph as a list of hyperedges over up to `max_data`
/// vertices.
fn arb_hypergraph(max_queries: usize, max_data: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(
        prop::collection::vec(0..max_data, 2..8usize),
        1..max_queries,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// p-fanout never exceeds fanout and both are at least 1 for non-empty queries (Section 3.1).
    #[test]
    fn p_fanout_is_a_lower_bound_on_fanout(
        edges in arb_hypergraph(40, 30),
        k in 2u32..6,
        p in 0.05f64..0.95,
        seed in 0u64..1000,
    ) {
        let graph = GraphBuilder::from_hyperedges(edges).unwrap();
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let partition = Partition::new_random(&graph, k, &mut rng as &mut rand_pcg::Pcg64).unwrap();
        let fanout = average_fanout(&graph, &partition);
        let p_fanout = average_p_fanout(&graph, &partition, p);
        prop_assert!(p_fanout <= fanout + 1e-9);
        prop_assert!(fanout >= 1.0 - 1e-9);
    }

    /// The analytic move gain (Equation 1 and its limits) always equals the brute-force
    /// objective difference.
    #[test]
    fn move_gains_match_objective_deltas(
        edges in arb_hypergraph(25, 20),
        k in 2u32..5,
        vertex_choice in 0u32..20,
        target in 0u32..5,
        p in 0.1f64..0.9,
        seed in 0u64..1000,
    ) {
        let graph = GraphBuilder::from_hyperedges(edges).unwrap();
        prop_assume!(graph.num_data() > 0);
        let v = vertex_choice % graph.num_data() as u32;
        let to = target % k;
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let partition = Partition::new_random(&graph, k, &mut rng as &mut rand_pcg::Pcg64).unwrap();
        let nd = NeighborData::build(&graph, &partition);

        for objective in [Objective::PFanout { p }, Objective::Fanout, Objective::CliqueNet] {
            let gain = shp::core::gains::move_gain(&objective, &graph, &partition, &nd, v, to);
            let scale = match objective {
                Objective::CliqueNet => 1.0,
                _ => graph.num_queries() as f64,
            };
            let before = objective.evaluate(&graph, &partition) * scale;
            let mut moved = partition.clone();
            moved.assign(v, to);
            let after = objective.evaluate(&graph, &moved) * scale;
            prop_assert!((gain - (before - after)).abs() < 1e-6,
                "objective {objective:?}: gain {gain} vs delta {}", before - after);
        }
    }

    /// Neighbor data updated incrementally always matches a fresh rebuild. The bucket range
    /// deliberately straddles `apply_move`'s small-fanout threshold (4), so random move
    /// sequences exercise both the linear-scan fast path and the combined binary-search pass,
    /// including the remove-plus-insert rotation in both directions.
    #[test]
    fn neighbor_data_incremental_updates_are_consistent(
        edges in arb_hypergraph(30, 25),
        k in 2u32..12,
        moves in prop::collection::vec((0u32..25, 0u32..12), 1..60),
        seed in 0u64..1000,
    ) {
        let graph = GraphBuilder::from_hyperedges(edges).unwrap();
        prop_assume!(graph.num_data() > 0);
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let mut partition = Partition::new_random(&graph, k, &mut rng as &mut rand_pcg::Pcg64).unwrap();
        let mut nd = NeighborData::build(&graph, &partition);
        for (v_raw, b_raw) in moves {
            let v = v_raw % graph.num_data() as u32;
            let to = b_raw % k;
            let from = partition.bucket_of(v);
            nd.apply_move(&graph, v, from, to);
            partition.assign(v, to);
        }
        prop_assert_eq!(nd, NeighborData::build(&graph, &partition));
    }

    /// Both SHP modes always return complete, correctly sized, non-degrading partitions.
    #[test]
    fn shp_partitions_are_valid_and_never_worse_than_start(
        edges in arb_hypergraph(40, 30),
        k in 2u32..9,
        seed in 0u64..1000,
    ) {
        let graph = GraphBuilder::from_hyperedges(edges).unwrap();
        let recursive = partition_recursive(
            &graph,
            &ShpConfig::recursive_bisection(k).with_seed(seed).with_max_iterations(5),
        ).unwrap();
        let direct = partition_direct(
            &graph,
            &ShpConfig::direct(k).with_seed(seed).with_max_iterations(5),
        ).unwrap();
        for result in [&recursive, &direct] {
            prop_assert_eq!(result.partition.num_buckets(), k);
            prop_assert_eq!(result.partition.num_data(), graph.num_data());
            prop_assert!(result.report.final_fanout >= 1.0 - 1e-9 || graph.num_queries() == 0);
            // Fanout can never exceed the smaller of k and the largest hyperedge.
            let bound = (k as f64).min(graph.max_query_degree() as f64).max(1.0);
            prop_assert!(result.report.final_fanout <= bound + 1e-9);
        }
    }

    /// The weighted edge cut metric equals the clique-net graph's cut for the same partition.
    #[test]
    fn weighted_edge_cut_matches_clique_net_graph(
        edges in arb_hypergraph(25, 20),
        k in 2u32..5,
        seed in 0u64..1000,
    ) {
        let graph = GraphBuilder::from_hyperedges(edges).unwrap();
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let partition = Partition::new_random(&graph, k, &mut rng as &mut rand_pcg::Pcg64).unwrap();
        let clique = shp::hypergraph::CliqueNetGraph::build(&graph, usize::MAX);
        prop_assert_eq!(
            clique.edge_cut(partition.assignment()),
            weighted_edge_cut(&graph, &partition)
        );
    }

    /// The serving router's batches exactly cover each query's distinct ids: every requested
    /// id appears in exactly one batch, on exactly the shard its partition assigns it to, and
    /// the plan's fanout equals the metric-layer fanout of the query.
    #[test]
    fn router_batches_exactly_cover_each_query(
        edges in arb_hypergraph(40, 30),
        k in 2u32..9,
        seed in 0u64..1000,
    ) {
        let graph = GraphBuilder::from_hyperedges(edges).unwrap();
        prop_assume!(graph.num_data() > 0);
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let partition = Partition::new_random(&graph, k, &mut rng as &mut rand_pcg::Pcg64).unwrap();
        let snapshot = shp::serving::PartitionSnapshot::from_partition(&partition, 0).unwrap();
        let router = shp::serving::ShardRouter::new();
        for q in graph.queries() {
            let keys = graph.query_neighbors(q);
            let plan = router.route(&snapshot, keys).unwrap();

            // Batches target pairwise distinct shards, and each key sits on its own shard.
            let shards: Vec<u32> = plan.batches.iter().map(|b| b.shard).collect();
            let mut unique_shards = shards.clone();
            unique_shards.sort_unstable();
            unique_shards.dedup();
            prop_assert_eq!(unique_shards.len(), shards.len());
            for batch in &plan.batches {
                for &key in &batch.keys {
                    prop_assert_eq!(partition.bucket_of(key), batch.shard);
                }
            }

            // The union of the batches is exactly the query's distinct id set — no id dropped,
            // none served twice across shards.
            let mut covered: Vec<u32> =
                plan.batches.iter().flat_map(|b| b.keys.iter().copied()).collect();
            covered.sort_unstable();
            let before_dedup = covered.len();
            covered.dedup();
            prop_assert_eq!(covered.len(), before_dedup);
            let mut expected: Vec<u32> = keys.to_vec();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(covered, expected);

            // Fanout agrees with the metrics layer.
            prop_assert_eq!(plan.fanout(), metrics::query_fanout(&graph, &partition, q));
        }
    }

    /// Fanout histograms are consistent with the scalar metrics.
    #[test]
    fn fanout_histogram_matches_average(
        edges in arb_hypergraph(30, 25),
        k in 2u32..6,
        seed in 0u64..1000,
    ) {
        let graph = GraphBuilder::from_hyperedges(edges).unwrap();
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let partition = Partition::new_random(&graph, k, &mut rng as &mut rand_pcg::Pcg64).unwrap();
        let histogram = metrics::FanoutHistogram::compute(&graph, &partition);
        prop_assert!((histogram.mean() - average_fanout(&graph, &partition)).abs() < 1e-9);
        prop_assert_eq!(histogram.total(), graph.num_queries() as u64);
        prop_assert_eq!(histogram.max() as u32, metrics::max_fanout(&graph, &partition));
    }

    /// The hMetis and `.shpb` formats round-trip arbitrary hypergraphs exactly — including
    /// isolated data vertices, and for `.shpb` the data weights; serialization is
    /// deterministic, and parsing is identical across worker counts and build kernels.
    #[test]
    fn hmetis_and_shpb_roundtrips_preserve_the_graph(
        edges in arb_hypergraph(40, 30),
        weight_seed in 0u32..1000,
    ) {
        let graph = GraphBuilder::from_hyperedges(edges).unwrap();

        let mut hmetis = Vec::new();
        io::write_hmetis(&graph, &mut hmetis).unwrap();
        prop_assert_eq!(&io::read_hmetis(&hmetis[..]).unwrap(), &graph);
        prop_assert_eq!(&oracles::ingest::read_hmetis(&hmetis[..]).unwrap(), &graph);
        for workers in [2usize, 4, 8] {
            prop_assert_eq!(&io::parse_hmetis_bytes(&hmetis, workers).unwrap(), &graph);
        }
        let mut hmetis_again = Vec::new();
        io::write_hmetis(&io::read_hmetis(&hmetis[..]).unwrap(), &mut hmetis_again).unwrap();
        prop_assert_eq!(&hmetis, &hmetis_again, "hmetis writing must be deterministic");

        // `.shpb` additionally carries data weights.
        let weights: Vec<u32> =
            (0..graph.num_data() as u32).map(|v| (v * 7 + weight_seed) % 100 + 1).collect();
        let weighted = graph.clone().with_data_weights(weights).unwrap();
        for g in [&graph, &weighted] {
            let mut binary = Vec::new();
            io::write_shpb(g, &mut binary).unwrap();
            let decoded = io::parse_shpb_bytes(&binary).unwrap();
            prop_assert_eq!(&decoded, g);
            prop_assert_eq!(decoded.has_weights(), g.has_weights());
            let mut binary_again = Vec::new();
            io::write_shpb(&decoded, &mut binary_again).unwrap();
            prop_assert_eq!(&binary, &binary_again, "shpb writing must be deterministic");
        }
    }

    /// The edge-list format stores only the edges, so its round-trip target is the
    /// edge-normalized graph (no empty queries, no trailing isolated data vertices): parsing
    /// a written edge list equals rebuilding from the edge pairs, for every worker count and
    /// both build kernels, and a second write is byte-identical.
    #[test]
    fn edge_list_roundtrip_is_stable_and_kernel_independent(
        edges in arb_hypergraph(40, 30),
    ) {
        let graph = GraphBuilder::from_hyperedges(edges).unwrap();
        let pairs: Vec<(u32, u32)> = graph.edges().collect();
        let normalized = GraphBuilder::from_edge_list(&pairs).unwrap();

        let mut text = Vec::new();
        io::write_edge_list(&graph, &mut text).unwrap();
        let parsed = io::read_edge_list(&text[..]).unwrap();
        prop_assert_eq!(&parsed, &normalized);
        prop_assert_eq!(&oracles::ingest::read_edge_list(&text[..]).unwrap(), &normalized);
        for workers in [2usize, 4, 8] {
            prop_assert_eq!(&io::parse_edge_list_bytes(&text, workers).unwrap(), &normalized);
        }

        let mut text_again = Vec::new();
        io::write_edge_list(&parsed, &mut text_again).unwrap();
        prop_assert_eq!(&text, &text_again, "edge-list writing must be deterministic");
    }
}

proptest! {
    // Eleven independent dimensions: more cases than the block above.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scratch gain kernel proposes exactly what the hash-map kernel of
    /// `shp_bench::oracles::gains` proposes — vertex, from, to and gain bits — on random small
    /// graphs with isolated vertices, under all four objectives (`FinalPFanout` is what SHP-2
    /// runs under sibling constraints at every level but the last), `All` with k at or above
    /// the bucket count or random sibling groups of arity 2–4 (leftover buckets ungrouped), a
    /// least-loaded bucket that is touched, untouched or out of range (`u32::MAX` included),
    /// both proposal filters, and 1–4 workers.
    #[test]
    fn scratch_gain_kernel_matches_the_hash_map_oracle(
        edges in arb_hypergraph(30, 24),
        isolated in 0usize..4,
        k in 2u32..9,
        objective_choice in 0u32..4,
        (p, t) in (0.05f64..0.95, 2u32..9),
        shape in 0usize..4,
        extra_k in 0u32..3,
        least_loaded in 0u32..14,
        include in 0u32..2,
        workers in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut builder = GraphBuilder::new();
        for pins in edges {
            builder.add_query(pins);
        }
        builder.ensure_data_count(builder.num_data() + isolated);
        let graph = builder.build().unwrap();
        let mut rng: rand_pcg::Pcg64 = rand::SeedableRng::seed_from_u64(seed);
        let partition = Partition::new_random(&graph, k, &mut rng).unwrap();
        let nd = NeighborData::build(&graph, &partition);
        let objective = match objective_choice {
            0 => Objective::Fanout,
            1 => Objective::PFanout { p },
            2 => Objective::CliqueNet,
            _ => Objective::FinalPFanout { p, t },
        };
        let constraint = if shape == 0 {
            TargetConstraint::all(k + extra_k)
        } else {
            let mut buckets: Vec<u32> = (0..k).collect();
            rand::seq::SliceRandom::shuffle(&mut buckets[..], &mut rng);
            let groups: Vec<Vec<u32>> =
                buckets.chunks_exact(shape + 1).map(<[u32]>::to_vec).collect();
            TargetConstraint::sibling_groups(&groups)
        };
        let least_loaded = if least_loaded == 13 { u32::MAX } else { least_loaded };
        let include_nonpositive = include == 1;

        let scratch: Vec<ProposalBits> = gains::compute_proposals(
            &objective, &graph, &partition, &nd, &constraint, include_nonpositive, workers,
        )
        .iter()
        .map(proposal_bits)
        .collect();
        let oracle: Vec<ProposalBits> = oracles::gains::compute_proposals(
            &objective, &graph, &partition, &nd, &constraint, include_nonpositive,
        )
        .iter()
        .map(proposal_bits)
        .collect();
        prop_assert_eq!(scratch, oracle);

        let vertices: Vec<u32> = graph.data_vertices().collect();
        let bits = |proposals: Vec<Option<gains::MoveProposal>>| -> Vec<Option<ProposalBits>> {
            proposals.iter().map(|p| p.as_ref().map(proposal_bits)).collect()
        };
        let scratch = gains::compute_proposals_for(
            &objective, &graph, &partition, &nd, &constraint, least_loaded, &vertices, workers,
            GainKernel::Scratch,
        );
        let oracle = oracles::gains::compute_proposals_for(
            &objective, &graph, &partition, &nd, &constraint, least_loaded, &vertices,
        );
        prop_assert_eq!(bits(scratch), bits(oracle));
    }
}

/// Every float of an iteration's statistics as its bits.
fn stats_bits(history: &[IterationStats]) -> Vec<(usize, usize, usize, u64, u64, u64, usize)> {
    history
        .iter()
        .map(|s| {
            (
                s.iteration,
                s.candidates,
                s.moved,
                s.moved_fraction.to_bits(),
                s.applied_gain.to_bits(),
                s.fanout_after.to_bits(),
                s.stranded,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Refiner::run` — cached standings, the least-loaded bucket resolved at assembly, the
    /// vertices without queries handled in bulk, the penalty read inline — leaves exactly the
    /// partition and statistics (float bits included) of the pre-cache oracle iteration
    /// (`shp_bench::oracles::refinement`) run 8 times. The graphs hold vertices without queries
    /// and vertices whose queries lie wholly in their own bucket; the objective is plain
    /// fanout, p-fanout, or p-fanout with a p so small that every touched bucket ties with the
    /// base gain; and the runs cover `All` with k at or above the bucket count, both swap
    /// strategies, both balance modes, imbalanced moves on and off, no penalty or a penalty of
    /// 0 or more against a random previous assignment, and 1–4 workers.
    #[test]
    fn refiner_run_matches_the_oracle_iteration_loop(
        edges in arb_hypergraph(30, 24),
        (isolated, confined) in (0usize..8, 0u32..4),
        buckets in 2u32..6,
        extra_k in 0u32..3,
        objective_choice in 0u32..3,
        mode in 0u32..8,
        penalty_choice in 0u32..3,
        epsilon in 0.05f64..0.6,
        workers in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut builder = GraphBuilder::new();
        for pins in edges {
            builder.add_query(pins);
        }
        // Each confined query gets two fresh vertices, placed in one bucket below.
        let first_confined = builder.num_data() as u32;
        for c in 0..confined {
            builder.add_query([first_confined + 2 * c, first_confined + 2 * c + 1]);
        }
        builder.ensure_data_count(builder.num_data() + isolated);
        let graph = builder.build().unwrap();
        let mut rng: rand_pcg::Pcg64 = rand::SeedableRng::seed_from_u64(seed);
        let random_assignment = |rng: &mut rand_pcg::Pcg64| -> Vec<u32> {
            (0..graph.num_data()).map(|_| rand::Rng::gen_range(rng, 0..buckets)).collect()
        };
        let mut assignment = random_assignment(&mut rng);
        for c in 0..confined {
            let v = (first_confined + 2 * c) as usize;
            assignment[v + 1] = assignment[v];
        }
        let initial = Partition::from_assignment(&graph, buckets, assignment).unwrap();
        let previous = random_assignment(&mut rng);
        let objective = match objective_choice {
            0 => Objective::Fanout,
            1 => Objective::PFanout { p: 0.5 },
            _ => Objective::PFanout { p: 1e-300 },
        };
        let strategy = if mode & 1 == 0 { SwapStrategy::Histogram } else { SwapStrategy::Matrix };
        let balance = if mode & 2 == 0 { BalanceMode::Expectation } else { BalanceMode::Strict };
        let mut refiner = Refiner::new(
            &graph,
            objective,
            TargetConstraint::all(buckets + extra_k),
            strategy,
            balance,
            mode & 4 != 0,
            epsilon,
            seed,
        )
        .with_workers(workers);
        if penalty_choice > 0 {
            let penalty = if penalty_choice == 1 { 0.0 } else { 0.1 + seed as f64 / 1000.0 };
            refiner = refiner.with_movement_penalty(&previous, penalty);
        }

        let mut partition = initial.clone();
        let mut nd = NeighborData::build(&graph, &partition);
        let history = refiner.run(&mut partition, &mut nd, 8, 0.0);
        let mut oracle_partition = initial;
        let mut oracle_nd = NeighborData::build(&graph, &oracle_partition);
        let oracle_history: Vec<IterationStats> = (0..8)
            .map(|it| {
                oracles::refinement::run_iteration(
                    &graph, &refiner, &mut oracle_partition, &mut oracle_nd, it,
                )
            })
            .collect();
        prop_assert_eq!(partition, oracle_partition);
        prop_assert_eq!(stats_bits(&history), stats_bits(&oracle_history));
    }
}
