//! Worker-count conformance suite: parallel execution must never change results.
//!
//! The rayon shim distributes the SHP hot paths (gain computation, neighbor-data and
//! gain-histogram construction, clique-net build, BSP superstep compute) over real scoped
//! threads with ordered chunk reduction. This suite locks in the resulting contract:
//!
//! * every registry algorithm produces a **bit-identical** `PartitionOutcome` (assignment,
//!   fanout/p-fanout/imbalance bits, iteration and move counts) for `workers ∈ {1, 2, 4, 8}`
//!   on fixed-seed planted-partition and power-law graphs;
//! * the chunking primitive exactly covers the index space, in order, with no overlap, and
//!   the ordered reduction equals the sequential scan for arbitrary `(len, workers)`;
//! * the thread pool survives panicking tasks without deadlocking.
//!
//! `SHP_TEST_WORKERS` (see CI's multi-threaded job) adds an extra worker count to every
//! comparison, so a single-threaded default run cannot mask races: the same tests re-run with
//! the pool actually engaged.

use proptest::prelude::*;
use shp::baselines::full_registry;
use shp::core::api::{NoopObserver, PartitionOutcome, PartitionSpec, TraceObserver};
use shp::core::gains::{self, TargetConstraint};
use shp::core::{
    partition_direct, BalanceMode, NeighborData, Objective, Refiner, ShpConfig, SwapStrategy,
};
use shp::datagen::{planted_partition, power_law_bipartite, PlantedConfig, PowerLawConfig};
use shp::hypergraph::{BipartiteGraph, GraphBuilder, Partition};
use shp_bench::conformance::checked_full_rescan;
use shp_bench::oracles;
use shp_bench::oracles::gains::{proposal_bits, ProposalBits};

/// Worker counts every comparison runs at: the fixed `{1, 2, 4, 8}` ladder plus the value of
/// `SHP_TEST_WORKERS` when set (deduplicated), so the CI matrix can force extra counts.
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, 8];
    if let Some(extra) = std::env::var("SHP_TEST_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&w| w >= 1)
    {
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

fn planted_graph() -> BipartiteGraph {
    planted_partition(&PlantedConfig {
        num_blocks: 4,
        block_size: 128,
        num_queries: 1_536,
        query_degree: 5,
        noise: 0.08,
        seed: 0x5047,
    })
    .0
}

fn power_law_graph() -> BipartiteGraph {
    power_law_bipartite(&PowerLawConfig {
        num_queries: 1_200,
        num_data: 900,
        min_degree: 2,
        max_degree: 40,
        seed: 0x5047,
        ..Default::default()
    })
}

/// The exact-equality fingerprint of an outcome. Floats are compared by bit pattern — "close
/// enough" would hide reduction-order differences, which are precisely the bug class this
/// suite exists to catch.
type Fingerprint = (Vec<u32>, u64, u64, u64, usize, u64);

/// A [`Fingerprint`] plus the observer's trace event stream — everything a run exposes.
type TracedFingerprint = (Fingerprint, Vec<(usize, usize, u64)>);

fn fingerprint(outcome: &PartitionOutcome) -> Fingerprint {
    (
        outcome.partition.assignment().to_vec(),
        outcome.fanout.to_bits(),
        outcome.p_fanout.to_bits(),
        outcome.imbalance.to_bits(),
        outcome.iterations,
        outcome.moves,
    )
}

/// Every registry algorithm, on both fixed-seed graphs, must produce bit-identical outcomes
/// for every worker count.
#[test]
fn all_registry_algorithms_are_bit_identical_across_worker_counts() {
    let registry = full_registry();
    let counts = worker_counts();
    for (graph_name, graph, k) in [
        ("planted", planted_graph(), 4u32),
        ("power-law", power_law_graph(), 8u32),
    ] {
        for name in registry.names() {
            let mut baseline: Option<(Vec<u32>, u64, u64, u64, usize, u64)> = None;
            for &workers in &counts {
                let spec = PartitionSpec::new(k)
                    .with_seed(0x5047)
                    .with_max_iterations(4)
                    .with_workers(workers);
                let outcome = registry
                    .run(&name, &graph, &spec, &mut NoopObserver)
                    .expect("registered algorithm on a valid spec");
                let fp = fingerprint(&outcome);
                match &baseline {
                    None => baseline = Some(fp),
                    Some(expected) => assert_eq!(
                        &fp, expected,
                        "{name} on {graph_name}: outcome diverged at workers={workers}"
                    ),
                }
            }
        }
    }
}

/// The per-iteration trace (the observable refinement history) must also be independent of
/// the worker count, not just the final partition.
#[test]
fn iteration_traces_are_identical_across_worker_counts() {
    let graph = planted_graph();
    for name in ["shpk", "shp2", "distributed"] {
        let registry = full_registry();
        let mut baseline: Option<Vec<(usize, usize, u64)>> = None;
        for workers in worker_counts() {
            let spec = PartitionSpec::new(4)
                .with_seed(7)
                .with_max_iterations(5)
                .with_workers(workers);
            let mut trace = TraceObserver::default();
            registry
                .run(name, &graph, &spec, &mut trace)
                .expect("valid spec");
            let events: Vec<(usize, usize, u64)> = trace
                .iterations
                .iter()
                .map(|e| (e.iteration, e.moved, e.fanout.to_bits()))
                .collect();
            match &baseline {
                None => baseline = Some(events),
                Some(expected) => assert_eq!(
                    &events, expected,
                    "{name}: iteration trace diverged at workers={workers}"
                ),
            }
        }
    }
}

/// Scratch-vs-legacy gain-kernel oracle: on both fixed-seed graphs, under both constraint
/// shapes, the dense-scratch kernel must emit a **bit-identical** `MoveProposal` list
/// (vertices, buckets, and gain float bits) to the hash-map kernel of
/// `shp_bench::oracles::gains`, for every worker count and with non-positive proposals both
/// included and excluded.
#[test]
fn scratch_kernel_proposals_are_bit_identical_to_legacy() {
    for (graph_name, graph, k) in [
        ("planted", planted_graph(), 4u32),
        ("power-law", power_law_graph(), 8u32),
    ] {
        let mut rng = rand::SeedableRng::seed_from_u64(0x5047);
        let partition = Partition::new_random(&graph, k, &mut rng as &mut rand_pcg::Pcg64).unwrap();
        let nd = NeighborData::build(&graph, &partition);
        let objective = Objective::PFanout { p: 0.5 };
        let sibling_groups: Vec<Vec<u32>> = (0..k / 2).map(|g| vec![2 * g, 2 * g + 1]).collect();
        for constraint in [
            TargetConstraint::all(k),
            TargetConstraint::sibling_groups(&sibling_groups),
        ] {
            for include_nonpositive in [false, true] {
                let expected: Vec<ProposalBits> = oracles::gains::compute_proposals(
                    &objective,
                    &graph,
                    &partition,
                    &nd,
                    &constraint,
                    include_nonpositive,
                )
                .iter()
                .map(proposal_bits)
                .collect();
                for &workers in &worker_counts() {
                    let proposals: Vec<ProposalBits> = gains::compute_proposals(
                        &objective,
                        &graph,
                        &partition,
                        &nd,
                        &constraint,
                        include_nonpositive,
                        workers,
                    )
                    .iter()
                    .map(proposal_bits)
                    .collect();
                    assert_eq!(
                        proposals, expected,
                        "{graph_name}: scratch kernel diverged at workers={workers}, \
                         include_nonpositive={include_nonpositive}"
                    );
                }
            }
        }
    }
}

/// Dirty-set-vs-full-rescan oracle over complete refinement runs: for both graphs, both swap
/// strategies, and every worker count, the shipped pipeline (scratch kernel + dirty-vertex
/// active set, [`Refiner::run`]) must reproduce a full rescan every iteration exactly —
/// partitions equal, per-iteration stats equal including float bits — and that full rescan's
/// proposals must equal the hash-map oracle's before every iteration ([`checked_full_rescan`]).
#[test]
fn dirty_set_refinement_is_bit_identical_to_legacy_full_rescan() {
    for (graph_name, graph, k) in [
        ("planted", planted_graph(), 4u32),
        ("power-law", power_law_graph(), 8u32),
    ] {
        for strategy in [SwapStrategy::Matrix, SwapStrategy::Histogram] {
            let mut rng = rand::SeedableRng::seed_from_u64(77);
            let initial =
                Partition::new_random(&graph, k, &mut rng as &mut rand_pcg::Pcg64).unwrap();
            let constraint = TargetConstraint::all(k);
            type RunFingerprint = (Partition, Vec<(usize, usize, u64, u64)>);
            let mut baseline: Option<RunFingerprint> = None;
            for &workers in &worker_counts() {
                let refiner = Refiner::new(
                    &graph,
                    Objective::PFanout { p: 0.5 },
                    constraint.clone(),
                    strategy,
                    BalanceMode::Expectation,
                    false,
                    0.05,
                    77,
                )
                .with_workers(workers);
                let dirty = {
                    let mut partition = initial.clone();
                    let mut nd = NeighborData::build(&graph, &partition);
                    let history = refiner.run(&mut partition, &mut nd, 6, 0.0);
                    (partition, history)
                };
                let full =
                    checked_full_rescan(&graph, &refiner, &constraint, workers, &initial, 6, 0.0);
                for (path, (partition, history)) in [("dirty set", dirty), ("full rescan", full)] {
                    let stats: Vec<(usize, usize, u64, u64)> = history
                        .iter()
                        .map(|s| {
                            (
                                s.candidates,
                                s.moved,
                                s.applied_gain.to_bits(),
                                s.fanout_after.to_bits(),
                            )
                        })
                        .collect();
                    match &baseline {
                        None => baseline = Some((partition, stats)),
                        Some((p, st)) => {
                            assert_eq!(
                                &partition, p,
                                "{graph_name}/{strategy:?}: partition diverged \
                                 (workers={workers}, {path})"
                            );
                            assert_eq!(
                                &stats, st,
                                "{graph_name}/{strategy:?}: stats diverged \
                                 (workers={workers}, {path})"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Registry-level oracle for the shared refinement engine: the public `shpk` entry point
/// (scratch kernel + dirty set, as shipped) must produce exactly the partition that a full
/// rescan every iteration produces when run step-by-step from the same seeded initial
/// partition, with the hash-map oracle's proposals before every iteration.
#[test]
fn shpk_outcome_equals_manually_run_legacy_pipeline() {
    let graph = planted_graph();
    let config = ShpConfig::direct(4)
        .with_seed(0x5047)
        .with_max_iterations(5);
    let new_path = partition_direct(&graph, &config).expect("valid config");

    // Reconstruct partition_direct by hand with checked full rescans.
    let mut rng = rand::SeedableRng::seed_from_u64(0x5047);
    let initial = Partition::new_random(&graph, 4, &mut rng as &mut rand_pcg::Pcg64).unwrap();
    let constraint = TargetConstraint::all(4);
    let refiner = Refiner::new(
        &graph,
        Objective::PFanout { p: 0.5 },
        constraint.clone(),
        config.swap_strategy,
        config.balance_mode,
        config.allow_imbalanced_moves,
        config.epsilon,
        config.seed,
    );
    let (partition, history) = checked_full_rescan(
        &graph,
        &refiner,
        &constraint,
        1,
        &initial,
        config.max_iterations,
        config.convergence_threshold,
    );

    assert_eq!(new_path.partition, partition);
    assert_eq!(new_path.report.history.len(), history.len());
    for (a, b) in new_path.report.history.iter().zip(history.iter()) {
        assert_eq!(a.moved, b.moved);
        assert_eq!(a.applied_gain.to_bits(), b.applied_gain.to_bits());
    }
}

/// Telemetry must be write-only: with instrumentation enabled or disabled, every registry
/// algorithm must produce a bit-identical outcome **and** iteration trace for every worker
/// count. Spans, counters, and histograms observe the phases; nothing they do may feed back
/// into a partitioning decision.
///
/// The enabled flag is process-global, so this test toggles it while sibling tests run — which
/// is itself part of the contract: flipping telemetry mid-flight must be invisible to every
/// algorithm in this binary.
#[test]
fn telemetry_toggle_never_changes_any_algorithm_outcome() {
    let registry = full_registry();
    let graph = planted_graph();
    for name in registry.names() {
        let mut baseline: Option<TracedFingerprint> = None;
        for &workers in &worker_counts() {
            for enabled in [true, false] {
                shp::telemetry::set_enabled(enabled);
                let spec = PartitionSpec::new(4)
                    .with_seed(0x5047)
                    .with_max_iterations(4)
                    .with_workers(workers);
                let mut trace = TraceObserver::default();
                let outcome = registry
                    .run(&name, &graph, &spec, &mut trace)
                    .expect("registered algorithm on a valid spec");
                let events: Vec<(usize, usize, u64)> = trace
                    .iterations
                    .iter()
                    .map(|e| (e.iteration, e.moved, e.fanout.to_bits()))
                    .collect();
                let fp = (fingerprint(&outcome), events);
                match &baseline {
                    None => baseline = Some(fp),
                    Some(expected) => assert_eq!(
                        &fp, expected,
                        "{name}: outcome diverged at workers={workers}, telemetry={enabled}"
                    ),
                }
            }
        }
    }
    shp::telemetry::set_enabled(true);
}

/// A panicking task must propagate to the caller without deadlocking, and the pool must stay
/// usable afterwards — including under repeated failure/recovery cycles and with several
/// panicking chunks at once.
#[test]
fn thread_pool_survives_panicking_tasks_without_deadlocking() {
    for round in 0..5 {
        let caught = std::panic::catch_unwind(|| {
            rayon::pool::map_index(4_096, 8, |i| {
                // Multiple chunks panic: one task near the front and one near the back.
                if i == 100 || i == 4_000 {
                    panic!("injected failure {i} in round {round}");
                }
                i as u64
            })
        });
        assert!(caught.is_err(), "round {round}: the panic must propagate");

        // The pool holds no poisoned global state: the next calls work and stay correct.
        let ok = rayon::pool::map_index(4_096, 8, |i| i as u64);
        assert_eq!(ok.len(), 4_096);
        assert!(ok.iter().enumerate().all(|(i, &x)| x == i as u64));
    }
}

/// Same guarantee for the coarse-unit scheduler used by the BSP engine and the serving
/// scatter-gather path.
#[test]
fn map_vec_propagates_panics_and_recovers() {
    let caught = std::panic::catch_unwind(|| {
        rayon::pool::map_vec((0..8u32).collect::<Vec<_>>(), 8, |_, x| {
            if x == 5 {
                panic!("injected worker failure");
            }
            x * 2
        })
    });
    assert!(caught.is_err());
    let ok = rayon::pool::map_vec((0..8u32).collect::<Vec<_>>(), 8, |_, x| x * 2);
    assert_eq!(ok, vec![0, 2, 4, 6, 8, 10, 12, 14]);
}

// ---------------------------------------------------------------------------------------------
// Ingestion: the zero-copy parallel parsers and the flat-arena CSR build
// ---------------------------------------------------------------------------------------------

/// Renders the conformance graphs in both text formats for the parse comparisons.
fn ingest_fixtures() -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    [
        ("planted", planted_graph()),
        ("power_law", power_law_graph()),
    ]
    .into_iter()
    .map(|(name, graph)| {
        let mut edge_list = Vec::new();
        shp::hypergraph::io::write_edge_list(&graph, &mut edge_list).unwrap();
        let mut hmetis = Vec::new();
        shp::hypergraph::io::write_hmetis(&graph, &mut hmetis).unwrap();
        (name, edge_list, hmetis)
    })
    .collect()
}

/// The zero-copy chunked parsers must produce **byte-identical graphs** to the per-line
/// `String` readers of `shp_bench::oracles::ingest` (with their per-query-`Vec` CSR build) for
/// every worker count, on both text formats.
#[test]
fn parallel_parsing_is_bit_identical_to_the_legacy_readers() {
    use shp::hypergraph::io;
    for (name, edge_list, hmetis) in ingest_fixtures() {
        let edge_oracle = oracles::ingest::read_edge_list(&edge_list[..]).unwrap();
        let hmetis_oracle = oracles::ingest::read_hmetis(&hmetis[..]).unwrap();
        for workers in worker_counts() {
            assert_eq!(
                io::parse_edge_list_bytes(&edge_list, workers).unwrap(),
                edge_oracle,
                "{name}: edge-list parse diverged at workers={workers}"
            );
            assert_eq!(
                io::parse_hmetis_bytes(&hmetis, workers).unwrap(),
                hmetis_oracle,
                "{name}: hmetis parse diverged at workers={workers}"
            );
        }
    }
}

/// On malformed input, every worker count must report the **same `GraphError::Parse` line
/// number and message** as the sequential per-line reader — chunked parsing merges results in
/// chunk order precisely so errors stay deterministic.
#[test]
fn parallel_parse_errors_carry_identical_line_numbers() {
    use shp::hypergraph::io;
    use shp::hypergraph::GraphError;

    let parse_failure = |result: Result<(), GraphError>, context: &str| -> (usize, String) {
        match result {
            Err(GraphError::Parse { line, message }) => (line, message),
            other => panic!("{context}: expected a parse error, got {other:?}"),
        }
    };

    for (name, mut edge_list, mut hmetis) in ingest_fixtures() {
        // Corrupt a line roughly 70% in, so at higher worker counts the bad line sits in the
        // middle of a later chunk, after blank and comment lines have skewed naive counting.
        let corrupt = |bytes: &mut Vec<u8>, payload: &[u8]| {
            let newlines: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| (b == b'\n').then_some(i))
                .collect();
            let at = newlines[newlines.len() * 7 / 10];
            bytes.splice(
                at..at,
                b"\n# note\n\n"
                    .iter()
                    .copied()
                    .chain(payload.iter().copied()),
            );
        };
        corrupt(&mut edge_list, b"12 oops extra");
        corrupt(&mut hmetis, b"7 0 3");

        let edge_expected = parse_failure(
            oracles::ingest::read_edge_list(&edge_list[..]).map(drop),
            &format!("{name}: legacy edge list"),
        );
        let hmetis_expected = parse_failure(
            oracles::ingest::read_hmetis(&hmetis[..]).map(drop),
            &format!("{name}: legacy hmetis"),
        );
        for workers in worker_counts() {
            assert_eq!(
                parse_failure(
                    io::parse_edge_list_bytes(&edge_list, workers).map(drop),
                    &format!("{name}: edge list workers={workers}"),
                ),
                edge_expected,
                "{name}: edge-list error diverged at workers={workers}"
            );
            assert_eq!(
                parse_failure(
                    io::parse_hmetis_bytes(&hmetis, workers).map(drop),
                    &format!("{name}: hmetis workers={workers}"),
                ),
                hmetis_expected,
                "{name}: hmetis error diverged at workers={workers}"
            );
        }
    }
}

/// The flat-arena builder's parallel CSR assembly (counting-sort + partitioned transpose)
/// must be bit-identical across worker counts and to the per-query-`Vec` build of
/// `shp_bench::oracles::ingest`.
#[test]
fn flat_builder_csr_is_bit_identical_across_workers_and_kernels() {
    use shp_bench::oracles::ingest::ReferenceBuilder;
    let source = power_law_graph();
    let oracle = {
        let mut b = ReferenceBuilder::new();
        for q in source.queries() {
            b.add_query(source.query_neighbors(q).iter().copied());
        }
        b.ensure_data_count(source.num_data());
        b.build().unwrap()
    };
    assert_eq!(oracle, source);
    for workers in worker_counts() {
        let mut b = GraphBuilder::new().with_workers(workers);
        for q in source.queries() {
            b.add_query_slice(source.query_neighbors(q));
        }
        b.ensure_data_count(source.num_data());
        assert_eq!(
            b.build().unwrap(),
            oracle,
            "flat build diverged at workers={workers}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chunking primitive: for arbitrary `(len, workers)` the ranges are contiguous,
    /// ascending, non-overlapping, balanced to within one item, and exactly cover `0..len`.
    #[test]
    fn chunk_ranges_exactly_cover_the_index_space(len in 0usize..10_000, workers in 1usize..64) {
        let ranges = rayon::pool::chunk_ranges(len, workers);
        prop_assert!(ranges.len() <= workers.max(1));
        let mut cursor = 0usize;
        let mut sizes = Vec::with_capacity(ranges.len());
        for r in &ranges {
            prop_assert_eq!(r.start, cursor, "ranges must be contiguous and ascending");
            prop_assert!(r.end > r.start, "ranges must be non-empty");
            sizes.push(r.end - r.start);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, len, "ranges must cover 0..len exactly");
        if let (Some(&min), Some(&max)) = (sizes.iter().min(), sizes.iter().max()) {
            prop_assert!(max - min <= 1, "chunk sizes must be balanced: {:?}", sizes);
        }
    }

    /// Ordered reduction: the parallel map/filter-map equals the sequential scan for arbitrary
    /// `(len, workers)` — order preserved, nothing lost, nothing duplicated.
    #[test]
    fn ordered_reduction_equals_the_sequential_scan(len in 0usize..4_096, workers in 1usize..16) {
        let mapped = rayon::pool::map_index(len, workers, |i| i as u64 * 3 + 1);
        let expected: Vec<u64> = (0..len as u64).map(|i| i * 3 + 1).collect();
        prop_assert_eq!(mapped, expected);

        let filtered = rayon::pool::filter_map_index(len, workers, |i| (i % 3 == 0).then_some(i));
        let expected: Vec<usize> = (0..len).filter(|i| i % 3 == 0).collect();
        prop_assert_eq!(filtered, expected);
    }
}
