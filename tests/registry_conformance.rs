//! Registry conformance suite: every algorithm in the workspace registry must honor the
//! contract of the unified `Partitioner` trait — full coverage of the vertex set, the spec's
//! `ε` balance bound, and determinism for a fixed seed — on arbitrary small hypergraphs.

use proptest::prelude::*;
use shp::baselines::full_registry;
use shp::core::api::{NoopObserver, PartitionSpec, TraceObserver};
use shp::datagen::{planted_partition, PlantedConfig};
use shp::hypergraph::GraphBuilder;

/// Strategy: an arbitrary small hypergraph as a list of hyperedges over up to `max_data`
/// vertices.
fn arb_hypergraph(max_queries: usize, max_data: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(
        prop::collection::vec(0..max_data, 2..6usize),
        1..max_queries,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract checks for every registered algorithm on one random graph/spec draw:
    /// the outcome covers every data vertex exactly once with an in-range bucket, satisfies
    /// the `ε` capacity bound of the spec, and is identical across two runs with equal specs.
    /// Half the draws ask for more buckets than there are data vertices: with `ε < 1` the
    /// capacity is then one vertex per bucket, so `k − |D|` buckets stay empty.
    #[test]
    fn every_registered_algorithm_honors_the_unified_contract(
        edges in arb_hypergraph(24, 24),
        small_k in 2u32..5,
        beyond in 0u32..2,
        excess in 1u32..40,
        epsilon in 0.0f64..0.3,
        seed in 0u64..1_000,
    ) {
        let graph = GraphBuilder::from_hyperedges(edges).unwrap();
        let k = if beyond == 1 {
            graph.num_data() as u32 + excess
        } else {
            small_k
        };
        let registry = full_registry();
        let spec = PartitionSpec::new(k)
            .with_epsilon(epsilon)
            .with_seed(seed)
            .with_max_iterations(5);
        for name in registry.names() {
            let outcome = registry
                .run(&name, &graph, &spec, &mut NoopObserver)
                .expect("registered algorithm on a valid spec");
            let p = &outcome.partition;
            // Coverage: exactly one bucket per data vertex, every bucket id in range.
            prop_assert_eq!(p.num_data(), graph.num_data(), "{} coverage", &name);
            prop_assert_eq!(p.assignment().len(), graph.num_data(), "{} coverage", &name);
            prop_assert_eq!(p.num_buckets(), k, "{} bucket count", &name);
            prop_assert!(
                p.assignment().iter().all(|&b| b < k),
                "{} produced an out-of-range bucket", &name
            );
            prop_assert_eq!(
                p.bucket_weights().iter().sum::<u64>(),
                p.total_weight(),
                "{} weight bookkeeping", &name
            );
            // Balance: the unified contract guarantees the spec's epsilon capacity.
            prop_assert!(
                p.is_balanced(epsilon),
                "{} violates epsilon {}: weights {:?}",
                &name, epsilon, p.bucket_weights()
            );
            if k as usize > graph.num_data() {
                prop_assert!(
                    p.bucket_weights().iter().all(|&w| w <= 1),
                    "{} put two vertices in one bucket with k > |D|", &name
                );
            }
            // Reported metrics match the partition they describe.
            prop_assert!((outcome.imbalance - p.imbalance()).abs() < 1e-12, "{}", &name);
            // Determinism: equal spec, equal partition.
            let again = registry
                .run(&name, &graph, &spec, &mut NoopObserver)
                .expect("second run of a registered algorithm");
            prop_assert_eq!(
                p.assignment(), again.partition.assignment(),
                "{} is not deterministic for a fixed seed", &name
            );
        }
    }
}

/// One test drives every algorithm through the shared trait on a planted-partition graph and
/// checks the paper's headline ordering: the SHP family beats the random baseline on fanout.
#[test]
fn shpk_beats_random_baseline_through_the_shared_trait() {
    let (graph, _truth) = planted_partition(&PlantedConfig {
        num_blocks: 4,
        block_size: 64,
        num_queries: 1_024,
        query_degree: 4,
        noise: 0.05,
        seed: 42,
    });
    let registry = full_registry();
    let spec = PartitionSpec::new(4).with_seed(42);
    let mut fanout_of = std::collections::BTreeMap::new();
    for name in registry.names() {
        let outcome = registry
            .run(&name, &graph, &spec, &mut NoopObserver)
            .expect("registered algorithm on a valid spec");
        assert_eq!(outcome.algorithm, name);
        assert_eq!(outcome.partition.num_data(), graph.num_data());
        assert!(outcome.fanout >= 1.0, "{name} fanout {}", outcome.fanout);
        fanout_of.insert(name, outcome.fanout);
    }
    let shpk = fanout_of["shpk"];
    let random = fanout_of["random"];
    assert!(
        shpk <= random,
        "SHP-k fanout {shpk} must not exceed the random baseline {random}"
    );
    // The planted structure is recoverable, so SHP should in fact be far better, not just tied.
    assert!(
        shpk < random * 0.75,
        "SHP-k fanout {shpk} should clearly beat random {random}"
    );
}

/// The observer trace is consistent with the outcome for an iterative algorithm driven through
/// the registry.
#[test]
fn observer_trace_matches_outcome_counters() {
    let (graph, _) = planted_partition(&PlantedConfig {
        num_blocks: 4,
        block_size: 32,
        num_queries: 256,
        query_degree: 4,
        noise: 0.1,
        seed: 7,
    });
    let registry = full_registry();
    let spec = PartitionSpec::new(4).with_seed(7).with_max_iterations(8);
    for name in ["shp2", "shpk", "distributed", "label-propagation"] {
        let mut trace = TraceObserver::default();
        let outcome = registry
            .run(name, &graph, &spec, &mut trace)
            .expect("registered algorithm on a valid spec");
        assert_eq!(
            trace.iterations.len(),
            outcome.iterations,
            "{name} trace length"
        );
        assert_eq!(
            trace.iterations.iter().map(|e| e.moved as u64).sum::<u64>(),
            outcome.moves,
            "{name} move counter"
        );
    }
}
