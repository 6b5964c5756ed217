//! Cross-crate integration tests: the full pipeline from generated workload through
//! partitioning to sharded replay, exercising the public API exactly like a downstream user.

use shp::baselines::RandomPartitioner;
use shp::core::{
    partition_direct, partition_distributed, partition_recursive, ObjectiveKind, ShpConfig,
};
use shp::datagen::{planted_partition, social_graph, Dataset, PlantedConfig, SocialGraphConfig};
use shp::hypergraph::{average_fanout, average_p_fanout, io, GraphStats, Partition};

fn workload(users: usize, seed: u64) -> shp::hypergraph::BipartiteGraph {
    social_graph(&SocialGraphConfig {
        num_users: users,
        avg_degree: 12,
        avg_community_size: 80,
        cross_community_fraction: 0.08,
        seed,
    })
}

#[test]
fn shp2_recovers_planted_partition_structure() {
    let (graph, truth) = planted_partition(&PlantedConfig {
        num_blocks: 8,
        block_size: 128,
        num_queries: 8_192,
        query_degree: 5,
        noise: 0.02,
        seed: 1,
    });
    let planted = shp::hypergraph::Partition::from_assignment(&graph, 8, truth).unwrap();
    let planted_fanout = average_fanout(&graph, &planted);

    let result =
        partition_recursive(&graph, &ShpConfig::recursive_bisection(8).with_seed(1)).unwrap();
    // SHP should come close to the planted optimum and crush a random partition.
    let random = RandomPartitioner::new(1).partition_into(&graph, 8, 0.05);
    let random_fanout = average_fanout(&graph, &random);
    assert!(
        result.report.final_fanout < planted_fanout * 1.35,
        "SHP fanout {} should approach the planted optimum {planted_fanout}",
        result.report.final_fanout
    );
    assert!(
        result.report.final_fanout < random_fanout * 0.5,
        "SHP fanout {} should be far below random {random_fanout}",
        result.report.final_fanout
    );
}

#[test]
fn all_three_execution_paths_agree_in_quality() {
    let graph = workload(4_000, 3);
    let k = 16;
    let shp2 =
        partition_recursive(&graph, &ShpConfig::recursive_bisection(k).with_seed(3)).unwrap();
    let shpk = partition_direct(&graph, &ShpConfig::direct(k).with_seed(3)).unwrap();
    let distributed =
        partition_distributed(&graph, &ShpConfig::recursive_bisection(k).with_seed(3), 4).unwrap();

    let random = RandomPartitioner::new(3).partition_into(&graph, k, 0.05);
    let random_fanout = average_fanout(&graph, &random);
    for (name, fanout) in [
        ("SHP-2", shp2.report.final_fanout),
        ("SHP-k", shpk.report.final_fanout),
        ("distributed SHP-2", distributed.final_fanout),
    ] {
        assert!(
            fanout < random_fanout * 0.8,
            "{name} fanout {fanout} should clearly beat random {random_fanout}"
        );
    }
    // The two SHP-2 paths (in-process and vertex-centric) should land in the same quality band.
    let ratio = distributed.final_fanout / shp2.report.final_fanout;
    assert!(
        ratio > 0.7 && ratio < 1.4,
        "quality ratio {ratio} out of band"
    );
}

#[test]
fn facade_partitioner_roundtrips_through_hmetis_files() {
    let graph = Dataset::EmailEnron
        .generate(0.01, 7)
        .filter_small_queries(2);
    let dir = std::env::temp_dir().join(format!("shp-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("graph.hgr");
    io::write_hmetis_file(&graph, &graph_path).unwrap();
    let reread = io::read_hmetis_file(&graph_path).unwrap();
    assert_eq!(GraphStats::compute(&graph), GraphStats::compute(&reread));

    let result =
        partition_recursive(&reread, &ShpConfig::recursive_bisection(8).with_seed(7)).unwrap();
    let part_path = dir.join("graph.part");
    io::write_partition_file(&result.partition, &part_path).unwrap();
    let reread_partition = io::read_partition_file(&reread, 8, &part_path).unwrap();
    assert_eq!(result.partition, reread_partition);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharding_pipeline_reduces_latency_versus_random() {
    let graph = workload(6_000, 11);
    let servers = 24;
    let shp = partition_recursive(
        &graph,
        &ShpConfig::recursive_bisection(servers).with_seed(11),
    )
    .unwrap()
    .partition;
    let random = RandomPartitioner::new(11).partition_into(&graph, servers, 0.05);

    // Serve every query once from each placement.
    let serve = |placement| {
        let engine =
            shp::serving::ServingEngine::new(placement, shp::serving::EngineConfig::default())
                .unwrap();
        for q in graph.queries() {
            engine.multiget(graph.query_neighbors(q)).unwrap();
        }
        engine.report()
    };
    let shp_report = serve(&shp);
    let random_report = serve(&random);

    assert!(shp_report.mean_fanout < random_report.mean_fanout * 0.7);
    assert!(
        shp_report.mean_latency < random_report.mean_latency,
        "SHP mean latency {} should be below random {}",
        shp_report.mean_latency,
        random_report.mean_latency
    );
}

#[test]
fn serving_engine_reports_lower_fanout_and_latency_for_shp() {
    let graph = workload(3_000, 19);
    let shards = 16;
    let shp = partition_recursive(
        &graph,
        &ShpConfig::recursive_bisection(shards).with_seed(19),
    )
    .unwrap()
    .partition;
    let random = RandomPartitioner::new(19).partition_into(&graph, shards, 0.05);

    let config = shp::serving::WorkloadConfig {
        arrival_rate: 100.0,
        duration: 30.0,
        ..Default::default()
    };
    let events = shp::serving::open_loop_schedule(graph.num_queries(), &config);
    assert!(!events.is_empty());
    let run = |partition| {
        let engine =
            shp::serving::ServingEngine::new(partition, shp::serving::EngineConfig::default())
                .unwrap();
        engine.run_workload(&graph, &events, 4).unwrap()
    };
    let shp_report = run(&shp);
    let random_report = run(&random);
    assert!(
        shp_report.mean_fanout < random_report.mean_fanout * 0.8,
        "serving fanout {} should clearly beat random {}",
        shp_report.mean_fanout,
        random_report.mean_fanout
    );
    assert!(
        shp_report.p99 < random_report.p99,
        "SHP p99 {} should be below random {}",
        shp_report.p99,
        random_report.p99
    );
}

#[test]
fn live_partition_swap_never_drops_or_double_serves_a_key() {
    use shp::serving::{value_of, EngineConfig, ServingEngine};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let graph = workload(1_500, 23);
    let shards = 8;
    let random = RandomPartitioner::new(23).partition_into(&graph, shards, 0.05);
    let shp = partition_recursive(
        &graph,
        &ShpConfig::recursive_bisection(shards).with_seed(23),
    )
    .unwrap()
    .partition;

    let engine = ServingEngine::new(&random, EngineConfig::default()).unwrap();
    let queries: Vec<u32> = graph.queries().collect();
    let stop = AtomicBool::new(false);
    let clients = 4usize;
    // The swaps start only once every client has served a multiget, so they cannot all land
    // before any client runs.
    let serving = Barrier::new(clients + 1);

    std::thread::scope(|scope| {
        let engine = &engine;
        let graph = &graph;
        let stop = &stop;
        let queries = &queries;
        let serving = &serving;
        // Four clients hammer multigets and verify exact coverage on every answer. Each keeps
        // going after the stop signal until it has been served under a swapped placement.
        for offset in 0..clients {
            scope.spawn(move || {
                let mut i = offset;
                let mut waited = false;
                let mut saw_swap = false;
                while !(stop.load(Ordering::Relaxed) && saw_swap) {
                    let q = queries[i % queries.len()];
                    let keys = graph.query_neighbors(q);
                    let result = engine.multiget(keys).expect("multiget failed mid-swap");
                    let mut expected: Vec<u32> = keys.to_vec();
                    expected.sort_unstable();
                    expected.dedup();
                    let got: Vec<u32> = result.values.iter().map(|&(k, _)| k).collect();
                    assert_eq!(
                        got, expected,
                        "a key was dropped or double-served during a swap"
                    );
                    for &(k, v) in &result.values {
                        assert_eq!(v, value_of(k), "wrong record served during a swap");
                    }
                    saw_swap |= result.epoch >= 1;
                    if !waited {
                        serving.wait();
                        waited = true;
                    }
                    i += clients;
                }
            });
        }
        // The swapper repeatedly flips between the two placements under full load.
        serving.wait();
        for swap in 0..60 {
            let epoch = engine
                .install_partition(if swap % 2 == 0 { &shp } else { &random })
                .expect("install failed");
            assert_eq!(epoch, swap + 1);
        }
        stop.store(true, Ordering::Relaxed);
    });

    let report = engine.report();
    assert_eq!(engine.swap_count(), 60);
    assert!(report.queries > 0);
    assert!(
        report.max_epoch >= 1,
        "clients never observed a swapped placement"
    );
}

#[test]
fn objective_limits_behave_as_in_lemmas_1_and_2() {
    // End-to-end check of the limit behaviour: optimizing p-fanout with p close to 1 behaves
    // like direct fanout optimization, and p = 0.5 is at least as good as either extreme on a
    // social workload (the paper's Figure 8 finding).
    let graph = workload(3_000, 13);
    let k = 8;
    let run = |objective| {
        partition_recursive(
            &graph,
            &ShpConfig::recursive_bisection(k)
                .with_objective(objective)
                .with_seed(13),
        )
        .unwrap()
        .report
        .final_fanout
    };
    let half = run(ObjectiveKind::ProbabilisticFanout { p: 0.5 });
    let direct = run(ObjectiveKind::Fanout);
    let clique = run(ObjectiveKind::CliqueNet);
    assert!(
        half <= direct * 1.05,
        "p=0.5 ({half}) should not be much worse than direct ({direct})"
    );
    assert!(
        half <= clique * 1.10,
        "p=0.5 ({half}) should not be much worse than clique-net ({clique})"
    );
}

#[test]
fn balance_holds_across_bucket_counts() {
    let graph = workload(5_000, 17);
    for k in [2u32, 8, 32, 64] {
        let result =
            partition_recursive(&graph, &ShpConfig::recursive_bisection(k).with_seed(17)).unwrap();
        assert_eq!(result.partition.num_buckets(), k);
        assert!(
            result.partition.bucket_weights().iter().all(|&w| w > 0),
            "k={k}: every bucket should be non-empty"
        );
        assert!(
            result.report.imbalance < 0.25,
            "k={k}: imbalance {}",
            result.report.imbalance
        );
        // p-fanout is always a lower bound on fanout.
        assert!(
            average_p_fanout(&graph, &result.partition, 0.5)
                <= average_fanout(&graph, &result.partition) + 1e-9
        );
    }
}

/// At k = 3 the first SHP-r level splits the root into children standing for 2 and 1 final
/// buckets. Each child's ε capacity is proportional to its share, so the moves into the
/// larger child are not all trimmed: the result keeps ε and nearly recovers the planted
/// blocks.
#[test]
fn uneven_splits_keep_epsilon_and_recover_the_planted_blocks() {
    let (graph, truth) = planted_partition(&PlantedConfig {
        num_blocks: 3,
        block_size: 200,
        num_queries: 3_000,
        query_degree: 6,
        noise: 0.02,
        seed: 7,
    });
    let config = ShpConfig::recursive_bisection(3).with_seed(3);
    let result = partition_recursive(&graph, &config).unwrap();
    let truth = Partition::from_assignment(&graph, 3, truth).unwrap();
    let (imbalance, fanout) = (result.report.imbalance, result.report.final_fanout);
    println!(
        "imbalance {imbalance:.3}, fanout {fanout:.3}, planted fanout {:.3}",
        average_fanout(&graph, &truth)
    );
    assert!(imbalance <= config.epsilon, "imbalance {imbalance}");
    assert!(fanout < 1.1, "fanout {fanout}");
}
