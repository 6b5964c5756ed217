//! Micro-benchmark: one full refinement iteration of Algorithm 1 (gains + swap coordination +
//! move application), comparing the basic matrix and the advanced histogram swap strategies —
//! plus the hot-path trajectory section: the dirty-vertex active set against a full gain
//! rescan every iteration (`Refiner::run_iteration`), both on the dense scratch kernel, at
//! k = 64, single worker, with bit-identity asserted before timing, on two inputs: the
//! power-law graph (`power_law_k64_w1` rows) and an observed co-access graph whose keys mostly
//! have no query, refined as the repartition controller does (`observed_k64_w1` rows). The
//! kernel itself is timed against the hash-map oracle by the `gain_computation` bench.
//!
//! Headline numbers (ops/s, ns/vertex, allocation proxy, speedups) are written to
//! `BENCH_refinement.json` at the repository root; `--quick` runs the same measurements and
//! assertions with minimal sample counts (the CI smoke job).

mod support;

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_pcg::Pcg64;
use shp_bench::bench_json;
use shp_core::{
    BalanceMode, IterationStats, NeighborData, Objective, Refiner, SwapStrategy, TargetConstraint,
};
use shp_datagen::{planted_partition, social_graph, PlantedConfig, SocialGraphConfig};
use shp_hypergraph::{BipartiteGraph, GraphBuilder, Partition};

#[global_allocator]
static ALLOC: support::CountingAllocator = support::CountingAllocator;

fn bench_refinement(c: &mut Criterion) {
    let graph = social_graph(&SocialGraphConfig {
        num_users: 5_000,
        avg_degree: 15,
        ..Default::default()
    });
    let k = 8;
    let mut group = c.benchmark_group("refinement_iteration");
    group.sample_size(10);
    for strategy in [SwapStrategy::Matrix, SwapStrategy::Histogram] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                b.iter_batched(
                    || {
                        let mut rng = Pcg64::seed_from_u64(1);
                        let partition = Partition::new_random(&graph, k, &mut rng).unwrap();
                        let nd = NeighborData::build(&graph, &partition);
                        (partition, nd)
                    },
                    |(mut partition, mut nd)| {
                        let refiner = make_refiner(&graph, k, strategy);
                        refiner.run_iteration(&mut partition, &mut nd, 0)
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn make_refiner(graph: &BipartiteGraph, k: u32, strategy: SwapStrategy) -> Refiner<'_> {
    Refiner::new(
        graph,
        Objective::PFanout { p: 0.5 },
        TargetConstraint::all(k),
        strategy,
        BalanceMode::Expectation,
        false,
        0.05,
        1,
    )
}

/// One trajectory input: a graph, the refiner over it and the partition every run starts from.
struct Trajectory<'a> {
    /// Row-name prefix in `BENCH_refinement.json`.
    label: &'static str,
    graph: &'a BipartiteGraph,
    refiner: Refiner<'a>,
    start: Partition,
}

impl Trajectory<'_> {
    /// Runs `iterations` refinement iterations from the start, with the dirty-vertex active
    /// set ([`Refiner::run`]) or with a full rescan every iteration ([`Refiner::run_iteration`]),
    /// returning the final partition and per-iteration fingerprints.
    fn run(&self, iterations: usize, dirty_set: bool) -> (Partition, Vec<(usize, u64, u64)>) {
        let mut partition = self.start.clone();
        let mut nd = NeighborData::build(self.graph, &partition);
        let history: Vec<IterationStats> = if dirty_set {
            self.refiner.run(&mut partition, &mut nd, iterations, 0.0)
        } else {
            (0..iterations)
                .map(|it| self.refiner.run_iteration(&mut partition, &mut nd, it))
                .collect()
        };
        let stats = history
            .iter()
            .map(|s| (s.moved, s.applied_gain.to_bits(), s.fanout_after.to_bits()))
            .collect();
        (partition, stats)
    }

    /// The rows of this input: its last iteration and a whole run, each with the dirty set and
    /// with a full rescan, plus the two speedups.
    fn rows(&self, speedup_prefix: &str) -> Vec<(String, String)> {
        const RUN_ITERATIONS: usize = 12;
        let n = self.graph.num_data();
        let label = self.label;

        // Correctness gate (the CI smoke job relies on this panicking on regression): the
        // dirty set must reproduce a full rescan every iteration bit-for-bit.
        let (p_dirty, s_dirty) = self.run(RUN_ITERATIONS, true);
        let (p_full, s_full) = self.run(RUN_ITERATIONS, false);
        assert_eq!(
            p_dirty, p_full,
            "{label}: dirty-set pipeline diverged from the full-rescan pipeline"
        );
        assert_eq!(
            s_dirty, s_full,
            "{label}: iteration stats diverged from the full-rescan pipeline"
        );

        // One late iteration, the run's last, from the state the earlier iterations reach: the
        // dirty set recomputes only the frontier of the previous moves (and the ties, when the
        // least-loaded bucket changed), the full rescan recomputes every vertex.
        let rounds = support::rounds();
        let last = RUN_ITERATIONS - 1;
        let late_state = || {
            let mut partition = self.start.clone();
            let mut nd = NeighborData::build(self.graph, &partition);
            let mut active = self.refiner.new_active_set();
            for it in 0..last {
                self.refiner
                    .run_iteration_with(&mut active, &mut partition, &mut nd, it);
            }
            (partition, nd, active)
        };
        let single_dirty =
            support::measure(rounds, late_state, |(mut partition, mut nd, mut active)| {
                self.refiner
                    .run_iteration_with(&mut active, &mut partition, &mut nd, last);
            });
        let single_full = support::measure(rounds, late_state, |(mut partition, mut nd, _)| {
            self.refiner.run_iteration(&mut partition, &mut nd, last);
        });
        let full_run = |dirty: bool| {
            support::measure(
                rounds,
                || (),
                |()| {
                    let _ = self.run(RUN_ITERATIONS, dirty);
                },
            )
        };
        let run_dirty = full_run(true);
        let run_full = full_run(false);

        let speedup_single = single_full.secs_per_op / single_dirty.secs_per_op;
        let speedup_run = run_full.secs_per_op / run_dirty.secs_per_op;
        println!(
            "refinement_iteration/{label}: iteration {last} dirty set {:.2} ms vs full rescan \
             {:.2} ms ({speedup_single:.2}x); {RUN_ITERATIONS}-iteration run: {:.2} ms vs \
             {:.2} ms ({speedup_run:.2}x)",
            single_dirty.secs_per_op * 1e3,
            single_full.secs_per_op * 1e3,
            run_dirty.secs_per_op * 1e3,
            run_full.secs_per_op * 1e3,
        );
        vec![
            (
                format!("{label}_iteration_scratch_dirty"),
                bench_json::render_metrics(&single_dirty.metrics(n)),
            ),
            (
                format!("{label}_iteration_full_rescan"),
                bench_json::render_metrics(&single_full.metrics(n)),
            ),
            (
                format!("{label}_run{RUN_ITERATIONS}_scratch_dirty"),
                bench_json::render_metrics(&run_dirty.metrics(n * RUN_ITERATIONS)),
            ),
            (
                format!("{label}_run{RUN_ITERATIONS}_full_rescan"),
                bench_json::render_metrics(&run_full.metrics(n * RUN_ITERATIONS)),
            ),
            (
                format!("{speedup_prefix}speedup_single_iteration"),
                bench_json::render_number(speedup_single),
            ),
            (
                format!("{speedup_prefix}speedup_full_run"),
                bench_json::render_number(speedup_run),
            ),
        ]
    }
}

/// An observed co-access graph as the repartition controller builds it: 1,024 sampled
/// queries of 8 keys (a planted partition with 64 blocks) in a space of 262,144 keys, of
/// which the keys outside the sample have no query.
fn observed_graph() -> BipartiteGraph {
    let (sampled, _) = planted_partition(&PlantedConfig {
        num_blocks: 64,
        block_size: 16,
        num_queries: 1_024,
        query_degree: 8,
        noise: 0.1,
        seed: 0x5047,
    });
    let mut builder = GraphBuilder::new();
    for q in 0..sampled.num_queries() as u32 {
        builder.add_query(sampled.query_neighbors(q).iter().copied());
    }
    builder.ensure_data_count(262_144);
    builder.build().expect("valid observed graph")
}

/// The trajectory section, at k = 64 with a single worker — so the measured win is
/// structural (the dirty set), not thread count — on two inputs: the power-law graph from a
/// seeded random start, and an observed-graph-shaped input refined as the controller does
/// (from the hashed placement `key mod 64`, with its movement penalty against it).
fn hot_path_trajectory() {
    const K: u32 = 64;
    let power_law = support::bench_power_law();
    let mut rng = Pcg64::seed_from_u64(1);
    let power_law_rows = Trajectory {
        label: "power_law_k64_w1",
        graph: &power_law,
        refiner: make_refiner(&power_law, K, SwapStrategy::Histogram),
        start: Partition::new_random(&power_law, K, &mut rng).unwrap(),
    }
    .rows("");

    let observed = observed_graph();
    let hashed: Vec<u32> = (0..observed.num_data() as u32).map(|key| key % K).collect();
    let observed_rows = Trajectory {
        label: "observed_k64_w1",
        graph: &observed,
        refiner: Refiner::new(
            &observed,
            Objective::PFanout { p: 0.5 },
            TargetConstraint::all(K),
            SwapStrategy::Histogram,
            BalanceMode::Expectation,
            false,
            0.1,
            1,
        )
        .with_movement_penalty(&hashed, 0.0),
        start: Partition::from_assignment(&observed, K, hashed.clone()).unwrap(),
    }
    .rows("observed_");

    let rows: Vec<(String, String)> = power_law_rows.into_iter().chain(observed_rows).collect();
    let path = bench_json::repo_root().join(bench_json::BENCH_JSON_NAME);
    bench_json::update_section(
        &path,
        "refinement_iteration",
        &bench_json::render_section(&rows),
    )
    .expect("write BENCH_refinement.json");
    println!(
        "refinement_iteration: trajectory written to {}",
        path.display()
    );
}

criterion_group!(benches, bench_refinement);

fn main() {
    benches();
    hot_path_trajectory();
}
