//! Micro-benchmark: one full refinement iteration of Algorithm 1 (gains + swap coordination +
//! move application), comparing the basic matrix and the advanced histogram swap strategies —
//! plus the hot-path trajectory section: the dirty-vertex active set against a full gain
//! rescan every iteration (`Refiner::run_iteration`), both on the dense scratch kernel, at
//! k = 64 on the power-law graph, single worker, with bit-identity asserted before timing. The
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
use shp_datagen::{social_graph, SocialGraphConfig};
use shp_hypergraph::{BipartiteGraph, Partition};

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

/// The seeded random start every trajectory run refines from.
fn seeded_start(graph: &BipartiteGraph, k: u32) -> (Partition, NeighborData) {
    let mut rng = Pcg64::seed_from_u64(1);
    let partition = Partition::new_random(graph, k, &mut rng).unwrap();
    let nd = NeighborData::build(graph, &partition);
    (partition, nd)
}

/// Runs `iterations` refinement iterations from the seeded start, with the dirty-vertex active
/// set ([`Refiner::run`]) or with a full rescan every iteration ([`Refiner::run_iteration`]),
/// returning the final partition and per-iteration fingerprints.
fn run_pipeline(
    refiner: &Refiner<'_>,
    graph: &BipartiteGraph,
    k: u32,
    iterations: usize,
    dirty_set: bool,
) -> (Partition, Vec<(usize, u64, u64)>) {
    let (mut partition, mut nd) = seeded_start(graph, k);
    let history: Vec<IterationStats> = if dirty_set {
        refiner.run(&mut partition, &mut nd, iterations, 0.0)
    } else {
        (0..iterations)
            .map(|it| refiner.run_iteration(&mut partition, &mut nd, it))
            .collect()
    };
    let stats = history
        .iter()
        .map(|s| (s.moved, s.applied_gain.to_bits(), s.fanout_after.to_bits()))
        .collect();
    (partition, stats)
}

/// The trajectory section: k = 64 on the power-law graph, single worker — so the measured win
/// is structural (the dirty set), not thread count.
fn hot_path_trajectory() {
    const K: u32 = 64;
    const RUN_ITERATIONS: usize = 12;
    let graph = support::bench_power_law();
    let n = graph.num_data();
    let refiner = make_refiner(&graph, K, SwapStrategy::Histogram);

    // Correctness gate (the CI smoke job relies on this panicking on regression): the dirty
    // set must reproduce a full rescan every iteration bit-for-bit.
    let (p_dirty, s_dirty) = run_pipeline(&refiner, &graph, K, RUN_ITERATIONS, true);
    let (p_full, s_full) = run_pipeline(&refiner, &graph, K, RUN_ITERATIONS, false);
    assert_eq!(
        p_dirty, p_full,
        "dirty-set pipeline diverged from the full-rescan pipeline"
    );
    assert_eq!(
        s_dirty, s_full,
        "iteration stats diverged from the full-rescan pipeline"
    );

    // One late iteration, the run's last, from the state the earlier iterations reach: the
    // dirty set recomputes only the frontier of the previous moves (or everything, when the
    // least-loaded bucket changed), the full rescan recomputes every vertex.
    let rounds = support::rounds();
    let last = RUN_ITERATIONS - 1;
    let late_state = || {
        let (mut partition, mut nd) = seeded_start(&graph, K);
        let mut active = refiner.new_active_set();
        for it in 0..last {
            refiner.run_iteration_with(&mut active, &mut partition, &mut nd, it);
        }
        (partition, nd, active)
    };
    let single_dirty =
        support::measure(rounds, late_state, |(mut partition, mut nd, mut active)| {
            refiner.run_iteration_with(&mut active, &mut partition, &mut nd, last);
        });
    let single_full = support::measure(rounds, late_state, |(mut partition, mut nd, _)| {
        refiner.run_iteration(&mut partition, &mut nd, last);
    });

    let full_run = |dirty: bool| {
        support::measure(
            rounds,
            || (),
            |()| {
                let _ = run_pipeline(&refiner, &graph, K, RUN_ITERATIONS, dirty);
            },
        )
    };
    let run_dirty = full_run(true);
    let run_full = full_run(false);

    let speedup_single = single_full.secs_per_op / single_dirty.secs_per_op;
    let speedup_run = run_full.secs_per_op / run_dirty.secs_per_op;
    println!(
        "refinement_iteration/power_law_k64_w1: iteration {last} dirty set {:.2} ms vs full \
         rescan {:.2} ms ({speedup_single:.2}x); {RUN_ITERATIONS}-iteration run: {:.2} ms vs \
         {:.2} ms ({speedup_run:.2}x)",
        single_dirty.secs_per_op * 1e3,
        single_full.secs_per_op * 1e3,
        run_dirty.secs_per_op * 1e3,
        run_full.secs_per_op * 1e3,
    );

    let rows = vec![
        (
            "power_law_k64_w1_iteration_scratch_dirty".to_string(),
            bench_json::render_metrics(&single_dirty.metrics(n)),
        ),
        (
            "power_law_k64_w1_iteration_full_rescan".to_string(),
            bench_json::render_metrics(&single_full.metrics(n)),
        ),
        (
            format!("power_law_k64_w1_run{RUN_ITERATIONS}_scratch_dirty"),
            bench_json::render_metrics(&run_dirty.metrics(n * RUN_ITERATIONS)),
        ),
        (
            format!("power_law_k64_w1_run{RUN_ITERATIONS}_full_rescan"),
            bench_json::render_metrics(&run_full.metrics(n * RUN_ITERATIONS)),
        ),
        (
            "speedup_single_iteration".to_string(),
            bench_json::render_number(speedup_single),
        ),
        (
            "speedup_full_run".to_string(),
            bench_json::render_number(speedup_run),
        ),
    ];
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
