//! Micro-benchmark: move-gain computation for all data vertices (the core of superstep 3).
//! Backs the O(k·|E|) computational-complexity claim of Section 3.3 — and records the dense
//! scratch kernel against the hash-map kernel of `shp_bench::oracles::gains` (the `legacy`
//! rows) at k = 64 on the power-law graph into `BENCH_refinement.json` (ops/s, ns/vertex,
//! allocation proxy), asserting bit-identical proposal lists first.

mod support;

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_pcg::Pcg64;
use shp_bench::{bench_json, oracles};
use shp_core::{gains, MoveProposal, NeighborData, Objective, TargetConstraint};
use shp_datagen::{social_graph, SocialGraphConfig};
use shp_hypergraph::Partition;

#[global_allocator]
static ALLOC: support::CountingAllocator = support::CountingAllocator;

fn bench_gain_computation(c: &mut Criterion) {
    let graph = social_graph(&SocialGraphConfig {
        num_users: 5_000,
        avg_degree: 15,
        ..Default::default()
    });
    let mut group = c.benchmark_group("gain_computation");
    group.sample_size(10);
    for k in [2u32, 8, 32] {
        let mut rng = Pcg64::seed_from_u64(1);
        let partition = Partition::new_random(&graph, k, &mut rng).unwrap();
        let nd = NeighborData::build(&graph, &partition);
        let objective = Objective::PFanout { p: 0.5 };
        let constraint = TargetConstraint::all(k);
        for workers in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("k{k}"), format!("w{workers}")),
                &k,
                |b, _| {
                    b.iter(|| {
                        gains::compute_proposals(
                            &objective,
                            &graph,
                            &partition,
                            &nd,
                            &constraint,
                            true,
                            workers,
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// The trajectory section: the raw gain sweep at k = 64 on the power-law graph, single worker,
/// scratch kernel vs the hash-map kernel oracle.
fn hot_path_trajectory() {
    const K: u32 = 64;
    let graph = support::bench_power_law();
    let n = graph.num_data();
    let mut rng = Pcg64::seed_from_u64(1);
    let partition = Partition::new_random(&graph, K, &mut rng).unwrap();
    let nd = NeighborData::build(&graph, &partition);
    let objective = Objective::PFanout { p: 0.5 };
    let constraint = TargetConstraint::all(K);

    let scratch_sweep =
        || gains::compute_proposals(&objective, &graph, &partition, &nd, &constraint, true, 1);
    let legacy_sweep = || {
        oracles::gains::compute_proposals(&objective, &graph, &partition, &nd, &constraint, true)
    };

    // Correctness gate for the CI smoke job: bit-identical proposals, including gain bits.
    let scratch_proposals = scratch_sweep();
    let legacy_proposals = legacy_sweep();
    assert_eq!(scratch_proposals.len(), legacy_proposals.len());
    for (s, l) in scratch_proposals.iter().zip(legacy_proposals.iter()) {
        assert_eq!(
            oracles::gains::proposal_bits(s),
            oracles::gains::proposal_bits(l),
            "scratch kernel diverged from the hash-map kernel at vertex {}",
            s.vertex
        );
    }

    let rounds = support::rounds();
    let time = |sweep: &dyn Fn() -> Vec<MoveProposal>| {
        support::measure(
            rounds,
            || (),
            |()| {
                let _ = sweep();
            },
        )
    };
    let scratch = time(&scratch_sweep);
    let legacy = time(&legacy_sweep);
    let speedup = legacy.secs_per_op / scratch.secs_per_op;
    println!(
        "gain_computation/power_law_k64_w1: scratch {:.2} ms vs legacy {:.2} ms ({speedup:.2}x, \
         allocs {:.0} vs {:.0})",
        scratch.secs_per_op * 1e3,
        legacy.secs_per_op * 1e3,
        scratch.allocs_per_op,
        legacy.allocs_per_op,
    );

    let rows = vec![
        (
            "power_law_k64_w1_scratch".to_string(),
            bench_json::render_metrics(&scratch.metrics(n)),
        ),
        (
            "power_law_k64_w1_legacy".to_string(),
            bench_json::render_metrics(&legacy.metrics(n)),
        ),
        (
            "speedup_scratch_vs_legacy".to_string(),
            bench_json::render_number(speedup),
        ),
    ];
    let path = bench_json::repo_root().join(bench_json::BENCH_JSON_NAME);
    bench_json::update_section(
        &path,
        "gain_computation",
        &bench_json::render_section(&rows),
    )
    .expect("write BENCH_refinement.json");
    println!("gain_computation: trajectory written to {}", path.display());
}

criterion_group!(benches, bench_gain_computation);

fn main() {
    benches();
    hot_path_trajectory();
}
