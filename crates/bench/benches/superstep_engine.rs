//! Micro-benchmark: distributed SHP iterations (four supersteps each) on the vertex-centric
//! engine, across worker counts. Backs the Figure 5b worker-scaling experiment.
//!
//! Before timing anything it asserts that workers 1, 4 and 8 give the same assignment and the
//! same worker-independent counters (messages, bytes, combined messages, supersteps and active
//! vertices per superstep); only the remote counters may differ. `--quick` runs the check and
//! two timed samples per worker count (the CI smoke job).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shp_core::{partition_distributed, DistributedRunResult, ShpConfig};
use shp_datagen::{social_graph, SocialGraphConfig};
use shp_hypergraph::BipartiteGraph;

const WORKERS: [usize; 3] = [1, 4, 8];

fn config() -> ShpConfig {
    ShpConfig::direct(8).with_seed(1).with_max_iterations(3)
}

/// The assignment and every counter of a run that must not depend on the worker count.
fn worker_independent(result: &DistributedRunResult) -> (Vec<u32>, u64, u64, u64, Vec<usize>) {
    let metrics = &result.metrics;
    (
        result.partition.assignment().to_vec(),
        metrics.total_messages(),
        metrics.total_bytes(),
        metrics.supersteps.iter().map(|s| s.combined_messages).sum(),
        metrics
            .supersteps
            .iter()
            .map(|s| s.active_vertices)
            .collect(),
    )
}

/// Panics unless every worker count reproduces the single-worker run.
fn assert_worker_count_conformance(graph: &BipartiteGraph) {
    let runs: Vec<_> = WORKERS
        .iter()
        .map(|&workers| {
            let result = partition_distributed(graph, &config(), workers).expect("valid config");
            worker_independent(&result)
        })
        .collect();
    for (workers, run) in WORKERS.iter().zip(&runs).skip(1) {
        assert!(
            *run == runs[0],
            "{workers} workers diverge from 1 worker in the assignment or a counter"
        );
    }
    println!(
        "conformance: workers {WORKERS:?} agree on the assignment, {} messages, {} bytes and \
         {} supersteps",
        runs[0].1,
        runs[0].2,
        runs[0].4.len()
    );
}

fn bench_distributed_iterations(c: &mut Criterion) {
    let graph = social_graph(&SocialGraphConfig {
        num_users: 3_000,
        avg_degree: 12,
        ..Default::default()
    });
    assert_worker_count_conformance(&graph);
    let mut group = c.benchmark_group("distributed_supersteps");
    group.sample_size(10);
    for workers in WORKERS {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| b.iter(|| partition_distributed(&graph, &config(), workers).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_distributed_iterations);
criterion_main!(benches);
