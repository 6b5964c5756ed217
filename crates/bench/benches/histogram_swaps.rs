//! Micro-benchmark: building gain histograms and matching bins (the master-side work of the
//! advanced swap scheme of Section 3.4), as a function of the number of proposals and of the
//! pair-table layout they produce: pairs spread over all of k = 16 or k = 64 (direct SHP-k),
//! and the last bisection level of SHP-2 at k = 2048, where only sibling pairs occur.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shp_core::histogram::GainHistogramSet;
use shp_core::MoveProposal;

fn proposals(n: usize, k: u32) -> Vec<MoveProposal> {
    (0..n)
        .map(|i| {
            let from = (i as u32) % k;
            let to = (from + 1 + (i as u32 / k) % (k - 1)) % k;
            MoveProposal {
                vertex: i as u32,
                from,
                to,
                gain: ((i % 37) as f64 - 10.0) / 7.0,
            }
        })
        .collect()
}

/// The last level of a bisection into `k` buckets: every proposal moves between the siblings
/// `2b` and `2b + 1`.
fn sibling_proposals(n: usize, k: u32) -> Vec<MoveProposal> {
    (0..n)
        .map(|i| {
            let from = (i as u32 * 7919) % k;
            MoveProposal {
                vertex: i as u32,
                from,
                to: from ^ 1,
                gain: ((i % 37) as f64 - 10.0) / 7.0,
            }
        })
        .collect()
}

fn bench_histogram_swaps(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_swaps");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let props = proposals(n, 16);
        group.bench_with_input(
            BenchmarkId::new("build_and_match", n),
            &props,
            |b, props| {
                b.iter(|| {
                    let set = GainHistogramSet::from_proposals(props);
                    set.match_bins()
                })
            },
        );
    }
    // The pair-table layouts: dense rows under `All` at k = 64, and one slot per bucket for the
    // 36,692 proposals (full-scale email-Enron's data vertices) of a k = 2048 bisection level.
    let layouts = [
        ("all_k64", proposals(36_692, 64)),
        ("siblings_k2048", sibling_proposals(36_692, 2048)),
    ];
    for (layout, props) in &layouts {
        group.bench_with_input(
            BenchmarkId::new(format!("build_and_match_{layout}"), props.len()),
            props,
            |b, props| {
                b.iter(|| {
                    let set = GainHistogramSet::from_proposals(props);
                    set.match_bins()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_histogram_swaps);
criterion_main!(benches);
