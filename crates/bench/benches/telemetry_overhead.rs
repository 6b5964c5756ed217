//! Telemetry overhead benchmark: the cost of one observation on every record path the
//! serving hot loop touches.
//!
//! On a fixed deterministic observation stream this measures, in ns per record:
//!
//! * the raw `shp-telemetry` primitives — sharded [`Counter`] increment, log-linear
//!   [`Histogram`] record, and bounded [`TopKSketch`] record;
//! * [`ServingMetrics::record`] (the lock-free rebuild) vs
//!   [`ReferenceServingMetrics::record`] (the `Mutex<Vec>` oracle of
//!   `shp_bench::oracles::metrics`, the `legacy` rows), single-threaded and with four threads
//!   contending — the contended case is where the old mutex serialized every serving client.
//!
//! Before anything is timed, both implementations ingest the identical stream and their
//! reports are asserted to agree: exact fields equal, latency percentiles within the
//! documented ≤1.56% bucket quantization — and the same holds with the global telemetry
//! toggle off, because `ServingMetrics` must keep working when instrumentation is disabled.
//! The CI smoke job (`--quick`) relies on these gates panicking on regression.
//!
//! Headline numbers (ns/record, speedups, memory) land in `BENCH_telemetry.json` at the
//! repository root.

mod support;

use shp_bench::bench_json;
use shp_bench::oracles::metrics::ReferenceServingMetrics;
use shp_serving::{CacheStats, ServingMetrics, ServingReport};
use shp_telemetry::histogram::QUANTIZATION_ERROR;
use shp_telemetry::{Counter, Histogram, TopKSketch};

#[global_allocator]
static ALLOC: support::CountingAllocator = support::CountingAllocator;

/// Shard count of the simulated serving tier.
const NUM_SHARDS: u32 = 64;

/// Threads in the contended measurement (the serving engine's default client count).
const CONTENDING_THREADS: usize = 4;

/// One synthetic multiget observation.
#[derive(Debug, Clone, Copy)]
struct Observation {
    fanout: u32,
    first_shard: u32,
    latency: f64,
    epoch: u64,
    key: u32,
}

/// Deterministic xorshift64 observation stream (no RNG crate on the bench hot path).
fn observations(n: usize) -> Vec<Observation> {
    let mut state = 0x5047_2017_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| {
            let r = next();
            Observation {
                fanout: 1 + (r % 16) as u32,
                first_shard: ((r >> 8) % NUM_SHARDS as u64) as u32,
                latency: 0.05 + (r >> 16 & 0xFFFF) as f64 / 65536.0 * 4.0,
                epoch: (i / 1_000) as u64,
                // A skewed key stream: half the traffic concentrates on 64 hot keys.
                key: if r & 1 == 0 {
                    ((r >> 32) % 64) as u32
                } else {
                    ((r >> 32) % 100_000) as u32
                },
            }
        })
        .collect()
}

fn record_all(metrics: &ServingMetrics, stream: &[Observation]) {
    for o in stream {
        metrics.record(
            o.fanout,
            NUM_SHARDS,
            (0..o.fanout).map(|i| (o.first_shard + i) % NUM_SHARDS),
            o.latency,
            o.epoch,
        );
    }
}

fn record_all_legacy(metrics: &ReferenceServingMetrics, stream: &[Observation]) {
    for o in stream {
        metrics.record(
            o.fanout,
            NUM_SHARDS,
            (0..o.fanout).map(|i| (o.first_shard + i) % NUM_SHARDS),
            o.latency,
            o.epoch,
        );
    }
}

/// Splits the stream across [`CONTENDING_THREADS`] threads hammering one accumulator.
fn record_contended(record_chunk: &(dyn Fn(&[Observation]) + Sync), stream: &[Observation]) {
    let chunk = stream.len().div_ceil(CONTENDING_THREADS).max(1);
    std::thread::scope(|scope| {
        for slice in stream.chunks(chunk) {
            scope.spawn(move || record_chunk(slice));
        }
    });
}

/// The conformance gate: exact fields equal, percentiles within the quantization bound.
fn assert_conforms(exact: &ServingReport, quantized: &ServingReport, context: &str) {
    assert_eq!(quantized.queries, exact.queries, "{context}: queries");
    assert_eq!(
        quantized.mean_fanout.to_bits(),
        exact.mean_fanout.to_bits(),
        "{context}: mean fanout"
    );
    assert_eq!(
        quantized.max_fanout, exact.max_fanout,
        "{context}: max fanout"
    );
    assert_eq!(
        quantized.fanout_histogram, exact.fanout_histogram,
        "{context}: fanout histogram"
    );
    assert_eq!(
        quantized.shard_requests, exact.shard_requests,
        "{context}: shard requests"
    );
    assert_eq!(quantized.min_epoch, exact.min_epoch, "{context}: min epoch");
    assert_eq!(quantized.max_epoch, exact.max_epoch, "{context}: max epoch");
    for (name, q, e) in [
        ("p50", quantized.p50, exact.p50),
        ("p90", quantized.p90, exact.p90),
        ("p99", quantized.p99, exact.p99),
        ("p999", quantized.p999, exact.p999),
    ] {
        assert!(
            q <= e + 1e-12 && e <= q * (1.0 + QUANTIZATION_ERROR) + 1e-12,
            "{context}: {name} {q} outside the quantization bound of exact {e}"
        );
    }
    assert!(
        (quantized.mean_latency - exact.mean_latency).abs() < 1e-3,
        "{context}: mean latency {} vs exact {}",
        quantized.mean_latency,
        exact.mean_latency
    );
}

fn main() {
    let n = if criterion::quick_mode() {
        100_000
    } else {
        1_000_000
    };
    let stream = observations(n);
    println!(
        "telemetry_overhead: {n} observations, {NUM_SHARDS} shards{}",
        if criterion::quick_mode() {
            " (quick mode)"
        } else {
            ""
        }
    );

    // ---- Conformance gates (CI smoke relies on these panicking on regression) ----------
    let metrics = ServingMetrics::new();
    let legacy = ReferenceServingMetrics::new();
    record_all(&metrics, &stream);
    record_all_legacy(&legacy, &stream);
    let exact = legacy.report(CacheStats::default());
    assert_conforms(&exact, &metrics.report(CacheStats::default()), "enabled");

    // The global toggle gates instrumentation sites, never the metrics accumulator itself:
    // with telemetry off the report must be byte-for-byte the same.
    shp_telemetry::set_enabled(false);
    metrics.reset();
    record_all(&metrics, &stream);
    assert_conforms(&exact, &metrics.report(CacheStats::default()), "disabled");
    shp_telemetry::set_enabled(true);
    println!(
        "telemetry_overhead: conformance gates passed (lock-free == legacy oracle, \
         toggle-independent); metrics footprint {} KiB",
        metrics.memory_bytes() / 1024
    );

    // ---- Measurements ------------------------------------------------------------------
    let rounds = support::rounds();
    let counter = Counter::new();
    let counter_inc = support::measure(
        rounds,
        || (),
        |()| {
            for _ in 0..n {
                counter.inc();
            }
        },
    );
    let histogram = Histogram::new();
    let histogram_record = support::measure(
        rounds,
        || (),
        |()| {
            for o in &stream {
                histogram.record(o.latency);
            }
        },
    );
    let sketch = TopKSketch::new(4096);
    let sketch_record = support::measure(
        rounds,
        || (),
        |()| {
            for o in &stream {
                sketch.record(o.key);
            }
        },
    );
    let serving_1t = support::measure(
        rounds,
        || metrics.reset(),
        |()| record_all(&metrics, &stream),
    );
    let legacy_1t = support::measure(rounds, ReferenceServingMetrics::new, |fresh| {
        record_all_legacy(&fresh, &stream)
    });
    let serving_4t = support::measure(
        rounds,
        || metrics.reset(),
        |()| record_contended(&|slice| record_all(&metrics, slice), &stream),
    );
    let legacy_4t = support::measure(rounds, ReferenceServingMetrics::new, |fresh| {
        record_contended(&|slice| record_all_legacy(&fresh, slice), &stream)
    });

    let speedup_1t = legacy_1t.secs_per_op / serving_1t.secs_per_op;
    let speedup_4t = legacy_4t.secs_per_op / serving_4t.secs_per_op;
    println!(
        "telemetry_overhead/primitives: counter {:.1} ns, histogram {:.1} ns, sketch {:.1} ns \
         per record",
        counter_inc.ns_per_item(n),
        histogram_record.ns_per_item(n),
        sketch_record.ns_per_item(n),
    );
    println!(
        "telemetry_overhead/serving: lock-free {:.1} ns vs legacy {:.1} ns per record \
         ({speedup_1t:.2}x); {CONTENDING_THREADS} threads contending: {:.1} ns vs {:.1} ns \
         ({speedup_4t:.2}x)",
        serving_1t.ns_per_item(n),
        legacy_1t.ns_per_item(n),
        serving_4t.ns_per_item(n),
        legacy_4t.ns_per_item(n),
    );

    let rows = vec![
        (
            "workload".to_string(),
            bench_json::render_metrics(&[
                ("records", n as f64),
                ("shards", NUM_SHARDS as f64),
                ("metrics_bytes", metrics.memory_bytes() as f64),
            ]),
        ),
        (
            "counter_inc".to_string(),
            bench_json::render_metrics(&counter_inc.metrics(n)),
        ),
        (
            "histogram_record".to_string(),
            bench_json::render_metrics(&histogram_record.metrics(n)),
        ),
        (
            "sketch_record".to_string(),
            bench_json::render_metrics(&sketch_record.metrics(n)),
        ),
        (
            "serving_record_t1".to_string(),
            bench_json::render_metrics(&serving_1t.metrics(n)),
        ),
        (
            "legacy_record_t1".to_string(),
            bench_json::render_metrics(&legacy_1t.metrics(n)),
        ),
        (
            "serving_record_t4".to_string(),
            bench_json::render_metrics(&serving_4t.metrics(n)),
        ),
        (
            "legacy_record_t4".to_string(),
            bench_json::render_metrics(&legacy_4t.metrics(n)),
        ),
        (
            "speedup_t1".to_string(),
            bench_json::render_number(speedup_1t),
        ),
        (
            "speedup_t4".to_string(),
            bench_json::render_number(speedup_4t),
        ),
    ];
    let path = bench_json::repo_root().join(bench_json::BENCH_TELEMETRY_JSON_NAME);
    bench_json::update_section(
        &path,
        "telemetry_overhead",
        &bench_json::render_section(&rows),
    )
    .expect("write BENCH_telemetry.json");
    println!(
        "telemetry_overhead: trajectory written to {}",
        path.display()
    );
}
