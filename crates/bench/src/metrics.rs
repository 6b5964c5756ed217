//! Checks `shp_serving::ServingMetrics`' lock-free metrics against the `Mutex<Vec>` metrics of
//! [`crate::oracles::metrics`].

mod tests {
    use crate::oracles::metrics::ReferenceServingMetrics;
    use shp_serving::{CacheStats, ServingMetrics};

    /// Feeds the same observation stream into the lock-free implementation and the
    /// sorted-vector oracle and checks the documented conformance contract.
    #[test]
    fn report_conforms_to_the_legacy_oracle_within_quantization() {
        let new = ServingMetrics::new();
        let old = ReferenceServingMetrics::new();
        // A deterministic skewed latency stream over 8 shards.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..20_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let fanout = 1 + (state % 8) as u32;
            let shards: Vec<u32> = (0..fanout).map(|s| (s + (i % 8) as u32) % 8).collect();
            let latency = 0.2 + (state % 10_000) as f64 / 500.0;
            let epoch = i / 5_000;
            new.record(fanout, 8, shards.iter().copied(), latency, epoch);
            old.record(fanout, 8, shards.iter().copied(), latency, epoch);
        }
        let n = new.report(CacheStats::default());
        let o = old.report(CacheStats::default());

        // Exact fields are bit-identical.
        assert_eq!(n.queries, o.queries);
        assert_eq!(n.fanout_histogram, o.fanout_histogram);
        assert_eq!(n.max_fanout, o.max_fanout);
        assert_eq!(n.mean_fanout, o.mean_fanout);
        assert_eq!(n.shard_requests, o.shard_requests);
        assert_eq!(n.shard_skew, o.shard_skew);
        assert_eq!((n.min_epoch, n.max_epoch), (o.min_epoch, o.max_epoch));
        // With no faults recorded the fault fields agree bit-for-bit, availability included.
        assert_eq!(n.degraded_queries, o.degraded_queries);
        assert_eq!(n.availability, o.availability);
        assert_eq!(n.availability, 1.0);

        // Latency aggregates obey the quantization contract: each percentile is the lower
        // bucket edge of the oracle's exact value.
        let bound = shp_telemetry::histogram::QUANTIZATION_ERROR;
        for (quantized, exact) in [
            (n.p50, o.p50),
            (n.p90, o.p90),
            (n.p99, o.p99),
            (n.p999, o.p999),
        ] {
            assert!(
                quantized <= exact && exact <= quantized * (1.0 + bound) + 1e-12,
                "quantized {quantized} vs exact {exact}"
            );
        }
        // The fixed-point mean resolves to 2^-14 per observation.
        assert!((n.mean_latency - o.mean_latency).abs() < 1e-3);
    }
}
