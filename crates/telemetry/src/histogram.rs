//! The fixed-bucket log-linear [`Histogram`] over non-negative `f64` values.
//!
//! ## Bucket layout
//!
//! Every power-of-two octave in `[2^-16, 2^16)` is split into `2^SUB_BITS = 64` equal-width
//! sub-buckets, mapped straight off the IEEE-754 bit pattern (`bits >> (52 - SUB_BITS)` is
//! monotone for positive floats). Two sentinel buckets catch the rest of the axis: bucket 0
//! holds everything below `2^-16` (including `0.0`, NaN, and negatives), and the final bucket
//! holds everything at or above `2^16`. The bucket count is a compile-time constant —
//! recording never allocates and memory never grows with traffic.
//!
//! ## Quantization contract
//!
//! [`Histogram::quantile`] returns the **lower edge** of the bucket containing the requested
//! rank, so for any tracked value `quantile(q) ≤ v ≤ quantile(q) · (1 + 2^-6)`: the relative
//! quantization error is at most `2^-6 ≈ 1.56%`. A value that is exactly representable with
//! 6 mantissa bits (every small integer up to 128, every bucket edge) sits *on* its bucket's
//! lower edge and is reported exactly.
//!
//! ## Determinism under concurrency
//!
//! Bucket counts are order-independent by construction. The running sum is kept in fixed
//! point ([`SUM_SCALE`] units of `2^-14`) so addition is associative and a merged report is
//! bit-identical regardless of how recording threads interleaved — unlike a floating-point
//! accumulator, whose low bits would depend on arrival order.

use crate::{shard_index, Pad, HISTOGRAM_SHARDS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` linear buckets.
pub const SUB_BITS: u32 = 6;

/// Upper bound of the relative quantization error of [`Histogram::quantile`]: `2^-SUB_BITS`.
pub const QUANTIZATION_ERROR: f64 = 1.0 / (1 << SUB_BITS) as f64;

/// Smallest tracked exponent: values below `2^MIN_EXP` land in the underflow bucket.
const MIN_EXP: i32 = -16;
/// One past the largest tracked exponent: values at or above `2^MAX_EXP` clamp to the top.
const MAX_EXP: i32 = 16;

/// Fixed-point scale of the sum accumulator (`2^14` units per 1.0).
pub const SUM_SCALE: f64 = (1u64 << 14) as f64;

const OCTAVES: usize = (MAX_EXP - MIN_EXP) as usize;
const BUCKETS: usize = OCTAVES * (1 << SUB_BITS) + 2;
const MANTISSA_SHIFT: u32 = 52 - SUB_BITS;
/// `(2^MIN_EXP).to_bits() >> MANTISSA_SHIFT`, the key of the first tracked bucket.
const BASE_KEY: u64 = ((1023 + MIN_EXP) as u64) << SUB_BITS;
const MAX_TRACKED: f64 = 65536.0; // 2^MAX_EXP

struct HistogramShard {
    buckets: Box<[AtomicU64]>,
    /// Fixed-point sum of recorded values ([`SUM_SCALE`] units).
    sum_fp: AtomicU64,
}

impl HistogramShard {
    fn new() -> Self {
        HistogramShard {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_fp: AtomicU64::new(0),
        }
    }
}

/// A sharded, lock-free, constant-memory log-linear histogram (see the module docs).
pub struct Histogram {
    /// Per-thread shards, padded so that threads on neighbouring shards never write one line
    /// (each shard's buckets are an allocation of their own).
    shards: Box<[Pad<HistogramShard>]>,
    /// Bit pattern of the smallest recorded value (`f64::INFINITY` when empty).
    min_bits: AtomicU64,
    /// Bit pattern of the largest recorded value (`0.0` when empty).
    max_bits: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index of `value` (total order: underflow, tracked octaves, overflow).
#[inline]
fn bucket_of(value: f64) -> usize {
    const MIN_TRACKED: f64 = 1.0 / 65536.0; // 2^MIN_EXP
    if value.is_nan() || value < MIN_TRACKED {
        // Below range, zero, negative, or NaN: the underflow bucket.
        return 0;
    }
    if value >= MAX_TRACKED {
        return BUCKETS - 1;
    }
    ((value.to_bits() >> MANTISSA_SHIFT) - BASE_KEY) as usize + 1
}

/// The lower edge of bucket `index` (`0.0` for the underflow bucket, `2^MAX_EXP` for the
/// overflow bucket).
#[inline]
fn lower_edge(index: usize) -> f64 {
    if index == 0 {
        return 0.0;
    }
    if index >= BUCKETS - 1 {
        return MAX_TRACKED;
    }
    f64::from_bits((BASE_KEY + index as u64 - 1) << MANTISSA_SHIFT)
}

/// The exclusive upper edge of bucket `index` (`f64::INFINITY` for the overflow bucket).
#[inline]
fn upper_edge(index: usize) -> f64 {
    if index >= BUCKETS - 1 {
        return f64::INFINITY;
    }
    lower_edge(index + 1)
}

impl Histogram {
    /// Creates an empty histogram (all memory allocated up front).
    pub fn new() -> Self {
        Histogram {
            shards: (0..HISTOGRAM_SHARDS)
                .map(|_| Pad(HistogramShard::new()))
                .collect(),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation. Lock-free and allocation-free: two relaxed `fetch_add`s on
    /// the calling thread's shard, and a relaxed `fetch_min`/`fetch_max` on the shared
    /// extremes only when the value moves them (those compile to CAS loops on x86-64, so the
    /// common case reads the extremes and writes nothing shared).
    #[inline]
    pub fn record(&self, value: f64) {
        let shard = &self.shards[shard_index(HISTOGRAM_SHARDS)].0;
        shard.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        let clamped = if value.is_nan() {
            0.0
        } else {
            value.clamp(0.0, MAX_TRACKED)
        };
        shard
            .sum_fp
            .fetch_add((clamped * SUM_SCALE).round() as u64, Ordering::Relaxed);
        // For non-negative floats the IEEE-754 bit pattern orders like the value, so the
        // min/max of the bit patterns are the bit patterns of the min/max.
        let bits = clamped.to_bits();
        if bits < self.min_bits.load(Ordering::Relaxed) {
            self.min_bits.fetch_min(bits, Ordering::Relaxed);
        }
        if bits > self.max_bits.load(Ordering::Relaxed) {
            self.max_bits.fetch_max(bits, Ordering::Relaxed);
        }
    }

    /// Total number of recorded observations (scrape-time merge).
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.0.buckets.iter())
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of recorded values, quantized to [`SUM_SCALE`] fixed point (order-independent).
    pub fn sum(&self) -> f64 {
        let fp: u64 = self
            .shards
            .iter()
            .map(|s| s.0.sum_fp.load(Ordering::Relaxed))
            .sum();
        fp as f64 / SUM_SCALE
    }

    /// Mean of recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() / count as f64
        }
    }

    /// Smallest recorded value (clamped into the tracked range; `0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Largest recorded value (clamped into the tracked range; `0.0` when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// The merged dense bucket counts (scrape-time only).
    fn merged(&self) -> Vec<u64> {
        let mut out = vec![0u64; BUCKETS];
        for Pad(shard) in self.shards.iter() {
            for (bucket, total) in shard.buckets.iter().zip(out.iter_mut()) {
                *total += bucket.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) under the quantization contract of the module docs:
    /// the lower edge of the bucket holding rank `round(q · (count − 1))`. Returns `0.0` when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        Self::quantile_of(&self.merged(), q)
    }

    /// Several quantiles in one merge pass over the shards.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        let merged = self.merged();
        qs.iter().map(|&q| Self::quantile_of(&merged, q)).collect()
    }

    fn quantile_of(merged: &[u64], q: f64) -> f64 {
        let count: u64 = merged.iter().sum();
        if count == 0 {
            return 0.0;
        }
        // Same rank definition as a sorted-vector percentile `sorted[round(q * (n - 1))]`.
        let rank = (q.clamp(0.0, 1.0) * (count - 1) as f64).round() as u64;
        let mut cumulative = 0u64;
        for (index, &c) in merged.iter().enumerate() {
            cumulative += c;
            if cumulative > rank {
                return lower_edge(index);
            }
        }
        MAX_TRACKED
    }

    /// `(exclusive upper edge, cumulative count)` for every non-empty bucket, in ascending
    /// order — the Prometheus classic-histogram shape. The final entry's edge is
    /// `f64::INFINITY` whenever anything was recorded.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let merged = self.merged();
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (index, &c) in merged.iter().enumerate() {
            if c > 0 {
                cumulative += c;
                out.push((upper_edge(index), cumulative));
            }
        }
        if let Some(last) = out.last_mut() {
            // The top occupied bucket reports as +Inf so the exposition always ends with the
            // mandatory `le="+Inf"` bucket equal to the total count.
            if last.0 != f64::INFINITY {
                out.push((f64::INFINITY, cumulative));
            }
        }
        out
    }

    /// Zeroes every bucket, the sums, and the min/max.
    pub fn reset(&self) {
        for Pad(shard) in self.shards.iter() {
            for bucket in shard.buckets.iter() {
                bucket.store(0, Ordering::Relaxed);
            }
            shard.sum_fp.store(0, Ordering::Relaxed);
        }
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }

    /// Bytes of bucket storage held (constant for the lifetime of the histogram).
    pub fn memory_bytes(&self) -> usize {
        self.shards.len() * (BUCKETS + 1) * std::mem::size_of::<AtomicU64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_on_bucket_edges_are_reported_exactly() {
        let h = Histogram::new();
        for v in [1.0, 3.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn quantile_error_is_within_the_documented_bound() {
        let h = Histogram::new();
        let mut values: Vec<f64> = (1..=10_000).map(|i| (i as f64).sqrt() * 0.37).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact =
                values[((q * (values.len() - 1) as f64).round() as usize).min(values.len() - 1)];
            let approx = h.quantile(q);
            assert!(
                approx <= exact + 1e-12 && exact <= approx * (1.0 + QUANTIZATION_ERROR) + 1e-12,
                "q={q}: exact {exact} approx {approx}"
            );
        }
    }

    #[test]
    fn out_of_range_values_clamp_into_sentinel_buckets() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(1e-9);
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(1e12);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 6);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 65536.0);
        assert_eq!(h.max(), 65536.0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_inf() {
        let h = Histogram::new();
        for i in 0..1000 {
            h.record(i as f64 * 0.013);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "edges ascend");
            assert!(pair[0].1 <= pair[1].1, "cumulative counts ascend");
        }
        let last = buckets.last().unwrap();
        assert_eq!(last.0, f64::INFINITY);
        assert_eq!(last.1, 1000);
    }

    #[test]
    fn sum_is_order_independent_across_threads() {
        let sequential = Histogram::new();
        for i in 0..4000u32 {
            sequential.record(i as f64 * 0.21);
        }
        let concurrent = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let h = &concurrent;
                scope.spawn(move || {
                    for i in (t..4000).step_by(4) {
                        h.record(i as f64 * 0.21);
                    }
                });
            }
        });
        assert_eq!(sequential.count(), concurrent.count());
        assert_eq!(sequential.sum().to_bits(), concurrent.sum().to_bits());
        assert_eq!(
            sequential.quantile(0.99).to_bits(),
            concurrent.quantile(0.99).to_bits()
        );
    }

    #[test]
    fn memory_is_constant_under_load() {
        let h = Histogram::new();
        let before = h.memory_bytes();
        for i in 0..200_000 {
            h.record((i % 977) as f64 * 0.01);
        }
        assert_eq!(h.memory_bytes(), before);
        assert_eq!(h.count(), 200_000);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.memory_bytes(), before);
    }

    #[test]
    fn quantiles_batch_matches_single_calls() {
        let h = Histogram::new();
        for i in 1..=500 {
            h.record(i as f64);
        }
        let batch = h.quantiles(&[0.5, 0.9, 0.99]);
        assert_eq!(batch[0], h.quantile(0.5));
        assert_eq!(batch[1], h.quantile(0.9));
        assert_eq!(batch[2], h.quantile(0.99));
        assert!(batch[0] <= batch[1] && batch[1] <= batch[2]);
    }
}
