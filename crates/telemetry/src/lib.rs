//! # shp-telemetry
//!
//! Zero-dependency, lock-free-on-record telemetry for the SHP workspace: the
//! serve→observe→repartition loop of the paper (Kabiljo et al., VLDB 2017, Section 5) starts
//! with *observation*, and this crate is the observation layer — cheap enough to stay on in
//! the serving hot path, structured enough to drive a future repartition controller.
//!
//! ## Components
//!
//! * [`Counter`] / [`Gauge`] — sharded atomic scalars. A counter spreads increments over
//!   cache-line-padded per-worker shards that are merged only at scrape time, so concurrent
//!   `inc()` calls never contend on one cache line.
//! * [`IndexedCounter`] — a fixed-capacity array of atomic counters (fanout histograms,
//!   per-shard request counts). Bounded by construction: indices past the capacity clamp into
//!   the final overflow slot, so memory never grows with traffic.
//! * [`Histogram`] — a fixed-bucket **log-linear** histogram over non-negative `f64` values
//!   (latencies). See the quantization-error contract below.
//! * [`Span`] / [`Timer`] — hierarchical phase spans (`Span::enter("refinement")` →
//!   `span.child("iteration")`) aggregating wall time per path into per-thread
//!   [`SpanStats`] shards, and pre-resolved [`Timer`] handles for hot paths that cannot
//!   afford the per-enter path lookup.
//! * [`TopKSketch`] — a bounded space-saving-style per-key frequency sketch (the per-key
//!   access trace a repartition controller consumes), lock-free, with one table per
//!   recording thread merged on read and deterministic tie-breaking at extraction.
//! * [`Registry`] / [`Snapshot`] — named-metric registration and a mergeable point-in-time
//!   snapshot, exported as Prometheus text exposition ([`Snapshot::to_prometheus`]) or a JSON
//!   document ([`Snapshot::to_json`] / [`Snapshot::from_json`]).
//!
//! ## The lock-free record path
//!
//! Every *record* operation — `Counter::inc`, `Gauge::set`, `IndexedCounter::inc`,
//! `Histogram::record`, `TopKSketch::record`, and the span/timer close that folds a duration
//! into its [`SpanStats`] — performs only atomic loads, stores, `fetch_*`, and bounded CAS
//! retries on pre-allocated memory: no `Mutex`, no `RwLock`, no allocation. Counters,
//! histograms, span stats and top-K tables write per-thread shards that sit on cache lines of
//! their own and are merged only on read, and extremes (a histogram's min/max, a span
//! shard's max) are written only when a value moves them, so concurrent recorders do not
//! write each other's lines. The only locking in the crate sits on the *registration* path
//! ([`Registry::counter`] and friends intern names under a lock the first time they are seen)
//! and on the *scrape* path ([`Registry::snapshot`]); both are off the hot path by
//! construction. [`Span::enter`] reads the intern table through a shared read lock once per
//! span — fine at phase granularity; the per-multiget serving paths use cached [`Timer`]
//! handles instead, which record without touching any map.
//!
//! ## Quantization error
//!
//! [`Histogram`] buckets are log-linear: each power-of-two octave in `[2^-16, 2^16)` is split
//! into `2^6 = 64` equal-width sub-buckets, so every bucket spans a relative width of
//! `2^-6 ≈ 1.56%`. [`Histogram::quantile`] returns the **lower edge** of the bucket holding
//! the requested rank, hence `quantile(q) ≤ true_value ≤ quantile(q) · (1 + 2^-6)` for values
//! inside the tracked range (values below `2^-16` report `0.0`; values at or above `2^16`
//! clamp to `65536.0`). Sums are accumulated in fixed-point (`2^-14` resolution) so the mean
//! is independent of record interleaving — a merged report is bit-identical no matter how
//! threads raced.
//!
//! ## Disabled mode
//!
//! [`set_enabled`]`(false)` makes every record path return after one relaxed atomic load,
//! and spans skip even the `Instant::now()` call. Disabling **never changes a computed
//! result** — the instrumented algorithms never read telemetry state, so partitioning
//! outcomes and serving results are bit-identical with telemetry on or off (the workspace's
//! `parallel_conformance` suite proves this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod histogram;
pub mod registry;
pub mod scalar;
pub mod sketch;
pub mod span;

pub use histogram::Histogram;
pub use registry::{
    HistogramSnapshot, Registry, Snapshot, SpanSnapshot, TopKeysSnapshot, SNAPSHOT_VERSION,
};
pub use scalar::{Counter, Gauge, IndexedCounter};
pub use sketch::TopKSketch;
pub use span::{Span, SpanStats, Timer, TimerGuard};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of per-worker shards a [`Counter`] spreads increments over (a power of two).
pub const COUNTER_SHARDS: usize = 16;

/// Number of per-worker shards a [`Histogram`] and an [`IndexedCounter`] use. Smaller than
/// [`COUNTER_SHARDS`] because each shard carries a full bucket array.
pub const HISTOGRAM_SHARDS: usize = 4;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns runtime recording on or off process-wide.
///
/// Disabling does not clear anything already recorded; it only makes subsequent record calls
/// no-ops.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry the instrumentation in the SHP crates records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A cache-line-padded cell, so neighboring shards of one sharded metric never share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Pad<T>(pub T);

/// The calling thread's stable shard index in `0..shards` (`shards` must be a power of two).
///
/// Thread ids are assigned from a process-wide counter on first use, so the first N distinct
/// recording threads land on N distinct shards — per-worker sharding without any coordination
/// on the record path.
#[inline]
pub(crate) fn shard_index(shards: usize) -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static THREAD_SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    THREAD_SHARD.with(|&id| id & (shards - 1))
}

/// Serializes tests that flip the process-wide [`set_enabled`] toggle, so they cannot race
/// with each other under the parallel test runner.
#[cfg(test)]
pub(crate) fn toggle_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_index_is_stable_per_thread_and_in_range() {
        let first = shard_index(COUNTER_SHARDS);
        assert!(first < COUNTER_SHARDS);
        assert_eq!(first, shard_index(COUNTER_SHARDS));
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| shard_index(COUNTER_SHARDS)))
            .collect();
        for h in handles {
            assert!(h.join().unwrap() < COUNTER_SHARDS);
        }
    }

    #[test]
    fn enable_toggle_round_trips() {
        let _guard = toggle_guard();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
