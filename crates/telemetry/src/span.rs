//! Hierarchical phase spans ([`Span`]) and pre-resolved hot-path timers ([`Timer`]).
//!
//! A span measures wall time for a named phase and folds it, on drop, into a per-path
//! [`SpanStats`] cell in the global registry. Paths are `/`-joined:
//! `Span::enter("partition/refinement").child("iteration")` records under
//! `partition/refinement` and `partition/refinement/iteration`.
//!
//! The *fold* is atomic-only (two relaxed `fetch_add`s on the calling thread's shard of the
//! [`SpanStats`], plus a `fetch_max` only when the duration is a new maximum for that shard);
//! the *path lookup* takes a shared read lock the first time and an exclusive lock only when
//! a brand-new path is interned. That is fine at phase granularity (a handful of spans per
//! partitioning run), but not for
//! per-request serving paths — those use a [`Timer`]: the [`SpanStats`] cell is resolved once
//! at engine construction and each [`TimerGuard`] drop is pure atomics.
//!
//! When telemetry is [disabled](crate::enabled), `Span::enter` and `Timer::start` skip even
//! the `Instant::now()` call and their drops do nothing.

use crate::{enabled, global, shard_index, Pad, COUNTER_SHARDS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recording thread's share of a [`SpanStats`].
#[derive(Debug, Default)]
struct SpanShard {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Aggregated wall-time statistics for one span path: invocation count, total and maximum
/// nanoseconds.
///
/// Like a [`Counter`](crate::Counter), the stats are spread over cache-line-padded
/// per-thread shards, so threads timing the same path never write the same line; reads merge
/// them (counts and totals sum, the maximum is the largest shard maximum).
#[derive(Debug)]
pub struct SpanStats {
    shards: Box<[Pad<SpanShard>]>,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            shards: (0..COUNTER_SHARDS).map(|_| Pad::default()).collect(),
        }
    }
}

impl SpanStats {
    /// Folds one measured duration into the stats. Lock-free: two relaxed `fetch_add`s on
    /// the calling thread's shard, and a `fetch_max` only when `ns` exceeds that shard's
    /// maximum.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let shard = &self.shards[shard_index(COUNTER_SHARDS)].0;
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.total_ns.fetch_add(ns, Ordering::Relaxed);
        if ns > shard.max_ns.load(Ordering::Relaxed) {
            shard.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    fn sum(&self, field: impl Fn(&SpanShard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| field(&s.0).load(Ordering::Relaxed))
            .sum()
    }

    /// Number of completed spans on this path.
    pub fn count(&self) -> u64 {
        self.sum(|s| &s.count)
    }

    /// Total wall time across completed spans, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.sum(|s| &s.total_ns)
    }

    /// Longest single span, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.max_ns.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Zeroes the stats.
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            shard.0.count.store(0, Ordering::Relaxed);
            shard.0.total_ns.store(0, Ordering::Relaxed);
            shard.0.max_ns.store(0, Ordering::Relaxed);
        }
    }
}

/// An in-flight phase measurement; records into the global registry when dropped.
///
/// Inert (and nearly free) when telemetry is disabled at the moment `enter` was called.
#[derive(Debug)]
pub struct Span {
    /// `None` when telemetry was disabled at enter time.
    live: Option<(String, Instant)>,
}

impl Span {
    /// Starts a span on `path` (a `/`-joined phase path).
    #[inline]
    pub fn enter(path: &str) -> Self {
        Span {
            live: enabled().then(|| (path.to_string(), Instant::now())),
        }
    }

    /// Starts a child span at `<self.path>/<name>`. A child of a disabled span is disabled.
    #[inline]
    pub fn child(&self, name: &str) -> Self {
        Span {
            live: self
                .live
                .as_ref()
                .filter(|_| enabled())
                .map(|(path, _)| (format!("{path}/{name}"), Instant::now())),
        }
    }

    /// The span's path, if it is recording.
    pub fn path(&self) -> Option<&str> {
        self.live.as_ref().map(|(p, _)| p.as_str())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((path, start)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            global().span_stats(&path).record_ns(ns);
        }
    }
}

/// A pre-resolved handle to one span path's [`SpanStats`], for per-request hot paths.
///
/// Resolving the path (and its registry lock) happens once, at
/// [`Registry::timer`](crate::Registry::timer) time; every [`Timer::start`]/[`TimerGuard`]
/// drop afterwards is atomics only.
#[derive(Debug, Clone)]
pub struct Timer {
    stats: Arc<SpanStats>,
}

impl Timer {
    pub(crate) fn new(stats: Arc<SpanStats>) -> Self {
        Timer { stats }
    }

    /// Starts timing; the returned guard records on drop. Inert when telemetry is disabled.
    #[inline]
    pub fn start(&self) -> TimerGuard<'_> {
        TimerGuard {
            stats: &self.stats,
            start: enabled().then(Instant::now),
        }
    }

    /// Folds an externally measured duration into this timer's stats (still gated on
    /// [`enabled`]). Useful when the caller already has the elapsed time on hand.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if enabled() {
            self.stats.record_ns(ns);
        }
    }

    /// The underlying stats cell (scrape-time inspection).
    pub fn stats(&self) -> &SpanStats {
        &self.stats
    }
}

/// Guard returned by [`Timer::start`]; folds the elapsed time into the timer's stats on drop.
#[derive(Debug)]
pub struct TimerGuard<'a> {
    stats: &'a SpanStats,
    start: Option<Instant>,
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.stats.record_ns(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stats_fold_is_exact() {
        let stats = SpanStats::default();
        stats.record_ns(10);
        stats.record_ns(30);
        stats.record_ns(20);
        assert_eq!(stats.count(), 3);
        assert_eq!(stats.total_ns(), 60);
        assert_eq!(stats.max_ns(), 30);
        stats.reset();
        assert_eq!((stats.count(), stats.total_ns(), stats.max_ns()), (0, 0, 0));
    }

    #[test]
    fn child_paths_join_with_slash() {
        let _guard = crate::toggle_guard();
        crate::set_enabled(true);
        let root = Span::enter("test_span/root");
        let child = root.child("leaf");
        assert_eq!(root.path(), Some("test_span/root"));
        assert_eq!(child.path(), Some("test_span/root/leaf"));
        drop(child);
        drop(root);
        let snap = global().snapshot();
        let leaf = &snap.spans["test_span/root/leaf"];
        assert!(leaf.count >= 1);
        assert!(snap.spans["test_span/root"].total_ns >= leaf.total_ns);
    }

    #[test]
    fn concurrent_span_folds_merge_exactly() {
        let stats = SpanStats::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let stats = &stats;
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        stats.record_ns(2);
                    }
                });
            }
        });
        assert_eq!(stats.count(), 40_000);
        assert_eq!(stats.total_ns(), 80_000);
        assert_eq!(stats.max_ns(), 2);
    }

    #[test]
    fn per_thread_shards_merge_to_exact_sums_and_maximum() {
        // Thread t records 1_000 + t, 2_000 + t, ..., 500_000 + t: every thread writes its
        // own shard, and the merge must read as one table would.
        let stats = SpanStats::default();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let stats = &stats;
                scope.spawn(move || {
                    for i in 1..=500u64 {
                        stats.record_ns(i * 1_000 + t);
                    }
                });
            }
        });
        let per_thread: u64 = (1..=500u64).map(|i| i * 1_000).sum();
        assert_eq!(stats.count(), 2_000);
        assert_eq!(stats.total_ns(), 4 * per_thread + 500 * (1 + 2 + 3));
        assert_eq!(stats.max_ns(), 500_003);
        stats.reset();
        assert_eq!((stats.count(), stats.total_ns(), stats.max_ns()), (0, 0, 0));
    }

    #[test]
    fn disabled_spans_and_timers_record_nothing() {
        let _guard = crate::toggle_guard();
        crate::set_enabled(false);
        let span = Span::enter("test_span/disabled");
        assert_eq!(span.path(), None);
        assert_eq!(span.child("x").path(), None);
        drop(span);
        let timer = global().timer("test_span/disabled_timer");
        drop(timer.start());
        timer.record_ns(123);
        crate::set_enabled(true);
        assert_eq!(timer.stats().count(), 0);
        let snap = global().snapshot();
        assert!(!snap.spans.contains_key("test_span/disabled"));
    }

    #[test]
    fn timer_guard_records_on_drop() {
        let _guard = crate::toggle_guard();
        crate::set_enabled(true);
        let timer = global().timer("test_span/guarded");
        {
            let _guard = timer.start();
        }
        assert_eq!(timer.stats().count(), 1);
        timer.record_ns(500);
        assert_eq!(timer.stats().count(), 2);
        assert!(timer.stats().max_ns() >= 500 || timer.stats().total_ns() >= 500);
    }
}
