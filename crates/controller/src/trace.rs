//! [`AccessTraceCollector`]: bounded, atomics-only co-access trace collection on the serving
//! hot path.
//!
//! The paper's repartitioner does not see the *true* friend graph — it sees the **observed
//! co-access graph**: which keys were fetched together by real multigets. This collector is
//! the tap that builds it. It sits behind [`shp_serving::AccessObserver`] and is called with
//! every multiget's distinct key-set, so its record path must satisfy the same contract as
//! the rest of the serving instrumentation:
//!
//! * **zero allocation** — every byte is pre-allocated at construction;
//! * **lock-free** — only relaxed/acquire/release atomics, no mutex, no unbounded retry
//!   (a lost race drops one observation instead of spinning);
//! * **hard memory cap** — a fixed reservoir of key-set slots plus a bounded
//!   [`TopKSketch`]; memory never grows with traffic ([`AccessTraceCollector::memory_bytes`]
//!   is constant for the collector's lifetime).
//!
//! ## How sampling works
//!
//! Key-sets are reservoir-sampled (Algorithm R): observation number `i` (0-based) claims
//! reservoir slot `i` while the reservoir is filling, and afterwards replaces a uniformly
//! chosen slot with probability `slots/(i+1)` — the slot index comes from a splitmix64 hash
//! of the observation number, so a single-writer trace samples deterministically. Each slot
//! is a tiny seqlock: a writer CASes the slot's version from even to odd, writes up to
//! [`MAX_SAMPLE_KEYS`] keys and the length, and publishes with a release store back to even.
//! Readers ([`AccessTraceCollector::observed_graph`]) copy a slot and re-check the version,
//! discarding torn reads. Individual keys are separate `AtomicU32`s, so a torn *set* is
//! detectable while a torn *word* is impossible — no `unsafe` anywhere.
//!
//! Alongside the reservoir, every key feeds a space-saving [`TopKSketch`] (hot keys) and
//! sharded [`Counter`]s account for every observation: `recorded = sampled + singleton +
//! reservoir_skipped + contended` always holds, so the drift bench can assert nothing is
//! silently lost.

use shp_core::{ShpError, ShpResult};
use shp_hypergraph::{BipartiteGraph, DataId, GraphBuilder};
use shp_serving::AccessObserver;
use shp_telemetry::{Counter, TopKSketch};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Maximum keys kept per sampled multiget; larger key-sets are truncated (the first
/// `MAX_SAMPLE_KEYS` of the engine's sorted distinct keys). 16 keys × 4 bytes keeps a slot
/// within one cache line of payload.
pub const MAX_SAMPLE_KEYS: usize = 16;

/// Slots in each per-thread table of the hot-key sketch the collector maintains alongside the
/// reservoir.
const HOT_KEY_SLOTS: usize = 1024;

/// One seqlock-protected reservoir slot holding a sampled key-set.
///
/// `version` is even when the slot is stable and odd while a writer owns it; every publish
/// advances it by 2, so a reader that sees the same even version before and after its copy
/// has a consistent key-set.
#[derive(Debug)]
struct SampleSlot {
    version: AtomicU64,
    len: AtomicU32,
    keys: [AtomicU32; MAX_SAMPLE_KEYS],
}

impl SampleSlot {
    fn new() -> Self {
        SampleSlot {
            version: AtomicU64::new(0),
            len: AtomicU32::new(0),
            keys: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }
}

/// Scrape-time view of the collector's accounting counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Multigets observed (every call to `observe`/`record`).
    pub recorded: u64,
    /// Key-sets written into the reservoir.
    pub sampled: u64,
    /// Observations with fewer than two keys (no co-access signal; counted, not sampled).
    pub singleton: u64,
    /// Observations the reservoir declined once full (the expected Algorithm R behavior).
    pub reservoir_skipped: u64,
    /// Observations dropped because another writer owned the chosen slot (bounded-work rule:
    /// drop one sample instead of spinning).
    pub contended: u64,
}

/// A bounded, atomics-only reservoir of multiget key-sets — the observation tap of the
/// serve→observe→repartition loop (see the module docs).
#[derive(Debug)]
pub struct AccessTraceCollector {
    slots: Box<[SampleSlot]>,
    /// Observation sequence number since the last [`reset`](AccessTraceCollector::reset);
    /// drives Algorithm R.
    seq: AtomicU64,
    seed: u64,
    hot: TopKSketch,
    recorded: Counter,
    sampled: Counter,
    singleton: Counter,
    reservoir_skipped: Counter,
    contended: Counter,
}

/// A fixed 64-bit mix (splitmix64 finalizer) — deterministic across runs and platforms.
#[inline]
fn mix(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl AccessTraceCollector {
    /// Creates a collector with `slots` reservoir slots (rounded up to at least 16), seeded
    /// for the reservoir's replacement hash.
    pub fn new(slots: usize, seed: u64) -> Self {
        let slots = slots.max(16);
        AccessTraceCollector {
            slots: (0..slots).map(|_| SampleSlot::new()).collect(),
            seq: AtomicU64::new(0),
            seed,
            hot: TopKSketch::new(HOT_KEY_SLOTS),
            recorded: Counter::new(),
            sampled: Counter::new(),
            singleton: Counter::new(),
            reservoir_skipped: Counter::new(),
            contended: Counter::new(),
        }
    }

    /// Number of reservoir slots (fixed at construction).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of pre-allocated storage — constant for the collector's lifetime.
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<SampleSlot>() + self.hot.memory_bytes()
    }

    /// Records one multiget's distinct key-set. Zero allocation, lock-free, bounded work
    /// (at most one CAS on a slot version plus [`MAX_SAMPLE_KEYS`] relaxed stores).
    #[inline]
    pub fn record(&self, keys: &[DataId]) {
        self.recorded.inc();
        for &key in keys {
            self.hot.record(key);
        }
        if keys.len() < 2 {
            self.singleton.inc();
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slots = self.slots.len() as u64;
        let index = if seq < slots {
            seq
        } else {
            // Algorithm R: replace a uniform slot with probability slots/(seq+1).
            let j = mix(seq ^ self.seed) % (seq + 1);
            if j >= slots {
                self.reservoir_skipped.inc();
                return;
            }
            j
        } as usize;

        let slot = &self.slots[index];
        let version = slot.version.load(Ordering::Relaxed);
        if version & 1 == 1 {
            self.contended.inc();
            return;
        }
        if slot
            .version
            .compare_exchange(version, version + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.contended.inc();
            return;
        }
        let len = keys.len().min(MAX_SAMPLE_KEYS);
        for (i, &key) in keys.iter().take(len).enumerate() {
            slot.keys[i].store(key, Ordering::Relaxed);
        }
        slot.len.store(len as u32, Ordering::Relaxed);
        slot.version.store(version + 2, Ordering::Release);
        self.sampled.inc();
    }

    /// Copies every stable, non-empty sampled key-set out of the reservoir (scrape-time;
    /// allocates freely — never called from the serving path).
    pub fn samples(&self) -> Vec<Vec<DataId>> {
        let mut out = Vec::new();
        let mut scratch = [0u32; MAX_SAMPLE_KEYS];
        for slot in self.slots.iter() {
            // Seqlock read with one retry: torn or writer-owned slots are skipped.
            let mut sample = None;
            for _ in 0..2 {
                let before = slot.version.load(Ordering::Acquire);
                if before & 1 == 1 {
                    continue;
                }
                let len = (slot.len.load(Ordering::Relaxed) as usize).min(MAX_SAMPLE_KEYS);
                for (i, word) in scratch.iter_mut().enumerate().take(len) {
                    *word = slot.keys[i].load(Ordering::Relaxed);
                }
                if slot.version.load(Ordering::Acquire) == before {
                    sample = Some(len);
                    break;
                }
            }
            if let Some(len) = sample {
                if len >= 2 {
                    out.push(scratch[..len].to_vec());
                }
            }
        }
        out
    }

    /// Builds the observed co-access graph over `num_keys` data vertices from the current
    /// reservoir: one hyperedge per sampled multiget. Samples referencing keys at or beyond
    /// `num_keys` are discarded (they were observed before validation rejected the query).
    /// Returns `None` when nothing usable was sampled.
    ///
    /// # Errors
    /// Propagates graph-construction failures.
    pub fn observed_graph(&self, num_keys: usize) -> ShpResult<Option<BipartiteGraph>> {
        let samples = self.samples();
        let valid: Vec<&Vec<DataId>> = samples
            .iter()
            .filter(|keys| keys.iter().all(|&k| (k as usize) < num_keys))
            .collect();
        if valid.is_empty() {
            return Ok(None);
        }
        let mut builder = GraphBuilder::with_capacity(valid.len(), num_keys);
        builder.reserve_pins(valid.iter().map(|keys| keys.len()).sum());
        for keys in valid {
            builder.add_query_slice(keys);
        }
        builder.ensure_data_count(num_keys);
        Ok(Some(builder.build().map_err(ShpError::from)?))
    }

    /// The `k` hottest keys with approximate counts (count descending, ties by key).
    pub fn hot_keys(&self, k: usize) -> Vec<(DataId, u64)> {
        self.hot.top(k)
    }

    /// Scrape-time accounting. `recorded = sampled + singleton + reservoir_skipped +
    /// contended` holds whenever no `record` is concurrently in flight.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            recorded: self.recorded.value(),
            sampled: self.sampled.value(),
            singleton: self.singleton.value(),
            reservoir_skipped: self.reservoir_skipped.value(),
            contended: self.contended.value(),
        }
    }

    /// Empties the reservoir and restarts the sampling window (counters and the hot-key
    /// sketch keep their lifetime totals). Called by the controller after each drain so the
    /// next epoch observes fresh traffic.
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            let version = slot.version.load(Ordering::Relaxed);
            if version & 1 == 1 {
                // A writer owns the slot; its sample lands in the next window, which is fine.
                continue;
            }
            if slot
                .version
                .compare_exchange(version, version + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            slot.len.store(0, Ordering::Relaxed);
            slot.version.store(version + 2, Ordering::Release);
        }
        self.seq.store(0, Ordering::Relaxed);
    }
}

impl AccessObserver for AccessTraceCollector {
    #[inline]
    fn observe(&self, keys: &[DataId]) {
        self.record(keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_key_sets_and_builds_the_observed_graph() {
        let c = AccessTraceCollector::new(64, 7);
        c.record(&[0, 1, 2]);
        c.record(&[3, 4]);
        c.record(&[5]); // singleton: counted, not sampled
        let stats = c.stats();
        assert_eq!(stats.recorded, 3);
        assert_eq!(stats.sampled, 2);
        assert_eq!(stats.singleton, 1);

        let graph = c.observed_graph(6).unwrap().expect("two samples");
        assert_eq!(graph.num_queries(), 2);
        assert_eq!(graph.num_data(), 6);
        let mut edges: Vec<Vec<u32>> = graph
            .queries()
            .map(|q| graph.query_neighbors(q).to_vec())
            .collect();
        edges.sort();
        assert_eq!(edges, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn empty_reservoir_yields_no_graph() {
        let c = AccessTraceCollector::new(16, 0);
        assert!(c.observed_graph(10).unwrap().is_none());
        c.record(&[9]);
        assert!(c.observed_graph(10).unwrap().is_none());
    }

    #[test]
    fn out_of_range_samples_are_discarded_at_drain() {
        let c = AccessTraceCollector::new(16, 0);
        c.record(&[0, 1]);
        c.record(&[2, 99]);
        let graph = c.observed_graph(3).unwrap().expect("one valid sample");
        assert_eq!(graph.num_queries(), 1);
        assert_eq!(graph.num_data(), 3);
    }

    #[test]
    fn memory_is_bounded_and_accounting_is_complete() {
        let c = AccessTraceCollector::new(32, 3);
        let before = c.memory_bytes();
        for i in 0..10_000u32 {
            c.record(&[i % 100, (i + 1) % 100, (i + 2) % 100]);
        }
        assert_eq!(c.memory_bytes(), before);
        assert!(c.samples().len() <= 32);
        let stats = c.stats();
        assert_eq!(
            stats.recorded,
            stats.sampled + stats.singleton + stats.reservoir_skipped + stats.contended
        );
        // With 10k observations into 32 slots, the vast majority must be declined.
        assert!(stats.reservoir_skipped > 9_000);
    }

    #[test]
    fn reservoir_keeps_a_spread_of_the_trace_not_just_the_head() {
        let c = AccessTraceCollector::new(32, 11);
        // 1000 observations, each key-set identifying its observation number.
        for i in 0..1000u32 {
            c.record(&[2 * i, 2 * i + 1]);
        }
        let ids: Vec<u32> = c.samples().iter().map(|keys| keys[0] / 2).collect();
        assert!(!ids.is_empty());
        // Replacement happened: not every surviving sample is from the first 32.
        assert!(ids.iter().any(|&id| id >= 32), "no replacement: {ids:?}");
    }

    #[test]
    fn truncates_oversized_key_sets() {
        let c = AccessTraceCollector::new(16, 0);
        let big: Vec<u32> = (0..40).collect();
        c.record(&big);
        let samples = c.samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].len(), MAX_SAMPLE_KEYS);
        assert_eq!(samples[0], (0..MAX_SAMPLE_KEYS as u32).collect::<Vec<_>>());
    }

    #[test]
    fn reset_clears_samples_and_restarts_the_window() {
        let c = AccessTraceCollector::new(16, 5);
        c.record(&[1, 2]);
        c.record(&[3, 4]);
        assert_eq!(c.samples().len(), 2);
        c.reset();
        assert!(c.samples().is_empty());
        assert!(c.observed_graph(10).unwrap().is_none());
        // The window restarts: new samples fill from slot 0 again.
        c.record(&[5, 6]);
        assert_eq!(c.samples(), vec![vec![5, 6]]);
        // Lifetime counters are preserved across resets.
        assert_eq!(c.stats().recorded, 3);
    }

    #[test]
    fn hot_keys_reflect_frequency() {
        let c = AccessTraceCollector::new(16, 0);
        for _ in 0..10 {
            c.record(&[7, 8]);
        }
        c.record(&[1, 2]);
        let hot = c.hot_keys(2);
        assert_eq!(hot[0], (7, 10));
        assert_eq!(hot[1], (8, 10));
    }

    #[test]
    fn concurrent_recording_is_safe_and_loses_nothing_from_the_accounting() {
        let c = AccessTraceCollector::new(64, 9);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..5_000u32 {
                        c.record(&[t * 10_000 + i, t * 10_000 + i + 1]);
                    }
                });
            }
        });
        let stats = c.stats();
        assert_eq!(stats.recorded, 20_000);
        assert_eq!(
            stats.recorded,
            stats.sampled + stats.singleton + stats.reservoir_skipped + stats.contended
        );
        // Every surviving sample is a coherent pair (no torn key-sets).
        for sample in c.samples() {
            assert_eq!(sample.len(), 2);
            assert_eq!(sample[1], sample[0] + 1, "torn sample: {sample:?}");
        }
    }
}
