//! # shp-faults
//!
//! Deterministic, replayable fault injection for the serving tier.
//!
//! The Social Hash system the paper sits inside serves multiget traffic from machines that
//! crash, straggle, and get replaced; the two-level design (graph buckets → physical shards,
//! plus replication for read scaling) exists so the assigner can react to failures without
//! recomputing the partition. Exercising that reaction requires failures on demand — and for
//! CI to assert the outcome, the *same* failures on every run.
//!
//! A [`FaultPlan`] scripts per-shard fault schedules on a logical **query clock**: every
//! executed multiget advances the tick by one, and every schedule window is expressed in
//! ticks. Three fault kinds compose:
//!
//! * **down windows** — the shard refuses all requests during `[from, to)` (crash at `from`,
//!   recover at `to`; `to = u64::MAX` is a dead shard);
//! * **slow windows** — the shard serves, but its sampled service time is multiplied by a
//!   straggler factor (the hedged-retry trigger);
//! * **request drops** — each attempt against the shard is independently lost with a fixed
//!   probability, drawn from the vendored PCG seeded by a pure hash of
//!   `(seed, shard, tick, attempt)`.
//!
//! Every decision a [`FaultInjector`] makes is a pure function of the plan, the injector
//! seed, and the query tick — no shared RNG streams, no wall clock. Two runs over the same
//! query sequence observe byte-identical faults, and an **empty plan is indistinguishable
//! from no injector at all** (the conformance property the serving tests pin down): the
//! injector never changes which requests a shard serves, so healthy shards draw the exact
//! same service times with or without it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::{RngCore, SeedableRng};
use rand_pcg::Pcg64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 finalizer: the bijective mixer behind every scripted fault decision.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The scripted fault schedule of one shard (see [`FaultPlan`]).
#[derive(Debug, Clone, Default, PartialEq)]
struct ShardSchedule {
    /// Tick windows `[from, to)` during which the shard is down.
    down: Vec<(u64, u64)>,
    /// Tick windows `[from, to)` with a service-time multiplier (straggler phases).
    slow: Vec<(u64, u64, f64)>,
    /// Probability that any single attempt against the shard is lost.
    drop_probability: f64,
}

/// A deterministic per-shard fault script, expressed on the logical query clock.
///
/// Built in builder style and handed to a [`FaultInjector`]:
///
/// ```
/// use shp_faults::{FaultInjector, FaultPlan};
///
/// let plan = FaultPlan::new()
///     .kill(1, 100, 400)          // shard 1 crashes at query 100, recovers at 400
///     .crash(0, 1_000)            // shard 0 dies at query 1000 and never comes back
///     .slow(2, 0, u64::MAX, 4.0)  // shard 2 is a permanent 4x straggler
///     .drop_requests(3, 0.05);    // shard 3 loses 5% of attempts
/// let injector = FaultInjector::new(plan, 0xFA17);
/// assert!(!injector.is_down(1, 99));
/// assert!(injector.is_down(1, 100));
/// assert!(!injector.is_down(1, 400));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    schedules: BTreeMap<u32, ShardSchedule>,
}

impl FaultPlan {
    /// An empty plan: no shard ever fails. An injector carrying it behaves byte-identically
    /// to no injector at all.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan scripts no faults at all.
    pub fn is_empty(&self) -> bool {
        self.schedules.is_empty()
    }

    /// Scripts `shard` down for the tick window `[from, to)`.
    pub fn kill(mut self, shard: u32, from: u64, to: u64) -> Self {
        self.schedules
            .entry(shard)
            .or_default()
            .down
            .push((from, to));
        self
    }

    /// Scripts `shard` to crash at tick `at` and never recover.
    pub fn crash(self, shard: u32, at: u64) -> Self {
        self.kill(shard, at, u64::MAX)
    }

    /// Scripts `shard` as a straggler for `[from, to)`: sampled service times are multiplied
    /// by `factor` (> 1.0 to slow it down).
    pub fn slow(mut self, shard: u32, from: u64, to: u64, factor: f64) -> Self {
        self.schedules
            .entry(shard)
            .or_default()
            .slow
            .push((from, to, factor));
        self
    }

    /// Scripts `shard` to lose each attempt independently with `probability` (clamped to
    /// `[0, 1]`).
    pub fn drop_requests(mut self, shard: u32, probability: f64) -> Self {
        self.schedules.entry(shard).or_default().drop_probability = probability.clamp(0.0, 1.0);
        self
    }

    fn schedule(&self, shard: u32) -> Option<&ShardSchedule> {
        self.schedules.get(&shard)
    }
}

/// Deterministic latency costs of the failover/retry machinery, in multiples of the latency
/// model's mean service time.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// What a failed attempt (down shard or dropped request) costs before the client gives
    /// up on it: the client-side timeout.
    pub timeout_factor: f64,
    /// Backoff added before retry attempt `k` (cost `k * backoff_factor` mean service times)
    /// — the deterministic budgeted backoff between failover candidates.
    pub backoff_factor: f64,
    /// Delay after which a hedged duplicate is sent to the next replica when the serving
    /// shard is flagged slow.
    pub hedge_delay_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_factor: 8.0,
            backoff_factor: 1.0,
            hedge_delay_factor: 2.0,
        }
    }
}

/// Applies a [`FaultPlan`] to live traffic: owns the logical query clock and answers
/// down/slow/drop questions as pure functions of `(plan, seed, shard, tick)`.
///
/// The only mutable state is the clock ([`FaultInjector::begin_query`] ticks it once per
/// executed multiget); everything else is stateless, which is what makes fault schedules
/// replayable and two identically-seeded runs byte-identical.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    policy: RetryPolicy,
    clock: AtomicU64,
}

impl FaultInjector {
    /// Creates an injector applying `plan`, with drop draws keyed by `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector {
            plan,
            seed,
            policy: RetryPolicy::default(),
            clock: AtomicU64::new(0),
        }
    }

    /// Replaces the retry/hedging cost policy (builder style).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The scripted plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The retry/hedging cost policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Advances the query clock and returns the tick the beginning query runs at.
    pub fn begin_query(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The tick the *next* query will run at (queries served so far).
    pub fn current_tick(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Whether `shard` is scripted down at `tick`.
    pub fn is_down(&self, shard: u32, tick: u64) -> bool {
        self.plan
            .schedule(shard)
            .is_some_and(|s| s.down.iter().any(|&(from, to)| tick >= from && tick < to))
    }

    /// The service-time multiplier of `shard` at `tick` (`1.0` when not scripted slow;
    /// overlapping slow windows multiply).
    pub fn slow_factor(&self, shard: u32, tick: u64) -> f64 {
        match self.plan.schedule(shard) {
            None => 1.0,
            Some(s) => s
                .slow
                .iter()
                .filter(|&&(from, to, _)| tick >= from && tick < to)
                .map(|&(_, _, factor)| factor)
                .product(),
        }
    }

    /// Whether attempt number `attempt` of the query at `tick` against `shard` is lost.
    ///
    /// The draw comes from a throwaway [`Pcg64`] seeded by a pure hash of
    /// `(seed, shard, tick, attempt)`, so it is independent of every other decision and
    /// identical on replay. A shard with no scripted drop probability costs one branch.
    pub fn drops(&self, shard: u32, tick: u64, attempt: u64) -> bool {
        let Some(schedule) = self.plan.schedule(shard) else {
            return false;
        };
        if schedule.drop_probability <= 0.0 {
            return false;
        }
        if schedule.drop_probability >= 1.0 {
            return true;
        }
        let key = mix64(self.seed ^ mix64((u64::from(shard) << 34) ^ (attempt << 56) ^ tick));
        let mut rng = Pcg64::seed_from_u64(key);
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < schedule.drop_probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let inj = FaultInjector::new(FaultPlan::new(), 1);
        assert!(inj.plan().is_empty());
        for shard in 0..4 {
            for tick in [0, 1, 1000, u64::MAX - 1] {
                assert!(!inj.is_down(shard, tick));
                assert_eq!(inj.slow_factor(shard, tick), 1.0);
                assert!(!inj.drops(shard, tick, 0));
            }
        }
    }

    #[test]
    fn down_windows_are_half_open_and_per_shard() {
        let inj = FaultInjector::new(FaultPlan::new().kill(2, 10, 20).crash(3, 5), 1);
        assert!(!inj.is_down(2, 9));
        assert!(inj.is_down(2, 10));
        assert!(inj.is_down(2, 19));
        assert!(!inj.is_down(2, 20));
        assert!(!inj.is_down(0, 15));
        assert!(inj.is_down(3, u64::MAX - 1), "a crash never recovers");
        assert!(!inj.is_down(3, 4));
    }

    #[test]
    fn slow_windows_multiply_and_default_to_unity() {
        let plan = FaultPlan::new().slow(1, 0, 100, 3.0).slow(1, 50, 100, 2.0);
        let inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.slow_factor(1, 10), 3.0);
        assert_eq!(inj.slow_factor(1, 60), 6.0);
        assert_eq!(inj.slow_factor(1, 100), 1.0);
        assert_eq!(inj.slow_factor(0, 10), 1.0);
    }

    #[test]
    fn drops_are_deterministic_and_roughly_calibrated() {
        let a = FaultInjector::new(FaultPlan::new().drop_requests(0, 0.25), 7);
        let b = FaultInjector::new(FaultPlan::new().drop_requests(0, 0.25), 7);
        let mut dropped = 0u32;
        for tick in 0..4000u64 {
            let d = a.drops(0, tick, 0);
            assert_eq!(d, b.drops(0, tick, 0), "replay diverged at tick {tick}");
            dropped += u32::from(d);
        }
        // ~25% of 4000 with deterministic draws; generous tolerance.
        assert!((800..1200).contains(&dropped), "dropped {dropped} of 4000");
        // A different seed produces a different (but internally deterministic) sequence.
        let c = FaultInjector::new(FaultPlan::new().drop_requests(0, 0.25), 8);
        let diverges = (0..4000u64).any(|t| c.drops(0, t, 0) != a.drops(0, t, 0));
        assert!(diverges);
    }

    #[test]
    fn drop_extremes_shortcut() {
        let never = FaultInjector::new(FaultPlan::new().drop_requests(0, 0.0), 1);
        let always = FaultInjector::new(FaultPlan::new().drop_requests(0, 7.5), 1);
        for tick in 0..100 {
            assert!(!never.drops(0, tick, 0));
            assert!(always.drops(0, tick, 1), "probability clamps to 1");
        }
    }

    #[test]
    fn attempts_draw_independently() {
        let inj = FaultInjector::new(FaultPlan::new().drop_requests(0, 0.5), 3);
        let differs = (0..200u64).any(|tick| inj.drops(0, tick, 0) != inj.drops(0, tick, 1));
        assert!(differs, "attempt index must vary the draw");
    }

    #[test]
    fn query_clock_ticks_once_per_query() {
        let inj = FaultInjector::new(FaultPlan::new(), 1);
        assert_eq!(inj.current_tick(), 0);
        assert_eq!(inj.begin_query(), 0);
        assert_eq!(inj.begin_query(), 1);
        assert_eq!(inj.current_tick(), 2);
    }

    #[test]
    fn policy_is_overridable() {
        let inj = FaultInjector::new(FaultPlan::new(), 1).with_policy(RetryPolicy {
            timeout_factor: 2.0,
            backoff_factor: 0.5,
            hedge_delay_factor: 1.0,
        });
        assert_eq!(inj.policy().timeout_factor, 2.0);
        assert_eq!(RetryPolicy::default().timeout_factor, 8.0);
    }
}
