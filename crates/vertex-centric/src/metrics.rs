//! Communication and execution accounting.
//!
//! Because the engine simulates a Giraph cluster in-process, the interesting "distributed"
//! quantities — how many messages cross worker boundaries, how many bytes move per superstep,
//! how balanced the per-worker load is — are recorded explicitly instead of being implied by
//! network traffic. Section 3.3 of the SHP paper bounds communication by `O(fanout · |E|)` per
//! iteration; the benchmarks verify that bound against these counters.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters for a single superstep.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SuperstepMetrics {
    /// Superstep index (0-based).
    pub superstep: usize,
    /// Number of vertices whose compute function ran.
    pub active_vertices: usize,
    /// Total messages sent during the superstep.
    pub messages_sent: u64,
    /// Messages whose destination vertex lives on a different worker than the sender.
    pub remote_messages: u64,
    /// Total estimated bytes of all messages sent.
    pub bytes_sent: u64,
    /// Estimated bytes of remote messages only.
    pub remote_bytes: u64,
    /// Messages eliminated by the combiner before delivery.
    pub combined_messages: u64,
    /// Wall-clock duration of the superstep: grouping the delivered messages and compute on
    /// the workers, then merging their results and the master compute.
    #[serde(with = "duration_micros")]
    pub duration: Duration,
    /// Number of vertices processed by the busiest worker (load-balance indicator).
    pub max_worker_vertices: usize,
}

/// Counters for an entire engine run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionMetrics {
    /// Number of simulated workers.
    pub num_workers: usize,
    /// Per-superstep counters in execution order.
    pub supersteps: Vec<SuperstepMetrics>,
}

impl ExecutionMetrics {
    /// Creates an empty metrics record for a run with the given worker count.
    pub fn new(num_workers: usize) -> Self {
        ExecutionMetrics {
            num_workers,
            supersteps: Vec::new(),
        }
    }

    /// Number of supersteps executed.
    pub fn num_supersteps(&self) -> usize {
        self.supersteps.len()
    }

    /// Total messages sent across all supersteps.
    pub fn total_messages(&self) -> u64 {
        self.supersteps.iter().map(|s| s.messages_sent).sum()
    }

    /// Total messages that crossed a worker boundary.
    pub fn total_remote_messages(&self) -> u64 {
        self.supersteps.iter().map(|s| s.remote_messages).sum()
    }

    /// Total estimated bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.supersteps.iter().map(|s| s.bytes_sent).sum()
    }

    /// Total estimated bytes that crossed a worker boundary.
    pub fn total_remote_bytes(&self) -> u64 {
        self.supersteps.iter().map(|s| s.remote_bytes).sum()
    }

    /// Total wall-clock time across supersteps.
    pub fn total_duration(&self) -> Duration {
        self.supersteps.iter().map(|s| s.duration).sum()
    }

    /// "Total time" in the paper's sense for Figure 5b: wall-clock run time multiplied by the
    /// number of workers (machines), i.e. aggregate machine-time consumed.
    pub fn total_machine_time(&self) -> Duration {
        self.total_duration() * self.num_workers as u32
    }

    /// Fraction of messages that were remote (0 when no messages were sent).
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_messages();
        if total == 0 {
            0.0
        } else {
            self.total_remote_messages() as f64 / total as f64
        }
    }

    /// Appends the counters of another run (used when one logical algorithm performs several
    /// engine runs, e.g. recursive bisection levels).
    pub fn absorb(&mut self, other: &ExecutionMetrics) {
        self.supersteps.extend(other.supersteps.iter().cloned());
    }
}

mod duration_micros {
    //! Serializes [`std::time::Duration`] as integer microseconds so the metrics can be stored
    //! in JSON experiment reports.
    // Referenced by `#[serde(with = ...)]`; the vendored no-op derive does not expand to calls,
    // so these helpers look dead to rustc until a real serde backend is enabled.
    #![allow(dead_code)]
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        (d.as_micros() as u64).serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let micros = u64::deserialize(d)?;
        Ok(Duration::from_micros(micros))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_superstep(i: usize, msgs: u64, remote: u64) -> SuperstepMetrics {
        SuperstepMetrics {
            superstep: i,
            active_vertices: 10,
            messages_sent: msgs,
            remote_messages: remote,
            bytes_sent: msgs * 8,
            remote_bytes: remote * 8,
            combined_messages: 0,
            duration: Duration::from_millis(5),
            max_worker_vertices: 4,
        }
    }

    #[test]
    fn totals_sum_over_supersteps() {
        let mut m = ExecutionMetrics::new(4);
        m.supersteps.push(sample_superstep(0, 100, 75));
        m.supersteps.push(sample_superstep(1, 50, 10));
        assert_eq!(m.num_supersteps(), 2);
        assert_eq!(m.total_messages(), 150);
        assert_eq!(m.total_remote_messages(), 85);
        assert_eq!(m.total_bytes(), 1200);
        assert_eq!(m.total_remote_bytes(), 680);
        assert_eq!(m.total_duration(), Duration::from_millis(10));
        assert_eq!(m.total_machine_time(), Duration::from_millis(40));
        assert!((m.remote_fraction() - 85.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_have_zero_remote_fraction() {
        let m = ExecutionMetrics::new(2);
        assert_eq!(m.remote_fraction(), 0.0);
        assert_eq!(m.total_messages(), 0);
        assert_eq!(m.total_duration(), Duration::ZERO);
    }

    #[test]
    fn absorb_concatenates_supersteps() {
        let mut a = ExecutionMetrics::new(4);
        a.supersteps.push(sample_superstep(0, 10, 5));
        let mut b = ExecutionMetrics::new(4);
        b.supersteps.push(sample_superstep(0, 20, 5));
        b.supersteps.push(sample_superstep(1, 30, 15));
        a.absorb(&b);
        assert_eq!(a.num_supersteps(), 3);
        assert_eq!(a.total_messages(), 60);
    }
}
