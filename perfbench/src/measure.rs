//! Measurement helpers: order statistics, process memory, a seeded RNG, Zipf sampling and a
//! latency reservoir.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The highest of p50, p90 and p99 that has at least ten samples beyond it, as
/// `(label, value)`; the maximum (`"max"`) when fewer than eleven samples exist. Rarer
/// percentiles are left out: on a shared two-thread host they measure scheduler stalls.
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut best = ("max", sorted.last().copied().unwrap_or(f64::NAN));
    for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        // Nearest-rank percentile: index `ceil(q·n) − 1`, leaving `n − 1 − index` beyond it.
        let index = ((q * n as f64).ceil() as usize).max(1) - 1;
        if n >= 11 && n - 1 - index >= 10 {
            best = (label, sorted[index]);
        }
    }
    best
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`) in MB; 0 where unavailable.
fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM")
}

/// Current resident set of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS")
}

/// SplitMix64: a tiny seeded generator, so inputs depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf-distributed draws over `0..n` with exponent `s`, with ranks shuffled by the seed so
/// the hot items are spread over the id space.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    rank_to_item: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut SplitMix) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut rank_to_item: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            rank_to_item.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf { cdf, rank_to_item }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.rank_to_item[rank]
    }
}

/// A uniform sample of at most `capacity` latencies (Algorithm R), so percentiles come from
/// raw values in bounded memory however many calls a run makes.
#[derive(Debug)]
pub struct Reservoir {
    samples: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: SplitMix,
}

impl Reservoir {
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            samples: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng: SplitMix::new(seed),
        }
    }

    pub fn record(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            let slot = self.rng.below(self.seen) as usize;
            if slot < self.capacity {
                self.samples[slot] = value;
            }
        }
    }

    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

/// Samples `VmRSS` every few milliseconds on a background thread while `f` runs, returning
/// `f`'s result and the `(offset from start, MB)` samples.
pub fn with_rss_sampler<T>(f: impl FnOnce() -> T) -> (T, Vec<(Duration, f64)>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            while !done.load(Ordering::Acquire) {
                samples.push((start.elapsed(), rss_mb()));
                std::thread::sleep(Duration::from_millis(5));
            }
            samples
        });
        let result = f();
        done.store(true, Ordering::Release);
        let samples = sampler.join().expect("RSS sampler thread panicked");
        (result, samples)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0, 5.0]), ("max", 5.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), ("p99", 990.0));
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let zipf = Zipf::new(1000, 1.0, &mut SplitMix::new(1));
        let mut a = SplitMix::new(9);
        let mut b = SplitMix::new(9);
        let draws: Vec<u32> = (0..5000).map(|_| zipf.sample(&mut a)).collect();
        assert!(draws.iter().all(|&d| d == zipf.sample(&mut b)));
        let hottest = zipf.rank_to_item[0];
        let hits = draws.iter().filter(|&&d| d == hottest).count();
        assert!(hits > 300, "rank 1 drew {hits} of 5000");
    }
}
