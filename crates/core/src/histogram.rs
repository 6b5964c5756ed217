//! Gain histograms with exponentially sized bins (the advanced swap scheme of Section 3.4).
//!
//! Instead of a single probability per bucket pair, the master keeps, for each ordered pair
//! `(i, j)`, a histogram of the candidates' gains in exponentially sized bins. Bins of the two
//! opposite directions are matched from the highest gain downwards; fully matched bins move
//! with probability one, the final partially matched bin moves with a fractional probability,
//! and a positive bin may be matched with a non-positive bin as long as the expected sum of the
//! paired gains stays positive. This focuses movement on the most valuable swaps first and
//! frees up additional movement compared to the basic swap matrix.

use crate::gains::MoveProposal;
use crate::pair_table::{PairLayout, PairTable};
use shp_hypergraph::BucketId;

/// Number of exponential gain bins per direction.
///
/// Layout (from best to worst): bins `0..POSITIVE_BINS` hold positive gains from the largest
/// magnitude down to the smallest, bin `POSITIVE_BINS` holds zero gains, and bins
/// `POSITIVE_BINS+1..NUM_BINS` hold negative gains from the smallest magnitude to the largest.
pub const NUM_BINS: usize = 2 * HALF_BINS + 1;
const HALF_BINS: usize = 24;
/// Largest binary exponent represented; gains of magnitude `≥ 2^MAX_EXP` land in the extreme
/// bins, gains of magnitude `< 2^(MAX_EXP − HALF_BINS + 1)` in the bins adjacent to zero.
const MAX_EXP: i32 = 11;

/// Maps a gain to its bin index (0 = best possible gain, `NUM_BINS - 1` = worst).
pub fn bin_index(gain: f64) -> usize {
    if gain == 0.0 {
        return HALF_BINS;
    }
    let magnitude = gain.abs();
    // Exponent clamped so every magnitude fits one of HALF_BINS bins.
    let exp = floor_log2(magnitude);
    let clamped = exp.clamp(MAX_EXP - HALF_BINS as i32 + 1, MAX_EXP);
    let offset = (MAX_EXP - clamped) as usize; // 0 for the largest magnitudes
    if gain > 0.0 {
        offset
    } else {
        NUM_BINS - 1 - offset
    }
}

/// `magnitude.log2().floor() as i32` for a positive `magnitude`, read from the exponent bits
/// where that is exact. `log2` can round a value within a few ulps below a power of two up to
/// that power, so a mantissa within 2⁻¹² of the next power — and a subnormal, infinite or NaN
/// value — is left to `log2` itself. Anywhere else `x < 2^(e+1)·(1 − 2⁻¹³)`, far more than
/// `log2`'s rounding error below `e + 1`, so its floor is the exponent `e`.
fn floor_log2(magnitude: f64) -> i32 {
    let bits = magnitude.to_bits();
    let biased = (bits >> 52) as i32;
    let top_mantissa = (bits >> 40) & 0xfff;
    if biased == 0 || biased == 0x7ff || top_mantissa == 0xfff {
        return magnitude.log2().floor() as i32;
    }
    biased - 1023
}

/// Representative gain of a bin, used when deciding whether a positive/negative bin pair is
/// still expected to be profitable: the geometric midpoint of the bin's range.
pub fn bin_representative(bin: usize) -> f64 {
    if bin == HALF_BINS {
        return 0.0;
    }
    let offset = if bin < HALF_BINS {
        bin
    } else {
        NUM_BINS - 1 - bin
    };
    let exp = MAX_EXP - offset as i32;
    let magnitude = 1.5 * (exp as f64).exp2();
    if bin < HALF_BINS {
        magnitude
    } else {
        -magnitude
    }
}

/// Gain histogram of one ordered bucket pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GainHistogram {
    counts: [u64; NUM_BINS],
}

impl Default for GainHistogram {
    fn default() -> Self {
        GainHistogram {
            counts: [0; NUM_BINS],
        }
    }
}

impl GainHistogram {
    /// Records one candidate with the given gain.
    pub fn record(&mut self, gain: f64) {
        self.counts[bin_index(gain)] += 1;
    }

    /// Number of candidates in `bin`.
    pub fn count(&self, bin: usize) -> u64 {
        self.counts[bin]
    }

    /// Total number of recorded candidates.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Records `count` candidates whose gains fall in `bin`.
    pub(crate) fn add(&mut self, bin: usize, count: u64) {
        self.counts[bin] += count;
    }

    /// Merges another histogram into this one (used when worker-local histograms are combined
    /// by the master).
    pub fn merge(&mut self, other: &GainHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// Histograms for every ordered bucket pair with at least one candidate, stored in a
/// [`PairTable`] laid out from the proposals it records (no hashing, no per-entry allocation,
/// and no growth on the record path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GainHistogramSet {
    histograms: PairTable<GainHistogram>,
}

impl Default for GainHistogramSet {
    fn default() -> Self {
        GainHistogramSet::with_layout(PairLayout::default())
    }
}

impl GainHistogramSet {
    /// An empty set that can record proposals of every pair of `layout`.
    pub fn with_layout(layout: PairLayout) -> Self {
        GainHistogramSet {
            histograms: PairTable::new(layout),
        }
    }

    /// Builds the histogram set from the full list of proposals (positive and non-positive).
    /// The table is laid out in one pass over the proposals, so recording never grows it.
    pub fn from_proposals(proposals: &[MoveProposal]) -> Self {
        GainHistogramSet::from_proposals_with_workers(proposals, 1)
    }

    /// Builds the histogram set over `workers` threads: the proposals lay the table out once,
    /// each worker accumulates a partial set on that layout over a contiguous chunk of the
    /// proposal list, and the partials are merged in chunk order. Bin counts are sums, so the
    /// result is identical for every worker count — this is the "worker-local histograms
    /// combined by the master" step of Section 3.4 executed on real threads.
    pub fn from_proposals_with_workers(proposals: &[MoveProposal], workers: usize) -> Self {
        let layout = PairLayout::from_pairs(proposals.iter().map(|p| (p.from, p.to)));
        let partials = rayon::pool::run_chunks(proposals.len(), workers, |range| {
            let mut set = GainHistogramSet::with_layout(layout.clone());
            for p in &proposals[range] {
                set.record(p);
            }
            set
        });
        let mut partials = partials.into_iter();
        let mut merged = partials
            .next()
            .unwrap_or_else(|| GainHistogramSet::with_layout(layout));
        for partial in partials {
            merged.merge(&partial);
        }
        merged
    }

    /// Records one proposal.
    ///
    /// # Panics
    /// Panics when the set's layout cannot hold the proposal's pair.
    pub fn record(&mut self, proposal: &MoveProposal) {
        self.histograms
            .entry(proposal.from, proposal.to)
            .record(proposal.gain);
    }

    /// Records `count` candidates of the pair `(from, to)` whose gains fall in `bin`.
    ///
    /// # Panics
    /// Panics when the set's layout cannot hold the pair, like [`GainHistogramSet::record`].
    pub(crate) fn add(&mut self, from: BucketId, to: BucketId, bin: usize, count: u64) {
        self.histograms.entry(from, to).add(bin, count);
    }

    /// Merges another set into this one.
    ///
    /// # Panics
    /// Panics when `other` holds a pair this set's layout cannot: the sets merged together
    /// (the partials of one build, the BSP workers' accumulators) share one layout.
    pub fn merge(&mut self, other: &GainHistogramSet) {
        for ((from, to), hist) in other.histograms.iter() {
            self.histograms.entry(from, to).merge(hist);
        }
    }

    /// The histogram of an ordered pair, if any candidate was recorded.
    pub fn get(&self, from: BucketId, to: BucketId) -> Option<&GainHistogram> {
        self.histograms.get(from, to)
    }

    /// Number of ordered pairs with candidates.
    pub fn num_pairs(&self) -> usize {
        self.histograms.len()
    }

    /// The ordered pairs with candidates, ascending.
    pub fn pairs(&self) -> impl Iterator<Item = (BucketId, BucketId)> + '_ {
        self.histograms.keys()
    }

    /// Matches bins of opposite directions for every unordered bucket pair, producing the
    /// per-bin move probabilities broadcast by the master. The result is laid out over the
    /// recorded pairs and their reverses.
    pub fn match_bins(&self) -> PairTable<[f64; NUM_BINS]> {
        // Visit unordered pairs once, in deterministic order.
        let mut pairs: Vec<(BucketId, BucketId)> = self
            .histograms
            .keys()
            .map(|(i, j)| if i < j { (i, j) } else { (j, i) })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let layout = PairLayout::from_pairs(pairs.iter().flat_map(|&(i, j)| [(i, j), (j, i)]));
        let mut result = PairTable::new(layout);

        let empty = GainHistogram::default();
        for (i, j) in pairs {
            let forward = self.histograms.get(i, j).unwrap_or(&empty);
            let backward = self.histograms.get(j, i).unwrap_or(&empty);
            let (probs_forward, probs_backward) = match_pair(forward, backward);
            result.insert(i, j, probs_forward);
            result.insert(j, i, probs_backward);
        }
        result
    }
}

/// Matches the bins of the two directions of one bucket pair, returning per-bin move
/// probabilities for each direction.
fn match_pair(a: &GainHistogram, b: &GainHistogram) -> ([f64; NUM_BINS], [f64; NUM_BINS]) {
    let mut matched_a = [0u64; NUM_BINS];
    let mut matched_b = [0u64; NUM_BINS];
    let mut remaining_a = a.counts;
    let mut remaining_b = b.counts;
    let mut ia = 0usize;
    let mut ib = 0usize;

    loop {
        // Skip empty bins.
        while ia < NUM_BINS && remaining_a[ia] == 0 {
            ia += 1;
        }
        while ib < NUM_BINS && remaining_b[ib] == 0 {
            ib += 1;
        }
        if ia >= NUM_BINS || ib >= NUM_BINS {
            break;
        }
        // Pair the currently best bins of the two sides if the expected summed gain of a swap
        // drawn from them is positive.
        if bin_representative(ia) + bin_representative(ib) <= 0.0 {
            break;
        }
        let m = remaining_a[ia].min(remaining_b[ib]);
        matched_a[ia] += m;
        matched_b[ib] += m;
        remaining_a[ia] -= m;
        remaining_b[ib] -= m;
    }

    let to_probs = |matched: &[u64; NUM_BINS], counts: &[u64; NUM_BINS]| {
        let mut probs = [0.0f64; NUM_BINS];
        for bin in 0..NUM_BINS {
            if counts[bin] > 0 {
                probs[bin] = matched[bin] as f64 / counts[bin] as f64;
            }
        }
        probs
    };
    (
        to_probs(&matched_a, &a.counts),
        to_probs(&matched_b, &b.counts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proposal(vertex: u32, from: u32, to: u32, gain: f64) -> MoveProposal {
        MoveProposal {
            vertex,
            from,
            to,
            gain,
        }
    }

    #[test]
    fn bin_index_orders_gains_from_best_to_worst() {
        let gains = [100.0, 10.0, 1.0, 0.1, 0.0, -0.1, -1.0, -10.0, -100.0];
        let bins: Vec<usize> = gains.iter().map(|&g| bin_index(g)).collect();
        for w in bins.windows(2) {
            assert!(
                w[0] <= w[1],
                "bins must be non-decreasing as gains get worse: {bins:?}"
            );
        }
        assert_eq!(bin_index(0.0), HALF_BINS);
        assert!(bin_index(1000.0) < bin_index(1.0));
        assert!(bin_index(-1000.0) > bin_index(-1.0));
    }

    #[test]
    fn floor_log2_equals_the_floor_of_log2() {
        // Around every power of two in and beyond the binned range, a few ulps either side,
        // plus the extremes and a sweep of ordinary values.
        let mut values = vec![f64::MIN_POSITIVE, f64::MAX, f64::INFINITY, 5e-324, 1e-310];
        for e in -60..=60 {
            let power = (e as f64).exp2();
            for ulps in 0..=64u64 {
                values.push(f64::from_bits(power.to_bits() + ulps));
                values.push(f64::from_bits(power.to_bits() - ulps));
            }
            values.push(power * (1.0 - 1.0 / 8192.0));
            values.push(power * 1.5);
        }
        let mut x = 1e-9f64;
        while x < 1e9 {
            values.push(x);
            x *= 1.000_37;
        }
        for v in values {
            assert_eq!(
                floor_log2(v),
                v.log2().floor() as i32,
                "{v:e} ({:#x})",
                v.to_bits()
            );
        }
    }

    #[test]
    fn bin_representative_has_correct_sign_and_order() {
        assert_eq!(bin_representative(HALF_BINS), 0.0);
        assert!(bin_representative(0) > bin_representative(1));
        assert!(bin_representative(0) > 0.0);
        assert!(bin_representative(NUM_BINS - 1) < 0.0);
        // The representative lies within (or at least near) its own bin for mid-range gains.
        for gain in [0.5, 2.0, 7.0, -0.25, -3.0] {
            let bin = bin_index(gain);
            let rep = bin_representative(bin);
            assert_eq!(
                rep.signum(),
                gain.signum(),
                "gain {gain} bin {bin} rep {rep}"
            );
            assert!(rep.abs() >= gain.abs() / 2.0 && rep.abs() <= gain.abs() * 3.0);
        }
    }

    #[test]
    fn extreme_gains_are_clamped_into_valid_bins() {
        assert!(bin_index(1e30) < NUM_BINS);
        assert!(bin_index(-1e30) < NUM_BINS);
        assert!(bin_index(1e-30) < NUM_BINS);
        assert!(bin_index(-1e-30) < NUM_BINS);
        assert_eq!(bin_index(1e30), 0);
        assert_eq!(bin_index(-1e30), NUM_BINS - 1);
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut h = GainHistogram::default();
        h.record(2.0);
        h.record(2.5);
        h.record(-1.0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(bin_index(2.0)), 2);
        let mut other = GainHistogram::default();
        other.record(2.0);
        h.merge(&other);
        assert_eq!(h.count(bin_index(2.0)), 3);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn balanced_positive_demand_moves_everything() {
        // 3 candidates each way, all with clearly positive gains: every bin fully matched.
        let mut proposals = Vec::new();
        for v in 0..3 {
            proposals.push(proposal(v, 0, 1, 4.0));
        }
        for v in 3..6 {
            proposals.push(proposal(v, 1, 0, 4.0));
        }
        let set = GainHistogramSet::from_proposals(&proposals);
        let probs = MoveProbabilitiesForTest::from(set);
        for p in &proposals {
            assert!((probs.probability(p) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unbalanced_demand_moves_best_gains_first() {
        // Direction 0->1 has one high-gain and three low-gain candidates; direction 1->0 has a
        // single candidate. Only the best 0->1 candidate should move (probability 1), the
        // low-gain ones should not.
        let proposals = vec![
            proposal(0, 0, 1, 8.0),
            proposal(1, 0, 1, 0.5),
            proposal(2, 0, 1, 0.5),
            proposal(3, 0, 1, 0.5),
            proposal(4, 1, 0, 6.0),
        ];
        let set = GainHistogramSet::from_proposals(&proposals);
        let probs = MoveProbabilitiesForTest::from(set);
        assert!((probs.probability(&proposals[0]) - 1.0).abs() < 1e-12);
        assert_eq!(probs.probability(&proposals[1]), 0.0);
        assert!((probs.probability(&proposals[4]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_bins_get_fractional_probability() {
        // 4 same-gain candidates one way, 2 the other: the larger side moves with prob 0.5.
        let mut proposals = Vec::new();
        for v in 0..4 {
            proposals.push(proposal(v, 0, 1, 2.0));
        }
        for v in 4..6 {
            proposals.push(proposal(v, 1, 0, 2.0));
        }
        let set = GainHistogramSet::from_proposals(&proposals);
        let probs = MoveProbabilitiesForTest::from(set);
        assert!((probs.probability(&proposals[0]) - 0.5).abs() < 1e-12);
        assert!((probs.probability(&proposals[5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn positive_bin_can_pair_with_negative_bin_when_sum_is_positive() {
        // One candidate with gain +8 and an opposite candidate with gain -1: the pair is
        // expected to be profitable, so both should move.
        let proposals = vec![proposal(0, 0, 1, 8.0), proposal(1, 1, 0, -1.0)];
        let set = GainHistogramSet::from_proposals(&proposals);
        let probs = MoveProbabilitiesForTest::from(set);
        assert!((probs.probability(&proposals[0]) - 1.0).abs() < 1e-12);
        assert!((probs.probability(&proposals[1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_pair_with_negative_sum_does_not_move() {
        let proposals = vec![proposal(0, 0, 1, 1.0), proposal(1, 1, 0, -8.0)];
        let set = GainHistogramSet::from_proposals(&proposals);
        let probs = MoveProbabilitiesForTest::from(set);
        assert_eq!(probs.probability(&proposals[0]), 0.0);
        assert_eq!(probs.probability(&proposals[1]), 0.0);
    }

    #[test]
    fn parallel_build_matches_sequential_for_every_worker_count() {
        // A large synthetic proposal list spanning many bucket pairs and gain magnitudes.
        let proposals: Vec<MoveProposal> = (0..10_000u32)
            .map(|v| {
                proposal(
                    v,
                    v % 7,
                    (v + 1 + v % 5) % 7,
                    ((v % 97) as f64 - 48.0) / 3.0,
                )
            })
            .collect();
        let sequential = GainHistogramSet::from_proposals(&proposals);
        for workers in [1usize, 2, 4, 8] {
            let parallel = GainHistogramSet::from_proposals_with_workers(&proposals, workers);
            assert_eq!(parallel, sequential, "workers={workers}");
        }
    }

    #[test]
    fn histogram_set_merge_combines_pairs() {
        let layout = PairLayout::from_pairs([(0, 1), (2, 3)]);
        let mut a = GainHistogramSet::with_layout(layout.clone());
        a.record(&proposal(0, 0, 1, 1.0));
        let mut b = GainHistogramSet::with_layout(layout);
        b.record(&proposal(1, 0, 1, 1.0));
        b.record(&proposal(2, 2, 3, 1.0));
        a.merge(&b);
        assert_eq!(a.num_pairs(), 2);
        assert_eq!(a.get(0, 1).unwrap().total(), 2);
        assert_eq!(a.get(2, 3).unwrap().total(), 1);
        assert!(a.get(3, 2).is_none());
    }

    /// Small adapter so tests exercise the same lookup path as the refinement loop without
    /// depending on `crate::swap` (avoiding a circular dev-dependency in the test module).
    struct MoveProbabilitiesForTest {
        table: PairTable<[f64; NUM_BINS]>,
    }

    impl From<GainHistogramSet> for MoveProbabilitiesForTest {
        fn from(set: GainHistogramSet) -> Self {
            MoveProbabilitiesForTest {
                table: set.match_bins(),
            }
        }
    }

    impl MoveProbabilitiesForTest {
        fn probability(&self, p: &MoveProposal) -> f64 {
            self.table
                .get(p.from, p.to)
                .map(|bins| bins[bin_index(p.gain)])
                .unwrap_or(0.0)
        }
    }
}
