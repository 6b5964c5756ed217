//! Swap coordination: the swap matrix `S` and bucket-pair move probabilities.
//!
//! After every data vertex has picked a target bucket, the master must decide how many of the
//! candidates may actually move so that balance is preserved. The basic scheme of Algorithm 1
//! counts candidates per ordered bucket pair in the matrix `S` and lets each candidate move
//! with probability `min(S_ij, S_ji) / S_ij`, so the expected flow in the two directions is
//! equal. The advanced scheme (Section 3.4, implemented in [`crate::histogram`]) refines this
//! with per-gain-bin probabilities.

use crate::gains::MoveProposal;
use crate::histogram::{bin_index, bin_representative, GainHistogramSet, NUM_BINS};
use crate::pair_table::{PairLayout, PairTable};
use shp_hypergraph::BucketId;

/// The swap matrix `S`: `S[(i, j)]` is the number of data vertices currently in bucket `i`
/// whose best target is bucket `j`. Stored in a [`PairTable`] laid out from the counted
/// proposals (O(1) hash-free counting over the pairs the proposals span, not `k²` slots).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapMatrix {
    counts: PairTable<u64>,
}

impl Default for SwapMatrix {
    fn default() -> Self {
        SwapMatrix {
            counts: PairTable::new(PairLayout::default()),
        }
    }
}

impl SwapMatrix {
    /// Builds the swap matrix from a set of proposals, counting only strictly improving moves
    /// (matching the `if gain > 0` condition of Algorithm 1).
    pub fn from_proposals(proposals: &[MoveProposal]) -> Self {
        let improving = || proposals.iter().filter(|p| p.gain > 0.0);
        let layout = PairLayout::from_pairs(improving().map(|p| (p.from, p.to)));
        let mut counts = PairTable::new(layout);
        for p in improving() {
            *counts.entry(p.from, p.to) += 1;
        }
        SwapMatrix { counts }
    }

    /// Builds the swap matrix from gain histograms: `S_ij` counts the candidates in the
    /// positive-gain bins of `(i, j)`, which are exactly the proposals
    /// [`SwapMatrix::from_proposals`] counts. The BSP master derives its basic-scheme
    /// probabilities this way from the workers' merged histograms.
    pub fn from_histograms(set: &GainHistogramSet) -> Self {
        let mut counts = PairTable::new(PairLayout::from_pairs(set.pairs()));
        for (i, j) in set.pairs() {
            let histogram = set.get(i, j).expect("a recorded pair has a histogram");
            let positive: u64 = (0..NUM_BINS)
                .filter(|&bin| bin_representative(bin) > 0.0)
                .map(|bin| histogram.count(bin))
                .sum();
            if positive > 0 {
                counts.insert(i, j, positive);
            }
        }
        SwapMatrix { counts }
    }

    /// Number of candidates wanting to move from `i` to `j`.
    pub fn count(&self, i: BucketId, j: BucketId) -> u64 {
        self.counts.get(i, j).copied().unwrap_or(0)
    }

    /// Number of non-zero entries.
    pub fn num_entries(&self) -> usize {
        self.counts.len()
    }

    /// Total number of counted candidates.
    pub fn total_candidates(&self) -> u64 {
        self.counts.iter().map(|(_, &c)| c).sum()
    }

    /// Computes the basic move probabilities `min(S_ij, S_ji) / S_ij` for every ordered pair
    /// with candidates.
    pub fn move_probabilities(&self) -> MoveProbabilities {
        let mut probs = PairTable::new(self.counts.layout().clone());
        for ((i, j), &s_ij) in self.counts.iter() {
            if s_ij == 0 {
                continue;
            }
            let s_ji = self.count(j, i);
            let p = s_ij.min(s_ji) as f64 / s_ij as f64;
            probs.insert(i, j, p);
        }
        MoveProbabilities::Matrix(probs)
    }
}

/// Move probabilities broadcast by the master: either one probability per ordered bucket pair
/// (basic scheme) or one per (bucket pair, gain bin) (histogram scheme).
#[derive(Debug, Clone, PartialEq)]
pub enum MoveProbabilities {
    /// `probability[(i, j)]` applies to every candidate moving from `i` to `j`.
    Matrix(PairTable<f64>),
    /// `probability[(i, j)][bin]` applies to candidates moving from `i` to `j` whose gain falls
    /// in `bin` (see [`crate::histogram::bin_index`]).
    Histogram(PairTable<[f64; NUM_BINS]>),
}

impl MoveProbabilities {
    /// Probability with which the given proposal is allowed to move.
    pub fn probability(&self, proposal: &MoveProposal) -> f64 {
        self.probability_in_bin(proposal, bin_index(proposal.gain))
    }

    /// [`MoveProbabilities::probability`] for a proposal whose gain falls in `bin` (see
    /// [`crate::histogram::bin_index`]), so a gain binned once serves every lookup.
    pub(crate) fn probability_in_bin(&self, proposal: &MoveProposal, bin: usize) -> f64 {
        match self {
            MoveProbabilities::Matrix(probs) => {
                if proposal.gain > 0.0 {
                    probs
                        .get(proposal.from, proposal.to)
                        .copied()
                        .unwrap_or(0.0)
                } else {
                    0.0
                }
            }
            MoveProbabilities::Histogram(probs) => probs
                .get(proposal.from, proposal.to)
                .map(|bins| bins[bin])
                .unwrap_or(0.0),
        }
    }

    /// Builds histogram-based probabilities from a histogram set (Section 3.4): bins of the two
    /// directions of every bucket pair are matched from the highest gain downwards.
    pub fn from_histograms(set: &GainHistogramSet) -> Self {
        MoveProbabilities::Histogram(set.match_bins())
    }
}

impl Default for MoveProbabilities {
    /// An empty probability table: nothing is allowed to move.
    fn default() -> Self {
        MoveProbabilities::Matrix(PairTable::new(PairLayout::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_pcg::Pcg64;

    fn proposal(vertex: u32, from: u32, to: u32, gain: f64) -> MoveProposal {
        MoveProposal {
            vertex,
            from,
            to,
            gain,
        }
    }

    #[test]
    fn swap_matrix_counts_only_positive_gains() {
        let proposals = vec![
            proposal(0, 0, 1, 1.0),
            proposal(1, 0, 1, 0.5),
            proposal(2, 1, 0, 2.0),
            proposal(3, 1, 0, -1.0),
            proposal(4, 1, 0, 0.0),
        ];
        let s = SwapMatrix::from_proposals(&proposals);
        assert_eq!(s.count(0, 1), 2);
        assert_eq!(s.count(1, 0), 1);
        assert_eq!(s.count(0, 2), 0);
        assert_eq!(s.num_entries(), 2);
        assert_eq!(s.total_candidates(), 3);
    }

    #[test]
    fn matrix_probabilities_balance_expected_flow() {
        // 4 candidates 0->1, 2 candidates 1->0: probability 0.5 one way, 1.0 the other, so the
        // expected number of movers is 2 in each direction.
        let mut proposals = Vec::new();
        for v in 0..4 {
            proposals.push(proposal(v, 0, 1, 1.0));
        }
        for v in 4..6 {
            proposals.push(proposal(v, 1, 0, 1.0));
        }
        let s = SwapMatrix::from_proposals(&proposals);
        let probs = s.move_probabilities();
        assert!((probs.probability(&proposal(0, 0, 1, 1.0)) - 0.5).abs() < 1e-12);
        assert!((probs.probability(&proposal(4, 1, 0, 1.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_sided_demand_gets_zero_probability() {
        let proposals = vec![proposal(0, 0, 1, 1.0), proposal(1, 0, 1, 1.0)];
        let s = SwapMatrix::from_proposals(&proposals);
        let probs = s.move_probabilities();
        assert_eq!(probs.probability(&proposal(0, 0, 1, 1.0)), 0.0);
    }

    #[test]
    fn nonpositive_proposals_never_move_under_matrix_probabilities() {
        let proposals = vec![proposal(0, 0, 1, 1.0), proposal(1, 1, 0, 1.0)];
        let s = SwapMatrix::from_proposals(&proposals);
        let probs = s.move_probabilities();
        assert_eq!(probs.probability(&proposal(5, 0, 1, -0.5)), 0.0);
        assert_eq!(probs.probability(&proposal(5, 0, 1, 0.0)), 0.0);
        assert!(probs.probability(&proposal(5, 0, 1, 0.5)) > 0.0);
    }

    /// A gain drawn from every class the bins treat specially: positive, +0.0, −0.0,
    /// negative, tiny (< 2⁻¹², the bins adjacent to zero) and huge (≥ 2¹¹, the extreme bins).
    fn arbitrary_gain(rng: &mut Pcg64) -> f64 {
        let magnitude = match rng.gen_range(0..4u32) {
            0 => return if rng.gen_bool(0.5) { 0.0 } else { -0.0 },
            1 => rng.gen_range(f64::MIN_POSITIVE..1.0) * (-12f64).exp2(),
            2 => rng.gen_range(1.0..1e6) * 11f64.exp2(),
            _ => rng.gen_range(f64::MIN_POSITIVE..8.0),
        };
        if rng.gen_bool(0.5) {
            magnitude
        } else {
            -magnitude
        }
    }

    #[test]
    fn histogram_built_matrix_equals_proposal_built_matrix() {
        let mut rng = Pcg64::seed_from_u64(0x5357);
        for case in 0..300 {
            let k = rng.gen_range(2..9u32);
            let proposals: Vec<MoveProposal> = (0..rng.gen_range(0..80u32))
                .map(|v| {
                    let from = rng.gen_range(0..k);
                    let to = (from + rng.gen_range(1..k)) % k;
                    proposal(v, from, to, arbitrary_gain(&mut rng))
                })
                .collect();
            let counted = SwapMatrix::from_proposals(&proposals);
            let binned = SwapMatrix::from_histograms(&GainHistogramSet::from_proposals(&proposals));
            assert_eq!(binned, counted, "case {case}: {proposals:?}");
            assert_eq!(
                binned.move_probabilities(),
                counted.move_probabilities(),
                "case {case}: {proposals:?}"
            );
        }
    }

    #[test]
    fn unknown_pairs_have_zero_probability() {
        let probs = MoveProbabilities::default();
        assert_eq!(probs.probability(&proposal(0, 3, 7, 10.0)), 0.0);
    }
}
