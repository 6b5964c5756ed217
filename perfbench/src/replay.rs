//! Replays of SHP-2 bisection levels through the public step functions of `shp-core`, on the
//! real state of a finished run (traced `bisect-k2048` runs only).
//!
//! Under the sibling constraint a vertex only ever moves between the children of its current
//! bucket, so with a power-of-two `k` the bucket a vertex held after level `l` is its final
//! bucket shifted right by `levels − 1 − l`. From that, each level's starting state (the
//! hashed split of every bucket into two children, exactly as `partition_recursive` makes
//! it) is rebuilt, and the level is re-run one timed `Refiner::run_iteration_with` call at a
//! time. The replay checks itself: each level must end on the run's own state.

use crate::measure::ms;
use crate::trace::Trace;
use shp_core::gains::{compute_proposals_for, GainKernel, MoveProposal, TargetConstraint};
use shp_core::histogram::GainHistogramSet;
use shp_core::refinement::unit_hash;
use shp_core::swap::MoveProbabilities;
use shp_core::{NeighborData, Objective, Refiner, ShpConfig, SwapStrategy};
use shp_hypergraph::{BipartiteGraph, BucketId, DataId, Partition};
use std::time::Instant;

/// One level of a power-of-two recursive bisection into `k` buckets.
struct Level<'a> {
    graph: &'a BipartiteGraph,
    config: &'a ShpConfig,
    index: usize,
    levels: usize,
}

impl Level<'_> {
    fn seed(&self) -> u64 {
        self.config
            .seed
            .wrapping_add((self.index as u64).wrapping_mul(0x9E37_79B9))
    }

    fn constraint(&self) -> TargetConstraint {
        let groups: Vec<Vec<BucketId>> = (0..1u32 << self.index)
            .map(|b| vec![2 * b, 2 * b + 1])
            .collect();
        TargetConstraint::sibling_groups(&groups)
    }

    fn objective(&self) -> Objective {
        let objective = Objective::from_kind(self.config.objective);
        if self.config.optimize_final_p_fanout {
            objective.for_final_splits(self.config.num_buckets >> (self.index + 1))
        } else {
            objective
        }
    }

    fn epsilon(&self) -> f64 {
        if self.config.scale_epsilon_by_level {
            self.config.epsilon * (self.index + 1) as f64 / self.levels as f64
        } else {
            self.config.epsilon
        }
    }

    /// The level's starting state: every vertex's bucket after the previous level, split
    /// into two equal-share children by the per-vertex hash.
    fn start(&self, final_partition: &Partition) -> Result<Partition, String> {
        let seed = self.seed();
        let total = (self.config.num_buckets >> self.index) as f64;
        let share = total / 2.0;
        let assignment = final_partition
            .assignment()
            .iter()
            .enumerate()
            .map(|(v, &bucket)| {
                let parent = bucket >> (self.levels - self.index);
                let r = unit_hash(seed, 0x5EED, v as u64) * total;
                2 * parent + u32::from(r >= share)
            })
            .collect();
        Partition::from_assignment(self.graph, 2 << self.index, assignment)
            .map_err(|e| format!("replay level {}: {e}", self.index))
    }

    /// Whether `partition` is the run's own state after this level.
    fn matches_run(&self, partition: &Partition, final_partition: &Partition) -> bool {
        let shift = self.levels - 1 - self.index;
        partition
            .assignment()
            .iter()
            .zip(final_partition.assignment())
            .all(|(&b, &f)| b == f >> shift)
    }
}

/// What replaying every level found.
#[derive(Debug, Default)]
pub struct LevelsReplay {
    /// Wall time of every replayed iteration, in execution order, in ms.
    pub iteration_ms: Vec<f64>,
    /// Levels whose replay ended exactly on the run's own state.
    pub exact_levels: usize,
}

/// Timings and counts of one replayed Figure-3 iteration.
#[derive(Debug, Default)]
pub struct StepReplay {
    pub neighbor_data_ms: f64,
    pub entries: usize,
    pub proposals_ms: f64,
    pub vertices: usize,
    pub proposals: usize,
    pub aggregate_ms: f64,
    pub pairs: usize,
    pub apply_ms: f64,
    pub applied: usize,
}

/// Number of levels of a power-of-two bisection into `k` buckets, or `None` when `k` is not
/// a power of two (the replay needs even splits).
pub fn bisection_levels(k: u32) -> Option<usize> {
    k.is_power_of_two().then(|| k.trailing_zeros() as usize)
}

/// Re-runs every level from its rebuilt start, one span per iteration.
pub fn replay_levels(
    trace: &mut Trace,
    graph: &BipartiteGraph,
    config: &ShpConfig,
    final_partition: &Partition,
    levels: usize,
) -> Result<LevelsReplay, String> {
    let mut out = LevelsReplay::default();
    let mut group = 0u64;
    for index in 0..levels {
        let level = Level {
            graph,
            config,
            index,
            levels,
        };
        let mut partition = level.start(final_partition)?;
        let refiner = Refiner::new(
            graph,
            level.objective(),
            level.constraint(),
            config.swap_strategy,
            config.balance_mode,
            config.allow_imbalanced_moves,
            level.epsilon(),
            level.seed(),
        )
        .with_workers(config.workers);
        let mut nd = NeighborData::build_with_workers(graph, &partition, config.workers);
        let mut active = refiner.new_active_set();
        for iteration in 0..config.max_iterations {
            let start = Instant::now();
            let stats = trace.span("refinement::run_iteration_with", group, |_| {
                refiner.run_iteration_with(&mut active, &mut partition, &mut nd, iteration)
            });
            out.iteration_ms.push(ms(start.elapsed()));
            group += 1;
            if stats.moved_fraction < config.convergence_threshold {
                break;
            }
        }
        if level.matches_run(&partition, final_partition) {
            out.exact_levels += 1;
        }
    }
    Ok(out)
}

/// Replays the first iteration of level `index` step by step (Figure 3): neighbor data, gain
/// proposals, histogram aggregation into move probabilities, and the selected moves. Unlike
/// the refiner, the replay applies every selected move without the capacity trim.
pub fn replay_steps(
    trace: &mut Trace,
    graph: &BipartiteGraph,
    config: &ShpConfig,
    final_partition: &Partition,
    index: usize,
    levels: usize,
) -> Result<StepReplay, String> {
    let level = Level {
        graph,
        config,
        index,
        levels,
    };
    let workers = config.workers;
    let group = 1 << 32 | index as u64;
    let mut partition = level.start(final_partition)?;
    let objective = level.objective();
    let constraint = level.constraint();
    let mut out = StepReplay::default();
    trace.span("replay::figure3_iteration", group, |trace| {
        let start = Instant::now();
        let mut nd = trace.span("neighbor_data::build_with_workers", group, |_| {
            NeighborData::build_with_workers(graph, &partition, workers)
        });
        out.neighbor_data_ms = ms(start.elapsed());
        out.entries = nd.total_entries();

        let vertices: Vec<DataId> = (0..graph.num_data() as DataId).collect();
        out.vertices = vertices.len();
        let start = Instant::now();
        let raw = trace.span("gains::compute_proposals_for", group, |_| {
            compute_proposals_for(
                &objective,
                graph,
                &partition,
                &nd,
                &constraint,
                partition.least_loaded_bucket(),
                &vertices,
                workers,
                GainKernel::Scratch,
            )
        });
        out.proposals_ms = ms(start.elapsed());
        let include_nonpositive = config.swap_strategy == SwapStrategy::Histogram;
        let proposals: Vec<MoveProposal> = raw
            .into_iter()
            .flatten()
            .filter(|p| include_nonpositive || p.gain > 0.0)
            .collect();
        out.proposals = proposals.len();

        let start = Instant::now();
        let (pairs, probabilities) = trace.span("swap::aggregate", group, |_| {
            let set = GainHistogramSet::from_proposals_with_workers(&proposals, workers);
            (set.num_pairs(), MoveProbabilities::from_histograms(&set))
        });
        out.aggregate_ms = ms(start.elapsed());
        out.pairs = pairs;

        let seed = level.seed();
        let selected: Vec<&MoveProposal> = proposals
            .iter()
            .filter(|p| {
                let prob = probabilities.probability(p);
                prob > 0.0 && unit_hash(seed, 0, p.vertex as u64) < prob
            })
            .collect();
        out.applied = selected.len();
        let start = Instant::now();
        trace.span("neighbor_data::apply_move", group, |_| {
            for p in &selected {
                partition.assign(p.vertex, p.to);
                nd.apply_move(graph, p.vertex, p.from, p.to);
            }
        });
        out.apply_ms = ms(start.elapsed());
    });
    Ok(out)
}
