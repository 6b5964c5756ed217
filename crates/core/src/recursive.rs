//! SHP-2 / SHP-r: recursive splitting into `k` buckets (Section 3.3, "Recursive partitioning").
//!
//! At every level each existing bucket is split into up to `r` children; the refinement of
//! Algorithm 1 then runs over the *whole* graph simultaneously, with every data vertex
//! constrained to move only between the children of its previous bucket. This keeps memory and
//! communication at `O(r·|E|)` per iteration instead of `O(k·|E|)`, at the cost of a typically
//! 5–10% higher fanout than direct SHP-k (Section 4.2.2).
//!
//! The bookkeeping beside the graph follows the pairs present, not `k²`: children are
//! numbered contiguously, so every pair table of a level is laid out over sibling pairs only
//! (`k` slots per table at arity 2, see [`crate::pair_table`]), and the per-bucket arrays and
//! fanout metrics are `O(k)`. On full-scale email-Enron (36,692 data vertices, 2 workers,
//! 2 vCPUs) a k = 2048 run peaks at about 16 MB RSS, and its last level takes about 13% of
//! the run (240 of 1,850 ms), against 83 MB and 47% with tables indexed by all `k²` pairs.
//! `shp partition` at k = 8192 takes 2.7 s and 21 MB.

use crate::config::{PartitionMode, ShpConfig};
use crate::error::{ShpError, ShpResult};
use crate::gains::TargetConstraint;
use crate::neighbor_data::NeighborData;
use crate::objective::Objective;
use crate::refinement::{unit_hash, Refiner};
use crate::report::{LevelReport, PartitionResult, RunReport};
use shp_hypergraph::{average_fanout, average_p_fanout, BipartiteGraph, BucketId, Partition};
use std::time::Instant;

/// Partitions `graph` into `config.num_buckets` buckets by recursive splitting with the arity
/// of `config.mode` (SHP-2 when the arity is 2).
///
/// # Errors
/// Returns [`ShpError::InvalidConfig`] when the configuration is invalid or not in recursive
/// mode.
pub fn partition_recursive(
    graph: &BipartiteGraph,
    config: &ShpConfig,
) -> ShpResult<PartitionResult> {
    config.validate()?;
    let arity = match config.mode {
        PartitionMode::Recursive { arity } => arity,
        PartitionMode::Direct => {
            return Err(ShpError::InvalidConfig(
                "partition_recursive called with direct mode".into(),
            ))
        }
    };
    let start = Instant::now();
    let run_span = shp_telemetry::Span::enter("partition/recursive");

    // All vertices start in a single bucket responsible for k final buckets.
    let mut partition = Partition::new_uniform(graph, 1)?;
    let mut history = Vec::new();
    let mut levels = Vec::new();

    for level in split_schedule(config, arity) {
        let _level_span = run_span.child("level");
        let level_start = Instant::now();
        let assignment = level.split(partition.assignment());
        partition = Partition::from_assignment(graph, level.num_buckets, assignment)?;

        let refiner = Refiner::new(
            graph,
            level.objective,
            level.constraint,
            config.swap_strategy,
            config.balance_mode,
            config.allow_imbalanced_moves,
            level.epsilon,
            level.seed,
        )
        .with_bucket_shares(&level.child_targets)
        .with_workers(config.workers);
        let mut nd = NeighborData::build_with_workers(graph, &partition, config.workers);
        let level_history = refiner.run(
            &mut partition,
            &mut nd,
            config.max_iterations,
            config.convergence_threshold,
        );

        levels.push(LevelReport {
            level: level.index,
            buckets_after: level.num_buckets,
            iterations: level_history.len(),
            fanout_after: nd.average_fanout(),
            elapsed: level_start.elapsed(),
        });
        history.extend(level_history);
    }

    debug_assert_eq!(partition.num_buckets(), config.num_buckets);
    let elapsed = start.elapsed();
    let report = RunReport {
        final_fanout: average_fanout(graph, &partition),
        final_p_fanout: average_p_fanout(graph, &partition, 0.5),
        imbalance: partition.imbalance(),
        history,
        levels,
        elapsed,
    };
    Ok(PartitionResult { partition, report })
}

/// The SHP-r level schedule: every bucket responsible for more than one final bucket splits
/// into up to `arity` children per level, until all `config.num_buckets` buckets exist. Both
/// the in-process path ([`partition_recursive`]) and the BSP path
/// ([`crate::partition_distributed`]) iterate it, so the split policy has one home.
pub(crate) fn split_schedule(
    config: &ShpConfig,
    arity: u32,
) -> impl Iterator<Item = SplitLevel> + '_ {
    let total_levels = total_levels(config.num_buckets, arity);
    // Number of final buckets every current bucket is responsible for.
    let mut targets = vec![config.num_buckets];
    (0..).map_while(move |index: usize| {
        if targets.iter().all(|&t| t <= 1) {
            return None;
        }
        let mut first_child = Vec::with_capacity(targets.len() + 1);
        let mut child_targets: Vec<u32> = Vec::new();
        let mut sibling_groups: Vec<Vec<BucketId>> = Vec::new();
        for &t in &targets {
            let num_children = t.min(arity).max(1);
            let first = child_targets.len() as BucketId;
            first_child.push(first);
            child_targets.extend((0..num_children).map(|c| split_share(t, num_children, c)));
            if num_children > 1 {
                sibling_groups.push((first..first + num_children).collect());
            }
        }
        first_child.push(child_targets.len() as BucketId);
        let mut objective = Objective::from_kind(config.objective);
        if config.optimize_final_p_fanout {
            objective =
                objective.for_final_splits(child_targets.iter().copied().max().unwrap_or(1));
        }
        let epsilon = if config.scale_epsilon_by_level {
            config.epsilon * (index + 1) as f64 / total_levels.max(1) as f64
        } else {
            config.epsilon
        };
        targets.clone_from(&child_targets);
        Some(SplitLevel {
            index,
            num_buckets: child_targets.len() as u32,
            seed: config
                .seed
                .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9)),
            constraint: TargetConstraint::sibling_groups(&sibling_groups),
            objective,
            epsilon,
            first_child,
            child_targets,
        })
    })
}

/// One level of the SHP-r split schedule: how every bucket of the previous level splits into
/// children, and what the level's refinement optimizes.
pub(crate) struct SplitLevel {
    /// 0-based level index.
    pub index: usize,
    /// Number of buckets after the split.
    pub num_buckets: u32,
    /// `seed + index·0x9E37_79B9`: drives the hashed child pick and the level's move coins.
    pub seed: u64,
    /// Sibling groups of the buckets that split. A pass-through bucket (one child) is in no
    /// group, so its vertices have no targets.
    pub constraint: TargetConstraint,
    /// The configured objective, aimed at the final p-fanout when `optimize_final_p_fanout`
    /// is set: each child is still split into at most the largest child share.
    pub objective: Objective,
    /// `ε`, scaled by depth when `scale_epsilon_by_level` is set (Section 3.4).
    pub epsilon: f64,
    /// The children of previous-level bucket `b` are `first_child[b]..first_child[b + 1]`.
    first_child: Vec<BucketId>,
    /// Number of final buckets every child is responsible for.
    child_targets: Vec<u32>,
}

impl SplitLevel {
    /// Moves every vertex from its bucket of the previous level to one of that bucket's
    /// children, picked by the per-vertex hash `unit_hash(seed, 0x5EED, v)` weighted by the
    /// children's shares of final buckets.
    pub fn split(&self, assignment: &[BucketId]) -> Vec<BucketId> {
        assignment
            .iter()
            .enumerate()
            .map(|(v, &old)| {
                let children = self.first_child[old as usize]..self.first_child[old as usize + 1];
                let shares = &self.child_targets[children.start as usize..children.end as usize];
                if shares.len() == 1 {
                    return children.start;
                }
                let total: u32 = shares.iter().sum();
                let r = unit_hash(self.seed, 0x5EED, v as u64) * total as f64;
                let mut acc = 0.0;
                for (c, &share) in children.clone().zip(shares) {
                    acc += share as f64;
                    if r < acc {
                        return c;
                    }
                }
                children.end - 1
            })
            .collect()
    }
}

/// Number of final buckets child `index` (0-based) receives when a group responsible for
/// `targets` final buckets is split into `children` children: as even as possible, with the
/// first `targets mod children` children receiving one extra.
fn split_share(targets: u32, children: u32, index: u32) -> u32 {
    let base = targets / children;
    let extra = targets % children;
    if index < extra {
        base + 1
    } else {
        base
    }
}

/// Number of recursion levels needed to reach `k` buckets with the given arity.
fn total_levels(k: u32, arity: u32) -> usize {
    if k <= 1 {
        return 0;
    }
    let mut levels = 0usize;
    let mut reached = 1u64;
    while reached < k as u64 {
        reached *= arity as u64;
        levels += 1;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShpConfig;
    use rand::SeedableRng;
    use rand_pcg::Pcg64;
    use shp_hypergraph::GraphBuilder;

    fn community_graph(groups: u32, size: u32) -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for g in 0..groups {
            let members: Vec<u32> = (0..size).map(|i| g * size + i).collect();
            for _ in 0..size {
                b.add_query(members.clone());
            }
        }
        for g in 0..groups.saturating_sub(1) {
            b.add_query([g * size, (g + 1) * size]);
        }
        b.build().unwrap()
    }

    #[test]
    fn split_share_distributes_evenly() {
        assert_eq!(split_share(8, 2, 0), 4);
        assert_eq!(split_share(8, 2, 1), 4);
        assert_eq!(split_share(5, 2, 0), 3);
        assert_eq!(split_share(5, 2, 1), 2);
        assert_eq!(split_share(7, 4, 0), 2);
        assert_eq!(split_share(7, 4, 3), 1);
        assert_eq!((0..4).map(|i| split_share(7, 4, i)).sum::<u32>(), 7);
    }

    #[test]
    fn total_levels_is_log_arity_k() {
        assert_eq!(total_levels(1, 2), 0);
        assert_eq!(total_levels(2, 2), 1);
        assert_eq!(total_levels(8, 2), 3);
        assert_eq!(total_levels(9, 2), 4);
        assert_eq!(total_levels(32, 4), 3);
    }

    #[test]
    fn schedule_for_k5_splits_only_buckets_with_final_buckets_to_spare() {
        let config = ShpConfig::recursive_bisection(5).with_seed(17);
        let levels: Vec<SplitLevel> = split_schedule(&config, 2).collect();
        let sizes: Vec<u32> = levels.iter().map(|level| level.num_buckets).collect();
        assert_eq!(sizes, [2, 4, 5]);
        for (l, level) in levels.iter().enumerate() {
            assert_eq!(level.index, l);
            assert_eq!(level.seed, 17 + l as u64 * 0x9E37_79B9);
        }
        // The last level splits bucket 0 (two final buckets) into 0 and 1; buckets 1, 2 and 3
        // pass through as 2, 3 and 4, with no targets.
        let last = &levels[2];
        assert_eq!(
            last.constraint,
            TargetConstraint::sibling_groups(&[vec![0, 1]])
        );
        let TargetConstraint::Siblings { allowed } = &last.constraint else {
            panic!("a recursion level is sibling-constrained");
        };
        for bucket in 2..5 {
            assert!(
                allowed.get(bucket).is_none_or(Vec::is_empty),
                "bucket {bucket}"
            );
        }
        assert_eq!(last.split(&[1, 2, 3]), [2, 3, 4]);
    }

    #[test]
    fn recursive_bisection_reaches_k_buckets_and_reduces_fanout() {
        let graph = community_graph(8, 8);
        let config = ShpConfig::recursive_bisection(8)
            .with_seed(11)
            .with_max_iterations(15);
        let result = partition_recursive(&graph, &config).unwrap();
        assert_eq!(result.partition.num_buckets(), 8);
        assert_eq!(result.report.levels.len(), 3);

        let mut rng = Pcg64::seed_from_u64(99);
        let random = Partition::new_random(&graph, 8, &mut rng).unwrap();
        assert!(
            result.report.final_fanout < average_fanout(&graph, &random) * 0.7,
            "SHP-2 fanout {} vs random {}",
            result.report.final_fanout,
            average_fanout(&graph, &random)
        );
        // Every bucket is non-empty and reasonably balanced.
        assert!(result.partition.bucket_weights().iter().all(|&w| w > 0));
        assert!(
            result.report.imbalance < 0.6,
            "imbalance {}",
            result.report.imbalance
        );
    }

    #[test]
    fn recursive_supports_non_power_of_two_k() {
        let graph = community_graph(6, 6);
        let config = ShpConfig::recursive_bisection(6)
            .with_seed(2)
            .with_max_iterations(10);
        let result = partition_recursive(&graph, &config).unwrap();
        assert_eq!(result.partition.num_buckets(), 6);
        assert!(result.partition.bucket_weights().iter().all(|&w| w > 0));
    }

    #[test]
    fn recursive_with_higher_arity() {
        let graph = community_graph(9, 4);
        let config = ShpConfig {
            num_buckets: 9,
            mode: PartitionMode::Recursive { arity: 3 },
            max_iterations: 10,
            seed: 4,
            ..Default::default()
        };
        let result = partition_recursive(&graph, &config).unwrap();
        assert_eq!(result.partition.num_buckets(), 9);
        assert_eq!(result.report.levels.len(), 2);
    }

    #[test]
    fn recursive_is_deterministic() {
        let graph = community_graph(4, 6);
        let config = ShpConfig::recursive_bisection(4)
            .with_seed(21)
            .with_max_iterations(8);
        let a = partition_recursive(&graph, &config).unwrap();
        let b = partition_recursive(&graph, &config).unwrap();
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn direct_mode_config_is_rejected() {
        let graph = community_graph(2, 4);
        let config = ShpConfig::direct(4);
        assert!(partition_recursive(&graph, &config).is_err());
    }

    #[test]
    fn k_equal_one_returns_single_bucket_without_levels() {
        let graph = community_graph(2, 4);
        let config = ShpConfig::recursive_bisection(1);
        let result = partition_recursive(&graph, &config).unwrap();
        assert_eq!(result.partition.num_buckets(), 1);
        assert!(result.report.levels.is_empty());
        assert!((result.report.final_fanout - 1.0).abs() < 1e-12);
    }
}
