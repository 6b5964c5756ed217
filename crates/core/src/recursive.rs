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
use crate::refinement::Refiner;
use crate::report::{LevelReport, PartitionResult, RunReport};
use shp_hypergraph::{average_fanout, average_p_fanout, BipartiteGraph, BucketId, Partition};
use std::time::Instant;

/// Per-bucket bookkeeping during the recursion: how many final buckets this bucket must still
/// be divided into.
#[derive(Debug, Clone)]
struct Group {
    /// Number of final buckets this group is responsible for (`1` = leaf, no further splits).
    targets: u32,
}

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
    let k = config.num_buckets;
    let start = Instant::now();
    let run_span = shp_telemetry::Span::enter("partition/recursive");

    // All vertices start in a single bucket responsible for k final buckets.
    let mut partition = Partition::new_uniform(graph, 1)?;
    let mut groups = vec![Group { targets: k }];

    let total_levels = total_levels(k, arity);
    let mut history = Vec::new();
    let mut levels = Vec::new();
    let mut level = 0usize;

    while groups.iter().any(|g| g.targets > 1) {
        let _level_span = run_span.child("level");
        let level_start = Instant::now();

        // Decide the children of every current bucket.
        let mut children_of: Vec<Vec<BucketId>> = Vec::with_capacity(groups.len());
        let mut child_targets: Vec<u32> = Vec::new();
        for group in &groups {
            let num_children = group.targets.min(arity).max(1);
            let mut child_ids = Vec::with_capacity(num_children as usize);
            for c in 0..num_children {
                child_ids.push(child_targets.len() as BucketId);
                // Distribute the group's remaining target count as evenly as possible.
                let share = split_share(group.targets, num_children, c);
                child_targets.push(share);
            }
            children_of.push(child_ids);
        }
        let new_k = child_targets.len() as u32;

        // Re-assign every vertex to one of its bucket's children, weighted by the child's share
        // of final buckets, using the deterministic per-vertex hash.
        let seed = config
            .seed
            .wrapping_add((level as u64).wrapping_mul(0x9E37_79B9));
        let assignment: Vec<BucketId> = (0..graph.num_data() as u32)
            .map(|v| {
                let old = partition.bucket_of(v);
                let children = &children_of[old as usize];
                if children.len() == 1 {
                    children[0]
                } else {
                    let total: u32 = children.iter().map(|&c| child_targets[c as usize]).sum();
                    let r = crate::refinement::unit_hash(seed, 0x5EED, v as u64) * total as f64;
                    let mut acc = 0.0;
                    let mut chosen = children[children.len() - 1];
                    for &c in children {
                        acc += child_targets[c as usize] as f64;
                        if r < acc {
                            chosen = c;
                            break;
                        }
                    }
                    chosen
                }
            })
            .collect();
        partition = Partition::from_assignment(graph, new_k, assignment)?;

        // Only groups that actually split participate in refinement; pass-through groups form
        // singleton sibling sets with no admissible moves.
        let sibling_groups: Vec<Vec<BucketId>> = children_of
            .iter()
            .filter(|c| c.len() > 1)
            .cloned()
            .collect();
        let constraint = TargetConstraint::sibling_groups(&sibling_groups);

        // ε scaling over recursion depth (Section 3.4).
        let epsilon = if config.scale_epsilon_by_level {
            config.epsilon * (level + 1) as f64 / total_levels.max(1) as f64
        } else {
            config.epsilon
        };

        // Optimize an approximation of the final p-fanout if requested: each child bucket will
        // eventually be split into at most `max_remaining` final buckets.
        let mut objective = Objective::from_kind(config.objective);
        if config.optimize_final_p_fanout {
            let max_remaining = child_targets.iter().copied().max().unwrap_or(1);
            objective = objective.for_final_splits(max_remaining);
        }

        let refiner = Refiner::new(
            graph,
            objective,
            constraint,
            config.swap_strategy,
            config.balance_mode,
            config.allow_imbalanced_moves,
            epsilon,
            seed,
        )
        .with_workers(config.workers);
        let mut nd = NeighborData::build_with_workers(graph, &partition, config.workers);
        let level_history = refiner.run(
            &mut partition,
            &mut nd,
            config.max_iterations,
            config.convergence_threshold,
        );

        levels.push(LevelReport {
            level,
            buckets_after: new_k,
            iterations: level_history.len(),
            fanout_after: nd.average_fanout(),
            elapsed: level_start.elapsed(),
        });
        history.extend(level_history);

        groups = child_targets
            .iter()
            .map(|&t| Group { targets: t })
            .collect();
        level += 1;
    }

    debug_assert_eq!(partition.num_buckets(), k);
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
