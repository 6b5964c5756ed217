//! Incremental re-partitioning (Section 5, requirement (i)).
//!
//! Production storage sharding cannot afford to move most of the data when the graph changes
//! slightly. The paper's recipe: initialize the local search with the previous partition and
//! penalize movement away from it in the gain computation, so only moves whose benefit exceeds
//! the migration cost survive.

use crate::config::ShpConfig;
use crate::error::{ShpError, ShpResult};
use crate::gains::{move_gain, TargetConstraint};
use crate::neighbor_data::NeighborData;
use crate::objective::Objective;
use crate::refinement::{IterationStats, Refiner};
use crate::report::{PartitionResult, RunReport};
use serde::{Deserialize, Serialize};
use shp_hypergraph::{average_fanout, average_p_fanout, BipartiteGraph, Partition};
use std::time::Instant;

/// Options of an incremental update run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalConfig {
    /// Gain penalty subtracted from every move that takes a vertex away from its bucket in the
    /// previous partition (moves back to it are not penalized). Expressed in the same unit as
    /// the objective gains. The refiner applies it through
    /// [`Refiner::with_movement_penalty`](crate::Refiner::with_movement_penalty) while it
    /// assembles each iteration's candidates, so every iteration, the dirty set's included,
    /// sees the penalized gains.
    pub movement_penalty: f64,
    /// Hard cap on the fraction of data vertices allowed to change buckets relative to the
    /// previous partition; refinement stops once the cap is hit, counting the churn from each
    /// iteration's applied moves. `1.0` disables the cap.
    pub max_moved_fraction: f64,
    /// Hard migration budget: the returned partition differs from the previous one on at most
    /// this many vertices. `None` disables the budget.
    ///
    /// Enforcement is deterministic and documented: the unbudgeted refinement runs first; when
    /// its result moves no more than `max_moves` vertices it is returned **bit-identically**.
    /// Otherwise the budget is spent on (1) the balance-repair moves the previous partition
    /// needs under `epsilon`, the moves of [`enforce_balance`](crate::api::enforce_balance)
    /// (mandatory — a budget smaller than that repair count is rejected with
    /// [`ShpError::InfeasibleBudget`]), then (2) the refinement's moves ranked by their
    /// standalone gain on the previous partition, highest first, ties broken by ascending
    /// vertex id, each applied only if the destination bucket stays within its allowed weight.
    pub max_moves: Option<usize>,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            movement_penalty: 0.1,
            max_moved_fraction: 1.0,
            max_moves: None,
        }
    }
}

/// Refines an existing partition of (a possibly updated) `graph` without moving more data than
/// necessary.
///
/// The previous partition must cover exactly the data vertices of `graph`; callers adding new
/// vertices should first extend the assignment (e.g. hashing new vertices to random buckets).
/// Records a `partition/incremental` span with one `iteration` child per refinement
/// iteration.
///
/// # Errors
/// Returns [`ShpError::InvalidConfig`] when the configuration is invalid and
/// [`ShpError::PartitionMismatch`] when the previous partition does not match the graph.
pub fn partition_incremental(
    graph: &BipartiteGraph,
    config: &ShpConfig,
    incremental: &IncrementalConfig,
    previous: &Partition,
) -> ShpResult<PartitionResult> {
    config.validate()?;
    if previous.num_data() != graph.num_data() {
        return Err(ShpError::PartitionMismatch {
            message: format!(
                "previous partition covers {} vertices but the graph has {}",
                previous.num_data(),
                graph.num_data()
            ),
        });
    }
    if previous.num_buckets() != config.num_buckets {
        return Err(ShpError::PartitionMismatch {
            message: format!(
                "previous partition has k={} but the configuration asks for k={}",
                previous.num_buckets(),
                config.num_buckets
            ),
        });
    }
    if !(0.0..=1.0).contains(&incremental.max_moved_fraction) {
        return Err(ShpError::InvalidConfig(
            "max_moved_fraction must lie in [0, 1]".into(),
        ));
    }
    if incremental.movement_penalty < 0.0 {
        return Err(ShpError::InvalidConfig(
            "movement_penalty must be non-negative".into(),
        ));
    }

    let start = Instant::now();
    let mut partition = previous.clone();
    let mut nd = NeighborData::build_with_workers(graph, &partition, config.workers);
    // Penalize every move whose target differs from the vertex's bucket in the previous
    // partition; moves back to the original bucket keep their full gain.
    let original = previous.assignment();
    let refiner = Refiner::new(
        graph,
        Objective::from_kind(config.objective),
        TargetConstraint::all(config.num_buckets),
        config.swap_strategy,
        config.balance_mode,
        config.allow_imbalanced_moves,
        config.epsilon,
        config.seed,
    )
    .with_workers(config.workers)
    .with_movement_penalty(original, incremental.movement_penalty);

    // Additionally cap the total churn relative to the previous partition, counted from the
    // applied moves: a vertex leaving its original bucket adds one, a vertex returning to it
    // takes one away (each vertex moves at most once per iteration).
    let cap = (incremental.max_moved_fraction * graph.num_data() as f64).floor() as usize;
    let mut moved_total = 0usize;
    let mut history: Vec<IterationStats> = Vec::new();
    let span = shp_telemetry::Span::enter("partition/incremental");
    let mut active = refiner.new_active_set();
    for iteration in 0..config.max_iterations {
        let _iteration_span = span.child("iteration");
        let stats = refiner.run_iteration_with(&mut active, &mut partition, &mut nd, iteration);
        let converged = stats.moved_fraction < config.convergence_threshold;
        history.push(stats);
        for p in active.applied_moves() {
            if p.from == original[p.vertex as usize] {
                moved_total += 1;
            } else if p.to == original[p.vertex as usize] {
                moved_total -= 1;
            }
        }
        if converged || moved_total >= cap {
            break;
        }
    }

    // Enforce the hard migration budget (see [`IncrementalConfig::max_moves`]): the balance
    // repair of the previous partition is mandatory spend, so a budget below it is infeasible
    // no matter what refinement produced. A balanced result already inside the budget is
    // returned unchanged (bit-identical to the unbudgeted run); otherwise the budget is spent
    // deterministically, repair first, then highest-gain moves.
    if let Some(budget) = incremental.max_moves {
        let repair =
            crate::api::balance_moves(previous, previous.max_allowed_weight(config.epsilon));
        if repair.len() > budget {
            return Err(ShpError::InfeasibleBudget {
                required: repair.len(),
                budget,
            });
        }
        // Selection kicks in when the refinement overspent the budget, or when the previous
        // partition needed repair and refinement did not deliver it (the repair moves are the
        // budget's mandatory spend). A balanced in-budget result passes through untouched.
        let needs_selection = partition.hamming_distance(previous) > budget
            || (!repair.is_empty() && !partition.is_balanced(config.epsilon));
        if needs_selection {
            partition = select_budgeted_moves(graph, config, previous, &partition, &repair, budget);
        }
    }

    let elapsed = start.elapsed();
    let report = RunReport {
        final_fanout: average_fanout(graph, &partition),
        final_p_fanout: average_p_fanout(graph, &partition, 0.5),
        imbalance: partition.imbalance(),
        history,
        levels: Vec::new(),
        elapsed,
    };
    Ok(PartitionResult { partition, report })
}

/// Spends a migration budget the unbudgeted result `full` exceeded: the pre-validated
/// balance-repair moves of `previous` first (mandatory), then `full`'s moves ranked by
/// standalone gain on `previous` (descending, ties by ascending vertex id), each applied only
/// while the destination stays within its allowed weight. Fully deterministic for a given
/// input.
fn select_budgeted_moves(
    graph: &BipartiteGraph,
    config: &ShpConfig,
    previous: &Partition,
    full: &Partition,
    repair: &[(u32, u32)],
    budget: usize,
) -> Partition {
    let mut result = previous.clone();
    let mut repaired = vec![false; graph.num_data()];
    for &(vertex, to) in repair {
        result.assign(vertex, to);
        repaired[vertex as usize] = true;
    }
    let mut remaining = budget - repair.len();

    // Rank the refinement's moves by what each would gain on its own against the previous
    // partition — the highest-value migrations ship first when the budget cannot fit them all.
    let objective = Objective::from_kind(config.objective);
    let nd = NeighborData::build_with_workers(graph, previous, config.workers);
    let mut candidates: Vec<(f64, u32, u32)> = (0..graph.num_data() as u32)
        .filter(|&v| !repaired[v as usize] && full.bucket_of(v) != previous.bucket_of(v))
        .map(|v| {
            let to = full.bucket_of(v);
            (move_gain(&objective, graph, previous, &nd, v, to), v, to)
        })
        .collect();
    candidates.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

    let cap = result.max_allowed_weight(config.epsilon);
    for (_, vertex, to) in candidates {
        if remaining == 0 {
            break;
        }
        if result.bucket_weight(to) + result.vertex_weight(vertex) > cap {
            continue;
        }
        result.assign(vertex, to);
        remaining -= 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
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
        b.build().unwrap()
    }

    #[test]
    fn incremental_starts_from_previous_partition_and_improves() {
        let graph = community_graph(4, 8);
        let config = ShpConfig::direct(4).with_seed(3).with_max_iterations(20);
        let good = crate::partition_direct(&graph, &config).unwrap();

        // Perturb the good partition slightly and repair it incrementally.
        let mut perturbed = good.partition.clone();
        for v in 0..4u32 {
            perturbed.assign(v, (perturbed.bucket_of(v) + 1) % 4);
        }
        let before_fanout = average_fanout(&graph, &perturbed);
        let result =
            partition_incremental(&graph, &config, &IncrementalConfig::default(), &perturbed)
                .unwrap();
        assert!(result.report.final_fanout <= before_fanout + 1e-9);
        // Repairing a small perturbation should not move most of the graph.
        let moved = result.partition.hamming_distance(&perturbed);
        assert!(
            moved <= graph.num_data() / 2,
            "moved {moved} of {}",
            graph.num_data()
        );
    }

    #[test]
    fn move_cap_limits_churn() {
        let graph = community_graph(4, 8);
        let config = ShpConfig::direct(4).with_seed(7).with_max_iterations(30);
        let mut rng = Pcg64::seed_from_u64(1);
        let random = Partition::new_random(&graph, 4, &mut rng).unwrap();
        let tight = IncrementalConfig {
            movement_penalty: 0.0,
            max_moved_fraction: 0.1,
            max_moves: None,
        };
        let result = partition_incremental(&graph, &config, &tight, &random).unwrap();
        let moved = result.partition.hamming_distance(&random);
        // The cap is checked after each iteration, so it can be exceeded by at most one
        // iteration's worth of moves; with a 10% cap the total churn stays well below half.
        assert!(moved < graph.num_data() / 2, "moved {moved}");
    }

    #[test]
    fn mismatched_previous_partition_is_rejected() {
        let graph = community_graph(2, 4);
        let other = community_graph(2, 5);
        let config = ShpConfig::direct(2);
        let mut rng = Pcg64::seed_from_u64(1);
        let previous = Partition::new_random(&other, 2, &mut rng).unwrap();
        assert!(
            partition_incremental(&graph, &config, &IncrementalConfig::default(), &previous)
                .is_err()
        );

        let wrong_k = Partition::new_random(&graph, 4, &mut rng).unwrap();
        assert!(
            partition_incremental(&graph, &config, &IncrementalConfig::default(), &wrong_k)
                .is_err()
        );
    }

    #[test]
    fn budgeted_runs_never_move_more_than_the_budget() {
        let graph = community_graph(4, 8);
        // Widen epsilon so budget selection has headroom to apply single moves (at the
        // default 5% every bucket is already at its capacity of 8).
        let mut config = ShpConfig::direct(4).with_seed(11).with_max_iterations(20);
        config.epsilon = 0.5;
        // Aligned placement with 12 strays rotated one bucket over (3 per community, so the
        // perturbation stays balanced): the unbudgeted run moves all 12 strays home.
        let perturbed = Partition::from_assignment(
            &graph,
            4,
            (0..32u32)
                .map(|v| if v % 8 < 3 { (v / 8 + 1) % 4 } else { v / 8 })
                .collect(),
        )
        .unwrap();
        let budgeted = IncrementalConfig {
            movement_penalty: 0.0,
            max_moved_fraction: 1.0,
            max_moves: Some(5),
        };
        let result = partition_incremental(&graph, &config, &budgeted, &perturbed).unwrap();
        let moved = result.partition.hamming_distance(&perturbed);
        assert!(moved <= 5, "moved {moved} > budget 5");
        assert!(moved > 0, "budget selection applied no move at all");
        // Deterministic: the identical run reproduces the identical partition.
        let again = partition_incremental(&graph, &config, &budgeted, &perturbed).unwrap();
        assert_eq!(again.partition.assignment(), result.partition.assignment());
    }

    #[test]
    fn slack_budget_reproduces_the_unbudgeted_result_bit_identically() {
        let graph = community_graph(4, 8);
        let mut config = ShpConfig::direct(4).with_seed(3).with_max_iterations(20);
        config.epsilon = 0.5;
        // A balanced previous partition with 12 strays, so the unbudgeted run makes real
        // moves (a vacuous zero-move run would make this test prove nothing).
        let previous = Partition::from_assignment(
            &graph,
            4,
            (0..32u32)
                .map(|v| if v % 8 < 3 { (v / 8 + 1) % 4 } else { v / 8 })
                .collect(),
        )
        .unwrap();
        let free = IncrementalConfig {
            movement_penalty: 0.0,
            max_moved_fraction: 1.0,
            max_moves: None,
        };
        let unbudgeted = partition_incremental(&graph, &config, &free, &previous).unwrap();
        assert!(
            unbudgeted.partition.hamming_distance(&previous) > 0,
            "the unbudgeted run must move something for this test to be meaningful"
        );
        let slack = IncrementalConfig {
            max_moves: Some(graph.num_data()),
            ..free
        };
        let budgeted = partition_incremental(&graph, &config, &slack, &previous).unwrap();
        assert_eq!(
            budgeted.partition.assignment(),
            unbudgeted.partition.assignment(),
            "a slack budget must not change the result"
        );
    }

    #[test]
    fn infeasible_budget_is_rejected_with_the_typed_error() {
        let graph = community_graph(4, 8);
        let config = ShpConfig::direct(4).with_max_iterations(5);
        // Everything piled on bucket 0: repair must shed 24 of 32 vertices (cap = 8 at 5%).
        let piled = Partition::from_assignment(&graph, 4, vec![0; 32]).unwrap();
        let tight = IncrementalConfig {
            movement_penalty: 0.0,
            max_moved_fraction: 1.0,
            max_moves: Some(10),
        };
        let err = partition_incremental(&graph, &config, &tight, &piled).unwrap_err();
        assert!(
            matches!(
                err,
                ShpError::InfeasibleBudget {
                    required: 24,
                    budget: 10
                }
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn budget_selection_repairs_balance_before_spending_on_gains() {
        let graph = community_graph(4, 8);
        let config = ShpConfig::direct(4).with_max_iterations(5);
        let piled = Partition::from_assignment(&graph, 4, vec![0; 32]).unwrap();
        // Exactly the repair requirement: the whole budget goes to balance repair.
        let exact = IncrementalConfig {
            movement_penalty: 0.0,
            max_moved_fraction: 1.0,
            max_moves: Some(24),
        };
        let result = partition_incremental(&graph, &config, &exact, &piled).unwrap();
        assert!(result.partition.is_balanced(config.epsilon));
        assert!(result.partition.hamming_distance(&piled) <= 24);
    }

    #[test]
    fn invalid_incremental_options_are_rejected() {
        let graph = community_graph(2, 4);
        let config = ShpConfig::direct(2);
        let mut rng = Pcg64::seed_from_u64(1);
        let previous = Partition::new_random(&graph, 2, &mut rng).unwrap();
        let bad_fraction = IncrementalConfig {
            movement_penalty: 0.1,
            max_moved_fraction: 2.0,
            max_moves: None,
        };
        assert!(partition_incremental(&graph, &config, &bad_fraction, &previous).is_err());
        let bad_penalty = IncrementalConfig {
            movement_penalty: -1.0,
            max_moved_fraction: 0.5,
            max_moves: None,
        };
        assert!(partition_incremental(&graph, &config, &bad_penalty, &previous).is_err());
    }
}
