//! [`RepartitionController`]: the decision half of the serve→observe→repartition loop.
//!
//! Each controller **epoch** performs the paper's production cycle (Section 5) end to end:
//!
//! 1. drain the [`AccessTraceCollector`](crate::AccessTraceCollector)'s reservoir into the
//!    observed co-access graph;
//! 2. run [`partition_incremental`] seeded from the *live* placement, with the migration
//!    budget enforced deterministically by `IncrementalConfig::max_moves`;
//! 3. diff the result against the live snapshot into a [`PartitionDelta`] (moved keys only)
//!    and install it through [`ServingEngine::install_delta`] — one atomic pointer swap, no
//!    full-map clone, readers in flight undisturbed;
//! 4. reset the collector so the next epoch observes fresh traffic.
//!
//! The controller holds no reference to the engine; callers pass it per epoch, so one
//! controller can drive an engine from any thread (the CLI runs it from a background thread
//! next to the serving clients).

use crate::trace::AccessTraceCollector;
use shp_core::{partition_incremental, IncrementalConfig, ShpConfig, ShpResult};
use shp_hypergraph::Partition;
use shp_serving::{PartitionDelta, ServingEngine};
use std::sync::Arc;

/// Tuning knobs of a [`RepartitionController`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Hard cap on keys moved per epoch (the migration budget of the stability constraint).
    pub migration_budget: usize,
    /// Allowed shard imbalance `ε` for the incremental runs. Needs headroom above the
    /// serving tier's initial balance, since budgeted gain moves are capacity-checked.
    pub epsilon: f64,
    /// Iteration cap for each incremental refinement.
    pub max_iterations: usize,
    /// Gain penalty for moving a key away from its live shard (on top of the hard budget).
    pub movement_penalty: f64,
    /// Seed for the refinement's randomized decisions.
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            migration_budget: 256,
            epsilon: 0.1,
            max_iterations: 10,
            movement_penalty: 0.0,
            seed: 0xC0_11EC,
        }
    }
}

/// What one controller epoch did.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// Epoch id the delta was installed as.
    pub epoch: u64,
    /// Keys the installed delta moved (`≤ migration_budget` always).
    pub moved_keys: usize,
    /// Multigets the observed graph was built from.
    pub observed_queries: usize,
    /// Average fanout of the observed graph under the *previous* placement.
    pub fanout_before: f64,
    /// Average fanout of the observed graph under the *installed* placement.
    pub fanout_after: f64,
}

/// What one [`RepartitionController::recover_dead_shard`] epoch did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Epoch id the recovery delta was installed as (unchanged when nothing had to move).
    pub epoch: u64,
    /// Keys drained off the dead shard this epoch (`≤ migration_budget` always).
    pub moved_keys: usize,
    /// Keys still assigned to the dead shard after this epoch; call again until 0.
    pub remaining_keys: usize,
}

/// Periodically re-partitions a live [`ServingEngine`] from observed traffic under a hard
/// per-epoch migration budget (see the module docs).
#[derive(Debug)]
pub struct RepartitionController {
    collector: Arc<AccessTraceCollector>,
    config: ControllerConfig,
    /// Cumulative moved keys over every epoch (the migration volume the paper's stability
    /// constraint bounds).
    cumulative_moved: usize,
    epochs_run: usize,
    /// Epochs that failed (e.g. [`shp_core::ShpError::InfeasibleBudget`]) and were skipped by
    /// [`RepartitionController::run_epoch_or_skip`] instead of aborting the serve loop.
    epochs_skipped: usize,
    /// Why the most recent skipped epoch failed.
    last_skip_reason: Option<String>,
}

impl RepartitionController {
    /// Creates a controller draining `collector`. Attach the same collector to the engine
    /// via [`ServingEngine::with_access_observer`].
    pub fn new(collector: Arc<AccessTraceCollector>, config: ControllerConfig) -> Self {
        RepartitionController {
            collector,
            config,
            cumulative_moved: 0,
            epochs_run: 0,
            epochs_skipped: 0,
            last_skip_reason: None,
        }
    }

    /// The shared trace collector (e.g. to hand to an engine as its observer).
    pub fn collector(&self) -> Arc<AccessTraceCollector> {
        Arc::clone(&self.collector)
    }

    /// Total keys moved across all epochs so far.
    pub fn cumulative_moved(&self) -> usize {
        self.cumulative_moved
    }

    /// Number of epochs that installed (or decided against) a delta.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// Number of epochs [`RepartitionController::run_epoch_or_skip`] skipped on error.
    pub fn epochs_skipped(&self) -> usize {
        self.epochs_skipped
    }

    /// Why the most recent skipped epoch failed (`None` until a skip happens).
    pub fn last_skip_reason(&self) -> Option<&str> {
        self.last_skip_reason.as_deref()
    }

    /// Runs one epoch against `engine`: observe → repartition → install delta → reset trace.
    /// Records a `controller/epoch` span with `observe`, `incremental`, `delta` and `install`
    /// children.
    ///
    /// Returns `Ok(None)` when the reservoir held no usable co-access samples (nothing to
    /// decide on — the collector keeps accumulating). An epoch whose refinement moves nothing
    /// still installs the (empty) delta so the epoch id advances and the trace window resets.
    ///
    /// # Errors
    /// Propagates [`shp_core::ShpError::InfeasibleBudget`] when the budget cannot even cover
    /// balance repair, and any graph/serving failure. On error the trace is *not* reset, so
    /// no observation is lost.
    pub fn run_epoch(&mut self, engine: &ServingEngine) -> ShpResult<Option<EpochOutcome>> {
        let span = shp_telemetry::Span::enter("controller/epoch");
        let observed = {
            let _observe = span.child("observe");
            self.collector.observed_graph(engine.num_keys())?
        };
        let Some(graph) = observed else {
            return Ok(None);
        };
        let snapshot = engine.current_snapshot();
        let live = Partition::from_assignment(&graph, snapshot.num_shards(), snapshot.assignment())
            .map_err(shp_core::ShpError::from)?;
        let fanout_before = shp_hypergraph::average_fanout(&graph, &live);

        let mut shp = ShpConfig::direct(snapshot.num_shards())
            .with_seed(self.config.seed ^ snapshot.epoch())
            .with_max_iterations(self.config.max_iterations);
        shp.epsilon = self.config.epsilon;
        let incremental = IncrementalConfig {
            movement_penalty: self.config.movement_penalty,
            max_moved_fraction: 1.0,
            max_moves: Some(self.config.migration_budget),
        };
        let result = {
            let _incremental = span.child("incremental");
            partition_incremental(&graph, &shp, &incremental, &live)?
        };
        let fanout_after = shp_hypergraph::average_fanout(&graph, &result.partition);

        let delta = {
            let _delta = span.child("delta");
            PartitionDelta::between(&snapshot, &result.partition)
                .map_err(shp_core::ShpError::from)?
        };
        debug_assert!(delta.len() <= self.config.migration_budget);
        let moved_keys = delta.len();
        let epoch = {
            let _install = span.child("install");
            engine
                .install_delta(&delta)
                .map_err(shp_core::ShpError::from)?
        };
        self.collector.reset();
        self.cumulative_moved += moved_keys;
        self.epochs_run += 1;
        Ok(Some(EpochOutcome {
            epoch,
            moved_keys,
            observed_queries: graph.num_queries(),
            fanout_before,
            fanout_after,
        }))
    }

    /// [`RepartitionController::run_epoch`] for long-lived serve loops: an epoch that fails —
    /// typically [`shp_core::ShpError::InfeasibleBudget`] when live imbalance outgrew the
    /// migration budget — is recorded as skipped (see
    /// [`epochs_skipped`](RepartitionController::epochs_skipped) /
    /// [`last_skip_reason`](RepartitionController::last_skip_reason)) and serving continues;
    /// the process never aborts. The trace is kept on a skip, so the next attempt decides on
    /// the accumulated observations.
    pub fn run_epoch_or_skip(&mut self, engine: &ServingEngine) -> Option<EpochOutcome> {
        match self.run_epoch(engine) {
            Ok(outcome) => outcome,
            Err(err) => {
                self.epochs_skipped += 1;
                self.last_skip_reason = Some(err.to_string());
                None
            }
        }
    }

    /// Drains up to `migration_budget` keys off `dead` onto the live shards, least-loaded
    /// first, and installs the move as one delta epoch — the paper's failure-reactive
    /// assignment change, bounded by the same stability constraint as regular epochs.
    ///
    /// Keys move in maximal runs of consecutive ids (consecutive keys are overwhelmingly
    /// co-accessed in the synthetic workloads), keeping each drained community on one target
    /// shard so the post-recovery fanout lands near its pre-incident value. Call repeatedly
    /// until [`RecoveryOutcome::remaining_keys`] is 0; an already-empty dead shard is a no-op
    /// that installs nothing.
    ///
    /// # Errors
    /// Returns [`shp_core::ShpError::InvalidArgument`] when `dead` is outside the live
    /// placement or the placement has no other shard to drain onto, and propagates install
    /// failures.
    pub fn recover_dead_shard(
        &mut self,
        engine: &ServingEngine,
        dead: u32,
    ) -> ShpResult<RecoveryOutcome> {
        let snapshot = engine.current_snapshot();
        let n = snapshot.num_shards();
        if dead >= n {
            return Err(shp_core::ShpError::InvalidArgument(format!(
                "cannot recover shard {dead}: placement has {n} shards"
            )));
        }
        if n < 2 {
            return Err(shp_core::ShpError::InvalidArgument(
                "cannot recover a dead shard: no live shard to drain onto".to_string(),
            ));
        }
        let assignment = snapshot.assignment();
        let mut loads = vec![0usize; n as usize];
        for &shard in &assignment {
            loads[shard as usize] += 1;
        }
        let dead_keys: Vec<u32> = assignment
            .iter()
            .enumerate()
            .filter(|&(_, &shard)| shard == dead)
            .map(|(key, _)| key as u32)
            .collect();
        if dead_keys.is_empty() {
            return Ok(RecoveryOutcome {
                epoch: snapshot.epoch(),
                moved_keys: 0,
                remaining_keys: 0,
            });
        }
        let budget = self.config.migration_budget;
        let mut moves: Vec<(u32, u32)> = Vec::new();
        let mut start = 0usize;
        while start < dead_keys.len() && moves.len() < budget {
            let mut end = start + 1;
            while end < dead_keys.len() && dead_keys[end] == dead_keys[end - 1] + 1 {
                end += 1;
            }
            let take = (end - start).min(budget - moves.len());
            let target = (0..n)
                .filter(|&shard| shard != dead)
                .min_by_key(|&shard| (loads[shard as usize], shard))
                .expect("placement has a live shard");
            for &key in &dead_keys[start..start + take] {
                moves.push((key, target));
            }
            loads[target as usize] += take;
            loads[dead as usize] -= take;
            start = end;
        }
        let moved_keys = moves.len();
        let remaining_keys = dead_keys.len() - moved_keys;
        let delta = PartitionDelta::new(snapshot.epoch(), moves);
        let epoch = engine
            .install_delta(&delta)
            .map_err(shp_core::ShpError::from)?;
        self.cumulative_moved += moved_keys;
        self.epochs_run += 1;
        Ok(RecoveryOutcome {
            epoch,
            moved_keys,
            remaining_keys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shp_hypergraph::GraphBuilder;
    use shp_serving::{EngineConfig, ServingEngine};

    /// `groups` communities of `size` keys; each community's first three members sit on the
    /// *previous* community's shard, so every community query spans two shards (fanout 2)
    /// and the controller has 3·`groups` genuinely profitable moves to find. (A perfectly
    /// scattered placement would be a symmetric local optimum the refiner cannot leave.)
    fn strayed_engine(groups: u32, size: u32) -> ServingEngine {
        let mut b = GraphBuilder::new();
        for g in 0..groups {
            let members: Vec<u32> = (0..size).map(|i| g * size + i).collect();
            b.add_query(members);
        }
        let graph = b.build().unwrap();
        let partition = Partition::from_assignment(
            &graph,
            groups,
            (0..groups * size)
                .map(|v| {
                    let home = v / size;
                    if v % size < 3 {
                        (home + groups - 1) % groups
                    } else {
                        home
                    }
                })
                .collect(),
        )
        .unwrap();
        ServingEngine::new(&partition, EngineConfig::default()).unwrap()
    }

    fn drive(engine: &ServingEngine, groups: u32, size: u32, rounds: usize) {
        for _ in 0..rounds {
            for g in 0..groups {
                let members: Vec<u32> = (0..size).map(|i| g * size + i).collect();
                engine.multiget(&members).unwrap();
            }
        }
    }

    #[test]
    fn epoch_observes_traffic_and_improves_fanout_within_budget() {
        let collector = Arc::new(AccessTraceCollector::new(256, 1));
        let engine = strayed_engine(4, 8).with_access_observer(collector.clone());
        drive(&engine, 4, 8, 8);

        let mut controller = RepartitionController::new(
            collector,
            ControllerConfig {
                migration_budget: 32,
                epsilon: 0.5,
                ..Default::default()
            },
        );
        let outcome = controller
            .run_epoch(&engine)
            .unwrap()
            .expect("traffic was observed");
        assert_eq!(outcome.epoch, 1);
        assert!(outcome.moved_keys <= 32);
        assert!(outcome.moved_keys > 0);
        assert!(
            outcome.fanout_after < outcome.fanout_before,
            "fanout {} -> {}",
            outcome.fanout_before,
            outcome.fanout_after
        );
        assert_eq!(engine.current_epoch(), 1);
        assert_eq!(controller.cumulative_moved(), outcome.moved_keys);

        // The trace was reset: an immediate second epoch has nothing to observe.
        assert!(controller.run_epoch(&engine).unwrap().is_none());

        // Serving results are unchanged by the repartition.
        let result = engine.multiget(&[0, 8, 16, 24]).unwrap();
        assert_eq!(result.values.len(), 4);
    }

    #[test]
    fn budget_is_respected_across_consecutive_epochs() {
        let collector = Arc::new(AccessTraceCollector::new(256, 2));
        let engine = strayed_engine(4, 8).with_access_observer(collector.clone());
        let mut controller = RepartitionController::new(
            collector,
            ControllerConfig {
                migration_budget: 6,
                epsilon: 0.5,
                ..Default::default()
            },
        );
        // The tiny budget forces the recovery to span several epochs; each stays in budget.
        let mut last_fanout = f64::INFINITY;
        for round in 0..4 {
            drive(&engine, 4, 8, 8);
            let outcome = controller.run_epoch(&engine).unwrap().expect("traffic");
            assert!(
                outcome.moved_keys <= 6,
                "epoch {round} moved {}",
                outcome.moved_keys
            );
            assert!(outcome.fanout_after <= outcome.fanout_before);
            last_fanout = outcome.fanout_after;
        }
        assert!(last_fanout < 1.5, "no recovery: fanout {last_fanout}");
        assert_eq!(controller.epochs_run(), 4);
        assert!(controller.cumulative_moved() <= 24);
    }

    #[test]
    fn empty_trace_is_a_no_op() {
        let collector = Arc::new(AccessTraceCollector::new(64, 3));
        let engine = strayed_engine(2, 4);
        let mut controller = RepartitionController::new(collector, ControllerConfig::default());
        assert!(controller.run_epoch(&engine).unwrap().is_none());
        assert_eq!(engine.current_epoch(), 0);
        assert_eq!(controller.epochs_run(), 0);
    }

    /// A placement so lopsided that balance repair alone needs more moves than the budget
    /// allows: all 16 keys on shard 0 of a 2-shard placement with a tight epsilon.
    fn lopsided_engine() -> ServingEngine {
        let mut b = GraphBuilder::new();
        for k in 0..16u32 {
            b.add_query([k, (k + 1) % 16]);
        }
        let graph = b.build().unwrap();
        let partition = Partition::from_assignment(&graph, 2, vec![0; 16]).unwrap();
        ServingEngine::new(&partition, EngineConfig::default()).unwrap()
    }

    #[test]
    fn infeasible_budget_epoch_is_skipped_and_serving_continues() {
        let collector = Arc::new(AccessTraceCollector::new(256, 4));
        let engine = lopsided_engine().with_access_observer(collector.clone());
        for k in 0..16u32 {
            engine.multiget(&[k, (k + 1) % 16]).unwrap();
        }
        // Balance repair needs ~7 moves to bring shard 0 under 16/2 · (1 + ε); budget 1
        // cannot cover it, so the plain epoch errors with InfeasibleBudget.
        let mut controller = RepartitionController::new(
            collector,
            ControllerConfig {
                migration_budget: 1,
                epsilon: 0.01,
                ..Default::default()
            },
        );
        assert!(matches!(
            controller.run_epoch(&engine),
            Err(shp_core::ShpError::InfeasibleBudget { .. })
        ));
        // The serve-loop entry point skips instead of propagating: the epoch is recorded,
        // the reason is kept, and the engine still serves on the unchanged placement.
        let outcome = controller.run_epoch_or_skip(&engine);
        assert!(outcome.is_none());
        assert_eq!(controller.epochs_skipped(), 1);
        assert!(
            controller
                .last_skip_reason()
                .expect("skip reason recorded")
                .contains("budget"),
            "reason: {:?}",
            controller.last_skip_reason()
        );
        assert_eq!(engine.current_epoch(), 0);
        assert_eq!(engine.multiget(&[0, 1, 2]).unwrap().values.len(), 3);
        // The trace survived both failures: a controller with a feasible budget recovers
        // from the very same observations.
        let mut feasible = RepartitionController::new(
            controller.collector(),
            ControllerConfig {
                migration_budget: 16,
                epsilon: 0.1,
                ..Default::default()
            },
        );
        let outcome = feasible
            .run_epoch_or_skip(&engine)
            .expect("feasible epoch installs");
        assert!(outcome.moved_keys > 0);
        assert_eq!(engine.current_epoch(), 1);
        assert_eq!(feasible.epochs_skipped(), 0);
    }

    #[test]
    fn recover_dead_shard_drains_within_budget_and_preserves_locality() {
        // 4 aligned communities of 8 keys on 4 shards; shard 1 (keys 8..16) dies.
        let mut b = GraphBuilder::new();
        for g in 0..4u32 {
            let members: Vec<u32> = (0..8).map(|i| g * 8 + i).collect();
            b.add_query(members);
        }
        let graph = b.build().unwrap();
        let partition =
            Partition::from_assignment(&graph, 4, (0..32u32).map(|v| v / 8).collect()).unwrap();
        let engine = ServingEngine::new(&partition, EngineConfig::default()).unwrap();
        let collector = Arc::new(AccessTraceCollector::new(64, 5));
        let mut controller = RepartitionController::new(
            collector,
            ControllerConfig {
                migration_budget: 5,
                ..Default::default()
            },
        );
        // Budget 5 < 8 dead keys: the drain takes two epochs, each within budget.
        let first = controller.recover_dead_shard(&engine, 1).unwrap();
        assert_eq!(first.moved_keys, 5);
        assert_eq!(first.remaining_keys, 3);
        assert_eq!(first.epoch, 1);
        let second = controller.recover_dead_shard(&engine, 1).unwrap();
        assert_eq!(second.moved_keys, 3);
        assert_eq!(second.remaining_keys, 0);
        // Shard 1 is empty; every key still resolves and the community stays whole enough
        // that its query spans at most the two shards the split run landed on.
        let snapshot = engine.current_snapshot();
        assert!(snapshot.keys_by_shard()[1].is_empty());
        let result = engine.multiget(&[8, 9, 10, 11, 12, 13, 14, 15]).unwrap();
        assert_eq!(result.values.len(), 8);
        assert!(result.fanout <= 2);
        // A third call is a no-op that does not advance the epoch.
        let third = controller.recover_dead_shard(&engine, 1).unwrap();
        assert_eq!(third.moved_keys, 0);
        assert_eq!(third.remaining_keys, 0);
        assert_eq!(engine.current_epoch(), 2);
        assert_eq!(controller.cumulative_moved(), 8);
    }

    #[test]
    fn recover_dead_shard_rejects_invalid_targets() {
        let engine = strayed_engine(2, 4);
        let collector = Arc::new(AccessTraceCollector::new(64, 6));
        let mut controller = RepartitionController::new(collector, ControllerConfig::default());
        assert!(matches!(
            controller.recover_dead_shard(&engine, 9),
            Err(shp_core::ShpError::InvalidArgument(_))
        ));
    }
}
