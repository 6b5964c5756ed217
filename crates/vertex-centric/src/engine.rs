//! The BSP engine: worker partitioning, the superstep loop, message delivery, master compute.

use crate::context::Context;
use crate::metrics::{ExecutionMetrics, SuperstepMetrics};
use crate::program::{MasterOutcome, VertexProgram};
use crate::routing::{GroupedInbox, WorkerOutbox};
use crate::topology::Topology;
use std::borrow::Cow;
use std::time::Instant;

/// Configuration of an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of simulated workers (machines). Vertex `v` is owned by worker `v mod num_workers`,
    /// matching Giraph's pseudo-random vertex distribution.
    pub num_workers: usize,
    /// Hard cap on the number of supersteps; the run also stops earlier if the master halts or
    /// every vertex has voted to halt with no messages in flight.
    pub max_supersteps: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: 4,
            max_supersteps: 1_000,
        }
    }
}

impl EngineConfig {
    /// Creates a configuration with the given worker count and superstep limit.
    pub fn new(num_workers: usize, max_supersteps: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        EngineConfig {
            num_workers,
            max_supersteps,
        }
    }
}

/// Per-worker state: the values and halt flags of the vertices it owns, its scratch and its
/// grouped inbox. Each worker's state sits on cache lines of its own, since the workers write
/// to their scratch and inbox headers side by side.
#[repr(align(128))]
struct WorkerState<V, S, M> {
    /// Values of owned vertices, indexed by local index (`vertex / num_workers`).
    values: Vec<V>,
    /// Halt flags of owned vertices.
    halted: Vec<bool>,
    /// The program's worker-local scratch, kept across supersteps.
    scratch: S,
    /// The messages delivered to the owned vertices, regrouped every superstep in place.
    inbox: GroupedInbox<M>,
}

/// One simulated worker's unit of superstep work: its state and the outbox it fills.
type WorkerTask<'a, V, S, M> = (&'a mut WorkerState<V, S, M>, &'a mut WorkerOutbox<M>);

/// Result produced by one worker for one superstep.
struct WorkerStepResult<A> {
    aggregate: A,
    active: usize,
    unhalted: bool,
    combined: u64,
}

/// A vertex-centric BSP engine executing a [`VertexProgram`] over a [`Topology`], owned or
/// borrowed (several engines can run over one topology, one after another).
///
/// # Example
///
/// Counting each vertex's degree via messages (every vertex messages its neighbors in
/// superstep 0 and counts incoming messages in superstep 1):
///
/// ```
/// use shp_vertex_centric::{
///     Context, Engine, EngineConfig, MasterOutcome, Messages, TopologyBuilder, VertexProgram,
/// };
///
/// struct DegreeCount;
/// impl VertexProgram for DegreeCount {
///     type Value = u32;
///     type Message = u32;
///     type Aggregate = u64;
///     type Global = ();
///     type Scratch = ();
///
///     fn compute(&self, ctx: &mut Context<'_, Self>, _v: u32, value: &mut u32, msgs: Messages<'_, u32>) {
///         if ctx.superstep() == 0 {
///             ctx.send_to_neighbors(1);
///         } else {
///             *value = msgs.len() as u32;
///             ctx.aggregate(msgs.len() as u64);
///             ctx.vote_to_halt();
///         }
///     }
///     fn merge_aggregates(&self, into: &mut u64, other: u64) { *into += other }
///     fn master_compute(&self, step: usize, _agg: u64, _g: &()) -> MasterOutcome<()> {
///         if step >= 1 { MasterOutcome::Halt } else { MasterOutcome::Continue(()) }
///     }
/// }
///
/// let mut t = TopologyBuilder::new(3);
/// t.add_undirected_edge(0, 1);
/// t.add_undirected_edge(1, 2);
/// let mut engine = Engine::new(DegreeCount, t.build(), vec![0; 3], EngineConfig::new(2, 10));
/// engine.run();
/// assert_eq!(engine.values(), vec![1, 2, 1]);
/// ```
pub struct Engine<'t, P: VertexProgram> {
    program: P,
    config: EngineConfig,
    topology: Cow<'t, Topology>,
    workers: Vec<WorkerState<P::Value, P::Scratch, P::Message>>,
    /// The outboxes of the even and of the odd supersteps, one per worker each. Those filled
    /// in superstep s stay read-only through superstep s + 1, whose workers read their
    /// messages from them, and are cleared and refilled in superstep s + 2.
    outboxes: [Vec<WorkerOutbox<P::Message>>; 2],
    global: P::Global,
    metrics: ExecutionMetrics,
    superstep: usize,
}

impl<'t, P: VertexProgram> Engine<'t, P> {
    /// Creates an engine over `topology` (a [`Topology`] or a `&Topology`) with one initial
    /// value per vertex.
    ///
    /// # Panics
    /// Panics if `initial_values.len() != topology.num_vertices()`.
    pub fn new(
        program: P,
        topology: impl Into<Cow<'t, Topology>>,
        initial_values: Vec<P::Value>,
        config: EngineConfig,
    ) -> Self {
        let topology = topology.into();
        assert_eq!(
            initial_values.len(),
            topology.num_vertices(),
            "one initial value per vertex required"
        );
        let w = config.num_workers;
        let owned = initial_values.len().div_ceil(w);
        let mut workers: Vec<WorkerState<P::Value, P::Scratch, P::Message>> = (0..w)
            .map(|_| WorkerState {
                values: Vec::with_capacity(owned),
                halted: Vec::with_capacity(owned),
                scratch: P::Scratch::default(),
                inbox: GroupedInbox::default(),
            })
            .collect();
        for (v, value) in initial_values.into_iter().enumerate() {
            let worker = v % w;
            workers[worker].values.push(value);
            workers[worker].halted.push(false);
        }
        let outboxes = || (0..w).map(|worker| WorkerOutbox::new(worker, w)).collect();
        Engine {
            program,
            config,
            topology,
            workers,
            outboxes: [outboxes(), outboxes()],
            global: P::Global::default(),
            metrics: ExecutionMetrics::new(w),
            superstep: 0,
        }
    }

    /// The number of vertices managed by the engine.
    pub fn num_vertices(&self) -> usize {
        self.topology.num_vertices()
    }

    /// The current global value (set by the last master compute).
    pub fn global(&self) -> &P::Global {
        &self.global
    }

    /// Execution metrics recorded so far.
    pub fn metrics(&self) -> &ExecutionMetrics {
        &self.metrics
    }

    /// The current value of vertex `v`.
    pub fn value(&self, v: u32) -> &P::Value {
        let w = v as usize % self.config.num_workers;
        let local = v as usize / self.config.num_workers;
        &self.workers[w].values[local]
    }

    /// All vertex values, in vertex-id order.
    pub fn values(&self) -> Vec<P::Value> {
        (0..self.num_vertices() as u32)
            .map(|v| self.value(v).clone())
            .collect()
    }

    /// Runs supersteps until the master halts, every vertex is halted with no pending messages,
    /// or the configured superstep limit is reached. Returns the number of supersteps executed.
    pub fn run(&mut self) -> usize {
        let mut executed = 0;
        while self.superstep < self.config.max_supersteps {
            let (halt, any_active) = self.run_superstep();
            executed += 1;
            if halt || !any_active {
                break;
            }
        }
        executed
    }

    /// Runs a single superstep. Returns `(master_halted, any_vertex_active_or_messages_pending)`.
    pub fn run_superstep(&mut self) -> (bool, bool) {
        let start = Instant::now();
        let num_workers = self.config.num_workers;
        let program = &self.program;
        let topology: &Topology = &self.topology;
        let global = &self.global;
        let superstep = self.superstep;
        let combiner = program.combiner();
        let [even, odd] = &mut self.outboxes;
        let (current, previous) = if superstep.is_multiple_of(2) {
            (even, &*odd)
        } else {
            (odd, &*even)
        };

        // Each simulated worker groups the messages addressed to it in the previous
        // superstep's outboxes and computes its vertices on its own real thread (one scoped
        // thread per worker, results collected in worker-index order so the merge below is
        // deterministic regardless of which worker finishes first).
        let work: Vec<WorkerTask<'_, P::Value, P::Scratch, P::Message>> =
            self.workers.iter_mut().zip(current.iter_mut()).collect();
        let results: Vec<WorkerStepResult<P::Aggregate>> =
            rayon::pool::map_vec(work, num_workers, |worker_idx, (state, outbox)| {
                outbox.clear();
                let WorkerState {
                    values,
                    halted,
                    scratch,
                    inbox,
                } = state;
                let delivered = inbox.group(previous, worker_idx, values.len(), combiner);
                let mut aggregate = P::Aggregate::default();
                let mut active = 0usize;
                let mut unhalted = false;
                for (local, (value, halted)) in values.iter_mut().zip(halted.iter_mut()).enumerate()
                {
                    let incoming = delivered.messages(local);
                    if *halted && incoming.is_empty() {
                        continue;
                    }
                    active += 1;
                    let vertex = (local * num_workers + worker_idx) as u32;
                    let mut halt = false;
                    let mut ctx = Context {
                        program,
                        superstep,
                        global,
                        topology,
                        vertex,
                        outbox: &mut *outbox,
                        aggregate: &mut aggregate,
                        scratch: &mut *scratch,
                        halt: &mut halt,
                    };
                    program.compute(&mut ctx, vertex, value, incoming);
                    *halted = halt;
                    unhalted |= !halt;
                }
                WorkerStepResult {
                    aggregate,
                    active,
                    unhalted,
                    combined: delivered.combined(),
                }
            });

        // Collect metrics and the merged aggregate deterministically (worker-index order).
        let mut step_metrics = SuperstepMetrics {
            superstep,
            ..Default::default()
        };
        let mut merged = P::Aggregate::default();
        let mut any_unhalted = false;
        for (result, outbox) in results.into_iter().zip(current.iter()) {
            step_metrics.active_vertices += result.active;
            step_metrics.max_worker_vertices = step_metrics.max_worker_vertices.max(result.active);
            step_metrics.messages_sent += outbox.messages;
            step_metrics.remote_messages += outbox.remote_messages;
            step_metrics.bytes_sent += outbox.bytes;
            step_metrics.remote_bytes += outbox.remote_bytes;
            step_metrics.combined_messages += result.combined;
            any_unhalted |= result.unhalted;
            self.program.merge_aggregates(&mut merged, result.aggregate);
        }
        let pending_messages = current.iter().any(|outbox| !outbox.is_empty());

        // Master compute.
        let master_halt = match self.program.master_compute(superstep, merged, &self.global) {
            MasterOutcome::Continue(next_global) => {
                self.global = next_global;
                false
            }
            MasterOutcome::Halt => true,
        };

        step_metrics.duration = start.elapsed();
        self.metrics.supersteps.push(step_metrics);
        self.superstep += 1;
        (master_halt, pending_messages || any_unhalted)
    }

    /// Consumes the engine and returns `(vertex values, global value, metrics)`.
    pub fn into_parts(self) -> (Vec<P::Value>, P::Global, ExecutionMetrics) {
        let values = self.values();
        (values, self.global, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Combiner;
    use crate::routing::Messages;
    use crate::topology::TopologyBuilder;

    /// Connected components by label propagation: every vertex repeatedly adopts the minimum
    /// id it has seen and halts when its label stops changing.
    struct MinLabel;

    impl VertexProgram for MinLabel {
        type Value = u32;
        type Message = u32;
        type Aggregate = u64; // number of label changes this superstep
        type Global = ();
        type Scratch = ();

        fn compute(
            &self,
            ctx: &mut Context<'_, Self>,
            _v: u32,
            value: &mut u32,
            msgs: Messages<'_, u32>,
        ) {
            let incoming_min = msgs.iter().copied().min();
            let mut changed = ctx.superstep() == 0;
            if let Some(m) = incoming_min {
                if m < *value {
                    *value = m;
                    changed = true;
                }
            }
            if changed {
                ctx.aggregate(1);
                ctx.send_to_neighbors(*value);
            }
            ctx.vote_to_halt();
        }

        fn combiner(&self) -> Option<Combiner<u32>> {
            Some(|a, b| Some(*a.min(b)))
        }

        fn merge_aggregates(&self, into: &mut u64, other: u64) {
            *into += other;
        }

        fn master_compute(&self, _s: usize, _agg: u64, _g: &()) -> MasterOutcome<()> {
            MasterOutcome::Continue(())
        }
    }

    fn two_components_topology() -> Topology {
        // Component {0,2,4} in a path, component {1,3} in an edge (ids chosen so both workers
        // own vertices of both components).
        let mut b = TopologyBuilder::new(5);
        b.add_undirected_edge(0, 2);
        b.add_undirected_edge(2, 4);
        b.add_undirected_edge(1, 3);
        b.build()
    }

    #[test]
    fn connected_components_converge() {
        let topology = two_components_topology();
        let initial: Vec<u32> = (0..5).collect();
        let mut engine = Engine::new(MinLabel, topology, initial, EngineConfig::new(2, 50));
        let steps = engine.run();
        assert!(steps < 50, "should converge, ran {steps} supersteps");
        assert_eq!(engine.values(), vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn results_are_independent_of_worker_count() {
        for workers in [1, 2, 3, 5, 8] {
            let topology = two_components_topology();
            let initial: Vec<u32> = (0..5).collect();
            let mut engine =
                Engine::new(MinLabel, topology, initial, EngineConfig::new(workers, 50));
            engine.run();
            assert_eq!(engine.values(), vec![0, 1, 0, 1, 0], "workers={workers}");
        }
    }

    #[test]
    fn metrics_track_messages_and_remote_fraction() {
        let topology = two_components_topology();
        let initial: Vec<u32> = (0..5).collect();
        let mut engine = Engine::new(MinLabel, topology, initial, EngineConfig::new(2, 50));
        engine.run();
        let metrics = engine.metrics();
        assert!(metrics.total_messages() > 0);
        assert!(metrics.total_bytes() >= metrics.total_messages() * 4);
        assert!(metrics.total_remote_messages() <= metrics.total_messages());
        assert_eq!(metrics.num_workers, 2);
        assert!(metrics.num_supersteps() >= 2);
        // Superstep 0 runs every vertex.
        assert_eq!(metrics.supersteps[0].active_vertices, 5);
    }

    #[test]
    fn single_worker_sends_no_remote_messages() {
        let topology = two_components_topology();
        let initial: Vec<u32> = (0..5).collect();
        let mut engine = Engine::new(MinLabel, topology, initial, EngineConfig::new(1, 50));
        engine.run();
        assert_eq!(engine.metrics().total_remote_messages(), 0);
        assert!(engine.metrics().total_messages() > 0);
    }

    #[test]
    fn combiner_reduces_delivered_messages() {
        // Star graph: many leaves message the hub with the min combiner; combined count > 0.
        let mut b = TopologyBuilder::new(9);
        for leaf in 1..9 {
            b.add_undirected_edge(0, leaf);
        }
        let topology = b.build();
        let initial: Vec<u32> = (0..9).collect();
        let mut engine = Engine::new(MinLabel, topology, initial, EngineConfig::new(2, 50));
        engine.run();
        let combined: u64 = engine
            .metrics()
            .supersteps
            .iter()
            .map(|s| s.combined_messages)
            .sum();
        assert!(
            combined > 0,
            "the min combiner should merge messages to the hub"
        );
        assert!(engine.values().iter().all(|&v| v == 0));
    }

    /// Program that halts via master decision after a fixed number of supersteps, used to test
    /// the master-driven termination path and global broadcast.
    struct CountDown {
        limit: usize,
    }

    impl VertexProgram for CountDown {
        type Value = usize;
        type Message = ();
        type Aggregate = usize;
        type Global = usize;
        type Scratch = ();

        fn compute(
            &self,
            ctx: &mut Context<'_, Self>,
            _v: u32,
            value: &mut usize,
            _msgs: Messages<'_, ()>,
        ) {
            // Record the global value observed this superstep; never vote to halt.
            *value = *ctx.global();
            ctx.aggregate(1);
        }

        fn merge_aggregates(&self, into: &mut usize, other: usize) {
            *into += other;
        }

        fn master_compute(&self, superstep: usize, agg: usize, _g: &usize) -> MasterOutcome<usize> {
            assert!(agg > 0);
            if superstep + 1 >= self.limit {
                MasterOutcome::Halt
            } else {
                MasterOutcome::Continue(superstep + 1)
            }
        }
    }

    #[test]
    fn master_halt_and_global_broadcast() {
        let topology = TopologyBuilder::new(4).build();
        let mut engine = Engine::new(
            CountDown { limit: 3 },
            topology,
            vec![0usize; 4],
            EngineConfig::new(2, 100),
        );
        let steps = engine.run();
        assert_eq!(steps, 3);
        // In the last superstep (index 2) vertices observed the global set after superstep 1,
        // which is 2.
        assert!(engine.values().iter().all(|&v| v == 2));
        assert_eq!(engine.metrics().num_supersteps(), 3);
    }

    #[test]
    fn value_accessor_matches_values_order() {
        let topology = TopologyBuilder::new(7).build();
        let initial: Vec<u32> = (0..7).map(|v| v * 10).collect();
        let engine = Engine::new(
            MinLabel,
            topology,
            initial.clone(),
            EngineConfig::new(3, 10),
        );
        for v in 0..7u32 {
            assert_eq!(*engine.value(v), initial[v as usize]);
        }
        assert_eq!(engine.values(), initial);
    }

    #[test]
    fn into_parts_returns_everything() {
        let topology = two_components_topology();
        let mut engine = Engine::new(
            MinLabel,
            topology,
            (0..5).collect(),
            EngineConfig::new(2, 50),
        );
        engine.run();
        let (values, _global, metrics) = engine.into_parts();
        assert_eq!(values, vec![0, 1, 0, 1, 0]);
        assert!(metrics.num_supersteps() > 0);
    }

    /// Records every message a vertex receives in superstep 1: `(sender, i)` for the sender's
    /// `i`-th out-edge, sent in superstep 0.
    struct RecordSenders;

    impl VertexProgram for RecordSenders {
        type Value = Vec<(u32, usize)>;
        type Message = (u32, usize);
        type Aggregate = ();
        type Global = ();
        type Scratch = ();

        fn compute(
            &self,
            ctx: &mut Context<'_, Self>,
            vertex: u32,
            value: &mut Vec<(u32, usize)>,
            msgs: Messages<'_, (u32, usize)>,
        ) {
            if ctx.superstep() == 0 {
                for (i, &n) in ctx.neighbors().iter().enumerate() {
                    ctx.send(n, (vertex, i));
                }
            } else {
                value.extend(msgs.iter().copied());
            }
        }

        fn merge_aggregates(&self, _into: &mut (), _other: ()) {}

        fn master_compute(&self, superstep: usize, _agg: (), _g: &()) -> MasterOutcome<()> {
            if superstep >= 1 {
                MasterOutcome::Halt
            } else {
                MasterOutcome::Continue(())
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// On random directed multigraphs, at every worker count from 1 to 5, each vertex
        /// receives its messages in ascending sender order, each sender's in send order.
        #[test]
        fn every_vertex_receives_in_ascending_sender_order(
            num_vertices in 1usize..30,
            edges in proptest::collection::vec((0usize..30, 0usize..30), 0..150),
        ) {
            let mut builder = TopologyBuilder::new(num_vertices);
            for &(from, to) in &edges {
                builder.add_edge((from % num_vertices) as u32, (to % num_vertices) as u32);
            }
            let topology = builder.build();
            let expected: Vec<Vec<(u32, usize)>> = (0..num_vertices as u32)
                .map(|v| {
                    (0..num_vertices as u32)
                        .flat_map(|u| {
                            let out = topology.neighbors(u);
                            (0..out.len()).filter(move |&i| out[i] == v).map(move |i| (u, i))
                        })
                        .collect()
                })
                .collect();
            for workers in 1..=5 {
                let initial = vec![Vec::new(); num_vertices];
                let config = EngineConfig::new(workers, 4);
                let mut engine = Engine::new(RecordSenders, topology.clone(), initial, config);
                engine.run();
                proptest::prop_assert_eq!(&engine.values(), &expected, "workers={}", workers);
            }
        }
    }

    /// Clones of [`Counted`] messages made so far.
    static CLONES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// A message that counts its own clones.
    #[derive(Debug)]
    struct Counted(u32);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Counted(self.0)
        }
    }

    /// Every vertex sends its id to all its out-neighbors in superstep 0 and records the ids
    /// it receives in superstep 1.
    struct Broadcast;

    impl VertexProgram for Broadcast {
        type Value = Vec<u32>;
        type Message = Counted;
        type Aggregate = ();
        type Global = ();
        type Scratch = ();

        fn compute(
            &self,
            ctx: &mut Context<'_, Self>,
            vertex: u32,
            value: &mut Vec<u32>,
            msgs: Messages<'_, Counted>,
        ) {
            if ctx.superstep() == 0 {
                ctx.send_to_neighbors(Counted(vertex));
            } else {
                value.extend(msgs.iter().map(|m| m.0));
            }
        }

        fn merge_aggregates(&self, _into: &mut (), _other: ()) {}

        fn master_compute(&self, superstep: usize, _agg: (), _g: &()) -> MasterOutcome<()> {
            if superstep >= 1 {
                MasterOutcome::Halt
            } else {
                MasterOutcome::Continue(())
            }
        }
    }

    #[test]
    fn a_broadcast_is_stored_once_and_never_cloned() {
        let num_vertices = 13u32;
        let mut b = TopologyBuilder::new(num_vertices as usize);
        for v in 0..num_vertices {
            for u in (0..num_vertices).filter(|&u| u != v && (u * 7 + v * 3) % 5 < 2) {
                b.add_edge(v, u);
            }
        }
        let topology = b.build();
        let expected: Vec<Vec<u32>> = (0..num_vertices)
            .map(|v| {
                (0..num_vertices)
                    .filter(|&u| topology.neighbors(u).contains(&v))
                    .collect()
            })
            .collect();
        assert!(topology.num_edges() > 2 * num_vertices as usize);
        for workers in [1, 2, 3, 5] {
            CLONES.store(0, std::sync::atomic::Ordering::Relaxed);
            let initial = vec![Vec::new(); num_vertices as usize];
            let mut engine =
                Engine::new(Broadcast, &topology, initial, EngineConfig::new(workers, 4));
            engine.run();
            assert_eq!(
                CLONES.load(std::sync::atomic::Ordering::Relaxed),
                0,
                "workers={workers}"
            );
            assert_eq!(engine.values(), expected, "workers={workers}");
            assert_eq!(
                engine.metrics().supersteps[0].messages_sent,
                topology.num_edges() as u64
            );
        }
    }

    #[test]
    #[should_panic(expected = "one initial value per vertex")]
    fn mismatched_initial_values_panic() {
        let topology = TopologyBuilder::new(3).build();
        let _ = Engine::new(MinLabel, topology, vec![0u32; 2], EngineConfig::new(1, 1));
    }
}
