//! The serving workloads: `serve-read` (closed-loop multigets on the generator's own
//! placement) and `serve-repartition` (the same traffic from a hashed placement, with a
//! `RepartitionController` epoch running beside the reads).

use crate::inputs::{graph_path, placement_path, SHARDS};
use crate::measure::{median, ms, peak_rss_mb, tail, Reservoir, SplitMix, Zipf};
use crate::trace::Trace;
use crate::{detail, Args, Outcome, THREADS};
use shp_controller::{AccessTraceCollector, ControllerConfig, RepartitionController};
use shp_core::{partition_incremental, IncrementalConfig, ShpConfig};
use shp_hypergraph::{io, BipartiteGraph, DataId, Partition};
use shp_serving::{
    load_warm_start_with, value_of, EngineConfig, MultigetResult, PartitionDelta,
    PartitionSnapshot, ServingEngine, ShardRouter, ShardSet,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up rounds per run; `setup_s` is the median. The first rounds of a fresh process
/// fault in new memory, so enough rounds follow them for a steady median.
const SETUP_ROUNDS: usize = 21;
/// Zipf exponent of the query popularity.
const ZIPF_S: f64 = 1.0;
/// Hot-key cache capacity as a share of the key universe.
const CACHE_SHARE: f64 = 1.0 / 32.0;
/// Per-client traffic ring: queries drawn up front, replayed in order.
const TRAFFIC_LEN: usize = 1 << 16;
/// Untimed multigets per client before the window, so the cache is filled.
const WARMUP: Duration = Duration::from_millis(500);
/// Latency samples kept per client.
const RESERVOIR: usize = 200_000;
/// Reservoir slots of the access-trace collector.
const TRACE_SLOTS: usize = 4096;
/// Multigets the client serves between two controller epochs.
const EPOCH_EVERY: u64 = 20_000;
/// Keys one epoch may move.
const MIGRATION_BUDGET: usize = 256;
/// Traced runs replay route and execute on every this-many-th multiget.
const SAMPLE_EVERY: u64 = 16;

/// What one client saw in a window.
struct ClientStats {
    latencies_ms: Reservoir,
    served: u64,
    attempted: u64,
    failed: u64,
    fanout_sum: u64,
    keys_sum: u64,
    /// Traced runs: `(multiget, route, execute)` µs of sampled multigets with no cache hit.
    samples: Vec<(f64, f64, f64)>,
    route_us: Vec<f64>,
    execute_us: Vec<f64>,
}

/// The live set-up of a serving workload.
struct Served {
    graph: BipartiteGraph,
    engine: ServingEngine,
}

fn engine_config(args: &Args, num_keys: usize) -> EngineConfig {
    EngineConfig {
        cache_capacity: (num_keys as f64 * CACHE_SHARE) as usize,
        seed: args.seed,
        ..EngineConfig::default()
    }
}

fn controller_config(args: &Args) -> ControllerConfig {
    ControllerConfig {
        migration_budget: MIGRATION_BUDGET,
        seed: args.seed,
        ..ControllerConfig::default()
    }
}

/// Checks one multiget against the distinct keys requested (sorted, deduplicated).
fn check_multiget(
    result: &shp_serving::Result<MultigetResult>,
    distinct: &[DataId],
    last_epoch: &mut u64,
) -> Option<String> {
    let result = match result {
        Ok(result) => result,
        Err(err) => return Some(format!("multiget failed: {err}")),
    };
    if result.is_degraded() {
        return Some(format!(
            "degraded: {} keys missing",
            result.missing_keys.len()
        ));
    }
    if result.values.len() != distinct.len()
        || result
            .values
            .iter()
            .zip(distinct)
            .any(|(&(key, value), &wanted)| key != wanted || value != value_of(key))
    {
        return Some("returned keys or values differ from the request".into());
    }
    if result.epoch < *last_epoch {
        return Some(format!(
            "epoch went back from {last_epoch} to {}",
            result.epoch
        ));
    }
    *last_epoch = result.epoch;
    None
}

/// A closed loop: the client issues its next multiget only when the previous one returned.
/// `served`, when a controller thread runs beside the client, counts completed multigets
/// for it (no shared counter otherwise, so clients share no cache line). In traced runs every
/// multiget gets a span, and every `SAMPLE_EVERY`-th is replayed through `ShardRouter::route`
/// and `ShardSet::execute` on `replay`, a shard set the benchmark built from `snapshot`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    engine: &ServingEngine,
    graph: &BipartiteGraph,
    traffic: &[u32],
    cursor: &mut usize,
    until: Instant,
    served: Option<&AtomicU64>,
    seed: u64,
    mut trace: Option<(&mut Trace, &PartitionSnapshot, &ShardSet)>,
) -> ClientStats {
    let mut stats = ClientStats {
        latencies_ms: Reservoir::new(RESERVOIR, seed),
        served: 0,
        attempted: 0,
        failed: 0,
        fanout_sum: 0,
        keys_sum: 0,
        samples: Vec::new(),
        route_us: Vec::new(),
        execute_us: Vec::new(),
    };
    let router = ShardRouter::new();
    let mut distinct: Vec<DataId> = Vec::new();
    let mut last_epoch = 0u64;
    while Instant::now() < until {
        let keys = graph.query_neighbors(traffic[*cursor % traffic.len()]);
        *cursor += 1;
        let seq = stats.served;
        let start = Instant::now();
        let result = match &mut trace {
            Some((trace, _, _)) => trace.span("engine::multiget", seq, |_| engine.multiget(keys)),
            None => engine.multiget(keys),
        };
        let elapsed = start.elapsed();
        if let Some(served) = served {
            served.fetch_add(1, Ordering::Relaxed);
        }
        distinct.clear();
        distinct.extend_from_slice(keys);
        distinct.sort_unstable();
        distinct.dedup();
        stats.attempted += 1;
        if let Some(problem) = check_multiget(&result, &distinct, &mut last_epoch) {
            stats.failed += 1;
            if stats.failed <= 5 {
                eprintln!("check failed: {problem}");
            }
        }
        stats.served += 1;
        stats.latencies_ms.record(ms(elapsed));
        stats.keys_sum += distinct.len() as u64;
        let cache_hits = result.as_ref().map_or(0, |r| r.cache_hits);
        stats.fanout_sum += result.map_or(0, |r| u64::from(r.fanout));
        if let Some((trace, snapshot, shards)) = &mut trace {
            if seq.is_multiple_of(SAMPLE_EVERY) {
                // The replay is a checked operation of its own.
                stats.attempted += 1;
                let start = Instant::now();
                let plan = trace.span("router::route", seq, |_| router.route(snapshot, &distinct));
                let route_us = start.elapsed().as_secs_f64() * 1e6;
                let start = Instant::now();
                let executed = plan.and_then(|plan| {
                    trace.span("shard_set::execute", seq, |_| shards.execute(&plan))
                });
                let execute_us = start.elapsed().as_secs_f64() * 1e6;
                if let Err(err) = executed {
                    stats.failed += 1;
                    eprintln!("check failed: replayed route and execute: {err}");
                    continue;
                }
                stats.route_us.push(route_us);
                stats.execute_us.push(execute_us);
                if cache_hits == 0 {
                    stats
                        .samples
                        .push((elapsed.as_secs_f64() * 1e6, route_us, execute_us));
                }
            }
        }
    }
    stats
}

/// One controller epoch replayed through its public calls one by one, with a span each
/// (the same steps `RepartitionController::run_epoch` takes). Returns the keys moved, or
/// `None` when the reservoir held nothing to decide on.
fn traced_epoch(
    trace: &mut Trace,
    group: u64,
    engine: &ServingEngine,
    collector: &AccessTraceCollector,
    config: &ControllerConfig,
) -> Result<Option<usize>, String> {
    trace.span("controller::epoch", group, |t| {
        let observed = t.span("trace::observed_graph", group, |_| {
            collector.observed_graph(engine.num_keys())
        });
        let Some(graph) = observed.map_err(|e| e.to_string())? else {
            return Ok(None);
        };
        let snapshot = engine.current_snapshot();
        let live = Partition::from_assignment(&graph, snapshot.num_shards(), snapshot.assignment())
            .map_err(|e| e.to_string())?;
        let mut shp = ShpConfig::direct(snapshot.num_shards())
            .with_seed(config.seed ^ snapshot.epoch())
            .with_max_iterations(config.max_iterations);
        shp.epsilon = config.epsilon;
        let incremental = IncrementalConfig {
            movement_penalty: config.movement_penalty,
            max_moved_fraction: 1.0,
            max_moves: Some(config.migration_budget),
        };
        let result = t
            .span("core::partition_incremental", group, |_| {
                partition_incremental(&graph, &shp, &incremental, &live)
            })
            .map_err(|e| e.to_string())?;
        let delta = t
            .span("serving::PartitionDelta::between", group, |_| {
                PartitionDelta::between(&snapshot, &result.partition)
            })
            .map_err(|e| e.to_string())?;
        t.span("engine::install_delta", group, |_| {
            engine.install_delta(&delta)
        })
        .map_err(|e| e.to_string())?;
        collector.reset();
        Ok(Some(delta.len()))
    })
}

/// What the controller thread saw in a window.
#[derive(Default)]
struct EpochStats {
    epoch_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    keys_moved: usize,
}

/// Runs one controller epoch each time the client has served another `EPOCH_EVERY`
/// multigets, until `stop` is set. The client never waits for an epoch.
fn controller_loop(
    served: &AtomicU64,
    stop: &AtomicBool,
    engine: &ServingEngine,
    controller: &mut RepartitionController,
    config: &ControllerConfig,
    mut trace: Option<&mut Trace>,
) -> EpochStats {
    let mut stats = EpochStats::default();
    let mut next = served.load(Ordering::Relaxed) + EPOCH_EVERY;
    while !stop.load(Ordering::Relaxed) {
        if served.load(Ordering::Relaxed) < next {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        let start = Instant::now();
        let result = match &mut trace {
            Some(trace) => {
                let collector = controller.collector();
                let group = stats.attempted;
                traced_epoch(trace, group, engine, &collector, config)
            }
            None => controller
                .run_epoch(engine)
                .map(|epoch| epoch.map(|e| e.moved_keys))
                .map_err(|e| e.to_string()),
        };
        stats.epoch_ms.push(ms(start.elapsed()));
        // Count from the end of the epoch, so every epoch observes a full window of traffic.
        next = served.load(Ordering::Relaxed) + EPOCH_EVERY;
        stats.attempted += 1;
        match result {
            Ok(Some(moved)) if moved <= MIGRATION_BUDGET => stats.keys_moved += moved,
            Ok(Some(moved)) => {
                stats.failed += 1;
                eprintln!("check failed: epoch moved {moved} keys, over the budget");
            }
            Ok(None) => {
                stats.failed += 1;
                eprintln!("check failed: epoch skipped, nothing observed");
            }
            Err(err) => {
                stats.failed += 1;
                eprintln!("check failed: epoch failed: {err}");
            }
        }
    }
    stats
}

/// Everything one window measured, over all clients.
struct Window {
    seconds: f64,
    latencies_ms: Vec<f64>,
    served: u64,
    fanout_sum: u64,
    keys_sum: u64,
    samples: Vec<(f64, f64, f64)>,
    route_us: Vec<f64>,
    execute_us: Vec<f64>,
    epochs: EpochStats,
}

/// Serves for `length`: `clients` client threads, plus the controller thread when
/// `controller` is given. With `trace`, every thread records spans into a fork of it.
#[allow(clippy::too_many_arguments)]
fn window(
    served: &Served,
    traffic: &[Vec<u32>],
    cursors: &mut [usize],
    length: Duration,
    controller: Option<(&mut RepartitionController, &ControllerConfig)>,
    seed: u64,
    trace: Option<&mut Trace>,
    outcome: &mut Outcome,
) -> Window {
    let counter = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let snapshot = served.engine.current_snapshot();
    let replay = trace.as_ref().map(|_| {
        let config = EngineConfig::default();
        ShardSet::build(&snapshot, config.latency_model, seed)
    });
    let mut forks: Vec<Trace> = match &trace {
        Some(t) => (0..=cursors.len() as u64).map(|i| t.fork(i + 1)).collect(),
        None => Vec::new(),
    };
    let until = Instant::now() + length;
    let started = Instant::now();
    let (clients, seconds, epochs) = std::thread::scope(|scope| {
        let mut fork_iter = forks.iter_mut();
        let handles: Vec<_> = cursors
            .iter_mut()
            .zip(traffic)
            .enumerate()
            .map(|(i, (cursor, queries))| {
                let fork = fork_iter.next();
                let snapshot = &snapshot;
                let replay = replay.as_ref();
                let counter = controller.is_some().then_some(&counter);
                scope.spawn(move || {
                    let tracing = fork.zip(replay).map(|(t, r)| (t, snapshot, r));
                    client_loop(
                        &served.engine,
                        &served.graph,
                        queries,
                        cursor,
                        until,
                        counter,
                        seed ^ (i as u64 + 1),
                        tracing,
                    )
                })
            })
            .collect();
        let epochs = controller.map(|(controller, config)| {
            let fork = fork_iter.next();
            let (counter, stop) = (&counter, &stop);
            scope.spawn(move || {
                controller_loop(counter, stop, &served.engine, controller, config, fork)
            })
        });
        let clients: Vec<ClientStats> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        // The window ends with the clients; an epoch still running finishes outside it.
        let seconds = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let epochs = epochs.map(|h| h.join().expect("controller thread panicked"));
        (clients, seconds, epochs.unwrap_or_default())
    });
    if let Some(trace) = trace {
        for fork in forks {
            trace.absorb(fork);
        }
    }
    let mut out = Window {
        seconds,
        latencies_ms: Vec::new(),
        served: 0,
        fanout_sum: 0,
        keys_sum: 0,
        samples: Vec::new(),
        route_us: Vec::new(),
        execute_us: Vec::new(),
        epochs,
    };
    for client in clients {
        outcome.attempted += client.attempted;
        outcome.failed += client.failed;
        out.served += client.served;
        out.fanout_sum += client.fanout_sum;
        out.keys_sum += client.keys_sum;
        out.latencies_ms.extend(client.latencies_ms.into_samples());
        out.samples.extend(client.samples);
        out.route_us.extend(client.route_us);
        out.execute_us.extend(client.execute_us);
    }
    outcome.attempted += out.epochs.attempted;
    outcome.failed += out.epochs.failed;
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let repartition = args.workload == "serve-repartition";
    let graph_file = graph_path(args);
    let placement_file = placement_path(&args.dir, &args.workload);
    let mut trace = Trace::new(Instant::now(), 0);

    // Set-up: memory-map the graph, read the placement, build the engine and its shards.
    // The access-trace collector is the controller's, so it is made once, outside set-up.
    let collector = Arc::new(AccessTraceCollector::new(TRACE_SLOTS, args.seed));
    let mut setup_ms = Vec::new();
    let mut map_ms = Vec::new();
    let mut served = None;
    for round in 0..SETUP_ROUNDS as u64 {
        if args.trace {
            let start = Instant::now();
            trace
                .span("io::map_shpb_file", round, |_| {
                    io::map_shpb_file(&graph_file)
                })
                .map_err(|e| format!("map {graph_file:?}: {e}"))?;
            map_ms.push(ms(start.elapsed()));
        }
        let start = Instant::now();
        let built = trace.span_if(args.trace, "serving::setup", round, |t| {
            let warm = t
                .span_if(args.trace, "serving::load_warm_start_with", round, |_| {
                    load_warm_start_with(&graph_file, Some(&placement_file), SHARDS, THREADS, true)
                })
                .map_err(|e| format!("warm start: {e}"))?;
            let partition = warm.partition.ok_or("the warm start has no placement")?;
            let config = engine_config(args, warm.graph.num_data());
            let engine = t
                .span_if(args.trace, "serving::ServingEngine::new", round, |_| {
                    ServingEngine::new(&partition, config)
                })
                .map_err(|e| format!("engine: {e}"))?;
            let engine = if repartition {
                engine.with_access_observer(collector.clone())
            } else {
                engine
            };
            Ok::<_, String>(Served {
                graph: warm.graph,
                engine,
            })
        })?;
        setup_ms.push(ms(start.elapsed()));
        served = Some(built);
    }
    let served = served.expect("at least one set-up round");
    detail("setup_ms", format!("{setup_ms:.2?}"));
    let num_keys = served.engine.num_keys();
    let cache_capacity = engine_config(args, num_keys).cache_capacity;
    detail(
        "input",
        format!(
            "planted partition, |Q| {} |D| {} pins {} file_bytes {} (.shpb), placement {}",
            served.graph.num_queries(),
            served.graph.num_data(),
            served.graph.num_edges(),
            crate::inputs::file_bytes(&graph_file),
            placement_file
                .file_name()
                .map_or("?".into(), |n| n.to_string_lossy()),
        ),
    );
    detail("zipf_exponent", ZIPF_S);
    detail(
        "cache_capacity_to_keys",
        format!(
            "{} ({cache_capacity} of {num_keys})",
            cache_capacity as f64 / num_keys as f64
        ),
    );
    let clients = if repartition { 1 } else { THREADS };
    detail(
        "threads",
        format!(
            "clients {clients} (closed loop){}",
            if repartition { " + controller 1" } else { "" }
        ),
    );

    // Traffic: a seeded Zipf over the graph's queries, drawn up front per client.
    let mut rng = SplitMix::new(args.seed ^ 0x007A_FF1C);
    let zipf = Zipf::new(served.graph.num_queries(), ZIPF_S, &mut rng);
    let traffic: Vec<Vec<u32>> = (0..clients)
        .map(|_| (0..TRAFFIC_LEN).map(|_| zipf.sample(&mut rng)).collect())
        .collect();
    drop(zipf);
    let mut cursors = vec![0usize; clients];
    let config = controller_config(args);
    let mut controller =
        repartition.then(|| RepartitionController::new(collector.clone(), config.clone()));

    let mut outcome = Outcome::default();
    // Warm-up fills the cache; its multigets are checked but not timed.
    window(
        &served,
        &traffic,
        &mut cursors,
        WARMUP,
        None,
        args.seed,
        None,
        &mut outcome,
    );
    let length = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let cache_before = served.engine.report().cache;
    let untraced = window(
        &served,
        &traffic,
        &mut cursors,
        length,
        controller.as_mut().map(|c| (c, &config)),
        args.seed,
        None,
        &mut outcome,
    );
    report_window("untraced", &untraced);
    if !args.trace {
        let (tail_label, tail_ms) = tail(&untraced.latencies_ms);
        outcome.set("setup_s", median(&setup_ms) / 1e3);
        let multiget_p50_ms = median(&untraced.latencies_ms);
        outcome.set("op_p50_ms", multiget_p50_ms);
        // The tail is printed, not gated: between runs it moved too far with host load.
        detail("op_tail_ms", format!("{tail_ms} ({tail_label})"));
        outcome.set("ops_per_s", untraced.served as f64 / untraced.seconds);
        // The heaviest call each serving workload repeats: the epoch where one runs, else
        // the multiget itself.
        let heavy_op_p50_ms = if repartition {
            median(&untraced.epochs.epoch_ms)
        } else {
            multiget_p50_ms
        };
        outcome.set("heavy_op_p50_ms", heavy_op_p50_ms);
        outcome.set(
            "fanout",
            untraced.fanout_sum as f64 / untraced.served.max(1) as f64,
        );
        outcome.set("peak_rss_mb", peak_rss_mb());
        return Ok(outcome);
    }

    // Traced window: the same traffic with a span around every public call.
    let cache_mid = served.engine.report().cache;
    let traced = window(
        &served,
        &traffic,
        &mut cursors,
        length,
        controller.as_mut().map(|c| (c, &config)),
        args.seed,
        Some(&mut trace),
        &mut outcome,
    );
    report_window("traced", &traced);
    let cache_after = served.engine.report().cache;
    detail(
        "cache_hit_ratio_untraced",
        ratio(
            cache_mid.hits - cache_before.hits,
            cache_mid.misses - cache_before.misses,
        ),
    );
    outcome.set("io.map_ms", median(&map_ms));
    outcome.set("serving.build_ms", median(&setup_ms));
    let engine_self: Vec<f64> = traced.samples.iter().map(|&(m, r, e)| m - r - e).collect();
    detail("engine_self_samples", engine_self.len());
    outcome.set("serving.route_us", median(&traced.route_us));
    outcome.set("serving.execute_us", median(&traced.execute_us));
    outcome.set("serving.engine_self_us", median(&engine_self));
    outcome.set(
        "serving.keys_per_multiget",
        traced.keys_sum as f64 / traced.served.max(1) as f64,
    );
    outcome.set(
        "serving.batches_per_multiget",
        traced.fanout_sum as f64 / traced.served.max(1) as f64,
    );
    outcome.set(
        "serving.cache_hit_ratio",
        ratio(
            cache_after.hits - cache_mid.hits,
            cache_after.misses - cache_mid.misses,
        ),
    );
    if repartition {
        outcome.set(
            "controller.observe_ms",
            median(&trace.durations_ms("trace::observed_graph")),
        );
        outcome.set(
            "controller.incremental_ms",
            median(&trace.durations_ms("core::partition_incremental")),
        );
        outcome.set(
            "controller.delta_ms",
            median(&trace.durations_ms("serving::PartitionDelta::between")),
        );
        outcome.set(
            "controller.install_ms",
            median(&trace.durations_ms("engine::install_delta")),
        );
        outcome.set(
            "controller.keys_moved",
            (untraced.epochs.keys_moved + traced.epochs.keys_moved) as f64,
        );
        let stats = collector.stats();
        detail("trace_stats", format!("{stats:?}"));
        outcome.set(
            "controller.trace_contended_ratio",
            ratio(stats.contended, stats.recorded - stats.contended),
        );
    }
    let untraced_p50 = median(&untraced.latencies_ms);
    let traced_p50 = median(&traced.latencies_ms);
    detail(
        "traced_op_p50_ms",
        format!("{traced_p50:.6} (untraced {untraced_p50:.6})"),
    );
    detail(
        "traced_ops_per_s",
        format!(
            "{:.1} (untraced {:.1})",
            traced.served as f64 / traced.seconds,
            untraced.served as f64 / untraced.seconds
        ),
    );
    // Coverage: the share of the traced window's client time spent inside multiget spans.
    let multiget_ms = trace.total_ms("engine::multiget");
    outcome.set(
        "trace.coverage",
        multiget_ms / (traced.seconds * 1e3 * clients as f64),
    );
    outcome.set(
        "trace.overhead",
        (untraced.served as f64 / untraced.seconds) / (traced.served as f64 / traced.seconds) - 1.0,
    );
    print!("{}", trace.tree_summary());
    let spans_path = args.dir.join("spans.jsonl");
    trace
        .write_jsonl(&spans_path, 100_000)
        .map_err(|e| format!("write {spans_path:?}: {e}"))?;
    Ok(outcome)
}

fn ratio(part: u64, rest: u64) -> f64 {
    part as f64 / (part + rest).max(1) as f64
}

fn report_window(label: &str, w: &Window) {
    detail(
        &format!("{label}_window"),
        format!(
            "{:.3} s, {} multigets, {} epochs (p50 {:.1} ms)",
            w.seconds,
            w.served,
            w.epochs.epoch_ms.len(),
            median(&w.epochs.epoch_ms)
        ),
    );
}
