//! The partition workloads: `bisect-k2048` (SHP-2 in process) and `bsp-k32` (the same
//! algorithm on the vertex-centric BSP engine), both through `AlgorithmRegistry`.

use crate::inputs::{file_bytes, graph_path, BISECT_K, BSP_K};
use crate::measure::{median, ms, peak_rss_mb, tail, with_rss_sampler};
use crate::replay::{bisection_levels, replay_levels, replay_steps};
use crate::trace::Trace;
use crate::{detail, Args, Outcome, THREADS};
use shp_core::api::{assemble_outcome, AlgorithmRegistry, NoopObserver, PartitionOutcome};
use shp_core::{partition_distributed, partition_recursive, PartitionMode, PartitionSpec};
use shp_hypergraph::{average_fanout, io, BipartiteGraph};
use std::time::{Duration, Instant};

/// Parses of the input file per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 21;

struct Workload {
    algorithm: &'static str,
    spec: PartitionSpec,
}

fn workload(args: &Args) -> Workload {
    let (algorithm, k) = if args.workload == "bisect-k2048" {
        ("shp2", BISECT_K)
    } else {
        ("distributed", BSP_K)
    };
    Workload {
        algorithm,
        spec: PartitionSpec::new(k)
            .with_workers(THREADS)
            .with_seed(args.seed),
    }
}

/// Checks one outcome: every vertex covered by a valid bucket, the ε bound kept, and the
/// reported fanout equal to the benchmark's own recomputation. Returns the recomputed fanout.
fn check(
    graph: &BipartiteGraph,
    spec: &PartitionSpec,
    outcome: &PartitionOutcome,
) -> (f64, Option<String>) {
    let partition = &outcome.partition;
    let fanout = average_fanout(graph, partition);
    let problem = if partition.num_data() != graph.num_data() {
        Some(format!(
            "partition covers {} of {} vertices",
            partition.num_data(),
            graph.num_data()
        ))
    } else if partition.num_buckets() != spec.num_buckets
        || partition
            .assignment()
            .iter()
            .any(|&b| b >= spec.num_buckets)
    {
        Some(format!(
            "partition has buckets outside 0..{}",
            spec.num_buckets
        ))
    } else if !partition.is_balanced(spec.epsilon) {
        Some(format!(
            "imbalance {} breaks ε = {}",
            partition.imbalance(),
            spec.epsilon
        ))
    } else if fanout != outcome.fanout {
        Some(format!(
            "reported fanout {} != recomputed {fanout}",
            outcome.fanout
        ))
    } else {
        None
    };
    (fanout, problem)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let Workload { algorithm, spec } = workload(args);
    let path = graph_path(args);
    let bytes = file_bytes(&path);
    let mut trace = Trace::new(Instant::now(), 0);
    let mut parse_ms = Vec::new();
    let mut graph = None;
    for round in 0..SETUP_ROUNDS as u64 {
        let start = Instant::now();
        let parsed = trace.span_if(args.trace, "io::read_graph_file_with", round, |_| {
            io::read_graph_file_with(&path, THREADS)
        });
        parse_ms.push(ms(start.elapsed()));
        graph = Some(parsed.map_err(|e| format!("parse {path:?}: {e}"))?);
    }
    let graph = graph.expect("at least one set-up round");
    detail(
        "input",
        format!(
            "email-Enron power law, |Q| {} |D| {} pins {} file_bytes {bytes} (hMETIS)",
            graph.num_queries(),
            graph.num_data(),
            graph.num_edges()
        ),
    );
    detail(
        "threads",
        format!("{algorithm} k {} workers {THREADS}", spec.num_buckets),
    );
    let registry = AlgorithmRegistry::core();
    let mut outcome = Outcome::default();
    let setup_s = median(&parse_ms) / 1e3;

    // Timed window: whole partition calls, back to back, until the time is up.
    let window = Duration::from_secs_f64(if args.trace { 0.0 } else { args.seconds });
    let mut op_ms = Vec::new();
    let mut fanouts = Vec::new();
    let started = Instant::now();
    loop {
        let start = Instant::now();
        let result = registry.run(algorithm, &graph, &spec, &mut NoopObserver);
        op_ms.push(ms(start.elapsed()));
        match result {
            Ok(partitioned) => {
                let (fanout, mut problem) = check(&graph, &spec, &partitioned);
                if fanouts.first().is_some_and(|&first| first != fanout) {
                    problem = Some(format!("fanout {fanout} differs from the first call's"));
                }
                fanouts.push(fanout);
                outcome.check(problem);
            }
            Err(err) => outcome.check(Some(format!("partition failed: {err}"))),
        }
        if started.elapsed() >= window {
            break;
        }
    }
    let window_s = started.elapsed().as_secs_f64();
    detail("partition_calls", op_ms.len());
    detail("partition_ms", format!("{op_ms:.1?}"));
    let fanout = fanouts.first().copied().unwrap_or(f64::NAN);
    if !args.trace {
        let (tail_label, tail_ms) = tail(&op_ms);
        outcome.set("setup_s", setup_s);
        outcome.set("op_p50_ms", median(&op_ms));
        // The tail is printed, not gated: between runs it moved too far with host load.
        detail("op_tail_ms", format!("{tail_ms} ({tail_label})"));
        outcome.set("ops_per_s", op_ms.len() as f64 / window_s);
        // The partition call is both the workload's only and its heaviest call.
        outcome.set("heavy_op_p50_ms", median(&op_ms));
        outcome.set("fanout", fanout);
        outcome.set("peak_rss_mb", peak_rss_mb());
        return Ok(outcome);
    }

    // Traced run: the untraced call above is the reference; now the same work with a span
    // around every public call, then the layer replays.
    let reference_ms = op_ms[0];
    outcome.set("io.parse_ms", median(&parse_ms));
    outcome.set(
        "io.parse_mb_per_s",
        bytes as f64 / 1e6 / (median(&parse_ms) / 1e3),
    );
    spec.validate().map_err(|e| e.to_string())?;
    let (assembled, traced_ms) = if algorithm == "shp2" {
        traced_bisection(&mut trace, &graph, &spec, &mut outcome)?
    } else {
        traced_bsp(&mut trace, &graph, &spec, &mut outcome)?
    };
    let (traced_fanout, problem) = check(&graph, &spec, &assembled);
    outcome.check(problem.or_else(|| {
        (traced_fanout != fanout)
            .then(|| format!("traced fanout {traced_fanout} != untraced {fanout}"))
    }));
    detail(
        "traced_op_ms",
        format!("{traced_ms:.3} (untraced {reference_ms:.3})"),
    );
    detail("traced_peak_rss_mb", peak_rss_mb());
    outcome.set("trace.coverage", trace.coverage("api::partition"));
    outcome.set("trace.overhead", traced_ms / reference_ms - 1.0);
    print!("{}", trace.tree_summary());
    let spans_path = args.dir.join("spans.jsonl");
    trace
        .write_jsonl(&spans_path, 100_000)
        .map_err(|e| format!("write {spans_path:?}: {e}"))?;
    Ok(outcome)
}

/// The traced `bisect-k2048` call: `partition_recursive` (what the `Shp2` adapter calls, here
/// for its `RunReport`) with a `VmRSS` sampler beside it, then `assemble_outcome`; then the
/// level and Figure-3 replays on the run's own result. Returns the outcome and the traced
/// call's ms.
fn traced_bisection(
    trace: &mut Trace,
    graph: &BipartiteGraph,
    spec: &PartitionSpec,
    outcome: &mut Outcome,
) -> Result<(PartitionOutcome, f64), String> {
    let config = spec.shp_config(PartitionMode::recursive_bisection());
    let start = Instant::now();
    let (result, rss, assembled) = trace.span("api::partition", 0, |t| {
        let (result, rss) = with_rss_sampler(|| {
            t.span("core::partition_recursive", 0, |_| {
                partition_recursive(graph, &config)
            })
        });
        let result = result.map_err(|e| format!("partition_recursive: {e}"))?;
        let report = &result.report;
        let assembled = t.span("api::assemble_outcome", 0, |_| {
            assemble_outcome(
                "shp2",
                graph,
                result.partition.clone(),
                spec,
                report.total_iterations(),
                report.total_moves() as u64,
                report.elapsed,
            )
        });
        Ok::<_, String>((result, rss, assembled))
    })?;
    let traced_ms = ms(start.elapsed());
    let report = &result.report;
    let last = report.levels.last().ok_or("the run reported no levels")?;
    // Attribute every VmRSS sample to the level whose cumulative time holds it (the sampler
    // starts just before the call, so its offsets are from the call's start).
    let mut level_end = Duration::ZERO;
    let mut last_level_rss = f64::NAN;
    for level in &report.levels {
        let level_start = level_end;
        level_end += level.elapsed;
        last_level_rss = rss
            .iter()
            .filter(|(at, _)| *at >= level_start && *at < level_end)
            .map(|&(_, mb)| mb)
            .fold(f64::NAN, f64::max);
        detail(
            &format!("level {}", level.level),
            format!(
                "buckets {:>5} iterations {:>3} ms {:>9.1} fanout {:.4} vmrss_max_mb {last_level_rss:.1}",
                level.buckets_after,
                level.iterations,
                ms(level.elapsed),
                level.fanout_after
            ),
        );
    }
    outcome.set("recursive.levels", report.levels.len() as f64);
    outcome.set("recursive.last_level_ms", ms(last.elapsed));
    outcome.set(
        "recursive.last_level_share",
        ms(last.elapsed) / ms(report.elapsed),
    );
    if last_level_rss.is_nan() {
        last_level_rss = rss.last().map_or(0.0, |&(_, mb)| mb);
    }
    outcome.set("recursive.rss_mb_last_level", last_level_rss);
    let candidates: usize = report.history.iter().map(|s| s.candidates).sum();
    outcome.set("refinement.iterations", report.total_iterations() as f64);
    outcome.set("refinement.moves", report.total_moves() as f64);
    outcome.set(
        "refinement.moved_per_candidate",
        report.total_moves() as f64 / candidates.max(1) as f64,
    );

    // Layer replays on the run's own state.
    let raw = &result.partition;
    let levels = bisection_levels(config.num_buckets).ok_or("k is not a power of two")?;
    let replay = trace.span("replay::levels", 0, |t| {
        replay_levels(t, graph, &config, raw, levels)
    })?;
    detail(
        "replay_exact_levels",
        format!("{} of {levels}", replay.exact_levels),
    );
    outcome.check(
        (replay.exact_levels != levels)
            .then(|| format!("replay matched {} of {levels} levels", replay.exact_levels)),
    );
    outcome.set("refinement.iteration_ms_p50", median(&replay.iteration_ms));
    outcome.set(
        "refinement.iteration_ms_max",
        replay.iteration_ms.iter().copied().fold(0.0, f64::max),
    );
    detail(
        "figure3 first level",
        format!("{:?}", replay_steps(trace, graph, &config, raw, 0, levels)?),
    );
    let steps = replay_steps(trace, graph, &config, raw, levels - 1, levels)?;
    detail("figure3 last level", format!("{steps:?}"));
    outcome.set("neighbor_data.build_ms", steps.neighbor_data_ms);
    outcome.set("neighbor_data.entries", steps.entries as f64);
    outcome.set("gains.proposals_ms", steps.proposals_ms);
    outcome.set(
        "gains.ns_per_vertex",
        steps.proposals_ms * 1e6 / steps.vertices.max(1) as f64,
    );
    outcome.set("gains.proposals", steps.proposals as f64);
    outcome.set("swap.aggregate_ms", steps.aggregate_ms);
    outcome.set("swap.pairs", steps.pairs as f64);
    outcome.set("neighbor_data.apply_ms", steps.apply_ms);
    Ok((assembled, traced_ms))
}

/// The traced `bsp-k32` call: `partition_distributed` (what the `distributed` adapter
/// calls, here for its `ExecutionMetrics`), then `assemble_outcome`. Returns the outcome and
/// the traced call's ms.
fn traced_bsp(
    trace: &mut Trace,
    graph: &BipartiteGraph,
    spec: &PartitionSpec,
    outcome: &mut Outcome,
) -> Result<(PartitionOutcome, f64), String> {
    let config = spec.shp_config(PartitionMode::recursive_bisection());
    let start = Instant::now();
    let (result, assembled) = trace.span("api::partition", 0, |t| {
        let result = t.span("core::partition_distributed", 0, |_| {
            partition_distributed(graph, &config, THREADS)
        });
        let result = result.map_err(|e| format!("partition_distributed: {e}"))?;
        let moves: u64 = result.history.iter().map(|s| s.moved).sum();
        let assembled = t.span("api::assemble_outcome", 0, |_| {
            assemble_outcome(
                "distributed",
                graph,
                result.partition.clone(),
                spec,
                result.history.len(),
                moves,
                result.elapsed,
            )
        });
        Ok::<_, String>((result, assembled))
    })?;
    let traced_ms = ms(start.elapsed());
    let metrics = &result.metrics;
    // Figure 3's four supersteps repeat in order: collect, neighbor data, gains, apply.
    let mut step_ms = [0.0f64; 4];
    let (mut busiest, mut mean) = (0.0, 0.0);
    for step in &metrics.supersteps {
        step_ms[step.superstep % 4] += ms(step.duration);
        if step.active_vertices > 0 {
            busiest += step.max_worker_vertices as f64;
            mean += step.active_vertices as f64 / metrics.num_workers as f64;
        }
    }
    outcome.set("bsp.supersteps", metrics.num_supersteps() as f64);
    outcome.set("bsp.messages", metrics.total_messages() as f64);
    outcome.set(
        "bsp.combined_messages",
        metrics
            .supersteps
            .iter()
            .map(|s| s.combined_messages)
            .sum::<u64>() as f64,
    );
    outcome.set("bsp.bytes_mb", metrics.total_bytes() as f64 / 1e6);
    outcome.set("bsp.remote_fraction", metrics.remote_fraction());
    outcome.set("bsp.step_ms.collect", step_ms[0]);
    outcome.set("bsp.step_ms.neighbor_data", step_ms[1]);
    outcome.set("bsp.step_ms.gains", step_ms[2]);
    outcome.set("bsp.step_ms.apply", step_ms[3]);
    outcome.set("bsp.load_skew", busiest / mean.max(f64::MIN_POSITIVE));
    outcome.set("refinement.iterations", result.history.len() as f64);
    outcome.set(
        "refinement.moves",
        result.history.iter().map(|s| s.moved).sum::<u64>() as f64,
    );
    Ok((assembled, traced_ms))
}
