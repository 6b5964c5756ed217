//! The shp pipeline benchmark.
//!
//! `shp-perfbench gen --workload W --seed N --dir D` writes the workload's inputs, made from
//! the seed alone, into `D`. `shp-perfbench run --workload W --seed N --seconds S --trace T
//! --dir D` runs the workload on them in a fresh process (so its peak RSS is its own), checks
//! every output, and prints its metrics; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `run.py` drives both steps.
//!
//! See `README.md` in this directory for the workloads, the metrics and what each layer
//! metric is expected to move.

mod inputs;
mod measure;
mod partition;
mod replay;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Threads everywhere: the benchmark host reports two hardware threads.
pub const THREADS: usize = 2;

/// End-to-end metrics (reported by untraced runs): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("heavy_op_p50_ms", "ms"),
    ("fanout", "shards"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (reported by traced runs): name and unit. A workload that makes no call
/// into a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_ms", "ms"),
    ("io.parse_mb_per_s", "MB/s"),
    ("io.map_ms", "ms"),
    ("serving.build_ms", "ms"),
    ("recursive.levels", "count"),
    ("recursive.last_level_ms", "ms"),
    ("recursive.last_level_share", "ratio"),
    ("recursive.rss_mb_last_level", "MB"),
    ("refinement.iterations", "count"),
    ("refinement.iteration_ms_p50", "ms"),
    ("refinement.iteration_ms_max", "ms"),
    ("refinement.moves", "count"),
    ("refinement.moved_per_candidate", "ratio"),
    ("neighbor_data.build_ms", "ms"),
    ("neighbor_data.entries", "count"),
    ("gains.proposals_ms", "ms"),
    ("gains.ns_per_vertex", "ns"),
    ("gains.proposals", "count"),
    ("swap.aggregate_ms", "ms"),
    ("swap.pairs", "count"),
    ("neighbor_data.apply_ms", "ms"),
    ("bsp.supersteps", "count"),
    ("bsp.messages", "count"),
    ("bsp.combined_messages", "count"),
    ("bsp.bytes_mb", "MB"),
    ("bsp.remote_fraction", "ratio"),
    ("bsp.step_ms.collect", "ms"),
    ("bsp.step_ms.neighbor_data", "ms"),
    ("bsp.step_ms.gains", "ms"),
    ("bsp.step_ms.apply", "ms"),
    ("bsp.load_skew", "ratio"),
    ("serving.route_us", "us"),
    ("serving.execute_us", "us"),
    ("serving.engine_self_us", "us"),
    ("serving.keys_per_multiget", "count"),
    ("serving.batches_per_multiget", "count"),
    ("serving.cache_hit_ratio", "ratio"),
    ("controller.observe_ms", "ms"),
    ("controller.incremental_ms", "ms"),
    ("controller.delta_ms", "ms"),
    ("controller.install_ms", "ms"),
    ("controller.keys_moved", "count"),
    ("controller.trace_contended_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workloads (what each is for: `README.md` and `BENCHMARK.json`).
pub const WORKLOADS: &[&str] = &["bisect-k2048", "bsp-k32", "serve-read", "serve-repartition"];

/// Parsed command line of both subcommands.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dir: PathBuf,
}

/// What a run found: the output checks, and its metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation; `problem` is `Some` when the check failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {problem}");
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Prints a human-readable `key value` detail line (not part of the result object).
pub fn detail(key: &str, value: impl std::fmt::Display) {
    println!("{key:<40} {value}");
}

fn parse_args() -> Result<(String, Args), String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing subcommand (gen | run)")?;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut dir = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?
            }
            "--trace" => trace = value == "1",
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let args = Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        dir: dir.ok_or("--dir is required")?,
    };
    Ok((command, args))
}

fn run(args: &Args) -> Result<Outcome, String> {
    detail("workload", &args.workload);
    detail("seed", args.seed);
    detail("seconds", args.seconds);
    detail("traced", args.trace);
    detail(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    match args.workload.as_str() {
        "bisect-k2048" | "bsp-k32" => partition::run(args),
        _ => serve::run(args),
    }
}

fn print_result(args: &Args, outcome: &Outcome) -> Result<(), String> {
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        // A traced run reports 0 for a layer its workload makes no call into.
        let value = match outcome.metrics.get(name) {
            Some(&value) => value,
            None if args.trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("metric {name:<36} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for name in outcome.metrics.keys() {
        if !declared.iter().any(|(declared, _)| declared == name) {
            return Err(format!("metric {name} is measured but not declared"));
        }
    }
    println!(
        "failed_frac {}",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|(command, args)| match command.as_str() {
        "gen" => inputs::generate(&args),
        "run" => run(&args).and_then(|outcome| print_result(&args, &outcome)),
        other => Err(format!("unknown subcommand {other:?} (gen | run)")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("shp-perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
