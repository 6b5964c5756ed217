//! `shp` — command-line interface for the Social Hash Partitioner.
//!
//! Every subcommand is declared once, in `COMMANDS`: its positional arguments, its flags (each
//! a switch or a value with an optional default and a one-line help), and what it does. One
//! parser reads every command line against those declarations, so an unknown flag, a missing
//! value, or a malformed number fails the same way on every subcommand, and `shp --help` and
//! `shp <command> --help` print usage generated from the same table. The `cmd_*` functions
//! keep only the domain checks (`--scale` in (0, 1], `--shards` at least 2, …).
//!
//! `partition`, `replay`, `serve`, and `drill` accept `--metrics <file>`: the run's telemetry —
//! counters, phase spans, latency/fanout histograms, and hot keys from `shp-telemetry` — is
//! exported as a JSON snapshot (or Prometheus text when the path ends in `.prom`). `replay`
//! and `serve` rewrite the file roughly once a second while the workload runs, so a live run
//! can be scraped mid-flight; the final write supersedes every periodic one.
//!
//! Every failure path is a typed [`ShpError`]; `?` composes from file parsing through
//! partitioning to the serving engine without a single stringly-typed error.
//!
//! The hMetis format is the one exchanged by hMetis/PaToH/Mondriaan/Parkway/Zoltan, so
//! partitions can be compared against other tools directly.

use shp_baselines::{full_registry, RandomPartitioner};
use shp_controller::{
    run_drift_scenario, run_drill_scenario_with_telemetry, AccessTraceCollector, ControllerConfig,
    DriftConfig, DriftReport, DrillConfig, DrillReport, RepartitionController,
};
use shp_core::api::{AlgorithmRegistry, NoopObserver, PartitionOutcome, PartitionSpec};
use shp_core::{ObjectiveKind, ShpError, ShpResult};
use shp_datagen::Dataset;
use shp_hypergraph::io::GraphFormat;
use shp_hypergraph::{
    average_fanout, average_p_fanout, hyperedge_cut, io, BipartiteGraph, GraphStats,
};
use shp_serving::{open_loop_schedule, EngineConfig, ServingEngine, WorkloadConfig, WorkloadEvent};
use shp_telemetry::Snapshot;
use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str);
    let Some(command) = COMMANDS.iter().find(|command| name == Some(command.name())) else {
        if matches!(name, Some("--help" | "-h")) {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let result = command.parse(&args[1..]).and_then(|parsed| match parsed {
        Some(parsed) => (command.run)(&parsed),
        None => {
            print!("{}", command.help());
            Ok(())
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}

/// One option of a subcommand: a switch (`--json`) or a flag taking one value
/// (`--mode <algorithm>`).
struct Flag {
    /// The flag as usage shows it: its name, then the placeholder of its value if it takes one.
    usage: &'static str,
    /// Value used when the flag is absent, parsed exactly like a given one.
    default: Option<&'static str>,
    help: &'static str,
}

impl Flag {
    fn name(&self) -> &'static str {
        self.usage
            .split_once(' ')
            .map_or(self.usage, |(name, _)| name)
    }

    fn takes_value(&self) -> bool {
        self.usage.contains(' ')
    }
}

/// Declares a subcommand's flags, one per line: `"--name <value>" = "default": "help";` for a
/// flag that takes a value (the `= "default"` part is optional), `"--name": "help";` for a
/// switch.
macro_rules! flags {
    ($($usage:literal $(= $default:literal)?: $help:literal;)*) => {
        &[$(Flag { usage: $usage, default: flags!(@default $($default)?), help: $help }),*]
    };
    (@default) => { None };
    (@default $default:literal) => { Some($default) };
}

/// Listed by every `shp <command> --help`; the parser handles it before the declared flags.
const HELP: Flag = Flag {
    usage: "-h, --help",
    default: None,
    help: "print this help",
};

/// One subcommand: the declaration its parser, its `--help`, and `shp --help` all read.
struct Command {
    /// The command as usage shows it: its name, then the placeholders of its positional
    /// arguments (all required, in order).
    usage: &'static str,
    flags: &'static [Flag],
    /// What the command does, printed by `shp <name> --help`.
    about: &'static str,
    run: fn(&Args) -> ShpResult<()>,
}

/// A subcommand's command line, read against its declaration.
struct Args {
    command: &'static Command,
    positionals: Vec<String>,
    /// The value of every flag given, by name (empty for a switch); the last occurrence wins.
    given: HashMap<&'static str, String>,
}

/// Width `shp --help` wraps each command's synopsis to.
const HELP_WIDTH: usize = 92;

impl Command {
    fn name(&self) -> &'static str {
        self.usage
            .split_once(' ')
            .map_or(self.usage, |(name, _)| name)
    }

    /// Reads `args` against this declaration; `None` when they ask for `--help`.
    fn parse(&'static self, args: &[String]) -> ShpResult<Option<Args>> {
        let mut parsed = Args {
            command: self,
            positionals: Vec::new(),
            given: HashMap::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            if !arg.starts_with("--") {
                parsed.positionals.push(arg.clone());
                continue;
            }
            let flag = self
                .flags
                .iter()
                .find(|flag| flag.name() == arg)
                .ok_or_else(|| {
                    ShpError::InvalidArgument(format!(
                        "unknown option {arg:?} for `shp {}` (see `shp {} --help`)",
                        self.name(),
                        self.name()
                    ))
                })?;
            let value = if flag.takes_value() {
                args.next().cloned().ok_or_else(|| {
                    ShpError::InvalidArgument(format!("{} needs a value", flag.name()))
                })?
            } else {
                String::new()
            };
            parsed.given.insert(flag.name(), value);
        }
        let expected = self.usage.split(' ').count() - 1;
        if parsed.positionals.len() != expected {
            return Err(ShpError::InvalidArgument(format!(
                "`shp {}` takes {expected} argument(s), got {}\nusage: shp {} [options]",
                self.name(),
                parsed.positionals.len(),
                self.usage
            )));
        }
        Ok(Some(parsed))
    }

    /// The command's entry in `shp --help`: its head, then every flag, wrapped to
    /// [`HELP_WIDTH`] columns with continuation lines aligned under the first argument.
    fn synopsis(&self) -> String {
        let indent = " ".repeat(self.name().len() + 7);
        let mut lines = vec![format!("  shp {}", self.usage)];
        for flag in self.flags {
            let item = format!("[{}]", flag.usage);
            let line = lines.last_mut().expect("the head starts the first line");
            if line.len() + 1 + item.len() <= HELP_WIDTH {
                line.push(' ');
                line.push_str(&item);
            } else {
                lines.push(format!("{indent}{item}"));
            }
        }
        lines.join("\n")
    }

    /// `shp <name> --help`: the usage line, the description, and one line per flag.
    fn help(&self) -> String {
        let mut text = format!(
            "usage: shp {} [options]\n\n{}\n\noptions:\n",
            self.usage, self.about
        );
        let flags = || self.flags.iter().chain([&HELP]);
        let width = flags().map(|flag| flag.usage.len()).max().unwrap_or(0);
        for flag in flags() {
            let default = flag
                .default
                .map(|default| format!(" (default: {default})"))
                .unwrap_or_default();
            text += &format!("  {:<width$}  {}{default}\n", flag.usage, flag.help);
        }
        text
    }
}

impl Args {
    /// Positional argument `index`, parsed as `T`.
    fn positional<T: FromStr>(&self, index: usize) -> ShpResult<T> {
        let value = &self.positionals[index];
        let placeholder = self
            .command
            .usage
            .split(' ')
            .nth(index + 1)
            .unwrap_or_default();
        value
            .parse()
            .map_err(|_| ShpError::InvalidArgument(format!("invalid {placeholder} {value:?}")))
    }

    /// Whether the switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.lookup(name).1.is_some()
    }

    /// The value of flag `name` parsed as `T`: the one given, else the declared default, else
    /// `None`.
    fn optional<T: FromStr>(&self, name: &str) -> ShpResult<Option<T>> {
        let (flag, given) = self.lookup(name);
        let Some(value) = given.or(flag.default) else {
            return Ok(None);
        };
        value
            .parse()
            .map(Some)
            .map_err(|_| ShpError::InvalidArgument(format!("invalid value {value:?} for {name}")))
    }

    /// The value of flag `name` parsed as `T`, falling back to its declared default.
    fn value<T: FromStr>(&self, name: &str) -> ShpResult<T> {
        Ok(self
            .optional(name)?
            .expect("a flag read with `value` declares a default"))
    }

    /// The declaration of flag `name` and the value given for it, if any.
    fn lookup(&self, name: &str) -> (&'static Flag, Option<&str>) {
        let flag = self.command.flags.iter().find(|flag| flag.name() == name);
        let flag =
            flag.unwrap_or_else(|| panic!("`shp {}` declares no {name}", self.command.name()));
        (flag, self.given.get(name).map(String::as_str))
    }
}

/// `shp --help`: every command's synopsis, then the notes that span commands.
fn usage() -> String {
    let synopses: Vec<String> = COMMANDS.iter().map(Command::synopsis).collect();
    let datasets: Vec<&str> = Dataset::all().iter().map(|d| d.spec().name).collect();
    format!(
        "usage:\n{}\n\n\
         `shp <command> --help` describes a command and each of its options. Graph inputs may\n\
         be edge-list, hMetis, or .shpb binary files (autodetected; see `shp convert --help`).\n\
         --metrics exports the run's telemetry snapshot: JSON by default, Prometheus text\n\
         exposition format when the path ends in .prom.\n\
         datasets: {}",
        synopses.join("\n"),
        datasets.join(" ")
    )
}

/// The options of `shp serve`; `shp replay` takes all but the last three
/// ([`REPLAY_FLAGS`]).
const SERVE_FLAGS: &[Flag] = flags! {
    "--dataset <name>" = "email-Enron": "generated dataset to serve; `shp --help` lists them";
    "--graph <file>": "serve this graph file (ideally .shpb) instead of a generated dataset";
    "--scale <s>" = "0.05": "scale of the generated dataset, in (0, 1]";
    "--shards <k>" = "16": "serving shards, at least 2";
    "--rate <r>" = "200": "open-loop arrival rate, multigets per time unit";
    "--duration <d>" = "60": "length of the workload in time units";
    "--clients <n>" = "4": "concurrent client threads";
    "--cache <capacity>" = "0": "hot-key cache capacity; 0 disables the cache";
    "--seed <seed>" = "20551": "seed of the dataset, workload, and partitions";
    "--workers <n>" = "4": "threads for loading the graph and planning repartitions";
    "--metrics <file>": "rewrite a telemetry snapshot here about once a second";
    "--mmap": "memory-map the --graph .shpb file instead of loading it onto the heap";
    "--partition <file>": "warm-start from this saved placement (needs --graph)";
    "--repartition-every <n>" = "0": "one controller epoch per n served multigets; 0 disables";
    "--migration-budget <m>" = "256": "keys a controller epoch may move, at least 1";
};

const REPLAY_FLAGS: &[Flag] = SERVE_FLAGS.split_at(SERVE_FLAGS.len() - 3).0;

const COMMANDS: &[Command] = &[
    Command {
        usage: "generate <dataset> <scale> <output>",
        flags: flags! {
            "--stream": "stream a power-law dataset to a .shpb output in bounded memory";
        },
        about: "Synthesizes a Table-1 dataset stand-in at <scale> in (0, 1] and writes it in the\n\
                format of the output's extension (.shpb binary; .txt .tsv .edges .edgelist .el\n\
                edge list; hMetis for .hgr and any other extension). With --stream the graph\n\
                goes straight from the generator to the container, byte-identical to\n\
                materializing it, but it never exists in RAM; only the power-law datasets\n\
                (email-Enron, web-Stanford, web-BerkStan) can be streamed.",
        run: cmd_generate,
    },
    Command {
        usage: "algorithms",
        flags: &[],
        about: "Lists every partitioning algorithm in the registry: the names accepted by\n\
                `shp partition --mode`.",
        run: cmd_algorithms,
    },
    Command {
        usage: "convert <input> <output>",
        flags: flags! {
            "--from <format>": "input format: edgelist, hmetis, or shpb";
            "--to <format>": "output format: edgelist, hmetis, or shpb";
            "--workers <n>" = "4": "threads parsing a text input; same result for any n";
        },
        about: "Converts a graph between the three supported formats, losslessly:\n  \
                edgelist  plain text, one `query_id<TAB>data_id` pair per line, `#` comments\n  \
                hmetis    hMetis hypergraph text (header `|Q| |D|`, one hyperedge per line)\n  \
                shpb      checksummed binary container of raw CSR sections; loads an\n            \
                order of magnitude faster than text — ideal for warm starts\n\
                \n\
                Format autodetection, in order of precedence:\n  \
                1. an explicit --from / --to flag always wins;\n  \
                2. the file extension:  .shpb -> shpb;  .hgr .hmetis .graph -> hmetis;\n     \
                .txt .tsv .edges .edgelist .el -> edgelist;\n  \
                3. (inputs only) the contents: the `SHPB` magic -> shpb; a first non-blank\n     \
                byte of `#` -> edgelist; anything else -> hmetis.\n\
                The output format must be resolvable from the extension or --to.\n\
                \n\
                Caveat: an edge list stores only the edges, so queries with no pins and\n\
                trailing isolated data vertices are not representable in it; hmetis and shpb\n\
                round-trip every graph exactly (shpb including data weights).",
        run: cmd_convert,
    },
    Command {
        usage: "partition <input> <k> <output.part>",
        flags: flags! {
            "--mode <algorithm>" = "shp2": "partitioning algorithm; `shp algorithms` lists them";
            "--p <p>" = "0.5": "fanout probability: 1 or more is fanout, 0 or less clique-net";
            "--epsilon <eps>" = "0.05": "allowed bucket imbalance";
            "--seed <seed>" = "20551": "seed of the initial assignment and move decisions";
            "--iterations <n>": "refinement iteration cap (default: the algorithm's own)";
            "--workers <n>" = "4": "threads for parsing and refinement; same output for any n";
            "--metrics <file>": "write the run's telemetry snapshot here";
            "--json": "print the full outcome (metrics and assignment) as one JSON object";
            "--mmap": "memory-map a .shpb input instead of loading it onto the heap";
        },
        about: "Partitions a graph file (any supported format, autodetected; a .shpb input skips\n\
                parsing entirely) into <k> buckets with any registered algorithm, SHP or\n\
                baseline, and writes the bucket of every data vertex to <output.part>.",
        run: cmd_partition,
    },
    Command {
        usage: "evaluate <input> <partition.part> <k>",
        flags: flags! {
            "--json": "print the metrics as one JSON object";
        },
        about: "Reports fanout, p-fanout, hyperedge cut, and imbalance of an existing partition\n\
                of a graph file (any supported format).",
        run: cmd_evaluate,
    },
    Command {
        usage: "replay",
        flags: REPLAY_FLAGS,
        about: "Drives a synthetic open-loop multiget workload through the serving engine under\n\
                a random and an SHP-2 partition and compares mean fanout, latency percentiles,\n\
                and shard load skew. Exits nonzero unless SHP-2 lowers both mean fanout and p99\n\
                latency.",
        run: cmd_replay,
    },
    Command {
        usage: "serve",
        flags: SERVE_FLAGS,
        about: "Starts serving, computes an SHP-2 repartition in the background, and warm-starts\n\
                it live mid-run. --graph (ideally a .shpb snapshot) plus --partition warm-start\n\
                serving from on-disk artifacts: the engine opens on the saved placement instead\n\
                of a random one. --repartition-every switches to closed-loop online\n\
                repartitioning: a bounded trace collector rides the multiget hot path, and a\n\
                controller thread repartitions the live engine from the observed co-access\n\
                graph every n served multigets, moving at most --migration-budget keys per\n\
                epoch (delta install, no full-map clone).",
        run: cmd_serve,
    },
    Command {
        usage: "controller",
        flags: flags! {
            "--quick": "run the smaller scenario";
            "--phases <n>": "popularity phases, at least 1";
            "--every <n>": "multigets between controller epochs, at least 1";
            "--budget <m>": "keys a controller epoch may move, at least 1";
            "--seed <seed>": "scenario seed";
            "--json": "print the report as one JSON object";
        },
        about: "Runs the hours-compressed drift scenario: key popularity rotates phase over\n\
                phase, a never-repartition baseline decays, and the budgeted controller recovers\n\
                fanout. Prints per-phase fanout and latency and the migration volume; exits\n\
                nonzero unless the controller beats the baseline within its budget. Options\n\
                left unset keep the scenario's defaults.",
        run: cmd_controller,
    },
    Command {
        usage: "drill",
        flags: flags! {
            "--quick": "run the smaller drill";
            "--budget <m>": "keys a recovery epoch may move, at least 1";
            "--replication <r>": "replicas per key, at least 2";
            "--seed <seed>": "drill seed";
            "--json": "print the report as one JSON object";
            "--metrics <file>": "write the drill's telemetry snapshot here";
        },
        about: "Runs the kill -> degrade -> recover failure drill: a replicated engine serves\n\
                through a scripted shard crash and a slow replica (failover and hedging keep\n\
                availability >= 99%), an unreplicated leg degrades to precise typed partial\n\
                results, and the controller drains the dead shard within the migration budget.\n\
                Exits nonzero if any drill gate fails. Options left unset keep the drill's\n\
                defaults.",
        run: cmd_drill,
    },
    Command {
        usage: "metrics <snapshot.json>",
        flags: flags! {
            "--prometheus": "re-emit the snapshot in Prometheus text exposition format";
        },
        about: "Pretty-prints a telemetry snapshot written by --metrics.",
        run: cmd_metrics,
    },
];

/// Writes a telemetry snapshot to `path`: Prometheus text exposition format when the path
/// ends in `.prom`, pretty-printed JSON otherwise.
fn write_metrics_file(path: &str, snapshot: &Snapshot) -> ShpResult<()> {
    let body = if path.ends_with(".prom") {
        snapshot.to_prometheus()
    } else {
        snapshot.to_json()
    };
    std::fs::write(path, body)
        .map_err(|error| ShpError::Runtime(format!("cannot write metrics file {path:?}: {error}")))
}

/// The snapshotter polls the stop flag every tick and rewrites the `--metrics` file every
/// [`TICKS_PER_SNAPSHOT`] ticks (~1 s), so a finished run never waits a full period to exit.
const METRICS_TICK: Duration = Duration::from_millis(25);
const TICKS_PER_SNAPSHOT: u32 = 40;

/// Runs `body` while a background thread rewrites `path` with a fresh snapshot roughly once a
/// second (no thread, no writes when `path` is `None`). Mid-run write failures are tolerated —
/// the caller's final write after the run is the one that reports errors.
fn with_periodic_snapshots<T>(
    path: Option<&str>,
    snapshot_now: &(dyn Fn() -> Snapshot + Sync),
    body: impl FnOnce() -> ShpResult<T>,
) -> ShpResult<T> {
    let Some(path) = path else { return body() };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut ticks = 0u32;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(METRICS_TICK);
                ticks += 1;
                if ticks >= TICKS_PER_SNAPSHOT {
                    ticks = 0;
                    let _ = write_metrics_file(path, &snapshot_now());
                }
            }
        });
        let result = body();
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("metrics snapshot thread panicked");
        result
    })
}

fn cmd_metrics(args: &Args) -> ShpResult<()> {
    let path: String = args.positional(0)?;
    let text = std::fs::read_to_string(&path)
        .map_err(|error| ShpError::InvalidArgument(format!("cannot read {path:?}: {error}")))?;
    let snapshot = Snapshot::from_json(&text)
        .map_err(|error| ShpError::InvalidArgument(format!("{path}: {error}")))?;
    if args.switch("--prometheus") {
        print!("{}", snapshot.to_prometheus());
        return Ok(());
    }
    println!("telemetry snapshot {path} (schema v{})", snapshot.version);
    if !snapshot.counters.is_empty() {
        println!("\ncounters:");
        for (name, value) in &snapshot.counters {
            println!("  {name:<44} {value:>12}");
        }
    }
    if !snapshot.gauges.is_empty() {
        println!("\ngauges:");
        for (name, value) in &snapshot.gauges {
            println!("  {name:<44} {value:>12.4}");
        }
    }
    if !snapshot.histograms.is_empty() {
        println!(
            "\nhistograms:{:36}{:>9} {:>11} {:>11} {:>11} {:>11}",
            "", "count", "mean", "p50", "p99", "max"
        );
        for (name, h) in &snapshot.histograms {
            println!(
                "  {name:<44} {:>9} {:>11.4} {:>11.4} {:>11.4} {:>11.4}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max
            );
        }
    }
    if !snapshot.spans.is_empty() {
        println!(
            "\nspans:{:41}{:>9} {:>13} {:>13}",
            "", "count", "total ms", "max ms"
        );
        for (name, s) in &snapshot.spans {
            println!(
                "  {name:<44} {:>9} {:>13.3} {:>13.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.max_ns as f64 / 1e6
            );
        }
    }
    if !snapshot.top_keys.is_empty() {
        println!("\nhot keys:");
        for (name, keys) in &snapshot.top_keys {
            let rendered: Vec<String> = keys
                .entries
                .iter()
                .take(8)
                .map(|(key, count)| format!("{key}x{count}"))
                .collect();
            println!("  {name:<44} {}", rendered.join("  "));
        }
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> ShpResult<()> {
    let name: String = args.positional(0)?;
    let dataset = Dataset::from_name(&name)
        .ok_or_else(|| ShpError::InvalidArgument(format!("unknown dataset {name:?}")))?;
    let scale: f64 = args.positional(1)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(ShpError::InvalidArgument("scale must lie in (0, 1]".into()));
    }
    let output: String = args.positional(2)?;
    let format = GraphFormat::from_extension(&output);
    if args.switch("--stream") {
        // Bounded-memory path: the graph goes straight from the generator to the container,
        // byte-identical to materializing it, but it never exists in RAM.
        if format != Some(GraphFormat::Shpb) {
            return Err(ShpError::InvalidArgument(
                "--stream writes a .shpb container: give the output a .shpb extension".into(),
            ));
        }
        let config = dataset.power_law_config(scale, 0x5047).ok_or_else(|| {
            ShpError::InvalidArgument(format!(
                "dataset {:?} uses the social generator, which needs the whole graph in \
                 memory; --stream supports only the power-law datasets \
                 (email-Enron, web-Stanford, web-BerkStan)",
                dataset.spec().name
            ))
        })?;
        let mut stream = shp_datagen::PowerLawStream::new(config);
        let stats = io::stream_shpb_file(&mut stream, std::path::Path::new(&output))?;
        println!(
            "{:<16} |Q| {:>12} |D| {:>12} |E| {:>14}  (streamed, {} source passes, {} bytes)",
            dataset.spec().name,
            stats.num_queries,
            stats.num_data,
            stats.num_pins,
            stats.source_passes,
            stats.bytes_written
        );
        println!("wrote {output}");
        return Ok(());
    }
    let graph = dataset.generate(scale, 0x5047);
    io::write_graph_file(&graph, &output, format.unwrap_or(GraphFormat::Hmetis))?;
    println!(
        "{}",
        GraphStats::compute(&graph).table1_row(dataset.spec().name)
    );
    println!("wrote {output}");
    Ok(())
}

fn cmd_algorithms(_: &Args) -> ShpResult<()> {
    let registry = full_registry();
    println!("registered partitioning algorithms (accepted by `shp partition --mode <name>`):");
    for name in registry.names() {
        println!("  {name}");
    }
    Ok(())
}

fn cmd_convert(args: &Args) -> ShpResult<()> {
    let input: String = args.positional(0)?;
    let output: String = args.positional(1)?;
    let format = |flag: &str| -> ShpResult<Option<GraphFormat>> {
        let Some(name) = args.optional::<String>(flag)? else {
            return Ok(None);
        };
        let format = GraphFormat::from_name(&name).ok_or_else(|| {
            ShpError::InvalidArgument(format!(
                "unknown format {name:?} for {flag} (expected edgelist, hmetis, or shpb)"
            ))
        })?;
        Ok(Some(format))
    };
    let (from, to) = (format("--from")?, format("--to")?);
    let workers: usize = args.value("--workers")?;
    if workers == 0 {
        return Err(ShpError::InvalidArgument(
            "at least 1 worker is required".into(),
        ));
    }

    // Input: explicit flag > extension > content sniffing.
    let bytes = std::fs::read(&input).map_err(shp_hypergraph::GraphError::from)?;
    let input_format = from.unwrap_or_else(|| GraphFormat::detect(&input, &bytes));
    let graph = match input_format {
        GraphFormat::EdgeList => io::parse_edge_list_bytes(&bytes, workers),
        GraphFormat::Hmetis => io::parse_hmetis_bytes(&bytes, workers),
        GraphFormat::Shpb => io::parse_shpb_bytes(&bytes),
    }?;

    // Output: explicit flag > extension (contents cannot be sniffed for a file that does not
    // exist yet).
    let output_format = to
        .or_else(|| GraphFormat::from_extension(&output))
        .ok_or_else(|| {
            ShpError::InvalidArgument(format!(
                "cannot infer the output format of {output:?}: use a known extension or --to"
            ))
        })?;
    io::write_graph_file(&graph, &output, output_format)?;
    println!(
        "converted {input} ({}) -> {output} ({}): {} queries, {} data vertices, {} pins",
        input_format.name(),
        output_format.name(),
        graph.num_queries(),
        graph.num_data(),
        graph.num_edges()
    );
    Ok(())
}

fn cmd_partition(args: &Args) -> ShpResult<()> {
    let input: String = args.positional(0)?;
    let k: u32 = args.positional(1)?;
    let output: String = args.positional(2)?;
    let mode: String = args.value("--mode")?;
    let p: f64 = args.value("--p")?;
    let workers: usize = args.value("--workers")?;
    let metrics: Option<String> = args.optional("--metrics")?;

    let objective = if p >= 1.0 {
        ObjectiveKind::Fanout
    } else if p <= 0.0 {
        ObjectiveKind::CliqueNet
    } else {
        ObjectiveKind::ProbabilisticFanout { p }
    };
    let mut spec = PartitionSpec::new(k)
        .with_objective(objective)
        .with_epsilon(args.value("--epsilon")?)
        .with_seed(args.value("--seed")?)
        .with_workers(workers);
    if let Some(iters) = args.optional("--iterations")? {
        spec = spec.with_max_iterations(iters);
    }

    let graph = if args.switch("--mmap") {
        // Zero-copy open: adjacency stays on disk behind borrowed views; the kernel pages in
        // only what the partitioner touches.
        io::map_shpb_file(&input)?
    } else {
        io::read_graph_file_with(&input, workers)?
    };
    let registry = full_registry();
    let outcome = registry.run(&mode, &graph, &spec, &mut NoopObserver)?;
    io::write_partition_file(&outcome.partition, &output)?;
    if let Some(path) = metrics.as_deref() {
        // The partition phases record into the process-global registry; one snapshot after
        // the run captures parse, CSR build, levels, refinement, and balance repair.
        write_metrics_file(path, &shp_telemetry::global().snapshot())?;
        eprintln!("wrote telemetry snapshot to {path}");
    }
    if args.switch("--json") {
        // Keep stdout machine-readable: exactly one JSON object, nothing else.
        println!("{}", outcome.to_json());
        eprintln!("wrote {output}");
    } else {
        print_outcome(&outcome);
        println!("wrote {output}");
    }
    Ok(())
}

fn print_outcome(outcome: &PartitionOutcome) {
    println!(
        "{}: fanout {:.4}  p-fanout(0.5) {:.4}  imbalance {:.4}  iterations {}  moves {}  time {:.2}s",
        outcome.algorithm,
        outcome.fanout,
        outcome.p_fanout,
        outcome.imbalance,
        outcome.iterations,
        outcome.moves,
        outcome.elapsed.as_secs_f64()
    );
}

fn cmd_evaluate(args: &Args) -> ShpResult<()> {
    let input: String = args.positional(0)?;
    let partition_path: String = args.positional(1)?;
    let k: u32 = args.positional(2)?;
    let graph = io::read_graph_file(&input)?;
    let partition = io::read_partition_file(&graph, k, &partition_path)?;
    let fanout = average_fanout(&graph, &partition);
    let p_fanout = average_p_fanout(&graph, &partition, 0.5);
    let cut = hyperedge_cut(&graph, &partition);
    let imbalance = partition.imbalance();
    if args.switch("--json") {
        println!(
            "{{\"fanout\":{fanout:.6},\"p_fanout\":{p_fanout:.6},\"hyperedge_cut\":{cut},\
             \"imbalance\":{imbalance:.6},\"num_buckets\":{k}}}"
        );
    } else {
        println!("{}", GraphStats::compute(&graph));
        println!(
            "fanout {fanout:.4}  p-fanout(0.5) {p_fanout:.4}  hyperedge-cut {cut}  imbalance {imbalance:.4}"
        );
    }
    Ok(())
}

/// The options `replay` and `serve` share.
struct ServeOptions {
    dataset: Dataset,
    /// Serve a graph loaded from this file (any supported format) instead of a generated
    /// dataset; a `.shpb` snapshot makes the warm start skip parsing entirely.
    graph: Option<String>,
    scale: f64,
    shards: u32,
    rate: f64,
    duration: f64,
    clients: usize,
    cache: usize,
    seed: u64,
    workers: usize,
    /// Export the run's telemetry snapshot to this file (rewritten roughly once a second
    /// while the workload runs): JSON, or Prometheus text if the path ends in `.prom`.
    metrics: Option<String>,
    /// Memory-map the `--graph` file (must be a `.shpb` container) instead of loading it
    /// onto the heap: the warm start validates the header and offsets plus one checksum
    /// pass, then serves adjacency straight from the page cache.
    mmap: bool,
}

impl ServeOptions {
    fn from_args(args: &Args) -> ShpResult<Self> {
        let invalid = |message: &str| Err(ShpError::InvalidArgument(message.into()));
        let name: String = args.value("--dataset")?;
        let options = ServeOptions {
            dataset: Dataset::from_name(&name)
                .ok_or_else(|| ShpError::InvalidArgument(format!("unknown dataset {name:?}")))?,
            graph: args.optional("--graph")?,
            scale: args.value("--scale")?,
            shards: args.value("--shards")?,
            rate: args.value("--rate")?,
            duration: args.value("--duration")?,
            clients: args.value("--clients")?,
            cache: args.value("--cache")?,
            seed: args.value("--seed")?,
            workers: args.value("--workers")?,
            metrics: args.optional("--metrics")?,
            mmap: args.switch("--mmap"),
        };
        if !(options.scale > 0.0 && options.scale <= 1.0) {
            return invalid("scale must lie in (0, 1]");
        }
        if options.shards < 2 {
            return invalid("at least 2 shards are required");
        }
        if !(options.rate > 0.0 && options.rate.is_finite()) {
            return invalid("rate must be a positive number");
        }
        if !(options.duration > 0.0 && options.duration.is_finite()) {
            return invalid("duration must be a positive number");
        }
        if options.clients == 0 {
            return invalid("at least 1 client is required");
        }
        if options.workers == 0 {
            return invalid("at least 1 worker is required");
        }
        Ok(options)
    }

    fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            arrival_rate: self.rate,
            duration: self.duration,
            seed: self.seed,
            ..Default::default()
        }
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            cache_capacity: self.cache,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// The serving graph plus the optional on-disk placement: from `--graph` (and
    /// `partition`) through the serving bootstrap, or a generated dataset otherwise.
    fn load_warm_start(
        &self,
        partition: Option<&str>,
    ) -> ShpResult<(BipartiteGraph, Option<shp_hypergraph::Partition>)> {
        match &self.graph {
            Some(path) => {
                let warm = shp_serving::load_warm_start_with(
                    path,
                    partition,
                    self.shards,
                    self.workers,
                    self.mmap,
                )?;
                Ok((warm.graph, warm.partition))
            }
            None => {
                if self.mmap {
                    return Err(ShpError::InvalidArgument(
                        "--mmap requires --graph <file.shpb> (a generated dataset has no \
                         on-disk container to map)"
                            .into(),
                    ));
                }
                if partition.is_some() {
                    return Err(ShpError::InvalidArgument(
                        "--partition requires --graph (a generated dataset has no saved \
                         placement)"
                            .into(),
                    ));
                }
                let graph = self
                    .dataset
                    .generate(self.scale, self.seed)
                    .filter_small_queries(2);
                Ok((graph, None))
            }
        }
    }

    fn graph_label(&self) -> String {
        match &self.graph {
            Some(path) => path.clone(),
            None => self.dataset.spec().name.to_string(),
        }
    }

    fn spec(&self) -> PartitionSpec {
        PartitionSpec::new(self.shards)
            .with_seed(self.seed)
            .with_workers(self.workers)
    }

    fn shp_outcome(
        &self,
        registry: &AlgorithmRegistry,
        graph: &BipartiteGraph,
    ) -> ShpResult<PartitionOutcome> {
        registry.run("shp2", graph, &self.spec(), &mut NoopObserver)
    }
}

/// Serves `events` from `clients` threads, each taking one contiguous slice of the schedule
/// and bumping `progress` once per answered multiget; returns once every client finished.
fn serve_clients(
    engine: &ServingEngine,
    graph: &BipartiteGraph,
    events: &[WorkloadEvent],
    clients: usize,
    progress: &AtomicUsize,
) -> ShpResult<()> {
    let chunk = events.len().div_ceil(clients).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = events
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || -> ShpResult<()> {
                    for event in slice {
                        engine.multiget(graph.query_neighbors(event.query))?;
                        progress.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|handle| handle.join().expect("client thread panicked"))
    })
}

fn cmd_replay(args: &Args) -> ShpResult<()> {
    let options = ServeOptions::from_args(args)?;
    let (graph, _) = options.load_warm_start(None)?;
    println!(
        "workload: {} ({} queries, {} keys), {} shards, rate {}/t for {}t, {} clients",
        options.graph_label(),
        graph.num_queries(),
        graph.num_data(),
        options.shards,
        options.rate,
        options.duration,
        options.clients
    );

    let events = open_loop_schedule(graph.num_queries(), &options.workload());
    println!("schedule: {} multigets\n", events.len());

    let registry = full_registry();
    let random = registry.run("random", &graph, &options.spec(), &mut NoopObserver)?;
    println!("computing SHP-2 partition...");
    let shp = options.shp_outcome(&registry, &graph)?;

    let mut rows: Vec<(&str, shp_serving::ServingReport)> = Vec::new();
    // Telemetry from engines that already finished their workload, keyed by prefix; each
    // periodic snapshot folds the live engine and the process-global registry on top.
    let mut served = Snapshot::new();
    for (name, prefix, outcome) in [
        ("Random", "serving/random", &random),
        ("SHP-2", "serving/shp2", &shp),
    ] {
        let engine = ServingEngine::new(&outcome.partition, options.engine_config())?;
        let snapshot_now = || {
            let mut live = served.clone();
            live.merge(&engine.telemetry_snapshot(prefix));
            live.merge(&shp_telemetry::global().snapshot());
            live
        };
        let report = with_periodic_snapshots(options.metrics.as_deref(), &snapshot_now, || {
            Ok(engine.run_workload(&graph, &events, options.clients)?)
        })?;
        served.merge(&engine.telemetry_snapshot(prefix));
        println!("=== {name} ===\n{report}\n");
        rows.push((name, report));
    }
    if let Some(path) = options.metrics.as_deref() {
        served.merge(&shp_telemetry::global().snapshot());
        write_metrics_file(path, &served)?;
        println!("wrote telemetry snapshot to {path}");
    }

    let (random_report, shp_report) = (&rows[0].1, &rows[1].1);
    println!(
        "SHP-2 vs Random: mean fanout {:.3} -> {:.3} ({:.1}% lower), p99 latency {:.3}t -> {:.3}t ({:.1}% lower)",
        random_report.mean_fanout,
        shp_report.mean_fanout,
        100.0 * (1.0 - shp_report.mean_fanout / random_report.mean_fanout),
        random_report.p99,
        shp_report.p99,
        100.0 * (1.0 - shp_report.p99 / random_report.p99),
    );
    if shp_report.mean_fanout >= random_report.mean_fanout {
        return Err(ShpError::Runtime(
            "SHP partition failed to lower mean fanout".into(),
        ));
    }
    if shp_report.p99 >= random_report.p99 {
        return Err(ShpError::Runtime(
            "SHP partition failed to lower p99 latency".into(),
        ));
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> ShpResult<()> {
    let options = ServeOptions::from_args(args)?;
    let partition_path: Option<String> = args.optional("--partition")?;
    let every: usize = args.value("--repartition-every")?;
    let budget: usize = args.value("--migration-budget")?;
    if budget == 0 {
        return Err(ShpError::InvalidArgument(
            "the migration budget must be at least 1".into(),
        ));
    }
    let (graph, loaded_partition) = options.load_warm_start(partition_path.as_deref())?;
    let events = open_loop_schedule(graph.num_queries(), &options.workload());
    let start = match loaded_partition {
        Some(partition) => {
            println!(
                "serving {} multigets over {} keys on {} shards; warm start from the \
                 placement in {}",
                events.len(),
                graph.num_data(),
                options.shards,
                partition_path.as_deref().unwrap_or("?"),
            );
            partition
        }
        None => {
            println!(
                "serving {} multigets over {} keys on {} shards; starting from a random \
                 partition",
                events.len(),
                graph.num_data(),
                options.shards
            );
            RandomPartitioner::new(options.seed).partition_into(&graph, options.shards, 0.05)
        }
    };
    if every > 0 {
        return serve_online(&options, &graph, &events, &start, every, budget);
    }
    let engine = ServingEngine::new(&start, options.engine_config())?;

    // Plan the repartition off the serving path, then warm-start it live once at least half of
    // the schedule has been served: the swapper thread races the concurrent clients, and every
    // in-flight multiget finishes on whichever generation it loaded.
    println!("planning SHP-2 repartition off the serving path...");
    let registry = full_registry();
    let shp = options.shp_outcome(&registry, &graph)?;
    let progress = AtomicUsize::new(0);
    let swap_at = events.len() / 2;
    let snapshot_now = || live_snapshot(&engine);
    with_periodic_snapshots(options.metrics.as_deref(), &snapshot_now, || {
        std::thread::scope(|scope| {
            let swapper = scope.spawn(|| -> ShpResult<u64> {
                while progress.load(Ordering::Relaxed) < swap_at {
                    std::thread::yield_now();
                }
                Ok(engine.warm_start(&shp)?)
            });
            serve_clients(&engine, &graph, &events, options.clients, &progress)?;
            let epoch = swapper.join().expect("swapper thread panicked")?;
            println!("installed SHP-2 partition live at epoch {epoch}");
            Ok(())
        })
    })?;
    let report = final_report(&options, &engine, events.len())?;
    if report.max_epoch == 0 {
        return Err(ShpError::Runtime(
            "the run finished before the repartition could be installed; \
             increase --duration or --rate so the swap lands mid-run"
                .into(),
        ));
    }
    println!(
        "\nno serving gap: all {} multigets answered across epochs {}..={}",
        report.queries, report.min_epoch, report.max_epoch
    );
    Ok(())
}

/// The serving engine's telemetry folded with the process-global registry.
fn live_snapshot(engine: &ServingEngine) -> Snapshot {
    let mut live = engine.telemetry_snapshot("serving");
    live.merge(&shp_telemetry::global().snapshot());
    live
}

/// Writes the final `--metrics` snapshot and prints the engine's report, failing if any of
/// the `scheduled` multigets went unanswered.
fn final_report(
    options: &ServeOptions,
    engine: &ServingEngine,
    scheduled: usize,
) -> ShpResult<shp_serving::ServingReport> {
    if let Some(path) = options.metrics.as_deref() {
        write_metrics_file(path, &live_snapshot(engine))?;
        println!("wrote telemetry snapshot to {path}");
    }
    let report = engine.report();
    println!("\n{report}");
    if report.queries != scheduled as u64 {
        return Err(ShpError::Runtime(format!(
            "serving gap: only {} of {scheduled} multigets were served",
            report.queries
        )));
    }
    Ok(report)
}

/// `shp serve --repartition-every <n>`: the closed observe→repartition loop, live.
///
/// A bounded [`AccessTraceCollector`] rides the multiget hot path as the engine's access
/// observer; a controller thread runs one [`RepartitionController`] epoch every `n` served
/// multigets, installing a budgeted delta placement while the client threads keep serving.
fn serve_online(
    options: &ServeOptions,
    graph: &BipartiteGraph,
    events: &[WorkloadEvent],
    start: &shp_hypergraph::Partition,
    every: usize,
    migration_budget: usize,
) -> ShpResult<()> {
    let collector = Arc::new(AccessTraceCollector::new(
        every.clamp(64, 4096),
        options.seed,
    ));
    let engine =
        ServingEngine::new(start, options.engine_config())?.with_access_observer(collector.clone());
    let mut controller = RepartitionController::new(
        collector,
        ControllerConfig {
            migration_budget,
            seed: options.seed,
            ..ControllerConfig::default()
        },
    );
    println!(
        "online repartitioning: one controller epoch every {every} multigets, migration budget \
         {migration_budget} keys/epoch"
    );

    let progress = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let snapshot_now = || live_snapshot(&engine);
    with_periodic_snapshots(options.metrics.as_deref(), &snapshot_now, || {
        std::thread::scope(|scope| {
            let epoch_loop = scope.spawn(|| {
                let mut boundary = every;
                loop {
                    while progress.load(Ordering::Relaxed) < boundary {
                        if done.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::yield_now();
                    }
                    // A failed epoch (infeasible budget, torn trace, ...) must not tear down
                    // serving: skip it, report why, and keep the loop alive.
                    let skipped_before = controller.epochs_skipped();
                    match controller.run_epoch_or_skip(&engine) {
                        Some(outcome) => println!(
                            "epoch {}: moved {} keys (observed fanout {:.3} -> {:.3} over {} \
                             multigets)",
                            outcome.epoch,
                            outcome.moved_keys,
                            outcome.fanout_before,
                            outcome.fanout_after,
                            outcome.observed_queries
                        ),
                        None if controller.epochs_skipped() > skipped_before => eprintln!(
                            "repartition epoch skipped (serving continues): {}",
                            controller.last_skip_reason().unwrap_or("unknown failure")
                        ),
                        None => {}
                    }
                    boundary += every;
                }
            });
            let served = serve_clients(&engine, graph, events, options.clients, &progress);
            done.store(true, Ordering::Relaxed);
            epoch_loop.join().expect("controller thread panicked");
            served
        })
    })?;
    final_report(options, &engine, events.len())?;
    if controller.epochs_run() == 0 {
        return Err(ShpError::Runtime(format!(
            "no controller epoch succeeded: the schedule served {} multigets at cadence {every} \
             ({} epoch(s) skipped); lower --repartition-every or raise --rate/--duration",
            events.len(),
            controller.epochs_skipped()
        )));
    }
    println!(
        "\nonline loop closed: {} controller epoch(s) ({} skipped), {} key(s) moved in total \
         (budget {migration_budget} keys/epoch), final epoch {}",
        controller.epochs_run(),
        controller.epochs_skipped(),
        controller.cumulative_moved(),
        engine.current_epoch()
    );
    Ok(())
}

/// Renders one scenario run as a JSON object (phase rows plus the headline totals).
fn drift_report_json(report: &DriftReport) -> String {
    let phases: Vec<String> = report
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"phase\":{},\"mean_fanout\":{:.6},\"p99\":{:.6},\"p999\":{:.6},\
                 \"epochs\":{},\"moved\":{}}}",
                p.phase,
                p.mean_fanout,
                p.p99,
                p.p999,
                p.epochs.len(),
                p.epochs.iter().map(|e| e.moved_keys).sum::<usize>()
            )
        })
        .collect();
    format!(
        "{{\"phases\":[{}],\"cumulative_moved\":{},\"migration_budget\":{},\
         \"max_epoch_moved\":{}}}",
        phases.join(","),
        report.cumulative_moved,
        report.migration_budget,
        report.max_epoch_moved
    )
}

fn cmd_controller(args: &Args) -> ShpResult<()> {
    let mut config = DriftConfig::default();
    if args.switch("--quick") {
        config = config.quick();
    }
    config.phases = args.optional("--phases")?.unwrap_or(config.phases);
    config.repartition_every = args
        .optional("--every")?
        .unwrap_or(config.repartition_every);
    config.migration_budget = args
        .optional("--budget")?
        .unwrap_or(config.migration_budget);
    config.seed = args.optional("--seed")?.unwrap_or(config.seed);
    let json = args.switch("--json");
    if config.phases == 0 || config.repartition_every == 0 || config.migration_budget == 0 {
        return Err(ShpError::InvalidArgument(
            "--phases, --every, and --budget must all be at least 1".into(),
        ));
    }

    if !json {
        println!(
            "drift scenario: {} communities x {} keys on {} shards, {} phases x {} multigets, \
             structure shifts {} keys/phase",
            config.communities,
            config.community_size,
            config.shards,
            config.phases,
            config.queries_per_phase,
            config.shift_per_phase
        );
        println!(
            "controller: one epoch every {} multigets, migration budget {} keys/epoch\n",
            config.repartition_every, config.migration_budget
        );
    }
    let with = run_drift_scenario(&config)?;
    let baseline = run_drift_scenario(&DriftConfig {
        repartition_every: 0,
        ..config.clone()
    })?;

    if json {
        println!(
            "{{\"controller\":{},\"baseline\":{}}}",
            drift_report_json(&with),
            drift_report_json(&baseline)
        );
    } else {
        println!(
            "{:>5}  {:>17} {:>8} {:>8}  {:>15} {:>8}  {:>6} {:>6}",
            "phase",
            "controller fanout",
            "p99",
            "p999",
            "baseline fanout",
            "p99",
            "epochs",
            "moved"
        );
        for (c, b) in with.phases.iter().zip(&baseline.phases) {
            println!(
                "{:>5}  {:>17.4} {:>8.3} {:>8.3}  {:>15.4} {:>8.3}  {:>6} {:>6}",
                c.phase,
                c.mean_fanout,
                c.p99,
                c.p999,
                b.mean_fanout,
                b.p99,
                c.epochs.len(),
                c.epochs.iter().map(|e| e.moved_keys).sum::<usize>()
            );
        }
        println!(
            "\nfinal phase: controller fanout {:.4} vs baseline {:.4} ({:.1}% lower); \
             migration {} keys total, largest epoch {} (budget {})",
            with.final_phase_fanout(),
            baseline.final_phase_fanout(),
            100.0 * (1.0 - with.final_phase_fanout() / baseline.final_phase_fanout()),
            with.cumulative_moved,
            with.max_epoch_moved,
            with.migration_budget
        );
    }

    if with.max_epoch_moved > config.migration_budget {
        return Err(ShpError::Runtime(format!(
            "migration budget violated: an epoch moved {} keys (budget {})",
            with.max_epoch_moved, config.migration_budget
        )));
    }
    if with.final_phase_fanout() >= baseline.final_phase_fanout() {
        return Err(ShpError::Runtime(format!(
            "the controller failed to beat the never-repartition baseline: {:.4} vs {:.4}",
            with.final_phase_fanout(),
            baseline.final_phase_fanout()
        )));
    }
    Ok(())
}

/// Renders one drill run as a JSON object (phase rows plus the headline totals).
fn drill_report_json(report: &DrillReport) -> String {
    let phases: Vec<String> = report
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"phase\":\"{}\",\"mean_fanout\":{:.6},\"p99\":{:.6},\
                 \"availability\":{:.6},\"degraded_queries\":{},\"retries\":{},\
                 \"hedges_won\":{}}}",
                p.name,
                p.mean_fanout,
                p.p99,
                p.availability,
                p.degraded_queries,
                p.retries,
                p.hedges_won
            )
        })
        .collect();
    format!(
        "{{\"phases\":[{}],\"wrong_values\":{},\"degraded_leg_availability\":{:.6},\
         \"degraded_leg_degraded\":{},\"missing_mismatches\":{},\"recovery_epochs\":{},\
         \"recovery_moved\":{},\"max_epoch_moved\":{},\"recovery_remaining\":{},\
         \"migration_budget\":{}}}",
        phases.join(","),
        report.wrong_values,
        report.degraded_leg_availability,
        report.degraded_leg_degraded,
        report.missing_mismatches,
        report.recovery_epochs,
        report.recovery_moved,
        report.max_epoch_moved,
        report.recovery_remaining,
        report.migration_budget
    )
}

/// Every acceptance gate of the failure drill; the CLI (and CI through it) exits nonzero
/// when any fails.
fn check_drill_gates(report: &DrillReport) -> ShpResult<()> {
    if report.wrong_values > 0 {
        return Err(ShpError::Runtime(format!(
            "correctness violated: {} value(s) served wrong under faults",
            report.wrong_values
        )));
    }
    if report.missing_mismatches > 0 {
        return Err(ShpError::Runtime(format!(
            "partial results imprecise: {} quer(ies) misreported their missing keys",
            report.missing_mismatches
        )));
    }
    if report.incident_availability() < 0.99 {
        return Err(ShpError::Runtime(format!(
            "availability {:.4} under the incident (gate: >= 0.99 with replication)",
            report.incident_availability()
        )));
    }
    if report.max_epoch_moved > report.migration_budget {
        return Err(ShpError::Runtime(format!(
            "migration budget violated: a recovery epoch moved {} keys (budget {})",
            report.max_epoch_moved, report.migration_budget
        )));
    }
    if report.recovery_remaining > 0 {
        return Err(ShpError::Runtime(format!(
            "dead shard not drained: {} key(s) still assigned after recovery",
            report.recovery_remaining
        )));
    }
    if report.post_fanout() > 1.05 * report.baseline_fanout() {
        return Err(ShpError::Runtime(format!(
            "post-recovery fanout {:.4} not within 5% of the baseline {:.4}",
            report.post_fanout(),
            report.baseline_fanout()
        )));
    }
    Ok(())
}

fn cmd_drill(args: &Args) -> ShpResult<()> {
    let mut config = DrillConfig::default();
    if args.switch("--quick") {
        config = config.quick();
    }
    config.migration_budget = args
        .optional("--budget")?
        .unwrap_or(config.migration_budget);
    config.replication = args
        .optional("--replication")?
        .unwrap_or(config.replication);
    config.seed = args.optional("--seed")?.unwrap_or(config.seed);
    let json = args.switch("--json");
    let metrics: Option<String> = args.optional("--metrics")?;

    if !json {
        println!(
            "failure drill: {} communities x {} keys on {} shards (replication {}), 4 phases \
             x {} multigets",
            config.communities,
            config.community_size,
            config.shards,
            config.replication,
            config.queries_per_phase
        );
        println!(
            "incident script: shard {} crashes, shard {} serves {}x slow; recovery budget {} \
             keys/epoch\n",
            config.dead_shard, config.slow_shard, config.slow_factor, config.migration_budget
        );
    }
    let (report, mut snapshot) = run_drill_scenario_with_telemetry(&config)?;
    if let Some(path) = metrics.as_deref() {
        snapshot.merge(&shp_telemetry::global().snapshot());
        write_metrics_file(path, &snapshot)?;
    }

    if json {
        println!("{}", drill_report_json(&report));
    } else {
        println!(
            "{:>9}  {:>7} {:>8}  {:>12} {:>8} {:>7} {:>6}",
            "phase", "fanout", "p99", "availability", "degraded", "retries", "hedged"
        );
        for p in &report.phases {
            println!(
                "{:>9}  {:>7.4} {:>8.3}  {:>12.4} {:>8} {:>7} {:>6}",
                p.name,
                p.mean_fanout,
                p.p99,
                p.availability,
                p.degraded_queries,
                p.retries,
                p.hedges_won
            );
        }
        println!(
            "\ndegraded leg (no replicas): availability {:.4}, {} degraded quer(ies), every \
             partial result precise ({} mismatches)",
            report.degraded_leg_availability,
            report.degraded_leg_degraded,
            report.missing_mismatches
        );
        println!(
            "recovery: drained {} key(s) in {} epoch(s), largest epoch {} (budget {}), {} \
             remaining; {} wrong value(s) served",
            report.recovery_moved,
            report.recovery_epochs,
            report.max_epoch_moved,
            report.migration_budget,
            report.recovery_remaining,
            report.wrong_values
        );
    }
    if let Some(path) = metrics.as_deref() {
        println!("wrote telemetry snapshot to {path}");
    }

    check_drill_gates(&report)
}
