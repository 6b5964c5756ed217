//! The `shp` binary end to end: generated help, uniform argument errors, and the
//! generate → convert → partition → evaluate round trip through every graph format.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every subcommand with the flags its parser accepts.
const SURFACE: &[(&str, &str)] = &[
    ("generate", "--stream"),
    ("algorithms", ""),
    ("convert", "--from --to --workers"),
    (
        "partition",
        "--mode --p --epsilon --seed --iterations --workers --metrics --json --mmap",
    ),
    ("evaluate", "--json"),
    (
        "replay",
        "--dataset --graph --scale --shards --rate --duration --clients --cache --seed \
         --workers --metrics --mmap",
    ),
    (
        "serve",
        "--dataset --graph --scale --shards --rate --duration --clients --cache --seed \
         --workers --metrics --mmap --partition --repartition-every --migration-budget",
    ),
    (
        "controller",
        "--quick --phases --every --budget --seed --json",
    ),
    (
        "drill",
        "--quick --budget --replication --seed --json --metrics",
    ),
    ("metrics", "--prometheus"),
];

/// Per subcommand: a command line the parser accepts, and the flags that take a number.
const NUMERIC: &[(&str, &str)] = &[
    ("convert in.hgr out.shpb", "--workers"),
    (
        "partition in.hgr 4 out.part",
        "--p --epsilon --seed --iterations --workers",
    ),
    (
        "replay",
        "--scale --shards --rate --duration --clients --cache --seed --workers",
    ),
    (
        "serve",
        "--scale --shards --rate --duration --clients --cache --seed --workers \
         --repartition-every --migration-budget",
    ),
    ("controller", "--phases --every --budget --seed"),
    ("drill", "--budget --replication --seed"),
];

/// Runs `shp` in `dir` with the whitespace-separated `args`.
fn shp(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_shp"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("the shp binary runs")
}

/// Runs `shp args` in `dir`, asserts success, and returns its stdout.
fn run_ok(dir: &Path, args: &str) -> String {
    let output = shp(dir, args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "shp {args}: {stderr}");
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// Runs `shp args`, asserts it exits 1 with an `error:` line, and returns its stderr.
fn run_err(args: &str) -> String {
    let output = shp(&std::env::temp_dir(), args);
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert_eq!(output.status.code(), Some(1), "shp {args}: {stderr}");
    assert!(stderr.starts_with("error: "), "shp {args}: {stderr}");
    stderr
}

fn assert_contains(text: &str, needle: &str) {
    assert!(text.contains(needle), "{needle:?} not in {text:?}");
}

fn assert_same_bytes(dir: &Path, a: &str, b: &str) {
    let same = std::fs::read(dir.join(a)).unwrap() == std::fs::read(dir.join(b)).unwrap();
    assert!(same, "{a} and {b} differ");
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shp-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_help_exits_zero_and_names_each_flag() {
    let dir = std::env::temp_dir();
    let top = run_ok(&dir, "--help");
    for (command, flags) in SURFACE {
        assert_contains(&top, &format!("shp {command}"));
        for flag in flags.split_whitespace() {
            assert_contains(&top, &format!("[{flag}"));
        }
        for help in ["--help", "-h"] {
            let text = run_ok(&dir, &format!("{command} {help}"));
            assert!(text.starts_with(&format!("usage: shp {command}")), "{text}");
            for flag in flags.split_whitespace() {
                assert_contains(&text, &format!("  {flag} "));
            }
        }
    }
    assert_eq!(shp(&dir, "").status.code(), Some(2));
}

#[test]
fn argument_errors_are_uniform_and_name_the_flag() {
    for (command, _) in SURFACE {
        let stderr = run_err(&format!("{command} --bogus"));
        assert_contains(&stderr, "unknown option \"--bogus\"");
    }
    for flag in ["--partition", "--repartition-every", "--migration-budget"] {
        let stderr = run_err(&format!("replay {flag} 1"));
        assert_contains(&stderr, &format!("unknown option \"{flag}\""));
    }
    for (command_line, flags) in NUMERIC {
        for flag in flags.split_whitespace() {
            let stderr = run_err(&format!("{command_line} {flag} x1"));
            assert_contains(&stderr, &format!("invalid value \"x1\" for {flag}"));
            let stderr = run_err(&format!("{command_line} {flag}"));
            assert_contains(&stderr, &format!("{flag} needs a value"));
        }
    }
    let stderr = run_err("generate email-Enron x1 out.hgr");
    assert_contains(&stderr, "invalid <scale> \"x1\"");
    let stderr = run_err("evaluate in.hgr in.part x1");
    assert_contains(&stderr, "invalid <k> \"x1\"");
    let stderr = run_err("partition in.hgr 4");
    assert_contains(&stderr, "takes 3 argument(s), got 2");
    let stderr = run_err("drill --budget 0");
    assert_contains(&stderr, "migration_budget must be at least 1");
    for command in ["replay", "serve"] {
        let stderr = run_err(&format!("{command} --clients 0"));
        assert_contains(&stderr, "at least 1 client is required");
    }
    let stderr = run_err("convert in.hgr out.shpb --workers 0");
    assert_contains(&stderr, "at least 1 worker is required");
}

#[test]
fn every_format_and_mode_round_trips_through_the_pipeline() {
    let dir = scratch("grid");
    // Each format converts to a lossless one and back to identical bytes.
    for (format, other) in [("hgr", "shpb"), ("txt", "shpb"), ("shpb", "hgr")] {
        let (graph, converted) = (format!("g.{format}"), format!("c_{format}.{other}"));
        run_ok(&dir, &format!("generate email-Enron 0.01 {graph}"));
        run_ok(&dir, &format!("convert {graph} {converted}"));
        run_ok(&dir, &format!("convert {converted} b.{format}"));
        assert_same_bytes(&dir, &graph, &format!("b.{format}"));
        for mode in ["shp2", "shpk"] {
            let part = format!("{format}_{mode}.part");
            let args = format!("partition {graph} 4 {part} --mode {mode} --iterations 2");
            let outcome = run_ok(&dir, &args);
            assert!(outcome.starts_with(&format!("{mode}: fanout")), "{outcome}");
            for input in [&graph, &converted] {
                let report = run_ok(&dir, &format!("evaluate {input} {part} 4 --json"));
                assert_contains(&report, "\"num_buckets\":4");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn generated_shpb_partitions_identically_with_and_without_mmap() {
    let dir = scratch("mmap");
    run_ok(&dir, "generate email-Enron 0.05 g.shpb");
    run_ok(&dir, "generate email-Enron 0.05 s.shpb --stream");
    assert_same_bytes(&dir, "g.shpb", "s.shpb");
    run_ok(&dir, "partition g.shpb 8 owned.part --iterations 2");
    run_ok(&dir, "partition g.shpb 8 mapped.part --iterations 2 --mmap");
    assert_same_bytes(&dir, "owned.part", "mapped.part");
    std::fs::remove_dir_all(&dir).unwrap();
}
