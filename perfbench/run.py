#!/usr/bin/env python3
"""Runs one workload of the shp pipeline benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload bisect-k2048 --seed 1 --seconds 15 --trace 0

Builds the benchmark package in this directory (release profile, offline; the target
directory is $CARGO_TARGET_DIR when set), writes the workload's inputs for the seed into a
scratch directory under `.bench_work/`, runs the workload on them in a fresh process, and
removes the inputs. Every line the workload prints is passed through; the last line is
its result object. Traced runs also leave their spans in `.bench_work/spans/`.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["bisect-k2048", "bsp-k32", "serve-read", "serve-repartition"]
# One run must end within 180 s; the first one in a checkout also builds.
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def build() -> Path:
    """Builds the benchmark binary and returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--message-format", "json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=BUILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py: cargo build failed with code {proc.returncode}")
    for line in proc.stdout.splitlines():
        message = json.loads(line)
        if message.get("reason") == "compiler-artifact" and message.get("executable") \
                and message["target"]["name"] == "shp-perfbench":
            return Path(message["executable"])
    sys.exit("run.py: cargo build reported no shp-perfbench executable")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child, and the
    # inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    binary = build()
    work_root = Path.cwd() / ".bench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]
    try:
        gen = subprocess.run([str(binary), "gen", *common], timeout=GEN_TIMEOUT_S)
        if gen.returncode != 0:
            sys.exit(f"run.py: input generation failed with code {gen.returncode}")
        run = subprocess.run(
            [str(binary), "run", *common, "--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
        lines = run.stdout.splitlines()
        if run.returncode != 0 or not lines:
            sys.stdout.write(run.stdout)
            sys.exit(f"run.py: the workload failed with code {run.returncode}")
        spans = work / "spans.jsonl"
        if spans.exists():
            (work_root / "spans").mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), work_root / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        # The result object goes last, after every detail line.
        print("\n".join(lines[:-1]))
        print(lines[-1], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
