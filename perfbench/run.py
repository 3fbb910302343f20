#!/usr/bin/env python3
"""The repository benchmark: build, generate the seeded input, measure.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds liboms,
partition_tool, oms_serve and the omsbench driver (Release) under
.bench_build/; inputs and scratch files live under .bench_run/. The last
line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every correctness check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = Path(".bench_build") / "perfbench"
RUN_DIR = Path(".bench_run")
RUN_TIMEOUT_S = 170

WORKLOADS = ("mapping-inmem-t1", "stream-disk-seq", "buffered-disk-ckpt",
             "serve-rank")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j4"],
                   check=True, stdout=sys.stderr)
    return BUILD_DIR / "omsbench"


def input_file(omsbench, workload, seed, tiny):
    """The workload's METIS input for this seed, generated on first use.

    Only the latest seed of each workload is kept, so the cache stays one
    graph per workload."""
    data = RUN_DIR / "data"
    data.mkdir(parents=True, exist_ok=True)
    stem = workload + ("-tiny" if tiny else "")
    path = data / f"{stem}-seed{seed}.metis"
    if not path.exists():
        for old in data.glob(f"{stem}-seed*"):
            old.unlink()
        cmd = [str(omsbench), "gen", "--workload", workload,
               "--seed", str(seed), "--out", str(path)]
        subprocess.run(cmd + (["--tiny"] if tiny else []), check=True,
                       timeout=RUN_TIMEOUT_S)
    return path


def run_workload(omsbench, workload, seed, seconds, trace, tiny=False):
    """Run one measurement; returns (exit code, stdout text)."""
    path = input_file(omsbench, workload, seed, tiny)
    work = RUN_DIR / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(omsbench), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--input", str(path), "--work", str(work),
           "--bin", str(BUILD_DIR)]
    if tiny:
        cmd.append("--tiny")
    # Own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, out


def self_test(omsbench):
    """Every workload at tiny scale, both trace modes, every check active;
    the emitted names must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = json.loads(subprocess.run(
        [str(omsbench), "list"], check=True, capture_output=True,
        text=True).stdout)
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    workloads = [w["name"] for w in spec["workloads"]]
    expect(workloads == listed["workloads"],
           f"workloads {workloads} != driver's {listed['workloads']}")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == listed[key], f"{key} of BENCHMARK.json != driver's")
        for workload in workloads:
            code, out = run_workload(omsbench, workload, 1, 1, trace, tiny=True)
            label = f"{workload} --trace {trace}"
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{label}: exit {code}")
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: checks failed")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == declared, f"{label}: metric names/units differ")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items()
                        if not m["value"] > 0]
                expect(not zero, f"{label}: non-positive metrics {zero}")
            log(f"self-test: {label} ok")
    for p in problems:
        log("self-test FAILED:", p)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        omsbench = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"run.py: build failed: {e}")
        return 1
    if args.self_test:
        return self_test(omsbench)
    if args.workload not in WORKLOADS:
        log(f"run.py: unknown workload {args.workload!r}")
        return 2
    code, out = run_workload(omsbench, args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
