#!/usr/bin/env python3
"""Bench regression gate: diff a fresh bench_micro JSON against the committed
baseline and fail CI on a real streaming-throughput regression.

Raw real_time ratios between two different machines carry the machine-speed
factor (the committed baseline is recorded wherever the last perf PR ran, CI
runs on whatever runner it gets). To first order that factor is the same for
every benchmark in a run, so the gate normalizes it away: each gated ratio
(new/base of a BM_Stream* entry) is divided by the geomean ratio of the
*anchor* benchmarks — every common benchmark outside the gated prefix
(BM_TreeBuild*, BM_MappingCost, ...). A uniformly slower runner inflates
gated and anchor ratios alike and cancels; a change that slows only the
streaming hot paths moves the gated ratios against the anchors and trips the
gate. The residual blind spot (a change slowing *everything*, anchors
included, uniformly) is covered by the uploaded artifact and perf review,
not this gate; --no-normalize gives the raw same-machine comparison.

Both files are recorded with --benchmark_repetitions=5 (README
"Performance"): each entry's real_time is the median of its repetitions, so
one noisy repetition cannot move the gate, and the table prints each side's
spread ((max - min) / median of the repetitions) next to the ratio. A file
with one repetition per entry still works; its spread reads 0%.

Exit codes: 0 = within bounds (individual drifts above --warn emit GitHub
warning annotations), 1 = normalized geomean regression above --fail,
2 = usage/data error (missing files, no overlapping benchmarks).

Usage:
  bench_regression_gate.py NEW_JSON BASELINE_JSON \
      [--prefix BM_Stream [--prefix BM_Buffered ...]] \
      [--fail 0.15] [--warn 0.05] [--no-normalize]

--prefix may be repeated (or given comma-separated): a benchmark is gated
when its name starts with ANY prefix; all remaining common benchmarks are
the normalization anchors.
"""

import argparse
import json
import math
import statistics
import sys


def load_benchmarks(path):
    """Map each benchmark name to (median real_time, spread) over its
    repetitions; the spread is (max - min) / median."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read '{path}': {e}", file=sys.stderr)
        sys.exit(2)
    times = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repeated runs): the
        # median is taken here, from the repetitions themselves.
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("run_name", b.get("name"))
        time = b.get("real_time")
        if name is not None and isinstance(time, (int, float)) and time > 0:
            times.setdefault(name, []).append(float(time))
    entries = {}
    for name, values in times.items():
        mid = statistics.median(values)
        entries[name] = (mid, (max(values) - min(values)) / mid)
    return entries


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new_json")
    parser.add_argument("baseline_json")
    parser.add_argument("--prefix", action="append", default=None,
                        help="gate benchmarks whose name starts with any of "
                             "these (repeatable, comma-separated allowed; "
                             "default: BM_Stream)")
    parser.add_argument("--fail", type=float, default=0.15,
                        help="fail when the gated geomean regresses more than this")
    parser.add_argument("--warn", type=float, default=0.05,
                        help="annotate individual entries drifting more than this")
    parser.add_argument("--no-normalize", action="store_true",
                        help="skip the anchor normalization (same-machine diffs)")
    args = parser.parse_args()
    prefixes = []
    for entry in (args.prefix or ["BM_Stream"]):
        prefixes.extend(p for p in entry.split(",") if p)

    new = load_benchmarks(args.new_json)
    base = load_benchmarks(args.baseline_json)
    common = sorted(set(new) & set(base))
    # Benchmarks only present in the new run would silently drop out of the
    # comparison: a freshly added bench is unguarded (and missing from the
    # anchors) until the baseline is re-recorded. Surface that loudly.
    unguarded = sorted(set(new) - set(base))
    if unguarded:
        names = ", ".join(unguarded)
        print(f"::warning title=bench gate coverage::{len(unguarded)} "
              f"benchmark(s) missing from the baseline and therefore not "
              f"gated: {names} — re-record BENCH_micro_baseline.json to "
              f"guard them")
    removed = sorted(set(base) - set(new))
    if removed:
        print(f"::warning title=bench gate coverage::{len(removed)} baseline "
              f"benchmark(s) no longer produced by this run: "
              f"{', '.join(removed)}")
    ratios = {n: new[n][0] / base[n][0] for n in common}
    gated = [n for n in common if n.startswith(tuple(prefixes))]
    anchors = [n for n in common if not n.startswith(tuple(prefixes))]
    prefix_label = "|".join(prefixes)
    if not gated:
        print(f"error: no common benchmarks with prefix '{prefix_label}' "
              f"({len(common)} common overall)", file=sys.stderr)
        sys.exit(2)

    # Machine-speed factor: how much faster/slower this run's machine is on
    # the benchmarks the gate does NOT watch. Falls back to 1.0 (raw ratios)
    # when there are no anchors to estimate it from.
    machine = 1.0
    if not args.no_normalize and anchors:
        machine = geomean([ratios[n] for n in anchors])

    print(f"{'benchmark (medians)':40s} {'baseline':>12s} {'spread':>7s} "
          f"{'new':>12s} {'spread':>7s} {'ratio':>7s} {'norm':>7s}")
    for name in common:
        norm = ratios[name] / machine
        in_gate = name.startswith(tuple(prefixes))
        marker = "  <-- slower" if in_gate and norm > 1 + args.warn else ""
        print(f"{name:40s} {base[name][0]:12.0f} {100 * base[name][1]:6.1f}% "
              f"{new[name][0]:12.0f} {100 * new[name][1]:6.1f}% "
              f"{ratios[name]:6.2f}x {norm:6.2f}x{marker}")
        if in_gate and norm > 1 + args.warn:
            # GitHub annotation; harmless plain text outside Actions.
            print(f"::warning title=bench drift::{name} is {norm:.2f}x the "
                  f"baseline real_time (machine-normalized)")

    gated_geomean = geomean([ratios[n] for n in gated]) / machine
    print(f"\nmachine factor (geomean of {len(anchors)} anchor benchmarks): "
          f"{machine:.3f}x")
    print(f"gated geomean ({prefix_label}*, {len(gated)} benchmarks, "
          f"normalized): {gated_geomean:.3f}x baseline")
    if gated_geomean > 1 + args.fail:
        print(f"::error title=bench regression::{prefix_label}* normalized "
              f"geomean {gated_geomean:.3f}x exceeds the {1 + args.fail:.2f}x gate")
        sys.exit(1)
    if gated_geomean > 1 + args.warn:
        print(f"::warning title=bench drift::{prefix_label}* normalized geomean "
              f"{gated_geomean:.3f}x baseline (gate is {1 + args.fail:.2f}x)")
    print("bench regression gate: OK")
    sys.exit(0)


if __name__ == "__main__":
    main()
