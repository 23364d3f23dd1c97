#!/usr/bin/env python3
"""Benchmark regression gate: compare fresh BENCH_*.json against baselines.

For every fresh result file given on the command line, the matching
baseline (same file name) is loaded from ``--baseline-dir`` and each
workload's ``seconds.total`` (the wall-clock of its timed spans, see
``_harness.py``) is compared.  With **no** positional
arguments the gate auto-discovers every ``--baseline-dir``/``*.json``
and expects the matching fresh file in the current directory — so a new
benchmark suite is gated the moment its baseline is committed, with no
CI or script changes (a discovered baseline whose fresh file is missing
fails the gate: the suite was supposed to run).

A fresh file must have been run at its baseline's size: when the two
``mode`` fields differ (say ``smoke`` against ``full``), the suite fails
the gate with a message naming both modes, because timings of different
sizes cannot be compared.

The gate also fails (exit 1) when any
workload regressed by more than ``--threshold``× (default 2.5×, generous
enough to absorb CI-runner noise).  Sub-floor timings (default 50 ms) are
clamped before comparing, so micro-workloads cannot trip the gate on
scheduler jitter and modest machine-speed differences between the
baseline machine and the CI runner are absorbed for smoke-sized
workloads.  Workloads present only on one side are reported but do
not fail the gate, so adding a benchmark never requires a lockstep
baseline update.

Speedups are reported too: a workload more than
``--speedup-threshold``× faster than its baseline (default 2×) is
flagged ``FASTER — consider re-baselining``.  Speedups never fail the
gate; the flag makes a perf win visible in CI output and nudges the
author to refresh the committed baseline so the gate keeps teeth.

Besides the wall-clock gate, the script prints an **informational**
counter-drift report: the integer ``metrics`` of each workload row are
compared against the baseline and any counter that moved by more than
``--drift-threshold``× (default 1.5×, both sides above a small noise
floor) is listed.  Counter drift never fails the gate — timings vary
with the machine, but counter movement on identical inputs means the
search *behavior* changed, which belongs next to a timing diff.

Usage::

    python benchmarks/check_regression.py [BENCH_simplify.json ...] \
        [--baseline-dir benchmarks/baselines] [--threshold 2.5] [--floor 0.05]
"""

from __future__ import annotations

import argparse
import glob
import json
import os


def payload_mode(path: str):
    """The ``mode`` a result file was recorded at (``None`` when absent)."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get("mode")


def workload_seconds(payload: dict) -> dict[str, float]:
    """Total wall-clock per workload: its ``seconds.total``."""
    return {row["workload"]: row["seconds"]["total"] for row in payload.get("results", [])}


def workload_counters(payload: dict) -> dict[str, dict[str, int]]:
    """Per-workload counters: the integer ``metrics`` (rates and other
    floats are derived)."""
    return {
        row["workload"]: {
            key: value for key, value in row["metrics"].items() if isinstance(value, int)
        }
        for row in payload.get("results", [])
    }


def counter_drift(
    fresh_path: str,
    baseline_path: str,
    drift_threshold: float,
    min_count: int = 50,
):
    """Yield (workload, counter, baseline, fresh, ratio) rows where a
    counter moved by more than ``drift_threshold``× in either direction.
    Counters below ``min_count`` on both sides are noise and skipped."""
    with open(fresh_path, encoding="utf-8") as handle:
        fresh = workload_counters(json.load(handle))
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = workload_counters(json.load(handle))
    for workload in sorted(fresh.keys() & baseline.keys()):
        fresh_counters = fresh[workload]
        baseline_counters = baseline[workload]
        for key in sorted(fresh_counters.keys() & baseline_counters.keys()):
            fresh_v = fresh_counters[key]
            base_v = baseline_counters[key]
            if max(fresh_v, base_v) < min_count:
                continue
            ratio = (fresh_v + 1) / (base_v + 1)
            if ratio > drift_threshold or ratio < 1 / drift_threshold:
                yield workload, key, base_v, fresh_v, ratio


def compare(fresh_path: str, baseline_path: str, threshold: float, floor: float):
    """Yield (workload, fresh_s, baseline_s, ratio, regressed) rows."""
    with open(fresh_path, encoding="utf-8") as handle:
        fresh = workload_seconds(json.load(handle))
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = workload_seconds(json.load(handle))
    for workload in sorted(fresh.keys() | baseline.keys()):
        fresh_s = fresh.get(workload)
        baseline_s = baseline.get(workload)
        if fresh_s is None or baseline_s is None:
            yield workload, fresh_s, baseline_s, None, False
            continue
        ratio = max(fresh_s, floor) / max(baseline_s, floor)
        yield workload, fresh_s, baseline_s, ratio, ratio > threshold


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh",
        nargs="*",
        help="freshly generated BENCH_*.json files (default: auto-discover "
        "one per committed baseline, expected in the current directory)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines"),
        help="directory holding the committed baseline JSONs",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.5,
        help="fail when fresh wall-clock exceeds baseline by this factor",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=0.05,
        help="clamp timings below this many seconds before comparing",
    )
    parser.add_argument(
        "--drift-threshold",
        type=float,
        default=1.5,
        help="report (never fail on) counters that moved by this factor",
    )
    parser.add_argument(
        "--speedup-threshold",
        type=float,
        default=2.0,
        help="report (never fail on) workloads faster than baseline by this factor",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    speedups: list[str] = []
    fresh_files = list(args.fresh)
    if not fresh_files:
        baselines = sorted(glob.glob(os.path.join(args.baseline_dir, "*.json")))
        if not baselines:
            print(f"no baselines in {args.baseline_dir}; nothing to gate")
            return 0
        fresh_files = [os.path.basename(path) for path in baselines]
        print(
            "auto-discovered {} baseline suite(s): {}".format(
                len(fresh_files), ", ".join(fresh_files)
            )
        )
        for fresh_path in list(fresh_files):
            if not os.path.exists(fresh_path):
                failures.append(f"{fresh_path} (fresh result missing — suite not run?)")
                fresh_files.remove(fresh_path)

    header = f"{'workload':<20} {'baseline_s':>11} {'fresh_s':>9} {'ratio':>7}  status"
    for fresh_path in fresh_files:
        baseline_path = os.path.join(args.baseline_dir, os.path.basename(fresh_path))
        print(f"== {fresh_path} vs {baseline_path}")
        if not os.path.exists(baseline_path):
            print("   no baseline found; skipping (commit one to enable the gate)")
            continue
        fresh_mode = payload_mode(fresh_path)
        baseline_mode = payload_mode(baseline_path)
        if fresh_mode != baseline_mode:
            message = (
                f"{os.path.basename(fresh_path)} (fresh mode {fresh_mode!r} "
                f"differs from baseline mode {baseline_mode!r})"
            )
            print(f"   MODE MISMATCH: {message}")
            print()
            failures.append(message)
            continue
        print(header)
        print("-" * len(header))
        for workload, fresh_s, baseline_s, ratio, regressed in compare(
            fresh_path, baseline_path, args.threshold, args.floor
        ):
            if ratio is None:
                side = "baseline" if fresh_s is None else "fresh"
                print(f"{workload:<20} {'-':>11} {'-':>9} {'-':>7}  only in {side}")
                continue
            if regressed:
                status = "REGRESSED"
            elif ratio < 1 / args.speedup_threshold:
                status = (
                    f"FASTER ({1 / ratio:.1f}x) — consider re-baselining"
                )
                speedups.append(
                    f"{os.path.basename(fresh_path)}:{workload} ({1 / ratio:.1f}x faster)"
                )
            else:
                status = "ok"
            print(
                f"{workload:<20} {baseline_s:>11.4f} {fresh_s:>9.4f} {ratio:>6.2f}x  {status}"
            )
            if regressed:
                failures.append(f"{os.path.basename(fresh_path)}:{workload} ({ratio:.2f}x)")
        drifts = list(
            counter_drift(fresh_path, baseline_path, args.drift_threshold)
        )
        if drifts:
            print(
                f"counter drift beyond {args.drift_threshold}x "
                "(informational, never gates):"
            )
            for workload, key, base_v, fresh_v, ratio in drifts:
                print(f"  ~ {workload}.{key}: {base_v} -> {fresh_v} ({ratio:.2f}x)")
        else:
            print(
                f"counter drift: none beyond {args.drift_threshold}x (informational)"
            )
        print()
    if speedups:
        print(
            f"NOTE: {len(speedups)} workload(s) more than {args.speedup_threshold}x "
            "faster than baseline — consider re-baselining:"
        )
        for speedup in speedups:
            print(f"  - {speedup}")
    if failures:
        print(f"FAIL: {len(failures)} suite(s) or workload(s) failed the gate "
              f"(regression beyond {args.threshold}x, mode mismatch or missing result):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"OK: no workload regressed beyond {args.threshold}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
