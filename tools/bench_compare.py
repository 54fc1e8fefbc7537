#!/usr/bin/env python3
"""CI perf-regression gate: compare BENCH_*.json against committed baselines.

Usage:
    bench_compare.py --baseline-dir bench/baselines --result-dir build \
        [--tolerance 0.15] [--throughput-tolerance 0.15]

For every BENCH_<name>.json present in the baseline directory, the matching
result file must exist and every gated metric must not REGRESS by more than
the tolerance (improvements never fail the gate). Metrics are matched per
series row by their identifying keys (n, class, scheduler, ...); rows
without a "scheduler" key are round-scheduler rows.

Gated metrics:
  deterministic (exact replay per seed; --tolerance, default 15%):
      lower is better:  bootstrap_rounds, rounds
      drift check:      msgs_per_round (both directions: the steady-state
                        maintenance traffic is a protocol property)
      drift check:      latency_p50/p99/p999/max (both directions: delivery
                        latency in rounds is bit-deterministic per seed, so
                        any drift is a protocol change to acknowledge)
      drift check:      recovery_seconds (both directions: virtual seconds
                        for crash-recovered nodes to re-stabilize under the
                        chaos-churn fault mix — deterministic per seed)
  throughput (wall-clock; --throughput-tolerance, default 15%):
      higher is better: rounds_per_sec, msgs_per_sec

Convergence guard: a result row whose "ok" is false failed to converge
(it reports rounds = 0, which would otherwise pass as an improvement), so
it fails the gate.

Silent-drop guard: a numeric metric — or a whole series row — the current
run emits but the baseline lacks fails the gate. Without it, refreshing
baselines from a filtered or truncated run (or growing a bench without
refreshing) would silently stop gating that metric or row forever.

Refreshing baselines after an intended change:
    cd build && ./bench_simcore && ./bench_convergence
    cp build/BENCH_simcore.json build/BENCH_convergence.json bench/baselines/
"""

import argparse
import json
import pathlib
import sys

LOWER_IS_BETTER = {"bootstrap_rounds", "rounds"}
HIGHER_IS_BETTER = {"rounds_per_sec", "msgs_per_sec"}
BOTH_DIRECTIONS = {"msgs_per_round", "latency_p50", "latency_p99",
                   "latency_p999", "latency_max", "recovery_seconds"}
IDENTIFYING_KEYS = ("n", "threads", "class", "name", "scheduler")


def row_key(row):
    """Identity of one series row. Rows written before the timed scheduler
    existed carry no "scheduler" key; they are round-scheduler rows, so the
    key normalizes the absence to "rounds" — old baselines keep matching
    new results without a refresh."""
    key = [(k, row[k]) for k in IDENTIFYING_KEYS if k in row]
    if "scheduler" not in row:
        key.append(("scheduler", "rounds"))
    return tuple(key)


def iter_series(doc):
    """Yields (series_name, row_dict) for every list-of-objects entry."""
    for key, value in doc.items():
        if isinstance(value, list):
            for row in value:
                if isinstance(row, dict):
                    yield key, row


def is_numeric_metric(name, value):
    if name in IDENTIFYING_KEYS or name == "ok":
        return False
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_rows(where, base, got, tol, thr_tol, failures):
    if got.get("ok") is False:
        failures.append(f"{where}: ok is false (the run did not converge)")
    # Silent-drop guard: every numeric metric the run emits must exist in
    # the baseline row, or the baseline can no longer vouch for it.
    for metric, value in got.items():
        if is_numeric_metric(metric, value) and metric not in base:
            failures.append(
                f"{where}: baseline lacks metric '{metric}' that the current "
                f"run emits (refresh bench/baselines/ from a full run)")
    for metric, base_value in base.items():
        if not is_numeric_metric(metric, base_value):
            continue
        if metric not in LOWER_IS_BETTER | HIGHER_IS_BETTER | BOTH_DIRECTIONS:
            continue
        if metric not in got:
            failures.append(f"{where}: metric '{metric}' missing from results")
            continue
        value = got[metric]
        if base_value == 0:
            continue
        ratio = value / base_value
        tolerance = thr_tol if metric in HIGHER_IS_BETTER else tol
        if metric in LOWER_IS_BETTER and ratio > 1 + tolerance:
            failures.append(
                f"{where}: {metric} regressed {base_value} -> {value} "
                f"(+{(ratio - 1) * 100:.1f}% > {tolerance * 100:.0f}%)")
        elif metric in HIGHER_IS_BETTER and ratio < 1 - tolerance:
            failures.append(
                f"{where}: {metric} regressed {base_value:.0f} -> {value:.0f} "
                f"(-{(1 - ratio) * 100:.1f}% > {tolerance * 100:.0f}%)")
        elif metric in BOTH_DIRECTIONS and abs(ratio - 1) > tolerance:
            failures.append(
                f"{where}: {metric} drifted {base_value} -> {value} "
                f"(>{tolerance * 100:.0f}%; deterministic per seed — an intended "
                f"protocol change must refresh bench/baselines/)")


def compare_file(baseline_path, result_path, tol, thr_tol, failures):
    with open(baseline_path) as f:
        base_doc = json.load(f)
    with open(result_path) as f:
        got_doc = json.load(f)
    got_index = {}
    for series, row in iter_series(got_doc):
        got_index[(series, row_key(row))] = row
    base_keys = set()
    compared = 0
    for series, row in iter_series(base_doc):
        base_keys.add((series, row_key(row)))
        where = f"{baseline_path.name}:{series}{list(row_key(row))}"
        got = got_index.get((series, row_key(row)))
        if got is None:
            failures.append(f"{where}: row missing from results")
            continue
        compare_rows(where, row, got, tol, thr_tol, failures)
        compared += 1
    # Row-level silent-drop guard: a row the run emits that the baseline
    # never gates (e.g. a bench extended to a new n without a refresh).
    for (series, key) in got_index:
        if (series, key) not in base_keys:
            failures.append(
                f"{baseline_path.name}:{series}{list(key)}: row missing from "
                f"baseline (refresh bench/baselines/ to gate it)")
    return compared


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", required=True, type=pathlib.Path)
    parser.add_argument("--result-dir", required=True, type=pathlib.Path)
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fraction for deterministic metrics")
    parser.add_argument("--throughput-tolerance", type=float, default=0.15,
                        help="allowed regression fraction for wall-clock metrics")
    args = parser.parse_args()

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench_compare: no baselines under {args.baseline_dir}", file=sys.stderr)
        return 2

    failures = []
    total = 0
    for baseline in baselines:
        result = args.result_dir / baseline.name
        if not result.exists():
            failures.append(f"{baseline.name}: result file missing in {args.result_dir}")
            continue
        total += compare_file(baseline, result, args.tolerance,
                              args.throughput_tolerance, failures)

    for failure in failures:
        print(f"REGRESSION {failure}", file=sys.stderr)
    print(f"bench_compare: {total} rows compared across {len(baselines)} files, "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
