#!/usr/bin/env python3
"""Whole-scenario benchmark of the self-stabilizing supervised pub-sub system.

Builds bench_scenario (this directory's CMake package) into .bench_build/ at
the checkout root, then runs repetitions of named workloads, each in a fresh
process. README.md defines the workloads and metrics.

  run_benchmark.py --workload W --seed N --seconds T --trace 0|1
      One measured run of one workload: repetitions of the inputs generated
      from seed N until T seconds have passed. --trace 0 reports the
      end-to-end metrics, --trace 1 the per-layer metrics (traced and
      untraced repetitions alternate; Chrome traces land in
      .bench_build/traces/). Prints `workload metric value unit` lines and,
      last, one JSON object {"correct", "attempted", "failed", "metrics"}.

  run_benchmark.py [--seed N] [--out FILE]
      One untraced set: five repetitions of every workload, interleaved across
      workloads (repetition 1 of each, then repetition 2, ...) so machine
      drift hits every workload alike. --out saves the per-repetition
      values for --compare.

  run_benchmark.py --traced [--seed N]
      Five traced/untraced repetition pairs per workload; per-layer metrics,
      trace.overhead_share, and trace-<workload>.json per workload.

  run_benchmark.py --smoke
      Every workload at toy size, one traced and one untraced repetition,
      to check the plumbing.

  run_benchmark.py --compare A.json B.json
      One row per workload: each end-to-end metric's change from A to B,
      judged by the metric's direction and bound in BENCHMARK.json.

Every mode exits non-zero when any repetition fails a correctness check:
a convergence wait, oracle sweep, deploy differential or certification
failing, reports that differ between repetitions of the same inputs
(traced or not), or deterministic counts that miss the pins in pins.json.
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_scenario"
WORK = BUILD / "work"
TRACES = BUILD / "traces"
CORPUS = ROOT / "fuzz" / "corpus"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((BENCH_DIR / "pins.json").read_text())

# A run must end within 180 s; repetitions stop being started well before.
RUN_DEADLINE_S = 170.0
REFERENCE_SEED = 7
# Repetitions (traced: repetition pairs) of every workload in a set.
SET_REPS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # bench_scenario --kind
    shape: tuple  # bench_scenario flags at benchmark size
    smoke: tuple  # the same flags at toy size
    nodes: int  # population per deployment (core.msgs_per_node_unit)
    batch: int = 1  # deployments (scenario seeds, mc roots) per repetition
    pool: tuple = ()  # when set, a repetition's seeds are drawn from it
    # Copies of the calibration kernel run side by side: the round workers
    # of a parallel workload. One for the deploy fleet, whose lockstep
    # processes mostly take turns (a 4-wide kernel tracked it worse).
    calibration_threads: int = 1


# Model-checker roots (n = 2, one junk message) among 1..300 whose
# certification evaluates 2,000-10,000 search positions. Root cost is
# heavy-tailed — one root in ten needs over 3 s, some over 30 s — so
# drawing from all roots would make a repetition's length unbounded.
MC_ROOTS = (
    1, 7, 14, 15, 17, 18, 20, 27, 33, 36, 37, 38, 45, 48, 52, 53, 57, 58, 61, 62, 67, 75,
    77, 81, 85, 90, 91, 92, 94, 96, 97, 98, 99, 101, 104, 107, 116, 118, 121, 124, 126,
    130, 131, 138, 143, 150, 152, 154, 160, 168, 172, 173, 174, 175, 177, 181, 183, 188,
    189, 195, 196, 200, 202, 205, 206, 212, 214, 217, 218, 228, 229, 244, 246, 254, 259,
    265, 266, 268, 271, 272, 273, 279, 285, 286, 288, 289, 297)

# Sizes keep one repetition within 0.2-2 s, so a 10 s run holds enough
# repetitions for a steady median; all stay below the scale cliffs in
# README.md, on inputs where no operation fails.
WORKLOADS = [
    Workload("steady-1k", "scenario", ("--scenario", "scale-steady", "--nodes", "1024"),
             ("--scenario", "scale-steady", "--nodes", "128"), 1024),
    Workload("steady-1k-4w", "scenario",
             ("--scenario", "scale-steady", "--nodes", "1024", "--threads", "4"),
             ("--scenario", "scale-steady", "--nodes", "128", "--threads", "4"), 1024,
             calibration_threads=4),
    Workload("churn-1k", "scenario", ("--scenario", "scale-churn", "--nodes", "1024"),
             ("--scenario", "scale-churn", "--nodes", "128"), 1024),
    Workload("zipf-256", "scenario", ("--scenario", "zipf-topics", "--nodes", "256"),
             ("--scenario", "zipf-topics", "--nodes", "64"), 256),
    Workload("chaos-32", "scenario",
             ("--scenario", "chaos-churn", "--nodes", "32", "--scramble"),
             ("--scenario", "chaos-churn", "--nodes", "32", "--scramble"), 32, batch=24),
    Workload("deploy-256", "deploy",
             ("--scenario", "scale-steady", "--nodes", "256"),
             ("--scenario", "scale-steady", "--nodes", "64"), 256),
    Workload("mc-n2", "mc", ("--nodes", "2"), ("--nodes", "2"), 2, batch=12, pool=MC_ROOTS),
]
BY_NAME = {w.name: w for w in WORKLOADS}

END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
# Deterministic counts printed with every untraced set (and pinned).
EXACT_UNITS = {
    "messages": "count", "convergence_units": "units", "latency_p50": "units",
    "latency_p99": "units", "units": "units", "first_receipts": "count",
    "relays": "count", "mc_visited": "count",
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build and one repetition
# ---------------------------------------------------------------------------

def ensure_built():
    """Configures once, then brings bench_scenario and the deploy binaries
    up to date. Fails when the repository sources are not next to this
    directory."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources at {ROOT}; the benchmark builds them")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_scenario", "-j", "4"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text()[-3000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")
    WORK.mkdir(exist_ok=True)
    TRACES.mkdir(exist_ok=True)


def seeds_for(w, seed, smoke=False):
    """A repetition's inputs: the seed itself; for a batch workload the
    `batch` consecutive seeds after seed * batch, or `batch` members of
    its pool drawn by a generator seeded with the seed. Scenario seeds are
    64-bit, so they wrap."""
    batch = 1 if smoke else w.batch
    if w.pool:
        return random.Random(seed).sample(w.pool, batch)
    if batch == 1:
        return [seed % 2**64]
    return [(seed * batch + i + 1) % 2**64 for i in range(batch)]


def run_process_group(cmd, timeout):
    """Runs cmd in its own process group and returns (rc, stdout, stderr).
    On timeout every process of the group (a deploy fleet included) is
    killed and reaped before raising."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        # Grandchildren are not ours to wait for; wait until the group is gone.
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        raise BenchError(f"repetition exceeded {timeout:.0f} s: {' '.join(cmd)}")


def run_rep(w, seed, traced=False, smoke=False, timeout=150.0):
    """One repetition in a fresh bench_scenario process, right after a
    calibration run in another; returns its result with times converted to
    seconds."""
    calibrate = [str(BINARY), "--kind", "calibrate", "--threads", str(w.calibration_threads)]
    rc, out, err = run_process_group(calibrate, timeout)
    if rc != 0:
        raise BenchError(f"calibration exited {rc}\n{err[-2000:]}")
    calibration_s = json.loads(out)["calibration_us"] * 1e-6
    cmd = [str(BINARY), "--kind", w.kind, *(w.smoke if smoke else w.shape),
           "--seeds", ",".join(str(s) for s in seeds_for(w, seed, smoke)),
           "--label", w.name, "--work-dir", str(WORK), "--corpus", str(CORPUS)]
    if traced:
        cmd += ["--traced", "--trace-out", str(TRACES / f"trace-{w.name}.json")]
    rc, out, err = run_process_group(cmd, timeout)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"{w.name}: bench_scenario exited {rc}\n{err[-2000:]}")
    rep = json.loads(lines[-1])
    for key in ("wall", "setup", "cpu"):
        rep[f"{key}_s"] = rep.pop(f"{key}_us") * 1e-6
    rep["calibration_s"] = calibration_s
    rep["traced"] = traced
    return rep


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(rep):
    """One repetition's raw end-to-end values plus its calibration time."""
    units = max(rep["units"], 1)
    return {
        "units_per_s": rep["units"] / rep["wall_s"],
        "cpu_ms_per_unit": rep["cpu_s"] * 1e3 / units,
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "calibration_s": rep["calibration_s"],
    }


# On a shared machine speed drifts by ±20% over minutes, and other work
# slows single repetitions for seconds. Every repetition therefore times a
# fixed calibration kernel just before it runs, and each timing is scaled
# to a machine on which that kernel takes CALIBRATION_REF_S: divided by the
# machine's speed to the power given here. Memory is not scaled. A run
# reports, per metric, the median of its repetitions' scaled values.
SPEED_POWER = {"units_per_s": 1, "cpu_ms_per_unit": -1, "setup_s": -1, "peak_rss_mb": 0}
CALIBRATION_REF_S = 0.09


def calibrated(row, metric):
    """One repetition's value of an end-to-end metric on the reference machine."""
    return row[metric] * (row["calibration_s"] / CALIBRATION_REF_S) ** SPEED_POWER[metric]


def summarize_end_to_end(rows):
    return {k: statistics.median(calibrated(row, k) for row in rows) for k in SPEED_POWER}


def per_layer(w, rep):
    """Every per-layer metric of one traced repetition; layers the workload
    never reaches read as zero."""
    x, layers = rep["exact"], rep["layers"]
    wall = rep["wall_s"]
    units = rep["units"]

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "sched.units": units,
        "sim.sent": x["messages"],
        "sim.delivered": x["delivered"],
        "sim.bytes": x["bytes"],
        "sim.ns_per_delivery": ratio(wall * 1e9, x["delivered"]),
        "scenario.convergence_units": x["convergence_units"],
        "core.overlay_msgs": x["overlay_msgs"],
        "core.msgs_per_node_unit": ratio(x["overlay_msgs"], w.nodes * units)
        if w.kind != "mc" else 0.0,
        "pubsub.flood_msgs": x["flood_msgs"],
        "pubsub.check_trie_msgs": x["check_trie_msgs"],
        "pubsub.first_receipts": x["first_receipts"],
        "pubsub.receipt_yield": ratio(x["first_receipts"], x["flood_msgs"]),
        "pubsub.receipts_per_s": ratio(x["first_receipts"], wall),
        "pubsub.latency_p50": x["latency_p50"],
        "pubsub.latency_p99": x["latency_p99"],
        "wire.corrupted": x["corrupted"],
        "wire.rejected": x["rejected"],
        "proc.relays": x["relays"],
        "proc.relay_bytes": x["relay_bytes"],
        "mc.visited": x["mc_visited"],
        "mc.deduped": x["mc_deduped"],
        "mc.por_pruned": x["mc_por_pruned"],
        "mc.memo_hits": x["mc_memo_hits"],
        "mc.memo_hit_rate": ratio(x["mc_memo_hits"], units) if w.kind == "mc" else 0.0,
        "mc.visited_per_s": ratio(x["mc_visited"], wall),
        "trace.wall_s": wall,
    }
    values = {}
    for name in PER_LAYER:
        values[name] = derived.get(name, layers.get(name, 0.0))
    return values


def median_of(reps, fn):
    rows = [fn(r) for r in reps]
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def overhead_share(traced, untraced):
    """Tracing's cost: the median traced wall over the median untraced
    wall, minus 1, both scaled as at SPEED_POWER."""
    def wall(reps):
        return statistics.median(r["wall_s"] * CALIBRATION_REF_S / r["calibration_s"]
                                 for r in reps)
    return wall(traced) / wall(untraced) - 1.0


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def check_reps(w, seed, reps, smoke=False):
    """Problems found across the repetitions of one workload and seed."""
    problems = []
    for r in reps:
        problems += [f"{w.name}: {e}" for e in r["errors"]]
        if not r["ok"]:
            problems.append(f"{w.name}: repetition not ok")
    first = reps[0]
    for r in reps[1:]:
        if r["digest"] != first["digest"] or r["exact"] != first["exact"]:
            kind = "traced" if r["traced"] != first["traced"] else "repeated"
            problems.append(f"{w.name}: a {kind} repetition changed the report")
    pins = {} if smoke else PINS.get(w.name, {}).get(str(seed), {})
    observed = dict(first["exact"], units=first["units"])
    for key, want in pins.items():
        if observed[key] != want:
            problems.append(f"{w.name} seed {seed}: {key} = {observed[key]}, pinned {want}")
    return problems


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def emit(workload, values, spec):
    for name, m in spec.items():
        print(f"{workload} {name} {values[name]!r} {m['unit']}")


def measure(args):
    """One workload, one seed: repetitions until --seconds have passed."""
    w = BY_NAME[args.workload]
    ensure_built()
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    reps = []
    problems = []
    try:
        while True:
            # --trace 1 alternates untraced and traced repetitions so the
            # tracing overhead is measured against the same inputs.
            traced = args.trace == 1 and len(reps) % 2 == 1
            reps.append(run_rep(w, args.seed, traced=traced,
                                timeout=max(1.0, deadline - time.monotonic())))
            enough = time.monotonic() - start >= args.seconds
            if enough and (args.trace == 0 or len(reps) >= 2):
                break
    except BenchError as e:
        problems.append(str(e))
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not untraced or (args.trace == 1 and not traced):
        print(f"{w.name}: {problems[0]}", file=sys.stderr)
        return 1
    problems += check_reps(w, args.seed, reps)
    if args.trace == 0:
        values, spec = summarize_end_to_end([end_to_end(r) for r in untraced]), END_TO_END
    else:
        values, spec = median_of(traced, lambda r: per_layer(w, r)), PER_LAYER
        values["trace.overhead_share"] = overhead_share(traced, untraced)
    emit(w.name, values, spec)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": values[k], "unit": m["unit"]} for k, m in spec.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_set(args):
    """One interleaved set (untraced, traced or smoke) over every workload."""
    ensure_built()
    traced_set = args.traced or args.smoke
    order = WORKLOADS * (1 if args.smoke else SET_REPS)
    reps = {w.name: [] for w in WORKLOADS}
    problems = []
    started = time.monotonic()
    for w in order:
        try:
            reps[w.name].append(run_rep(w, args.seed, smoke=args.smoke))
            if traced_set:
                reps[w.name].append(run_rep(w, args.seed, traced=True, smoke=args.smoke))
        except BenchError as e:
            problems.append(str(e))
    saved = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    for w in WORKLOADS:
        got = reps[w.name]
        untraced = [r for r in got if not r["traced"]]
        traced = [r for r in got if r["traced"]]
        if not untraced:
            continue
        problems += check_reps(w, args.seed, got, smoke=args.smoke)
        rows = [end_to_end(r) for r in untraced]
        emit(w.name, summarize_end_to_end(rows), END_TO_END)
        if traced:
            layers = median_of(traced, lambda r: per_layer(w, r))
            layers["trace.overhead_share"] = overhead_share(traced, untraced)
            emit(w.name, layers, PER_LAYER)
        else:
            exact = dict(untraced[0]["exact"], units=untraced[0]["units"])
            for key, unit in EXACT_UNITS.items():
                print(f"{w.name} {key} {exact[key]} {unit}")
        saved["workloads"][w.name] = {"reps": rows, "exact": untraced[0]["exact"]}
    print(f"# {len(order)} repetition rounds in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(saved, indent=1) + "\n")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 0 if not problems else 1


def compare(path_a, path_b):
    """Per-workload verdicts for B against A under each metric's bound,
    judged on the medians of the repetitions' scaled values. The change of
    the best repetition is printed beside each verdict and judges nothing."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    for name in [w.name for w in WORKLOADS if w.name in a and w.name in b]:
        cells = []
        for metric, m in END_TO_END.items():
            va = [calibrated(r, metric) for r in a[name]["reps"]]
            vb = [calibrated(r, metric) for r in b[name]["reps"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            best = min if m["better"] == "lower" else max
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (mb - ma) / ma  # > 0: B is worse than A
            b_always_better = all(sign * (y - x) < 0 for x in va for y in vb)
            if b_always_better and worse < -m["bound"]:
                verdict = "improved"
            elif max(spread(va), spread(vb)) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
            elif worse < -m["bound"]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            best_change = (best(vb) - best(va)) / best(va) * 100
            cells.append(f"{metric}={verdict}({(mb - ma) / ma * 100:+.1f}%,"
                         f" best {best_change:+.1f}%)")
        print(f"{name} " + " ".join(cells))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload:
            return measure(args)
        return run_set(args)
    except BenchError as e:
        print(f"run_benchmark: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
