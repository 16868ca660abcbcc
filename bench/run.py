"""ecgraph benchmark: verify throughput and CLI latency, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-repair --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

One client runs jobs in a closed loop: the next job starts when the
previous one returns.  A job is one ``ecgraph.verify`` call or one
in-process ``ecgraph.cli.main`` call.  The job list is made from the seed
(see workloads.py) and repeated round after round until ``--seconds`` have
passed.  A job's time is its best over its runs (min-of-k).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics, measured by
hooks installed from tracing.py, per round (one pass over the job list).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file
with the raw per-round data and the run's context is written under
``bench/out/results``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import (
    CheckError,
    build_jobs,
    check_output,
    digest_output,
    run_job,
    warm_up_jobs,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PINS = BENCH_DIR / "pins.json"

WORKLOADS = ("verify-repair", "verify-reduce", "cli-large")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
# set-ups before and again after the measured rounds, so that setup_s does
# not rest on the host's speed at one moment
SETUP_REPS = 4
# the package and the entry-point module must exist; the others are only
# traced, and a missing one leaves its layers unmeasured
REQUIRED_MODULES = ("ecgraph", "ecgraph.cli")
TRACED_MODULES = ("ecgraph.core", "ecgraph.generators", "ecgraph.rainbow",
                  "ecgraph.reduction", "ecgraph.bounds", "ecgraph.matching",
                  "ecgraph.harness")

E2E_UNITS = {
    "samples_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span, statistic or counter, unit); a span name ending
# in ".counters" stands for the counters kept by that span's hook
LAYER_METRICS = {
    "harness.verify.total_s": ("harness.verify", "total_s", "s"),
    "harness.sample.self_s": ("harness.sample", "self_s", "s"),
    "harness.repair.calls": ("harness.repair", "calls", "count"),
    "harness.repair.self_s": ("harness.repair", "self_s", "s"),
    "harness.repair.edges_added": ("harness.repair.counters", "harness.repair.edges_added",
                                   "count"),
    "harness.repair.exhausted": ("harness.repair.counters", "harness.repair.exhausted",
                                 "count"),
    "harness.hypothesis.self_s": ("harness.hypothesis", "self_s", "s"),
    "harness.conclusion.total_s": ("harness.conclusion", "total_s", "s"),
    "core.ColoredGraph.builds": ("core.ColoredGraph", "calls", "count"),
    "core.color_profile.calls": ("core.color_profile", "calls", "count"),
    "core.color_profile.self_s": ("core.color_profile", "self_s", "s"),
    "core.min_color_degree.calls": ("core.min_color_degree", "calls", "count"),
    "core.min_color_degree.self_s": ("core.min_color_degree", "self_s", "s"),
    "core.load_ecg.self_s": ("core.load_ecg", "self_s", "s"),
    "core.save_ecg.self_s": ("core.save_ecg", "self_s", "s"),
    "reduction.edge_minimal_reduce.calls": ("reduction.edge_minimal_reduce", "calls", "count"),
    "reduction.edge_minimal_reduce.self_s": ("reduction.edge_minimal_reduce", "self_s", "s"),
    "reduction.edges_removed": ("reduction.edge_minimal_reduce.counters",
                                "reduction.edges_removed", "count"),
    "reduction.is_edge_minimal.calls": ("reduction.is_edge_minimal", "calls", "count"),
    "reduction.is_edge_minimal.self_s": ("reduction.is_edge_minimal", "self_s", "s"),
    "matching.max_matching.calls": ("matching.max_matching", "calls", "count"),
    "matching.max_matching.self_s": ("matching.max_matching", "self_s", "s"),
    "matching.gallai_partition.calls": ("matching.gallai_partition", "calls", "count"),
    "matching.gallai_partition.self_s": ("matching.gallai_partition", "self_s", "s"),
    "matching.verify_partition_lemmas.self_s": ("matching.verify_partition_lemmas",
                                                "self_s", "s"),
    "matching.min_vertex_cover.self_s": ("matching.min_vertex_cover", "self_s", "s"),
    "cli.analyze.total_s": ("cli.analyze", "total_s", "s"),
    "cli.reduce.total_s": ("cli.reduce", "total_s", "s"),
    "cli.partition.total_s": ("cli.partition", "total_s", "s"),
}
for _fn in ("triangle_bound_report", "mono_balance_diagnostics",
            "restriction_count", "counting_lower_bound"):
    LAYER_METRICS[f"bounds.{_fn}.calls"] = (f"bounds.{_fn}", "calls", "count")
    LAYER_METRICS[f"bounds.{_fn}.self_s"] = (f"bounds.{_fn}", "self_s", "s")
for _fn in ("build_index", "has_rainbow_triangle", "find_book", "find_fan",
            "max_fan", "max_book"):
    LAYER_METRICS[f"rainbow.{_fn}.calls"] = (f"rainbow.{_fn}", "calls", "count")
    LAYER_METRICS[f"rainbow.{_fn}.self_s"] = (f"rainbow.{_fn}", "self_s", "s")
# derived from the figures above and the jobs' own outputs
DERIVED_UNITS = {
    "harness.admit_ratio": "ratio",
    "core.graph_builds_per_sample": "count",
    "trace.overhead_s": "s",
}


# -- set-up ---------------------------------------------------------------------

def fresh_import() -> dict:
    """Import ecgraph from this checkout's src/, discarding earlier imports,
    so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "ecgraph" or m.startswith("ecgraph.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(name) for name in REQUIRED_MODULES}
    origin = Path(modules["ecgraph"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ecgraph imported from {origin}, not from {SRC}")
    for name in TRACED_MODULES:
        try:
            modules[name] = importlib.import_module(name)
        except ModuleNotFoundError:
            pass
    return modules


def set_up(workload: str, seed: int, workdir: Path):
    """Import, make the job list (writing the ECG inputs) and warm up."""
    start = time.perf_counter()
    modules = fresh_import()
    jobs = build_jobs(workload, modules, seed, workdir)
    for job in warm_up_jobs(jobs):
        run_job(job, modules)
    return time.perf_counter() - start, modules, jobs


# -- measuring ------------------------------------------------------------------

def run_round(jobs, modules, deadline: float | None = None) -> dict:
    """One pass over the job list, cut short at ``deadline``; outputs are
    kept for the checks, which run after the round so that they stay out of
    its wall time."""
    gc.collect()
    clock = time.perf_counter
    latencies, outputs = [], []
    round_start = clock()
    for job in jobs:
        if deadline is not None and clock() >= deadline:
            break
        start = clock()
        try:
            output = run_job(job, modules)
        except Exception as exc:  # a failed job is counted, the run goes on
            output = exc
        latencies.append(clock() - start)
        outputs.append(output)
    wall = clock() - round_start
    reports = [o for job, o in zip(jobs, outputs)
               if job.kind == "verify" and not isinstance(o, Exception)]
    return {"wall": wall, "latencies": latencies, "outputs": outputs,
            "attempted": sum(r.samples_attempted for r in reports),
            "admitted": sum(r.samples_admitted for r in reports)}


class Checker:
    """Compares each job's output digest with the pinned one (default seed)
    or with the first round's (any seed), after the seed-independent checks."""

    def __init__(self, jobs, modules, pinned: list | None, report_path: Path):
        self.jobs, self.modules, self.report_path = jobs, modules, report_path
        self.pinned = bool(pinned)
        self.expected = list(pinned) if pinned else [None] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, outputs) -> None:
        for i, (job, output) in enumerate(zip(self.jobs, outputs)):
            self.attempted += 1
            problem = self._problem(i, job, output)
            if problem:
                self.failed += 1
                self.errors.append(f"job {i} ({job.label}): {problem}")

    def _problem(self, i: int, job, output) -> str | None:
        if isinstance(output, Exception):
            return f"raised {output!r}"
        try:
            check_output(job, output, self.modules)
            digest = digest_output(job, output, self.modules, self.report_path)
        except (CheckError, OSError, ValueError, KeyError) as exc:
            return str(exc)
        if self.expected[i] is None:
            self.expected[i] = digest
        elif digest != self.expected[i]:
            return "output digest differs from the pin" if self.pinned else \
                "output digest differs from the first round"
        return None


def measure(jobs, modules, seconds: float, checker: Checker, tracer: Tracer | None):
    """Rounds for ``seconds``.  Untraced, the first round is whole and the
    last one stops at the deadline.  With a tracer, whole untraced and
    traced rounds alternate until the deadline, and each traced round
    leaves a snapshot."""
    rounds, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for use_trace in ((False, True) if tracer else (False,)):
            if use_trace:
                tracer.reset()
                tracer.active = True
            record = run_round(jobs, modules, deadline if rounds and not tracer else None)
            if use_trace:
                tracer.active = False
                record["trace"] = tracer.snapshot()
            checker.check(record.pop("outputs"))
            (traced if use_trace else rounds).append(record)
        if time.perf_counter() >= deadline:
            return rounds, traced


def best_times(jobs, rounds) -> list[float]:
    """Each job's best time over the rounds that reached it (min-of-k)."""
    return [min(r["latencies"][i] for r in rounds if i < len(r["latencies"]))
            for i in range(len(jobs))]


def end_to_end(jobs, rounds, setups, peak_rss_mb: float) -> dict:
    """Throughput and latency percentiles over the per-job best times,
    which keep most of the host's speed swings out."""
    best = best_times(jobs, rounds)
    return {
        "samples_per_s": sum(job.samples for job in jobs) / sum(best),
        "jobs_per_s": len(jobs) / sum(best),
        "job_ms_p50": 1000 * statistics.median(best),
        "job_ms_p90": 1000 * statistics.quantiles(best, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(jobs, rounds, traced, tracer: Tracer) -> tuple[dict, list]:
    """Per-round layer figures: counts from the first traced round (they
    must repeat in every round), times as medians over traced rounds."""
    snaps = [r["trace"] for r in traced]
    problems = []
    for snap in snaps[1:]:
        if _counts(snap) != _counts(snaps[0]):
            problems.append("per-layer counts differ between traced rounds")
            break
    first = snaps[0]
    metrics = {}
    for metric, (span, stat, unit) in LAYER_METRICS.items():
        if span in tracer.missing:
            metrics[metric] = (None, unit)
        elif stat in ("total_s", "self_s"):
            metrics[metric] = (statistics.median(
                s["spans"].get(span, {}).get(stat, 0.0) for s in snaps), unit)
        elif stat == "calls":
            metrics[metric] = (first["spans"].get(span, {}).get("calls", 0), unit)
        else:
            metrics[metric] = (first["counters"].get(stat, 0), unit)

    attempted, admitted = traced[0]["attempted"], traced[0]["admitted"]
    builds = metrics["core.ColoredGraph.builds"][0]
    derived = {
        "harness.admit_ratio": admitted / attempted if attempted else 0.0,
        "core.graph_builds_per_sample":
            None if builds is None else builds / sum(job.samples for job in jobs),
        "trace.overhead_s": sum(best_times(jobs, traced)) - sum(best_times(jobs, rounds)),
    }
    for name, value in derived.items():
        metrics[name] = (value, DERIVED_UNITS[name])
    return metrics, problems


def _counts(snap: dict) -> tuple:
    return (sorted((k, v["calls"]) for k, v in snap["spans"].items()),
            sorted(snap["counters"].items()))


# -- context ----------------------------------------------------------------------

def calib_ms() -> float:
    """A fixed pure-Python loop: a record of host speed, never used to
    scale a metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i % 7
        times.append(1000 * (time.perf_counter() - start))
    return statistics.median(times)


def host_state() -> dict:
    return {"calib_ms": calib_ms(), "loadavg": list(os.getloadavg())}


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_pins(workload: str) -> list | None:
    try:
        return json.loads(PINS.read_text())[workload]
    except (OSError, KeyError, ValueError):
        return None


# -- entry points ------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = OUT / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    before = host_state()
    setups = []
    for _ in range(SETUP_REPS):
        elapsed, modules, jobs = set_up(workload, seed, work / "inputs")
        setups.append(elapsed)

    pinned = load_pins(workload) if seed == DEFAULT_SEED else None
    if seed == DEFAULT_SEED and (pinned is None or len(pinned) != len(jobs)):
        print(f"error: no pinned digests for {workload} in {PINS}", file=sys.stderr)
        return 2
    checker = Checker(jobs, modules, pinned, work / "report.json")
    tracer = None
    if trace:
        tracer = Tracer(modules)
        tracer.install()
    try:
        rounds, traced = measure(jobs, modules, seconds, checker, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUP_REPS):
        setups.append(set_up(workload, seed, work / "inputs")[0])
    after = host_state()

    errors = list(checker.errors)
    if trace:
        metrics, problems = per_layer(jobs, rounds, traced, tracer)
        errors += problems
    else:
        metrics = {k: (v, E2E_UNITS[k])
                   for k, v in end_to_end(jobs, rounds, setups, peak_rss_mb).items()}
    error_rate = checker.failed / checker.attempted

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs_per_round": len(jobs),
        "samples_per_round": sum(job.samples for job in jobs),
        "rounds": len(rounds) + len(traced),
        "jobs_attempted": checker.attempted,
        "error_rate": error_rate,
        "outputs_checked_against": "pinned digests" if pinned else
            "first-round digests, reload-and-recheck of every reported failure "
            "witness, independent reduce and partition checks (no pins for this seed)",
        "host_before": before,
        "host_after": after,
        "setup_s_each": setups,
        "round_wall_s": [r["wall"] for r in rounds],
        "errors": errors[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if trace:
        result["traced_round_wall_s"] = [r["wall"] for r in traced]
        result["unmeasured_layers"] = sorted(tracer.missing)
        result["waiting"] = ("none: one client, one thread, no queue or lock, "
                             "so no layer waits")
        result["span_tree"] = traced[0]["trace"]["edges"]
    else:
        result["job_latency_s"] = [r["latencies"] for r in rounds]
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print(f"workload {workload}  seed {seed}  python {result['python']}  "
          f"nproc {result['nproc']}  commit {result['commit'][:12]}")
    print(f"rounds {result['rounds']} x {len(jobs)} jobs, {checker.attempted} jobs "
          f"checked against {result['outputs_checked_against']}")
    print(f"host calib_ms {before['calib_ms']:.2f} -> {after['calib_ms']:.2f}, "
          f"loadavg {before['loadavg'][0]:.2f} -> {after['loadavg'][0]:.2f} "
          f"(diagnostic only)")
    for name, (value, unit) in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {shown:>14s} {unit}")
    print(f"  {'error_rate':42s} {error_rate:14.6g} ratio")
    if trace:
        print(f"  waiting: {result['waiting']}")
    for line in errors[:10]:
        print(f"  ERROR {line}")
    print(json.dumps({
        "correct": not errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": result["metrics"],
    }))
    return 0


def write_pins(workload: str) -> int:
    """Record the default seed's output digests for one workload."""
    work = OUT / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    _, modules, jobs = set_up(workload, DEFAULT_SEED, work / "inputs")
    checker = Checker(jobs, modules, None, work / "report.json")
    checker.check(run_round(jobs, modules)["outputs"])
    if checker.errors:
        print("\n".join(checker.errors[:10]), file=sys.stderr)
        return 1
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[workload] = checker.expected
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(jobs)} digests for {workload}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload), then
    one table of every metric."""
    table, total = {}, {"correct": True, "attempted": 0, "failed": 0}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= doc["correct"]
        total["attempted"] += doc["attempted"]
        total["failed"] += doc["failed"]
        table[workload] = {**doc["metrics"], "error_rate": {
            "value": doc["failed"] / doc["attempted"], "unit": "ratio"}}
    names = list(next(iter(table.values())))
    print(f"\n{'metric':42s}" + "".join(f"{w:>16s}" for w in WORKLOADS) + "  unit")
    for name in names:
        cells = [table[w][name]["value"] for w in WORKLOADS]
        print(f"{name:42s}" + "".join(
            f"{'unmeasured' if c is None else format(c, '.6g'):>16s}" for c in cells)
            + f"  {table[WORKLOADS[0]][name]['unit']}")
    print(json.dumps({**total, "metrics": {
        f"{w}.{name}": value for w, ms in table.items() for name, value in ms.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record the default seed's output digests and exit")
    args = parser.parse_args(argv)
    if not (SRC / "ecgraph" / "__init__.py").is_file():
        print(f"error: {SRC / 'ecgraph'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.write_pins:
        targets = WORKLOADS if args.workload == "all" else (args.workload,)
        return max(write_pins(w) for w in targets)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
