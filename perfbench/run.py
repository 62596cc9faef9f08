"""gsvkit benchmark: one process, no threads, one closed-loop client.

    python3 perfbench/run.py --workload ci-batch --seed 1 --seconds 30 --trace 0

Builds seeded inputs for the workload (set-up, timed on its own and
repeated SETUP_REPEATS times), then runs its jobs one after another,
checks every result against an independent reference and prints the
end-to-end metrics.  The number of jobs is fixed by ``--seconds``, not by
the clock: each workload walks a fixed mix of input shapes in units of
whole rounds, and a run takes as many units as fit in ``--seconds`` at the
seed commit's speed.  So every run with one seed attempts the same jobs,
and its failures (oracle disagreements, timeouts) repeat exactly.  With
``--trace 1`` it instead runs a fixed list of jobs four times, alternating
untraced passes with passes that record spans and counts on every public
function of gsvkit's six modules, and prints the per-layer metrics; the
counts of the two traced passes must agree exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Undecided jobs (errors,
timeouts, anomalies such as oracle disagreements) are listed above it.
A wrong decided result makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
from collections import Counter
from itertools import islice
from pathlib import Path
from time import perf_counter

import chern_grid
import ci_batch
import germ_hard
from spans import COUNT_METRICS, LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 9
WORKLOADS = {"ci-batch": ci_batch, "germ-hard": germ_hard,
             "chern-grid": chern_grid}


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout


class Gsvkit:
    """The freshly imported gsvkit modules."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "gsvkit" or n.startswith("gsvkit.")]:
            del sys.modules[name]
        package = importlib.import_module("gsvkit")
        if Path(package.__file__).resolve().parent != SRC / "gsvkit":
            raise ImportError(f"gsvkit imported from {package.__file__}, "
                              f"not from {SRC}")
        for layer in LAYERS + ("errors",):
            setattr(self, layer, importlib.import_module(f"gsvkit.{layer}"))


def setup(workload, seed: int, count: int):
    """Import gsvkit and build the first ``count`` jobs; returns (seconds
    taken, gsvkit modules, those jobs).  Job files are written afterwards,
    untimed, because disk writes on a shared machine vary far more than the
    work measured."""
    start = perf_counter()
    gsv = Gsvkit()
    stream = workload.job_stream(gsv, seed, WORK / workload.__name__)
    jobs = list(islice(stream, count))
    return perf_counter() - start, gsv, jobs


def _write(job):
    if hasattr(job, "text"):
        Path(job.path).write_text(job.text)
    return job


def _fresh_workdir(workload):
    workdir = WORK / workload.__name__
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)


def run_one(workload, gsv, job):
    """(seconds, outcome, wrong, undecided) for one job."""
    limit = getattr(workload, "TIME_LIMIT_S", 0)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            outcome = workload.run(gsv, job)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        return perf_counter() - start, None, None, f"timeout after {limit} s"
    except gsv.errors.GsvkitError as exc:
        return perf_counter() - start, None, None, f"error: {exc}"
    elapsed = perf_counter() - start
    wrong, undecided = workload.check(job, outcome)
    return elapsed, outcome, wrong, undecided


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with
    ten samples beyond it; the largest sample when there are ten or fewer
    samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def run_length(workload, seconds: float) -> int:
    """Jobs in a run: the whole units that take about ``seconds``."""
    return workload.RUN_UNIT * max(1, round(seconds / workload.UNIT_SECONDS))


def measure(workload, seed: int, seconds: float):
    _fresh_workdir(workload)
    setups = []
    for _ in range(SETUP_REPEATS):
        took, gsv, jobs = setup(workload, seed, run_length(workload, seconds))
        setups.append(took)
    latencies, wrong, undecided = [], [], []
    completed = 0
    busy = 0.0
    for job in map(_write, jobs):
        elapsed, outcome, bad, why = run_one(workload, gsv, job)
        busy += elapsed
        latencies.append(elapsed)
        completed += outcome is not None
        if bad:
            wrong.append(bad)
        elif why:
            undecided.append((job.ident, why))
    value, pct, beyond = tail(latencies)
    attempted = len(latencies)
    failed = len(wrong) + len(undecided)
    print(f"job_tail_s is p{pct:.1f} of {attempted} samples, "
          f"{beyond} beyond it")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (completed / busy, "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (value, "s"),
        "decided_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return metrics, attempted, failed, wrong, undecided


def _pass(workload, gsv, jobs, tracer=None):
    """Run ``jobs`` once; returns (wall seconds, per-job counts or None for
    a job that timed out, wrong, undecided)."""
    per_job, wrong, undecided = [], [], []
    start = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job, tracer.stack, tracer.counts = job.ident, [], Counter()
        _, outcome, bad, why = run_one(workload, gsv, job)
        timed_out = outcome is None and why.startswith("timeout")
        per_job.append(None if timed_out or tracer is None
                       else dict(tracer.counts))
        if bad:
            wrong.append(bad)
        elif why:
            undecided.append((job.ident, why))
    return perf_counter() - start, per_job, wrong, undecided


def measure_traced(workload, seed: int):
    """Untraced and traced passes over one fixed job list, alternated twice
    so that warm-up and drift fall on both sides of the overhead ratio."""
    _fresh_workdir(workload)
    _, gsv, jobs = setup(workload, seed, workload.TRACE_JOBS)
    for job in jobs:
        _write(job)
    tracer = Tracer()
    plain, traced, counts, wrong = [], [], [], []
    for repeat in range(2):
        wall, _, bad, why = _pass(workload, gsv, jobs)
        plain.append(wall)
        wrong += bad
        if not repeat:
            undecided = why
        tracer.reset()
        tracer.install(gsv)
        wall, per_job, bad, _ = _pass(workload, gsv, jobs, tracer)
        tracer.uninstall()
        traced.append(wall)
        counts.append(per_job)
        wrong += bad
        if not repeat:
            layer_metrics = tracer.metrics()
            tracer.write(WORK / f"spans-{workload.__name__}.jsonl")
    print("pass walls (s): untraced " + ", ".join(f"{w:.4f}" for w in plain)
          + "; traced " + ", ".join(f"{w:.4f}" for w in traced))
    totals = Counter()
    for job, a, b in zip(jobs, *counts):
        if a is not None and b is not None and a != b:
            wrong.append(f"{job.ident}: counts differ between traced "
                         f"passes: {a} vs {b}")
        totals.update(a or {})
    metrics = {name: (value, "s") for name, value in layer_metrics.items()}
    metrics.update({name: (totals[name], "count") for name in COUNT_METRICS})
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    return metrics, len(jobs), len(wrong) + len(undecided), wrong, undecided


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    if args.trace:
        result = measure_traced(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds)
    metrics, attempted, failed, wrong, undecided = result
    for ident, why in undecided:
        print(f"undecided {ident}: {why}")
    for message in wrong:
        print(f"WRONG {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
