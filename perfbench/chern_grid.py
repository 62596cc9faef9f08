"""chern-grid: the arithmetic-only CLI modes over a seeded grid of
(m, ks, d, tau, rho) with m = 3..13.

Every round runs ``chern-check`` (symbolic triple agreement of the
difference classes plus integral versus closed form), ``poincare`` and
``bounds`` once for each m, in a seed-shuffled order of m; the seed draws
the multidegree, the foliation degree, tau, rho and the Milnor numbers.
The chern-check cost grows steeply with m, so every round covers every m.
This workload never reaches ``poly`` arithmetic or ``localring``: an
optimisation of the local-ring layer should leave it unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, prod
from pathlib import Path

from ci_batch import parse_report, run_cli
from refs import bound_constants, total_gsv_series

M_VALUES = range(3, 14)
ROUND_SIZE = 3 * len(M_VALUES)
RUN_UNIT = ROUND_SIZE  # a run measures whole rounds
UNIT_SECONDS = 1.5  # one round at the seed commit, 2-core x86 host
TRACE_JOBS = ROUND_SIZE


@dataclass
class Job:
    ident: str
    mode: str
    path: str
    m: int
    ks: tuple[int, ...]
    d: int
    params: dict
    text: str  # job file contents, written to ``path`` before the job runs


def _job_text(mode, m, ks, d, params) -> str:
    lines = ["[job]", f"mode = {mode}", f"ambient = {m}"]
    if mode != "bounds":
        lines += ["[foliation]", f"degree = {d}"]
    if len(ks) > 1:
        eqs = ", ".join(f'"z{i}^{k} - z{i + 1}^{k}"' for i, k in enumerate(ks))
        lines += ["[curve]", f"equations = {eqs}"]
    if params or len(ks) == 1:
        lines.append("[parameters]")
        if len(ks) == 1:
            lines.append(f"k = {ks[0]}")
        for key, value in params.items():
            if isinstance(value, list):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _round(rng, n, workdir: Path):
    for m in rng.sample(M_VALUES, len(M_VALUES)):
        d = rng.randint(0, 4)
        r = rng.randint(1, m - 1)
        specs = [
            ("chern-check", tuple(rng.randint(1, 4) for _ in range(r)), {}),
            ("poincare", tuple(rng.randint(1, 3) for _ in range(m - 1)), {}),
        ]
        if sum(specs[1][1]) <= d + m:  # the Milnor-weighted bound then holds
            specs[1][2]["milnors"] = [rng.randint(1, 9)
                                      for _ in range(rng.randint(1, 4))]
        r_b = rng.randint(1, m - 1)
        specs.append(("bounds", (), {
            "r": r_b, "tau": rng.randint(0, 20),
            "rho": rng.randint(0, comb(m - 2, m - r_b - 1))}))
        for mode, ks, params in specs:
            ident = f"r{n}-m{m}-{mode}"
            yield Job(ident, mode, str(workdir / f"{ident}.job"), m, ks, d,
                      params, _job_text(mode, m, ks, d, params))


def job_stream(gsv, seed: int, workdir: Path):
    """Endless deterministic stream of jobs for ``seed``."""
    rng = random.Random(f"chern-grid {seed}")
    n = 0
    while True:
        yield from _round(rng, n, workdir)
        n += 1


def run(gsv, job: Job):
    return run_cli(gsv, [job.mode, "--job", job.path, "--quiet"])


def _expected(job: Job) -> dict:
    m, ks, d = job.m, job.ks, job.d
    if job.mode == "chern-check":
        total = total_gsv_series(m, ks, d)
        return {"triple_agreement": True, "integral": total,
                "closed_form": total, "equal": True}
    if job.mode == "poincare":
        total = total_gsv_series(m, ks, d)
        want = {"gsv": total, "degree_sum": sum(ks), "bound": d + m,
                "inequality_holds": sum(ks) <= d + m,
                "gsv_nonnegative": total >= 0, "equivalence_ok": True}
        if "milnors" in job.params:
            lhs = prod(ks) * (sum(ks) - m) - sum(
                mu - 1 for mu in job.params["milnors"])
            want["milnor_bound"] = {"lhs": lhs, "rhs": d * prod(ks),
                                    "holds": lhs <= d * prod(ks)}
        return want
    r, tau, rho = (job.params[k] for k in ("r", "tau", "rho"))
    eps, alpha = bound_constants(m, r)
    if (m - r) % 2 == 0:
        lo, hi, gsv = alpha + tau, eps + tau, eps + tau - rho
    else:
        lo, hi, gsv = eps - tau, alpha - tau, eps - tau + rho
    return {"lo": lo, "hi": hi, "eps_r": eps, "alpha": alpha,
            "rho_range_max": comb(m - 2, m - r - 1),
            "gsv_at_rho": gsv, "positive_at_rho": gsv > 0}


def check(job: Job, outcome):
    """(wrong, undecided) messages; both None for a verified result."""
    code, text = outcome
    report = parse_report(text)
    if "error" in report:
        return None, f"error: {report['error']}"
    want = _expected(job)
    got = {k: report["results"].get(k) for k in want}
    if got != want:
        return f"{job.ident}: expected {want}, got {got}", None
    if code != 0 or report["anomalies"]:
        return None, f"exit {code}: " + "; ".join(report["anomalies"])
    return None, None
