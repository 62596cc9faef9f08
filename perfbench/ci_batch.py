"""ci-batch: many small jobs through the public CLI entry ``cli.main``, run
in-process on job files.  The job texts are built at set-up; each file is
written, untimed, just before its job runs.

Curves are binomial, weighted-homogeneous complete intersections

    P^3:  z2^c = A z0^a z1^b,                         z3^2 = C z0 z1
    P^4:  z2^c = A z0^a z1^b,  z3^e = B z0^f z1^g,    z4^2 = C z0 z1

with a, b, f, g >= 1, each carrying the diagonal degree-1 foliation
``sum lambda_i z_i d/dz_i`` with distinct rational eigenvalues that make
every equation weighted-homogeneous.  Its singular points on the curve
are exactly the coordinate points [1:0:...] and [0:1:0:...], so the point
list is complete.  Several foliations are swept over each curve: the
curve invariants (tau, mu) repeat across the jobs of a group while
dim O/<v, f> does not.

Each round is a P^3 group of 8 jobs (total-gsv, local-gsv, schwartz,
euler, tjurina, milnor, and total-gsv and euler with --oracle) and a P^4
group of 5 jobs (total-gsv, local-gsv, tjurina, and total-gsv and
local-gsv with --oracle): 4 of every 13 jobs use --oracle.  The Milnor
chain of the P^4 family fails in every equation order (each pair of its
equations cuts a cylinder), so the Milnor-based modes run on P^3 only.  Every 24 rounds
walk all exponent patterns of both families in seed-shuffled order, so
runs see the same mix; the seed draws the order, the coefficients and the
eigenvalues.

References: both germs are quasi-homogeneous ICIS with a linear field of
nonzero eigenvalues, so at each point tau = mu is the Greuel-Hamm number
prod(d)/prod(w) * (sum(d) - sum(w)) + 1, dim O/<v> = dim O/<v, f> = 1 and
the local index is 1 - tau; the sum must equal prod(k) * (d + m - sum(k))
and an euler job's chi the adjunction value.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

from refs import curve_euler, curve_total_gsv


# (mode, index of the foliation swept over the group's curve, --oracle)
P3_JOBS = [("total-gsv", 0, False), ("local-gsv", 1, False),
           ("schwartz", 2, False), ("euler", 3, False),
           ("tjurina", 0, False), ("milnor", 0, False),
           ("total-gsv", 1, True), ("euler", 2, True)]
P4_JOBS = [("total-gsv", 0, False), ("local-gsv", 1, False),
           ("tjurina", 0, False), ("total-gsv", 2, True),
           ("local-gsv", 1, True)]


def _patterns(degrees, count):
    """Exponent patterns ((c, a, b), ...) whose eigenvalue weights (a/c, b/c)
    differ from each other and from (1/2, 1/2), the weight of z_m^2 = z0 z1:
    equal weights would give two coordinates the same eigenvalue."""
    rows = [(c, a, c - a) for c in degrees for a in range(1, c)
            if 2 * a != c]
    return [combo for combo in product(rows, repeat=count)
            if len({Fraction(a, c) for c, a, _ in combo}) == count]


P3_PATTERNS = _patterns((3, 4, 5), 1)
P4_PATTERNS = _patterns((3, 4), 2)
ROUNDS = lcm(len(P3_PATTERNS), len(P4_PATTERNS))  # rounds per full cycle
ROUND_SIZE = len(P3_JOBS) + len(P4_JOBS)
RUN_UNIT = ROUNDS * ROUND_SIZE  # a run measures whole cycles
UNIT_SECONDS = 16.0  # one cycle at the seed commit, 2-core x86 host
TRACE_JOBS = 4 * ROUND_SIZE
_COEFFS = (-5, -3, -2, -1, 1, 2, 3, 5)


@dataclass
class Job:
    ident: str
    mode: str
    oracle: bool
    path: str
    m: int
    ks: tuple[int, ...]
    taus: tuple[int, int]  # reference tau = mu at [1:0:..] and [0:1:..]
    text: str  # job file contents, written to ``path`` before the job runs


def greuel_hamm(weights, degrees) -> int:
    """Milnor number of a quasi-homogeneous ICIS curve."""
    num = Fraction(1)
    for d in degrees:
        num *= d
    for w in weights:
        num /= w
    mu = num * (sum(degrees) - sum(weights)) + 1
    if mu.denominator != 1:
        raise ValueError("Greuel-Hamm number is not an integer")
    return int(mu)


def _chart_taus(pattern) -> tuple[int, int]:
    """Reference tau = mu at the points z0 = 1 and z1 = 1.

    In the chart z_i = 1 the other of z0, z1 has weight 2 (from z_m^2 ~ it),
    z_m weight 1, and each z_j^c ~ z^b weight 2b/c, so equation j has degree
    2b and the last equation degree 2."""
    taus = []
    for side in (2, 1):  # exponent of the surviving coordinate z1 or z0
        weights = [Fraction(2)]
        degrees = []
        for eq in pattern:
            c, b = eq[0], eq[side]
            weights.append(Fraction(2 * b, c))
            degrees.append(Fraction(2 * b))
        weights.append(Fraction(1))
        degrees.append(Fraction(2))
        taus.append(greuel_hamm(weights, degrees))
    return tuple(taus)


def _eigenvalues(rng, pattern):
    while True:
        l0, l1 = rng.sample(range(-9, 10), 2)
        lams = [Fraction(l0), Fraction(l1)]
        lams += [(a * lams[0] + b * lams[1]) / c for c, a, b in pattern]
        lams.append((lams[0] + lams[1]) / 2)
        if len(set(lams)) == len(lams):
            return lams


def _job_text(mode, m, pattern, coeffs, lams, order) -> str:
    eqs = [f"z{j + 2}^{c} - {k}*z0^{a}*z1^{b}"
           for j, ((c, a, b), k) in enumerate(zip(pattern, coeffs))]
    eqs.append(f"z{m}^2 - {coeffs[-1]}*z0*z1")
    comps = [f"{lam}*z{i}" for i, lam in enumerate(lams)]
    zeros = ", ".join("0" * m)
    lines = [
        "[job]", f"mode = {mode}", f"ambient = {m}",
        "[foliation]", "degree = 1",
        "components = " + ", ".join(f'"{c}"' for c in comps),
        "[curve]", "equations = " + ", ".join(f'"{e}"' for e in eqs),
    ]
    if order:
        lines.append("order = " + ", ".join(str(i) for i in order))
    lines += ["[points]", f"point = 0 : {zeros}", f"point = 1 : {zeros}", ""]
    return "\n".join(lines)


def _group(rng, pattern, templates, prefix, workdir: Path):
    m = len(pattern) + 2
    ks = tuple(c for c, _, _ in pattern) + (2,)
    coeffs = [rng.choice(_COEFFS) for _ in range(m - 1)]
    folia = [_eigenvalues(rng, pattern)
             for _ in range(1 + max(fol for _, fol, _ in templates))]
    # the smooth last equation first keeps every Milnor-chain step isolated
    order = [m - 1] + list(range(1, m - 1)) if m == 3 else None
    taus = _chart_taus(pattern)
    jobs = []
    for n, (mode, fol, oracle) in enumerate(templates):
        text = _job_text(mode, m, pattern, coeffs, folia[fol], order)
        jobs.append(Job(f"{prefix}-{n}", mode, oracle,
                        str(workdir / f"{prefix}-{n}.job"), m, ks, taus, text))
    return jobs


def job_stream(gsv, seed: int, workdir: Path):
    """Endless deterministic stream of jobs for ``seed``."""
    rng = random.Random(f"ci-batch {seed}")
    n = 0
    while True:
        p3 = [p for _ in range(ROUNDS // len(P3_PATTERNS))
              for p in rng.sample(P3_PATTERNS, len(P3_PATTERNS))]
        p4 = [p for _ in range(ROUNDS // len(P4_PATTERNS))
              for p in rng.sample(P4_PATTERNS, len(P4_PATTERNS))]
        for a, b in zip(p3, p4):
            yield from _group(rng, a, P3_JOBS, f"r{n}-p3", workdir)
            yield from _group(rng, b, P4_JOBS, f"r{n}-p4", workdir)
            n += 1


def run_cli(gsv, argv):
    """(exit code, parsed JSON report) of one in-process ``cli.main`` call."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = gsv.cli.main(argv)
    return code, out.getvalue()


def parse_report(text: str) -> dict:
    """The CLI report with integers folded to decimal strings restored."""
    report = json.loads(text)

    def unfold(obj):
        if isinstance(obj, dict):
            return {k: int(v) if obj.get(k + "_bigint") is True else unfold(v)
                    for k, v in obj.items() if not k.endswith("_bigint")}
        if isinstance(obj, list):
            return [unfold(v) for v in obj]
        return obj

    return unfold(report)


def run(gsv, job: Job):
    argv = [job.mode, "--job", job.path, "--quiet"]
    if job.oracle:
        argv.append("--oracle")
    return run_cli(gsv, argv)


def check(job: Job, outcome):
    """(wrong, undecided) messages; both None for a verified result."""
    code, text = outcome
    report = parse_report(text)
    if "error" in report:
        return None, f"error: {report['error']}"
    total = curve_total_gsv(job.m, job.ks, 1)
    if sum(1 - t for t in job.taus) != total:
        raise AssertionError(f"{job.ident}: reference taus {job.taus} do not "
                             f"sum to the closed form {total}")
    results = report["results"]
    details = results["per_point_detail"]
    expected, got = [], []
    for tau, detail in zip(job.taus, details):
        if job.mode in ("tjurina", "milnor"):
            want = {job.mode: tau}
        else:
            want = {"tau": tau, "dim_v": 1, "dim_vf": 1, "gsv": 1 - tau}
            if job.mode in ("schwartz", "euler"):
                want.update(milnor=tau, schwartz=1)
        expected.append(want)
        got.append({k: detail.get(k) for k in want})
    if job.mode in ("total-gsv", "schwartz", "euler"):
        expected.append({"local_sum": total, "closed_form": total})
        got.append({k: results.get(k) for k in expected[-1]})
    if job.mode == "local-gsv":
        expected.append({"sum": total})
        got.append({"sum": sum(results["per_point"])})
    if job.mode == "euler":
        mus = [d["milnor"] for d in details]
        expected.append({"chi": curve_euler(job.m, job.ks, mus)})
        got.append({"chi": results.get("chi")})
    if len(details) != 2 or got != expected:
        return f"{job.ident} {job.mode}: expected {expected}, got {got}", None
    if code != 0 or report["anomalies"]:
        return None, f"exit {code}: " + "; ".join(report["anomalies"])
    return None, None
