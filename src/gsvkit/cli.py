"""Command-line front end.

    gsvkit <mode> --job FILE [--oracle] [--quiet]

The job file is a flat key/value text format with INI-like sections
([job], [foliation], [curve], [points], [parameters]); polynomials are
quoted strings in the library's polynomial grammar.  The report is JSON
on stdout (byte-deterministic for identical inputs, apart from the
isolated "timing" key) and a human-readable table on stderr unless
--quiet.

Exit codes: 0 success with consistent results, 1 input error, 2
mathematical inconsistency (any anomaly, e.g. a total-index mismatch).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from decimal import Decimal
from fractions import Fraction

from .cherncalc import (
    ChernVector,
    GradedRing,
    chern_difference_expansion,
    chern_difference_inversion,
    chern_difference_recursion,
    total_gsv_integral_projective,
)
from .errors import (
    GsvkitError,
    InfiniteDimensionError,
    PolynomialSyntaxError,
    UnknownVariableError,
)
from .indices import (
    _ideal_name,
    germ_ideals,
    greuel_tjurina,
    invariance_certificate,
    milnor_curve,
    milnor_from_chain,
    published_bound_table,
    nondegenerate_bound_constants,
)
from .localring import MACAULAY_MAX_DEGREE, quotient_dim_macaulay
from .poly import Polynomial, parse_polynomial
from .projective import (
    PointOnChart,
    ProjectiveCI,
    ProjectiveFoliation,
    check_distinct_points,
    closed_form_gsv,
    curve_germ_at,
    euler_characteristic_curve,
    poincare_degree_bound,
    projective_variables,
    soares_plane_bound,
    milnor_degree_bound,
    total_gsv_certified,
    total_indices_certified,
)

BIGINT_THRESHOLD = 2 ** 53
# The symbolic difference-class check over 2m Chern generators grows about
# 1.35x per ambient dimension: 0.015 s at m = 18, 0.10 s at m = 24, 0.52 s
# and 74 MB at m = 30 (run_job, best of three; k = 3, d = 2, 2-vCPU x86
# VM).  A higher cap would accept new input.
CHERN_CHECK_MAX_AMBIENT = 18


class JobFileError(GsvkitError):
    """Invalid job file; the message names the offending field or offset."""


# ---------------------------------------------------------------------------
# job-file parsing

@dataclass(frozen=True)
class RawValue:
    text: str
    offset: int  # UTF-8 byte offset of the value within the file


def parse_job_text(text: str) -> dict[str, dict[str, list[RawValue]]]:
    sections: dict[str, dict[str, list[RawValue]]] = {}
    current = None
    offset = 0
    for line in text.splitlines(keepends=True):
        raw = line.rstrip("\r\n")
        stripped = raw.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            offset += len(line.encode())
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise JobFileError(
                    f"unterminated section header at byte offset {offset}")
            current = stripped[1:-1].strip()
            sections.setdefault(current, {})
            offset += len(line.encode())
            continue
        if "=" not in raw:
            raise JobFileError(
                f"expected 'key = value' at byte offset {offset}: {raw!r}")
        if current is None:
            raise JobFileError(
                f"key/value outside any [section] at byte offset {offset}")
        key, value = raw.split("=", 1)
        before = raw[:len(raw) - len(value.lstrip())]  # key, '=' and blanks
        value_offset = offset + len(before.encode())
        sections[current].setdefault(key.strip(), []).append(
            RawValue(value.strip(), value_offset))
        offset += len(line.encode())
    return sections


def _single(sections, section, key, required=True) -> RawValue | None:
    values = sections.get(section, {}).get(key, [])
    if not values:
        if required:
            raise JobFileError(f"[{section}] {key}: required field is missing")
        return None
    if len(values) > 1:
        raise JobFileError(f"[{section}] {key}: given more than once")
    return values[0]


def _parse_int(raw: RawValue, field: str) -> int:
    try:
        return int(raw.text)
    except ValueError:
        raise JobFileError(
            f"{field}: expected an integer, got {raw.text!r}") from None


def _parse_int_list(raw: RawValue, field: str) -> list[int]:
    out = []
    for piece in raw.text.split(","):
        piece = piece.strip()
        try:
            out.append(int(piece))
        except ValueError:
            raise JobFileError(
                f"{field}: expected a comma-separated integer list, "
                f"got {piece!r}") from None
    return out


def _parse_quoted_list(raw: RawValue, field: str) -> list[tuple[str, int]]:
    """Comma-separated quoted strings; returns (content, file offset) pairs."""
    out = []
    text = raw.text

    def at(i):
        return raw.offset + len(text[:i].encode())

    i, n = 0, len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i >= n or text[i] != '"':
            raise JobFileError(
                f"{field}: expected a double-quoted string at byte offset "
                f"{at(i)}")
        j = text.find('"', i + 1)
        if j < 0:
            raise JobFileError(
                f"{field}: unterminated string at byte offset {at(i)}")
        out.append((text[i + 1:j], at(i + 1)))
        i = j + 1
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            return out
        if text[i] != ",":
            raise JobFileError(
                f"{field}: expected ',' between strings at byte offset "
                f"{at(i)}")
        i += 1


def _parse_rational(piece: str, field: str) -> Fraction:
    try:
        return Fraction(piece.strip())
    except (ValueError, ZeroDivisionError):
        raise JobFileError(
            f"{field}: expected a rational number p or p/q, "
            f"got {piece.strip()!r}") from None


def _parse_point(raw: RawValue, field: str, m: int) -> PointOnChart:
    if ":" not in raw.text:
        raise JobFileError(f"{field}: expected 'chart : a1, ..., a{m}'")
    chart_text, coords_text = raw.text.split(":", 1)
    try:
        chart = int(chart_text.strip())
    except ValueError:
        raise JobFileError(
            f"{field}: chart must be an integer, got {chart_text.strip()!r}"
        ) from None
    if not 0 <= chart <= m:
        raise JobFileError(f"{field}: chart must lie in 0..{m}")
    coords = [_parse_rational(piece, field)
              for piece in coords_text.split(",")]
    if len(coords) != m:
        raise JobFileError(
            f"{field}: expected {m} affine coordinates, got {len(coords)}")
    return PointOnChart(chart, coords)


def _parse_polynomials(raw: RawValue, field: str, variables) -> list[Polynomial]:
    polys = []
    for content, content_offset in _parse_quoted_list(raw, field):
        try:
            polys.append(parse_polynomial(content, variables))
        except (PolynomialSyntaxError, UnknownVariableError) as exc:
            in_string = getattr(exc, "offset", 0)
            raise JobFileError(
                f"{field}: {exc} -- file byte offset "
                f"{content_offset + in_string}") from None
    return polys


_KNOWN_KEYS = {
    "job": {"mode", "ambient"},
    "foliation": {"degree", "components"},
    "curve": {"equations", "multidegree", "order"},
    "points": {"point"},
    "parameters": {"r", "tau", "rho", "milnors", "k", "degree"},
}


@dataclass
class JobSpec:
    mode: str
    ambient: int | None
    foliation: ProjectiveFoliation | None
    foliation_degree: int | None
    multidegree: tuple[int, ...] | None
    curve: ProjectiveCI | None
    milnor_order: tuple[int, ...] | None
    points: list[PointOnChart]
    parameters: dict


def load_job(text: str) -> JobSpec:
    sections = parse_job_text(text)
    for section, keys in sections.items():
        known = _KNOWN_KEYS.get(section)
        if known is None:
            raise JobFileError(f"unknown section [{section}]")
        for key in keys:
            if key not in known:
                raise JobFileError(f"[{section}] {key}: unknown key")

    mode_raw = _single(sections, "job", "mode")
    mode = mode_raw.text
    if mode not in MODES:
        raise JobFileError(
            f"[job] mode: unknown mode {mode!r}; expected one of "
            + ", ".join(MODES))
    ambient_raw = _single(sections, "job", "ambient", required=False)
    ambient = _parse_int(ambient_raw, "[job] ambient") if ambient_raw else None
    if ambient is not None and ambient < 2:
        raise JobFileError("[job] ambient: must be at least 2")

    foliation = None
    foliation_degree = None
    if "foliation" in sections:
        degree_raw = _single(sections, "foliation", "degree", required=False)
        if degree_raw is not None:
            foliation_degree = _parse_int(degree_raw, "[foliation] degree")
        if "components" in sections["foliation"]:
            if ambient is None:
                raise JobFileError("[job] ambient: required with a foliation")
            if foliation_degree is None:
                raise JobFileError("[foliation] degree: required field is "
                                   "missing")
            comps = _parse_polynomials(
                _single(sections, "foliation", "components"),
                "[foliation] components", projective_variables(ambient))
            with _field("[foliation] components"):
                foliation = ProjectiveFoliation(ambient, foliation_degree,
                                                comps)

    curve = None
    milnor_order = None
    multi_raw = _single(sections, "curve", "multidegree", required=False)
    multidegree = (None if multi_raw is None else tuple(
        _parse_int_list(multi_raw, "[curve] multidegree")))
    order_raw = _single(sections, "curve", "order", required=False)
    if "equations" in sections.get("curve", {}):
        if ambient is None:
            raise JobFileError("[job] ambient: required with a curve")
        eqs = _parse_polynomials(
            _single(sections, "curve", "equations"),
            "[curve] equations", projective_variables(ambient))
        if multidegree is None:
            multidegree = tuple(f.degree() for f in eqs)
        with _field("[curve] equations"):
            curve = ProjectiveCI(ambient, eqs, multidegree)
        if order_raw is not None:
            order = _parse_int_list(order_raw, "[curve] order")
            if sorted(order) != list(range(1, len(eqs) + 1)):
                raise JobFileError(
                    "[curve] order: must be a permutation of 1.."
                    + str(len(eqs)))
            milnor_order = tuple(i - 1 for i in order)
    elif order_raw is not None:
        raise JobFileError("[curve] order: needs [curve] equations")

    points = []
    if "points" in sections:
        if ambient is None:
            raise JobFileError("[job] ambient: required with points")
        for raw in sections["points"].get("point", []):
            points.append(_parse_point(raw, "[points] point", ambient))

    parameters = {}
    if "parameters" in sections:
        for key in ("r", "tau", "rho", "k", "degree"):
            raw = _single(sections, "parameters", key, required=False)
            if raw is not None:
                parameters[key] = _parse_int(raw, f"[parameters] {key}")
        raw = _single(sections, "parameters", "milnors", required=False)
        if raw is not None:
            parameters["milnors"] = _parse_int_list(raw, "[parameters] milnors")

    return JobSpec(mode=mode, ambient=ambient, foliation=foliation,
                   foliation_degree=foliation_degree,
                   multidegree=multidegree, curve=curve,
                   milnor_order=milnor_order, points=points,
                   parameters=parameters)


# ---------------------------------------------------------------------------
# mode runners

def _need(condition, message):
    if not condition:
        raise JobFileError(message)


@contextmanager
def _field(name):
    """A ValueError of the library, raised again as the JobFileError of
    the job-file field ``name``."""
    try:
        yield
    except ValueError as exc:
        raise JobFileError(f"{name}: {exc}") from None


def _fields(report, *dropped) -> dict:
    """The report's dataclass fields by name, without ``dropped`` and
    without any field that is None."""
    return {f.name: value for f in fields(report)
            if f.name not in dropped
            and (value := getattr(report, f.name)) is not None}


def _need_curve(job: JobSpec):
    """Require curve equations; exactly m-1 of them except in tjurina mode."""
    _need(job.curve is not None, "[curve] equations: required")
    m, r = job.ambient, job.curve.r
    _need(job.mode == "tjurina" or r == m - 1, f"[curve] equations: "
          f"{job.mode} needs a curve, {m - 1} equations in P^{m}, got {r}")


def _point_echo(point: PointOnChart) -> dict:
    return {"chart": point.chart, "coords": [str(c) for c in point.coords]}


def _echo_inputs(job: JobSpec) -> dict:
    echo: dict = {"mode": job.mode}
    if job.ambient is not None:
        echo["ambient"] = job.ambient
    if job.foliation is not None:
        echo["foliation"] = {
            "degree": job.foliation.d,
            "components": [str(a) for a in job.foliation.components],
        }
    elif job.foliation_degree is not None:
        echo["foliation"] = {"degree": job.foliation_degree}
    if job.multidegree is not None:
        curve = echo["curve"] = {}
        if job.curve is not None:
            curve["equations"] = [str(f) for f in job.curve.equations]
        curve["multidegree"] = list(job.multidegree)
        if job.milnor_order is not None:
            curve["order"] = [i + 1 for i in job.milnor_order]
    if job.points:
        echo["points"] = [_point_echo(p) for p in job.points]
    if job.parameters:
        echo["parameters"] = {k: v for k, v in sorted(job.parameters.items())}
    return echo


def _oracle_info(cases, redo, anomalies) -> dict:
    """The report's oracle entry.  ``cases`` holds (point, labelled ideals,
    staircase value) per point, and ``redo`` turns the Macaulay dimensions
    of all the ideals into the value to compare.  A disagreement, and an
    ideal the oracle cannot decide within MACAULAY_MAX_DEGREE, is an
    anomaly and makes the agreement false."""
    agreement, checked = True, 0
    for point, ideals, staircase in cases:
        where = f"chart {point.chart} point {[str(c) for c in point.coords]}"
        dims = {}
        for label, gens in ideals.items():
            try:
                dims[label] = quotient_dim_macaulay(gens)
            except InfiniteDimensionError:
                anomalies.append(
                    f"oracle undecided at {where}: the Macaulay corank of "
                    f"{_ideal_name(label)} did not stabilize by degree "
                    f"{MACAULAY_MAX_DEGREE}; staircase {staircase}")
        checked += len(dims)
        if len(dims) < len(ideals):
            agreement = False
            continue
        macaulay = redo(dims)
        if macaulay != staircase:
            agreement = False
            anomalies.append(f"oracle disagreement at {where}: staircase "
                             f"{staircase} vs Macaulay {macaulay}")
    return {"agreement": agreement, "dimensions_checked": checked}


def _field_dims(dims: dict) -> tuple:
    """(tau, dim_v, dim_vf) of one point's Macaulay dimensions, then mu
    when the chain steps (labels 1..r) are among them."""
    chain = {label: d for label, d in dims.items() if isinstance(label, int)}
    return (dims["tau"], dims["dim_v"], dims["dim_vf"],
            *((milnor_from_chain(chain),) if chain else ()))


def _run_total_or_local(job: JobSpec, oracle: bool):
    """local-gsv, total-gsv, schwartz and euler: the Milnor chain runs in
    the last two, and every mode but local-gsv reports the closed form."""
    _need(job.foliation is not None, "[foliation] components: required")
    _need_curve(job)
    _need(bool(job.points), "[points] point: at least one point is required")
    anomalies = []
    chain = job.mode in ("schwartz", "euler")
    if chain:
        report = total_indices_certified(job.foliation, job.curve, job.points,
                                         equation_order=job.milnor_order)
    else:
        report = total_gsv_certified(job.foliation, job.curve, job.points)
    results: dict = {
        "per_point": [r.gsv for r in report.per_point],
        "per_point_detail": [
            {"point": _point_echo(p), **_fields(r, "anomalies")}
            for p, r in zip(job.points, report.per_point)],
    }
    if job.mode != "local-gsv":
        results.update(_fields(report, "per_point", "germs"))
        if not report.consistent:
            anomalies.append(
                f"total index mismatch: closed form {report.closed_form} != "
                f"sum of local indices {report.local_sum} (a point of the "
                "singular set is missing or the input is degenerate)")
    for point, rep in zip(job.points, report.per_point):
        anomalies.extend(rep.anomalies)
    oracle_info = None
    if oracle:
        # tangency again, as an exact certificate that re-expands
        for germ in report.germs:
            invariance_certificate(*germ)
        oracle_info = _oracle_info(
            [(point, germ_ideals(*germ, chain=chain),
              (rep.tau, rep.dim_v, rep.dim_vf)
              + ((rep.milnor,) if chain else ()))
             for point, rep, germ in zip(job.points, report.per_point,
                                         report.germs)],
            _field_dims, anomalies)
    if job.mode == "euler":
        euler = euler_characteristic_curve(
            [rep.schwartz for rep in report.per_point])
        results["chi"] = euler.chi
        results["l"] = euler.l
        results["chi_at_least_l"] = euler.holds
        if not euler.holds:
            anomalies.append(
                f"Euler characteristic {euler.chi} below the singularity "
                f"count {euler.l}")
    return results, anomalies, oracle_info


def _run_germ_invariant(job: JobSpec, oracle: bool):
    tjurina = job.mode == "tjurina"
    _need_curve(job)
    _need(bool(job.points), "[points] point: at least one point is required")
    invariant = greuel_tjurina if tjurina else milnor_curve
    check_distinct_points(job.points)
    germs = [curve_germ_at(job.curve, point, job.milnor_order)
             for point in job.points]
    values = [invariant(germ) for germ in germs]
    results = {
        "per_point": values,
        "per_point_detail": [{"point": _point_echo(point), job.mode: value}
                             for point, value in zip(job.points, values)],
    }
    anomalies: list[str] = []
    oracle_info = None
    if oracle:
        oracle_info = _oracle_info(
            [(point, germ_ideals(germ, tau=tjurina, chain=not tjurina), value)
             for point, germ, value in zip(job.points, germs, values)],
            (lambda dims: dims["tau"]) if tjurina else milnor_from_chain,
            anomalies)
    return results, anomalies, oracle_info


def _run_bounds(job: JobSpec, oracle: bool):
    _need(job.ambient is not None, "[job] ambient: required")
    _need("r" in job.parameters, "[parameters] r: required")
    _need("tau" in job.parameters, "[parameters] tau: required")
    m, r, tau = job.ambient, job.parameters["r"], job.parameters["tau"]
    with _field("[parameters] r"):
        constants = nondegenerate_bound_constants(m, r)
    with _field("[parameters] tau"):
        lo, hi = constants.bounds(tau)
    results = {
        "lo": lo, "hi": hi,
        "eps_r": constants.eps_r, "alpha": constants.alpha,
        "beta_as_stated": constants.beta_as_stated,
        "rho_range_max": constants.rho_range_max,
    }
    # a later key wins, so r = m - 1 keeps row "1" at m = 3
    row = {1: "m-1", 2: "m-2", m - 2: "2", m - 1: "1"}.get(r)
    if row is not None:
        published = published_bound_table(m, row, tau)
        results["published_row"] = {
            "row": row, "lo": published[0], "hi": published[1],
            "matches_formula": published == (lo, hi),
        }
    if "rho" in job.parameters:
        with _field("[parameters] rho"):
            gsv, positive = constants.gsv_at_rho(tau, job.parameters["rho"])
        results["gsv_at_rho"] = gsv
        results["positive_at_rho"] = positive
    return results, [], None


def _run_poincare(job: JobSpec, oracle: bool):
    _need(job.ambient is not None, "[job] ambient: required")
    m = job.ambient
    ks, ks_field, d = _grid_inputs(job)
    anomalies = []
    with _field(ks_field):
        rep = poincare_degree_bound(m, ks, d)
    results = _fields(rep)
    if not rep.equivalence_ok:
        anomalies.append("degree-bound/index-sign equivalence failed")
    milnors = job.parameters.get("milnors")
    with _field("[parameters] milnors"):
        if milnors is not None:
            t4 = milnor_degree_bound(m, ks, d, milnors)
            results["milnor_bound"] = _fields(t4, "note")
            if not t4.holds:
                anomalies.append("Milnor-weighted degree bound failed")
        if m == 2:
            s9 = soares_plane_bound(ks[0], d, milnors or [])
            results["plane_bound"] = _fields(s9, "note")
            if s9.note:
                anomalies.append(s9.note)
    return results, anomalies, None


def _grid_inputs(job: JobSpec):
    """(multidegree, the field it came from, foliation degree) for the
    arithmetic-only modes, each value checked under its own field name."""
    if job.multidegree is not None:
        ks, ks_field = list(job.multidegree), "[curve] multidegree"
    elif "k" in job.parameters:
        ks, ks_field = [job.parameters["k"]], "[parameters] k"
    else:
        raise JobFileError("[curve] multidegree or [parameters] k: required")
    if job.foliation_degree is not None:
        d, d_field = job.foliation_degree, "[foliation] degree"
    elif "degree" in job.parameters:
        d, d_field = job.parameters["degree"], "[parameters] degree"
    else:
        raise JobFileError(
            "[foliation] degree or [parameters] degree: required")
    _need(all(k >= 1 for k in ks), f"{ks_field}: curve degrees must be positive")
    _need(d >= 0, f"{d_field}: foliation degree must be non-negative")
    return ks, ks_field, d


def _run_chern_check(job: JobSpec, oracle: bool):
    _need(job.ambient is not None, "[job] ambient: required")
    m = job.ambient
    _need(m <= CHERN_CHECK_MAX_AMBIENT, "[job] ambient: chern-check supports "
          f"ambient <= {CHERN_CHECK_MAX_AMBIENT}")
    ks, ks_field, d = _grid_inputs(job)
    r = len(ks)
    _need(1 <= r <= m - 1, f"{ks_field}: need 1 <= r <= m-1 entries")
    anomalies = []
    names = {f"a{t}": t for t in range(1, m + 1)}
    names.update({f"b{t}": t for t in range(1, m + 1)})
    ring = GradedRing(names, m)
    c_tx = ChernVector(ring, [ring.gen(f"a{t}") for t in range(1, m + 1)])
    c_n = ChernVector(ring, [ring.gen(f"b{t}") for t in range(1, m + 1)])
    triple = (chern_difference_recursion(c_tx, c_n)
              == chern_difference_expansion(c_tx, c_n)
              == chern_difference_inversion(c_tx, c_n))
    if not triple:
        anomalies.append("difference-class identities disagree symbolically")
    with _field(ks_field):
        integral = total_gsv_integral_projective(m, ks, d)
        closed = closed_form_gsv(m, ks, d)
    if integral != closed:
        anomalies.append(
            f"integral {integral} != combinatorial closed form {closed}")
    results = {
        "triple_agreement": triple,
        "integral": integral,
        "closed_form": closed,
        "equal": integral == closed,
    }
    return results, anomalies, None


# mode -> runner(job, oracle); a runner reads its variant from job.mode
_RUNNERS = {
    "local-gsv": _run_total_or_local,
    "total-gsv": _run_total_or_local,
    "bounds": _run_bounds,
    "poincare": _run_poincare,
    "chern-check": _run_chern_check,
    "tjurina": _run_germ_invariant,
    "milnor": _run_germ_invariant,
    "schwartz": _run_total_or_local,
    "euler": _run_total_or_local,
}
MODES = tuple(_RUNNERS)


def run_job(job: JobSpec, oracle: bool = False):
    """Dispatch a validated job; returns (report dict, exit code)."""
    start = time.perf_counter()
    results, anomalies, oracle_info = _RUNNERS[job.mode](job, oracle)
    report = {
        "mode": job.mode,
        "inputs": _echo_inputs(job),
        "results": results,
        "anomalies": anomalies,
        "timing": round(time.perf_counter() - start, 6),
    }
    if oracle_info is not None:
        report["oracle"] = oracle_info
    return report, (2 if anomalies else 0)


# ---------------------------------------------------------------------------
# serialization

def _fold_bigints(obj):
    # str(Decimal(n)) is exact and, unlike str(n), has no digit cap
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        if abs(obj) >= BIGINT_THRESHOLD:
            return {"_bigint": True, "value": str(Decimal(obj))}
        return obj
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if (isinstance(value, int) and not isinstance(value, bool)
                    and abs(value) >= BIGINT_THRESHOLD):
                out[key] = str(Decimal(value))
                out[key + "_bigint"] = True
            else:
                out[key] = _fold_bigints(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [_fold_bigints(v) for v in obj]
    return obj


def render_report(report: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, bigints folded to
    decimal strings with a sibling flag.  The timing value sits alone on
    its own line so golden comparisons can drop it.
    """
    return json.dumps(_fold_bigints(report), sort_keys=True, indent=2)


def _flatten(prefix: str, obj, lines: list):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}{key}.", obj[key], lines)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _flatten(f"{prefix}{i}.", value, lines)
    else:
        lines.append((prefix[:-1],
                      str(Decimal(obj)) if type(obj) is int else obj))


def render_table(report: dict) -> str:
    lines: list[tuple[str, object]] = []
    _flatten("", {"results": report["results"],
                  "anomalies": report["anomalies"]}, lines)
    if not lines:
        return ""
    width = max(len(k) for k, _ in lines)
    body = "\n".join(f"  {k.ljust(width)} : {v}" for k, v in lines)
    return f"gsvkit {report['mode']}\n{body}"


# ---------------------------------------------------------------------------
# entry point

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise JobFileError(message)


@functools.cache
def _argument_parser() -> _ArgumentParser:
    """The parser, built on the first call; parsing leaves it unchanged."""
    parser = _ArgumentParser(prog="gsvkit", description=__doc__)
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--job", required=True, help="path to the job file")
    parser.add_argument("--oracle", action="store_true",
                        help="recompute quotient dimensions with the "
                             "Macaulay-matrix oracle and assert agreement")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable table on stderr")
    return parser


def main(argv=None) -> int:
    try:
        args = _argument_parser().parse_args(argv)
    except JobFileError as exc:
        print(f"gsvkit: {exc}", file=sys.stderr)
        return 1
    try:
        # decoded once from bytes, so every offset is a file byte offset
        with open(args.job, "rb") as handle:
            text = handle.read().decode("utf-8")
    except OSError as exc:
        print(f"gsvkit: cannot read job file: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"gsvkit: cannot read job file: not valid UTF-8 at byte "
              f"offset {exc.start}", file=sys.stderr)
        return 1
    try:
        job = load_job(text)
        if job.mode != args.mode:
            raise JobFileError(
                f"[job] mode: file says {job.mode!r} but the command line "
                f"says {args.mode!r}")
        report, code = run_job(job, oracle=args.oracle)
    except GsvkitError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
        print(f"gsvkit: {exc}", file=sys.stderr)
        return 1
    print(render_report(report))
    if not args.quiet:
        table = render_table(report)
        if table:
            print(table, file=sys.stderr)
    return code


def cli_entry():
    sys.exit(main())
