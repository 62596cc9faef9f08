"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them inline; they also appear in captured output).  Tolerances are zero:
every comparison is exact integer or exact symbolic equality.
"""

import itertools
import json
import random
import re
from pathlib import Path

from gsvkit.cherncalc import (
    ChernVector,
    GradedRing,
    chern_difference_expansion,
    chern_difference_inversion,
    chern_difference_recursion,
    total_gsv_integral_projective,
)
from gsvkit.cli import main
from gsvkit.indices import (
    CurveGerm,
    VectorFieldGerm,
    gsv_bounds_nondegenerate,
    local_gsv_curve,
    published_bound_table,
)
from gsvkit.localring import (
    IdealGens,
    quotient_dim,
    quotient_dim_macaulay,
)
from gsvkit.poly import Polynomial, parse_polynomial
from gsvkit.projective import (
    PointOnChart,
    ProjectiveCI,
    ProjectiveFoliation,
    euler_characteristic_curve,
    projective_variables,
    total_gsv_certified,
    total_indices_certified,
)

REPO = Path(__file__).resolve().parent.parent
GOLDEN_JOB = REPO / "golden" / "total_gsv_worked_example.job"

X3 = ("x1", "x2", "x3")
Y3 = ("y1", "y2", "y3")
Z3 = projective_variables(3)


def P(text, variables=X3):
    return parse_polynomial(text, variables)


def announce(number, description, passed=True):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number:2d} {status}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def worked_example():
    fol = ProjectiveFoliation(3, 1, tuple(
        parse_polynomial(t, Z3) for t in ("z0", "7*z1", "3*z2", "4*z3")))
    ci = ProjectiveCI(3, (parse_polynomial("z0^2*z1 - z2^3", Z3),
                          parse_polynomial("z3^2 - z0*z1", Z3)), (3, 2))
    points = [PointOnChart(0, (0, 0, 0)), PointOnChart(1, (0, 0, 0))]
    return fol, ci, points


def test_criterion_01_golden_worked_example():
    fol, ci, points = worked_example()
    report = total_gsv_certified(fol, ci, points)
    ok = ([r.gsv for r in report.per_point] == [-1, -5]
          and report.local_sum == -6
          and report.closed_form == -6
          and report.consistent is True)
    announce(1, "golden example: local GSV (-1, -5), total -6, closed "
                "form -6, consistent", ok)


def _random_zero_dim_ideal(rng):
    m = rng.choice([1, 2, 3])
    variables = tuple(f"x{i}" for i in range(1, m + 1))
    generators = []
    for i in range(m):
        power = rng.randint(1, 3)
        exps = [0] * m
        exps[i] = power
        p = Polynomial(variables, {tuple(exps): rng.choice([1, 2, -3, 5])})
        for _ in range(rng.randint(0, 2)):
            tail = tuple(rng.randint(0, 3) for _ in range(m))
            if sum(tail) > power:
                p = p + Polynomial(variables, {tail: rng.randint(-4, 4)})
        generators.append(p)
    for _ in range(rng.randint(0, 2)):
        exps = tuple(rng.randint(0, 2) for _ in range(m))
        if sum(exps) >= 1:
            generators.append(Polynomial(variables, {exps: rng.randint(1, 5)}))
    return IdealGens(tuple(generators))


def test_criterion_02_quotient_dim_oracle_equivalence():
    dims = []
    for texts, variables in [
        (("-3*x2^2", "2*x3", "-6*x3*x2^2", "x1 - x2^3", "x3^2 - x1"), X3),
        (("6*x1", "2*x2", "3*x3", "x1 - x2^3", "x3^2 - x1"), X3),
        (("-3*y2^2", "4*y1*y3", "-6*y2^2*y3", "y1^2 - y2^3", "y3^2 - y1"), Y3),
        (("-6*y1", "-4*y2", "-3*y3", "y1^2 - y2^3", "y3^2 - y1"), Y3),
    ]:
        gens = IdealGens(tuple(P(t, variables) for t in texts))
        dims.append((quotient_dim(gens), quotient_dim_macaulay(gens)))
    four_ok = dims == [(2, 2), (1, 1), (6, 6), (1, 1)]

    rng = random.Random(424242)
    random_ok = True
    checked = 0
    while checked < 50:
        ideal = _random_zero_dim_ideal(rng)
        staircase = quotient_dim(ideal)
        assert staircase <= 30
        if quotient_dim_macaulay(ideal) != staircase:
            random_ok = False
            break
        checked += 1
    announce(2, "worked-example dims (2, 1, 6, 1) and 50 randomized "
                "zero-dimensional ideals: staircase == Macaulay oracle",
             four_ok and random_ok and checked == 50)


def test_criterion_03_difference_class_triple_agreement():
    rng = random.Random(31415)
    cases = 0
    ok = True
    while cases < 100:
        m = rng.randint(2, 8)
        names = {f"a{t}": t for t in range(1, m + 1)}
        names.update({f"b{t}": t for t in range(1, m + 1)})
        ring = GradedRing(names, m)

        def random_class(prefix, t):
            value = rng.randint(-4, 4) * ring.gen(f"{prefix}{t}")
            if t >= 2 and rng.random() < 0.4:
                s = rng.randint(1, t - 1)
                value = value + rng.randint(-2, 2) * (
                    ring.gen(f"{prefix}{s}") * ring.gen(f"{prefix}{t - s}"))
            return value

        c_tx = ChernVector(ring, [random_class("a", t)
                                  for t in range(1, rng.randint(1, m) + 1)])
        c_n = ChernVector(ring, [random_class("b", t)
                                 for t in range(1, rng.randint(1, m) + 1)])
        recs = chern_difference_recursion(c_tx, c_n)
        exps = chern_difference_expansion(c_tx, c_n)
        invs = chern_difference_inversion(c_tx, c_n)
        for t in range(m + 1):
            if not (recs[t] == exps[t] == invs[t]):
                ok = False
        cases += 1
    announce(3, "difference-class recursion == expansion == series "
                "inversion on 100 random abstract cases (m <= 8, all t)",
             ok and cases >= 100)


def test_criterion_04_integral_equals_closed_form_grid():
    from gsvkit.projective import closed_form_gsv
    ok = True
    for m in range(2, 7):
        for r in range(1, m):
            for ks in itertools.product(range(1, 5), repeat=r):
                for d in range(0, 6):
                    if total_gsv_integral_projective(m, ks, d) \
                            != closed_form_gsv(m, ks, d):
                        ok = False
    announce(4, "characteristic-class integral == combinatorial closed "
                "form on the full grid m in 2..6, k <= 4, d <= 5", ok)


def test_criterion_05_degree_bound_equivalence_grid():
    from gsvkit.projective import poincare_degree_bound
    counterexamples = 0
    for m in range(2, 7):
        for ks in itertools.product(range(1, 7), repeat=m - 1):
            for d in range(0, 7):
                if not poincare_degree_bound(m, ks, d).equivalence_ok:
                    counterexamples += 1
    announce(5, "(sum k <= d+m) <=> (total GSV >= 0) over the grid "
                "m in 2..6, k <= 6, d <= 6: zero counterexamples",
             counterexamples == 0)


def test_criterion_06_bounds_contain_and_table_rows():
    fol, ci, points = worked_example()
    report = total_gsv_certified(fol, ci, points)
    contained = True
    for point_report, chart in zip(report.per_point, (0, 1)):
        # nondegenerate linear part at both points: dim O/<v> = 1
        if point_report.dim_v != 1:
            contained = False
        lo, hi = gsv_bounds_nondegenerate(3, 2, point_report.tau)
        if not lo <= point_report.gsv <= hi:
            contained = False

    rows_ok = True
    anomaly_log = []
    for m in range(3, 9):
        for tau in (0, 1, 3, 7):
            if published_bound_table(m, "1", tau) \
                    != gsv_bounds_nondegenerate(m, m - 1, tau):
                rows_ok = False
            if published_bound_table(m, "2", tau) \
                    != gsv_bounds_nondegenerate(m, m - 2, tau):
                rows_ok = False
            if published_bound_table(m, "m-2", tau) \
                    != gsv_bounds_nondegenerate(m, 2, tau):
                rows_ok = False
            ours = gsv_bounds_nondegenerate(m, 1, tau)
            published = published_bound_table(m, "m-1", tau)
            if ours == published:
                rows_ok = False  # the discrepancy itself is asserted
            anomaly_log.append(
                f"published row m-1 at (m={m}, tau={tau}) gives {published}, "
                f"formula gives {ours}")
    assert anomaly_log
    print(f"[acceptance] criterion  6 anomaly log: "
          f"{len(anomaly_log)} divergent published-table entries recorded; "
          f"first: {anomaly_log[0]}")
    announce(6, "bound interval contains both worked-example indices; "
                "published table rows 1, 2, m-2 reproduced for m in 3..8; "
                "row m-1 divergence asserted and logged",
             contained and rows_ok)


def test_criterion_07_schwartz_and_quasihomogeneity():
    XY = ("x", "y")
    # independent plane-curve oracles for the two Milnor numbers
    plane_ok = True
    for text, expected in (("x^2 - y^3", 2), ("x^4 - y^3", 6)):
        f = parse_polynomial(text, XY)
        jac = IdealGens((f.partial_derivative(0), f.partial_derivative(1)))
        if quotient_dim(jac) != expected:
            plane_ok = False
        if quotient_dim_macaulay(jac) != expected:
            plane_ok = False

    fol, ci, points = worked_example()
    report = total_indices_certified(fol, ci, points, equation_order=(1, 0))
    values_ok = ([r.milnor for r in report.per_point] == [2, 6]
                 and [r.schwartz for r in report.per_point] == [1, 1]
                 and all(r.schwartz > 0 for r in report.per_point)
                 and all(r.quasihomogeneous for r in report.per_point))
    announce(7, "Schwartz index 1 at both points (mu = 2, 6 by the chain, "
                "cross-checked against plane oracles), Sch > 0, both germs "
                "quasi-homogeneous", plane_ok and values_ok)


def test_criterion_08_euler_characteristic():
    fol, ci, points = worked_example()
    report = total_indices_certified(fol, ci, points, equation_order=(1, 0))
    euler = euler_characteristic_curve(
        [r.schwartz for r in report.per_point])
    # independent adjunction oracle: smooth (3,2) curve in P^3 has
    # 2g - 2 = 6 (genus 4), chi_smooth = -6; adding mu = 2 + 6 gives 2
    prod_k, sum_k, m = 6, 5, 3
    chi_oracle = -(prod_k * (sum_k - m - 1)) \
        + sum(r.milnor for r in report.per_point)
    announce(8, "Euler characteristic 2 via Schwartz sum, equal to the "
                "adjunction oracle -6 + 8, and chi >= l (2 >= 2)",
             euler.chi == 2 and chi_oracle == 2
             and euler.holds and euler.l == 2)


def test_criterion_09_local_ring_discipline():
    X1 = ("x",)
    dim = quotient_dim(IdealGens((parse_polynomial("x - x^2", X1),)))
    announce(9, "dim O_{1,0}/<x - x^2> = 1 (local order and Mora division; "
                "a global Groebner computation would return 2)", dim == 1)


def _int_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _int_det(minor)
    return total


def test_criterion_10_nondegenerate_curve_identity():
    rng = random.Random(1001)
    ok = True
    for _ in range(25):
        m = rng.choice([2, 3, 4])
        variables = tuple(f"x{i}" for i in range(1, m + 1))
        equations = tuple(Polynomial.variable(variables, i)
                          for i in range(m - 1))
        while True:
            block = [[rng.randint(-3, 3) for _ in range(m - 1)]
                     for _ in range(m - 1)]
            if _int_det(block):
                break
        components = []
        for row in block:
            p = Polynomial.zero(variables)
            for j, c in enumerate(row):
                p = p + c * Polynomial.variable(variables, j)
            if rng.random() < 0.6:
                j = rng.randrange(m - 1)
                noise = Polynomial.variable(variables, j) \
                    * Polynomial.variable(variables, rng.randrange(m))
                p = p + rng.randint(-2, 2) * noise
            components.append(p)
        last = rng.choice([-2, -1, 1, 2]) * Polynomial.variable(variables,
                                                                m - 1)
        for j in range(m - 1):
            last = last + rng.randint(-2, 2) * Polynomial.variable(variables, j)
        components.append(last)
        report = local_gsv_curve(CurveGerm(equations),
                                 VectorFieldGerm(tuple(components)))
        if report.gsv != 1 - report.tau:
            ok = False
    announce(10, "25 randomized nondegenerate fields along coordinate-axis "
                 "curves: GSV = 1 - tau exactly", ok)


TIMING = re.compile(r'"timing": [0-9.e+-]+')


def test_criterion_11_cli_determinism(capsys):
    code1 = main(["total-gsv", "--job", str(GOLDEN_JOB), "--quiet"])
    out1 = capsys.readouterr().out
    code2 = main(["total-gsv", "--job", str(GOLDEN_JOB), "--quiet"])
    out2 = capsys.readouterr().out
    identical = TIMING.sub('"timing": 0.0', out1) \
        == TIMING.sub('"timing": 0.0', out2)
    code3 = main(["total-gsv", "--job", str(GOLDEN_JOB), "--oracle",
                  "--quiet"])
    out3 = capsys.readouterr().out
    oracle_report = json.loads(out3)
    oracle_ok = (code3 == 0
                 and oracle_report["oracle"]["agreement"] is True)
    with capsys.disabled():
        announce(11, "CLI: byte-identical JSON across two golden runs "
                     "(timing excluded); --oracle agrees and exits 0",
                 code1 == 0 and code2 == 0 and identical and oracle_ok)
