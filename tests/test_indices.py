"""Singularity invariants, local indices and the nondegenerate bounds."""

import random
import time
from dataclasses import FrozenInstanceError
from math import comb

import pytest

from gsvkit.errors import (
    InfiniteDimensionError,
    InternalCheckError,
    IterationLimitError,
    NotInvariantError,
)
from gsvkit import indices, localring
from gsvkit.indices import (
    CurveGerm,
    LocalIndexReport,
    VectorFieldGerm,
    directional_derivative,
    germ_ideals,
    greuel_tjurina,
    gsv_bounds_nondegenerate,
    gsv_from_rho,
    ideal_dimensions,
    invariance_certificate,
    local_gsv_curve,
    local_indices,
    milnor_curve,
    milnor_from_chain,
    published_bound_table,
    nondegenerate_bound_constants,
)
from gsvkit.localring import IdealGens, quotient_dim, quotient_dim_macaulay
from gsvkit.poly import Polynomial, parse_polynomial

X3 = ("x1", "x2", "x3")
Y3 = ("y1", "y2", "y3")
XY = ("x", "y")


def P(text, variables=X3):
    return parse_polynomial(text, variables)


def germ(*texts, variables=X3):
    return CurveGerm(tuple(P(t, variables) for t in texts))


def field(*texts, variables=X3):
    return VectorFieldGerm(tuple(P(t, variables) for t in texts))


CUSP_GERM = ("x1 - x2^3", "x3^2 - x1")
CUSP_FIELD = ("6*x1", "2*x2", "3*x3")
CHART1_GERM_CHAIN_ORDER = ("y3^2 - y1", "y1^2 - y2^3")
CHART1_FIELD = ("-6*y1", "-4*y2", "-3*y3")


# ---------------------------------------------------------------------------
# Greuel/Tjurina number

def test_tau_chart0():
    assert greuel_tjurina(germ(*CUSP_GERM)) == 2


def test_tau_chart1():
    assert greuel_tjurina(germ("y1^2 - y2^3", "y3^2 - y1",
                               variables=Y3)) == 6


def test_tau_smooth_germ():
    assert greuel_tjurina(germ("x1", "x2")) == 0


def test_tau_nonisolated_raises():
    with pytest.raises(InfiniteDimensionError):
        greuel_tjurina(germ("x1^2", "x2^2"))


# ---------------------------------------------------------------------------
# invariance certificates

def test_certificate_diagonal():
    h = invariance_certificate(germ(*CUSP_GERM), field(*CUSP_FIELD))
    assert h.rows[0].unit == P("1")
    assert h.rows[0].cofactors == (P("6"), P("0"))
    assert h.rows[1].unit == P("1")
    assert h.rows[1].cofactors == (P("0"), P("6"))


def test_certificate_radial_on_axis():
    h = invariance_certificate(germ("x2", "x3"), field("x1", "x2", "x3"))
    assert h.rows[0].cofactors == (P("1"), P("0"))
    assert h.rows[1].cofactors == (P("0"), P("1"))


def test_certificate_not_invariant():
    X2 = ("x1", "x2")
    with pytest.raises(NotInvariantError) as exc:
        invariance_certificate(
            CurveGerm((P("x2", X2),)),
            VectorFieldGerm((P("0", X2), P("x2 + x1^2", X2))))
    assert exc.value.row == 0


def test_directional_derivative():
    got = directional_derivative(P("x1 - x2^3"), field(*CUSP_FIELD))
    assert got == P("6*x1 - 6*x2^3")


# ---------------------------------------------------------------------------
# local GSV

def test_gsv_chart0():
    report = local_gsv_curve(germ(*CUSP_GERM), field(*CUSP_FIELD))
    assert (report.tau, report.dim_vf, report.gsv) == (2, 1, -1)


def test_gsv_chart1():
    report = local_gsv_curve(
        germ("y1^2 - y2^3", "y3^2 - y1", variables=Y3),
        field(*CHART1_FIELD, variables=Y3))
    assert (report.tau, report.dim_vf, report.gsv) == (6, 1, -5)


def test_gsv_rejects_a_field_on_other_variables():
    with pytest.raises(ValueError,
                       match="^germ and field use different variable lists$"):
        local_gsv_curve(germ(*CUSP_GERM),
                        field(*CHART1_FIELD, variables=Y3))


def test_gsv_smooth_radial():
    report = local_gsv_curve(germ("x2", "x3"), field("x1", "x2", "x3"))
    assert report.gsv == 1
    assert report.tau == 0


def test_gsv_requires_invariance():
    with pytest.raises(NotInvariantError):
        local_gsv_curve(germ("x2", "x3"), field("x1", "x1", "x3"))


def test_gsv_requires_curve_codimension():
    with pytest.raises(ValueError):
        local_gsv_curve(germ("x1"), field("x1", "x2", "x3"))


# ---------------------------------------------------------------------------
# Milnor numbers via the chain

def test_milnor_chart0():
    assert milnor_curve(germ(*CUSP_GERM)) == 2


def test_milnor_chart1_needs_generator_order():
    # natural order fails at step 1 (the first equation alone is not an
    # isolated hypersurface germ); the error names the step
    with pytest.raises(InfiniteDimensionError) as exc:
        milnor_curve(germ("y1^2 - y2^3", "y3^2 - y1", variables=Y3))
    assert exc.value.step == 1
    # the permuted order goes through
    assert milnor_curve(germ(*CHART1_GERM_CHAIN_ORDER, variables=Y3)) == 6


def test_milnor_smooth():
    assert milnor_curve(germ("x2", "x3")) == 0


def test_milnor_plane_curve_oracle_cusps():
    # independent plane oracle: mu(x^p - y^q) = (p-1)(q-1), recovered here
    # through the Jacobian-ideal dimension in two variables
    for p, q in [(2, 3), (4, 3), (2, 5)]:
        f = parse_polynomial(f"x^{p} - y^{q}", XY)
        jac = IdealGens((f.partial_derivative(0), f.partial_derivative(1)))
        assert quotient_dim(jac) == (p - 1) * (q - 1)
        assert quotient_dim_macaulay(jac) == (p - 1) * (q - 1)
        assert milnor_curve(CurveGerm((f,))) == (p - 1) * (q - 1)


# ---------------------------------------------------------------------------
# the labelled ideal catalogue

def test_germ_ideals_labels_in_order():
    g, v = germ(*CUSP_GERM), field(*CUSP_FIELD)
    assert list(germ_ideals(g)) == ["tau"]
    assert list(germ_ideals(g, v)) == ["tau", "dim_v", "dim_vf"]
    assert list(germ_ideals(g, v, tau=False, chain=True)) == [
        "dim_v", "dim_vf", 1, 2]


def test_staircase_and_macaulay_agree_on_catalogue():
    g, v = germ(*CUSP_GERM), field(*CUSP_FIELD)
    ideals = germ_ideals(g, v, chain=True)
    staircase = ideal_dimensions(ideals)
    assert staircase == {label: quotient_dim_macaulay(gens)
                         for label, gens in ideals.items()}
    assert staircase["tau"] == greuel_tjurina(g) == 2
    assert milnor_from_chain(
        {k: d for k, d in staircase.items() if isinstance(k, int)}) == 2


def test_ideal_dimensions_names_chain_step():
    g = germ("y1^2 - y2^3", "y3^2 - y1", variables=Y3)
    with pytest.raises(InfiniteDimensionError) as exc:
        ideal_dimensions(germ_ideals(g, tau=False, chain=True))
    assert exc.value.step == 1
    assert "chain step 1" in str(exc.value)


def test_ideal_dimensions_names_tau_and_dim_v():
    with pytest.raises(InfiniteDimensionError) as exc:
        greuel_tjurina(CurveGerm((parse_polynomial("y^2", XY),)))
    assert exc.value.step is None
    assert str(exc.value) == ("the singularity is not isolated: <f, minors> "
                              "is not zero-dimensional")
    line = CurveGerm((parse_polynomial("y", XY),))
    v = VectorFieldGerm((parse_polynomial("y", XY),
                         parse_polynomial("x*y", XY)))
    with pytest.raises(InfiniteDimensionError) as exc:
        local_gsv_curve(line, v)
    assert str(exc.value) == ("the vector field does not have an isolated "
                              "zero: <v> is not zero-dimensional")


def test_ideal_dimensions_names_ideal_on_spent_budget(monkeypatch):
    # the Tjurina ideal of x^4 + y^5 + x^2*y^3 needs a Mora reduction
    monkeypatch.setattr(localring, "DEFAULT_STEP_LIMIT", 0)
    f = parse_polynomial("x^4 + y^5 + x^2*y^3", XY)
    with pytest.raises(IterationLimitError, match=r"^tau: .*budget"):
        greuel_tjurina(CurveGerm((f,)))


def test_local_gsv_names_tangency_on_spent_budget(monkeypatch):
    # the completion of <x1 - x2^3, x3^2 - x1> needs a Mora reduction
    monkeypatch.setattr(localring, "DEFAULT_STEP_LIMIT", 0)
    with pytest.raises(IterationLimitError, match=r"^tangency: .*budget"):
        local_gsv_curve(germ(*CUSP_GERM), field(*CUSP_FIELD))


def test_zero_field_named():
    g = germ(*CUSP_GERM)
    with pytest.raises(InfiniteDimensionError, match="identically zero"):
        local_gsv_curve(g, field("0", "0", "0"))


def _count_tjurina(monkeypatch):
    calls = []
    original = indices.greuel_tjurina

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(indices, "greuel_tjurina", counting)
    return calls


def test_local_indices_computes_tau_once(monkeypatch):
    calls = _count_tjurina(monkeypatch)
    report = local_indices(germ(*CUSP_GERM), field(*CUSP_FIELD))
    assert (report.tau, report.milnor) == (2, 2)
    assert len(calls) == 1


def test_milnor_curve_computes_tau_once(monkeypatch):
    calls = _count_tjurina(monkeypatch)
    f = parse_polynomial("x^4 + y^5 + x^2*y^3", XY)
    assert milnor_curve(CurveGerm((f,))) == 12
    assert len(calls) == 1


def test_local_indices_shares_the_maximal_minors(monkeypatch):
    # tau and chain step r take the maximal minors from the germ; only
    # chain step 1 computes its own
    calls = []
    original = indices.jacobian_minors

    def counting(polys):
        calls.append(polys)
        return original(polys)

    monkeypatch.setattr(indices, "jacobian_minors", counting)
    g = germ(*CUSP_GERM)
    report = local_indices(g, field(*CUSP_FIELD))
    assert (report.tau, report.milnor) == (2, 2)
    assert len(calls) == 2
    germ_ideals(g, tau=True, chain=True)
    assert len(calls) == 3


def test_report_is_checked_when_built_and_frozen():
    with pytest.raises(InternalCheckError, match="gsv"):
        LocalIndexReport(tau=2, dim_vf=1, dim_v=1, gsv=0)
    with pytest.raises(InternalCheckError, match="schwartz"):
        LocalIndexReport(tau=2, dim_vf=1, dim_v=1, gsv=-1, milnor=2,
                         schwartz=2, quasihomogeneous=True)
    with pytest.raises(InternalCheckError, match="milnor < tau"):
        LocalIndexReport(tau=2, dim_vf=1, dim_v=1, gsv=-1, milnor=1,
                         schwartz=0, quasihomogeneous=False)
    report = LocalIndexReport(tau=2, dim_vf=1, dim_v=1, gsv=-1)
    with pytest.raises(FrozenInstanceError):
        report.gsv = 0


def test_local_gsv_builds_no_tracked_basis(monkeypatch):
    # tangency is decided on bare rows: the per-point path completes only
    # rows of width 1 and builds no certificate
    line = germ("x2", "x3")
    skew = field("x1", "x2", "x1 + x3")
    with pytest.raises(NotInvariantError) as certified:
        invariance_certificate(line, skew)

    def refuse(*args, **kwargs):
        raise AssertionError("the per-point path must not build a certificate")

    for module in (localring, indices):
        monkeypatch.setattr(module, "membership_with_cofactors", refuse)
    widths = []
    original = localring._complete

    def spy(rows, nvars, truncate=False):
        widths.extend(len(row) for row in rows)
        return original(rows, nvars, truncate)

    monkeypatch.setattr(localring, "_complete", spy)
    g, v = germ(*CUSP_GERM), field(*CUSP_FIELD)
    assert local_gsv_curve(g, v).tau == 2
    assert local_indices(g, v).milnor == 2
    with pytest.raises(NotInvariantError) as bare:
        local_gsv_curve(line, skew)
    assert bare.value.row == certified.value.row == 1
    assert widths and set(widths) == {1}


# ---------------------------------------------------------------------------
# Schwartz index and quasi-homogeneity

WORKED_EXAMPLE_POINTS = [
    (germ(*CUSP_GERM), field(*CUSP_FIELD)),
    (germ(*CHART1_GERM_CHAIN_ORDER, variables=Y3),
     field(*CHART1_FIELD, variables=Y3)),
]
SMOOTH_RADIAL = (germ("x2", "x3"), field("x1", "x2", "x3"))


def test_schwartz_worked_example_points():
    for g, v in WORKED_EXAMPLE_POINTS:
        assert local_indices(g, v).schwartz == 1


def test_schwartz_smooth_radial():
    assert local_indices(*SMOOTH_RADIAL).schwartz == 1


def test_quasihomogeneous_worked_example():
    for g, v in WORKED_EXAMPLE_POINTS + [SMOOTH_RADIAL]:
        assert local_indices(g, v).quasihomogeneous


def test_non_quasihomogeneous_plane_germ():
    # x^4 + y^5 + x^2*y^3 has mu = 12 and tau = 11 (verified against the
    # Macaulay oracle); its Hamiltonian field is always tangent
    f = parse_polynomial("x^4 + y^5 + x^2*y^3", XY)
    plane_germ = CurveGerm((f,))
    assert milnor_curve(plane_germ) == 12
    assert greuel_tjurina(plane_germ) == 11
    hamiltonian = VectorFieldGerm((-f.partial_derivative(1),
                                   f.partial_derivative(0)))
    report = local_indices(plane_germ, hamiltonian)
    assert report.gsv == 0
    assert report.schwartz == 12
    assert report.schwartz >= 2
    assert not report.quasihomogeneous
    assert not report.anomalies


# f = x^5 + y^7 + x^2*y^5 - 1/2*x^2*y^6 - x^4*y^6 is Newton-nondegenerate
# with Kouchnirenko number mu = 24; the field is the Hamiltonian field plus
# multiples of f.  Without the highest-corner truncation the Mora rows of
# its dim_v ideal grow to degree 45 and run for minutes.
SLOW_PLANE_GERM = "-x^4*y^6 - 1/2*x^2*y^6 + x^2*y^5 + y^7 + x^5"
SLOW_PLANE_FIELD = (
    "2*x^4*y^6 - 6*x^4*y^5 + x^2*y^6 - 5*x^2*y^5 - 2*y^7 + 5*x^2*y^4"
    " + 7*y^6 - 2*x^5",
    "-x^4*y^6 + 4*x^3*y^6 - 1/2*x^2*y^6 + x^2*y^5 + x*y^6 + y^7"
    " - 2*x*y^5 + x^5 - 5*x^4",
)


def test_slow_plane_germ_decides_quickly():
    start = time.perf_counter()
    report = local_indices(germ(SLOW_PLANE_GERM, variables=XY),
                           field(*SLOW_PLANE_FIELD, variables=XY))
    elapsed = time.perf_counter() - start
    assert (report.gsv, report.milnor, report.tau) == (0, 24, 22)
    assert report.schwartz == 24
    assert not report.anomalies
    assert elapsed < 1.0


def test_full_report_invariants():
    report = local_indices(germ(*CUSP_GERM), field(*CUSP_FIELD))
    assert report.gsv == -report.tau + report.dim_vf
    assert report.schwartz == report.gsv + report.milnor
    assert report.milnor >= report.tau
    assert report.schwartz > 0
    assert not report.anomalies


# ---------------------------------------------------------------------------
# bound constants

def test_constants_curve_row():
    c = nondegenerate_bound_constants(3, 2)
    assert (c.eps_r, c.alpha, c.binom) == (0, 1, 1)


def test_constants_surface_row_even():
    c = nondegenerate_bound_constants(6, 2)
    assert (c.eps_r, c.alpha, c.binom) == (2, -2, 4)


def test_constants_dimension_two_row():
    c = nondegenerate_bound_constants(5, 3)
    assert c.eps_r == 1
    assert c.alpha == -2


def test_constants_range_validation():
    with pytest.raises(ValueError):
        nondegenerate_bound_constants(3, 3)
    with pytest.raises(ValueError):
        nondegenerate_bound_constants(1, 1)


def test_constants_match_direct_sums():
    for m in range(2, 16):
        for r in range(1, m):
            c = nondegenerate_bound_constants(m, r)
            terms = [(-1) ** j * comb(r - 1 + j, j) for j in range(m - r)]
            assert c.eps_r == sum(terms[:-1]), (m, r)
            assert c.alpha == sum(terms), (m, r)
            assert c.binom == c.rho_range_max == comb(m - 2, m - r - 1)
            assert c.beta_as_stated == (
                c.alpha + (-1) ** (m - r - 1) * c.binom)


def test_beta_as_stated_differs_from_proved_endpoint():
    # the published closed form for the second constant carries the
    # opposite sign of the proved endpoint whenever the rho range is
    # nontrivial
    for m, r in [(3, 2), (4, 2), (6, 2), (5, 3)]:
        c = nondegenerate_bound_constants(m, r)
        assert c.beta_as_stated == c.alpha + (-1) ** (m - r - 1) * c.binom
        if c.binom:
            assert c.beta_as_stated != c.eps_r


# ---------------------------------------------------------------------------
# bounds and the rho closed form

def test_bounds_contain_worked_example_points():
    assert gsv_bounds_nondegenerate(3, 2, 2) == (-2, -1)
    assert gsv_bounds_nondegenerate(3, 2, 6) == (-6, -5)
    # the computed indices -1 and -5 sit at the upper ends
    assert -2 <= -1 <= -1
    assert -6 <= -5 <= -5


def test_bounds_width_is_rho_range():
    for m, r in [(3, 2), (4, 2), (5, 2), (5, 3), (6, 4)]:
        lo, hi = gsv_bounds_nondegenerate(m, r, 0)
        assert hi - lo == nondegenerate_bound_constants(m, r).binom


def test_rho_closed_form_worked_example():
    # dim O/<v, f> = 1 at the first point pins rho = 1 there, and the
    # formula returns the observed index -1 at the interval's upper end
    gsv, positive = gsv_from_rho(3, 2, 2, 1)
    assert gsv == -1
    assert not positive
    gsv, _ = gsv_from_rho(3, 2, 6, 1)
    assert gsv == -5


def test_rho_even_parity_trivial():
    for m, r in [(4, 2), (6, 2), (5, 1)]:
        c = nondegenerate_bound_constants(m, r)
        assert (m - r) % 2 == 0
        gsv, _ = gsv_from_rho(m, r, 0, 0)
        assert gsv == c.eps_r


def test_rho_even_parity_substitution():
    gsv, positive = gsv_from_rho(4, 2, 3, 2)
    assert gsv == 1 + 3 - 2 == 2
    assert positive == (3 + 1 > 2)


def test_rho_out_of_range():
    with pytest.raises(ValueError):
        gsv_from_rho(3, 2, 2, 2)


def test_rho_endpoints_match_bounds_parity_order():
    for m in range(3, 9):
        for r in range(1, m):
            lo, hi = gsv_bounds_nondegenerate(m, r, 3)
            c = nondegenerate_bound_constants(m, r)
            at_zero, _ = gsv_from_rho(m, r, 3, 0)
            at_max, _ = gsv_from_rho(m, r, 3, c.rho_range_max)
            if (m - r) % 2 == 0:
                assert (at_zero, at_max) == (hi, lo)
            else:
                assert (at_zero, at_max) == (lo, hi)


# ---------------------------------------------------------------------------
# the published bound table

def test_table_rows_match_formula():
    for m in range(3, 9):
        for tau in (0, 1, 2, 5):
            # row "1": curves, r = m-1
            assert published_bound_table(m, "1", tau) \
                == gsv_bounds_nondegenerate(m, m - 1, tau)
            # row "2": surfaces, r = m-2
            assert published_bound_table(m, "2", tau) \
                == gsv_bounds_nondegenerate(m, m - 2, tau)
            # row "m-2": codimension 2
            assert published_bound_table(m, "m-2", tau) \
                == gsv_bounds_nondegenerate(m, 2, tau)


def test_table_row_top_dimension_diverges():
    # the published row for dim V = m-1 contradicts the proved bounds;
    # the formula values are the authoritative ones
    for m in range(3, 9):
        for tau in (0, 2):
            published = published_bound_table(m, "m-1", tau)
            proved = gsv_bounds_nondegenerate(m, 1, tau)
            assert published != proved


# ---------------------------------------------------------------------------
# randomized nondegenerate identity

def test_nondegenerate_axis_curves_gsv_is_one_minus_tau():
    rng = random.Random(77)
    for _ in range(12):
        m = rng.choice([2, 3, 4])
        variables = tuple(f"x{i}" for i in range(1, m + 1))
        # curve = the x_m axis: equations x_1, ..., x_{m-1}
        equations = tuple(Polynomial.variable(variables, i)
                          for i in range(m - 1))
        # invertible block C for rows 1..m-1 (columns 1..m-1 only), any
        # nonzero coefficient for x_m in the last row
        while True:
            block = [[rng.randint(-3, 3) for _ in range(m - 1)]
                     for _ in range(m - 1)]
            det = _det_int(block)
            if det:
                break
        components = []
        for row in block:
            p = Polynomial.zero(variables)
            for j, c in enumerate(row):
                p = p + c * Polynomial.variable(variables, j)
            if rng.random() < 0.5 and m >= 2:
                # quadratic noise inside the curve ideal keeps invariance
                j = rng.randrange(m - 1)
                noise = Polynomial.variable(variables, j) \
                    * Polynomial.variable(variables, rng.randrange(m))
                p = p + rng.randint(-2, 2) * noise
            components.append(p)
        last = rng.choice([-2, -1, 1, 2]) * Polynomial.variable(variables, m - 1)
        for j in range(m - 1):
            last = last + rng.randint(-2, 2) * Polynomial.variable(variables, j)
        components.append(last)
        curve = CurveGerm(equations)
        report = local_gsv_curve(curve, VectorFieldGerm(tuple(components)))
        tau = report.tau
        assert tau == 0
        assert report.gsv == 1 - tau
        assert report.dim_v == 1
        lo, hi = gsv_bounds_nondegenerate(m, m - 1, tau)
        assert lo <= report.gsv <= hi


def _det_int(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_int(minor)
    return total
