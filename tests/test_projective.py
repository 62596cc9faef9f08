"""Charts, closed forms, degree-bound checkers and certified totals."""

import itertools
from fractions import Fraction

import pytest

from gsvkit.errors import (
    DuplicatePointError,
    GsvkitError,
    PointNotOnCurveError,
)
from gsvkit.poly import parse_polynomial
from gsvkit.projective import (
    PointOnChart,
    ProjectiveCI,
    ProjectiveFoliation,
    affine_variables,
    closed_form_gsv,
    curve_germ_at,
    dehomogenize_ci,
    dehomogenize_foliation,
    euler_characteristic_curve,
    germ_at_point,
    poincare_degree_bound,
    projective_variables,
    soares_plane_bound,
    milnor_degree_bound,
    total_gsv_certified,
    total_indices_certified,
)
from gsvkit.indices import local_gsv_curve

Z3 = projective_variables(3)
Z2 = projective_variables(2)
A3 = affine_variables(3)
A2 = affine_variables(2)


def PZ(text, variables=Z3):
    return parse_polynomial(text, variables)


def PA(text, variables=A3):
    return parse_polynomial(text, variables)


def worked_example():
    fol = ProjectiveFoliation(
        3, 1, (PZ("z0"), PZ("7*z1"), PZ("3*z2"), PZ("4*z3")))
    ci = ProjectiveCI(
        3, (PZ("z0^2*z1 - z2^3"), PZ("z3^2 - z0*z1")), (3, 2))
    return fol, ci


# ---------------------------------------------------------------------------
# dehomogenization

def test_dehomogenize_foliation_chart0():
    fol, _ = worked_example()
    field = dehomogenize_foliation(fol, 0)
    assert [str(c) for c in field.components] == ["6*x1", "2*x2", "3*x3"]


def test_dehomogenize_foliation_chart1():
    fol, _ = worked_example()
    field = dehomogenize_foliation(fol, 1)
    assert [str(c) for c in field.components] == ["-6*x1", "-4*x2", "-3*x3"]


def test_dehomogenize_foliation_rejects_a_chart_out_of_range():
    fol, _ = worked_example()
    # a negative chart must not pick a component from the end
    for chart in (-1, 4):
        with pytest.raises(ValueError, match=r"^chart must lie in 0\.\.3$"):
            dehomogenize_foliation(fol, chart)


def test_dehomogenize_radial_field_vanishes():
    radial = ProjectiveFoliation(
        3, 1, (PZ("z0"), PZ("z1"), PZ("z2"), PZ("z3")))
    for chart in range(4):
        field = dehomogenize_foliation(radial, chart)
        assert all(c.is_zero() for c in field.components)


def test_dehomogenize_ci_charts():
    _, ci = worked_example()
    assert dehomogenize_ci(ci, 0) == (PA("x1 - x2^3"), PA("x3^2 - x1"))
    assert dehomogenize_ci(ci, 1) == (PA("x1^2 - x2^3"), PA("x3^2 - x1"))


def test_dehomogenize_linear_ci():
    ci = ProjectiveCI(3, (PZ("z1"), PZ("z2")), (1, 1))
    assert dehomogenize_ci(ci, 0) == (PA("x1"), PA("x2"))


def test_foliation_validation():
    with pytest.raises(ValueError):
        ProjectiveFoliation(3, 1, (PZ("z0^2"), PZ("z1"), PZ("z2"), PZ("z3")))
    with pytest.raises(ValueError):
        ProjectiveFoliation(3, 1, (PZ("0"), PZ("0"), PZ("0"), PZ("0")))


def test_ci_validation():
    with pytest.raises(ValueError):
        ProjectiveCI(3, (PZ("z0^2*z1 - z2^3"),), (2,))  # degree mismatch
    with pytest.raises(ValueError):
        ProjectiveCI(3, (PZ("z0 + z1^2"),), (1,))  # not homogeneous


# ---------------------------------------------------------------------------
# closed form and the degree bound

def test_closed_form_worked_example():
    assert closed_form_gsv(3, (3, 2), 1) == -6


def test_closed_form_curve_threshold():
    for m in (2, 3, 4):
        for d in (0, 1, 2):
            ks = [1] * (m - 2) + [d + m - (m - 2)]
            assert sum(ks) == d + m
            assert closed_form_gsv(m, ks, d) == 0


def test_closed_form_matches_integral():
    from gsvkit.cherncalc import total_gsv_integral_projective
    assert closed_form_gsv(4, (2, 1, 1), 3) \
        == total_gsv_integral_projective(4, (2, 1, 1), 3)


def test_closed_form_curve_reduction_identity():
    # for r = m-1 the closed form is prod(k) * (d + m - sum(k))
    for m in (2, 3, 4, 5):
        for ks in itertools.product((1, 2, 3), repeat=m - 1):
            for d in (0, 1, 2, 3):
                prod = 1
                for k in ks:
                    prod *= k
                assert closed_form_gsv(m, ks, d) \
                    == prod * (d + m - sum(ks))


def test_poincare_worked_example():
    report = poincare_degree_bound(3, (3, 2), 1)
    assert report.gsv == -6
    assert not report.inequality_holds
    assert not report.gsv_nonnegative
    assert report.equivalence_ok


def test_poincare_invariant_line():
    for d in range(5):
        report = poincare_degree_bound(2, (1,), d)
        assert report.inequality_holds
        assert report.gsv == d + 1
        assert report.equivalence_ok


def test_poincare_equivalence_grid():
    for m in (2, 3, 4):
        for ks in itertools.product(range(1, 7), repeat=m - 1):
            for d in range(0, 7):
                assert poincare_degree_bound(m, ks, d).equivalence_ok


# ---------------------------------------------------------------------------
# Milnor-weighted inequalities

def test_milnor_degree_bound_worked_example_equality():
    report = milnor_degree_bound(3, (3, 2), 1, (2, 6))
    assert report.lhs == 6
    assert report.rhs == 6
    assert report.holds


def test_milnor_degree_bound_smooth_reduces_to_degree_bound():
    for m in (2, 3, 4):
        for ks in itertools.product((1, 2, 3), repeat=m - 1):
            for d in (0, 1, 2, 3):
                if sum(ks) <= d + m:
                    assert milnor_degree_bound(m, ks, d, ()).holds


def test_milnor_degree_bound_rejects_bad_milnor():
    with pytest.raises(ValueError):
        milnor_degree_bound(3, (3, 2), 1, (0,))


def test_milnor_degree_bound_plane_case_is_soares():
    for k in range(1, 6):
        for d in range(0, 5):
            for mus in ((), (2,), (2, 6)):
                a = milnor_degree_bound(2, (k,), d, mus)
                b = soares_plane_bound(k, d, mus)
                assert (a.lhs, a.rhs, a.holds) == (b.lhs, b.rhs, b.holds)


def test_soares_examples():
    assert soares_plane_bound(3, 2, (2,)).holds
    assert soares_plane_bound(1, 0, ()).holds
    failing = soares_plane_bound(3, 0, ())
    assert not failing.holds
    assert failing.note is not None  # inconsistent-with-invariance flag


# ---------------------------------------------------------------------------
# certified totals

def test_curve_germ_at_checks_chart_then_coordinates():
    _, ci = worked_example()
    with pytest.raises(ValueError, match=r"^chart must lie in 0\.\.3$"):
        curve_germ_at(ci, PointOnChart(4, (0, 0, 0)))
    with pytest.raises(ValueError, match=r"^need 3 affine coordinates$"):
        curve_germ_at(ci, PointOnChart(0, (0, 0)))
    # with both faults the chart is reported first
    with pytest.raises(ValueError, match=r"^chart must lie in 0\.\.3$"):
        curve_germ_at(ci, PointOnChart(4, (0, 0)))


def worked_points():
    return [PointOnChart(0, (0, 0, 0)), PointOnChart(1, (0, 0, 0))]


def test_total_gsv_worked_example():
    fol, ci = worked_example()
    report = total_gsv_certified(fol, ci, worked_points())
    assert report.closed_form == -6
    assert report.local_sum == -6
    assert [r.gsv for r in report.per_point] == [-1, -5]
    assert report.consistent


def test_total_report_carries_the_germs_it_used():
    fol, ci = worked_example()
    points = worked_points()
    report = total_indices_certified(fol, ci, points, equation_order=(1, 0))
    assert report.germs == tuple(germ_at_point(fol, ci, p, (1, 0))
                                 for p in points)


def test_total_gsv_missing_point_inconsistent():
    fol, ci = worked_example()
    report = total_gsv_certified(fol, ci, worked_points()[:1])
    assert report.local_sum == -1
    assert not report.consistent


def test_total_gsv_duplicate_point_rejected():
    fol, ci = worked_example()
    # the same projective point presented on two charts
    line_fol = ProjectiveFoliation(
        2, 1, (parse_polynomial("z0", Z2), parse_polynomial("2*z1", Z2),
               parse_polynomial("3*z2", Z2)))
    line = ProjectiveCI(2, (parse_polynomial("z2", Z2),), (1,))
    dup = [PointOnChart(0, (1, 0)), PointOnChart(1, (1, 0))]
    with pytest.raises(DuplicatePointError):
        total_gsv_certified(line_fol, line, dup)
    with pytest.raises(DuplicatePointError):
        total_gsv_certified(fol, ci, worked_points() + [worked_points()[0]])


def test_total_indices_duplicate_point_rejected():
    # the same shared validation as total_gsv_certified, for the Schwartz
    # and Euler route
    fol, ci = worked_example()
    with pytest.raises(DuplicatePointError):
        total_indices_certified(fol, ci,
                                worked_points() + [worked_points()[0]],
                                equation_order=(1, 0))


def test_total_gsv_point_off_curve_rejected():
    fol, ci = worked_example()
    with pytest.raises(PointNotOnCurveError, match="chart 0 point"):
        total_gsv_certified(fol, ci, [PointOnChart(0, (2, 0, 0))])


def test_total_gsv_radial_like_plane_example():
    # degree-2 foliation leaving the line z1 = 0 invariant with a single
    # singular point [1:0:0] on it, of index d + 1 = 3 (brute-force local
    # computation: dim O/<x1, x2^3> = 3, tau = 0)
    fol = ProjectiveFoliation(
        2, 2, (parse_polynomial("-z2^2", Z2), parse_polynomial("z0*z1", Z2),
               parse_polynomial("0", Z2)))
    line = ProjectiveCI(2, (parse_polynomial("z1", Z2),), (1,))
    report = total_gsv_certified(fol, line, [PointOnChart(0, (0, 0))])
    assert report.closed_form == 3
    assert [r.gsv for r in report.per_point] == [3]
    assert report.consistent


def test_chart_coherence_two_chart_point():
    # a foliation on P^2 leaving z2 = 0 invariant, singular at [1:1:0];
    # the local index must agree whether computed in chart 0 or chart 1
    fol = ProjectiveFoliation(
        2, 1, (parse_polynomial("z0", Z2),
               parse_polynomial("2*z1 - z0", Z2),
               parse_polynomial("3*z2", Z2)))
    line = ProjectiveCI(2, (parse_polynomial("z2", Z2),), (1,))
    reports = []
    for point in [PointOnChart(0, (1, 0)), PointOnChart(1, (1, 0))]:
        germ, field = germ_at_point(fol, line, point)
        reports.append(local_gsv_curve(germ, field))
    assert reports[0].gsv == reports[1].gsv == 1
    assert reports[0].tau == reports[1].tau == 0


def test_chart_coherence_worked_example_origin():
    # the chart-0 origin [1:0:0:0] seen from its own chart is the
    # canonical computation; dehomogenizing on chart 0 after translating
    # reproduces the same germ data used throughout
    fol, ci = worked_example()
    germ, field = germ_at_point(fol, ci, PointOnChart(0, (0, 0, 0)))
    report = local_gsv_curve(germ, field)
    assert (report.tau, report.gsv) == (2, -1)


def test_total_indices_with_equation_order():
    fol, ci = worked_example()
    report = total_indices_certified(fol, ci, worked_points(),
                                     equation_order=(1, 0))
    assert [r.milnor for r in report.per_point] == [2, 6]
    assert [r.schwartz for r in report.per_point] == [1, 1]
    assert all(r.schwartz > 0 for r in report.per_point)
    assert report.consistent


# ---------------------------------------------------------------------------
# Euler characteristic

def test_euler_worked_example():
    report = euler_characteristic_curve([1, 1])
    assert report.chi == 2
    assert report.l == 2
    assert report.holds


def test_euler_adjunction_oracle():
    # smooth model of the (3,2) complete intersection in P^3: genus 4 by
    # adjunction (2g - 2 = 6 * (5 - 4)), so chi_smooth = -6; adding the
    # vanishing-cycle counts mu = 2 and 6 recovers chi = 2
    prod_k, sum_k, m = 6, 5, 3
    two_g_minus_2 = prod_k * (sum_k - m - 1)
    chi_smooth = -two_g_minus_2
    assert chi_smooth == -6
    assert chi_smooth + (2 + 6) == 2
    assert euler_characteristic_curve([1, 1]).chi == 2


def test_euler_single_points():
    assert euler_characteristic_curve([2]) \
        == euler_characteristic_curve([2])
    report = euler_characteristic_curve([2])
    assert report.chi == 2 and report.l == 1 and report.holds
    report = euler_characteristic_curve([1])
    assert report.chi == 1 and report.l == 1 and report.holds


def test_euler_empty_list_rejected():
    with pytest.raises(GsvkitError):
        euler_characteristic_curve([])


# ---------------------------------------------------------------------------
# point bookkeeping

def test_point_canonicalization():
    p = PointOnChart(1, (Fraction(2), Fraction(0)))
    # homogeneous (2, 1, 0) scaled to leading 1
    assert p.canonical() == (1, Fraction(1, 2), 0)


def test_points_on_different_charts_same_point():
    a = PointOnChart(0, (1, 0))
    b = PointOnChart(1, (1, 0))
    assert a.canonical() == b.canonical()
