"""Projective layer: charts, closed forms and the inequality checkers.

Foliations on P^m are presented by m+1 homogeneous components of uniform
degree d in z_0..z_m (the worked-chart convention: two presentations that
differ by a multiple of the radial field are NOT identified, since only
the dehomogenized charts enter the local computations).  Complete
intersections come as r homogeneous equations whose degrees are the
multidegree.  Affine charts always use variable names x1..xm, ordered by
the surviving projective coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .cherncalc import _elementary_symmetrics
from .errors import DuplicatePointError, GsvkitError, PointNotOnCurveError
from .indices import (
    CurveGerm,
    LocalIndexReport,
    VectorFieldGerm,
    local_gsv_curve,
    local_indices,
)
from .poly import Polynomial


def projective_variables(m: int) -> tuple[str, ...]:
    return tuple(f"z{i}" for i in range(m + 1))


def affine_variables(m: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, m + 1))


@dataclass(frozen=True)
class ProjectiveFoliation:
    """Degree-d foliation on P^m given by homogeneous components A_0..A_m."""

    m: int
    d: int
    components: tuple[Polynomial, ...]

    def __init__(self, m, d, components):
        components = tuple(components)
        if len(components) != m + 1:
            raise ValueError(f"need m+1 = {m + 1} components, "
                             f"got {len(components)}")
        variables = projective_variables(m)
        for i, a in enumerate(components):
            if a.variables != variables:
                raise ValueError(
                    f"component {i} must use variables {variables}")
            if a.is_zero():
                continue
            if not a.is_homogeneous() or a.degree() != d:
                raise ValueError(
                    f"component {i} is not homogeneous of degree {d}")
        if all(a.is_zero() for a in components):
            raise ValueError("all components are identically zero")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "components", components)


@dataclass(frozen=True)
class ProjectiveCI:
    """Complete intersection in P^m: r homogeneous equations, multidegree k."""

    m: int
    equations: tuple[Polynomial, ...]
    multidegree: tuple[int, ...]

    def __init__(self, m, equations, multidegree):
        equations = tuple(equations)
        multidegree = tuple(multidegree)
        if not 1 <= len(equations) <= m - 1:
            raise ValueError(
                f"need 1 <= r <= m-1 equations, got {len(equations)}")
        if len(multidegree) != len(equations):
            raise ValueError("multidegree length must match equation count")
        variables = projective_variables(m)
        for i, (f, k) in enumerate(zip(equations, multidegree)):
            if f.variables != variables:
                raise ValueError(f"equation {i} must use variables {variables}")
            if f.is_zero() or not f.is_homogeneous() or f.degree() != k:
                raise ValueError(
                    f"equation {i} is not homogeneous of degree {k}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "multidegree", multidegree)

    @property
    def r(self) -> int:
        return len(self.equations)


@dataclass(frozen=True)
class PointOnChart:
    """A rational point given by the chart z_i != 0 and m affine coordinates."""

    chart: int
    coords: tuple[Fraction, ...]

    def __init__(self, chart, coords):
        coords = tuple(Fraction(c) for c in coords)
        if chart < 0:
            raise ValueError("chart index must be non-negative")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coords", coords)

    def homogeneous(self) -> tuple[Fraction, ...]:
        """Projective coordinates with a 1 inserted at the chart position."""
        return (self.coords[:self.chart] + (Fraction(1),)
                + self.coords[self.chart:])

    def canonical(self) -> tuple[Fraction, ...]:
        """Scaled so the first nonzero coordinate is 1: detects duplicates."""
        hom = self.homogeneous()
        for c in hom:
            if c:
                return tuple(x / c for x in hom)
        raise ValueError("zero coordinate vector")


def dehomogenize_poly(p: Polynomial, chart: int, m: int) -> Polynomial:
    """Set z_chart = 1 and renumber the surviving variables to x1..xm."""
    if not 0 <= chart <= m:
        raise ValueError(f"chart must lie in 0..{m}")
    return p.specialize_at_one(chart).rename_variables(affine_variables(m))


def dehomogenize_ci(ci: ProjectiveCI, chart: int) -> tuple[Polynomial, ...]:
    return tuple(dehomogenize_poly(f, chart, ci.m) for f in ci.equations)


def dehomogenize_foliation(fol: ProjectiveFoliation,
                           chart: int) -> VectorFieldGerm:
    """Affine vector field on the chart z_chart != 0.

    The j-th affine component (j != chart, renumbered) is
    A_j|_{z_chart=1} - x_j * A_chart|_{z_chart=1}: the quotient of the
    homogeneous field by the radial direction in chart coordinates.
    """
    m = fol.m
    affine = [dehomogenize_poly(a, chart, m) for a in fol.components]
    pivot = affine.pop(chart)
    variables = affine_variables(m)
    return VectorFieldGerm(tuple(
        a_j - Polynomial.variable(variables, j) * pivot
        for j, a_j in enumerate(affine)))


# ---------------------------------------------------------------------------
# closed forms and inequality reports

def closed_form_gsv(m: int, ks, d: int) -> int:
    """Total GSV index by the combinatorial closed form:

    prod(k) * sum_{t=0}^{m-r} [ C(m+1, t)
        + sum_{j=1}^{t} sum_{i=1}^{j} sum_{|L_i|=j}
            (-1)^i C(m+1, t-j) prod_s e_{l_s}(k) ] (d-1)^(m-r-t)

    The inner sum E_j does not depend on t, and the bracket becomes
    sum_{j=0}^{t} C(m+1, t-j) E_j with E_0 = 1.  Splitting off the first
    index l_1 = l of each multi-index leaves the multi-indices of j - l
    with one sign fewer, so E_j = -sum_{l=1}^{min(j, r)} e_l(k) E_{j-l}
    (e_l = 0 above r).  Summed over t first, E_j carries the weight
    tail[m-r-j], where tail[n] = sum_{s=0}^{n} C(m+1, s) (d-1)^(n-s), so
    tail[0] = 1 and tail[n] = (d-1) tail[n-1] + C(m+1, n): O((m-r) r) steps.
    For r = m-1 this collapses to prod(k) * (d + m - sum(k)).
    """
    ks = list(ks)
    r = len(ks)
    if not 1 <= r <= m - 1:
        raise ValueError(f"need 1 <= r <= m-1 degrees, got r={r}, m={m}")
    if any(k < 1 for k in ks):
        raise ValueError("multidegree entries must be positive")
    if d < 0:
        raise ValueError("foliation degree must be non-negative")
    top = m - r
    e = _elementary_symmetrics(ks, top)
    big_e = [1]
    for j in range(1, top + 1):
        big_e.append(-sum(e[l] * big_e[j - l]
                          for l in range(1, min(j, r) + 1)))
    tail = [1]
    for n in range(1, top + 1):
        tail.append((d - 1) * tail[-1] + comb(m + 1, n))
    return prod(ks) * sum(big_e[j] * tail[top - j] for j in range(top + 1))


@dataclass(frozen=True)
class PoincareReport:
    """Both sides of the curve degree bound and the index sign, plus the
    claim that they are equivalent."""

    gsv: int
    degree_sum: int
    bound: int
    inequality_holds: bool
    gsv_nonnegative: bool
    equivalence_ok: bool


def poincare_degree_bound(m: int, ks, d: int) -> PoincareReport:
    """sum(k) <= d + m holds exactly when the total GSV index is >= 0."""
    ks = list(ks)
    if len(ks) != m - 1:
        raise ValueError("the curve bound needs a multidegree of length m-1")
    gsv = closed_form_gsv(m, ks, d)
    degree_sum = sum(ks)
    holds = degree_sum <= d + m
    nonneg = gsv >= 0
    return PoincareReport(gsv=gsv, degree_sum=degree_sum, bound=d + m,
                          inequality_holds=holds, gsv_nonnegative=nonneg,
                          equivalence_ok=holds == nonneg)


@dataclass(frozen=True)
class InequalityReport:
    lhs: int
    rhs: int
    holds: bool
    note: str | None = None


def milnor_degree_bound(m: int, ks, d: int, milnor_list) -> InequalityReport:
    """prod(k)(sum(k) - m) - sum(mu_p - 1) <= d * prod(k)."""
    ks = list(ks)
    milnor_list = list(milnor_list)
    if len(ks) != m - 1:
        raise ValueError("need a multidegree of length m-1")
    if any(mu < 1 for mu in milnor_list):
        raise ValueError("each listed singular point needs mu >= 1")
    prod_k = prod(ks)
    lhs = prod_k * (sum(ks) - m) - sum(mu - 1 for mu in milnor_list)
    rhs = d * prod_k
    return InequalityReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


def soares_plane_bound(k: int, d: int, milnor_list) -> InequalityReport:
    """Plane-curve inequality k(k-2) - sum(mu_p - 1) <= d k.

    A failure is flagged as inconsistent input (no such invariant
    configuration exists) rather than as a theorem violation.
    """
    if k < 1:
        raise ValueError("curve degree must be positive")
    milnor_list = list(milnor_list)
    if any(mu < 1 for mu in milnor_list):
        raise ValueError("each listed singular point needs mu >= 1")
    lhs = k * (k - 2) - sum(mu - 1 for mu in milnor_list)
    rhs = d * k
    holds = lhs <= rhs
    note = None
    if not holds:
        note = ("inequality fails: no degree-%d foliation leaves such a "
                "curve invariant (input inconsistent with invariance)" % d)
    return InequalityReport(lhs=lhs, rhs=rhs, holds=holds, note=note)


# ---------------------------------------------------------------------------
# certified totals

@dataclass(frozen=True)
class TotalGSVReport:
    """Local reports, and the (curve germ, field germ) pair each was
    computed from, per point; their sum against the closed form."""

    closed_form: int
    local_sum: int
    per_point: tuple[LocalIndexReport, ...]
    consistent: bool
    germs: tuple[tuple[CurveGerm, VectorFieldGerm], ...]


def curve_germ_at(ci: ProjectiveCI, point: PointOnChart,
                  equation_order=None) -> CurveGerm:
    """Dehomogenize the curve on the point's chart and recentre it there,
    its equations permuted by ``equation_order`` (of range(r)) if given."""
    affine_eqs = dehomogenize_ci(ci, point.chart)  # checks the chart first
    if len(point.coords) != ci.m:
        raise ValueError(f"need {ci.m} affine coordinates")
    for i, f in enumerate(affine_eqs):
        if f.evaluate(point.coords):
            raise PointNotOnCurveError(
                f"equation {i + 1} does not vanish at chart {point.chart} "
                f"point {[str(c) for c in point.coords]}")
    if equation_order is not None:
        if sorted(equation_order) != list(range(ci.r)):
            raise ValueError("equation_order must be a permutation of the "
                             "equation indices")
        affine_eqs = tuple(affine_eqs[i] for i in equation_order)
    return CurveGerm(tuple(f.translate(point.coords) for f in affine_eqs))


def germ_at_point(fol: ProjectiveFoliation, ci: ProjectiveCI,
                  point: PointOnChart, equation_order=None
                  ) -> tuple[CurveGerm, VectorFieldGerm]:
    """Curve and field germs recentred at the point (see curve_germ_at)."""
    if fol.m != ci.m:
        raise ValueError("foliation and curve live on different spaces")
    germ = curve_germ_at(ci, point, equation_order)
    field = dehomogenize_foliation(fol, point.chart)
    moved = VectorFieldGerm(tuple(a.translate(point.coords)
                                  for a in field.components))
    return germ, moved


def check_distinct_points(points):
    """Raise DuplicatePointError if two points name one projective point."""
    seen = {}
    for idx, point in enumerate(points):
        key = point.canonical()
        if key in seen:
            raise DuplicatePointError(
                f"points {seen[key] + 1} and {idx + 1} name the same "
                "projective point")
        seen[key] = idx


def _certified_total(fol, ci, points, local, equation_order=None):
    points = list(points)
    if ci.r != ci.m - 1:
        raise ValueError("certified totals need a curve (r = m-1)")
    check_distinct_points(points)
    germs = tuple(germ_at_point(fol, ci, point, equation_order)
                  for point in points)
    reports = tuple(local(*germ) for germ in germs)
    local_sum = sum(r.gsv for r in reports)
    closed = closed_form_gsv(ci.m, ci.multidegree, fol.d)
    return TotalGSVReport(closed_form=closed, local_sum=local_sum,
                          per_point=reports, consistent=closed == local_sum,
                          germs=germs)


def total_gsv_certified(fol: ProjectiveFoliation, ci: ProjectiveCI,
                        points) -> TotalGSVReport:
    """Sum the local indices over the supplied points and compare with the
    closed form.  The flag is the safety net: a mismatch means a missed
    point of the singular set or degenerate input.
    """
    return _certified_total(fol, ci, points, local_gsv_curve)


def total_indices_certified(fol: ProjectiveFoliation, ci: ProjectiveCI,
                            points, equation_order=None) -> TotalGSVReport:
    """Like total_gsv_certified but with full per-point reports (Milnor,
    Schwartz).  ``equation_order`` optionally permutes the curve equations
    before the Milnor chain (the chain is order-sensitive); it must be a
    permutation of range(r).
    """
    return _certified_total(fol, ci, points, local_indices, equation_order)


@dataclass(frozen=True)
class EulerReport:
    chi: int
    l: int
    holds: bool


def euler_characteristic_curve(schwartz_list) -> EulerReport:
    """chi(C) as the sum of the Schwartz indices over the l singularities
    of the restricted field; a curve carrying such a field has chi >= l."""
    schwartz_list = list(schwartz_list)
    if not schwartz_list:
        raise GsvkitError(
            "empty Schwartz list: the Euler characteristic is undefined "
            "by this route")
    chi = sum(schwartz_list)
    l = len(schwartz_list)
    return EulerReport(chi=chi, l=l, holds=chi >= l)
