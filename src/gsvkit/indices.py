"""Local singularity invariants and foliation indices along curve germs.

All germs live at the origin of C^m with exact rational coefficients.
The central quantities for a complete-intersection curve germ C = {f = 0}
invariant under a vector field v are:

  tau      dim O/<f, maximal Jacobian minors>   (Greuel/Tjurina number)
  mu       Milnor number, via the Le-Greuel chain in the given generator order
  gsv      -tau + dim O/<v, f>
  schwartz gsv + mu

All of them come from colengths of the labelled ideals of ``germ_ideals``,
the one catalogue of them: ``ideal_dimensions`` takes the staircase
``quotient_dim`` of each, and the CLI's --oracle takes
``quotient_dim_macaulay`` of the same ideals with the same generators.

  "tau"     <f, maximal minors of Jac(f)>
  "dim_v"   <v>
  "dim_vf"  <v, f>
  k         <f_1..f_{k-1}, maximal minors of Jac(f_1..f_k)>, Le-Greuel
            chain step k = 1..r; mu = d_r - d_{r-1} + ... +- d_1

The module also holds the nondegenerate-singularity apparatus: the
integer constants eps_r and alpha, the two-sided bound interval for the
index, and the parity-split closed form in the auxiliary integer rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .errors import (
    InfiniteDimensionError,
    InternalCheckError,
    IterationLimitError,
    NotInvariantError,
    NotMemberError,
)
from .localring import (
    IdealGens,
    check_membership,
    membership_with_cofactors,
    quotient_dim,
)
from .poly import Polynomial, _dot, jacobian_minors


@dataclass(frozen=True)
class CurveGerm:
    """Complete-intersection germ at the origin: r equations in m variables."""

    equations: tuple[Polynomial, ...]

    def __init__(self, equations):
        equations = tuple(equations)
        if not equations:
            raise ValueError("need at least one equation")
        variables = equations[0].variables
        for f in equations[1:]:
            if f.variables != variables:
                raise ValueError("equations use different variable lists")
        if any(f.is_zero() for f in equations):
            raise ValueError("zero equation in curve germ")
        m, r = len(variables), len(equations)
        if not 1 <= r <= m - 1:
            raise ValueError(f"need 1 <= r <= m-1, got r={r}, m={m}")
        if any(f.constant_term for f in equations):
            raise ValueError("germ equations must vanish at the origin")
        object.__setattr__(self, "equations", equations)

    @property
    def variables(self):
        return self.equations[0].variables

    @property
    def m(self) -> int:
        return len(self.variables)

    @property
    def r(self) -> int:
        return len(self.equations)

    @cached_property
    def minors(self) -> tuple[Polynomial, ...]:
        """The maximal Jacobian minors, shared by tau and chain step r."""
        return tuple(jacobian_minors(self.equations))


@dataclass(frozen=True)
class VectorFieldGerm:
    """Vector field germ at the origin: one component per variable."""

    components: tuple[Polynomial, ...]

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one component")
        variables = components[0].variables
        for a in components[1:]:
            if a.variables != variables:
                raise ValueError("components use different variable lists")
        if len(components) != len(variables):
            raise ValueError("need exactly one component per variable")
        object.__setattr__(self, "components", components)

    @property
    def variables(self):
        return self.components[0].variables


def directional_derivative(f: Polynomial, v: VectorFieldGerm) -> Polynomial:
    """df(v) = sum_i (df/dx_i) * v_i, as one integer accumulation over the
    common denominator of its products."""
    if f.variables != v.variables:
        raise ValueError("germ and field use different variable lists")
    return _dot(f.variables, [(f.partial_derivative(i), comp)
                              for i, comp in enumerate(v.components)])


@dataclass(frozen=True)
class MembershipCertificate:
    """unit * target = sum(cofactors_i * generators_i), exactly."""

    unit: Polynomial
    cofactors: tuple[Polynomial, ...]


@dataclass(frozen=True)
class HMatrix:
    """Row-wise certificates that df_i(v) lies in <f_1, ..., f_r>."""

    rows: tuple[MembershipCertificate, ...]


def _tangency(germ: CurveGerm, v: VectorFieldGerm, check):
    """``check(targets, gens)`` on the df_i(v) against <f>.  A non-member
    raises NotInvariantError naming its row; a spent budget raises
    IterationLimitError naming the tangency step."""
    targets = [directional_derivative(f, v) for f in germ.equations]
    try:
        return check(targets, IdealGens(germ.equations))
    except NotMemberError as err:
        raise NotInvariantError(err.index) from None
    except IterationLimitError as exc:
        raise IterationLimitError(f"tangency: {exc}") from None


def invariance_certificate(germ: CurveGerm, v: VectorFieldGerm) -> HMatrix:
    """Certify tangency of v to the germ, or raise NotInvariantError.

    Row i certifies unit_i * df_i(v) = sum_j h_ij * f_j, exactly checked
    by ``membership_with_cofactors``; the matrix is not unique.
    """
    rows = _tangency(germ, v, membership_with_cofactors)
    return HMatrix(tuple(MembershipCertificate(unit, cofactors)
                         for unit, cofactors in rows))


def germ_ideals(germ: CurveGerm, field: VectorFieldGerm | None = None, *,
                tau: bool = True, chain: bool = False) -> dict:
    """Labelled ideals of the germ (module docstring), in computing order:
    "tau" unless ``tau`` is false, "dim_v" and "dim_vf" with a field, and
    the chain steps 1..r if ``chain``."""
    eqs = germ.equations
    ideals = {}
    if tau:
        ideals["tau"] = IdealGens(eqs + germ.minors)
    if field is not None:
        if all(a.is_zero() for a in field.components):
            raise InfiniteDimensionError("the vector field is identically zero")
        ideals["dim_v"] = IdealGens(field.components)
        ideals["dim_vf"] = IdealGens(field.components + eqs)
    if chain:
        for k in range(1, germ.r + 1):
            minors = germ.minors if k == germ.r else jacobian_minors(eqs[:k])
            ideals[k] = IdealGens((*eqs[:k - 1], *minors))
    return ideals


def _ideal_name(label) -> str:
    """How errors and anomalies name a labelled ideal of ``germ_ideals``."""
    return f"chain step {label}" if isinstance(label, int) else label


_NOT_FINITE = {
    "tau": "the singularity is not isolated: <f, minors> is not "
           "zero-dimensional",
    "dim_v": "the vector field does not have an isolated zero: <v> is not "
             "zero-dimensional",
    "dim_vf": "<v, f> is not zero-dimensional",
}


def ideal_dimensions(ideals: dict) -> dict:
    """``quotient_dim`` of each labelled ideal.  An infinite dimension
    raises InfiniteDimensionError naming the ideal, with ``step=k`` for
    chain step k; a spent budget raises IterationLimitError naming it."""
    dims = {}
    for label, gens in ideals.items():
        try:
            dims[label] = quotient_dim(gens)
        except InfiniteDimensionError:
            if not isinstance(label, int):
                raise InfiniteDimensionError(_NOT_FINITE[label]) from None
            raise InfiniteDimensionError(
                f"Le-Greuel chain step {label} is not zero-dimensional: "
                f"(f_1..f_{label}) is not an ICIS in this generator order",
                step=label) from None
        except IterationLimitError as exc:
            raise IterationLimitError(f"{_ideal_name(label)}: {exc}") from None
    return dims


def milnor_from_chain(dims: dict) -> int:
    """mu from the dimensions d_1..d_r of the chain steps, in order:
    mu_k = d_k - mu_{k-1}."""
    mu = 0
    for value in dims.values():
        mu = value - mu
    return mu


def greuel_tjurina(germ: CurveGerm) -> int:
    """dim O/<f, all maximal minors of the Jacobian of f>."""
    return ideal_dimensions(germ_ideals(germ))["tau"]


def milnor_curve(germ: CurveGerm) -> int:
    """Milnor number of an ICIS curve germ by the Le-Greuel chain.

    Uses the equations in the order given: step k needs
    dim O/<f_1..f_{k-1}, maximal minors of Jac(f_1..f_k)> finite.  On a
    genericity failure the error names the failing step (1-based) so the
    caller can permute the generators; the chain is never permuted
    silently.
    """
    if germ.r != germ.m - 1:
        raise ValueError("the Milnor chain here is for curve germs (r = m-1)")
    mu = milnor_from_chain(ideal_dimensions(
        germ_ideals(germ, tau=False, chain=True)))
    tau = greuel_tjurina(germ)
    if mu < tau:
        raise InternalCheckError(
            f"computed Milnor number {mu} below Tjurina number {tau}")
    return mu


@dataclass(frozen=True)
class LocalIndexReport:
    """Per-point record of the local invariants and their building blocks,
    checked when it is built.  ``milnor``, ``schwartz`` and
    ``quasihomogeneous`` are None unless the Milnor chain was run (it is
    sensitive to the equation order, unlike the others)."""

    tau: int
    dim_vf: int
    dim_v: int
    gsv: int
    milnor: int | None = None
    schwartz: int | None = None
    quasihomogeneous: bool | None = None
    anomalies: tuple[str, ...] = ()

    def __post_init__(self):
        if self.gsv != -self.tau + self.dim_vf:
            raise InternalCheckError("gsv != -tau + dim O/<v,f>")
        if self.milnor is not None:
            if self.milnor < self.tau:
                raise InternalCheckError("milnor < tau")
            if self.schwartz != self.gsv + self.milnor:
                raise InternalCheckError("schwartz != gsv + milnor")


def _local_report(germ: CurveGerm, v: VectorFieldGerm,
                  chain: bool) -> LocalIndexReport:
    """Tangency, tau, dim_v, dim_vf and, with ``chain``, chain steps 1..r."""
    if germ.r != germ.m - 1:
        raise ValueError("local GSV along a curve needs r = m-1 equations")
    _tangency(germ, v, check_membership)
    tau = greuel_tjurina(germ)
    dims = ideal_dimensions(germ_ideals(germ, v, tau=False, chain=chain))
    dim_v, dim_vf = dims.pop("dim_v"), dims.pop("dim_vf")
    gsv = -tau + dim_vf
    if not chain:
        return LocalIndexReport(tau=tau, dim_vf=dim_vf, dim_v=dim_v, gsv=gsv)
    mu = milnor_from_chain(dims)
    schwartz = gsv + mu
    anomalies = []
    if schwartz <= 0:
        anomalies.append(
            f"Schwartz index {schwartz} is not positive; this "
            "contradicts the positivity theorem for invariant curve germs")
    if mu != tau and schwartz < 2:
        anomalies.append(
            f"Schwartz index {schwartz} < 2 at a germ that is not "
            "quasi-homogeneous")
    return LocalIndexReport(tau=tau, dim_vf=dim_vf, dim_v=dim_v, gsv=gsv,
                            milnor=mu, schwartz=schwartz,
                            quasihomogeneous=mu == tau,
                            anomalies=tuple(anomalies))


def local_gsv_curve(germ: CurveGerm, v: VectorFieldGerm) -> LocalIndexReport:
    """GSV index of the field along the curve germ at the origin.

    Requires r = m-1 and an invariant germ; the index is
    -tau + dim O/<v, f> and both intermediate dimensions are reported.
    """
    return _local_report(germ, v, chain=False)


def local_indices(germ: CurveGerm, v: VectorFieldGerm) -> LocalIndexReport:
    """Full per-point report: tau, dims, gsv, milnor, schwartz.

    A non-positive Schwartz index is flagged as an anomaly in the report
    rather than raised: it would falsify the run's assumptions.
    """
    return _local_report(germ, v, chain=True)


# ---------------------------------------------------------------------------
# nondegenerate bounds

@dataclass(frozen=True)
class BoundConstants:
    """Integer constants controlling the nondegenerate GSV bounds of one
    (m, r), and the two closed forms in them."""

    eps_r: int
    alpha: int
    binom: int
    even: bool  # dim V = m - r is even

    @property
    def rho_range_max(self) -> int:
        return self.binom

    @property
    def beta_as_stated(self) -> int:
        """The published closed form alpha + (-1)^(m-r-1) * binom; it
        disagrees with the bound actually proved (which is eps_r) and is
        surfaced for reports."""
        return self.alpha + (-self.binom if self.even else self.binom)

    def bounds(self, tau: int) -> tuple[int, int]:
        """See gsv_bounds_nondegenerate."""
        if tau < 0:
            raise ValueError("tau must be non-negative")
        if self.even:
            lo, hi = self.alpha + tau, self.eps_r + tau
        else:
            lo, hi = self.eps_r - tau, self.alpha - tau
        if lo > hi:
            raise InternalCheckError("bound interval inverted")
        return lo, hi

    def gsv_at_rho(self, tau: int, rho: int) -> tuple[int, bool]:
        """See gsv_from_rho."""
        if tau < 0:
            raise ValueError("tau must be non-negative")
        if not 0 <= rho <= self.rho_range_max:
            raise ValueError(
                f"rho must lie in [0, {self.rho_range_max}], got {rho}")
        if self.even:
            gsv = self.eps_r + tau - rho
            positive = tau + self.eps_r > rho
        else:
            gsv = self.eps_r - tau + rho
            positive = tau - self.eps_r < rho
        if positive != (gsv > 0):
            raise InternalCheckError("positivity predicate mismatch")
        return gsv, positive


def nondegenerate_bound_constants(m: int, r: int) -> BoundConstants:
    """eps_r, alpha and the rho range for ambient dimension m, codimension r.

    eps_r = sum_{j=0}^{m-r-2} (-1)^j C(r-1+j, j)   (empty sum = 0 at r = m-1)
    alpha = sum_{j=0}^{m-r-1} (-1)^j C(r-1+j, j)
    binom = C(m-2, m-r-1)
    """
    if m < 2 or not 1 <= r <= m - 1:
        raise ValueError(f"need m >= 2 and 1 <= r <= m-1, got m={m}, r={r}")
    # both partial sums in one pass; term = C(r-1+j, j), sign = (-1)^j
    eps, term, sign = 0, 1, 1
    for j in range(m - r - 1):
        eps += sign * term
        term, sign = term * (r + j) // (j + 1), -sign
    alpha = eps + sign * term
    binom = comb(m - 2, m - r - 1)
    if alpha - eps != sign * binom:
        raise InternalCheckError("alpha - eps_r parity identity failed")
    return BoundConstants(eps_r=eps, alpha=alpha, binom=binom,
                          even=(m - r) % 2 == 0)


def gsv_bounds_nondegenerate(m: int, r: int, tau: int) -> tuple[int, int]:
    """Sharp integer interval [lo, hi] for the local GSV index at a
    nondegenerate singular point of the foliation on a codimension-r germ
    with Tjurina number tau.

    dim V = m - r even:  [alpha + tau, eps_r + tau]
    dim V = m - r odd:   [eps_r - tau, alpha - tau]
    """
    return nondegenerate_bound_constants(m, r).bounds(tau)


def gsv_from_rho(m: int, r: int, tau: int, rho: int) -> tuple[int, bool]:
    """Closed form of the nondegenerate local GSV index in the integer rho
    (the number of rows of the final small-Gobelin matrix whose row ideal
    sits inside <v>), plus the positivity predicate.

    dim V even:  gsv = eps_r + tau - rho,  gsv > 0  iff  tau + eps_r > rho
    dim V odd:   gsv = eps_r - tau + rho,  gsv > 0  iff  tau - eps_r < rho

    rho for general codimension is an input, never computed here.
    """
    return nondegenerate_bound_constants(m, r).gsv_at_rho(tau, rho)


def published_bound_table(m: int, row: str, tau: int) -> tuple[int, int]:
    """The bound table as published, keyed by its row labels
    "1", "2", "m-2", "m-1" (values of dim V = m - r).

    The "m-1" row of the published table disagrees with the bounds the
    proof establishes (see gsv_bounds_nondegenerate); it is kept here
    verbatim so the discrepancy can be asserted and logged.
    """
    even = m % 2 == 0
    if row == "m-1":
        return (m - 1 + tau, m + tau) if even else (m - 2 - tau, m - 1 - tau)
    if row == "m-2":
        if even:
            return (-(m - 2) // 2 + tau, (m - 2) // 2 + tau)
        return (-(m - 1) // 2 + 1 - tau, (m - 1) // 2 - tau)
    if row == "2":
        return (-(m - 3) + tau, 1 + tau)
    if row == "1":
        return (-tau, 1 - tau)
    raise ValueError(f"no published row labelled {row!r}")
