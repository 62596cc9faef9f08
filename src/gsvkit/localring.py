"""Standard bases and quotient dimensions in the local ring at the origin.

Division uses Mora's weak normal form with ecart-controlled divisor
selection, which terminates for local orders and certifies an exact
identity ``unit * p = sum(cofactor_i * g_i) + remainder`` with the unit
invertible at the origin.  Completion is Buchberger-style over S-pairs
with the product criterion.  Quotient dimensions are staircase counts of
the resulting leading ideal; an independent Macaulay-matrix oracle is
provided for cross-checks.

Generator transformations ("lifts") are tracked through completion so
that ideal membership can be certified over the *original* generators,
not just over the computed basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    InfiniteDimensionError,
    InternalCheckError,
    IterationLimitError,
    NotMemberError,
)
from .poly import (
    LOCAL_ANTIDEGREVLEX,
    Exponents,
    MonomialOrder,
    Polynomial,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

DEFAULT_STEP_LIMIT = 10 ** 6


class _Infinite:
    """Distinguished value for an infinite-dimensional quotient."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"

    def __bool__(self):
        return True


INFINITE = _Infinite()


@dataclass(frozen=True)
class IdealGens:
    """Generators of an ideal together with the active monomial order.

    Zero generators are dropped; all generators must share one variable
    list.  Local computations require LOCAL_ANTIDEGREVLEX.
    """

    generators: tuple[Polynomial, ...]
    order: MonomialOrder = LOCAL_ANTIDEGREVLEX

    def __init__(self, generators, order=LOCAL_ANTIDEGREVLEX):
        generators = tuple(g for g in generators if not g.is_zero())
        if not generators:
            raise ValueError("need at least one nonzero generator")
        variables = generators[0].variables
        for g in generators[1:]:
            if g.variables != variables:
                raise ValueError("generators use different variable lists")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "order", order)

    @property
    def variables(self):
        return self.generators[0].variables


@dataclass(frozen=True)
class StandardBasis:
    """Completed basis; ``lifts[k]`` writes ``elements[k]`` over the input
    generators as an exact polynomial combination."""

    elements: tuple[Polynomial, ...]
    leading_monomials: tuple[Exponents, ...]
    order: MonomialOrder
    lifts: tuple[tuple[Polynomial, ...], ...]


def ecart(p: Polynomial, order: MonomialOrder) -> int:
    """Total degree spread between p and its leading monomial."""
    lead, _ = p.leading(order)
    return p.degree() - monomial_degree(lead)


def _require_local(order: MonomialOrder):
    if not order.is_local:
        raise ValueError("this computation requires the local order "
                         "(LOCAL_ANTIDEGREVLEX)")


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise IterationLimitError(
                "reduction step cap exceeded; raise step_limit if the input "
                "is legitimately this large")


def _mora(p, basis, order, budget):
    """Weak normal form of p against ``basis`` (list of Polynomial).

    Returns (unit, cofactors list over basis, remainder).
    """
    variables = p.variables
    zero = Polynomial.zero(variables)
    n = len(basis)

    # reducer pool entries: (poly, lead exps, lead coeff, ecart, unit part,
    # cofactor list); invariant for entry X: X = u_X * p - sum q_X,i basis_i
    pool = []
    for j, g in enumerate(basis):
        lead, lc = g.leading(order)
        q = [zero] * n
        q[j] = Polynomial.constant(variables, -1)
        pool.append((g, lead, lc, ecart(g, order), zero, q))

    unit = Polynomial.constant(variables, 1)
    cof = [zero] * n
    h = p
    while not h.is_zero():
        lead_h, lc_h = h.leading(order)
        best = None
        best_key = None
        for idx, entry in enumerate(pool):
            if monomial_divides(entry[1], lead_h):
                key = (entry[3], idx)
                if best_key is None or key < best_key:
                    best, best_key = entry, key
        if best is None:
            break
        budget.spend()
        ec_h = h.degree() - monomial_degree(lead_h)
        if best[3] > ec_h:
            pool.append((h, lead_h, lc_h, ec_h, unit, list(cof)))
        t_exps = monomial_div(lead_h, best[1])
        t_coeff = lc_h / best[2]
        h = h - best[0].mul_term(t_exps, t_coeff)
        unit = unit - best[4].mul_term(t_exps, t_coeff)
        cof = [c - q.mul_term(t_exps, t_coeff) for c, q in zip(cof, best[5])]
        if not h.is_zero():
            scale = h.primitive_factor()
            if scale != 1:
                h = h.scaled(scale)
                unit = unit.scaled(scale)
                cof = [c.scaled(scale) for c in cof]
    return unit, cof, h


def _spoly(f, g, order):
    lead_f, lc_f = f.leading(order)
    lead_g, lc_g = g.leading(order)
    both = monomial_lcm(lead_f, lead_g)
    a = f.mul_term(monomial_div(both, lead_f), Fraction(1) / lc_f)
    b = g.mul_term(monomial_div(both, lead_g), Fraction(1) / lc_g)
    return a - b


def standard_basis(gens: IdealGens,
                   step_limit: int = DEFAULT_STEP_LIMIT) -> StandardBasis:
    """Buchberger-style completion with Mora normal form and lift tracking."""
    _require_local(gens.order)
    order = gens.order
    variables = gens.variables
    zero = Polynomial.zero(variables)
    budget = _Budget(step_limit)

    basis: list[Polynomial] = []
    lifts: list[list[Polynomial]] = []
    n = len(gens.generators)
    for j, g in enumerate(gens.generators):
        scale = g.primitive_factor()
        basis.append(g.scaled(scale))
        row = [zero] * n
        row[j] = Polynomial.constant(variables, scale)
        lifts.append(row)

    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop(0)
        lead_i, _ = basis[i].leading(order)
        lead_j, _ = basis[j].leading(order)
        if monomial_lcm(lead_i, lead_j) == monomial_mul(lead_i, lead_j):
            continue  # product criterion
        s = _spoly(basis[i], basis[j], order)
        if s.is_zero():
            continue
        unit, cof, rem = _mora(s, basis, order, budget)
        if rem.is_zero():
            continue
        # lift of rem: rem = unit*s - sum cof_k basis_k, and s is itself an
        # exact combination of basis[i], basis[j]
        lead_f, lc_f = basis[i].leading(order)
        lead_g, lc_g = basis[j].leading(order)
        both = monomial_lcm(lead_f, lead_g)
        lift_s = [
            li.mul_term(monomial_div(both, lead_f), Fraction(1) / lc_f)
            - lj.mul_term(monomial_div(both, lead_g), Fraction(1) / lc_g)
            for li, lj in zip(lifts[i], lifts[j])
        ]
        lift_rem = [unit * ls for ls in lift_s]
        for k, q in enumerate(cof):
            if q.is_zero():
                continue
            lift_rem = [lr - q * lk for lr, lk in zip(lift_rem, lifts[k])]
        scale = rem.primitive_factor()
        rem = rem.scaled(scale)
        lift_rem = [lr.scaled(scale) for lr in lift_rem]
        new_index = len(basis)
        basis.append(rem)
        lifts.append(lift_rem)
        pairs.extend((k, new_index) for k in range(new_index))

    leading = tuple(b.leading(order)[0] for b in basis)
    return StandardBasis(tuple(basis), leading, order,
                         tuple(tuple(row) for row in lifts))


def minimalize_monomials(monomials) -> list[Exponents]:
    """Minimal generators of the monomial ideal the inputs generate."""
    unique = sorted(set(monomials), key=lambda e: (monomial_degree(e), e))
    out: list[Exponents] = []
    for mono in unique:
        if not any(monomial_divides(kept, mono) for kept in out):
            out.append(mono)
    return out


def _staircase_count(leads: list[Exponents], nvars: int):
    """Number of monomials outside the monomial ideal, or INFINITE."""
    if any(monomial_degree(l) == 0 for l in leads):
        return 0
    bounds = []
    for i in range(nvars):
        pures = [l[i] for l in leads
                 if all(e == 0 for k, e in enumerate(l) if k != i)]
        if not pures:
            return INFINITE
        bounds.append(min(pures))
    count = 0
    for exps in itertools.product(*(range(b) for b in bounds)):
        if not any(monomial_divides(l, exps) for l in leads):
            count += 1
    return count


def quotient_dim(gens: IdealGens, step_limit: int = DEFAULT_STEP_LIMIT):
    """Vector-space dimension of O_{m,0} / <gens>, or INFINITE.

    Finite exactly when the leading ideal contains a pure power of every
    variable; the value is then the number of staircase monomials.
    """
    sb = standard_basis(gens, step_limit=step_limit)
    leads = minimalize_monomials(sb.leading_monomials)
    return _staircase_count(leads, len(gens.variables))


def membership_with_cofactors(p: Polynomial, gens: IdealGens,
                              step_limit: int = DEFAULT_STEP_LIMIT):
    """Certified membership of p in the local ideal of ``gens``.

    Returns (unit, cofactors) with unit * p = sum(cofactors_i * gens_i)
    exactly and unit(0) != 0, or raises NotMemberError.
    """
    _require_local(gens.order)
    if p.is_zero():
        one = Polynomial.constant(gens.variables, 1)
        zero = Polynomial.zero(gens.variables)
        return one, tuple(zero for _ in gens.generators)
    budget = _Budget(step_limit)
    sb = standard_basis(gens, step_limit=step_limit)
    unit, cof, rem = _mora(p, list(sb.elements), gens.order, budget)
    if not rem.is_zero():
        raise NotMemberError(
            f"{p} is not in the local ideal (normal form {rem})")
    n = len(gens.generators)
    out = [Polynomial.zero(gens.variables) for _ in range(n)]
    for q, lift_row in zip(cof, sb.lifts):
        if q.is_zero():
            continue
        for j in range(n):
            if not lift_row[j].is_zero():
                out[j] = out[j] + q * lift_row[j]
    # normalize so the unit has constant term 1
    scale = Fraction(1) / unit.constant_term
    unit = unit.scaled(scale)
    out = [c.scaled(scale) for c in out]
    check = unit * p
    for c, g in zip(out, gens.generators):
        check = check - c * g
    if not check.is_zero() or not unit.constant_term:
        raise InternalCheckError("membership certificate failed to re-expand")
    return unit, tuple(out)


# ---------------------------------------------------------------------------
# Macaulay-matrix oracle

def _int_rank(rows) -> int:
    """Rank of integer rows via fraction-free elimination (sparse dicts)."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                pivots[lead] = {c: v // g for c, v in row.items()}
                rank += 1
                break
            a = row[lead]
            b = pivot[lead]
            g = gcd(a, b)
            am, bm = a // g, b // g
            for c, v in pivot.items():
                acc = row.get(c, 0) * bm - v * am
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
        # empty row: linearly dependent, contributes nothing
    return rank


def _monomials_below(nvars: int, degree: int):
    """All exponent tuples of total degree < degree, deterministic order."""
    out = []
    for d in range(degree):
        for exps in itertools.combinations_with_replacement(range(nvars), d):
            vec = [0] * nvars
            for i in exps:
                vec[i] += 1
            out.append(tuple(vec))
    return out


def quotient_dim_macaulay(gens: IdealGens, max_degree: int = 24) -> int:
    """Quotient dimension by truncated linear algebra, independent of
    standard bases: corank of the span of monomial multiples of the
    generators inside polynomials of degree < D, at the first D where the
    value repeats for two consecutive degrees.

    Only meaningful (and guaranteed to stabilize) for zero-dimensional
    ideals; raises InfiniteDimensionError when the cap is hit.
    """
    variables = gens.variables
    nvars = len(variables)
    primitive = []
    for g in gens.generators:
        scale = g.primitive_factor()
        primitive.append({e: int(c * scale) for e, c in g.terms.items()})
    min_degs = [min(monomial_degree(e) for e in g) for g in primitive]

    previous = None
    for degree in range(1, max_degree + 1):
        columns = {e: i for i, e in enumerate(_monomials_below(nvars, degree))}
        rows = []
        for g, mind in zip(primitive, min_degs):
            for shift in _monomials_below(nvars, degree - mind):
                row = {}
                for e, c in g.items():
                    target = monomial_mul(e, shift)
                    if monomial_degree(target) < degree:
                        row[columns[target]] = c
                if row:
                    rows.append(row)
        corank = len(columns) - _int_rank(rows)
        if previous == corank:
            return corank
        previous = corank
    raise InfiniteDimensionError(
        f"Macaulay corank did not stabilize by degree {max_degree}; "
        "the ideal may not be zero-dimensional")
