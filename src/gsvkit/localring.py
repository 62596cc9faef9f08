"""Standard bases and quotient dimensions in the local ring at the origin.

All computations use one local order, anti-degree reverse-lexicographic
(Greuel-Pfister, *A Singular Introduction to Commutative Algebra*, 1.2):
lower total degree ranks larger, ties are broken reverse-lexicographically,
so the constant monomial 1 beats every other monomial.  They work on rows:
a row is a tuple ``(polynomial, *bookkeeping)`` whose entries all undergo
the same linear steps, so an invariant linear in the row, such as
``row[0] = sum(row[1 + j] * g_j)`` over some fixed generators g_j, holds
for every row derived from rows that satisfy it.  Division is Mora's weak
normal form with ecart-controlled divisor selection, which terminates for
local orders; completion is Buchberger-style over S-pairs with the
product criterion.  Each caller chooses the row width:

  quotient_dim               bare rows ``(p,)``: no bookkeeping at all;
                             the dimension is the staircase count of the
                             leading ideal
  standard_basis             rows ``(p, lift over the generators)``, so
                             each basis element comes with its lift
  membership_with_cofactors  rows ``(p, unit, cofactors)``, which certify
                             ``unit * p = sum(cofactor_j * g_j)`` exactly
                             with the unit invertible at the origin

Bare rows are completed with the highest-corner truncation
(Greuel-Pfister 1.7; Singular's ``std`` with a ``noether`` bound).  Once
the leading monomials L(G) of the partial basis G contain a pure power of
every variable, let N be 1 + the top degree of their staircase.  Every
monomial of degree N then lies in L(G), so it leads an element of I; the
order ranks lower degree higher, so these elements span m^N modulo
m^(N+1).  Hence m^N lies in I + m * m^N, and Nakayama's lemma gives m^N in
I, so every term of degree >= N is itself in I.  From then on such terms
are dropped from every S-polynomial, after every Mora step and from the
basis rows (a row whose leading monomial has degree >= N is kept whole), and
N is recomputed whenever an element joins the basis.  This keeps the rows of
low degree and their coefficients small.  Tracked rows are never truncated:
their lifts, units and cofactors must re-expand exactly, and a dropped term
of m^N would break that identity.

An independent Macaulay-matrix oracle, ``quotient_dim_macaulay``, is
provided for cross-checks.  It keys each monomial as one integer whose
digits are its degree and exponents, so that a row is multiplied by a
monomial by adding that monomial's key, and it never inserts a multiple
g*s*x_i of a row g*s that reduced to zero or was skipped: that row is a
combination of earlier rows, whose multiples by x_i come earlier too, so
the skipped multiple adds nothing to the span (the syzygy criterion of
Faugere's F5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import (
    InfiniteDimensionError,
    InternalCheckError,
    IterationLimitError,
    NotMemberError,
)
from .poly import (
    Exponents,
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
    """Generators of an ideal of the local ring.

    Zero generators are dropped; all generators must share one variable
    list.
    """

    generators: tuple[Polynomial, ...]

    def __init__(self, generators):
        generators = tuple(g for g in generators if not g.is_zero())
        if not generators:
            raise ValueError("need at least one nonzero generator")
        variables = generators[0].variables
        for g in generators[1:]:
            if g.variables != variables:
                raise ValueError("generators use different variable lists")
        object.__setattr__(self, "generators", generators)

    @property
    def variables(self):
        return self.generators[0].variables


@dataclass(frozen=True)
class StandardBasis:
    """Completed basis; ``lifts[k]`` writes ``elements[k]`` over the input
    generators as an exact polynomial combination."""

    elements: tuple[Polynomial, ...]
    leading_monomials: tuple[Exponents, ...]
    lifts: tuple[tuple[Polynomial, ...], ...]


def _local_key(exps: Exponents):
    """Sort key of the local order: larger key means larger monomial."""
    return -sum(exps), tuple(-e for e in reversed(exps))


def _leading(p: Polynomial) -> tuple[Exponents, Fraction]:
    """(exponents, coefficient) of the leading term of a nonzero p."""
    exps = max(p.terms, key=_local_key)
    return exps, p.terms[exps]


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise IterationLimitError(
                "reduction step budget exhausted; the input is too large "
                "for an exact local standard basis")


def _times(row, exps, coeff):
    return tuple(p.mul_term(exps, coeff) for p in row)


def _minus(row, other):
    return tuple(p - q for p, q in zip(row, other))


def _primitive(row):
    """The row scaled by the primitive factor of its first entry."""
    scale = row[0].primitive_factor()
    return row if scale == 1 else tuple(p.scaled(scale) for p in row)


def _cut(row, corner):
    """The bare row ``(p,)`` without the terms of p of degree >= corner."""
    p = row[0]
    return (Polynomial._raw(p.variables, {e: c for e, c in p.terms.items()
                                          if monomial_degree(e) < corner}),)


def _mora(row, basis, budget, corner=None):
    """Weak normal form of ``row[0]`` against the first entries of the
    ``basis`` rows, with every step applied to the whole row.

    The returned row r satisfies u * row[0] = sum(q_k * basis_k[0]) + r[0]
    for some unit u and polynomials q_k, and r[0] is primitive or zero;
    with a ``corner`` N (bare rows only) the identity holds modulo m^N and
    r[0] has no term of degree >= N.
    """
    # reducer pool entries: (row, lead exps, lead coeff, ecart), where the
    # ecart is the total degree spread between a row and its leading term
    pool = []
    for b in basis:
        lead, lc = _leading(b[0])
        pool.append((b, lead, lc, b[0].degree() - monomial_degree(lead)))
    h = row
    while not h[0].is_zero():
        h = _primitive(h)
        lead_h, lc_h = _leading(h[0])
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
        ec_h = h[0].degree() - monomial_degree(lead_h)
        if best[3] > ec_h:
            pool.append((h, lead_h, lc_h, ec_h))
        h = _minus(h, _times(best[0], monomial_div(lead_h, best[1]),
                             lc_h / best[2]))
        if corner is not None:
            h = _cut(h, corner)
    return h


def _complete(rows, truncate=False):
    """Standard basis rows of the ideal of the rows' first entries.

    With ``truncate`` (bare rows only) every term at or above the highest
    corner is dropped once there is one: the rows then have the leading
    ideal of the input but equal its elements only modulo m^N.
    """
    budget = _Budget(DEFAULT_STEP_LIMIT)
    basis = [_primitive(row) for row in rows]
    leads = [_leading(row[0]) for row in basis]
    nvars = len(basis[0][0].variables)
    corner = None
    grew = truncate
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        if grew:
            grew = False
            new_corner = _corner([lead for lead, _ in leads], nvars)
            if new_corner != corner:
                corner = new_corner
                basis = [row if monomial_degree(lead) >= corner
                         else _cut(row, corner)
                         for row, (lead, _) in zip(basis, leads)]
        i, j = pairs.pop(0)
        (lead_i, lc_i), (lead_j, lc_j) = leads[i], leads[j]
        both = monomial_lcm(lead_i, lead_j)
        if both == monomial_mul(lead_i, lead_j):
            continue  # product criterion
        s = _minus(_times(basis[i], monomial_div(both, lead_i), 1 / lc_i),
                   _times(basis[j], monomial_div(both, lead_j), 1 / lc_j))
        if corner is not None:
            s = _cut(s, corner)
        rem = _mora(s, basis, budget, corner)
        if rem[0].is_zero():
            continue
        new_index = len(basis)
        basis.append(rem)
        pairs.extend((k, new_index) for k in range(new_index))
        leads.append(_leading(rem[0]))
        grew = truncate
    return basis


def standard_basis(gens: IdealGens) -> StandardBasis:
    """Buchberger-style completion with Mora normal form and lift tracking."""
    n = len(gens.generators)
    zero = Polynomial.zero(gens.variables)
    one = Polynomial.constant(gens.variables, 1)
    basis = _complete([(g,) + tuple(one if k == j else zero for k in range(n))
                       for j, g in enumerate(gens.generators)])
    elements = tuple(row[0] for row in basis)
    return StandardBasis(elements,
                         tuple(_leading(p)[0] for p in elements),
                         tuple(row[1:] for row in basis))


def _staircase(leads: list[Exponents], nvars: int):
    """Monomials outside the monomial ideal generated by ``leads``, or None
    while some variable has no pure power among them."""
    bounds = []
    for i in range(nvars):
        pures = [l[i] for l in leads if monomial_degree(l) == l[i]]
        if not pures:
            return None
        bounds.append(min(pures))
    # the ideal is closed upward, so over each prefix of the other exponents
    # the last exponent runs up to the lowest lead below that prefix
    stairs = []
    for prefix in itertools.product(*(range(b) for b in bounds[:-1])):
        height = min(l[-1] for l in leads if monomial_divides(l[:-1], prefix))
        stairs.extend(prefix + (k,) for k in range(height))
    return stairs


def _staircase_count(leads: list[Exponents], nvars: int):
    """Number of monomials outside the monomial ideal, or INFINITE."""
    stairs = _staircase(leads, nvars)
    return INFINITE if stairs is None else len(stairs)


def _corner(leads: list[Exponents], nvars: int):
    """The highest-corner degree N: 1 + the top degree of the staircase, so
    m^N lies in the monomial ideal; None while the staircase is infinite."""
    stairs = _staircase(leads, nvars)
    if stairs is None:
        return None
    return 1 + max(map(monomial_degree, stairs), default=-1)


def quotient_dim(gens: IdealGens):
    """Vector-space dimension of O_{m,0} / <gens>, or INFINITE.

    Finite exactly when the leading ideal contains a pure power of every
    variable; the value is then the number of staircase monomials.
    """
    basis = _complete([(g,) for g in gens.generators], truncate=True)
    return _staircase_count([_leading(row[0])[0] for row in basis],
                            len(gens.variables))


def membership_with_cofactors(targets, gens: IdealGens):
    """Certified membership of each target polynomial in the local ideal
    of ``gens``, all against one standard basis.

    Returns one (unit, cofactors) pair per target, with
    unit * p = sum(cofactors_i * gens_i) exactly and unit(0) = 1, or raises
    NotMemberError whose ``index`` is the first target outside the ideal.
    """
    zero = Polynomial.zero(gens.variables)
    start = ((Polynomial.constant(gens.variables, 1),)
             + (zero,) * len(gens.generators))
    sb = standard_basis(gens)
    # rows (p, unit, cofactors) with p = unit * target + sum(cofactor_j * g_j)
    basis = [(b, zero) + lift for b, lift in zip(sb.elements, sb.lifts)]
    budget = _Budget(DEFAULT_STEP_LIMIT)
    certificates = []
    for index, p in enumerate(targets):
        rem = _mora((p,) + start, basis, budget)
        if not rem[0].is_zero():
            raise NotMemberError(
                f"target {index}: {p} is not in the local ideal "
                f"(normal form {rem[0]})", index)
        # 0 = u * p + sum(c_j * g_j); normalize so the unit is 1 at 0
        scale = Fraction(1) / rem[1].constant_term
        unit = rem[1].scaled(scale)
        cofactors = tuple(c.scaled(-scale) for c in rem[2:])
        check = unit * p
        for c, g in zip(cofactors, gens.generators):
            check = check - c * g
        if not check.is_zero():
            raise InternalCheckError(
                "membership certificate failed to re-expand")
        certificates.append((unit, cofactors))
    return tuple(certificates)


# ---------------------------------------------------------------------------
# Macaulay-matrix oracle

MACAULAY_MAX_DEGREE = 24


def _echelon_insert(pivots, row):
    """Reduce the integer row ``{column key: coeff}`` against the ``pivots``
    (each keyed by its lowest column) and file what is left under its lowest
    column.  True if the row filed a pivot, False if it reduced to zero.

    Each step scales the whole row, so the row stays an integer combination
    of the inserted rows and every entry sits at or after its pivot.
    """
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            g = gcd(*row.values())
            pivots[lead] = {c: v // g for c, v in row.items()}
            return True
        g = gcd(row[lead], pivot[lead])
        a, b = row[lead] // g, pivot[lead] // g
        if b != 1:
            row = {c: v * b for c, v in row.items()}
        for c, v in pivot.items():
            acc = row.get(c, 0) - v * a
            if acc:
                row[c] = acc
            else:
                del row[c]
    return False


def quotient_dim_macaulay(gens: IdealGens) -> int:
    """Quotient dimension by linear algebra, independent of standard bases.

    One fraction-free echelon form of the monomial multiples g*s of the
    generators, each row pivoting on its lowest column; the multiples of
    lowest degree D-1 join it at step D.  A row has no entry below its
    pivot, so the pivots of degree < D are the rank of the multiples cut
    below degree D, and c(D) = C(D-1+n, n) - rank = dim O/(I + m^D).  At the
    first D with c(D) = c(D-1), m^(D-1) lies in I + m^D, hence in I by
    Nakayama's lemma, and c(D) is the dimension.

    A monomial e is the integer key deg(e)*B^n + sum(e_i*B^i), with B
    above every exponent a multiple can reach, so keys order columns by
    degree first, multiplying by s adds key(s) to every key, and the pivots
    of degree < D are the keys below D*B^n.  Within a step the rows join by
    generator, then multiplier key.  A multiple g*s of degree k = deg s >= 1
    joins only if g*(s/x_i) filed a pivot at step D-1 for every x_i dividing
    s: a row that reduced to zero is a combination of earlier rows, and
    their multiples by x_i come before g*s, so every skipped row lies in the
    span of the rows already inserted and no c(D) changes.

    Only meaningful (and guaranteed to stabilize) for zero-dimensional
    ideals; raises InfiniteDimensionError past MACAULAY_MAX_DEGREE.
    """
    nvars = len(gens.variables)
    base = 1 + MACAULAY_MAX_DEGREE + max(g.degree() for g in gens.generators)
    top = base ** nvars
    variable_keys = [top + base ** i for i in range(nvars)]

    def key(e):
        return sum(e) * top + sum(a * base ** i for i, a in enumerate(e))

    rows = []
    for g in gens.generators:
        scale = g.primitive_factor()
        row = [(key(e), int(c * scale)) for e, c in g.terms.items()]
        rows.append((min(row)[0] // top, row))
    multipliers = [[0]]  # by degree k: the keys of the monomials s, ascending
    dead = [set() for _ in rows]  # the s whose g*s filed no pivot, per step
    pivots: dict = {}
    previous = None
    for degree in range(1, MACAULAY_MAX_DEGREE + 1):
        for j, (low, row) in enumerate(rows):
            k = degree - 1 - low  # deg s, so that g*s starts at D-1
            if k < 0:
                continue
            if k == len(multipliers):
                multipliers.append(sorted({s + x for s in multipliers[-1]
                                           for x in variable_keys}))
            # skip g*s if some g*(s/x_i) filed no pivot at the last step
            dead[j] = {s + x for s in dead[j] for x in variable_keys}
            for s in multipliers[k]:
                if s not in dead[j] and not _echelon_insert(
                        pivots, {e + s: c for e, c in row}):
                    dead[j].add(s)
        bound = degree * top
        rank = sum(1 for c in pivots if c < bound)
        corank = comb(degree - 1 + nvars, nvars) - rank
        if previous == corank:
            return corank
        previous = corank
    raise InfiniteDimensionError(
        f"Macaulay corank did not stabilize by degree {MACAULAY_MAX_DEGREE}; "
        "the ideal may not be zero-dimensional")
