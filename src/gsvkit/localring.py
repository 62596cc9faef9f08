"""Standard bases and quotient dimensions in the local ring at the origin.

All computations use one local order, anti-degree reverse-lexicographic
(Greuel-Pfister, *A Singular Introduction to Commutative Algebra*, 1.2):
lower total degree ranks larger, ties are broken reverse-lexicographically,
so the constant monomial 1 beats every other monomial.  Division is Mora's
weak normal form with ecart-controlled divisor selection, which terminates
for local orders; completion is Buchberger-style over S-pairs with the
product criterion.

Both work on packed integer rows, converted from and to ``Polynomial`` only
at this module's public functions.  A polynomial already holds integer
numerators over one denominator, so packing a row rewrites their exponent
tuples as keys over the lcm of the row's denominators, and unpacking puts
the integers back over a scale.  A monomial in n variables is one
integer key ``deg << (W*n) | e_{n-1} << (W*(n-1)) | ... | e_0`` with W-bit
exponent fields (Monagan-Pearce, *Sparse polynomial division using a
heap*; Bachmann-Schoenemann, *Monomial representations for Groebner bases
computations*).  The smallest key is the leading monomial of the local
order, so a lead is ``min(p)``, taken in ``_reducer`` alone: completion and
normal form read each lead and ecart from its entries.  Multiplying by a
monomial adds its key; the top bit of each exponent field is a guard bit,
so ``a`` divides ``b`` exactly when ``(b - a) & guard`` is 0, a borrow out
of any field setting its guard bit; and the terms of degree below N are the
keys below ``N << (W*n)``.  Exponents must stay below the guard bit: a row
whose degree reaches ``2**(W-1)`` raises IterationLimitError.

A row is a list of ``{key: integer coefficient}`` dicts whose entries all
undergo the same linear steps, so an invariant linear in the row, such as
``row[0] = sum(row[1 + j] * g_j)`` over some fixed generators g_j, holds
for every row derived from rows that satisfy it.  Row 0 drives the
reduction.  Every step scales the whole row by a positive integer: a Mora
step by ``|lc_r|/g`` against a reducer with leading coefficient ``lc_r``,
an S-pair of leading coefficients lc_i, lc_j by ``sign(lc_i)*|lc_j|/g`` and
``sign(lc_j)*|lc_i|/g``, and each row is divided by the positive gcd of all
its coefficients.  So every row is a positive multiple of the row the same
steps give over the rationals with row 0 kept primitive, and dividing by
the content of row 0 returns exactly those elements and certificates.
Each caller chooses the row width:

  quotient_dim               bare rows ``[p]``: no bookkeeping at all;
                             the dimension is the staircase count of the
                             leading ideal
  check_membership           bare rows ``[p]``: a target is a member
                             exactly when its weak normal form is 0
  membership_with_cofactors  rows ``[p, unit, cofactors]``, which certify
                             ``unit * p = sum(cofactor_j * g_j)`` exactly
                             with the unit invertible at the origin

The bare rows of ``quotient_dim`` are completed with the highest-corner
truncation (Greuel-Pfister 1.7; Singular's ``std`` with a ``noether``
bound).  Once the leading monomials L(G) of the partial basis G contain a
pure power of every variable, let N be 1 + the top degree of their
staircase.  Every monomial of degree N then lies in L(G), so it leads an
element of I; the order ranks lower degree higher, so these elements span
m^N modulo m^(N+1).  Hence m^N lies in I + m * m^N, and Nakayama's lemma
gives m^N in I, so every term of degree >= N is itself in I.  From then on
such terms are dropped from every S-polynomial and after every Mora step.
The stored basis rows are not rewritten when N moves: N only shrinks, so
each row is an element of I or agrees with one modulo m^N' for an older
N' >= N, where m^N' lies in m^N and so in I, and every combination drops
the terms of degree >= N from both of its operands.
The pairs are taken first in, first out, and two kinds are never formed
because their S-polynomial is 0 by construction: a pair of single-term
rows, whose scaled terms cancel exactly, and, once there is a corner, a
pair whose lcm has degree >= N, since every term of x^(lcm - lead) * row
has degree >= deg(lcm) under the local order and the cut drops it.  Either
S-polynomial would reduce to a zero first entry and be discarded, so the
completion adds the same elements in the same order without them.
The staircase is walked once on the generators' leads and again whenever
an element joins the basis; that walk gives N and the count that
``quotient_dim`` returns.  N must be this exact corner: a looser N from the
pure powers x_i^a_i alone, 1 + sum(a_i - 1), is valid too, but the longer
rows it keeps can make the completion thousands of times slower.  Tracked
rows are never truncated: their units and cofactors must re-expand
exactly, and a dropped term of m^N would break that identity.  Nor are the
bare rows of ``check_membership``, whose normal forms are taken in full.

An independent Macaulay-matrix oracle, ``quotient_dim_macaulay``, is
provided for cross-checks.  It keys each monomial as one integer whose
digits are its degree and exponents, with its own power-of-two digit base
and guard bits, so that a row is multiplied by a monomial by adding that
monomial's key.  It works modulo the monomial ideal M of the single-term
generators, whose quotient has the monomials outside M as a basis: M
needs no rows, no multiple g*s with s in M is built, and every other row
loses its terms in M.  It never inserts a multiple g*s*x_i of a row g*s
that reduced to zero or was skipped: that row lies in the span of earlier
rows plus M, and so do their multiples by x_i, which come earlier too, so
the skipped multiple adds nothing to the span (the syzygy criterion of
Faugere's F5).  Before the matrix is built, generators c*x_i + h with h
one term free of x_i eliminate their x_i, which leaves every
dim O/(I + m^D) the same (Greuel-Pfister 1.5).
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from math import gcd, lcm
from operator import le

from .errors import (
    InfiniteDimensionError,
    InternalCheckError,
    IterationLimitError,
    NotMemberError,
)
from .poly import Exponents, Polynomial

DEFAULT_STEP_LIMIT = 10 ** 6


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


# ---------------------------------------------------------------------------
# packed keys and rows

_FIELD = 16  # bits per exponent field, the top one the guard bit
_MASK = (1 << _FIELD) - 1
_DEGREE_LIMIT = 1 << (_FIELD - 1)  # the guard bit of field 0


def _key(exps: Exponents) -> int:
    key = sum(exps)
    for e in reversed(exps):
        key = key << _FIELD | e
    return key


def _exponents(key: int, nvars: int) -> Exponents:
    return tuple(key >> (_FIELD * i) & _MASK for i in range(nvars))


def _guard(nvars: int) -> int:
    return sum(_DEGREE_LIMIT << (_FIELD * i) for i in range(nvars))


def _check_degree(degree, step):
    if degree >= _DEGREE_LIMIT:
        raise IterationLimitError(
            f"degree {degree} in the {step} reached the exponent limit "
            f"{_DEGREE_LIMIT} of the local standard basis")


def _pack(polys):
    """The row of ``polys``: their numerators over the lcm of their
    denominators, keyed by ``_key``."""
    den = lcm(*(p.den for p in polys))
    return [{_key(e): c * (den // p.den) for e, c in p.nums.items()}
            for p in polys]


def _unpack(row, variables, scale):
    """The entries of ``row`` as polynomials, each numerators over the
    nonzero ``scale``."""
    nvars = len(variables)
    shift = _FIELD * nvars
    polys = []
    for entry in row:
        nums = {}
        for key, c in entry.items():
            exps = _exponents(key, nvars)
            if sum(exps) != key >> shift:  # a carry out of an exponent field
                raise InternalCheckError(
                    f"exponent past {_MASK} in a local standard basis row")
            nums[exps] = c
        polys.append(Polynomial._of(variables, nums, scale))
    return tuple(polys)


def _primitive(row):
    """The row divided by the positive gcd of all its coefficients."""
    g = 0
    for entry in row:
        g = gcd(g, *entry.values())
        if g == 1:
            return row
    return [{k: c // g for k, c in entry.items()} for entry in row]


def _combine(a, row, shift_a, b, other, shift_b, cut=None):
    """The row ``a * x^shift_a * row - b * x^shift_b * other``, dropping
    every key at or above ``cut`` when given."""
    out = []
    for entry, sub in zip(row, other):
        if cut is None:
            acc = {k + shift_a: c * a for k, c in entry.items()}
        else:
            below = cut - shift_a
            acc = {k + shift_a: c * a for k, c in entry.items() if k < below}
        for k, c in sub.items():
            k += shift_b
            if cut is not None and k >= cut:
                continue
            c = acc.get(k, 0) - b * c
            if c:
                acc[k] = c
            else:
                del acc[k]
        out.append(acc)
    return out


def _reducer(row, shift):
    """Pool entry (row, lead key, lead coefficient, ecart), where the ecart
    is the total degree spread between row 0 and its leading term."""
    p = row[0]
    lead = min(p)
    return row, lead, p[lead], (max(p) >> shift) - (lead >> shift)


def _mora(row, reducers, budget, nvars, guard, cut=None):
    """Weak normal form of ``row[0]`` against the ``reducers`` (entries of
    ``_reducer``), with every step applied to the whole row; ``guard`` is
    ``_guard(nvars)``.

    The returned row r satisfies u * row[0] = sum(q_k * reducer_k[0]) + r[0]
    up to a positive scale, for some unit u and polynomials q_k, and r is
    primitive or r[0] is zero; with a ``cut`` N << (W*n) (bare rows only)
    the identity holds modulo m^N and r[0] has no term of degree >= N.
    """
    shift = _FIELD * nvars
    pool = list(reducers)
    h = row
    while h[0]:
        current = _reducer(_primitive(h), shift)
        h, lead, lc, ecart = current
        _check_degree(ecart + (lead >> shift), "normal form")
        best = None  # the first divisor of least ecart
        for entry in pool:
            if not (lead - entry[1]) & guard and (best is None
                                                  or entry[3] < best[3]):
                best = entry
                if not best[3]:
                    break
        if best is None:
            break
        budget.spend()
        if best[3] > ecart:
            pool.append(current)
        other, lead_r, lc_r, _ = best
        g = gcd(lc, lc_r)
        h = _combine(abs(lc_r) // g, h, 0, (lc if lc_r > 0 else -lc) // g,
                     other, lead - lead_r, cut)
    return h


def _complete(rows, nvars, truncate=False):
    """Standard basis of the ideal of the rows' first entries, as
    ``_reducer`` entries, the exponents of their leading monomials, and
    the ``_staircase`` of those (None without ``truncate``).

    With ``truncate`` (bare rows only) every term at or above the highest
    corner is dropped once there is one: the rows then have the leading
    ideal of the input but equal its elements only modulo m^N.
    """
    budget = _Budget(DEFAULT_STEP_LIMIT)
    shift = _FIELD * nvars
    guard = _guard(nvars)
    reducers = [_reducer(_primitive(row), shift) for row in rows]
    for _, lead, _, ecart in reducers:
        _check_degree(ecart + (lead >> shift), "completion")
    leads = [_exponents(entry[1], nvars) for entry in reducers]
    stairs = _staircase(leads, nvars) if truncate else None
    pairs = deque(itertools.combinations(range(len(reducers)), 2))
    while pairs:
        cut = None if stairs is None else stairs[1] << shift
        i, j = pairs.popleft()
        row_i, lead_i, lc_i, _ = reducers[i]
        row_j, lead_j, lc_j, _ = reducers[j]
        if len(row_i[0]) == 1 == len(row_j[0]):
            continue  # two monomials: the S-polynomial is 0
        both = _key(tuple(map(max, leads[i], leads[j])))
        if both == lead_i + lead_j:
            continue  # product criterion
        if cut is not None and both >= cut:
            continue  # every term of the S-polynomial has degree >= N
        g = gcd(lc_i, lc_j)
        a = abs(lc_j) // g if lc_i > 0 else -abs(lc_j) // g
        b = abs(lc_i) // g if lc_j > 0 else -abs(lc_i) // g
        s = _combine(a, row_i, both - lead_i, b, row_j, both - lead_j, cut)
        rem = _mora(s, reducers, budget, nvars, guard, cut)
        if not rem[0]:
            continue
        reducers.append(_reducer(rem, shift))
        leads.append(_exponents(reducers[-1][1], nvars))
        pairs.extend((k, len(reducers) - 1) for k in range(len(reducers) - 1))
        if truncate:
            stairs = _staircase(leads, nvars)
    return reducers, leads, stairs


def _staircase(leads: list[Exponents], nvars: int):
    """(count, N) for the monomials outside the monomial ideal generated by
    ``leads``: their number, and N = 1 + their top degree (0 if there are
    none), the least N with m^N in the ideal.  None while some variable has
    no pure power among the leads."""
    bounds = []
    for i in range(nvars):
        pures = [l[i] for l in leads if sum(l) == l[i]]
        if not pures:
            return None
        bounds.append(min(pures))
    # the ideal is closed upward, so over each prefix of the other exponents
    # the last exponent runs up to the lowest lead below that prefix
    count = corner = 0
    for prefix in itertools.product(*(range(b) for b in bounds[:-1])):
        height = min(l[-1] for l in leads if all(map(le, l, prefix)))
        count += height
        if height:
            corner = max(corner, sum(prefix) + height)
    return count, corner


def quotient_dim(gens: IdealGens) -> int:
    """Vector-space dimension of O_{m,0} / <gens>.

    Finite exactly when the leading ideal contains a pure power of every
    variable; the value is then the number of staircase monomials.
    Otherwise raises InfiniteDimensionError.
    """
    _, _, stairs = _complete([_pack((g,)) for g in gens.generators],
                             len(gens.variables), truncate=True)
    if stairs is None:
        raise InfiniteDimensionError("the quotient is not finite-dimensional")
    return stairs[0]


def _reduce_targets(targets, gens: IdealGens, wide: bool):
    """The reduced rows of the targets against one completion of the
    generator rows, or NotMemberError at the first target outside the ideal.

    Bare rows are ``[p]``.  Wide rows are ``[p, unit, cofactors]`` with
    ``p = unit * target + sum(cofactor_j * g_j)``: generator j starts as
    ``[g_j, 0, e_j]`` and each target as ``[target, 1, 0, ..., 0]``.
    """
    variables = gens.variables
    nvars = len(variables)
    n = len(gens.generators)
    zero = Polynomial.zero(variables)
    one = Polynomial.constant(variables, 1)
    if wide:
        tails = [(zero,) + tuple(one if k == j else zero for k in range(n))
                 for j in range(n)]
        start = (one,) + (zero,) * n
    else:
        tails, start = [()] * n, ()
    reducers, _, _ = _complete([_pack((g,) + tail)
                                for g, tail in zip(gens.generators, tails)],
                               nvars)
    budget = _Budget(DEFAULT_STEP_LIMIT)
    guard = _guard(nvars)
    rems = []
    for index, p in enumerate(targets):
        rem = _mora(_pack((p,) + start), reducers, budget, nvars, guard)
        if rem[0]:
            normal_form = _unpack(rem[:1], variables,
                                  gcd(*rem[0].values()))[0]
            raise NotMemberError(
                f"target {index}: {p} is not in the local ideal "
                f"(normal form {normal_form})", index)
        rems.append(rem)
    return rems


def check_membership(targets, gens: IdealGens) -> None:
    """Raise NotMemberError, whose ``index`` is the first target outside
    the local ideal of ``gens``, unless every target is a member.  Bare
    rows: no certificate is built."""
    _reduce_targets(targets, gens, wide=False)


def membership_with_cofactors(targets, gens: IdealGens):
    """Certified membership of each target polynomial in the local ideal
    of ``gens``, all against one standard basis.

    Returns one (unit, cofactors) pair per target, with
    unit * p = sum(cofactors_i * gens_i) exactly and unit(0) = 1, or raises
    NotMemberError whose ``index`` is the first target outside the ideal.
    """
    variables = gens.variables
    certificates = []
    for p, rem in zip(targets, _reduce_targets(targets, gens, wide=True)):
        # 0 = u * p + sum(c_j * g_j); normalize so the unit is 1 at 0
        unit_at_0 = rem[1].get(0, 0)
        unit = _unpack(rem[1:2], variables, unit_at_0)[0]
        cofactors = _unpack(rem[2:], variables, -unit_at_0)
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
_UNSTABLE = (f"Macaulay corank did not stabilize by degree "
             f"{MACAULAY_MAX_DEGREE}; the ideal may not be zero-dimensional")


def _solved_variable(g):
    """(i, a, b, alpha) when g = c*x_i + h with h one term free of x_i, or
    0, so that g = 0 reads x_i = (a/b)*x^alpha (alpha without x_i, b != 0);
    else None."""
    n = len(g.variables)
    if len(g.nums) > 2:
        return None
    for i in range(n):
        linear = tuple(int(k == i) for k in range(n))
        if linear in g.nums and sum(1 for e in g.nums if e[i]) == 1:
            if len(g.nums) == 1:
                return i, 0, 1, (0,) * (n - 1)
            (e, c), = [(e, c) for e, c in g.nums.items() if e != linear]
            return i, -c, g.nums[linear], e[:i] + e[i + 1:]
    return None


def _substitute(p, i, a, b, alpha):
    """``p`` with x_i -> (a/b)*x^alpha and x_i dropped from the variables,
    without the terms of degree >= MACAULAY_MAX_DEGREE that the
    substitution makes: each x_i^k becomes a^k * b^(t-k) * x^(k*alpha)
    over b^t, t the top power of x_i in p."""
    t = max(e[i] for e in p.nums)
    nums: dict = {}
    for e, c in p.nums.items():
        k = e[i]
        e = e[:i] + e[i + 1:]
        if k:
            e = tuple(d + k * f for d, f in zip(e, alpha))
            if sum(e) >= MACAULAY_MAX_DEGREE:
                continue
        c *= a ** k * b ** (t - k)
        if e in nums:
            c += nums.pop(e)
        if c:  # else cancelled, or a = 0
            nums[e] = c
    return Polynomial._of(p.variables[:i] + p.variables[i + 1:], nums,
                          p.den * b ** t)


def _eliminate_linear(generators):
    """Generators, in fewer variables, of an ideal with the same
    dim O/(I + m^D) for every D <= MACAULAY_MAX_DEGREE (see
    ``quotient_dim_macaulay``).

    While some generator is g = c*x_i + h with h one term free of x_i, or
    0, x_i -> -h/c goes into the others and g and x_i are dropped; one
    variable is always kept.  Each term then goes to at most one term, so
    no generator grows: a denser h would fill the rows of the matrix.  A
    generator with a constant term is a unit, and the ideal is left as it
    is.  Raises InfiniteDimensionError, as the scan would, when no
    generator is left.
    """
    generators = list(generators)
    if any(g.constant_term for g in generators):
        return generators
    while len(generators[0].variables) > 1:
        for j, g in enumerate(generators):
            solved = _solved_variable(g)
            if solved:
                break
        else:
            return generators
        rest = [_substitute(p, *solved)
                for p in generators[:j] + generators[j + 1:]]
        generators = [p for p in rest if not p.is_zero()]
        if not generators:
            raise InfiniteDimensionError(_UNSTABLE)
    return generators


def _echelon_insert(pivots, row):
    """Reduce the integer row ``{column key: coeff}`` against the ``pivots``
    (each keyed by its lowest column) and file what is left under its lowest
    column.  Returns that column, or None if the row reduced to zero.

    Each step scales the whole row, so the row stays an integer combination
    of the inserted rows and every entry sits at or after its pivot.
    """
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            g = gcd(*row.values())
            pivots[lead] = {c: v // g for c, v in row.items()}
            return lead
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
    return None


def quotient_dim_macaulay(gens: IdealGens) -> int:
    """Quotient dimension by linear algebra, independent of standard bases.

    The single-term generators span a monomial ideal M in I, and O/M has
    the monomials outside M as a basis (Cox-Little-O'Shea, *Ideals,
    Varieties, and Algorithms*, 2.4 and 5.3).  So the scan runs in O/M: the
    other generators g give one fraction-free echelon form of the monomial
    multiples g*s, s outside M (a row g*s with s in M lies in M), each row
    cut to its terms outside M and pivoting on its lowest column; the
    multiples of lowest degree D-1 join it at step D.  A row has no entry
    below its pivot, so the pivots of degree < D are the rank of the
    multiples cut below degree D, and c(D) = (monomials of degree < D
    outside M) - rank = dim O/(I + m^D).  At the first D with
    c(D) = c(D-1), m^(D-1) lies in I + m^D, hence in I by Nakayama's lemma,
    and c(D) is the dimension.  Every c(D) is the one the full matrix of
    all generators gives.

    A monomial e is the integer key deg(e)*B^n + sum(e_i*B^i), with B a
    power of two whose top bit lies above every exponent a multiple can
    reach, so keys order columns by degree first, multiplying by s adds
    key(s) to every key, and e lies in M exactly when (key(e) - key(u)) has
    no top digit bit set for some generator u of M, a borrow out of any
    digit setting its top bit.  Within a step the rows join by generator,
    then multiplier key.  A multiple g*s of degree k = deg s >= 1 joins
    only if g*(s/x_i) filed a pivot at step D-1 for every x_i dividing s: a
    row that reduced to zero lies in the span of earlier rows plus M, and
    the multiples by x_i of those rows come before g*s, so every skipped
    row lies in the span of the rows already inserted plus M and no c(D)
    changes (the syzygy criterion of Faugere's F5).

    The matrix is built after ``_eliminate_linear``: a generator c*x_i + h
    with h one term free of x_i removes x_i and itself, x_i -> -h/c going
    into the others.  The substitution maps m
    onto the maximal ideal of the smaller ring and I + m^D onto the image
    ideal plus its D-th power, so every c(D), the stop degree and the
    behaviour at MACAULAY_MAX_DEGREE stay the same; the terms of degree
    >= MACAULAY_MAX_DEGREE it makes lie in every m^D the scan reads and are
    dropped.  With n smaller there are fewer columns and multiples.

    Only meaningful (and guaranteed to stabilize) for zero-dimensional
    ideals; raises InfiniteDimensionError past MACAULAY_MAX_DEGREE.
    """
    generators = _eliminate_linear(gens.generators)
    nvars = len(generators[0].variables)
    width = (MACAULAY_MAX_DEGREE + max(g.degree() for g in generators)
             ).bit_length() + 1
    top = 1 << (width * nvars)
    guard = sum(1 << (width * i + width - 1) for i in range(nvars))
    variable_keys = [top + (1 << (width * i)) for i in range(nvars)]

    def key(e):
        return sum(e) * top + sum(a << (width * i) for i, a in enumerate(e))

    m_generators = [key(e) for g in generators if len(g.nums) == 1
                    for e in g.nums]

    known = {}  # column key -> whether it lies outside M

    def outside(k):
        result = known.get(k)
        if result is None:
            result = known[k] = all((k - u) & guard for u in m_generators)
        return result

    rows = []
    for g in generators:
        if len(g.nums) > 1:
            row = [(key(e), c) for e, c in g.nums.items()]
            rows.append((min(row)[0] // top, row))
    multipliers = [[0] if outside(0) else []]  # by degree: s outside M
    dead = [set() for _ in rows]  # the s whose g*s filed no pivot, per step
    filed = Counter()  # pivots by degree
    pivots: dict = {}
    corank, previous = 0, None
    for degree in range(1, MACAULAY_MAX_DEGREE + 1):
        for j, (low, row) in enumerate(rows):
            k = degree - 1 - low  # deg s, so that g*s starts at D-1
            if k < 0:
                continue
            # skip g*s if some g*(s/x_i) filed no pivot at the last step
            dead[j] = {s + x for s in dead[j] for x in variable_keys}
            for s in multipliers[k]:
                if s in dead[j]:
                    continue
                lead = _echelon_insert(pivots, {
                    e + s: c for e, c in row if outside(e + s)})
                if lead is None:
                    dead[j].add(s)
                else:
                    filed[lead // top] += 1
        # every pivot of degree D-1 is filed by now: later rows start higher
        corank += len(multipliers[-1]) - filed[degree - 1]
        if previous == corank:
            return corank
        previous = corank
        multipliers.append(sorted({s + x for s in multipliers[-1]
                                   for x in variable_keys if outside(s + x)}))
    raise InfiniteDimensionError(_UNSTABLE)
