"""Mora division, standard bases, quotient dimensions and the oracle."""

import itertools
import math
import operator
import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsvkit import localring
from gsvkit.errors import (
    InfiniteDimensionError,
    IterationLimitError,
    NotMemberError,
)
from gsvkit.localring import (
    IdealGens,
    _DEGREE_LIMIT,
    _FIELD,
    _Budget,
    _complete,
    _eliminate_linear,
    _exponents,
    _guard,
    _key,
    _mora,
    _pack,
    _reducer,
    _staircase,
    _unpack,
    check_membership,
    membership_with_cofactors,
    quotient_dim,
    quotient_dim_macaulay,
)
from gsvkit.poly import Polynomial, parse_polynomial

X1 = ("x",)
X2 = ("x", "y")
X3 = ("x1", "x2", "x3")
X4 = ("x1", "x2", "x3", "x4")
Y3 = ("y1", "y2", "y3")


def P(text, variables=X3):
    return parse_polynomial(text, variables)


def gens(*texts, variables=X3):
    return IdealGens(tuple(P(t, variables) for t in texts))


# ---------------------------------------------------------------------------
# the local order and its packed keys

def local_order(exps):
    """The local order written out: a larger value is a larger monomial."""
    return -sum(exps), tuple(-e for e in reversed(exps))


def lead(p):
    """(exponents, coefficient) of the leading term of a nonzero integer p."""
    row = _pack((p,))[0]
    key = min(row)
    return _exponents(key, len(p.variables)), row[key]


def box_staircase(leads, nvars):
    """The monomials outside the monomial ideal generated by ``leads``, in
    lexicographic order, from a scan of a box that holds them all; None
    while some variable has no pure power among the leads."""
    box = []
    for i in range(nvars):
        pures = [l[i] for l in leads if sum(l) == l[i]]
        if not pures:
            return None
        box.append(range(min(pures)))
    return [e for e in itertools.product(*box)
            if not any(all(map(operator.le, l, e)) for l in leads)]


def test_local_order_constant_is_largest():
    one = (0, 0, 0)
    for exps in [(1, 0, 0), (0, 2, 0), (1, 1, 1)]:
        # the smallest key is the largest monomial
        assert _key(one) < _key(exps)
        # printing runs the other way: a degree order puts 1 last
        assert str(Polynomial(X3, {one: 1, exps: 1})).endswith(" + 1")


def test_local_leading_term_prefers_low_degree():
    exps, coeff = lead(P("x3^2 - x1"))
    assert exps == (1, 0, 0)
    assert coeff == -1


def test_key_order_is_the_local_order():
    rng = random.Random(5)
    for nvars in range(1, 5):
        monomials = list({tuple(rng.randint(0, 6) for _ in range(nvars))
                          for _ in range(300)})
        assert (sorted(monomials, key=_key)
                == sorted(monomials, key=local_order, reverse=True))
        for exps in monomials:
            assert _exponents(_key(exps), nvars) == exps


def test_guard_bit_divisibility_is_componentwise():
    rng = random.Random(6)
    top = _DEGREE_LIMIT - 1  # the largest exponent below the guard bit
    for nvars in range(1, 5):
        guard = _guard(nvars)
        for _ in range(400):
            a, b = (tuple(rng.choice([0, 1, 2, 3, top - 1, top])
                          for _ in range(nvars)) for _ in range(2))
            divides = not (_key(b) - _key(a)) & guard
            assert divides == all(x <= y for x, y in zip(a, b))
            # multiplying by a monomial adds its key
            assert _key(a) + _key(b) == _key(tuple(map(sum, zip(a, b))))


def test_exponent_field_guard():
    power = 2 ** (_FIELD - 1)
    assert power == _DEGREE_LIMIT
    assert quotient_dim(gens(f"x^{power - 1}", variables=X1)) == power - 1
    with pytest.raises(IterationLimitError,
                       match=f"degree {power} in the completion"):
        quotient_dim(gens(f"x^{power}", variables=X1))
    # the first row too large is named, by its top degree, not its lead
    with pytest.raises(IterationLimitError,
                       match=f"degree {power + 1} in the completion"):
        quotient_dim(gens("x^2", f"x + x^{power + 1}", f"x^{power}",
                          variables=X1))
    with pytest.raises(IterationLimitError,
                       match=f"degree {power} in the normal form"):
        membership_with_cofactors([P(f"x^{power}", X1)],
                                  gens("x", variables=X1))


# ---------------------------------------------------------------------------
# Mora normal form

def mora(p, g, steps=10 ** 6):
    """(unit, cofactors, remainder) of _mora against g's generators, read
    off rows (h, u, c_1..c_n) with h = u * p + sum(c_i * g_i): the dividend
    row is (p, 1, 0..0) and generator i has the row (g_i, 0, e_i).  The
    packed row is a positive multiple of that identity; it is divided by
    u(0), so the unit returned is 1 at the origin."""
    n = len(g.generators)
    nvars = len(p.variables)
    zero = Polynomial.zero(p.variables)

    def column(i):
        return Polynomial.constant(p.variables, i)

    reducers = [_reducer(_pack((gen, zero) + tuple(column(int(k == i))
                                                   for k in range(n))),
                         _FIELD * nvars)
                for i, gen in enumerate(g.generators)]
    row = _mora(_pack((p, column(1)) + (zero,) * n), reducers,
                _Budget(steps), nvars, _guard(nvars))
    rem, unit, *cof = _unpack(row, p.variables, row[1][0])
    return unit, [-c for c in cof], rem


def reexpands(p, g, unit, cof, rem):
    """unit * p = sum(cof_i * g_i) + rem exactly, with unit(0) != 0."""
    acc = unit * p - rem
    for c, gen in zip(cof, g.generators):
        acc = acc - c * gen
    return acc.is_zero() and bool(unit.constant_term)


def test_mora_unit_factor_in_local_ring():
    unit, cof, rem = mora(P("x", X1), gens("x - x^2", variables=X1))
    assert rem.is_zero()
    assert unit == P("1 - x", X1)
    assert cof == [P("1", X1)]


def test_mora_constant_is_irreducible():
    unit, _, rem = mora(P("1"), gens("x1", "x2"))
    assert rem == P("1")
    assert unit == P("1")


def test_mora_cofactors_cusp():
    unit, cof, rem = mora(P("x1 - x2^3"), gens("x1", "x2"))
    assert rem.is_zero()
    assert unit == P("1")
    assert cof == [P("1"), P("-x2^2")]


def test_mora_identity_verifies():
    dividend = P("x1^2 + x2*x3 - x3^3")
    g = gens("x1 - x2^3", "x3^2 - x1")
    assert reexpands(dividend, g, *mora(dividend, g))


def test_mora_randomized_reexpansion():
    rng = random.Random(11)
    base = [P("x1 - x2^3"), P("x3^2 - x1"), P("x2^2 + x3^3")]
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            terms[exps] = rng.randint(-5, 5)
        dividend = Polynomial(X3, terms)
        g = IdealGens(tuple(base))
        unit, cof, rem = mora(dividend, g)
        assert reexpands(dividend, g, unit, cof, rem)
        assert unit.constant_term != 0


def test_mora_step_cap():
    with pytest.raises(IterationLimitError):
        mora(P("x1 - x2^3"), gens("x1", "x2"), steps=1)


# ---------------------------------------------------------------------------
# standard bases

def completion(ideal, tracked=False):
    """(elements, leading monomials) of the untruncated completion of the
    generators' rows, bare ``[g_j]`` or tracked ``[g_j, e_j]``, each element
    divided by its content."""
    variables = ideal.variables
    n = len(ideal.generators)
    tails = [tuple(Polynomial.constant(variables, int(k == j))
                   for k in range(n)) if tracked else ()
             for j in range(n)]
    entries, leads, _ = _complete(
        [_pack((g,) + tail) for g, tail in zip(ideal.generators, tails)],
        len(variables))
    elements = tuple(_unpack(entry[0][:1], variables,
                             gcd(*entry[0][0].values()))[0]
                     for entry in entries)
    return elements, tuple(leads)


def test_standard_basis_maximal_ideal():
    _, leads = completion(gens("x1", "x2", "x3"))
    assert set(leads) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_standard_basis_worked_example_leading_ideal():
    _, leads = completion(gens("6*x1", "2*x2", "3*x3", "x1 - x2^3",
                               "x3^2 - x1"))
    assert box_staircase(leads, 3) == [(0, 0, 0)]
    assert _staircase(leads, 3) == (1, 1)


def test_standard_basis_local_leading_term():
    # x1 - x2^3 leads with x1 locally, so x1 joins the staircase walls
    _, leads = completion(gens("x2^2", "x3", "x1 - x2^3"))
    assert box_staircase(leads, 3) == [(0, 0, 0), (0, 1, 0)]
    assert _staircase(leads, 3) == (2, 2)


def test_standard_basis_exact_rational_rows():
    """The basis of the rational completion with each element primitive:
    signs and leading monomials are pinned, so a step that scales a row by
    a negative factor shows."""
    elements, leads = completion(gens("4*x1 - 2*x2^3", "x3^2 - 3*x1",
                                      "-x2*x3 + 5*x1^2"))
    assert elements == tuple(map(P, [
        "-x2^3 + 2*x1", "x3^2 - 3*x1", "5*x1^2 - x2*x3",
        "-3*x2^3 + 2*x3^2", "-5*x1*x2^3 + 2*x2*x3",
        "5*x1*x2^3*x3 - 3*x2^4"]))
    assert leads == ((1, 0, 0), (1, 0, 0), (2, 0, 0),
                     (0, 0, 2), (0, 1, 1), (0, 4, 0))
    # Mora steps and an S-pair against negative leading coefficients
    elements, leads = completion(gens("x1*x2^3 - 3*x1^3*x2^3 - 2*x3^2",
                                      "-3*x1*x2*x3 - 3*x1*x2*x3^2"))
    assert elements == tuple(map(P, [
        "-3*x1^3*x2^3 + x1*x2^3 - 2*x3^2", "-x1*x2*x3^2 - x1*x2*x3",
        "3*x1^4*x2^4 - x1^2*x2^4 + 2*x1*x2*x3^4"]))
    assert leads == ((0, 0, 2), (1, 1, 1), (2, 4, 0))


# ---------------------------------------------------------------------------
# quotient dimensions

def test_quotient_dim_worked_example_all_four():
    assert quotient_dim(gens("6*x1", "2*x2", "3*x3", "x1 - x2^3",
                             "x3^2 - x1")) == 1
    assert quotient_dim(gens("-3*x2^2", "2*x3", "-6*x3*x2^2", "x1 - x2^3",
                             "x3^2 - x1")) == 2
    assert quotient_dim(gens("-3*y2^2", "4*y1*y3", "-6*y2^2*y3",
                             "y1^2 - y2^3", "y3^2 - y1",
                             variables=Y3)) == 6
    assert quotient_dim(gens("-6*y1", "-4*y2", "-3*y3", "y1^2 - y2^3",
                             "y3^2 - y1", variables=Y3)) == 1


def test_quotient_dim_unit_factor_local_vs_global():
    # <x - x^2> is <x> locally; a global Groebner computation would say 2
    assert quotient_dim(gens("x - x^2", variables=X1)) == 1


def test_quotient_dim_staircase_box():
    assert quotient_dim(gens("x^2", "y^3", variables=X2)) == 6


def test_quotient_dim_infinite():
    with pytest.raises(InfiniteDimensionError):
        quotient_dim(gens("x", variables=X2))


def test_quotient_dim_maximal_ideal_every_dimension():
    for m in range(1, 5):
        variables = tuple(f"x{i}" for i in range(1, m + 1))
        generators = tuple(Polynomial.variable(variables, i)
                           for i in range(m))
        assert quotient_dim(IdealGens(generators)) == 1


def test_quotient_dim_invariances():
    base = ("-3*x2^2", "2*x3", "-6*x3*x2^2", "x1 - x2^3", "x3^2 - x1")
    reference = quotient_dim(gens(*base))
    # permutation
    assert quotient_dim(gens(*reversed(base))) == reference
    # nonzero rational scaling
    scaled = tuple(P(t).scaled(7) for t in base)
    assert quotient_dim(IdealGens(scaled)) == reference
    # multiplication by the local unit 1 + x_i
    unit = P("1 + x2")
    twisted = (P(base[0]) * unit,) + tuple(P(t) for t in base[1:])
    assert quotient_dim(IdealGens(twisted)) == reference


def test_quotient_dim_invertible_linear_parts():
    rng = random.Random(3)
    for _ in range(10):
        m = rng.choice([2, 3])
        variables = tuple(f"x{i}" for i in range(1, m + 1))
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
            det = (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
                   if m == 2 else
                   rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                   - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                   + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
            if det:
                break
        generators = []
        for row in rows:
            p = Polynomial.zero(variables)
            for j, c in enumerate(row):
                p = p + c * Polynomial.variable(variables, j)
            # higher-order noise must not change the answer
            if rng.random() < 0.5:
                e = tuple(rng.randint(0, 2) for _ in range(m))
                if sum(e) >= 2:
                    p = p + Polynomial(variables, {e: rng.randint(-2, 2)})
            generators.append(p)
        assert quotient_dim(IdealGens(tuple(generators))) == 1


def test_staircase_count_and_corner_match_a_box_scan():
    """The count and N = 1 + the top degree from one walk equal a brute-force
    box scan on seeded monomial ideals; N is the exact corner, not a looser
    bound such as 1 + sum(a_i - 1) from the pure powers alone."""
    assert _staircase([(0, 0, 0)], 3) == (0, 0)
    assert _staircase([(0, 0)], 2) == (0, 0)
    assert _staircase([(2, 0), (1, 1)], 2) is None
    assert _staircase([(2, 0), (1, 1), (0, 3)], 2) == (4, 3)
    rng = random.Random(20261019)
    for _ in range(20000):
        nvars = rng.randint(1, 4)
        leads = []
        for i in range(nvars):
            if rng.random() < 0.95:
                leads.append(tuple(rng.randint(1, 4) if k == i else 0
                                   for k in range(nvars)))
        for _ in range(rng.randint(0, 4)):
            leads.append(tuple(rng.randint(0, 3) for _ in range(nvars)))
        if not leads:
            leads.append((0,) * nvars)
        rng.shuffle(leads)
        stairs = box_staircase(leads, nvars)
        expected = None if stairs is None else (
            len(stairs), 1 + max(map(sum, stairs), default=-1))
        assert _staircase(leads, nvars) == expected, leads


def test_quotient_dim_builds_no_lifts(monkeypatch):
    # the dimension path completes bare rows, truncated at the highest
    # corner, once per ideal
    calls = []
    original = localring._complete

    def spy(rows, nvars, truncate=False):
        calls.append(([len(row) for row in rows], truncate))
        return original(rows, nvars, truncate)

    monkeypatch.setattr(localring, "_complete", spy)
    assert quotient_dim(gens("x^2", "y^3", variables=X2)) == 6
    assert quotient_dim(gens("x1 - x2^3", "x3^2 - x1", "x2*x3")) == 5
    with pytest.raises(InfiniteDimensionError):
        quotient_dim(gens("x", variables=X2))
    assert calls == [([1, 1], True), ([1, 1, 1], True), ([1], True)]


def test_quotient_dim_walks_once_per_new_element(monkeypatch):
    # one walk on the generators' leads, one after each element joins the
    # basis, and none after the completion returns its staircase
    walks, seen = [], []
    walk, complete = localring._staircase, localring._complete

    def counted_walk(leads, nvars):
        walks.append(len(leads))
        return walk(leads, nvars)

    def spy(rows, nvars, truncate=False):
        out = complete(rows, nvars, truncate)
        seen.append((len(rows), len(walks), out))
        return out

    monkeypatch.setattr(localring, "_staircase", counted_walk)
    monkeypatch.setattr(localring, "_complete", spy)
    ideal = gens("x1 - x2^3", "x3^2 - x1", "x2*x3")
    assert quotient_dim(ideal) == 5
    [(generators, walked, (reducers, leads, stairs))] = seen
    assert len(reducers) > generators  # the completion added elements
    assert walks == list(range(generators, len(reducers) + 1))
    assert walked == len(walks)
    assert stairs == walk(leads, 3) == (5, 4)


def test_completion_forms_no_dead_s_pair(monkeypatch):
    # an S-polynomial whose lcm has degree >= the corner N is 0 modulo
    # m^N, and one of two single-term rows is 0: neither is formed
    formed = []
    combine = localring._combine
    shift = _FIELD * 3

    def spy(a, row, shift_a, b, other, shift_b, cut=None):
        if sys._getframe(1).f_code.co_name == "_complete":
            lcm_degree = (min(row[0]) + shift_a) >> shift
            formed.append((lcm_degree, None if cut is None else cut >> shift,
                           len(row[0]), len(other[0])))
        return combine(a, row, shift_a, b, other, shift_b, cut)

    monkeypatch.setattr(localring, "_combine", spy)
    assert quotient_dim(gens("x1 - x2^3", "x3^2 - x1", "x2*x3")) == 5
    # the pair of the single-term elements x2*x3 and x2^4, whose lcm has
    # degree 5 >= N = 4, is not formed
    assert len(formed) == 2
    for lcm_degree, corner, terms_i, terms_j in formed:
        assert corner is None or lcm_degree < corner
        assert max(terms_i, terms_j) > 1


def test_sweep_ideal_104_is_rejected_fast():
    # a C^3 ideal of a seeded random sweep on which a pair order by lcm
    # degree runs for seconds; first in, first out rejects it at once
    ideal = gens("2*x0^2*x2 + 2*x0*x1*x2", "5*x0*x1 - x2^2 + 2*x0 + 5*x2",
                 "-3*x0^2*x1^2*x2 - x1^2*x2^2 - 3*x0^2 + 2*x0*x2",
                 "-3*x1^2*x2^2 + x0^2 - 3*x0", variables=("x0", "x1", "x2"))
    start = time.perf_counter()
    with pytest.raises(InfiniteDimensionError):
        quotient_dim(ideal)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# membership with certificates

def test_membership_first_row():
    [(unit, cof)] = membership_with_cofactors(
        [P("6*x1 - 6*x2^3")], gens("x1 - x2^3", "x3^2 - x1"))
    assert unit == P("1")
    assert cof == (P("6"), P("0"))


def test_membership_second_row():
    [(unit, cof)] = membership_with_cofactors(
        [P("6*x3^2 - 6*x1")], gens("x1 - x2^3", "x3^2 - x1"))
    assert unit == P("1")
    assert cof == (P("0"), P("6"))


def test_membership_rejects_nonmember():
    with pytest.raises(NotMemberError) as caught:
        membership_with_cofactors([P("1")], gens("x1 - x2^3", "x3^2 - x1"))
    assert caught.value.index == 0


def test_membership_needs_standard_basis_detour():
    # x3^2 - x2^3 is in the ideal but is irreducible against the raw
    # generators (both lead with x1 locally); the certificate must come
    # through the completed basis
    g = gens("x1 - x2^3", "x3^2 - x1")
    target = P("x3^2 - x2^3")
    [(unit, cof)] = membership_with_cofactors([target], g)
    acc = unit * target
    for c, generator in zip(cof, g.generators):
        acc = acc - c * generator
    assert acc.is_zero()
    assert unit.constant_term


def test_membership_many_targets_one_basis(monkeypatch):
    g = gens("x1 - x2^3", "x3^2 - x1")
    targets = [P("6*x1 - 6*x2^3"), P("x3^2 - x2^3"), P("6*x3^2 - 6*x1")]
    calls = []
    original = localring._complete

    def counting(rows, nvars, truncate=False):
        calls.append(rows)
        return original(rows, nvars, truncate)

    monkeypatch.setattr(localring, "_complete", counting)
    certificates = membership_with_cofactors(targets, g)
    assert len(calls) == 1
    assert certificates[0] == (P("1"), (P("6"), P("0")))
    assert certificates[2] == (P("1"), (P("0"), P("6")))
    for target, (unit, cof) in zip(targets, certificates):
        acc = unit * target
        for c, generator in zip(cof, g.generators):
            acc = acc - c * generator
        assert acc.is_zero()
    with pytest.raises(NotMemberError) as caught:
        membership_with_cofactors(targets[:2] + [P("x2")], g)
    assert caught.value.index == 2


def test_check_membership_bare_rows_where_certificates_stall():
    # the tracked rows of this ideal grow for seconds; bare rows decide
    # membership in a fraction of one
    g = gens("3*x1*x2^2*x3^2 + x1*x2*x3^3 + 7*x1^3 - x1",
             "7*x1^2*x2^3 + 2*x1^2*x2^2*x3 + 7*x3",
             "-5*x1*x2*x3^2 + 3*x1*x3^3 - 5*x1^3")
    g1, g2, g3 = g.generators
    check_membership([P("x2") * g1 + P("x1") * g2 + P("x3^2") * g3], g)
    with pytest.raises(NotMemberError) as caught:
        check_membership([P("x2")], g)
    assert caught.value.index == 0


def test_membership_zero_is_member():
    [(unit, cof)] = membership_with_cofactors([P("0")], gens("x1", "x2"))
    assert unit == P("1")
    assert all(c.is_zero() for c in cof)


# ---------------------------------------------------------------------------
# Macaulay-matrix oracle

def test_oracle_matches_worked_example():
    assert quotient_dim_macaulay(
        gens("6*x1", "2*x2", "3*x3", "x1 - x2^3", "x3^2 - x1")) == 1
    assert quotient_dim_macaulay(
        gens("-3*x2^2", "2*x3", "-6*x3*x2^2", "x1 - x2^3", "x3^2 - x1")) == 2
    assert quotient_dim_macaulay(
        gens("-3*y2^2", "4*y1*y3", "-6*y2^2*y3", "y1^2 - y2^3", "y3^2 - y1",
             variables=Y3)) == 6
    assert quotient_dim_macaulay(
        gens("-6*y1", "-4*y2", "-3*y3", "y1^2 - y2^3", "y3^2 - y1",
             variables=Y3)) == 1


def test_oracle_local_unit_factor():
    assert quotient_dim_macaulay(gens("x - x^2", variables=X1)) == 1


def random_zero_dim_ideal(rng, max_power=3):
    """Zero-dimensional by construction: a pure power per variable (plus
    optional higher-degree tails) and a few extra random generators."""
    m = rng.choice([1, 2, 3])
    variables = tuple(f"x{i}" for i in range(1, m + 1))
    generators = []
    for i in range(m):
        power = rng.randint(1, max_power)
        exps = [0] * m
        exps[i] = power
        p = Polynomial(variables, {tuple(exps): rng.choice([1, 2, -3])})
        for _ in range(rng.randint(0, 2)):
            tail = tuple(rng.randint(0, max_power) for _ in range(m))
            if sum(tail) > power:
                p = p + Polynomial(variables, {tail: rng.randint(-3, 3)})
        generators.append(p)
    for _ in range(rng.randint(0, 2)):
        exps = tuple(rng.randint(0, 2) for _ in range(m))
        if sum(exps) >= 1:
            generators.append(Polynomial(variables, {exps: rng.randint(1, 4)}))
    return IdealGens(tuple(generators))


def random_corner_ideal(rng):
    """Zero-dimensional with a highest corner from the start: pure powers
    x_i^a_i among the generators, so m^N lies in the ideal for
    N = sum(a_i - 1) + 1, and further generators with tails of degree
    >= N, which the corner truncation drops."""
    m = rng.choice([1, 2, 3])
    variables = tuple(f"x{i}" for i in range(1, m + 1))
    powers = [rng.randint(2, 4) for _ in range(m)]
    corner = sum(powers) - m + 1
    generators = [Polynomial(variables, {tuple(a if k == i else 0
                                               for k in range(m)): 1})
                  for i, a in enumerate(powers)]

    def monomial(degree):
        exps = [0] * m
        for _ in range(degree):
            exps[rng.randrange(m)] += 1
        return tuple(exps)

    for _ in range(rng.randint(1, 2)):
        low = rng.randint(1, corner - 1)
        terms = {monomial(low + rng.randint(0, 1)): rng.choice([1, 2, -3])
                 for _ in range(rng.randint(1, 3))}
        for _ in range(rng.randint(1, 3)):
            terms[monomial(corner + rng.randint(0, 3))] = rng.randint(-3, 3)
        generators.append(Polynomial(variables, terms))
    return IdealGens(tuple(generators))


def test_oracle_agrees_on_randomized_ideals():
    rng = random.Random(20240914)
    for _ in range(30):
        ideal = random_zero_dim_ideal(rng)
        staircase = quotient_dim(ideal)
        assert staircase <= 30
        assert quotient_dim_macaulay(ideal) == staircase
        # tracked rows and the untruncated bare rows reach the same leading
        # ideal, and the same elements once each is divided by its content
        tracked = completion(ideal, tracked=True)
        assert _staircase(tracked[1], len(ideal.variables))[0] == staircase
        assert completion(ideal) == tracked
    # the corner truncation of the bare rows engages from the first pair
    # and changes no dimension against the untruncated tracked rows
    for _ in range(30):
        ideal = random_corner_ideal(rng)
        nvars = len(ideal.variables)
        assert _staircase([lead(g)[0] for g in ideal.generators],
                          nvars) is not None
        _, leads = completion(ideal, tracked=True)
        assert quotient_dim(ideal) == _staircase(leads, nvars)[0]


def test_seeded_certificates_reexpand():
    """Rational generators and members with unit factors: every
    certificate has unit 1 at the origin and re-expands."""
    rng = random.Random(13)
    for _ in range(20):
        ideal = IdealGens(tuple(
            g.scaled(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
            for g in random_zero_dim_ideal(rng).generators))
        variables = ideal.variables
        targets = []
        for _ in range(3):
            target = Polynomial.zero(variables)
            for g in ideal.generators:
                exps = tuple(rng.randint(0, 2) for _ in variables)
                target = target + g * Polynomial(variables, {exps: Fraction(
                    rng.randint(-3, 3), rng.randint(1, 3))})
            unit = Polynomial(variables, {(0,) * len(variables): 1,
                                          (1,) + (0,) * (len(variables) - 1):
                                          rng.randint(-2, 2)})
            if not target.is_zero():
                targets.append(target * unit)
        certificates = membership_with_cofactors(targets, ideal)
        for target, (unit, cofactors) in zip(targets, certificates):
            assert unit.constant_term == 1
            acc = unit * target
            for c, generator in zip(cofactors, ideal.generators):
                acc = acc - c * generator
            assert acc.is_zero()


def test_oracle_on_ci_batch_tjurina_ideal():
    # the Tjurina ideal of a P^4 ci-batch curve at a coordinate point; the
    # Greuel-Hamm number is 28 too.  Its coefficients are not units, which
    # an elimination that scales only part of a row gets wrong (it gave 24)
    ideal = gens("x2^3 + 5*x1^2", "x3^3 - 5*x1", "x4^2 + x1", "9*x2^2*x3^2",
                 "30*x2^2*x4", "60*x1*x3^2*x4", "18*x2^2*x3^2*x4",
                 variables=X4)
    assert quotient_dim(ideal) == 28
    assert quotient_dim_macaulay(ideal) == 28
    # the curve's own ideal is one-dimensional: no corank repeats (the
    # partial scaling stopped on a false 36)
    with pytest.raises(InfiniteDimensionError):
        quotient_dim_macaulay(IdealGens(ideal.generators[:3]))


def counted_inserts(monkeypatch, rows=None):
    """Whether each ``_echelon_insert`` call filed a pivot, in order; with
    ``rows``, a copy of each inserted row is appended to it too."""
    filed = []
    insert = localring._echelon_insert

    def counted(pivots, row):
        if rows is not None:
            rows.append(dict(row))
        lead = insert(pivots, row)
        filed.append(lead is not None)
        return lead

    monkeypatch.setattr(localring, "_echelon_insert", counted)
    return filed


def test_oracle_skips_multiples_of_dependent_rows(monkeypatch):
    # the heaviest Tjurina ideal of a ci-batch cycle: eliminating every
    # multiple g*s took 4,281 rows, 2,023 of which reduced to zero
    ideal = gens("x2^4 + 5*x1^3", "x3^3 - 3*x1^2", "x4^2 + 5*x1",
                 "60*x2^3*x3^2", "48*x1*x2^3*x4", "90*x1^2*x3^2*x4",
                 "24*x2^3*x3^2*x4", variables=X4)
    assert quotient_dim(ideal) == 75
    filed = counted_inserts(monkeypatch)
    assert quotient_dim_macaulay(ideal) == 75
    assert filed.count(False) < 100
    assert len(filed) < 3000


def test_oracle_keys_at_the_edges():
    # a tail of degree 40, far above the cap, must not overflow the digit
    # of x into that of y
    assert quotient_dim_macaulay(gens("x - y^40", "y^3", variables=X2)) == 3
    # c(24) = c(23) = 23: stabilizes exactly at the cap ...
    assert quotient_dim_macaulay(gens("x^23", "y", variables=X2)) == 23
    # ... and one more is past it
    with pytest.raises(InfiniteDimensionError):
        quotient_dim_macaulay(gens("x^24", "y", variables=X2))


def eliminated_variables(ideal):
    return len(ideal.variables) - len(
        _eliminate_linear(ideal.generators)[0].variables)


def test_oracle_on_ci_batch_tjurina_ideal_on_the_full_matrix():
    # the ideal of test_oracle_on_ci_batch_tjurina_ideal with x1 also in a
    # higher term of both curve equations, so no variable is eliminated;
    # integer elimination that scales only part of a row gives 24 here and
    # a false 36 on the curve
    ideal = gens("x2^3 + 5*x1^2", "x3^3 - 5*x1 + x1^2", "x4^2 + x1 + x1^2",
                 "9*x2^2*x3^2", "30*x2^2*x4", "60*x1*x3^2*x4",
                 "18*x2^2*x3^2*x4", variables=X4)
    assert eliminated_variables(ideal) == 0
    assert quotient_dim(ideal) == 28
    assert quotient_dim_macaulay(ideal) == 28
    with pytest.raises(InfiniteDimensionError):
        quotient_dim_macaulay(IdealGens(ideal.generators[:3]))


def test_oracle_skips_dependent_rows_on_the_full_matrix(monkeypatch):
    # x4^2 + 5*x1 + x1^2 keeps x1: all four variables stay, and without
    # the skip 4,281 rows are eliminated, 2,012 of which reduce to zero
    ideal = gens("x2^4 + 5*x1^3", "x3^3 - 3*x1^2", "x4^2 + 5*x1 + x1^2",
                 "60*x2^3*x3^2", "48*x1*x2^3*x4", "90*x1^2*x3^2*x4",
                 "24*x2^3*x3^2*x4", variables=X4)
    assert eliminated_variables(ideal) == 0
    assert quotient_dim(ideal) == 75
    filed = counted_inserts(monkeypatch)
    assert quotient_dim_macaulay(ideal) == 75
    assert filed.count(False) < 100
    assert len(filed) < 3000


def test_oracle_keys_at_the_edges_on_the_full_matrix():
    # x + x^2 keeps x, so the degree-40 tail reaches the matrix
    ideal = gens("x + x^2 - y^40", "y^3", variables=X2)
    assert eliminated_variables(ideal) == 0
    assert quotient_dim(ideal) == quotient_dim_macaulay(ideal) == 3
    ideal = gens("x^23", "y + y^2", variables=X2)
    assert eliminated_variables(ideal) == 0
    assert quotient_dim_macaulay(ideal) == 23
    with pytest.raises(InfiniteDimensionError):
        quotient_dim_macaulay(gens("x^24", "y + y^2", variables=X2))


def test_oracle_eliminates_a_cascade(monkeypatch):
    # the corank-81 Tjurina ideal of a ci-batch cycle: x3^4 + 3*x1 removes
    # x1, and the matrix in x2, x3, x4 modulo the monomial generators files
    # 402 rows (1,698 with them, 8,968 in all four variables)
    ideal = gens("x2^4 + 5*x1^3", "x3^4 + 3*x1", "x4^2 + 2*x1",
                 "32*x2^3*x3^3", "-24*x2^3*x4", "120*x1^2*x3^3*x4",
                 "32*x2^3*x3^3*x4", variables=X4)
    assert eliminated_variables(ideal) == 1
    assert quotient_dim(ideal) == 81
    filed = counted_inserts(monkeypatch)
    assert quotient_dim_macaulay(ideal) == 81
    assert len(filed) == 402
    # x1 -> x3^2, then x2 -> x1*x3 = x3^3: one variable is left
    ideal = gens("x1 - x3^2", "x2 - x1*x3", "x3^5")
    assert _eliminate_linear(ideal.generators) == [P("x3^5", ("x3",))]
    assert quotient_dim(ideal) == quotient_dim_macaulay(ideal) == 5


def test_oracle_elimination_that_leaves_no_generator():
    with pytest.raises(InfiniteDimensionError,
                       match="did not stabilize by degree 24"):
        quotient_dim_macaulay(gens("x1 - x2^2", variables=("x1", "x2")))
    # x1 -> x2^3 makes x2^24 of x1^8, which lies in every m^D the scan reads
    with pytest.raises(InfiniteDimensionError,
                       match="did not stabilize by degree 24"):
        quotient_dim_macaulay(gens("x1 - x2^3", "x1^8",
                                   variables=("x1", "x2")))


def test_oracle_keeps_a_variable_also_in_a_higher_term():
    ideal = gens("x + x^2 - y^3", "y^4", variables=X2)
    assert eliminated_variables(ideal) == 0
    assert quotient_dim_macaulay(ideal) == quotient_dim(ideal) == 4


def test_oracle_dense_and_high_substitutions_stay_small():
    # x1 - (x2 + x3 + x4)^2 stays, since powers of its h would fill the
    # rows; x1 - x2^2 goes, and the x2^40 it makes of x1^20 is dropped
    s = P("x2 + x3 + x4", X4)
    cubes = [P(t, X4) for t in ("x1^20 + x2^3", "x3^3", "x4^3")]
    dense = IdealGens((P("x1", X4) - s * s, *cubes))
    high = IdealGens((P("x1 - x2^2", X4), *cubes))
    assert eliminated_variables(dense) == 0
    assert max(g.degree() for g in _eliminate_linear(high.generators)) == 3
    start = time.perf_counter()
    assert quotient_dim_macaulay(dense) == quotient_dim_macaulay(high) == 27
    assert time.perf_counter() - start < 1.0
    assert quotient_dim(dense) == quotient_dim(high) == 27


def test_oracle_of_a_unit_ideal_is_zero():
    # the pass leaves an ideal with a unit alone, and the matrix gives 0
    assert quotient_dim_macaulay(gens("x1 - x2", "1 + x3")) == 0
    assert quotient_dim_macaulay(gens("2 - x^2", variables=X1)) == 0


def test_oracle_values_with_monomial_generators():
    assert quotient_dim_macaulay(gens("x^3", "y^2", "x*y", variables=X2)) == 4
    with pytest.raises(InfiniteDimensionError):
        quotient_dim_macaulay(gens("x*y", "y^2", variables=X2))
    assert quotient_dim_macaulay(gens("2", variables=X2)) == 0
    assert quotient_dim_macaulay(gens("1 + x", "y", variables=X2)) == 0
    assert quotient_dim_macaulay(
        gens("x^2*y", "x^3 - y^5", "y^3*x", variables=X2)) == 10
    assert quotient_dim_macaulay(
        gens("6*x^4", "10*y^3", "x^2*y^2 - 3*x^3*y", variables=X2)) == 10


def test_oracle_has_no_rows_in_the_monomial_ideal(monkeypatch):
    # a monomial ideal needs no row at all
    filed = counted_inserts(monkeypatch)
    assert quotient_dim_macaulay(gens("x^3", "y^2", "x*y", variables=X2)) == 4
    assert filed == []
    # modulo M = <y^2>, x^5 + y^3 is x^5: its rows are the single terms
    # x^5*s for s = 1, x, y, x^2, x*y, x^3, x^2*y, never y^2 in M.  The
    # full matrix inserts 25 rows here, 18 of them rows of y^2 or of two
    # terms
    rows = []
    filed = counted_inserts(monkeypatch, rows)
    assert quotient_dim_macaulay(gens("y^2", "x^5 + y^3", variables=X2)) == 10
    assert filed == [True] * 7
    assert all(len(row) == 1 for row in rows)


def full_matrix_dim(ideal):
    """dim O/I from the Macaulay scan over every generator, monomial ones
    included, after the same elimination of solvable variables: c(D) =
    C(D-1+n, n) - (pivots of degree < D), with the zero-row criterion."""
    generators = _eliminate_linear(ideal.generators)
    n = len(generators[0].variables)
    base = 1 + localring.MACAULAY_MAX_DEGREE + max(
        g.degree() for g in generators)
    top = base ** n
    variable_keys = [top + base ** i for i in range(n)]

    def key(e):
        return sum(e) * top + sum(a * base ** i for i, a in enumerate(e))

    rows = []
    for g in generators:
        scale = g.primitive_factor()
        row = [(key(e), int(c * scale)) for e, c in g.terms.items()]
        rows.append((min(row)[0] // top, row))

    def insert(pivots, row):
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values())
                pivots[lead] = {c: v // g for c, v in row.items()}
                return True
            g = gcd(row[lead], pivot[lead])
            a, b = row[lead] // g, pivot[lead] // g
            row = {c: v * b for c, v in row.items()}
            for c, v in pivot.items():
                acc = row.get(c, 0) - v * a
                if acc:
                    row[c] = acc
                else:
                    del row[c]
        return False

    multipliers = [[0]]
    dead = [set() for _ in rows]
    pivots = {}
    previous = None
    for degree in range(1, localring.MACAULAY_MAX_DEGREE + 1):
        for j, (low, row) in enumerate(rows):
            k = degree - 1 - low
            if k < 0:
                continue
            if k == len(multipliers):
                multipliers.append(sorted({s + x for s in multipliers[-1]
                                           for x in variable_keys}))
            dead[j] = {s + x for s in dead[j] for x in variable_keys}
            for s in multipliers[k]:
                if s not in dead[j] and not insert(
                        pivots, {e + s: c for e, c in row}):
                    dead[j].add(s)
        rank = sum(1 for c in pivots if c < degree * top)
        corank = math.comb(degree - 1 + n, n) - rank
        if previous == corank:
            return corank
        previous = corank
    raise InfiniteDimensionError("no corank repeats")


def random_small_ideal(rng):
    """Two to four generators in C^2 or C^3 of one to three terms of
    degree 1 to 3, many of them single terms: finite and infinite
    quotients alike."""
    variables = (X2, X3)[rng.randrange(2)]
    n = len(variables)
    generators = []
    for _ in range(rng.randint(2, 4)):
        terms = {}
        for _ in range(rng.choice([1, 1, 2, 3])):
            exps = [0] * n
            for _ in range(rng.randint(1, 3)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = rng.choice([-3, -1, 1, 2, 5])
        generators.append(Polynomial(variables, terms))
    return IdealGens(tuple(generators))


def test_oracle_matches_the_full_matrix_on_seeded_ideals():
    rng = random.Random(34)
    verdicts = []
    for _ in range(60):
        ideal = random_small_ideal(rng)
        try:
            expected = full_matrix_dim(ideal)
        except InfiniteDimensionError:
            expected = None
        try:
            got = quotient_dim_macaulay(ideal)
        except InfiniteDimensionError:
            got = None
        assert got == expected, ideal
        verdicts.append(got is None)
    # both verdicts occur
    assert 0 < sum(verdicts) < len(verdicts)


PRIME = 2 ** 31 - 1


def dim_mod_prime(ideal):
    """dim O/I from ranks modulo PRIME of the Macaulay matrices: the
    multiples of the generators cut below degree D, rebuilt for each D up
    to the first D where the corank repeats."""
    n = len(ideal.variables)
    generators = [{e: c.numerator * pow(c.denominator, -1, PRIME) % PRIME
                   for e, c in g.terms.items()} for g in ideal.generators]
    previous = None
    for degree in itertools.count(1):
        below = [e for e in itertools.product(range(degree), repeat=n)
                 if sum(e) < degree]
        pivots = {}
        for g in generators:
            for shift in below:
                row = {}
                for e, c in g.items():
                    target = tuple(a + b for a, b in zip(e, shift))
                    if sum(target) < degree:
                        row[target] = c
                while row:
                    lead = min(row)
                    pivot = pivots.get(lead)
                    if pivot is None:
                        inverse = pow(row[lead], -1, PRIME)
                        pivots[lead] = {t: c * inverse % PRIME
                                        for t, c in row.items()}
                        break
                    factor = row[lead]
                    for t, c in pivot.items():
                        value = (row.get(t, 0) - factor * c) % PRIME
                        if value:
                            row[t] = value
                        else:
                            row.pop(t, None)
        corank = len(below) - len(pivots)
        if corank == previous:
            return corank
        previous = corank


@st.composite
def nonunit_zero_dim_ideals(draw):
    """Binomials x_i^e_i + c_i x1^f_i (i = 2..n), k x1^6 and one to three
    monomials, where k and the monomials' coefficients are integers other
    than +-1, so integer elimination must scale rows.  x1 is nilpotent
    modulo the ideal, so every x_i is, and the ideal is zero-dimensional."""
    n = draw(st.integers(2, 3))
    variables = tuple(f"x{i}" for i in range(1, n + 1))

    def power(i, e):
        return tuple(e if k == i else 0 for k in range(n))

    nonunits = st.sampled_from([6, 9, 10, 12, 15, 18, 30, 60])
    generators = [Polynomial(variables, {
        power(i, draw(st.integers(2, 3))): 1,
        power(0, draw(st.integers(1, 3))): draw(st.sampled_from(
            [-5, -3, -2, 2, 3, 5]))}) for i in range(1, n)]
    generators.append(Polynomial(variables, {power(0, 6): draw(nonunits)}))
    for exps in draw(st.lists(st.tuples(*[st.integers(0, 2)] * n),
                              min_size=1, max_size=3)):
        generators.append(Polynomial(variables, {exps: draw(nonunits)}))
    return IdealGens(tuple(generators))


@given(nonunit_zero_dim_ideals())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_oracle_staircase_and_prime_rank_agree(ideal):
    staircase = quotient_dim(ideal)
    assert quotient_dim_macaulay(ideal) == staircase
    assert dim_mod_prime(ideal) == staircase


@st.composite
def dependent_zero_dim_ideals(draw):
    """Four variables, five to seven generators: g_i = x_i^a_i + c_i t_i
    (i = 1..4, t_i a monomial of degree above a_i, so the leading ideal
    holds a pure power of every variable) and one to three more, each a
    non-unit multiple of a monomial or u*g_i + v*g_j with monomials u, v.
    The latter lie in the ideal already, so many of their multiples, and
    of the g_i, are dependent."""
    n = 4
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    monomial = st.tuples(*[st.integers(0, 1)] * n)
    nonunits = st.sampled_from([6, 10, 15, -12])
    generators = []
    for i in range(n):
        a = draw(st.integers(1, 2))
        tail = draw(st.tuples(*[st.integers(0, 2)] * n).filter(
            lambda e, a=a: sum(e) > a))
        generators.append(Polynomial(variables, {
            tuple(a if k == i else 0 for k in range(n)): 1,
            tail: draw(st.sampled_from([-5, -2, 3]))}))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            extra = (Polynomial(variables, {draw(monomial): draw(nonunits)})
                     * generators[i]
                     + Polynomial(variables, {draw(monomial): 1})
                     * generators[j])
        else:
            exps = draw(monomial.filter(lambda e: sum(e) >= 2))
            extra = Polynomial(variables, {exps: draw(nonunits)})
        generators.append(extra)
    return IdealGens(tuple(generators))


@given(dependent_zero_dim_ideals())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_oracle_with_dependent_generators_in_four_variables(ideal):
    staircase = quotient_dim(ideal)
    assert quotient_dim_macaulay(ideal) == staircase
    assert dim_mod_prime(ideal) == staircase


# ---------------------------------------------------------------------------
# input validation

def test_idealgens_drops_zero_generators():
    g = IdealGens((P("0"), P("x1")))
    assert len(g.generators) == 1


def test_idealgens_rejects_all_zero():
    with pytest.raises(ValueError):
        IdealGens((P("0"),))
