"""Polynomial arithmetic, df(v), print order, minors, translation and the
parser."""

import itertools
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsvkit.errors import (
    PolynomialSyntaxError,
    UnknownVariableError,
    VariableMismatchError,
)
from gsvkit.indices import VectorFieldGerm, directional_derivative
from gsvkit.poly import Polynomial, jacobian_minors, parse_polynomial

Z4 = ("z0", "z1", "z2", "z3")
X3 = ("x1", "x2", "x3")
X2 = ("x1", "x2")


def P(text, variables=X3):
    return parse_polynomial(text, variables)


# ---------------------------------------------------------------------------
# parsing

def test_parse_curve_equation():
    p = parse_polynomial("z0^2*z1 - z2^3", Z4)
    assert len(p.terms) == 2
    assert p.degree() == 3
    assert p.terms[(2, 1, 0, 0)] == 1
    assert p.terms[(0, 0, 3, 0)] == -1


def test_parse_zero():
    assert parse_polynomial("0", Z4).is_zero()


def test_parse_trailing_open_paren_offset():
    with pytest.raises(PolynomialSyntaxError) as exc:
        parse_polynomial("6*x1 + x1*(", X3)
    assert exc.value.offset == 11


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError) as exc:
        parse_polynomial("x1 + w", X3)
    assert exc.value.name == "w"
    assert exc.value.offset == 5


def test_parse_rejects_decimal_literal():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1.5*x1", X3)


def test_parse_rejects_non_ascii_digits_that_int_cannot_read():
    # str.isdigit() holds for superscripts, which int() rejects
    for text, offset in (("x1^\u00b2", 3), ("\u00b3*x1", 0)):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(text, X3)
        assert exc.value.offset == offset
        assert str(exc.value).startswith(
            f"unexpected character {text[offset]!r}")
    # a decimal digit of another script is one int() reads
    assert parse_polynomial("\u0663*x1", X3) == P("3*x1")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("2*x1 + 3 x2", X3)


def test_parse_rationals_and_unary_minus():
    p = parse_polynomial("-3/2*x1 + 1/4", X3)
    assert p.terms[(1, 0, 0)] == Fraction(-3, 2)
    assert p.constant_term == Fraction(1, 4)


def test_parse_zero_denominator():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1/0", X3)


def test_parse_parenthesized():
    p = parse_polynomial("(x1 + x2)*(x1 - x2)", X2)
    assert p == parse_polynomial("x1^2 - x2^2", X2)


def test_parse_power_is_one_monomial():
    for index, name in enumerate(Z4):
        variable = Polynomial.variable(Z4, index)
        for k in range(13):
            got = parse_polynomial(f"{name}^{k}", Z4)
            assert got == variable ** k
            assert got.terms == (variable ** k).terms
            assert all(type(c) is Fraction for c in got.terms.values())
    assert parse_polynomial("z0^0", Z4) == Polynomial.constant(Z4, 1)
    assert parse_polynomial("2*z1^3*z1^0 - z1^3", Z4) \
        == Polynomial.variable(Z4, 1) ** 3


def test_parse_power_error_offsets():
    for text, offset, message in (
            ("x1^", 3, "expected an unsigned integer exponent"),
            ("x1^-1", 3, "expected an unsigned integer exponent"),
            ("x1^1.5", 4, "non-integer literal: decimal point not allowed"),
            ("x2 + x1 ^ (2)", 10, "expected an unsigned integer exponent")):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(text, X3)
        assert exc.value.offset == offset, text
        assert str(exc.value) == f"{message} (byte offset {offset})"


# ---------------------------------------------------------------------------
# ring operations

def test_add_cancels():
    assert P("x1 - x2^3") + P("x2^3") == P("x1")


def test_mul_by_zero():
    assert (P("x1 - x2^3") * P("0")).is_zero()


def test_truncated_geometric_product():
    h = ("h",)
    assert parse_polynomial("1 + h", h) * parse_polynomial("1 - h + h^2", h) \
        == parse_polynomial("1 + h^3", h)


def test_variable_mismatch():
    with pytest.raises(VariableMismatchError):
        P("x1") + parse_polynomial("x1", X2)


@pytest.mark.parametrize("terms", [
    {(0.5, 1): 1, (0, 3): 1},  # the x^0.5 factor would vanish from print
    {(1.0, 2): 1},  # degree() would read 3.0
    {(-1, 2): 1},
    {(1, 2, 3): 1},
])
def test_constructor_rejects_bad_exponent_tuples(terms):
    bad = next(iter(terms))
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        Polynomial(("x", "y"), terms)


def test_scalar_multiplication():
    assert 3 * P("x1") == P("3*x1")
    assert P("x1") * Fraction(1, 2) == P("1/2*x1")


# ---------------------------------------------------------------------------
# products on integer numerators

def fraction_sum(pairs):
    """Add (exponents, Fraction) pairs one Fraction at a time, dropping
    each sum that cancels: how products were formed before they were
    accumulated on integer numerators."""
    terms = {}
    for exps, coeff in pairs:
        total = terms.get(exps, 0) + coeff
        if total:
            terms[exps] = total
        else:
            terms.pop(exps, None)
    return terms


def seeded_polynomial(rng):
    """0-5 terms of degree <= 2 in each variable, with coefficients n/d for
    d in 1, 2, 3, 6, 7; a coefficient 0 drops its term."""
    return Polynomial(X3, {
        tuple(rng.randint(0, 2) for _ in X3):
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6, 7)))
        for _ in range(rng.randint(0, 5))})


def assert_canonical(p):
    assert all(type(c) is Fraction and c for c in p.terms.values())


def test_product_matches_fraction_arithmetic():
    rng = random.Random(35)
    # the cross terms cancel, and so does every term of a product with 0
    pairs = [(P("x1 + 1/2*x2"), P("2/3*x1 - 1/3*x2")),
             (P("2/7*x1*x3 - 1/6"), P("0"))]
    pairs += [(seeded_polynomial(rng), seeded_polynomial(rng))
              for _ in range(300)]
    assert pairs[0][0] * pairs[0][1] == P("2/3*x1^2 - 1/6*x2^2")
    for p, q in pairs:
        got = p * q
        assert got.terms == fraction_sum(
            (tuple(map(operator.add, e1, e2)), c1 * c2)
            for e1, c1 in p.terms.items() for e2, c2 in q.terms.items())
        assert_canonical(got)


def test_directional_derivative_matches_fraction_arithmetic():
    rng = random.Random(36)
    # d(x1*x2/2)(x1/3, -x2/3, 0) cancels to 0
    cases = [(P("1/2*x1*x2"), (P("1/3*x1"), P("-1/3*x2"), P("0")))]
    for _ in range(300):
        components = [seeded_polynomial(rng) for _ in X3]
        components[rng.randrange(3)] = P("0")
        cases.append((seeded_polynomial(rng), tuple(components)))
    f, components = cases[0]
    assert directional_derivative(f, VectorFieldGerm(components)).is_zero()
    for f, components in cases:
        got = directional_derivative(f, VectorFieldGerm(components))
        assert got.terms == fraction_sum(
            (tuple(map(operator.add, e1[:i] + (e1[i] - 1,) + e1[i + 1:], e2)),
             c1 * e1[i] * c2)
            for i, comp in enumerate(components)
            for e1, c1 in f.terms.items() if e1[i]
            for e2, c2 in comp.terms.items())
        assert_canonical(got)


# ---------------------------------------------------------------------------
# numerators over one denominator, against Fraction-dict references

def ref_mul(a, b):
    return fraction_sum((tuple(map(operator.add, e1, e2)), c1 * c2)
                        for e1, c1 in a.items() for e2, c2 in b.items())


def ref_translate(a, point):
    """sum(c * prod((x_i + a_i)^e_i)), each binomial written out."""
    total = {}
    for exps, c in a.items():
        term = {(0,) * len(exps): c}
        for i, (ai, e) in enumerate(zip(point, exps)):
            term = ref_mul(term, {tuple(k if j == i else 0
                                        for j in range(len(exps))):
                                  math.comb(e, k) * ai ** (e - k)
                                  for k in range(e + 1)})
        total = fraction_sum(list(total.items()) + list(term.items()))
    return total


def test_arithmetic_matches_fraction_references():
    rng = random.Random(40)
    zero = (0, 0, 0)
    for _ in range(150):
        p, q = seeded_polynomial(rng), seeded_polynomial(rng)
        a, b = p.terms, q.terms
        assert all(type(c) is Fraction for c in a.values())
        assert (p + q).terms == fraction_sum(list(a.items()) + list(b.items()))
        assert (p - q).terms == fraction_sum(
            list(a.items()) + [(e, -c) for e, c in b.items()])
        assert (p * q).terms == ref_mul(a, b)
        for s in (Fraction(-3, 4), 0, Fraction(5, 6), -2, Fraction(7, 1)):
            assert p.scaled(s).terms == {e: c * s for e, c in a.items() if s}
        power = {zero: Fraction(1)}
        for k in range(4):
            assert (p ** k).terms == power
            power = ref_mul(power, a)
        for i in range(3):
            assert p.partial_derivative(i).terms == fraction_sum(
                (e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
                for e, c in a.items() if e[i])
            assert p.specialize_at_one(i).terms == fraction_sum(
                (e[:i] + e[i + 1:], c) for e, c in a.items())
        point = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                      for _ in X3)
        assert p.translate(point).terms == ref_translate(a, point)
        assert p.evaluate(point) == sum(
            c * math.prod(x ** k for x, k in zip(point, e))
            for e, c in a.items())
        assert p.constant_term == a.get(zero, 0)
        # the primitive factor makes coprime integers: 1/gcd of the
        # coefficients, which is lcm(denominators)/gcd(numerators)
        scaled = p.scaled(p.primitive_factor()).terms.values()
        assert all(c.denominator == 1 for c in scaled)
        assert math.gcd(*(c.numerator for c in scaled)) in (0, 1)
        assert p.primitive_factor() > 0
        assert parse_polynomial(str(p), X3) == p
        assert str(parse_polynomial(str(p), X3)) == str(p)


def test_equal_polynomials_are_stored_alike():
    half_x1 = [P("2/4*x1"), P("1/2*x1"),
               Polynomial(X3, {(1, 0, 0): Fraction(2, 4)}), P("x1").scaled(Fraction(1, 2)), P("3*x1") * P("1/6"),
               P("x1 + 2/3*x2") - P("1/2*x1") - P("4/6*x2"),
               Polynomial(X3, {(1, 0, 0): Fraction(1, 4), (0, 1, 0): 1})
               + Polynomial(X3, {(1, 0, 0): Fraction(1, 4), (0, 1, 0): -1})]
    for p in half_x1:
        assert p == half_x1[0] and hash(p) == hash(half_x1[0])
        assert p.terms == {(1, 0, 0): Fraction(1, 2)}
        assert str(p) == "1/2*x1"
    # cancellation to zero leaves the one zero polynomial
    zeros = [P("2/3*x1 - 1/5") - P("2/3*x1 - 1/5"), P("1/7*x2").scaled(0),
             P("3/2*x1") * P("2/3") - P("x1"), P("1/3*x3") + -P("1/3*x3"),
             P("1/2*x1^2").partial_derivative(1), Polynomial(X3, {})]
    for z in zeros:
        assert z.is_zero() and z == Polynomial.zero(X3)
        assert hash(z) == hash(Polynomial.zero(X3))
        assert z.terms == {} and str(z) == "0" and z.constant_term == 0


# ---------------------------------------------------------------------------
# derivatives

def test_partial_derivative_cusp():
    assert P("x1 - x2^3").partial_derivative(1) == P("-3*x2^2")


def test_partial_derivative_linear():
    assert P("x3^2 - x1").partial_derivative(0) == P("-1")
    assert P("x3^2 - x1").partial_derivative(2) == P("2*x3")


def test_partial_derivative_index_range():
    with pytest.raises(IndexError):
        P("x1").partial_derivative(3)


# ---------------------------------------------------------------------------
# jacobian minors

def test_minors_worked_example_chart0():
    minors = jacobian_minors([P("x1 - x2^3"), P("x3^2 - x1")])
    assert minors == [P("-3*x2^2"), P("2*x3"), P("-6*x2^2*x3")]


def test_minors_identity_jacobian():
    minors = jacobian_minors([parse_polynomial("x1", X2),
                              parse_polynomial("x2", X2)])
    assert minors == [parse_polynomial("1", X2)]


def test_minors_worked_example_chart1():
    Y = ("y1", "y2", "y3")
    minors = jacobian_minors([parse_polynomial("y1^2 - y2^3", Y),
                              parse_polynomial("y3^2 - y1", Y)])
    assert minors == [parse_polynomial("-3*y2^2", Y),
                      parse_polynomial("4*y1*y3", Y),
                      parse_polynomial("-6*y2^2*y3", Y)]


def test_minors_need_enough_variables():
    with pytest.raises(ValueError):
        jacobian_minors([parse_polynomial("x1", X2),
                         parse_polynomial("x2", X2),
                         parse_polynomial("x1 + x2", X2)])


def test_minors_of_coordinate_projection_property():
    # one minor is +-1, all others vanish
    for cols in itertools.combinations(range(3), 2):
        polys = [Polynomial.variable(X3, c) for c in cols]
        minors = jacobian_minors(polys)
        units = [m for m in minors if not m.is_zero()]
        assert len(units) == 1
        assert units[0].constant_term in (1, -1)


# ---------------------------------------------------------------------------
# translation

def test_translate_linear():
    assert P("x1").translate([1, 0, 0]) == P("x1 + 1")


def test_translate_evaluation_identity():
    p = P("x1^2")
    point = [Fraction(5, 2), 0, 0]
    assert p.translate(point).evaluate([0, 0, 0]) == p.evaluate(point)


def test_translate_binomial_expansion():
    got = P("x3^2 - x2^3").translate([0, 1, 1])
    assert got == P("x3^2 + 2*x3 - x2^3 - 3*x2^2 - 3*x2")


def test_translate_length_mismatch():
    with pytest.raises(ValueError):
        P("x1").translate([1, 2])


# ---------------------------------------------------------------------------
# print order

def test_degrevlex_classic_chain():
    # terms print in degrevlex order: x^2 > xy > y^2 > xz > yz > z^2
    assert str(P("x3^2 + x2*x3 + x1*x3 + x2^2 + x1*x2 + x1^2")) == \
        "x1^2 + x1*x2 + x2^2 + x1*x3 + x2*x3 + x3^2"


# ---------------------------------------------------------------------------
# randomized properties

coeffs = st.integers(min_value=-4, max_value=4)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polynomials(draw, variables=X2, max_terms=5):
    terms = draw(st.dictionaries(exponents, coeffs, max_size=max_terms))
    return Polynomial(variables, terms)


@given(polynomials())
@settings(max_examples=150, deadline=None)
def test_print_parse_roundtrip(p):
    assert parse_polynomial(str(p), X2) == p


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polynomials())
@settings(max_examples=100, deadline=None)
def test_mixed_partials_commute(p):
    assert p.partial_derivative(0).partial_derivative(1) \
        == p.partial_derivative(1).partial_derivative(0)


def shifted_reference(p, point):
    """sum(c * prod((x_i + a_i)^e_i)) over the terms of p, built with the
    ring operations."""
    total = Polynomial.zero(p.variables)
    for exps, c in p.terms.items():
        term = Polynomial.constant(p.variables, c)
        for i, (a, e) in enumerate(zip(point, exps)):
            term = term * (Polynomial.variable(p.variables, i)
                           + Polynomial.constant(p.variables, a)) ** e
        total = total + term
    return total


@given(polynomials(), st.tuples(coeffs, coeffs))
@settings(max_examples=100, deadline=None)
def test_translate_matches_evaluation(p, point):
    moved = p.translate(point)
    assert moved.evaluate([0, 0]) == p.evaluate(point)
    assert moved == shifted_reference(p, point)
    # three variables with one coordinate zero: that variable stays put
    q = Polynomial(X3, {exps + (k,): c for k, (exps, c)
                        in enumerate(p.terms.items())})
    point3 = (point[0], 0, Fraction(point[1], 2))
    assert q.translate(point3) == shifted_reference(q, point3)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
exponents3 = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@st.composite
def polynomials3(draw, max_terms=5):
    terms = draw(st.dictionaries(exponents3, rationals, max_size=max_terms))
    return Polynomial(X3, terms)


def canonical(p):
    return all(c and isinstance(c, Fraction) for c in p.terms.values())


@given(polynomials3(), polynomials3(), polynomials3(),
       st.tuples(rationals, rationals, rationals),
       st.tuples(rationals, rationals, rationals), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_term_sums_cancel_and_store_no_zero(a, b, c, p, q, index):
    assert (a + b) - b == a
    assert (a - a).terms == {}
    assert a * (b + c) == a * b + a * c
    for result in (a + b, a - b, a * b, a.translate(p),
                   a.specialize_at_one(index)):
        assert canonical(result)
    assert a.translate(p).evaluate(q) == \
        a.evaluate([pi + qi for pi, qi in zip(p, q)])


def leibniz_det(matrix):
    """sum over permutations s of sign(s) * prod(matrix[i][s(i)])."""
    n = len(matrix)
    total = Polynomial.zero(matrix[0][0].variables)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = Polynomial.constant(total.variables, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total + term
    return total


@st.composite
def jacobian_rows(draw):
    m = draw(st.integers(1, 5))
    r = draw(st.integers(1, m))
    variables = tuple(f"x{i}" for i in range(m))
    monomials = st.tuples(*[st.integers(0, 2)] * m)
    return [Polynomial(variables, draw(st.dictionaries(
        monomials, rationals, max_size=3))) for _ in range(r)]


@given(jacobian_rows())
@settings(max_examples=60, deadline=None)
def test_minors_match_the_leibniz_determinant(polys):
    m = len(polys[0].variables)
    jac = [[p.partial_derivative(j) for j in range(m)] for p in polys]
    expected = [leibniz_det([[row[c] for c in cols] for row in jac])
                for cols in itertools.combinations(range(m), len(polys))]
    assert jacobian_minors(polys) == expected
