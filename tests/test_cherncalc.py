"""Truncated graded ring, difference-class identities, projective integrals."""

import itertools
import random
from collections import Counter
from math import comb, prod

import pytest

from gsvkit import cherncalc, projective
from gsvkit.cherncalc import (
    ChernVector,
    GradedElement,
    GradedRing,
    chern_difference_expansion,
    chern_difference_inversion,
    chern_difference_recursion,
    elementary_symmetric,
    inverse_total_class,
    signed_partition_table,
    total_gsv_integral_projective,
)
from gsvkit.projective import closed_form_gsv


def abstract_pair(m, rank_tx=None, rank_n=None):
    """Chern vectors with one abstract generator per (bundle, degree)."""
    rank_tx = m if rank_tx is None else rank_tx
    rank_n = m if rank_n is None else rank_n
    names = {f"a{t}": t for t in range(1, rank_tx + 1)}
    names.update({f"b{t}": t for t in range(1, rank_n + 1)})
    ring = GradedRing(names, m)
    c_tx = ChernVector(ring, [ring.gen(f"a{t}")
                              for t in range(1, rank_tx + 1)])
    c_n = ChernVector(ring, [ring.gen(f"b{t}") for t in range(1, rank_n + 1)])
    return ring, c_tx, c_n


def total_class(c):
    """The total class 1 + c_1 + ... + c_rank."""
    return sum(c.classes, c.ring.one())


# ---------------------------------------------------------------------------
# signed partitions

def test_signed_partitions_group_brute_force_multi_indices():
    table = signed_partition_table(10)
    for j in range(1, 11):
        signed_sizes = Counter()
        for i in range(1, j + 1):
            # each of the i parts is at most j - i + 1
            for parts in itertools.product(range(1, j - i + 2), repeat=i):
                if sum(parts) == j:
                    signed_sizes[tuple(sorted(parts, reverse=True))] += (-1) ** i
        got = table[j]
        assert len({parts for _, parts in got}) == len(got)
        assert {parts: weight for weight, parts in got} == signed_sizes


def reference_signed_partitions(j, largest=None):
    """The recursive generator the table replaced, kept as its reference:
    (weight, parts) per partition of j, parts largest first and at most
    ``largest``."""
    if j == 0:
        yield 1, ()
    for part in range(j if largest is None else min(j, largest), 0, -1):
        for repeats in range(1, j // part + 1):
            for weight, rest in reference_signed_partitions(
                    j - repeats * part, part - 1):
                yield ((-1) ** repeats * comb(repeats + len(rest), repeats)
                       * weight, (part,) * repeats + rest)


def test_signed_partition_table_matches_the_recursive_generator():
    assert signed_partition_table(18) \
        == [list(reference_signed_partitions(j)) for j in range(19)]
    for top in range(5):
        assert signed_partition_table(top) == signed_partition_table(18)[
            :top + 1]


def test_signed_partition_weights_sum_like_signed_compositions():
    # sum over all compositions of j of (-1)^i is the t^j coefficient of
    # 1/(1 + t/(1 - t)) = 1 - t
    table = signed_partition_table(18)
    assert [sum(weight for weight, _ in row) for row in table] \
        == [1, -1] + [0] * 17


def test_signed_partition_weights_count_the_multi_indices():
    table = signed_partition_table(18)
    assert table[0] == [(1, ())]
    for j in range(1, 19):
        got = table[j]
        assert sum(abs(weight) for weight, _ in got) == 2 ** (j - 1)
        for i in range(1, j + 1):
            assert sum(weight for weight, parts in got if len(parts) == i) \
                == (-1) ** i * comb(j - 1, i - 1)


def test_partition_counts():
    table = signed_partition_table(18)
    assert len(table) == 19
    assert len(table[13]) == 101
    assert len(table[18]) == 385


# ---------------------------------------------------------------------------
# the ring itself

def test_integer_coefficients_only():
    ring = GradedRing({"c1": 1}, 2)
    with pytest.raises(TypeError):
        GradedElement(ring, {("c1",): 1.5})
    from fractions import Fraction
    with pytest.raises(TypeError):
        GradedElement(ring, {("c1",): Fraction(1, 2)})


def test_truncation_discards_high_degrees():
    ring = GradedRing({"c1": 1}, 2)
    h = ring.gen("c1")
    assert (h * h * h).is_zero()
    assert not (h * h).is_zero()


class NameTupleElement:
    """Reference arithmetic on {sorted generator-name tuple: int} that
    recomputes each monomial's degree from the generator degrees."""

    def __init__(self, degrees, truncation, terms):
        self.degrees, self.truncation = degrees, truncation
        acc = {}
        for mono, coeff in terms.items():
            mono = tuple(sorted(mono))
            if self.degree(mono) <= truncation:
                acc[mono] = acc.get(mono, 0) + coeff
        self.terms = {mono: c for mono, c in acc.items() if c}

    def degree(self, mono):
        return sum(self.degrees[name] for name in mono)

    def like(self, terms):
        return NameTupleElement(self.degrees, self.truncation, terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return self.like(terms)

    def __neg__(self):
        return self.like({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return self.like(terms)

    def __pow__(self, exponent):
        result = self.like({(): 1})
        for _ in range(exponent):
            result = result * self
        return result

    def homogeneous_part(self, t):
        return self.like({mono: c for mono, c in self.terms.items()
                          if self.degree(mono) == t})

    def coefficient(self, mono):
        return self.terms.get(tuple(sorted(mono)), 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (self.degree(m), m)):
            coeff = self.terms[mono]
            bits.append(f"{coeff}*{'*'.join(mono)}" if mono else str(coeff))
        return " + ".join(bits).replace("+ -", "- ")


def homogeneous_part(x, t):
    """The degree-t part of a GradedElement, rebuilt from its monomials
    (a key holds its degree above bit ``ring.shift``)."""
    ring = x.ring
    return GradedElement(ring, {ring._names_of(key): c
                                for key, c in x.terms.items()
                                if key >> ring.shift == t})


def random_name_terms(rng, names):
    """Unsorted, repeated, zero and over-degree monomials included."""
    return {tuple(rng.choice(names) for _ in range(rng.randint(0, 3))):
            rng.randint(-3, 3) for _ in range(rng.randint(0, 6))}


def test_keyed_terms_match_name_tuple_reference():
    rng = random.Random(21)
    for truncation in range(7):
        for _ in range(25):
            degrees = {name: rng.randint(1, 3)
                       for name in rng.sample("abcde", rng.randint(1, 4))}
            ring = GradedRing(degrees, truncation)
            names = sorted(degrees)
            terms_x = random_name_terms(rng, names)
            terms_y = random_name_terms(rng, names)
            x, y = GradedElement(ring, terms_x), GradedElement(ring, terms_y)
            rx = NameTupleElement(degrees, truncation, terms_x)
            ry = NameTupleElement(degrees, truncation, terms_y)
            k, e = rng.randint(-3, 3), rng.randint(0, 3)
            const = rx.like({(): k})
            cases = [(x, rx), (x + y, rx + ry), (x - y, rx - ry),
                     (x * y, rx * ry), (x ** e, rx ** e), (-x, -rx),
                     (x + k, rx + const), (k - x, const - rx),
                     (x * k, rx * const)]
            cases += [(homogeneous_part(x, t), rx.homogeneous_part(t))
                      for t in range(truncation + 2)]
            monos = [mono for n in range(4)
                     for mono in itertools.combinations_with_replacement(
                         names, n)]
            for new, ref in cases:
                assert repr(new) == repr(ref)
                assert new.is_zero() == (not ref.terms)
                for mono in monos:
                    assert new.coefficient(mono[::-1]) \
                        == ref.coefficient(mono)
                for t in range(truncation + 2):
                    assert new.is_homogeneous_of_degree(t) == all(
                        ref.degree(mono) == t for mono in ref.terms)
                assert new == GradedElement(ring, ref.terms)
            assert (x == y) == (rx.terms == ry.terms)
            assert (x == k) == (rx.terms == const.terms)


def test_packed_keys_at_the_width_limits():
    """Every exponent up to 2T in one product, long monomials over mixed
    degrees, truncation 0 and a generator above the truncation."""
    rng = random.Random(34)
    for truncation in range(13):
        degrees = {"x": 1, "y": 1, "z": 2, "w": 3, "big": truncation + 1}
        ring = GradedRing(degrees, truncation)
        assert ring.gen("big").is_zero()
        assert GradedElement(ring, {("big",): 5, (): 2}) == 2
        assert ring.one().coefficient(("big",)) == 0
        assert ring.one().coefficient(("x",) * (2 * truncation + 5)) == 0
        for a in range(truncation + 1):
            x_a = GradedElement(ring, {("x",) * a: 1})
            for b in range(truncation + 1):
                product = x_a * GradedElement(ring, {("x",) * b: 1})
                kept = a + b <= truncation
                assert product.coefficient(("x",) * (a + b)) == int(kept)
                assert len(product.terms) == int(kept)
        names = sorted(degrees)
        for _ in range(10):
            terms_x, terms_y = (
                {tuple(rng.choice(names)
                       for _ in range(rng.randint(0, 2 * truncation))):
                 rng.randint(-3, 3) for _ in range(rng.randint(0, 6))}
                for _ in range(2))
            x, y = GradedElement(ring, terms_x), GradedElement(ring, terms_y)
            rx = NameTupleElement(degrees, truncation, terms_x)
            ry = NameTupleElement(degrees, truncation, terms_y)
            for new, ref in [(x, rx), (x * y, rx * ry), (x * x, rx * rx),
                             (x ** 3, rx ** 3), (x - y, rx - ry)]:
                assert repr(new) == repr(ref)
                assert new == GradedElement(ring, ref.terms)
                for mono in list(terms_x) + list(terms_y) + list(ref.terms):
                    assert new.coefficient(mono) == ref.coefficient(mono)


def test_unknown_generator_raises_like_gen():
    ring = GradedRing({"a": 1}, 2)
    with pytest.raises(KeyError, match="no generator named 'zz'"):
        ring.gen("zz")
    with pytest.raises(KeyError, match="no generator named 'zz'"):
        GradedElement(ring, {("a", "zz"): 1})


# ---------------------------------------------------------------------------
# inverse total class

def test_inverse_geometric_series():
    ring = GradedRing({"c1": 1}, 3)
    cv = ChernVector(ring, [ring.gen("c1")])
    inv = inverse_total_class(cv)
    c1 = ring.gen("c1")
    assert inv == ring.one() - c1 + c1 * c1 - c1 * c1 * c1


def test_inverse_rank_zero():
    ring = GradedRing({}, 4)
    cv = ChernVector(ring, [])
    assert inverse_total_class(cv) == ring.one()


def test_inverse_rank_two():
    ring = GradedRing({"c1": 1, "c2": 2}, 2)
    cv = ChernVector(ring, [ring.gen("c1"), ring.gen("c2")])
    inv = inverse_total_class(cv)
    c1, c2 = ring.gen("c1"), ring.gen("c2")
    assert inv == ring.one() - c1 + (c1 * c1 - c2)
    assert total_class(cv) * inv == ring.one()


def test_inverse_multiply_back_randomized():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(1, 6)
        ring = GradedRing({f"g{t}": t for t in range(1, m + 1)}, m)
        classes = [rng.randint(-3, 3) * ring.gen(f"g{t}")
                   for t in range(1, rng.randint(1, m) + 1)]
        cv = ChernVector(ring, classes)
        assert total_class(cv) * inverse_total_class(cv) == ring.one()


def test_inverse_is_involution():
    ring, c_tx, _ = abstract_pair(4)
    inv = inverse_total_class(c_tx)
    back = ChernVector(ring, [homogeneous_part(inv, t) for t in range(1, 5)])
    assert inverse_total_class(back) == total_class(c_tx)


# ---------------------------------------------------------------------------
# the three difference-class routes

def test_recursion_degree_one():
    _, c_tx, c_n = abstract_pair(3)
    assert chern_difference_recursion(c_tx, c_n)[1] \
        == c_tx.class_at(1) - c_n.class_at(1)


def test_recursion_degree_two_closed_form():
    ring, c_tx, c_n = abstract_pair(3)
    a1, a2 = ring.gen("a1"), ring.gen("a2")
    b1, b2 = ring.gen("b1"), ring.gen("b2")
    assert chern_difference_recursion(c_tx, c_n)[2] \
        == a2 - b1 * a1 + b1 * b1 - b2


def test_difference_with_trivial_bundle():
    ring, c_tx, _ = abstract_pair(4)
    trivial = ChernVector(ring, [])
    rec = chern_difference_recursion(c_tx, trivial)
    exp = chern_difference_expansion(c_tx, trivial)
    for t in range(5):
        assert rec[t] == c_tx.class_at(t)
        assert exp[t] == c_tx.class_at(t)


def test_triple_agreement_abstract():
    for m in (2, 3, 4, 5):
        _, c_tx, c_n = abstract_pair(m)
        recs = chern_difference_recursion(c_tx, c_n)
        exps = chern_difference_expansion(c_tx, c_n)
        invs = chern_difference_inversion(c_tx, c_n)
        for t in range(m + 1):
            assert recs[t] == exps[t] == invs[t]
            assert recs[t].is_homogeneous_of_degree(t)


def test_triple_agreement_randomized_mixed_terms():
    rng = random.Random(13)
    for _ in range(30):
        m = rng.randint(2, 8)
        rank_tx = rng.randint(1, m)
        rank_n = rng.randint(1, m)
        names = {f"a{t}": t for t in range(1, m + 1)}
        names.update({f"b{t}": t for t in range(1, m + 1)})
        ring = GradedRing(names, m)

        def random_class(prefix, t):
            value = rng.randint(-4, 4) * ring.gen(f"{prefix}{t}")
            if t >= 2 and rng.random() < 0.4:
                split = rng.randint(1, t - 1)
                value = value + rng.randint(-2, 2) * (
                    ring.gen(f"{prefix}{split}") * ring.gen(f"{prefix}{t - split}"))
            return value

        c_tx = ChernVector(ring, [random_class("a", t)
                                  for t in range(1, rank_tx + 1)])
        c_n = ChernVector(ring, [random_class("b", t)
                                 for t in range(1, rank_n + 1)])
        t = rng.randint(0, m)
        rec = chern_difference_recursion(c_tx, c_n)[t]
        exp = chern_difference_expansion(c_tx, c_n)[t]
        inv = chern_difference_inversion(c_tx, c_n)[t]
        assert rec == exp == inv


def test_routes_return_every_degree_up_to_truncation():
    rng = random.Random(7)
    cases = [abstract_pair(m) for m in (1, 3, 6)]
    cases += [abstract_pair(5, rank_tx=2, rank_n=4), abstract_pair(4, 4, 0)]
    ring = GradedRing({"h": 1}, 7)
    h = ring.gen("h")
    c_tx, c_n = (ChernVector(ring, [rng.randint(-3, 3) * h ** t
                                    for t in range(1, rank + 1)])
                 for rank in (7, 3))
    cases.append((ring, c_tx, c_n))
    for ring, c_tx, c_n in cases:
        for route in (chern_difference_recursion, chern_difference_expansion,
                      chern_difference_inversion):
            classes = route(c_tx, c_n)
            assert isinstance(classes, tuple)
            assert len(classes) == ring.truncation + 1
            assert classes[0] == ring.one()
            for t, d in enumerate(classes):
                assert d.is_homogeneous_of_degree(t)


def reference_routes(degrees, m, tangent, normal):
    """The three routes' formulas for d_0..d_m in NameTupleElement
    arithmetic, from c_1, c_2, ... of TX and of N as name-tuple term dicts;
    the expansion sums over compositions."""

    def element(terms):
        return NameTupleElement(degrees, m, terms)

    one = element({(): 1})
    a, b = (([one] + [element(c) for c in classes]
             + [element({})] * (m + 1))[:m + 1]
            for classes in (tangent, normal))
    rec = [one]
    for j in range(1, m + 1):
        d = a[j] - b[j]
        for i in range(1, j):
            d = d - b[j - i] * rec[i]
        rec.append(d)
    e = [one]
    for j in range(1, m + 1):
        acc = element({})
        for cuts in itertools.product((0, 1), repeat=j - 1):
            term, run = one, 1
            for cut in cuts + (1,):
                if cut:
                    term, run = -(term * b[run]), 1
                else:
                    run += 1
            acc = acc + term
        e.append(acc)
    exp = []
    for t in range(m + 1):
        d = element({})
        for j in range(t + 1):
            d = d + a[t - j] * e[j]
        exp.append(d)
    inverse = [one]
    for k in range(1, m + 1):
        acc = element({})
        for i in range(1, k + 1):
            acc = acc + b[i] * inverse[k - i]
        inverse.append(-acc)
    total_a, total_inverse = element({}), element({})
    for t in range(m + 1):
        total_a, total_inverse = total_a + a[t], total_inverse + inverse[t]
    product = total_a * total_inverse
    inv = [product.homogeneous_part(t) for t in range(m + 1)]
    return rec, exp, inv


def random_class_terms(rng, degrees, t):
    """Name-tuple terms of a random class of degree t: up to four
    monomials, coefficients -2..2 (zero included)."""
    monos = [mono for n in range(1, t + 1)
             for mono in itertools.combinations_with_replacement(
                 sorted(degrees), n)
             if sum(degrees[name] for name in mono) == t]
    return {mono: rng.randint(-2, 2)
            for mono in rng.sample(monos, min(len(monos),
                                              rng.randint(1, 4)))}


def mixed_route_cases():
    """(degrees, truncation, TX classes, N classes) as name-tuple terms:
    the abstract pair for m = 3..7, then seeded multi-term classes over
    shared generators with ranks from 0 to one above the truncation,
    truncations 0 to 6, TX = N (every d_t above 0 cancels) and
    N = TX + L for a line bundle L."""
    for m in range(3, 8):
        degrees = {f"{x}{t}": t for x in "ab" for t in range(1, m + 1)}
        yield (degrees, m, [{(f"a{t}",): 1} for t in range(1, m + 1)],
               [{(f"b{t}",): 1} for t in range(1, m + 1)])
    rng = random.Random(27)
    degrees = {"x": 1, "y": 1, "z": 2, "w": 3}
    for truncation in [0, 1] * 4 + list(range(7)) * 4:
        tangent, normal = ([random_class_terms(rng, degrees, t)
                            for t in range(1, rng.randint(0, truncation + 1)
                                           + 1)]
                           for _ in range(2))
        yield degrees, truncation, tangent, normal
        yield degrees, truncation, tangent, tangent
        # c(TX + L) = c(TX) (1 + x), so d_t = [(1 + x)^{-1}]_t = (-x)^t
        plus_line = [NameTupleElement(degrees, truncation, c) for c in
                     [{(): 1}] + tangent + [{}]]
        sums = [plus_line[t] + plus_line[t - 1] * NameTupleElement(
                    degrees, truncation, {("x",): 1})
                for t in range(1, len(plus_line))]
        yield degrees, truncation, tangent, [c.terms for c in sums]


def test_routes_match_name_tuple_reference():
    routes = (chern_difference_recursion, chern_difference_expansion,
              chern_difference_inversion)
    for degrees, truncation, tangent, normal in mixed_route_cases():
        ring = GradedRing(degrees, truncation)
        c_tx, c_n = (ChernVector(ring, [GradedElement(ring, c)
                                        for c in classes])
                     for classes in (tangent, normal))
        case = (truncation, tangent, normal)
        for route, want in zip(routes, reference_routes(
                degrees, truncation, tangent, normal)):
            got = route(c_tx, c_n)
            assert [repr(d) for d in got] == [repr(d) for d in want], \
                (route.__name__, case)
            assert all(c for d in got for c in d.terms.values()), \
                (route.__name__, case)
        for c in (c_tx, c_n):
            inverse = inverse_total_class(c)
            assert all(inverse.terms.values()), case
            assert inverse * total_class(c) == ring.one(), case


# ---------------------------------------------------------------------------
# elementary symmetric polynomials

def test_elementary_symmetric_small():
    assert elementary_symmetric(1, [3, 2]) == 5
    assert elementary_symmetric(2, [3, 2]) == 6
    assert elementary_symmetric(2, [1, 1, 1]) == 3


def test_elementary_symmetric_subset_enumeration():
    assert elementary_symmetric(3, [2, 3, 5, 7]) \
        == 2 * 3 * 5 + 2 * 3 * 7 + 2 * 5 * 7 + 3 * 5 * 7 == 247


def test_elementary_symmetric_bounds():
    assert elementary_symmetric(0, [4, 4]) == 1
    assert elementary_symmetric(3, [4, 4]) == 0
    with pytest.raises(ValueError):
        elementary_symmetric(-1, [1])


def test_elementary_symmetric_matches_subset_sums():
    rng = random.Random(26)
    for r in range(13):
        for _ in range(4):
            ks = [rng.randint(-5, 9) for _ in range(r)]
            for l in range(r + 3):
                want = sum(prod(c) for c in itertools.combinations(ks, l))
                assert elementary_symmetric(l, ks) == want, (l, ks)
                assert elementary_symmetric(l, iter(ks)) == want
            assert elementary_symmetric(0, ks) == 1
            assert elementary_symmetric(r + 1, ks) == 0
            with pytest.raises(ValueError):
                elementary_symmetric(-1, ks)


# ---------------------------------------------------------------------------
# the projective integral

def test_integral_worked_example():
    assert total_gsv_integral_projective(3, (3, 2), 1) == -6


def test_integral_curve_threshold_in_plane():
    for d in range(0, 5):
        assert total_gsv_integral_projective(2, (d + 2,), d) == 0


def test_integral_matches_closed_form_spot():
    assert total_gsv_integral_projective(4, (2, 1, 1), 3) \
        == closed_form_gsv(4, (2, 1, 1), 3)


def test_integral_range_validation():
    with pytest.raises(ValueError):
        total_gsv_integral_projective(3, (1, 1, 1), 2)
    with pytest.raises(ValueError):
        total_gsv_integral_projective(3, (0, 1), 2)


def test_integral_matches_closed_form_sampled_grid():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randint(2, 6)
        r = rng.randint(1, m - 1)
        ks = tuple(rng.randint(1, 4) for _ in range(r))
        d = rng.randint(0, 5)
        assert total_gsv_integral_projective(m, ks, d) \
            == closed_form_gsv(m, ks, d)


def series_total_gsv(m, ks, d):
    """prod(k) [h^(m-r)] (1+h)^(m+1) / prod(1 + k_i h) / (1 - (d-1)h), by
    dividing the truncated series one linear factor at a time."""
    top = m - len(ks)
    series = [comb(m + 1, t) for t in range(top + 1)]
    for k in ks:
        for t in range(1, top + 1):
            series[t] -= k * series[t - 1]
    for t in range(1, top + 1):
        series[t] += (d - 1) * series[t - 1]
    return prod(ks) * series[top]


def test_closed_form_matches_power_series():
    assert series_total_gsv(3, (3, 2), 1) == -6
    rng = random.Random(2026)
    for m in range(2, 19):
        for sample in range(6):
            r = rng.randint(1, m - 1)
            ks = tuple(rng.randint(1, 5) for _ in range(r))
            d = rng.randint(0, 6)
            want = series_total_gsv(m, ks, d)
            assert closed_form_gsv(m, ks, d) == want, (m, ks, d)
            if sample == 0:  # one integral per m: it costs the most
                assert total_gsv_integral_projective(m, ks, d) == want, \
                    (m, ks, d)


def test_integral_and_closed_form_read_no_partition_table(monkeypatch):
    def refuse(top):
        raise AssertionError("only the symbolic expansion reads the table")

    for module in (cherncalc, projective):  # either may hold the name
        monkeypatch.setattr(module, "signed_partition_table", refuse,
                            raising=False)
    for m, ks, d in [(3, (3, 2), 1), (6, (2,), 3), (9, (1, 2, 3), 0),
                     (13, (3, 3, 2, 1, 2), 2)]:
        want = series_total_gsv(m, ks, d)
        assert closed_form_gsv(m, ks, d) == want
        assert total_gsv_integral_projective(m, ks, d) == want


def test_closed_form_makes_one_binomial_per_degree(monkeypatch):
    # the tail recurrence takes C(m+1, n) once for each n = 1..m-r; a double
    # sum over (t, j) would take (m-r+1)(m-r+2)/2 of them
    calls = []

    def counted(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(projective, "comb", counted)
    m, d = 200, 3
    for ks in [(3,), (2, 5), (1, 4, 2)]:
        calls.clear()
        got = closed_form_gsv(m, ks, d)
        assert len(calls) <= m - len(ks) + 1, ks
        assert got == series_total_gsv(m, ks, d) \
            == total_gsv_integral_projective(m, ks, d), ks


def literal_closed_form(m, ks, d):
    """The closed form as printed: prod(k) sum_t [C(m+1, t) + sum over the
    ordered multi-indices (l_1..l_i), sum l = j <= t, of
    (-1)^i C(m+1, t-j) e_{l_1}(k)...e_{l_i}(k)] (d-1)^(m-r-t)."""
    top = m - len(ks)
    e = [elementary_symmetric(l, ks) for l in range(top + 1)]
    total = 0
    for t in range(top + 1):
        bracket = comb(m + 1, t)
        for j in range(1, t + 1):
            for i in range(1, j + 1):
                for ls in itertools.product(range(1, j + 1), repeat=i):
                    if sum(ls) == j:
                        bracket += ((-1) ** i * comb(m + 1, t - j)
                                    * prod(e[l] for l in ls))
        total += bracket * (d - 1) ** (top - t)
    return prod(ks) * total


def test_closed_form_matches_the_literal_multi_index_sum():
    rng = random.Random(30)
    for m in range(2, 9):
        for r in range(1, m):
            ks = tuple(rng.randint(1, 5) for _ in range(r))
            d = rng.randint(0, 6)
            assert closed_form_gsv(m, ks, d) \
                == literal_closed_form(m, ks, d), (m, ks, d)


def test_integral_and_closed_form_at_ambient_100():
    for ks, d in [((2,), 1), ((3, 2), 4), ((1, 2, 3), 0)]:
        want = series_total_gsv(100, ks, d)
        assert closed_form_gsv(100, ks, d) == want
        assert total_gsv_integral_projective(100, ks, d) == want
