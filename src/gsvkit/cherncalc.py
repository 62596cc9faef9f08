"""Formal characteristic-class calculus in a truncated graded ring over Z.

The ring has named generators with positive integer degrees and discards
every monomial above the truncation degree.  Coefficients are integers
only; handing in a rational is treated as a modeling error and rejected.

The classes d_0..d_T of the virtual difference of two bundles (T the
truncation degree) are computed three independent ways, each returning the
whole sequence in one pass: a triangular recursion, the closed multi-index
expansion over compositions (factored as d_t = sum_j c_{t-j}(TX) e_j, with
e_j the signed sum over compositions of j), and truncated power-series
inversion of the total class.  The three must agree symbolically.
Specializing to projective space (one degree-1 generator h) evaluates the
total-index integrand of a split bundle exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod


class GradedRing:
    """Commutative graded ring Z[generators] truncated above a total degree."""

    __slots__ = ("degrees", "truncation")

    def __init__(self, degrees, truncation):
        degrees = dict(degrees)
        for name, deg in degrees.items():
            if not isinstance(deg, int) or deg < 1:
                raise ValueError(f"generator {name!r} needs a positive "
                                 f"integer degree, got {deg!r}")
        if not isinstance(truncation, int) or truncation < 0:
            raise ValueError("truncation must be a non-negative integer")
        self.degrees = degrees
        self.truncation = truncation

    def monomial_degree(self, mono: tuple[str, ...]) -> int:
        return sum(self.degrees[name] for name in mono)

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def one(self) -> "GradedElement":
        return GradedElement(self, {(): 1})

    def gen(self, name: str) -> "GradedElement":
        if name not in self.degrees:
            raise KeyError(f"no generator named {name!r}")
        if self.degrees[name] > self.truncation:
            return self.zero()
        return GradedElement(self, {(name,): 1})

    def __eq__(self, other):
        return (isinstance(other, GradedRing)
                and self.degrees == other.degrees
                and self.truncation == other.truncation)

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in sorted(self.degrees.items()))
        return f"GradedRing({gens}; trunc={self.truncation})"


class GradedElement:
    """Element of a GradedRing: sorted generator tuples -> integer coeffs."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms):
        clean: dict[tuple[str, ...], int] = {}
        for mono, coeff in terms.items():
            mono = tuple(sorted(mono))
            if not isinstance(coeff, int):
                raise TypeError(
                    f"coefficients must be integers, got {type(coeff).__name__}"
                    " (rationals are rejected to catch modeling errors)")
            if ring.monomial_degree(mono) > ring.truncation:
                continue
            if coeff:
                acc = clean.get(mono, 0) + coeff
                if acc:
                    clean[mono] = acc
                else:
                    del clean[mono]
        self.ring = ring
        self.terms = clean

    def _compatible(self, other: "GradedElement"):
        if self.ring != other.ring:
            raise ValueError("elements live in different graded rings")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono) -> int:
        return self.terms.get(tuple(sorted(mono)), 0)

    def homogeneous_part(self, t: int) -> "GradedElement":
        return GradedElement(self.ring, {
            m: c for m, c in self.terms.items()
            if self.ring.monomial_degree(m) == t})

    def is_homogeneous_of_degree(self, t: int) -> bool:
        return all(self.ring.monomial_degree(m) == t for m in self.terms)

    def __add__(self, other):
        if isinstance(other, int):
            other = GradedElement(self.ring, {(): other})
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._compatible(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, 0) + coeff
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        out = GradedElement.__new__(GradedElement)
        out.ring, out.terms = self.ring, terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = GradedElement.__new__(GradedElement)
        out.ring = self.ring
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = GradedElement(self.ring, {(): other})
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            out = GradedElement.__new__(GradedElement)
            out.ring = self.ring
            out.terms = {m: c * other for m, c in self.terms.items()} \
                if other else {}
            return out
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._compatible(other)
        ring = self.ring
        terms: dict[tuple[str, ...], int] = {}
        for m1, c1 in self.terms.items():
            d1 = ring.monomial_degree(m1)
            for m2, c2 in other.terms.items():
                if d1 + ring.monomial_degree(m2) > ring.truncation:
                    continue
                mono = tuple(sorted(m1 + m2))
                acc = terms.get(mono, 0) + c1 * c2
                if acc:
                    terms[mono] = acc
                else:
                    del terms[mono]
        out = GradedElement.__new__(GradedElement)
        out.ring, out.terms = ring, terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({(): other} if other else {})
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms,
                           key=lambda m: (self.ring.monomial_degree(m), m)):
            coeff = self.terms[mono]
            body = "*".join(mono) if mono else "1"
            bits.append(f"{coeff}*{body}" if mono else str(coeff))
        return " + ".join(bits).replace("+ -", "- ")


@dataclass(frozen=True)
class ChernVector:
    """Chern classes (c_1, ..., c_top) of a bundle; c_t has pure degree t."""

    ring: GradedRing
    classes: tuple[GradedElement, ...]

    def __init__(self, ring, classes):
        classes = tuple(classes)
        for t, c in enumerate(classes, start=1):
            if c.ring != ring:
                raise ValueError("class lives in a different ring")
            if not c.is_homogeneous_of_degree(t):
                raise ValueError(f"c_{t} is not homogeneous of degree {t}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "classes", classes)

    @property
    def rank(self) -> int:
        return len(self.classes)

    def class_at(self, t: int) -> GradedElement:
        """c_t, with c_0 = 1 and c_t = 0 above the rank."""
        if t == 0:
            return self.ring.one()
        if 1 <= t <= len(self.classes):
            return self.classes[t - 1]
        return self.ring.zero()

    def total_class(self) -> GradedElement:
        total = self.ring.one()
        for c in self.classes:
            total = total + c
        return total


def compositions(j: int, i: int) -> list[tuple[int, ...]]:
    """All compositions of j into i positive parts, lexicographic order.

    There are C(j-1, i-1) of them.
    """
    if i < 1 or i > j:
        raise ValueError(f"need 1 <= i <= j, got i={i}, j={j}")
    if i == 1:
        return [(j,)]
    out = []
    for first in range(1, j - i + 2):
        for rest in compositions(j - first, i - 1):
            out.append((first,) + rest)
    return out


def inverse_total_class(c: ChernVector) -> GradedElement:
    """Inverse of the total class 1 + c_1 + ... up to the truncation degree.

    The product of the total class with the result is exactly 1 in the
    truncated ring.
    """
    ring = c.ring
    parts = [ring.one()]
    for k in range(1, ring.truncation + 1):
        acc = ring.zero()
        for i in range(1, min(k, c.rank) + 1):
            acc = acc + c.class_at(i) * parts[k - i]
        parts.append(-acc)
    total = ring.zero()
    for p in parts:
        total = total + p
    return total


def chern_difference_recursion(c_tx: ChernVector, c_n: ChernVector
                               ) -> tuple[GradedElement, ...]:
    """Classes d_0..d_T of the virtual difference TX - N (T the truncation)
    by the triangular recursion d_0 = 1,
    d_j = c_j(TX) - c_j(N) - sum_{0<i<j} c_{j-i}(N) d_i."""
    deltas = [c_tx.ring.one()]
    for j in range(1, c_tx.ring.truncation + 1):
        d = c_tx.class_at(j) - c_n.class_at(j)
        for i in range(1, j):
            d = d - c_n.class_at(j - i) * deltas[i]
        deltas.append(d)
    return tuple(deltas)


def chern_difference_expansion(c_tx: ChernVector, c_n: ChernVector
                               ) -> tuple[GradedElement, ...]:
    """Classes d_0..d_T of TX - N (T the truncation) by the closed
    multi-index expansion

        d_t = c_t(TX) + sum_{j=1}^{t} sum_{i=1}^{j} sum_{|L_i| = j}
            (-1)^i c_{t-j}(TX) c_{l_1}(N) ... c_{l_i}(N),

    with the common factor c_{t-j}(TX) pulled out: d_t = sum_{j=0}^{t}
    c_{t-j}(TX) e_j, where e_0 = 1 and
    e_j = sum_{i=1}^{j} (-1)^i sum_{|L_i| = j} c_{l_1}(N) ... c_{l_i}(N).
    """
    ring = c_tx.ring
    e = [ring.one()]
    for j in range(1, ring.truncation + 1):
        acc = ring.zero()
        for i in range(1, j + 1):
            sign = (-1) ** i
            for parts in compositions(j, i):
                prod = ring.one()
                for l in parts:
                    prod = prod * c_n.class_at(l)
                acc = acc + sign * prod
        e.append(acc)
    return tuple(sum((c_tx.class_at(t - j) * e[j] for j in range(t + 1)),
                     ring.zero())
                 for t in range(ring.truncation + 1))


def chern_difference_inversion(c_tx: ChernVector, c_n: ChernVector
                               ) -> tuple[GradedElement, ...]:
    """Classes d_0..d_T of TX - N (T the truncation) as the homogeneous
    parts of c(TX) * c(N)^{-1}: the power-series route."""
    product = c_tx.total_class() * inverse_total_class(c_n)
    return tuple(product.homogeneous_part(t)
                 for t in range(c_tx.ring.truncation + 1))


def elementary_symmetric(l: int, ks) -> int:
    """e_l(k_1, ..., k_r); e_0 = 1 and e_l = 0 above r (empty sum)."""
    ks = list(ks)
    if l < 0:
        raise ValueError("l must be non-negative")
    if l == 0:
        return 1
    if l > len(ks):
        return 0
    return sum(
        prod(combo) for combo in itertools.combinations(ks, l))


def projective_tangent_chern(ring: GradedRing, m: int) -> ChernVector:
    """Chern vector of the tangent bundle of P^m: c_t = C(m+1, t) h^t."""
    h = ring.gen("h")
    return ChernVector(ring, [comb(m + 1, t) * h ** t
                              for t in range(1, m + 1)])


def split_bundle_chern(ring: GradedRing, ks) -> ChernVector:
    """Chern vector of a direct sum of line bundles of degrees ks on P^m:
    c_l = e_l(k_1..k_r) h^l."""
    ks = list(ks)
    h = ring.gen("h")
    return ChernVector(ring, [elementary_symmetric(l, ks) * h ** l
                              for l in range(1, len(ks) + 1)])


def total_gsv_integral_projective(m: int, ks, d: int) -> int:
    """Total GSV index on P^m of a degree-d foliation along the complete
    intersection cut out by hypersurfaces of degrees ks, evaluated from the
    characteristic-class integrand.

    Works in Z[h]: the tangent classes are binomial multiples of powers of
    the hyperplane class, the normal bundle is split with
    elementary-symmetric classes, and the cotangent class of the foliation
    is (d-1)h.  The result is the h^m coefficient of

        c_r(N) * sum_{t=0}^{m-r} c_t(TX - N) * ((d-1)h)^(m-r-t)

    with the difference classes expanded by the multi-index formula.  As
    c_r(N) = e_r(k) h^r, that is e_r(k) times the h^(m-r) coefficient of
    the sum, so the ring is truncated at degree m-r.
    """
    ks = list(ks)
    r = len(ks)
    if not 1 <= r <= m - 1:
        raise ValueError(f"need 1 <= r <= m-1 degrees, got r={r}, m={m}")
    if any(k < 1 for k in ks):
        raise ValueError("hypersurface degrees must be positive")
    if d < 0:
        raise ValueError("foliation degree must be non-negative")
    ring = GradedRing({"h": 1}, m - r)
    diffs = chern_difference_expansion(projective_tangent_chern(ring, m),
                                       split_bundle_chern(ring, ks))
    foliation_class = (d - 1) * ring.gen("h")
    acc = ring.zero()
    for t, diff in enumerate(diffs):
        acc = acc + diff * foliation_class ** (m - r - t)
    return elementary_symmetric(r, ks) * acc.coefficient(("h",) * (m - r))
