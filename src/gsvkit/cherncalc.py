"""Formal characteristic-class calculus in a truncated graded ring over Z.

The ring has named generators with positive integer degrees and discards
every monomial above the truncation degree.  Coefficients are integers
only; handing in a rational is treated as a modeling error and rejected.
Each monomial is one integer key, built once by ``GradedRing.key``: the
degree in the top field, above one W-bit exponent field per generator in
sorted-name order (Monagan-Pearce, *Sparse polynomial division using a
heap*; Bachmann-Schoenemann, *Monomial representations for Groebner bases
computations*).  W = (2T).bit_length() + 1 for the truncation T.  A kept
monomial has degree at most T, so each exponent is at most T, and the
exponents of a product of two kept monomials are at most 2T < 2^W: no
field carries into the next, and the product's key is the sum of the
keys.  The degree sits above every exponent field, so a key is kept
exactly when it is below (T + 1) << (W * number of generators).

The classes d_0..d_T of the virtual difference of two bundles (T the
truncation degree) are computed three independent ways, each returning the
whole sequence in one pass: a triangular recursion, the closed multi-index
expansion (d_t = sum_j c_{t-j}(TX) e_j, e_j the signed sum over the
multi-indices of j, grouped by partition), and truncated power-series
inversion of the total class.  The three must agree symbolically.  Only
the expansion reads the partition table.  Specializing to projective
space (one degree-1 generator h) evaluates the total-index integrand of a
split bundle exactly, its difference classes taken from the recursion.

The routes share only arithmetic: one multiply-accumulate kernel adds
weight * factor * element straight into one term dict, and each class is
wrapped once, zero coefficients removed.  Every route multiplies
homogeneous parts whose degrees sum to at most T: the recursion c_{j-i}(N)
by d_i, the expansion each partition's product one part at a time, and
the inversion builds c(N)^{-1} degree by degree and forms
d_t = sum_j c_{t-j}(TX) [c(N)^{-1}]_j, so no pair of terms above the
truncation is multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


class GradedRing:
    """Commutative graded ring Z[generators] truncated above a total degree."""

    __slots__ = ("degrees", "truncation", "names", "width", "shift",
                 "_gen_keys", "_limit")

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
        self.names = tuple(sorted(degrees))
        self.width = (2 * truncation).bit_length() + 1
        self.shift = self.width * len(self.names)
        self._gen_keys = {name: degrees[name] << self.shift
                          | 1 << self.width * i
                          for i, name in enumerate(self.names)}
        self._limit = (truncation + 1) << self.shift

    def key(self, names) -> int | None:
        """The integer key ``degree << shift | sum(e_i << (width * i))`` of
        the monomial with these generator names (e_i the exponent of the
        i-th name in sorted order), or None above the truncation T.  Below
        it every e_i <= T, and width = (2T).bit_length() + 1 holds the 2T
        of a product, so keys multiply by adding.  Above it an exponent
        may carry into the next field, which only raises the key further."""
        try:
            key = sum(self._gen_keys[name] for name in names)
        except KeyError as exc:
            raise KeyError(f"no generator named {exc.args[0]!r}") from None
        return key if key < self._limit else None

    def _names_of(self, key: int) -> tuple[str, ...]:
        """The sorted generator names of a key, lowest nonzero field first."""
        names, key = [], key & ((1 << self.shift) - 1)
        while key:
            low = ((key & -key).bit_length() - 1) // self.width * self.width
            exponent = key >> low & ((1 << self.width) - 1)
            names += [self.names[low // self.width]] * exponent
            key -= exponent << low
        return tuple(names)

    def zero(self) -> "GradedElement":
        return GradedElement._of(self, {})

    def one(self) -> "GradedElement":
        return GradedElement._of(self, {0: 1})

    def gen(self, name: str) -> "GradedElement":
        return GradedElement(self, {(name,): 1})

    def __eq__(self, other):
        return (isinstance(other, GradedRing)
                and self.degrees == other.degrees
                and self.truncation == other.truncation)

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in sorted(self.degrees.items()))
        return f"GradedRing({gens}; trunc={self.truncation})"


def _multiply_add(terms: dict[int, int], weight: int, factor: dict[int, int],
                  element: dict[int, int], limit: int) -> dict[int, int]:
    """Add weight * factor * element (keyed term dicts) into ``terms`` in
    place and return it, dropping keys at or above ``limit``.  Keys
    multiply by adding.  Cancelled keys stay with coefficient 0 until
    ``_wrap``."""
    get = terms.get
    for k1, c1 in factor.items():
        scale, bound = weight * c1, limit - k1
        for k2, c2 in element.items():
            if k2 < bound:
                key = k1 + k2
                terms[key] = get(key, 0) + scale * c2
    return terms


def _wrap(ring: GradedRing, terms: dict[int, int]) -> "GradedElement":
    """The element of accumulated ``terms``, zero coefficients removed."""
    return GradedElement._of(ring, {k: c for k, c in terms.items() if c})


class GradedElement:
    """Element of a GradedRing, built from {generator-name tuple: int}:
    ``terms`` maps each monomial's key to its nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms):
        clean: dict[int, int] = {}
        for names, coeff in terms.items():
            if not isinstance(coeff, int):
                raise TypeError(
                    f"coefficients must be integers, got {type(coeff).__name__}"
                    " (rationals are rejected to catch modeling errors)")
            key = ring.key(names)
            if key is not None:
                clean[key] = clean.get(key, 0) + coeff
        self.ring = ring
        self.terms = {k: c for k, c in clean.items() if c}

    @classmethod
    def _of(cls, ring: GradedRing, terms: dict[int, int]) -> "GradedElement":
        """Wrap already-clean keyed terms without checking them again."""
        out = cls.__new__(cls)
        out.ring, out.terms = ring, terms
        return out

    def _coerce(self, other):
        """``other`` as an element of this ring, or None for a foreign type."""
        if type(other) is GradedElement and other.ring is self.ring:
            return other
        if isinstance(other, int):
            return GradedElement._of(self.ring, {0: other} if other else {})
        if not isinstance(other, GradedElement):
            return None
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("elements live in different graded rings")
        return other

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono) -> int:
        return self.terms.get(self.ring.key(mono), 0)  # None is no key

    def is_homogeneous_of_degree(self, t: int) -> bool:
        return all(key >> self.ring.shift == t for key in self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(self.ring, _multiply_add(dict(self.terms), 1, {0: 1},
                                              other.terms, self.ring._limit))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return GradedElement._of(self.ring, {
                key: c * other for key, c in self.terms.items() if other})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        small, big = sorted((self.terms, other.terms), key=len)
        return _wrap(self.ring, _multiply_add({}, 1, small, big,
                                              self.ring._limit))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _powers(self, exponent)[-1]

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except ValueError:
            return False
        return NotImplemented if other is None else self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        bits = [f"{c}*{'*'.join(names)}" if names else str(c)
                for _, names, c in sorted(
                    (key >> ring.shift, ring._names_of(key), c)
                    for key, c in self.terms.items())]
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


def _class_terms(c: ChernVector) -> list[dict[int, int]]:
    """The term dicts of c_0..c_T (T the truncation)."""
    return [c.class_at(t).terms for t in range(c.ring.truncation + 1)]


def _join(ring: GradedRing, parts) -> GradedElement:
    """The sum of elements homogeneous of distinct degrees: their terms
    never share a key, so the sum is a merge."""
    terms: dict[int, int] = {}
    for part in parts:
        terms.update(part.terms)
    return GradedElement._of(ring, terms)


def _graded_product(ring: GradedRing, left, right
                    ) -> tuple[GradedElement, ...]:
    """Degrees 0..T of (sum left_t) * (sum right_t) for term dicts
    homogeneous of degree t: the degree-t part is
    sum_{j=0}^{t} left_{t-j} * right_j, so no pair above T is multiplied."""
    out = []
    for t in range(ring.truncation + 1):
        terms: dict[int, int] = {}
        for j in range(t + 1):
            _multiply_add(terms, 1, left[t - j], right[j], ring._limit)
        out.append(_wrap(ring, terms))
    return tuple(out)


def signed_partition_table(top: int) -> list[list[tuple[int, tuple]]]:
    """Row j (j = 0..top) lists (weight, parts) for each partition of j,
    parts largest first.  The weight (-1)^i i!/prod_k m_k! (i parts, m_k
    repeats of part k) is the signed count of the multi-indices |L_i| = j
    that reorder the parts, which give one product in a commutative ring;
    the empty partition of 0 has weight 1.  Built bottom-up over the
    largest part allowed: the partitions of j with parts at most p are
    those whose largest part is p, then those with parts at most p - 1."""
    rows = [[(1, ())]] + [[] for _ in range(top)]  # parts at most 0
    for part in range(1, top + 1):
        below = rows[:]  # parts at most part - 1
        for j in range(part, top + 1):
            row = []
            for repeats in range(1, j // part + 1):
                # the repeats take C(i, repeats) of a multi-index's i slots
                sign, head = (-1) ** repeats, (part,) * repeats
                row += [(sign * comb(repeats + len(rest), repeats) * weight,
                         head + rest)
                        for weight, rest in below[j - repeats * part]]
            rows[j] = row + below[j]
    return rows


def inverse_total_class(c: ChernVector) -> GradedElement:
    """Inverse of the total class 1 + c_1 + ... up to the truncation degree.

    The product of the total class with the result is exactly 1 in the
    truncated ring.
    """
    return _join(c.ring, _inverse_parts(c))


def _inverse_parts(c: ChernVector) -> list[GradedElement]:
    """The homogeneous parts of c^{-1} up to the truncation degree, degree
    by degree: [c^{-1}]_0 = 1 and
    [c^{-1}]_k = -sum_{i=1}^{k} c_i [c^{-1}]_{k-i}."""
    ring, classes = c.ring, _class_terms(c)
    parts = [ring.one()]
    for k in range(1, ring.truncation + 1):
        terms: dict[int, int] = {}
        for i in range(1, k + 1):
            _multiply_add(terms, -1, classes[i], parts[k - i].terms,
                          ring._limit)
        parts.append(_wrap(ring, terms))
    return parts


def chern_difference_recursion(c_tx: ChernVector, c_n: ChernVector
                               ) -> tuple[GradedElement, ...]:
    """Classes d_0..d_T of the virtual difference TX - N (T the truncation)
    by the triangular recursion d_0 = 1,
    d_j = c_j(TX) - c_j(N) - sum_{0<i<j} c_{j-i}(N) d_i."""
    ring = c_tx.ring
    tangent, normal = _class_terms(c_tx), _class_terms(c_n)
    deltas = [ring.one()]
    for j in range(1, ring.truncation + 1):
        terms = dict(tangent[j])  # the i = 0 term below is -c_j(N) d_0
        for i in range(j):
            _multiply_add(terms, -1, normal[j - i], deltas[i].terms,
                          ring._limit)
        deltas.append(_wrap(ring, terms))
    return tuple(deltas)


def chern_difference_expansion(c_tx: ChernVector, c_n: ChernVector
                               ) -> tuple[GradedElement, ...]:
    """Classes d_0..d_T of TX - N (T the truncation) by the closed
    multi-index expansion

        d_t = c_t(TX) + sum_{j=1}^{t} sum_{i=1}^{j} sum_{|L_i| = j}
            (-1)^i c_{t-j}(TX) c_{l_1}(N) ... c_{l_i}(N),

    with the common factor c_{t-j}(TX) pulled out: d_t = sum_{j=0}^{t}
    c_{t-j}(TX) e_j, where e_0 = 1 and
    e_j = sum_{i=1}^{j} (-1)^i sum_{|L_i| = j} c_{l_1}(N) ... c_{l_i}(N),
    summed over the partitions of j by their signed counts
    (``signed_partition_table``).
    """
    ring = c_tx.ring
    top, limit, normal = ring.truncation, ring._limit, _class_terms(c_n)
    partitions = signed_partition_table(top)
    e = [{0: 1}]
    products = {(): e[0]}  # parts -> terms of c_{l_1}(N) ... c_{l_i}(N)
    for j in range(1, top + 1):
        terms: dict[int, int] = {}
        for weight, parts in partitions[j]:
            # the tail parts[1:] partitions a smaller j: met before
            head, tail = normal[parts[0]], products[parts[1:]]
            if j + parts[0] <= top:  # the tail of a longer partition
                products[parts] = _multiply_add({}, 1, head, tail, limit)
            _multiply_add(terms, weight, head, tail, limit)
        e.append(_wrap(ring, terms).terms)
    return _graded_product(ring, _class_terms(c_tx), e)


def chern_difference_inversion(c_tx: ChernVector, c_n: ChernVector
                               ) -> tuple[GradedElement, ...]:
    """Classes d_0..d_T of TX - N (T the truncation) as the homogeneous
    parts of c(TX) * c(N)^{-1}: the power-series route."""
    return _graded_product(c_tx.ring, _class_terms(c_tx),
                           [part.terms for part in _inverse_parts(c_n)])


def elementary_symmetric(l: int, ks) -> int:
    """e_l(k_1, ..., k_r); e_0 = 1 and e_l = 0 above r (empty sum)."""
    if l < 0:
        raise ValueError("l must be non-negative")
    return _elementary_symmetrics(ks, l)[l]


def _elementary_symmetrics(ks, top: int) -> list[int]:
    """[e_0(k), ..., e_top(k)], the coefficients of prod_i (1 + k_i t) up
    to t^top, multiplied out one factor at a time."""
    e = [1] + [0] * top
    for i, k in enumerate(ks, start=1):
        for l in range(min(i, top), 0, -1):
            e[l] += k * e[l - 1]
    return e


def _powers(x: GradedElement, top: int) -> list[GradedElement]:
    """[x^0, x^1, ..., x^top], one multiplication each."""
    powers = [x.ring.one()]
    for _ in range(top):
        powers.append(powers[-1] * x)
    return powers


def projective_tangent_chern(ring: GradedRing, m: int) -> ChernVector:
    """Chern vector of the tangent bundle of P^m: c_t = C(m+1, t) h^t."""
    h = _powers(ring.gen("h"), m)
    return ChernVector(ring, [comb(m + 1, t) * h[t] for t in range(1, m + 1)])


def split_bundle_chern(ring: GradedRing, ks) -> ChernVector:
    """Chern vector of a direct sum of line bundles of degrees ks on P^m:
    c_l = e_l(k_1..k_r) h^l."""
    ks = list(ks)
    e = _elementary_symmetrics(ks, len(ks))
    h = _powers(ring.gen("h"), len(ks))
    return ChernVector(ring, [e[l] * h[l] for l in range(1, len(ks) + 1)])


def total_gsv_integral_projective(m: int, ks, d: int) -> int:
    """Total GSV index on P^m of a degree-d foliation along the complete
    intersection cut out by hypersurfaces of degrees ks, evaluated from the
    characteristic-class integrand.

    Works in Z[h]: the tangent classes are binomial multiples of powers of
    the hyperplane class, the normal bundle is split with
    elementary-symmetric classes, and the cotangent class of the foliation
    is (d-1)h.  The result is the h^m coefficient of

        c_r(N) * sum_{t=0}^{m-r} c_t(TX - N) * ((d-1)h)^(m-r-t)

    with the difference classes from the triangular recursion, which
    chern-check compares symbolically with the multi-index expansion.  As
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
    diffs = chern_difference_recursion(projective_tangent_chern(ring, m),
                                       split_bundle_chern(ring, ks))
    powers = _powers((d - 1) * ring.gen("h"), m - r)
    acc: dict[int, int] = {}
    for t, diff in enumerate(diffs):
        _multiply_add(acc, 1, diff.terms, powers[m - r - t].terms, ring._limit)
    return (elementary_symmetric(r, ks)
            * _wrap(ring, acc).coefficient(("h",) * (m - r)))
