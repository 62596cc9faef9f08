"""Independent references the benchmark checks gsvkit's results against.

Nothing here imports gsvkit: every value is computed from the raw input
data (exponents, coefficients, degrees) with plain integer and Fraction
arithmetic, so a defect in the library cannot hide behind a reference that
shares its code path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, prod

# ---------------------------------------------------------------------------
# projective closed forms


def curve_total_gsv(m: int, ks, d: int) -> int:
    """Total GSV index along a complete-intersection curve in P^m."""
    return prod(ks) * (d + m - sum(ks))


def curve_euler(m: int, ks, milnors) -> int:
    """Adjunction: chi = -(2 p_a - 2) + sum(mu) for a curve of multidegree ks."""
    return -prod(ks) * (sum(ks) - m - 1) + sum(milnors)


def total_gsv_series(m: int, ks, d: int) -> int:
    """Total GSV index of a degree-d foliation along the complete
    intersection of degrees ks in P^m, from the power series

        prod(k) * [h^(m-r)] (1+h)^(m+1) / prod(1 + k_i h) / (1 - (d-1) h)

    which is c_r(N) times the degree-(m-r) part of c(TX - N) paired with
    the powers of the cotangent class.  Integer arithmetic only.
    """
    n = m - len(ks)
    series = [comb(m + 1, t) for t in range(n + 1)]
    for k in ks:  # divide by (1 + k h)
        for t in range(1, n + 1):
            series[t] -= k * series[t - 1]
    total = 0
    for t in range(n + 1):
        total += series[t] * (d - 1) ** (n - t)
    return prod(ks) * total


def bound_constants(m: int, r: int) -> tuple[int, int]:
    """(eps_r, alpha) as alternating partial sums of C(r-1+j, j)."""
    terms = [(-1) ** j * comb(r - 1 + j, j) for j in range(m - r)]
    return sum(terms[:-1]), sum(terms)


# ---------------------------------------------------------------------------
# plane Newton polygons


def newton_boundary(support) -> list[tuple[int, int]]:
    """Vertices of the Newton boundary of a convenient plane support, from
    the y-axis vertex down to the x-axis vertex (collinear points dropped)."""
    pts = sorted(set(support))
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    out = [hull[0]]
    for p in hull[1:]:
        if p[1] < out[-1][1]:
            out.append(p)
    return out


def newton_number(support) -> int:
    """Kouchnirenko's Newton number 2V - a - b + 1 of a convenient support."""
    verts = newton_boundary(support)
    twice_area = sum((x2 - x1) * (y1 + y2)
                     for (x1, y1), (x2, y2) in zip(verts, verts[1:]))
    return twice_area - verts[-1][0] - verts[0][1] + 1


def _poly_rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _has_repeated_root(coeffs) -> bool:
    """True when the univariate polynomial (low degree first) has a
    repeated root in C."""
    p = [Fraction(c) for c in coeffs]
    dp = [i * c for i, c in enumerate(p)][1:]
    a, b = p, dp
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) > 1


def newton_nondegenerate(terms: dict) -> bool:
    """Every face polynomial of the Newton boundary is free of singular
    points in the torus: for a plane edge, its univariate restriction has
    no repeated nonzero root."""
    verts = newton_boundary(terms)
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        g = gcd(x1 - x0, y0 - y1)
        dx, dy = (x1 - x0) // g, (y0 - y1) // g
        face = [terms.get((x0 + k * dx, y0 - k * dy), 0) for k in range(g + 1)]
        if _has_repeated_root(face):
            return False
    return True


# ---------------------------------------------------------------------------
# local quotient dimension by exact truncated linear algebra

_PRIME = (1 << 61) - 1


def _rank_mod_p(rows) -> int:
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v % _PRIME for c, v in row.items() if v % _PRIME}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], _PRIME - 2, _PRIME)
                pivots[lead] = {c: v * inv % _PRIME for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivot.items():
                acc = (row.get(c, 0) - factor * v) % _PRIME
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
    return len(pivots)


def _monomials_below(nvars: int, degree: int):
    out = []
    for d in range(degree):
        for idx in combinations_with_replacement(range(nvars), d):
            vec = [0] * nvars
            for i in idx:
                vec[i] += 1
            out.append(tuple(vec))
    return out


def local_quotient_dim(generators, nvars: int, max_degree: int = 80) -> int:
    """dim O/<generators> at the origin for a zero-dimensional ideal.

    ``generators`` are dicts exponent-tuple -> rational coefficient.
    c(D) = dim O/(I + m^D) is the corank of the span of all monomial
    multiples of the generators truncated below degree D; it increases
    with D, and c(D) = c(D+1) forces m^D into I by Nakayama, so the first
    repeated value is dim O/I.  Ranks are taken modulo the prime 2^61 - 1.
    """
    rows_int = []
    for g in generators:
        den = 1
        for c in g.values():
            den = den * Fraction(c).denominator // gcd(den, Fraction(c).denominator)
        rows_int.append({e: int(Fraction(c) * den) for e, c in g.items()})
    previous = None
    for degree in range(1, max_degree + 1):
        columns = {e: i for i, e in enumerate(_monomials_below(nvars, degree))}
        rows = []
        for g in rows_int:
            low = min(sum(e) for e in g)
            for shift in _monomials_below(nvars, degree - low):
                row = {}
                for e, c in g.items():
                    target = tuple(a + b for a, b in zip(e, shift))
                    if sum(target) < degree:
                        row[columns[target]] = c
                if row:
                    rows.append(row)
        corank = len(columns) - _rank_mod_p(rows)
        if corank == previous:
            return corank
        previous = corank
    raise ValueError(f"quotient dimension did not stabilize by degree "
                     f"{max_degree}")
