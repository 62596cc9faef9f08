"""Sparse multivariate polynomials over the exact rationals.

A polynomial stores an ordered variable tuple, one positive integer
denominator ``den`` and a dict ``nums`` mapping exponent tuples to nonzero
integer numerators, in lowest terms: ``den`` and the numerators have gcd 1,
and the zero polynomial has ``den`` 1, so equal polynomials store equal
values.  Sums, products, derivatives and substitutions are integer
arithmetic on the numerators, followed, only when the denominator is above
1, by one gcd that restores lowest terms.  ``terms`` gives the coefficients
as ``Fraction``s for code outside the library.  Everything is immutable by
convention: arithmetic returns fresh objects and never mutates inputs, so
values are safe to share across concurrent computations.

Printing lists the terms in degree-reverse-lexicographic order.  The local
order under which leading terms, division and quotient dimensions are
taken lives in ``localring``, its only user.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import add

from .errors import (
    PolynomialSyntaxError,
    UnknownVariableError,
    VariableMismatchError,
)

Exponents = tuple[int, ...]


# ---------------------------------------------------------------------------
# monomials (bare exponent tuples)

def _print_key(exps: Exponents):
    """Degrevlex sort key for printing: larger key is printed first."""
    return sum(exps), tuple(-e for e in reversed(exps))


# ---------------------------------------------------------------------------
# polynomials

def _accumulate(pairs, terms=None) -> dict[Exponents, int]:
    """Add (exponents, nonzero numerator) pairs into a copy of ``terms``.

    A new monomial keeps its numerator as given, and every sum that cancels
    is dropped, so no zero is stored.
    """
    acc = dict(terms) if terms else {}
    get = acc.get
    for exps, coeff in pairs:
        prev = get(exps, 0)
        if prev:
            total = prev + coeff
            if total:
                acc[exps] = total
            else:
                del acc[exps]
        else:
            acc[exps] = coeff
    return acc


def _dot(variables, pairs) -> "Polynomial":
    """sum(p * q for p, q in pairs), with the products of terms summed as
    integers over the lcm of the pairs' denominators."""
    dens = [p.den * q.den for p, q in pairs]
    den = lcm(*dens)
    acc: dict[Exponents, int] = {}
    get = acc.get
    for (p, q), d in zip(pairs, dens):
        scale = den // d
        for e1, c1 in p.nums.items():
            c1 *= scale
            for e2, c2 in q.nums.items():
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
    return Polynomial._of(variables, {e: c for e, c in acc.items() if c}, den)


def _rational(c):
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


class Polynomial:
    """Sparse exact polynomial in a fixed ordered variable tuple: the
    integer numerators ``nums`` over the denominator ``den``."""

    __slots__ = ("variables", "nums", "den")

    def __new__(cls, variables, terms=None):
        variables = tuple(variables)
        n = len(variables)
        coeffs = []
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(
                    f"exponent tuple {exps} has length {len(exps)}, expected {n}")
            if any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"negative or non-integer exponent in {exps}")
            coeff = _rational(coeff)
            if coeff:
                coeffs.append((exps, coeff))
        den = lcm(*(c.denominator for _, c in coeffs))
        return cls._of(variables, _accumulate(
            (e, c.numerator * (den // c.denominator)) for e, c in coeffs), den)

    @classmethod
    def _of(cls, variables, nums, den=1) -> "Polynomial":
        """``nums`` (no zero) over the nonzero ``den``, brought to lowest
        terms when ``den`` is not 1."""
        if den != 1:
            if den < 0:
                den, nums = -den, {e: -c for e, c in nums.items()}
            g = gcd(den, *nums.values())
            if g > 1:
                den //= g
                nums = {e: c // g for e, c in nums.items()}
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls._of(tuple(variables), {})

    @classmethod
    def constant(cls, variables, value) -> "Polynomial":
        variables = tuple(variables)
        value = _rational(value)
        nums = {(0,) * len(variables): value.numerator} if value else {}
        return cls._of(variables, nums, value.denominator)

    @classmethod
    def variable(cls, variables, index) -> "Polynomial":
        variables = tuple(variables)
        if not 0 <= index < len(variables):
            raise IndexError(f"variable index {index} out of range")
        exps = [0] * len(variables)
        exps[index] = 1
        return cls._of(variables, {tuple(exps): 1})

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The coefficients as ``Fraction``s, by exponent tuple."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        return max((sum(e) for e in self.nums), default=None)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * len(self.variables), 0), self.den)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.nums}) <= 1

    def _require_same_variables(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable lists differ: {self.variables} vs {other.variables}")

    # -- ring operations ----------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        self._require_same_variables(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        mine = self.nums if a == 1 else {e: c * a for e, c in self.nums.items()}
        pairs = (other.nums.items() if b == 1 else
                 ((e, c * b) for e, c in other.nums.items()))
        return Polynomial._of(self.variables, _accumulate(pairs, mine), den)

    def __add__(self, other):
        if isinstance(other, Polynomial):
            return self._plus(other, 1)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self._plus(other, -1)
        return NotImplemented

    def __neg__(self):
        return Polynomial._of(self.variables,
                              {e: -c for e, c in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_variables(other)
            return _dot(self.variables, [(self, other)])
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, scalar) -> "Polynomial":
        scalar = _rational(scalar)
        if not scalar:
            return Polynomial._of(self.variables, {})
        a = scalar.numerator
        return Polynomial._of(self.variables,
                              {e: c * a for e, c in self.nums.items()},
                              self.den * scalar.denominator)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.variables, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus and substitution ------------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        if not 0 <= index < len(self.variables):
            raise IndexError(f"variable index {index} out of range")
        nums: dict[Exponents, int] = {}
        for exps, coeff in self.nums.items():
            e = exps[index]
            if e:
                nums[exps[:index] + (e - 1,) + exps[index + 1:]] = coeff * e
        return Polynomial._of(self.variables, nums, self.den)

    def evaluate(self, point) -> Fraction:
        point = [_rational(c) for c in point]
        if len(point) != len(self.variables):
            raise ValueError("point length does not match variable count")
        return Fraction(sum(c * prod(map(pow, point, exps))
                            for exps, c in self.nums.items()), self.den)

    def translate(self, point) -> "Polynomial":
        """p(x + point): the germ of p recentred so that ``point`` maps to 0.

        Substitutes x_i -> x_i + p_i/q_i one variable at a time, each power
        as the binomial sum x_i^e -> sum(C(e, k) * (p_i/q_i)^(e-k) * x_i^k)
        multiplied through by q_i^t, t the top power of x_i.
        """
        point = [_rational(c) for c in point]
        if len(point) != len(self.variables):
            raise ValueError("point length does not match variable count")
        nums, den = self.nums, self.den
        for i, a in enumerate(point):
            if a and nums:
                p, q = a.numerator, a.denominator
                t = max(exps[i] for exps in nums)
                nums = _accumulate(
                    (exps[:i] + (k,) + exps[i + 1:], coeff * comb(exps[i], k)
                     * p ** (exps[i] - k) * q ** (t - exps[i] + k))
                    for exps, coeff in nums.items()
                    for k in range(exps[i] + 1))
                den *= q ** t
        return Polynomial._of(self.variables, nums, den)

    def specialize_at_one(self, index: int) -> "Polynomial":
        """Set variable ``index`` to 1 and drop it from the variable list."""
        if not 0 <= index < len(self.variables):
            raise IndexError(f"variable index {index} out of range")
        new_vars = self.variables[:index] + self.variables[index + 1:]
        return Polynomial._of(new_vars, _accumulate(
            (exps[:index] + exps[index + 1:], coeff)
            for exps, coeff in self.nums.items()), self.den)

    def rename_variables(self, new_variables) -> "Polynomial":
        new_variables = tuple(new_variables)
        if len(new_variables) != len(self.variables):
            raise ValueError("variable count mismatch")
        return Polynomial._of(new_variables, self.nums, self.den)

    # -- normalization ------------------------------------------------------

    def primitive_factor(self) -> Fraction:
        """Positive c with c*self having coprime integer coefficients."""
        return Fraction(self.den, gcd(*self.nums.values()) or 1)

    # -- comparison / hashing / text ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.variables == other.variables and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.variables, self.den, frozenset(self.nums.items())))

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        if not self.nums:
            return "0"
        pieces = []
        for exps in sorted(self.nums, key=_print_key, reverse=True):
            coeff = self.nums[exps]
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            mag = Fraction(abs(coeff), self.den)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out



# ---------------------------------------------------------------------------
# jacobians and minors

def jacobian_minors(polys) -> list[Polynomial]:
    """All r x r minors of the Jacobian of r polynomials in m variables.

    Minors are determinants of the column subsets, listed in lexicographic
    order of the column index tuples, each taken as-is (no alternating
    sign): the ideal the minors generate does not see the sign.

    The minors grow one row at a time: a minor of rows 0..k expands along
    row k, the i-th chosen column with sign (-1)^(k+i), over the minors of
    rows 0..k-1 already built, so every smaller minor is computed once,
    each expansion as one integer sum of products (``_dot``).
    """
    polys = list(polys)
    r = len(polys)
    m = len(polys[0].variables) if polys else 0
    if r > m:
        raise ValueError(f"need r <= m, got r={r} rows and m={m} variables")
    if not polys:
        raise ValueError("empty polynomial list")
    variables = polys[0].variables
    if any(p.variables != variables for p in polys[1:]):
        raise VariableMismatchError("jacobian rows use different variables")
    minors = {(j,): polys[0].partial_derivative(j) for j in range(m)}
    for k in range(1, r):
        row = [polys[k].partial_derivative(j) for j in range(m)]
        grown = {}
        for cols in itertools.combinations(range(m), k + 1):
            grown[cols] = _dot(variables, [
                (-row[c] if (k + i) % 2 else row[c],
                 minors[cols[:i] + cols[i + 1:]])
                for i, c in enumerate(cols)])
        minors = grown
    return list(minors.values())


# ---------------------------------------------------------------------------
# parser
#
# expr     := term (('+'|'-') term)*
# term     := factor ('*' factor)*
# factor   := rational | var | var '^' uint | '(' expr ')' | '-' factor
# rational := uint ('/' uint)?
#
# Whitespace is insignificant; implicit multiplication is rejected.

_END = "end"


def _tokenize(text: str):
    """Tokens (kind, text, UTF-8 byte offset)."""
    # at[i] is the byte offset of character i
    at = (range(len(text) + 1) if text.isascii() else list(
        itertools.accumulate((len(ch.encode("utf-8", "surrogatepass"))
                              for ch in text), initial=0)))
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                raise PolynomialSyntaxError(
                    "non-integer literal: decimal point not allowed", at[j])
            tokens.append(("int", text[i:j], at[i]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], at[i]))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, at[i]))
            i += 1
            continue
        if ch == ".":
            raise PolynomialSyntaxError(
                "non-integer literal: decimal point not allowed", at[i])
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", at[i])
    tokens.append((_END, "", at[n]))
    return tokens


class _Parser:
    def __init__(self, text: str, variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = tuple(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise PolynomialSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok[0] != _END:
            raise PolynomialSyntaxError(
                f"unexpected trailing input {tok[1]!r}", tok[2])
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            result = result * self.factor()
        return result

    def factor(self) -> Polynomial:
        tok = self.advance()
        kind, text, offset = tok
        if kind == "-":
            return -self.factor()
        if kind == "(":
            inner = self.expr()
            self.expect(")", "')'")
            return inner
        if kind == "int":
            num, den = int(text), 1
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("int", "an unsigned integer denominator")
                den = int(den_tok[1])
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", den_tok[2])
            return Polynomial._of(self.variables, {
                (0,) * len(self.variables): num} if num else {}, den)
        if kind == "name":
            if text not in self.index:
                raise UnknownVariableError(text, offset)
            exps = [0] * len(self.variables)
            exps[self.index[text]] = 1
            if self.peek()[0] == "^":
                self.advance()
                exp_tok = self.expect("int", "an unsigned integer exponent")
                exps[self.index[text]] = int(exp_tok[1])
            return Polynomial._of(self.variables, {tuple(exps): 1})
        if kind == _END:
            raise PolynomialSyntaxError("unexpected end of input", offset)
        raise PolynomialSyntaxError(f"unexpected token {text!r}", offset)


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse polynomial text over the given ordered variable names.

    Raises PolynomialSyntaxError or UnknownVariableError, each with the
    UTF-8 byte offset of the offending token.
    Printing a polynomial with ``str`` and re-parsing is a fixed point.
    """
    return _Parser(text, variables).parse()
