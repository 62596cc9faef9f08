"""Sparse multivariate polynomials over the exact rationals.

A polynomial stores an ordered variable tuple and a dict mapping exponent
tuples to nonzero ``Fraction`` coefficients.  Everything is immutable by
convention: arithmetic returns fresh objects and never mutates inputs, so
values are safe to share across concurrent computations.

A product, and df(v) in ``indices.directional_derivative``, is formed on
integer numerators: each factor's coefficients are cleared to integers
over one denominator, the products of terms are summed as integers, and
one ``Fraction`` is built per term of the result, so the stored
coefficients are still nonzero ``Fraction``s.

Printing lists the terms in degree-reverse-lexicographic order.  The local
order under which leading terms, division and quotient dimensions are
taken lives in ``localring``, its only user.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, neg

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

def _accumulate(pairs, terms=None) -> dict[Exponents, Fraction]:
    """Add (exponents, nonzero coefficient) pairs into a copy of ``terms``.

    A new monomial keeps its coefficient as given, with no arithmetic, and
    every sum that cancels is dropped, so the result is canonical when
    ``terms`` is.
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


def _numerators(terms) -> tuple[int, dict[Exponents, int]]:
    """(den, numerators): the least positive den with every ``den * c``
    an integer, and those integers by monomial."""
    den = 1
    for c in terms.values():
        den = lcm(den, c.denominator)
    return den, {e: c.numerator * (den // c.denominator)
                 for e, c in terms.items()}


def _products(factors, den: int) -> dict[Exponents, Fraction]:
    """The terms of sum(a * b for a, b in factors) / den, for pairs of
    integer-coefficient term dicts: the products are summed as integers and
    one Fraction is built per nonzero term of the sum."""
    acc: dict[Exponents, int] = {}
    get = acc.get
    for a, b in factors:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
    return {e: Fraction(c, den) for e, c in acc.items() if c}


def _coerce_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


class Polynomial:
    """Sparse exact polynomial in a fixed ordered variable tuple."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        pairs = []
        n = len(variables)
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(
                    f"exponent tuple {exps} has length {len(exps)}, expected {n}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = _coerce_coeff(coeff)
            if coeff:
                pairs.append((exps, coeff))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", _accumulate(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, variables, terms) -> "Polynomial":
        """Internal fast path: ``terms`` must already be canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls._raw(tuple(variables), {})

    @classmethod
    def constant(cls, variables, value) -> "Polynomial":
        variables = tuple(variables)
        value = _coerce_coeff(value)
        if not value:
            return cls._raw(variables, {})
        return cls._raw(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables, index) -> "Polynomial":
        variables = tuple(variables)
        if not 0 <= index < len(variables):
            raise IndexError(f"variable index {index} out of range")
        exps = [0] * len(variables)
        exps[index] = 1
        return cls._raw(variables, {tuple(exps): Fraction(1)})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def _require_same_variables(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable lists differ: {self.variables} vs {other.variables}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_variables(other)
        return Polynomial._raw(self.variables,
                               _accumulate(other.terms.items(), self.terms))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_variables(other)
        negated = zip(other.terms, map(neg, other.terms.values()))
        return Polynomial._raw(self.variables,
                               _accumulate(negated, self.terms))

    def __neg__(self):
        return Polynomial._raw(self.variables,
                               {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_variables(other)
            den_a, a = _numerators(self.terms)
            den_b, b = _numerators(other.terms)
            return Polynomial._raw(self.variables,
                                   _products([(a, b)], den_a * den_b))
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, scalar) -> "Polynomial":
        scalar = _coerce_coeff(scalar)
        if not scalar:
            return Polynomial._raw(self.variables, {})
        return Polynomial._raw(self.variables,
                               {e: c * scalar for e, c in self.terms.items()})

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
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            new = list(exps)
            new[index] = e - 1
            terms[tuple(new)] = coeff * e
        return Polynomial._raw(self.variables, terms)

    def evaluate(self, point) -> Fraction:
        point = [_coerce_coeff(c) for c in point]
        if len(point) != len(self.variables):
            raise ValueError("point length does not match variable count")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for a, e in zip(point, exps):
                if e:
                    value *= a ** e
            total += value
        return total

    def translate(self, point) -> "Polynomial":
        """p(x + point): the germ of p recentred so that ``point`` maps to 0.

        Substitutes x_i -> x_i + a_i one variable at a time, each power as
        the binomial sum x_i^e -> sum(C(e, k) * a_i^(e-k) * x_i^k).
        """
        point = [_coerce_coeff(c) for c in point]
        if len(point) != len(self.variables):
            raise ValueError("point length does not match variable count")
        terms = self.terms
        for i, a in enumerate(point):
            if a:
                terms = _accumulate(
                    (exps[:i] + (k,) + exps[i + 1:],
                     coeff * comb(exps[i], k) * a ** (exps[i] - k))
                    for exps, coeff in terms.items()
                    for k in range(exps[i] + 1))
        return Polynomial._raw(self.variables, dict(terms))

    def specialize_at_one(self, index: int) -> "Polynomial":
        """Set variable ``index`` to 1 and drop it from the variable list."""
        if not 0 <= index < len(self.variables):
            raise IndexError(f"variable index {index} out of range")
        new_vars = self.variables[:index] + self.variables[index + 1:]
        return Polynomial._raw(new_vars, _accumulate(
            (exps[:index] + exps[index + 1:], coeff)
            for exps, coeff in self.terms.items()))

    def rename_variables(self, new_variables) -> "Polynomial":
        new_variables = tuple(new_variables)
        if len(new_variables) != len(self.variables):
            raise ValueError("variable count mismatch")
        return Polynomial._raw(new_variables, dict(self.terms))

    # -- normalization ------------------------------------------------------

    def primitive_factor(self) -> Fraction:
        """Positive c with c*self having coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        den, numerators = _numerators(self.terms)
        return Fraction(den, gcd(*numerators.values()))

    # -- comparison / hashing / text ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=_print_key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            mag = abs(coeff)
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
    rows 0..k-1 already built, so every smaller minor is computed once.
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
            total = Polynomial.zero(variables)
            for i, c in enumerate(cols):
                if not row[c].is_zero():
                    term = row[c] * minors[cols[:i] + cols[i + 1:]]
                    total = total - term if (k + i) % 2 else total + term
            grown[cols] = total
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
            value = Fraction(int(text))
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("int", "an unsigned integer denominator")
                den = int(den_tok[1])
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", den_tok[2])
                value /= den
            return Polynomial.constant(self.variables, value)
        if kind == "name":
            if text not in self.index:
                raise UnknownVariableError(text, offset)
            exps = [0] * len(self.variables)
            exps[self.index[text]] = 1
            if self.peek()[0] == "^":
                self.advance()
                exp_tok = self.expect("int", "an unsigned integer exponent")
                exps[self.index[text]] = int(exp_tok[1])
            return Polynomial._raw(self.variables, {tuple(exps): Fraction(1)})
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
