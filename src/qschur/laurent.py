"""Exact arithmetic in Z[v, v^-1] and the quantum combinatorics built on it.

A Laurent polynomial is stored sparsely as a map from exponent to integer
coefficient; zero coefficients are never stored, so equal ring elements have
identical term maps.  Quantum integers [r], quantum factorials [m]! and
Gaussian binomials [r; s] are provided as module-level functions with shared
caches.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from functools import lru_cache


class NotDivisible(ArithmeticError):
    """Exact division failed; in this library that means a broken integrality claim."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial."""


class LaurentPoly:
    """An element of Z[v, v^-1].

    >>> v, w = LaurentPoly.v(), LaurentPoly.v(-1)
    >>> (v + w) * (v - w)
    LaurentPoly('v^2 - v^-2')
    >>> quantum_int(4).exact_div(quantum_int(2))
    LaurentPoly('v^2 + v^-2')
    """

    # _hash is filled by the first hash() call; every constructor leaves it
    # unset, and no operation changes _terms after construction.
    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            acc[exp] = acc.get(exp, 0) + coeff
        self._terms = {e: c for e, c in acc.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> LaurentPoly:
        return LaurentPoly()

    @staticmethod
    def one() -> LaurentPoly:
        """The unit 1: one shared value, as no operation changes a polynomial in place."""
        return _ONE

    @staticmethod
    def v(exp: int = 1) -> LaurentPoly:
        """The monomial v^exp."""
        return LaurentPoly({exp: 1})

    @staticmethod
    def from_int(n: int) -> LaurentPoly:
        return LaurentPoly({0: n})

    @staticmethod
    def coerce(x: int | LaurentPoly) -> LaurentPoly:
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, int):
            return LaurentPoly.from_int(x)
        raise TypeError(f"cannot coerce {x!r} to LaurentPoly")

    # -- structure ---------------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """Terms as (exponent, coefficient) pairs, ascending by exponent."""
        return sorted(self._terms.items())

    def coefficient(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        """Smallest exponent; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        # A constant equals its integer, so it must hash as that integer.
        if self._terms.keys() <= {0}:
            self._hash = hash(self._terms.get(0, 0))
        else:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        other = LaurentPoly.coerce(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            n = terms.get(e, 0) + c
            if n:
                terms[e] = n
            else:
                terms.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return self + (-LaurentPoly.coerce(other))

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        """The product; a one-term factor s*v^k shifts and scales the other one.

        Multiplying by s*v^k needs no convolution: the other factor's
        exponents move by k and its coefficients scale by s.  A factor equal
        to 1 returns the other factor itself, not a copy, which is safe
        because no operation changes a polynomial in place; the shared unit
        :meth:`one` is recognised before anything else is looked at.

        >>> (LaurentPoly.v(2) + 3) * LaurentPoly({-1: -2})
        LaurentPoly('-2v - 6v^-1')
        """
        if other is _ONE:
            return self
        if self is _ONE:
            return LaurentPoly.coerce(other)
        x, y = self, LaurentPoly.coerce(other)
        if len(x._terms) == 1:
            x, y = y, x
        if len(y._terms) == 1:
            ((k, s),) = y._terms.items()
            if k == 0 and s == 1:
                return x
            out = LaurentPoly.__new__(LaurentPoly)
            out._terms = {e + k: c * s for e, c in x._terms.items()}
            return out
        terms: dict[int, int] = {}
        for e1, c1 in x._terms.items():
            for e2, c2 in y._terms.items():
                e = e1 + e2
                n = terms.get(e, 0) + c1 * c2
                if n:
                    terms[e] = n
                else:
                    del terms[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def exact_div(self, other: int | LaurentPoly) -> LaurentPoly:
        """Return q with q * other == self, or raise NotDivisible.

        A NotDivisible here signals a violated integrality claim: every
        division the algebra performs is guaranteed exact, so failure is a
        bug, not a data condition.
        """
        other = LaurentPoly.coerce(other)
        if other.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        # Shift both operands into Z[v]; v is a unit, so divisibility is
        # unaffected and the quotient shifts back by the valuation gap.
        low, den_low = self.valuation(), other.valuation()
        shift = low - den_low
        rem = {e - low: c for e, c in self._terms.items()}
        den = {e - den_low: c for e, c in other._terms.items()}
        den_deg = max(den)
        den_lead = den[den_deg]
        quot: dict[int, int] = {}
        while rem:
            deg = max(rem)
            if deg < den_deg:
                raise NotDivisible(f"{self} is not divisible by {other}")
            lead = rem[deg]
            q, r = divmod(lead, den_lead)
            if r:
                raise NotDivisible(f"{self} is not divisible by {other}")
            qe = deg - den_deg
            quot[qe] = q
            for e, c in den.items():
                n = rem.get(e + qe, 0) - q * c
                if n:
                    rem[e + qe] = n
                else:
                    rem.pop(e + qe, None)
        return LaurentPoly({e + shift: c for e, c in quot.items()})

    def bar(self) -> LaurentPoly:
        """The involution v -> v^-1."""
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        """Text form: terms by descending exponent, e.g. ``v^4 + 2 - v^-2``."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in sorted(self._terms.items(), reverse=True):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "v" if e == 1 else f"v^{e}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"

    def to_json(self) -> list[list]:
        """JSON form: [[exponent, "coefficient"], ...] ascending by exponent."""
        return [[e, str(c)] for e, c in self.items()]

    @staticmethod
    def from_json(data: list) -> LaurentPoly:
        """Parse the form :meth:`to_json` writes, or raise ValueError.

        ``data`` is a list of two-element lists ``[exponent, coefficient]``;
        the exponent is an integer and the coefficient an integer or a
        decimal-integer string.  Floats, bools and other strings are
        rejected rather than coerced.
        """
        bad = ValueError(f"expected a list of [exponent, coefficient] integer pairs: {data!r}")
        if not isinstance(data, list):
            raise bad
        terms = []
        for pair in data:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise bad
            exp, coeff = pair
            if isinstance(coeff, str) and _DECIMAL_RE.fullmatch(coeff):
                coeff = int(coeff)
            if not (_is_int(exp) and _is_int(coeff)):
                raise bad
            terms.append((exp, coeff))
        return LaurentPoly(terms)


# The unit LaurentPoly.one() returns; products test for it by identity.
_ONE = LaurentPoly({0: 1})

_DECIMAL_RE = re.compile(r"[+-]?[0-9]+")

# One signed term as parse_laurent reads it; a '*' is legal only after a coefficient.
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+)?\s*(?(coeff)\*?\s*)(?P<var>v(?:\^(?P<exp>-?\d+))?)?"
)


def _is_int(value) -> bool:
    """True for a JSON integer; bools and floats are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _add_term(terms: dict, key, coeff: LaurentPoly) -> None:
    """terms[key] += coeff, keeping no zero coefficients."""
    prev = terms.get(key)
    coeff = coeff if prev is None else prev + coeff
    if coeff.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = coeff


class _Combination:
    """The free Z[v, v^-1]-module operations on a map from keys to nonzero coefficients.

    A subclass supplies four hooks: ``_map()``, the map; ``_space()``, the
    tuple that fixes its module (a context and orientation, or a size);
    ``_raw(*space, map)``, which builds a value in that space from a map
    already free of zeros; and ``_require_compatible(other)``, which raises
    ``ContextMismatch`` for an operand of its type in another space.  An
    operand of another type gets ``NotImplemented``.
    """

    __slots__ = ()

    def _same_type(self, other: object) -> bool:
        # Either class may derive from the other, so a subclass works on both sides.
        return isinstance(other, _Combination) and (
            isinstance(other, type(self)) or isinstance(self, type(other))
        )

    @property
    def is_zero(self) -> bool:
        return not self._map()

    def __eq__(self, other: object) -> bool:
        if not self._same_type(other):
            return NotImplemented
        return self._space() == other._space() and self._map() == other._map()

    def __add__(self, other):
        if not self._same_type(other):
            return NotImplemented
        self._require_compatible(other)
        terms = dict(self._map())
        for key, coeff in other._map().items():
            _add_term(terms, key, coeff)
        return self._raw(*self._space(), terms)

    def __neg__(self):
        return self._raw(*self._space(), {k: -c for k, c in self._map().items()})

    def __sub__(self, other):
        if not self._same_type(other):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar: int | LaurentPoly):
        scalar = LaurentPoly.coerce(scalar)
        if scalar.is_zero:
            return self._raw(*self._space(), {})
        # Z[v, v^-1] has no zero divisors, so no product below is zero.
        return self._raw(*self._space(), {k: c * scalar for k, c in self._map().items()})

    def exact_div_scalar(self, scalar: int | LaurentPoly):
        """Each coefficient divided exactly by scalar; a zero scalar raises DivisionByZero."""
        scalar = LaurentPoly.coerce(scalar)
        if scalar.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        return self._raw(*self._space(), {k: c.exact_div(scalar) for k, c in self._map().items()})


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the text form ``str()`` writes, and more spellings of it, such as ``2 * v``.

    >>> parse_laurent("v^2 - 3 + 2 * v^-1")
    LaurentPoly('v^2 - 3 + 2v^-1')
    """
    end = len(text.rstrip())
    if not end:
        raise ValueError(f"empty Laurent polynomial: {text!r}")
    pos = 0
    terms: list[tuple[int, int]] = []
    while pos < end:
        m = _TERM_RE.match(text, pos, end)
        if m["coeff"] is None and m["var"] is None:
            raise ValueError(f"bad Laurent polynomial at position {pos}: {text!r}")
        if m["sign"] is None and terms:
            raise ValueError(f"missing sign at position {pos}: {text!r}")
        coeff = int(m["coeff"] or 1)
        exp = int(m["exp"]) if m["exp"] else (1 if m["var"] else 0)
        terms.append((exp, -coeff if m["sign"] == "-" else coeff))
        pos = m.end()
    return LaurentPoly(terms)


@lru_cache(maxsize=None)
def quantum_int(r: int) -> LaurentPoly:
    """The quantum integer [r] = (v^r - v^-r)/(v - v^-1).

    >>> quantum_int(2)
    LaurentPoly('v + v^-1')
    >>> quantum_int(-3)
    LaurentPoly('-v^2 - 1 - v^-2')
    """
    if r < 0:
        return -quantum_int(-r)
    return LaurentPoly({r - 1 - 2 * i: 1 for i in range(r)})


@lru_cache(maxsize=None)
def quantum_factorial(m: int) -> LaurentPoly:
    """[m]! = [m][m-1]...[1], with [0]! = 1."""
    if m < 0:
        raise ValueError("quantum factorial of a negative integer")
    if m == 0:
        return LaurentPoly.one()
    return quantum_factorial(m - 1) * quantum_int(m)


@lru_cache(maxsize=None)
def gauss_binomial(r: int, s: int) -> LaurentPoly:
    """The Gaussian binomial [r; s] = [r][r-1]...[r-s+1] / [s]!.

    Defined for all integer r; negative s yields 0 so that summation bounds
    elsewhere never need special-casing.

    >>> gauss_binomial(4, 2)
    LaurentPoly('v^4 + v^2 + 2 + v^-2 + v^-4')
    >>> gauss_binomial(-1, 2)
    LaurentPoly('1')
    """
    if s < 0:
        return LaurentPoly.zero()
    if s == 0 or s == r:
        return _ONE
    num = LaurentPoly.one()
    for i in range(s):
        num = num * quantum_int(r - i)
        if num.is_zero:
            return num
    return num.exact_div(quantum_factorial(s))
