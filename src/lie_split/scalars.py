"""Exact scalar arithmetic: rationals, sparse combinations, polynomials.

Rational numbers are stdlib ``fractions.Fraction`` values, which already
guarantee the canonical form we rely on everywhere (lowest terms, positive
denominator, arbitrary precision).  ``str()`` of a Fraction is exactly the
``p/q`` (or ``p`` when the denominator is 1) wire format used in all JSON and
CSV output, and ``Fraction(text)`` parses it back.

``_Combo`` is the one exact combination of the symbolic types: rationals
on sparse keys, held as a reduced common denominator over integer
numerators.  Bracket trees (``freelie.LieCombo``), words
(``freelie.AssocPoly``) and exponents (``UniPoly``, a polynomial in one
formal variable written ``t``) are its keys.  ``UniPoly`` is the
coefficient type used when Lie brackets carry a free parameter (structure
constants like [X,Z] = t*Y).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Union

Scalar = Union[int, Fraction]


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and p/q strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(q: Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is one."""
    return str(q)


_COEFF_RE = re.compile(
    r"^\s*(?P<rat>[+-]?\d+(?:/\d+)?)\s*(?:t(?:\^(?P<exp>\d+))?)?\s*$"
)


def parse_coefficient(text: str) -> "UniPoly":
    """Parse 'p/q' or 'p/q t^m' (plain 't' means t^1) into a monomial."""
    m = _COEFF_RE.match(text)
    if m is None:
        raise ValueError(f"bad coefficient literal: {text!r}")
    try:
        rat = Fraction(m.group("rat"))
    except ZeroDivisionError:
        raise ValueError(f"bad coefficient literal: {text!r}") from None
    if "t" not in text:
        exp = 0
    else:
        exp = int(m.group("exp")) if m.group("exp") else 1
    return UniPoly.monomial(rat, exp)


_OWN = object()  # _new/_reduced default: keep self's degree or cap


class _Combo:
    """Sparse rational combination, held as one common denominator and
    integer numerators.

    den is a positive int and nums maps key -> nonzero int, with
    gcd(den, every numerator) = 1 and den = 1 for the empty combination,
    so equal combinations have equal fields.  ``terms`` gives the
    coefficients as reduced Fractions.  A subclass builds results in
    ``_new`` (setting its degree or cap, if it has one) and orders and
    labels keys for printing with ``_sort_key`` and ``_label``.
    """

    __slots__ = ("den", "nums")

    def __init__(self, terms: Dict):
        coeffs = {k: as_fraction(c) for k, c in terms.items()}
        den = self.den = lcm(*(c.denominator for c in coeffs.values()))
        self.nums = {k: c.numerator * (den // c.denominator)
                     for k, c in coeffs.items() if c}

    @classmethod
    def zero(cls, *args):
        """The empty combination; args as for the constructor after terms."""
        return cls(None, *args)

    def _new(self, nums: Dict, den: int, extra=_OWN):
        """nums / den, already in lowest terms, with self's degree or cap,
        or extra in its place."""
        raise NotImplementedError

    def _reduced(self, nums: Dict, den: int, extra=_OWN):
        """nums / den (nonzero int numerators, den > 0) with the common
        factor of den and every numerator divided out; extra as for _new."""
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
        return self._new(nums, den, extra)

    def _sum(self, other: "_Combo", mine, theirs, extra=_OWN):
        """The (key, numerator) pairs mine of self plus theirs of other,
        over the two combinations' common denominator."""
        g = gcd(self.den, other.den)
        m1, m2 = other.den // g, self.den // g
        out = {k: n * m1 for k, n in mine}
        for k, n in theirs:
            s = out.get(k, 0) + n * m2
            if s:
                out[k] = s
            else:
                del out[k]
        return self._reduced(out, self.den * m1, extra)

    @property
    def terms(self) -> Dict:
        """key -> reduced Fraction coefficient, as a new dict."""
        den = self.den
        return {k: Fraction(n, den) for k, n in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __neg__(self):
        return self._new({k: -n for k, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = as_fraction(c)
        if not c:
            return self._new({}, 1)
        p = c.numerator
        return self._reduced({k: n * p for k, n in self.nums.items()},
                             self.den * c.denominator)

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        return " + ".join(f"{format_rational(c)}*{self._label(k)}"
                          for k, c in self.sorted_terms())


class UniPoly(_Combo):
    """Univariate polynomial with rational coefficients, keyed by exponent.

    Built from the coefficients of t^0, t^1, ...; zero coefficients are not
    stored, so the zero polynomial has no keys and reports degree -1.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        _Combo.__init__(self, dict(enumerate(coeffs or ())))

    def _new(self, nums, den, extra=_OWN):
        res = UniPoly.__new__(UniPoly)
        res.den, res.nums = den, nums
        return res

    @classmethod
    def one(cls) -> "UniPoly":
        return cls.monomial(1, 0)

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls.monomial(c, 0)

    @classmethod
    def monomial(cls, c, exp: int) -> "UniPoly":
        if exp < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls((0,) * exp + (c,))

    @property
    def degree(self) -> int:
        return max(self.nums, default=-1)

    def coefficient(self, exp: int) -> Fraction:
        return Fraction(self.nums.get(exp, 0), self.den)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not self.nums:
            return other
        if not other.nums:
            return self
        return self._sum(other, self.nums.items(), other.nums.items())

    def __mul__(self, other):
        """Cauchy product on the integer numerators; a rational scales."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        right = list(other.nums.items())
        out: Dict[int, int] = {}
        for i, a in self.nums.items():
            for j, b in right:
                out[i + j] = out.get(i + j, 0) + a * b
        return self._reduced({e: n for e, n in out.items() if n},
                             self.den * other.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        return _Combo.__eq__(self, other)

    def __hash__(self):  # a constant hashes like the Fraction it equals
        return (hash(self.coefficient(0)) if self.degree <= 0
                else _Combo.__hash__(self))

    def __call__(self, value):
        """Evaluate with Horner's rule; value may be Fraction, float, mpf."""
        acc = 0 * value
        for exp in range(self.degree, -1, -1):
            acc = acc * value + self.coefficient(exp)
        return acc

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        return " + ".join(
            format_rational(c) + ("" if e == 0 else " t" if e == 1
                                  else f" t^{e}")
            for e, c in sorted(self.terms.items()))

    def __repr__(self) -> str:
        dense = [self.coefficient(e) for e in range(self.degree + 1)]
        return f"UniPoly({dense!r})"
