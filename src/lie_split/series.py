"""Truncated power series in a formal parameter over an associative algebra.

A series holds coefficients c_0..c_order of lambda^0..lambda^order; products
are Cauchy products with everything beyond the order dropped.  The algebra is
supplied as a small context object (zero/unit/add/scale/mul), so the same
series code runs over exact noncommutative polynomials, float matrices and
extended-precision matrices.

Coefficients are a Python list, one algebra call per coefficient product
or sum, whatever the algebra.  The rows of the term recursion in ``engine``
are held as *stacks*: a module that has a ``stacks`` attribute supplies
its own (matrices of both precision kits: the kit itself, see
``matrices``); every other one (exact polynomials, free Lie combinations,
structure constants) gets a ``ListStack``, a Python list whose operations
are single calls into the module itself.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .freelie import AssocPoly


class AssocPolyAlgebra:
    """Exact coefficient algebra: noncommutative polynomials."""

    def __init__(self, max_degree=None):
        self.max_degree = max_degree

    def zero(self):
        return AssocPoly.zero(self.max_degree)

    def unit(self):
        return AssocPoly.unit(self.max_degree)

    def add(self, a, b):
        return a + b

    def scale(self, c, a):
        return a.scale(c)

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a.is_zero()


class ListStack:
    """Stack of elements as a Python list; each operation is one call into
    the module (zero/add/scale/bracket/is_zero) it was built from.

    ``nonzero`` marks known-zero entries as None; ``ad_into`` skips None
    entries, so zeros are tested once, on the input.
    """

    def __init__(self, mod):
        self.mod = mod

    def stack(self, elems, length: int) -> list:
        out = list(elems)
        out.extend(self.mod.zero() for _ in range(length - len(out)))
        return out

    def nonzero(self, s) -> list:
        """The stack with its known-zero entries replaced by None."""
        is_zero = self.mod.is_zero
        return [None if is_zero(v) else v for v in s]

    def ad_into(self, dst, offset: int, c, s, coef) -> list:
        """coef * [c, s_i] for every entry, returned and also added into
        dst[offset + i]."""
        mod = self.mod
        out = [None if v is None else mod.scale(coef, mod.bracket(c, v))
               for v in s]
        for i, v in enumerate(out):
            if v is not None:
                dst[offset + i] = mod.add(dst[offset + i], v)
        return out


def stack_ops(mod):
    """The stack kind of a module or algebra: its own ``stacks`` when it has
    one, a ListStack over it otherwise."""
    ops = getattr(mod, "stacks", None)
    return ops if ops is not None else ListStack(mod)


class TruncSeries:
    """Coefficients c[0..order] as a list (see ``ListStack``); immutable by
    convention."""

    __slots__ = ("algebra", "order", "coeffs")

    def __init__(self, algebra, coeffs: Sequence, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the order allows")
        self.algebra = algebra
        self.order = order
        self.coeffs = ListStack(algebra).stack(coeffs, order + 1)

    @classmethod
    def unit(cls, algebra, order: int) -> "TruncSeries":
        return cls(algebra, [algebra.unit()], order)

    def coefficient(self, power: int):
        if not (0 <= power <= self.order):
            raise ValueError(f"power {power} outside series order {self.order}")
        return self.coeffs[power]

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """Cauchy product truncated at the common order: for each nonzero
        a[i], out[i + j] += a[i] b[j] over the nonzero b[j], j <= order - i."""
        self._check(other)
        alg = self.algebra
        n = self.order
        ops = ListStack(alg)
        a, b = ops.nonzero(self.coeffs), ops.nonzero(other.coeffs)
        out = ops.stack([], n + 1)
        b_support = [j for j, v in enumerate(b) if v is not None]
        for i, ai in enumerate(a):
            if ai is not None:
                for j in b_support[:bisect_right(b_support, n - i)]:
                    out[i + j] = alg.add(out[i + j], alg.mul(ai, b[j]))
        return TruncSeries(alg, out, n)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError("series orders differ")
        if self.algebra is not other.algebra:
            raise ValueError("series algebras differ")


def exp_factor(algebra, elem, power: int, order: int) -> TruncSeries:
    """Series of exp(lambda^power * elem): sum_j lambda^(power*j) elem^j / j!.

    power >= 1; the sum stops once power*j exceeds the order.  Each 1/j is
    applied as the power is built, so the terms never exceed the size of
    the coefficients.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    unit = algebra.unit()
    coeffs = ListStack(algebra).stack([unit], order + 1)
    term = unit
    j = 1
    while power * j <= order:
        term = algebra.scale(Fraction(1, j), algebra.mul(term, elem))
        coeffs[power * j] = term
        j += 1
    return TruncSeries(algebra, coeffs, order)

