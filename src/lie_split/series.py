"""Truncated power series in a formal parameter over an associative algebra.

A series holds coefficients c_0..c_order of lambda^0..lambda^order; products
are Cauchy products with everything beyond the order dropped.  The algebra is
supplied as a small context object (zero/unit/add/scale/mul), so the same
series code runs over exact noncommutative polynomials, float matrices and
extended-precision matrices.

Coefficient lists, and the rows of the term recursion in ``engine``, are
held as *stacks*.  A module or algebra that has a ``stacks`` attribute
supplies its own (matrices of both precision kits: one (count, n, n) array,
see ``matrices.ArrayStack``); every other one (exact polynomials, free Lie
combinations, structure constants) gets a ``ListStack``, a Python list whose
operations are single calls into the module itself.
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
    the module (zero/add/scale/bracket) or algebra (mul) it was built from.

    ``nonzero`` marks known-zero entries as None; the operations that take
    a stack skip None entries, so zeros are tested once, on the input.
    """

    def __init__(self, mod):
        self.mod = mod

    def stack(self, elems, length: int) -> list:
        out = list(elems)
        out.extend(self.mod.zero() for _ in range(length - len(out)))
        return out

    def copy(self, s) -> list:
        return list(s)

    def entry(self, s, i):
        return s[i]

    def support(self, s) -> list:
        """Indices of the entries not known to be zero."""
        return [i for i, v in enumerate(self.nonzero(s)) if v is not None]

    def nonzero(self, s) -> list:
        """The stack with its known-zero entries replaced by None."""
        probe = getattr(self.mod, "is_zero", None)
        if probe is None:
            return list(s)
        return [None if probe(v) else v for v in s]

    def scale(self, c, s) -> list:
        return [self.mod.scale(c, v) for v in s]

    def ad_into(self, dst, offset: int, c, s, coef) -> list:
        """coef * [c, s_i] for every entry, returned and also added into
        dst[offset + i]."""
        mod = self.mod
        out = [None if v is None else mod.scale(coef, mod.bracket(c, v))
               for v in s]
        self.add_into(dst, offset, out)
        return out

    def add_into(self, dst, offset: int, src) -> None:
        """dst[offset + i] += src[i]."""
        add = self.mod.add
        for i, v in enumerate(src):
            if v is not None:
                dst[offset + i] = add(dst[offset + i], v)

    def mul_into(self, dst, offset: int, a, s, idx) -> None:
        """dst[offset + j] += a s[j] for j in idx."""
        alg = self.mod
        for j in idx:
            dst[offset + j] = alg.add(dst[offset + j], alg.mul(a, s[j]))


def stack_ops(mod):
    """The stack kind of a module or algebra: its own ``stacks`` when it has
    one, a ListStack over it otherwise."""
    ops = getattr(mod, "stacks", None)
    return ops if ops is not None else ListStack(mod)


class TruncSeries:
    """Coefficients c[0..order] as one stack; immutable by convention."""

    __slots__ = ("algebra", "order", "coeffs", "ops")

    def __init__(self, algebra, coeffs: Sequence, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the order allows")
        self.algebra = algebra
        self.order = order
        self.ops = stack_ops(algebra)
        self.coeffs = self.ops.stack(coeffs, order + 1)

    @classmethod
    def unit(cls, algebra, order: int) -> "TruncSeries":
        return cls(algebra, [algebra.unit()], order)

    @classmethod
    def zero(cls, algebra, order: int) -> "TruncSeries":
        return cls(algebra, [], order)

    def coefficient(self, power: int):
        if not (0 <= power <= self.order):
            raise ValueError(f"power {power} outside series order {self.order}")
        return self.ops.entry(self.coeffs, power)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        out = self.ops.copy(self.coeffs)
        self.ops.add_into(out, 0, other.coeffs)
        return TruncSeries(self.algebra, out, self.order)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        out = self.ops.copy(self.coeffs)
        self.ops.add_into(out, 0, self.ops.scale(-1, other.coeffs))
        return TruncSeries(self.algebra, out, self.order)

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(self.algebra, self.ops.scale(c, self.coeffs),
                           self.order)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """Cauchy product truncated at the common order: for each nonzero
        a[i], out[i + j] += a[i] b[j] over the nonzero b[j], j <= order - i."""
        self._check(other)
        ops = self.ops
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = ops.stack([], n + 1)
        b_support = ops.support(b)
        for i in ops.support(a):
            idx = b_support[:bisect_right(b_support, n - i)]
            if idx:
                ops.mul_into(out, i, a[i], b, idx)
        return TruncSeries(self.algebra, out, n)

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
    coeffs = stack_ops(algebra).stack([unit], order + 1)
    term = unit
    j = 1
    while power * j <= order:
        term = algebra.scale(Fraction(1, j), algebra.mul(term, elem))
        coeffs[power * j] = term
        j += 1
    return TruncSeries(algebra, coeffs, order)

