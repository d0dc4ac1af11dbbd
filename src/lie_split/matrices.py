"""Concrete matrix backends at two precision levels, and the numeric
evaluation of the splitting products.

A *kit* bundles the matrix operations the rest of the code needs (arithmetic,
exponential, norms) for one precision level: NumpyKit holds float64 arrays,
MPKit holds mpmath numbers at a configurable number of significant digits
(>= 30 for the extended mode) in numpy object arrays.  Both kits hold their
matrices as numpy arrays, so their arithmetic, products and brackets are
written once, in a common base; MPKit forms the products of matrices
beyond 2 x 2 on integer mantissas instead.  Each kit also holds the rows
of the term recursions, one stack per row, so a row advances in place by
broadcast products instead of one call per entry: NumpyKit as one
(count, n, n) float64 array, MPKit as a MantissaStack of integer mantissas
with one binary exponent per entry.  MatrixAlgebra adapts a kit to both
the ad-module interface of the term recursion and the associative-algebra
interface of the series peelers; its ``stacks`` is the kit.  Series
products (the peeling oracles) stay one kit call per coefficient pair.
symmetric_products and standard_products build every truncated product of
the two splittings; once a product overflows (the kit's ``finite``), later
factors are not exponentiated, since every later product is non-finite.
NumpyKit exponentiates by scaling and squaring with a Pade approximant
(Al-Mohy and Higham 2009), on Python floats for a full finite 2 x 2 and on
numpy arrays otherwise.  MPKit exponentiates a finite 2 x 2 matrix by its
closed form (Putzer's formula), any other finite matrix by scaling and
squaring on integer mantissas.  Both kits exponentiate a matrix with a
non-finite entry to all nan.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict

import numpy as np
from numpy.random import default_rng

import mpmath as mp

from .engine import one_sided_terms, palindromic_products, symmetric_terms

GUARD_BITS = 32
EXPM_SCALE_BITS = 14
_BIT_LENGTH = np.frompyfunc(int.bit_length, 1, 1)


class _ArrayKit:
    """What both kits share: matrices as numpy arrays of ``dtype``.
    Products run in the subclass's ``context``; ``scalar`` converts."""

    def zeros(self, *shape):
        return np.full(shape, self.scalar(0), dtype=self.dtype)

    def eye(self, n):
        out = self.zeros(n, n)
        np.fill_diagonal(out, self.scalar(1))
        return out

    def matrix(self, rows):
        return np.array([[self.scalar(v) for v in row] for row in rows],
                        dtype=self.dtype)

    def dim(self, a):
        return a.shape[0]

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def scale(self, c, a):
        # array on the left: mpf * array would first try to convert the
        # array to an mpf
        return a * self.scalar(c)

    def matmul(self, a, b):
        with self.context():
            return a @ b

    def bracket(self, a, b):
        with self.context():
            return a @ b - b @ a

    def is_zero(self, a):
        return not a.any()

    def to_float(self, x):
        return float(x)


class NumpyKit(_ArrayKit):
    """float64 matrices.  The exponential is scaling and squaring with an
    [m/m] Pade approximant r_m (Higham 2005): order m in 3, 5, 7, 9, 13 and
    s squarings as in Al-Mohy and Higham 2009, Algorithm 5.1, with exact
    1-norms and their extra squarings ell against overscaling, and r_m
    formed as I + 2 (V - U)^-1 U.  A diagonal matrix takes exp of its
    diagonal; a triangular one their Code Fragment 2.1 (the exact diagonal
    and first superdiagonal between squarings; lower triangular through
    the transpose); a matrix with a non-finite entry gives all nan.  A
    full finite 2 x 2 runs on four Python floats (_Floats2), anything else
    on numpy arrays (_Array)."""

    name = "double"
    dtype = float

    def scalar(self, c):
        return float(c)

    def context(self):  # float overflow shows as inf/nan, not as warnings
        return np.errstate(all="ignore")

    def finite(self, a):
        return np.isfinite(a).all()

    def expm(self, a):
        if a.shape == (2, 2):
            x = a.ravel().tolist()
            # finite and neither triangle zero: Python floats, the fast path
            if x[1] and x[2] and math.isfinite(sum(x)):
                r, s = _pade_scaled(_Floats2, x, _Floats2.norm1(x))
                for _ in range(s):
                    r = _Floats2.mul(r, r)
                return np.array(r).reshape(2, 2)
        with self.context():
            return _expm_array(a)

    def norm2(self, a):
        if not self.finite(a):
            return float("inf")
        return float(np.linalg.norm(a, 2))

    def frobenius(self, a):
        if not self.finite(a):
            return float("inf")
        # rescale first: squaring entries of size 1e154 and up overflows
        peak = float(np.max(np.abs(a), initial=0.0))
        if peak == 0.0:
            return 0.0
        return peak * float(np.linalg.norm(a / peak, "fro"))

    def power(self, base, exponent: int):
        return float(base) ** exponent

    def from_numpy(self, a):
        return np.asarray(a, dtype=float)

    # row stacks, the operations of ``series.ListStack`` on (count, n, n)
    # arrays; the engine never stacks nothing

    def stack(self, elems, length: int) -> np.ndarray:
        out = self.zeros(length, *elems[0].shape)
        out[:len(elems)] = elems
        return out

    def nonzero(self, s):
        return s

    def ad_into(self, dst, offset: int, c, s, coef):
        # the sum shares the products' context: entering np.errstate costs
        # more than the products of a 2x2 row
        with self.context():
            out = c @ s
            out -= s @ c
            out *= self.scalar(coef)
            dst[offset:offset + len(out)] += out
        return out


class MPKit(_ArrayKit):
    """mpmath numbers at a fixed working precision (significant digits),
    held in numpy object arrays of ``mpf``.  Every operation runs inside
    ``mp.workdps(dps)``: ``mpf`` arithmetic outside it rounds to 53 bits.
    The exponential of a 2 x 2 matrix with finite entries is the
    Cayley-Hamilton closed form, at guard digits that grow with the
    entries' size; the norms convert to ``mp.matrix`` and use mpmath's own
    algorithms.  The exponential of a matrix with a non-finite entry is
    all nan.

    The rows of the term recursions are ``MantissaStack``s instead: entry i
    is man[i] * 2**exp[i] (Python ints, so the range stays unlimited), the
    largest |mantissa| of a nonzero entry exactly ``bits`` = the precision
    in bits + GUARD_BITS (32) long.  Writes truncate to that grid and every
    shift back to it floors.  An ad step floors coef c onto a grid finer
    than c's by the bit length of coef's denominator, forms c s - s c
    exactly and shifts each entry back; an add shifts the operand of
    smaller exponent onto the other's grid.  With |a| the largest |element|,
    a write errs by less than 2**(1 - bits) |a|, an ad step (c written
    first) by less than 2**(1 - bits) (4n |coef c| |s| + |result|), an add
    by less than 2**(3 - bits) times the larger |operand|: at 50 digits and
    n = 2, below 2**-28 units in the last place.  Reads round to nearest
    at the kit's digits.  A non-finite element flags its entry (mantissas
    zero); an ad step flags the results of flagged entries, or all results
    when c is flagged, an add flags its target, and a flagged entry reads
    as all nan.  ``matmul`` and ``bracket`` of finite n x n matrices,
    n > 2, run on stack entries: a b errs by less than 2**(1 - bits)
    (2n |a| |b| + |a b|) before the read, a bracket with 4n for 2n.  Finite
    2 x 2 products (cheaper on ``mpf``) and non-finite ones stay on mpf.

    Any other finite exponential runs on the same kind of integers
    (``_expm_fixed``, scaling and squaring): A is written as a stack
    entry, B = A / 2**s with s chosen so that |B|_inf <= 2**-14, and
    the Taylor series of e^B is summed in fixed point with f = bits + s + 8
    fraction bits until every element of a term is at most one unit
    2**-f.  Each of the K terms (about f / 14) floors once and the tail
    left is below one unit, so the sum errs by less than (K + 2) 2**-f.
    Each of the s squarings shifts back to f + 1 bits under one shared
    exponent, erring by n units of its largest element in the infinity
    norm, and doubles the relative error it receives times |P|**2 / |P**2|
    for its input P.  So e^A errs, relative to |e^A|, by less than about
    (K + n (s + 2)) 2**-(bits + 8) times G = |e^B|**(2**s) / |e^A|,
    besides the write of A carried through the conditioning of e^A.  G is
    1 in the 2-norm for a normal A; a far from normal A loses log2 G bits,
    as in any scaling and squaring.  The result reads as a stack entry
    does, rounded to nearest at the kit's digits."""

    name = "extended"
    dtype = object

    def __init__(self, dps: int = 50):
        if dps < 30:
            raise ValueError("extended precision needs at least 30 digits")
        self.dps = dps
        self.bits = mp.libmp.dps_to_prec(dps) + GUARD_BITS

    def scalar(self, c):
        with mp.workdps(self.dps):
            if isinstance(c, Fraction):
                return mp.mpf(c.numerator) / mp.mpf(c.denominator)
            return mp.mpf(c)

    def context(self):
        return mp.workdps(self.dps)

    def add(self, a, b):
        with self.context():
            return super().add(a, b)

    def sub(self, a, b):
        with self.context():
            return super().sub(a, b)

    def scale(self, c, a):
        with self.context():
            return super().scale(c, a)

    def matmul(self, a, b):
        return self._product(a, b, np.matmul, super().matmul)

    def bracket(self, a, b):
        return self._product(a, b, lambda p, q: p @ q - q @ p,
                             super().bracket)

    def _product(self, a, b, form, fallback):
        """form(a, b) of n x n matrices: for n > 2 and finite operands on
        their mantissas, as one stack entry (see the class docstring);
        otherwise ``fallback`` on the mpf arrays, cheaper at 2 x 2."""
        if len(a) > 2:
            (am, ae, abad), (bm, be, bbad) = map(self.to_mantissas, (a, b))
            if not (abad or bbad):
                return self._normalised(form(am, bm)[None],
                                        np.array([ae + be], dtype=object),
                                        np.zeros(1, dtype=bool))[0]
        return fallback(a, b)

    def finite(self, a):
        # np.isfinite raises TypeError on mpf object arrays
        return all(map(mp.isfinite, a.flat))

    def expm(self, a):
        # mpmath 1.3.0's expm never returns on a nan entry
        if not self.finite(a):
            return np.full(a.shape, mp.nan, dtype=object)
        if a.shape == (2, 2):
            return self._expm2(a)
        return self._expm_fixed(a)

    def _expm_fixed(self, a):
        """e^A of a finite matrix by scaling and squaring on integer
        mantissas (Moler and Van Loan 2003; Higham 2005; error bound in
        the class docstring).  The squarings shift back to f + 1 bits, so
        the integers stay that wide however large e^A grows, and the
        series stops once every |term| <= 1 unit, since floor shifts leave
        -1 terms behind for ever."""
        man, exp, _ = self.to_mantissas(a)
        # |A|_inf = rows 2**exp < 2**(rows.bit_length() + exp)
        rows = np.abs(man).sum(axis=1).max()
        s = max(0, rows.bit_length() + exp + EXPM_SCALE_BITS)
        f = self.bits + s + 8
        shift = exp + f - s
        x = man << shift if shift >= 0 else man >> -shift
        term = np.zeros(a.shape, dtype=object)
        np.fill_diagonal(term, 1 << f)
        total, k = term.copy(), 0
        while _BIT_LENGTH(term).max() > 1:
            k += 1
            term = (term @ x) // (k << f)
            total += term
        exp = -f
        for _ in range(s):
            total = total @ total
            drop = _BIT_LENGTH(total).max() - (f + 1)
            total = total >> drop if drop >= 0 else total << -drop
            exp = 2 * exp + drop
        return self.from_mantissas(total, exp, False)

    def _expm2(self, a):
        """Closed form of a finite 2 x 2 exponential (Putzer 1966;
        Cayley-Hamilton): with m = (p+s)/2, h = (p-s)/2, d^2 = h^2 + qr,
        e^A = e^m [[c + g h, g q], [g r, c - g h]], where c = cosh d and
        g = sinh d / d (cos and sin of sqrt(-d^2) when d^2 < 0, and
        c = g = 1 when d^2 = 0).  h^2 + qr cancels when the entries are
        large and d is not, so the guard grows with twice their
        exponent.  An integer-valued m or d goes through _exp, and such a
        d gives cosh d and sinh d as (E +- 1/E)/2 with E = e^d.  For d > 1
        the entry c - g|h| (e^-d when qr = 0) has a form of its own, below;
        for d < 1 that form's two terms, of size |h| / d, would cancel."""
        peak = max(abs(mp.mpf(v)) for v in a.flat)
        guard = 10
        if peak > 1:
            guard += 2 * int(mp.ceil(mp.log10(peak)))
        with mp.workdps(self.dps + guard):
            p, q, r, s = (mp.mpf(v) for v in a.flat)
            m, h = (p + s) / 2, (p - s) / 2
            d2 = h * h + q * r
            if d2 > 0:
                d = mp.sqrt(d2)
                if mp.isint(d):  # so d >= 1, and E - 1/E does not cancel
                    big = _exp(d)
                    c, g = (big + 1 / big) / 2, (big - 1 / big) / (2 * d)
                else:
                    c, g = mp.cosh(d), mp.sinh(d) / d
            elif d2 < 0:
                w = mp.sqrt(-d2)
                c, g = mp.cos(w), mp.sin(w) / w
            else:
                c = g = mp.mpf(1)
            plus, minus = c + g * h, c - g * h
            if d2 > 1 and h:
                # c - g|h| cancels to nothing once e^-d drops below the
                # precision; with d - |h| = qr / (d + |h|) it is the sum
                # e^-d (d + |h|) / (2d) + e^d qr / (2d (d + |h|))
                big, k = _exp(d), d + abs(h)
                small = (k / big + big * q * r / k) / (2 * d)
                plus, minus = (plus, small) if h > 0 else (small, minus)
            e = _exp(m)
            out = [[e * plus, e * g * q], [e * g * r, e * minus]]
        with mp.workdps(self.dps):
            return np.array([[+v for v in row] for row in out], dtype=object)

    def norm2(self, a):
        # svd_r overwrites its argument, here a fresh mp.matrix
        with mp.workdps(self.dps):
            return mp.svd_r(mp.matrix(a.tolist()), compute_uv=False)[0]

    def frobenius(self, a):
        with mp.workdps(self.dps):
            return mp.mnorm(mp.matrix(a.tolist()), "F")

    def power(self, base, exponent: int):
        with mp.workdps(self.dps):
            return mp.mpf(base) ** exponent

    def from_numpy(self, a):
        return self.matrix([[repr(float(v)) for v in row] for row in a])

    # row stacks (see the class docstring); the engine never stacks nothing

    def stack(self, elems, length: int) -> "MantissaStack":
        n = self.dim(elems[0])
        out = MantissaStack(self, np.zeros((length, n, n), dtype=object),
                            np.zeros(length, dtype=object),
                            np.zeros(length, dtype=bool))
        for i, a in enumerate(elems):
            out[i] = a
        return out

    def nonzero(self, s):
        return s

    def ad_into(self, dst, offset: int, c, s, coef):
        coef = Fraction(coef)
        cman, cexp, cbad = self.to_mantissas(c)
        more = coef.denominator.bit_length()
        cman = (cman * coef.numerator << more) // coef.denominator
        prod = cman @ s.man - s.man @ cman
        out = self._normalised(prod, s.exp + (cexp - more), s.bad | cbad)
        part = slice(offset, offset + len(out))
        man, exp = dst.man[part], dst.exp[part]
        # a zero entry, of either side, takes the other side's exponent
        exp = np.where(man.any(axis=(1, 2)), exp, out.exp)
        oexp = np.where(out.man.any(axis=(1, 2)), out.exp, exp)
        top = np.maximum(exp, oexp)
        summed = ((man >> (top - exp)[:, None, None])
                  + (out.man >> (top - oexp)[:, None, None]))
        new = self._normalised(summed, top, dst.bad[part] | out.bad)
        dst.man[part], dst.exp[part], dst.bad[part] = new.man, new.exp, new.bad
        return out

    def _normalised(self, man, exp, bad) -> "MantissaStack":
        """man[i] * 2**exp[i] shifted back to ``bits`` per entry."""
        length = _BIT_LENGTH(man).astype(np.int64).max(axis=(1, 2))
        shift = np.where(length > 0, length - self.bits, 0)
        if (shift < 0).any():
            man = man << np.maximum(-shift, 0)[:, None, None]
        return MantissaStack(self, man >> np.maximum(shift, 0)[:, None, None],
                             exp + shift, bad)

    def to_mantissas(self, a):
        """A matrix as (man, exp, flagged), normalised as a stack entry;
        a non-finite element gives zero mantissas and the flag.  Each raw
        mantissa (an mpz when mpmath runs on gmpy2) becomes an int, cut
        toward zero onto the grid 2**exp."""
        man = np.zeros(a.shape, dtype=object)
        with self.context():
            raws = [mp.mpf(v)._mpf_ for v in a.flat]
        if any(e and not m for _, m, e, _ in raws):  # inf and nan
            return man, 0, True
        if not any(m for _, m, _, _ in raws):
            return man, 0, False
        exp = max(e + bc for _, m, e, bc in raws if m) - self.bits
        man.flat = [(-1 if sign else 1)
                    * (int(m) << e - exp if e >= exp else int(m) >> exp - e)
                    for sign, m, e, _ in raws]
        return man, exp, False

    def from_mantissas(self, man, exp, bad):
        """A stack entry as an mpf matrix at the kit's digits."""
        with self.context():
            return np.array([[mp.nan if bad else mp.mpf((m, exp)) for m in row]
                             for row in man], dtype=object)


def _exp(x):
    """mp.exp(x), with a nonzero integer-valued x as exp(x - 1/2) exp(1/2):
    above about 600 bits mpmath powers e by it (mpf_pow_int), far slower."""
    if x and mp.isint(x):
        return mp.exp(x - 0.5) * mp.exp(0.5)
    return mp.exp(x)


class MantissaStack:
    """A row stack of MPKit: entry i is man[i] * 2**exp[i], flagged
    non-finite where bad[i] (see MPKit).  Slices are views; an integer
    index reads an entry as an mpf matrix, or writes one."""

    __slots__ = ("kit", "man", "exp", "bad")

    def __init__(self, kit, man, exp, bad):
        self.kit, self.man, self.exp, self.bad = kit, man, exp, bad

    def __len__(self):
        return len(self.exp)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return MantissaStack(self.kit, self.man[i], self.exp[i],
                                 self.bad[i])
        return self.kit.from_mantissas(self.man[i], self.exp[i], self.bad[i])

    def __setitem__(self, i, a):
        self.man[i], self.exp[i], self.bad[i] = self.kit.to_mantissas(a)


# ---------------------------------------------------------------------------
# The double exponential: scaling and squaring with a Pade approximant

# b_j of the [m/m] Pade approximant of e^x, p(x) / p(-x) with
# p(x) = sum_j b_j x^j (Higham 2005)
_PADE = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
        2162160., 110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600.,
         670442572800., 33522128640., 1323241920., 40840800., 960960.,
         16380., 182., 1.),
}
# p's coefficients on I, A^2, ..., A^(m-1) as two rows: the odd part over
# A, the even part; for m = 13 on I, A^2, A^4, A^6 only, and the terms
# above A^6 as A^6 times _PADE_HIGH on A^2, A^4, A^6
_PADE_ROWS = {m: np.array([b[1:m + 1:2], b[0:m:2]]) for m, b in _PADE.items()}
_PADE_ROWS[13] = _PADE_ROWS[13][:, :4]
_PADE_HIGH = np.array([_PADE[13][9::2], _PADE[13][8:13:2]])
# theta_m: the largest eta for which r_m has backward error below the unit
# roundoff (Al-Mohy and Higham 2009, Table 3.1)
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}
# 1 / |c_(2m+1)|, the leading coefficient of r_m's backward error series
_LEADING = {3: 100800., 5: 10059033600., 7: 4487938430976000.,
            9: 5914384781877411840000.,
            13: 113250775606021113483283660800000000.}
_UNIT = 2.0 ** -53
_FLOAT_MAX = float(np.finfo(float).max)
# below this 1-norm ||A||^(2m) / |c_(2m+1)|^-1 <= u, so ell(A, m) = 0
_ELL_FREE = {m: (_UNIT * c) ** (1 / (2 * m)) for m, c in _LEADING.items()}


def _pade_scaled(ops, a, norm):
    """(r_m(2^-s A), s): the [m/m] Pade approximant at A / 2^s, with the
    order m and the s squarings of Al-Mohy and Higham 2009, Algorithm 5.1
    (exact 1-norms).  ``ops`` is the arithmetic, _Floats2 or _Array, and
    ``norm`` is ||A||_1."""
    rows = ops.abs_power_rows(a)
    a2 = ops.mul(a, a)
    # every eta below is at most ||A||_1: so far the algorithm's first
    # choice goes without A^4 and A^6
    if norm <= _THETA[3] and _ell(rows, 3, norm) == 0:
        return ops.pade(a, [a2], 3), 0
    a4 = ops.mul(a2, a2)
    a6 = ops.mul(a4, a2)
    d6 = ops.norm1(a6) ** (1 / 6)
    eta = max(ops.norm1(a4) ** (1 / 4), d6)
    for m in (3, 5):
        if eta <= _THETA[m] and _ell(rows, m, norm) == 0:
            return ops.pade(a, [a2, a4][:m // 2], m), 0
    a8 = ops.mul(a4, a4)
    d8 = ops.norm1(a8) ** (1 / 8)
    eta = max(d6, d8)
    for m in (7, 9):
        if eta <= _THETA[m] and _ell(rows, m, norm) == 0:
            return ops.pade(a, [a2, a4, a6, a8][:m // 2], m), 0
    d10 = ops.norm1(ops.mul(a4, a6)) ** (1 / 10)
    eta = min(eta, max(d8, d10))
    if not eta <= norm:  # nan where a power overflowed; no eta exceeds it
        eta = norm
    s = max(0, math.ceil(math.log2(eta / _THETA[13]))) if eta else 0
    b = ops.scaled(a, 2.0 ** -s)
    more = _ell(ops.abs_power_rows(b), 13, norm * 2.0 ** -s)
    if more:
        s += more
        b = ops.scaled(a, 2.0 ** -s)
    if not s:
        return ops.pade(a, [a2, a4, a6], 13), 0
    # the powers of 2^-s A afresh: the same bits as scaled powers of A,
    # and finite where those overflowed
    b2 = ops.mul(b, b)
    b4 = ops.mul(b2, b2)
    return ops.pade(b, [b2, b4, ops.mul(b4, b2)], 13), s


def _ell(rows, m, norm):
    """The extra squarings that Al-Mohy and Higham 2009 (Section 5) add so
    that r_m(A) keeps its backward error bound: max(0, ceil(log2(alpha / u)
    / 2m)) with alpha = || |A|^(2m+1) ||_1 / (|c_(2m+1)|^-1 ||A||_1).
    ``rows`` yields (p, 1^T |A|^p) for p = 7, 11, 15, ..., the p = 2m + 1
    of every m; calls for one A come with growing m."""
    if norm <= _ELL_FREE[m]:
        return 0
    for p, row in rows:
        if p == 2 * m + 1:
            break
    alpha = min(max(row), _FLOAT_MAX) / (norm * _LEADING[m])
    if not alpha > _UNIT:  # also nan, where |A|^p overflowed
        return 0
    return math.ceil(math.log2(alpha / _UNIT) / (2 * m))


class _Array:
    """The arithmetic of _pade_scaled on an n x n float64 array."""

    mul = staticmethod(np.matmul)

    @staticmethod
    def norm1(a):
        # the ufuncs' reduce costs less than a.sum(0).max() on small arrays
        return float(np.maximum.reduce(np.add.reduce(np.abs(a))))

    @staticmethod
    def scaled(a, c):
        return a * c

    @staticmethod
    def abs_power_rows(a):
        mod = np.abs(a)
        mod2 = mod @ mod
        row, p = np.add.reduce(mod) @ mod2, 3
        mod4 = mod2 @ mod2
        while True:
            row, p = row @ mod4, p + 4
            yield p, row

    @staticmethod
    def pade(a, even, m):
        """r_m(A) = I + 2 (V - U)^-1 U, with U the odd and V the even part
        of p(A), from ``even`` = [A^2, A^4, ..., A^(m-1)], or
        [A^2, A^4, A^6] for m = 13: one product with a coefficient
        matrix sums all powers."""
        n = len(a)
        eye = np.eye(n)
        stack = np.array([eye, *even]).reshape(len(even) + 1, n * n)
        uv = (_PADE_ROWS[m] @ stack).reshape(2, n, n)
        if m == 13:
            uv += even[2] @ (_PADE_HIGH @ stack[1:]).reshape(2, n, n)
        u, v = a @ uv[0], uv[1]
        r = np.linalg.solve(v - u, u + u)
        r += eye
        return r


class _Floats2:
    """The arithmetic of _pade_scaled on a 2 x 2 as the list [p, q, r, s]
    of Python floats: numpy's overhead per call is most of the cost of a
    2 x 2 operation.  The same steps as _Array."""

    @staticmethod
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return [a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h]

    @staticmethod
    def norm1(x):
        a, b, c, d = x
        return max(abs(a) + abs(c), abs(b) + abs(d))

    @staticmethod
    def scaled(x, c):
        return [v * c for v in x]

    @staticmethod
    def abs_power_rows(x):
        mod = [abs(v) for v in x]
        a, b, c, d = mod2 = _Floats2.mul(mod, mod)
        u, v = mod[0] + mod[2], mod[1] + mod[3]
        u, v, p = u * a + v * c, u * b + v * d, 3
        a, b, c, d = _Floats2.mul(mod2, mod2)
        while True:
            u, v, p = u * a + v * c, u * b + v * d, p + 4
            yield p, (u, v)

    @staticmethod
    def pade(x, even, m):
        b = _PADE[m]
        u, v = [0.0] * 4, [0.0] * 4
        for j in range(len(even), 0, -1):
            cu, cv, p = b[2 * j + 1], b[2 * j], even[j - 1]
            u = [w + cu * e for w, e in zip(u, p)]
            v = [w + cv * e for w, e in zip(v, p)]
        u[0] += b[1]
        u[3] += b[1]
        v[0] += b[0]
        v[3] += b[0]
        if m == 13:
            b2, b4, b6 = even
            hu = _Floats2.mul(b6, [b[13] * p + b[11] * q + b[9] * r
                                   for p, q, r in zip(b6, b4, b2)])
            hv = _Floats2.mul(b6, [b[12] * p + b[10] * q + b[8] * r
                                   for p, q, r in zip(b6, b4, b2)])
            u = [h + w for h, w in zip(hu, u)]
            v = [h + w for h, w in zip(hv, v)]
        u = _Floats2.mul(x, u)
        # (V - U) R = 2U by Gaussian elimination with partial pivoting
        q0, q1, q2, q3 = (w - z for w, z in zip(v, u))
        r0, r1, r2, r3 = (z + z for z in u)
        if abs(q2) > abs(q0):
            q0, q1, q2, q3, r0, r1, r2, r3 = q2, q3, q0, q1, r2, r3, r0, r1
        f = q2 / q0
        q3 -= f * q1
        y2 = (r2 - f * r0) / q3
        y3 = (r3 - f * r1) / q3
        return [(r0 - q1 * y2) / q0 + 1, (r1 - q1 * y3) / q0, y2, y3 + 1]


@functools.lru_cache(maxsize=None)
def _triangles(n):
    """Index arrays of the strictly lower and upper triangles, cached per
    n: callers must not write to them."""
    return np.tril_indices(n, -1), np.triu_indices(n, 1)


def _expm_array(a):
    """e^A of an n x n float64 array by scaling and squaring (see
    NumpyKit.expm); a non-finite entry gives all nan."""
    # a finite 1-norm: finite entries (nan stays nan through both reduces)
    norm = _Array.norm1(a)
    if not math.isfinite(norm) and not np.isfinite(a).all():
        return np.full(a.shape, np.nan)
    # a nonzero corner rules its triangle out without a look at the rest
    n = len(a)
    lower, upper = _triangles(n)
    below = n > 1 and a[-1, 0] != 0 or a[lower].any()
    above = n > 1 and a[0, -1] != 0 or a[upper].any()
    if not (below or above):
        return np.diag(np.exp(a.diagonal()))
    if not above:
        return _expm_array(a.T).T
    r, s = _pade_scaled(_Array, a, norm)
    if below:
        for _ in range(s):
            r = r @ r
        return r
    # upper triangular: Code Fragment 2.1 of Al-Mohy and Higham 2009 puts
    # the exact diagonal and first superdiagonal of exp(2^-i A) into the
    # square that stands for it
    d, sup = a.diagonal(), a.diagonal(1)
    first = np.arange(n - 1), np.arange(1, n)
    np.fill_diagonal(r, np.exp(d * 2.0 ** -s))
    for i in range(s - 1, -1, -1):
        r = r @ r
        lam = d * 2.0 ** -i
        np.fill_diagonal(r, np.exp(lam))
        r[first] = sup * 2.0 ** -i * _exp_divided(lam[:-1], lam[1:])
    return np.triu(r)


def _exp_divided(x, y):
    """The divided difference (e^x - e^y) / (x - y), elementwise (e^x where
    x = y): as written where x and y are apart, and as
    e^((x+y)/2) sinh(h) / h, h = (x-y)/2, where they are close and the
    difference cancels (Higham 2008, (10.42))."""
    h = (x - y) / 2
    near = np.exp((x + y) / 2) * np.divide(np.sinh(h), h,
                                           out=np.ones_like(h), where=h != 0)
    return np.where(abs(h) < 1, near, (np.exp(x) - np.exp(y)) / (x - y))


def kit_for(precision: str):
    """Kit for a precision mode name: 'double' or 'extended'."""
    if precision == "double":
        return NumpyKit()
    if precision == "extended":
        return MPKit()
    raise ValueError(f"unknown precision mode {precision!r}")


class MatrixAlgebra:
    """A kit's n x n matrices as an ad-module (zero/add/sub/scale/bracket)
    for the term recursion and as an associative algebra (unit/mul) for
    series peeling.  ``stacks`` is the kit, through which the engine holds
    its rows."""

    def __init__(self, kit, n: int):
        self.kit = kit
        self.n = n
        self.stacks = kit

    def zero(self):
        return self.kit.zeros(self.n, self.n)

    def unit(self):
        return self.kit.eye(self.n)

    def add(self, a, b):
        return self.kit.add(a, b)

    def sub(self, a, b):
        return self.kit.sub(a, b)

    def scale(self, c, a):
        return self.kit.scale(c, a)

    def bracket(self, a, b):
        return self.kit.bracket(a, b)

    def mul(self, a, b):
        return self.kit.matmul(a, b)

    def is_zero(self, a):
        return self.kit.is_zero(a)


def random_matrix(dim: int, target_norm: float, seed: int) -> np.ndarray:
    """Entries i.i.d. uniform on (-1, 1) from numpy's seeded PCG64 generator,
    rescaled so the spectral norm hits target_norm."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if not 0 < target_norm < math.inf:
        raise ValueError(f"target norm must be positive and finite, got {target_norm}")
    rng = default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return a * (target_norm / np.linalg.norm(a, 2))


def frechet_pair(kit, alpha):
    """The classical 2x2 pair whose full exponentials factor exactly,
    exp(X+Y) = exp(X) exp(Y), despite [X, Y] != 0:

        X = pi [[0, alpha], [-1/alpha, 0]]
        Y = pi [[0, (10+4*sqrt(6)) alpha], [(-10+4*sqrt(6))/alpha, 0]]

    The identity holds only at scale 1, not for exp(lambda(X+Y)) in general.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    with kit.context():
        try:
            a = kit.scalar(alpha)
            pi, r6 = kit.scalar(mp.pi), 4 * kit.scalar(mp.sqrt(6))
            x = kit.matrix([[0, a], [-1 / a, 0]])
            y = kit.matrix([[0, (10 + r6) * a], [(-10 + r6) / a, 0]])
        except (OverflowError, ZeroDivisionError):  # alpha out of float range
            x = y = None
    if x is None or not (kit.finite(x) and kit.finite(y)):
        raise ValueError(f"alpha is outside the {kit.name} range")
    return kit.scale(pi, x), kit.scale(pi, y)


# ---------------------------------------------------------------------------
# Splitting products

def symmetric_products(kit, a, b, terms: Dict[int, object],
                       skip_overflowed: bool = True):
    """Truncated palindromic products of the scaled pair (a, b) and its
    exponents ``terms`` ({k: C_k} at the same scale), as halves: yields
    (1, e^{a/2} e^{b/2}, e^{b/2} e^{a/2}), then (k, left, right) through
    exp(C_k) for every k in ascending order; the product is
    kit.matmul(left, right).  With ``skip_overflowed``, once a half is
    non-finite the later halves are yielded unchanged and their factors
    never exponentiated: every later product is non-finite either way, so
    its norm is inf, but not the same matrix."""
    half = Fraction(1, 2)
    return palindromic_products(
        kit.matmul, kit.expm(kit.scale(half, a)), kit.expm(kit.scale(half, b)),
        sorted(terms), lambda k: kit.expm(terms[k]),
        kit.finite if skip_overflowed else None)


def standard_products(kit, a, b, terms: Dict[int, object],
                      skip_overflowed: bool = True):
    """Truncated one-sided products e^a e^b exp(D_2) ... exp(D_k) of the
    scaled pair (a, b) and its exponents ``terms`` ({k: D_k} at the same
    scale): yields (1, e^a e^b), then (k, product through exp(D_k)) for
    every k in ascending order.  ``skip_overflowed`` as for
    symmetric_products."""
    prod = kit.matmul(kit.expm(a), kit.expm(b))
    yield 1, prod
    for k in sorted(terms):
        if not skip_overflowed or kit.finite(prod):
            prod = kit.matmul(prod, kit.expm(terms[k]))
        yield k, prod


def _check_lam(lam):
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")


def _scaled_pair(kit, x, y, lam):
    _check_lam(lam)
    if kit.dim(x) != kit.dim(y):
        raise ValueError("dimension mismatch")
    return kit.scale(lam, x), kit.scale(lam, y)


def psi_symmetric(kit, x, y, lam, n: int):
    """Palindromic approximant of exp(lambda(x+y)) through degree n.

    Only odd degrees contribute; for even n the product equals the one for
    n-1, and n = 2 is the half-step sandwich without any term factor.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    m = n if n % 2 == 1 else n - 1
    a, b = _scaled_pair(kit, x, y, lam)
    terms = {}
    if m >= 3:
        terms = symmetric_terms(MatrixAlgebra(kit, kit.dim(a)), a, b, m)
    for _, left, right in symmetric_products(kit, a, b, terms,
                                             skip_overflowed=False):
        pass
    return kit.matmul(left, right)


def psi_standard(kit, x, y, lam, n: int):
    """One-sided approximant exp(lambda x) exp(lambda y) exp(lambda^2 D_2)
    ... exp(lambda^n D_n)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    a, b = _scaled_pair(kit, x, y, lam)
    terms = one_sided_terms(MatrixAlgebra(kit, kit.dim(a)), a, b, n)
    for _, prod in standard_products(kit, a, b, terms,
                                     skip_overflowed=False):
        pass
    return prod


def splitting_error(kit, x, y, lam, approx, norm: str = "spectral"):
    """Distance from the exact exponential, in the requested norm."""
    _check_lam(lam)
    target = kit.expm(kit.scale(lam, kit.add(x, y)))
    diff = kit.sub(target, approx)
    if norm == "spectral":
        return kit.norm2(diff)
    if norm == "frobenius":
        return kit.frobenius(diff)
    raise ValueError(f"unknown norm {norm!r}")


# ---------------------------------------------------------------------------
# CSV persistence (plain rows of entries, comma separated)

def save_matrix_csv(path, a) -> None:
    """float64 entries as shortest round-trip decimals, mpf entries (object
    arrays, extended precision) with 30 significant digits."""
    if a.dtype == object:
        rows = [[mp.nstr(v, 30) for v in row] for row in a]
    else:
        rows = [[repr(float(v)) for v in row] for row in a]
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    """A square float64 matrix with finite entries."""
    a = np.loadtxt(path, delimiter=",", ndmin=2)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix in {path} is not square: {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"matrix in {path} has non-finite entries")
    return a
