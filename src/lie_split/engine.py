"""Disentanglement terms for palindromic and one-sided exponential splittings.

Everything here is generic over two small interfaces:

* an *ad-module*: zero / add / sub / scale / bracket / is_zero.  The term
  recursion is phrased purely in brackets, so one implementation serves
  free symbolic combinations, concrete matrices and structure-constant
  algebras.
* an associative algebra (zero / unit / add / scale / mul / is_zero), used
  by the series-peeling constructions that serve as independent
  cross-checks.

The palindromic splitting writes exp(h(X+Y)) as

    exp(hX/2) exp(hY/2) exp(h^3 C_3) exp(h^5 C_5) ... exp(h^5 C_5)
        exp(h^3 C_3) exp(hY/2) exp(hX/2)

with every even-degree exponent vanishing identically.  The recursion below
maintains two rows of homogeneous elements per odd level k: the "left" row
(log-derivative of the left-peeled remainder, sign-alternating updates) and
the "right" row (log-derivative of the right closing product).  The exponent
of the next level is a scaled difference of the two rows.  The one-sided
exponents D_k of exp(hX) exp(hY) exp(h^2 D_2) exp(h^3 D_3) ... come from
one such row, advanced by the same level step; the series peels below
recompute both kinds of exponent and serve only as oracles.  One
anti-diagonal pass seeds both rows.  Each row is one stack
(``series.stack_ops``): for matrices the kit's own (a (top+1, n, n)
float64 array, or MPKit's integer mantissas), advanced in place by the
kit with one broadcast bracket per ad power; for the symbolic and
structure-constant modules a list advanced by one module call per entry.
Every 1/j! is folded into the step that builds the j-th power, so
intermediates stay the size of the terms.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict

from .series import TruncSeries, exp_factor, stack_ops


# ---------------------------------------------------------------------------
# Seeds

def _anti_diagonals(mod, ops, head, x, y, first, top: int, right=None):
    """Stack d[0..top] of the anti-diagonal sums
    d[l] = sum_{m+i=l} ad_y^m col[i] / m! of the column
    col = [head, b_1, ..., b_top], b_j = first ad_x^j y / j!, built in place
    over the stack W_m = ad_y^m col / m!, advanced by one ad_y step (over
    every entry at once) per m.  ``first`` rides on the first ad_x step
    instead of costing a scaling.  With a list ``right``, entry 0 of each
    W_m, ad_y^m head / m!, is appended to it times 1/2^(m+1): a scaled copy,
    not a view that would keep the step's whole stack alive.
    """
    col = [head]
    power = y
    for j in range(1, top + 1):
        c = first if j == 1 else Fraction(1, j)
        power = mod.scale(c, mod.bracket(x, power))
        col.append(power)
    diagonals = w = ops.stack(col, top + 1)
    for m in range(1, top + 1):
        w = ops.ad_into(diagonals, m, y, w[:top + 1 - m], Fraction(1, m))
        if right is not None:
            right.append(mod.scale(Fraction(1, 2 ** (m + 1)), w[0]))
    return diagonals


def _seed_rows(mod, ops, x, y, top: int):
    """Rows at level 1 for l = 0..top, as stacks, from one anti-diagonal
    pass.

    left[0] = right[0] = (x + y)/2
    left[l] = ((-1)^l / 2^l) * ( ad_y^l x / (2 l!)
              + sum_{j=0..l} ad_y^(l-j) ad_x^j y / (j! (l-j)!) )
    right[l] = ad_y^l x / (l! 2^(l+1))

    The bracket of left[l] is the anti-diagonal sum with head x and
    first = 2: ad_y^l x / l! plus twice the sum above, whose j = 0 term
    ad_y^l y vanishes for l >= 1.  Level l = 0 is (x+y)/2 instead.  The
    same pass forms every ad_y^l x / l! of right[l].
    """
    half_sum = mod.scale(Fraction(1, 2), mod.add(x, y))
    right = [half_sum]
    diagonals = _anti_diagonals(mod, ops, x, x, y, Fraction(2), top, right)
    left = [half_sum] + [mod.scale(Fraction((-1) ** l, 2 ** (l + 1)),
                                   diagonals[l]) for l in range(1, top + 1)]
    return ops.stack(left, top + 1), ops.stack(right, top + 1)


# ---------------------------------------------------------------------------
# Term recursions

def _advance_row(mod, ops, row, ck, k: int, sign: int, low: int = 0):
    """One level step over a row stack, in place: row[m + k j] gains
    (sign^j / j!) ad_{C_k}^j row[m] for every m >= low and j >= 1, one ad
    step over the whole shifted stack per j with its 1/j folded in (only
    the j = 1 step reads the row, and ``ad_into`` forms its output before
    it writes); then the l = k-1 entry, unless below low, is corrected by
    sign * k * C_k.  Corrections are never fed through ad_{C_k} at the same
    level, which keeps term lists free of bracket pairs that only cancel
    after expansion.
    """
    top = len(row) - 1
    if not mod.is_zero(ck):
        power = ops.nonzero(row[low:top + 1 - k])
        j = 1
        while low + k * j <= top:
            power = ops.ad_into(row, low + k * j, ck,
                                power[:top + 1 - low - k * j],
                                Fraction(sign, j))
            j += 1
    if low <= k - 1 <= top:
        row[k - 1] = mod.add(row[k - 1], mod.scale(Fraction(sign * k), ck))
    return row


def check_max_degree(max_degree: int) -> None:
    """Reject a max_degree that symmetric_terms cannot take."""
    if max_degree < 3 or max_degree % 2 == 0:
        raise ValueError("max_degree must be an odd integer >= 3")


def symmetric_terms(mod, x, y, max_degree: int) -> Dict[int, object]:
    """Palindromic splitting exponents C_3, C_5, ..., C_max_degree.

    max_degree must be odd and at least 3.  Even-degree exponents vanish
    identically and are never materialized.  The two rows are stacks of the
    module's kind (see ``series.stack_ops``).
    """
    check_max_degree(max_degree)
    top = max_degree - 1
    ops = stack_ops(mod)
    row_l, row_r = _seed_rows(mod, ops, x, y, top)
    terms: Dict[int, object] = {
        3: mod.scale(Fraction(1, 6), mod.sub(row_l[2], row_r[2]))
    }
    k = 3
    while k + 2 <= max_degree:
        ck = terms[k]
        row_l = _advance_row(mod, ops, row_l, ck, k, sign=-1)
        row_r = _advance_row(mod, ops, row_r, ck, k, sign=+1)
        terms[k + 2] = mod.scale(
            Fraction(1, 2 * (k + 2)), mod.sub(row_l[k + 1], row_r[k + 1])
        )
        k += 2
    return terms


def one_sided_terms(mod, x, y, max_degree: int) -> Dict[int, object]:
    """One-sided splitting exponents D_2, ..., D_max_degree of
    exp(lambda(x+y)) = exp(lambda x) exp(lambda y) exp(lambda^2 D_2) ...,
    by the one-row recursion of Casas, Murua & Nadinic (2012).

    The seed f[l] = (-1)^l sum_{j=1..l} ad_y^(l-j) ad_x^j y / (j! (l-j)!)
    is the anti-diagonal pass of (-x, -y) with head 0 and first = -1
    (b_1 = -[-x, -y] = ad_{-x} y), since (-1)^l = (-1)^j (-1)^(l-j).  Level k sets D_k = f[k-1] / k and advances
    the row by exp(-ad_{D_k}).  Afterwards every entry below k vanishes
    (entry k-1 by the correction -k D_k, which is never read), so the step
    runs over the entries from k on, and only while 2k <= max_degree - 1.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    top = max_degree - 1
    ops = stack_ops(mod)
    row = _anti_diagonals(mod, ops, mod.zero(), mod.scale(-1, x),
                          mod.scale(-1, y), Fraction(-1), top)
    terms: Dict[int, object] = {}
    for k in range(2, max_degree + 1):
        terms[k] = mod.scale(Fraction(1, k), row[k - 1])
        if 2 * k <= top:
            row = _advance_row(mod, ops, row, terms[k], k, sign=-1, low=k)
    return terms


# ---------------------------------------------------------------------------
# Series-peeling constructions (independent of the recursions above)

def oracle_symmetric_terms(algebra, x, y, order: int) -> Dict[int, object]:
    """Exponents C_2..C_order recovered one degree at a time by conjugating
    the palindromic product away from exp(lambda (x+y)).

    Start from M = E(-y/2) E(-x/2) exp(lambda(x+y)) E(-x/2) E(-y/2) where
    E(v) = exp(lambda v).  With C_2..C_n peeled off, M equals
    exp(lambda^{n+1} C_{n+1}) (higher factors) exp(lambda^{n+1} C_{n+1}),
    so the lambda^{n+1} coefficient is exactly 2 C_{n+1}.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    alg = algebra
    half = Fraction(1, 2)
    xh = alg.scale(-half, x)
    yh = alg.scale(-half, y)
    center = exp_factor(alg, alg.add(x, y), 1, order)
    m = (
        exp_factor(alg, yh, 1, order)
        * exp_factor(alg, xh, 1, order)
        * center
        * exp_factor(alg, xh, 1, order)
        * exp_factor(alg, yh, 1, order)
    )
    terms: Dict[int, object] = {}
    for n in range(2, order + 1):
        cn = alg.scale(half, m.coefficient(n))
        terms[n] = cn
        peel = exp_factor(alg, alg.scale(-1, cn), n, order)
        m = peel * m * peel
    return terms


def standard_terms(algebra, x, y, order: int) -> Dict[int, object]:
    """One-sided splitting exp(lambda(x+y)) = exp(lambda x) exp(lambda y)
    exp(lambda^2 D_2) exp(lambda^3 D_3) ...: peel factors from the left."""
    if order < 2:
        raise ValueError("order must be at least 2")
    alg = algebra
    s = (
        exp_factor(alg, alg.scale(-1, y), 1, order)
        * exp_factor(alg, alg.scale(-1, x), 1, order)
        * exp_factor(alg, alg.add(x, y), 1, order)
    )
    terms: Dict[int, object] = {}
    for n in range(2, order + 1):
        dn = s.coefficient(n)
        terms[n] = dn
        s = exp_factor(alg, alg.scale(-1, dn), n, order) * s
    return terms


def standard_terms_left(algebra, x, y, order: int) -> Dict[int, object]:
    """Mirrored one-sided splitting exp(lambda(x+y)) =
    ... exp(lambda^3 D'_3) exp(lambda^2 D'_2) exp(lambda y) exp(lambda x):
    peel factors from the right."""
    if order < 2:
        raise ValueError("order must be at least 2")
    alg = algebra
    s = (
        exp_factor(alg, alg.add(x, y), 1, order)
        * exp_factor(alg, alg.scale(-1, x), 1, order)
        * exp_factor(alg, alg.scale(-1, y), 1, order)
    )
    terms: Dict[int, object] = {}
    for n in range(2, order + 1):
        dn = s.coefficient(n)
        terms[n] = dn
        s = s * exp_factor(alg, alg.scale(-1, dn), n, order)
    return terms


def palindromic_products(mul, outer, inner, degrees, factor, finite=None):
    """Truncated palindromic products outer inner F_3 ... F_k F_k ... F_3
    inner outer, generic over the product ``mul``.

    Yields (1, outer inner, inner outer), then (k, left, right) for each k
    of ``degrees`` (ascending) with F_k = factor(k), where left is
    outer inner F_3 ... F_k and right its mirror image.  The truncated
    product is mul(left, right); readers join the halves only at the
    degrees they use.  With ``finite``, once a half fails it the later
    steps form no factor and yield the halves unchanged: a non-finite
    matrix stays non-finite under products, so every later product is
    non-finite either way.
    """
    left = mul(outer, inner)
    right = mul(inner, outer)
    yield 1, left, right
    for k in degrees:
        if finite is None or (finite(left) and finite(right)):
            f = factor(k)
            left = mul(left, f)
            right = mul(f, right)
        yield k, left, right


def palindromic_product_series(algebra, x, y, terms: Dict[int, object],
                               order: int) -> TruncSeries:
    """The full palindromic product as a series: exp(lambda x/2) exp(lambda y/2)
    [ascending term factors] [descending term factors] exp(lambda y/2)
    exp(lambda x/2), truncated at the given order."""
    alg = algebra
    half = Fraction(1, 2)
    for _, left, right in palindromic_products(
            operator.mul, exp_factor(alg, alg.scale(half, x), 1, order),
            exp_factor(alg, alg.scale(half, y), 1, order),
            [k for k in sorted(terms) if k <= order],
            lambda k: exp_factor(alg, terms[k], k, order)):
        pass
    return left * right
