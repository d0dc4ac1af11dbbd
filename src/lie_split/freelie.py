"""Free Lie algebra terms as explicit bracket trees.

A tree is either a generator label (str) or a pair ``(left, right)`` standing
for the bracket [left, right].  No rewriting (antisymmetry, Jacobi) is ever
applied: combinations collect coefficients on structurally equal trees only,
so the term lists the recursion produces stay in exactly the shape the
algorithm builds them in.  The single exception is [T, T] -> 0 for two
structurally identical trees, which is unambiguous.

Mathematical equality of two combinations is decided by expanding brackets
into noncommutative words ([a, b] -> ab - ba) and comparing the resulting
associative polynomials, which are a faithful representation.

Both kinds of combination, tree combinations (LieCombo) and word
polynomials (AssocPoly), share one storage and one arithmetic (_Combo): a
reduced common denominator and integer numerators, so sums, scalings,
brackets and products run on ints and build no Fraction until ``terms``
is read.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Optional, Tuple, Union

from .scalars import as_fraction, format_rational

Tree = Union[str, Tuple["Tree", "Tree"]]
Word = Tuple[str, ...]


def tree_degree(tree: Tree) -> int:
    """Number of generator leaves."""
    if isinstance(tree, str):
        return 1
    return tree_degree(tree[0]) + tree_degree(tree[1])


def tree_to_json(tree: Tree):
    if isinstance(tree, str):
        return tree
    return [tree_to_json(tree[0]), tree_to_json(tree[1])]


def tree_from_json(obj) -> Tree:
    if isinstance(obj, str):
        if not obj:
            raise ValueError("generator label must be a nonempty string")
        return obj
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return (tree_from_json(obj[0]), tree_from_json(obj[1]))
    raise ValueError(f"bad tree: {obj!r}")


def tree_sort_key(tree: Tree):
    return (tree_degree(tree), json.dumps(tree_to_json(tree)))


def tree_str(tree: Tree) -> str:
    if isinstance(tree, str):
        return tree
    return f"[{tree_str(tree[0])},{tree_str(tree[1])}]"


_OWN = object()  # _new/_reduced default: keep self's degree or cap


class _Combo:
    """Sparse rational combination, held as one common denominator and
    integer numerators.

    den is a positive int and nums maps key -> nonzero int, with
    gcd(den, every numerator) = 1 and den = 1 for the empty combination,
    so equal combinations have equal fields.  ``terms`` gives the
    coefficients as reduced Fractions.  A subclass adds one field (a degree
    or a cap), sets it in ``_new`` and orders and labels keys for printing
    with ``_sort_key`` and ``_label``.
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


class LieCombo(_Combo):
    """Homogeneous rational combination of bracket trees (the keys).

    All trees share one degree; the empty combination is the zero element
    and reports degree None.
    """

    __slots__ = ("degree",)
    _sort_key = staticmethod(tree_sort_key)
    _label = staticmethod(tree_str)

    def __init__(self, terms: Optional[Dict[Tree, Fraction]] = None,
                 degree: Optional[int] = None):
        _Combo.__init__(self, terms or {})
        if self.nums:
            degs = {tree_degree(t) for t in self.nums}
            if len(degs) != 1:
                raise ValueError(f"inhomogeneous combination, degrees {sorted(degs)}")
            d = degs.pop()
            if degree is not None and degree != d:
                raise ValueError(f"declared degree {degree} but trees have degree {d}")
            degree = d
        self.degree = degree if self.nums else None

    def _new(self, nums, den, extra=_OWN):
        res = LieCombo.__new__(LieCombo)
        res.den, res.nums = den, nums
        res.degree = (self.degree if extra is _OWN else extra) if nums else None
        return res

    @classmethod
    def generator(cls, label: str) -> "LieCombo":
        if not label or not isinstance(label, str):
            raise ValueError("generator label must be a nonempty string")
        return cls({label: Fraction(1)})

    def __add__(self, other: "LieCombo") -> "LieCombo":
        if not self.nums:
            return other
        if not other.nums:
            return self
        if self.degree != other.degree:
            raise ValueError(f"cannot add degrees {self.degree} and {other.degree}")
        return self._sum(other, self.nums.items(), other.nums.items())

    def __repr__(self) -> str:
        return f"<LieCombo degree={self.degree} terms={len(self.nums)}>"


def bracket(a: LieCombo, b: LieCombo) -> LieCombo:
    """Bilinear bracket; [T, T] for identical trees collects to zero.

    Pairs of distinct trees are kept as new trees (t1, t2): no tree ever
    collides with another in the product, so no cancellation can occur here.
    """
    if not a.nums or not b.nums:
        return LieCombo.zero()
    right = list(b.nums.items())
    out = {(t1, t2): n1 * n2 for t1, n1 in a.nums.items()
           for t2, n2 in right if t1 != t2}
    return a._reduced(out, a.den * b.den, a.degree + b.degree)


def combo_to_json(combo: LieCombo) -> list:
    return [
        {"coeff": format_rational(c), "tree": tree_to_json(t)}
        for t, c in combo.sorted_terms()
    ]


def combo_from_json(items) -> LieCombo:
    terms: Dict[Tree, Fraction] = {}
    for item in items:
        t = tree_from_json(item["tree"])
        c = Fraction(item["coeff"])
        terms[t] = terms.get(t, Fraction(0)) + c
    return LieCombo(terms)


def _canonical_tree(tree: Tree, memo: Dict[Tree, tuple]) -> tuple:
    """(tree, sign, sort key) with every bracket oriented so the smaller
    subtree (by sort key) sits on the left, tracking the antisymmetry sign.
    memo holds the result of every bracket subtree seen so far."""
    if isinstance(tree, str):
        return tree, 1, tree_sort_key(tree)
    hit = memo.get(tree)
    if hit is not None:
        return hit
    left, sl, kl = _canonical_tree(tree[0], memo)
    right, sr, kr = _canonical_tree(tree[1], memo)
    sign = sl * sr
    if kl > kr:
        left, right = right, left
        sign = -sign
    canon = (left, right)
    out = memo[tree] = (canon, sign, tree_sort_key(canon))
    return out


def canonicalize(combo: LieCombo) -> LieCombo:
    """Equivalent combination with every tree in antisymmetry-canonical
    orientation; mirrored orientations merge (and may cancel)."""
    nums: Dict[Tree, int] = {}
    memo: Dict[Tree, tuple] = {}
    for t, n in combo.nums.items():
        ct, sign, _ = _canonical_tree(t, memo)
        s = nums.get(ct, 0) + sign * n
        if s:
            nums[ct] = s
        else:
            del nums[ct]
    return combo._reduced(nums, combo.den)


def collected_term_count(combo: LieCombo) -> int:
    """Number of independent terms, counted modulo antisymmetry orientation.

    Structural storage can hold both [A,B] and [B,A]; as elements these are
    one term (or none).  This is the representation-independent count used
    by the per-degree size checks.
    """
    return len(canonicalize(combo))


class FreeLieModule:
    """Ad-module interface over free symbolic combinations."""

    @staticmethod
    def zero() -> LieCombo:
        return LieCombo.zero()

    @staticmethod
    def add(a: LieCombo, b: LieCombo) -> LieCombo:
        return a + b

    @staticmethod
    def sub(a: LieCombo, b: LieCombo) -> LieCombo:
        return a - b

    @staticmethod
    def scale(c, a: LieCombo) -> LieCombo:
        return a.scale(c)

    @staticmethod
    def bracket(a: LieCombo, b: LieCombo) -> LieCombo:
        return bracket(a, b)

    @staticmethod
    def is_zero(a: LieCombo) -> bool:
        return a.is_zero()


# ---------------------------------------------------------------------------
# Associative expansion

class AssocPoly(_Combo):
    """Noncommutative polynomial: words (tuples of labels, the keys) with
    rational coefficients.  max_degree None means no truncation; otherwise
    words longer than max_degree are dropped by every operation.
    """

    __slots__ = ("max_degree",)
    _sort_key = staticmethod(lambda w: (len(w), w))
    _label = staticmethod(lambda w: ".".join(w) if w else "1")

    def __init__(self, terms: Optional[Dict[Word, Fraction]] = None,
                 max_degree: Optional[int] = None):
        _Combo.__init__(self, {} if terms is None else {
            w: c for w, c in terms.items()
            if max_degree is None or len(w) <= max_degree})
        self.max_degree = max_degree

    def _new(self, nums, den, extra=_OWN):
        res = AssocPoly.__new__(AssocPoly)
        res.den, res.nums = den, nums
        res.max_degree = self.max_degree if extra is _OWN else extra
        return res

    @classmethod
    def unit(cls, max_degree=None) -> "AssocPoly":
        return cls({(): Fraction(1)}, max_degree)

    @classmethod
    def word(cls, labels, coeff=1, max_degree=None) -> "AssocPoly":
        return cls({tuple(labels): as_fraction(coeff)}, max_degree)

    def _cap(self, other: "AssocPoly") -> Optional[int]:
        if self.max_degree is None:
            return other.max_degree
        if other.max_degree is None:
            return self.max_degree
        return min(self.max_degree, other.max_degree)

    def _items_within(self, cap: Optional[int]):
        """(word, numerator) pairs without the words longer than cap."""
        if cap is None or self.max_degree == cap:
            return self.nums.items()
        return [(w, n) for w, n in self.nums.items() if len(w) <= cap]

    def __add__(self, other: "AssocPoly") -> "AssocPoly":
        cap = self._cap(other)
        return self._sum(other, self._items_within(cap),
                         other._items_within(cap), cap)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, AssocPoly):
            return NotImplemented
        cap = self._cap(other)
        right = list(other.nums.items())
        out: Dict[Word, int] = {}
        for w1, n1 in self.nums.items():
            for w2, n2 in right:
                if cap is not None and len(w1) + len(w2) > cap:
                    continue
                w = w1 + w2
                out[w] = out.get(w, 0) + n1 * n2
        return self._reduced({w: n for w, n in out.items() if n},
                             self.den * other.den, cap)

    def __repr__(self) -> str:
        return f"<AssocPoly words={len(self.nums)} max_degree={self.max_degree}>"


_EXPAND_MEMO: Dict[Tree, Dict[Word, int]] = {}
_EXPAND_MEMO_MAX_DEGREE = 10  # bound memo memory; bigger trees expand ad hoc


def expand_tree(tree: Tree) -> Dict[Word, int]:
    """Words of [l, r] -> lr - rl, recursively, with their integer
    coefficients (zeros dropped).  For a bracket of degree at most
    _EXPAND_MEMO_MAX_DEGREE this is the shared memo dict itself: callers
    must not mutate it."""
    if isinstance(tree, str):
        return {(tree,): 1}
    cached = _EXPAND_MEMO.get(tree)
    if cached is not None:
        return cached
    left = expand_tree(tree[0])
    right = expand_tree(tree[1])
    acc: Dict[Word, int] = {}
    for wl, cl in left.items():
        for wr, cr in right.items():
            c = cl * cr
            w = wl + wr
            acc[w] = acc.get(w, 0) + c
            w = wr + wl
            acc[w] = acc.get(w, 0) - c
    out = {w: c for w, c in acc.items() if c}
    if tree_degree(tree) <= _EXPAND_MEMO_MAX_DEGREE:
        _EXPAND_MEMO[tree] = out
    return out


def expand_assoc(combo: LieCombo) -> AssocPoly:
    """Associative expansion of a combination; exact, no truncation.
    Sums integer numerators over the combination's common denominator."""
    out: Dict[Word, int] = {}
    for t, n in combo.nums.items():
        for w, cw in expand_tree(t).items():
            out[w] = out.get(w, 0) + n * cw
    return AssocPoly()._reduced({w: n for w, n in out.items() if n},
                                combo.den)


def expands_equal(a: LieCombo, b: LieCombo) -> bool:
    """Mathematical equality via associative expansion."""
    return expand_assoc(a) == expand_assoc(b)
