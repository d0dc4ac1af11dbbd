"""Free Lie algebra terms as explicit bracket trees.

A tree is either a generator label (str) or a pair ``(left, right)`` standing
for the bracket [left, right].  No rewriting (antisymmetry, Jacobi) is ever
applied: combinations collect coefficients on structurally equal trees only,
so the term lists the recursion produces stay in exactly the shape the
algorithm builds them in.  The single exception is [T, T] -> 0 for two
structurally identical trees, which is unambiguous.

Mathematical equality of two combinations is decided by expanding brackets
into noncommutative words ([a, b] -> ab - ba) and comparing the resulting
associative polynomials, which are a faithful representation.  Expansion
uses bilinearity: the brackets of a combination that share a child expand
as one bracket of that child with the collected other side, and the words
of each subtree are kept only for the one ``expand_assoc`` call.

Both kinds of combination, tree combinations (LieCombo) and word
polynomials (AssocPoly), are the exact combination of ``scalars._Combo``
(which ``scalars.UniPoly`` shares): a reduced common denominator and
integer numerators, so sums, scalings, brackets and products run on ints
and build no Fraction until ``terms`` is read.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .scalars import _OWN, _Combo, as_fraction, format_rational

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
        left, right, kl, kr = right, left, kr, kl
        sign = -sign
    # tree_sort_key of (left, right), from the children's keys
    key = (kl[0] + kr[0], f"[{kl[1]}, {kr[1]}]")
    out = memo[tree] = ((left, right), sign, key)
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
    """Number of distinct trees modulo orientation: [A,B] and [B,A] merge
    (and may cancel), being one term (or none) as elements.  No Jacobi
    relation is applied, so this is not a count of independent terms (C_9
    gives 54, against 56 nonzero Lyndon coordinates); it is the count the
    per-degree size checks pin."""
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


def _words(nums: Dict[Tree, int], memo: Dict[Tree, Dict[Word, int]]
           ) -> Dict[Word, int]:
    """Words of sum n*tree over nums, integer coefficients, zeros dropped.

    By bilinearity sum_i n_i [L, R_i] = [L, sum_i n_i R_i]: brackets are
    grouped on the side with fewer distinct children, and each group is one
    commutator of that child's words with the other side's, collected and
    expanded the same way.  memo holds the words of each single tree and
    returns them as is: callers must not mutate them."""
    if len(nums) == 1:
        [(one, n)] = nums.items()
        if n != 1:
            return {w: n * c for w, c in _words({one: 1}, memo).items()}
        if one in memo:
            return memo[one]
    out: Dict[Word, int] = {}
    by_left: Dict[Tree, Dict[Tree, int]] = {}
    by_right: Dict[Tree, Dict[Tree, int]] = {}
    for tree, n in nums.items():
        if isinstance(tree, str):
            out[(tree,)] = n
        else:
            by_left.setdefault(tree[0], {})[tree[1]] = n
            by_right.setdefault(tree[1], {})[tree[0]] = n
    if len(by_left) <= len(by_right):
        pairs = ((_words({child: 1}, memo), _words(rights, memo))
                 for child, rights in by_left.items())
    else:
        pairs = ((_words(lefts, memo), _words({child: 1}, memo))
                 for child, lefts in by_right.items())
    for left, right in pairs:
        for wl, cl in left.items():
            for wr, cr in right.items():
                c = cl * cr
                w = wl + wr
                out[w] = out.get(w, 0) + c
                w = wr + wl
                out[w] = out.get(w, 0) - c
    out = {w: c for w, c in out.items() if c}
    if len(nums) == 1:
        memo[one] = out
    return out


def expand_assoc(combo: LieCombo) -> AssocPoly:
    """Associative expansion of a combination; exact, no truncation.
    [l, r] -> lr - rl on integer numerators over the common denominator,
    grouped by shared children (_words), with a memo for this call only."""
    return AssocPoly()._reduced(_words(combo.nums, {}), combo.den)


def expands_equal(a: LieCombo, b: LieCombo) -> bool:
    """Mathematical equality via associative expansion."""
    return expand_assoc(a) == expand_assoc(b)
