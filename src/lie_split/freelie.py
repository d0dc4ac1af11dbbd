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


class LieCombo:
    """Homogeneous rational combination of bracket trees.

    terms maps tree -> nonzero Fraction.  All trees share one degree;
    the empty combination is the zero element and reports degree None.
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms: Optional[Dict[Tree, Fraction]] = None,
                 degree: Optional[int] = None):
        terms = {} if terms is None else {t: as_fraction(c) for t, c in terms.items() if c != 0}
        if terms:
            degs = {tree_degree(t) for t in terms}
            if len(degs) != 1:
                raise ValueError(f"inhomogeneous combination, degrees {sorted(degs)}")
            d = degs.pop()
            if degree is not None and degree != d:
                raise ValueError(f"declared degree {degree} but trees have degree {d}")
            degree = d
        self.terms = terms
        self.degree = degree if terms else None

    @classmethod
    def zero(cls) -> "LieCombo":
        return cls()

    @classmethod
    def generator(cls, label: str) -> "LieCombo":
        if not label or not isinstance(label, str):
            raise ValueError("generator label must be a nonempty string")
        return cls({label: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LieCombo) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LieCombo") -> "LieCombo":
        if not self.terms:
            return other
        if not other.terms:
            return self
        if self.degree != other.degree:
            raise ValueError(f"cannot add degrees {self.degree} and {other.degree}")
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = out.get(t, 0) + c
            if s:
                out[t] = s
            else:
                out.pop(t, None)
        res = LieCombo.__new__(LieCombo)
        res.terms = out
        res.degree = self.degree if out else None
        return res

    def __neg__(self) -> "LieCombo":
        res = LieCombo.__new__(LieCombo)
        res.terms = {t: -c for t, c in self.terms.items()}
        res.degree = self.degree if res.terms else None
        return res

    def __sub__(self, other: "LieCombo") -> "LieCombo":
        return self + (-other)

    def scale(self, c) -> "LieCombo":
        c = as_fraction(c)
        res = LieCombo.__new__(LieCombo)
        if c == 0:
            res.terms, res.degree = {}, None
            return res
        res.terms = {t: v * c for t, v in self.terms.items()}
        res.degree = self.degree if res.terms else None
        return res

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: tree_sort_key(kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for t, c in self.sorted_terms():
            bits.append(f"{format_rational(c)}*{tree_str(t)}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"<LieCombo degree={self.degree} terms={len(self.terms)}>"


def tree_str(tree: Tree) -> str:
    if isinstance(tree, str):
        return tree
    return f"[{tree_str(tree[0])},{tree_str(tree[1])}]"


def bracket(a: LieCombo, b: LieCombo) -> LieCombo:
    """Bilinear bracket; [T, T] for identical trees collects to zero.

    Pairs of distinct trees are kept as new trees (t1, t2): no tree ever
    collides with another in the product, so no cancellation can occur here.
    """
    if not a.terms or not b.terms:
        return LieCombo.zero()
    out = {}
    for t1, c1 in a.terms.items():
        for t2, c2 in b.terms.items():
            if t1 == t2:
                continue
            out[(t1, t2)] = c1 * c2
    res = LieCombo.__new__(LieCombo)
    res.terms = out
    res.degree = a.degree + b.degree if out else None
    return res


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
    terms: Dict[Tree, Fraction] = {}
    memo: Dict[Tree, tuple] = {}
    for t, c in combo.terms.items():
        ct, sign, _ = _canonical_tree(t, memo)
        s = terms.get(ct, Fraction(0)) + sign * c
        if s:
            terms[ct] = s
        else:
            terms.pop(ct, None)
    return LieCombo(terms)


def collected_term_count(combo: LieCombo) -> int:
    """Number of independent terms, counted modulo antisymmetry orientation.

    Structural storage can hold both [A,B] and [B,A]; as elements these are
    one term (or none).  This is the representation-independent count used
    by the per-degree size checks.
    """
    return len(canonicalize(combo).terms)


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

class AssocPoly:
    """Noncommutative polynomial: words (tuples of labels) with rational
    coefficients, held as one common denominator and integer numerators.

    den is a positive int and nums maps word -> nonzero int, with
    gcd(den, every numerator) = 1 and den = 1 for the zero polynomial, so
    equal polynomials have equal fields.  ``terms`` gives the coefficients
    as reduced Fractions.  max_degree None means no truncation; otherwise
    words longer than max_degree are dropped by every operation.
    """

    __slots__ = ("den", "nums", "max_degree")

    def __init__(self, terms: Optional[Dict[Word, Fraction]] = None,
                 max_degree: Optional[int] = None):
        coeffs = {} if terms is None else {
            w: as_fraction(c) for w, c in terms.items()
            if max_degree is None or len(w) <= max_degree
        }
        self.den, nums = _numerators(coeffs)
        self.nums = {w: n for w, n in nums if n}
        self.max_degree = max_degree

    @classmethod
    def zero(cls, max_degree=None) -> "AssocPoly":
        return cls(None, max_degree)

    @classmethod
    def unit(cls, max_degree=None) -> "AssocPoly":
        return cls({(): Fraction(1)}, max_degree)

    @classmethod
    def word(cls, labels, coeff=1, max_degree=None) -> "AssocPoly":
        return cls({tuple(labels): as_fraction(coeff)}, max_degree)

    @property
    def terms(self) -> Dict[Word, Fraction]:
        """word -> reduced Fraction coefficient, as a new dict."""
        den = self.den
        return {w: Fraction(n, den) for w, n in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AssocPoly) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

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
        g = gcd(self.den, other.den)
        m1, m2 = other.den // g, self.den // g
        out = {w: n * m1 for w, n in self._items_within(cap)}
        for w, n in other._items_within(cap):
            s = out.get(w, 0) + n * m2
            if s:
                out[w] = s
            else:
                del out[w]
        return _reduced(out, self.den * m1, cap)

    def __neg__(self) -> "AssocPoly":
        return _reduced({w: -n for w, n in self.nums.items()}, self.den,
                        self.max_degree)

    def __sub__(self, other: "AssocPoly") -> "AssocPoly":
        return self + (-other)

    def scale(self, c) -> "AssocPoly":
        c = as_fraction(c)
        if not c:
            return AssocPoly.zero(self.max_degree)
        p = c.numerator
        return _reduced({w: n * p for w, n in self.nums.items()},
                        self.den * c.denominator, self.max_degree)

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

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
        return _reduced({w: n for w, n in out.items() if n},
                        self.den * other.den, cap)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        bits = []
        for w, c in self.sorted_terms():
            label = ".".join(w) if w else "1"
            bits.append(f"{format_rational(c)}*{label}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"<AssocPoly words={len(self.nums)} max_degree={self.max_degree}>"


def _reduced(nums: Dict[Word, int], den: int,
             max_degree: Optional[int]) -> AssocPoly:
    """The AssocPoly nums / den (nonzero int numerators, den > 0), with the
    common factor of den and every numerator divided out."""
    g = gcd(den, *nums.values())
    if g > 1:
        den //= g
        nums = {w: n // g for w, n in nums.items()}
    res = AssocPoly.__new__(AssocPoly)
    res.den, res.nums, res.max_degree = den, nums, max_degree
    return res


def _numerators(terms) -> Tuple[int, list]:
    """(den, [(key, numerator)]): the lcm of the coefficients' denominators
    (1 when there are none), and each coefficient times den as an int.
    For reduced Fractions, den and the numerators have no common factor."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, [(k, c.numerator * (den // c.denominator))
                 for k, c in terms.items()]


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
    den, numerators = _numerators(combo.terms)
    out: Dict[Word, int] = {}
    for t, n in numerators:
        for w, cw in expand_tree(t).items():
            out[w] = out.get(w, 0) + n * cw
    return _reduced({w: n for w, n in out.items() if n}, den, None)


def expands_equal(a: LieCombo, b: LieCombo) -> bool:
    """Mathematical equality via associative expansion."""
    return expand_assoc(a) == expand_assoc(b)
