import cProfile
import hashlib
import pstats
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lie_split.cli import main
from lie_split.freelie import (AssocPoly, FreeLieModule, LieCombo,
                               _canonical_tree, bracket, canonicalize,
                               collected_term_count, combo_from_json,
                               combo_to_json, expand_assoc, expands_equal,
                               tree_degree, tree_str)
from lie_split.engine import oracle_symmetric_terms, symmetric_terms
from lie_split.series import AssocPolyAlgebra

X = LieCombo.generator("X")
Y = LieCombo.generator("Y")

coeffs = st.fractions(min_value=-20, max_value=20,
                      max_denominator=12).filter(bool)


def combos_of_degree(d):
    """Random combinations, homogeneous of degree d (additions require it)."""
    if d == 1:
        trees = st.sampled_from([X, Y])
    else:
        trees = st.integers(1, d - 1).flatmap(
            lambda i: st.tuples(combos_of_degree(i), combos_of_degree(d - i)).map(
                lambda ab: bracket(ab[0], ab[1])))
    term = st.tuples(coeffs, trees).map(lambda ct: ct[1].scale(ct[0]))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda parts: sum(parts[1:], parts[0]))


def small_combos(max_degree=3):
    return st.integers(1, max_degree).flatmap(combos_of_degree)


def test_generators_and_tree_helpers():
    assert tree_degree("X") == 1
    t = ("X", ("X", "Y"))
    assert tree_degree(t) == 3
    assert tree_str(t) == "[X,[X,Y]]"


def test_bracket_of_generator_with_itself_vanishes():
    assert bracket(X, X).is_zero()
    assert bracket(X + Y, X + Y).is_zero() or expands_equal(
        bracket(X + Y, X + Y), LieCombo.zero())


def test_expand_known_word_identity():
    # [X,[X,Y]] = XXY - 2 XYX + YXX in the word algebra
    p = expand_assoc(bracket(X, bracket(X, Y)))
    assert p.terms[("X", "X", "Y")] == 1
    assert p.terms[("X", "Y", "X")] == -2
    assert p.terms[("Y", "X", "X")] == 1
    assert len(p.terms) == 3


@settings(max_examples=60)
@given(small_combos(), small_combos())
def test_antisymmetry_under_expansion(a, b):
    assert expands_equal(bracket(a, b) + bracket(b, a), LieCombo.zero())


@settings(max_examples=40, deadline=None)
@given(small_combos(2), small_combos(2), small_combos(2))
def test_jacobi_under_expansion(a, b, c):
    cyclic = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
              + bracket(c, bracket(a, b)))
    assert expands_equal(cyclic, LieCombo.zero())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(combos_of_degree(d), combos_of_degree(d))),
    coeffs, coeffs)
def test_expand_is_linear(pair, p, q):
    a, b = pair
    lhs = expand_assoc(a.scale(p) + b.scale(q))
    rhs = expand_assoc(a).scale(p) + expand_assoc(b).scale(q)
    assert lhs == rhs


@settings(max_examples=40)
@given(small_combos())
def test_canonicalize_preserves_value(a):
    assert expands_equal(a, canonicalize(a))


def test_canonicalize_merges_mirror_trees():
    raw = bracket(X, Y) + bracket(Y, X).scale(Fraction(2))
    canon = canonicalize(raw)
    assert collected_term_count(canon) == 1
    assert expands_equal(canon, bracket(Y, X))


def test_collected_term_count_on_zero():
    assert collected_term_count(LieCombo.zero()) == 0


@settings(max_examples=40)
@given(small_combos())
def test_json_round_trip(a):
    assert combo_from_json(combo_to_json(a)) == a


def test_json_format_shape():
    items = combo_to_json(bracket(X, Y).scale(Fraction(1, 2)))
    assert items == [{"coeff": "1/2", "tree": ["X", "Y"]}]


def test_module_contract():
    mod = FreeLieModule()
    assert mod.is_zero(mod.zero()) and not mod.is_zero(X)
    assert mod.add(X, mod.zero()) == X
    assert mod.sub(X, X).is_zero()
    assert mod.scale(Fraction(3), X) == X.scale(Fraction(3))
    assert mod.bracket(X, Y) == bracket(X, Y)


def test_assoc_poly_truncation_cap():
    x = AssocPoly.word(("X",), max_degree=3)
    y = AssocPoly.word(("Y",), max_degree=3)
    prod = x * x * y * y  # degree 4 with cap 3 collapses to zero
    assert prod.is_zero()
    cube = x * x * y
    assert ("X", "X", "Y") in cube.terms


def test_assoc_poly_mixed_degree_sum_keeps_terms():
    x = AssocPoly.word(("X",))
    xy = AssocPoly.word(("X", "Y"), coeff=Fraction(1, 3))
    s = x + xy
    assert s.terms[("X",)] == 1
    assert s.terms[("X", "Y")] == Fraction(1, 3)


# ---------------------------------------------------------------------------
# Integer-numerator kernels against the Fraction loops they replaced

def fraction_expand_tree(tree):
    if isinstance(tree, str):
        return {(tree,): Fraction(1)}
    left = fraction_expand_tree(tree[0])
    right = fraction_expand_tree(tree[1])
    out = {}
    for wl, cl in left.items():
        for wr, cr in right.items():
            c = cl * cr
            for w, v in ((wl + wr, c), (wr + wl, -c)):
                s = out.get(w, 0) + v
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
    return out


def fraction_expand(combo):
    out = {}
    for t, c in combo.terms.items():
        for w, cw in fraction_expand_tree(t).items():
            s = out.get(w, 0) + c * cw
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def fraction_mul(p, q):
    cap = p._cap(q)
    out = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            if cap is not None and len(w1) + len(w2) > cap:
                continue
            w = w1 + w2
            s = out.get(w, 0) + c1 * c2
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def mirror(combo):
    """Every top bracket [l, r] as [r, l]: expands to the negative."""
    return LieCombo({(t[1], t[0]): c for t, c in combo.terms.items()})


def assert_reduced_fractions(terms):
    assert all(type(c) is Fraction and c for c in terms.values())


def assert_canonical(combo):
    """One denominator and integer numerators in lowest terms; a LieCombo's
    trees all of its degree, which is None when it is empty."""
    assert type(combo.den) is int and combo.den >= 1
    assert all(type(n) is int and n for n in combo.nums.values())
    assert gcd(combo.den, *combo.nums.values()) == 1
    if not combo.nums:
        assert combo.den == 1
    if isinstance(combo, LieCombo):
        assert {tree_degree(t) for t in combo.nums} == (
            {combo.degree} if combo.nums else set())
        assert combo.nums or combo.degree is None
    elif combo.max_degree is not None:
        assert all(len(w) <= combo.max_degree for w in combo.nums)
    assert_reduced_fractions(combo.terms)


# one letter gives many colliding (and cancelling) products of words
words = st.lists(st.sampled_from("XY"), max_size=4).map(tuple) | st.lists(
    st.just("X"), max_size=6).map(tuple)
caps = st.none() | st.integers(0, 6)
polys = st.builds(AssocPoly, st.dictionaries(words, coeffs, max_size=6),
                  caps)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(combos_of_degree(d), min_size=1, max_size=2)))
def test_expand_assoc_matches_the_fraction_loop(parts):
    combo = sum(parts[1:], parts[0])
    got = expand_assoc(combo)
    assert got.terms == fraction_expand(combo)
    assert got.max_degree is None
    assert_canonical(got)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4).flatmap(combos_of_degree))
def test_expand_assoc_cancels_to_the_zero_polynomial(combo):
    both = combo + mirror(combo)
    assert fraction_expand(both) == {}
    assert expand_assoc(both).terms == {}


def test_expand_assoc_of_zero_is_empty():
    got = expand_assoc(LieCombo.zero())
    assert got.terms == {} and got.max_degree is None


# ---------------------------------------------------------------------------
# Grouped expansion: brackets collected on a shared child expand as one

A, B = ("X", "Y"), ("Y", ("X", "Y"))


@pytest.fixture(scope="module")
def terms_to_11():
    return symmetric_terms(FreeLieModule(), X, Y, 11)


def test_expand_assoc_of_the_terms_matches_the_fraction_loop(terms_to_11):
    for k in range(3, 12):
        combo = terms_to_11.get(k, LieCombo.zero())
        got = expand_assoc(combo)
        assert got.terms == fraction_expand(combo), k
        assert_canonical(got)


@pytest.mark.parametrize("terms", [
    # one left child, many rights: [A, sum n_i R_i]
    {(A, ("X", A)): 1, (A, ("Y", A)): Fraction(-2, 3), (A, (A, "X")): 5},
    # many lefts, one right child: [sum n_i L_i, B]
    {(("X", A), B): Fraction(1, 2), (("Y", A), B): 3, ((A, "Y"), B): -7,
     ((("Y", "X"), "Y"), B): 1},
    # both shapes in one combination, with a left child that is also a right
    {(A, ("X", B)): 2, (A, (B, "Y")): -1, (("X", B), A): 4, ((B, "X"), A): 1},
], ids=["by-left", "by-right", "mixed"])
def test_grouped_expansion_matches_tree_by_tree(terms):
    combo = LieCombo(terms)
    got = expand_assoc(combo)
    assert got.terms == fraction_expand(combo)
    by_tree = sum((expand_assoc(LieCombo({t: c})) for t, c in terms.items()),
                  AssocPoly.zero())
    assert got == by_tree
    assert_canonical(got)


def test_expand_assoc_of_generators_only():
    got = expand_assoc(X.scale(2) + Y.scale(Fraction(-1, 3)))
    assert got.terms == {("X",): 2, ("Y",): Fraction(-1, 3)}
    assert got.den == 3 and got.nums == {("X",): 6, ("Y",): -1}


def test_expand_assoc_of_a_term_plus_its_mirror_is_zero(terms_to_11):
    combo = terms_to_11[9]
    got = expand_assoc(combo + mirror(combo))
    assert got.is_zero() and got == AssocPoly.zero()
    assert got.den == 1 and got.max_degree is None


def test_mutating_a_result_leaves_later_expansions_alone():
    inner, outer = bracket(X, Y), bracket(X, bracket(X, Y))
    for combo in (X, inner, outer):
        expand_assoc(combo).nums.clear()
        first = expand_assoc(inner)
        first.nums[("X", "X")] = 7
        assert expand_assoc(combo).terms == fraction_expand(combo)
        assert expand_assoc(inner).terms == {("X", "Y"): 1, ("Y", "X"): -1}


@settings(max_examples=150, deadline=None)
@given(polys, polys)
def test_assoc_mul_matches_the_fraction_loop(p, q):
    got = p * q
    assert got.terms == fraction_mul(p, q)
    assert got.max_degree == p._cap(q)
    assert_canonical(got)


@pytest.mark.parametrize("p_cap, q_cap", [(None, None), (3, None),
                                          (None, 2), (4, 1)])
def test_assoc_mul_with_empty_or_cancelled_products(p_cap, q_cap):
    p = AssocPoly({("X",): Fraction(1, 3), ("X", "X"): Fraction(-2, 5)},
                  p_cap)
    empty = AssocPoly(None, q_cap)
    for a, b in ((p, empty), (empty, p), (empty, empty)):
        got = a * b
        assert got.terms == {} and got.max_degree == a._cap(b)
    # (1/3 X - 2/5 XX)(5/6 X + XX): the XXX terms cancel
    q = AssocPoly({("X",): Fraction(5, 6), ("X", "X"): 1}, q_cap)
    got = p * q
    assert got.terms == fraction_mul(p, q)
    assert ("X", "X", "X") not in got.terms
    # a cap below every product's degree leaves the zero polynomial
    low = AssocPoly({("X",): Fraction(1, 7)}, 1)
    assert (p * low).terms == {} and (low * q).terms == {}


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(-6, 6) | coeffs | st.just(Fraction(0)))
def test_assoc_mul_by_a_scalar_scales(p, c):
    want = {w: v * c for w, v in p.terms.items()} if c else {}
    for got in (p * c, c * p):
        assert got.terms == want
        assert got.max_degree == p.max_degree


# ---------------------------------------------------------------------------
# Common-denominator storage against Fraction references

def fraction_add(p, q, sign=1):
    cap = p._cap(q)
    out = {}
    for w, c in list(p.terms.items()) + [(w, sign * c)
                                         for w, c in q.terms.items()]:
        if cap is not None and len(w) > cap:
            continue
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


@settings(max_examples=150, deadline=None)
@given(polys, polys)
def test_assoc_add_and_sub_match_the_fraction_loop(p, q):
    for got, want in ((p + q, fraction_add(p, q)),
                      (p - q, fraction_add(p, q, -1)),
                      (-p, {w: -c for w, c in p.terms.items()})):
        assert got.terms == want
        assert_canonical(got)
    assert (p + q).max_degree == (p - q).max_degree == p._cap(q)
    assert (-p).max_degree == p.max_degree


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(-6, 6) | coeffs)
def test_assoc_scale_matches_the_fraction_loop(p, c):
    got = p.scale(c)
    assert got.terms == ({w: v * c for w, v in p.terms.items()} if c else {})
    assert got.max_degree == p.max_degree
    assert_canonical(got)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(words, coeffs | st.integers(-3, 3), max_size=6), caps)
def test_assoc_capped_constructor_keeps_short_nonzero_words(terms, cap):
    got = AssocPoly(terms, cap)
    assert got.terms == {w: Fraction(c) for w, c in terms.items()
                         if c and (cap is None or len(w) <= cap)}
    assert got.max_degree == cap
    assert_canonical(got)


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_assoc_equality_and_hash_agree_across_constructions(a, b):
    b = AssocPoly(b.terms, a.max_degree)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    back = (a + b) - b
    assert back == a and hash(back) == hash(a)
    rebuilt = AssocPoly(a.terms, a.max_degree)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert (a - a) == AssocPoly.zero() and hash(a - a) == hash(AssocPoly.zero())


def test_assoc_equality_ignores_how_a_coefficient_was_reached():
    x = AssocPoly.word(("X",))
    half = AssocPoly.word(("X",), Fraction(1, 2))
    for other in (x.scale(Fraction(2, 4)), x.scale(3).scale(Fraction(1, 6)),
                  AssocPoly({("X",): "1/2"}), x + x.scale(Fraction(-1, 2))):
        assert other == half and hash(other) == hash(half)
        assert (other.den, other.nums) == (2, {("X",): 1})
    xy = AssocPoly({("X",): 1, ("Y",): Fraction(1, 3)})
    yx = AssocPoly({("Y",): Fraction(1, 3), ("X",): 1})
    assert xy == yx and hash(xy) == hash(yx)
    assert x.scale(0) == AssocPoly.zero() and x.scale(0).den == 1
    assert half != x and half != half.terms


def test_assoc_add_drops_words_beyond_the_smaller_cap():
    got = AssocPoly.word("XXXX") + AssocPoly.zero(3)
    assert got.is_zero() and got.terms == {} and got.max_degree == 3
    mixed = AssocPoly({("X",): 1, ("X", "Y", "Y"): Fraction(1, 4)})
    got = AssocPoly.word("Y", max_degree=2) + mixed
    assert got.terms == {("X",): 1, ("Y",): 1} and got.max_degree == 2
    assert_canonical(got)


# ---------------------------------------------------------------------------
# LieCombo on the shared common-denominator storage against the Fraction-dict
# LieCombo it replaced

def fraction_lie_add(a, b, sign=1):
    out = dict(a.terms)
    for t, c in b.terms.items():
        s = out.get(t, 0) + sign * c
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def fraction_bracket(a, b):
    return {(t1, t2): c1 * c2 for t1, c1 in a.terms.items()
            for t2, c2 in b.terms.items() if t1 != t2}


def fraction_canonicalize(combo):
    out, memo = {}, {}
    for t, c in combo.terms.items():
        ct, sign, _ = _canonical_tree(t, memo)
        s = out.get(ct, Fraction(0)) + sign * c
        if s:
            out[ct] = s
        else:
            out.pop(ct, None)
    return out


def trees_of_degree(d):
    if d == 1:
        return st.sampled_from("XY")
    return st.integers(1, d - 1).flatmap(lambda i: st.tuples(
        trees_of_degree(i), trees_of_degree(d - i)))


def built_combos(d):
    """Degree-d combinations from Fraction, int and string coefficients."""
    return st.dictionaries(trees_of_degree(d), coeffs | st.integers(-3, 3)
                           | coeffs.map(str), max_size=5).map(LieCombo)


def any_combos(d):
    return combos_of_degree(d) | built_combos(d)


same_degree_pairs = st.integers(1, 4).flatmap(
    lambda d: st.tuples(any_combos(d), any_combos(d)))


@settings(max_examples=60, deadline=None)
@given(same_degree_pairs)
def test_lie_add_sub_and_neg_match_the_fraction_loop(pair):
    a, b = pair
    for got, want in ((a + b, fraction_lie_add(a, b)),
                      (a - b, fraction_lie_add(a, b, -1)),
                      (a - a, {}),
                      (-a, {t: -c for t, c in a.terms.items()})):
        assert got.terms == want
        assert_canonical(got)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(any_combos),
       st.integers(-6, 6) | coeffs | st.just(Fraction(0)))
def test_lie_scale_matches_the_fraction_loop(a, c):
    want = {t: v * c for t, v in a.terms.items()} if c else {}
    for got in (a.scale(c), c * a, FreeLieModule.scale(c, a)):
        assert got.terms == want
        assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(any_combos),
       st.integers(1, 3).flatmap(any_combos))
def test_bracket_matches_the_fraction_loop(a, b):
    for x, y in ((a, b), (b, a), (a, a), (a, a + b if a.degree == b.degree
                                          else a)):
        got = bracket(x, y)
        assert got.terms == fraction_bracket(x, y)
        assert_canonical(got)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4).flatmap(any_combos), coeffs)
def test_canonicalize_matches_the_fraction_loop(a, c):
    # mirrored trees merge, and cancel where c is -1
    for combo in (a, a + mirror(a).scale(c), a - mirror(a)):
        got = canonicalize(combo)
        assert got.terms == fraction_canonicalize(combo)
        assert collected_term_count(combo) == len(got.terms)
        assert_canonical(got)


@settings(max_examples=50, deadline=None)
@given(same_degree_pairs)
def test_lie_equality_and_hash_agree_across_constructions(pair):
    a, b = pair
    assert a + b == b + a and hash(a + b) == hash(b + a)
    back = (a + b) - b
    assert back == a and hash(back) == hash(a)
    for rebuilt in (LieCombo(a.terms), LieCombo(a.terms, a.degree),
                    combo_from_json(combo_to_json(a)),
                    a.scale(3).scale(Fraction(1, 3)), -(-a)):
        assert rebuilt == a and hash(rebuilt) == hash(a)
        assert rebuilt.degree == a.degree
    assert a - a == LieCombo.zero() and hash(a - a) == hash(LieCombo.zero())
    assert a != expand_assoc(a)


def test_lie_combo_keeps_one_reduced_denominator():
    half = bracket(X, Y).scale(Fraction(1, 2))
    third = bracket(Y, X).scale(Fraction(2, 6))
    both = half + third
    assert (both.den, both.nums) == (6, {("X", "Y"): 3, ("Y", "X"): 2})
    assert both.degree == 2 and len(both) == 2
    # [X/2 + Y, X]: the pair (X, X) drops, and 1 * 1 over 1 stays
    got = bracket(X.scale(Fraction(1, 2)) + Y, X)
    assert (got.den, got.nums, got.degree) == (1, {("Y", "X"): 1}, 2)
    assert str(both) == "1/2*[X,Y] + 1/3*[Y,X]"
    with pytest.raises(ValueError):
        X + bracket(X, Y)
    with pytest.raises(ValueError):
        LieCombo({"X": 1, ("X", "Y"): 1})


# ---------------------------------------------------------------------------
# Series-peeling oracle: pinned output and its Fraction count

ORACLE_PAIRS = ((Fraction(1), Fraction(1, 3)),
                (Fraction(3, 7), Fraction(-5, 11)))
# sha256 of the order-12 oracle dump below for both ORACLE_PAIRS, as the
# Fraction-dict AssocPoly computed it
ORACLE_12_SHA256 = (
    "016296fcb0007403f46d214ac336a1e6e2e0a7f73567535707b9bd19a4a7520d")


def oracle_12(a, b):
    return oracle_symmetric_terms(AssocPolyAlgebra(),
                                  AssocPoly.word(("X",), a),
                                  AssocPoly.word(("Y",), b), 12)


def test_series_oracle_matches_its_golden_dump():
    lines = []
    for a, b in ORACLE_PAIRS:
        terms = oracle_12(a, b)
        lines += [f"{a} {b} C_{k} {'.'.join(w)} {c}\n" for k in sorted(terms)
                  for w, c in sorted(terms[k].terms.items())]
    assert len(lines) == 5420
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == \
        ORACLE_12_SHA256


def fractions_built(fn, *args):
    """Fraction objects constructed while fn(*args) runs."""
    prof = cProfile.Profile()
    prof.runcall(fn, *args)
    return sum(calls for (path, _, name), (_, calls, *_) in
               pstats.Stats(prof).stats.items()
               if path.endswith("fractions.py") and name == "__new__")


def test_series_oracle_builds_few_fractions():
    """The oracle's sums and products stay on ints: the Fraction-dict
    storage built 420,648 Fractions in this call."""
    assert 0 < fractions_built(oracle_12, *ORACLE_PAIRS[1]) <= 1000


def test_term_recursion_builds_few_fractions(capsys):
    """The symbolic recursion and the collected counts stay on ints: the
    Fraction-dict LieCombo built 98,789 Fractions in this call."""
    argv = ["terms", "--max-degree", "15", "--check-counts"]
    assert 0 < fractions_built(main, argv) <= 1000
    assert "degree 15: 2106" in capsys.readouterr().out
