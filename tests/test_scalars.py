from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from lie_split.freelie import AssocPoly, LieCombo
from lie_split.scalars import (UniPoly, as_fraction, format_rational,
                               parse_coefficient)

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)
polys = st.lists(rationals, max_size=6).map(UniPoly)


def test_as_fraction_accepts_ints_and_strings():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("2/6") == Fraction(1, 3)
    assert as_fraction(Fraction(5, 7)) == Fraction(5, 7)


def test_format_rational_drops_unit_denominator():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 8)) == "-3/8"
    assert format_rational(Fraction(0)) == "0"


@given(rationals)
def test_format_parse_round_trip(q):
    assert as_fraction(format_rational(q)) == q


def test_parse_coefficient_forms():
    assert parse_coefficient("3/4") == UniPoly.constant(Fraction(3, 4))
    assert parse_coefficient("-1 t") == UniPoly.monomial(Fraction(-1), 1)
    assert parse_coefficient("5/2 t^3") == UniPoly.monomial(Fraction(5, 2), 3)
    assert parse_coefficient(" 7 ") == UniPoly.constant(Fraction(7))


def test_parse_coefficient_rejects_garbage():
    for bad in ("", "t", "1.5", "2 t^", "1/0", "x"):
        with pytest.raises(ValueError):
            parse_coefficient(bad)


def test_unipoly_trims_trailing_zeros():
    p = UniPoly([Fraction(1), Fraction(0), Fraction(0)])
    assert p.degree == 0
    assert p == UniPoly.one()
    assert UniPoly([Fraction(0)]).is_zero()


def test_unipoly_coefficient_out_of_range_is_zero():
    p = UniPoly.monomial(Fraction(2, 3), 2)
    assert p.coefficient(5) == 0
    assert p.coefficient(2) == Fraction(2, 3)


def test_unipoly_horner_evaluation():
    p = UniPoly([Fraction(1), Fraction(-2), Fraction(3)])  # 1 - 2t + 3t^2
    assert p(Fraction(1, 2)) == Fraction(3, 4)
    assert abs(p(0.5) - 0.75) < 1e-15


@given(polys, polys, polys)
def test_unipoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@given(polys, rationals)
def test_unipoly_scale_matches_constant_mul(p, q):
    assert p.scale(q) == p * UniPoly.constant(q)


@given(polys, polys, st.fractions(min_value=-100, max_value=100,
                                  max_denominator=50))
def test_unipoly_evaluation_is_hom(a, b, s):
    assert (a * b)(s) == a(s) * b(s)
    assert (a + b)(s) == a(s) + b(s)


def test_unipoly_str_shows_powers():
    p = UniPoly.monomial(Fraction(1, 48), 1)
    assert str(p) == "1/48 t"
    q = UniPoly([Fraction(1), Fraction(0), Fraction(-1, 2)])
    s = str(q)
    assert "t^2" in s and "1" in s


@given(polys, polys)
def test_equal_unipolys_have_equal_fields_and_hash(a, b):
    p, q = a + b, b + a
    assert p == q
    assert (p.den, p.nums) == (q.den, q.nums)
    assert hash(p) == hash(q)


def test_zero_combinations_of_different_kinds_differ():
    zeros = [UniPoly.zero(), AssocPoly.zero(), LieCombo.zero()]
    assert len({(z.den, tuple(z.nums)) for z in zeros}) == 1
    for i, a in enumerate(zeros):
        for b in zeros[i + 1:]:
            assert a != b and b != a


def test_unipoly_compares_with_rationals_as_constants():
    assert UniPoly.constant(3) == 3
    assert UniPoly.constant(Fraction(1, 2)) == Fraction(1, 2)
    assert UniPoly.monomial(3, 2) != 3
    assert UniPoly.zero() == 0


def test_unipoly_evaluates_at_mpf_to_mpf():
    p = UniPoly([Fraction(1), Fraction(-2), Fraction(3)])  # 1 - 2t + 3t^2
    with mp.workdps(30):
        value = p(mpf("0.5"))
        assert isinstance(value, mpf)
        assert value == mpf("0.75")
        assert isinstance(UniPoly.zero()(mpf(2)), mpf)


# Hash contract: values that compare equal hash equal, so set and dict
# lookups find them from either side.
def _equal_pairs():
    x = LieCombo.generator("X")
    half = Fraction(1, 2)
    return [
        (UniPoly.constant(3), 3),
        (UniPoly.constant(3), Fraction(3)),
        (UniPoly.constant(half), half),
        (UniPoly([half, 0, 0]), half),
        (UniPoly.zero(), 0),
        (UniPoly.zero(), Fraction(0)),
        (UniPoly.one(), 1),
        (UniPoly.one(), True),
        (UniPoly([1, 2]) * UniPoly([1, -2]), UniPoly([1, 0, -4])),
        (UniPoly.monomial(half, 2), UniPoly([0, 0, half])),
        (x.scale(half) + x.scale(half), x),
        (LieCombo({("X", "Y"): half}), LieCombo({("X", "Y"): "2/4"})),
        (AssocPoly.word("XY", half) + AssocPoly.word("XY", half),
         AssocPoly.word("XY")),
        (AssocPoly.unit(), AssocPoly({(): Fraction(2, 2)})),
    ]


@pytest.mark.parametrize("a, b", _equal_pairs())
def test_equal_values_hash_equal_and_find_each_other_in_sets(a, b):
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert b in {a} and a in {b}
    assert {a: "found"}[b] == "found" and {b: "found"}[a] == "found"


@pytest.mark.parametrize("a, b", [
    (UniPoly.monomial(3, 1), 3),
    (UniPoly([3, 1]), 3),
    (LieCombo.zero(), 0),
    (AssocPoly.zero(), 0),
    (AssocPoly.unit(), 1),
    (LieCombo.generator("X"), AssocPoly.word("X")),
])
def test_unequal_values_are_not_found_in_each_others_sets(a, b):
    assert a != b and b != a
    assert b not in {a} and a not in {b}


@given(rationals)
def test_a_constant_unipoly_hashes_like_its_rational(q):
    c = UniPoly.constant(q)
    assert c == q and hash(c) == hash(q)
    assert q in {c} and c in {q}
