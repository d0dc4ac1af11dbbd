from fractions import Fraction
from math import factorial

import pytest

from lie_split.freelie import AssocPoly
from lie_split.series import AssocPolyAlgebra, TruncSeries, exp_factor


def words():
    return AssocPoly.word(("X",)), AssocPoly.word(("Y",))


def exp_sum(algebra, elems_with_powers, order):
    """Product of exp factors, left to right."""
    series = TruncSeries.unit(algebra, order)
    for elem, power in elems_with_powers:
        series = series * exp_factor(algebra, elem, power, order)
    return series


def test_unit_and_zero_series():
    alg = AssocPolyAlgebra()
    one = TruncSeries.unit(alg, 4)
    zero = TruncSeries(alg, [], 4)
    assert one.coefficient(0) == alg.unit()
    assert alg.is_zero(one.coefficient(2))
    assert alg.is_zero(zero.coefficient(0))


def test_series_mul_truncates_at_order():
    alg = AssocPolyAlgebra()
    x, y = words()
    a = exp_factor(alg, x, 1, 3)
    b = exp_factor(alg, y, 1, 3)
    prod = a * b
    assert prod.order == 3
    # lambda^1 coefficient of e^{lx} e^{ly} is x + y
    assert prod.coefficient(1) == x + y


def test_series_mul_order_mismatch_raises():
    alg = AssocPolyAlgebra()
    x, y = words()
    with pytest.raises(ValueError):
        exp_factor(alg, x, 1, 3) * exp_factor(alg, y, 1, 4)


def test_exp_factor_coefficients_are_powers_over_factorials():
    alg = AssocPolyAlgebra()
    x, _ = words()
    s = exp_factor(alg, x, 1, 6)
    xx = x * x
    assert s.coefficient(2) == xx.scale(Fraction(1, 2))
    assert s.coefficient(3) == (xx * x).scale(Fraction(1, 6))


def test_exp_factor_with_higher_power_placement():
    alg = AssocPolyAlgebra()
    x, _ = words()
    # exp(l^3 x) has x at coefficient 3 and x^2/2 at coefficient 6
    s = exp_factor(alg, x, 3, 7)
    assert alg.is_zero(s.coefficient(1))
    assert alg.is_zero(s.coefficient(2))
    assert s.coefficient(3) == x
    assert s.coefficient(6) == (x * x).scale(Fraction(1, 2))


def test_exp_inverse_pair_multiplies_to_unit():
    alg = AssocPolyAlgebra()
    x, _ = words()
    s = exp_factor(alg, x, 1, 8)
    t = exp_factor(alg, x.scale(Fraction(-1)), 1, 8)
    prod = s * t
    assert prod.coefficient(0) == alg.unit()
    for j in range(1, 9):
        assert alg.is_zero(prod.coefficient(j))


def test_exp_sum_matches_product_of_commuting_factor():
    alg = AssocPolyAlgebra()
    x, y = words()
    order = 5
    combined = exp_sum(alg, [(x, 1), (y, 2)], order)
    # against direct expansion of exp(l x + l^2 y) via the factored form in
    # a case where the arguments commute with themselves only: compare the
    # pure-x and pure-y extremes instead
    only_x = exp_sum(alg, [(x, 1)], order)
    assert only_x.coefficient(4) == exp_factor(alg, x, 1, order).coefficient(4)
    assert combined.coefficient(1) == x
    # l^2 coefficient is y + x^2/2
    assert combined.coefficient(2) == alg.add(y, (x * x).scale(Fraction(1, 2)))


def test_exponential_of_sum_against_factorial_formula():
    alg = AssocPolyAlgebra()
    x, y = words()
    order = 6
    s = exp_factor(alg, alg.add(x, y), 1, order)
    for j in (2, 4):
        total = s.coefficient(j)
        for word, c in total.terms.items():
            assert len(word) == j
            assert c == Fraction(1, factorial(j))
