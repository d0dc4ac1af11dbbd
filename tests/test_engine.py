from fractions import Fraction
from math import factorial

import pytest

from lie_split.engine import (_seed_rows, one_sided_terms,
                              oracle_symmetric_terms,
                              palindromic_product_series,
                              palindromic_products, standard_terms,
                              standard_terms_left, symmetric_terms)
from lie_split.freelie import (AssocPoly, FreeLieModule, LieCombo, bracket,
                               expand_assoc, expands_equal)
from lie_split.series import AssocPolyAlgebra, ListStack, exp_factor

X = LieCombo.generator("X")
Y = LieCombo.generator("Y")
MOD = FreeLieModule()


def assoc_pair():
    return AssocPoly.word(("X",)), AssocPoly.word(("Y",))


def golden_c3():
    xy = bracket(X, Y)
    return (bracket(X, xy).scale(Fraction(1, 48))
            + bracket(Y, xy).scale(Fraction(1, 24)))


def golden_c5():
    xy = bracket(X, Y)
    xxy = bracket(X, xy)
    yxy = bracket(Y, xy)
    return (bracket(X, bracket(X, xxy)).scale(Fraction(1, 3840))
            + bracket(Y, bracket(X, xxy)).scale(Fraction(1, 960))
            + bracket(Y, bracket(Y, xxy)).scale(Fraction(1, 640))
            + bracket(Y, bracket(Y, yxy)).scale(Fraction(1, 960))
            + bracket(xy, xxy).scale(Fraction(-1, 960))
            + bracket(xy, yxy).scale(Fraction(-1, 480)))


def test_symmetric_terms_rejects_bad_degree():
    for bad in (1, 2, 4, 8):
        with pytest.raises(ValueError):
            symmetric_terms(MOD, X, Y, bad)


def test_symmetric_terms_only_odd_keys():
    table = symmetric_terms(MOD, X, Y, 9)
    assert sorted(table) == [3, 5, 7, 9]


def test_degree_three_matches_golden_syntactically():
    table = symmetric_terms(MOD, X, Y, 3)
    assert table[3] == golden_c3()


def test_degree_five_matches_golden_after_expansion():
    table = symmetric_terms(MOD, X, Y, 5)
    assert expands_equal(table[5], golden_c5())


def test_each_term_is_homogeneous():
    from lie_split.freelie import tree_degree
    table = symmetric_terms(MOD, X, Y, 9)
    for k, combo in table.items():
        for tree, _ in combo.sorted_terms():
            assert tree_degree(tree) == k


def exchange_letters(poly):
    swap = {"X": "Y", "Y": "X"}
    return AssocPoly({tuple(swap[a] for a in w): c
                      for w, c in poly.terms.items()})


def test_swapped_variant_is_letter_exchange():
    # the mirrored splitting, opening with exp(hY/2), is the recursion with
    # the roles of x and y swapped; its terms are the plain ones with the
    # letters X and Y exchanged
    plain = symmetric_terms(MOD, X, Y, 7)
    swapped = symmetric_terms(MOD, Y, X, 7)
    for k in plain:
        assert exchange_letters(expand_assoc(plain[k])) == \
            expand_assoc(swapped[k])


def symmetric_rows_inside_sum(mod, x, y, max_degree):
    """The recursion with the l = k-1 correction applied inside the j-sum,
    so ad powers do hit the correction term.  Mathematically identical to
    engine.symmetric_terms because ad_{C_k}(C_k) = 0; syntactically it may
    carry extra canceling trees.  Returns (terms, final left row, final
    right row)."""
    top = max_degree - 1
    row_l, row_r = _seed_rows(mod, ListStack(mod), x, y, top)
    terms = {3: mod.scale(Fraction(1, 6), mod.sub(row_l[2], row_r[2]))}
    k = 3
    while k + 2 <= max_degree:
        ck = terms[k]

        def step(row, sign):
            corrected = list(row)
            if k - 1 <= top:
                corrected[k - 1] = mod.add(
                    corrected[k - 1], mod.scale(Fraction(sign * k), ck)
                )
            new = [mod.zero() for _ in range(top + 1)]
            for m in range(top + 1):
                acc = corrected[m]
                j = 0
                while m + k * j <= top:
                    if j > 0:
                        acc = mod.bracket(ck, acc)
                    c = Fraction(sign ** j, factorial(j))
                    new[m + k * j] = mod.add(new[m + k * j], mod.scale(c, acc))
                    j += 1
            return new

        row_l = step(row_l, -1)
        row_r = step(row_r, +1)
        terms[k + 2] = mod.scale(
            Fraction(1, 2 * (k + 2)), mod.sub(row_l[k + 1], row_r[k + 1])
        )
        k += 2
    return terms, row_l, row_r


def test_inside_sum_rows_agree_after_expansion_only():
    direct = symmetric_terms(MOD, X, Y, 9)
    inside, _, _ = symmetric_rows_inside_sum(MOD, X, Y, 9)
    for k in direct:
        assert expands_equal(direct[k], inside[k])
    # the raw tree collections differ at the top degree, equality is a
    # property of the expanded value, not of the printed form
    assert direct[9] != inside[9]


def test_oracle_matches_generated_terms_through_degree_nine():
    alg = AssocPolyAlgebra()
    ax, ay = assoc_pair()
    oracle = oracle_symmetric_terms(alg, ax, ay, 9)
    table = symmetric_terms(MOD, X, Y, 9)
    for k in (3, 5, 7, 9):
        assert oracle[k] == expand_assoc(table[k])


def test_oracle_even_orders_vanish():
    alg = AssocPolyAlgebra()
    ax, ay = assoc_pair()
    oracle = oracle_symmetric_terms(alg, ax, ay, 8)
    for k in (2, 4, 6, 8):
        assert alg.is_zero(oracle[k])


def test_standard_terms_first_three_goldens():
    alg = AssocPolyAlgebra()
    ax, ay = assoc_pair()
    std = standard_terms(alg, ax, ay, 4)
    xy = bracket(X, Y)
    assert std[2] == expand_assoc(xy.scale(Fraction(-1, 2)))
    assert std[3] == expand_assoc(bracket(Y, xy).scale(Fraction(1, 3))
                                  + bracket(X, xy).scale(Fraction(1, 6)))
    xxy = bracket(X, xy)
    c4 = (bracket(X, xxy).scale(Fraction(-1, 24))
          + bracket(Y, xxy).scale(Fraction(-1, 8))
          + bracket(Y, bracket(Y, xy)).scale(Fraction(-1, 8)))
    assert std[4] == expand_assoc(c4)


def test_one_sided_terms_rejects_bad_degree():
    with pytest.raises(ValueError):
        one_sided_terms(MOD, X, Y, 1)


def test_one_sided_terms_equal_the_series_peel_through_degree_nine():
    # the recursion gives Lie elements, the peel associative polynomials
    peel = standard_terms(AssocPolyAlgebra(), *assoc_pair(), 9)
    terms = one_sided_terms(MOD, X, Y, 9)
    assert sorted(terms) == list(range(2, 10))
    for k in range(2, 10):
        assert expand_assoc(terms[k]) == peel[k], k


@pytest.mark.parametrize("dim,degree", [(5, 25), (20, 31)])
def test_one_sided_terms_match_the_series_peel_in_double(dim, degree):
    import numpy as np
    from lie_split.matrices import MatrixAlgebra, NumpyKit, random_matrix
    x = random_matrix(dim, 1.0, 31)
    y = random_matrix(dim, 1.0, 32)
    mod = MatrixAlgebra(NumpyKit(), dim)
    terms = one_sided_terms(mod, x, y, degree)
    peel = standard_terms(mod, x, y, degree)
    assert sorted(terms) == sorted(peel)
    for k in peel:
        err = np.linalg.norm(terms[k] - peel[k]) / np.linalg.norm(peel[k])
        assert err <= 1e-12, (k, err)


def test_left_variant_alternates_signs():
    alg = AssocPolyAlgebra()
    ax, ay = assoc_pair()
    std = standard_terms(alg, ax, ay, 7)
    left = standard_terms_left(alg, ax, ay, 7)
    for i in range(2, 8):
        assert left[i] == std[i].scale(Fraction((-1) ** (i + 1)))


def test_palindromic_product_rebuilds_exponential():
    order = 7
    alg = AssocPolyAlgebra()
    ax, ay = assoc_pair()
    expanded = {k: expand_assoc(v)
                for k, v in symmetric_terms(MOD, X, Y, order).items()}
    prod = palindromic_product_series(alg, ax, ay, expanded, order)
    target = exp_factor(alg, alg.add(ax, ay), 1, order)
    for j in range(order + 1):
        assert prod.coefficient(j) == target.coefficient(j)


def test_palindromic_products_match_the_written_palindrome():
    # integer matrices: every product is exact, so the grouping of the two
    # halves cannot hide a wrong order
    import numpy as np
    from functools import reduce
    rng = np.random.default_rng(5)
    a, b, f3, f5 = (rng.integers(-2, 3, (3, 3)) for _ in range(4))
    assert (a @ b != b @ a).any() and (f3 @ f5 != f5 @ f3).any()
    got = {k: left @ right for k, left, right in
           palindromic_products(np.matmul, a, b, [3, 5],
                                               {3: f3, 5: f5}.get)}
    written = {1: [a, b, b, a], 3: [a, b, f3, f3, b, a],
               5: [a, b, f3, f5, f5, f3, b, a]}
    assert sorted(got) == [1, 3, 5]
    for k, word in written.items():
        assert np.array_equal(got[k], reduce(np.matmul, word))


def test_terms_work_on_matrix_module_too():
    import numpy as np
    from lie_split.matrices import MatrixAlgebra, NumpyKit, random_matrix
    kit = NumpyKit()
    x = random_matrix(4, 0.4, 11)
    y = random_matrix(4, 0.4, 12)
    table = symmetric_terms(MatrixAlgebra(kit, 4), x, y, 7)
    sym = expand_assoc(symmetric_terms(MOD, X, Y, 7)[7])
    direct = np.zeros((4, 4))
    for word, c in sym.terms.items():
        m = np.eye(4)
        for letter in word:
            m = m @ (x if letter == "X" else y)
        direct = direct + float(c) * m
    assert np.linalg.norm(table[7] - direct) <= 1e-12 * np.linalg.norm(direct)
