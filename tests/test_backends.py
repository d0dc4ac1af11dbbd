"""Differential tests: the stacked float64 recursion and series product
against the list-backed form of the same code, at 50 digits (MPKit), in
float64, and against the symbolic terms evaluated on matrices."""

from fractions import Fraction

import numpy as np
import pytest

from lie_split.engine import standard_terms, symmetric_terms
from lie_split.freelie import FreeLieModule, LieCombo, expand_assoc
from lie_split.matrices import (MPKit, MatrixAlgebra, NumpyKit, frechet_pair,
                                random_matrix)

DOUBLE = NumpyKit()
EXTENDED = MPKit(50)
REL = 1e-12


def as_float(a):
    return np.array(a.tolist(), dtype=float)


def worst_rel(reference, got):
    """Largest per-degree Frobenius distance over the reference's norm."""
    worst = 0.0
    for k, ref in reference.items():
        ref = as_float(ref) if not isinstance(ref, np.ndarray) else ref
        worst = max(worst, np.linalg.norm(got[k] - ref) / np.linalg.norm(ref))
    return worst


def list_backed(n):
    """float64 matrices on list stacks: the adapter without its array stack."""
    alg = MatrixAlgebra(DOUBLE, n)
    alg.stacks = None
    return alg


@pytest.fixture(scope="module")
def fig3_extended():
    """Terms of the fig3 pair (orientations as run_fig3 uses them) at 50
    digits, degree 121."""
    x, y = frechet_pair(EXTENDED, Fraction(1, 5))
    alg = MatrixAlgebra(EXTENDED, 2)
    return (symmetric_terms(alg, y, x, 121), standard_terms(alg, x, y, 121))


def test_array_stacks_only_for_float64():
    assert MatrixAlgebra(DOUBLE, 3).stacks is not None
    assert MatrixAlgebra(EXTENDED, 3).stacks is None


def test_stacked_terms_match_extended_on_fig3_pair(fig3_extended):
    x, y = frechet_pair(DOUBLE, Fraction(1, 5))
    got = symmetric_terms(MatrixAlgebra(DOUBLE, 2), y, x, 121)
    assert sorted(got) == sorted(fig3_extended[0])
    assert worst_rel(fig3_extended[0], got) <= REL


def test_stacked_standard_terms_match_extended_on_fig3_pair(fig3_extended):
    x, y = frechet_pair(DOUBLE, Fraction(1, 5))
    got = standard_terms(MatrixAlgebra(DOUBLE, 2), x, y, 121)
    assert sorted(got) == sorted(fig3_extended[1])
    assert worst_rel(fig3_extended[1], got) <= REL


def test_stacked_terms_match_extended_on_random_pair():
    # a 20x20 pair to degree 51 takes minutes at 50 digits; 4x4 keeps the
    # depth, the 20x20 pair is compared with the float64 list form below
    x = random_matrix(4, 1.0, 401)
    y = random_matrix(4, 1.0, 402)
    ext = MatrixAlgebra(EXTENDED, 4)
    ex, ey = EXTENDED.from_numpy(x), EXTENDED.from_numpy(y)
    alg = MatrixAlgebra(DOUBLE, 4)
    assert worst_rel(symmetric_terms(ext, ex, ey, 51),
                     symmetric_terms(alg, x, y, 51)) <= REL
    assert worst_rel(standard_terms(ext, ex, ey, 51),
                     standard_terms(alg, x, y, 51)) <= REL


def test_stacked_terms_match_list_stacks_on_20x20_pair():
    x = random_matrix(20, 1.0, 201)
    y = random_matrix(20, 1.0, 202)
    stacked = MatrixAlgebra(DOUBLE, 20)
    listed = list_backed(20)
    assert worst_rel(symmetric_terms(listed, x, y, 51),
                     symmetric_terms(stacked, x, y, 51)) <= REL
    assert worst_rel(standard_terms(listed, x, y, 51),
                     standard_terms(stacked, x, y, 51)) <= REL


def test_symbolic_terms_evaluated_on_matrices_match_recursion():
    x = random_matrix(6, 0.8, 601)
    y = random_matrix(6, 0.8, 602)
    symbolic = symmetric_terms(FreeLieModule(), LieCombo.generator("X"),
                               LieCombo.generator("Y"), 9)
    numeric = symmetric_terms(MatrixAlgebra(DOUBLE, 6), x, y, 9)
    letters = {"X": x, "Y": y}
    for k in (3, 5, 7, 9):
        direct = np.zeros((6, 6))
        for word, c in expand_assoc(symbolic[k]).terms.items():
            m = np.eye(6)
            for letter in word:
                m = m @ letters[letter]
            direct += float(c) * m
        err = np.linalg.norm(numeric[k] - direct) / np.linalg.norm(direct)
        assert err <= REL, (k, err)
