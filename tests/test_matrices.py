import cProfile
import math
import os
import pstats
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from lie_split import matrices
from lie_split.cli import main
from lie_split.engine import one_sided_terms, symmetric_terms
from lie_split.experiments import run_fig3
from lie_split.matrices import (GUARD_BITS, MPKit, MatrixAlgebra, NumpyKit,
                                _ArrayKit, _exp,
                                frechet_pair, kit_for, load_matrix_csv,
                                psi_standard, psi_symmetric, random_matrix,
                                save_matrix_csv, splitting_error,
                                standard_products, symmetric_products)

KITS = [NumpyKit(), MPKit()]


def test_kit_for_selects_backend():
    assert kit_for("double").name == NumpyKit().name
    assert kit_for("extended").name == MPKit().name
    with pytest.raises(ValueError):
        kit_for("quad")


@pytest.mark.parametrize("kit", KITS, ids=lambda k: k.name)
def test_kit_linear_algebra_contract(kit):
    a = kit.matrix([[1.0, 2.0], [3.0, 4.0]])
    b = kit.matrix([[0.0, 1.0], [1.0, 0.0]])
    assert kit.dim(a) == 2
    s = kit.add(a, b)
    d = kit.sub(s, b)
    assert kit.is_zero(kit.sub(d, a))
    half = kit.scale(Fraction(1, 2), kit.scale(2, a))
    assert kit.is_zero(kit.sub(half, a))
    prod = kit.matmul(a, kit.eye(2))
    assert kit.is_zero(kit.sub(prod, a))
    br = kit.bracket(a, b)
    manual = kit.sub(kit.matmul(a, b), kit.matmul(b, a))
    assert kit.is_zero(kit.sub(br, manual))


def as_numpy(kit, a):
    return np.array([[kit.to_float(v) for v in row] for row in a])


@pytest.mark.parametrize("kit", KITS, ids=lambda k: k.name)
def test_kit_expm_matches_scipy(kit):
    rng = np.random.default_rng(3)
    m = rng.uniform(-0.5, 0.5, (4, 4))
    e = as_numpy(kit, kit.expm(kit.from_numpy(m)))
    assert np.linalg.norm(e - scipy_expm(m)) < 1e-12


@pytest.mark.parametrize("rows", [[["inf", 0], [0, 1]], [["nan", 1], [0, 1]]],
                         ids=["inf", "nan"])
@pytest.mark.parametrize("kit", KITS, ids=lambda k: k.name)
def test_kit_expm_of_nonfinite_matrix_is_all_nan(kit, rows):
    # scipy's expm gives [[inf, 0], [0, e]] and [[nan, nan], [0, nan]]
    got = kit.expm(kit.matrix(rows))
    assert got.shape == (2, 2)
    assert all(math.isnan(kit.to_float(v)) for v in got.flat)


@pytest.mark.parametrize("kit", KITS, ids=lambda k: k.name)
def test_kit_from_numpy_takes_float64(kit):
    m = random_matrix(3, 0.7, 64)
    a = kit.from_numpy(m)
    assert kit.dim(a) == 3
    assert np.array_equal(as_numpy(kit, a), m)


@pytest.mark.parametrize("kit", KITS, ids=lambda k: k.name)
def test_kit_norms(kit):
    a = kit.matrix([[3.0, 0.0], [0.0, 4.0]])
    assert abs(float(kit.norm2(a)) - 4.0) < 1e-12
    assert abs(float(kit.frobenius(a)) - 5.0) < 1e-12


@pytest.mark.parametrize("kit", KITS, ids=lambda k: k.name)
def test_kit_finite(kit):
    assert kit.finite(kit.matrix([[1.0, 2.0], [3.0, 4.0]]))
    for bad in ("inf", "-inf", "nan"):
        assert not kit.finite(kit.matrix([[1.0, bad], [0.0, 1.0]]))


def test_extended_finite_takes_mpf_beyond_the_float_range():
    assert MPKit().finite(MPKit().matrix([["1e400", 0], [0, "-1e-400"]]))


def test_norm2_of_overflowed_matrix_is_inf():
    kit = NumpyKit()
    a = np.array([[np.inf, 0.0], [0.0, 1.0]])
    assert kit.norm2(a) == math.inf


def test_frobenius_of_huge_and_tiny_entries_stays_finite():
    kit = NumpyKit()
    for v in (1e160, 1e300, 1e-170):
        a = np.full((2, 2), v)
        assert kit.frobenius(a) == pytest.approx(2 * v, rel=1e-15)
        assert kit.norm2(a) == pytest.approx(2 * v, rel=1e-15)
    assert kit.frobenius(np.zeros((3, 3))) == 0.0
    assert kit.frobenius(np.array([[np.nan, 0.0], [0.0, 1.0]])) == math.inf


def test_terms_of_fig3_pair_stay_finite_at_degree_301():
    kit = NumpyKit()
    x, y = frechet_pair(kit, Fraction(1, 5))
    for a, b in ((x, y), (y, x)):
        terms = symmetric_terms(MatrixAlgebra(kit, 2), a, b, 301)
        assert sorted(terms) == list(range(3, 302, 2))
        assert all(np.all(np.isfinite(t)) for t in terms.values())


def test_random_matrix_is_seeded_and_scaled():
    a = random_matrix(20, 0.5, 0)
    b = random_matrix(20, 0.5, 0)
    c = random_matrix(20, 0.5, 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.linalg.norm(a, 2) - 0.5) < 1e-12


@pytest.mark.parametrize("target", [0.0, -1.0, math.inf, math.nan])
def test_random_matrix_rejects_target_norms_out_of_range(target):
    with pytest.raises(ValueError, match="positive and finite"):
        random_matrix(3, target, 0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_lambda_is_rejected(lam):
    kit = NumpyKit()
    x, y = random_matrix(3, 0.5, 0), random_matrix(3, 0.5, 1)
    for call in (lambda: psi_symmetric(kit, x, y, lam, 5),
                 lambda: psi_standard(kit, x, y, lam, 5),
                 lambda: splitting_error(kit, x, y, lam, np.eye(3))):
        with pytest.raises(ValueError, match="lambda must be finite"):
            call()


@pytest.mark.parametrize("alpha", [Fraction(1, 10 ** 400), Fraction(10 ** 400),
                                   Fraction(1, 10 ** 310)])
def test_frechet_pair_rejects_alpha_outside_the_double_range(alpha):
    """1e-400 rounds to 0.0 (division by zero), 1e400 overflows the float
    conversion and 1e-310 leaves an infinite entry 1/alpha."""
    with pytest.raises(ValueError, match="outside the double range"):
        frechet_pair(NumpyKit(), alpha)
    x, y = frechet_pair(MPKit(), alpha)
    assert MPKit().finite(x) and MPKit().finite(y)


def test_frechet_pair_identities():
    kit = NumpyKit()
    x, y = frechet_pair(kit, 0.2)
    minus_eye = -np.eye(2)
    assert np.linalg.norm(kit.expm(x) - minus_eye) < 1e-12
    assert np.linalg.norm(kit.expm(y) - np.eye(2)) < 1e-10
    full = kit.expm(kit.add(x, y))
    assert np.linalg.norm(full - minus_eye) < 1e-9
    prod = kit.matmul(kit.expm(x), kit.expm(y))
    assert np.linalg.norm(full - prod) / np.linalg.norm(full) < 1e-9


def test_frechet_pair_norm_values():
    kit = NumpyKit()
    x, y = frechet_pair(kit, 0.2)
    assert abs(kit.frobenius(x) - 15.7205) < 1e-3
    assert abs(kit.frobenius(y) - 12.8379) < 1e-3
    assert abs(kit.norm2(x) - 5 * math.pi) < 1e-10


def test_frechet_pair_rejects_zero_alpha():
    with pytest.raises(ValueError):
        frechet_pair(NumpyKit(), 0)


def test_psi_symmetric_even_n_equals_preceding_odd():
    kit = NumpyKit()
    x = random_matrix(5, 0.4, 21)
    y = random_matrix(5, 0.4, 22)
    p7 = psi_symmetric(kit, x, y, 1.0, 7)
    p8 = psi_symmetric(kit, x, y, 1.0, 8)
    assert np.array_equal(p7, p8)


def test_psi_validation():
    kit = NumpyKit()
    x = random_matrix(3, 0.3, 5)
    with pytest.raises(ValueError):
        psi_symmetric(kit, x, x, 1.0, 1)
    with pytest.raises(ValueError):
        psi_standard(kit, x, random_matrix(4, 0.3, 6), 1.0, 5)


def test_psi_accuracy_improves_with_degree():
    kit = NumpyKit()
    x = random_matrix(6, 0.4, 31)
    y = random_matrix(6, 0.4, 32)
    errs = [splitting_error(kit, x, y, 1.0, psi_symmetric(kit, x, y, 1.0, n))
            for n in (3, 5, 9)]
    assert errs[0] > errs[1] > errs[2]


def test_psi_on_commuting_pair_sits_at_precision_floor():
    kit = NumpyKit()
    x = np.diag([0.3, -0.2, 0.1, 0.4])
    y = np.diag([0.1, 0.5, -0.3, 0.2])
    for n in (2, 5, 9):
        assert splitting_error(kit, x, y, 1.0, psi_symmetric(kit, x, y, 1.0, n)) < 1e-14
        assert splitting_error(kit, x, y, 1.0, psi_standard(kit, x, y, 1.0, n)) < 1e-14


def test_splitting_error_norm_choices():
    kit = NumpyKit()
    x = random_matrix(3, 0.2, 51)
    y = random_matrix(3, 0.2, 52)
    approx = psi_symmetric(kit, x, y, 1.0, 5)
    spec = splitting_error(kit, x, y, 1.0, approx)
    fro = splitting_error(kit, x, y, 1.0, approx, norm="frobenius")
    assert spec <= fro + 1e-18
    with pytest.raises(ValueError):
        splitting_error(kit, x, y, 1.0, approx, norm="nuclear")


# ---------------------------------------------------------------------------
# Products of an overflowed half skip their later exponentials

def test_default_double_fig3_skips_factors_of_overflowed_products(
        monkeypatch, tmp_path, capsys):
    calls = []
    expm = NumpyKit.expm
    monkeypatch.setattr(NumpyKit, "expm",
                        lambda kit, a: calls.append(a) or expm(kit, a))
    assert main(["fig3", "--out", str(tmp_path / "fig3.csv")]) == 0
    capsys.readouterr()
    # without the skip: 21 lambdas x (1 + 2 + 100 + 2 + 200) = 6,405
    assert len(calls) == 934


def overflowing_fig3_terms():
    """The fig3 pair at lambda = 1 with its exponents through degree 201:
    both products overflow well before degree 201."""
    kit = NumpyKit()
    x, y = frechet_pair(kit, Fraction(1, 5))
    mod = MatrixAlgebra(kit, 2)
    return (kit, x, y, symmetric_terms(mod, y, x, 201),
            one_sided_terms(mod, x, y, 201))


def test_skipped_products_stay_nonfinite_with_the_same_norms():
    kit, x, y, sym, std = overflowing_fig3_terms()
    runs = {skip: ([(k, kit.matmul(left, right)) for k, left, right
                    in symmetric_products(kit, y, x, sym,
                                          skip_overflowed=skip)],
                   list(standard_products(kit, x, y, std,
                                          skip_overflowed=skip)))
            for skip in (True, False)}
    for skipped, full in zip(runs[True], runs[False]):
        assert [k for k, _ in skipped] == [k for k, _ in full]
        first = next(i for i, (_, p) in enumerate(full) if not kit.finite(p))
        assert first < len(full) - 50
        for i, ((_, p), (_, q)) in enumerate(zip(skipped, full)):
            if i < first:
                assert np.array_equal(p, q)
            else:
                assert not kit.finite(p) and not kit.finite(q)
                assert kit.frobenius(p) == kit.norm2(p) == math.inf
        # the skip changes the matrix, so psi_* must not take it
        assert not np.array_equal(skipped[-1][1], full[-1][1], equal_nan=True)


def test_psi_returns_the_whole_product_of_a_diverging_pair():
    kit, x, y, sym, std = overflowing_fig3_terms()
    for _, left, right in symmetric_products(kit, y, x, sym,
                                             skip_overflowed=False):
        pass
    assert np.array_equal(psi_symmetric(kit, y, x, 1.0, 201),
                          kit.matmul(left, right), equal_nan=True)
    prod = kit.matmul(kit.expm(x), kit.expm(y))
    for k in sorted(std):
        prod = kit.matmul(prod, kit.expm(std[k]))
    assert np.array_equal(psi_standard(kit, x, y, 1.0, 201), prod,
                          equal_nan=True)


def test_matrix_csv_round_trip(tmp_path):
    a = random_matrix(5, 1.3, 61)
    path = tmp_path / "m.csv"
    save_matrix_csv(path, a)
    back = load_matrix_csv(path)
    assert np.array_equal(a, back)


def test_matrix_csv_round_trip_extended(tmp_path):
    kit = MPKit()
    a = kit.from_numpy(random_matrix(3, 0.7, 62))
    path = tmp_path / "mp.csv"
    save_matrix_csv(path, a)
    back = load_matrix_csv(path)
    assert np.linalg.norm(back - as_numpy(kit, a)) < 1e-15


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_load_matrix_csv_rejects_non_finite_entries(tmp_path, bad):
    path = tmp_path / "m.csv"
    path.write_text(f"1.0,{bad}\n0.0,1.0\n")
    with pytest.raises(ValueError, match="m.csv.*non-finite"):
        load_matrix_csv(path)


def significant_digits(field):
    mantissa = field.lower().split("e")[0].lstrip("+-").replace(".", "")
    return len(mantissa.lstrip("0"))


def test_matrix_csv_keeps_extended_digits(tmp_path):
    kit = MPKit()
    a = kit.expm(kit.from_numpy(random_matrix(3, 0.7, 63)))
    assert a.dtype == object
    path = tmp_path / "mp.csv"
    save_matrix_csv(path, a)
    fields = path.read_text().replace("\n", ",").strip(",").split(",")
    assert len(fields) == 9
    assert all(significant_digits(f) > 17 for f in fields), fields
    back = load_matrix_csv(path)
    assert np.linalg.norm(back - as_numpy(kit, a)) < 1e-15


def test_eval_matrix_out_keeps_extended_digits(tmp_path, capsys):
    out = tmp_path / "approx.csv"
    assert main(["eval-matrix", "--random", "3", "--max-degree", "5",
                 "--precision", "extended", "--out", str(out)]) == 0
    capsys.readouterr()
    fields = out.read_text().replace("\n", ",").strip(",").split(",")
    assert len(fields) == 9
    assert all(significant_digits(f) > 17 for f in fields), fields
    assert load_matrix_csv(out).shape == (3, 3)


def test_matrix_module_and_series_algebra_contracts():
    kit = NumpyKit()
    mod = alg = MatrixAlgebra(kit, 3)
    z = mod.zero()
    assert mod.is_zero(z)
    assert np.array_equal(alg.unit(), np.eye(3))
    a = random_matrix(3, 0.5, 71)
    assert np.array_equal(mod.add(a, z), a)
    assert np.array_equal(alg.mul(alg.unit(), a), a)


# ---------------------------------------------------------------------------
# NumpyKit.expm: scaling and squaring in numpy (Python floats for a full
# 2 x 2); MPKit(50) is the reference and scipy's expm the accuracy to keep

def one_norm(a):
    return float(np.abs(a).sum(axis=0).max())


def double_expm_cases():
    """(label, A) for n in 1, 2, 5, 20, 50: random matrices at 1-norms
    1e-8 ... 1e4 (skew-symmetric from 1e3 on, so that e^A stays finite),
    and diagonal, upper and lower triangular, nilpotent and zero ones."""
    rng = np.random.default_rng(2024)
    cases = [("zero n=5", np.zeros((5, 5)))]
    for n in (1, 2, 5, 20, 50):
        norms = (1e-8, 1e-4, 1e-2, 0.3, 1.0, 5.0, 30.0, 300.0, 1e3, 1e4)
        if n == 1:
            norms = norms[:-2]
        if n == 50:  # 50-digit references of 50 x 50 take about 1 s each
            norms = (1e-8, 1.0, 1e4)
        for norm in norms:
            a = rng.uniform(-1, 1, (n, n))
            kinds = {"random": a - a.T if norm >= 1e3 else a}
            if n > 1 and norm in (1e-4, 1.0, 30.0):
                up = np.triu(rng.uniform(-1, 1, (n, n)))
                kinds.update(diagonal=np.diag(up.diagonal()), upper=up,
                             lower=up.T.copy(), nilpotent=np.triu(up, 1))
            cases += [(f"{kind} n={n} norm={norm:g}", b * (norm / one_norm(b)))
                      for kind, b in kinds.items()]
    return cases


def largest_entry_error(got, ref):
    """max |got - ref| / max |ref|, at 50 digits."""
    with mp.workdps(50):
        peak = max(abs(v) for v in ref.flat)
        err = max(abs(mp.mpf(float(g)) - r) for g, r in zip(got.flat, ref.flat))
        return float(err / peak) if peak else float(err)


def test_double_expm_matches_50_digits_as_well_as_scipy():
    eps = np.finfo(float).eps
    bands = {}
    for label, a in double_expm_cases():
        ref = EXT.expm(EXT.from_numpy(a))
        ours = largest_entry_error(NumpyKit().expm(a), ref)
        theirs = largest_entry_error(scipy_expm(a), ref)
        norm = one_norm(a)
        assert ours <= 10 * eps * max(1.0, norm), (label, ours, theirs)
        band = sum(norm >= edge for edge in (1e-3, 5.4, 700))
        bands.setdefault(band, []).append((ours, theirs))
    # in every band of 1-norms the largest error is no larger than scipy's
    assert sorted(bands) == [0, 1, 2, 3]
    for band, errs in bands.items():
        ours, theirs = zip(*errs)
        assert max(ours) <= max(max(theirs), eps), (band, max(ours), max(theirs))


@pytest.mark.parametrize("norm", [1e-4, 1.0, 30.0])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_double_expm_of_triangular_matrix_keeps_exact_diagonals(n, norm):
    # Code Fragment 2.1: the diagonal is exp of A's, the first off-diagonal
    # the divided difference of exp, also for two diagonal entries 1e-9
    # apart, where (e^x - e^y) / (x - y) would lose half the digits
    rng = np.random.default_rng(n)
    up = np.triu(rng.uniform(-1, 1, (n, n)))
    up[1, 1] = up[0, 0] * (1 + 1e-9)
    up *= norm / one_norm(up)
    for a, side in ((up, 1), (up.T.copy(), -1)):
        got = NumpyKit().expm(a)
        assert np.array_equal(got.diagonal(), np.exp(a.diagonal()))
        ref = np.array(as_numpy(EXT, EXT.expm(EXT.from_numpy(a))))
        err = np.abs(got.diagonal(side) - ref.diagonal(side)).max()
        assert err <= 8 * np.finfo(float).eps * np.abs(ref).max(), (side, err)


@pytest.mark.parametrize("norm", [1e-6, 0.1, 1.0, 3.0, 50.0, 600.0])
def test_double_expm_of_2x2_floats_matches_the_array_path(norm):
    rng = np.random.default_rng(int(norm * 1000))
    for _ in range(20):
        a = rng.uniform(-1, 1, (2, 2))
        a *= norm / one_norm(a)
        fast = NumpyKit().expm(a)
        with np.errstate(all="ignore"):
            slow = matrices._expm_array(a)
        # both err by a few eps ||A|| (see the test above), not alike
        tol = 20 * np.finfo(float).eps * max(1.0, norm)
        assert np.abs(fast - slow).max() <= tol * np.abs(slow).max()


# ---------------------------------------------------------------------------
# MPKit.expm: closed form for finite 2 x 2 input, scaling and squaring on
# integer mantissas for any other finite input; mp.expm is the reference

EXT = MPKit(50)


def mp_expm(a):
    with mp.workdps(50):
        return np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=object)


def no_mp_expm(*_):
    raise AssertionError("mp.expm called")


def assert_matches_mp_expm(a, got):
    """got agrees with mp.expm(a) to 1e-45 relative to its largest entry;
    beyond 1e300, also the log10 of that entry to 1e-45 relative."""
    ref = mp_expm(a)
    with mp.workdps(50):
        assert all(mp.isfinite(v) and +v == v for v in got.flat)
        peak = max(abs(v) for v in ref.flat)
        err = max(abs(g - r) for g, r in zip(got.flat, ref.flat))
        assert err <= mp.mpf("1e-45") * peak, (err, peak)
        if peak > mp.mpf("1e300"):
            top = max(abs(v) for v in got.flat)
            drift = abs(mp.log10(top) - mp.log10(peak))
            assert drift <= mp.mpf("1e-45") * abs(mp.log10(peak))


@pytest.mark.parametrize("rows", [
    [[1, 2], [3, 4]],                  # d^2 > 0
    [[-30, 7], [5, 12]],               # d^2 > 0, e^A far from 1
    [[0, -2.5], [2.5, 0]],             # d^2 < 0: rotation generator
    [[0.5, -3], [1, -0.25]],           # d^2 < 0
    [[0, 1], [0, 0]],                  # d^2 = 0: nilpotent
    [[2.5, 0], [0, 2.5]],              # d^2 = 0: multiple of I
    [[0, 1], ["1e-60", 0]],            # d^2 = 1e-60
    [[1, 1], ["-1e-60", 1]],           # d^2 = -1e-60
    [["1e30", "-1e30"], ["1e30", "-1e30"]],   # d^2 = 0, huge entries
    [[1, 1], ["-0." + "9" * 39 + "9", -1]],   # d = 1e-20 << h, qr < 0
    [[40, 3], [-2, -1]],               # d > 1, h > 0, qr < 0
    [[-1, 3], [2, 40]],                # d > 1, h < 0, qr > 0
], ids=lambda rows: str(rows))
def test_extended_expm_closed_form_matches_mp_expm(monkeypatch, rows):
    a = EXT.matrix(rows)
    monkeypatch.setattr(mp, "expm", no_mp_expm)
    got = EXT.expm(a)
    monkeypatch.undo()
    assert_matches_mp_expm(a, got)


def test_extended_expm_closed_form_on_fig3_exponents_at_degree_201(
        monkeypatch):
    # lambda = 0.5, n = 201: these exponents have entries near 1e97, so
    # h^2 + qr loses about 190 digits; ten guard digits miss by O(1) here
    seen = []
    expm = MPKit.expm
    monkeypatch.setattr(MPKit, "expm",
                        lambda kit, a: seen.append(a) or expm(kit, a))
    run_fig3(lam_grid=(0.5,), n_list=(201,), precision="extended",
             include_standard=False)
    monkeypatch.undo()
    # seen: the reference, two half-steps, then exp(C_3) ... exp(C_201)
    assert len(seen) == 3 + 100
    with mp.workdps(50):
        for k in (145, 185, 197, 199, 201):
            a = seen[3 + (k - 3) // 2]
            assert max(abs(v) for v in a.flat) > mp.mpf("1e70")
            assert_matches_mp_expm(a, EXT.expm(a))


def test_extended_expm_of_integer_valued_arguments_matches_mpmath():
    # above about 600 bits mpmath powers e by an integer-valued argument;
    # the routed exp, cosh and sinh must still be mpmath's values
    with mp.workdps(250):
        for x in (mp.floor(mp.mpf("1.2e90")), mp.mpf(10) ** 70 + 1,
                  mp.mpf(2) ** 700, mp.mpf(7), mp.mpf(1)):
            for v in (x, -x):
                assert abs(_exp(v) - mp.exp(v)) <= 2 * mp.eps * mp.exp(v)
        assert _exp(mp.mpf(0)) == 1
    for x in ("1e90", "1e70", "7", "1"):
        with mp.workdps(50):
            d = mp.floor(mp.mpf(x))
        hyperbolic = EXT.expm(EXT.matrix([[0, d], [d, 0]]))
        scalar = EXT.expm(EXT.matrix([[d, 0], [0, d]]))
        with mp.workdps(60):
            cosh, sinh, exp = mp.cosh(d), mp.sinh(d), mp.exp(d)
        with mp.workdps(50):
            assert scalar[0, 1] == scalar[1, 0] == 0
            for got, want in ((hyperbolic[0, 0], cosh),
                              (hyperbolic[1, 1], cosh),
                              (hyperbolic[0, 1], sinh),
                              (hyperbolic[1, 0], sinh),
                              (scalar[0, 0], exp), (scalar[1, 1], exp)):
                assert abs(got - want) <= mp.mpf("1e-45") * want, (x, got)


def test_extended_expm_of_integer_valued_m_and_d_skips_integer_powering():
    with mp.workdps(50):
        p, s = mp.floor(mp.mpf("3e90")), mp.floor(mp.mpf("1e90"))
    a = EXT.matrix([[p, 0], [0, s]])  # m = 2e90, d = 1e90
    profile = cProfile.Profile()
    got = profile.runcall(EXT.expm, a)
    calls = pstats.Stats(profile).stats
    assert not [f for f in calls if f[2] == "mpf_pow_int"]
    with mp.workdps(60):
        want = mp.exp(p), mp.exp(s)
    with mp.workdps(50):
        assert got[0, 1] == got[1, 0] == 0
        for got_v, want_v in zip((got[0, 0], got[1, 1]), want):
            assert abs(got_v - want_v) <= mp.mpf("1e-45") * want_v


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_extended_expm_of_nonfinite_matrix_is_nan(monkeypatch, bad):
    # mp.expm patched to fail: mpmath 1.3.0's expm loops on a nan entry
    monkeypatch.setattr(mp, "expm", no_mp_expm)
    for rows in ([[bad, 1], [0, 0]], [[0, 1, 0], [0, 0, 1], [0, 0, bad]]):
        a = EXT.matrix(rows)
        got = EXT.expm(a)
        assert got.shape == a.shape and got.dtype == object
        assert all(mp.isnan(v) for v in got.flat)


def test_extended_psi_symmetric_returns_on_a_nan_entry():
    # in a child interpreter, so that a hang fails the test, not the suite
    code = ("import mpmath as mp; "
            "from lie_split.matrices import MPKit, psi_symmetric; "
            "kit = MPKit(); x = kit.matrix([['nan', 1], [0, 0]]); "
            "got = psi_symmetric(kit, x, kit.eye(2), 0.5, 5); "
            "assert all(mp.isnan(v) for v in got.flat), got")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("norm", [1e-40, 1e-8, 1.0, 300.0])
@pytest.mark.parametrize("n", [1, 3, 4, 6, 10])
def test_extended_expm_beyond_2x2_matches_mp_expm(monkeypatch, n, norm):
    a = EXT.from_numpy(random_matrix(n, norm, 90 + n))
    monkeypatch.setattr(mp, "expm", no_mp_expm)
    got = EXT.expm(a)
    monkeypatch.undo()
    assert_matches_mp_expm(a, got)


@pytest.mark.parametrize("rows", [
    [[0] * 3] * 3,
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
], ids=["zero", "nilpotent"])
def test_extended_expm_beyond_2x2_on_zero_and_nilpotent(monkeypatch, rows):
    a = EXT.matrix(rows)
    monkeypatch.setattr(mp, "expm", no_mp_expm)
    got = EXT.expm(a)
    monkeypatch.undo()
    assert_matches_mp_expm(a, got)


HUGE_3X3 = [["1e30", "-2e30", "3e29"], ["5e29", "1e30", "-1e30"],
            ["2e30", "1e29", "-7e29"]]


def test_extended_expm_of_large_norms_returns_promptly():
    # e^A is about 2**(1.4e8) at norm 1e8 and beyond 2**(1e30) for HUGE_3X3:
    # unless each squaring shifts its integers back, they grow that wide;
    # in a child interpreter, so that a stall fails the test, not the suite
    code = (
        "import mpmath as mp\n"
        "from lie_split.matrices import random_matrix\n"
        "from test_matrices import (EXT, HUGE_3X3, assert_matches_mp_expm,\n"
        "                           no_mp_expm)\n"
        "cases = [EXT.matrix(HUGE_3X3)] + [\n"
        "    EXT.from_numpy(random_matrix(6, v, 83)) for v in (1e4, 1e8)]\n"
        "for a in cases:\n"
        "    expm, mp.expm = mp.expm, no_mp_expm\n"
        "    got = EXT.expm(a)\n"
        "    mp.expm = expm\n"
        "    assert_matches_mp_expm(a, got)\n")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("n, seed", [(3, 81), (6, 82)])
def test_extended_expm_beyond_2x2_is_mp_expm(n, seed):
    a = EXT.from_numpy(random_matrix(n, 2.0, seed))
    assert EXT.expm(a).tolist() == mp_expm(a).tolist()


# ---------------------------------------------------------------------------
# MPKit.matmul and bracket: integer mantissas beyond 2 x 2, the mpf arrays
# of _ArrayKit otherwise; exact Fraction products are the reference

def mixed_magnitudes(n, seed):
    """An n x n matrix at 50 digits with full mantissas, its elements'
    magnitudes spread from 1e-30 to 1e30, and a zero element."""
    rng = np.random.default_rng(seed)
    with mp.workdps(50):
        a = np.array([[mp.pi * rng.uniform(-1, 1)
                       * mp.mpf(10) ** int(rng.integers(-30, 31))
                       for _ in range(n)] for _ in range(n)], dtype=object)
    a[n - 1, 0] = EXT.scalar(0)
    return a


def exact(v):
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def exact_products(a, b):
    fa, fb = (np.array([[exact(v) for v in row] for row in m], dtype=object)
              for m in (a, b))
    return {"matmul": fa @ fb, "bracket": fa @ fb - fb @ fa}


def raw_bits(a):
    return [v._mpf_ for v in a.flat]


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_extended_products_beyond_2x2_match_exact_fractions(n):
    # each operand is written onto its grid (error below 2**(1 - bits) of
    # its largest element), multiplied exactly, floored once onto the grid
    # of the largest result and read to nearest at the kit's digits
    a, b = mixed_magnitudes(n, 900 + n), mixed_magnitudes(n, 950 + n)
    peak = max(abs(exact(v)) for v in a.flat) * max(abs(exact(v))
                                                    for v in b.flat)
    unit, prec = Fraction(2) ** (1 - EXT.bits), EXT.bits - GUARD_BITS
    for name, want in exact_products(a, b).items():
        got = getattr(EXT, name)(a, b)
        terms = 2 * n if name == "matmul" else 4 * n
        grid = unit * (terms * peak + max(abs(w) for w in want.flat))
        for g, w in zip(got.flat, want.flat):
            assert abs(exact(g) - w) <= grid + abs(w) / 2 ** prec, (name, g)
        with mp.workdps(50):  # read at the kit's digits
            assert all(+v == v for v in got.flat)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("special", ["zero", "nan", "inf"])
def test_extended_products_of_zero_and_nonfinite_operands(n, special):
    a, b = mixed_magnitudes(n, 1000 + n), mixed_magnitudes(n, 1050 + n)
    if special == "zero":
        a = EXT.zeros(n, n)
    else:
        a[1, 2] = EXT.scalar(special)
    for name in ("matmul", "bracket"):
        got = getattr(EXT, name)(a, b)
        # the mpf arrays' products: zeros are exact, and non-finite
        # operands keep their inf and nan pattern
        assert raw_bits(got) == raw_bits(getattr(_ArrayKit, name)(EXT, a, b))
        if special == "zero":
            assert not any(got.flat)


@pytest.mark.parametrize("n", [1, 2])
def test_extended_products_up_to_2x2_stay_on_mpf_arrays(n):
    a, b = mixed_magnitudes(n, 1100 + n), mixed_magnitudes(n, 1150 + n)
    for name in ("matmul", "bracket"):
        assert raw_bits(getattr(EXT, name)(a, b)) == \
            raw_bits(getattr(_ArrayKit, name)(EXT, a, b))


class ForeignInt:
    """An integer type that is not int, as gmpy2's mpz is when mpmath
    runs on gmpy2: int.bit_length does not take it."""

    def __init__(self, v):
        self.v = v

    def __bool__(self):
        return bool(self.v)

    def __int__(self):
        return self.v

    def __lshift__(self, k):
        return ForeignInt(self.v << k)

    def __rshift__(self, k):
        return ForeignInt(self.v >> k)

    def __rmul__(self, c):
        return ForeignInt(c * self.v)


class ForeignMantissa:
    """An mpf-like number whose raw tuple holds a ForeignInt mantissa."""

    def __init__(self, v):
        sign, man, exp, bc = v._mpf_
        self._mpf_ = (sign, ForeignInt(man), exp, bc)


@pytest.mark.parametrize("n", [3, 6])
def test_extended_mantissas_are_python_ints_whatever_mpmath_holds(n):
    a, b = mixed_magnitudes(n, 1200 + n), mixed_magnitudes(n, 1250 + n)
    fa, fb = (np.array([[ForeignMantissa(v) for v in row] for row in m],
                       dtype=object) for m in (a, b))
    for m in (a, fa):
        man, exp, bad = EXT.to_mantissas(m)
        assert all(type(v) is int for v in man.flat)
        assert type(exp) is int and not bad
    for name in ("matmul", "bracket"):
        assert raw_bits(getattr(EXT, name)(fa, fb)) == \
            raw_bits(getattr(EXT, name)(a, b))
