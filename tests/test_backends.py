"""Differential tests: the stacked term recursions against the list-backed
form of the same code, in float64 and at 50 digits (MPKit), float64 against
50 digits, and against the symbolic terms evaluated on matrices."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from lie_split import engine
from lie_split.engine import one_sided_terms, standard_terms, symmetric_terms
from lie_split.experiments import run_fig3
from lie_split.freelie import FreeLieModule, LieCombo, bracket, expand_assoc
from lie_split.matrices import (MPKit, MantissaStack, MatrixAlgebra,
                                NumpyKit, frechet_pair, random_matrix)
from lie_split.series import ListStack

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


def worst_rel_mp(reference, got):
    """worst_rel at 50 digits, for two MPKit term tables."""
    worst = mp.mpf(0)
    for k, ref in reference.items():
        err = EXTENDED.frobenius(EXTENDED.sub(got[k], ref))
        worst = max(worst, err / EXTENDED.frobenius(ref))
    return worst


def list_backed(n, kit=DOUBLE):
    """A kit's matrices on list stacks: the adapter without its array
    stack."""
    alg = MatrixAlgebra(kit, n)
    alg.stacks = None
    return alg


@pytest.fixture(scope="module")
def fig3_extended():
    """Terms of the fig3 pair (orientations as run_fig3 uses them) at 50
    digits, degree 121."""
    x, y = frechet_pair(EXTENDED, Fraction(1, 5))
    alg = MatrixAlgebra(EXTENDED, 2)
    return (symmetric_terms(alg, y, x, 121), one_sided_terms(alg, x, y, 121))


def test_both_kits_get_an_array_stack():
    # double: one (count, n, n) float64 array; extended: integer mantissas
    # whose entries read back as mpf matrices
    ops = MatrixAlgebra(DOUBLE, 3).stacks
    assert ops is DOUBLE
    s = ops.stack([DOUBLE.eye(3)], 4)
    assert s.shape == (4, 3, 3) and s.dtype == np.float64
    ops = MatrixAlgebra(EXTENDED, 3).stacks
    assert ops is EXTENDED
    s = ops.stack([EXTENDED.eye(3)], 4)
    assert isinstance(s, MantissaStack) and len(s) == 4 and len(s[1:]) == 3
    assert all(type(v) is int for v in s.man.flat)
    for got, want in ((s[0], EXTENDED.eye(3)), (s[3], EXTENDED.zeros(3, 3))):
        assert got.shape == (3, 3) and got.dtype == object
        assert all(isinstance(v, mp.mpf) for v in got.flat)
        assert got.tolist() == want.tolist()


def test_extended_stacks_match_list_stacks():
    x, y = frechet_pair(EXTENDED, Fraction(1, 5))
    stacked, listed = MatrixAlgebra(EXTENDED, 2), list_backed(2, EXTENDED)
    assert worst_rel_mp(symmetric_terms(listed, y, x, 61),
                        symmetric_terms(stacked, y, x, 61)) <= 1e-45
    assert worst_rel_mp(one_sided_terms(listed, x, y, 61),
                        one_sided_terms(stacked, x, y, 61)) <= 1e-45
    x = EXTENDED.from_numpy(random_matrix(4, 1.0, 401))
    y = EXTENDED.from_numpy(random_matrix(4, 1.0, 402))
    stacked, listed = MatrixAlgebra(EXTENDED, 4), list_backed(4, EXTENDED)
    assert worst_rel_mp(symmetric_terms(listed, x, y, 21),
                        symmetric_terms(stacked, x, y, 21)) <= 1e-45
    assert worst_rel_mp(one_sided_terms(listed, x, y, 21),
                        one_sided_terms(stacked, x, y, 21)) <= 1e-45


def test_extended_stack_operations_keep_their_digits_at_global_precision():
    # mpf arithmetic outside the kit's context rounds to the global
    # precision; every stack operation must enter it
    ops = MatrixAlgebra(EXTENDED, 2).stacks
    with mp.workdps(50):
        tiny = mp.mpf("1e-40")
        near_one = mp.mpf(1) + tiny
    assert near_one != 1
    bump = EXTENDED.matrix([[near_one, 0], [0, 0]])
    shift = EXTENDED.matrix([[0, 1], [0, 0]])
    with mp.workdps(15):
        assert mp.mpf(1) + tiny == 1
        summed = ops.stack([EXTENDED.zeros(2, 2)], 1)
        bracketed = ops.ad_into(summed, 0, bump, ops.stack([shift], 1), 1)
    assert bracketed[0][0, 1] == near_one and summed[0][0, 1] == near_one


def spread(count, lo, hi, seed, weights=((1, 1), (1, 1))):
    """count random 2 x 2 matrices at 50 digits, elementwise times
    ``weights``, the i-th scaled to 10**(lo + i (hi - lo) / (count - 1))."""
    rng = np.random.default_rng(seed)
    step = (hi - lo) / max(count - 1, 1)
    with mp.workdps(50):
        w = EXTENDED.matrix(weights)
        draws = [EXTENDED.from_numpy(rng.uniform(-1, 1, (2, 2)))
                 for _ in range(count)]
        return [EXTENDED.scale(mp.mpf(10) ** (lo + i * step), w * a)
                for i, a in enumerate(draws)]


@pytest.mark.parametrize("c, src, dst", [
    # entries from 1e-200 to 1e200, added onto targets in reverse order
    (spread(1, 0, 0, 1)[0], spread(21, -200, 200, 2),
     spread(21, 200, -200, 3)),
    # every entry's own elements differ by 1e30
    (spread(1, 0, 0, 4, (("1e30", 1), (1, 1)))[0],
     spread(9, -5, 5, 5, ((1, "1e30"), (1, 1))),
     spread(9, 20, 30, 6, (("1e-30", 1), (1, 1)))),
], ids=["1e-200..1e200", "elements 1e30 apart"])
def test_extended_stack_steps_match_list_stacks(c, src, dst):
    # two chained ad steps, as the engine takes them, on MPKit's stack and
    # on a list stack: every entry within 1e-45 of its norm; every third
    # source entry is zero, so zero results land on every magnitude
    src = [EXTENDED.zeros(2, 2) if i % 3 == 0 else v
           for i, v in enumerate(src)]
    listed = ListStack(list_backed(2, EXTENDED))
    runs = []
    for ops in (EXTENDED, listed):
        s, d = ops.stack(src, len(src)), ops.stack(dst, len(dst))
        for coef in (Fraction(-1, 7), 3):
            s = ops.ad_into(d, 1, c, s[:len(s) - 1], coef)
        runs.append([d[i] for i in range(len(d))]
                    + [s[i] for i in range(len(s))])
    for got, want in zip(*runs):
        err = EXTENDED.frobenius(EXTENDED.sub(got, want))
        assert err <= mp.mpf("1e-45") * EXTENDED.frobenius(want)


def test_extended_stacks_match_list_stacks_beyond_int64_exponents():
    with mp.workdps(50):
        huge = mp.mpf((1, 2 ** 70))
    x, y = (EXTENDED.scale(huge, v)
            for v in frechet_pair(EXTENDED, Fraction(1, 5)))
    stacked, listed = MatrixAlgebra(EXTENDED, 2), list_backed(2, EXTENDED)
    assert worst_rel_mp(symmetric_terms(listed, y, x, 21),
                        symmetric_terms(stacked, y, x, 21)) <= 1e-45
    assert worst_rel_mp(one_sided_terms(listed, x, y, 21),
                        one_sided_terms(stacked, x, y, 21)) <= 1e-45


def test_extended_stack_flags_follow_nonfinite_entries():
    shift, bad = EXTENDED.matrix([[0, 1], [0, 0]]), EXTENDED.matrix(
        [["nan", 0], [0, 0]])

    def all_nan(stack):
        return [all(mp.isnan(v) for v in stack[i].flat)
                for i in range(len(stack))]

    s = EXTENDED.stack([shift, bad, shift], 3)
    d = EXTENDED.stack([shift], 4)
    assert all_nan(s) == [False, True, False]
    out = EXTENDED.ad_into(d, 1, EXTENDED.matrix([[1, 0], [0, -1]]), s, 1)
    assert all_nan(out) == [False, True, False]
    assert all_nan(d) == [False, False, True, False]
    out = EXTENDED.ad_into(d, 0, bad, s[:1], 1)
    assert all_nan(out) == [True] and all_nan(d)[0]


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_extended_stacks_match_list_stacks_on_nonfinite_input(bad):
    # in a child interpreter, so that a hang fails the test, not the suite
    code = textwrap.dedent(f"""
        import mpmath as mp
        from lie_split.engine import one_sided_terms, symmetric_terms
        from lie_split.matrices import MPKit, MatrixAlgebra
        kit = MPKit()
        listed = MatrixAlgebra(kit, 2)
        listed.stacks = None
        good = kit.matrix([[0, 1], [1, 2]])
        bad = kit.matrix([["{bad}", 1], [0, 0]])
        for x, y in ((bad, good), (good, bad)):
            for terms in (symmetric_terms, one_sided_terms):
                got = terms(MatrixAlgebra(kit, 2), x, y, 9)
                want = terms(listed, x, y, 9)
                assert sorted(got) == sorted(want)
                for k in want:
                    finite = all(mp.isfinite(v) for v in want[k].flat)
                    assert finite == all(mp.isfinite(v) for v in got[k].flat)
                    assert finite or all(mp.isnan(v) for v in got[k].flat)
        """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr


def test_extended_fig3_values_pinned_to_25_digits():
    # verify check 11 and the extended fig3 table sit on these two values
    for n, want in ((101, "8.213250552540929089718068e-11"),
                    (201, "6.215368690449583688246141e-20")):
        got = run_fig3(lam_grid=(0.13,), n_list=(n,), precision="extended",
                       include_standard=False)[0].rows[0][1]
        assert mp.nstr(got, 25) == want, (n, got)


def test_stacked_terms_match_extended_on_fig3_pair(fig3_extended):
    x, y = frechet_pair(DOUBLE, Fraction(1, 5))
    got = symmetric_terms(MatrixAlgebra(DOUBLE, 2), y, x, 121)
    assert sorted(got) == sorted(fig3_extended[0])
    assert worst_rel(fig3_extended[0], got) <= REL


def test_stacked_standard_terms_match_extended_on_fig3_pair(fig3_extended):
    x, y = frechet_pair(DOUBLE, Fraction(1, 5))
    got = one_sided_terms(MatrixAlgebra(DOUBLE, 2), x, y, 121)
    assert sorted(got) == sorted(fig3_extended[1])
    assert worst_rel(fig3_extended[1], got) <= REL


def test_one_sided_terms_match_the_series_peel_at_50_digits(fig3_extended):
    x, y = frechet_pair(EXTENDED, Fraction(1, 5))
    peel = standard_terms(MatrixAlgebra(EXTENDED, 2), x, y, 61)
    got = {k: v for k, v in fig3_extended[1].items() if k <= 61}
    assert sorted(got) == sorted(peel)
    assert worst_rel_mp(peel, got) <= 1e-45


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
    assert worst_rel(one_sided_terms(ext, ex, ey, 51),
                     one_sided_terms(alg, x, y, 51)) <= REL


def test_stacked_terms_match_list_stacks_on_20x20_pair():
    x = random_matrix(20, 1.0, 201)
    y = random_matrix(20, 1.0, 202)
    stacked = MatrixAlgebra(DOUBLE, 20)
    listed = list_backed(20)
    assert worst_rel(symmetric_terms(listed, x, y, 51),
                     symmetric_terms(stacked, x, y, 51)) <= REL
    assert worst_rel(one_sided_terms(listed, x, y, 51),
                     one_sided_terms(stacked, x, y, 51)) <= REL


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


def stack_kind(kind, offset):
    """(stack ops, six entries with a zero among them, c) of one stack kind:
    3 x 3 float64, 3 x 3 at 50 digits on mantissas, or free Lie elements
    on a list, entry i of degree i + 1 and c of degree ``offset``, as in
    the engine's rows."""
    if kind == "list":
        x, y = LieCombo.generator("X"), LieCombo.generator("Y")
        elems = [x + y.scale(2)]
        for letter in (y, x, y, x, x):
            elems.append(bracket(letter, elems[-1]))
        elems[3] = FreeLieModule().zero()
        c = x.scale(3) - y if offset == 1 else bracket(x, y)
        return ListStack(FreeLieModule()), elems, c
    rng = np.random.default_rng(11)
    mats = [rng.uniform(-1, 1, (3, 3)) * 10.0 ** i for i in range(-3, 3)]
    mats[2] = np.zeros((3, 3))
    c = rng.uniform(-1, 1, (3, 3))
    if kind == "float64":
        return DOUBLE, mats, c
    return EXTENDED, [EXTENDED.from_numpy(m) for m in mats], \
        EXTENDED.from_numpy(c)


def stack_bits(s):
    """Everything a stack holds, comparable bit for bit."""
    if isinstance(s, MantissaStack):
        return s.man.tolist(), s.exp.tolist(), s.bad.tolist()
    if isinstance(s, np.ndarray):
        return s.shape, s.tobytes()
    return list(s)


@pytest.mark.parametrize("offset", [1, 2])
@pytest.mark.parametrize("kind", ["float64", "mantissa", "list"])
def test_ad_into_reads_a_slice_of_its_target_as_it_reads_a_copy(kind,
                                                                 offset):
    # the row steps read the slice s of the row dst they add into: every
    # ad_into forms its whole output before it writes
    ops, elems, c = stack_kind(kind, offset)
    n = len(elems)
    coef = Fraction(-2, 3)
    aliased = ops.stack(elems, n)
    out_aliased = ops.ad_into(aliased, offset, c,
                              ops.nonzero(aliased[:n - offset]), coef)
    apart = ops.stack(elems, n)
    source = ops.nonzero(ops.stack(elems, n)[:n - offset])
    out_apart = ops.ad_into(apart, offset, c, source, coef)
    assert stack_bits(aliased) == stack_bits(apart)
    assert stack_bits(out_aliased) == stack_bits(out_apart)
    assert stack_bits(aliased) != stack_bits(ops.stack(elems, n))


def copied(s):
    """A row stack's own copy, for the copying step below."""
    if isinstance(s, MantissaStack):
        return MantissaStack(s.kit, s.man.copy(), s.exp.copy(), s.bad.copy())
    return s.copy() if isinstance(s, np.ndarray) else list(s)


def advance_row_copying(mod, ops, row, ck, k, sign, low=0):
    """engine._advance_row as a copying step: the new row is a copy of the
    old one, which the ad steps read and never write."""
    top = len(row) - 1
    new = copied(row)
    if not mod.is_zero(ck):
        power = ops.nonzero(row[low:top + 1 - k])
        j = 1
        while low + k * j <= top:
            power = ops.ad_into(new, low + k * j, ck,
                                power[:top + 1 - low - k * j],
                                Fraction(sign, j))
            j += 1
    if low <= k - 1 <= top:
        new[k - 1] = mod.add(new[k - 1], mod.scale(Fraction(sign * k), ck))
    return new


def matrix_bits(a):
    return (a.tobytes() if a.dtype != object
            else [v._mpf_ for v in a.flat])


@pytest.mark.parametrize("kit", [DOUBLE, EXTENDED], ids=lambda k: k.name)
def test_in_place_row_steps_match_copying_steps_on_fig3_pair(kit,
                                                             monkeypatch):
    x, y = frechet_pair(kit, Fraction(1, 5))
    alg = MatrixAlgebra(kit, 2)
    runs = []
    for step in (engine._advance_row, advance_row_copying):
        monkeypatch.setattr(engine, "_advance_row", step)
        runs.append([symmetric_terms(alg, y, x, 101),
                     one_sided_terms(alg, x, y, 101)])
    for in_place, copying in zip(*runs):
        assert sorted(in_place) == sorted(copying)
        for k in copying:
            assert matrix_bits(in_place[k]) == matrix_bits(copying[k]), k


@pytest.mark.parametrize("terms", [symmetric_terms, one_sided_terms])
def test_term_recursions_on_50x50_pair_stay_below_8_mib(terms):
    # one 51 x 50 x 50 float64 row is 1 MiB; seed entries kept as views of
    # their steps' whole stacks take the peak to 29 MiB
    x, y = random_matrix(50, 1.0, 0), random_matrix(50, 1.0, 1)
    alg = MatrixAlgebra(DOUBLE, 50)
    tracemalloc.start()
    try:
        terms(alg, x, y, 51)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak / 2 ** 20
