import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lie_split import bounds
from lie_split.bounds import (Y_CAP, boundary_scan, converges, converges_many,
                              crude_r_sequence, refined_deltas, y_max)


# Reference for the summed log-space row: the two-row recursion (main and
# tilde advanced separately) in linear space, valid while no entry leaves
# the double range.

def _reference_advance(row, delta, k):
    top = len(row) - 1
    new = row.copy()
    for j in range(1, top // k + 1):
        new[k * j:] += row[: top + 1 - k * j] * ((2.0 * delta) ** j
                                                 / math.factorial(j))
    new[k - 1] = k * delta + row[k - 1]
    return new


def _reference_deltas(main, tilde, depth):
    deltas = []
    for k in range(3, depth + 1, 2):
        d = (main[k - 1] + tilde[k - 1]) / (2 * k)
        deltas.append(d)
        main = _reference_advance(main, d, k)
        tilde = _reference_advance(tilde, d, k)
    return np.array(deltas)


def _reference_refined_seeds(x, y, top):
    fact = np.array([float(math.factorial(l)) for l in range(top + 1)])
    ls = np.arange(top + 1)
    tilde = y ** ls * x / 2 / fact
    main = (y ** ls * x / 2 + y * (x + y) ** ls) / fact
    main[0] = tilde[0] = (x + y) / 2
    return main, tilde


@functools.lru_cache(maxsize=None)
def _reference_y_max(x, depth, swapped, tol=1e-3):
    """Scalar doubling then bisection over converges(), point by point."""
    def ok(v):
        return converges(v, x, depth)[0] if swapped else converges(x, v, depth)[0]
    lo, hi = 0.0, 1.0
    while hi <= Y_CAP and ok(hi):
        lo, hi = hi, 2.0 * hi
    if hi > Y_CAP:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _assert_rel_close(got, want, rel):
    assert got.shape == want.shape
    assert np.all((got == 0) == (want == 0))
    nz = want != 0
    assert np.max(np.abs(got[nz] - want[nz]) / want[nz], initial=0.0) <= rel


@pytest.mark.parametrize("depth", [21, 41, 101])
def test_refined_deltas_match_two_row_linear_reference(depth):
    for x, y in ((0.7, 0.3), (0.5, 0.5), (0.001, 1.2), (1.8, 1.8),
                 (0.0, 1.0), (5.0, 0.001)):
        want = _reference_deltas(*_reference_refined_seeds(x, y, depth - 1),
                                 depth)
        _assert_rel_close(refined_deltas(x, y, depth), want, 1e-12)


def test_crude_deltas_match_two_row_linear_reference():
    fact = np.array([float(math.factorial(l)) for l in range(41)])
    want = _reference_deltas(1.0 / fact, 0.5 / fact, 41)
    _assert_rel_close(crude_r_sequence(41)[1], want, 1e-12)


def test_crude_first_entry_is_exact():
    ks, rs, _, _ = crude_r_sequence(41)
    assert ks[0] == 3
    assert abs(rs[0] - 0.125) < 1e-15


def test_crude_depth_validation():
    with pytest.raises(ValueError):
        crude_r_sequence(11)
    with pytest.raises(ValueError):
        converges(0.5, 0.5, 9)


def test_crude_limit_and_threshold_at_deep_cutoff():
    _, _, limit, threshold = crude_r_sequence(1601)
    assert abs(limit - 0.5717) <= 1e-3
    assert abs(threshold - 1.3225) <= 2e-3
    assert abs(threshold - 1.0 / math.sqrt(limit)) < 1e-12


def test_crude_sequence_is_deterministic():
    a = crude_r_sequence(201)
    b = crude_r_sequence(201)
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_refined_delta3_hand_value():
    # delta_3 = (1/6) (d_{1,2} + dt_{1,2})
    #         = (1/6) (y^2 x / 4 + y (x+y)^2 / 2 + y^2 x / 4)
    x, y = 0.7, 0.3
    expected = (y * y * x / 4 + y * (x + y) ** 2 / 2 + y * y * x / 4) / 6
    deltas = refined_deltas(x, y, 21)
    assert abs(deltas[0] - expected) < 1e-14


def test_refined_zero_y_gives_zero_bounds():
    deltas = refined_deltas(5.0, 0.0, 41)
    assert np.all(deltas == 0.0)
    verdict, ratio = converges(5.0, 0.0, 41)
    assert verdict
    assert ratio == 0.0


def test_refined_monotone_in_each_argument():
    base = refined_deltas(0.4, 0.6, 41)
    more_x = refined_deltas(0.5, 0.6, 41)
    more_y = refined_deltas(0.4, 0.7, 41)
    assert np.all(more_x >= base)
    assert np.all(more_y >= base)


def test_converges_inside_and_outside():
    assert converges(0.5, 0.5, 401)[0]
    assert not converges(2.5, 2.5, 401)[0]
    assert converges(5.0, 0.001, 401)[0]


@pytest.mark.parametrize("x, y", [(math.nan, 1.0), (math.inf, 0.0),
                                  (1.0, math.inf), (0.5, -1.0)])
def test_non_finite_or_negative_norms_are_rejected(x, y):
    """nan and inf used to leave no finite ratio, which read as 0.0 and
    certified convergence."""
    for call in (lambda: converges(x, y), lambda: refined_deltas(x, y),
                 lambda: converges_many([(0.5, 0.5), (x, y)])):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            call()


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_boundary_search_rejects_non_finite_norms(x):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        y_max(x)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        boundary_scan([0.5, x], mirror=True)


def test_converges_agrees_across_depths_away_from_boundary():
    for x, y in ((0.2, 0.2), (0.6, 0.5), (1.8, 1.8), (0.001, 1.2)):
        assert converges(x, y, 201)[0] == converges(x, y, 401)[0]


def test_crude_region_contained_in_refined_domain():
    threshold = crude_r_sequence(401)[3]
    for x in (0.05, 0.3, 0.6):
        y = threshold * 0.99 - x
        assert converges(x, y, 401)[0]


def test_y_max_bisection_brackets_boundary():
    ym = y_max(0.001, 401)
    assert abs(ym - 1.539) <= 0.02
    assert converges(0.001, ym, 401)[0]
    assert not converges(0.001, ym + 2e-3, 401)[0]


def test_y_max_without_tolerance_stops_at_adjacent_floats():
    # hi - lo > tol never fails with tol = 0: the bisection has to stop
    # once no float lies between lo and hi
    ym = y_max(0.5, 21, tol=0.0)
    assert converges(0.5, ym, 21)[0]
    assert not converges(0.5, math.nextafter(ym, math.inf), 21)[0]


def test_boundary_scan_rows_and_mirror():
    xs = (0.001, 0.5, 1.0)
    plain = boundary_scan(xs, 201)
    assert [row[0] for row in plain] == list(xs)
    mirrored = boundary_scan(xs, 201, mirror=True)
    for (x, ym), (_, ym_m) in zip(plain, mirrored):
        assert ym_m >= ym
    # the union boundary at small x includes the mirrored long tail along
    # the x axis, so the first point jumps well above the direct bound
    assert mirrored[0][1] >= plain[0][1]


def test_boundary_monotone_over_direct_branch():
    xs = (0.1, 0.4, 0.8, 1.2)
    rows = boundary_scan(xs, 201)
    values = [ym for _, ym in rows]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_mirrored_scan_pins_parent_values():
    # recorded from the default 41-point scan at depth 401 before the
    # recursion was batched; the first row is the cap, not a boundary
    xs = (0.001, 0.05225641025641026, 0.2572820512820513, 2.0)
    rows = boundary_scan(xs, 401, mirror=True)
    assert rows == [(0.001, 8.0), (0.05225641025641026, 4.947265625),
                    (0.2572820512820513, 2.830078125), (2.0, 0.447265625)]
    assert rows[0][1] == Y_CAP
    assert y_max(0.001, 401) == 1.5390625


def test_boundary_scan_matches_pointwise_search():
    xs = (0.001, 0.3, 1.1)
    direct = [_reference_y_max(x, 201, False) for x in xs]
    swapped = [_reference_y_max(x, 201, True) for x in xs]
    assert [y_max(x, 201) for x in xs] == direct
    assert boundary_scan(xs, 201) == list(zip(xs, direct))
    assert boundary_scan(xs, 201, mirror=True) == [
        (x, max(d, s)) for x, d, s in zip(xs, direct, swapped)]


@pytest.mark.parametrize("depth", [41, 201])
@pytest.mark.parametrize("tol", [1e-3, 1e-6, 0.0])
def test_search_replays_pointwise_bisection(depth, tol):
    # x = 0: the swapped branch reaches the cap; x = 2: it ends at 0, so the
    # bisection runs down to the smallest float when tol = 0
    xs = (0.0, 1.1, 2.0)
    direct = [_reference_y_max(x, depth, False, tol) for x in xs]
    swapped = [_reference_y_max(x, depth, True, tol) for x in xs]
    assert swapped[0] == Y_CAP and swapped[2] == 0.0 < swapped[1]
    assert [y_max(x, depth, tol) for x in xs] == direct
    assert bounds._y_max_search(xs, [True] * 3, depth, tol).tolist() == swapped
    assert boundary_scan(xs, depth, tol) == list(zip(xs, direct))
    assert boundary_scan(xs, depth, tol, mirror=True) == [
        (x, max(d, s)) for x, d, s in zip(xs, direct, swapped)]


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 4.0))
def test_search_replays_pointwise_bisection_anywhere(x):
    want = [_reference_y_max(x, 41, False), _reference_y_max(x, 41, True)]
    assert bounds._y_max_search([x, x], [False, True], 41, 1e-3).tolist() == want


def test_scan_reproduces_recorded_benchmark_boundary():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    recorded = json.loads(path.read_text())["boundary_y_max"]
    xs = [j * 0.05 for j in range(1, 41)]
    rows = boundary_scan(xs, 401, tol=1e-3, mirror=True)
    assert [ym for _, ym in rows] == [recorded[str(j)] for j in range(1, 41)]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
def test_boundary_search_rejects_bad_tolerance(tol):
    """hi - lo > nan is false, so a nan tolerance used to skip the
    bisection and return the first failed doubling's lower end."""
    with pytest.raises(ValueError, match="tol must be finite"):
        y_max(0.5, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite"):
        boundary_scan([0.5], tol=tol, mirror=True)


@pytest.fixture
def recursions(monkeypatch):
    """Rows of every batched bound recursion run while the test runs."""
    calls = []
    inner = bounds._log_deltas

    def counted(rows, depth):
        calls.append(rows.shape[0])
        return inner(rows, depth)

    monkeypatch.setattr(bounds, "_log_deltas", counted)
    return calls


def test_mirrored_scan_runs_few_batched_recursions(recursions):
    rows = boundary_scan(np.linspace(0.05, 1.8, 8), 401, mirror=True)
    assert len(rows) == 8
    assert len(recursions) <= 8
    assert sum(recursions) <= 120
    assert max(recursions) <= 48


@pytest.mark.parametrize("guess", [0.0, 2.0 * Y_CAP])
def test_wrong_guesses_cost_at_most_twice_plain_bisection(
        recursions, monkeypatch, guess):
    # y_max(0.5) lies in (1, 2): plain search probes 1, 2, then bisects a
    # unit interval down to tol 1e-3 in 10 steps, 12 rounds in all
    want = _reference_y_max(0.5, 41, False)
    recursions.clear()
    monkeypatch.setattr(bounds, "_root_guess", lambda points: guess)
    assert y_max(0.5, 41) == want
    assert len(recursions) <= 2 * 12


def test_axis_search_runs_few_recursions(recursions):
    assert y_max(0.001, 401) == 1.5390625
    assert len(recursions) <= 4
    assert sum(recursions) <= 8


def test_converges_many_matches_single_points():
    points = [(0.5, 0.5), (2.5, 2.5), (5.0, 0.001), (0.0, 0.0)]
    assert converges_many(points, 41) == [converges(x, y, 41)
                                          for x, y in points]


def test_converges_many_of_no_points_is_empty():
    assert converges_many([]) == []
