"""Norm-bound recursions for the palindromic splitting and the convergence
domain they certify.

Both recursions have the shape of the term recursion, with brackets replaced
by products of norms. Each odd level k yields a bound delta_k on the norm of
the degree-k exponent, and the splitting converges where the tail ratio
delta_{k+2}/delta_k stays below one.

The crude variant is scale free: it bounds coefficients with x = y = 1, and
convergence is then governed by lambda(x+y). The refined variant keeps the
two norms x, y separate, which certifies a much larger, asymmetric domain.

The term recursion carries two rows, but the level step is linear in them
and delta_k reads only their sum, so one summed row S carries the bounds:

    seeds    crude:   S[l] = 3 / (2 l!)
             refined: S[0] = x + y,  S[l] = (y^l x + y (x+y)^l) / l!
    level k  delta_k = S[k-1] / (2k)
             S[l]   += sum_{j>=1} (2 delta_k)^j / j! * S[l-kj]
             S[k-1] += 2k delta_k

The row always lives in log space (the factorial seeds leave the double
range from depth ~170 on), with np.logaddexp as the only kernel, and it is
batched over points: one recursion advances a (P, depth) array of rows.
The search for the domain boundary keeps the result of doubling and
bisection, but runs every point in lockstep and evaluates few probes: each
round guesses where every point's bisection ends and puts the guessed end
probes of all points into one batched recursion; the verdicts they imply
settle most of the bisection's probes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

# The boundary search probes no y above this; a power of two, so the
# doubling from y = 1 lands on it exactly.
Y_CAP = 8.0
_TAIL = 10  # ratios averaged for the limit estimate
_NOISE = 1e-9  # log-ratio differences this small may be rounding error


def _log_factorials(top: int) -> np.ndarray:
    return np.array([math.lgamma(l + 1) for l in range(top + 1)])


def _log(v: float) -> float:
    return math.log(v) if v > 0 else -math.inf


def crude_log_row(top: int) -> np.ndarray:
    """log of 3/(2 l!) for l = 0..top, as a batch of one row."""
    return (math.log(1.5) - _log_factorials(top))[None, :]


def refined_log_rows(xs: Sequence[float], ys: Sequence[float],
                     top: int) -> np.ndarray:
    """Norm-aware level-1 summed rows, in logs, one row per point (x, y):

    S[0] = x + y
    S[l] = ( y^l x + y (x+y)^l ) / l!
    """
    if not all(math.isfinite(v) and v >= 0 for v in (*xs, *ys)):
        raise ValueError("norms must be finite and nonnegative")
    lx = np.array([_log(x) for x in xs])[:, None]
    ly = np.array([_log(y) for y in ys])[:, None]
    lxy = np.array([_log(x + y) for x, y in zip(xs, ys)])[:, None]
    ls = np.arange(top + 1, dtype=float)
    # 0 * (-inf) at l = 0 produces a transient nan; column 0 is overwritten
    # right below, so the invalid flag is noise
    with np.errstate(invalid="ignore"):
        rows = np.logaddexp(ls * ly + lx, ly + ls * lxy) - _log_factorials(top)
    rows[:, 0] = lxy[:, 0]
    return rows


def _log_deltas(rows: np.ndarray, depth: int) -> np.ndarray:
    """log delta_k for odd k = 3..depth, one row per seed row.

    rows is a (P, depth) array of log seeds; the result is (P, (depth-1)/2).
    """
    if depth < 3 or depth % 2 == 0:
        raise ValueError("depth must be an odd integer >= 3")
    top = depth - 1
    row = rows
    deltas = []
    for k in range(3, depth + 1, 2):
        ld = row[:, k - 1] - math.log(2 * k)
        deltas.append(ld)
        if k == depth:
            break
        new = row.copy()
        base = (math.log(2.0) + ld)[:, None]
        for j in range(1, top // k + 1):
            shift = j * base - math.lgamma(j + 1)
            tail = new[:, k * j:]
            np.logaddexp(tail, row[:, :top + 1 - k * j] + shift, out=tail)
        new[:, k - 1] = np.logaddexp(math.log(2 * k) + ld, row[:, k - 1])
        row = new
    return np.stack(deltas, axis=1)


def _tail_ratio(log_deltas: np.ndarray) -> float:
    """Geometric mean of the last _TAIL consecutive ratios delta_{k+2}/delta_k.
    An all-vanishing tail counts as ratio 0 (trivially convergent)."""
    if len(log_deltas) < 2:
        raise ValueError("need at least two levels for a ratio")
    tail = log_deltas[-(_TAIL + 1):]
    if tail[-1] == -math.inf:
        return 0.0
    diffs = np.diff(tail)
    finite = diffs[np.isfinite(diffs)]
    if finite.size == 0:
        return 0.0
    return float(np.exp(np.mean(finite)))


def _tail_ratios(xs: Sequence[float], ys: Sequence[float],
                 depth: int) -> List[float]:
    if depth < 21:
        raise ValueError("depth must be at least 21 for a stable verdict")
    logs = _log_deltas(refined_log_rows(xs, ys, depth - 1), depth)
    return [_tail_ratio(row) for row in logs]


def _bisection(known, tol: float) -> Tuple[float, float, Optional[float]]:
    """Walk the boundary search's probe sequence: y doubles from 1 while the
    probe converges and y <= Y_CAP, then bisects until hi - lo <= tol or no
    float lies between lo and hi.

    known(probe) gives each verdict: True, False, or None when unknown, which
    stops the walk.  Returns (lo, hi, probe), with probe the first unknown
    one, or None when the walk has ended; lo is then the search's result.
    """
    lo, hi, doubling = 0.0, 1.0, True
    while True:
        if doubling:
            probe = hi
            if probe > Y_CAP:
                return lo, hi, None
        else:
            probe = 0.5 * (lo + hi)
            if not (hi - lo > tol and lo < probe < hi):
                return lo, hi, None
        ok = known(probe)
        if ok is None:
            return lo, hi, probe
        if ok:
            lo, hi = probe, 2.0 * probe if doubling else hi
        else:
            hi, doubling = probe, False


def _root_guess(points: List[Tuple[float, float]]) -> float:
    """y where log r reaches 0 on the secant of log r against log y through
    the last of points, each (y, r), and the latest earlier one whose log r
    differs from it by more than _NOISE (closer ones give a slope made of
    rounding error); on the line of slope one through the last point where
    none does.  Guesses above 2 Y_CAP come back as 2 Y_CAP: they all
    predict the same walk."""
    ly, lr = math.log(points[-1][0]), _log(points[-1][1])
    slope = 1.0
    for y, r in reversed(points[:-1]):
        dy, dr = ly - math.log(y), lr - _log(r)
        if dy != 0 and abs(dr) > _NOISE and math.isfinite(dr):
            slope = dr / dy
            break
    return math.exp(min(ly - lr / slope, math.log(2.0 * Y_CAP)))


def _y_max_search(fixed: Sequence[float], swapped: Sequence[bool],
                  depth: int, tol: float) -> np.ndarray:
    """Largest y (within tol) with (x, y) certified, or (y, x) where swapped,
    for every fixed coordinate x: lo at the end of the walk in _bisection.

    The verdicts of the walk are mostly inferred, not computed.  Bisection
    already assumes that the verdict is monotone in y; so is it taken here:
    a probe at or below one that converged converges, and a probe at or
    above one that failed fails.  Each round, every unfinished point
    replays its walk from those verdicts and guesses its boundary, from the
    secant of log r against log y through its last evaluated probes (see
    _root_guess; regula falsi on its bracket where the secant leaves it and
    both ends are evaluated).  It then walks as if the guess were the boundary and
    evaluates where that walk ends, its lo and hi.  A probe left pending by
    two rounds in a row is evaluated itself, so no point takes more than
    twice the rounds of plain bisection.  The probes of all points go into
    one batched recursion per round.  A point that reaches the cap ends
    with lo == Y_CAP.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative")
    seen = [{} for _ in fixed]      # probe y -> tail ratio, in probe order
    stalled = [None] * len(fixed)   # the probe left pending by the last round
    while True:
        batch, result = [], []
        for i, ratios in enumerate(seen):
            good = max((y for y, r in ratios.items() if r < 1.0), default=0.0)
            bad = min((y for y, r in ratios.items() if r >= 1.0),
                      default=math.inf)

            def known(p):
                return True if p <= good else False if p >= bad else None
            lo, _, pending = _bisection(known, tol)
            result.append(lo)
            if pending is None:
                continue
            probes = [pending] if pending == stalled[i] or not ratios else []
            stalled[i] = pending
            if ratios:
                guess = _root_guess(list(ratios.items()))
                if not good < guess < bad and {good, bad} <= ratios.keys():
                    guess = _root_guess([(good, ratios[good]),
                                         (bad, ratios[bad])])

                def predicted(p):
                    ok = known(p)
                    return p < guess if ok is None else ok
                probes += [p for p in _bisection(predicted, tol)[:2]
                           if known(p) is None and p <= Y_CAP
                           and p not in probes]
            batch += [(i, p) for p in probes]
        if not batch:
            return np.array(result)
        xs = [probe if swapped[i] else fixed[i] for i, probe in batch]
        ys = [fixed[i] if swapped[i] else probe for i, probe in batch]
        for (i, probe), ratio in zip(batch, _tail_ratios(xs, ys, depth)):
            seen[i][probe] = ratio


# ---------------------------------------------------------------------------
# Public surface

def crude_r_sequence(depth: int = 401):
    """Scale-free level bounds r_3, r_5, ... r_depth, their limiting ratio,
    and the certified threshold on lambda(x+y).

    Returns (ks, r_values, r_limit, threshold) with threshold = 1/sqrt(limit).
    """
    if depth < 21:
        raise ValueError("depth must be at least 21 for a stable limit")
    logs = _log_deltas(crude_log_row(depth - 1), depth)[0]
    ratio = _tail_ratio(logs)
    ks = np.arange(3, depth + 1, 2)
    return ks, np.exp(logs), ratio, 1.0 / math.sqrt(ratio)


def refined_deltas(x: float, y: float, depth: int = 401) -> np.ndarray:
    """Norm-aware bounds delta_3, delta_5, ... delta_depth for given x, y.
    Values that leave the double range come back saturated (0 or inf); use
    converges() for verdicts, it works on logs throughout."""
    logs = _log_deltas(refined_log_rows([x], [y], depth - 1), depth)[0]
    with np.errstate(over="ignore"):
        return np.exp(logs)


def converges_many(points: Sequence[Tuple[float, float]],
                   depth: int = 401) -> List[Tuple[bool, float]]:
    """converges() for every (x, y) in points, in one batched recursion."""
    if not points:
        return []
    xs, ys = zip(*points)
    return [(ratio < 1.0, ratio) for ratio in _tail_ratios(xs, ys, depth)]


def converges(x: float, y: float, depth: int = 401) -> Tuple[bool, float]:
    """Certified-convergence verdict for norms (x, y) at the given depth.

    Returns (verdict, ratio_tail): the geometric mean of the last ten ratios
    delta_{k+2}/delta_k; the verdict is ratio_tail < 1.

    "Certified" holds only at this depth: the ratios still rise with k, so
    the tail estimate is low and the verdict can turn false deeper down;
    converges(0.001, 1.538) is (True, 0.9983) at depth 401 and
    (False, 1.0022) at 1601.  A depth-independent verdict is direction 4 of
    ROADMAP.md.
    """
    return converges_many([(x, y)], depth)[0]


def y_max(x: float, depth: int = 401, tol: float = 1e-3) -> float:
    """Largest y (within tol) with a certified-convergent (x, y), by
    doubling then bisection.  (x, 0) always converges.  The search stops at
    Y_CAP: a return value equal to Y_CAP means (x, Y_CAP) still converges.

    The bound inherits the depth drift of converges(): with tol 1e-4,
    y_max(0.001) is 1.5882 / 1.5524 / 1.5393 / 1.5363 at depth
    41 / 101 / 401 / 1601 (direction 4 of ROADMAP.md)."""
    return float(_y_max_search([x], [False], depth, tol)[0])


def boundary_scan(x_values: Sequence[float], depth: int = 401,
                  tol: float = 1e-3, mirror: bool = False) -> List[Tuple[float, float]]:
    """Boundary of the certified domain: rows (x, y_max).

    With mirror=True each row takes the larger of the direct bound and the
    bound of the role-swapped splitting (largest y with (y, x) certified),
    i.e. the union of the domain with its reflection.  A row equal to Y_CAP
    hit the cap.  All searches, direct and swapped, run in lockstep.  Rows
    move inward as the depth grows, as y_max() does.
    """
    xs = [float(x) for x in x_values]
    n = len(xs)
    if mirror:
        ym = _y_max_search(xs + xs, [False] * n + [True] * n, depth, tol)
        ym = np.maximum(ym[:n], ym[n:])
    else:
        ym = _y_max_search(xs, [False] * n, depth, tol)
    return [(x, float(v)) for x, v in zip(xs, ym)]
