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
The search for the domain boundary runs every point in lockstep, one batched
recursion per round of doubling or bisection.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

# The boundary search probes no y above this; a power of two, so the
# doubling from y = 1 lands on it exactly.
Y_CAP = 8.0
_TAIL = 10  # ratios averaged for the limit estimate


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


def _y_max_search(fixed: Sequence[float], swapped: Sequence[bool],
                  depth: int, tol: float) -> np.ndarray:
    """Largest y (within tol) with (x, y) certified, or (y, x) where swapped,
    for every fixed coordinate x.

    Each point doubles y from 1 while the probe converges and y <= Y_CAP,
    then bisects until hi - lo <= tol or no float lies between them; all
    points advance in lockstep, one batched recursion per round over the
    probes of the points still searching. A point that reaches the cap ends
    with lo == Y_CAP.
    """
    fixed = np.asarray(fixed, dtype=float)
    swapped = np.asarray(swapped, dtype=bool)
    lo = np.zeros(len(fixed))
    hi = np.ones(len(fixed))
    doubling = np.ones(len(fixed), dtype=bool)
    while True:
        mid = 0.5 * (lo + hi)
        active = np.where(doubling, hi <= Y_CAP,
                          (hi - lo > tol) & (lo < mid) & (mid < hi))
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return lo
        probe = np.where(doubling, hi, mid)[idx]
        xs = np.where(swapped[idx], probe, fixed[idx])
        ys = np.where(swapped[idx], fixed[idx], probe)
        ok = np.array(_tail_ratios(xs.tolist(), ys.tolist(), depth)) < 1.0
        grow = doubling[idx]
        lo[idx] = np.where(ok, probe, lo[idx])
        hi[idx] = np.where(grow & ok, 2.0 * probe,
                           np.where(ok, hi[idx], probe))
        doubling[idx] = grow & ok


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
    xs, ys = zip(*points)
    return [(ratio < 1.0, ratio) for ratio in _tail_ratios(xs, ys, depth)]


def converges(x: float, y: float, depth: int = 401) -> Tuple[bool, float]:
    """Certified-convergence verdict for norms (x, y) at the given depth.

    Returns (verdict, ratio_tail): the geometric mean of the last ten ratios
    delta_{k+2}/delta_k; the verdict is ratio_tail < 1.
    """
    return converges_many([(x, y)], depth)[0]


def y_max(x: float, depth: int = 401, tol: float = 1e-3) -> float:
    """Largest y (within tol) with a certified-convergent (x, y), by
    doubling then bisection.  (x, 0) always converges.  The search stops at
    Y_CAP: a return value equal to Y_CAP means (x, Y_CAP) still converges."""
    return float(_y_max_search([x], [False], depth, tol)[0])


def boundary_scan(x_values: Sequence[float], depth: int = 401,
                  tol: float = 1e-3, mirror: bool = False) -> List[Tuple[float, float]]:
    """Boundary of the certified domain: rows (x, y_max).

    With mirror=True each row takes the larger of the direct bound and the
    bound of the role-swapped splitting (largest y with (y, x) certified),
    i.e. the union of the domain with its reflection.  A row equal to Y_CAP
    hit the cap.  All searches, direct and swapped, run in lockstep.
    """
    xs = [float(x) for x in x_values]
    n = len(xs)
    if mirror:
        ym = _y_max_search(xs + xs, [False] * n + [True] * n, depth, tol)
        ym = np.maximum(ym[:n], ym[n:])
    else:
        ym = _y_max_search(xs, [False] * n, depth, tol)
    return [(x, float(v)) for x, v in zip(xs, ym)]
