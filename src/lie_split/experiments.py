"""Experiment harness: deterministic CSV data sets behind the figures.

Each experiment writes plain CSV preceded by a fixed header comment line

    # lie-split v<semver> experiment=<id> seed=<n>

plus, where useful, further '#' metadata lines; columns are fixed per
experiment.  Plotting is out of scope, the files are meant for external
tools.  Reruns with the same configuration are byte-identical.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from mpmath import mp

from . import __version__
from .bounds import Y_CAP, boundary_scan, converges_many, crude_r_sequence
from .engine import one_sided_terms, symmetric_terms
from .matrices import (MatrixAlgebra, NumpyKit, frechet_pair, kit_for,
                       random_matrix, standard_products, symmetric_products)
from .scalars import UniPoly
from .structconst import ScModule, bundled_algebra, collapse_middle

DEFAULT_LAM_GRID = tuple(sorted(set(j / 20 for j in range(1, 21)) | {0.13}))
DEFAULT_X_GRID = (0.001,) + tuple(j / 20 for j in range(1, 41))


def csv_header(experiment: str, seed: int) -> str:
    return f"# lie-split v{__version__} experiment={experiment} seed={seed}"


def write_lines(path, lines: Sequence[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _fmt(v) -> str:
    """Shortest round-trip decimal for floats; mpmath values keep 25 digits."""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, np.floating):
        return repr(float(v))
    return mp.nstr(v, 25)


class ErrorCurve(NamedTuple):
    """One error-decay curve: rows (sweep value, symmetric, standard)."""

    label: str                     # constant of the curve ("0.5" or "201")
    rows: List[tuple]
    carried: Optional[List[int]] = None   # per row: 1 if symmetric value
                                          # repeats the preceding odd degree


# ---------------------------------------------------------------------------
# Random-pair error decay at lambda = 1 (two norm regimes)

def run_fig2(seed: int = 0, norms: Sequence[float] = (0.5, 2.5),
             n_max: int = 51, dimension: int = 20, kit=None) -> List[ErrorCurve]:
    """Error of both splittings against exp(X+Y) for seeded random pairs.

    For each norm target one pair of dimension x dimension matrices is drawn
    (consecutive derived seeds) and rescaled; errors are spectral-norm
    distances for every truncation degree n = 2..n_max.  Palindromic values
    repeat at even n >= 4 (those degrees contribute no factor) and the rows
    are flagged; n = 2 is the genuine half-step sandwich without any term
    factor.
    """
    if n_max < 5:
        raise ValueError("n_max must be at least 5")
    if kit is None:
        kit = NumpyKit()
    m_top = n_max if n_max % 2 == 1 else n_max - 1
    curves = []
    for idx, target in enumerate(norms):
        x = kit.from_numpy(random_matrix(dimension, target, seed + 2 * idx))
        y = kit.from_numpy(random_matrix(dimension, target, seed + 2 * idx + 1))
        ref = kit.expm(kit.add(x, y))
        mod = MatrixAlgebra(kit, dimension)
        sym = symmetric_terms(mod, x, y, m_top)
        std = one_sided_terms(mod, x, y, n_max)
        err_sym = {k: kit.norm2(kit.sub(ref, kit.matmul(left, right)))
                   for k, left, right in symmetric_products(kit, x, y, sym)}
        err_std = {k: kit.norm2(kit.sub(ref, prod))
                   for k, prod in standard_products(kit, x, y, std) if k > 1}

        rows = []
        carried = []
        for n in range(2, n_max + 1):
            m = n if n % 2 == 1 else n - 1     # n = 2 reads the sandwich
            rows.append((n, err_sym[m], err_std[n]))
            carried.append(int(3 <= m < n))
        curves.append(ErrorCurve(repr(float(target)), rows, carried))
    return curves


def fig2_csv_lines(curves: Sequence[ErrorCurve], seed: int,
                   precision: str = "double") -> List[str]:
    lines = [csv_header("fig2", seed),
             f"# precision={precision}",
             "norm,n,error_symmetric,error_standard,carried"]
    for curve in curves:
        for (n, es, ed), flag in zip(curve.rows, curve.carried):
            lines.append(f"{curve.label},{n},{_fmt(es)},{_fmt(ed)},{flag}")
    return lines


# ---------------------------------------------------------------------------
# Error versus lambda for the 2x2 pair whose full exponentials factor exactly

def run_fig3(alpha=Fraction(1, 5), lam_grid: Optional[Sequence[float]] = None,
             n_list: Sequence[int] = (51, 101, 201),
             precision: str = "double",
             include_standard: bool = True) -> List[ErrorCurve]:
    """Frobenius error of the truncated products over a lambda grid.

    Terms are computed once, for the pair scaled by a power of two, and
    rescaled per grid point (homogeneity).  Degrees in n_list must be odd:
    even degrees add no palindromic factor, so their curves duplicate the
    preceding odd one.  They must also be distinct, as each gives one
    curve.
    The lambda = 1 row is included even though the factored-exponential
    identity of the pair says nothing about convergence there.

    The palindromic product is built with the roles of the pair interchanged
    (Y's half-step outermost, terms generated for (Y, X)).  Both orientations
    are valid factorizations; for this matrix family the interchanged one has
    a truncation-error constant smaller by about three orders of magnitude at
    the tightest grid points, e.g. 6e-20 versus 3e-17 at lambda = 0.13 with
    n = 201.  The one-sided comparison product keeps the plain order.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if lam_grid is None:
        lam_grid = DEFAULT_LAM_GRID
    if not n_list:
        raise ValueError("n_list must not be empty")
    if any(n < 3 or n % 2 == 0 for n in n_list):
        raise ValueError("n_list entries must be odd and at least 3")
    if len(set(n_list)) != len(n_list):
        raise ValueError("n_list entries must be distinct")
    if any(not 0.0 < lam <= 1.0 for lam in lam_grid):
        raise ValueError("lambda values must lie in (0, 1]")
    kit = kit_for(precision)
    x, y = frechet_pair(kit, alpha)
    top = max(n_list)
    marks = set(n_list)

    # Terms come from (2^-j X, 2^-j Y), with 2^j about the pair's norm, and
    # are rescaled by lambda^k 2^(jk).  Power-of-two factors are exact, so
    # every term that is finite without the prescale keeps its bits; the
    # unscaled one-sided terms grow like 11.9^k and overflow near k = 290.
    # j top stays below 1024, so 2^(jk) is a finite float.
    j = math.frexp(kit.to_float(max(kit.frobenius(x), kit.frobenius(y))))[1]
    j = max(0, min(j - 1, 1023 // top))
    shrink = Fraction(1, 2 ** j)
    xs, ys = kit.scale(shrink, x), kit.scale(shrink, y)
    mod = MatrixAlgebra(kit, 2)
    sym = symmetric_terms(mod, ys, xs, top)
    std = one_sided_terms(mod, xs, ys, top) if include_standard else None

    def rescaled(terms, lam):
        with kit.context():
            return {k: kit.scale(kit.power(lam, k) * 2 ** (j * k), v)
                    for k, v in terms.items()}

    rows: Dict[int, List[tuple]] = {n: [] for n in n_list}
    for lam in lam_grid:
        ref = kit.expm(kit.scale(lam, kit.add(x, y)))
        a, b = kit.scale(lam, x), kit.scale(lam, y)
        err_sym = {k: kit.frobenius(kit.sub(ref, kit.matmul(left, right)))
                   for k, left, right in symmetric_products(
                       kit, b, a, rescaled(sym, lam))
                   if k in marks}
        err_std = {}
        if include_standard:
            err_std = {k: kit.frobenius(kit.sub(ref, prod))
                       for k, prod in standard_products(kit, a, b,
                                                        rescaled(std, lam))
                       if k in marks}
        for n in n_list:
            rows[n].append((lam, err_sym[n], err_std.get(n)))
    return [ErrorCurve(str(n), rows[n]) for n in n_list]


def fig3_csv_lines(curves: Sequence[ErrorCurve], seed: int,
                   precision: str) -> List[str]:
    lines = [csv_header("fig3", seed),
             f"# precision={precision}",
             "lam,n,error_symmetric,error_standard"]
    for curve in curves:
        for lam, es, ed in curve.rows:
            if ed is None:
                raise ValueError("CSV output needs the standard variant; "
                                 "rerun with include_standard=True")
            lines.append(f"{_fmt(lam)},{curve.label},{_fmt(es)},{_fmt(ed)}")
    return lines


# ---------------------------------------------------------------------------
# Certified convergence domain boundary

def boundary_csv_lines(rows: Sequence[Tuple[float, float]], depth: int,
                       seed: int, threshold: float,
                       points: Sequence[Tuple[float, float, bool]]) -> List[str]:
    lines = [csv_header("boundary", seed),
             f"# crude_threshold x_plus_y={_fmt(threshold)}"]
    for px, py, inside in points:
        lines.append(f"# point x={_fmt(px)} y={_fmt(py)} "
                     f"inside={'true' if inside else 'false'}")
    for x, ym in rows:
        if ym == Y_CAP:
            lines.append(f"# y_cap={_fmt(Y_CAP)} reached at x={_fmt(x)}")
    lines.append("x,y_max,depth")
    for x, ym in rows:
        lines.append(f"{_fmt(x)},{_fmt(ym)},{depth}")
    return lines


def write_boundary_csv(x_values: Sequence[float], depth: int, seed: int,
                       mirror: bool, path) -> None:
    """Scan the boundary over x_values and write its CSV to path.

    The crude all-commutator threshold and the classification of the two
    random-pair norm settings (0.5, 0.5) and (2.5, 2.5) ride along as
    comment lines, as does every row where the search hit Y_CAP.
    """
    if depth < 21:
        raise ValueError("boundary scans need depth at least 21")
    rows = boundary_scan(x_values, depth, tol=1e-3, mirror=mirror)
    threshold = crude_r_sequence(depth)[3]
    pairs = ((0.5, 0.5), (2.5, 2.5))
    points = [(px, py, inside) for (px, py), (inside, _)
              in zip(pairs, converges_many(pairs, depth))]
    write_lines(path, boundary_csv_lines(rows, depth, seed, threshold, points))


def run_boundary_csv(depth: int = 401, seed: int = 0,
                     path="boundary.csv") -> str:
    """Scan the domain boundary and write the CSV; returns the path written.

    Grid: x = 0.001 then 0.05..2.0 in steps of 0.05, mirrored so the rows
    describe the union of the domain and its x<->y reflection.
    """
    write_boundary_csv(DEFAULT_X_GRID, depth, seed, True, path)
    return path


# ---------------------------------------------------------------------------
# Closed-form checks over the bundled structure-constant algebras

class ExampleCheck(NamedTuple):
    name: str
    ok: bool
    diffs: Tuple[str, ...]     # one entry per mismatching coefficient


def _diff(label: str, expected, computed) -> str:
    return f"{label}: expected {expected}, computed {computed}"


# (algebra, pair, collapse direction, top degree, closed form of 2 m_k at
# k = 2j + 1, as a function of j)
_EXAMPLES = (
    ("solvable3", ("X", "Y"), "Y", 7,
     lambda j: UniPoly.monomial(Fraction(1, 4 ** j * factorial(2 * j + 1)),
                                j)),
    ("oscillator4", ("X", "W"), "X", 9,
     lambda j: UniPoly.monomial(
         Fraction(-2 * j, 4 ** j * factorial(2 * j + 1)), 2 * j)),
)


def run_examples() -> List[ExampleCheck]:
    """Exact coefficient checks for the two bundled algebras.

    In both, every term C_k is a multiple m_k of one basis element, so the
    middle product collapses to exp(2 sum(m_k) e_v).  Each 2 m_k is
    compared, as a whole polynomial, with its closed form:

    solvable3, pair (X, Y), direction Y: 2 m_k = t^j / (4^j k!), so
    1 + 2 sum(m_k) is the series of (2/sqrt(t)) sinh(sqrt(t)/2)
    (m_3 = t/48, m_5 = t^2/3840, m_7 = t^3/645120).

    oscillator4, pair (X, W), direction X: 2 m_k = -2j t^(2j) / (4^j k!),
    that is -1/12, -1/480, -1/53760, -1/11612160 at t^2, t^4, t^6, t^8.
    """
    checks = []
    for name, (x, y), direction, top, closed_form in _EXAMPLES:
        alg = bundled_algebra(name)
        terms = symmetric_terms(ScModule(alg), alg.basis_element(x),
                                alg.basis_element(y), top)
        hit = collapse_middle(alg, terms)
        if hit is None:
            diffs = [_diff("collapse direction", direction,
                           "no common direction")]
        else:
            v, series = hit
            diffs = []
            if alg.labels[v] != direction:
                diffs.append(_diff("collapse direction", direction,
                                   alg.labels[v]))
            for k in sorted(series):
                expected, computed = closed_form(k // 2), series[k].scale(2)
                if computed != expected:
                    diffs.append(_diff(f"2 m_{k}", expected, computed))
        checks.append(ExampleCheck(name, not diffs, tuple(diffs)))
    return checks
