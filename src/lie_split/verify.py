"""Self-check suite: one runner per shipped claim, with runtime budgets.

Each check returns a CheckResult; run_all executes them in order.  Checks
with a stated budget fail when they exceed it, whatever the values say.
Soft comparisons (the high-degree term counts, where the collected
representation is known to differ) report a warning in the detail string
without failing.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Set, Tuple

from .bounds import converges, crude_r_sequence, y_max
from .engine import (oracle_symmetric_terms, palindromic_product_series,
                     standard_terms, standard_terms_left, symmetric_terms)
from .experiments import run_examples, run_fig2, run_fig3
from .freelie import (FreeLieModule, LieCombo, bracket, collected_term_count,
                      expand_assoc, expands_equal, AssocPoly)
from .matrices import MatrixAlgebra, NumpyKit, frechet_pair, random_matrix
from .series import AssocPolyAlgebra, exp_factor


class CheckResult(NamedTuple):
    ident: int
    name: str
    ok: bool
    detail: str
    elapsed: float


def _generators():
    return LieCombo.generator("X"), LieCombo.generator("Y")


def _word_pair():
    return AssocPoly.word(("X",)), AssocPoly.word(("Y",))


# ---------------------------------------------------------------------------
# Individual checks; each returns (ok, detail)

def _check_golden_terms() -> Tuple[bool, str]:
    mod = FreeLieModule()
    X, Y = _generators()
    terms = symmetric_terms(mod, X, Y, 5)
    xy = bracket(X, Y)
    xxy = bracket(X, xy)
    yxy = bracket(Y, xy)
    g3 = xxy.scale(Fraction(1, 48)) + yxy.scale(Fraction(1, 24))
    g5 = (bracket(X, bracket(X, xxy)).scale(Fraction(1, 3840))
          + bracket(Y, bracket(X, xxy)).scale(Fraction(1, 960))
          + bracket(Y, bracket(Y, xxy)).scale(Fraction(1, 640))
          + bracket(Y, bracket(Y, yxy)).scale(Fraction(1, 960))
          + bracket(xy, xxy).scale(Fraction(-1, 960))
          + bracket(xy, yxy).scale(Fraction(-1, 480)))
    ok3 = expands_equal(terms[3], g3)
    ok5 = expands_equal(terms[5], g5)
    return ok3 and ok5, f"degree 3 match={ok3}, degree 5 match={ok5}"


def _check_even_vanishing() -> Tuple[bool, str]:
    alg = AssocPolyAlgebra()
    ax, ay = _word_pair()
    oracle = oracle_symmetric_terms(alg, ax, ay, 12)
    bad = [k for k in range(2, 13, 2) if not alg.is_zero(oracle[k])]
    return not bad, ("all even coefficients through 12 are zero polynomials"
                     if not bad else f"nonzero even coefficients at {bad}")


def _check_product_identity() -> Tuple[bool, str]:
    order = 9
    mod = FreeLieModule()
    X, Y = _generators()
    alg = AssocPolyAlgebra()
    ax, ay = _word_pair()
    expanded = {k: expand_assoc(v)
                for k, v in symmetric_terms(mod, X, Y, order).items()}
    prod = palindromic_product_series(alg, ax, ay, expanded, order)
    target = exp_factor(alg, alg.add(ax, ay), 1, order)
    bad = [j for j in range(order + 1)
           if prod.coefficient(j) != target.coefficient(j)]
    return not bad, ("palindromic product equals the exponential series "
                     f"through order {order}" if not bad
                     else f"coefficient mismatch at powers {bad}")


def _check_one_sided_goldens() -> Tuple[bool, str]:
    alg = AssocPolyAlgebra()
    ax, ay = _word_pair()
    X, Y = _generators()
    std = standard_terms(alg, ax, ay, 8)
    left = standard_terms_left(alg, ax, ay, 8)
    xy = bracket(X, Y)
    xxy = bracket(X, xy)
    goldens = {
        2: xy.scale(Fraction(-1, 2)),
        3: bracket(Y, xy).scale(Fraction(1, 3)) + xxy.scale(Fraction(1, 6)),
        4: (bracket(X, xxy).scale(Fraction(-1, 24))
            + bracket(Y, xxy).scale(Fraction(-1, 8))
            + bracket(Y, bracket(Y, xy)).scale(Fraction(-1, 8))),
    }
    bad = [k for k, g in goldens.items() if std[k] != expand_assoc(g)]
    flips = [i for i in range(2, 9)
             if left[i] != std[i].scale(Fraction((-1) ** (i + 1)))]
    ok = not bad and not flips
    return ok, (f"degree 2..4 match, sign relation holds through 8" if ok
                else f"golden mismatch at {bad}, sign relation fails at {flips}")


def _check_term_counts() -> Tuple[bool, str]:
    mod = FreeLieModule()
    X, Y = _generators()
    terms = symmetric_terms(mod, X, Y, 13)
    counts = {k: collected_term_count(terms[k]) for k in (3, 5, 7, 9, 11, 13)}
    hard = {3: 2, 5: 6, 7: 18, 9: 54}
    soft = {11: 132, 13: 630}
    bad = [k for k, want in hard.items() if counts[k] != want]
    warnings = [f"warning: degree {k} count {counts[k]} != {want} "
                "(representation-dependent)"
                for k, want in soft.items() if counts[k] != want]
    detail = "counts " + ", ".join(f"{k}:{counts[k]}" for k in sorted(counts))
    if warnings:
        detail += "; " + "; ".join(warnings)
    if bad:
        detail += f"; hard mismatch at degrees {bad}"
    return not bad, detail


def _check_scale_free_constants() -> Tuple[bool, str]:
    # the ratio sequence drifts like L - c/k, so the tail estimate needs a
    # depth well past the minimum before it stabilizes to three decimals
    _, _, limit, threshold = crude_r_sequence(1601)
    ok_l = abs(limit - 0.5717) <= 1e-3
    ok_t = abs(threshold - 1.3225) <= 2e-3
    return ok_l and ok_t, (f"ratio limit {limit:.4f}, threshold {threshold:.4f} "
                           "at depth 1601")


def _check_certified_domain() -> Tuple[bool, str]:
    ym = y_max(0.001, 401)
    inside, r_in = converges(0.5, 0.5, 401)
    outside, r_out = converges(2.5, 2.5, 401)
    axis, _ = converges(5.0, 0.001, 401)
    ok = abs(ym - 1.539) <= 0.02 and inside and not outside and axis
    return ok, (f"y_max(0.001)={ym:.4f}; (0.5,0.5) ratio {r_in:.3f}; "
                f"(2.5,2.5) ratio {r_out:.3f}; (5.0,0.001) convergent={axis}")


def _example_check(name: str) -> Tuple[bool, str]:
    for check in run_examples():
        if check.name == name:
            if check.ok:
                return True, "all coefficients match exactly"
            return False, "; ".join(check.diffs)
    return False, f"no check named {name}"


def _check_solvable3() -> Tuple[bool, str]:
    return _example_check("solvable3")


def _check_oscillator4() -> Tuple[bool, str]:
    return _example_check("oscillator4")


def _check_error_decay() -> Tuple[bool, str]:
    curves = run_fig2(seed=0)
    small, large = curves
    at_small = {n: (es, ed) for n, es, ed in small.rows}
    at_large = {n: (es, ed) for n, es, ed in large.rows}
    floor_ok = at_small[51][0] <= 1e-10
    below_std = at_small[51][0] < at_small[51][1]
    sym_drops = at_large[51][0] < 0.1 * at_large[5][0]
    std_stalls = at_large[51][1] > 0.5 * at_large[5][1]
    ok = floor_ok and below_std and sym_drops and std_stalls
    return ok, (f"norm 0.5: sym(51)={at_small[51][0]:.2e} vs "
                f"std(51)={at_small[51][1]:.2e}; norm 2.5: "
                f"sym(51)/sym(5)={at_large[51][0] / at_large[5][0]:.2e}, "
                f"std(51)/std(5)={at_large[51][1] / at_large[5][1]:.2e}")


def _check_factored_pair() -> Tuple[bool, str]:
    kit = NumpyKit()
    x, y = frechet_pair(kit, 0.2)
    fx, fy = kit.frobenius(x), kit.frobenius(y)
    norms_ok = abs(fx - 15.7205) <= 1e-3 and abs(fy - 12.8379) <= 1e-3
    ref = kit.expm(kit.add(x, y))
    rel = kit.norm2(kit.sub(ref, kit.matmul(kit.expm(x), kit.expm(y))))
    rel /= kit.norm2(ref)
    ident_ok = rel <= 1e-10

    t0 = time.perf_counter()
    dbl = run_fig3(lam_grid=(0.13,), n_list=(201,), precision="double",
                   include_standard=False)[0].rows[0][1]
    t_dbl = time.perf_counter() - t0
    t0 = time.perf_counter()
    ext = run_fig3(lam_grid=(0.13,), n_list=(201,), precision="extended",
                   include_standard=False)[0].rows[0][1]
    t_ext = time.perf_counter() - t0
    dbl_ok = dbl <= 1e-12 and t_dbl < 300.0
    ext_ok = ext <= 1e-17 and t_ext < 1800.0
    ok = norms_ok and ident_ok and dbl_ok and ext_ok
    return ok, (f"norms ({fx:.4f}, {fy:.4f}); identity rel err {rel:.2e}; "
                f"lam=0.13 n=201: double {dbl:.2e} in {t_dbl:.0f}s, "
                f"extended {float(ext):.2e} in {t_ext:.0f}s")


def _check_matrix_oracle() -> Tuple[bool, str]:
    kit = NumpyKit()
    worst_pair = 0.0
    worst_hom = 0.0
    for seed, target in ((101, 0.6), (103, 1.1)):
        x = random_matrix(5, target, seed)
        y = random_matrix(5, target, seed + 1)
        mod = MatrixAlgebra(kit, 5)
        terms = symmetric_terms(mod, x, y, 11)
        oracle = oracle_symmetric_terms(MatrixAlgebra(kit, 5), x, y, 11)
        for k in range(3, 12, 2):
            rel = kit.norm2(kit.sub(terms[k], oracle[k])) / kit.norm2(terms[k])
            worst_pair = max(worst_pair, rel)
        lam = 0.37
        scaled = symmetric_terms(mod, kit.scale(lam, x), kit.scale(lam, y), 11)
        for k in range(3, 12, 2):
            want = kit.scale(kit.power(lam, k), terms[k])
            rel = kit.norm2(kit.sub(scaled[k], want)) / kit.norm2(want)
            worst_hom = max(worst_hom, rel)
    ok = worst_pair <= 1e-12 and worst_hom <= 1e-12
    return ok, (f"worst oracle deviation {worst_pair:.2e}, "
                f"worst homogeneity deviation {worst_hom:.2e}")


# ---------------------------------------------------------------------------
# Registry and driver

CHECKS: List[Tuple[int, str, float, Callable[[], Tuple[bool, str]]]] = [
    (1, "golden-terms", 1.0, _check_golden_terms),
    (2, "even-term-vanishing", 30.0, _check_even_vanishing),
    (3, "product-identity", math.inf, _check_product_identity),
    (4, "one-sided-goldens", math.inf, _check_one_sided_goldens),
    (5, "term-counts", 300.0, _check_term_counts),
    (6, "scale-free-constants", 10.0, _check_scale_free_constants),
    (7, "certified-domain", 120.0, _check_certified_domain),
    (8, "solvable3-closed-form", 5.0, _check_solvable3),
    (9, "oscillator4-coefficients", 10.0, _check_oscillator4),
    (10, "random-pair-error-decay", 180.0, _check_error_decay),
    (11, "factored-pair-accuracy", 2100.0, _check_factored_pair),
    (12, "matrix-oracle-agreement", math.inf, _check_matrix_oracle),
]


def run_check(ident: int) -> CheckResult:
    for cid, name, budget, fn in CHECKS:
        if cid == ident:
            started = time.perf_counter()
            try:
                ok, detail = fn()
            except Exception as exc:       # a crash is a failing check
                elapsed = time.perf_counter() - started
                return CheckResult(cid, name, False,
                                   f"raised {type(exc).__name__}: {exc}",
                                   elapsed)
            elapsed = time.perf_counter() - started
            if elapsed >= budget:
                ok = False
                detail += f"; exceeded {budget:g} s budget"
            return CheckResult(cid, name, ok, detail, elapsed)
    raise ValueError(f"no check with id {ident}")


def run_all(only: Optional[Set[int]] = None) -> List[CheckResult]:
    results = []
    for cid, _, _, _ in CHECKS:
        if only is not None and cid not in only:
            continue
        results.append(run_check(cid))
    return results


def format_result(res: CheckResult) -> str:
    status = "PASS" if res.ok else "FAIL"
    return (f"{status} {res.ident:2d} {res.name}: {res.detail} "
            f"[{res.elapsed:.1f}s]")
