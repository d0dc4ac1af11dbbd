"""Command-line front end.

Subcommands: terms, expand, eval-matrix, convergence, structconst, fig2,
fig3, verify.  Common flags (--seed, --precision, --out, --config) attach to
every subcommand; a JSON config file supplies defaults that explicit flags
override.  Exit codes: 0 success, 1 validation or I/O failure, 2 when the
verify suite reports a failing check.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .bounds import converges_many
from .engine import symmetric_terms
from .experiments import (ExperimentConfig, fig2_csv_lines, fig3_csv_lines,
                          load_config, run_fig2, run_fig3, write_boundary_csv,
                          write_lines, ErrorCurve)
from .freelie import (FreeLieModule, LieCombo, collected_term_count,
                      combo_to_json, expand_assoc)
from .matrices import (kit_for, load_matrix_csv, psi_standard, psi_symmetric,
                       random_matrix, save_matrix_csv, splitting_error)
from .scalars import format_rational
from .structconst import (BUNDLED, ScModule, bundled_algebra, collapse_middle,
                          load_sconst, sc_validate)
from .verify import CHECKS, format_result, run_all


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; here 2 is reserved for
    failing verification, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--precision", choices=("double", "extended"),
                        default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--config", default=None)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = _Parser(prog="lie-split",
                     description="palindromic splitting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("terms", parents=[common],
                       help="generate the odd splitting exponents")
    p.add_argument("--max-degree", type=int, default=9)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--check-counts", action="store_true")

    p = sub.add_parser("expand", parents=[common],
                       help="expand the exponents into associative words")
    p.add_argument("--max-degree", type=int, default=9)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("eval-matrix", parents=[common],
                       help="evaluate the splitting on a matrix pair")
    p.add_argument("--x", dest="x_path", default=None)
    p.add_argument("--y", dest="y_path", default=None)
    p.add_argument("--random", type=int, default=None, metavar="DIM")
    p.add_argument("--target", type=float, default=1.0,
                   help="norm target for --random pairs")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--max-degree", type=int, default=9)
    p.add_argument("--variant", choices=("symmetric", "standard"),
                   default="symmetric")

    p = sub.add_parser("convergence", parents=[common],
                       help="certified convergence domain queries")
    p.add_argument("--scan", default=None, metavar="X0:X1:STEPS")
    p.add_argument("--point", nargs=2, type=float, default=None,
                   metavar=("X_NORM", "Y_NORM"))
    p.add_argument("--depth", type=int, default=401)
    p.add_argument("--mirror", action="store_true")

    p = sub.add_parser("structconst", parents=[common],
                       help="structure-constant algebras: validate and split")
    p.add_argument("source", help="bundled name (%s) or file path"
                   % ", ".join(BUNDLED))
    p.add_argument("--pair", default=None, metavar="A,B")
    p.add_argument("--max-degree", type=int, default=7)

    p = sub.add_parser("fig2", parents=[common],
                       help="error-vs-degree curves for random pairs")
    p.add_argument("--norms", default=None, metavar="N1,N2")
    p.add_argument("--n-max", type=int, default=51)
    p.add_argument("--dimension", type=int, default=None)
    p.add_argument("--trials", type=int, default=1)

    p = sub.add_parser("fig3", parents=[common],
                       help="error-vs-lambda curves for the factored pair")
    p.add_argument("--alpha", default="1/5")
    p.add_argument("--lam-grid", default=None, metavar="L1,L2,...")
    p.add_argument("--n-list", default="51,101,201")

    p = sub.add_parser("verify", parents=[common],
                       help="run the self-check suite")
    p.add_argument("--checks", default=None, metavar="1,2,...")

    return parser


def _load_cfg(args) -> Optional[ExperimentConfig]:
    if getattr(args, "config", None) is None:
        return None
    return load_config(args.config)


def _pick(cli_value, cfg_value, fallback):
    if cli_value is not None:
        return cli_value
    if cfg_value is not None:
        return cfg_value
    return fallback


def _emit(out: Optional[str], text: str) -> None:
    if out is None:
        print(text)
    else:
        write_lines(out, text.split("\n"))
        print(out)


def _parse_floats(spec: str, flag: str) -> tuple:
    try:
        values = tuple(float(part) for part in spec.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {spec!r}")
    if not values:
        raise ValueError(f"{flag} must list at least one value")
    return values


def _parse_ints(spec: str, flag: str) -> tuple:
    try:
        return tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {spec!r}")


def _symbolic_table(max_degree: int):
    mod = FreeLieModule()
    x = LieCombo.generator("X")
    y = LieCombo.generator("Y")
    return symmetric_terms(mod, x, y, max_degree)


def _cmd_terms(args) -> int:
    table = _symbolic_table(args.max_degree)
    if args.check_counts:
        lines = [f"degree {k}: {collected_term_count(table[k])}"
                 for k in sorted(table)]
        _emit(args.out, "\n".join(lines))
        return 0
    if args.format == "json":
        payload = {str(k): combo_to_json(table[k]) for k in sorted(table)}
        _emit(args.out, json.dumps(payload, indent=2))
    else:
        _emit(args.out, "\n".join(f"C[{k}] = {table[k]}" for k in sorted(table)))
    return 0


def _cmd_expand(args) -> int:
    table = _symbolic_table(args.max_degree)
    expanded = {k: expand_assoc(v) for k, v in table.items()}
    if args.format == "json":
        payload = {
            str(k): [{"coeff": format_rational(c), "word": "".join(w)}
                     for w, c in sorted(poly.terms.items())]
            for k, poly in expanded.items()
        }
        _emit(args.out, json.dumps(payload, indent=2))
    else:
        _emit(args.out,
              "\n".join(f"C[{k}] = {expanded[k]}" for k in sorted(expanded)))
    return 0


def _cmd_eval_matrix(args, cfg) -> int:
    precision = _pick(args.precision, cfg.precision if cfg else None, "double")
    seed = _pick(args.seed, cfg.seed if cfg else None, 0)
    kit = kit_for(precision)
    if args.random is not None:
        if args.x_path or args.y_path:
            raise ValueError("give either --random or --x/--y, not both")
        x = random_matrix(args.random, args.target, seed)
        y = random_matrix(args.random, args.target, seed + 1)
    elif args.x_path and args.y_path:
        x = load_matrix_csv(args.x_path)
        y = load_matrix_csv(args.y_path)
    else:
        raise ValueError("eval-matrix needs --x and --y, or --random DIM")
    x, y = kit.from_numpy(x), kit.from_numpy(y)
    if args.variant == "symmetric":
        approx = psi_symmetric(kit, x, y, args.lam, args.max_degree)
    else:
        approx = psi_standard(kit, x, y, args.lam, args.max_degree)
    err = splitting_error(kit, x, y, args.lam, approx)
    print(f"variant={args.variant} lam={args.lam} n={args.max_degree} "
          f"precision={precision} error={float(err)!r}")
    if args.out is not None:
        save_matrix_csv(args.out, approx)
        print(args.out)
    return 0


def _cmd_convergence(args, cfg) -> int:
    seed = _pick(args.seed, cfg.seed if cfg else None, 0)
    if (args.scan is None) == (args.point is None):
        raise ValueError("convergence needs exactly one of --scan or --point")
    if args.point is not None:
        xn, yn = args.point
        points = [(xn, yn), (yn, xn)] if args.mirror else [(xn, yn)]
        ratio = min(r for _, r in converges_many(points, args.depth))
        print(f"converges={'true' if ratio < 1.0 else 'false'} "
              f"ratio_tail={ratio}")
        return 0
    parts = args.scan.split(":")
    if len(parts) != 3:
        raise ValueError("scan must look like x0:x1:steps")
    try:
        x0, x1, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("scan must look like x0:x1:steps")
    if steps < 2 or x1 <= x0:
        raise ValueError("scan needs x1 > x0 and at least 2 steps")
    grid = np.linspace(x0, x1, steps)
    out = args.out or (cfg.out if cfg else None) or "boundary.csv"
    write_boundary_csv(grid, args.depth, seed, args.mirror, out)
    print(out)
    return 0


def _cmd_structconst(args) -> int:
    if args.source in BUNDLED:
        algebra = bundled_algebra(args.source)
    else:
        algebra = load_sconst(args.source, validate=False)
    name = args.source
    print(f"algebra {name}: dim={len(algebra.labels)} "
          f"basis={','.join(algebra.labels)}")
    violation = sc_validate(algebra)
    if violation is not None:
        print(f"validation: {violation.kind} violated at "
              f"({','.join(violation.labels)}): {violation.detail}")
        return 1
    print("validation: ok")
    if args.pair is None:
        return 0
    labels = [part.strip() for part in args.pair.split(",")]
    if len(labels) != 2:
        raise ValueError("--pair expects two comma-separated basis labels")
    ex = algebra.basis_element(labels[0])
    ey = algebra.basis_element(labels[1])
    mod = ScModule(algebra)
    table = symmetric_terms(mod, ex, ey, args.max_degree)
    lines = []
    collapsed = collapse_middle(algebra, table)
    if collapsed is not None:
        direction, ms = collapsed
        lines.append(f"direction={algebra.labels[direction]}")
        for k in sorted(ms):
            lines.append(f"m[{k}] = {ms[k]}")
    else:
        for k in sorted(table):
            lines.append(f"C[{k}] = {algebra.format(table[k])}")
    _emit(args.out, "\n".join(lines))
    return 0


def _mean_curves(curve_sets: List[List[ErrorCurve]], kit) -> List[ErrorCurve]:
    """Pointwise arithmetic mean of matching curves from repeated trials.
    The mean keeps the values' type and is taken in the kit's context:
    floats stay floats, mpmath values keep the kit's digits."""
    first = curve_sets[0]
    if len(curve_sets) == 1:
        return first
    averaged = []
    with kit.context():
        for idx, curve in enumerate(first):
            rows = []
            for row_idx, (value, _, _) in enumerate(curve.rows):
                syms = [cs[idx].rows[row_idx][1] for cs in curve_sets]
                stds = [cs[idx].rows[row_idx][2] for cs in curve_sets]
                rows.append((value, sum(syms) / len(syms),
                             sum(stds) / len(stds)))
            averaged.append(ErrorCurve(curve.label, curve.sweep, rows,
                                       curve.carried))
    return averaged


def _cmd_fig2(args, cfg) -> int:
    seed = _pick(args.seed, cfg.seed if cfg else None, 0)
    dimension = _pick(args.dimension, cfg.dimension if cfg else None, 20)
    norms = (cfg.norms if cfg else None) or (0.5, 2.5)
    if args.norms is not None:
        norms = _parse_floats(args.norms, "--norms")
    precision = _pick(args.precision, cfg.precision if cfg else None, "double")
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    kit = kit_for(precision)
    curve_sets = [run_fig2(seed=seed + trial, norms=norms, n_max=args.n_max,
                           dimension=dimension, kit=kit)
                  for trial in range(args.trials)]
    lines = fig2_csv_lines(_mean_curves(curve_sets, kit), seed, precision)
    out = args.out or (cfg.out if cfg else None) or "fig2.csv"
    write_lines(out, lines)
    print(out)
    return 0


def _cmd_fig3(args, cfg) -> int:
    seed = _pick(args.seed, cfg.seed if cfg else None, 0)
    precision = _pick(args.precision, cfg.precision if cfg else None, "double")
    lam_grid = (cfg.lam_grid if cfg else None)
    if args.lam_grid is not None:
        lam_grid = _parse_floats(args.lam_grid, "--lam-grid")
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--alpha expects a rational like 1/5, got {args.alpha!r}")
    n_list = _parse_ints(args.n_list, "--n-list")
    curves = run_fig3(alpha=alpha, lam_grid=lam_grid, n_list=n_list,
                      precision=precision)
    lines = fig3_csv_lines(curves, seed, precision)
    out = args.out or (cfg.out if cfg else None) or "fig3.csv"
    write_lines(out, lines)
    print(out)
    return 0


def _cmd_verify(args) -> int:
    only = None
    if args.checks is not None:
        only = set(_parse_ints(args.checks, "--checks"))
        known = {cid for cid, _, _, _ in CHECKS}
        bad = only - known
        if bad:
            raise ValueError(f"unknown check ids {sorted(bad)}")
    results = run_all(only)
    lines = [format_result(res) for res in results]
    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        write_lines(args.out, lines)
    return 0 if all(res.ok for res in results) else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_cfg(args)
        if args.command == "terms":
            return _cmd_terms(args)
        if args.command == "expand":
            return _cmd_expand(args)
        if args.command == "eval-matrix":
            return _cmd_eval_matrix(args, cfg)
        if args.command == "convergence":
            return _cmd_convergence(args, cfg)
        if args.command == "structconst":
            return _cmd_structconst(args)
        if args.command == "fig2":
            return _cmd_fig2(args, cfg)
        if args.command == "fig3":
            return _cmd_fig3(args, cfg)
        if args.command == "verify":
            return _cmd_verify(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
