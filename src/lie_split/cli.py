"""Command-line front end.

Subcommands: terms, expand, eval-matrix, convergence, structconst, fig2,
fig3, verify.  Each subcommand takes only the flags its handler reads:
--out and --config on all of them, --seed on eval-matrix, convergence,
fig2 and fig3 (rejected with eval-matrix --x/--y and convergence --point,
which draw nothing from it), --precision on eval-matrix, fig2 and fig3.
A config file is a JSON object of the same flags, keyed by flag name
(``lam_grid`` for --lam-grid); it is parsed ahead of the command line, so
explicit flags win and both sources pass the same checks.  Exit codes: 0
success, 1 validation or I/O failure, 2 when the verify suite reports a
failing check.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .bounds import converges_many
from .engine import check_max_degree, symmetric_terms
from .experiments import (DEFAULT_LAM_GRID, fig2_csv_lines, fig3_csv_lines,
                          run_fig2, run_fig3, write_boundary_csv, write_lines,
                          ErrorCurve)
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


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return seed


def _list_of(kind):
    def parse(text: str) -> tuple:
        return tuple(kind(part) for part in text.split(","))
    parse.__name__ = f"comma-separated {kind.__name__}"   # argparse's message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lie-split",
                     description="palindromic splitting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, out=None, seed=False, precision=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if seed:
            # None when not given: read as 0, or rejected where unread
            p.add_argument("--seed", type=_seed, default=None)
        if precision:
            p.add_argument("--precision", choices=("double", "extended"),
                           default="double")
        p.add_argument("--out", default=out)
        p.add_argument("--config", help="JSON object of these flags")
        return p

    p = command("terms", _cmd_terms, "generate the odd splitting exponents")
    p.add_argument("--max-degree", type=int, default=9)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--check-counts", action="store_true")

    p = command("expand", _cmd_expand,
                "expand the exponents into associative words")
    p.add_argument("--max-degree", type=int, default=9)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = command("eval-matrix", _cmd_eval_matrix,
                "evaluate the splitting on a matrix pair",
                seed=True, precision=True)
    p.add_argument("--x", dest="x_path", default=None)
    p.add_argument("--y", dest="y_path", default=None)
    p.add_argument("--random", type=int, default=None, metavar="DIM")
    p.add_argument("--target", type=float, default=1.0,
                   help="norm target for --random pairs")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--max-degree", type=int, default=9)
    p.add_argument("--variant", choices=("symmetric", "standard"),
                   default="symmetric")

    p = command("convergence", _cmd_convergence,
                "certified convergence domain queries", seed=True)
    p.add_argument("--scan", default=None, metavar="X0:X1:STEPS")
    p.add_argument("--point", nargs=2, type=float, default=None,
                   metavar=("X_NORM", "Y_NORM"))
    p.add_argument("--depth", type=int, default=401)
    p.add_argument("--mirror", action="store_true")

    p = command("structconst", _cmd_structconst,
                "structure-constant algebras: validate and split")
    p.add_argument("source", help="bundled name (%s) or file path"
                   % ", ".join(BUNDLED))
    p.add_argument("--pair", default=None, metavar="A,B")
    p.add_argument("--max-degree", type=int, default=7)

    p = command("fig2", _cmd_fig2, "error-vs-degree curves for random pairs",
                out="fig2.csv", seed=True, precision=True)
    p.add_argument("--norms", type=_list_of(float), default=(0.5, 2.5),
                   metavar="N1,N2")
    p.add_argument("--n-max", type=int, default=51)
    p.add_argument("--dimension", type=int, default=20)
    p.add_argument("--trials", type=int, default=1)

    p = command("fig3", _cmd_fig3,
                "error-vs-lambda curves for the factored pair",
                out="fig3.csv", seed=True, precision=True)
    p.add_argument("--alpha", default="1/5")
    p.add_argument("--lam-grid", type=_list_of(float),
                   default=DEFAULT_LAM_GRID, metavar="L1,L2,...")
    p.add_argument("--n-list", type=_list_of(int), default=(51, 101, 201))

    p = command("verify", _cmd_verify, "run the self-check suite")
    p.add_argument("--checks", type=_list_of(int), default=None,
                   metavar="1,2,...")

    return parser


def _config_argv(parser: argparse.ArgumentParser, command: str,
                 path) -> List[str]:
    """The flags a JSON config file stands for, as argv for ``command``.

    Keys are the subcommand's flag names with underscores (``n_max`` for
    --n-max); lists are comma-joined, --point takes its two values, and
    true or false sets or leaves out a store_true flag.  An ``experiment``
    key, if present, must name the subcommand.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    experiment = raw.pop("experiment", command)
    if experiment != command:
        raise ValueError(f"{path}: config is for experiment {experiment!r}, "
                         f"not {command}")
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {opt[2:].replace("-", "_"): (opt, action)
             for action in subparsers.choices[command]._actions
             for opt in action.option_strings
             if opt not in ("-h", "--help", "--config")}
    unknown = sorted(set(raw) - set(flags))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    argv = []
    for key, value in raw.items():
        opt, action = flags[key]
        values = value if isinstance(value, list) else [value]
        if action.nargs == 0 and isinstance(value, bool):
            argv += [opt] if value else []
        elif action.nargs == 2:
            argv += [opt] + [str(v) for v in values]
        else:
            argv.append(f"{opt}={','.join(str(v) for v in values)}")
    return argv


def _emit(out: Optional[str], text: str) -> None:
    if out is None:
        print(text)
    else:
        write_lines(out, text.split("\n"))
        print(out)


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


def _cmd_eval_matrix(args) -> int:
    kit = kit_for(args.precision)
    if args.random is not None:
        if args.x_path or args.y_path:
            raise ValueError("give either --random or --x/--y, not both")
        seed = args.seed or 0
        x = random_matrix(args.random, args.target, seed)
        y = random_matrix(args.random, args.target, seed + 1)
    elif args.x_path and args.y_path:
        if args.seed is not None:
            raise ValueError("--seed draws --random pairs; --x/--y read none")
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
          f"precision={args.precision} error={float(err)!r}")
    if args.out is not None:
        save_matrix_csv(args.out, approx)
        print(args.out)
    return 0


def _cmd_convergence(args) -> int:
    if (args.scan is None) == (args.point is None):
        raise ValueError("convergence needs exactly one of --scan or --point")
    if args.point is not None:
        if args.seed is not None:
            raise ValueError("--seed labels --scan output; --point reads none")
        xn, yn = args.point
        points = [(xn, yn), (yn, xn)] if args.mirror else [(xn, yn)]
        ratio = min(r for _, r in converges_many(points, args.depth))
        _emit(args.out, f"converges={'true' if ratio < 1.0 else 'false'} "
                        f"ratio_tail={ratio}")
        return 0
    parts = args.scan.split(":")
    if len(parts) != 3:
        raise ValueError("scan must look like x0:x1:steps")
    try:
        x0, x1, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("scan must look like x0:x1:steps")
    if steps < 2 or not -np.inf < x0 < x1 < np.inf:
        raise ValueError("scan needs finite x1 > x0 and at least 2 steps")
    grid = np.linspace(x0, x1, steps)
    out = args.out or "boundary.csv"
    write_boundary_csv(grid, args.depth, args.seed or 0, args.mirror, out)
    print(out)
    return 0


def _cmd_structconst(args) -> int:
    check_max_degree(args.max_degree)
    if args.source in BUNDLED:
        algebra = bundled_algebra(args.source)
    else:
        algebra = load_sconst(args.source, validate=False)
    labels = [] if args.pair is None else args.pair.split(",")
    if len(labels) not in (0, 2):
        raise ValueError("--pair expects two comma-separated basis labels")
    pair = [algebra.basis_element(label.strip()) for label in labels]
    name = args.source
    print(f"algebra {name}: dim={len(algebra.labels)} "
          f"basis={','.join(algebra.labels)}")
    violation = sc_validate(algebra)
    if violation is not None:
        print(f"validation: {violation.kind} violated at "
              f"({','.join(violation.labels)}): {violation.detail}")
        return 1
    print("validation: ok")
    if not pair:
        return 0
    ex, ey = pair
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
            averaged.append(ErrorCurve(curve.label, rows, curve.carried))
    return averaged


def _cmd_fig2(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    kit = kit_for(args.precision)
    seed = args.seed or 0
    # run_fig2 draws two matrices per norm, from consecutive seeds
    curve_sets = [run_fig2(seed=seed + 2 * len(args.norms) * trial,
                           norms=args.norms, n_max=args.n_max,
                           dimension=args.dimension, kit=kit)
                  for trial in range(args.trials)]
    write_lines(args.out, fig2_csv_lines(_mean_curves(curve_sets, kit),
                                         seed, args.precision))
    print(args.out)
    return 0


def _cmd_fig3(args) -> int:
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--alpha expects a rational like 1/5, got {args.alpha!r}")
    curves = run_fig3(alpha=alpha, lam_grid=args.lam_grid, n_list=args.n_list,
                      precision=args.precision)
    write_lines(args.out, fig3_csv_lines(curves, args.seed or 0,
                                         args.precision))
    print(args.out)
    return 0


def _cmd_verify(args) -> int:
    only = None
    if args.checks is not None:
        only = set(args.checks)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the config's flags go first, so the command line overrides them
            args = parser.parse_args(
                [args.command] + _config_argv(parser, args.command, args.config)
                + argv[1:])
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
