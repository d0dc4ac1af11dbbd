"""Record the reference values that the benchmark's output checks compare
against, into perfbench/reference.json.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Rerun it only after a change that is meant to move these numbers, and say
why in the change.  The checks do not trust these values alone: the double
tables are also compared with the extended ones on the shapes they share.
"""

from __future__ import annotations

import json
import warnings

from mpmath import mp

from lie_split.bounds import boundary_scan, crude_r_sequence
from lie_split.experiments import DEFAULT_LAM_GRID, run_fig3

from workloads import BOUNDARY_POINTS, BOUNDARY_STEP, DEPTH, REFERENCE_PATH


def _num(v) -> str:
    """Round-trip text: repr for floats, 25 digits for mpmath values."""
    if isinstance(v, float):
        return repr(v)
    return mp.nstr(v, 25)


def _table(curves) -> dict:
    """{n: {lam: [symmetric, standard]}} with standard None when absent."""
    out = {}
    for curve in curves:
        out[curve.label] = {
            repr(lam): [_num(es), None if ed is None else _num(ed)]
            for lam, es, ed in curve.rows
        }
    return out


def main() -> None:
    warnings.simplefilter("ignore", RuntimeWarning)
    xs = [j * BOUNDARY_STEP for j in range(1, BOUNDARY_POINTS + 1)]
    rows = boundary_scan(xs, DEPTH, tol=1e-3, mirror=True)
    ref = {
        "fig3_double": _table(run_fig3()),
        "fig3_extended_51": _table(run_fig3(n_list=(51,), precision="extended")),
        "fig3_extended_101": _table(run_fig3(
            lam_grid=DEFAULT_LAM_GRID, n_list=(101,), precision="extended",
            include_standard=False)),
        "boundary_y_max": {str(j): ym for j, (_, ym) in enumerate(rows, 1)},
        "crude_threshold_401": crude_r_sequence(DEPTH)[3],
    }
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(REFERENCE_PATH)


if __name__ == "__main__":
    main()
