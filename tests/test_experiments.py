import math

import numpy as np
import pytest

from lie_split import __version__, experiments
from lie_split.experiments import (DEFAULT_LAM_GRID, DEFAULT_X_GRID,
                                   ErrorCurve, boundary_csv_lines, csv_header,
                                   fig2_csv_lines, fig3_csv_lines,
                                   run_boundary_csv, run_examples, run_fig2,
                                   run_fig3, write_lines)


def test_csv_header_embeds_version_and_seed():
    line = csv_header("fig2", 7)
    assert line == f"# lie-split v{__version__} experiment=fig2 seed=7"


def test_default_grids_are_sane():
    assert 0.13 in DEFAULT_LAM_GRID
    assert all(0 < lam <= 1 for lam in DEFAULT_LAM_GRID)
    assert DEFAULT_X_GRID[0] == 0.001
    assert all(b > a for a, b in zip(DEFAULT_X_GRID, DEFAULT_X_GRID[1:]))


def test_run_fig2_shape_and_flags():
    curves = run_fig2(seed=0, norms=(0.5,), n_max=11, dimension=6)
    assert len(curves) == 1
    curve = curves[0]
    assert curve.label == "0.5"
    ns = [row[0] for row in curve.rows]
    assert ns == list(range(2, 12))
    assert len(curve.carried) == len(curve.rows)
    by_n = {row[0]: row for row in curve.rows}
    flags = dict(zip(ns, curve.carried))
    # even rows past the Strang step repeat the previous odd value
    for n in (4, 6, 8, 10):
        assert flags[n] == 1
        assert by_n[n][1] == by_n[n - 1][1]
    assert flags[2] == 0 and flags[5] == 0
    for _, err_sym, err_std in curve.rows:
        assert err_sym >= 0 and err_std >= 0


def test_run_fig2_errors_decay_at_small_norm():
    curves = run_fig2(seed=0, norms=(0.5,), n_max=21, dimension=8)
    rows = {row[0]: row for row in curves[0].rows}
    assert rows[21][1] < rows[3][1]
    assert rows[21][1] < rows[21][2]


def test_run_fig2_validation():
    with pytest.raises(ValueError):
        run_fig2(seed=0, norms=(0.5,), n_max=4)


def test_fig2_csv_lines_schema_and_determinism():
    curves = run_fig2(seed=3, norms=(0.5,), n_max=9, dimension=5)
    lines = fig2_csv_lines(curves, 3)
    assert lines[0] == csv_header("fig2", 3)
    assert lines[1] == "# precision=double"
    assert lines[2] == "norm,n,error_symmetric,error_standard,carried"
    assert len(lines) == 3 + len(curves[0].rows)
    again = fig2_csv_lines(run_fig2(seed=3, norms=(0.5,), n_max=9,
                                    dimension=5), 3)
    assert lines == again


def test_run_fig3_rows_and_accuracy_ordering():
    curves = run_fig3(lam_grid=(0.1, 0.3), n_list=(5, 9), precision="double")
    assert [c.label for c in curves] == ["5", "9"]
    for curve in curves:
        assert [row[0] for row in curve.rows] == [0.1, 0.3]
    shallow = dict((row[0], row[1]) for row in curves[0].rows)
    deep = dict((row[0], row[1]) for row in curves[1].rows)
    assert deep[0.1] < shallow[0.1]


def test_run_fig3_deep_degree_does_not_overflow():
    curves = run_fig3(lam_grid=(0.13,), n_list=(201, 301),
                      include_standard=False)
    e201 = curves[0].rows[0][1]
    e301 = curves[1].rows[0][1]
    assert math.isfinite(e301)
    assert e301 <= 10 * e201


def test_run_fig3_standard_terms_do_not_overflow():
    # lambda = 0.05 lies inside the one-sided radius (about 0.084); unscaled,
    # the pair's one-sided terms overflowed near k = 290 and n = 301 read inf
    curves = run_fig3(lam_grid=(0.05,), n_list=(201, 301))
    e201, e301 = (curve.rows[0][2] for curve in curves)
    assert e201 <= 1e-13
    assert math.isfinite(e301) and e301 <= 1e-13
    # 2^(j k) stays a finite float at depth 401; lambda = 0.13 lies outside
    # the radius, where the one-sided product diverges
    deep = run_fig3(lam_grid=(0.05, 0.13), n_list=(401,))[0]
    assert deep.rows[0][1] <= 1e-13 and deep.rows[0][2] <= 1e-13
    assert not deep.rows[1][2] <= 1.0


def test_figures_and_psi_standard_form_no_series_product(monkeypatch):
    # the one-sided exponents come from the bracket recursion; the series
    # peels are oracles only
    from lie_split.matrices import NumpyKit, psi_standard, random_matrix
    from lie_split.series import TruncSeries

    def refuse(self, other):
        raise AssertionError("series product on a figure path")
    monkeypatch.setattr(TruncSeries, "__mul__", refuse)
    run_fig2(seed=0, norms=(0.5,), n_max=7, dimension=3)
    run_fig3(lam_grid=(0.5,), n_list=(5,))
    psi_standard(NumpyKit(), random_matrix(3, 0.5, 0), random_matrix(3, 0.5, 1),
                 0.5, 6)


def test_run_fig3_validation():
    with pytest.raises(ValueError):
        run_fig3(alpha=0)
    with pytest.raises(ValueError):
        run_fig3(n_list=(4,))
    with pytest.raises(ValueError):
        run_fig3(lam_grid=(0.0,))
    with pytest.raises(ValueError):
        run_fig3(lam_grid=(1.2,))


def test_fig3_csv_lines_schema():
    curves = run_fig3(lam_grid=(0.2,), n_list=(5,), precision="double")
    lines = fig3_csv_lines(curves, 0, "double")
    assert lines[0] == csv_header("fig3", 0)
    assert lines[1] == "# precision=double"
    assert lines[2] == "lam,n,error_symmetric,error_standard"
    assert len(lines) == 4


def test_fig3_csv_refuses_missing_standard_column():
    curves = run_fig3(lam_grid=(0.2,), n_list=(5,), precision="double",
                      include_standard=False)
    with pytest.raises(ValueError):
        fig3_csv_lines(curves, 0, "double")


def test_boundary_csv_lines_layout():
    rows = [(0.001, 1.539), (0.5, 1.2)]
    points = [(0.5, 0.5, True), (2.5, 2.5, False)]
    lines = boundary_csv_lines(rows, 401, 0, 1.3225, points)
    assert lines[0] == csv_header("boundary", 0)
    assert lines[1].startswith("# crude_threshold x_plus_y=")
    assert "# point x=0.5 y=0.5 inside=true" in lines
    assert "# point x=2.5 y=2.5 inside=false" in lines
    assert lines[-3] == "x,y_max,depth"
    assert lines[-2] == "0.001,1.539,401"
    assert lines[-1] == "0.5,1.2,401"


def test_run_boundary_csv_writes_file(tmp_path):
    out = tmp_path / "b.csv"
    path = run_boundary_csv(depth=51, path=str(out))
    assert path == str(out)
    text = out.read_text().splitlines()
    assert text[0] == csv_header("boundary", 0)
    data = [line for line in text if not line.startswith("#")]
    assert data[0] == "x,y_max,depth"
    first = data[1].split(",")
    assert float(first[0]) == 0.001
    assert first[2] == "51"


def test_write_lines_reports_path_on_failure(tmp_path):
    target = tmp_path / "missing_dir" / "x.csv"
    with pytest.raises(OSError, match="missing_dir"):
        write_lines(str(target), ["a"])


def test_run_examples_all_pass():
    checks = run_examples()
    assert [c.name for c in checks] == ["solvable3", "oscillator4"]
    for check in checks:
        assert check.ok, check.diffs
        assert not check.diffs


def test_run_examples_reports_a_wrong_closed_form(monkeypatch):
    name, pair, direction, top, closed_form = experiments._EXAMPLES[0]
    wrong = (name, pair, direction, top,
             lambda j: closed_form(j).scale(2) if j == 2 else closed_form(j))
    monkeypatch.setattr(experiments, "_EXAMPLES",
                        (wrong,) + experiments._EXAMPLES[1:])
    bad, good = run_examples()
    assert not bad.ok
    assert bad.diffs == ("2 m_5: expected 1/960 t^2, computed 1/1920 t^2",)
    assert good.ok and not good.diffs
