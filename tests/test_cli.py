import hashlib
import json

import numpy as np
import pytest

from lie_split.bounds import converges
from lie_split.cli import main
from lie_split.experiments import fig2_csv_lines, run_fig2
from lie_split.matrices import random_matrix, save_matrix_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_terms_text_lists_odd_degrees(capsys):
    code, out, _ = run(capsys, "terms", "--max-degree", "5")
    assert code == 0
    assert "C[3] = 1/48*[X,[X,Y]] + 1/24*[Y,[X,Y]]" in out
    assert "C[5]" in out


def test_terms_json_round_trips(capsys):
    code, out, _ = run(capsys, "terms", "--max-degree", "5", "--format",
                       "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"3", "5"}
    assert payload["3"][0]["coeff"] == "1/48"
    assert payload["3"][0]["tree"] == ["X", ["X", "Y"]]


def test_terms_check_counts(capsys):
    code, out, _ = run(capsys, "terms", "--max-degree", "9",
                       "--check-counts")
    assert code == 0
    assert "degree 3: 2" in out
    assert "degree 9: 54" in out


def test_terms_out_writes_file(tmp_path, capsys):
    target = tmp_path / "terms.json"
    code, out, _ = run(capsys, "terms", "--max-degree", "3", "--format",
                       "json", "--out", str(target))
    assert code == 0
    assert str(target) in out
    assert json.loads(target.read_text())["3"]


def test_expand_emits_words(capsys):
    code, out, _ = run(capsys, "expand", "--max-degree", "3", "--format",
                       "json")
    assert code == 0
    payload = json.loads(out)
    words = {item["word"]: item["coeff"] for item in payload["3"]}
    assert words["XXY"] == "1/48"
    assert words["YXY"] == "1/12"


# sha256 of `expand --max-degree 11 --format json` on stdout, as written
# by the Fraction-coefficient expansion that the integer kernels replaced
EXPAND_11_SHA256 = (
    "f9fb2d6ed035d57897823540392db22531c2e5e51a622373472ff4d93b610c4a")


def test_expand_json_is_byte_identical_to_the_golden_output(capsys):
    code, out, _ = run(capsys, "expand", "--max-degree", "11", "--format",
                       "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_11_SHA256


# sha256 of `expand --max-degree 13 --format json` on stdout, as written by
# the tree-by-tree expansion with a module-level memo that the grouped
# expansion replaced; the benchmark's expand job writes this output
EXPAND_13_SHA256 = (
    "34e2b3e045447a202610200fe9928e0698e9b776b6fab161cd762381a60c6ea2")


def test_expand_13_json_is_byte_identical_to_the_golden_output(capsys):
    code, out, _ = run(capsys, "expand", "--max-degree", "13", "--format",
                       "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_13_SHA256


# sha256 of `terms` stdout as written by the Fraction-dict LieCombo that
# the common-denominator storage replaced
TERMS_SHA256 = [
    (["terms", "--max-degree", "13", "--format", "json"],
     "c3013876ff439d234075b6b0a7d26e24cb8d28ba01a6738733bfc3a31022d860"),
    (["terms", "--max-degree", "11"],
     "f5e647d1464bf8a463443e050cdb3d43e3e9b6c6e34249e48e57536acf7f74c0"),
    (["terms", "--max-degree", "17", "--check-counts"],
     "90e7bce39749114ee3790d69c02fa699d996095356a7e2710d482578c7c741f9"),
]


# sha256 of `structconst` stdout for the two bundled pairs, as written by
# the dense Fraction-tuple UniPoly that the shared exact combination replaced
STRUCTCONST_SHA256 = [
    (["structconst", "solvable3", "--pair", "X,Y", "--max-degree", "51"],
     "d28752d7ddf023d2ab67220fd38153b908b219401520bad9e41cf4841e2a9fff"),
    (["structconst", "oscillator4", "--pair", "X,W", "--max-degree", "51"],
     "cea5d5181c408eb5bdf5b024350db8be266fd81e685b573a48b69516d11f8ae1"),
]


@pytest.mark.parametrize("argv, digest", TERMS_SHA256,
                         ids=["json-13", "text-11", "counts-17"])
def test_terms_output_is_byte_identical_to_the_golden_output(
        capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", STRUCTCONST_SHA256,
                         ids=["solvable3-51", "oscillator4-51"])
def test_structconst_output_is_byte_identical_to_the_golden_output(
        capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of extended --out CSVs as written while MPKit exponentiated every
# matrix beyond 2 x 2 with mp.expm: an 8 x 8 one-sided product and a 4 x 4
# fig2 curve, both through that path at every degree; and the 6 x 6
# palindromic product of the benchmark's extended eval-matrix shape, as
# written while MPKit formed every product and seed bracket on mpf arrays
EXTENDED_OUT_SHA256 = [
    (["eval-matrix", "--random", "8", "--target", "2.0", "--max-degree",
      "15", "--variant", "standard", "--seed", "5"],
     "d14a8eee3e7920cff60f5a298d862a455a5bdd6eded3dd84cde1500e7c6372ea"),
    (["fig2", "--dimension", "4", "--n-max", "11", "--seed", "3"],
     "b90cc286f7fc7c4fa19804a75146a5a8d2ae2965640788b3a7101d0df45c0321"),
    (["eval-matrix", "--random", "6", "--target", "1.0", "--max-degree",
      "21", "--seed", "0"],
     "069335599e0b4f480aec98d5161dbf46b30cef0e28df2a91e833087c3dab2663"),
]


@pytest.mark.parametrize("argv, digest", EXTENDED_OUT_SHA256,
                         ids=["eval-matrix", "fig2", "eval-matrix-6x6"])
def test_extended_outputs_are_byte_identical_to_the_golden_output(
        tmp_path, capsys, argv, digest):
    out = tmp_path / "out.csv"
    code, _, _ = run(capsys, *argv, "--precision", "extended", "--out",
                     str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_even_max_degree_is_validation_failure(capsys):
    code, _, err = run(capsys, "terms", "--max-degree", "6")
    assert code == 1
    assert "error:" in err


def test_convergence_point_output_format(capsys):
    code, out, _ = run(capsys, "convergence", "--point", "0.5", "0.5")
    assert code == 0
    assert out.startswith("converges=true ratio_tail=")
    code, out, _ = run(capsys, "convergence", "--point", "2.5", "2.5")
    assert code == 0
    assert out.startswith("converges=false ratio_tail=")


def test_convergence_scan_writes_csv(tmp_path, capsys):
    target = tmp_path / "boundary.csv"
    code, out, _ = run(capsys, "convergence", "--scan", "0.1:0.9:3",
                       "--depth", "201", "--mirror", "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "x,y_max,depth"
    assert len(data) == 4
    assert all(row.endswith(",201") for row in data[1:])


def test_convergence_scan_flags_capped_rows(tmp_path, capsys):
    capped = tmp_path / "capped.csv"
    code, _, _ = run(capsys, "convergence", "--scan", "0.001:0.1:2",
                     "--mirror", "--out", str(capped))
    assert code == 0
    lines = capped.read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("# y_cap")] == [
        "# y_cap=8.0 reached at x=0.001"]
    assert lines.index("# y_cap=8.0 reached at x=0.001") < lines.index(
        "x,y_max,depth")
    assert "0.001,8.0,401" in lines
    plain = tmp_path / "plain.csv"
    code, _, _ = run(capsys, "convergence", "--scan", "0.5:1.0:2",
                     "--out", str(plain))
    assert code == 0
    assert not any(ln.startswith("# y_cap")
                   for ln in plain.read_text().splitlines())


def test_convergence_point_mirror_takes_effect(capsys):
    code, out, _ = run(capsys, "convergence", "--point", "0.001", "5.0")
    assert code == 0
    assert out.startswith("converges=false ratio_tail=")
    code, out, _ = run(capsys, "convergence", "--point", "0.001", "5.0",
                       "--mirror")
    assert code == 0
    swapped = converges(5.0, 0.001, 401)[1]
    assert out.strip() == f"converges=true ratio_tail={swapped}"


def test_convergence_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "convergence")
    assert code == 1
    code, _, err = run(capsys, "convergence", "--scan", "0.1:1:3",
                       "--point", "1", "1")
    assert code == 1
    code, _, err = run(capsys, "convergence", "--scan", "nope")
    assert code == 1
    assert "x0:x1:steps" in err


def test_structconst_bundled_with_pair(capsys):
    code, out, _ = run(capsys, "structconst", "solvable3", "--pair", "X,Y",
                       "--max-degree", "7")
    assert code == 0
    assert "validation: ok" in out
    assert "direction=Y" in out
    assert "m[3] = 1/48 t" in out


@pytest.mark.parametrize("degree", ["2", "8"])
def test_structconst_rejects_max_degree_before_any_output(capsys, degree):
    code, out, err = run(capsys, "structconst", "solvable3", "--pair", "X,Y",
                         "--max-degree", degree)
    assert code == 1
    assert out == ""
    assert "max_degree must be an odd integer >= 3" in err


@pytest.mark.parametrize("pair, message", [
    ("X,Q", "unknown basis label 'Q'"),
    ("X", "--pair expects two comma-separated basis labels"),
])
def test_structconst_rejects_pair_before_any_output(capsys, pair, message):
    code, out, err = run(capsys, "structconst", "solvable3", "--pair", pair)
    assert code == 1
    assert out == ""
    assert message in err


def test_structconst_invalid_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.sconst"
    path.write_text("dim 3\nbasis X Y Z\n[X,Y] = 1 * Z\n[X,Z] = 1 * X\n")
    code, out, _ = run(capsys, "structconst", str(path))
    assert code == 1
    assert "jacobi" in out


def test_eval_matrix_random_pair(capsys):
    code, out, _ = run(capsys, "eval-matrix", "--random", "5", "--target",
                       "0.4", "--seed", "9", "--max-degree", "7")
    assert code == 0
    assert "variant=symmetric" in out
    assert "error=" in out


@pytest.mark.parametrize("n", [5, 21])
def test_eval_matrix_symmetric_matches_fig2_row(capsys, n):
    # eval-matrix --random 20 --target 0.5 --seed 0 draws fig2's first pair;
    # both build the palindromic product the same way, to the last bit
    curve = run_fig2(seed=0, norms=(0.5,), dimension=20)[0]
    want = {row[0]: row[1] for row in curve.rows}[n]
    code, out, _ = run(capsys, "eval-matrix", "--random", "20", "--target",
                       "0.5", "--seed", "0", "--max-degree", str(n))
    assert code == 0
    assert f"error={want!r}" in out


def test_eval_matrix_from_csv(tmp_path, capsys):
    xp = tmp_path / "x.csv"
    yp = tmp_path / "y.csv"
    save_matrix_csv(xp, random_matrix(4, 0.3, 1))
    save_matrix_csv(yp, random_matrix(4, 0.3, 2))
    out_path = tmp_path / "approx.csv"
    code, out, _ = run(capsys, "eval-matrix", "--x", str(xp), "--y", str(yp),
                       "--lam", "0.5", "--variant", "standard",
                       "--max-degree", "6", "--out", str(out_path))
    assert code == 0
    assert "variant=standard" in out
    grid = np.loadtxt(out_path, delimiter=",")
    assert grid.shape == (4, 4)


def test_eval_matrix_rejects_a_non_finite_csv(tmp_path, capsys):
    xp = tmp_path / "x.csv"
    yp = tmp_path / "y.csv"
    xp.write_text("0.1,nan\n0.0,0.2\n")
    save_matrix_csv(yp, random_matrix(2, 0.3, 2))
    code, out, err = run(capsys, "eval-matrix", "--x", str(xp), "--y", str(yp))
    assert code == 1
    assert "x.csv" in err and "non-finite" in err and not out


@pytest.mark.parametrize("argv", [
    ["convergence", "--point", "nan", "1"],
    ["convergence", "--point", "inf", "0"],
    ["convergence", "--scan", "0:inf:3"],
    ["eval-matrix", "--random", "3", "--target", "inf"],
    ["eval-matrix", "--random", "3", "--lam", "nan"],
    ["fig2", "--norms", "nan,1", "--n-max", "5", "--dimension", "3"],
    ["fig3", "--alpha", "1e-400"],
    ["fig3", "--alpha", "1e400"],
], ids=["point-nan", "point-inf", "scan-inf", "eval-target-inf",
        "eval-lam-nan", "fig2-norm-nan", "fig3-alpha-tiny", "fig3-alpha-huge"])
def test_non_finite_or_unrepresentable_numbers_are_rejected(
        tmp_path, capsys, argv):
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 1
    assert err.startswith("error: ")
    assert out == "" and not target.exists()


def test_eval_matrix_needs_inputs(capsys):
    code, _, err = run(capsys, "eval-matrix")
    assert code == 1
    code, _, err = run(capsys, "eval-matrix", "--random", "4", "--x", "a.csv",
                       "--y", "b.csv")
    assert code == 1


def test_fig2_csv_has_carried_column(tmp_path, capsys):
    target = tmp_path / "f2.csv"
    code, _, _ = run(capsys, "fig2", "--n-max", "9", "--dimension", "5",
                     "--norms", "0.5", "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[1] == "# precision=double"
    assert lines[2] == "norm,n,error_symmetric,error_standard,carried"
    assert len(lines) == 3 + 8


def test_fig2_trials_average_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        code, _, _ = run(capsys, "fig2", "--n-max", "7", "--dimension", "4",
                         "--norms", "0.5", "--trials", "3", "--out",
                         str(target))
        assert code == 0
    assert a.read_text() == b.read_text()


def test_fig2_trials_draw_disjoint_pairs(tmp_path, capsys):
    # run_fig2 draws seeds s .. s+3 for two norms, so trial 1 starts at s+4
    target = tmp_path / "f2.csv"
    code, _, _ = run(capsys, "fig2", "--n-max", "7", "--dimension", "4",
                     "--seed", "3", "--trials", "2", "--out", str(target))
    assert code == 0
    first, second = (run_fig2(seed=s, n_max=7, dimension=4) for s in (3, 7))
    for a, b in zip(first, second):
        for i, (row_a, row_b) in enumerate(zip(a.rows, b.rows)):
            a.rows[i] = (row_a[0], sum([row_a[1], row_b[1]]) / 2,
                         sum([row_a[2], row_b[2]]) / 2)
    assert target.read_text().splitlines() == fig2_csv_lines(first, 3)


def _significant_digits(field):
    mantissa = field.lstrip("-").split("e")[0]
    return len(mantissa.replace(".", "").lstrip("0"))


@pytest.mark.parametrize("trials", ["1", "2"])
def test_fig2_extended_precision_keeps_its_digits(tmp_path, capsys, trials):
    target = tmp_path / "f2.csv"
    code, _, _ = run(capsys, "fig2", "--dimension", "3", "--n-max", "7",
                     "--norms", "0.5", "--precision", "extended",
                     "--trials", trials, "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[1] == "# precision=extended"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 6
    for row in rows:
        assert _significant_digits(row[2]) > 17
        assert _significant_digits(row[3]) > 17


def test_fig3_small_grid(tmp_path, capsys):
    target = tmp_path / "f3.csv"
    code, _, _ = run(capsys, "fig3", "--lam-grid", "0.13", "--n-list", "5",
                     "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[2] == "lam,n,error_symmetric,error_standard"
    assert lines[3].startswith("0.13,5,")


def test_fig3_rejects_repeated_degrees(tmp_path, capsys):
    target = tmp_path / "f3.csv"
    code, _, err = run(capsys, "fig3", "--lam-grid", "0.13,0.13",
                       "--n-list", "5,5", "--out", str(target))
    assert code == 1
    assert "distinct" in err
    assert not target.exists()
    code, _, _ = run(capsys, "fig3", "--lam-grid", "0.13,0.13",
                     "--n-list", "5", "--out", str(target))
    assert code == 0
    assert len(target.read_text().splitlines()) == 5


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_path = tmp_path / "out.csv"
    cfg.write_text(json.dumps({"experiment": "fig2", "seed": 4,
                               "dimension": 4, "norms": [0.5],
                               "out": str(out_path)}))
    code, _, _ = run(capsys, "fig2", "--config", str(cfg), "--n-max", "7")
    assert code == 0
    assert out_path.read_text().splitlines()[0].endswith("seed=4")


def test_config_precision_selects_extended(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_path = tmp_path / "out.csv"
    cfg.write_text(json.dumps({"experiment": "fig2", "dimension": 3,
                               "norms": [0.5], "precision": "extended",
                               "out": str(out_path)}))
    code, _, _ = run(capsys, "fig2", "--config", str(cfg), "--n-max", "7")
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == "# precision=extended"
    assert _significant_digits(lines[3].split(",")[2]) > 17


def test_bad_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "fig2", "flavor": "ripe"}))
    code, _, err = run(capsys, "fig2", "--config", str(cfg))
    assert code == 1
    assert "unknown config keys" in err


def test_verify_subset_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "1,3")
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_unknown_check_exits_one(capsys):
    code, _, err = run(capsys, "verify", "--checks", "44")
    assert code == 1
    assert "unknown check ids" in err


def test_usage_error_exits_one(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1
    code, _, _ = run(capsys, "terms", "--format", "yaml")
    assert code == 1


def _config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["terms", "--seed", "1"],
    ["expand", "--precision", "extended"],
    ["structconst", "solvable3", "--seed", "1"],
    ["verify", "--precision", "extended"],
    ["convergence", "--point", "1", "1", "--precision", "extended"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "unrecognized arguments" in err


def test_negative_seed_exits_one_from_flag_and_config(tmp_path, capsys):
    code, _, err = run(capsys, "fig3", "--seed", "-4", "--lam-grid", "0.5",
                       "--n-list", "3", "--out", str(tmp_path / "f3.csv"))
    assert code == 1
    assert "non-negative" in err
    cfg = _config(tmp_path, {"seed": -1})
    code, _, err = run(capsys, "fig2", "--config", cfg)
    assert code == 1
    assert "non-negative" in err
    assert not (tmp_path / "f3.csv").exists()


def test_seed_is_rejected_where_nothing_is_drawn(tmp_path, capsys):
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    save_matrix_csv(xp, random_matrix(3, 0.3, 1))
    save_matrix_csv(yp, random_matrix(3, 0.3, 2))
    pair = ["--x", str(xp), "--y", str(yp)]
    for argv in (["eval-matrix", *pair, "--seed", "5"],
                 ["convergence", "--point", "0.5", "0.5", "--seed", "7"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and "--seed" in err and not out, argv
    cfg = _config(tmp_path, {"seed": 0, "point": [0.5, 0.5]})
    code, _, err = run(capsys, "convergence", "--config", cfg)
    assert code == 1 and "--seed" in err
    cfg = _config(tmp_path, {"seed": 0})
    code, _, err = run(capsys, "eval-matrix", *pair, "--config", cfg)
    assert code == 1 and "--seed" in err
    # without --seed both run, and --seed still draws the --random pair
    assert run(capsys, "eval-matrix", *pair)[0] == 0
    assert run(capsys, "convergence", "--point", "0.5", "0.5")[0] == 0
    _, seeded, _ = run(capsys, "eval-matrix", "--random", "3", "--seed", "4")
    _, other, _ = run(capsys, "eval-matrix", "--random", "3", "--seed", "5")
    _, default, _ = run(capsys, "eval-matrix", "--random", "3")
    assert seeded != other
    assert default == run(capsys, "eval-matrix", "--random", "3",
                          "--seed", "0")[1]


@pytest.mark.parametrize("argv", [
    ["fig2", "--dimension", "0"],
    ["fig2", "--norms", "0.5,-1", "--dimension", "3", "--n-max", "7"],
    ["fig3", "--lam-grid", "0.0,0.5"],
    ["fig3", "--lam-grid", "0.5,1.5"],
])
def test_out_of_range_values_exit_one(tmp_path, capsys, argv):
    target = tmp_path / "out.csv"
    code, _, err = run(capsys, *argv, "--out", str(target))
    assert code == 1
    assert "error:" in err
    assert not target.exists()


@pytest.mark.parametrize("payload, message", [
    ({"precision": "half"}, "invalid choice"),
    ([1, 2, 3], "must be a JSON object"),
    ({"experiment": "fig3", "seed": 1}, "config is for experiment 'fig3'"),
    ({"max_degree": 11}, "unknown config keys: max_degree"),
])
def test_bad_config_exits_one(tmp_path, capsys, payload, message):
    code, _, err = run(capsys, "fig2", "--config", _config(tmp_path, payload))
    assert code == 1
    assert message in err


def test_config_of_another_subcommand_is_rejected(tmp_path, capsys):
    # keys are the subcommand's own flags: a boundary scan has no norms
    cfg = _config(tmp_path, {"scan": "0.1:0.9:3", "norms": [1.0, 2.0]})
    code, _, err = run(capsys, "convergence", "--config", cfg)
    assert code == 1
    assert "unknown config keys: norms" in err


def test_fig3_config_takes_effect_and_flags_win(tmp_path, capsys):
    target = tmp_path / "f3.csv"
    cfg = _config(tmp_path, {"experiment": "fig3", "seed": 7,
                             "lam_grid": [0.25, 0.5], "n_list": [3, 5],
                             "out": str(target)})
    code, out, _ = run(capsys, "fig3", "--config", cfg, "--seed", "2")
    assert code == 0
    assert out.strip() == str(target)
    lines = target.read_text().splitlines()
    assert lines[0].endswith("seed=2")
    assert [tuple(line.split(",")[:2]) for line in lines[3:]] == [
        ("0.25", "3"), ("0.5", "3"), ("0.25", "5"), ("0.5", "5")]


def test_eval_matrix_config_out_writes_matrix(tmp_path, capsys):
    target = tmp_path / "approx.csv"
    cfg = _config(tmp_path, {"random": 3, "target": 0.4, "max_degree": 5,
                             "out": str(target)})
    code, out, _ = run(capsys, "eval-matrix", "--config", cfg)
    assert code == 0
    assert str(target) in out
    assert np.loadtxt(target, delimiter=",").shape == (3, 3)


def test_convergence_point_out_writes_line(tmp_path, capsys):
    target = tmp_path / "point.txt"
    code, out, _ = run(capsys, "convergence", "--point", "0.5", "0.5",
                       "--out", str(target))
    assert code == 0
    assert out.strip() == str(target)
    ratio = converges(0.5, 0.5, 401)[1]
    assert target.read_text() == f"converges=true ratio_tail={ratio}\n"


def test_convergence_config_point_and_mirror(tmp_path, capsys):
    cfg = _config(tmp_path, {"point": [0.001, 5.0], "mirror": True})
    code, out, _ = run(capsys, "convergence", "--config", cfg)
    assert code == 0
    swapped = converges(5.0, 0.001, 401)[1]
    assert out.strip() == f"converges=true ratio_tail={swapped}"
