import hashlib
from fractions import Fraction

import pytest

from lie_split.engine import symmetric_terms
from lie_split.scalars import UniPoly
from lie_split.structconst import (BUNDLED, ScModule,
                                   StructureConstantAlgebra, bundled_algebra,
                                   collapse_middle, load_sconst, loads_sconst,
                                   sc_validate)

SOLVABLE = """
dim 3
basis X Y Z
[X,Y] = 1 * Z
[X,Z] = 1 t * Y
"""


def test_bundled_names_load_and_validate():
    for name in BUNDLED:
        algebra = bundled_algebra(name)
        assert sc_validate(algebra) is None
    with pytest.raises(ValueError):
        bundled_algebra("heisenberg")


def test_solvable3_brackets():
    algebra = bundled_algebra("solvable3")
    x = algebra.basis_element("X")
    y = algebra.basis_element("Y")
    z = algebra.basis_element("Z")
    assert algebra.bracket(x, y) == z
    assert algebra.bracket(x, z) == y.scale(UniPoly.monomial(1, 1))
    assert algebra.bracket(y, z).is_zero()
    assert algebra.bracket(y, x) == -z


def test_oscillator4_center_is_central():
    algebra = bundled_algebra("oscillator4")
    center = algebra.basis_element("I")
    for lab in algebra.labels:
        assert algebra.bracket(center, algebra.basis_element(lab)).is_zero()


def test_parser_accepts_comments_and_blank_lines():
    text = "# a comment\n\ndim 2\nbasis A B\n[A,B] = 1/2 * A + -1/2 * B # inline\n"
    algebra = loads_sconst(text, validate=False)
    a, b = algebra.basis_element("A"), algebra.basis_element("B")
    got = algebra.bracket(a, b)
    assert got == a.scale(Fraction(1, 2)) + b.scale(Fraction(-1, 2))


def test_parser_error_messages_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        loads_sconst("basis X Y")
    with pytest.raises(ValueError, match="dim given twice"):
        loads_sconst("dim 2\ndim 2")
    with pytest.raises(ValueError, match="labels but dim"):
        loads_sconst("dim 3\nbasis X Y")
    with pytest.raises(ValueError, match="repeated"):
        loads_sconst("dim 2\nbasis X Y\n[X,Y] = 1 * X\n[Y,X] = 1 * X")
    with pytest.raises(ValueError, match="cannot parse"):
        loads_sconst("dim 2\nbasis X Y\nhello world")
    with pytest.raises(ValueError, match="coeff \\* label"):
        loads_sconst("dim 2\nbasis X Y\n[X,Y] = X")


def test_parser_requires_header():
    with pytest.raises(ValueError, match="must declare"):
        loads_sconst("# nothing here\n")


def test_validation_rejects_non_jacobi_tensor():
    # [X,Y]=Z, [X,Z]=X violates Jacobi
    text = "dim 3\nbasis X Y Z\n[X,Y] = 1 * Z\n[X,Z] = 1 * X\n"
    with pytest.raises(ValueError, match="jacobi"):
        loads_sconst(text)
    algebra = loads_sconst(text, validate=False)
    bad = sc_validate(algebra)
    assert bad is not None and bad.kind == "jacobi"


def test_validation_reports_tampered_antisymmetry():
    algebra = loads_sconst(SOLVABLE, validate=False)
    tensor = [[list(vec) for vec in row] for row in algebra.tensor]
    tensor[1][0][2] = UniPoly.constant(Fraction(1))  # c[Y][X] should be -Z
    tampered = StructureConstantAlgebra(algebra.labels, tensor)
    bad = sc_validate(tampered)
    assert bad is not None
    assert bad.kind == "antisymmetry"
    assert bad.labels == ("Y", "X")


def test_corrupted_file_raises_with_context(tmp_path):
    path = tmp_path / "broken.sconst"
    path.write_text("dim 2\nbasis X Y\n[X,Q] = 1 * X\n")
    with pytest.raises(ValueError):
        load_sconst(path)


def test_sc_element_evaluate_and_format():
    algebra = loads_sconst(SOLVABLE, validate=False)
    elem = algebra.element({"Y": UniPoly.monomial(Fraction(1, 2), 1),
                            "Z": Fraction(3)})
    values = elem.evaluate(Fraction(2))
    assert values == (0, Fraction(1), Fraction(3))
    text = algebra.format(elem)
    assert "Y" in text and "Z" in text


def test_collapse_middle_detects_single_direction():
    algebra = bundled_algebra("solvable3")
    mod = ScModule(algebra)
    table = symmetric_terms(mod, algebra.basis_element("X"),
                            algebra.basis_element("Y"), 7)
    collapsed = collapse_middle(algebra, table)
    assert collapsed is not None
    direction, ms = collapsed
    assert algebra.labels[direction] == "Y"
    assert ms[3] == UniPoly.monomial(Fraction(1, 48), 1)
    assert ms[5] == UniPoly.monomial(Fraction(1, 3840), 2)
    assert ms[7] == UniPoly.monomial(Fraction(1, 645120), 3)


def test_collapse_middle_rejects_wide_support():
    algebra = loads_sconst(SOLVABLE, validate=False)
    wide = algebra.element({"Y": Fraction(1), "Z": Fraction(1)})
    assert collapse_middle(algebra, {3: wide}) is None
    assert collapse_middle(algebra, {3: algebra.zero()}) is None


def test_collapse_middle_rejects_mixed_directions():
    algebra = loads_sconst(SOLVABLE, validate=False)
    terms = {3: algebra.basis_element("Y"), 5: algebra.basis_element("Z")}
    assert collapse_middle(algebra, terms) is None


def test_sc_module_runs_generic_engine():
    algebra = bundled_algebra("oscillator4")
    mod = ScModule(algebra)
    table = symmetric_terms(mod, algebra.basis_element("X"),
                            algebra.basis_element("W"), 5)
    collapsed = collapse_middle(algebra, table)
    assert collapsed is not None
    direction, ms = collapsed
    assert algebra.labels[direction] == "X"
    assert ms[3] == UniPoly.monomial(Fraction(-1, 24), 2)


# sha256 of the formatted terms of an sl2 algebra whose bracket and pair carry
# t, so that coordinates are multi-term polynomials, as written by the dense
# Fraction-tuple UniPoly that the shared exact combination replaced
SL2_TERMS_SHA256 = (
    "2ae90dbae8b535a48694eadcf72d7cc66c1c148f177ad046dfc80ee4b1eabf82")


def test_sl2_polynomial_terms_format_like_the_golden_output():
    algebra = StructureConstantAlgebra.from_brackets(
        ("H", "E", "F"), {("H", "E"): {"E": 2}, ("H", "F"): {"F": -2},
                          ("E", "F"): {"H": "1 t"}})
    x = algebra.element({"H": 1, "E": "1 t"})
    y = algebra.element({"F": 1, "E": "1/2"})
    terms = symmetric_terms(ScModule(algebra), x, y, 9)
    text = "\n".join(f"C[{k}] = {algebra.format(terms[k])}"
                     for k in sorted(terms))
    assert "(1/24 + -1/24 t^2 + -1/24 t^3) * E" in text
    assert hashlib.sha256(text.encode()).hexdigest() == SL2_TERMS_SHA256
