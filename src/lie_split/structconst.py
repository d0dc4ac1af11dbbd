"""Finite-dimensional Lie algebras given by structure constants.

The bracket of basis elements is a tensor [e_i, e_j] = sum_k c_ijk e_k whose
entries are UniPoly in one parameter t, so relations like [X,Z] = t*Y stay
exact symbols all the way through the term recursion.  Elements are UniPoly
coordinate vectors over the declared basis.

Algebras can be built directly from a bracket table (the reverse entries are
filled in antisymmetrically) or loaded from a small text format:

    # comment
    dim 3
    basis X Y Z
    [X,Y] = 1 * Z
    [X,Z] = 1 t * Y

Right-hand sides are '+'-separated terms ``coeff * label`` where coeff is a
rational literal 'p/q', optionally times 't' or 't^m'; negative coefficients
carry the sign inside the literal ('-1 t * X').  Unlisted brackets are zero.
Two algebras ship with the package (see ``bundled_algebra``): a solvable
three-dimensional algebra and a four-dimensional oscillator algebra with a
central element.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from .scalars import UniPoly, parse_coefficient


def _as_unipoly(c) -> UniPoly:
    if isinstance(c, UniPoly):
        return c
    return UniPoly.constant(c)


class ScElement:
    """Coordinate vector of UniPoly over an algebra's basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs = tuple(_as_unipoly(c) for c in coeffs)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def _check(self, other: "ScElement"):
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("element dimensions differ: "
                             f"{len(self.coeffs)} vs {len(other.coeffs)}")

    def __add__(self, other: "ScElement") -> "ScElement":
        self._check(other)
        return ScElement(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "ScElement":
        return ScElement(-c for c in self.coeffs)

    def __sub__(self, other: "ScElement") -> "ScElement":
        self._check(other)
        return ScElement(a - b for a, b in zip(self.coeffs, other.coeffs))

    def scale(self, c) -> "ScElement":
        """Scale by a rational or by a UniPoly."""
        p = _as_unipoly(c)
        return ScElement(a * p for a in self.coeffs)

    def evaluate(self, value) -> tuple:
        """Numeric coordinates at a concrete parameter value."""
        return tuple(c(value) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"ScElement({[str(c) for c in self.coeffs]})"


class StructureConstantAlgebra:
    """Basis labels plus the full bracket tensor c[i][j] (UniPoly vectors).

    The constructor stores the tensor as given; use ``sc_validate`` to check
    antisymmetry and the Jacobi identity, or build through ``from_brackets``
    / ``load_sconst`` which only ever produce antisymmetric tensors.
    """

    __slots__ = ("labels", "tensor", "_index")

    def __init__(self, labels: Sequence[str], tensor):
        labels = tuple(labels)
        if not labels:
            raise ValueError("algebra needs at least one basis label")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        d = len(labels)
        rows = []
        for i in range(d):
            if len(tensor[i]) != d:
                raise ValueError("bracket tensor must be square")
            row = []
            for j in range(d):
                vec = tuple(_as_unipoly(c) for c in tensor[i][j])
                if len(vec) != d:
                    raise ValueError(
                        f"tensor entry ({labels[i]},{labels[j]}) has length "
                        f"{len(vec)}, expected {d}")
                row.append(vec)
            rows.append(tuple(row))
        self.labels = labels
        self.tensor = tuple(rows)
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def from_brackets(cls, labels: Sequence[str],
                      brackets: Dict[Tuple[str, str], Dict[str, object]]
                      ) -> "StructureConstantAlgebra":
        """Build from one entry per unordered pair; mirrors are filled in.

        ``brackets`` maps (label_a, label_b) to {label_k: coeff}; coeff may be
        an int, Fraction, UniPoly or a literal like '1 t'.  Listing a pair
        twice (in either order) or a diagonal pair is an error.
        """
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        d = len(labels)
        zero_vec = [UniPoly.zero()] * d
        tensor = [[list(zero_vec) for _ in range(d)] for _ in range(d)]
        seen = set()
        for (a, b), rhs in brackets.items():
            for lab in (a, b):
                if lab not in index:
                    raise ValueError(f"unknown basis label {lab!r}")
            i, j = index[a], index[b]
            if i == j:
                raise ValueError(f"bracket [{a},{a}] is identically zero; "
                                 "do not list it")
            if (i, j) in seen or (j, i) in seen:
                raise ValueError(f"bracket [{a},{b}] listed twice")
            seen.add((i, j))
            for lab, c in rhs.items():
                if lab not in index:
                    raise ValueError(f"unknown basis label {lab!r}")
                p = parse_coefficient(c) if isinstance(c, str) else _as_unipoly(c)
                tensor[i][j][index[lab]] = p
                tensor[j][i][index[lab]] = -p
        return cls(labels, tensor)

    def index(self, label: str) -> int:
        if label not in self._index:
            raise ValueError(f"unknown basis label {label!r}")
        return self._index[label]

    def zero(self) -> ScElement:
        return ScElement([UniPoly.zero()] * self.dim)

    def basis_element(self, label: str) -> ScElement:
        i = self.index(label)
        coeffs = [UniPoly.zero()] * self.dim
        coeffs[i] = UniPoly.one()
        return ScElement(coeffs)

    def element(self, parts: Dict[str, object]) -> ScElement:
        """Element from {label: coeff}, coeff as in ``from_brackets``."""
        coeffs = [UniPoly.zero()] * self.dim
        for lab, c in parts.items():
            p = parse_coefficient(c) if isinstance(c, str) else _as_unipoly(c)
            coeffs[self.index(lab)] = coeffs[self.index(lab)] + p
        return ScElement(coeffs)

    def bracket(self, u: ScElement, v: ScElement) -> ScElement:
        """Bilinear contraction with the structure tensor, exact."""
        d = self.dim
        if u.dim != d or v.dim != d:
            raise ValueError("element dimension does not match the algebra")
        out = [UniPoly.zero()] * d
        for i, a in enumerate(u.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(v.coeffs):
                if b.is_zero():
                    continue
                ab = a * b
                for k, c in enumerate(self.tensor[i][j]):
                    if not c.is_zero():
                        out[k] = out[k] + ab * c
        return ScElement(out)

    def format(self, elem: ScElement) -> str:
        """Human-readable 'coeff * label + ...' rendering."""
        parts = []
        for c, lab in zip(elem.coeffs, self.labels):
            if c.is_zero():
                continue
            text = str(c)
            if " + " in text:
                text = f"({text})"
            parts.append(f"{text} * {lab}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"StructureConstantAlgebra(labels={self.labels!r})"


class ScModule:
    """Ad-module adapter so the term engine runs over a given algebra."""

    def __init__(self, algebra: StructureConstantAlgebra):
        self.algebra = algebra

    def zero(self) -> ScElement:
        return self.algebra.zero()

    def add(self, a: ScElement, b: ScElement) -> ScElement:
        return a + b

    def sub(self, a: ScElement, b: ScElement) -> ScElement:
        return a - b

    def scale(self, c, a: ScElement) -> ScElement:
        return a.scale(c)

    def bracket(self, a: ScElement, b: ScElement) -> ScElement:
        return self.algebra.bracket(a, b)

    def is_zero(self, a: ScElement) -> bool:
        return a.is_zero()


class ScViolation(NamedTuple):
    """First structural defect found by sc_validate."""

    kind: str            # "antisymmetry" or "jacobi"
    labels: tuple        # offending pair or triple of basis labels
    detail: str


def sc_validate(algebra: StructureConstantAlgebra) -> Optional[ScViolation]:
    """Check antisymmetry and Jacobi exactly; None when the tensor is sound.

    Antisymmetry failures report the mirrored pair (j,i) whose entry does not
    match the negated (i,j) entry scanned first.
    """
    d = algebra.dim
    labels = algebra.labels
    tensor = algebra.tensor
    for i in range(d):
        for j in range(i, d):
            for k in range(d):
                if not (tensor[i][j][k] + tensor[j][i][k]).is_zero():
                    pair = (labels[j], labels[i])
                    return ScViolation(
                        "antisymmetry", pair,
                        f"c[{labels[j]}][{labels[i]}] is not the negative of "
                        f"c[{labels[i]}][{labels[j]}] in the {labels[k]} "
                        "component")
    basis = [algebra.basis_element(lab) for lab in labels]
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                total = (algebra.bracket(basis[i], algebra.bracket(basis[j], basis[k]))
                         + algebra.bracket(basis[j], algebra.bracket(basis[k], basis[i]))
                         + algebra.bracket(basis[k], algebra.bracket(basis[i], basis[j])))
                if not total.is_zero():
                    triple = (labels[i], labels[j], labels[k])
                    return ScViolation(
                        "jacobi", triple,
                        "Jacobi sum over "
                        f"({labels[i]},{labels[j]},{labels[k]}) equals "
                        f"{algebra.format(total)}")
    return None


def collapse_middle(algebra: StructureConstantAlgebra,
                    terms: Dict[int, ScElement]
                    ) -> Optional[Tuple[int, Dict[int, UniPoly]]]:
    """Detect a one-dimensional middle product.

    When every term in ``terms`` is a UniPoly multiple of one shared basis
    element e_v, returns (v, {k: m_k}) with C_k = m_k * e_v, so the ascending
    times descending middle product collapses to exp((sum_k 2 m_k) e_v).
    Returns None when supports differ, are wider than one index, or all terms
    vanish.
    """
    direction = None
    for k in sorted(terms):
        support = [i for i, c in enumerate(terms[k].coeffs) if not c.is_zero()]
        if not support:
            continue
        if len(support) > 1:
            return None
        if direction is None:
            direction = support[0]
        elif support[0] != direction:
            return None
    if direction is None:
        return None
    return direction, {k: terms[k].coeffs[direction] for k in terms}


# ---------------------------------------------------------------------------
# Text format

_DIM_RE = re.compile(r"^dim\s+(\d+)$")
_BASIS_RE = re.compile(r"^basis\s+(.+)$")
_BRACKET_RE = re.compile(r"^\[\s*(\w+)\s*,\s*(\w+)\s*\]\s*=\s*(.+)$")


def loads_sconst(text: str, validate: bool = True) -> StructureConstantAlgebra:
    """Parse the algebra text format described in the module docstring."""
    dim = None
    labels = None
    brackets: Dict[Tuple[str, str], Dict[str, UniPoly]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DIM_RE.match(line)
        if m:
            if dim is not None:
                raise ValueError(f"line {lineno}: dim given twice")
            dim = int(m.group(1))
            continue
        m = _BASIS_RE.match(line)
        if m:
            if labels is not None:
                raise ValueError(f"line {lineno}: basis given twice")
            if dim is None:
                raise ValueError(f"line {lineno}: basis before dim")
            labels = tuple(m.group(1).split())
            if len(labels) != dim:
                raise ValueError(
                    f"line {lineno}: {len(labels)} labels but dim {dim}")
            continue
        m = _BRACKET_RE.match(line)
        if m:
            if labels is None:
                raise ValueError(f"line {lineno}: bracket before basis")
            a, b = m.group(1), m.group(2)
            key = (a, b)
            if key in brackets or (b, a) in brackets:
                raise ValueError(f"line {lineno}: bracket [{a},{b}] repeated")
            rhs: Dict[str, UniPoly] = {}
            for part in m.group(3).split("+"):
                pieces = part.split("*")
                if len(pieces) != 2:
                    raise ValueError(
                        f"line {lineno}: term {part.strip()!r} is not "
                        "'coeff * label'")
                coeff = parse_coefficient(pieces[0])
                lab = pieces[1].strip()
                rhs[lab] = rhs.get(lab, UniPoly.zero()) + coeff
            brackets[key] = rhs
            continue
        raise ValueError(f"line {lineno}: cannot parse {line.strip()!r}")
    if dim is None or labels is None:
        raise ValueError("file must declare dim and basis")
    algebra = StructureConstantAlgebra.from_brackets(labels, brackets)
    if validate:
        bad = sc_validate(algebra)
        if bad is not None:
            raise ValueError(f"invalid algebra: {bad.kind} at {bad.labels}: "
                             f"{bad.detail}")
    return algebra


def load_sconst(path, validate: bool = True) -> StructureConstantAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_sconst(fh.read(), validate=validate)


BUNDLED = ("solvable3", "oscillator4")


def bundled_algebra(name: str) -> StructureConstantAlgebra:
    """Load one of the algebras shipped with the package."""
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled algebra {name!r}; "
                         f"choose from {', '.join(BUNDLED)}")
    text = resources.files("lie_split").joinpath(f"data/{name}.sconst").read_text()
    return loads_sconst(text)
