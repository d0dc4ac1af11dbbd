"""Every module-level import in the package is used by its module.

No linter ships with the project, so this walks the source with ``ast``:
a name bound by a top-level ``import`` or ``from ... import`` must appear
somewhere else in the module as a name (a call, an attribute base, an
annotation).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lie_split"
MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_detector_flags_an_unused_import():
    source = "import math\nfrom typing import Dict, List\n\nx: List[int] = []\n"
    assert _unused_imports(source) == [(1, "math"), (2, "Dict")]
