"""Every module-level import in the package is used by its module, and
the command line starts without scipy.

No linter ships with the project, so this walks the source with ``ast``:
a name bound by a top-level ``import`` or ``from ... import`` must appear
somewhere else in the module as a name (a call, an attribute base, an
annotation).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lie_split"
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


def test_cli_imports_no_scipy():
    # in a child interpreter: this one has scipy loaded by the tests
    code = ("import sys, lie_split.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not [d for d in project["dependencies"] if "scipy" in d]
    assert [d for d in project["optional-dependencies"]["test"]
            if d.startswith("scipy")]
