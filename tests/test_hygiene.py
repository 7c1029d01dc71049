"""Hygiene of the package.

Two static rules over every module in `src/toruskam`, checked with `ast`:
  * every imported name is used in the module that imports it;
  * every function, method and class that is not a dunder is named
    somewhere besides its own definition, in `src/` or `tests/`.
One import rule, checked in a fresh interpreter: `toruskam.cli` loads none
of the scipy subpackages that cost the most start-up time.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toruskam"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node):
    """Names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _references(tree) -> Counter:
    """Every identifier a tree names outside `def`/`class` headers."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            refs.update(a.name.split(".")[-1] for a in node.names)
    return refs


def unused_imports() -> list:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}: import {name}"
                          for name in _bound_names(node) if name not in used]
    return found


def unreferenced_definitions() -> list:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    refs = Counter()
    for path in files:
        refs += _references(_parse(path))
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) \
                        and refs[name] == 0:
                    found.append(f"{path.name}: def {name}")
    return found


def test_no_unused_imports():
    assert unused_imports() == []


def test_no_unreferenced_definitions():
    assert unreferenced_definitions() == []


def test_cli_import_skips_heavy_scipy():
    heavy = ("scipy.signal", "scipy.stats", "scipy.interpolate",
             "scipy.optimize", "scipy.ndimage")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, toruskam.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert "toruskam.cli" in loaded
    assert [m for m in loaded
            if any(m == h or m.startswith(h + ".") for h in heavy)] == []
