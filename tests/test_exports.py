import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["core", "kernels", "convex_expectation", "mollifier", "rates"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"chernoff.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"chernoff.{module}.__all__ names {missing}"


_ROOT = Path(__file__).resolve().parents[1]
_SOURCES = sorted((_ROOT / "src" / "chernoff").glob("*.py")) + sorted(
    (_ROOT / "tests").glob("*.py")
)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used | exported)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_library_imports_numpy_alone():
    # every chernoff module, imported in a fresh interpreter, brings in no
    # top-level module from outside the standard library but numpy; the
    # modules loaded before the import (a site .pth may load some) are
    # not the library's
    code = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import chernoff\n"
        "for info in pkgutil.iter_modules(chernoff.__path__):\n"
        "    importlib.import_module('chernoff.' + info.name)\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names) - {'chernoff'})))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["numpy"]
