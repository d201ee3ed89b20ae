import ast
import importlib
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
