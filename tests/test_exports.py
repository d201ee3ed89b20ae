import importlib

import pytest


@pytest.mark.parametrize("module", ["core", "kernels", "convex_expectation", "mollifier"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"chernoff.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"chernoff.{module}.__all__ names {missing}"
