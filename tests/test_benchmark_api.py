"""The library names the benchmark in ``perfbench/`` looks up.

The benchmark's files change only together with the benchmark, so a
library change that deletes or renames a name they read would break it
without any other test noticing.  ``perfbench/tracing.py`` imports only
the standard library and is loaded by path; ``perfbench/workloads.py``
and ``perfbench/run.py`` import the package, so the names they read
through its module aliases are collected from their syntax trees
instead of running them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from chernoff import bounds, mollifier, rates
from chernoff.convex_expectation import Scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("layer", _load_tracing().LAYERS, ids=lambda layer: layer[0])
def test_every_traced_layer_resolves(layer):
    _, module_name, attr, _ = layer
    assert callable(_resolve(module_name, attr))


def _library_names(filename):
    """(module, dotted attribute) for each ``alias.attr`` chain in a
    benchmark file whose alias is a module imported from ``chernoff``."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    aliases = {
        alias.asname or alias.name: f"chernoff.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "chernoff"
        for alias in node.names
    }
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            names.add((aliases[node.id], ".".join(reversed(chain))))
    return sorted(names)


_READ = sorted(set(_library_names("workloads.py")) | set(_library_names("run.py")))


def test_the_scan_sees_the_workloads():
    assert ("chernoff.rates", "measure_errors") in _READ
    assert ("chernoff.bounds", "load_bound_table") in _READ


@pytest.mark.parametrize("name", _READ, ids=lambda name: f"{name[0]}.{name[1]}")
def test_every_name_the_benchmark_reads_resolves(name):
    _resolve(*name)


def test_benchmark_calls_keep_their_shape():
    # the calls as perfbench/workloads.py and tracing.py make them
    assert rates.worker_count(3, 2) == 2
    params = bounds.holder_parameters(2.0, 1.0, 0.0, lambda _r: 0.0, 0.5, 1.0)
    assert params.alpha == 0.5 and params.constant > 0
    assert mollifier.MollifierKernel(1).b(0, 1) > 0
    assert Scenario.point((0.5,)) == Scenario.point(0.5)
