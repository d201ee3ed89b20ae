"""Smoke test of the benchmark at tiny sizes, outside the tier-1 suite
(pytest's ``testpaths`` is ``tests``).  Run it explicitly:

    python3 -m pytest perfbench/test_smoke.py -q

Each case starts the benchmark as a subprocess exactly as a user would,
with ``--size tiny --seconds 1``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Work counts each workload must produce in a traced pass.
NONZERO = {
    "run_nisio_oracle": (
        "kernels.apply_taps.calls",
        "kernels.apply_taps.taps",
        "nisio.nisio_step.calls",
        "reference.fine_oracle.steps",
        "iterate.chernoff_iterate.steps",
        "rates.measure_errors.workers",
        "properties.structural_suite.step_calls",
        "core.GridFunction.constructions",
        "cli.artifacts.bytes",
    ),
    "lln_envelope": (
        "kernels.apply_taps.calls",
        "convex_expectation.lln_step.calls",
        "iterate.chernoff_iterate.steps",
        "rates.measure_errors.workers",
        "properties.structural_suite.step_calls",
        "core.GridFunction.constructions",
    ),
    "clt_certify": (
        "kernels.apply_taps.calls",
        "kernels.gaussian_convolve.calls",
        "convex_expectation.clt_step.calls",
        "nisio.nisio_step.calls",
        "properties.structural_suite.pairs",
        "properties.appendix_suite.instances",
        "mollifier.mollify.calls",
        "core.GridFunction.constructions",
    ),
}


def _bench(cwd, workload, trace):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert detail["ops_failed_frac"] == 0.0
    assert all(not p["problems"] for p in detail["passes"])
    return detail, result


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    detail, result = _result(workload, 0)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["facts"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_record_work(workload):
    detail, result = _result(workload, 1)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert detail["trace_problems"] == []
    for name in NONZERO[workload]:
        assert result["metrics"][name]["value"] > 0, name


def test_fails_without_library_source():
    # a copy holding only BENCHMARK.json and the benchmark's own files
    bare = ROOT / ".perfbench-work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(bare, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
