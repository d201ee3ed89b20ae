"""Benchmark of ``chernoff``: time to verdict on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
its ``src/`` directory and nowhere else, so a checkout without it fails
before measuring anything.  Each run builds one workload from the seed
and runs it as a closed loop, one pass at a time, until ``--seconds``
would be exceeded (at least three passes).  Every pass's outputs are
checked; a pass that fails a check or raises counts in ``failed``.

``--trace 0`` prints the end-to-end metrics: the median pass time
(``verdict_s``), the median of five set-up times measured in fresh
processes (``setup_s``), and this process's peak resident memory
(``peak_rss_mb``).  ``--trace 1`` wraps every layer function
(``tracing.py``), alternates untraced and traced passes, and prints the
per-layer metrics; it fails if a layer the workload must reach records
no calls or a count differs between traced passes.

The last line of standard output is the result object; the line before
it holds machine facts, sample counts, the failed fraction, and every
pass's verdict record.  Both also go to
``.perfbench-work/<workload>-seed<N>/``, with the spans of a traced run.
"""

import time

_START = time.perf_counter()  # a set-up probe times everything from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 5
MIN_PASSES = 3
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    n = nproc()
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def import_library():
    """Import ``chernoff`` from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "chernoff" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"no library source at {package.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    import chernoff

    if Path(chernoff.__file__).resolve() != package.resolve():
        raise SetupError(f"imported chernoff from {chernoff.__file__}, not {package}")
    return chernoff


def machine_facts(workers) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "measure_errors_workers": workers,
    }


def make_workload(args):
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-seed{args.seed}"
    return WORKLOADS[args.workload](args.seed, args.size, workdir), workdir


def warm_tables():
    """The cold tables every CLI call pays for; returns their first-call times."""
    from chernoff import bounds, mollifier

    t0 = time.perf_counter()
    mollifier.MollifierKernel(1).constants
    t1 = time.perf_counter()
    bounds.load_bound_table()
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def setup_probe(args) -> float:
    """Import, build the workload's inputs and load the cold tables."""
    import_library()
    workload, _ = make_workload(args)
    workload.build()
    warm_tables()
    return time.perf_counter() - _START


def measure_setup(args) -> list:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def one_pass(workload, inputs, pass_id, tracer=None) -> dict:
    """Run and check one pass; a pass that raises is a failed pass."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run_pass(inputs)
        else:
            tracer.pass_id = pass_id
            result = tracer.record("bench.pass", workload.run_pass, (inputs,), {})
        seconds = time.perf_counter() - t0
        problems, record = workload.check(result)
    except Exception:  # noqa: BLE001 - reported with its traceback, run goes on
        seconds = time.perf_counter() - t0
        problems, record = [traceback.format_exc(limit=8)], None
    return {"pass": pass_id, "traced": tracer is not None, "seconds": seconds,
            "problems": problems, "record": record}


def run_passes(workload, inputs, seconds, min_passes=MIN_PASSES) -> list:
    """Closed loop: one pass at a time until the next would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(workload, inputs, len(passes)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["seconds"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def tail(values) -> dict:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return {"percentile": None, "value": None, "samples": n}
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value": xs[n - 11], "samples": n}


def summarize(passes) -> dict:
    failed = sum(1 for p in passes if p["problems"])
    return {
        "attempted": len(passes),
        "failed": failed,
        "ops_failed_frac": failed / len(passes),
    }


def timed_run(args) -> tuple[dict, dict]:
    import_library()
    setup_times = measure_setup(args)
    workload, workdir = make_workload(args)
    inputs = workload.build()
    warm_tables()
    passes = run_passes(workload, inputs, args.seconds)
    seconds = [p["seconds"] for p in passes]
    metrics = {
        "verdict_s": statistics.median(seconds),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "facts": machine_facts(workload.workers()),
        "verdict_s": {"median": metrics["verdict_s"], "tail": tail(seconds), "all": seconds},
        "setup_s": {"median": metrics["setup_s"], "all": setup_times},
        "passes": passes,
    }
    units = dict(END_TO_END)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, detail


def traced_run(args) -> tuple[dict, dict]:
    import tracing

    import_library()
    cold_kernel, cold_table = warm_tables()
    workload, workdir = make_workload(args)
    # a warm-up pass before any wrapper exists, excluded from the overhead
    passes = [one_pass(workload, workload.build(), 0)]

    tracer = tracing.Tracer()
    tracer.install()
    inputs = workload.build()  # operators built now bind the wrapped steps
    # alternate passes with the wrappers off and on, so both see the same
    # machine state; the ratio of their medians is the tracing overhead
    start = time.perf_counter()
    while True:
        passes.append(one_pass(workload, inputs, len(passes)))
        tracer.enabled = True
        passes.append(one_pass(workload, inputs, len(passes), tracer))
        tracer.enabled = False
        baseline = [p for p in passes[1:] if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        pair = statistics.median(p["seconds"] for p in passes[1:]) * 2
        if len(traced) >= 2 and time.perf_counter() - start + pair > 0.8 * args.seconds:
            break
    serial, parallel = serial_speedup(tracer, 0.1 * args.seconds)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer.write(workdir / "spans.jsonl")

    table = tracing.pass_table(tracer.spans)
    per_pass = [table[p["pass"]] for p in traced]
    problems = []
    values = {}
    for name, unit, _better, kind, fn in tracing.PASS_METRICS:
        series = [fn(p) for p in per_pass]
        if kind == "count":
            if len(set(series)) != 1:
                problems.append(f"{name} differs between traced passes: {series}")
            values[name] = (series[0], unit)
        else:
            values[name] = (statistics.median(series), unit)
    for name, unit, span, pct, scale in tracing.CALL_PERCENTILES:
        durations = [r["dur"] for p in per_pass for r in p[span]]
        values[name] = (tracing.percentile(durations, pct) * scale, unit)
    values["rates.measure_errors.speedup_vs_serial"] = (
        statistics.median(serial) / statistics.median(parallel) if serial else 0.0,
        "ratio",
    )
    values["mollifier.kernel_table.cold_s"] = (cold_kernel, "s")
    values["bounds.table.cold_s"] = (cold_table, "s")
    untraced_s = statistics.median(p["seconds"] for p in baseline)
    traced_s = statistics.median(p["seconds"] for p in traced)
    values["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")

    # guard: a layer this workload must reach that recorded nothing means
    # a call moved past the wrappers, which would silently empty its metrics
    for layer in workload.required_layers:
        if any(not p[layer] for p in per_pass):
            problems.append(f"layer {layer} recorded no calls in a traced pass")
    # the spans of a pass tile it: self times minus parallel overlap sum to
    # the pass's traced wall time
    closure = []
    for p in per_pass:
        rows = [r for name_rows in p.values() for r in name_rows]
        self_sum = sum(r["self"] for r in rows)
        overlap = sum(r["overlap"] for r in rows)
        wall = p["bench.pass"][0]["dur"]
        closure.append({"self_sum_s": self_sum, "overlap_s": overlap, "traced_pass_s": wall,
                        "unattributed_s": p["bench.pass"][0]["self"]})
        if abs(self_sum - overlap - wall) > 1e-6 * max(wall, 1.0):
            problems.append(f"spans do not tile the pass: {closure[-1]}")
    workers = max((r["attrs"]["workers"] for p in per_pass for r in p["rates.measure_errors"]),
                  default=0)
    detail = {
        "facts": machine_facts(workers),
        "trace_problems": problems,
        "untraced_verdict_s": untraced_s,
        "traced_verdict_s": traced_s,
        "closure": closure,
        "measure_errors_rerun_s": {"workers_default": parallel, "workers_1": serial},
        "install_sites": dict(tracer.install_sites),
        "spans": str((workdir / "spans.jsonl").relative_to(ROOT)),
        "passes": passes,
    }
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    return metrics, detail


def serial_speedup(tracer, budget):
    """Rerun the last traced ``measure_errors`` call, default workers and one."""
    call = tracer.last_call.get("rates.measure_errors")
    if call is None:
        return [], []
    from chernoff import rates

    args, kwargs = call
    serial, parallel = [], []
    start = time.perf_counter()
    while not serial or (len(serial) < 5 and time.perf_counter() - start < budget):
        for workers, sink in ((None, parallel), (1, serial)):
            t0 = time.perf_counter()
            rates.measure_errors(*args, **{**kwargs, "workers": workers})
            sink.append(time.perf_counter() - t0)
    return serial, parallel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("run_nisio_oracle", "lln_envelope", "clt_certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_blas_threads()
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(args)}))
            return 0
        metrics, detail = (traced_run if args.trace else timed_run)(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    counts = summarize(detail["passes"])
    problems = detail.get("trace_problems", [])
    result = {
        "correct": counts["failed"] == 0 and not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, **counts, **detail}
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
