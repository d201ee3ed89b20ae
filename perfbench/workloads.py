"""The three benchmark workloads.

Each workload turns a seed into inputs (``build``), runs one pass from
those inputs to its verdict through the public API (``run_pass``, the
timed part), and checks the pass's outputs (``check``, untimed).  The
seed shapes only the generated inputs: payoff caps, config seeds, suite
seeds and the comparison drift.  Sizes keep each workload's shape at a
cost that fits a few passes into one benchmark run; ``tiny`` is for the
smoke test.

Library functions are always looked up through their module at call
time (``rates.measure_errors``, not a copied name), so a traced run's
wrappers see every call the benchmark itself makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil

import numpy as np

from chernoff import (
    bounds,
    cli,
    config,
    convex_expectation as cx,
    core,
    iterate,
    mollifier,
    nisio,
    properties,
    rates,
    reference,
)

LOW, HIGH = -12.0, 12.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _capped(grid, cap: float):
    return core.GridFunction.from_callable(grid, lambda v: np.minimum(np.abs(v), cap))


def _radius(f) -> float:
    return max(f.sup_norm, f.lipschitz)


def _check_ratio(name: str, ratio: float, limit: float, problems: list) -> float:
    if not ratio <= limit:
        problems.append(f"{name}: max_ratio {ratio!r} > {limit!r}")
    return ratio


class RunNisioOracle:
    """``chernoff run`` on a generated two-volatility nisio config."""

    name = "run_nisio_oracle"
    SIZES = {
        "full": {"points": 4095, "h": "2^-1..2^-4", "h_fine": "2^-7", "pairs": 2},
        "tiny": {"points": 1025, "h": "2^-1..2^-4", "h_fine": "2^-7", "pairs": 1},
    }
    required_layers = (
        "cli.main",
        "config.load_config",
        "properties.admit_operator",
        "properties.structural_suite",
        "reference.fine_oracle",
        "rates.measure_errors",
        "iterate.chernoff_iterate",
        "nisio.nisio_step",
        "kernels.gaussian_convolve",
        "kernels.apply_taps",
        "core.GridFunction",
        "bounds.nisio_bounds",
        "rates.rate_report",
        "cli.artifacts",
    )
    ARTIFACTS = ("error_curve.csv", "rate_report.json", "bound_report.json", "manifest.json")

    def __init__(self, seed: int, size: str, workdir):
        rng = _rng(seed, 1)
        self.size = self.SIZES[size]
        self.cap = round(float(rng.uniform(0.5, 2.0)), 6)
        self.config_seed = int(rng.integers(0, 1_000_000))
        self.workdir = workdir
        self.passes = 0
        self.first_artifacts = None

    def config_text(self) -> str:
        s = self.size
        return (
            "[grid]\n"
            f"low = {LOW:g}\nhigh = {HIGH:g}\npoints = {s['points']}\n\n"
            "[operator]\ntype = nisio\ncontrols = 0.5 0, 1 0\n\n"
            f"[payoff]\nkind = capped_abs\ncap = {self.cap!r}\n\n"
            "[experiment]\nt = 1\n"
            f"h = {s['h']}\nreference = oracle\nh_fine = {s['h_fine']}\n"
            f"seed = {self.config_seed}\n\n"
            f"[tolerances]\npairs = {s['pairs']}\n"
        )

    def build(self):
        """Write the config and load it once, which builds the grid, payoff
        and operator the way every ``chernoff run`` call does."""
        # every pass writes a fresh directory, so no earlier file can stand in
        shutil.rmtree(self.workdir / "artifacts", ignore_errors=True)
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / "experiment.cfg"
        path.write_text(self.config_text())
        config.load_config(path)
        return path

    def workers(self) -> int:
        return rates.worker_count(len(config.parse_h_list(self.size["h"])))

    def run_pass(self, config_path):
        out = self.workdir / "artifacts" / f"pass-{self.passes}"
        self.passes += 1
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(["run", str(config_path), "--out", str(out)])
        return {"rc": rc, "stdout": stdout.getvalue(), "out": out}

    def check(self, result):
        problems = []
        if result["rc"] != 0:
            problems.append(f"run exited {result['rc']}: {result['stdout'][-300:]!r}")
        out = result["out"]
        blobs = {n: (out / n).read_bytes() for n in self.ARTIFACTS if (out / n).is_file()}
        if len(blobs) != len(self.ARTIFACTS):
            problems.append(f"missing artifacts: {sorted(set(self.ARTIFACTS) - set(blobs))}")
        if self.first_artifacts is None:
            self.first_artifacts = blobs
        elif blobs != self.first_artifacts:
            changed = sorted(n for n in self.ARTIFACTS if blobs.get(n) != self.first_artifacts.get(n))
            problems.append(f"artifacts differ from the first pass: {changed}")
        report = json.loads(blobs.get("rate_report.json", b"null"))
        record = {"verdict": None, "gamma_hat": None, "curve": [], "max_ratio": []}
        if report is not None:
            record["verdict"] = report["status"]
            record["gamma_hat"] = (report["fit"] or {}).get("gamma_hat")
            if report["status"] != "pass":
                problems.append(f"verdict {report['status']}: {report['fit_reason']}")
            for c in report["checks"]:
                record["max_ratio"].append(
                    _check_ratio(f"bound {c['side']}", c["max_ratio"], 1.0, problems)
                )
                if not c["passed"]:
                    problems.append(f"bound {c['side']} failed")
        csv = blobs.get("error_curve.csv", b"").decode().splitlines()[1:]
        record["curve"] = [[float(x) for x in row.split(",")[:3]] for row in csv]
        return problems, record


class LlnEnvelope:
    """Penalized two-point ``lln`` family against its sup-convolution limit."""

    name = "lln_envelope"
    SIZES = {
        "full": {"points": 4095, "cells": 512, "h_min": 9, "payoffs": 4, "suite": 513,
                 "pairs": 16},
        "tiny": {"points": 1025, "cells": 128, "h_min": 7, "payoffs": 2, "suite": 257,
                 "pairs": 4},
    }
    required_layers = (
        "properties.admit_operator",
        "properties.structural_suite",
        "convex_expectation.maximally_distributed_limit",
        "rates.measure_errors",
        "iterate.chernoff_iterate",
        "convex_expectation.lln_step",
        "kernels.apply_taps",
        "core.GridFunction",
        "bounds.lln_bounds",
        "rates.rate_report",
    )

    def __init__(self, seed: int, size: str, workdir):
        rng = _rng(seed, 2)
        self.size = s = self.SIZES[size]
        self.caps = [float(c) for c in rng.uniform(0.5, 2.0, size=s["payoffs"])]
        self.suite_seed = int(rng.integers(0, 1_000_000))
        self.h_list = tuple(2.0**-n for n in range(3, s["h_min"] + 1))

    def build(self):
        s = self.size
        grid = core.Grid((LOW,), (HIGH,), (s["points"],))
        # every measured step moves the atoms by whole cells: one tap each
        self.mass = s["cells"] * grid.spacing[0]
        ce = cx.ScenarioConvexExpectation(
            (cx.Scenario.point((-self.mass,)), cx.Scenario.point((self.mass,), penalty=1.0))
        )
        return {
            "grid": grid,
            "suite_grid": core.Grid((LOW,), (HIGH,), (s["suite"],)),
            "ce": ce,
            "op": iterate.StepOperator.from_lln(ce),
            "payoffs": [_capped(grid, c) for c in self.caps],
        }

    def workers(self) -> int:
        return rates.worker_count(len(self.h_list))

    def run_pass(self, inp):
        ce = inp["ce"]
        op = properties.admit_operator(
            inp["op"], inp["suite_grid"], seed=self.suite_seed, n_pairs=self.size["pairs"]
        )
        runs = []
        for f in inp["payoffs"]:
            limit = cx.maximally_distributed_limit(ce, f)
            curve = rates.measure_errors(
                op, f, 1.0, self.h_list, reference.OracleResult(limit, 0.0)
            )
            r = _radius(f)
            sides = tuple(bounds.lln_bounds(ce, r, 1.0, side) for side in ("minus", "plus"))
            runs.append((f, limit, curve, rates.rate_report(curve, sides)))
        return {"grid": inp["grid"], "runs": runs}

    def exact_envelope(self, grid, f):
        """S(1)f(x) = sup_y f(x + y) - y/(2m) - 1/2 over whole-cell shifts.

        The conjugate of z -> max(-m z, m z - 1) is y/(2m) + 1/2 on
        [-m, m]; for a grid payoff the sup is attained at whole-cell
        shifts, where linear interpolation is exact.
        """
        axis = grid.axes[0]
        dx = grid.spacing[0]
        cells = self.size["cells"]
        vals = np.full(grid.counts, -np.inf)
        for j in range(-cells, cells + 1):
            moved = np.interp(axis + j * dx, axis, f.values)
            np.maximum(vals, moved - (j * dx / (2.0 * self.mass) + 0.5), out=vals)
        return vals

    def check(self, result):
        problems = []
        grid = result["grid"]
        record = {"verdict": [], "gamma_hat": [], "curve": [], "max_ratio": [], "limit_gap": []}
        for i, (f, limit, curve, report) in enumerate(result["runs"]):
            record["verdict"].append(report.status)
            record["gamma_hat"].append(report.fit.gamma_hat if report.fit else None)
            record["curve"].append([[p.h, p.e_plus, p.e_minus] for p in curve.points])
            # The verdict is recorded, not required: the limit's own
            # resolution error (about criterion 07's tolerance) is close to
            # the errors at h = 2^-9 and flattens the fitted slope for caps
            # above about 1.5, so the slope check fails there.
            for c in report.checks:
                record["max_ratio"].append(
                    _check_ratio(f"payoff {i} lln {c.side}", c.max_ratio, 1.0, problems)
                )
                if not c.passed or c.skipped:
                    problems.append(f"payoff {i} lln {c.side}: passed={c.passed} "
                                    f"skipped={c.skipped}")
            # criterion 07's tolerance: y-grid and z-grid resolution of the limit
            mask = grid.interior_mask(curve.interior_margin)
            gap = float(np.max(np.abs(self.exact_envelope(grid, f) - limit.values)[mask]))
            y_step = 2.0 * self.mass / 4095
            z_step = 2.0 * (4.0 * self.mass + 4.0) / 4095
            tol = (f.lipschitz + 0.5 / self.mass) * y_step + z_step * self.mass
            record["limit_gap"].append(gap)
            if not gap <= tol:
                problems.append(f"payoff {i}: limit gap {gap!r} > {tol!r}")
        return problems, record


class CltCertify:
    """Check path of the centred Gaussian pair: suites, certificates,
    regularity of a recorded trajectory, and the discrete comparison."""

    name = "clt_certify"
    SIZES = {
        "full": {"points": 4095, "suite": 513, "pairs": 48, "traj_h": 6},
        "tiny": {"points": 1025, "suite": 257, "pairs": 6, "traj_h": 4},
    }
    required_layers = (
        "properties.structural_suite",
        "properties.appendix_suite",
        "convex_expectation.growth_certificate",
        "bounds.clt_bounds",
        "iterate.chernoff_iterate",
        "convex_expectation.clt_step",
        "kernels.gaussian_convolve",
        "kernels.apply_taps",
        "core.GridFunction",
        "rates.holder_check",
        "mollifier.mollify",
        "mollifier.derivative_bound_check",
        "iterate.discrete_comparison_check",
        "nisio.nisio_step",
    )
    EPS = (0.5, 1.0)  # Epsilon.coupled(eps2, p): eps1 = 0.25, eps2 = 0.5

    def __init__(self, seed: int, size: str, workdir):
        rng = _rng(seed, 3)
        self.size = self.SIZES[size]
        self.cap = float(rng.uniform(0.5, 2.0))
        self.suite_seed = int(rng.integers(0, 1_000_000))
        self.appendix_seed = int(rng.integers(0, 1_000_000))
        self.drift = float(rng.uniform(0.3, 1.0))

    def build(self):
        s = self.size
        grid = core.Grid((LOW,), (HIGH,), (s["points"],))
        ce = cx.ScenarioConvexExpectation(
            (cx.Scenario.gaussian((0.0,), 0.5), cx.Scenario.gaussian((0.0,), 1.0))
        )
        return {
            "grid": grid,
            "suite_grid": core.Grid((LOW,), (HIGH,), (s["suite"],)),
            "ce": ce,
            "op": iterate.StepOperator.from_clt(ce),
            "linear": iterate.StepOperator.from_nisio(nisio.NisioFamily(((1.0, 0.0),))),
            "payoff": _capped(grid, self.cap),
        }

    def workers(self) -> int:
        return 0  # no error curve on this path

    def run_pass(self, inp):
        s = self.size
        ce, op, f, grid = inp["ce"], inp["op"], inp["payoff"], inp["grid"]
        out = {"grid": grid}
        out["structural"] = properties.structural_suite(
            op, inp["suite_grid"], n_pairs=s["pairs"], seed=self.suite_seed, tol=1e-9
        )
        out["appendix"] = properties.appendix_suite(
            n_instances=s["pairs"], seed=self.appendix_seed, tol=1e-9
        )
        cert = cx.growth_certificate(ce)
        r = _radius(f)
        out["clt_bounds"] = [
            bounds.clt_bounds(ce, cert, r, 1.0, side, symmetric=sym)
            for sym in (False, True)
            for side in ("minus", "plus")
        ]

        step = 2.0 ** -s["traj_h"]
        _, traj = iterate.chernoff_iterate(op, f, 1.0, step, record=True)
        times = list(traj.times)
        pairs = [(a, b) for i, a in enumerate(times) for b in times[i + 1 :]]
        params = bounds.holder_parameters(
            r, 1.0, 0.0, lambda _r: 0.0, ce.abs_moment_combination({2: 0.5}), cert.p
        )
        out["holder"] = rates.holder_check(traj, pairs, params.alpha, params.constant, step)
        eps = mollifier.Epsilon.coupled(*self.EPS)
        out["trajectory"] = traj
        out["mollified"] = mollifier.mollify(traj, eps)
        out["derivative"] = [
            mollifier.derivative_bound_check(traj, eps, k, l, r)
            for k in (0, 1, 2)
            for l in (1, 2, 3)
        ]

        # criterion 11: a constant drift d against the plain heat step
        linear, h = inp["linear"], 0.125
        lattice = iterate.partition(1.0, h).times
        plain, drifted = [f], [f]
        for _ in lattice[1:]:
            plain.append(linear.step(plain[-1], h))
            drifted.append(linear.step(drifted[-1], h) + self.drift * h)
        stf = core.SpaceTimeFunction.from_functions
        const = [core.GridFunction(grid, np.full(grid.counts, self.drift))] * len(lattice)
        zero = [core.GridFunction(grid, np.zeros(grid.counts))] * len(lattice)
        out["comparison"] = iterate.discrete_comparison_check(
            linear, stf(lattice, drifted), stf(lattice, plain), stf(lattice, const),
            stf(lattice, zero), h, 1.0, tol=1e-9,
        )
        return out

    def check(self, out):
        problems = []
        n = self.size["pairs"]
        record = {"verdict": None, "gamma_hat": None, "max_ratio": {}}
        for key in ("structural", "appendix"):
            suite = out[key]
            if not suite.passed:
                problems.append(f"{key} suite failing: {suite.failing()}")
            for res in suite.results:
                # "zero" is one check per suite; every other property, one per pair
                if res.name != "zero" and res.checked != n:
                    problems.append(f"{key} {res.name}: checked {res.checked} != {n}")
            record[key] = {r.name: [r.checked, r.violations] for r in suite.results}
        gammas = [b.gamma for b in out["clt_bounds"]]
        want = [1 / 6, 1 / 6, 1 / 4, 1 / 4]
        if not all(math.isclose(g, w) for g, w in zip(gammas, want)):
            problems.append(f"clt_bounds exponents {gammas} != {want}")
        if not all(math.isfinite(b.total) and b.total > 0 for b in out["clt_bounds"]):
            problems.append("clt_bounds constant not finite and positive")
        record["clt_gamma"] = gammas
        # both checks allow their own tolerance over a ratio of 1
        hold = out["holder"]
        record["max_ratio"]["holder"] = hold.max_ratio / hold.limit
        if not hold.passed:
            problems.append(f"holder: max_ratio {hold.max_ratio / hold.limit!r}")
        record["max_ratio"]["derivative"] = [d.measured / d.bound for d in out["derivative"]]
        if not all(d.ok for d in out["derivative"]):
            problems.append(f"derivative: ratios {record['max_ratio']['derivative']}")
        mol_sup = float(np.max(np.abs(out["mollified"].values)))
        if mol_sup > float(np.max(np.abs(out["trajectory"].values))) * (1 + 1e-12):
            problems.append(f"mollified sup {mol_sup!r} exceeds trajectory sup")
        comp = out["comparison"]
        record["max_ratio"]["comparison_slack"] = comp.max_slack
        if not comp.passed or comp.vacuous:
            problems.append(f"comparison: passed={comp.passed} vacuous={comp.vacuous} "
                            f"slack={comp.max_slack!r}")
        record["verdict"] = "pass" if not problems else "fail"
        return problems, record


WORKLOADS = {w.name: w for w in (RunNisioOracle, LlnEnvelope, CltCertify)}
