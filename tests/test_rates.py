import math
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from chernoff import rates
from chernoff.bounds import BoundReport, nisio_bounds
from chernoff.convex_expectation import Scenario, ScenarioConvexExpectation
from chernoff.core import (
    DomainError,
    Grid,
    GridFunction,
    SpaceTimeFunction,
    negative_part_norm,
    positive_part_norm,
    sup_norm,
)
from chernoff.iterate import IterationError, StepOperator, chernoff_iterate
from chernoff.nisio import GeneratorBounds, NisioFamily
from chernoff.rates import (
    ErrorCurve,
    ErrorPoint,
    InconclusiveError,
    fit_rate,
    holder_check,
    measure_errors,
    rate_report,
    verify_bound,
    worker_count,
)
from chernoff.reference import FineOracle, OracleResult, fine_oracle, heat_exact


def grid1d(n=1025, half=12.0):
    return Grid((-half,), (half,), (n,))


def synthetic_curve(rule, ns=range(3, 10), uncertainty=0.0):
    pts = tuple(
        ErrorPoint(h=2.0**-n, e_plus=rule(2.0**-n), e_minus=0.0, oracle_uncertainty=uncertainty)
        for n in ns
    )
    return ErrorCurve(points=pts)


def test_curve_validation():
    with pytest.raises(DomainError):
        ErrorPoint(h=0.5, e_plus=-1e-3, e_minus=0.0)
    with pytest.raises(DomainError):
        ErrorPoint(h=0.0, e_plus=0.0, e_minus=0.0)
    pts = (ErrorPoint(0.25, 1.0, 0.0), ErrorPoint(0.25, 0.5, 0.0))
    with pytest.raises(DomainError):
        ErrorCurve(points=pts)


def test_csv_roundtrip_and_columns():
    curve = synthetic_curve(lambda h: 2.0 * h)
    text = curve.to_csv()
    assert text.splitlines()[0] == (
        "h,e_plus,e_minus,oracle_uncertainty,noise_floor,slope_tolerance,bound_value,pass"
    )
    back = ErrorCurve.from_csv(text)
    assert [pt.h for pt in back] == [pt.h for pt in curve]
    assert [pt.e_plus for pt in back] == [pt.e_plus for pt in curve]
    bound = BoundReport.from_addends(1.0, "plus", 1.0, 1.0, 0.25, [("c", 3.0)])
    curve = synthetic_curve(lambda h: 2.0 * h, ns=range(1, 8))
    rows = curve.to_csv(bound).splitlines()[1:]
    # h = 1/2 > eps0 = 1/4 on the gamma = 1 scale: outside the claim
    assert rows[0].endswith(",skipped")
    assert rows[2].endswith(",true")
    with pytest.raises(DomainError, match="header"):
        ErrorCurve.from_csv("a,b\n1,2\n")
    with pytest.raises(DomainError, match="expected header"):
        ErrorCurve.from_csv("h,e_plus,e_minus,bound_value,pass\n0.5,0.1,0.0,,\n")


def test_csv_keeps_the_oracle_uncertainty():
    curve = synthetic_curve(lambda h: 2.0 * h, uncertainty=3.5e-4)
    back = ErrorCurve.from_csv(curve.to_csv())
    assert [pt.oracle_uncertainty for pt in back] == [3.5e-4] * len(curve)
    override = ErrorCurve.from_csv(curve.to_csv(), uncertainty=0.0)
    assert [pt.oracle_uncertainty for pt in override] == [0.0] * len(curve)


def test_csv_keeps_the_recorded_bound_verdict():
    bound = BoundReport.from_addends(1.0, "plus", 1.0, 1.0, 0.25, [("c", 3.0)])
    exact = synthetic_curve(lambda h: 1e-13, ns=range(1, 8))
    assert exact.recorded_bound is None
    assert rate_report(exact, [bound]).status == "pass"
    back = ErrorCurve.from_csv(exact.to_csv(bound))
    assert back.recorded_bound == (True, pytest.approx(1.0, abs=1e-15))
    assert rate_report(back).status == "pass"  # as rate_report(exact, [bound])
    assert rate_report(ErrorCurve.from_csv(exact.to_csv())).status == "inconclusive"
    # an error above the bound at one checked point
    broken = synthetic_curve(lambda h: 1e-13 if h < 0.1 else 10.0, ns=range(1, 8))
    assert rate_report(broken, [bound]).status == "fail"
    back = ErrorCurve.from_csv(broken.to_csv(bound))
    assert back.recorded_bound == (False, pytest.approx(1.0, abs=1e-15))
    assert rate_report(back).status == "fail"
    # bounds given to rate_report take the place of the recorded verdict
    assert rate_report(back, [bound]).status == "fail"
    assert rate_report(ErrorCurve.from_csv(exact.to_csv(bound)), [bound]).status == "pass"


def test_the_refit_restores_the_recorded_bound_s_gamma():
    # gamma_hat = 0.1 stays under 100 h at every checked point, but falls
    # short of the bound's gamma = 1, so the run's verdict is fail
    bound = BoundReport.from_addends(1.0, "plus", 1.0, 1.0, 1.0, [("c", 100.0)])
    curve = synthetic_curve(lambda h: 0.05 * h**0.1)
    run = rate_report(curve, [bound])
    assert run.checks[0].passed and run.fit.gamma_hat == pytest.approx(0.1)
    assert run.status == "fail"
    back = ErrorCurve.from_csv(curve.to_csv(bound))
    refit = rate_report(back)
    assert refit.target_gamma == pytest.approx(1.0, abs=1e-15)
    assert refit.status == "fail"
    # a target given to the refit takes the place of the recorded one
    assert rate_report(back, target_gamma=0.1).status == "pass"
    # a bound column of zeros gives no exponent: the bound's verdict alone
    zero = BoundReport.from_addends(1.0, "plus", 1.0, 1.0, 1.0, [("c", 0.0)])
    back = ErrorCurve.from_csv(synthetic_curve(lambda h: 0.0).to_csv(zero))
    assert back.recorded_bound == (True, None)


def test_the_refit_judges_the_slope_with_the_run_s_tolerance(tmp_path, capsys):
    # gamma_hat = 0.8 stays under 100 h and falls 0.2 short of the bound's
    # gamma = 1: a tolerance of 0.5 passes it, the default 0.05 does not
    from chernoff.cli import main

    bound = BoundReport.from_addends(1.0, "plus", 1.0, 1.0, 1.0, [("c", 100.0)])
    curve = replace(synthetic_curve(lambda h: 0.05 * h**0.8), slope_tolerance=0.5)
    run = rate_report(curve, [bound])
    assert run.fit.gamma_hat == pytest.approx(0.8) and run.slope_tolerance == 0.5
    assert run.status == "pass"
    back = ErrorCurve.from_csv(curve.to_csv(bound))
    assert back.slope_tolerance == 0.5
    refit = rate_report(back)
    assert refit.target_gamma == pytest.approx(1.0, abs=1e-15)
    assert refit.slope_tolerance == 0.5 and refit.status == "pass"
    # a tolerance given to the refit takes the place of the recorded one
    assert rate_report(back, slope_tolerance=0.05).status == "fail"
    csv = tmp_path / "curve.csv"
    csv.write_text(curve.to_csv(bound))
    assert main(["rates", str(csv)]) == 0
    assert main(["rates", str(csv), "--slope-tolerance", "0.05"]) == 1
    capsys.readouterr()
    # a CSV with no slope_tolerance column is refused by its header
    rows = curve.to_csv(bound).splitlines()
    legacy = [",".join(cells[:5] + cells[6:]) for cells in (r.split(",") for r in rows)]
    assert legacy[0] == "h,e_plus,e_minus,oracle_uncertainty,noise_floor,bound_value,pass"
    with pytest.raises(DomainError, match="expected header"):
        ErrorCurve.from_csv("\n".join(legacy))
    # every row must carry the same tolerance
    rows[2] = rows[2].replace(",0.5,", ",0.25,")
    with pytest.raises(DomainError, match="slope tolerance"):
        ErrorCurve.from_csv("\n".join(rows))


def test_csv_keeps_the_noise_floor():
    curve = synthetic_curve(lambda h: 2.0 * h)
    floored = ErrorCurve(points=curve.points, noise_floor=100.0)
    back = ErrorCurve.from_csv(floored.to_csv())
    assert back.noise_floor == 100.0
    assert ErrorCurve.from_csv(curve.to_csv()).noise_floor == 10.0
    # the curve's floor is the fit's default
    at_floor = synthetic_curve(lambda h: 1e-3 * h, uncertainty=2e-6)
    assert rate_report(at_floor).fit is not None
    assert rate_report(ErrorCurve(points=at_floor.points, noise_floor=500.0)).fit is None
    rows = floored.to_csv().splitlines()
    rows[2] = rows[2].replace(",100.0,", ",10.0,")
    with pytest.raises(DomainError, match="noise floor"):
        ErrorCurve.from_csv("\n".join(rows))
    with pytest.raises(DomainError, match="noise floor"):
        ErrorCurve(points=curve.points, noise_floor=0.5)


def test_fit_rate_reads_the_curve_s_noise_floor():
    # 2h for h = 2^-3..2^-9 under 100 x 1e-4 keeps 2^-3..2^-7; the default
    # floor of 10 would keep all seven
    curve = replace(synthetic_curve(lambda h: 2.0 * h, uncertainty=1e-4), noise_floor=100.0)
    assert fit_rate(curve).n_usable == 5
    assert rate_report(curve).fit == fit_rate(curve)


def test_worker_count(monkeypatch):
    assert worker_count(4, 2) == 2
    assert worker_count(1, 8) == 1
    monkeypatch.setenv("CHERNOFF_WORKERS", "3")
    assert worker_count(10) == 3
    monkeypatch.setenv("CHERNOFF_WORKERS", "zebra")
    with pytest.raises(DomainError):
        worker_count(10)
    with pytest.raises(DomainError):
        worker_count(10, 0)


def test_worker_count_defaults_to_the_cores_the_process_may_run_on(monkeypatch):
    import chernoff.iterate as iterate_mod

    monkeypatch.delenv("CHERNOFF_WORKERS", raising=False)
    monkeypatch.setattr(iterate_mod.os, "cpu_count", lambda: 2)
    # pinned to one core of two, as under ``taskset -c 0``
    monkeypatch.setattr(iterate_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count(10) == 1
    monkeypatch.setattr(iterate_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert worker_count(10) == 3
    # a platform with no affinity call counts the machine's cores
    monkeypatch.delattr(iterate_mod.os, "sched_getaffinity", raising=False)
    assert worker_count(10) == 2


def test_fit_rate_recovers_exact_power_laws():
    fit = fit_rate(synthetic_curve(lambda h: 3.0 * h))
    assert fit.gamma_hat == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.n_fit == (fit.n_usable + 1) // 2
    half = fit_rate(synthetic_curve(lambda h: 2.0 * math.sqrt(h)))
    assert half.gamma_hat == pytest.approx(0.5, abs=1e-12)
    assert half.plus_slope == pytest.approx(0.5, abs=1e-12)
    assert half.minus_slope is None  # that side never leaves the floor


def test_fit_rate_with_multiplicative_noise():
    rng = np.random.default_rng(7)
    wiggles = {n: 1.0 + 0.01 * rng.uniform(-1, 1) for n in range(3, 10)}
    curve = synthetic_curve(lambda h: h**0.25 * wiggles[round(-math.log2(h))])
    fit = fit_rate(curve)
    assert 0.23 <= fit.gamma_hat <= 0.27


def test_fit_rate_inconclusive_below_floor():
    curve = synthetic_curve(lambda h: 1e-4, uncertainty=1e-4)
    with pytest.raises(InconclusiveError, match="noise floor"):
        fit_rate(curve)
    # only the two coarsest points rise above: still not enough
    curve2 = synthetic_curve(lambda h: h, uncertainty=0.004)
    with pytest.raises(InconclusiveError):
        fit_rate(curve2)


def test_verify_bound_strictness():
    bound = BoundReport.from_addends(0.5, "plus", 1.0, 1.0, 1.0, [("c", 2.0)])
    exact = verify_bound(synthetic_curve(lambda h: 2.0 * math.sqrt(h)), bound)
    assert exact.passed and exact.max_ratio == pytest.approx(1.0)
    hot = verify_bound(synthetic_curve(lambda h: 2.02 * math.sqrt(h)), bound)
    assert not hot.passed
    cold = verify_bound(synthetic_curve(lambda h: 0.0), bound)
    assert cold.passed and cold.max_ratio == 0.0
    assert cold.skipped == 0


def test_verify_bound_skips_inadmissible_steps():
    # eps0 = 0.4 with gamma = 0.5 admits only h <= 0.16
    bound = BoundReport.from_addends(0.5, "plus", 1.0, 1.0, 0.4, [("c", 1.0)])
    curve = synthetic_curve(lambda h: 5.0, ns=range(2, 8))  # violates everywhere
    check = verify_bound(curve, bound)
    assert check.skipped == 1  # h = 1/4 is outside the claim
    assert len(check.rows) == 5 and not check.passed


def test_signed_split_partitions_the_norm():
    rng = np.random.default_rng(3)
    grid = grid1d(257, 4.0)
    for _ in range(20):
        diff = GridFunction(grid, rng.normal(size=257))
        plus = positive_part_norm(diff)
        minus = negative_part_norm(diff)
        total = sup_norm(diff)
        assert plus <= total + 1e-15 and minus <= total + 1e-15
        assert max(plus, minus) == pytest.approx(total, abs=0.0)


def test_measure_errors_requires_admission_and_fine_oracle():
    grid = grid1d(257, 8.0)
    f = GridFunction.from_callable(grid, np.cos)
    op = StepOperator.from_nisio(NisioFamily(((1.0, 0.0),)))
    ref = OracleResult(values=f, uncertainty=0.0, h_fine=None)
    with pytest.raises(DomainError, match="admission"):
        measure_errors(op, f, 1.0, [0.5, 0.25], ref)
    coarse = OracleResult(values=f, uncertainty=0.0, h_fine=0.25)
    with pytest.raises(DomainError, match="8x finer"):
        measure_errors(op.admit(), f, 1.0, [0.5, 0.25], coarse)
    with pytest.raises(DomainError):
        measure_errors(op.admit(), f, 1.0, [0.25, 0.25], ref)


def test_linear_scheme_is_exact_and_passes_trivially():
    grid = grid1d(1025, 12.0)
    f = GridFunction.from_callable(grid, np.cos)
    op = StepOperator.from_nisio(NisioFamily(((1.0, 0.0),))).admit()
    ref = OracleResult(values=heat_exact(f, 1.0, 0.0, 1.0), uncertainty=0.0, h_fine=None)
    # margin 8 keeps the constant-extension boundary leak out of the comparison
    curve = measure_errors(op, f, 1.0, [2.0**-n for n in (3, 4, 5)], ref, margin=8.0)
    assert all(pt.max_error < 1e-11 for pt in curve)
    bound = nisio_bounds(GeneratorBounds.for_constant_coefficients(((1.0, 0.0),)), 1.0, 1.0)
    report = rate_report(curve, [bound])
    assert report.status == "pass" and report.fit is None


def test_gheat_curve_decreases_and_is_one_sided():
    grid = grid1d(1025, 12.0)
    f = GridFunction.from_callable(grid, lambda v: np.minimum(np.abs(v), 1.0))
    op = StepOperator.from_nisio(NisioFamily(((0.5, 0.0), (1.0, 0.0)))).admit()
    ref = fine_oracle(op, f, 1.0, 2.0**-7)
    curve = measure_errors(op, f, 1.0, [2.0**-3, 2.0**-4], ref)
    assert curve.points[0].e_plus > curve.points[1].e_plus > 0
    for pt in curve:
        assert pt.e_minus <= 10 * pt.oracle_uncertainty
    assert curve.interior_margin == pytest.approx(3.0)


def test_measure_errors_parallel_matches_serial():
    grid = grid1d(513, 12.0)
    f = GridFunction.from_callable(grid, lambda v: np.minimum(np.abs(v), 1.0))
    op = StepOperator.from_nisio(NisioFamily(((0.5, 0.0), (1.0, 0.0)))).admit()
    ref = OracleResult(values=f, uncertainty=0.0, h_fine=None)
    hs = [2.0**-3, 2.0**-4, 2.0**-5]
    serial = measure_errors(op, f, 0.25, hs, ref, workers=1)
    parallel = measure_errors(op, f, 0.25, hs, ref, workers=3)
    for a, b in zip(serial, parallel):
        assert (a.h, a.e_plus, a.e_minus) == (b.h, b.e_plus, b.e_minus)


def test_shift_only_operators_default_to_one_thread(monkeypatch):
    import chernoff.iterate as iterate_mod

    pools = []

    class RecordingPool(iterate_mod.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(iterate_mod, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(iterate_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("CHERNOFF_WORKERS", raising=False)
    grid = grid1d(257, 12.0)
    f = GridFunction.from_callable(grid, lambda v: np.minimum(np.abs(v), 1.0))
    ref = OracleResult(values=f, uncertainty=0.0, h_fine=None)
    points = ScenarioConvexExpectation((Scenario.point(-0.5), Scenario.point(0.5, 1.0)))
    gauss = ScenarioConvexExpectation((Scenario.gaussian(0.0, 0.5), Scenario.gaussian(0.0, 1.0)))
    discrete = ScenarioConvexExpectation((Scenario.discrete([-1.0, 1.0], [0.5, 0.5]),))
    cases = [
        (StepOperator.from_lln(points), True),
        (StepOperator.from_clt(discrete), True),
        (StepOperator.from_nisio(NisioFamily(((0.0, 0.7), (0.0, -0.3)))), True),
        (StepOperator.from_lln(gauss), False),
        (StepOperator.from_clt(gauss), False),
        (StepOperator.from_nisio(NisioFamily(((0.0, 0.7), (0.5, 0.0)))), False),
    ]
    for op, shifts_only in cases:
        assert op.shifts_only is shifts_only
        pools.clear()
        measure_errors(op.admit(), f, 0.25, [2.0**-3, 2.0**-4], ref, margin=1.0)
        assert pools == ([] if shifts_only else [2])
        measure_errors(op.admit(), f, 0.25, [2.0**-3, 2.0**-4], ref, margin=1.0, workers=2)
        assert pools[-1] == 2


def _capped(grid):
    return GridFunction.from_callable(grid, lambda v: np.minimum(np.abs(v), 1.0))


POOLED_FAMILIES = {
    "nisio": StepOperator.from_nisio(NisioFamily(((0.5, 0.0), (1.0, 0.0)))),
    "clt": StepOperator.from_clt(
        ScenarioConvexExpectation((Scenario.gaussian(0.0, 0.5), Scenario.gaussian(0.0, 1.0)))
    ),
}


@dataclass(frozen=True)
class KeptOracle(FineOracle):
    """``FineOracle`` that keeps each reference it finishes."""

    kept: list = field(default_factory=list, compare=False)

    def finish(self, *args):
        self.kept.append(super().finish(*args))
        return self.kept[-1]


@pytest.mark.parametrize("family", sorted(POOLED_FAMILIES))
def test_pooled_oracle_and_curve_match_one_thread_bit_for_bit(family):
    grid = grid1d(513, 12.0)
    f = _capped(grid)
    op = POOLED_FAMILIES[family].admit()
    hs = [2.0**-3, 2.0**-4, 2.0**-5]
    pooled, one = KeptOracle(2.0**-8), KeptOracle(2.0**-8)
    # more threads than runs on most hosts, switching as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        curve = measure_errors(op, f, 0.5, hs, pooled, workers=5)
    finally:
        sys.setswitchinterval(interval)
    serial_ref = fine_oracle(op, f, 0.5, 2.0**-8)  # its two levels through the pool
    one_curve = measure_errors(op, f, 0.5, hs, one, workers=1)
    (ref,), (one_ref,) = pooled.kept, one.kept
    for other in (serial_ref, one_ref):
        assert np.array_equal(ref.values.values, other.values.values)
        assert ref.uncertainty == other.uncertainty and ref.h_fine == other.h_fine
    serial_curve = measure_errors(op, f, 0.5, hs, serial_ref, workers=1)
    for other in (serial_curve, one_curve):
        assert curve.points == other.points
        assert curve.interior_margin == other.interior_margin


def _recording_pool(iterate_mod, pools, submitted):
    class RecordingPool(iterate_mod.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

        def submit(self, fn, *args, **kwargs):
            submitted.append(args[3])  # chernoff_iterate(op, f, t, h)
            return super().submit(fn, *args, **kwargs)

    return RecordingPool


def test_the_pool_submits_the_longest_runs_first(monkeypatch):
    import chernoff.iterate as iterate_mod

    pools, submitted = [], []
    monkeypatch.setattr(
        iterate_mod, "ThreadPoolExecutor", _recording_pool(iterate_mod, pools, submitted)
    )
    grid = grid1d(257, 12.0)
    op = POOLED_FAMILIES["nisio"].admit()
    hs = [2.0**-3, 2.0**-4, 2.0**-5]
    measure_errors(op, _capped(grid), 0.25, hs, FineOracle(2.0**-8), workers=2)
    assert pools == [2]
    assert submitted == [2.0**-8, 2.0**-7, 2.0**-5, 2.0**-4, 2.0**-3]


def test_shift_only_operators_open_no_pool_in_the_oracle(monkeypatch):
    import chernoff.iterate as iterate_mod

    pools, submitted = [], []
    monkeypatch.setattr(
        iterate_mod, "ThreadPoolExecutor", _recording_pool(iterate_mod, pools, submitted)
    )
    monkeypatch.setattr(iterate_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("CHERNOFF_WORKERS", raising=False)
    grid = grid1d(257, 12.0)
    f = _capped(grid)
    points = ScenarioConvexExpectation((Scenario.point(-0.5), Scenario.point(0.5, 1.0)))
    fine_oracle(StepOperator.from_lln(points), f, 0.25, 2.0**-6)
    measure_errors(StepOperator.from_lln(points).admit(), f, 0.25, [2.0**-3], FineOracle(2.0**-6))
    assert pools == []
    fine_oracle(POOLED_FAMILIES["nisio"], f, 0.25, 2.0**-6)
    assert pools == [2] and submitted == [2.0**-6, 2.0**-5]


def _failing_at(op, bad_steps, slow=()):
    """``op`` whose one-row plans at each step size h of ``bad_steps``
    give non-finite values from step ``bad_steps[h]`` on; at the step
    sizes in ``slow`` each step first sleeps a millisecond, letting the
    other threads run."""

    def planner(grid, h, stack=None):
        step = op.plan(grid, h, stack)
        if stack is not None or h not in bad_steps:
            return step
        count = []

        def failing(u, out):
            count.append(1)
            if h in slow:
                time.sleep(1e-3)
            step(u, out)
            if len(count) >= bad_steps[h]:
                out[...] = np.nan
            return out

        return failing

    return replace(op, planner=planner)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_failure_at_the_finest_level_raises_as_the_serial_oracle_did(workers):
    grid = grid1d(257, 12.0)
    f = _capped(grid)
    h_fine, hs = 2.0**-8, [2.0**-3, 2.0**-4]
    # the message chernoff_iterate gives a failing run of 64 steps at h_fine
    message = r"step 60 of 64 \(h=0\.00390625\) failed: grid function values must be finite"
    op = _failing_at(POOLED_FAMILIES["nisio"], {h_fine: 60}).admit()
    with pytest.raises(IterationError, match=message):
        measure_errors(op, f, 0.25, hs, FineOracle(h_fine), workers=workers)
    # a curve point that fails first still yields to the first run in order
    op = _failing_at(POOLED_FAMILIES["nisio"], {h_fine: 60, hs[-1]: 1}, slow={h_fine}).admit()
    with pytest.raises(IterationError, match=message):
        measure_errors(op, f, 0.25, hs, FineOracle(h_fine), workers=workers)


def test_oracle_and_curve_checks_before_any_step(monkeypatch):
    import chernoff.iterate as iterate_mod

    def no_runs(*args, **kwargs):
        raise AssertionError("a step ran before the checks")

    monkeypatch.setattr(iterate_mod, "chernoff_iterate", no_runs)
    grid = grid1d(257, 12.0)
    f = _capped(grid)
    op = POOLED_FAMILIES["nisio"]
    with pytest.raises(DomainError, match="h_fine must be positive"):
        FineOracle(0.0)
    cases = [
        (op, 2.0**-8, [0.5], "admission"),
        (op.admit(), 2.0**-8, [0.25, 0.5], "strictly decreasing"),
        (op.admit(), 2.0**-4, [0.25, 0.125], "8x finer"),
    ]
    for operator, h_fine, hs, message in cases:
        with pytest.raises(DomainError, match=message):
            measure_errors(operator, f, 0.25, hs, FineOracle(h_fine))
    with pytest.raises(DomainError, match="need a positive terminal time"):
        measure_errors(op.admit(), f, -1.0, [0.5], FineOracle(2.0**-8))
    with pytest.raises(DomainError, match="margin leaves no grid points"):
        measure_errors(op.admit(), f, 0.25, [0.5], FineOracle(2.0**-8), margin=12.5)
    # fine_oracle on its own checks as much before its first step
    with pytest.raises(DomainError, match="h_fine must be positive"):
        fine_oracle(op.admit(), f, 0.25, 0.0)
    with pytest.raises(DomainError, match="time must be non-negative"):
        fine_oracle(op.admit(), f, -1.0, 2.0**-8)
    with pytest.raises(DomainError, match="margin leaves no interior points"):
        fine_oracle(op.admit(), f, 0.25, 2.0**-8, margin=12.5)


def transport_trajectory(speed=0.7, r=1.0, h=0.125, steps=8):
    grid = grid1d(801, 10.0)
    f = GridFunction.from_callable(grid, lambda v: r * np.abs(v))
    op = StepOperator.from_nisio(NisioFamily(((0.0, speed),))).admit()
    _, traj = chernoff_iterate(op, f, h * steps, h, record=True)
    return traj, h


def test_holder_check_examples():
    traj, h = transport_trajectory()
    times = list(traj.times)
    pairs = [(s, t) for s in times for t in times if s < t]
    # exact transport of a 1-Lipschitz cone moves sup-norm at the drift speed
    rep = holder_check(traj, pairs, 1.0, 0.7, h, tol=0.01)
    assert rep.passed and rep.max_ratio <= 0.7
    assert rep.max_ratio == pytest.approx(0.7 * 8 / (8 + 1), rel=1e-6)
    flat = SpaceTimeFunction.from_functions([0.0, 0.5, 1.0], [traj.slice(0)] * 3)
    rep0 = holder_check(flat, [(0.0, 1.0)], 0.5, 1.0, 0.5)
    assert rep0.max_ratio == 0.0 and rep0.worst_pair is None
    with pytest.raises(DomainError, match="horizon"):
        holder_check(traj, [(0.0, 2.0)], 0.5, 1.0, h)
    with pytest.raises(DomainError):
        holder_check(traj, [(0.0, 1.0)], 1.5, 1.0, h)


def test_rate_report_statuses():
    curve = synthetic_curve(lambda h: 2.0 * math.sqrt(h))
    bound = BoundReport.from_addends(0.5, "plus", 1.0, 1.0, 1.0, [("c", 2.0)])
    rep = rate_report(curve, [bound])
    assert rep.status == "pass"
    assert rep.fit.gamma_hat == pytest.approx(0.5, abs=1e-12)
    assert rep.target_gamma == 0.5
    # slope floor violated: observed 0.5 against a demanded 0.9
    rep_slow = rate_report(curve, [bound], target_gamma=0.9)
    assert rep_slow.status == "fail"
    tight = BoundReport.from_addends(0.5, "plus", 1.0, 1.0, 1.0, [("c", 1.9)])
    assert rate_report(curve, [tight]).status == "fail"
    noisy = synthetic_curve(lambda h: 1e-6, uncertainty=1e-6)
    assert rate_report(noisy, []).status == "inconclusive"
    d = rep.to_dict()
    assert d["status"] == "pass" and d["checks"][0]["passed"]


def test_only_an_exact_scheme_passes_without_a_fit():
    bound = BoundReport.from_addends(0.5, "plus", 1.0, 1.0, 1.0, [("c", 2.0)])
    # errors around 1e-4 under an uncertainty of 1e-3: every point sits
    # below 10x the uncertainty, and the bounds hold, yet nothing shows
    # that the scheme is exact
    hidden = synthetic_curve(lambda h: 1e-4 * (1.0 + h), uncertainty=1e-3)
    rep = rate_report(hidden, [bound])
    assert rep.fit is None and all(c.passed for c in rep.checks)
    assert rep.status == "inconclusive"
    # errors at most the absolute floor are the exact-scheme case
    exact = synthetic_curve(lambda h: 1e-13, uncertainty=1e-3)
    assert rate_report(exact, [bound]).status == "pass"
    assert rate_report(exact, []).status == "inconclusive"  # no bound to hold


def test_rate_report_monotone_in_slope_tolerance():
    curve = synthetic_curve(lambda h: 2.0 * math.sqrt(h))
    bound = BoundReport.from_addends(0.5, "plus", 1.0, 1.0, 1.0, [("c", 2.0)])
    verdicts = [
        rate_report(curve, [bound], slope_tolerance=tol, target_gamma=0.53).status
        for tol in (0.0, 0.02, 0.05, 0.2)
    ]
    assert verdicts == ["fail", "fail", "pass", "pass"]


# ---------------------------------------------------------------------------
# holder_check against its per-pair definition


def _holder_reference(traj, pairs, alpha, limit, h, tol=0.01):
    """holder_check written out pair by pair: the nearest sample by
    argmin, the sup of |u(s) - u(t)|, and a strict > so that the first
    worst pair wins."""
    worst, worst_pair = 0.0, None
    for s, t in pairs:
        i = int(np.argmin(np.abs(traj.times - s)))
        j = int(np.argmin(np.abs(traj.times - t)))
        part = np.abs(traj.values[i] - traj.values[j])
        ratio = float(np.max(part)) / (abs(s - t) + h) ** alpha
        if ratio > worst:
            worst, worst_pair = ratio, (float(s), float(t))
    return worst, worst_pair, worst <= limit * (1 + tol)


def _assert_holder_matches(traj, pairs, alpha, limit, h):
    rep = holder_check(traj, pairs, alpha, limit, h)
    worst, worst_pair, passed = _holder_reference(traj, pairs, alpha, limit, h)
    assert rep.max_ratio == worst  # bit for bit: the same elementwise arithmetic
    assert rep.worst_pair == worst_pair
    assert rep.passed == passed
    return rep


def test_holder_check_matches_per_pair_definition():
    traj, h = transport_trajectory(speed=0.4, h=0.0625, steps=12)
    times = list(traj.times)
    rng = np.random.default_rng(5)
    # shuffled, both orientations, and repeats, so blocks keyed by the
    # first frame do not follow the input order
    pairs = [(a, b) for a in times for b in times if a != b and abs(a - b) <= 0.5]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))] + pairs[:5]
    rep = _assert_holder_matches(traj, pairs, 0.5, 0.5, h)
    assert rep.worst_pair is not None


def test_holder_check_tie_goes_to_the_first_pair():
    g = grid1d(101, 4.0)
    f0 = GridFunction.from_callable(g, np.cos)
    f1 = GridFunction.from_callable(g, np.sin)
    traj = SpaceTimeFunction.from_functions([0.0, 0.5, 1.0], [f0, f1, f0])
    # equal gaps and equal |s - t|: the pair listed first is the worst,
    # although its first frame sorts after the other's
    pairs = [(0.5, 1.0), (0.0, 0.5)]
    rep = _assert_holder_matches(traj, pairs, 0.5, 10.0, 0.01)
    assert rep.worst_pair == (0.5, 1.0)
    rep = _assert_holder_matches(traj, pairs[::-1], 0.5, 10.0, 0.01)
    assert rep.worst_pair == (0.0, 0.5)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_holder_check_matches_definition_on_clt_certify_trajectories(seed):
    # the benchmark's clt_certify trajectory: a capped payoff under the
    # Gaussian pair, 2^-6 steps on 4095 points, all 2080 pairs
    cap = float(np.random.default_rng([seed, 3]).uniform(0.5, 2.0))
    grid = Grid((-12.0,), (12.0,), (4095,))
    f = GridFunction.from_callable(grid, lambda v: np.minimum(np.abs(v), cap))
    ce = ScenarioConvexExpectation(
        (Scenario.gaussian((0.0,), 0.5), Scenario.gaussian((0.0,), 1.0))
    )
    _, traj = chernoff_iterate(StepOperator.from_clt(ce), f, 1.0, 2.0**-6, record=True)
    times = list(traj.times)
    pairs = [(a, b) for i, a in enumerate(times) for b in times[i + 1 :]]
    assert len(pairs) == 2080
    _assert_holder_matches(traj, pairs, 0.5, 1.0, 2.0**-6)


@pytest.mark.parametrize("alpha", [0.25, 1.0 / 3.0, 0.7])
def test_holder_check_denominators_are_pythons_power(alpha):
    # irregular sample times, so |s - t| + h takes hundreds of values;
    # numpy's vectorised power rounds some of them differently from
    # Python's, which each single-pair call would show in its ratio
    g = grid1d(33, 2.0)
    times = np.r_[0.0, np.sort(np.random.default_rng(7).uniform(0.0, 1.0, 30))]
    traj = SpaceTimeFunction(g, times, np.cos(g.axes[0][None, :] + 3.0 * times[:, None]))
    listed = times.tolist()
    for i, a in enumerate(listed):
        for b in listed[i + 1 :]:
            _assert_holder_matches(traj, [(a, b)], alpha, 10.0, 1.0 / 64)


def test_holder_check_empty_and_zero_denominator():
    traj, h = transport_trajectory()
    rep = holder_check(traj, [], 0.5, 1.0, h)
    assert (rep.max_ratio, rep.worst_pair, rep.passed) == (0.0, None, True)
    # s = t with h = 0 reads one sample twice: a zero gap, ratio 0
    rep = holder_check(traj, [(0.5, 0.5)], 0.5, 1.0, 0.0)
    assert (rep.max_ratio, rep.worst_pair, rep.passed) == (0.0, None, True)


def test_holder_check_names_the_first_bad_pair():
    traj, h = transport_trajectory(steps=16)  # horizon 2
    off_sample, too_far, outside = (0.1, 0.25), (0.0, 1.5), (0.0, 3.0)
    with pytest.raises(DomainError, match="time 0.1 is not a sample"):
        holder_check(traj, [(0.0, 0.5), off_sample, too_far, outside], 0.5, 1.0, h)
    with pytest.raises(DomainError, match=r"\|s - t\| <= 1"):
        holder_check(traj, [too_far, off_sample, outside], 0.5, 1.0, h)
    with pytest.raises(DomainError, match="horizon"):
        holder_check(traj, [outside, too_far, off_sample], 0.5, 1.0, h)
    # a later time that is not a sample does not hide an earlier one
    with pytest.raises(DomainError, match="time 0.3 is not a sample"):
        holder_check(traj, [(0.0, 0.3), (0.7, 0.5)], 0.5, 1.0, h)


def test_holder_check_overflowing_difference_raises():
    g = grid1d(33, 2.0)
    big = SpaceTimeFunction(g, [0.0, 0.5], np.stack([np.full(33, 1.5e308), np.full(33, -1.5e308)]))
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match="not finite"):
            holder_check(big, [(0.0, 0.0), (0.0, 0.5)], 1.0, 1.0, 0.1)


def test_holder_check_builds_no_grid_function_per_pair(monkeypatch):
    # 65 frames, 2080 pairs: per-pair objects would make thousands
    g = grid1d(257, 4.0)
    times = np.linspace(0.0, 1.0, 65)
    traj = SpaceTimeFunction(g, times, np.cos(g.axes[0][None, :] + times[:, None]))
    real, calls = GridFunction.__post_init__, []

    def counted(self):
        calls.append(1)
        real(self)

    monkeypatch.setattr(GridFunction, "__post_init__", counted)
    pairs = [(a, b) for i, a in enumerate(times) for b in times[i + 1 :]]
    rep = holder_check(traj, pairs, 0.5, 10.0, 1.0 / 64)
    assert rep.worst_pair is not None
    assert len(calls) <= 2


# ---------------------------------------------------------------------------
# holder_check's certified pruning: exact gaps only where they can matter


def _counted_pair_gaps(monkeypatch):
    """Count the pairs whose exact gap ``holder_check`` takes."""
    real, counted = rates._pair_gaps, []

    def counting(values, idx):
        counted.append(len(idx))
        return real(values, idx)

    monkeypatch.setattr(rates, "_pair_gaps", counting)
    return counted


def _clt_certify_trajectory(cap):
    grid = Grid((-12.0,), (12.0,), (4095,))
    f = GridFunction.from_callable(grid, lambda v: np.minimum(np.abs(v), cap))
    ce = ScenarioConvexExpectation(
        (Scenario.gaussian((0.0,), 0.5), Scenario.gaussian((0.0,), 1.0))
    )
    return chernoff_iterate(StepOperator.from_clt(ce), f, 1.0, 2.0**-6, record=True)[1]


@pytest.mark.parametrize("cap", [0.5, 1.2, 2.0])
def test_holder_check_takes_few_exact_gaps_on_clt_certify_trajectories(cap, monkeypatch):
    # the trajectory moves one way, so the consecutive-gap bounds are
    # tight and at most 4 of the 2080 pairs need their exact gap; a
    # fall-back to every pair fails here
    traj = _clt_certify_trajectory(cap)
    times = list(traj.times)
    pairs = [(a, b) for i, a in enumerate(times) for b in times[i + 1 :]]
    counted = _counted_pair_gaps(monkeypatch)
    for alpha in (0.5, 1.0):
        counted.clear()
        _assert_holder_matches(traj, pairs, alpha, 1.0, 2.0**-6)
        assert 1 <= sum(counted) <= 4


def test_holder_check_on_a_trajectory_going_back_and_forth_takes_every_gap(monkeypatch):
    # frames alternate between two functions: every bound grows with
    # |s - t| while the gaps of even distance are 0, so the pair with the
    # largest bound ratio has ratio 0 and every pair stays a candidate
    g = grid1d(65, 2.0)
    f0, f1 = np.cos(g.axes[0]), np.sin(2.0 * g.axes[0])
    times = np.linspace(0.0, 1.0, 17)
    traj = SpaceTimeFunction(g, times, np.stack([f0 if i % 2 == 0 else f1 for i in range(17)]))
    pairs = [(a, b) for i, a in enumerate(times) for b in times[i + 1 :]]
    counted = _counted_pair_gaps(monkeypatch)
    rep = _assert_holder_matches(traj, pairs, 0.5, 1.0, 1.0 / 16)
    assert rep.worst_pair is not None
    assert sum(counted) == len(pairs)


def test_holder_check_with_overflowing_sums_of_finite_gaps():
    # consecutive gaps of 1e308: their prefix sums overflow to inf, and
    # later bounds are inf - inf = nan, while every pair's own gap is
    # 1e308 or 0 and every ratio finite; the result is the per-pair one,
    # with no warning
    g = grid1d(33, 2.0)
    times = np.linspace(0.0, 1.0, 9)
    rows = [np.full(33, 1e308) if i % 2 else np.zeros(33) for i in range(9)]
    traj = SpaceTimeFunction(g, times, np.stack(rows))
    pairs = [(a, b) for i, a in enumerate(times) for b in times[i + 1 :]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = _assert_holder_matches(traj, pairs, 1.0, 1.0, 1.0)
    assert rep.worst_pair == (0.0, 0.125)


def test_holder_check_names_the_first_overflowing_pair_in_input_order():
    g = grid1d(33, 2.0)
    rows = [np.full(33, 1.5e308), np.full(33, -1.5e308), np.full(33, 1.5e308)]
    traj = SpaceTimeFunction(g, [0.0, 0.5, 1.0], np.stack(rows))
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match=r"pair \(1.0, 0.5\)"):
            holder_check(traj, [(0.0, 0.0), (0.0, 1.0), (1.0, 0.5), (0.0, 0.5)], 1.0, 1.0, 0.1)


def test_holder_check_reversed_repeated_and_equal_pairs():
    traj, h = transport_trajectory(speed=0.4, h=0.0625, steps=12)
    times = list(traj.times)
    forward = [(a, b) for i, a in enumerate(times) for b in times[i + 1 :] if b - a <= 0.5]
    pairs = [(b, a) for a, b in forward[::3]] + forward[:7] + forward[:7] + [(t, t) for t in times]
    rep = _assert_holder_matches(traj, pairs, 0.5, 0.5, h)
    # the worst pair is the first of the repeats, in the reversed orientation if listed so
    assert rep.worst_pair in pairs
    # s = t with h = 0 contributes 0 among other pairs
    mixed = [(t, t) for t in times] + forward
    rep = holder_check(traj, mixed, 0.5, 0.5, 0.0)
    worst, worst_pair, _ = _holder_reference(traj, forward, 0.5, 0.5, 0.0)
    assert (rep.max_ratio, rep.worst_pair) == (worst, worst_pair)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_gap_bounds_cover_every_computed_gap(seed):
    # rows constant in space, rising in [1, 2): each consecutive and each
    # pair's difference is exact, while the prefix sums round, so the sum
    # of the consecutive gaps can fall below a pair's gap by a few ulps;
    # the rounding margin covers it
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.uniform(1.0, 2.0, 200))
    values = np.repeat(levels[:, None], 5, axis=1)
    i, j = np.triu_indices(len(levels), 1)
    idx = np.stack([i, j], axis=1)
    gaps, ceilings = rates._pair_gaps(values, idx), rates._gap_bounds(values, idx)
    assert np.all(gaps <= ceilings)
    assert np.all(gaps <= rates._gap_bounds(values, idx[:, ::-1]))
    # tight up to the margin: within (4 T + 8) 2^-53 of the sum
    prefix = np.concatenate(([0.0], np.cumsum(np.diff(levels))))
    assert np.all(ceilings - gaps <= 1e-12 * prefix[j] + 1e-15)


def test_holder_check_keeps_every_pair_whose_bound_is_not_finite():
    # prefix sums overflow from the third frame on, so the bounds of the
    # pairs between later frames are inf - inf = nan; the pair with the
    # largest bound ratio is the first nan one, and the worst pair is a
    # later nan one
    g = grid1d(33, 2.0)
    levels = [0.0, 1e308, 0.0, 1e308, 0.5e308]
    rows = np.repeat(np.array(levels)[:, None], 33, axis=1)
    traj = SpaceTimeFunction(g, np.linspace(0.0, 1.0, 5), rows)
    pairs = [(0.75, 1.0), (0.5, 0.75), (0.0, 0.25)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = _assert_holder_matches(traj, pairs, 1.0, 1.0, 1.0)
    assert rep.worst_pair == (0.5, 0.75)


def test_holder_check_ties_at_an_overflowing_ratio_go_to_the_first_pair():
    # both gaps are 1.5e308 and both ratios overflow to inf; the later
    # pair's bound is nan, so its exact gap is taken first, and the
    # earlier pair, whose bound ratio is inf, must still be compared
    g = grid1d(33, 2.0)
    levels = [0.0, 1.5e308, 0.0, 1.5e308]
    rows = np.repeat(np.array(levels)[:, None], 33, axis=1)
    traj = SpaceTimeFunction(g, [0.0, 0.5, 1.0, 1.5], rows)
    pairs = [(0.0, 0.5), (1.0, 1.5)]
    with np.errstate(over="ignore"):
        rep = _assert_holder_matches(traj, pairs, 1.0, 1.0, 0.1)
    assert (rep.max_ratio, rep.worst_pair) == (math.inf, (0.0, 0.5))
