"""Step plans on a leading batch axis: a stack of value rows steps as
its rows step one at a time, bit for bit, and the structural suite and
the comparison check that run on stacks report what a per-pair loop
reports."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from chernoff import iterate, kernels
from chernoff.convex_expectation import Scenario, ScenarioConvexExpectation
from chernoff.core import DomainError, Grid, GridFunction, SpaceTimeFunction
from chernoff.iterate import (
    StepOperator,
    block_rows,
    discrete_comparison_check,
    partition,
    stacked_steps,
)
from chernoff.kernels import apply_taps, gaussian_plan, gaussian_taps, tap_plan
from chernoff.nisio import NisioFamily
from chernoff.properties import (
    LIPSCHITZ_TOL,
    SUITE_H,
    SUITE_RADIUS,
    PropertyResult,
    SuiteReport,
    admit_operator,
    random_lipschitz_function,
    random_nonnegative_bump,
    structural_suite,
)


def _ce(*scenarios):
    return ScenarioConvexExpectation(scenarios)


_FAMILIES = {
    "nisio-two-controls": StepOperator.from_nisio(NisioFamily(((0.5, 0.0), (1.0, 0.0)))),
    "nisio-drift": StepOperator.from_nisio(NisioFamily(((0.3, 0.7), (0.8, -0.4), (0.0, 1.3)))),
    "lln-whole-cell": StepOperator.from_lln(_ce(Scenario.point(-0.75), Scenario.point(0.75, 1.0))),
    "lln-fractional": StepOperator.from_lln(
        _ce(Scenario.point(-0.137), Scenario.point(0.61, 0.4), Scenario.point(3.3, 2.0))
    ),
    "lln-multi-atom": StepOperator.from_lln(
        _ce(
            Scenario.discrete([-0.5, 0.2, 1.1], [0.2, 0.5, 0.3], 0.3),
            Scenario.point(0.0),
            Scenario.discrete([-1.2, 0.4], [0.5, 0.5], 0.1),
        )
    ),
    "clt-gaussian-pair": StepOperator.from_clt(
        _ce(Scenario.gaussian(0.0, 0.5), Scenario.gaussian(0.0, 1.0))
    ),
    "single-scenario": StepOperator.from_clt(_ce(Scenario.gaussian(0.2, 0.8))),
    "gaussian-discrete-mix": StepOperator.from_lln(
        _ce(Scenario.gaussian(0.1, 0.7, 0.2), Scenario.discrete([-0.5, 0.45], [0.5, 0.5]))
    ),
}


def _grid(n):
    return Grid((-12.0,), (12.0,), (n,))


def _rows(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    x = grid.axes[0]
    shapes = rng.uniform(-2.0, 2.0, (count, 2))
    return np.array([np.minimum(np.abs(x - c), 1.5) + a * np.sin(3 * x) for c, a in shapes])


def _one_row(op, grid, h, stack):
    plan = op.plan(grid, h)
    return np.array([plan(row, np.empty(grid.size)).copy() for row in stack])


# ---------------------------------------------------------------------------
# a stacked plan step is the one-row plan step of each row


@pytest.mark.parametrize("n", [513, 4095])
@pytest.mark.parametrize("case", sorted(_FAMILIES))
def test_a_stacked_plan_step_is_each_rows_step_bit_for_bit(case, n):
    op, grid = _FAMILIES[case], _grid(n)
    stack = _rows(grid, 5)
    out = np.empty_like(stack)
    assert op.plan(grid, SUITE_H, 5)(stack, out) is out
    np.testing.assert_array_equal(out, _one_row(op, grid, SUITE_H, stack))


@pytest.mark.parametrize("n, fft", [(513, False), (4095, True)])
def test_both_branches_run_on_a_stack(n, fft):
    # the nisio pair's factors at h = 1/4: the direct branch on 513
    # points and the FFT on 4095, for one row and for a stack alike
    grid = _grid(n)
    factors = [0.5 * np.sqrt(SUITE_H), np.sqrt(SUITE_H)]
    for stack in (None, 1, 7):
        plan = gaussian_plan(grid, factors, [0.0, 0.0], stack=stack)
        assert (plan.spectra is not None) == fft
        assert plan.batch == (() if stack is None else (stack,))


@pytest.mark.parametrize("weight_rows", [1, 3])
def test_an_overflowed_row_of_a_stack_alone_is_redone_on_correlate(weight_rows, monkeypatch):
    grid = _grid(4095)
    offsets, weights = gaussian_taps(np.sqrt(0.125), 0.0, grid.spacing[0])
    if weight_rows == 3:
        narrow = np.exp(-0.5 * (offsets / 60.0) ** 2)
        weights = np.stack([weights, narrow / narrow.sum(), np.roll(weights, 200)])
    stack = _rows(grid, 4)
    stack[2] *= 1e306  # sup 1.7e306: its spectrum overflows
    one = tap_plan(grid.size, offsets, weights)
    assert one.spectra is not None
    want = np.stack([apply_taps(row, offsets, weights, plan=one) for row in stack], axis=-2)
    calls = []
    real = kernels.correlate
    monkeypatch.setattr(kernels, "correlate", lambda *a: calls.append(1) or real(*a))
    plan = tap_plan(grid.size, offsets, weights, stack=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is caught, not reported
        out = apply_taps(stack, offsets, weights, plan=plan)
    assert out.shape == weights.shape[:-1] + stack.shape
    assert len(calls) == weight_rows  # row 2 alone, each weight row once
    assert np.all(np.isfinite(out))
    np.testing.assert_array_equal(out, want)


def test_a_stacked_plan_takes_only_its_own_shape():
    grid = _grid(513)
    plan = gaussian_plan(grid, 0.3, 0.0, stack=3)
    with pytest.raises(DomainError, match=r"plan is for values of shape \(3, 513\)"):
        apply_taps(np.zeros((2, 513)), plan.offsets, plan.weights, plan=plan)
    with pytest.raises(DomainError, match="one row"):
        apply_taps(np.zeros((3, 513)), plan.offsets, plan.weights)


def test_blocks_hold_about_two_megabytes_of_values():
    assert block_rows(513) == 511 and block_rows(4095) == 64
    assert block_rows(10**7) == 1


@pytest.mark.parametrize("case", ["clt-gaussian-pair", "lln-multi-atom"])
def test_stacked_steps_run_blocks_and_a_short_last_block(case, monkeypatch):
    op, grid = _FAMILIES[case], _grid(513)
    monkeypatch.setattr(iterate, "BLOCK_BYTES", 5 * 8 * 513)  # 5 rows a block
    heights = []
    plan = op.plan
    counted = replace(
        op, planner=lambda g, h, stack=None: heights.append(stack) or plan(g, h, stack)
    )
    stack = _rows(grid, 12)
    step = stacked_steps(counted, grid, SUITE_H)
    out = step(stack, np.empty_like(stack))
    step(stack[:2], np.empty_like(stack[:2]))  # the held plan serves again
    assert heights == [5, 2]
    step(stack[:7], np.empty_like(stack[:7]))  # one plan is held at a time
    assert heights == [5, 2, 5, 2]
    np.testing.assert_array_equal(out, _one_row(op, grid, SUITE_H, stack))


# ---------------------------------------------------------------------------
# the suite and the comparison check report what per-row loops report


def _suite_reference(op, grid, n_pairs, seed, tol=1e-9):
    """structural_suite written one pair at a time through ``op.step``."""
    rng = np.random.default_rng(seed)
    h, radius = SUITE_H, SUITE_RADIUS
    names = ("zero", "monotone", "convex", "contraction", "lipschitz", "translation")
    tols = dict.fromkeys(names, tol)
    tols["contraction"], tols["lipschitz"] = 1.0 + tol, 1.0 + LIPSCHITZ_TOL
    seen = {name: [] for name in names}
    seen["zero"].append(op.step(GridFunction(grid, np.zeros(grid.counts)), h).sup_norm)
    interior = grid.interior_mask(8.0 * op.reach(h) + 4.0 * grid.spacing[0])
    for _ in range(n_pairs):
        f = random_lipschitz_function(grid, rng, radius)
        g = f + random_nonnegative_bump(grid, rng, radius / 2)
        lam = float(rng.uniform(0.0, 1.0))
        mix = lam * f + (1.0 - lam) * g
        If, Ig, Imix = op.step(f, h), op.step(g, h), op.step(mix, h)
        seen["monotone"].append(float(np.max(If.values - Ig.values)))
        seen["convex"].append(float(np.max(Imix.values - (lam * If + (1.0 - lam) * Ig).values)))
        gap = float(np.max(np.abs(f.values - g.values)))
        if gap > 0:
            seen["contraction"].append(float(np.max(np.abs(If.values - Ig.values))) / gap)
        seen["lipschitz"].append(If.lipschitz / f.lipschitz)
        cells = int(rng.integers(1, 4))
        lhs = op.step(GridFunction(grid, apply_taps(f.values, [cells], [1.0])), h).values
        rhs = apply_taps(If.values, [cells], [1.0])
        seen["translation"].append(float(np.max(np.abs(lhs - rhs)[interior])))
    results = []
    for name in names:
        worst = 0.0
        for m in seen[name]:
            worst = max(worst, m)
        bad = sum(m > tols[name] for m in seen[name])
        results.append(PropertyResult(name, len(seen[name]), bad, worst))
    return SuiteReport(tuple(results), seed)


def _negated(op):
    inner, plan = op.step, op.plan

    def planner(grid, h, stack=None):
        step = plan(grid, h, stack)
        return lambda u, out: step(-u, out)

    return replace(op, name="negated", step=lambda f, h: inner(-f, h), planner=planner)


_SUITE_OPS = {
    "linear": StepOperator.from_nisio(NisioFamily(((1.0, 0.0),))),
    "gheat": _FAMILIES["nisio-two-controls"],
    "lln": StepOperator.from_lln(_ce(Scenario.point(-0.5), Scenario.point(0.5, 1.0))),
    "clt": _FAMILIES["clt-gaussian-pair"],
    "negated": _negated(_FAMILIES["nisio-two-controls"]),
}


@pytest.mark.parametrize("blocks", [False, True])
@pytest.mark.parametrize("case", sorted(_SUITE_OPS))
def test_the_suite_reports_what_a_per_pair_loop_reports(case, blocks, monkeypatch):
    op, grid = _SUITE_OPS[case], _grid(513)
    if blocks:  # 3 pairs a block: 7 pairs run as 3, 3 and a short 1
        monkeypatch.setattr(iterate, "BLOCK_BYTES", 12 * 8 * 513)
    report = structural_suite(op, grid, 7, 11)
    assert report == _suite_reference(op, grid, 7, 11)
    assert report.passed == (case != "negated")
    if report.passed:
        assert admit_operator(op, grid, seed=11, n_pairs=7).admitted
    else:
        with pytest.raises(DomainError, match="failed admission: monotone"):
            admit_operator(op, grid, seed=11, n_pairs=7)


def _nan_operator():
    def planner(grid, h, stack=None):
        def step(u, out):
            out[...] = np.nan
            return out

        return step

    # the one-shot step is the identity, so the zero check passes
    return StepOperator(name="nan", step=lambda f, h: f, planner=planner)


def test_a_non_finite_stacked_step_raises_as_a_grid_function_does():
    grid = _grid(129)
    with pytest.raises(DomainError, match="grid function values must be finite"):
        structural_suite(_nan_operator(), grid, 3, 0)
    times = partition(0.5, 0.25).times
    u = SpaceTimeFunction(grid, times, np.zeros((len(times), grid.size)))
    with pytest.raises(DomainError, match="grid function values must be finite"):
        discrete_comparison_check(_nan_operator(), u, u, u, u, 0.25, 0.5)


@pytest.mark.parametrize("case", ["gheat", "lln", "negated"])
def test_the_comparison_check_runs_its_certificate_steps_through_one_plan(case, monkeypatch):
    op, grid = _SUITE_OPS[case], _grid(257)
    f = GridFunction(grid, np.minimum(np.abs(grid.axes[0]), 1.3))
    h = 0.125
    times = partition(1.0, h).times
    plain, drifted = [f], [f]
    for _ in times[1:]:
        plain.append(op.step(plain[-1], h))
        drifted.append(op.step(drifted[-1], h) + 0.4 * h)
    u = SpaceTimeFunction.from_functions(times, drifted)
    v = SpaceTimeFunction.from_functions(times, plain)
    const = [GridFunction(grid, np.full(grid.size, c)) for c in (0.4, 0.0)]
    drift, zero = (SpaceTimeFunction.from_functions(times, [c] * 9) for c in const)
    heights = []
    plan = op.plan
    counted = replace(
        op, planner=lambda g, s, stack=None: heights.append(stack) or plan(g, s, stack)
    )
    report = discrete_comparison_check(counted, u, v, drift, zero, h, 1.0, tol=1e-9)
    assert heights == [16]  # the 8 u rows and the 8 v rows, one stack
    # the certificate violation of the steps taken one time at a time
    violation = 0.0
    for i in range(1, 9):
        over = (u.values[i] - op.step(u.slice(i - 1), h).values) / h - 0.4
        under = -(v.values[i] - op.step(v.slice(i - 1), h).values) / h
        violation = max(violation, float(np.max(over)), float(np.max(under)))
    assert report.certificate_violation == violation
    assert not report.vacuous
