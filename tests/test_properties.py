from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernoff.convex_expectation import Scenario, ScenarioConvexExpectation
from chernoff.core import DomainError, Grid
from chernoff.iterate import StepOperator, chernoff_iterate
from chernoff.nisio import NisioFamily
from chernoff.properties import (
    admit_operator,
    appendix_suite,
    random_lipschitz_function,
    random_nonnegative_bump,
    structural_suite,
)


def grid1d(n=513, half=8.0):
    return Grid((-half,), (half,), (n,))


def negated_operator(op: StepOperator) -> StepOperator:
    """Negative control: wraps the step and its plan so monotonicity must
    fail."""
    inner, plan = op.step, op.plan

    def planner(grid, h, stack=None):
        step = plan(grid, h, stack)
        return lambda u, out: step(-u, out)

    return replace(
        op,
        name=f"negated-{op.name}",
        step=lambda f, h: inner(-f, h),
        admitted=False,
        planner=planner,
    )


GHEAT_OP = StepOperator.from_nisio(NisioFamily(((0.5, 0.0), (1.0, 0.0))))

LLN_OP = StepOperator.from_lln(
    ScenarioConvexExpectation(
        (Scenario.point(-0.5), Scenario.point(0.5, penalty=1.0))
    )
)

CLT_OP = StepOperator.from_clt(
    ScenarioConvexExpectation(
        (Scenario.gaussian(0.0, 0.5), Scenario.gaussian(0.0, 1.0))
    )
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), radius=st.floats(0.1, 5.0))
def test_random_function_respects_radius(seed, radius):
    g = grid1d(129, 4.0)
    f = random_lipschitz_function(g, np.random.default_rng(seed), radius)
    assert f.lipschitz <= radius * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_bump_is_nonnegative(seed):
    g = grid1d(129, 4.0)
    b = random_nonnegative_bump(g, np.random.default_rng(seed))
    assert np.min(b.values) == 0.0


def test_random_function_deterministic():
    g = grid1d()
    a = random_lipschitz_function(g, np.random.default_rng(11))
    b = random_lipschitz_function(g, np.random.default_rng(11))
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("op", [GHEAT_OP, LLN_OP, CLT_OP], ids=lambda o: o.name)
def test_structural_suite_passes_for_shipped_operators(op):
    report = structural_suite(op, grid1d(), n_pairs=60, seed=5)
    assert report.passed, report.failing()
    zero = report.result("zero")
    assert zero.worst <= 1e-12
    for name in ("monotone", "convex", "translation"):
        assert report.result(name).worst <= 1e-9
    assert report.result("contraction").worst <= 1 + 1e-9
    assert report.result("monotone").checked == 60


def test_structural_suite_deterministic():
    a = structural_suite(GHEAT_OP, grid1d(), n_pairs=10, seed=3)
    b = structural_suite(GHEAT_OP, grid1d(), n_pairs=10, seed=3)
    assert a == b


def test_negated_operator_fails_monotonicity():
    bad = negated_operator(GHEAT_OP)
    report = structural_suite(bad, grid1d(), n_pairs=20, seed=0)
    assert not report.passed
    assert report.result("monotone").violations > 0
    assert "monotone" in report.failing()


def test_negated_operator_iterates_the_negated_step():
    bad = negated_operator(GHEAT_OP)
    f = random_lipschitz_function(grid1d(), np.random.default_rng(4))
    twice = bad.step(bad.step(f, 0.25), 0.25)
    np.testing.assert_array_equal(chernoff_iterate(bad, f, 0.5, 0.25).values, twice.values)


def test_admission_gate():
    admitted = admit_operator(GHEAT_OP, grid1d(), n_pairs=16)
    assert admitted.admitted and not GHEAT_OP.admitted
    with pytest.raises(DomainError, match="failed admission"):
        admit_operator(negated_operator(GHEAT_OP), grid1d(), n_pairs=8)


def test_appendix_suite_counts_and_passes():
    report = appendix_suite(n_instances=150, seed=2)
    assert report.passed
    for name in ("lambda-scaling", "constant-shift", "mixture-jensen"):
        assert report.result(name).checked == 150
        assert report.result(name).worst <= 1e-9
    d = report.to_dict()
    assert d["passed"] and d["properties"]["mixture-jensen"]["violations"] == 0
    with pytest.raises(DomainError):
        report.result("nope")


def test_appendix_suite_catches_broken_inequality():
    # sanity: the tally machinery reports what it sees, so feed it a
    # deliberately wrong tolerance and watch the pass flag flip
    report = appendix_suite(n_instances=30, seed=9, tol=-1.0)
    assert not report.passed


def test_the_margin_is_checked_before_the_zero_step(monkeypatch):
    import chernoff.kernels as kernels

    built = []
    taps = kernels.gaussian_taps

    def recording_taps(*args, **kwargs):
        built.append(args)
        return taps(*args, **kwargs)

    monkeypatch.setattr(kernels, "gaussian_taps", recording_taps)
    wide = StepOperator.from_nisio(NisioFamily(((50.0, 0.0),)))
    with pytest.raises(DomainError, match="translation check margin"):
        structural_suite(wide, grid1d(), n_pairs=1)
    assert built == []
    structural_suite(StepOperator.from_nisio(NisioFamily(((1.0, 0.0),))), grid1d(), n_pairs=1)
    assert built  # the recorder sees the taps a step builds
