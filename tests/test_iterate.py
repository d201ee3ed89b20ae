import numpy as np
import pytest

from chernoff.core import DomainError, Grid, GridFunction, SpaceTimeFunction
from chernoff.iterate import (
    ComparisonReport,
    IterationError,
    Partition,
    StepOperator,
    chernoff_iterate,
    discrete_comparison_check,
    partition,
)
from chernoff.nisio import NisioFamily
from chernoff.reference import heat_exact


def grid1d(n=1201, half=12.0):
    return Grid((-half,), (half,), (n,))


def gheat_op():
    return StepOperator.from_nisio(NisioFamily(((0.5, 0.0), (1.0, 0.0))))


def test_partition_examples():
    assert partition(1.0, 0.25).k == 4
    assert partition(1.0, 0.3).k == 3
    assert partition(0.1, 0.25).k == 0
    assert partition(1.0, 0.1).k == 10  # guards against 1/0.1 float droop
    assert partition(0.0, 0.5).k == 0
    with pytest.raises(DomainError):
        partition(1.0, 0.0)
    with pytest.raises(DomainError):
        partition(-1.0, 0.5)
    with pytest.raises(DomainError):
        Partition(t=1.0, h=0.25, k=5)


def test_iterate_zero_steps_returns_input():
    g = grid1d(101)
    f = GridFunction.from_callable(g, np.cos)
    assert chernoff_iterate(gheat_op(), f, 0.1, 0.25) is f


def test_iterate_transport_composes_shifts():
    g = grid1d(241, 12.0)  # spacing 0.1
    f = GridFunction.from_callable(g, np.sin)
    op = StepOperator.from_nisio(NisioFamily(((0.0, 1.0),)))
    out = chernoff_iterate(op, f, 1.0, 0.5)  # two shifts of 0.5
    np.testing.assert_allclose(out.values[:-10], f.values[10:], atol=1e-13)


def test_iterate_matches_linear_semigroup():
    g = grid1d(2401, 12.0)
    f = GridFunction.from_callable(g, np.cos)
    op = StepOperator.from_nisio(NisioFamily(((1.0, 0.0),)))
    u = chernoff_iterate(op, f, 1.0, 1.0 / 16)
    direct = heat_exact(f, 1.0, 0.0, 1.0, cut=8.0)
    interior = g.interior_mask(9.0)
    np.testing.assert_allclose(u.values[interior], direct.values[interior], atol=1e-8)


def test_refinement_consistency():
    g = grid1d(2401, 12.0)
    f = GridFunction.from_callable(g, np.cos)
    op = StepOperator.from_nisio(NisioFamily(((1.0, 0.0),)))
    coarse = chernoff_iterate(op, f, 0.5, 1.0 / 8)
    fine = chernoff_iterate(op, f, 0.5, 1.0 / 16)
    interior = g.interior_mask(9.0)
    assert np.max(np.abs(coarse.values[interior] - fine.values[interior])) < 1e-8


def test_record_returns_all_iterates():
    g = grid1d(601, 12.0)
    f = GridFunction.from_callable(g, np.cos)
    out, traj = chernoff_iterate(gheat_op(), f, 1.0, 0.25, record=True)
    assert list(traj.times) == [0.0, 0.25, 0.5, 0.75, 1.0]
    np.testing.assert_array_equal(traj.slice(0).values, f.values)
    np.testing.assert_array_equal(traj.slice(4).values, out.values)


def test_lipschitz_preserved_along_iterates():
    g = grid1d(1201, 12.0)
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.0))
    _, traj = chernoff_iterate(gheat_op(), f, 1.0, 0.125, record=True)
    for i in range(len(traj.times)):
        assert traj.slice(i).lipschitz <= f.lipschitz * (1 + 1e-9) + 1e-12


def test_failing_step_reports_index():
    g = grid1d(101)
    f = GridFunction.from_callable(g, np.cos)
    calls = {"n": 0}

    def bad_step(u, h):
        calls["n"] += 1
        if calls["n"] == 3:
            raise ValueError("boom")
        return u

    op = StepOperator(name="bad", step=bad_step)
    with pytest.raises(IterationError, match=r"step 3 of 8.*boom"):
        chernoff_iterate(op, f, 1.0, 0.125)


# ---------------------------------------------------------------------------
# discrete comparison


def _constant_bound(traj: SpaceTimeFunction, value: float) -> SpaceTimeFunction:
    vals = np.full_like(traj.values, value)
    return SpaceTimeFunction(traj.grid, traj.times, vals)


def test_comparison_equal_trajectories():
    g = grid1d(601, 12.0)
    f = GridFunction.from_callable(g, np.cos)
    op = gheat_op()
    _, traj = chernoff_iterate(op, f, 1.0, 0.25, record=True)
    zero = _constant_bound(traj, 0.0)
    rep = discrete_comparison_check(op, traj, traj, zero, zero, 0.25, 1.0)
    assert rep.passed and not rep.vacuous
    assert rep.max_slack <= 0.0 + 1e-12


def test_comparison_constant_offset():
    g = grid1d(601, 12.0)
    f = GridFunction.from_callable(g, np.cos)
    op = gheat_op()
    delta = 0.3
    _, v = chernoff_iterate(op, f, 1.0, 0.25, record=True)
    shifted = GridFunction(g, f.values + delta)
    _, u = chernoff_iterate(op, shifted, 1.0, 0.25, record=True)
    zero = _constant_bound(v, 0.0)
    rep = discrete_comparison_check(op, u, v, zero, zero, 0.25, 1.0)
    assert not rep.vacuous
    assert rep.passed  # gap stays at the initial delta under contraction
    # and the gap really is delta, not something smaller
    gap = np.max(u.values[-1] - v.values[-1])
    assert gap == pytest.approx(delta, abs=1e-12)


def test_comparison_per_step_drift():
    g = grid1d(601, 12.0)
    f = GridFunction.from_callable(g, np.cos)
    op = gheat_op()
    c, h, T = 0.7, 0.25, 1.0
    _, v = chernoff_iterate(op, f, T, h, record=True)
    # u: same scheme plus a +c*h drift injected after every step
    frames = [f]
    u_cur = f
    for _ in range(4):
        u_cur = GridFunction(g, op.step(u_cur, h).values + c * h)
        frames.append(u_cur)
    u = SpaceTimeFunction.from_functions(v.times, frames)
    f_bound = _constant_bound(v, c)
    g_bound = _constant_bound(v, 0.0)
    rep = discrete_comparison_check(op, u, v, f_bound, g_bound, h, T)
    assert not rep.vacuous
    assert rep.passed
    final_gap = np.max(u.values[-1] - v.values[-1])
    assert final_gap == pytest.approx(c * T, abs=1e-12)


def test_comparison_flags_bogus_certificate():
    g = grid1d(601, 12.0)
    f = GridFunction.from_callable(g, np.cos)
    op = gheat_op()
    c, h, T = 0.7, 0.25, 1.0
    _, v = chernoff_iterate(op, f, T, h, record=True)
    frames = [f]
    u_cur = f
    for _ in range(4):
        u_cur = GridFunction(g, op.step(u_cur, h).values + c * h)
        frames.append(u_cur)
    u = SpaceTimeFunction.from_functions(v.times, frames)
    # claim a residual bound smaller than the actual drift
    f_bound = _constant_bound(v, c / 2)
    g_bound = _constant_bound(v, 0.0)
    rep = discrete_comparison_check(op, u, v, f_bound, g_bound, h, T)
    assert rep.vacuous
    assert rep.certificate_violation == pytest.approx(c / 2, abs=1e-10)
    assert not rep.passed


def test_operator_admission_flag():
    op = gheat_op()
    assert not op.admitted
    assert op.admit().admitted
    assert op.reach(1.0) == pytest.approx(1.0)
    assert op.reach(0.25) == pytest.approx(0.5)
