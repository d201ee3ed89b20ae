import importlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from chernoff.convex_expectation import (
    Scenario,
    ScenarioConvexExpectation,
    TiltedFrame,
    family_scales,
)
from chernoff.core import (
    DomainError,
    Grid,
    GridFunction,
    SpaceTimeFunction,
    positive_part_norm,
)
from chernoff.iterate import (
    FRAME_RAMP,
    ComparisonReport,
    IterationError,
    Partition,
    StepOperator,
    chernoff_iterate,
    discrete_comparison_check,
    partition,
    stacked_steps,
)
from chernoff.kernels import apply_taps, gaussian_plan, gaussian_taps, shift_taps
from chernoff.nisio import NisioFamily
from chernoff.reference import heat_exact


def grid1d(n=1201, half=12.0):
    return Grid((-half,), (half,), (n,))



def test_nisio_step_with_a_tiny_std_stays_finite():
    # std 1e-3 * sqrt(0.01) = 1e-4 against dx = 0.01: the Gaussian taps
    # underflow, and the step is the drift's two-tap shift instead
    g = Grid((-1.0,), (1.0,), (201,))
    f = GridFunction.from_callable(g, np.cos)
    op = StepOperator.from_nisio(NisioFamily(((1e-3, 0.5),)))
    out = chernoff_iterate(op, f, 0.1, 0.01)
    x = g.axes[0]
    # ten half-cell interpolations smooth cos by at most 10 dx^2 / 8
    expected = np.cos(x[x < 0.9] + 0.05)
    np.testing.assert_allclose(out.values[x < 0.9], expected, atol=10 * 0.01**2 / 8 + 1e-12)

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


@pytest.mark.parametrize(
    "t, h, field",
    [
        (float("nan"), 0.25, "time t"),
        (float("inf"), 0.25, "time t"),
        (1.0, float("nan"), "step size h"),
        (1.0, float("inf"), "step size h"),
    ],
)
def test_partition_rejects_a_non_finite_time_or_step(t, h, field):
    with pytest.raises(DomainError, match=f"{field} must be finite, got {h if t == 1.0 else t}"):
        partition(t, h)


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

    def planner(grid, h, stack=None):
        def step(u, out):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ValueError("boom")
            out[...] = u
            return out

        return step

    op = StepOperator(name="bad", step=lambda f, h: f, planner=planner)
    with pytest.raises(IterationError, match=r"step 3 of 8.*boom"):
        chernoff_iterate(op, f, 1.0, 0.125)


# ---------------------------------------------------------------------------
# step plans


def _ce(*scenarios):
    return ScenarioConvexExpectation(scenarios)


_G1 = Grid((-12.0,), (12.0,), (241,))  # spacing 0.1

_PLAN_CASES = {
    "nisio-two-controls": (StepOperator.from_nisio(NisioFamily(((0.5, 0.0), (1.0, 0.0)))), _G1),
    "nisio-drift": (
        StepOperator.from_nisio(NisioFamily(((0.3, 0.7), (0.8, -0.4), (0.0, 1.3)))),
        _G1,
    ),
    "lln-whole-cell": (
        StepOperator.from_lln(_ce(Scenario.point(-0.8), Scenario.point(0.8, 1.0))),
        _G1,
    ),
    "lln-fractional": (
        StepOperator.from_lln(
            _ce(Scenario.point(-0.137), Scenario.point(0.61, 0.4), Scenario.point(3.3, 2.0))
        ),
        _G1,
    ),
    "lln-multi-atom": (
        StepOperator.from_lln(
            _ce(
                Scenario.discrete([-0.5, 0.2, 1.1], [0.2, 0.5, 0.3]), Scenario.point(0.0, 0.1)
            )
        ),
        _G1,
    ),
    "clt-gaussian": (
        StepOperator.from_clt(
            _ce(Scenario.gaussian(0.0, 0.5), Scenario.gaussian(0.0, 1.0))
        ),
        _G1,
    ),
}


# ---------------------------------------------------------------------------
# the tilted frame: stated bounds and a long-double reference

_EPS = np.finfo(float).eps


def _frame_of(op, g, h):
    """The tilted frame ``chernoff_iterate`` steps a run of ``op`` at h
    in, from a payoff of order 1, or None."""
    frame = getattr(op.plan(g, h), "frame", None)
    frame = None if frame is None else frame()
    return frame if frame is not None and frame.ramp <= FRAME_RAMP else None


def _frame_bounds(ce, op, f, h, chain=0):
    """The stated bounds on a run to t = 1 in the tilted frame (see
    ``FRAME_RAMP``), with S = sup|f| + k drop + R + k |C|: (5 + m) eps S
    + 2 eps t max alpha from the exact steps, where the maxima carry a
    rounded edge cell through m = ``chain`` steps, and k eps (sup|f| + k
    drop) more, the untilted steps' own rounding, from those steps."""
    step, k = op.plan(f.grid, h), partition(1.0, h).k
    frame = step.frame()
    sup = float(np.max(np.abs(f.values)))
    size = sup + k * step.drop + frame.ramp + k * abs(frame.rise)
    exact = (5 + chain) * _EPS * size + 2 * _EPS * max(s.penalty for s in ce.scenarios)
    return exact, exact + k * _EPS * (sup + k * step.drop)


def _longdouble_steps(kind, ce, g, values, h, k):
    """The values and the iterates of k steps of max_i (E_i[u(x + scale
    xi)] - h alpha_i), computed from the definitions in ``np.longdouble``:
    each atom of each scenario (a Gaussian one of sigma 0 is the point at
    its mean) reads u through its taps (``shift_taps``) clipped to the
    grid, and every step takes every penalty off."""
    scale, _ = family_scales(kind, h)
    n, dx = g.size, g.spacing[0]
    cells = np.arange(n)
    frames = [np.asarray(values, dtype=np.longdouble)]
    rows = []
    for s in ce.scenarios:
        atoms = zip(s.atoms, s.weights) if s.kind == "discrete" else [(s.mean, 1.0)]
        rows.append((s.penalty, [(p, shift_taps(scale * a, dx)) for a, p in atoms]))
    for _ in range(k):
        u, parts = frames[-1], []
        for penalty, atoms in rows:
            e = np.zeros(n, dtype=np.longdouble)
            for p, (offsets, weights) in atoms:
                for o, w in zip(offsets, weights):
                    e += np.longdouble(p) * np.longdouble(w) * u[np.clip(cells + o, 0, n - 1)]
            parts.append(e - np.longdouble(h) * np.longdouble(penalty))
        frames.append(np.max(parts, axis=0))
    return np.stack(frames)


def _assert_framed(kind, ce, op, f, h, got, want, chain=0):
    """A run in the tilted frame: its last iterates ``got`` (a stack)
    within the stated bounds of the untilted steps' ``want`` and of the
    long-double reference."""
    exact, untilted = _frame_bounds(ce, op, f, h, chain)
    np.testing.assert_allclose(got, want, rtol=0, atol=untilted)
    ref = _longdouble_steps(kind, ce, f.grid, f.values, h, partition(1.0, h).k)
    assert float(np.max(np.abs(got - ref[-len(got) :]))) <= exact


@pytest.mark.parametrize("h", [0.125, 0.3])
@pytest.mark.parametrize("case", sorted(_PLAN_CASES))
def test_plan_iteration_matches_repeated_steps(case, h):
    op, g = _PLAN_CASES[case]
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.5) + 0.3 * np.sin(3 * x))
    k = partition(1.0, h).k
    frames = [f]
    for _ in range(k):
        frames.append(op.step(frames[-1], h))
    out = chernoff_iterate(op, f, 1.0, h)
    recorded, traj = chernoff_iterate(op, f, 1.0, h, record=True)
    want = np.stack([fr.values for fr in frames])
    if _frame_of(op, g, h) is not None:
        # two whole-cell points step in the tilted frame: within its
        # stated bounds, recorded or not
        assert (case, h) == ("lln-whole-cell", 0.125)
        for got in (out.values[None], recorded.values[None], traj.values):
            _assert_framed("lln", _REFERENCE_CASES[case], op, f, h, got, want[-len(got) :])
        return
    # tolerance 0: the plan is the step, only run on reused buffers
    np.testing.assert_array_equal(out.values, frames[-1].values)
    np.testing.assert_array_equal(recorded.values, frames[-1].values)
    np.testing.assert_array_equal(traj.values, want)


_G2 = Grid((-12.0,), (12.0,), (4095,))  # a Gaussian of std 1/2 takes the FFT branch

# plans that fill windows of their own: (family, scenarios, grid)
_WINDOW_CASES = {
    "one-sided": ("lln", _ce(Scenario.point(0.3), Scenario.point(1.7, 0.5)), _G1),
    "one-sided-minus": ("clt", _ce(Scenario.point(-0.25), Scenario.point(-1.37, 0.2)), _G1),
    "far-clipped": (
        "lln",
        _ce(Scenario.point(0.0), Scenario.point(1e4, 0.3), Scenario.point(-3e3 - 0.04, 0.1)),
        _G1,
    ),
    "fractional": ("clt", _ce(Scenario.point(-0.137), Scenario.point(0.61, 0.4)), _G1),
    # 1 and 3 cells at h = 1/8, 2 and 6 at h = 1/4: the tilted frame's family
    "whole-cell-pair": ("lln", _ce(Scenario.point(0.8), Scenario.point(2.4, 0.3)), _G1),
    "multi-atom": (
        "lln",
        _ce(Scenario.discrete([-0.5, 0.2, 1.1], [0.2, 0.5, 0.3]), Scenario.point(0.0, 0.1)),
        _G1,
    ),
    # penalty-free whole-cell points: their rows are views of the window
    "view-rows": (
        "lln",
        _ce(Scenario.point(-0.8), Scenario.point(0.4), Scenario.point(1.2, 0.3)),
        _G1,
    ),
    "single-point": ("lln", _ce(Scenario.point(0.8)), _G1),
    "single-multi-atom": ("clt", _ce(Scenario.discrete([-0.3, 0.25], [0.4, 0.6])), _G1),
    "zero-sigma-controls": ("nisio", NisioFamily(((0.0, 0.7), (0.0, -1.3))), _G1),
    "fft-and-atoms": (
        "lln",
        _ce(Scenario.gaussian(0.1, 2.0, 0.3), Scenario.point(-0.2), Scenario.point(0.5, 0.1)),
        _G2,
    ),
}


def _window_operator(case):
    kind, fam, g = _WINDOW_CASES[case]
    if kind == "nisio":
        return StepOperator.from_nisio(fam), g
    return {"lln": StepOperator.from_lln, "clt": StepOperator.from_clt}[kind](fam), g


@pytest.mark.parametrize("h", [0.125, 0.25])
@pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
def test_steps_in_the_plan_s_windows_match_repeated_steps(case, h):
    # each op.step builds a plan of its own and fills its window; the
    # loop runs one plan on two buffers of its own: tolerance 0
    op, g = _window_operator(case)
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.5) + 0.3 * np.sin(3 * x))
    frames = [f]
    for _ in range(partition(1.0, h).k):
        frames.append(op.step(frames[-1], h))
    out, traj = chernoff_iterate(op, f, 1.0, h, record=True)
    want = np.stack([fr.values for fr in frames])
    frame = _frame_of(op, g, h)
    if frame is not None:
        # two whole-cell points step in the tilted frame: within its
        # stated bounds, recorded or not
        assert case == "whole-cell-pair"
        kind, ce, _ = _WINDOW_CASES[case]
        for got in (out.values[None], traj.values, chernoff_iterate(op, f, 1.0, h).values[None]):
            _assert_framed(kind, ce, op, f, h, got, want[-len(got) :])
        return
    # every other family steps as before, bit for bit
    np.testing.assert_array_equal(out.values, frames[-1].values)
    np.testing.assert_array_equal(traj.values, want)
    np.testing.assert_array_equal(chernoff_iterate(op, f, 1.0, h).values, out.values)


@pytest.mark.parametrize("case", ["one-sided", "view-rows", "fft-and-atoms"])
def test_the_first_step_reads_an_outside_array(case):
    # the step fills its window from u, leaves u as it was and writes any
    # out it is given, a strided one too
    op, g = _window_operator(case)
    h = 0.125
    if case == "fft-and-atoms":
        assert gaussian_plan(g, [2.0 * h], [0.1 * h]).spectra is not None
    step = op.plan(g, h)
    u = np.cos(g.axes[0]) + 0.1 * g.axes[0]
    before = u.copy()
    want = op.step(GridFunction(g, u), h).values
    for out in (np.empty(g.size), np.empty(2 * g.size)[::2]):
        np.testing.assert_array_equal(step(u, out), want)
    np.testing.assert_array_equal(u, before)


def test_mutating_a_plan_s_windows_leaves_the_run_s_results(monkeypatch):
    # the run steps in the tilted frame, in the interiors of the plan's
    # window and its twin; writing over both leaves what it returned
    op, g = _window_operator("whole-cell-pair")
    frames, runs = [], _counting_frames(monkeypatch)

    def planner(grid, h, stack=None):
        step = op.plan(grid, h, stack)
        build = step.frame
        step.frame = lambda: frames.append(build()) or frames[-1]
        return step

    held = StepOperator(name="held", step=op.step, planner=planner)
    f = GridFunction.from_callable(g, np.cos)
    out, traj = chernoff_iterate(held, f, 1.0, 0.125, record=True)
    assert len(runs) == 1
    kept = out.values.copy(), traj.values.copy()
    for buffer in frames[-1].buffers:
        buffer.base[...] = np.nan  # the whole window the interior views
    np.testing.assert_array_equal(out.values, kept[0])
    np.testing.assert_array_equal(traj.values, kept[1])
    np.testing.assert_array_equal(out.values, chernoff_iterate(op, f, 1.0, 0.125).values)


def _clipped_shift(values, j, weight):
    n = len(values)
    return weight * values[np.clip(np.arange(n) + j, 0, n - 1)]


def _reference_step(fam, g, u, h):
    """One step from the definitions, without plans or apply_taps: the
    penalized max over scenarios of E[u(x + h xi)] (linear between
    cells), or the max over controls of the sampled-Gaussian sum."""
    if isinstance(fam, NisioFamily):
        parts = []
        for sigma, m in fam.controls:
            offs, w = gaussian_taps(sigma * np.sqrt(h), m * h, g.spacing[0])
            parts.append(sum(_clipped_shift(u, j, wj) for j, wj in zip(offs, w)))
        return np.max(parts, axis=0)
    parts = []
    for s in fam.scenarios:
        e = np.zeros(u.shape)
        for a, prob in zip(s.atoms, s.weights):
            j = h * a / g.spacing[0]
            j0 = int(np.floor(j))
            e += prob * (_clipped_shift(u, j0, 1 - (j - j0)) + _clipped_shift(u, j0 + 1, j - j0))
        parts.append(e - h * s.penalty)
    return np.max(parts, axis=0)


_REFERENCE_CASES = {
    "nisio-two-controls": NisioFamily(((0.5, 0.0), (1.0, 0.0))),
    "nisio-drift": NisioFamily(((0.3, 0.7), (0.8, -0.4), (0.0, 1.3))),
    "lln-whole-cell": _ce(Scenario.point(-0.8), Scenario.point(0.8, 1.0)),
    "lln-fractional": _ce(
        Scenario.point(-0.137), Scenario.point(0.61, 0.4), Scenario.point(3.3, 2.0)
    ),
    "lln-multi-atom": _ce(
        Scenario.discrete([-0.5, 0.2, 1.1], [0.2, 0.5, 0.3]), Scenario.point(0.0, 0.1)
    ),
}


@pytest.mark.parametrize("h", [0.125, 0.3])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_plan_iteration_matches_a_reference_from_the_definitions(case, h):
    # independent of the plans, so a plan that computes the wrong step
    # fails here even though it agrees with op.step
    fam = _REFERENCE_CASES[case]
    op = StepOperator.from_nisio(fam) if isinstance(fam, NisioFamily) else StepOperator.from_lln(fam)
    g = _G1
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.5) + 0.3 * np.sin(3 * x))
    u = f.values
    for _ in range(partition(1.0, h).k):
        u = _reference_step(fam, g, u, h)
    np.testing.assert_allclose(chernoff_iterate(op, f, 1.0, h).values, u, rtol=0, atol=1e-12)


def _leaky_operator(bad_call: int, cell: int, value: float = np.inf):
    """Shift left by one cell per step; the plan's call ``bad_call``
    writes ``value`` at ``cell``."""
    calls = {"n": 0}

    def planner(grid, h, stack=None):
        def step(u, out):
            calls["n"] += 1
            apply_taps(u, [1], [1.0], out=out)
            if calls["n"] == bad_call:
                out[cell] = value
            return out

        return step

    return StepOperator(name="leaky", step=lambda f, h: f, planner=planner)


@pytest.mark.parametrize("cell", [0, 50])
def test_non_finite_plan_step_reports_index(cell):
    # at cell 0 the next shift moves the inf off the grid, so only a
    # check after every step can name the step that produced it
    f = GridFunction.from_callable(grid1d(101), np.cos)
    with pytest.raises(IterationError, match=r"step 3 of 8 .*finite"):
        chernoff_iterate(_leaky_operator(3, cell), f, 1.0, 0.125)


@pytest.mark.parametrize("cell", [0, 50])
def test_a_nan_plan_step_reports_index(cell):
    f = GridFunction.from_callable(grid1d(101), np.cos)
    with pytest.raises(IterationError, match=r"step 3 of 8 .*finite"):
        chernoff_iterate(_leaky_operator(3, cell, np.nan), f, 1.0, 0.125)


def test_a_shift_only_step_on_an_infinite_payoff_names_step_1(monkeypatch):
    g = grid1d(101)
    ce = ScenarioConvexExpectation((Scenario.point(-0.24), Scenario.point(0.24, 1.0)))
    op = StepOperator.from_lln(ce)
    assert op.shifts_only
    f = GridFunction.from_callable(g, np.cos)
    calls, isfinite = [], np.isfinite

    def recorded(x, *args, **kwargs):
        calls.append(x)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", recorded)
    # a finite run is proved finite once from its plan's drop, with no
    # per-step check: the one call left is the check of the returned
    # GridFunction
    chernoff_iterate(op, f, 1.0, 0.125)
    assert len(calls) == 1
    # a payoff holding inf, set past GridFunction's own check
    values = np.cos(g.axes[0])
    values[50] = np.inf
    f = object.__new__(GridFunction)
    object.__setattr__(f, "grid", g)
    object.__setattr__(f, "values", values)
    with pytest.raises(IterationError, match=r"step 1 of 8 .*finite"):
        chernoff_iterate(op, f, 1.0, 0.125)
    assert len(calls) == 2


def test_a_finite_step_whose_sum_overflows_passes():
    # every value finite, their sum past the float range: the check
    # falls back to the values one by one and lets the run go on
    g = grid1d(101)
    ce = ScenarioConvexExpectation((Scenario.point(-0.24), Scenario.point(0.24, 1.0)))
    op = StepOperator.from_lln(ce)
    values = np.where(g.axes[0] < 0, -1.7e308, 1.7e308)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(values[50:]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = chernoff_iterate(op, GridFunction(g, values), 1.0, 0.125)
        assert np.all(np.isfinite(out.values)) and out.values.max() == 1.7e308
        stack = np.stack([values, values[::-1]])
        stepped = stacked_steps(op, g, 0.125)(stack, np.empty_like(stack))
    for row, got in zip(stack, stepped):
        np.testing.assert_array_equal(got, op.step(GridFunction(g, row), 0.125).values)
    # a nan in a stacked step still raises
    stack[1, 7] = np.nan
    with pytest.raises(DomainError, match="grid function values must be finite"):
        stacked_steps(op, g, 0.125)(stack, np.empty_like(stack))


def _counting_checks(monkeypatch):
    """The calls ``chernoff_iterate`` makes to its per-step check."""
    import chernoff.iterate as iterate_mod

    calls, check = [], iterate_mod._all_finite
    monkeypatch.setattr(iterate_mod, "_all_finite", lambda u: calls.append(1) or check(u))
    return calls


def _undeclared(op):
    """``op`` whose plans declare no ``drop`` and offer no frame, so each
    of its runs is checked after every step."""

    def planner(grid, h, stack=None):
        step = op.plan(grid, h, stack)

        def bare(u, out):
            return step(u, out)

        return bare

    return replace(op, planner=planner)


_NISIO = StepOperator.from_nisio(NisioFamily(((0.5, 0.0), (1.0, 0.3))))
# the scenarios of the case that steps in the tilted frame, for its
# long-double reference
_CERTIFIED_SCENARIOS = {"lln-direct": _ce(Scenario.point(-0.8), Scenario.point(0.8, 1.0))}
# (operator, grid, the std of a Gaussian factor at h = 1/8, or None for shifts alone)
_CERTIFIED_CASES = {
    "lln-direct": (StepOperator.from_lln(_CERTIFIED_SCENARIOS["lln-direct"]), _G1, None),
    "lln-direct-drop": (
        StepOperator.from_lln(_ce(Scenario.point(-0.3, 1e-12), Scenario.point(0.5, 0.2))),
        _G1,
        None,
    ),
    "lln-fft": (_window_operator("fft-and-atoms")[0], _G2, 2.0 * 0.125),
    "clt-direct": (
        StepOperator.from_clt(
            _ce(Scenario.discrete([-0.3, 0.25], [0.4, 0.6]), Scenario.point(0.1, 0.2))
        ),
        _G1,
        None,
    ),
    "clt-gaussian-direct": (
        StepOperator.from_clt(_ce(Scenario.gaussian(0.0, 0.5), Scenario.gaussian(0.0, 1.0))),
        _G1,
        0.5 * 0.125**0.5,
    ),
    "clt-fft": (
        StepOperator.from_clt(_ce(Scenario.gaussian(0.0, 0.5), Scenario.gaussian(0.0, 1.0))),
        _G2,
        0.5 * 0.125**0.5,
    ),
    "nisio-direct": (_NISIO, _G1, 0.5 * 0.125**0.5),
    "nisio-fft": (_NISIO, _G2, 0.5 * 0.125**0.5),
}


@pytest.mark.parametrize("case", sorted(_CERTIFIED_CASES))
def test_a_certified_run_checks_no_step_and_matches_the_checked_run(case, monkeypatch):
    op, g, std = _CERTIFIED_CASES[case]
    if std is not None:  # the branch the case is named for
        assert (gaussian_plan(g, std, 0.0).spectra is not None) == case.endswith("fft")
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.5) + 0.3 * np.sin(3 * x))
    calls = _counting_checks(monkeypatch)
    out, traj = chernoff_iterate(op, f, 1.0, 0.125, record=True)
    assert calls == []
    checked, checked_traj = chernoff_iterate(_undeclared(op), f, 1.0, 0.125, record=True)
    assert len(calls) == 8
    if _frame_of(op, g, 0.125) is not None:
        # the certified run steps in the tilted frame, the checked one as
        # before: within the frame's stated bounds
        assert case in _CERTIFIED_SCENARIOS
        for got, want in ((out, checked), (traj, checked_traj)):
            got, want = np.atleast_2d(got.values), np.atleast_2d(want.values)
            _assert_framed("lln", _CERTIFIED_SCENARIOS[case], op, f, 0.125, got, want)
        return
    # tolerance 0: the proof skips the checks and nothing else
    np.testing.assert_array_equal(out.values, checked.values)
    np.testing.assert_array_equal(traj.values, checked_traj.values)


def _counting_frames(monkeypatch):
    """The runs ``chernoff_iterate`` steps in a tilted frame: one entry
    into the frame each."""
    runs, enter = [], TiltedFrame.enter
    monkeypatch.setattr(TiltedFrame, "enter", lambda *a: runs.append(1) or enter(*a))
    return runs


def _repeated_steps(op, f, h):
    frames = [f]
    for _ in range(partition(1.0, h).k):
        frames.append(op.step(frames[-1], h))
    return np.stack([fr.values for fr in frames])


_ZERO_SIGMA_PAIR = StepOperator.from_lln(
    _ce(Scenario.gaussian(0.8, 0.0), Scenario.gaussian(2.4, 0.0, 0.3))
)


@pytest.mark.parametrize(
    "op", [_window_operator("whole-cell-pair")[0], _ZERO_SIGMA_PAIR], ids=["points", "zero-sigma"]
)
def test_two_whole_cell_points_step_in_the_tilted_frame(op, monkeypatch):
    # two whole-cell points of probability 1, or Gaussians of sigma 0, in
    # a window of the plan's own: the run enters the frame, recorded or not
    runs = _counting_frames(monkeypatch)
    f = GridFunction.from_callable(_G1, np.cos)
    chernoff_iterate(op, f, 1.0, 0.125)
    chernoff_iterate(op, f, 1.0, 0.125, record=True)
    assert len(runs) == 2
    # and the others do not: fractional points (the sigma 0 controls
    # too), more or fewer than two, several atoms, or a Gaussian row
    for other in ("one-sided", "one-sided-minus", "far-clipped", "fractional", "multi-atom",
                  "single-multi-atom", "fft-and-atoms", "view-rows", "single-point",
                  "zero-sigma-controls"):
        op, g = _window_operator(other)
        assert not hasattr(op.plan(g, 0.125), "frame")
        chernoff_iterate(op, GridFunction.from_callable(g, np.cos), 1.0, 0.125)
    assert len(runs) == 2


# penalty-free pairs of whole-cell points: 1 and -3 cells at h = 1/8, 2
# and -6 at h = 1/4
_FREE_PAIRS = {
    "lln-points": StepOperator.from_lln(_ce(Scenario.point(0.8), Scenario.point(-2.4))),
    "nisio-zero-sigma": StepOperator.from_nisio(NisioFamily(((0.0, 0.8), (0.0, -2.4)))),
}


@pytest.mark.parametrize("h", [0.125, 0.25])
@pytest.mark.parametrize("case", sorted(_FREE_PAIRS))
def test_a_penalty_free_pair_steps_in_the_frame_bit_for_bit(case, h, monkeypatch):
    # with no penalty the frame's slope, ramp and rise are 0, so each of
    # its steps is the untilted step, at most a zero's sign apart
    op = _FREE_PAIRS[case]
    frame = op.plan(_G1, h).frame()
    assert (frame.ramp, frame.rise) == (0.0, 0.0)
    runs = _counting_frames(monkeypatch)
    f = GridFunction.from_callable(_G1, lambda x: np.minimum(np.abs(x), 1.5) + 0.3 * np.sin(3 * x))
    want = _repeated_steps(op, f, h)
    out, traj = chernoff_iterate(op, f, 1.0, h, record=True)
    np.testing.assert_array_equal(traj.values, want)
    np.testing.assert_array_equal(out.values, want[-1])
    np.testing.assert_array_equal(chernoff_iterate(op, f, 1.0, h).values, want[-1])
    assert len(runs) == 2


def test_a_one_row_point_plan_holds_one_window_and_its_frame_a_second(monkeypatch):
    # the plan fills one window a step; frame() makes its twin when a run
    # asks for it, and the frame steps in the two windows' interiors
    from chernoff.kernels import ClampedWindow

    made, init = [], ClampedWindow.__init__
    monkeypatch.setattr(
        ClampedWindow, "__init__", lambda self, *a, **k: made.append(1) or init(self, *a, **k)
    )
    op, g = _window_operator("whole-cell-pair")
    step = op.plan(g, 0.125)
    assert len(made) == 1
    first, second = step.frame().buffers
    assert len(made) == 2 and first.base is not second.base
    # one point, three points and a stack: one window each and no frame
    for case, stack in (("single-point", None), ("view-rows", None), ("whole-cell-pair", 3)):
        made.clear()
        plan = _window_operator(case)[0].plan(g, 0.125, stack)
        assert len(made) == 1 and not hasattr(plan, "frame")


@pytest.mark.parametrize("kind", ["lln", "clt"])
def test_a_dyadic_run_in_the_frame_is_the_repeated_steps_bit_for_bit(kind):
    # payoff values on multiples of 2^-10, power-of-two h and penalties,
    # whole-cell shifts whose offsets differ by a power of two: every
    # tilt, ramp and rise is a dyadic number, so the frame rounds nothing
    # (spacing 0.1, centre index 120): atoms 2 cells either side at h =
    # 1/4 (lln) and 1/16 (clt), the right one penalised by h / 2
    h = 0.25 if kind == "lln" else 0.0625
    ce = _ce(Scenario.point(-0.8), Scenario.point(0.8, 0.5))
    op = StepOperator.from_lln(ce) if kind == "lln" else StepOperator.from_clt(ce)
    frame = _frame_of(op, _G1, h)
    assert frame.tilt[1] - frame.tilt[0] == -h / 8 and frame.rise == h / 4
    g = _G1
    f = GridFunction.from_callable(
        g, lambda x: np.round(1024 * (np.minimum(np.abs(x), 1.5) + 0.3 * np.sin(3 * x))) / 1024
    )
    out, traj = chernoff_iterate(op, f, 1.0, h, record=True)
    want = _repeated_steps(op, f, h)
    np.testing.assert_array_equal(traj.values, want)
    np.testing.assert_array_equal(out.values, want[-1])
    np.testing.assert_array_equal(chernoff_iterate(op, f, 1.0, h).values, want[-1])


def test_maxima_that_ride_a_ramped_edge_round_once_a_step():
    # the left point reads one cell left of cell 0 with no penalty, so on
    # a payoff that rises to the left the max at cell 0 is the ramped edge
    # cell at every step: the untilted steps copy u(0) exactly, the frame
    # adds the rise C to Y(0), of size about R = 10.3, and rounds at each
    # of the 64 steps.  It misses the long-double reference by 2.3e-14,
    # past the 1.2e-14 of a run that carries no rounded edge (chain 0),
    # and within the bound of a chain of k steps.
    h, g = 2.0**-6, Grid((-12.0,), (12.0,), (4095,))
    dx = g.spacing[0]
    ce = _ce(Scenario.point(-dx / h), Scenario.point(3 * dx / h, 10.3 * 2.0**-9 / h))
    op = StepOperator.from_lln(ce)
    assert FRAME_RAMP - 6 < _frame_of(op, g, h).ramp <= FRAME_RAMP
    f = GridFunction.from_callable(g, lambda x: 0.01 * (12 - x) / 24)
    k = partition(1.0, h).k
    got = chernoff_iterate(op, f, 1.0, h).values[None]
    _assert_framed("lln", ce, op, f, h, got, _repeated_steps(op, f, h)[-1:], chain=k)


def test_a_steep_frame_and_an_unproved_run_step_as_before(monkeypatch):
    # a ramp past FRAME_RAMP: at h = 1/8 the chord's slope is 2 h = 1/4
    # per cell, and the window reaches 121 cells from the centre, R = 30.25
    runs = _counting_frames(monkeypatch)
    steep = StepOperator.from_lln(_ce(Scenario.point(0.0), Scenario.point(0.8, 2.0)))
    assert steep.plan(_G1, 0.125).frame().ramp > FRAME_RAMP
    f = GridFunction.from_callable(_G1, lambda x: np.minimum(np.abs(x), 1.5) + 0.3 * np.sin(3 * x))
    out, traj = chernoff_iterate(steep, f, 1.0, 0.125, record=True)
    np.testing.assert_array_equal(traj.values, _repeated_steps(steep, f, 0.125))
    np.testing.assert_array_equal(out.values, traj.values[-1])
    # a payoff past FINITE_SUP proves nothing: checked at every step, as before
    op, _ = _window_operator("whole-cell-pair")
    calls = _counting_checks(monkeypatch)
    huge = GridFunction(_G1, f.values * 1e300)
    out, traj = chernoff_iterate(op, huge, 1.0, 0.125, record=True)
    assert len(calls) == 8
    np.testing.assert_array_equal(traj.values, _repeated_steps(op, huge, 0.125))
    assert runs == []


def test_a_wrapper_forwarding_drop_alone_steps_as_before(monkeypatch):
    # a plan's frame bypasses its step: a wrapper that forwards the drop
    # but not the frame is stepped by its own step, untilted
    op, g = _window_operator("whole-cell-pair")
    runs, stepped = _counting_frames(monkeypatch), []

    def planner(grid, h, stack=None):
        step = op.plan(grid, h, stack)

        def wrapped(u, out):
            stepped.append(1)
            return step(u, out)

        wrapped.drop = step.drop
        return wrapped

    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.5) + 0.3 * np.sin(3 * x))
    calls = _counting_checks(monkeypatch)
    out, traj = chernoff_iterate(replace(op, planner=planner), f, 1.0, 0.125, record=True)
    assert (len(stepped), calls, runs) == (8, [], [])
    np.testing.assert_array_equal(traj.values, _repeated_steps(op, f, 0.125))


def test_a_run_just_past_the_bound_is_checked_at_every_step(monkeypatch):
    import chernoff.iterate as iterate_mod

    g = grid1d(101)
    op = StepOperator.from_lln(_ce(Scenario.point(-0.24), Scenario.point(0.24, 1.0)))
    calls = _counting_checks(monkeypatch)
    at = iterate_mod.FINITE_SUP
    for sup, checks in ((at, 0), (np.nextafter(at, np.inf), 8)):
        calls.clear()
        f = GridFunction(g, np.where(g.axes[0] < 0, -sup, sup))
        chernoff_iterate(op, f, 1.0, 0.125)
        assert len(calls) == checks
    # k drop counts too: a plan that falls by FINITE_SUP / 8 per step
    for drop, checks in ((at / 8, 0), (np.nextafter(at / 8, np.inf), 8)):

        def planner(grid, h, stack=None, drop=drop):
            step = lambda u, out: np.copyto(out, u) or out  # noqa: E731
            step.drop = drop
            return step

        calls.clear()
        held = StepOperator(name="held", step=lambda f, h: f, planner=planner)
        chernoff_iterate(held, GridFunction(g, np.zeros(g.size)), 1.0, 0.125)
        assert len(calls) == checks
    # and so does the number of steps
    monkeypatch.setattr(iterate_mod, "FINITE_STEPS", 7)
    calls.clear()
    chernoff_iterate(op, GridFunction.from_callable(g, np.cos), 1.0, 0.125)
    assert len(calls) == 8


@pytest.mark.parametrize("value", [-np.inf, np.nan])
def test_a_payoff_holding_a_non_finite_value_names_step_1(value, monkeypatch):
    # as test_a_shift_only_step_on_an_infinite_payoff_names_step_1 with
    # inf: set past GridFunction's own check, sup|f| proves nothing, so
    # the run is checked after every step and fails at the first
    g = grid1d(101)
    values = np.cos(g.axes[0])
    values[50] = value
    f = object.__new__(GridFunction)
    object.__setattr__(f, "grid", g)
    object.__setattr__(f, "values", values)
    calls = _counting_checks(monkeypatch)
    for op, _, _ in _CERTIFIED_CASES.values():
        if op.shifts_only:
            calls.clear()
            with pytest.raises(IterationError, match=r"step 1 of 8 .*finite"):
                chernoff_iterate(op, f, 1.0, 0.125)
            assert calls == [1]


def test_a_recorded_run_keeps_a_copy_of_each_plan_step():
    # the plan writes each step into one of two held buffers
    g = grid1d(101)
    f = GridFunction.from_callable(g, np.cos)

    def planner(grid, h, stack=None):
        return lambda u, out: np.multiply(u, 0.5, out=out)

    op = StepOperator(name="scaled", step=lambda f, h: f * 0.5, planner=planner)
    out, traj = chernoff_iterate(op, f, 1.0, 0.25, record=True)
    np.testing.assert_array_equal(out.values, f.values * 0.0625)
    np.testing.assert_array_equal(traj.slice(2).values, f.values * 0.25)


@pytest.mark.parametrize(
    "module, name, build",
    [
        ("nisio", "nisio_step", lambda: StepOperator.from_nisio(NisioFamily(((0.5, 0.0),)))),
        (
            "convex_expectation",
            "lln_step",
            lambda: StepOperator.from_lln(ScenarioConvexExpectation((Scenario.point(0.5),))),
        ),
        (
            "convex_expectation",
            "clt_step",
            lambda: StepOperator.from_clt(
                ScenarioConvexExpectation((Scenario.gaussian(0.0, 0.5),))
            ),
        ),
    ],
)
def test_a_family_step_looks_its_step_function_up_when_built(module, name, build, monkeypatch):
    # a wrapper put on the module's name before the operator is built is
    # the function op.step calls (a profiler wraps the names this way)
    owner = importlib.import_module(f"chernoff.{module}")
    real, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    f = GridFunction.from_callable(grid1d(101), np.cos)
    build().step(f, 0.25)
    assert calls == [0.25]


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



def _comparison_reference(op, u, v, f_bound, g_bound, h, T, tol=1e-9):
    """discrete_comparison_check written per lattice time: the nearest
    sample by argmin, differences as GridFunctions."""

    def at(w, s):
        return w.slice(int(np.argmin(np.abs(w.times - s))))

    times = [s for s in u.times if s <= T + 1e-12]
    cert = [s for s in times if s >= h - 1e-12]
    violation = 0.0
    for s in cert:
        res_u = (at(u, s).values - op.step(at(u, s - h), h).values) / h
        res_v = (at(v, s).values - op.step(at(v, s - h), h).values) / h
        over = float(np.max(res_u - at(f_bound, s).values))
        violation = max(violation, over, float(np.max(at(g_bound, s).values - res_v)))
    driver = max(
        [positive_part_norm(at(f_bound, s) - at(g_bound, s)) for s in cert], default=0.0
    )
    initial = max(positive_part_norm(at(u, s) - at(v, s)) for s in times if s < h - 1e-12)
    slack, worst = -np.inf, 0.0
    for s in times:
        d = positive_part_norm(at(u, s) - at(v, s)) - (initial + s * driver)
        if d > slack:
            slack, worst = d, s
    vacuous = violation > tol
    return ComparisonReport(slack, worst, vacuous, violation, (not vacuous) and slack <= tol)


@pytest.mark.parametrize("claim", [0.6, 0.02])
def test_comparison_matches_the_per_time_definition(claim):
    g = grid1d(601, 12.0)
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.0))
    op = gheat_op()
    h, T = 0.125, 0.9
    _, v = chernoff_iterate(op, f, 1.0, h, record=True)
    rng = np.random.default_rng(2)
    frames = [f]
    for _ in range(8):
        bump = rng.uniform(0.0, 0.5) * h * np.exp(-((g.axes[0] - 3.0) ** 2))
        frames.append(GridFunction(g, op.step(frames[-1], h).values + bump))
    u = SpaceTimeFunction.from_functions(v.times, frames)
    # bounds sampled twice as finely as the lattice, varying in time
    fine = np.linspace(0.0, 1.0, 17)
    shape = np.exp(-((g.axes[0][None, :] - 3.0) ** 2))  # off centre
    f_bound = SpaceTimeFunction(g, fine, claim * shape * (1.0 + fine[:, None]))
    g_bound = SpaceTimeFunction(g, fine, -0.2 * claim * shape * fine[:, None])
    rep = discrete_comparison_check(op, u, v, f_bound, g_bound, h, T)
    ref = _comparison_reference(op, u, v, f_bound, g_bound, h, T)
    assert rep == ref  # bit for bit
    # the claim 0.02 understates the bumps: a vacuous certificate, and
    # the gap outgrows its bound after t = 0
    assert rep.vacuous == (claim == 0.02)
    assert (rep.worst_time > 0.0) == (claim == 0.02)


def test_comparison_overflowing_difference_raises():
    g = grid1d(101)
    times = [0.0, 0.25]
    u = SpaceTimeFunction(g, times, np.full((2, 101), 1.5e308))
    v = SpaceTimeFunction(g, times, np.full((2, 101), -1.5e308))
    zero = _constant_bound(u, 0.0)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="finite"):
        discrete_comparison_check(gheat_op(), u, v, zero, zero, 0.25, 1.0, tol=np.inf)


def test_operator_admission_flag():
    op = gheat_op()
    assert not op.admitted
    assert op.admit().admitted
    assert op.reach(1.0) == pytest.approx(1.0)
    assert op.reach(0.25) == pytest.approx(0.5)
