import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernoff import convex_expectation, kernels
from chernoff.convex_expectation import (
    Scenario,
    ScenarioConvexExpectation,
    family_plan,
)
from chernoff.core import DomainError, Grid, GridFunction
from chernoff.iterate import FRAME_RAMP, StepOperator, block_rows, chernoff_iterate
from chernoff.kernels import (
    _fft_is_cheaper,
    apply_shift,
    apply_taps,
    clamped_window,
    gaussian_convolve,
    gaussian_plan,
    gaussian_taps,
    next_fast_len,
    shift_taps,
    tap_plan,
)
from chernoff.nisio import NisioFamily


def test_shift_taps_exact_multiple():
    offs, w = shift_taps(3.0 * 0.25, 0.25)
    np.testing.assert_array_equal(offs, [3])
    np.testing.assert_array_equal(w, [1.0])


def test_shift_taps_fractional():
    offs, w = shift_taps(0.1, 0.25)
    np.testing.assert_array_equal(offs, [0, 1])
    np.testing.assert_allclose(w, [0.6, 0.4])
    assert w.sum() == pytest.approx(1.0)


def test_gaussian_taps_normalized_and_centered():
    offs, w = gaussian_taps(0.3, 0.05, 0.01)
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    mean = np.sum(w * offs * 0.01)
    var = np.sum(w * (offs * 0.01 - 0.05) ** 2)
    assert mean == pytest.approx(0.05, abs=1e-12)
    assert var == pytest.approx(0.09, rel=1e-8)


def test_gaussian_taps_degenerate_std_is_shift():
    offs, w = gaussian_taps(0.0, 0.5, 0.25)
    np.testing.assert_array_equal(offs, [2])
    np.testing.assert_array_equal(w, [1.0])


def test_gaussian_taps_fall_back_to_the_shift_when_every_weight_underflows():
    # std / dx = 1e-2: every sampled weight is exp(-x) with x > 745
    offs, w = gaussian_taps(1e-4, 0.00512, 0.01)
    expected = shift_taps(0.00512, 0.01)
    np.testing.assert_array_equal(offs, expected[0])
    np.testing.assert_array_equal(w, expected[1])


def test_convolution_matches_heat_action_on_cosine():
    g = Grid((-12.0,), (12.0,), (2049,))
    f = GridFunction.from_callable(g, np.cos)
    std = 0.7
    out = gaussian_convolve(f.values, g, std, 0.0)
    expected = np.exp(-0.5 * std**2) * np.cos(g.axes[0])
    interior = g.interior_mask(8.5 * std)
    np.testing.assert_allclose(out[interior], expected[interior], atol=1e-10)


def test_convolution_semigroup_property():
    g = Grid((-12.0,), (12.0,), (2049,))
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.0))
    one = gaussian_convolve(gaussian_convolve(f.values, g, 0.6, 0.0), g, 0.8, 0.0)
    two = gaussian_convolve(f.values, g, 1.0, 0.0)
    interior = g.interior_mask(9.0)
    np.testing.assert_allclose(one[interior], two[interior], atol=1e-9)


def test_convolution_shifts_exactly_on_lattice():
    g = Grid((0.0,), (1.0,), (11,))
    vals = np.arange(11, dtype=float)
    out = gaussian_convolve(vals, g, 0.0, 0.2)
    expected = np.minimum(np.arange(11) + 2, 10).astype(float)
    np.testing.assert_array_equal(out, expected)


def test_fractional_shift_equals_linear_interpolation():
    g = Grid((0.0,), (1.0,), (11,))
    rng = np.random.default_rng(3)
    vals = rng.normal(size=11)
    out = gaussian_convolve(vals, g, 0.0, 0.03)
    expected = np.interp(np.clip(g.axes[0] + 0.03, 0, 1), g.axes[0], vals)
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_structural_exactness_of_taps():
    # constants, monotonicity, Lipschitz bound are preserved exactly
    g = Grid((-6.0,), (6.0,), (601,))
    rng = np.random.default_rng(11)
    a = np.cumsum(rng.uniform(-0.02, 0.02, 601))
    b = a + rng.uniform(0, 1, 601)
    ca = gaussian_convolve(a, g, 0.5, 0.1)
    cb = gaussian_convolve(b, g, 0.5, 0.1)
    assert np.all(ca <= cb + 1e-15)
    const = gaussian_convolve(np.full(601, 4.2), g, 0.5, 0.1)
    np.testing.assert_allclose(const, 4.2, atol=1e-12)
    dx = g.spacing[0]
    lip_before = np.max(np.abs(np.diff(a))) / dx
    lip_after = np.max(np.abs(np.diff(ca))) / dx
    assert lip_after <= lip_before * (1 + 1e-12)


def _clipped_sum(values, offsets, weights):
    """The defining sum: w_j * values[clip(i + offsets_j, 0, n - 1)]."""
    n = values.size
    out = np.zeros(n)
    for j, wj in zip(offsets, weights):
        out += wj * values[np.clip(np.arange(n) + j, 0, n - 1)]
    return out


_N = 301


@pytest.mark.parametrize(
    "n, offsets, weights",
    [
        pytest.param(_N, *gaussian_taps(0.35, 0.08, 0.01), id="gaussian-drift"),
        pytest.param(_N, [_N + 12], [1.0], id="shift-past-plus-n"),
        pytest.param(_N, [-_N - 40], [0.5], id="shift-past-minus-n"),
        pytest.param(_N, [7, 7], [0.25, 0.5], id="duplicate-one-offset"),
        pytest.param(_N, [0], [1.0], id="zero-shift"),
        pytest.param(_N, *shift_taps(-0.137, 0.01), id="two-tap-fractional"),
        pytest.param(_N, [4, -3, 4, 0, -3], [0.1, 0.2, 0.3, 0.15, 0.25], id="unsorted-duplicate"),
        pytest.param(41, *gaussian_taps(0.05, -0.02, 0.01), id="short-row-gaussian-drift-minus"),
        pytest.param(57, *gaussian_taps(0.05, 0.03, 0.01), id="short-row-gaussian-drift-plus"),
        pytest.param(57, [60, 75, 57, 60], [0.2, 0.1, 0.3, 0.4], id="unsorted-all-beyond-plus-n"),
        pytest.param(57, [-56, -90, -70], [0.5, 0.25, 0.25], id="unsorted-all-beyond-minus-n"),
    ],
)
def test_apply_taps_matches_clipped_index_sum(n, offsets, weights):
    values = np.random.default_rng(5).normal(size=n) * 7.0
    before = values.copy()
    out = apply_taps(values, np.asarray(offsets), np.asarray(weights))
    expected = _clipped_sum(values, offsets, weights)
    assert out.shape == values.shape
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13 * np.max(np.abs(values)))
    np.testing.assert_array_equal(values, before)
    assert not np.shares_memory(out, values)


@pytest.mark.parametrize("minus", [0.0, 0.375])
@pytest.mark.parametrize(
    "offset, weights",
    [
        pytest.param(0, [1.0], id="zero-shift"),
        pytest.param(1, [1.0], id="plus-one-cell"),
        pytest.param(-1, [1.0], id="minus-one-cell"),
        pytest.param(_N, [1.0], id="plus-n"),
        pytest.param(-_N, [1.0], id="minus-n"),
        pytest.param(_N + 12, [1.0], id="past-plus-n"),
        pytest.param(-_N - 40, [1.0], id="past-minus-n"),
        pytest.param(5, [0.5], id="scaled-tap"),
        pytest.param(int(shift_taps(-0.137, 0.01)[0][0]), shift_taps(-0.137, 0.01)[1],
                     id="two-tap-fractional"),
        pytest.param(_N - 1, [0.25, 0.75], id="two-tap-straddling-plus-n"),
        pytest.param(-_N, [0.6, 0.4], id="two-tap-straddling-minus-n"),
    ],
)
def test_a_clamped_shift_is_the_clipped_sum_bit_for_bit(offset, weights, minus):
    # a shift row read as scaled slices of a filled window: the window of
    # its own taps, and a step plan's wider one that reaches other atoms
    values = np.random.default_rng(6).normal(size=_N) * 7.0
    before = values.copy()
    offsets = offset + np.arange(len(weights))
    expected = _clipped_sum(values, offsets, weights)
    for lo, hi in [(offset, offsets[-1]), (min(offset, 0) - 3, max(offsets[-1], 0) + 5)]:
        clamp = clamped_window(_N, lo, hi)
        clamp.fill(values)
        out = np.empty(_N)
        assert apply_shift(clamp.shift(offset, weights), out, minus) is out
        np.testing.assert_array_equal(out, expected - minus)
        # the same shift on a (3, n) stack: each row as that row alone
        stack = np.stack([values, -3.0 * values, values[::-1]])
        clamp = clamped_window(_N, lo, hi, (3,))
        clamp.fill(stack)
        out = np.empty_like(stack)
        assert apply_shift(clamp.shift(offset, weights), out, minus) is out
        for row, got in zip(stack, out):
            np.testing.assert_array_equal(got, _clipped_sum(row, offsets, weights) - minus)
    np.testing.assert_array_equal(values, before)
    # apply_taps' own one- and two-tap path is the same window shift
    np.testing.assert_array_equal(apply_taps(values, offsets, weights), expected)


@pytest.mark.parametrize("lo, hi", [(-7, 4), (0, 9), (-5, 0), (0, 0), (-_N, _N)])
def test_a_refreshed_window_holds_the_bits_of_a_filled_one(lo, hi):
    # a window over offsets that cover 0 holds the values in its interior;
    # writing them there and its edge cells as ramps of slope 0 (the tilted
    # frame of a penalty-free pair) fills it as fill does, and ramps of
    # slope s make it hold the clamped values plus s q at each offset q
    # (values on multiples of 2^-10 and s = 1/4, so no sum rounds)
    values = np.round(1024 * np.random.default_rng(11).normal(size=_N)) / 1024
    line = 0.25 * np.arange(lo, _N + hi)
    for batch, rows in [((), values), ((3,), np.stack([values, -values, values[::-1]]))]:
        filled = clamped_window(_N, lo, hi, batch)
        filled.fill(rows)
        clamp = clamped_window(_N, lo, hi, batch)
        for slope, tilt in ((0.0, 0.0), (0.25, line)):
            clamp.window[...] = np.nan
            clamp.interior[...] = rows + 0.25 * np.arange(_N) if slope else rows
            assert clamp.interior is clamp.interior
            for dst, src, ramp in clamp.ramps(slope):
                np.add(src, ramp, out=dst)
            np.testing.assert_array_equal(clamp.window, filled.window + tilt)
    with pytest.raises(DomainError, match="cover 0"):
        clamped_window(_N, 2, 5).ramps(0.0)
    with pytest.raises(DomainError, match="cover 0"):
        clamped_window(_N, -5, -2).interior  # noqa: B018


def test_a_discrete_scenario_step_is_the_clipped_sum_of_its_atoms():
    # three atoms (one a fractional shift), probabilities and a penalty,
    # against a point at 0 whose row is the values themselves
    grid = Grid((-1.5,), (1.5,), (_N,))
    dx, t = grid.spacing[0], 0.5
    atoms, probs, penalty = (-0.137, 0.05, 0.4), (0.2, 0.5, 0.3), 0.75
    ce = ScenarioConvexExpectation(
        (Scenario.discrete(atoms, probs, penalty), Scenario.point(0.0))
    )
    u = np.random.default_rng(9).normal(size=_N)
    expected = None
    for x, prob in zip(atoms, probs):
        term = _clipped_sum(u, *shift_taps(t * x, dx)) * prob
        expected = term if expected is None else expected + term
    expected = np.maximum(expected - t * penalty, u)
    np.testing.assert_array_equal(family_plan("lln", ce, grid, t)(u, np.empty(_N)), expected)


@pytest.mark.parametrize("cells", [10**6, -(10**6), 10**6 + 0.37, -(10**6) - 0.37])
def test_an_atom_far_past_the_grid_steps_in_a_window_of_at_most_3n_plus_1(cells, monkeypatch):
    # an atom 10^6 cells out (one tap, or two on adjacent cells) reads
    # only an edge value; its offset is clipped to [-n, n] before any
    # window is sized, so no window spans the 10^6 cells
    n = 513
    grid = Grid((-1.5,), (1.5,), (n,))
    dx, t = grid.spacing[0], 0.5
    sizes, real = [], kernels.clamped_window

    def recorded(n_, lo, hi, *rest):
        sizes.append(n_ + hi - lo)
        return real(n_, lo, hi, *rest)

    monkeypatch.setattr(kernels, "clamped_window", recorded)
    monkeypatch.setattr(convex_expectation, "clamped_window", recorded)
    far = cells * dx / t
    atoms, probs, penalty = (far, 0.05), (0.5, 0.5), 0.75
    ce = ScenarioConvexExpectation((Scenario.discrete(atoms, probs, penalty), Scenario.point(0.0)))
    u = np.random.default_rng(10).normal(size=n)
    expected = None
    for x, prob in zip(atoms, probs):
        term = _clipped_sum(u, *shift_taps(t * x, dx)) * prob
        expected = term if expected is None else expected + term
    expected = np.maximum(expected - t * penalty, u)
    np.testing.assert_array_equal(family_plan("lln", ce, grid, t)(u, np.empty(n)), expected)
    assert sizes and max(sizes) <= 3 * n + 1
    # the operator's own step and apply_taps' plan-less shift path alike
    sizes.clear()
    point = ScenarioConvexExpectation((Scenario.point(far),))
    stepped = StepOperator.from_lln(point).step(GridFunction(grid, u), t).values
    offsets, weights = shift_taps(t * far, dx)
    expected = _clipped_sum(u, offsets, weights)
    np.testing.assert_array_equal(stepped, expected)
    np.testing.assert_array_equal(apply_taps(u, offsets, weights), expected)
    assert sizes and max(sizes) <= 3 * n + 1


@pytest.mark.parametrize("sigma, fft", [(0.05, False), (2.0, True)])
def test_a_step_of_gaussian_and_discrete_scenarios_is_the_clipped_sum(sigma, fft):
    # the atoms read one window per step: on the direct branch the
    # Gaussian plan's own, widened to the far atom; on the FFT branch one
    # of the step's, beside the transform whose output rows are the
    # Gaussian rows.  The whole-cell point with no penalty is a view.
    grid = _fine_grid()
    dx, t = grid.spacing[0], 0.25
    gaussian = Scenario.gaussian(0.1, sigma, 0.3)
    atoms, probs, penalty = (-0.137, 0.05, 6.0), (0.2, 0.5, 0.3), 0.4
    ce = ScenarioConvexExpectation(
        (gaussian, Scenario.point(64 * dx / t), Scenario.discrete(atoms, probs, penalty))
    )
    assert (gaussian_plan(grid, [sigma * t], [0.1 * t]).spectra is not None) == fft
    u = _payoff(grid)
    smooth = _clipped_sum(u, *gaussian_taps(sigma * t, 0.1 * t, dx)) - t * 0.3
    spread = sum(_clipped_sum(u, *shift_taps(t * x, dx)) * p for x, p in zip(atoms, probs))
    expected = np.maximum(np.maximum(smooth, _clipped_sum(u, [64], [1.0])), spread - t * penalty)
    got = family_plan("lln", ce, grid, t)(u, np.empty(_W))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.max(np.abs(u)))


@pytest.mark.parametrize("k", range(3, 10))
def test_lln_envelope_iterates_are_the_clipped_sums(k):
    # the benchmark's penalised two-point family: whole-cell shifts of
    # 512 h cells, the right one penalised by h per step
    fine = _fine_grid()
    mass = 512 * fine.spacing[0]
    ce = ScenarioConvexExpectation((Scenario.point(-mass), Scenario.point(mass, 1.0)))
    h, cells = 2.0**-k, 512 >> k
    u = _payoff(fine)
    op = StepOperator.from_lln(ce)
    got = chernoff_iterate(op, GridFunction(fine, u), 1.0, h)
    # the loop steps in the tilted frame of slope -1/1024 and rise h / 2
    step = op.plan(fine, h)
    frame = step.frame()
    assert frame.ramp <= FRAME_RAMP
    assert (frame.tilt[1] - frame.tilt[0], frame.rise) == (-(2.0**-10), h / 2)
    sup = np.max(np.abs(u))
    size = sup + 2**k * step.drop + frame.ramp + 2**k * abs(frame.rise)
    eps = np.finfo(float).eps
    # the stated bounds of a run whose maxima carry no rounded edge cell
    # (``FRAME_RAMP``): 5 eps S + 2 eps t max alpha from the exact steps,
    # in long double (5.2e-15; the frame misses them by 4.4e-16), and k
    # eps (sup|f| + k drop) more from the untilted steps, the per-step
    # clipped sums
    exact = u.astype(np.longdouble)
    left, right = (np.clip(np.arange(_W) + j, 0, _W - 1) for j in (-cells, cells))
    for _ in range(2**k):
        u = np.maximum(_clipped_sum(u, [-cells], [1.0]), _clipped_sum(u, [cells], [1.0]) - h)
        exact = np.maximum(exact[left], exact[right] - np.longdouble(h))
    bound = 5 * eps * size + 2 * eps * 1.0
    assert float(np.max(np.abs(got.values - exact))) <= bound
    untilted = bound + 2**k * eps * (sup + 2**k * step.drop)
    np.testing.assert_allclose(got.values, u, rtol=0, atol=untilted)


@pytest.mark.parametrize("start", [0, 1])
def test_apply_taps_on_strided_and_float32_input(start):
    base = np.random.default_rng(8).normal(size=390)
    offsets, weights = [-2, 5, 0, 31], [0.1, 0.4, 0.3, 0.2]
    view = base[start::3]  # not contiguous
    out = apply_taps(view, np.asarray(offsets), np.asarray(weights))
    expected = _clipped_sum(view, offsets, weights)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13 * np.max(np.abs(view)))
    single = view.astype(np.float32)
    out = apply_taps(single, np.asarray(offsets), np.asarray(weights))
    assert out.dtype == np.float64
    assert not np.shares_memory(out, single)
    expected = _clipped_sum(single.astype(float), offsets, weights)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13 * np.max(np.abs(view)))


@pytest.mark.parametrize(
    "offsets, weights, name",
    [([], [], "offsets"), ([0, 1], [1.0], "weights"), ([0], [0.5, 0.5], "weights")],
)
def test_apply_taps_rejects_bad_tap_lists(offsets, weights, name):
    with pytest.raises(DomainError, match=name):
        apply_taps(np.zeros(5), np.asarray(offsets, dtype=int), np.asarray(weights))


def test_apply_taps_rejects_a_second_axis():
    with pytest.raises(DomainError, match="one row"):
        apply_taps(np.zeros((3, 4)), np.array([1]), np.array([1.0]))


@pytest.mark.parametrize(
    "n, offsets, weights",
    [
        pytest.param(_N, *gaussian_taps(0.35, 0.08, 0.01), id="origin-in-range"),
        pytest.param(_N, *gaussian_taps(0.02, 0.5, 0.01), id="drift-above-cut-std"),
        pytest.param(_N, *gaussian_taps(0.02, -0.5, 0.01), id="drift-below-cut-std"),
        pytest.param(_N, [_N], [1.0], id="shift-plus-n"),
        pytest.param(_N, [-_N], [0.75], id="shift-minus-n"),
        pytest.param(_N, [_N + 12, _N + 13], [0.3, 0.7], id="two-tap-past-plus-n"),
        pytest.param(_N, [4, 5], [0.3, 0.7], id="fraction-past-one-cell"),
        pytest.param(_N, [-9, -8], [0.6, 0.4], id="fraction-past-minus-one-cell"),
        pytest.param(_N, [_N - 1, _N], [0.2, 0.8], id="two-tap-straddling-the-edge"),
        pytest.param(_N, [-3 * _N], [1.0], id="shift-far-minus"),
        pytest.param(_N, [0], [0.5], id="zero-shift"),
        pytest.param(41, *gaussian_taps(0.05, -0.02, 0.01), id="short-row-in-range"),
        pytest.param(57, *gaussian_taps(0.05, 0.03, 0.01), id="short-row-drift-in-range"),
        pytest.param(41, [3, 5], [0.5, 0.5], id="one-sided-with-a-gap"),
        pytest.param(57, [-60], [1.0], id="short-row-past-minus-n"),
        pytest.param(57, [6, 7], [0.45, 0.55], id="short-row-fraction-past-one-cell"),
    ],
)
def test_apply_taps_into_out(n, offsets, weights):
    values = np.random.default_rng(6).normal(size=n) * 7.0
    before = values.copy()
    out = np.full(n, np.nan)
    res = apply_taps(values, np.asarray(offsets), np.asarray(weights), out=out)
    assert res is out
    np.testing.assert_allclose(
        out, _clipped_sum(values, offsets, weights), rtol=0, atol=1e-13 * np.max(np.abs(values))
    )
    np.testing.assert_array_equal(out, apply_taps(values, np.asarray(offsets), np.asarray(weights)))
    np.testing.assert_array_equal(values, before)


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize(
    "offsets, weights", [([-2, 5, 0, 31], [0.1, 0.4, 0.3, 0.2]), ([4, 9], [0.6, 0.4]), ([-7], [1.0]), ([3, 4], [0.25, 0.75])]
)
def test_apply_taps_into_out_from_strided_input(start, offsets, weights):
    base = np.random.default_rng(9).normal(size=390)
    view = base[start::3]
    before = view.copy()
    out = np.empty(view.shape)
    res = apply_taps(view, np.asarray(offsets), np.asarray(weights), out=out)
    assert res is out
    np.testing.assert_allclose(
        out, _clipped_sum(view, offsets, weights), rtol=0, atol=1e-13 * np.max(np.abs(view))
    )
    np.testing.assert_array_equal(view, before)


@pytest.mark.parametrize("out", [np.empty(6), np.empty(5, dtype=np.float32)])
def test_apply_taps_rejects_a_mismatched_out(out):
    with pytest.raises(DomainError, match="out"):
        apply_taps(np.zeros(5), np.array([0, 1]), np.array([0.5, 0.5]), out=out)


def test_gaussian_convolve_into_out():
    g = Grid((-8.0,), (8.0,), (81,))
    f = GridFunction.from_callable(g, lambda x: np.cos(x) * np.sin(0.5 * x))
    out = np.empty(g.counts)
    res = gaussian_convolve(f.values, g, 0.4, 0.1, out=out)
    assert res is out
    np.testing.assert_array_equal(out, gaussian_convolve(f.values, g, 0.4, 0.1))
    taps = gaussian_plan(g, 0.4, 0.1)
    prebuilt = gaussian_convolve(f.values, g, 0.4, 0.1, taps=taps)
    np.testing.assert_array_equal(prebuilt, out)


# ---------------------------------------------------------------------------
# the FFT branch of apply_taps


def _centred_gaussian(half):
    """2 * half + 1 mirror-symmetric Gaussian taps reaching 8 stds."""
    offsets = np.arange(-half, half + 1)
    weights = np.exp(-0.5 * (offsets / (half / 8.0)) ** 2)
    return offsets, weights / weights.sum()


def _one_sided(start, count, seed=0):
    offsets = start + np.arange(count)
    weights = np.random.default_rng(seed).uniform(size=count)
    return offsets, weights / weights.sum()


def _shuffled_with_duplicates():
    offsets, weights = _centred_gaussian(150)
    offsets = np.concatenate([offsets + 40, offsets[::7] + 40])
    weights = np.concatenate([weights, weights[::7]]) / (1.0 + weights[::7].sum())
    order = np.random.default_rng(4).permutation(offsets.size)
    return offsets[order], weights[order]


_W = 4095


def _takes_fft(n, offsets, weights):
    return tap_plan(n, offsets, weights).spectra is not None


@pytest.mark.parametrize(
    "n, taps",
    [
        pytest.param(_W, _centred_gaussian(61), id="centred-123"),
        pytest.param(_W, _centred_gaussian(483), id="centred-967"),
        pytest.param(_W, _centred_gaussian(1365), id="centred-2731"),
        pytest.param(_W, _one_sided(300, 250), id="drift-beyond-cut"),
        pytest.param(_W, _one_sided(-700, 400, 1), id="drift-below-cut"),
        pytest.param(_W, _one_sided(_W + 10, 300, 2), id="past-plus-n"),
        pytest.param(_W, _one_sided(-_W - 500, 400, 3), id="past-minus-n"),
        pytest.param(_W, _one_sided(_W - 150, 300, 5), id="straddling-plus-n"),
        pytest.param(_W, _shuffled_with_duplicates(), id="unsorted-duplicate"),
        pytest.param(_W, _centred_gaussian(50), id="centred-101"),
        pytest.param(8191, _centred_gaussian(50), id="centred-101-on-8191"),
        pytest.param(_W, _one_sided(20, 120, 6), id="one-sided-120"),
        pytest.param(700, _one_sided(-760, 300, 7), id="past-minus-n-on-700"),
    ],
)
def test_fft_branch_matches_clipped_index_sum(n, taps):
    offsets, weights = taps
    assert _takes_fft(n, offsets, weights)
    values = np.random.default_rng(12).normal(size=n).cumsum() + 3.0
    before = values.copy()
    out = np.full(n, np.nan)
    res = apply_taps(values, offsets, weights, out=out)
    assert res is out
    tol = 1e-13 * max(1.0, np.max(np.abs(values)))
    np.testing.assert_allclose(out, _clipped_sum(values, offsets, weights), rtol=0, atol=tol)
    np.testing.assert_array_equal(values, before)


def _gheat_taps():
    """sigma = 1 at h = 2^-3 on 4095 points over [-12, 12]: 967 taps."""
    offsets, weights = gaussian_taps(np.sqrt(0.125), 0.0, 24.0 / (_W - 1))
    assert offsets.size == 967
    return offsets, weights


@pytest.mark.parametrize("scale", [1e303, 1e304, 1e305])
@pytest.mark.parametrize("rows", [1, 3])
def test_fft_branch_redoes_an_overflowed_spectrum(scale, rows):
    # sup|u| = 1.2e305 overflows the spectrum of the 4095-point window;
    # with three weight rows every row sees it
    offsets, weights = _gheat_taps()
    if rows == 3:
        narrow = np.exp(-0.5 * (offsets / 60.0) ** 2)
        weights = np.stack([weights, narrow / narrow.sum(), np.roll(weights, 200)])
    assert _takes_fft(_W, offsets, weights)
    values = np.linspace(-12.0, 12.0, _W) * scale
    out = apply_taps(values, offsets, weights)
    assert out.shape == weights.shape[:-1] + (_W,)
    assert np.all(np.isfinite(out))
    for row, w in zip(np.atleast_2d(out), np.atleast_2d(weights)):
        want = _clipped_sum(values, offsets, w)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    # into the plan's own output view, as a step plan's Gaussian rows: no
    # copy, and the redo writes into that view
    plan = tap_plan(_W, offsets, weights)
    assert apply_taps(values, offsets, weights, out=plan.outputs, plan=plan) is plan.outputs
    assert np.shares_memory(plan.outputs, plan.full)
    np.testing.assert_array_equal(plan.outputs, out)


def test_fft_branch_keeps_a_non_finite_value_within_the_taps_reach():
    offsets, weights = _gheat_taps()
    values = np.linspace(-1.0, 1.0, _W)
    values[2000] = np.nan
    out = apply_taps(values, offsets, weights)
    reach = np.abs(np.arange(_W) - 2000) <= offsets.max()
    assert np.all(np.isnan(out[reach])) and np.all(np.isfinite(out[~reach]))


@pytest.mark.parametrize("start", [0, 1])
def test_fft_branch_on_strided_and_float32_input(start):
    base = np.random.default_rng(13).normal(size=3 * _W + 1).cumsum()
    view = base[start::3][:_W]  # not contiguous
    offsets, weights = _one_sided(-60, 101, 8)
    assert _takes_fft(_W, offsets, weights)
    tol = 1e-13 * max(1.0, np.max(np.abs(view)))
    before = view.copy()
    out = apply_taps(view, offsets, weights)
    np.testing.assert_allclose(out, _clipped_sum(view, offsets, weights), rtol=0, atol=tol)
    np.testing.assert_array_equal(view, before)
    single = view.astype(np.float32)
    out = apply_taps(single, offsets, weights)
    assert out.dtype == np.float64
    expected = _clipped_sum(single.astype(float), offsets, weights)
    np.testing.assert_allclose(out, expected, rtol=0, atol=tol)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fft_branch_keeps_constants_and_the_range(seed):
    rng = np.random.default_rng(seed)
    n, count = int(rng.integers(2000, 8192)), int(rng.integers(200, 3000))
    offsets, weights = _one_sided(int(rng.integers(-n - count, n)), count, seed)
    weights = weights**3 / np.sum(weights**3)
    assert _takes_fft(n, offsets, weights)
    c = rng.normal() * 10.0 ** rng.uniform(-3, 3)
    np.testing.assert_allclose(apply_taps(np.full(n, c), offsets, weights), c, rtol=1e-14, atol=0)
    u = rng.normal(size=n).cumsum() * 10.0 ** rng.uniform(-3, 3)
    out = apply_taps(u, offsets, weights)
    slack = 1e-14 * np.max(np.abs(u))
    assert np.all(out >= u.min() - slack) and np.all(out <= u.max() + slack)


def test_the_fft_branch_is_taken_past_the_measured_crossover():
    # one row: the 513-point structural-suite calls stay on correlate
    assert not _fft_is_cheaper(513, 87, [87])
    assert not _fft_is_cheaper(513, 173, [173])
    for count in (123, 301, 967, 1931, 2731):
        assert _fft_is_cheaper(4095, count, [count])
    for count in (1, 2, 3, 25):
        assert not _fft_is_cheaper(4095, count, [count])


# ---------------------------------------------------------------------------
# plans of a step's Gaussian factors: one shared window, held spectra

_FACTOR_CASES = {
    "nisio-two-controls": ((0.5, 0.0), (1.0, 0.0)),
    "nisio-drift": ((0.5, 0.7), (1.0, -0.4)),
    "clt-gaussian-pair": (0.5, 1.0),
}


def _factors(case, h):
    """The (std, shift) of each Gaussian factor of one step of size h."""
    if case.startswith("nisio"):
        return [(s * np.sqrt(h), m * h) for s, m in _FACTOR_CASES[case]]
    return [(s * np.sqrt(h), 0.0) for s in _FACTOR_CASES[case]]


def _step_plan(case, grid, h):
    """The family's step as the shared penalised-max plan: nisio at shift
    scale h, clt at sqrt(h); both at std scale sqrt(h)."""
    if case.startswith("nisio"):
        return family_plan("nisio", NisioFamily(_FACTOR_CASES[case]).expectation, grid, h)
    ce = ScenarioConvexExpectation(tuple(Scenario.gaussian(0.0, s) for s in _FACTOR_CASES[case]))
    return family_plan("clt", ce, grid, h)


def _fine_grid():
    return Grid((-12.0,), (12.0,), (_W,))


def _payoff(grid, scale=1.0):
    x = grid.axes[0]
    return (np.minimum(np.abs(x), 1.5) + 0.3 * np.sin(3 * x)) * scale


_LONE_T = 0.25
_LONE = {
    # (scenario, whether it is a Gaussian whose taps take the FFT branch);
    # the whole-cell point moves 37 cells of the fine grid
    "whole-cell-point": (Scenario.point(37 * 24.0 / (_W - 1) / _LONE_T), None),
    "fractional-point": (Scenario.point(-0.137), None),
    "direct-gaussian": (Scenario.gaussian(0.1, 0.05), False),
    "fft-gaussian": (Scenario.gaussian(0.1, 2.0), True),
}


def _lone_primitive(scenario, grid, t):
    """One step of size t of a lone scenario of the lln family through the
    scenario's own primitive: its shift's taps, or its one Gaussian
    factor."""
    dx = grid.spacing[0]
    if scenario.kind == "gaussian":
        std, shift = [scenario.sigma * t], [scenario.mean * t]
        return lambda u: gaussian_convolve(u, grid, std, shift)[0]
    return lambda u: apply_taps(u, *shift_taps(t * scenario.mean, dx))


@pytest.mark.parametrize("case", sorted(_LONE))
def test_a_lone_scenario_plan_is_its_scenario_s_primitive_bit_for_bit(case):
    # a one-scenario family runs the general step, whose max of one row
    # is a copy of it: for one row, for each row of a stack of 3, and for
    # 8 steps of chernoff_iterate
    scenario, fft = _LONE[case]
    grid, t = _fine_grid(), _LONE_T
    if fft is not None:
        plan = gaussian_plan(grid, [scenario.sigma * t], [scenario.mean * t])
        assert (plan.spectra is not None) == fft
    ce = ScenarioConvexExpectation((scenario,))
    primitive = _lone_primitive(scenario, grid, t)
    u = _payoff(grid)
    np.testing.assert_array_equal(family_plan("lln", ce, grid, t)(u, np.empty(_W)), primitive(u))
    stack = np.stack([u, -3.0 * u, u[::-1]])
    got = family_plan("lln", ce, grid, t, stack=3)(stack, np.empty_like(stack))
    np.testing.assert_array_equal(got, [primitive(row) for row in stack])
    iterated = chernoff_iterate(StepOperator.from_lln(ce), GridFunction(grid, u), 8 * t, t)
    for _ in range(8):
        u = primitive(u)
    np.testing.assert_array_equal(iterated.values, u)


@pytest.mark.parametrize("h", [2.0**-7, 2.0**-1])
@pytest.mark.parametrize("case", sorted(_FACTOR_CASES))
def test_a_plan_of_gaussian_factors_matches_each_factor(case, h):
    grid = _fine_grid()
    u = _payoff(grid)
    factors = _factors(case, h)
    stds, shifts = zip(*factors)
    plan = gaussian_plan(grid, stds, shifts)
    assert plan.spectra is not None and plan.spectra.shape[0] == len(factors)
    rows = gaussian_convolve(u, grid, stds, shifts, taps=plan)
    assert rows.shape == (len(factors), _W)
    tol = 1e-14 * np.max(np.abs(u))
    sums = []
    for row, (std, shift) in zip(rows, factors):
        taps = gaussian_taps(std, shift, grid.spacing[0])
        sums.append(_clipped_sum(u, *taps))
        np.testing.assert_allclose(row, apply_taps(u, *taps), rtol=0, atol=tol)
        np.testing.assert_allclose(row, sums[-1], rtol=0, atol=tol)
    step = _step_plan(case, grid, h)
    np.testing.assert_allclose(step(u, np.empty(_W)), np.max(sums, axis=0), rtol=0, atol=tol)


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((name, np.shape(args[0])))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("h", [2.0**-7, 2.0**-1])
@pytest.mark.parametrize("case", sorted(_FACTOR_CASES))
def test_a_plan_step_runs_one_forward_transform_and_none_of_the_taps(case, h, monkeypatch):
    grid = _fine_grid()
    u = _payoff(grid)
    step = _step_plan(case, grid, h)  # the taps' spectra are made here
    calls = []
    for name in ("rfft", "irfft", "correlate"):
        _counting(monkeypatch, kernels, name, calls)
    for _ in range(3):
        step(u, np.empty(_W))
    k = len(_FACTOR_CASES[case])
    # per step: one rfft of the window (longer than the values), one
    # stacked irfft of the k products, no correlate
    assert [name for name, _ in calls] == ["rfft", "irfft"] * 3
    assert all(shape[0] > _W for name, shape in calls if name == "rfft")
    assert all(shape[0] == k for name, shape in calls if name == "irfft")


@pytest.mark.parametrize("h", [2.0**-7, 2.0**-1])
@pytest.mark.parametrize("case", sorted(_FACTOR_CASES))
def test_a_plan_redoes_an_overflowed_step_on_correlate(case, h, monkeypatch):
    grid = _fine_grid()
    u = np.linspace(-1.0, 1.0, _W) * 1e306
    factors = _factors(case, h)
    stds, shifts = zip(*factors)
    plan = gaussian_plan(grid, stds, shifts)
    assert plan.spectra is not None
    calls = []
    _counting(monkeypatch, kernels, "correlate", calls)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is caught, not reported
        rows = gaussian_convolve(u, grid, stds, shifts, taps=plan)
        out = _step_plan(case, grid, h)(u, np.empty(_W))
    assert len(calls) == 2 * len(factors)
    assert np.all(np.isfinite(rows))
    sums = []
    for row, (std, shift) in zip(rows, factors):
        sums.append(_clipped_sum(u, *gaussian_taps(std, shift, grid.spacing[0])))
        np.testing.assert_allclose(row, sums[-1], rtol=0, atol=1e-14 * 1e306)
    np.testing.assert_allclose(out, np.max(sums, axis=0), rtol=0, atol=1e-14 * 1e306)


@pytest.mark.parametrize("h, fft", [(2.0**-1, True), (2.0**-8, False)])
def test_a_payoff_near_the_float_range_steps_to_finite_values(h, fft, monkeypatch):
    # a linear payoff with sup |f| = 1.68e308 and one sigma = 1 step of
    # size h on 1025 points: 483 taps on the FFT branch, whose spectrum
    # overflows so the call is redone directly, or 45 on the direct one
    grid = Grid((-12.0,), (12.0,), (1025,))
    u = 1.4e307 * grid.axes[0]
    plan = gaussian_plan(grid, np.sqrt(h), 0.0)
    assert (plan.spectra is not None) == fft
    calls = []
    _counting(monkeypatch, kernels, "correlate", calls)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gaussian_convolve(u, grid, np.sqrt(h), 0.0, taps=plan)
        step = _step_plan("nisio-two-controls", grid, h)(u, np.empty(grid.size))
    assert len(calls) == 3
    sup = np.max(np.abs(u))
    for row in (out, step):
        assert np.all(np.isfinite(row)) and np.max(np.abs(row)) <= sup
    expected = _clipped_sum(u, *gaussian_taps(np.sqrt(h), 0.0, grid.spacing[0]))
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14 * sup)


def test_next_fast_len_gives_the_real_transform_lengths_of_scipy():
    scipy_fft = pytest.importorskip("scipy.fft")
    for target in range(1, 2**15 + 1):
        assert next_fast_len(target) == scipy_fft.next_fast_len(target, real=True)


def test_suite_calls_and_one_tap_steps_keep_their_branches(monkeypatch):
    # the clt Gaussian pair's 513-point structural-suite calls: 87 and 173
    # taps, each row on correlate with its own taps, as one-row calls
    grid = Grid((-12.0,), (12.0,), (513,))
    u = _payoff(grid)
    plan = gaussian_plan(grid, [0.25, 0.5], [0.0, 0.0])
    assert plan.spectra is None
    assert [taps.size for _, taps in plan.rows] == [87, 173]
    rows = gaussian_convolve(u, grid, [0.25, 0.5], [0.0, 0.0], taps=plan)
    for row, std in zip(rows, (0.25, 0.5)):
        np.testing.assert_array_equal(row, apply_taps(u, *gaussian_taps(std, 0.0, grid.spacing[0])))
    # the stacked suite's rows stay on correlate whatever the batch: one
    # row, a pair's four, clt_certify's 48 pairs and a full block
    stack = np.array([u * (1.0 + 0.1 * j) for j in range(block_rows(grid.size))])
    with monkeypatch.context() as patch:
        for name in ("rfft", "irfft"):
            patch.setattr(kernels, name, lambda *a, **k: pytest.fail("a suite row took the FFT"))
        for batch in (1, 4, 192, block_rows(grid.size)):
            plan = gaussian_plan(grid, [0.25, 0.5], [0.0, 0.0], stack=batch)
            assert plan.spectra is None
            out = gaussian_convolve(stack[:batch], grid, [0.25, 0.5], [0.0, 0.0], taps=plan)
            for j in (0, batch - 1):
                np.testing.assert_array_equal(
                    out[:, j], gaussian_convolve(stack[j], grid, [0.25, 0.5], [0.0, 0.0])
                )
    # one-tap lln steps: scaled slices, with no plan, correlate or FFT
    fine = _fine_grid()
    mass = 512 * fine.spacing[0]
    ce = ScenarioConvexExpectation((Scenario.point(-mass), Scenario.point(mass, 1.0)))
    step = family_plan("lln", ce, fine, 2.0**-5)

    def refuse(*args, **kwargs):
        raise AssertionError("a one-tap step left the scaled-slice branch")

    # the plan holds each atom's prepared shift: no apply_taps call either
    for name in ("tap_plan", "correlate", "rfft", "irfft", "apply_taps"):
        monkeypatch.setattr(kernels, name, refuse)
    u = _payoff(fine)
    out = step(u, np.empty(_W))
    j = 512 // 32  # whole cells moved by h * mass at h = 2^-5
    left = u[np.clip(np.arange(_W) - j, 0, _W - 1)]
    right = u[np.clip(np.arange(_W) + j, 0, _W - 1)] - 2.0**-5
    np.testing.assert_array_equal(out, np.maximum(left, right))
    chernoff_iterate(StepOperator.from_lln(ce), GridFunction(fine, u), 1.0, 2.0**-5)
    # a fractional shift past one cell: two taps on adjacent cells, two slices
    ce = ScenarioConvexExpectation((Scenario.point(16.5 * 32 * fine.spacing[0]),))
    out = family_plan("lln", ce, fine, 2.0**-5)(u, np.empty(_W))
    np.testing.assert_allclose(out, _clipped_sum(u, [16, 17], [0.5, 0.5]), rtol=0, atol=1e-15)
