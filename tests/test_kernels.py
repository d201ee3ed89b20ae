import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernoff.core import DomainError, Grid, GridFunction
from chernoff.kernels import (
    _fft_is_cheaper,
    apply_taps,
    gaussian_convolve,
    gaussian_taps,
    shift_taps,
)


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


def test_apply_taps_axis1():
    vals = np.arange(12, dtype=float).reshape(3, 4)
    offs, w = shift_taps(1.0, 1.0)
    out = apply_taps(vals, offs, w, ax=1)
    expected = vals[:, [1, 2, 3, 3]]
    np.testing.assert_array_equal(out, expected)


def _clipped_sum(values, offsets, weights, ax):
    """The defining sum: w_j * values[clip(i + offsets_j, 0, n - 1)] along ax."""
    n = values.shape[ax]
    out = np.zeros(values.shape)
    for j, wj in zip(offsets, weights):
        out += wj * np.take(values, np.clip(np.arange(n) + j, 0, n - 1), axis=ax)
    return out


_N = 301


@pytest.mark.parametrize(
    "shape, ax, offsets, weights",
    [
        pytest.param((_N,), 0, *gaussian_taps(0.35, 0.08, 0.01), id="gaussian-drift"),
        pytest.param((_N,), 0, [_N + 12], [1.0], id="shift-past-plus-n"),
        pytest.param((_N,), 0, [-_N - 40], [0.5], id="shift-past-minus-n"),
        pytest.param((_N,), 0, [7, 7], [0.25, 0.5], id="duplicate-one-offset"),
        pytest.param((_N,), 0, [0], [1.0], id="zero-shift"),
        pytest.param((_N,), 0, *shift_taps(-0.137, 0.01), id="two-tap-fractional"),
        pytest.param((_N,), 0, [4, -3, 4, 0, -3], [0.1, 0.2, 0.3, 0.15, 0.25], id="unsorted-duplicate"),
        pytest.param((41, 57), 0, *gaussian_taps(0.05, -0.02, 0.01), id="2d-axis0"),
        pytest.param((41, 57), 1, *gaussian_taps(0.05, 0.03, 0.01), id="2d-axis1"),
        pytest.param((41, 57), 1, [60, 75, 57, 60], [0.2, 0.1, 0.3, 0.4],
                     id="2d-axis1-all-beyond-plus"),
        pytest.param((41, 57), 1, [-56, -90, -70], [0.5, 0.25, 0.25],
                     id="2d-axis1-all-beyond-minus"),
    ],
)
def test_apply_taps_matches_clipped_index_sum(shape, ax, offsets, weights):
    values = np.random.default_rng(5).normal(size=shape) * 7.0
    before = values.copy()
    out = apply_taps(values, np.asarray(offsets), np.asarray(weights), ax)
    expected = _clipped_sum(values, offsets, weights, ax)
    assert out.shape == values.shape
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13 * np.max(np.abs(values)))
    np.testing.assert_array_equal(values, before)
    assert not np.shares_memory(out, values)


@pytest.mark.parametrize("ax", [0, 1])
def test_apply_taps_on_strided_and_float32_input(ax):
    base = np.random.default_rng(8).normal(size=(90, 130))
    offsets, weights = [-2, 5, 0, 31], [0.1, 0.4, 0.3, 0.2]
    view = base[1::2, ::3]  # not contiguous
    out = apply_taps(view, np.asarray(offsets), np.asarray(weights), ax)
    expected = _clipped_sum(view, offsets, weights, ax)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13 * np.max(np.abs(view)))
    single = view.astype(np.float32)
    out = apply_taps(single, np.asarray(offsets), np.asarray(weights), ax)
    assert out.dtype == np.float64
    assert not np.shares_memory(out, single)
    expected = _clipped_sum(single.astype(float), offsets, weights, ax)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13 * np.max(np.abs(view)))


@pytest.mark.parametrize(
    "offsets, weights, name",
    [([], [], "offsets"), ([0, 1], [1.0], "weights"), ([0], [0.5, 0.5], "weights")],
)
def test_apply_taps_rejects_bad_tap_lists(offsets, weights, name):
    with pytest.raises(DomainError, match=name):
        apply_taps(np.zeros(5), np.asarray(offsets, dtype=int), np.asarray(weights), 0)


@pytest.mark.parametrize(
    "shape, ax, offsets, weights",
    [
        pytest.param((_N,), 0, *gaussian_taps(0.35, 0.08, 0.01), id="origin-in-range"),
        pytest.param((_N,), 0, *gaussian_taps(0.02, 0.5, 0.01), id="drift-above-cut-std"),
        pytest.param((_N,), 0, *gaussian_taps(0.02, -0.5, 0.01), id="drift-below-cut-std"),
        pytest.param((_N,), 0, [_N], [1.0], id="shift-plus-n"),
        pytest.param((_N,), 0, [-_N], [0.75], id="shift-minus-n"),
        pytest.param((_N,), 0, [_N + 12, _N + 13], [0.3, 0.7], id="two-tap-past-plus-n"),
        pytest.param((_N,), 0, [4, 5], [0.3, 0.7], id="fraction-past-one-cell"),
        pytest.param((_N,), 0, [-9, -8], [0.6, 0.4], id="fraction-past-minus-one-cell"),
        pytest.param((_N,), 0, [_N - 1, _N], [0.2, 0.8], id="two-tap-straddling-the-edge"),
        pytest.param((_N,), 0, [-3 * _N], [1.0], id="shift-far-minus"),
        pytest.param((_N,), 0, [0], [0.5], id="zero-shift"),
        pytest.param((41, 57), 0, *gaussian_taps(0.05, -0.02, 0.01), id="2d-axis0-in-range"),
        pytest.param((41, 57), 1, *gaussian_taps(0.05, 0.03, 0.01), id="2d-axis1-in-range"),
        pytest.param((41, 57), 0, [3, 5], [0.5, 0.5], id="2d-axis0-one-sided"),
        pytest.param((41, 57), 1, [-60], [1.0], id="2d-axis1-past-minus-n"),
        pytest.param((41, 57), 1, [6, 7], [0.45, 0.55], id="2d-axis1-fraction-past-one-cell"),
    ],
)
def test_apply_taps_into_out(shape, ax, offsets, weights):
    values = np.random.default_rng(6).normal(size=shape) * 7.0
    before = values.copy()
    out = np.full(shape, np.nan)
    res = apply_taps(values, np.asarray(offsets), np.asarray(weights), ax, out=out)
    assert res is out
    np.testing.assert_allclose(
        out, _clipped_sum(values, offsets, weights, ax), rtol=0, atol=1e-13 * np.max(np.abs(values))
    )
    np.testing.assert_array_equal(out, apply_taps(values, np.asarray(offsets), np.asarray(weights), ax))
    np.testing.assert_array_equal(values, before)


@pytest.mark.parametrize("ax", [0, 1])
@pytest.mark.parametrize(
    "offsets, weights", [([-2, 5, 0, 31], [0.1, 0.4, 0.3, 0.2]), ([4, 9], [0.6, 0.4]), ([-7], [1.0]), ([3, 4], [0.25, 0.75])]
)
def test_apply_taps_into_out_from_strided_input(ax, offsets, weights):
    base = np.random.default_rng(9).normal(size=(90, 130))
    view = base[1::2, ::3]
    before = view.copy()
    out = np.empty(view.shape)
    res = apply_taps(view, np.asarray(offsets), np.asarray(weights), ax, out=out)
    assert res is out
    np.testing.assert_allclose(
        out, _clipped_sum(view, offsets, weights, ax), rtol=0, atol=1e-13 * np.max(np.abs(view))
    )
    np.testing.assert_array_equal(view, before)


@pytest.mark.parametrize("out", [np.empty(6), np.empty(5, dtype=np.float32)])
def test_apply_taps_rejects_a_mismatched_out(out):
    with pytest.raises(DomainError, match="out"):
        apply_taps(np.zeros(5), np.array([0, 1]), np.array([0.5, 0.5]), 0, out=out)


def test_gaussian_convolve_into_out():
    g = Grid((-8.0,), (8.0,), (81,))
    f = GridFunction.from_callable(g, lambda x: np.cos(x) * np.sin(0.5 * x))
    out = np.empty(g.counts)
    res = gaussian_convolve(f.values, g, 0.4, 0.1, out=out)
    assert res is out
    np.testing.assert_array_equal(out, gaussian_convolve(f.values, g, 0.4, 0.1))
    taps = gaussian_taps(0.4, 0.1, g.spacing[0])
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


@pytest.mark.parametrize(
    "shape, ax, taps",
    [
        pytest.param((_W,), 0, _centred_gaussian(61), id="centred-123"),
        pytest.param((_W,), 0, _centred_gaussian(483), id="centred-967"),
        pytest.param((_W,), 0, _centred_gaussian(1365), id="centred-2731"),
        pytest.param((_W,), 0, _one_sided(300, 250), id="drift-beyond-cut"),
        pytest.param((_W,), 0, _one_sided(-700, 400, 1), id="drift-below-cut"),
        pytest.param((_W,), 0, _one_sided(_W + 10, 300, 2), id="past-plus-n"),
        pytest.param((_W,), 0, _one_sided(-_W - 500, 400, 3), id="past-minus-n"),
        pytest.param((_W,), 0, _one_sided(_W - 150, 300, 5), id="straddling-plus-n"),
        pytest.param((_W,), 0, _shuffled_with_duplicates(), id="unsorted-duplicate"),
        pytest.param((129, 129), 0, _centred_gaussian(50), id="2d-axis0"),
        pytest.param((129, 129), 1, _centred_gaussian(50), id="2d-axis1"),
        pytest.param((129, 129), 0, _one_sided(20, 120, 6), id="2d-axis0-one-sided"),
        pytest.param((60, 700), 1, _one_sided(-760, 300, 7), id="2d-axis1-past-minus-n"),
    ],
)
def test_fft_branch_matches_clipped_index_sum(shape, ax, taps):
    offsets, weights = taps
    assert _fft_is_cheaper(shape, ax, offsets.max() - offsets.min() + 1)
    values = np.random.default_rng(12).normal(size=shape).cumsum(axis=ax) + 3.0
    before = values.copy()
    out = np.full(shape, np.nan)
    res = apply_taps(values, offsets, weights, ax, out=out)
    assert res is out
    tol = 1e-13 * max(1.0, np.max(np.abs(values)))
    np.testing.assert_allclose(out, _clipped_sum(values, offsets, weights, ax), rtol=0, atol=tol)
    np.testing.assert_array_equal(values, before)


def _gheat_taps():
    """sigma = 1 at h = 2^-3 on 4095 points over [-12, 12]: 967 taps."""
    offsets, weights = gaussian_taps(np.sqrt(0.125), 0.0, 24.0 / (_W - 1))
    assert offsets.size == 967
    return offsets, weights


@pytest.mark.parametrize("scale", [1e303, 1e304, 1e305])
@pytest.mark.parametrize("rows", [1, 3])
def test_fft_branch_redoes_an_overflowed_spectrum(scale, rows):
    # sup|u| = 1.2e305 overflows the spectrum of the 4095-point window
    offsets, weights = _gheat_taps()
    shape = (rows, _W)
    assert _fft_is_cheaper(shape, 1, offsets.size)
    x = np.linspace(-12.0, 12.0, _W)
    values = np.stack([x * (scale if i == rows // 2 else 1.0) for i in range(rows)])
    out = apply_taps(values, offsets, weights, 1)
    assert np.all(np.isfinite(out))
    expected = _clipped_sum(values, offsets, weights, 1)
    for row, want in zip(out, expected):
        tol = 1e-13 * np.max(np.abs(want))
        np.testing.assert_allclose(row, want, rtol=0, atol=tol)


def test_fft_branch_keeps_a_non_finite_value_within_the_taps_reach():
    offsets, weights = _gheat_taps()
    values = np.linspace(-1.0, 1.0, _W)
    values[2000] = np.nan
    out = apply_taps(values, offsets, weights)
    reach = np.abs(np.arange(_W) - 2000) <= offsets.max()
    assert np.all(np.isnan(out[reach])) and np.all(np.isfinite(out[~reach]))


@pytest.mark.parametrize("ax", [0, 1])
def test_fft_branch_on_strided_and_float32_input(ax):
    base = np.random.default_rng(13).normal(size=(258, 390)).cumsum(axis=ax)
    view = base[::2, ::3]  # 129 x 130, not contiguous
    offsets, weights = _one_sided(-60, 101, 8)
    assert _fft_is_cheaper(view.shape, ax, offsets.size)
    tol = 1e-13 * max(1.0, np.max(np.abs(view)))
    before = view.copy()
    out = apply_taps(view, offsets, weights, ax)
    np.testing.assert_allclose(out, _clipped_sum(view, offsets, weights, ax), rtol=0, atol=tol)
    np.testing.assert_array_equal(view, before)
    single = view.astype(np.float32)
    out = apply_taps(single, offsets, weights, ax)
    assert out.dtype == np.float64
    expected = _clipped_sum(single.astype(float), offsets, weights, ax)
    np.testing.assert_allclose(out, expected, rtol=0, atol=tol)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fft_branch_keeps_constants_and_the_range(seed):
    rng = np.random.default_rng(seed)
    n, count = int(rng.integers(2000, 8192)), int(rng.integers(150, 3000))
    offsets, weights = _one_sided(int(rng.integers(-n - count, n)), count, seed)
    weights = weights**3 / np.sum(weights**3)
    assert _fft_is_cheaper((n,), 0, count)
    c = rng.normal() * 10.0 ** rng.uniform(-3, 3)
    np.testing.assert_allclose(apply_taps(np.full(n, c), offsets, weights), c, rtol=1e-14, atol=0)
    u = rng.normal(size=n).cumsum() * 10.0 ** rng.uniform(-3, 3)
    out = apply_taps(u, offsets, weights)
    slack = 1e-14 * np.max(np.abs(u))
    assert np.all(out >= u.min() - slack) and np.all(out <= u.max() + slack)


def test_the_fft_branch_is_taken_past_the_measured_crossover():
    # the 513-point structural-suite calls stay on correlate1d
    assert not _fft_is_cheaper((513,), 0, 87)
    assert not _fft_is_cheaper((513,), 0, 173)
    for count in (123, 301, 967, 1931, 2731):
        assert _fft_is_cheaper((4095,), 0, count)
    for count in (1, 2, 3, 25):
        assert not _fft_is_cheaper((4095,), 0, count)
