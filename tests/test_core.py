import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernoff.core import (
    DomainError,
    Grid,
    GridFunction,
    SpaceTimeFunction,
    lipschitz_estimate,
    negative_part_norm,
    positive_part_norm,
    sup_norm,
)


def grid1d(lo=-2.0, hi=2.0, n=129):
    return Grid((lo,), (hi,), (n,))


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid((0.0,), (1.0,), (3,))  # only 3 points in total
    with pytest.raises(DomainError):
        Grid((0.0,), (0.0,), (8,))
    with pytest.raises(DomainError):
        Grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
    g = Grid((0.0,), (2.0,), (9,))
    assert g.spacing == (0.25,)
    assert g.size == 9


def test_grid_with_two_axes_is_rejected_naming_counts():
    with pytest.raises(DomainError, match="grid counts must have one entry"):
        Grid((0.0, 0.0), (1.0, 2.0), (5, 9))


def test_grid_function_rejects_nonfinite():
    g = grid1d()
    bad = np.zeros(129)
    bad[3] = np.inf
    with pytest.raises(DomainError):
        GridFunction(g, bad)


def test_sup_norm_examples():
    g = grid1d()
    zero = GridFunction(g, np.zeros(129))
    one = GridFunction(g, np.ones(129))
    assert sup_norm(zero) == 0.0
    assert sup_norm(one) == 1.0
    ident = GridFunction.from_callable(g, lambda x: x)
    assert sup_norm(ident) == 2.0
    # masked: only the points with |x| <= 1 count
    assert sup_norm(ident, where=g.interior_mask(1.0)) == 1.0
    assert positive_part_norm(ident, where=g.axes[0] < 0) == 0.0
    assert negative_part_norm(ident, where=g.axes[0] < 0) == 2.0


def test_part_norms_sign_split():
    g = grid1d()
    f = GridFunction(g, np.full(129, -3.0))
    assert positive_part_norm(f) == 0.0
    assert negative_part_norm(f) == 3.0
    odd = GridFunction.from_callable(g, lambda x: x)
    assert positive_part_norm(odd) == negative_part_norm(odd)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_part_norm_max_identity(seed):
    g = grid1d(n=33)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=33) - rng.normal(size=33))
    pos = positive_part_norm(f)
    neg = negative_part_norm(f)
    assert max(pos, neg) == sup_norm(f) == f.sup_norm
    assert pos == negative_part_norm(-f)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-4.0, 4.0))
def test_sup_norm_is_a_norm(seed, scale):
    g = grid1d(n=33)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=33))
    h = GridFunction(g, rng.normal(size=33))
    assert sup_norm(f * scale) == pytest.approx(
        abs(scale) * sup_norm(f), rel=1e-12, abs=1e-300
    )
    assert sup_norm(f + h) <= sup_norm(f) + sup_norm(h) + 1e-12


def test_lipschitz_estimate_examples():
    g = grid1d(-2.0, 2.0, 129)
    assert lipschitz_estimate(GridFunction(g, np.full(129, 7.0))) == 0.0
    absf = GridFunction.from_callable(g, np.abs)
    assert lipschitz_estimate(absf) == pytest.approx(1.0, abs=1e-12)
    sine = GridFunction.from_callable(g, np.sin)
    est = lipschitz_estimate(sine)
    assert est <= 1.0
    assert est >= 1.0 - g.spacing[0]


def test_space_time_function_validation_and_interp():
    g = grid1d(n=17)
    f0 = GridFunction(g, np.zeros(17))
    f1 = GridFunction(g, np.ones(17))
    u = SpaceTimeFunction.from_functions([0.0, 1.0], [f0, f1])
    with pytest.raises(DomainError):
        SpaceTimeFunction.from_functions([0.0, 0.0], [f0, f1])



def _uneven_space_time(n_times=9, seed=4):
    g = grid1d(n=17)
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, n_times - 2)), [2.0]])
    return SpaceTimeFunction(g, times, rng.normal(size=(n_times, 17)))


def test_sample_indices_match_the_nearest_sample():
    u = _uneven_space_time()
    # every sample, nudged within the tolerance, in a 2D layout
    query = (u.times[::-1] + 3e-10).reshape(-1, 1).repeat(2, axis=1)
    query[:, 1] -= 6e-10
    idx = u.sample_indices(query)
    assert idx.shape == query.shape
    nearest = [[int(np.argmin(np.abs(u.times - t))) for t in row] for row in query]
    np.testing.assert_array_equal(idx, nearest)
    assert int(u.sample_indices(u.times[3])) == 3  # a scalar gives a 0-d index
    # halfway between two samples with a wide tolerance: the earlier wins,
    # as argmin's does
    halves = SpaceTimeFunction(u.grid, [0.0, 0.5, 1.0], u.values[:3])
    np.testing.assert_array_equal(halves.sample_indices([0.75, 0.25], tol=1.0), [1, 0])
    with pytest.raises(DomainError, match="time 0.5 is not a sample"):
        u.sample_indices([0.0, 0.5, 0.7, float("nan")])
    with pytest.raises(DomainError, match="time nan is not a sample"):
        u.sample_indices([0.0, float("nan")])
    single = SpaceTimeFunction(u.grid, [1.0], u.values[:1])
    np.testing.assert_array_equal(single.sample_indices([1.0, 1.0]), [0, 0])


def test_interp_weights_rows_interpolate_linearly():
    u = _uneven_space_time()
    times = np.concatenate([u.times, np.linspace(0.0, 2.0, 37), [2.0 + 1e-13, -1e-13]])
    W = u.interp_weights(times)
    assert W.shape == (times.size, len(u.times))
    np.testing.assert_allclose(W.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    atol = 1e-15 * np.max(np.abs(u.values))
    for row, t in zip(W @ u.values, times):
        t = min(max(t, 0.0), 2.0)
        i = min(max(int(np.searchsorted(u.times, t, side="right")) - 1, 0), len(u.times) - 2)
        w = (t - u.times[i]) / (u.times[i + 1] - u.times[i])
        ref = (1.0 - w) * u.values[i] + w * u.values[i + 1]
        np.testing.assert_allclose(row, ref, rtol=0, atol=atol)
    with pytest.raises(DomainError, match="time 2.5 outside"):
        u.interp_weights([1.0, 2.5, -1.0])
    with pytest.raises(DomainError, match="outside"):
        u.interp_weights([float("nan")])
    single = SpaceTimeFunction(u.grid, [1.0], u.values[:1])
    np.testing.assert_array_equal(single.interp_weights([1.0]), [[1.0]])
