import math

import numpy as np
import pytest

from chernoff import cli, mollifier
from chernoff.convex_expectation import Scenario, ScenarioConvexExpectation
from chernoff.core import DomainError, Grid, GridFunction, SpaceTimeFunction
from chernoff.iterate import StepOperator, chernoff_iterate
from chernoff.kernels import apply_taps
from chernoff.mollifier import (
    Epsilon,
    MollifierKernel,
    _bump_deriv_l1,
    _bump_mass,
    _bump_poly,
    _space_taps,
    bump,
    bump_derivative,
    derivative_bound_check,
    kernel_constant,
    mollify,
)
from chernoff.nisio import NisioFamily

# ---------------------------------------------------------------------------
# oracle helpers. The derivative closed form is validated pointwise by
# high-order finite differences of the bump itself (safe interior points
# only), and the L1 integrals by dense midpoint Riemann sums, so the
# production values (recursion + tanh-sinh quadrature) are cross-checked
# by two mechanisms that share none of their code.


def fd_derivative(fn, x, order, step, npts=9):
    half = (npts - 1) // 2
    offs = np.arange(-half, half + 1)
    A = np.vander(offs.astype(float), npts, increasing=True).T
    b = np.zeros(npts)
    b[order] = math.factorial(order)
    w = np.linalg.solve(A, b) / step**order
    return sum(wi * fn(x + oi * step) for wi, oi in zip(w, offs))


def riemann_abs_l1(fn, n=400_001, lo=-1.0, hi=1.0):
    mid = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    return float(np.sum(np.abs(fn(mid)))) * (hi - lo) / n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bump_derivative_matches_finite_differences(n):
    for z in (0.0, -0.3, 0.45, 0.6):
        fd = fd_derivative(bump, np.array(z), n, step=4e-3)
        closed = bump_derivative(n, np.array(z))
        # abs floor covers finite-difference roundoff at symmetry zeros
        assert closed == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_bump_poly_degree():
    for n in range(1, 5):
        assert _bump_poly(n).degree() == 3 * n - 2


def test_bump_mass_value():
    # dense Riemann value of the bump integral
    assert _bump_mass() == pytest.approx(riemann_abs_l1(bump), abs=1e-9)
    assert _bump_mass() == pytest.approx(0.443994, abs=1e-6)


def test_first_derivative_l1_closed_form():
    # integral of |beta'| telescopes to 2 * beta(0)
    assert _bump_deriv_l1(1) == pytest.approx(2.0 / math.e, abs=1e-12)


# integral of |beta^(n)| for n = 0..3 to 19 digits: mpmath at 40 digits,
# split at the real roots of Q_n polished to that precision
DERIV_L1_40_DIGITS = [
    0.4439938161680794378,
    0.7357588823428846432,
    3.193719007334398177,
    35.64721990968618204,
]


@pytest.mark.parametrize("n", range(4))
def test_deriv_l1_is_pinned_to_high_precision_values(n):
    assert _bump_deriv_l1(n) == pytest.approx(DERIV_L1_40_DIGITS[n], rel=1e-15, abs=0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_deriv_l1_against_riemann(n):
    oracle = riemann_abs_l1(lambda z: bump_derivative(n, z))
    assert _bump_deriv_l1(n) == pytest.approx(oracle, abs=1e-6)


def test_kernel_constant_normalization():
    k = MollifierKernel(1)
    assert k.b(0, 0) == pytest.approx(1.0, abs=1e-8)


def test_the_kernel_table_is_one_product_per_entry_and_pinned():
    # b(k, l) = (2^k ||beta^(k)||_1 / I) * (||beta^(l)||_1 / I), bit for
    # bit, and the table every manifest digests keeps its bytes
    k = MollifierKernel(1)
    mass = _bump_mass()
    for (i, j), value in k.constants.items():
        assert value == (2.0**i * _bump_deriv_l1(i) / mass) * (_bump_deriv_l1(j) / mass)
    assert len(k.constants) == 12
    assert (
        cli.kernel_table_digest()
        == "46f2d505f68250b6b6b51fccadb7fcf20b80896e43d0728ce9af62be2f16fa40"
    )
    for dim in (0, 2):
        with pytest.raises(DomainError, match="dim must be 1"):
            MollifierKernel(dim)


def test_kernel_constant_spatial_mode_identity():
    # d=1: integral of |varsigma'| telescopes to twice the mode height
    k = MollifierKernel(1)
    mode = 2.0 * float(k.space_factor(np.array(0.0)))
    assert k.b(0, 1) == pytest.approx(mode, rel=1e-10)


def test_kernel_constant_table_against_riemann_oracle():
    # 10x the base resolution used elsewhere; the largest table entry is
    # a few thousand, so the sums need ~1e-10 relative accuracy
    n_oracle = 4_000_001
    mass = riemann_abs_l1(bump, n=n_oracle)
    l1 = {0: mass}
    for n in (1, 2, 3):
        l1[n] = riemann_abs_l1(lambda z: bump_derivative(n, z), n=n_oracle)
    kern = MollifierKernel(1)
    for k in range(3):
        for l in range(4):
            oracle = (2.0**k * l1[k] / mass) * (l1[l] / mass)
            assert kern.b(k, l) == pytest.approx(oracle, abs=1e-6), (k, l)


def test_kernel_constant_rejects_large_orders():
    with pytest.raises(DomainError):
        kernel_constant(3, 0)
    with pytest.raises(DomainError):
        kernel_constant(0, 4)
    assert kernel_constant(2, 3) == MollifierKernel(1).b(2, 3)


def test_density_support_and_positivity():
    k = MollifierKernel(1)
    s = np.linspace(-0.5, 1.5, 41)
    y = np.linspace(-1.5, 1.5, 41)
    ss, yy = np.meshgrid(s, y, indexing="ij")
    vals = k.density(ss, yy[..., None])
    assert np.all(vals >= 0)
    outside = (ss <= 0) | (ss >= 1) | (np.abs(yy) >= 1)
    assert np.all(vals[outside] == 0)


def test_epsilon_validation_and_coupling():
    with pytest.raises(DomainError):
        Epsilon(0.0, 0.1)
    e = Epsilon.coupled(0.25, p=1.0)
    assert e.eps1 == pytest.approx(0.0625)
    assert e.eps2 == 0.25


# ---------------------------------------------------------------------------
# mollify


def _grid(n=601, half=6.0):
    return Grid((-half,), (half,), (n,))


def _constant_in_time(f: GridFunction, times):
    return SpaceTimeFunction.from_functions(times, [f] * len(times))


def test_mollify_preserves_constants():
    g = _grid(101)
    u = _constant_in_time(GridFunction(g, np.full(101, 3.25)), [0.0, 0.5, 1.0])
    out = mollify(u, Epsilon(0.4, 0.5))
    np.testing.assert_allclose(out.values, 3.25, atol=1e-13)
    # default output keeps exactly the covered sample times
    np.testing.assert_array_equal(out.times, [0.0, 0.5])


def test_mollify_linear_function_fixed_interior():
    g = _grid(1201)
    f = GridFunction.from_callable(g, lambda x: x)
    u = _constant_in_time(f, [0.0, 1.0])
    out = mollify(u, Epsilon(0.5, 0.5), times=[0.0])
    interior = g.interior_mask(0.6)
    np.testing.assert_allclose(
        out.values[0][interior], f.values[interior], atol=1e-12
    )


def test_mollify_monotone_and_sup_bound():
    g = _grid(201)
    rng = np.random.default_rng(7)
    a = np.cumsum(rng.uniform(-0.05, 0.05, 201))
    b = a + rng.uniform(0.0, 0.5, 201)
    ua = _constant_in_time(GridFunction(g, a), [0.0, 1.0])
    ub = _constant_in_time(GridFunction(g, b), [0.0, 1.0])
    eps = Epsilon(0.3, 0.7)
    out_a = mollify(ua, eps, times=[0.0])
    out_b = mollify(ub, eps, times=[0.0])
    assert np.all(out_a.values <= out_b.values + 1e-14)
    assert np.max(np.abs(out_a.values)) <= np.max(np.abs(a)) + 1e-14


def test_mollify_lipschitz_distance():
    g = _grid(2401)
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.0))
    u = _constant_in_time(f, [0.0, 1.0])
    for eps2 in (0.2, 0.5):
        out = mollify(u, Epsilon(0.5, eps2), times=[0.0])
        assert np.max(np.abs(out.values[0] - f.values)) <= 1.0 * eps2 + 1e-12


def test_mollify_coverage_error_names_range():
    g = _grid(101)
    u = _constant_in_time(GridFunction(g, np.zeros(101)), [0.0, 0.4])
    with pytest.raises(DomainError, match=r"\[0.2, 0.7"):
        mollify(u, Epsilon(0.5, 0.3), times=[0.2])
    with pytest.raises(DomainError):
        mollify(u, Epsilon(0.5, 0.3))  # no sample time has coverage


# ---------------------------------------------------------------------------
# derivative bound check


def test_derivative_bound_constant_trajectory():
    g = _grid(401)
    u = _constant_in_time(GridFunction(g, np.full(401, 2.0)), [0.0, 0.5, 1.0])
    rep = derivative_bound_check(u, Epsilon(0.2, 0.4), k=0, l=1, r=1.0)
    assert rep.measured == pytest.approx(0.0, abs=1e-12)
    assert rep.ok


def test_derivative_bound_kink_second_derivative():
    g = _grid(2401)
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.0))
    u = _constant_in_time(f, [0.0, 0.5, 1.0])
    eps = Epsilon(0.3, 0.4)
    rep = derivative_bound_check(u, eps, k=0, l=2, r=1.0)
    expected_bound = MollifierKernel(1).b(0, 1) / eps.eps2
    assert rep.bound == pytest.approx(expected_bound, rel=1e-12)
    assert rep.ok
    assert rep.measured > 0.1 * rep.bound  # the kink makes this nearly sharp


def test_derivative_bound_mixed_time_space():
    g = _grid(1201)
    times = np.linspace(0.0, 1.0, 101)
    funcs = [GridFunction.from_callable(g, lambda x, t=t: np.sin(x + t)) for t in times]
    u = SpaceTimeFunction.from_functions(times, funcs)
    eps = Epsilon(0.2, 0.3)
    rep = derivative_bound_check(u, eps, k=1, l=1, r=1.0)
    expected_bound = MollifierKernel(1).b(1, 0) / eps.eps1
    assert rep.bound == pytest.approx(expected_bound, rel=1e-12)
    assert rep.ok


def test_derivative_bound_nisio_trajectory():
    g = _grid(65, 4.0)
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.0))
    op = StepOperator.from_nisio(NisioFamily(((0.5, 0.0), (1.0, 0.0))))
    _, u = chernoff_iterate(op, f, 1.0, 2.0**-4, record=True)
    eps = Epsilon.coupled(0.5, 1.0)
    for k in (0, 1, 2):
        for l in (1, 2, 3):
            assert derivative_bound_check(u, eps, k, l, 1.0).ok, (k, l)


def test_derivative_bound_rejects_time_only_orders():
    g = _grid(101)
    u = _constant_in_time(GridFunction(g, np.zeros(101)), [0.0, 1.0])
    with pytest.raises(DomainError):
        derivative_bound_check(u, Epsilon(0.2, 0.2), k=0, l=0, r=1.0)
    with pytest.raises(DomainError):
        derivative_bound_check(u, Epsilon(0.2, 0.2), k=1, l=0, r=1.0)
    with pytest.raises(DomainError):
        derivative_bound_check(u, Epsilon(0.2, 0.2), k=0, l=4, r=1.0)


# ---------------------------------------------------------------------------
# the stacked evaluation against the per-time definition


def _interp_reference(u, t):
    """u at time t from the definition: linear interpolation between the
    two samples around t, clamped into the sampled range."""
    t = min(max(t, u.t_min), u.t_max)
    i = min(max(int(np.searchsorted(u.times, t, side="right")) - 1, 0), len(u.times) - 2)
    w = (t - u.times[i]) / (u.times[i + 1] - u.times[i])
    return (1.0 - w) * u.values[i] + w * u.values[i + 1]


def _mollified_reference(u, eps, t):
    """The time rule (32 Gauss-Legendre nodes on [0, 1] weighted by the
    kernel's time density), one interpolated row per node, then the
    space taps."""
    z, w = np.polynomial.legendre.leggauss(32)
    s = (z + 1.0) / 2.0
    w = w * MollifierKernel(1).time_factor(s)
    w = w / w.sum()
    agg = np.zeros(u.grid.counts)
    for si, wi in zip(s, w):
        agg += wi * _interp_reference(u, t + eps.eps1 * si)
    return apply_taps(agg, *_space_taps(eps.eps2, u.grid.spacing[0]))


def _derivative_reference(u, eps, k, l, r, n_times=5):
    """derivative_bound_check from its definition: per centre, the k-th
    time difference of mollified rows, then the l-th space difference."""
    dt = eps.eps1 / 50.0
    centers = np.linspace(u.t_min + k * dt, u.t_max - eps.eps1 - k * dt, n_times)
    b = MollifierKernel(1).b(k, l - 1)
    best = (-np.inf, None, None)
    for t in centers:
        rows = np.stack(
            [_mollified_reference(u, eps, t + (j - k / 2.0) * dt) for j in range(k + 1)]
        )
        block = np.diff(rows, n=k, axis=0)[0] / dt**k
        block = np.diff(block, n=l) / u.grid.spacing[0] ** l
        measured = float(np.max(np.abs(block)))
        bound = r * b * eps.eps1 ** (-k) * eps.eps2 ** (1 - l)
        if measured / bound > best[0]:
            best = (measured / bound, measured, bound)
    return best[1], best[2]


def _uneven_trajectory():
    # uneven sample times, so that no output time falls on a sample grid
    g = _grid(301, 5.0)
    times = np.concatenate([[0.0], np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 23)), [1.0]])
    vals = np.sin(g.axes[0][None, :] * (1.0 + times[:, None])) + 3.0 * times[:, None]
    return SpaceTimeFunction(g, times, vals)


def _clt_trajectory():
    # criterion 10's trajectory: the capped payoff under the Gaussian
    # pair, 2^-6 steps on 4095 points
    g = Grid((-12.0,), (12.0,), (4095,))
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.0))
    ce = ScenarioConvexExpectation(
        (Scenario.gaussian((0.0,), 0.5), Scenario.gaussian((0.0,), 1.0))
    )
    return chernoff_iterate(StepOperator.from_clt(ce), f, 1.0, 2.0**-6, record=True)[1]


@pytest.mark.parametrize("build", [_uneven_trajectory, _clt_trajectory])
def test_mollify_matches_the_per_time_definition(build):
    u = build()
    eps = Epsilon.coupled(0.5, 1.0)
    tol = 1e-14 * max(1.0, float(np.max(np.abs(u.values))))
    out = mollify(u, eps)
    ref = np.stack([_mollified_reference(u, eps, t) for t in out.times])
    np.testing.assert_allclose(out.values, ref, rtol=0.0, atol=tol)
    # explicit times between samples, up to the last one with coverage
    times = [0.0, 0.05, 0.4, 0.41, 0.75]
    out = mollify(u, eps, times=times)
    ref = np.stack([_mollified_reference(u, eps, t) for t in times])
    np.testing.assert_allclose(out.values, ref, rtol=0.0, atol=tol)


# measured moves by roundoff only: the time difference is taken of the
# weight rows, before the space smoothing, where the reference takes it
# of the smoothed rows.  A second time difference with a third space
# difference amplifies the roundoff: up to 3.1e-6 relative on the
# clt_certify trajectories, where an extended-precision evaluation
# agrees with the stacked path to 1e-9 and with the reference to 3e-6
DERIVATIVE_RTOL = 1e-5


@pytest.mark.parametrize("build", [_uneven_trajectory, _clt_trajectory])
def test_derivative_bound_check_matches_the_per_time_definition(build):
    u = build()
    eps = Epsilon.coupled(0.5, 1.0)
    for k in (0, 1, 2):
        for l in (1, 2, 3):
            rep = derivative_bound_check(u, eps, k, l, 1.0)
            measured, bound = _derivative_reference(u, eps, k, l, 1.0)
            assert rep.bound == pytest.approx(bound, rel=1e-14), (k, l)
            assert rep.measured == pytest.approx(measured, rel=DERIVATIVE_RTOL), (k, l)
            assert rep.ok == (measured <= bound * (1.0 + rep.tol)), (k, l)


# ---------------------------------------------------------------------------
# bit for bit against the composition of full weight rows and one-row taps


def _row_by_row_weights(u, eps, t):
    """One time's weight row over all samples: the time rule on the rows
    of a 32-time ``interp_weights`` call."""
    s_nodes, s_weights = mollifier._time_rule()
    return s_weights @ u.interp_weights(t + eps.eps1 * s_nodes)


def _row_by_row_mollify(u, eps, times):
    """Every output time alone: its full weight row summed by ``einsum``
    over every sample, then one-row ``apply_taps`` in space."""
    taps = _space_taps(eps.eps2, u.grid.spacing[0])
    rows = [np.einsum("...j,jk->...k", _row_by_row_weights(u, eps, t), u.values) for t in times]
    return np.stack([apply_taps(row, *taps) for row in rows])


def _row_by_row_derivative(u, eps, k, l, r, n_times=5):
    """derivative_bound_check centre by centre: the k-th time difference
    of the full weight rows, one einsum row, one-row taps, then the l-th
    space difference."""
    taps = _space_taps(eps.eps2, u.grid.spacing[0])
    dt = eps.eps1 / 50.0
    centers = np.linspace(u.t_min + k * dt, u.t_max - eps.eps1 - k * dt, n_times)
    best = (-np.inf, None, None)
    for t in centers:
        stencil = np.stack(
            [_row_by_row_weights(u, eps, t + (j - k / 2.0) * dt) for j in range(k + 1)]
        )
        row = np.einsum("...j,jk->...k", np.diff(stencil, n=k, axis=0)[0] / dt**k, u.values)
        block = np.diff(apply_taps(row, *taps), n=l) / u.grid.spacing[0] ** l
        measured = float(np.max(np.abs(block)))
        bound = r * MollifierKernel(1).b(k, l - 1) * eps.eps1 ** (-k) * eps.eps2 ** (1 - l)
        if measured / bound > best[0]:
            best = (measured / bound, measured, bound)
    return best[1], best[2]


@pytest.mark.parametrize("build", [_uneven_trajectory, _clt_trajectory])
def test_mollify_is_the_row_by_row_composition_bit_for_bit(build):
    u = build()
    eps = Epsilon.coupled(0.5, 1.0)
    out = mollify(u, eps)
    np.testing.assert_array_equal(out.values, _row_by_row_mollify(u, eps, out.times))
    # explicit times, more than one block of them, the last block short
    times = np.linspace(0.0, 0.75, 4 * mollifier._STACK + 3)
    out = mollify(u, eps, times=times)
    np.testing.assert_array_equal(out.values, _row_by_row_mollify(u, eps, times))


@pytest.mark.parametrize("build", [_uneven_trajectory, _clt_trajectory])
def test_derivative_bound_check_is_the_row_by_row_composition_bit_for_bit(build):
    u = build()
    eps = Epsilon.coupled(0.5, 1.0)
    for k in (0, 1, 2):
        for l in (1, 2, 3):
            rep = derivative_bound_check(u, eps, k, l, 1.0)
            assert (rep.measured, rep.bound) == _row_by_row_derivative(u, eps, k, l, 1.0), (k, l)
    # more centres than one stack holds
    rep = derivative_bound_check(u, eps, 1, 2, 1.0, n_times=2 * mollifier._STACK + 1)
    expected = _row_by_row_derivative(u, eps, 1, 2, 1.0, n_times=2 * mollifier._STACK + 1)
    assert (rep.measured, rep.bound) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_banded_combine_is_the_full_einsum_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    g = _grid(301, 5.0)
    u = SpaceTimeFunction(g, np.linspace(0.0, 1.0, 40), rng.normal(size=(40, 301)) * 10.0)
    weights = rng.normal(size=(12, 40))
    for row in weights:  # a run of zeros before and after, some inside
        lo, hi = sorted(rng.integers(0, 41, 2))
        row[:lo] = 0.0
        row[hi:] = 0.0
        row[rng.integers(0, 40, 3)] = 0.0
    weights[3] = 0.0  # an all-zero row
    weights[5, :-1] = 0.0  # only the last sample
    weights[7, 1:] = 0.0  # only the first sample
    got = mollifier._combine(weights, u)
    np.testing.assert_array_equal(got, np.einsum("...j,jk->...k", weights, u.values))
    for row, w in zip(got, weights):
        np.testing.assert_array_equal(row, np.einsum("...j,jk->...k", w, u.values))


def test_mollify_asks_interp_weights_for_at_most_its_block(monkeypatch):
    # 300 output times on a trajectory of 200 samples: one call for all
    # of them would be 300 * 32 * 200 weights (15 MB)
    g = _grid(101, 5.0)
    times = np.linspace(0.0, 1.0, 200)
    u = SpaceTimeFunction(g, times, np.cos(g.axes[0][None, :] + times[:, None]))
    real, asked = SpaceTimeFunction.interp_weights, []

    def recorded(self, t):
        asked.append(np.size(t) * len(self.times) * 8)
        return real(self, t)

    monkeypatch.setattr(SpaceTimeFunction, "interp_weights", recorded)
    eps = Epsilon(0.1, 0.5)
    out = mollify(u, eps, times=np.linspace(0.0, 0.9, 300))
    assert len(asked) > 1 and max(asked) <= mollifier._INTERP_BYTES
    monkeypatch.undo()
    np.testing.assert_array_equal(out.values, _row_by_row_mollify(u, eps, out.times))
    # the stencil times of derivative_bound_check are blocked alike
    asked.clear()
    monkeypatch.setattr(SpaceTimeFunction, "interp_weights", recorded)
    derivative_bound_check(u, eps, 2, 1, 1.0, n_times=40)
    assert len(asked) > 1 and max(asked) <= mollifier._INTERP_BYTES
