import math

import numpy as np
import pytest

from chernoff.core import DomainError, Grid, GridFunction, SpaceTimeFunction
from chernoff.iterate import StepOperator, chernoff_iterate
from chernoff.mollifier import (
    Epsilon,
    MollifierKernel,
    _bump_deriv_l1,
    _bump_mass,
    _bump_poly,
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
    assert MollifierKernel(2).b(0, 0) == pytest.approx(1.0, abs=1e-8)


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
    for d in (1, 2):
        kern = MollifierKernel(d)
        for k in range(3):
            for l in range(4):
                time_part = 2.0**k * l1[k] / mass
                best = 0.0
                alphas = [(l,)] if d == 1 else [(a, l - a) for a in range(l + 1)]
                for alpha in alphas:
                    part = 1.0
                    for j in alpha:
                        part *= d ** (j / 2.0) * l1[j] / mass
                    best = max(best, part)
                assert kern.b(k, l) == pytest.approx(time_part * best, abs=1e-6), (
                    d,
                    k,
                    l,
                )


def test_kernel_constant_rejects_large_orders():
    k = MollifierKernel(1)
    with pytest.raises(DomainError):
        kernel_constant(k, 3, 0)
    with pytest.raises(DomainError):
        kernel_constant(k, 0, 4)


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
