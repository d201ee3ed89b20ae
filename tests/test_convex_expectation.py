import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from chernoff.core import DomainError, Grid, GridFunction
from chernoff.convex_expectation import (
    Scenario,
    ScenarioConvexExpectation,
    _C_GRID,
    _lower_hull,
    _tilted_window_max,
    clt_step,
    g_function,
    growth_certificate,
    lln_step,
    load_scenarios,
    maximally_distributed_limit,
    parse_scenarios,
)


def sublinear_pair(s1=0.5, s2=1.0):
    return ScenarioConvexExpectation(
        (Scenario.gaussian(0.0, s1), Scenario.gaussian(0.0, s2))
    )


def two_point(m=1.0):
    return ScenarioConvexExpectation(
        (Scenario.point(-m), Scenario.point(m))
    )


def grid1d(n=801, half=8.0):
    return Grid((-half,), (half,), (n,))


# ---------------------------------------------------------------------------
# scalar functional


def test_cexp_eval_zero_payoff():
    assert sublinear_pair().evaluate(lambda x: np.zeros_like(x)) == 0.0


def test_cexp_eval_gaussian_second_moment():
    val = sublinear_pair(0.5, 1.0).evaluate(lambda x: x**2)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_cexp_eval_penalized_enumeration():
    ce = ScenarioConvexExpectation(
        (Scenario.point(1.0), Scenario.point(-1.0, penalty=0.5))
    )
    assert ce.evaluate(lambda x: x) == pytest.approx(1.0)


def test_cexp_eval_quadrature_doubles_stably():
    ce = sublinear_pair()
    value = ce.evaluate(lambda x: np.abs(x) ** 3)
    exact = 2.0 * math.sqrt(2.0 / math.pi)  # E|Z|^3 for the unit Gaussian
    assert value == pytest.approx(exact, rel=1e-3)


def test_min_penalty_must_vanish():
    with pytest.raises(DomainError):
        ScenarioConvexExpectation((Scenario.point(0.0, penalty=0.5),))


def test_translation_identity_and_monotonicity():
    ce = ScenarioConvexExpectation(
        (Scenario.gaussian(0.0, 1.0), Scenario.point(0.5, penalty=0.3))
    )
    base = ce.evaluate(lambda x: np.cos(x))
    shifted = ce.evaluate(lambda x: np.cos(x) + 2.5)
    assert shifted == pytest.approx(base + 2.5, abs=1e-12)
    low = ce.evaluate(lambda x: np.cos(x) - 1.0)
    assert low <= base


def test_convexity_in_the_payoff():
    ce = ScenarioConvexExpectation(
        (Scenario.gaussian(0.0, 1.0), Scenario.discrete([-1.0, 2.0], [0.5, 0.5], 0.7))
    )
    rng = np.random.default_rng(5)
    for _ in range(25):
        a, b, c = rng.normal(size=3)
        f = lambda x: a * x + b * np.tanh(x) + c
        g = lambda x: b * x**2 / (1 + x**2) + a
        for w in (0.0, 0.3, 0.8, 1.0):
            mix = ce.evaluate(lambda x: w * f(x) + (1 - w) * g(x))
            assert mix <= w * ce.evaluate(f) + (1 - w) * ce.evaluate(g) + 1e-11


def test_scaling_inequality_for_small_lambda():
    # convex functionals: Phi(x) - Phi(y) <= lam (Phi((x-y)/lam + y) - Phi(y))
    ce = ScenarioConvexExpectation(
        (Scenario.gaussian(0.0, 1.0), Scenario.point(1.0, penalty=0.4))
    )
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b = rng.normal(size=2)
        x = lambda t: a * np.sin(t)
        y = lambda t: b * np.cos(t)
        for lam in (0.1, 0.5, 1.0):
            lhs = ce.evaluate(x) - ce.evaluate(y)
            inner = ce.evaluate(lambda t: (x(t) - y(t)) / lam + y(t))
            rhs = lam * (inner - ce.evaluate(y))
            assert lhs <= rhs + 1e-11


def test_finite_mixture_jensen():
    ce = ScenarioConvexExpectation(
        (Scenario.gaussian(0.0, 0.7), Scenario.point(-0.5, penalty=0.2))
    )
    rng = np.random.default_rng(2)
    payoffs = [
        (lambda x, s=s: np.sin(s * x) + s) for s in rng.uniform(0.5, 2.0, size=4)
    ]
    w = rng.dirichlet(np.ones(4))
    mixed = ce.evaluate(lambda x: sum(wi * p(x) for wi, p in zip(w, payoffs)))
    assert mixed <= sum(wi * ce.evaluate(p) for wi, p in zip(w, payoffs)) + 1e-11


# ---------------------------------------------------------------------------
# grid steps


def test_lln_step_identity_and_errors():
    g = grid1d(101)
    f = GridFunction.from_callable(g, np.cos)
    assert lln_step(two_point(), f, 0.0) is f
    with pytest.raises(DomainError):
        lln_step(two_point(), f, -0.1)


def test_lln_step_pure_transport():
    g = grid1d(161, 8.0)  # spacing 0.1
    f = GridFunction.from_callable(g, lambda x: np.sin(x))
    ce = ScenarioConvexExpectation((Scenario.point(2.0),))
    out = lln_step(ce, f, 0.25)  # shift 0.5, an exact grid multiple
    inner = slice(0, 161 - 5)
    np.testing.assert_allclose(out.values[inner], f.values[5:], atol=1e-14)


def test_lln_step_two_point_abs_value():
    g = grid1d(1601, 8.0)
    f = GridFunction.from_callable(g, np.abs)
    out = lln_step(two_point(1.0), f, 0.1)
    x0 = 800  # x = 0
    assert out.values[x0] == pytest.approx(0.1, abs=1e-12)


def test_clt_step_linear_case_matches_heat():
    g = grid1d(2401, 12.0)
    f = GridFunction.from_callable(g, np.cos)
    ce = ScenarioConvexExpectation((Scenario.gaussian(0.0, 1.0),))
    out = clt_step(ce, f, 0.49)
    expected = np.exp(-0.49 / 2) * f.values
    interior = g.interior_mask(7.0)
    np.testing.assert_allclose(out.values[interior], expected[interior], atol=1e-9)


def test_clt_step_sublinear_pair_on_convex_payoff():
    g = grid1d(2401, 12.0)
    f = GridFunction.from_callable(g, np.abs)
    ce = sublinear_pair(0.5, 1.0)
    pair = clt_step(ce, f, 0.36)
    single = clt_step(ScenarioConvexExpectation((Scenario.gaussian(0.0, 1.0),)), f, 0.36)
    interior = g.interior_mask(7.0)
    np.testing.assert_allclose(
        pair.values[interior], single.values[interior], atol=1e-9
    )


def test_step_structural_properties():
    g = grid1d(801, 8.0)
    rng = np.random.default_rng(0)
    vals = np.cumsum(rng.uniform(-0.01, 0.01, 801))
    f = GridFunction(g, vals)
    h = GridFunction(g, vals + rng.uniform(0, 0.2, 801))
    ce = ScenarioConvexExpectation(
        (Scenario.gaussian(0.0, 1.0), Scenario.discrete([-1.0, 1.0], [0.5, 0.5], 0.3))
    )
    sf, sh = clt_step(ce, f, 0.2), clt_step(ce, h, 0.2)
    assert np.all(sf.values <= sh.values + 1e-13)  # monotone
    zero = clt_step(ce, GridFunction(g, np.zeros(801)), 0.2)
    np.testing.assert_allclose(zero.values, 0.0, atol=1e-13)  # maps 0 to 0
    assert sf.sup_norm <= f.sup_norm + 1e-13  # sup-norm contraction
    assert sf.lipschitz <= f.lipschitz * (1 + 1e-9) + 1e-13  # Lipschitz propagation
    # convexity in the input
    for w in (0.25, 0.6):
        mix = clt_step(ce, f * w + h * (1 - w), 0.2)
        assert np.all(mix.values <= w * sf.values + (1 - w) * sh.values + 1e-12)


# ---------------------------------------------------------------------------
# maximally distributed limit


def test_limit_single_point_mass():
    g = grid1d(801, 8.0)
    f = GridFunction.from_callable(g, lambda x: np.sin(x))
    ce = ScenarioConvexExpectation((Scenario.point(1.5),))
    out = maximally_distributed_limit(ce, f)
    interior = g.interior_mask(2.0)
    np.testing.assert_allclose(
        out.values[interior],
        np.sin(g.axes[0][interior] + 1.5),
        atol=1e-12,
    )


def test_limit_sublinear_two_point_is_local_max():
    g = grid1d(1601, 8.0)
    f = GridFunction.from_callable(g, lambda x: np.exp(-(x**2)))
    out = maximally_distributed_limit(two_point(1.0), f)
    # oracle: dense brute force over |y| <= 1
    ys = np.linspace(-1.0, 1.0, 20001)
    oracle = np.max(
        np.exp(-((g.axes[0][:, None] + ys[None, :]) ** 2)), axis=1
    )
    interior = g.interior_mask(1.5)
    np.testing.assert_allclose(out.values[interior], oracle[interior], atol=5e-4)


def test_limit_penalized_pair_envelope():
    g = grid1d(1601, 8.0)
    f = GridFunction.from_callable(g, lambda x: np.exp(-((x - 0.5) ** 2)))
    ce = ScenarioConvexExpectation(
        (Scenario.point(0.0), Scenario.point(1.0, penalty=1.0))
    )
    out = maximally_distributed_limit(ce, f)
    # oracle: the conjugate of max(0, z - 1) restricted to slopes [0, 1]
    # is phi(y) = y on [0, 1], +inf outside
    ys = np.linspace(0.0, 1.0, 20001)
    vals = np.exp(-((g.axes[0][:, None] + ys[None, :] - 0.5) ** 2)) - ys[None, :]
    oracle = np.max(vals, axis=1)
    interior = g.interior_mask(1.5)
    np.testing.assert_allclose(out.values[interior], oracle[interior], atol=5e-4)


def _point_model(means, penalties):
    return ScenarioConvexExpectation(
        tuple(Scenario.point(m, penalty=a) for m, a in zip(means, penalties))
    )


def _random_1d_models(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 6))
        pens = rng.uniform(0.0, 2.0, k)
        pens[rng.integers(k)] = 0.0
        yield _point_model(rng.uniform(-3.0, 3.0, k), pens)


def _means_and_penalties(ce):
    return (np.array([s.mean for s in ce.scenarios]),
            np.array([s.penalty for s in ce.scenarios]))


def _linprog_phi(ce, y):
    """min sum l_i alpha_i over weights l >= 0 with sum l_i = 1, sum l_i m_i = y."""
    means, pens = _means_and_penalties(ce)
    res = linprog(pens, A_eq=np.vstack([means.T, np.ones(len(pens))]),
                  b_eq=np.append(y, 1.0), bounds=(0.0, None), method="highs")
    assert res.status == 0
    return res.fun


def test_phi_matches_linprog_on_the_hull():
    models = list(_random_1d_models(40, seed=17))
    models += [
        _point_model([0.0, 0.1], [0.0, 2.0]),
        _point_model([0.4], [0.0]),
        _point_model([0.4, 0.4, 0.4], [1.0, 0.0, 0.5]),
        _point_model([-0.5, 0.3, 0.3, 0.8], [0.0, 1.2, 0.4, 0.9]),
    ]
    rng = np.random.default_rng(11)
    g = grid1d(81, 4.0)
    f = GridFunction.from_callable(g, np.cos)
    for ce in models:
        means, _ = _means_and_penalties(ce)
        phi, _ = _lower_hull(ce)
        ys = np.concatenate([means, rng.dirichlet(np.ones(len(means)), 10) @ means])
        expected = [_linprog_phi(ce, y) for y in ys]
        np.testing.assert_allclose(phi(ys), expected, rtol=0, atol=1e-12)
        assert np.all(phi(np.array([means.min() - 0.1, means.max() + 0.1])) == np.inf)
        assert np.all(np.isfinite(maximally_distributed_limit(ce, f).values))


def _phi_1d(means, pens, ys):
    """The lower convex envelope in 1D: the least chord over the pairs of
    means that bracket y, +inf where none does."""
    best = np.full(len(ys), np.inf)
    for (a, pa), (b, pb) in itertools.product(zip(means, pens), repeat=2):
        inside = (a <= ys) & (ys <= b)
        chord = pa + (pb - pa) * (ys - a) / (b - a) if b > a else np.full(len(ys), pa)
        best[inside] = np.minimum(best[inside], chord[inside])
    return best


def _sup_over(grid, f, ys, costs):
    values = np.full(grid.size, -np.inf)
    for y, cost in zip(ys, costs):
        # the linear interpolant of f, constant past the grid
        values = np.maximum(values, np.interp(grid.axes[0] + y, grid.axes[0], f.values) - cost)
    return values


@pytest.mark.parametrize(
    "grid, ce",
    [
        pytest.param(grid1d(401, 4.0), next(_random_1d_models(1, seed=3)), id="1d"),
        # means beyond the box: every shift reads the constant extension
        pytest.param(grid1d(201, 2.0), _point_model([-3.0, 2.5], [0.0, 0.4]), id="1d-past-edge"),
        # a steep piece over a wide grid: a tilt anchored once per row
        # reaches slope * n, about 960, and loses more than the tolerance
        pytest.param(grid1d(4095, 12.0), _point_model([0.0, 0.05], [0.0, 2.0]), id="1d-wide-steep"),
    ],
)
def test_limit_matches_interpolated_shifts(grid, ce):
    f = GridFunction.from_callable(grid, lambda x: np.sin(2.0 * x) + 0.3 * x)
    out = maximally_distributed_limit(ce, f).values
    tol = 1e-14 * max(1.0, f.sup_norm)
    m, pens = _means_and_penalties(ce)
    dx = grid.spacing[0]
    # the breakpoints in y: whole-cell shifts in the hull and the means
    cells = np.arange(np.ceil(m.min() / dx), np.floor(m.max() / dx) + 1) * dx
    ys = np.concatenate([cells, m])
    x = grid.axes[0]
    costs = _phi_1d(m, pens, ys)
    exact = np.max(
        [np.interp(x + y, x, f.values) - c for y, c in zip(ys, costs) if np.isfinite(c)],
        axis=0,
    )
    np.testing.assert_allclose(out, exact, rtol=0, atol=tol)
    dense = np.linspace(m.min(), m.max(), 2001)
    assert np.all(out >= _sup_over(grid, f, dense, _phi_1d(m, pens, dense)) - tol)


def _padded_limit(ce, f):
    """The limit as it was computed on one ``np.pad(..., mode="edge")``
    copy of f, with each explicit candidate's slices written out."""
    grid = f.grid
    phi, vertices = _lower_hull(ce)
    dx = grid.spacing[0]
    cells = np.arange(np.floor(vertices[0] / dx), np.ceil(vertices[-1] / dx) + 1)
    t = np.unique(np.concatenate([vertices / dx, cells]))
    cost = phi(t * dx)
    t, cost = t[np.isfinite(cost)], cost[np.isfinite(cost)]
    cell = np.floor(t)
    pad = int(np.max(np.abs(cell))) + 1
    padded = np.pad(f.values, pad, mode="edge")
    n = grid.size
    out = np.full(n, -np.inf)
    ends = vertices / dx
    pieces = [(t == cell) & (t >= a) & (t <= b) for a, b in zip(ends[:-1], ends[1:])]
    spread = float(np.max(f.values)) - float(np.min(f.values))
    for piece in pieces:
        kept = piece & (cost <= spread)
        if not kept.any():
            continue
        shifts, costs = t[kept], cost[kept]
        width = int(shifts[-1] - shifts[0]) + 1
        slope = (costs[-1] - costs[0]) / (width - 1) if width > 1 else 0.0
        start = int(shifts[0]) + pad
        best = _tilted_window_max(padded[start : start + n + width - 1], width, slope, n)
        np.maximum(out, best - costs[0], out=out)
    explicit = ~np.any(pieces, axis=0) if pieces else np.ones(t.size, dtype=bool)
    for start, w, c in zip(cell[explicit].astype(int) + pad, (t - cell)[explicit], cost[explicit]):
        w, c = float(w), float(c)
        if w:
            shifted = padded[start : start + n] * (1.0 - w)
            shifted += w * padded[start + 1 : start + 1 + n]
            shifted -= c
        else:
            shifted = padded[start : start + n] - c
        np.maximum(out, shifted, out=out)
    return out


@pytest.mark.parametrize(
    "grid, models",
    [
        pytest.param(grid1d(513, 4.0), list(_random_1d_models(40, seed=29)), id="random-513"),
        pytest.param(grid1d(4095, 12.0), list(_random_1d_models(40, seed=31)), id="random-4095"),
        pytest.param(grid1d(201, 2.0), [_point_model([-3.0, 2.5], [0.0, 0.4])], id="1d-past-edge"),
        pytest.param(
            grid1d(4095, 12.0), [_point_model([0.0, 0.05], [0.0, 2.0])], id="1d-wide-steep"
        ),
    ],
)
def test_limit_is_the_edge_padded_sup_bit_for_bit(grid, models):
    # the steps' clamped window gives the bits of an edge-padded copy of f
    f = GridFunction.from_callable(grid, lambda x: np.sin(2.0 * x) + 0.3 * x)
    for ce in models:
        assert np.array_equal(maximally_distributed_limit(ce, f).values, _padded_limit(ce, f))


def test_limit_keeps_each_shift_whose_cost_is_below_the_oscillation():
    # a unit step and phi(y) = 50 y on [0, 1]: left of the step the sup
    # reaches it at a cost up to 1, the oscillation of f, and no further
    g = grid1d(2001, 4.0)
    x, dx = g.axes[0], g.spacing[0]
    f = GridFunction(g, np.clip((x - 0.5) / dx, 0.0, 1.0))
    out = maximally_distributed_limit(_point_model([0.0, 1.0], [0.0, 50.0]), f).values
    # the whole-cell shifts k dx, y = 1 among them, read by clipped index
    i = np.arange(g.size)
    exact = np.max(
        [f.values[np.minimum(i + k, g.size - 1)] - 50.0 * k * dx for k in range(round(1 / dx) + 1)],
        axis=0,
    )
    np.testing.assert_allclose(out, exact, rtol=0, atol=1e-14)
    # a point left of the step gains 0.2 at the cost 0.8
    assert np.any((f.values == 0.0) & (out > 0.0) & (out < 0.25))


@pytest.mark.parametrize("width", [1, 2, 7, 64, 65, 90])
@pytest.mark.parametrize("slope", [0.0, 0.3, -2.0])
def test_the_tilted_window_max_is_the_max_over_each_window(width, slope):
    # every window of every width, a block edge or not, against the loop
    count = 65
    values = np.random.default_rng(width).normal(size=count + width - 1) * 3.0
    expected = [np.max(values[s : s + width] - slope * np.arange(width)) for s in range(count)]
    got = _tilted_window_max(values, width, slope, count)
    assert got.shape == (count,)
    # the block-anchored tilt rounds at most about |slope| * width
    tol = 4e-16 * (np.max(np.abs(values)) + abs(slope) * width)
    np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


def test_limit_close_means_with_a_steep_penalty():
    # means 0 and 0.1 with penalties 0 and 2: phi(y) = 20 y on [0, 0.1]
    g = grid1d(801, 4.0)
    f = GridFunction.from_callable(g, lambda x: 25.0 * np.minimum(np.abs(x), 1.0))
    out = maximally_distributed_limit(_point_model([0.0, 0.1], [0.0, 2.0]), f)
    x = g.axes[0]
    ys = np.linspace(0.0, 0.1, 2001)
    oracle = np.max(np.interp(x[:, None] + ys[None, :], x, f.values) - 20.0 * ys, axis=1)
    # (Lip f + slope of phi) times the oracle's own y step
    tol = (25.0 + 20.0) * 0.1 / 2000
    assert np.max(np.abs(out.values - oracle)) <= tol
    # slope 25 beats 20, so the sup leaves y = 0: f(x + 0.1) - 2 = f(x) + 0.5
    assert np.max(out.values - f.values) == pytest.approx(0.5, abs=tol)


# ---------------------------------------------------------------------------
# quadratic functional and growth certificate


def test_g_function_examples():
    assert g_function(sublinear_pair(0.5, 1.0), 0.0) == 0.0
    assert g_function(sublinear_pair(0.5, 1.0), 2.0) == pytest.approx(1.0)
    pm = ScenarioConvexExpectation(
        (Scenario.discrete([-1.0, 1.0], [0.5, 0.5]),)
    )
    assert g_function(pm, 1.0) == pytest.approx(0.5)


def test_g_function_requires_zero_mean():
    ce = ScenarioConvexExpectation((Scenario.point(1.0),))
    with pytest.raises(DomainError):
        g_function(ce, 1.0)


def test_growth_certificate_sublinear():
    cert = growth_certificate(sublinear_pair())
    assert cert.p == 1.0
    assert cert.a == pytest.approx(1.0, rel=1e-9)
    assert sublinear_pair().is_sublinear


def test_growth_certificate_single_scenario():
    ce = ScenarioConvexExpectation((Scenario.gaussian(0.0, 0.8),))
    cert = growth_certificate(ce)
    assert cert.p == 1.0
    assert cert.a == pytest.approx(1.0, rel=1e-9)


def test_growth_certificate_penalized_pair():
    ce = ScenarioConvexExpectation(
        (
            Scenario.discrete([-1.0, 1.0], [0.5, 0.5]),
            Scenario.gaussian(0.0, 1.0, penalty=0.5),
        )
    )
    cert = growth_certificate(ce)
    assert cert.p >= 1.0
    assert np.isfinite(cert.a)
    # spot-check the certified inequality on an off-grid lambda
    lam = 7.3
    for c1, c2 in _C_GRID[:3]:
        lhs = ce.abs_moment_combination({2: lam * c1, 3: lam * c2})
        rhs = cert.a * lam**cert.p * ce.abs_moment_combination({2: c1, 3: c2})
        assert lhs <= rhs * (1 + 1e-9)


def test_growth_certificate_failure_mode():
    # zero-penalty scenario sits at the origin: E[g] = 0 but E[lambda g] > 0
    ce = ScenarioConvexExpectation(
        (Scenario.point(0.0), Scenario.point(1.0, penalty=1.0))
    )
    with pytest.raises(DomainError):
        growth_certificate(ce)


# ---------------------------------------------------------------------------
# scenario files


def test_scenario_roundtrip(tmp_path):
    payload = [
        {"type": "gaussian", "mean": 0.0, "sigma": 0.5, "penalty": 0.0},
        {"type": "discrete", "atoms": [-1.0, 1.0], "weights": [0.5, 0.5], "penalty": 0.25},
    ]
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(payload))
    ce = load_scenarios(path)
    assert len(ce.scenarios) == 2
    assert ce.scenarios[0].sigma == 0.5
    assert ce.scenarios[1].penalty == 0.25


def test_scenario_errors_name_the_problem(tmp_path):
    with pytest.raises(DomainError, match="scenario 0.*type"):
        parse_scenarios([{"mean": 0.0}])
    with pytest.raises(DomainError, match="scenario 1.*missing field 'sigma'"):
        parse_scenarios(
            [{"type": "point", "mean": 0.0}, {"type": "gaussian", "mean": 0.0}]
        )
    with pytest.raises(DomainError, match="scenario 0"):
        parse_scenarios(
            [{"type": "discrete", "atoms": [0.0, 1.0], "weights": [0.9, 0.9]}]
        )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DomainError, match="invalid JSON"):
        load_scenarios(bad)


@pytest.mark.parametrize(
    "entry, problem",
    [
        ({"type": "gaussian", "mean": 0.0, "sigma": float("nan")}, "finite sigma"),
        ({"type": "gaussian", "mean": 0.0, "sigma": float("inf")}, "finite sigma"),
        ({"type": "discrete", "atoms": [0.0, 1.0], "weights": [float("nan"), 1.0]}, "finite"),
        ({"type": "discrete", "atoms": [0.0, 1.0], "weights": [float("inf"), 1.0]}, "finite"),
    ],
    ids=["sigma-nan", "sigma-inf", "weight-nan", "weight-inf"],
)
def test_a_non_finite_scenario_field_names_the_scenario(entry, problem, tmp_path):
    # json reads NaN and Infinity, so a scenario file can hold them
    path = tmp_path / "scen.json"
    path.write_text(json.dumps([{"type": "point", "mean": 0.0}, entry]))
    with pytest.raises(DomainError, match=f"scenario 1: .*{problem}"):
        load_scenarios(path)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Scenario.point((0.0, 1.0)), "mean"),
        (lambda: Scenario.gaussian((0.0, 1.0), 0.5), "mean"),
        (lambda: Scenario.discrete([(0.0, 1.0), (1.0, 0.0)], [0.5, 0.5]), "atoms"),
    ],
    ids=["point", "gaussian", "discrete"],
)
def test_two_entry_locations_are_rejected_naming_the_field(build, field):
    with pytest.raises(DomainError, match=f"scenario {field} must be a number or a one-entry"):
        build()


def test_one_entry_locations_are_the_line():
    assert Scenario.point((0.25,)) == Scenario.point(0.25)
    assert Scenario.gaussian([0.25], 0.5).mean == 0.25


def test_scenario_file_with_a_two_entry_mean_is_rejected(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps([{"type": "point", "mean": [0, 1]}]))
    with pytest.raises(DomainError, match="scenario 0: scenario mean must be a number"):
        load_scenarios(path)
