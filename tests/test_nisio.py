import math

import numpy as np
import pytest

from chernoff.core import DomainError, Grid, GridFunction
from chernoff.nisio import (
    GeneratorBounds,
    NisioFamily,
    generator_apply,
    nisio_step,
)
from chernoff.reference import heat_exact


def grid1d(n=2401, half=12.0):
    return Grid((-half,), (half,), (n,))


GHEAT = NisioFamily(((0.5, 0.0), (1.0, 0.0)))


def test_family_validation():
    with pytest.raises(DomainError):
        NisioFamily(())
    with pytest.raises(DomainError):
        NisioFamily(((-0.5, 0.0),))
    fam = NisioFamily(((0.5, -1.0), (1.0, 2.0)))
    assert fam.sigma_max == 1.0
    assert fam.drift_max == 2.0


def test_generator_bounds_constant_coefficients():
    gb = GeneratorBounds.for_constant_coefficients(((0.5, -1.0), (1.0, 2.0)))
    assert gb.first_order == 2.0
    assert gb.second_order == 0.5
    assert gb.lipschitz_caps == (0.0, 2.0, 0.5)
    # (1/2 s^2 D^2 + m D)^2 = 1/4 s^4 D^4 + s^2 m D^3 + m^2 D^2
    assert gb.squared_caps == (0.0, 4.0, 2.0, 0.25)
    assert gb.smooth
    plain = GeneratorBounds.for_constant_coefficients(((1.0, 0.0),), smooth=False)
    assert not plain.smooth


def test_linear_step_martingale_and_moments():
    g = grid1d()
    x = GridFunction.from_callable(g, lambda v: v)
    out = heat_exact(x, 1.0, 0.0, 0.5, cut=8.0)
    interior = g.interior_mask(6.0)
    np.testing.assert_allclose(out.values[interior], x.values[interior], atol=1e-9)
    sq = GridFunction.from_callable(g, lambda v: v * v)
    out2 = heat_exact(sq, 1.0, 0.0, 0.5, cut=8.0)
    np.testing.assert_allclose(
        out2.values[interior], sq.values[interior] + 0.5, atol=1e-8
    )


def test_linear_step_cos_eigenfunction():
    g = grid1d()
    f = GridFunction.from_callable(g, np.cos)
    out = heat_exact(f, 1.0, 0.0, 1.0, cut=8.0)
    interior = g.interior_mask(9.0)
    np.testing.assert_allclose(
        out.values[interior], math.exp(-0.5) * f.values[interior], atol=1e-9
    )


def test_nisio_step_identity_and_errors():
    g = grid1d(101)
    f = GridFunction.from_callable(g, np.cos)
    assert nisio_step(GHEAT, f, 0.0) is f
    with pytest.raises(DomainError):
        nisio_step(GHEAT, f, -1.0)


def test_nisio_step_pure_transport():
    g = grid1d(241, 12.0)  # spacing 0.1
    f = GridFunction.from_callable(g, np.sin)
    fam = NisioFamily(((0.0, 1.0),))
    out = nisio_step(fam, f, 0.5)  # shift 0.5 = 5 cells
    np.testing.assert_allclose(out.values[:-5], f.values[5:], atol=1e-14)


def test_nisio_step_convex_payoff_picks_largest_sigma():
    g = grid1d(4001, 12.0)
    f = GridFunction.from_callable(g, np.abs)
    out = nisio_step(GHEAT, f, 1.0)
    at_zero = out.values[2000]
    # spacing 0.006: the kink at 0 leaves a ~dx^2 quadrature residue
    assert at_zero == pytest.approx(math.sqrt(2.0 / math.pi), abs=2e-5)
    single = heat_exact(f, 1.0, 0.0, 1.0, cut=8.0)
    interior = g.interior_mask(9.0)
    np.testing.assert_allclose(
        out.values[interior], single.values[interior], atol=1e-9
    )


def test_nisio_step_dominates_members():
    g = grid1d(1201, 12.0)
    rng = np.random.default_rng(3)
    f = GridFunction(g, np.cumsum(rng.uniform(-0.02, 0.02, 1201)))
    out = nisio_step(GHEAT, f, 0.3)
    for s, m in GHEAT.controls:
        member = heat_exact(f, s, m, 0.3, cut=8.0)
        assert np.all(out.values >= member.values - 1e-12)


def test_structural_properties():
    g = grid1d(801, 8.0)
    rng = np.random.default_rng(7)
    base = np.cumsum(rng.uniform(-0.01, 0.01, 801))
    f = GridFunction(g, base)
    h = GridFunction(g, base + rng.uniform(0.0, 0.1, 801))
    sf, sh = nisio_step(GHEAT, f, 0.2), nisio_step(GHEAT, h, 0.2)
    assert np.all(sf.values <= sh.values + 1e-13)
    zero = nisio_step(GHEAT, GridFunction(g, np.zeros(801)), 0.2)
    np.testing.assert_allclose(zero.values, 0.0, atol=0.0)
    assert np.max(np.abs(sf.values - sh.values)) <= np.max(np.abs(f.values - h.values)) + 1e-13
    assert sf.lipschitz <= f.lipschitz * (1 + 1e-9) + 1e-13
    for w in (0.3, 0.75):
        mix = nisio_step(GHEAT, f * w + h * (1 - w), 0.2)
        assert np.all(mix.values <= w * sf.values + (1 - w) * sh.values + 1e-12)


def test_translation_invariance_on_lattice():
    g = grid1d(801, 8.0)
    f = GridFunction.from_callable(g, lambda x: np.sin(2 * x))
    shift = 10  # cells
    shifted_in = GridFunction(g, np.roll(f.values, shift))
    a = nisio_step(GHEAT, shifted_in, 0.05)
    b = GridFunction(g, np.roll(nisio_step(GHEAT, f, 0.05).values, shift))
    # keep clear of the rolled-in wrap plus the full kernel reach
    inner = np.zeros(801, dtype=bool)
    inner[210:-210] = True
    np.testing.assert_allclose(a.values[inner], b.values[inner], atol=1e-12)


def test_generator_apply_examples():
    g = grid1d(801, 8.0)
    const = GridFunction(g, np.full(801, 2.5))
    vals, interior = generator_apply(NisioFamily(((1.0, 0.0),)), const)
    np.testing.assert_allclose(vals.values[interior], 0.0, atol=1e-9)
    sq = GridFunction.from_callable(g, lambda v: v * v)
    vals, interior = generator_apply(NisioFamily(((1.0, 0.0),)), sq)
    np.testing.assert_allclose(vals.values[interior], 1.0, atol=1e-7)
    lin = GridFunction.from_callable(g, lambda v: v)
    fam = NisioFamily(((0.0, -1.0), (0.0, 1.0)))
    vals, interior = generator_apply(fam, lin)
    np.testing.assert_allclose(vals.values[interior], 1.0, atol=1e-9)


@pytest.mark.parametrize("n", [4, 5, 64, 513])
def test_generator_apply_is_the_clipped_index_stencil(n):
    # every entry, both ends included, reads its neighbours at clipped
    # indices, the same arithmetic in the same order
    g = Grid((-3.0,), (2.0,), (n,))
    f = GridFunction.from_callable(g, lambda v: np.sin(3.0 * v) + v * v)
    fam = NisioFamily(((0.5, -1.0), (1.0, 2.0), (0.8, 0.3)))
    vals, interior = generator_apply(fam, f)
    i = np.arange(n)
    up, down, u = f.values[np.minimum(i + 1, n - 1)], f.values[np.maximum(i - 1, 0)], f.values
    dx = g.spacing[0]
    lap = (up - 2 * u + down) / (dx * dx)
    slope = (up - down) / (2 * dx)
    expected = np.max([0.5 * s * s * lap + m * slope for s, m in fam.controls], axis=0)
    assert np.array_equal(vals.values, expected)
    assert np.array_equal(interior, g.interior_mask(1.5 * dx))


def test_consistency_residual_heat():
    # the one-step rate (I(h)f - f)/h approaches the generator (1/2) f''
    # = -(1/2) sin; for the heat step the gap is (e^{-h/2} - 1 + h/2)/h
    # sin, about (h/8) sin
    g = grid1d(4801, 12.0)
    f = GridFunction.from_callable(g, np.sin)
    fam = NisioFamily(((1.0, 0.0),))
    generator, inner = generator_apply(fam, f)
    gaps = []
    for h in (0.1, 0.01, 0.001):
        rate = (nisio_step(fam, f, h).values - f.values) / h
        mask = inner & g.interior_mask(8.0 * math.sqrt(h) + 2 * g.spacing[0])
        gaps.append(np.max(np.abs(rate - generator.values)[mask]))
        assert gaps[-1] <= 0.15 * h
    assert gaps[0] > gaps[1] > gaps[2]


def test_chernoff_product_matches_semigroup():
    g = grid1d(2401, 12.0)
    f = GridFunction.from_callable(g, np.cos)
    fam = NisioFamily(((0.8, 0.3),))
    u = f
    for _ in range(16):
        u = nisio_step(fam, u, 1.0 / 16)
    direct = heat_exact(f, 0.8, 0.3, 1.0, cut=8.0)
    interior = g.interior_mask(9.0)
    np.testing.assert_allclose(
        u.values[interior], direct.values[interior], atol=1e-8
    )
