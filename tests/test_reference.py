import math

import numpy as np
import pytest

from chernoff.convex_expectation import Scenario, ScenarioConvexExpectation
from chernoff.core import DomainError, Grid, GridFunction
from chernoff.iterate import StepOperator
from chernoff.nisio import NisioFamily
from chernoff.reference import (
    certify_shape,
    clt_limit_reference,
    fine_oracle,
    gheat_convex_reference,
    heat_exact,
)


def grid1d(n=2401, half=12.0):
    return Grid((-half,), (half,), (n,))


def test_heat_exact_examples():
    g = grid1d()
    f = GridFunction.from_callable(g, np.cos)
    assert heat_exact(f, 1.0, 0.0, 0.0) is f
    out = heat_exact(f, 1.0, 0.0, 1.0)
    interior = g.interior_mask(9.0)
    np.testing.assert_allclose(
        out.values[interior], math.exp(-0.5) * f.values[interior], atol=1e-10
    )
    sq = GridFunction.from_callable(g, lambda v: v * v)
    out2 = heat_exact(sq, 1.0, 0.0, 0.7)
    np.testing.assert_allclose(
        out2.values[interior], sq.values[interior] + 0.7, atol=1e-8
    )


def test_heat_exact_semigroup():
    g = grid1d()
    f = GridFunction.from_callable(g, np.cos)
    two_hop = heat_exact(heat_exact(f, 1.0, 0.2, 0.3), 1.0, 0.2, 0.5)
    one_hop = heat_exact(f, 1.0, 0.2, 0.8)
    interior = g.interior_mask(9.0)
    np.testing.assert_allclose(
        two_hop.values[interior], one_hop.values[interior], atol=1e-9
    )


def test_certify_shape():
    g = grid1d(801)
    assert certify_shape(GridFunction.from_callable(g, np.abs)) == "convex"
    assert certify_shape(GridFunction.from_callable(g, lambda x: -(x**2))) == "concave"
    assert certify_shape(GridFunction.from_callable(g, np.sin)) is None
    # affine functions are both; the convex branch answers first
    assert certify_shape(GridFunction.from_callable(g, lambda x: 2 * x + 1)) == "convex"


def test_gheat_reference_convex_and_concave():
    g = grid1d(4001)
    f = GridFunction.from_callable(g, np.abs)
    out = gheat_convex_reference(f, 0.5, 1.0, 1.0)
    assert out.values[2000] == pytest.approx(math.sqrt(2.0 / math.pi), abs=2e-5)
    neg = GridFunction.from_callable(g, lambda x: -(x**2))
    out2 = gheat_convex_reference(neg, 0.5, 1.0, 1.0)
    interior = g.interior_mask(9.0)
    np.testing.assert_allclose(
        out2.values[interior], neg.values[interior] - 0.25, atol=1e-8
    )
    with pytest.raises(DomainError):
        gheat_convex_reference(GridFunction.from_callable(g, np.sin), 0.5, 1.0, 1.0)


def test_gheat_reference_dominates_members():
    g = grid1d(1201)
    f = GridFunction.from_callable(g, np.abs)
    ref = gheat_convex_reference(f, 0.5, 1.0, 1.0)
    # constant extension flattens |x| right at the edge, so domination
    # is an interior statement
    inner = g.interior_mask(8.0)
    for s in (0.5, 0.75, 1.0):
        member = heat_exact(f, s, 0.0, 1.0)
        assert np.all(ref.values[inner] >= member.values[inner] - 1e-10)


def test_fine_oracle_identity_and_linear_crosscheck():
    g = grid1d(1201)
    f = GridFunction.from_callable(g, np.cos)
    op = StepOperator.from_nisio(NisioFamily(((1.0, 0.0),)))
    assert fine_oracle(op, f, 0.0, 0.01).values is f
    res = fine_oracle(op, f, 0.5, 1.0 / 64)
    exact = heat_exact(f, 1.0, 0.0, 0.5)
    interior = g.interior_mask(9.0)
    assert np.max(np.abs(res.values.values[interior] - exact.values[interior])) < 1e-7
    with pytest.raises(DomainError):
        fine_oracle(op, f, 0.5, 0.0)


def test_fine_oracle_uncertainty_small_for_flat_tails():
    # payoff constant near the boundary: no truncation layer, so the
    # h vs 2h comparison reflects pure step error
    g = grid1d(1201)
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.0))
    op = StepOperator.from_nisio(NisioFamily(((1.0, 0.0),)))
    res = fine_oracle(op, f, 0.5, 1.0 / 64)
    assert res.uncertainty < 1e-4
    assert res.uncertainty > 0.0


def test_fine_oracle_matches_gheat_reference_for_convex():
    g = grid1d(1201)
    f = GridFunction.from_callable(g, np.abs)
    fam = NisioFamily(((0.5, 0.0), (1.0, 0.0)))
    op = StepOperator.from_nisio(fam)
    res = fine_oracle(op, f, 1.0, 1.0 / 64)
    ref = gheat_convex_reference(f, 0.5, 1.0, 1.0)
    interior = g.interior_mask(9.0)
    gap = np.max(np.abs(res.values.values[interior] - ref.values[interior]))
    assert gap < 5e-4  # collapse: iteration is near-exact for convex payoffs


def sublinear_ce():
    return ScenarioConvexExpectation(
        (Scenario.gaussian(0.0, 0.5), Scenario.gaussian(0.0, 1.0))
    )


def test_clt_limit_reference_convex_path():
    g = grid1d(1201)
    f = GridFunction.from_callable(g, np.abs)
    res = clt_limit_reference(sublinear_ce(), f)
    assert res.uncertainty == 0.0
    exact = heat_exact(f, 1.0, 0.0, 1.0)
    np.testing.assert_array_equal(res.values.values, exact.values)


def test_clt_limit_reference_concave_path():
    g = grid1d(1201)
    f = GridFunction.from_callable(g, lambda x: -np.abs(x))
    res = clt_limit_reference(sublinear_ce(), f)
    exact = heat_exact(f, 0.5, 0.0, 1.0)
    np.testing.assert_array_equal(res.values.values, exact.values)


def test_clt_limit_reference_rejects_a_payoff_neither_convex_nor_concave():
    g = grid1d(601, 6.0)
    f = GridFunction.from_callable(g, lambda x: np.minimum(np.abs(x), 1.0))
    with pytest.raises(DomainError, match="neither convex nor concave"):
        clt_limit_reference(sublinear_ce(), f)


def test_clt_limit_reference_rejects_penalised_family():
    g = grid1d(101)
    f = GridFunction.from_callable(g, np.abs)
    ce = ScenarioConvexExpectation(
        (Scenario.gaussian(0.0, 1.0), Scenario.point(1.0, penalty=0.5))
    )
    with pytest.raises(DomainError):
        clt_limit_reference(ce, f)
