import math

import pytest

from chernoff.bounds import (
    BoundReport,
    RateParameters,
    ThetaRow,
    bound_table_digest,
    clt_bounds,
    evaluate_table_section,
    general_rate_constant,
    general_rate_exponent,
    holder_parameters,
    lln_bounds,
    load_bound_table,
    nisio_bounds,
    nisio_rate_parameters,
)
from chernoff.convex_expectation import (
    Scenario,
    ScenarioConvexExpectation,
    growth_certificate,
)
from chernoff.core import DomainError
from chernoff.mollifier import MollifierKernel
from chernoff.nisio import GeneratorBounds, NisioFamily


def null_row(alpha, beta):
    return ThetaRow("null", alpha, beta, lambda r, t, e: 0.0)


def make_params(p, rows, **kw):
    rows = tuple(rows)
    return RateParameters(
        p=p, a1=lambda r: 0.0, a2=0.0, rows_minus=rows, rows_plus=rows, **kw
    )


def test_exponent_examples():
    assert general_rate_exponent(make_params(0, [null_row(1, 1)]), "minus") == 0.5
    assert general_rate_exponent(make_params(1, [null_row(0.5, 2)]), "minus") == pytest.approx(1 / 6)
    assert general_rate_exponent(make_params(1, [null_row(1, 3)]), "plus") == 0.25
    with pytest.raises(DomainError):
        general_rate_exponent(make_params(0, []), "minus")


def test_constant_skeleton_is_eight():
    params = make_params(0, [null_row(1, 1)])
    rep = general_rate_constant(params, 1.0, 1.0, "minus")
    assert rep.total == pytest.approx(8.0)
    names = [n for n, _ in rep.addends]
    assert names[0] == "initial-window" and names[1] == "mollified-comparison"
    assert rep.gamma == 0.5
    # degenerate: no growth, no residuals -> constant independent of t
    rep2 = general_rate_constant(params, 1.0, 7.0, "minus")
    assert rep2.total == pytest.approx(8.0)


def test_constant_requires_unit_radius():
    params = make_params(0, [null_row(1, 1)])
    with pytest.raises(DomainError):
        general_rate_constant(params, 0.5, 1.0, "minus")
    rep = general_rate_constant(params, 0.5, 1.0, "minus", allow_small_r=True)
    assert rep.total == pytest.approx(4.0)


def test_constant_monotone_in_r_and_t():
    gb = GeneratorBounds.for_constant_coefficients(((0.5, 0.3), (1.0, 0.0)))
    base = nisio_bounds(gb, 1.0, 1.0).total
    assert nisio_bounds(gb, 2.0, 1.0).total > base
    assert nisio_bounds(gb, 1.0, 2.0).total > base


def test_report_bookkeeping():
    rep = BoundReport.from_addends(
        0.25, "plus", 1.0, 1.0, 1.0, [("a", 1.5), ("b", 2.5)]
    )
    assert rep.total == 4.0
    assert rep.bound_at(0.0625) == pytest.approx(4.0 * 0.5)
    assert rep.admissible(0.5)
    assert rep.to_dict()["addends"]["b"] == 2.5
    with pytest.raises(DomainError):
        BoundReport.from_addends(1.5, "plus", 1, 1, 1, [("a", 1.0)])
    with pytest.raises(DomainError):
        BoundReport.from_addends(0.5, "plus", 1, 1, 1, [("a", -1.0)])


def test_holder_parameters_examples():
    hp = holder_parameters(1.0, 1.0, 0.0, lambda r: 0.0, 0.0, 0.0)
    assert hp.alpha == 1.0 and hp.constant == 2.0
    hp2 = holder_parameters(2.0, 1.0, 0.0, lambda r: 0.0, 0.0, 1.0)
    assert hp2.alpha == 0.5 and hp2.constant == 4.0
    with pytest.raises(DomainError):
        holder_parameters(0.5, 1.0, 0.0, lambda r: 0.0, 0.0, 0.0)


GHEAT_GB = GeneratorBounds.for_constant_coefficients(((0.5, 0.0), (1.0, 0.0)))


def test_nisio_exponents_per_family_class():
    first_order = GeneratorBounds.for_constant_coefficients(
        ((0.0, -1.0), (0.0, 1.0)), smooth=False
    )
    assert nisio_bounds(first_order, 1.0, 1.0).gamma == 0.5
    assert nisio_bounds(GHEAT_GB, 1.0, 1.0, smooth=False).gamma == pytest.approx(1 / 6)
    assert nisio_bounds(GHEAT_GB, 1.0, 1.0, smooth=True).gamma == 0.25
    plain = GeneratorBounds.for_constant_coefficients(((1.0, 0.0),), smooth=False)
    with pytest.raises(DomainError):
        nisio_bounds(plain, 1.0, 1.0, smooth=True)


def test_nisio_small_radius_allowed():
    rep = nisio_bounds(GHEAT_GB, 0.5, 1.0)
    assert rep.total > 0


def _nisio_table_env(gb, r, t, gamma, p, h0=0.125):
    kern = MollifierKernel(1)
    env = {
        "r": r,
        "t": t,
        "omega": gb.omega,
        "L": gb.translation,
        "v1": gb.first_order,
        "v2": gb.second_order,
        "w1": gb.lipschitz_caps[0],
        "w2": gb.lipschitz_caps[1],
        "w3": gb.lipschitz_caps[2],
        "p": p,
        "alpha": 1.0 / (1.0 + p),
        "h0": h0,
        "eps1": h0 ** ((1.0 + p) * gamma),
        "c_kappa": 1.0,
    }
    if gb.squared_caps is not None:
        for i, vt in enumerate(gb.squared_caps, start=1):
            env[f"vt{i}"] = vt
    for (k, l), v in kern.constants.items():
        env[f"b{k}{l}"] = v
    return env


def test_nisio_assembly_matches_table_smooth():
    r, t, h0 = 1.0, 1.0, 0.125
    rep = nisio_bounds(GHEAT_GB, r, t, smooth=True, h0=h0)
    env = _nisio_table_env(GHEAT_GB, r, t, rep.gamma, 1.0, h0)
    table = dict(evaluate_table_section("nisio2_plus", env))
    got = dict(rep.addends)
    assert got["initial-window"] == pytest.approx(table["initial-window"], rel=1e-12)
    assert got["mollified-comparison"] == pytest.approx(
        table["mollified-comparison"], rel=1e-12
    )
    assert got["translation"] == pytest.approx(table["translation"], abs=1e-15)
    consistency = sum(v for n, v in got.items() if n.startswith("consistency-order"))
    assert consistency == pytest.approx(table["consistency"], rel=1e-12)
    smoothing = sum(
        v
        for n, v in got.items()
        if n.startswith("smoothing-order") or n == "time-difference"
    )
    assert smoothing == pytest.approx(table["smoothing"], rel=1e-12)
    assert rep.total == pytest.approx(sum(table.values()), rel=1e-12)


def test_nisio_assembly_matches_table_nonsmooth():
    gb = GeneratorBounds.for_constant_coefficients(((0.5, 0.25), (1.0, 0.0)))
    r, t, h0 = 2.0, 0.5, 0.0625
    rep = nisio_bounds(gb, r, t, smooth=False, h0=h0)
    env = _nisio_table_env(gb, r, t, rep.gamma, 1.0, h0)
    table = dict(evaluate_table_section("nisio_plus", env))
    got = dict(rep.addends)
    consistency = sum(v for n, v in got.items() if n.startswith("consistency-order"))
    smoothing = sum(
        v
        for n, v in got.items()
        if n.startswith("smoothing-order") or n == "time-difference"
    )
    assert consistency == pytest.approx(table["consistency"], rel=1e-12)
    assert smoothing == pytest.approx(table["smoothing"], rel=1e-12)
    assert rep.total == pytest.approx(sum(table.values()), rel=1e-12)


def two_point_ce():
    return ScenarioConvexExpectation(
        (Scenario.point(-1.0), Scenario.point(1.0, penalty=1.0))
    )


def test_lln_bounds_hand_recomputation():
    ce = two_point_ce()
    kern = MollifierKernel(1)
    b01, b11, b20 = kern.b(0, 1), kern.b(1, 1), kern.b(2, 0)
    r, t = 1.0, 1.0
    # point scenarios at |xi| = 1: E[c1|xi| + c2 xi^2] = max(c1 + c2, c1 + c2 - 1)
    c_r = 2 * r + r
    expected_minus = (
        8 * r
        + 5 * r * t
        + (0.5 * r * b01 + r) * t
        + ((c_r + r) * b11 + r) * t
        + 0.5 * (c_r + r) * b20 * t
    )
    rep = lln_bounds(ce, r, t, "minus")
    assert rep.gamma == 0.5
    assert rep.total == pytest.approx(expected_minus, rel=1e-12)
    rep_plus = lln_bounds(ce, r, t, "plus")
    expected_plus = (
        8 * r
        + 5 * r * t
        + (0.5 * r * b01 + r) * t
        + ((2 * c_r + r) * b11 + r) * t
        + 0.5 * (2 * c_r + r) * b20 * t
    )
    assert rep_plus.total == pytest.approx(expected_plus, rel=1e-12)
    assert rep_plus.total > rep.total


def sublinear_ce():
    return ScenarioConvexExpectation(
        (Scenario.gaussian(0.0, 0.5), Scenario.gaussian(0.0, 1.0))
    )


def test_clt_bounds_exponents_and_sides():
    ce = sublinear_ce()
    cert = growth_certificate(ce)
    rep = clt_bounds(ce, cert, 1.0, 1.0, "minus")
    assert rep.gamma == pytest.approx(1 / 6)
    rep2 = clt_bounds(ce, cert, 1.0, 1.0, "minus", symmetric=True)
    assert rep2.gamma == pytest.approx(1 / 4)
    assert clt_bounds(ce, cert, 1.0, 1.0, "plus").total > rep.total
    assert rep.total > 0 and rep2.total > 0


def test_clt_bounds_hand_recomputation():
    ce = sublinear_ce()
    cert = growth_certificate(ce)  # sublinear: a = 1, p = 1
    kern = MollifierKernel(1)
    b01, b02, b12, b20 = kern.b(0, 1), kern.b(0, 2), kern.b(1, 2), kern.b(2, 0)
    r, t = 1.0, 1.0
    e_half_sq = 0.5  # E[0.5 |xi|^2] is largest at sigma = 1, exact under quadrature
    e_cubed = ce.abs_moment_combination({3: 1.0})
    assert e_cubed == pytest.approx(math.sqrt(2 / math.pi) * 2, abs=1e-3)
    c_r = 2 * r + e_half_sq * b01 * r
    expected = (
        8 * r
        + 3 * e_half_sq * b01 * r
        + 2 * e_half_sq * r * b01 * t
        + (r * b02 * e_cubed / 6 + 0.5 * r * b01) * t
        + 0.5 * ((c_r + r) * b12 + r * b01)
        + 0.5 * (c_r + r) * b20
    )
    rep = clt_bounds(ce, cert, r, t, "minus")
    assert rep.total == pytest.approx(expected, rel=1e-9)


def test_clt_symmetric_refuses_skewed_scenarios():
    skewed = ScenarioConvexExpectation(
        (Scenario.discrete([-1.0, 2.0], [2 / 3, 1 / 3]),)
    )
    cert = growth_certificate(skewed)
    with pytest.raises(DomainError, match="third moments"):
        clt_bounds(skewed, cert, 1.0, 1.0, "minus", symmetric=True)


def test_clt_bounds_require_zero_mean():
    ce = ScenarioConvexExpectation((Scenario.point(1.0),))
    cert = growth_certificate(ce)
    with pytest.raises(DomainError, match="centred"):
        clt_bounds(ce, cert, 1.0, 1.0, "minus")


def test_scale_invariance_of_exponents():
    # doubling every residual coefficient moves constants, never gamma
    rows = [ThetaRow("a", 0.5, 2.0, lambda r, t, e: 3.0)]
    doubled = [ThetaRow("a", 0.5, 2.0, lambda r, t, e: 6.0)]
    p1 = make_params(1, rows)
    p2 = make_params(1, doubled)
    assert general_rate_exponent(p1, "minus") == general_rate_exponent(p2, "minus")
    c1 = general_rate_constant(p1, 1.0, 1.0, "minus").total
    c2 = general_rate_constant(p2, 1.0, 1.0, "minus").total
    assert c2 > c1


def test_table_is_wellformed():
    table = load_bound_table()
    for name in (
        "nisio_plus",
        "nisio2_plus",
        "lln_minus",
        "lln_plus",
        "clt_minus",
        "clt_plus",
        "clt2_minus",
        "clt2_plus",
    ):
        assert name in table
        assert table[name]["addends"]
    assert len(bound_table_digest()) == 64
    with pytest.raises(DomainError):
        evaluate_table_section("nope", {})


def test_table_expressions_evaluate_like_python_arithmetic():
    from chernoff.bounds import _safe_eval

    env = {"r": 0.7, "d": 2, "b01": 1.3, "E": lambda c1=0.0, c2=0.0: 3.0 * c1 + 5.0 * c2}
    assert _safe_eval("-r + 2*r**2 - d**1.5*r/6", env) == -0.7 + 2 * 0.7**2 - 2**1.5 * 0.7 / 6
    assert _safe_eval("exp(r)*sqrt(d) + log(b01)", env) == (
        math.exp(0.7) * math.sqrt(2) + math.log(1.3)
    )
    assert _safe_eval("E(r, c2=0.5*d*b01)", env) == 3.0 * 0.7 + 5.0 * (0.5 * 2 * 1.3)


@pytest.mark.parametrize(
    "expression",
    [
        "exp.__class__",  # attribute access
        "r.real",
        "(1, 2)[0]",  # subscript
        "(lambda: r)()",  # lambda
        "[x for x in (1, 2)]",  # comprehension
        "sum(x for x in (1, 2))",
        "q * r",  # unknown name
        "__import__('os')",  # call to anything but exp, sqrt, log, E
        "exp",  # a function name used as a value
        "E(**{'c1': 1.0})",
        "r if r else 0",
        "r % 2",
        "+r",
        "True * r",
        "'r'",
        "r +",  # not an expression
    ],
)
def test_table_expressions_reject_everything_else(expression):
    from chernoff.bounds import _safe_eval

    with pytest.raises(DomainError, match="bound table expression"):
        _safe_eval(expression, {"r": 0.5, "E": lambda c1=0.0: c1})
