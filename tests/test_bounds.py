import math

import pytest

from chernoff.bounds import (
    BoundReport,
    bound_table_digest,
    clt_bounds,
    evaluate_table_section,
    holder_parameters,
    lln_bounds,
    load_bound_table,
    nisio_bounds,
)
from chernoff.convex_expectation import (
    Scenario,
    ScenarioConvexExpectation,
    growth_certificate,
)
from chernoff.core import DomainError
from chernoff.mollifier import MollifierKernel
from chernoff.nisio import GeneratorBounds


def constant_family(*controls, smooth=True):
    return GeneratorBounds.for_constant_coefficients(controls, smooth=smooth)


def test_exponent_examples():
    # nisio: 1/2 at p = 0, 1/6 at p = 1 without smooth caps, 1/(2+2p) with
    first_order = constant_family((0.0, -1.0), (0.0, 1.0))
    assert nisio_bounds(first_order, 1.0, 1.0, smooth=False).gamma == 0.5
    assert nisio_bounds(first_order, 1.0, 1.0, smooth=True).gamma == 0.5
    second_order = constant_family((1.0, 0.5))
    assert nisio_bounds(second_order, 1.0, 1.0, smooth=False).gamma == 1 / 6
    assert nisio_bounds(second_order, 1.0, 1.0, smooth=True).gamma == 0.25
    # lln: 1/2; clt: 1/(4+2p), and 1/(2+2p) for the symmetric variant
    assert lln_bounds(two_point_ce(), 1.0, 1.0, "minus").gamma == 0.5
    ce = sublinear_ce()
    cert = growth_certificate(ce)
    assert clt_bounds(ce, cert, 1.0, 1.0, "plus").gamma == 1 / (4 + 2 * cert.p)
    assert clt_bounds(ce, cert, 1.0, 1.0, "plus", symmetric=True).gamma == 1 / (
        2 + 2 * cert.p
    )


def test_constant_skeleton_is_eight():
    # a zero generator: at t = 0 only the initial window (2r) and the
    # mollified comparison (2 * 3r) remain
    zero = constant_family((0.0, 0.0))
    for r in (0.5, 1.0, 3.0):
        rep = nisio_bounds(zero, r, 0.0)
        assert rep.total == pytest.approx(8.0 * r, rel=1e-15)
        names = [n for n, _ in rep.addends]
        assert names[:2] == ["initial-window", "mollified-comparison"]
        assert rep.gamma == 0.5
    # the lln skeleton addend is the same 8r
    assert dict(lln_bounds(two_point_ce(), 2.0, 1.0, "plus").addends)["skeleton"] == 16.0


def test_constant_requires_unit_radius():
    with pytest.raises(DomainError, match="r >= 1"):
        holder_parameters(0.5, 1.0, 0.0, lambda r: 0.0, 0.0, 0.0)


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


def test_nisio_bounds_hand_recomputation_smooth():
    gb = GHEAT_GB  # v1 = 0, v2 = 1/2, squared caps (0, 0, 0, 1/4)
    kern = MollifierKernel(1)
    b01, b03, b12, b20 = (kern.b(*kl) for kl in ((0, 1), (0, 3), (1, 2), (2, 0)))
    r, t = 1.5, 0.75
    growth = 0.5 * b01 * r  # a2 b01^p r^p with p = 1
    c_rt = 2 * r + growth
    expected = {
        "initial-window": 2 * r + growth,
        "mollified-comparison": 2 * (3 * r + growth),
        "translation": 0.0,
        "consistency": 0.5 * r * (0.25 * b03) * t,
        "smoothing": (2 * c_rt + r) * (0.5 * b12 + 0.5 * b20) * t,  # v1 = 0: no b11
    }
    rep = nisio_bounds(gb, r, t, smooth=True)
    assert rep.gamma == 0.25 and rep.side == "plus" and rep.eps0 == 1.0
    assert [n for n, _ in rep.addends] == list(expected)
    for name, value in rep.addends:
        assert value == pytest.approx(expected[name], rel=1e-12, abs=0)
    assert rep.total == pytest.approx(sum(expected.values()), rel=1e-12)


@pytest.mark.parametrize(
    "controls, p",
    [(((0.5, 0.25), (1.0, 0.0)), 1.0), (((0.0, -1.0), (0.0, 1.0)), 0.0)],
    ids=["second-order", "first-order"],
)
def test_nisio_bounds_hand_recomputation_nonsmooth(controls, p):
    gb = constant_family(*controls, smooth=False)
    kern = MollifierKernel(1)
    b00, b01, b02, b11, b12, b20 = (
        kern.b(*kl) for kl in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 0))
    )
    v1, v2 = gb.first_order, gb.second_order
    w1, w2, w3 = gb.lipschitz_caps
    r, t = 2.0, 0.5
    growth = v1 * r + v2 * b01**p * r**p
    c_rt = 2 * r + growth
    expected = {
        "initial-window": 2 * r + growth,
        "mollified-comparison": 2 * (3 * r + growth),
        "translation": 0.0,
        "consistency": c_rt / (1 + 1 / (1 + p)) * (w1 * b00 + w2 * b01 + w3 * b02) * t,
        "smoothing": (2 * c_rt + r) * (v1 * b11 + v2 * b12 + 0.5 * b20) * t,
    }
    rep = nisio_bounds(gb, r, t)
    assert rep.gamma == (0.5 if p == 0 else 1 / 6)
    assert [n for n, _ in rep.addends] == list(expected)
    for name, value in rep.addends:
        assert value == pytest.approx(expected[name], rel=1e-12, abs=0)
    assert rep.total == pytest.approx(sum(expected.values()), rel=1e-12)


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
    # scaling the coefficients moves constants, never gamma
    for smooth in (True, False):
        for base, scaled in (
            (constant_family((0.0, 1.0)), constant_family((0.0, 2.0))),
            (constant_family((1.0, 0.5)), constant_family((2.0, 0.5))),
        ):
            a = nisio_bounds(base, 1.0, 1.0, smooth=smooth)
            b = nisio_bounds(scaled, 1.0, 1.0, smooth=smooth)
            assert a.gamma == b.gamma
            assert b.total > a.total


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
