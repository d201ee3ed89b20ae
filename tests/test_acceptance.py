"""Acceptance gate: every shipped guarantee at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; each test also prints a one-line verdict with the measured
numbers.

Scale: one dimension, 4095 grid points on [-12, 12], step sizes
2^-3 .. 2^-9, fine oracle at 2^-13.  The expensive pieces (fine
oracles, recorded trajectories) are module-scoped fixtures shared
between criteria.
"""

import math

import numpy as np
import pytest

from chernoff.bounds import clt_bounds, holder_parameters, lln_bounds, nisio_bounds
from chernoff.cli import main as cli_main
from chernoff.convex_expectation import (
    Scenario,
    ScenarioConvexExpectation,
    growth_certificate,
    maximally_distributed_limit,
)
from chernoff.core import Grid, GridFunction, SpaceTimeFunction, sup_norm
from chernoff.iterate import (
    StepOperator,
    chernoff_iterate,
    discrete_comparison_check,
    partition,
)
from chernoff.mollifier import (
    Epsilon,
    MollifierKernel,
    bump,
    bump_derivative,
    derivative_bound_check,
)
from chernoff.nisio import NisioFamily
from chernoff.properties import admit_operator, appendix_suite, structural_suite
from chernoff.rates import fit_rate, holder_check, measure_errors, verify_bound
from chernoff.reference import OracleResult, fine_oracle, heat_exact

GRID = Grid((-12.0,), (12.0,), (4095,))
DX = GRID.spacing[0]
H_LIST = tuple(2.0**-n for n in range(3, 10))
H_FINE = 2.0**-13
SUITE_GRID = Grid((-12.0,), (12.0,), (513,))
SUITE_PAIRS = 1000


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num:02d} {label} failed{tail}"


# ---------------------------------------------------------------------------
# shared experiment fixtures


@pytest.fixture(scope="module")
def capped():
    return GridFunction.from_callable(GRID, lambda v: np.minimum(np.abs(v), 1.0))


@pytest.fixture(scope="module")
def gheat_family():
    return NisioFamily(((0.5, 0.0), (1.0, 0.0)))


@pytest.fixture(scope="module")
def gheat_op(gheat_family):
    return admit_operator(StepOperator.from_nisio(gheat_family), SUITE_GRID, seed=1)


@pytest.fixture(scope="module")
def gheat_oracle(gheat_op, capped):
    return fine_oracle(gheat_op, capped, 1.0, H_FINE)


@pytest.fixture(scope="module")
def gheat_curve(gheat_op, capped, gheat_oracle):
    return measure_errors(gheat_op, capped, 1.0, H_LIST, gheat_oracle)


@pytest.fixture(scope="module")
def lln_ce():
    mass = 512.0 * DX  # integer grid cells at every measured step size
    return ScenarioConvexExpectation(
        (Scenario.point((-mass,)), Scenario.point((mass,), penalty=1.0))
    )


@pytest.fixture(scope="module")
def lln_op(lln_ce):
    return admit_operator(StepOperator.from_lln(lln_ce), SUITE_GRID, seed=2)


@pytest.fixture(scope="module")
def lln_reference(capped):
    # exact limit envelope.  The conjugate of z -> max(-m z, m z - 1)
    # is y / (2m) + 1/2 on [-m, m] (+inf outside), so
    # S(1)f(x) = sup_y f(x + y) - y/(2m) - 1/2.  For a piecewise-linear
    # grid payoff the sup is attained at integer-cell shifts, where
    # np.interp is exact, so the reference carries no uncertainty.
    mass = 512.0 * DX
    axis = GRID.axes[0]
    vals = np.full(GRID.counts, -np.inf)
    for j in range(-512, 513):
        shift = j * DX
        moved = np.interp(axis + shift, axis, capped.values)
        np.maximum(vals, moved - (shift / (2.0 * mass) + 0.5), out=vals)
    return OracleResult(GridFunction(GRID, vals), 0.0)


@pytest.fixture(scope="module")
def lln_curve(lln_op, capped, lln_reference):
    return measure_errors(lln_op, capped, 1.0, H_LIST, lln_reference)


@pytest.fixture(scope="module")
def clt_ce():
    return ScenarioConvexExpectation(
        (Scenario.gaussian((0.0,), 0.5), Scenario.gaussian((0.0,), 1.0))
    )


@pytest.fixture(scope="module")
def clt_op(clt_ce):
    return admit_operator(StepOperator.from_clt(clt_ce), SUITE_GRID, seed=3)


@pytest.fixture(scope="module")
def clt_reference(clt_op, capped):
    # the capped payoff is neither convex nor concave: no closed form
    return fine_oracle(clt_op, capped, 1.0, H_FINE)


@pytest.fixture(scope="module")
def clt_curve(clt_op, capped, clt_reference):
    return measure_errors(clt_op, capped, 1.0, H_LIST, clt_reference)


@pytest.fixture(scope="module")
def clt_trajectory(clt_op, capped):
    _, traj = chernoff_iterate(clt_op, capped, 1.0, 2.0**-6, record=True)
    return traj


# ---------------------------------------------------------------------------
# criterion 1: kernel mass and derivative-constant table


def _riemann_abs_l1(fn, n):
    mid = -1.0 + 2.0 * (np.arange(n) + 0.5) / n
    return float(np.sum(np.abs(fn(mid)))) * 2.0 / n


def test_criterion_01_kernel_constants():
    kern = MollifierKernel(1)
    # total mass of the space-time density by a midpoint product rule;
    # the integrand vanishes to all orders at the support boundary, so
    # the rule is far more accurate than its generic h^2 estimate
    n = 4001
    s_mid = (np.arange(n) + 0.5) / n
    y_mid = -1.0 + 2.0 * (np.arange(n) + 0.5) / n
    total = 0.0
    for lo in range(0, n, 64):
        block = s_mid[lo : lo + 64]
        ss, yy = np.meshgrid(block, y_mid, indexing="ij")
        total += float(np.sum(kern.density(ss, yy[..., None])))
    total *= (1.0 / n) * (2.0 / n)
    mass_ok = abs(total - 1.0) <= 1e-8
    b00_ok = abs(kern.b(0, 0) - 1.0) <= 1e-8

    # table entries against dense Riemann sums at 10x the resolution
    # the unit tests use elsewhere
    n_oracle = 4_000_001
    l1 = {0: _riemann_abs_l1(bump, n_oracle)}
    for order in (1, 2, 3):
        l1[order] = _riemann_abs_l1(lambda z: bump_derivative(order, z), n_oracle)
    worst = 0.0
    for k in range(3):
        for l in range(4):
            oracle = (2.0**k * l1[k] / l1[0]) * (l1[l] / l1[0])
            worst = max(worst, abs(kern.b(k, l) - oracle))
    table_ok = worst <= 1e-6
    _report(
        1,
        "kernel-constants",
        mass_ok and b00_ok and table_ok,
        f"mass err {abs(total - 1.0):.1e}, table err {worst:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 2: structural suite on every shipped operator


def test_criterion_02_structural_suite(gheat_op, lln_op, clt_op):
    linear_op = StepOperator.from_nisio(NisioFamily(((1.0, 0.0),)))
    failing = []
    for op in (linear_op, gheat_op, lln_op, clt_op):
        report = structural_suite(
            op, SUITE_GRID, n_pairs=SUITE_PAIRS, seed=11, tol=1e-9
        )
        if not report.passed:
            failing.append((op.name, report.failing()))
        assert report.result("monotone").checked == SUITE_PAIRS
    _report(
        2,
        "structural-suite",
        not failing,
        f"4 operators x {SUITE_PAIRS} pairs" + (f", failing: {failing}" if failing else ""),
    )


# ---------------------------------------------------------------------------
# criterion 3: scaling, constant-shift and mixture laws


def test_criterion_03_expectation_suite():
    report = appendix_suite(n_instances=SUITE_PAIRS, seed=5, tol=1e-9)
    counts_ok = all(r.checked == SUITE_PAIRS for r in report.results)
    worst = max(r.worst for r in report.results)
    _report(
        3,
        "expectation-suite",
        report.passed and counts_ok,
        f"{SUITE_PAIRS} instances, worst violation {worst:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 4: linear exactness for a singleton family


def test_criterion_04_linear_exactness():
    cosine = GridFunction.from_callable(GRID, np.cos)
    family = NisioFamily(((1.0, 0.0),))
    reference = heat_exact(cosine, 1.0, 0.0, 1.0)
    mask = GRID.interior_mask(3.0)
    worst = {}
    for cut in (8.0, 16.0):
        op = StepOperator.from_nisio(family, cut=cut)
        worst[cut] = max(
            sup_norm(chernoff_iterate(op, cosine, 1.0, h) - reference, where=mask)
            for h in H_LIST
        )
    ok = worst[8.0] <= 5e-3 and worst[16.0] <= 5e-4
    _report(
        4,
        "linear-exactness",
        ok,
        f"interior sup err {worst[8.0]:.2e}, doubled quadrature {worst[16.0]:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 5: convex payoffs collapse to the largest volatility


def test_criterion_05_convex_collapse(gheat_op):
    absolute = GridFunction.from_callable(GRID, np.abs)
    reference = heat_exact(absolute, 1.0, 0.0, 1.0)
    mask = GRID.interior_mask(3.0 * gheat_op.reach(1.0))
    center = GRID.counts[0] // 2
    assert GRID.axes[0][center] == 0.0
    sup_err = 0.0
    origin_err = 0.0
    for h in H_LIST:
        iterate = chernoff_iterate(gheat_op, absolute, 1.0, h)
        sup_err = max(sup_err, sup_norm(iterate - reference, where=mask))
        origin_err = max(
            origin_err, abs(float(iterate.values[center]) - math.sqrt(2.0 / math.pi))
        )
    ok = sup_err <= 1e-3 and origin_err <= 1e-3
    _report(
        5,
        "convex-collapse",
        ok,
        f"sup err {sup_err:.2e}, origin err {origin_err:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 6: one-sided rate for the two-volatility family


def test_criterion_06_one_sided_rate(gheat_family, gheat_oracle, gheat_curve):
    bound = nisio_bounds(gheat_family.bounds, 1.0, 1.0)
    assert bound.gamma == pytest.approx(0.25)
    check = verify_bound(gheat_curve, bound)
    max_minus = max(p.e_minus for p in gheat_curve)
    minus_ok = max_minus <= 10.0 * gheat_oracle.uncertainty
    fit = fit_rate(gheat_curve)
    ok = check.passed and check.skipped == 0 and minus_ok and fit.gamma_hat >= 0.20
    _report(
        6,
        "one-sided-rate",
        ok,
        f"bound ratio {check.max_ratio:.2e}, e- {max_minus:.1e} vs "
        f"10x unc {10 * gheat_oracle.uncertainty:.1e}, slope {fit.gamma_hat:.2f}",
    )


# ---------------------------------------------------------------------------
# criterion 7: penalized two-point-mass rate and its limit


def test_criterion_07_lln_rate(lln_ce, lln_reference, lln_curve, capped):
    minus = lln_bounds(lln_ce, 1.0, 1.0, "minus")
    plus = lln_bounds(lln_ce, 1.0, 1.0, "plus")
    assert minus.gamma == plus.gamma == 0.5
    checks = [verify_bound(lln_curve, b) for b in (minus, plus)]
    fit = fit_rate(lln_curve)

    limit = maximally_distributed_limit(lln_ce, capped)
    mask = GRID.interior_mask(lln_curve.interior_margin)
    cross = float(np.max(np.abs((lln_reference.values - limit).values)[mask]))
    # exact-envelope vs library-limit tolerance: in 1D the library takes
    # the sup over every breakpoint in y, so only rounding is left
    combined = 1e-12 * max(1.0, capped.sup_norm)
    ok = (
        all(c.passed and c.skipped == 0 for c in checks)
        and fit.gamma_hat >= 0.45
        and cross <= combined
    )
    _report(
        7,
        "lln-rate",
        ok,
        f"ratios {checks[0].max_ratio:.1e}/{checks[1].max_ratio:.1e}, "
        f"slope {fit.gamma_hat:.2f}, limit gap {cross:.1e} <= {combined:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 8: central-limit rates, plain and vanishing-third-moment


def test_criterion_08_clt_rates(clt_ce, clt_reference, clt_curve, gheat_family, capped):
    certificate = growth_certificate(clt_ce)
    plain = [clt_bounds(clt_ce, certificate, 1.0, 1.0, s) for s in ("minus", "plus")]
    doubled = [
        clt_bounds(clt_ce, certificate, 1.0, 1.0, s, symmetric=True)
        for s in ("minus", "plus")
    ]
    assert [b.gamma for b in plain] == [pytest.approx(1.0 / 6.0)] * 2
    assert [b.gamma for b in doubled] == [pytest.approx(0.25)] * 2
    checks = [verify_bound(clt_curve, b) for b in plain + doubled]
    fit = fit_rate(clt_curve)

    # the scaling limit equals the two-volatility semigroup at t = 1,
    # so an oracle for that family, run at a different step so the two
    # computations do not coincide, must agree within both families'
    # bounds at their respective steps
    gheat_op = StepOperator.from_nisio(gheat_family).admit()
    other = fine_oracle(gheat_op, capped, 1.0, 2.0 * H_FINE)
    mask = GRID.interior_mask(3.0)
    cross = float(np.max(np.abs((clt_reference.values - other.values).values)[mask]))
    combined = (
        doubled[0].bound_at(H_FINE)
        + doubled[1].bound_at(H_FINE)
        + nisio_bounds(gheat_family.bounds, 1.0, 1.0).bound_at(2.0 * H_FINE)
        + clt_reference.uncertainty
        + other.uncertainty
    )
    ok = (
        all(c.passed and c.skipped == 0 for c in checks)
        and fit.gamma_hat >= 0.20
        and cross <= combined
    )
    _report(
        8,
        "clt-rates",
        ok,
        f"worst ratio {max(c.max_ratio for c in checks):.1e}, "
        f"slope {fit.gamma_hat:.2f}, limit gap {cross:.1e} <= {combined:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 9: time regularity of the recorded trajectory


def test_criterion_09_holder_regularity(clt_ce, clt_trajectory):
    step = 2.0**-6
    times = list(clt_trajectory.times)
    pairs = [(s, t) for i, s in enumerate(times) for t in times[i + 1 :]]
    quad_growth = clt_ce.abs_moment_combination({2: 0.5})
    certificate = growth_certificate(clt_ce)
    params = holder_parameters(
        1.0, 1.0, 0.0, lambda _r: 0.0, quad_growth, certificate.p
    )
    assert params.alpha == 0.5
    report = holder_check(
        clt_trajectory, pairs, params.alpha, params.constant, step, tol=0.01
    )
    _report(
        9,
        "holder-regularity",
        report.passed,
        f"max ratio {report.max_ratio:.3f} vs limit {params.constant:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 10: derivative bounds for the mollified trajectory


def test_criterion_10_derivative_bounds(clt_trajectory):
    eps = Epsilon.coupled(0.5, 1.0)  # eps1 = 0.25, eps2 = 0.5
    worst = 0.0
    ok = True
    for k in (0, 1, 2):
        for l in (1, 2, 3):
            report = derivative_bound_check(clt_trajectory, eps, k, l, 1.0)
            worst = max(worst, report.measured / report.bound)
            ok = ok and report.ok
    _report(
        10,
        "derivative-bounds",
        ok,
        f"worst measured/bound {worst:.3f} (allowed 1.05)",
    )


# ---------------------------------------------------------------------------
# criterion 11: telescoped one-step comparison with a constant drift


def test_criterion_11_discrete_comparison(capped):
    op = StepOperator.from_nisio(NisioFamily(((1.0, 0.0),)))
    h, drift = 0.125, 0.7
    times = partition(1.0, h).times
    plain = [capped]
    drifted = [capped]
    for _ in range(len(times) - 1):
        plain.append(op.step(plain[-1], h))
        drifted.append(op.step(drifted[-1], h) + drift * h)
    u = SpaceTimeFunction.from_functions(times, drifted)
    v = SpaceTimeFunction.from_functions(times, plain)
    f_bound = SpaceTimeFunction.from_functions(
        times, [GridFunction(GRID, np.full(GRID.counts, drift))] * len(times)
    )
    g_bound = SpaceTimeFunction.from_functions(
        times, [GridFunction(GRID, np.zeros(GRID.counts))] * len(times)
    )
    report = discrete_comparison_check(op, u, v, f_bound, g_bound, h, 1.0, tol=1e-9)
    ok = report.passed and not report.vacuous and report.max_slack <= 1e-9
    _report(
        11,
        "discrete-comparison",
        ok,
        f"max slack {report.max_slack:.1e}, certificate violation "
        f"{report.certificate_violation:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 12: byte-identical artifacts for identical config and seed


REPRO_CFG = """
[grid]
low = -12
high = 12
points = 1025

[operator]
type = nisio
controls = 1 0

[payoff]
kind = cos

[experiment]
t = 0.25
h = 2^-3..2^-5
reference = exact
sigma = 1
seed = 7

[rate]
margin = 8.0

[tolerances]
pairs = 40
"""


def test_criterion_12_reproducibility(tmp_path, capsys):
    config = tmp_path / "experiment.cfg"
    config.write_text(REPRO_CFG)
    first = tmp_path / "first"
    second = tmp_path / "second"
    rc1 = cli_main(["run", str(config), "--out", str(first)])
    rc2 = cli_main(["run", str(config), "--out", str(second)])
    capsys.readouterr()
    names = ("error_curve.csv", "rate_report.json", "bound_report.json", "manifest.json")
    identical = all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    _report(
        12,
        "reproducibility",
        rc1 == 0 and rc2 == 0 and identical,
        f"exit codes {rc1}/{rc2}, {len(names)} artifacts compared",
    )
