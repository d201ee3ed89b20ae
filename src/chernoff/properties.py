"""Randomized structural checks for step operators and expectations.

structural_suite drives a step operator with seeded random Lipschitz
pairs and scores the order, convexity, contraction, slope-propagation
and translation properties; appendix_suite does the same for a scenario
expectation's scaling, constant-shift and mixture inequalities.  Both
return per-property counts so a single bad draw is visible, and both
are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, Grid, GridFunction
from .iterate import StepOperator
from .kernels import apply_taps


def random_lipschitz_function(
    grid: Grid, rng: np.random.Generator, radius: float = 2.0, offset: float = 1.0
) -> GridFunction:
    """A piecewise-linear function with slope at most radius."""
    if radius <= 0:
        raise DomainError("radius must be positive")
    dx = grid.spacing[0]
    steps = rng.uniform(-radius * dx, radius * dx, size=grid.size)
    steps[0] = 0.0
    values = np.cumsum(steps)
    values -= values.mean()
    values += rng.uniform(-offset, offset)
    return GridFunction(grid, values)


def random_nonnegative_bump(
    grid: Grid, rng: np.random.Generator, radius: float = 1.0
) -> GridFunction:
    u = random_lipschitz_function(grid, rng, radius, offset=0.0)
    return GridFunction(grid, u.values - np.min(u.values))


@dataclass(frozen=True)
class PropertyResult:
    name: str
    checked: int
    violations: int
    worst: float

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violations": self.violations,
            "worst": self.worst,
        }


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[PropertyResult, ...]
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.violations == 0 for r in self.results)

    def result(self, name: str) -> PropertyResult:
        for r in self.results:
            if r.name == name:
                return r
        raise DomainError(f"no property named {name!r} in this report")

    def failing(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.results if r.violations > 0)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "properties": {r.name: r.to_dict() for r in self.results},
        }


class _Tally:
    def __init__(self, name: str, tol: float):
        self.name = name
        self.tol = tol
        self.checked = 0
        self.violations = 0
        self.worst = 0.0

    def record(self, measure: float):
        self.checked += 1
        self.worst = max(self.worst, measure)
        if measure > self.tol:
            self.violations += 1

    def result(self) -> PropertyResult:
        return PropertyResult(self.name, self.checked, self.violations, self.worst)


def structural_suite(
    op: StepOperator,
    grid: Grid,
    n_pairs: int = 1000,
    seed: int = 0,
    h: float = 0.25,
    radius: float = 2.0,
    tol: float = 1e-9,
    lipschitz_tol: float = 1e-9,
) -> SuiteReport:
    """Monotone / convex / zero / contraction / slope / translation checks.

    Violations are excesses over the exact inequality beyond tol, except
    contraction and lipschitz where the recorded measure is the growth
    factor itself and a violation means factor > 1 + tol.
    """
    if n_pairs < 1:
        raise DomainError("need at least one pair")
    rng = np.random.default_rng(seed)
    mono = _Tally("monotone", tol)
    convex = _Tally("convex", tol)
    contraction = _Tally("contraction", 1.0 + tol)
    slope = _Tally("lipschitz", 1.0 + lipschitz_tol)
    translation = _Tally("translation", tol)
    zero = _Tally("zero", tol)

    zero_in = GridFunction(grid, np.zeros(grid.counts))
    zero.record(op.step(zero_in, h).sup_norm)

    margin = 8.0 * op.reach(h) + 4.0 * grid.spacing[0]
    interior = grid.interior_mask(margin)
    if not interior.any():
        raise DomainError("grid too small for the translation check margin")

    for _ in range(n_pairs):
        f = random_lipschitz_function(grid, rng, radius)
        g = f + random_nonnegative_bump(grid, rng, radius / 2)
        lam = float(rng.uniform(0.0, 1.0))
        mix = lam * f + (1.0 - lam) * g
        If = op.step(f, h)
        Ig = op.step(g, h)
        Imix = op.step(mix, h)

        mono.record(float(np.max(If.values - Ig.values)))
        convex.record(
            float(np.max(Imix.values - (lam * If + (1.0 - lam) * Ig).values))
        )
        gap = float(np.max(np.abs(f.values - g.values)))
        if gap > 0:
            contraction.record(float(np.max(np.abs(If.values - Ig.values))) / gap)
        slope.record(If.lipschitz / f.lipschitz)

        cells = int(rng.integers(1, 4))
        # shift with constant extension, the operators' boundary rule
        fz = GridFunction(grid, apply_taps(f.values, [cells], [1.0]))
        lhs = op.step(fz, h).values
        rhs = apply_taps(If.values, [cells], [1.0])
        translation.record(float(np.max(np.abs(lhs - rhs)[interior])))

    results = [zero, mono, convex, contraction, slope, translation]
    return SuiteReport(results=tuple(t.result() for t in results), seed=seed)


def _random_payoff(rng: np.random.Generator, radius: float = 2.0, knots: int = 17):
    """Piecewise-linear payoff closure on [-16, 16], clamped outside."""
    xs = np.linspace(-16.0, 16.0, knots)
    steps = rng.uniform(-radius, radius, size=knots) * (xs[1] - xs[0])
    steps[0] = 0.0
    ys = np.cumsum(steps) + rng.uniform(-1.0, 1.0)

    def payoff(v):
        return np.interp(v, xs, ys)

    return payoff


def _random_expectation(rng: np.random.Generator):
    from .convex_expectation import Scenario, ScenarioConvexExpectation

    n = int(rng.integers(1, 4))
    penalties = rng.uniform(0.0, 2.0, size=n)
    penalties[int(rng.integers(0, n))] = 0.0
    scenarios = []
    for i in range(n):
        kind = rng.integers(0, 3)
        mean = float(rng.uniform(-1.0, 1.0))
        if kind == 0:
            scenarios.append(Scenario.point(mean, penalty=penalties[i]))
        elif kind == 1:
            sigma = float(rng.uniform(0.2, 1.5))
            scenarios.append(Scenario.gaussian(mean, sigma, penalty=penalties[i]))
        else:
            k = int(rng.integers(2, 4))
            atoms = rng.uniform(-2.0, 2.0, size=k)
            w = rng.uniform(0.1, 1.0, size=k)
            scenarios.append(
                Scenario.discrete(list(atoms), list(w / w.sum()), penalty=penalties[i])
            )
    return ScenarioConvexExpectation(tuple(scenarios))


def appendix_suite(
    n_instances: int = 1000, seed: int = 0, tol: float = 1e-9
) -> SuiteReport:
    """Scaling, constant-shift and mixture inequalities on random
    scenario expectations and payoffs."""
    if n_instances < 1:
        raise DomainError("need at least one instance")
    rng = np.random.default_rng(seed)
    scaling = _Tally("lambda-scaling", tol)
    shift = _Tally("constant-shift", tol)
    jensen = _Tally("mixture-jensen", tol)

    for _ in range(n_instances):
        ce = _random_expectation(rng)
        f = _random_payoff(rng)
        lam = float(rng.uniform(0.0, 1.0))
        phi_f = ce.evaluate(f)
        scaling.record(ce.evaluate(lambda v: lam * f(v)) - lam * phi_f)

        a = float(rng.uniform(-3.0, 3.0))
        shift.record(ce.evaluate(lambda v: f(v) + a) - (phi_f + abs(a)))

        k = int(rng.integers(2, 4))
        gs = [_random_payoff(rng) for _ in range(k)]
        w = rng.uniform(0.1, 1.0, size=k)
        w = w / w.sum()
        mixed = ce.evaluate(lambda v: sum(wi * gi(v) for wi, gi in zip(w, gs)))
        jensen.record(mixed - sum(wi * ce.evaluate(gi) for wi, gi in zip(w, gs)))

    return SuiteReport(
        results=(scaling.result(), shift.result(), jensen.result()), seed=seed
    )


def admit_operator(
    op: StepOperator,
    grid: Grid,
    seed: int = 0,
    n_pairs: int = 64,
    h: float = 0.25,
) -> StepOperator:
    """Run a short structural suite and return the operator admitted.

    Raises instead of admitting when any property fails, naming the
    offenders.
    """
    report = structural_suite(op, grid, n_pairs=n_pairs, seed=seed, h=h)
    if not report.passed:
        raise DomainError(
            f"operator {op.name!r} failed admission: {', '.join(report.failing())}"
        )
    return op.admit()
