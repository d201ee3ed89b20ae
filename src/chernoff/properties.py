"""Randomized structural checks for step operators and expectations.

structural_suite drives a step operator with seeded random Lipschitz
pairs and scores the order, convexity, contraction, slope-propagation
and translation properties; appendix_suite does the same for a scenario
expectation's scaling, constant-shift and mixture inequalities.  Both
return per-property counts so a single bad draw is visible, and both
are deterministic given the seed.

structural_suite steps its pairs as stacks: each block of pairs is
written as rows of one array and stepped through a plan built for that
many rows (``iterate.stacked_steps``), which gives every row the bits
``op.step`` gives it, so the report is that of a loop over pairs.  The
zero function is stepped once through ``op.step``, and the translation
check shifts rows with ``apply_taps``, one row per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, Grid, GridFunction
from .iterate import StepOperator, block_rows, stacked_steps
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

    def record(self, measures):
        """Count one check per measure, in any order: the worst is a max."""
        measures = np.atleast_1d(np.asarray(measures, dtype=float))
        if measures.size:
            self.checked += measures.size
            self.worst = max(self.worst, float(measures.max()))
            self.violations += int(np.count_nonzero(measures > self.tol))

    def result(self) -> PropertyResult:
        return PropertyResult(self.name, self.checked, self.violations, self.worst)


# The suite's step size, the slope bound of its random functions and the
# tolerance of its slope check.
SUITE_H = 0.25
SUITE_RADIUS = 2.0
LIPSCHITZ_TOL = 1e-9
# f, g, their mix and the shifted f of a pair: the rows a pair stacks
_PAIR_ROWS = 4


def suite_margin(op: StepOperator, grid: Grid) -> float:
    """The margin off each end of the grid where ``structural_suite``'s
    translation check is taken: eight times the operator's reach at
    ``SUITE_H`` and four cells."""
    return 8.0 * op.reach(SUITE_H) + 4.0 * grid.spacing[0]


def structural_suite(
    op: StepOperator,
    grid: Grid,
    n_pairs: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> SuiteReport:
    """Monotone / convex / zero / contraction / slope / translation checks.

    Violations are excesses over the exact inequality beyond tol, except
    contraction and lipschitz where the recorded measure is the growth
    factor itself and a violation means factor > 1 + tol (1 +
    ``LIPSCHITZ_TOL`` for lipschitz).

    The translation check's margin (``suite_margin``) must leave interior
    points of the grid; that is checked before any step.  The zero
    function takes one ``op.step``.  The pairs are drawn block
    by block, in the order one pair at a time would draw them: each
    block writes f, g, the mix and the shifted f of its pairs as rows of
    one stack of at most ``iterate.block_rows`` rows, steps the stack
    through ``iterate.stacked_steps`` (one plan per block height for the
    whole suite) and scores the six properties with row reductions.
    """
    if n_pairs < 1:
        raise DomainError("need at least one pair")
    rng = np.random.default_rng(seed)
    mono = _Tally("monotone", tol)
    convex = _Tally("convex", tol)
    contraction = _Tally("contraction", 1.0 + tol)
    slope = _Tally("lipschitz", 1.0 + LIPSCHITZ_TOL)
    translation = _Tally("translation", tol)
    zero = _Tally("zero", tol)

    interior = grid.interior_mask(suite_margin(op, grid))
    if not interior.any():
        raise DomainError("grid too small for the translation check margin")

    zero_in = GridFunction(grid, np.zeros(grid.counts))
    zero.record(op.step(zero_in, SUITE_H).sup_norm)

    n, dx = grid.size, grid.spacing[0]
    per_block = max(1, block_rows(n) // _PAIR_ROWS)
    step = stacked_steps(op, grid, SUITE_H)
    for first in range(0, n_pairs, per_block):
        count = min(per_block, n_pairs - first)
        rows = np.empty((_PAIR_ROWS, count, n))
        out = np.empty_like(rows)
        f, g, mix, fz = rows
        lam = np.empty(count)
        cells = []
        for j in range(count):
            f[j] = random_lipschitz_function(grid, rng, SUITE_RADIUS).values
            np.add(f[j], random_nonnegative_bump(grid, rng, SUITE_RADIUS / 2).values, out=g[j])
            lam[j] = rng.uniform(0.0, 1.0)
            cells.append(int(rng.integers(1, 4)))
            # shift with constant extension, the operators' boundary rule
            apply_taps(f[j], [cells[j]], [1.0], out=fz[j])
        lam = lam[:, np.newaxis]
        np.add(f * lam, g * (1.0 - lam), out=mix)
        step(rows.reshape(-1, n), out.reshape(-1, n))
        If, Ig, Imix, Ifz = out

        mono.record(np.max(If - Ig, axis=1))
        convex.record(np.max(Imix - (If * lam + Ig * (1.0 - lam)), axis=1))
        gap = np.max(np.abs(f - g), axis=1)
        spread = np.max(np.abs(If - Ig), axis=1)
        moved = gap > 0
        contraction.record(spread[moved] / gap[moved])
        slope.record(_lipschitz(If, dx) / _lipschitz(f, dx))
        shifted = np.empty_like(If)
        for j in range(count):
            apply_taps(If[j], [cells[j]], [1.0], out=shifted[j])
        translation.record(np.max(np.abs(Ifz - shifted)[:, interior], axis=1))

    results = [zero, mono, convex, contraction, slope, translation]
    return SuiteReport(results=tuple(t.result() for t in results), seed=seed)


def _lipschitz(rows: np.ndarray, dx: float) -> np.ndarray:
    """``lipschitz_estimate`` of each row: max adjacent slope."""
    return np.max(np.abs(np.diff(rows, axis=1)), axis=1) / dx


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
) -> StepOperator:
    """Run a short structural suite and return the operator admitted.

    Raises instead of admitting when any property fails, naming the
    offenders.
    """
    report = structural_suite(op, grid, n_pairs=n_pairs, seed=seed)
    if not report.passed:
        raise DomainError(
            f"operator {op.name!r} failed admission: {', '.join(report.failing())}"
        )
    return op.admit()
