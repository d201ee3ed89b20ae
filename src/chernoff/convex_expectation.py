"""Finite scenario-based convex expectations and their one-step operators.

A convex expectation on the real line is represented as a finite max of
linear expectations minus penalties,

    E[X] = max_i ( E_i[X] - alpha_i ),     min_i alpha_i = 0,

with each E_i a Gaussian or a finite discrete distribution (a point
mass is a one-atom discrete distribution).  This class is
closed under everything the iteration needs and makes E computable:
scalar functionals by Gauss-Hermite quadrature of one fixed order
(``GH_ORDER``) or direct enumeration, grid steps by exact discrete
convolutions, and the maximally distributed limit by a sup-convolution
with the lower convex hull of the penalised means.  Steps and limit read
the grid through the same edge-clamped window
(``kernels.clamped_window``).  The growth certificate of the clt bounds
searches fixed grids of lambdas and moment combinations.

The one-step operators of all three families (lln, clt and nisio, whose
controls are penalty-free Gaussian scenarios) are one plan,
``penalized_max_plan``, at the family's (shift, std) scaling, which
``family_plan`` holds.  A plan steps one row of values or a stack of
rows through the same code; ``lln_step``, ``clt_step`` and
``nisio.nisio_step`` build one for a single call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from .core import DomainError, Grid, GridFunction
from .kernels import (
    apply_shift,
    clamped_window,
    clip_shift,
    gaussian_convolve,
    gaussian_plan,
    row_max,
    shift_taps,
)

__all__ = [
    "Scenario",
    "ScenarioConvexExpectation",
    "GrowthCertificate",
    "lln_step",
    "clt_step",
    "family_plan",
    "family_scales",
    "penalized_max_plan",
    "step_once",
    "maximally_distributed_limit",
    "g_function",
    "growth_certificate",
    "load_scenarios",
    "parse_scenarios",
]

# the order of the Gauss-Hermite rule every Gaussian scenario integrates with
GH_ORDER = 32


@lru_cache(maxsize=None)
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights of order ``GH_ORDER``, computed
    once, read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(GH_ORDER)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class Scenario:
    """One linear expectation with a penalty.

    ``kind`` is "gaussian" (std ``sigma``, located at ``mean``) or
    "discrete" (``atoms`` with probabilities ``weights``; ``mean`` is
    then derived from them).
    """

    kind: str
    mean: float = 0.0
    sigma: float = 0.0
    atoms: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()
    penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "discrete"):
            raise DomainError(f"unknown scenario kind {self.kind!r}")
        if not (np.isfinite(self.penalty) and self.penalty >= 0):
            raise DomainError("scenario penalty must be finite and >= 0")
        if self.kind == "gaussian":
            if not (np.isfinite(self.sigma) and self.sigma >= 0):
                raise DomainError("gaussian scenario needs a finite sigma >= 0")
            object.__setattr__(self, "mean", _location(self.mean, "mean"))
            return
        if not self.atoms:
            raise DomainError("discrete scenario needs at least one atom")
        atoms = tuple(_location(a, "atoms") for a in self.atoms)
        w = np.asarray(self.weights, dtype=float)
        if len(w) != len(atoms) or not np.all(w >= 0) or not abs(w.sum() - 1.0) <= 1e-12:
            raise DomainError("atom probabilities must be finite, >= 0 and sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "mean", float(w @ np.asarray(atoms)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, mean, penalty: float = 0.0) -> "Scenario":
        """A point mass: the one-atom discrete scenario."""
        return cls.discrete([_location(mean, "mean")], [1.0], penalty)

    @classmethod
    def gaussian(cls, mean, sigma: float, penalty: float = 0.0) -> "Scenario":
        return cls("gaussian", mean, sigma=float(sigma), penalty=float(penalty))

    @classmethod
    def discrete(cls, atoms, weights, penalty: float = 0.0) -> "Scenario":
        return cls(
            "discrete",
            atoms=tuple(atoms),
            weights=tuple(float(w) for w in weights),
            penalty=float(penalty),
        )

    # -- integration -------------------------------------------------------

    @cached_property
    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.sigma**2
        pts = np.asarray(self.atoms) - self.mean
        return float((np.asarray(self.weights) * pts) @ pts)

    def support_points(self):
        """Quadrature points and weights for E_i: the atoms themselves, or
        the Gauss-Hermite rule of order ``GH_ORDER``."""
        if self.kind == "discrete":
            return np.asarray(self.atoms), np.asarray(self.weights)
        nodes, w = _hermite_rule()
        return self.mean + self.sigma * np.sqrt(2.0) * nodes, w / np.sqrt(np.pi)

    def expectation(self, payoff: Callable) -> float:
        """E_i[payoff(xi)]; the payoff receives a flat array."""
        pts, w = self.support_points()
        out = float(np.dot(w, np.asarray(payoff(pts), dtype=float)))
        if not np.isfinite(out):
            raise DomainError("scenario expectation is not finite")
        return out

    def raw_moment(self, order: int) -> float:
        pts, w = self.support_points()
        return float(np.dot(w, pts**order))


def _location(x, field: str) -> float:
    """A scenario location: a number, or a one-entry list as the line's
    coordinate vector."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (1,):
        raise DomainError(
            f"scenario {field} must be a number or a one-entry list "
            f"(scenarios live on the line), got shape {arr.shape}"
        )
    if not np.isfinite(arr[0]):
        raise DomainError(f"scenario {field} must be finite")
    return float(arr[0])


@dataclass(frozen=True)
class ScenarioConvexExpectation:
    """max-of-linear-minus-penalty convex expectation on the real line."""

    scenarios: tuple[Scenario, ...]

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise DomainError("need at least one scenario")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if min(s.penalty for s in self.scenarios) > 1e-12:
            raise DomainError("the smallest penalty must be 0 (so that E[0] = 0)")

    @property
    def is_sublinear(self) -> bool:
        return all(s.penalty == 0.0 for s in self.scenarios)

    @property
    def zero_mean(self) -> bool:
        return all(abs(s.mean) < 1e-12 for s in self.scenarios)

    @property
    def third_moments_zero(self) -> bool:
        return all(abs(s.raw_moment(3)) < 1e-9 for s in self.scenarios)

    def evaluate(self, payoff: Callable) -> float:
        return max(s.expectation(payoff) - s.penalty for s in self.scenarios)

    def abs_moment_combination(self, coefficients: dict[int, float]) -> float:
        """E[ sum_k c_k |xi|^k ] evaluated as one payoff (E is not linear)."""

        def payoff(xi):
            mag = np.abs(xi)
            out = np.zeros_like(mag)
            for k, c in coefficients.items():
                out += c * mag**k
            return out

        return self.evaluate(payoff)


# ---------------------------------------------------------------------------
# one-step operators on grid functions


def _discrete_plan(shifts, minus: float, shape: tuple[int, ...]):
    """E_i[u(x + scale xi)] - ``minus`` for a discrete scenario as
    ``expect(out)``, from its atoms' ``shifts`` ((probability, shift row)
    pairs, each row one or two scaled slices of the step's filled
    window).  One atom of probability 1 is its shift, ``minus``
    included (``apply_shift``)."""
    if len(shifts) == 1 and shifts[0][0] == 1.0:
        return partial(apply_shift, shifts[0][1], minus=minus)
    term = np.empty(shape)

    def expect(out):
        for i, (prob, shift) in enumerate(shifts):
            res = apply_shift(shift, term if i else out)
            if prob != 1.0:  # x * 1.0 is x exactly
                res *= prob
            if i:
                out += res
        if minus:
            out -= minus
        return out

    return expect


def _clipped(taps, n: int) -> tuple[int, tuple[float, ...]]:
    """A shift row's ``shift_taps`` as its first offset, clipped to rows
    of ``n`` values by ``clip_shift``, and its weights as floats, which
    ``ClampedWindow.shift`` reads faster than an array's entries."""
    offsets, weights = taps
    return clip_shift(int(offsets[0]), n), tuple(weights.tolist())


def _is_view(scenario, minus: float) -> bool:
    """Whether a discrete scenario's row is a view of the window: one
    whole-cell atom of probability 1, and ``minus`` 0."""
    if minus or len(scenario) != 1:
        return False
    prob, (_, weights) = scenario[0]
    return prob == 1.0 and weights == (1.0,)


def penalized_max_plan(
    ce: ScenarioConvexExpectation,
    grid: Grid,
    t: float,
    scale: float,
    std_scale: float,
    cut: float,
    stack: int | None = None,
):
    """Pointwise max_i (E_i[u(x + scaled displacement)] - t alpha_i) as a
    plan ``step(u, out)``: scenario i moves by ``scale`` m_i (each atom
    of a discrete one by ``scale`` times the atom) and a Gaussian one
    spreads with std ``std_scale`` sigma_i; ``family_plan`` holds the
    three families' scalings.  Each scenario fills one row: the Gaussian
    ones together, from one ``gaussian_convolve`` call whose factors and
    ``TapPlan`` are built here, then each discrete one.  When no Gaussian
    scenario spreads (every sigma is 0), each is the point mass at its
    mean, its row still ahead of the discrete ones.

    A step reads ``u`` through one edge-clamped window over every row's
    offsets: the Gaussian plan's own on its direct branch, widened to
    reach the atoms, else one the step plan holds, widened to cover
    offset 0 as well.  Each atom is one or two scaled slices of that
    window, from its first offset clipped to [-n, n] (``clip_shift``),
    so the window spans at most 3n + 1 entries however far an atom lies,
    and a row that is one whole-cell atom of probability 1 with no
    penalty is a view of it, not a copy.  On the FFT branch the Gaussian
    rows are the transform's output buffer itself.

    ``u`` and ``out`` are one row of values, or with ``stack`` = b a (b,
    n) stack of rows, each stepped as a one-row plan steps it; the
    plan's protocol (``drop``, ``frame()``) is ``StepOperator.plan``'s.
    The window and row buffers are the plan's own, so one plan must not
    run in two threads at once.

    Every plan declares ``drop`` = t min_i alpha_i: each row averages
    ``u`` with nonnegative weights that sum to 1, less t alpha_i, and the
    least-penalised row bounds the max from below, so a step's values
    lie in [min u - drop, max u] up to rounding.  A one-row plan that
    fills its own window and steps two whole-cell points of probability
    1 at offsets that differ (two ``lln`` or ``clt`` points, or Gaussians
    of sigma 0) also offers ``frame()``, a ``TiltedFrame`` on that window
    and its twin (``_tilted_frame``)."""
    if t < 0:
        raise DomainError("step size must be nonnegative")
    shape = _shape(grid, stack)
    gaussian = [s for s in ce.scenarios if s.kind == "gaussian"]
    discrete = [s for s in ce.scenarios if s.kind != "gaussian"]
    if all(s.sigma == 0 for s in gaussian):  # shifts alone: a Gaussian is its mean
        discrete = [Scenario.point(s.mean, s.penalty) for s in gaussian] + discrete
        gaussian = []
    stds = [s.sigma * std_scale for s in gaussian]
    shifts = [scale * s.mean for s in gaussian]
    dx = grid.spacing[0]
    # each atom as its first offset, clipped to the grid (``clip_shift``), and its taps
    atoms = [
        [
            (prob, _clipped(shift_taps(scale * x, dx), grid.size))
            for x, prob in zip(s.atoms, s.weights)
        ]
        for s in discrete
    ]
    offsets = [o for scenario in atoms for _, (lo, w) in scenario for o in (lo, lo + len(w) - 1)]
    reach = (min(offsets), max(offsets)) if offsets else None
    taps = gaussian_plan(grid, stds, shifts, cut, stack, reach) if gaussian else None
    own = None  # the step plan's own window, which it fills itself
    if taps is not None and taps.spectra is None:
        clamp = taps.clamp  # the Gaussian plan's, filled by its call
    elif atoms:
        own = clamp = clamped_window(grid.size, min(reach[0], 0), max(reach[1], 0), shape[:-1])
    else:
        clamp = None  # no atom reads a window
    penalties = [t * s.penalty for s in discrete]
    gaussian_rows = ()
    if taps is not None:
        gaussian_rows = taps.outputs
        if gaussian_rows is None:  # the direct branch writes into rows of the plan's own
            gaussian_rows = np.empty((len(gaussian),) + shape)

    def window_rows(clamp, minus):
        """The rows ``clamp`` gives, one per scenario (each view made once
        rather than per step) less its entry of ``minus``, and the
        discrete rows a step fills: a row that ``_is_view`` is a view of
        the window, any other a row of the plan's own."""
        rows, filled = list(gaussian_rows), []
        for scenario, m in zip(atoms, minus):
            shift_rows = _shift_rows(scenario, clamp)
            if _is_view(scenario, m):
                rows.append(shift_rows[0][1][0][1])
            else:
                rows.append(np.empty(shape))
                filled.append((_discrete_plan(shift_rows, m, shape), rows[-1]))
        return rows, filled

    rows, filled = window_rows(clamp, penalties)
    penalized = [(row, t * s.penalty) for s, row in zip(gaussian, gaussian_rows) if s.penalty]

    def step(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        if own is not None:
            own.fill(u)
        if taps is not None:
            gaussian_convolve(u, grid, stds, shifts, cut, out=gaussian_rows, taps=taps)
        for expect, row in filled:
            expect(row)
        for row, penalty in penalized:
            row -= penalty
        return row_max(rows, out)

    step.drop = t * min(s.penalty for s in ce.scenarios)
    # two whole-cell points at offsets that differ
    offsets = [scenario[0][1][0] for scenario in atoms if _is_view(scenario, 0.0)]
    if own is not None and not stack and taps is None and len(set(offsets)) == len(atoms) == 2:

        def frame() -> TiltedFrame:
            """The plan's ``TiltedFrame`` (``_tilted_frame``) on its window
            and a twin, built when a run asks for it."""
            windows = (own, own.twin())
            views = [window_rows(clamp, (0.0, 0.0))[0] for clamp in windows]
            return _tilted_frame(offsets, penalties, windows, views)

        step.frame = frame
    return step


def _shift_rows(scenario, clamp):
    """A discrete scenario's atoms as (probability, shift row) pairs,
    each row one or two scaled slices of ``clamp``."""
    return [(prob, clamp.shift(lo, w)) for prob, (lo, w) in scenario]


@dataclass(frozen=True, eq=False)
class TiltedFrame:
    """A one-row plan's steps on values held tilted: step j's values u_j
    are held as Y_j = u_j + ``tilt`` + j ``rise``, with ``tilt`` = slope
    (i - c) on the grid's indices i about its centre c = (n - 1) / 2.
    ``step(y, out)`` maps Y_j, one of ``buffers``, to Y_(j+1) in the
    other, and reads no other array.  Every value a step reads lies
    within ``ramp`` = |slope| max |q - c| over the window's offsets q of
    u plus j ``rise``."""

    tilt: np.ndarray
    rise: float
    ramp: float
    buffers: tuple[np.ndarray, np.ndarray]
    step: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def enter(self, values: np.ndarray) -> np.ndarray:
        """Y_0, the tilted ``values``, written into the buffer the first
        step reads."""
        return np.add(values, self.tilt, out=self.buffers[1])

    def leave(self, y: np.ndarray, j: int) -> np.ndarray:
        """u_j from the tilted values ``y`` = Y_j, as a new array."""
        u = y - self.tilt
        u -= j * self.rise
        return u


def _tilted_frame(offsets, penalties, windows, views) -> TiltedFrame:
    """The ``TiltedFrame`` of a one-row plan of two whole-cell points a
    and b at ``offsets`` o_a != o_b cells less ``penalties`` p_a and p_b,
    stepping between the interiors of its two ``windows``, whose ``views``
    hold each window's two rows (views of the window at o_a and o_b).

    Adding slope i to u adds slope o_r to row r, so in the frame Y_j =
    u_j + slope (i - c) + j C row r is Y_j at offset o_r less o_r slope +
    p_r - C.  The slope is minus the chord's through (o_a, p_a) and (o_b,
    p_b), slope = (p_b - p_a) / (o_a - o_b), and C = slope o_a + p_a,
    the chord at 0, so both rows take off nothing: each is its view, and
    a step is the ramps of the window's edge cells
    (``ClampedWindow.ramps``), which make the window hold the clamped u
    tilted as its interior is, and one ``np.maximum``.  An offset clipped
    to [-n, n] reads edge cells alone, which the ramp tilts at the
    clipped offset, as the slope does."""
    (o_a, o_b), (p_a, p_b) = offsets, penalties
    slope = (p_b - p_a) / (o_a - o_b)
    held = [(clamp.ramps(slope), *rows) for clamp, rows in zip(windows, views)]
    second = windows[1].interior

    def step(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        edges, a, b = held[y is second]
        for dst, src, ramp in edges:
            np.add(src, ramp, out=dst)
        return np.maximum(a, b, out=out)

    n = windows[0].n
    centre = (n - 1) / 2
    first, last = windows[0].lo, windows[0].lo + windows[0].window.shape[-1] - 1
    return TiltedFrame(
        tilt=slope * np.arange(-centre, n - centre),
        rise=slope * o_a + p_a,
        ramp=abs(slope) * max(centre - first, last - centre),
        buffers=tuple(clamp.interior for clamp in windows),
        step=step,
    )


def _shape(grid: Grid, stack: int | None) -> tuple[int, ...]:
    """The shape of one row of values on ``grid``, or of a stack of them."""
    return grid.counts if stack is None else (stack,) + grid.counts


def family_plan(
    kind: str, ce: ScenarioConvexExpectation, grid: Grid, t: float, cut: float = 8.0,
    stack: int | None = None,
):
    """The step of size t of the ``kind`` family of ``ce`` as a plan
    ``step(u, out)`` on one row of values or a ``stack`` of rows: the
    ``penalized_max_plan`` at the family's (shift, std) scaling, lln
    (t, t), clt (sqrt t, sqrt t) or nisio (t, sqrt t)."""
    return penalized_max_plan(ce, grid, t, *family_scales(kind, t), cut, stack)


def family_scales(kind: str, t: float) -> tuple[float, float]:
    """How far a step of size t of the ``kind`` family moves a scenario
    and how it spreads a Gaussian one: (shift, std) scale factors lln
    (t, t), clt (sqrt t, sqrt t) and nisio (t, sqrt t)."""
    rt = math.sqrt(max(t, 0.0))
    return {"lln": (t, t), "clt": (rt, rt), "nisio": (t, rt)}[kind]


def step_once(kind: str, ce, f: GridFunction, t: float, cut: float) -> GridFunction:
    """One step of size t of ``family_plan(kind, ce, ...)`` on f, built
    for this call alone; t = 0 returns f, and t < 0 raises as the plan
    does."""
    if t == 0:
        return f
    step = family_plan(kind, ce, f.grid, t, cut)
    return GridFunction(f.grid, step(f.values, np.empty(f.grid.counts)))


def lln_step(
    ce: ScenarioConvexExpectation, f: GridFunction, t: float, cut: float = 8.0
) -> GridFunction:
    """Large-numbers step: pointwise max_i (E_i[f(x + t xi)] - t alpha_i)."""
    return step_once("lln", ce, f, t, cut)


def clt_step(
    ce: ScenarioConvexExpectation, f: GridFunction, t: float, cut: float = 8.0
) -> GridFunction:
    """Central-limit step: as lln_step with sqrt(t) spatial scaling."""
    return step_once("clt", ce, f, t, cut)


# ---------------------------------------------------------------------------
# limits and certificates


def _lower_hull(ce: ScenarioConvexExpectation):
    """phi, the conjugate of psi(z) = max_i (z m_i - alpha_i): the lower
    convex hull of the points (m_i, alpha_i), +inf off [min m, max m]
    (Rockafellar, Convex Analysis, section 16).

    One monotone-chain pass over the points sorted by mean, the least
    penalty of each mean first, keeps the hull's vertices; phi is linear
    between them.  Returns ``phi`` on arrays of y, finite up to a
    rounding tolerance past the ends, and the vertices' means.
    """
    means = np.array([s.mean for s in ce.scenarios])
    pens = np.array([s.penalty for s in ce.scenarios])
    order = np.lexsort((pens, means))
    first = np.r_[True, np.diff(means[order]) > 0]
    hull: list[tuple[float, float]] = []
    for m, a in zip(means[order][first].tolist(), pens[order][first].tolist()):
        # drop the last vertex while it lies on or above the chord to (m, a)
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (a - hull[-2][1])
            <= (hull[-1][1] - hull[-2][1]) * (m - hull[-2][0])
        ):
            hull.pop()
        hull.append((m, a))
    vertices, levels = np.array(hull).T
    tol = 1e-12 * (1.0 + float(np.max(np.abs(means))))

    def phi(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        vals = np.interp(y, vertices, levels)
        vals[(y < vertices[0] - tol) | (y > vertices[-1] + tol)] = np.inf
        return vals

    return phi, vertices


def maximally_distributed_limit(ce: ScenarioConvexExpectation, f: GridFunction) -> GridFunction:
    """The limit functional as a grid function: x -> sup_y (f(x+y) - phi(y)).

    phi is the conjugate of z -> E[z xi], the lower convex hull of the
    points (m_i, alpha_i) and +inf off [min m, max m] (see
    ``_lower_hull``); f(x + y) is the linear interpolant of f, constant
    past the grid.  f(x + y) - phi(y) is piecewise linear in y, with its
    breaks at the lower-hull vertices and the whole-cell shifts y in
    dx Z, so the sup over those finitely many y is exact.  On a uniform
    grid the interpolation weights of x + y are the same for every x, so
    each y reads slices of one edge-clamped window of f
    (``kernels.clamped_window``, the clamp the steps use).

    The hull vertices (and a whole cell past an end vertex by less than
    phi's rounding tolerance) are candidates one by one, each the shift
    row of its cell, two scaled slices or one (``ClampedWindow.shift``,
    ``apply_shift``) less its cost.  The whole cells of each hull piece,
    on which phi is linear, are one sliding-window max of the window
    minus the piece's linear cost, in O(n + width) work however wide the
    piece is (``_tilted_window_max``).  Only cells whose cost is at most
    the oscillation of f take part: every other one sits below the
    zero-penalty vertex's value, min f at least.  The tilt is anchored
    at the start of each block of the window's length, so no
    intermediate exceeds sup|f| plus the piece's kept penalty rise, at
    most max f - min f.  Against one subtraction per whole cell, the
    result moves by a few roundings of that size: within 1e-14 *
    max(1, sup|f|).
    """
    grid = f.grid
    phi, vertices = _lower_hull(ce)
    dx = grid.spacing[0]
    # every candidate in cell units t = y / dx
    cells = np.arange(np.floor(vertices[0] / dx), np.ceil(vertices[-1] / dx) + 1)
    t = np.unique(np.concatenate([vertices / dx, cells]))
    cost = phi(t * dx)
    t, cost = t[np.isfinite(cost)], cost[np.isfinite(cost)]

    cell = np.floor(t)
    n = grid.size
    # one edge-clamped window of f over every cell a candidate reads,
    # the cell past the last one included for its second slice
    clamp = clamped_window(n, int(cell.min()), int(cell.max()) + 1)
    window = clamp.fill(f.values)
    out = np.full(n, -np.inf)
    # the whole cells of each hull piece, on which phi is linear
    ends = vertices / dx
    pieces = [(t == cell) & (t >= a) & (t <= b) for a, b in zip(ends[:-1], ends[1:])]
    spread = float(np.max(f.values)) - float(np.min(f.values))  # inf past the float range
    for piece in pieces:
        kept = piece & (cost <= spread)
        if not kept.any():
            continue
        shifts, costs = t[kept], cost[kept]
        width = int(shifts[-1] - shifts[0]) + 1
        slope = (costs[-1] - costs[0]) / (width - 1) if width > 1 else 0.0
        start = int(shifts[0]) - clamp.lo
        best = _tilted_window_max(window[start : start + n + width - 1], width, slope, n)
        np.maximum(out, best - costs[0], out=out)
    explicit = ~np.any(pieces, axis=0) if pieces else np.ones(t.size, dtype=bool)
    shifted = np.empty(n)
    for c, w, penalty in zip(
        cell[explicit].astype(int).tolist(),
        (t - cell)[explicit].tolist(),
        cost[explicit].tolist(),
    ):
        apply_shift(clamp.shift(c, (1.0 - w, w) if w else (1.0,)), shifted, penalty)
        np.maximum(out, shifted, out=out)
    return GridFunction(grid, out)


def _tilted_window_max(values: np.ndarray, width: int, slope: float, count: int) -> np.ndarray:
    """``m[s] = max over 0 <= r < width of (values[s + r] - slope r)`` for
    s < ``count``, from ``count + width - 1`` values, in O(count + width)
    work: the van Herk / Gil-Werman sliding max (Pattern Recognit. Lett.
    1992; IEEE PAMI 1993).  The values are cut into blocks of ``width``,
    tilted by slope times the offset from their block's start; the window
    from s = b width + r is the running max back from the end of block b
    and, for r > 0, the running max from the start of block b + 1, each
    re-tilted to start at s."""
    blocks = -(-count // width) + 1
    tilted = np.full(blocks * width, -np.inf)
    tilted[: count + width - 1] = values[: count + width - 1]
    tilted = tilted.reshape(blocks, width)
    ramp = slope * np.arange(width)
    tilted -= ramp
    ahead = np.maximum.accumulate(tilted[:, ::-1], axis=1)[:, ::-1]
    behind = np.maximum.accumulate(tilted, axis=1)
    best = ahead[:-1] + ramp
    # entry q of block b + 1 lies width - r + q cells past s
    np.maximum(best[:, 1:], behind[1:, :-1] - ramp[:0:-1], out=best[:, 1:])
    return best.reshape(-1)[:count]


def g_function(ce: ScenarioConvexExpectation, a: float) -> float:
    """E[(1/2) a xi^2] = max_i ((1/2) a Var_i - alpha_i), zero-mean scenarios."""
    if not ce.zero_mean:
        raise DomainError("this quadratic functional requires zero-mean scenarios")
    return max(0.5 * (float(a) * s.variance) - s.penalty for s in ce.scenarios)


@dataclass(frozen=True)
class GrowthCertificate:
    """Certified (a, p): E[lambda g] <= a lambda^p E[g] for lambda >= 1,
    g in the tested cone of |xi|^2 / |xi|^3 combinations."""

    a: float
    p: float

    def __post_init__(self) -> None:
        if not (self.a >= 0 and self.p >= 1):
            raise DomainError("certificate needs a >= 0 and p >= 1")


# the lambdas and the (c1, c2) of c1 |xi|^2 + c2 |xi|^3 that
# ``growth_certificate`` tests the growth condition on
_LAMBDA_GRID = np.geomspace(1.0, 100.0, 25)
_LAMBDA_GRID.flags.writeable = False
_C_GRID = (
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0, 1.0),
    (0.25, 2.0),
    (2.0, 0.25),
    (4.0, 0.5),
    (0.5, 4.0),
)


def growth_certificate(ce: ScenarioConvexExpectation) -> GrowthCertificate:
    """Search the smallest p in {1, 2, 3} and the ratio sup a on the
    module's lambda and (c1, c2) grids."""
    base = {}
    for c1, c2 in _C_GRID:
        base[(c1, c2)] = ce.abs_moment_combination({2: c1, 3: c2})

    tiny = 1e-300
    for p in (1.0, 2.0, 3.0):
        worst = 0.0
        feasible = True
        for c1, c2 in _C_GRID:
            b = base[(c1, c2)]
            for lv in _LAMBDA_GRID:
                scaled = ce.abs_moment_combination({2: lv * c1, 3: lv * c2})
                if b <= tiny:
                    if scaled > 1e-12:
                        feasible = False
                        break
                    continue
                worst = max(worst, scaled / (lv**p * b))
            if not feasible:
                break
        if feasible and worst <= 1e12:
            return GrowthCertificate(a=worst, p=p)
        if ce.is_sublinear:
            break  # sublinear always certifies at p = 1; do not mask a bug
    raise DomainError("no growth certificate with p <= 3 on the tested grids")


# ---------------------------------------------------------------------------
# scenario files


def parse_scenarios(obj) -> ScenarioConvexExpectation:
    if not isinstance(obj, list) or not obj:
        raise DomainError("scenario file must hold a non-empty JSON list")
    out = []
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict) or "type" not in entry:
            raise DomainError(f"scenario {i}: expected an object with a 'type' field")
        kind = entry["type"]
        if kind not in ("point", "gaussian", "discrete"):
            raise DomainError(f"scenario {i}: unknown type {kind!r}")
        penalty = entry.get("penalty", 0.0)
        try:
            if kind == "point":
                out.append(Scenario.point(entry["mean"], penalty))
            elif kind == "gaussian":
                out.append(Scenario.gaussian(entry["mean"], entry["sigma"], penalty))
            else:
                out.append(Scenario.discrete(entry["atoms"], entry["weights"], penalty))
        except KeyError as exc:
            raise DomainError(f"scenario {i}: missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise DomainError(f"scenario {i}: {exc}") from exc
    return ScenarioConvexExpectation(tuple(out))


def load_scenarios(path) -> ScenarioConvexExpectation:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"scenario file {path}: invalid JSON ({exc})") from exc
    return parse_scenarios(obj)
