"""Iterated one-step operators on equidistant partitions.

The iteration applies a fixed step operator k times, where k is the
largest whole number of steps fitting into the target time; no
fractional final step is taken, so times below one step return the
input unchanged.

Every step of one run has the same h, so the run asks the operator
once for a plan: ``op.plan(grid, h)`` returns ``step(u, out)``, which
maps the value array ``u`` to the next iterate, writes it into the
preallocated ``out`` and returns it.  Every operator has a planner;
the families build their taps, penalties and scratch buffers into the
plan.  ``chernoff_iterate`` is the one loop: it runs the plan on two
ping-pong buffers and wraps one ``GridFunction`` at the end.  A family
step is monotone and moves a constant down by at most t min_i alpha_i,
so a plan that declares that ``drop`` proves a run from a payoff far
inside the float range finite once, before the first step
(``FINITE_SUP``); any other run is checked after every step, by one
sum unless that sum is not finite, so the failing step is named even
when a later step would move a non-finite value off the grid.  A plan
may offer its own pair of ``buffers``, arrays of the values'
shape that it reads in place; the loop then steps from one into the
other, and otherwise on two arrays of its own.  The families' plans
whose window is their own offer the interiors of their two windows
(``convex_expectation.penalized_max_plan``), so each step writes its
values into the window the next step reads.  A plan of two penalised
whole-cell points also offers ``frame()``, which builds a tilted frame
(``convex_expectation.TiltedFrame``) that holds the values as u_j +
tilt + j C and steps them between the plan's buffers with the
penalties folded into the tilt; the loop runs a run it can prove finite
with what the frame holds, and whose tilt stays within ``FRAME_RAMP``,
in that frame, enters it once and leaves it at the end and for each
recorded frame.  A wrapper of a plan forwards its ``frame`` with its
``buffers`` and ``drop`` or not at all, as the frame's steps bypass the
wrapper's step; a wrapper that forwards the buffers alone is stepped by
its own step.  The returned ``GridFunction`` and every recorded frame
are copies, which later use of the plan does not change.

A plan may also be built for a stack of b rows, ``op.plan(grid, h,
b)``, and then steps a (b, n) array through the same code, each row to
the bits the one-row plan gives it.  ``stacked_steps`` runs a stack of
any height in blocks of at most ``BLOCK_BYTES`` of values, one plan per
block height; the structural suite and ``discrete_comparison_check``
step through it.

``chernoff_runs`` runs ``chernoff_iterate`` at several step sizes
through one thread pool, the runs with the most steps first, and
returns their iterates in the order asked; ``worker_count`` sizes the
pool.  ``chernoff run`` sends the fine oracle's two levels and every
curve point through one such call.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import DomainError, Grid, GridFunction, SpaceTimeFunction


# A stack of value rows is stepped in blocks of at most this many bytes
# of values (511 rows of 513 points, 64 of 4095), so a stacked plan's
# buffers stay a few such blocks however many rows the stack has.
BLOCK_BYTES = 2**21

# A run is proved finite before its first step when its plan declares
# its ``drop`` (``convex_expectation.penalized_max_plan``), it has at
# most FINITE_STEPS steps and sup|f| + k drop <= FINITE_SUP, or in a
# tilted frame sup|f| + k drop + R + k |C|, what its buffers hold (see
# FRAME_RAMP): the tilt adds a fixed R and C per step.  Each row of
# such a step averages u with nonnegative weights, less t alpha_i >= 0,
# and the least-penalised row lies within ``drop`` of min u, so a step
# maps sup|u| to at most (1 + eps)(sup|u| + drop).  The weights sum to 1
# within 1e-12 (a discrete scenario's probabilities) and a sum of m <
# 2^36 taps or an FFT of length L < 2^36 rounds by less than 2^-17
# relative to sup|u|, so eps < 2^-16.  Over at most 2^24 steps the growth
# (1 + eps)^k stays below e^256 < 2^370, every iterate below 2^626, and
# no tap sum, FFT spectrum or inverse-transform intermediate (at most
# L^2 sup|u|, below 2^698) comes near the float range's 2^1024.
FINITE_SUP = 2.0**256
FINITE_STEPS = 2**24

# A plan's tilted frame (``convex_expectation.TiltedFrame``) holds step
# j's values plus a tilt of at most its ``ramp`` R in absolute value and
# j times its ``rise`` C, so what its buffers hold is bounded by S =
# sup|f| + k drop + R + k |C|, and a run is proved finite in it when S <=
# FINITE_SUP.  A run steps in the frame only when R <= FRAME_RAMP.  Its
# steps take maxima of views, which round nothing; the frame rounds on
# entry and exit (the tilt, the values and j C: 3 eps S), in the slope
# and C it defers (eps S + 2 eps t max alpha over a run to t) and at the
# edge cells, each ramp add by at most eps S.  A ramp's rounding read by
# one step costs eps S once, but where the maxima carry it from step to
# step, as at an edge cell whose max is the ramped cell beside it, each
# of those m <= k steps adds its own: against the exact steps a run is
# within (5 + m) eps S + 2 eps t max alpha, and against the untilted
# steps k eps (sup|f| + k drop) more, their own rounding of the penalty
# at each step.  R <= 16 keeps S within 16 of that sup for a payoff of
# order 1, a few bits at most.  A steeper tilt steps untilted, as every
# run the frame cannot prove finite does.
FRAME_RAMP = 16.0


class IterationError(RuntimeError):
    """A step operator failed mid-run; message carries the step index."""


@dataclass(frozen=True)
class Partition:
    """Equidistant partition of [0, t] with step h and k whole steps."""

    t: float
    h: float
    k: int

    def __post_init__(self):
        if self.h <= 0:
            raise DomainError("step size must be positive")
        if self.t < 0:
            raise DomainError("time must be non-negative")
        if not (self.k * self.h <= self.t * (1 + 1e-12) + 1e-15):
            raise DomainError("partition invariant k h <= t violated")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(j * self.h for j in range(self.k + 1))


def partition(t: float, h: float) -> Partition:
    if not math.isfinite(h):
        raise DomainError(f"step size h must be finite, got {h!r}")
    if not math.isfinite(t):
        raise DomainError(f"time t must be finite, got {t!r}")
    if h <= 0:
        raise DomainError("step size must be positive")
    if t < 0:
        raise DomainError("time must be non-negative")
    # nudge against roundoff so t an exact multiple of h lands on k = t/h
    k = int(math.floor(t / h + 1e-9))
    return Partition(t=float(t), h=float(h), k=max(k, 0))


@dataclass(frozen=True)
class StepOperator:
    """A one-step rule plus the metadata the experiments need.

    step(f, h) must be monotone, convex, zero-preserving and a sup-norm
    contraction; admit() flips the flag after the property suite has
    seen the operator (the rates module refuses unadmitted operators).
    sigma_scale and drift_scale describe the spatial reach of one step
    (sigma_scale * sqrt(h) + drift_scale * h) for interior margins.
    planner(grid, h, stack=None) builds the same step as a plan on value
    arrays (see ``plan``); every operator has one, and the families'
    constructors set it to ``family_plan``.  A plan may carry
    ``buffers``, two arrays it reads in place, which ``chernoff_iterate``
    steps between, ``drop``, a bound on how far a step falls below min
    u, from which it proves a run finite (``FINITE_SUP``), and
    ``frame()``, which builds a tilted frame that steps between the
    buffers with the penalties applied once per run (``FRAME_RAMP``);
    all belong to the plan, so an operator with another planner has
    none, and a planner that wraps a family's plan forwards the frame
    with the buffers and drop or not at all.
    shifts_only marks a family whose steps have no Gaussian factor, so
    each step only sums a few shifted copies of the values.
    """

    name: str
    step: Callable[[GridFunction, float], GridFunction]
    planner: Callable[..., Callable[[np.ndarray, np.ndarray], np.ndarray]]
    sigma_scale: float = 0.0
    drift_scale: float = 0.0
    admitted: bool = False
    shifts_only: bool = False

    def admit(self) -> "StepOperator":
        return replace(self, admitted=True)

    def plan(
        self, grid: Grid, h: float, stack: int | None = None
    ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """``step(u, out)``: one step of size h on the value array u, one
        row of values or, with ``stack`` = b, a (b, n) stack of rows,
        written into ``out`` and returned."""
        return self.planner(grid, h, stack)

    @classmethod
    def from_nisio(cls, family, cut: float = 8.0) -> "StepOperator":
        from .nisio import nisio_step

        return cls._family(
            "nisio", family.expectation, cut, lambda f, h: nisio_step(family, f, h, cut=cut),
            sigma_scale=family.sigma_max, drift_scale=family.drift_max,
        )

    @classmethod
    def from_lln(cls, ce, cut: float = 8.0) -> "StepOperator":
        from .convex_expectation import lln_step

        return cls._family(
            "lln", ce, cut, lambda f, h: lln_step(ce, f, h, cut=cut),
            drift_scale=_scenario_reach(ce),
        )

    @classmethod
    def from_clt(cls, ce, cut: float = 8.0) -> "StepOperator":
        from .convex_expectation import clt_step

        return cls._family(
            "clt", ce, cut, lambda f, h: clt_step(ce, f, h, cut=cut),
            sigma_scale=_scenario_reach(ce),
        )

    @classmethod
    def _family(cls, kind: str, ce, cut: float, step, **reach) -> "StepOperator":
        """The ``kind`` family of the scenarios ``ce``: ``step`` is its
        one-shot step function, looked up by the caller when the operator
        is built, and its planner is ``family_plan``."""
        from .convex_expectation import family_plan

        return cls(
            name=kind,
            step=step,
            planner=lambda grid, h, stack=None: family_plan(kind, ce, grid, h, cut, stack),
            shifts_only=all(s.sigma == 0 for s in ce.scenarios),
            **reach,
        )

    def reach(self, t: float) -> float:
        return self.sigma_scale * math.sqrt(max(t, 0.0)) + self.drift_scale * t


def _scenario_reach(ce) -> float:
    return max((scenario_reach(s) for s in ce.scenarios), default=0.0)


def scenario_reach(s) -> float:
    """How far a step of unit scale reaches with scenario ``s``: its
    farthest atom, or its mean plus one standard deviation."""
    if s.kind == "discrete":
        return max(abs(a) for a in s.atoms)
    return abs(s.mean) + s.sigma


def chernoff_iterate(
    op: StepOperator,
    f: GridFunction,
    t: float,
    h: float,
    record: bool = False,
):
    """Apply op k = floor(t/h) times through one plan; optionally keep (a
    copy of) every iterate.  The steps alternate between the plan's
    ``buffers`` when it offers them, else two arrays of the loop's own;
    the first step reads ``f.values``, which no step writes.

    A plan that declares its ``drop`` keeps sup|u| + drop within a
    rounding of sup|u| per step, so a run with sup|f| + k drop at most
    ``FINITE_SUP`` (and at most ``FINITE_STEPS`` steps) is finite at
    every step, proved once before the first.  Every other run (a plan
    that declares no ``drop``, values near the float range, an inf or
    nan in ``f.values``) is checked after every step (``_all_finite``),
    so the step that made a value non-finite is named even when a later
    step would move it off the grid.

    The tilted frame a plan's ``frame()`` builds runs the steps when its
    ``ramp`` is at most ``FRAME_RAMP`` and the run is proved finite with
    the frame's ramp and rise counted (``_proved_finite``): the values
    enter the frame once, each step is the frame's, and the result and
    every recorded frame leave it.  Against the untilted steps the
    values move by a rounding of the size the frame holds: see
    ``FRAME_RAMP``."""
    part = partition(t, h)
    frames = [f]
    if part.k == 0:
        return (f, SpaceTimeFunction.from_functions(part.times, frames)) if record else f
    grid = f.grid
    u = f.values
    j = 0
    try:
        step = op.plan(grid, part.h)
        drop, frame = getattr(step, "drop", None), getattr(step, "frame", None)
        frame = None if frame is None else frame()
        if frame is not None and frame.ramp <= FRAME_RAMP and _proved_finite(u, part.k, drop, frame):
            step, buffers, u, checked = frame.step, frame.buffers, frame.enter(u), False
        else:
            frame = None
            buffers = getattr(step, "buffers", None) or (np.empty(grid.counts), np.empty(grid.counts))
            checked = not _proved_finite(u, part.k, drop)
        # a step that overflows is named by the check below, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(part.k):
                u = step(u, buffers[j % 2])
                if checked and not _all_finite(u):
                    raise DomainError("grid function values must be finite")
                if record:
                    frames.append(GridFunction(grid, u if frame is None else frame.leave(u, j + 1)))
    except Exception as exc:  # noqa: BLE001 - context added, then re-raised
        raise IterationError(
            f"step {j + 1} of {part.k} (h={part.h:g}) failed: {exc}"
        ) from exc
    if record:
        return frames[-1], SpaceTimeFunction.from_functions(part.times, frames)
    return GridFunction(grid, u if frame is None else frame.leave(u, part.k))


def worker_count(n_tasks: int, requested: int | None = None, default: int | None = None) -> int:
    """Worker pool size: explicit argument, else CHERNOFF_WORKERS, else
    ``default``, else the cores this process may run on."""
    if requested is None:
        env = os.environ.get("CHERNOFF_WORKERS", "").strip()
        if env:
            try:
                requested = int(env)
            except ValueError:
                raise DomainError(f"CHERNOFF_WORKERS must be an integer, got {env!r}")
        else:
            requested = default or _usable_cores()
    if requested < 1:
        raise DomainError("worker count must be at least 1")
    return max(1, min(requested, n_tasks))


def _usable_cores() -> int:
    """The cores this process may run on: its affinity set where the
    platform reports one (``taskset`` narrows it below the machine's
    count), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chernoff_runs(
    op: StepOperator, f: GridFunction, t: float, hs, workers: int | None = None
) -> list[GridFunction]:
    """``chernoff_iterate(op, f, t, h)`` for each h of ``hs``, in that order.

    The runs go through one pool of ``worker_count`` threads, the runs
    with the most steps submitted first, so the longest run starts at
    once and the short ones fill the other threads around it.  When runs
    fail, the failure of the first in the order of ``hs`` is raised, the
    error a loop over ``hs`` would raise.  Each run builds its own plan
    (a plan must not run in two threads at once), and numpy's transforms
    and correlations release the interpreter lock, so the iterates are
    the same bits on any number of threads.

    A step that only shifts (no Gaussian factor) sums a few taps, so its
    array calls are too short to overlap: two threads only take turns on
    the interpreter lock, at 0.64x the serial speed on a 4095-point
    two-point lln family.  Such operators default to one thread, and
    one thread runs ``hs`` in order with no pool.
    """
    hs = [float(h) for h in hs]
    n = worker_count(len(hs), workers, default=1 if op.shifts_only else None)
    if n == 1:
        return [chernoff_iterate(op, f, t, h) for h in hs]
    # the sort is stable: runs of equal length keep the order of hs
    longest_first = sorted(range(len(hs)), key=lambda i: -partition(t, hs[i]).k)
    pool = ThreadPoolExecutor(max_workers=n)
    try:
        futures = {i: pool.submit(chernoff_iterate, op, f, t, hs[i]) for i in longest_first}
        return [futures[i].result() for i in range(len(hs))]
    finally:
        # after a failure, the runs not yet started are not started
        pool.shutdown(cancel_futures=True)


def block_rows(n: int) -> int:
    """How many rows of ``n`` values one block of a stack holds: at most
    ``BLOCK_BYTES`` of them, and at least one row."""
    return max(1, BLOCK_BYTES // (8 * n))


def stacked_steps(op: StepOperator, grid: Grid, h: float):
    """``step(values, out)``: one step of size h of ``op`` on every row of
    the (r, n) stack ``values``, written into ``out`` of the same shape
    and returned.  The rows run in blocks of ``block_rows(n)``, each
    through ``op.plan(grid, h, stack)`` for its height.  The plan is kept
    until a block of another height comes, so a caller that steps block
    after block of one height builds one plan, and only one plan's
    buffers are held at a time.  Each row gets the bits a one-row plan
    gives it.  A non-finite result raises ``DomainError``."""
    held = {}  # the height of the latest block -> its plan
    size = block_rows(grid.size)

    def step(values: np.ndarray, out: np.ndarray) -> np.ndarray:
        for start in range(0, len(values), size):
            block = slice(start, min(start + size, len(values)))
            height = block.stop - start
            if height not in held:
                held.clear()  # its buffers go before the next plan's come
                held[height] = op.plan(grid, h, height)
            held[height](values[block], out[block])
        with np.errstate(over="ignore", invalid="ignore"):
            if not _all_finite(out):
                raise DomainError("grid function values must be finite")
        return out

    return step


def _proved_finite(u: np.ndarray, k: int, drop: float | None, frame=None) -> bool:
    """Whether k steps of a plan that declares ``drop`` keep every value
    of a run from ``u`` finite (see ``FINITE_SUP``): sup|u| + k drop, and
    in a tilted ``frame`` what its buffers hold, up to its ``ramp`` R and
    k times its ``rise`` C more.  A plan that declares no ``drop``, and a
    ``u`` holding an inf or nan, prove nothing."""
    if drop is None or k > FINITE_STEPS:
        return False
    held = 0.0 if frame is None else frame.ramp + k * abs(frame.rise)
    return float(np.max(np.abs(u))) + k * drop + held <= FINITE_SUP


def _all_finite(values: np.ndarray) -> bool:
    """Whether every entry of ``values`` is finite, in one ``np.add.reduce``
    for finite values: a finite sum proves every addend finite.  Only a
    sum that is not finite (an inf or nan among the values, or finite
    values whose sum passes the float range) is checked entry by entry.
    ``stacked_steps`` checks each stacked step with it, and
    ``chernoff_iterate`` each step of a run it cannot prove finite
    beforehand.  The caller silences the sum's overflow warning."""
    return math.isfinite(np.add.reduce(values, axis=None)) or bool(np.isfinite(values).all())


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the discrete comparison inequality on a lattice.

    max_slack is the worst value of lhs - rhs over lattice times (a
    pass means it stays below the tolerance); vacuous is set when one
    of the claimed one-step residual certificates failed, in which
    case the inequality was never in force.
    """

    max_slack: float
    worst_time: float
    vacuous: bool
    certificate_violation: float
    passed: bool


def discrete_comparison_check(
    op: StepOperator,
    u: SpaceTimeFunction,
    v: SpaceTimeFunction,
    f_bound: SpaceTimeFunction,
    g_bound: SpaceTimeFunction,
    h: float,
    T: float,
    tol: float = 1e-9,
) -> ComparisonReport:
    """Check the one-step comparison estimate on the h-lattice.

    Requires u, v on times {0, h, ..., Kh} and residual certificates
    (u(t) - I(h)u(t-h))/h <= f_bound(t) and the reverse for v, g_bound
    on {h, ..., Kh}.  Verifies, for every lattice t <= T,

        sup (u(t)-v(t))^+ <= initial gap
            + t * sup_s sup ((f_bound - g_bound)(s))^+.

    The lattice times are resolved to sample indices once; residuals,
    driver gaps and slack are read from rows of the stacked values.  The
    2K certificate steps I(h)u(t - h) and I(h)v(t - h) run as one stack
    of the u rows and the v rows through ``stacked_steps`` (one plan per
    block height), with no grid function per step; each row gets the
    bits ``op.step`` gives it.
    """
    if h <= 0:
        raise DomainError("step size must be positive")
    if not np.array_equal(u.times, v.times):
        raise DomainError("u and v must share lattice times")
    times = u.times[: np.count_nonzero(u.times <= T + 1e-12)]
    cert = np.flatnonzero(times >= h - 1e-12)
    prev = u.sample_indices(times[cert] - h)
    fi = f_bound.sample_indices(times[cert])
    gi = g_bound.sample_indices(times[cert])

    # certificate verification: the claimed residual bounds must hold
    violation = 0.0
    if cert.size:
        if u.grid != v.grid:
            raise DomainError("grid functions live on different grids")
        stack = np.concatenate((u.values[prev], v.values[prev]))
        stepped = stacked_steps(op, u.grid, h)(stack, np.empty_like(stack))
        res_u = (u.values[cert] - stepped[: cert.size]) / h
        res_v = (v.values[cert] - stepped[cert.size :]) / h
        over = np.max(res_u - f_bound.values[fi], axis=1)
        under = np.max(g_bound.values[gi] - res_v, axis=1)
        violation = max(violation, float(over.max()), float(under.max()))
    vacuous = violation > tol

    # driver gap: sup over certificate times of ((f - g)^+)
    gap_driver = float(np.max(_positive_sups(f_bound, fi, g_bound, gi), initial=0.0))
    head = slice(times.size)
    lhs = _positive_sups(u, head, v, head)
    initial = float(np.max(lhs[times < h - 1e-12]))
    slack = lhs - (initial + times * gap_driver)
    worst = int(np.argmax(slack))
    max_slack = float(slack[worst])
    return ComparisonReport(
        max_slack=max_slack,
        worst_time=float(times[worst]),
        vacuous=vacuous,
        certificate_violation=float(violation),
        passed=(not vacuous) and max_slack <= tol,
    )


def _positive_sups(a: SpaceTimeFunction, ia, b: SpaceTimeFunction, ib) -> np.ndarray:
    """``positive_part_norm(a(s) - b(s))`` for each pair of rows
    ``a.values[ia]``, ``b.values[ib]``, on the stacked rows with no
    ``GridFunction`` per time; a difference that overflows raises as
    the ``GridFunction`` check does."""
    if a.grid != b.grid:
        raise DomainError("grid functions live on different grids")
    part = a.values[ia] - b.values[ib]
    if not np.isfinite(part).all():
        raise DomainError("grid function values must be finite")
    np.maximum(part, 0.0, out=part)
    return part.max(axis=1)
