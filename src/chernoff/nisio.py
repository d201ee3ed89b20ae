"""Finite families of Gaussian one-step operators and their generators.

The one-step operator takes the pointwise best value over a finite list
of constant-coefficient Gaussian controls (sigma, m):

    (I(t)f)(x) = max over controls of  E[f(x + sigma W_t + m t)].

Continuous control sets are represented by finitely many samples; for
convex or concave payoffs the extreme points suffice, otherwise the
finite sup under-approximates and callers should treat the gap as a
modelling caveat rather than a numerical error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DomainError, Grid, GridFunction, weighted_norm
from .kernels import gaussian_convolve, gaussian_plan, row_max


@dataclass(frozen=True)
class GeneratorBounds:
    """Coefficient caps used by the rate bounds.

    first_order / second_order cap the generator itself (v1, v2);
    lipschitz_caps (w1, w2, w3) cap the Lipschitz constant of the
    generator image; squared_caps, present only when the family
    certifies smooth (constant) coefficients, cap the iterated
    generator by fourth-order derivative sums.
    """

    first_order: float
    second_order: float
    lipschitz_caps: tuple[float, float, float]
    squared_caps: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        vals = [self.first_order, self.second_order, *self.lipschitz_caps]
        if self.squared_caps is not None:
            if len(self.squared_caps) != 4:
                raise DomainError("squared_caps must list four coefficients")
            vals.extend(self.squared_caps)
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise DomainError("generator bounds must be finite and non-negative")

    @property
    def smooth(self) -> bool:
        return self.squared_caps is not None

    @classmethod
    def for_constant_coefficients(cls, controls, *, smooth: bool = True):
        """Derive the caps for a 1D constant-coefficient Gaussian family.

        The generator is (1/2) sigma^2 f'' + m f', so the first and
        second order caps are sup|m| and (1/2) sup sigma^2, its
        Lipschitz constant shifts every order up by one, and the
        squared generator expands to
        (1/4) s^4 D^4 + s^2 m D^3 + m^2 D^2.
        """
        if not controls:
            raise DomainError("control list must be non-empty")
        sig = [float(s) for s, _ in controls]
        drift = [float(m) for _, m in controls]
        if any(s < 0 for s in sig):
            raise DomainError("sigma must be non-negative")
        v1 = max(abs(m) for m in drift)
        v2 = max(0.5 * s * s for s in sig)
        caps = (0.0, v1, v2)
        squared = None
        if smooth:
            squared = (
                0.0,
                max(m * m for m in drift),
                max(s * s * abs(m) for s, m in controls),
                max(0.25 * s**4 for s in sig),
            )
        return cls(
            first_order=v1,
            second_order=v2,
            lipschitz_caps=caps,
            squared_caps=squared,
        )


@dataclass(frozen=True)
class NisioFamily:
    """A finite list of Gaussian controls (sigma scalar, drift scalar)."""

    controls: tuple[tuple[float, float], ...]
    assume_smooth: bool = True

    def __post_init__(self):
        if not self.controls:
            raise DomainError("control list must be non-empty")
        norm = []
        for c in self.controls:
            if len(c) != 2:
                raise DomainError("each control is a (sigma, m) pair")
            s, m = float(c[0]), float(c[1])
            if not (math.isfinite(s) and math.isfinite(m)):
                raise DomainError("controls must be finite")
            if s < 0:
                raise DomainError("sigma must be non-negative")
            norm.append((s, m))
        object.__setattr__(self, "controls", tuple(norm))

    @cached_property
    def bounds(self) -> GeneratorBounds:
        return GeneratorBounds.for_constant_coefficients(
            self.controls, smooth=self.assume_smooth
        )

    @property
    def sigma_max(self) -> float:
        return max(s for s, _ in self.controls)

    @property
    def drift_max(self) -> float:
        return max(abs(m) for _, m in self.controls)


def nisio_plan(family: NisioFamily, grid: Grid, t: float, cut: float = 8.0):
    """The step ``nisio_step(family, ., t)`` on value arrays, as a plan
    ``step(u, out)`` that writes into ``out`` and returns it.

    The controls' Gaussian factors (std, shift) and their ``TapPlan`` are
    built here, so repeated steps build and transform nothing: a step is
    one ``gaussian_convolve`` call with a row per control, then their
    max.  The row buffer is the plan's own, so one plan must not run in
    two threads at once.
    """
    if t < 0:
        raise DomainError("time must be non-negative")
    stds = [sigma * math.sqrt(t) for sigma, _ in family.controls]
    shifts = [mean * t for _, mean in family.controls]
    taps = gaussian_plan(grid, stds, shifts, cut)
    buffer = np.empty((len(stds), grid.size)) if len(stds) > 1 else None
    rows = list(buffer) if buffer is not None else None  # the row views, made once

    def step(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        if buffer is None:
            gaussian_convolve(u, grid, stds, shifts, cut=cut, out=out[np.newaxis], taps=taps)
            return out
        gaussian_convolve(u, grid, stds, shifts, cut=cut, out=buffer, taps=taps)
        return row_max(rows, out)

    return step


def nisio_step(
    family: NisioFamily, f: GridFunction, t: float, cut: float = 8.0
) -> GridFunction:
    """Pointwise max over the family's controls of E[f(x + sigma W_t + m t)]."""
    if t < 0:
        raise DomainError("time must be non-negative")
    if t == 0.0:
        return f
    step = nisio_plan(family, f.grid, t, cut)
    return GridFunction(f.grid, step(f.values, np.empty(f.grid.counts)))


def generator_apply(family: NisioFamily, f: GridFunction):
    """Pointwise max over controls of (1/2) sigma^2 f'' + m f'.

    Derivatives are central differences; returns (values, interior)
    where the mask marks points whose stencil stayed on the grid.
    The boundary entries come from a clipped stencil and carry no
    meaning beyond keeping the array rectangular.
    """
    grid = f.grid
    vals = f.values
    up, down = _neighbours(vals)
    dx = grid.spacing[0]
    lap = (up - 2 * vals + down) / (dx * dx)
    slope = (up - down) / (2 * dx)
    out = None
    for s, m in family.controls:
        cand = 0.5 * s * s * lap + m * slope
        out = cand if out is None else np.maximum(out, cand)
    interior = grid.interior_mask(1.5 * dx)
    return GridFunction(grid, out), interior


def _neighbours(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values one cell up and one cell down, clipped at the ends."""
    padded = np.pad(vals, 1, mode="edge")
    return padded[2:], padded[:-2]


@dataclass(frozen=True)
class ConsistencyReport:
    measured: float
    cap: float
    within: bool


def consistency_residual(
    family: NisioFamily,
    f: GridFunction,
    h: float,
    weight=None,
    tol: float = 0.05,
    cut: float = 8.0,
) -> ConsistencyReport:
    """Compare the one-step rate (I(h)f - f)/h with its generator cap.

    The cap is v1 sup|f'| + v2 sup|f''| with the derivative
    sups taken by finite differences on the interior.
    """
    if h <= 0:
        raise DomainError("step size must be positive")
    grid = f.grid
    stepped = nisio_step(family, f, h, cut=cut)
    rate = (stepped.values - f.values) / h
    margin = (
        cut * family.sigma_max * math.sqrt(h)
        + family.drift_max * h
        + 2 * grid.spacing[0]
    )
    mask = grid.interior_mask(margin)
    if not np.any(mask):
        raise DomainError("grid too small for the requested step")
    measured = weighted_norm(GridFunction(grid, rate), weight, where=mask)

    gb = family.bounds
    dx = grid.spacing[0]
    up, down = _neighbours(f.values)
    inner = grid.interior_mask(1.5 * dx)
    sup1 = float(np.max(np.abs((up - down) / (2 * dx))[inner]))
    sup2 = float(np.max(np.abs((up - 2 * f.values + down) / (dx * dx))[inner]))
    cap = gb.first_order * sup1 + gb.second_order * sup2
    return ConsistencyReport(measured, cap, measured <= cap * (1 + tol))
