"""Finite families of Gaussian one-step operators and their generators.

The one-step operator takes the pointwise best value over a finite list
of constant-coefficient Gaussian controls (sigma, m):

    (I(t)f)(x) = max over controls of  E[f(x + sigma W_t + m t)].

That is the penalty-free Gaussian scenario step: each control is the
scenario N(m, sigma^2) with penalty 0 (``NisioFamily.expectation``),
moved by t m and spread with std sqrt(t) sigma, so the step is
``convex_expectation.family_plan`` of kind "nisio".

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

from .convex_expectation import Scenario, ScenarioConvexExpectation, step_once
from .core import DomainError, GridFunction
from .kernels import clamped_window


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
            try:
                quartic = max(0.25 * s**4 for s in sig)
            except OverflowError:  # float ** raises where * gives inf
                raise DomainError(
                    f"sigma {max(sig)!r} is too large: (1/4) sigma^4 passes the float range"
                ) from None
            squared = (
                0.0,
                max(m * m for m in drift),
                max(s * s * abs(m) for s, m in controls),
                quartic,
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
        self.bounds  # noqa: B018 - controls whose caps are not finite are rejected here

    @cached_property
    def bounds(self) -> GeneratorBounds:
        return GeneratorBounds.for_constant_coefficients(self.controls)

    @cached_property
    def expectation(self) -> ScenarioConvexExpectation:
        """The controls as penalty-free Gaussian scenarios N(m, sigma^2)."""
        return ScenarioConvexExpectation(
            tuple(Scenario.gaussian(m, s) for s, m in self.controls)
        )

    @property
    def sigma_max(self) -> float:
        return max(s for s, _ in self.controls)

    @property
    def drift_max(self) -> float:
        return max(abs(m) for _, m in self.controls)


def nisio_step(
    family: NisioFamily, f: GridFunction, t: float, cut: float = 8.0
) -> GridFunction:
    """Pointwise max over the family's controls of E[f(x + sigma W_t + m t)]."""
    return step_once("nisio", family.expectation, f, t, cut)


def generator_apply(family: NisioFamily, f: GridFunction):
    """Pointwise max over controls of (1/2) sigma^2 f'' + m f'.

    Derivatives are central differences; returns (values, interior)
    where the mask marks points whose stencil stayed on the grid.
    The boundary entries come from a clipped stencil and carry no
    meaning beyond keeping the array rectangular.
    """
    grid = f.grid
    vals = f.values
    # the values one cell up and one cell down, clamped at the ends
    window = clamped_window(grid.size, -1, 1).fill(vals)
    up, down = window[2:], window[:-2]
    dx = grid.spacing[0]
    lap = (up - 2 * vals + down) / (dx * dx)
    slope = (up - down) / (2 * dx)
    out = None
    for s, m in family.controls:
        cand = 0.5 * s * s * lap + m * slope
        out = cand if out is None else np.maximum(out, cand)
    interior = grid.interior_mask(1.5 * dx)
    return GridFunction(grid, out), interior
