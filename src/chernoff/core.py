"""Function-space substrate: grids, grid functions, norms.

Everything downstream (step operators, mollification, rate measurement)
works with piecewise-linear functions tabulated on a uniform grid of an
interval, extended beyond it by constant continuation of the end
values.  Constant extension never increases the sup norm or the Lipschitz
constant, which the error analysis relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "Grid",
    "GridFunction",
    "SpaceTimeFunction",
    "sup_norm",
    "positive_part_norm",
    "negative_part_norm",
    "lipschitz_estimate",
]


class DomainError(ValueError):
    """Raised when inputs leave the documented domain of an operation."""


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform grid on an interval.

    Parameters
    ----------
    lower, upper : tuple of float
        One-entry tuples holding the interval's ends, ``lower < upper``.
    counts : tuple of int
        A one-entry tuple holding the number of points, at least 4.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(float(x) for x in self.lower))
        object.__setattr__(self, "upper", tuple(float(x) for x in self.upper))
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        if len(self.counts) != 1:
            raise DomainError(
                "grid counts must have one entry (grids are one-dimensional), "
                f"got {len(self.counts)}"
            )
        if len(self.lower) != 1 or len(self.upper) != 1:
            raise DomainError("bounds and counts must have the same length")
        if self.counts[0] < 4:
            raise DomainError("need at least 4 grid points")
        if self.lower[0] >= self.upper[0]:
            raise DomainError("lower bound must lie strictly below upper bound")

    @property
    def size(self) -> int:
        return self.counts[0]

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return ((self.upper[0] - self.lower[0]) / (self.counts[0] - 1),)

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return (_frozen_array(np.linspace(self.lower[0], self.upper[0], self.counts[0])),)

    def interior_mask(self, margin: float) -> np.ndarray:
        """Boolean mask of points at least ``margin`` from both ends."""
        x = self.axes[0]
        return (x >= self.lower[0] + margin) & (x <= self.upper[0] - margin)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function tabulated on a :class:`Grid`.

    Values are validated finite and stored read-only, so the cached
    sup-norm and Lipschitz estimate can never go stale.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.size != self.grid.size:
            raise DomainError(
                f"value array has {vals.size} entries, grid has {self.grid.size} points"
            )
        vals = vals.reshape(self.grid.counts)
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function values must be finite")
        object.__setattr__(self, "values", _frozen_array(vals))

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        vals = np.asarray(fn(grid.axes[0]), dtype=float)
        if vals.size == 1:
            vals = np.full(grid.counts, float(vals))
        return cls(grid, vals.reshape(grid.counts))

    @cached_property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @cached_property
    def lipschitz(self) -> float:
        return lipschitz_estimate(self)

    def _check_same_grid(self, other: "GridFunction") -> None:
        if other.grid != self.grid:
            raise DomainError("grid functions live on different grids")

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return GridFunction(self.grid, self.values + other.values)
        return GridFunction(self.grid, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return GridFunction(self.grid, self.values - other.values)
        return GridFunction(self.grid, self.values - float(other))

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def maximum(self, other) -> "GridFunction":
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return GridFunction(self.grid, np.maximum(self.values, other.values))
        return GridFunction(self.grid, np.maximum(self.values, float(other)))


@dataclass(frozen=True)
class SpaceTimeFunction:
    """Time-indexed family of grid functions on a shared grid."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray  # shape (len(times), *grid.counts)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or len(times) < 1:
            raise DomainError("need a one-dimensional, non-empty time array")
        if np.any(np.diff(times) <= 0):
            raise DomainError("time samples must be strictly increasing")
        expected = (len(times),) + tuple(self.grid.counts)
        if vals.shape != expected:
            raise DomainError(f"value array shape {vals.shape}, expected {expected}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("space-time values must be finite")
        object.__setattr__(self, "times", _frozen_array(times))
        object.__setattr__(self, "values", _frozen_array(vals))

    @classmethod
    def from_functions(
        cls, times: Sequence[float], funcs: Sequence[GridFunction]
    ) -> "SpaceTimeFunction":
        if len(times) != len(funcs):
            raise DomainError("times and functions must pair up")
        grid = funcs[0].grid
        for f in funcs[1:]:
            if f.grid != grid:
                raise DomainError("all slices must share one grid")
        return cls(grid, np.asarray(times, float), np.stack([f.values for f in funcs]))

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def slice(self, i: int) -> GridFunction:
        return GridFunction(self.grid, self.values[i])

    def sample_indices(self, times, tol: float = 1e-9) -> np.ndarray:
        """Index of the nearest sample to each of ``times`` (the earlier
        one on a tie), as an integer array of the same shape.  Raises
        for the first time, in order, that is more than ``tol`` from
        every sample.  Cost O(len(times) log len(self.times)), memory
        O(len(times)): no slice is made."""
        t = np.asarray(times, dtype=float)
        right = np.minimum(np.searchsorted(self.times, t), len(self.times) - 1)
        left = np.maximum(right - 1, 0)
        idx = np.where(
            np.abs(self.times[left] - t) <= np.abs(self.times[right] - t), left, right
        )
        off = ~(np.abs(self.times[idx] - t) <= tol)
        if off.any():
            k = np.flatnonzero(off.ravel())[0]
            t0, nearest = t.ravel()[k], self.times[idx.ravel()[k]]
            raise DomainError(f"time {t0} is not a sample (nearest: {nearest})")
        return idx

    def interp_weights(self, times) -> np.ndarray:
        """Matrix ``W`` of shape (len(times), len(self.times)) with
        ``W @ self.values`` the linear interpolation between samples at
        each time: row r holds 1 - w and w at the samples i, i + 1 that
        bracket ``times[r]``.  Times within 1e-12 * max(1, |t_max|) of
        the sampled range are clamped into it; others raise, naming the
        first.  Memory is len(times) * len(self.times) floats, so
        callers pass a block of times at a time."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        tol = 1e-12 * max(1.0, abs(self.t_max))
        outside = ~((t >= self.t_min - tol) & (t <= self.t_max + tol))
        if outside.any():
            raise DomainError(
                f"time {t[np.argmax(outside)]} outside sampled range "
                f"[{self.t_min}, {self.t_max}]"
            )
        m = len(self.times)
        W = np.zeros((t.size, m))
        if m == 1:
            W[:, 0] = 1.0
            return W
        t = np.clip(t, self.t_min, self.t_max)
        i = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, m - 2)
        w = (t - self.times[i]) / (self.times[i + 1] - self.times[i])
        rows = np.arange(t.size)
        W[rows, i] = 1.0 - w
        W[rows, i + 1] = w
        return W


# ---------------------------------------------------------------------------
# norms


def _sup(part: np.ndarray, where) -> float:
    """sup of ``part`` over the grid, or over the points ``where``."""
    if where is not None:
        part = part[where]
    return float(np.max(part))


def sup_norm(f: GridFunction, where: np.ndarray | None = None) -> float:
    """sup of |f(x)| over the grid (optionally masked)."""
    return _sup(np.abs(f.values), where)


def positive_part_norm(f: GridFunction, where: np.ndarray | None = None) -> float:
    """sup of f(x)^+ over the grid (optionally masked)."""
    return _sup(np.maximum(f.values, 0.0), where)


def negative_part_norm(f: GridFunction, where: np.ndarray | None = None) -> float:
    """sup of f(x)^- over the grid (optionally masked)."""
    return _sup(np.maximum(-f.values, 0.0), where)


def lipschitz_estimate(f: GridFunction) -> float:
    """Max slope between adjacent grid points: the Lipschitz constant of
    the piecewise-linear interpolant, a lower bound of the underlying
    function's."""
    return float(np.max(np.abs(np.diff(f.values)))) / f.grid.spacing[0]
