"""Function-space substrate: grids, grid functions, weights, norms.

Everything downstream (step operators, mollification, rate measurement)
works with piecewise-multilinear functions tabulated on a uniform box
grid, extended beyond the box by constant continuation of the boundary
value.  Constant extension never increases the sup norm or the Lipschitz
constant, which the error analysis relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "Grid",
    "GridFunction",
    "WeightFunction",
    "SpaceTimeFunction",
    "weighted_norm",
    "positive_part_norm",
    "negative_part_norm",
    "lipschitz_estimate",
    "kappa_constant",
    "tensor_points",
]


class DomainError(ValueError):
    """Raised when inputs leave the documented domain of an operation."""


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def tensor_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The tensor grid of ``axes`` as a (size, d) array in C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a box in dimension 1 or 2.

    Parameters
    ----------
    lower, upper : tuple of float
        Per-axis bounds, ``lower[i] < upper[i]``.
    counts : tuple of int
        Points per axis, at least 2 each and at least 4 in total.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(float(x) for x in self.lower))
        object.__setattr__(self, "upper", tuple(float(x) for x in self.upper))
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        d = len(self.counts)
        if d not in (1, 2):
            raise DomainError(f"grid dimension must be 1 or 2, got {d}")
        if len(self.lower) != d or len(self.upper) != d:
            raise DomainError("bounds and counts must have the same length")
        if any(n < 2 for n in self.counts):
            raise DomainError("need at least 2 points per axis")
        if int(np.prod(self.counts)) < 4:
            raise DomainError("need at least 4 grid points in total")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise DomainError("lower bound must lie strictly below upper bound")

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1)
            for lo, hi, n in zip(self.lower, self.upper, self.counts)
        )

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            _frozen_array(np.linspace(lo, hi, n))
            for lo, hi, n in zip(self.lower, self.upper, self.counts)
        )

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points as an (size, dim) array in C order."""
        return _frozen_array(tensor_points(self.axes))

    def interpolate(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Piecewise-multilinear interpolation with constant extension.

        ``x`` has shape (..., dim); for dim 1 a bare (...,) array is
        also accepted.
        """
        values = np.asarray(values)
        x = np.asarray(x, dtype=float)
        if self.dim == 1:  # np.interp is about twice as fast as the corner sum
            xs = x[..., 0] if x.ndim >= 2 and x.shape[-1] == 1 else x
            return np.interp(xs, self.axes[0], values)
        if x.shape[-1] != self.dim:
            raise DomainError(f"interpolation points must have shape (..., {self.dim})")
        pts = x.reshape(-1, self.dim)
        base = []
        frac = []
        for ax in range(self.dim):
            t = (pts[:, ax] - self.lower[ax]) / self.spacing[ax]
            t = np.clip(t, 0.0, self.counts[ax] - 1.0)
            i0 = np.minimum(t.astype(int), self.counts[ax] - 2)
            base.append(i0)
            frac.append(t - i0)
        out = np.zeros(len(pts))
        for corner in itertools.product((0, 1), repeat=self.dim):
            weight = np.ones(len(pts))
            for c, u in zip(corner, frac):
                weight *= u if c else 1.0 - u
            out += weight * values[tuple(i + c for i, c in zip(base, corner))]
        return out.reshape(x.shape[:-1])

    def interior_mask(self, margin: float) -> np.ndarray:
        """Boolean mask of points at least ``margin`` from every face."""
        masks = [
            (ax >= lo + margin) & (ax <= hi - margin)
            for ax, lo, hi in zip(self.axes, self.lower, self.upper)
        ]
        return reduce(np.logical_and, np.meshgrid(*masks, indexing="ij", sparse=True))


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
        arg = grid.axes[0] if grid.dim == 1 else grid.points
        vals = np.asarray(fn(arg), dtype=float)
        if vals.size == 1:
            vals = np.full(grid.counts, float(vals))
        return cls(grid, vals.reshape(grid.counts))

    @cached_property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @cached_property
    def lipschitz(self) -> float:
        return lipschitz_estimate(self)

    def sample(self, x: np.ndarray) -> np.ndarray:
        return self.grid.interpolate(self.values, x)

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
class WeightFunction:
    """Weight for the weighted sup-norm, tabulated on a grid.

    Two closed forms: constant one, and the inverse polynomial
    ``(1 + |x|^2)^(-q/2)`` with q > 0.  Both satisfy 0 < kappa <= 1.
    """

    grid: Grid
    kind: str
    q: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "inverse_poly"):
            raise DomainError(f"unknown weight kind {self.kind!r}")
        if self.kind == "inverse_poly" and not self.q > 0:
            raise DomainError("inverse-polynomial weight needs q > 0")

    @classmethod
    def constant(cls, grid: Grid) -> "WeightFunction":
        return cls(grid, "constant")

    @classmethod
    def inverse_poly(cls, grid: Grid, q: float) -> "WeightFunction":
        return cls(grid, "inverse_poly", float(q))

    @cached_property
    def values(self) -> np.ndarray:
        if self.kind == "constant":
            return _frozen_array(np.ones(self.grid.counts))
        sq = np.sum(self.grid.points**2, axis=1).reshape(self.grid.counts)
        return _frozen_array((1.0 + sq) ** (-self.q / 2.0))

    @cached_property
    def c_kappa(self) -> float:
        return kappa_constant(self)


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

    def at_time(self, t: float, tol: float = 1e-9) -> GridFunction:
        """Slice at an exactly sampled time (within ``tol``)."""
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol:
            raise DomainError(f"time {t} is not a sample (nearest: {self.times[i]})")
        return self.slice(i)

    def interp_time(self, t: float) -> np.ndarray:
        """Values at time ``t``, linear interpolation between samples."""
        tol = 1e-12 * max(1.0, abs(self.t_max))
        if t < self.t_min - tol or t > self.t_max + tol:
            raise DomainError(
                f"time {t} outside sampled range [{self.t_min}, {self.t_max}]"
            )
        t = min(max(t, self.t_min), self.t_max)
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        i = min(max(i, 0), len(self.times) - 2)
        w = (t - self.times[i]) / (self.times[i + 1] - self.times[i])
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]


# ---------------------------------------------------------------------------
# norms and constants


def _weight_values(f: GridFunction, weight: WeightFunction | None) -> np.ndarray:
    if weight is None:
        return np.ones_like(f.values)
    if weight.grid != f.grid:
        raise DomainError("function and weight live on different grids")
    return weight.values


def weighted_norm(
    f: GridFunction, weight: WeightFunction | None, where: np.ndarray | None = None
) -> float:
    """sup of |f(x)| kappa(x) over the grid (optionally masked)."""
    w = _weight_values(f, weight)
    prod = np.abs(f.values) * w
    if where is not None:
        prod = prod[where]
    return float(np.max(prod))


def positive_part_norm(
    f: GridFunction, weight: WeightFunction | None, where: np.ndarray | None = None
) -> float:
    w = _weight_values(f, weight)
    prod = np.maximum(f.values, 0.0) * w
    if where is not None:
        prod = prod[where]
    return float(np.max(prod))


def negative_part_norm(
    f: GridFunction, weight: WeightFunction | None, where: np.ndarray | None = None
) -> float:
    w = _weight_values(f, weight)
    prod = np.maximum(-f.values, 0.0) * w
    if where is not None:
        prod = prod[where]
    return float(np.max(prod))


def lipschitz_estimate(f: GridFunction) -> float:
    """Max slope between adjacent grid points.

    This lower-bounds the Lipschitz constant of the underlying function
    and equals the Lipschitz constant of the multilinear interpolant
    along the axes.
    """
    best = 0.0
    for ax in range(f.grid.dim):
        d = np.diff(f.values, axis=ax)
        if d.size:
            best = max(best, float(np.max(np.abs(d))) / f.grid.spacing[ax])
    return best


def kappa_constant(weight: WeightFunction) -> float:
    """Discrete sup of kappa(x)/kappa(x - y) over grid offsets |y| <= 1.

    The scan resolution equals the grid spacing, so the result is a
    lower bound of the continuum constant; tests compare against a
    refined scan.
    """
    if weight.kind == "constant":
        return 1.0
    grid = weight.grid
    extents = [hi - lo for lo, hi in zip(grid.lower, grid.upper)]
    if min(extents) < 1.0:
        raise DomainError("grid narrower than the offset radius 1")
    vals, counts = weight.values, grid.counts
    reach = [int(np.floor(1.0 / dx + 1e-12)) for dx in grid.spacing]
    best = 1.0
    for offset in itertools.product(*(range(-j, j + 1) for j in reach)):
        y2 = sum((k * dx) ** 2 for k, dx in zip(offset, grid.spacing))
        if not any(offset) or y2 > 1.0 + 1e-12:
            continue
        # kappa(x + y) / kappa(x) over every x with both points on the grid
        moved = tuple(slice(max(k, 0), n + min(k, 0)) for k, n in zip(offset, counts))
        start = tuple(slice(max(-k, 0), n + min(-k, 0)) for k, n in zip(offset, counts))
        best = max(best, float(np.max(vals[moved] / vals[start])))
    return best
