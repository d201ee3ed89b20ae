"""Discrete convolution taps for Gaussian and transport steps.

Every expectation step downstream reduces to convolving grid values
with a short nonnegative tap vector that sums to one: a sampled
Gaussian for diffusion, a one- or two-tap stencil for transport, the
mollifier's space bump.  ``apply_taps`` is the one primitive that
applies such a vector; the step families, ``gaussian_convolve`` and
the mollifier all call it by that name.  The taps act on the grid
with constant extension at the box edges, so each step preserves
constants, monotonicity, convexity (in 1D), the sup norm, and
Lipschitz bounds exactly; the only error relative to the continuum
operator is Gaussian sampling aliasing, which decays like
exp(-2 pi^2 (std/dx)^2) and is negligible for std >= dx.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import correlate1d

from .core import DomainError, Grid

__all__ = [
    "gaussian_taps",
    "shift_taps",
    "apply_taps",
    "gaussian_convolve",
    "aliasing_bound",
]

_EXACT_SHIFT_TOL = 1e-9


def shift_taps(shift: float, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Taps realizing f(x + shift): exact for grid multiples, else 2-tap."""
    j = shift / dx
    j0 = int(np.floor(j))
    frac = j - j0
    if frac < _EXACT_SHIFT_TOL:
        return np.array([j0]), np.array([1.0])
    if frac > 1.0 - _EXACT_SHIFT_TOL:
        return np.array([j0 + 1]), np.array([1.0])
    return np.array([j0, j0 + 1]), np.array([1.0 - frac, frac])


def gaussian_taps(
    std: float, shift: float, dx: float, cut: float = 8.0
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized sampled-Gaussian taps with mean ``shift``, truncated
    at ``cut`` standard deviations."""
    if std < 0:
        raise DomainError("standard deviation must be nonnegative")
    if not dx > 0:
        raise DomainError("grid spacing must be positive")
    if std < 1e-14 * max(1.0, abs(shift)) or std == 0.0:
        return shift_taps(shift, dx)
    lo = int(np.floor((shift - cut * std) / dx))
    hi = int(np.ceil((shift + cut * std) / dx))
    offsets = np.arange(lo, hi + 1)
    z = (offsets * dx - shift) / std
    weights = np.exp(-0.5 * z * z)
    return offsets, weights / weights.sum()


def aliasing_bound(std: float, dx: float) -> float:
    """Leading Poisson-summation error of the sampled Gaussian."""
    if std <= 0:
        return 0.0
    b = std / dx
    return float(2.0 * np.exp(-2.0 * np.pi**2 * b * b))


def apply_taps(
    values: np.ndarray, offsets: np.ndarray, weights: np.ndarray, ax: int = 0
) -> np.ndarray:
    """Convolve along one axis with constant extension at the edges:
    ``out[i] = sum_j weights[j] * values[clip(i + offsets[j], 0, n - 1)]``.

    Offsets may be unsorted or repeated.  The result is a new array.
    """
    offsets = np.asarray(offsets)
    weights = np.asarray(weights, dtype=float)
    if offsets.ndim != 1 or offsets.size == 0:
        raise DomainError("apply_taps: offsets must be a nonempty 1D tap list")
    if weights.shape != offsets.shape:
        raise DomainError(
            f"apply_taps: weights has {weights.size} entries, offsets has {offsets.size}"
        )
    values = np.asarray(values, dtype=float)
    n = values.shape[ax]
    lo, hi = int(offsets.min()), int(offsets.max())
    # Dense taps over [lo, hi] only, so a far whole-cell shift stays O(n).
    taps = np.bincount(offsets - lo, weights=weights, minlength=hi - lo + 1)
    # The edge-clamped window: window[k] = values[clip(lo + k, 0, n - 1)],
    # one copy of the inner part [a, b) and a fill of each edge value.
    size = n + hi - lo
    a, b = min(max(-lo, 0), size), min(max(n - lo, 0), size)
    shape = list(values.shape)
    shape[ax] = size
    window = np.empty(shape)
    lead = (slice(None),) * (ax % values.ndim)
    window[lead + (slice(a, b),)] = values[lead + (slice(lo + a, lo + b),)]
    window[lead + (slice(0, a),)] = values[lead + (slice(0, 1),)]
    window[lead + (slice(b, size),)] = values[lead + (slice(n - 1, n),)]
    if taps.size == 1:
        window *= taps[0]
        return window
    # correlate1d centres the taps at taps.size // 2; outputs from there
    # on read only inside the window, so the mode never applies.
    full = correlate1d(window, taps, axis=ax, mode="nearest")
    return full[lead + (slice(taps.size // 2, taps.size // 2 + n),)]


def gaussian_convolve(
    values: np.ndarray,
    grid: Grid,
    std: float,
    shift,
    cut: float = 8.0,
) -> np.ndarray:
    """E[f(x + std Z + shift)] on the grid, axis by axis (isotropic Z)."""
    shift_vec = np.broadcast_to(np.asarray(shift, dtype=float), (grid.dim,))
    out = np.asarray(values, dtype=float)
    for ax in range(grid.dim):
        offsets, weights = gaussian_taps(std, float(shift_vec[ax]), grid.spacing[ax], cut)
        out = apply_taps(out, offsets, weights, ax)
    return out
