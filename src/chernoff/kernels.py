"""Discrete convolution taps for Gaussian and transport steps.

Every expectation step downstream reduces to convolving grid values
with a short nonnegative tap vector that sums to one: a sampled
Gaussian for diffusion, a one- or two-tap stencil for transport, the
mollifier's space bump.  ``apply_taps`` is the one primitive that
applies such a vector; the step families, ``gaussian_convolve`` and
the mollifier all call it by that name.  The taps act on the grid
with constant extension at the box edges, so each step preserves
constants, monotonicity, convexity (in 1D), the sup norm, and
Lipschitz bounds: exactly on the direct branches below, and up to
roundoff (about 1e-15 * sup|u|) on the FFT branch.  The only error
relative to the continuum operator is Gaussian sampling aliasing,
which decays like exp(-2 pi^2 (std/dx)^2) and is negligible for
std >= dx.

``apply_taps`` and ``gaussian_convolve`` take ``out=`` so that an
iteration can write every step into preallocated buffers.  When the
taps cover offset 0, ``apply_taps`` is one ``scipy.ndimage.correlate1d``
call on the values themselves, with ``mode="nearest"`` as the edge
clamp and ``origin`` placing the taps; scipy admits no other origin,
so a tap list wholly on one side of 0 (a whole-cell shift, or drift
beyond ``cut`` standard deviations) reads an edge-clamped copy of the
values instead, except for one or two taps (a shift, or a fractional
shift past one cell), which are scaled slices written into ``out``.

Wide lists take an FFT branch instead: the edge-clamped window of
length n + hi - lo is correlated with the taps through
``scipy.fft.rfft``/``irfft`` at ``next_fast_len``, long enough that no
output wraps.  ``correlate1d`` costs about m products per point for m
taps, the FFT a fixed overhead plus L log2 L per row of length L, and
the branch is taken where a cost model fitted to timings of both says
the FFT is cheaper.  For centred taps that is from about 290 taps at
n = 513, 160 at 1025, 76 at 4095 and 65 at 8191.  A spectrum that
overflows (sup |values| within a factor of about L of the largest
float) or holds a non-finite value makes every output of its row
non-finite, so one output per row is checked and such a call is redone
on ``correlate1d``.

A fixed step builds its Gaussian taps once with ``gaussian_taps`` and
hands them to ``gaussian_convolve`` at every step.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.ndimage import correlate1d

from .core import DomainError, Grid

__all__ = [
    "gaussian_taps",
    "shift_taps",
    "apply_taps",
    "gaussian_convolve",
]

_EXACT_SHIFT_TOL = 1e-9
# Cost model of correlating m taps with rows of n points, in seconds:
# correlate1d ~ _DIRECT_S * rows * n * m against the FFT's _FFT_FIXED_S +
# _FFT_S * rows * L log2 L, L = next_fast_len(n + m - 1); _FFT_FIXED_S is
# its fixed cost less correlate1d's.  Fitted to timings of both branches
# at n = 513, 1025, 4095, 8191 and on 129 x 129 (2 cores, numpy 2.4.6,
# scipy 1.17.1) with mirror-symmetric taps, for which correlate1d forms
# half the products; drifted lists cost it twice as much, so the model
# keeps them on correlate1d up to about twice their true crossover.
_DIRECT_S = 0.22e-9
_FFT_FIXED_S = 26e-6
_FFT_S = 0.8e-9


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
    at ``cut`` standard deviations; the shift's taps when the std is so
    small against ``dx`` that no sampled weight is left."""
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
    total = weights.sum()
    if total == 0.0:  # std far below dx: every sampled weight underflows
        return shift_taps(shift, dx)
    weights /= total
    return offsets, weights


def apply_taps(
    values: np.ndarray,
    offsets: np.ndarray,
    weights: np.ndarray,
    ax: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Convolve along one axis with constant extension at the edges:
    ``out[i] = sum_j weights[j] * values[clip(i + offsets[j], 0, n - 1)]``.

    Offsets may be unsorted or repeated.  The result goes into ``out``
    (a float64 array of the values' shape that does not overlap them)
    and is returned; without ``out`` it is a new array.  More than two
    taps go through an FFT of the edge-clamped window when the cost
    model of ``_fft_is_cheaper`` prices it below ``correlate1d``; that
    branch agrees with the sum to roundoff (about 1e-15 * sup|values|).
    A spectrum that overflows or holds a non-finite value spoils its
    whole row, so when the first output of any row is not finite the
    call is redone on ``correlate1d``.
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
    if out is None:
        out = np.empty(values.shape)
    elif out.shape != values.shape or out.dtype != float:
        raise DomainError(f"apply_taps: out must be float64 of shape {values.shape}")
    if offsets.size == 1:
        lo = hi = int(offsets[0])
        taps = weights
    else:
        lo, hi = int(offsets.min()), int(offsets.max())
        # Dense taps over [lo, hi] only, so a far whole-cell shift stays O(n).
        taps = np.bincount(offsets - lo, weights=weights, minlength=hi - lo + 1)
    ax %= values.ndim
    fft = taps.size > 2 and _fft_is_cheaper(values.shape, ax, taps.size)
    if not fft and taps.size > 1 and lo <= 0 <= hi:
        # taps[k] reads values[i + lo + k]; the clamp is scipy's "nearest".
        return correlate1d(
            values, taps, axis=ax, output=out, mode="nearest", origin=-(lo + taps.size // 2)
        )
    if taps.size <= 2:
        # out = w0 * values[clip(i + lo)] (+ w1 * values[clip(i + lo + 1)]),
        # the products and the one sum correlate1d would form.
        _clamped_window(values, lo, ax, out, taps[0])
        if taps.size == 2:
            _clamped_window(values, lo + 1, ax, out, taps[1], add=True)
        return out
    shape = list(values.shape)
    shape[ax] += hi - lo
    window = _clamped_window(values, lo, ax, np.empty(shape))
    lead = (slice(None),) * ax
    if fft:
        # Circular correlation at length >= n + hi - lo: output i reads
        # window[i .. i + hi - lo], so none of the first n wraps.
        length = next_fast_len(shape[ax], real=True)
        spectrum = rfft(window, length, axis=ax)
        kernel = np.conj(rfft(taps, length)).reshape((-1,) + (1,) * (values.ndim - 1 - ax))
        with np.errstate(invalid="ignore"):  # inf * 0 in an overflowed spectrum
            spectrum *= kernel
        full = irfft(spectrum, length, axis=ax)
        # a non-finite spectrum spreads over its whole row, so output 0
        # of each row tells whether the row is usable
        if np.isfinite(full[lead + (0,)]).all():
            out[...] = full[lead + (slice(0, values.shape[ax]),)]
            return out
    # correlate1d centres the taps at taps.size // 2; outputs from there
    # on read only inside the window, so the mode never applies.
    full, start = correlate1d(window, taps, axis=ax, mode="nearest"), taps.size // 2
    out[...] = full[lead + (slice(start, start + values.shape[ax]),)]
    return out


def _fft_is_cheaper(shape: tuple[int, ...], ax: int, n_taps: int) -> bool:
    """Whether the cost model prices an FFT correlation of ``n_taps`` taps
    along ``ax`` below ``correlate1d``."""
    n = shape[ax]
    rows = math.prod(shape) // max(n, 1)
    length = next_fast_len(n + n_taps - 1, real=True)
    direct = _DIRECT_S * rows * n * n_taps
    return direct > _FFT_FIXED_S + _FFT_S * rows * length * math.log2(length)


def _clamped_window(
    values: np.ndarray,
    lo: int,
    ax: int,
    window: np.ndarray,
    scale: float = 1.0,
    add: bool = False,
) -> np.ndarray:
    """Fill ``window[k] = scale * values[clip(lo + k, 0, n - 1)]`` along
    ``ax`` (with ``add``, add it to ``window[k]``): one product over the
    inner part [a, b) and one for each edge value."""
    n, size = values.shape[ax], window.shape[ax]
    a, b = min(max(-lo, 0), size), min(max(n - lo, 0), size)
    lead = (slice(None),) * (ax % values.ndim)
    for part, src in (
        (slice(a, b), slice(lo + a, lo + b)),
        (slice(0, a), slice(0, 1)),
        (slice(b, size), slice(n - 1, n)),
    ):
        dst = window[lead + (part,)]
        if add:
            dst += values[lead + (src,)] * scale
        else:
            np.multiply(values[lead + (src,)], scale, out=dst)
    return window


def gaussian_convolve(
    values: np.ndarray,
    grid: Grid,
    std: float,
    shift: float,
    cut: float = 8.0,
    out: np.ndarray | None = None,
    taps: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """E[f(x + std Z + shift)] on the grid, written into ``out`` when it
    is given.  ``taps``, when given, is ``gaussian_taps(std, shift,
    grid.spacing[0], cut)`` built once by a caller that convolves with
    the same factor again and again."""
    if taps is None:
        taps = gaussian_taps(std, shift, grid.spacing[0], cut)
    return apply_taps(values, *taps, out=out)
