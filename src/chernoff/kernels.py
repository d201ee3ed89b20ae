"""Discrete convolution taps for Gaussian and transport steps.

Every expectation step downstream reduces to convolving grid values
with a short nonnegative tap vector that sums to one: a sampled
Gaussian for diffusion, a one- or two-tap stencil for transport, the
mollifier's space bump.  ``apply_taps`` is the one primitive that
applies such vectors; the step families, ``gaussian_convolve`` and
the mollifier all call it by that name.  The taps act on the grid
with constant extension at the box edges, so each step preserves
constants, monotonicity, convexity, the sup norm, and Lipschitz
bounds: exactly on the direct branches below, and up to roundoff
(about 1e-15 * sup|u|) on the FFT branch.  The only error relative
to the continuum operator is Gaussian sampling aliasing, which decays
like exp(-2 pi^2 (std/dx)^2) and is negligible for std >= dx.

``apply_taps`` takes one weight row, or k rows on shared offsets (the
Gaussian factors of one step: a nisio family's controls, the Gaussian
scenarios of an lln or clt family), and writes one output row per
weight row into ``out``.  How it does so is fixed by a ``TapPlan``:
``tap_plan`` builds one for rows of n values, and a step plan builds
its own once per (operator, h) and hands it to every call, so repeated
steps transform no taps and choose no branch.  Without a plan the call
builds one and applies it once; a shift (one tap, or two on adjacent
cells) needs none.

On the direct branch every row is correlated on its own offset range.
When that range covers offset 0 this is one
``scipy.ndimage.correlate1d`` call on the values themselves, with
``mode="nearest"`` as the edge clamp and ``origin`` placing the taps;
scipy admits no other origin, so a tap list wholly on one side of 0 (a
whole-cell shift, or drift beyond ``cut`` standard deviations) reads an
edge-clamped copy of the values instead, except for one or two taps (a
shift, or a fractional shift past one cell), which are scaled slices
written into ``out``.

Wide lists take an FFT branch instead.  The plan fixes one offset range
[min lo, max hi] for all rows, one length ``next_fast_len`` at least
n + hi - lo (long enough that no output wraps) and the rows' conjugated
spectra.  A call fills the edge-clamped window once, runs one ``rfft``,
multiplies it by the k held spectra and runs one stacked ``irfft``.
``correlate1d`` costs about m products per point for m taps, the FFT a
fixed overhead plus L log2 L per transform of length L; the plan takes
the FFT where a cost model fitted to timings of both branches prices
its 1 + k transforms per call, and the k made for the spectra, below
the rows' products.  For one centred row that is from about 290 taps
at n = 513, 160 at 1025, 76 at 4095 and 65 at 8191.  A spectrum that
overflows (sup |values| within a factor of about L of the largest
float) or holds a non-finite value makes every output of its row
non-finite, so output 0 of each row is checked and such a call is
redone on ``correlate1d``.

A plan is read-only and may be shared; the row buffers that the step
plans keep beside it are not, so each thread builds its own step plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.ndimage import correlate1d

from .core import DomainError, Grid

__all__ = [
    "gaussian_taps",
    "shift_taps",
    "TapPlan",
    "tap_plan",
    "gaussian_plan",
    "apply_taps",
    "gaussian_convolve",
    "row_max",
]

_EXACT_SHIFT_TOL = 1e-9
# Cost model of correlating rows of n points with m taps, in seconds:
# correlate1d ~ _DIRECT_S * n * m per row against the FFT's _FFT_FIXED_S +
# _FFT_S * L log2 L per three transforms, L = next_fast_len(n + m - 1);
# _FFT_FIXED_S is its fixed cost less correlate1d's.  Fitted to one-row
# calls of both branches, which ran three transforms each (window, taps,
# inverse), at n = 513, 1025, 4095, 8191 and on 129 x 129 (2 cores, numpy
# 2.4.6, scipy 1.17.1) with mirror-symmetric taps, for which correlate1d
# forms half the products; drifted lists cost it twice as much, so the
# model keeps them on correlate1d up to about twice their true crossover.
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


@dataclass(frozen=True, eq=False)
class TapPlan:
    """How ``apply_taps`` correlates rows of ``n`` values with the weight
    rows ``weights`` ((m,) or (k, m)) on the shared ``offsets``.

    ``rows`` holds each weight row as its first offset and dense taps,
    for ``correlate1d``.  On the FFT branch
    (``spectra`` not None) the window starts at offset ``lo`` and spans
    ``size`` offsets, and ``spectra`` holds the rows' conjugated
    transforms at ``length``, one per weight row.
    """

    n: int
    offsets: np.ndarray
    weights: np.ndarray
    rows: tuple[tuple[int, np.ndarray], ...]
    lo: int
    size: int
    length: int
    spectra: np.ndarray | None


def tap_plan(n: int, offsets, weights) -> TapPlan:
    """The ``TapPlan`` of ``weights`` on ``offsets`` for rows of ``n``
    values: the branch chosen by the cost model of ``_fft_is_cheaper``
    and, on the FFT branch, the rows' spectra.  Offsets may be unsorted
    or repeated."""
    offsets = np.asarray(offsets)
    weights = np.asarray(weights, dtype=float)
    if offsets.ndim != 1 or offsets.size == 0:
        raise DomainError("apply_taps: offsets must be a nonempty 1D tap list")
    if weights.ndim not in (1, 2) or weights.shape[-1] != offsets.size:
        raise DomainError(
            f"apply_taps: weights must be one or more rows of {offsets.size} entries, "
            f"got shape {weights.shape}"
        )
    lo = int(offsets.min())
    size = int(offsets.max()) - lo + 1
    # Dense taps over [lo, hi] only, so a far whole-cell shift stays O(n).
    dense = np.array(
        [np.bincount(offsets - lo, weights=w, minlength=size) for w in np.atleast_2d(weights)]
    )
    rows = [(lo, taps) for taps in dense]
    return _plan(n, offsets, weights, lo, dense.reshape(weights.shape[:-1] + (size,)), rows)


def gaussian_plan(grid: Grid, std, shift, cut: float = 8.0) -> TapPlan:
    """The ``TapPlan`` of ``gaussian_taps(std, shift, grid.spacing[0],
    cut)``; for equal-length sequences ``std`` and ``shift``, one weight
    row per factor on the shared range of their taps.  Each factor's
    offsets ascend one cell at a time, so its weights are already dense,
    and on the direct branch each row keeps its own range."""
    dx = grid.spacing[0]
    if np.ndim(std) == 0:
        offsets, weights = gaussian_taps(std, shift, dx, cut)
        lo = int(offsets[0])
        return _plan(grid.size, offsets, weights, lo, weights, [(lo, weights)])
    factors = [gaussian_taps(s, m, dx, cut) for s, m in zip(std, shift, strict=True)]
    rows = [(int(o[0]), w) for o, w in factors]
    lo = min(start for start, _ in rows)
    weights = np.zeros((len(rows), max(start + w.size for start, w in rows) - lo))
    for dense, (start, w) in zip(weights, rows):
        dense[start - lo : start - lo + w.size] = w
    return _plan(grid.size, np.arange(lo, lo + weights.shape[1]), weights, lo, weights, rows)


def _plan(n: int, offsets, weights, lo: int, dense: np.ndarray, rows) -> TapPlan:
    """The plan of ``weights`` on ``offsets``, given as ``dense`` taps from
    offset ``lo`` (one row per weight row) and each row's own range."""
    size = dense.shape[-1]
    length, spectra = 0, None
    if size > 2 and _fft_is_cheaper(n, size, len(rows), sum(t.size for _, t in rows)):
        length = next_fast_len(n + size - 1, real=True)
        spectra = np.conj(rfft(dense, length))
    return TapPlan(n, offsets, weights, tuple(rows), lo, size, length, spectra)


def apply_taps(
    values: np.ndarray,
    offsets: np.ndarray,
    weights: np.ndarray,
    out: np.ndarray | None = None,
    plan: TapPlan | None = None,
) -> np.ndarray:
    """Convolve with constant extension at the edges:
    ``out[i] = sum_j weights[j] * values[clip(i + offsets[j], 0, n - 1)]``,
    and for k weight rows ((k, m) ``weights``) ``out[r, i]`` likewise
    with ``weights[r, j]``.

    ``values`` is one row of n values.  The result goes into ``out`` (a
    float64 array of shape ``weights.shape[:-1] + (n,)`` that does not
    overlap the values) and is returned; without ``out`` it is a new
    array.  ``plan``, when given, is ``tap_plan(n, offsets, weights)``
    built once by a caller that applies the same taps again and again.
    The FFT branch agrees with the sum to roundoff (about 1e-15 *
    sup|values|); when output 0 of any row is not finite there, the call
    is redone on ``correlate1d``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DomainError(f"apply_taps: values must be one row, got shape {values.shape}")
    weights = np.asarray(weights, dtype=float)
    shape = weights.shape[:-1] + values.shape
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != float:
        raise DomainError(f"apply_taps: out must be float64 of shape {shape}")
    if plan is None:
        # a shift, whole or fractional (``shift_taps``), has nothing to plan
        offsets = np.asarray(offsets)
        if offsets.shape == weights.shape == (1,):
            return _clamped_window(values, int(offsets[0]), out, weights[0])
        if offsets.shape == weights.shape == (2,) and offsets[1] - offsets[0] == 1:
            return _correlate_row(values, int(offsets[0]), weights, out)
        plan = tap_plan(values.size, offsets, weights)
    elif plan.n != values.size:
        raise DomainError(f"apply_taps: the plan is for {plan.n} values, got {values.size}")
    if plan.spectra is not None:
        # Circular correlation at length >= n + hi - lo: output i reads
        # window[i .. i + hi - lo], so none of the first n wraps.
        window = _clamped_window(values, plan.lo, np.empty(values.size + plan.size - 1))
        spectrum = rfft(window, plan.length)
        with np.errstate(invalid="ignore"):  # inf * 0 in an overflowed spectrum
            full = irfft(spectrum * plan.spectra, plan.length, overwrite_x=True)
        # a non-finite spectrum spreads over its whole row, so output 0
        # of each row tells whether the row is usable
        if np.isfinite(full[..., 0]).all():
            out[...] = full[..., : values.size]
            return out
    for row, (lo, taps) in zip(np.atleast_2d(out), plan.rows):
        _correlate_row(values, lo, taps, row)
    return out


def _fft_is_cheaper(n: int, size: int, rows: int, products: int) -> bool:
    """Whether the cost model prices the FFT correlation of ``rows`` weight
    rows on ``size`` shared offsets below ``correlate1d`` forming
    ``products`` products per point.  The FFT runs one forward and
    ``rows`` inverse transforms per call and ``rows`` more for the
    spectra, so a one-row plan applied once is priced as the three
    transforms the model was fitted to."""
    length = next_fast_len(n + size - 1, real=True)
    fft = _FFT_FIXED_S + _FFT_S * (1 + 2 * rows) / 3 * length * math.log2(length)
    return _DIRECT_S * n * products > fft


def _correlate_row(values: np.ndarray, lo: int, taps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[i] = sum_k taps[k] * values[clip(i + lo + k, 0, n - 1)]``
    without an FFT."""
    n, hi = values.size, lo + taps.size - 1
    if taps.size > 1 and lo <= 0 <= hi:
        # taps[k] reads values[i + lo + k]; the clamp is scipy's "nearest".
        return correlate1d(values, taps, output=out, mode="nearest", origin=-(lo + taps.size // 2))
    if taps.size <= 2:
        # out = w0 * values[clip(i + lo)] (+ w1 * values[clip(i + lo + 1)]),
        # the products and the one sum correlate1d would form.
        _clamped_window(values, lo, out, taps[0])
        if taps.size == 2:
            _clamped_window(values, lo + 1, out, taps[1], add=True)
        return out
    # correlate1d centres the taps at taps.size // 2; outputs from there
    # on read only inside the window, so the mode never applies.
    window = _clamped_window(values, lo, np.empty(n + hi - lo))
    start = taps.size // 2
    out[...] = correlate1d(window, taps, mode="nearest")[start : start + n]
    return out


def _clamped_window(
    values: np.ndarray,
    lo: int,
    window: np.ndarray,
    scale: float = 1.0,
    add: bool = False,
) -> np.ndarray:
    """Fill ``window[k] = scale * values[clip(lo + k, 0, n - 1)]`` (with
    ``add``, add it to ``window[k]``): one product over the inner part
    [a, b) and one for each edge value."""
    n, size = values.size, window.size
    a, b = min(max(-lo, 0), size), min(max(n - lo, 0), size)
    for part, src in (
        (slice(a, b), slice(lo + a, lo + b)),
        (slice(0, a), slice(0, 1)),
        (slice(b, size), slice(n - 1, n)),
    ):
        dst = window[part]
        if add:
            dst += values[src] * scale
        else:
            np.multiply(values[src], scale, out=dst)
    return window


def gaussian_convolve(
    values: np.ndarray,
    grid: Grid,
    std,
    shift,
    cut: float = 8.0,
    out: np.ndarray | None = None,
    taps: TapPlan | None = None,
) -> np.ndarray:
    """E[f(x + std Z + shift)] on the grid, written into ``out`` when it
    is given; for equal-length sequences ``std`` and ``shift``, one row
    per factor.  ``taps``, when given, is ``gaussian_plan(grid, std,
    shift, cut)`` built once by a caller that convolves with the same
    factors again and again."""
    if taps is None:
        taps = gaussian_plan(grid, std, shift, cut)
    return apply_taps(values, taps.offsets, taps.weights, out=out, plan=taps)


def row_max(rows, out: np.ndarray) -> np.ndarray:
    """The pointwise max of two or more rows (a sequence of arrays),
    written into ``out``: one ``np.maximum`` per row after the first,
    about half the time of a reduction over the leading axis of a short
    stack."""
    np.maximum(rows[0], rows[1], out=out)
    for row in rows[2:]:
        np.maximum(out, row, out=out)
    return out
