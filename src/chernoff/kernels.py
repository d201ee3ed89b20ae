"""Discrete convolution taps for Gaussian and transport steps.

Every expectation step downstream reduces to this module's tap code:
convolving grid values with a short nonnegative tap vector that sums
to one, a sampled Gaussian for diffusion, a one- or two-tap stencil
for transport, the mollifier's space bump.  ``apply_taps`` applies
such vectors; ``gaussian_convolve`` and the mollifier call it by that
name.  Every tap reads one edge-clamped window of the values, a
``ClampedWindow``, whose clamp is worked out once from (n, lo, hi) and
filled with one slice per part.  A shift row (one tap, or two on
adjacent cells) is one or two scaled slices of a filled window
(``ClampedWindow.shift`` and ``apply_shift``), so a step plan fills one
window per step over all of its rows' offsets and reads each atom of a
discrete scenario from it, with no ``apply_taps`` call; a step plan's
tilted frame steps in the interiors of two such windows (see
``iterate.StepOperator.plan``).  The taps act on the grid with
constant extension at the box edges, so each step preserves
constants, monotonicity, convexity, the sup norm, and Lipschitz
bounds: exactly on the direct branches below, and up to roundoff
(about 1e-15 * sup|u|) on the FFT branch.  The only error relative to
the continuum operator is Gaussian sampling aliasing, which decays
like exp(-2 pi^2 (std/dx)^2) and is negligible for std >= dx.

``apply_taps`` takes one weight row, or k rows on shared offsets (the
Gaussian factors of one step: a nisio family's controls, the Gaussian
scenarios of an lln or clt family), and writes one output row per
weight row into ``out``.  How it does so is fixed by a ``TapPlan``:
``tap_plan`` builds one for rows of n values, and a step plan builds
its own once per (operator, h) and hands it to every call, so repeated
steps transform no taps and choose no branch.  Without a plan the call
takes one row of values, builds a plan and applies it once; a shift
(one tap, or two on adjacent cells) needs none and is read from a
window of its own taps.  A plan is built for one row of n values or
for a ``stack`` of b rows on a leading batch axis (the structural
suite's pairs, the comparison check's certificate steps), and both run
through the same code: every index acts on the last axis, an edge of
the clamp is a one-column slice that broadcasts, the direct branch
correlates each values row and the FFT branch transforms them all in
one call (numpy's transforms go row by row, so each row gets the bits
of its own call).  The branch is chosen for rows of n values, so each
output row of a stack is the one a one-row plan gives its values row.

On the direct branch the call fills the plan's window over its offset
range (widened to a step plan's ``reach``, so the step's shift rows
read the same window) and correlates each row with ``np.correlate(...,
"valid")`` on its own slice of it, forming every product of every row;
a row of one or two taps (a shift, whole or fractional) is instead one
or two scaled slices of the window written into ``out``.  No value is
added to another before it is weighted, so every partial sum is a
partial weighted average and a finite input gives a finite output
however close it is to the float range.

Wide lists take an FFT branch instead, on ``numpy.fft``.  The plan fixes
one offset range [min lo, max hi] for all rows, one 5-smooth length
``next_fast_len`` at least n + hi - lo (long enough that no output
wraps) and the rows' conjugated spectra.  A call fills the window once,
runs one ``rfft``, multiplies it by the k held spectra and runs one
stacked ``irfft``; an ``out`` that is the plan's ``outputs`` view of
that inverse transform receives the rows with no copy.
``np.correlate`` costs a fixed part per output of a
row plus its m products, the FFT a fixed overhead plus L log2 L per
transform of length L; the plan takes the FFT where a cost model fitted
to step timings of both branches prices its 1 + k transforms per call
below the rows' direct cost.  For one centred row every list longer
than 545 taps takes it at n = 513, 241 at 1025, 145 at 2049 and 113 at
4095 and 8191, and for the two rows of a nisio family with sigmas 1/2
and 1 every pair wider than 289, 129, 65, 37 and 65 taps; shorter
lists that leave many products outside the dot kernel's blocks of 16
may take it earlier.  A spectrum that overflows (sup |values| within a factor of
about L of the largest float) or holds a non-finite value makes every
output of its row non-finite, so output 0 of each row is checked and
such a values row is redone on the direct branch, into the same ``out``.

A plan holds the window and, on the FFT branch, the spectrum, product
and output buffers of its transforms, so a call makes no array of its
own but ``np.correlate``'s result rows.  A plan must therefore not run
in two threads at once; each step plan builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy import correlate
from numpy.fft import irfft, rfft

from .core import DomainError, Grid

__all__ = [
    "gaussian_taps",
    "shift_taps",
    "clip_shift",
    "ClampedWindow",
    "clamped_window",
    "apply_shift",
    "TapPlan",
    "tap_plan",
    "gaussian_plan",
    "apply_taps",
    "gaussian_convolve",
    "row_max",
]

_EXACT_SHIFT_TOL = 1e-9
# Cost model of one call on rows of n points, in seconds, fitted to the
# step loop of nisio families of one and two controls with both branches
# forced, at n = 513, 1025, 2049, 4095, 8191 and 1 to 32 cells of std
# (2 cores, numpy 2.4.6 on OpenBLAS 0.3.31).  np.correlate forms each
# output of a row of m taps as one BLAS dot product: _DOT_S plus _DIRECT_S
# per product, and _TAIL_S for each of the m mod 16 products left over
# by the 16-wide kernel; numpy forms rows of up to _SMALL_ROW taps in a
# loop of its own, _DIRECT_S per product.  The FFT costs _FFT_FIXED_S more
# than that per call, plus _FFT_S * L log2 L for each of its transforms of
# length L = next_fast_len(n + size - 1).
_DIRECT_S = 0.11e-9
_DOT_S = 14e-9
_TAIL_S = 0.7e-9
_SMALL_ROW = 11
_FFT_FIXED_S = 19e-6
_FFT_S = 0.92e-9


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


def clip_shift(offset: int, n: int) -> int:
    """The first offset of a shift row (one tap, or two on adjacent
    cells) on rows of ``n`` values, clipped to [-n, n].  Every index
    past +-(n - 1) reads an edge value, so the row reads the same
    values from either offset, and a window over the clipped offsets
    spans at most 3n + 1 entries however far the shift goes."""
    return min(max(offset, -n), n)


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

    The values are one row, or a stack of ``batch`` = (b,) rows fixed
    when the plan is built; ``at`` indexes each values row.  ``rows``
    holds each weight row as its first offset and dense taps.  ``clamp``
    receives the edge-clamped values, one window per values row: on the
    direct branch over the rows' range, widened to any ``reach`` the plan
    was built with, so a caller's shift rows read the same window; on the
    FFT branch (``spectra`` not None) over the rows' range and
    zero-padded to ``length``.  There ``spectra`` holds the rows'
    conjugated transforms at that length, one per weight row (with a
    unit axis to broadcast over a stack), and ``spectrum``, ``product``
    and ``full`` receive the forward transforms, their products with the
    spectra and the inverse transforms, whose first n values of each row
    are ``outputs``.
    """

    n: int
    offsets: np.ndarray
    weights: np.ndarray
    rows: tuple[tuple[int, np.ndarray], ...]
    length: int
    spectra: np.ndarray | None
    clamp: ClampedWindow
    spectrum: np.ndarray | None = None
    product: np.ndarray | None = None
    full: np.ndarray | None = None
    batch: tuple[int, ...] = ()

    @cached_property
    def at(self) -> tuple[tuple[int, ...], ...]:
        """The index of every values row in a batch: ``((),)`` for one row."""
        return tuple(np.ndindex(self.batch))

    @cached_property
    def outputs(self) -> np.ndarray | None:
        """On the FFT branch, the view of ``full`` that holds the outputs:
        an ``out`` that is this view receives them with no copy."""
        return None if self.full is None else self.full[..., : self.n]


def tap_plan(n: int, offsets, weights, stack: int | None = None) -> TapPlan:
    """The ``TapPlan`` of ``weights`` on ``offsets`` for one row of ``n``
    values, or a (``stack``, n) stack of them: the branch chosen by the
    cost model of ``_fft_is_cheaper`` for rows of n values and, on the
    FFT branch, the rows' spectra.  Offsets may be unsorted or
    repeated."""
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
    dense = dense.reshape(weights.shape[:-1] + (size,))
    return _plan(n, offsets, weights, lo, dense, rows, stack)


def gaussian_plan(
    grid: Grid, std, shift, cut: float = 8.0, stack: int | None = None, reach=None
) -> TapPlan:
    """The ``TapPlan`` of ``gaussian_taps(std, shift, grid.spacing[0],
    cut)``; for equal-length sequences ``std`` and ``shift``, one weight
    row per factor on the shared range of their taps.  Each factor's
    offsets ascend one cell at a time, so its weights are already dense,
    and on the direct branch each row keeps its own range.  ``stack``
    as for ``tap_plan``.  ``reach``, a (lo, hi) offset range, widens the
    direct branch's window to cover it too; the branch is chosen without
    it."""
    dx = grid.spacing[0]
    if np.ndim(std) == 0:
        offsets, weights = gaussian_taps(std, shift, dx, cut)
        lo = int(offsets[0])
        return _plan(grid.size, offsets, weights, lo, weights, [(lo, weights)], stack, reach)
    factors = [gaussian_taps(s, m, dx, cut) for s, m in zip(std, shift, strict=True)]
    rows = [(int(o[0]), w) for o, w in factors]
    lo = min(start for start, _ in rows)
    weights = np.zeros((len(rows), max(start + w.size for start, w in rows) - lo))
    for dense, (start, w) in zip(weights, rows):
        dense[start - lo : start - lo + w.size] = w
    offsets = np.arange(lo, lo + weights.shape[1])
    return _plan(grid.size, offsets, weights, lo, weights, rows, stack, reach)


def _plan(
    n: int, offsets, weights, lo: int, dense: np.ndarray, rows, stack: int | None, reach=None
) -> TapPlan:
    """The plan of ``weights`` on ``offsets``, given as ``dense`` taps from
    offset ``lo`` (one row per weight row) and each row's own range, for
    one row of n values or a ``stack`` of them, its direct-branch window
    widened to the (lo, hi) offsets ``reach``.  The branch depends on n
    and the taps alone, so every row of a stack takes the branch a
    one-row plan takes."""
    size = dense.shape[-1]
    rows = tuple(rows)
    batch = () if stack is None else (stack,)
    if not (size > 2 and _fft_is_cheaper(n, size, [t.size for _, t in rows])):
        first, last = lo, lo + size - 1
        if reach is not None:
            first, last = min(first, reach[0]), max(last, reach[1])
        clamp = clamped_window(n, first, last, batch)
        return TapPlan(n, offsets, weights, rows, 0, None, clamp, batch=batch)
    length = next_fast_len(n + size - 1)
    # one spectrum per weight row, with a unit axis per batch axis to broadcast over
    spectra = np.conj(rfft(dense, length))
    spectra = spectra.reshape(dense.shape[:-1] + (1,) * len(batch) + spectra.shape[-1:])
    spectrum = np.empty(batch + (length // 2 + 1,), dtype=complex)
    product = np.empty(np.broadcast_shapes(spectra.shape, spectrum.shape), dtype=complex)
    return TapPlan(
        n, offsets, weights, rows, length, spectra,
        clamp=clamped_window(n, lo, lo + size - 1, batch, length),
        spectrum=spectrum,
        product=product,
        full=np.empty(product.shape[:-1] + (length,)),
        batch=batch,
    )


@lru_cache(maxsize=1024)
def next_fast_len(target: int) -> int:
    """The least 2^a 3^b 5^c >= ``target``: a length whose real transform
    is fast, as ``scipy.fft.next_fast_len(target, real=True)`` gives."""
    best = 1 << max(target - 1, 0).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least power of two that lifts this 3^b 5^c to target
            best = min(best, odd << max(-(-target // odd) - 1, 0).bit_length())
            odd *= 3
        odd5 *= 5
    return best


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

    ``values`` is one row of n values, or with a plan built for a stack
    of b rows, a (b, n) stack of them.  The result goes into ``out`` (a
    float64 array of shape ``weights.shape[:-1] + values.shape`` that
    does not overlap the values) and is returned; without ``out`` it is
    a new array.  ``plan``, when given, is ``tap_plan(n, offsets,
    weights)`` (or its ``stack``) built once by a caller that applies the
    same taps again and again; on its FFT branch ``out`` may be the
    plan's ``outputs``, which then hold the result with no copy.  Each
    value row of a stack gets the bits a one-row plan gives it.  The FFT
    branch agrees with the sum to roundoff (about 1e-15 * sup|values|);
    when output 0 of any weight row of a value row is not finite there,
    that value row is redone on the direct branch.
    """
    values = np.asarray(values, dtype=float)
    if plan is None and values.ndim != 1:
        raise DomainError(f"apply_taps: values must be one row, got shape {values.shape}")
    if plan is not None and values.shape != plan.batch + (plan.n,):
        raise DomainError(
            f"apply_taps: the plan is for values of shape {plan.batch + (plan.n,)}, "
            f"got {values.shape}"
        )
    weights = np.asarray(weights, dtype=float)
    shape = weights.shape[:-1] + values.shape
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != float:
        raise DomainError(f"apply_taps: out must be float64 of shape {shape}")
    if plan is None:
        # a shift, whole or fractional (``shift_taps``), has nothing to plan
        offsets = np.asarray(offsets)
        if offsets.shape == weights.shape == (1,) or (
            offsets.shape == weights.shape == (2,) and offsets[1] - offsets[0] == 1
        ):
            lo = clip_shift(int(offsets[0]), values.size)
            clamp = clamped_window(values.size, lo, lo + offsets.size - 1)
            clamp.fill(values)
            return apply_shift(clamp.shift(lo, weights), out)
        plan = tap_plan(values.size, offsets, weights)
    plan.clamp.fill(values)
    if plan.spectra is None:
        return _direct(plan, out, plan.at)
    # Circular correlation at length >= n + hi - lo: output i reads
    # window[i .. i + hi - lo], so none of the first n wraps.  An
    # overflowed spectrum warns and gives inf * 0; both are caught below.
    with np.errstate(over="ignore", invalid="ignore"):
        rfft(plan.clamp.window, out=plan.spectrum)
        np.multiply(plan.spectrum, plan.spectra, out=plan.product)
        irfft(plan.product, plan.length, out=plan.full)
    # a non-finite spectrum spreads over its whole row, so output 0 of
    # each row tells whether the row is usable; a values row with an
    # unusable row of any weight row is redone on the direct branch
    if out is not plan.outputs:
        out[...] = plan.outputs
    finite = np.isfinite(plan.full[..., 0])
    if not finite.all():
        bad = ~finite.reshape((-1,) + plan.batch).all(axis=0)
        _direct(plan, out, [tuple(i) for i in np.argwhere(bad)])
    return out


def _direct(plan: TapPlan, out: np.ndarray, at) -> np.ndarray:
    """The direct branch of ``plan`` on the values rows at the batch
    indices ``at`` (``plan.at``: every row), read from the filled window:
    a weight row of one or two taps of a direct-branch plan as one or two
    scaled slices of it for every values row, any other row by
    ``np.correlate`` of each values row's window with it."""
    n, clamp = plan.n, plan.clamp
    for target, (lo, taps) in zip(out if plan.weights.ndim == 2 else (out,), plan.rows):
        if taps.size <= 2 and plan.spectra is None:
            apply_shift(clamp.shift(lo, taps), target)
            continue
        span = slice(lo - clamp.lo, lo - clamp.lo + n + taps.size - 1)
        for i in at:
            target[i] = correlate(clamp.window[i][span], taps, "valid")
    return out


def _fft_is_cheaper(n: int, size: int, taps: list[int]) -> bool:
    """Whether the cost model prices one call of the FFT correlation of
    weight rows of ``taps`` taps each, on ``size`` shared offsets, below
    the direct branch.  A plan is built to be applied again and again, so
    a call is priced as its one forward and len(taps) inverse transforms;
    the transforms of the taps, made once, are left out."""
    length = next_fast_len(n + size - 1)
    fft = _FFT_FIXED_S + _FFT_S * (1 + len(taps)) * length * math.log2(length)
    direct = 0.0
    for m in taps:
        direct += _DIRECT_S * m
        if m > _SMALL_ROW:
            direct += _DOT_S + _TAIL_S * (m % 16)
    return n * direct > fft


def _clamp_parts(n: int, lo: int, size: int):
    """``window[..., k] = values[..., clip(lo + k, 0, n - 1)]`` for k <
    ``size`` as its nonempty parts, each a (destination, source) pair of
    indices on the last axis: the inner part [a, b) reads the slice of
    values from lo + a, the low edge [0, a) the one-column slice at 0 and
    the high edge [b, size) the one at n - 1, which broadcast over their
    parts.  The one implementation of the edge clamp, for one row of
    values and a stack of rows alike."""
    a, b = min(max(-lo, 0), size), min(max(n - lo, 0), size)
    parts = (
        (slice(a, b), slice(lo + a, lo + b)),
        (slice(0, a), slice(0, 1)),
        (slice(b, size), slice(n - 1, n)),
    )
    return tuple(((..., dst), (..., src)) for dst, src in parts if dst.start < dst.stop)


@dataclass(frozen=True, eq=False)
class ClampedWindow:
    """The edge-clamped ``window[..., k] = values[..., clip(lo + k, 0, n -
    1)]`` of rows of ``n`` values (one row, or a stack on leading axes)
    for the offsets from ``lo`` to some hi, k < n + hi - lo, with the
    clamp worked out once: ``parts`` are its nonempty ``_clamp_parts``.
    ``window`` may run past n + hi - lo (the FFT branch's zero padding),
    where ``fill`` does not write.  A window whose offsets cover 0 (lo <=
    0 <= hi) holds the values themselves in its ``interior``, and its
    ``ramps`` write its edge cells for values held there in a tilted
    frame."""

    n: int
    lo: int
    window: np.ndarray
    parts: tuple

    def fill(self, values: np.ndarray) -> np.ndarray:
        """Write the clamped ``values`` into the window, one slice per part."""
        for dst, src in self.parts:
            self.window[dst] = values[src]
        return self.window

    @cached_property
    def interior(self) -> np.ndarray:
        """The view of the window at offsets 0 to n - 1, which holds the
        values themselves: the same array object on every access."""
        if not (self.lo <= 0 and self.window.shape[-1] >= self.n - self.lo):
            raise DomainError("the window's offsets do not cover 0")
        return self.window[..., -self.lo : self.n - self.lo]

    def twin(self) -> "ClampedWindow":
        """A window of the same clamp (its ``parts`` shared, not worked
        out again) on an unwritten array of its own; for a window with no
        zero padding, which ``fill`` writes whole."""
        return ClampedWindow(self.n, self.lo, np.empty_like(self.window), self.parts)

    def ramps(self, slope: float) -> tuple:
        """The edge cells of the window in a frame tilted by ``slope`` per
        cell, as (destination, source, ramp) triples: ``np.add(source,
        ramp, out=destination)`` writes each edge cell as the interior's
        first or last value plus ``slope`` times the cell's distance from
        it.  If the interior holds u(i) + slope i, the window then holds
        u(clip(q)) + slope q at every offset q: the clamp of u, tilted as
        the interior is, so a shift and the tilt commute on it."""
        n, lo, window = self.n, self.lo, self.window
        hi = window.shape[-1] - n + lo
        if not lo <= 0 <= hi:
            raise DomainError("the window's offsets do not cover 0")
        line = slope * np.arange(lo, hi + 1)  # slope q for the offsets q from lo to hi
        edges = []
        if lo < 0:  # offsets lo .. -1, below cell 0
            edges.append((window[..., :-lo], window[..., -lo : 1 - lo], line[:-lo]))
        if hi > 0:  # offsets n .. n + hi - 1, 1 .. hi cells above cell n - 1
            edges.append((window[..., n - lo :], window[..., n - 1 - lo : n - lo], line[1 - lo :]))
        return tuple(edges)

    def shift(self, offset: int, weights) -> tuple[tuple[float, np.ndarray], ...]:
        """The shift row of one or two ``weights`` on ``offset`` (and
        ``offset + 1``) as (weight, view) pairs for ``apply_shift``: tap j
        reads the n window entries from ``offset + j``, which hold
        ``values[..., clip(i + offset + j, 0, n - 1)]``."""
        start = offset - self.lo
        return tuple(
            (float(w), self.window[..., start + j : start + j + self.n])
            for j, w in enumerate(weights)
        )


def clamped_window(
    n: int, lo: int, hi: int, batch: tuple[int, ...] = (), length: int | None = None
) -> ClampedWindow:
    """The ``ClampedWindow`` of offsets ``lo`` to ``hi`` for a ``batch``
    of rows of ``n`` values, its window zero-padded to ``length`` when
    that is given."""
    size = n + hi - lo
    window = np.empty(batch + (size,)) if length is None else np.zeros(batch + (length,))
    return ClampedWindow(n, lo, window, _clamp_parts(n, lo, size))


def apply_shift(shift, out: np.ndarray, minus: float = 0.0) -> np.ndarray:
    """Write ``out = w0 * view0 (+ w1 * view1) - minus`` for a shift row
    of (weight, view) pairs (``ClampedWindow.shift``) and return ``out``:
    one scaled slice, a second one added to it, then ``minus`` taken off.
    A single tap of weight 1 is a copy, and takes ``minus`` off in that
    copy."""
    (w, view), rest = shift[0], shift[1:]
    if minus and w == 1.0 and not rest:  # x * 1.0 - m is x - m exactly
        return np.subtract(view, minus, out=out)
    if w == 1.0:  # x * 1.0 is x exactly
        np.copyto(out, view)
    else:
        np.multiply(view, w, out=out)
    for w, view in rest:
        out += view * w
    if minus:
        out -= minus
    return out


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
    """The pointwise max of one or more rows (a sequence of arrays),
    written into ``out``: a copy of a lone row, else one ``np.maximum``
    per row after the first, about half the time of a reduction over the
    leading axis of a short stack."""
    if len(rows) == 1:
        np.copyto(out, rows[0])
        return out
    np.maximum(rows[0], rows[1], out=out)
    for row in rows[2:]:
        np.maximum(out, row, out=out)
    return out
