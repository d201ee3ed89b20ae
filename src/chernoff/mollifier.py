"""Space-time smoothing kernel, its derivative constants, and mollification.

The kernel is a fixed product of 1D bumps on the line,

    eta(s, y) = tau(s) * varsigma(y),
    tau(s) = 2 beta(2s - 1) / I,    varsigma(y) = beta(y) / I,
    beta(z) = exp(-1/(1 - z^2)) for |z| < 1,   I = integral of beta,

supported in [0,1] x [-1, 1] and normalized to unit mass.  All rate
constants downstream depend on the L1 norms of its derivatives

    b(k, l) = || d^k/ds^k  d^l/dy^l eta ||_{L1},

which factor into 1D integrals of |beta^{(n)}|.  The n-th derivative of
the bump is beta * Q_n / (1 - z^2)^{2n} with a polynomial Q_n obtained
by differentiating the previous one, so each 1D integral is split at
the real roots of Q_n, where beta^(n) changes sign, and each piece is
integrated by a double-exponential (tanh-sinh) rule.  The rule's nodes
crowd towards the ends of a piece, where the integrand is analytic
inside and flat at +-1, so the sum converges to roundoff: within about
2e-16 relative of 40-digit values for n = 0..3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .core import DomainError, SpaceTimeFunction
from .kernels import apply_taps, tap_plan

__all__ = [
    "MollifierKernel",
    "Epsilon",
    "kernel_constant",
    "mollify",
    "derivative_bound_check",
    "DerivativeBoundReport",
    "bump",
    "bump_derivative",
]

MAX_TIME_ORDER = 2
MAX_SPACE_ORDER = 3
# the relative slack a measured derivative sup may take over its bound
DERIVATIVE_TOL = 0.05


def bump(z):
    """exp(-1/(1-z^2)) inside (-1, 1), zero outside."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    out[inside] = np.exp(-1.0 / (1.0 - zi * zi))
    return out


@lru_cache(maxsize=None)
def _bump_poly(n: int) -> Polynomial:
    """Polynomial Q_n with beta^(n) = beta * Q_n / (1-z^2)^(2n)."""
    if n < 1:
        raise DomainError("derivative order must be >= 1")
    if n == 1:
        return Polynomial([0.0, -2.0])
    q = _bump_poly(n - 1)
    one_minus = Polynomial([1.0, 0.0, -1.0])
    z = Polynomial([0.0, 1.0])
    return -2.0 * z * q + q.deriv() * one_minus**2 + 4.0 * (n - 1) * z * q * one_minus


def bump_derivative(n: int, z):
    """n-th derivative of the bump, vectorized, zero outside (-1, 1)."""
    if n == 0:
        return bump(z)
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    q = _bump_poly(n)
    out[inside] = (
        np.exp(-1.0 / (1.0 - zi * zi)) * q(zi) / (1.0 - zi * zi) ** (2 * n)
    )
    return out


# tanh-sinh nodes s = k / 64 with |s| <= 6, where the weights have fallen
# below 1e-270
_TS_STEP = 1.0 / 64
_TS_NODES = np.arange(-384, 385) * _TS_STEP


def _tanh_sinh(f, a: float, b: float) -> float:
    """Integral of ``f`` (vectorized) over [a, b] by the tanh-sinh rule:
    the trapezoid sum over ``_TS_NODES`` of f(z) dz/ds, z = (a + b)/2 +
    (b - a)/2 * tanh(pi/2 sinh s)."""
    u = 0.5 * np.pi * np.sinh(_TS_NODES)
    half = 0.5 * (b - a)
    z = 0.5 * (a + b) + half * np.tanh(u)
    weights = half * 0.5 * np.pi * np.cosh(_TS_NODES) / np.cosh(u) ** 2
    return _TS_STEP * float(np.sum(weights * f(z)))


@lru_cache(maxsize=None)
def _bump_mass() -> float:
    return _tanh_sinh(bump, -1.0, 1.0)


@lru_cache(maxsize=None)
def _bump_deriv_l1(n: int) -> float:
    """Integral of |beta^(n)| over (-1, 1)."""
    if n == 0:
        return _bump_mass()
    roots = _bump_poly(n).roots()
    cuts = sorted(
        float(r.real) for r in roots if abs(r.imag) < 1e-12 and -1.0 < r.real < 1.0
    )
    edges = [-1.0] + cuts + [1.0]
    return sum(
        abs(_tanh_sinh(lambda z: bump_derivative(n, z), a, b))
        for a, b in zip(edges[:-1], edges[1:])
    )


@dataclass(frozen=True)
class MollifierKernel:
    """The fixed product bump kernel on the line.

    ``dim`` accepts 1 alone.  It stays a field because the benchmark
    builds ``MollifierKernel(1)``; it goes with the benchmark change of
    ROADMAP item 8."""

    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim != 1:
            raise DomainError("the kernel is one-dimensional: dim must be 1")

    def time_factor(self, s):
        """tau(s), the density of the time variable on [0, 1]."""
        return 2.0 * bump(2.0 * np.asarray(s, float) - 1.0) / _bump_mass()

    def space_factor(self, y):
        """varsigma(y), the density of the space variable on [-1, 1]."""
        return bump(np.asarray(y, float)) / _bump_mass()

    def density(self, s, y):
        """eta(s, y) with y of shape (..., 1)."""
        return self.time_factor(s) * self.space_factor(np.asarray(y, dtype=float)[..., 0])

    @cached_property
    def constants(self) -> dict[tuple[int, int], float]:
        """The full b(k, l) table for k <= 2, l <= 3."""
        return {
            (k, l): kernel_constant(k, l)
            for k in range(MAX_TIME_ORDER + 1)
            for l in range(MAX_SPACE_ORDER + 1)
        }

    def b(self, k: int, l: int) -> float:
        return self.constants[(k, l)]


def kernel_constant(k: int, l: int) -> float:
    """L1 norm of the (k, l) kernel derivative.

    The kernel factors, so the norm is a product of 1D integrals: the
    time factor contributes 2^k ||beta^(k)||_1 / I and the space factor
    ||beta^(l)||_1 / I.
    """
    if not (0 <= k <= MAX_TIME_ORDER and 0 <= l <= MAX_SPACE_ORDER):
        raise DomainError(
            f"kernel constants are tabulated for k <= {MAX_TIME_ORDER}, "
            f"l <= {MAX_SPACE_ORDER}; got (k, l) = ({k}, {l})"
        )
    mass = _bump_mass()
    time_part = 2.0**k * _bump_deriv_l1(k) / mass
    return time_part * (_bump_deriv_l1(l) / mass)


@dataclass(frozen=True)
class Epsilon:
    """Smoothing radii: eps1 in time, eps2 in space."""

    eps1: float
    eps2: float

    def __post_init__(self) -> None:
        if not (self.eps1 > 0 and self.eps2 > 0):
            raise DomainError("smoothing radii must be positive")

    @classmethod
    def coupled(cls, eps2: float, p: float) -> "Epsilon":
        """Tie the widths as eps1 = eps2^(1+p), balancing the error addends."""
        return cls(float(eps2) ** (1.0 + p), float(eps2))


# ---------------------------------------------------------------------------
# mollification


_TIME_NODES = 32


@lru_cache(maxsize=None)
def _time_rule() -> tuple[np.ndarray, np.ndarray]:
    # nodes on [0, 1], weights include the density and are normalized
    z, w = np.polynomial.legendre.leggauss(_TIME_NODES)
    s = (z + 1.0) / 2.0
    kernel = MollifierKernel(1)
    wt = w * kernel.time_factor(s)
    return s, wt / wt.sum()


@lru_cache(maxsize=None)
def _space_taps(eps2: float, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Space kernel sampled on the grid lattice, normalized.

    Sampling at grid resolution (rather than at a handful of quadrature
    nodes) keeps the smoothed function free of spurious kinks between
    sample offsets, which matters when finite differences of the output
    are taken at grid spacing.  The taps are nonnegative and sum to
    one, so constants, monotonicity, sup norms, and Lipschitz bounds
    are preserved exactly.
    """
    j_max = int(np.ceil(eps2 / dx))
    offsets = np.arange(-j_max, j_max + 1)
    weights = MollifierKernel(1).space_factor(offsets * dx / eps2)
    total = weights.sum()
    if total <= 0.0:  # radius below grid resolution: identity
        return np.array([0]), np.array([1.0])
    return offsets, weights / total


# Rows are averaged in time and smoothed in space in blocks of at most
# _STACK rows of the grid, each block one stack through a space plan, and
# at most _INTERP_BYTES of interpolation weights (32 rows of len(u.times)
# per time) are held at once.  On the clt_certify benchmark (65 frames of
# 4095 points) stacks of 8 rows ran no faster than stacks of 4 and raised
# the process's peak resident memory by about 0.35 MB; 4 left it as it was.
_STACK = 4
_INTERP_BYTES = 1 << 18


def _space_smoother(grid, eps2: float):
    """``smooth(rows, out)``: the space taps applied to a stack of at most
    ``_STACK`` rows of ``grid``, written into ``out``, through one
    ``TapPlan`` per stack height, built on its first use.  Each row of a
    stack gets the bits a one-row plan gives it.  A plan holds scratch
    buffers of its stack's size (on the FFT branch the window, spectrum,
    product and inverse transform of each row), so each call of
    ``mollify`` or ``derivative_bound_check`` makes its own smoother and
    keeps at most two plans: one for full blocks, one for a shorter
    last block."""
    taps = _space_taps(eps2, grid.spacing[0])
    plans = {}

    def smooth(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        if len(rows) not in plans:
            plans[len(rows)] = tap_plan(grid.size, *taps, stack=len(rows))
        return apply_taps(rows, *taps, out=out, plan=plans[len(rows)])

    return smooth


def _time_weights(u: SpaceTimeFunction, eps: Epsilon, times: np.ndarray) -> np.ndarray:
    """Weights over u's samples whose product with ``u.values`` is the
    time average at each of ``times`` (a (len(times), len(u.times))
    array): the 32-node rule on [t, t + eps1] applied to the rows of one
    ``u.interp_weights`` call for every node of every time, a (32
    len(times), len(u.times)) block, one (32, len(u.times)) slice of it
    per time.  Callers pass blocks of times (``_time_blocks``)."""
    s_nodes, s_weights = _time_rule()
    nodes = u.interp_weights((np.asarray(times, float)[:, None] + eps.eps1 * s_nodes).ravel())
    n = s_nodes.size
    return np.array([s_weights @ nodes[i : i + n] for i in range(0, len(nodes), n)])


def _time_blocks(u: SpaceTimeFunction, count: int, most: int):
    """Slices of ``count`` times in blocks of at most ``most`` times whose
    32 interpolation rows each fit in ``_INTERP_BYTES``."""
    size = max(1, min(most, _INTERP_BYTES // (_TIME_NODES * len(u.times) * 8)))
    return [slice(i, min(i + size, count)) for i in range(0, count, size)]


def _combine(weights: np.ndarray, u: SpaceTimeFunction) -> np.ndarray:
    """``weights @ u.values`` for a stack of weight rows, each summed over
    the samples where it is non-zero only: a row of time weights covers
    the few samples its window spans.  Each row is the one ``einsum``
    sum of the full row, in the same order of samples, since the zero
    terms it skips add nothing (an all-zero row gives zeros).  Summed by
    ``einsum``, not BLAS: with two BLAS threads on a 2-core host, a (49,
    65) x (65, 4095) gemm took 16 ms in about one process in three (0.4
    ms in the others), while ``einsum`` takes 6 ms in all."""
    out = np.zeros((len(weights),) + u.values.shape[1:])
    for row, w in zip(out, weights):
        span = np.flatnonzero(w)
        if span.size:
            band = slice(span[0], span[-1] + 1)
            np.einsum("j,jk->k", w[band], u.values[band], out=row)
    return out


def _coverage_check(u: SpaceTimeFunction, eps: Epsilon, times: np.ndarray) -> None:
    tol = 1e-12 * max(1.0, abs(u.t_max))
    bad = [t for t in times if t < u.t_min - tol or t + eps.eps1 > u.t_max + tol]
    if bad:
        t = bad[0]
        raise DomainError(
            f"mollification at t = {t} needs samples on [{t}, {t + eps.eps1}], "
            f"but u is sampled on [{u.t_min}, {u.t_max}]"
        )


def mollify(
    u: SpaceTimeFunction, eps: Epsilon, times: np.ndarray | None = None
) -> SpaceTimeFunction:
    """Forward-in-time space-time average of u against the kernel.

    Output time t uses samples of u on [t, t + eps1], so by default the
    output keeps exactly those input times with full coverage.  Explicit
    ``times`` may be any increasing sequence with coverage; values in
    time come from the piecewise-linear interpolant of the stored
    slices.

    Output times are taken in blocks of at most ``_STACK``, and fewer
    when their interpolation rows would pass ``_INTERP_BYTES`` (32 rows
    of len(u.times) weights per time).  A block's weight rows over the
    samples (the kernel's 32-node rule folded into the rows of one
    ``u.interp_weights`` call) give its time-averaged rows through the
    banded ``_combine``, and those rows are smoothed in space as one
    stack through a ``TapPlan`` built for the call (a second one for a
    shorter last block).  Every output row gets the bits of averaging
    and smoothing its time alone.  Besides the output, memory holds a
    block's interpolation rows, its time-averaged rows and the plans'
    buffers, a few stacks of grid rows.
    """
    if eps.eps2 > u.grid.upper[0] - u.grid.lower[0]:
        raise DomainError("space radius exceeds the grid extent")
    if times is None:
        tol = 1e-12 * max(1.0, abs(u.t_max))
        times = np.array([t for t in u.times if t + eps.eps1 <= u.t_max + tol])
        if times.size == 0:
            raise DomainError(
                f"no sample time has coverage [t, t + {eps.eps1}] inside "
                f"[{u.t_min}, {u.t_max}]"
            )
    else:
        times = np.asarray(times, dtype=float)
        _coverage_check(u, eps, times)
    vals = np.empty((len(times),) + u.values.shape[1:])
    smooth = _space_smoother(u.grid, eps.eps2)
    for block in _time_blocks(u, len(times), _STACK):
        smooth(_combine(_time_weights(u, eps, times[block]), u), vals[block])
    return SpaceTimeFunction(u.grid, times, vals)


# ---------------------------------------------------------------------------
# derivative bound check


@dataclass(frozen=True)
class DerivativeBoundReport:
    k: int
    l: int
    measured: float
    bound: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound * (1.0 + self.tol)


def _divided_difference(values: np.ndarray, axis: int, order: int, step: float):
    out = values
    for _ in range(order):
        out = np.diff(out, axis=axis)
    return out / step**order


def derivative_bound_check(
    u: SpaceTimeFunction,
    eps: Epsilon,
    k: int,
    l: int,
    r,
    n_times: int = 5,
) -> DerivativeBoundReport:
    """Compare finite differences of the mollified u against the bound

        r(t + eps1) * b(k, l-1) * eps1^(-k) * eps2^(1-l)

    (the d^(l/2) factor of the bound is 1 on the line); the report
    passes within a relative slack of ``DERIVATIVE_TOL``.

    The bound needs l >= 1 (its constant is b(k, l-1)); pure-time
    orders are rejected.  ``r`` is the Lipschitz/bound radius of
    u(t, .), a float or a non-decreasing callable of t.

    Divided differences of order k (time) and l (space) are mean values
    of the true derivatives, so the measured sup is a lower estimate of
    the derivative sup and the comparison is meaningful without
    finite-difference inflation.  The time step is eps1/50, far below
    the scale on which the mollified function varies.

    The k-th time difference at each centre is taken of the k + 1
    stencil times' weight rows over the samples, the weight rows of all
    n_times (k + 1) stencil times coming from one ``_time_weights`` call
    (blocked by ``_INTERP_BYTES`` like mollify's).  So one time-averaged
    row per centre is formed, by one banded ``_combine`` of the n_times
    differenced rows, and those rows are smoothed in space in stacks of
    at most ``_STACK`` (``_space_smoother``, built for the call), the
    l-th space difference then taken of each row of a stack.  Smoothing
    is linear, so this equals differencing the smoothed rows up to
    roundoff.  Memory is the stencil times' interpolation rows (at most
    ``_INTERP_BYTES`` at once) and weight rows, n_times grid rows and a
    few stacks of ``_STACK`` grid rows.
    """
    if l == 0:
        if k == 0:
            raise DomainError("(k, l) = (0, 0) is the identity bound; nothing to check")
        raise DomainError(
            "time-only orders (l = 0) are outside the bound's domain (it uses b(k, l-1))"
        )
    if not (0 <= k <= MAX_TIME_ORDER and 1 <= l <= MAX_SPACE_ORDER):
        raise DomainError(f"unsupported derivative order (k, l) = ({k}, {l})")
    radius = r if callable(r) else (lambda _t: float(r))

    constant = kernel_constant(k, l - 1)
    dt = eps.eps1 / 50.0
    lo = u.t_min + k * dt
    hi = u.t_max - eps.eps1 - k * dt
    if hi < lo:
        raise DomainError("trajectory too short for the requested time stencil")
    centers = np.linspace(lo, hi, n_times) if hi > lo else np.array([lo])

    # every centre's stencil times, centre by centre
    stencils = (centers[:, None] + (np.arange(k + 1) - k / 2.0) * dt).ravel()
    weights = np.concatenate(
        [_time_weights(u, eps, stencils[i]) for i in _time_blocks(u, stencils.size, stencils.size)]
    )
    # time difference of the weight rows, then one smoothed row per
    # centre: the space smoothing is linear, so it commutes with the
    # difference
    weights = weights.reshape(len(centers), k + 1, -1)
    rows = _combine(_divided_difference(weights, 1, k, dt)[:, 0], u)
    smooth, sups = _space_smoother(u.grid, eps.eps2), []
    for i in range(0, len(rows), _STACK):
        stack = rows[i : i + _STACK]
        block = _divided_difference(smooth(stack, np.empty_like(stack)), 1, l, u.grid.spacing[0])
        sups.extend(np.abs(block, out=block).max(axis=1).tolist())
    worst_ratio = -np.inf
    best = None
    for t, measured in zip(centers, sups):
        bound = radius(t + eps.eps1) * constant * eps.eps1 ** (-k) * eps.eps2 ** (1 - l)
        if measured / bound > worst_ratio:
            worst_ratio = measured / bound
            best = (measured, bound)
    assert best is not None
    return DerivativeBoundReport(k, l, best[0], best[1], DERIVATIVE_TOL)
