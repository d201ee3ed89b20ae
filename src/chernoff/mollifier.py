"""Space-time smoothing kernel, its derivative constants, and mollification.

The kernel is a fixed tensor product of 1D bumps,

    eta(s, y) = tau(s) * prod_i varsigma(y_i),
    tau(s) = 2 beta(2s - 1) / I,    varsigma(y) = sqrt(d) beta(sqrt(d) y) / I,
    beta(z) = exp(-1/(1 - z^2)) for |z| < 1,   I = integral of beta,

supported in [0,1] x B(1) and normalized to unit mass.  All rate
constants downstream depend on the L1 norms of its derivatives

    b(k, l) = max over multi-indices |alpha| = l of
              || d^k/ds^k  D^alpha eta ||_{L1},

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

import itertools
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


def _space_multi_indices(d: int, l: int):
    """Every multi-index alpha in N^d with |alpha| = l."""
    return [a for a in itertools.product(range(l + 1), repeat=d) if sum(a) == l]


@dataclass(frozen=True)
class MollifierKernel:
    """The fixed tensor-product bump kernel in dimension ``dim``."""

    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise DomainError("kernel dimension must be 1 or 2")

    def time_factor(self, s):
        """tau(s), the density of the time variable on [0, 1]."""
        return 2.0 * bump(2.0 * np.asarray(s, float) - 1.0) / _bump_mass()

    def space_factor(self, y):
        """varsigma(y), per-axis space density on [-1/sqrt(d), 1/sqrt(d)]."""
        rd = np.sqrt(self.dim)
        return rd * bump(rd * np.asarray(y, float)) / _bump_mass()

    def density(self, s, y):
        """eta(s, y) with y of shape (..., dim)."""
        y = np.asarray(y, dtype=float)
        out = self.time_factor(s)
        for ax in range(self.dim):
            out = out * self.space_factor(y[..., ax])
        return out

    @cached_property
    def constants(self) -> dict[tuple[int, int], float]:
        """The full b(k, l) table for k <= 2, l <= 3."""
        return {
            (k, l): kernel_constant(self, k, l)
            for k in range(MAX_TIME_ORDER + 1)
            for l in range(MAX_SPACE_ORDER + 1)
        }

    def b(self, k: int, l: int) -> float:
        return self.constants[(k, l)]


def kernel_constant(kernel: MollifierKernel, k: int, l: int) -> float:
    """L1 norm of the (k, alpha) kernel derivative, maximized over |alpha| = l.

    The kernel factors, so the norm is a product of 1D integrals:
    the time factor contributes 2^k ||beta^(k)||_1 / I and each space
    axis with derivative order j contributes d^(j/2) ||beta^(j)||_1 / I.
    """
    if not (0 <= k <= MAX_TIME_ORDER and 0 <= l <= MAX_SPACE_ORDER):
        raise DomainError(
            f"kernel constants are tabulated for k <= {MAX_TIME_ORDER}, "
            f"l <= {MAX_SPACE_ORDER}; got (k, l) = ({k}, {l})"
        )
    mass = _bump_mass()
    time_part = 2.0**k * _bump_deriv_l1(k) / mass
    d = kernel.dim
    best = 0.0
    for alpha in _space_multi_indices(d, l):
        part = 1.0
        for j in alpha:
            part *= d ** (j / 2.0) * _bump_deriv_l1(j) / mass
        best = max(best, part)
    return time_part * best


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


def _space_plan(grid, eps2: float):
    """The space taps and their ``TapPlan`` for rows of ``grid``.  The
    plan holds scratch buffers, so each call of ``mollify`` or
    ``derivative_bound_check`` builds its own and applies it row by row."""
    taps = _space_taps(eps2, grid.spacing[0])
    return taps, tap_plan(grid.size, *taps)


def _time_weights(u: SpaceTimeFunction, eps: Epsilon, t: float) -> np.ndarray:
    """Weights over u's samples whose product with ``u.values`` is the
    time average at ``t``: the 32-node rule on [t, t + eps1] applied to
    the rows of ``u.interp_weights``, a (32, len(u.times)) block."""
    s_nodes, s_weights = _time_rule()
    return s_weights @ u.interp_weights(t + eps.eps1 * s_nodes)


def _combine(weights: np.ndarray, u: SpaceTimeFunction) -> np.ndarray:
    """``weights @ u.values`` for one weight row or a stack of them.
    Summed by ``einsum``, not BLAS: with two BLAS threads on a 2-core
    host, a (49, 65) x (65, 4095) gemm took 16 ms in about one process
    in three (0.4 ms in the others), while ``einsum`` takes 6 ms in all."""
    return np.einsum("...j,jk->...k", weights, u.values)


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

    All output times are averaged in time at once: their weight rows
    over the samples (the kernel's 32-node rule folded into the rows of
    ``u.interp_weights``) form a (len(times), len(u.times)) matrix whose
    product with ``u.values`` gives every time-averaged row.  Each row
    is then smoothed in space through one ``TapPlan`` built for the
    call.  Besides the output, memory holds that matrix and one (32,
    len(u.times)) block of interpolation weights.
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
    taps, plan = _space_plan(u.grid, eps.eps2)
    rows = _combine(np.stack([_time_weights(u, eps, t) for t in times]), u)
    vals = np.stack([apply_taps(row, *taps, plan=plan) for row in rows])
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
    tol: float = 0.05,
    n_times: int = 5,
) -> DerivativeBoundReport:
    """Compare finite differences of the mollified u against the bound

        r(t + eps1) * b(k, l-1) * eps1^(-k) * eps2^(1-l)

    (the d^(l/2) factor of the bound is 1 on the line).

    The bound needs l >= 1 (its constant is b(k, l-1)); pure-time
    orders are rejected.  ``r`` is the Lipschitz/bound radius of
    u(t, .), a float or a non-decreasing callable of t.

    Divided differences of order k (time) and l (space) are mean values
    of the true derivatives, so the measured sup is a lower estimate of
    the derivative sup and the comparison is meaningful without
    finite-difference inflation.  The time step is eps1/50, far below
    the scale on which the mollified function varies.

    At each centre the k-th time difference is taken of the k + 1
    stencil times' weight rows over the samples, so one time-averaged
    row is formed and smoothed in space (one ``apply_taps`` call per
    centre, through one ``TapPlan`` built for the call); smoothing is
    linear, so this equals differencing the smoothed rows up to
    roundoff.  Memory is a few rows of the grid and (k + 1) weight rows.
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

    kernel = MollifierKernel(1)
    dt = eps.eps1 / 50.0
    lo = u.t_min + k * dt
    hi = u.t_max - eps.eps1 - k * dt
    if hi < lo:
        raise DomainError("trajectory too short for the requested time stencil")
    centers = np.linspace(lo, hi, n_times) if hi > lo else np.array([lo])

    taps, plan = _space_plan(u.grid, eps.eps2)
    worst_ratio = -np.inf
    best = None
    for t in centers:
        stencil = np.stack(
            [_time_weights(u, eps, t + (j - k / 2.0) * dt) for j in range(k + 1)]
        )
        # time difference of the weight rows, then one smoothed row: the
        # space smoothing is linear, so it commutes with the difference
        row = _combine(_divided_difference(stencil, 0, k, dt)[0], u)
        dk = apply_taps(row, *taps, plan=plan)
        block = _divided_difference(dk, 0, l, u.grid.spacing[0])
        measured = float(np.max(np.abs(block)))
        bound = (
            radius(t + eps.eps1)
            * kernel.b(k, l - 1)
            * eps.eps1 ** (-k)
            * eps.eps2 ** (1 - l)
        )
        if measured / bound > worst_ratio:
            worst_ratio = measured / bound
            best = (measured, bound)
    assert best is not None
    return DerivativeBoundReport(k, l, best[0], best[1], tol)
