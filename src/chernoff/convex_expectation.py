"""Finite scenario-based convex expectations and their one-step operators.

A convex expectation is represented as a finite max of linear
expectations minus penalties,

    E[X] = max_i ( E_i[X] - alpha_i ),     min_i alpha_i = 0,

with each E_i an isotropic Gaussian or a finite discrete distribution
(a point mass is a one-atom discrete distribution).  This class is
closed under everything the iteration needs and makes E computable:
scalar functionals by Gauss-Hermite quadrature or direct enumeration,
grid steps by exact discrete convolutions, and the maximally
distributed limit by a sup-convolution with the lower convex hull of
the penalised means.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import ConvexHull

from .core import DomainError, Grid, GridFunction, tensor_points
from .kernels import apply_taps, gaussian_axis_taps, gaussian_convolve, shift_taps

__all__ = [
    "Scenario",
    "ScenarioConvexExpectation",
    "GrowthCertificate",
    "cexp_eval",
    "lln_step",
    "clt_step",
    "lln_plan",
    "clt_plan",
    "maximally_distributed_limit",
    "g_function",
    "growth_certificate",
    "load_scenarios",
    "parse_scenarios",
]

DEFAULT_GH_ORDER = 32


@lru_cache(maxsize=None)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, computed once per order, read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class Scenario:
    """One linear expectation with a penalty.

    ``kind`` is "gaussian" (isotropic, std ``sigma``, located at
    ``mean``) or "discrete" (atoms with their own probabilities).
    """

    kind: str
    mean: tuple[float, ...] = (0.0,)
    sigma: float = 0.0
    atoms: tuple[tuple[float, ...], ...] = ()
    weights: tuple[float, ...] = ()
    penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "discrete"):
            raise DomainError(f"unknown scenario kind {self.kind!r}")
        if not (np.isfinite(self.penalty) and self.penalty >= 0):
            raise DomainError("scenario penalty must be finite and >= 0")
        if self.kind == "gaussian" and self.sigma < 0:
            raise DomainError("gaussian scenario needs sigma >= 0")
        if self.kind == "discrete":
            if not self.atoms:
                raise DomainError("discrete scenario needs at least one atom")
            w = np.asarray(self.weights, dtype=float)
            if len(w) != len(self.atoms) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise DomainError("atom probabilities must be >= 0 and sum to 1")
            dims = {len(a) for a in self.atoms}
            if len(dims) != 1:
                raise DomainError("atoms must share one dimension")

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, mean, penalty: float = 0.0) -> "Scenario":
        """A point mass: the one-atom discrete scenario."""
        return cls.discrete([mean], [1.0], penalty)

    @classmethod
    def gaussian(cls, mean, sigma: float, penalty: float = 0.0) -> "Scenario":
        return cls("gaussian", _as_vector(mean), sigma=float(sigma), penalty=float(penalty))

    @classmethod
    def discrete(cls, atoms, weights, penalty: float = 0.0) -> "Scenario":
        return cls(
            "discrete",
            mean=_as_vector(atoms[0]),  # placeholder; mean_vector is derived
            atoms=tuple(_as_vector(a) for a in atoms),
            weights=tuple(float(w) for w in weights),
            penalty=float(penalty),
        )

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self) -> int:
        if self.kind == "discrete":
            return len(self.atoms[0])
        return len(self.mean)

    @cached_property
    def mean_vector(self) -> np.ndarray:
        if self.kind == "discrete":
            w = np.asarray(self.weights)
            return w @ np.asarray(self.atoms, dtype=float)
        return np.asarray(self.mean, dtype=float)

    @cached_property
    def covariance(self) -> np.ndarray:
        if self.kind == "gaussian":
            return self.sigma**2 * np.eye(self.dim)
        pts = np.asarray(self.atoms, dtype=float) - self.mean_vector
        return (np.asarray(self.weights)[:, None] * pts).T @ pts

    # -- integration -------------------------------------------------------

    def support_points(self, gh_order: int = DEFAULT_GH_ORDER):
        """Quadrature points and weights for E_i: the atoms themselves, or
        the tensor Gauss-Hermite rule of order ``gh_order`` on each axis."""
        if self.kind == "discrete":
            return np.asarray(self.atoms, dtype=float), np.asarray(self.weights)
        nodes, w = _hermite_rule(gh_order)
        axes = [m + self.sigma * np.sqrt(2.0) * nodes for m in self.mean_vector]
        weights = tensor_points([w] * self.dim).prod(axis=1)
        return tensor_points(axes), weights / np.sqrt(np.pi) ** self.dim

    def expectation(self, payoff: Callable, gh_order: int = DEFAULT_GH_ORDER) -> float:
        """E_i[payoff(xi)]; 1D payoffs receive a flat array."""
        pts, w = self.support_points(gh_order)
        arg = pts[:, 0] if self.dim == 1 else pts
        vals = np.asarray(payoff(arg), dtype=float)
        out = float(np.dot(w, vals))
        if not np.isfinite(out):
            raise DomainError("scenario expectation is not finite")
        return out

    def abs_moment(self, order: int, gh_order: int = DEFAULT_GH_ORDER) -> float:
        pts, w = self.support_points(gh_order)
        return float(np.dot(w, np.linalg.norm(pts, axis=1) ** order))

    def raw_moment_1d(self, order: int, gh_order: int = DEFAULT_GH_ORDER) -> float:
        if self.dim != 1:
            raise DomainError("raw moments are implemented for d = 1 only")
        pts, w = self.support_points(gh_order)
        return float(np.dot(w, pts[:, 0] ** order))


def _as_vector(x) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or len(arr) not in (1, 2):
        raise DomainError("scenario locations must be scalars or 1-2 dim vectors")
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class ScenarioConvexExpectation:
    """max-of-linear-minus-penalty convex expectation on R^d, d <= 2."""

    scenarios: tuple[Scenario, ...]

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise DomainError("need at least one scenario")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        dims = {s.dim for s in self.scenarios}
        if len(dims) != 1:
            raise DomainError("scenarios must share one dimension")
        if min(s.penalty for s in self.scenarios) > 1e-12:
            raise DomainError("the smallest penalty must be 0 (so that E[0] = 0)")

    @property
    def dim(self) -> int:
        return self.scenarios[0].dim

    @property
    def is_sublinear(self) -> bool:
        return all(s.penalty == 0.0 for s in self.scenarios)

    @property
    def zero_mean(self) -> bool:
        return all(np.max(np.abs(s.mean_vector)) < 1e-12 for s in self.scenarios)

    @property
    def third_moments_zero(self) -> bool:
        if self.dim != 1:
            return False
        return all(abs(s.raw_moment_1d(3)) < 1e-9 for s in self.scenarios)

    def evaluate(self, payoff: Callable, gh_order: int = DEFAULT_GH_ORDER) -> float:
        return max(
            s.expectation(payoff, gh_order) - s.penalty for s in self.scenarios
        )

    def abs_moment_combination(
        self, coefficients: dict[int, float], gh_order: int = DEFAULT_GH_ORDER
    ) -> float:
        """E[ sum_k c_k |xi|^k ] evaluated as one payoff (E is not linear)."""

        def payoff(xi):
            xi = np.asarray(xi, dtype=float)
            mag = np.abs(xi) if xi.ndim == 1 else np.linalg.norm(xi, axis=-1)
            out = np.zeros_like(mag)
            for k, c in coefficients.items():
                out += c * mag**k
            return out

        return self.evaluate(payoff, gh_order)


def cexp_eval(
    ce: ScenarioConvexExpectation, payoff: Callable, gh_order: int = DEFAULT_GH_ORDER
) -> float:
    """max_i (E_i[payoff] - alpha_i)."""
    return ce.evaluate(payoff, gh_order)


# ---------------------------------------------------------------------------
# one-step operators on grid functions


def _scenario_plan(s: Scenario, grid: Grid, scale: float, std_scale: float, cut: float):
    """E_i[u(x + displacement)] as ``expect(u, out)``, with the scenario's
    displacement scaled and its taps built once."""
    if s.kind == "gaussian":
        std, shift = s.sigma * std_scale, scale * s.mean_vector
        taps = gaussian_axis_taps(grid, std, shift, cut)

        def expect(u, out):
            return gaussian_convolve(u, grid, std, shift, cut, out=out, taps=taps)

        return expect
    atoms = [
        (prob, [shift_taps(scale * x, dx) for x, dx in zip(atom, grid.spacing)])
        for atom, prob in zip(s.atoms, s.weights)
    ]
    term = np.empty(grid.counts) if len(atoms) > 1 else None
    last = grid.dim - 1

    def expect(u, out):
        for i, (prob, taps) in enumerate(atoms):
            dest = term if i else out
            res = u
            for ax, (offs, w) in enumerate(taps):
                res = apply_taps(res, offs, w, ax, out=dest if ax == last else None)
            if prob != 1.0:  # x * 1.0 is x exactly
                res *= prob
            if i:
                out += res
        return out

    return expect


def _penalized_max_plan(
    ce: ScenarioConvexExpectation,
    grid: Grid,
    t: float,
    scale: float,
    std_scale: float,
    cut: float,
):
    """Pointwise max_i (E_i[u(x + scaled displacement)] - t alpha_i) as a
    plan ``step(u, out)``; scenarios in a fixed order for deterministic
    tie-breaking."""
    if t < 0:
        raise DomainError("step size must be nonnegative")
    if ce.dim != grid.dim:
        raise DomainError("expectation and grid dimensions differ")
    parts = [
        (_scenario_plan(s, grid, scale, std_scale, cut), t * s.penalty) for s in ce.scenarios
    ]
    scratch = np.empty(grid.counts) if len(parts) > 1 else None

    def step(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        for i, (expect, penalty) in enumerate(parts):
            vals = expect(u, scratch if i else out)
            if penalty:  # x - 0.0 is x exactly
                vals -= penalty
            if i:
                np.maximum(out, vals, out=out)
        return out

    return step


def lln_plan(ce: ScenarioConvexExpectation, grid: Grid, t: float, cut: float = 8.0):
    """``lln_step(ce, ., t)`` as a plan ``step(u, out)`` on value arrays."""
    return _penalized_max_plan(ce, grid, t, scale=t, std_scale=t, cut=cut)


def clt_plan(ce: ScenarioConvexExpectation, grid: Grid, t: float, cut: float = 8.0):
    """``clt_step(ce, ., t)`` as a plan ``step(u, out)`` on value arrays."""
    rt = float(np.sqrt(max(t, 0.0)))
    return _penalized_max_plan(ce, grid, t, scale=rt, std_scale=rt, cut=cut)


def _step_once(plan, ce, f: GridFunction, t: float, cut: float) -> GridFunction:
    if t < 0:
        raise DomainError("step size must be nonnegative")
    if t == 0:
        return f
    step = plan(ce, f.grid, t, cut)
    return GridFunction(f.grid, step(f.values, np.empty(f.grid.counts)))


def lln_step(
    ce: ScenarioConvexExpectation, f: GridFunction, t: float, cut: float = 8.0
) -> GridFunction:
    """Large-numbers step: pointwise max_i (E_i[f(x + t xi)] - t alpha_i)."""
    return _step_once(lln_plan, ce, f, t, cut)


def clt_step(
    ce: ScenarioConvexExpectation, f: GridFunction, t: float, cut: float = 8.0
) -> GridFunction:
    """Central-limit step: as lln_step with sqrt(t) spatial scaling."""
    return _step_once(clt_plan, ce, f, t, cut)


# ---------------------------------------------------------------------------
# limits and certificates


def _lower_hull(ce: ScenarioConvexExpectation):
    """phi, the conjugate of psi(z) = max_i (z . m_i - alpha_i): the lower
    convex hull of the points (m_i, alpha_i), +inf off the hull of the
    means (Rockafellar, Convex Analysis, section 16).

    One ``ConvexHull`` of those points and of their copies at height
    max alpha + 1, in coordinates of the means' affine hull, has lower
    facets (the affine pieces of phi), vertical walls (the hull of the
    means) and a flat top.  Returns ``phi`` on (n, d) arrays of y, the
    means at lower-hull vertices, and the lower-hull edges as (2, d)
    pairs of means.
    """
    means = np.array([s.mean_vector for s in ce.scenarios])
    pens = np.array([s.penalty for s in ce.scenarios])
    origin = means[0]
    _, sing, rows = np.linalg.svd(means - origin)
    rank = int(np.sum(sing > 1e-10 * sing[0]))
    basis = rows[:rank]
    tol = 1e-12 * (1.0 + float(np.max(np.abs(means))))
    # the hull of the means lies within the dropped singular values of the basis
    flat = tol + float(np.max(sing[rank:], initial=0.0))
    if rank == 0:  # one distinct mean, where phi is min alpha = 0
        slopes, levels = np.zeros((1, 0)), pens.min(keepdims=True)
        walls, bounds = np.zeros((0, 0)), np.zeros(0)
        vertices, edges = means[:1], np.zeros((0, 2, ce.dim))
    else:
        coords = (means - origin) @ basis.T
        top = np.full(len(pens), pens.max() + 1.0)
        hull = ConvexHull(np.vstack([np.column_stack([coords, pens]),
                                     np.column_stack([coords, top])]))
        normals, lift, offsets = np.hsplit(hull.equations, [rank, rank + 1])
        lift = lift[:, 0]
        lower, wall = lift < -1e-12, np.abs(lift) <= 1e-12
        # on a lower facet normals . p + lift * phi + offsets = 0
        slopes = -normals[lower] / lift[lower, None]
        levels = -offsets[lower, 0] / lift[lower]
        walls, bounds = normals[wall], offsets[wall, 0]
        facets = hull.simplices[lower]  # the lifted copies lie on no lower facet
        vertices = means[np.unique(facets)]
        ends = facets[:, list(itertools.combinations(range(rank + 1), 2))]
        edges = means[np.unique(np.sort(ends, axis=2).reshape(-1, 2), axis=0)]

    def phi(y: np.ndarray) -> np.ndarray:
        rel = y - origin
        local = rel @ basis.T
        vals = np.max(local @ slopes.T + levels, axis=1)
        off = np.linalg.norm(rel - local @ basis, axis=1) > flat
        off |= np.any(local @ walls.T + bounds > tol, axis=1)
        vals[off] = np.inf
        return vals

    return phi, vertices, edges


def maximally_distributed_limit(ce: ScenarioConvexExpectation, f: GridFunction) -> GridFunction:
    """The limit functional as a grid function: x -> sup_y (f(x+y) - phi(y)).

    phi is the conjugate of z -> E[z . xi], the lower convex hull of the
    points (m_i, alpha_i) and +inf off the hull of the means (see
    ``_lower_hull``); f(x + y) is the multilinear interpolant of f,
    constant past the box.  The sup runs over finitely many y: the
    lower-hull vertices, the whole-cell shifts y in dx Z^d inside the
    hull, and the points where a lower-hull edge crosses a grid line
    y_j in dx_j Z.  On a uniform grid the multilinear weights of x + y
    are the same for every x, so each y is a weighted sum of the 2^d
    corner slices of one edge-padded copy of f, and a whole-cell shift
    is one slice.

    In 1D f(x + y) - phi(y) is piecewise linear in y with its breaks
    at those y, so the result is exact.  In 2D the grid lines and the
    lower-hull edges cut the hull into pieces on which f(x + y) is
    bilinear and phi affine; such a function has no strict interior
    max and is linear along grid lines, so the only miss is its bulge
    along an edge that is not parallel to an axis.  Within one cell,
    with mixed difference D = f[i+1, j+1] - f[i+1, j] - f[i, j+1] + f[i, j],
    that bulge over the chord is at most |D| / 4, so the result lies
    below the exact sup by at most max |D| / 4 over the cells
    (at most |d1 d2 f|_inf dx_1 dx_2 / 4 for smooth f) and never above it.
    """
    grid = f.grid
    if grid.dim != ce.dim:
        raise DomainError("expectation and grid dimensions differ")
    phi, vertices, edges = _lower_hull(ce)
    spacing = np.array(grid.spacing)
    # every candidate in cell units t = y / dx
    low = np.floor(vertices.min(axis=0) / spacing)
    high = np.ceil(vertices.max(axis=0) / spacing)
    cells = tensor_points([np.arange(a, b + 1) for a, b in zip(low, high)])
    candidates = [vertices / spacing, cells]
    for start, end in edges / spacing:
        for ax in np.flatnonzero(start != end):
            lines = np.arange(np.ceil(min(start[ax], end[ax])),
                              np.floor(max(start[ax], end[ax])) + 1)
            cuts = start + np.outer((lines - start[ax]) / (end[ax] - start[ax]), end - start)
            cuts[:, ax] = lines
            candidates.append(cuts)
    t = np.unique(np.vstack(candidates), axis=0)
    cost = phi(t * spacing)
    t, cost = t[np.isfinite(cost)], cost[np.isfinite(cost)]

    cell = np.floor(t)
    pad = np.max(np.abs(cell), axis=0).astype(int) + 1
    padded = np.pad(f.values, [(p, p) for p in pad], mode="edge")
    frac = t - cell
    corners = np.array(list(itertools.product((0, 1), repeat=grid.dim)))
    # starts[k, c]: the padded index of corner c of t_k's cell, per axis
    starts = (cell.astype(int) + pad)[:, None, :] + corners
    weights = np.where(corners, frac[:, None, :], 1.0 - frac[:, None, :]).prod(axis=2)

    out = np.full(grid.counts, -np.inf)
    shifted = np.empty(grid.counts)
    for start, w, c in zip(starts.tolist(), weights.tolist(), cost.tolist()):
        reads = [(wk, padded[tuple(slice(i, i + n) for i, n in zip(s, grid.counts))])
                 for wk, s in zip(w, start) if wk]
        np.multiply(reads[0][1], reads[0][0], out=shifted)
        for wk, view in reads[1:]:
            shifted += wk * view
        shifted -= c
        np.maximum(out, shifted, out=out)
    return GridFunction(grid, out)


def g_function(ce: ScenarioConvexExpectation, a) -> float:
    """E[(1/2) xi^T a xi] = max_i ((1/2) tr(a Cov_i) - alpha_i), zero-mean scenarios."""
    if not ce.zero_mean:
        raise DomainError("this quadratic functional requires zero-mean scenarios")
    a_mat = np.atleast_2d(np.asarray(a, dtype=float))
    if a_mat.shape != (ce.dim, ce.dim):
        raise DomainError(f"coefficient matrix must be {ce.dim}x{ce.dim}")
    if not np.allclose(a_mat, a_mat.T):
        raise DomainError("coefficient matrix must be symmetric")
    return max(
        0.5 * float(np.trace(a_mat @ s.covariance)) - s.penalty for s in ce.scenarios
    )


@dataclass(frozen=True)
class GrowthCertificate:
    """Certified (a, p): E[lambda g] <= a lambda^p E[g] for lambda >= 1,
    g in the tested cone of |xi|^2 / |xi|^3 combinations."""

    a: float
    p: float
    lambda_grid: tuple[float, ...]
    c_grid: tuple[tuple[float, float], ...]
    max_ratio: float
    sublinear: bool

    def __post_init__(self) -> None:
        if not (self.a >= 0 and self.p >= 1):
            raise DomainError("certificate needs a >= 0 and p >= 1")


_DEFAULT_C_GRID = (
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0, 1.0),
    (0.25, 2.0),
    (2.0, 0.25),
    (4.0, 0.5),
    (0.5, 4.0),
)


def growth_certificate(
    ce: ScenarioConvexExpectation,
    lambda_grid: Sequence[float] | None = None,
    c_grid: Sequence[tuple[float, float]] | None = None,
    gh_order: int = DEFAULT_GH_ORDER,
) -> GrowthCertificate:
    """Search the smallest p in {1, 2, 3} and the ratio sup a on a grid."""
    lam = (
        np.geomspace(1.0, 100.0, 25)
        if lambda_grid is None
        else np.asarray(lambda_grid, dtype=float)
    )
    if np.any(lam < 1.0):
        raise DomainError("the growth condition is quantified over lambda >= 1")
    cs = _DEFAULT_C_GRID if c_grid is None else tuple(tuple(c) for c in c_grid)

    base = {}
    for c1, c2 in cs:
        base[(c1, c2)] = ce.abs_moment_combination({2: c1, 3: c2}, gh_order)

    tiny = 1e-300
    for p in (1.0, 2.0, 3.0):
        worst = 0.0
        feasible = True
        for c1, c2 in cs:
            b = base[(c1, c2)]
            for lv in lam:
                scaled = ce.abs_moment_combination({2: lv * c1, 3: lv * c2}, gh_order)
                if b <= tiny:
                    if scaled > 1e-12:
                        feasible = False
                        break
                    continue
                worst = max(worst, scaled / (lv**p * b))
            if not feasible:
                break
        if feasible and worst <= 1e12:
            return GrowthCertificate(
                a=worst,
                p=p,
                lambda_grid=tuple(float(v) for v in lam),
                c_grid=cs,
                max_ratio=worst,
                sublinear=ce.is_sublinear,
            )
        if ce.is_sublinear:
            break  # sublinear always certifies at p = 1; do not mask a bug
    raise DomainError("no growth certificate with p <= 3 on the tested grids")


# ---------------------------------------------------------------------------
# scenario files


def parse_scenarios(obj) -> ScenarioConvexExpectation:
    if not isinstance(obj, list) or not obj:
        raise DomainError("scenario file must hold a non-empty JSON list")
    out = []
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict) or "type" not in entry:
            raise DomainError(f"scenario {i}: expected an object with a 'type' field")
        kind = entry["type"]
        if kind not in ("point", "gaussian", "discrete"):
            raise DomainError(f"scenario {i}: unknown type {kind!r}")
        penalty = entry.get("penalty", 0.0)
        try:
            if kind == "point":
                out.append(Scenario.point(entry["mean"], penalty))
            elif kind == "gaussian":
                out.append(Scenario.gaussian(entry["mean"], entry["sigma"], penalty))
            else:
                out.append(Scenario.discrete(entry["atoms"], entry["weights"], penalty))
        except KeyError as exc:
            raise DomainError(f"scenario {i}: missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise DomainError(f"scenario {i}: {exc}") from exc
    return ScenarioConvexExpectation(tuple(out))


def load_scenarios(path) -> ScenarioConvexExpectation:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"scenario file {path}: invalid JSON ({exc})") from exc
    return parse_scenarios(obj)
