"""Ground-truth targets: exact Gaussian propagation, worst-case
volatility references for convex and concave payoffs, and fine-step
oracles standing in for the limit semigroup.

A reference names the step sizes it needs (``levels``), which
``rates.measure_errors`` runs in one pool with its curve points, and
``finish`` turns their iterates into an ``OracleResult``: an exact
``OracleResult`` needs none, a ``FineOracle`` the h and 2h runs of
``fine_oracle``, whose distance is its uncertainty.  Experiments treat
results as inconclusive when their errors sink below a multiple of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, GridFunction, sup_norm
from .iterate import StepOperator, chernoff_runs
from .kernels import gaussian_convolve


# heat_exact's taps span this many standard deviations
EXACT_CUT = 16.0
# certify_shape's slack on a second difference of the wrong sign
SHAPE_TOL = 1e-10


def heat_exact(
    f: GridFunction, sigma: float, mean: float, t: float, cut: float = EXACT_CUT
) -> GridFunction:
    """E[f(x + sigma W_t + mean t)] in one shot, wide kernel support."""
    if t < 0:
        raise DomainError("time must be non-negative")
    if t == 0.0:
        return f
    vals = gaussian_convolve(f.values, f.grid, sigma * math.sqrt(t), mean * t, cut=cut)
    return GridFunction(f.grid, vals)


def certify_shape(f: GridFunction) -> str | None:
    """'convex', 'concave', or None, from discrete second differences."""
    d2 = np.diff(f.values, 2)
    if np.all(d2 >= -SHAPE_TOL):
        return "convex"
    if np.all(d2 <= SHAPE_TOL):
        return "concave"
    return None


def gheat_convex_reference(
    f: GridFunction, sigma_min: float, sigma_max: float, t: float
) -> GridFunction:
    """Worst-case-volatility solution for certified convex/concave f.

    The sup over sigma collapses to the largest sigma for convex
    payoffs and the smallest for concave ones.  Callers must gate this
    against the fine oracle before trusting it on a new instance.
    """
    if not 0 <= sigma_min <= sigma_max:
        raise DomainError("need 0 <= sigma_min <= sigma_max")
    shape = certify_shape(f)
    if shape == "convex":
        return heat_exact(f, sigma_max, 0.0, t)
    if shape == "concave":
        return heat_exact(f, sigma_min, 0.0, t)
    raise DomainError(
        "payoff is neither convex nor concave; use the fine oracle instead"
    )


@dataclass(frozen=True)
class OracleResult:
    """A reference solution plus what we know about its own error."""

    values: GridFunction
    uncertainty: float
    h_fine: float | None = None

    levels = ()  # it needs no Chernoff product: ``finish`` returns it

    def finish(self, op, f, t, runs, margin) -> "OracleResult":
        return self


def fine_oracle(
    op: StepOperator,
    f: GridFunction,
    t: float,
    h_fine: float,
    margin: float | None = None,
    *,
    runs=None,
) -> OracleResult:
    """Chernoff run at h_fine; uncertainty from comparing with 2 h_fine.

    The uncertainty norm is taken a margin away from the boundary
    (default three times the operator's spatial reach at time t) so
    truncation layers do not masquerade as step error.  Every check runs
    before any step.  The two levels run through one ``chernoff_runs``
    pool, unless ``runs`` holds their iterates (``FineOracle.finish``).
    """
    if h_fine <= 0:
        raise DomainError("h_fine must be positive")
    if t < 0:
        raise DomainError("time must be non-negative")
    if t == 0.0:
        return OracleResult(values=f, uncertainty=0.0, h_fine=h_fine)
    if margin is None:
        margin = 3.0 * op.reach(t)
    mask = f.grid.interior_mask(margin)
    if not np.any(mask):
        raise DomainError("margin leaves no interior points")
    if runs is None:
        runs = chernoff_runs(op, f, t, (h_fine, 2.0 * h_fine))
    fine, coarse = runs
    uncertainty = sup_norm(fine - coarse, where=mask)
    return OracleResult(values=fine, uncertainty=uncertainty, h_fine=h_fine)


@dataclass(frozen=True)
class FineOracle:
    """``fine_oracle`` at h_fine, finished from its levels' iterates."""

    h_fine: float

    def __post_init__(self):
        if self.h_fine <= 0:
            raise DomainError("h_fine must be positive")

    @property
    def levels(self) -> tuple[float, float]:
        return (self.h_fine, 2.0 * self.h_fine)

    def finish(self, op, f, t, runs, margin) -> OracleResult:
        return fine_oracle(op, f, t, self.h_fine, margin, runs=runs)


def _sublinear_gaussian_sigmas(ce) -> tuple[float, float]:
    scenarios = ce.scenarios
    if len(scenarios) < 1 or not ce.is_sublinear:
        raise DomainError("need a sublinear (zero-penalty) family")
    sigmas = []
    for s in scenarios:
        if s.kind != "gaussian" or s.mean != 0:
            raise DomainError("limit reference needs centred Gaussian scenarios")
        sigmas.append(s.sigma)
    return min(sigmas), max(sigmas)


def clt_limit_reference(ce, f: GridFunction) -> OracleResult:
    """The t = 1 scaling limit for a centred sublinear Gaussian family,
    in the closed worst-case-volatility form (uncertainty 0).  A payoff
    that is neither convex nor concave raises ``DomainError``."""
    lo, hi = _sublinear_gaussian_sigmas(ce)
    return OracleResult(gheat_convex_reference(f, lo, hi, 1.0), 0.0)
