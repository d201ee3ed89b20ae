"""Ground-truth targets: exact Gaussian propagation, worst-case
volatility references for convex and concave payoffs, and fine-step
oracles standing in for the limit semigroup.

The fine oracle reports its own uncertainty (the distance between the
h and 2h runs); experiments treat results as inconclusive when their
measured errors sink below a multiple of that number.  Its two levels
are independent Chernoff products and run through one pool
(``iterate.chernoff_runs``), the h level first; ``chernoff run`` sends
them through the same call as its curve points
(``rates.oracle_and_curve``) and hands the iterates to ``fine_oracle``.
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


def certify_shape(f: GridFunction, tol: float = 1e-10) -> str | None:
    """'convex', 'concave', or None, from discrete second differences."""
    d2 = np.diff(f.values, 2)
    if np.all(d2 >= -tol):
        return "convex"
    if np.all(d2 <= tol):
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


def oracle_mask(
    op: StepOperator, f: GridFunction, t: float, h_fine: float, margin: float | None = None
) -> np.ndarray | None:
    """``fine_oracle``'s checks, in its order: the mask of the points its
    uncertainty is measured on, or None at t = 0, where the oracle is f
    itself and no step runs."""
    if h_fine <= 0:
        raise DomainError("h_fine must be positive")
    if t < 0:
        raise DomainError("time must be non-negative")
    if t == 0.0:
        return None
    if margin is None:
        margin = 3.0 * op.reach(t)
    mask = f.grid.interior_mask(margin)
    if not np.any(mask):
        raise DomainError("margin leaves no interior points")
    return mask


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
    truncation layers do not masquerade as step error.  Every check
    (``oracle_mask``) runs before any step.  The two levels run through
    one ``chernoff_runs`` pool, unless ``runs`` already holds their
    iterates, at h_fine and 2 h_fine in that order (``chernoff run``
    computes them in its own pool, with the curve points).
    """
    mask = oracle_mask(op, f, t, h_fine, margin)
    if mask is None:
        return OracleResult(values=f, uncertainty=0.0, h_fine=h_fine)
    if runs is None:
        runs = chernoff_runs(op, f, t, (h_fine, 2.0 * h_fine))
    fine, coarse = runs
    uncertainty = sup_norm(fine - coarse, where=mask)
    return OracleResult(values=fine, uncertainty=uncertainty, h_fine=h_fine)


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


def clt_limit_reference(ce, f: GridFunction, h_fine: float = 2.0**-13) -> OracleResult:
    """The t = 1 scaling limit for a centred sublinear Gaussian family.

    Convex or concave payoffs use the closed worst-case-volatility
    form (uncertainty 0); anything else falls back to the fine oracle.
    """
    lo, hi = _sublinear_gaussian_sigmas(ce)
    if certify_shape(f) is not None:
        return OracleResult(gheat_convex_reference(f, lo, hi, 1.0), 0.0)
    op = StepOperator.from_clt(ce).admit()
    return fine_oracle(op, f, 1.0, h_fine)
