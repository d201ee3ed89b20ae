"""Empirical convergence measurement against references.

measure_errors runs the iteration at each step size and splits the
signed error against a reference on an interior subdomain, verify_bound
compares the curve with a closed-form constant, fit_rate estimates the
observed order, and rate_report folds everything into one verdict.
measure_errors runs the products its reference needs (a fine oracle's
two levels, ``reference.FineOracle``) and the curve's points through one
pool (``iterate.chernoff_runs``), longest first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .core import (
    DomainError,
    GridFunction,
    SpaceTimeFunction,
    negative_part_norm,
    positive_part_norm,
)
from .iterate import StepOperator, chernoff_runs, worker_count
from .reference import FineOracle, OracleResult

__all__ = [
    "InconclusiveError",
    "DEFAULT_NOISE_FLOOR",
    "ErrorPoint",
    "ErrorCurve",
    "write_error_curve",
    "read_error_curve",
    "worker_count",
    "measure_errors",
    "RateFit",
    "fit_rate",
    "BoundCheck",
    "verify_bound",
    "HolderReport",
    "holder_check",
    "RateReport",
    "rate_report",
]


class InconclusiveError(RuntimeError):
    """The data cannot support a rate estimate."""


_CSV_HEADER = "h,e_plus,e_minus,oracle_uncertainty,noise_floor,slope_tolerance,bound_value,pass"
DEFAULT_NOISE_FLOOR = 10.0
# errors at or below this count as 0: no fit point rises from them, and
# a curve of them is an exact scheme's
ABSOLUTE_FLOOR = 1e-11
DEFAULT_SLOPE_TOLERANCE = 0.05


@dataclass(frozen=True)
class ErrorPoint:
    """One step size: signed errors and the oracle's slack."""

    h: float
    e_plus: float
    e_minus: float
    oracle_uncertainty: float = 0.0

    def __post_init__(self):
        vals = (self.h, self.e_plus, self.e_minus, self.oracle_uncertainty)
        if any(not math.isfinite(v) for v in vals):
            raise DomainError("error-curve entries must be finite")
        if self.h <= 0:
            raise DomainError("step sizes must be positive")
        if self.e_plus < 0 or self.e_minus < 0 or self.oracle_uncertainty < 0:
            raise DomainError("errors and uncertainty must be non-negative")

    @property
    def max_error(self) -> float:
        return max(self.e_plus, self.e_minus)

    def error(self, side: str) -> float:
        if side == "plus":
            return self.e_plus
        if side == "minus":
            return self.e_minus
        raise DomainError(f"side must be 'minus' or 'plus', got {side!r}")


@dataclass(frozen=True)
class ErrorCurve:
    """Errors along a strictly refining step-size list, with the
    noise-floor multiplier that its fit uses and the slope tolerance its
    verdict allows (both ``rate_report``'s defaults).  A curve
    read from a CSV that records a bound's column also carries that
    bound as ``recorded_bound`` = (held, gamma): whether it held at
    every point it was checked at, and its exponent (None when the
    column gives no finite one).  Any other curve has None there."""

    points: tuple[ErrorPoint, ...]
    interior_margin: float | None = None
    noise_floor: float = DEFAULT_NOISE_FLOOR
    recorded_bound: tuple[bool, float | None] | None = None
    slope_tolerance: float = DEFAULT_SLOPE_TOLERANCE

    def __post_init__(self):
        hs = [pt.h for pt in self.points]
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise DomainError("step sizes must be strictly decreasing")
        if not (math.isfinite(self.noise_floor) and self.noise_floor >= 1):
            raise DomainError(
                f"noise floor must be a finite multiplier >= 1, got {self.noise_floor!r}"
            )
        if not (math.isfinite(self.slope_tolerance) and self.slope_tolerance >= 0):
            raise DomainError(
                f"slope tolerance must be finite and >= 0, got {self.slope_tolerance!r}"
            )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def uncertainty(self) -> float:
        return max((pt.oracle_uncertainty for pt in self.points), default=0.0)

    def to_csv(self, bound: BoundReport | None = None) -> str:
        lines = [_CSV_HEADER]
        for pt in self.points:
            if bound is None:
                tail = ","
            else:
                value = bound.bound_at(pt.h)
                if bound.admissible(pt.h):
                    ok = "true" if pt.error(bound.side) <= value else "false"
                else:
                    ok = "skipped"
                tail = f"{value!r},{ok}"
            lines.append(
                f"{pt.h!r},{pt.e_plus!r},{pt.e_minus!r},{pt.oracle_uncertainty!r},"
                f"{self.noise_floor!r},{self.slope_tolerance!r},{tail}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, uncertainty: float | None = None) -> "ErrorCurve":
        """Read ``to_csv`` output; ``uncertainty``, when given, replaces
        every point's ``oracle_uncertainty``.  The header must be
        ``to_csv``'s, all eight columns, and every row must carry the
        same noise floor and slope tolerance.  A ``pass`` column that is
        not empty gives ``recorded_bound``: not held when any row reads
        false, and the exponent of c h^gamma through the first and last
        rows' bound values, log(b_first / b_last) / log(h_first /
        h_last), which every row records, skipped ones included."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != _CSV_HEADER:
            raise DomainError(f"expected header {_CSV_HEADER!r}")
        width = _CSV_HEADER.count(",") + 1
        points, floors, tolerances, verdicts, values = [], set(), set(), set(), []
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != width:
                raise DomainError(f"malformed error-curve row {ln!r}")
            points.append(
                ErrorPoint(
                    h=float(cells[0]),
                    e_plus=float(cells[1]),
                    e_minus=float(cells[2]),
                    oracle_uncertainty=float(cells[3]) if uncertainty is None else uncertainty,
                )
            )
            floors.add(float(cells[4]))
            tolerances.add(float(cells[5]))
            verdicts.add(cells[7])
            values.append(cells[6])
        if len(floors) > 1:
            raise DomainError(f"error-curve rows disagree on the noise floor: {sorted(floors)}")
        if len(tolerances) > 1:
            raise DomainError(
                f"error-curve rows disagree on the slope tolerance: {sorted(tolerances)}"
            )
        verdicts.discard("")
        recorded = None
        if verdicts:
            recorded = ("false" not in verdicts, _recorded_gamma(points, values))
        return cls(
            points=tuple(points),
            noise_floor=floors.pop() if floors else DEFAULT_NOISE_FLOOR,
            recorded_bound=recorded,
            slope_tolerance=tolerances.pop() if tolerances else DEFAULT_SLOPE_TOLERANCE,
        )


def _recorded_gamma(points, values) -> float | None:
    """gamma of a bound column c h^gamma from its first and last rows,
    or None when they do not give a finite one (one row, a bound of 0)."""
    try:
        ratio = float(values[0]) / float(values[-1])
        gamma = math.log(ratio) / math.log(points[0].h / points[-1].h)
    except (ValueError, ZeroDivisionError):
        return None
    return gamma if math.isfinite(gamma) else None


def write_error_curve(path, curve: ErrorCurve, bound: BoundReport | None = None):
    with open(path, "w") as fh:
        fh.write(curve.to_csv(bound))


def read_error_curve(path, uncertainty: float | None = None) -> ErrorCurve:
    with open(path) as fh:
        return ErrorCurve.from_csv(fh.read(), uncertainty=uncertainty)


def _curve_checks(
    op: StepOperator, f: GridFunction, t: float, h_list, h_fine: float | None,
    margin: float | None,
):
    """``measure_errors``' checks, in its order: the step sizes as floats,
    the margin (three times the operator's reach at t by default) and
    the mask of the points the errors are measured on."""
    if not op.admitted:
        raise DomainError(
            "operator has not passed the admission suite; admit it before measuring"
        )
    hs = [float(h) for h in h_list]
    if not hs:
        raise DomainError("need at least one step size")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise DomainError("step sizes must be strictly decreasing")
    if t <= 0:
        raise DomainError("need a positive terminal time")
    if h_fine is not None and h_fine > min(hs) / 8 * (1 + 1e-12):
        raise DomainError(
            "the fine oracle must be at least 8x finer than the smallest step"
        )
    if margin is None:
        margin = 3.0 * op.reach(t)
    mask = f.grid.interior_mask(margin)
    if not mask.any():
        raise DomainError("interior margin leaves no grid points to compare on")
    return hs, margin, mask


def measure_errors(
    op: StepOperator,
    f: GridFunction,
    t: float,
    h_list,
    reference: OracleResult | FineOracle,
    margin: float | None = None,
    workers: int | None = None,
) -> ErrorCurve:
    """Signed errors of the iteration against a reference, per step size.

    The split is measured on the interior of the grid only; the margin
    swallows the band where truncated convolutions pollute both runs.
    Every check runs before any step.  The reference's ``levels`` and
    the points run through one ``chernoff_runs`` pool of ``workers``
    threads (``worker_count``: CHERNOFF_WORKERS, else one per core, and
    one for an operator whose steps only shift), and the reference is
    finished from its levels' iterates at the curve's margin.
    """
    hs, margin, mask = _curve_checks(op, f, t, h_list, reference.h_fine, margin)
    levels = reference.levels
    runs = chernoff_runs(op, f, t, [*levels, *hs], workers)
    reference = reference.finish(op, f, t, runs[: len(levels)], margin)
    ref = reference.values
    points = []
    for h, approx in zip(hs, runs[len(levels):]):
        diff = ref - approx
        points.append(
            ErrorPoint(
                h=h,
                e_plus=positive_part_norm(diff, where=mask),
                e_minus=negative_part_norm(diff, where=mask),
                oracle_uncertainty=reference.uncertainty,
            )
        )
    return ErrorCurve(points=tuple(points), interior_margin=margin)


@dataclass(frozen=True)
class RateFit:
    """Least-squares order estimate over the finest usable points."""

    gamma_hat: float
    intercept: float
    n_fit: int
    n_usable: int
    plus_slope: float | None
    minus_slope: float | None

    def to_dict(self) -> dict:
        return {
            "gamma_hat": self.gamma_hat,
            "intercept": self.intercept,
            "n_fit": self.n_fit,
            "n_usable": self.n_usable,
            "plus_slope": self.plus_slope,
            "minus_slope": self.minus_slope,
        }


def _point_floor(pt: ErrorPoint, multiplier: float) -> float:
    return max(multiplier * pt.oracle_uncertainty, ABSOLUTE_FLOOR)


def _loglog_slope(points, pick) -> float | None:
    es = [pick(pt) for pt in points]
    if len(es) < 2:
        return None
    coef = np.polyfit(np.log([pt.h for pt in points]), np.log(es), 1)
    return float(coef[0])


def fit_rate(curve: ErrorCurve) -> RateFit:
    """Slope and intercept of log max(e+, e-) against log h.

    Only points clearly above the oracle noise floor count: above the
    curve's ``noise_floor`` times their uncertainty and above
    ``ABSOLUTE_FLOOR``.  The fit uses the finest half of those so the
    pre-asymptotic head does not drag the estimate.
    """
    usable = [
        pt
        for pt in curve.points
        if pt.max_error > _point_floor(pt, curve.noise_floor)
    ]
    if len(usable) < 3:
        raise InconclusiveError(
            f"only {len(usable)} of {len(curve)} points rise above the noise floor; "
            "need 3 for a rate estimate"
        )
    fit_points = usable[-((len(usable) + 1) // 2) :]
    coef = np.polyfit(
        np.log([pt.h for pt in fit_points]),
        np.log([pt.max_error for pt in fit_points]),
        1,
    )

    def side_pick(side):
        pts = [
            pt
            for pt in fit_points
            if pt.error(side) > _point_floor(pt, curve.noise_floor)
        ]
        return _loglog_slope(pts, lambda pt: pt.error(side))

    return RateFit(
        gamma_hat=float(coef[0]),
        intercept=float(coef[1]),
        n_fit=len(fit_points),
        n_usable=len(usable),
        plus_slope=side_pick("plus"),
        minus_slope=side_pick("minus"),
    )


@dataclass(frozen=True)
class BoundCheck:
    """Per-point comparison of one error side against c * h^gamma."""

    side: str
    gamma: float
    constant: float
    rows: tuple[tuple[float, float, float, bool], ...]  # (h, error, bound, ok)
    skipped: int
    max_ratio: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "gamma": self.gamma,
            "constant": self.constant,
            "max_ratio": self.max_ratio,
            "passed": self.passed,
            "skipped": self.skipped,
            "points": [
                {"h": h, "error": e, "bound": b, "ok": ok} for h, e, b, ok in self.rows
            ],
        }


def verify_bound(curve: ErrorCurve, bound: BoundReport) -> BoundCheck:
    """Check the bound's error side at every admissible step size.

    Steps with h^gamma > eps0 are outside the bound's claim and are
    skipped, not failed.
    """
    rows = []
    skipped = 0
    worst = 0.0
    for pt in curve.points:
        if not bound.admissible(pt.h):
            skipped += 1
            continue
        err = pt.error(bound.side)
        value = bound.bound_at(pt.h)
        ok = err <= value
        if value > 0:
            worst = max(worst, err / value)
        elif err > 0:
            worst = math.inf
        rows.append((pt.h, err, value, ok))
    return BoundCheck(
        side=bound.side,
        gamma=bound.gamma,
        constant=bound.total,
        rows=tuple(rows),
        skipped=skipped,
        max_ratio=worst,
        passed=all(ok for _, _, _, ok in rows),
    )


@dataclass(frozen=True)
class HolderReport:
    alpha: float
    limit: float
    max_ratio: float
    worst_pair: tuple[float, float] | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "limit": self.limit,
            "max_ratio": self.max_ratio,
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
            "passed": self.passed,
        }


def holder_check(
    trajectory: SpaceTimeFunction,
    pairs,
    alpha: float,
    limit: float,
    h: float,
    tol: float = 0.01,
) -> HolderReport:
    """Time regularity along a recorded trajectory.

    Each pair (s, t) contributes ||u(s) - u(t)|| / (|s - t| + h)^alpha;
    the discrete trajectory only resolves times to one step, hence the
    +h in the denominator.  A pair with a zero denominator (s = t and
    h = 0) reads the same sample twice and contributes 0.  The worst
    pair is the first with the largest positive ratio.

    The pairs are checked as arrays, in input order (horizon, |s - t|
    <= 1, both times samples), so an error names the first bad pair.
    Their frame indices are then resolved at once, and the sup-norm
    gaps are priced by what the report needs.  ``_gap_bounds`` bounds
    every pair's gap from the T - 1 consecutive-frame gaps of the T
    frames (one subtraction over the stacked frames, their prefix sums,
    and a rounding margin of (4 T + 8) 2^-53 of the larger prefix sum
    that its docstring justifies).  The exact gap is taken of the pair
    with the largest bound ratio, then of every pair whose bound ratio
    is not below that pair's exact ratio, a non-finite bound included.
    Every other pair's exact ratio is at most its bound ratio, so it is
    strictly below the maximum: the ratio, the worst pair (the first in
    input order), the verdict and the error that names the first
    overflowing difference are those of taking every gap.  On a
    trajectory that moves one way the bounds are tight and one or a few
    pairs remain; at worst (a trajectory that goes back and forth)
    every pair remains, at the cost of every gap plus T - 1.  The exact
    gaps are taken in blocks of at most T grid rows (``_pair_gaps``).
    A difference that overflows raises ``DomainError``.
    """
    if not 0 < alpha <= 1:
        raise DomainError("the regularity exponent must lie in (0, 1]")
    if h < 0 or tol < 0:
        raise DomainError("h and tol must be non-negative")
    pairs = list(pairs)
    times = np.array(pairs, dtype=float).reshape(-1, 2)
    s, t = times.T
    # min and max as Python's min(s, t) and max(s, t) take them, NaN included
    early, late = np.where(t < s, t, s), np.where(t > s, t, s)
    outside = ~((0 <= early) & (late <= trajectory.t_max + 1e-12))
    apart = np.abs(s - t)
    bad = np.flatnonzero(outside | (apart > 1 + 1e-12))
    checked = times[: bad[0]] if bad.size else times
    # a time that is not a sample raises here, naming the first in input order
    idx = trajectory.sample_indices(checked)
    if bad.size:
        if outside[bad[0]]:
            a, b = pairs[bad[0]]
            raise DomainError(f"pair ({a}, {b}) leaves the recorded horizon")
        raise DomainError("the regularity bound is stated for |s - t| <= 1")

    # Python's power on each distinct |s - t| + h: numpy's vectorised
    # power may round differently in the last bit
    distinct, where = np.unique(apart + h, return_inverse=True)
    denominators = np.array([d**alpha for d in distinct.tolist()])[where]

    def ratio(gaps, rows):
        den = denominators[rows]
        return np.divide(gaps, den, out=np.zeros_like(gaps), where=den > 0)

    values = trajectory.values
    gaps = np.zeros(len(checked))
    exact = np.zeros(0, dtype=int)
    if len(checked):
        # an overflowing bound or bound ratio is inf or nan: a candidate
        with np.errstate(over="ignore", invalid="ignore"):
            ceilings = ratio(_gap_bounds(values, idx), np.arange(len(checked)))
        first = np.argmax(ceilings, keepdims=True)
        gaps[first] = _pair_gaps(values, idx[first])
        # the first pair's own ceiling is at least its ratio, so it is kept
        exact = np.flatnonzero(~(ceilings < ratio(gaps[first], first)[0]))
        rest = exact[exact != first[0]]
        gaps[rest] = _pair_gaps(values, idx[rest])
    unfinished = exact[~np.isfinite(gaps[exact])]
    if unfinished.size:
        a, b = pairs[int(unfinished[0])]
        raise DomainError(f"pair ({a}, {b}): u(s) - u(t) is not finite")

    ratios = ratio(gaps[exact], exact)
    k = int(exact[np.argmax(ratios)]) if ratios.size else 0
    worst = float(ratios.max()) if ratios.size and ratios.max() > 0 else 0.0
    return HolderReport(
        alpha=alpha,
        limit=limit,
        max_ratio=worst,
        worst_pair=tuple(checked[k].tolist()) if worst > 0 else None,
        passed=worst <= limit * (1 + tol),
    )


def _pair_gaps(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sup |values[i] - values[j]| for each frame-index pair (i, j) of
    ``idx``, taken on the stacked frames in blocks keyed by each pair's
    first frame: one block holds at most len(values) partner frames, so
    memory stays at that many grid rows whatever the number of pairs."""
    block = len(values)
    buffer = np.empty((min(block, len(idx)),) + values.shape[1:])
    gaps = np.empty(len(idx))
    order = np.argsort(idx[:, 0], kind="stable")
    cuts = np.flatnonzero(np.diff(idx[order, 0])) + 1
    for group in np.split(order, cuts) if order.size else ():
        first = values[idx[group[0], 0]]
        for rows in np.array_split(group, -(-group.size // block)):
            # the indices are valid; mode="clip" lets take write into out
            # without the buffered copy that mode="raise" makes
            diff = np.take(values, idx[rows, 1], axis=0, out=buffer[: rows.size], mode="clip")
            np.subtract(first, diff, out=diff)
            np.abs(diff, out=diff)
            gaps[rows] = diff.max(axis=1)
    return gaps


_LEAST_SUBNORMAL = 5e-324


def _gap_bounds(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """An upper bound on the computed ``_pair_gaps`` of each pair: the
    sum of the consecutive-frame gaps between its two frames (triangle
    inequality in the sup norm), read off their prefix sums P and
    inflated by the rounding margin (4 T + 8) 2^-53 P_j of T frames,
    plus the least subnormal.  No T x T table is made; memory is one
    (T - 1)-row difference of the frames.

    Why the margin suffices (u = 2^-53, T u < 1e-3): each consecutive
    gap is computed within a factor 1 - u of the exact one, so the exact
    gap of a pair (i, j), i <= j, is at most the sum of the computed
    gaps c_i .. c_{j-1} over 1 - u.  Summation of at most T nonnegative
    terms is off by at most T u / (1 - T u) of the sum, so that sum is
    at most P_j - P_i + 2.01 T u P_j, and the subtraction P_j - P_i
    loses at most u of it.  The product (4 T + 8) u P_j loses at most u
    of itself, or underflows by less than the least subnormal that is
    added to it, and the final addition loses at most u; (4 T + 8) u
    covers the 2.01 T u + 3.01 u that all of these take, so the exact
    gap, hence its rounded value, is at most the computed bound.  Sums
    that overflow give an inf or nan bound."""
    steps = np.subtract(values[1:], values[:-1])
    np.abs(steps, out=steps)
    prefix = np.concatenate(([0.0], np.cumsum(steps.max(axis=1))))
    early, late = prefix[idx.min(axis=1)], prefix[idx.max(axis=1)]
    margin = (4 * len(values) + 8) * 2.0**-53
    return (late - early) + (margin * late + _LEAST_SUBNORMAL)


@dataclass(frozen=True)
class RateReport:
    """Verdict over an error curve: bound checks plus the slope floor."""

    status: str  # "pass" | "fail" | "inconclusive"
    fit: RateFit | None
    fit_reason: str | None
    target_gamma: float | None
    checks: tuple[BoundCheck, ...]
    slope_tolerance: float
    noise_floor_multiplier: float
    absolute_floor: float
    interior_margin: float | None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def inconclusive(self) -> bool:
        return self.status == "inconclusive"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "fit": self.fit.to_dict() if self.fit else None,
            "fit_reason": self.fit_reason,
            "target_gamma": self.target_gamma,
            "checks": [c.to_dict() for c in self.checks],
            "settings": {
                "slope_tolerance": self.slope_tolerance,
                "noise_floor_multiplier": self.noise_floor_multiplier,
                "absolute_floor": self.absolute_floor,
                "interior_margin": self.interior_margin,
            },
        }


def rate_report(
    curve: ErrorCurve,
    bounds=(),
    slope_tolerance: float | None = None,
    target_gamma: float | None = None,
) -> RateReport:
    """Aggregate verdict: every bound holds and the fitted slope is not
    materially below the slowest guaranteed exponent.

    A curve that cannot be fitted passes with no slope estimate only in
    the exact-scheme case: the bounds hold and every point is at most
    ``ABSOLUTE_FLOOR``.  Otherwise it is inconclusive, since a large
    reference uncertainty would hide any error under the noise floor.
    With no ``bounds``, a curve read from a run's CSV stands its recorded
    bound (``ErrorCurve.recorded_bound``) in for them: its verdict, and
    with no ``target_gamma`` its exponent as the target, so the refit of
    a run's CSV passes, or fails, as the run did.  The CSV records the
    bound with the smallest exponent a run checks (``chernoff run``
    writes the first ``plus`` one), so that target is the run's.  The
    noise-floor multiplier and the interior margin are the curve's own,
    and so is the slope tolerance unless ``slope_tolerance`` is given.
    """
    if slope_tolerance is None:
        slope_tolerance = curve.slope_tolerance
    if slope_tolerance < 0:
        raise DomainError("slope_tolerance must be non-negative")
    checks = tuple(verify_bound(curve, b) for b in bounds)
    bounds_ok = all(c.passed for c in checks)
    bounded = bool(checks)
    if not checks and curve.recorded_bound is not None:
        bounds_ok, recorded_gamma = curve.recorded_bound
        bounded = True
        if target_gamma is None:
            target_gamma = recorded_gamma
    if target_gamma is None and checks:
        target_gamma = min(c.gamma for c in checks)
    fit = None
    reason = None
    try:
        fit = fit_rate(curve)
    except InconclusiveError as exc:
        reason = str(exc)
    if not bounds_ok:
        status = "fail"
    elif fit is not None:
        slope_ok = target_gamma is None or fit.gamma_hat >= target_gamma - slope_tolerance
        status = "pass" if slope_ok else "fail"
    else:
        exact = all(pt.max_error <= ABSOLUTE_FLOOR for pt in curve.points)
        status = "pass" if (bounded and exact) else "inconclusive"
    return RateReport(
        status=status,
        fit=fit,
        fit_reason=reason,
        target_gamma=target_gamma,
        checks=checks,
        slope_tolerance=slope_tolerance,
        noise_floor_multiplier=curve.noise_floor,
        absolute_floor=ABSOLUTE_FLOOR,
        interior_margin=curve.interior_margin,
    )
