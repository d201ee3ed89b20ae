"""INI experiment configs: parsing, validation, and object building.

One file describes one experiment.  Every malformed field is collected
before raising so a config with three typos reports three problems, not
one per run attempt.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .bounds import BoundReport, clt_bounds, lln_bounds, nisio_bounds
from .convex_expectation import family_scales, growth_certificate, load_scenarios
from .core import DomainError, Grid, GridFunction
from .iterate import StepOperator, scenario_reach
from .nisio import NisioFamily
from .properties import SUITE_H, suite_margin
from .reference import EXACT_CUT, FineOracle, OracleResult, heat_exact


class ConfigError(ValueError):
    """Carries every invalid field found in a config file."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


_DYADIC = re.compile(r"^2\^(-?\d+)$")


def parse_step(token: str) -> float:
    token = token.strip()
    m = _DYADIC.match(token)
    if m:
        return 2.0 ** int(m.group(1))
    return float(token)


def parse_h_list(text: str) -> tuple[float, ...]:
    """Either a dyadic range like 2^-3..2^-9 or a comma list of steps."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        ma, mb = _DYADIC.match(lo.strip()), _DYADIC.match(hi.strip())
        if not (ma and mb):
            raise DomainError("a step range needs dyadic endpoints like 2^-3..2^-9")
        a, b = int(ma.group(1)), int(mb.group(1))
        if a < b:
            raise DomainError("a step range must refine, e.g. 2^-3..2^-9")
        return tuple(2.0**k for k in range(a, b - 1, -1))
    steps = tuple(parse_step(tok) for tok in text.split(",") if tok.strip())
    if not steps:
        raise DomainError("empty step list")
    if not all(0 < s < math.inf for s in steps) or any(
        b >= a for a, b in zip(steps, steps[1:])
    ):
        raise DomainError("steps must be finite, positive and strictly decreasing")
    return steps


_PAYOFFS = {
    "cos": lambda v, p: p["scale"] * np.cos(v),
    "abs": lambda v, p: p["scale"] * np.abs(v),
    "capped_abs": lambda v, p: p["scale"] * np.minimum(np.abs(v), p["cap"]),
    "gaussian_bump": lambda v, p: p["scale"] * np.exp(-0.5 * v * v),
    "linear": lambda v, p: p["scale"] * v,
}

_KNOWN_KEYS = {
    "grid": {"low", "high", "points"},
    "operator": {"type", "controls", "scenarios", "smooth", "cut"},
    "payoff": {"kind", "scale", "cap"},
    "experiment": {"t", "h", "reference", "h_fine", "sigma", "mean", "seed"},
    "rate": {"slope_tolerance", "noise_floor", "symmetric", "margin"},
    "tolerances": {"property", "pairs"},
}


@dataclass(frozen=True)
class Experiment:
    """Everything a run needs, already validated and built."""

    grid: Grid
    payoff: GridFunction
    operator: StepOperator
    model_kind: str  # nisio | lln | clt
    model: object
    smooth: bool | None
    symmetric: bool
    t: float
    h_list: tuple[float, ...]
    reference_kind: str  # oracle | exact
    h_fine: float
    exact_sigma: float
    exact_mean: float
    seed: int
    slope_tolerance: float
    noise_floor: float
    margin: float | None
    property_tol: float
    n_pairs: int
    raw_text: str

    @property
    def radius(self) -> float:
        """Smallest r with the payoff r-Lipschitz and r-bounded."""
        return max(self.payoff.sup_norm, self.payoff.lipschitz)

    @cached_property
    def bounds(self) -> tuple[BoundReport, ...]:
        """The rate bounds at the payoff's radius, evaluated once."""
        return self.build_bounds()

    def build_bounds(self, r: float | None = None) -> tuple[BoundReport, ...]:
        r = self.radius if r is None else r
        if self.model_kind == "nisio":
            return (nisio_bounds(self.model.bounds, r, self.t, smooth=self.smooth),)
        if self.model_kind == "lln":
            return (
                lln_bounds(self.model, r, self.t, "minus"),
                lln_bounds(self.model, r, self.t, "plus"),
            )
        cert = growth_certificate(self.model)
        reports = [
            clt_bounds(self.model, cert, r, self.t, "minus"),
            clt_bounds(self.model, cert, r, self.t, "plus"),
        ]
        if self.symmetric:
            reports.append(
                clt_bounds(self.model, cert, r, self.t, "minus", symmetric=True)
            )
            reports.append(
                clt_bounds(self.model, cert, r, self.t, "plus", symmetric=True)
            )
        return tuple(reports)

    def reference(self) -> OracleResult | FineOracle:
        """The reference ``measure_errors`` finishes: the fine oracle at
        ``h_fine`` for ``reference = oracle``, or for ``exact`` the payoff
        under the heat semigroup of ``[experiment] sigma`` and ``mean``."""
        if self.reference_kind == "oracle":
            return FineOracle(self.h_fine)
        values = heat_exact(self.payoff, self.exact_sigma, self.exact_mean, self.t)
        return OracleResult(values=values, uncertainty=0.0, h_fine=None)


class _Reader:
    """Typed access to one section, collecting problems instead of raising."""

    def __init__(self, parser: configparser.ConfigParser, problems: list):
        self.parser = parser
        self.problems = problems

    def flag(self, section: str, key: str, message: str):
        self.problems.append(f"[{section}] {key}: {message}")

    def raw(self, section: str, key: str, default=None, required=False):
        if not self.parser.has_option(section, key):
            if required:
                self.flag(section, key, "missing")
            return default
        return self.parser.get(section, key)

    def number(self, section, key, default=None, required=False, check=None):
        text = self.raw(section, key, None, required)
        if text is None:
            return default
        try:
            value = parse_step(text) if text.strip().startswith("2^") else float(text)
        except ValueError:
            self.flag(section, key, f"not a number: {text!r}")
            return default
        except OverflowError:  # 2^k past the float range
            value = math.inf
        if not math.isfinite(value):
            self.flag(section, key, f"not a finite number: {text!r}")
            return default
        if check is not None and not check(value):
            self.flag(section, key, f"out of range: {text!r}")
            return default
        return value

    def integer(self, section, key, default=None, required=False, check=None):
        text = self.raw(section, key, None, required)
        if text is None:
            return default
        try:
            value = int(text)
        except ValueError:
            self.flag(section, key, f"not an integer: {text!r}")
            return default
        if check is not None and not check(value):
            self.flag(section, key, f"out of range: {text!r}")
            return default
        return value

    def boolean(self, section, key, default=None):
        text = self.raw(section, key)
        if text is None:
            return default
        low = text.strip().lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        self.flag(section, key, f"not a boolean: {text!r}")
        return default

    def choice(self, section, key, options, default=None, required=False):
        text = self.raw(section, key, None, required)
        if text is None:
            return default
        text = text.strip()
        if text not in options:
            self.flag(section, key, f"expected one of {sorted(options)}, got {text!r}")
            return default
        return text


def _parse_controls(text: str) -> tuple[tuple[float, float], ...]:
    controls = []
    for chunk in text.split(","):
        parts = chunk.split()
        if len(parts) != 2:
            raise DomainError(f"control {chunk.strip()!r} is not 'sigma m'")
        controls.append((float(parts[0]), float(parts[1])))
    if not controls:
        raise DomainError("empty control list")
    return tuple(controls)


def load_config(path) -> Experiment:
    path = Path(path)
    try:
        raw_text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"])
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(raw_text)
    except configparser.Error as exc:
        raise ConfigError([f"parse error: {exc}"])

    problems: list[str] = []
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            problems.append(f"[{section}]: unknown section")
            continue
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                problems.append(f"[{section}] {key}: unknown key")
    for section in ("grid", "operator", "payoff", "experiment"):
        if not parser.has_section(section):
            problems.append(f"[{section}]: missing section")
    if problems:
        raise ConfigError(problems)

    r = _Reader(parser, problems)

    low = r.number("grid", "low", required=True)
    high = r.number("grid", "high", required=True)
    points = r.integer("grid", "points", required=True, check=lambda n: n >= 4)
    grid = None
    if not problems and low is not None and high is not None:
        try:
            grid = Grid((low,), (high,), (points,))
        except DomainError as exc:
            r.flag("grid", "low/high/points", str(exc))

    op_type = r.choice("operator", "type", {"nisio", "lln", "clt"}, required=True)
    cut = r.number("operator", "cut", default=8.0, check=lambda v: v > 0)
    smooth = r.boolean("operator", "smooth", default=None)
    model = None
    operator = None
    if op_type == "nisio":
        text = r.raw("operator", "controls", required=True)
        if text is not None:
            try:
                model = NisioFamily(_parse_controls(text))
                operator = StepOperator.from_nisio(model, cut=cut)
            except (DomainError, ValueError) as exc:
                r.flag("operator", "controls", str(exc))
    elif op_type in ("lln", "clt"):
        name = r.raw("operator", "scenarios", required=True)
        if name is not None:
            try:
                model = load_scenarios(path.parent / name.strip())
                build = StepOperator.from_lln if op_type == "lln" else StepOperator.from_clt
                operator = build(model, cut=cut)
            except (DomainError, OSError) as exc:
                r.flag("operator", "scenarios", str(exc))

    payoff_name = r.choice("payoff", "kind", set(_PAYOFFS), required=True)
    payoff_params = {
        "scale": r.number("payoff", "scale", default=1.0, check=lambda v: v > 0),
        "cap": r.number("payoff", "cap", default=1.0, check=lambda v: v > 0),
    }
    payoff = None
    if payoff_name is not None and grid is not None and None not in payoff_params.values():
        fn = _PAYOFFS[payoff_name]
        payoff = GridFunction.from_callable(grid, lambda v: fn(v, payoff_params))

    t = r.number("experiment", "t", required=True, check=lambda v: v > 0)
    h_text = r.raw("experiment", "h", required=True)
    h_list = ()
    if h_text is not None:
        try:
            h_list = parse_h_list(h_text)
        except (DomainError, ValueError) as exc:
            r.flag("experiment", "h", str(exc))
    reference = r.choice(
        "experiment", "reference", {"oracle", "exact"}, default="oracle"
    )
    h_fine = r.number("experiment", "h_fine", default=2.0**-13, check=lambda v: v > 0)
    exact_sigma = r.number("experiment", "sigma", default=1.0, check=lambda v: v > 0)
    exact_mean = r.number("experiment", "mean", default=0.0)
    seed = r.integer("experiment", "seed", default=0, check=lambda n: n >= 0)

    slope_tolerance = r.number(
        "rate", "slope_tolerance", default=0.05, check=lambda v: v >= 0
    )
    noise_floor = r.number("rate", "noise_floor", default=10.0, check=lambda v: v >= 1)
    symmetric = r.boolean("rate", "symmetric", default=False)
    margin = r.number("rate", "margin", default=None, check=lambda v: v > 0)
    property_tol = r.number("tolerances", "property", default=1e-9, check=lambda v: v > 0)
    n_pairs = r.integer("tolerances", "pairs", default=1000, check=lambda n: n >= 1)

    if h_list and reference == "oracle" and h_fine is not None:
        if h_fine > min(h_list) / 8:
            r.flag("experiment", "h_fine", "must be at least 8x finer than min(h)")
    if grid is not None and operator is not None and t is not None:
        # every step the config runs: admission's, the curve's, the oracle's
        steps = [SUITE_H, *h_list[:1]]
        if reference == "oracle" and h_fine is not None:
            steps.append(2.0 * h_fine)
        reach_problems = _reach_problems(op_type, model, operator, grid, max(steps), cut)
        problems.extend(reach_problems)
        # the interior the oracle's uncertainty and the curve's errors are taken on
        interior = 3.0 * operator.reach(t) if margin is None else margin
        if not reach_problems and not grid.interior_mask(interior).any():
            default = "" if margin is not None else ", by default 3 times the operator's reach at t,"
            r.flag(
                "rate", "margin",
                f"the interior margin{default} is {interior:.6g}, which leaves no point of "
                f"the grid [{grid.lower[0]:g}, {grid.upper[0]:g}]",
            )
    if grid is not None and reference == "exact" and exact_sigma is not None and t is not None:
        reach, width = EXACT_CUT * exact_sigma * math.sqrt(t), grid.upper[0] - grid.lower[0]
        if not reach <= width:
            r.flag(
                "experiment", "sigma",
                f"the exact reference's Gaussian taps reach {reach:.6g} at t = {t:g} "
                f"({EXACT_CUT:g} standard deviations), more than the grid's width {width:g}",
            )
    # each reference reads its own keys; a key the other one needs is a mistake
    for key, wanted in (("sigma", "exact"), ("mean", "exact"), ("h_fine", "oracle")):
        if reference != wanted and r.raw("experiment", key) is not None:
            r.flag("experiment", key, f"only meaningful for reference = {wanted}")
    if symmetric and op_type != "clt":
        r.flag("rate", "symmetric", "only meaningful for clt operators")
    if smooth is not None and op_type in ("lln", "clt"):
        r.flag("operator", "smooth", "only meaningful for nisio operators")

    if problems:
        raise ConfigError(problems)

    experiment = Experiment(
        grid=grid,
        payoff=payoff,
        operator=operator,
        model_kind=op_type,
        model=model,
        smooth=smooth,
        symmetric=bool(symmetric),
        t=t,
        h_list=h_list,
        reference_kind=reference,
        h_fine=h_fine,
        exact_sigma=exact_sigma,
        exact_mean=exact_mean,
        seed=seed,
        slope_tolerance=slope_tolerance,
        noise_floor=noise_floor,
        margin=margin,
        property_tol=property_tol,
        n_pairs=n_pairs,
        raw_text=raw_text,
    )
    _check_bounds(experiment)
    return experiment


def _reach_problems(op_type, model, operator, grid, h: float, cut: float) -> list[str]:
    """What makes the operator's steps reach past the grid, found from the
    config alone, before any tap is built.  A scenario's (a control's)
    step of size ``h``, the largest step the config runs, moves it by
    its shifted mean (farthest atom) and spreads a Gaussian one over
    ``cut`` standard deviations; reaching further than the grid is wide,
    every tap past the edge reads the edge value, and the tap list grows
    with the reach (a sigma of 1e10 asks for terabytes).  Then the
    admission suite's translation check needs its margin
    (``properties.suite_margin``) to leave a grid point."""
    width = grid.upper[0] - grid.lower[0]
    if op_type == "nisio":
        field = "[operator] controls"
        names = [f"control {i} (sigma {s:g}, m {m:g})" for i, (s, m) in enumerate(model.controls)]
        scenarios = model.expectation.scenarios
    else:
        field = "[operator] scenarios"
        names = [f"scenario {i}" for i in range(len(model.scenarios))]
        scenarios = model.scenarios
    scale, std_scale = family_scales(op_type, h)
    problems = []
    for name, s in zip(names, scenarios):
        if s.kind == "gaussian":
            reach = abs(s.mean) * scale + cut * s.sigma * std_scale
            how = f"its shifted mean plus {cut:g} standard deviations of its Gaussian taps"
        else:
            reach = scenario_reach(s) * scale
            how = "its farthest atom"
        if not reach <= width:
            problems.append(
                f"{field}: {name} reaches {reach:.6g} in one step of h = {h:g} ({how}), "
                f"more than the grid's width {width:g}"
            )
    if problems:
        return problems
    margin = suite_margin(operator, grid)
    if not grid.interior_mask(margin).any():
        if op_type != "nisio":
            reaches = [scenario_reach(s) for s in scenarios]
            field = f"{field}: {names[reaches.index(max(reaches))]}"
        problems.append(
            f"{field}: the admission suite's translation check needs a margin of "
            f"{margin:.6g} (8 times the operator's reach at h = {SUITE_H:g}, plus 4 cells) "
            f"from each end of the grid [{grid.lower[0]:g}, {grid.upper[0]:g}], "
            "which leaves no grid point"
        )
    return problems


def _check_bounds(exp: Experiment) -> None:
    """Evaluate the rate bounds once, into ``exp.bounds``, so that a
    payoff whose radius makes them non-finite is rejected here rather
    than after every step of a run.  They are closed-form, and their
    addends grow with the radius, so bounds that hold at radius 1 and
    fail at the payoff's put the fault on ``[payoff] scale``; any other
    failure is left to the command that reads ``exp.bounds``."""
    try:
        exp.bounds
    except DomainError:
        try:
            exp.build_bounds(1.0)
        except DomainError:
            return
        raise ConfigError(
            [
                f"[payoff] scale: the rate bounds are not finite at the payoff's "
                f"radius r = {exp.radius:.6g} (the larger of its sup and Lipschitz constant)"
            ]
        ) from None
