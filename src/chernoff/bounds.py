"""Closed-form convergence exponents and constants.

Two layers live here.  The generic layer assembles the three-part
constant (initial window + mollified comparison + time-integrated
residual terms) from RateParameters describing a model's residual
exponents.  The model layer (nisio_bounds, lln_bounds, clt_bounds)
fills those parameters in, or evaluates the printed per-model constants
from a shipped transcription table so audits can diff data, not code.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable

from .core import DomainError
from .mollifier import MollifierKernel


@dataclass(frozen=True)
class ThetaRow:
    """One residual addend: coefficient(r, t, eps1) * h^alpha / eps2^beta."""

    name: str
    alpha: float
    beta: float
    coefficient: Callable[[float, float, float], float]

    def __post_init__(self):
        if self.alpha <= 0 or self.beta < 0:
            raise DomainError("need alpha > 0 and beta >= 0 in a residual row")


@dataclass(frozen=True)
class RateParameters:
    """Everything the generic exponent/constant formulas consume."""

    p: float
    a1: Callable[[float], float]
    a2: float
    rows_minus: tuple[ThetaRow, ...]
    rows_plus: tuple[ThetaRow, ...]
    omega: float = 0.0
    translation: float = 0.0
    eps0: float = 1.0
    h0: float = 0.125
    c_kappa: float = 1.0
    kernel: MollifierKernel | None = None

    def __post_init__(self):
        if self.p < 0 or self.a2 < 0 or self.omega < 0 or self.translation < 0:
            raise DomainError("rate parameters must be non-negative")
        if not 0 < self.eps0 <= 1:
            raise DomainError("eps0 must lie in (0, 1]")
        if self.h0 <= 0:
            raise DomainError("h0 must be positive")
        if self.c_kappa < 1:
            raise DomainError("the weight shift constant is at least 1")
        if self.kernel is None:
            object.__setattr__(self, "kernel", MollifierKernel(1))

    def rows(self, side: str) -> tuple[ThetaRow, ...]:
        if side == "minus":
            return self.rows_minus
        if side == "plus":
            return self.rows_plus
        raise DomainError(f"side must be 'minus' or 'plus', got {side!r}")

    def b(self, k: int, l: int) -> float:
        return self.kernel.b(k, l)


@dataclass(frozen=True)
class BoundReport:
    """A rate bound c * h^gamma with its named addends.

    total is always the exact (left-to-right) sum of the addend values;
    the bound only claims anything at steps with h^gamma <= eps0.
    """

    gamma: float
    side: str
    r: float
    t: float
    eps0: float
    addends: tuple[tuple[str, float], ...]
    total: float

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise DomainError("gamma must lie in (0, 1]")
        if any(v < 0 or not math.isfinite(v) for _, v in self.addends):
            raise DomainError("addends must be finite and non-negative")
        if self.total != sum(v for _, v in self.addends):
            raise DomainError("total must equal the sum of the addends")

    @classmethod
    def from_addends(cls, gamma, side, r, t, eps0, addends):
        addends = tuple((str(n), float(v)) for n, v in addends)
        return cls(
            gamma=gamma,
            side=side,
            r=r,
            t=t,
            eps0=eps0,
            addends=addends,
            total=sum(v for _, v in addends),
        )

    def bound_at(self, h: float) -> float:
        return self.total * h**self.gamma

    def admissible(self, h: float) -> bool:
        return h**self.gamma <= self.eps0 * (1 + 1e-12)

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "side": self.side,
            "r": self.r,
            "t": self.t,
            "eps0": self.eps0,
            "constant": self.total,
            "addends": {name: value for name, value in self.addends},
        }


def general_rate_exponent(params: RateParameters, side: str) -> float:
    """min of the time-regularity exponent and each residual row's."""
    rows = params.rows(side)
    if not rows:
        raise DomainError(f"no residual rows for side {side!r}")
    gamma = 1.0 / (1.0 + params.p)
    for row in rows:
        gamma = min(gamma, row.alpha / (1.0 + row.beta))
    return gamma


def general_rate_constant(
    params: RateParameters,
    r: float,
    t: float,
    side: str,
    allow_small_r: bool = False,
) -> BoundReport:
    """The three-part constant for the chosen error side."""
    if r < 1 and not allow_small_r:
        raise DomainError(
            "the generic constant needs r >= 1; pass allow_small_r=True when "
            "the model's growth bound holds for every argument"
        )
    if t < 0:
        raise DomainError("time must be non-negative")
    gamma = general_rate_exponent(params, side)
    eps1 = params.h0 ** ((1.0 + params.p) * gamma)
    om, h0 = params.omega, params.h0
    b01 = params.b(0, 1)
    growth = params.a1(r) + params.a2 * b01**params.p * r**params.p
    addends = [
        ("initial-window", math.exp(om * (t + h0)) * (2 * r + growth)),
        (
            "mollified-comparison",
            math.exp(om * (t + eps1)) * (1 + math.exp(om * h0)) * (3 * r + growth),
        ),
    ]
    trans_exp = om * (t + eps1) if side == "minus" else om * eps1
    addends.append(
        ("translation", math.exp(om * t) * params.translation * r * math.exp(trans_exp) * t)
    )
    for row in params.rows(side):
        addends.append(
            (row.name, math.exp(om * t) * row.coefficient(r, t, eps1) * t)
        )
    return BoundReport.from_addends(gamma, side, r, t, params.eps0, addends)


@dataclass(frozen=True)
class HolderParameters:
    alpha: float
    constant: float


def holder_parameters(
    r: float,
    T: float,
    omega: float,
    a1: Callable[[float], float],
    a2: float,
    p: float,
    kernel: MollifierKernel | None = None,
    allow_small_r: bool = False,
) -> HolderParameters:
    """Time regularity exponent 1/(1+p) and its constant."""
    if r < 1 and not allow_small_r:
        raise DomainError("the time regularity constant needs r >= 1")
    if p < 0 or a2 < 0 or omega < 0 or T < 0:
        raise DomainError("parameters must be non-negative")
    b01 = (kernel or MollifierKernel(1)).b(0, 1)
    alpha = 1.0 / (1.0 + p)
    constant = math.exp(omega * T) * (2 * r + a1(r) + a2 * b01**p * r**p)
    return HolderParameters(alpha=alpha, constant=constant)


# ---------------------------------------------------------------------------
# transcription table


@lru_cache(maxsize=1)
def load_bound_table() -> dict:
    text = resources.files("chernoff.data").joinpath("bound_addends.json").read_text()
    return json.loads(text)


def bound_table_digest() -> str:
    import hashlib

    text = resources.files("chernoff.data").joinpath("bound_addends.json").read_bytes()
    return hashlib.sha256(text).hexdigest()


_MATH_ENV = {"exp": math.exp, "sqrt": math.sqrt, "log": math.log}
_FUNCTIONS = frozenset(("exp", "sqrt", "log", "E"))
_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


@lru_cache(maxsize=None)
def _parse(expression: str) -> ast.expr:
    try:
        return ast.parse(expression, mode="eval").body
    except SyntaxError as exc:
        raise DomainError(f"bound table expression {expression!r}: {exc.msg}") from exc


def _safe_eval(expression: str, env: dict) -> float:
    """Evaluate a table expression: numbers, names from ``env``, + - * / **,
    unary minus, and calls to exp, sqrt, log and E."""
    scope = dict(_MATH_ENV)
    scope.update(env)

    def value(node: ast.expr):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return node.value
        if isinstance(node, ast.Name) and node.id in scope and node.id not in _FUNCTIONS:
            return scope[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            and node.func.id in scope
            and all(kw.arg is not None for kw in node.keywords)
        ):
            args = [value(a) for a in node.args]
            kwargs = {kw.arg: value(kw.value) for kw in node.keywords}
            return scope[node.func.id](*args, **kwargs)
        raise DomainError(
            f"bound table expression {expression!r}: {ast.unparse(node)!r} is not allowed"
        )

    return float(value(_parse(expression)))


def evaluate_table_section(section: str, env: dict) -> tuple[tuple[str, float], ...]:
    table = load_bound_table()
    if section not in table:
        raise DomainError(f"no bound table section named {section!r}")
    entry = table[section]
    local = dict(env)
    for name, expr in entry.get("symbols", []):
        local[name] = _safe_eval(expr, local)
    return tuple((name, _safe_eval(expr, local)) for name, expr in entry["addends"])


def _kernel_env(kernel: MollifierKernel) -> dict:
    env = {}
    for (k, l), v in kernel.constants.items():
        env[f"b{k}{l}"] = v
    return env


def _moment_env(ce) -> Callable:
    def E(c1: float = 0.0, c2: float = 0.0, c3: float = 0.0, c4: float = 0.0) -> float:
        coeffs = {}
        for order, c in ((1, c1), (2, c2), (3, c3), (4, c4)):
            if c != 0.0:
                coeffs[order] = c
        if not coeffs:
            return 0.0
        return ce.abs_moment_combination(coeffs)

    return E


# ---------------------------------------------------------------------------
# model bounds


def nisio_rate_parameters(
    gb,
    smooth: bool | None = None,
    h0: float = 0.125,
    eps0: float = 1.0,
    c_kappa: float = 1.0,
    kernel: MollifierKernel | None = None,
) -> RateParameters:
    """Residual rows for a Gaussian control family's upper error side."""
    if smooth is None:
        smooth = gb.smooth
    if smooth and gb.squared_caps is None:
        raise DomainError("smooth constants requested but no squared generator caps")
    kernel = kernel or MollifierKernel(1)
    om = gb.omega
    v1, v2 = gb.first_order, gb.second_order
    p = 0.0 if v2 == 0 else 1.0
    alpha = 1.0 / (1.0 + p)
    a2 = math.exp(om) * v2

    def a1(r: float) -> float:
        return math.exp(om) * v1 * r

    b01 = kernel.b(0, 1)

    def c_rt(r: float, t: float) -> float:
        return math.exp(om * t) * (2 * r + a1(r) + a2 * b01**p * r**p)

    rows: list[ThetaRow] = []
    if smooth:
        for i, vt in enumerate(gb.squared_caps, start=1):
            if vt == 0:
                continue
            bi = kernel.b(0, i - 1)

            def coeff(r, t, eps1, vt=vt, bi=bi):
                return 0.5 * math.exp(om * (t + eps1)) * r * vt * bi

            rows.append(ThetaRow(f"consistency-order-{i}", 1.0, i - 1.0, coeff))
    else:
        for i, wi in enumerate(gb.lipschitz_caps, start=1):
            if wi == 0:
                continue
            bi = kernel.b(0, i - 1)

            def coeff(r, t, eps1, wi=wi, bi=bi):
                return (
                    (c_rt(r, t) / (1.0 + alpha))
                    * math.exp(om * (t + eps1))
                    * wi
                    * bi
                )

            rows.append(ThetaRow(f"consistency-order-{i}", alpha, i - 1.0, coeff))
    for i, vi in enumerate((v1, v2), start=1):
        if vi == 0:
            continue
        bi = kernel.b(1, i)

        def coeff(r, t, eps1, vi=vi, bi=bi):
            return (2 * c_kappa * c_rt(r, t) + math.exp(om * t) * r) * vi * bi

        rows.append(ThetaRow(f"smoothing-order-{i}", 1.0, p + i, coeff))
    b20 = kernel.b(2, 0)

    def coeff_fd(r, t, eps1):
        return (2 * c_kappa * c_rt(r, t) + math.exp(om * t) * r) * 0.5 * b20

    rows.append(ThetaRow("time-difference", 1.0, 1.0 + 2 * p, coeff_fd))
    row_tuple = tuple(rows)
    return RateParameters(
        p=p,
        a1=a1,
        a2=a2,
        rows_minus=row_tuple,
        rows_plus=row_tuple,
        omega=om,
        translation=gb.translation,
        eps0=eps0,
        h0=h0,
        c_kappa=c_kappa,
        kernel=kernel,
    )


def nisio_bounds(
    gb,
    r: float,
    t: float,
    smooth: bool | None = None,
    h0: float = 0.125,
    eps0: float = 1.0,
    c_kappa: float = 1.0,
    kernel: MollifierKernel | None = None,
) -> BoundReport:
    """Upper-side bound for a Gaussian family (one-sided approximation).

    The family's own growth bound holds for every radius, so r < 1 is
    allowed here.
    """
    params = nisio_rate_parameters(
        gb, smooth=smooth, h0=h0, eps0=eps0, c_kappa=c_kappa, kernel=kernel
    )
    return general_rate_constant(params, r, t, "plus", allow_small_r=True)


def lln_bounds(ce, r: float, t: float, side: str) -> BoundReport:
    """Printed constants for the penalized law-of-large-numbers rate."""
    if side not in ("minus", "plus"):
        raise DomainError(f"side must be 'minus' or 'plus', got {side!r}")
    d = ce.dim
    kernel = MollifierKernel(d)
    env = {"r": float(r), "t": float(t), "d": float(d), "E": _moment_env(ce)}
    env.update(_kernel_env(kernel))
    addends = evaluate_table_section(f"lln_{side}", env)
    return BoundReport.from_addends(0.5, side, r, t, 1.0, addends)


def clt_bounds(
    ce,
    certificate,
    r: float,
    t: float,
    side: str,
    symmetric: bool = False,
) -> BoundReport:
    """Printed constants for the central-limit scaling rate.

    symmetric=True selects the fourth-moment (vanishing third moments,
    d = 1) variant with the doubled exponent.
    """
    if side not in ("minus", "plus"):
        raise DomainError(f"side must be 'minus' or 'plus', got {side!r}")
    if not ce.zero_mean:
        raise DomainError("the scaling-limit bounds need centred scenarios")
    d = ce.dim
    kernel = MollifierKernel(d)
    env = {
        "r": float(r),
        "t": float(t),
        "d": float(d),
        "p": float(certificate.p),
        "a": float(certificate.a),
        "E": _moment_env(ce),
    }
    env.update(_kernel_env(kernel))
    if symmetric:
        if d != 1:
            raise DomainError("the symmetric variant is one-dimensional only")
        if not ce.third_moments_zero:
            raise DomainError("third moments do not vanish; symmetric variant refused")
        gamma = 1.0 / (2.0 + 2.0 * certificate.p)
        addends = evaluate_table_section(f"clt2_{side}", env)
    else:
        gamma = 1.0 / (4.0 + 2.0 * certificate.p)
        addends = evaluate_table_section(f"clt_{side}", env)
    return BoundReport.from_addends(gamma, side, r, t, 1.0, addends)
