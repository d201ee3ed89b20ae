"""Closed-form convergence exponents and constants.

One layer: each model bound (nisio_bounds, lln_bounds, clt_bounds)
fixes its exponent in closed form and evaluates the printed per-model
constants from the shipped transcription table data/bound_addends.json,
so audits diff data, not code.  The semigroup growth rate omega and the
translation cap L the table's nisio sections take are 0 for every model
built here.  Their weight shift constant c_kappa is 1: errors are
measured in the unweighted sup norm, whose weight is constant.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable

from .core import DomainError
from .mollifier import MollifierKernel


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
) -> HolderParameters:
    """Time regularity exponent 1/(1+p) and its constant."""
    if r < 1:
        raise DomainError("the time regularity constant needs r >= 1")
    if p < 0 or a2 < 0 or omega < 0 or T < 0:
        raise DomainError("parameters must be non-negative")
    b01 = MollifierKernel(1).b(0, 1)
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
# the binary operators a table expression may use: + - * / **
_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


@lru_cache(maxsize=None)
def _compiled(expression: str):
    """A table expression checked once against the whitelist and compiled:
    its code and the names it reads, each with the text of the node that
    reads it.  The whitelist: numbers, names, + - * / **, unary minus and
    calls by name to exp, sqrt, log and E with keyword arguments by name;
    a function name is no value."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise DomainError(f"bound table expression {expression!r}: {exc.msg}") from exc
    reads = []

    def check(node: ast.expr) -> None:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return
        if isinstance(node, ast.Name) and node.id not in _FUNCTIONS:
            reads.append((node.id, node.id))
            return
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            check(node.left)
            check(node.right)
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            check(node.operand)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            and all(kw.arg is not None for kw in node.keywords)
        ):
            reads.append((node.func.id, ast.unparse(node)))
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                check(arg)
            return
        _refuse(expression, ast.unparse(node))

    check(tree.body)
    return compile(tree, "<bound table>", "eval"), tuple(reads)


def _refuse(expression: str, part: str):
    raise DomainError(f"bound table expression {expression!r}: {part!r} is not allowed")


def _safe_eval(expression: str, env: dict) -> float:
    """Evaluate a table expression: numbers, names from ``env``, + - * / **,
    unary minus, and calls to exp, sqrt, log and E.  The expression is
    checked and compiled once (``_compiled``); a call checks only that
    every name it reads is in scope, then runs the code with no
    builtins."""
    code, reads = _compiled(expression)
    scope = dict(_MATH_ENV)
    scope.update(env)
    for name, part in reads:
        if name not in scope:
            _refuse(expression, part)
    return float(eval(code, {"__builtins__": {}}, scope))  # noqa: S307 - whitelisted above


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


def nisio_bounds(gb, r: float, t: float, smooth: bool | None = None) -> BoundReport:
    """Printed constants for a Gaussian family's upper (one-sided) rate.

    smooth selects the squared-generator variant (nisio2) with exponent
    1/(2+2p); without it the exponent is 1/2 for first-order families
    (p = 0) and 1/6 once a second-order term is present (p = 1).  The
    family's own growth bound holds for every radius, so r < 1 is
    allowed here.
    """
    if smooth is None:
        smooth = gb.smooth
    if smooth and gb.squared_caps is None:
        raise DomainError("smooth constants requested but no squared generator caps")
    p = 0.0 if gb.second_order == 0 else 1.0
    if smooth:
        gamma = 1.0 / (2.0 + 2.0 * p)
    else:
        gamma = 0.5 if p == 0 else 1.0 / 6.0
    h0 = 0.125  # the largest step the constants cover
    env = {
        "r": float(r),
        "t": float(t),
        "v1": gb.first_order,
        "v2": gb.second_order,
        "p": p,
        "alpha": 1.0 / (1.0 + p),
        "h0": h0,
        "eps1": h0 ** ((1.0 + p) * gamma),
        "c_kappa": 1.0,
        "omega": 0.0,
        "L": 0.0,
    }
    for i, w in enumerate(gb.lipschitz_caps, start=1):
        env[f"w{i}"] = w
    for i, vt in enumerate(gb.squared_caps or (), start=1):
        env[f"vt{i}"] = vt
    env.update(_kernel_env(MollifierKernel(1)))
    addends = evaluate_table_section("nisio2_plus" if smooth else "nisio_plus", env)
    return BoundReport.from_addends(gamma, "plus", r, t, 1.0, addends)


def lln_bounds(ce, r: float, t: float, side: str) -> BoundReport:
    """Printed constants for the penalized law-of-large-numbers rate."""
    if side not in ("minus", "plus"):
        raise DomainError(f"side must be 'minus' or 'plus', got {side!r}")
    env = {"r": float(r), "t": float(t), "d": 1.0, "E": _moment_env(ce)}
    env.update(_kernel_env(MollifierKernel(1)))
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
    env = {
        "r": float(r),
        "t": float(t),
        "d": 1.0,
        "p": float(certificate.p),
        "a": float(certificate.a),
        "E": _moment_env(ce),
    }
    env.update(_kernel_env(MollifierKernel(1)))
    if symmetric:
        if not ce.third_moments_zero:
            raise DomainError("third moments do not vanish; symmetric variant refused")
        gamma = 1.0 / (2.0 + 2.0 * certificate.p)
        addends = evaluate_table_section(f"clt2_{side}", env)
    else:
        gamma = 1.0 / (4.0 + 2.0 * certificate.p)
        addends = evaluate_table_section(f"clt_{side}", env)
    return BoundReport.from_addends(gamma, side, r, t, 1.0, addends)
