"""Config-driven experiment runner.

Subcommands: run, check-invariants, bounds, kernel-constants, rates.
Exit codes: 0 pass, 1 verdict fail, 2 inconclusive, 3 usage, config,
input or step error (a step whose values stop being finite).  A usage
error (no config, an unknown flag or subcommand) exits 3, not argparse's
2, so an inconclusive verdict is the only exit 2; ``--help`` exits 0.
Artifacts are plain CSV/JSON and byte-reproducible for a fixed config
and seed; nothing time-dependent is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .config import ConfigError, load_config
from .bounds import bound_table_digest
from .core import DomainError
from .iterate import IterationError
from .mollifier import MollifierKernel
from .properties import admit_operator, appendix_suite, structural_suite
from .rates import (
    InconclusiveError,
    measure_errors,
    rate_report,
    read_error_curve,
    write_error_curve,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 3


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_json(path: Path, obj):
    path.write_text(_dump_json(obj))


def kernel_table() -> dict:
    kernel = MollifierKernel(1)
    return {
        "dim": 1,
        "constants": {f"b{k}{l}": v for (k, l), v in sorted(kernel.constants.items())},
    }


def kernel_table_digest() -> str:
    return hashlib.sha256(_dump_json(kernel_table()).encode()).hexdigest()


def _status_code(status: str) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}[
        status
    ]


def _out_dir(args, config_path: Path) -> Path:
    out = Path(args.out) if args.out else config_path.parent / (
        config_path.stem + "-artifacts"
    )
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    exp = load_config(args.config)
    config_path = Path(args.config)
    admitted = admit_operator(
        exp.operator, exp.grid, seed=exp.seed, n_pairs=min(64, exp.n_pairs)
    )
    # the reference's levels and the curve's points share one pool
    curve = measure_errors(
        admitted, exp.payoff, exp.t, exp.h_list, exp.reference(), margin=exp.margin
    )
    # the floor and the slope tolerance go into the CSV, so ``rates``
    # refits with them
    curve = dataclasses.replace(
        curve, noise_floor=exp.noise_floor, slope_tolerance=exp.slope_tolerance
    )
    bounds = exp.bounds
    report = rate_report(curve, bounds)
    out = _out_dir(args, config_path)
    csv_bound = next((b for b in bounds if b.side == "plus"), bounds[0])
    write_error_curve(out / "error_curve.csv", curve, csv_bound)
    _write_json(out / "rate_report.json", report.to_dict())
    _write_json(out / "bound_report.json", [b.to_dict() for b in bounds])
    _write_json(
        out / "manifest.json",
        {
            "config_sha256": hashlib.sha256(exp.raw_text.encode()).hexdigest(),
            "bound_table_sha256": bound_table_digest(),
            "kernel_table_sha256": kernel_table_digest(),
            "version": __version__,
            "seed": exp.seed,
        },
    )
    for check in report.checks:
        word = "pass" if check.passed else "FAIL"
        print(
            f"bound {check.side}: gamma={check.gamma:.6g} c={check.constant:.6g} "
            f"max_ratio={check.max_ratio:.6g} {word}"
        )
    if report.fit is not None:
        print(f"fit: gamma_hat={report.fit.gamma_hat:.6g} over {report.fit.n_fit} points")
    else:
        print(f"fit: none ({report.fit_reason})")
    print(f"artifacts: {out}")
    print(f"verdict: {report.status}")
    return _status_code(report.status)


def cmd_check_invariants(args) -> int:
    exp = load_config(args.config)
    structural = structural_suite(
        exp.operator,
        exp.grid,
        n_pairs=exp.n_pairs,
        seed=exp.seed,
        tol=exp.property_tol,
    )
    appendix = appendix_suite(
        n_instances=exp.n_pairs, seed=exp.seed, tol=exp.property_tol
    )
    payload = {"structural": structural.to_dict(), "appendix": appendix.to_dict()}
    if args.out:
        out = _out_dir(args, Path(args.config))
        _write_json(out / "invariants.json", payload)
    sys.stdout.write(_dump_json(payload))
    return EXIT_PASS if structural.passed and appendix.passed else EXIT_FAIL


def cmd_bounds(args) -> int:
    exp = load_config(args.config)
    payload = [b.to_dict() for b in exp.bounds]
    if args.out:
        out = _out_dir(args, Path(args.config))
        _write_json(out / "bound_report.json", payload)
    sys.stdout.write(_dump_json(payload))
    return EXIT_PASS


def cmd_kernel_constants(args) -> int:
    table = kernel_table()
    table["sha256"] = kernel_table_digest()
    sys.stdout.write(_dump_json(table))
    return EXIT_PASS


def cmd_rates(args) -> int:
    curve = read_error_curve(args.csv, uncertainty=args.uncertainty)
    report = rate_report(
        curve,
        bounds=(),
        slope_tolerance=args.slope_tolerance,
        target_gamma=args.target_gamma,
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "rate_report.json", report.to_dict())
    sys.stdout.write(_dump_json(report.to_dict()))
    return _status_code(report.status)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chernoff",
        description="Iterate convex monotone expectation operators and "
        "verify convergence-rate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment config end to end")
    run.add_argument("config")
    run.add_argument("--out", help="artifact directory (default <config>-artifacts)")
    run.set_defaults(fn=cmd_run)

    inv = sub.add_parser(
        "check-invariants", help="randomized structural and expectation suites"
    )
    inv.add_argument("config")
    inv.add_argument("--out", help="also write invariants.json here")
    inv.set_defaults(fn=cmd_check_invariants)

    bnd = sub.add_parser("bounds", help="closed-form rate constants for a config")
    bnd.add_argument("config")
    bnd.add_argument("--out", help="also write bound_report.json here")
    bnd.set_defaults(fn=cmd_bounds)

    ker = sub.add_parser("kernel-constants", help="mollifier constant table")
    ker.set_defaults(fn=cmd_kernel_constants)

    fit = sub.add_parser("rates", help="fit a rate to an existing error-curve CSV")
    fit.add_argument("csv")
    fit.add_argument(
        "--uncertainty",
        type=float,
        default=None,
        help="oracle uncertainty for every point (default: the CSV's column)",
    )
    fit.add_argument("--target-gamma", type=float, default=None)
    fit.add_argument(
        "--slope-tolerance",
        type=float,
        default=None,
        help="allowed shortfall of the fitted slope (default: the CSV's column)",
    )
    fit.add_argument("--out", help="also write rate_report.json here")
    fit.set_defaults(fn=cmd_rates)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage message; 2 is the inconclusive code
        if exc.code == 2:
            return EXIT_CONFIG
        raise
    try:
        return args.fn(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (DomainError, IterationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
