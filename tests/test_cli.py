"""End-to-end checks of the command line driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chernoff
from chernoff import config as config_module
from chernoff.cli import main
from chernoff.core import DomainError
from chernoff.iterate import StepOperator

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

LINEAR_CFG = """
[grid]
low = -12
high = 12
points = 1025

[operator]
type = nisio
controls = 1 0

[payoff]
kind = cos

[experiment]
t = 0.25
h = 2^-3..2^-5
reference = exact
sigma = 1
seed = 3

[rate]
margin = 8.0

[tolerances]
pairs = 40
"""


@pytest.fixture()
def linear_config(tmp_path):
    path = tmp_path / "linear.cfg"
    path.write_text(LINEAR_CFG)
    return path


def test_run_writes_artifacts_and_passes(linear_config, tmp_path, capsys):
    out = tmp_path / "artifacts"
    rc = main(["run", str(linear_config), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "verdict: pass" in captured

    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "bound_report.json",
        "error_curve.csv",
        "manifest.json",
        "rate_report.json",
    ]

    csv_text = (out / "error_curve.csv").read_text()
    assert csv_text.splitlines()[0] == (
        "h,e_plus,e_minus,oracle_uncertainty,noise_floor,slope_tolerance,bound_value,pass"
    )
    assert len(csv_text.splitlines()) == 4

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "config_sha256",
        "bound_table_sha256",
        "kernel_table_sha256",
        "version",
        "seed",
    }
    assert len(manifest["config_sha256"]) == 64
    assert manifest["seed"] == 3

    report = json.loads((out / "rate_report.json").read_text())
    assert report["status"] == "pass"
    bound_report = json.loads((out / "bound_report.json").read_text())
    assert [b["side"] for b in bound_report] == ["plus"]


def test_run_is_byte_reproducible(linear_config, tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["run", str(linear_config), "--out", str(first)]) == 0
    assert main(["run", str(linear_config), "--out", str(second)]) == 0
    capsys.readouterr()
    for name in (
        "error_curve.csv",
        "rate_report.json",
        "bound_report.json",
        "manifest.json",
    ):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_config_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(LINEAR_CFG.replace("t = 0.25", "t = -4"))
    rc = main(["run", str(bad)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "config error" in err and "[experiment] t" in err

    assert main(["run", str(tmp_path / "missing.cfg")]) == 3


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("controls = 1 0", "controls = 1 0\ncut = inf", "[operator] cut: not a finite number"),
        ("sigma = 1", "sigma = inf", "[experiment] sigma: not a finite number"),
        ("seed = 3", "seed = 3\nmean = inf", "[experiment] mean: not a finite number"),
        ("seed = 3", "seed = 3\nmean = nan", "[experiment] mean: not a finite number"),
        ("low = -12", "low = nan", "[grid] low: not a finite number"),
        ("high = 12", "high = 2^5000", "[grid] high: not a finite number"),
        ("margin = 8.0", "margin = -inf", "[rate] margin: not a finite number"),
        ("h = 2^-3..2^-5", "h = inf", "[experiment] h: steps must be finite"),
        ("h = 2^-3..2^-5", "h = 0.5, nan", "[experiment] h: steps must be finite"),
        # Grid needs 4 points, so the key's own range check asks for 4
        ("points = 1025", "points = 3", "[grid] points: out of range: '3'"),
    ],
)
def test_a_non_finite_number_exits_3_naming_its_key(old, new, message, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(LINEAR_CFG.replace(old, new))
    out = tmp_path / "artifacts"
    assert main(["run", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "reference, levels, code",
    [
        # the fine oracle's uncertainty swamps this curve's errors
        ("reference = oracle\nh_fine = 2^-9", [2.0**-9, 2.0**-8], 2),
        ("reference = exact\nsigma = 1", [], 0),
    ],
    ids=["oracle", "exact"],
)
def test_run_sends_the_reference_s_levels_and_the_curve_through_one_pool(
    reference, levels, code, tmp_path, capsys, monkeypatch
):
    import chernoff.rates as rates_mod

    calls = []
    pooled = rates_mod.chernoff_runs

    def recording(op, f, t, hs, workers=None):
        calls.append(list(hs))
        return pooled(op, f, t, hs, workers)

    monkeypatch.setattr(rates_mod, "chernoff_runs", recording)
    path = tmp_path / "exp.cfg"
    path.write_text(
        LINEAR_CFG.replace("points = 1025", "points = 513").replace(
            "reference = exact\nsigma = 1", reference
        )
    )
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == code
    assert calls == [[*levels, 2.0**-3, 2.0**-4, 2.0**-5]]


@pytest.mark.parametrize(
    "controls, message",
    [
        ("1e300 0", "sigma 1e+300 is too large"),
        ("1e100 0", "sigma 1e+100 is too large"),
        ("1 0, 1 1e200", "generator bounds must be finite"),
    ],
)
def test_a_control_past_the_float_range_exits_3_naming_the_controls(
    controls, message, tmp_path, capsys
):
    # finite numbers whose generator caps (sigma^4 / 4, m^2) overflow
    path = tmp_path / "bad.cfg"
    path.write_text(LINEAR_CFG.replace("controls = 1 0", f"controls = {controls}"))
    out = tmp_path / "artifacts"
    assert main(["run", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: [operator] controls: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "entry",
    [
        {"type": "gaussian", "mean": 0.0, "sigma": float("nan")},
        {"type": "gaussian", "mean": 0.0, "sigma": float("inf")},
        {"type": "discrete", "atoms": [-1.0, 1.0], "weights": [float("nan"), 1.0]},
    ],
    ids=["sigma-nan", "sigma-inf", "weight-nan"],
)
def test_a_non_finite_scenario_field_exits_3_naming_the_scenario(entry, tmp_path, capsys):
    (tmp_path / "pair.json").write_text(json.dumps([{"type": "point", "mean": 0.0}, entry]))
    path = tmp_path / "clt.cfg"
    scenario_cfg = LINEAR_CFG.replace("type = nisio\ncontrols = 1 0", "type = clt\nscenarios = pair.json")
    path.write_text(scenario_cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error") and "[operator] scenarios: scenario 1:" in err


def test_a_weight_section_exits_3(tmp_path, capsys):
    # errors are measured in the unweighted sup norm the certificates
    # are stated for, so a weight is an unknown section, not ignored
    weighted = tmp_path / "weighted.cfg"
    weighted.write_text(LINEAR_CFG + "\n[weight]\nkind = inverse_poly\nq = 2\n")
    assert main(["run", str(weighted)]) == 3
    assert "config error: [weight]: unknown section" in capsys.readouterr().err


@pytest.mark.parametrize(
    "new, key, wanted",
    [
        ("reference = oracle\nsigma = 7", "sigma", "exact"),
        ("reference = oracle\nmean = 3", "mean", "exact"),
        ("reference = exact\nsigma = 1\nh_fine = 2^-4", "h_fine", "oracle"),
    ],
    ids=["oracle-sigma", "oracle-mean", "exact-h_fine"],
)
def test_a_key_the_configured_reference_ignores_exits_3(new, key, wanted, tmp_path, capsys):
    path = tmp_path / "ignored.cfg"
    path.write_text(LINEAR_CFG.replace("reference = exact\nsigma = 1", new))
    out = tmp_path / "artifacts"
    assert main(["run", str(path), "--out", str(out)]) == 3
    message = f"[experiment] {key}: only meaningful for reference = {wanted}"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_a_failing_step_exits_3_with_an_error_line(linear_config, tmp_path, capsys, monkeypatch):
    # one-row step plans whose output is not finite, as a step that
    # overflows would give; the admission suite's stacked plans and
    # one-shot steps are left alone
    stacked = StepOperator.plan

    def failing_plan(self, grid, h, stack=None):
        if stack is not None:
            return stacked(self, grid, h, stack)

        def step(u, out):
            out[...] = np.nan
            return out

        return step

    monkeypatch.setattr(StepOperator, "plan", failing_plan)
    rc = main(["run", str(linear_config), "--out", str(tmp_path / "artifacts")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: step 1 of ") and "must be finite" in err
    assert "Traceback" not in err


def test_a_step_failing_only_at_the_oracle_level_exits_3(tmp_path, capsys, monkeypatch):
    # the oracle's h_fine level shares a pool with the curve; its failure
    # is reported as when the oracle ran on its own, before the curve
    path = tmp_path / "oracle.cfg"
    path.write_text(
        LINEAR_CFG.replace("points = 1025", "points = 513")
        .replace("controls = 1 0", "controls = 0.5 0, 1 0")
        .replace("reference = exact\nsigma = 1", "reference = oracle\nh_fine = 2^-9")
    )
    planned = StepOperator.plan

    def plan(self, grid, h, stack=None):
        step = planned(self, grid, h, stack)
        if stack is not None or h != 2.0**-9:
            return step

        def failing(u, out):
            step(u, out)
            out[...] = np.nan
            return out

        return failing

    monkeypatch.setattr(StepOperator, "plan", plan)
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 3
    err = capsys.readouterr().err
    assert err == "error: step 1 of 128 (h=0.00195312) failed: grid function values must be finite\n"


@pytest.mark.parametrize(
    "controls, message",
    [
        ("1e30 0", "control 0 (sigma 1e+30, m 0) reaches 4e+30 in one step of h = 0.25"),
        ("1e10 0", "control 0 (sigma 1e+10, m 0) reaches 4e+10 in one step of h = 0.25"),
        ("50 0", "control 0 (sigma 50, m 0) reaches 200 in one step of h = 0.25"),
        ("1 0, 3 0", "the admission suite's translation check needs a margin of 12.0"),
    ],
)
def test_a_control_whose_steps_outrun_the_grid_exits_3_naming_the_controls(
    controls, message, tmp_path, capsys, monkeypatch
):
    # found from the config alone: no tap list is built
    def no_taps(*args, **kwargs):
        raise AssertionError("taps were built")

    monkeypatch.setattr(chernoff.kernels, "gaussian_taps", no_taps)
    path = tmp_path / "wide.cfg"
    path.write_text(LINEAR_CFG.replace("controls = 1 0", f"controls = {controls}"))
    out = tmp_path / "artifacts"
    assert main(["run", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: [operator] controls: ") and message in err
    assert "\n" not in err.rstrip("\n") and not out.exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"type": "point", "mean": 1e9}, "scenario 1 reaches 5e+08 in one step of h = 0.25"),
        ({"type": "gaussian", "mean": 0.0, "sigma": 3.0}, "scenario 1: the admission suite's"),
    ],
    ids=["far-atom", "wide-margin"],
)
def test_a_scenario_whose_steps_outrun_the_grid_exits_3_naming_it(
    entry, message, tmp_path, capsys
):
    (tmp_path / "pair.json").write_text(json.dumps([{"type": "point", "mean": 0.0}, entry]))
    path = tmp_path / "clt.cfg"
    path.write_text(
        LINEAR_CFG.replace("type = nisio\ncontrols = 1 0", "type = clt\nscenarios = pair.json")
    )
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: [operator] scenarios: ") and message in err


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"margin = 8.0": "margin = 12.5"}, "the interior margin is 12.5, which leaves no point"),
        (
            # reach 5 at t = 25; an oracle, since the exact taps would reach
            # 80, so without the exact reference's sigma
            {
                "margin = 8.0": "",
                "t = 0.25": "t = 25",
                "reference = exact\nsigma = 1": "reference = oracle",
            },
            "by default 3 times the operator's reach at t, is 15,",
        ),
    ],
    ids=["given", "default"],
)
def test_an_interior_margin_that_leaves_no_point_exits_3(edits, message, tmp_path, capsys):
    text = LINEAR_CFG
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / "narrow.cfg"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: [rate] margin: ") and message in err
    assert err.count("config error") == 1


def test_an_exact_reference_whose_taps_outrun_the_grid_exits_3(tmp_path, capsys, monkeypatch):
    def no_taps(*args, **kwargs):
        raise AssertionError("taps were built")

    monkeypatch.setattr(chernoff.kernels, "gaussian_taps", no_taps)
    path = tmp_path / "wide.cfg"
    path.write_text(LINEAR_CFG.replace("sigma = 1", "sigma = 1e30"))
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: [experiment] sigma: ") and "reach 8e+30" in err


def test_a_payoff_whose_bound_is_not_finite_fails_at_load(tmp_path, capsys):
    # radius 1.2e307 on [-12, 12]; the gheat bound is about 196 r
    text = (EXAMPLES / "gheat_lipschitz.cfg").read_text()
    text = text.replace("kind = capped_abs", "kind = linear\nscale = 1e306")
    path = tmp_path / "huge.cfg"
    path.write_text(text.replace("h = 2^-3..2^-9", "h = 2^-3..2^-5"))
    out = tmp_path / "artifacts"
    assert main(["run", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error") and "[payoff] scale" in err and "r = 1.2e+307" in err
    assert not out.exists()


def test_check_invariants(linear_config, capsys):
    rc = main(["check-invariants", str(linear_config)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    structural = payload["structural"]["properties"]
    assert {"monotone", "convex", "contraction"} <= set(structural)
    assert structural["monotone"]["checked"] == 40
    assert all(row["violations"] == 0 for row in structural.values())
    assert set(payload["appendix"]["properties"]) == {
        "lambda-scaling",
        "constant-shift",
        "mixture-jensen",
    }


def test_bounds_subcommand(linear_config, capsys):
    rc = main(["bounds", str(linear_config)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["side"] == "plus"
    assert payload[0]["constant"] > 0


@pytest.mark.parametrize(
    "name", ["linear_cos", "gheat_lipschitz", "clt_sublinear", "lln_point_pair"]
)
def test_shipped_example_configs_load(name, capsys):
    config = Path(__file__).resolve().parents[1] / "examples" / f"{name}.cfg"
    assert main(["bounds", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)


# gamma and constant of every bound the shipped configs print; the
# nisio totals are the sum of the table's nisio2_plus addends
SHIPPED_BOUNDS = {
    "gheat_lipschitz": [(0.25, 195.64685734375982)],
    "linear_cos": [(0.25, 195.64685734371164)],
    "clt_sublinear": [
        (1 / 6, 116.4281751206962),
        (1 / 6, 190.83758235277892),
        (0.25, 124.55172547115438),
        (0.25, 198.9611327032371),
    ],
    "lln_point_pair": [(0.5, 221.74592695671507), (0.5, 376.1461848394509)],
}


@pytest.mark.parametrize("name", sorted(SHIPPED_BOUNDS))
def test_shipped_config_bounds_are_pinned(name, capsys):
    config = Path(__file__).resolve().parents[1] / "examples" / f"{name}.cfg"
    assert main(["bounds", str(config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    got = [(b["gamma"], b["constant"]) for b in payload]
    assert [g for g, _ in got] == [g for g, _ in SHIPPED_BOUNDS[name]]
    for (_, total), (_, want) in zip(got, SHIPPED_BOUNDS[name]):
        assert total == pytest.approx(want, rel=1e-14, abs=0)


def test_kernel_constants_subcommand(capsys):
    rc = main(["kernel-constants"])
    assert rc == 0
    table = json.loads(capsys.readouterr().out)
    assert table["dim"] == 1
    assert len(table["constants"]) == 12
    assert table["constants"]["b00"] == pytest.approx(1.0, abs=1e-12)
    assert len(table["sha256"]) == 64


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run"], "the following arguments are required: config"),
        (["kernel-constants", "--dim", "1"], "unrecognized arguments: --dim 1"),
        (["fit", "curve.csv"], "invalid choice: 'fit'"),
    ],
)
def test_a_usage_error_exits_3(argv, message, capsys):
    # 2 is an inconclusive verdict's code, so argparse's usage exit is 3
    assert main(argv) == 3
    assert message in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_rates_fit_only(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    rows = ["h,e_plus,e_minus,oracle_uncertainty,noise_floor,slope_tolerance,bound_value,pass"]
    for n in range(3, 9):
        h = 2.0**-n
        rows.append(f"{h!r},{3.0 * h ** 0.5!r},0.0,0.0,10.0,0.05,,")
    csv.write_text("\n".join(rows) + "\n")

    rc = main(["rates", str(csv)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fit"]["gamma_hat"] == pytest.approx(0.5, abs=1e-9)

    assert main(["rates", str(csv), "--target-gamma", "0.9"]) == 1
    capsys.readouterr()


ORACLE_CFG = """
[grid]
low = -8
high = 8
points = 1025

[operator]
type = nisio
controls = 0.5 0, 1 0

[payoff]
kind = capped_abs
cap = 1

[experiment]
t = 0.25
h = 2^-2..2^-6
reference = oracle
h_fine = 2^-9
seed = 2

[tolerances]
pairs = 8
"""


def test_rates_refits_a_run_to_the_same_fit(tmp_path, capsys):
    config = tmp_path / "oracle.cfg"
    config.write_text(ORACLE_CFG)
    out = tmp_path / "artifacts"
    assert main(["run", str(config), "--out", str(out)]) == 0
    run_fit = json.loads((out / "rate_report.json").read_text())["fit"]
    capsys.readouterr()
    # the oracle's floor drops the finest points, so a zero uncertainty
    # would fit a different set
    assert main(["rates", str(out / "error_curve.csv")]) == 0
    fit = json.loads(capsys.readouterr().out)["fit"]
    assert (fit["gamma_hat"], fit["n_fit"]) == (run_fit["gamma_hat"], run_fit["n_fit"])
    assert main(["rates", str(out / "error_curve.csv"), "--uncertainty", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["fit"]["n_fit"] > run_fit["n_fit"]
    # a noise floor of 100 leaves too few points to fit: the CSV carries
    # the floor, so the refit is inconclusive as the run was
    config.write_text(ORACLE_CFG + "\n[rate]\nnoise_floor = 100\n")
    floored = tmp_path / "floored"
    assert main(["run", str(config), "--out", str(floored)]) == 2
    capsys.readouterr()
    assert main(["rates", str(floored / "error_curve.csv")]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "inconclusive"


def test_rates_refits_an_exact_run_to_the_run_s_verdict(linear_config, tmp_path, capsys):
    # the linear scheme is exact: no point rises above the floor, and the
    # run passes on its bound; the CSV records that bound's column, so
    # the refit passes too where a curve with no bound is inconclusive
    out = tmp_path / "artifacts"
    assert main(["run", str(linear_config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["rates", str(out / "error_curve.csv")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["fit"]) == ("pass", None)
    # a point that broke the recorded bound fails the refit, as the run failed
    lines = (out / "error_curve.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",false"
    (tmp_path / "broken.csv").write_text("\n".join(lines) + "\n")
    assert main(["rates", str(tmp_path / "broken.csv")]) == 1
    capsys.readouterr()


def test_rates_inconclusive_exit_2(tmp_path, capsys):
    csv = tmp_path / "floor.csv"
    rows = ["h,e_plus,e_minus,oracle_uncertainty,noise_floor,slope_tolerance,bound_value,pass"]
    for n in range(3, 9):
        rows.append(f"{2.0 ** -n!r},{1e-14!r},0.0,0.0,10.0,0.05,,")
    csv.write_text("\n".join(rows) + "\n")
    rc = main(["rates", str(csv)])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "inconclusive"


def test_rates_out_writes_report(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    rows = ["h,e_plus,e_minus,oracle_uncertainty,noise_floor,slope_tolerance,bound_value,pass"]
    for n in range(3, 9):
        h = 2.0**-n
        rows.append(f"{h!r},{2.0 * h!r},0.0,0.0,10.0,0.05,,")
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "report"
    rc = main(["rates", str(csv), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    on_disk = json.loads((out / "rate_report.json").read_text())
    assert on_disk["fit"]["gamma_hat"] == pytest.approx(1.0, abs=1e-9)


def test_bounds_evaluates_the_growth_certificate_once(monkeypatch, capsys):
    # load_config checks the bounds and keeps them for the command
    real, calls = config_module.growth_certificate, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(config_module, "growth_certificate", counted)
    assert main(["bounds", str(EXAMPLES / "clt_sublinear.cfg")]) == 0
    assert len(calls) == 1


def test_a_bound_failure_left_to_the_command_exits_3(linear_config, monkeypatch, capsys):
    # bounds that fail at radius 1 too are not the payoff's fault: the
    # load-time check lets them through and the command reports them
    def failing(*args, **kwargs):
        raise DomainError("addends must be finite and non-negative")

    monkeypatch.setattr(config_module, "nisio_bounds", failing)
    assert main(["bounds", str(linear_config)]) == 3
    assert capsys.readouterr().err == "error: addends must be finite and non-negative\n"


def test_importing_the_cli_loads_numpy_and_no_scipy():
    code = "import sys, chernoff.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(chernoff.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
