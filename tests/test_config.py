import json

import pytest

from chernoff.config import ConfigError, Experiment, load_config, parse_h_list
from chernoff.core import DomainError
from chernoff.reference import FineOracle

NISIO_CFG = """\
[grid]
low = -12
high = 12
points = 513

[operator]
type = nisio
controls = 0.5 0, 1 0

[payoff]
kind = capped_abs

[experiment]
t = 1
h = 2^-3..2^-5
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_h_list():
    assert parse_h_list("2^-3..2^-9") == tuple(2.0**-n for n in range(3, 10))
    assert parse_h_list("0.5, 0.25, 0.125") == (0.5, 0.25, 0.125)
    assert parse_h_list("2^-4") == (0.0625,)
    with pytest.raises(DomainError):
        parse_h_list("2^-9..2^-3")
    with pytest.raises(DomainError):
        parse_h_list("0.25, 0.5")
    with pytest.raises(DomainError):
        parse_h_list("")
    for text in ("inf", "0.5, nan", "0.5, -inf"):
        with pytest.raises(DomainError, match="finite"):
            parse_h_list(text)


def test_minimal_nisio_config(tmp_path):
    exp = load_config(write(tmp_path, NISIO_CFG))
    assert isinstance(exp, Experiment)
    assert exp.grid.counts == (513,)
    assert exp.model_kind == "nisio"
    assert exp.h_list == (0.125, 0.0625, 0.03125)
    assert exp.seed == 0 and exp.h_fine == 2.0**-13
    assert exp.radius == pytest.approx(1.0)
    assert exp.raw_text == NISIO_CFG
    (report,) = exp.bounds
    assert report.side == "plus" and report.gamma == 0.25


def test_config_collects_every_problem(tmp_path):
    bad = NISIO_CFG.replace("points = 513", "points = nope").replace(
        "t = 1", "t = -3"
    ) + "\n[payoff]\n"  # duplicate section is a parse error on its own
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, bad))
    bad2 = NISIO_CFG.replace("points = 513", "points = nope").replace("t = 1", "t = -3")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, bad2))
    text = str(err.value)
    assert "[grid] points" in text and "[experiment] t" in text
    assert len(err.value.problems) == 2


def test_unknown_keys_and_sections_are_flagged(tmp_path):
    bad = NISIO_CFG + "\n[plotting]\ncolor = red\n"
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write(tmp_path, bad))
    bad2 = NISIO_CFG.replace("kind = capped_abs", "kind = capped_abs\nstyle = fancy")
    with pytest.raises(ConfigError, match=r"\[payoff\] style: unknown key"):
        load_config(write(tmp_path, bad2))


def test_missing_file_and_missing_sections(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "[grid]\nlow = -1\nhigh = 1\npoints = 9\n"))
    assert any("missing section" in p for p in err.value.problems)


def test_h_fine_guard(tmp_path):
    bad = NISIO_CFG + "h_fine = 2^-6\n"
    with pytest.raises(ConfigError, match="8x finer"):
        load_config(write(tmp_path, bad))


def test_scenario_operator_config(tmp_path):
    scenarios = [
        {"type": "point", "mean": -1.0},
        {"type": "point", "mean": 1.0, "penalty": 1.0},
    ]
    (tmp_path / "pair.json").write_text(json.dumps(scenarios))
    cfg = """\
[grid]
low = -12
high = 12
points = 257

[operator]
type = lln
scenarios = pair.json

[payoff]
kind = capped_abs

[experiment]
t = 1
h = 2^-3, 2^-4
"""
    exp = load_config(write(tmp_path, cfg))
    assert exp.model_kind == "lln"
    assert len(exp.model.scenarios) == 2
    minus, plus = exp.bounds
    assert (minus.side, plus.side) == ("minus", "plus")
    assert minus.gamma == 0.5
    missing = cfg.replace("pair.json", "ghost.json")
    with pytest.raises(ConfigError, match="scenarios"):
        load_config(write(tmp_path, missing, "m.cfg"))


def test_clt_symmetric_bounds(tmp_path):
    scenarios = [
        {"type": "gaussian", "mean": 0.0, "sigma": 0.5},
        {"type": "gaussian", "mean": 0.0, "sigma": 1.0},
    ]
    (tmp_path / "pair.json").write_text(json.dumps(scenarios))
    cfg = """\
[grid]
low = -12
high = 12
points = 257

[operator]
type = clt
scenarios = pair.json

[payoff]
kind = capped_abs

[experiment]
t = 1
h = 2^-3, 2^-4

[rate]
symmetric = true
"""
    exp = load_config(write(tmp_path, cfg))
    reports = exp.bounds
    assert [b.gamma for b in reports] == pytest.approx([1 / 6, 1 / 6, 0.25, 0.25])
    plain = cfg.replace("type = clt", "type = lln")
    with pytest.raises(ConfigError, match="symmetric"):
        load_config(write(tmp_path, plain, "p.cfg"))


@pytest.mark.parametrize("op_type", ["lln", "clt"])
def test_smooth_rejected_outside_nisio(tmp_path, op_type):
    (tmp_path / "pair.json").write_text(
        json.dumps([{"type": "gaussian", "mean": 0.0, "sigma": 1.0}])
    )
    cfg = NISIO_CFG.replace(
        "type = nisio\ncontrols = 0.5 0, 1 0",
        f"type = {op_type}\nscenarios = pair.json\nsmooth = false",
    )
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, cfg))
    assert err.value.problems == ("[operator] smooth: only meaningful for nisio operators",)
    smooth_nisio = NISIO_CFG.replace(
        "controls = 0.5 0, 1 0", "controls = 0.5 0, 1 0\nsmooth = false"
    )
    (report,) = load_config(write(tmp_path, smooth_nisio, "n.cfg")).bounds
    assert report.gamma == pytest.approx(1 / 6)


def test_exact_reference(tmp_path):
    cfg = NISIO_CFG.replace("controls = 0.5 0, 1 0", "controls = 1 0")
    cfg = cfg.replace("[experiment]\nt = 1", "[experiment]\nreference = exact\nsigma = 1\nt = 1")
    exp = load_config(write(tmp_path, cfg))
    ref = exp.reference()
    assert ref.uncertainty == 0.0 and ref.h_fine is None and ref.levels == ()
    oracle = NISIO_CFG.replace("[experiment]\nt = 1", "[experiment]\nh_fine = 0.0009765625\nt = 1")
    ref = load_config(write(tmp_path, oracle, "oracle.cfg")).reference()
    assert ref == FineOracle(2.0**-10) and ref.levels == (2.0**-10, 2.0**-9)


def test_payoff_radius_scaling(tmp_path):
    cfg = NISIO_CFG.replace("kind = capped_abs", "kind = abs\nscale = 0.5")
    exp = load_config(write(tmp_path, cfg))
    # sup norm dominates the slope for the cone on [-12, 12]
    assert exp.radius == pytest.approx(6.0)
    cfg2 = NISIO_CFG.replace("kind = capped_abs", "kind = cos")
    assert load_config(write(tmp_path, cfg2, "c.cfg")).radius == pytest.approx(1.0)
