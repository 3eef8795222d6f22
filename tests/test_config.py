"""Run configuration: parsing, validation, serialization round trips."""
from __future__ import annotations

import math

import pytest

from epimarket.config import (
    ScenarioConfig,
    parse_config,
    serialize_config,
    with_overrides,
)
from epimarket.epidemic import EpidemicParams
from epimarket.errors import ConfigError
from epimarket.market import SupplyCurve


# ---------------------------------------------------------------------------
# construction and accessors
# ---------------------------------------------------------------------------


def test_defaults_are_the_reference_point():
    cfg = ScenarioConfig()
    assert cfg.beta == 5e-4
    assert cfg.gamma == 0.1
    assert cfg.scenario == "myopic"
    assert cfg.format == "csv"
    p = cfg.epidemic_params()
    assert (p.beta, p.gamma, p.n1, p.n2, p.n3) == (5e-4, 0.1, 999.0, 1.0, 0.0)
    c = cfg.supply_curve()
    assert (c.p0, c.kappa) == (1.0, 10.0)
    g = cfg.grid()
    assert (g.t_start, g.t_end, g.dt) == (0.0, 300.0, 1e-2)
    assert cfg.epidemic_params() == EpidemicParams()
    assert cfg.supply_curve() == SupplyCurve()


def test_validation_happens_at_construction():
    with pytest.raises(ConfigError):
        ScenarioConfig(gamma=-0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(dt=0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="bogus")
    with pytest.raises(ConfigError):
        ScenarioConfig(format="xml")
    with pytest.raises(ConfigError):
        ScenarioConfig(sweep={"t_end": [1.0, 2.0]})
    # an axis value is held to its key's own bounds
    with pytest.raises(ConfigError, match="gamma must be > 0, got -1.0"):
        ScenarioConfig(sweep={"gamma": [-1.0]})
    with pytest.raises(ConfigError, match="kappa must be finite, got inf"):
        ScenarioConfig(sweep={"kappa": [math.inf]})
    with pytest.raises(ConfigError, match="n1 must be > 0, got 0.0"):
        ScenarioConfig(sweep={"n1": [0.0]})


def test_sweep_axes_returns_a_copy():
    cfg = ScenarioConfig(sweep={"kappa": [5.0, 10.0]})
    axes = cfg.sweep_axes()
    axes["kappa"].append(99.0)
    assert cfg.sweep_axes() == {"kappa": [5.0, 10.0]}


# ---------------------------------------------------------------------------
# key=value parsing
# ---------------------------------------------------------------------------


def test_empty_text_parses_to_defaults():
    assert parse_config("") == ScenarioConfig()
    assert parse_config("\n# just a comment\n\n") == ScenarioConfig()


def test_key_value_overrides():
    cfg = parse_config("beta = 1e-3\nscenario = rational\ndt = 0.02\n")
    assert cfg.beta == 1e-3
    assert cfg.scenario == "rational"
    assert cfg.dt == 0.02


def test_sweep_lines_parse_to_axes():
    cfg = parse_config("sweep.kappa = 5, 10, 20\nsweep.beta = 2.5e-4, 5e-4\n")
    assert cfg.sweep_axes() == {
        "kappa": [5.0, 10.0, 20.0],
        "beta": [2.5e-4, 5e-4],
    }


def test_parse_errors_carry_positions():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("beta = 1e-3\nnot a setting\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("beta = oops\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("beta = 1e-3\ngamma = 0.1\nbeta = 2e-3\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("mystery = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("sweep.kappa = 5, x\n")


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------


def test_json_object_form():
    cfg = parse_config('{"beta": 1e-3, "scenario": "all", "sweep": {"kappa": [5, 10]}}')
    assert cfg.beta == 1e-3
    assert cfg.scenario == "all"
    assert cfg.sweep_axes() == {"kappa": [5.0, 10.0]}


def test_json_flat_sweep_keys():
    cfg = parse_config('{"sweep.kappa": [5, 10]}')
    assert cfg.sweep_axes() == {"kappa": [5.0, 10.0]}


def test_json_rejects_bad_input():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config('{"beta": }')
    with pytest.raises(ConfigError):
        parse_config('{"beta": true}')  # booleans are not numbers here
    with pytest.raises(ConfigError):
        parse_config('{"unknown_key": 1}')
    with pytest.raises(ConfigError):
        parse_config('{"sweep": {"kappa": []}}')
    with pytest.raises(ConfigError):
        parse_config('{"scenario": 3}')
    # a key given twice is refused, as in the key=value form, also inside
    # "sweep", and so is an axis given both in "sweep" and as "sweep.<name>"
    with pytest.raises(ConfigError, match="duplicate key 'beta'"):
        parse_config('{"beta": 1e-3, "beta": 5e-4, "t_end": 50, "scenario": "myopic"}')
    with pytest.raises(ConfigError, match="duplicate key 'kappa'"):
        parse_config('{"sweep": {"kappa": [5], "kappa": [20]}}')
    with pytest.raises(ConfigError, match="sweep axis 'kappa' is given both"):
        parse_config('{"sweep": {"kappa": [5]}, "sweep.kappa": [20]}')


# ---------------------------------------------------------------------------
# serialization and overrides
# ---------------------------------------------------------------------------


def test_serialize_parse_round_trip():
    cfg = ScenarioConfig(
        beta=2.5e-4, kappa=20.0, scenario="rational", t_end=150.0,
        sweep={"kappa": [5.0, 10.0], "beta": [1e-3]},
    )
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("out_dir", [" x", "x ", "\tq", "a\nb", "\x85", "a\x85b",
                                     "a\rb", "a\u2028b"])
def test_out_dir_that_would_not_round_trip_is_rejected(out_dir):
    # parsing strips each line and splits the text with str.splitlines
    with pytest.raises(ConfigError, match="out_dir"):
        ScenarioConfig(out_dir=out_dir)


@pytest.mark.parametrize("out_dir", ["", "runs/a b", "#x", "a=b", "é"])
def test_out_dir_round_trips(out_dir):
    cfg = ScenarioConfig(out_dir=out_dir)
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialized_floats_survive_exactly():
    cfg = ScenarioConfig(beta=1.0000000000000002e-3)
    again = parse_config(serialize_config(cfg))
    assert again.beta == cfg.beta


def test_with_overrides_applies_only_given_fields():
    cfg = ScenarioConfig()
    out = with_overrides(cfg, scenario="rational", dt=None, t_end=100.0)
    assert out.scenario == "rational"
    assert out.dt == cfg.dt
    assert out.t_end == 100.0
    with pytest.raises(ConfigError):
        with_overrides(cfg, dt=-1.0)
