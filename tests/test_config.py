"""Run configuration: parsing, validation, serialization round trips."""
from __future__ import annotations

import math
from dataclasses import fields

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
from epimarket.numerics import Grid


# ---------------------------------------------------------------------------
# construction and accessors
# ---------------------------------------------------------------------------


def test_defaults_are_the_reference_point():
    cfg = ScenarioConfig()
    assert cfg.params.beta == 5e-4
    assert cfg.params.gamma == 0.1
    assert cfg.scenario == "myopic"
    assert cfg.format == "csv"
    p = cfg.params
    assert (p.beta, p.gamma, p.n1, p.n2, p.n3) == (5e-4, 0.1, 999.0, 1.0, 0.0)
    c = cfg.curve
    assert (c.p0, c.kappa) == (1.0, 10.0)
    g = cfg.grid
    assert (g.t_start, g.t_end, g.dt) == (0.0, 300.0, 1e-2)
    assert cfg.params == EpidemicParams()
    assert cfg.curve == SupplyCurve()


def test_default_config_serializes_to_the_reference_text():
    # the config echo of every default run's report.json
    assert serialize_config(ScenarioConfig()) == (
        "beta=0.0005\ngamma=0.1\nn1=999.0\nn2=1.0\nn3=0.0\nendowment=1.0\n"
        "p0=1.0\nkappa=10.0\nt_end=300.0\ndt=0.01\n"
        "scenario=myopic\nout_dir=out\nformat=csv\n"
    )


def test_model_objects_share_no_field_name():
    # a key sets the one object whose field it is (analysis.assign)
    names = [f.name for part in (EpidemicParams, SupplyCurve, Grid) for f in fields(part)]
    assert len(names) == len(set(names))


def test_validation_happens_at_construction():
    with pytest.raises(ConfigError):
        with_overrides(ScenarioConfig(), gamma=-0.1)
    with pytest.raises(ConfigError):
        with_overrides(ScenarioConfig(), dt=0.0)
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


# every signed field of the model values, with the sign errors.require_signs
# holds it to
_SIGNS = [(EpidemicParams, "beta", ">="), (EpidemicParams, "gamma", ">"),
          (EpidemicParams, "n1", ">"), (EpidemicParams, "n2", ">="),
          (EpidemicParams, "n3", ">="), (EpidemicParams, "endowment", ">"),
          (SupplyCurve, "p0", ">"), (SupplyCurve, "kappa", ">")]


@pytest.mark.parametrize("cls, name, sign", _SIGNS, ids=[name for _, name, _ in _SIGNS])
@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_a_signed_field_is_refused_for_its_sign_then_as_not_finite(cls, name, sign, value):
    if sign == ">=" and value == 0.0:
        assert getattr(cls(**{name: value}), name) == 0.0  # -0.0 too
        return
    says = (f"{name} must be finite, got inf" if value == math.inf
            else f"{name} must be {sign} 0, got {value}")
    with pytest.raises(ConfigError) as info:
        cls(**{name: value})
    assert str(info.value) == says


@pytest.mark.parametrize("cls, bad, says", [
    (EpidemicParams, dict(beta=math.inf, endowment=-1.0), "endowment must be > 0, got -1.0"),
    (SupplyCurve, dict(p0=math.inf, kappa=0.0), "kappa must be > 0, got 0.0"),
], ids=["EpidemicParams", "SupplyCurve"])
def test_every_sign_is_judged_before_any_finiteness(cls, bad, says):
    # the first field is infinite with the right sign, the second has the
    # wrong sign: the second is named
    with pytest.raises(ConfigError) as info:
        cls(**bad)
    assert str(info.value) == says


def test_a_grid_that_does_not_start_at_zero_is_refused():
    # no key carries t_start, so such a config could not round-trip
    with pytest.raises(ConfigError, match="a run's grid starts at t=0, got t_start=1.0"):
        ScenarioConfig(grid=Grid(1.0, 300.0, 1e-2))


@pytest.mark.parametrize("text", [
    "gamma=-1\nscenario=bogus\n",
    '{"scenario": "bogus", "gamma": -1}',
], ids=["key=value", "json"])
def test_a_model_key_is_judged_before_the_config_fields(text):
    # two bad keys: the model objects' own checks run first, then the
    # config's scenario, format, out_dir and sweep axes
    with pytest.raises(ConfigError, match=r"^gamma must be > 0, got -1\.0$"):
        parse_config(text)


# ---------------------------------------------------------------------------
# key=value parsing
# ---------------------------------------------------------------------------


def test_empty_text_parses_to_defaults():
    assert parse_config("") == ScenarioConfig()
    assert parse_config("\n# just a comment\n\n") == ScenarioConfig()


def test_key_value_overrides():
    cfg = parse_config("beta = 1e-3\nscenario = rational\ndt = 0.02\n")
    assert cfg.params.beta == 1e-3
    assert cfg.scenario == "rational"
    assert cfg.grid.dt == 0.02


def test_sweep_lines_parse_to_axes():
    cfg = parse_config("sweep.kappa = 5, 10, 20\nsweep.beta = 2.5e-4, 5e-4\n")
    assert cfg.sweep == {
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
    cfg = parse_config('{"beta": 1e-3, "scenario": "all", "sweep.kappa": [5, 10]}')
    assert cfg.params.beta == 1e-3
    assert cfg.scenario == "all"
    assert cfg.sweep == {"kappa": [5.0, 10.0]}


def test_json_flat_sweep_keys():
    cfg = parse_config('{"sweep.kappa": [5, 10]}')
    assert cfg.sweep == {"kappa": [5.0, 10.0]}


def test_json_rejects_bad_input():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config('{"beta": }')
    with pytest.raises(ConfigError):
        parse_config('{"beta": true}')  # booleans are not numbers here
    with pytest.raises(ConfigError):
        parse_config('{"unknown_key": 1}')
    with pytest.raises(ConfigError):
        parse_config('{"sweep.kappa": []}')
    with pytest.raises(ConfigError):
        parse_config('{"scenario": 3}')
    # a key given twice is refused, as in the key=value form, a sweep axis
    # included
    with pytest.raises(ConfigError, match="duplicate key 'beta'"):
        parse_config('{"beta": 1e-3, "beta": 5e-4, "t_end": 50, "scenario": "myopic"}')
    with pytest.raises(ConfigError, match="duplicate key 'sweep.kappa'"):
        parse_config('{"sweep.kappa": [5], "sweep.kappa": [20]}')


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "config JSON must be a single object"),
    ('{"sweep.kappa": 1}', "sweep axis 'sweep.kappa': expected a non-empty list"),
    ('{"sweep.beta": [1e-4, true]}', "sweep axis 'sweep.beta': expected numbers, got True"),
    ('{"sweep.beta": [1e-4, "x"]}', "sweep axis 'sweep.beta': expected numbers, got 'x'"),
    ('{"sweep": {"kappa": [5]}}', "unknown config key 'sweep'"),
], ids=["array", "axis-not-a-list", "flat-axis-bool", "flat-axis-string", "nested-sweep-object"])
def test_json_refusals_name_their_rule(text, message):
    # an array used to be read as key=value lines: "line 1, column 7:
    # expected key=value"; a sweep axis is its sweep.<param> key in either
    # syntax, so a nested "sweep" object is an unknown key, as sweep=... is
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_json_nested_too_deeply_is_a_config_error():
    # the decoder used to escape as a RecursionError traceback
    depth = 200_000
    with pytest.raises(ConfigError, match="nested too deeply"):
        parse_config('{"beta": ' + "[" * depth + "]" * depth + "}")


@pytest.mark.parametrize("text, message", [
    ('{"beta": 1' + "0" * 5000 + "}", "beta must be finite, got inf"),
    ('{"beta": 1' + "0" * 400 + "}", "beta must be finite, got inf"),
    ('{"sweep.kappa": [1' + "0" * 400 + "]}", "kappa must be finite, got inf"),
], ids=["5000-digits", "401-digits", "sweep-axis"])
def test_json_integer_beyond_float_range_is_inf(text, message):
    # int() used to escape as ValueError past 4300 digits, float() as
    # OverflowError past the float range
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


# ---------------------------------------------------------------------------
# serialization and overrides
# ---------------------------------------------------------------------------


def test_serialize_parse_round_trip():
    cfg = with_overrides(
        ScenarioConfig(), beta=2.5e-4, kappa=20.0, scenario="rational", t_end=150.0,
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
    cfg = with_overrides(ScenarioConfig(), beta=1.0000000000000002e-3)
    again = parse_config(serialize_config(cfg))
    assert again.params.beta == cfg.params.beta


def test_with_overrides_applies_only_given_fields():
    cfg = ScenarioConfig()
    out = with_overrides(cfg, scenario="rational", dt=None, t_end=100.0)
    assert out.scenario == "rational"
    assert out.grid.dt == cfg.grid.dt
    assert out.grid.t_end == 100.0
    with pytest.raises(ConfigError):
        with_overrides(cfg, dt=-1.0)
