"""Run configuration: parsing, validation, and round-trip serialization.

A config holds the run's EpidemicParams, SupplyCurve and Grid (from t=0).
The numeric keys are their fields, and each key sets the object whose
field it is (`analysis.assign`), whose own checks then hold it.
Two input syntaxes share one key set: plain ``key=value`` lines (blank
lines and ``#`` comments allowed) or a single JSON object. A sweep axis is
the key ``sweep.<param>``: ``sweep.kappa=5,10`` or ``"sweep.kappa": [5, 10]``.
Unknown keys, duplicates, bad numbers, and out-of-range values all raise
ConfigError; line/column positions are reported where the syntax has them.
A sweep axis value obeys the bounds of its key, so ``sweep.gamma=-1,0.1``
is refused with the same message as ``gamma=-1``, before any run.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from .analysis import assign, validate_sweep_axes
from .epidemic import EpidemicParams
from .errors import ConfigError
from .market import SupplyCurve
from .numerics import Grid

# the numeric keys are the fields of the run's three model objects, in
# their order; a run's grid starts at t=0, so t_start is not a key
_FLOAT_KEYS = tuple(f.name for part in (EpidemicParams, SupplyCurve, Grid)
                    for f in fields(part) if f.name != "t_start")
_STR_KEYS = ("scenario", "out_dir", "format")
SCENARIOS = ("myopic", "rational", "depression", "all")
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class ScenarioConfig:
    params: EpidemicParams = EpidemicParams()
    curve: SupplyCurve = SupplyCurve()
    grid: Grid = Grid(0.0, 300.0, 1e-2)
    scenario: str = "myopic"
    out_dir: str = "out"
    format: str = "csv"
    sweep: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        for name, choices in (("scenario", SCENARIOS), ("format", FORMATS)):
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(
                    f"{name} must be one of {', '.join(choices)}, got {value!r}")
        # serialize_config writes it raw on a line that parsing strips
        if self.out_dir != self.out_dir.strip() or len(self.out_dir.splitlines()) > 1:
            raise ConfigError(
                f"out_dir must be one line without leading or trailing "
                f"whitespace, got {self.out_dir!r}"
            )
        # no key sets t_start, so serialize_config writes none
        if self.grid.t_start != 0.0:
            raise ConfigError(f"a run's grid starts at t=0, got t_start={self.grid.t_start}")
        # each sweep axis value is held to its own key's invariants
        validate_sweep_axes(self.sweep, self.params, self.curve)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_config(text: str) -> ScenarioConfig:
    """Build a validated config from key=value lines or a JSON object.

    Text that opens a JSON object or array is JSON, so an array is refused
    as one; empty input yields the defaults.
    """
    if text.lstrip().startswith(("{", "[")):
        data = _from_json(text)
    else:
        data = _from_lines(text)
    return with_overrides(ScenarioConfig(), **data)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _from_json(text: str) -> dict:
    try:
        # every JSON number reads as a float: a huge integer becomes inf,
        # refused as any inf is, instead of escaping from int() or float()
        obj = json.loads(text, object_pairs_hook=_unique_keys, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"line {exc.lineno}, column {exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ConfigError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ConfigError("config JSON must be a single object")
    sweep: dict[str, list[float]] = {}
    data: dict = {"sweep": sweep}
    for key, value in obj.items():
        if key.startswith("sweep."):
            sweep[key[len("sweep."):]] = _number_list(key, value)
        elif key in _FLOAT_KEYS:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"key {key!r}: expected a number, got {value!r}")
            data[key] = float(value)
        elif key in _STR_KEYS:
            if not isinstance(value, str):
                raise ConfigError(f"key {key!r}: expected a string, got {value!r}")
            data[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return data


def _number_list(key: str, value) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"sweep axis {key!r}: expected a non-empty list")
    out = []
    for v in value:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"sweep axis {key!r}: expected numbers, got {v!r}")
        out.append(float(v))
    return out


def _from_lines(text: str) -> dict:
    sweep: dict[str, list[float]] = {}
    data: dict = {"sweep": sweep}
    seen: set[str] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {ln}, column {len(raw) + 1}: expected key=value"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        vcol = raw.find("=") + 2
        if key in seen:
            raise ConfigError(f"line {ln}, column 1: duplicate key {key!r}")
        seen.add(key)
        if key.startswith("sweep."):
            param = key[len("sweep."):]
            vals = []
            for part in value.split(","):
                part = part.strip()
                try:
                    vals.append(float(part))
                except ValueError:
                    raise ConfigError(
                        f"line {ln}, column {vcol}: sweep axis {param!r} "
                        f"expects comma-separated numbers, got {part!r}"
                    ) from None
            sweep[param] = vals
        elif key in _FLOAT_KEYS:
            try:
                data[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {ln}, column {vcol}: expected a number for "
                    f"{key!r}, got {value!r}"
                ) from None
        elif key in _STR_KEYS:
            data[key] = value
        else:
            raise ConfigError(f"line {ln}, column 1: unknown config key {key!r}")
    return data


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical key=value form; parse_config round-trips it exactly."""
    lines = [f"{f.name}={getattr(part, f.name)!r}"
             for part in (config.params, config.curve, config.grid)
             for f in fields(part) if f.name in _FLOAT_KEYS]
    lines += [f"{key}={getattr(config, key)}" for key in _STR_KEYS]
    for param in sorted(config.sweep):
        joined = ",".join(repr(v) for v in config.sweep[param])
        lines.append(f"sweep.{param}={joined}")
    return "\n".join(lines) + "\n"


def with_overrides(config: ScenarioConfig, **changes) -> ScenarioConfig:
    """Apply non-None overrides and re-validate the result. A numeric key
    replaces the field of the model object it belongs to (`assign`), which
    validates it; any other key is the config's own field."""
    effective = {k: v for k, v in changes.items() if v is not None}
    params, curve, grid = assign((config.params, config.curve, config.grid), effective)
    own = {k: v for k, v in effective.items() if k not in _FLOAT_KEYS}
    return replace(config, params=params, curve=curve, grid=grid, **own)
