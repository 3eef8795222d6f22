"""Run configuration: parsing, validation, and round-trip serialization.

Two input syntaxes share one key set: plain ``key=value`` lines (blank
lines and ``#`` comments allowed) or a single JSON object. Sweep axes are
``sweep.<param>=v1,v2,...`` lines, or a nested ``"sweep"`` object in JSON.
Unknown keys, duplicates, bad numbers, and out-of-range values all raise
ConfigError; line/column positions are reported where the syntax has them.
A sweep axis value obeys the bounds of its key, so ``sweep.gamma=-1,0.1``
is refused with the same message as ``gamma=-1``, before any run.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .analysis import validate_sweep_axes
from .epidemic import EpidemicParams
from .errors import ConfigError
from .market import SupplyCurve
from .numerics import Grid

_FLOAT_KEYS = ("beta", "gamma", "n1", "n2", "n3", "endowment",
               "p0", "kappa", "t_end", "dt")
_STR_KEYS = ("scenario", "out_dir", "format")
_SCENARIOS = ("myopic", "rational", "depression", "all")
_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class ScenarioConfig:
    beta: float = EpidemicParams.beta
    gamma: float = EpidemicParams.gamma
    n1: float = EpidemicParams.n1
    n2: float = EpidemicParams.n2
    n3: float = EpidemicParams.n3
    endowment: float = EpidemicParams.endowment
    p0: float = SupplyCurve.p0
    kappa: float = SupplyCurve.kappa
    t_end: float = 300.0
    dt: float = 1e-2
    scenario: str = "myopic"
    out_dir: str = "out"
    format: str = "csv"
    sweep: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ConfigError(
                f"scenario must be one of {', '.join(_SCENARIOS)}, "
                f"got {self.scenario!r}"
            )
        if self.format not in _FORMATS:
            raise ConfigError(
                f"format must be one of {', '.join(_FORMATS)}, got {self.format!r}"
            )
        # serialize_config writes it raw on a line that parsing strips
        if self.out_dir != self.out_dir.strip() or len(self.out_dir.splitlines()) > 1:
            raise ConfigError(
                f"out_dir must be one line without leading or trailing "
                f"whitespace, got {self.out_dir!r}"
            )
        # constructing the domain objects enforces every numeric invariant,
        # and each sweep axis value is held to its own key's
        validate_sweep_axes(self.sweep, self.epidemic_params(), self.supply_curve())
        self.grid()

    def epidemic_params(self) -> EpidemicParams:
        return EpidemicParams(beta=self.beta, gamma=self.gamma,
                              n1=self.n1, n2=self.n2, n3=self.n3,
                              endowment=self.endowment)

    def supply_curve(self) -> SupplyCurve:
        return SupplyCurve(p0=self.p0, kappa=self.kappa)

    def grid(self) -> Grid:
        return Grid(t_start=0.0, t_end=self.t_end, dt=self.dt)

    def sweep_axes(self) -> dict[str, list[float]]:
        return {k: list(v) for k, v in self.sweep.items()}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_config(text: str) -> ScenarioConfig:
    """Build a validated config from key=value lines or a JSON object.

    Empty input yields the defaults.
    """
    if text.lstrip().startswith("{"):
        data = _from_json(text)
    else:
        data = _from_lines(text)
    try:
        return ScenarioConfig(**data)
    except TypeError as exc:  # unexpected kwarg slipping through
        raise ConfigError(str(exc)) from exc


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
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"line {exc.lineno}, column {exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise ConfigError("config JSON must be a single object")
    data: dict = {}
    sweep: dict[str, list[float]] = {}
    for key, value in obj.items():
        if key == "sweep":
            if not isinstance(value, dict):
                raise ConfigError('"sweep" must be an object of param -> list')
            for param, vals in value.items():
                _add_axis(sweep, param, _number_list(param, vals))
        elif key.startswith("sweep."):
            _add_axis(sweep, key[len("sweep."):], _number_list(key, value))
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
    if sweep:
        data["sweep"] = sweep
    return data


def _add_axis(sweep: dict[str, list[float]], param: str, vals: list[float]) -> None:
    if param in sweep:
        raise ConfigError(
            f'sweep axis {param!r} is given both in "sweep" and as "sweep.{param}"'
        )
    sweep[param] = vals


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
    data: dict = {}
    sweep: dict[str, list[float]] = {}
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
    if sweep:
        data["sweep"] = sweep
    return data


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical key=value form; parse_config round-trips it exactly."""
    lines = [f"{key}={getattr(config, key)!r}" for key in _FLOAT_KEYS]
    lines += [f"{key}={getattr(config, key)}" for key in _STR_KEYS]
    for param in sorted(config.sweep):
        joined = ",".join(repr(v) for v in config.sweep[param])
        lines.append(f"sweep.{param}={joined}")
    return "\n".join(lines) + "\n"


def with_overrides(config: ScenarioConfig, **changes) -> ScenarioConfig:
    """Apply non-None overrides and re-validate the result."""
    effective = {k: v for k, v in changes.items() if v is not None}
    return replace(config, **effective)
