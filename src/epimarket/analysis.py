"""Event extraction and property verdicts on simulated trajectories.

Everything here is read-only over trajectories: refine discrete extrema,
assemble the event timeline (t1 < t_P* < t2 < t_I*), judge the headline
claims (long-run reversion, unimodal price, peak ordering, plateau
constancy, pre-plateau dominance, lower rational peak), and sweep those
verdicts over a parameter grid, rows in grid order. A sweep integrates
each epidemic's SIR pass once, then runs that group's points on every
usable CPU: one strided share per process, the shares after the first in
forked children that read the pass copy-on-write and pickle their rows
back. The rows do not depend on the number of processes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .epidemic import (
    EpidemicParams,
    EpidemicTrajectory,
    InfectionPeak,
    epidemic_pass,
    infection_peak,
)
from .errors import (
    BoundaryExtremumError,
    ConfigError,
    ConsistencyError,
    DomainError,
    GridTooCoarseError,
    SimulationError,
)
from .market import MarketTrajectory, SupplyCurve, clearing_price, simulate_myopic
from .numerics import Grid, parabolic_vertex
from .pool import forked, usable_cpus
from .rational import re_price_head

# verdict keys of the event chain t1 < t_P* < t2 < t_I*, in table order
ORDERING_KEYS = (
    "t1_lt_t_p_star_m",
    "t_p_star_m_lt_t2",
    "t2_lt_t_i_star",
    "t_p_star_m_lt_t_i_star",
)


# ---------------------------------------------------------------------------
# extremum refinement
# ---------------------------------------------------------------------------


def refine_peak(times, values, mode: str = "max") -> tuple[float, float]:
    """Parabolic refinement of the discrete extremum of a sampled series.

    Fits the vertex through the extremal node and its two neighbors; the
    returned time lies within one sample spacing of the discrete arg-ext.
    """
    if mode not in ("max", "min"):
        raise DomainError(f"mode must be 'max' or 'min', got {mode!r}")
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.ndim != 1 or ts.shape != vs.shape:
        raise DomainError("times and values must be 1-d arrays of equal length")
    if ts.size < 3:
        raise DomainError(f"need at least 3 samples, got {ts.size}")
    k = int(np.argmax(vs)) if mode == "max" else int(np.argmin(vs))
    if k == 0 or k == ts.size - 1:
        raise BoundaryExtremumError(
            f"discrete {mode} sits on the boundary (node {k}); "
            f"no interior extremum to refine"
        )
    tv, vv = parabolic_vertex(ts[k - 1], vs[k - 1], ts[k], vs[k],
                              ts[k + 1], vs[k + 1])
    return float(tv), float(vv)


# ---------------------------------------------------------------------------
# event timeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventTimeline:
    """Refined event times and strictness verdicts for one parameter point.

    ordering_ok maps each inequality of the chain t1 < t_P* < t2 < t_I*
    to True (strict at grid resolution), False (violated) or None
    (gap below one grid step: inconclusive). Plateau fields are None when
    the rational scenario was not run; all fields are None when there is
    no boom to time.
    """

    t_i_star: float | None
    t_p_star_m: float | None
    p_star_m: float | None
    t1: float | None
    t2: float | None
    p_star_re: float | None
    ordering_ok: dict[str, bool | None]
    boom: bool = True


def _strict(a: float, b: float, dt: float) -> bool | None:
    # verdict for a < b: inconclusive when the gap is below grid resolution
    gap = b - a
    if abs(gap) <= dt:
        return None
    return gap > 0.0


def build_timeline(
    myopic: MarketTrajectory,
    rational: MarketTrajectory | None,
    peak: InfectionPeak,
) -> EventTimeline:
    """Assemble refined event times and judge the ordering chain.

    With only the first trajectory the chain reduces to t_P* < t_I*.
    A depression-mode trajectory is timed on its trough instead of a peak.
    """
    if rational is not None:
        if rational.params != myopic.params or rational.grid != myopic.grid:
            raise ConsistencyError(
                "trajectories were produced under different params or grids"
            )
    if not peak.exists:
        return EventTimeline(None, None, None, None, None, None, {}, boom=False)

    dt = myopic.grid.dt
    mode = "min" if myopic.scenario == "depression" else "max"
    t_p, p_p = refine_peak(myopic.times, myopic.p, mode)
    verdicts: dict[str, bool | None] = {}
    t1 = t2 = p_star_re = None
    if rational is not None:
        t1, t2, p_star_re = rational.t1, rational.t2, rational.p_star
        verdicts["t1_lt_t_p_star_m"] = _strict(t1, t_p, dt)
        verdicts["t_p_star_m_lt_t2"] = _strict(t_p, t2, dt)
        verdicts["t2_lt_t_i_star"] = _strict(t2, peak.t_star, dt)
    verdicts["t_p_star_m_lt_t_i_star"] = _strict(t_p, peak.t_star, dt)
    return EventTimeline(
        t_i_star=peak.t_star, t_p_star_m=t_p, p_star_m=p_p,
        t1=t1, t2=t2, p_star_re=p_star_re,
        ordering_ok=verdicts, boom=True,
    )


# ---------------------------------------------------------------------------
# proposition checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    name: str
    status: str  # pass | fail | inconclusive
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class PropositionReport:
    scenario: str
    claims: dict[str, ClaimResult]

    @property
    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.claims.values())

    def counts(self) -> dict[str, int]:
        return claim_counts(self.claims.values())


def claim_counts(claims) -> dict[str, int]:
    """Number of claims with each status, keyed pass, fail, inconclusive."""
    out = {"pass": 0, "fail": 0, "inconclusive": 0}
    for c in claims:
        out[c.status] += 1
    return out


def _interior_extrema(p: np.ndarray, p0: float, mode: str) -> list[int]:
    # strict-left, weak-right turning points beyond a 1e-6 relative band
    if mode == "max":
        thr = p0 * (1.0 + 1e-6)
        hits = (p[1:-1] > p[:-2]) & (p[1:-1] >= p[2:]) & (p[1:-1] > thr)
    else:
        thr = p0 * (1.0 - 1e-6)
        hits = (p[1:-1] < p[:-2]) & (p[1:-1] <= p[2:]) & (p[1:-1] < thr)
    return [int(k) + 1 for k in np.flatnonzero(hits)]


def _claim(name, status, margin, detail=""):
    return ClaimResult(name=name, status=status, margin=float(margin), detail=detail)


def check_propositions(
    myopic: MarketTrajectory,
    rational: MarketTrajectory | None = None,
    timeline: EventTimeline | None = None,
) -> PropositionReport:
    """Pass/fail/inconclusive verdicts for the headline price claims.

    The first trajectory may be a boom or a depression run; depression
    claims are the mirror image (trough instead of peak). Plateau and
    comparison claims are judged only when a rational trajectory is given.
    Inputs are never mutated.
    """
    params, curve, grid = myopic.params, myopic.curve, myopic.grid
    if rational is not None and (rational.params != params or rational.grid != grid):
        raise ConsistencyError(
            "trajectories were produced under different params or grids"
        )
    if timeline is None:
        peak = infection_peak(params, myopic)
        timeline = build_timeline(myopic, rational, peak)

    p0 = curve.p0
    dt = grid.dt
    depression = myopic.scenario == "depression"
    mode = "min" if depression else "max"
    claims: dict[str, ClaimResult] = {}

    # long-run reversion: P(t_end) back within 1% of the pre-contagion level
    dev = abs(float(myopic.p[-1]) - p0) / p0
    claims["long_run_price_returns"] = _claim(
        "long_run_price_returns",
        "pass" if dev <= 0.01 else "fail",
        dev,
        f"|P(t_end)-p0|/p0 = {dev:.3e}",
    )

    # exactly one interior extremum beyond the 1e-6 band around p0
    extrema = _interior_extrema(myopic.p, p0, mode)
    word = "maxima" if mode == "max" else "minima"
    claims["price_unimodal"] = _claim(
        "price_unimodal",
        "pass" if len(extrema) == 1 else "fail",
        len(extrema),
        f"{len(extrema)} interior {word} beyond the band",
    )

    # price extremum leads the infection peak (trough in depression mode)
    v = timeline.ordering_ok.get("t_p_star_m_lt_t_i_star")
    gap = (timeline.t_i_star - timeline.t_p_star_m
           if timeline.boom else float("nan"))
    claims["price_peak_leads_infection_peak"] = _claim(
        "price_peak_leads_infection_peak",
        "pass" if v is True else ("inconclusive" if v is None else "fail"),
        gap,
        f"t_I* - t_P* = {gap:.6g} (dt={dt:g})",
    )

    if rational is not None:
        claims.update(_rational_claims(myopic, rational, timeline))
    return PropositionReport(scenario=myopic.scenario, claims=claims)


def _rational_claims(
    myopic: MarketTrajectory,
    rational: MarketTrajectory,
    timeline: EventTimeline,
) -> dict[str, ClaimResult]:
    claims: dict[str, ClaimResult] = {}
    grid = rational.grid
    dt = grid.dt
    p_star = rational.p_star
    lo = rational.plateau_start
    hi = rational.post_start if rational.post_start is not None else len(rational.p)

    # plateau constancy, judged on both the stored price and the price
    # implied by holdings, so a corrupted column cannot slip through
    if hi > lo:
        stored = np.max(np.abs(rational.p[lo:hi] - p_star))
        implied = max(
            abs(clearing_price(float(x), rational.curve) - p_star)
            for x in rational.x[lo:hi]
        )
        rel = max(stored, implied) / p_star
        claims["plateau_price_constant"] = _claim(
            "plateau_price_constant",
            "pass" if rel <= 1e-6 else "fail",
            rel,
            f"max relative plateau deviation {rel:.3e} over {hi - lo} nodes",
        )
    else:
        claims["plateau_price_constant"] = _claim(
            "plateau_price_constant", "inconclusive", float("nan"),
            "plateau contains no grid nodes",
        )

    # early-path dominance: rational price at or above myopic up to t1,
    # strictly so once a short startup transient (10 steps) has passed
    t1 = rational.t1
    times = rational.times
    in_window = (times > 0.0) & (times <= t1)
    strict_w = (times > 10.0 * dt) & (times <= t1)
    # a sweep's rational path may end at its closing node (re_price_head)
    diff = rational.p - myopic.p[:len(rational.p)]
    weak_ok = bool(np.all(diff[in_window] >= 0.0))
    strict_margin = float(np.min(diff[strict_w])) if np.any(strict_w) else float("nan")
    strict_ok = bool(np.all(diff[strict_w] > 0.0)) if np.any(strict_w) else False
    claims["re_price_dominates_pre_plateau"] = _claim(
        "re_price_dominates_pre_plateau",
        "pass" if (weak_ok and strict_ok) else "fail",
        strict_margin,
        f"min(P_re - P_m) on (10*dt, t1] = {strict_margin:.3e}",
    )

    # the pinned plateau price sits strictly below the myopic peak
    margin = timeline.p_star_m - p_star
    claims["re_peak_lower"] = _claim(
        "re_peak_lower",
        "pass" if margin > 0.0 else "fail",
        margin,
        f"P*_m - P*_re = {margin:.6g}",
    )

    # full event chain t1 < t_P* < t2 < t_I*, strict at grid resolution
    verdicts = [timeline.ordering_ok[k] for k in ORDERING_KEYS]
    if all(v is True for v in verdicts):
        status = "pass"
    elif any(v is False for v in verdicts):
        status = "fail"
    else:
        status = "inconclusive"
    gaps = (
        timeline.t_p_star_m - timeline.t1,
        timeline.t2 - timeline.t_p_star_m,
        timeline.t_i_star - timeline.t2,
    )
    claims["event_ordering_chain"] = _claim(
        "event_ordering_chain",
        status,
        min(gaps),
        "gaps "
        + ", ".join(f"{g:.4g}" for g in gaps)
        + f" (dt={dt:g})",
    )
    return claims


# ---------------------------------------------------------------------------
# parameter sweep
# ---------------------------------------------------------------------------

_SWEEPABLE = ("beta", "gamma", "n1", "kappa")


@dataclass(frozen=True)
class SweepResult:
    """Outcome at one grid point; a run's errors are carried in-row, never
    raised."""

    index: int
    overrides: dict[str, float]
    params: EpidemicParams
    curve: SupplyCurve
    timeline: EventTimeline | None
    claims: dict[str, ClaimResult] | None
    error: str | None = None
    refinements: int = 0
    dt_used: float = 0.0


def default_sweep_axes() -> dict[str, list[float]]:
    return {"beta": [2.5e-4, 5e-4, 1e-3], "kappa": [5.0, 10.0, 20.0]}


def validate_sweep_axes(axes: dict[str, list[float]], params: EpidemicParams,
                        curve: SupplyCurve) -> None:
    """ConfigError unless each axis is a sweepable parameter with values,
    each of which its key's own object accepts: `replace(params, gamma=v)`,
    or `replace(curve, kappa=v)` for kappa. A bad value is refused here,
    with the domain's message, as the same value given as a plain key is.
    """
    for name, values in axes.items():
        if name not in _SWEEPABLE:
            raise ConfigError(
                f"cannot sweep {name!r}; sweepable axes: {', '.join(_SWEEPABLE)}"
            )
        if not values:
            raise ConfigError(f"sweep axis {name!r} has no values")
        owner = curve if name == "kappa" else params
        for value in values:
            replace(owner, **{name: value})


def grid_points(axes: dict[str, list[float]]) -> list[dict[str, float]]:
    """Points of the Cartesian product of axes, in sweep-row (index) order."""
    names = list(axes)
    return [dict(zip(names, combo))
            for combo in itertools.product(*(axes[n] for n in names))]


def _point_result(params, curve, grid, index, overrides, scenarios,
                  epi: EpidemicTrajectory | None) -> SweepResult:
    """Row of one point; epi is the SIR pass of params on grid (None when
    the point has no boom). The rational leg is `re_price_head`."""
    if not params.booms:
        timeline = EventTimeline(None, None, None, None, None, None, {}, boom=False)
        return SweepResult(index, overrides, params, curve,
                           timeline, {}, dt_used=grid.dt)

    g = grid
    refinements = 0
    try:
        while True:
            myopic = simulate_myopic(curve, epi)
            peak = infection_peak(params, epi)
            rational = (re_price_head(curve, epi)
                        if "rational" in scenarios else None)
            timeline = build_timeline(myopic, rational, peak)
            undecided = any(v is None for v in timeline.ordering_ok.values())
            if not undecided or refinements >= 2:
                break
            # inconclusive gap below grid resolution: halve dt and retry
            g = Grid(g.t_start, g.t_end, g.dt / 2.0)
            epi = epidemic_pass(params, g)
            refinements += 1
        claims = check_propositions(myopic, rational, timeline).claims
    except (SimulationError, ConfigError) as exc:
        # ConfigError: the halved grid would pass numerics.MAX_STEPS
        return SweepResult(index, overrides, params, curve, None, None,
                           error=str(exc), refinements=refinements, dt_used=g.dt)
    return SweepResult(index, overrides, params, curve, timeline, claims,
                       refinements=refinements, dt_used=g.dt)


def _epidemic_rows(params, grid, items, scenarios) -> list[SweepResult]:
    """Rows of the points of one epidemic, so one SIR pass serves all.

    items are the (index, overrides, curve) triples of the points whose
    resolved parameters are params. The SIR pass runs here; the points
    then split into one strided share per usable CPU, each share after the
    first in a forked process (`pool.forked`) that reads the pass
    copy-on-write. One usable CPU or one point leaves one share, run here.
    A grid the pass refuses (GridTooCoarseError) is the error of every
    point's row; a point's own run failures are its row's (`_point_result`).
    """
    epidemic = None
    if params.booms:
        try:
            epidemic = epidemic_pass(params, grid)
        except GridTooCoarseError as exc:
            return [SweepResult(idx, ov, params, curve, None, None,
                                error=str(exc), dt_used=grid.dt)
                    for idx, ov, curve in items]

    def rows_of(share):
        return [_point_result(params, curve, grid, idx, ov, scenarios, epidemic)
                for idx, ov, curve in share]

    procs = min(len(items), usable_cpus())
    return [row for rows in forked(rows_of, [items[c::procs] for c in range(procs)])
            for row in rows]


def parameter_sweep(
    base_params: EpidemicParams,
    base_curve: SupplyCurve,
    grid: Grid,
    axes: dict[str, list[float]] | None = None,
    scenarios: tuple[str, ...] = ("myopic", "rational"),
) -> list[SweepResult]:
    """Verdicts over the Cartesian product of the given parameter axes.

    Every axis value is checked against its key's bounds first
    (`validate_sweep_axes`), so a bad one raises ConfigError before any
    pass runs. Points with the same resolved epidemic parameters form one
    group that integrates the SIR pass once; the groups run one after
    another, each group's points on every usable CPU (`_epidemic_rows`),
    and rows come back in grid order. What only a run can find (a grid
    the SIR pass refuses, a failed solve, a refinement past
    `numerics.MAX_STEPS`) lands in the row's error field.
    """
    if axes is None:
        axes = default_sweep_axes()
    validate_sweep_axes(axes, base_params, base_curve)
    for sc in scenarios:
        if sc not in ("myopic", "rational"):
            raise ConfigError(
                f"sweep supports scenarios 'myopic' and 'rational', got {sc!r}"
            )

    groups: dict[EpidemicParams, list[tuple[int, dict[str, float], SupplyCurve]]] = {}
    for idx, ov in enumerate(grid_points(axes)):
        params = replace(base_params, **{k: v for k, v in ov.items() if k != "kappa"})
        curve = replace(base_curve, **{k: v for k, v in ov.items() if k == "kappa"})
        groups.setdefault(params, []).append((idx, ov, curve))

    rows = [row for params, items in groups.items()
            for row in _epidemic_rows(params, grid, items, scenarios)]
    rows.sort(key=lambda r: r.index)
    return rows


def summarize_sweep(rows: list[SweepResult]) -> dict[str, int]:
    ok = [row for row in rows if row.error is None]
    tally = claim_counts(c for row in ok for c in (row.claims or {}).values())
    return {
        "points": len(rows),
        "booms": sum(row.timeline is not None and row.timeline.boom for row in ok),
        "errors": len(rows) - len(ok),
        **{f"claims_{status}": n for status, n in tally.items()},
    }
