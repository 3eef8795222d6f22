"""Event extraction and property verdicts on simulated trajectories.

Everything here is read-only over trajectories: refine discrete extrema,
assemble the event timeline (t1 < t_P* < t2 < t_I*) from the legs and the
SIR pass each holds (`MarketTrajectory.epi`), judge the headline
claims (long-run reversion, unimodal price, peak ordering, plateau
constancy, pre-plateau dominance, lower rational peak) of one scenario's
legs (`judge_run`, which the CLI and the verification battery share),
and sweep those verdicts over a parameter grid, rows in grid order. A
sweep integrates each epidemic's SIR pass once, then runs that group's
points on every usable CPU: one strided share per process, the shares
after the first in forked children that read the pass copy-on-write and
pickle their rows back. The rows do not depend on the number of processes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .epidemic import (
    EpidemicParams,
    EpidemicTrajectory,
    epidemic_pass,
    infection_peak,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DomainError,
    SimulationError,
)
from .market import MarketTrajectory, SupplyCurve, simulate_depression, simulate_myopic
from .numerics import Grid, refine_max
from .pool import forked, usable_cpus
from .rational import re_price_head, re_price_path

# each ordering verdict's key and the two EventTimeline times it orders,
# (earlier, later); the event chain t1 < t_P* < t2 < t_I* is the first three
ORDERING_LINKS = {
    "t1_lt_t_p_star_m": ("t1", "t_p_star_m"),
    "t_p_star_m_lt_t2": ("t_p_star_m", "t2"),
    "t2_lt_t_i_star": ("t2", "t_i_star"),
    "t_p_star_m_lt_t_i_star": ("t_p_star_m", "t_i_star"),
}
ORDERING_KEYS = tuple(ORDERING_LINKS)
EVENT_CHAIN = ORDERING_KEYS[:3]


# ---------------------------------------------------------------------------
# extremum refinement
# ---------------------------------------------------------------------------


def refine_peak(times, values, mode: str = "max") -> tuple[float, float]:
    """Parabolic refinement of the discrete extremum of a sampled series
    (`numerics.refine_max`; a minimum is the maximum of -values, negated
    back): the vertex through the extremal node and its two neighbors,
    within one sample spacing of the discrete arg-ext.
    """
    if mode not in ("max", "min"):
        raise DomainError(f"mode must be 'max' or 'min', got {mode!r}")
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.ndim != 1 or ts.shape != vs.shape:
        raise DomainError("times and values must be 1-d arrays of equal length")
    if ts.size < 3:
        raise DomainError(f"need at least 3 samples, got {ts.size}")
    if not (np.diff(ts) > 0.0).all():
        raise DomainError("times must be strictly increasing")
    if not np.isfinite(vs).all():
        raise DomainError("values must be finite")
    sign = 1.0 if mode == "max" else -1.0
    _k, tv, vv = refine_max(ts, sign * vs, f"discrete {mode} sits on the boundary (node {{k}}); "
                            "no interior extremum to refine")
    return tv, sign * vv


# ---------------------------------------------------------------------------
# event timeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventTimeline:
    """Refined event times and strictness verdicts for one parameter point.

    ordering_ok maps the key of each link of ORDERING_LINKS whose two
    times are set to True (strict at grid resolution), False (violated)
    or None (gap below one grid step: inconclusive). Plateau fields are
    None when the rational scenario was not run; all fields are None when
    there is no boom to time.
    """

    t_i_star: float | None
    t_p_star_m: float | None
    p_star_m: float | None
    t1: float | None
    t2: float | None
    p_star_re: float | None
    ordering_ok: dict[str, bool | None]

    @property
    def boom(self) -> bool:
        return self.t_i_star is not None

    def gap(self, key: str) -> float:
        """Later minus earlier time of the ordering link key."""
        earlier, later = ORDERING_LINKS[key]
        return getattr(self, later) - getattr(self, earlier)


# the timeline of every point whose contagion never grows
NO_BOOM = EventTimeline(None, None, None, None, None, None, {})


def _strict(a: float, b: float, dt: float) -> bool | None:
    # verdict for a < b: inconclusive when the gap is below grid resolution
    gap = b - a
    if abs(gap) <= dt:
        return None
    return gap > 0.0


def build_timeline(
    myopic: MarketTrajectory,
    rational: MarketTrajectory | None = None,
) -> EventTimeline:
    """Assemble refined event times and judge the ordering chain.

    The infection peak is the one of myopic's own SIR pass. With only
    the first trajectory the chain reduces to t_P* < t_I*. A
    depression-mode trajectory is timed on its trough instead of a peak.
    A rational leg is judged only beside the myopic leg of its own curve,
    params and grid; given alone or in any other pair, it raises
    ConsistencyError.
    """
    epi = myopic.epi
    if rational is None:
        paired = myopic.scenario != "rational"
    else:
        paired = ((myopic.scenario, rational.scenario) == ("myopic", "rational")
                  and (rational.curve, rational.epi.params, rational.epi.grid)
                  == (myopic.curve, epi.params, epi.grid))
    if not paired:
        raise ConsistencyError("a rational leg is judged only beside the myopic leg "
                               "of its own curve, params and grid")
    peak = infection_peak(epi.params, epi)
    if not peak.exists:
        return NO_BOOM

    dt = epi.grid.dt
    mode = "min" if myopic.scenario == "depression" else "max"
    t_p, p_p = refine_peak(epi.times, myopic.p, mode)
    t1 = t2 = p_star_re = None
    if rational is not None:
        plateau = rational.plateau
        t1, t2, p_star_re = plateau.t1, plateau.t2, plateau.p_star
    timeline = EventTimeline(
        t_i_star=peak.t_star, t_p_star_m=t_p, p_star_m=p_p,
        t1=t1, t2=t2, p_star_re=p_star_re, ordering_ok={},
    )
    for key, times in ORDERING_LINKS.items():
        earlier, later = (getattr(timeline, name) for name in times)
        if earlier is not None and later is not None:
            timeline.ordering_ok[key] = _strict(earlier, later, dt)
    return timeline


# ---------------------------------------------------------------------------
# proposition checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    status: str  # pass | fail | inconclusive
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class PropositionReport:
    claims: dict[str, ClaimResult]
    timeline: EventTimeline

    def counts(self) -> dict[str, int]:
        return claim_counts(self.claims.values())


def claim_counts(claims) -> dict[str, int]:
    """Number of claims with each status, keyed pass, fail, inconclusive."""
    out = {"pass": 0, "fail": 0, "inconclusive": 0}
    for c in claims:
        out[c.status] += 1
    return out


def _interior_extrema(p: np.ndarray, p0: float, mode: str) -> list[int]:
    # strict-left, weak-right turning points beyond a 1e-6 relative band;
    # a minimum of p is a maximum of -p, beyond the band negated
    sign = 1.0 if mode == "max" else -1.0
    q, thr = sign * p, sign * (p0 * (1.0 + sign * 1e-6))
    hits = (q[1:-1] > q[:-2]) & (q[1:-1] >= q[2:]) & (q[1:-1] > thr)
    return [int(k) + 1 for k in np.flatnonzero(hits)]


def _claim(status, margin, detail=""):
    return ClaimResult(status=status, margin=float(margin), detail=detail)


def _verdict_status(verdicts) -> str:
    """pass if every ordering verdict is True, fail if any is False, else
    inconclusive."""
    verdicts = set(verdicts)
    return ("pass" if verdicts <= {True} else
            "fail" if False in verdicts else "inconclusive")


def check_propositions(
    myopic: MarketTrajectory,
    rational: MarketTrajectory | None = None,
) -> PropositionReport:
    """Pass/fail/inconclusive verdicts for the headline price claims.

    The first trajectory may be a boom or a depression run; depression
    claims are the mirror image (trough instead of peak). Plateau and
    comparison claims are judged only when a rational trajectory is given
    beside its myopic leg (`build_timeline`).
    The verdicts read the run's own event timeline (`build_timeline`),
    which the report carries; a run with no boom has no claims, as its
    sweep row has none. Inputs are never mutated.
    """
    timeline = build_timeline(myopic, rational)
    if not timeline.boom:
        return PropositionReport(claims={}, timeline=timeline)
    p0 = myopic.curve.p0
    dt = myopic.epi.grid.dt
    depression = myopic.scenario == "depression"
    mode = "min" if depression else "max"
    claims: dict[str, ClaimResult] = {}

    # long-run reversion: P(t_end) back within 1% of the pre-contagion level
    dev = abs(float(myopic.p[-1]) - p0) / p0
    claims["long_run_price_returns"] = _claim(
        "pass" if dev <= 0.01 else "fail",
        dev,
        f"|P(t_end)-p0|/p0 = {dev:.3e}",
    )

    # exactly one interior extremum beyond the 1e-6 band around p0
    extrema = _interior_extrema(myopic.p, p0, mode)
    word = "maxima" if mode == "max" else "minima"
    claims["price_unimodal"] = _claim(
        "pass" if len(extrema) == 1 else "fail",
        len(extrema),
        f"{len(extrema)} interior {word} beyond the band",
    )

    # price extremum leads the infection peak (trough in depression mode)
    lead = "t_p_star_m_lt_t_i_star"
    gap = timeline.gap(lead)
    claims["price_peak_leads_infection_peak"] = _claim(
        _verdict_status([timeline.ordering_ok[lead]]),
        gap,
        f"t_I* - t_P* = {gap:.6g} (dt={dt:g})",
    )

    if rational is not None:
        claims.update(_rational_claims(myopic, rational, timeline))
    return PropositionReport(claims=claims, timeline=timeline)


def _rational_claims(
    myopic: MarketTrajectory,
    rational: MarketTrajectory,
    timeline: EventTimeline,
) -> dict[str, ClaimResult]:
    claims: dict[str, ClaimResult] = {}
    dt = rational.epi.grid.dt
    p_star = rational.plateau.p_star
    lo = rational.plateau_start
    hi = rational.post_start if rational.post_start is not None else len(rational.p)

    # plateau constancy, judged on both the stored price and the price
    # implied by holdings, so a corrupted column cannot slip through
    if hi > lo:
        stored = np.max(np.abs(rational.p[lo:hi] - p_star))
        # the clearing price p0 + x/kappa on every node: none reaches the floor,
        # since z + h is conserved at phi* >= 0 there and P* > 0 was checked
        curve = rational.curve
        implied = np.max(np.abs(curve.p0 + rational.x[lo:hi] / curve.kappa - p_star))
        rel = max(stored, implied) / p_star
        claims["plateau_price_constant"] = _claim(
            "pass" if rel <= 1e-6 else "fail",
            rel,
            f"max relative plateau deviation {rel:.3e} over {hi - lo} nodes",
        )
    else:
        claims["plateau_price_constant"] = _claim(
            "inconclusive", float("nan"), "plateau contains no grid nodes",
        )

    # early-path dominance: rational price at or above myopic up to t1,
    # strictly so once a short startup transient (10 steps) has passed
    # a sweep's rational path may end at its closing node (re_price_head)
    n = len(rational.p)
    t1 = rational.plateau.t1
    times = rational.epi.times[:n]
    in_window = (times > 0.0) & (times <= t1)
    strict_w = (times > 10.0 * dt) & (times <= t1)
    diff = rational.p - myopic.p[:n]
    weak_ok = bool(np.all(diff[in_window] >= 0.0))
    strict_margin = float(np.min(diff[strict_w])) if np.any(strict_w) else float("nan")
    strict_ok = bool(np.all(diff[strict_w] > 0.0)) if np.any(strict_w) else False
    claims["re_price_dominates_pre_plateau"] = _claim(
        "pass" if (weak_ok and strict_ok) else "fail",
        strict_margin,
        f"min(P_re - P_m) on (10*dt, t1] = {strict_margin:.3e}",
    )

    # the pinned plateau price sits strictly below the myopic peak
    margin = timeline.p_star_m - p_star
    claims["re_peak_lower"] = _claim(
        "pass" if margin > 0.0 else "fail",
        margin,
        f"P*_m - P*_re = {margin:.6g}",
    )

    # full event chain t1 < t_P* < t2 < t_I*, strict at grid resolution
    gaps = [timeline.gap(k) for k in EVENT_CHAIN]
    claims["event_ordering_chain"] = _claim(
        _verdict_status(timeline.ordering_ok.values()),
        min(gaps),
        "gaps "
        + ", ".join(f"{g:.4g}" for g in gaps)
        + f" (dt={dt:g})",
    )
    return claims


def judge_run(curve: SupplyCurve, epi: EpidemicTrajectory, scenario: str) -> tuple[
        list[tuple[str, MarketTrajectory]], PropositionReport, SimulationError | None]:
    """scenario's legs on the SIR pass epi as (name, leg) pairs in written
    order, the run's PropositionReport, and a failed depression leg's error.

    The myopic leg always runs, the rational one only where the contagion
    booms (no boom, no plateau, as in a sweep row), and both are judged
    before the depression leg runs. Under depression that leg is judged
    alone; under all its claims join as depression_<name>, and its failure
    is returned while the other legs stand.
    """
    legs = [("myopic", simulate_myopic(curve, epi))]
    if scenario in ("rational", "all") and epi.params.booms:
        legs.append(("rational", re_price_path(curve, epi)))
    report = check_propositions(*(leg for _name, leg in legs))
    error = None
    if scenario == "depression":
        depression = simulate_depression(curve, epi)
        legs.append(("depression", depression))
        report = check_propositions(depression)
    elif scenario == "all":
        try:
            depression = simulate_depression(curve, epi)
        except SimulationError as exc:
            error = exc
        else:
            legs.append(("depression", depression))
            claims = check_propositions(depression).claims
            report = replace(report, claims={**report.claims, **{
                f"depression_{name}": claim for name, claim in claims.items()}})
    return legs, report, error


# ---------------------------------------------------------------------------
# parameter sweep
# ---------------------------------------------------------------------------

_SWEEPABLE = ("beta", "gamma", "n1", "kappa")


@dataclass(frozen=True)
class SweepResult:
    """Outcome at one grid point; a run's errors are carried in-row, never
    raised. timeline and claims are None exactly when error is set."""

    index: int
    params: EpidemicParams
    curve: SupplyCurve
    timeline: EventTimeline | None
    claims: dict[str, ClaimResult] | None
    error: str | None = None
    refinements: int = 0
    dt_used: float = 0.0


def default_sweep_axes() -> dict[str, list[float]]:
    return {"beta": [2.5e-4, 5e-4, 1e-3], "kappa": [5.0, 10.0, 20.0]}


def assign(parts, changes: dict) -> list:
    """Each dataclass of parts, re-validated, with the keys of changes that
    are its fields replaced. A run's model objects (EpidemicParams,
    SupplyCurve, Grid) share no field name, so each key sets one of them."""
    return [replace(part, **{k: v for k, v in changes.items() if k in part.__dataclass_fields__})
            for part in parts]


def validate_sweep_axes(axes: dict[str, list[float]], params: EpidemicParams,
                        curve: SupplyCurve) -> None:
    """ConfigError unless each axis is a sweepable parameter with values,
    each of which its key's own object accepts (`assign`), and unless each
    grid point's values pass together (a population bound can fail on a
    point alone). A bad value is refused here, with the domain's message,
    as the same value given as a plain key is.
    """
    for name, values in axes.items():
        if name not in _SWEEPABLE:
            raise ConfigError(
                f"cannot sweep {name!r}; sweepable axes: {', '.join(_SWEEPABLE)}"
            )
        if not values:
            raise ConfigError(f"sweep axis {name!r} has no values")
        for value in values:
            assign((params, curve), {name: value})
    for point in grid_points(axes):
        assign((params, curve), point)


def grid_points(axes: dict[str, list[float]]) -> list[dict[str, float]]:
    """Points of the Cartesian product of axes, in sweep-row (index) order."""
    names = list(axes)
    return [dict(zip(names, combo))
            for combo in itertools.product(*(axes[n] for n in names))]


def _point_result(curve, epi: EpidemicTrajectory, index,
                  rational: bool) -> SweepResult:
    """Row of one point on epi, the SIR pass of its params and grid. The
    rational leg is `re_price_head`; each try is judged by
    `check_propositions`, and the pass is rerun on half its dt, at most
    twice, while its timeline leaves an ordering verdict undecided."""
    g = epi.grid
    refinements = 0
    try:
        while True:
            myopic = simulate_myopic(curve, epi)
            head = re_price_head(curve, epi) if rational else None
            report = check_propositions(myopic, head)
            undecided = any(v is None for v in report.timeline.ordering_ok.values())
            if not undecided or refinements >= 2:
                break
            # inconclusive gap below grid resolution: halve dt and retry
            g = Grid(g.t_start, g.t_end, g.dt / 2.0)
            epi = epidemic_pass(epi.params, g)
            refinements += 1
    except (SimulationError, ConfigError) as exc:
        # ConfigError: the halved grid would pass numerics.MAX_STEPS
        return SweepResult(index, epi.params, curve, None, None,
                           error=str(exc), refinements=refinements, dt_used=g.dt)
    return SweepResult(index, epi.params, curve, report.timeline,
                       report.claims, refinements=refinements, dt_used=g.dt)


def _epidemic_rows(params, grid, items, rational) -> list[SweepResult]:
    """Rows of the points of one epidemic, so one SIR pass serves all.

    items are the (index, curve) pairs of the points whose
    resolved parameters are params. The SIR pass runs here; the points
    then split into one strided share per usable CPU, each share after the
    first in a forked process (`pool.forked`) that reads the pass
    copy-on-write. One usable CPU or one point leaves one share, run here.
    With no boom there is no pass: every row is NO_BOOM with no claims. The
    one error of the pass, a grid beyond RK4's stability interval, is the
    error of every point's row; a point's own run failures are its row's
    (`_point_result`).
    """
    if not params.booms:
        return [SweepResult(idx, params, curve, NO_BOOM, {}, dt_used=grid.dt)
                for idx, curve in items]
    try:
        epidemic = epidemic_pass(params, grid)
    except SimulationError as exc:
        return [SweepResult(idx, params, curve, None, None,
                            error=str(exc), dt_used=grid.dt)
                for idx, curve in items]

    def rows_of(share):
        return [_point_result(curve, epidemic, idx, rational)
                for idx, curve in share]

    procs = min(len(items), usable_cpus())
    return [row for rows in forked(rows_of, [items[c::procs] for c in range(procs)])
            for row in rows]


def parameter_sweep(
    base_params: EpidemicParams,
    base_curve: SupplyCurve,
    grid: Grid,
    axes: dict[str, list[float]] | None = None,
    rational: bool = True,
) -> list[SweepResult]:
    """Verdicts of the myopic leg (and, if rational, the rational head)
    over the Cartesian product of the given parameter axes.

    Every axis value is checked against its key's bounds first
    (`validate_sweep_axes`), so a bad one raises ConfigError before any
    pass runs. Points with the same resolved epidemic parameters form one
    group that integrates the SIR pass once; the groups run one after
    another, each group's points on every usable CPU (`_epidemic_rows`),
    and rows come back in grid order. What only a run can find (an error
    of the SIR pass, a failed solve, a refinement past
    `numerics.MAX_STEPS`) lands in the row's error field.
    """
    if axes is None:
        axes = default_sweep_axes()
    validate_sweep_axes(axes, base_params, base_curve)

    groups: dict[EpidemicParams, list[tuple[int, SupplyCurve]]] = {}
    for idx, ov in enumerate(grid_points(axes)):
        params, curve = assign((base_params, base_curve), ov)
        groups.setdefault(params, []).append((idx, curve))

    rows = [row for params, items in groups.items()
            for row in _epidemic_rows(params, grid, items, rational)]
    rows.sort(key=lambda r: r.index)
    return rows


def summarize_sweep(rows: list[SweepResult]) -> dict[str, int]:
    ok = [row for row in rows if row.error is None]
    tally = claim_counts(c for row in ok for c in row.claims.values())
    return {
        "points": len(rows),
        "booms": sum(row.timeline.boom for row in ok),
        "errors": len(rows) - len(ok),
        **{f"claims_{status}": n for status, n in tally.items()},
    }
