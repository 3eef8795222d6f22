"""Event timeline, proposition checkers, parameter sweeps."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    build_timeline,
    check_propositions,
    epidemic_pass,
    parameter_sweep,
    re_price_path,
    refine_peak,
    simulate_depression,
    simulate_myopic,
    simulate_re_given_t1,
    summarize_sweep,
)
from epimarket import analysis, numerics
from epimarket.analysis import EventTimeline, _strict, default_sweep_axes, judge_run
from epimarket.errors import (
    BoundaryExtremumError,
    ConfigError,
    ConsistencyError,
    DomainError,
    PriceFloorError,
)
from epimarket.numerics import newton_parabola
from test_drive_parity import POPULATION_REFUSAL, assert_sir_refusal


# ---------------------------------------------------------------------------
# peak refinement
# ---------------------------------------------------------------------------


def test_refine_peak_exact_parabola():
    ts = np.arange(7.0)
    vs = -((ts - 3.0) ** 2)
    assert refine_peak(ts, vs) == (3.0, 0.0)
    assert refine_peak(ts, -vs, mode="min") == (3.0, 0.0)


def test_refine_peak_off_node_vertex():
    ts = np.arange(7.0)
    vs = -((ts - 3.4) ** 2) + 2.0
    t_v, v_v = refine_peak(ts, vs)
    assert t_v == pytest.approx(3.4, abs=1e-12)
    assert v_v == pytest.approx(2.0, abs=1e-12)


def _fitted_min(ts, vs):
    """The vertex through the discrete minimum and its two neighbours,
    fitted on the values themselves, as refine_peak once fitted a trough."""
    k = int(np.argmin(vs))
    c1, c2, at = newton_parabola(*(float(col[j]) for j in (k - 1, k, k + 1)
                                   for col in (ts, vs)))
    if c2 == 0.0:
        return float(ts[k]), float(vs[k])
    tv = 0.5 * (float(ts[k - 1]) + float(ts[k])) - 0.5 * c1 / c2
    return tv, at(tv)


def test_a_trough_is_the_negated_peak_of_minus_the_series_bit_for_bit(epidemic_run):
    rng = np.random.default_rng(37)
    bust = simulate_depression(SupplyCurve(kappa=400.0), epidemic_run)
    series = [(bust.epi.times, bust.p)]
    series += [(np.cumsum(rng.uniform(0.01, 1.0, 40)), rng.normal(size=40)) for _ in range(200)]
    for ts, vs in series:
        if int(np.argmin(vs)) in (0, len(vs) - 1):
            continue
        t_max, v_max = refine_peak(ts, -vs, mode="max")
        trough = refine_peak(ts, vs, mode="min")
        for got in (trough, _fitted_min(ts, vs)):
            assert [x.hex() for x in got] == [t_max.hex(), (-v_max).hex()]


def test_refine_peak_input_validation():
    with pytest.raises(DomainError):
        refine_peak([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        refine_peak([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], mode="extremum")
    with pytest.raises(BoundaryExtremumError):
        refine_peak([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    # times and values must pair up node for node on one axis
    for ts, vs in (([0.0, 1.0, 2.0], [1.0, 2.0, 1.0, 0.0]),
                   ([[0.0, 1.0, 2.0]], [[1.0, 2.0, 1.0]])):
        with pytest.raises(DomainError) as info:
            refine_peak(ts, vs)
        assert str(info.value) == "times and values must be 1-d arrays of equal length"
    # a repeated or falling time would divide by a zero or negative spacing
    for ts in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, float("nan"), 2.0]):
        with pytest.raises(DomainError, match="strictly increasing"):
            refine_peak(ts, [0.0, 2.0, 1.0])


@pytest.mark.parametrize("mode", ["max", "min"])
def test_refine_peak_refuses_non_finite_values(mode):
    # a NaN hides from the argmax or drops the finite extremum, and an
    # infinite value makes the parabola's vertex NaN: each used to give (nan, nan)
    nan, inf = float("nan"), float("inf")
    for vs in ([0.0, nan, 1.0, 0.0], [0.0, 2.0, nan, 0.0], [0.0, inf, 1.0, 0.0],
               [0.0, -inf, 1.0, 0.0]):
        with pytest.raises(DomainError, match="values must be finite"):
            refine_peak([0.0, 1.0, 2.0, 3.0], vs, mode)


# ---------------------------------------------------------------------------
# timeline assembly
# ---------------------------------------------------------------------------


def test_strict_verdict_trichotomy():
    assert _strict(1.0, 2.0, 0.01) is True
    assert _strict(2.0, 1.0, 0.01) is False
    assert _strict(1.0, 1.005, 0.01) is None


def test_timeline_on_defaults(grid, myopic_run, rational_run):
    tl = build_timeline(myopic_run, rational_run)
    assert tl.boom
    assert tl.t1 < tl.t_p_star_m < tl.t2 < tl.t_i_star
    assert set(tl.ordering_ok) == {
        "t1_lt_t_p_star_m",
        "t_p_star_m_lt_t2",
        "t2_lt_t_i_star",
        "t_p_star_m_lt_t_i_star",
    }
    assert all(v is True for v in tl.ordering_ok.values())
    assert tl.p_star_re < tl.p_star_m


def test_timeline_without_rational_leg(myopic_run):
    tl = build_timeline(myopic_run)
    assert tl.t1 is None and tl.t2 is None and tl.p_star_re is None
    assert list(tl.ordering_ok) == ["t_p_star_m_lt_t_i_star"]


def test_timeline_without_boom(curve):
    # gamma/beta = 1200 exceeds the 999 susceptibles: I never grows
    no_boom = EpidemicParams(gamma=0.6)
    tl = build_timeline(
        simulate_myopic(curve, epidemic_pass(no_boom, Grid(0.0, 50.0, 1e-2))))
    assert not tl.boom
    assert tl.t_i_star is None and tl.ordering_ok == {}


def test_timeline_rejects_mismatched_runs(params, curve, grid, rational_run):
    # a myopic leg on a pass of other params, or of another grid
    others = (epidemic_pass(replace(params, beta=6e-4), grid),
              epidemic_pass(params, Grid(0.0, 300.0, 2e-2)))
    for epi in others:
        with pytest.raises(ConsistencyError):
            build_timeline(simulate_myopic(curve, epi), rational_run)


@pytest.mark.parametrize("legs", ["other-curve", "myopic-pair", "rational-alone",
                                  "depression-beside"])
def test_propositions_refuse_legs_that_do_not_belong_together(
        epidemic_run, myopic_run, rational_run, legs):
    # a rational leg is judged only beside the myopic leg of its own curve:
    # P* of one curve against another's myopic peak, or a myopic leg read
    # as rational, would judge numbers that belong to no run
    pair = {
        "other-curve": (myopic_run, re_price_path(SupplyCurve(kappa=400.0), epidemic_run)),
        "myopic-pair": (myopic_run, myopic_run),
        "rational-alone": (rational_run,),
        "depression-beside": (simulate_depression(SupplyCurve(kappa=400.0), epidemic_run),
                              rational_run),
    }[legs]
    with pytest.raises(ConsistencyError, match="beside the myopic leg"):
        check_propositions(*pair)


# ---------------------------------------------------------------------------
# proposition checks
# ---------------------------------------------------------------------------


def test_all_claims_pass_on_defaults(myopic_run, rational_run):
    report = check_propositions(myopic_run, rational_run)
    assert set(report.claims) == {
        "long_run_price_returns",
        "price_unimodal",
        "price_peak_leads_infection_peak",
        "plateau_price_constant",
        "re_price_dominates_pre_plateau",
        "re_peak_lower",
        "event_ordering_chain",
    }
    assert report.counts() == {"pass": 7, "fail": 0, "inconclusive": 0}
    assert report.timeline == build_timeline(myopic_run, rational_run)


def test_depression_claims_mirror_the_boom(epidemic_run):
    deep = SupplyCurve(kappa=400.0)
    bust = simulate_depression(deep, epidemic_run)
    report = check_propositions(bust)
    assert report.counts() == {"pass": 3, "fail": 0, "inconclusive": 0}
    # the trough leads sentiment by exactly the boom's lead, by mirror symmetry
    boom = simulate_myopic(deep, epidemic_run)
    t_trough, _ = refine_peak(bust.epi.times, bust.p, mode="min")
    t_peak, _ = refine_peak(boom.epi.times, boom.p, mode="max")
    assert abs(t_trough - t_peak) <= 1e-9


# each checker must reject a constructed counterexample, not just accept
# the honest runs


def test_long_run_checker_rejects_a_stuck_price(myopic_run):
    p_bad = myopic_run.p.copy()
    p_bad[-1] = myopic_run.curve.p0 * 1.05
    report = check_propositions(replace(myopic_run, p=p_bad))
    assert report.claims["long_run_price_returns"].status == "fail"


def test_unimodal_checker_rejects_a_double_bump(myopic_run):
    p_bad = myopic_run.p.copy()
    p_bad[25000] += 1.0  # second hump far from the true peak
    report = check_propositions(replace(myopic_run, p=p_bad))
    assert report.claims["price_unimodal"].status == "fail"


def test_unimodality_counts_a_turn_only_beyond_the_band_on_its_own_side():
    # a peak must rise above p0*(1 + 1e-6), a trough fall below p0*(1 - 1e-6)
    p0 = 5.0
    for mode, side in (("max", 1.0), ("min", -1.0)):
        for depth, count in ((5e-7, 0), (2e-6, 1), (-2e-6, 0)):
            p = np.array([p0, p0 * (1.0 + side * depth), p0])
            assert len(analysis._interior_extrema(p, p0, mode)) == count, (mode, depth)


def test_plateau_checker_rejects_a_wobble(myopic_run, rational_run):
    k1 = rational_run.plateau_start
    p_bad = rational_run.p.copy()
    p_bad[k1 + 5] *= 1.001
    report = check_propositions(myopic_run, replace(rational_run, p=p_bad))
    assert report.claims["plateau_price_constant"].status == "fail"


def test_a_plateau_that_holds_no_grid_node_is_inconclusive(curve, epidemic_run, myopic_run):
    # from t1 = 40 the net flow is already reversed, so the plateau closes
    # at t1 itself, before any node: its constancy cannot be judged
    leg = simulate_re_given_t1(curve, 40.0, epidemic_run)
    assert leg.plateau.t2 == 40.0 and leg.post_start == leg.plateau_start
    claim = check_propositions(myopic_run, leg).claims["plateau_price_constant"]
    assert claim.status == "inconclusive"
    assert math.isnan(claim.margin)
    assert claim.detail == "plateau contains no grid nodes"


def test_dominance_checker_rejects_an_undercut(myopic_run, rational_run):
    p_bad = rational_run.p.copy()
    p_bad[50:100] = myopic_run.p[50:100] - 1e-6
    report = check_propositions(myopic_run, replace(rational_run, p=p_bad))
    assert report.claims["re_price_dominates_pre_plateau"].status == "fail"


# the four ordering verdicts, in table order, and the statuses they give
# the peak-lead claim (its one link, the last) and the chain (all four):
# True on every link passes, a False fails over any None, else inconclusive
@pytest.mark.parametrize("verdicts, lead, chain", [
    pytest.param((True, True, False, None), "inconclusive", "fail",
                 id="lead-inconclusive-chain-fail"),
    pytest.param((True, True, True, True), "pass", "pass",
                 id="lead-pass-chain-pass"),
    pytest.param((True, None, True, False), "fail", "fail",
                 id="lead-fail-chain-fail"),
    pytest.param((None, True, True, True), "pass", "inconclusive",
                 id="lead-pass-chain-inconclusive"),
    pytest.param((True, None, None, None), "inconclusive", "inconclusive",
                 id="lead-inconclusive-chain-inconclusive"),
    pytest.param((False, None, True, True), "pass", "fail",
                 id="lead-pass-chain-fail"),
])
def test_timeline_driven_claims_follow_the_verdicts(monkeypatch, myopic_run,
                                                    rational_run, verdicts, lead, chain):
    fake = EventTimeline(
        t_i_star=21.0, t_p_star_m=19.9, p_star_m=7.0,
        t1=14.9, t2=20.5, p_star_re=8.0,  # "peak" above the myopic one
        ordering_ok=dict(zip(analysis.ORDERING_KEYS, verdicts)),
    )
    monkeypatch.setattr(analysis, "build_timeline", lambda *legs: fake)
    report = check_propositions(myopic_run, rational_run)
    assert report.timeline is fake
    assert report.claims["price_peak_leads_infection_peak"].status == lead
    assert report.claims["re_peak_lower"].status == "fail"
    assert report.claims["event_ordering_chain"].status == chain
    # the margins and details read the gaps of the fake's own times
    assert report.claims["price_peak_leads_infection_peak"].margin == 21.0 - 19.9
    assert report.claims["event_ordering_chain"].margin == min(
        19.9 - 14.9, 20.5 - 19.9, 21.0 - 20.5)
    assert report.claims["event_ordering_chain"].detail.startswith(
        f"gaps {19.9 - 14.9:.4g}, {20.5 - 19.9:.4g}, {21.0 - 20.5:.4g} (dt=")


# ---------------------------------------------------------------------------
# one scenario's run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario, names", [
    ("myopic", ["myopic"]),
    ("rational", ["myopic", "rational"]),
    ("depression", ["myopic", "depression"]),
    ("all", ["myopic", "rational", "depression"]),
])
def test_judge_run_runs_and_judges_each_scenarios_legs(epidemic_run, scenario, names):
    # at kappa=400 the slump clears its floor, so every leg runs
    curve = SupplyCurve(kappa=400.0)
    legs, report, error = judge_run(curve, epidemic_run, scenario)
    assert [name for name, _leg in legs] == names and error is None
    run = dict(legs)
    boom = check_propositions(run["myopic"], run.get("rational"))
    if scenario == "depression":
        boom = check_propositions(run["depression"])
    claims = dict(boom.claims)
    if scenario == "all":
        claims.update({f"depression_{name}": claim for name, claim
                       in check_propositions(run["depression"]).claims.items()})
    assert report.claims == claims
    assert report.timeline == boom.timeline


def test_judge_run_keeps_the_other_legs_of_a_failed_depression(curve, epidemic_run):
    # at kappa=10 the slump hits its floor: under all the failure is
    # returned beside the boom's legs and claims, and under depression raised
    legs, report, error = judge_run(curve, epidemic_run, "all")
    assert [name for name, _leg in legs] == ["myopic", "rational"]
    assert type(error) is PriceFloorError
    assert str(error) == "clearing price hit zero at t=7.015 (x=-10.009295841226004)"
    assert report == check_propositions(*(leg for _name, leg in legs))
    with pytest.raises(PriceFloorError, match=r"^clearing price hit zero at t=7\.015 "):
        judge_run(curve, epidemic_run, "depression")


def test_judge_run_runs_no_rational_leg_without_a_boom(params, curve):
    epi = epidemic_pass(replace(params, n2=0.0), Grid(0.0, 50.0, 1e-2))
    legs, report, error = judge_run(curve, epi, "rational")
    assert [name for name, _leg in legs] == ["myopic"]
    assert (report.claims, report.timeline.boom, error) == ({}, False, None)


# ---------------------------------------------------------------------------
# parameter sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_sweep(params, curve, grid):
    return parameter_sweep(params, curve, grid, axes={"kappa": [5.0, 10.0]})


def test_sweep_rows_are_ordered_and_clean(small_sweep):
    assert [row.index for row in small_sweep] == [0, 1]
    assert [row.curve.kappa for row in small_sweep] == [5.0, 10.0]
    assert all(row.params == small_sweep[0].params for row in small_sweep)
    for row in small_sweep:
        assert row.error is None
        assert row.timeline.boom
        assert row.refinements == 0
        assert row.dt_used == 0.01
        assert all(c.status == "pass" for c in row.claims.values())


def test_sweep_rows_equal_each_point_swept_alone(params, curve, grid, small_sweep):
    # the two points share one SIR pass in the sweep and have their own here
    alone = [
        replace(parameter_sweep(params, curve, grid, axes={"kappa": [kappa]})[0],
                index=index)
        for index, kappa in enumerate([5.0, 10.0])
    ]
    assert alone == small_sweep


def test_sweep_summary_counts(small_sweep):
    assert summarize_sweep(small_sweep) == {
        "points": 2,
        "booms": 2,
        "errors": 0,
        "claims_pass": 14,
        "claims_fail": 0,
        "claims_inconclusive": 0,
    }


def test_sweep_marks_no_boom_points(params, curve, grid):
    rows = parameter_sweep(params, curve, grid, axes={"n1": [100.0]})
    assert len(rows) == 1
    assert rows[0].error is None
    assert not rows[0].timeline.boom
    assert rows[0].claims == {}


@pytest.mark.parametrize("no_boom", [
    pytest.param({"n2": 0.0}, id="unseeded"),
    pytest.param({"gamma": 0.6}, id="threshold-above-n1"),
])
def test_a_run_with_no_boom_judges_no_claims(params, curve, no_boom):
    # the contagion never grows, so a myopic or depression leg has no
    # boom to time and no claim to judge, as its sweep row has none
    point = replace(params, **no_boom)
    epi = epidemic_pass(point, Grid(0.0, 50.0, 1e-2))
    row, = parameter_sweep(point, curve, epi.grid, axes={"kappa": [curve.kappa]},
                           rational=False)
    assert row.claims == {}
    for leg in (simulate_myopic(curve, epi), simulate_depression(curve, epi)):
        report = check_propositions(leg)
        assert not report.timeline.boom
        assert report.claims == row.claims


def test_sweep_carries_per_point_errors_in_row(params, curve, grid, monkeypatch):
    # this point is inconclusive at dt=1e-2; halving dt would pass the cap
    monkeypatch.setattr(numerics, "MAX_STEPS", 40_000)
    rows = parameter_sweep(params, curve, grid,
                           axes={"beta": [2.5e-4], "gamma": [0.2]})
    assert rows[0].timeline is None
    assert "limit of 40000" in rows[0].error
    # at the real MAX_STEPS, a grid beyond RK4's stability interval names
    # the step bound
    monkeypatch.undo()
    stiff = Grid(0.0, 30.0, 1e-2)
    rows = parameter_sweep(params, curve, stiff, axes={"beta": [5.0]})
    assert rows[0].timeline is None
    assert_sir_refusal(rows[0].params, stiff, rows[0].error)
    # also at (beta*N + gamma)*dt = 3.0 and 4.0, where every step would
    # succeed and the beta=0.4 row would fail the peak-lead claims; each
    # row keeps its point's parameters
    rows = parameter_sweep(params, curve, stiff,
                           axes={"beta": [0.3, 0.4], "kappa": [10.0]},
                           rational=False)
    assert [(r.params.beta, r.curve.kappa) for r in rows] == [(0.3, 10.0), (0.4, 10.0)]
    for row in rows:
        assert row.timeline is None
        assert_sir_refusal(row.params, stiff, row.error)


def test_an_overflowing_sir_pass_fails_only_the_rows_of_its_epidemic(params, curve):
    # beta=2e-306: at n1=1e308 beta*I*S would overflow at t=3.62, so that
    # axis value is refused with the population bound, as n1=1e308 given
    # as a plain key is, before any pass runs; at n1=999 the contagion
    # never grows, so those rows run, with no boom
    low = replace(params, beta=2e-306)
    grid = Grid(0.0, 20.0, 1e-2)
    with pytest.raises(ConfigError) as info:
        parameter_sweep(low, curve, grid, axes={"n1": [1e308, 999.0], "kappa": [10.0, 400.0]})
    assert str(info.value) == POPULATION_REFUSAL.format(n="1e+308")
    rows = parameter_sweep(low, curve, grid, axes={"n1": [999.0], "kappa": [10.0, 400.0]})
    for row in rows:
        assert row.error is None
        assert not row.timeline.boom
    assert summarize_sweep(rows)["errors"] == 0


def test_sweep_rejects_bad_requests(params, curve, grid):
    with pytest.raises(ConfigError):
        parameter_sweep(params, curve, grid, axes={"t_end": [10.0]})
    with pytest.raises(ConfigError):
        parameter_sweep(params, curve, grid, axes={"kappa": []})
    # a value its key's own object refuses, before any pass runs
    with pytest.raises(ConfigError, match="gamma must be > 0, got -1.0"):
        parameter_sweep(params, curve, grid, axes={"gamma": [-1.0]})
    with pytest.raises(ConfigError, match="kappa must be > 0, got -5.0"):
        parameter_sweep(params, curve, grid, axes={"kappa": [-5.0, 10.0]})


def test_sweep_myopic_only_has_no_plateau_columns(params, curve, grid):
    rows = parameter_sweep(
        params, curve, Grid(0.0, 100.0, 2e-2),
        axes={"kappa": [10.0]}, rational=False,
    )
    row = rows[0]
    assert row.timeline.t1 is None
    assert list(row.timeline.ordering_ok) == ["t_p_star_m_lt_t_i_star"]
    assert set(row.claims) == {
        "long_run_price_returns",
        "price_unimodal",
        "price_peak_leads_infection_peak",
    }


def test_default_axes_give_nine_points():
    axes = default_sweep_axes()
    assert sorted(axes) == ["beta", "kappa"]
    assert len(axes["beta"]) * len(axes["kappa"]) == 9
