"""Event timeline, proposition checkers, parameter sweeps."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    build_timeline,
    check_propositions,
    parameter_sweep,
    refine_peak,
    simulate_depression,
    simulate_myopic,
    summarize_sweep,
)
from epimarket import numerics
from epimarket.analysis import EventTimeline, _strict, default_sweep_axes
from epimarket.epidemic import InfectionPeak
from epimarket.errors import (
    BoundaryExtremumError,
    ConfigError,
    ConsistencyError,
    DomainError,
)


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


def test_refine_peak_input_validation():
    with pytest.raises(DomainError):
        refine_peak([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        refine_peak([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], mode="extremum")
    with pytest.raises(BoundaryExtremumError):
        refine_peak([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# timeline assembly
# ---------------------------------------------------------------------------


def test_strict_verdict_trichotomy():
    assert _strict(1.0, 2.0, 0.01) is True
    assert _strict(2.0, 1.0, 0.01) is False
    assert _strict(1.0, 1.005, 0.01) is None


def test_timeline_on_defaults(grid, myopic_run, rational_run, peak):
    tl = build_timeline(myopic_run, rational_run, peak)
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


def test_timeline_without_rational_leg(myopic_run, peak):
    tl = build_timeline(myopic_run, None, peak)
    assert tl.t1 is None and tl.t2 is None and tl.p_star_re is None
    assert list(tl.ordering_ok) == ["t_p_star_m_lt_t_i_star"]


def test_timeline_without_boom(myopic_run):
    no_peak = InfectionPeak(t_star=None, s_star=None, i_star=None, exists=False)
    tl = build_timeline(myopic_run, None, no_peak)
    assert not tl.boom
    assert tl.t_i_star is None and tl.ordering_ok == {}


def test_timeline_rejects_mismatched_runs(myopic_run, rational_run, peak):
    other = replace(myopic_run, params=EpidemicParams(beta=6e-4))
    with pytest.raises(ConsistencyError):
        build_timeline(other, rational_run, peak)


# ---------------------------------------------------------------------------
# proposition checks
# ---------------------------------------------------------------------------


def test_all_claims_pass_on_defaults(myopic_run, rational_run):
    report = check_propositions(myopic_run, rational_run)
    assert report.scenario == "myopic"
    assert set(report.claims) == {
        "long_run_price_returns",
        "price_unimodal",
        "price_peak_leads_infection_peak",
        "plateau_price_constant",
        "re_price_dominates_pre_plateau",
        "re_peak_lower",
        "event_ordering_chain",
    }
    assert report.all_pass
    assert report.counts() == {"pass": 7, "fail": 0, "inconclusive": 0}


def test_depression_claims_mirror_the_boom(epidemic_run):
    deep = SupplyCurve(kappa=400.0)
    bust = simulate_depression(deep, epidemic_run)
    report = check_propositions(bust)
    assert report.scenario == "depression"
    assert report.all_pass
    # the trough leads sentiment by exactly the boom's lead, by mirror symmetry
    boom = simulate_myopic(deep, epidemic_run)
    t_trough, _ = refine_peak(bust.times, bust.p, mode="min")
    t_peak, _ = refine_peak(boom.times, boom.p, mode="max")
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


def test_plateau_checker_rejects_a_wobble(myopic_run, rational_run):
    k1 = rational_run.plateau_start
    p_bad = rational_run.p.copy()
    p_bad[k1 + 5] *= 1.001
    report = check_propositions(myopic_run, replace(rational_run, p=p_bad))
    assert report.claims["plateau_price_constant"].status == "fail"


def test_dominance_checker_rejects_an_undercut(myopic_run, rational_run):
    p_bad = rational_run.p.copy()
    p_bad[50:100] = myopic_run.p[50:100] - 1e-6
    report = check_propositions(myopic_run, replace(rational_run, p=p_bad))
    assert report.claims["re_price_dominates_pre_plateau"].status == "fail"


def test_timeline_driven_claims_follow_the_verdicts(myopic_run, rational_run):
    fake = EventTimeline(
        t_i_star=21.0, t_p_star_m=19.9, p_star_m=7.0,
        t1=14.9, t2=20.5, p_star_re=8.0,  # "peak" above the myopic one
        ordering_ok={
            "t1_lt_t_p_star_m": True,
            "t_p_star_m_lt_t2": True,
            "t2_lt_t_i_star": False,
            "t_p_star_m_lt_t_i_star": None,
        },
        boom=True,
    )
    report = check_propositions(myopic_run, rational_run, timeline=fake)
    assert report.claims["price_peak_leads_infection_peak"].status == "inconclusive"
    assert report.claims["re_peak_lower"].status == "fail"
    assert report.claims["event_ordering_chain"].status == "fail"


# ---------------------------------------------------------------------------
# parameter sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_sweep(params, curve, grid):
    return parameter_sweep(params, curve, grid, axes={"kappa": [5.0, 10.0]})


def test_sweep_rows_are_ordered_and_clean(small_sweep):
    assert [row.index for row in small_sweep] == [0, 1]
    assert [row.overrides for row in small_sweep] == [
        {"kappa": 5.0},
        {"kappa": 10.0},
    ]
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


def test_sweep_carries_per_point_errors_in_row(params, curve, grid, monkeypatch):
    # this point is inconclusive at dt=1e-2; halving dt would pass the cap
    monkeypatch.setattr(numerics, "MAX_STEPS", 40_000)
    rows = parameter_sweep(params, curve, grid,
                           axes={"beta": [2.5e-4], "gamma": [0.2]})
    assert rows[0].timeline is None
    assert "limit of 40000" in rows[0].error
    # a grid beyond RK4's stability interval names the step bound
    rows = parameter_sweep(params, curve, Grid(0.0, 30.0, 1e-2), axes={"beta": [5.0]})
    assert rows[0].timeline is None
    assert "dt <= 2.785/(beta*N + gamma)" in rows[0].error
    # also at (beta*N + gamma)*dt = 3.0 and 4.0, where every step would
    # succeed and the beta=0.4 row would fail the peak-lead claims; each
    # row keeps its point's parameters
    rows = parameter_sweep(params, curve, Grid(0.0, 30.0, 1e-2),
                           axes={"beta": [0.3, 0.4], "kappa": [10.0]},
                           scenarios=("myopic",))
    assert [(r.params.beta, r.curve.kappa) for r in rows] == [(0.3, 10.0), (0.4, 10.0)]
    for row in rows:
        assert row.timeline is None
        assert "dt <= 2.785/(beta*N + gamma)" in row.error


def test_sweep_rejects_bad_requests(params, curve, grid):
    with pytest.raises(ConfigError):
        parameter_sweep(params, curve, grid, axes={"t_end": [10.0]})
    with pytest.raises(ConfigError):
        parameter_sweep(params, curve, grid, axes={"kappa": []})
    with pytest.raises(ConfigError):
        parameter_sweep(params, curve, grid, scenarios=("depression",))
    # a value its key's own object refuses, before any pass runs
    with pytest.raises(ConfigError, match="gamma must be > 0, got -1.0"):
        parameter_sweep(params, curve, grid, axes={"gamma": [-1.0]})
    with pytest.raises(ConfigError, match="kappa must be > 0, got -5.0"):
        parameter_sweep(params, curve, grid, axes={"kappa": [-5.0, 10.0]})


def test_sweep_myopic_only_has_no_plateau_columns(params, curve, grid):
    rows = parameter_sweep(
        params, curve, Grid(0.0, 100.0, 2e-2),
        axes={"kappa": [10.0]}, scenarios=("myopic",),
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
