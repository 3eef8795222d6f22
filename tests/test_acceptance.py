"""Acceptance battery: the thirteen verification criteria, one per test.

The battery runs twice at module scope, in two directories, so that the
determinism test can compare the two runs' verdicts and complete artifact
sets byte for byte; criterion 13 itself compares the sweep with each of its
points swept alone. Every test prints the criterion's pass/fail line and
then asserts it.

Two criteria test a property only where the numbers can show it:

* criterion 02: the first-integral drift must stay within 1e-6*N at
  dt=1e-3, and shrink at least 8x (convergence order >= 3) when dt is
  halved from 4e-2 to 2e-2. At dt=1e-3 the drift (~8e-12 and ~5e-11) is
  float64 roundoff, since RK4's truncation drift there (~1e-14) is below
  one ulp of S, so the order is read where the drift is truncation error
  (~2.6e-8 -> 1.6e-9, a 16x shrink). A second-order method gives 4x there.
* criterion 11: the depression is the exact sign mirror of the boom only
  while the boom peaks below 2*p0. The U-shape, trough-leads, reversion
  and node-for-node mirror checks (error <= 1e-12) therefore run at
  kappa=400, where the boom peaks at ~1.78*p0. At kappa=100 the boom
  peaks at ~2.99*p0 and the price-floor guard must raise.

Every criterion but 02 is also handed the defaults' run with one number
broken, and each must fail it and name the breach. Criterion 02 steps its
own passes from the run's params and grid, so a run broken in its arrays
passes it; a test shows that.
"""
from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    epidemic_pass,
    simulate_myopic,
)
from epimarket import verify
from epimarket.analysis import (
    EventTimeline,
    PropositionReport,
    SweepResult,
    check_propositions,
    judge_run,
    parameter_sweep,
)
from epimarket.epidemic import EpidemicTrajectory
from epimarket.market import MarketTrajectory
from epimarket.verify import CheckResult, run_verification


class VerifyRun(NamedTuple):
    """The directory a verification run wrote and the results it returned."""
    out: Path
    results: list[CheckResult]


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify_a")
    return VerifyRun(out, run_verification(out))


@pytest.fixture(scope="module")
def second_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify_b")
    return VerifyRun(out, run_verification(out))


# sha256 of the eight files a verification run writes (its artifacts and
# verification.json); the engine's passes are rewritten only byte for byte
VERIFY_SHA256 = "144bed3d431bf975e739caec43948d955a7ba9eb05804954a73e026a3a53f04a"


def _files(run) -> dict[str, Path]:
    """The files a verification run wrote, by name: the artifacts its
    verification.json lists, and verification.json."""
    listing = run.out / "verification.json"
    names = json.loads(listing.read_text(encoding="utf-8"))["artifacts"]
    return {**{name: run.out / name for name in names}, "verification.json": listing}


def _criterion(report, number: int):
    for result in report.results:
        if result.criterion == number:
            return result
    raise AssertionError(f"criterion {number:02d} missing from the battery")


def _show(result) -> None:
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_conservation(first_run):
    _show(_criterion(first_run, 1))


def test_criterion_02_first_integrals(first_run):
    """Drift within 1e-6*N at dt=1e-3; order >= 3 on dt=4e-2 -> 2e-2, the
    pair where the drift is truncation error rather than roundoff."""
    _show(_criterion(first_run, 2))


def test_criterion_03_final_size(first_run):
    _show(_criterion(first_run, 3))


def test_criterion_04_infection_peak(first_run):
    _show(_criterion(first_run, 4))


def test_criterion_05_peak_lead_sweep(first_run):
    _show(_criterion(first_run, 5))


def test_criterion_06_quadrature_oracle(first_run):
    _show(_criterion(first_run, 6))


def test_criterion_07_plateau_closure(first_run):
    _show(_criterion(first_run, 7))


def test_criterion_08_re_dominance(first_run):
    _show(_criterion(first_run, 8))


def test_criterion_09_re_lower_peak(first_run):
    _show(_criterion(first_run, 9))


def test_criterion_10_ordering_chain(first_run):
    _show(_criterion(first_run, 10))


def test_criterion_11_depression_mirror(first_run):
    """Mirror shape and node-for-node mirror at kappa=400, where the boom
    peaks below 2*p0; at kappa=100 it peaks above, so the floor must raise."""
    _show(_criterion(first_run, 11))


def test_criterion_12_event_convergence(first_run):
    _show(_criterion(first_run, 12))


def test_criterion_13_determinism(first_run, second_run):
    result = _criterion(first_run, 13)
    print(result.line())
    assert result.passed, result.line()
    # the same verdicts must come out of both runs
    verdicts_a = [(r.criterion, r.passed) for r in first_run.results]
    verdicts_b = [(r.criterion, r.passed) for r in second_run.results]
    assert verdicts_a == verdicts_b
    # and the complete artifact sets must match byte for byte
    files_a, files_b = _files(first_run), _files(second_run)
    assert files_a.keys() == files_b.keys()
    for name in sorted(files_a):
        assert files_a[name].read_bytes() == files_b[name].read_bytes(), (
            f"artifact {name} differs between verification runs"
        )


def test_verification_artifacts_have_the_pinned_bytes(first_run, artifact_digest):
    files = _files(first_run)
    assert sorted(files) == sorted(p.name for p in files["sweep.csv"].parent.iterdir())
    assert len(files) == 8
    assert artifact_digest(files.values()) == VERIFY_SHA256
    # verification.json records the results run_verification returned
    record = json.loads(files["verification.json"].read_text(encoding="utf-8"))
    assert record["criteria"] == [asdict(r) for r in first_run.results]
    assert record["ok"] is all(r.passed for r in first_run.results)


# ---------------------------------------------------------------------------
# the criteria that judge one run, on a run off the defaults
# ---------------------------------------------------------------------------


def _refined(curve, params, grid):
    """The rational run judged again at twice and at half grid's dt, as
    run_verification judges it: the 2*dt and dt/2 timelines and the dt/2
    run's myopic leg."""
    (_, coarse, _), (fine_legs, fine, _) = (
        judge_run(curve, epidemic_pass(params, replace(grid, dt=f * grid.dt)), "rational")
        for f in (2.0, 0.5))
    (_, fine_myopic), _ = fine_legs
    return coarse.timeline, fine.timeline, fine_myopic


@pytest.fixture(scope="module")
def off_defaults():
    """The verdicts and details of the criteria that judge one run, by
    number, at beta=7e-4, gamma=0.15, kappa=20: each handed the run's SIR
    pass, the legs and claims judge_run gives and the runs it judges at
    twice and at half the dt, as run_verification hands them the
    defaults' run."""
    params, curve = EpidemicParams(beta=7e-4, gamma=0.15), SupplyCurve(kappa=20.0)
    grid = Grid(0.0, 300.0, 1e-2)
    epi = epidemic_pass(params, grid)
    legs, judged, _error = judge_run(curve, epi, "rational")
    (_, myopic), (_, rational) = legs
    coarse, fine, fine_myopic = _refined(curve, params, grid)
    return {
        1: verify.check_conservation(epi),
        3: verify.check_final_size(epi),
        # the no-peak probe is gamma = 1.2*beta*n1: a fixed gamma=0.6 has
        # threshold 857 < n1 at this beta, peaks, and failed the criterion
        4: verify.check_infection_peak(epi),
        6: verify.check_quadrature(myopic, fine_myopic),
        7: verify.check_plateau_closure(rational, judged.claims),
        11: verify.check_depression(myopic),
        12: verify.check_event_convergence(coarse, judged.timeline, fine),
    }


@pytest.mark.parametrize("number", [1, 3, 4, 6, 7, 11, 12])
def test_a_criterion_passes_on_the_run_it_is_handed(off_defaults, number):
    passed, detail = off_defaults[number]
    print(f"criterion {number:02d}: {detail}")
    assert passed, detail


def test_final_size_judges_each_distinct_point_once(first_run, off_defaults):
    # the defaults' beta=5e-4, gamma=0.1 is a point of the 3x3 grid, and
    # beta=7e-4, gamma=0.15 is not
    assert "over 9 points" in _criterion(first_run, 3).detail
    assert "over 10 points" in off_defaults[3][1]


def test_plateau_closure_tolerances_are_the_runs_own(off_defaults):
    # 1e-4*phi and 1e-4*gamma*phi, phi = kappa*(P* - p0) at kappa=20 and
    # gamma=0.15, not the defaults' kappa and gamma
    _passed, detail = off_defaults[7]
    assert "(tol 9.218e-03)" in detail
    assert "(tol 1.383e-03)" in detail


def test_the_depression_mirror_fails_a_run_with_no_boom():
    # n2=0: no claims are judged, so none of the shape checks can pass
    epi = epidemic_pass(EpidemicParams(n2=0.0), Grid(0.0, 300.0, 1e-2))
    passed, detail = verify.check_depression(simulate_myopic(SupplyCurve(), epi))
    assert not passed
    assert "trough leads False, reverts False, U-shape False" in detail


# ---------------------------------------------------------------------------
# a criterion turns red on a run broken in its own number
# ---------------------------------------------------------------------------


class DefaultRun(NamedTuple):
    """The defaults' run as run_verification hands it to the criteria (its
    timelines at 2*dt, dt and dt/2 and the dt/2 run's myopic leg, fine,
    among them), with the directory criterion 13 writes its two sweep
    files to."""
    epi: EpidemicTrajectory
    myopic: MarketTrajectory
    rational: MarketTrajectory
    judged: PropositionReport
    timelines: tuple[EventTimeline, EventTimeline, EventTimeline]
    fine: MarketTrajectory
    rows: list[SweepResult]
    out: Path


@pytest.fixture(scope="module")
def defaults(tmp_path_factory):
    params, curve, grid = EpidemicParams(), SupplyCurve(), Grid(0.0, 300.0, 1e-2)
    epi = epidemic_pass(params, grid)
    legs, judged, _error = judge_run(curve, epi, "rational")
    (_, myopic), (_, rational) = legs
    coarse, fine, fine_myopic = _refined(curve, params, grid)
    rows = parameter_sweep(params, curve, grid)
    return DefaultRun(epi, myopic, rational, judged, (coarse, judged.timeline, fine),
                      fine_myopic, rows, tmp_path_factory.mktemp("broken"))


def _with_plateau(leg, **changes):
    return replace(leg, plateau=replace(leg.plateau, **changes))


def _gamma_off(d):
    """The defaults' pass stepped at a gamma 1% off, labelled with the
    default params."""
    params = d.epi.params
    off = epidemic_pass(replace(params, gamma=1.01 * params.gamma), d.epi.grid)
    assert abs(float(np.max(off.i)) - float(np.max(d.epi.i))) > 1.0
    return replace(off, params=params)


def _timelines_with(d, k, **changes):
    """The run's timelines at 2*dt, dt and dt/2 with the k-th changed."""
    timelines = list(d.timelines)
    timelines[k] = replace(timelines[k], **changes)
    return timelines


def _doubled_at(values, k):
    out = values.copy()
    out[k] *= 2.0
    return out


def _unimodal_failed(rows):
    """rows with the first row's price_unimodal claim turned to fail."""
    first = rows[0]
    claim = replace(first.claims["price_unimodal"], status="fail")
    return [replace(first, claims={**first.claims, "price_unimodal": claim}), *rows[1:]]


# each criterion handed the defaults' run with one number broken, and the
# words its detail must name the breach in; a compound criterion has one
# case per part (6-ratio, 12-t_p_star). Criterion 02 steps its own passes
# from the pass's params and grid, so no broken run turns it red
# (test_a_criterion_stepping_its_own_passes_passes_a_broken_run)
BROKEN = {
    "1": (lambda d: verify.check_conservation(replace(d.epi, r=d.epi.r + 1e-3)),
          "max |S+I+R-N| = 1.000e-03"),
    # criterion 03 continues the run's own pass at the run's point
    "3": (lambda d: verify.check_final_size(_gamma_off(d)),
          "worst relative gap over 9 points = 3.670e-04"),
    # I doubled at t=200, long after the peak, where it still decays
    "4": (lambda d: verify.check_infection_peak(replace(d.epi, i=_doubled_at(d.epi.i, 20000))),
          "2 interior maxima"),
    "5": (lambda d: verify.check_boom_shape(_unimodal_failed(d.rows)), "unimodal False"),
    "6": (lambda d: verify.check_quadrature(replace(d.myopic, x=d.myopic.x * (1 + 1e-3)), d.fine),
          "max rel err 9.991e-04"),
    "6-ratio": (lambda d: verify.check_quadrature(d.myopic, replace(d.fine, x=d.fine.x * (1 + 1e-3))),
                "refinement ratio 0.00 (need >= 2)"),
    "7": (lambda d: verify.check_plateau_closure(
              _with_plateau(d.rational, residual_absorption=1.0), d.judged.claims),
          "|h(t2)| = 1.000e+00"),
    # the rational leg priced 1e-3 lower, below the myopic leg before t1
    "8": (lambda d: verify.check_claim(
              check_propositions(d.myopic, replace(d.rational, p=d.rational.p - 1e-3)).claims,
              "re_price_dominates_pre_plateau"),
          "min(P_re - P_m) on (10*dt, t1] = -9.696e-04"),
    # the plateau's P* 1.0 higher, above the myopic peak
    "9": (lambda d: verify.check_re_lower_peak(check_propositions(
              d.myopic, _with_plateau(d.rational, p_star=d.rational.plateau.p_star + 1.0)).claims,
              d.rows),
          "defaults: P*_m - P*_re = -0.474639"),
    # t1 moved 5.5 later, past t_P* (5.022 after it) but before t2
    "10": (lambda d: verify.check_ordering_chain(check_propositions(
               d.myopic, _with_plateau(d.rational, t1=d.rational.plateau.t1 + 5.5)), d.rows),
           "defaults gaps -0.478/0.649/0.624"),
    # beta=1e-3, gamma=0.05 drives the slump at kappa=400 through its floor
    "11": (lambda d: verify.check_depression(simulate_myopic(
               d.myopic.curve, epidemic_pass(EpidemicParams(beta=1e-3, gamma=0.05), d.epi.grid))),
           "kappa=400: price path hit the floor"),
    "12": (lambda d: verify.check_event_convergence(
               *_timelines_with(d, 1, t1=d.timelines[1].t1 + 1e-9)),
           "t1 gaps 1.00e-09 -> 1.00e-09"),
    # the fine run's t_P* one node, its dt, late
    "12-t_p_star": (lambda d: verify.check_event_convergence(
                        *_timelines_with(d, 2, t_p_star_m=d.timelines[2].t_p_star_m
                                         + d.fine.epi.grid.dt)),
                    "t_P* gaps 7.08e-06 -> 5.00e-03"),
    "13": (lambda d: verify.check_determinism(d.myopic, _unimodal_failed(d.rows), d.out),
           "identical to each of 9 points swept alone: False"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_a_criterion_fails_a_run_broken_in_its_number(defaults, case):
    check, words = BROKEN[case]
    passed, detail = check(defaults)
    print(f"criterion {case}: {detail}")
    assert passed is False
    assert words in detail


@pytest.mark.parametrize("check", [verify.check_first_integrals], ids=["02"])
def test_a_criterion_stepping_its_own_passes_passes_a_broken_run(defaults, check):
    """Criterion 02 reads only the pass's params and grid: handed a pass
    stepped at a gamma 1% off but labelled with the default params, it
    still passes, as it judges the integrator, not the run. A change that
    makes it judge the run's arrays fails this test; its case then belongs
    in BROKEN."""
    passed, detail = check(_gamma_off(defaults))
    print(detail)
    assert passed, detail
