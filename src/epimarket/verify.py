"""Full verification battery over the default parameter point.

Thirteen independent checks cover conservation, the two first integrals,
the final-size equation, the infection peak, the boom peak lead, the
kernel-vs-state oracle, plateau closure, pre-plateau dominance, the lower
rational peak, the event ordering chain, the depression mirror, event-time
convergence under grid refinement, and determinism (the sweep against
each point swept alone). Each check returns a verdict with measured
numbers and asserts nothing; callers (CLI and tests) surface failures.

All artifacts written by a verification run are deterministic byte-for-
byte: numbers use shortest round-trip formatting and no timestamps are
embedded.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    build_timeline,
    check_propositions,
    default_sweep_axes,
    grid_points,
    parameter_sweep,
    refine_peak,
)
from .epidemic import (
    EpidemicParams,
    epidemic_pass,
    infection_peak,
    simulate_epidemic,
    steady_state_recovered,
)
from .errors import PriceFloorError
from .market import (
    SupplyCurve,
    cohort_holdings_profile,
    simulate_depression,
    simulate_myopic,
)
from .numerics import Grid
from .output import (
    prepare_out_dir,
    write_legs,
    write_sweep_csv,
    write_timeline_json,
)
from .rational import re_price_path, solve_plateau


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"criterion {self.criterion:02d} {self.name}: {word} [{self.detail}]"


@dataclass(frozen=True)
class VerificationReport:
    results: list[CheckResult]
    artifacts: list[str]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _drifts(params: EpidemicParams, dt: float) -> tuple[float, float]:
    epi = simulate_epidemic(params, Grid(0.0, 300.0, dt))
    th = params.threshold
    fi_i = epi.i + epi.s - th * np.log(epi.s)
    fi_r = epi.r + th * np.log(epi.s)
    return (float(np.max(np.abs(fi_i - fi_i[0]))),
            float(np.max(np.abs(fi_r - fi_r[0]))))


def check_conservation(params, epi) -> CheckResult:
    total = params.total
    err = float(np.max(np.abs(epi.s + epi.i + epi.r - total)))
    tol = 1e-8 * total
    return CheckResult(1, "conservation", err <= tol,
                       f"max |S+I+R-N| = {err:.3e}, tol {tol:.3e}")


def check_first_integrals(params) -> CheckResult:
    """Drift bound at dt=1e-3, convergence order on dt=4e-2 -> 2e-2.

    At dt=1e-3 RK4's truncation drift (~1e-14) is below one ulp of S, so
    the drift there is roundoff and no halving ratio can be read off it.
    The order clause therefore uses a pair whose drift is truncation error
    (~1e-8, about 100x the roundoff level): a halving must shrink it at
    least 8x (order >= 3), where RK4 gives 16x and a second-order method 4x.
    """
    tol = 1e-6 * params.total
    di, dr = _drifts(params, 1e-3)
    ci, cr = _drifts(params, 4e-2)
    fi, fr = _drifts(params, 2e-2)
    ratio_i = ci / fi if fi > 0 else float("inf")
    ratio_r = cr / fr if fr > 0 else float("inf")
    small = di <= tol and dr <= tol
    shrinks = ratio_i >= 8.0 and ratio_r >= 8.0
    return CheckResult(
        2, "first_integrals", small and shrinks,
        f"drifts at dt=1e-3: {di:.3e}/{dr:.3e} (tol {tol:.3e}); "
        f"drifts at dt=4e-2 -> 2e-2: {ci:.3e}/{cr:.3e} -> {fi:.3e}/{fr:.3e}, "
        f"halving ratios {ratio_i:.2f}/{ratio_r:.2f} (need >= 8)",
    )


def _integrate_until_extinct(params, dt: float) -> tuple[float, float]:
    """R at the first chunk end where I < 1e-10 (long-horizon oracle)."""
    p = params
    t = 0.0
    while t < 4800.0:
        epi = simulate_epidemic(p, Grid(t, t + 300.0, dt))
        t += 300.0
        if float(epi.i[-1]) < 1e-10:
            return float(epi.r[-1]), t
        # continue from the chunk's end state
        p = replace(p, n1=float(epi.s[-1]), n2=float(epi.i[-1]),
                    n3=float(epi.r[-1]))
    return float(epi.r[-1]), t


def check_final_size(params, grid) -> CheckResult:
    worst = 0.0
    horizon = 0.0
    betas = [2.5e-4, 5e-4, 1e-3]
    gammas = [0.05, 0.1, 0.2]
    points = [params] + [replace(params, beta=b, gamma=g)
                         for b in betas for g in gammas]
    for p in points:
        r_inf = steady_state_recovered(p)
        r_end, t_end = _integrate_until_extinct(p, grid.dt)
        rel = abs(r_end - r_inf) / r_inf
        worst = max(worst, rel)
        horizon = max(horizon, t_end)
    return CheckResult(3, "final_size", worst <= 1e-5,
                       f"worst relative gap over {len(points)} points = "
                       f"{worst:.3e}, tol 1e-05 (horizons up to t={horizon:.0f})")


def check_infection_peak(params, epi) -> CheckResult:
    grid = epi.grid
    peak = infection_peak(params, epi)
    th = params.threshold
    s_err = abs(peak.s_star - th)
    i_inner = epi.i[1:-1]
    n_max = int(np.sum((i_inner > epi.i[:-2]) & (i_inner >= epi.i[2:])))
    no_peak_params = replace(params, gamma=0.6)  # threshold 1200 > n1
    short = simulate_epidemic(no_peak_params, Grid(0.0, 50.0, grid.dt))
    no_peak = not infection_peak(no_peak_params, short).exists
    ok = s_err <= 1e-4 * th and n_max == 1 and no_peak
    return CheckResult(
        4, "infection_peak", ok,
        f"|S(t_I*)-gamma/beta| = {s_err:.3e} (tol {1e-4 * th:.3e}); "
        f"{n_max} interior maxima; no-peak detected: {no_peak}",
    )


def _boom_rows(rows):
    return [r for r in rows if r.error is None and r.timeline is not None
            and r.timeline.boom]


def check_peak_lead_sweep(rows) -> CheckResult:
    booms = _boom_rows(rows)
    lead = all(r.claims["price_peak_leads_infection_peak"].status == "pass"
               for r in booms)
    rever = all(r.claims["long_run_price_returns"].status == "pass"
                for r in booms)
    unimod = all(r.claims["price_unimodal"].status == "pass" for r in booms)
    ok = len(booms) >= 9 and lead and rever and unimod
    return CheckResult(
        5, "myopic_boom_shape", ok,
        f"{len(booms)} boom points: peak-lead {lead}, "
        f"long-run reversion {rever}, unimodal {unimod}",
    )


def check_quadrature(params, curve, myopic) -> CheckResult:
    def max_rel(traj):
        q = cohort_holdings_profile(traj)
        x = traj.x
        err = np.abs(q[1:] - x[1:]) / np.abs(x[1:])
        return float(np.max(err))

    e1 = max_rel(myopic)
    fine = simulate_myopic(curve, epidemic_pass(params, Grid(0.0, 300.0, 5e-3)))
    e2 = max_rel(fine)
    ratio = e1 / e2 if e2 > 0 else float("inf")
    ok = e1 <= 1e-4 and ratio >= 2.0
    return CheckResult(
        6, "kernel_ode_agreement", ok,
        f"max rel err {e1:.3e} at dt=1e-2 (tol 1e-04); "
        f"refinement ratio {ratio:.2f} (need >= 2)",
    )


def check_plateau_closure(sol, claims, params, curve) -> CheckResult:
    phi = curve.kappa * (sol.p_star - curve.p0)
    h_ok = abs(sol.residual_absorption) <= 1e-4 * phi
    gamma = params.gamma
    flow_ok = abs(sol.residual_flow) <= 1e-4 * gamma * phi
    const = claims["plateau_price_constant"]
    ok = h_ok and flow_ok and const.status == "pass"
    return CheckResult(
        7, "plateau_closure", ok,
        f"|h(t2)| = {abs(sol.residual_absorption):.3e} (tol {1e-4 * phi:.3e}); "
        f"|flow(t2)| = {abs(sol.residual_flow):.3e} "
        f"(tol {1e-4 * gamma * phi:.3e}); "
        f"plateau deviation {const.margin:.3e} rel (tol 1e-06)",
    )


def check_re_dominance(claims) -> CheckResult:
    c = claims["re_price_dominates_pre_plateau"]
    return CheckResult(
        8, "re_dominates_pre_plateau", c.status == "pass",
        f"{c.detail}",
    )


def check_re_lower_peak(claims, rows) -> CheckResult:
    c = claims["re_peak_lower"]
    sweep_ok = all(r.claims["re_peak_lower"].status == "pass"
                   for r in _boom_rows(rows))
    return CheckResult(
        9, "re_peak_lower", c.status == "pass" and sweep_ok,
        f"defaults: {c.detail}; holds on all sweep booms: {sweep_ok}",
    )


def check_ordering_chain(timeline, claims, rows) -> CheckResult:
    default_ok = claims["event_ordering_chain"].status == "pass"
    sweep_ok = all(r.claims["event_ordering_chain"].status == "pass"
                   for r in _boom_rows(rows))
    gaps = (timeline.t_p_star_m - timeline.t1,
            timeline.t2 - timeline.t_p_star_m,
            timeline.t_i_star - timeline.t2)
    return CheckResult(
        10, "event_ordering_chain", default_ok and sweep_ok,
        f"defaults gaps {gaps[0]:.3f}/{gaps[1]:.3f}/{gaps[2]:.3f} "
        f"(each > dt); holds on sweep: {sweep_ok}",
    )


def check_depression(params, epi) -> CheckResult:
    """The depression mirror where it exists, and the floor where it cannot.

    simulate_depression admits a path only while the mirrored boom stays
    below 2*p0, so the shape and mirror checks run at kappa=400 (boom peak
    ~1.78*p0). At kappa=100 the boom peaks above 2*p0 and the floor guard
    must raise.
    """
    p0 = 1.0
    shallow = SupplyCurve(p0=p0, kappa=100.0)
    boom_peak = float(np.max(simulate_myopic(shallow, epi).p)) / p0
    try:
        simulate_depression(shallow, epi)
        floors = False
    except PriceFloorError:
        floors = True
    floor_ok = floors and boom_peak >= 2.0
    floor_text = (f"kappa=100: boom peak {boom_peak:.3f}*p0, "
                  f"floor guard raised {floors}")

    deep = SupplyCurve(p0=p0, kappa=400.0)
    try:
        dep = simulate_depression(deep, epi)
    except PriceFloorError as exc:
        return CheckResult(
            11, "depression_mirror", False,
            f"kappa=400: price path hit the floor: {exc}; {floor_text}",
        )
    boom = simulate_myopic(deep, epi)
    mirror_err = float(np.max(np.abs(dep.p - (2.0 * p0 - boom.p))))
    peak = infection_peak(params, epi)
    report = check_propositions(dep, None, None)
    trough_leads = report.claims["price_peak_leads_infection_peak"].status == "pass"
    reverts = report.claims["long_run_price_returns"].status == "pass"
    u_shape = report.claims["price_unimodal"].status == "pass"
    ok = (peak.exists and trough_leads and reverts and u_shape
          and mirror_err <= 1e-12 and floor_ok)
    return CheckResult(
        11, "depression_mirror", ok,
        f"kappa=400: trough {float(np.min(dep.p)):.4f}, "
        f"|P_dep - (2*p0 - P_boom)| = {mirror_err:.1e} (tol 1e-12), "
        f"trough leads {trough_leads}, reverts {reverts}, U-shape {u_shape}; "
        f"{floor_text}",
    )


def check_event_convergence(params, curve) -> CheckResult:
    dts = (2e-2, 1e-2, 5e-3)
    tp = []
    t1 = []
    for dt in dts:
        g = Grid(0.0, 300.0, dt)
        epi = epidemic_pass(params, g)
        traj = simulate_myopic(curve, epi)
        tp.append(refine_peak(traj.times, traj.p)[0])
        t1.append(solve_plateau(curve, epi).t1)
    gp1, gp2 = abs(tp[0] - tp[1]), abs(tp[1] - tp[2])
    g11, g12 = abs(t1[0] - t1[1]), abs(t1[1] - t1[2])
    # shrink-by->=2x; 0 -> 0 (fully grid-stable) satisfies this trivially
    ok_p = 2.0 * gp2 <= gp1
    ok_1 = 2.0 * g12 <= g11

    def _describe(a, b):
        if a == 0.0 and b == 0.0:
            return "identical across refinements"
        return f"gaps {a:.2e} -> {b:.2e}"
    return CheckResult(
        12, "event_time_convergence", ok_p and ok_1,
        f"t_P* {_describe(gp1, gp2)}; t1 {_describe(g11, g12)}; "
        f"each gap must at least halve",
    )


def check_determinism(params, curve, grid, rows, out: Path) -> CheckResult:
    """The sweep against each point swept alone on its own SIR pass, which
    a point leaking into the pass its epidemic group shares fails."""
    alone = [
        replace(parameter_sweep(params, curve, grid,
                                axes={k: [v] for k, v in point.items()})[0],
                index=index)
        for index, point in enumerate(grid_points(default_sweep_axes()))
    ]
    p1 = out / "sweep.csv"
    p2 = out / "sweep_recheck.csv"
    write_sweep_csv(rows, p1)
    write_sweep_csv(alone, p2)
    same = p1.read_bytes() == p2.read_bytes()
    return CheckResult(
        13, "determinism", same,
        f"sweep rows identical to each of {len(alone)} points swept alone: {same}",
    )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_verification(out_dir) -> VerificationReport:
    """Run all thirteen checks at defaults and write the artifact set."""
    out = prepare_out_dir(out_dir)
    params = EpidemicParams()
    curve = SupplyCurve()
    grid = Grid(0.0, 300.0, 1e-2)

    epi = epidemic_pass(params, grid)
    myopic = simulate_myopic(curve, epi)
    peak = infection_peak(params, epi)
    rational = re_price_path(curve, epi)
    timeline = build_timeline(myopic, rational, peak)
    claims = check_propositions(myopic, rational, timeline).claims
    rows = parameter_sweep(params, curve, grid)

    results = [
        check_conservation(params, epi),
        check_first_integrals(params),
        check_final_size(params, grid),
        check_infection_peak(params, epi),
        check_peak_lead_sweep(rows),
        check_quadrature(params, curve, myopic),
        check_plateau_closure(rational.solution, claims, params, curve),
        check_re_dominance(claims),
        check_re_lower_peak(claims, rows),
        check_ordering_chain(timeline, claims, rows),
        check_depression(params, epi),
        check_event_convergence(params, curve),
        check_determinism(params, curve, grid, rows, out),
    ]

    series, plots = write_legs([("myopic", myopic), ("rational", rational)],
                               "csv", out)
    artifacts = [
        *series,
        *plots,
        write_timeline_json(timeline, claims, out / "timeline.json"),
        str(out / "sweep.csv"),
        str(out / "sweep_recheck.csv"),
    ]
    report = VerificationReport(results=results, artifacts=artifacts)
    _write_verification_json(report, out / "verification.json")
    return report


def _write_verification_json(report: VerificationReport, path: Path) -> None:
    import json

    payload = {
        "ok": report.ok,
        "criteria": [
            {"criterion": r.criterion, "name": r.name,
             "passed": r.passed, "detail": r.detail}
            for r in report.results
        ],
        # basenames keep the file identical for any artifact directory
        "artifacts": [Path(p).name for p in report.artifacts],
    }
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
