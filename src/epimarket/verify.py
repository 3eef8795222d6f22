"""Full verification battery over the default parameter point.

Thirteen independent checks cover conservation, the two first integrals,
the final-size equation, the infection peak, the boom peak lead, the
kernel-vs-state oracle, plateau closure, pre-plateau dominance, the lower
rational peak, the event ordering chain, the depression mirror, event-time
convergence under grid refinement, and determinism (the sweep against
each point swept alone). Each check reads the run it judges (its SIR
pass, legs, claims, timelines or sweep rows, and their params, grid and
curve) and returns (passed, detail), asserting nothing; `run_verification`
numbers and names the checks in one table, hands them the run
`analysis.judge_run` builds and judges, at dt and at 2*dt and dt/2, and
returns their results for callers to surface.

All artifacts written by a verification run are deterministic byte-for-
byte: numbers use shortest round-trip formatting and no timestamps are
embedded.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    EVENT_CHAIN,
    default_sweep_axes,
    grid_points,
    judge_run,
    parameter_sweep,
    summarize_sweep,
)
from .config import ScenarioConfig
from .epidemic import (
    EpidemicParams,
    epidemic_pass,
    infection_peak,
    steady_state_recovered,
)
from .errors import PriceFloorError
from .market import (
    cohort_holdings_profile,
    simulate_depression,
    simulate_myopic,
)
from .numerics import Grid
from .output import (
    prepare_out_dir,
    write_json,
    write_legs,
    write_sweep_csv,
    write_timeline_json,
)


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"criterion {self.criterion:02d} {self.name}: {word} [{self.detail}]"


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _drifts(params: EpidemicParams, grid: Grid) -> tuple[float, float]:
    epi = epidemic_pass(params, grid)
    th = params.threshold
    fi_i = epi.i + epi.s - th * np.log(epi.s)
    fi_r = epi.r + th * np.log(epi.s)
    return (float(np.max(np.abs(fi_i - fi_i[0]))),
            float(np.max(np.abs(fi_r - fi_r[0]))))


def check_conservation(epi) -> tuple[bool, str]:
    total = epi.params.total
    err = float(np.max(np.abs(epi.s + epi.i + epi.r - total)))
    tol = 1e-8 * total
    return err <= tol, f"max |S+I+R-N| = {err:.3e}, tol {tol:.3e}"


def check_first_integrals(epi) -> tuple[bool, str]:
    """Drift bound at dt=1e-3, convergence order on dt=4e-2 -> 2e-2, each
    over the span of the pass.

    At dt=1e-3 RK4's truncation drift (~1e-14) is below one ulp of S, so
    the drift there is roundoff and no halving ratio can be read off it.
    The order clause therefore uses a pair whose drift is truncation error
    (~1e-8, about 100x the roundoff level): a halving must shrink it at
    least 8x (order >= 3), where RK4 gives 16x and a second-order method 4x.
    """
    tol = 1e-6 * epi.params.total
    di, dr = _drifts(epi.params, replace(epi.grid, dt=1e-3))
    ci, cr = _drifts(epi.params, replace(epi.grid, dt=4e-2))
    fi, fr = _drifts(epi.params, replace(epi.grid, dt=2e-2))
    ratio_i = ci / fi if fi > 0 else float("inf")
    ratio_r = cr / fr if fr > 0 else float("inf")
    small = di <= tol and dr <= tol
    shrinks = ratio_i >= 8.0 and ratio_r >= 8.0
    return small and shrinks, (
        f"drifts at dt=1e-3: {di:.3e}/{dr:.3e} (tol {tol:.3e}); "
        f"drifts at dt=4e-2 -> 2e-2: {ci:.3e}/{cr:.3e} -> {fi:.3e}/{fr:.3e}, "
        f"halving ratios {ratio_i:.2f}/{ratio_r:.2f} (need >= 8)"
    )


def _integrate_until_extinct(epi) -> tuple[float, float]:
    """R and the time at the first chunk end where I < 1e-10 (long-horizon
    oracle): the pass epi, then at most 15 chunks as long as it, at its dt."""
    t0, span = epi.grid.t_start, epi.grid.t_end - epi.grid.t_start
    for k in range(1, 16):
        s, i, r = epi.state_at(-1)
        if i < 1e-10:
            break
        start = t0 + k * span  # the next chunk starts from this end state
        epi = epidemic_pass(replace(epi.params, n1=s, n2=i, n3=r),
                            Grid(start, start + span, epi.grid.dt))
    return epi.state_at(-1)[2], epi.grid.t_end


def check_final_size(epi) -> tuple[bool, str]:
    worst = 0.0
    horizon = 0.0
    betas = [2.5e-4, 5e-4, 1e-3]
    gammas = [0.05, 0.1, 0.2]
    # the run's params first, on the run's own pass, then each grid point it
    # does not repeat, each on a new pass
    points = list(dict.fromkeys([epi.params] + [replace(epi.params, beta=b, gamma=g)
                                                for b in betas for g in gammas]))
    for p in points:
        r_inf = steady_state_recovered(p)
        run = epi if p == epi.params else epidemic_pass(p, epi.grid)
        r_end, t_end = _integrate_until_extinct(run)
        rel = abs(r_end - r_inf) / r_inf
        worst = max(worst, rel)
        horizon = max(horizon, t_end)
    return worst <= 1e-5, (f"worst relative gap over {len(points)} points = "
                           f"{worst:.3e}, tol 1e-05 (horizons up to t={horizon:.0f})")


def check_infection_peak(epi) -> tuple[bool, str]:
    params = epi.params
    peak = infection_peak(params, epi)
    th = params.threshold
    s_err = abs(peak.s_star - th)
    i_inner = epi.i[1:-1]
    n_max = int(np.sum((i_inner > epi.i[:-2]) & (i_inner >= epi.i[2:])))
    no_peak_params = replace(params, gamma=1.2 * params.beta * params.n1)  # threshold 1.2*n1
    short = epidemic_pass(no_peak_params, Grid(0.0, 50.0, epi.grid.dt))
    no_peak = not infection_peak(no_peak_params, short).exists
    ok = s_err <= 1e-4 * th and n_max == 1 and no_peak
    return ok, (f"|S(t_I*)-gamma/beta| = {s_err:.3e} (tol {1e-4 * th:.3e}); "
                f"{n_max} interior maxima; no-peak detected: {no_peak}")


# the claims a one-leg run is judged on, a boom's or its depression mirror's
SHAPE_CLAIMS = ("price_peak_leads_infection_peak", "long_run_price_returns", "price_unimodal")


def _on_sweep_booms(rows, name) -> bool:
    # the boom rows are those that judged claims: no boom, no claims
    return all(row.claims[name].status == "pass" for row in rows if row.claims)


def check_boom_shape(rows) -> tuple[bool, str]:
    booms = summarize_sweep(rows)["booms"]
    lead, rever, unimod = (_on_sweep_booms(rows, name) for name in SHAPE_CLAIMS)
    ok = booms >= 9 and lead and rever and unimod
    return ok, (
        f"{booms} boom points: peak-lead {lead}, "
        f"long-run reversion {rever}, unimodal {unimod}"
    )


def check_quadrature(myopic, fine) -> tuple[bool, str]:
    """The cohort quadrature against the holdings of the myopic leg on the
    run's grid and of the myopic leg at half its dt (fine)."""
    def max_rel(traj):
        q = cohort_holdings_profile(traj)
        x = traj.x
        err = np.abs(q[1:] - x[1:]) / np.abs(x[1:])
        return float(np.max(err))

    e1 = max_rel(myopic)
    e2 = max_rel(fine)
    ratio = e1 / e2 if e2 > 0 else float("inf")
    ok = e1 <= 1e-4 and ratio >= 2.0
    return ok, (
        f"max rel err {e1:.3e} at dt={myopic.epi.grid.dt:g} (tol 1e-04); "
        f"refinement ratio {ratio:.2f} (need >= 2)"
    )


def check_plateau_closure(rational, claims) -> tuple[bool, str]:
    sol, curve = rational.plateau, rational.curve
    phi = curve.kappa * (sol.p_star - curve.p0)
    h_ok = abs(sol.residual_absorption) <= 1e-4 * phi
    gamma = rational.epi.params.gamma
    flow_ok = abs(sol.residual_flow) <= 1e-4 * gamma * phi
    const = claims["plateau_price_constant"]
    ok = h_ok and flow_ok and const.status == "pass"
    return ok, (
        f"|h(t2)| = {abs(sol.residual_absorption):.3e} (tol {1e-4 * phi:.3e}); "
        f"|flow(t2)| = {abs(sol.residual_flow):.3e} "
        f"(tol {1e-4 * gamma * phi:.3e}); "
        f"plateau deviation {const.margin:.3e} rel (tol 1e-06)"
    )


def check_claim(claims, name) -> tuple[bool, str]:
    """The run's own verdict on claim name, in its own words."""
    return claims[name].status == "pass", claims[name].detail


def check_re_lower_peak(claims, rows) -> tuple[bool, str]:
    ok, detail = check_claim(claims, "re_peak_lower")
    sweep_ok = _on_sweep_booms(rows, "re_peak_lower")
    return ok and sweep_ok, f"defaults: {detail}; holds on all sweep booms: {sweep_ok}"


def check_ordering_chain(judged, rows) -> tuple[bool, str]:
    default_ok, _ = check_claim(judged.claims, "event_ordering_chain")
    sweep_ok = _on_sweep_booms(rows, "event_ordering_chain")
    gaps = "/".join(f"{judged.timeline.gap(k):.3f}" for k in EVENT_CHAIN)
    return default_ok and sweep_ok, (
        f"defaults gaps {gaps} (each > dt); holds on sweep: {sweep_ok}"
    )


def check_depression(myopic) -> tuple[bool, str]:
    """The depression mirror where it exists, and the floor where it cannot.

    simulate_depression admits a path only while the mirrored boom stays
    below 2*p0, so the shape and mirror checks judge the depression run at
    kappa=400 (`judge_run`; boom peak ~1.78*p0). At kappa=100 the boom
    peaks above 2*p0 and the floor guard must raise.
    """
    curve, epi = myopic.curve, myopic.epi
    p0 = curve.p0
    shallow = replace(curve, kappa=100.0)
    boom_peak = float(np.max(simulate_myopic(shallow, epi).p)) / p0
    try:
        simulate_depression(shallow, epi)
        floors = False
    except PriceFloorError:
        floors = True
    floor_ok = floors and boom_peak >= 2.0
    floor_text = (f"kappa=100: boom peak {boom_peak:.3f}*p0, "
                  f"floor guard raised {floors}")

    try:
        legs, judged, _error = judge_run(replace(curve, kappa=400.0), epi, "depression")
    except PriceFloorError as exc:
        return False, f"kappa=400: price path hit the floor: {exc}; {floor_text}"
    (_, boom), (_, dep) = legs
    mirror_err = float(np.max(np.abs(dep.p - (2.0 * p0 - boom.p))))
    claims = judged.claims  # none where there is no boom
    trough_leads, reverts, u_shape = (
        name in claims and check_claim(claims, name)[0] for name in SHAPE_CLAIMS)
    ok = (trough_leads and reverts and u_shape
          and mirror_err <= 1e-12 and floor_ok)
    return ok, (
        f"kappa=400: trough {float(np.min(dep.p)):.4f}, "
        f"|P_dep - (2*p0 - P_boom)| = {mirror_err:.1e} (tol 1e-12), "
        f"trough leads {trough_leads}, reverts {reverts}, U-shape {u_shape}; "
        f"{floor_text}"
    )


def check_event_convergence(coarse, run, fine) -> tuple[bool, str]:
    """t_P* and t1 read off the timelines of the run judged at 2*dt
    (coarse), dt (run) and dt/2 (fine)."""
    gp1, gp2 = abs(coarse.t_p_star_m - run.t_p_star_m), abs(run.t_p_star_m - fine.t_p_star_m)
    g11, g12 = abs(coarse.t1 - run.t1), abs(run.t1 - fine.t1)
    # shrink-by->=2x; 0 -> 0 (fully grid-stable) satisfies this trivially
    ok_p = 2.0 * gp2 <= gp1
    ok_1 = 2.0 * g12 <= g11

    def _describe(a, b):
        if a == 0.0 and b == 0.0:
            return "identical across refinements"
        return f"gaps {a:.2e} -> {b:.2e}"
    return ok_p and ok_1, (f"t_P* {_describe(gp1, gp2)}; t1 {_describe(g11, g12)}; "
                           f"each gap must at least halve")


def check_determinism(myopic, rows, out: Path) -> tuple[bool, str]:
    """The sweep against each point swept alone on its own SIR pass, which
    a point leaking into the pass its epidemic group shares fails."""
    alone = [
        replace(parameter_sweep(myopic.epi.params, myopic.curve, myopic.epi.grid,
                                axes={k: [v] for k, v in point.items()})[0],
                index=index)
        for index, point in enumerate(grid_points(default_sweep_axes()))
    ]
    p1 = out / "sweep.csv"
    p2 = out / "sweep_recheck.csv"
    write_sweep_csv(rows, p1)
    write_sweep_csv(alone, p2)
    same = p1.read_bytes() == p2.read_bytes()
    return same, f"sweep rows identical to each of {len(alone)} points swept alone: {same}"


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_verification(out_dir) -> list[CheckResult]:
    """Run all thirteen checks on the rational run at the CLI's defaults
    (`judge_run`), write the artifact set and verification.json, and
    return the results in criterion order."""
    out = prepare_out_dir(out_dir)
    cfg = ScenarioConfig()
    params, curve, grid = cfg.params, cfg.curve, cfg.grid

    epi = epidemic_pass(params, grid)
    legs, judged, _error = judge_run(curve, epi, "rational")
    (_, myopic), (_, rational) = legs
    claims = judged.claims
    rows = parameter_sweep(params, curve, grid)
    # the run judged again at twice and at half its dt
    (_, coarse, _), (fine_legs, fine, _) = (
        judge_run(curve, epidemic_pass(params, replace(grid, dt=f * grid.dt)), "rational")
        for f in (2.0, 0.5))
    (_, fine_myopic), _ = fine_legs

    battery = (
        (1, "conservation", check_conservation, epi),
        (2, "first_integrals", check_first_integrals, epi),
        (3, "final_size", check_final_size, epi),
        (4, "infection_peak", check_infection_peak, epi),
        (5, "myopic_boom_shape", check_boom_shape, rows),
        (6, "kernel_ode_agreement", check_quadrature, myopic, fine_myopic),
        (7, "plateau_closure", check_plateau_closure, rational, claims),
        (8, "re_dominates_pre_plateau", check_claim, claims, "re_price_dominates_pre_plateau"),
        (9, "re_peak_lower", check_re_lower_peak, claims, rows),
        (10, "event_ordering_chain", check_ordering_chain, judged, rows),
        (11, "depression_mirror", check_depression, myopic),
        (12, "event_time_convergence", check_event_convergence,
         coarse.timeline, judged.timeline, fine.timeline),
        (13, "determinism", check_determinism, myopic, rows, out),
    )
    results = [CheckResult(number, name, *check(*judges))
               for number, name, check, *judges in battery]

    series, plots = write_legs(legs, "csv", out)
    timeline = write_timeline_json(judged.timeline, claims, out / "timeline.json")
    write_json({
        "ok": all(r.passed for r in results),
        "criteria": [asdict(r) for r in results],
        # basenames keep the file identical for any artifact directory
        "artifacts": [Path(p).name for p in (*series, *plots, timeline)]
                     + ["sweep.csv", "sweep_recheck.csv"],
    }, out / "verification.json")
    return results
