"""Property tests: config round trips, pass sharing and the step bound,
SIR conservation, the depression mirror, sweep determinism, the rational
head against the full rational path, and CLI exit codes.

Every property runs derandomized and without an example database, so a
run draws the same examples each time.
"""
from __future__ import annotations

from dataclasses import fields, replace
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    epidemic_pass,
    parameter_sweep,
    re_price_path,
    simulate_depression,
    simulate_epidemic,
    simulate_myopic,
    simulate_re_given_t1,
    write_sweep_csv,
)
from epimarket import analysis, cli, rational
from epimarket.config import ScenarioConfig, parse_config, serialize_config
from epimarket.epidemic import RK4_STABILITY
from epimarket.errors import ConfigError, GridTooCoarseError, PriceFloorError, SimulationError

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def _configs(draw):
    dt = draw(st.floats(min_value=1e-3, max_value=1.0))
    kwargs = dict(
        beta=draw(st.floats(min_value=0.0, max_value=1e6)),
        gamma=draw(_positive),
        n1=draw(_positive),
        n2=draw(st.floats(min_value=0.0, max_value=1e6)),
        n3=draw(st.floats(min_value=0.0, max_value=1e6)),
        endowment=draw(_positive),
        p0=draw(_positive),
        kappa=draw(_positive),
        t_end=draw(st.integers(1, 10_000)) * dt,
        dt=dt,
        scenario=draw(st.sampled_from(("myopic", "rational", "depression", "all"))),
        out_dir=draw(st.text(max_size=12)),
        format=draw(st.sampled_from(("csv", "json"))),
        sweep=draw(st.dictionaries(
            st.sampled_from(("beta", "gamma", "n1", "kappa")),
            st.lists(_finite, min_size=1, max_size=4),
        )),
    )
    try:
        return ScenarioConfig(**kwargs)
    except ConfigError:
        assume(False)


@DETERMINISTIC
@given(_configs())
def test_config_survives_serialize_and_parse(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


# ---------------------------------------------------------------------------
# a run carries the S, I and R of the SIR pass it is given, and a grid is
# refused if and only if it lies beyond RK4's stability interval
# ---------------------------------------------------------------------------

_STEPS = 2000


def _outcome(fn, *args):
    """The bytes of a run's arrays, or (type, time, message) of what it raised."""
    try:
        traj = fn(*args)
    except SimulationError as exc:
        return type(exc), getattr(exc, "time", None), str(exc)
    return tuple(getattr(traj, name).tobytes() for name in "sirxp")


@DETERMINISTIC
# (beta*N + gamma)*dt = 2.801 is refused, 2.001 runs
@example(beta=0.28, gamma=0.1, dt=1e-2, kappa=10.0, mirror=False)
@example(beta=0.2, gamma=0.1, dt=1e-2, kappa=10.0, mirror=False)
@given(
    beta=st.floats(min_value=-5.0, max_value=1.0).map(lambda e: 10.0 ** e),
    gamma=st.floats(min_value=1e-3, max_value=10.0),
    dt=st.sampled_from((1e-3, 1e-2, 5e-2)),
    kappa=st.floats(min_value=1.0, max_value=1e4),
    mirror=st.booleans(),
)
def test_shared_pass_gives_the_same_run_or_error(beta, gamma, dt, kappa, mirror):
    params = EpidemicParams(beta=beta, gamma=gamma)
    curve = SupplyCurve(kappa=kappa)
    grid = Grid(0.0, _STEPS * dt, dt)
    simulate = simulate_depression if mirror else simulate_myopic
    if (beta * params.total + gamma) * dt > RK4_STABILITY:
        run = _outcome(lambda: simulate(curve, epidemic_pass(params, grid)))
        assert run[0] is GridTooCoarseError
        assert "use dt <= 2.785/(beta*N + gamma)" in run[2]
        return
    epi = epidemic_pass(params, grid)
    assert epi.drives.shape == (_STEPS, 4)
    assert len(epi.s) == len(epi.i) == len(epi.r) == _STEPS + 1
    run = _outcome(simulate, curve, epi)
    if isinstance(run[0], bytes):
        assert run[:3] == (epi.s.tobytes(), epi.i.tobytes(), epi.r.tobytes())


# ---------------------------------------------------------------------------
# S + I + R
# ---------------------------------------------------------------------------


@DETERMINISTIC
@given(
    n=st.tuples(st.floats(1.0, 1e4), st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
    rate=st.floats(min_value=0.0, max_value=0.5),
    gamma=st.floats(min_value=1e-3, max_value=5.0),
    dt=st.sampled_from((1e-2, 2e-2, 5e-2)),
)
def test_population_is_conserved_on_stable_epidemics(n, rate, gamma, dt):
    # rate = beta*N*dt, inside RK4's stability interval
    total = sum(n)
    params = EpidemicParams(beta=rate / (total * dt), gamma=gamma,
                            n1=n[0], n2=n[1], n3=n[2])
    epi = simulate_epidemic(params, Grid(0.0, 20.0, dt))
    drift = np.abs(epi.s + epi.i + epi.r - params.total)
    assert float(drift.max()) <= 1e-8 * params.total


# ---------------------------------------------------------------------------
# the depression mirrors the boom
# ---------------------------------------------------------------------------

_MIRROR = Grid(0.0, 40.0, 2e-2)


@DETERMINISTIC
@given(
    log_beta=st.floats(min_value=-3.6, max_value=-2.7),
    gamma=st.floats(min_value=0.05, max_value=0.5),
    log_kappa=st.floats(min_value=1.0, max_value=4.0),
)
def test_depression_price_mirrors_the_boom_off_the_floor(log_beta, gamma, log_kappa):
    params = EpidemicParams(beta=10.0 ** log_beta, gamma=gamma)
    curve = SupplyCurve(kappa=10.0 ** log_kappa)
    epi = epidemic_pass(params, _MIRROR)
    try:
        dep = simulate_depression(curve, epi)
    except PriceFloorError:
        assume(False)
    boom = simulate_myopic(curve, epi)
    mirror_err = np.abs(dep.p - (2.0 * curve.p0 - boom.p))
    assert float(mirror_err.max()) <= 1e-12


# ---------------------------------------------------------------------------
# sweep bytes equal those of each point swept alone
# ---------------------------------------------------------------------------

_SWEEP = Grid(0.0, 80.0, 2e-2)
_AXIS_VALUES = {
    "beta": st.floats(min_value=2.5e-4, max_value=1e-3),
    "gamma": st.floats(min_value=0.05, max_value=0.2),
    "kappa": st.floats(min_value=5.0, max_value=400.0),
}


@st.composite
def _small_axes(draw):
    names = draw(st.lists(st.sampled_from(sorted(_AXIS_VALUES)),
                          min_size=1, max_size=2, unique=True))
    return {name: draw(st.lists(_AXIS_VALUES[name], min_size=1, max_size=2))
            for name in names}


@settings(DETERMINISTIC, max_examples=6)
@given(axes=_small_axes())
@example(axes={"kappa": [5.0, 400.0]})
def test_sweep_csv_bytes_match_each_point_swept_alone(tmp_path_factory, axes):
    # points of one epidemic share its SIR pass in the sweep; swept alone,
    # each has its own, so a point leaking into the shared pass shows here
    out = tmp_path_factory.mktemp("sweep")
    params, curve = EpidemicParams(), SupplyCurve()
    write_sweep_csv(parameter_sweep(params, curve, _SWEEP, axes=axes),
                    out / "sweep.csv")
    alone = [
        replace(parameter_sweep(params, curve, _SWEEP,
                                axes={k: [v] for k, v in point.items()})[0],
                index=index)
        for index, point in enumerate(analysis.grid_points(axes))
    ]
    write_sweep_csv(alone, out / "alone.csv")
    assert (out / "sweep.csv").read_bytes() == (out / "alone.csv").read_bytes()


# ---------------------------------------------------------------------------
# the rational head gives what the full path gives, errors included
# ---------------------------------------------------------------------------

# about half the draws of beta lie in the sweep's range; the rest reach 1,
# where beta*N*dt is up to 20, far beyond RK4's stability interval: the
# package refuses those grids, and on their unchecked drives, which turn
# negative, legs reach the price floor
_HEAD_GRIDS = (Grid(0.0, 20.0, 1e-2), _SWEEP)
_HEAD_LOG_BETA = st.one_of(st.floats(min_value=-3.6, max_value=-3.0),
                           st.floats(min_value=-3.0, max_value=0.0))


def _run(fn, *args):
    """What fn returns, or (type, time, message) of what it raised."""
    try:
        return fn(*args)
    except SimulationError as exc:
        return type(exc), getattr(exc, "time", None), str(exc)


def _head_at(params, curve, t1, grid, epi):
    """simulate_re_given_t1's path up to its closing node."""
    zs, hs = rational._accumulate(params, curve, epi, rational._node_below(grid, t1))
    return rational._replay(params, curve, t1, epi, zs, hs, unwind=False)[0]


@settings(DETERMINISTIC, max_examples=25)
# the plateau collapses at t1 and the unwind reaches the floor at t=0.015
@example(log_beta=0.0, gamma=0.1, kappa=10.0, grid=_HEAD_GRIDS[0], frac=0.0)
@given(
    log_beta=_HEAD_LOG_BETA,
    gamma=st.floats(min_value=0.05, max_value=0.2),
    kappa=st.floats(min_value=1.0, max_value=400.0),
    grid=st.sampled_from(_HEAD_GRIDS),
    frac=st.floats(min_value=0.0, max_value=0.05),
)
def test_the_rational_head_gives_what_the_full_path_gives(unchecked_pass, log_beta,
                                                          gamma, kappa, grid, frac):
    params = EpidemicParams(beta=10.0 ** log_beta, gamma=gamma)
    curve = SupplyCurve(kappa=kappa)
    # sweep rows judged on the head and on the full re_price_path
    axes = {"beta": [params.beta], "gamma": [gamma], "kappa": [kappa]}
    head_rows = parameter_sweep(EpidemicParams(), SupplyCurve(), grid, axes=axes)
    with mock.patch.object(analysis, "re_price_head", re_price_path):
        full_rows = parameter_sweep(EpidemicParams(), SupplyCurve(), grid, axes=axes)
    for head, full in zip(head_rows, full_rows, strict=True):
        for f in fields(head):
            assert repr(getattr(head, f.name)) == repr(getattr(full, f.name)), f.name
    # the head at any t1 fails as the full path does, or is its start
    try:
        epi = epidemic_pass(params, grid)
    except GridTooCoarseError:
        epi = unchecked_pass(params, grid)
    t1 = grid.t_start + frac * (grid.t_end - grid.t_start)
    head = _run(_head_at, params, curve, t1, grid, epi)
    full = _run(lambda: simulate_re_given_t1(curve, t1, epi)[0])
    if isinstance(full, tuple):
        assert head == full
        return
    n = len(head.p)
    assert n == len(full.p) or n == full.post_start + 1
    assert (head.t2, head.post_start) == (full.t2, full.post_start)
    for name in "zhxp":
        assert getattr(head, name).tobytes() == getattr(full, name)[:n].tobytes(), name


# ---------------------------------------------------------------------------
# the CLI returns a documented exit code on any arguments
# ---------------------------------------------------------------------------

# verify is left out: one well-formed call runs the whole battery
_GOOD_CONFIGS = {
    "kappa400.cfg": "kappa=400\n",
    "unstable.cfg": "beta=5\n",
    "noboom.cfg": "gamma=0.6\n",
    "axes.cfg": "sweep.kappa=5,400\nsweep.beta=5e-4\n",
    "json.cfg": '{"kappa": 20, "scenario": "all"}',
}
_BAD_CONFIGS = {
    "badaxis.cfg": "sweep.n2=1,2\n",
    "broken.cfg": "{",
    "unknown.cfg": "colour=blue\n",
}


def _mostly(valid, invalid):
    """A value from valid about two draws in three, else one from invalid."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(invalid))


_PAIRS = {
    "--scenario": _mostly(("myopic", "rational", "depression", "all"), ("none",)),
    "--format": _mostly(("csv", "json"), ("xml",)),
    "--workers": _mostly(("1", "2", "3", "4"), ("0", "two")),
    "--config": _mostly(tuple(_GOOD_CONFIGS), tuple(_BAD_CONFIGS) + ("missing.cfg",)),
}
_LONE = ("--dt", "--bogus", "stray", "-h")
# the last --dt and --horizon win, so a well-formed run takes at most
# 40 / 1e-2 = 4000 steps (16000 after a sweep point's two dt halvings)
_DT = _mostly(("0.02", "0.01", "0.5"), ("0", "-0.01", "nan", "abc"))
_HORIZON = _mostly(("40", "5", "0.5"), ("0", "-5", "inf", "1e300"))


@st.composite
def _cli_argv(draw):
    argv = [draw(_mostly(("simulate", "sweep"), ("frobnicate", "--bogus")))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 4)):
            flag = draw(st.sampled_from(sorted(_PAIRS)))
            argv += [flag, draw(_PAIRS[flag])]
        else:
            argv.append(draw(st.sampled_from(_LONE)))
    argv += ["--dt", draw(_DT), "--horizon", draw(_HORIZON)]
    return argv, draw(_mostly(("dir",), ("file", "under-file")))


@settings(DETERMINISTIC, max_examples=100)
@given(drawn=_cli_argv())
def test_cli_returns_a_documented_exit_code(tmp_path_factory, drawn):
    argv, out_kind = drawn
    base = tmp_path_factory.mktemp("cli")
    for name, text in {**_GOOD_CONFIGS, **_BAD_CONFIGS}.items():
        (base / name).write_text(text, encoding="utf-8")
    (base / "file").write_text("", encoding="utf-8")
    out = {"dir": base / "out", "file": base / "file",
           "under-file": base / "file" / "out"}[out_kind]
    argv = [str(base / a) if a.endswith(".cfg") else a for a in argv]
    assert cli.main(argv + ["--out", str(out)]) in (0, 1, 2, 3)
