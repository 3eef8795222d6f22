"""epidemic_pass against the loop it replaces.

The oracle is the SIR pass as one Python loop that also writes the demand
table and steps R (the `unchecked_pass` fixture, conftest.py). The
package's loop steps only S and I, and numpy rebuilds the demands and R
after it, in blocks of epidemic.BLOCK steps. The two must agree byte for
byte, also across block edges, off t=0 and at a fine step, and the
rebuild must raise no floating-point warning. A grid beyond RK4's
stability interval is refused before any step, and a population whose
pass could overflow when EpidemicParams is built. Inside both bounds the
pass needs no check: the lemma in EpidemicParams, whose factor bounds an
interval branch-and-bound below proves, keeps every node in the triangle
S, I >= 0, S + I <= N and every value finite, and a property drawn up to
both bounds holds the pass to that.
"""
from __future__ import annotations

import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epimarket import EpidemicParams, Grid, epidemic, epidemic_pass, numerics
from epimarket.errors import ConfigError, GridTooCoarseError
from epimarket.numerics import MAX_STEPS
from test_drive_parity import POPULATION_REFUSAL, assert_refused

B = epidemic.BLOCK


def _bytes(epi):
    return tuple(a.tobytes() for a in (epi.s, epi.i, epi.r, epi.demand))


# (beta, gamma, n1, t_start, n_steps, dt)
CASES = [
    pytest.param(5e-4, 0.1, 999.0, 0.0, n, 1e-2, id=f"steps-{label}")
    for n, label in ((1, "1"), (B - 1, "B-1"), (B, "B"), (B + 1, "B+1"),
                     (2 * B + 1, "2B+1"))
] + [
    pytest.param(5e-4, 0.1, 999.0, 7.5, 12000, 1e-2, id="t_start-7.5"),
    pytest.param(5e-4, 0.1, 999.0, 0.0, 40000, 5e-4, id="dt-5e-4"),
    # (beta*N + gamma)*dt = 2.001, inside RK4's stability interval, but N
    # lies near the float range: beta*I*S would overflow in step 363, and
    # the population is refused up front
    pytest.param(2e-306, 0.1, 1e308, 0.0, 3000, 1e-2, id="overflow"),
    # (beta*N + gamma)*dt = 50, far beyond it: refused before any step
    pytest.param(5.0, 0.1, 999.0, 0.0, 3000, 1e-2, id="beta-5"),
]


@pytest.mark.parametrize("beta,gamma,n1,t_start,n,dt", CASES)
def test_sir_pass_matches_its_loop_oracle(unchecked_pass, beta, gamma, n1, t_start,
                                          n, dt):
    if n1 == 1e308:
        with pytest.raises(ConfigError) as info:
            EpidemicParams(beta=beta, gamma=gamma, n1=n1)
        assert str(info.value) == POPULATION_REFUSAL.format(n="1e+308")
        return
    params = EpidemicParams(beta=beta, gamma=gamma, n1=n1)
    grid = Grid(t_start, t_start + n * dt, dt)
    assert grid.n_steps == n
    if (beta * params.total + gamma) * dt > epidemic.RK4_STABILITY:
        assert_refused(params, grid)
        return
    oracle = unchecked_pass(params, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        epi = epidemic_pass(params, grid)
    assert _bytes(epi) == _bytes(oracle)
    assert epi.demand.shape == (n, 4)


# the exact refusal where no allowed grid is stable: (beta*N + gamma)*dt
# = 2.785 needs 1.08e8 steps over [0, 300], past MAX_STEPS
BETA_1000_REFUSAL = (
    "dt=0.01 is too coarse for RK4: (beta*N + gamma)*dt = 1e+04 lies beyond its "
    "stability interval of about 2.785; no allowed grid runs this input, as "
    "(beta*N + gamma)*span/MAX_STEPS = 30 > 2.785 for span = 300 and MAX_STEPS = "
    "10000000: the finest grid runs a span of at most 27.85")


def test_a_refusal_no_allowed_grid_can_meet_advises_no_dt():
    with pytest.raises(GridTooCoarseError) as exc:
        epidemic_pass(EpidemicParams(beta=1000.0), Grid(0.0, 300.0, 1e-2))
    assert str(exc.value) == BETA_1000_REFUSAL
    # just inside the span it names, the finest grid is admitted and stable
    finest = Grid(0.0, 27.84, 27.84 / MAX_STEPS)
    assert (1000.0 * 1000.0 + 0.1) * finest.dt <= epidemic.RK4_STABILITY


# beta=5 advises 0.0005569; over [0, 5569.5] the finest grid steps at
# 0.00055695, inside the bound 0.00055699 but above that dt, which Grid
# would refuse over the span. The finest grid runs, so no dt is advised
# and no "no allowed grid" is said, and its comparison reads true
BETA_5_BAND_REFUSAL = (
    "dt=0.01 is too coarse for RK4: (beta*N + gamma)*dt = 50 lies beyond its stability "
    "interval of about 2.785; no dt is advised, as the finest grid steps above the largest "
    "4-digit dt that meets the bound: span/MAX_STEPS = 0.00055695 > 0.0005569 for span = "
    "5569.5 and MAX_STEPS = 10000000")


def test_no_dt_is_advised_where_the_finest_grid_steps_above_it():
    exc = assert_refused(EpidemicParams(beta=5.0), Grid(0.0, 5569.5, 0.01))
    assert str(exc) == BETA_5_BAND_REFUSAL
    assert exc.advised < exc.finest and exc.at_finest <= epidemic.RK4_STABILITY
    finest = Grid(0.0, 5569.5, exc.finest)
    assert finest.n_steps == MAX_STEPS
    assert epidemic_pass(EpidemicParams(beta=5.0), Grid(0.0, 5.5695, exc.finest)).s.shape == (
        10001,)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    beta=st.floats(min_value=-3.0, max_value=12.0).map(lambda e: 10.0 ** e),
    n1=st.floats(min_value=0.0, max_value=6.0).map(lambda e: 10.0 ** e),
    gamma=st.floats(min_value=1e-3, max_value=10.0),
    dt=st.floats(min_value=-4.0, max_value=1.0).map(lambda e: 10.0 ** e),
    n=st.integers(min_value=1, max_value=10**4),
    spare=st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e4)),
)
def test_every_refusal_advises_a_grid_that_runs_or_no_dt(beta, n1, gamma, dt, n, spare):
    # the advised dt itself meets the bound (assert_refused); with spare
    # set, the step limit is at most spare times the grid's steps, so the
    # finest grid may miss the advised dt
    params, grid = EpidemicParams(beta=beta, gamma=gamma, n1=n1), Grid(0.0, n * dt, dt)
    assume((beta * params.total + gamma) * dt > epidemic.RK4_STABILITY)
    limit = MAX_STEPS if spare is None else max(n, int(n * spare))
    with mock.patch.object(numerics, "MAX_STEPS", limit):
        assert_refused(params, grid)


def test_the_advised_dt_runs_where_its_nearest_print_is_refused():
    # beta=5's bound is 0.00055699 and beta=0.4's 0.0069608: their prints
    # rounded to nearest, 0.000557 and 0.006961, lie above them, so the
    # advice is the bound rounded down, and the product at 0.000557 reads
    # above 2.785
    with pytest.raises(GridTooCoarseError) as exc:
        epidemic_pass(EpidemicParams(beta=5.0), Grid(0.0, 0.557, 0.000557))
    assert str(exc.value) == (
        "dt=0.000557 is too coarse for RK4: (beta*N + gamma)*dt = 2.7851 lies beyond its "
        "stability interval of about 2.785; use dt <= 2.785/(beta*N + gamma) = 0.0005569")
    for beta, grid in ((5.0, Grid(0.0, 0.5569, 0.0005569)), (0.4, Grid(0.0, 6.96, 0.00696))):
        assert epidemic_pass(EpidemicParams(beta=beta), grid).s.shape == (1001,)
    # a bound of 4 digits whose product rounds above 2.785 at that print:
    # the advice is one unit of the last digit lower
    rate = epidemic.RK4_STABILITY / 0.001087
    assert epidemic.RK4_STABILITY / rate == 0.001087 and rate * 0.001087 > 2.785
    with pytest.raises(GridTooCoarseError) as exc:
        epidemic_pass(EpidemicParams(beta=0.0, gamma=rate), Grid(0.0, 1.0, 0.01))
    assert str(exc.value).endswith("; use dt <= 2.785/(beta*N + gamma) = 0.001086")


# ---------------------------------------------------------------------------
# the lemma of EpidemicParams, by interval arithmetic
# ---------------------------------------------------------------------------
# An interval is a (lo, hi) pair of arrays, one entry per box; every
# operation rounds its result outward by one ulp, so each interval holds
# every value the real arithmetic takes over its box.


def _outward(lo, hi):
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _add(a, b):
    return _outward(a[0] + b[0], a[1] + b[1])


def _mul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _outward(np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3])),
                    np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3])))


def _affine(c0, c1, a):
    """c0 + c1*a for floats c0 and c1."""
    lo, hi = (c1 * a[0], c1 * a[1]) if c1 >= 0.0 else (c1 * a[1], c1 * a[0])
    return _outward(c0 + lo, c0 + hi)


def _factors(sigma, iota, a, g):
    """The lemma's P_1..P_4, M_1..M_4, Q, B and C over intervals of
    sigma = S/N, iota = I/N, a = beta*N*dt and g = gamma*dt."""
    one = (np.ones_like(a[0]),) * 2
    zero = (np.zeros_like(a[0]),) * 2
    a_iota, a_sigma, minus_g = _mul(a, iota), _mul(a, sigma), _affine(0.0, -1.0, g)
    p, m = [one], [one]
    for c in (0.5, 0.5, 1.0):
        p.append(_affine(1.0, -c, _mul(a_iota, _mul(m[-1], p[-1]))))
        m.append(_affine(1.0, c, _mul(_add(_mul(a_sigma, p[-2]), minus_g), m[-1])))
    sum_q = sum_b = sum_c = zero
    for w, pk, mk in zip((1.0, 2.0, 2.0, 1.0), p, m):
        sum_q = _add(sum_q, _affine(0.0, w, _mul(mk, pk)))
        sum_b = _add(sum_b, _affine(0.0, w, _mul(_add(_mul(a_sigma, pk), minus_g), mk)))
        sum_c = _add(sum_c, _affine(0.0, w, mk))
    q = _affine(1.0, -1.0 / 6.0, _mul(a_iota, sum_q))
    return p, m, q, _affine(1.0, 1.0 / 6.0, sum_b), _affine(0.0, 1.0 / 6.0, sum_c)


def _proven(lo, hi):
    """Per box of u = (sigma, iota/(1 - sigma), a, g/(RK4_STABILITY - a)):
    whether the lemma's bounds hold over all of it, and whether all but
    C >= 0 do."""
    sigma = (lo[:, 0], hi[:, 0])
    a = (lo[:, 2], hi[:, 2])
    iota = _mul((lo[:, 1], hi[:, 1]), _affine(1.0, -1.0, sigma))
    g = _mul((lo[:, 3], hi[:, 3]), _affine(epidemic.RK4_STABILITY, -1.0, a))
    p, m, q, b, c = _factors(sigma, iota, a, g)
    size = np.zeros_like(lo[:, 0])
    for iv in p + m + [q, b]:
        size = np.maximum(size, np.maximum(-iv[0], iv[1]))
    rest = (q[0] >= 0.0) & (b[0] >= 0.0) & (size <= epidemic.STAGE_BOUND - 1.0)
    return rest & (c[0] >= 0.0), rest


def test_the_sir_lemma_holds_over_the_stability_interval():
    # branch and bound over the unit box in u, which covers sigma, iota >= 0,
    # sigma + iota <= 1 and a, g >= 0, a + g <= RK4_STABILITY: a box is
    # halved until the bounds hold over it. C's minimum, 1.59e-4, sits at
    # a = 0, g = RK4_STABILITY, so a box that fails on C alone is halved
    # along a or g. That proves it in 240,256 boxes; halving the widest
    # side there still leaves 1.1M boxes open after 4.3M
    span = np.array([1.0, 1.0, epidemic.RK4_STABILITY, 1.0])
    cells = np.indices((4, 4, 4, 4)).reshape(4, -1).T
    lo, hi = cells / 4.0 * span, (cells + 1) / 4.0 * span
    boxes = 0
    while len(lo):
        boxes += len(lo)
        assert boxes <= 1_000_000
        ok, rest = _proven(lo, hi)
        lo, hi, c_alone = lo[~ok], hi[~ok], rest[~ok]
        width = (hi - lo) / span
        axis = np.where(c_alone, 2 + np.argmax(width[:, 2:], axis=1),
                        np.argmax(width, axis=1))
        rows = np.arange(len(lo))
        mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
        upper_lo, lower_hi = lo.copy(), hi.copy()
        upper_lo[rows, axis] = lower_hi[rows, axis] = mid
        lo, hi = np.concatenate((lo, upper_lo)), np.concatenate((lower_hi, hi))
    # the bound binds: just past RK4's root of R(-g) = 1, at g = 2.7853,
    # S + I grows in a step (C < 0)
    point = (np.array([0.0]),) * 2
    for g, sign in ((epidemic.RK4_STABILITY, 1.0), (2.786, -1.0)):
        c = _factors(point, point, point, (np.array([g]),) * 2)[4]
        assert sign * c[0][0] > 0.0 and sign * c[1][0] > 0.0


# beta*N*dt and gamma*dt as shares of (beta*N + gamma)*dt, and N as a
# share of the largest population EpidemicParams admits at that rate
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    reach=st.one_of(st.just(epidemic.RK4_STABILITY),
                    st.floats(min_value=1e-3, max_value=epidemic.RK4_STABILITY)),
    share=st.floats(min_value=0.0, max_value=0.999),
    dt=st.sampled_from((1e-2, 0.1, 1.0)),
    size=st.one_of(st.just(0.999), st.floats(min_value=1e-300, max_value=0.999)),
    seed=st.floats(min_value=1e-6, max_value=0.5),
    cured=st.floats(min_value=0.0, max_value=0.5),
    n=st.integers(min_value=1, max_value=300),
)
def test_a_pass_inside_both_bounds_stays_in_its_triangle(unchecked_pass, reach, share,
                                                        dt, size, seed, cured, n):
    reach *= 1.0 - 1e-12  # stays inside the interval after rounding
    gamma = (1.0 - share) * reach / dt
    rate = reach / dt
    n_max = sys.float_info.max / (6.0 * epidemic.STAGE_BOUND**2 * rate)
    total = size * min(n_max, sys.float_info.max / epidemic.STAGE_BOUND)
    n2, n3 = seed * total * (1.0 - cured), cured * total
    params = EpidemicParams(beta=share * rate / total, gamma=gamma,
                            n1=total - n2 - n3, n2=n2, n3=n3)
    grid = Grid(0.0, n * dt, dt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        epi = epidemic_pass(params, grid)
    top = params.total * (1.0 + 1e-9)
    for column in (epi.s, epi.i):
        assert ((0.0 <= column) & (column <= top)).all()
    assert np.isfinite(epi.r).all() and np.isfinite(epi.demand).all()
    assert _bytes(epi) == _bytes(unchecked_pass(params, grid))
