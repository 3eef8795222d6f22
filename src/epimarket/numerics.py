"""Shared numerical kernels.

Fixed-step classical RK4 over tuples of floats, bracketed scalar root
finding (bisection with secant acceleration), and refine_max, the one
sub-grid extremum refinement. MAX_STEPS caps every grid, and a refusal
of a step bound advises the dt that advised_dt returns, the one number
it checks: no other module rounds an advised dt.
numerics builds no prose for a refusal: GridTooCoarseError prints it from
its fields (`errors`).

Everything here is a pure function of its inputs and bit-deterministic:
identical inputs give identical outputs, with no adaptivity and no hidden
state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundaryExtremumError,
    BracketError,
    ConfigError,
    ConvergenceError,
    DomainError,
    IntegrationError,
    apart,
    require_finite,
)

Field = Callable[[float, tuple], tuple]

# Largest grid a run may build. A step costs about 60 bytes across the SIR
# arrays and the drive table, so this bounds one pass near 600 MB; the
# largest grid the package builds itself has 300,000 steps.
MAX_STEPS = 10**7


def advised_dt(bound: float, holds: Callable[[float], bool]) -> float:
    """The dt a refusal of a step beyond bound advises: the largest of at
    most 4 significant digits at which holds, the refusal's own check,
    passes (bound rounded down, one unit lower where the check's product
    rounds above its limit)."""
    import decimal  # only a refusal needs it; at module level it costs every run 0.3 MB
    four = decimal.Context(prec=4, rounding=decimal.ROUND_FLOOR)
    d = four.create_decimal(bound)
    while not holds(float(d)):
        d = four.next_minus(d)
    return float(d)


# ---------------------------------------------------------------------------
# grid and bracket containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform time grid on [t_start, t_end] with step dt.

    The span must be an integer number of steps to within 1e-9 relative;
    anything else is a configuration mistake, not a rounding problem to
    paper over. At most MAX_STEPS steps, as span/MAX_STEPS <= dt in floats
    (a span that rounds above MAX_STEPS*dt is refused at MAX_STEPS steps).
    """

    t_start: float
    t_end: float
    dt: float

    def __post_init__(self):
        if not (self.dt > 0):
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if not (self.t_end > self.t_start):
            raise ConfigError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )
        require_finite(self, ("t_start", "t_end", "dt"))
        width = self.t_end - self.t_start
        # compared as a refusal compares it, so the finest grid it names runs
        if not width / MAX_STEPS <= self.dt:
            finest, dt = apart(width / MAX_STEPS, self.dt)
            raise ConfigError(
                f"dt is finer than the limit of {MAX_STEPS} steps allows, as span/MAX_STEPS "
                f"= {finest} > dt = {dt} for span = {width}; use a larger dt or a shorter span"
            )
        span = width / self.dt
        if abs(span - round(span)) > 1e-9 * max(1.0, abs(span)):
            raise ConfigError(
                f"grid span {self.t_end - self.t_start} is not an integral "
                f"number of steps of dt={self.dt}"
            )

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))

    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.n_steps + 1) * self.dt

    def node(self, k: int) -> float:
        return self.t_start + k * self.dt


@dataclass(frozen=True)
class Bracket:
    """A sign-change interval [lo, hi] with cached endpoint values."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise BracketError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if (self.f_lo > 0 and self.f_hi > 0) or (self.f_lo < 0 and self.f_hi < 0):
            raise BracketError(
                f"no sign change on [{self.lo}, {self.hi}]: "
                f"f(lo)={self.f_lo}, f(hi)={self.f_hi}"
            )


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------


def _check_stage(deriv: tuple, t: float) -> None:
    # sum is NaN/inf iff some component is non-finite (inf-inf folds to NaN)
    s = sum(deriv)
    if s - s != 0.0:
        bad = [v for v in deriv if not math.isfinite(v)]
        raise IntegrationError(
            f"non-finite derivative {bad} at t={t}", time=t
        )


def rk4_step(field: Field, t: float, y: tuple, h: float) -> tuple:
    """One classical RK4 step of size h from (t, y).

    Raises IntegrationError with the offending stage time if any stage
    derivative is non-finite.
    """
    k1 = field(t, y)
    _check_stage(k1, t)
    half = 0.5 * h
    tm = t + half
    k2 = field(tm, tuple(a + half * b for a, b in zip(y, k1)))
    _check_stage(k2, tm)
    k3 = field(tm, tuple(a + half * b for a, b in zip(y, k2)))
    _check_stage(k3, tm)
    te = t + h
    k4 = field(te, tuple(a + h * b for a, b in zip(y, k3)))
    _check_stage(k4, te)
    sixth = h / 6.0
    return tuple(
        a + sixth * (b + 2.0 * (c + d) + e)
        for a, b, c, d, e in zip(y, k1, k2, k3, k4)
    )


def integrate_fixed_step(field: Field, y0: Sequence[float], grid: Grid) -> np.ndarray:
    """Integrate field over the grid; returns one state row per node.

    The state is carried as a tuple of python floats (fast for the small
    systems here) and copied into a (n_steps+1, dim) array.
    """
    y = tuple(float(v) for v in y0)
    for v in y:
        if not math.isfinite(v):
            raise DomainError(f"initial state contains non-finite value {v}")
    n = grid.n_steps
    out = np.empty((n + 1, len(y)))
    out[0] = y
    t0 = grid.t_start
    h = grid.dt
    for k in range(n):
        y = rk4_step(field, t0 + k * h, y, h)
        out[k + 1] = y
    return out


# ---------------------------------------------------------------------------
# scalar solvers
# ---------------------------------------------------------------------------


# bisection and secant steps find_root_bracketed takes before it gives up
MAX_ITER = 200


def find_root_bracketed(f: Callable[[float], float], bracket: Bracket, tol_f: float) -> float:
    """Root of f inside the bracket.

    Bisection guarantees progress; a secant step is tried on alternate
    iterations and used only when it lands strictly inside the current
    bracket. Returns an endpoint where f is 0, a point where |f| <= tol_f
    (tol_f >= 0), or the endpoint with the smaller |f| once no float lies
    strictly inside the bracket, so never a point outside [lo, hi].
    """
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    for it in range(MAX_ITER):
        if it % 2 == 1 and f_hi != f_lo:
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if not (lo < x < hi):
                x = 0.5 * (lo + hi)
        else:
            x = 0.5 * (lo + hi)
        if not (lo < x < hi):
            # no representable point strictly inside: machine resolution
            return lo if abs(f_lo) <= abs(f_hi) else hi
        fx = f(x)
        if abs(fx) <= tol_f:
            return x
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
    raise ConvergenceError(
        f"no convergence in {MAX_ITER} iterations (bracket [{lo}, {hi}])"
    )


def newton_parabola(x0: float, y0: float, x1: float, y1: float, x2: float,
                    y2: float) -> tuple[float, float, Callable[[float], float]]:
    """The parabola through three points in Newton form: its divided
    differences c1 and c2, and at(x) = y0 + c1*(x - x0) + c2*(x - x0)*(x - x1)."""
    c1 = (y1 - y0) / (x1 - x0)
    c2 = ((y2 - y1) / (x2 - x1) - c1) / (x2 - x0)
    return c1, c2, lambda x: y0 + c1 * (x - x0) + c2 * (x - x0) * (x - x1)


def refine_max(x, y, boundary: str) -> tuple[int, float, float]:
    """Node k = np.argmax(y) and the vertex (x, y) of the parabola through
    nodes k-1, k and k+1 of samples y at nodes x, node k itself if they are
    collinear; k at an end raises BoundaryExtremumError(boundary.format(k=k)).
    A minimum is the maximum of -y, negated back, to the bit."""
    k = int(np.argmax(y))
    if k == 0 or k == len(y) - 1:
        raise BoundaryExtremumError(boundary.format(k=k))
    (x0, y0), (x1, y1), (x2, y2) = ((float(x[j]), float(y[j])) for j in (k - 1, k, k + 1))
    c1, c2, at = newton_parabola(x0, y0, x1, y1, x2, y2)
    if c2 == 0.0:
        return k, x1, y1
    xv = 0.5 * (x0 + x1) - 0.5 * c1 / c2
    return k, xv, at(xv)
