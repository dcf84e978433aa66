"""Two-sided first-exit numerics for drifted Brownian motion.

A sensor with constant weight x and symmetric threshold delta triggers
when its integral statistic, a Brownian motion with drift lam*x^2 and
variance rate x^2, leaves (-delta, delta).  Equivalently a standard
Brownian motion with drift mu = lam*|x| leaves (-a, a) with
a = delta/|x|.  The joint law of (exit time, exit side) has the density
pair

    p_up(t)   = exp(+lam*delta - (lam*x)^2 t / 2) * g(t; a)
    p_down(t) = exp(-lam*delta - (lam*x)^2 t / 2) * g(t; a)

where g is the driftless density of exiting at +a.  Two complementary
series for g are used: a reflection (image) series for t <= a^2/2 and an
eigenfunction series beyond.  Both are evaluated on whole arrays of t.
Truncation is chosen from explicit tail majorants, never a fixed term
count: per call and per series, the term count is the one the majorant
needs at the hardest point, the largest t for the image series and the
smallest t for the eigenfunction series, and every point then sums that
many terms in one matrix-vector product.  The majorant must fall below
1e-12 * min(1, 1/a^2): g(t; a) = g(t/a^2; 1)/a^2, so a wide band is then
summed to the same relative accuracy as a unit one.

The exit-side probability and the exit-time moments are integrals of
this pair over t > 0.  ``exit_functionals`` takes all three with one
trapezoid rule in s = log t, where the integrands decay
double-exponentially at both ends, from one ``joint_density`` call on
its 195-279 nodes, with an embedded error estimate from the rule at
twice the step.

Every functional below is cross-checked in the test suite against an
independent Monte Carlo oracle (``simulate_exit_times``).  The oracle
walks all its draws at once, a block of steps at a time, with at most
2^14 walker-steps per block (one step per walker while more than 2^14
remain), so its memory does not grow with the time walkers survive.
Each block draws normals for every walker, but Brownian-bridge uniforms
and the per-step bridge tests only for the walkers that come within
sqrt(20 dt) of a barrier; a step farther away crosses with probability
below e^-40, which no nonzero uniform falls under.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSpec,
    NonPositiveInputs,
    NonPositiveTime,
    QuadratureFailure,
    ZeroDrift,
)

__all__ = [
    "ExitProblem",
    "kernel_h",
    "series_g",
    "g_values",
    "joint_density",
    "exit_functionals",
    "delta_moment_asymptotics",
    "exit_time_cdf",
    "simulate_exit_times",
]


@dataclass(frozen=True)
class ExitProblem:
    """Symmetric two-sided exit problem of one sensor's statistic."""

    delta: float
    x: float
    lam: float

    def __post_init__(self):
        if not self.delta > 0:
            raise InvalidSpec("threshold delta must be positive")
        if self.x == 0:
            raise InvalidSpec("weight x must be nonzero")

    @property
    def a(self) -> float:
        """Effective barrier for the normalized driving motion."""
        return self.delta / abs(self.x)


_ABS_TOL = 1e-12  # series truncation: the tail majorant falls below this
_QUAD_REL_TOL = 1e-9
_LOG_STEP = 0.05  # exit functionals: trapezoid step in s = log t
_MAX_HALVINGS = 3  # exit functionals: refinements of _LOG_STEP before failing
_CDF_GRID_POINTS = 20001
_WALK_BLOCK = 1 << 14  # Monte Carlo walk: walkers x steps drawn at once
_BRIDGE_REACH = 20.0  # Monte Carlo walk: bridge-test walkers within sqrt(20 dt) of a barrier
_EXP_FLOOR = -700.0  # exp is fast above this and still far above its underflow
_EXP_FLOOR_PROB = float(np.exp(_EXP_FLOOR))
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_MAX = math.log(sys.float_info.max)


def kernel_h(t, x):
    """Reflection kernel x / sqrt(2 pi t^3) * exp(-x^2 / (2 t)).

    Odd in x; nonnegative for x >= 0.  Vectorized in t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise NonPositiveTime("kernel requires t > 0")
    out = x / (_SQRT_2PI * t**1.5) * np.exp(-(x * x) / (2.0 * t))
    return out if out.ndim else float(out)


def series_g(t: float, x: float) -> float:
    """Driftless density of exiting the band (-x, x) at +x, at time t:
    the one-point case of ``g_values``."""
    return float(g_values(t, x)[0])


def g_values(t, x) -> np.ndarray:
    """Driftless density of exiting the band (-x, x) at +x, at every
    time in ``t``, with the shape of ``np.atleast_1d(t)``.

    Points with t <= x^2/2 sum the image series sum_n h(t; (4n+1) x);
    larger t sum the eigenfunction series

        (pi / (4 x^2)) * sum_k (-1)^k (2k+1) exp(-(2k+1)^2 pi^2 t / (8 x^2)),

    which converges geometrically there and avoids the catastrophic
    cancellation the image series suffers; its terms decrease, so the
    value is manifestly nonnegative.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = t.reshape(1)
    if not (x > 0 and (t > 0).all()):
        raise NonPositiveInputs("series requires t > 0 and x > 0")
    out = np.empty(t.shape)
    image = t <= 0.5 * x * x
    # g(t; x) = g(t/x^2; 1)/x^2: for a wide band the tolerance shrinks with g
    tol = _ABS_TOL * min(1.0, 1.0 / (x * x))
    if tol == 0.0:
        raise InvalidSpec(f"band half-width {x:g} is too wide for the series")
    for part, series in ((image, _g_image), (~image, _g_eigen)):
        if part.any():
            out[part] = series(t[part], x, tol)
    return out


def _g_image(t, x, abs_tol):
    """Image series at the times t, with the term count the largest t needs."""
    t = np.asarray(t, dtype=float)
    t_max = float(t.max())
    log_tol = math.log(abs_tol)
    n = 1
    while True:
        u0 = (4 * n + 3) * x
        if u0 * u0 >= t_max:
            # beyond the arguments (4n'+1)x, |n'| <= n, the remaining
            # |arguments| form the lattice u0, u0+2x, ...; each |term| is
            # phi(u) = u exp(-u^2/2t)/sqrt(2 pi t^3), decreasing beyond
            # sqrt(t), so the tail is at most
            # phi(u0) + (1/2x) * integral_{u0}^inf phi = phi(u0) + t*exp(-u0^2/2t)/(2x sqrt(2 pi t^3)),
            # which grows with t; compared in logs, where a tiny t cannot overflow
            log_tail = math.log((u0 + t_max / (2.0 * x)) / _SQRT_2PI) - u0 * u0 / (2.0 * t_max) - 1.5 * math.log(t_max)
            if log_tail < log_tol:
                break
        n += 1
        if n > 10**6:
            raise QuadratureFailure("image series did not converge")
    # sum_u h(t; u) = sum_u u exp(-u^2 / 2t - 1.5 log t) / sqrt(2 pi), one
    # matrix-vector product over the arguments u = (4n'+1)x; t^-1.5 stays
    # in the exponent, where a tiny t gives 0 instead of 0 * inf
    u = (4.0 * np.arange(-n, n + 1) + 1.0) * x
    return np.exp(np.multiply.outer(-0.5 / t, u * u) - 1.5 * np.log(t)[..., None]) @ u / _SQRT_2PI


def _g_eigen(t, x, abs_tol):
    """Eigenfunction series at the times t, with the term count the smallest t needs."""
    t = np.asarray(t, dtype=float)
    scale = math.pi / (4.0 * x * x)
    rate_min = math.pi * math.pi * float(t.min()) / (8.0 * x * x)
    k = 0
    # the next term bounds the alternating tail, and shrinks as t grows
    while scale * (2 * k + 3) * math.exp(-((2 * k + 3) ** 2) * rate_min) >= abs_tol:
        k += 1
        if k > 10**6:
            raise QuadratureFailure("eigenfunction series did not converge")
    m = 2.0 * np.arange(k + 1) + 1.0
    signed = scale * m
    signed[1::2] *= -1.0
    rate = math.pi * math.pi / (8.0 * x * x) * t
    return np.exp(np.multiply.outer(-rate, m * m)) @ signed


def joint_density(p: ExitProblem, t):
    """Joint density pair (p_up, p_down) of (exit time, exit side).

    Their ratio is exp(2 lam delta) identically in t.  Raises
    ``InvalidSpec`` when exp(|lam delta|) overflows.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if (t_arr <= 0).any():
        raise NonPositiveTime("densities require t > 0")
    tilt = p.lam * p.delta
    if abs(tilt) > _LOG_MAX:
        raise InvalidSpec(f"lam*delta = {tilt:g} is beyond the range of exp")
    damped = np.exp(-0.5 * (p.lam * p.x) ** 2 * t_arr) * g_values(t_arr, p.a)
    up = math.exp(tilt) * damped
    dn = math.exp(-tilt) * damped
    if np.ndim(t):
        return up, dn
    return float(up[0]), float(dn[0])


def _log_time_terms(p: ExitProblem, t):
    """The integrands of P(up), E[tau] and E[tau^2] at the nodes t, each
    times dt/ds = t, as rows of one (3, len(t)) array."""
    up, dn = joint_density(p, t)
    mean_term = t * (up + dn)
    return np.stack((up, mean_term, t * mean_term)) * t


def exit_functionals(p: ExitProblem):
    """Exit-side probability and exit-time moments by one trapezoid rule
    in log time.

    Returns (prob_up, mean_delta, var_delta).

    The integrals of p_up, t (p_up + p_down) and t^2 (p_up + p_down) over
    t > 0 are taken in s = log t, where the integrands decay
    double-exponentially at both ends, so a trapezoid rule of fixed step
    h converges geometrically in 1/h (Trefethen & Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Review 2014).  With
    a = delta/|x|, mu = lam |x| and r = mu^2/2 + pi^2/(8 a^2), the
    density's slowest decay rate, the nodes run at the step
    h = ``_LOG_STEP`` from t = a^2/1600, where exp(-a^2/2t) < e^-800, to
    t = 800/r + 10 a^2, with weights h t.  That is 195-279 nodes, fewer
    as |lam delta| grows, and one ``joint_density`` call on all of them;
    the three functionals are sums over the same values, and the variance
    is E[tau^2] - E[tau]^2.  A call takes about 0.1 ms on a 2-core Xeon.

    The error estimate is embedded: the even nodes give the rule at step
    2h.  P(up) must agree within max(1e-9, 10 * ``_QUAD_REL_TOL`` * P(up)),
    and the moments, which scale as a^2 and a^4, within
    10 * ``_QUAD_REL_TOL`` relative.  The exit-time law has relative width
    about 1/sqrt(|lam delta|), so it narrows in s as |lam delta| grows,
    and past |lam delta| ~ 107 the step-2h rule misses these bounds.  A
    failed check halves h, adds the midpoints in one more
    ``joint_density`` call and compares with the rule before; up to
    |lam delta| = 709, where ``joint_density`` stops, at most two
    halvings are needed.  After ``_MAX_HALVINGS`` the rule raises
    ``QuadratureFailure``.
    """
    # r a^2 = (mu a)^2 / 2 + pi^2 / 8 with mu a = lam delta, so the node
    # count depends on lam delta alone
    log_a2 = 2.0 * math.log(p.a)
    ra2 = 0.5 * (p.lam * p.delta) ** 2 + math.pi**2 / 8.0
    s_lo, s_hi = log_a2 - math.log(1600.0), log_a2 + math.log(800.0 / ra2 + 10.0)
    h = _LOG_STEP
    n = math.ceil((s_hi - s_lo) / h) + 1
    terms = _log_time_terms(p, np.exp(s_lo + h * np.arange(n)))
    fine = h * terms.sum(axis=1)
    coarse = 2.0 * h * terms[:, ::2].sum(axis=1)
    # P(up) may be ~0 and has an absolute floor; the moments are positive
    # and scale as a^2 and a^4, so only a relative bound is scale-free
    floor = np.array([1e-9, 0.0, 0.0])
    halvings = 0
    while not np.all(np.abs(fine - coarse) <= np.maximum(floor, 10 * _QUAD_REL_TOL * np.abs(fine))):
        if halvings == _MAX_HALVINGS:
            raise QuadratureFailure(
                f"log-time trapezoid at step {h:g} gives {fine.tolist()}, "
                f"step-halving differences {np.abs(fine - coarse).tolist()}"
            )
        halvings += 1
        h *= 0.5
        mid = np.exp(s_lo + h * np.arange(1, 2 * n - 2, 2))
        n = 2 * n - 1
        coarse, fine = fine, 0.5 * fine + h * _log_time_terms(p, mid).sum(axis=1)
    prob_up, mean, second = (float(v) for v in fine)
    return prob_up, mean, second - mean * mean


def delta_moment_asymptotics(p: ExitProblem):
    """Leading-order exit-time moments for a wide band.

    mean ~ delta / (|lam| x^2), variance ~ delta / (|lam|^3 x^4); both
    undefined without drift.
    """
    if p.lam == 0:
        raise ZeroDrift("leading-order moments require lam != 0")
    mean = p.delta / (abs(p.lam) * p.x**2)
    var = p.delta / (abs(p.lam) ** 3 * p.x**4)
    return mean, var


def exit_time_cdf(p: ExitProblem, ts) -> np.ndarray:
    """CDF of the exit time at the requested points: the trapezoid rule
    on the density pair over a uniform grid of ``_CDF_GRID_POINTS``
    points from 0 to the largest point (the integrand is smooth and
    vanishes superpolynomially at 0), interpolated linearly between grid
    points.  Points at or below 0 give 0; the points must be finite."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise InvalidSpec("exit-time CDF points must be finite")
    t_hi = float(ts.max(initial=0.0))
    if t_hi == 0.0:
        return np.zeros(ts.shape)
    grid = np.linspace(0.0, t_hi, _CDF_GRID_POINTS)
    dens = np.empty_like(grid)
    dens[0] = 0.0
    up, dn = joint_density(p, grid[1:])
    np.add(up, dn, out=dens[1:])
    return np.interp(ts, grid, _cumulative_trapezoid(dens, grid))


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of ``y`` over the increasing points
    ``x``, 0 at ``x[0]``: ``scipy.integrate.cumulative_trapezoid(y, x,
    initial=0.0)`` bit for bit (the same float operations in the same
    order), formed in its one output array."""
    out = np.empty_like(y)
    out[0] = 0.0
    seg = out[1:]
    np.add(y[1:], y[:-1], out=seg)
    seg *= np.diff(x)
    seg /= 2.0
    np.cumsum(seg, out=seg)
    return out


def _first_exits(v, path, u, a, dt):
    """First exit of each walker within one block of steps.

    ``v`` holds the r walkers' start values, ``path`` (S, r) their values
    after each step, as ``_walk_block`` gives them, and ``u`` (2, S, r)
    the uniforms of the up and down bridge tests.  A step that ends on or
    beyond a barrier is a hard exit, at the linear-interpolation fraction
    theta of the step.  A step from v0 that ends inside at v1 is a bridged
    exit, at theta = 1/2, when a uniform falls below its barrier's
    crossing probability exp(-2 (a - v0)(a - v1) / dt) or
    exp(-2 (a + v0)(a + v1) / dt); when both bridges fire, the larger
    probability wins.

    Returns the indices (columns of ``path``) of the walkers that exited,
    their exit step within the block, theta and side (1 up, 0 down).
    """
    r = path.shape[1]
    p = []
    for gap, start, uniform in ((a - path, a - v, u[0]), (a + path, a + v, u[1])):
        # exponent -2 * gap(v0) * gap(v1) / dt of every step; dividing by
        # -dt/2 rounds exactly as multiplying by -2 and dividing by dt
        expo = np.empty_like(gap)
        np.multiply(gap[:-1], gap[1:], out=expo[1:])
        np.multiply(start, gap[0], out=expo[0])
        expo /= -0.5 * dt
        # A hard exit has a nonpositive gap after the step, so its
        # exponent is >= 0 and its uniform always falls below the
        # probability: the bridge test finds hard exits too.  numpy's exp
        # is slow near and past underflow, so the exponent is floored at
        # _EXP_FLOOR.  Flooring changes no test of a uniform at or above
        # exp(_EXP_FLOOR), about 1e-304; the rare smaller ones get the
        # unfloored probability.  Steps after a walker's exit may
        # overflow and are never read.
        with np.errstate(over="ignore"):
            prob = np.exp(np.maximum(expo, _EXP_FLOOR))
            tiny = uniform < _EXP_FLOOR_PROB
            if tiny.any():
                prob[tiny] = np.exp(expo[tiny])
        p.append(prob)
    p_up, p_dn = p
    event = (u[0] < p_up) | (u[1] < p_dn)
    step = event.argmax(axis=0)
    rows = np.flatnonzero(event[step, np.arange(r)])
    step = step[rows]
    v1 = path[step, rows]
    v0 = np.where(step > 0, path[step - 1, rows], v[rows])
    pu, pd = p_up[step, rows], p_dn[step, rows]
    hard_up, hard_dn = v1 >= a, v1 <= -a
    bridged_up = (u[0, step, rows] < pu) & ((u[1, step, rows] >= pd) | (pu >= pd))
    up = hard_up | (~hard_dn & bridged_up)
    theta = np.full(rows.size, 0.5)
    theta[hard_up] = (a - v0[hard_up]) / (v1[hard_up] - v0[hard_up])
    theta[hard_dn] = (-a - v0[hard_dn]) / (v1[hard_dn] - v0[hard_dn])
    return rows, step, theta, up.astype(np.uint8)


def _walk_block(v, z, a, drift, sdt, dt):
    """Every walker's path over one block of steps, and which walkers come
    near a barrier.

    ``v`` holds the m walkers' start values and ``z`` (S, m) their
    standard normal draws, one row per step.  Returns the path (S, m),
    each walker's value after each step, which adds drift + sdt * z to
    the value before it, and a mask of the near walkers: those whose
    start value or some step's end comes within
    w = sqrt(``_BRIDGE_REACH`` * dt) of a barrier, |v| >= a - w.
    ``_first_exits`` finds the near walkers' exits from their columns.

    A walker that is not near has gaps above w to both barriers before
    and after each of its steps, so each step's bridge probability
    exp(-2 g0 g1 / dt) is below e^-40 ~ 4e-18.  That is below 2^-53, the
    smallest nonzero uniform ``Generator.random`` returns, so only a
    uniform of exactly 0 could make such a step exit.  A hard exit ends
    on or beyond a barrier, so its walker is always near, and a band with
    a <= w makes every walker near.
    """
    path = sdt * z
    path += drift
    path[0] += v
    # np.cumsum runs down one walker's column at a time, a chain of
    # dependent additions; adding whole rows runs across the walkers but
    # costs a call per step, which pays below about 36 steps
    if z.shape[0] <= 32:
        for prev, row in zip(path, path[1:]):
            row += prev
    else:
        np.cumsum(path, axis=0, out=path)
    reach = a - math.sqrt(_BRIDGE_REACH * dt)
    near = (np.abs(v) >= reach) | (path.max(axis=0) >= reach) | (path.min(axis=0) <= -reach)
    return path, near


def simulate_exit_times(p: ExitProblem, n: int, dt: float, seed):
    """Monte Carlo oracle: n independent draws of (exit time, exit side).

    Simulates the normalized motion on a grid of step dt.  Undetected
    within-step excursions are recovered by sampling the Brownian-bridge
    crossing probability exp(-2 (a - v0)(a - v1) / dt) for each barrier,
    which removes the O(sqrt(dt)) effective-barrier bias of plain grid
    monitoring; the residual timing error is O(dt).

    The m walkers that have not exited advance a block of S steps at a
    time.  One (S, m) draw of normals and a cumulative sum from each
    walker's current value give every walker's path over the block
    (``_walk_block``).  Only the r walkers whose path comes within
    w = sqrt(20 dt) of a barrier draw uniforms, one (2, r, S) draw, and
    get their first exit from their columns of that path
    (``_first_exits``); every walker that stays in carries the path's
    last row into the next block.  S is the largest step count with
    m*S <= ``_WALK_BLOCK`` = 2^14, and 1 while more walkers remain, so a
    block's temporaries are a few MB beside the n-long outputs, and
    blocks lengthen as walkers exit.

    Exits follow the per-step rules exactly for the walkers tested.  A
    step of a walker left out has a bridge probability below e^-40, under
    the smallest nonzero uniform 2^-53, so testing it could fire only on
    a uniform of exactly 0: the law differs from the per-step rules only
    through such uniforms, each with probability 2^-53 per skipped
    walker-step.  Which draws a seed assigns to which step depends on
    this block layout and on which walkers come near a barrier.
    """
    if not (isinstance(n, (int, np.integer)) and n > 0 and dt > 0 and math.isfinite(dt)):
        raise InvalidSpec("need an integer n > 0 and a finite dt > 0")
    rng = np.random.default_rng(seed)
    a = p.a
    drift = p.lam * abs(p.x) * dt
    sdt = math.sqrt(dt)

    remaining = np.arange(n)
    v = np.zeros(n)
    out_t = np.empty(n)
    out_z = np.empty(n, dtype=np.uint8)
    steps_before = 0
    while remaining.size:
        m = remaining.size
        S = max(1, _WALK_BLOCK // m)
        z = rng.standard_normal((S, m))
        path, near = _walk_block(v, z, a, drift, sdt, dt)
        near = np.flatnonzero(near)
        if near.size:
            # drawn walker by walker, the layout a seed's stream has always had
            u = rng.random((2, near.size, S))
            rows, step, theta, up = _first_exits(v[near], path[:, near], u.transpose(0, 2, 1), a, dt)
            exited = near[rows]
            done = remaining[exited]
            out_t[done] = (steps_before + step) * dt + theta * dt
            out_z[done] = up
            keep = np.ones(m, dtype=bool)
            keep[exited] = False
            remaining, v = remaining[keep], path[-1, keep]
        else:
            v = path[-1]
        steps_before += S
    return out_t, out_z
