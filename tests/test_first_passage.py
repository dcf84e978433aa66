import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from bitfuse import first_passage
from bitfuse.errors import BitfuseError, InvalidSpec, NonPositiveInputs, NonPositiveTime, QuadratureFailure, ZeroDrift
from bitfuse.first_passage import (
    ExitProblem,
    _cumulative_trapezoid,
    _first_exits,
    _g_eigen,
    _g_image,
    _walk_block,
    delta_moment_asymptotics,
    exit_functionals,
    exit_time_cdf,
    g_values,
    joint_density,
    kernel_h,
    series_g,
    simulate_exit_times,
)
from bitfuse.fusion import reconstruct
from bitfuse.models import ModelKind, ModelSpec, TimeGrid, build_model, path_statistics, simulate_paths
from bitfuse.triggers import TriggerConfig, run_triggers


# -- kernel ---------------------------------------------------------------


def test_kernel_closed_form_values():
    assert kernel_h(1.0, 1.0) == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-12)
    assert kernel_h(1.0, 1.0) == pytest.approx(0.2419707245191434, rel=1e-12)
    # direct evaluation: 2 / sqrt(2 pi 0.25^3) * exp(-8)
    assert kernel_h(0.25, 2.0) == pytest.approx(0.002141283612238166, rel=1e-12)
    for t in (0.1, 1.0, 10.0):
        assert kernel_h(t, 0.0) == 0.0
    with pytest.raises(NonPositiveTime):
        kernel_h(0.0, 1.0)


# -- series ---------------------------------------------------------------


def test_series_reduces_to_kernel_at_small_time():
    assert abs(series_g(0.1, 1.0) - kernel_h(0.1, 1.0)) < 1e-12


def test_series_branches_agree():
    for x in (0.5, 1.0, 2.0):
        crossover = 0.5 * x * x
        for t in (0.3 * crossover, 0.9 * crossover, crossover, 1.5 * crossover, 4 * crossover):
            a = _g_image(t, x, 1e-14)
            b = _g_eigen(t, x, 1e-14)
            assert a == pytest.approx(b, abs=5e-13), (t, x)


def test_series_total_mass_is_one():
    val, err = integrate.quad(lambda t: 2 * series_g(t, 1.0), 0, np.inf,
                              epsabs=1e-12, epsrel=1e-10, limit=400)
    assert abs(val - 1.0) < 1e-6


def test_series_nonnegative_on_grid_sweep():
    for x in (0.3, 1.0, 2.5):
        ts = np.geomspace(1e-3 * x * x, 50 * x * x, 200)
        assert np.all(g_values(ts, x) >= 0.0)


@pytest.mark.parametrize("x", [0.3, 1.0, 2.5])
def test_vector_series_matches_scalar_truncation(x):
    # points on both sides of the crossover t = x^2/2 and on it, in one
    # call, so each branch takes its term count from its extreme point
    crossover = 0.5 * x * x
    ts = crossover * np.array([0.02, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 8.0, 40.0])
    g = g_values(ts, x)
    tight = np.array([float(_g_image(t, x, 1e-15)) if t <= crossover else float(_g_eigen(t, x, 1e-15))
                      for t in ts])
    assert np.max(np.abs(g - tight)) <= 2e-12
    one_by_one = np.array([series_g(t, x) for t in ts])
    assert np.max(np.abs(g - one_by_one)) <= 2e-12
    assert np.all(g >= 0.0)
    empty = g_values(np.array([]), x)
    assert empty.shape == (0,)


def test_series_rejects_nonpositive_inputs():
    with pytest.raises(NonPositiveInputs):
        series_g(-1.0, 1.0)
    with pytest.raises(NonPositiveInputs):
        series_g(1.0, 0.0)


# -- joint density ----------------------------------------------------------


def test_density_sides_equal_without_drift():
    p = ExitProblem(delta=1.0, x=1.0, lam=0.0)
    for t in (0.1, 0.5, 2.0):
        up, dn = joint_density(p, t)
        assert up == dn
        assert up == pytest.approx(series_g(t, 1.0), rel=1e-12)


def test_density_ratio_is_exponential_in_threshold():
    p = ExitProblem(delta=1.3, x=0.5, lam=0.7)
    for t in (0.2, 1.0, 5.0):
        up, dn = joint_density(p, t)
        assert up / dn == pytest.approx(math.exp(2 * 0.7 * 1.3), rel=1e-12)
    assert math.exp(2 * 0.7 * 1.3) == pytest.approx(math.exp(1.82))


def test_density_total_mass_drifted():
    p = ExitProblem(delta=1.0, x=1.0, lam=2.0)
    val, _ = integrate.quad(lambda t: float(sum(joint_density(p, t))), 0, np.inf,
                            epsabs=1e-12, epsrel=1e-10, limit=400)
    assert abs(val - 1.0) < 1e-5


# -- functionals -------------------------------------------------------------


def test_functionals_symmetric_case():
    prob_up, mean, var = exit_functionals(ExitProblem(delta=1.0, x=1.0, lam=0.0))
    assert prob_up == pytest.approx(0.5, abs=1e-9)
    # exact driftless values for a unit band: mean a^2, variance 2 a^4 / 3
    assert mean == pytest.approx(1.0, rel=1e-9)
    assert var == pytest.approx(2.0 / 3.0, rel=1e-6)


def test_functionals_wide_band_match_leading_order():
    prob_up, mean, var = exit_functionals(ExitProblem(delta=10.0, x=1.0, lam=1.0))
    assert abs(mean - 10.0) <= 0.5
    assert abs(var - 10.0) <= 1.5
    assert prob_up > 0.999


def test_functionals_cross_checked_against_monte_carlo():
    p = ExitProblem(delta=1.0, x=1.0, lam=1.0)
    prob_up, mean, var = exit_functionals(p)
    times, bits = simulate_exit_times(p, 40_000, dt=1e-3, seed=4242)
    se_p = math.sqrt(prob_up * (1 - prob_up) / times.size)
    assert abs(bits.mean() - prob_up) <= 4 * se_p
    se_m = times.std(ddof=1) / math.sqrt(times.size)
    assert abs(times.mean() - mean) <= 4 * se_m + 2e-3
    assert abs(times.var(ddof=1) - var) <= 0.05 * var


def closed_form_functionals(p):
    """Exact (P(up), E[tau], Var[tau]) of the symmetric two-sided exit of a
    drifted Brownian motion: P(up) = 1/(1 + e^(-2 lam delta)) and, with
    z = mu a = lam delta, E[tau] = a^2 tanh(z)/z and
    Var[tau] = a^4 (tanh(z) - z sech^2(z)) / z^3.  For |z| < 0.01 the
    moments come from their Taylor series, where the variance's closed
    form would lose digits to cancellation."""
    a, z = p.a, p.lam * p.delta
    prob_up = 0.5 * (1.0 + math.tanh(z))
    if abs(z) < 0.01:
        mean = a * a * (1.0 - z * z / 3.0 + 2.0 * z**4 / 15.0)
        var = a**4 * (2.0 / 3.0 - 8.0 * z * z / 15.0 + 34.0 * z**4 / 105.0)
    else:
        tanh = math.tanh(z)
        mean = a * a * tanh / z
        var = a**4 * (tanh - z * (1.0 - tanh * tanh)) / z**3
    return prob_up, mean, var


@st.composite
def exit_problems(draw):
    """Log-uniform a in [1e-3, 1e3] and |x| in [0.1, 10], with lam delta of
    either sign up to 50 in size, or 0."""
    a = 10.0 ** draw(st.floats(-3.0, 3.0))
    x = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-1.0, 1.0))
    delta = a * abs(x)
    tilt = draw(st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))
    return ExitProblem(delta=delta, x=x, lam=tilt / delta)


@settings(max_examples=300, deadline=None)
@given(p=exit_problems())
# a narrow band, a wide band, and a wide band with a strong drift, where
# adaptive quadrature returned zeros without an error
@example(p=ExitProblem(delta=0.001, x=1.0, lam=1.0))
@example(p=ExitProblem(delta=1.0, x=0.001, lam=1.0))
@example(p=ExitProblem(delta=300.0, x=1.0, lam=1.0))
# E[tau] ~ 2e-9: an absolute error bound of 1e-9 would accept the step-0.05
# rule, which is off by 2e-5 here
@example(p=ExitProblem(delta=4.68e-4, x=0.392, lam=-686.0 / 4.68e-4))
def test_functionals_match_closed_forms(p):
    prob_up, mean, var = exit_functionals(p)
    want_up, want_mean, want_var = closed_form_functionals(p)
    assert abs(prob_up - want_up) <= 1e-10
    assert abs(mean - want_mean) <= 1e-10 * want_mean
    assert abs(var - want_var) <= 1e-8 * want_var


def test_functionals_make_one_density_call(monkeypatch):
    calls = []

    def counted(p, t):
        calls.append(np.size(t))
        return joint_density(p, t)

    def no_quad(*args, **kwargs):
        raise AssertionError("exit_functionals must not call integrate.quad")

    monkeypatch.setattr(first_passage, "joint_density", counted)
    monkeypatch.setattr(integrate, "quad", no_quad)
    for delta in (5.0, 12.5, 20.0):
        calls.clear()
        exit_functionals(ExitProblem(delta=delta, x=1.0, lam=1.0))
        assert len(calls) == 1 and 150 <= calls[0] <= 300


def test_functionals_raise_when_the_rule_does_not_converge(monkeypatch):
    # a density with relative noise of 1e-6 keeps the step-halving
    # difference far above the bound at every step
    rng = np.random.default_rng(5)

    def noisy(p, t):
        up, dn = joint_density(p, t)
        noise = 1.0 + 1e-6 * rng.standard_normal(np.shape(t))
        return up * noise, dn * noise

    monkeypatch.setattr(first_passage, "joint_density", noisy)
    with pytest.raises(QuadratureFailure):
        exit_functionals(ExitProblem(delta=1.0, x=1.0, lam=1.0))


@pytest.mark.parametrize("delta,lam", [(800.0, 1.0), (400.0, 2.0), (800.0, -1.0)])
def test_density_beyond_the_range_of_exp_is_invalid(delta, lam):
    p = ExitProblem(delta=delta, x=1.0, lam=lam)
    with pytest.raises(InvalidSpec, match="lam\\*delta"):
        joint_density(p, 1.0)
    with pytest.raises(InvalidSpec):
        exit_functionals(p)


@pytest.mark.parametrize("delta,lam", [(1e-150, 1.0), (1e-170, 1.0), (1e150, 1e-150), (1e170, 0.0)])
def test_functionals_of_degenerate_bands_raise(delta, lam):
    # bands whose density or nodes leave the float range end in a
    # BitfuseError, never in zeros or a Python arithmetic error
    with np.errstate(all="ignore"), pytest.raises(BitfuseError):
        exit_functionals(ExitProblem(delta=delta, x=1.0, lam=lam))


def test_moment_asymptotics_values_and_guard():
    assert delta_moment_asymptotics(ExitProblem(delta=10.0, x=1.0, lam=1.0)) == (10.0, 10.0)
    mean, var = delta_moment_asymptotics(ExitProblem(delta=10.0, x=1.0, lam=2.0))
    assert mean == pytest.approx(5.0) and var == pytest.approx(1.25)
    with pytest.raises(ZeroDrift):
        delta_moment_asymptotics(ExitProblem(delta=10.0, x=1.0, lam=0.0))


def test_cdf_matches_quadrature_mass():
    p = ExitProblem(delta=1.0, x=2.0, lam=0.5)
    ts = np.array([0.05, 0.1, 0.3, 1.0, 3.0])
    F = exit_time_cdf(p, ts)
    assert np.all(np.diff(F) > 0)
    for t_end, F_val in zip(ts, F):
        direct, _ = integrate.quad(lambda t: float(sum(joint_density(p, t))), 0, t_end,
                                   epsabs=1e-12, epsrel=1e-10, limit=200)
        assert F_val == pytest.approx(direct, abs=5e-7)


P_KS = ExitProblem(delta=1.0, x=1.0, lam=1.0)


@settings(max_examples=300, deadline=None)
@given(
    steps=hnp.arrays(float, st.integers(1, 60), elements=st.floats(1e-6, 1e3)),
    start=st.floats(-1e3, 1e3),
    data=st.data(),
)
def test_trapezoid_matches_scipy_bit_for_bit(steps, start, data):
    x = start + np.cumsum(steps)
    x = np.unique(np.concatenate(([start], x)))  # strictly increasing after rounding
    y = data.draw(hnp.arrays(float, x.size, elements=st.floats(-1e6, 1e6)))
    want = integrate.cumulative_trapezoid(y, x, initial=0.0)
    got = _cumulative_trapezoid(y, x)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_cdf_is_the_trapezoid_on_its_grid():
    ts = np.array([0.05, 0.3, 1.0, 2.5])
    grid = np.linspace(0.0, ts.max(), first_passage._CDF_GRID_POINTS)
    dens = np.zeros_like(grid)
    up, dn = joint_density(P_KS, grid[1:])
    dens[1:] = up + dn
    want = np.interp(ts, grid, integrate.cumulative_trapezoid(dens, grid, initial=0.0))
    np.testing.assert_array_equal(exit_time_cdf(P_KS, ts), want)


def test_cdf_of_no_points_is_empty():
    F = exit_time_cdf(P_KS, [])
    assert F.shape == (0,)


def test_cdf_is_zero_at_and_below_time_zero():
    np.testing.assert_array_equal(exit_time_cdf(P_KS, [0.0]), [0.0])
    F = exit_time_cdf(P_KS, [-1.0, 0.0, 0.5])
    assert F[0] == 0.0 and F[1] == 0.0
    assert F[2] == exit_time_cdf(P_KS, [0.5])[0] > 0.0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_cdf_rejects_nonfinite_points(bad):
    with pytest.raises(InvalidSpec):
        exit_time_cdf(P_KS, [0.5, bad])


def test_series_and_cdf_vanish_at_tiny_times():
    # t**1.5 underflows below about 1e-206; the density there is 0
    g = g_values([1e-250, 1e-3], 1.0)
    assert g[0] == 0.0 and np.isfinite(g[1])
    np.testing.assert_array_equal(exit_time_cdf(P_KS, [1e-250]), [0.0])


def test_exit_times_reject_fractional_draw_count():
    with pytest.raises(InvalidSpec):
        simulate_exit_times(P_KS, 2.5, dt=1e-3, seed=1)


# -- the blocked Monte Carlo walk ------------------------------------------------


def reference_walk(v, z, u, a, drift, sdt, dt):
    """The walk over one block as a per-step loop: each step moves the
    walkers left by drift + sdt * z, exits those on or beyond a barrier
    and bridge-tests the others, log u against the crossing probability's
    exponent.  Returns the exited rows, their step, theta and side, and
    the values after the block."""
    alive, v = np.arange(z.shape[0]), v.copy()
    rows, steps, thetas, sides = [], [], [], []
    for k in range(z.shape[1]):
        v0 = v[alive]
        # the increment is formed first, as a cumulative sum of increments adds it
        v1 = v0 + (drift + sdt * z[alive, k])
        hard_up, hard_dn = v1 >= a, v1 <= -a
        theta, side = np.full(alive.size, 0.5), hard_up.astype(np.uint8)
        theta[hard_up] = (a - v0[hard_up]) / (v1[hard_up] - v0[hard_up])
        theta[hard_dn] = (-a - v0[hard_dn]) / (v1[hard_dn] - v0[hard_dn])
        inside = ~(hard_up | hard_dn)
        vi, vni, ai = v0[inside], v1[inside], alive[inside]
        e_up = -2.0 * (a - vi) * (a - vni) / dt
        e_dn = -2.0 * (a + vi) * (a + vni) / dt
        with np.errstate(divide="ignore"):  # a uniform of 0 has log -inf
            cross_up, cross_dn = np.log(u[0, ai, k]) < e_up, np.log(u[1, ai, k]) < e_dn
        side[inside] = cross_up & (~(cross_up & cross_dn) | (e_up >= e_dn))
        exited = ~inside
        exited[inside] = cross_up | cross_dn
        rows += alive[exited].tolist()
        steps += [k] * int(exited.sum())
        thetas += theta[exited].tolist()
        sides += side[exited].tolist()
        v[alive] = v1
        alive = alive[~exited]
    return rows, steps, thetas, sides, v


def assert_walks_agree(v, z, u, a, drift, sdt, dt):
    """The block pass (``_walk_block``'s path, then ``_first_exits``)
    against the per-step reference, bit for bit; returns the reference's
    exits."""
    path, _near = _walk_block(v, np.ascontiguousarray(z.T), a, drift, sdt, dt)
    rows, step, theta, side = _first_exits(v, path, u.transpose(0, 2, 1), a, dt)
    want_rows, want_steps, want_thetas, want_sides, want_v = reference_walk(v, z, u, a, drift, sdt, dt)
    order = np.argsort(want_rows)
    assert rows.tolist() == np.asarray(want_rows, dtype=int)[order].tolist()
    assert step.tolist() == np.asarray(want_steps, dtype=int)[order].tolist()
    assert theta.tolist() == np.asarray(want_thetas, dtype=float)[order].tolist()
    assert side.dtype == np.uint8 and side.tolist() == np.asarray(want_sides, dtype=int)[order].tolist()
    survivors = np.setdiff1d(np.arange(v.size), rows)
    assert path[-1, survivors].tolist() == want_v[survivors].tolist()
    return dict(zip(want_rows, zip(want_steps, want_thetas, want_sides)))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 5),
    S=st.integers(1, 60),
    a=st.floats(0.05, 2.0),
    dt=st.floats(1e-4, 0.5),
    drift=st.floats(-0.2, 0.2),
)
def test_block_walk_matches_per_step_reference(data, m, S, a, dt, drift):
    # blocks of up to 60 steps take both of _walk_block's summation orders
    v = a * data.draw(hnp.arrays(float, m, elements=st.floats(-0.999, 0.999)))
    z = data.draw(hnp.arrays(float, (m, S), elements=st.floats(-6.0, 6.0)))
    u = data.draw(hnp.arrays(float, (2, m, S), elements=st.floats(0.0, 1.0, exclude_max=True)))
    assert_walks_agree(v, z, u, a, drift, math.sqrt(dt), dt)


def _block(v, z, u):
    return np.array(v, dtype=float), np.array(z, dtype=float), np.array(u, dtype=float)


# each case: (v, z, u), a, dt, and the expected exits {row: (step, theta, side)}
WALK_CASES = {
    # 0.95 + 0.1 * 1.0 passes a = 1 halfway through the first step
    "hard exit on the first step": (_block([0.95], [[1.0, 0.0, 0.0]], [[[0.9] * 3], [[0.9] * 3]]), 1.0, 0.01,
                                    {0: (0, 0.5, 1)}),
    "hard exit on the last step": (_block([0.0], [[0.0, 0.0, -12.0]], [[[0.9] * 3], [[0.9] * 3]]), 1.0, 0.01,
                                   {0: (2, 10.0 / 12.0, 0)}),
    "survives the block": (_block([0.0], [[0.5, -0.5, 0.5]], [[[0.9] * 3], [[0.9] * 3]]), 1.0, 0.01, {}),
    # p_up = exp(-2 * 0.05 * 0.05 / 0.01) = 0.61 > 0.5
    "bridged exit": (_block([0.95], [[0.0, 0.0]], [[[0.5, 0.0]], [[0.9, 0.9]]]), 1.0, 0.01,
                     {0: (0, 0.5, 1)}),
    # both bridges fire; p_up = p_dn at 0, p_dn > p_up below 0
    "tie between the bridges": (_block([0.0, -0.1], [[0.0], [0.0]], [[[0.01], [0.01]], [[0.01], [0.01]]]), 1.0, 1.0,
                                {0: (0, 0.5, 1), 1: (0, 0.5, 0)}),
}


@pytest.mark.parametrize("case", list(WALK_CASES))
def test_block_walk_cases(case):
    (v, z, u), a, dt, want = WALK_CASES[case]
    got = assert_walks_agree(v, z, u, a, 0.0, math.sqrt(dt), dt)
    assert set(got) == set(want)
    for row, (step, theta, side) in want.items():
        assert got[row][0] == step and got[row][2] == side
        assert got[row][1] == pytest.approx(theta, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 5),
    S=st.integers(1, 60),
    a=st.floats(0.05, 2.0),
    dt=st.floats(1e-4, 0.5),
    drift=st.floats(-0.2, 0.2),
)
def test_walkers_left_out_of_the_bridge_tests_cannot_exit(data, m, S, a, dt, drift):
    # uniforms as Generator.random draws them, but never exactly 0: then
    # a walker that _walk_block does not mark near exits in no block pass.
    # Blocks of up to 60 steps take both of _walk_block's summation orders.
    v = a * data.draw(hnp.arrays(float, m, elements=st.floats(-0.999, 0.999)))
    z = data.draw(hnp.arrays(float, (m, S), elements=st.floats(-6.0, 6.0)))
    u = data.draw(hnp.arrays(float, (2, m, S), elements=st.floats(2.0**-53, 1.0, exclude_max=True)))
    sdt = math.sqrt(dt)
    path, near = _walk_block(v, np.ascontiguousarray(z.T), a, drift, sdt, dt)
    rows, _step, _theta, _side = _first_exits(v, path, u.transpose(0, 2, 1), a, dt)
    assert near[rows].all()


# -- renewal-rate consequences -------------------------------------------------


def _renewal_run(delta, lam=1.0, t_end=1000.0, n_reps=100, margin=60.0):
    model = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    grid = TimeGrid(t_end + margin * delta, int((t_end + margin * delta) * 40))
    counts, forward, age, info_gap = [], [], [], []
    cfgs = (TriggerConfig(delta_up=delta, delta_down=delta),)
    for rep in range(n_reps):
        stats = path_statistics(simulate_paths(model, lam, grid, seed=(606060, int(delta), rep)),
                                model)
        log = run_triggers(stats, model, cfgs)
        times = log.b[0].time
        m = int(np.searchsorted(times, t_end, side="right"))
        counts.append(m)
        if m < times.size:
            forward.append(times[m] - t_end)
        age.append(t_end - (times[m - 1] if m else 0.0))
        state = reconstruct(log, model)
        info_gap.append(t_end - state.checkA(t_end))
    assert len(forward) == n_reps, "margin too small to observe the next message"
    return (np.array(counts, dtype=float), np.array(forward), np.array(age), np.array(info_gap))


@pytest.mark.parametrize("delta", [5.0, 10.0, 20.0])
def test_residual_life_and_age_bounds(delta):
    # renewal-theory bounds: both the expected forward residual life and
    # the expected age are at most E[gap^2] / E[gap]
    _, mean_d, var_d = exit_functionals(ExitProblem(delta=delta, x=1.0, lam=1.0))
    ratio = (var_d + mean_d**2) / mean_d
    counts, forward, age, info_gap = _renewal_run(delta)
    se_f = forward.std(ddof=1) / math.sqrt(forward.size)
    se_a = age.std(ddof=1) / math.sqrt(age.size)
    assert forward.mean() <= ratio + 3 * se_f
    assert age.mean() <= ratio + 3 * se_a
    # message-rate bound
    bound = 1000.0 / mean_d + var_d / mean_d**2 + 1.0
    se_m = counts.std(ddof=1) / math.sqrt(counts.size)
    assert counts.mean() <= bound + 3 * se_m
    # timing-only information deficit: nonnegative on average and at most
    # the same renewal ratio (unit weight)
    se_g = info_gap.std(ddof=1) / math.sqrt(info_gap.size)
    assert info_gap.mean() >= -3 * se_g
    assert info_gap.mean() <= ratio + 3 * se_g


def test_mc_exit_sample_agrees_with_integrated_density():
    p = ExitProblem(delta=1.0, x=1.0, lam=1.0)
    n = 100_000
    times, _ = simulate_exit_times(p, n, dt=1e-3, seed=777)
    xs = np.sort(times)
    F = exit_time_cdf(p, xs)
    D = float(max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(0, n) / n)))
    assert D < 1.63 / math.sqrt(n)
