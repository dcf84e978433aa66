import math

import numpy as np
import pytest
from scipy import integrate

from bitfuse.errors import NonPositiveInputs, NonPositiveTime, ZeroDrift
from bitfuse.first_passage import (
    ExitProblem,
    _g_eigen,
    _g_image,
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
