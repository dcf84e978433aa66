import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_models import ALL_CATALOG, CONST

from bitfuse.errors import (
    GammaTooSmall,
    HorizonExhausted,
    InconsistentLog,
    NoMessages,
    UnsupportedModel,
    ZeroInformation,
)
from bitfuse.experiments import (
    ExperimentConfig,
    PowerLawRule,
    SequentialRegime,
    audit_bounds,
    run_experiment,
)
from bitfuse.fusion import (
    CENTRALIZED_SEQUENTIAL,
    DECENTRALIZED_FIXED,
    DECENTRALIZED_SEQUENTIAL,
    TIMING_ONLY,
    FusionState,
    centralized_estimates,
    estimate_fixed,
    estimate_sequential,
    estimate_timing_only,
    reconstruct,
)
from bitfuse.models import ModelKind, ModelSpec, TimeGrid, build_model, path_statistics, simulate_paths
from bitfuse.triggers import AMessages, BMessages, MessageLog, TriggerConfig, run_triggers


def _log(model, b=(), a=(), horizon=10.0, delta=1.0, c=None):
    K = model.K
    b = list(b) + [((), ())] * (K - len(b)) if b else [((), ())] * K
    a = list(a) + [()] * (K - len(a)) if a else [()] * K
    b_msgs = tuple(
        BMessages(
            time=np.asarray(times, dtype=float),
            bit=np.asarray(bits, dtype=np.uint8),
            overshoot=np.zeros(len(times)),
        )
        for times, bits in b
    )
    a_msgs = tuple(AMessages(time=np.asarray(times, dtype=float)) for times in a)
    cfgs = tuple(TriggerConfig(delta_up=delta, delta_down=delta, c=c) for _ in range(K))
    return MessageLog(b=b_msgs, a=a_msgs, cfgs=cfgs, horizon=horizon)


def brownian(K=1, x=(1.0,)):
    return build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=K, x=x))


def ou(K=1, alpha=None):
    alpha = alpha or tuple(1.0 for _ in range(K))
    return build_model(ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=K, alpha=alpha))


# -- reconstruction --------------------------------------------------------


def test_bit_reconstruction_steps():
    m = brownian()
    log = _log(m, b=[((1.0, 2.0, 3.0), (1, 0, 1))])
    state = reconstruct(log, m)
    assert state.tB_i(0, 3.5) == pytest.approx(1.0)
    assert state.tB_i(0, 0.5) == 0.0
    assert state.tB_i(0, 2.0) == pytest.approx(0.0)  # right-continuous at jumps
    np.testing.assert_allclose(state.tB(np.array([0.5, 1.0, 2.5, 3.5])), [0.0, 1.0, 0.0, 1.0])


def test_timing_reconstruction_steps():
    m = ou()
    log = _log(m, a=[(1.0, 2.0)], c=0.5)
    state = reconstruct(log, m)
    assert state.tA_i(0, 2.5) == pytest.approx(1.0)
    assert state.tA_i(0, 1.5) == pytest.approx(0.5)
    assert state.tA_i(0, 0.5) == 0.0


def test_deterministic_information_shortcut():
    m = brownian(K=2, x=(1.0, 2.0))
    log = _log(m, b=[((), ()), ((), ())])
    state = reconstruct(log, m)
    for t in (0.5, 2.0):
        assert state.tA(t) == pytest.approx(5.0 * t)
    assert state.c_total == 0.0


def test_inconsistent_log_rejected():
    m = brownian()
    bad = MessageLog(
        b=(BMessages(time=np.array([1.0, 2.0]), bit=np.array([1], dtype=np.uint8),
                     overshoot=np.zeros(2)),),
        a=(AMessages(time=np.empty(0)),),
        cfgs=(TriggerConfig(delta_up=1.0, delta_down=1.0),),
        horizon=5.0,
    )
    with pytest.raises(InconsistentLog):
        reconstruct(bad, m)


# -- fixed-horizon estimator ------------------------------------------------


def test_fixed_estimate_is_ratio():
    m = brownian()  # information is t
    log = _log(m, b=[((1.0, 2.0, 3.0), (1, 1, 1))])
    state = reconstruct(log, m)
    res = estimate_fixed(state, 10.0)
    assert res.value == pytest.approx(0.3)
    assert res.info_used == pytest.approx(10.0)
    assert res.messages_used == 3


def test_fixed_estimate_without_messages_is_zero():
    m = brownian()
    state = reconstruct(_log(m), m)
    assert estimate_fixed(state, 5.0).value == 0.0


def test_fixed_estimate_requires_deterministic_information():
    m = ou()
    state = reconstruct(_log(m, c=1.0), m)
    with pytest.raises(UnsupportedModel):
        estimate_fixed(state, 1.0)


def test_fixed_estimator_consistency_long_horizon(brownian_k1_long_report):
    agg = next(
        a for a in brownian_k1_long_report.aggregates if a.estimator == DECENTRALIZED_FIXED
    )
    assert agg.n_failed == 0
    assert abs(agg.mean - 1.0) <= 0.01


# -- sequential estimator ----------------------------------------------------


def test_sequential_stops_at_count_threshold():
    m = ou()
    log = _log(m, a=[(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)], c=1.0, horizon=10.0)
    state = reconstruct(log, m)
    res = estimate_sequential(state, gamma=5.0)
    assert res.stop_time == pytest.approx(4.0)
    assert res.info_used == pytest.approx(4.0)
    assert res.value == 0.0  # no bit messages in this crafted log


def test_sequential_rejects_small_gamma():
    m = ou()
    state = reconstruct(_log(m, a=[(1.0,)], c=1.0), m)
    with pytest.raises(GammaTooSmall):
        estimate_sequential(state, gamma=1.0)


def test_sequential_horizon_exhausted():
    m = ou()
    state = reconstruct(_log(m, a=[(1.0, 2.0)], c=1.0, horizon=3.0), m)
    with pytest.raises(HorizonExhausted):
        estimate_sequential(state, gamma=50.0)


def _ou_sequential_report(gamma=300.0, n=1000):
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 1.0)),
        lambda_true=0.5,
        regime=SequentialRegime(
            gamma_list=(gamma,),
            c_rule=PowerLawRule(0.5, 0.25),
            delta_rule=PowerLawRule(0.5, 0.25),
            initial_horizon=5.0,
        ),
        n_replications=n,
        master_seed=90901,
        estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
        grid_steps_per_unit=2000.0,
    )
    return run_experiment(cfg), gamma


def test_sequential_information_sandwich_and_stop_ordering():
    report, gamma = _ou_sequential_report()
    c_total = 2 * 0.5 * gamma**0.25
    dec = [r for r in report.rows if r.estimator == DECENTRALIZED_SEQUENTIAL]
    cen = [r for r in report.rows if r.estimator == CENTRALIZED_SEQUENTIAL]
    assert all(r.ok for r in dec + cen)
    tol = 1e-9 * gamma
    assert all(gamma - c_total - tol <= r.a_at_stop <= gamma + tol for r in dec)
    assert all(rd.stop_time <= rc.stop_time + 1e-9 for rd, rc in zip(dec, cen))
    # reconstructed information never exceeds the true one when all cross
    # terms are deterministic, so the stop consumes at most gamma
    assert all(r.info_used >= gamma - c_total - tol for r in dec)


def test_sequential_standardized_variance_approaches_one_in_gamma():
    # with targets 1e2, 1e3, 1e4 and budgets gamma^(1/4), the variance of
    # sqrt(gamma) * error decreases toward 1 within MC error
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 1.0)),
        lambda_true=0.5,
        regime=SequentialRegime(
            gamma_list=(100.0, 1000.0, 10_000.0),
            c_rule=PowerLawRule(0.5, 0.25),
            delta_rule=PowerLawRule(0.5, 0.25),
            initial_horizon=4.0,
        ),
        n_replications=400,
        master_seed=246810,
        estimators=(DECENTRALIZED_SEQUENTIAL,),
        grid_steps_per_unit=1000.0,
    )
    report = run_experiment(cfg)
    aggs = sorted(report.aggregates, key=lambda a: a.point)
    assert all(a.n_failed == 0 for a in aggs)
    variances = [a.std_variance for a in aggs]
    n = cfg.n_replications
    ses = [v * math.sqrt(2.0 / (n - 1)) for v in variances]
    for (v1, s1), (v2, s2) in zip(zip(variances, ses), zip(variances[1:], ses[1:])):
        assert v2 <= v1 + 2 * math.hypot(s1, s2)
    assert abs(variances[-1] - 1.0) <= 0.10 + 2 * ses[-1]
    # on average the information consumed at the stop does not exceed the
    # target (it cannot, pathwise, when cross terms are deterministic)
    dec = [r for r in report.rows if r.point == 10_000.0]
    a_stop = np.array([r.a_at_stop for r in dec])
    se = a_stop.std(ddof=1) / math.sqrt(a_stop.size)
    assert a_stop.mean() - 10_000.0 <= 3 * se


def test_sequential_error_decomposition_bound():
    # pathwise, with the score M = B - lam A:
    # |estimate - lam| <= (Delta + |lam| c)/(gamma - c) + |M_stop|/(gamma - c)
    gamma, lam = 300.0, 0.5
    c_i = delta_i = 0.5 * gamma**0.25
    c_total = delta_total = 2 * c_i
    model = ou(K=2, alpha=(1.0, 1.0))
    for rep in range(50):
        grid = TimeGrid(8.0, 16_000)
        paths = simulate_paths(model, lam, grid, seed=(5150, rep))
        stats = path_statistics(paths, model)
        cfgs = tuple(
            TriggerConfig(delta_up=delta_i, delta_down=delta_i, c=c_i) for _ in range(2)
        )
        log = run_triggers(stats, model, cfgs)
        state = reconstruct(log, model)
        try:
            res = estimate_sequential(state, gamma)
        except HorizonExhausted:
            continue
        m_stop = float(stats.value_at(stats.B - lam * stats.A, res.stop_time))
        bound = (delta_total + abs(lam) * c_total + abs(m_stop)) / (gamma - c_total)
        assert abs(res.value - lam) <= bound + 1e-9


# every kind, plus the correlated diffusion without random cross-variations
BOUND_CATALOG = ALL_CATALOG + (
    (
        ModelSpec(
            kind=ModelKind.CORRELATED_DIFFUSION,
            K=2,
            sigma=((CONST(1.0), CONST(0.0)), (CONST(0.0), CONST(0.8))),
        ),
        0.2,
    ),
)


@pytest.mark.parametrize("spec,lam", BOUND_CATALOG,
                         ids=[s.kind.value for s, _ in ALL_CATALOG] + ["correlated_diagonal"])
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 200),
    t_end=st.floats(0.5, 5.0),
    delta_up=st.floats(0.05, 2.0),
    delta_down=st.floats(0.05, 2.0),
    c=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
    frac=st.floats(0.01, 1.0),
)
# frac=1: gamma - c_total rounds one ulp above the information reached
@example(n=1, t_end=2.0, delta_up=1.0, delta_down=1.0, c=1.475763587244453, seed=0, frac=1.0)
def test_pathwise_bounds_and_information_sandwich(spec, lam, n, t_end, delta_up, delta_down, c, seed,
                                                  frac):
    # |B - tB| <= Delta and A - tA <= c on every path; 0 <= A - tA and the
    # sandwich gamma - c <= A_stop <= gamma too, unless some cross-variation
    # is random, where tA = sum_i (1 + d_i) tA_i may exceed A
    model = build_model(spec)
    grid = TimeGrid(t_end, n)
    stats = path_statistics(simulate_paths(model, lam, grid, seed=seed), model)
    c_i = None if model.deterministic_info else c
    cfgs = tuple(TriggerConfig(delta_up=delta_up, delta_down=delta_down, c=c_i) for _ in range(model.K))
    log = run_triggers(stats, model, cfgs)
    state = reconstruct(log, model)
    report = audit_bounds(stats, state, log)
    assert report.b_ok and report.a_upper_ok
    if model.deterministic_info:
        # A and each A_i are the closed forms the fusion center uses
        assert report.a_gap_max_total == report.a_gap_min_total == 0.0
        assert np.all(report.a_gap_max_i == 0.0) and np.all(report.a_gap_min_i == 0.0)
    if model.d_counts.any():
        return
    assert report.a_lower_ok
    reached = float(state.tA(t_end))
    if reached == 0.0:
        return
    gamma = state.c_total + frac * reached
    if gamma - state.c_total > reached:
        # the target lies past the horizon: no stop is the correct answer
        with pytest.raises(HorizonExhausted):
            estimate_sequential(state, gamma)
        return
    res = estimate_sequential(state, gamma)
    if model.deterministic_info:
        a_stop = float(model.det_info(res.stop_time))
    else:
        a_stop = float(stats.value_at(stats.A, res.stop_time))
    tol = 1e-9 * gamma
    assert gamma - state.c_total - tol <= a_stop <= gamma + tol


# -- timing-only estimator ----------------------------------------------------


def test_timing_only_arithmetic():
    m = brownian()
    log = _log(m, b=[((2.0, 3.0), (1, 1))], delta=1.0)
    res = estimate_timing_only(reconstruct(log, m), 3.5)
    assert res.info_used == pytest.approx(3.0)
    assert res.value == pytest.approx(2.0 / 3.0)


def test_timing_only_requires_messages_and_model():
    m = brownian()
    with pytest.raises(NoMessages):
        estimate_timing_only(reconstruct(_log(m), m), 1.0)
    m2 = ou()
    with pytest.raises(UnsupportedModel):
        estimate_timing_only(reconstruct(_log(m2, c=1.0), m2), 1.0)


def test_timing_only_consistency_long_horizon(brownian_k1_long_report):
    agg = next(a for a in brownian_k1_long_report.aggregates if a.estimator == TIMING_ONLY)
    assert agg.n_failed == 0
    assert abs(agg.mean - 1.0) <= 0.01


# -- centralized oracles -------------------------------------------------------


def test_centralized_fixed_ratio_and_zero_information():
    m = brownian(K=1, x=(1.0,))
    grid = TimeGrid(4.0, 400)
    stats = path_statistics(simulate_paths(m, 0.5, grid, seed=6), m)
    res = centralized_estimates(stats, t=4.0)[0]
    assert res.value == pytest.approx(stats.B[-1] / stats.A[-1])


def test_centralized_sequential_interpolates_to_exact_information():
    m = ou()
    grid = TimeGrid(6.0, 12_000)
    stats = path_statistics(simulate_paths(m, 0.5, grid, seed=16), m)
    gamma = 0.5 * float(stats.A[-1])
    res = centralized_estimates(stats, gamma=gamma)[0]
    assert res.info_used == gamma
    assert 0 < res.stop_time < 6.0
    a_at = float(stats.value_at(stats.A, res.stop_time))
    assert a_at == pytest.approx(gamma, rel=1e-9)
    with pytest.raises(HorizonExhausted):
        centralized_estimates(stats, gamma=10.0 * float(stats.A[-1]))


def test_centralized_sequential_variance_and_lower_bound():
    # random-information model, fixed target: standardized errors have
    # unit variance, and no unbiased estimator can beat 1/gamma
    gamma, lam = 50.0, 0.5
    model = ou()
    n = 10_000
    vals = np.empty(n)
    for rep in range(n):
        t_end = 6.0
        while True:
            grid = TimeGrid(t_end, int(1000 * t_end))
            stats = path_statistics(simulate_paths(model, lam, grid, seed=(31337, rep)), model)
            if stats.A[-1] >= gamma:
                break
            t_end += 3.0
        vals[rep] = centralized_estimates(stats, gamma=gamma)[0].value
    z = math.sqrt(gamma) * (vals - lam)
    assert abs(z.var(ddof=1) - 1.0) <= 0.05
    assert vals.var(ddof=1) >= (1.0 - 3.0 / math.sqrt(n)) / gamma
