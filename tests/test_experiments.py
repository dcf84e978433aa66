import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from test_models import ALL_CATALOG

from bitfuse import experiments, fusion
from bitfuse.errors import (
    BitfuseError,
    HorizonExhausted,
    InvalidSpec,
    NumericalBlowup,
    SampleTooSmall,
)
from bitfuse.experiments import (
    DiscreteSamplingRegime,
    ExperimentConfig,
    FixedHorizonRegime,
    PowerLawRule,
    SequentialRegime,
    audit_bounds,
    compute_aggregates,
    ks_test,
    overshoot_study,
    run_experiment,
    run_replication,
)
from bitfuse.fusion import (
    CENTRALIZED_FIXED,
    CENTRALIZED_SEQUENTIAL,
    DECENTRALIZED_FIXED,
    DECENTRALIZED_SEQUENTIAL,
    TIMING_ONLY,
    centralized_estimates,
    reconstruct,
)
from bitfuse.models import ModelKind, ModelSpec, TimeGrid, build_model, path_statistics, simulate_paths
from bitfuse.reporting import rows_csv_text
from bitfuse.suites import MASTER_SEED
from bitfuse.timefuncs import TimeFunction
from bitfuse.triggers import TriggerConfig, run_triggers

BROWNIAN2 = ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 1.0))


def small_cfg(**kw):
    base = dict(
        model=BROWNIAN2,
        lambda_true=1.0,
        regime=FixedHorizonRegime(t_list=(50.0,), delta_rule=PowerLawRule(2.0, 0.0)),
        n_replications=16,
        master_seed=321,
        estimators=(DECENTRALIZED_FIXED, CENTRALIZED_FIXED),
        grid_steps_per_unit=40.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# -- KS test -----------------------------------------------------------------


def test_ks_on_perfectly_placed_quantiles():
    n = 100
    sample = special.ndtri((np.arange(1, n + 1) - 0.5) / n)
    D, p = ks_test(sample)
    assert D <= 0.005 + 1e-12


def test_ks_on_normal_draws():
    rng = np.random.default_rng(13)
    D, p = ks_test(rng.standard_normal(10_000))
    assert D < 0.02
    assert p > 0.01


def test_ks_degenerate_sample():
    D, p = ks_test(np.zeros(100))
    assert D >= 0.5
    assert p < 1e-6


def test_ks_sample_too_small():
    with pytest.raises(SampleTooSmall):
        ks_test(np.arange(5, dtype=float))


# -- run_experiment ----------------------------------------------------------


def test_reports_are_deterministic_and_order_independent():
    cfg = small_cfg(n_replications=8)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert rows_csv_text(r1) == rows_csv_text(r2)
    r3 = run_experiment(cfg, threads=2)
    assert rows_csv_text(r1) == rows_csv_text(r3)


def test_aggregates_recomputable_from_rows():
    report = run_experiment(small_cfg())
    again = compute_aggregates(list(report.rows))
    assert tuple(again) == report.aggregates


def test_bit_estimator_standardized_errors_pass_ks(brownian_k1_long_report):
    agg = next(
        a for a in brownian_k1_long_report.aggregates if a.estimator == DECENTRALIZED_FIXED
    )
    assert agg.ks_p > 0.01


def test_estimator_consistency_on_small_run():
    report = run_experiment(small_cfg(n_replications=64))
    agg = {a.estimator: a for a in report.aggregates}
    # decentralized and centralized agree within the threshold budget over A_t
    assert abs(agg[DECENTRALIZED_FIXED].mean - agg[CENTRALIZED_FIXED].mean) < 2 * 4.0 / 100.0
    assert agg[CENTRALIZED_FIXED].n_failed == 0


def test_failed_replications_are_flagged_not_dropped():
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=1, alpha=(1.0,)),
        lambda_true=8.0,  # explodes on this coarse grid
        regime=SequentialRegime(
            gamma_list=(100.0,),
            c_rule=PowerLawRule(1.0, 0.0),
            delta_rule=PowerLawRule(1.0, 0.0),
            initial_horizon=50.0,
        ),
        n_replications=4,
        master_seed=11,
        estimators=(DECENTRALIZED_SEQUENTIAL,),
        grid_steps_per_unit=0.5,
    )
    report = run_experiment(cfg)
    assert len(report.rows) == 4
    assert all(not r.ok for r in report.rows)
    assert all("NumericalBlowup" in r.fail_reason for r in report.rows)
    assert report.aggregates[0].n_failed == 4


def test_sequential_horizon_extension_warns_and_succeeds():
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=1, alpha=(1.0,)),
        lambda_true=0.5,
        regime=SequentialRegime(
            gamma_list=(50.0,),
            c_rule=PowerLawRule(1.0, 0.0),
            delta_rule=PowerLawRule(1.0, 0.0),
            initial_horizon=1.0,  # far too short on purpose
        ),
        n_replications=4,
        master_seed=5,
        estimators=(DECENTRALIZED_SEQUENTIAL,),
        grid_steps_per_unit=1000.0,
    )
    report = run_experiment(cfg)
    assert all(r.ok for r in report.rows)
    assert len(report.warnings) >= 1
    assert all("extended" in w for w in report.warnings)


def test_sequential_a_at_stop_is_exact_for_deterministic_information():
    # the stop is the closed-form time where A reaches gamma; with A
    # nonlinear in t (Gaussian kind) a linear interpolation of A between
    # grid points lies above gamma there
    spec, lam = ALL_CATALOG[1]
    gamma = 0.6 * float(build_model(spec).det_info(5.0))
    for steps_per_unit in (40.0, 400.0):
        cfg = ExperimentConfig(
            model=spec,
            lambda_true=lam,
            regime=SequentialRegime(
                gamma_list=(gamma,),
                c_rule=PowerLawRule(0.5, 0.25),
                delta_rule=PowerLawRule(0.5, 0.25),
                initial_horizon=5.0,
            ),
            n_replications=2,
            master_seed=1,
            estimators=(DECENTRALIZED_SEQUENTIAL,),
            grid_steps_per_unit=steps_per_unit,
        )
        (row,) = run_replication(cfg, 0, 0)
        assert row.ok
        # no timing messages, so c_total = 0 and the sandwich is gamma itself
        assert abs(row.a_at_stop - gamma) <= 1e-9 * gamma


class _RecordedPool:
    """A stand-in for ProcessPoolExecutor that records its size and runs
    the tasks in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_worker_pool_is_bounded_by_tasks_and_cores(monkeypatch):
    # a forked pool starts every worker it is given, so 5000 threads must
    # not mean 5000 processes
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordedPool)
    monkeypatch.setattr(_RecordedPool, "sizes", [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    cfg = small_cfg(n_replications=3)
    serial = rows_csv_text(run_experiment(cfg))
    for threads in (5000, 2):
        assert rows_csv_text(run_experiment(cfg, threads=threads)) == serial
    run_experiment(small_cfg(n_replications=8), threads=5000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_experiment(cfg, threads=5000)  # one core: no pool
    assert _RecordedPool.sizes == [3, 2, 4]


@pytest.mark.parametrize("K", [1, 2])
def test_starting_grid_within_the_sensor_steps_budget(K):
    spec = ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=K, x=(1.0,) * K)
    steps = experiments.MAX_SENSOR_STEPS // K
    rule = PowerLawRule(1.0, 0.0)
    regimes = {
        "fixed": lambda t: FixedHorizonRegime(t_list=(1.0, t), delta_rule=rule),
        "sequential": lambda t: SequentialRegime(gamma_list=(5.0,), c_rule=rule, delta_rule=rule,
                                                 initial_horizon=t),
        "discrete": lambda t: DiscreteSamplingRegime(t=t, delta_rule=rule, h_list=(1.0,)),
    }
    for name, regime in regimes.items():
        ests = (CENTRALIZED_SEQUENTIAL,) if name == "sequential" else (CENTRALIZED_FIXED,)
        # one step per unit: the horizon is the grid's step count
        small_cfg(model=spec, regime=regime(float(steps)), estimators=ests, grid_steps_per_unit=1.0)
        with pytest.raises(InvalidSpec, match="budget"):
            small_cfg(model=spec, regime=regime(float(steps + 1)), estimators=ests,
                      grid_steps_per_unit=1.0)
        with pytest.raises(InvalidSpec, match="budget"):
            small_cfg(model=spec, regime=regime(5.0), estimators=ests, grid_steps_per_unit=1e300)


def test_run_replication_single_rows():
    rows = run_replication(small_cfg(), point_index=0, rep=3)
    assert {r.estimator for r in rows} == {DECENTRALIZED_FIXED, CENTRALIZED_FIXED}
    assert all(r.rep == 3 and r.ok for r in rows)


def test_grid_refinement_must_align_with_sampling_period():
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)),
        lambda_true=1.0,
        regime=DiscreteSamplingRegime(t=100.0, delta_rule=PowerLawRule(5.0, 0.0), h_list=(0.3,)),
        n_replications=2,
        master_seed=2,
        estimators=(DECENTRALIZED_FIXED,),
        grid_steps_per_unit=10.0,  # 0.3 * 10 = 3 steps: fine
    )
    run_experiment(cfg)
    with pytest.raises(InvalidSpec):
        ExperimentConfig(
            model=cfg.model,
            lambda_true=1.0,
            regime=DiscreteSamplingRegime(
                t=100.0, delta_rule=PowerLawRule(5.0, 0.0), h_list=(0.3,)
            ),
            n_replications=2,
            master_seed=2,
            estimators=(DECENTRALIZED_FIXED,),
            grid_steps_per_unit=7.0,  # 0.3 * 7 = 2.1 steps: invalid
        )
    # the horizon 10.25 gets round(102.5) = 102 steps of 10.25/102, not 0.1:
    # h = 0.5 is 4.975 of them, and five of them make a valid h
    with pytest.raises(InvalidSpec):
        replace(cfg, regime=DiscreteSamplingRegime(t=10.25, delta_rule=PowerLawRule(5.0, 0.0), h_list=(0.5,)))
    five = replace(cfg, regime=DiscreteSamplingRegime(
        t=10.25, delta_rule=PowerLawRule(5.0, 0.0), h_list=(5 * (10.25 / 102),)
    ))
    assert five.grid_for(10.25).n_steps == 102
    report = run_experiment(five)
    assert len(report.rows) == 2 and all(r.ok for r in report.rows)
    # a period with no whole step count is invalid input, not an overflow
    for h in (float("inf"), float("nan")):
        with pytest.raises(InvalidSpec):
            replace(cfg, regime=DiscreteSamplingRegime(t=100.0, delta_rule=PowerLawRule(5.0, 0.0), h_list=(h,)))


SEQUENTIAL_RULES = dict(
    c_rule=PowerLawRule(1.0, 0.0), delta_rule=PowerLawRule(1.0, 0.0), initial_horizon=5.0
)


FIXED = FixedHorizonRegime(t_list=(50.0,), delta_rule=PowerLawRule(2.0, 0.0))
DISCRETE = DiscreteSamplingRegime(t=50.0, delta_rule=PowerLawRule(2.0, 0.0), h_list=(0.5,))
SEQUENTIAL = SequentialRegime(gamma_list=(10.0,), **SEQUENTIAL_RULES)


@pytest.mark.parametrize(
    "regime, estimator",
    [
        (FIXED, DECENTRALIZED_SEQUENTIAL),
        (FIXED, CENTRALIZED_SEQUENTIAL),
        (DISCRETE, DECENTRALIZED_SEQUENTIAL),
        (SEQUENTIAL, DECENTRALIZED_FIXED),
        (SEQUENTIAL, CENTRALIZED_FIXED),
        (SEQUENTIAL, TIMING_ONLY),
    ],
    ids=lambda v: getattr(v, "kind", v),
)
def test_estimator_must_suit_the_regime(regime, estimator):
    with pytest.raises(InvalidSpec, match=regime.kind):
        small_cfg(regime=regime, estimators=(estimator,))


def test_gamma_below_count_budget_gives_failed_rows():
    # c_total = K * c = 2 exceeds gamma: the decentralized stopping rule
    # is undefined, the oracle is not
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 1.0)),
        lambda_true=0.5,
        regime=SequentialRegime(gamma_list=(1.5,), **SEQUENTIAL_RULES),
        n_replications=4,
        master_seed=77,
        estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
        grid_steps_per_unit=200.0,
    )
    report = run_experiment(cfg)
    assert len(report.rows) == 8
    dec = [r for r in report.rows if r.estimator == DECENTRALIZED_SEQUENTIAL]
    assert all(not r.ok and r.fail_reason.startswith("GammaTooSmall") for r in dec)
    assert all(r.ok for r in report.rows if r.estimator == CENTRALIZED_SEQUENTIAL)


def test_fixed_horizon_on_random_information_gives_failed_rows():
    # OU information is random, so the fixed-horizon thresholds carry no
    # timing increment c: the bit estimator is undefined, the oracle is not
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 1.0)),
        lambda_true=0.5,
        regime=FixedHorizonRegime(t_list=(5.0,), delta_rule=PowerLawRule(1.0, 0.25)),
        n_replications=2,
        master_seed=1,
        estimators=(DECENTRALIZED_FIXED, CENTRALIZED_FIXED),
        grid_steps_per_unit=50.0,
    )
    report = run_experiment(cfg)
    assert len(report.rows) == 4
    dec = [r for r in report.rows if r.estimator == DECENTRALIZED_FIXED]
    assert all(not r.ok and r.fail_reason.startswith("UnsupportedModel") for r in dec)
    assert all(r.ok for r in report.rows if r.estimator == CENTRALIZED_FIXED)


def test_statistics_flood_gives_failed_rows():
    # with lambda = 8 the integral B_i grows like lambda A: it passes the
    # cap (1e12) while the information is ~1.25e11 and the path ~1e6, far
    # under the path cap, so the statistics blow up before gamma = 5e11 is
    # reached; the triggers would ask for ~1e11 messages and lose the run
    def cfg(lam, gamma, horizon):
        return ExperimentConfig(
            model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 1.0)),
            lambda_true=lam,
            regime=SequentialRegime(
                gamma_list=(gamma,),
                c_rule=PowerLawRule(0.5, 0.25),
                delta_rule=PowerLawRule(0.5, 0.25),
                initial_horizon=horizon,
            ),
            n_replications=100,
            master_seed=11,
            estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
            grid_steps_per_unit=100.0,
        )

    for rep in range(3):
        rows = run_replication(cfg(8.0, 5e11, 3.0), 0, rep)
        assert [r.estimator for r in rows] == [DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL]
        assert all(not r.ok and r.fail_reason.startswith("NumericalBlowup: integral B_i")
                   for r in rows)
    # replication 46 here keeps max|Y| = 6.8e11, under the path cap, while
    # one grid step moves B_i by ~2e21, but only after both stops (t ~ 10.3
    # of 60): the statistics end 2 steps past where A reaches
    # gamma + c_total, so its rows are ok (they failed while the statistics
    # covered the whole horizon)
    rows = run_replication(cfg(0.5, 200.0, 60.0), 0, 46)
    assert all(r.ok and r.stop_time < 10.4 and r.horizon == 60.0 for r in rows)


def test_message_flood_gives_failed_rows():
    # a threshold of 1e-300 asks the bit trigger for ~1e300 messages
    cfg = small_cfg(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)),
        regime=FixedHorizonRegime(t_list=(5.0,), delta_rule=PowerLawRule(1e-300, 0.25)),
    )
    rows = run_replication(cfg, 0, 0)
    assert [r.estimator for r in rows] == [DECENTRALIZED_FIXED, CENTRALIZED_FIXED]
    assert all(not r.ok and r.fail_reason.startswith("MessageFlood") for r in rows)


def test_an_attempt_its_oracle_exhausts_runs_no_trigger(monkeypatch):
    # the oracle reads no message: when it exhausts an attempt's horizon
    # the replication starts again on a longer one, and no trigger runs on
    # the short one
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 0.5)),
        lambda_true=-0.3,
        regime=SequentialRegime(gamma_list=(8.0,), c_rule=PowerLawRule(0.3, 0.25),
                                delta_rule=PowerLawRule(0.3, 0.25), initial_horizon=1.0),
        n_replications=2,
        master_seed=5,
        estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
        grid_steps_per_unit=200.0,
    )
    events = []

    def spy(name, fn):
        def call(*args, **kwargs):
            events.append(name)
            try:
                return fn(*args, **kwargs)
            except HorizonExhausted:
                events.append("exhausted")
                raise

        return call

    for name in ("simulate_paths", "centralized_estimates", "run_a_trigger", "run_b_trigger"):
        monkeypatch.setattr(experiments, name, spy(name, getattr(experiments, name)))
    rows = run_replication(cfg, 0, 0)
    assert all(r.ok for r in rows)
    attempts = " ".join(events).split("simulate_paths")[1:]
    exhausted = [a for a in attempts if "exhausted" in a]
    assert exhausted and not any("trigger" in a for a in exhausted)
    assert attempts[-1].split().count("run_a_trigger") == 2
    assert attempts[-1].split().count("run_b_trigger") == 2


@pytest.mark.parametrize("spec,lam", ALL_CATALOG, ids=[s.kind.value for s, _ in ALL_CATALOG])
def test_sequential_statistics_end_past_both_stops(monkeypatch, spec, lam):
    # the statistics of a sequential attempt cover the grid prefix that
    # holds both stops; rows built from whole-horizon statistics must be
    # the same bytes, extended replications included
    cfg = ExperimentConfig(
        model=spec,
        lambda_true=lam,
        regime=SequentialRegime(gamma_list=(3.0, 8.0), c_rule=PowerLawRule(0.3, 0.25),
                                delta_rule=PowerLawRule(0.3, 0.25), initial_horizon=2.0),
        n_replications=6,
        master_seed=5,
        estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
        grid_steps_per_unit=200.0,
    )
    steps = []
    compute = experiments.path_statistics

    def spy(paths, model, reach, out=None):
        stats = compute(paths, model, reach, out)
        steps.append(stats.grid.n_steps)
        return stats

    monkeypatch.setattr(experiments, "path_statistics", spy)
    cut = run_experiment(cfg)
    assert all(r.ok for r in cut.rows)
    cut_steps, steps[:] = steps[:], []

    def whole(paths, model, reach, out=None):
        # drops the cut: statistics over the attempt's whole horizon
        stats = compute(paths, model, out=out)
        steps.append(stats.grid.n_steps)
        return stats

    monkeypatch.setattr(experiments, "path_statistics", whole)
    assert rows_csv_text(run_experiment(cfg)) == rows_csv_text(cut)
    assert len(steps) == len(cut_steps)
    assert all(c <= w for c, w in zip(cut_steps, steps)) and sum(cut_steps) < sum(steps)


def test_a_sequential_attempt_forms_its_information_once(monkeypatch):
    # the cut is found on the information the statistics keep: one pass
    # per attempt, extended replications included, and no second pass
    # over the whole horizon to find the stops
    spec = ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 0.5))
    cfg = ExperimentConfig(
        model=spec,
        lambda_true=-0.3,
        regime=SequentialRegime(gamma_list=(8.0,), c_rule=PowerLawRule(0.3, 0.25),
                                delta_rule=PowerLawRule(0.3, 0.25), initial_horizon=1.0),
        n_replications=2,
        master_seed=5,
        estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
        grid_steps_per_unit=200.0,
    )
    model_cls = type(build_model(spec))
    density, simulate = model_cls.qv_density, experiments.simulate_paths
    calls, attempts = [], []

    def counted_density(self, *args):
        calls.append(args[:2])
        return density(self, *args)

    def counted_simulate(*args):
        attempts.append(args[2].t_end)
        return simulate(*args)

    monkeypatch.setattr(model_cls, "qv_density", counted_density)
    monkeypatch.setattr(experiments, "simulate_paths", counted_simulate)
    rows = run_replication(cfg, 0, 0)
    assert all(r.ok for r in rows)
    assert len(attempts) > 1
    assert calls == [(0, 0), (1, 1)] * len(attempts)


# -- one sensor at a time ----------------------------------------------------


def _whole_model_rows(cfg, point_index, rep):
    """One fixed-horizon or discrete-sampling replication's rows from the
    public whole-model layers: ``simulate_paths`` on the K-sensor model,
    ``path_statistics``, ``run_triggers``, ``reconstruct`` and the
    estimators, as (ok, value, info_used, a_at_stop, messages_used,
    b_messages, a_messages, eta_sum, std_error, fail_reason) tuples."""
    model = build_model(cfg.model)
    point = cfg.regime.points()[point_index]
    t = cfg.regime.horizon(point)
    failed = (False, math.nan, math.nan, math.nan, 0, 0, 0, 0.0, math.nan)
    try:
        paths = simulate_paths(model, cfg.lambda_true, cfg.grid_for(t),
                               cfg.replication_seed(point_index, rep))
        stats = path_statistics(paths, model)
        log = run_triggers(stats, model, cfg.regime.trigger_configs(model, point))
        state = reconstruct(log, model)
    except BitfuseError as exc:
        return [failed + (f"{type(exc).__name__}: {exc}",) for _ in cfg.estimators]
    estimate = {
        CENTRALIZED_FIXED: lambda: centralized_estimates(stats, t=t)[0],
        DECENTRALIZED_FIXED: lambda: fusion.estimate_fixed(state, t),
        TIMING_ONLY: lambda: fusion.estimate_timing_only(state, t),
    }
    a_t = float(stats.A[-1])
    b_n, a_n = state.message_counts(t)
    eta = sum(float(bm.overshoot[: np.searchsorted(bm.time, t, side="right")].sum())
              for bm in log.b)
    rows = []
    for est in cfg.estimators:
        try:
            res = estimate[est]()
        except BitfuseError as exc:
            rows.append(failed + (f"{type(exc).__name__}: {exc}",))
            continue
        rows.append((True, res.value, res.info_used, a_t, res.messages_used, b_n, a_n, eta,
                     math.sqrt(a_t) * (res.value - cfg.lambda_true), ""))
    return rows


def _fields(row):
    return (row.ok, row.value, row.info_used, row.a_at_stop, row.messages_used, row.b_messages,
            row.a_messages, row.eta_sum, row.std_error, row.fail_reason)


def _same(a, b):
    # field by field, NaN equal to NaN
    return len(a) == len(b) and all(u == v or (u != u and v != v) for u, v in zip(a, b))


def test_only_kinds_with_independent_sequential_draws_split():
    # the rows of every kind that splits are compared with the whole
    # model's below; a kind that starts splitting needs its case there
    split = {spec.kind for spec, _ in ALL_CATALOG if build_model(spec).parts()[0].K < spec.K}
    assert split == {ModelKind.BROWNIAN_CONSTANT}


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(1, 5),
    x=st.lists(st.one_of(st.floats(0.2, 3.0), st.floats(-3.0, -0.2)), min_size=5, max_size=5),
    lam=st.floats(-1.0, 1.0),
    a=st.floats(0.3, 3.0),
    n=st.integers(16, 800),
    spu=st.sampled_from([4.0, 10.0, 40.0]),
    strides=st.lists(st.integers(1, 5), min_size=1, max_size=2, unique=True),
    discrete=st.booleans(),
    master_seed=st.integers(0, 2**32 - 1),
)
# every path passes the blow-up cap: every row fails, the same way
@example(K=3, x=[1e13] * 5, lam=1.0, a=1.0, n=40, spu=4.0, strides=[1], discrete=False,
         master_seed=1)
@example(K=2, x=[2e6, 1e7, 1, 1, 1], lam=1.0, a=1.0, n=40, spu=4.0, strides=[2],
         discrete=True, master_seed=1)
# grids long enough that the next sensor is drawn on the second thread
@example(K=3, x=[1.0, -0.5, 2.0, 1, 1], lam=0.5, a=1.0, n=experiments.DRAW_AHEAD_MIN_STEPS,
         spu=40.0, strides=[1], discrete=False, master_seed=5)
@example(K=2, x=[0.7, 1.5, 1, 1, 1], lam=-0.3, a=0.5, n=experiments.DRAW_AHEAD_MIN_STEPS,
         spu=40.0, strides=[1, 3], discrete=True, master_seed=6)
def test_split_rows_equal_rows_from_the_whole_model(K, x, lam, a, n, spu, strides, discrete,
                                                     master_seed):
    # one sensor at a time in the engine, all K at once through the public
    # layers: the same draws, statistics, messages and rows
    t = n / spu
    rule = PowerLawRule(a, 0.25)
    if discrete:
        regime = DiscreteSamplingRegime(t=t, delta_rule=rule, h_list=tuple(k * t / n for k in strides))
    else:
        regime = FixedHorizonRegime(t_list=(t, t / 2), delta_rule=rule)
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=K, x=tuple(x[:K])),
        lambda_true=lam,
        regime=regime,
        n_replications=2,
        master_seed=master_seed,
        estimators=(DECENTRALIZED_FIXED, CENTRALIZED_FIXED, TIMING_ONLY),
        grid_steps_per_unit=spu,
    )
    for pi in range(len(regime.points())):
        for rep in range(2):
            got = [_fields(r) for r in run_replication(cfg, pi, rep)]
            want = _whole_model_rows(cfg, pi, rep)
            assert all(_same(g, w) for g, w in zip(got, want)) and len(got) == len(want), (got, want)
            if x[0] == 1e13:
                assert all(not g[0] and "path magnitude" in g[-1] for g in got)


def test_a_split_replication_reports_the_first_error_in_sensor_order():
    # sensor 0's bit trigger floods before sensor 1 is simulated, so its
    # MessageFlood is reported; the whole model's path check, which comes
    # before any trigger, reports sensor 1's blow-up
    cfg = small_cfg(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 1e13)),
        regime=FixedHorizonRegime(t_list=(5.0,), delta_rule=PowerLawRule(1e-9, 0.0)),
    )
    rows = run_replication(cfg, 0, 0)
    assert all(not r.ok and r.fail_reason.startswith("MessageFlood") for r in rows)
    assert all(w[-1].startswith("NumericalBlowup: path magnitude")
               for w in _whole_model_rows(cfg, 0, 0))
    # without a message-reading estimator no trigger runs: sensor 1's path
    rows = run_replication(replace(cfg, estimators=(CENTRALIZED_FIXED,)), 0, 0)
    assert [r.fail_reason.split(":")[0] for r in rows] == ["NumericalBlowup"]


def _long_split_cfg(**kw):
    """Two Brownian sensors on a grid long enough to draw ahead."""
    n = experiments.DRAW_AHEAD_MIN_STEPS
    base = dict(
        model=BROWNIAN2,
        regime=FixedHorizonRegime(t_list=(n / 40.0,), delta_rule=PowerLawRule(1.0, 0.25)),
        n_replications=2,
        estimators=(DECENTRALIZED_FIXED, TIMING_ONLY, CENTRALIZED_FIXED),
    )
    base.update(kw)
    return small_cfg(**base)


def test_a_split_replication_forms_no_information_row(monkeypatch):
    # the oracle takes A(t) from the whole model's closed form, so no
    # part's statistics form their A row
    model_cls = type(build_model(BROWNIAN2))
    det_info, ndims = model_cls.det_info, []

    def recorded(self, t):
        ndims.append(np.ndim(t))
        return det_info(self, t)

    monkeypatch.setattr(model_cls, "det_info", recorded)
    for cfg in (small_cfg(), _long_split_cfg()):
        ndims.clear()
        assert all(r.ok for r in run_replication(cfg, 0, 0))
        assert ndims and set(ndims) == {0}


class _CountedPool(ThreadPoolExecutor):
    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


def test_no_draw_thread_outlives_a_split_replication(monkeypatch):
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", _CountedPool)
    monkeypatch.setattr(_CountedPool, "made", 0)
    before = threading.active_count()
    assert all(r.ok for r in run_replication(_long_split_cfg(), 0, 0))
    assert threading.active_count() == before and _CountedPool.made == 1
    # the setup of test_a_split_replication_reports_the_first_error_in_sensor_order
    # on a long grid: sensor 0's triggers flood while sensor 1 is drawn
    cfg = _long_split_cfg(model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 1e13)),
                          regime=FixedHorizonRegime(t_list=(experiments.DRAW_AHEAD_MIN_STEPS / 40.0,),
                                                    delta_rule=PowerLawRule(1e-9, 0.0)))
    rows = run_replication(cfg, 0, 0)
    assert all(not r.ok and r.fail_reason.startswith("MessageFlood") for r in rows)
    assert threading.active_count() == before
    # no trigger: sensor 1's path, the second part, raises
    rows = run_replication(replace(cfg, estimators=(CENTRALIZED_FIXED,)), 0, 0)
    assert [r.fail_reason.split(":")[0] for r in rows] == ["NumericalBlowup"]
    assert threading.active_count() == before and _CountedPool.made == 3


class _FailingDraws:
    """A generator whose second row of draws raises ``exc``; it records
    the thread of each draw."""

    def __init__(self, rng, exc):
        self.rng, self.exc, self.threads = rng, exc, []

    def standard_normal(self, out):
        self.threads.append(threading.current_thread())
        if len(self.threads) == 2:
            raise self.exc
        return self.rng.standard_normal(out=out)


@pytest.mark.parametrize("exc", [NumericalBlowup("draw failed"), RuntimeError("draw failed")])
def test_an_error_in_a_draw_made_ahead_reaches_the_caller(monkeypatch, exc):
    made, default_rng = [], np.random.default_rng

    def failing_rng(seed):
        made.append(_FailingDraws(default_rng(seed), exc))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", failing_rng)
    before = threading.active_count()
    if isinstance(exc, BitfuseError):
        rows = run_replication(_long_split_cfg(), 0, 0)
        assert all(not r.ok and r.fail_reason == "NumericalBlowup: draw failed" for r in rows)
    else:
        with pytest.raises(RuntimeError, match="draw failed"):
            run_replication(_long_split_cfg(), 0, 0)
    assert threading.active_count() == before
    # sensor 0 is drawn on the caller's thread, sensor 1 on the second
    (draws,) = made
    assert draws.threads[0] is threading.current_thread() is not draws.threads[1]


# split replications in this process first, so a pool forked from it
# after them must still draw ahead in its workers; two usable cores, so
# that threads=2 runs a pool on any machine
FORK_AFTER_DRAWS = """
import os
os.sched_getaffinity = lambda pid: {0, 1}
from bitfuse.experiments import (DRAW_AHEAD_MIN_STEPS, ExperimentConfig, FixedHorizonRegime,
                                 PowerLawRule, run_experiment, run_replication)
from bitfuse.models import ModelKind, ModelSpec
from bitfuse.reporting import rows_csv_text
cfg = ExperimentConfig(
    model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=3, x=(1.0, 0.5, 2.0)),
    lambda_true=1.0,
    regime=FixedHorizonRegime(t_list=(DRAW_AHEAD_MIN_STEPS / 40.0,),
                              delta_rule=PowerLawRule(1.0, 0.25)),
    n_replications=4,
    master_seed=17,
    estimators=("decentralized_fixed", "centralized_fixed"),
    grid_steps_per_unit=40.0,
)
for rep in range(2):
    run_replication(cfg, 0, rep)
pooled = run_experiment(cfg, threads=2)
print(rows_csv_text(pooled) == rows_csv_text(run_experiment(cfg, threads=1)),
      sum(r.ok for r in pooled.rows))
"""


def test_a_pool_forked_after_split_replications_gives_the_serial_rows():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", FORK_AFTER_DRAWS], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "8"]


def _replication_peak(K, n):
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=K, x=(1.0,) * K),
        lambda_true=0.5,
        regime=FixedHorizonRegime(t_list=(n / 20.0,), delta_rule=PowerLawRule(1.0, 0.25)),
        n_replications=2,
        master_seed=4,
        estimators=(DECENTRALIZED_FIXED, TIMING_ONLY, CENTRALIZED_FIXED),
        grid_steps_per_unit=20.0,
    )
    run_replication(cfg, 0, 0)
    tracemalloc.start()
    try:
        rows = run_replication(cfg, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.ok for r in rows)
    return peak


def test_fixed_horizon_brownian_replication_memory_does_not_grow_with_K():
    # one sensor's path row at a time, over which its B_i is formed, and
    # the closed-form A row: holding every sensor's path and B_i, as the
    # whole model does (2K + 3 rows of the grid), puts K = 8 at ~3.8 x K = 1
    n = 100_000
    assert _replication_peak(8, n) <= 1.25 * _replication_peak(1, n)


# the child limits its own address space before it imports numpy
SEED_8_REPLICATION = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from bitfuse.experiments import ExperimentConfig, PowerLawRule, SequentialRegime, run_replication
from bitfuse.models import ModelKind, ModelSpec
cfg = ExperimentConfig(
    model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 1.0)),
    lambda_true=0.5,
    regime=SequentialRegime(gamma_list=(10_000.0,), c_rule=PowerLawRule(0.5, 0.25),
                            delta_rule=PowerLawRule(0.5, 0.25), initial_horizon=8.5),
    n_replications=1000,
    master_seed=8,
    estimators=("decentralized_sequential", "centralized_sequential"),
    grid_steps_per_unit=1000.0,
)
for row in run_replication(cfg, 0, 824):
    print(row.ok, row.horizon, row.stop_time < row.horizon)
"""


def test_sequential_suite_replication_ends_before_its_bit_flood():
    # the sequential suite's replication 824 at experiment seed 8 is
    # extended to t = 20.75, past which B_i grows like e^(lambda t): the
    # whole-horizon bit trigger asked for 221,640,166 levels (1.65 GiB) in
    # one allocation, while both stops come before t = 8.5
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", SEED_8_REPLICATION], capture_output=True,
                         text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["True 20.751953125 True"] * 2


# -- pinned output bytes ---------------------------------------------------------
#
# sha256 of the rows CSV of two fixed-seed runs (Python 3.11, numpy 2.4).  A
# change that deliberately moves the random stream layout or the numbers
# updates these hashes and says so in CHANGES.md; any other change keeps them.

PINNED_ROWS = (
    (
        "determinism-suite",
        ExperimentConfig(
            model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 2.0)),
            lambda_true=0.7,
            regime=FixedHorizonRegime(t_list=(50.0,), delta_rule=PowerLawRule(2.0, 0.0)),
            n_replications=8,
            master_seed=MASTER_SEED + 10,
            estimators=(DECENTRALIZED_FIXED, CENTRALIZED_FIXED, TIMING_ONLY),
            grid_steps_per_unit=50.0,
        ),
        "78fac038aa9217a463349b1062f151ce4817dab3d204b6535240f0f4acb1d558",
    ),
    (
        "ou-sequential-extended",
        ExperimentConfig(
            model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 0.5)),
            lambda_true=0.5,
            regime=SequentialRegime(
                gamma_list=(30.0, 60.0),
                c_rule=PowerLawRule(0.5, 0.25),
                delta_rule=PowerLawRule(0.5, 0.25),
                initial_horizon=1.0,
            ),
            n_replications=6,
            master_seed=7,
            estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
            grid_steps_per_unit=200.0,
        ),
        "ccbaa515c575a804160e4b8555f9d8bedf7e350b88aa4a884ca8af3d3566ba3d",
    ),
    # recorded while every fixed-horizon and discrete replication still
    # held all of its sensors' paths; Brownian now runs one sensor at a time
    (
        "brownian-fixed-horizon",
        ExperimentConfig(
            model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=3, x=(1.0, -0.5, 2.0)),
            lambda_true=0.6,
            regime=FixedHorizonRegime(t_list=(20.0, 45.0), delta_rule=PowerLawRule(1.0, 0.25)),
            n_replications=6,
            master_seed=17,
            estimators=(DECENTRALIZED_FIXED, CENTRALIZED_FIXED, TIMING_ONLY),
            grid_steps_per_unit=40.0,
        ),
        "51359612e3e34e6dbe145768e7b6e5a173845ed57f775e94ade8004a0dd3747c",
    ),
    (
        "brownian-discrete-sampling",
        ExperimentConfig(
            model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, -1.5)),
            lambda_true=0.4,
            regime=DiscreteSamplingRegime(t=30.0, delta_rule=PowerLawRule(1.0, 0.25),
                                          h_list=(0.25, 0.75)),
            n_replications=6,
            master_seed=19,
            estimators=(DECENTRALIZED_FIXED, CENTRALIZED_FIXED, TIMING_ONLY),
            grid_steps_per_unit=40.0,
        ),
        "a685a23a6cfd9ffa7a14f6110c24c11d765a21b48c6f5f282ba5bfd8404c4b1a",
    ),
    # OU stays whole; its oracle now reads the totals at the horizon
    (
        "ou-fixed-horizon-oracle",
        ExperimentConfig(
            model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=3, alpha=(1.0, 0.5, 2.0)),
            lambda_true=-0.3,
            regime=FixedHorizonRegime(t_list=(5.0, 12.0), delta_rule=PowerLawRule(1.0, 0.25)),
            n_replications=6,
            master_seed=23,
            estimators=(CENTRALIZED_FIXED,),
            grid_steps_per_unit=100.0,
        ),
        "5d218c23ab7400260447b09bd1a72e53dfca78f8d567eb153e1cd07f9ef46962",
    ),
)


@pytest.mark.parametrize("cfg,digest", [p[1:] for p in PINNED_ROWS], ids=[p[0] for p in PINNED_ROWS])
def test_rows_csv_bytes_are_pinned(cfg, digest):
    text = rows_csv_text(run_experiment(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# a correlated sequential run with extended replications, recorded while
# every bit trigger still ran over the whole horizon
PINNED_CORRELATED_ROWS = (
    ExperimentConfig(
        model=ModelSpec(
            kind=ModelKind.CORRELATED_DIFFUSION,
            K=2,
            sigma=((TimeFunction.constant(1.0), TimeFunction.constant(0.0)),
                   (TimeFunction.constant(0.5), TimeFunction.constant(1.0))),
        ),
        lambda_true=0.3,
        regime=SequentialRegime(gamma_list=(20.0, 40.0), c_rule=PowerLawRule(0.5, 0.25),
                                delta_rule=PowerLawRule(0.5, 0.25), initial_horizon=2.0),
        n_replications=6,
        master_seed=7,
        estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
        grid_steps_per_unit=400.0,
    ),
    "b2da1a8d960500b4bbe45df76d8853317ff75e9114ed3d48f82d96912db6ba9f",
)


def test_correlated_sequential_rows_are_pinned():
    cfg, digest = PINNED_CORRELATED_ROWS
    report = run_experiment(cfg)
    assert report.warnings
    assert hashlib.sha256(rows_csv_text(report).encode()).hexdigest() == digest


# -- bound audit ---------------------------------------------------------------


def _audited(model_spec, lam, grid, cfg_kwargs, seed=1234):
    model = build_model(model_spec)
    stats = path_statistics(simulate_paths(model, lam, grid, seed=seed), model)
    cfgs = tuple(TriggerConfig(**cfg_kwargs) for _ in range(model.K))
    log = run_triggers(stats, model, cfgs)
    state = reconstruct(log, model)
    return audit_bounds(stats, state, log)


def test_audit_continuous_bounds_pass():
    rep = _audited(
        BROWNIAN2, 0.8, TimeGrid(50.0, 5000), dict(delta_up=1.5, delta_down=1.0)
    )
    assert rep.b_ok and rep.a_upper_ok and rep.a_lower_ok
    assert rep.b_gap_total <= rep.delta_total


def test_audit_discrete_bound_passes_at_sampling_instants():
    rep = _audited(
        ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)),
        1.0,
        TimeGrid(200.0, 20_000),
        dict(delta_up=2.0, delta_down=2.0, mode="discrete", h=0.1),
    )
    assert rep.mode == "discrete"
    assert rep.b_ok


def test_audit_correlated_one_sided_bound_only():
    # with genuinely random cross terms only the upper information bound
    # is guaranteed
    const = TimeFunction.constant
    spec = ModelSpec(
        kind=ModelKind.CORRELATED_DIFFUSION,
        K=2,
        sigma=((const(1.0), const(0.4)), (const(0.4), const(1.0))),
    )
    ok_upper = 0
    for rep_i in range(25):
        rep = _audited(spec, 0.3, TimeGrid(6.0, 3000),
                       dict(delta_up=1.0, delta_down=1.0, c=0.5), seed=(99, rep_i))
        assert rep.b_ok
        ok_upper += rep.a_upper_ok
    assert ok_upper == 25


# -- overshoot study -------------------------------------------------------------


def test_overshoot_study_columns_and_flags():
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)),
        lambda_true=1.0,
        regime=DiscreteSamplingRegime(
            t=400.0, delta_rule=PowerLawRule(5.0, 0.0), h_list=(0.1, 0.025)
        ),
        n_replications=60,
        master_seed=909,
        estimators=(DECENTRALIZED_FIXED,),
        grid_steps_per_unit=40.0,
    )
    rows, report = overshoot_study(cfg)
    assert [r.h for r in rows] == [0.1, 0.025]
    assert rows[1].mean_eta < rows[0].mean_eta
    assert all(np.isfinite(r.eta_norm) and r.mean_b_messages > 0 for r in rows)
    assert all(r.rate_ratio > 0 for r in rows)
    assert overshoot_study.__doc__  # has a documented rate flag
    with pytest.raises(InvalidSpec):
        overshoot_study(small_cfg())
