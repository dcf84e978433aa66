import os

import pytest

from bitfuse.experiments import (
    ExperimentConfig,
    FixedHorizonRegime,
    PowerLawRule,
    run_experiment,
)
from bitfuse.fusion import DECENTRALIZED_FIXED, TIMING_ONLY
from bitfuse.models import ModelKind, ModelSpec


@pytest.fixture(scope="session")
def brownian_k1_long_report():
    """Shared heavy run: one Brownian sensor, t = 1e4, threshold t^0.25,
    1000 replications, both decentralized estimators."""
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)),
        lambda_true=1.0,
        regime=FixedHorizonRegime(t_list=(10_000.0,), delta_rule=PowerLawRule(1.0, 0.25)),
        n_replications=1000,
        master_seed=424242,
        estimators=(DECENTRALIZED_FIXED, TIMING_ONLY),
        grid_steps_per_unit=20.0,
    )
    # rows do not depend on the worker count; use every usable core
    return run_experiment(cfg, threads=len(os.sched_getaffinity(0)))
