"""Run-file schema: pinned serialization bytes, round trips, the README
examples, and the point checks of the regimes."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfuse.cli import main
from bitfuse.config import RunConfig, config_hash, parse_config, serialize_config
from bitfuse.errors import InvalidSpec, ValidationError
from bitfuse.experiments import (
    DiscreteSamplingRegime,
    ExperimentConfig,
    FixedHorizonRegime,
    PowerLawRule,
    SequentialRegime,
    run_experiment,
)
from bitfuse.fusion import (
    CENTRALIZED_FIXED,
    CENTRALIZED_SEQUENTIAL,
    DECENTRALIZED_FIXED,
    DECENTRALIZED_SEQUENTIAL,
    TIMING_ONLY,
)
from bitfuse.models import ModelKind, ModelSpec
from bitfuse.reporting import summary_json_text

README = Path(__file__).resolve().parents[1] / "README.md"

POLY = {"type": "polynomial", "coeffs": [1.0, 0.5]}
STEP = {"type": "piecewise_constant", "breaks": [2.0, 5.0], "values": [1.0, 0.5, 2.0]}

# one run file per model kind; together they cover every regime type and
# every time-function table form
PINNED_RUN_FILES = {
    "brownian_fixed": ({
        "master_seed": 99,
        "output": "runs/a",
        "model": {"kind": "brownian_constant", "K": 2, "x": [1.0, -2.5]},
        "experiment": {
            "lambda_true": 1.0,
            "regime": {"type": "fixed_horizon", "t_list": [50.0, 100.0],
                       "delta_rule": {"a": 2.0, "b": 0.0}},
            "n_replications": 4,
            "estimators": ["decentralized_fixed", "centralized_fixed"],
        },
    }, "8c504ffdebed58d94fcd7bed4bf1a7ba07384108aaae6c1b8a8e6bc62f396a8e"),
    "gaussian_discrete": ({
        "master_seed": 3,
        "output": "runs/b",
        "model": {"kind": "gaussian_det_info", "K": 2, "b": [POLY, STEP],
                  "rho": [[1.0, 0.25], [0.25, {"type": "constant", "value": 1.0}]]},
        "experiment": {
            "lambda_true": -0.5,
            "regime": {"type": "discrete_sampling", "t": 20.0,
                       "delta_rule": {"a": 1.0, "b": 0.25}, "h_list": [0.1, 0.5]},
            "n_replications": 3,
            "estimators": ["timing_only", "decentralized_fixed"],
            "grid_steps_per_unit": 10.0,
        },
    }, "2c5aef971cf6b471f66815b7b833c075477ce181f449248a4d29362844adb4a0"),
    "ou_sequential": ({
        "master_seed": 7,
        "output": "runs/c",
        "model": {"kind": "ornstein_uhlenbeck", "K": 2, "alpha": [1.0, 0.25]},
        "experiment": {
            "lambda_true": 0.5,
            "regime": {"type": "sequential", "gamma_list": [100.0, 300.0],
                       "c_rule": {"a": 0.5, "b": 0.25}, "delta_rule": {"a": 0.5, "b": 0.25},
                       "initial_horizon": 4.0},
            "n_replications": 8,
            "estimators": ["decentralized_sequential"],
            "grid_steps_per_unit": 100.0,
        },
    }, "abe3223b88500d2cfd1eb87ed3eb5925c6f63a9c7587deaedb7779677e17d8b5"),
    "square_root_sequential": ({
        "master_seed": 11,
        "output": "runs/d",
        "model": {"kind": "square_root_diffusion", "K": 3, "x": [1.0, 2.0, 0.5],
                  "y0": [1.0, 0.5, 2.0]},
        "experiment": {
            "lambda_true": 0.25,
            "regime": {"type": "sequential", "gamma_list": [30.0],
                       "c_rule": {"a": 1.0, "b": 0.0}, "delta_rule": {"a": 0.5, "b": 0.5}},
            "n_replications": 2,
            "estimators": ["centralized_sequential", "decentralized_sequential"],
        },
    }, "59b8a981e6ca3551dad1aa66b6f9708e19a7bcd1dd541560d1be6693ade3d534"),
    "correlated_fixed": ({
        "master_seed": 5,
        "output": "runs/e",
        "model": {"kind": "correlated_diffusion", "K": 2,
                  "sigma": [[1.0, 0.0], [POLY, STEP]]},
        "experiment": {
            "lambda_true": 0.3,
            "regime": {"type": "fixed_horizon", "t_list": [10.0],
                       "delta_rule": {"a": 1.0, "b": 0.25}},
            "n_replications": 2,
            "estimators": ["centralized_fixed"],
            "grid_steps_per_unit": 200.0,
        },
    }, "b316eed984e6995e14ea6159c5a1fcc0c059bd4705cb20d9a7f33b7dde5bf394"),
}


@pytest.mark.parametrize("name", list(PINNED_RUN_FILES))
def test_serialized_config_bytes_are_pinned(name):
    doc, digest = PINNED_RUN_FILES[name]
    cfg = parse_config(json.dumps(doc))
    text = serialize_config(cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert parse_config(text) == cfg


def test_summary_json_bytes_are_pinned():
    cfg = parse_config(json.dumps(PINNED_RUN_FILES["brownian_fixed"][0]))
    exp = dataclasses.replace(cfg.experiment, n_replications=10)
    text = summary_json_text(run_experiment(exp), config_hash=config_hash(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4f0aec60a2a8b1f1698acab312059f2d20bbad4e5728ade2c9f99c9094215d6b"
    )


def test_readme_run_file_round_trips():
    section = README.read_text().split("### Run file", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = parse_config(example)
    assert parse_config(serialize_config(cfg)) == cfg


def test_readme_quick_start_runs(capsys):
    section = README.read_text().split("## Quick start (Python)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["bit estimator", "oracle", "messages sent"]
    assert int(out[2].split(":")[1]) > 0


# -- round trip over generated configurations -----------------------------------

positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)
rules = st.builds(PowerLawRule, a=positive, b=st.floats(-2.0, 2.0, allow_nan=False))
points = st.lists(positive, min_size=1, max_size=4).map(tuple)
# 3 sensors x 64 steps per unit x 1e4 is within the sensor-steps budget
horizons = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def regimes(draw):
    which = draw(st.sampled_from(("fixed_horizon", "sequential", "discrete_sampling")))
    spu = float(draw(st.integers(1, 64)))
    if which == "fixed_horizon":
        t_list = tuple(draw(st.lists(horizons, min_size=1, max_size=4)))
        regime = FixedHorizonRegime(t_list=t_list, delta_rule=draw(rules))
        ests = (DECENTRALIZED_FIXED, CENTRALIZED_FIXED, TIMING_ONLY)
    elif which == "sequential":
        kwargs = {"initial_horizon": draw(horizons)} if draw(st.booleans()) else {}
        regime = SequentialRegime(gamma_list=draw(points), c_rule=draw(rules),
                                  delta_rule=draw(rules), **kwargs)
        ests = (DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL)
    else:
        # h a whole number of steps of the grid of the integer horizon t
        h_list = tuple(k / spu for k in draw(st.lists(st.integers(1, 40), min_size=1, max_size=3)))
        regime = DiscreteSamplingRegime(t=float(draw(st.integers(1, 50))),
                                        delta_rule=draw(rules), h_list=h_list)
        ests = (DECENTRALIZED_FIXED, CENTRALIZED_FIXED, TIMING_ONLY)
    estimators = tuple(draw(st.lists(st.sampled_from(ests), min_size=1, max_size=3, unique=True)))
    return regime, estimators, spu


@settings(max_examples=60, deadline=None)
@given(
    regime=regimes(),
    K=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(-5.0, 5.0, allow_nan=False),
)
def test_parse_inverts_serialize(regime, K, seed, lam):
    regime, estimators, spu = regime
    exp = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=K, x=tuple(1.0 + i for i in range(K))),
        lambda_true=lam,
        regime=regime,
        n_replications=2,
        master_seed=seed,
        estimators=estimators,
        grid_steps_per_unit=spu,
    )
    cfg = RunConfig(output="out", experiment=exp)
    assert parse_config(serialize_config(cfg)) == cfg


# -- regime points ------------------------------------------------------------------

BAD_POINTS = {
    "infinite_t": ("fixed_horizon", {"t_list": [1e400]}),
    "nan_initial_horizon": ("sequential", {"initial_horizon": float("nan")}),
    "negative_gamma": ("sequential", {"gamma_list": [-10.0]}),
    "negative_t": ("fixed_horizon", {"t_list": [-5.0]}),
    "empty_t_list": ("fixed_horizon", {"t_list": []}),
}

REGIME_DOCS = {
    "fixed_horizon": ({"type": "fixed_horizon", "t_list": [50.0], "delta_rule": {"a": 2.0, "b": 0.0}},
                      ["decentralized_fixed"]),
    "sequential": ({"type": "sequential", "gamma_list": [30.0], "c_rule": {"a": 0.5, "b": 0.25},
                    "delta_rule": {"a": 0.5, "b": 0.25}, "initial_horizon": 4.0},
                   ["decentralized_sequential"]),
    "discrete_sampling": ({"type": "discrete_sampling", "t": 20.0,
                           "delta_rule": {"a": 1.0, "b": 0.25}, "h_list": [0.5]},
                          ["decentralized_fixed"]),
}


@pytest.mark.parametrize("case", list(BAD_POINTS))
def test_points_must_be_finite_positive_and_present(tmp_path, capsys, case):
    which, override = BAD_POINTS[case]
    regime, estimators = REGIME_DOCS[which]
    doc = {
        "master_seed": 1,
        "output": str(tmp_path / "out"),
        "model": {"kind": "ornstein_uhlenbeck", "K": 1, "alpha": [1.0]},
        "experiment": {"lambda_true": 0.5, "regime": {**regime, **override},
                       "n_replications": 2, "estimators": estimators},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    with pytest.raises(ValidationError) as err:
        parse_config(path.read_text())
    key = next(iter(override))
    assert any(key in v for v in err.value.violations)
    assert main(["estimate", "--config", str(path)]) == 1
    assert key in capsys.readouterr().err


def test_infinite_grid_refinement_exits_1(tmp_path, capsys):
    doc = dict(PINNED_RUN_FILES["brownian_fixed"][0], output=str(tmp_path / "out"))
    doc["experiment"] = dict(doc["experiment"], grid_steps_per_unit=float("inf"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["estimate", "--config", str(path)]) == 1
    assert "grid refinement" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")

# one non-finite real per case: (section, key, value, model section or None, named in the error)
NON_FINITE = {
    "nan_lambda_true": ("experiment", "lambda_true", NAN, None, "lambda_true"),
    "nan_x": ("model", "x", [NAN], None, "weights x"),
    "infinite_rule_a": ("delta_rule", "a", INF, None, "prefactor a"),
    "infinite_rule_b": ("delta_rule", "b", INF, None, "exponent b"),
    "infinite_alpha": ("model", "alpha", [INF], {"kind": "ornstein_uhlenbeck", "K": 1}, "alpha"),
    "nan_y0": ("model", "y0", [NAN], {"kind": "square_root_diffusion", "K": 1, "x": [1.0]}, "y0"),
    # the thresholds delta_up = delta_down and the increment c come from the
    # regime's rules; each case makes one of them overflow at the point 5
    "infinite_delta_up": ("delta_rule", "a", 1.7e308, None, "delta_rule"),  # a * u^b overflows
    "infinite_delta_down": ("delta_rule", "b", 500.0, None, "delta_rule"),  # u^b overflows
    "infinite_c": ("c_rule", "b", 500.0, None, "c_rule"),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_reals_exit_1(tmp_path, capsys, case):
    section, key, value, model, named = NON_FINITE[case]
    regime, estimators = (
        ({"type": "sequential", "gamma_list": [5.0], "c_rule": {"a": 1.0, "b": 0.25},
          "delta_rule": {"a": 1.0, "b": 0.25}}, ["decentralized_sequential"])
        if section == "c_rule" else
        ({"type": "fixed_horizon", "t_list": [5.0], "delta_rule": {"a": 1.0, "b": 0.25}},
         ["decentralized_fixed"]))
    doc = {
        "master_seed": 1,
        "output": str(tmp_path / "out"),
        "model": model or {"kind": "brownian_constant", "K": 1, "x": [1.0]},
        "experiment": {"lambda_true": 0.5, "regime": regime,
                       "n_replications": 2, "estimators": estimators},
    }
    (regime[section] if section.endswith("_rule") else doc[section])[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        parse_config(path.read_text())
    assert len(err.value.violations) == 1 and named in err.value.violations[0], err.value.violations
    assert main(["estimate", "--config", str(path)]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_regimes_reject_bad_points_at_construction():
    rule = PowerLawRule(1.0, 0.25)
    with pytest.raises(InvalidSpec):
        FixedHorizonRegime(t_list=(1.0, float("inf")), delta_rule=rule)
    with pytest.raises(InvalidSpec):
        SequentialRegime(gamma_list=(10.0,), c_rule=rule, delta_rule=rule, initial_horizon=0.0)
    with pytest.raises(InvalidSpec):
        DiscreteSamplingRegime(t=10.0, delta_rule=rule, h_list=())
