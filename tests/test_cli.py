import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bitfuse.cli import main
from bitfuse.config import RunConfig, config_hash, parse_config, serialize_config
from bitfuse.errors import ParseError, ValidationError
from bitfuse.experiments import ExperimentConfig, PowerLawRule, SequentialRegime
from bitfuse.fusion import DECENTRALIZED_SEQUENTIAL
from bitfuse.models import ModelKind, ModelSpec


def minimal_doc(**overrides):
    doc = {
        "master_seed": 99,
        "output": "out",
        "model": {"kind": "brownian_constant", "K": 2, "x": [1.0, 1.0]},
        "experiment": {
            "lambda_true": 1.0,
            "regime": {
                "type": "fixed_horizon",
                "t_list": [50.0],
                "delta_rule": {"a": 2.0, "b": 0.0},
            },
            "n_replications": 4,
            "estimators": ["decentralized_fixed", "centralized_fixed"],
            "grid_steps_per_unit": 20.0,
        },
    }
    doc.update(overrides)
    return doc


# -- config parsing -----------------------------------------------------------


def test_minimal_config_parses_with_defaults():
    doc = minimal_doc()
    del doc["experiment"]["grid_steps_per_unit"]
    cfg = parse_config(json.dumps(doc))
    assert cfg.experiment.master_seed == 99
    assert cfg.experiment.grid_steps_per_unit == 32.0
    assert cfg.experiment.model.K == 2


def test_unknown_key_rejected_by_name():
    doc = minimal_doc(foo=1)
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(doc))
    assert any("foo" in v for v in err.value.violations)


def test_unknown_estimator_rejected_by_name():
    doc = minimal_doc()
    doc["experiment"]["estimators"] = ["decentralized_fixed", "bogus"]
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(doc))
    assert any("bogus" in v for v in err.value.violations)


def test_negative_threshold_rejected():
    doc = minimal_doc()
    doc["experiment"]["regime"]["delta_rule"]["a"] = -1.0
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(doc))
    assert any("delta_rule" in v and "positive" in v for v in err.value.violations)


def test_multiple_violations_reported_together():
    doc = minimal_doc(foo=1)
    doc["experiment"]["bar"] = 2
    doc["experiment"]["regime"]["delta_rule"]["a"] = -1.0
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(doc))
    joined = " | ".join(err.value.violations)
    assert "foo" in joined and "bar" in joined and "positive" in joined


def test_malformed_json_gives_parse_error_with_position():
    with pytest.raises(ParseError) as err:
        parse_config("{ not json }")
    assert "line 1" in str(err.value)


def test_round_trip_fixed_horizon():
    cfg = parse_config(json.dumps(minimal_doc()))
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_sequential_with_model_tables():
    model = ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 0.25))
    exp = ExperimentConfig(
        model=model,
        lambda_true=0.5,
        regime=SequentialRegime(
            gamma_list=(100.0, 300.0),
            c_rule=PowerLawRule(0.5, 0.25),
            delta_rule=PowerLawRule(0.5, 0.25),
            initial_horizon=4.0,
        ),
        n_replications=8,
        master_seed=7,
        estimators=(DECENTRALIZED_SEQUENTIAL,),
        grid_steps_per_unit=100.0,
    )
    cfg = RunConfig(output="runs/x", experiment=exp)
    assert parse_config(serialize_config(cfg)) == cfg
    assert len(config_hash(cfg)) == 10


# -- CLI ----------------------------------------------------------------------


def _write_cfg(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_density_symmetric_without_drift(tmp_path, capsys):
    out = tmp_path / "dens"
    rc = main(["density", "--lambda", "0", "--delta", "1.0", "--x", "1.0",
               "--t-min", "0.05", "--t-max", "3.0", "--n", "50", "--out", str(out)])
    assert rc == 0
    rows = (out / "density.csv").read_text().strip().splitlines()
    assert rows[0] == "t,p_up,p_down"
    for line in rows[1:]:
        _, up, dn = line.split(",")
        assert up == dn


def test_simulate_writes_paths_and_messages(tmp_path):
    doc = minimal_doc(output=str(tmp_path / "sim"))
    rc = main(["simulate", "--config", _write_cfg(tmp_path, doc)])
    assert rc == 0
    paths_csv = (tmp_path / "sim" / "paths.csv").read_text().splitlines()
    assert paths_csv[0] == "t,Y_1,Y_2,B,A,M"
    assert len(paths_csv) == 1 + 50 * 20 + 1
    messages = (tmp_path / "sim" / "messages.csv").read_text().splitlines()
    assert messages[0] == "sensor,kind,time,bit,overshoot"
    assert len(messages) > 1


SIMULATE_RUNS = {
    # timing messages: sequential thresholds give every sensor a c
    "ou_sequential": ({
        "master_seed": 7,
        "model": {"kind": "ornstein_uhlenbeck", "K": 2, "alpha": [1.0, 0.5]},
        "experiment": {
            "lambda_true": 0.5,
            "regime": {"type": "sequential", "gamma_list": [30.0], "c_rule": {"a": 0.5, "b": 0.25},
                       "delta_rule": {"a": 0.5, "b": 0.25}, "initial_horizon": 4.0},
            "n_replications": 2,
            "estimators": ["decentralized_sequential"],
            "grid_steps_per_unit": 50.0,
        },
    }, "298bba3ea35e44a499ed6565d1ff8e5b61b0f1e24f620922193afccefbc63c81",
       "2405b101aa771ebe36f8af9078316858e02ec90ee9951d80ceb8c7deb92957e2"),
    # nonzero overshoots: discrete sampling
    "brownian_discrete": ({
        "master_seed": 3,
        "model": {"kind": "brownian_constant", "K": 2, "x": [1.0, 2.0]},
        "experiment": {
            "lambda_true": 1.0,
            "regime": {"type": "discrete_sampling", "t": 50.0, "delta_rule": {"a": 1.0, "b": 0.25},
                       "h_list": [0.2]},
            "n_replications": 2,
            "estimators": ["decentralized_fixed"],
            "grid_steps_per_unit": 20.0,
        },
    }, "cb4f2a0a50c2fd79b5833c71a97af6753dc34fe87274914061d5a7aa76762232",
       "4b391e9f2dbdd68bb1a37d836964073f8159a21ee04d63dd7d5df2bf1f6a9c45"),
}


@pytest.mark.parametrize("name", list(SIMULATE_RUNS))
def test_simulate_output_bytes_are_pinned(tmp_path, name):
    doc, paths_sha, messages_sha = SIMULATE_RUNS[name]
    doc = dict(doc, output=str(tmp_path / name))
    assert main(["simulate", "--config", _write_cfg(tmp_path, doc)]) == 0
    digest = {f: hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
              for f in ("paths.csv", "messages.csv")}
    assert digest == {"paths.csv": paths_sha, "messages.csv": messages_sha}


def test_simulate_and_estimate_agree_on_discrete_thresholds(tmp_path):
    # the bit threshold is delta_rule(t), not delta_rule(h), in both
    doc = minimal_doc(output=str(tmp_path / "disc"))
    doc["model"] = {"kind": "brownian_constant", "K": 1, "x": [1.0]}
    doc["experiment"]["regime"] = {
        "type": "discrete_sampling",
        "t": 100.0,
        "delta_rule": {"a": 1.0, "b": 0.25},
        "h_list": [0.1],
    }
    cfg_path = _write_cfg(tmp_path, doc)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert main(["estimate", "--config", cfg_path]) == 0
    messages = (tmp_path / "disc" / "messages.csv").read_text().splitlines()[1:]
    bits = sum(1 for line in messages if line.split(",")[1] == "B")
    estimates = (tmp_path / "disc" / "estimates.csv").read_text().splitlines()
    header = estimates[0].split(",")
    row = dict(zip(header, estimates[1].split(",")))
    assert row["estimator"] == "decentralized_fixed"
    assert bits == int(row["messages_used"]) > 0


def test_estimate_writes_rows(tmp_path):
    doc = minimal_doc(output=str(tmp_path / "est"))
    rc = main(["estimate", "--config", _write_cfg(tmp_path, doc)])
    assert rc == 0
    lines = (tmp_path / "est" / "estimates.csv").read_text().splitlines()
    assert lines[0] == "replication,estimator,gamma_or_t,value,stop_time,info_used,messages_used"
    assert len(lines) == 3


def test_experiment_outputs_named_by_hash_and_seed(tmp_path):
    doc = minimal_doc(output=str(tmp_path / "exp"))
    cfg_path = _write_cfg(tmp_path, doc)
    assert main(["experiment", "--config", cfg_path]) == 0
    files = sorted(p.name for p in (tmp_path / "exp").iterdir())
    assert any(f.startswith("rows_") and f.endswith("_99.csv") for f in files)
    assert any(f.startswith("summary_") and f.endswith("_99.json") for f in files)
    # seed override changes the file name and the content
    assert main(["experiment", "--config", cfg_path, "--seed", "100"]) == 0
    files2 = sorted(p.name for p in (tmp_path / "exp").iterdir())
    assert any(f.endswith("_100.csv") for f in files2)


def test_experiment_rerun_is_byte_identical(tmp_path):
    doc = minimal_doc(output=str(tmp_path / "det"))
    cfg_path = _write_cfg(tmp_path, doc)
    assert main(["experiment", "--config", cfg_path]) == 0
    rows = next((tmp_path / "det").glob("rows_*.csv")).read_bytes()
    assert main(["experiment", "--config", cfg_path]) == 0
    assert next((tmp_path / "det").glob("rows_*.csv")).read_bytes() == rows
    # and identical under multiprocess execution
    assert main(["experiment", "--config", cfg_path, "--threads", "2"]) == 0
    assert next((tmp_path / "det").glob("rows_*.csv")).read_bytes() == rows


def test_invalid_config_exits_1(tmp_path, capsys):
    doc = minimal_doc(foo=3)
    assert main(["experiment", "--config", _write_cfg(tmp_path, doc)]) == 1
    assert "foo" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "estimate", "experiment"])
def test_trigger_section_is_an_unknown_key(tmp_path, capsys, command):
    # every subcommand takes its thresholds from the regime's rules
    doc = minimal_doc(output=str(tmp_path / "out"), trigger={"delta_up": 0.5, "delta_down": 2.0})
    assert main([command, "--config", _write_cfg(tmp_path, doc)]) == 1
    assert "unknown key 'trigger'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _regime(doc):
    return doc["experiment"]["regime"]


SEQUENTIAL = {"type": "sequential", "gamma_list": [5.0], "c_rule": {"a": 0.5, "b": 1000.0},
              "delta_rule": {"a": 0.5, "b": 0.25}}

# one value per case that no replication can run with:
# (change to the run file, extra arguments, the field named)
UNRUNNABLE = {
    "negative_master_seed": (lambda doc: doc.update(master_seed=-1), [], "master_seed"),
    "negative_seed_option": (lambda doc: None, ["--seed", "-1"], "master_seed"),
    "delta_rule_overflows": (lambda doc: _regime(doc)["delta_rule"].update(b=1000.0), [],
                             "delta_rule"),
    "delta_rule_underflows": (lambda doc: _regime(doc)["delta_rule"].update(b=-1000.0), [],
                              "delta_rule"),
    "c_rule_overflows": (lambda doc: doc["experiment"].update(
        regime=SEQUENTIAL, estimators=["decentralized_sequential"]), [], "c_rule"),
}


@pytest.mark.parametrize("case", list(UNRUNNABLE))
def test_unrunnable_values_exit_1_before_any_output(tmp_path, capsys, case):
    change, extra, named = UNRUNNABLE[case]
    doc = minimal_doc(output=str(tmp_path / "out"))
    change(doc)
    assert main(["estimate", "--config", _write_cfg(tmp_path, doc), *extra]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_model_kind_decides_random_cross_variations(tmp_path, capsys):
    # no run-file key overrides which cross-variations are random
    doc = minimal_doc()
    doc["model"]["deterministic_cross"] = [[True, True], [True, True]]
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(doc))
    assert any("deterministic_cross" in v for v in err.value.violations)
    assert main(["experiment", "--config", _write_cfg(tmp_path, doc)]) == 1
    assert "deterministic_cross" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path):
    assert main(["experiment", "--config", str(tmp_path / "nope.json")]) == 1


def test_suite_subcommand_runs_determinism(tmp_path, capsys):
    rc = main(["suite", "--name", "determinism", "--out", str(tmp_path / "suite")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "suite determinism: PASS" in text
    assert (tmp_path / "suite" / "suite_report.txt").exists()


def test_suite_subcommand_bounds_exit_zero(capsys):
    assert main(["suite", "--name", "bounds"]) == 0
    assert "suite bounds: PASS" in capsys.readouterr().out


def test_runtime_failure_exits_2(tmp_path, capsys):
    doc = minimal_doc(output=str(tmp_path / "boom"))
    doc["model"] = {"kind": "ornstein_uhlenbeck", "K": 1, "alpha": [1.0]}
    doc["experiment"]["lambda_true"] = 8.0
    doc["experiment"]["regime"] = {
        "type": "sequential",
        "gamma_list": [100.0],
        "c_rule": {"a": 1.0, "b": 0.0},
        "delta_rule": {"a": 1.0, "b": 0.0},
        "initial_horizon": 50.0,
    }
    doc["experiment"]["estimators"] = ["decentralized_sequential"]
    doc["experiment"]["grid_steps_per_unit"] = 0.5
    # simulate hits the blowup guard directly, a runtime failure
    assert main(["simulate", "--config", _write_cfg(tmp_path, doc)]) == 2
    assert "runtime error" in capsys.readouterr().err


# the child limits its own address space before it imports numpy
LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from bitfuse.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_simulate_message_flood_exits_2_under_a_memory_limit(tmp_path):
    # the information reaches ~7e7 over the horizon where the sequential
    # stop needs ~100, so the whole-horizon log `simulate` writes would hold
    # ~77M messages; it used to pass 2 GB before the message lines were built
    doc = minimal_doc(output=str(tmp_path / "flood"), master_seed=7)
    doc["model"] = {"kind": "correlated_diffusion", "K": 2, "sigma": [[1.0, 0.0], [0.5, 1.0]]}
    doc["experiment"].update(
        lambda_true=0.5,
        regime={"type": "sequential", "gamma_list": [100.0], "c_rule": {"a": 0.5, "b": 0.25},
                "delta_rule": {"a": 0.5, "b": 0.25}, "initial_horizon": 10.0},
        estimators=["decentralized_sequential", "centralized_sequential"],
        grid_steps_per_unit=200.0,
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", LIMITED_MAIN, "simulate", "--config",
                          _write_cfg(tmp_path, doc)], capture_output=True, text=True, env=env,
                         timeout=120)
    assert res.returncode == 2, res.stderr
    assert "runtime error" in res.stderr and "messages from one sensor" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "flood" / "messages.csv").exists()


def test_threads_env_override(tmp_path, monkeypatch):
    doc = minimal_doc(output=str(tmp_path / "envrun"))
    cfg_path = _write_cfg(tmp_path, doc)
    assert main(["experiment", "--config", cfg_path]) == 0
    rows = next((tmp_path / "envrun").glob("rows_*.csv")).read_bytes()
    monkeypatch.setenv("BITFUSE_THREADS", "2")
    assert main(["experiment", "--config", cfg_path]) == 0
    assert next((tmp_path / "envrun").glob("rows_*.csv")).read_bytes() == rows
