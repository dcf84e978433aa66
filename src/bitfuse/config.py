"""Run configuration: strict JSON parsing and lossless serialization.

A run file has four sections: ``model``, optional ``trigger`` (one dict
applied to every sensor, or a list of per-sensor dicts), ``experiment``,
and the scalars ``master_seed`` and ``output``.  Parsing is strict:
unknown keys anywhere are rejected, and all violations are reported in
one pass.  ``parse_config(serialize_config(cfg)) == cfg`` holds for
every valid configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidSpec, ParseError, ValidationError
from .experiments import (
    DiscreteSamplingRegime,
    ExperimentConfig,
    FixedHorizonRegime,
    PowerLawRule,
    SequentialRegime,
)
from .models import ModelKind, ModelSpec
from .triggers import CONTINUOUS, TriggerConfig

__all__ = ["RunConfig", "parse_config", "serialize_config", "config_hash"]

_MODEL_KEYS_COMMON = {"kind", "K"}
_MODEL_KEYS_BY_KIND = {
    ModelKind.BROWNIAN_CONSTANT: {"x"},
    ModelKind.GAUSSIAN_DET_INFO: {"b", "rho"},
    ModelKind.ORNSTEIN_UHLENBECK: {"alpha"},
    ModelKind.SQUARE_ROOT_DIFFUSION: {"x", "y0"},
    ModelKind.CORRELATED_DIFFUSION: {"sigma"},
}
_TRIGGER_KEYS = {"delta_up", "delta_down", "c", "mode", "h"}
_EXPERIMENT_KEYS = {
    "lambda_true",
    "regime",
    "n_replications",
    "estimators",
    "grid_steps_per_unit",
}
_REGIME_KEYS = {
    "fixed_horizon": {"type", "t_list", "delta_rule"},
    "sequential": {"type", "gamma_list", "c_rule", "delta_rule", "initial_horizon"},
    "discrete_sampling": {"type", "t", "delta_rule", "h_list"},
}
_RULE_KEYS = {"a", "b"}
_TOP_KEYS = {"master_seed", "output", "model", "trigger", "experiment"}


@dataclass(frozen=True)
class RunConfig:
    """A parsed run file.  The master seed and the model are the
    experiment's: ``experiment.master_seed`` and ``experiment.model``."""

    output: str
    triggers: tuple | None
    experiment: ExperimentConfig


def _check_keys(d: dict, allowed: set, where: str, violations: list):
    for key in d:
        if key not in allowed:
            violations.append(f"{where}: unknown key {key!r}")


def _rule_from(d, where, violations):
    if not isinstance(d, dict):
        violations.append(f"{where}: must be an object with keys a, b")
        return None
    _check_keys(d, _RULE_KEYS, where, violations)
    try:
        return PowerLawRule.from_dict(d)
    except (KeyError, TypeError, ValueError, InvalidSpec) as exc:
        violations.append(f"{where}: {exc}")
        return None


def _regime_from(d, violations):
    if not isinstance(d, dict) or "type" not in d:
        violations.append("experiment.regime: must be an object with a 'type' key")
        return None
    rtype = d["type"]
    if rtype not in _REGIME_KEYS:
        violations.append(f"experiment.regime: unknown type {rtype!r}")
        return None
    _check_keys(d, _REGIME_KEYS[rtype], "experiment.regime", violations)
    try:
        if rtype == "fixed_horizon":
            return FixedHorizonRegime(
                t_list=tuple(float(t) for t in d["t_list"]),
                delta_rule=_rule_from(d["delta_rule"], "experiment.regime.delta_rule", violations),
            )
        if rtype == "sequential":
            return SequentialRegime(
                gamma_list=tuple(float(g) for g in d["gamma_list"]),
                c_rule=_rule_from(d["c_rule"], "experiment.regime.c_rule", violations),
                delta_rule=_rule_from(d["delta_rule"], "experiment.regime.delta_rule", violations),
                initial_horizon=float(d.get("initial_horizon", 1.0)),
            )
        return DiscreteSamplingRegime(
            t=float(d["t"]),
            delta_rule=_rule_from(d["delta_rule"], "experiment.regime.delta_rule", violations),
            h_list=tuple(float(h) for h in d["h_list"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        violations.append(f"experiment.regime: {exc}")
        return None


def _trigger_from(d, where, violations):
    if not isinstance(d, dict):
        violations.append(f"{where}: must be an object")
        return None
    _check_keys(d, _TRIGGER_KEYS, where, violations)
    try:
        return TriggerConfig(
            delta_up=float(d["delta_up"]),
            delta_down=float(d["delta_down"]),
            c=float(d["c"]) if d.get("c") is not None else None,
            mode=d.get("mode", CONTINUOUS),
            h=float(d["h"]) if d.get("h") is not None else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        violations.append(f"{where}: {exc}")
        return None
    except InvalidSpec as exc:
        violations.append(f"{where}: {exc}")
        return None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration document.

    Raises ParseError on malformed JSON (with line and column) and
    ValidationError listing every schema violation found.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ValidationError(["top level: must be a JSON object"])

    violations = []
    _check_keys(doc, _TOP_KEYS, "top level", violations)
    for req in ("master_seed", "output", "model", "experiment"):
        if req not in doc:
            violations.append(f"top level: missing required section {req!r}")
    if violations and any("missing required" in v for v in violations):
        raise ValidationError(violations)

    master_seed = doc["master_seed"]
    if not isinstance(master_seed, int):
        violations.append("master_seed: must be an integer")
    output = doc["output"]
    if not isinstance(output, str) or not output:
        violations.append("output: must be a non-empty path string")

    model = None
    mdoc = doc["model"]
    if not isinstance(mdoc, dict):
        violations.append("model: must be an object")
    else:
        try:
            kind = ModelKind(mdoc.get("kind"))
            _check_keys(mdoc, _MODEL_KEYS_COMMON | _MODEL_KEYS_BY_KIND[kind], "model", violations)
        except ValueError:
            violations.append(f"model.kind: unknown kind {mdoc.get('kind')!r}")
        try:
            model = ModelSpec.from_dict(mdoc)
        except (InvalidSpec, KeyError, TypeError, ValueError) as exc:
            violations.append(f"model: {exc}")

    triggers = None
    if "trigger" in doc:
        tdoc = doc["trigger"]
        if isinstance(tdoc, dict):
            tc = _trigger_from(tdoc, "trigger", violations)
            if tc is not None and model is not None:
                triggers = tuple(tc for _ in range(model.K))
        elif isinstance(tdoc, list):
            items = [
                _trigger_from(item, f"trigger[{k}]", violations) for k, item in enumerate(tdoc)
            ]
            if model is not None and len(items) != model.K:
                violations.append(f"trigger: need K={model.K} entries, got {len(items)}")
            elif all(item is not None for item in items):
                triggers = tuple(items)
        else:
            violations.append("trigger: must be an object or a list of objects")

    experiment = None
    edoc = doc["experiment"]
    if not isinstance(edoc, dict):
        violations.append("experiment: must be an object")
    else:
        _check_keys(edoc, _EXPERIMENT_KEYS, "experiment", violations)
        regime = _regime_from(edoc.get("regime"), violations)
        if model is not None and regime is not None and not violations:
            try:
                experiment = ExperimentConfig(
                    model=model,
                    lambda_true=float(edoc["lambda_true"]),
                    regime=regime,
                    n_replications=int(edoc["n_replications"]),
                    master_seed=int(master_seed),
                    estimators=tuple(edoc["estimators"]),
                    grid_steps_per_unit=float(edoc.get("grid_steps_per_unit", 32.0)),
                )
            except (KeyError, TypeError, ValueError, InvalidSpec) as exc:
                violations.append(f"experiment: {exc}")

    if violations:
        raise ValidationError(violations)
    return RunConfig(output=output, triggers=triggers, experiment=experiment)


def serialize_config(cfg: RunConfig) -> str:
    """Lossless plain-text form of a run configuration."""
    exp = cfg.experiment
    regime = exp.regime
    rdoc = {"type": regime.kind}
    if regime.kind == "fixed_horizon":
        rdoc["t_list"] = list(regime.t_list)
        rdoc["delta_rule"] = regime.delta_rule.to_dict()
    elif regime.kind == "sequential":
        rdoc["gamma_list"] = list(regime.gamma_list)
        rdoc["c_rule"] = regime.c_rule.to_dict()
        rdoc["delta_rule"] = regime.delta_rule.to_dict()
        rdoc["initial_horizon"] = regime.initial_horizon
    else:
        rdoc["t"] = regime.t
        rdoc["delta_rule"] = regime.delta_rule.to_dict()
        rdoc["h_list"] = list(regime.h_list)
    doc = {
        "master_seed": exp.master_seed,
        "output": cfg.output,
        "model": exp.model.to_dict(),
        "experiment": {
            "lambda_true": exp.lambda_true,
            "regime": rdoc,
            "n_replications": exp.n_replications,
            "estimators": list(exp.estimators),
            "grid_steps_per_unit": exp.grid_steps_per_unit,
        },
    }
    if cfg.triggers is not None:
        doc["trigger"] = [
            {
                "delta_up": t.delta_up,
                "delta_down": t.delta_down,
                "c": t.c,
                "mode": t.mode,
                "h": t.h,
            }
            for t in cfg.triggers
        ]
    return json.dumps(doc, indent=2, sort_keys=True)


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest used in output file names."""
    import hashlib

    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:10]
