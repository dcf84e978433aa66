"""Run configuration: strict JSON parsing and lossless serialization.

A run file has two sections, ``model`` and ``experiment``, and the
scalars ``master_seed`` and ``output``.  It holds no thresholds: every
subcommand derives them from the regime's rules
(``Regime.trigger_configs``).  The dataclasses are the schema.  The keys
of an object are the init fields of ``ModelSpec`` (``kind``, ``K`` and
the kind's ``spec_fields`` only), ``ExperimentConfig`` (less ``model``
and ``master_seed``, which sit at the top level), the regime class its
``type`` names, and ``PowerLawRule``.  A missing key takes the field's
default, and each field's annotation picks the reader of its value.
Parsing is strict: unknown keys anywhere are rejected, the model section
must build a model (``build_model``), and all violations are reported in
one pass.  ``parse_config(serialize_config(cfg)) == cfg`` holds for
every valid configuration.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum

from .errors import InvalidSpec, ParseError, ValidationError
from .experiments import ExperimentConfig, Regime
from .models import ModelKind, ModelSpec, build_model, spec_fields
from .timefuncs import TimeFunction, as_timefunction

__all__ = ["RunConfig", "parse_config", "serialize_config", "config_hash"]

_TOP_KEYS = ("master_seed", "output", "model", "experiment")
_REGIMES = {cls.kind: cls for cls in typing.get_args(Regime)}


@dataclass(frozen=True)
class RunConfig:
    """A parsed run file.  The master seed and the model are the
    experiment's: ``experiment.master_seed`` and ``experiment.model``."""

    output: str
    experiment: ExperimentConfig


class _Rejected(Exception):
    """An object that could not be read; its violations are listed."""


def _number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"must be a number, got {v!r}")
    return float(v)


def _int(v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"must be an integer, got {v!r}")
    return v


def _str(v):
    if not isinstance(v, str):
        raise TypeError(f"must be a string, got {v!r}")
    return v


def _items(v, read):
    if not isinstance(v, list):
        raise TypeError(f"must be a list, got {v!r}")
    return tuple(read(x) for x in v)


_READERS = {
    float: _number,
    int: _int,
    str: _str,
    ModelKind: ModelKind,
    tuple[float, ...]: lambda v: _items(v, _number),
    tuple[str, ...]: lambda v: _items(v, _str),
    tuple[TimeFunction, ...]: lambda v: _items(v, as_timefunction),
    tuple[tuple[TimeFunction, ...], ...]: lambda v: _items(v, lambda row: _items(row, as_timefunction)),
}


def _read(hint, v, where, violations):
    """One value of the type ``hint``: a regime or rule is a nested object."""
    if hint == Regime:
        return _regime(v, where, violations)
    if is_dataclass(hint):
        return _object(hint, v, where, violations)
    if type(None) in typing.get_args(hint):  # an optional field
        return None if v is None else _read(typing.get_args(hint)[0], v, where, violations)
    return _READERS[hint](v)


def _object(cls, d, where, violations, keys=None, **given):
    """``cls`` from the run-file object ``d``: one key per init field not
    in ``given`` (or the fields named in ``keys``); a missing key takes
    the field's default.  Lists each violation in ``violations`` and
    raises ``_Rejected`` if ``cls`` cannot be built."""
    if not isinstance(d, dict):
        violations.append(f"{where}: must be an object")
        raise _Rejected
    if keys is None:
        keys = [f.name for f in fields(cls) if f.init and f.name not in given]
    violations += [f"{where}: unknown key {k!r}" for k in d if k not in keys]
    hints, kwargs, ok = typing.get_type_hints(cls), dict(given), True
    for f in fields(cls):
        if f.name not in keys:
            continue
        if f.name not in d:
            if f.default is MISSING:
                violations.append(f"{where}: missing key {f.name!r}")
                ok = False
            continue
        try:
            kwargs[f.name] = _read(hints[f.name], d[f.name], f"{where}.{f.name}", violations)
        except _Rejected:
            ok = False
        except KeyError as exc:  # a time-function table without one of its keys
            violations.append(f"{where}.{f.name}: missing key {exc}")
            ok = False
        except (InvalidSpec, TypeError, ValueError) as exc:
            violations.append(f"{where}.{f.name}: {exc}")
            ok = False
    if ok:
        try:
            return cls(**kwargs)
        except InvalidSpec as exc:
            violations.append(f"{where}: {exc}")
    raise _Rejected


def _regime(d, where, violations):
    try:
        cls = _REGIMES[d["type"]]
    except (KeyError, TypeError):
        violations.append(f"{where}: must be an object whose type is one of {list(_REGIMES)}")
        raise _Rejected
    return _object(cls, {k: v for k, v in d.items() if k != "type"}, where, violations)


def _model(d, violations):
    try:
        keys = ("kind", "K") + spec_fields(d["kind"])
    except (KeyError, TypeError, ValueError):
        kinds = [k.value for k in ModelKind]
        violations.append(f"model: must be an object whose kind is one of {kinds}")
        raise _Rejected
    spec = _object(ModelSpec, d, "model", violations, keys=keys)
    try:
        build_model(spec)
    except InvalidSpec as exc:
        violations.append(f"model: {exc}")
        raise _Rejected
    return spec


def _unless_rejected(read, *args, **kwargs):
    try:
        return read(*args, **kwargs)
    except _Rejected:
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

    violations = [f"top level: unknown key {k!r}" for k in doc if k not in _TOP_KEYS]
    missing = [f"top level: missing required section {k!r}" for k in _TOP_KEYS if k not in doc]
    if missing:
        raise ValidationError(violations + missing)

    output = doc["output"]
    if not isinstance(output, str) or not output:
        violations.append("output: must be a non-empty path string")
    model = _unless_rejected(_model, doc["model"], violations)
    experiment = _unless_rejected(_object, ExperimentConfig, doc["experiment"], "experiment",
                                  violations, model=model, master_seed=doc["master_seed"])
    if violations:
        raise ValidationError(violations)
    return RunConfig(output=output, experiment=experiment)


def _doc(v):
    """The run-file form of a value: a dataclass is an object of its init
    fields, a regime adds its ``type``, a tuple is a list."""
    if isinstance(v, TimeFunction):
        return v.to_dict()
    if is_dataclass(v):
        d = {f.name: _doc(getattr(v, f.name)) for f in fields(v) if f.init}
        if isinstance(v, Regime):
            d["type"] = v.kind
        return d
    if isinstance(v, tuple):
        return [_doc(x) for x in v]
    return v.value if isinstance(v, Enum) else v


def serialize_config(cfg: RunConfig) -> str:
    """Lossless plain-text form of a run configuration; the model section
    leaves out the fields that are None."""
    experiment = _doc(cfg.experiment)
    doc = {
        "master_seed": experiment.pop("master_seed"),
        "output": cfg.output,
        "model": {k: v for k, v in experiment.pop("model").items() if v is not None},
        "experiment": experiment,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest used in output file names."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:10]
