"""The package names the benchmark in ``bench/`` depends on.

``bench/workloads.py`` and ``bench/tracer.py`` import engine names at
module level and patch them while a traced phase runs, so losing one of
those names fails every workload, including those that never call the
renamed layer.  These tests import the benchmark as it stands, resolve
every name it patches, check the audit fields it reads, and build and
warm up each workload that ``BENCHMARK.json`` declares.
"""

import dataclasses
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(BENCH))


def test_every_patched_engine_name_resolves(workloads):
    from bitfuse import experiments
    from bitfuse import first_passage as fp

    tr = workloads.tr
    for module, attr, _span, _count in tr.ENGINE_CALLS + tr.EXIT_CALLS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    # patched outside the call tables: the density counter and the audit
    assert callable(fp.joint_density)
    assert callable(experiments.path_statistics)


def test_audit_fields_the_benchmark_reads_exist(workloads):
    # the benchmark formats these only when a gate fails, so a missing one
    # would show up only as a crash inside a failing run
    from bitfuse.experiments import BoundReport

    source = inspect.getsource(workloads.ExperimentWorkload._audited)
    read = set(re.findall(r"report\.(\w+)", source))
    assert read, "no report fields found"
    assert read <= {f.name for f in dataclasses.fields(BoundReport)}, read


@pytest.mark.parametrize(
    "name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
)
def test_declared_workload_builds_and_warms_up(workloads, name):
    workloads.WORKLOADS[name](1).warmup()


@pytest.mark.parametrize(
    "name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
)
def test_traced_block_leaves_spans_in_every_expected_layer(workloads, name):
    # the tracer wraps the names the engine looks up at call time; an
    # engine that stops calling one of them leaves its layer without spans
    tr = workloads.tr
    wl = workloads.WORKLOADS[name](1)
    tracer, tally = tr.Tracer(), workloads.Tally()
    with tracer.installed(wl.calls):
        # no timed seconds and no wall budget: exactly one block
        wl.run(tally, 0.0, tracer=tracer, budget=0.0)
    assert len(tally.block_rates) == 1 and tally.failed == tally.violations == 0
    assert tr.expected_layers(wl.calls) <= tracer.layers()
