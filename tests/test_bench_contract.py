"""The package names the benchmark in ``bench/`` depends on.

``bench/workloads.py`` and ``bench/tracer.py`` import engine names at
module level and patch them while a traced phase runs, so losing one of
those names fails every workload, including those that never call the
renamed layer.  These tests import the benchmark as it stands, resolve
every name it patches, and build and warm up each workload that
``BENCHMARK.json`` declares.
"""

import json
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


@pytest.mark.parametrize(
    "name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
)
def test_declared_workload_builds_and_warms_up(workloads, name):
    workloads.WORKLOADS[name](1).warmup()
