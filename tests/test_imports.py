"""What importing and running bitfuse loads of scipy.

``import bitfuse`` loads no scipy at all.  ``scipy.special`` waits for
the first KS test, ``scipy.signal`` (which pulls in ``scipy.stats``,
``interpolate`` and ``optimize``) for the first OU simulation, and
``scipy.integrate`` for the first-passage suite, so a process that never
runs them never pays for them.  Checked in a fresh interpreter, since
the test session has long loaded scipy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import bitfuse

SRC = Path(bitfuse.__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import hashlib
    import sys

    import bitfuse
    import bitfuse.cli
    from bitfuse.experiments import (
        ExperimentConfig, FixedHorizonRegime, PowerLawRule, ks_test, run_experiment,
    )
    from bitfuse.first_passage import ExitProblem, exit_time_cdf
    from bitfuse.models import ModelKind, ModelSpec, TimeGrid, build_model, simulate_paths

    def loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    assert loaded() == [], loaded()

    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 0.5)),
        lambda_true=0.5,
        regime=FixedHorizonRegime(t_list=(5.0,), delta_rule=PowerLawRule(1.0, 0.25)),
        n_replications=2,
        master_seed=1,
        estimators=("decentralized_fixed", "centralized_fixed"),
    )
    report = run_experiment(cfg)
    assert all(row.ok for row in report.rows), report.rows
    assert exit_time_cdf(ExitProblem(delta=1.0, x=1.0, lam=1.0), [0.5, 1.0])[1] > 0.0
    assert loaded() == [], loaded()

    print(*ks_test([-1.5, -0.7, -0.2, 0.1, 0.4, 0.9, 1.3, 2.2]))
    assert "scipy.special" in sys.modules and "scipy.signal" not in sys.modules

    model = build_model(ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 0.5)))
    Y = simulate_paths(model, 0.5, TimeGrid(t_end=5.0, n_steps=500), 7).Y
    assert "scipy.signal" in sys.modules
    print(hashlib.sha256(Y.tobytes()).hexdigest())
""")


def test_scipy_parts_load_only_where_they_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    ks, ou = res.stdout.splitlines()
    # the KS distance and p-value, and the OU path, that the module-level
    # imports of scipy.special and lfilter gave
    assert ks == "0.19093987465324047 0.9324475218943081"
    assert ou == "8b5eeca0e1dda0fb60954ec5bc24cd0d85b0032797188002de8cf5f2f9ecf2a1"
