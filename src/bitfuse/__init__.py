"""bitfuse: decentralized drift estimation from one-bit sensor messages.

Simulation and estimation toolkit for sensor networks in which each
sensor observes a continuous process with drift linear in a common
parameter, transmits single bits at first-exit times of its local
statistics, and a fusion center reconstructs the sufficient statistics
and estimates the parameter.  A replication harness verifies the
scheme's consistency, normality, and communication-rate behavior at
desk scale.
"""

from .errors import BitfuseError
from .experiments import (
    DiscreteSamplingRegime,
    ExperimentConfig,
    FixedHorizonRegime,
    PowerLawRule,
    SequentialRegime,
    audit_bounds,
    ks_test,
    overshoot_study,
    run_experiment,
    run_replication,
)
from .first_passage import (
    ExitProblem,
    delta_moment_asymptotics,
    exit_functionals,
    joint_density,
    kernel_h,
    series_g,
    simulate_exit_times,
)
from .fusion import (
    EstimateResult,
    FusionState,
    centralized_estimates,
    estimate_fixed,
    estimate_sequential,
    estimate_timing_only,
    reconstruct,
)
from .models import (
    ModelKind,
    ModelSpec,
    PathStats,
    SensorPaths,
    TimeGrid,
    build_model,
    path_statistics,
    simulate_paths,
)
from .suites import SUITE_NAMES, run_all_suites, run_suite
from .timefuncs import TimeFunction
from .triggers import (
    AMessages,
    BMessages,
    MessageLog,
    TriggerConfig,
    extract_renewals,
    run_a_trigger,
    run_b_trigger,
    run_triggers,
)

__version__ = "0.1.0"
