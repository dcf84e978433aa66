"""Replication engine and statistical test battery.

One experiment = a model, a true parameter, a regime (fixed horizon,
sequential, or discrete sampling), threshold rules, and a replication
count.  Replications use independent counter-style RNG streams derived
from (master_seed, point_index, replication_index), so results do not
depend on execution order and replications can run in parallel
processes.  Failed replications are flagged and listed.  A sequential
replication whose horizon is too short for an estimator to stop is
simulated again from the same seed on a longer grid, which draws other
noise: the path kept is the first one that stops, so the extensions
select on the stopping time.

What a replication holds depends on its regime and model kind.  In the
fixed-horizon and discrete-sampling regimes a kind whose sensors are
independent and draw their noise one after another (constant-weight
Brownian) runs one sensor at a time: two path rows, one over which the
sensor's B_i is formed and one into which the next sensor's draws are
made on a second thread, and the grid times, plus every sensor's
messages, whatever K is.  The sequential regime, whose
cut reads the total information, and the kinds that couple their
sensors or whose rows are not split (Gaussian, OU, square-root,
correlated) hold the K paths and the statistics of ``path_statistics``,
2K + 3 rows of the grid for deterministic information and 3K + 3 for
random information, the sequential statistics on a prefix.

Threshold rules are explicit power laws u -> a * u^b applied per sensor
(the asymptotic statements only constrain rates, so exponents are
configuration, recorded in the report).  Each regime class decides how
one of its points becomes a replication: the starting horizon, the
per-sensor thresholds and the estimators it accepts.  A regime is built
only if each of its rules gives a finite positive threshold at each of
its points.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .errors import BitfuseError, HorizonExhausted, InvalidSpec, SampleTooSmall, WorkerDied
from . import fusion
from .fusion import (
    CENTRALIZED_FIXED,
    CENTRALIZED_SEQUENTIAL,
    DECENTRALIZED_FIXED,
    DECENTRALIZED_SEQUENTIAL,
    TIMING_ONLY,
    ESTIMATOR_NAMES,
    FusionState,
    centralized_estimates,
    count_budget,
    reconstruct,
)
from .models import (
    Model,
    ModelSpec,
    PathStats,
    TimeGrid,
    build_model,
    path_statistics,
    simulate_paths,
)
from .triggers import (
    CONTINUOUS,
    DISCRETE,
    MessageLog,
    TriggerConfig,
    run_a_trigger,
)
# the engine's B_i rows are finite (``path_statistics`` bounds them by the
# blow-up cap), so its bit trigger is the scan without ``run_b_trigger``'s
# finiteness pass, under the public name that the benchmark's tracer wraps
from .triggers import bit_messages as run_b_trigger

__all__ = [
    "PowerLawRule",
    "FixedHorizonRegime",
    "SequentialRegime",
    "DiscreteSamplingRegime",
    "Regime",
    "ExperimentConfig",
    "ReplicationRow",
    "PointAggregate",
    "ExperimentReport",
    "run_experiment",
    "compute_aggregates",
    "ks_test",
    "BoundReport",
    "audit_bounds",
    "OvershootRow",
    "overshoot_study",
]

_MAX_HORIZON_EXTENSIONS = 64
# the fewest grid steps at which a split attempt draws the next sensor's
# normals on a second thread (``_DrawAhead``): below it the thread's start
# and hand-offs cost more than the draws they overlap.  The break-even of
# K = 2, the fewest sensors that draw ahead, measured on a 2-core Xeon
# (BENCH_30.json); more sensors break even on shorter grids
DRAW_AHEAD_MIN_STEPS = 50_000
# most sensors x grid steps on a replication's starting grid: a
# replication peaks at up to ~110 bytes a sensor step (OU and Gaussian
# kinds, K = 2), so ~0.9 GB here
MAX_SENSOR_STEPS = 1 << 23


@dataclass(frozen=True)
class PowerLawRule:
    """Per-sensor threshold schedule u -> a * u**b."""

    a: float
    b: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise InvalidSpec(f"rule prefactor a must be finite and positive, got {self.a}")
        if not math.isfinite(self.b):
            raise InvalidSpec(f"rule exponent b must be finite, got {self.b}")

    def __call__(self, u: float) -> float:
        """The threshold at u; ``InvalidSpec`` unless it is finite and
        positive."""
        try:
            value = self.a * float(u) ** self.b
        except OverflowError:
            value = math.inf
        if not 0 < value < math.inf:
            raise InvalidSpec(f"rule {self.a:g} * u^{self.b:g} is {value:g} at u={u:g}: "
                              "need a finite positive threshold")
        return value


def _trigger_configs(model: Model, delta: float, c: float | None = None,
                     mode: str = CONTINUOUS, h: float | None = None):
    cfg = TriggerConfig(delta_up=delta, delta_down=delta, c=None if model.deterministic_info else c,
                        mode=mode, h=h)
    return (cfg,) * model.K


def _check_points(name, values):
    """Reject an empty point list, or a point, horizon or sampling period
    that is not finite and positive."""
    if not values or not all(0 < v < math.inf for v in values):
        raise InvalidSpec(f"{name}: need finite positive values, got {list(values)}")


def _check_rule(name, rule, points):
    """Reject a rule whose threshold is not finite and positive at one of
    the regime's points."""
    for u in points:
        try:
            rule(u)
        except InvalidSpec as exc:
            raise InvalidSpec(f"{name}: {exc}") from None


_FIXED_ESTIMATORS = (CENTRALIZED_FIXED, DECENTRALIZED_FIXED, TIMING_ONLY)


@dataclass(frozen=True)
class FixedHorizonRegime:
    """One point per horizon t; each sensor's bit threshold is
    ``delta_rule(t)``.  Accepts the fixed-horizon estimators only; an
    ``ExperimentConfig`` naming another one is rejected at construction."""

    t_list: tuple[float, ...]
    delta_rule: PowerLawRule
    kind: str = field(default="fixed_horizon", init=False)
    estimators = _FIXED_ESTIMATORS

    def __post_init__(self):
        _check_points("t_list", self.t_list)
        _check_rule("delta_rule", self.delta_rule, self.t_list)

    def points(self):
        return tuple(float(t) for t in self.t_list)

    def horizon(self, point):
        return point

    def trigger_configs(self, model: Model, point):
        return _trigger_configs(model, self.delta_rule(point))


@dataclass(frozen=True)
class SequentialRegime:
    """One point per target information gamma; thresholds
    ``delta_rule(gamma)`` and ``c_rule(gamma)``.  A replication starts on
    ``initial_horizon`` and lengthens it until every estimator stops.
    Accepts the sequential estimators only; an ``ExperimentConfig``
    naming another one is rejected at construction."""

    gamma_list: tuple[float, ...]
    c_rule: PowerLawRule
    delta_rule: PowerLawRule
    initial_horizon: float = 1.0
    kind: str = field(default="sequential", init=False)
    estimators = (CENTRALIZED_SEQUENTIAL, DECENTRALIZED_SEQUENTIAL)

    def __post_init__(self):
        _check_points("gamma_list", self.gamma_list)
        _check_points("initial_horizon", (self.initial_horizon,))
        _check_rule("delta_rule", self.delta_rule, self.gamma_list)
        _check_rule("c_rule", self.c_rule, self.gamma_list)

    def points(self):
        return tuple(float(g) for g in self.gamma_list)

    def horizon(self, point):
        return self.initial_horizon

    def trigger_configs(self, model: Model, point):
        return _trigger_configs(model, self.delta_rule(point), self.c_rule(point))


@dataclass(frozen=True)
class DiscreteSamplingRegime:
    """One point per sampling period h, all on the horizon t; each
    sensor's bit threshold is ``delta_rule(t)``.  Accepts the
    fixed-horizon estimators only, and every h must be a whole number of
    steps of the grid t gets (``ExperimentConfig.grid_for(t)``); an
    ``ExperimentConfig`` breaking either is rejected at construction."""

    t: float
    delta_rule: PowerLawRule
    h_list: tuple[float, ...]
    kind: str = field(default="discrete_sampling", init=False)
    estimators = _FIXED_ESTIMATORS

    def __post_init__(self):
        _check_points("t", (self.t,))
        _check_points("h_list", self.h_list)
        _check_rule("delta_rule", self.delta_rule, (self.t,))

    def points(self):
        return tuple(float(h) for h in self.h_list)

    def horizon(self, point):
        return self.t

    def trigger_configs(self, model: Model, point):
        return _trigger_configs(model, self.delta_rule(self.t), mode=DISCRETE, h=point)


Regime = FixedHorizonRegime | SequentialRegime | DiscreteSamplingRegime


@dataclass(frozen=True)
class ExperimentConfig:
    """A replication study.  Construction rejects (``InvalidSpec``) a
    master_seed that is not a nonnegative integer, a lambda_true that is
    not finite, fewer than 2 replications, a grid refinement that is not
    finite and positive, unknown estimators or none, estimators the
    regime does not accept, a point whose starting grid holds more than
    ``MAX_SENSOR_STEPS`` sensor steps, and sampling periods that are not
    a whole number of steps of the horizon's grid (``TimeGrid.stride``)."""

    model: ModelSpec
    lambda_true: float
    regime: Regime
    n_replications: int
    master_seed: int
    estimators: tuple[str, ...]
    grid_steps_per_unit: float = 32.0

    def __post_init__(self):
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidSpec(f"master_seed must be a nonnegative integer, got {seed!r}")
        if not math.isfinite(self.lambda_true):
            raise InvalidSpec(f"lambda_true must be finite, got {self.lambda_true}")
        if self.n_replications < 2:
            raise InvalidSpec("need at least 2 replications")
        if not 0 < self.grid_steps_per_unit < math.inf:
            raise InvalidSpec("grid refinement must be finite and positive")
        bad = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if bad:
            raise InvalidSpec(f"unknown estimators: {bad}")
        if not self.estimators:
            raise InvalidSpec("at least one estimator is required")
        bad = [e for e in self.estimators if e not in self.regime.estimators]
        if bad:
            raise InvalidSpec(f"estimators {bad} do not apply to a {self.regime.kind} regime")
        # no model when the run-file parser lists a rejected model's
        # violations and the experiment's
        K = 1 if self.model is None else self.model.K
        for point in self.regime.points():
            t = self.regime.horizon(point)
            # a step count past the budget may overflow the grid's rounding
            steps = t * self.grid_steps_per_unit
            steps = steps if steps > MAX_SENSOR_STEPS else self.grid_for(t).n_steps
            if K * steps > MAX_SENSOR_STEPS:
                raise InvalidSpec(f"{K} sensors x {steps:g} grid steps on the horizon {t:g} "
                                  f"exceed the budget of {MAX_SENSOR_STEPS} sensor steps")
            if self.regime.kind == "discrete_sampling":
                self.grid_for(t).stride(point)

    def grid_for(self, t_end: float) -> TimeGrid:
        n = max(1, int(round(t_end * self.grid_steps_per_unit)))
        return TimeGrid(t_end=t_end, n_steps=n)

    def replication_seed(self, point_index: int, rep: int) -> np.random.SeedSequence:
        """The stream of one replication, keyed so that results do not
        depend on execution order."""
        return np.random.SeedSequence([int(self.master_seed), point_index, rep])


@dataclass(frozen=True)
class ReplicationRow:
    point: float
    rep: int
    estimator: str
    ok: bool
    value: float
    error: float
    std_error: float
    stop_time: float | None
    info_used: float
    a_at_stop: float
    messages_used: int
    b_messages: int
    a_messages: int
    eta_sum: float
    horizon: float
    fail_reason: str = ""


@dataclass(frozen=True)
class PointAggregate:
    point: float
    estimator: str
    n_ok: int
    n_failed: int
    mean: float
    variance: float
    bias: float
    std_variance: float
    ks_D: float
    ks_p: float
    mean_messages_per_unit_time: float
    failures: tuple


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple
    aggregates: tuple
    warnings: tuple


def ks_test(sample):
    """One-sample Kolmogorov-Smirnov distance to the standard normal and
    its asymptotic p-value."""
    # imported here, not at module level: this is its only caller, and
    # the import is about half of ``import bitfuse``, which every CLI run
    # and worker process pays whether it aggregates or not
    from scipy import special

    sample = np.asarray(sample, dtype=float)
    n = sample.size
    if n < 8:
        raise SampleTooSmall("KS test needs at least 8 observations")
    xs = np.sort(sample)
    cdf = special.ndtr(xs)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    D = float(max(np.max(ecdf_hi - cdf), np.max(cdf - ecdf_lo)))
    p = float(special.kolmogorov(math.sqrt(n) * D))
    return D, p


def _messages(stats: PathStats, cfgs, max_level):
    """The timing messages of the statistics' sensors, whose trigger
    configs are ``cfgs``, up to information ``max_level`` (all of them
    when None), then their bit messages over the statistics' grid."""
    grid = stats.grid
    a_logs = [run_a_trigger(None if stats.A_i is None else stats.A_i[i], grid, cfg.c,
                            max_level=max_level)
              for i, cfg in enumerate(cfgs)]
    return a_logs, [run_b_trigger(stats.B_i[i], grid, cfg) for i, cfg in enumerate(cfgs)]


def _row(point, rep, est, result, lam, std_scale, a_at_stop, state, horizon, t_eval):
    b_n, a_n = state.message_counts(t_eval) if state else (0, 0)
    eta = (
        sum(float(bm.overshoot[: np.searchsorted(bm.time, t_eval, side="right")].sum())
            for bm in state.log.b)
        if state
        else 0.0
    )
    err = result.value - lam
    return ReplicationRow(
        point=point,
        rep=rep,
        estimator=est,
        ok=True,
        value=result.value,
        error=err,
        std_error=std_scale * err,
        stop_time=result.stop_time,
        info_used=result.info_used,
        a_at_stop=a_at_stop,
        messages_used=result.messages_used,
        b_messages=b_n,
        a_messages=a_n,
        eta_sum=eta,
        horizon=horizon,
        fail_reason="",
    )


def _failed_row(point, rep, est, horizon, exc):
    return ReplicationRow(
        point=point,
        rep=rep,
        estimator=est,
        ok=False,
        value=float("nan"),
        error=float("nan"),
        std_error=float("nan"),
        stop_time=None,
        info_used=float("nan"),
        a_at_stop=float("nan"),
        messages_used=0,
        b_messages=0,
        a_messages=0,
        eta_sum=0.0,
        horizon=horizon,
        fail_reason=f"{type(exc).__name__}: {exc}",
    )


def _estimate(est, point, t_end, stats, ends, state):
    """One estimator's result, the information at its stop, and the time
    up to which its messages are counted.  The sequential estimators read
    the (whole model's) statistics, the fixed-horizon ones the totals
    ``ends`` = (B, A) at ``t_end``."""
    if est == DECENTRALIZED_SEQUENTIAL:
        res = fusion.estimate_sequential(state, point)
        # with deterministic information the stop is the exact closed-form
        # time and info_used = A(stop); interpolating A on the grid is not
        if state.model.deterministic_info:
            return res, res.info_used, res.stop_time
        return res, float(stats.value_at(stats.A, res.stop_time)), res.stop_time
    if est == CENTRALIZED_SEQUENTIAL:
        res = centralized_estimates(stats, gamma=point)[0]
        # A equals gamma at the oracle's stop
        return res, point, res.stop_time
    b_t, a_t = ends
    if est == CENTRALIZED_FIXED:
        res = fusion.estimate_centralized_fixed(b_t, a_t)
    elif est == DECENTRALIZED_FIXED:
        res = fusion.estimate_fixed(state, t_end)
    else:
        res = fusion.estimate_timing_only(state, t_end)
    return res, a_t, t_end


# the estimators that read the paths, never a message
_ORACLES = (CENTRALIZED_FIXED, CENTRALIZED_SEQUENTIAL)


def _outcome(est, point, t_end, stats, ends, state):
    try:
        return _estimate(est, point, t_end, stats, ends, state)
    except BitfuseError as exc:
        return exc


class _DrawAhead:
    """The path rows of an attempt's one-sensor parts, each part's draws
    made while the part before it is processed.

    Two rows of the grid: part k is drawn into row k % 2.  When the
    caller takes that row (``row(k)``), this object's thread starts
    drawing part k + 1 into the other row (``Model.draw``, which calls
    nothing but the generator) while the caller simulates part k,
    computes its statistics and runs its triggers.  Part 0 is drawn on
    the caller's thread.  One thread at a time draws, in sensor order and
    a row per call, so the stream and the paths are those of a single
    thread.  The caller must hold nothing of part k - 1's row when it
    asks for part k's.  With one part, or on fewer than
    ``DRAW_AHEAD_MIN_STEPS`` steps, the caller's thread draws every part
    and no thread is started; the second row is allocated either way but
    written only when there is a next part.  With no parts (a whole
    model, which draws its own noise) nothing is allocated and ``row``
    gives None.  Leaving the ``with`` block joins the thread once its
    draw is done; an error raised in that draw is dropped, the caller's
    own error coming first in sensor order.
    """

    def __init__(self, rng, parts, n_steps):
        self.rng, self.parts = rng, parts
        # both rows in one array: a replication then takes ~30 minor page
        # faults instead of ~1,200 with two (K = 8, 200k steps), as glibc
        # keeps more of its heap's top after a larger block is freed
        rows = np.empty((2, n_steps + 1)) if parts else None
        self.rows = [] if rows is None else [rows[:1], rows[1:]]
        ahead = len(parts) > 1 and n_steps >= DRAW_AHEAD_MIN_STEPS
        self.pool = ThreadPoolExecutor(max_workers=1) if ahead else None
        self.drawn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(wait=True)
        return False

    def row(self, k):
        """Part k's (1, n_steps + 1) row, holding its draws."""
        if not self.parts:
            return None
        if self.drawn is None:
            self.parts[k].draw(self.rng, self.rows[k % 2])
        else:
            self.drawn.result()
        self.drawn = None
        if self.pool is not None and k + 1 < len(self.parts):
            self.drawn = self.pool.submit(self.parts[k + 1].draw, self.rng, self.rows[(k + 1) % 2])
        return self.rows[k % 2]


def _replicate(cfg: ExperimentConfig, point_index: int, rep: int):
    """Run one replication at one regime point; returns (rows, warnings).

    An attempt runs the model's parts (``Model.parts``) one after another
    on the replication's one generator: K one-sensor parts when the
    kind's sensors are independent, else the whole model, which the
    sequential regime always runs (its cut reads the total information).
    Each part's paths are simulated and their statistics computed, in the
    sequential regime only on the grid prefix that holds both stops
    (``path_statistics`` with ``reach``), and its sensors' triggers run
    over the statistics' grid.  One-sensor parts take turns in two path
    rows (``_DrawAhead``): part k's row holds its draws, then its path,
    over which it forms its B_i, while a second thread, joined before the
    attempt ends, draws part k + 1 into the other row from the same
    generator (on grids of ``DRAW_AHEAD_MIN_STEPS`` steps or more; on
    shorter ones the calling thread draws it when it gets there).  One
    thread at a time draws, in sensor order, so the draws are those of a
    single thread; everything else runs on the calling thread.  Such an
    attempt holds one sensor's path at a time and keeps its messages and
    the totals at the horizon: B(t) is the parts' B(t) added from +0.0
    in sensor order, as the B row adds, and A(t) the model's closed form,
    which the parts' statistics never form, or with random information
    the parts' A(t) added the same way.  The oracles, which read no
    message, run once the last part's statistics are in and before its
    triggers: an attempt whose horizon they exhaust runs no trigger on
    them.  The estimators that read messages follow.
    In the sequential regime an attempt whose horizon is too short for
    some estimator to stop is followed by one on a longer horizon,
    simulated from the same seed.  A ``BitfuseError`` from the
    simulation, the statistics or the triggers (a ``MessageFlood``, say)
    fails every row of the replication; with K parts the first one
    raised, in sensor order, is reported.
    """
    model = build_model(cfg.model)
    regime = cfg.regime
    point = regime.points()[point_index]
    seed = cfg.replication_seed(point_index, rep)
    cfgs = regime.trigger_configs(model, point)
    sequential = regime.kind == "sequential"
    # the sequential statistics end 2 steps past where A reaches
    # gamma + c_total: tA > A - c_total pathwise, so tA has reached
    # gamma > gamma - c_total there and the decentralized rule has
    # stopped, while the oracle stops where A first reaches gamma; a
    # message stamped at t arrives by step ceil(t / dt) + 1.  Past the
    # stops a path with random information can grow like e^(lambda t)
    # until its statistics blow up
    reach = point + count_budget(model, cfgs) if sequential else None
    parts = (model,) if sequential else model.parts()
    need_log = any(e != CENTRALIZED_FIXED for e in cfg.estimators)
    t_end = regime.horizon(point)
    attempt = 0
    while True:
        attempt += 1
        try:
            grid = cfg.grid_for(t_end)
            rng = np.random.default_rng(seed)
            a_logs, b_logs, b_t, a_t, outcomes = [], [], 0.0, 0.0, []
            with _DrawAhead(rng, parts if parts[0] is not model else (), grid.n_steps) as draws:
                for k, part in enumerate(parts, 1):
                    # the previous part's statistics go before its row takes new draws
                    stats = None
                    row = draws.row(k - 1)
                    paths = simulate_paths(part, cfg.lambda_true, grid,
                                           rng if row is None else None, row)
                    stats = path_statistics(paths, part, reach, row)
                    b_t += float(stats.B[-1])
                    if not model.deterministic_info:
                        a_t += float(stats.A[-1])
                    if k == len(parts):
                        if model.deterministic_info:
                            a_t = float(model.det_info(t_end))
                        outcomes = [_outcome(est, point, t_end, stats, (b_t, a_t), None)
                                    if est in _ORACLES else None for est in cfg.estimators]
                    if need_log and not any(isinstance(o, HorizonExhausted) for o in outcomes):
                        a, b = _messages(stats, cfgs[len(b_logs):len(b_logs) + part.K],
                                         point if sequential else None)
                        a_logs += a
                        b_logs += b
            state = None
            if len(b_logs) == model.K:  # every sensor's triggers ran
                state = reconstruct(MessageLog(b=tuple(b_logs), a=tuple(a_logs), cfgs=cfgs,
                                               horizon=t_end), model)
                outcomes = [_outcome(est, point, t_end, stats, (b_t, a_t), state)
                            if out is None else out
                            for est, out in zip(cfg.estimators, outcomes)]
        except BitfuseError as exc:
            return [_failed_row(point, rep, est, t_end, exc) for est in cfg.estimators], []
        exhausted = [o for o in outcomes if isinstance(o, HorizonExhausted)]
        if not (sequential and exhausted):
            break
        if attempt > _MAX_HORIZON_EXTENSIONS:
            return [_failed_row(point, rep, est, t_end, exhausted[0]) for est in cfg.estimators], []
        t_end = t_end + max(1.0, 0.25 * t_end)
    warnings = []
    if attempt > 1:
        warnings.append(
            f"point={point} rep={rep}: horizon extended to {t_end:g} ({attempt - 1} extensions)"
        )

    info = point if sequential else a_t
    std_scale = math.sqrt(info) if info > 0 else float("nan")
    rows = []
    for est, out in zip(cfg.estimators, outcomes):
        if isinstance(out, BitfuseError):
            rows.append(_failed_row(point, rep, est, t_end, out))
        else:
            res, a_at_stop, t_eval = out
            rows.append(_row(point, rep, est, res, cfg.lambda_true, std_scale, a_at_stop, state,
                             t_end, t_eval))
    return rows, warnings


def run_replication(cfg: ExperimentConfig, point_index: int = 0, rep: int = 0):
    """Run a single replication at one regime point and return its rows."""
    rows, _warnings = _replicate(cfg, point_index, rep)
    return rows


def _replicate_chunk(cfg, keys):
    return [_replicate(cfg, pi, rep) for pi, rep in keys]


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Run all replications at all regime points.

    Deterministic for a fixed master_seed regardless of thread count or
    completion order: rows are keyed by (point, replication) and sorted
    before aggregation.  The pool has at most one worker process per task
    and per usable core, whatever ``threads`` asks for: a forked pool
    starts all of its workers at the first task.  It gets the
    replications in about 8 chunks a worker; a worker that dies (killed,
    or out of memory) breaks the pool, and ``WorkerDied`` names the first
    replication whose rows did not come back.
    """
    points = cfg.regime.points()
    keys = [(pi, rep) for pi in range(len(points)) for rep in range(cfg.n_replications)]
    workers = min(threads, len(keys), len(os.sched_getaffinity(0)))
    if workers > 1:
        size = max(1, len(keys) // (8 * workers))
        chunks = [keys[i:i + size] for i in range(0, len(keys), size)]
        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_replicate_chunk, cfg, chunk) for chunk in chunks]
            for chunk, future in zip(chunks, futures):
                try:
                    results += future.result()
                except BrokenProcessPool:
                    pi, rep = chunk[0]
                    raise WorkerDied(f"a worker process died before the rows of point="
                                     f"{points[pi]:g} rep={rep} came back") from None
    else:
        results = _replicate_chunk(cfg, keys)

    est_order = {e: k for k, e in enumerate(cfg.estimators)}
    point_order = {p: k for k, p in enumerate(points)}
    rows = [r for rows_i, _ in results for r in rows_i]
    rows.sort(key=lambda r: (point_order[r.point], r.rep, est_order[r.estimator]))
    warnings = tuple(w for _, ws in results for w in ws)
    aggregates = compute_aggregates(rows)
    return ExperimentReport(config=cfg, rows=tuple(rows), aggregates=tuple(aggregates),
                            warnings=warnings)


def compute_aggregates(rows):
    """Per (point, estimator) summary statistics, recomputable from rows."""
    groups = {}  # insertion order is first-seen order
    for r in rows:
        groups.setdefault((r.point, r.estimator), []).append(r)
    out = []
    for (point, est), sel in groups.items():
        ok = [r for r in sel if r.ok]
        failures = tuple(f"rep={r.rep}: {r.fail_reason}" for r in sel if not r.ok)
        if len(ok) >= 2:
            vals = np.array([r.value for r in ok])
            std = np.array([r.std_error for r in ok])
            rates = np.array(
                [r.messages_used / (r.stop_time if r.stop_time else r.horizon) for r in ok]
            )
            mean = float(vals.mean())
            variance = float(vals.var(ddof=1))
            bias = float(mean - (ok[0].value - ok[0].error))
            std_var = float(std.var(ddof=1))
            if len(ok) >= 8:
                ks_D, ks_p = ks_test(std)
            else:
                ks_D, ks_p = float("nan"), float("nan")
            rate = float(rates.mean())
        else:
            mean = variance = bias = std_var = ks_D = ks_p = rate = float("nan")
        out.append(
            PointAggregate(
                point=point,
                estimator=est,
                n_ok=len(ok),
                n_failed=len(sel) - len(ok),
                mean=mean,
                variance=variance,
                bias=bias,
                std_variance=std_var,
                ks_D=ks_D,
                ks_p=ks_p,
                mean_messages_per_unit_time=rate,
                failures=failures,
            )
        )
    return out


# -- pathwise bound audit ----------------------------------------------

_FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Worst-case reconstruction gaps of one replication, with pass flags.

    Continuous mode checks each sensor's and the total bit gap against
    the thresholds at every grid point.  Discrete mode checks each
    sensor's bit reconstruction against its threshold plus its
    accumulated overshoots at the sampling instants.  The information
    check is on the totals: 0 <= A - tA <= c_total at every grid point.
    """

    mode: str
    b_gap_total: float
    delta_total: float
    a_gap_max_total: float
    a_gap_min_total: float
    c_total: float
    b_ok: bool
    a_upper_ok: bool
    a_lower_ok: bool


def audit_bounds(stats: PathStats, state: FusionState, log: MessageLog) -> BoundReport:
    """Measure reconstruction gaps over the whole grid and compare them
    with the thresholds (small float-rounding slack only)."""
    mode = log.cfgs[0].mode
    if any(c.mode != mode or c.h != log.cfgs[0].h for c in log.cfgs):
        raise InvalidSpec("bound audit requires a common mode and sampling period")
    stride = 1 if mode == CONTINUOUS else stats.grid.stride(log.cfgs[0].h)
    grid_times = stats.grid.times()
    times = grid_times[::stride]

    b_ok = True
    tB_total = np.zeros(times.size)
    for i in range(state.model.K):
        tB_i = state.tB_i(i, times)
        tB_total += tB_i
        # continuous overshoots are zeros, so the gap is |B_i - tB_i| there
        cum_eta = np.concatenate(([0.0], np.cumsum(log.b[i].overshoot)))
        idx = np.searchsorted(log.b[i].time, times, side="right")
        gap = np.abs(stats.B_i[i][::stride] - tB_i) - cum_eta[idx]
        bound = log.cfgs[i].delta_max
        b_ok = b_ok and gap.max() <= bound + _FLOAT_TOL * (1 + bound)

    b_gap_total = float(np.abs(stats.B[::stride] - tB_total).max())
    a_diff_total = stats.A - state.tA(grid_times)
    delta_total = state.delta_total
    c_total = state.c_total
    if mode == CONTINUOUS:
        b_ok = b_ok and b_gap_total <= delta_total + _FLOAT_TOL * (1 + delta_total)
    a_gap_max, a_gap_min = float(a_diff_total.max()), float(a_diff_total.min())
    return BoundReport(
        mode=mode,
        b_gap_total=b_gap_total,
        delta_total=delta_total,
        a_gap_max_total=a_gap_max,
        a_gap_min_total=a_gap_min,
        c_total=c_total,
        b_ok=bool(b_ok),
        a_upper_ok=bool(a_gap_max <= c_total + _FLOAT_TOL * (1 + c_total)),
        a_lower_ok=bool(a_gap_min >= -_FLOAT_TOL * (1 + c_total)),
    )


# -- discrete-sampling overshoot study ----------------------------------


@dataclass(frozen=True)
class OvershootRow:
    h: float
    mean_eta: float
    eta_norm: float
    mean_b_messages: float
    bias: float
    bias_se: float
    rate_ratio: float
    rate_ok: bool


def overshoot_study(cfg: ExperimentConfig, threads: int = 1):
    """One row per sampling period: pooled mean overshoot, its h^(1/3)
    normalization, message volume, and the fixed-horizon estimator bias.

    ``rate_ratio`` is the desk-scale surrogate of the rate condition
    linking sampling period, threshold, and horizon: cbrt(h) divided by
    min(delta)/sqrt(t); at most 1 flags it satisfied.
    """
    regime = cfg.regime
    if regime.kind != "discrete_sampling":
        raise InvalidSpec("overshoot study needs a discrete-sampling regime")
    report = run_experiment(cfg, threads=threads)
    rows = []
    delta = regime.delta_rule(regime.t)
    for h in regime.points():
        sel = [r for r in report.rows
               if r.point == h and r.estimator == DECENTRALIZED_FIXED and r.ok]
        eta_total = sum(r.eta_sum for r in sel)
        msg_total = sum(r.b_messages for r in sel)
        mean_eta = eta_total / msg_total if msg_total else float("nan")
        errs = np.array([r.error for r in sel])
        bias = float(errs.mean())
        bias_se = float(errs.std(ddof=1) / math.sqrt(len(errs)))
        ratio = (h ** (1.0 / 3.0)) / (delta / math.sqrt(regime.t))
        rows.append(
            OvershootRow(
                h=h,
                mean_eta=mean_eta,
                eta_norm=mean_eta / h ** (1.0 / 3.0),
                mean_b_messages=float(np.mean([r.b_messages for r in sel])),
                bias=bias,
                bias_se=bias_se,
                rate_ratio=ratio,
                rate_ok=ratio <= 1.0,
            )
        )
    return rows, report
