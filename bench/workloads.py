"""The benchmark workloads: inputs from the seed, the timed and traced
phases, and the correctness gates.

Every gate is a pathwise or distributional property of the scheme, so
it holds whatever layout the random streams take.  An output hash is
recorded next to them for byte-identity comparisons between commits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import statistics
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
from scipy import special

import bitfuse
from bitfuse import experiments
from bitfuse import first_passage as fp
from bitfuse.errors import BitfuseError
from bitfuse.experiments import (
    ExperimentConfig,
    FixedHorizonRegime,
    PowerLawRule,
    SequentialRegime,
    audit_bounds,
    compute_aggregates,
    run_experiment,
    run_replication,
)
from bitfuse.first_passage import ExitProblem
from bitfuse.fusion import (
    CENTRALIZED_FIXED,
    CENTRALIZED_SEQUENTIAL,
    DECENTRALIZED_FIXED,
    DECENTRALIZED_SEQUENTIAL,
    TIMING_ONLY,
    reconstruct,
)
from bitfuse.models import ModelKind, ModelSpec, build_model
from bitfuse.reporting import rows_csv_text
from bitfuse.timefuncs import TimeFunction
from bitfuse.triggers import TriggerConfig, run_triggers

import tracer as tr

CHUNK_REPS = 2  # replications per run_experiment call, one timed block
WARMUP = 1 << 30  # chunk / batch index reserved for the untimed warm-up
MIN_TRACED_REPS = 100  # so that ten samples lie beyond the p90
REL_TOL = 1e-9  # float slack on pathwise bounds, as in the acceptance suites
MAX_VIOLATIONS_KEPT = 5
# nominal seconds of the three parts of reference_slowdown(), near their
# medians on the box in README.md: interpreter loop, large-array numpy,
# small-array numpy loop
REF_PART_S = (0.0100, 0.0110, 0.0070)

_REF_DATA = np.random.default_rng(0).standard_normal(1 << 17)


def _ref_loop():
    s = 0
    for i in range(100_000):
        s += i * i % 7


def _ref_large_arrays():
    for _ in range(3):
        b = np.cumsum(_REF_DATA)
        np.sort(_REF_DATA * 1.0001)
        np.exp(-np.abs(b))


def _ref_small_arrays():
    x = _REF_DATA[:64].copy()
    for _ in range(2000):
        x = x * 0.99 + 0.01
        x[x < 0.5] += 1.0


def reference_slowdown(mix):
    """How much slower than nominal the box runs now, from a fixed kernel
    that never calls bitfuse.

    The box's speed drifts by up to 2x within seconds (a neighbour's
    load; steal time stays near zero, so there is nothing to subtract).  The kernel has three
    parts, one per kind of work the workloads do: an interpreter loop,
    numpy on arrays of 128k floats, and small numpy operations inside an
    interpreter loop.  Each part's time over its ``REF_PART_S`` is
    weighted by ``mix``, the workload's share of that kind of work, so
    the result tracks how the drift slows that workload.
    """
    slowdown = 0.0
    for weight, part, nominal in zip(mix, (_ref_loop, _ref_large_arrays, _ref_small_arrays), REF_PART_S):
        t0 = time.perf_counter()
        part()
        slowdown += weight * (time.perf_counter() - t0) / nominal
    return slowdown


def check_source(src: Path):
    """Refuse to measure a bitfuse that was not built from ``src``."""
    where = Path(bitfuse.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"bitfuse imported from {where}, not from {src}")


@dataclasses.dataclass
class Tally:
    """What one phase did: replications, rows, failures, gate violations
    and the timed seconds (net of the benchmark's own audits), with the
    wall-clock replications per second of every block of replications
    and the reference slowdown around it."""

    reps: int = 0
    attempted: int = 0
    failed: int = 0
    failures: Counter = dataclasses.field(default_factory=Counter)
    violations: int = 0
    messages: list = dataclasses.field(default_factory=list)
    elapsed: float = 0.0
    audit_s: float = 0.0
    block_rates: list = dataclasses.field(default_factory=list)
    slowdowns: list = dataclasses.field(default_factory=list)

    def block(self, reps, seconds, slowdown):
        self.reps += reps
        self.elapsed += seconds
        self.block_rates.append(reps / seconds)
        self.slowdowns.append(slowdown)

    @property
    def scaled_rates(self):
        """Each block's rate at nominal speed: its wall-clock rate times the
        reference slowdown around it."""
        return [r * s for r, s in zip(self.block_rates, self.slowdowns)]

    @property
    def reps_per_s(self):
        """Median over blocks of the rate at nominal speed.  The median
        keeps a rare replication that floods the triggers to one block's
        worth of weight."""
        return statistics.median(self.scaled_rates)

    @property
    def wall_reps_per_s(self):
        """Median over blocks of the plain wall-clock rate."""
        return statistics.median(self.block_rates)

    def violation(self, msg):
        self.violations += 1
        if len(self.messages) < MAX_VIOLATIONS_KEPT:
            self.messages.append(msg)

    def failure(self, kind):
        self.failed += 1
        self.failures[kind] += 1


def _derived_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_blocks(tally, seconds, block, mix, tracer=None, budget=math.inf):
    """Call ``block(0)``, ``block(1)``, ... until ``seconds`` of timed work
    (and, traced, at least ``MIN_TRACED_REPS`` replications) are done or
    ``budget`` wall seconds have passed.

    ``block(i)`` does one timed block and returns the replications it
    completed and an untimed check of its output.  The benchmark's own
    audits (``tally.audit_s``) are taken out of the block's time, and the
    reference kernel, weighted by ``mix``, runs between blocks.
    """
    start = time.perf_counter()
    ref_before = reference_slowdown(mix)
    i = 0
    while True:
        audit0 = tally.audit_s
        t0 = time.perf_counter()
        reps, check = block(i)
        seconds_used = time.perf_counter() - t0 - (tally.audit_s - audit0)
        ref_after = reference_slowdown(mix)
        tally.block(reps, seconds_used, (ref_before + ref_after) / 2)
        ref_before = ref_after
        check()
        i += 1
        enough = tally.elapsed >= seconds and (tracer is None or tally.reps >= MIN_TRACED_REPS)
        if enough or time.perf_counter() - start >= budget:
            return


# -- experiment workloads ----------------------------------------------------


class ExperimentWorkload:
    """Serial replications of one ``ExperimentConfig``.

    The timed phase calls ``run_experiment(cfg, threads=1)`` on chunks of
    ``CHUNK_REPS`` replications, each chunk with its own master seed
    derived from the workload seed.  The traced phase replays the same
    chunks through ``run_replication`` and ``compute_aggregates``, the
    code path ``run_experiment`` takes with one thread.
    """

    calls = tr.ENGINE_CALLS
    ks = None

    def __init__(self, seed, cfg, ref_mix, row_gate=None, audit_cfgs=None):
        self.seed = seed
        self.cfg = cfg
        self.ref_mix = ref_mix
        self.row_gate = row_gate
        self.audit_cfgs = audit_cfgs
        self.model = build_model(cfg.model)
        self.output_sha256 = None  # of rows_csv_text for chunk 0

    def chunk_cfg(self, chunk):
        return dataclasses.replace(self.cfg, master_seed=_derived_seed(self.seed, chunk))

    def warmup(self):
        run_replication(self.chunk_cfg(WARMUP), 0, 0)

    @contextlib.contextmanager
    def _audited(self, tally, tracer):
        """Audit every statistics object the engine computes, with a log
        rebuilt by the public, uncapped ``run_triggers``."""
        if self.audit_cfgs is None:
            yield
            return
        compute = experiments.path_statistics

        def audited(*args, **kwargs):
            stats = compute(*args, **kwargs)
            t0 = time.perf_counter()
            with tracer.span(tr.AUDIT) if tracer else contextlib.nullcontext():
                log = run_triggers(stats, self.model, self.audit_cfgs)
                report = audit_bounds(stats, reconstruct(log, self.model), log)
            tally.audit_s += time.perf_counter() - t0
            if not (report.b_ok and report.a_upper_ok):
                tally.violation(
                    f"audit: b_gap_total={report.b_gap_total:.6g} (Delta {report.delta_total:.6g}), "
                    f"max A - tA={report.a_gap_max_total:.6g} (c {report.c_total:.6g})"
                )
            return stats

        with mock.patch.object(experiments, "path_statistics", audited):
            yield

    def _rows(self, tally, rows):
        for r in rows:
            tally.attempted += 1
            if not r.ok:
                tally.failure(r.fail_reason.split(":")[0])
        if self.row_gate is not None:
            self.row_gate(rows, tally)

    def run(self, tally, seconds, tracer=None, budget=math.inf):
        """One block per chunk; see ``run_blocks``."""

        def block(chunk):
            cfg = self.chunk_cfg(chunk)
            if tracer is None:
                report = run_experiment(cfg, threads=1)
                rows = report.rows
            else:
                rows = []
                for rep in range(cfg.n_replications):
                    with tracer.replication():
                        rows.extend(run_replication(cfg, 0, rep))
                with tracer.span(tr.AGGREGATE):
                    compute_aggregates(rows)

            def check():
                if tracer is None and chunk == 0:
                    self.output_sha256 = hashlib.sha256(rows_csv_text(report).encode()).hexdigest()
                self._rows(tally, rows)

            return cfg.n_replications * len(cfg.regime.points()), check

        with self._audited(tally, tracer):
            run_blocks(tally, seconds, block, self.ref_mix, tracer, budget)

    def finish(self, tally):
        pass


def _by_rep(rows):
    out = {}
    for r in rows:
        out.setdefault(r.rep, {})[r.estimator] = r
    return out


def fixed_brownian(seed):
    K, t, lam = 8, 1e4, 1.0
    spec = ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=K, x=(1.0,) * K)
    rule = PowerLawRule(1.0, 0.25)
    cfg = ExperimentConfig(
        model=spec,
        lambda_true=lam,
        regime=FixedHorizonRegime(t_list=(t,), delta_rule=rule),
        n_replications=CHUNK_REPS,
        master_seed=seed,
        estimators=(DECENTRALIZED_FIXED, TIMING_ONLY, CENTRALIZED_FIXED),
        grid_steps_per_unit=20.0,
    )
    # |B_t - tB_t| <= Delta_total pathwise and A_t is known exactly, so the
    # bit and oracle estimates differ by at most Delta_total / A_t
    limit = K * rule(t) / (sum(v * v for v in spec.x) * t)

    def gate(rows, tally):
        for rep, ests in _by_rep(rows).items():
            dec, cen = ests[DECENTRALIZED_FIXED], ests[CENTRALIZED_FIXED]
            if dec.ok and cen.ok and abs(dec.value - cen.value) > limit * (1 + REL_TOL):
                tally.violation(
                    f"rep {rep}: |dec - cen| = {abs(dec.value - cen.value):.6g} > {limit:.6g}"
                )

    # simulation, statistics and the B trigger work on arrays of 200k
    # steps per sensor (README.md)
    return ExperimentWorkload(seed, cfg, (0.2, 0.7, 0.1), row_gate=gate)


def sequential_ou(seed):
    K, gamma = 2, 1e4
    c_rule = PowerLawRule(0.5, 0.25)
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=K, alpha=(1.0, 1.0)),
        lambda_true=0.5,
        regime=SequentialRegime(
            gamma_list=(gamma,),
            c_rule=c_rule,
            delta_rule=PowerLawRule(0.5, 0.25),
            initial_horizon=8.5,
        ),
        n_replications=CHUNK_REPS,
        master_seed=seed,
        estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
        grid_steps_per_unit=1000.0,
    )
    c_total = K * c_rule(gamma)  # independent sensors: no random cross terms
    tol = REL_TOL * gamma

    def gate(rows, tally):
        for rep, ests in _by_rep(rows).items():
            dec, cen = ests[DECENTRALIZED_SEQUENTIAL], ests[CENTRALIZED_SEQUENTIAL]
            for r in (dec, cen):
                if r.ok and not gamma - c_total - tol <= r.a_at_stop <= gamma + tol:
                    tally.violation(
                        f"rep {rep} {r.estimator}: A at stop {r.a_at_stop:.9g} "
                        f"outside [{gamma - c_total:.9g}, {gamma:.9g}]"
                    )
            if dec.ok and cen.ok and dec.stop_time > cen.stop_time * (1 + REL_TOL):
                tally.violation(
                    f"rep {rep}: decentralized stop {dec.stop_time:.9g} after "
                    f"centralized stop {cen.stop_time:.9g}"
                )

    # equal weights: this workload's mix was not measured (README.md)
    return ExperimentWorkload(seed, cfg, (1 / 3, 1 / 3, 1 / 3), row_gate=gate)


def correlated_sequential(seed):
    const = TimeFunction.constant
    gamma = 100.0
    c_rule = delta_rule = PowerLawRule(0.5, 0.25)
    spec = ModelSpec(
        kind=ModelKind.CORRELATED_DIFFUSION,
        K=2,
        sigma=((const(1.0), const(0.0)), (const(0.5), const(1.0))),
    )
    cfg = ExperimentConfig(
        model=spec,
        lambda_true=0.3,
        regime=SequentialRegime(
            gamma_list=(gamma,), c_rule=c_rule, delta_rule=delta_rule, initial_horizon=10.0
        ),
        n_replications=CHUNK_REPS,
        master_seed=seed,
        estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
        grid_steps_per_unit=2000.0,
    )
    # the cross term is random, so only |B - tB| <= Delta and
    # A - tA <= c_total are guaranteed (the audit's b_ok and a_upper_ok)
    delta, c = delta_rule(gamma), c_rule(gamma)
    audit_cfgs = tuple(TriggerConfig(delta_up=delta, delta_down=delta, c=c) for _ in range(2))
    # the per-step loop of simulate, on K=2 values per step (README.md)
    return ExperimentWorkload(seed, cfg, (0.1, 0.1, 0.8), audit_cfgs=audit_cfgs)


# -- first-passage workload ----------------------------------------------------


class ExitOracleWorkload:
    """Batches of first-exit numerics.

    A batch evaluates ``exit_functionals`` at a threshold drawn from the
    seed, draws ``DRAWS`` Monte Carlo exit times of the first-passage
    suite's KS problem, and evaluates ``exit_time_cdf`` at the sorted
    draws.  The threshold changes between batches so that caching the
    deterministic quadrature would not pass for a speed-up.
    """

    calls = tr.EXIT_CALLS
    ref_mix = (0.2, 0.2, 0.6)  # the Monte Carlo walk: small arrays in a step loop
    DRAWS = 1000
    DT = 1e-3
    DELTA_RANGE = (5.0, 20.0)  # the comm-rate suite's thresholds
    KS_BATCHES = 8  # the pooled KS gate uses batches 0..7, whatever the speed
    KS_PROBLEM = ExitProblem(delta=1.0, x=1.0, lam=1.0)

    def __init__(self, seed):
        self.seed = seed
        self.output_sha256 = None  # of batch 0's functionals and sorted draws
        self.ks = None
        self._ks = {}

    def delta(self, batch):
        return float(np.random.default_rng([self.seed, batch, 1]).uniform(*self.DELTA_RANGE))

    def batch(self, batch):
        delta = self.delta(batch)
        prob_up, mean, _var = fp.exit_functionals(ExitProblem(delta=delta, x=1.0, lam=1.0))
        draws, _sides = fp.simulate_exit_times(
            self.KS_PROBLEM, self.DRAWS, dt=self.DT, seed=np.random.SeedSequence([self.seed, batch])
        )
        xs = np.sort(draws)
        return delta, prob_up, mean, xs, fp.exit_time_cdf(self.KS_PROBLEM, xs)

    def warmup(self):
        self.batch(WARMUP)

    def _check(self, tally, batch, out):
        # exact laws of the symmetric two-sided exit of a drifted Brownian
        # motion with lam = x = 1: P(up) = 1 / (1 + e^(-2 delta)) and
        # E[tau] = delta * tanh(delta)
        delta, prob_up, mean, xs, cdf = out
        want_up = 1.0 / (1.0 + math.exp(-2.0 * delta))
        want_mean = delta * math.tanh(delta)
        if abs(prob_up - want_up) > 1e-8 or abs(mean - want_mean) > 1e-8 * want_mean:
            tally.violation(
                f"batch {batch}: delta={delta:.6g} gives P(up)={prob_up:.12g} "
                f"(exact {want_up:.12g}), E[tau]={mean:.12g} (exact {want_mean:.12g})"
            )
        if batch == 0:
            digest = hashlib.sha256(np.array([delta, prob_up, mean]).tobytes() + xs.tobytes())
            self.output_sha256 = digest.hexdigest()
        if batch < self.KS_BATCHES:
            self._ks[batch] = (xs, cdf)

    def run(self, tally, seconds, tracer=None, budget=math.inf):
        """One block per batch; see ``run_blocks``."""

        def block(batch):
            try:
                with tracer.replication() if tracer else contextlib.nullcontext():
                    out = self.batch(batch)
            except BitfuseError as exc:
                out = None
                tally.failure(type(exc).__name__)

            def check():
                tally.attempted += 1
                if out is not None:
                    self._check(tally, batch, out)

            return 1, check

        with tracer.counting_density_calls() if tracer else contextlib.nullcontext():
            run_blocks(tally, seconds, block, self.ref_mix, tracer, budget)

    def finish(self, tally):
        """Pooled KS gate over batches 0..KS_BATCHES-1 (run untimed here if
        the timed phase stopped short), at the 1% critical value."""
        for batch in range(self.KS_BATCHES):
            if batch not in self._ks:
                try:
                    self._check(tally, batch, self.batch(batch))
                except BitfuseError as exc:
                    tally.violation(f"KS sample incomplete: batch {batch} raised {exc!r}")
                    return
        xs = np.concatenate([self._ks[b][0] for b in range(self.KS_BATCHES)])
        cdf = np.concatenate([self._ks[b][1] for b in range(self.KS_BATCHES)])
        order = np.argsort(xs, kind="stable")
        cdf = cdf[order]
        n = cdf.size
        D = float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))
        crit = math.sqrt(-0.5 * math.log(0.01 / 2.0)) / math.sqrt(n)
        self.ks = {"n": n, "D": D, "crit_1pct": crit, "p": float(special.kolmogorov(math.sqrt(n) * D))}
        if not D < crit:
            tally.violation(f"KS distance {D:.5f} not below the 1% critical value {crit:.5f} (n={n})")


WORKLOADS = {
    "fixed-brownian": fixed_brownian,
    "sequential-ou": sequential_ou,
    "correlated-sequential": correlated_sequential,
    "exit-oracle": ExitOracleWorkload,
}


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer, tally, untraced):
    """Per-layer numbers of a traced phase: ``_ms`` are self times per
    replication, counts are per replication."""
    reps = max(len(tracer.rep_durations()), 1)
    self_s = tracer.self_times()
    counts = tracer.counts

    def per_rep_ms(name):
        return 1e3 * self_s[name] / reps

    durations = np.array(tracer.rep_durations()) * 1e3
    p50, p90 = np.percentile(durations, [50, 90])
    attempts = sum(1 for s in tracer.spans if s[0] == "models.simulate")
    trig_s = self_s["triggers.b"] + self_s["triggers.a"]
    msgs = counts["triggers.b_msgs"] + counts["triggers.a_msgs"]
    draws = counts["first_passage.draws"]
    # both phases replay the same blocks, so compare them pairwise, each
    # at nominal speed
    paired = [t / u for t, u in zip(tally.scaled_rates, untraced.scaled_rates)]
    failed = dict(tally.failures)
    known = ("HorizonExhausted", "NumericalBlowup")
    return {
        "models.simulate_ms": per_rep_ms("models.simulate"),
        "models.stats_ms": per_rep_ms("models.stats"),
        "models.steps": counts["models.steps"] / reps,
        "models.stats_mb": counts["models.stats_bytes"] / max(counts["models.stats_calls"], 1) / 2**20,
        "triggers.b_ms": per_rep_ms("triggers.b"),
        "triggers.a_ms": per_rep_ms("triggers.a"),
        "triggers.b_msgs": counts["triggers.b_msgs"] / reps,
        "triggers.a_msgs": counts["triggers.a_msgs"] / reps,
        "triggers.msgs_per_s": msgs / trig_s if trig_s > 0 else 0.0,
        "fusion.reconstruct_ms": per_rep_ms("fusion.reconstruct"),
        "fusion.estimate_ms": per_rep_ms("fusion.estimate"),
        "fusion.oracle_ms": per_rep_ms("fusion.oracle"),
        "experiments.rep_ms_p50": float(p50),
        "experiments.rep_ms_p90": float(p90),
        "experiments.reps_traced": float(durations.size),
        "experiments.self_ms": per_rep_ms(tr.REP),
        "experiments.attempts": attempts / reps,
        "experiments.useful_attempt_ratio": durations.size / attempts if attempts else 0.0,
        "experiments.aggregate_ms": per_rep_ms(tr.AGGREGATE),
        "experiments.audit_ms": per_rep_ms(tr.AUDIT),
        "experiments.failed.HorizonExhausted": failed.get("HorizonExhausted", 0) / reps,
        "experiments.failed.NumericalBlowup": failed.get("NumericalBlowup", 0) / reps,
        "experiments.failed.other": sum(v for k, v in failed.items() if k not in known) / reps,
        "first_passage.functionals_ms": per_rep_ms(tr.FUNCTIONALS),
        "first_passage.density_calls": counts["first_passage.density_calls"] / reps,
        "first_passage.mc_ms_per_kdraw": 1e3 * self_s["first_passage.mc"] / (draws / 1e3) if draws else 0.0,
        "first_passage.cdf_ms": per_rep_ms("first_passage.cdf"),
        "trace.overhead": 1.0 - statistics.median(paired),
    }
