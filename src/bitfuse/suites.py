"""Named acceptance suites.

Each suite pins a configuration and a set of quantitative checks, prints
one line per check, and reports overall pass/fail.  Thresholds follow
the acceptance contract; Monte Carlo comparisons that are only
asymptotically exact carry explicit desk-scale tolerances, and
"within MC error" comparisons use two combined standard errors.

Run from the command line with ``bitfuse suite --name <suite>`` (or
``all``), or through the test module that wraps every suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BitfuseError
from .experiments import (
    DiscreteSamplingRegime,
    ExperimentConfig,
    FixedHorizonRegime,
    PowerLawRule,
    SequentialRegime,
    audit_bounds,
    overshoot_study,
    run_experiment,
)
from .first_passage import (
    ExitProblem,
    delta_moment_asymptotics,
    exit_functionals,
    exit_time_cdf,
    joint_density,
    simulate_exit_times,
)
from .fusion import (
    CENTRALIZED_FIXED,
    CENTRALIZED_SEQUENTIAL,
    DECENTRALIZED_FIXED,
    DECENTRALIZED_SEQUENTIAL,
    TIMING_ONLY,
    reconstruct,
)
from .models import ModelKind, ModelSpec, TimeGrid, build_model, path_statistics, simulate_paths
from .reporting import density_csv_text, rows_csv_text
from .timefuncs import TimeFunction
from .triggers import TriggerConfig, extract_renewals, run_triggers

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_all_suites"]

MASTER_SEED = 20260810


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    lines: tuple


class _Checks:
    def __init__(self):
        self.lines = []
        self.passed = True

    def check(self, ok: bool, msg: str):
        ok = bool(ok)
        self.lines.append(f"[{'PASS' if ok else 'FAIL'}] {msg}")
        self.passed = self.passed and ok

    def note(self, msg: str):
        self.lines.append(f"       {msg}")

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(name=name, passed=self.passed, lines=tuple(self.lines))


def _var_se(v: float, n: int) -> float:
    # sampling sd of a variance estimate under approximate normality
    return v * math.sqrt(2.0 / max(n - 1, 1))


# ----------------------------------------------------------------------
# catalog configurations used by the pathwise-bound suite; the
# correlated entry uses a diagonal (time-varying) diffusion so that all
# cross terms are deterministic and the two-sided information bound
# applies.  A fully correlated variant is exercised in the unit tests
# against the one-sided bound only.  Each trigger carries c exactly
# when its model sends timing messages, so every sensor uses it as is.


def _bounds_cases():
    pwc = TimeFunction.piecewise_constant
    const = TimeFunction.constant
    poly = TimeFunction.polynomial
    return (
        (
            "brownian_constant",
            ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 2.0)),
            0.8,
            TimeGrid(40.0, 2000),
            TriggerConfig(delta_up=1.5, delta_down=1.0),
        ),
        (
            "gaussian_det_info",
            ModelSpec(
                kind=ModelKind.GAUSSIAN_DET_INFO,
                K=2,
                b=(poly((1.0, 0.02)), pwc((20.0,), (0.5, 1.5))),
                rho=(
                    (const(1.0), const(0.3)),
                    (const(0.3), const(1.0)),
                ),
            ),
            0.6,
            TimeGrid(40.0, 2000),
            TriggerConfig(delta_up=1.2, delta_down=1.2),
        ),
        (
            "ornstein_uhlenbeck",
            ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 0.5)),
            -0.4,
            TimeGrid(30.0, 3000),
            TriggerConfig(delta_up=1.2, delta_down=1.2, c=0.8),
        ),
        (
            "square_root_diffusion",
            ModelSpec(kind=ModelKind.SQUARE_ROOT_DIFFUSION, K=2, x=(1.0, 1.0), y0=(1.0, 1.0)),
            0.3,
            TimeGrid(10.0, 2000),
            TriggerConfig(delta_up=1.5, delta_down=1.5, c=1.0),
        ),
        (
            "correlated_diffusion",
            ModelSpec(
                kind=ModelKind.CORRELATED_DIFFUSION,
                K=2,
                sigma=(
                    (pwc((5.0,), (1.0, 1.5)), const(0.0)),
                    (const(0.0), const(1.0)),
                ),
            ),
            0.3,
            TimeGrid(8.0, 2000),
            TriggerConfig(delta_up=1.0, delta_down=1.0, c=0.8),
        ),
    )


def suite_bounds(threads: int = 1) -> SuiteResult:
    """Pathwise reconstruction bounds, continuous mode, 200 replications
    of each catalog model: |B - tB| <= total threshold and
    0 <= A - tA <= total count budget, with zero violations."""
    ck = _Checks()
    n_reps = 200
    for mi, (name, spec, lam, grid, tcfg) in enumerate(_bounds_cases()):
        model = build_model(spec)
        cfgs = (tcfg,) * model.K
        b_viol = a_up_viol = a_lo_viol = 0
        for rep in range(n_reps):
            seed = np.random.SeedSequence([MASTER_SEED, 1, mi, rep])
            paths = simulate_paths(model, lam, grid, seed)
            stats = path_statistics(paths, model)
            log = run_triggers(stats, model, cfgs)
            state = reconstruct(log, model)
            rep_audit = audit_bounds(stats, state, log)
            b_viol += 0 if rep_audit.b_ok else 1
            a_up_viol += 0 if rep_audit.a_upper_ok else 1
            a_lo_viol += 0 if rep_audit.a_lower_ok else 1
        ck.check(b_viol == 0, f"{name}: |B - tB| <= Delta_total on all {n_reps} paths")
        ck.check(a_up_viol == 0, f"{name}: A - tA <= c_total on all {n_reps} paths")
        ck.check(a_lo_viol == 0, f"{name}: A - tA >= 0 on all {n_reps} paths")
    return ck.result("bounds")


def suite_centralized_normality(threads: int = 1) -> SuiteResult:
    """Fixed-horizon oracle: standardized errors are standard normal
    (KS p > 0.01, variance within 1.00 +/- 0.05 at N=10^4)."""
    ck = _Checks()
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 1.0)),
        lambda_true=1.0,
        regime=FixedHorizonRegime(t_list=(100.0,), delta_rule=PowerLawRule(1.0, 0.25)),
        n_replications=10_000,
        master_seed=MASTER_SEED + 2,
        estimators=(CENTRALIZED_FIXED,),
        grid_steps_per_unit=10.0,
    )
    report = run_experiment(cfg, threads=threads)
    agg = report.aggregates[0]
    ck.note(f"KS D={agg.ks_D:.5f} p={agg.ks_p:.4f}, var(std err)={agg.std_variance:.4f}")
    ck.check(agg.n_failed == 0, "no failed replications")
    ck.check(agg.ks_p > 0.01, f"KS p-value {agg.ks_p:.4f} > 0.01")
    ck.check(abs(agg.std_variance - 1.0) <= 0.05, f"variance {agg.std_variance:.4f} in 1.00 +/- 0.05")
    return ck.result("centralized-normality")


@lru_cache(maxsize=1)
def _fixed_horizon_report(threads: int):
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 1.0)),
        lambda_true=1.0,
        regime=FixedHorizonRegime(
            t_list=(100.0, 1000.0, 10_000.0), delta_rule=PowerLawRule(1.0, 0.25)
        ),
        n_replications=1000,
        master_seed=MASTER_SEED + 3,
        estimators=(DECENTRALIZED_FIXED, TIMING_ONLY),
        grid_steps_per_unit=20.0,
    )
    return run_experiment(cfg, threads=threads)


def suite_fixed_optimality(threads: int = 1) -> SuiteResult:
    """Fixed-horizon bit estimator with per-sensor threshold t^0.25:
    standardized variance reaches 1.00 +/- 0.10 at t=10^4 and decreases
    in t within MC error."""
    ck = _Checks()
    report = _fixed_horizon_report(threads)
    aggs = [a for a in report.aggregates if a.estimator == DECENTRALIZED_FIXED]
    aggs.sort(key=lambda a: a.point)
    n = report.config.n_replications
    for a in aggs:
        ck.note(f"t={a.point:g}: var(std err)={a.std_variance:.4f} (n_ok={a.n_ok})")
    ck.check(all(a.n_failed == 0 for a in aggs), "no failed replications")
    final = aggs[-1]
    ck.check(
        abs(final.mean - 1.0) < 0.01,
        f"|mean error| = {abs(final.mean - 1.0):.5f} < 0.01 at t=1e4",
    )
    ck.check(final.ks_p > 0.01, f"standardized errors pass KS at t=1e4 (p={final.ks_p:.4f})")
    ck.check(
        abs(final.std_variance - 1.0) <= 0.10,
        f"variance {final.std_variance:.4f} at t=1e4 in 1.00 +/- 0.10",
    )
    for a1, a2 in zip(aggs, aggs[1:]):
        slack = 2.0 * math.hypot(_var_se(a1.std_variance, n), _var_se(a2.std_variance, n))
        ck.check(
            a2.std_variance <= a1.std_variance + slack,
            f"variance decreasing t={a1.point:g}->{a2.point:g} within MC error "
            f"({a1.std_variance:.4f} -> {a2.std_variance:.4f}, slack {slack:.4f})",
        )
    return ck.result("fixed-optimality")


def suite_timing_only(threads: int = 1) -> SuiteResult:
    """Timing-only estimator at t=10^4: bias below 0.02 and standardized
    variance within 1.00 +/- 0.15."""
    ck = _Checks()
    report = _fixed_horizon_report(threads)
    agg = next(
        a for a in report.aggregates if a.estimator == TIMING_ONLY and a.point == 10_000.0
    )
    ck.note(f"mean={agg.mean:.5f}, var(std err)={agg.std_variance:.4f}")
    ck.check(agg.n_failed == 0, "no failed replications")
    ck.check(abs(agg.mean - 1.0) < 0.02, f"|mean - 1| = {abs(agg.mean - 1.0):.4f} < 0.02")
    ck.check(
        abs(agg.std_variance - 1.0) <= 0.15,
        f"variance {agg.std_variance:.4f} in 1.00 +/- 0.15",
    )
    return ck.result("timing-only")


def suite_sequential(threads: int = 1) -> SuiteResult:
    """Sequential scheme on two mean-field-free sensors with random
    information: information sandwich gamma - c <= A_stop <= gamma holds
    pathwise, the decentralized stop never exceeds the centralized one,
    and sqrt(gamma)-standardized errors have variance 1.00 +/- 0.10."""
    ck = _Checks()
    gamma = 10_000.0
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 1.0)),
        lambda_true=0.5,
        regime=SequentialRegime(
            gamma_list=(gamma,),
            c_rule=PowerLawRule(0.5, 0.25),
            delta_rule=PowerLawRule(0.5, 0.25),
            initial_horizon=8.5,
        ),
        n_replications=1000,
        master_seed=MASTER_SEED + 4,
        estimators=(DECENTRALIZED_SEQUENTIAL, CENTRALIZED_SEQUENTIAL),
        grid_steps_per_unit=1000.0,
    )
    report = run_experiment(cfg, threads=threads)
    dec = [r for r in report.rows if r.estimator == DECENTRALIZED_SEQUENTIAL]
    cen = [r for r in report.rows if r.estimator == CENTRALIZED_SEQUENTIAL]
    ck.check(all(r.ok for r in dec) and all(r.ok for r in cen), "no failed replications")
    c_total = 2 * 0.5 * gamma**0.25
    tol = 1e-9 * gamma
    sandwich = sum(
        1 for r in dec if not (gamma - c_total - tol <= r.a_at_stop <= gamma + tol)
    )
    ck.check(sandwich == 0, f"gamma - c <= A_stop <= gamma pathwise (violations: {sandwich})")
    order = sum(
        1
        for rd, rc in zip(dec, cen)
        if rd.ok and rc.ok and rd.stop_time > rc.stop_time + 1e-9 * rc.stop_time
    )
    ck.check(order == 0, f"decentralized stop <= centralized stop pathwise (violations: {order})")
    a_stop = np.array([r.a_at_stop for r in dec])
    se_a = a_stop.std(ddof=1) / math.sqrt(a_stop.size)
    ck.check(
        a_stop.mean() - gamma <= 3 * se_a,
        f"mean information at the stop does not overshoot the target "
        f"(E[A_stop] - gamma = {a_stop.mean() - gamma:.3f})",
    )
    agg = next(a for a in report.aggregates if a.estimator == DECENTRALIZED_SEQUENTIAL)
    ck.note(f"var(std err)={agg.std_variance:.4f}, mean stop={np.mean([r.stop_time for r in dec]):.2f}")
    ck.check(
        abs(agg.std_variance - 1.0) <= 0.10,
        f"variance {agg.std_variance:.4f} in 1.00 +/- 0.10",
    )
    return ck.result("sequential")


def suite_first_passage(threads: int = 1) -> SuiteResult:
    """Exit-time density pair: total mass 1 within 1e-5 across the
    parameter sweep, and KS agreement between 10^5 simulated exit times
    and the integrated density."""
    # imported here, not at module level: only this suite runs quad
    from scipy import integrate

    ck = _Checks()
    worst = 0.0
    for lam in (0.0, 1.0, 2.0):
        for delta in (1.0, 5.0):
            for x in (1.0, 2.0):
                p = ExitProblem(delta=delta, x=x, lam=lam)
                total, _ = integrate.quad(
                    lambda t: float(sum(joint_density(p, t))),
                    0.0,
                    np.inf,
                    epsabs=1e-12,
                    epsrel=1e-10,
                    limit=400,
                )
                worst = max(worst, abs(total - 1.0))
    ck.check(worst <= 1e-5, f"density mass = 1 within 1e-5 over the sweep (worst |err| {worst:.2e})")

    p = ExitProblem(delta=1.0, x=1.0, lam=1.0)
    n = 100_000
    times, _bits = simulate_exit_times(p, n, dt=1e-3, seed=MASTER_SEED + 6)
    xs = np.sort(times)
    F = exit_time_cdf(p, xs)
    D = float(max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(0, n) / n)))
    crit = 0.00408 * math.sqrt(2.0)
    ck.check(D < crit, f"KS distance {D:.5f} below the 1% critical value {crit:.5f}")
    return ck.result("first-passage")


def suite_moments(threads: int = 1) -> SuiteResult:
    """Renewal moments at a wide threshold: Monte Carlo mean and variance
    of the inter-message time within 5% and 15% of the leading-order
    values delta/(|lam| x^2) and delta/(|lam|^3 x^4), 10^4 renewals."""
    ck = _Checks()
    delta, lam = 20.0, 1.0
    model = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    grid = TimeGrid(2700.0, 540_000)
    cfgs = (TriggerConfig(delta_up=delta, delta_down=delta),)
    deltas = []
    rep = 0
    while len(deltas) < 10_000:
        seed = np.random.SeedSequence([MASTER_SEED, 7, rep])
        stats = path_statistics(simulate_paths(model, lam, grid, seed), model)
        log = run_triggers(stats, model, cfgs)
        _, d, _bits = extract_renewals(log, 0, grid.t_end)
        deltas.extend(d.tolist())
        rep += 1
    d = np.array(deltas[:10_000])
    mean_ref, var_ref = delta_moment_asymptotics(ExitProblem(delta=delta, x=1.0, lam=lam))
    ck.note(f"mean={d.mean():.3f} (ref {mean_ref:g}), var={d.var(ddof=1):.3f} (ref {var_ref:g})")
    ck.check(abs(d.mean() - mean_ref) <= 0.05 * mean_ref, "mean within 5% of leading order")
    ck.check(abs(d.var(ddof=1) - var_ref) <= 0.15 * var_ref, "variance within 15% of leading order")
    return ck.result("moments")


def suite_comm_rate(threads: int = 1) -> SuiteResult:
    """Message-rate bound: empirical E[m_t] <= t/E[delta] +
    Var[delta]/E[delta]^2 + 1 (+3 standard errors) at t=10^3 for
    thresholds 5, 10, 20, with quadrature supplying the exact moments."""
    ck = _Checks()
    t_end, lam = 1000.0, 1.0
    model = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    grid = TimeGrid(t_end, 50_000)
    n_reps = 200
    for di, delta in enumerate((5.0, 10.0, 20.0)):
        _, mean_d, var_d = exit_functionals(ExitProblem(delta=delta, x=1.0, lam=lam))
        cfgs = (TriggerConfig(delta_up=delta, delta_down=delta),)
        counts = []
        for rep in range(n_reps):
            seed = np.random.SeedSequence([MASTER_SEED, 8, di, rep])
            stats = path_statistics(simulate_paths(model, lam, grid, seed), model)
            log = run_triggers(stats, model, cfgs)
            counts.append(len(log.b[0]))
        counts = np.array(counts, dtype=float)
        bound = t_end / mean_d + var_d / mean_d**2 + 1.0
        se = counts.std(ddof=1) / math.sqrt(n_reps)
        ck.note(f"delta={delta:g}: E[m]={counts.mean():.2f}, bound={bound:.2f}, se={se:.3f}")
        ck.check(
            counts.mean() <= bound + 3 * se,
            f"delta={delta:g}: E[m_t] within the renewal bound",
        )
    return ck.result("comm-rate")


def suite_overshoot(threads: int = 1) -> SuiteResult:
    """Discrete sampling: mean overshoot nonincreasing in h, its
    h^(1/3)-normalization bounded (max/min < 3), and the bit estimator's
    bias magnitude shrinking monotonically as h -> 0 within MC error."""
    ck = _Checks()
    cfg = ExperimentConfig(
        model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)),
        lambda_true=1.0,
        regime=DiscreteSamplingRegime(
            t=2000.0,
            delta_rule=PowerLawRule(5.0, 0.0),
            h_list=(0.1, 0.05, 0.025, 0.0125),
        ),
        n_replications=800,
        master_seed=MASTER_SEED + 9,
        estimators=(DECENTRALIZED_FIXED,),
        grid_steps_per_unit=80.0,
    )
    rows, report = overshoot_study(cfg, threads=threads)
    for r in rows:
        ck.note(
            f"h={r.h:g}: mean_eta={r.mean_eta:.4f}, eta/h^(1/3)={r.eta_norm:.4f}, "
            f"bias={r.bias:.5f} (se {r.bias_se:.5f})"
        )
    for r1, r2 in zip(rows, rows[1:]):
        ck.check(
            r2.mean_eta <= r1.mean_eta * 1.02,
            f"mean overshoot nonincreasing h={r1.h:g}->{r2.h:g}",
        )
    norms = [r.eta_norm for r in rows]
    ck.check(max(norms) / min(norms) < 3.0, "eta / h^(1/3) bounded (max/min < 3)")
    for r1, r2 in zip(rows, rows[1:]):
        slack = 2.0 * math.hypot(r1.bias_se, r2.bias_se)
        ck.check(
            abs(r2.bias) <= abs(r1.bias) + slack,
            f"|bias| shrinking h={r1.h:g}->{r2.h:g} within MC error",
        )
    return ck.result("overshoot")


def suite_determinism(threads: int = 1) -> SuiteResult:
    """Re-running any suite configuration with the same master seed
    produces byte-identical CSV output."""
    ck = _Checks()

    def small_report():
        cfg = ExperimentConfig(
            model=ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 2.0)),
            lambda_true=0.7,
            regime=FixedHorizonRegime(t_list=(50.0,), delta_rule=PowerLawRule(2.0, 0.0)),
            n_replications=8,
            master_seed=MASTER_SEED + 10,
            estimators=(DECENTRALIZED_FIXED, CENTRALIZED_FIXED, TIMING_ONLY),
            grid_steps_per_unit=50.0,
        )
        return rows_csv_text(run_experiment(cfg))

    ck.check(small_report() == small_report(), "experiment rows CSV byte-identical on re-run")

    def dens():
        p = ExitProblem(delta=1.0, x=1.0, lam=0.5)
        ts = np.linspace(0.05, 5.0, 100)
        up, dn = joint_density(p, ts)
        return density_csv_text(ts, up, dn)

    ck.check(dens() == dens(), "density CSV byte-identical on re-run")
    return ck.result("determinism")


SUITES = {
    "bounds": suite_bounds,
    "centralized-normality": suite_centralized_normality,
    "fixed-optimality": suite_fixed_optimality,
    "sequential": suite_sequential,
    "timing-only": suite_timing_only,
    "first-passage": suite_first_passage,
    "moments": suite_moments,
    "comm-rate": suite_comm_rate,
    "overshoot": suite_overshoot,
    "determinism": suite_determinism,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, threads: int = 1) -> SuiteResult:
    """Run one named suite.  ``threads`` worker processes run the
    replications of centralized-normality, fixed-optimality, timing-only,
    sequential and overshoot; the other suites run serially."""
    if name not in SUITES:
        raise BitfuseError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name](threads=threads)


def run_all_suites(threads: int = 1):
    return [run_suite(name, threads=threads) for name in SUITE_NAMES]
