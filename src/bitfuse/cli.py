"""Command-line front end.

Subcommands: ``simulate`` (one replication's paths and messages),
``estimate`` (one replication's estimator rows), ``experiment`` (full
replication study), ``density`` (exit-time density table), ``suite``
(named acceptance suites).  Exit codes: 0 success, 1 validation or
usage error, 2 runtime failure, 3 acceptance-suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash, parse_config
from .errors import BitfuseError, InvalidSpec, ParseError, ValidationError
from .experiments import run_experiment, run_replication
from .first_passage import ExitProblem, joint_density
from .models import build_model, path_statistics, simulate_paths
from .reporting import (
    density_csv_text,
    estimates_csv_text,
    messages_csv_text,
    paths_csv_text,
    rows_csv_text,
    summary_json_text,
)
from .suites import SUITE_NAMES, run_all_suites, run_suite
from .triggers import run_triggers

THREADS_ENV = "BITFUSE_THREADS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bitfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="path to a JSON run file")
        p.add_argument("--seed", type=int, default=None, help="override the file's master_seed")
        p.add_argument("--out", default=None, help="override the file's output directory")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker processes (default 1; env {THREADS_ENV} overrides)")

    add_common(sub.add_parser("simulate", help="write one replication's paths and messages"))
    add_common(sub.add_parser("estimate", help="write one replication's estimator rows"))
    add_common(sub.add_parser("experiment", help="run the full replication study"))

    dens = sub.add_parser("density", help="tabulate the exit-time density pair")
    dens.add_argument("--lambda", dest="lam", type=float, required=True)
    dens.add_argument("--delta", type=float, required=True)
    dens.add_argument("--x", type=float, default=1.0)
    dens.add_argument("--t-min", type=float, default=0.01)
    dens.add_argument("--t-max", type=float, default=10.0)
    dens.add_argument("--n", type=int, default=200)
    dens.add_argument("--out", default=".")

    st = sub.add_parser("suite", help="run named acceptance suites")
    st.add_argument("--name", required=True, choices=SUITE_NAMES + ("all",))
    st.add_argument("--out", default=None)
    st.add_argument("--threads", type=int, default=None)
    return parser


def _threads(args) -> int:
    """The worker count asked for; ``run_experiment`` bounds the pool."""
    if getattr(args, "threads", None):
        return max(1, args.threads)
    env = os.environ.get(THREADS_ENV)
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise InvalidSpec(f"{THREADS_ENV} must be an integer, got {env!r}") from None


def _load_config(args) -> RunConfig:
    text = Path(args.config).read_text()
    cfg = parse_config(text)
    if args.seed is not None:
        cfg = replace(cfg, experiment=replace(cfg.experiment, master_seed=args.seed))
    if args.out is not None:
        cfg = replace(cfg, output=args.out)
    return cfg


def _outdir(cfg_or_path) -> Path:
    out = Path(cfg_or_path.output if isinstance(cfg_or_path, RunConfig) else cfg_or_path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    exp = cfg.experiment
    model = build_model(exp.model)
    point = exp.regime.points()[0]
    grid = exp.grid_for(exp.regime.horizon(point))
    paths = simulate_paths(model, exp.lambda_true, grid, exp.replication_seed(0, 0))
    stats = path_statistics(paths, model)
    log = run_triggers(stats, model, exp.regime.trigger_configs(model, point))
    (out / "paths.csv").write_text(paths_csv_text(paths, stats))
    (out / "messages.csv").write_text(messages_csv_text(log))
    print(f"wrote {out / 'paths.csv'} and {out / 'messages.csv'}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    rows = run_replication(cfg.experiment, point_index=0, rep=0)
    point = cfg.experiment.regime.points()[0]
    (out / "estimates.csv").write_text(estimates_csv_text(rows, replication=0, point=point))
    print(f"wrote {out / 'estimates.csv'}")
    # a failed row holds nan values; its cause goes to stderr
    failed = [r for r in rows if not r.ok]
    for r in failed:
        print(f"runtime error: {r.estimator}: {r.fail_reason}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_experiment(args) -> int:
    threads = _threads(args)
    cfg = _load_config(args)
    out = _outdir(cfg)
    digest = config_hash(cfg)
    report = run_experiment(cfg.experiment, threads=threads)
    seed = cfg.experiment.master_seed
    rows_path = out / f"rows_{digest}_{seed}.csv"
    summary_path = out / f"summary_{digest}_{seed}.json"
    rows_path.write_text(rows_csv_text(report))
    summary_path.write_text(summary_json_text(report, config_hash=digest))
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {rows_path} and {summary_path}")
    return 0


def _cmd_density(args) -> int:
    p = ExitProblem(delta=args.delta, x=args.x, lam=args.lam)
    ts = np.linspace(args.t_min, args.t_max, args.n)
    up, dn = joint_density(p, ts)
    out = _outdir(args.out)
    (out / "density.csv").write_text(density_csv_text(ts, up, dn))
    print(f"wrote {out / 'density.csv'}")
    return 0


def _cmd_suite(args) -> int:
    threads = _threads(args)
    results = run_all_suites(threads) if args.name == "all" else [run_suite(args.name, threads)]
    all_ok = True
    report_lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        report_lines.append(f"== suite {res.name}: {status}")
        report_lines.extend(res.lines)
        all_ok = all_ok and res.passed
    text = "\n".join(report_lines) + "\n"
    print(text, end="")
    if args.out is not None:
        out = _outdir(args.out)
        (out / "suite_report.txt").write_text(text)
    return 0 if all_ok else 3


_DISPATCH = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "experiment": _cmd_experiment,
    "density": _cmd_density,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the validation code,
        # keep 0 for --help
        return 0 if exc.code == 0 else 1
    try:
        return _DISPATCH[args.command](args)
    except (ParseError, ValidationError, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BitfuseError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
