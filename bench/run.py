"""Benchmark of bitfuse replication throughput.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

``all`` (the default) runs the workloads of ``BENCHMARK.json``; any
other workload of ``workloads.py`` runs when named.  Each workload is a
closed loop with one client: replications run one after another with
``threads=1`` in a fresh child process, with the BLAS/OpenMP thread
pools pinned to one thread, an address-space limit and a wall-clock
limit.  Set-up is timed in ``SETUP_SAMPLES`` separate processes, before
and after the timed run, and reported as their median.  Times are scaled
to nominal speed by a reference kernel timed between the blocks of the
timed run.  See ``bench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The exit status is 0 only when every correctness
gate passed; a workload whose process fails prints no result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 7
SETUP_RESERVE_S = 5.0  # wall time kept for each set-up after the timed run
WALL_LIMIT_S = 170.0  # one workload, set-ups included, ends within this
AS_LIMIT_BYTES = 2 * 2**30  # address-space limit of every child process
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class WorkloadFailed(Exception):
    """The workload's process timed out, ran out of memory or crashed."""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


def run_child(argv, deadline):
    """Run ``worker.py`` with the guards and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkloadFailed(f"wall-clock limit of {WALL_LIMIT_S:g} s reached")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, **BLAS_PIN),
        cwd=ROOT,
        preexec_fn=_limit_address_space,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkloadFailed(f"wall-clock limit of {WALL_LIMIT_S:g} s exceeded") from None
    if proc.returncode != 0:
        lines = err.decode(errors="replace").strip().splitlines()
        raise WorkloadFailed(f"exit status {proc.returncode}: {lines[-1] if lines else ''}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _caches():
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def environment(seed, versions):
    return {
        "seed": seed,
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas_pin": BLAS_PIN,
    }


def run_workload(name, seed, seconds, trace, spec):
    """Set up ``SETUP_SAMPLES`` times, run the workload, and return
    ``(result line, record)``."""
    deadline = time.monotonic() + WALL_LIMIT_S
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]

    def setup():
        return run_child(argv + ["--setup-only"], deadline)["setup_s"]

    # set-ups before and after the timed run, so that a slow spell of a few
    # seconds covers few of them
    after = (SETUP_SAMPLES - 1) // 2
    setups = [setup() for _ in range(SETUP_SAMPLES - 1 - after)]
    budget = deadline - time.monotonic() - 10.0 - SETUP_RESERVE_S * after
    res = run_child(argv + ["--trace", str(trace), "--budget", str(budget)], deadline)
    setups.append(res["setup_s"])
    setups += [setup() for _ in range(after)]

    untraced = res["untraced"]
    phases = [untraced]
    correct = untraced["violations"] == 0
    if trace:
        phases.append(res["traced"])
        correct = correct and res["traced"]["violations"] == 0 and not res["missing_layers"]
        values = res["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {
            "reps_per_s": untraced["reps_per_s"],
            # at nominal speed, by the run's median reference slowdown
            "setup_s": statistics.median(setups) / statistics.median(untraced["slowdowns"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - untraced["failed"] / untraced["attempted"],
        }
        wanted = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in wanted):
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    line = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": name,
        "env": environment(seed, res["versions"]),
        "result": line,
        "failed_frac": untraced["failed"] / untraced["attempted"],
        "setup_wall_samples_s": setups,
        "output_sha256": res["output_sha256"],
        "ks": res["ks"],
        "untraced": untraced,
        "traced": res.get("traced"),
        "missing_layers": res.get("missing_layers"),
        "spans": res.get("spans"),
    }
    return line, record


def report(name, line, record):
    """Human-readable summary of one workload, then the environment."""
    u = record["untraced"]
    print(f"== {name} (seed {record['env']['seed']}): {u['reps']} replications, "
          f"{u['attempted']} rows or batches in {u['elapsed_s']:.2f} timed s, threads=1")
    for key, m in line["metrics"].items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    if "reps_per_s" in line["metrics"]:
        print(f"  {'failed_frac':40s} {record['failed_frac']:.6g} ratio"
              f"  ({u['failed']} of {u['attempted']}: {u['failures'] or 'none'})")
        print(f"  {'wall-clock reps_per_s (unscaled)':40s} {u['wall_reps_per_s']:.6g} 1/s")
        print(f"  {'set-up wall-clock samples':40s} "
              + ", ".join(f"{s:.3f}" for s in record["setup_wall_samples_s"]) + " s")
    for phase in ("untraced", "traced"):
        t = record[phase]
        if t is not None:
            verdict = "pass" if t["violations"] == 0 else f"FAIL ({t['violations']} violations)"
            print(f"  gates, {phase} phase: {verdict}")
            for msg in t["violation_messages"]:
                print(f"    {msg}")
    if record["missing_layers"]:
        print(f"  FAIL: no spans from layers {record['missing_layers']}")
    ks = record["ks"]
    if ks:
        rel = "<" if ks["D"] < ks["crit_1pct"] else ">="
        print(f"  pooled KS: D={ks['D']:.5f} {rel} 1% critical value {ks['crit_1pct']:.5f} "
              f"(n={ks['n']}, p={ks['p']:.3f})")
    print(f"  output sha256: {record['output_sha256']}")
    print("env " + json.dumps(record["env"]))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    # the run length is run_seconds of BENCHMARK.json; the flag is accepted
    # because callers pass it, and refused when it names another length
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"], help=argparse.SUPPRESS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    if args.seconds != seconds:
        ap.error(f"--seconds must be run_seconds of BENCHMARK.json ({seconds})")

    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    lines, broken = {}, {}
    OUT.mkdir(exist_ok=True)
    for name in names:
        try:
            line, record = run_workload(name, args.seed, seconds, args.trace, spec)
        except WorkloadFailed as exc:
            broken[name] = str(exc)
            print(f"== {name}: FAILED, {exc}", file=sys.stderr)
            continue
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
        report(name, line, record)
        lines[name] = line
        if len(names) == 1:
            print(json.dumps(line))
    ok = not broken and all(l["correct"] for l in lines.values())
    if len(names) > 1:
        print(f"{len(lines)} of {len(names)} workloads ran; failed: {broken or 'none'}")
        print(json.dumps({
            "correct": ok,
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()) + len(broken),
            "metrics": {f"{n}.{k}": m for n, l in lines.items() for k, m in l["metrics"].items()},
        }))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
