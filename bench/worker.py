"""One workload in a fresh process, started by ``run.py``.

Times its own set-up (import bitfuse with numpy and scipy, build the
config, one untimed warm-up replication), then runs the untraced timed
phase and, with ``--trace 1``, the traced phase.  Prints one JSON object
as its last line of standard output.
"""

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=math.inf,
                    help="wall seconds after which the traced phase stops early")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports bitfuse, numpy and scipy

    workloads.check_source(SRC)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warmup()
    out = {"setup_s": time.perf_counter() - t0}
    if args.setup_only:
        print(json.dumps(out))
        return

    import numpy
    import scipy

    untraced = workloads.Tally()
    wl.run(untraced, args.seconds)
    wl.finish(untraced)
    out.update(
        untraced=_tally_dict(untraced),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        output_sha256=wl.output_sha256,
        ks=wl.ks,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        traced = workloads.Tally()
        budget = args.budget - (time.perf_counter() - t0)
        with tracer.installed(wl.calls):
            wl.run(traced, args.seconds, tracer=tracer, budget=budget)
        out.update(
            traced=_tally_dict(traced),
            per_layer=workloads.layer_metrics(tracer, traced, untraced),
            missing_layers=sorted(tr.expected_layers(wl.calls) - tracer.layers()),
            spans=tracer.dump(),
        )
    print(json.dumps(out))


def _tally_dict(t):
    return {
        "reps": t.reps,
        "attempted": t.attempted,
        "failed": t.failed,
        "failures": dict(t.failures),
        "violations": t.violations,
        "violation_messages": t.messages,
        "elapsed_s": t.elapsed,
        "reps_per_s": t.reps_per_s,
        "wall_reps_per_s": t.wall_reps_per_s,
        "block_rates": t.block_rates,
        "slowdowns": t.slowdowns,
    }


if __name__ == "__main__":
    main()
