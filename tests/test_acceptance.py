"""Acceptance battery: one test per criterion, each wrapping a named
suite and printing one pass/fail line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines, or
equivalently ``bitfuse suite --name all`` from the command line.
"""

import os

import pytest

from bitfuse.suites import run_suite

# rows do not depend on the worker count (run_experiment sorts them by key)
THREADS = len(os.sched_getaffinity(0))

CRITERIA = (
    ("criterion-01 pathwise reconstruction bounds", "bounds"),
    ("criterion-02 centralized normality", "centralized-normality"),
    ("criterion-03 decentralized fixed-horizon optimality", "fixed-optimality"),
    ("criterion-04 sequential scheme", "sequential"),
    ("criterion-05 timing-only estimator", "timing-only"),
    ("criterion-06 first-passage numerics", "first-passage"),
    ("criterion-07 exit-time moment asymptotics", "moments"),
    ("criterion-08 communication-rate bounds", "comm-rate"),
    ("criterion-09 overshoot scaling under discrete sampling", "overshoot"),
    ("criterion-10 determinism", "determinism"),
)


@pytest.mark.parametrize("label,suite", CRITERIA, ids=[c[0].split()[0] for c in CRITERIA])
def test_acceptance_criterion(label, suite):
    result = run_suite(suite, threads=THREADS)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status} {label}")
    for line in result.lines:
        print(f"    {line}")
    assert result.passed, f"{label}: see printed check lines"
