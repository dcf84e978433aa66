"""Fusion-center reconstructions and estimators.

From the one-bit message log alone (plus model metadata shared with the
sensors) the fusion center rebuilds step-function approximations of the
sufficient statistics:

* ``tB_i`` jumps by +delta_up on a 1-bit and -delta_down on a 0-bit;
* ``tA_i`` equals n*c between the n-th and (n+1)-th timing message, and
  is taken to be the exact closed form whenever it is deterministic;
* ``tB`` sums the ``tB_i``; ``tA`` is the closed form when information
  is deterministic and otherwise sum_i (1 + d_i) tA_i, d_i the number of
  random cross-variations sensor i takes part in;
* ``checkA`` (independent Brownian sensors only) approximates the
  information using nothing but message times, as weight^2 times the
  elapsed time covered by completed excursions.

Estimators are ratio statistics.  Exact likelihood-based fusion would
need the conditional expectation of each sensor's integral given its
message count, which has no closed form; replacing that conditional
expectation by its unconditional value gives the timing-only ratio
``tB/checkA``, while replacing it with the running reconstruction gives
the fixed-horizon ratio ``tB/A``.  Both are implemented below, together
with the centralized oracles that see the full paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GammaTooSmall,
    HorizonExhausted,
    InconsistentLog,
    InvalidSpec,
    NoMessages,
    UnsupportedModel,
    ZeroInformation,
)
from .models import Model, ModelKind, PathStats
from .triggers import MessageLog

__all__ = [
    "CENTRALIZED_FIXED",
    "CENTRALIZED_SEQUENTIAL",
    "DECENTRALIZED_FIXED",
    "DECENTRALIZED_SEQUENTIAL",
    "TIMING_ONLY",
    "ESTIMATOR_NAMES",
    "EstimateResult",
    "FusionState",
    "count_budget",
    "reconstruct",
    "estimate_fixed",
    "estimate_sequential",
    "estimate_timing_only",
    "centralized_estimates",
]

CENTRALIZED_FIXED = "centralized_fixed"
CENTRALIZED_SEQUENTIAL = "centralized_sequential"
DECENTRALIZED_FIXED = "decentralized_fixed"
DECENTRALIZED_SEQUENTIAL = "decentralized_sequential"
TIMING_ONLY = "timing_only"
ESTIMATOR_NAMES = (
    CENTRALIZED_FIXED,
    CENTRALIZED_SEQUENTIAL,
    DECENTRALIZED_FIXED,
    DECENTRALIZED_SEQUENTIAL,
    TIMING_ONLY,
)

_SEQUENTIAL = {CENTRALIZED_SEQUENTIAL, DECENTRALIZED_SEQUENTIAL}


@dataclass(frozen=True)
class EstimateResult:
    estimator: str
    value: float
    stop_time: float | None
    info_used: float
    messages_used: int

    def __post_init__(self):
        if (self.stop_time is not None) != (self.estimator in _SEQUENTIAL):
            raise InvalidSpec("stop_time must be present exactly for sequential estimators")


def _step_eval(jump_times: np.ndarray, levels0: np.ndarray, t):
    """Right-continuous step function: levels0[k] holds on
    [jump_times[k-1], jump_times[k]) with levels0[0] before the first jump."""
    idx = np.searchsorted(jump_times, np.asarray(t, dtype=float), side="right")
    out = levels0[idx]
    return out if np.ndim(t) else float(out)


class FusionState:
    """Reconstruction of the sufficient statistics from a message log.

    Evaluation at any time t only uses messages stamped at or before t,
    matching the information actually available at the fusion center.
    """

    def __init__(self, log: MessageLog, model: Model):
        cfgs = log.cfgs
        if len(log.b) != model.K or len(log.a) != model.K or len(cfgs) != model.K:
            raise InconsistentLog("log and config must cover every sensor")
        for bm in log.b:
            if not (bm.time.size == bm.bit.size == bm.overshoot.size):
                raise InconsistentLog("bit stream length mismatch")
            if bm.time.size and np.any(np.diff(bm.time) <= 0):
                raise InconsistentLog("message times must be strictly increasing")
        self.model = model
        self.cfgs = cfgs
        self.horizon = log.horizon
        self.log = log
        self._b_times = [bm.time for bm in log.b]
        self._b_levels0 = []
        for i, bm in enumerate(log.b):
            jumps = np.where(bm.bit == 1, cfgs[i].delta_up, -cfgs[i].delta_down)
            self._b_levels0.append(np.concatenate(([0.0], np.cumsum(jumps))))
        self._a_times = [am.time for am in log.a]
        self.delta_total = float(sum(c.delta_max for c in cfgs))

    @property
    def c_total(self) -> float:
        """The count budget of the log's thresholds (``count_budget``)."""
        return count_budget(self.model, self.cfgs)

    # -- reconstructed statistics ---------------------------------------

    def tB_i(self, i: int, t):
        return _step_eval(self._b_times[i], self._b_levels0[i], t)

    def tB(self, t):
        total = self.tB_i(0, t)
        for i in range(1, self.model.K):
            total = total + self.tB_i(i, t)
        return total

    def tA_i(self, i: int, t):
        if self.model.deterministic_info:
            return self.model.det_info_i(i, t)
        c = self.cfgs[i].c
        counts = np.searchsorted(self._a_times[i], np.asarray(t, dtype=float), side="right")
        out = c * counts
        return out if np.ndim(t) else float(out)

    def tA(self, t):
        if self.model.deterministic_info:
            return self.model.det_info(t)
        total = (1 + self.model.d_counts[0]) * self.tA_i(0, t)
        for i in range(1, self.model.K):
            total = total + (1 + self.model.d_counts[i]) * self.tA_i(i, t)
        return total

    def checkA_i(self, i: int, t):
        """Timing-only information proxy for one sensor: weight^2 times
        the time covered by completed excursions up to t."""
        if self.model.kind is not ModelKind.BROWNIAN_CONSTANT:
            raise UnsupportedModel("timing-only information is defined for independent "
                                   "constant-weight Brownian sensors only")
        times0 = np.concatenate(([0.0], self._b_times[i]))
        last = _step_eval(self._b_times[i], times0, t)
        return self.model.x[i] ** 2 * last

    def checkA(self, t):
        total = self.checkA_i(0, t)
        for i in range(1, self.model.K):
            total = total + self.checkA_i(i, t)
        return total

    def message_counts(self, t: float):
        """The bit and timing messages stamped at or before t, each
        summed over the sensors."""
        b = sum(int(np.searchsorted(times, t, side="right")) for times in self._b_times)
        a = sum(int(np.searchsorted(times, t, side="right")) for times in self._a_times)
        return b, a


def count_budget(model: Model, cfgs) -> float:
    """The count budget sum_i (1 + d_i) c_i, the most the total
    information can exceed its reconstruction tA: 0 when no sensor sends
    timing messages, ``UnsupportedModel`` when the information is random
    but the thresholds carry no timing increment (a fixed-horizon log of
    a random-information model)."""
    if model.deterministic_info:
        return 0.0
    if any(cfg.c is None for cfg in cfgs):
        raise UnsupportedModel("information is random but the log has no timing increment c")
    return float(sum((1 + model.d_counts[i]) * cfgs[i].c for i in range(model.K)))


def reconstruct(log: MessageLog, model: Model) -> FusionState:
    """Build the fusion-center state from a message log and the
    thresholds stored with it."""
    return FusionState(log, model)


def estimate_fixed(state: FusionState, t: float) -> EstimateResult:
    """Fixed-horizon ratio estimator tB_t / A_t.

    Defined when the total information is deterministic, hence known to
    the fusion center without any timing messages.
    """
    model = state.model
    if not model.deterministic_info:
        raise UnsupportedModel("fixed-horizon estimator needs deterministic total information")
    if not t > 0:
        raise InvalidSpec("t must be positive")
    a_t = float(model.det_info(t))
    if a_t == 0.0:
        raise ZeroInformation("total information is zero at the requested time")
    value = float(state.tB(t)) / a_t
    return EstimateResult(
        estimator=DECENTRALIZED_FIXED,
        value=value,
        stop_time=None,
        info_used=a_t,
        messages_used=sum(state.message_counts(t)),
    )


def estimate_sequential(state: FusionState, gamma: float) -> EstimateResult:
    """Stop when the reconstructed information reaches gamma - c, then
    estimate with the reconstructed ratio tB / tA at the stop time.

    The reconstruction can change only at message times (plus a known
    deterministic part), so the reported stop time is the message time
    that pushed tA over the target; with deterministic information it is
    the exact threshold time.
    """
    model = state.model
    c = state.c_total
    if not gamma > c:
        raise GammaTooSmall(f"gamma={gamma} must exceed the count budget c={c}")
    target = gamma - c
    if model.deterministic_info:
        # tA == A known in closed form: invert on the horizon by bisection
        if float(model.det_info(state.horizon)) < target:
            raise HorizonExhausted("deterministic information never reaches the target; "
                                   "lengthen the horizon")
        lo, hi = 0.0, state.horizon
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            # no float between lo and hi: every later step keeps them
            # (A(lo) < target <= A(hi)), so the stop is already hi
            if not lo < mid < hi:
                break
            if float(model.det_info(mid)) >= target:
                hi = mid
            else:
                lo = mid
        stop = hi
        info = float(model.det_info(stop))
    else:
        cand = np.sort(np.concatenate([t for t in state._a_times]))
        if cand.size == 0:
            raise HorizonExhausted("no timing messages arrived; lengthen the horizon")
        vals = state.tA(cand)
        hit = np.flatnonzero(vals >= target)
        if hit.size == 0:
            raise HorizonExhausted("reconstructed information never reached the target; "
                                   "lengthen the horizon")
        stop = float(cand[hit[0]])
        info = float(vals[hit[0]])
    if info == 0.0:
        raise ZeroInformation("reconstructed information is zero at the stop time")
    value = float(state.tB(stop)) / info
    return EstimateResult(
        estimator=DECENTRALIZED_SEQUENTIAL,
        value=value,
        stop_time=stop,
        info_used=info,
        messages_used=sum(state.message_counts(stop)),
    )


def estimate_timing_only(state: FusionState, t: float) -> EstimateResult:
    """Ratio of the bit reconstruction to the timing-only information
    proxy, for independent constant-weight Brownian sensors."""
    if state.model.kind is not ModelKind.BROWNIAN_CONSTANT:
        raise UnsupportedModel("timing-only estimator is defined for independent "
                               "constant-weight Brownian sensors only")
    info = float(state.checkA(t))
    if info == 0.0:
        raise NoMessages("no messages before t; the timing-only estimator is undefined")
    value = float(state.tB(t)) / info
    return EstimateResult(
        estimator=TIMING_ONLY,
        value=value,
        stop_time=None,
        info_used=info,
        messages_used=sum(state.message_counts(t)),
    )


def centralized_estimates(stats: PathStats, t: float | None = None,
                          gamma: float | None = None):
    """Oracle estimators with full access to the paths.

    Returns a list with the fixed-horizon ratio B_t/A_t (when t is given)
    and the sequential pair (when gamma is given): stop at the first
    interpolated time the information reaches gamma, where it equals
    gamma exactly, and report the ratio there.
    """
    out = []
    if t is not None:
        if not 0 < t <= stats.grid.t_end * (1 + 1e-12):
            raise InvalidSpec("t must lie inside the simulated horizon")
        a_t = stats.value_at(stats.A, t)
        if a_t == 0.0:
            raise ZeroInformation("information is zero at the requested time")
        b_t = stats.value_at(stats.B, t)
        out.append(
            EstimateResult(
                estimator=CENTRALIZED_FIXED,
                value=b_t / a_t,
                stop_time=None,
                info_used=a_t,
                messages_used=0,
            )
        )
    if gamma is not None:
        if not gamma > 0:
            raise InvalidSpec("gamma must be positive")
        A = stats.A
        if A[-1] < gamma:
            raise HorizonExhausted("information never reaches gamma; lengthen the horizon")
        idx = int(np.searchsorted(A, gamma, side="left"))
        times = stats.grid.times()
        if idx == 0:
            stop = float(times[0])
            b_stop = float(stats.B[0])
        else:
            theta = (gamma - A[idx - 1]) / (A[idx] - A[idx - 1])
            stop = float(times[idx - 1] + theta * stats.grid.dt)
            b_stop = float(stats.B[idx - 1] + theta * (stats.B[idx] - stats.B[idx - 1]))
        out.append(
            EstimateResult(
                estimator=CENTRALIZED_SEQUENTIAL,
                value=b_stop / gamma,
                stop_time=stop,
                info_used=gamma,
                messages_used=0,
            )
        )
    return out
