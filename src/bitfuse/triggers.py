"""Per-sensor event-triggered communication.

A sensor watches its running integral statistic and emits a one-bit
message every time the statistic leaves the band (ref - delta_down,
ref + delta_up) around a moving reference, and (when its information
process is random) a timing-only message every time that information
gains a fixed amount c.

Two observation modes are supported.  In continuous mode the crossing is
placed on the band boundary by linear interpolation and the next
excursion restarts from the boundary value exactly, so the fusion-side
reconstruction matches the statistic at every trigger time and the
reconstruction gap stays below max(delta_up, delta_down) at every grid
point by construction.  Continuous mode finds its messages a leg at a
time: a leg is a run of same-direction crossings, located with a running
maximum (or minimum) of the path and one search for all of the leg's
boundaries.  Each leg starts at the exit that ends the leg before, so
the cost is O(n) array passes plus one leg per change of direction, and
a path that reverses at nearly every message pays a leg per message.  In
discrete mode the statistic is inspected only every h time units, the
message is stamped at the sampling instant, the reference jumps to the
sampled value, and the unobserved overshoot is recorded for diagnostics.

A bit trigger can stop at a grid step: its messages are then the whole
path's messages up to that step, so a caller that reads only the
messages before some time scans only the prefix that holds them.  A
continuous bit trigger or a timing trigger that would put more than
``MAX_MESSAGES`` messages in one sensor's log raises ``MessageFlood``
instead of allocating them; a discrete one sends at most one message per
sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, MessageFlood, NonMonotoneInput, OutOfHorizon
from .models import Model, PathStats, TimeGrid

__all__ = [
    "TriggerMode",
    "TriggerConfig",
    "BMessages",
    "AMessages",
    "MessageLog",
    "run_b_trigger",
    "run_a_trigger",
    "run_triggers",
    "extract_renewals",
]

CONTINUOUS = "continuous"
DISCRETE = "discrete"
TriggerMode = (CONTINUOUS, DISCRETE)


@dataclass(frozen=True)
class TriggerConfig:
    """Thresholds and observation mode for one sensor.

    ``c`` is None exactly when the sensor sends no timing messages
    (its information process, or the total one, is deterministic).
    """

    delta_up: float
    delta_down: float
    c: float | None = None
    mode: str = CONTINUOUS
    h: float | None = None

    def __post_init__(self):
        if not (0 < self.delta_up < math.inf and 0 < self.delta_down < math.inf):
            raise InvalidSpec("trigger thresholds must be finite and strictly positive")
        if self.c is not None and not 0 < self.c < math.inf:
            raise InvalidSpec("information increment c must be finite and positive, or None")
        if self.mode not in TriggerMode:
            raise InvalidSpec(f"unknown trigger mode {self.mode!r}")
        if self.mode == DISCRETE and (self.h is None or not 0 < self.h < math.inf):
            raise InvalidSpec("discrete mode requires a finite positive sampling period h")
        if self.mode == CONTINUOUS and self.h is not None:
            raise InvalidSpec("sampling period h is meaningful only in discrete mode")

    @property
    def delta_max(self) -> float:
        return max(self.delta_up, self.delta_down)


@dataclass(frozen=True)
class BMessages:
    """One sensor's bit messages as parallel arrays.

    ``pending`` is the residual excursion at the end of the horizon
    (diagnostic only, never transmitted).
    """

    time: np.ndarray
    bit: np.ndarray
    overshoot: np.ndarray
    pending: float = 0.0

    def __len__(self):
        return self.time.size


@dataclass(frozen=True)
class AMessages:
    """One sensor's timing messages (message n fires when the
    information process first reaches n*c)."""

    time: np.ndarray

    def __len__(self):
        return self.time.size


def _empty_a() -> AMessages:
    return AMessages(time=np.empty(0))


@dataclass(frozen=True)
class MessageLog:
    """All messages of one replication plus the thresholds that produced
    them (thresholds are known on both sides of the channel)."""

    b: tuple
    a: tuple
    cfgs: tuple
    horizon: float

    @property
    def K(self) -> int:
        return len(self.b)


_WINDOW = 256  # first scan window, in grid steps
_MAX_WINDOW = 1 << 20
# most bit or timing messages one sensor's log may hold: 2^22 messages
# take 71 MB as a bit log (time, bit and overshoot) and 34 MB as a timing
# log, so eight sensors' logs fit well inside 2 GiB
MAX_MESSAGES = 1 << 22


def _bit_flood():
    return MessageFlood(f"the bit trigger would send more than {MAX_MESSAGES} messages "
                        "from one sensor")


def _first_exit_index(B: np.ndarray, start: int, hi: float, lo: float, window: int):
    """First index >= start where B leaves (lo, hi), scanning in growing
    chunks so the cost stays linear in the path length."""
    n = B.size
    w = window
    while start < n:
        stop = min(n, start + w)
        seg = B[start:stop]
        mask = (seg >= hi) | (seg <= lo)
        if mask.any():
            return start + int(np.argmax(mask))
        start = stop
        w = min(2 * w, _MAX_WINDOW)
    return None


def run_b_trigger(B_path: np.ndarray, grid: TimeGrid, cfg: TriggerConfig,
                  max_step: int | None = None) -> BMessages:
    """Run the bit trigger over one sensor's integral statistic.

    Continuous mode: a crossing is detected at the first grid step where
    the statistic leaves the band around the reference (boundary values
    count as crossings); the message time is set by linear interpolation
    to the boundary and the next excursion restarts from the boundary
    value exactly, so overshoots are identically zero.  A single step
    that jumps through several band widths emits several messages with
    increasing interpolated times.

    The messages come a leg at a time, one leg per run of same-direction
    exits.  A leg's boundaries are the running sum ref + delta,
    ref + 2 delta, ... and each one is crossed at the first step where
    the running extreme of the path reaches it, until the path leaves
    the band through the other side; that turn is the first crossing of
    the next leg.  A leg costs a few array passes over the steps it
    covers, so the cost is O(n) array work plus one Python step per
    change of direction, instead of one per message.  A path that
    reverses at nearly every message (no drift, a tight band) pays a
    whole leg for each of them, up to about twice the cost of finding
    each exit by a windowed scan.

    Discrete mode: the statistic is inspected only at multiples of h
    (h must be an integer multiple of the grid step); the message time is
    the sampling instant, the reference restarts from the sampled value,
    and the overshoot beyond the threshold is recorded.

    ``max_step`` optionally ends the scan at grid index max_step.  The
    messages are then exactly those of the whole path at steps up to
    max_step, their times formed with the whole grid's dt, and
    ``pending`` is the residual at that step.  A continuous message at
    step j is stamped in ((j - 1) dt, j dt], so a scan to step
    ceil(t / dt) + 1 holds every message stamped at or before t, with a
    step to spare for rounding.

    A path with an infinite or NaN value is rejected (``InvalidSpec``).
    In continuous mode a log that would pass ``MAX_MESSAGES`` raises
    ``MessageFlood``, and no leg allocates more levels than that;
    discrete mode sends at most one message per sample.
    """
    B = np.asarray(B_path, dtype=float)
    if B.size != grid.n_steps + 1:
        raise InvalidSpec("statistic path length does not match the grid")
    if max_step is not None:
        if not 0 <= max_step <= grid.n_steps:
            raise InvalidSpec(f"max_step must lie in [0, {grid.n_steps}], got {max_step}")
        B = B[:max_step + 1]
    # reductions: no temporary of the path's size; NaN fails the test
    if not (-np.inf < B.min() and B.max() < np.inf):
        raise InvalidSpec("statistic path must be finite")
    if cfg.mode == DISCRETE:
        stride = grid.stride(cfg.h)
        samples = B[::stride]
        sample_times = grid.times()[:B.size:stride]
        return _discrete_b_trigger(samples, sample_times, cfg)
    return _continuous_b_trigger(B, grid, cfg)


def _continuous_b_trigger(B, grid, cfg):
    dup, ddn = cfg.delta_up, cfg.delta_down
    ref = B.item(0)  # a Python float adds and compares as np.float64 does
    j = _first_exit_index(B, 1, ref + dup, ref - ddn, _WINDOW)
    up = j is not None and B.item(j) >= ref + dup
    # the crossing steps and boundary levels of each leg, in order
    idx, lev = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    window = _WINDOW
    found = 0
    while j is not None:
        # a leg starts at its first crossing, step j, and its turn starts
        # the next leg in the other direction
        leg_idx, leg_lev, turn = _leg(B, j, ref, up, dup, ddn, window)
        found += leg_lev.size
        if found > MAX_MESSAGES:
            raise _bit_flood()
        idx.append(leg_idx)
        lev.append(leg_lev)
        ref = leg_lev.item(-1)
        if turn is not None:
            # the next leg's first window guesses its length from this
            # one's; it sets only the chunking, never the messages
            window = max(_WINDOW, 2 * (turn - j))
        up, j = not up, turn
    j = np.concatenate(idx)
    level = np.concatenate(lev)
    b0 = B[j - 1]
    theta = (level - b0) / (B[j] - b0)
    return BMessages(
        time=(j - 1) * grid.dt + theta * grid.dt,
        bit=(np.diff(level, prepend=B[0]) > 0).astype(np.uint8),
        overshoot=np.zeros(level.size),
        pending=float(B[-1] - ref),
    )


def _levels(ref, step, reach, room):
    """The boundaries ref + step, ref + 2 step, ... up to the last one at
    or below ``reach``, each the float sum of the one before and ``step``
    (``cumsum`` adds in order, as ``ref = ref + step`` does).

    ``MessageFlood`` when more than ``room`` of them would be needed,
    checked before each allocation, so a band far below the path's
    range (or one below the rounding of ``ref``, where the sums stall)
    fails instead of exhausting memory."""
    # floor(count) levels lie in (ref, reach], up to rounding; a Python
    # float quotient overflows to inf without a warning
    count = float(reach - ref) / step
    if not count < room + 1:
        raise _bit_flood()
    out = np.full(max(1, int(count) + 2), step)
    out[0] += ref
    out.cumsum(out=out)
    while out[-1] <= reach:
        if out.size > room:
            raise _bit_flood()
        more = np.full(out.size, step)
        more[0] += out[-1]
        out = np.concatenate((out, more.cumsum(out=more)))
    return out[:out.searchsorted(reach, "right")]


def _leg(B, start, ref, up, dup, ddn, window):
    """A leg: the run of same-direction crossings found by scanning from
    ``start`` with reference ``ref``, upward when ``up`` is true.
    ``MessageFlood`` when the leg alone would pass ``MAX_MESSAGES``.

    Returns the crossing step indices, the boundary levels, and the first
    index where B leaves the band through the other side (None when the
    leg runs to the end of the path).  A down leg is an up leg of -B;
    negation is exact, so its levels are the same floats.
    """
    step, back = (dup, ddn) if up else (ddn, dup)
    n = B.size
    refx = ref if up else -ref
    idx, lev = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    turn = None
    room = MAX_MESSAGES
    while start < n:
        x = B[start:start + window]
        if not up:
            x = -x
        top = np.maximum.accumulate(x)
        levels = _levels(refx, step, top[-1], room)
        # levels[m] is first reached at hit[m]
        hit = top.searchsorted(levels)
        # the band's lower edge at each index: the reference moves from
        # refs[m] to refs[m + 1] = levels[m] just after index hit[m]
        edges = np.empty(hit.size + 2, dtype=np.intp)
        edges[0], edges[1:-1], edges[-1] = -1, hit, x.size - 1
        refs = np.empty(hit.size + 1)
        refs[0], refs[1:] = refx, levels
        refs -= back
        out = x <= refs.repeat(edges[1:] - edges[:-1])
        d = out.argmax()
        if out[d]:
            m = hit.searchsorted(d)
            idx.append(start + hit[:m])
            lev.append(levels[:m])
            turn = start + int(d)
            break
        idx.append(start + hit)
        lev.append(levels)
        room -= levels.size
        if levels.size:
            refx = levels[-1]
        start += x.size
        window = min(2 * window, _MAX_WINDOW)
    levels = np.concatenate(lev)
    return np.concatenate(idx), levels if up else -levels, turn


def _discrete_b_trigger(samples, sample_times, cfg):
    dup, ddn = cfg.delta_up, cfg.delta_down
    out_t, out_z, out_eta = [], [], []
    ref = samples[0]
    k = 0
    while True:
        j = _first_exit_index(samples, k + 1, ref + dup, ref - ddn, _WINDOW)
        if j is None:
            break
        inc = samples[j] - ref
        # a jump past a threshold is classified by the sign of the increment
        if inc >= dup:
            out_z.append(1)
            out_eta.append(inc - dup)
        else:
            out_z.append(0)
            out_eta.append(-inc - ddn)
        out_t.append(sample_times[j])
        ref = samples[j]
        k = j
    return BMessages(
        time=np.asarray(out_t, dtype=float),
        bit=np.asarray(out_z, dtype=np.uint8),
        overshoot=np.asarray(out_eta, dtype=float),
        pending=float(samples[-1] - ref),
    )


def run_a_trigger(A_path: np.ndarray | None, grid: TimeGrid, c: float | None,
                  max_level: float | None = None) -> AMessages:
    """Timing messages: the n-th fires at the first (interpolated) time
    the nondecreasing information path reaches n*c.

    Returns an empty log when c is None (the sensor never sends timing
    messages because the model's information is deterministic); the
    path is not read then and may be None, as ``PathStats.A_i`` is.
    ``max_level`` optionally caps the emitted levels; levels above it can
    never be consumed by a stopping rule targeting that amount of
    information.  More than ``MAX_MESSAGES`` levels raise
    ``MessageFlood`` before any is allocated.
    """
    if c is None:
        return _empty_a()
    if not c > 0:
        raise InvalidSpec("information increment c must be positive")
    A = np.asarray(A_path, dtype=float)
    if A.size != grid.n_steps + 1:
        raise InvalidSpec("information path length does not match the grid")
    if A[0] != 0.0 or np.any(np.diff(A) < 0):
        raise NonMonotoneInput("information path must be nondecreasing from 0")
    top = A[-1] if max_level is None else min(A[-1], max_level)
    # floor(quotient) levels; a Python float quotient overflows to inf
    # without a warning
    quotient = float(top) / c
    if not quotient < MAX_MESSAGES + 1:
        raise MessageFlood(f"the timing trigger would send {quotient:.3g} messages from one "
                           f"sensor, more than {MAX_MESSAGES}")
    n_msg = int(quotient)
    if n_msg == 0:
        return _empty_a()
    # t = prev dt + theta dt with theta = (level - A[prev]) / (A[idx] - A[prev]),
    # prev = idx - 1, formed in place: four arrays of the log's length
    # are alive at once instead of seven, the float operations unchanged
    levels = np.arange(1, n_msg + 1, dtype=float)
    levels *= c
    # floor(top / c) can round up to a level just past the path's end
    # (0.7 / 0.02 == 35, but 35 * 0.02 > 0.7), which the path never reaches
    if levels[-1] > A[-1]:
        levels = levels[:-1]
    idx = A.searchsorted(levels, side="left")
    span = A[idx]
    idx -= 1
    below = A[idx]
    span -= below
    levels -= below
    levels /= span
    del span, below
    levels *= grid.dt
    t_msg = idx * grid.dt
    t_msg += levels
    return AMessages(time=t_msg)


def run_triggers(stats: PathStats, model: Model, cfgs) -> MessageLog:
    """Run all sensors' triggers over one replication's statistics.

    A sensor sends timing messages only when the model's information is
    random; in that case its config must carry c, and otherwise c must
    be None.
    """
    cfgs = tuple(cfgs)
    if len(cfgs) != model.K:
        raise InvalidSpec("need one trigger config per sensor")
    for cfg in cfgs:
        if not model.deterministic_info and cfg.c is None:
            raise InvalidSpec("information is random; timing increment c is required")
        if model.deterministic_info and cfg.c is not None:
            raise InvalidSpec("information is deterministic; c must be None")
    b_logs, a_logs = [], []
    for i in range(model.K):
        b_logs.append(run_b_trigger(stats.B_i[i], stats.grid, cfgs[i]))
        A_i = None if stats.A_i is None else stats.A_i[i]
        a_logs.append(run_a_trigger(A_i, stats.grid, cfgs[i].c))
    return MessageLog(b=tuple(b_logs), a=tuple(a_logs), cfgs=cfgs, horizon=stats.grid.t_end)


def extract_renewals(log: MessageLog, sensor: int, t: float):
    """Message count, inter-arrival times, and bits of one sensor up to t."""
    if not (0 <= t <= log.horizon * (1 + 1e-12)):
        raise OutOfHorizon(f"t={t} outside [0, {log.horizon}]")
    times = log.b[sensor].time
    m = int(np.searchsorted(times, t, side="right"))
    deltas = np.diff(times[:m], prepend=0.0)
    return m, deltas, log.b[sensor].bit[:m].copy()
