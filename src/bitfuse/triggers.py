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
time: a leg is a run of same-direction crossings, scanned in windows of
doubling length.  A short window is located with a running maximum (or
minimum) of the path and one search for all of its boundaries.  A window
of at least 4096 steps that holds at most one boundary per 64-step block
is reduced to each block's maximum and minimum instead, and only the
blocks that reach a boundary, and the stretches from the blocks that may
hold the leg's turn, are scanned step by step.  Both scans compare the
path's floats with the same boundaries, so they give the same messages.
Each leg starts at the exit that ends the leg before, so the cost is
O(n) array passes plus one leg per change of direction, and a path that
reverses at nearly every message pays a leg per message.  In discrete
mode the statistic is inspected only every h time units, the message is
stamped at the sampling instant, the reference jumps to the
sampled value, and the unobserved overshoot is recorded for diagnostics.

A continuous bit trigger or a timing trigger that would put more than
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
    "bit_messages",
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
_BLOCK = 64  # steps per block of a long window's scan
_BLOCK_WINDOW = 4096  # windows of at least this many steps are scanned by blocks
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


def run_b_trigger(B_path: np.ndarray, grid: TimeGrid, cfg: TriggerConfig) -> BMessages:
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
    covers (block maxima and minima instead of a running extreme over
    long windows, see ``_window``), so the cost is O(n) array work plus
    one Python step per change of direction, instead of one per message.
    A path that reverses at nearly every message (no drift, a tight band) pays a
    whole leg for each of them, up to about twice the cost of finding
    each exit by a windowed scan.

    Discrete mode: the statistic is inspected only at multiples of h
    (h must be an integer multiple of the grid step); the message time is
    the sampling instant, the reference restarts from the sampled value,
    and the overshoot beyond the threshold is recorded.

    A path with an infinite or NaN value is rejected (``InvalidSpec``).
    In continuous mode a log that would pass ``MAX_MESSAGES`` raises
    ``MessageFlood``, and no leg allocates more levels than that;
    discrete mode sends at most one message per sample.
    """
    B = np.asarray(B_path, dtype=float)
    if B.size != grid.n_steps + 1:
        raise InvalidSpec("statistic path length does not match the grid")
    # reductions: no temporary of the path's size; NaN fails the test
    if not (-np.inf < B.min() and B.max() < np.inf):
        raise InvalidSpec("statistic path must be finite")
    return bit_messages(B, grid, cfg)


def bit_messages(B: np.ndarray, grid: TimeGrid, cfg: TriggerConfig) -> BMessages:
    """``run_b_trigger`` on a float path the caller knows to be finite,
    without the pass that checks it: ``path_statistics`` has bounded
    every B_i row by the blow-up cap.  A non-finite value gives wrong
    messages or ``MessageFlood`` here, not ``InvalidSpec``."""
    if B.size != grid.n_steps + 1:
        raise InvalidSpec("statistic path length does not match the grid")
    if cfg.mode == DISCRETE:
        stride = grid.stride(cfg.h)
        samples = B[::stride]
        sample_times = grid.times()[::stride]
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
    leg runs to the end of the path).  The leg is scanned in windows of
    ``window`` steps, doubling from one to the next (``_window``).  A
    down leg is an up leg of -B; negation is exact, so its levels are
    the same floats.
    """
    step, back = (dup, ddn) if up else (ddn, dup)
    n = B.size
    refx = ref if up else -ref
    idx, lev = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    turn = None
    room = MAX_MESSAGES
    while start < n:
        x = B[start:start + window]
        hit, levels, d = _window(x, refx, step, back, room, up)
        if d is not None:
            m = hit.searchsorted(d)
            idx.append(start + hit[:m])
            lev.append(levels[:m])
            turn = start + d
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


def _window(x, refx, step, back, room, up):
    """One window ``x`` of a leg with reference ``refx`` (negated for a
    down leg): the step at which each boundary level is first reached,
    the levels up to the window's maximum, and the first step at or
    below the band's lower edge (None when there is none).

    A window of at least ``_BLOCK_WINDOW`` steps first reduces each
    block of ``_BLOCK`` steps to its maximum and minimum, a cheaper pass
    than a running maximum.  When it holds at most one level per block
    it is scanned by blocks (``_blocks``); otherwise, and in a shorter
    window, step by step: the running maximum of the path first reaches
    each level at its crossing, and the reference moves to that level
    just after it.  Both compare the same floats, so they give the same
    steps.
    """
    levels = None
    if x.size >= _BLOCK_WINDOW:
        starts = np.arange(0, x.size, _BLOCK)
        hi, lo = np.maximum.reduceat(x, starts), np.minimum.reduceat(x, starts)
        top, low = (hi, lo) if up else (np.negative(lo, out=lo), np.negative(hi, out=hi))
        np.maximum.accumulate(top, out=top)  # the running maximum at each block's end
        levels = _levels(refx, step, top[-1], room)
        if levels.size <= starts.size:
            return _blocks(x, up, starts, top, low, levels, _edges(refx, levels, back))
    v = x if up else -x
    top = np.maximum.accumulate(v)
    if levels is None:
        levels = _levels(refx, step, top[-1], room)
    hit = top.searchsorted(levels)
    return hit, levels, _first_turn(v, 0, hit, _edges(refx, levels, back))


def _blocks(x, up, starts, top, low, levels, refs):
    """``_window`` by blocks: ``top`` and ``low`` are the running maximum
    at each block's end and each block's minimum (of -x for a down leg),
    ``refs`` the lower edges.  A level is first reached in the first
    block whose running maximum reaches it, at the first step of that
    block at or above it.  A block can hold the turn only if its minimum
    lies at or below the edge in effect after its last crossing, the
    block's highest; from the first such block on, the steps are
    checked in stretches of doubling length until the turn is found."""
    block = top.searchsorted(levels)
    full = x.size // _BLOCK
    rows = x[:full * _BLOCK].reshape(full, _BLOCK).take(block, axis=0, mode="clip")
    if block.size and block[-1] == full:
        # the short last block: its steps lead its rows, and one of them
        # reaches each level first reached there
        rows[block == full, :x.size - full * _BLOCK] = x[full * _BLOCK:]
    reached = rows >= levels[:, None] if up else rows <= -levels[:, None]
    hit = block * _BLOCK + reached.argmax(axis=1)
    maybe = np.flatnonzero(low <= refs[block.searchsorted(np.arange(starts.size), "right")])
    span, k = _BLOCK, 0
    while k < maybe.size:
        a = int(starts[maybe[k]])
        v = x[a:a + span] if up else -x[a:a + span]
        first, last = hit.searchsorted((a, a + v.size))
        d = _first_turn(v, a, hit[first:last], refs[first:last + 1])
        if d is not None:
            return hit, levels, d
        k = maybe.searchsorted(-(-(a + v.size) // _BLOCK))
        span *= 2
    return hit, levels, None


def _edges(refx, levels, back):
    """The band's lower edges: refx - back, then level - back after
    each crossing."""
    refs = np.empty(levels.size + 1)
    refs[0], refs[1:] = refx, levels
    refs -= back
    return refs


def _first_turn(v, a, hit, refs):
    """The first step a + k at which v[k] lies at or below the lower edge
    in effect there, or None: ``hit`` holds the crossings among those
    steps, refs[0] is in effect up to the first of them and refs[m]
    from just after crossing m - 1 through crossing m."""
    bounds = np.empty(hit.size + 2, dtype=np.intp)
    bounds[0], bounds[1:-1], bounds[-1] = a - 1, hit, a + v.size - 1
    out = v <= refs.repeat(bounds[1:] - bounds[:-1])
    k = out.argmax()
    return a + int(k) if out[k] else None


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
    ``max_level`` optionally caps the emitted levels.  A stopping rule
    targeting that information never consumes a level above it, but a
    sequential oracle row counts the messages up to its own, possibly
    later, stop, so the cap shows in its ``a_messages``.  More than
    ``MAX_MESSAGES`` levels raise ``MessageFlood`` before any is
    allocated.
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
