import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bitfuse import triggers
from bitfuse.errors import InvalidSpec, MessageFlood, NonMonotoneInput, OutOfHorizon
from bitfuse.models import ModelKind, ModelSpec, TimeGrid, build_model, path_statistics, simulate_paths
from bitfuse.triggers import (
    BMessages,
    TriggerConfig,
    extract_renewals,
    run_a_trigger,
    run_b_trigger,
    run_triggers,
)


def symmetric(delta, **kw):
    return TriggerConfig(delta_up=delta, delta_down=delta, **kw)


# -- bit trigger, continuous ----------------------------------------------


def test_deterministic_ramp_triggers_at_integer_times():
    grid = TimeGrid(3.5, 14)
    msgs = run_b_trigger(grid.times().copy(), grid, symmetric(1.0))
    np.testing.assert_allclose(msgs.time, [1.0, 2.0, 3.0], atol=1e-12)
    assert list(msgs.bit) == [1, 1, 1]
    assert np.all(msgs.overshoot == 0.0)


def test_path_inside_band_produces_no_messages():
    grid = TimeGrid(5.0, 100)
    B = 0.9 * np.sin(grid.times())
    msgs = run_b_trigger(B, grid, symmetric(1.0))
    assert len(msgs) == 0


def test_asymmetric_thresholds_and_down_bits():
    grid = TimeGrid(4.0, 16)
    B = -grid.times().copy()  # downward ramp
    msgs = run_b_trigger(B, grid, TriggerConfig(delta_up=5.0, delta_down=1.5))
    np.testing.assert_allclose(msgs.time, [1.5, 3.0], atol=1e-12)
    assert list(msgs.bit) == [0, 0]


def test_single_step_jump_through_several_bands():
    grid = TimeGrid(1.0, 2)
    B = np.array([0.0, 0.0, 3.5])  # jump of 3.5 in one step, delta = 1
    msgs = run_b_trigger(B, grid, symmetric(1.0))
    assert list(msgs.bit) == [1, 1, 1]
    assert np.all(np.diff(msgs.time) > 0)
    assert msgs.time[-1] <= 1.0


def test_exact_boundary_counts_as_crossing():
    grid = TimeGrid(1.0, 4)
    B = np.array([0.0, 0.5, 1.0, 0.2, 0.2])
    msgs = run_b_trigger(B, grid, symmetric(1.0))
    assert len(msgs) == 1
    assert msgs.time[0] == pytest.approx(0.5)


def test_reconstruction_gap_strictly_inside_band_at_grid_points():
    m = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    grid = TimeGrid(200.0, 20_000)
    stats = path_statistics(simulate_paths(m, 0.5, grid, seed=8), m)
    cfg = TriggerConfig(delta_up=1.0, delta_down=0.7)
    msgs = run_b_trigger(stats.B_i[0], grid, cfg)
    jumps = np.where(msgs.bit == 1, cfg.delta_up, -cfg.delta_down)
    levels = np.concatenate(([0.0], np.cumsum(jumps)))
    idx = np.searchsorted(msgs.time, grid.times(), side="right")
    gap = stats.B_i[0] - levels[idx]
    assert np.all(gap < cfg.delta_up) and np.all(gap > -cfg.delta_down)


def test_bit_symmetry_without_drift():
    m = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    grid = TimeGrid(125_000.0, 6_250_000)
    stats = path_statistics(simulate_paths(m, 0.0, grid, seed=2718), m)
    msgs = run_b_trigger(stats.B_i[0], grid, symmetric(1.0))
    frac = msgs.bit.mean()
    assert len(msgs) > 100_000
    assert abs(frac - 0.5) <= 0.005


def reference_scan(B, grid, cfg):
    """The continuous bit trigger as a plain per-step scan: at each step,
    emit every boundary the statistic reaches, restarting the reference
    from that boundary.  Returns the messages and each one's grid step."""
    times, dt = grid.times().tolist(), grid.dt
    b, ref = B.tolist(), B.item(0)
    out_t, out_z, steps = [], [], []
    for j in range(1, len(b)):
        while b[j] >= ref + cfg.delta_up or b[j] <= ref - cfg.delta_down:
            up = b[j] >= ref + cfg.delta_up
            ref = ref + cfg.delta_up if up else ref - cfg.delta_down
            out_t.append(times[j - 1] + (ref - b[j - 1]) / (b[j] - b[j - 1]) * dt)
            out_z.append(int(up))
            steps.append(j)
    msgs = BMessages(time=np.asarray(out_t, dtype=float), bit=np.asarray(out_z, dtype=np.uint8),
                     overshoot=np.zeros(len(out_t)), pending=float(B[-1] - ref))
    return msgs, np.asarray(steps, dtype=int)


def assert_same_messages(got, want):
    for field in ("time", "bit", "overshoot"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field
    assert type(got.pending) is float and got.pending == want.pending


def assert_band_invariants(B, grid, cfg, msgs):
    """Times strictly increasing, the bits rebuild the reference levels,
    and B stays strictly inside the band around them at every grid
    point (exact on an integer grid, where a boundary hit at a grid point
    is stamped at that point).  The band edges are computed as the
    trigger computes them, level - delta_down and level + delta_up: on a
    non-dyadic lattice B - level can round onto -delta_down although
    B > level - delta_down."""
    assert np.all(np.diff(msgs.time) > 0)
    jumps = np.where(msgs.bit == 1, cfg.delta_up, -cfg.delta_down)
    levels = np.cumsum(np.concatenate(([B[0]], jumps)))
    assert B[-1] - levels[-1] == msgs.pending
    level = levels[np.searchsorted(msgs.time, grid.times(), side="right")]
    assert np.all(B < level + cfg.delta_up) and np.all(B > level - cfg.delta_down)


@st.composite
def lattice_paths(draw):
    """Paths whose values and thresholds sit on a lattice (exact ties for
    the dyadic spacings), with drift of either sign and single steps
    through several bands, on an integer grid of 1 to 500 steps."""
    n = draw(st.integers(1, 500))
    unit = draw(st.sampled_from([0.25, 1.0, 0.1]))
    dup = unit * draw(st.integers(1, 4))
    ddn = dup if draw(st.booleans()) else unit * draw(st.integers(1, 4))
    drift = draw(st.integers(-3, 3))
    noise = draw(hnp.arrays(np.int64, n, elements=st.integers(-4, 4) | st.integers(-30, 30)))
    B = unit * np.concatenate(([0], np.cumsum(drift + noise))).astype(float)
    return B, TimeGrid(float(n), n), TriggerConfig(delta_up=dup, delta_down=ddn)


@settings(max_examples=300, deadline=None)
@given(lattice_paths())
# an up message sets ref = 0.1; -0.2 > 0.1 - 0.30000000000000004 after
# rounding, but -0.2 - 0.1 == -0.30000000000000004
@example((0.1 * np.array([0.0, 1.0, -2.0]), TimeGrid(2.0, 2),
          TriggerConfig(delta_up=0.1, delta_down=0.1 * 3)))
def test_continuous_trigger_matches_reference_scan(case):
    B, grid, cfg = case
    msgs = run_b_trigger(B, grid, cfg)
    assert_same_messages(msgs, reference_scan(B, grid, cfg)[0])
    assert_band_invariants(B, grid, cfg, msgs)


def test_legs_spanning_several_windows_match_reference_scan(monkeypatch):
    # a noisy ramp with no reversal: a message every 20 steps for 100
    # steps, then one about every 285 steps, so one leg runs over windows
    # of growing size, the first of them holding a single crossing
    n = 300_000
    grid = TimeGrid(float(n), n)
    cfg = TriggerConfig(delta_up=1.0, delta_down=0.75)
    rng = np.random.default_rng(2024)
    drift = np.where(np.arange(n) < 100, 0.05, 0.0035)
    B = np.concatenate(([0.0], np.cumsum(drift + 0.002 * rng.standard_normal(n))))
    legs = []
    leg = triggers._leg

    def spy(B, start, ref, up, dup, ddn, window):
        out = leg(B, start, ref, up, dup, ddn, window)
        legs.append((start, window, out[2]))
        return out

    monkeypatch.setattr(triggers, "_leg", spy)
    assert_same_messages(run_b_trigger(B, grid, cfg), reference_scan(B, grid, cfg)[0])
    start, window, _ = next(c for c in legs if c[2] is None or c[2] > c[0] + 3 * c[1])
    edge = start + 3 * window  # the first index of the leg's third window
    for turn in (edge, edge - 1):
        # a drop of 3 bands at ``turn`` reverses the leg exactly there
        Bt = B.copy()
        Bt[turn:] -= 3.0
        legs.clear()
        msgs = run_b_trigger(Bt, grid, cfg)
        assert (start, window, turn) in legs
        want, steps = reference_scan(Bt, grid, cfg)
        assert_same_messages(msgs, want)
        assert_band_invariants(Bt, grid, cfg, msgs)
        assert turn in steps and msgs.bit[np.searchsorted(steps, turn)] == 0


def test_driftless_walk_with_many_reversals_matches_reference_scan(monkeypatch):
    # with no drift about 45% of the messages reverse direction, so most
    # legs hold one or two crossings; a few long runs outgrow the window
    # set from the leg before
    n = 200_000
    grid = TimeGrid(float(n), n)
    cfg = TriggerConfig(delta_up=7.0, delta_down=5.0)
    B = np.concatenate(([0.0], np.cumsum(np.random.default_rng(15).standard_normal(n))))
    legs = []
    leg = triggers._leg

    def spy(B, start, ref, up, dup, ddn, window):
        out = leg(B, start, ref, up, dup, ddn, window)
        legs.append((start, window, out[2]))
        return out

    monkeypatch.setattr(triggers, "_leg", spy)
    msgs = run_b_trigger(B, grid, cfg)
    assert_same_messages(msgs, reference_scan(B, grid, cfg)[0])
    assert_band_invariants(B, grid, cfg, msgs)
    assert np.count_nonzero(np.diff(msgs.bit)) >= 2000
    assert sum(turn is None or turn > start + window for start, window, turn in legs) >= 10


@st.composite
def long_leg_cases(draw):
    """A lattice path that climbs (or falls) steadily through its band,
    with a few drops against its drift of one or more bands, and blocks
    and windows a few steps long, so that its legs run over several
    windows scanned by blocks of 1 to 8 steps."""
    n = draw(st.integers(1, 400))
    unit = draw(st.sampled_from([0.25, 1.0, 0.1]))
    dup = unit * draw(st.integers(1, 6))
    ddn = dup if draw(st.booleans()) else unit * draw(st.integers(1, 6))
    steps = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2) | st.integers(0, 12)))
    drops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 40)), max_size=4))
    for k, size in drops:
        steps[k] = -size
    sign = draw(st.sampled_from([1.0, -1.0]))
    B = sign * unit * np.concatenate(([0], np.cumsum(steps))).astype(float)
    block = draw(st.integers(1, 8))
    sizes = dict(_BLOCK=block, _BLOCK_WINDOW=block * draw(st.integers(1, 4)),
                 _WINDOW=draw(st.integers(1, 16)))
    return B, TimeGrid(float(n), n), TriggerConfig(delta_up=dup, delta_down=ddn), sizes


@settings(max_examples=400, deadline=None)
@given(long_leg_cases())
def test_block_scan_matches_reference_scan(case):
    B, grid, cfg, sizes = case
    with pytest.MonkeyPatch.context() as mp:
        for name, value in sizes.items():
            mp.setattr(triggers, name, value)
        msgs = run_b_trigger(B, grid, cfg)
    assert_same_messages(msgs, reference_scan(B, grid, cfg)[0])
    assert_band_invariants(B, grid, cfg, msgs)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_block_scan_turns_at_every_step_of_a_block(monkeypatch, sign):
    # a ramp of 1/4 per step crosses a band of 1.25 every 5 steps, so
    # with blocks of 4 steps its crossings fall on each step of a block;
    # a drop of 4 bands at each step in turn reverses the leg there
    monkeypatch.setattr(triggers, "_BLOCK", 4)
    monkeypatch.setattr(triggers, "_BLOCK_WINDOW", 8)
    monkeypatch.setattr(triggers, "_WINDOW", 8)
    turns = []
    blocks = triggers._blocks

    def spy(*args):
        out = blocks(*args)
        turns.append(out[2])
        return out

    monkeypatch.setattr(triggers, "_blocks", spy)
    n = 120
    grid = TimeGrid(float(n), n)
    cfg = symmetric(1.25)
    ramp = 0.25 * np.arange(n + 1)
    for turn in range(20, 80):
        B = ramp.copy()
        B[turn:] -= 5.0
        B *= sign
        msgs = run_b_trigger(B, grid, cfg)
        want, steps = reference_scan(B, grid, cfg)
        assert_same_messages(msgs, want)
        assert turn in steps and msgs.bit[np.searchsorted(steps, turn)] == (sign < 0)
    assert {t % 4 for t in turns if t is not None} == {0, 1, 2, 3}


def test_long_windows_are_scanned_by_blocks(monkeypatch):
    # a drifting Brownian statistic at the fixed-horizon benchmark's
    # scale: one up leg of about a thousand crossings over 200k steps
    calls = []
    blocks = triggers._blocks

    def spy(*args):
        calls.append(args[0].size)
        return blocks(*args)

    monkeypatch.setattr(triggers, "_blocks", spy)
    n = 200_000
    grid = TimeGrid(n / 20, n)
    rng = np.random.default_rng(11)
    B = np.concatenate(([0.0], np.cumsum(0.05 + np.sqrt(0.05) * rng.standard_normal(n))))
    cfg = symmetric(10.0)
    msgs = run_b_trigger(B, grid, cfg)
    assert_same_messages(msgs, reference_scan(B, grid, cfg)[0])
    assert len(msgs) > 900 and sum(calls) > 0.9 * n


@st.composite
def prefix_cases(draw):
    """A lattice path on a grid of step 1, 0.1, 1/3 or 0.7, and a step m
    to end the scan at: most often next to one of the path's crossing
    steps, on either side of it or on it."""
    B, grid, cfg = draw(lattice_paths())
    n = grid.n_steps
    grid = TimeGrid(n * draw(st.sampled_from([1.0, 0.1, 1 / 3, 0.7])), n)
    _, steps = reference_scan(B, grid, cfg)
    if steps.size and draw(st.integers(0, 3)):
        m = int(draw(st.sampled_from(steps.tolist()))) + draw(st.integers(-1, 1))
    else:
        m = draw(st.integers(0, n))
    return B, grid, cfg, min(max(m, 0), n)


@settings(max_examples=300, deadline=None)
@given(prefix_cases())
def test_scan_to_a_step_keeps_the_whole_paths_messages_up_to_it(case):
    # the replication engine runs the triggers over the grid prefix that
    # holds the sequential stops (TimeGrid.prefix): the scan of that
    # prefix gives the whole path's first messages
    B, grid, cfg, m = case
    part = grid.prefix(m)
    m = part.n_steps
    cut = run_b_trigger(B[: m + 1], part, cfg)
    assert_same_messages(cut, reference_scan(B[: m + 1], grid, cfg)[0])
    full = run_b_trigger(B, grid, cfg)
    _, steps = reference_scan(B, grid, cfg)
    k = int(np.searchsorted(steps, m, side="right"))
    assert len(cut) == k
    for field in ("time", "bit", "overshoot"):
        assert np.array_equal(getattr(cut, field), getattr(full, field)[:k]), field
    # a message stamped at time t comes at a step of at most ceil(t/dt) + 1,
    # so a prefix 2 steps past the step where a stop at t is known holds it
    assert np.all(steps <= np.ceil(full.time / grid.dt) + 1)


def test_bit_flood_raises_before_allocating():
    grid = TimeGrid(1.0, 2)
    B = np.array([0.0, 0.5, 1.0])
    # 1e300 levels, then a quotient that overflows to inf
    for delta, top in ((1e-300, 1.0), (5e-324, 1e12)):
        with pytest.raises(MessageFlood, match="bit trigger"):
            run_b_trigger(B * top, grid, symmetric(delta))


def test_bit_cap_counts_the_whole_log(monkeypatch):
    # a ramp is one leg of n messages; a driftless walk is many short legs
    n = 100
    ramp = np.arange(n + 1, dtype=float)
    walk = np.concatenate(([0.0], np.cumsum(np.random.default_rng(3).standard_normal(20_000))))
    for B, cfg in ((ramp, symmetric(1.0)), (walk, TriggerConfig(delta_up=2.0, delta_down=1.5))):
        grid = TimeGrid(float(B.size - 1), B.size - 1)
        want, _ = reference_scan(B, grid, cfg)
        assert len(want) >= n
        monkeypatch.setattr(triggers, "MAX_MESSAGES", len(want))
        assert_same_messages(run_b_trigger(B, grid, cfg), want)
        monkeypatch.setattr(triggers, "MAX_MESSAGES", len(want) - 1)
        with pytest.raises(MessageFlood):
            run_b_trigger(B, grid, cfg)


def test_non_finite_statistic_rejected():
    grid = TimeGrid(1.0, 2)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidSpec):
            run_b_trigger(np.array([0.0, bad, 0.0]), grid, symmetric(1.0))


# -- timing trigger --------------------------------------------------------


def test_linear_information_messages():
    grid = TimeGrid(2.5, 10)
    msgs = run_a_trigger(grid.times().copy(), grid, 1.0)
    np.testing.assert_allclose(msgs.time, [1.0, 2.0], atol=1e-12)


def test_none_increment_means_no_timing_messages():
    grid = TimeGrid(2.5, 10)
    msgs = run_a_trigger(grid.times().copy(), grid, None)
    assert len(msgs) == 0


def test_message_count_is_floor_of_terminal_information():
    spec = ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=1, alpha=(1.0,))
    m = build_model(spec)
    grid = TimeGrid(10.0, 5000)
    stats = path_statistics(simulate_paths(m, -0.5, grid, seed=31), m)
    c = 1.0
    msgs = run_a_trigger(stats.A_i[0], grid, c)
    assert len(msgs) == int(np.floor(stats.A_i[0, -1] / c))
    assert np.all(np.diff(msgs.time) > 0)


def test_monotonicity_enforced():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(NonMonotoneInput):
        run_a_trigger(np.array([0.0, 0.5, 0.4, 0.6, 0.8]), grid, 0.1)


def test_max_level_caps_messages():
    grid = TimeGrid(10.0, 100)
    A = grid.times().copy()
    assert len(run_a_trigger(A, grid, 1.0)) == 10
    assert len(run_a_trigger(A, grid, 1.0, max_level=4.5)) == 4


def test_level_rounded_past_the_path_end_is_never_reached():
    # 0.7 / 0.02 is exactly 35.0 in floats, but 35 * 0.02 = 0.7000000000000001
    # lies above the path's end: 34 messages, where an index past the end
    # used to raise IndexError
    grid = TimeGrid(0.7, 7)
    msgs = run_a_trigger(grid.times().copy(), grid, 0.02)
    assert len(msgs) == 34
    np.testing.assert_allclose(msgs.time, 0.02 * np.arange(1, 35), rtol=1e-12)


def test_timing_flood_raises_before_allocating(monkeypatch):
    grid = TimeGrid(10.0, 100)
    A = grid.times().copy()
    for c in (1e-300, 5e-324):
        with pytest.raises(MessageFlood, match="timing trigger"):
            run_a_trigger(A, grid, c)
    monkeypatch.setattr(triggers, "MAX_MESSAGES", 10)
    assert len(run_a_trigger(A, grid, 1.0)) == 10
    monkeypatch.setattr(triggers, "MAX_MESSAGES", 9)
    with pytest.raises(MessageFlood):
        run_a_trigger(A, grid, 1.0)
    # the cap counts the levels the stopping rule can read
    assert len(run_a_trigger(A, grid, 1.0, max_level=9.5)) == 9


# -- discrete sampling -----------------------------------------------------


def test_discrete_mode_stamps_sampling_instants_and_overshoots():
    grid = TimeGrid(1.0, 10)
    B = np.array([0.0, 0.2, 1.4, 1.4, 1.4, 1.4, 1.4, 1.4, 0.1, 0.1, 0.1])
    cfg = symmetric(1.0, mode="discrete", h=0.2)
    msgs = run_b_trigger(B, grid, cfg)
    # inspected at t = 0.2, 0.4, ...: first exit seen at 0.2 (B=1.4)
    assert msgs.time[0] == pytest.approx(0.2)
    assert msgs.bit[0] == 1
    assert msgs.overshoot[0] == pytest.approx(0.4)
    # reference restarts at 1.4; drop to 0.1 crosses the lower threshold
    assert msgs.bit[1] == 0
    assert msgs.overshoot[1] == pytest.approx(0.3)


def test_discrete_mode_requires_h_multiple_of_grid_step():
    grid = TimeGrid(1.0, 10)
    with pytest.raises(InvalidSpec):
        run_b_trigger(np.zeros(11), grid, symmetric(1.0, mode="discrete", h=0.15))


def test_discrete_bound_threshold_plus_overshoots():
    m = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    grid = TimeGrid(500.0, 50_000)
    stats = path_statistics(simulate_paths(m, 1.0, grid, seed=99), m)
    cfg = symmetric(2.0, mode="discrete", h=0.05)
    msgs = run_b_trigger(stats.B_i[0], grid, cfg)
    stride = 5
    samples = stats.B_i[0][::stride]
    sample_times = grid.times()[::stride]
    jumps = np.where(msgs.bit == 1, cfg.delta_up, -cfg.delta_down)
    levels = np.concatenate(([0.0], np.cumsum(jumps)))
    cum_eta = np.concatenate(([0.0], np.cumsum(msgs.overshoot)))
    idx = np.searchsorted(msgs.time, sample_times, side="right")
    gap = np.abs(samples - levels[idx])
    assert np.all(gap <= cfg.delta_max + cum_eta[idx] + 1e-9)


def test_overshoot_mean_shrinks_with_sampling_period():
    m = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    means = []
    for h, n in ((0.1, 20_000), (0.025, 80_000)):
        grid = TimeGrid(2000.0, n)
        stats = path_statistics(simulate_paths(m, 1.0, grid, seed=123), m)
        msgs = run_b_trigger(stats.B_i[0], grid, symmetric(5.0, mode="discrete", h=h))
        means.append(msgs.overshoot.mean())
    assert means[1] < means[0]


# -- renewal extraction ----------------------------------------------------


def _toy_log():
    m = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    grid = TimeGrid(3.5, 14)
    stats = path_statistics(simulate_paths(m, 0.0, grid, seed=1), m)
    # replace the statistic with a ramp for exact message times
    import dataclasses

    ramp = grid.times().copy()
    B_i = ramp[None, :]
    stats = dataclasses.replace(stats, B_i=B_i, B=ramp.copy())
    return run_triggers(stats, m, (TriggerConfig(delta_up=1.0, delta_down=1.0),))


def test_extract_renewals_counts_and_gaps():
    log = _toy_log()
    m, deltas, bits = extract_renewals(log, 0, 2.5)
    assert m == 2
    np.testing.assert_allclose(deltas, [1.0, 1.0], atol=1e-12)
    assert list(bits) == [1, 1]
    m0, d0, b0 = extract_renewals(log, 0, 0.5)
    assert m0 == 0 and d0.size == 0 and b0.size == 0
    with pytest.raises(OutOfHorizon):
        extract_renewals(log, 0, 99.0)


def test_mean_gap_matches_drift_ratio():
    # drifted case: expected gap ~ delta / (|lam| x^2) = 10
    m = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    all_deltas = []
    for rep in range(20):
        grid = TimeGrid(5500.0, 275_000)
        stats = path_statistics(simulate_paths(m, 1.0, grid, seed=(777, rep)), m)
        log = run_triggers(stats, m, (TriggerConfig(delta_up=10.0, delta_down=10.0),))
        _, d, _ = extract_renewals(log, 0, grid.t_end)
        all_deltas.extend(d.tolist())
    d = np.array(all_deltas[:10_000])
    assert d.size >= 10_000
    assert abs(d.mean() - 10.0) <= 1.0


def test_renewal_gaps_are_iid_split_half():
    m = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    gaps = []
    for rep in range(4):
        grid = TimeGrid(2000.0, 400_000)
        stats = path_statistics(simulate_paths(m, 1.0, grid, seed=(888, rep)), m)
        log = run_triggers(stats, m, (TriggerConfig(delta_up=1.0, delta_down=1.0),))
        _, d, _ = extract_renewals(log, 0, grid.t_end)
        gaps.extend(d.tolist())
    d = np.array(gaps[:10_000])
    half = d.size // 2
    a, b = np.sort(d[:half]), np.sort(d[half:])
    # two-sample KS distance below the 1% critical value
    grid_pts = np.concatenate([a, b])
    Fa = np.searchsorted(a, grid_pts, side="right") / a.size
    Fb = np.searchsorted(b, grid_pts, side="right") / b.size
    D = np.max(np.abs(Fa - Fb))
    crit = 1.628 * np.sqrt((a.size + b.size) / (a.size * b.size))
    assert D < crit


# -- config plumbing -------------------------------------------------------


def test_trigger_config_validation():
    with pytest.raises(InvalidSpec):
        TriggerConfig(delta_up=0.0, delta_down=1.0)
    with pytest.raises(InvalidSpec):
        TriggerConfig(delta_up=1.0, delta_down=-1.0)
    with pytest.raises(InvalidSpec):
        TriggerConfig(delta_up=1.0, delta_down=1.0, c=0.0)
    with pytest.raises(InvalidSpec):
        TriggerConfig(delta_up=1.0, delta_down=1.0, mode="discrete")
    with pytest.raises(InvalidSpec):
        TriggerConfig(delta_up=1.0, delta_down=1.0, h=0.1)
    # non-finite reals
    inf = float("inf")
    with pytest.raises(InvalidSpec, match="thresholds"):
        TriggerConfig(delta_up=inf, delta_down=1.0)
    with pytest.raises(InvalidSpec, match="thresholds"):
        TriggerConfig(delta_up=1.0, delta_down=inf)
    with pytest.raises(InvalidSpec, match="increment c"):
        TriggerConfig(delta_up=1.0, delta_down=1.0, c=inf)
    with pytest.raises(InvalidSpec, match="sampling period h"):
        TriggerConfig(delta_up=1.0, delta_down=1.0, mode="discrete", h=float("nan"))


def test_run_triggers_enforces_timing_increment_presence():
    m_det = build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=1, x=(1.0,)))
    grid = TimeGrid(1.0, 100)
    stats = path_statistics(simulate_paths(m_det, 0.1, grid, seed=4), m_det)
    with pytest.raises(InvalidSpec):
        run_triggers(stats, m_det, (TriggerConfig(delta_up=1.0, delta_down=1.0, c=1.0),))
    m_rand = build_model(ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=1, alpha=(1.0,)))
    stats2 = path_statistics(simulate_paths(m_rand, 0.1, grid, seed=4), m_rand)
    with pytest.raises(InvalidSpec):
        run_triggers(stats2, m_rand, (TriggerConfig(delta_up=1.0, delta_down=1.0),))
