import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitfuse.errors import GridMismatch, InvalidSpec, NumericalBlowup
from bitfuse.experiments import ks_test
from bitfuse.fusion import centralized_estimates
from bitfuse.models import (
    ModelKind,
    ModelSpec,
    PathStats,
    SensorPaths,
    TimeGrid,
    build_model,
    path_statistics,
    simulate_paths,
)
from bitfuse.timefuncs import TimeFunction

CONST = TimeFunction.constant


def brownian(K=2, x=(1.0, 2.0)):
    return build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=K, x=x))


# -- build_model ---------------------------------------------------------


def test_brownian_counts_and_total_information():
    m = brownian()
    assert list(m.d_counts) == [0, 0]
    assert m.det_info(1.0) == pytest.approx(5.0)
    assert m.det_info(3.0) == pytest.approx(15.0)


def test_correlated_all_random_cross_counts():
    sig = tuple(tuple(CONST(1.0 if i == j else 0.5) for j in range(3)) for i in range(3))
    m = build_model(ModelSpec(kind=ModelKind.CORRELATED_DIFFUSION, K=3, sigma=sig))
    assert list(m.d_counts) == [2, 2, 2]


def test_gaussian_unit_coefficients_give_linear_information():
    m = build_model(
        ModelSpec(kind=ModelKind.GAUSSIAN_DET_INFO, K=1, b=(CONST(1.0),), rho=((CONST(1.0),),))
    )
    for t in (0.5, 1.0, 7.0):
        assert m.det_info(t) == pytest.approx(t, rel=1e-14)


def test_build_model_rejects_bad_specs():
    with pytest.raises(InvalidSpec):
        build_model(ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 0.0)))
    bad_rho = ((CONST(1.0), CONST(2.0)), (CONST(2.0), CONST(1.0)))  # not PSD
    with pytest.raises(InvalidSpec):
        build_model(
            ModelSpec(kind=ModelKind.GAUSSIAN_DET_INFO, K=2, b=(CONST(1.0), CONST(1.0)), rho=bad_rho)
        )
    with pytest.raises(InvalidSpec):
        build_model(ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=1, alpha=(0.0,)))


# -- simulate_paths ------------------------------------------------------


def test_zero_drift_initial_condition_and_increment_variance():
    m = brownian(K=1, x=(1.0,))
    grid = TimeGrid(1.0, 10)
    p = simulate_paths(m, 0.0, grid, seed=42)
    assert p.Y[0, 0] == 0.0
    incr = np.diff(p.Y[0])
    assert incr.size == 10
    # increments reproduce the seeded draws scaled by sqrt(dt) (up to
    # cumsum/diff rounding)
    z = np.random.default_rng(42).standard_normal((1, 10))
    np.testing.assert_allclose(incr, z[0] * np.sqrt(0.1), rtol=0, atol=1e-12)


def test_mc_mean_of_terminal_value():
    # one sensor, unit weight, drift 2: E[Y_1] = 2
    m = brownian(K=1, x=(1.0,))
    grid = TimeGrid(1.0, 10)
    n = 100_000
    rng = np.random.default_rng(777)
    # identical in law to simulate_paths terminal values, drawn in bulk
    vals = 2.0 + rng.standard_normal((n, 10)).sum(axis=1) * np.sqrt(0.1)
    spot_seeds = [0, 1, 2, 2024]
    for s in spot_seeds:
        p = simulate_paths(m, 2.0, grid, seed=s)
        assert p.Y[0, -1] == pytest.approx(
            2.0 + np.random.default_rng(s).standard_normal((1, 10))[0].sum() * np.sqrt(0.1)
        )
    assert vals.mean() == pytest.approx(2.0, abs=0.02)


def test_ou_drift_is_lambda_times_state():
    spec = ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=1, alpha=(1.0,))
    m = build_model(spec)
    grid = TimeGrid(2.0, 200)
    lam = 0.7
    p = simulate_paths(m, lam, grid, seed=9)
    z = np.random.default_rng(9).standard_normal((1, 200))
    dt = grid.dt
    # Euler recursion: increment - lam * y * dt reproduces the noise
    y = p.Y[0]
    recovered = (y[1:] - y[:-1] - lam * 1.0 * y[:-1] * dt) / np.sqrt(1.0 * dt)
    np.testing.assert_allclose(recovered, z[0], rtol=0, atol=1e-12)


def test_square_root_diffusion_stays_defined_and_starts_at_y0():
    spec = ModelSpec(kind=ModelKind.SQUARE_ROOT_DIFFUSION, K=2, x=(1.0, 1.0), y0=(1.0, 2.0))
    m = build_model(spec)
    p = simulate_paths(m, -0.5, TimeGrid(5.0, 5000), seed=3)
    assert p.Y[0, 0] == 1.0 and p.Y[1, 0] == 2.0
    assert np.all(np.isfinite(p.Y))


def test_square_root_diffusion_absorbed_at_zero_start():
    spec = ModelSpec(kind=ModelKind.SQUARE_ROOT_DIFFUSION, K=1, x=(1.0,), y0=(0.0,))
    m = build_model(spec)
    p = simulate_paths(m, 1.0, TimeGrid(1.0, 100), seed=3)
    assert np.all(p.Y == 0.0)


def test_determinism_bitwise():
    for spec, lam in (
        (ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 2.0)), 0.3),
        (ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 0.5)), -0.2),
    ):
        m = build_model(spec)
        grid = TimeGrid(3.0, 300)
        p1 = simulate_paths(m, lam, grid, seed=11)
        p2 = simulate_paths(m, lam, grid, seed=11)
        assert np.array_equal(p1.Y, p2.Y)
        s1 = path_statistics(p1, m)
        s2 = path_statistics(p2, m)
        # deterministic information keeps no per-sensor rows
        assert (s1.A_i is None) == (s2.A_i is None) == m.deterministic_info
        for name in ("B_i", "A_i", "B", "A"):
            if getattr(s1, name) is not None:
                assert np.array_equal(getattr(s1, name), getattr(s2, name))


def test_blowup_detection():
    m = build_model(ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=1, alpha=(1.0,)))
    with pytest.raises(NumericalBlowup):
        simulate_paths(m, 100.0, TimeGrid(50.0, 50), seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_path_is_blowup(monkeypatch, bad):
    m = brownian(K=2, x=(1.0, 2.0))
    grid = TimeGrid(1.0, 10)
    Y = np.zeros((2, 11))
    Y[1, 5] = bad
    monkeypatch.setattr(m, "simulate", lambda lam, grid, rng, out=None: Y)
    with pytest.raises(NumericalBlowup):
        simulate_paths(m, 0.5, grid, seed=1)


def test_brownian_rows_match_one_whole_array_draw():
    # the per-sensor draws against the (K, n) draw they replaced, bit for bit
    m = brownian(K=3, x=(1.0, -2.0, 0.5))
    grid = TimeGrid(2.0, 1000)
    Y = simulate_paths(m, 0.7, grid, seed=9).Y
    noise = np.random.default_rng(9).standard_normal((3, 1000)) * np.sqrt(grid.dt)
    want = np.zeros((3, 1001))
    want[:, 1:] = np.cumsum(noise, axis=1)
    want += 0.7 * m.x[:, None] * grid.times()[None, :]
    assert Y.tobytes() == want.tobytes()


def test_statistics_blowup_detection():
    # each path stays far under the cap while its integral B_i (up, then
    # down) or its information A_i does not: a weight that varies in time
    # (OU), a constant weight (square-root, B_i in closed form) and
    # deterministic information (Brownian, and a Gaussian pair whose total
    # stays under the cap while each sensor's A_i does not)
    ou = build_model(ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=1, alpha=(1.0,)))
    sqrt = build_model(ModelSpec(kind=ModelKind.SQUARE_ROOT_DIFFUSION, K=1, x=(1e7,)))
    bm = brownian(K=1, x=(1e3,))
    anti = ((CONST(1.0), CONST(-0.999)), (CONST(-0.999), CONST(1.0)))
    gauss = build_model(
        ModelSpec(kind=ModelKind.GAUSSIAN_DET_INFO, K=2, b=(CONST(1.0), CONST(1.0)), rho=anti)
    )
    assert gauss.det_info(1e13) < 1e12 < gauss.det_info_i(0, 1e13)
    for m, grid, y, what in (
        (ou, TimeGrid(1e-6, 2), (0.0, 1e6, 3e6), "B_i"),
        (ou, TimeGrid(1e-6, 2), (0.0, 1e6, -1e6), "B_i"),
        (ou, TimeGrid(1e6, 2), (0.0, 1e4, 1e4), "A_i"),
        (sqrt, TimeGrid(1e-6, 2), (1.0, 1e6, 3e6), "B_i"),
        (sqrt, TimeGrid(1e-6, 2), (1.0, 1e6, -1e6), "B_i"),
        (bm, TimeGrid(1e7, 2), (0.0, 1.0, 2.0), "A_i"),
        (gauss, TimeGrid(1e13, 2), ((0.0, 1.0, 2.0), (0.0, -1.0, 0.0)), "A_i"),
    ):
        Y = np.array(y, ndmin=2)
        p = SensorPaths(grid=grid, Y=Y, lambda_true=0.1)
        with pytest.raises(NumericalBlowup, match=what):
            path_statistics(p, m)


# -- path_statistics -----------------------------------------------------


def test_unit_weight_integral_equals_path():
    m = brownian(K=1, x=(1.0,))
    p = simulate_paths(m, 0.5, TimeGrid(2.0, 500), seed=5)
    s = path_statistics(p, m)
    np.testing.assert_allclose(s.B_i[0], p.Y[0], rtol=0, atol=1e-12)


def test_weight_two_information_is_exactly_linear():
    m = brownian(K=1, x=(2.0,))
    grid = TimeGrid(2.0, 500)
    s = path_statistics(simulate_paths(m, 0.5, grid, seed=5), m)
    assert s.A_i is None
    np.testing.assert_array_equal(m.det_info_i(0, grid.times()), 4.0 * grid.times())
    np.testing.assert_array_equal(s.A, 4.0 * grid.times())


def test_zero_path_gives_zero_integral_and_score_identity():
    m = brownian(K=2, x=(1.0, 2.0))
    grid = TimeGrid(1.0, 50)
    Y = np.zeros((2, 51))
    p = SensorPaths(grid=grid, Y=Y, lambda_true=0.7)
    s = path_statistics(p, m)
    assert np.all(s.B == 0.0)
    # B = 0, so the score B - lam A is -lam A, with A the closed form
    np.testing.assert_array_equal(s.A, m.det_info(grid.times()))


def test_grid_times_are_computed_once_and_read_only():
    grid = TimeGrid(3.0, 7)
    times = grid.times()
    assert grid.times() is times
    assert not times.flags.writeable
    with pytest.raises(ValueError):
        times[1] = 0.5
    assert np.array_equal(times, np.linspace(0.0, 3.0, 8))
    # the cached array is no field of the grid
    assert grid == TimeGrid(3.0, 7) and hash(grid) == hash(TimeGrid(3.0, 7))


@settings(max_examples=300, deadline=None)
@given(t_end=st.floats(1e-3, 1e6), n=st.integers(1, 3000), m=st.integers(0, 3000))
# (50 dt) / 50 and (51 dt) / 51 round away from dt = 0.0007: 52 steps
@example(t_end=0.7, n=1000, m=50)
def test_prefix_grid_keeps_the_grids_dt_and_first_times(t_end, n, m):
    grid = TimeGrid(t_end, n)
    part = grid.prefix(m)
    k = part.n_steps
    assert part.dt == grid.dt
    assert part.times().tobytes() == grid.times()[:k + 1].tobytes()
    assert k == n if part is grid else max(1, m) <= k < n
    # the least step count at or past m with the same dt
    dt = grid.dt
    assert all((j * dt) / j != dt for j in range(max(1, m), k))


@settings(max_examples=300, deadline=None)
@given(
    t_end=st.floats(1e-3, 1e4),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
)
def test_value_at_a_scalar_time_is_np_interp_on_the_grid(t_end, n, seed, where):
    grid = TimeGrid(t_end, n)
    times = grid.times()
    arr = np.cumsum(np.random.default_rng(seed).standard_normal(n + 1))
    stats = PathStats(grid=grid, B_i=arr[None, :].copy(), A_i=None, B=arr.copy(), A=arr.copy())
    k = np.random.default_rng(seed).integers(0, n + 1, 3)
    ts = [0.0, t_end, t_end * (1 + 1e-13), *times[k], *(w * t_end for w in where)]
    for t in ts:
        got = stats.value_at(stats.B, t)
        want = np.interp(min(t, t_end), times, arr)
        assert type(got) is float and np.float64(got).tobytes() == want.tobytes(), t
    got = stats.value_at(stats.B, np.array(ts))
    assert got.tobytes() == np.interp(np.clip(ts, 0.0, t_end), times, arr).tobytes()


def test_grid_mismatch_raises():
    m = brownian(K=2, x=(1.0, 2.0))
    p = simulate_paths(m, 0.1, TimeGrid(1.0, 50), seed=1)
    q = SensorPaths(grid=TimeGrid(1.0, 50), Y=np.zeros((2, 50)), lambda_true=0.1)
    with pytest.raises(GridMismatch):
        path_statistics(q, m)
    del p


ALL_CATALOG = (
    (ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, -2.0)), 0.4),
    (
        ModelSpec(
            kind=ModelKind.GAUSSIAN_DET_INFO,
            K=2,
            b=(TimeFunction.polynomial((1.0, 0.1)), CONST(0.7)),
            rho=((CONST(1.0), CONST(0.4)), (CONST(0.4), CONST(1.0))),
        ),
        0.4,
    ),
    (ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=2, alpha=(1.0, 0.5)), -0.3),
    (ModelSpec(kind=ModelKind.SQUARE_ROOT_DIFFUSION, K=2, x=(1.0, 0.5), y0=(1.0, 1.0)), 0.2),
    (
        ModelSpec(
            kind=ModelKind.CORRELATED_DIFFUSION,
            K=2,
            sigma=((CONST(1.0), CONST(0.3)), (CONST(0.3), CONST(0.8))),
        ),
        0.2,
    ),
)


def _random_row(m, paths, i, j):
    """The (i, j) information row of a random-information model: the
    left-endpoint sum of X_i X_j d<Y_i, Y_j>/dt over the grid."""
    Yl, tl = paths.Y[:, :-1], paths.grid.times()[:-1]
    X = m.x_values(Yl, tl)
    row = np.zeros(paths.grid.n_steps + 1)
    np.cumsum(X[i] * X[j] * m.qv_density(i, j, Yl, tl) * paths.grid.dt, out=row[1:])
    return row


def _random_info_reference(m, paths, A_i):
    """The total information, summed in the order path_statistics documents:
    the A_i rows, then one row per cross pair."""
    A = A_i.sum(axis=0)
    for i, j in m.cross_pairs:
        A = A + _random_row(m, paths, i, j)
    return A


@pytest.mark.parametrize("spec,lam", ALL_CATALOG, ids=[s.kind.value for s, _ in ALL_CATALOG])
def test_pointwise_identities_all_models(spec, lam):
    m = build_model(spec)
    grid = TimeGrid(4.0, 1000)
    times = grid.times()
    paths = simulate_paths(m, lam, grid, seed=77)
    s = path_statistics(paths, m)
    assert [f.name for f in dataclasses.fields(s)] == ["grid", "A_i", "A", "B_i", "B"]
    # deterministic information is read from the closed form, not stored
    assert (s.A_i is None) == m.deterministic_info
    if m.deterministic_info:
        A_i = np.stack([m.det_info_i(i, times) for i in range(m.K)])
    else:
        A_i = s.A_i
    scale = 1.0 + np.abs(s.A) + np.abs(s.B)
    # totals decompose into per-sensor pieces
    np.testing.assert_allclose(s.B, s.B_i.sum(axis=0), rtol=0, atol=1e-12 * scale.max())
    # information components: nondecreasing diagonal, two-sided cross bound
    assert np.all(np.diff(A_i, axis=1) >= 0)
    assert np.all(A_i[:, 0] == 0.0)
    if m.deterministic_info:
        # the closed form the fusion center divides by, bit for bit
        np.testing.assert_array_equal(s.A, m.det_info(times))
        cross = {(i, j): m._cross_integrand[i][j].integral(times) for i, j in m.cross_pairs}
        np.testing.assert_allclose(
            s.A, A_i.sum(axis=0) + sum(cross.values()), rtol=0, atol=1e-12 * scale.max()
        )
    else:
        for i in range(m.K):
            np.testing.assert_array_equal(s.A_i[i], _random_row(m, paths, i, i))
        np.testing.assert_array_equal(s.A, _random_info_reference(m, paths, s.A_i))
        cross = {(i, j): _random_row(m, paths, i, j) for i, j in m.cross_pairs}
    for (i, j), row in cross.items():
        bound = 0.5 * (A_i[i] + A_i[j])
        assert np.all(np.abs(row) <= bound + 1e-12 * (1 + bound))
    # every off-diagonal pair left out of A is identically zero
    dense = np.linspace(0.0, 10.0 * grid.t_end, 4001)
    for i in range(m.K):
        for j in range(m.K):
            if i == j or (i, j) in m.cross_pairs:
                continue
            if m.kind is ModelKind.GAUSSIAN_DET_INFO:
                assert np.all(m._cross_integrand[i][j](dense) == 0.0)
            elif m.kind is ModelKind.CORRELATED_DIFFUSION:
                assert np.all(m.alpha_fn[i][j](dense) == 0.0)
            elif not m.deterministic_info:
                assert np.all(m.qv_density(i, j, paths.Y[:, :-1], times[:-1]) == 0.0)


@settings(max_examples=100, deadline=None)
@given(
    which=st.integers(0, len(ALL_CATALOG) - 1),
    n=st.integers(1, 400),
    t_end=st.floats(0.1, 6.0),
    seed=st.integers(0, 2**32 - 1),
    frac=st.floats(-0.1, 1.3),
)
def test_reach_keeps_the_first_values_of_the_whole_statistics(which, n, t_end, seed, frac):
    # the statistics cut 2 steps past where A reaches ``reach`` are the
    # whole grid's first values, bit for bit; past A's end, the whole grid
    spec, lam = ALL_CATALOG[which]
    m = build_model(spec)
    paths = simulate_paths(m, lam, TimeGrid(t_end, n), seed=seed)
    whole = path_statistics(paths, m)
    reach = frac * float(whole.A[-1])
    cut = path_statistics(paths, m, reach)
    hit = np.flatnonzero(whole.A >= reach)
    grid = paths.grid.prefix(int(hit[0]) + 2) if hit.size else paths.grid
    assert cut.grid == grid
    size = grid.n_steps + 1
    for f in ("B_i", "A_i", "B", "A"):
        got, want = getattr(cut, f), getattr(whole, f)
        if want is None:
            assert got is None
        else:
            assert got.shape[-1] == size
            assert got.tobytes() == np.ascontiguousarray(want[..., :size]).tobytes(), f


def _riemann_b_i(m, paths):
    """B_i as the left-endpoint Riemann sum, summed step by step."""
    Y = paths.Y
    dB = m.x_values(Y[:, :-1], paths.grid.times()[:-1]) * np.diff(Y, axis=1)
    out = np.zeros(Y.shape)
    np.cumsum(dB, axis=1, out=out[:, 1:])
    return out, dB


@st.composite
def _constant_weight_specs(draw):
    K = draw(st.integers(1, 4))
    x = tuple(draw(st.floats(0.05, 3.0)) * draw(st.sampled_from((-1.0, 1.0))) for _ in range(K))
    if draw(st.booleans()):
        return ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=K, x=x)
    y0 = tuple(draw(st.floats(0.0, 3.0)) for _ in range(K))
    return ModelSpec(kind=ModelKind.SQUARE_ROOT_DIFFUSION, K=K, x=x, y0=y0)


@settings(max_examples=100, deadline=None)
@given(
    spec=_constant_weight_specs(),
    lam=st.floats(-1.0, 1.0),
    n=st.one_of(st.integers(1, 3), st.integers(1, 2000)),
    t_end=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_constant_weight_integral_is_the_riemann_sum(spec, lam, n, t_end, seed):
    # x_i (Y_i - Y_i(0)) rounds twice; the step-by-step sum rounds at each
    # of its k additions, by at most k eps times the sum of its terms' sizes
    m = build_model(spec)
    paths = simulate_paths(m, lam, TimeGrid(t_end, n), seed=seed)
    s = path_statistics(paths, m)
    ref, dB = _riemann_b_i(m, paths)
    size = np.zeros(ref.shape)
    np.cumsum(np.abs(dB), axis=1, out=size[:, 1:])
    eps = np.finfo(float).eps
    tol = np.arange(n + 1) * eps * size + eps * np.abs(s.B_i)
    assert np.all(np.abs(s.B_i - ref) <= tol)
    # bit for bit, signed zeros included (a negative weight times a zero
    # increment is -0.0)
    assert s.B.tobytes() == s.B_i.sum(axis=0).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    spec=_constant_weight_specs(),
    lam=st.floats(-1.0, 1.0),
    n=st.integers(1, 500),
    seed=st.integers(0, 2**32 - 1),
)
def test_integrals_formed_over_the_callers_path_array(spec, lam, n, seed):
    # the caller's array takes the paths, then B_i over them, with the
    # statistics of fresh arrays bit for bit; one sensor's total B is its
    # own row, with no negative zero
    m = build_model(spec)
    grid = TimeGrid(2.0, n)
    want = path_statistics(simulate_paths(m, lam, grid, seed), m)
    buf = np.full((spec.K, n + 1), np.nan)
    got = path_statistics(simulate_paths(m, lam, grid, seed, buf), m, out=buf)
    assert got.B_i.base is buf and buf.flags.writeable
    for f in ("A", "B_i", "B"):
        assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), f
    if spec.K == 1:
        assert np.shares_memory(got.B, got.B_i)
        assert not np.any(np.signbit(got.B) & (got.B == 0.0))


@pytest.mark.parametrize("spec,lam", ALL_CATALOG, ids=[s.kind.value for s, _ in ALL_CATALOG])
def test_paths_into_the_callers_array(spec, lam):
    m = build_model(spec)
    grid = TimeGrid(1.5, 300)
    buf = np.full((spec.K, 301), np.nan)
    paths = simulate_paths(m, lam, grid, 4, buf)
    assert np.shares_memory(paths.Y, buf) and buf.flags.writeable and not paths.Y.flags.writeable
    assert buf.tobytes() == simulate_paths(m, lam, grid, 4).Y.tobytes()
    with pytest.raises(GridMismatch):
        simulate_paths(m, lam, grid, 4, np.empty((spec.K, 300)))
    with pytest.raises(GridMismatch):
        simulate_paths(m, lam, grid, 4, np.empty((301, spec.K)).T)
    if m.x_values(paths.Y[:, :-1], grid.times()[:-1]).shape[1] > 1:
        # time-varying weights read the path after B_i starts
        with pytest.raises(InvalidSpec):
            path_statistics(paths, m, out=buf)


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 5),
    x=st.lists(st.floats(0.1, 5.0) | st.floats(-5.0, -0.1), min_size=5, max_size=5),
    lam=st.floats(-2.0, 2.0),
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_parts_drawn_from_one_generator_are_the_models_rows(K, x, lam, n, seed):
    # each kind's parts, simulated one after another from one generator
    # into one row, are the whole model's paths bit for bit
    grid = TimeGrid(3.0, n)
    specs = [s for s, _ in ALL_CATALOG] + [ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=K, x=tuple(x[:K]))]
    for spec in specs:
        m = build_model(spec)
        parts = m.parts()
        assert sum(p.K for p in parts) == m.K and (parts == (m,) or all(p.K == 1 for p in parts))
        rng = np.random.default_rng(seed)
        buf = np.empty((parts[0].K, n + 1))
        rows = [simulate_paths(p, lam, grid, rng, buf).Y.copy() for p in parts]
        assert np.concatenate(rows).tobytes() == simulate_paths(m, lam, grid, seed).Y.tobytes()


@pytest.mark.parametrize("spec,lam", ALL_CATALOG, ids=[s.kind.value for s, _ in ALL_CATALOG])
def test_one_step_grid_gives_one_integral_term(spec, lam):
    # on one step the closed form and the step-by-step sum are the same
    # single product, whatever the weights
    m = build_model(spec)
    paths = simulate_paths(m, lam, TimeGrid(0.7, 1), seed=5)
    s = path_statistics(paths, m)
    Y = paths.Y
    X = m.x_values(Y[:, :-1], paths.grid.times()[:-1])
    np.testing.assert_array_equal(s.B_i, _riemann_b_i(m, paths)[0])
    np.testing.assert_array_equal(s.B_i, X * (Y - Y[:, :1]))


def _stats_bytes(s):
    """Bytes of the distinct buffers behind a PathStats' arrays."""
    buffers = {}
    for f in dataclasses.fields(s):
        a = getattr(s, f.name)
        if not isinstance(a, np.ndarray):
            continue
        while a.base is not None:
            a = a.base
        buffers[id(a)] = a.nbytes
    return sum(buffers.values())


def test_statistics_memory_is_linear_in_sensor_count():
    # deterministic information: nothing but the K rows of B_i and the
    # two totals may be held
    K, n = 16, 10_000
    m = brownian(K=K, x=tuple(1.0 + 0.1 * i for i in range(K)))
    s = path_statistics(simulate_paths(m, 0.5, TimeGrid(1.0, n), seed=3), m)
    assert _stats_bytes(s) <= (K + 2) * (n + 1) * 8


def test_random_information_statistics_memory():
    # random information: the K rows of A_i on top, and nothing more
    K, n = 16, 10_000
    spec = ModelSpec(kind=ModelKind.SQUARE_ROOT_DIFFUSION, K=K, x=tuple(0.1 * (i + 1) for i in range(K)))
    m = build_model(spec)
    s = path_statistics(simulate_paths(m, 0.5, TimeGrid(1.0, n), seed=3), m)
    assert _stats_bytes(s) <= (2 * K + 2) * (n + 1) * 8


def test_cross_pairs_are_the_pairs_that_can_be_nonzero():
    rho = (
        (CONST(1.0), CONST(0.4), CONST(0.0)),
        (CONST(0.4), CONST(1.0), CONST(0.2)),
        (CONST(0.0), CONST(0.2), CONST(1.0)),
    )
    b = (TimeFunction.polynomial((1.0, 0.1)), CONST(0.7), CONST(1.5))
    m = build_model(ModelSpec(kind=ModelKind.GAUSSIAN_DET_INFO, K=3, b=b, rho=rho))
    assert m.cross_pairs == ((0, 1), (1, 0), (1, 2), (2, 1))
    sig = (
        (CONST(1.0), CONST(0.0), CONST(0.0)),
        (CONST(0.5), CONST(1.0), CONST(0.0)),
        (CONST(0.0), CONST(0.0), CONST(0.8)),
    )
    m = build_model(ModelSpec(kind=ModelKind.CORRELATED_DIFFUSION, K=3, sigma=sig))
    assert m.cross_pairs == ((0, 1), (1, 0))
    paths = simulate_paths(m, 0.2, TimeGrid(2.0, 400), seed=8)
    s = path_statistics(paths, m)
    # the symmetric pair enters A twice, as the same row
    row = _random_row(m, paths, 0, 1)
    np.testing.assert_array_equal(row, _random_row(m, paths, 1, 0))
    np.testing.assert_array_equal(s.A, s.A_i.sum(axis=0) + row + row)
    assert brownian(K=3, x=(1.0, 2.0, 3.0)).cross_pairs == ()


def test_random_information_stores_only_random_cross_pairs():
    # with random information the fusion center's tA is the weighted sum
    # of the tA_i alone: every cross pair is random, counted in d_counts,
    # and adds its accumulated row into A
    sig3 = (
        (CONST(1.0), CONST(0.0), CONST(0.0)),
        (CONST(0.5), CONST(1.0), CONST(0.0)),
        (CONST(0.0), CONST(0.0), CONST(0.8)),
    )
    sig_diag = ((CONST(1.0), CONST(0.0)), (CONST(0.0), CONST(0.7)))
    specs = [spec for spec, _ in ALL_CATALOG] + [
        ModelSpec(kind=ModelKind.CORRELATED_DIFFUSION, K=3, sigma=sig3),
        ModelSpec(kind=ModelKind.CORRELATED_DIFFUSION, K=2, sigma=sig_diag),
    ]
    kinds = set()
    for spec in specs:
        m = build_model(spec)
        if m.deterministic_info:
            assert m.d_counts.tolist() == [0] * m.K
            continue
        kinds.add(m.kind)
        paths = simulate_paths(m, 0.2, TimeGrid(2.0, 400), seed=12)
        s = path_statistics(paths, m)
        np.testing.assert_array_equal(s.A, _random_info_reference(m, paths, s.A_i))
        per_sensor = [sum(1 for i, _ in m.cross_pairs if i == k) for k in range(m.K)]
        assert m.d_counts.tolist() == per_sensor
    assert kinds == {
        ModelKind.ORNSTEIN_UHLENBECK,
        ModelKind.SQUARE_ROOT_DIFFUSION,
        ModelKind.CORRELATED_DIFFUSION,
    }
    assert build_model(specs[-1]).d_counts.tolist() == [0, 0]


def test_score_is_martingale_with_matching_quadratic_variation():
    # terminal score has zero mean and second moment equal to the mean
    # accumulated information, within Monte Carlo error
    for spec, lam in (
        (ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 2.0)), 0.8),
        (ModelSpec(kind=ModelKind.ORNSTEIN_UHLENBECK, K=1, alpha=(1.0,)), 0.4),
    ):
        m = build_model(spec)
        grid = TimeGrid(2.0, 100)
        n = 10_000
        M_end = np.empty(n)
        A_end = np.empty(n)
        for rep in range(n):
            s = path_statistics(simulate_paths(m, lam, grid, seed=(505, rep)), m)
            M_end[rep] = s.B[-1] - lam * s.A[-1]
            A_end[rep] = s.A[-1]
        assert abs(M_end.mean()) <= 4.0 * np.sqrt(A_end.mean() / n)
        resid = M_end**2 - A_end
        assert abs(resid.mean()) <= 5.0 * resid.std(ddof=1) / np.sqrt(n)


def test_standardized_centralized_error_is_gaussian_for_deterministic_info():
    rho = ((CONST(1.0), CONST(0.5)), (CONST(0.5), CONST(1.0)))
    specs = (
        ModelSpec(kind=ModelKind.BROWNIAN_CONSTANT, K=2, x=(1.0, 2.0)),
        ModelSpec(kind=ModelKind.GAUSSIAN_DET_INFO, K=2, b=(CONST(1.0), CONST(1.0)), rho=rho),
    )
    for spec in specs:
        m = build_model(spec)
        grid = TimeGrid(1.0, 50)
        n = 10_000
        z = np.empty(n)
        for rep in range(n):
            s = path_statistics(simulate_paths(m, 1.0, grid, seed=(606, rep)), m)
            est = centralized_estimates(s, t=1.0)[0]
            z[rep] = np.sqrt(est.info_used) * (est.value - 1.0)
        D, p = ks_test(z)
        assert p > 0.01, f"{spec.kind}: KS p={p}"


# -- correlated diffusion: the blocked Euler solve --------------------------


def _correlated_euler_reference(spec, lam, grid, seed):
    # one state per step, on the draws simulate takes from the same seed
    tl = grid.times()[:-1]
    sig = np.stack([np.stack([f(tl) for f in row], axis=-1) for row in spec.sigma], axis=1)
    alpha = sig @ sig.transpose(0, 2, 1)
    noise = np.random.default_rng(seed).standard_normal((grid.n_steps, spec.K))
    Y = np.zeros((spec.K, grid.n_steps + 1))
    y = np.zeros(spec.K)
    for k in range(grid.n_steps):
        y = y + lam * grid.dt * (alpha[k] @ y) + np.sqrt(grid.dt) * (sig[k] @ noise[k])
        Y[:, k + 1] = y
    return Y


_unit = st.floats(-1.0, 1.0)
_sigma_entry = st.one_of(
    _unit.map(CONST),
    st.lists(st.floats(0.05, 2.9), min_size=1, max_size=3, unique=True).flatmap(
        lambda breaks: st.lists(_unit, min_size=len(breaks) + 1, max_size=len(breaks) + 1).map(
            lambda values: TimeFunction.piecewise_constant(sorted(breaks), values)
        )
    ),
    st.tuples(_unit, st.floats(-0.25, 0.25), st.floats(-0.05, 0.05)).map(TimeFunction.polynomial),
)


@st.composite
def _correlated_specs(draw):
    K = draw(st.integers(1, 4))
    sigma = tuple(tuple(draw(_sigma_entry) for _ in range(K)) for _ in range(K))
    return ModelSpec(kind=ModelKind.CORRELATED_DIFFUSION, K=K, sigma=sigma)


@settings(max_examples=100, deadline=None)
@given(
    spec=_correlated_specs(),
    lam=st.floats(-1.0, 1.0),
    # n < 4, perfect squares, and any n = L*(n // L) + r
    n=st.one_of(st.integers(1, 3), st.integers(2, 54).map(lambda r: r * r), st.integers(1, 3000)),
    t_end=st.floats(0.05, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(spec=ALL_CATALOG[4][0], lam=0.2, n=2500, t_end=3.0, seed=1)
@example(spec=ALL_CATALOG[4][0], lam=-0.5, n=2999, t_end=3.0, seed=2)
def test_correlated_blocked_solve_matches_per_step_euler(spec, lam, n, t_end, seed):
    # the blocked solve rounds differently, so it may differ from stepping
    # in the last bits, relative to the path's size so far
    grid = TimeGrid(t_end, n)
    Y = build_model(spec).simulate(lam, grid, np.random.default_rng(seed))
    ref = _correlated_euler_reference(spec, lam, grid, seed)
    assert Y.shape == (spec.K, n + 1) and Y.flags.c_contiguous
    assert np.all(Y[:, 0] == 0.0)
    scale = np.maximum.accumulate(np.abs(ref).max(axis=0))
    assert np.all(np.abs(Y - ref).max(axis=0) <= 1e-10 * scale)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_correlated_simulate_memory(K):
    # one K x K stack at a time (the sigma stack is gone before M is
    # built in place in the alpha stack), e, the path, the grid and the
    # time-function evaluation temporaries; a second K x K stack, such as
    # a padded copy of M, does not fit for K >= 3
    n = 80_000
    sigma = tuple(tuple(CONST(1.0 if i == j else 0.3) for j in range(K)) for i in range(K))
    m = build_model(ModelSpec(kind=ModelKind.CORRELATED_DIFFUSION, K=K, sigma=sigma))
    m.simulate(0.1, TimeGrid(1.0, 16), np.random.default_rng(0))
    tracemalloc.start()
    try:
        m.simulate(0.1, TimeGrid(10.0, n), np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (K * K + 2 * K + 7) * (n + 1) * 8


def test_correlated_blowup_detection():
    spec = ModelSpec(
        kind=ModelKind.CORRELATED_DIFFUSION,
        K=2,
        sigma=((CONST(1.0), CONST(0.0)), (CONST(0.5), CONST(1.0))),
    )
    m = build_model(spec)
    # past the cap (growth about e^98), then past the float range
    with pytest.raises(NumericalBlowup):
        simulate_paths(m, 0.3, TimeGrid(200.0, 40_000), seed=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalBlowup):
        simulate_paths(m, 0.3, TimeGrid(2000.0, 40_000), seed=1)


FOREIGN_FIELDS = {
    ModelKind.BROWNIAN_CONSTANT: (dict(x=(1.0, 2.0)), dict(alpha=(1.0, 1.0))),
    ModelKind.GAUSSIAN_DET_INFO: (
        dict(b=(CONST(1.0),) * 2, rho=((CONST(1.0), CONST(0.0)), (CONST(0.0), CONST(1.0)))),
        dict(x=(1.0, 1.0)),
    ),
    ModelKind.ORNSTEIN_UHLENBECK: (dict(alpha=(1.0, 0.5)), dict(y0=(1.0, 1.0))),
    ModelKind.SQUARE_ROOT_DIFFUSION: (dict(x=(1.0, 2.0), y0=(1.0, 1.0)), dict(rho=((CONST(1.0),) * 2,) * 2)),
    ModelKind.CORRELATED_DIFFUSION: (
        dict(sigma=((CONST(1.0), CONST(0.0)), (CONST(0.5), CONST(1.0)))),
        dict(x=(1.0, 1.0)),
    ),
}


@pytest.mark.parametrize("kind", list(FOREIGN_FIELDS))
def test_build_model_rejects_fields_its_kind_does_not_read(kind):
    reads, foreign = FOREIGN_FIELDS[kind]
    build_model(ModelSpec(kind=kind, K=2, **reads))
    with pytest.raises(InvalidSpec, match=next(iter(foreign))):
        build_model(ModelSpec(kind=kind, K=2, **reads, **foreign))
