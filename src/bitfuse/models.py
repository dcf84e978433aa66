"""Sensor-system model catalog, path simulation, and pathwise statistics.

Every model in the catalog describes K continuous processes whose drifts
are linear in a single common parameter ``lam``.  Each sensor i carries a
weight process X_i; the running statistics of interest are

* ``B_i``  -- the stochastic integral of X_i against the sensor's path,
* ``A_i``  -- its quadratic variation (the information carried by sensor i),
* ``B``, ``A`` -- the totals; A also counts the cross-variations between
  sensors, the pairs in ``Model.cross_pairs``.

The estimators are ratios of B and A.  The model kind decides which
information is random (see ``ModelSpec``), and its class declares, in
``spec_fields``, the only ``ModelSpec`` fields it reads: the run-file
parser takes them as the model section's keys, and ``build_model``
rejects a spec that sets any other.  Deterministic A is the
closed form ``Model.det_info``, the number the fusion center divides by;
with random information the fusion center uses tA = sum_i (1 + d_i) tA_i.

Paths are simulated with Euler-Maruyama on a uniform grid.  Where the
scheme is linear in the path there is no loop over time steps: the OU
recursion runs as an IIR filter (scipy's ``lfilter``, imported on the
first OU simulation rather than with this module, since
``scipy.signal`` loads much of scipy), and the correlated diffusion's
y_{k+1} = (I + lam dt sigma sigma^T(t_k)) y_k + sqrt(dt) sigma(t_k) z_k
is solved in blocks of about sqrt(n) steps (``_linear_recursion``), about
3 sqrt(n) Python iterations in all and no copy of the K x K stacks.  The
blocked solve is not bit-identical to stepping one state at a time: its
rounding moves in the last bits.  Only the square-root diffusion, whose
full truncation is nonlinear, steps in a Python loop.

Quadratic (co)variations are accumulated from the model's diffusion coefficients,
not from realized squared increments, and deterministic information is
evaluated in closed form so downstream bound audits are exact at the
grid points; its per-sensor rows are not stored, since ``det_info_i``
gives them wherever they are read.  With a constant weight the
left-endpoint sum for B_i telescopes to x_i (Y_i - Y_i(0)).
Cross-variations are added into A as they are formed and never stored,
so statistics memory is K + 2 rows of the grid for deterministic
information and 2K + 2 for random information, on top of the paths' K.
A replication need not hold them all: where the sensors are independent
and draw their noise one after another (``Model.parts``), the paths can
be simulated one sensor at a time into the caller's row
(``simulate_paths``' ``out``), and a constant-weight B_i formed over it
(``path_statistics``' ``out``); one sensor's total B is its own B_i row,
so such a sensor holds its row, the closed-form A and the grid times.

The exponential-integrability condition that makes the drifted law a
proper change of measure is assumed for every catalog model and is not
checked for user-supplied coefficient tables.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import reduce

import numpy as np

from .errors import GridMismatch, InvalidSpec, NumericalBlowup
from .timefuncs import TimeFunction, as_timefunction

__all__ = [
    "ModelKind",
    "ModelSpec",
    "TimeGrid",
    "SensorPaths",
    "PathStats",
    "Model",
    "build_model",
    "spec_fields",
    "simulate_paths",
    "path_statistics",
]

_BLOWUP_CAP = 1e12


class ModelKind(str, Enum):
    BROWNIAN_CONSTANT = "brownian_constant"
    GAUSSIAN_DET_INFO = "gaussian_det_info"
    ORNSTEIN_UHLENBECK = "ornstein_uhlenbeck"
    SQUARE_ROOT_DIFFUSION = "square_root_diffusion"
    CORRELATED_DIFFUSION = "correlated_diffusion"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform simulation grid on [0, t_end] with n_steps intervals."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise InvalidSpec("t_end must be positive and finite")
        if self.n_steps < 1:
            raise InvalidSpec("n_steps must be at least 1")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        """The n_steps + 1 grid times k * dt, ending at t_end: computed
        once per grid and read-only, so every layer shares one array."""
        times = self.__dict__.get("_times")
        if times is None:
            times = np.linspace(0.0, self.t_end, self.n_steps + 1)
            times.flags.writeable = False
            # a cache, not a field: equality, hashing and repr ignore it
            object.__setattr__(self, "_times", times)
        return times

    def prefix(self, m: int) -> "TimeGrid":
        """The grid of the first m' >= m steps, with this grid's dt and
        first m' + 1 times bit for bit: m' is the least one at which
        (m' dt) / m' rounds back to dt, which holds for almost every m.
        This grid itself when m' reaches n_steps."""
        dt = self.dt
        for k in range(max(1, m), self.n_steps):
            if (k * dt) / k == dt:
                return TimeGrid(k * dt, k)
        return self

    def stride(self, h: float) -> int:
        """The number of grid steps in the sampling period h.  Raises
        ``InvalidSpec`` unless h is a whole number of steps, at least
        one, to a relative 1e-9."""
        steps = h / self.dt
        n = round(steps) if math.isfinite(steps) else 0
        if n < 1 or abs(n * self.dt - h) > 1e-9 * h:
            raise InvalidSpec("sampling period h must be an integer multiple of the grid step")
        return n


def _as_matrix_of_timefunctions(entries, K, name):
    if entries is None:
        raise InvalidSpec(f"{name} matrix is required for this model kind")
    rows = tuple(tuple(as_timefunction(v) for v in row) for row in entries)
    if len(rows) != K or any(len(r) != K for r in rows):
        raise InvalidSpec(f"{name} must be a {K}x{K} matrix")
    return rows


def _path_array(K, grid, out):
    """The caller's C-contiguous (K, n_steps + 1) float array ``out``,
    or a new one when it is None."""
    if out is None:
        return np.empty((K, grid.n_steps + 1))
    if out.shape != (K, grid.n_steps + 1) or out.dtype != float or not out.flags.c_contiguous:
        raise GridMismatch("output array must be a C-contiguous float array of the paths' shape")
    return out


def _matrix_stack(fns, times):
    """Evaluate a K x K table of time functions; shape (times.size, K, K)."""
    K = len(fns)
    stack = np.empty((times.size, K, K))
    for i in range(K):
        for j in range(K):
            stack[:, i, j] = fns[i][j](times)
    return stack


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a K-sensor system.

    Besides ``kind`` and ``K``, each kind reads the fields its model
    class names in ``spec_fields``; ``build_model`` rejects a spec that
    sets any other field.

    * brownian_constant: ``x`` (nonzero weights); sensors are independent
      unit-variance noise plus drift lam*x_i*t.
    * gaussian_det_info: ``b`` (deterministic weight functions) and
      ``rho`` (instantaneous covariance matrix of the noise); all
      information processes are deterministic.
    * ornstein_uhlenbeck: ``alpha`` (positive constants); sensor i solves
      dY = lam*alpha_i*Y dt + sqrt(alpha_i) dW, independently.
    * square_root_diffusion: ``x`` and optional ``y0`` (start values);
      dY = lam*x_i*Y dt + sqrt(max(Y,0)) dW.  Started at 0 the process is
      absorbed there, so the default start is 1.0 per sensor.
    * correlated_diffusion: ``sigma`` (matrix of time functions); the
      weight process is the path itself and the noise is sigma(t) dW, so
      cross-variations with a nonzero diffusion product are random.

    The kind decides which information is random: all of it for the OU,
    square-root and correlated diffusions, none for the other two.  The
    only random cross-variations are the correlated diffusion's nonzero
    diffusion products; with d_i of them at sensor i, the fusion center
    uses tA = sum_i (1 + d_i) tA_i.
    """

    kind: ModelKind
    K: int
    x: tuple[float, ...] | None = None
    b: tuple[TimeFunction, ...] | None = None
    rho: tuple[tuple[TimeFunction, ...], ...] | None = None
    alpha: tuple[float, ...] | None = None
    sigma: tuple[tuple[TimeFunction, ...], ...] | None = None
    y0: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SensorPaths:
    """Simulated sensor paths on a grid.

    ``Y`` has shape (K, n_steps + 1).  All kinds start from 0 except the
    square-root diffusion, which starts from its configured ``y0``.
    """

    grid: TimeGrid
    Y: np.ndarray
    lambda_true: float

    def __post_init__(self):
        self.Y.flags.writeable = False


@dataclass(frozen=True)
class PathStats:
    """Pathwise sufficient statistics on the simulation grid.

    Arrays are indexed like the grid times: the per-sensor rows ``A_i``
    and ``B_i`` (shape (K, n + 1)) and the totals ``A`` and ``B``, whose
    A includes the cross-variations of the model's ``cross_pairs``.
    ``A_i`` is None when the model's information is deterministic: its
    rows are the closed form ``Model.det_info_i``.  The fields come in
    the order ``path_statistics`` forms them, the information first.
    """

    grid: TimeGrid
    A_i: np.ndarray | None
    A: np.ndarray
    B_i: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        for a in (self.A_i, self.A, self.B_i, self.B):
            if a is not None:
                a.flags.writeable = False

    def value_at(self, arr: np.ndarray, t):
        """Linear interpolation of a stored path array at times t.

        At a scalar time only the bracketing step is passed to
        ``np.interp``: it then searches two points instead of the grid
        and does the same float operations on them."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.grid.t_end * (1 + 1e-12)):
            raise GridMismatch("evaluation time outside simulated horizon")
        t = np.clip(t, 0.0, self.grid.t_end)
        times = self.grid.times()
        if t.ndim:
            return np.interp(t, times, arr)
        # times[k - 1] <= t < times[k], or the last step when t is its end
        k = min(int(times.searchsorted(t, "right")), times.size - 1)
        return float(np.interp(t, times[k - 1:k + 1], arr[k - 1:k + 1]))


class Model:
    """A validated model: coefficient evaluators plus closed forms.

    Subclasses implement ``_setup`` (field validation), the simulation
    step, the weight-process values along a path, and either the
    instantaneous quadratic-variation density, when the information is
    random, or the closed-form information, when it is deterministic.
    A cross-variation that is not identically zero
    (a pair in ``cross_pairs``) is random exactly when the kind's
    information is; ``d_counts[i]`` counts sensor i's random ones.
    """

    kind: ModelKind
    deterministic_info: bool
    spec_fields: tuple  # the ModelSpec fields the kind reads besides kind and K

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.K = spec.K
        self._setup(spec)
        # ordered off-diagonal pairs whose cross-variation enters A
        self.cross_pairs = tuple(
            (i, j)
            for i in range(self.K)
            for j in range(self.K)
            if i != j and not self._cross_is_zero(i, j)
        )
        self.d_counts = np.zeros(self.K, dtype=int)
        if not self.deterministic_info:
            for i, _ in self.cross_pairs:
                self.d_counts[i] += 1

    def _setup(self, spec: ModelSpec):
        raise NotImplementedError

    def _cross_is_zero(self, i: int, j: int) -> bool:
        """Whether the cross-variation of an off-diagonal pair is identically zero."""
        return True

    # -- interface implemented per kind ---------------------------------

    def simulate(self, lam: float, grid: TimeGrid, rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
        """The (K, n_steps + 1) paths, written into ``out`` when given."""
        raise NotImplementedError

    def parts(self) -> tuple:
        """The models an attempt simulates one after another from its one
        generator: the model itself, or K one-sensor models when the
        sensors are independent and draw their noise one after another
        ((K, n) in C order), so that the parts' paths are the model's rows
        bit for bit."""
        return (self,)

    def x_values(self, Y: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Weight-process values X_i at the left endpoints.

        ``Y`` and ``times`` hold the path and the grid times at the n left
        endpoints.  The result broadcasts to shape (K, n).
        """
        raise NotImplementedError

    def qv_density(self, i: int, j: int, Y: np.ndarray, times: np.ndarray):
        """d<Y_i, Y_j>/dt at the left endpoints, broadcastable to (n,).

        Called only for pairs whose (cross-)variation is random.
        """
        raise NotImplementedError

    def det_info_i(self, i: int, t):
        """Closed-form A_i(t); only valid when deterministic_info."""
        raise InvalidSpec("per-sensor information is random for this model")

    def det_info(self, t):
        """Closed-form total A(t); only valid when deterministic_info."""
        raise InvalidSpec("total information is random for this model")


class _BrownianConstantModel(Model):
    kind = ModelKind.BROWNIAN_CONSTANT
    deterministic_info = True
    spec_fields = ("x",)

    def _setup(self, spec):
        if spec.x is None or len(spec.x) != spec.K:
            raise InvalidSpec("brownian_constant requires K weights x")
        if not all(math.isfinite(v) and v != 0 for v in spec.x):
            raise InvalidSpec(f"weights x must be finite and nonzero, got {list(spec.x)}")
        self.x = np.asarray(spec.x, dtype=float)

    def simulate(self, lam, grid, rng, out=None):
        # one sensor at a time through one n-long buffer: standard_normal
        # fills it in C order, so the draws are those of one (K, n) call
        # the drift (lam x) t is formed in the same buffer once the row's
        # cumsum has read the draws; adding it at t = 0 would add zero
        times = grid.times()[1:]
        sdt = np.sqrt(grid.dt)
        noise = np.empty(grid.n_steps)
        Y = _path_array(self.K, grid, out)
        Y[:, 0] = 0.0
        for row, x in zip(Y, self.x):
            rng.standard_normal(out=noise)
            noise *= sdt
            np.cumsum(noise, out=row[1:])
            row[1:] += np.multiply(times, lam * x, out=noise)
        return Y

    def parts(self):
        return tuple(build_model(replace(self.spec, K=1, x=(v,))) for v in self.spec.x)

    def x_values(self, Y, times):
        return self.x[:, None]

    def det_info_i(self, i, t):
        return self.x[i] ** 2 * np.asarray(t, dtype=float)

    def det_info(self, t):
        return float(np.sum(self.x**2)) * np.asarray(t, dtype=float)


class _GaussianDetInfoModel(Model):
    kind = ModelKind.GAUSSIAN_DET_INFO
    deterministic_info = True
    spec_fields = ("b", "rho")

    def _setup(self, spec):
        if spec.b is None or len(spec.b) != spec.K:
            raise InvalidSpec("gaussian_det_info requires K weight functions b")
        self.b = tuple(as_timefunction(f) for f in spec.b)
        self.rho = _as_matrix_of_timefunctions(spec.rho, spec.K, "rho")
        for i in range(self.K):
            for j in range(i + 1, self.K):
                if self.rho[i][j] != self.rho[j][i]:
                    raise InvalidSpec("rho must be symmetric")
        self._check_psd()
        self._cross_integrand = tuple(
            tuple(self.b[i] * self.b[j] * self.rho[i][j] for j in range(self.K))
            for i in range(self.K)
        )
        self._total_integrand = reduce(
            operator.add, [f for row in self._cross_integrand for f in row]
        )

    def _sample_times(self):
        breaks = sorted(
            {b for f in self.b for b in f.breaks}
            | {b for row in self.rho for f in row for b in f.breaks}
        )
        pts = [0.0] + breaks + [(breaks[-1] if breaks else 0.0) + 1.0]
        t = []
        for lo, hi in zip(pts, pts[1:]):
            t.extend(np.linspace(lo, hi, 5)[:-1])
        t.extend([pts[-1], pts[-1] + 10.0, pts[-1] + 100.0])
        return np.asarray(t)

    def _check_psd(self):
        # best-effort check at piece edges and a handful of interior points
        for t in self._sample_times():
            m = np.array([[self.rho[i][j](t) for j in range(self.K)] for i in range(self.K)])
            w = np.linalg.eigvalsh(m)
            if w.min() < -1e-9 * max(1.0, abs(w).max()):
                raise InvalidSpec(f"non-positive-semidefinite correlation at t={t}")

    def _cross_is_zero(self, i, j):
        return self._cross_integrand[i][j].is_zero

    def simulate(self, lam, grid, rng, out=None):
        dt = grid.dt
        tl = grid.times()[:-1]
        b_vals = np.stack([f(tl) for f in self.b])  # (K, n)
        rho = _matrix_stack(self.rho, tl)  # (n, K, K)
        drift = lam * np.einsum("nij,jn->in", rho, b_vals) * dt
        w, V = np.linalg.eigh(rho)
        if w.min() < -1e-9 * max(1.0, float(abs(w).max())):
            raise InvalidSpec("correlation matrix not positive semidefinite along the grid")
        root = V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]  # (n, K, K), root @ root^T = rho
        z = rng.standard_normal((grid.n_steps, self.K))
        incr = np.einsum("nij,nj->in", root, z) * np.sqrt(dt) + drift
        Y = _path_array(self.K, grid, out)
        Y[:, 0] = 0.0
        Y[:, 1:] = np.cumsum(incr, axis=1)
        return Y

    def x_values(self, Y, times):
        return np.stack([f(times) for f in self.b])

    def det_info_i(self, i, t):
        return self._cross_integrand[i][i].integral(t)

    def det_info(self, t):
        return self._total_integrand.integral(t)


class _OrnsteinUhlenbeckModel(Model):
    kind = ModelKind.ORNSTEIN_UHLENBECK
    deterministic_info = False
    spec_fields = ("alpha",)

    def _setup(self, spec):
        if spec.alpha is None or len(spec.alpha) != spec.K:
            raise InvalidSpec("ornstein_uhlenbeck requires K positive constants alpha")
        if not all(0 < a < math.inf for a in spec.alpha):
            raise InvalidSpec(f"alpha must be finite and positive, got {list(spec.alpha)}")
        self.alpha = np.asarray(spec.alpha, dtype=float)

    def simulate(self, lam, grid, rng, out=None):
        # imported here, not at module level: scipy.signal pulls in
        # scipy.stats, interpolate and optimize, which nothing else runs
        from scipy.signal import lfilter

        dt = grid.dt
        noise = rng.standard_normal((self.K, grid.n_steps))
        Y = _path_array(self.K, grid, out)
        Y[:, 0] = 0.0
        for i in range(self.K):
            a = 1.0 + lam * self.alpha[i] * dt
            e = np.sqrt(self.alpha[i] * dt) * noise[i]
            # linear Euler recursion y_k = a*y_{k-1} + e_k as an IIR filter
            Y[i, 1:] = lfilter([1.0], [1.0, -a], e)
        return Y

    def x_values(self, Y, times):
        return Y

    def qv_density(self, i, j, Y, times):
        return self.alpha[i] if i == j else 0.0


class _SquareRootDiffusionModel(Model):
    kind = ModelKind.SQUARE_ROOT_DIFFUSION
    deterministic_info = False
    spec_fields = ("x", "y0")

    def _setup(self, spec):
        if spec.x is None or len(spec.x) != spec.K:
            raise InvalidSpec("square_root_diffusion requires K weights x")
        if not all(math.isfinite(v) and v != 0 for v in spec.x):
            raise InvalidSpec(f"weights x must be finite and nonzero, got {list(spec.x)}")
        self.x = np.asarray(spec.x, dtype=float)
        y0 = spec.y0 if spec.y0 is not None else tuple(1.0 for _ in range(spec.K))
        if len(y0) != spec.K or not all(0 <= v < math.inf for v in y0):
            raise InvalidSpec(f"y0 must give K finite nonnegative start values, got {list(y0)}")
        self.y0 = np.asarray(y0, dtype=float)

    def simulate(self, lam, grid, rng, out=None):
        dt = grid.dt
        sdt = np.sqrt(dt)
        noise = rng.standard_normal((self.K, grid.n_steps))
        Y = _path_array(self.K, grid, out)
        Y[:, 0] = self.y0
        y = self.y0.copy()
        for k in range(grid.n_steps):
            yp = np.maximum(y, 0.0)  # full truncation
            y = y + lam * self.x * yp * dt + np.sqrt(yp) * sdt * noise[:, k]
            Y[:, k + 1] = y
        return Y

    def x_values(self, Y, times):
        return self.x[:, None]

    def qv_density(self, i, j, Y, times):
        return np.maximum(Y[i], 0.0) if i == j else 0.0


def _linear_recursion(M, e, Y):
    """Solve y_0 = 0, y_{k+1} = M_k y_k + e_k for k < n, in blocks.

    ``M`` has shape (n, K, K) and ``e`` shape (n, K); the states y_0 ..
    y_n are written into the C-contiguous (K, n + 1) array ``Y``, which
    is returned.  The n steps split into n // L blocks of L = isqrt(n)
    steps.  Pass 1 runs every block at once from a zero start and keeps
    its end value z_b and its transition product P_b; one loop over the
    blocks chains their true start states s_{b+1} = P_b s_b + z_b; pass
    2 runs every block again from s_b, writing the states in place; the
    fewer than L steps left over continue from the last block's end.  That is about 3 sqrt(n)
    Python iterations on (n / L, K) and (n / L, K, K) arrays instead of
    n on single states, and no copy of ``M`` or ``e``.  Rounding differs
    from stepping one state at a time in the last bits.
    """
    n, K = e.shape
    L = math.isqrt(n)
    nb = n // L
    m = nb * L
    Y[:, 0] = 0.0
    Yt = Y.T[1:]  # Yt[k] is y_{k+1}, a view
    Mb = M[:m].reshape(nb, L, K, K)
    eb = e[:m].reshape(nb, L, K, 1)
    Yb = Yt[:m].reshape(nb, L, K)

    # columns [z_b | P_b], so one product per step advances both
    Z = np.zeros((nb, K, K + 1))
    Z[:, :, 1:] = np.eye(K)
    for j in range(L):
        Z = Mb[:, j] @ Z
        Z[:, :, :1] += eb[:, j]
    s = np.empty((nb, K, 1))
    y = np.zeros((K, 1))
    for b in range(nb):
        s[b] = y
        y = Z[b, :, 1:] @ y + Z[b, :, :1]
    for j in range(L):
        s = Mb[:, j] @ s + eb[:, j]
        Yb[:, j] = s[:, :, 0]
    y = Yt[m - 1][:, None]
    for k in range(m, n):
        y = M[k] @ y + e[k][:, None]
        Yt[k] = y[:, 0]
    return Y


class _CorrelatedDiffusionModel(Model):
    """dY = lam sigma sigma^T(t) Y dt + sigma(t) dW, started at 0.

    The Euler scheme is the affine recursion y_{k+1} = M_k y_k + e_k with
    M_k = I + lam dt alpha_k (alpha = sigma sigma^T, in closed form) and
    e_k = sqrt(dt) sigma_k z_k.  ``simulate`` builds M in place in the
    alpha stack and solves the recursion in blocks (``_linear_recursion``):
    about 3 sqrt(n) Python iterations on small arrays instead of n, the
    same code for every K and every piecewise-polynomial sigma.  Memory is
    one K x K stack, the draws and the path.  The result matches stepping
    one state at a time up to rounding, not bit for bit.
    """

    kind = ModelKind.CORRELATED_DIFFUSION
    deterministic_info = False
    spec_fields = ("sigma",)

    def _setup(self, spec):
        self.sigma = _as_matrix_of_timefunctions(spec.sigma, spec.K, "sigma")
        # instantaneous covariance sigma sigma^T, entrywise in closed form
        self.alpha_fn = tuple(
            tuple(
                reduce(operator.add, [self.sigma[i][k] * self.sigma[j][k] for k in range(self.K)])
                for j in range(self.K)
            )
            for i in range(self.K)
        )

    def _cross_is_zero(self, i, j):
        return self.alpha_fn[i][j].is_zero

    def simulate(self, lam, grid, rng, out=None):
        n, K = grid.n_steps, self.K
        tl = grid.times()[:-1]
        # e_k = sqrt(dt) sigma_k z_k; the sigma stack and the draws are
        # temporaries of this one expression
        e = np.matmul(_matrix_stack(self.sigma, tl), rng.standard_normal((n, K))[:, :, None])[:, :, 0]
        e *= np.sqrt(grid.dt)
        # M_k = I + lam dt alpha_k, built in place in the alpha stack
        M = _matrix_stack(self.alpha_fn, tl)
        M *= lam * grid.dt
        M.reshape(n, K * K)[:, :: K + 1] += 1.0
        return _linear_recursion(M, e, _path_array(K, grid, out))

    def x_values(self, Y, times):
        return Y

    def qv_density(self, i, j, Y, times):
        return self.alpha_fn[i][j](times)


_MODEL_CLASSES = {
    ModelKind.BROWNIAN_CONSTANT: _BrownianConstantModel,
    ModelKind.GAUSSIAN_DET_INFO: _GaussianDetInfoModel,
    ModelKind.ORNSTEIN_UHLENBECK: _OrnsteinUhlenbeckModel,
    ModelKind.SQUARE_ROOT_DIFFUSION: _SquareRootDiffusionModel,
    ModelKind.CORRELATED_DIFFUSION: _CorrelatedDiffusionModel,
}


def spec_fields(kind) -> tuple:
    """The ModelSpec fields a model kind reads besides ``kind`` and ``K``."""
    return _MODEL_CLASSES[ModelKind(kind)].spec_fields


def build_model(spec: ModelSpec) -> Model:
    """Validate a spec and return a model with coefficient evaluators.

    Raises InvalidSpec on a field the kind does not read, zero weights,
    malformed coefficient tables, or a non-positive-semidefinite
    correlation table.
    """
    if spec.K < 1:
        raise InvalidSpec("K must be at least 1")
    cls = _MODEL_CLASSES[ModelKind(spec.kind)]
    reads = ("kind", "K") + cls.spec_fields
    foreign = [f.name for f in fields(spec) if f.name not in reads and getattr(spec, f.name) is not None]
    if foreign:
        raise InvalidSpec(f"{cls.kind.value} does not read {', '.join(foreign)}")
    return cls(spec)


def simulate_paths(model: Model, lam: float, grid: TimeGrid, seed, out=None) -> SensorPaths:
    """Simulate one replication of the sensor paths.

    The generator is seeded from ``seed`` alone (an int or a seed
    sequence), so identical (model, lam, grid, seed) inputs reproduce
    bit-identical paths; a ``np.random.Generator`` is used as it is, so
    calls on one generator continue its stream.  With ``out``, the
    caller's C-contiguous (K, n_steps + 1) float array, the paths are
    written there and ``SensorPaths.Y`` is a read-only view of it.  A
    path beyond ``_BLOWUP_CAP`` in magnitude raises ``NumericalBlowup``.
    """
    rng = np.random.default_rng(seed)
    Y = model.simulate(float(lam), grid, rng, out)
    # reductions, not abs(): no temporary of the path's size; NaN fails the test
    if not (-_BLOWUP_CAP <= Y.min() and Y.max() <= _BLOWUP_CAP):
        raise NumericalBlowup(
            f"path magnitude exceeded {_BLOWUP_CAP:g}; refine the grid or shorten the horizon"
        )
    return SensorPaths(grid=grid, Y=Y if out is None else Y.view(), lambda_true=float(lam))


def _check_integrals(B_i):
    # reductions, not abs(): no temporary of the array's size; NaN fails the test
    if not (-_BLOWUP_CAP <= B_i.min() and B_i.max() <= _BLOWUP_CAP):
        raise NumericalBlowup(f"integral B_i exceeded {_BLOWUP_CAP:g}; shorten the horizon")


def path_statistics(paths: SensorPaths, model: Model, reach: float | None = None,
                    out: np.ndarray | None = None) -> PathStats:
    """Compute B_i, A_i and their totals B and A along a simulated path.

    Stochastic integrals are left-endpoint Riemann sums.  When the weights
    are constant (``model.x_values`` has one column) the sum telescopes,
    so B_i is x_i (Y_i - Y_i(0)); each such row is formed, checked and
    added into B while it is in cache, starting from +0.0 and in sensor
    order as ``B_i.sum(axis=0)`` adds, so B has the same bits.
    Time-varying weights are summed step by step.  Deterministic
    information is the closed form: A is ``model.det_info`` and ``A_i``
    is None, its rows being ``model.det_info_i``.  Random information
    accumulates the model's diffusion coefficients, so the per-step
    cross-variation bound |A_ij| <= (A_i + A_j)/2 holds exactly; A is
    the sum of the A_i plus each pair of ``model.cross_pairs``, added as
    it is formed.  Memory is K + 2 rows of the grid for deterministic
    information and 2K + 2 for random information, one row less for one
    sensor with a constant weight: its B is its own B_i row, 0.0 + B_1
    formed in place (so B_1's zeros are +0.0 there).  With ``out``, the
    caller's array of the paths' shape, B_i is formed in its first
    columns instead of a new array.  It may be the array the paths were
    simulated into (``simulate_paths``' ``out``) when the weights are
    constant: each path row is read before its B_i row overwrites it,
    and the paths are gone afterwards; with time-varying weights, which
    read the path after B_i starts, that raises ``InvalidSpec``.  An
    integral B_i or an information A_i beyond ``_BLOWUP_CAP`` raises
    ``NumericalBlowup``: the triggers could not send the messages such a
    statistic asks for.

    With ``reach`` given, the statistics end on ``grid.prefix(m + 2)``,
    m the first step where A reaches ``reach`` (the whole grid when it
    never does).  The information is formed once over the whole grid and
    its first values kept as views; B_i and B are formed on the prefix
    only.  Cumulative sums are running sums, so every field holds the
    whole grid's first values bit for bit; the checks read the prefix.
    The views keep the whole grid's A, and random A_i, alive for as long
    as the statistics are held: K + 1 rows of the whole grid for random
    information and 1 for deterministic, besides the prefix's B_i and B.
    """
    grid = paths.grid
    times = grid.times()
    K = model.K
    if paths.Y.shape != (K, times.size):
        raise GridMismatch("path array shape does not match grid and sensor count")
    Yl, tl = paths.Y[:, :-1], times[:-1]
    X = model.x_values(Yl, tl)
    if model.deterministic_info:
        A_i, A = None, model.det_info(times)
    else:
        def random_part(i, j):
            out = np.zeros(times.size)
            np.cumsum(X[i] * X[j] * model.qv_density(i, j, Yl, tl) * grid.dt, out=out[1:])
            return out

        A_i = np.empty((K, times.size))
        for i in range(K):
            A_i[i] = random_part(i, i)
        A = A_i.sum(axis=0)
        # same summation order as over all off-diagonal pairs; the skipped
        # pairs add exact zeros
        for i, j in model.cross_pairs:
            A = A + random_part(i, j)
    if reach is not None:
        m = int(np.argmax(A >= reach))
        if A[m] >= reach:
            grid = grid.prefix(m + 2)
            A = A[:grid.n_steps + 1]
            A_i = None if A_i is None else A_i[:, :grid.n_steps + 1]
    n = grid.n_steps
    Y, X = paths.Y[:, :n + 1], X[:, :n]

    if out is None:
        B_i = np.empty((K, n + 1))
    elif out.shape != paths.Y.shape:
        raise GridMismatch("output array shape does not match the paths")
    elif X.shape[1] != 1 and np.may_share_memory(out, paths.Y):
        raise InvalidSpec("B_i can overwrite the paths only when the weights are constant")
    else:
        B_i = out[:, :n + 1]
    if X.shape[1] == 1:
        # constant weights: the sum of X * dY telescopes; on a one-step
        # grid both forms are the same single term.  One sensor's total
        # is its own row, 0.0 + B_1 formed in place
        B = np.zeros(n + 1) if K > 1 else B_i[0]
        for y, x, row in zip(Y, X, B_i):
            np.subtract(y, y[0], out=row)
            row *= x
            _check_integrals(row)
            B += row if K > 1 else 0.0
    else:
        # the increments X * dY are formed and summed in place in B_i
        B_i[:, 0] = 0.0
        dB = np.subtract(Y[:, 1:], Y[:, :-1], out=B_i[:, 1:])
        dB *= X
        np.cumsum(dB, axis=1, out=dB)
        _check_integrals(B_i)
        B = B_i.sum(axis=0)

    if A_i is None:
        A_end = [model.det_info_i(i, times[n]) for i in range(K)]
    else:
        A_end = A_i[:, -1]
    # information is nondecreasing: its end values bound it, sensor by
    # sensor (a total with negative cross terms can sit below one A_i)
    if not np.all(np.asarray(A_end) <= _BLOWUP_CAP):
        raise NumericalBlowup(f"information A_i exceeded {_BLOWUP_CAP:g}; shorten the horizon")
    return PathStats(grid=grid, A_i=A_i, A=A, B_i=B_i, B=B)
