"""Hamiltonian vector fields, adaptive integration, block clocks.

The integrator is an embedded explicit Runge-Kutta 5(4) pair with the
classic quartic dense-output interpolant, a PI step-size controller
(safety 0.9, step-ratio clip [0.2, 5]), and first-same-as-last stage
reuse.  Dense output is what makes the orbit comparison work: the full
system acts as the master clock, and the reduced orbit is sampled at
the rescaled times tau_r(t) without ever inverting the clock map.

Backward integration (t_end < t_start) is supported; reduced orbits run
backward whenever the twist function is negative along the orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import expr as _expr
from . import model as _model
from .model import ModelError, PhasePoint, TwistedSystem


class DynamicsError(Exception):
    """Base class for integration and comparison failures."""


class IntegrationError(DynamicsError):
    """Integration could not cover the requested span.

    Carries the last good time, the state there, and the partial
    trajectory accumulated before the failure.
    """

    def __init__(self, reason: str, t_last: float, state_last=None,
                 partial=None):
        self.reason = reason
        self.t_last = t_last
        self.state_last = None if state_last is None else np.array(state_last)
        self.partial = partial
        super().__init__(f"{reason} (last good time t={t_last:.12g})")


class EmptySegmentError(DynamicsError):
    """The twist function vanishes at the start of the orbit, so no
    constant-sign comparison window exists."""


# ---------------------------------------------------------------------------
# Runge-Kutta 5(4) tableau with quartic dense output

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])

_A = (
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
              -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)

_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
               11 / 84, 0.0])

# difference between the 5th- and the embedded 4th-order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])

_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423,
     69997945 / 29380423],
])

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
# PI controller exponents for a 5th-order error estimate
_BETA1 = 0.7 / 5
_BETA2 = 0.4 / 5


@dataclass
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = math.inf
    max_steps: int = 1_000_000


@dataclass(frozen=True)
class IntegrationStats:
    accepted: int
    rejected: int
    field_evaluations: int
    rtol: float
    atol: float


class Trajectory:
    """Accepted-step samples plus per-step dense-output coefficients.

    Times are strictly monotone in the direction of integration.
    ``sample`` evaluates the quartic interpolant of the step containing
    the requested time.
    """

    def __init__(self, ts, ys, steps, stats: IntegrationStats):
        self.ts = np.asarray(ts, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self._steps = steps  # list of (t_old, h, y_old, Q[d x 4])
        self.stats = stats
        self.direction = 1.0 if self.ts[-1] >= self.ts[0] else -1.0
        self._keys = self.ts * self.direction

    def __len__(self):
        return len(self.ts)

    @property
    def t_start(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def dim(self) -> int:
        return self.ys.shape[1]

    def sample(self, t: float) -> np.ndarray:
        """Dense-output state at time t (within the covered span)."""
        key = t * self.direction
        lo = self._keys[0]
        hi = self._keys[-1]
        slack = 1e-9 * max(1.0, hi - lo)
        if key < lo - slack or key > hi + slack:
            raise DynamicsError(
                f"time {t} outside trajectory span "
                f"[{self.t_start}, {self.t_end}]")
        i = int(np.searchsorted(self._keys, key, side="right")) - 1
        i = min(max(i, 0), len(self._steps) - 1)
        t_old, h, y_old, Q = self._steps[i]
        theta = (t - t_old) / h
        theta = min(max(theta, 0.0), 1.0)
        powers = np.array([theta, theta**2, theta**3, theta**4])
        return y_old + h * (Q @ powers)

    def sample_many(self, ts) -> np.ndarray:
        return np.array([self.sample(float(t)) for t in ts])


def integrate(field: Callable, y0, t_span, config: IntegratorConfig | None
              = None) -> Trajectory:
    """Integrate y' = field(t, y) over t_span with adaptive RK5(4).

    Raises :class:`IntegrationError` on step underflow or when the
    field fails to evaluate (for example on hitting the singular set of
    the separation matrix); the error carries the partial trajectory.
    """
    cfg = config or IntegratorConfig()
    y = np.array(y0, dtype=float)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 == t0:
        raise DynamicsError("degenerate integration span")
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)

    nfev = 0

    def f(t, yv):
        nonlocal nfev
        nfev += 1
        try:
            out = np.asarray(field(t, yv), dtype=float)
        except (_expr.ExprError, ModelError) as ex:
            raise _FieldFailure(t, str(ex)) from ex
        return out

    ts = [t0]
    ys = [y.copy()]
    steps = []
    accepted = 0
    rejected = 0

    def bail(reason, t_last):
        stats = IntegrationStats(accepted, rejected, nfev, cfg.rtol, cfg.atol)
        partial = (Trajectory(ts, ys, steps, stats) if steps else None)
        raise IntegrationError(reason, t_last, ys[-1], partial)

    try:
        k1 = f(t0, y)
    except _FieldFailure as ff:
        raise IntegrationError(
            f"field evaluation failed at the initial state: {ff.detail}",
            t0, y, None) from None
    if not np.all(np.isfinite(k1)):
        raise IntegrationError("field not finite at the initial state",
                               t0, y, None)

    h = _initial_step(f, t0, y, k1, direction, cfg, span)
    t = t0
    err_prev = 1e-4
    K = np.empty((7, y.size))

    while (t - t1) * direction < 0.0:
        if accepted + rejected >= cfg.max_steps:
            bail("step budget exhausted", t)
        h = min(h, span, cfg.max_step)
        if h * (1 + 1e-12) >= abs(t1 - t):
            h = abs(t1 - t)
        hs = h * direction
        hmin = 16 * np.finfo(float).eps * max(abs(t), abs(t1))
        if h <= hmin:
            bail("step size underflow (possible singularity or "
                 "vanishing separation determinant nearby)", t)

        failed = None
        K[0] = k1
        for i in range(1, 7):
            try:
                K[i] = f(t + _C[i] * hs, y + hs * (_A[i] @ K[:i]))
            except _FieldFailure as ff:
                failed = ff
                break
        if failed is not None:
            # try to creep toward the failure with smaller steps
            rejected += 1
            h *= _FACTOR_MIN
            if h <= hmin:
                bail(f"field evaluation failed: {failed.detail}", t)
            continue

        y1 = y + hs * (_B @ K)
        err_vec = hs * (_E @ K)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y1))
        with np.errstate(invalid="ignore", over="ignore"):
            err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if not np.isfinite(err):
            err = math.inf

        if err <= 1.0:
            Q = K.T @ _P
            steps.append((t, hs, y.copy(), Q))
            t = t1 if h == abs(t1 - t) else t + hs
            y = y1
            k1 = K[6]  # first-same-as-last
            ts.append(t)
            ys.append(y.copy())
            accepted += 1
            if err == 0.0:
                factor = _FACTOR_MAX
            else:
                factor = (_SAFETY * err ** (-_BETA1)
                          * err_prev ** _BETA2)
            h *= min(_FACTOR_MAX, max(_FACTOR_MIN, factor))
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
            h *= max(_FACTOR_MIN, min(1.0, _SAFETY * err ** (-_BETA1)))

    stats = IntegrationStats(accepted, rejected, nfev, cfg.rtol, cfg.atol)
    return Trajectory(ts, ys, steps, stats)


class _FieldFailure(Exception):
    def __init__(self, t, detail):
        self.t = t
        self.detail = detail
        super().__init__(detail)


def _initial_step(f, t0, y0, f0, direction, cfg, span):
    scale = cfg.atol + cfg.rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    try:
        f1 = f(t0 + h0 * direction, y0 + h0 * direction * f0)
        d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    except _FieldFailure:
        d2 = math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1, span, cfg.max_step)
    if not (h > 0.0 and math.isfinite(h)):
        h = min(1e-6 * span, cfg.max_step)
    return h


# ---------------------------------------------------------------------------
# Hamiltonian vector fields

def _full_rhs(sys: TwistedSystem, y: list) -> np.ndarray:
    """Field of H = alpha^r H_r at the phase point y (a list of floats),
    from one jet call."""
    n, N = sys.n, sys.dim
    nn = n * n
    out = sys.jet.full(y)
    tw = _model.twist(out[0, :nn].reshape(n, n),
                      out[1:N + 1, :nn].reshape(N, n, n), point=y[:N])
    grad = out[1:, nn:] @ tw.alpha  # sum_r alpha^r dH_r
    grad[:N] += tw.dalpha @ out[0, nn:]  # + sum_r d(alpha^r) H_r
    return np.concatenate([grad[N:], -grad[:N]])


def full_field(sys: TwistedSystem, point: PhasePoint) -> np.ndarray:
    """Hamiltonian vector field of H = alpha^r H_r: (dq/dt, dp/dt)."""
    return _full_rhs(sys, list(point.q + point.p))


def full_field_callable(sys: TwistedSystem) -> Callable:
    """(t, y) -> y' closure over the full phase space, for integrate."""
    sys.jet.full  # compile now, not inside the first step

    def rhs(t, y):
        return _full_rhs(sys, np.asarray(y, dtype=float).tolist())

    return rhs


def _reduced_rhs(sys: TwistedSystem, r: int, c, y: list) -> np.ndarray:
    n = sys.n
    m = len(y) // 2
    out = sys.jet.block(r)(y)
    grad = out[1:, n] - out[1:, :n] @ c  # d(H_r - c_a S[r][a])
    return np.concatenate([grad[m:], -grad[:m]])


def reduced_field(sys: TwistedSystem, r: int, c: Sequence[float],
                  point: PhasePoint) -> np.ndarray:
    """Hamiltonian vector field of the one-block reduced Hamiltonian
    H_r - c_a S[r][a] on the block-r phase space.  ``point`` holds the
    block slice only (n_r positions and momenta)."""
    if not 1 <= r <= sys.n:
        raise _model.BlockIndexError(
            f"block index {r} out of range 1..{sys.n}")
    c = np.asarray(c, dtype=float)
    if c.shape != (sys.n,):
        raise _model.DimensionMismatchError(
            f"expected {sys.n} separation constants, got shape {c.shape}")
    return _reduced_rhs(sys, r, c, list(point.q + point.p))


def reduced_field_callable(sys: TwistedSystem, r: int, c) -> Callable:
    c = np.asarray(c, dtype=float)
    sys.jet.block(r)  # compile now, not inside the first step

    def rhs(t, y):
        return _reduced_rhs(sys, r, c, np.asarray(y, dtype=float).tolist())

    return rhs


# ---------------------------------------------------------------------------
# block clocks

@dataclass(frozen=True)
class BlockClock:
    """Rescaled time tau_r(t) along a stored full-system orbit, with
    tau_r(t_start) = 0 and d(tau_r)/dt = alpha^r(q(t)).

    The sign of alpha^r along the orbit (``initial_sign``,
    ``sign_changed`` and ``first_sign_change``) is scanned when one of
    them is first read: only the orbit comparison reads them, and the
    scan evaluates the twist more often than the quadrature does."""

    r: int
    clock: Trajectory
    trajectory: Trajectory = dataclass_field(repr=False)
    alpha: Callable[[float], float] = dataclass_field(repr=False,
                                                      compare=False)

    def tau(self, t: float) -> float:
        return float(self.clock.sample(t)[0])

    def tau_many(self, ts) -> np.ndarray:
        return self.clock.sample_many(ts)[:, 0]

    @property
    def initial_sign(self) -> float:
        return self._signs[0]

    @property
    def sign_changed(self) -> bool:
        return self._signs[1]

    @property
    def first_sign_change(self) -> float | None:
        return self._signs[2]

    @cached_property
    def _signs(self):
        traj, alpha = self.trajectory, self.alpha
        a0 = alpha(traj.t_start)
        s0 = math.copysign(1.0, a0) if a0 != 0.0 else 0.0
        if s0 == 0.0:
            return s0, True, traj.t_start
        # scan a refinement of the accepted steps for a sign flip
        grid = []
        for i in range(len(traj.ts) - 1):
            grid.extend(np.linspace(traj.ts[i], traj.ts[i + 1], 5)[:-1])
        grid.append(traj.ts[-1])
        prev_t = grid[0]
        prev_a = a0
        for t in grid[1:]:
            a = alpha(float(t))
            if a == 0.0 or (a > 0) != (prev_a > 0):
                lo, hi = prev_t, float(t)
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    am = alpha(mid)
                    if am == 0.0:
                        hi = mid
                        break
                    if (am > 0) == (prev_a > 0):
                        lo = mid
                    else:
                        hi = mid
                return s0, True, hi
            prev_t = float(t)
            prev_a = a
        return s0, False, None


def _alpha_on_trajectory(sys: TwistedSystem, trajectory: Trajectory, r: int):
    N = sys.dim
    stackel = sys.jet.stackel

    def alpha(t):
        q = trajectory.sample(t)[:N].tolist()
        return float(_model.twist(stackel(q), point=q).alpha[r - 1])

    return alpha


def block_clock(sys: TwistedSystem, trajectory: Trajectory,
                r: int) -> BlockClock:
    """Integrate d(tau)/dt = alpha^r(q(t)) over the trajectory span; the
    clock flags sign changes of the twist function when asked."""
    if not 1 <= r <= sys.n:
        raise _model.BlockIndexError(
            f"block index {r} out of range 1..{sys.n}")
    alpha = _alpha_on_trajectory(sys, trajectory, r)
    cfg = IntegratorConfig(rtol=trajectory.stats.rtol,
                           atol=trajectory.stats.atol)
    clock = integrate(lambda t, y: np.array([alpha(t)]), [0.0],
                      (trajectory.t_start, trajectory.t_end), cfg)
    return BlockClock(r, clock, trajectory, alpha)


# ---------------------------------------------------------------------------
# orbit comparison

@dataclass
class ComparisonReport:
    """Quantitative match between the block projection of a full orbit
    and the reduced orbit run in its own rescaled time."""

    r: int
    sup: np.ndarray            # per block coordinate then momentum
    rms: np.ndarray
    samples: int
    restricted: bool            # window cut at a twist sign change
    sign_changed: bool
    t_window: tuple[float, float]
    tau_window: tuple[float, float]
    rtol: float
    atol: float
    times: np.ndarray = dataclass_field(repr=False, default=None)
    taus: np.ndarray = dataclass_field(repr=False, default=None)
    full_states: np.ndarray = dataclass_field(repr=False, default=None)
    reduced_states: np.ndarray = dataclass_field(repr=False, default=None)

    @property
    def sup_max(self) -> float:
        return float(np.max(self.sup))


def compare_block_orbits(sys: TwistedSystem, P0: PhasePoint, r: int,
                         t_span, config: IntegratorConfig | None = None,
                         samples: int = 600) -> ComparisonReport:
    """Integrate the full system from P0, rescale time with the block-r
    clock, integrate the block-r reduced system from the block slice of
    P0, and report per-coordinate sup/RMS discrepancies at matched
    times.

    If the twist function alpha^r changes sign along the orbit the
    comparison is restricted to the maximal initial constant-sign
    segment and the report is flagged.
    """
    cfg = config or IntegratorConfig()
    if samples < 500:
        samples = 500

    rhs = full_field_callable(sys)
    full = integrate(rhs, P0.as_array(), t_span, cfg)
    c = _model.separation_constants(sys, P0)
    clock = block_clock(sys, full, r)

    t0 = full.t_start
    t_end = full.t_end
    restricted = False
    if clock.sign_changed:
        if clock.initial_sign == 0.0:
            raise EmptySegmentError(
                f"twist function alpha^{r} vanishes at the initial point; "
                "no constant-sign segment to compare on")
        t_end = clock.first_sign_change
        restricted = True
        if abs(t_end - t0) <= 1e-9 * abs(full.t_end - t0):
            raise EmptySegmentError(
                f"twist function alpha^{r} changes sign immediately; "
                "the comparison segment is empty")

    tau_end = clock.tau(t_end)
    if tau_end == 0.0:
        raise EmptySegmentError(
            f"block-{r} clock does not advance on the comparison segment")

    idx = list(sys.structure.block_range(r))
    N = sys.dim
    y0_red = np.array([P0.q[k] for k in idx] + [P0.p[k] for k in idx])
    reduced = integrate(reduced_field_callable(sys, r, c), y0_red,
                        (0.0, tau_end), cfg)

    times = np.linspace(t0, t_end, samples)
    taus = clock.tau_many(times)
    # clamp quadrature jitter at the ends of the reduced span
    lo, hi = sorted((0.0, tau_end))
    taus = np.clip(taus, lo, hi)

    m = len(idx)
    full_states = np.empty((samples, 2 * m))
    reduced_states = np.empty((samples, 2 * m))
    for j, (t, tau) in enumerate(zip(times, taus)):
        yf = full.sample(float(t))
        full_states[j, :m] = [yf[k] for k in idx]
        full_states[j, m:] = [yf[N + k] for k in idx]
        reduced_states[j] = reduced.sample(float(tau))

    diff = np.abs(full_states - reduced_states)
    return ComparisonReport(
        r=r,
        sup=diff.max(axis=0),
        rms=np.sqrt((diff ** 2).mean(axis=0)),
        samples=samples,
        restricted=restricted,
        sign_changed=clock.sign_changed,
        t_window=(t0, float(t_end)),
        tau_window=(0.0, float(tau_end)),
        rtol=cfg.rtol,
        atol=cfg.atol,
        times=times,
        taus=taus,
        full_states=full_states,
        reduced_states=reduced_states,
    )
