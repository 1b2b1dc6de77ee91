"""Integrator, vector-field, clock, and orbit-comparison tests.

Closed-form orbits (harmonic oscillators, constant twists, a quadratic
drift system) serve as oracles for the integrator and the comparison
pipeline; the three-pendulum chain exercises the genuinely coupled
case.  Quadrature cross-checks use composite Simpson on dense output.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import PENDULA_P0, make_pendula_like

from blocksep import catalog, expr, model
from blocksep.dynamics import (
    BlockClock,
    ComparisonReport,
    DynamicsError,
    EmptySegmentError,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    block_clock,
    compare_block_orbits,
    full_field,
    full_field_callable,
    integrate,
    reduced_field,
    reduced_field_callable,
)
from blocksep.model import (
    BlockStructure,
    NaturalBlock,
    PhasePoint,
    StackelMatrix,
    build_system,
)


def oscillator_rhs(t, y):
    return np.array([y[1], -y[0]])


def one_block_oscillator():
    """n=1, alpha=1, omega=1: H = (p^2 + q^2)/2."""
    return build_system(
        BlockStructure(sizes=(1,), coords=(("q1",),)),
        StackelMatrix([["1"]]),
        [NaturalBlock([["1"]], "0.5*q1^2")],
    )


def twisted_oscillators():
    """Two 1-dof oscillator blocks under a constant separation matrix.

    S = [[1/2, -3/2], [0, 1]] has inverse [[2, 3], [0, 1]], so the
    twist row is alpha = (2, 3) and the angular rates are
    Omega_i = alpha^i * omega_i = (2, 6) for omega = (1, 2).
    """
    return build_system(
        BlockStructure(sizes=(1, 1), coords=(("q1",), ("q2",))),
        StackelMatrix([["0.5", "-1.5"], ["0", "1"]]),
        [NaturalBlock([["1"]], "0.5*q1^2"),
         NaturalBlock([["1"]], "0.5*4*q2^2")],
    )


def sign_change_system():
    """alpha = (1, -q1) with free blocks; q1 grows through zero.

    From q=(-0.5, 0), p=(0.3, 1): pdot_1 = H_2 = 1/2 exactly, so
    q1(t) = -0.5 + 0.3 t + 0.25 t^2 crosses zero at
    t* = (-0.3 + sqrt(0.59)) / 0.5.
    """
    return build_system(
        BlockStructure(sizes=(1, 1), coords=(("q1",), ("q2",))),
        StackelMatrix([["1", "q1"], ["0", "1"]]),
        [NaturalBlock([["1"]], "0"), NaturalBlock([["1"]], "0")],
    )


SIGN_CHANGE_T = (-0.3 + math.sqrt(0.59)) / 0.5


def decoupled_pendula():
    """Pendulum blocks under the identity separation matrix."""
    return build_system(
        BlockStructure(sizes=(1, 1, 1), coords=(("q1",), ("q2",), ("q3",))),
        StackelMatrix([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
        [NaturalBlock([["1"]], "(0-cos(q1))/2"),
         NaturalBlock([["1"]], "(0-cos(q2))/2"),
         NaturalBlock([["1"]], "0")],
    )


@pytest.fixture(scope="module")
def pendula():
    return make_pendula_like()


@pytest.fixture(scope="module")
def pendula_orbit(pendula):
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    return integrate(full_field_callable(pendula), PENDULA_P0.as_array(),
                     (0.0, 50.0), cfg)


@pytest.fixture(scope="module")
def pendula_compare_fine(pendula):
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    return compare_block_orbits(pendula, PENDULA_P0, 1, (0.0, 30.0), cfg)


# ---------------------------------------------------------------------------
# integrator core

def test_oscillator_period_endpoint():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    traj = integrate(oscillator_rhs, [1.0, 0.0], (0.0, 2 * math.pi), cfg)
    assert traj.t_end == 2 * math.pi
    assert np.max(np.abs(traj.ys[-1] - [1.0, 0.0])) <= 1e-8
    assert traj.stats.accepted == len(traj) - 1
    assert traj.stats.rtol == 1e-10


def test_dense_output_against_closed_form():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    traj = integrate(oscillator_rhs, [1.0, 0.0], (0.0, 2 * math.pi), cfg)
    ts = np.linspace(0.0, 2 * math.pi, 1000)
    states = traj.sample_many(ts)
    exact = np.stack([np.cos(ts), -np.sin(ts)], axis=1)
    assert np.max(np.abs(states - exact)) <= 1e-8


def test_dense_output_matches_nodes():
    traj = integrate(oscillator_rhs, [1.0, 0.0], (0.0, 5.0),
                     IntegratorConfig(rtol=1e-9, atol=1e-12))
    for i in range(len(traj)):
        assert np.max(np.abs(traj.sample(traj.ts[i]) - traj.ys[i])) <= 1e-12


def test_sample_outside_span_rejected():
    traj = integrate(oscillator_rhs, [1.0, 0.0], (0.0, 1.0))
    with pytest.raises(DynamicsError, match="outside"):
        traj.sample(2.0)
    with pytest.raises(DynamicsError, match="outside"):
        traj.sample(-0.5)


def test_times_strictly_monotone():
    traj = integrate(oscillator_rhs, [1.0, 0.0], (0.0, 10.0),
                     IntegratorConfig(rtol=1e-6, atol=1e-9))
    assert np.all(np.diff(traj.ts) > 0)


def test_backward_integration():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    traj = integrate(oscillator_rhs, [1.0, 0.0], (0.0, -math.pi / 2), cfg)
    assert traj.direction == -1.0
    assert np.all(np.diff(traj.ts) < 0)
    # q = cos t, p = -sin t at t = -pi/2
    assert np.max(np.abs(traj.ys[-1] - [0.0, 1.0])) <= 1e-9
    mid = traj.sample(-0.7)
    assert abs(mid[0] - math.cos(0.7)) <= 1e-9


def test_error_decreases_with_rtol():
    sups = {}
    for rtol in (1e-6, 1e-8, 1e-10):
        traj = integrate(oscillator_rhs, [1.0, 0.0], (0.0, 2 * math.pi),
                         IntegratorConfig(rtol=rtol, atol=1e-14))
        sups[rtol] = np.max(np.abs(traj.ys[-1] - [1.0, 0.0]))
    assert sups[1e-8] < sups[1e-6]
    assert sups[1e-10] < sups[1e-8]
    assert sups[1e-10] <= 1e-9


def test_degenerate_span_rejected():
    with pytest.raises(DynamicsError, match="degenerate"):
        integrate(oscillator_rhs, [1.0, 0.0], (1.0, 1.0))


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-2.0, max_value=0.5))
def test_linear_decay_closed_form(lam):
    traj = integrate(lambda t, y: lam * y, [1.0], (0.0, 3.0),
                     IntegratorConfig(rtol=1e-9, atol=1e-12))
    exact = math.exp(3.0 * lam)
    assert abs(traj.ys[-1][0] - exact) <= 1e-7 * max(1.0, exact)


def test_blowup_reports_last_good_time():
    # y' = y^2 from y(0)=1 blows up at t=1
    with pytest.raises(IntegrationError) as exc:
        integrate(lambda t, y: y * y, [1.0], (0.0, 2.0),
                  IntegratorConfig(rtol=1e-6, atol=1e-9))
    err = exc.value
    assert "underflow" in err.reason
    assert err.t_last == pytest.approx(1.0, abs=1e-3)
    assert err.partial is not None
    assert err.partial.t_end <= 1.0
    assert "last good time" in str(err)


def test_field_failure_wall_reports_partial():
    def wall(t, y):
        if y[0] > 2.0:
            raise expr.DomainError("argument outside the domain", 0)
        return np.array([1.0])

    with pytest.raises(IntegrationError) as exc:
        integrate(wall, [0.0], (0.0, 3.0),
                  IntegratorConfig(rtol=1e-8, atol=1e-10))
    err = exc.value
    assert "field evaluation failed" in err.reason
    assert err.t_last == pytest.approx(2.0, abs=1e-2)
    assert err.partial is not None
    assert err.partial.t_end <= 2.0 + 1e-6


def test_field_failure_at_initial_state():
    def bad(t, y):
        raise expr.DomainError("argument outside the domain", 0)

    with pytest.raises(IntegrationError, match="initial state"):
        integrate(bad, [1.0], (0.0, 1.0))


def test_field_failure_just_after_start():
    # fine at t=0, failing for any t>0: the starter probe must not
    # collapse the first step to zero
    def cliff(t, y):
        if t > 0.0:
            raise expr.DomainError("argument outside the domain", 0)
        return np.array([1.0])

    with pytest.raises(IntegrationError) as exc:
        integrate(cliff, [0.0], (0.0, 1.0))
    assert "field evaluation failed" in exc.value.reason
    assert exc.value.t_last == 0.0


def test_nonfinite_initial_field():
    with pytest.raises(IntegrationError, match="not finite"):
        integrate(lambda t, y: np.array([math.nan]), [1.0], (0.0, 1.0))


def test_default_tolerances():
    cfg = IntegratorConfig()
    assert cfg.rtol == 1e-10
    assert cfg.atol == 1e-12


# ---------------------------------------------------------------------------
# full field

def test_full_field_oscillator_example():
    sys = one_block_oscillator()
    out = full_field(sys, PhasePoint((1.0,), (0.0,)))
    assert out == pytest.approx([0.0, -1.0], abs=1e-14)


def test_full_field_matches_fd_of_hamiltonian(pendula):
    P0 = PENDULA_P0
    out = full_field(pendula, P0)
    y0 = P0.as_array()
    N = pendula.dim

    def H(y):
        return model.hamiltonian(pendula, PhasePoint.from_array(y))

    grad = np.empty(2 * N)
    for k in range(2 * N):
        h = 1e-6 * max(1.0, abs(y0[k]))
        yp = y0.copy()
        ym = y0.copy()
        yp[k] += h
        ym[k] -= h
        grad[k] = (H(yp) - H(ym)) / (2 * h)
    expected = np.concatenate([grad[N:], -grad[:N]])
    assert np.max(np.abs(out - expected)) <= 1e-7


def test_block_proportionality_at_initial_point(pendula):
    P0 = PENDULA_P0
    c = model.separation_constants(pendula, P0)
    tw = model.twist_rows(pendula, P0)
    out = full_field(pendula, P0)
    N = pendula.dim
    for r in range(1, pendula.n + 1):
        idx = list(pendula.structure.block_range(r))
        blk_point = PhasePoint(tuple(P0.q[k] for k in idx),
                               tuple(P0.p[k] for k in idx))
        red = reduced_field(pendula, r, c, blk_point)
        m = len(idx)
        full_blk = np.array([out[k] for k in idx]
                            + [out[N + k] for k in idx])
        assert np.max(np.abs(full_blk - tw.matrix[0][r - 1] * red)) <= 1e-10


def test_block_proportionality_seeded_points(pendula):
    rng = np.random.default_rng(7)
    N = pendula.dim
    worst = 0.0
    for _ in range(1000):
        q = rng.uniform(-0.3, 0.3, size=N)
        p = rng.uniform(-1.0, 1.0, size=N)
        point = PhasePoint(tuple(q), tuple(p))
        c = model.separation_constants(pendula, point)
        alpha = model.twist_rows(pendula, point).matrix[0]
        out = full_field(pendula, point)
        for r in range(1, pendula.n + 1):
            idx = list(pendula.structure.block_range(r))
            blk_point = PhasePoint(tuple(q[k] for k in idx),
                                   tuple(p[k] for k in idx))
            red = reduced_field(pendula, r, c, blk_point)
            full_blk = np.array([out[k] for k in idx]
                                + [out[N + k] for k in idx])
            num = np.linalg.norm(full_blk - alpha[r - 1] * red)
            den = max(1.0, np.linalg.norm(full_blk))
            worst = max(worst, num / den)
    assert worst <= 1e-9


def _reference_full_field(sys, q, p):
    """H = alpha^r H_r differentiated entry by entry with the tree
    walker, one coordinate at a time: the oracle for the compiled jet."""
    env = dict(zip(sys.structure.names, q))
    S = model.matrix_values(sys.stackel.entries, env)
    M = np.linalg.inv(S)
    alpha = M[0]
    N = sys.dim
    H = np.empty(sys.n)
    qdot = np.zeros(N)
    for r, blk in enumerate(sys.blocks):
        idx = list(sys.structure.block_range(r + 1))
        pb = np.array([p[k] for k in idx])
        g = model.matrix_values(blk.metric, env)
        H[r] = 0.5 * pb @ g @ pb + expr.evaluate(blk.potential, env)
        qdot[idx] = alpha[r] * (g @ pb)
    pdot = np.zeros(N)
    for k, name in enumerate(sys.structure.names):
        dS = model.matrix_derivative(sys.stackel.entries, env, name)
        dalpha = -(alpha @ dS) @ M
        for r, blk in enumerate(sys.blocks):
            idx = list(sys.structure.block_range(r + 1))
            pb = np.array([p[j] for j in idx])
            dg = model.matrix_derivative(blk.metric, env, name)
            dH = (0.5 * pb @ dg @ pb
                  + expr.derivative(blk.potential, env, name))
            pdot[k] -= dalpha[r] * H[r] + alpha[r] * dH
    return np.concatenate([qdot, pdot])


def _reference_reduced_field(sys, r, c, qb, pb):
    blk = sys.blocks[r - 1]
    names = sys.structure.coords[r - 1]
    env = dict(zip(names, qb))
    pb = np.asarray(pb)
    pdot = np.empty(len(names))
    for i, name in enumerate(names):
        dg = model.matrix_derivative(blk.metric, env, name)
        dS = sum(c[a] * expr.derivative(e, env, name)
                 for a, e in enumerate(sys.stackel.entries[r - 1]))
        pdot[i] = -(0.5 * pb @ dg @ pb
                    + expr.derivative(blk.potential, env, name) - dS)
    return np.concatenate([model.matrix_values(blk.metric, env) @ pb, pdot])


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_compiled_fields_match_tree_walker(name):
    entry = catalog.load(name)
    sys = entry.system
    rng = np.random.default_rng(11)
    for q in entry.sample(25, 3):
        q = [float(x) for x in q]
        p = rng.uniform(-1.0, 1.0, sys.dim)
        point = PhasePoint(tuple(q), tuple(p))
        assert _rel_err(full_field(sys, point),
                        _reference_full_field(sys, q, p)) <= 1e-14
        c = rng.uniform(-1.0, 1.0, sys.n)
        for r in range(1, sys.n + 1):
            idx = list(sys.structure.block_range(r))
            qb = [q[k] for k in idx]
            pb = [p[k] for k in idx]
            got = reduced_field(sys, r, c, PhasePoint(tuple(qb), tuple(pb)))
            assert _rel_err(got, _reference_reduced_field(
                sys, r, c, qb, pb)) <= 1e-14


# ---------------------------------------------------------------------------
# reduced field

def test_reduced_field_plain_pendulum(pendula):
    point = PhasePoint((0.3,), (0.7,))
    out = reduced_field(pendula, 1, [0.0, 0.0, 0.0], point)
    assert out == pytest.approx([0.7, -0.5 * math.sin(0.3)], abs=1e-14)


def test_reduced_field_constant_entry_shifts_nothing(pendula):
    # row-1 entry for a=1 is the constant 2: c_1 adds no force
    point = PhasePoint((0.3,), (0.7,))
    base = reduced_field(pendula, 1, [0.0, 0.0, 0.0], point)
    shifted = reduced_field(pendula, 1, [17.5, 0.0, 0.0], point)
    assert np.array_equal(base, shifted)


def test_reduced_field_force_with_constants(pendula):
    from conftest import PENDULA_C
    c = np.array(PENDULA_C)
    q = 0.2
    point = PhasePoint((q,), (0.0,))
    out = reduced_field(pendula, 1, c, point)
    expected_force = -0.5 * math.sin(q) + c[1] + 4.0 * q * c[2]
    assert out[1] == pytest.approx(expected_force, abs=1e-12)

    # central FD of the effective potential as an independent oracle
    def veff(qv):
        env = {"q1": qv}
        row = pendula.stackel.entries[0]
        pot = expr.evaluate(pendula.blocks[0].potential, env)
        return pot - sum(c[a] * expr.evaluate(row[a], env) for a in range(3))

    h = 1e-6
    fd = -(veff(q + h) - veff(q - h)) / (2 * h)
    assert abs(out[1] - fd) <= 1e-9


def test_reduced_field_validation(pendula):
    point = PhasePoint((0.1,), (0.0,))
    with pytest.raises(model.BlockIndexError):
        reduced_field(pendula, 4, [0.0, 0.0, 0.0], point)
    with pytest.raises(model.DimensionMismatchError):
        reduced_field(pendula, 1, [0.0, 0.0], point)


# ---------------------------------------------------------------------------
# conservation along full orbits

def test_pendula_energy_drift(pendula, pendula_orbit):
    H0 = model.hamiltonian(pendula, PENDULA_P0)
    drift = 0.0
    for y in pendula_orbit.ys:
        H = model.hamiltonian(pendula, PhasePoint.from_array(y))
        drift = max(drift, abs(H - H0))
    assert drift <= 1e-7


def test_pendula_first_integral_drift(pendula, pendula_orbit):
    c0 = model.separation_constants(pendula, PENDULA_P0)
    scale = np.maximum(1.0, np.abs(c0))
    worst = np.zeros_like(c0)
    for y in pendula_orbit.ys[::5]:
        c = model.separation_constants(pendula, PhasePoint.from_array(y))
        worst = np.maximum(worst, np.abs(c - c0))
    assert np.all(worst <= 100 * 1e-10 * scale)


def test_reduced_hamiltonian_constant_along_orbit(pendula, pendula_orbit):
    c = model.separation_constants(pendula, PENDULA_P0)
    ref = [model.reduced_hamiltonian(pendula, r, c, PENDULA_P0)
           for r in range(1, 4)]
    for y in pendula_orbit.ys[::10]:
        point = PhasePoint.from_array(y)
        for r in range(1, 4):
            val = model.reduced_hamiltonian(pendula, r, c, point)
            assert abs(val - ref[r - 1]) <= 10 * 1e-10 * max(
                1.0, abs(ref[r - 1]))


def test_reversibility(pendula):
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    y0 = PENDULA_P0.as_array()
    fwd = integrate(full_field_callable(pendula), y0, (0.0, 5.0), cfg)
    back = integrate(full_field_callable(pendula), fwd.ys[-1], (5.0, 0.0),
                     cfg)
    scale = max(1.0, float(np.max(np.abs(y0))))
    assert np.max(np.abs(back.ys[-1] - y0)) <= 10 * (1e-10 * scale + 1e-12)


# ---------------------------------------------------------------------------
# twisted oscillators with constant separation matrix

def test_twisted_oscillator_closed_form():
    sys = twisted_oscillators()
    tw = model.twist_rows(sys, PhasePoint((0.0, 0.0), (0.0, 0.0)))
    assert tw.matrix[0] == pytest.approx([2.0, 3.0], abs=1e-14)

    q0 = np.array([1.0, 0.5])
    p0 = np.array([0.3, -0.2])
    alpha = np.array([2.0, 3.0])
    Omega = np.array([2.0, 6.0])  # alpha_i * omega_i

    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    traj = integrate(full_field_callable(sys),
                     np.concatenate([q0, p0]), (0.0, math.pi), cfg)
    ts = np.linspace(0.0, math.pi, 200)
    states = traj.sample_many(ts)
    sup = 0.0
    for i in range(2):
        qe = (q0[i] * np.cos(Omega[i] * ts)
              + (alpha[i] * p0[i] / Omega[i]) * np.sin(Omega[i] * ts))
        pe = (-q0[i] * Omega[i] * np.sin(Omega[i] * ts)
              + alpha[i] * p0[i] * np.cos(Omega[i] * ts)) / alpha[i]
        sup = max(sup, np.max(np.abs(states[:, i] - qe)))
        sup = max(sup, np.max(np.abs(states[:, 2 + i] - pe)))
    assert sup <= 1e-7


def test_constant_twist_clock_is_linear():
    sys = twisted_oscillators()
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    traj = integrate(full_field_callable(sys), [1.0, 0.5, 0.3, -0.2],
                     (0.0, 5.0), cfg)
    clock = block_clock(sys, traj, 2)
    assert not clock.sign_changed
    assert clock.first_sign_change is None
    assert clock.initial_sign == 1.0
    for t in (0.0, 1.3, 5.0):
        assert clock.tau(t) == pytest.approx(3.0 * t, abs=1e-8)


def test_constant_twist_comparison():
    sys = twisted_oscillators()
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    rep = compare_block_orbits(sys, PhasePoint((1.0, 0.5), (0.3, -0.2)), 2,
                               (0.0, math.pi), cfg)
    assert not rep.restricted
    assert rep.samples >= 500
    assert rep.sup_max <= 1e-8
    assert rep.tau_window[1] == pytest.approx(3.0 * math.pi, rel=1e-9)


# ---------------------------------------------------------------------------
# block clocks

def test_clock_alpha_identically_one():
    sys = one_block_oscillator()
    traj = integrate(full_field_callable(sys), [1.0, 0.0], (0.0, 4.0),
                     IntegratorConfig(rtol=1e-10, atol=1e-12))
    clock = block_clock(sys, traj, 1)
    assert not clock.sign_changed
    for t in (0.0, 0.7, 2.2, 4.0):
        assert clock.tau(t) == pytest.approx(t, abs=1e-10)


def test_identity_matrix_freezes_other_blocks():
    sys = decoupled_pendula()
    P0 = PhasePoint((0.2, 0.1, 0.3), (0.0, 0.2, 0.1))
    traj = integrate(full_field_callable(sys), P0.as_array(), (0.0, 8.0),
                     IntegratorConfig(rtol=1e-10, atol=1e-12))
    clock1 = block_clock(sys, traj, 1)
    assert clock1.tau(8.0) == pytest.approx(8.0, abs=1e-9)
    # alpha^2 = 0 identically: the block-2 clock never advances
    clock2 = block_clock(sys, traj, 2)
    assert clock2.sign_changed
    assert clock2.initial_sign == 0.0
    assert clock2.tau(8.0) == pytest.approx(0.0, abs=1e-12)
    # and the block-2 coordinates are frozen
    assert abs(traj.ys[-1][1] - 0.1) <= 1e-9
    assert abs(traj.ys[-1][4] - 0.2) <= 1e-9


def test_pendula_clock_matches_simpson(pendula):
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    traj = integrate(full_field_callable(pendula), PENDULA_P0.as_array(),
                     (0.0, 10.0), cfg)
    clock = block_clock(pendula, traj, 1)

    # composite Simpson over the dense output
    m = 4000
    ts = np.linspace(0.0, 10.0, m + 1)
    vals = np.empty(m + 1)
    for i, t in enumerate(ts):
        q = traj.sample(float(t))[:3]
        tw = model.twist_rows(pendula, PhasePoint(tuple(q), (0.0, 0.0, 0.0)))
        vals[i] = tw.matrix[0][0]
    h = 10.0 / m
    simpson = h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                       + 2 * vals[2:-1:2].sum())
    assert abs(clock.tau(10.0) - simpson) <= 1e-8


def test_pendula_first_twist_negative(pendula):
    tw = model.twist_rows(pendula, PENDULA_P0)
    # first inverse-row entry at P0: -0.2 / det = -0.2 / 7.2256
    assert tw.matrix[0][0] == pytest.approx(-0.2 / 7.2256, abs=1e-12)
    # so the block-1 clock runs backward initially
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    traj = integrate(full_field_callable(pendula), PENDULA_P0.as_array(),
                     (0.0, 1.0), cfg)
    clock = block_clock(pendula, traj, 1)
    assert clock.initial_sign == -1.0
    assert clock.tau(1.0) < 0.0


# ---------------------------------------------------------------------------
# orbit comparison

def test_compare_identity_matrix_block1():
    sys = decoupled_pendula()
    P0 = PhasePoint((0.2, 0.1, 0.3), (0.0, 0.2, 0.1))
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    rep = compare_block_orbits(sys, P0, 1, (0.0, 10.0), cfg)
    assert not rep.restricted
    assert rep.sup_max <= 1e-8


def test_compare_identity_matrix_vanishing_twist():
    sys = decoupled_pendula()
    P0 = PhasePoint((0.2, 0.1, 0.3), (0.0, 0.2, 0.1))
    with pytest.raises(EmptySegmentError, match="vanishes at the initial"):
        compare_block_orbits(sys, P0, 2, (0.0, 5.0))


def test_compare_pendula_block1(pendula_compare_fine):
    rep = pendula_compare_fine
    assert rep.r == 1
    assert rep.samples >= 500
    assert rep.sign_changed
    assert rep.restricted
    assert rep.t_window[0] == 0.0
    assert rep.t_window[1] == pytest.approx(15.7785, abs=0.01)
    # the block-1 clock runs backward on the whole window
    assert rep.tau_window[1] == pytest.approx(-0.896, abs=0.01)
    assert rep.sup_max <= 1e-6
    assert np.all(rep.rms <= rep.sup)
    assert np.all(rep.sup >= 0.0)


def test_compare_discrepancy_shrinks_with_rtol(pendula,
                                               pendula_compare_fine):
    coarse = compare_block_orbits(
        pendula, PENDULA_P0, 1, (0.0, 30.0),
        IntegratorConfig(rtol=1e-8, atol=1e-10))
    assert coarse.sup_max >= 5.0 * pendula_compare_fine.sup_max


def test_compare_report_shapes(pendula_compare_fine):
    rep = pendula_compare_fine
    assert rep.times.shape == (rep.samples,)
    assert rep.full_states.shape == (rep.samples, 2)
    assert rep.reduced_states.shape == (rep.samples, 2)
    assert rep.rtol == 1e-10


def test_sign_change_restricts_window():
    sys = sign_change_system()
    P0 = PhasePoint((-0.5, 0.0), (0.3, 1.0))
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    rep = compare_block_orbits(sys, P0, 2, (0.0, 3.0), cfg)
    assert rep.restricted
    assert rep.sign_changed
    assert rep.t_window[1] == pytest.approx(SIGN_CHANGE_T, abs=1e-6)
    assert rep.sup_max <= 1e-9


def test_sign_change_other_block_unrestricted():
    sys = sign_change_system()
    P0 = PhasePoint((-0.5, 0.0), (0.3, 1.0))
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    rep = compare_block_orbits(sys, P0, 1, (0.0, 3.0), cfg)
    assert not rep.restricted
    assert not rep.sign_changed
    assert rep.t_window == (0.0, 3.0)
    assert rep.sup_max <= 1e-9


def test_empty_segment_error():
    sys = sign_change_system()
    # q1 = 0 at the start: alpha^2 vanishes at the initial point
    P0 = PhasePoint((0.0, 0.0), (0.3, 1.0))
    with pytest.raises(EmptySegmentError, match="vanishes"):
        compare_block_orbits(sys, P0, 2, (0.0, 3.0))


def test_compare_validates_block_index(pendula):
    with pytest.raises(model.BlockIndexError):
        block_clock(pendula, integrate(
            full_field_callable(pendula), PENDULA_P0.as_array(),
            (0.0, 0.5)), 9)


def test_clock_twist_is_the_model_twist(pendula, pendula_orbit):
    # the clock integrand reads alpha^r from the same twist as
    # model.twist_rows, condition gate included
    from blocksep.dynamics import _alpha_on_trajectory
    N = pendula.dim
    for r in range(1, pendula.n + 1):
        alpha = _alpha_on_trajectory(pendula, pendula_orbit, r)
        for t in np.linspace(0.0, 50.0, 41):
            q = pendula_orbit.sample(float(t))[:N]
            assert alpha(float(t)) == model.twist_rows(
                pendula, q).matrix[0][r - 1]
