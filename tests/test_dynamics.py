"""Integrator, vector-field, clock, and orbit-comparison tests.

Closed-form orbits (harmonic oscillators, constant twists, a quadratic
drift system) serve as oracles for the integrator and the comparison
pipeline; the three-pendulum chain exercises the genuinely coupled
case.  Quadrature cross-checks use composite Simpson on dense output.
"""

import ast
import builtins
import importlib.util
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import walker
from conftest import (
    PENDULA_P0, full_field, pendula_like, phase_point, reduced_field,
    reduced_hamiltonian, two_call_field, two_call_reduced, zip_dop853,
)
from walker import matrix_derivative

from blocksep import catalog, config, dynamics, expr, model
from blocksep.dynamics import (
    _KEPT,
    _STORED,
    BlockClock,
    ComparisonReport,
    DynamicsError,
    EmptySegmentError,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    _dense_coefficients,
    _dop853,
    block_clock,
    compare_block_orbits,
    full_field_callable,
    integrate,
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
    return pendula_like()


def _with_clocks(sys, y):
    """The state y of (q, p) followed by the system's clocks at 0."""
    return np.concatenate([np.asarray(y, dtype=float), np.zeros(sys.n)])


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
    states = traj.sample(ts)
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


@pytest.mark.parametrize("t_span", [(0.0, math.nan), (0.0, math.inf),
                                    (-math.inf, 0.0), (math.nan, 1.0)])
def test_non_finite_span_rejected_before_any_field_call(t_span):
    calls = []

    def field(t, y):
        calls.append(t)
        return np.array([1.0, 0.0])

    with pytest.raises(DynamicsError, match="non-finite integration span"):
        integrate(field, [1.0, 0.0], t_span)
    assert calls == []


@pytest.mark.parametrize("atol, rtol", [(0.0, 1e-8), (-1e-12, 1e-8),
                                        (1e-12, -1e-8), (math.nan, 1e-8),
                                        (1e-12, math.inf)])
def test_invalid_tolerances_rejected_before_any_field_call(atol, rtol):
    # atol = 0 used to end in "step size underflow" at the first step,
    # since a component that stays 0 then has a zero error scale
    calls = []

    def field(t, y):
        calls.append(t)
        return np.array([1.0, 0.0])

    with pytest.raises(DynamicsError, match="invalid tolerances"):
        integrate(field, [1.0, 0.0], (0.0, 1.0),
                  IntegratorConfig(rtol=rtol, atol=atol))
    assert calls == []


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-2.0, max_value=0.5))
def test_linear_decay_closed_form(lam):
    traj = integrate(lambda t, y: lam * np.asarray(y), [1.0], (0.0, 3.0),
                     IntegratorConfig(rtol=1e-9, atol=1e-12))
    exact = math.exp(3.0 * lam)
    assert abs(traj.ys[-1][0] - exact) <= 1e-7 * max(1.0, exact)


def test_blowup_reports_last_good_time():
    # y' = y^2 from y(0)=1 blows up at t=1
    with pytest.raises(IntegrationError) as exc:
        integrate(lambda t, y: np.asarray(y) ** 2, [1.0], (0.0, 2.0),
                  IntegratorConfig(rtol=1e-6, atol=1e-9))
    err = exc.value
    assert "underflow" in err.reason
    assert err.t_last == pytest.approx(1.0, abs=1e-3)
    assert err.partial is not None
    assert err.partial.t_end == err.t_last
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


@pytest.mark.parametrize("out", [[1.0], [1.0, 0.0, 2.0]])
def test_field_of_the_wrong_length_is_named(out):
    # the stages' zip used to shrink the state to the shorter field
    with pytest.raises(DynamicsError,
                       match=f"returned {len(out)} components .* of 2"):
        integrate(lambda t, y: np.array(out), [1.0, 0.0], (0.0, 1.0))


def test_default_tolerances():
    cfg = IntegratorConfig()
    assert cfg.rtol == 1e-10
    assert cfg.atol == 1e-12


def test_retry_after_a_rejected_step_starts_from_the_step_start():
    # y' = y^2, y(0) = 1 has y = 1/(1 - t); near the pole steps are
    # rejected, and each retry must restart from f(t, y), not from the
    # rate at the rejected endpoint (that reuse left 2.3e-2 here)
    traj = integrate(lambda t, y: np.asarray(y) ** 2, [1.0], (0.0, 0.999),
                     IntegratorConfig(rtol=1e-6, atol=1e-9))
    assert traj.stats.rejected > 0
    assert abs(traj.ys[-1][0] * (1.0 - 0.999) - 1.0) <= 1e-3


def test_local_error_orders_of_one_step():
    # one step of q' = 2p, p' = -2q over [0, h]: DOP853's solution is
    # locally of order 9 and its dense output of order 8 (at unit
    # frequency the h = 0.1 step error sits below roundoff)
    def rhs(t, y):
        return np.array([2.0 * y[1], -2.0 * y[0]])

    def exact(t):
        return np.array([math.cos(2.0 * t), -math.sin(2.0 * t)])

    step, mid = [], []
    for h in (0.4, 0.2, 0.1):
        # tolerances loose enough that the first step covers the span
        traj = integrate(rhs, [1.0, 0.0], (0.0, h),
                         IntegratorConfig(rtol=1.0, atol=100.0))
        assert traj.stats.accepted == 1
        step.append(np.max(np.abs(traj.ys[-1] - exact(h))))
        mid.append(np.max(np.abs(traj.sample(h / 2) - exact(h / 2))))
    for errors, order in ((step, 9), (mid, 8)):
        for coarse, fine in zip(errors, errors[1:]):
            assert math.log2(coarse / fine) == pytest.approx(order, abs=0.5)


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_orbit_matches_scipy_dop853(name):
    # an independent implementation of the same pair, run far tighter
    integrate_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    entry = catalog.load(name)
    field = full_field_callable(entry.system)
    y0 = _with_clocks(entry.system, entry.initial_point.as_array())
    ref = integrate_ivp(field, (0.0, 30.0), y0, method="DOP853",
                        rtol=1e-13, atol=1e-15, dense_output=True)
    assert ref.success
    traj = integrate(field, y0, (0.0, 30.0),
                     IntegratorConfig(rtol=1e-10, atol=1e-12))
    ts = np.linspace(0.0, 30.0, 3001)
    assert np.max(np.abs(traj.sample(ts) - ref.sol(ts).T)) <= 1e-8


def test_field_failure_in_a_dense_output_stage_rejects_the_step():
    # call 1 is f(t0, y0), call 2 the starting-step probe, calls 3..14
    # stages 2 to 13 of the first step, and call 15 its stage 14, which
    # only the dense output reads
    calls = []

    def flaky(t, y):
        calls.append(t)
        if len(calls) == 15:
            raise expr.DomainError("argument outside the domain", 0)
        return oscillator_rhs(t, y)

    traj = integrate(flaky, [1.0, 0.0], (0.0, 2.0),
                     IntegratorConfig(rtol=1e-10, atol=1e-12))
    assert traj.stats.rejected == 1
    assert traj.ts[1] < calls[13]  # shorter than the rejected step
    ts = np.linspace(0.0, 2.0, 101)
    exact = np.stack([np.cos(ts), -np.sin(ts)], axis=1)
    assert np.max(np.abs(traj.sample(ts) - exact)) <= 1e-8


def _bits(values):
    """The bit patterns of a float or a (nested) sequence of floats."""
    return np.asarray(values, dtype=float).view(np.uint64)


def _nonlinear(t, y):
    # every component mixes two others, so a misplaced term shows
    d = len(y)
    return tuple(math.sin(t + y[c]) * y[(c + 1) % d] - 0.3 * y[c - 1] ** 2
                 for c in range(d))


def _recording(field):
    """field, with the list of the sequences it returns."""
    made = []

    def recorded(t, y):
        made.append(field(t, y))
        return made[-1]

    return recorded, made


@pytest.mark.parametrize("d", [*range(1, 13), 40])
def test_generated_step_rounds_as_the_zip_sums(d):
    # the step written out per component against the same sums over zip:
    # y1, every kept stage, s5, s3 and stages 14 to 16, and the dense
    # rows of the array pass over the stored stages against the zip
    # sums' rows, bit for bit
    rng = np.random.default_rng(d)
    oracle = zip_dop853()
    step = _dop853(d)
    for h in (0.3, -0.05, 1e-3):
        y = rng.normal(size=d).tolist()
        y[0] = -0.0
        t = float(rng.normal())
        k1 = _nonlinear(t, y)
        y1, kept = step[0](_nonlinear, t, h, y, k1)
        y1_ref, kept_ref = oracle[0](_nonlinear, t, h, y, k1)
        assert np.array_equal(_bits(y1), _bits(y1_ref))
        assert len(kept) == len(kept_ref) == len(_KEPT)
        assert np.array_equal(_bits(kept), _bits(kept_ref))
        assert np.array_equal(
            _bits(step[1](y, y1, kept, 1e-12, 1e-10)),
            _bits(oracle[1](y, y1, kept, 1e-12, 1e-10)))
        field, made = _recording(_nonlinear)
        rows = oracle[2](field, t, h, y, y1, kept)
        stages = step[2](_nonlinear, t, h, y, kept)
        assert len(stages) == len(_STORED)
        assert stages[:len(_KEPT)] == kept
        assert np.array_equal(_bits(stages[len(_KEPT):]), _bits(made))
        F = _dense_coefficients(np.array([y, y1]), np.array([h]),
                                np.array([stages]))
        assert F.shape == (1, d, 7) and F.flags.c_contiguous
        assert np.array_equal(_bits(F.ravel()), _bits(rows))


def _assert_rows_are_the_zip_rows(traj, field):
    """Each step's coefficients in traj.F, bit for bit the zip sums'
    dense rows of the step remade from (ts[i], h[i], ys[i]), whose y1
    is ys[i + 1]."""
    oracle = zip_dop853()
    assert traj.F.shape == (len(traj) - 1, traj.dim, 7)
    assert traj.F.flags.c_contiguous
    for i, h in enumerate(traj.h.tolist()):
        t, y = float(traj.ts[i]), traj.ys[i].tolist()
        y1, kept = oracle[0](field, t, h, y, field(t, y))
        assert np.array_equal(_bits(y1), _bits(traj.ys[i + 1]))
        assert np.array_equal(_bits(traj.F[i].ravel()),
                              _bits(oracle[2](field, t, h, y, y1, kept)))


@pytest.mark.parametrize("span", [(0.0, 60.0), (0.0, -60.0)])
def test_orbit_coefficients_are_the_zip_rows(span):
    # more than 2 _HELD steps: the coefficients come from several passes
    traj = integrate(_pendulum, [0.5, -0.25, 1.0], span,
                     IntegratorConfig(rtol=1e-10, atol=1e-12))
    assert len(traj) - 1 > 2 * dynamics._HELD
    _assert_rows_are_the_zip_rows(traj, _pendulum)


def test_coefficients_do_not_depend_on_the_held_steps(monkeypatch):
    # one array pass per step (nothing left held at the end), per 3
    # steps and per _HELD steps make the same coefficients
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    want = integrate(_pendulum, [0.5, -0.25, 1.0], (0.0, 40.0), cfg)
    for held in (1, 3):
        monkeypatch.setattr(dynamics, "_HELD", held)
        _assert_same_trajectory(
            integrate(_pendulum, [0.5, -0.25, 1.0], (0.0, 40.0), cfg), want)


def test_one_step_orbit_coefficients_are_the_zip_rows():
    traj = integrate(_nonlinear, [0.4, -0.3, 0.2], (0.0, 1e-3),
                     IntegratorConfig(rtol=1e-6, atol=1e-8))
    assert len(traj) == 2
    _assert_rows_are_the_zip_rows(traj, _nonlinear)


def test_partial_orbit_coefficients_are_the_zip_rows():
    # y0' = y0^2 blows up at t = 1
    def field(t, y):
        return (y[0] * y[0], math.sin(t + y[1]) * y[0])

    with pytest.raises(IntegrationError) as exc:
        integrate(field, [1.0, 0.5], (0.0, 2.0),
                  IntegratorConfig(rtol=1e-8, atol=1e-10))
    partial = exc.value.partial
    assert len(partial) - 1 > dynamics._HELD
    _assert_rows_are_the_zip_rows(partial, field)


def test_overflowing_rows_are_the_zip_rows_unwarned():
    # states and stages at +-1e308: y1 - y overflows to inf, and inf -
    # inf in the sums of the rows makes nan, as on floats, with no
    # RuntimeWarning
    big = (1e308, -1e308, 0.5)

    def field(t, y):
        return big

    y, y1, h = [-1e308, 1.0, -2.0], [1e308, -1e308, 3.0], 0.25
    kept = (big,) * len(_KEPT)
    rows = zip_dop853()[2](field, 0.0, h, y, y1, kept)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stages = _dop853(3)[2](field, 0.0, h, y, kept)
        F = _dense_coefficients(np.array([y, y1]), np.array([h]),
                                np.array([stages]))
    assert np.isinf(F).any() and np.isnan(F).any()
    assert np.array_equal(_bits(F.ravel()), _bits(rows))


def test_making_the_step_keeps_its_memory_small():
    # tracemalloc peak of generating the d = 11 step: 1.58 MB on Python
    # 3.11 with each weight bound once to a local and the three functions
    # compiled one at a time (compiling them alone peaks at 1.72, 1.51,
    # 2.12 and 2.20 MB on 3.10 to 3.13), against 3.31, 3.07, 3.44 and
    # 3.48 MB to compile the same functions in one piece with every
    # weight written in as a literal
    tracemalloc.start()
    try:
        _dop853.__wrapped__(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6e6


def _pendulum(t, y):
    # a forced pendulum and its energy, bounded over long spans
    return (y[1], -math.sin(y[0]) + 0.1 * math.cos(t),
            0.1 * math.cos(t) * y[1])


def _counting(field, fail=lambda n: False):
    """field, with a list of its calls; call n raises when fail(n)."""
    calls = []

    def counted(t, y):
        calls.append(t)
        if fail(len(calls)):
            raise model.ModelError(f"call {len(calls)} fails")
        return field(t, y)

    return counted, calls


@pytest.mark.parametrize("bad", [None, 4, 15, 879])
def test_field_evaluations_count_every_call(bad):
    # one failing call at a stage of the step, at a dense-output stage,
    # and later on: every call is counted, the failed one included
    field, calls = _counting(_pendulum, lambda n: n == bad)
    traj = integrate(field, [0.5, -0.25, 1.0], (0.0, 40.0),
                     IntegratorConfig(rtol=1e-10, atol=1e-12))
    assert len(calls) > 879
    assert traj.stats.field_evaluations == len(calls)
    assert traj.stats.rejected == (bad is not None)


def test_field_evaluations_count_the_calls_of_a_failed_run():
    field, calls = _counting(_pendulum, lambda n: n >= 879)
    with pytest.raises(IntegrationError) as exc:
        integrate(field, [0.5, -0.25, 1.0], (0.0, 40.0),
                  IntegratorConfig(rtol=1e-10, atol=1e-12))
    # each smaller retry fails at its first call, the last one named
    stats = exc.value.partial.stats
    assert stats.rejected == len(calls) - 878 > 1
    assert stats.field_evaluations == len(calls)
    assert f"call {len(calls)} fails" in str(exc.value)


def test_field_returning_an_array_integrates_as_a_tuple():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    y0 = [0.5, -0.25, 1.0]
    _assert_same_trajectory(
        integrate(_pendulum, y0, (0.0, 40.0), cfg),
        integrate(lambda t, y: np.array(_pendulum(t, y)), y0, (0.0, 40.0),
                  cfg))


@pytest.mark.parametrize("at, length", [(5, 1), (15, 3)])
def test_a_field_that_changes_length_is_named(at, length):
    # at a stage of the step and at a dense-output stage
    def field(t, y):
        field.calls += 1
        out = [y[1], -y[0]]
        return (out + [0.0])[:length] if field.calls >= at else out

    field.calls = 0
    with pytest.raises(DynamicsError,
                       match=f"returned {length} components for a state "
                             "of 2"):
        integrate(field, [1.0, 0.0], (0.0, 2.0))
    assert field.calls == at


def test_rates_are_the_field_at_the_nodes_and_the_derivative_between():
    traj = integrate(oscillator_rhs, [1.0, 0.0], (0.0, 5.0),
                     IntegratorConfig(rtol=1e-10, atol=1e-12))
    for column, exact in ((0, lambda t: -np.sin(t)),
                          (1, lambda t: -np.cos(t))):
        times, rates = traj.rates(column, 8)
        assert times.shape == rates.shape == (9 * (len(traj) - 1),)
        # each step's first and last point, the field's own rate there
        ends = np.stack([rates[::9], rates[8::9]], axis=1)
        field = [oscillator_rhs(t, y)[column] for t, y in zip(traj.ts,
                                                              traj.ys)]
        assert np.max(np.abs(ends - np.stack([field[:-1], field[1:]], 1))
                      ) <= 1e-14
        assert np.max(np.abs(rates - exact(times))) <= 1e-8


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
        return model.hamiltonian(pendula, phase_point(y))

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
    S = walker.matrix_values(sys.stackel.entries, env)
    M = np.linalg.inv(S)
    alpha = M[0]
    N = sys.dim
    H = np.empty(sys.n)
    qdot = np.zeros(N)
    for r, blk in enumerate(sys.blocks):
        idx = list(sys.structure.block_range(r + 1))
        pb = np.array([p[k] for k in idx])
        g = walker.matrix_values(blk.metric, env)
        H[r] = 0.5 * pb @ g @ pb + walker.evaluate(blk.potential, env)
        qdot[idx] = alpha[r] * (g @ pb)
    pdot = np.zeros(N)
    for k, name in enumerate(sys.structure.names):
        dS = matrix_derivative(sys.stackel.entries, env, name)
        dalpha = -(alpha @ dS) @ M
        for r, blk in enumerate(sys.blocks):
            idx = list(sys.structure.block_range(r + 1))
            pb = np.array([p[j] for j in idx])
            dg = matrix_derivative(blk.metric, env, name)
            dH = (0.5 * pb @ dg @ pb
                  + walker.derivative(blk.potential, env, name))
            pdot[k] -= dalpha[r] * H[r] + alpha[r] * dH
    return np.concatenate([qdot, pdot])


def _reference_reduced_field(sys, r, c, qb, pb):
    blk = sys.blocks[r - 1]
    names = sys.structure.coords[r - 1]
    env = dict(zip(names, qb))
    pb = np.asarray(pb)
    pdot = np.empty(len(names))
    for i, name in enumerate(names):
        dg = matrix_derivative(blk.metric, env, name)
        dS = sum(c[a] * walker.derivative(e, env, name)
                 for a, e in enumerate(sys.stackel.entries[r - 1]))
        pdot[i] = -(0.5 * pb @ dg @ pb
                    + walker.derivative(blk.potential, env, name) - dS)
    return np.concatenate([walker.matrix_values(blk.metric, env) @ pb, pdot])


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _probe_states(entry):
    """25 seeded phase points of the entry's sample box, each with
    seeded constants c for the reduced fields."""
    sys = entry.system
    rng = np.random.default_rng(11)
    for q in entry.sample(25, 3):
        q = [float(x) for x in q]
        p = rng.uniform(-1.0, 1.0, sys.dim).tolist()
        yield q + p, rng.uniform(-1.0, 1.0, sys.n).tolist()


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_compiled_fields_match_tree_walker(name):
    entry = catalog.load(name)
    sys = entry.system
    for y, c in _probe_states(entry):
        q, p = y[:sys.dim], np.array(y[sys.dim:])
        point = PhasePoint(tuple(q), tuple(p))
        assert _rel_err(full_field(sys, point),
                        _reference_full_field(sys, q, p)) <= 1e-14
        for r in range(1, sys.n + 1):
            idx = list(sys.structure.block_range(r))
            qb = [q[k] for k in idx]
            pb = [p[k] for k in idx]
            got = reduced_field(sys, r, c, PhasePoint(tuple(qb), tuple(pb)))
            assert _rel_err(got, _reference_reduced_field(
                sys, r, c, qb, pb)) <= 1e-14


def _field_states(entry):
    """Every state at which the full field is evaluated along the
    entry's default orbit (clocks included), and the reduced constants
    of its initial point."""
    sys, P0 = entry.system, entry.initial_point
    run = config.RunConfig(source="")
    states = []
    kernel = sys.jet.field

    def field(t, y):
        states.append(list(y))
        return kernel(t, y)

    integrate(field, list(P0.q + P0.p) + [0.0] * sys.n, run.t_span,
              IntegratorConfig(rtol=run.rtol, atol=run.atol))
    return states, model.separation_constants(sys, P0).tolist()


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_fields_equal_the_two_call_kernels(name):
    """The field with the jet's ops written in returns the very tuple of
    the kernel that calls a separately compiled jet, along the default
    orbit and at the probe points, for the full field and each reduced
    field."""
    entry = catalog.load(name)
    sys = entry.system
    N = sys.dim
    full = two_call_field(sys)
    reduced = {r: two_call_reduced(sys, r) for r in range(1, sys.n + 1)}
    states, c = _field_states(entry)
    cases = [(y, c) for y in states] + list(_probe_states(entry))
    assert len(states) > 500
    for y, c in cases:
        assert sys.jet.field(0.0, y) == full(y)
        for r, ref in reduced.items():
            cols = list(sys.structure.block_range(r))
            yb = [y[k] for k in cols] + [y[N + k] for k in cols]
            assert sys.jet.reduced(r)(c, 0.0, yb) == ref(yb, c)


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_one_field_is_one_compile(monkeypatch, cold_jets, name):
    """Generating a field compiles one function, whose jet lines bind
    temporaries only, none named like the gate's or the chain rule's."""
    sys = catalog.load(name).system
    sys.jet.constant_twist   # a constant S compiles its own jet once
    sources = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        sources.append((filename, source))
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    for make in [lambda: sys.jet.field,
                 *(lambda r=r: sys.jet.reduced(r)
                   for r in range(1, sys.n + 1))]:
        sources.clear()
        make()
        assert [f for f, _ in sources] == ["<field>"]
        body = ast.parse(sources[0][1]).body[0].body
        unpack, jet = body[0], body[1]
        args = [t.id for t in unpack.targets[0].elts]
        assert args == [f"x{i}" for i in range(len(args))]
        assert isinstance(jet, ast.Try)
        bound = {n.id for n in ast.walk(jet) if isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Store)}
        assert all(re.fullmatch(r"t\d+", x) for x in bound), bound
        after = {n.id for stmt in body[2:] for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        assert not after & bound


def _failing_system(row1, potential1):
    """Two one-coordinate blocks, S = [row1, (0, 1)], V_1 = potential1."""
    return build_system(
        BlockStructure(sizes=(1, 1), coords=(("q1",), ("q2",))),
        StackelMatrix([row1, ["0", "1"]]),
        [NaturalBlock([["1"]], potential1), NaturalBlock([["1"]], "0")])


def _error(call):
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value), getattr(exc.value, "offset", None)


@pytest.mark.parametrize("row1, potential1, q1, message", [
    (["2", "1/(q1-0.5)"], "0", 0.5, "division by zero"),
    (["2", "1"], "ln(q1)", -1.0, "ln of a non-positive value"),
    (["2", "1"], "exp(1000*q1)", 1.0, "value overflows the float range"),
    # S is singular at q1 = 0 as well: the jet's error comes first
    (["q1", "1"], "ln(q1)", 0.0, "ln of a non-positive value"),
])
def test_field_raises_the_jets_own_error(row1, potential1, q1, message):
    sys = _failing_system(row1, potential1)
    y = [q1, 0.3, 0.5, 0.2]
    energies, names = sys.jet._energies
    entries = [e for row in sys.stackel.entries for e in row]
    jet = expr.compile(entries + energies, names, names)
    want = _error(lambda: jet(*y))
    assert want[0] is expr.DomainError and message in want[1]
    assert _error(lambda: sys.jet.field(0.0, y + [0.0, 0.0])) == want
    assert _error(lambda: two_call_field(sys)(y)) == want
    # block 1's reduced field: its energy, then its row of S
    c = [0.7, -0.4]
    coords, p, h = sys.jet._phase(1)
    jet = expr.compile([h, *sys.stackel.entries[0]], coords + p, coords + p)
    want = _error(lambda: jet(q1, 0.5))
    assert want[0] is expr.DomainError and message in want[1]
    assert _error(lambda: sys.jet.reduced(1)(c, 0.0, [q1, 0.5])) == want
    assert _error(lambda: two_call_reduced(sys, 1)([q1, 0.5], c)) == want


def _two_free_blocks(row1):
    """Two free particles, S = [row1, (0, 1)]: the twist is
    alpha = (1/S11, -S12/S11)."""
    return build_system(
        BlockStructure(sizes=(1, 1), coords=(("q1",), ("q2",))),
        StackelMatrix([row1, ["0", "1"]]),
        [NaturalBlock([["1"]], "0"), NaturalBlock([["1"]], "0")])


@pytest.mark.parametrize("q1, message", [
    (0.0, "matrix is singular"),
    (1e-13, "matrix numerically singular"),
])
def test_field_at_singular_matrix_names_the_point(q1, message):
    sys = _two_free_blocks(["q1", "1"])
    with pytest.raises(model.SingularMatrixError, match=message) as exc:
        full_field(sys, PhasePoint((q1, 0.3), (0.5, 0.2)))
    assert f"at q=({q1!r}, 0.3)" in str(exc.value)


def test_integration_into_the_gate_keeps_the_partial_orbit():
    # S11 = S12 jumps from 1 to 1e13 where q1 turns negative: alpha stays
    # (1/S11, -1), but the condition estimate passes COND_ERROR
    step = "1+5e12*(1-q1/abs(q1))"
    sys = _two_free_blocks([step, step])
    with pytest.raises(IntegrationError) as exc:
        integrate(full_field_callable(sys), [0.5, 0.0, -1.0, 0.2],
                  (0.0, 2.0))
    err = exc.value
    assert "matrix numerically singular at q=(-" in err.reason
    assert err.t_last == pytest.approx(0.5, abs=1e-9)
    assert err.partial is not None and err.partial.t_end == err.t_last
    assert np.allclose(err.partial.sample(0.25), [0.25, -0.05, -1.0, 0.2],
                       atol=1e-12)


def test_constant_twist_is_folded_into_the_field(monkeypatch, cold_jets):
    # oscillators has a constant S: its gated inverse is taken once,
    # when the field is made, and never while integrating or clocking
    calls = []
    real = model.invert_with_condition

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    entry = catalog.load("oscillators")
    sys = entry.system
    monkeypatch.setattr(model, "invert_with_condition", counted)
    field = full_field_callable(sys)
    assert len(calls) == 1
    traj = integrate(field, _with_clocks(sys, entry.initial_point.as_array()),
                     (0.0, 3.0))
    clocks = [block_clock(sys, traj, r) for r in range(1, sys.n + 1)]
    assert len(calls) == 1
    alpha = sys.jet.constant_twist.alpha
    for r, clock in enumerate(clocks):
        assert clock.tau(3.0) == pytest.approx(3.0 * alpha[r], rel=1e-12)
    N = sys.dim
    for y in traj.ys[::7]:
        q, p = y[:N].tolist(), y[N:2 * N].tolist()
        assert _rel_err(np.array(field(0.0, q + p)),
                        _reference_full_field(sys, q, p)) <= 1e-14


@pytest.mark.parametrize("name", ["pendula", "calogero4"])
def test_varying_twist_field_writes_its_gate_out(monkeypatch, name):
    # the field of a varying S inverts it on floats, behind the gate's
    # own checks: integrating with clocks never calls the gate function
    calls = []
    real = model.invert_with_condition

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    entry = catalog.load(name)
    sys = entry.system
    monkeypatch.setattr(model, "invert_with_condition", counted)
    field = full_field_callable(sys)
    y0 = _with_clocks(sys, entry.initial_point.as_array())
    traj = integrate(field, y0, (0.0, 3.0))
    assert traj.stats.field_evaluations > 100
    assert len(calls) == 0


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
        pot = walker.evaluate(pendula.blocks[0].potential, env)
        return pot - sum(c[a] * walker.evaluate(row[a], env) for a in range(3))

    h = 1e-6
    fd = -(veff(q + h) - veff(q - h)) / (2 * h)
    assert abs(out[1] - fd) <= 1e-9


def test_reduced_field_validation(pendula):
    point = PhasePoint((0.1,), (0.0,))
    with pytest.raises(model.BlockIndexError):
        reduced_field(pendula, 4, [0.0, 0.0, 0.0], point)
    with pytest.raises(model.DimensionMismatchError):
        reduced_field(pendula, 1, [0.0, 0.0], point)
    for r in (0, 4):
        with pytest.raises(model.BlockIndexError):
            reduced_field_callable(pendula, r, [0.0, 0.0, 0.0])
    with pytest.raises(model.DimensionMismatchError):
        reduced_field_callable(pendula, 1, [0.0, 0.0])


# ---------------------------------------------------------------------------
# conservation along full orbits

def test_pendula_energy_drift(pendula, pendula_orbit):
    H0 = model.hamiltonian(pendula, PENDULA_P0)
    drift = 0.0
    for y in pendula_orbit.ys:
        H = model.hamiltonian(pendula, phase_point(y))
        drift = max(drift, abs(H - H0))
    assert drift <= 1e-7


def test_pendula_first_integral_drift(pendula, pendula_orbit):
    c0 = model.separation_constants(pendula, PENDULA_P0)
    scale = np.maximum(1.0, np.abs(c0))
    worst = np.zeros_like(c0)
    for y in pendula_orbit.ys[::5]:
        c = model.separation_constants(pendula, phase_point(y))
        worst = np.maximum(worst, np.abs(c - c0))
    assert np.all(worst <= 100 * 1e-10 * scale)


def test_reduced_hamiltonian_constant_along_orbit(pendula, pendula_orbit):
    c = model.separation_constants(pendula, PENDULA_P0)
    ref = [reduced_hamiltonian(pendula, r, c, PENDULA_P0)
           for r in range(1, 4)]
    for y in pendula_orbit.ys[::10]:
        point = phase_point(y)
        for r in range(1, 4):
            val = reduced_hamiltonian(pendula, r, c, point)
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
    states = traj.sample(ts)
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
    traj = integrate(full_field_callable(sys),
                     _with_clocks(sys, [1.0, 0.5, 0.3, -0.2]), (0.0, 5.0), cfg)
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
    traj = integrate(full_field_callable(sys), _with_clocks(sys, [1.0, 0.0]),
                     (0.0, 4.0), IntegratorConfig(rtol=1e-10, atol=1e-12))
    clock = block_clock(sys, traj, 1)
    assert not clock.sign_changed
    for t in (0.0, 0.7, 2.2, 4.0):
        assert clock.tau(t) == pytest.approx(t, abs=1e-10)


def test_identity_matrix_freezes_other_blocks():
    sys = decoupled_pendula()
    P0 = PhasePoint((0.2, 0.1, 0.3), (0.0, 0.2, 0.1))
    traj = integrate(full_field_callable(sys),
                     _with_clocks(sys, P0.as_array()), (0.0, 8.0),
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
    traj = integrate(full_field_callable(pendula),
                     _with_clocks(pendula, PENDULA_P0.as_array()), (0.0, 10.0),
                     cfg)
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
    traj = integrate(full_field_callable(pendula),
                     _with_clocks(pendula, PENDULA_P0.as_array()), (0.0, 1.0),
                     cfg)
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


def test_sign_scan_finds_an_excursion_shorter_than_a_step():
    # alpha^2 = (q1 - 5)^2 - 0.05^2 is negative only while |q1 - 5| <
    # 0.05, a band that this orbit crosses in a fraction of one step
    sys = build_system(
        BlockStructure(sizes=(1, 1), coords=(("q1",), ("q2",))),
        StackelMatrix([["1", "0.0025 - (q1 - 5)^2"], ["0", "1"]]),
        [NaturalBlock([["1"]], "0"), NaturalBlock([["1"]], "0")],
    )
    y0 = _with_clocks(sys, [0.0, 0.0, 1.0, 0.1])
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    rep = compare_block_orbits(sys, PhasePoint((0.0, 0.0), (1.0, 0.1)), 2,
                               (0.0, 30.0), cfg)
    assert rep.restricted

    # the first sign change on a uniform scan of a far tighter orbit
    fine = integrate(full_field_callable(sys), y0, (0.0, 30.0),
                     IntegratorConfig(rtol=1e-13, atol=1e-15))
    ts = np.linspace(0.0, 30.0, 100_000)
    inside = np.flatnonzero(np.abs(fine.sample(ts)[:, 0] - 5.0) < 0.05)
    lo, hi = float(ts[inside[0] - 1]), float(ts[inside[0]])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(fine.sample(mid)[0] - 5.0) < 0.05:
            hi = mid
        else:
            lo = mid
    assert rep.t_window[1] == pytest.approx(hi, abs=1e-8)

    # the band lies inside one accepted step of the compared orbit
    steps = integrate(full_field_callable(sys), y0, (0.0, 30.0), cfg).ts
    k = int(np.searchsorted(steps, hi))
    assert steps[k - 1] < hi and ts[inside[-1]] < steps[k]


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


# ---------------------------------------------------------------------------
# clocks integrated with the orbit

def _counting_integrate(monkeypatch):
    """Count the calls of ``dynamics.integrate``."""
    from blocksep import dynamics

    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counted)
    return calls


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_field_returns_the_clock_rates_the_state_carries(name):
    entry = catalog.load(name)
    sys = entry.system
    field = full_field_callable(sys)
    N = sys.dim
    y = (entry.initial_point.as_array() + 0.01).tolist()
    # a constant S has the gate's twist written in, and a varying one
    # inlines the gate's own lines: the rates are the twist's alpha
    alpha = sys.jet.twist(y[:N]).alpha
    plain = field(0.0, y)
    assert len(plain) == 2 * N
    for extra in range(1, sys.n + 1):
        out = field(0.0, y + [float(k) for k in range(extra, 0, -1)])
        assert len(out) == 2 * N + extra
        assert out[:2 * N] == plain
        assert np.array_equal(out[2 * N:], alpha[:extra])


def _assert_same_trajectory(a, b):
    assert np.array_equal(a.ts, b.ts) and np.array_equal(a.ys, b.ys)
    assert a.F.shape == b.F.shape == (len(a) - 1, a.dim, 7)
    assert np.array_equal(a.h, b.h) and np.array_equal(a.F, b.F)


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_integrate_hands_the_field_lists(name):
    # integrate hands the field the stages' list and gets the kernel's
    # tuple back
    entry = catalog.load(name)
    sys = entry.system
    field = full_field_callable(sys)
    seen = set()

    def on_lists(t, y):
        out = field(t, y)
        seen.add((type(y), type(out)))
        return out

    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    y0 = _with_clocks(sys, entry.initial_point.as_array())
    integrate(on_lists, y0, (0.0, 5.0), cfg)
    assert seen == {(list, tuple)}


def test_block_clock_reads_its_orbit_column(pendula, monkeypatch):
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10)
    traj = integrate(full_field_callable(pendula),
                     _with_clocks(pendula, PENDULA_P0.as_array()),
                     (0.0, 6.0), cfg)
    calls = _counting_integrate(monkeypatch)
    clocks = [block_clock(pendula, traj, r) for r in range(1, pendula.n + 1)]
    assert calls == []
    N = pendula.dim
    ts = np.linspace(0.0, 6.0, 37)
    for r, clock in enumerate(clocks, start=1):
        assert clock.trajectory is traj and clock.column == 2 * N + r - 1
        for t in ts:
            assert clock.tau(float(t)) == traj.sample(float(t))[2 * N + r - 1]
        assert np.array_equal(clock.tau(ts),
                              traj.sample(ts)[:, 2 * N + r - 1])
        assert clock.tau(0.0) == 0.0


@pytest.mark.parametrize("name", ["pendula", "oscillators"])
def test_clock_of_a_phase_orbit_raises(name, monkeypatch):
    # an orbit of (q, p) alone has no clock columns: it is refused, and
    # not integrated again
    entry = catalog.load(name)
    sys = entry.system
    phase = integrate(full_field_callable(sys), entry.initial_point.as_array(),
                      (0.0, 4.0), IntegratorConfig(rtol=1e-7, atol=1e-9))
    calls = _counting_integrate(monkeypatch)
    for r in range(1, sys.n + 1):
        with pytest.raises(DynamicsError, match="has no block clocks"):
            block_clock(sys, phase, r)
    assert calls == []


def test_compare_integrates_twice(pendula, monkeypatch):
    # the full orbit with its clocks, then the reduced orbit
    calls = _counting_integrate(monkeypatch)
    compare_block_orbits(pendula, PENDULA_P0, 1, (0.0, 3.0),
                         IntegratorConfig(rtol=1e-8, atol=1e-10))
    assert len(calls) == 2


def test_coarse_clocks_follow_the_fine_orbit():
    # each clock rides the orbit's step control: at rtol 1e-6 it stays
    # as close to a tight run as the orbit does (a clock integrated on
    # its own steps was off by 8.7e-5 here)
    entry = catalog.load("pendula")
    sys = entry.system
    ts = np.linspace(0.0, 30.0, 3001)

    def clocks(rtol, atol):
        traj = integrate(full_field_callable(sys),
                         _with_clocks(sys, entry.initial_point.as_array()),
                         (0.0, 30.0), IntegratorConfig(rtol=rtol, atol=atol))
        return [block_clock(sys, traj, r).tau(ts)
                for r in range(1, sys.n + 1)]

    for coarse, fine in zip(clocks(1e-6, 1e-8), clocks(1e-12, 1e-14)):
        assert float(np.max(np.abs(coarse - fine))) <= 1e-6


def _bench_initial_point(entry, variant):
    """The initial point of ``entry`` at variant 0-7 of the benchmark."""
    import sys  # imported here: the tests name their systems sys
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads.initial_point(entry, variant)


def _signs_by_80_halvings(traj, column, alpha):
    """BlockClock._signs as it bisected: always 80 halvings."""
    a0 = alpha(traj.t_start)
    s0 = math.copysign(1.0, a0) if a0 != 0.0 else 0.0
    if s0 == 0.0:
        return s0, True, traj.t_start
    times, rates = traj.rates(column, 64)
    for i in np.flatnonzero(rates * s0 <= 0.0):
        t = float(times[i])
        a = alpha(t)
        if a == 0.0 or (a > 0) != (s0 > 0):
            lo, hi = float(times[max(i - 1, 0)]), t
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                am = alpha(mid)
                if am == 0.0:
                    hi = mid
                    break
                if (am > 0) == (s0 > 0):
                    lo = mid
                else:
                    hi = mid
            return s0, True, hi
    return s0, False, None


@pytest.mark.parametrize("variant", range(8))
def test_sign_bisection_stops_when_the_bracket_stops_moving(variant):
    # the pendula compare of the benchmark: the same sign change, bit for
    # bit, with fewer twist evaluations than 80 halvings
    entry = catalog.load("pendula")
    sys = entry.system
    q, p = _bench_initial_point("pendula", variant)
    traj = integrate(full_field_callable(sys), _with_clocks(sys, q + p),
                     (0.0, 30.0), IntegratorConfig(rtol=1e-10, atol=1e-12))
    clock = block_clock(sys, traj, 1)
    counts = []

    def counted(t):
        counts[-1] += 1
        return clock.alpha(t)

    counts.append(0)
    reference = _signs_by_80_halvings(traj, clock.column, counted)
    counts.append(0)
    signs = BlockClock(1, traj, clock.column, counted)._signs
    assert reference[1] and signs[:2] == reference[:2]
    assert _bits(signs[2]) == _bits(reference[2])
    assert counts[1] < counts[0]
