"""End-to-end acceptance gate.

Eleven numbered criteria, each printing one PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to watch them).  Tolerances are
asserted exactly as stated; timed criteria assert their wall-clock
budgets too.
"""

import math
import time

import numpy as np
import pytest

import walker
from conftest import PENDULA_C, PENDULA_P0, phase_value

from blocksep import catalog, cli, dynamics, expr, geometry as geo, model
from blocksep.dynamics import IntegratorConfig
from blocksep.model import PhasePoint, StackelMatrix, TwistedSystem


def _report(num: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status}: {label} [{detail}]")
    assert ok, f"criterion {num} failed: {label} [{detail}]"


@pytest.fixture(scope="module")
def pendula():
    return catalog.pendula()


@pytest.fixture(scope="module")
def calogero():
    return catalog.calogero4()


def test_criterion_01_pendula_constants(pendula):
    t0 = time.perf_counter()
    c = model.separation_constants(pendula.system, PENDULA_P0)
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(np.array(c) - PENDULA_C)))
    _report(1, "frozen pendula constants",
            worst <= 1e-8 and elapsed < 1.0,
            f"max dev {worst:.3e}, {elapsed:.3f}s")


def test_criterion_02_determinant_gradient(pendula):
    det = geo.determinant_expression(pendula.system.stackel)
    env = {"q1": 0.0, "q2": 0.0, "q3": 0.0}
    value = walker.evaluate(det, env)
    grad = np.array([walker.derivative(det, env, v) for v in
                     ("q1", "q2", "q3")])
    worst = max(abs(value - 5.0), float(np.max(np.abs(grad - (5, -6, 2)))))
    _report(2, "separation determinant and gradient at the origin",
            worst <= 1e-12, f"max dev {worst:.3e}")


def test_criterion_03_orbit_projection(pendula, tmp_path):
    t0 = time.perf_counter()
    coarse = dynamics.compare_block_orbits(
        pendula.system, PENDULA_P0, 1, (0.0, 30.0),
        IntegratorConfig(rtol=1e-10, atol=1e-12))
    fine = dynamics.compare_block_orbits(
        pendula.system, PENDULA_P0, 1, (0.0, 30.0),
        IntegratorConfig(rtol=1e-12, atol=1e-14))
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[system]\ncatalog = pendula\n"
        "[integration]\nt_span = 0.0, 30.0\nrtol = 1e-10\natol = 1e-12\n"
        f"[output]\ndirectory = {tmp_path / 'out'}\n")
    code = cli.main(["compare", "--config", str(cfg_path), "--block", "1"])
    elapsed = time.perf_counter() - t0
    ratio = coarse.sup_max / max(fine.sup_max, 1e-300)
    _report(3, "block-1 projection matches the reduced orbit",
            coarse.sup_max <= 1e-6 and ratio >= 5.0 and code == 0
            and elapsed < 10.0,
            f"sup {coarse.sup_max:.3e}, refinement x{ratio:.1f}, "
            f"exit {code}, {elapsed:.1f}s")


def test_criterion_04_clock_nonlinearity(pendula):
    sys_ = pendula.system
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    y0 = np.concatenate([PENDULA_P0.as_array(), np.zeros(sys_.n)])
    traj = dynamics.integrate(dynamics.full_field_callable(sys_), y0,
                              (0.0, 30.0), cfg)
    # reference quadrature: composite Simpson on a dense uniform grid
    ts = np.linspace(0.0, 30.0, 3001)
    e1 = np.zeros(sys_.n)
    e1[0] = 1.0

    def twist(t):
        q = traj.sample(float(t))[:sys_.dim]
        S = walker.matrix_values(sys_.stackel.entries,
                                 dict(zip(sys_.structure.names, q)))
        return float(np.linalg.solve(S.T, e1)[0])

    vals = np.array([twist(t) for t in ts])
    h = ts[1] - ts[0]
    tau = np.zeros(len(ts))
    for j in range(2, len(ts), 2):
        tau[j] = tau[j - 2] + h / 3.0 * (vals[j - 2] + 4 * vals[j - 1]
                                         + vals[j])
    even = ts[::2]
    tau_even = tau[::2]
    secant = tau_even[-1] / even[-1]
    dev = float(np.max(np.abs(tau_even - secant * even)))
    # cross-check the production clock against the quadrature
    clock = dynamics.block_clock(sys_, traj, 1)
    agree = float(np.max(np.abs(clock.tau(even) - tau_even)))
    _report(4, "block-1 clock is genuinely nonlinear in t",
            dev >= 0.01 and agree <= 1e-6,
            f"max dev {dev:.4f}, clock vs quadrature {agree:.1e}")


def _fitted_frequency(traj, index, t_hi):
    ts = np.linspace(0.0, t_hi, 2400)
    qs = np.array([traj.sample(float(t))[index] for t in ts])
    crossings = []
    for j in range(len(ts) - 1):
        if qs[j] < 0.0 <= qs[j + 1]:
            lo, hi = float(ts[j]), float(ts[j + 1])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if traj.sample(mid)[index] < 0.0:
                    lo = mid
                else:
                    hi = mid
            crossings.append(0.5 * (lo + hi))
            if len(crossings) == 2:
                break
    if len(crossings) < 2:
        return math.nan
    return 2.0 * math.pi / (crossings[1] - crossings[0])


def test_criterion_05_oscillator_closed_form():
    t0 = time.perf_counter()
    entry = catalog.oscillators(omega=(1.0, 2.0, 4.0),
                                alpha=(2.0, 1.0, 0.5))
    start = entry.initial_point
    field = dynamics.full_field_callable(entry.system)
    period = math.pi          # every mode runs at alpha*omega = 2
    traj = dynamics.integrate(field, start.as_array(), (0.0, 3 * period),
                              IntegratorConfig(rtol=1e-11, atol=1e-13))
    worst = 0.0
    for t in np.linspace(0.0, period, 200):
        ref = entry.closed_form(start, float(t))
        got = traj.sample(float(t))
        worst = max(worst, float(np.max(np.abs(
            got - np.array(ref.q + ref.p)))))
    freqs = [_fitted_frequency(traj, i, 3 * period) for i in range(3)]
    freq_dev = max(abs(f - 2.0) / 2.0 for f in freqs)
    elapsed = time.perf_counter() - t0
    _report(5, "constant-twist oscillator closed form",
            worst <= 1e-7 and freq_dev <= 1e-6 and elapsed < 5.0,
            f"sup {worst:.3e}, fitted-frequency dev {freq_dev:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_06_involution(pendula, calogero):
    t0 = time.perf_counter()
    worst = 0.0
    for entry, seed in ((pendula, 101), (calogero, 102)):
        n = entry.system.n
        scalars = [geo.first_integral_scalar(entry.system, a)
                   for a in range(1, n + 1)]
        pts = entry.sample(100, seed=seed)
        rng = np.random.default_rng(seed + 1)
        for q in pts:
            P = PhasePoint(q, tuple(rng.uniform(-1, 1, entry.system.dim)))
            for i in range(n):
                for j in range(i + 1, n):
                    worst = max(worst, abs(geo.poisson_bracket(
                        scalars[i], scalars[j], P)))
    elapsed = time.perf_counter() - t0
    _report(6, "involution of the separation integrals",
            worst <= 1e-8 and elapsed < 5.0,
            f"max bracket {worst:.3e}, {elapsed:.2f}s")


def test_criterion_07_calogero_matrix_identity(calogero):
    printed_inverse = [
        ["1", "1/r^2", "1/(r^2*sin(phi1)^2)"],
        ["0", "1", "(1-2*sin(phi1)^2)/sin(phi1)^2"],
        ["0", "1", "1/sin(phi1)^2"],
    ]
    rows = [[expr.parse(e) for e in row] for row in printed_inverse]
    rng = np.random.default_rng(17)
    worst_id = 0.0
    for _ in range(100):
        env = {"r": rng.uniform(0.5, 2.0),
               "phi1": rng.uniform(0.3, math.pi - 0.3)}
        S = walker.matrix_values(calogero.system.stackel.entries, env)
        M = np.array([[walker.evaluate(e, env) for e in row] for row in rows])
        worst_id = max(worst_id,
                       float(np.max(np.abs(S @ M - np.eye(3)))))

    ref = calogero.cartesian
    pts = geo.rejection_sample(ref.sample_box, 200, seed=11,
                               predicate=ref.regular)
    rng = np.random.default_rng(13)
    worst_rel = 0.0
    for x in pts:
        P = PhasePoint(x, tuple(rng.uniform(-1, 1, 4)))
        sph = ref.transform.to_new(P)
        pairs = (
            (model.hamiltonian(calogero.system, sph),
             phase_value(ref.hamiltonian, P)),
            (model.separation_constants(calogero.system, sph)[1],
             phase_value(ref.integrals[0], P)),
            (model.separation_constants(calogero.system, sph)[2],
             phase_value(ref.integrals[1], P)),
        )
        for got, want in pairs:
            worst_rel = max(worst_rel,
                            abs(got - want) / max(1.0, abs(want)))
    _report(7, "printed matrix pair and chart-change agreement",
            worst_id <= 1e-12 and worst_rel <= 1e-9,
            f"S*Sinv dev {worst_id:.3e}, chart dev {worst_rel:.3e}")


def test_criterion_08_killing_suite(calogero):
    ref = calogero.cartesian
    flat = geo.MetricField(
        ref.coords, [[1.0 if i == j else 0.0 for j in range(4)]
                     for i in range(4)])
    pts = geo.rejection_sample(ref.sample_box, 40, seed=19,
                               predicate=ref.regular)
    V = ref.potential
    worst = {"killing": 0.0, "tsn": 0.0, "charcond": 0.0}
    haantjes_second = 0.0
    for pos, scalar in enumerate(ref.integrals):
        grid = scalar.tensor.grid
        k_cov = geo.TensorField2(ref.coords, grid, "covariant",
                                 symmetric=True)
        k_mix = geo.TensorField2(ref.coords, grid, "mixed")
        for x in pts:
            worst["killing"] = max(worst["killing"],
                                   geo.killing_residual(flat, k_cov, x))
            worst["tsn"] = max(worst["tsn"],
                               max(geo.tsn_residuals(k_mix, flat, x)))
            worst["charcond"] = max(
                worst["charcond"],
                geo.characteristic_condition(k_mix, V, flat, x))
            if pos == 1:
                haantjes_second = max(
                    haantjes_second,
                    geo.haantjes(k_mix, x)["condition_residual"])
    ok = (worst["killing"] <= 1e-10 and worst["charcond"] <= 1e-8
          and haantjes_second <= 1e-8 and worst["tsn"] <= 1e-8)
    _report(8, "conserved-tensor geometry suite", ok,
            f"killing {worst['killing']:.1e}, tsn {worst['tsn']:.1e}, "
            f"haantjes {haantjes_second:.1e}, "
            f"charcond {worst['charcond']:.1e}")


def _separation_residuals(sys_, positions):
    worst = 0.0
    for q in positions:
        for a in range(2, sys_.n + 1):
            worst = max(worst, geo.block_eisenhart_residual(sys_, a, q))
        out = geo.block_levi_civita_residual(sys_, q)
        worst = max(worst, out["metric_residual"],
                    out["potential_residual"])
    return worst


def test_criterion_09_separation_identities(pendula, calogero):
    worst = max(_separation_residuals(pendula.system,
                                      pendula.sample(100, seed=201)),
                _separation_residuals(calogero.system,
                                      calogero.sample(100, seed=202)))
    rows = [list(r) for r in pendula.system.stackel.entries]
    rows[0][0] = expr.parse("2+0.1*q2")
    broken = TwistedSystem(pendula.system.structure, StackelMatrix(rows),
                           pendula.system.blocks, pendula.system.probes)
    corrupted = _separation_residuals(broken, pendula.sample(20, seed=203))
    _report(9, "separation identities hold and detect corruption",
            worst <= 1e-7 and corrupted >= 1e-3,
            f"healthy {worst:.3e}, corrupted {corrupted:.3e}")


def test_criterion_10_flat_space_curvature():
    t0 = time.perf_counter()
    fam_i = catalog.e3_case_i_family()
    fam_ii = catalog.e3_case_ii_family()
    worst_flat = 0.0
    for fam, seed in ((fam_i, 31), (fam_ii, 32)):
        for q in fam.sample(20, seed=seed):
            worst_flat = max(worst_flat,
                             float(np.max(np.abs(
                                 geo.riemann(fam.metric, q)))))
    worst_leaf = 0.0
    for (u, v, w) in fam_ii.sample(50, seed=33):
        want = fam_ii.leaf_scalar_expected(u)
        got = geo.ricci_scalar(fam_ii.leaf_metric(u), (v, w))
        worst_leaf = max(worst_leaf, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    _report(10, "flat-space families and leaf curvature",
            worst_flat <= 1e-6 and worst_leaf <= 1e-6 and elapsed < 10.0,
            f"riemann {worst_flat:.3e}, leaf rel {worst_leaf:.3e}, "
            f"{elapsed:.1f}s")


# --- criterion 11: randomized derivative corpus ----------------------------

_CORPUS_VARS = ("x", "y", "z")


def _random_expression(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.65:
            return expr.Var(_CORPUS_VARS[rng.integers(0, 3)])
        return expr.Num(float(round(rng.uniform(0.2, 2.5), 3)))
    pick = int(rng.integers(0, 8))
    a = _random_expression(rng, depth - 1)
    b = _random_expression(rng, depth - 1)
    if pick == 0:
        return a + b
    if pick == 1:
        return a - b
    if pick == 2:
        return a * b
    if pick == 3:
        # keep denominators bounded away from zero
        return a / (b * b + expr.Num(0.7))
    if pick == 4:
        return expr.Call("sin", a)
    if pick == 5:
        return expr.Call("cos", a) * b
    if pick == 6:
        return expr.exp(expr.Call("sin", a))
    return expr.Call("sqrt", a * a + expr.Num(0.5))


def _tame(e, env):
    try:
        vals = [walker.evaluate(e, env)]
        for v in _CORPUS_VARS:
            vals.append(walker.derivative(e, env, v))
            vals.append(walker.second_derivative(e, env, v, v))
        vals.append(walker.second_derivative(e, env, "x", "y"))
    except expr.ExprError:
        return False
    return all(math.isfinite(x) and abs(x) < 1e3 for x in vals)


def test_criterion_11_derivative_corpus():
    rng = np.random.default_rng(2024)
    env = {"x": 0.4, "y": -0.7, "z": 1.1}
    corpus = []
    while len(corpus) < 50:
        e = _random_expression(rng, 3)
        if e.free_variables() and _tame(e, env):
            corpus.append(e)

    def value(e, shift):
        local = {k: env[k] + shift.get(k, 0.0) for k in env}
        return walker.evaluate(e, local)

    worst1 = worst2 = 0.0
    h1, h2 = 1e-6, 1e-4
    for e in corpus:
        for v in sorted(e.free_variables()):
            ad = walker.derivative(e, env, v)
            fd = (value(e, {v: h1}) - value(e, {v: -h1})) / (2 * h1)
            worst1 = max(worst1, abs(ad - fd) / max(1.0, abs(fd)))
            ad2 = walker.second_derivative(e, env, v, v)
            fd2 = (value(e, {v: h2}) - 2 * value(e, {})
                   + value(e, {v: -h2})) / h2 ** 2
            worst2 = max(worst2, abs(ad2 - fd2) / max(1.0, abs(fd2)))
    ok = worst1 <= 1e-6 and worst2 <= 1e-6
    _report(11, "derivatives match finite differences on a random corpus",
            ok, f"first {worst1:.3e}, second {worst2:.3e}, 50 expressions")
