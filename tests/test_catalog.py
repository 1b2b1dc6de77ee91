"""Catalog entries against their published reference data.

The pendula chain pins the separation determinant and the frozen
constants; the oscillator stack pins the closed form and the
synchronization property; the four-body chain pins the chart chain,
the printed matrix pair, the conserved tensors and the two-angle
interaction; the 3D metric families pin flatness and leaf curvature.
"""

import math

import numpy as np
import pytest

import walker
from conftest import PENDULA_C, PENDULA_P0, block_energy, phase_value

from blocksep import catalog, dynamics, expr, geometry as geo, model
from blocksep.catalog import (CanonicalTransform, CatalogError,
                              case_i_residuals, case_ii_residuals,
                              case_i_system, case_ii_system)
from blocksep.geometry import determinant_expression
from blocksep.model import PhasePoint

Q3 = ("q1", "q2", "q3")


@pytest.fixture(scope="module")
def pendula_entry():
    return catalog.pendula()


@pytest.fixture(scope="module")
def oscillator_entry():
    return catalog.oscillators()


@pytest.fixture(scope="module")
def calogero():
    return catalog.calogero4()


@pytest.fixture(scope="module")
def case_i_family():
    return catalog.e3_case_i_family()


@pytest.fixture(scope="module")
def case_ii_family():
    return catalog.e3_case_ii_family()


def phase_map_symplectic_residual(transform, point, h=1e-6):
    """Central-difference Jacobian of the full phase map, tested
    against the canonical skew form."""
    n = len(point.q)
    y0 = np.array(tuple(point.q) + tuple(point.p), dtype=float)

    def phase(y):
        P = transform.to_new(PhasePoint(tuple(y[:n]), tuple(y[n:])))
        return np.array(tuple(P.q) + tuple(P.p))

    M = np.empty((2 * n, 2 * n))
    for k in range(2 * n):
        yp = y0.copy()
        ym = y0.copy()
        yp[k] += h
        ym[k] -= h
        M[:, k] = (phase(yp) - phase(ym)) / (2 * h)
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return float(np.max(np.abs(M.T @ omega @ M - omega)))


# ---------------------------------------------------------------------------
# pendula

def test_pendula_determinant_at_origin(pendula_entry):
    det = determinant_expression(pendula_entry.system.stackel)
    env = {c: 0.0 for c in Q3}
    assert walker.evaluate(det, env) == pytest.approx(5.0, abs=1e-12)
    grad = tuple(walker.derivative(det, env, c) for c in Q3)
    assert grad == pytest.approx((5.0, -6.0, 2.0), abs=1e-12)


def test_pendula_frozen_constants(pendula_entry):
    c = model.separation_constants(pendula_entry.system, PENDULA_P0)
    assert np.max(np.abs(np.array(c) - PENDULA_C)) <= 1e-8
    assert model.hamiltonian(pendula_entry.system,
                             pendula_entry.initial_point) == pytest.approx(
        PENDULA_C[0], abs=1e-8)


def test_pendula_entry_shape(pendula_entry):
    assert pendula_entry.system.structure.sizes == (1, 1, 1)
    assert pendula_entry.initial_point == PENDULA_P0
    assert pendula_entry.regular((0.0, 0.0, 0.0))
    pts = pendula_entry.sample(20, seed=5)
    assert pts == pendula_entry.sample(20, seed=5)
    assert all(pendula_entry.regular(q) for q in pts)


# ---------------------------------------------------------------------------
# oscillators

def test_oscillator_first_inverse_row_is_twist(oscillator_entry):
    tw = model.twist_rows(oscillator_entry.system, (0.1, -0.2, 0.3))
    assert np.allclose(tw.matrix[0], (2.0, 1.0, 0.5), atol=1e-14)


def test_oscillator_default_is_synchronized(oscillator_entry):
    # alpha_i * omega_i = 2 for every mode by construction
    start = oscillator_entry.initial_point
    quarter = oscillator_entry.closed_form(start, math.pi / 2)
    half = oscillator_entry.closed_form(start, math.pi)
    assert np.allclose(half.q, start.q, atol=1e-12)
    assert np.allclose(half.p, start.p, atol=1e-12)
    assert not np.allclose(quarter.q, start.q, atol=1e-3)


def test_oscillator_orbit_matches_closed_form(oscillator_entry):
    field = dynamics.full_field_callable(oscillator_entry.system)
    start = oscillator_entry.initial_point
    y0 = np.array(start.q + start.p)
    traj = dynamics.integrate(field, y0, (0.0, math.pi))
    worst = 0.0
    for t in np.linspace(0.0, math.pi, 200):
        ref = oscillator_entry.closed_form(start, float(t))
        got = traj.sample(float(t))
        worst = max(worst, float(np.max(np.abs(
            got - np.array(ref.q + ref.p)))))
    assert worst <= 1e-7


def test_oscillator_zero_frequency_mode():
    entry = catalog.oscillators(omega=(0.0, 1.0), alpha=(0.5, 2.0))
    start = PhasePoint((1.0, 0.2), (0.4, -0.3))
    ref = entry.closed_form(start, 2.0)
    # drifting mode: q = q0 + alpha p0 t
    assert ref.q[0] == pytest.approx(1.0 + 0.5 * 0.4 * 2.0, abs=1e-14)
    assert ref.p[0] == 0.4
    field = dynamics.full_field_callable(entry.system)
    traj = dynamics.integrate(field, np.array(start.q + start.p), (0.0, 2.0))
    assert np.max(np.abs(traj.sample(2.0)
                         - np.array(ref.q + ref.p))) <= 1e-8


def test_oscillator_unit_twist_is_direct_sum():
    entry = catalog.oscillators(omega=(1.0, 3.0), alpha=(1.0, 1.0))
    rng = np.random.default_rng(8)
    for _ in range(20):
        P = PhasePoint(tuple(rng.uniform(-1, 1, 2)),
                       tuple(rng.uniform(-1, 1, 2)))
        total = sum(block_energy(entry.system, r, P) for r in (1, 2))
        assert model.hamiltonian(entry.system, P) == pytest.approx(
            total, rel=1e-14)


def test_oscillator_parameter_validation():
    with pytest.raises(CatalogError, match="positive"):
        catalog.oscillators(omega=(1.0,), alpha=(0.0,))
    with pytest.raises(CatalogError, match="equal-length"):
        catalog.oscillators(omega=(1.0, 2.0), alpha=(1.0,))


# ---------------------------------------------------------------------------
# four-body chain

def test_rotation_stage_is_orthogonal(calogero):
    stage = calogero.cartesian.transform.stages[0]
    J = stage.jacobian((0.3, -0.2, 0.5, 1.0))
    assert np.max(np.abs(J.T @ J - np.eye(4))) <= 1e-15


def test_stage_jets_equal_the_walker(calogero):
    # each stage's positions and Jacobian come from one jet of its
    # closed forms; they equal the tree walker's bit for bit
    tr = calogero.cartesian.transform
    pts = geo.rejection_sample(calogero.cartesian.sample_box, 20, seed=21,
                               predicate=calogero.cartesian.regular)
    for x in pts:
        q = tuple(float(v) for v in x)
        for stage in tr.stages:
            q = tuple(stage.forward(q))
            env = dict(zip(stage.new_names, q))
            want = [walker.evaluate(e, env) for e in stage.old_exprs]
            assert list(stage.old_positions(q)) == want
            J, want = stage.jacobian(q), walker.stage_jacobian(stage, q)
            assert J.shape == want.shape
            assert J.tobytes() == want.tobytes()


def test_center_of_mass_point_is_degenerate(calogero):
    tr = calogero.cartesian.transform
    z = tr.stages[0].forward((1.0, 1.0, 1.0, 1.0))
    assert np.max(np.abs(np.array(z) - (0.0, 0.0, 0.0, 2.0))) <= 1e-15
    sph = tr.new_positions((1.0, 1.0, 1.0, 1.0))
    assert sph[0] == pytest.approx(2.0, abs=1e-14)
    assert abs(sph[1]) <= 1e-14
    assert not calogero.cartesian.regular((1.0, 1.0, 1.0, 1.0))


def test_transform_roundtrip(calogero):
    tr = calogero.cartesian.transform
    pts = geo.rejection_sample(calogero.cartesian.sample_box, 30, seed=2,
                               predicate=calogero.cartesian.regular)
    rng = np.random.default_rng(3)
    for x in pts:
        p = tuple(rng.uniform(-1, 1, 4))
        P = PhasePoint(x, p)
        back = walker.to_old(tr, tr.to_new(P))
        assert np.max(np.abs(np.array(back.q) - x)) <= 1e-10
        assert np.max(np.abs(np.array(back.p) - p)) <= 1e-10
        fwd = tr.new_positions(tr.old_positions(tr.new_positions(x)))
        assert np.max(np.abs(np.array(fwd)
                             - tr.new_positions(x))) <= 1e-10


def test_transform_is_canonical(calogero):
    tr = calogero.cartesian.transform
    for x, p in (((0.9, -0.4, 0.2, -1.1), (0.1, 0.2, -0.3, 0.4)),
                 ((-1.2, -0.4, 0.4, 1.2), (0.2, -0.1, 0.3, -0.2))):
        res = phase_map_symplectic_residual(tr, PhasePoint(x, p))
        assert res <= 1e-9


def test_transform_stage_chaining_checked():
    stage = catalog._rotation_stage()
    with pytest.raises(CatalogError, match="chain"):
        CanonicalTransform([stage, stage])


def test_printed_matrix_pair(calogero):
    printed_inverse = [
        ["1", "1/r^2", "1/(r^2*sin(phi1)^2)"],
        ["0", "1", "(1-2*sin(phi1)^2)/sin(phi1)^2"],
        ["0", "1", "1/sin(phi1)^2"],
    ]
    rows = [[expr.parse(e) for e in row] for row in printed_inverse]
    rng = np.random.default_rng(17)
    for _ in range(100):
        env = {"r": rng.uniform(0.5, 2.0),
               "phi1": rng.uniform(0.3, math.pi - 0.3)}
        S = walker.matrix_values(calogero.system.stackel.entries, env)
        M = np.array([[walker.evaluate(e, env) for e in row] for row in rows])
        assert np.max(np.abs(S @ M - np.eye(3))) <= 1e-12
        tw = model.twist_rows(calogero.system,
                              (env["r"], env["phi1"], 1.0, 0.5))
        assert np.max(np.abs(tw.matrix - M)) <= 1e-12


def test_angular_potential_depends_on_two_angles_only(calogero):
    v3 = calogero.system.blocks[2].potential
    assert v3.free_variables() == frozenset({"phi2", "phi3"})


def test_angular_potential_certifies_split(calogero):
    """r^2 sin^2(phi1) times the pulled-back interaction must not vary
    with the radius or the polar angle."""
    tr = calogero.cartesian.transform
    Vc = calogero.cartesian.hamiltonian.scalar
    v3 = calogero.system.blocks[2].potential
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        f2 = rng.uniform(0.3, math.pi - 0.3)
        f3 = rng.uniform(-math.pi + 0.3, math.pi - 0.3)
        base = walker.evaluate(v3, {"phi2": f2, "phi3": f3})
        for _ in range(6):
            q = (rng.uniform(0.5, 2.0), rng.uniform(0.3, math.pi - 0.3),
                 f2, f3)
            if not calogero.regular(q):
                continue
            x = tr.old_positions(q)
            vx = walker.evaluate(Vc, dict(zip(calogero.cartesian.coords, x)))
            scaled = q[0] ** 2 * math.sin(q[1]) ** 2 * vx
            worst = max(worst, abs(scaled - base) / max(1.0, abs(base)))
    assert worst <= 1e-8


def test_hamiltonian_agreement(calogero):
    ref = calogero.cartesian
    pts = geo.rejection_sample(ref.sample_box, 200, seed=11,
                               predicate=ref.regular)
    rng = np.random.default_rng(13)
    worst = np.zeros(3)
    for x in pts:
        p = tuple(rng.uniform(-1, 1, 4))
        P = PhasePoint(x, p)
        sph = ref.transform.to_new(P)
        vals = (model.hamiltonian(calogero.system, sph),
                model.separation_constants(calogero.system, sph)[1],
                model.separation_constants(calogero.system, sph)[2])
        refs = (phase_value(ref.hamiltonian, P),
                phase_value(ref.integrals[0], P),
                phase_value(ref.integrals[1], P))
        for i in range(3):
            worst[i] = max(worst[i],
                           abs(vals[i] - refs[i]) / max(1.0, abs(refs[i])))
    assert np.max(worst) <= 1e-9


def test_conserved_tensor_eigenvalues(calogero):
    rng = np.random.default_rng(29)
    k1, k2 = (s.tensor for s in calogero.cartesian.integrals)
    for _ in range(20):
        x = tuple(rng.uniform(-1.5, 1.5, 4))
        R2 = sum(v * v for v in x)
        P = sum(x[i] * x[j] for i in range(4) for j in range(i + 1, 4))
        vals2 = np.sort(np.linalg.eigvalsh(k2.values(x)))
        assert np.max(np.abs(vals2 - np.sort([0.0, R2, R2, R2]))) <= 1e-10
        vals1 = np.sort(np.linalg.eigvalsh(k1.values(x)))
        want1 = np.sort([0.0, R2, P - R2 / 2, P - R2 / 2])
        assert np.max(np.abs(vals1 - want1)) <= 1e-10


def test_conserved_tensor_geometry(calogero):
    ref = calogero.cartesian
    flat = geo.MetricField(
        ref.coords, [[1.0 if i == j else 0.0 for j in range(4)]
                     for i in range(4)])
    V = ref.potential
    pts = geo.rejection_sample(ref.sample_box, 30, seed=19,
                               predicate=ref.regular)
    for scalar in ref.integrals:
        k_con = scalar.tensor
        k_cov = geo.TensorField2(ref.coords, k_con.grid, "covariant",
                                 symmetric=True)
        k_mix = geo.TensorField2(ref.coords, k_con.grid, "mixed")
        wk = wt = wh = wc = 0.0
        for x in pts:
            wk = max(wk, geo.killing_residual(flat, k_cov, x))
            wt = max(wt, max(geo.tsn_residuals(k_mix, flat, x)))
            wh = max(wh, geo.haantjes(k_mix, x)["condition_residual"])
            wc = max(wc, geo.characteristic_condition(k_mix, V, flat, x))
        assert wk <= 1e-10
        assert wt <= 1e-8
        assert wh <= 1e-8
        assert wc <= 1e-8


def test_spherical_involution(calogero):
    scalars = [geo.first_integral_scalar(calogero.system, a)
               for a in (1, 2, 3)]
    pts = calogero.sample(100, seed=31)
    rng = np.random.default_rng(37)
    worst = 0.0
    for q in pts:
        P = PhasePoint(q, tuple(rng.uniform(-1, 1, 4)))
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, abs(geo.poisson_bracket(
                    scalars[i], scalars[j], P)))
    assert worst <= 1e-8


def test_spherical_separability_residuals(calogero):
    pts = calogero.sample(100, seed=41)
    worst_e = worst_m = worst_v = 0.0
    for q in pts:
        for a in (2, 3):
            worst_e = max(worst_e,
                          geo.block_eisenhart_residual(calogero.system, a, q))
        res = geo.block_levi_civita_residual(calogero.system, q)
        worst_m = max(worst_m, res["metric_residual"])
        worst_v = max(worst_v, res["potential_residual"])
    assert worst_e <= 1e-7
    assert worst_m <= 1e-7
    assert worst_v <= 1e-7


def test_spherical_block_eigenvalues(calogero):
    rng = np.random.default_rng(43)
    for _ in range(20):
        q = (rng.uniform(0.5, 2.0), rng.uniform(0.3, math.pi - 0.3),
             rng.uniform(0.3, math.pi - 0.3), rng.uniform(-2.8, 2.8))
        r, f1 = q[0], q[1]
        lam2 = geo.block_eigenvalues(calogero.system, 2, q)
        want2 = (0.0, r * r, r * r * (1 - 2 * math.sin(f1) ** 2))
        assert np.max(np.abs(np.array(lam2) - want2)) <= 1e-10
        lam3 = geo.block_eigenvalues(calogero.system, 3, q)
        assert np.max(np.abs(np.array(lam3) - (0.0, r * r, r * r))) <= 1e-10


def test_block3_orbit_projection(calogero):
    cfg = dynamics.IntegratorConfig(rtol=1e-10, atol=1e-12)
    report = dynamics.compare_block_orbits(calogero.system,
                                           calogero.initial_point, 3,
                                           (0.0, 5.0), config=cfg)
    assert report.sup_max <= 1e-6
    assert not report.restricted
    assert report.samples >= 500


# ---------------------------------------------------------------------------
# 3D metric families

def leaf_grid(points):
    return [(float(v), float(w)) for v, w in points]


def test_case_i_trivial_flat():
    g = catalog.e3_case_i(0.0, 0.0, 1.0, 0.0, "1")
    for q in ((0.0, 0.0, 0.0), (0.4, -0.2, 0.7)):
        assert np.max(np.abs(geo.riemann(g, q))) == 0.0


def test_case_i_preset_is_flat(case_i_family):
    pts = case_i_family.sample(20, seed=3)
    worst = max(np.max(np.abs(geo.riemann(case_i_family.metric, q)))
                for q in pts)
    assert worst <= 1e-6
    report = case_i_family.residuals(pts)
    assert max(report.values()) <= 1e-12


def test_case_i_detects_wrong_profile():
    report = case_i_residuals(0.0, 0.0, 1.0, 0.0, "exp(v)",
                              [(0.2, -0.3), (0.0, 0.1)])
    assert report["reduced_vv"] > 1e-3
    assert report["mixed_vv"] > 1e-3
    assert report["reduced_ww"] == 0.0
    g = catalog.e3_case_i(0.0, 0.0, 1.0, 0.0, "exp(v)")
    assert np.max(np.abs(geo.riemann(g, (0.1, 0.2, -0.3)))) >= 1e-3


def test_case_i_parameter_validation():
    with pytest.raises(CatalogError, match="c2"):
        catalog.e3_case_i(0.0, 0.0, 0.0, 0.0, "1")
    with pytest.raises(CatalogError, match="profile"):
        catalog.e3_case_i(0.0, 0.0, 1.0, 0.0, "u+v")


def test_case_i_system_structure():
    sysi = case_i_system(0.7, 0.0, 1.0, 1.0, 0.0, "2*exp(-v)*cos(w)")
    q = (0.1, 0.2, -0.3)
    f = 2 * math.exp(-0.2) * math.cos(-0.3)
    l = math.exp(-0.2)
    tw = model.twist_rows(sysi, q)
    assert np.allclose(tw.matrix[0], (1 / f ** 2, 1 / l ** 2), atol=1e-12)
    # the second integral collapses to the axis kinetic term
    rng = np.random.default_rng(7)
    for _ in range(20):
        P = PhasePoint(tuple(rng.uniform(-0.5, 0.5, 3)),
                       tuple(rng.uniform(-1, 1, 3)))
        K2 = model.separation_constants(sysi, P)[1]
        H = model.hamiltonian(sysi, P)
        assert K2 + 0.7 * H == pytest.approx(0.5 * P.p[0] ** 2, abs=1e-12)


def test_case_ii_preset_is_flat(case_ii_family):
    pts = case_ii_family.sample(20, seed=5)
    worst = max(np.max(np.abs(geo.riemann(case_ii_family.metric, q)))
                for q in pts)
    assert worst <= 1e-6
    report = case_ii_family.residuals(pts)
    assert max(report.values()) <= 1e-12


def test_case_ii_leaf_scalar(case_ii_family):
    pts = case_ii_family.sample(50, seed=9)
    for (u, v, w) in pts:
        leaf = case_ii_family.leaf_metric(u)
        got = geo.ricci_scalar(leaf, (v, w))
        want = case_ii_family.leaf_scalar_expected(u)
        assert abs(got - want) <= 1e-6 * abs(want)


def test_case_ii_leaf_sectional_component(case_ii_family):
    # mixed curvature component of the leaf at a frozen point
    leaf = case_ii_family.leaf_metric(1.3)
    R = geo.riemann(leaf, (0.2, 0.4))
    f = (1 + 0.2 ** 2 + 0.4 ** 2) / 2
    assert R[0, 1, 0, 1] == pytest.approx(1.0 / f ** 2, rel=1e-9)
    assert R[0, 1, 0, 1] == pytest.approx(2.7777777778, rel=1e-6)


def test_case_ii_flat_leaves():
    fam = catalog.e3_case_ii_family(c1=0.0, c2=-1.0, f="1")
    assert np.max(np.abs(geo.riemann(fam.metric, (0.3, 0.2, -0.4)))) == 0.0
    assert fam.leaf_scalar_expected(0.7) == 0.0


@pytest.mark.parametrize("c1, c2", [(-1.0, 0.0), (0.7, -1.0), (2.0, 1.5)])
def test_case_ii_leaf_scalar_expected_matches_tree_walk(c1, c2):
    # the compiled scale gives the tree walker's value, bit for bit
    fam = catalog.e3_case_ii_family(c1=c1, c2=c2)
    for u in np.linspace(*fam.sample_box[0], 41):
        lu = walker.evaluate(fam.scale, {"u": float(u)})
        assert fam.leaf_scalar_expected(u) == 2.0 * lu * lu * c1 * c1


def test_case_ii_detects_wrong_profile():
    report = case_ii_residuals(-1.0, 0.0, "1+v^2+w^2",
                               [(0.2, 0.4)], u_values=(1.3,))
    assert report["leaf_profile"] > 1e-3
    assert report["axis_ode"] <= 1e-12
    g = catalog.e3_case_ii(-1.0, 0.0, "1+v^2+w^2")
    assert np.max(np.abs(geo.riemann(g, (1.3, 0.2, 0.4)))) >= 1e-3


def test_flatness_residuals_keep_a_nan():
    # Python's max drops a nan that follows a number: here the profile
    # overflows at the second point of case i, and at the only point of
    # case ii the profile equation is inf - inf
    report = case_i_residuals(0.0, 0.0, 1.0, 0.0, "1e300*exp(30*v)",
                              [(0.0, 0.0), (1.0, 0.0)])
    assert math.isnan(report["mixed_vv"])
    assert math.isnan(report["reduced_vv"])
    assert report["leaf_flatness"] == 0.0
    report = case_ii_residuals(-1.0, 0.0, "1e200*(1+v^2+w^2)", [(0.3, 0.2)],
                               u_values=[1.0])
    assert math.isnan(report["leaf_profile"])
    assert report["axis_ode"] == 0.0


def test_case_ii_parameter_validation():
    with pytest.raises(CatalogError, match="cannot both vanish"):
        catalog.e3_case_ii(0.0, 0.0, "1")


def test_case_ii_system_structure():
    sysii = case_ii_system(0.4, -1.0, 0.0, "(1+v^2+w^2)/2")
    rng = np.random.default_rng(15)
    for _ in range(20):
        q = (rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(-1, 1))
        p = tuple(rng.uniform(-1, 1, 3))
        P = PhasePoint(q, p)
        f = (1 + q[1] ** 2 + q[2] ** 2) / 2
        K2 = model.separation_constants(sysii, P)[1]
        H = model.hamiltonian(sysii, P)
        want = 0.5 * f * f * (p[1] ** 2 + p[2] ** 2)
        assert K2 + 0.4 * H == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# registry

def test_registry_names():
    assert catalog.names() == ("pendula", "oscillators", "calogero4",
                               "e3-case-i", "e3-case-ii")


def test_registry_load():
    entry = catalog.load("pendula")
    assert entry.name == "pendula"
    fam = catalog.load("e3-case-ii", c1=-2.0)
    # l(1) = -1/(c1*1) = 1/2, so the leaf scalar is 2 * (1/4) * c1^2
    assert fam.leaf_scalar_expected(1.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(CatalogError, match="known names"):
        catalog.load("three-body")


# ---------------------------------------------------------------------------
# the entry cache: one build per name and parameters in a process

def test_load_returns_the_entry_it_built(cold_jets):
    entry = catalog.load("pendula")
    assert catalog.load("pendula") is entry
    fam = catalog.load("e3-case-ii", c1=-2.0, c2=0.5)
    assert catalog.load("e3-case-ii", c2=0.5, c1=-2.0) is fam
    assert catalog.load("e3-case-ii") is not fam
    assert len(catalog._ENTRIES) == 3


def test_load_keys_each_parameter_by_its_type_and_repr(cold_jets,
                                                      monkeypatch):
    # -0.0 == 0.0 and 1 == 1.0, but each is an entry of its own
    plus = catalog.load("e3-case-ii", c2=0.0)
    minus = catalog.load("e3-case-ii", c2=-0.0)
    assert plus is not minus
    assert catalog.load("e3-case-ii", c2=-0.0) is minus
    assert catalog.load("e3-case-ii", c2=0.0) is plus
    assert catalog.load("e3-case-ii", c1=-1) is not catalog.load(
        "e3-case-ii", c1=-1.0)
    # a parameter need not be hashable
    omega = [1.0, 2.0, 4.0]
    assert catalog.load("oscillators", omega=omega) is catalog.load(
        "oscillators", omega=list(omega))
    assert len(catalog._ENTRIES) == 5
    # NumPy elides the repr of an array of more than 1,000 entries: an
    # array is keyed by its dtype, shape and bytes
    monkeypatch.setitem(catalog._BUILDERS, "arrays", lambda **p: object())
    a, b = np.ones(1001), np.ones(1001)
    b[500] = 2.0
    assert repr(a) == repr(b)
    assert catalog.load("arrays", omega=a) is not catalog.load("arrays",
                                                                omega=b)
    assert catalog.load("arrays", omega=b.copy()) is catalog.load(
        "arrays", omega=b)
    assert catalog.load("arrays", omega=a.reshape(7, 143)) is not \
        catalog.load("arrays", omega=a)
    assert len(catalog._ENTRIES) == 8


def test_load_keeps_the_items_last_used(cold_jets, monkeypatch):
    monkeypatch.setitem(catalog._BUILDERS, "items", lambda k: object())
    items = [catalog.load("items", k=k)
             for k in range(catalog.ENTRIES_KEPT + 40)]
    assert len(catalog._ENTRIES) == catalog.ENTRIES_KEPT
    assert catalog.load("items", k=len(items) - 1) is items[-1]  # kept
    assert catalog.load("items", k=40) is items[40]   # the oldest kept
    # the dropped are built again, in place of the least recently used
    assert catalog.load("items", k=0) is not items[0]
    assert catalog.load("items", k=len(items) - 1) is items[-1]
    assert catalog.load("items", k=41) is not items[41]


def test_a_builder_that_raises_is_not_kept(cold_jets, monkeypatch):
    calls = []
    real = catalog.e3_case_ii_family

    def counted(**params):
        calls.append(None)
        return real(**params)

    monkeypatch.setitem(catalog._BUILDERS, "e3-case-ii", counted)
    for k in (1, 2):
        with pytest.raises(CatalogError, match="cannot both vanish"):
            catalog.load("e3-case-ii", c1=0.0, c2=0.0)
        assert len(calls) == k and catalog._ENTRIES == {}
