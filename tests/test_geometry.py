"""Tensor-calculus tests against hand oracles and finite differences.

Classical metrics (polar plane, round sphere) pin the connection and
curvature code; a flat-space quartet of quadratic integrals exercises
the Killing, torsion, normality, and characteristic checks; the
three-pendulum chain exercises the twist-backed metric and the block
separability residuals, including a corrupted variant that must be
caught.
"""

import math

import numpy as np
import pytest

import walker
from conftest import (
    PENDULA_P0, metric_derivative, metric_second_derivative, pendula_like,
    phase_value,
)

from blocksep import expr, geometry as geo, model
from blocksep.geometry import (
    DegenerateMetricError,
    GeometryError,
    MetricField,
    PhaseScalar,
    TensorField2,
    VanishingTwistError,
    VarianceError,
    block_eigenvalues,
    block_eisenhart_residual,
    block_levi_civita_residual,
    characteristic_condition,
    christoffel,
    first_integral_scalar,
    haantjes,
    identity_tensor,
    killing_residual,
    nijenhuis,
    poisson_bracket,
    rejection_sample,
    riemann,
    symbolic_inverse_row,
    tsn_residuals,
)
from blocksep.model import (
    BlockStructure,
    NaturalBlock,
    PhasePoint,
    StackelMatrix,
    TwistedSystem,
    build_system,
)

X4 = ("x1", "x2", "x3", "x4")
Q3 = ("q1", "q2", "q3")


def flat_metric(coords):
    n = len(coords)
    return MetricField(
        coords, [[1.0 if i == j else 0.0 for j in range(n)]
                 for i in range(n)])


def polar_metric():
    return MetricField(("r", "theta"), [["1", "0"], ["0", "1/r^2"]])


def sphere_metric():
    return MetricField(
        ("theta", "phi"), [["1", "0"], ["0", "1/sin(theta)^2"]])


def pairwise_inverse_square():
    """V = sum over pairs of (x_i - x_j)^-2 on four points."""
    terms = [f"(x{i + 1}-x{j + 1})^-2"
             for i in range(4) for j in range(i + 1, 4)]
    return expr.parse("+".join(terms))


def quartet_second_tensor():
    """k^ij = |x|^2 delta^ij - x^i x^j, entries shared across the
    diagonal mirror so the symmetry tag holds structurally."""
    R2 = "x1^2+x2^2+x3^2+x4^2"
    grid = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            if i == j:
                e = expr.parse(f"{R2} - x{i + 1}*x{j + 1}")
            else:
                e = expr.parse(f"0 - x{i + 1}*x{j + 1}")
            grid[i][j] = e
            grid[j][i] = e
    return grid


def quartet_first_tensor():
    """k^ij = (P - |x|^2/2) delta^ij + x^i x^j + |x|^2/2
    - sigma (x^i + x^j)/2, with sigma the coordinate sum and P the sum
    of pairwise products."""
    R2 = "x1^2+x2^2+x3^2+x4^2"
    sig = "x1+x2+x3+x4"
    P = "x1*x2+x1*x3+x1*x4+x2*x3+x2*x4+x3*x4"
    grid = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            diag = f"({P}) - ({R2})/2" if i == j else "0"
            e = expr.parse(
                f"({diag}) + x{i + 1}*x{j + 1} + ({R2})/2 "
                f"- (({sig})*(x{i + 1}+x{j + 1}))/2")
            grid[i][j] = e
            grid[j][i] = e
    return grid


def rotating_frame_tensor():
    """Symmetric endomorphism with eigenframe rotating about the third
    axis: eigenvalues (1, 2, 3), eigenvectors turning with q3.  Its
    eigenplanes are non-normal, so every integrability residual must
    light up."""
    s2 = "sin(q3)^2"
    cs = "0-cos(q3)*sin(q3)"
    off = expr.parse(cs)
    grid = [[expr.parse(f"1+{s2}"), off, expr.parse("0")],
            [off, expr.parse("1+cos(q3)^2"), expr.parse("0")],
            [expr.parse("0"), expr.parse("0"), expr.parse("3")]]
    return TensorField2(Q3, grid, "mixed")


@pytest.fixture(scope="module")
def pendula():
    return pendula_like()


@pytest.fixture(scope="module")
def pendula_metric(pendula):
    return MetricField.from_system(pendula)


@pytest.fixture(scope="module")
def flat4():
    return flat_metric(X4)


def corrupted_pendula(pendula):
    """Pendula with a foreign coordinate leaked into one separation
    entry; built directly because the validating constructor would
    reject it."""
    bad = StackelMatrix([["2+0.1*q2", "1+q1", "2*q1^2+2"],
                         ["3", "q2", "q2^3+2"],
                         ["4", "q3", "q3^2+1"]])
    return TwistedSystem(pendula.structure, bad, pendula.blocks, ())


# ---------------------------------------------------------------------------
# types

def test_tensor_requires_square_grid():
    with pytest.raises(GeometryError, match="square"):
        TensorField2(("x", "y"), [["1", "0"]], "mixed")


def test_tensor_variance_tag_checked():
    with pytest.raises(VarianceError):
        TensorField2(("x",), [["1"]], "sideways")


def test_tensor_symmetry_tag_enforced():
    with pytest.raises(GeometryError, match="mirror"):
        TensorField2(("x", "y"), [["1", "x"], ["y", "1"]], "covariant",
                     symmetric=True)


def test_metric_symmetry_enforced():
    with pytest.raises(GeometryError, match="mirror"):
        MetricField(("x", "y"), [["1", "x"], ["y", "1"]])


def test_degenerate_metric_rejected():
    g = MetricField(("x", "y"), [["x", "0"], ["0", "1"]])
    with pytest.raises(DegenerateMetricError):
        g.covariant((0.0, 1.0))
    with pytest.raises(DegenerateMetricError):
        christoffel(g, (0.0, 1.0))
    # a contravariant tensor is lowered through the same gated inverse
    K = TensorField2(("x", "y"), [["1", "0"], ["0", "y"]], "contravariant")
    with pytest.raises(DegenerateMetricError):
        tsn_residuals(K, g, (0.0, 0.3))
    with pytest.raises(DegenerateMetricError):
        characteristic_condition(K, "x*y", g, (0.0, 0.3))


def test_point_binding_errors():
    g = polar_metric()
    with pytest.raises(GeometryError, match="coordinates"):
        g.contravariant((1.0,))


# ---------------------------------------------------------------------------
# Poisson brackets

def test_coordinate_momentum_bracket():
    F = PhaseScalar(Q3, scalar="q1")

    def half_square(k):  # (1/2) p_k^2
        grid = [["1" if i == j == k else "0" for j in range(3)]
                for i in range(3)]
        return PhaseScalar(Q3, tensor=TensorField2(Q3, grid,
                                                   "contravariant"))

    G = half_square(0)
    pt = PhasePoint((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))
    # {q1, p1^2 / 2} = p1
    assert poisson_bracket(F, G, pt) == 0.4
    assert poisson_bracket(G, F, pt) == -0.4
    # different coordinates commute
    assert poisson_bracket(F, half_square(1), pt) == 0.0
    assert poisson_bracket(F, F, pt) == 0.0


def test_phase_scalar_matches_model_values(pendula):
    rng = np.random.default_rng(11)
    H = first_integral_scalar(pendula, 1)
    K2 = first_integral_scalar(pendula, 2)
    for _ in range(25):
        pt = PhasePoint(tuple(rng.uniform(-0.3, 0.3, 3)),
                        tuple(rng.uniform(-1, 1, 3)))
        assert phase_value(H, pt) == pytest.approx(
            model.hamiltonian(pendula, pt), abs=1e-12)
        assert phase_value(K2, pt) == pytest.approx(
            model.separation_constants(pendula, pt)[1], abs=1e-12)


def test_pendula_integrals_in_involution(pendula):
    rng = np.random.default_rng(5)
    scalars = [first_integral_scalar(pendula, a) for a in (1, 2, 3)]
    worst = 0.0
    for _ in range(100):
        pt = PhasePoint(tuple(rng.uniform(-0.3, 0.3, 3)),
                        tuple(rng.uniform(-1, 1, 3)))
        worst = max(worst, abs(poisson_bracket(scalars[0], scalars[1], pt)))
        worst = max(worst, abs(poisson_bracket(scalars[1], scalars[2], pt)))
        worst = max(worst, abs(poisson_bracket(scalars[0], scalars[2], pt)))
    assert worst <= 1e-9


def test_bracket_rejects_mismatched_spaces():
    F = PhaseScalar(("x",), scalar="x")
    G = PhaseScalar(("x", "y"), scalar="y")
    with pytest.raises(GeometryError, match="different phase spaces"):
        poisson_bracket(F, G, PhasePoint((0.1,), (0.2,)))


def test_phase_scalar_variance_checked():
    T = TensorField2(("x",), [["1"]], "covariant")
    with pytest.raises(VarianceError):
        PhaseScalar(("x",), tensor=T)


# ---------------------------------------------------------------------------
# connection and curvature

def test_christoffel_flat_zero():
    g = flat_metric(("x", "y", "z"))
    assert np.max(np.abs(christoffel(g, (0.3, 0.4, 0.5)))) == 0.0


def test_christoffel_polar():
    Gam = christoffel(polar_metric(), (2.0, 0.5))
    assert Gam[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
    assert Gam[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
    assert Gam[1, 1, 0] == pytest.approx(0.5, abs=1e-12)


def test_christoffel_lower_symmetry(pendula_metric):
    Gam = christoffel(pendula_metric, (0.2, -0.2, 0.1))
    assert np.max(np.abs(Gam - Gam.transpose(0, 2, 1))) == 0.0


def test_christoffel_fd_oracle(pendula_metric):
    """Connection from analytic derivatives vs central FD of the
    covariant components."""
    g = pendula_metric
    pt = np.array([0.2, -0.2, 0.1])
    n = 3
    h = 1e-6
    dg = np.empty((n, n, n))
    for k in range(n):
        qp = pt.copy()
        qm = pt.copy()
        qp[k] += h
        qm[k] -= h
        dg[k] = (g.covariant(qp) - g.covariant(qm)) / (2 * h)
    G = g.contravariant(pt)
    A = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    expected = 0.5 * np.einsum("il,ljk->ijk", G, A)
    got = christoffel(g, pt)
    assert np.max(np.abs(got - expected)) <= 1e-6 * max(
        1.0, float(np.max(np.abs(got))))


def test_metric_derivatives_fd_oracle(pendula_metric):
    g = pendula_metric
    pt = np.array([0.15, -0.25, 0.05])
    for k, name in enumerate(g.coords):
        h = 1e-6
        qp = pt.copy()
        qm = pt.copy()
        qp[k] += h
        qm[k] -= h
        fd = (g.contravariant(qp) - g.contravariant(qm)) / (2 * h)
        assert np.max(np.abs(metric_derivative(g, pt, name) - fd)) <= 1e-6
    # second derivatives against FD of the analytic first derivatives
    h = 1e-4
    for k, nk in enumerate(g.coords):
        for nl in g.coords:
            qp = pt.copy()
            qm = pt.copy()
            qp[k] += h
            qm[k] -= h
            fd = (np.array(metric_derivative(g, qp, nl))
                  - np.array(metric_derivative(g, qm, nl))) / (2 * h)
            assert np.max(np.abs(
                metric_second_derivative(g, pt, nk, nl) - fd)) <= 1e-6


def test_riemann_flat_zero():
    g = flat_metric(("x", "y", "z"))
    assert np.max(np.abs(riemann(g, (0.3, 0.4, 0.5)))) == 0.0


def test_riemann_sphere():
    R = riemann(sphere_metric(), (1.1, 0.4))
    assert R[0, 1, 0, 1] == pytest.approx(math.sin(1.1) ** 2, rel=1e-10)
    # the mixed component is curvature-normalized on the unit sphere
    assert R[1, 0, 1, 0] == pytest.approx(1.0, rel=1e-10)


def test_riemann_symmetries(pendula_metric):
    rng = np.random.default_rng(2)
    for g in (sphere_metric(), pendula_metric):
        for _ in range(5):
            if g.n == 2:
                pt = (rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0))
            else:
                pt = tuple(rng.uniform(-0.3, 0.3, 3))
            R = riemann(g, pt)
            assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) <= 1e-9 * max(
                1.0, float(np.max(np.abs(R))))
            bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
            assert np.max(np.abs(bianchi)) <= 1e-9 * max(
                1.0, float(np.max(np.abs(R))))


def test_riemann_fd_oracle():
    """Curvature vs central FD of the connection coefficients."""
    g = sphere_metric()
    pt = np.array([1.1, 0.4])
    n = 2
    h = 1e-5
    Gam = christoffel(g, pt)
    dGam = np.empty((n, n, n, n))
    for m in range(n):
        qp = pt.copy()
        qm = pt.copy()
        qp[m] += h
        qm[m] -= h
        dGam[m] = (christoffel(g, qp) - christoffel(g, qm)) / (2 * h)
    expected = (dGam.transpose(1, 2, 0, 3) - dGam.transpose(1, 2, 3, 0)
                + np.einsum("ikm,mjl->ijkl", Gam, Gam)
                - np.einsum("ilm,mjk->ijkl", Gam, Gam))
    assert np.max(np.abs(riemann(g, pt) - expected)) <= 1e-6


# ---------------------------------------------------------------------------
# Killing residuals

def test_metric_is_killing():
    g = sphere_metric()
    K = TensorField2(("theta", "phi"), [["1", "0"], ["0", "sin(theta)^2"]],
                     "covariant", symmetric=True)
    assert killing_residual(g, K, (1.1, 0.4)) <= 1e-12
    pol = polar_metric()
    Kp = TensorField2(("r", "theta"), [["1", "0"], ["0", "r^2"]],
                      "covariant", symmetric=True)
    assert killing_residual(pol, Kp, (2.0, 0.5)) <= 1e-12


def test_quartet_tensors_are_killing(flat4):
    k1 = TensorField2(X4, quartet_first_tensor(), "covariant",
                      symmetric=True)
    k2 = TensorField2(X4, quartet_second_tensor(), "covariant",
                      symmetric=True)
    rng = np.random.default_rng(9)
    for _ in range(100):
        pt = tuple(rng.uniform(-1.5, 1.5, 4))
        assert killing_residual(flat4, k1, pt) <= 1e-10
        assert killing_residual(flat4, k2, pt) <= 1e-10


def test_non_killing_detected():
    g = flat_metric(("x1", "x2", "x3"))
    K = TensorField2(("x1", "x2", "x3"),
                     [["x1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                     "covariant", symmetric=True)
    assert killing_residual(g, K, (0.5, 0.1, 0.2)) > 0.1


def test_killing_requires_covariant(flat4):
    K = TensorField2(X4, quartet_second_tensor(), "contravariant")
    with pytest.raises(VarianceError):
        killing_residual(flat4, K, (0.1, 0.2, 0.3, 0.4))


# ---------------------------------------------------------------------------
# torsion and Haantjes

def test_torsion_identity_zero():
    T = identity_tensor(Q3)
    assert np.max(np.abs(nijenhuis(T, (0.1, 0.2, 0.3)))) == 0.0


def test_torsion_constant_zero():
    rng = np.random.default_rng(21)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        T = TensorField2(Q3, [[float(A[i, j]) for j in range(3)]
                              for i in range(3)], "mixed")
        result = haantjes(T, (0.4, -0.2, 0.9))
        assert np.max(np.abs(result["tensor"])) == 0.0
        assert result["condition_residual"] <= 1e-10


def test_torsion_antisymmetric():
    T = rotating_frame_tensor()
    N = nijenhuis(T, (0.3, -0.2, 0.7))
    assert np.max(np.abs(N + N.transpose(0, 2, 1))) == 0.0


def test_torsion_fd_oracle():
    T = rotating_frame_tensor()
    pt = np.array([0.3, -0.2, 0.7])
    h = 1e-6
    Tv = T.values(pt)
    dT = []
    for k in range(3):
        qp = pt.copy()
        qm = pt.copy()
        qp[k] += h
        qm[k] -= h
        dT.append((T.values(qp) - T.values(qm)) / (2 * h))
    d = np.array(dT)
    t1 = (np.einsum("il,klj->ijk", Tv, d)
          - np.einsum("il,jlk->ijk", Tv, d))
    t2 = (np.einsum("lj,lik->ijk", Tv, d)
          - np.einsum("lk,lij->ijk", Tv, d))
    expected = 0.5 * (t1 + t2)
    assert np.max(np.abs(nijenhuis(T, pt) - expected)) <= 1e-7


def test_torsion_requires_mixed(flat4):
    K = TensorField2(X4, quartet_second_tensor(), "contravariant")
    with pytest.raises(VarianceError):
        nijenhuis(K, (0.1, 0.2, 0.3, 0.4))


def test_haantjes_identity():
    result = haantjes(identity_tensor(Q3), (0.1, 0.2, 0.3))
    assert np.max(np.abs(result["tensor"])) == 0.0
    assert result["condition_residual"] == 0.0


def test_rotating_frame_fails_integrability():
    result = haantjes(rotating_frame_tensor(), (0.3, -0.2, 0.7))
    assert np.max(np.abs(result["tensor"])) > 1e-3
    assert result["condition_residual"] > 1e-3


def test_quartet_second_passes_integrability(flat4):
    grid = quartet_second_tensor()
    T = TensorField2(X4, grid, "mixed")
    rng = np.random.default_rng(13)
    for _ in range(20):
        pt = tuple(rng.uniform(-1.2, 1.2, 4))
        result = haantjes(T, pt)
        # large raw torsion, vanishing Haantjes condition
        assert result["condition_residual"] <= 1e-8 * max(
            1.0, float(np.max(np.abs(result["tensor"]))) ** 2)
    pt = (0.4, -0.3, 0.8, 1.2)
    result = haantjes(T, pt)
    assert np.max(np.abs(result["tensor"])) > 1.0
    assert result["condition_residual"] <= 1e-8


def test_tsn_identity_zero(flat4):
    T = identity_tensor(X4)
    assert tsn_residuals(T, flat4, (0.1, 0.2, 0.3, 0.4)) == (0.0, 0.0, 0.0)


def test_tsn_quartet_second(flat4):
    T = TensorField2(X4, quartet_second_tensor(), "contravariant")
    rng = np.random.default_rng(17)
    for _ in range(20):
        pt = tuple(rng.uniform(-1.2, 1.2, 4))
        res = tsn_residuals(T, flat4, pt)
        assert max(res) <= 1e-8


def test_tsn_detects_non_normal_frame():
    T = rotating_frame_tensor()
    g = flat_metric(Q3)
    res = tsn_residuals(T, g, (0.3, -0.2, 0.7))
    assert max(res) > 1e-3


def test_tsn_variance_flexibility(flat4):
    """Same tensor supplied as contravariant, covariant and mixed must
    give identical residuals on a flat metric."""
    pt = (0.4, -0.3, 0.8, 1.2)
    grid = quartet_second_tensor()
    rs = [tsn_residuals(TensorField2(X4, grid, var),
                        flat4, pt)
          for var in ("contravariant", "covariant", "mixed")]
    for r in rs[1:]:
        assert np.allclose(r, rs[0], atol=1e-12)


@pytest.mark.parametrize("variance",
                         ["contravariant", "covariant", "mixed"])
def test_tsn_takes_the_metric_once(variance, monkeypatch):
    g = polar_metric()
    T = TensorField2(("r", "theta"), [["r^2", "1"], ["1", "r+theta^2"]],
                     variance)
    calls = []
    inverse, derivatives = geo._inverse, geo.MetricField._derivatives

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(geo, "_inverse", counted("inverse", inverse))
    monkeypatch.setattr(geo.MetricField, "_derivatives",
                        counted("derivatives", derivatives))
    tsn_residuals(T, g, (1.3, 0.4))
    assert sorted(calls) == ["derivatives", "inverse"]


# ---------------------------------------------------------------------------
# block eigenvalues and separability residuals

def test_block_eigenvalues_first_row_is_ones(pendula):
    lam = block_eigenvalues(pendula, 1, (0.2, -0.2, 0.0))
    assert np.max(np.abs(lam - 1.0)) <= 1e-12


def test_block_eigenvalues_dense_oracle(pendula, pendula_metric):
    rng = np.random.default_rng(23)
    for a in (2, 3):
        scalar = first_integral_scalar(pendula, a)
        for _ in range(20):
            pt = tuple(rng.uniform(-0.3, 0.3, 3))
            lam = block_eigenvalues(pendula, a, pt)
            G = pendula_metric.contravariant(pt)
            k = scalar.tensor.values(pt)
            dense = np.linalg.eigvals(np.linalg.inv(G) @ k)
            assert np.max(np.abs(np.sort(dense.real) - np.sort(lam))) <= 1e-8
            assert np.max(np.abs(dense.imag)) <= 1e-10


def test_block_eigenvalues_vanishing_twist():
    st = BlockStructure((1, 1, 1), (("q1",), ("q2",), ("q3",)))
    ident = build_system(
        st, StackelMatrix([["1", "0", "0"], ["0", "1", "0"],
                           ["0", "0", "1"]]),
        [NaturalBlock([["1"]], "0")] * 3)
    with pytest.raises(VanishingTwistError):
        block_eigenvalues(ident, 2, (0.1, 0.2, 0.3))


def test_block_eigenvalue_index_checked(pendula):
    with pytest.raises(model.BlockIndexError):
        block_eigenvalues(pendula, 0, (0.1, 0.2, 0.3))


def test_eisenhart_residual_pendula(pendula):
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(100):
        pt = tuple(rng.uniform(-0.3, 0.3, 3))
        for a in (2, 3):
            worst = max(worst, block_eisenhart_residual(pendula, a, pt))
    assert worst <= 1e-9


def test_eisenhart_residual_single_block():
    one = build_system(
        BlockStructure((1,), (("u",),)), StackelMatrix([["2+u^2"]]),
        [NaturalBlock([["1"]], "0")])
    assert block_eisenhart_residual(one, 1, (0.4,)) <= 1e-15


def test_levi_civita_residual_pendula(pendula):
    rng = np.random.default_rng(31)
    worst_m = 0.0
    worst_v = 0.0
    for _ in range(100):
        pt = tuple(rng.uniform(-0.3, 0.3, 3))
        res = block_levi_civita_residual(pendula, pt)
        worst_m = max(worst_m, res["metric_residual"])
        worst_v = max(worst_v, res["potential_residual"])
    assert worst_m <= 1e-8
    assert worst_v <= 1e-8


def test_levi_civita_residual_single_block():
    one = build_system(
        BlockStructure((1,), (("u",),)), StackelMatrix([["2+u^2"]]),
        [NaturalBlock([["1"]], "0")])
    res = block_levi_civita_residual(one, (0.4,))
    assert res == {"metric_residual": 0.0, "potential_residual": 0.0}


def test_corrupted_system_fails_residuals(pendula):
    bad = corrupted_pendula(pendula)
    pt = (0.3, 0.3, -0.3)
    assert block_eisenhart_residual(bad, 2, pt) > 1e-3
    res = block_levi_civita_residual(bad, pt)
    assert res["metric_residual"] > 1e-3
    assert res["potential_residual"] > 1e-3
    # the healthy system stays clean at the same point
    assert block_eisenhart_residual(pendula, 2, pt) <= 1e-9
    good = block_levi_civita_residual(pendula, pt)
    assert good["metric_residual"] <= 1e-9


# ---------------------------------------------------------------------------
# characteristic condition

def test_characteristic_constant_potential(flat4):
    T = TensorField2(X4, quartet_second_tensor(), "mixed")
    assert characteristic_condition(T, "3.5", flat4,
                                    (0.4, -0.3, 0.8, 1.2)) == 0.0


def test_characteristic_identity_any_potential(flat4):
    V = expr.parse("x1^2*x2 + sin(x3)*x4")
    res = characteristic_condition(identity_tensor(X4), V,
                                   flat4, (0.4, -0.3, 0.8, 1.2))
    assert res <= 1e-12


def test_characteristic_quartet_potential(flat4):
    """Both quadratic-integral tensors preserve closedness for the
    pairwise inverse-square potential away from collisions."""
    V = model._GridJet((pairwise_inverse_square(),), X4, (), 2)  # made once
    T1 = TensorField2(X4, quartet_first_tensor(), "mixed")
    T2 = TensorField2(X4, quartet_second_tensor(), "mixed")

    def separated(pt):
        return all(abs(pt[i] - pt[j]) > 0.05
                   for i in range(4) for j in range(i + 1, 4))

    pts = rejection_sample([(-1.5, 1.5)] * 4, 100, seed=37,
                           predicate=separated)
    for pt in pts:
        assert characteristic_condition(T1, V, flat4, pt) <= 1e-8
        assert characteristic_condition(T2, V, flat4, pt) <= 1e-8


def test_characteristic_detects_mismatch(flat4):
    V = expr.parse("x1^2*x2 + x3*x4^3")
    T = TensorField2(X4, quartet_second_tensor(), "mixed")
    assert characteristic_condition(T, V, flat4,
                                    (0.4, -0.3, 0.8, 1.2)) > 1e-3


# ---------------------------------------------------------------------------
# symbolic inverse rows

def test_symbolic_inverse_row_is_inverse(pendula):
    rng = np.random.default_rng(41)
    rows = [symbolic_inverse_row(pendula.stackel, a) for a in (1, 2, 3)]
    for _ in range(30):
        pt = tuple(rng.uniform(-0.3, 0.3, 3))
        env = dict(zip(("q1", "q2", "q3"), pt))
        S = walker.matrix_values(pendula.stackel.entries, env)
        M = np.array([[walker.evaluate(e, env) for e in row]
                      for row in rows])
        assert np.max(np.abs(M @ S - np.eye(3))) <= 1e-12


def test_symbolic_inverse_single_entry():
    st = StackelMatrix([["2+u^2"]])
    row = symbolic_inverse_row(st, 1)
    assert walker.evaluate(row[0], {"u": 0.4}) == pytest.approx(1 / 2.16)


def test_first_integral_scalar_index_checked(pendula):
    with pytest.raises(model.BlockIndexError):
        first_integral_scalar(pendula, 5)


# ---------------------------------------------------------------------------
# sampling

def test_rejection_sample_deterministic():
    box = [(-1.0, 1.0), (0.0, 2.0)]
    a = rejection_sample(box, 10, seed=7)
    b = rejection_sample(box, 10, seed=7)
    assert a == b
    assert all(-1 <= x <= 1 and 0 <= y <= 2 for x, y in a)


def test_rejection_sample_predicate():
    pts = rejection_sample([(-1.0, 1.0)], 20, seed=3,
                           predicate=lambda p: p[0] > 0)
    assert all(x > 0 for (x,) in pts)


def test_rejection_sample_exhaustion():
    with pytest.raises(GeometryError, match="exhausted"):
        rejection_sample([(0.0, 1.0)], 5, seed=1,
                         predicate=lambda p: False, max_tries=50)
