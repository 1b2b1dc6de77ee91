"""Twisted-system assembly: validation, twist rows, first integrals.

Matrix inverses are cross-checked against a direct 3x3 adjugate oracle,
and inverse derivatives against dual-number derivatives of the entries
combined with the analytic rule d(S^{-1}) = -S^{-1}(dS)S^{-1}.
"""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksep import expr
from blocksep.model import (
    MAX_BLOCKS, BlockIndexError, BlockStructure, DimensionMismatchError,
    ForeignVariableError, ModelError, NaturalBlock, PhasePoint,
    SingularMatrixError, StackelMatrix, TwistedSystem, build_system,
    cond_warning, hamiltonian, inverse_derivative, invert_with_condition,
    separation_constants, twist_rows,
)


from conftest import (
    PENDULA_C, PENDULA_P0, block_energy, block_of, pendula_like,
    phase_point, position_env, reduced_hamiltonian,
)
from walker import matrix_derivative, matrix_values


P0 = PENDULA_P0
C1, C2, C3 = PENDULA_C


def adjugate3(S):
    """Direct cofactor inverse of a 3x3 matrix (independent oracle)."""
    S = np.asarray(S, dtype=float)
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(S, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1]
                                           - minor[0, 1] * minor[1, 0])
    det = S[0, 0] * cof[0, 0] + S[0, 1] * cof[0, 1] + S[0, 2] * cof[0, 2]
    return cof.T / det, det


# ---------------------------------------------------------------------------
# construction and validation

def test_pendula_like_builds():
    sys = pendula_like()
    assert sys.n == 3
    assert sys.dim == 3
    assert len(sys.probes) == 21  # declared point + 20 box samples


def test_foreign_variable_in_stackel_row():
    structure = BlockStructure((1, 1, 1), (("q1",), ("q2",), ("q3",)))
    stackel = StackelMatrix((
        ("2", "1+q1", "2*q1^2+2"),
        ("3", "q1", "q2^3+2"),  # q1 leaks into row 2
        ("4", "q3", "q3^2+1"),
    ))
    blocks = tuple(NaturalBlock((("1",),), "0") for _ in range(3))
    with pytest.raises(ForeignVariableError) as exc:
        build_system(structure, stackel, blocks, None)
    assert "S[2][2]" in str(exc.value)
    assert "q1" in str(exc.value)


def test_foreign_variable_in_potential():
    structure = BlockStructure((1, 1), (("q1",), ("q2",)))
    stackel = StackelMatrix((("1", "0"), ("0", "1")))
    blocks = (NaturalBlock((("1",),), "cos(q2)"),
              NaturalBlock((("1",),), "0"))
    with pytest.raises(ForeignVariableError) as exc:
        build_system(structure, stackel, blocks, None)
    assert "block 1 potential" in str(exc.value)


def test_dimension_mismatches():
    structure = BlockStructure((1, 1), (("q1",), ("q2",)))
    with pytest.raises(DimensionMismatchError):
        build_system(structure, StackelMatrix((("1",),)),
                     (NaturalBlock((("1",),), "0"),) * 2, None)
    with pytest.raises(DimensionMismatchError):
        build_system(structure, StackelMatrix((("1", "0"), ("0", "1"))),
                     (NaturalBlock((("1",),), "0"),), None)
    with pytest.raises(DimensionMismatchError):
        BlockStructure((1, 2), (("q1",), ("q2",)))
    with pytest.raises(DimensionMismatchError):
        BlockStructure((1, 1), (("q1",), ("q1",)))


def test_block_count_is_bounded():
    # the generated S^-1 grows about 2.2 times per block: past
    # MAX_BLOCKS a structure is refused, not inverted another way
    names = tuple((f"q{i}",) for i in range(1, MAX_BLOCKS + 2))
    assert BlockStructure((1,) * MAX_BLOCKS, names[:-1]).n == MAX_BLOCKS
    with pytest.raises(ModelError,
                       match=f"^{MAX_BLOCKS + 1} blocks, more than the "
                             f"{MAX_BLOCKS} supported$"):
        BlockStructure((1,) * (MAX_BLOCKS + 1), names)


def test_metric_symmetry_enforced():
    with pytest.raises(DimensionMismatchError):
        NaturalBlock((("1", "q1"), ("0", "1")), "0")


def test_singular_probe_rejected():
    structure = BlockStructure((1, 1), (("q1",), ("q2",)))
    stackel = StackelMatrix((("1", "1"), ("1", "1")))  # identically singular
    blocks = (NaturalBlock((("1",),), "0"), NaturalBlock((("1",),), "0"))
    with pytest.raises(SingularMatrixError, match=r"at q=\(0\.0, 0\.0\)"):
        build_system(structure, stackel, blocks, [(0.0, 0.0)])


def test_probe_of_the_wrong_width_rejected():
    structure = BlockStructure((1, 1), (("q1",), ("q2",)))
    stackel = StackelMatrix((("1", "0"), ("0", "1")))
    blocks = (NaturalBlock((("1",),), "0"), NaturalBlock((("1",),), "0"))
    with pytest.raises(DimensionMismatchError,
                       match="^3 coordinates for 2 names$"):
        build_system(structure, stackel, blocks, [(0.0, 0.0), (0, 0, 0)])


def _two_blocks(s22, g1, g2):
    # S = diag(1, s22) and 1-by-1 block metrics g1, g2, probed at one point
    return build_system(BlockStructure((1, 1), (("q1",), ("q2",))),
                        StackelMatrix((("1", "0"), ("0", s22))),
                        (NaturalBlock(((g1,),), "0"),
                         NaturalBlock(((g2,),), "0")),
                        [(-1.0, -2.0)])


@pytest.mark.parametrize("s22, g1, g2, error, message", [
    ("1", "1", "ln(q2)", ModelError,
     "block 2 metric entry g[1][1] fails at q=(-1.0, -2.0): ln of a "
     "non-positive value (sub-expression at offset 0)"),
    # S's entries come first, then S's gate, then block by block the
    # metric's entries and its determinant
    ("sqrt(q2)", "ln(q1)", "1", ModelError,
     "separation matrix entry S[2][2] fails at q=(-1.0, -2.0): sqrt of a "
     "negative value (sub-expression at offset 0)"),
    ("0", "ln(q1)", "1", SingularMatrixError,
     "matrix is singular at q=(-1.0, -2.0)"),
    ("1", "0", "ln(q2)", SingularMatrixError,
     "block 1 metric degenerate at probe point at q=(-1.0, -2.0)"),
], ids=["metric-entry", "entry-before-metric", "gate-before-metric",
        "determinant-before-next-block"])
def test_probe_failure_names_the_first_check_that_fails(s22, g1, g2, error,
                                                        message):
    with pytest.raises(error) as got:
        _two_blocks(s22, g1, g2)
    assert type(got.value) is error
    assert str(got.value) == message


def _probed(g1, probes):
    # S = diag(1, q2) and block metrics g1 and 1, at several probes
    return build_system(BlockStructure((1, 1), (("q1",), ("q2",))),
                        StackelMatrix((("1", "0"), ("0", "q2"))),
                        (NaturalBlock(((g1,),), "0"),
                         NaturalBlock((("1",),), "0")),
                        probes)


@pytest.mark.parametrize("g1, probes, error, message", [
    # probe 3 fails its block metric, probe 5 S's gate
    ("q1", [(1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (1.0, 2.0), (1.0, 0.0)],
     SingularMatrixError,
     "block 1 metric degenerate at probe point at q=(0.0, 1.0)"),
    # probe 3 fails S's gate, probe 5 its block metric
    ("q1", [(1.0, 1.0), (2.0, 1.0), (1.0, 0.0), (1.0, 2.0), (0.0, 1.0)],
     SingularMatrixError, "matrix is singular at q=(1.0, 0.0)"),
    # probe 3 fails a metric entry, probe 5 S's gate
    ("sqrt(q1)", [(1.0, 1.0), (2.0, 1.0), (-1.0, 1.0), (1.0, 2.0),
                  (1.0, 0.0)], ModelError,
     "block 1 metric entry g[1][1] fails at q=(-1.0, 1.0): sqrt of a "
     "negative value (sub-expression at offset 0)"),
], ids=["metric-before-gate", "gate-before-metric", "entry-before-gate"])
def test_probe_stack_raises_the_first_failing_probes_error(g1, probes, error,
                                                           message):
    # the probes are checked in one stack, and where it fails probe by
    # probe: the error is the first failing probe's, as if alone
    with pytest.raises(error) as got:
        _probed(g1, probes)
    assert type(got.value) is error
    assert str(got.value) == message
    with pytest.raises(error) as alone:
        _probed(g1, probes[2:3])
    assert str(alone.value) == message
    assert _probed(g1, probes[:2] + probes[3:4]).probes == tuple(
        probes[:2] + probes[3:4])


def _one_block(metric):
    return build_system(BlockStructure((3,), (("a", "b", "c"),)),
                        StackelMatrix((("1",),)),
                        (NaturalBlock(metric, "0"),),
                        [(0.0, 0.0, 0.0)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_metric_of_huge_entries_is_not_degenerate():
    # det g = 1e360 overflows a float; its log from the LU factors does not
    big = (("1e120", "0", "0"), ("0", "1e120", "0"), ("0", "0", "1e120"))
    assert _one_block(big).n == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_singular_metric_names_its_probe():
    singular = (("1", "a", "0"), ("a", "a^2", "0"), ("0", "0", "1"))
    with pytest.raises(SingularMatrixError,
                       match=r"^block 1 metric degenerate at probe point "
                             r"at q=\(0\.0, 0\.0, 0\.0\)$"):
        _one_block(singular)


def test_identity_stackel():
    structure = BlockStructure((1, 1, 1), (("q1",), ("q2",), ("q3",)))
    stackel = StackelMatrix((("1", "0", "0"), ("0", "1", "0"),
                             ("0", "0", "1")))
    blocks = (NaturalBlock((("1",),), "-cos(q1)/2"),
              NaturalBlock((("1",),), "q2^2"),
              NaturalBlock((("1",),), "0"))
    sys = build_system(structure, stackel, blocks, [(0, 0, 0)])
    pt = PhasePoint((0.3, 0.5, -0.2), (1.0, 2.0, 3.0))
    tw = twist_rows(sys, pt)
    assert np.allclose(tw.matrix, np.eye(3))
    assert np.allclose(tw.matrix[0], [1.0, 0.0, 0.0])
    # with S = I the combinations collapse to the block energies
    for a in (1, 2, 3):
        assert separation_constants(sys, pt)[a - 1] == pytest.approx(
            block_energy(sys, a, pt), rel=1e-14)
    c = separation_constants(sys, pt)
    for r in (1, 2, 3):
        assert c[r - 1] == pytest.approx(block_energy(sys, r, pt), rel=1e-14)
    assert hamiltonian(sys, pt) == pytest.approx(block_energy(sys, 1, pt))


# ---------------------------------------------------------------------------
# twist rows

def test_twist_rows_at_origin_vs_adjugate():
    sys = pendula_like()
    pt = PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    tw = twist_rows(sys, pt)
    S = np.array([[2, 1, 2], [3, 0, 2], [4, 0, 1]], dtype=float)
    Minv, det = adjugate3(S)
    assert det == pytest.approx(5.0)
    assert np.allclose(tw.matrix, Minv, atol=1e-14)
    assert np.allclose(tw.matrix[0], [0.0, -0.2, 0.4], atol=1e-14)
    assert cond_warning(tw.cond) is None


def test_twist_rows_product_identity_at_probes():
    sys = pendula_like()
    for q in sys.probes:
        tw = twist_rows(sys, q)
        S = matrix_values(sys.stackel.entries,
                          position_env(sys, q))
        assert np.max(np.abs(S @ tw.matrix - np.eye(3))) <= 1e-12


def test_determinant_against_cofactor_oracle():
    # the determinant's value 5 and gradient (5, -6, 2) at the origin
    # pin the matrix data; nearby, compare against cofactor expansion
    sys = pendula_like()
    env0 = position_env(sys, [0.0, 0.0, 0.0])
    S0 = matrix_values(sys.stackel.entries, env0)
    assert np.linalg.det(S0) == pytest.approx(5.0, rel=1e-14)
    h = 1e-7
    grad = []
    for k in range(3):
        qp = [0.0] * 3
        qm = [0.0] * 3
        qp[k] = h
        qm[k] = -h
        dp = np.linalg.det(matrix_values(sys.stackel.entries,
                                         position_env(sys, qp)))
        dm = np.linalg.det(matrix_values(sys.stackel.entries,
                                         position_env(sys, qm)))
        grad.append((dp - dm) / (2 * h))
    assert np.allclose(grad, [5.0, -6.0, 2.0], atol=1e-6)
    rng = random.Random(5)
    for _ in range(20):
        q = [rng.uniform(-0.3, 0.3) for _ in range(3)]
        S = matrix_values(sys.stackel.entries,
                          position_env(sys, q))
        _, det_oracle = adjugate3(S)
        assert np.linalg.det(S) == pytest.approx(det_oracle, rel=1e-12)


def test_ill_conditioned_warning_and_error():
    structure = BlockStructure((1, 1), (("q1",), ("q2",)))
    blocks = (NaturalBlock((("1",),), "0"), NaturalBlock((("1",),), "0"))
    # condition ~ 4/eps: eps = 1e-10 warns, eps = 1e-13 errors
    warn_sys = build_system(
        structure, StackelMatrix((("1", "1"), ("1", "1.0000000001"))),
        blocks, [(0, 0)])
    tw = twist_rows(warn_sys, PhasePoint((0, 0), (0, 0)))
    assert cond_warning(tw.cond) is not None
    assert tw.cond > 1e8
    bad = build_system(
        structure, StackelMatrix((("1", "1"), ("1", "1.0000000000001"))),
        blocks)
    with pytest.raises(SingularMatrixError):
        twist_rows(bad, PhasePoint((0, 0), (0, 0)))


# ---------------------------------------------------------------------------
# energies and first integrals

def test_block_energy_examples():
    sys = pendula_like()
    rest = PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert block_energy(sys, 1, rest) == -0.5
    moving = PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, 2.0))
    assert block_energy(sys, 3, moving) == 2.0
    assert block_energy(sys, 3, rest) == 0.0


def test_block_energy_index_range():
    sys = pendula_like()
    with pytest.raises(BlockIndexError):
        block_energy(sys, 0, P0)
    with pytest.raises(BlockIndexError):
        block_energy(sys, 4, P0)
    with pytest.raises(IndexError):
        separation_constants(sys, P0)[3]


def test_reference_separation_constants():
    sys = pendula_like()
    assert hamiltonian(sys, P0) == pytest.approx(C1, abs=1e-8)
    assert separation_constants(sys, P0)[1] == pytest.approx(C2, abs=1e-8)
    assert separation_constants(sys, P0)[2] == pytest.approx(C3, abs=1e-8)
    c = separation_constants(sys, P0)
    assert np.allclose(c, [C1, C2, C3], atol=1e-8)
    assert separation_constants(sys, P0)[0] == pytest.approx(
        hamiltonian(sys, P0))


def test_reconstruction_identity():
    # H_r = S[r][a] c_a at any phase point, by construction of c
    sys = pendula_like()
    rng = random.Random(11)
    for _ in range(100):
        q = [rng.uniform(-0.3, 0.3) for _ in range(3)]
        p = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        pt = PhasePoint(q, p)
        c = separation_constants(sys, pt)
        env = position_env(sys, q)
        S = matrix_values(sys.stackel.entries, env)
        for r in range(1, 4):
            h_r = block_energy(sys, r, pt)
            assert abs(h_r - float(S[r - 1] @ c)) <= 1e-10


def test_reduced_hamiltonian_vanishes_at_defining_point():
    sys = pendula_like()
    c = separation_constants(sys, P0)
    for r in (1, 2, 3):
        assert abs(reduced_hamiltonian(sys, r, c, P0)) <= 1e-13


def test_reduced_hamiltonian_c3_coefficient():
    # partial of the reduced block-1 energy with respect to c3 is
    # -(2 q1^2 + 2), read off by differencing in c3
    sys = pendula_like()
    rng = random.Random(3)
    for _ in range(10):
        q1 = rng.uniform(-1, 1)
        pt = PhasePoint((q1, 0.1, -0.2), (0.3, 0.0, 0.0))
        base = reduced_hamiltonian(sys, 1, (0.0, 0.0, 0.0), pt)
        bumped = reduced_hamiltonian(sys, 1, (0.0, 0.0, 1.0), pt)
        assert bumped - base == pytest.approx(-(2 * q1 ** 2 + 2), rel=1e-12)


def test_reduced_hamiltonian_validates_c_length():
    sys = pendula_like()
    with pytest.raises(DimensionMismatchError):
        reduced_hamiltonian(sys, 1, (0.0, 0.0), P0)


# ---------------------------------------------------------------------------
# derivative identity for the twist rows

def test_inverse_derivative_identity():
    # sum_s d(alpha^s) S[s][j] = -alpha^r dS[r][j] for coordinates in
    # block r: the twist-row derivative collapses onto its own block.
    sys = pendula_like()
    rng = random.Random(17)
    names = sys.structure.names
    worst = 0.0
    for _ in range(30):
        q = [rng.uniform(-0.3, 0.3) for _ in range(3)]
        env = position_env(sys, q)
        S = matrix_values(sys.stackel.entries, env)
        M = np.linalg.inv(S)
        for k, name in enumerate(names):
            r = block_of(sys.structure, k)
            dS = matrix_derivative(sys.stackel.entries, env, name)
            dM = inverse_derivative(M, dS)
            for j in range(3):
                lhs = float(dM[0] @ S[:, j])
                rhs = -M[0, r - 1] * dS[r - 1, j]
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


def test_inverse_derivative_vs_finite_difference():
    sys = pendula_like()
    q = [0.11, -0.07, 0.23]
    h = 1e-6
    for k, name in enumerate(sys.structure.names):
        env = position_env(sys, q)
        S = matrix_values(sys.stackel.entries, env)
        M = np.linalg.inv(S)
        dS = matrix_derivative(sys.stackel.entries, env, name)
        dM = inverse_derivative(M, dS)
        qp = list(q)
        qm = list(q)
        qp[k] += h
        qm[k] -= h
        Mp = np.linalg.inv(matrix_values(sys.stackel.entries,
                                         position_env(sys, qp)))
        Mm = np.linalg.inv(matrix_values(sys.stackel.entries,
                                         position_env(sys, qm)))
        fd = (Mp - Mm) / (2 * h)
        assert np.max(np.abs(dM - fd)) <= 1e-7


# ---------------------------------------------------------------------------
# degenerate single-block case

def test_single_block_system():
    structure = BlockStructure((2,), (("u", "v"),))
    stackel = StackelMatrix((("2+u^2",),))
    blocks = (NaturalBlock((("1", "0"), ("0", "1")), "u*v"),)
    sys = build_system(structure, stackel, blocks, [(0.0, 0.0)])
    pt = PhasePoint((0.5, -0.5), (1.0, 2.0))
    h1 = block_energy(sys, 1, pt)
    assert hamiltonian(sys, pt) == pytest.approx(h1 / (2 + 0.25), rel=1e-14)
    with pytest.raises(IndexError):
        separation_constants(sys, pt)[1]


def test_phase_point_roundtrip():
    pt = PhasePoint((1.0, 2.0), (3.0, 4.0))
    arr = pt.as_array()
    assert np.allclose(arr, [1, 2, 3, 4])
    assert phase_point(arr) == pt
    with pytest.raises(DimensionMismatchError):
        PhasePoint((1.0,), (1.0, 2.0))


_entries = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                     st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300]))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_float_condition_is_the_numpy_formula(rows):
    # the gate's cond must be the NumPy formula on its own S^-1, bit for
    # bit: each column summed down the rows in order
    S = np.array(rows)
    try:
        M, cond = invert_with_condition(S)
    except SingularMatrixError:
        return
    assert cond == (float(np.abs(S).sum(axis=0).max())
                    * float(np.abs(M).sum(axis=0).max()))


# ---------------------------------------------------------------------------
# the one gated S^-1, on floats and over stacks

def _stack_points(m):
    return [(0.001 * k, -1.0) for k in range(m)]


@pytest.mark.parametrize("n", range(1, 7))
def test_generated_inverse_agrees_with_the_gate(n):
    # a cofactor inverse and an LU inverse each err by about cond*eps:
    # both forms of the gate agree with np.linalg.inv, and their cond
    # with the 1-norm formula on it, within 2 n cond eps
    eps = np.finfo(float).eps
    rng = np.random.default_rng(n)
    S = rng.standard_normal((50, n, n))
    stack, stack_cond = invert_with_condition(S, _stack_points(50))
    for k, s in enumerate(S):
        want = np.linalg.inv(s)
        want_cond = float(np.abs(s).sum(axis=0).max()
                          * np.abs(want).sum(axis=0).max())
        bound = 2 * n * want_cond * eps
        for got, got_cond in (invert_with_condition(s),
                              (stack[k], stack_cond[k])):
            assert np.abs(got - want).max() <= bound * np.abs(want).max()
            assert abs(got_cond - want_cond) <= bound * want_cond


@pytest.mark.parametrize("S, message", [
    ([[1.0, 2.0], [2.0, 4.0]], "matrix is singular at q={q}"),
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
     "matrix is singular at q={q}"),
    ([[1e-310, 1.0], [0.0, 1.0]], "matrix inverse overflowed at q={q}"),
    ([[1.0, 0.0, 0.0], [0.0, 1e-310, 0.0], [0.0, 0.0, 1.0]],
     "matrix inverse overflowed at q={q}"),
    ([[1.0, 1.0], [1.0, 1.0 + 1e-13]],           # cond > 1e12
     "matrix numerically singular at q={q} "
     "(1-norm condition estimate 4.003e+13)"),
    ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0 + 1e-12], [0.0, 1.0, 1.0]],
     "matrix numerically singular at q={q} "
     "(1-norm condition estimate 5.999e+13)"),
], ids=[f"S{i}" for i in range(6)])
def test_generated_inverse_fails_as_the_gate(S, message):
    # the same error alone and in a stack of 200, with the failing
    # matrix first, at row 130 and last among healthy ones
    S = np.array(S)
    n = len(S)
    cases = [(S, (0.5, -1.0))]
    rng = np.random.default_rng(n)
    for row in (0, 130, 199):
        stack = rng.uniform(-1.0, 1.0, (200, n, n)) + 3.0 * np.eye(n)
        stack[row] = S
        cases.append((stack, _stack_points(200)))
    for (matrices, point), row in zip(cases, (None, 0, 130, 199)):
        want = point if row is None else point[row]
        with pytest.raises(SingularMatrixError) as err:
            invert_with_condition(matrices, point)
        assert str(err.value) == message.format(q=want)
        assert err.value.point == want
        assert (err.value.cond is None) == ("condition" not in message)


@pytest.mark.parametrize("n", range(1, 9))
def test_stack_inverse_is_the_float_inverse_bit_for_bit(n):
    # floats and arrays run the same IEEE operations, so a stack's S^-1
    # and cond equal those of its matrices one at a time in every bit,
    # the sign of a zero included
    rng = np.random.default_rng(20 + n)
    S = rng.standard_normal((40, n, n)) + n * np.eye(n)
    S[7] = np.diag(rng.uniform(1.0, 2.0, n))
    if n > 1:
        S[7, -1, 0] = -0.0
    M, cond = invert_with_condition(S, _stack_points(40))
    rows = [invert_with_condition(s) for s in S]
    for got, want in ((M, [m for m, _ in rows]), (cond, [c for _, c in rows])):
        assert np.array_equal(got.view(np.uint64),
                              np.array(want).view(np.uint64))
    if n > 1:
        assert (np.signbit(M[7]) & (M[7] == 0.0)).any()


def test_a_failing_stack_warns_of_nothing():
    # the arrays form divides by a zero determinant and meets nan and
    # inf; the gate raises its error and NumPy warns of nothing
    S = np.tile(np.eye(3), (6, 1, 1))
    S[2] = 0.0
    S[3, 1, 1] = math.nan
    S[4, 0, 0] = math.inf
    S[5, 2, 2] = 1e-310
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError) as err:
            invert_with_condition(S, _stack_points(6))
    assert str(err.value) == "matrix is singular at q=(0.002, -1.0)"


@pytest.mark.parametrize("S", [
    [[math.inf, 0.0], [0.0, 1.0]],
    [[1.0, 2.0, 3.0], [0.0, math.nan, 1.0], [0.0, 1.0, 1.0]],
    (1e200 * np.eye(3)).tolist(),                  # det overflows
])
def test_generated_inverse_overflows_on_a_non_finite_step(S):
    # an entry or a determinant past the float range gives nan or a
    # zero S^-1 in a cofactor inverse: it fails as an overflow, alone
    # and in a stack
    S = np.array(S)
    for matrices, point in ((S, (1.0,)), (S[None], [(1.0,)])):
        with pytest.raises(SingularMatrixError,
                           match=r"matrix inverse overflowed at q=\(1\.0,\)"):
            invert_with_condition(matrices, point)
