"""The point-stacked geometry chain.

A stack of points runs the same chain as one point, so every stacked
result must equal, bit for bit, the results of the points taken one at
a time, on the e3 families (1,000 points), on calogero4's Cartesian
reference (100 points) and, for the brackets and the system residuals,
at the 100 verify probes of each dynamical system and of a corrupted
one.  One point keeps its own shape.  A stack that
fails at one point raises that point's error, and the CLI names that
point.  Sampling draws its candidates in blocks and must accept the
same points as drawing one candidate at a time.
"""

import math
import warnings

import numpy as np
import pytest

from blocksep import catalog, cli, expr, model
from blocksep import geometry as geo

FAMILIES = ("e3-case-i", "e3-case-ii")


def each(fn, points):
    return np.array([fn(q) for q in points])


def same(stacked, one_by_one):
    stacked = np.asarray(stacked)
    assert stacked.shape == one_by_one.shape
    assert np.array_equal(stacked, one_by_one)


@pytest.fixture(scope="module")
def cartesian():
    """calogero4's Cartesian reference: the flat metric, its 100 probe
    points at seed 1236, the potential and the tensors of K_2 and K_3
    in all three variances."""
    ref = catalog.load("calogero4").cartesian
    n = len(ref.coords)
    flat = geo.MetricField(
        ref.coords, [[1.0 if i == j else 0.0 for j in range(n)]
                     for i in range(n)])
    pts = geo.rejection_sample(ref.sample_box, 100, 1236,
                               predicate=ref.regular)
    tensors = [{v: geo.TensorField2(ref.coords, s.tensor.grid, v)
                for v in ("covariant", "mixed", "contravariant")}
               for s in ref.integrals]
    return flat, pts, ref.hamiltonian.scalar, tensors


@pytest.mark.parametrize("name", FAMILIES)
def test_riemann_stack_equals_points(name):
    fam = catalog.load(name)
    pts = fam.sample(1000, 1234)
    same(geo.riemann(fam.metric, pts),
         each(lambda q: geo.riemann(fam.metric, q), pts))


def test_leaf_scalar_stack_with_a_u_per_point_equals_points():
    fam = catalog.load("e3-case-ii")
    pts = np.array(fam.sample(1000, 1234))
    stacked = geo.ricci_scalar(fam.leaf_metric(pts[:, 0]), pts[:, 1:])
    same(stacked, each(lambda q: geo.ricci_scalar(fam.leaf_metric(q[0]),
                                                  (q[1], q[2])), pts))


def test_flat_battery_stacks_equal_points(cartesian):
    flat, pts, V, tensors = cartesian
    for K in tensors:
        same(geo.killing_residual(flat, K["covariant"], pts),
             each(lambda x: geo.killing_residual(flat, K["covariant"], x),
                  pts))
        same(geo.haantjes(K["mixed"], pts)["condition_residual"],
             each(lambda x: geo.haantjes(K["mixed"], x)
                  ["condition_residual"], pts))
        same(geo.haantjes(K["mixed"], pts)["tensor"],
             each(lambda x: geo.haantjes(K["mixed"], x)["tensor"], pts))
        # every variance, so that each conversion runs on a stack
        for T in K.values():
            same(geo.tsn_residuals(T, flat, pts),
                 each(lambda x: geo.tsn_residuals(T, flat, x), pts))
            same(geo.characteristic_condition(T, V, flat, pts),
                 each(lambda x: geo.characteristic_condition(T, V, flat, x),
                      pts))


SYSTEMS = ("pendula", "oscillators", "calogero4", "corrupted pendula")


def verify_probes(name):
    """A system and the positions and phase points of its default verify
    probes (seed 1234, 100 points); "corrupted pendula" has S[1][1]
    overwritten with a foreign coordinate, as ``corrupt`` does."""
    entry = catalog.load(name.split()[-1])
    sys_ = entry.system
    if name.startswith("corrupted"):
        sys_ = cli._corrupted(sys_, (1, 1, "2+0.1*q2"))
    qs = entry.sample(100, 1234)
    ps = np.random.default_rng(1235).uniform(-1.0, 1.0, (100, sys_.dim))
    return sys_, qs, [model.PhasePoint(q, tuple(p)) for q, p in zip(qs, ps)]


@pytest.mark.parametrize("name", SYSTEMS)
def test_system_residual_stacks_equal_points(name):
    sys_, qs, probes = verify_probes(name)
    n = sys_.n
    scalars = [geo.first_integral_scalar(sys_, a) for a in range(1, n + 1)]
    for F in scalars:
        for G in scalars:
            same(geo.poisson_bracket(F, G, probes),
                 each(lambda P: geo.poisson_bracket(F, G, P), probes))
    for a in range(1, n + 1):
        same(geo.block_eisenhart_residual(sys_, a, qs),
             each(lambda q: geo.block_eisenhart_residual(sys_, a, q), qs))
        same(geo.block_eigenvalues(sys_, a, qs),
             each(lambda q: geo.block_eigenvalues(sys_, a, q), qs))
    stacked = geo.block_levi_civita_residual(sys_, qs)
    for key, values in stacked.items():
        same(values, each(lambda q: geo.block_levi_civita_residual(sys_, q)
                          [key], qs))
    # one point keeps its own shape
    assert type(geo.poisson_bracket(scalars[0], scalars[-1], probes[0])) \
        is float
    assert type(geo.block_eisenhart_residual(sys_, n, qs[0])) is float
    assert geo.block_eigenvalues(sys_, n, qs[0]).shape == (n,)
    assert all(type(v) is float
               for v in geo.block_levi_civita_residual(sys_, qs[0]).values())


def test_one_point_keeps_its_shape(cartesian):
    flat, pts, V, tensors = cartesian
    K = tensors[0]
    x = pts[0]
    fam = catalog.load("e3-case-ii")
    q = fam.sample(1, 1234)[0]
    assert geo.riemann(fam.metric, q).shape == (3, 3, 3, 3)
    assert type(geo.ricci_scalar(fam.leaf_metric(q[0]), q[1:])) is float
    assert type(geo.killing_residual(flat, K["covariant"], x)) is float
    tsn = geo.tsn_residuals(K["mixed"], flat, x)
    assert type(tsn) is tuple and len(tsn) == 3
    assert all(type(v) is float for v in tsn)
    result = geo.haantjes(K["mixed"], x)
    assert result["tensor"].shape == (4, 4, 4)
    assert type(result["condition_residual"]) is float
    assert type(geo.characteristic_condition(K["mixed"], V, flat, x)) \
        is float
    # a stack of one point keeps its point axis
    assert geo.riemann(fam.metric, [q]).shape == (1, 3, 3, 3, 3)
    assert geo.tsn_residuals(K["mixed"], flat, [x]).shape == (1, 3)


def test_stack_of_the_wrong_width_is_refused():
    fam = catalog.load("e3-case-i")
    with pytest.raises(geo.GeometryError, match=r"\(points, 3\)"):
        geo.riemann(fam.metric, [(0.1, 0.2), (0.3, 0.4)])


LN_METRIC = [["1+ln(x)", "0"], ["0", "1"]]  # a domain error where x <= 0
DEGENERATE = [["x", "0"], ["0", "1"]]       # singular where x = 0


def riemann_of(grid):
    g = geo.MetricField(("x", "y"), grid)
    return lambda qs: geo.riemann(g, qs)


def eisenhart_of(row):
    """The eigenvalue gradient of K_2 for two one-coordinate blocks, x
    and y, whose separation matrix has the given first row."""
    sys_ = model.build_system(
        model.BlockStructure((1, 1), (("x",), ("y",))),
        model.StackelMatrix([row, ["0", "1"]]),
        [model.NaturalBlock([["1"]], "0")] * 2)
    return lambda qs: geo.block_eisenhart_residual(sys_, 2, qs)


@pytest.mark.parametrize("check, fn, error, message", [
    ("riemann max-norm", riemann_of(LN_METRIC), expr.DomainError, "ln"),
    ("riemann max-norm", riemann_of(DEGENERATE), geo.DegenerateMetricError,
     "metric degenerate"),
    # S = [[x, 1], [0, 1]] is singular where x = 0
    ("eigenvalue-gradient K_2", eisenhart_of(["x", "1"]),
     model.SingularMatrixError, "matrix is singular"),
], ids=["domain-error", "degenerate", "singular-twist"])
def test_failing_third_point_is_named(check, fn, error, message):
    pts = [(0.5, 0.1), (0.7, -0.2), (0.0, 0.3), (-0.4, 0.0), (0.6, 0.6)]
    with pytest.raises(error, match=message) as alone:
        fn(pts[2])
    # the stack raises the third point's error, type and message
    with pytest.raises(error) as stacked:
        fn(pts)
    assert str(stacked.value) == str(alone.value)
    # and the check names the third point
    with pytest.raises(cli.ProbeError) as named:
        cli._blocked(check, pts, fn)
    assert named.value.point == pts[2]
    assert type(named.value.error) is error
    assert str(named.value) == (f"{alone.value} (in check {check} "
                                f"at q={pts[2]})")


def test_invertible_metric_of_huge_or_tiny_det_is_not_degenerate():
    # exp(200*v) makes det G overflow at v = 0.9555 and underflow to 0
    # at v = -0.9937, though G is diagonal with nonzero entries
    fam = catalog.load("e3-case-ii", f="exp(200*v)")
    pts = fam.sample(10, 1234)
    high = max(pts, key=lambda q: q[1])
    low = min(pts, key=lambda q: q[1])
    assert high[1] > 0.95 and low[1] < -0.99
    with np.errstate(over="ignore", under="ignore"):
        dets = [np.linalg.det(fam.metric.contravariant(q))
                for q in (high, low)]
    assert math.isinf(dets[0]) and dets[1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (high, low):
            fam.metric.covariant(q)
            assert np.all(np.isfinite(geo.riemann(fam.metric, q)))


def per_point_sample(box, count, seed, predicate=None):
    """One candidate per draw, the sampler's reference."""
    rng = np.random.default_rng(seed)
    los = np.array([lo for lo, _ in box])
    his = np.array([hi for _, hi in box])
    out = []
    while len(out) < count:
        pt = tuple(rng.uniform(los, his))
        if predicate is None or predicate(pt):
            out.append(pt)
    return out


@pytest.mark.parametrize("seed", range(1234, 1242))
def test_block_draws_accept_the_per_point_sequence(seed):
    fam = catalog.load("e3-case-ii")
    assert geo.rejection_sample(fam.sample_box, 1000, seed) == \
        per_point_sample(fam.sample_box, 1000, seed)
    ref = catalog.load("calogero4").cartesian
    assert geo.rejection_sample(ref.sample_box, 200, seed,
                                predicate=ref.regular) == \
        per_point_sample(ref.sample_box, 200, seed, predicate=ref.regular)


def test_exhaustion_counts_candidates():
    box = ((0.0, 1.0), (0.0, 1.0))
    calls = []

    def rare(pt):
        calls.append(pt)
        return len(calls) % 7 == 0  # every seventh candidate

    with pytest.raises(geo.GeometryError) as err:
        geo.rejection_sample(box, 10, 0, predicate=rare, max_tries=40)
    assert len(calls) == 40
    assert str(err.value) == ("rejection sampling exhausted 40 tries with "
                              "only 5 of 10 points accepted")


def test_an_empty_stack_gives_empty_results():
    fam = catalog.load("e3-case-i")
    none = np.empty((0, 3))
    assert geo.riemann(fam.metric, none).shape == (0, 3, 3, 3, 3)
    assert geo.ricci_scalar(fam.metric, none).shape == (0,)
    sys_ = catalog.load("pendula").system
    N, n = sys_.dim, sys_.n
    none = np.empty((0, N))
    at = sys_.jet.positions(none)
    shapes = {"S": (n, n), "dS": (N, n, n), "d2S": (N, N, n, n),
              "V": (n,), "dV": (N, n), "d2V": (N, N, n)}
    for name, shape in shapes.items():
        assert getattr(at, name).shape == (0, *shape), name
    assert geo.block_eisenhart_residual(sys_, 1, none).shape == (0,)


# ---------------------------------------------------------------------------
# the E3 equations and the expected leaf curvature on one stack

def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# the presets and a member of each family whose equations do not vanish
CASE_I = [catalog.e3_case_i_family(),
          catalog.e3_case_i_family(f="2*exp(-v)*cos(w)+0.01*v^2")]
CASE_II = [catalog.e3_case_ii_family(),
           catalog.e3_case_ii_family(f="(1.01+v^2+w^2)/2")]


def case_i_rows(fam, points):
    """The seven case i equations at each point, one float jet call and
    Python arithmetic per point."""
    c0, c1, c2, c3 = (value for _, value in fam.parameters)
    jet = expr.compile([fam.scale, fam.profile], ("v", "w"), ("v", "w"),
                       order=2)
    rows = []
    for _, v, w in points:
        (l, _, lv, fv, lw, fw,
         lvv, fvv, _, fvw, lww, fww) = jet(v, w)
        rows.append((l * (lvv + lww) - lv * lv - lw * lw,
                     l * fvv - lv * fv + lw * fw,
                     l * fww + lv * fv - lw * fw,
                     l * fvw - lv * fw - lw * fv,
                     fvv + (c1 - c0 * v) * fv - (c3 + c0 * w) * fw,
                     fww - (c1 - c0 * v) * fv + (c3 + c0 * w) * fw,
                     fvw + (c3 + c0 * w) * fv + (c1 - c0 * v) * fw))
    return np.array(rows)


def case_ii_rows(fam, points):
    """The case ii axis ODE and profile equation at each point."""
    c1, _ = (value for _, value in fam.parameters)
    axis = expr.compile([fam.scale], ("u",), ("u",), order=2)
    profile = expr.compile([fam.profile], ("v", "w"), ("v", "w"), order=2)
    rows = []
    for u, v, w in points:
        l, lu, luu = axis(u)
        f, fv, fw, fvv, _, fww = profile(v, w)
        rows.append((luu * l - 2 * lu * lu,
                     f * (fvv + fww) - fv * fv - fw * fw - c1 * c1))
    return np.array(rows)


@pytest.mark.parametrize("fam", CASE_I, ids=["preset", "nonzero"])
def test_case_i_equations_equal_a_loop_over_points(fam):
    pts = fam.sample(1000, 1234)
    rows = case_i_rows(fam, pts)
    if fam is CASE_I[1]:
        assert np.max(np.abs(rows)) > 1e-3
    report = fam.residuals(pts)
    assert list(report) == ["leaf_flatness", "mixed_vv", "mixed_ww",
                            "mixed_vw", "reduced_vv", "reduced_ww",
                            "reduced_vw"]
    assert (bits(list(report.values()))
            == bits(np.max(np.abs(rows), axis=0))).all()
    # each row on its own: a stack of one point gives that point's row
    for q, row in zip(pts[::50], rows[::50]):
        one = list(fam.residuals([q]).values())
        assert (bits(one) == bits(np.abs(row))).all()


@pytest.mark.parametrize("fam", CASE_II, ids=["preset", "nonzero"])
def test_case_ii_equations_equal_a_loop_over_points(fam):
    pts = fam.sample(1000, 1234)
    rows = case_ii_rows(fam, pts)
    c1, c2 = (value for _, value in fam.parameters)
    report = catalog.case_ii_residuals(c1, c2, fam.profile,
                                       [q[1:] for q in pts],
                                       u_values=[q[0] for q in pts])
    assert (bits([report["axis_ode"], report["leaf_profile"]])
            == bits(np.max(np.abs(rows), axis=0))).all()
    assert fam.residuals(pts)["leaf_profile"] == report["leaf_profile"]
    if fam is CASE_II[1]:
        assert report["leaf_profile"] > 1e-3
    for q, row in zip(pts[::50], rows[::50]):
        one = catalog.case_ii_residuals(c1, c2, fam.profile, [q[1:]],
                                        u_values=[q[0]])
        assert (bits([one["axis_ode"], one["leaf_profile"]])
                == bits(np.abs(row))).all()


@pytest.mark.parametrize("fam", CASE_II, ids=["preset", "nonzero"])
def test_leaf_scalar_expected_equals_a_loop_over_points(fam):
    c1, _ = (value for _, value in fam.parameters)
    axis = expr.compile([fam.scale], ("u",), ("u",), order=2)
    us = np.array(fam.sample(1000, 1234))[:, 0]
    want = []
    for u in us.tolist():
        lu = axis(u)[0]
        want.append(2.0 * lu * lu * c1 * c1)
    got = fam.leaf_scalar_expected(us)
    assert got.shape == us.shape
    assert (bits(got) == bits(want)).all()
    for u, w in zip(us.tolist(), want):
        one = fam.leaf_scalar_expected(u)
        assert type(one) is float and bits(one) == bits(w)


def two_einsum_riemann(g, qs):
    """R^i_jkl at each point of qs, with both Gamma Gamma terms taken by
    an einsum of their own."""
    G, _, dG, dg, d2g = geo._covariant_derivatives(g, qs)
    A, Gamma = geo._connection(G, dg)
    dA = (d2g.transpose(0, 1, 3, 2, 4) + d2g.transpose(0, 1, 3, 4, 2) - d2g)
    dGamma = 0.5 * (np.einsum("pmil,pljk->pmijk", dG, A)
                    + np.einsum("pil,pmljk->pmijk", G, dA))
    return (dGamma.transpose(0, 2, 3, 1, 4) - dGamma.transpose(0, 2, 3, 4, 1)
            + np.einsum("pikm,pmjl->pijkl", Gamma, Gamma)
            - np.einsum("pilm,pmjk->pijkl", Gamma, Gamma))


@pytest.mark.parametrize("fam", CASE_I + CASE_II,
                         ids=["i", "i-nonzero", "ii", "ii-nonzero"])
def test_riemann_equals_the_two_einsum_formula(fam):
    pts = np.array(fam.sample(1000, 1234))
    R = geo.riemann(fam.metric, pts)
    assert (bits(R) == bits(two_einsum_riemann(fam.metric, pts))).all()
    if fam in (CASE_I[1], CASE_II[1]):
        assert np.max(np.abs(R)) > 1e-3
