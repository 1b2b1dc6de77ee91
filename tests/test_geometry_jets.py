"""The residual battery on compiled jets against a tree-walker reference.

Every reference below assembles the same formulas as ``geometry`` from
the tree walker's ``matrix_values``, ``matrix_derivative`` and
``matrix_second_derivative``, that is from one tree walk per entry,
variable and point.  The jets must agree to a relative 1e-14 at seeded
points of every catalog entry.  The last tests count the jets made from
a cold jet cache: loading makes only the jets of its probe checks and
chart changes, and the number a command makes does not grow with its
point count.  A command makes each grid jet once, and verify evaluates
each integral's gradients once per block of probes.
"""

import numpy as np
import pytest

import walker
from conftest import block_of
from walker import matrix_derivative, matrix_second_derivative

from blocksep import catalog, cli, expr
from blocksep import geometry as geo
from blocksep import model

REL = 1e-14
DYNAMIC = ("pendula", "oscillators", "calogero4")
FAMILIES = ("e3-case-i", "e3-case-ii")


def write_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    return str(path)


def close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= REL * scale


# ---------------------------------------------------------------------------
# tree-walker reference

def values(grid, env):
    return walker.matrix_values(grid, env)


def firsts(grid, coords, env):
    return np.array([matrix_derivative(grid, env, c) for c in coords])


def seconds(grid, coords, env):
    return np.array([[matrix_second_derivative(grid, env, a, b)
                      for b in coords] for a in coords])


def metric_grid(g):
    return g._grid


def ref_covariant(grid, coords, env):
    n = len(coords)
    G, dG, d2G = (values(grid, env), firsts(grid, coords, env),
                  seconds(grid, coords, env))
    gcov = np.linalg.inv(G)
    dg = np.array([-gcov @ dG[k] @ gcov for k in range(n)])
    d2g = np.empty((n, n, n, n))
    for m in range(n):
        for k in range(m + 1):
            d2g[m, k] = d2g[k, m] = -(dg[m] @ dG[k] @ gcov
                                      + gcov @ d2G[m, k] @ gcov
                                      + gcov @ dG[k] @ dg[m])
    return G, dG, dg, d2g


def ref_christoffel(grid, coords, env):
    G, _, dg, _ = ref_covariant(grid, coords, env)
    A = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("il,ljk->ijk", G, A)


def ref_riemann(grid, coords, env):
    G, dG, dg, d2g = ref_covariant(grid, coords, env)
    A = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    Gamma = 0.5 * np.einsum("il,ljk->ijk", G, A)
    dA = d2g.transpose(0, 2, 1, 3) + d2g.transpose(0, 2, 3, 1) - d2g
    dGamma = 0.5 * (np.einsum("mil,ljk->mijk", dG, A)
                    + np.einsum("il,mljk->mijk", G, dA))
    return (dGamma.transpose(1, 2, 0, 3) - dGamma.transpose(1, 2, 3, 0)
            + np.einsum("ikm,mjl->ijkl", Gamma, Gamma)
            - np.einsum("ilm,mjk->ijkl", Gamma, Gamma))


def ref_ricci(grid, coords, env):
    R = ref_riemann(grid, coords, env)
    return float(np.einsum("jl,jl->", values(grid, env),
                           np.einsum("ijil->jl", R)))


def ref_killing(grid, coords, K, env):
    Gamma = ref_christoffel(grid, coords, env)
    Kv, dK = values(K, env), firsts(K, coords, env)
    nabla = (dK - np.einsum("lij,lk->ijk", Gamma, Kv)
             - np.einsum("lik,jl->ijk", Gamma, Kv))
    sym = (nabla + nabla.transpose(1, 2, 0) + nabla.transpose(2, 0, 1)) / 3
    return float(np.max(np.abs(sym)))


def ref_mixed(T, variance, grid, coords, env):
    Tv, dT = values(T, env), firsts(T, coords, env)
    if variance == "mixed":
        return Tv, dT
    G, dG = values(grid, env), firsts(grid, coords, env)
    gcov = np.linalg.inv(G)
    dg = [-gcov @ dG[k] @ gcov for k in range(len(coords))]
    if variance == "contravariant":
        return Tv @ gcov, np.array([dT[k] @ gcov + Tv @ dg[k]
                                    for k in range(len(coords))])
    return G @ Tv, np.array([dG[k] @ Tv + G @ dT[k]
                             for k in range(len(coords))])


def ref_torsion(Tv, d):
    t1 = np.einsum("il,klj->ijk", Tv, d) - np.einsum("il,jlk->ijk", Tv, d)
    t2 = np.einsum("lj,lik->ijk", Tv, d) - np.einsum("lk,lij->ijk", Tv, d)
    return 0.5 * (t1 + t2)


def ref_tsn(T, variance, grid, coords, env):
    Tv, dT = ref_mixed(T, variance, grid, coords, env)
    N = ref_torsion(Tv, dT)
    gcov = np.linalg.inv(values(grid, env))
    out = []
    for Q in (gcov, gcov @ Tv, gcov @ Tv @ Tv):
        con = np.einsum("lij,kl->ijk", N, Q)
        res = (con + con.transpose(1, 2, 0) + con.transpose(2, 0, 1)) / 3
        out.append(float(np.max(np.abs(res))))
    return out


def ref_haantjes(T, coords, env):
    Tv = values(T, env)
    H = 2.0 * ref_torsion(Tv, firsts(T, coords, env))
    t2 = (np.einsum("snl,nm,ks->kml", H, Tv, Tv)
          - np.einsum("snm,nl,ks->kml", H, Tv, Tv))
    cond = (np.einsum("kns,nm,sl->kml", H, Tv, Tv) - t2
            + np.einsum("nml,ks,sn->kml", H, Tv, Tv))
    return float(np.max(np.abs(cond)))


def ref_characteristic(T, variance, V, grid, coords, env):
    Tv, dT = ref_mixed(T, variance, grid, coords, env)
    dV = firsts(((V,),), coords, env)[:, 0, 0]
    d2V = seconds(((V,),), coords, env)[:, :, 0, 0]
    domega = (np.einsum("ikj,k->ij", dT, dV)
              + np.einsum("kj,ik->ij", Tv, d2V))
    return float(np.max(np.abs(domega - domega.T)))


def ref_gradients(F, P):
    env = dict(zip(F.coords, P.q))
    p = np.array(P.p)
    n = len(F.coords)
    grid = F.tensor.grid
    K = values(grid, env)
    dq = np.array([walker.derivative(F.scalar, env, c)
                   + 0.5 * p @ matrix_derivative(grid, env, c) @ p
                   for c in F.coords])
    return dq, 0.5 * (K + K.T) @ p + np.zeros(n)


def ref_bracket(F, G, P):
    dqF, dpF = ref_gradients(F, P)
    dqG, dpG = ref_gradients(G, P)
    return float(dqF @ dpG - dpF @ dqG)


def ref_twist(sys, q):
    names = sys.structure.names
    env = dict(zip(names, q))
    S = values(sys.stackel.entries, env)
    # the program's own gated S^-1: the subject here is the jets against
    # the tree walker; the inverse is checked against LU in test_model
    M, _ = model.invert_with_condition(S, point=q)
    dS = firsts(sys.stackel.entries, names, env)
    return env, M, dS


def ref_eisenhart(sys, a, q):
    _, M, dS = ref_twist(sys, q)
    alpha = M[0]
    lam = M[a - 1] / alpha
    worst = 0.0
    for k in range(sys.dim):
        r = block_of(sys.structure, k) - 1
        dM = -M @ dS[k] @ M
        for s in range(sys.n):
            dlam = (dM[a - 1, s] * alpha[s] - M[a - 1, s] * dM[0, s]) \
                / alpha[s] ** 2
            dln = dM[0, s] / alpha[s]
            worst = max(worst, abs(dlam - (lam[r] - lam[s]) * dln))
    return worst


def ref_levi_civita(sys, q):
    env, M, dS = ref_twist(sys, q)
    names = sys.structure.names
    alpha = M[0]
    pots = (tuple(b.potential for b in sys.blocks),)
    V, dV_m = values(pots, env)[0], firsts(pots, names, env)[:, 0]
    d2S = seconds(sys.stackel.entries, names, env)
    d2V_m = seconds(pots, names, env)[:, :, 0]
    dalpha = [-(alpha @ dS[k]) @ M for k in range(sys.dim)]
    dV = [dalpha[k] @ V + alpha @ dV_m[k] for k in range(sys.dim)]
    metric = potential = 0.0
    for k in range(sys.dim):
        r = block_of(sys.structure, k) - 1
        for l in range(sys.dim):
            s = block_of(sys.structure, l) - 1
            if s == r:
                continue
            d2a = alpha @ (dS[k] @ M @ dS[l] + dS[l] @ M @ dS[k]
                           - d2S[k, l]) @ M
            for m in range(sys.n):
                metric = max(metric, abs(
                    alpha[r] * alpha[s] * d2a[m]
                    - alpha[r] * dalpha[k][s] * dalpha[l][m]
                    - alpha[s] * dalpha[l][r] * dalpha[k][m]))
            d2V = (d2a @ V + dalpha[k] @ dV_m[l] + dalpha[l] @ dV_m[k]
                   + alpha @ d2V_m[k, l])
            potential = max(potential, abs(
                alpha[r] * alpha[s] * d2V - alpha[r] * dalpha[k][s] * dV[l]
                - alpha[s] * dalpha[l][r] * dV[k]))
    return {"metric_residual": metric, "potential_residual": potential}


# ---------------------------------------------------------------------------
# agreement

@pytest.mark.parametrize("name", DYNAMIC)
def test_system_residuals_match_tree_walker(name):
    entry = catalog.load(name)
    sys_ = entry.system
    scalars = [geo.first_integral_scalar(sys_, a)
               for a in range(1, sys_.n + 1)]
    rng = np.random.default_rng(11)
    for q in entry.sample(8, 5):
        P = model.PhasePoint(q, tuple(rng.uniform(-1, 1, sys_.dim)))
        for i in range(sys_.n):
            for j in range(i + 1, sys_.n):
                close(geo.poisson_bracket(scalars[i], scalars[j], P),
                      ref_bracket(scalars[i], scalars[j], P))
        for a in range(2, sys_.n + 1):
            close(geo.block_eisenhart_residual(sys_, a, q),
                  ref_eisenhart(sys_, a, q))
        got = geo.block_levi_civita_residual(sys_, q)
        want = ref_levi_civita(sys_, q)
        for key in want:
            close(got[key], want[key])


def load_system(name):
    """A catalog entry and its system; for "corrupted <entry>", S[1][1]
    mentions q2, a coordinate of another block (built directly, since
    the validating constructor would reject it)."""
    entry = catalog.load(name.split()[-1])
    sys_ = entry.system
    if name.startswith("corrupted"):
        rows = [list(row) for row in sys_.stackel.entries]
        rows[0][0] = expr.parse("2+0.1*q2")
        sys_ = model.TwistedSystem(sys_.structure, model.StackelMatrix(rows),
                                   sys_.blocks)
    return entry, sys_


@pytest.mark.parametrize("name", DYNAMIC + ("corrupted pendula",))
def test_positions_equal_tree_walker_entry_for_entry(name):
    # one jet along all N coordinates: the partial along a coordinate an
    # entry does not mention is an exact 0.0, and a foreign coordinate
    # in a row of S is differentiated like any other
    entry, sys_ = load_system(name)
    names = sys_.structure.names
    S = sys_.stackel.entries
    V = [[blk.potential] for blk in sys_.blocks]
    qs = [list(map(float, q)) for q in entry.sample(20, 7)]
    at = sys_.jet.positions(qs)
    for p, q in enumerate(qs):
        env = dict(zip(names, q))
        pairs = ((at.S, values(S, env)), (at.dS, firsts(S, names, env)),
                 (at.d2S, seconds(S, names, env)),
                 (at.V, values(V, env)[:, 0]),
                 (at.dV, firsts(V, names, env)[..., 0]),
                 (at.d2V, seconds(V, names, env)[..., 0]))
        for got, want in pairs:
            assert got[p].shape == want.shape
            assert np.array_equal(got[p], want)


@pytest.mark.parametrize("name", DYNAMIC + ("corrupted pendula",))
def test_system_residuals_match_loop_at_verify_probes(name):
    # every probe of a default verify run, where the report takes its
    # maxima; the corrupted system makes the residuals large
    entry, sys_ = load_system(name)
    for q in entry.sample(100, 1234):
        for a in range(2, sys_.n + 1):
            close(geo.block_eisenhart_residual(sys_, a, q),
                  ref_eisenhart(sys_, a, q))
        got = geo.block_levi_civita_residual(sys_, q)
        want = ref_levi_civita(sys_, q)
        for key in want:
            close(got[key], want[key])


def ref_system_metric(sys_, q):
    """G = alpha^r g_r on the block diagonal and its first and second
    partials, alpha from the numeric inverse of S and its derivatives
    d alpha = -alpha dS M and d2 alpha = alpha (dS M dS' + dS' M dS
    - d2S) M."""
    names = sys_.structure.names
    N = sys_.dim
    env, M, dS = ref_twist(sys_, q)
    d2S = seconds(sys_.stackel.entries, names, env)
    alpha = M[0]
    dalpha = np.array([-(alpha @ dS[k]) @ M for k in range(N)])
    d2alpha = np.array([[alpha @ (dS[k] @ M @ dS[l] + dS[l] @ M @ dS[k]
                                  - d2S[k, l]) @ M for l in range(N)]
                        for k in range(N)])
    G, dG, d2G = np.zeros((N, N)), np.zeros((N, N, N)), np.zeros((N,) * 4)
    for r, blk in enumerate(sys_.blocks):
        idx = np.array(sys_.structure.block_range(r + 1))
        box = np.ix_(idx, idx)
        g = values(blk.metric, env)
        dg = firsts(blk.metric, names, env)
        d2g = seconds(blk.metric, names, env)
        G[box] = alpha[r] * g
        for k in range(N):
            dG[k][box] = dalpha[k, r] * g + alpha[r] * dg[k]
            for l in range(N):
                d2G[k, l][box] = (d2alpha[k, l, r] * g
                                  + dalpha[k, r] * dg[l]
                                  + dalpha[l, r] * dg[k]
                                  + alpha[r] * d2g[k, l])
    return G, dG, d2G


@pytest.mark.parametrize("name", DYNAMIC)
def test_system_metric_matches_numeric_twist(name):
    entry = catalog.load(name)
    g = geo.MetricField.from_system(entry.system)
    for q in entry.sample(10, 3):
        want = ref_system_metric(entry.system, q)
        got = g._derivatives(np.array([q]))  # a stack of one point
        for x, y in zip(got, want):
            scale = max(1.0, float(np.max(np.abs(y))))
            assert float(np.max(np.abs(x - y))) <= 1e-12 * scale


def test_cartesian_battery_matches_tree_walker():
    ref = catalog.load("calogero4").cartesian
    coords = ref.coords
    n = len(coords)
    ident = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    flat = geo.MetricField(coords, ident)
    flat_grid = metric_grid(flat)
    V = ref.hamiltonian.scalar
    pts = geo.rejection_sample(ref.sample_box, 6, 3, predicate=ref.regular)
    for scalar in ref.integrals:
        grid = scalar.tensor.grid
        k_cov = geo.TensorField2(coords, grid, "covariant", symmetric=True)
        k_mix = geo.TensorField2(coords, grid, "mixed")
        for x in pts:
            env = dict(zip(coords, x))
            close(geo.christoffel(flat, x), ref_christoffel(flat_grid,
                                                            coords, env))
            close(geo.killing_residual(flat, k_cov, x),
                  ref_killing(flat_grid, coords, grid, env))
            close(geo.tsn_residuals(k_mix, flat, x),
                  ref_tsn(grid, "mixed", flat_grid, coords, env))
            close(geo.haantjes(k_mix, x)["condition_residual"],
                  ref_haantjes(grid, coords, env))
            close(geo.characteristic_condition(k_mix, V, flat, x),
                  ref_characteristic(grid, "mixed", V, flat_grid, coords,
                                     env))


@pytest.mark.parametrize("name", FAMILIES)
def test_curved_metric_battery_matches_tree_walker(name):
    family = catalog.load(name)
    g = family.metric
    coords, grid = g.coords, metric_grid(g)
    # the metric grid itself, read as a tensor of each variance, makes a
    # battery on a non-constant metric
    V = family.profile * family.scale
    for x in family.sample(6, 9):
        env = dict(zip(coords, x))
        close(geo.christoffel(g, x), ref_christoffel(grid, coords, env))
        close(geo.riemann(g, x), ref_riemann(grid, coords, env))
        close(geo.ricci_scalar(g, x), ref_ricci(grid, coords, env))
        close(geo.killing_residual(
            g, geo.TensorField2(coords, grid, "covariant"), x),
            ref_killing(grid, coords, grid, env))
        for variance in ("contravariant", "covariant"):
            T = geo.TensorField2(coords, grid, variance)
            close(geo.tsn_residuals(T, g, x),
                  ref_tsn(grid, variance, grid, coords, env))
            close(geo.characteristic_condition(T, V, g, x),
                  ref_characteristic(grid, variance, V, grid, coords, env))
        close(geo.haantjes(geo.TensorField2(coords, grid, "mixed"),
                           x)["condition_residual"],
              ref_haantjes(grid, coords, env))
        if family.leaf_metric is not None:
            leaf = family.leaf_metric(x[0])
            lu = walker.evaluate(family.scale, {"u": x[0]})
            lf2 = expr.Num(lu * lu)
            leaf_grid = [[lf2 * family.profile * family.profile,
                          expr.Num(0.0)],
                         [expr.Num(0.0),
                          lf2 * family.profile * family.profile]]
            close(geo.ricci_scalar(leaf, x[1:]),
                  ref_ricci(leaf_grid, ("v", "w"),
                            {"v": x[1], "w": x[2]}))


# ---------------------------------------------------------------------------
# the stack form at the probes of the commands

@pytest.mark.parametrize("command, name", [("verify", n) for n in DYNAMIC]
                         + [("curvature", n) for n in FAMILIES])
def test_grid_jets_stack_the_float_form_bit_for_bit(command, name,
                                                    monkeypatch, tmp_path):
    # every grid jet a command makes, at every stack of its 100 points
    seen = []
    real = model._GridJet.stack

    def recording(jet, args):
        seen.append((jet, np.array(args, dtype=float)))
        return real(jet, args)

    monkeypatch.setattr(model._GridJet, "stack", recording)
    path = write_config(tmp_path, f"[system]\ncatalog = {name}\n"
                                  "[verification]\npoints = 100\n"
                                  f"[output]\ndirectory = {tmp_path}\n")
    assert cli.main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
    assert seen
    for jet, args in seen:
        floats = expr.compile(*jet._spec)
        want = np.array([floats(*row) for row in args.tolist()])
        out = np.empty((jet.width, len(args)))
        with np.errstate(all="ignore"):
            jet.fn(*args.T, out)
        assert np.array_equal(out.T.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# compile counts

@pytest.fixture
def compiles(generations):
    """The jets made from a cold cache, each as ``(exprs, names, wrt,
    order, form)``."""
    return generations


def test_loading_compiles_only_probe_and_chart_jets(compiles):
    """Loading compiles the values-only jet of each system's probe
    checks, S's entries and then the block metrics', in its stack form,
    and the jet of each chart change that carries a start point into its
    chart; nothing that a command uses, and nothing for a metric family."""
    for name in catalog.names():
        compiles.clear()
        entry = catalog.load(name)
        want = []
        if isinstance(entry, catalog.CatalogEntry):
            sys_ = entry.system
            grids = [sys_.stackel.entries] + [b.metric for b in sys_.blocks]
            want.append((tuple(e for grid in grids for row in grid
                               for e in row),
                         sys_.structure.names, (), 1, "stack"))
            if entry.cartesian is not None:
                want += [(st.old_exprs, st.new_names, st.new_names, 1,
                          "float")
                         for st in entry.cartesian.transform.stages]
        assert compiles == want


@pytest.mark.parametrize("name", DYNAMIC)
def test_verify_compiles_each_grid_once(name, compiles, tmp_path):
    path = write_config(tmp_path, f"[system]\ncatalog = {name}\n"
                                  "[verification]\npoints = 5\n"
                                  f"[output]\ndirectory = {tmp_path}\n")
    assert cli.main(["verify", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
    assert compiles
    assert len(set(compiles)) == len(compiles)


@pytest.mark.parametrize("name", FAMILIES)
def test_curvature_compiles_do_not_grow_with_points(name, compiles,
                                                    tmp_path):
    counts = []
    for points in (10, 1000):
        compiles.clear()
        expr._JETS.clear()   # each run makes its own jets and entry
        catalog._ENTRIES.clear()
        path = write_config(tmp_path, f"[system]\ncatalog = {name}\n"
                                      f"[verification]\npoints = {points}\n"
                                      f"[output]\ndirectory = {tmp_path}\n")
        assert cli.main(["curvature", "--config", path,
                         "--out", str(tmp_path / "out")]) == 0
        counts.append(len(compiles))
    assert counts[0] == counts[1] <= 4


# ---------------------------------------------------------------------------
# work counts: what one command evaluates or makes once

@pytest.mark.parametrize("command, name, points, count", [
    ("verify", "calogero4", 100, 8),
    ("curvature", "e3-case-i", 1000, 2),
    ("curvature", "e3-case-ii", 1000, 4),
])
def test_commands_make_each_grid_jet_once(command, name, points, count,
                                          monkeypatch, tmp_path, cold_jets):
    # verify: the characteristic rows of K_2 and K_3 share one order-2
    # jet of the pair potential; curvature: the leaf metrics of all the
    # blocks of points share one jet; a second run in the process makes
    # no grid jet and walks no jet key: its item holds them
    made = []
    real = model._GridJet.__init__

    def recording(jet, exprs, *args, **kwargs):
        made.append(tuple(exprs))
        real(jet, exprs, *args, **kwargs)

    monkeypatch.setattr(model._GridJet, "__init__", recording)
    path = write_config(tmp_path, f"[system]\ncatalog = {name}\n"
                                  f"[verification]\npoints = {points}\n"
                                  f"[output]\ndirectory = {tmp_path}\n")
    assert cli.main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
    assert len(made) == count
    if command == "verify":
        V = catalog.load(name).cartesian.hamiltonian.scalar
        assert [exprs for exprs in made if exprs == (V,)] == [(V,)]
    made.clear()
    walks = []
    real_generated = expr._generated

    def walking(*args):
        walks.append(args[0])
        return real_generated(*args)

    monkeypatch.setattr(expr, "_generated", walking)
    assert cli.main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
    assert made == [] and walks == []


def test_bracket_rows_evaluate_each_integral_once(monkeypatch, tmp_path):
    # pendula's rows bracket(H,K_2), bracket(H,K_3) and bracket(K_2,K_3)
    # at 100 probes, one block: each integral's gradients are evaluated
    # once and shared by the rows that need them
    seen = []
    real = geo.PhaseScalar._gradients

    def counted(F, qs, ps):
        seen.append((F, len(qs)))
        return real(F, qs, ps)

    monkeypatch.setattr(geo.PhaseScalar, "_gradients", counted)
    path = write_config(tmp_path, "[system]\ncatalog = pendula\n"
                                  f"[output]\ndirectory = {tmp_path}\n")
    assert cli.main(["verify", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
    assert [n for _, n in seen] == [100, 100, 100]
    assert len({id(F) for F, _ in seen}) == 3
