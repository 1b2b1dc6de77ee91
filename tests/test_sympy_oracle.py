"""sympy as a value oracle for the compiled jets and for the curvature.

The jets' values and partials come from one dual-number walk of each
expression tree (``dual.py``), and the tree walker the other suites
check them against walks the same duals.  Here the oracle shares no
code with either: each expression goes to sympy through its source
form (:func:`expr.pretty`, with ``^`` as ``**`` and ``ln`` as ``log``),
sympy differentiates it symbolically, and mpmath evaluates the result
at 30 digits.  A jet entry passes when it is within 1e-12 of that
value, relative to max(1, |value|).

The curvature oracle is the Riemann tensor of a round-sphere leaf of
``e3-case-ii`` worked out by sympy from the covariant metric, against
:func:`geometry.riemann` and :func:`geometry.ricci_scalar`.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from blocksep import catalog, expr, geometry  # noqa: E402

RTOL = 1e-12
DIGITS = 30


def to_sympy(e, symbols):
    """The sympy form of an expression, read from its source text."""
    text = expr.pretty(e).replace("^", "**")
    return sympy.parse_expr(text, local_dict=dict(
        symbols, log=sympy.log, ln=sympy.log, abs=sympy.Abs),
        evaluate=True)


def sympy_jet(exprs, names):
    """The values, first partials and second partials (pairs i <= j) of
    the expressions in the layout of ``expr.compile(..., order=2)``, as
    one mpmath function of the point."""
    symbols = {n: sympy.Symbol(n, real=True) for n in names}
    xs = [symbols[n] for n in names]
    fs = [to_sympy(e, symbols) for e in exprs]
    entries = list(fs)
    entries += [sympy.diff(f, x) for x in xs for f in fs]
    entries += [sympy.diff(f, xs[i], xs[j]) for i in range(len(xs))
                for j in range(i, len(xs)) for f in fs]
    return sympy.lambdify(xs, entries, modules="mpmath")


def assert_close(got, want):
    for g, w in zip(got, want):
        w = float(w)
        assert abs(g - w) <= RTOL * max(1.0, abs(w)), (g, w)


def entry_expressions(name):
    """The separation matrix entries and block potentials of a catalog
    entry, with its coordinate names."""
    sys_ = catalog.load(name).system
    exprs = [e for row in sys_.stackel.entries for e in row]
    exprs += [blk.potential for blk in sys_.blocks]
    return exprs, sys_.structure.names


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_jets_match_sympy(name):
    exprs, names = entry_expressions(name)
    jet = expr.compile(exprs, names, names, order=2)
    oracle = sympy_jet(exprs, names)
    assert len(jet(*[0.5] * len(names))) == len(
        oracle(*[mpmath.mpf(0.5)] * len(names)))
    points = catalog.load(name).sample(4, seed=2024)
    with mpmath.workdps(DIGITS):
        for q in points:
            assert_close(jet(*q), oracle(*[mpmath.mpf(v) for v in q]))


def test_calogero4_leaf_potential_matches_sympy():
    # the two-angle block's potential alone, along its own coordinates
    leaf_v = catalog.load("calogero4").system.blocks[2].potential
    names = ("phi2", "phi3")
    jet = expr.compile([leaf_v], names, names, order=2)
    oracle = sympy_jet([leaf_v], names)
    rng = np.random.default_rng(7)
    with mpmath.workdps(DIGITS):
        for _ in range(6):
            q = (float(rng.uniform(0.4, 2.7)), float(rng.uniform(-2.8, 2.8)))
            assert_close(jet(*q), oracle(*[mpmath.mpf(v) for v in q]))


def sympy_riemann(G, xs):
    """R^i_jkl = d_k Gamma^i_jl - d_l Gamma^i_jk + Gamma^i_km Gamma^m_jl
    - Gamma^i_lm Gamma^m_jk of the metric with contravariant
    components G, the layout of :func:`geometry.riemann`."""
    n = len(xs)
    g = G.inv()
    gamma = [[[sum(G[i, m] * (sympy.diff(g[m, k], xs[j])
                              + sympy.diff(g[m, j], xs[k])
                              - sympy.diff(g[j, k], xs[m]))
                   for m in range(n)) / 2
               for k in range(n)] for j in range(n)] for i in range(n)]
    return [[[[sympy.diff(gamma[i][j][l], xs[k])
               - sympy.diff(gamma[i][j][k], xs[l])
               + sum(gamma[i][k][m] * gamma[m][j][l]
                     - gamma[i][l][m] * gamma[m][j][k] for m in range(n))
               for l in range(n)] for k in range(n)] for j in range(n)]
            for i in range(n)]


def test_sphere_leaf_curvature_matches_sympy():
    family = catalog.load("e3-case-ii")
    u = 1.3
    leaf = family.leaf_metric(u)
    symbols = {n: sympy.Symbol(n, real=True) for n in ("u", "v", "w")}
    xs = [symbols["v"], symbols["w"]]
    G = sympy.Matrix([[to_sympy(e, symbols).subs(symbols["u"], u)
                       for e in row] for row in leaf._grid])
    R = sympy_riemann(G, xs)
    ric = [[sum(R[i][j][i][l] for i in range(2)) for l in range(2)]
           for j in range(2)]
    scalar = sum(G[j, l] * ric[j][l] for j in range(2) for l in range(2))
    riemann_at = sympy.lambdify(xs, R, modules="mpmath")
    scalar_at = sympy.lambdify(xs, scalar, modules="mpmath")

    points = np.array(family.sample(5, seed=31))[:, 1:]
    got_R = geometry.riemann(leaf, points)
    got_scalar = geometry.ricci_scalar(leaf, points)
    with mpmath.workdps(DIGITS):
        for p, (v, w) in enumerate(points.tolist()):
            want = riemann_at(mpmath.mpf(v), mpmath.mpf(w))
            assert_close(got_R[p].ravel().tolist(),
                         np.array(want, dtype=object).ravel().tolist())
            assert_close([got_scalar[p]],
                         [scalar_at(mpmath.mpf(v), mpmath.mpf(w))])
    # a round sphere: curvature 2 l(u)^2 c1^2, not flat
    assert got_scalar == pytest.approx(family.leaf_scalar_expected(u),
                                       rel=1e-12)
    assert np.max(np.abs(got_R)) > 0.1
