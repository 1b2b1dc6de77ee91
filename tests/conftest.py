"""Shared fixtures: a small three-block system used across suites, and
the references that only tests call.

The systems here are built without the catalog module on purpose, so
the model and dynamics suites exercise hand-assembled systems and the
catalog suite can cross-check its own constructions against these; the
catalog is imported only to empty its entry cache.
"""

import functools

import numpy as np
import pytest

from blocksep import catalog, expr, model
from blocksep.dynamics import (
    _COUPLING, _DENSE, _ERROR5, _KEPT, _NODES, _ORDER3,
)
from blocksep.geometry import build_probes
from blocksep.model import (
    BlockIndexError, BlockStructure, NaturalBlock, PhasePoint,
    StackelMatrix, build_system,
)


def make_pendula_like():
    """Two pendulum blocks and a free block, polynomially coupled."""
    structure = BlockStructure((1, 1, 1), (("q1",), ("q2",), ("q3",)))
    stackel = StackelMatrix((
        ("2", "1+q1", "2*q1^2+2"),
        ("3", "q2", "q2^3+2"),
        ("4", "q3", "q3^2+1"),
    ))
    blocks = (
        NaturalBlock((("1",),), "-cos(q1)/2"),
        NaturalBlock((("1",),), "-cos(q2)/2"),
        NaturalBlock((("1",),), "0"),
    )
    return build_system(structure, stackel, blocks,
                        [(0.0, 0.0, 0.0)] + build_probes(((-0.3, 0.3),) * 3))


@functools.cache
def pendula_like():
    """One :func:`make_pendula_like` system, with the jets it makes, for
    the tests that only read it."""
    return make_pendula_like()


def zip_dop853():
    """The DOP853 step as the sums over ``zip`` of the components that
    ``dynamics._dop853(d)`` writes out per component, with the tableau's
    weights as literals: ``_stages(f, t, h, y, k1)``,
    ``_error_sums(y, y1, kept, atol, rtol)`` and
    ``_dense(f, t, h, y, y1, kept)``, for a state of any length."""

    def terms(row):
        return " + ".join(f"{w!r} * a{j}" for j, w in row.items())

    def over(lists, stages):
        names = [f"{x}_" for x in lists] + [f"a{j}" for j in stages]
        seqs = list(lists) + [f"k{j}" for j in stages]
        return f"for {', '.join(names)} in zip({', '.join(seqs)})"

    def state(i):
        row = _COUPLING[i]
        return f"[y_ + h * ({terms(row)}) {over(['y'], row)}]"

    kept = ", ".join(f"k{j}" for j in _KEPT)
    stages = [f"k{i} = f(t + {_NODES[i]!r} * h, {state(i)})"
              for i in range(2, 13)]
    stages += [f"y1 = {state(13)}", "k13 = f(t + h, y1)",
               f"return y1, ({kept})"]
    order3 = {j: b - _ORDER3.get(j, 0.0) for j, b in _COUPLING[13].items()}
    sums = [f"{kept} = kept", "s5 = s3 = 0.0",
            over(["y", "y1"], _ERROR5) + ":",
            "    sc = atol + rtol * max(abs(y_), abs(y1_))",
            f"    e = ({terms(_ERROR5)}) / sc",
            "    s5 += e * e",
            f"    e = ({terms(order3)}) / sc",
            "    s3 += e * e",
            "return s5, s3"]
    dense = [f"{kept} = kept"]
    dense += [f"k{i} = f(t + {_NODES[i]!r} * h, {state(i)})"
              for i in range(14, 17)]
    dense += ["rows = []",
              over(["y", "y1"], (*_KEPT, 14, 15, 16)) + ":",
              "    dy = y1_ - y_",
              "    rows += (dy, h * a1 - dy, 2.0 * dy - h * (a1 + a13), "
              + ", ".join(f"h * ({terms(row)})" for row in _DENSE) + ")",
              "return tuple(rows)"]
    code = "".join(f"def {name}:\n" + "".join(f"    {line}\n"
                                               for line in body)
                   for name, body in (
                       ("_stages(f, t, h, y, k1)", stages),
                       ("_error_sums(y, y1, kept, atol, rtol)", sums),
                       ("_dense(f, t, h, y, y1, kept)", dense)))
    namespace = {}
    exec(code, namespace)
    return namespace["_stages"], namespace["_error_sums"], namespace["_dense"]


# rest point of the two pendula with a slight offset, used throughout
PENDULA_P0 = PhasePoint((0.2, -0.2, 0.0), (0.0, 0.0, 0.0))

# frozen reference values of H, K_2, K_3 on the orbit through P0
PENDULA_C = (0.09494666248, 0.0916913483, -0.3797866499)


# ---------------------------------------------------------------------------
# the catalog entry cache

@pytest.fixture
def cold_jets(monkeypatch):
    """An empty catalog entry cache for one test, so that the jets the
    test sees made are made in it, whatever items earlier tests left
    there holding theirs."""
    monkeypatch.setattr(catalog, "_ENTRIES", {})


@pytest.fixture
def generations(cold_jets, monkeypatch):
    """The jets made in the test, in order, each as
    ``(exprs, names, wrt, order, form)``."""
    made = []
    real = expr._jet_ops

    def counting(form, exprs, names, wrt, order):
        made.append((tuple(exprs), names, wrt, order, form))
        return real(form, exprs, names, wrt, order)

    monkeypatch.setattr(expr, "_jet_ops", counting)
    return made


# ---------------------------------------------------------------------------
# references that the commands do not call

def phase_point(y) -> PhasePoint:
    """The phase point of a state y: its first half the positions, its
    second half the momenta."""
    y = list(y)
    half = len(y) // 2
    return PhasePoint(tuple(y[:half]), tuple(y[half:]))


def position_env(sys, q) -> dict:
    """The tree walker's binding of each coordinate name of sys to its
    value in q."""
    return dict(zip(sys.structure.names, (float(v) for v in q)))


def block_of(structure, k: int) -> int:
    """1-based block index owning global coordinate k (0-based k)."""
    return next(r for r in range(1, structure.n + 1)
                if k in structure.block_range(r))


def block_energy(sys, r: int, point: PhasePoint) -> float:
    """H_r = (1/2) g_r^{ij} p_i p_j + V_r on the block-r slice."""
    if not 1 <= r <= sys.n:
        raise BlockIndexError(f"block index {r} out of range 1..{sys.n}")
    return float(model._block_energies(sys, point)[r - 1])


def reduced_hamiltonian(sys, r: int, c, point: PhasePoint) -> float:
    """H_r - sum_a c_a S[r][a]: the block-r separated-equation residual
    turned into a one-block Hamiltonian on the block slice."""
    c = model._reduced_constants(sys, r, c)
    h = float(model._block_energies(sys, point)[r - 1])
    S = sys.jet.stackel([model._position_values(sys, point)])[0]
    return h - float(c @ S[r - 1])


def full_field(sys, point: PhasePoint) -> np.ndarray:
    """Hamiltonian vector field of H = alpha^r H_r: (dq/dt, dp/dt)."""
    return np.array(sys.jet.field(0.0, list(point.q + point.p)))


def reduced_field(sys, r: int, c, point: PhasePoint) -> np.ndarray:
    """Hamiltonian vector field of the one-block reduced Hamiltonian
    H_r - c_a S[r][a] on the block-r phase space.  ``point`` holds the
    block slice only (n_r positions and momenta)."""
    c = model._reduced_constants(sys, r, c).tolist()
    return np.array(sys.jet.reduced(r)(c, 0.0, list(point.q + point.p)))


def phase_value(F, point: PhasePoint) -> float:
    """F = (1/2) K^ij p_i p_j + W of a phase scalar at a phase point,
    from its tensor's values and the float form of the scalar's jet,
    which it makes once."""
    value = F._jet.floats(*point.q)[0]
    if F.tensor is not None:
        p = np.asarray(point.p, dtype=float)
        value += 0.5 * float(p @ F.tensor.values(point.q) @ p)
    return float(value)


def metric_derivative(g, point, name: str) -> np.ndarray:
    """d/d name of the contravariant components of the metric g at one
    point, from the metric's jet."""
    k = g.coords.index(name)
    return g._derivatives(np.array([point], dtype=float), 1)[1][0, k]


def metric_second_derivative(g, point, n1: str, n2: str) -> np.ndarray:
    """d/d n1 d/d n2 of the contravariant components of the metric g at
    one point, from the metric's jet."""
    m, k = g.coords.index(n1), g.coords.index(n2)
    return g._derivatives(np.array([point], dtype=float))[2][0, m, k]


# ---------------------------------------------------------------------------
# the fields as two calls: a kernel that calls a separately compiled jet

def two_call_field_function(exprs, names, weights, head=(), rate=None,
                            params="", clocks=()):
    """``model._field_function`` as it was before the jet's ops were
    written into the field: the kernel calls the first-order jet of
    ``exprs`` once, binds its tuple to ``v``, and reads ``v[i]``."""
    jet = expr.compile(exprs, names, names)
    width, m = len(exprs), len(names) // 2
    free = [e.free_variables() for e in exprs]
    lines = [f"v = _jet(*y[:{2 * m}])", *head]
    for k, name in enumerate(names):
        terms = [f"v[{width * (1 + k) + i}]" if w is None
                 else f"{w} * v[{width * (1 + k) + i}]"
                 for i, w in weights.items() if name in free[i]]
        extra, term = rate(k) if rate is not None and k < m else ([], None)
        lines += extra
        if term is not None:
            terms.append(term)
        lines.append(f"g{k} = {' + '.join(terms) or '0.0'}")
    lines.append("return " + model._tuple(
        [f"g{k}" for k in range(m, 2 * m)] + [f"-g{k}" for k in range(m)]
        + list(clocks)) + "[:len(y)]")
    code = f"def _field(y{params}):\n" + "".join(f"    {line}\n"
                                                 for line in lines)
    namespace = {"_jet": jet,
                 "SingularMatrixError": model.SingularMatrixError}
    exec(compile(code, "<field>", "exec"), namespace)
    return namespace["_field"]


def two_call_field(sys):
    """``SystemJet.field`` of ``sys`` from :func:`two_call_field_function`."""
    _tuple = model._tuple
    n, N = sys.n, sys.dim
    energies, names = sys.jet._energies
    tw = sys.jet.constant_twist
    if tw is not None:
        alpha = [f"({a!r})" for a in tw.alpha.tolist()]
        return two_call_field_function(energies, names,
                                       dict(enumerate(alpha)), clocks=alpha)
    entries = [e for row in sys.stackel.entries for e in row]
    free = [e.free_variables() for e in entries]
    nn, width = n * n, n * n + n
    head = [*model._inverse_lines(n, f"y[:{N}]", f"v[:{nn}]"),
            _tuple(f"h{r}" for r in range(n)) + f" = v[{nn}:{width}]"]

    def rate(k):
        base = width * (1 + k)
        u = {a: " + ".join(f"m0_{r} * v[{base + r * n + a}]"
                           for r in range(n)
                           if names[k] in free[r * n + a])
             for a in range(n)}
        u = {a: terms for a, terms in u.items() if terms}
        if not u:
            return [], None
        lines = [f"u{a} = {terms}" for a, terms in u.items()]
        lines += [f"d{b} = -(" + " + ".join(f"u{a} * m{a}_{b}" for a in u)
                  + ")" for b in range(n)]
        return lines, "(" + " + ".join(f"d{b} * h{b}"
                                       for b in range(n)) + ")"

    alpha = [f"m0_{r}" for r in range(n)]
    return two_call_field_function(entries + energies, names,
                                   dict(enumerate(alpha, nn)), head, rate,
                                   clocks=alpha)


def two_call_reduced(sys, r: int):
    """``SystemJet.reduced(r)`` of ``sys`` from
    :func:`two_call_field_function`."""
    n = sys.n
    coords, p, h = sys.jet._phase(r)
    weights = {0: None} | {1 + a: f"-c{a}" for a in range(n)}
    head = [model._tuple(f"c{a}" for a in range(n)) + " = c"]
    return two_call_field_function([h, *sys.stackel.entries[r - 1]],
                                   coords + p, weights, head, params=", c")
