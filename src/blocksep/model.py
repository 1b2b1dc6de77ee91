"""Block structures, separation matrices, and twisted Hamiltonians.

A system is assembled from n coordinate blocks.  Block r carries a
natural Hamiltonian H_r = (1/2) g_r^{ij} p_i p_j + V_r whose metric and
potential depend only on block-r coordinates, and an n-by-n separation
matrix S whose row r likewise depends only on block-r coordinates.  The
first row alpha of S^{-1} supplies the twist functions that couple the
blocks into the single Hamiltonian

    H = sum_r alpha^r(q) H_r ,

and the remaining rows of S^{-1} give the companion first integrals
K_a.  Everything downstream (the fields, clocks, integrals, eigenvalue
and curvature residuals) is built from the values and the first two
derivatives of S^{-1}.  They are computed in one place, :func:`twist`,
analytically from exact derivatives of S (the compiled jets of
:class:`SystemJet`) via d(S^{-1}) = -S^{-1} (dS) S^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import expr as _expr
from .expr import Expression


# ---------------------------------------------------------------------------
# errors

class ModelError(Exception):
    """Base class for system-construction and evaluation failures."""


class DimensionMismatchError(ModelError):
    pass


class ForeignVariableError(ModelError):
    """An entry mentions a coordinate outside its own block."""

    def __init__(self, entry: str, variable: str, block: int):
        self.entry = entry
        self.variable = variable
        self.block = block
        super().__init__(
            f"{entry} mentions '{variable}', which is not a block-{block} "
            f"coordinate (each row/block may only use its own coordinates)")


class SingularMatrixError(ModelError):
    """Separation matrix singular or numerically unusable at a point."""

    def __init__(self, message: str, cond: float | None = None,
                 point=None):
        self.cond = cond
        self.point = point
        if point is not None:
            message += f" at q={tuple(point)}"
        if cond is not None:
            message += f" (1-norm condition estimate {cond:.3e})"
        super().__init__(message)


class BlockIndexError(ModelError):
    pass


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class BlockStructure:
    """Partition of N coordinates into n named blocks."""

    sizes: tuple[int, ...]
    coords: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        coords = tuple(tuple(c) for c in self.coords)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "coords", coords)
        if len(sizes) == 0:
            raise DimensionMismatchError("at least one block is required")
        if any(s <= 0 for s in sizes):
            raise DimensionMismatchError("block sizes must be positive")
        if len(coords) != len(sizes):
            raise DimensionMismatchError(
                f"{len(sizes)} block sizes but {len(coords)} coordinate groups")
        for r, (s, names) in enumerate(zip(sizes, coords), start=1):
            if len(names) != s:
                raise DimensionMismatchError(
                    f"block {r} declares size {s} but {len(names)} names")
        flat = [name for group in coords for name in group]
        if len(set(flat)) != len(flat):
            raise DimensionMismatchError("coordinate names must be unique")

    @property
    def n(self) -> int:
        """Number of blocks."""
        return len(self.sizes)

    @property
    def total(self) -> int:
        """Total configuration dimension N."""
        return sum(self.sizes)

    @property
    def names(self) -> tuple[str, ...]:
        """All coordinate names, block by block."""
        return tuple(name for group in self.coords for name in group)

    def block_range(self, r: int) -> range:
        """Global index range of block r (1-based r)."""
        if not 1 <= r <= self.n:
            raise BlockIndexError(f"block index {r} out of range 1..{self.n}")
        start = sum(self.sizes[: r - 1])
        return range(start, start + self.sizes[r - 1])

    def block_of(self, k: int) -> int:
        """1-based block index owning global coordinate k (0-based k)."""
        if not 0 <= k < self.total:
            raise BlockIndexError(f"coordinate index {k} out of range")
        acc = 0
        for r, s in enumerate(self.sizes, start=1):
            acc += s
            if k < acc:
                return r
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class StackelMatrix:
    """n-by-n grid of expressions; entries[r][a] is the row-r, column-a
    entry, with row r allowed to depend only on block-r coordinates."""

    entries: tuple[tuple[Expression, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(_as_expression(e) for e in row)
                     for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        for r, row in enumerate(rows, start=1):
            if len(row) != n:
                raise DimensionMismatchError(
                    f"separation matrix row {r} has {len(row)} entries, "
                    f"expected {n}")

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class NaturalBlock:
    """One block's natural Hamiltonian: contravariant metric grid plus
    potential, all in the block's own coordinates."""

    metric: tuple[tuple[Expression, ...], ...]
    potential: Expression

    def __post_init__(self):
        grid = tuple(tuple(_as_expression(e) for e in row)
                     for row in self.metric)
        object.__setattr__(self, "metric", grid)
        object.__setattr__(self, "potential", _as_expression(self.potential))
        m = len(grid)
        for i, row in enumerate(grid):
            if len(row) != m:
                raise DimensionMismatchError(
                    f"metric grid row {i + 1} has {len(row)} entries, "
                    f"expected {m}")
        for i in range(m):
            for j in range(i + 1, m):
                if grid[i][j] != grid[j][i]:
                    raise DimensionMismatchError(
                        f"metric grid not symmetric at ({i + 1},{j + 1})")

    @property
    def dim(self) -> int:
        return len(self.metric)


@dataclass(frozen=True)
class PhasePoint:
    """Positions and conjugate momenta, ordered like the structure."""

    q: tuple[float, ...]
    p: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(float(x) for x in self.q))
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        if len(self.q) != len(self.p):
            raise DimensionMismatchError(
                f"{len(self.q)} positions vs {len(self.p)} momenta")

    @classmethod
    def from_array(cls, y: Sequence[float]) -> "PhasePoint":
        y = list(y)
        half = len(y) // 2
        return cls(tuple(y[:half]), tuple(y[half:]))

    def as_array(self) -> np.ndarray:
        return np.array(self.q + self.p, dtype=float)


@dataclass(frozen=True)
class ProbePlan:
    """Validation points: user-declared points plus uniform samples in a
    coordinate box (fixed seed for reproducibility)."""

    points: tuple[Mapping[str, float], ...] = ()
    box: Mapping[str, tuple[float, float]] | None = None
    samples: int = 20
    seed: int = 42


@dataclass(frozen=True)
class TwistedSystem:
    structure: BlockStructure
    stackel: StackelMatrix
    blocks: tuple[NaturalBlock, ...]
    probes: tuple[Mapping[str, float], ...] = ()

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def dim(self) -> int:
        return self.structure.total

    def env(self, q: Sequence[float]) -> dict:
        names = self.structure.names
        if len(q) != len(names):
            raise DimensionMismatchError(
                f"{len(q)} coordinates for {len(names)} names")
        return dict(zip(names, (float(x) for x in q)))

    @cached_property
    def jet(self) -> "SystemJet":
        """Compiled jets of the system's expressions, made on first use
        and kept with the system."""
        return SystemJet(self)


@dataclass(frozen=True)
class PositionJet:
    """S and the block potentials V_r with their first and second
    partials at the positions q: S[r, a], dS[k, r, a] = d_k S[r, a],
    d2S[k, l, r, a], V[r], dV[k, r], d2V[k, l, r].  ``twist`` is the
    :class:`Twist` made from S and its partials, once per point."""

    q: tuple
    S: np.ndarray
    dS: np.ndarray
    d2S: np.ndarray
    V: np.ndarray
    dV: np.ndarray
    d2V: np.ndarray

    @cached_property
    def twist(self) -> "Twist":
        return twist(self.S, self.dS, self.d2S, point=self.q)


class SystemJet:
    """A system's expressions compiled by :func:`expr.compile`.  Each
    jet is compiled the first time it is asked for, and maps a list of
    Python floats to an array.  Everything that evaluates the system at
    a point runs on them: the fields, the clocks, the integrals of
    :func:`hamiltonian` and its kin, and the system residuals of
    :mod:`geometry`.  Only :func:`build_system`'s probe checks walk the
    expression trees.

    ``full`` takes the phase point (the N positions, then the N momenta)
    and returns a (1+2N, n*n+n) array: row 0 holds the values and row
    1+k the partials along phase coordinate k of the n*n entries of S
    (row-major), then of the n block energies H_r.  ``block(r)`` does
    the same on block r's own phase coordinates for S row r and H_r.
    ``stackel`` takes the N positions and returns the n-by-n values of
    S alone; ``energies`` takes the phase point and returns the values
    of the H_r alone.  ``positions`` takes the N positions and returns a
    :class:`PositionJet`.
    """

    def __init__(self, sys: TwistedSystem):
        self._sys = sys
        self._blocks = {}
        self._rows = None
        self._last = None

    def _phase(self, r: int):
        """Block r's phase names and its energy H_r as an expression in
        them; a momentum is named after its position, in brackets."""
        coords = self._sys.structure.coords[r - 1]
        blk = self._sys.blocks[r - 1]
        p = [_expr.Var(f"p[{c}]") for c in coords]
        terms = [g * p[i] * p[j] for i, row in enumerate(blk.metric)
                 for j, g in enumerate(row)]
        kinetic = sum(terms[1:], terms[0])
        return coords, tuple(v.name for v in p), 0.5 * kinetic + blk.potential

    @cached_property
    def _energies(self):
        """The block energies and the phase names they are written in."""
        phase = [self._phase(r) for r in range(1, self._sys.n + 1)]
        names = (self._sys.structure.names
                 + tuple(name for _, p, _ in phase for name in p))
        return [h for _, _, h in phase], names

    @cached_property
    def full(self):
        energies, names = self._energies
        entries = [e for row in self._sys.stackel.entries for e in row]
        return _jet_array(entries + energies, names)

    @cached_property
    def stackel(self):
        n = self._sys.n
        fn = _expr.compile([e for row in self._sys.stackel.entries
                            for e in row], self._sys.structure.names)
        return lambda q: np.array(fn(*q)).reshape(n, n)

    @cached_property
    def energies(self):
        fn = _expr.compile(*self._energies)
        return lambda y: np.array(fn(*y))

    def positions(self, q) -> PositionJet:
        """S, V and their partials up to second order at the positions
        q.  Row r of S and V_r are differentiated only along the
        coordinates they mention, block r's for a valid system; every
        other partial is an exact 0.0.  The last result is kept, since
        the residual battery asks for each probe point several times;
        its arrays must not be written to."""
        q = tuple(q)
        if self._last is not None and self._last[0] == q:
            return self._last[1]
        sys = self._sys
        names = sys.structure.names
        n, N = sys.n, len(names)
        if self._rows is None:
            self._rows = []
            for r in range(n):
                exprs = (*sys.stackel.entries[r], sys.blocks[r].potential)
                free = frozenset().union(*(e.free_variables()
                                           for e in exprs))
                idx = [k for k, c in enumerate(names) if c in free]
                pairs = [(k, l) for i, k in enumerate(idx) for l in idx[i:]]
                fn = _expr.compile(exprs, names, [names[k] for k in idx], 2)
                self._rows.append((fn, idx, tuple(zip(*pairs)) or ((), ())))
        S, V = np.empty((n, n)), np.empty(n)
        dS, dV = np.zeros((N, n, n)), np.zeros((N, n))
        d2S, d2V = np.zeros((N, N, n, n)), np.zeros((N, N, n))
        for r, (fn, idx, (ks, ls)) in enumerate(self._rows):
            out = np.array(fn(*q)).reshape(-1, n + 1)
            S[r], V[r] = out[0, :n], out[0, n]
            first, second = out[1:1 + len(idx)], out[1 + len(idx):]
            dS[idx, r], dV[idx, r] = first[:, :n], first[:, n]
            d2S[ks, ls, r] = d2S[ls, ks, r] = second[:, :n]
            d2V[ks, ls, r] = d2V[ls, ks, r] = second[:, n]
        out = PositionJet(q, S, dS, d2S, V, dV, d2V)
        self._last = (q, out)
        return out

    def block(self, r: int):
        jet = self._blocks.get(r)
        if jet is None:
            coords, p, h = self._phase(r)
            jet = self._blocks[r] = _jet_array(
                list(self._sys.stackel.entries[r - 1]) + [h], coords + p)
        return jet


def _jet_array(exprs, names):
    fn = _expr.compile(exprs, names, names)
    shape = (len(names) + 1, len(exprs))
    return lambda y: np.array(fn(*y)).reshape(shape)


def _as_expression(e) -> Expression:
    if isinstance(e, Expression):
        return e
    if isinstance(e, str):
        return _expr.parse(e)
    if isinstance(e, (int, float)):
        return _expr.Num(float(e))
    raise TypeError(f"not an expression: {e!r}")


def _q_of(point) -> tuple[float, ...]:
    if isinstance(point, PhasePoint):
        return point.q
    return tuple(float(x) for x in point)


# ---------------------------------------------------------------------------
# numeric matrix helpers (shared with the geometry module)

COND_ERROR = 1e12
COND_WARN = 1e8


def matrix_values(grid, env) -> np.ndarray:
    """Evaluate a grid of expressions into a float matrix."""
    return np.array([[_expr.evaluate(e, env) for e in row] for row in grid],
                    dtype=float)


def matrix_derivative(grid, env, v: str) -> np.ndarray:
    """Entrywise exact partial derivative of a grid."""
    return np.array(
        [[_expr.derivative(e, env, v) for e in row] for row in grid],
        dtype=float)


def matrix_second_derivative(grid, env, v1: str, v2: str) -> np.ndarray:
    return np.array(
        [[_expr.second_derivative(e, env, v1, v2) for e in row]
         for row in grid], dtype=float)


def inverse_derivative(M: np.ndarray, dS: np.ndarray) -> np.ndarray:
    """d(S^{-1}) from M = S^{-1} and dS, via -M (dS) M."""
    return -M @ dS @ M


def invert_with_condition(S: np.ndarray, point=None):
    """LU inverse with a 1-norm condition estimate.

    Returns (M, cond, warning).  cond above COND_ERROR raises; above
    COND_WARN the warning string is returned for attachment to results.
    """
    try:
        M = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is singular", point=point) from None
    # the 1-norm of M is finite only if every entry of M is
    norm1_inv = float(np.abs(M).sum(axis=0).max())
    if not math.isfinite(norm1_inv):
        raise SingularMatrixError("matrix inverse overflowed", point=point)
    cond = float(np.abs(S).sum(axis=0).max()) * norm1_inv
    if cond > COND_ERROR:
        raise SingularMatrixError("matrix numerically singular",
                                  cond=cond, point=point)
    warning = None
    if cond > COND_WARN:
        warning = (f"ill-conditioned separation matrix: 1-norm condition "
                   f"estimate {cond:.3e} exceeds {COND_WARN:.0e}")
    return M, cond, warning


class Twist:
    """S^{-1} at a point, behind the condition gate of
    :func:`invert_with_condition`, with the partials of the twist that
    the fields and the residuals read.  Row a-1 of ``matrix`` holds the
    coefficients combining the block energies into K_a; row 0 is the
    twist vector ``alpha``.  Made by :func:`twist`.  The partials need
    the partials of S, and each is computed on first use:

    * ``dalpha[k]`` = d_k alpha, row 0 of d_k(S^{-1});
    * ``dmatrix[k]`` = d_k(S^{-1}) = -S^{-1} (d_k S) S^{-1};
    * ``d2alpha[k, l]`` = d_k d_l alpha, over every pair of coordinates.
    """

    def __init__(self, matrix: np.ndarray, cond: float,
                 warning: str | None = None, dS=None, d2S=None):
        self.matrix = matrix
        self.cond = cond
        self.warning = warning
        self._dS = dS
        self._d2S = d2S

    def __getitem__(self, idx):
        return self.matrix[idx]

    @property
    def alpha(self) -> np.ndarray:
        return self.matrix[0]

    @cached_property
    def dalpha(self) -> np.ndarray:
        return -(self.alpha @ self._dS) @ self.matrix

    @cached_property
    def dmatrix(self) -> np.ndarray:
        return inverse_derivative(self.matrix, self._dS)

    @cached_property
    def d2alpha(self) -> np.ndarray:
        # alpha (dS_k M dS_l + dS_l M dS_k - d2S_kl) M, with M = S^{-1}
        M, dS = self.matrix, self._dS
        pairs = dS[:, None] @ M @ dS  # [k, l] = dS_k M dS_l
        return (self.alpha @ (pairs + pairs.transpose(1, 0, 2, 3)
                              - self._d2S)) @ M


def twist(S: np.ndarray, dS=None, d2S=None, point=None) -> Twist:
    """The :class:`Twist` of the separation matrix values S, given with
    its stacked partials dS[k] = d_k S and d2S[k, l] = d_k d_l S when
    the twist's partials are wanted.  Past ``COND_ERROR`` it raises
    :class:`SingularMatrixError`, naming ``point``."""
    M, cond, warning = invert_with_condition(S, point=point)
    return Twist(M, cond, warning, dS, d2S)


# ---------------------------------------------------------------------------
# construction

def build_system(structure: BlockStructure, stackel: StackelMatrix,
                 blocks: Sequence[NaturalBlock],
                 probes: ProbePlan | None = None) -> TwistedSystem:
    """Validate and assemble a twisted system.

    Rejects dimensional mismatches, any row-r separation entry or
    block-r metric/potential mentioning a foreign coordinate, and a
    separation matrix singular at any probe point.
    """
    blocks = tuple(blocks)
    n = structure.n
    if stackel.n != n:
        raise DimensionMismatchError(
            f"separation matrix is {stackel.n}x{stackel.n} for {n} blocks")
    if len(blocks) != n:
        raise DimensionMismatchError(f"{len(blocks)} blocks for {n} declared")
    for r, (blk, size) in enumerate(zip(blocks, structure.sizes), start=1):
        if blk.dim != size:
            raise DimensionMismatchError(
                f"block {r} metric is {blk.dim}x{blk.dim}, expected "
                f"{size}x{size}")

    # structural foreign-variable validation
    for r in range(1, n + 1):
        own = frozenset(structure.coords[r - 1])
        for a in range(1, n + 1):
            entry = stackel.entries[r - 1][a - 1]
            for name in sorted(entry.free_variables() - own):
                raise ForeignVariableError(
                    f"separation matrix entry S[{r}][{a}]", name, r)
        blk = blocks[r - 1]
        for i, row in enumerate(blk.metric, start=1):
            for j, e in enumerate(row, start=1):
                for name in sorted(e.free_variables() - own):
                    raise ForeignVariableError(
                        f"block {r} metric entry g[{i}][{j}]", name, r)
        for name in sorted(blk.potential.free_variables() - own):
            raise ForeignVariableError(f"block {r} potential", name, r)

    probe_envs = _materialize_probes(structure, probes)

    sys = TwistedSystem(structure, stackel, blocks, probe_envs)

    # numeric validation at every probe point
    for env in probe_envs:
        S = matrix_values(stackel.entries, env)
        det = float(np.linalg.det(S))
        if det == 0.0 or not np.isfinite(det):
            raise SingularMatrixError(
                "separation matrix singular at probe point",
                point=[env[c] for c in structure.names])
        invert_with_condition(S, point=[env[c] for c in structure.names])
        for r, blk in enumerate(blocks, start=1):
            g = matrix_values(blk.metric, env)
            gdet = float(np.linalg.det(g))
            if gdet == 0.0 or not np.isfinite(gdet):
                raise SingularMatrixError(
                    f"block {r} metric degenerate at probe point",
                    point=[env[c] for c in structure.names])
    return sys


def _materialize_probes(structure: BlockStructure,
                        probes: ProbePlan | None):
    if probes is None:
        return ()
    names = structure.names
    out = []
    for pt in probes.points:
        missing = [c for c in names if c not in pt]
        if missing:
            raise DimensionMismatchError(
                f"probe point missing coordinates {missing}")
        out.append({c: float(pt[c]) for c in names})
    if probes.box is not None:
        missing = [c for c in names if c not in probes.box]
        if missing:
            raise DimensionMismatchError(
                f"probe box missing coordinates {missing}")
        rng = np.random.default_rng(probes.seed)
        for _ in range(probes.samples):
            env = {}
            for c in names:
                lo, hi = probes.box[c]
                env[c] = float(rng.uniform(lo, hi))
            out.append(env)
    return tuple(out)


# ---------------------------------------------------------------------------
# evaluation

def _position_values(sys: TwistedSystem, point) -> list[float]:
    return list(sys.env(_q_of(point)).values())


def _block_energies(sys: TwistedSystem, point: PhasePoint) -> np.ndarray:
    """The block energies H_r at the phase point."""
    return sys.jet.energies(_position_values(sys, point) + list(point.p))


def twist_rows(sys: TwistedSystem, point) -> Twist:
    """S^{-1} at the point, with the condition estimate attached."""
    q = _position_values(sys, point)
    return twist(sys.jet.stackel(q), point=q)


def block_energy(sys: TwistedSystem, r: int, point: PhasePoint) -> float:
    """H_r = (1/2) g_r^{ij} p_i p_j + V_r on the block-r slice."""
    if not 1 <= r <= sys.n:
        raise BlockIndexError(f"block index {r} out of range 1..{sys.n}")
    return float(_block_energies(sys, point)[r - 1])


def hamiltonian(sys: TwistedSystem, point: PhasePoint) -> float:
    """H = sum_r alpha^r(q) H_r."""
    tw = twist_rows(sys, point)
    return float(tw.alpha @ _block_energies(sys, point))


def first_integral(sys: TwistedSystem, a: int, point: PhasePoint) -> float:
    """K_a = sum_r (S^{-1})[a][r] H_r;  K_1 is H itself."""
    if not 1 <= a <= sys.n:
        raise BlockIndexError(
            f"first-integral index {a} out of range 1..{sys.n}")
    tw = twist_rows(sys, point)
    return float(tw.matrix[a - 1] @ _block_energies(sys, point))


def separation_constants(sys: TwistedSystem, point: PhasePoint) -> np.ndarray:
    """c_a = K_a(point); c_1 = H(point)."""
    tw = twist_rows(sys, point)
    return tw.matrix @ _block_energies(sys, point)


def reduced_hamiltonian(sys: TwistedSystem, r: int, c: Sequence[float],
                        point: PhasePoint) -> float:
    """H_r - sum_a c_a S[r][a]: the block-r separated-equation residual
    turned into a one-block Hamiltonian on the block slice."""
    if not 1 <= r <= sys.n:
        raise BlockIndexError(f"block index {r} out of range 1..{sys.n}")
    c = np.asarray(c, dtype=float)
    if c.shape != (sys.n,):
        raise DimensionMismatchError(
            f"expected {sys.n} separation constants, got shape {c.shape}")
    h = float(_block_energies(sys, point)[r - 1])
    S = sys.jet.stackel(_position_values(sys, point))
    return h - float(c @ S[r - 1])
