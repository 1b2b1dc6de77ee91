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
derivatives of S^{-1}.  They are computed in one place, :class:`Twist`,
analytically from exact derivatives of S (the compiled jets of
:class:`SystemJet`) via d(S^{-1}) = -S^{-1} (dS) S^{-1}, whose row 0
is d(alpha); only the generated vector fields of :class:`SystemJet`
write d(alpha) out on floats.  S^-1 and its gate are one generated
text, :func:`_inverse_lines`, compiled in two forms by
:func:`invert_with_condition`: on floats for a point and over arrays
for a stack of points; the field of a varying S inlines the floats
lines, after the jet's own ops.  The text grows about 2.2 times per
block, so a structure has at most ``MAX_BLOCKS`` blocks.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

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
        if len(sizes) > MAX_BLOCKS:
            raise ModelError(f"{len(sizes)} blocks, more than the "
                             f"{MAX_BLOCKS} supported")
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

    def as_array(self) -> np.ndarray:
        return np.array(self.q + self.p, dtype=float)


@dataclass(frozen=True)
class TwistedSystem:
    structure: BlockStructure
    stackel: StackelMatrix
    blocks: tuple[NaturalBlock, ...]
    # the positions build_system checked, each ordered like structure.names
    probes: tuple[tuple[float, ...], ...] = ()

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def dim(self) -> int:
        return self.structure.total

    @cached_property
    def jet(self) -> "SystemJet":
        """Compiled jets of the system's expressions, made on first use
        and kept with the system."""
        return SystemJet(self)


class _GridJet:
    """A jet of an expression list over coordinates (and fixed
    parameters after them): the one adapter from :func:`expr.compile`'s
    stack form, or for a block that fails its float form, to arrays.
    :meth:`stack` takes a (P, k) array of arguments, P >= 0, the
    coordinate values and then the parameter values, and returns at
    each row p the values (p, m), the first partials (p, n, m) and, at
    order 2, the second partials (p, n, n, m)."""

    def __init__(self, exprs, coords, params=(), order=1):
        n, m = len(coords), len(exprs)
        self._spec = (exprs, tuple(coords) + tuple(params), coords, order)
        self.fn = _expr.compile(*self._spec, stack=True)
        self.m = m
        self.n = n
        self.width = m * (1 + n + (n * (n + 1) // 2 if order == 2 else 0))
        self.pair = None
        if order == 2:  # compile's pairs i <= j, in row-major order
            i, j = np.triu_indices(n)
            self.pair = np.empty((n, n), dtype=int)
            self.pair[i, j] = self.pair[j, i] = np.arange(len(i))

    @cached_property
    def floats(self):
        """The float form of the same jet, one point per call."""
        return _expr.compile(*self._spec)

    def stack(self, args):
        """The jet at each row of ``args`` from one call of the stack
        form over its columns, each entry bit for bit the float form's
        at its row.  A block that fails anywhere runs again row by row
        on the float form, so that the error is raised by the first row
        that fails, as if each row had had its own call."""
        m, n = self.m, self.n
        out = np.empty((len(args), self.width))
        try:
            with np.errstate(all="ignore"):
                self.fn(*args.T, out.T)
        except _expr.ExprError as ex:
            for row in args.tolist():
                self.floats(*row)
            raise AssertionError("a block failed in the stack form only") \
                from ex
        first = out[:, m:m + n * m].reshape(len(out), n, m)
        if self.pair is None:
            return out[:, :m], first
        second = out[:, m + n * m:].reshape(len(out), n * (n + 1) // 2, m)
        return out[:, :m], first, second[:, self.pair, :]


@dataclass(frozen=True)
class PositionJet:
    """S and the block potentials V_r with their first and second
    partials at each point p of a stack of positions qs, along all N
    coordinates: S[p, r, a], dS[p, k, r, a] = d_k S[r, a],
    d2S[p, k, l, r, a], V[p, r], dV[p, k, r], d2V[p, k, l, r], views of
    one :class:`_GridJet` result.  ``twist`` is the :class:`Twist` of
    the stack, its S inverted by the stacks form of
    :func:`invert_with_condition`, made once."""

    qs: np.ndarray
    S: np.ndarray
    dS: np.ndarray
    d2S: np.ndarray
    V: np.ndarray
    dV: np.ndarray
    d2V: np.ndarray

    @cached_property
    def twist(self) -> "Twist":
        return Twist(*invert_with_condition(self.S, self.qs),
                     dS=self.dS, d2S=self.d2S)


class SystemJet:
    """A system's expressions compiled by :func:`expr.compile`, and the
    functions generated from them.  Each is made the first time it is
    asked for, never in :func:`build_system`.  Everything that evaluates
    the system at a point runs on them: the fields, the clocks, the
    integrals of :func:`hamiltonian` and its kin, and the system
    residuals of :mod:`geometry`.  Nothing walks the expression trees:
    :func:`build_system`'s probe checks and :mod:`catalog`'s chart
    changes run jets of their own as well.

    ``field`` is the Hamiltonian field of H = alpha^r H_r, one
    straight-line function ``field(t, y)`` of the time, unread, and the
    state (the N positions, the N momenta and up to n clocks tau_r, a
    list) returning the tuple (dH/dp, -dH/dq) and one rate
    d(tau_r)/dt = alpha^r per clock.  It calls nothing generated: the
    live ops of the jet of S and the H_r, the gated S^-1 and the chain
    rule are its own lines.
    ``reduced(r)`` is the field of block r's reduced Hamiltonian
    H_r - c_a S[r][a], ``reduced(r)(c, t, y)`` of the constants c and
    block r's phase point, made the same way.  ``stackel`` takes a (P, N)
    array of positions and returns the n-by-n values of S at each row,
    (P, n, n); ``energies`` takes a (P, 2N) array of phase points and
    returns the values of the H_r at each row, (P, n).  Each is one
    call of a values-only :class:`_GridJet`'s stack form, bit for bit
    the float form at every row, which raises the float form's error of
    the first row that fails.  A single point runs the float form
    instead, which costs a tenth of a one-row stack: ``twist(q)`` is
    the :class:`Twist` at the positions q; when no entry of S mentions
    a coordinate it is ``constant_twist``, taken once, and the field
    has it written in.
    ``positions`` takes a (P, N) array of positions and returns a
    :class:`PositionJet`, from one order-2 :class:`_GridJet` over the
    entries of S and the potentials.
    """

    def __init__(self, sys: TwistedSystem):
        # a copy, made before sys keeps this jet, so that the system and
        # its jet are no reference cycle: both go with the last reference
        # to the system, not at the next full collection
        self._sys = copy.copy(sys)
        self._reduced = {}
        self.integrals = {}  # geometry.first_integral_scalar's, by index

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
    def _S(self) -> _GridJet:  # the n*n entries of S, row by row
        sys = self._sys
        return _GridJet([e for row in sys.stackel.entries for e in row], (),
                        sys.structure.names)

    @cached_property
    def _H(self) -> _GridJet:  # the block energies
        return _GridJet(self._energies[0], (), self._energies[1])

    def stackel(self, qs) -> np.ndarray:
        """S at each row of the positions qs, (P, N): (P, n, n)."""
        n = self._sys.n
        return self._S.stack(np.asarray(qs, dtype=float))[0].reshape(-1, n, n)

    def energies(self, ys) -> np.ndarray:
        """The H_r at each row of the phase points ys, (P, 2N): (P, n)."""
        return self._H.stack(np.asarray(ys, dtype=float))[0]

    @cached_property
    def constant_twist(self) -> "Twist | None":
        """The twist of a separation matrix none of whose entries
        mentions a coordinate; None when S varies, or when S fails to
        evaluate or to pass the gate, so that each point fails as
        usual."""
        sys = self._sys
        if any(e.free_variables() for row in sys.stackel.entries
               for e in row):
            return None
        try:
            return Twist(*invert_with_condition(np.reshape(
                self._S.floats(*[0.0] * sys.dim), (sys.n, sys.n))))
        except (ModelError, _expr.ExprError):
            return None

    def twist(self, q) -> "Twist":
        """The :class:`Twist` at the positions q, a list of floats."""
        tw = self.constant_twist
        if tw is not None:
            return tw
        n = self._sys.n
        return Twist(*invert_with_condition(
            np.reshape(self._S.floats(*q), (n, n)), q))

    @cached_property
    def field(self):
        sys = self._sys
        n, N = sys.n, sys.dim
        energies, names = self._energies
        tw = self.constant_twist
        if tw is not None:
            # S is constant: its gated inverse is written in as literals
            alpha = [f"({a!r})" for a in tw.alpha.tolist()]
            return _field_function(energies, names, dict(enumerate(alpha)),
                                   clocks=alpha)
        entries = [e for row in sys.stackel.entries for e in row]
        free = [e.free_variables() for e in entries]
        nn, width = n * n, n * n + n

        def head(v):
            # the gated S^-1 with entry (a, b) bound to m{a}_{b}, and the
            # block energies to h0 .. h{n-1}
            return [*_inverse_lines(n, f"y[:{N}]", _tuple(map(v, range(nn)))),
                    _tuple(f"h{r}" for r in range(n)) + " = "
                    + _tuple(map(v, range(nn, width)))]

        def rate(k, v):
            # d_k alpha . H, where d_k alpha = -(alpha . d_k S) . S^-1 runs
            # over the entries of S that mention coordinate k
            base = width * (1 + k)
            u = {a: " + ".join(f"m0_{r} * {v(base + r * n + a)}"
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
        return _field_function(entries + energies, names,
                               dict(enumerate(alpha, nn)), head, rate,
                               clocks=alpha)

    def reduced(self, r: int):
        fn = self._reduced.get(r)
        if fn is None:
            n = self._sys.n
            coords, p, h = self._phase(r)
            weights = {0: None} | {1 + a: f"-c{a}" for a in range(n)}
            consts = _tuple(f"c{a}" for a in range(n)) + " = c"
            fn = self._reduced[r] = _field_function(
                [h, *self._sys.stackel.entries[r - 1]], coords + p,
                weights, lambda v: [consts], params="c, ")
        return fn

    @cached_property
    def _positions(self) -> _GridJet:
        sys = self._sys
        return _GridJet([e for row in sys.stackel.entries for e in row]
                        + [blk.potential for blk in sys.blocks],
                        sys.structure.names, order=2)

    def positions(self, qs) -> PositionJet:
        """S, V and their partials up to second order at each row of
        positions qs, a (P, N) array, from one :meth:`_GridJet.stack` of
        one order-2 jet over the n*n entries of S and the n potentials,
        along all N coordinates.  The partials along a coordinate an
        entry does not mention are exact 0.0."""
        n = self._sys.n
        nn = n * n
        qs = np.asarray(qs, dtype=float)
        jet = self._positions.stack(qs)
        S, dS, d2S = (a[..., :nn].reshape(a.shape[:-1] + (n, n))
                      for a in jet)
        V, dV, d2V = (a[..., nn:] for a in jet)
        return PositionJet(qs, S, dS, d2S, V, dV, d2V)


def _field_function(exprs, names, weights, head=None, rate=None, params="",
                    clocks=()):
    """Generate the Hamiltonian field of F = sum_i w_i exprs[i] as one
    straight-line function ``_field(<params>t, y)`` of the time t, which
    it does not read, and the state y, a list of floats over ``names``
    (m positions, then m momenta) and then up to ``len(clocks)`` clocks,
    that returns the tuple (dF/dp, -dF/dq) followed by one rate, the
    source text ``clocks[j]``, per clock.  Parameters come first, so
    that ``functools.partial`` binds them and the integrator calls the
    function itself.

    It unpacks the phase names from y and runs, as its own first lines,
    the first-order jet of ``exprs`` from :func:`expr.jet_lines`: the
    ops of the jet's outputs it reads, and every op that can raise, so
    a point where the jet fails raises the jet's own error before
    anything else runs.  Then come the lines of ``head(v)``, where
    ``v(i)`` is the source text of the jet's output i (a temporary, an
    argument or a literal).  ``weights`` maps the index i of each
    expression in F to the source text of w_i, a literal or a name
    bound in ``head``, or None for 1.  The partial along a phase name
    sums w_i times the partials of the expressions that mention the
    name, nothing else.  ``rate(k, v)``, if given, returns lines and one
    more term for the partial along position k (from weights that vary
    with q), or ([], None).  A varying S puts in ``head`` the floats
    lines of :func:`_inverse_lines`, the one text of S^-1 that
    :func:`invert_with_condition` also compiles, on floats and over
    stacks (at most ``MAX_BLOCKS`` blocks); they may raise
    :class:`SingularMatrixError`.  The function is one ``compile()``,
    held by the :class:`SystemJet` that asked for it."""
    args, outs, namespace, jet = _expr.jet_lines(exprs, names, names)
    width, m = len(exprs), len(names) // 2
    free = [e.free_variables() for e in exprs]
    reads = set()

    def v(i):
        reads.add(i)
        return outs[i]

    lines = head(v) if head is not None else []
    for k, name in enumerate(names):
        terms = [v(width * (1 + k) + i) if w is None
                 else f"{w} * {v(width * (1 + k) + i)}"
                 for i, w in weights.items() if name in free[i]]
        extra, term = rate(k, v) if rate is not None and k < m else ([], None)
        lines += extra
        if term is not None:
            terms.append(term)
        lines.append(f"g{k} = {' + '.join(terms) or '0.0'}")
    lines.append("return " + _tuple(
        [f"g{k}" for k in range(m, 2 * m)] + [f"-g{k}" for k in range(m)]
        + list(clocks)) + "[:len(y)]")
    lines = [f"{_tuple(args)} = y[:{2 * m}]", *jet(reads), *lines]
    code = f"def _field({params}t, y):\n" + "".join(f"    {line}\n"
                                                 for line in lines)
    namespace["SingularMatrixError"] = SingularMatrixError
    exec(compile(code, "<field>", "exec"), namespace)
    return namespace["_field"]


def _inverse_lines(n: int, point: str | None, entries: str) -> list[str]:
    """The one text of S^-1 and its gate: lines that bind m{a}_{b} to
    entry (a, b) of S^-1 and ``cond`` to |S|_1 |S^-1|_1, for the n-by-n
    S whose n*n entries, row by row, are the sequence of source text
    ``entries`` (``v`` for :func:`_inverse`, the jet's refs in a field),
    as the adjugate over the determinant, each minor expanded along its
    first row and written once.  In order, a zero determinant is
    singular, a non-finite determinant or S^-1 overflowed, and cond past
    ``COND_ERROR`` is numerically singular: on floats each check raises its
    :class:`SingularMatrixError` naming the point of source text
    ``point``.  With ``point`` None the arithmetic runs over arrays,
    ``max`` elementwise, and ``ok`` is bound to where all checks pass."""
    lines = [_tuple(f"s{r}_{a}" for r in range(n) for a in range(n))
             + f" = {entries}"]
    names = {}

    def minor(rows, cols):
        if len(rows) < 2:
            return f"s{rows[0]}_{cols[0]}" if rows else "1.0"
        if (rows, cols) not in names:
            text = "".join(f" {'+-'[i % 2]} s{rows[0]}_{c} * "
                           f"{minor(rows[1:], cols[:i] + cols[i + 1:])}"
                           for i, c in enumerate(cols))
            names[rows, cols] = f"k{len(names)}"
            lines.append(f"{names[rows, cols]} = {text[3:]}")
        return names[rows, cols]

    def fail(message, cond=""):
        return (f"raise SingularMatrixError('matrix {message}', {cond}"
                f"point={point})")

    every = tuple(range(n))
    rest = [every[:a] + every[a + 1:] for a in every]
    det = minor(every, every)
    inverse = [f"m{a}_{b} = {'-' if (a + b) % 2 else ''}"
               f"{minor(rest[b], rest[a])} / {det}"
               for a in every for b in every]
    del minor  # it calls itself: a reference cycle until deleted
    cols = [f"col{b}" for b in every]
    inverse += [f"{col} = " + " + ".join(f"abs(m{a}_{b})" for a in every)
                for b, col in enumerate(cols)]
    finite = [f"{x} <= {float(np.finfo(float).max)!r}"
              for x in [f"abs({det})", *cols]]
    norm_s = _tuple(" + ".join(f"abs(s{a}_{b})" for a in every)
                    for b in every)
    cond = f"cond = max({norm_s}) * max({_tuple(cols)})"
    if point is None:
        return lines + inverse + [cond, " & ".join(
            [f"ok = ({det} != 0.0)", *(f"({x})" for x in finite),
             f"~(cond > {COND_ERROR!r})"])]
    return lines + [f"if {det} == 0.0: {fail('is singular')}"] + inverse + [
        f"if not ({' and '.join(finite)}): {fail('inverse overflowed')}",
        cond,
        f"if cond > {COND_ERROR!r}: {fail('numerically singular', 'cond, ')}"]


def _tuple(items) -> str:
    """Source text of a tuple display of the given source texts."""
    return "(" + "".join(f"{x}, " for x in items) + ")"


def _as_expression(e) -> Expression:
    if isinstance(e, Expression):
        return e
    if isinstance(e, str):
        return _expr.parse(e)
    if isinstance(e, (int, float)):
        return _expr.Num(float(e))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# numeric matrix helpers, the gated inverse of S and the twist

COND_ERROR = 1e12
COND_WARN = 1e8
# the text of S^-1 grows about 2.2 times per block (n = 8: 1,332 lines,
# n = 10: 6,228), and is generated and compiled while a command runs
MAX_BLOCKS = 8


def inverse_derivative(M: np.ndarray, dS: np.ndarray) -> np.ndarray:
    """d(S^{-1}) from M = S^{-1} and dS, via -M (dS) M."""
    return -M @ dS @ M


@lru_cache(maxsize=None)
def _inverse(n: int, stack: bool = False):
    """:func:`_inverse_lines` compiled for n-by-n matrices, as
    ``inverse(v, point)``.  On floats v holds the n*n entries of S, a
    list; over a stack, their (n*n, P) columns, and it runs under
    ``np.errstate``.  It returns the n*n entries of S^-1 row by row and
    cond, and over a stack ``ok`` too."""
    entries = _tuple(f"m{a}_{b}" for a in range(n) for b in range(n))
    lines = _inverse_lines(n, None if stack else "point", "v")
    lines.append(f"return {entries}, cond" + ", ok" * stack)
    code = "def inverse(v, point):\n" + "".join(f"    {line}\n"
                                               for line in lines)
    namespace = {"SingularMatrixError": SingularMatrixError}
    if stack:  # max over a tuple of arrays, elementwise
        namespace["max"] = np.maximum.reduce
    exec(compile(code, f"<inverse {n}>", "exec"), namespace)
    return namespace["inverse"]


def invert_with_condition(S: np.ndarray, point=None):
    """(S^-1, cond) of one n-by-n matrix S, or of each matrix of a stack
    S (P, n, n) with one point per matrix (a sequence, or the rows of a
    (P, N) array), behind the gate of
    :func:`_inverse_lines`.  A failing matrix raises
    :class:`SingularMatrixError` naming its point; a failing stack runs
    its first failing matrix again on floats, which raises its own
    error.  Both forms run the same IEEE operations, so a matrix gets
    the same S^-1 and cond bit for bit alone and in a stack."""
    S = np.asarray(S, dtype=float)
    n = S.shape[-1]
    if S.ndim == 2:
        entries, cond = _inverse(n)(S.ravel().tolist(), point)
        return np.array(entries).reshape(n, n), cond
    with np.errstate(all="ignore"):
        entries, cond, ok = _inverse(n, True)(S.reshape(-1, n * n).T, point)
    if not ok.all():
        k = int(np.argmin(ok))
        at = point[k]
        _inverse(n)(S[k].ravel().tolist(),
                    at.tolist() if isinstance(at, np.ndarray) else at)
        raise AssertionError("a matrix failed the gate in a stack only")
    return np.stack(entries, axis=-1).reshape(S.shape), cond


def cond_warning(cond) -> str | None:
    """A note for the results when cond, or the largest of an array of
    conds, passes ``COND_WARN``."""
    if not np.max(cond) > COND_WARN:
        return None
    return (f"ill-conditioned separation matrix: 1-norm condition "
            f"estimate {np.max(cond):.3e} exceeds {COND_WARN:.0e}")


class Twist:
    """S^{-1} at a point, or at each point of a stack, from
    :func:`invert_with_condition`, with the partials of the twist that
    the residuals read (the generated field of :class:`SystemJet`
    inlines the same S^-1 and writes d_k alpha out on floats).  Row a-1
    of ``matrix`` holds the coefficients combining the block energies
    into K_a; row 0 is the twist vector ``alpha``.  ``cond`` is the
    gate's condition estimate (see :func:`cond_warning`).  A stack puts
    its point axis first and has one cond per point.  The partials need
    the partials of S, and each is computed on first use:

    * ``dmatrix[..., k, :, :]`` = d_k(S^{-1}) = -S^{-1} (d_k S) S^{-1},
      whose row 0 ``dmatrix[..., k, 0, :]`` is d_k alpha;
    * ``d2alpha[..., k, l, :]`` = d_k d_l alpha, over every pair of
      coordinates.
    """

    def __init__(self, matrix: np.ndarray, cond: float | None = None,
                 dS=None, d2S=None):
        self.matrix = matrix
        self.cond = cond
        self._dS = dS
        self._d2S = d2S

    @property
    def alpha(self) -> np.ndarray:
        return self.matrix[..., 0, :]

    @cached_property
    def dmatrix(self) -> np.ndarray:
        return inverse_derivative(self.matrix[..., None, :, :], self._dS)

    @cached_property
    def d2alpha(self) -> np.ndarray:
        # alpha (dS_k M dS_l + dS_l M dS_k - d2S_kl) M, with M = S^{-1}
        M, dS = self.matrix[..., None, :, :], self._dS
        # [..., k, l, :, :] = dS_k M dS_l
        pairs = (dS[..., :, None, :, :] @ M[..., None, :, :]
                 @ dS[..., None, :, :, :])
        rows = (self.alpha[..., None, None, None, :]
                @ (pairs + pairs.swapaxes(-4, -3) - self._d2S))
        return rows[..., 0, :] @ M


# ---------------------------------------------------------------------------
# construction

def build_system(structure: BlockStructure, stackel: StackelMatrix,
                 blocks: Sequence[NaturalBlock],
                 probes: Sequence[Sequence[float]] = ()) -> TwistedSystem:
    """Validate and assemble a twisted system.

    ``probes`` are positions, each ordered like ``structure.names``.
    Rejects dimensional mismatches, a probe of the wrong width, any
    row-r separation entry or block-r metric/potential mentioning a
    foreign coordinate, and, at any probe, an entry of S or of a block
    metric that fails to evaluate, a separation matrix that fails its
    gate and a degenerate block metric.
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

    probes = tuple(_checked_positions(structure.names, q) for q in probes)
    sys = TwistedSystem(structure, stackel, blocks, probes)

    # numeric validation at every probe point: S's gate, then block by
    # block ln |det g| (as geometry._inverse, which neither overflows nor
    # underflows), each after its own entries.  The probes are checked
    # over one stack; a stack that fails runs probe by probe, so that the
    # first check to fail raises its own error
    grids = [("separation matrix entry S", stackel.entries)] + [
        (f"block {r} metric entry g", blk.metric)
        for r, blk in enumerate(blocks, start=1)]
    entries = [e for _, grid in grids for row in grid for e in row]
    if probes and not _probes_pass(grids, entries, structure.names, probes):
        jet = _expr.compile(entries, structure.names)
        for q in probes:
            matrices = _probe_matrices(grids, jet, structure.names, q)
            invert_with_condition(next(matrices), point=q)
            for r, g in enumerate(matrices, start=1):
                if _degenerate(*np.linalg.slogdet(g)):
                    raise SingularMatrixError(
                        f"block {r} metric degenerate at probe point",
                        point=q)
    return sys


def _degenerate(sign, logdet):
    """Where a metric with this ``slogdet`` is degenerate."""
    return (sign == 0.0) | ~np.isfinite(logdet)


def _probes_pass(grids, entries, names, probes) -> bool:
    """Whether every probe passes the checks of :func:`build_system`,
    from one call of the values-only stack form of the ``entries`` of
    the ``(label, grid)`` matrices over the probes, one stacked
    :func:`invert_with_condition` of S and one stacked ``slogdet`` per
    block metric: each the float form's values at every probe."""
    qs = np.array(probes)
    values = np.empty((len(entries), len(qs)))
    matrices, k = [], 0
    try:
        with np.errstate(all="ignore"):
            _expr.compile(entries, names, stack=True)(*qs.T, values)
        for _, grid in grids:
            m = len(grid)
            matrices.append(values[k:k + m * m].T.reshape(-1, m, m))
            k += m * m
        invert_with_condition(matrices[0], qs)
    except (_expr.ExprError, ModelError):
        return False
    return not any(_degenerate(*np.linalg.slogdet(g)).any()
                   for g in matrices[1:])


def _probe_matrices(grids, jet, names, q):
    """The matrix of each ``(label, grid)`` at the positions q, in
    order, from one call of ``jet``, the values of every entry.  Where
    the jet fails, each entry runs again on a jet of its own, in order,
    so that the first entry that fails raises a :class:`ModelError`
    naming it, ``label[i][j]``, and q, after the checks of the matrices
    before it."""
    try:
        values = jet(*q)
    except _expr.ExprError as ex:
        for label, grid in grids:
            yield np.array([[_entry_value(e, names, q, f"{label}[{i}][{j}]")
                             for j, e in enumerate(row, 1)]
                            for i, row in enumerate(grid, 1)])
        raise AssertionError("a probe failed in the jet of every entry "
                             "only") from ex
    k = 0
    for _, grid in grids:
        m = len(grid)
        yield np.array(values[k:k + m * m]).reshape(m, m)
        k += m * m


def _entry_value(e, names, q, entry: str) -> float:
    try:
        return _expr.compile([e], names)(*q)[0]
    except _expr.ExprError as ex:
        raise ModelError(f"{entry} fails at q={tuple(q)}: {ex}") from None


# ---------------------------------------------------------------------------
# evaluation

def _checked_positions(names, point) -> tuple[float, ...]:
    q = point.q if isinstance(point, PhasePoint) else tuple(
        float(x) for x in point)
    if len(q) != len(names):
        raise DimensionMismatchError(
            f"{len(q)} coordinates for {len(names)} names")
    return q


def _position_values(sys: TwistedSystem, point) -> list[float]:
    return list(_checked_positions(sys.structure.names, point))


def _block_energies(sys: TwistedSystem, point: PhasePoint) -> np.ndarray:
    """The block energies H_r at the phase point."""
    return np.array(sys.jet._H.floats(*_position_values(sys, point),
                                      *point.p))


def twist_rows(sys: TwistedSystem, point) -> Twist:
    """S^{-1} at the point, with the condition estimate attached."""
    return sys.jet.twist(_position_values(sys, point))


def hamiltonian(sys: TwistedSystem, point: PhasePoint) -> float:
    """H = sum_r alpha^r(q) H_r."""
    tw = twist_rows(sys, point)
    return float(tw.alpha @ _block_energies(sys, point))


def separation_constants(sys: TwistedSystem, point: PhasePoint) -> np.ndarray:
    """c_a = K_a(point) = sum_r (S^{-1})[a][r] H_r; c_1 = H(point)."""
    tw = twist_rows(sys, point)
    return tw.matrix @ _block_energies(sys, point)


def _reduced_constants(sys: TwistedSystem, r: int,
                      c: Sequence[float]) -> np.ndarray:
    """The separation constants c of block r's reduced Hamiltonian as an
    array, with r and the number of constants checked."""
    if not 1 <= r <= sys.n:
        raise BlockIndexError(f"block index {r} out of range 1..{sys.n}")
    c = np.asarray(c, dtype=float)
    if c.shape != (sys.n,):
        raise DimensionMismatchError(
            f"expected {sys.n} separation constants, got shape {c.shape}")
    return c
