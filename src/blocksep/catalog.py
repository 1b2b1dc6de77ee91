"""Ready-made systems with charts, integrals, and reference data.

Four constructors cover the worked material: a chain of three pendula
coupled through a polynomial separation matrix, stacks of harmonic
oscillators with constant twist, the four-body inverse-square system
carried into spherical blocks by an orthogonal rotation plus a
spherical chart, and two families of 3D metrics built around a
distinguished direction (leaf profile times a one-variable scale).
Entries bundle the validated system with its regularity test,
sampling boxes, and a recommended starting point, so the command line
and the test suite can drive them without re-deriving anything.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import expr as _expr
from . import model as _model
from .expr import Expression
from .geometry import (MetricField, PhaseScalar, TensorField2, build_probes,
                       determinant_expression, identity_tensor,
                       rejection_sample)
from .model import (BlockStructure, NaturalBlock, PhasePoint,
                    StackelMatrix, TwistedSystem, build_system)


class CatalogError(Exception):
    """Invalid catalog parameters or unknown entry name."""


# ---------------------------------------------------------------------------
# chart changes

@dataclass(frozen=True)
class TransformStage:
    """One chart change.  The closed forms run new -> old (the source
    coordinates as expressions in the target ones); `forward` is the
    exact inverse map on positions, old -> new.

    One first-order jet of the closed forms, compiled on the first call,
    gives both :meth:`old_positions` (its values) and :meth:`jacobian`
    (its first partials).  The closed forms are rotations and products
    of sines and cosines, so no partial fails at a point where the
    values do not."""

    old_names: tuple[str, ...]
    new_names: tuple[str, ...]
    old_exprs: tuple[Expression, ...]
    forward: Callable[[Sequence[float]], tuple[float, ...]]

    @functools.cached_property
    def _jet(self):
        return _expr.compile(self.old_exprs, self.new_names, self.new_names)

    def old_positions(self, new_q) -> tuple[float, ...]:
        """The closed forms at a target-chart position."""
        return self._jet(*new_q)[:len(self.old_exprs)]

    def jacobian(self, new_q) -> np.ndarray:
        """d old / d new at the given target-chart position."""
        m, n = len(self.old_exprs), len(self.new_names)
        # the jet's partials run along each new name in turn
        return np.array(self._jet(*new_q)[m:]).reshape(n, m).T.copy()


class CanonicalTransform:
    """Point transformation assembled from stages, with the cotangent
    lift p_new = J^T p_old, J = d old / d new.

    Positions map forward through the exact stage inverses; momenta
    through the stage Jacobians, the exact first partials of the closed
    forms.
    """

    def __init__(self, stages: Sequence[TransformStage]):
        stages = tuple(stages)
        if not stages:
            raise CatalogError("a transform needs at least one stage")
        for left, right in zip(stages, stages[1:]):
            if left.new_names != right.old_names:
                raise CatalogError(
                    "stage charts do not chain: "
                    f"{left.new_names} then {right.old_names}")
        self.stages = stages

    @property
    def old_names(self) -> tuple[str, ...]:
        return self.stages[0].old_names

    @property
    def new_names(self) -> tuple[str, ...]:
        return self.stages[-1].new_names

    def new_positions(self, old_q) -> tuple[float, ...]:
        q = tuple(float(v) for v in old_q)
        for stage in self.stages:
            q = tuple(float(v) for v in stage.forward(q))
        return q

    def old_positions(self, new_q) -> tuple[float, ...]:
        q = tuple(float(v) for v in new_q)
        for stage in reversed(self.stages):
            q = stage.old_positions(q)
        return q

    def jacobian(self, new_q) -> np.ndarray:
        """Composite d old / d new at a target-chart position."""
        coords = [tuple(float(v) for v in new_q)]
        for stage in reversed(self.stages):
            coords.insert(0, stage.old_positions(coords[0]))
        J = None
        for stage, q in zip(self.stages, coords[1:]):
            Js = stage.jacobian(q)
            J = Js if J is None else J @ Js
        return J

    def to_new(self, point: PhasePoint) -> PhasePoint:
        q = tuple(float(v) for v in point.q)
        p = np.array(point.p, dtype=float)
        for stage in self.stages:
            q = tuple(float(v) for v in stage.forward(q))
            p = stage.jacobian(q).T @ p
        return PhasePoint(q, tuple(float(v) for v in p))


# ---------------------------------------------------------------------------
# entries

@dataclass(frozen=True)
class CartesianReference:
    """Flat-chart counterpart of an entry: the same dynamics as phase
    scalars plus the chart change into the entry's own coordinates."""

    coords: tuple[str, ...]
    hamiltonian: PhaseScalar
    integrals: tuple[PhaseScalar, ...]   # ordered to match K_2..K_n
    transform: CanonicalTransform
    regular: Callable[[Sequence[float]], bool]
    sample_box: tuple[tuple[float, float], ...]
    flat: MetricField                 # the chart's metric, and its jet

    @functools.cached_property
    def potential(self) -> _model._GridJet:  # H's potential, order 2
        return _model._GridJet((self.hamiltonian.scalar,), self.coords, (), 2)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    system: TwistedSystem
    initial_point: PhasePoint
    regular: Optional[Callable[[Sequence[float]], bool]] = None
    sample_box: Optional[tuple[tuple[float, float], ...]] = None
    # makes the Cartesian reference, once; only verify reads it
    reference: Optional[Callable[[], CartesianReference]] = None
    closed_form: Optional[Callable[[PhasePoint, float], PhasePoint]] = None

    @functools.cached_property
    def cartesian(self) -> Optional[CartesianReference]:
        """The flat-chart reference, made on first read, or None."""
        return None if self.reference is None else self.reference()

    def sample(self, count: int, seed: int):
        """Seeded regular positions from the declared box."""
        if self.sample_box is None:
            raise CatalogError(f"entry {self.name} declares no sample box")
        return rejection_sample(self.sample_box, count, seed,
                                predicate=self.regular)


def pendula() -> CatalogEntry:
    """Three pendula (third one free) coupled by polynomial twist."""
    structure = BlockStructure((1, 1, 1), (("q1",), ("q2",), ("q3",)))
    stackel = StackelMatrix([
        ["2", "1+q1", "2*q1^2+2"],
        ["3", "q2", "q2^3+2"],
        ["4", "q3", "q3^2+1"],
    ])
    blocks = [
        NaturalBlock([["1"]], "-cos(q1)/2"),
        NaturalBlock([["1"]], "-cos(q2)/2"),
        NaturalBlock([["1"]], "0"),
    ]
    box = ((-0.3, 0.3),) * 3
    system = build_system(structure, stackel, blocks,
                          [(0.0, 0.0, 0.0)] + build_probes(box))
    # compiled on the first call, not while loading
    det = functools.cache(lambda: _expr.compile(
        [determinant_expression(stackel)], structure.names))

    def regular(q):
        return abs(det()(*q)[0]) > 0.5

    return CatalogEntry(
        name="pendula",
        system=system,
        initial_point=PhasePoint((0.2, -0.2, 0.0), (0.0, 0.0, 0.0)),
        regular=regular,
        sample_box=box,
    )


def oscillators(omega: Sequence[float] = (1.0, 2.0, 4.0),
                alpha: Sequence[float] = (2.0, 1.0, 0.5)) -> CatalogEntry:
    """Harmonic oscillators under a constant twist.

    The twist multiplies each oscillator's clock rate, so mode i runs
    at the effective frequency alpha_i * omega_i; choosing
    alpha_i = k / omega_i synchronizes the stack at frequency k (the
    default does this with k = 2).  The exact solution is attached as
    `closed_form`.
    """
    omega = tuple(float(w) for w in omega)
    alpha = tuple(float(a) for a in alpha)
    n = len(omega)
    if n == 0 or len(alpha) != n:
        raise CatalogError("omega and alpha must be equal-length, nonempty")
    if min(alpha) <= 0.0:
        raise CatalogError("twist constants must be positive")
    names = tuple(f"q{i+1}" for i in range(n))
    structure = BlockStructure((1,) * n, tuple((nm,) for nm in names))
    grid = [[0.0] * n for _ in range(n)]
    # constant separation matrix whose inverse has first row alpha
    grid[0][0] = 1.0 / alpha[0]
    for j in range(1, n):
        grid[0][j] = -alpha[j] / alpha[0]
        grid[j][j] = 1.0
    stackel = StackelMatrix(grid)
    blocks = [NaturalBlock([["1"]], f"{0.5 * w * w!r}*{nm}^2")
              for w, nm in zip(omega, names)]
    system = build_system(structure, stackel, blocks, [(0.0,) * n])

    def closed_form(start: PhasePoint, t: float) -> PhasePoint:
        qs, ps = [], []
        for i in range(n):
            freq = alpha[i] * omega[i]
            q0, p0 = start.q[i], start.p[i]
            if freq == 0.0:
                qs.append(q0 + alpha[i] * p0 * t)
                ps.append(p0)
                continue
            c, s = math.cos(freq * t), math.sin(freq * t)
            qs.append(q0 * c + alpha[i] * p0 / freq * s)
            ps.append(p0 * c - q0 * freq / alpha[i] * s)
        return PhasePoint(tuple(qs), tuple(ps))

    q0 = tuple(0.5 + 0.25 * i for i in range(n))
    p0 = tuple(0.2 - 0.1 * i for i in range(n))
    return CatalogEntry(
        name="oscillators",
        system=system,
        initial_point=PhasePoint(q0, p0),
        regular=None,
        sample_box=((-1.0, 1.0),) * n,
        closed_form=closed_form,
    )


# --- four-body inverse-square chain ---------------------------------------

_X4 = ("x1", "x2", "x3", "x4")
_SPH = ("r", "phi1", "phi2", "phi3")

# orthonormal rows: three mutual-difference directions and the center
# of mass, scaled to unit length
_ROT = np.array([
    [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0, 0.0],
    [1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6), 0.0],
    [1 / math.sqrt(12), 1 / math.sqrt(12), 1 / math.sqrt(12),
     -3 / math.sqrt(12)],
    [0.5, 0.5, 0.5, 0.5],
])

_PAIR_POTENTIAL = "+".join(f"(x{i+1}-x{j+1})^-2"
                           for i in range(4) for j in range(i + 1, 4))
_SQUARE_SUM = "(x1^2+x2^2+x3^2+x4^2)"
_PAIR_SUM = "(x1*x2+x1*x3+x1*x4+x2*x3+x2*x4+x3*x4)"
_COORD_SUM = "(x1+x2+x3+x4)"


def _rotation_stage() -> TransformStage:
    znames = ("z1", "z2", "z3", "z4")
    exprs = []
    for i in range(4):
        acc = None
        for k in range(4):
            term = float(_ROT[k, i]) * _expr.Var(znames[k])
            acc = term if acc is None else acc + term
        exprs.append(acc)

    def forward(x):
        return tuple(float(v) for v in _ROT @ np.asarray(x, dtype=float))

    return TransformStage(_X4, znames, tuple(exprs), forward)


def _spherical_stage() -> TransformStage:
    znames = ("z1", "z2", "z3", "z4")
    exprs = (
        _expr.parse("r*sin(phi1)*sin(phi2)*sin(phi3)"),
        _expr.parse("r*sin(phi1)*sin(phi2)*cos(phi3)"),
        _expr.parse("r*sin(phi1)*cos(phi2)"),
        _expr.parse("r*cos(phi1)"),
    )

    def forward(z):
        z1, z2, z3, z4 = (float(v) for v in z)
        rad = math.sqrt(z1 * z1 + z2 * z2 + z3 * z3 + z4 * z4)
        phi1 = math.atan2(math.sqrt(z1 * z1 + z2 * z2 + z3 * z3), z4)
        phi2 = math.atan2(math.sqrt(z1 * z1 + z2 * z2), z3)
        phi3 = math.atan2(z1, z2)
        return (rad, phi1, phi2, phi3)

    return TransformStage(znames, _SPH, exprs, forward)


def _angular_leaf_potential():
    """The pair potential restricted to the unit sphere of the rotated
    differences (radius and first angle fixed at 1 and a right angle).
    Returns the potential and the list of pair separations, both as
    expressions in the last two angles."""
    direction = [_expr.parse("sin(phi2)*sin(phi3)"),
                 _expr.parse("sin(phi2)*cos(phi3)"),
                 _expr.parse("cos(phi2)")]
    separations = []
    for i in range(4):
        for j in range(i + 1, 4):
            acc = None
            for k in range(3):
                c = float(_ROT[k, i] - _ROT[k, j])
                if c == 0.0:
                    continue
                term = c * direction[k]
                acc = term if acc is None else acc + term
            separations.append(acc)
    total = None
    for sep in separations:
        term = sep ** -2
        total = term if total is None else total + term
    return total, tuple(separations)


def _quadratic_tensor_one() -> list:
    """First conserved tensor on flat 4-space: pair-product diagonal,
    shifted products off it.  Shared entry objects keep the grid
    structurally symmetric."""
    grid = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            diag = f"({_PAIR_SUM}) - ({_SQUARE_SUM})/2" if i == j else "0"
            e = _expr.parse(
                f"({diag}) + x{i+1}*x{j+1} + ({_SQUARE_SUM})/2 "
                f"- (({_COORD_SUM})*(x{i+1}+x{j+1}))/2")
            grid[i][j] = e
            grid[j][i] = e
    return grid


def _quadratic_tensor_two() -> list:
    """Second conserved tensor: squared radius times identity minus the
    rank-one position square."""
    grid = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            if i == j:
                e = _expr.parse(f"{_SQUARE_SUM} - x{i+1}*x{j+1}")
            else:
                e = _expr.parse(f"-x{i+1}*x{j+1}")
            grid[i][j] = e
            grid[j][i] = e
    return grid


def calogero4() -> CatalogEntry:
    """Four unit masses on a line with inverse-square pair repulsion,
    in the spherical chart where the dynamics splits into radial,
    polar, and two-angle blocks.

    The chart is the orthogonal rotation onto difference directions
    followed by 4D spherical coordinates around the center-of-mass
    axis.  The two-angle block carries the whole interaction through a
    single function of those angles; the radial and polar blocks are
    free.  The flat-chart Hamiltonian and its two quadratic integrals
    ride along as the Cartesian reference, made on first read.
    """
    leaf_v, separations = _angular_leaf_potential()
    structure = BlockStructure((1, 1, 2),
                               (("r",), ("phi1",), ("phi2", "phi3")))
    stackel = StackelMatrix([
        ["1", "0", "-1/r^2"],
        ["0", "1/(2*sin(phi1)^2)", "(2*sin(phi1)^2-1)/(2*sin(phi1)^2)"],
        ["0", "-0.5", "0.5"],
    ])
    blocks = [
        NaturalBlock([["1"]], "0"),
        NaturalBlock([["1"]], "0"),
        NaturalBlock([["1", "0"], ["0", "1/sin(phi2)^2"]], leaf_v),
    ]
    band = 0.3
    box = ((0.5, 2.0), (band, math.pi - band), (band, math.pi - band),
           (-math.pi + band, math.pi - band))
    system = build_system(structure, stackel, blocks, build_probes(box))

    transform = CanonicalTransform([_rotation_stage(), _spherical_stage()])
    # compiled on the first call, not while loading
    separation_values = functools.cache(
        lambda: _expr.compile(separations, ("phi2", "phi3")))

    def pair_gap(x):
        return min(abs(x[i] - x[j])
                   for i in range(4) for j in range(i + 1, 4))

    def regular_cartesian(x):
        if pair_gap(x) <= 0.05:
            return False
        rad, phi1, phi2, _ = transform.new_positions(x)
        return (rad > 0.1 and 0.1 < phi1 < math.pi - 0.1
                and 0.1 < phi2 < math.pi - 0.1)

    def regular_spherical(q):
        rad, phi1, phi2, phi3 = q
        if not (rad > 0.1 and 0.1 < phi1 < math.pi - 0.1
                and 0.1 < phi2 < math.pi - 0.1):
            return False
        if min(abs(s) for s in separation_values()(phi2, phi3)) <= 0.05:
            return False
        return pair_gap(transform.old_positions(q)) > 0.05

    def reference():
        hamiltonian = PhaseScalar(
            _X4, tensor=identity_tensor(_X4, variance="contravariant"),
            scalar=_expr.parse(_PAIR_POTENTIAL))
        k_one = TensorField2(_X4, _quadratic_tensor_one(), "contravariant",
                             symmetric=True)
        k_two = TensorField2(_X4, _quadratic_tensor_two(), "contravariant",
                             symmetric=True)
        w_one = _expr.parse(f"({_PAIR_SUM} - {_SQUARE_SUM}/2)"
                            f"*({_PAIR_POTENTIAL})")
        w_two = _expr.parse(f"{_SQUARE_SUM}*({_PAIR_POTENTIAL})")
        return CartesianReference(
            coords=_X4,
            hamiltonian=hamiltonian,
            integrals=(PhaseScalar(_X4, tensor=k_one, scalar=w_one),
                       PhaseScalar(_X4, tensor=k_two, scalar=w_two)),
            transform=transform,
            regular=regular_cartesian,
            sample_box=((-1.5, 1.5),) * 4,
            flat=MetricField(_X4, identity_tensor(_X4).grid),
        )

    start = transform.to_new(PhasePoint((-1.2, -0.4, 0.4, 1.2),
                                        (0.2, -0.1, 0.3, -0.2)))
    return CatalogEntry(
        name="calogero4",
        system=system,
        initial_point=start,
        regular=regular_spherical,
        sample_box=box,
        reference=reference,
    )


# ---------------------------------------------------------------------------
# 3D metric families around a distinguished direction

@dataclass(frozen=True)
class MetricFamily:
    """A 3D metric split as a one-dimensional direction against a
    two-dimensional leaf, with the scale and profile functions that
    define it and evaluators for the flatness conditions."""

    name: str
    metric: MetricField
    parameters: tuple[tuple[str, float], ...]
    profile: Expression
    scale: Expression
    sample_box: tuple[tuple[float, float], ...]
    residuals: Callable[[Sequence], Mapping[str, float]]
    leaf_metric: Optional[Callable[[float], MetricField]] = None
    leaf_scalar_expected: Optional[Callable[[float], float]] = None

    def sample(self, count: int, seed: int):
        return rejection_sample(self.sample_box, count, seed)


def _leaf_points(points) -> np.ndarray:
    """(v, w) of leaf pairs (v, w) or full (u, v, w) triples, (P, 2)."""
    pts = np.array(points, dtype=float) if len(points) else np.empty((0, 2))
    return pts[:, int(pts.shape[1] > 2):][:, :2]


def _columns(jet: _model._GridJet, args) -> list:
    """An order-2 jet at each row of args, with the point axis last: the
    values [k], the first partials [i][k] and the second [i][j][k]."""
    return [np.moveaxis(part, 0, -1)
            for part in jet.stack(np.asarray(args, dtype=float))]


def _as_profile(f) -> Expression:
    e = _model._as_expression(f)
    extra = e.free_variables() - {"v", "w"}
    if extra:
        raise CatalogError(
            "leaf profile may only depend on v and w, found "
            + ", ".join(sorted(extra)))
    return e


def ignorable_direction_scale(c0: float, c1: float, c2: float,
                              c3: float) -> Expression:
    """Leaf scale with flat leaves: log-quadratic in the leaf
    coordinates.  Every such scale makes the leaf equations hold
    identically; the profile then has to satisfy the reduced linear
    system (see `case_i_residuals`)."""
    v, w = _expr.Var("v"), _expr.Var("w")
    arg = (c0 / 2) * (v * v - w * w) - c1 * v - c3 * w
    return float(c2) * _expr.exp(arg)


def e3_case_i(c0: float, c1: float, c2: float, c3: float, f) -> MetricField:
    """Metric with an ignorable direction: the distinguished axis is
    scaled by the leaf profile only, the leaf by the scale only."""
    if c2 == 0.0:
        raise CatalogError("the scale multiplier c2 must be nonzero")
    fe = _as_profile(f)
    ell = ignorable_direction_scale(c0, c1, c2, c3)
    one = _expr.Num(1.0)
    zero = _expr.Num(0.0)
    axis = one / (fe * fe)
    leaf = one / (ell * ell)
    return MetricField(
        ("u", "v", "w"),
        [[axis, zero, zero], [zero, leaf, zero], [zero, zero, leaf]])


def _leaf_jet(*exprs) -> _model._GridJet:
    """Expressions over the leaf (v, w) with their first and second
    derivatives, as one jet."""
    return _model._GridJet(list(exprs), ("v", "w"), (), 2)


def case_i_residuals(c0: float, c1: float, c2: float, c3: float, f,
                     points: Sequence, jet=None) -> dict:
    """Max-norm report for the flatness system of the ignorable-axis
    family: the leaf-flatness equation, the three mixed scale/profile
    equations, and their reduced form after substituting the built-in
    scale, at leaf pairs (v, w) or full (u, v, w) points, one stack.
    ``jet`` is the scale's and profile's :func:`_leaf_jet`, if made
    already."""
    jet = jet or _leaf_jet(ignorable_direction_scale(c0, c1, c2, c3),
                           _as_profile(f))
    vw = _leaf_points(points)
    (l, _), ((lv, fv), (lw, fw)), (((lvv, fvv), (_, fvw)),
                                   (_, (lww, fww))) = _columns(jet, vw)
    names = ("leaf_flatness", "mixed_vv", "mixed_ww", "mixed_vw",
             "reduced_vv", "reduced_ww", "reduced_vw")
    with np.errstate(all="ignore"):
        a, b = c1 - c0 * vw[:, 0], c3 + c0 * vw[:, 1]
        rows = np.stack([
            l * (lvv + lww) - lv * lv - lw * lw,
            l * fvv - lv * fv + lw * fw,
            l * fww + lv * fv - lw * fw,
            l * fvw - lv * fw - lw * fv,
            fvv + a * fv - b * fw,
            fww - a * fv + b * fw,
            fvw + b * fv + a * fw,
        ], axis=1)
    # keeps a nan, unlike Python's max
    worst = np.max(np.abs(rows), axis=0, initial=0.0)
    return dict(zip(names, worst.tolist()))


def case_i_system(a: float, c0: float, c1: float, c2: float, c3: float,
                  f, g: float = 1.0, probes=()) -> TwistedSystem:
    """Two-block system on the ignorable-axis metric: the axis block
    and the leaf block, coupled by the separation matrix with free
    constants a and g; checked at the (u, v, w) rows of ``probes``."""
    fe = _as_profile(f)
    ell = ignorable_direction_scale(c0, c1, c2, c3)
    gl2 = float(g) * ell * ell
    one = _expr.Num(1.0)
    row2_first = (one - float(a) / (fe * fe)) * gl2
    row2_second = -(gl2 / (fe * fe))
    stackel = StackelMatrix([[float(a), 1.0], [row2_first, row2_second]])
    structure = BlockStructure((1, 2), (("u",), ("v", "w")))
    blocks = [NaturalBlock([["1"]], "0"),
              NaturalBlock([[repr(float(g)), "0"], ["0", repr(float(g))]],
                           "0")]
    return build_system(structure, stackel, blocks, probes)


def warped_direction_scale(c1: float, c2: float) -> Expression:
    """Axis-dependent leaf scale: reciprocal of a linear function."""
    u = _expr.Var("u")
    return _expr.Num(-1.0) / (c1 * u + c2)


def _scale_jet(c1: float, c2: float) -> _model._GridJet:
    """The warped scale with its first and second derivative, as one
    jet over u."""
    return _model._GridJet([warped_direction_scale(c1, c2)], ("u",), (), 2)


def e3_case_ii(c1: float, c2: float, f) -> MetricField:
    """Warped metric: unit distinguished axis, leaf carried by the
    product of an axis scale and a leaf profile."""
    if c1 == 0.0 and c2 == 0.0:
        raise CatalogError("the scale constants c1, c2 cannot both vanish")
    fe = _as_profile(f)
    ell = warped_direction_scale(c1, c2)
    lf2 = ell * ell * fe * fe
    one = _expr.Num(1.0)
    zero = _expr.Num(0.0)
    return MetricField(
        ("u", "v", "w"),
        [[one, zero, zero], [zero, lf2, zero], [zero, zero, lf2]])


def case_ii_residuals(c1: float, c2: float, f, points: Sequence,
                      u_values: Sequence[float] = (), axis=None,
                      leaf=None) -> dict:
    """Max-norm report for the warped family: the axis ODE for the
    scale (zero for the built-in reciprocal-linear scale) at u_values
    and the leaf profile equation tying the leaf curvature to c1 at
    ``points`` (as :func:`case_i_residuals` takes them), each over one
    stack.  ``axis`` is :func:`_scale_jet`'s jet and ``leaf`` the
    profile's :func:`_leaf_jet`, if made already."""
    axis = axis or _scale_jet(c1, c2)
    leaf = leaf or _leaf_jet(_as_profile(f))
    (l,), ((lu,),), (((luu,),),) = _columns(axis,
                                            np.reshape(u_values, (-1, 1)))
    (fval,), ((fv,), (fw,)), (((fvv,), _), (_, (fww,))) = _columns(
        leaf, _leaf_points(points))
    with np.errstate(all="ignore"):
        ode = luu * l - 2 * lu * lu
        residuals = fval * (fvv + fww) - fv * fv - fw * fw - c1 * c1
    return {"axis_ode": float(np.max(np.abs(ode), initial=0.0)),
            "leaf_profile": float(np.max(np.abs(residuals), initial=0.0))}


def case_ii_system(a: float, c1: float, c2: float, f, g: float = 1.0,
                   probes=()) -> TwistedSystem:
    """Two-block system on the warped metric; checked at the (u, v, w)
    rows of ``probes``."""
    fe = _as_profile(f)
    ell = warped_direction_scale(c1, c2)
    one = _expr.Num(1.0)
    l2 = ell * ell
    stackel = StackelMatrix([
        [one - float(a) * l2, -l2],
        [float(a) * float(g) / (fe * fe), float(g) / (fe * fe)],
    ])
    structure = BlockStructure((1, 2), (("u",), ("v", "w")))
    blocks = [NaturalBlock([["1"]], "0"),
              NaturalBlock([[repr(float(g)), "0"], ["0", repr(float(g))]],
                           "0")]
    return build_system(structure, stackel, blocks, probes)


def e3_case_i_family(c0: float = 0.0, c1: float = 1.0, c2: float = 1.0,
                     c3: float = 0.0,
                     f="2*exp(-v)*cos(w)") -> MetricFamily:
    """Flat preset of the ignorable-axis family.  The default profile
    solves the reduced system for the default constants, so the metric
    is an exotic chart of flat 3-space."""
    fe = _as_profile(f)
    metric = e3_case_i(c0, c1, c2, c3, fe)
    ell = ignorable_direction_scale(c0, c1, c2, c3)
    # compiled on the first call, not while loading
    jet = functools.cache(lambda: _leaf_jet(ell, fe))

    def residuals(points):
        return case_i_residuals(c0, c1, c2, c3, fe, points, jet=jet())

    return MetricFamily(
        name="e3-case-i",
        metric=metric,
        parameters=(("c0", c0), ("c1", c1), ("c2", c2), ("c3", c3)),
        profile=fe,
        scale=ell,
        sample_box=((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)),
        residuals=residuals,
    )


def e3_case_ii_family(c1: float = -1.0, c2: float = 0.0,
                      f="(1+v^2+w^2)/2") -> MetricFamily:
    """Spherical-leaf preset of the warped family.  The default profile
    is the round-sphere conformal factor, so the leaves are spheres of
    scalar curvature 2 l(u)^2 c1^2 and the 3D metric is flat."""
    fe = _as_profile(f)
    metric = e3_case_ii(c1, c2, fe)
    ell = warped_direction_scale(c1, c2)

    # the scale's jet serves the residuals and the expected leaf
    # curvature; compiled on the first call, not while loading, as is
    # the profile's
    axis = functools.cache(lambda: _scale_jet(c1, c2))
    profile = functools.cache(lambda: _leaf_jet(fe))

    def residuals(points):
        us = sorted({float(p[0]) for p in points if len(p) > 2}) or [1.0]
        return case_ii_residuals(c1, c2, fe, points, u_values=us,
                                 axis=axis(), leaf=profile())

    # one grid for every leaf, with u a bound parameter, so that all
    # leaf metrics share this one's jet, made on first use
    lf2 = ell * ell * fe * fe
    zero = _expr.Num(0.0)
    leaf = MetricField(("v", "w"), ((lf2, zero), (zero, lf2)),
                       params={"u": 1.0})

    def leaf_metric(u) -> MetricField:
        """The leaf metric at u, or at one u per point of a stack."""
        return leaf.with_params(u=np.asarray(u, dtype=float))

    def leaf_scalar_expected(u):
        """2 l(u)^2 c1^2 at a float u, or at each entry of an array."""
        (lu,), _, _ = _columns(axis(), np.reshape(u, (-1, 1)))
        with np.errstate(all="ignore"):
            want = 2.0 * lu * lu * c1 * c1
        return want.reshape(np.shape(u)) if np.ndim(u) else float(want[0])

    box_u = (0.5, 2.0) if c2 == 0.0 else (abs(c2) + 0.5, abs(c2) + 2.0)
    return MetricFamily(
        name="e3-case-ii",
        metric=metric,
        parameters=(("c1", c1), ("c2", c2)),
        profile=fe,
        scale=ell,
        sample_box=(box_u, (-1.0, 1.0), (-1.0, 1.0)),
        residuals=residuals,
        leaf_metric=leaf_metric,
        leaf_scalar_expected=leaf_scalar_expected,
    )


# ---------------------------------------------------------------------------
# registry

_BUILDERS = {
    "pendula": pendula,
    "oscillators": oscillators,
    "calogero4": calogero4,
    "e3-case-i": e3_case_i_family,
    "e3-case-ii": e3_case_ii_family,
}
_ENTRIES: dict = {}  # the items load built, kept as the jets are


def names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def _param_key(v):
    """A parameter as a key: its type and ``repr``, or for an array,
    whose ``repr`` elides entries past 1,000, its dtype, shape and
    bytes."""
    if isinstance(v, np.ndarray):
        return type(v), v.dtype.str, v.shape, v.tobytes()
    return type(v), repr(v)


def load(name: str, **params):
    """The catalog item of a name and parameters, built once per process
    (parameters keyed by name and :func:`_param_key`): shared, so
    read-only."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(_BUILDERS)
        raise CatalogError(f"unknown catalog entry {name!r}; "
                           f"known names: {known}") from None
    key = (name, *((k, _param_key(v)) for k, v in sorted(params.items())))
    return _expr._cached(key, lambda: builder(**params), _ENTRIES)
