"""Ready-made systems with charts, integrals, and reference data.

Four constructors cover the worked material: a chain of three pendula
coupled through a polynomial separation matrix, stacks of harmonic
oscillators with constant twist, the four-body inverse-square system
carried into spherical blocks by an orthogonal rotation plus a
spherical chart, and two families of 3D metrics built around a
distinguished direction (leaf profile times a one-variable scale).
Entries bundle the validated system with its declared singular set,
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
from .geometry import (MetricField, PhaseScalar, TensorField2,
                       determinant_expression, identity_tensor,
                       rejection_sample)
from .model import (BlockStructure, NaturalBlock, PhasePoint, ProbePlan,
                    StackelMatrix, TwistedSystem, build_system)


class CatalogError(Exception):
    """Invalid catalog parameters or unknown entry name."""


# ---------------------------------------------------------------------------
# chart changes

@dataclass(frozen=True)
class TransformStage:
    """One chart change.  The closed forms run new -> old (the source
    coordinates as expressions in the target ones); `forward` is the
    exact inverse map on positions, old -> new."""

    old_names: tuple[str, ...]
    new_names: tuple[str, ...]
    old_exprs: tuple[Expression, ...]
    forward: Callable[[Sequence[float]], tuple[float, ...]]

    @functools.cached_property
    def _old_values(self):
        return _expr.compile(self.old_exprs, self.new_names)

    def old_positions(self, new_q) -> tuple[float, ...]:
        """The closed forms at a target-chart position (compiled on the
        first call)."""
        return self._old_values(*new_q)

    def jacobian(self, new_q) -> np.ndarray:
        """d old / d new at the given target-chart position."""
        env = dict(zip(self.new_names, new_q))
        return np.array([[_expr.derivative(e, env, v)
                          for v in self.new_names]
                         for e in self.old_exprs])


class CanonicalTransform:
    """Point transformation assembled from stages, with the cotangent
    lift p_new = J^T p_old, J = d old / d new.

    Positions map forward through the exact stage inverses; momenta
    through stage Jacobians evaluated by dual-number differentiation of
    the closed forms.  Mapping back solves the transposed Jacobian
    system instead of inverting anything symbolically.
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

    def to_old(self, point: PhasePoint) -> PhasePoint:
        q = tuple(float(v) for v in point.q)
        p = np.array(point.p, dtype=float)
        for stage in reversed(self.stages):
            p = np.linalg.solve(stage.jacobian(q).T, p)
            q = stage.old_positions(q)
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


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    system: TwistedSystem
    initial_point: PhasePoint
    singular_set: str = ""
    regular: Optional[Callable[[Sequence[float]], bool]] = None
    sample_box: Optional[tuple[tuple[float, float], ...]] = None
    cartesian: Optional[CartesianReference] = None
    closed_form: Optional[Callable[[PhasePoint, float], PhasePoint]] = None

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
    probes = ProbePlan(points=({"q1": 0.0, "q2": 0.0, "q3": 0.0},),
                       box={"q1": (-0.3, 0.3), "q2": (-0.3, 0.3),
                            "q3": (-0.3, 0.3)})
    system = build_system(structure, stackel, blocks, probes)
    # compiled on the first call, not while loading
    det = functools.cache(lambda: _expr.compile(
        [determinant_expression(stackel)], structure.names))

    def regular(q):
        return abs(det()(*q)[0]) > 0.5

    return CatalogEntry(
        name="pendula",
        system=system,
        initial_point=PhasePoint((0.2, -0.2, 0.0), (0.0, 0.0, 0.0)),
        singular_set="zero set of the separation determinant",
        regular=regular,
        sample_box=((-0.3, 0.3),) * 3,
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
    probes = ProbePlan(points=({nm: 0.0 for nm in names},))
    system = build_system(structure, stackel, blocks, probes)

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
        singular_set="none (constant invertible separation matrix)",
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
    ride along as the Cartesian reference.
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
    probes = ProbePlan(box={"r": (0.5, 2.0),
                            "phi1": (band, math.pi - band),
                            "phi2": (band, math.pi - band),
                            "phi3": (-math.pi + band, math.pi - band)})
    system = build_system(structure, stackel, blocks, probes)

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

    flat = MetricField.from_expressions(
        _X4, [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)])
    pair_v = _expr.parse(_PAIR_POTENTIAL)
    hamiltonian = PhaseScalar(
        _X4, tensor=identity_tensor(_X4, metric=flat,
                                    variance="contravariant"),
        scalar=pair_v)
    k_one = TensorField2(_X4, _quadratic_tensor_one(), "contravariant",
                         metric=flat, symmetric=True)
    k_two = TensorField2(_X4, _quadratic_tensor_two(), "contravariant",
                         metric=flat, symmetric=True)
    w_one = _expr.parse(f"({_PAIR_SUM} - {_SQUARE_SUM}/2)"
                        f"*({_PAIR_POTENTIAL})")
    w_two = _expr.parse(f"{_SQUARE_SUM}*({_PAIR_POTENTIAL})")
    reference = CartesianReference(
        coords=_X4,
        hamiltonian=hamiltonian,
        integrals=(PhaseScalar(_X4, tensor=k_one, scalar=w_one),
                   PhaseScalar(_X4, tensor=k_two, scalar=w_two)),
        transform=transform,
        regular=regular_cartesian,
        sample_box=((-1.5, 1.5),) * 4,
    )

    start = transform.to_new(PhasePoint((-1.2, -0.4, 0.4, 1.2),
                                        (0.2, -0.1, 0.3, -0.2)))
    return CatalogEntry(
        name="calogero4",
        system=system,
        initial_point=start,
        singular_set=("pair collisions and the chart degeneracies "
                      "(vanishing radius, polar angles at 0 or pi)"),
        regular=regular_spherical,
        sample_box=((0.5, 2.0), (band, math.pi - band),
                    (band, math.pi - band),
                    (-math.pi + band, math.pi - band)),
        cartesian=reference,
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


def _leaf_points(points):
    """Accept either leaf pairs (v, w) or full (u, v, w) triples."""
    return [(p[1], p[2]) if len(p) > 2 else (p[0], p[1]) for p in points]


def _as_profile(f) -> Expression:
    e = _model._as_expression(f)
    extra = _expr.free_variables(e) - {"v", "w"}
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
    return MetricField.from_expressions(
        ("u", "v", "w"),
        [[axis, zero, zero], [zero, leaf, zero], [zero, zero, leaf]])


def case_i_residuals(c0: float, c1: float, c2: float, c3: float, f,
                     points: Sequence) -> dict:
    """Max-norm report for the flatness system of the ignorable-axis
    family: the leaf-flatness equation, the three mixed scale/profile
    equations, and their reduced form after substituting the built-in
    scale."""
    fe = _as_profile(f)
    ell = ignorable_direction_scale(c0, c1, c2, c3)
    leaf = ("v", "w")
    jet = _expr.compile([ell, fe], leaf, leaf, order=2)
    out = {name: 0.0 for name in
           ("leaf_flatness", "mixed_vv", "mixed_ww", "mixed_vw",
            "reduced_vv", "reduced_ww", "reduced_vw")}
    for pt in points:
        v, w = float(pt[0]), float(pt[1])
        (l, _, lv, fv, lw, fw,
         lvv, fvv, _, fvw, lww, fww) = jet(v, w)
        checks = {
            "leaf_flatness": l * (lvv + lww) - lv * lv - lw * lw,
            "mixed_vv": l * fvv - lv * fv + lw * fw,
            "mixed_ww": l * fww + lv * fv - lw * fw,
            "mixed_vw": l * fvw - lv * fw - lw * fv,
            "reduced_vv": fvv + (c1 - c0 * v) * fv - (c3 + c0 * w) * fw,
            "reduced_ww": fww - (c1 - c0 * v) * fv + (c3 + c0 * w) * fw,
            "reduced_vw": fvw + (c3 + c0 * w) * fv + (c1 - c0 * v) * fw,
        }
        for name, val in checks.items():
            out[name] = max(out[name], abs(val))
    return out


def case_i_system(a: float, c0: float, c1: float, c2: float, c3: float,
                  f, g: float = 1.0,
                  probes: ProbePlan | None = None) -> TwistedSystem:
    """Two-block system on the ignorable-axis metric: the axis block
    and the leaf block, coupled by the separation matrix with free
    constants a and g."""
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
    return MetricField.from_expressions(
        ("u", "v", "w"),
        [[one, zero, zero], [zero, lf2, zero], [zero, zero, lf2]])


def case_ii_residuals(c1: float, c2: float, f, points: Sequence,
                      u_values: Sequence[float] = ()) -> dict:
    """Max-norm report for the warped family: the axis ODE for the
    scale (zero for the built-in reciprocal-linear scale) and the leaf
    profile equation tying the leaf curvature to c1."""
    fe = _as_profile(f)
    ell = warped_direction_scale(c1, c2)
    out = {"axis_ode": 0.0, "leaf_profile": 0.0}
    axis = _expr.compile([ell], ("u",), ("u",), order=2)
    for u in u_values:
        l, lu, luu = axis(float(u))
        out["axis_ode"] = max(out["axis_ode"], abs(luu * l - 2 * lu * lu))
    leaf = ("v", "w")
    profile = _expr.compile([fe], leaf, leaf, order=2)
    for pt in points:
        fval, fv, fw, fvv, _, fww = profile(float(pt[0]), float(pt[1]))
        res = fval * (fvv + fww) - fv * fv - fw * fw - c1 * c1
        out["leaf_profile"] = max(out["leaf_profile"], abs(res))
    return out


def case_ii_system(a: float, c1: float, c2: float, f, g: float = 1.0,
                   probes: ProbePlan | None = None) -> TwistedSystem:
    """Two-block system on the warped metric."""
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

    def residuals(points):
        return case_i_residuals(c0, c1, c2, c3, fe, _leaf_points(points))

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

    def residuals(points):
        us = sorted({float(p[0]) for p in points if len(p) > 2}) or [1.0]
        return case_ii_residuals(c1, c2, fe, _leaf_points(points),
                                 u_values=us)

    # one grid for every leaf, with u a bound parameter, so that all
    # leaf metrics share one compiled jet
    lf2 = ell * ell * fe * fe
    zero = _expr.Num(0.0)
    leaf_grid = ((lf2, zero), (zero, lf2))

    def leaf_metric(u: float) -> MetricField:
        return MetricField.from_expressions(("v", "w"), leaf_grid,
                                            params={"u": float(u)})

    def leaf_scalar_expected(u: float) -> float:
        lu = _expr.evaluate(ell, {"u": float(u)})
        return 2.0 * lu * lu * c1 * c1

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


def names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def load(name: str, **params):
    """Build a catalog item by its command-line name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(_BUILDERS)
        raise CatalogError(f"unknown catalog entry {name!r}; "
                           f"known names: {known}") from None
    return builder(**params)
