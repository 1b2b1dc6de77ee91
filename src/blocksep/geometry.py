"""Tensor calculus for twisted block metrics.

Verification toolbox: Poisson brackets of momentum-quadratic phase
functions, Christoffel symbols and Riemann curvature, Killing-equation
residuals, torsion (Nijenhuis) and Haantjes-condition residuals, the
three normality contractions, and the residuals of the block
eigenvalue equations that characterize separable twists.

Index conventions, used throughout and nowhere redefined:
  * antisymmetrization over a bracketed index pair carries weight 1/2,
    over a triple weight 1/6; symmetrization over a triple 1/6 as well
    (so a cyclic sum over an already antisymmetric pair keeps 1/3);
  * array layouts are christoffel[i,j,k] = Gamma^i_jk,
    riemann[i,j,k,l] = R^i_jkl, torsion[i,j,k] = N^i_jk;
  * a TensorField2 grid is entries[i][j] = T^ij, T_ij or T^i_j
    according to its variance tag.

Residual operations return max-norms, never booleans; thresholds are
the caller's business.

Every expression-backed object (a :class:`MetricField`, a
:class:`TensorField2`, a :class:`PhaseScalar`) compiles one
:class:`model._GridJet` the first time it is evaluated and keeps it,
and runs its stack form once per stack of points, over arrays.
The metric and tensor functions (:func:`riemann`, :func:`ricci_scalar`,
:func:`christoffel`, :func:`killing_residual`, :func:`nijenhuis`,
:func:`tsn_residuals`, :func:`haantjes`, :func:`characteristic_condition`
and the field methods), the brackets (of phase points) and the system
residuals take one point or a stack of points, a (P, n) array-like, and
run one chain of array operations over a leading point axis p; one
point is a stack of one, whose result comes back without that axis (a
float for a scalar).  Each point's values are its own alone, bit for
bit, and an error comes from the first point that raises it.  The
system residuals read the potentials and the twist (S^-1 and its
derivatives, :class:`model.Twist`) of one
:meth:`model.SystemJet.positions` per stack, or take it.  Nothing here
walks expression trees.  Gamma is formed in :func:`_connection` only, and a
metric inverted in :func:`_inverse` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as _expr
from . import model as _model
from .expr import Expression
from .model import PhasePoint, StackelMatrix, TwistedSystem


class GeometryError(Exception):
    """Base class for tensor-calculus failures."""


class DegenerateMetricError(GeometryError):
    """The metric is singular (or numerically unusable) at the point."""


class VanishingTwistError(GeometryError):
    """A twist function is zero where a formula divides by it."""


class VarianceError(GeometryError):
    """Operation applied to a tensor with the wrong variance tag."""


_VARIANCES = ("contravariant", "covariant", "mixed")


def _point_of(coords, point) -> tuple:
    """The coordinate values of a point specification, ordered like
    ``coords``, as the jets take them: a PhasePoint (its q part is
    used) or a plain sequence ordered like ``coords``."""
    if isinstance(point, PhasePoint):
        point = point.q
    vals = tuple(float(x) for x in point)
    if len(vals) != len(coords):
        raise GeometryError(
            f"point has {len(vals)} coordinates, expected {len(coords)}")
    return vals


def _stack(coords, points):
    """The coordinate values of one point, or of a stack of points, as
    a (P, n) array ordered like ``coords``, and whether one point was
    given.  One point is anything :func:`_point_of` takes; a stack is a
    sequence of coordinate sequences, or a 2-D array."""
    if isinstance(points, PhasePoint) or np.ndim(points) == 1:
        return np.array([_point_of(coords, points)]), True
    qs = np.asarray(points, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != len(coords):
        raise GeometryError(f"a stack of points must be (points, "
                            f"{len(coords)}), not {qs.shape}")
    return qs, False


def _result(values: np.ndarray, one: bool):
    """Per-point results as stacked, or the one point's result alone,
    a Python scalar where it is a scalar."""
    if not one:
        return values
    return values[0] if values.ndim > 1 else values[0].item()


def _shared_stack(g: MetricField, T: TensorField2, points):
    """The points of a tensor read against a metric on the same
    coordinates, in the same order, as :func:`_stack` gives them."""
    if T.coords != g.coords:
        raise GeometryError(f"tensor coordinates {T.coords} are not the "
                            f"metric's {g.coords}")
    return _stack(g.coords, points)


def _grid_of(entries, n: int | None = None):
    rows = tuple(tuple(_model._as_expression(e) for e in row)
                 for row in entries)
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise GeometryError("tensor grid is not square")
    if n is not None and size != n:
        raise GeometryError(
            f"tensor grid is {size}x{size}, expected {n}x{n}")
    return rows


class MetricField:
    """Contravariant metric components G^ij of an expression grid, with
    honest derivatives: one compiled jet gives the values and the first
    and second partials, so no finite differencing is ever involved.

    :meth:`from_system` builds the grid of a TwistedSystem, the
    block-diagonal G^ij = alpha^r g_r^ij with alpha the first row of the
    symbolic inverse separation matrix.

    A grid may also mention fixed parameters, bound by ``params``
    (name -> value); they are not coordinates and are never
    differentiated.  A value is one float, or one float per point of
    the stacks the metric is evaluated at.  Metrics on equal grids share
    one compiled jet, whatever their parameter values.
    """

    def __init__(self, coords, grid, params=None):
        self.coords = tuple(coords)
        self.params = dict(params or {})
        rows = _grid_of(grid, len(self.coords))
        for i in range(len(rows)):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise GeometryError(
                        f"metric entry G[{i + 1}][{j + 1}] is not the "
                        f"mirror of G[{j + 1}][{i + 1}]")
        self._grid = rows

    @classmethod
    def from_system(cls, sys: TwistedSystem) -> "MetricField":
        alpha = symbolic_inverse_row(sys.stackel, 1)
        return cls(sys.structure.names, _block_diagonal(sys, alpha))

    @property
    def n(self) -> int:
        return len(self.coords)

    def with_params(self, **params) -> "MetricField":
        """The same grid at other parameter values, sharing the jet."""
        other = MetricField(self.coords, self._grid,
                            {name: params[name] for name in self.params})
        other.__dict__["_jet"] = self._jet
        return other

    @cached_property
    def _jet(self) -> _model._GridJet:
        return _model._GridJet([e for row in self._grid for e in row],
                               self.coords, tuple(self.params), 2)

    def _derivatives(self, qs: np.ndarray, order: int = 2):
        """At each point of the stack qs: G[p], then for order >= 1
        dG[p, k] = d_k G, then for order 2 d2G[p, m, k] = d_m d_k G."""
        n = self.n
        args = np.column_stack([qs] + [np.broadcast_to(v, len(qs))
                                       for v in self.params.values()])
        G, dG, d2G = self._jet.stack(args)
        return (G.reshape(-1, n, n), dG.reshape(-1, n, n, n),
                d2G.reshape(-1, n, n, n, n))[:order + 1]

    def contravariant(self, point) -> np.ndarray:
        qs, one = _stack(self.coords, point)
        return _result(self._derivatives(qs, 0)[0], one)

    def covariant(self, point) -> np.ndarray:
        return _inverse(self.contravariant(point))


def _inverse(G: np.ndarray) -> np.ndarray:
    """The covariant metric g = G^-1 of one matrix or of a stack: the
    one place a metric is inverted.  Raises
    :class:`DegenerateMetricError` where det G is 0 or ln |det G| is not
    finite, or where the inversion fails.  The log is taken from the
    LU factors, so it neither overflows nor underflows where det G
    itself would, for an invertible G of huge or tiny entries."""
    sign, logdet = np.linalg.slogdet(G)
    if np.any((sign == 0) | ~np.isfinite(logdet)):
        raise DegenerateMetricError("metric degenerate at the given point")
    try:
        return np.linalg.inv(G)
    except np.linalg.LinAlgError as ex:
        raise DegenerateMetricError(str(ex)) from ex


@dataclass(frozen=True)
class TensorField2:
    """Rank-2 tensor field as an expression grid with a variance tag.
    The operations that must convert variance take the metric as an
    argument of their own."""

    coords: tuple
    grid: tuple
    variance: str
    symmetric: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        rows = _grid_of(self.grid, len(self.coords))
        object.__setattr__(self, "grid", rows)
        if self.variance not in _VARIANCES:
            raise VarianceError(
                f"unknown variance {self.variance!r}; expected one of "
                f"{_VARIANCES}")
        if self.symmetric:
            n = len(rows)
            for i in range(n):
                for j in range(i):
                    if rows[i][j] != rows[j][i]:
                        raise GeometryError(
                            f"entry [{i + 1}][{j + 1}] is not the mirror of "
                            f"[{j + 1}][{i + 1}] in a tensor tagged "
                            "symmetric")

    @property
    def n(self) -> int:
        return len(self.coords)

    @cached_property
    def _jet(self) -> _model._GridJet:
        return _model._GridJet([e for row in self.grid for e in row],
                               self.coords)

    def tagged(self, variance: str) -> "TensorField2":
        """The same grid under another variance tag, not tagged
        symmetric, sharing this field's jet."""
        other = TensorField2(self.coords, self.grid, variance)
        other.__dict__["_jet"] = self._jet
        return other

    def _at(self, qs: np.ndarray):
        """At each point of the stack qs: values T[p] and first partials
        dT[p, k] = d_k T."""
        n = self.n
        T, dT = self._jet.stack(qs)
        return T.reshape(-1, n, n), dT.reshape(-1, n, n, n)

    def values(self, point) -> np.ndarray:
        qs, one = _stack(self.coords, point)
        return _result(self._at(qs)[0], one)


def identity_tensor(coords, variance: str = "mixed") -> TensorField2:
    n = len(coords)
    grid = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return TensorField2(tuple(coords), grid, variance, symmetric=True)


# ---------------------------------------------------------------------------
# phase-space scalars and Poisson brackets

@dataclass(frozen=True)
class PhaseScalar:
    """F = (1/2) K^ij p_i p_j + W on the phase space.

    Quadratic in momenta by construction; the momentum gradient is
    analytic, the position gradient comes from derivatives of the
    coefficient expressions.  The gradients at each stack of phase
    points are kept for the scalar's life, so make a scalar per task.
    """

    coords: tuple
    tensor: TensorField2 | None = None
    scalar: object = 0.0
    # the gradients at each stack of phase points, by its bytes
    _kept: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        n = len(self.coords)
        if self.tensor is not None:
            if self.tensor.variance != "contravariant":
                raise VarianceError(
                    "the quadratic coefficient tensor must be "
                    "contravariant")
            if self.tensor.n != n:
                raise GeometryError(
                    f"coefficient tensor is {self.tensor.n}-dimensional, "
                    f"expected {n}")
        object.__setattr__(self, "scalar",
                           _model._as_expression(self.scalar))

    @cached_property
    def _jet(self) -> _model._GridJet:
        exprs = [self.scalar]
        if self.tensor is not None:
            exprs += [e for row in self.tensor.grid for e in row]
        return _model._GridJet(exprs, self.coords)

    def _gradients(self, qs: np.ndarray, ps: np.ndarray):
        """(d/dq, d/dp) at each point of the stack of positions qs and
        momenta ps, two (P, n) arrays, from one jet stack of W and K."""
        n = len(self.coords)
        vals, first = self._jet.stack(qs)
        dp = np.zeros(ps.shape)
        dq = first[:, :, 0].copy()
        if self.tensor is not None:
            K = vals[:, 1:].reshape(-1, n, n)
            dK = first[:, :, 1:].reshape(-1, n, n, n)
            dp += ((0.5 * (K + K.transpose(0, 2, 1)))
                   @ ps[:, :, None])[:, :, 0]
            pdK = ps[:, None, None, :] @ dK  # row k: p @ dK[k], per point
            dq += 0.5 * (pdK @ ps[:, None, :, None])[:, :, 0, 0]
        return dq, dp


def poisson_bracket(F: PhaseScalar, G: PhaseScalar, points):
    """{F, G} = sum_i dF/dq^i dG/dp_i - dF/dp_i dG/dq^i at one phase
    point, or at each of a sequence of them."""
    if F.coords != G.coords:
        raise GeometryError(
            "bracket arguments live on different phase spaces")
    one = isinstance(points, PhasePoint)
    points = [points] if one else list(points)
    qs = np.array([_point_of(F.coords, P) for P in points])
    ps = np.array([P.p for P in points], dtype=float)
    key = qs.tobytes() + ps.tobytes()  # each scalar's gradients once
    for S in (F, G):
        if key not in S._kept:
            S._kept[key] = S._gradients(qs, ps)
    (dqF, dpF), (dqG, dpG) = F._kept[key], G._kept[key]
    return _result(_dots(dqF, dpG) - _dots(dpF, dqG), one)


# ---------------------------------------------------------------------------
# connection and curvature

def _covariant_derivatives(g: MetricField, qs: np.ndarray, order: int = 2):
    """At each point of the stack qs: G, gcov, and the first (and for
    order 2 second) coordinate derivatives of G and gcov.

    Derivatives of the inverse come from the analytic identity
    d(g) = -g (dG) g applied to the contravariant components.
    """
    n = g.n
    G, dG, *d2G = g._derivatives(qs, order)
    gcov = _inverse(G)
    gk = gcov[:, None]  # against a stack of partials
    dg = -gk @ dG @ gk
    if order < 2:
        return G, gcov, dG, dg, None
    m, k = np.tril_indices(n)  # the pairs k <= m
    val = -(dg[:, m] @ dG[:, k] @ gk + gk @ d2G[0][:, m, k] @ gk
            + gk @ dG[:, k] @ dg[:, m])
    d2g = np.empty((len(qs), n, n, n, n))
    d2g[:, m, k] = val
    d2g[:, k, m] = val
    return G, gcov, dG, dg, d2g


def _connection(G: np.ndarray, dg: np.ndarray):
    """A[p,l,j,k] = d_j g_lk + d_k g_lj - d_l g_jk and the Levi-Civita
    coefficients Gamma = (1/2) G A, from G and the stacked dg[p, k]."""
    A = (dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg)
    return A, 0.5 * np.einsum("pil,pljk->pijk", G, A)


def christoffel(g: MetricField, point) -> np.ndarray:
    """Levi-Civita connection coefficients, out[i,j,k] = Gamma^i_jk."""
    qs, one = _stack(g.coords, point)
    G, _, _, dg, _ = _covariant_derivatives(g, qs, 1)
    return _result(_connection(G, dg)[1], one)


def _riemann(g: MetricField, qs: np.ndarray):
    """R^i_jkl and the contravariant metric G at each point of qs."""
    G, _, dG, dg, d2g = _covariant_derivatives(g, qs)
    A, Gamma = _connection(G, dg)
    # dA[p,m,l,j,k] = d2_mj g_lk + d2_mk g_lj - d2_ml g_jk
    dA = (d2g.transpose(0, 1, 3, 2, 4) + d2g.transpose(0, 1, 3, 4, 2) - d2g)
    dGamma = 0.5 * (np.einsum("pmil,pljk->pmijk", dG, A)
                    + np.einsum("pil,pmljk->pmijk", G, dA))
    # Gamma^i_km Gamma^m_jl; Gamma^i_lm Gamma^m_jk is it with k, l swapped
    GG = np.einsum("pikm,pmjl->pijkl", Gamma, Gamma)
    R = (dGamma.transpose(0, 2, 3, 1, 4) - dGamma.transpose(0, 2, 3, 4, 1)
         + GG - GG.transpose(0, 1, 2, 4, 3))
    return R, G


def riemann(g: MetricField, point) -> np.ndarray:
    """Curvature of the Levi-Civita connection, out[i,j,k,l] = R^i_jkl."""
    qs, one = _stack(g.coords, point)
    return _result(_riemann(g, qs)[0], one)


def ricci_scalar(g: MetricField, point):
    """Scalar curvature, the double trace of the curvature tensor."""
    qs, one = _stack(g.coords, point)
    R, G = _riemann(g, qs)
    ric = np.einsum("pijil->pjl", R)
    return _result(np.einsum("pjl,pjl->p", G, ric), one)


def killing_residual(g: MetricField, K: TensorField2, point):
    """max |nabla_(i K_jk)| of a covariant symmetric 2-tensor."""
    if K.variance != "covariant":
        raise VarianceError("killing_residual expects covariant components")
    qs, one = _shared_stack(g, K, point)
    G, _, _, dg, _ = _covariant_derivatives(g, qs, 1)
    Gamma = _connection(G, dg)[1]
    Kv, dK = K._at(qs)
    # nabla[p,i,j,k] = d_i K_jk - Gamma^l_ij K_lk - Gamma^l_ik K_jl
    nabla = (dK - np.einsum("plij,plk->pijk", Gamma, Kv)
             - np.einsum("plik,pjl->pijk", Gamma, Kv))
    sym = (nabla + nabla.transpose(0, 2, 3, 1)
           + nabla.transpose(0, 3, 1, 2)) / 3.0
    return _result(np.max(np.abs(sym), axis=(1, 2, 3)), one)


# ---------------------------------------------------------------------------
# torsion, Haantjes condition, normality contractions

def _mixed_components(T: TensorField2, g: MetricField, qs: np.ndarray,
                      metric=None):
    """Mixed values T^i_j and their coordinate derivatives at each point
    of qs, the variance converted by g, with the analytic derivative of
    the inverse for the covariant metric factor.  ``metric`` is
    ``_covariant_derivatives(g, qs, 1)``, if taken already."""
    Tv, dT = T._at(qs)
    if T.variance == "mixed":
        return Tv, dT
    if T.variance == "contravariant":
        _, gcov, _, dg, _ = metric or _covariant_derivatives(g, qs, 1)
        return Tv @ gcov, dT @ gcov[:, None] + Tv[:, None] @ dg
    G, dG = (metric[0], metric[2]) if metric else g._derivatives(qs, 1)
    return G @ Tv, dG @ Tv[:, None] + G[:, None] @ dT


def _torsion_from(Tv: np.ndarray, d: np.ndarray) -> np.ndarray:
    """N^i_jk of a mixed tensor at each point, from its values and
    derivatives d[p, k, i, j] = d_k T^i_j.

    N^i_jk = (1/2)[T^i_l (d_k T^l_j - d_j T^l_k)
                   + T^l_j d_l T^i_k - T^l_k d_l T^i_j].
    """
    t1 = (np.einsum("pil,pklj->pijk", Tv, d)
          - np.einsum("pil,pjlk->pijk", Tv, d))
    t2 = (np.einsum("plj,plik->pijk", Tv, d)
          - np.einsum("plk,plij->pijk", Tv, d))
    return 0.5 * (t1 + t2)


def nijenhuis(T: TensorField2, point) -> np.ndarray:
    """Nijenhuis torsion of a mixed tensor field, out[i,j,k] = N^i_jk."""
    if T.variance != "mixed":
        raise VarianceError("nijenhuis expects mixed components")
    qs, one = _stack(T.coords, point)
    return _result(_torsion_from(*T._at(qs)), one)


def haantjes(T: TensorField2, point) -> dict:
    """Torsion-based integrability data of a mixed tensor field.

    Returns the doubled torsion H^i_jk = 2 N^i_jk and the max-norm of
    the full normal-eigenvector condition

      H^k_ns T^n_m T^s_l - (H^s_nl T^n_m - H^s_nm T^n_l) T^k_s
        + H^n_ml T^k_s T^s_n.
    """
    if T.variance != "mixed":
        raise VarianceError("haantjes expects mixed components")
    qs, one = _stack(T.coords, point)
    Tv, dT = T._at(qs)
    H = 2.0 * _torsion_from(Tv, dT)
    t1 = np.einsum("pkns,pnm,psl->pkml", H, Tv, Tv)
    t2 = (np.einsum("psnl,pnm,pks->pkml", H, Tv, Tv)
          - np.einsum("psnm,pnl,pks->pkml", H, Tv, Tv))
    t3 = np.einsum("pnml,pks,psn->pkml", H, Tv, Tv)
    cond = t1 - t2 + t3
    return {
        "tensor": _result(H, one),
        "condition_residual":
        _result(np.max(np.abs(cond), axis=(1, 2, 3)), one),
    }


def tsn_residuals(K: TensorField2, g: MetricField, point):
    """The three normality contractions of the torsion of K.

    Returns max-norms of N^l_[ij g_k]l, N^l_[ij K_k]l and
    N^l_[ij K_k]m K^m_l, with full antisymmetrization over (i,j,k): a
    tuple of three floats at one point, a (P, 3) array at a stack.
    """
    qs, one = _shared_stack(g, K, point)
    # the metric and its inverse once, for the conversion and for gcov
    metric = None if K.variance == "mixed" else \
        _covariant_derivatives(g, qs, 1)
    Tv, dT = _mixed_components(K, g, qs, metric)
    N = _torsion_from(Tv, dT)
    gcov = g.covariant(qs) if metric is None else metric[1]
    Kcov = gcov @ Tv

    out = []
    for Q in (gcov, Kcov, Kcov @ Tv):
        # cyclic sum over an index pair already antisymmetric in (i,j)
        con = np.einsum("plij,pkl->pijk", N, Q)
        res = (con + con.transpose(0, 2, 3, 1)
               + con.transpose(0, 3, 1, 2)) / 3.0
        out.append(np.max(np.abs(res), axis=(1, 2, 3)))
    out = np.stack(out, axis=1)
    return tuple(out[0].tolist()) if one else out


# ---------------------------------------------------------------------------
# block eigenvalues and the separability residuals

def _twist_vector(tw: _model.Twist) -> np.ndarray:
    """alpha at each point, checked to have no zero entry, since the
    block formulas divide by it."""
    zero = np.argwhere(tw.alpha == 0.0)
    if len(zero):
        raise VanishingTwistError(
            f"twist function for block {zero[0, 1] + 1} vanishes at the "
            "given point")
    return tw.alpha


def _dots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rows[p] @ v[p] at each point p, for rows (P, ..., n) and v
    (P, n), each entry a 1-by-n product, which rounds as the dot of two
    vectors does (a matrix-vector product may not)."""
    v = v.reshape((len(v),) + (1,) * (rows.ndim - 2) + (-1, 1))
    return (rows[..., None, :] @ v)[..., 0, 0]


def _positions(sys: TwistedSystem, points):
    """The :class:`model.PositionJet` of one point or of a stack of
    points, or the one given, and whether one point was given."""
    if isinstance(points, _model.PositionJet):
        return points, False
    qs, one = _stack(sys.structure.names, points)
    return sys.jet.positions(qs), one


def _check_integral(sys: TwistedSystem, a: int):
    if not 1 <= a <= sys.n:
        raise _model.BlockIndexError(
            f"integral index {a} out of range 1..{sys.n}")


def block_eigenvalues(sys: TwistedSystem, a: int, point) -> np.ndarray:
    """Per-block eigenvalues of the a-th quadratic integral against the
    twisted metric: value r is (S^-1)[a][r] / alpha^r."""
    _check_integral(sys, a)
    at, one = _positions(sys, point)
    tw = at.twist
    return _result(tw.matrix[:, a - 1] / _twist_vector(tw), one)


def block_eisenhart_residual(sys: TwistedSystem, a: int, point):
    """max |d_k lambda^s - (lambda^r(k) - lambda^s) d_k ln|alpha^s||
    over coordinates k (in block r(k)) and blocks s."""
    _check_integral(sys, a)
    at, one = _positions(sys, point)
    tw = at.twist
    alpha = _twist_vector(tw)
    M, dM = tw.matrix, tw.dmatrix
    lam = M[:, a - 1] / alpha
    # scalar powers, which can differ in the last bit from x * x
    square = np.array([[x ** 2 for x in row] for row in alpha.tolist()]
                      ).reshape(alpha.shape)
    dlam = (dM[:, :, a - 1] * alpha[:, None]
            - M[:, None, a - 1] * dM[:, :, 0]) / square[:, None]
    dln = dM[:, :, 0] / alpha[:, None]
    blk = np.repeat(np.arange(sys.n), sys.structure.sizes)  # r(k)
    res = dlam - (lam[:, blk, None] - lam[:, None]) * dln
    return _result(np.max(np.abs(res), axis=(1, 2)), one)


def block_levi_civita_residual(sys: TwistedSystem, point) -> dict:
    """Cross-block integrability residuals of the twist functions.

    metric_residual: max over coordinate pairs (k in block r, l in
    block s, r != s) and targets m of
      alpha^r alpha^s d2_kl alpha^m - alpha^r d_k alpha^s d_l alpha^m
        - alpha^s d_l alpha^r d_k alpha^m.
    potential_residual: the same combination with alpha^m replaced by
    the assembled potential V = alpha^m V_m.
    """
    at, one = _positions(sys, point)
    tw = at.twist
    alpha, dalpha, d2alpha = tw.alpha, tw.dmatrix[:, :, 0], tw.d2alpha
    blk = np.repeat(np.arange(sys.n), sys.structure.sizes)  # r(k)
    cross = blk[:, None] != blk  # pairs (k, l) in different blocks
    # the coefficients at (k, l): alpha^r alpha^s, alpha^r d_k alpha^s
    # and alpha^s d_l alpha^r
    a_r = alpha[:, blk]
    both = a_r[:, :, None] * a_r[:, None]
    r_ks = a_r[:, :, None] * dalpha[:, :, blk]
    s_lr = a_r[:, None] * dalpha[:, :, blk].transpose(0, 2, 1)
    metric = (both[..., None] * d2alpha - r_ks[..., None] * dalpha[:, None]
              - s_lr[..., None] * dalpha[:, :, None])
    dV = _dots(dalpha, at.V) + _dots(at.dV, alpha)
    cross_dV = dalpha @ at.dV.transpose(0, 2, 1)  # d_k alpha . d_l V_m
    d2V = (_dots(d2alpha, at.V) + cross_dV + cross_dV.transpose(0, 2, 1)
           + _dots(at.d2V, alpha))
    potential = both * d2V - r_ks * dV[:, None] - s_lr * dV[:, :, None]
    return {"metric_residual": _result(np.max(
                np.abs(metric[:, cross]), axis=(1, 2), initial=0.0), one),
            "potential_residual": _result(np.max(
                np.abs(potential[:, cross]), axis=1, initial=0.0), one)}


def characteristic_condition(T: TensorField2, V, g: MetricField,
                             point):
    """max |d(T dV)|: closedness of the one-form (T dV)_j = T^k_j d_k V.
    V is an expression, or its order-2 :class:`model._GridJet` over g's
    coords, which a caller of many stacks makes once."""
    if not isinstance(V, _model._GridJet):
        V = _model._GridJet((_model._as_expression(V),), g.coords, (), 2)
    qs, one = _shared_stack(g, T, point)
    n = g.n
    Tv, dT = _mixed_components(T, g, qs)
    _, dV, d2V = V.stack(qs)
    dV, d2V = dV.reshape(-1, n), d2V.reshape(-1, n, n)
    # domega[p, i, j] = d_i (T dV)_j
    domega = (np.einsum("pikj,pk->pij", dT, dV)
              + np.einsum("pkj,pik->pij", Tv, d2V))
    return _result(np.max(np.abs(domega - domega.transpose(0, 2, 1)),
                          axis=(1, 2)), one)


# ---------------------------------------------------------------------------
# symbolic inverse rows and quadratic first integrals

def _minor(rows, i: int, j: int):
    return [[e for c, e in enumerate(row) if c != j]
            for r, row in enumerate(rows) if r != i]


def _det_expr(rows) -> Expression:
    n = len(rows)
    if n == 0:
        return _expr.Num(1.0)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        term = rows[0][j] * _det_expr(_minor(rows, 0, j))
        if acc is None:
            acc = term
        elif j % 2 == 0:
            acc = acc + term
        else:
            acc = acc - term
    return acc


def determinant_expression(stackel: StackelMatrix) -> Expression:
    """The separation determinant as an expression, for AD probing."""
    return _det_expr([list(row) for row in stackel.entries])


def symbolic_inverse_row(stackel: StackelMatrix, a: int):
    """Row a (1-based) of the inverse separation matrix as expressions.

    Cofactor expansion; intended for the small matrices this package
    works with, where the expression trees stay manageable.
    """
    n = stackel.n
    if not 1 <= a <= n:
        raise _model.BlockIndexError(f"row index {a} out of range 1..{n}")
    entries = [list(row) for row in stackel.entries]
    det = _det_expr(entries)
    row = []
    for r in range(n):
        cof = _det_expr(_minor(entries, r, a - 1))
        if (r + a - 1) % 2 == 1:
            cof = -cof
        row.append(cof / det)
    return tuple(row)


def _block_diagonal(sys: TwistedSystem, row) -> list:
    """The N-by-N grid with row[r] * g_r^ij on block r's diagonal block
    and 0 elsewhere; mirrored entries are the same objects."""
    N = sys.dim
    grid = [[_expr.Num(0.0) for _ in range(N)] for _ in range(N)]
    for r in range(sys.n):
        idx = list(sys.structure.block_range(r + 1))
        blk = sys.blocks[r]
        for i, gi in enumerate(idx):
            for j, gj in enumerate(idx):
                if gj < gi:
                    grid[gi][gj] = grid[gj][gi]
                else:
                    grid[gi][gj] = row[r] * blk.metric[i][j]
    return grid


def first_integral_scalar(sys: TwistedSystem, a: int) -> PhaseScalar:
    """The a-th quadratic integral as a phase-space scalar:
    (1/2) k_a^ij p_i p_j + W_a with k_a block-diagonal from the inverse
    separation row and W_a the same row applied to the potentials."""
    _check_integral(sys, a)
    row = symbolic_inverse_row(sys.stackel, a)
    names = sys.structure.names
    grid = _block_diagonal(sys, row)
    W = None
    for r in range(sys.n):
        term = row[r] * sys.blocks[r].potential
        W = term if W is None else W + term
    tensor = TensorField2(names, grid, "contravariant", symmetric=True)
    return PhaseScalar(names, tensor=tensor, scalar=W)


# ---------------------------------------------------------------------------
# seeded sampling with rejection

def rejection_sample(box, count: int, seed: int, predicate=None,
                     max_tries: int | None = None):
    """Sample ``count`` points uniformly from a coordinate box, keeping
    only those where ``predicate`` holds.  Deterministic for a seed.

    Candidates are drawn in blocks, no more than could still be kept,
    and tested in order; a block of k draws takes the same numbers
    from the generator as k draws of one point, so the points are
    those of drawing one candidate at a time.  ``max_tries`` counts
    candidates."""
    rng = np.random.default_rng(seed)
    los = np.array([lo for lo, _ in box], dtype=float)
    his = np.array([hi for _, hi in box], dtype=float)
    limit = max_tries if max_tries is not None else 10000 * count
    out = []
    tries = 0
    while len(out) < count:
        if tries >= limit:
            raise GeometryError(
                f"rejection sampling exhausted {limit} tries with only "
                f"{len(out)} of {count} points accepted")
        k = min(count - len(out), limit - tries)
        tries += k
        draws = rng.uniform(los, his, size=(k, len(box))).tolist()
        out += [pt for pt in map(tuple, draws)
                if predicate is None or predicate(pt)]
    return out


def build_probes(box) -> list:
    """The points of ``box`` a system is checked at when it is built,
    after its declared point if it has one: 20, drawn at seed 42."""
    return rejection_sample(box, 20, 42)
