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
:class:`TensorField2`, a :class:`PhaseScalar`) compiles one jet with
:func:`expr.compile` the first time it is evaluated and keeps it, so a
point costs one call for all values and partials: first partials for
tensors and phase scalars, second partials as well for metrics.  The
system residuals read the potentials and the twist (S^-1 and its
derivatives, :class:`model.Twist`) of one
:meth:`model.SystemJet.positions` per point, as array expressions over
coordinates, blocks and targets.  Nothing here walks expression trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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


def _env_of(coords, point) -> dict:
    """Build an evaluation environment from a point specification.

    Accepts a dict (must bind every coordinate), a PhasePoint (its q
    part is used), or a plain sequence ordered like ``coords``.
    """
    if isinstance(point, dict):
        missing = [c for c in coords if c not in point]
        if missing:
            raise GeometryError(f"point does not bind {missing[0]!r}")
        return {c: float(point[c]) for c in coords}
    if isinstance(point, PhasePoint):
        point = point.q
    vals = tuple(float(x) for x in point)
    if len(vals) != len(coords):
        raise GeometryError(
            f"point has {len(vals)} coordinates, expected {len(coords)}")
    return dict(zip(coords, vals))


class _GridJet:
    """A compiled jet of an expression list over coordinates (and fixed
    parameters after them).  Called with the coordinate values, then the
    parameter values, it returns the values (m,), the first partials
    (n, m) and, at order 2, the second partials (n, n, m)."""

    def __init__(self, exprs, coords, params=(), order=1):
        n, m = len(coords), len(exprs)
        self.fn = _expr.compile(exprs, tuple(coords) + tuple(params),
                                coords, order)
        self.m = m
        self.n = n
        self.pair = None
        if order == 2:
            self.pair = np.empty((n, n), dtype=int)
            pairs = [(i, j) for i in range(n) for j in range(i, n)]
            for k, (i, j) in enumerate(pairs):
                self.pair[i, j] = self.pair[j, i] = k

    def __call__(self, args):
        out = np.array(self.fn(*args))
        m, n = self.m, self.n
        first = out[m:m + n * m].reshape(n, m)
        if self.pair is None:
            return out[:m], first
        return out[:m], first, out[m + n * m:].reshape(-1, m)[self.pair]


_JETS: dict = {}
_JETS_KEPT = 8


def _grid_jet(exprs, coords, params=(), order=1) -> _GridJet:
    """The jet of an expression list, compiled once and shared by every
    object built on the same expression objects (the last
    ``_JETS_KEPT`` lists are kept)."""
    exprs = tuple(exprs)
    key = (tuple(map(id, exprs)), tuple(coords), tuple(params), order)
    hit = _JETS.pop(key, None)
    if hit is None:
        # the entry keeps its expressions alive, so their ids stay theirs
        hit = (exprs, _GridJet(exprs, coords, params, order))
        if len(_JETS) >= _JETS_KEPT:
            del _JETS[next(iter(_JETS))]
    _JETS[key] = hit
    return hit[1]


def _index(coords, name: str) -> int:
    if name not in coords:
        raise GeometryError(f"{name!r} is not one of the coordinates "
                            f"{coords}")
    return coords.index(name)


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
    differentiated.  Metrics on the same grid objects share one
    compiled jet, whatever their parameter values.
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
    def from_expressions(cls, coords, grid, params=None) -> "MetricField":
        return cls(coords, grid, params)

    @classmethod
    def from_system(cls, sys: TwistedSystem) -> "MetricField":
        alpha = symbolic_inverse_row(sys.stackel, 1)
        return cls(sys.structure.names, _block_diagonal(sys, alpha))

    @property
    def n(self) -> int:
        return len(self.coords)

    @cached_property
    def _jet(self) -> _GridJet:
        return _grid_jet([e for row in self._grid for e in row], self.coords,
                         tuple(self.params), 2)

    def _derivatives(self, env, order: int = 2):
        """G, then for order >= 1 the stacked dG[k] = d_k G, then for
        order 2 d2G[m, k] = d_m d_k G."""
        n = self.n
        G, dG, d2G = self._jet([env[c] for c in self.coords]
                               + list(self.params.values()))
        return (G.reshape(n, n), dG.reshape(n, n, n),
                d2G.reshape(n, n, n, n))[:order + 1]

    def contravariant(self, point) -> np.ndarray:
        return self._derivatives(_env_of(self.coords, point), 0)[0]

    def derivative(self, point, name: str) -> np.ndarray:
        """d/d name of the contravariant components."""
        env = _env_of(self.coords, point)
        return self._derivatives(env, 1)[1][_index(self.coords, name)]

    def second_derivative(self, point, n1: str, n2: str) -> np.ndarray:
        env = _env_of(self.coords, point)
        return self._derivatives(env)[2][_index(self.coords, n1),
                                         _index(self.coords, n2)]

    def covariant(self, point) -> np.ndarray:
        G = self.contravariant(point)
        det = float(np.linalg.det(G))
        if det == 0.0 or not np.isfinite(det):
            raise DegenerateMetricError(
                "metric degenerate at the given point")
        try:
            return np.linalg.inv(G)
        except np.linalg.LinAlgError as ex:
            raise DegenerateMetricError(str(ex)) from ex


@dataclass(frozen=True)
class TensorField2:
    """Rank-2 tensor field as an expression grid with a variance tag.

    ``metric`` is only needed for numeric index shuffling and for the
    operations that must convert variance on the fly.
    """

    coords: tuple
    grid: tuple
    variance: str
    metric: MetricField | None = None
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
    def _jet(self) -> _GridJet:
        return _grid_jet([e for row in self.grid for e in row], self.coords)

    def _at(self, env):
        """Values T and stacked first partials dT[k] = d_k T."""
        n = self.n
        T, dT = self._jet([env[c] for c in self.coords])
        return T.reshape(n, n), dT.reshape(n, n, n)

    def values(self, point) -> np.ndarray:
        return self._at(_env_of(self.coords, point))[0]

    def derivative_values(self, point, name: str) -> np.ndarray:
        env = _env_of(self.coords, point)
        return self._at(env)[1][_index(self.coords, name)]

    def _need_metric(self):
        if self.metric is None:
            raise GeometryError(
                "index shuffling needs an associated metric")
        return self.metric

    def raised(self, point) -> np.ndarray:
        """Contravariant components at the point."""
        T = self.values(point)
        if self.variance == "contravariant":
            return T
        G = self._need_metric().contravariant(point)
        if self.variance == "covariant":
            return G @ T @ G
        return T @ G

    def mixed_at(self, point) -> np.ndarray:
        """Mixed components T^i_j at the point."""
        T = self.values(point)
        if self.variance == "mixed":
            return T
        if self.variance == "contravariant":
            g = self._need_metric().covariant(point)
            return T @ g
        G = self._need_metric().contravariant(point)
        return G @ T


def identity_tensor(coords, metric: MetricField | None = None,
                    variance: str = "mixed") -> TensorField2:
    n = len(coords)
    grid = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return TensorField2(tuple(coords), grid, variance, metric,
                        symmetric=True)


# ---------------------------------------------------------------------------
# phase-space scalars and Poisson brackets

@dataclass(frozen=True)
class PhaseScalar:
    """F = (1/2) K^ij p_i p_j + L^i p_i + W on the phase space.

    Quadratic in momenta by construction; the momentum gradient is
    analytic, the position gradient comes from derivatives of the
    coefficient expressions.
    """

    coords: tuple
    tensor: TensorField2 | None = None
    linear: tuple | None = None
    scalar: object = 0.0

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
        if self.linear is not None:
            lin = tuple(_model._as_expression(e) for e in self.linear)
            if len(lin) != n:
                raise GeometryError(
                    f"linear coefficient has {len(lin)} entries, "
                    f"expected {n}")
            object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "scalar",
                           _model._as_expression(self.scalar))

    @cached_property
    def _jet(self) -> _GridJet:
        exprs = [self.scalar, *(self.linear or ())]
        if self.tensor is not None:
            exprs += [e for row in self.tensor.grid for e in row]
        return _grid_jet(exprs, self.coords)

    def _at(self, point: PhasePoint):
        """Momenta, then the scalar W, linear terms L and tensor K with
        their stacked first partials, from one jet call."""
        n = len(self.coords)
        if len(point.q) != n:
            raise GeometryError(
                f"point has {len(point.q)} coordinates, expected {n}")
        vals, first = self._jet(point.q)
        lin = 1 + len(self.linear or ())
        K = dK = None
        if self.tensor is not None:
            K, dK = vals[lin:].reshape(n, n), first[:, lin:].reshape(n, n, n)
        return (np.asarray(point.p, dtype=float), vals[0], vals[1:lin], K,
                first[:, 0], first[:, 1:lin], dK)

    def value(self, point: PhasePoint) -> float:
        p, out, L, K, _, _, _ = self._at(point)
        if self.linear is not None:
            out += sum(L[i] * p[i] for i in range(len(L)))
        if self.tensor is not None:
            out += 0.5 * float(p @ K @ p)
        return float(out)

    def _gradients(self, point: PhasePoint):
        """(d/dq, d/dp) at the point.  The last point's pair is kept,
        since a bracket check asks for it once per partner; its arrays
        must not be written to."""
        last = self.__dict__.get("_last_gradients")
        if last is not None and last[0] == point:
            return last[1]
        p, _, L, K, dW, dL, dK = self._at(point)
        n = len(self.coords)
        dp = np.zeros(n)
        if self.tensor is not None:
            dp += 0.5 * (K + K.T) @ p
        if self.linear is not None:
            dp += L
        dq = dW.tolist()
        if self.linear is not None:
            for k in range(n):
                dq[k] += sum(dL[k, i] * p[i] for i in range(len(L)))
        if self.tensor is not None:
            pdK = p @ dK  # row k is p @ dK[k]
            for k in range(n):
                dq[k] += 0.5 * float(pdK[k] @ p)
        out = np.array(dq), dp
        self.__dict__["_last_gradients"] = (point, out)
        return out

    def momentum_gradient(self, point: PhasePoint) -> np.ndarray:
        return self._gradients(point)[1].copy()

    def position_gradient(self, point: PhasePoint) -> np.ndarray:
        return self._gradients(point)[0].copy()


def poisson_bracket(F: PhaseScalar, G: PhaseScalar,
                    point: PhasePoint) -> float:
    """{F, G} = sum_i dF/dq^i dG/dp_i - dF/dp_i dG/dq^i."""
    if F.coords != G.coords:
        raise GeometryError(
            "bracket arguments live on different phase spaces")
    if len(point.q) != len(F.coords):
        raise GeometryError(
            f"point has {len(point.q)} coordinates, expected "
            f"{len(F.coords)}")
    dqF, dpF = F._gradients(point)
    dqG, dpG = G._gradients(point)
    return float(dqF @ dpG - dpF @ dqG)


# ---------------------------------------------------------------------------
# connection and curvature

def _covariant_derivatives(g: MetricField, env, order: int = 2):
    """G, gcov, and the first (and for order 2 second) coordinate
    derivatives of G and gcov.

    Derivatives of the inverse come from the analytic identity
    d(g) = -g (dG) g applied to the contravariant components.
    """
    n = g.n
    G, dG, *d2G = g._derivatives(env, order)
    det = float(np.linalg.det(G))
    if det == 0.0 or not np.isfinite(det):
        raise DegenerateMetricError("metric degenerate at the given point")
    gcov = np.linalg.inv(G)
    dg = -gcov @ dG @ gcov
    if order < 2:
        return G, gcov, dG, dg, None
    m, k = np.tril_indices(n)  # the pairs k <= m
    val = -(dg[m] @ dG[k] @ gcov + gcov @ d2G[0][m, k] @ gcov
            + gcov @ dG[k] @ dg[m])
    d2g = np.empty((n, n, n, n))
    d2g[m, k] = val
    d2g[k, m] = val
    return G, gcov, dG, dg, d2g


def christoffel(g: MetricField, point) -> np.ndarray:
    """Levi-Civita connection coefficients, out[i,j,k] = Gamma^i_jk."""
    env = _env_of(g.coords, point)
    G, _, _, dg, _ = _covariant_derivatives(g, env, 1)
    # A[l,j,k] = d_j g_lk + d_k g_lj - d_l g_jk
    A = (dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg)
    return 0.5 * np.einsum("il,ljk->ijk", G, A)


def _riemann(g: MetricField, env):
    """R^i_jkl and the contravariant metric G at the point."""
    G, _, dG, dg, d2g = _covariant_derivatives(g, env)
    A = (dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg)
    Gamma = 0.5 * np.einsum("il,ljk->ijk", G, A)
    # dA[m,l,j,k] = d2_mj g_lk + d2_mk g_lj - d2_ml g_jk
    dA = (d2g.transpose(0, 2, 1, 3) + d2g.transpose(0, 2, 3, 1) - d2g)
    dGamma = 0.5 * (np.einsum("mil,ljk->mijk", dG, A)
                    + np.einsum("il,mljk->mijk", G, dA))
    R = (dGamma.transpose(1, 2, 0, 3) - dGamma.transpose(1, 2, 3, 0)
         + np.einsum("ikm,mjl->ijkl", Gamma, Gamma)
         - np.einsum("ilm,mjk->ijkl", Gamma, Gamma))
    return R, G


def riemann(g: MetricField, point) -> np.ndarray:
    """Curvature of the Levi-Civita connection, out[i,j,k,l] = R^i_jkl."""
    return _riemann(g, _env_of(g.coords, point))[0]


def ricci_scalar(g: MetricField, point) -> float:
    """Scalar curvature, the double trace of the curvature tensor."""
    R, G = _riemann(g, _env_of(g.coords, point))
    ric = np.einsum("ijil->jl", R)
    return float(np.einsum("jl,jl->", G, ric))


def killing_residual(g: MetricField, K: TensorField2, point) -> float:
    """max |nabla_(i K_jk)| of a covariant symmetric 2-tensor."""
    if K.variance != "covariant":
        raise VarianceError("killing_residual expects covariant components")
    env = _env_of(g.coords, point)
    Gamma = christoffel(g, env)
    Kv, dK = K._at(env)
    # nabla[i,j,k] = d_i K_jk - Gamma^l_ij K_lk - Gamma^l_ik K_jl
    nabla = (dK - np.einsum("lij,lk->ijk", Gamma, Kv)
             - np.einsum("lik,jl->ijk", Gamma, Kv))
    sym = (nabla + nabla.transpose(1, 2, 0) + nabla.transpose(2, 0, 1)) / 3.0
    return float(np.max(np.abs(sym)))


# ---------------------------------------------------------------------------
# torsion, Haantjes condition, normality contractions

def _mixed_components(T: TensorField2, g: MetricField | None, env):
    """Mixed values T^i_j and their coordinate derivatives.

    Converts variance on the fly when a metric is available, using the
    analytic derivative of the inverse for the covariant metric factor.
    """
    Tv, dT = T._at(env)
    if T.variance == "mixed":
        return Tv, dT
    metric = g or T.metric
    if metric is None:
        raise VarianceError(
            f"{T.variance} tensor needs a metric to be used as an "
            "endomorphism")
    G, dG = metric._derivatives(env, 1)
    gcov = np.linalg.inv(G)
    if T.variance == "contravariant":
        return Tv @ gcov, dT @ gcov + Tv @ (-gcov @ dG @ gcov)
    return G @ Tv, dG @ Tv + G @ dT


def _torsion_from(Tv: np.ndarray, dT) -> np.ndarray:
    """N^i_jk of a mixed tensor from its values and derivatives.

    N^i_jk = (1/2)[T^i_l (d_k T^l_j - d_j T^l_k)
                   + T^l_j d_l T^i_k - T^l_k d_l T^i_j].
    """
    d = np.array(dT)  # d[k, i, j] = d_k T^i_j
    t1 = np.einsum("il,klj->ijk", Tv, d) - np.einsum("il,jlk->ijk", Tv, d)
    t2 = np.einsum("lj,lik->ijk", Tv, d) - np.einsum("lk,lij->ijk", Tv, d)
    return 0.5 * (t1 + t2)


def nijenhuis(T: TensorField2, point) -> np.ndarray:
    """Nijenhuis torsion of a mixed tensor field, out[i,j,k] = N^i_jk."""
    if T.variance != "mixed":
        raise VarianceError("nijenhuis expects mixed components")
    return _torsion_from(*T._at(_env_of(T.coords, point)))


def eigenvalue_groups(values, scale: float = 1e-8):
    """Cluster eigenvalues by relative gap scale*(1 + |value|).

    Returns (groups, degenerate) where groups is a tuple of
    (representative, multiplicity) pairs and degenerate flags a
    clustering that changes when the tolerance is multiplied by 10.
    """
    vals = np.asarray(values)

    def split(tol):
        order = np.lexsort((vals.imag, vals.real)) if np.iscomplexobj(
            vals) else np.argsort(vals)
        groups = []
        for idx in order:
            v = vals[idx]
            if groups and abs(v - groups[-1][-1]) <= tol * (1 + abs(v)):
                groups[-1].append(v)
            else:
                groups.append([v])
        return groups

    base = split(scale)
    wide = split(scale * 10)
    degenerate = [len(grp) for grp in base] != [len(grp) for grp in wide]
    reps = tuple((complex(np.mean(grp)) if np.iscomplexobj(vals)
                  else float(np.mean(grp)), len(grp)) for grp in base)
    return reps, degenerate


def _rank_test(Tv: np.ndarray):
    """Check that each eigenvalue cluster has a full eigenspace.

    Kernel dimensions come from SVD with a relative cutoff of 1e-8;
    instability of the answer under a 10x larger cutoff is flagged.
    """
    eigvals = np.linalg.eigvals(Tv)
    groups, degenerate = eigenvalue_groups(eigvals)
    n = Tv.shape[0]

    def complete(cutoff_scale):
        for value, mult in groups:
            sv = np.linalg.svd(Tv - value * np.eye(n), compute_uv=False)
            top = max(float(sv[0]), 1.0)
            kernel = int(np.sum(sv <= cutoff_scale * top))
            if kernel != mult:
                return False
        return True

    ok = complete(1e-8)
    if ok != complete(1e-7):
        degenerate = True
    return ok, degenerate


def haantjes(T: TensorField2, point) -> dict:
    """Torsion-based integrability data of a mixed tensor field.

    Returns the doubled torsion H^i_jk = 2 N^i_jk, the max-norm of the
    full normal-eigenvector condition

      H^k_ns T^n_m T^s_l - (H^s_nl T^n_m - H^s_nm T^n_l) T^k_s
        + H^n_ml T^k_s T^s_n,

    and the numeric eigenspace completeness check with its stability
    flag.
    """
    if T.variance != "mixed":
        raise VarianceError("haantjes expects mixed components")
    Tv, dT = T._at(_env_of(T.coords, point))
    H = 2.0 * _torsion_from(Tv, dT)
    t1 = np.einsum("kns,nm,sl->kml", H, Tv, Tv)
    t2 = (np.einsum("snl,nm,ks->kml", H, Tv, Tv)
          - np.einsum("snm,nl,ks->kml", H, Tv, Tv))
    t3 = np.einsum("nml,ks,sn->kml", H, Tv, Tv)
    cond = t1 - t2 + t3
    diagonalizable, degenerate = _rank_test(Tv)
    return {
        "tensor": H,
        "condition_residual": float(np.max(np.abs(cond))),
        "diagonalizable": diagonalizable,
        "degenerate_point": degenerate,
    }


def tsn_residuals(K: TensorField2, g: MetricField, point):
    """The three normality contractions of the torsion of K.

    Returns max-norms of N^l_[ij g_k]l, N^l_[ij K_k]l and
    N^l_[ij K_k]m K^m_l, with full antisymmetrization over (i,j,k).
    """
    env = _env_of(g.coords, point)
    Tv, dT = _mixed_components(K, g, env)
    N = _torsion_from(Tv, dT)
    gcov = g.covariant(env)
    Kcov = gcov @ Tv
    mats = (gcov, Kcov, Kcov @ Tv)

    out = []
    for Q in mats:
        # cyclic sum over an index pair already antisymmetric in (i,j)
        con = np.einsum("lij,kl->ijk", N, Q)
        res = (con + con.transpose(1, 2, 0) + con.transpose(2, 0, 1)) / 3.0
        out.append(float(np.max(np.abs(res))))
    return tuple(out)


# ---------------------------------------------------------------------------
# block eigenvalues and the separability residuals

def _position_jet(sys: TwistedSystem, point) -> _model.PositionJet:
    env = _env_of(sys.structure.names, point)
    return sys.jet.positions([env[c] for c in sys.structure.names])


def _twist_vector(tw: _model.Twist) -> np.ndarray:
    """alpha, checked to have no zero entry, since the block formulas
    divide by it."""
    for r, value in enumerate(tw.alpha, start=1):
        if value == 0.0:
            raise VanishingTwistError(
                f"twist function for block {r} vanishes at the given point")
    return tw.alpha


def _dots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rows @ v, each entry a 1-by-n product, which rounds as the dot
    of two vectors does (a matrix-vector product may not)."""
    return (rows[..., None, :] @ v)[..., 0]


def block_eigenvalues(sys: TwistedSystem, a: int, point) -> np.ndarray:
    """Per-block eigenvalues of the a-th quadratic integral against the
    twisted metric: value r is (S^-1)[a][r] / alpha^r."""
    if not 1 <= a <= sys.n:
        raise _model.BlockIndexError(
            f"integral index {a} out of range 1..{sys.n}")
    tw = _position_jet(sys, point).twist
    return tw.matrix[a - 1] / _twist_vector(tw)


def block_eisenhart_residual(sys: TwistedSystem, a: int, point) -> float:
    """max |d_k lambda^s - (lambda^r(k) - lambda^s) d_k ln|alpha^s||
    over coordinates k (in block r(k)) and blocks s."""
    if not 1 <= a <= sys.n:
        raise _model.BlockIndexError(
            f"integral index {a} out of range 1..{sys.n}")
    tw = _position_jet(sys, point).twist
    alpha = _twist_vector(tw)
    M, dM = tw.matrix, tw.dmatrix
    lam = M[a - 1] / alpha
    # scalar powers, which can differ in the last bit from x * x
    square = np.array([x ** 2 for x in alpha.tolist()])
    dlam = (dM[:, a - 1] * alpha - M[a - 1] * dM[:, 0]) / square
    dln = dM[:, 0] / alpha
    blk = np.repeat(np.arange(sys.n), sys.structure.sizes)  # r(k)
    res = dlam - (lam[blk][:, None] - lam) * dln
    return float(np.max(np.abs(res)))


def block_levi_civita_residual(sys: TwistedSystem, point) -> dict:
    """Cross-block integrability residuals of the twist functions.

    metric_residual: max over coordinate pairs (k in block r, l in
    block s, r != s) and targets m of
      alpha^r alpha^s d2_kl alpha^m - alpha^r d_k alpha^s d_l alpha^m
        - alpha^s d_l alpha^r d_k alpha^m.
    potential_residual: the same combination with alpha^m replaced by
    the assembled potential V = alpha^m V_m.
    """
    at = _position_jet(sys, point)
    tw = at.twist
    alpha, dalpha, d2alpha = tw.alpha, tw.dalpha, tw.d2alpha
    blk = np.repeat(np.arange(sys.n), sys.structure.sizes)  # r(k)
    cross = blk[:, None] != blk  # pairs (k, l) in different blocks
    # the coefficients at (k, l): alpha^r alpha^s, alpha^r d_k alpha^s
    # and alpha^s d_l alpha^r
    a_r = alpha[blk]
    both = a_r[:, None] * a_r
    r_ks = a_r[:, None] * dalpha[:, blk]
    s_lr = a_r * dalpha[:, blk].T
    metric = (both[..., None] * d2alpha - r_ks[..., None] * dalpha
              - s_lr[..., None] * dalpha[:, None])
    dV = _dots(dalpha, at.V) + _dots(at.dV, alpha)
    cross_dV = dalpha @ at.dV.T  # [k, l] = d_k alpha . d_l V_m
    d2V = (_dots(d2alpha, at.V) + cross_dV + cross_dV.T
           + _dots(at.d2V, alpha))
    potential = both * d2V - r_ks * dV - s_lr * dV[:, None]
    return {"metric_residual":
            float(np.max(np.abs(metric[cross]), initial=0.0)),
            "potential_residual":
            float(np.max(np.abs(potential[cross]), initial=0.0))}


def characteristic_condition(T: TensorField2, V, g: MetricField,
                             point) -> float:
    """max |d(T dV)|: closedness of the one-form (T dV)_j = T^k_j d_k V."""
    V = _model._as_expression(V)
    env = _env_of(g.coords, point)
    coords = g.coords
    n = len(coords)
    Tv, dT = _mixed_components(T, g, env)
    _, dV, d2V = _grid_jet((V,), coords, (), 2)([env[c] for c in coords])
    dV, d2V = dV.reshape(n), d2V.reshape(n, n)
    # domega[i, j] = d_i (T dV)_j
    dTarr = np.array(dT)
    domega = (np.einsum("ikj,k->ij", dTarr, dV)
              + np.einsum("kj,ik->ij", Tv, d2V))
    return float(np.max(np.abs(domega - domega.T)))


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
    if not 1 <= a <= sys.n:
        raise _model.BlockIndexError(
            f"integral index {a} out of range 1..{sys.n}")
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
    only those where ``predicate`` holds.  Deterministic for a seed."""
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
        tries += 1
        pt = tuple(rng.uniform(los, his))
        if predicate is None or predicate(pt):
            out.append(pt)
    return out
