"""Hamiltonian vector fields, adaptive integration, block clocks.

The integrator is Dormand and Prince's explicit Runge-Kutta 8(5,3)
pair, DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*, II.10): 12
stages to an 8th-order solution, first-same-as-last stage reuse, the
error norm |h| s5 / sqrt((s5 + 0.01 s3) d) of its 5th- and 3rd-order
estimates, and 3 more stages per accepted step for its 7th-order dense
output.  A PI controller (order-8 exponents, safety 0.9, step-ratio
clip [0.2, 5]) picks the steps.  The step is generated from the
tableau once per state length d, as straight-line code over the d
components of lists of floats.  It calls the field itself, with no
wrapper of its own: a field takes the state as such a list and returns
a sequence of d floats, the generated fields a tuple.  Each accepted
step keeps the 12 stages that its dense output reads, and one array
pass per 64 steps makes them into those steps' dense-output
coefficients, bit for bit the per-step sums on floats, appended to one
(S, d, 7) float64 array.  ``Trajectory.sample`` multiplies each time's
weights into the transposed (7, d) view of its step's slice: a
C-ordered (7, d) layout rounds differently, and the samples are kept
bit for bit.  Dense
output is what makes the orbit comparison work: the full system acts as
the master clock, and the reduced orbit is sampled at the rescaled
times tau_r(t) without ever inverting the clock map.

The vector fields are the straight-line functions that
:class:`model.SystemJet` generates for each system the first time a
field is asked for: ``field`` for the full system, the jet's float ops
and the gated inverse of S written out as its own lines (a constant S
has its inverse written in), and ``reduced(r)`` for block r, with the
separation constants bound by ``functools.partial`` when the callable
is made.  One field evaluation is one Python call, of the kernel.
The block clocks ride in the orbit's state (q, p, tau_1 .. tau_n),
tau(t0) = 0: the full field
returns d(tau_r)/dt = alpha^r(q) from the twist it uses for dH, so one
integration yields the orbit and its clocks under one step control and
dense output (Hairer, Norsett & Wanner, *Solving ODEs I*, II.6).

Backward integration (t_end < t_start) is supported; reduced orbits run
backward whenever the twist function is negative along the orbit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field as dataclass_field
from functools import cache, cached_property, partial
from itertools import chain
from typing import Callable

import numpy as np

from . import expr as _expr
from . import model as _model
from .model import ModelError, PhasePoint, TwistedSystem


class DynamicsError(Exception):
    """Base class for integration and comparison failures."""


class IntegrationError(DynamicsError):
    """Integration could not cover the requested span.

    Carries the last good time, the state there, and the partial
    trajectory accumulated before the failure.
    """

    def __init__(self, reason: str, t_last: float, state_last=None,
                 partial=None):
        self.reason = reason
        self.t_last = t_last
        self.state_last = None if state_last is None else np.array(state_last)
        self.partial = partial
        super().__init__(f"{reason} (last good time t={t_last:.12g})")


class EmptySegmentError(DynamicsError):
    """The twist function vanishes at the start of the orbit, so no
    constant-sign comparison window exists."""


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3), with the coefficients of Hairer's DOP853 (Hairer,
# Norsett & Wanner, *Solving ODEs I*, II.10).  Stage i, counted from 1, is
# k_i = f(t + c_i h, y + h sum_j a_ij k_j).  Row 13 of the coupling holds
# the weights b of the 8th-order solution y1, so k13 = f(t + h, y1) is the
# next step's k1; stages 14 to 16 serve the dense output only.

_NODES = {
    2: 0.526001519587677318785587544488e-01,
    3: 0.789002279381515978178381316732e-01,
    4: 0.118350341907227396726757197510,
    5: 0.281649658092772603273242802490,
    6: 0.333333333333333333333333333333,
    7: 0.25,
    8: 0.307692307692307692307692307692,
    9: 0.651282051282051282051282051282,
    10: 0.6,
    11: 0.857142857142857142857142857142,
    12: 1.0,
    13: 1.0,
    14: 0.1,
    15: 0.2,
    16: 0.777777777777777777777777777778,
}

_COUPLING = {
    2: {1: 5.26001519587677318785587544488e-2},
    3: {1: 1.97250569845378994544595329183e-2,
        2: 5.91751709536136983633785987549e-2},
    4: {1: 2.95875854768068491816892993775e-2,
        3: 8.87627564304205475450678981324e-2},
    5: {1: 2.41365134159266685502369798665e-1,
        3: -8.84549479328286085344864962717e-1,
        4: 9.24834003261792003115737966543e-1},
    6: {1: 3.7037037037037037037037037037e-2,
        4: 1.70828608729473871279604482173e-1,
        5: 1.25467687566822425016691814123e-1},
    7: {1: 3.7109375e-2,
        4: 1.70252211019544039314978060272e-1,
        5: 6.02165389804559606850219397283e-2,
        6: -1.7578125e-2},
    8: {1: 3.70920001185047927108779319836e-2,
        4: 1.70383925712239993810214054705e-1,
        5: 1.07262030446373284651809199168e-1,
        6: -1.53194377486244017527936158236e-2,
        7: 8.27378916381402288758473766002e-3},
    9: {1: 6.24110958716075717114429577812e-1,
        4: -3.36089262944694129406857109825,
        5: -8.68219346841726006818189891453e-1,
        6: 2.75920996994467083049415600797e1,
        7: 2.01540675504778934086186788979e1,
        8: -4.34898841810699588477366255144e1},
    10: {1: 4.77662536438264365890433908527e-1,
         4: -2.48811461997166764192642586468,
         5: -5.90290826836842996371446475743e-1,
         6: 2.12300514481811942347288949897e1,
         7: 1.52792336328824235832596922938e1,
         8: -3.32882109689848629194453265587e1,
         9: -2.03312017085086261358222928593e-2},
    11: {1: -9.3714243008598732571704021658e-1,
         4: 5.18637242884406370830023853209,
         5: 1.09143734899672957818500254654,
         6: -8.14978701074692612513997267357,
         7: -1.85200656599969598641566180701e1,
         8: 2.27394870993505042818970056734e1,
         9: 2.49360555267965238987089396762,
         10: -3.0467644718982195003823669022},
    12: {1: 2.27331014751653820792359768449,
         4: -1.05344954667372501984066689879e1,
         5: -2.00087205822486249909675718444,
         6: -1.79589318631187989172765950534e1,
         7: 2.79488845294199600508499808837e1,
         8: -2.85899827713502369474065508674,
         9: -8.87285693353062954433549289258,
         10: 1.23605671757943030647266201528e1,
         11: 6.43392746015763530355970484046e-1},
    13: {1: 5.42937341165687622380535766363e-2,
         6: 4.45031289275240888144113950566,
         7: 1.89151789931450038304281599044,
         8: -5.8012039600105847814672114227,
         9: 3.1116436695781989440891606237e-1,
         10: -1.52160949662516078556178806805e-1,
         11: 2.01365400804030348374776537501e-1,
         12: 4.47106157277725905176885569043e-2},
    14: {1: 5.61675022830479523392909219681e-2,
         7: 2.53500210216624811088794765333e-1,
         8: -2.46239037470802489917441475441e-1,
         9: -1.24191423263816360469010140626e-1,
         10: 1.5329179827876569731206322685e-1,
         11: 8.20105229563468988491666602057e-3,
         12: 7.56789766054569976138603589584e-3,
         13: -8.298e-3},
    15: {1: 3.18346481635021405060768473261e-2,
         6: 2.83009096723667755288322961402e-2,
         7: 5.35419883074385676223797384372e-2,
         8: -5.49237485713909884646569340306e-2,
         11: -1.08347328697249322858509316994e-4,
         12: 3.82571090835658412954920192323e-4,
         13: -3.40465008687404560802977114492e-4,
         14: 1.41312443674632500278074618366e-1},
    16: {1: -4.28896301583791923408573538692e-1,
         6: -4.69762141536116384314449447206,
         7: 7.68342119606259904184240953878,
         8: 4.06898981839711007970213554331,
         9: 3.56727187455281109270669543021e-1,
         13: -1.39902416515901462129418009734e-3,
         14: 2.9475147891527723389556272149,
         15: -9.15095847217987001081870187138},
}

# the 5th-order error weights, and the weights of the 3rd-order solution
# where they differ from b
_ERROR5 = {
    1: 0.1312004499419488073250102996e-1,
    6: -0.1225156446376204440720569753e+1,
    7: -0.4957589496572501915214079952,
    8: 0.1664377182454986536961530415e+1,
    9: -0.3503288487499736816886487290,
    10: 0.3341791187130174790297318841,
    11: 0.8192320648511571246570742613e-1,
    12: -0.2235530786388629525884427845e-1,
}
_ORDER3 = {1: 0.244094488188976377952755905512,
           9: 0.733846688281611857341361741547,
           12: 0.220588235294117647058823529412e-1}

# rows 4 to 7 of the 7th-order dense output, F_r = h sum_j d_rj k_j
_DENSE = (
    {1: -0.84289382761090128651353491142e+1,
     6: 0.56671495351937776962531783590,
     7: -0.30689499459498916912797304727e+1,
     8: 0.23846676565120698287728149680e+1,
     9: 0.21170345824450282767155149946e+1,
     10: -0.87139158377797299206789907490,
     11: 0.22404374302607882758541771650e+1,
     12: 0.63157877876946881815570249290,
     13: -0.88990336451333310820698117400e-1,
     14: 0.18148505520854727256656404962e+2,
     15: -0.91946323924783554000451984436e+1,
     16: -0.44360363875948939664310572000e+1},
    {1: 0.10427508642579134603413151009e+2,
     6: 0.24228349177525818288430175319e+3,
     7: 0.16520045171727028198505394887e+3,
     8: -0.37454675472269020279518312152e+3,
     9: -0.22113666853125306036270938578e+2,
     10: 0.77334326684722638389603898808e+1,
     11: -0.30674084731089398182061213626e+2,
     12: -0.93321305264302278729567221706e+1,
     13: 0.15697238121770843886131091075e+2,
     14: -0.31139403219565177677282850411e+2,
     15: -0.93529243588444783865713862664e+1,
     16: 0.35816841486394083752465898540e+2},
    {1: 0.19985053242002433820987653617e+2,
     6: -0.38703730874935176555105901742e+3,
     7: -0.18917813819516756882830838328e+3,
     8: 0.52780815920542364900561016686e+3,
     9: -0.11573902539959630126141871134e+2,
     10: 0.68812326946963000169666922661e+1,
     11: -0.10006050966910838403183860980e+1,
     12: 0.77771377980534432092869265740,
     13: -0.27782057523535084065932004339e+1,
     14: -0.60196695231264120758267380846e+2,
     15: 0.84320405506677161018159903784e+2,
     16: 0.11992291136182789328035130030e+2},
    {1: -0.25693933462703749003312586129e+2,
     6: -0.15418974869023643374053993627e+3,
     7: -0.23152937917604549567536039109e+3,
     8: 0.35763911791061412378285349910e+3,
     9: 0.93405324183624310003907691704e+2,
     10: -0.37458323136451633156875139351e+2,
     11: 0.10409964950896230045147246184e+3,
     12: 0.29840293426660503123344363579e+2,
     13: -0.43533456590011143754432175058e+2,
     14: 0.96324553959188282948394950600e+2,
     15: -0.39177261675615439165231486172e+2,
     16: -0.14972683625798562581422125276e+3},
)

# the stages of a step that its error sums read, and the stages that its
# dense output reads, in the order of the rows of _DENSE
_KEPT = (1, 6, 7, 8, 9, 10, 11, 12, 13)
_STORED = (*_KEPT, 14, 15, 16)
# the weight of stored stage j in dense row r at [j, r - 4]
_DENSE_WEIGHTS = np.array([[row[j] for row in _DENSE] for j in _STORED])

# every weight row of the tableau under the prefix of the names its
# weights take in the generated step: coupling row i as A{i}_{j}, the
# error weights as E{j} and b minus the 3rd-order weights as B{j}
_ROWS = {**{f"A{i}_": row for i, row in _COUPLING.items()},
         "E": _ERROR5,
         "B": {j: b - _ORDER3.get(j, 0.0) for j, b in _COUPLING[13].items()}}


def _terms(prefix, c) -> str:
    """Source text of sum_j w_j a{j}_{c} over the weights w_j of the row
    named by prefix, a{j}_{c} being component c of stage k{j}."""
    return " + ".join(f"{prefix}{j} * a{j}_{c}" for j in _ROWS[prefix])


def _unpack(stem, source, d) -> str:
    """Source text that unpacks the sequence ``source`` into the locals
    {stem}_0 .. {stem}_{d-1}."""
    return "[" + ", ".join(f"{stem}_{c}" for c in range(d)) + f"] = {source}"


def _state(i, d) -> str:
    """Source text of the list y + h sum_j a_ij k_j."""
    return "[" + ", ".join(f"y_{c} + h * ({_terms(f'A{i}_', c)})"
                           for c in range(d)) + "]"


def _stage(i, n, state, d) -> list[str]:
    """Source lines that make stage i at ``state``, the n-th field call
    of its function, and unpack it; a stored stage is also bound to k{i}."""
    point = "t + h" if i == 13 else f"t + {_NODES[i]!r} * h"
    kept = f"k{i} = " if i in _STORED else ""
    return [f"n = {n}", f"{kept}k = f({point}, {state})",
            _unpack(f"a{i}", "k", d)]


def _guarded(before, calls, d) -> list[str]:
    """Source lines of ``before``, then of the stages ``calls`` in a
    ``try`` that turns a failed field evaluation into a
    ``_FieldFailure`` carrying the number of calls made, the failed one
    included, and a stage k of the wrong length into a
    ``DynamicsError``."""
    return [*before, "k = None", "try:", *(f"    {line}" for line in calls),
            "except _FIELD_ERRORS as ex:",
            "    raise _FieldFailure(str(ex), n) from ex",
            "except ValueError:",
            f"    if k is None or len(k) == {d}:",
            "        raise",
            "    raise DynamicsError(f'the field returned {len(k)} "
            f"components for a state of {d}') from None"]


def _function(signature, rows, body, namespace) -> None:
    """Compile one generated function into namespace, its body preceded
    by the weights of the named rows, each bound once to a local."""
    weights = [f"{prefix}{j} = {w!r}" for prefix in rows
               for j, w in _ROWS[prefix].items()]
    code = f"def {signature}:\n" + "".join(f"    {line}\n"
                                           for line in weights + body)
    exec(compile(code, "<dop853>", "exec"), namespace)


@cache
def _dop853(d):
    """Generate the DOP853 step for a state of d components, on first use
    per d, as three functions on lists of floats, each written out as
    straight-line code over the components: every stage is unpacked
    once into locals, and each component's sum has the terms of the
    tableau in the tableau's order, so that the step rounds exactly as
    the same sums over ``zip`` of the components.  Each weight is bound
    once to a local of the function that reads it, rather than written
    in d times, and the functions are compiled one at a time: that keeps
    the transient memory of making them small.

    * ``_stages(f, t, h, y, k1)`` makes stages 2 to 13 of a step of
      signed size h from (t, y), where k1 = f(t, y), and returns y1 and
      the stages ``_KEPT``;
    * ``_error_sums(y, y1, kept, atol, rtol)`` returns s5 and s3, the
      sums of the squared 5th- and 3rd-order error estimates, each
      component over atol + rtol max(|y|, |y1|);
    * ``_dense(f, t, h, y, kept)`` makes stages 14 to 16 and returns the
      stages ``_STORED``, the field's own sequences: the step's 7th-order
      dense output is their linear combination, which
      :func:`_dense_coefficients` makes over many steps at once.

    The functions call the field f themselves, once per stage, with no
    wrapper in between: an ``ExprError`` or ``ModelError`` of f leaves
    as a ``_FieldFailure`` that counts the calls made, and a stage not
    of length d as a ``DynamicsError``."""
    namespace = {"_FIELD_ERRORS": (_expr.ExprError, ModelError),
                 "_FieldFailure": _FieldFailure,
                 "DynamicsError": DynamicsError}
    kept = ", ".join(f"k{j}" for j in _KEPT)
    stages = [line for i in range(2, 13)
              for line in _stage(i, i - 1, _state(i, d), d)]
    stages += [f"y1 = {_state(13, d)}", *_stage(13, 12, "y1", d)]
    unpack = [_unpack("y", "y", d), _unpack("a1", "k1", d)]
    _function("_stages(f, t, h, y, k1)", [f"A{i}_" for i in range(2, 14)],
              _guarded(unpack, stages, d) + [f"return y1, ({kept})"],
              namespace)
    unpack = [f"{kept} = kept",
              *(_unpack(f"a{j}", f"k{j}", d) for j in _KEPT)]
    sums = [_unpack("y", "y", d), _unpack("y1", "y1", d), *unpack,
            "s5 = s3 = 0.0"]
    for c in range(d):
        sums += [f"sc = atol + rtol * max(abs(y_{c}), abs(y1_{c}))",
                 f"e = ({_terms('E', c)}) / sc",
                 "s5 += e * e",
                 f"e = ({_terms('B', c)}) / sc",
                 "s3 += e * e"]
    _function("_error_sums(y, y1, kept, atol, rtol)", ["E", "B"],
              sums + ["return s5, s3"], namespace)
    dense = _guarded([_unpack("y", "y", d), *unpack],
                     [line for i in range(14, 17)
                      for line in _stage(i, i - 13, _state(i, d), d)], d)
    stored = ", ".join(f"k{j}" for j in _STORED)
    _function("_dense(f, t, h, y, kept)", ["A14_", "A15_", "A16_"],
              dense + [f"return ({stored})"], namespace)
    return namespace["_stages"], namespace["_error_sums"], namespace["_dense"]


_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
# PI controller exponents for an 8th-order error estimate
_BETA1 = 0.7 / 8
_BETA2 = 0.4 / 8


# accepted plus rejected steps before an integration gives up
_MAX_STEPS = 1_000_000
_EPS = float(np.finfo(float).eps)
# times per gather of Trajectory.sample: its temporaries (56 d bytes a
# time for the gathered coefficients) stay this size for any count
_CHUNK = 256
# accepted steps whose stages integrate holds, as floats in one buffer,
# before it makes their dense-output coefficients: one array pass per
# this many steps, with temporaries of this many steps' size
_HELD = 64


@dataclass
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12


@dataclass(frozen=True)
class IntegrationStats:
    accepted: int
    rejected: int
    field_evaluations: int
    rtol: float
    atol: float


class Trajectory:
    """Accepted-step samples plus per-step dense-output coefficients.

    Times are strictly monotone in the direction of integration.  Step i
    runs from ``ts[i]`` over the signed length ``h[i]`` and keeps the 7
    coefficients of each component of the 7th-order DOP853 interpolant
    in ``F[i]``, a (d, 7) slice of one (S, d, 7) array; ``sample`` at
    x = (t - ts[i]) / h[i], with u = 1 - x, is ys[i] + (x, xu, x^2 u,
    x^2 u^2, x^3 u^2, x^3 u^3, x^4 u^3) @ F[i].T.
    """

    def __init__(self, ts, ys, h, coefficients, stats: IntegrationStats):
        self.ts = np.asarray(ts, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self.F = np.frombuffer(coefficients).reshape(len(self.h), -1, 7)
        self.stats = stats
        self.direction = 1.0 if self.ts[-1] >= self.ts[0] else -1.0
        self._keys = self.ts * self.direction

    def __len__(self):
        return len(self.ts)

    @property
    def t_start(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def dim(self) -> int:
        return self.ys.shape[1]

    def sample(self, t) -> np.ndarray:
        """Dense-output state at time t (within the covered span), or at
        each time of an array t, one row per time in the order given.
        One ``searchsorted`` locates every time's step; then each chunk
        of up to ``_CHUNK`` times gathers its steps' coefficients and
        takes one stack of (1, 7) @ (7, d) products, each (7, d) factor
        the transposed slice of its step, so that every time rounds as
        it does alone and the temporary arrays stay the chunk's size.
        A time outside the span raises, naming the first one."""
        ts = np.asarray(t, dtype=float)
        if ts.ndim == 0:
            return self.sample(ts[None])[0]
        keys = ts * self.direction
        lo = self._keys[0]
        hi = self._keys[-1]
        slack = 1e-9 * max(1.0, hi - lo)
        outside = np.flatnonzero((keys < lo - slack) | (keys > hi + slack))
        if len(outside):
            raise DynamicsError(
                f"time {float(ts[outside[0]])} outside trajectory span "
                f"[{self.t_start}, {self.t_end}]")
        # inner step ends only: a time in the slack takes an end step
        steps = np.searchsorted(self._keys[1:-1], keys, side="right")
        out = np.empty((len(ts), self.dim))
        for a in range(0, len(ts), _CHUNK):
            idx = steps[a:a + _CHUNK]
            x = np.clip((ts[a:a + _CHUNK] - self.ts[idx]) / self.h[idx],
                        0.0, 1.0)
            xu = x * (1.0 - x)
            xu2 = xu * xu
            xu3 = xu2 * xu
            w = np.stack((x, xu, x * xu, xu2, x * xu2, xu3, x * xu3), axis=1)
            out[a:a + _CHUNK] = self.ys[idx] + np.matmul(
                w[:, None, :], self.F[idx].transpose(0, 2, 1))[:, 0]
        return out

    def rates(self, column: int, cuts: int) -> tuple[np.ndarray, np.ndarray]:
        """The times that cut each step in ``cuts`` equal parts, its ends
        included, and there the time derivative of the interpolant's
        component ``column``; at the ends of a step it is the field's own
        rate."""
        x = np.linspace(0.0, 1.0, cuts + 1)
        u = 1.0 - x
        # d/dx of (x, xu, x^2 u, x^2 u^2, x^3 u^2, x^3 u^3, x^4 u^3)
        dw = np.array([np.ones_like(x), u - x, x * (2 * u - x),
                       2 * x * u * (u - x), x * x * u * (3 * u - 2 * x),
                       3 * (x * u) ** 2 * (u - x),
                       x ** 3 * u * u * (4 * u - 3 * x)])
        h = self.h[:, None]
        F = self.F[:, column]
        return (self.ts[:-1, None] + h * x).ravel(), (F @ dw / h).ravel()


def integrate(field: Callable, y0, t_span, config: IntegratorConfig | None
              = None) -> Trajectory:
    """Integrate y' = field(t, y) over t_span with adaptive DOP853.

    The field takes the state as the list of floats the step runs on
    and returns a sequence of as many floats, which the step unpacks as
    it is: a tuple, a list or a float64 array, whose scalars round as
    floats do.  One field evaluation is one call of ``field``, made by
    the step generated for the state's length (:func:`_dop853`), and
    ``stats.field_evaluations`` is the number of calls made.  The error
    of a step of size h is |h| s5 / sqrt((s5 + 0.01 s3) d) for a state
    of d components, and a step is accepted when it is at most 1.  An
    accepted step's stages ``_STORED`` are copied into one float64
    buffer, and every ``_HELD`` steps :func:`_dense_coefficients` makes
    the held steps' dense-output coefficients in one array pass and
    appends them to one float64 buffer, the orbit's (S, d, 7) array.

    Raises :class:`DynamicsError` unless atol > 0 and rtol >= 0, both
    finite, and the span's ends are finite and distinct, or when the
    field returns a sequence not of y0's length, and
    :class:`IntegrationError` on step underflow or when the field fails
    to evaluate (for example on hitting the singular set of the
    separation matrix); the error carries the partial trajectory.
    """
    cfg = config or IntegratorConfig()
    atol, rtol = cfg.atol, cfg.rtol
    if not (0.0 < atol < math.inf and 0.0 <= rtol < math.inf):
        raise DynamicsError(f"invalid tolerances atol={atol!r}, "
                            f"rtol={rtol!r}: atol must be positive, rtol "
                            "non-negative, both finite")
    y = np.asarray(y0, dtype=float).tolist()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DynamicsError(f"non-finite integration span {(t0, t1)!r}")
    if t1 == t0:
        raise DynamicsError("degenerate integration span")
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)

    nfev = 0

    def f(t, yv):
        """The field at the initial state and at the trial state of the
        initial step; the steps call it themselves."""
        nonlocal nfev
        nfev += 1
        try:
            return field(t, yv)
        except (_expr.ExprError, ModelError) as ex:
            raise _FieldFailure(str(ex)) from ex

    ts = [t0]
    ys = [y]
    steps = []  # the signed length of each accepted step
    coeffs = array("d")  # and its 7 d dense-output coefficients
    held = array("d")  # the stages _STORED of the steps not yet in coeffs
    accepted = 0
    rejected = 0

    def keep():  # the held steps' coefficients into coeffs
        n = len(held) // (len(_STORED) * len(y))
        coeffs.frombytes(_dense_coefficients(
            np.array(ys[-n - 1:]), np.array(steps[-n:]),
            np.frombuffer(held).reshape(n, len(_STORED), len(y))).tobytes())
        del held[:]

    def trajectory():
        if held:
            keep()
        stats = IntegrationStats(accepted, rejected, nfev, rtol, atol)
        return Trajectory(ts, ys, steps, coeffs, stats)

    def bail(reason, t_last):
        orbit = trajectory() if steps else None
        raise IntegrationError(reason, t_last, ys[-1], orbit)

    try:
        k1 = f(t0, y)
    except _FieldFailure as ff:
        raise IntegrationError(
            f"field evaluation failed at the initial state: {ff}",
            t0, y, None) from None
    if len(k1) != len(y):
        raise DynamicsError(f"the field returned {len(k1)} components for "
                            f"a state of {len(y)}")
    if not all(map(math.isfinite, k1)):
        raise IntegrationError("field not finite at the initial state",
                               t0, y, None)

    stages, error_sums, dense = _dop853(len(y))
    h = _initial_step(f, t0, y, k1, direction, cfg, span)
    t = t0
    err_prev = 1e-4

    while (t - t1) * direction < 0.0:
        if accepted + rejected >= _MAX_STEPS:
            bail("step budget exhausted", t)
        h = min(h, span)
        if h * (1 + 1e-12) >= abs(t1 - t):
            h = abs(t1 - t)
        hs = h * direction
        hmin = 16 * _EPS * max(abs(t), abs(t1))
        if h <= hmin:
            bail("step size underflow (possible singularity or "
                 "vanishing separation determinant nearby)", t)

        try:
            y1, kept = stages(field, t, hs, y, k1)
            nfev += 12
            err = _error_norm(error_sums, h, y, y1, kept, atol, rtol)
            if err <= 1.0:
                ks = dense(field, t, hs, y, kept)
                nfev += 3
        except _FieldFailure as ff:
            # try to creep toward the failure with smaller steps
            nfev += ff.calls
            rejected += 1
            h *= _FACTOR_MIN
            if h <= hmin:
                bail(f"field evaluation failed: {ff}", t)
            continue

        if err <= 1.0:
            steps.append(hs)
            held.extend(chain.from_iterable(ks))
            t = t1 if h == abs(t1 - t) else t + hs
            y, k1 = y1, kept[-1]  # first-same-as-last
            ts.append(t)
            ys.append(y)
            if len(steps) % _HELD == 0:
                keep()
            accepted += 1
            if err == 0.0:
                factor = _FACTOR_MAX
            else:
                factor = (_SAFETY * err ** (-_BETA1)
                          * err_prev ** _BETA2)
            h *= min(_FACTOR_MAX, max(_FACTOR_MIN, factor))
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
            h *= max(_FACTOR_MIN, min(1.0, _SAFETY * err ** (-_BETA1)))

    return trajectory()


class _FieldFailure(Exception):
    """The field failed to evaluate; the message says why, and ``calls``
    counts the field calls made since the last count, the failed one
    included."""

    def __init__(self, message: str, calls: int = 1):
        super().__init__(message)
        self.calls = calls


def _error_norm(error_sums, h, y, y1, kept, atol, rtol):
    """The DOP853 error |h| s5 / sqrt((s5 + 0.01 s3) d) of a step of size
    h, inf when it is not a number."""
    s5, s3 = error_sums(y, y1, kept, atol, rtol)
    deno = s5 + 0.01 * s3
    if deno == 0.0:
        return 0.0
    err = h * s5 / math.sqrt(deno * len(y))
    return math.inf if math.isnan(err) else err


def _dense_coefficients(ys, h, stages):
    """The C-ordered (S, d, 7) array ``Trajectory.F`` of the 7 dense-output
    coefficients of each component at each of S steps, from the states
    ys (S + 1, d), the signed step lengths h (S,) and each step's stages
    ``_STORED`` (S, 12, d).  With dy = y1 - y they are dy, h k1 - dy,
    2 dy - h (k1 + k13) and h sum_j d_rj k_j for the rows r of
    ``_DENSE``, its terms added left to right in the tableau's order
    (Hairer, Norsett & Wanner, *Solving ODEs I*, II.6).  Every array op
    is the IEEE op of the same sum on floats, so each coefficient has
    that sum's bits, and an overflow gives its inf or nan, unwarned.
    The four sums run over the stages made stage-major, so that each op
    covers all S * d components in one contiguous sweep."""
    S, n, d = stages.shape
    h = h[:, None]
    k1, k13 = stages[:, 0], stages[:, _STORED.index(13)]
    F = np.empty((S, d, 7))
    with np.errstate(over="ignore", invalid="ignore"):
        dy = ys[1:] - ys[:-1]
        F[..., 0] = dy
        F[..., 1] = h * k1 - dy
        F[..., 2] = 2.0 * dy - h * (k1 + k13)
        k = stages.transpose(1, 0, 2).reshape(n, S * d)
        rows = _DENSE_WEIGHTS[0][:, None] * k[0]
        for j in range(1, n):
            rows += _DENSE_WEIGHTS[j][:, None] * k[j]
        rows = rows.reshape(4, S, d)
        rows *= h
        F[..., 3:] = rows.transpose(1, 2, 0)
    return F


def _initial_step(f, t0, y0, f0, direction, cfg, span):
    y0, f0 = np.array(y0), np.array(f0)
    scale = cfg.atol + cfg.rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    try:
        f1 = np.array(f(t0 + h0 * direction,
                        (y0 + h0 * direction * f0).tolist()))
        d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    except _FieldFailure:
        d2 = math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h = min(100 * h0, h1, span)
    if not (h > 0.0 and math.isfinite(h)):
        h = 1e-6 * span
    return h


# ---------------------------------------------------------------------------
# Hamiltonian vector fields

def full_field_callable(sys: TwistedSystem) -> Callable:
    """The generated (t, y) -> y' kernel over the full phase space and
    any block clocks, for integrate."""
    return sys.jet.field  # generated now, not inside the first step


def reduced_field_callable(sys: TwistedSystem, r: int, c) -> Callable:
    """The generated (t, y) -> y' kernel of block r's reduced system,
    with the separation constants c bound by ``partial``."""
    c = _model._reduced_constants(sys, r, c).tolist()
    # the kernel is generated now, not inside the first step
    return partial(sys.jet.reduced(r), c)


# ---------------------------------------------------------------------------
# block clocks

@dataclass(frozen=True)
class BlockClock:
    """Rescaled time tau_r(t) along a full-system orbit, with
    tau_r(t_start) = 0 and d(tau_r)/dt = alpha^r(q(t)): the column
    ``column`` = 2N + r - 1 of the orbit's trajectory, integrated with
    q and p.

    The sign of alpha^r along the orbit (``initial_sign``,
    ``sign_changed`` and ``first_sign_change``) is scanned when one of
    them is first read: only the orbit comparison reads them.  The scan
    reads the clock's rate off the interpolant on each step cut in 64
    and checks alpha^r itself only where that rate leaves the initial
    sign."""

    r: int
    trajectory: Trajectory = dataclass_field(repr=False)
    column: int
    alpha: Callable[[float], float] = dataclass_field(repr=False,
                                                      compare=False)

    def tau(self, t):
        """tau_r at time t, or at each time of an array t."""
        tau = self.trajectory.sample(t)[..., self.column]
        return tau if np.ndim(t) else float(tau)

    @property
    def initial_sign(self) -> float:
        return self._signs[0]

    @property
    def sign_changed(self) -> bool:
        return self._signs[1]

    @property
    def first_sign_change(self) -> float | None:
        return self._signs[2]

    @cached_property
    def _signs(self):
        traj, alpha = self.trajectory, self.alpha
        a0 = alpha(traj.t_start)
        s0 = math.copysign(1.0, a0) if a0 != 0.0 else 0.0
        if s0 == 0.0:
            return s0, True, traj.t_start
        # the points of a fine grid where the clock's rate, read off the
        # interpolant, leaves the initial sign; the first one where alpha
        # itself has left it closes the bracket
        times, rates = traj.rates(self.column, 64)
        for i in np.flatnonzero(rates * s0 <= 0.0):
            t = float(times[i])
            a = alpha(t)
            if a == 0.0 or (a > 0) != (s0 > 0):
                lo, hi = float(times[max(i - 1, 0)]), t
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    am = alpha(mid)
                    if am == 0.0:
                        hi = mid
                        break
                    bracket = lo, hi
                    if (am > 0) == (s0 > 0):
                        lo = mid
                    else:
                        hi = mid
                    if (lo, hi) == bracket:
                        break  # every later halving would repeat this one
                return s0, True, hi
        return s0, False, None


def _alpha_on_trajectory(sys: TwistedSystem, trajectory: Trajectory, r: int):
    jet, N = sys.jet, sys.dim

    def alpha(t):
        return float(jet.twist(trajectory.sample(t)[:N].tolist()).alpha[r - 1])

    return alpha


def block_clock(sys: TwistedSystem, trajectory: Trajectory,
                r: int) -> BlockClock:
    """The block-r clock of an orbit integrated with its clocks, whose
    state is (q, p, tau_1 .. tau_n); an orbit of any other width raises
    :class:`DynamicsError`."""
    if not 1 <= r <= sys.n:
        raise _model.BlockIndexError(
            f"block index {r} out of range 1..{sys.n}")
    N = sys.dim
    if trajectory.dim != 2 * N + sys.n:
        raise DynamicsError(
            f"an orbit of {trajectory.dim} components has no block clocks; "
            f"integrate the {2 * N + sys.n} of (q, p) and its clocks")
    return BlockClock(r, trajectory, 2 * N + r - 1,
                      _alpha_on_trajectory(sys, trajectory, r))


# ---------------------------------------------------------------------------
# orbit comparison

@dataclass
class ComparisonReport:
    """Quantitative match between the block projection of a full orbit
    and the reduced orbit run in its own rescaled time."""

    r: int
    sup: np.ndarray            # per block coordinate then momentum
    rms: np.ndarray
    samples: int
    restricted: bool            # window cut at a twist sign change
    sign_changed: bool
    t_window: tuple[float, float]
    tau_window: tuple[float, float]
    rtol: float
    atol: float
    times: np.ndarray = dataclass_field(repr=False, default=None)
    taus: np.ndarray = dataclass_field(repr=False, default=None)
    full_states: np.ndarray = dataclass_field(repr=False, default=None)
    reduced_states: np.ndarray = dataclass_field(repr=False, default=None)

    @property
    def sup_max(self) -> float:
        return float(np.max(self.sup))


def compare_block_orbits(sys: TwistedSystem, P0: PhasePoint, r: int,
                         t_span, config: IntegratorConfig | None = None,
                         samples: int = 600) -> ComparisonReport:
    """Integrate the full system from P0, rescale time with the block-r
    clock, integrate the block-r reduced system from the block slice of
    P0, and report per-coordinate sup/RMS discrepancies at matched
    times.

    If the twist function alpha^r changes sign along the orbit the
    comparison is restricted to the maximal initial constant-sign
    segment and the report is flagged.
    """
    cfg = config or IntegratorConfig()
    if samples < 500:
        samples = 500

    y0 = np.concatenate([P0.as_array(), np.zeros(sys.n)])  # clocks at 0
    full = integrate(full_field_callable(sys), y0, t_span, cfg)
    c = _model.separation_constants(sys, P0)
    clock = block_clock(sys, full, r)

    t0 = full.t_start
    t_end = full.t_end
    restricted = False
    if clock.sign_changed:
        if clock.initial_sign == 0.0:
            raise EmptySegmentError(
                f"twist function alpha^{r} vanishes at the initial point; "
                "no constant-sign segment to compare on")
        t_end = clock.first_sign_change
        restricted = True
        if abs(t_end - t0) <= 1e-9 * abs(full.t_end - t0):
            raise EmptySegmentError(
                f"twist function alpha^{r} changes sign immediately; "
                "the comparison segment is empty")

    tau_end = clock.tau(t_end)
    if tau_end == 0.0:
        raise EmptySegmentError(
            f"block-{r} clock does not advance on the comparison segment")

    idx = list(sys.structure.block_range(r))
    cols = idx + [sys.dim + k for k in idx]  # block r's q, then its p
    reduced = integrate(reduced_field_callable(sys, r, c), y0[cols],
                        (0.0, tau_end), cfg)

    times = np.linspace(t0, t_end, samples)
    states = full.sample(times)
    # clamp dense-output jitter at the ends of the reduced span
    lo, hi = sorted((0.0, tau_end))
    taus = np.clip(states[:, clock.column], lo, hi)
    full_states = states[:, cols]
    reduced_states = reduced.sample(taus)

    diff = np.abs(full_states - reduced_states)
    return ComparisonReport(
        r=r,
        sup=diff.max(axis=0),
        rms=np.sqrt((diff ** 2).mean(axis=0)),
        samples=samples,
        restricted=restricted,
        sign_changed=clock.sign_changed,
        t_window=(t0, float(t_end)),
        tau_window=(0.0, float(tau_end)),
        rtol=cfg.rtol,
        atol=cfg.atol,
        times=times,
        taus=taus,
        full_states=full_states,
        reduced_states=reduced_states,
    )
