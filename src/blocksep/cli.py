"""Command-line front end.

Subcommands: simulate, compare, verify, curvature, list.  Exit codes:
0 success, 1 verification failure, 2 configuration error, 3 numerical
failure.  Every command echoes the fully resolved configuration at the
top of its report so a run can be reproduced from its output alone.
CSV and SVG output is deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence

import numpy as np

from . import catalog as _catalog
from . import expr as _expr
from . import geometry as _geo
from .catalog import CatalogEntry, CatalogError, MetricFamily
from .config import ConfigError, RunConfig, inline_probe_box, load_config
from .dynamics import (DynamicsError, IntegrationError, IntegratorConfig,
                       block_clock, compare_block_orbits, full_field_callable,
                       integrate)
from .model import (ModelError, PhasePoint, StackelMatrix, TwistedSystem,
                    cond_warning, invert_with_condition)

__all__ = ["main", "CheckResult", "VerificationReport", "ProbeError",
           "EXIT_OK", "EXIT_VERIFY", "EXIT_CONFIG", "EXIT_NUMERIC"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    where: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


@dataclass(frozen=True)
class VerificationReport:
    header: tuple[str, ...]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def human(self) -> str:
        lines = [f"# {h}" for h in self.header]
        width = max((len(c.name) for c in self.checks), default=4)
        lines.append("")
        lines.append(f"{'check':<{width}}  {'residual':>12}  "
                     f"{'threshold':>12}  status")
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = f"  ({c.where})" if c.where and not c.passed else ""
            lines.append(f"{c.name:<{width}}  {c.residual:>12.4e}  "
                         f"{c.threshold:>12.4e}  {status}{extra}")
        lines.append("")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)

    def machine(self) -> str:
        lines = ["name,residual,threshold,status,where"]
        for c in self.checks:
            status = "pass" if c.passed else "fail"
            lines.append(f"{c.name},{c.residual:.17g},"
                         f"{c.threshold:.17g},{status},{c.where}")
        return "\n".join(lines)


class ProbeError(Exception):
    """A check could not be evaluated at one of its probe points; the
    message names the check and the point after the original error."""

    def __init__(self, check: str, q, error: Exception):
        self.check = check
        if isinstance(q, PhasePoint):
            q = q.q
        self.point = tuple(float(v) for v in q)
        self.error = error
        super().__init__(f"{error} (in check {check} at q={self.point})")


_EVALUATION_ERRORS = (ModelError, _expr.ExprError, _geo.GeometryError)


# Points per call of a point-stacked geometry function: a block runs as
# fast as one stack of every point, while its arrays stay small (a
# 1,000-point riemann stack peaks at about 5 MB).
_BLOCK = 128
# Times per block of simulate's CSV rows, each sample one gather; 512
# raised the peak RSS of 3,000 rows 0.3-0.5 MB for no clear speed-up
_CSV_BLOCK = 256


def _blocked(check: str, points, fn) -> np.ndarray:
    """fn(block) for each block of up to ``_BLOCK`` points (positions,
    or phase points): a check's residuals at every point.  A block that
    fails is run again one point at a time, so that the error and the
    point named are those of the first point that fails on its own, as
    if every point had had its own call."""
    out = []
    for i in range(0, len(points), _BLOCK):
        block = points[i:i + _BLOCK]
        try:
            out.append(fn(block))
        except _EVALUATION_ERRORS as ex:
            for q in block:
                try:
                    fn([q])
                except _EVALUATION_ERRORS as one:
                    raise ProbeError(check, q, one) from one
            raise ProbeError(check, block[0], ex) from ex
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# svg plotting (minimal polylines, no external tooling)

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _bounds(values):
    lo = min(values)
    hi = max(values)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = 0.0, 1.0
    if hi == lo:
        lo -= 0.5
        hi += 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def write_polyline_svg(path: str, series, title: str, xlabel: str,
                       ylabel: str) -> None:
    """Plot (label, xs, ys) series as polylines with axes and labels."""
    width, height = 640, 480
    left, right, top, bottom = 64, 620, 44, 430
    all_x = [float(v) for _, xs, _ in series for v in xs]
    all_y = [float(v) for _, _, ys in series for v in ys]
    x0, x1 = _bounds(all_x)
    y0, y1 = _bounds(all_y)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{(left + right) / 2:.0f}" y="24" '
           f'text-anchor="middle" font-size="15">{_escape(title)}</text>',
           f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
           f'stroke="black"/>',
           f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
           f'stroke="black"/>',
           f'<text x="{(left + right) / 2:.0f}" y="466" '
           f'text-anchor="middle" font-size="12">{_escape(xlabel)}</text>',
           f'<text x="16" y="{(top + bottom) / 2:.0f}" text-anchor="middle" '
           f'font-size="12" transform="rotate(-90 16 '
           f'{(top + bottom) / 2:.0f})">{_escape(ylabel)}</text>',
           f'<text x="{left}" y="446" text-anchor="middle" '
           f'font-size="10">{x0:.4g}</text>',
           f'<text x="{right}" y="446" text-anchor="middle" '
           f'font-size="10">{x1:.4g}</text>',
           f'<text x="{left - 6}" y="{bottom}" text-anchor="end" '
           f'font-size="10">{y0:.4g}</text>',
           f'<text x="{left - 6}" y="{top + 4}" text-anchor="end" '
           f'font-size="10">{y1:.4g}</text>']
    for k, (label, xs, ys) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        # canvas coordinates, one row per point, written by one format
        xy = ((np.column_stack([xs, ys]).astype(float) - (x0, y0))
              / (x1 - x0, y1 - y0) * (right - left, top - bottom)
              + (left, bottom))
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{color}" stroke-width="1.2"/>')
        out.append(f'<text x="{right - 8}" y="{top + 16 + 14 * k}" '
                   f'text-anchor="end" font-size="11" '
                   f'fill="{color}">{_escape(label)}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# shared plumbing

@dataclass(frozen=True)
class _Resolved:
    label: str
    system: TwistedSystem
    initial: PhasePoint
    entry: Optional[CatalogEntry]


def _corrupted(sys_: TwistedSystem, spec) -> TwistedSystem:
    r, a, e = spec
    n = sys_.n
    if not (1 <= r <= n and 1 <= a <= n):
        raise ConfigError(
            f"corrupt indices ({r},{a}) outside the {n}x{n} separation "
            "matrix")
    rows = [list(row) for row in sys_.stackel.entries]
    rows[r - 1][a - 1] = e
    # deliberately skip structural validation: the point of the knob is
    # to feed the verifier a broken system
    return TwistedSystem(sys_.structure, StackelMatrix(rows), sys_.blocks,
                         sys_.probes)


def _load_catalog(cfg: RunConfig):
    try:
        return _catalog.load(cfg.system_name, **cfg.system_params)
    except TypeError as ex:
        raise ConfigError(
            f"bad parameters for catalog entry {cfg.system_name!r}: {ex}"
        ) from None
    except ModelError as ex:
        raise ConfigError(str(ex)) from None


def _resolve_dynamic(cfg: RunConfig) -> _Resolved:
    if cfg.inline is not None:
        if cfg.initial is None:
            raise ConfigError(
                "an inline system needs [initial] q (and optionally p)")
        sys_ = cfg.inline
        entry = None
        label = "inline"
        initial = cfg.initial
    else:
        obj = _load_catalog(cfg)
        if isinstance(obj, MetricFamily):
            raise ConfigError(
                f"catalog entry {cfg.system_name!r} is a metric family; "
                "only the curvature command applies to it")
        entry = obj
        sys_ = entry.system
        label = entry.name
        initial = cfg.initial if cfg.initial is not None \
            else entry.initial_point
    if len(initial.q) != sys_.dim:
        raise ConfigError(
            f"initial point has {len(initial.q)} coordinates for the "
            f"{sys_.dim}-dimensional system {label!r}")
    # a phase-portrait pair is checked whether or not it is drawn
    for qi, pj in cfg.pairs or ():
        if not (1 <= qi <= sys_.dim and 1 <= pj <= sys_.dim):
            raise ConfigError(
                f"plot pair q{qi}:p{pj} outside dimension {sys_.dim}")
    if cfg.corrupt is not None:
        sys_ = _corrupted(sys_, cfg.corrupt)
    return _Resolved(label, sys_, initial, entry)


def _ensure_out(cfg: RunConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _header_lines(cfg: RunConfig, res: _Resolved) -> tuple[str, ...]:
    lines = list(cfg.echo())
    if cfg.initial is None:
        lines.append("initial.q = " + ", ".join(
            f"{v:.17g}" for v in res.initial.q) + "  (catalog default)")
        lines.append("initial.p = " + ", ".join(
            f"{v:.17g}" for v in res.initial.p) + "  (catalog default)")
    return tuple(lines)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _sample_positions(res: _Resolved, cfg: RunConfig):
    if res.entry is not None and res.entry.sample_box is not None:
        return res.entry.sample(cfg.points, cfg.seed)
    return _geo.rejection_sample(inline_probe_box(res.initial.q),
                                 cfg.points, cfg.seed)


def _phase_probes(res: _Resolved, cfg: RunConfig):
    positions = _sample_positions(res, cfg)
    momenta = _geo.rejection_sample(((-1.0, 1.0),) * res.system.dim,
                                    len(positions), cfg.seed + 1)
    return [PhasePoint(q, p) for q, p in zip(positions, momenta)]


# ---------------------------------------------------------------------------
# simulate

def _csv_header(sys_: TwistedSystem) -> str:
    names = ["t"]
    names += [f"q{i + 1}" for i in range(sys_.dim)]
    names += [f"p{i + 1}" for i in range(sys_.dim)]
    names += [f"tau_{r}" for r in range(1, sys_.n + 1)]
    names += ["H"] + [f"K_{a}" for a in range(2, sys_.n + 1)]
    return ",".join(names)


def _csv_block(sys_: TwistedSystem, traj, clocks, ts):
    """The values of the CSV rows at the times ts and the cond of S at
    each, over arrays: one dense-output sample, one per clock, one stack
    call each of S and of the block energies E on the sampled (P, 2N)
    states, one gated inverse of the stacked S and one stacked row dot
    K_a = (S^-1)[a] @ E at each row."""
    N = sys_.dim
    states = traj.sample(ts)[:, :2 * N]
    taus = np.stack([c.tau(ts) for c in clocks], axis=1)
    jet, qs = sys_.jet, states[:, :N]
    M, cond = invert_with_condition(jet.stackel(qs), qs)
    E = jet.energies(states)
    # (1, n) @ (n, 1) per row and integral rounds as (S^-1)[a] @ E does
    K = np.matmul(M[..., :, None, :], E[:, None, :, None])[..., 0, 0]
    return np.concatenate([ts[:, None], states, taus, K], axis=1), cond


def _csv_rows(sys_: TwistedSystem, traj, clocks, times):
    """The CSV rows at the given times as text, one string of rows per
    block, and as one array of their values, and the cond of S at each
    row, made by :func:`_csv_block` per block of up to ``_CSV_BLOCK``
    times and formatted by one ``%`` per block.  A block that fails is
    made again row by row, so that the error raised is that of the
    first row that fails on its own, and within a row that of its twist
    before that of its energies."""
    N, n = sys_.dim, sys_.n
    fmt = ",".join(["%.17g"] * (1 + 2 * N + 2 * n))
    text, conds = [], []
    values = np.empty((len(times), 1 + 2 * N + 2 * n))
    for i in range(0, len(times), _CSV_BLOCK):
        ts = np.asarray(times[i:i + _CSV_BLOCK], dtype=float)
        try:
            block, cond = _csv_block(sys_, traj, clocks, ts)
        except _EVALUATION_ERRORS + (DynamicsError,):
            block, cond = map(np.concatenate, zip(*(
                _csv_block(sys_, traj, clocks, t[None]) for t in ts)))
        text.append("\n".join([fmt] * len(ts))
                    % tuple(block.ravel().tolist()))
        values[i:i + len(ts)] = block
        conds.append(cond)
    return text, values, np.concatenate(conds)


def cmd_simulate(cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    res = _resolve_dynamic(cfg)
    N, n = res.system.dim, res.system.n
    pairs = ()
    if cfg.svg:
        pairs = cfg.pairs or tuple((i + 1, i + 1) for i in range(N))
    out_dir = _ensure_out(cfg)
    csv_path = os.path.join(out_dir, "orbit.csv")
    header = [f"# {line}" for line in _header_lines(cfg, res)]
    print("\n".join(header), file=out)

    icfg = IntegratorConfig(rtol=cfg.rtol, atol=cfg.atol)
    field = full_field_callable(res.system)
    # the orbit carries its block clocks, tau_r(t0) = 0
    y0 = np.concatenate([res.initial.as_array(), np.zeros(n)])
    try:
        traj = integrate(field, y0, cfg.t_span, icfg)
    except IntegrationError as ex:
        lines = [_csv_header(res.system)]
        if ex.partial is not None:
            t_good = np.unique(np.linspace(cfg.t_span[0], ex.t_last,
                                           cfg.samples))
            clocks = [block_clock(res.system, ex.partial, r)
                      for r in range(1, n + 1)]
            lines += _csv_rows(res.system, ex.partial, clocks, t_good)[0]
        _write(csv_path, "\n".join(lines))
        print(f"simulate: FAILED integration of {res.label!r}: {ex}",
              file=err)
        print(f"simulate: partial orbit written to {csv_path}", file=err)
        return EXIT_NUMERIC

    clocks = [block_clock(res.system, traj, r) for r in range(1, n + 1)]
    times = np.linspace(cfg.t_span[0], cfg.t_span[1], cfg.samples)
    text, values, cond = _csv_rows(res.system, traj, clocks, times)
    _write(csv_path, "\n".join([_csv_header(res.system)] + text))
    warning = cond_warning(cond)
    if warning is not None:
        t = times[int(np.argmax(cond))]
        print(f"simulate: {warning} at t = {t:.6g}", file=err)

    h_vals = values[:, 1 + 2 * N + n]
    drift = float(np.max(np.abs(h_vals - h_vals[0])))
    print(f"simulate: {res.label}, {len(times)} rows -> {csv_path}",
          file=out)
    print(f"simulate: energy drift max |H - H(0)| = {drift:.6e}", file=out)

    # the portraits read the q and p columns of the CSV rows
    for qi, pj in pairs:
        path = os.path.join(out_dir, f"phase_q{qi}_p{pj}.svg")
        write_polyline_svg(
            path, [("orbit", values[:, qi], values[:, N + pj])],
            f"{res.label}: phase portrait", f"q{qi}", f"p{pj}")
        print(f"simulate: wrote {path}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare

def cmd_compare(cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    res = _resolve_dynamic(cfg)
    r = cfg.block
    if not (1 <= r <= res.system.n):
        raise ConfigError(
            f"block {r} out of range 1..{res.system.n} for {res.label!r}")
    out_dir = _ensure_out(cfg)
    print("\n".join(f"# {line}" for line in _header_lines(cfg, res)),
          file=out)

    icfg = IntegratorConfig(rtol=cfg.rtol, atol=cfg.atol)
    report = compare_block_orbits(res.system, res.initial, r, cfg.t_span,
                                  icfg, samples=cfg.samples)

    names = res.system.structure.coords[r - 1]
    m = len(names)
    print(f"compare: block {r} of {res.label} over "
          f"t in [{report.t_window[0]:.6g}, {report.t_window[1]:.6g}], "
          f"tau in [{report.tau_window[0]:.6g}, "
          f"{report.tau_window[1]:.6g}]", file=out)
    if report.restricted:
        print("compare: twist sign change; comparison restricted to the "
              "initial constant-sign window", file=out)
    for k, nm in enumerate(names):
        print(f"compare: sup|{nm}| = {report.sup[k]:.6e}   "
              f"sup|p_{nm}| = {report.sup[m + k]:.6e}", file=out)
    print(f"compare: sup discrepancy = {report.sup_max:.6e} "
          f"(threshold {cfg.thresholds['compare']:.1e})", file=out)

    for k, nm in enumerate(names):
        overlay = os.path.join(out_dir, f"overlay_block{r}_{nm}.svg")
        write_polyline_svg(
            overlay,
            [("projected full orbit", report.full_states[:, k],
              report.full_states[:, m + k]),
             ("reduced orbit", report.reduced_states[:, k],
              report.reduced_states[:, m + k])],
            f"{res.label}: block {r} orbit overlay",
            nm, f"p_{nm}")
        print(f"compare: wrote {overlay}", file=out)
    series_t = os.path.join(out_dir, f"series_t_block{r}.svg")
    write_polyline_svg(
        series_t,
        [(f"{nm}(t) full", report.times, report.full_states[:, k])
         for k, nm in enumerate(names)],
        f"{res.label}: block {r} against laboratory time",
        "t", "block coordinates")
    series_tau = os.path.join(out_dir, f"series_tau_block{r}.svg")
    write_polyline_svg(
        series_tau,
        [(f"{nm}(tau) reduced", report.taus, report.reduced_states[:, k])
         for k, nm in enumerate(names)],
        f"{res.label}: block {r} against its own clock",
        f"tau_{r}", "block coordinates")
    print(f"compare: wrote {series_t}", file=out)
    print(f"compare: wrote {series_tau}", file=out)

    ok = report.sup_max <= cfg.thresholds["compare"]
    print("compare: " + ("pass" if ok else "FAIL"), file=out)
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# verify

def _row(name: str, threshold: float, residuals, points) -> CheckResult:
    """The report row of a check from its residual at each point: the
    largest residual and where it was found, as ``worst at (v1 v2
    ...)``.  A nan wins, so that the check fails, and of equal values
    the first wins."""
    values = np.asarray(residuals, dtype=float)
    i = int(np.argmax(values))  # the first nan, if there is one
    where = "worst at (" + " ".join(f"{v:.6g}" for v in points[i]) + ")"
    return CheckResult(name, float(values[i]), threshold, where)


def _verify_checks(res: _Resolved, cfg: RunConfig,
                   err) -> list[CheckResult]:
    """The report rows of ``verify``; the twist's note on its largest
    cond at the probes, if any, goes to ``err`` with its probe."""
    sys_ = res.system
    n = sys_.n
    th = cfg.thresholds
    checks: list[CheckResult] = []
    probes = _phase_probes(res, cfg)
    qs = [P.q for P in probes]

    scalars = [_geo.first_integral_scalar(sys_, a) for a in range(1, n + 1)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    names = [f"bracket({'H' if i == 0 else f'K_{i + 1}'},K_{j + 1})"
             for i, j in pairs]

    def brackets(ps):
        at = _geo.PhaseStack(sys_.structure.names, ps)  # gradients once
        return np.abs([_geo.poisson_bracket(scalars[i], scalars[j], at)
                       for i, j in pairs]).T

    # Each integral divides by det S and holds every potential, so a
    # probe where any bracket fails fails H's gradients, taken first.
    rows = _blocked(names[0], probes, brackets) if pairs else ()
    for k, name in enumerate(names):
        checks.append(_row(name, th["bracket"], rows[:, k], qs))

    names = [f"eigenvalue-gradient K_{a}" for a in range(2, n + 1)]
    kinds = ("metric", "potential")
    worst = []  # each block's largest cond and its probe

    def separability(xs):
        # one position jet, and with it one twist, for every row here
        at = sys_.jet.positions(xs)
        k = int(np.argmax(at.twist.cond))
        worst.append((at.twist.cond[k], xs[k]))
        rows = [_geo.block_eisenhart_residual(sys_, a, at)
                for a in range(2, n + 1)]
        out = _geo.block_levi_civita_residual(sys_, at)
        return np.stack(rows + [out[f"{kind}_residual"] for kind in kinds],
                        axis=1)

    # A probe where any of these rows fails fails K_2's, which is the
    # first to run at it: the position jet, the twist and its zeros are
    # K_2's checks.  So that row names the failure.
    rows = _blocked(names[0] if names else "block-connection", qs,
                    separability)
    names += [f"block-connection {kind}" for kind in kinds]
    for k, name in enumerate(names):
        checks.append(_row(name, th["residual"], rows[:, k], qs))
    cond, probe = max(worst, key=lambda t: t[0])
    warning = cond_warning(cond)
    if warning is not None:
        where = " ".join(f"{v:.6g}" for v in probe)
        print(f"verify: {warning} at probe ({where})", file=err)

    if res.entry is not None and res.entry.cartesian is not None:
        ref = res.entry.cartesian
        pts = _geo.rejection_sample(ref.sample_box, cfg.points,
                                    cfg.seed + 2, predicate=ref.regular)
        for idx, scalar in enumerate(ref.integrals, start=2):
            k_cov, k_mix = map(scalar.tensor.tagged, ("covariant", "mixed"))
            battery = (
                ("killing", th["killing"],
                 lambda xs: _geo.killing_residual(ref.flat, k_cov, xs)),
                ("torsion-normality", th["tensor"],
                 lambda xs: np.max(_geo.tsn_residuals(k_mix, ref.flat, xs),
                                   axis=1)),
                ("haantjes-condition", th["tensor"],
                 lambda xs: _geo.haantjes(k_mix, xs)["condition_residual"]),
                ("characteristic", th["tensor"],
                 lambda xs: _geo.characteristic_condition(
                     k_mix, ref.potential, ref.flat, xs)),
            )
            for kind, bound, fn in battery:
                name = f"{kind} K_{idx}"
                checks.append(_row(name, bound, _blocked(name, pts, fn),
                                   pts))
    return checks


def cmd_verify(cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    res = _resolve_dynamic(cfg)
    out_dir = _ensure_out(cfg)
    report = VerificationReport(_header_lines(cfg, res),
                                tuple(_verify_checks(res, cfg, err)))
    print(report.human(), file=out)
    _write(os.path.join(out_dir, "verify_report.txt"), report.human())
    _write(os.path.join(out_dir, "verify_report.csv"), report.machine())
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# curvature

def _curvature_checks(family: MetricFamily, cfg: RunConfig):
    th = cfg.thresholds
    pts = family.sample(cfg.points, cfg.seed)

    def norms(qs):
        R = _geo.riemann(family.metric, qs)
        return np.max(np.abs(R), axis=(1, 2, 3, 4))

    name = "riemann max-norm"
    checks = [_row(name, th["curvature"], _blocked(name, pts, norms), pts)]
    for eq, value in family.residuals(pts).items():
        checks.append(CheckResult(f"equation {eq}", float(value),
                                  th["curvature"]))

    if family.leaf_metric is not None:
        def leaf_errors(qs):
            qs = np.asarray(qs, dtype=float)
            want = family.leaf_scalar_expected(qs[:, 0])
            got = _geo.ricci_scalar(family.leaf_metric(qs[:, 0]), qs[:, 1:])
            return np.abs(got - want) / np.maximum(1.0, np.abs(want))

        name = "leaf scalar curvature"
        checks.append(_row(name, th["leaf"], _blocked(name, pts, leaf_errors),
                           pts))
    return checks


def cmd_curvature(cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    if cfg.inline is not None:
        raise ConfigError(
            "the curvature command needs a catalog metric family, not an "
            "inline system")
    obj = _load_catalog(cfg)
    if not isinstance(obj, MetricFamily):
        raise ConfigError(
            f"catalog entry {cfg.system_name!r} is not a metric family; "
            "curvature applies to the flat-space families only")
    out_dir = _ensure_out(cfg)
    report = VerificationReport(cfg.echo(),
                                tuple(_curvature_checks(obj, cfg)))
    print(report.human(), file=out)
    _write(os.path.join(out_dir, "curvature_report.txt"), report.human())
    _write(os.path.join(out_dir, "curvature_report.csv"), report.machine())
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point

# every subcommand's override flags, each named after the RunConfig
# field it sets
_FLAGS = {
    "--out": dict(dest="out_dir", help="output directory override"),
    "--svg": dict(action="store_const", const=True,
                  help="force SVG output on"),
    "--block": dict(type=int, help="block index override"),
    "--seed": dict(type=int, help="probe seed override"),
    "--rtol": dict(type=float, help="integrator rtol"),
    "--atol": dict(type=float, help="integrator atol"),
}


@cache  # a process that calls main more than once builds it once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksep",
        description="numerical laboratory for block-twisted natural "
                    "Hamiltonians")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes --config and the flags it reads
    specs = {
        "simulate": ("integrate the full system and write the orbit CSV",
                     ("--out", "--svg", "--rtol", "--atol")),
        "compare": ("full orbit projection against the reduced block orbit",
                    ("--block", "--out", "--rtol", "--atol")),
        "verify": ("run the residual battery at seeded probe points",
                   ("--out", "--seed")),
        "curvature": ("flatness and leaf-curvature checks for the metric "
                      "families", ("--out", "--seed")),
    }
    for name, (blurb, flags) in specs.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="run config path")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    sub.add_parser("list", help="print catalog names")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "verify": cmd_verify,
    "curvature": cmd_curvature,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in _catalog.names():
            print(name)
        return EXIT_OK
    try:
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config")}
        cfg = load_config(args.config).override(**overrides)
    except (ConfigError, CatalogError, ModelError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg)
    except (ConfigError, CatalogError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    except _EVALUATION_ERRORS + (DynamicsError, ProbeError) as ex:
        # the system was built, so a model error here comes from
        # evaluating it (a singular matrix at a probe, say)
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
