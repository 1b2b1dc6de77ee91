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
from typing import Optional, Sequence

import numpy as np

from . import catalog as _catalog
from . import expr as _expr
from . import geometry as _geo
from . import model as _model
from .catalog import CatalogEntry, CatalogError, MetricFamily
from .config import ConfigError, RunConfig, load_config
from .dynamics import (DynamicsError, IntegrationError, IntegratorConfig,
                       block_clock, compare_block_orbits, full_field_callable,
                       integrate)
from .model import ModelError, PhasePoint, StackelMatrix, TwistedSystem

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
        self.point = tuple(float(v) for v in q)
        self.error = error
        super().__init__(f"{error} (in check {check} at q={self.point})")


_EVALUATION_ERRORS = (ModelError, _expr.ExprError, _geo.GeometryError)


def _probe(check: str, q, fn, *args):
    """fn(*args) for one check at the probe q; a failure names both."""
    try:
        return fn(*args)
    except _EVALUATION_ERRORS as ex:
        raise ProbeError(check, q, ex) from ex


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

    def sx(x):
        return left + (x - x0) / (x1 - x0) * (right - left)

    def sy(y):
        return bottom - (y - y0) / (y1 - y0) * (bottom - top)

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
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                       for x, y in zip(xs, ys))
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
    # inline systems probe a box around the initial point
    lo_hi = [(qk - 0.3, qk + 0.3) for qk in res.initial.q]
    return _geo.rejection_sample(tuple(lo_hi), cfg.points, cfg.seed)


def _phase_probes(res: _Resolved, cfg: RunConfig):
    positions = _sample_positions(res, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    momenta = rng.uniform(-1.0, 1.0, (len(positions), res.system.dim))
    return [PhasePoint(q, tuple(p)) for q, p in zip(positions, momenta)]


# ---------------------------------------------------------------------------
# simulate

def _csv_header(sys_: TwistedSystem) -> str:
    names = ["t"]
    names += [f"q{i + 1}" for i in range(sys_.dim)]
    names += [f"p{i + 1}" for i in range(sys_.dim)]
    names += [f"tau_{r}" for r in range(1, sys_.n + 1)]
    names += ["H"] + [f"K_{a}" for a in range(2, sys_.n + 1)]
    return ",".join(names)


def _csv_rows(sys_: TwistedSystem, traj, clocks, times):
    """The CSV rows at the given times, and the H column.  Each row
    makes one twist and one vector E of block energies, and K_a is
    the row dot (S^-1)[a] @ E."""
    N = sys_.dim
    rows, h_vals = [], []
    for t in times:
        y = traj.sample(float(t)).tolist()
        if clocks is None:
            taus = [math.nan] * sys_.n
        else:
            taus = [c.tau(float(t)) for c in clocks]
        tw = _model.twist(sys_.jet.stackel(y[:N]), point=y[:N])
        E = sys_.jet.energies(y)
        integrals = [float(row @ E) for row in tw.matrix]
        h_vals.append(integrals[0])
        vals = [float(t), *y, *taus, *integrals]
        rows.append(",".join(f"{v:.17g}" for v in vals))
    return rows, h_vals


def cmd_simulate(cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    res = _resolve_dynamic(cfg)
    out_dir = _ensure_out(cfg)
    csv_path = os.path.join(out_dir, "orbit.csv")
    header = [f"# {line}" for line in _header_lines(cfg, res)]
    print("\n".join(header), file=out)

    icfg = IntegratorConfig(rtol=cfg.rtol, atol=cfg.atol)
    field = full_field_callable(res.system)
    y0 = res.initial.as_array()
    try:
        traj = integrate(field, y0, cfg.t_span, icfg)
    except IntegrationError as ex:
        lines = [_csv_header(res.system)]
        if ex.partial is not None:
            t_good = np.unique(np.linspace(cfg.t_span[0], ex.t_last,
                                           cfg.samples))
            try:
                clocks = [block_clock(res.system, ex.partial, r)
                          for r in range(1, res.system.n + 1)]
            except (DynamicsError, ModelError):
                # the clocks can hit the same singularity
                clocks = None
            lines += _csv_rows(res.system, ex.partial, clocks, t_good)[0]
        _write(csv_path, "\n".join(lines))
        print(f"simulate: FAILED integration of {res.label!r}: {ex}",
              file=err)
        print(f"simulate: partial orbit written to {csv_path}", file=err)
        return EXIT_NUMERIC

    clocks = [block_clock(res.system, traj, r)
              for r in range(1, res.system.n + 1)]
    times = np.linspace(cfg.t_span[0], cfg.t_span[1], cfg.samples)
    rows, h_vals = _csv_rows(res.system, traj, clocks, times)
    _write(csv_path, "\n".join([_csv_header(res.system)] + rows))

    N = res.system.dim
    drift = float(np.max(np.abs(np.array(h_vals) - h_vals[0])))
    print(f"simulate: {res.label}, {len(times)} rows -> {csv_path}",
          file=out)
    print(f"simulate: energy drift max |H - H(0)| = {drift:.6e}", file=out)

    if cfg.svg:
        pairs = cfg.pairs or tuple((i + 1, i + 1) for i in range(N))
        states = np.array([traj.sample(float(t)) for t in times])
        for qi, pj in pairs:
            if not (1 <= qi <= N and 1 <= pj <= N):
                raise ConfigError(
                    f"plot pair q{qi}:p{pj} outside dimension {N}")
            path = os.path.join(out_dir, f"phase_q{qi}_p{pj}.svg")
            write_polyline_svg(
                path,
                [("orbit", states[:, qi - 1], states[:, N + pj - 1])],
                f"{res.label}: phase portrait",
                f"q{qi}", f"p{pj}")
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

def _verify_checks(res: _Resolved, cfg: RunConfig) -> list[CheckResult]:
    sys_ = res.system
    n = sys_.n
    th = cfg.thresholds
    checks: list[CheckResult] = []
    probes = _phase_probes(res, cfg)

    scalars = [_geo.first_integral_scalar(sys_, a) for a in range(1, n + 1)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [f"bracket({'H' if i == 0 else f'K_{i + 1}'},K_{j + 1})"
              for i, j in pairs]
    # probe by probe, so that an integral's gradients at a probe are
    # computed once for all of its brackets there
    rows = [[abs(_probe(label, P.q, _geo.poisson_bracket, scalars[i],
                        scalars[j], P))
             for (i, j), label in zip(pairs, labels)] for P in probes]
    for label, column in zip(labels, zip(*rows)):
        checks.append(CheckResult(label, max(column), th["bracket"]))

    # probe by probe as well, so that each probe's twist is made once
    # for all of its residuals
    names = [f"eigenvalue-gradient K_{a}" for a in range(2, n + 1)]
    rows, outs = [], []
    for P in probes:
        rows.append([_probe(name, P.q, _geo.block_eisenhart_residual, sys_,
                            a, P.q) for a, name in enumerate(names, 2)])
        outs.append(_probe("block-connection", P.q,
                           _geo.block_levi_civita_residual, sys_, P.q))
    for name, column in zip(names, zip(*rows)):
        checks.append(CheckResult(name, max(column), th["residual"]))
    for kind in ("metric", "potential"):
        worst = max([0.0] + [out[f"{kind}_residual"] for out in outs])
        checks.append(CheckResult(f"block-connection {kind}", worst,
                                  th["residual"]))

    if res.entry is not None and res.entry.cartesian is not None:
        ref = res.entry.cartesian
        flat = _geo.MetricField.from_expressions(
            ref.coords,
            [[1.0 if i == j else 0.0 for j in range(len(ref.coords))]
             for i in range(len(ref.coords))])
        pts = _geo.rejection_sample(ref.sample_box, cfg.points,
                                    cfg.seed + 2, predicate=ref.regular)
        V = ref.hamiltonian.scalar
        for idx, scalar in enumerate(ref.integrals, start=2):
            grid = scalar.tensor.grid
            k_cov = _geo.TensorField2(ref.coords, grid, "covariant",
                                      metric=flat, symmetric=True)
            k_mix = _geo.TensorField2(ref.coords, grid, "mixed", metric=flat)
            battery = (
                ("killing", th["killing"],
                 lambda x: _geo.killing_residual(flat, k_cov, x)),
                ("torsion-normality", th["tensor"],
                 lambda x: max(_geo.tsn_residuals(k_mix, flat, x))),
                ("haantjes-condition", th["tensor"],
                 lambda x: _geo.haantjes(k_mix, x)["condition_residual"]),
                ("characteristic", th["tensor"],
                 lambda x: _geo.characteristic_condition(k_mix, V, flat, x)),
            )
            for kind, bound, fn in battery:
                name = f"{kind} K_{idx}"
                worst = max([0.0] + [_probe(name, x, fn, x) for x in pts])
                checks.append(CheckResult(name, worst, bound))
    return checks


def cmd_verify(cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    res = _resolve_dynamic(cfg)
    out_dir = _ensure_out(cfg)
    report = VerificationReport(_header_lines(cfg, res),
                                tuple(_verify_checks(res, cfg)))
    print(report.human(), file=out)
    _write(os.path.join(out_dir, "verify_report.txt"), report.human())
    _write(os.path.join(out_dir, "verify_report.csv"), report.machine())
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# curvature

def _curvature_checks(family: MetricFamily, cfg: RunConfig):
    th = cfg.thresholds
    checks: list[CheckResult] = []
    pts = family.sample(cfg.points, cfg.seed)

    worst = -1.0
    worst_pt = None
    failures = 0
    for q in pts:
        try:
            value = float(np.max(np.abs(_geo.riemann(family.metric, q))))
        except (_expr.ExprError, _geo.GeometryError):
            failures += 1
            continue
        if value > worst:
            worst, worst_pt = value, q
    where = "" if worst_pt is None else \
        "worst at (" + " ".join(f"{v:.6g}" for v in worst_pt) + ")"
    checks.append(CheckResult("riemann max-norm", worst, th["curvature"],
                              where))
    if failures:
        checks.append(CheckResult("evaluation failures", float(failures),
                                  0.5))

    try:
        residuals = family.residuals(pts)
    except (_expr.ExprError, _geo.GeometryError) as ex:
        checks.append(CheckResult("equation evaluation", math.inf, 0.5,
                                  str(ex)))
        residuals = {}
    for name, value in residuals.items():
        checks.append(CheckResult(f"equation {name}", float(value),
                                  th["curvature"]))

    if family.leaf_metric is not None:
        worst = -1.0
        worst_pt = None

        def leaf_error(q):
            u, v, w = (float(q[0]), float(q[1]), float(q[2]))
            want = family.leaf_scalar_expected(u)
            got = _geo.ricci_scalar(family.leaf_metric(u), (v, w))
            return abs(got - want) / max(1.0, abs(want))

        for q in pts:
            rel = _probe("leaf scalar curvature", q, leaf_error, q)
            if rel > worst:
                worst, worst_pt = rel, q
        where = "" if worst_pt is None else \
            "worst at (" + " ".join(f"{v:.6g}" for v in worst_pt) + ")"
        checks.append(CheckResult("leaf scalar curvature", worst,
                                  th["leaf"], where))
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksep",
        description="numerical laboratory for block-twisted natural "
                    "Hamiltonians")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "integrate the full system and write the orbit CSV",
        "compare": "full orbit projection against the reduced block orbit",
        "verify": "run the residual battery at seeded probe points",
        "curvature": "flatness and leaf-curvature checks for the metric "
                     "families",
    }
    for name, blurb in specs.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="run config path")
        p.add_argument("--block", type=int, help="block index override")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--svg", action="store_true",
                       help="force SVG output on")
        p.add_argument("--seed", type=int, help="probe seed override")
        p.add_argument("--rtol", type=float, help="integrator rtol")
        p.add_argument("--atol", type=float, help="integrator atol")
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
        cfg = load_config(args.config)
        cfg = cfg.override(out_dir=args.out, seed=args.seed,
                           rtol=args.rtol, atol=args.atol,
                           block=args.block,
                           svg=True if args.svg else None)
    except (ConfigError, CatalogError, ModelError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg)
    except (ConfigError, CatalogError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    except (ModelError, DynamicsError, _expr.ExprError,
            _geo.GeometryError, ProbeError) as ex:
        # the system was built, so a model error here comes from
        # evaluating it (a singular matrix at a probe, say)
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
