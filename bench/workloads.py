"""Workload definitions: the CLI invocations of one pass, built from a seed.

Every workload is a closed loop with one client: a pass is a fixed list
of ``blocksep`` invocations, and the next one starts when the previous
one returns.  The seed picks one of ``VARIANTS`` input variants, so that
the output oracle in ``reference.json`` holds reference values for every
seed.  Variant 0 is the catalog default (no perturbation, probe seed
1234); the others perturb the initial momenta by at most ``PERTURB`` and
shift the probe seed.

This module uses the standard library only, so the orchestrator can
write the config files without importing NumPy or the program.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

VARIANTS = 8
PERTURB = 0.02
PROBE_SEED = 1234

# Catalog default initial points, copied here so that the inputs are fixed
# by the benchmark and not by the program under test.
INITIAL = {
    "pendula": ((0.2, -0.2, 0.0), (0.0, 0.0, 0.0)),
    "oscillators": ((0.5, 0.75, 1.0), (0.2, 0.1, 0.0)),
    "calogero4": (
        (1.7888543819998322, 1.5707963267948966, 2.4568734505875103,
         -2.6179938779914944),
        (-0.17888543819998315, -0.17888543819998323, -0.4245782220824177,
         -0.3233161507461905)),
}

# Traced functions each workload must call, or the traced run is marked
# incorrect: they catch a binding the tracer missed.  Only layer entry
# points are listed, not leaves such as expr.evaluate that a faster
# evaluator may stop calling.
_SETUP = ("config.load_config", "catalog.load")
_DYNAMICS = _SETUP + ("dynamics.integrate", "dynamics.field",
                      "dynamics.sample", "dynamics.block_clock",
                      "dynamics.tau")

# (command, catalog entry) per invocation, the integration settings of
# the dynamical ones, and the traced functions each must call.  Why each
# workload exists is in README.md.
WORKLOADS = {
    "orbits": {
        "calls": [(cmd, e) for e in ("pendula", "oscillators", "calogero4")
                  for cmd in ("simulate", "compare")],
        "integration": {"rtol": 1e-10, "atol": 1e-12, "samples": 600},
        "uses": _DYNAMICS + ("dynamics.compare_block_orbits", "cli.simulate",
                             "cli.compare"),
    },
    "readout": {
        "calls": [("simulate", "pendula"), ("simulate", "calogero4")],
        "integration": {"rtol": 1e-6, "atol": 1e-8, "samples": 3000},
        "uses": _DYNAMICS + ("cli.simulate",),
    },
    "battery": {
        "calls": [("verify", "pendula"), ("verify", "oscillators"),
                  ("verify", "calogero4"), ("curvature", "e3-case-i"),
                  ("curvature", "e3-case-ii")],
        "points": {"verify": 100, "curvature": 1000},
        "uses": _SETUP + tuple("geometry." + f for f in (
            "poisson_bracket", "block_eisenhart_residual",
            "block_levi_civita_residual", "killing_residual", "tsn_residuals",
            "haantjes", "characteristic_condition", "riemann",
            "ricci_scalar", "rejection_sample", "first_integral_scalar")) + (
            "cli.verify", "cli.curvature"),
    },
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass: argv for ``cli.main`` and where it writes."""

    name: str          # "<command>:<entry>", unique within a workload
    command: str
    entry: str
    argv: tuple[str, ...]
    out_dir: str


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def initial_point(entry: str, variant: int):
    q, p = INITIAL[entry]
    if variant == 0:
        return q, p
    rng = random.Random(f"{entry}:{variant}")
    return q, tuple(pk + rng.uniform(-PERTURB, PERTURB) for pk in p)


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _config_text(workload: str, command: str, entry: str,
                 variant: int) -> str:
    spec = WORKLOADS[workload]
    lines = ["[system]", f"catalog = {entry}"]
    if "integration" in spec:
        integ = spec["integration"]
        q, p = initial_point(entry, variant)
        lines += ["[integration]", "t_span = 0.0, 30.0",
                  f"rtol = {integ['rtol']!r}", f"atol = {integ['atol']!r}",
                  f"samples = {integ['samples']}",
                  "[initial]", f"q = {_floats(q)}", f"p = {_floats(p)}"]
    lines += ["[verification]", f"seed = {PROBE_SEED + variant}"]
    if "points" in spec:
        lines.append(f"points = {spec['points'][command]}")
    return "\n".join(lines) + "\n"


def build(workload: str, seed: int, work_dir: str) -> list[Invocation]:
    """Write the config files of one workload under ``work_dir`` and
    return the invocations of one pass, in order."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: "
                       + ", ".join(WORKLOADS))
    variant = variant_of(seed)
    out = []
    for command, entry in WORKLOADS[workload]["calls"]:
        name = f"{command}:{entry}"
        stem = f"{command}-{entry}"
        cfg = os.path.join(work_dir, stem + ".ini")
        out_dir = os.path.join(work_dir, "out", stem)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(_config_text(workload, command, entry, variant))
        out.append(Invocation(name, command, entry,
                              (command, "--config", cfg, "--out", out_dir),
                              out_dir))
    return out
