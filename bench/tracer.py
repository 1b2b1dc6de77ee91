"""Per-layer tracing by wrapping the program's public functions from outside.

Every wrapped function gets a call count, an inclusive time and a self
time: the inclusive time minus the time spent in wrapped callees.  Calls
are aggregated into these three numbers instead of one span per call, so
memory stays bounded however many leaf calls a pass makes.

Wrapping replaces every binding of a function inside the ``blocksep``
package: the module attribute, names imported with ``from ... import``
by other modules, and values of module-level dicts such as the CLI's
command table.  Methods are wrapped on their class.  The field closures
are wrapped as they are returned by their factories.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# (module, attribute) -> metric name.  Module-level functions.
FUNCTIONS = {
    ("expr", "evaluate"): "expr.evaluate",
    ("expr", "derivative"): "expr.derivative",
    ("expr", "second_derivative"): "expr.second_derivative",
    ("model", "matrix_values"): "model.matrix_values",
    ("model", "matrix_derivative"): "model.matrix_derivative",
    ("model", "invert_with_condition"): "model.invert_with_condition",
    ("model", "hamiltonian"): "model.hamiltonian",
    ("model", "first_integral"): "model.first_integral",
    ("model", "separation_constants"): "model.separation_constants",
    ("dynamics", "integrate"): "dynamics.integrate",
    ("dynamics", "block_clock"): "dynamics.block_clock",
    ("dynamics", "compare_block_orbits"): "dynamics.compare_block_orbits",
    ("geometry", "poisson_bracket"): "geometry.poisson_bracket",
    ("geometry", "block_eisenhart_residual"):
        "geometry.block_eisenhart_residual",
    ("geometry", "block_levi_civita_residual"):
        "geometry.block_levi_civita_residual",
    ("geometry", "killing_residual"): "geometry.killing_residual",
    ("geometry", "tsn_residuals"): "geometry.tsn_residuals",
    ("geometry", "haantjes"): "geometry.haantjes",
    ("geometry", "characteristic_condition"):
        "geometry.characteristic_condition",
    ("geometry", "riemann"): "geometry.riemann",
    ("geometry", "ricci_scalar"): "geometry.ricci_scalar",
    ("geometry", "rejection_sample"): "geometry.rejection_sample",
    ("geometry", "first_integral_scalar"): "geometry.first_integral_scalar",
    ("catalog", "load"): "catalog.load",
    ("config", "load_config"): "config.load_config",
    ("cli", "cmd_simulate"): "cli.simulate",
    ("cli", "cmd_compare"): "cli.compare",
    ("cli", "cmd_verify"): "cli.verify",
    ("cli", "cmd_curvature"): "cli.curvature",
}

# (module, class, method) -> metric name.
METHODS = {
    ("dynamics", "Trajectory", "sample"): "dynamics.sample",
    ("dynamics", "BlockClock", "tau"): "dynamics.tau",
}

# Factories whose returned closure is the vector field.
FIELD_FACTORIES = (("dynamics", "full_field_callable"),
                   ("dynamics", "reduced_field_callable"))
FIELD = "dynamics.field"

NAMES = tuple(FUNCTIONS.values()) + tuple(METHODS.values()) + (FIELD,)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Install with ``install()``; remove with ``uninstall()``.

    ``stats`` maps each name in ``NAMES`` to its :class:`Stat`;
    ``steps`` accumulates the ``IntegrationStats`` of every trajectory
    that ``dynamics.integrate`` returns.
    """

    def __init__(self):
        self.stats = {name: Stat() for name in NAMES}
        self.steps = {"nfev": 0, "accepted": 0, "rejected": 0}
        self._stack: list[float] = []   # child time of each open call
        self._undo: list = []

    def reset(self):
        for stat in self.stats.values():
            stat.calls, stat.total_s, stat.self_s = 0, 0.0, 0.0
        for key in self.steps:
            self.steps[key] = 0

    def wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt

        traced.__wrapped__ = fn
        return traced

    def _integrate(self, fn):
        steps = self.steps

        def integrate(*args, **kwargs):
            traj = fn(*args, **kwargs)
            st = traj.stats
            steps["nfev"] += st.field_evaluations
            steps["accepted"] += st.accepted
            steps["rejected"] += st.rejected
            return traj

        return self.wrap("dynamics.integrate", integrate)

    def _field_factory(self, factory):
        def make(*args, **kwargs):
            return self.wrap(FIELD, factory(*args, **kwargs))
        return make

    def _rebind(self, original, replacement):
        """Point every binding of ``original`` in the package at
        ``replacement``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "blocksep"
                                   or modname.startswith("blocksep.")):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    self._undo.append((space, key, original))
                    space[key] = replacement
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, original))
                            value[k] = replacement

    def install(self) -> list[str]:
        """Wrap everything; return the functions not found, whose metrics
        then stay at zero."""
        import blocksep  # noqa: F401  (loads every submodule)
        pkg = sys.modules["blocksep"]
        missing = []

        def lookup(*path):
            obj = pkg
            for part in path:
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(".".join(path))
            return obj

        for (modname, attr), name in FUNCTIONS.items():
            fn = lookup(modname, attr)
            if fn is None:
                continue
            if name == "dynamics.integrate":
                wrapped = self._integrate(fn)
            else:
                wrapped = self.wrap(name, fn)
            self._rebind(fn, wrapped)
        for modname, attr in FIELD_FACTORIES:
            fn = lookup(modname, attr)
            if fn is not None:
                self._rebind(fn, self._field_factory(fn))
        for (modname, clsname, attr), name in METHODS.items():
            cls = lookup(modname, clsname)
            fn = None if cls is None else lookup(modname, clsname, attr)
            if fn is not None:
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self.wrap(name, fn))
        return missing

    def uninstall(self):
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
