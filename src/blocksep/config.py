"""Sectioned key-value run configuration.

Grammar (one statement per line):

    [section]            section header
    key = value          assignment inside the current section
    # ...                comment, also allowed after a value

Values are plain scalars (``30``, ``1e-10``, ``true``, ``pendula``),
comma-separated lists (``0.2, -0.2, 0.0``), quoted expression strings
(``"1+q1"``), or matrices written as semicolon-separated rows of quoted
entries (``"2", "1+q1" ; "3", "q2"``).  Quotes shield commas,
semicolons and hash marks inside expressions.

Sections:

    [system]        catalog = <name> plus builder parameters, or an
                    inline definition: blocks = q1 | q2 | q3, checked
                    at the initial point and 20 seeded points of
                    :func:`inline_probe_box`
    [stackel]       row1 = ... rowN = ...   (inline systems)
    [blockR]        metric = <matrix>, potential = <quoted expr>
    [initial]       q = <floats>, p = <floats>
    [integration]   t_span, rtol, atol, samples
    [output]        directory, svg, pairs (e.g. q1:p1, q2:p2)
    [verification]  seed, points, block, bracket, residual, killing,
                    tensor, compare, curvature, leaf,
                    corrupt = row, col, "expr"

Every expression is parsed at load time; structural errors carry the
file path and line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from . import expr as _expr
from .geometry import build_probes
from .model import (BlockStructure, ModelError, NaturalBlock, PhasePoint,
                    StackelMatrix, TwistedSystem, build_system)

__all__ = ["ConfigError", "RunConfig", "load_config", "inline_probe_box",
           "DEFAULT_THRESHOLDS"]


class ConfigError(Exception):
    """Anything wrong with a run configuration file."""


DEFAULT_THRESHOLDS = {
    "bracket": 1e-8,      # Poisson involution checks
    "residual": 1e-7,     # block separation identities
    "killing": 1e-10,     # Killing tensor equation
    "tensor": 1e-8,       # torsion/normality/characteristic checks
    "compare": 1e-6,      # orbit projection sup discrepancy
    "curvature": 1e-6,    # flatness max norm
    "leaf": 1e-6,         # leaf scalar relative match
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters, defaults included."""

    source: str
    system_name: Optional[str] = None
    system_params: Mapping[str, object] = field(default_factory=dict)
    inline: Optional[TwistedSystem] = None
    initial: Optional[PhasePoint] = None
    t_span: tuple[float, float] = (0.0, 30.0)
    rtol: float = 1e-10
    atol: float = 1e-12
    samples: int = 600
    out_dir: str = "out"
    svg: bool = False
    pairs: Optional[tuple[tuple[int, int], ...]] = None
    block: int = 1
    seed: int = 1234
    points: int = 100
    thresholds: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    corrupt: Optional[tuple[int, int, object]] = None

    def __post_init__(self):
        for name, value in self.thresholds.items():
            if not value > 0.0:
                self._fail(
                    f"threshold {name!r} must be positive, got {value!r}")
        if not all(map(math.isfinite, self.t_span)):
            self._fail(f"time span must be finite, got {self.t_span!r}")
        if self.t_span[0] == self.t_span[1]:
            self._fail("time span must have nonzero length")
        if self.points < 1 or self.samples < 2:
            self._fail("points and samples must be positive")
        if not 0.0 < self.atol < math.inf:
            self._fail(f"atol must be positive and finite, got {self.atol!r}")
        if not 0.0 <= self.rtol < math.inf:
            self._fail(
                f"rtol must be non-negative and finite, got {self.rtol!r}")

    def _fail(self, message: str):
        raise ConfigError(f"{self.source}: {message}")

    def override(self, **changes) -> "RunConfig":
        """Copy with command-line overrides applied."""
        changes = {k: v for k, v in changes.items() if v is not None}
        if not changes:
            return self
        return replace(self, **changes)

    def echo(self) -> tuple[str, ...]:
        """Deterministic resolved-config lines for report headers."""
        lines = [f"config = {self.source}"]
        if self.system_name is not None:
            lines.append(f"system = {self.system_name}")
            for key in sorted(self.system_params):
                lines.append(f"system.{key} = {self.system_params[key]!r}")
        else:
            names = ", ".join(self.inline.structure.names)
            lines.append(f"system = inline ({names})")
        if self.initial is not None:
            lines.append("initial.q = " + ", ".join(
                f"{v:.17g}" for v in self.initial.q))
            lines.append("initial.p = " + ", ".join(
                f"{v:.17g}" for v in self.initial.p))
        lines.append(f"t_span = {self.t_span[0]:.17g}, {self.t_span[1]:.17g}")
        lines.append(f"rtol = {self.rtol:.17g}")
        lines.append(f"atol = {self.atol:.17g}")
        lines.append(f"samples = {self.samples}")
        lines.append(f"out = {self.out_dir}")
        lines.append(f"svg = {str(self.svg).lower()}")
        if self.pairs is not None:
            lines.append("pairs = " + ", ".join(
                f"q{i}:p{j}" for i, j in self.pairs))
        lines.append(f"block = {self.block}")
        lines.append(f"seed = {self.seed}")
        lines.append(f"points = {self.points}")
        for key in sorted(self.thresholds):
            lines.append(f"threshold.{key} = {self.thresholds[key]:.17g}")
        if self.corrupt is not None:
            r, a, e = self.corrupt
            lines.append(f"corrupt = S[{r}][{a}] <- {_expr.pretty(e)}")
        return tuple(lines)


# ---------------------------------------------------------------------------
# lexical layer

def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep outside double quotes."""
    parts, buf = [], []
    quoted = False
    for ch in text:
        if ch == '"':
            quoted = not quoted
        if ch == sep and not quoted:
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf).strip())
    return parts


def _read_sections(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise ConfigError(f"cannot read config file {path!r}: "
                          f"{ex.strerror or ex}") from None
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(
                    f"{path}:{lineno}: malformed section header {line!r}")
            current = sections.setdefault(line[1:-1].strip().lower(), {})
            continue
        if current is None:
            raise ConfigError(
                f"{path}:{lineno}: statement outside any [section]")
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in current:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} in this section")
        current[key] = (value.strip(), lineno)
    return sections


class _Section:
    """Typed accessors over one section's raw (value, line) pairs."""

    def __init__(self, path: str, name: str, data: dict):
        self.path = path
        self.name = name
        self.data = dict(data)

    def fail(self, lineno: int, message: str):
        raise ConfigError(f"{self.path}:{lineno}: [{self.name}] {message}")

    def raw(self, key: str, default=None):
        if key not in self.data:
            return default
        return self.data.pop(key)

    def finish(self):
        for key, (_, lineno) in self.data.items():
            self.fail(lineno, f"unknown key {key!r}")

    # -- scalar decoders ---------------------------------------------------

    def text(self, key: str, default=None):
        item = self.raw(key)
        if item is None:
            return default
        value, lineno = item
        if value.startswith('"'):
            return self._unquote(value, lineno)
        return value

    def number(self, key: str, default=None, kind=float):
        item = self.raw(key)
        if item is None:
            return default
        value, lineno = item
        try:
            return kind(value)
        except ValueError:
            self.fail(lineno, f"{key} expects a number, got {value!r}")

    def boolean(self, key: str, default=None):
        item = self.raw(key)
        if item is None:
            return default
        value, lineno = item
        low = value.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        self.fail(lineno, f"{key} expects true/false, got {value!r}")

    def floats(self, key: str, default=None):
        item = self.raw(key)
        if item is None:
            return default
        value, lineno = item
        try:
            return tuple(float(p) for p in _split_top(value, ","))
        except ValueError:
            self.fail(lineno, f"{key} expects comma-separated numbers, "
                              f"got {value!r}")

    def _unquote(self, token: str, lineno: int) -> str:
        if len(token) < 2 or not token.endswith('"'):
            self.fail(lineno, f"unterminated quoted string {token!r}")
        inner = token[1:-1]
        if '"' in inner:
            self.fail(lineno, f"stray quote inside {token!r}")
        return inner

    def expression(self, key: str, default=None):
        item = self.raw(key)
        if item is None:
            return default
        value, lineno = item
        if not value.startswith('"'):
            self.fail(lineno, f"{key} expects a quoted expression string")
        return self._parse_expr(self._unquote(value, lineno), lineno)

    def _parse_expr(self, source: str, lineno: int):
        try:
            return _expr.parse(source)
        except _expr.ExprError as ex:
            self.fail(lineno, f"bad expression {source!r}: {ex}")

    def _row(self, key: str, text: str, lineno: int) -> tuple:
        """Comma-separated quoted expressions, parsed."""
        out = []
        for token in _split_top(text, ","):
            if not token.startswith('"'):
                self.fail(lineno,
                          f"{key} entries must be quoted strings, "
                          f"got {token!r}")
            out.append(self._parse_expr(self._unquote(token, lineno),
                                        lineno))
        return tuple(out)

    def expression_row(self, key: str):
        """One matrix row: comma-separated quoted expressions."""
        item = self.raw(key)
        if item is None:
            return None, None
        value, lineno = item
        return self._row(key, value, lineno), lineno

    def matrix(self, key: str, default=None):
        """Semicolon-separated rows of comma-separated quoted entries."""
        item = self.raw(key)
        if item is None:
            return default
        value, lineno = item
        return tuple(self._row(key, chunk, lineno)
                     for chunk in _split_top(value, ";"))


def _empty_section(path: str, name: str, sections: dict) -> _Section:
    return _Section(path, name, sections.pop(name, {}))


# ---------------------------------------------------------------------------
# section interpreters

def _system_param(section: _Section, key: str):
    value, lineno = section.data[key]
    section.data.pop(key)
    if value.startswith('"'):
        return section._unquote(value, lineno)
    parts = _split_top(value, ",")
    try:
        if len(parts) > 1:
            return tuple(float(p) for p in parts)
        return float(parts[0])
    except ValueError:
        return value


def inline_probe_box(q) -> tuple[tuple[float, float], ...]:
    """The box an inline system is probed in, around its initial
    positions q: at load time, and by ``verify``."""
    return tuple((x - 0.3, x + 0.3) for x in q)


def _inline_system(path: str, system: _Section, sections: dict,
                   blocks_item, initial_q) -> TwistedSystem:
    blocks_value, blocks_line = blocks_item
    coords = []
    for chunk in _split_top(blocks_value, "|"):
        names = tuple(n.strip() for n in chunk.split(",") if n.strip())
        if not names:
            system.fail(blocks_line, "empty block in 'blocks'")
        coords.append(names)
    sizes = tuple(len(c) for c in coords)
    n = len(sizes)

    stackel_sec = _empty_section(path, "stackel", sections)
    rows = []
    for r in range(1, n + 1):
        row, lineno = stackel_sec.expression_row(f"row{r}")
        if row is None:
            raise ConfigError(
                f"{path}: [stackel] is missing row{r} for a {n}-block "
                "system")
        if len(row) != n:
            stackel_sec.fail(lineno,
                             f"row{r} has {len(row)} entries, expected {n}")
        rows.append(row)
    stackel_sec.finish()

    naturals = []
    for r in range(1, n + 1):
        blk = _empty_section(path, f"block{r}", sections)
        size = sizes[r - 1]
        metric = blk.matrix("metric")
        if metric is None:
            metric = tuple(tuple(1.0 if i == j else 0.0
                                 for j in range(size))
                           for i in range(size))
        potential = blk.expression("potential", _expr.Num(0.0))
        blk.finish()
        naturals.append(NaturalBlock(metric, potential))

    try:
        structure = BlockStructure(sizes, tuple(coords))
        # probes anchor on the initial point so systems singular at the
        # origin validate; without a fitting one each command rejects it
        probes = ()
        if initial_q is not None and len(initial_q) == structure.total:
            probes = [tuple(initial_q)] + build_probes(
                inline_probe_box(initial_q))
        return build_system(structure, StackelMatrix(rows), naturals, probes)
    except ModelError as ex:
        raise ConfigError(f"{path}: invalid inline system: {ex}") from None


def _corrupt_spec(section: _Section):
    item = section.raw("corrupt")
    if item is None:
        return None
    value, lineno = item
    parts = _split_top(value, ",")
    if len(parts) != 3 or not parts[2].startswith('"'):
        section.fail(lineno,
                     "corrupt expects 'row, col, \"expression\"'")
    try:
        r, a = int(parts[0]), int(parts[1])
    except ValueError:
        section.fail(lineno, "corrupt row and col must be integers")
    return (r, a, section._parse_expr(section._unquote(parts[2], lineno),
                                      lineno))


def _pair_spec(section: _Section):
    item = section.raw("pairs")
    if item is None:
        return None
    value, lineno = item
    pairs = []
    for token in _split_top(value, ","):
        left, sep, right = token.partition(":")
        left, right = left.strip(), right.strip()
        if (not sep or not left.startswith("q")
                or not right.startswith("p")):
            section.fail(lineno,
                         f"pairs entries look like 'q1:p1', got {token!r}")
        try:
            pairs.append((int(left[1:]), int(right[1:])))
        except ValueError:
            section.fail(lineno, f"bad pair indices in {token!r}")
    return tuple(pairs)


def load_config(path: str) -> RunConfig:
    """Read, parse and validate a run configuration file."""
    sections = _read_sections(path)

    system = _Section(path, "system", sections.pop("system", {}))
    catalog_item = system.raw("catalog")
    blocks_item = system.raw("blocks")
    if catalog_item is not None and blocks_item is not None:
        raise ConfigError(
            f"{path}: [system] must give either 'catalog' or 'blocks', "
            "not both")
    if catalog_item is None and blocks_item is None:
        raise ConfigError(
            f"{path}: [system] must name a catalog entry or define "
            "blocks inline")

    initial_sec = _empty_section(path, "initial", sections)
    q = initial_sec.floats("q")
    p = initial_sec.floats("p")
    initial_sec.finish()
    initial = None
    if q is not None:
        if p is None:
            p = (0.0,) * len(q)
        if len(p) != len(q):
            raise ConfigError(
                f"{path}: [initial] q has {len(q)} entries but p has "
                f"{len(p)}")
        initial = PhasePoint(q, p)
    elif p is not None:
        raise ConfigError(f"{path}: [initial] gives p without q")

    system_name = None
    system_params: dict = {}
    inline = None
    if catalog_item is not None:
        system_name = catalog_item[0]
        for key in sorted(system.data):
            system_params[key] = _system_param(system, key)
        system.finish()
    else:
        inline = _inline_system(path, system, sections, blocks_item, q)
        system.finish()

    # the keys the file gives; RunConfig's defaults fill in the rest
    integ = _empty_section(path, "integration", sections)
    given = {"t_span": integ.floats("t_span")}
    if given["t_span"] is not None and len(given["t_span"]) != 2:
        raise ConfigError(f"{path}: [integration] t_span expects 't0, t1'")
    given.update(rtol=integ.number("rtol"), atol=integ.number("atol"),
                 samples=integ.number("samples", kind=int))
    integ.finish()

    output = _empty_section(path, "output", sections)
    given.update(out_dir=output.text("directory"), svg=output.boolean("svg"),
                 pairs=_pair_spec(output))
    output.finish()

    verif = _empty_section(path, "verification", sections)
    given.update((key, verif.number(key, kind=int))
                 for key in ("seed", "points", "block"))
    thresholds = dict(DEFAULT_THRESHOLDS)
    for key in DEFAULT_THRESHOLDS:
        value = verif.number(key)
        if value is not None:
            thresholds[key] = value
    corrupt = _corrupt_spec(verif)
    verif.finish()

    for name in sections:
        raise ConfigError(f"{path}: unknown section [{name}]")

    cfg = RunConfig(
        source=path,
        system_name=system_name,
        system_params=system_params,
        inline=inline,
        initial=initial,
        thresholds=thresholds,
        corrupt=corrupt,
        **{key: value for key, value in given.items() if value is not None},
    )
    if inline is not None and initial is not None:
        if len(initial.q) != inline.dim:
            raise ConfigError(
                f"{path}: initial point has {len(initial.q)} coordinates "
                f"for a {inline.dim}-dimensional system")
    return cfg
