"""src holds what runs: every function, method and class that src
defines is referenced from src or scripts, or is one of a short list of
keeps.

The scan reads the syntax trees only.  A module-level definition is
referenced by its name inside its own module, by a ``from`` import of
it, or as an attribute of its module imported under a name.  A method
is referenced by any attribute of its name, or by a string of its name,
which is how ``getattr`` dispatch names it.  A definition's references
inside its own body do not count.
"""

import ast
import collections
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "blocksep")
SCRIPTS = os.path.join(ROOT, "scripts")

# API kept for callers to come and for the tests' analytic checks:
# the metric of a system and the block eigenvalues (for the E3 systems
# and the invariant-recovered blocks), the two E3 systems, and the
# one-line public forms of the connection and the torsion
KEEP = {
    ("geometry", "MetricField.from_system"),
    ("geometry", "block_eigenvalues"),
    ("geometry", "christoffel"),
    ("geometry", "nijenhuis"),
    ("catalog", "case_i_system"),
    ("catalog", "case_ii_system"),
}


def _modules(folder):
    return {name[:-3]: ast.parse(open(os.path.join(folder, name),
                                      encoding="utf-8").read())
            for name in sorted(os.listdir(folder)) if name.endswith(".py")}


def _traced():
    """The (module, name) pairs the benchmark's tracer wraps: they must
    stay, since a traced run checks that each is called."""
    path = os.path.join(ROOT, "bench", "tracer.py")
    tree = ast.parse(open(path, encoding="utf-8").read())
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("FUNCTIONS", "METHODS")}
    return set(tables["FUNCTIONS"]) | {
        (mod, f"{cls}.{name}") for mod, cls, name in tables["METHODS"]}


def _references(tree, module):
    """What one file refers to: (module, name) of package definitions,
    and the attribute names and strings that may name a method."""
    mods, names = {}, {}
    external = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 or (node.module or "").startswith(
                "blocksep")
            if not package:
                external.update(a.asname or a.name for a in node.names)
            elif node.module in (None, "blocksep"):
                mods.update((a.asname or a.name, a.name) for a in node.names)
            else:
                source = node.module.split(".")[-1]
                names.update((a.asname or a.name, (source, a.name))
                             for a in node.names)
        elif isinstance(node, ast.Import):
            external.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    top, attrs = collections.Counter(names.values()), collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in names:
                top[names[node.id]] += 1
            elif module is not None:
                top[(module, node.id)] += 1
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            if base in mods:
                top[(mods[base], node.attr)] += 1
            elif base not in external:
                attrs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs[node.value] += 1
    return top, attrs


def _own(node, method=False):
    """The references a definition makes to itself, inside its body: by
    name for a module-level one, by attribute or string for a method."""
    return sum(1 for n in ast.walk(node)
               if not method and isinstance(n, ast.Name) and n.id == node.name
               or method and isinstance(n, ast.Attribute)
               and n.attr == node.name
               or method and isinstance(n, ast.Constant)
               and n.value == node.name)


def _unreferenced():
    src, scripts = _modules(SRC), _modules(SCRIPTS)
    top, attrs = collections.Counter(), collections.Counter()
    for module, tree in src.items():
        t, a = _references(tree, module)
        top += t
        attrs += a
    for tree in scripts.values():
        t, a = _references(tree, None)
        top += t
        attrs += a
    found = set()
    for module, tree in src.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if top[(module, node.name)] <= _own(node):
                    found.add((module, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("__")
                        and attrs[sub.name] <= _own(sub, method=True)):
                    found.add((module, f"{node.name}.{sub.name}"))
    return found


def _defined():
    out = set()
    for module, tree in _modules(SRC).items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.add((module, node.name))
            if isinstance(node, ast.ClassDef):
                out.update((module, f"{node.name}.{sub.name}")
                           for sub in node.body
                           if isinstance(sub, ast.FunctionDef))
    return out


def test_src_defines_nothing_that_nothing_references():
    unused = _unreferenced() - KEEP - _traced()
    assert not unused, "defined in src and referenced from neither src " \
        "nor scripts: " + ", ".join(
            f"{module}.{name}" for module, name in sorted(unused))


def test_every_keep_is_still_defined():
    assert KEEP <= _defined()
