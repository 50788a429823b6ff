"""Static checks of the package source, in place of a linter: every name
a module lists in ``__all__`` exists, every name it imports is used, every
function and class is reached from the command line, and the command line
loads no package it does not need."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nslab"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(node):
    """The names an import statement binds."""
    return [a.asname or a.name.split(".")[0] for a in node.names]


def _imports(path):
    """(line, name) of every import outside ``__future__``, except those a
    ``noqa: F401`` marks as re-exports."""
    lines = path.read_text().splitlines()
    out = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        out += [(node.lineno, name) for name in _imported(node)]
    return out


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _module_names(tree):
    """Names bound at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_imported(node))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_exists(path):
    tree = _tree(path)
    missing = set(_exports(tree)) - _module_names(tree)
    assert not missing, f"{path.name}: __all__ names undefined {sorted(missing)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exports(tree))
    unused = [f"line {line}: {name}" for line, name in _imports(path)
              if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_command_line_loads_no_quadrature_package():
    # scipy.integrate would bring scipy.optimize, sparse.linalg and spatial
    # into every run, for two cumulative quadratures that spaces provides
    code = ("import sys, nslab.cli; "
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


# Top-level definitions that no run reaches but that stay on purpose.
REACHED_ONLY_BY_TESTS = {
    ("spectral", "read_field"): "reads the solve experiment's field dump "
                                "back; tests check the dump through it",
    ("spectral", "scalar_from_coeffs"): "the scalar twin of "
                                        "vector_from_coeffs",
    ("divfree", "flux_check"): "the flux verdict the ROADMAP plans is "
                               "built on it",
    ("packet", "x0_pairing"): "reference that tests compare "
                              "pairing_from_spec against",
    ("packet", "leading_order"): "reference that tests compare "
                                 "pairing_from_spec against",
    ("packet", "mass_one_bump"): "reference that tests compare "
                                 "pairing_from_spec against",
}


def _package():
    """For each module: its top-level definitions by name, and for each
    name it imports from the package, (module, None) for a module or
    (module, name) for a definition."""
    defs, links = {}, {}
    for path in MODULES:
        mod, tree = path.stem, _tree(path)
        defs[mod] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defs[mod].update((n.id, node) for t in targets
                                 for n in ast.walk(t) if isinstance(n, ast.Name))
        links[mod] = {
            a.asname or a.name: ((a.name, None) if node.module is None
                                 else (node.module, a.name))
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names}
    return defs, links


def _references(mod, node, defs, links):
    """The (module, name) definitions a node's code refers to."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            link = (mod, n.id) if n.id in defs[mod] else links[mod].get(n.id)
            if link is not None and link[1] is not None:
                out.add(link)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            link = links[mod].get(n.value.id)
            if link is not None and link[1] is None:
                out.add((link[0], n.attr))
    return out


def test_every_definition_is_reached_from_the_command_line():
    # name closure from the two entry points; a definition that only its
    # own tests reach is dead weight and goes with those tests
    defs, links = _package()
    reached, todo = set(), [("cli", "main"), ("cli", "run")]
    while todo:
        mod, name = todo.pop()
        if (mod, name) in reached or name not in defs.get(mod, {}):
            continue
        reached.add((mod, name))
        todo += _references(mod, defs[mod][name], defs, links)
    unreached = sorted(
        f"{mod}.{name}" for mod in defs for name, node in defs[mod].items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (mod, name) not in reached
        and (mod, name) not in REACHED_ONLY_BY_TESTS)
    assert not unreached, f"reached only by tests: {unreached}"
    stale = sorted(f"{m}.{n}" for m, n in REACHED_ONLY_BY_TESTS
                   if (m, n) in reached or n not in defs.get(m, {}))
    assert not stale, f"allow-list entries now reached or gone: {stale}"
