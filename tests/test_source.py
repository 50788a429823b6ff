"""Static checks of the package source, in place of a linter: every name
a module lists in ``__all__`` exists, every name it imports is used, and
the command line loads no package it does not need."""

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
