"""Static checks of the package source, in place of a linter: every name
a module lists in ``__all__`` exists, every name it imports is used, every
function and class is reached from the command line and every member of a
reached class is read, the command line loads no package it does not
need, every config key it reads is in its key table, and the number of
settable values does not grow."""

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
    ("solver", "evolve"): "the march's states held as a Trajectory; tests "
                          "hold solves with it, and bench/tracing.py wraps "
                          "it by name",
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


def _code(node):
    """node and the nodes below it, without annotations: a name in an
    annotation is a type, not a use."""
    yield node
    for name, value in ast.iter_fields(node):
        if name in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _code(child)


def _references(mod, node, defs, links):
    """The (module, name) definitions a node's code refers to.  Only loaded
    names count: the field ``enstrophy: np.ndarray`` stores to its name and
    uses no function of that name."""
    out = set()
    for n in _code(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            link = (mod, n.id) if n.id in defs[mod] else links[mod].get(n.id)
            if link is not None and link[1] is not None:
                out.add(link)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            link = links[mod].get(n.value.id)
            if link is not None and link[1] is None:
                out.add((link[0], n.attr))
    return out


def _reached(defs, links):
    """The name closure of the two entry points."""
    reached, todo = set(), [("cli", "main"), ("cli", "run")]
    while todo:
        mod, name = todo.pop()
        if (mod, name) in reached or name not in defs.get(mod, {}):
            continue
        reached.add((mod, name))
        todo += _references(mod, defs[mod][name], defs, links)
    return reached


def test_every_definition_is_reached_from_the_command_line():
    # a definition that only its own tests reach is dead weight and goes
    # with those tests
    defs, links = _package()
    reached = _reached(defs, links)
    unreached = sorted(
        f"{mod}.{name}" for mod in defs for name, node in defs[mod].items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (mod, name) not in reached
        and (mod, name) not in REACHED_ONLY_BY_TESTS)
    assert not unreached, f"reached only by tests: {unreached}"
    stale = sorted(f"{m}.{n}" for m, n in REACHED_ONLY_BY_TESTS
                   if (m, n) in reached or n not in defs.get(m, {}))
    assert not stale, f"allow-list entries now reached or gone: {stale}"


# (module, class, member) -> reason, for members of reached classes that
# no code in the package reads but that stay on purpose.
UNREAD_MEMBERS = {
    ("spaces", "Trajectory", "pressures"): "bench/tracing.py reads it; goes "
                                           "with ROADMAP item 1",
    ("spaces", "Trajectory", "diagnostics"): "bench/tracing.py reads it; "
                                             "goes with ROADMAP item 1",
}


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass"
               for d in node.decorator_list)


def _members(node):
    """The non-dunder methods and properties of a class, and its fields if
    it is a dataclass."""
    out = []
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and not (
                item.name.startswith("__") and item.name.endswith("__")):
            out.append(item.name)
        elif (isinstance(item, ast.AnnAssign) and _is_dataclass(node)
              and isinstance(item.target, ast.Name)):
            out.append(item.target.id)
    return out


def _own_checks(tree):
    """The ``self.<member>`` reads inside the ``__post_init__`` of each
    class: a class that only checks a member of its own reads it for
    nobody."""
    return {id(n) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
            and item.name == "__post_init__"
            for n in ast.walk(item)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id == "self"}


def _attribute_reads(tree):
    own = _own_checks(tree)
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and id(n) not in own}


def test_every_member_of_a_reached_class_is_read():
    # a method, property or field that no code reads as an attribute is
    # computed, or kept, for nobody; matched by name, so a read of any
    # object's attribute of that name counts, except a class's own check
    # of it in __post_init__
    defs, links = _package()
    read = set().union(*(_attribute_reads(_tree(path)) for path in MODULES))
    unread = sorted(
        f"{mod}.{name}.{member}"
        for mod, name in _reached(defs, links)
        if isinstance(defs[mod][name], ast.ClassDef)
        for member in _members(defs[mod][name])
        if member not in read and (mod, name, member) not in UNREAD_MEMBERS)
    assert not unread, f"members no code reads: {unread}"
    stale = sorted(f"{m}.{n}.{a}" for m, n, a in UNREAD_MEMBERS
                   if a in read)
    assert not stale, f"allow-list entries now read: {stale}"


def _is_cfg(node, attr=None):
    """Whether node is the name cfg, or with attr its attribute attr."""
    if attr is not None:
        return isinstance(node, ast.Attribute) and node.attr == attr \
            and _is_cfg(node.value)
    return isinstance(node, ast.Name) and node.id == "cfg"


def _config_keys_read(tree):
    """(line, key) of each string literal read as a config key: the key of
    cfg.get, cfg.require, cfg.values[...] and ``in cfg.values``, and the
    string arguments of a call that passes cfg first, such as _grid."""
    out = []
    for n in ast.walk(tree):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("get", "require")
                and _is_cfg(n.func.value)):
            keys = n.args[:1]
        elif isinstance(n, ast.Call) and n.args and _is_cfg(n.args[0]):
            keys = n.args[1:]
        elif isinstance(n, ast.Subscript) and _is_cfg(n.value, "values"):
            keys = [n.slice]
        elif isinstance(n, ast.Compare) and any(
                _is_cfg(c, "values") for c in n.comparators):
            keys = [n.left]
        else:
            continue
        out += [(k.lineno, k.value) for k in keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)]
    return out


def test_every_config_key_the_runner_reads_is_in_the_table():
    # a misspelt key in a rarely run branch would read as unset, or fail
    # only when a config reaches that branch
    from nslab import cli
    keys = _config_keys_read(_tree(SRC / "cli.py"))
    assert len(keys) > 50
    unknown = [f"line {line}: {key!r}" for line, key in keys
               if key not in cli._KEYS]
    assert not unknown, f"keys read but not in cli._KEYS: {unknown}"


# Defaulted function parameters plus defaulted dataclass fields in the
# package: each is a value a caller can set.  Lower this when a change
# removes some; raise it only with a reason stated in the change.
SETTABLE_VALUES = 44


def _settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(item, ast.AnnAssign)
                         and item.value is not None for item in node.body)
    return count


def test_settable_values_do_not_grow():
    count = sum(_settable_values(_tree(path)) for path in MODULES)
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values, more than the {SETTABLE_VALUES} allowed")
