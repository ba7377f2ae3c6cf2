"""Every top-level name of the package runs from the CLI.

The sources are read, not imported, and names are followed statically from
``cli.main``.  Each top-level def, class and assigned name is a node, and it
reaches what its decorators, default values, body (a class's body included)
or assigned value load: a name defined at the top of its own module, a name
bound by ``from .m import x``, and ``m.x`` after ``from . import m``,
wherever in the module the import stands.  So ``_count = _checked(...)``
reaches ``_checked`` from whatever loads ``_count``.  Annotations do not
count: under ``from __future__ import annotations`` they are never evaluated.

A name no command reaches is deleted, unless a claim of the paper is checked
through it and nothing else; then it is listed in LIBRARY_API with its
reason.
"""

import ast
from pathlib import Path

import lemnichor

SRC = Path(lemnichor.__file__).resolve().parent

# Definitions no command runs that stay, each with its reason.  None of them
# may be reachable from cli.main: the entry goes when a command runs it.
LIBRARY_API = {
    "analytic.pole_census":
        "the bench's analytic workload certifies the pole census of x+ with it",
    "analytic.delta_x_minus_simple_poles":
        "the bench's analytic workload certifies the six simple poles of delta x- with it",
    "dynamics.one_body_lemniscate_residual":
        "acceptance criterion 8, the one-body lemniscate under U(r) = -l^2/(2 r^6)",
}

# Methods and properties that nothing in the package reads as an attribute
# and that stay, each with its reason, as "module.Class.name".
UNREAD_METHODS = {}


def _loads(node: ast.AST):
    """The names and attribute chains that node loads, outside annotations."""
    if isinstance(node, ast.arg):
        return
    if isinstance(node, ast.AnnAssign):
        for child in (node.target, node.value):
            if child is not None:
                yield from _loads(child)
        return
    if isinstance(node, ast.FunctionDef):
        children = [*node.decorator_list, node.args, *node.body]
    else:
        children = list(ast.iter_child_nodes(node))
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        yield node.value.id, node.attr
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, None
    for child in children:
        yield from _loads(child)


def _targets(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def call_graph(src: Path) -> dict[str, set[str]]:
    """Each top-level name of the package in src, as "module.name", to the names it loads."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    edges = {}
    for module, tree in trees.items():
        # Names that module binds by relative import, anywhere in its source.
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    local = a.asname or a.name
                    if node.module is None and a.name in trees:
                        aliases[local] = (a.name, None)
                    else:
                        aliases[local] = (node.module or "__init__", a.name)
        own = {name for stmt in tree.body for name in _targets(stmt)}

        def resolve(name, attr):
            if name in own:
                return f"{module}.{name}"
            target, imported = aliases.get(name, (None, None))
            if target is None:
                return None
            if imported is not None:
                return f"{target}.{imported}"
            return f"{target}.{attr}" if attr is not None else None

        for stmt in tree.body:
            refs = {resolve(name, attr) for name, attr in _loads(stmt)} - {None}
            for name in _targets(stmt):
                edges.setdefault(f"{module}.{name}", set()).update(refs)
    return edges


def reached(edges, roots) -> set[str]:
    seen = set()
    todo = list(roots)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(edges.get(node, ()))
    return seen


def test_every_name_runs_from_the_cli_or_is_library_api():
    edges = call_graph(SRC)
    assert sorted(set(edges) - reached(edges, ["cli.main", *LIBRARY_API])) == []


def test_library_api_is_defined_and_not_run_by_the_cli():
    edges = call_graph(SRC)
    assert set(LIBRARY_API) <= set(edges)
    assert all(reason.strip() for reason in LIBRARY_API.values())
    assert sorted(reached(edges, ["cli.main"]) & set(LIBRARY_API)) == []


def unread_methods(src: Path) -> set[str]:
    """Each non-dunder method or property of a class in src whose name no attribute load reads."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {f"{module}.{cls.name}.{fn.name}"
            for module, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__")) and fn.name not in read}


def test_every_method_is_read_or_listed():
    assert sorted(unread_methods(SRC) - set(UNREAD_METHODS)) == []
    assert all(reason.strip() for reason in UNREAD_METHODS.values())


def test_the_method_walk_flags_an_unread_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class P:\n"
        "    def used(self):\n        return self.prop\n"
        "    @property\n    def prop(self):\n        return 1\n"
        "    def unread(self):\n        return 2\n"
        "    def __add__(self, other):\n        return self\n"
    )
    (tmp_path / "b.py").write_text("from .a import P\nP().used()\n")
    assert unread_methods(tmp_path) == {"a.P.unread"}


def test_the_walk_follows_each_kind_of_load(tmp_path):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "cli.py").write_text(
        "from __future__ import annotations\n"
        "from .a import direct\n"
        "def _wrap(f):\n"
        "    return f\n"
        "def _make(x):\n"
        "    return x\n"
        "_flag = _make(1)\n"
        "_TABLE = {'k': lambda: _flag}\n"
        "@_wrap\n"
        "def main(arg: annotated_only = _TABLE):\n"
        "    from . import b\n"
        "    direct()\n"
        "    return b.by_attribute(Holder)\n"
        "class Holder:\n"
        "    size = _make\n"
        "def annotated_only():\n"
        "    pass\n"
        "def unused():\n"
        "    main()\n"
        "UNUSED = _make(2)\n"
    )
    (tmp_path / "a.py").write_text("def direct():\n    pass\n")
    (tmp_path / "b.py").write_text(
        "def by_attribute(x):\n    return 'never_loaded'\n"
        "def never_loaded():\n    pass\n"
    )
    edges = call_graph(tmp_path)
    assert set(edges) - reached(edges, ["cli.main"]) == {
        "cli.annotated_only", "cli.unused", "cli.UNUSED", "b.never_loaded"}
