"""Every name a library module imports is read by it or re-exported,
every top-level function and class of the library is reachable from an
entry point, and no library module keeps a process-wide cache."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "cogrelay"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Files whose use of `cogrelay` names makes those names entry points, besides
# `cli.main`: the acceptance gates, the demos, the benchmark's tracer and the
# README's Quick start (its one python block).
ROOT_FILES = [REPO / "tests" / "test_acceptance.py",
              *sorted((REPO / "demos").glob("*.py")),
              REPO / "perfbench" / "trace_child.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads and
    does not list in its ``__all__``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def stale_exports(source: str) -> list[str]:
    """Names in ``__all__`` that the module neither defines nor imports at
    its top level, which ``from module import *`` would fail on."""
    tree = ast.parse(source)
    bound: set[str] = set()
    exported: list[str] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported = ast.literal_eval(stmt.value)
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_every_name_it_exports(path):
    assert stale_exports(path.read_text()) == []


def test_stale_export_check_catches_a_leftover_name():
    assert stale_exports("import os\n__all__ = ['os', 'f', 'Gone']\ndef f(): pass\n") == ["Gone"]


# ---------------------------------------------------------------------------
# reachability


def package_aliases(tree: ast.AST, module: str | None) -> dict[str, tuple[str, str | None]]:
    """Local name -> (cogrelay module, name in it), or (module, None) for a
    module alias, from every import of a `cogrelay` module in `tree`, local
    imports included.  `module` is the importing library module (relative
    imports resolve against the package), or None outside the package."""
    aliases: dict[str, tuple[str, str | None]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and module is not None:
                source = node.module or "__init__"
            elif node.level == 0 and (node.module or "").split(".")[0] == "cogrelay":
                source = node.module.partition(".")[2] or "__init__"
            else:
                continue
            for alias in node.names:
                aliases[alias.asname or alias.name] = (source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, sub = alias.name.partition(".")
                if head == "cogrelay" and alias.asname:
                    aliases[alias.asname] = (sub or "__init__", None)
    return aliases


def module_alias(node: ast.AST, aliases: dict) -> str | None:
    """The package module that `node` names, if it is a module alias."""
    if isinstance(node, ast.Name) and node.id in aliases and aliases[node.id][1] is None:
        return aliases[node.id][0]
    return None


def names_read(node: ast.AST, aliases: dict, local: set[str], module: str) -> set[tuple[str, str]]:
    """(module, name) of every package name `node` reads: bare names of the
    module's own bindings or of imports, and attributes of module aliases."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in local:
                found.add((module, sub.id))
            elif sub.id in aliases and aliases[sub.id][1] is not None:
                found.add(aliases[sub.id])
        elif isinstance(sub, ast.Attribute) and module_alias(sub.value, aliases):
            found.add((module_alias(sub.value, aliases), sub.attr))
    return found


def library_graph() -> tuple[dict, dict, set[tuple[str, str]]]:
    """Per module: its import aliases, and the package names each of its
    top-level bindings reads; plus the (module, name) of every top-level
    function and class."""
    aliases, edges, definitions = {}, {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        aliases[module] = package_aliases(tree, module)
        bindings: dict[str, list[ast.AST]] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bindings.setdefault(stmt.name, []).append(stmt)
                definitions.add((module, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bindings.setdefault(name.id, []).append(stmt)
        for name, nodes in bindings.items():
            edges[module, name] = set().union(*(
                names_read(n, aliases[module], set(bindings), module) for n in nodes))
    return aliases, edges, definitions


def root_names() -> set[tuple[str, str]]:
    """`cli.main` and the package names the root files and the Quick start use.

    A root file's names are what it imports from `cogrelay`, the attributes
    it reads off `cogrelay` module aliases, and, for a module alias it hands
    to getattr or setattr, each string constant of the file."""
    readme = (REPO / "README.md").read_text()
    sources = [p.read_text() for p in ROOT_FILES]
    sources.append(readme.split("```python\n")[1].split("```")[0])
    roots = {("cli", "main")}
    for source in sources:
        tree = ast.parse(source)
        aliases = package_aliases(tree, None)
        roots |= {target for target in aliases.values() if target[1] is not None}
        roots |= names_read(tree, aliases, set(), "")
        strings = {n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "setattr") and node.args
                    and module_alias(node.args[0], aliases)):
                roots |= {(module_alias(node.args[0], aliases), s) for s in strings}
    return roots


def resolve(target, aliases_of, edges):
    """Follow re-exports from the module that binds a name by import to the
    one that defines it; None for a name no library module binds."""
    while target not in edges:
        module, name = target
        target = aliases_of.get(module, {}).get(name)
        if target is None or target[1] is None:
            return None
    return target


def unreachable_definitions() -> list[str]:
    aliases_of, edges, definitions = library_graph()
    seen: set[tuple[str, str]] = set()
    stack = [t for t in (resolve(r, aliases_of, edges) for r in root_names()) if t]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(t for t in (resolve(r, aliases_of, edges) for r in edges[node]) if t)
    return sorted(f"{module}.{name}" for module, name in definitions - seen)


def test_every_library_definition_is_reachable_from_an_entry_point():
    assert unreachable_definitions() == []


# ---------------------------------------------------------------------------
# hidden state


def cached_callables() -> list[str]:
    """Attributes of the library's modules, and of the classes they define,
    that are functools caches (they carry ``cache_info``)."""
    found = []
    for path in MODULES:
        module = importlib.import_module(f"cogrelay.{path.stem}")
        for name, value in vars(module).items():
            members = [(name, value)]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                members += [(f"{name}.{attr}", v) for attr, v in vars(value).items()]
            found += [f"{path.stem}.{label}" for label, v in members
                      if hasattr(v, "cache_info")]
    return found


def test_library_keeps_no_functools_cache():
    # a process-wide cache outlives the object it was computed for: it
    # would keep the last model's kernel alive and answer from it
    assert cached_callables() == []
