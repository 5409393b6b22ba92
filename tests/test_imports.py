"""Every name a module of the package or a test module imports is used in that module, and
every private module-level function or class is used somewhere in the package.
The package's modules import each other without a cycle, function-local
imports included, and only the corpus's random generators import ``random``.
No float enters the package's arithmetic: no float constant, ``float()`` call
or true division ``/`` appears in its source, but for the ``edge_density`` of
the random generators.

``__init__.py`` is left out of the import check: it imports names to
re-export them.  Every backquoted private name a comment or docstring of the
package cites is one the package defines, and every name the package exports
is used by one of its modules or named in the README: a name only tests use
belongs in a test helper.
"""
from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "screenoff"
README = PACKAGE.parent.parent / "README.md"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_guard_sees_an_unused_name():
    source = "import os\nfrom math import lcm, prod\nfrom . import x as y\nprint(lcm, os.sep)\n"
    assert unused_imports(source) == ["line 2: prod", "line 3: y"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level `_`-prefixed functions and classes no other statement uses.

    A use is a name or an attribute in any top-level statement of any module
    other than the definition itself; importing a name is not a use.
    """
    definitions = []
    uses: list[tuple[str, int, set[str]]] = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            uses.append((module, stmt.lineno, names))
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
            ):
                definitions.append((module, stmt.lineno, stmt.name))
    return [
        f"{module} line {line}: {name}"
        for module, line, name in definitions
        if not any(name in names for m, ln, names in uses if (m, ln) != (module, line))
    ]


def test_the_guard_sees_a_dead_helper():
    # a self-call and an import are not uses; an attribute read is
    sources = {
        "a.py": "def _used():\n    return 1\n\ndef _dead():\n    return _dead()\n",
        "b.py": "from .a import _used, _dead\nclass _Orphan:\n    pass\nx = a._used()\n",
    }
    assert unreferenced_private_definitions(sources) == ["a.py line 4: _dead", "b.py line 2: _Orphan"]


def test_every_private_definition_is_used():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unreferenced_private_definitions(sources) == []


def package_imports(source: str) -> set[str]:
    """Modules of the package a source imports, function-local imports included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def import_cycle(sources: dict[str, str]) -> list[str]:
    """One cycle of the package's import graph, as module names, or []."""
    graph = {Path(name).stem: package_imports(source) for name, source in sources.items()}
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done or module not in graph:
            return []
        for target in sorted(graph[module]):
            cycle = visit(target, path + [module])
            if cycle:
                return cycle
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module, [])
        if cycle:
            return cycle
    return []


def test_the_guard_sees_a_cycle_through_a_local_import():
    sources = {
        "a.py": "from .b import x\n",
        "b.py": "from . import c\n",
        "c.py": "def f():\n    from .a import y\n",
    }
    assert import_cycle(sources) == ["a", "b", "c", "a"]
    assert import_cycle({**sources, "c.py": "import random\n"}) == []


def test_the_import_graph_is_acyclic():
    assert import_cycle({path.name: path.read_text() for path in SOURCES}) == []


def test_only_the_corpus_draws_random_numbers():
    importers = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(alias.name == "random" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "random")
    ]
    assert importers == ["corpus.py"]


def float_uses(source: str) -> list[str]:
    """Float constants, `float()` calls and true divisions, but for an `edge_density`.

    An `edge_density` is a parameter's default of that name or the argument of
    `_random_site` in its place: the share of order relations a random site draws.
    """
    tree = ast.parse(source)
    densities = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            params = node.args.args[len(node.args.args) - len(node.args.defaults):]
            densities.update(id(d) for p, d in zip(params, node.args.defaults) if p.arg == "edge_density")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_random_site" and len(node.args) == 4:
            densities.add(id(node.args[3]))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)) and id(node) not in densities:
            found.append((node.lineno, node.col_offset, repr(node.value)))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, node.col_offset, "float()"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, node.col_offset, "/"))
    return [f"line {line}: {what}" for line, _, what in sorted(found)]


def test_the_guard_sees_a_float():
    source = (
        "def draw(rng, edge_density=0.5, bias=0.25):\n"
        "    site = _random_site(rng, 3, 2, 0.5)\n"
        "    x = len(site) / 2\n"
        "    x //= 2\n"
        "    x /= 2\n"
        "    return float(x), 1e3\n"
    )
    assert float_uses(source) == ["line 1: 0.25", "line 3: /", "line 5: /", "line 6: float()", "line 6: 1000.0"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats_in_the_package(path):
    assert float_uses(path.read_text()) == []


BACKQUOTED_PRIVATE = re.compile(r"`(_[A-Za-z_][A-Za-z0-9_]*)")


def private_citations(source: str) -> list[tuple[int, str]]:
    """(line, name) of each backquoted private name in a comment or docstring, such as `_walk`."""
    texts = [(tok.start[0], tok.string) for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                texts.append((first.lineno, first.value.value))
    return sorted((line + text[:m.start()].count("\n"), m.group(1))
                  for line, text in texts for m in BACKQUOTED_PRIVATE.finditer(text))


def defined_names(sources: dict[str, str]) -> set[str]:
    """Functions, classes, module-level names and attributes the sources define.

    An attribute is one assigned as `x.name = ...`, a class-level name, or an
    entry of `__slots__`.
    """
    names = set()
    for source in sources.values():
        tree = ast.parse(source)
        scopes = [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
        for scope in scopes:
            for stmt in scope.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                for target in targets:
                    for node in ast.walk(target) if target is not None else ():
                        if isinstance(node, ast.Name):
                            names.add(node.id)
                if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in targets):
                    names.update(c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant))
    return names


def stale_citations(sources: dict[str, str]) -> list[str]:
    """Backquoted private names in comments and docstrings that no source defines."""
    defined = defined_names(sources)
    return [f"{module} line {line}: {name}" for module, source in sources.items()
            for line, name in private_citations(source) if name not in defined]


def test_the_guard_sees_a_stale_citation():
    sources = {
        "a.py": (
            '"""Reads `_kept`, `_slot`, `_field` and `_TABLE(x)`; not `_gone`."""\n'
            "_TABLE = {}\n\n"
            "class _Kept:\n"
            "    __slots__ = ('_slot',)\n"
            "    _field: int = 0\n\n"
            "def _kept(x):\n"
            "    x._attr = 1  # sets `_attr`; `_planted` names nothing\n"
            '    """Not a docstring: `_quoted` in a string is not a citation."""\n'
        ),
    }
    assert private_citations(sources["a.py"]) == [
        (1, "_TABLE"), (1, "_field"), (1, "_gone"), (1, "_kept"), (1, "_slot"), (9, "_attr"), (9, "_planted")]
    assert stale_citations(sources) == ["a.py line 1: _gone", "a.py line 9: _planted"]


def test_every_cited_private_name_is_defined():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert stale_citations(sources) == []
    assert len({name for source in sources.values() for _, name in private_citations(source)}) >= 15


def unused_exports(sources: dict[str, str], readme: str) -> list[str]:
    """Names in `__init__.py`'s `__all__` that no other module uses and the README does not name."""
    init = ast.parse(sources["__init__.py"])
    exported = next(
        ast.literal_eval(stmt.value)
        for stmt in init.body
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
    )
    used = set()
    for module, source in sources.items():
        if module != "__init__.py":
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return [name for name in exported if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)]


def test_the_guard_sees_an_export_only_tests_use():
    sources = {
        "__init__.py": 'from .a import f, g, h\n__all__ = ["f", "g", "h"]\n',
        "a.py": "def f():\n    return g()\n\ndef g():\n    return 1\n\ndef h():\n    return 2\n",
    }
    assert unused_exports(sources, "Call `f()`, not `hh()`.") == ["h"]


def test_every_export_is_used_or_documented():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unused_exports(sources, README.read_text()) == []
