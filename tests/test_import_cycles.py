"""The package's modules import one another in one direction only.

A cycle, even one closed by an import inside a function, ties its modules
together: none of them can be read, loaded or moved without the others.
"""

import ast
from pathlib import Path

import dynsqueeze

SRC = Path(dynsqueeze.__file__).resolve().parent


def _import_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Each module's name -> the package modules it imports relatively, anywhere in it."""
    graph = {}
    for name, text in sources.items():
        graph[name] = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:  # from .x import ... or from .x.y import ...
                    graph[name].add(node.module.split(".")[0])
                else:  # from . import x
                    graph[name].update(alias.name for alias in node.names)
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """A cycle of ``graph`` as [a, b, .., a], or [] when it has none."""
    done, path = set(), []

    def visit(node: str) -> list[str]:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for succ in sorted(graph.get(node, ())):
            if found := visit(succ):
                return found
        path.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        if found := visit(node):
            return found
    return []


def test_the_package_imports_form_no_cycle():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    graph = _import_graph(sources)
    assert graph["archive"] >= {"harness"}  # the guard sees the package's imports
    cycle = _cycle(graph)
    assert not cycle, "import cycle: " + " -> ".join(cycle)


def test_the_guard_finds_a_cycle_closed_inside_a_function():
    sources = {
        "a": "from .b import f\n",
        "b": "import os\n\ndef g():\n    from .a import h\n    return h\n",
        "c": "from . import a\n",
    }
    graph = _import_graph(sources)
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a"}}
    assert _cycle(graph) == ["a", "b", "a"]


def test_the_guard_passes_imports_in_one_direction():
    graph = _import_graph({"a": "from .b import f\nfrom .c import g\n", "b": "from .c import g\n",
                           "c": "from os import path\nimport numpy\n"})
    assert _cycle(graph) == []
