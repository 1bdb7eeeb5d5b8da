"""Guard: no function in src/effrew sits on a call cycle.

Terms, types and rule sides can be far deeper than the interpreter's
recursion limit, so every walk over them keeps its pending work on an
explicit stack, or is a step that terms._run_steps runs.  This test makes
that a checked invariant with an AST scan of the call graph of the
package's functions, nested ones and methods included.  A call is an
edge when the scan can name its target:
  - a bare name bound by a def in an enclosing function or at module
    level, or imported with `from .m import f` (or `f as g`);
  - self.m or cls.m in a method, when the method's class defines m.
Any cycle is flagged, a function that calls itself as well as f calling
g calling f, across modules too, unless the allowlist names each
function on it with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

import effrew

SOURCE = Path(effrew.__file__).parent

ALLOWED: dict[str, str] = {}

FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPE = (*FUNCTION, ast.ClassDef)


def _body_nodes(node):
    """The nodes of a function or class body, not entering nested
    function or class bodies, which are scanned as their own scopes."""
    todo = list(node.body)
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, SCOPE):
            todo += ast.iter_child_nodes(n)


def _function_names(nodes) -> list[str]:
    return [n.name for n in nodes if isinstance(n, FUNCTION)]


def call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """module.qualname of every function in sources, a map from module
    name to its text, to the module.qualname of each function it calls."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    graph: dict[str, set[str]] = {}
    for mod, tree in trees.items():
        # module scope: its own defs, then the functions imported from a
        # sibling module, local name -> module.qualname
        names = {n: f"{mod}.{n}" for n in _function_names(tree.body)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                for alias in node.names:
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        # (node, qualname, bare names in scope, methods of the class it is in)
        todo = [(n, mod, names, None) for n in tree.body]
        while todo:
            node, scope, names, methods = todo.pop()
            if isinstance(node, ast.ClassDef):
                qual = f"{scope}.{node.name}"
                methods = (qual, set(_function_names(node.body)))
                todo += [(n, qual, names, methods) for n in node.body]
                continue
            if not isinstance(node, FUNCTION):
                continue
            qual = f"{scope}.{node.name}"
            body = list(_body_nodes(node))
            scope_names = {**names, **{n: f"{qual}.{n}" for n in _function_names(body)}}
            calls = graph.setdefault(qual, set())
            for call in body:
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if isinstance(f, ast.Name) and f.id in scope_names:
                    calls.add(scope_names[f.id])
                elif (
                    methods is not None
                    and isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                    and f.attr in methods[1]
                ):
                    calls.add(f"{methods[0]}.{f.attr}")
            todo += [(n, qual, scope_names, None) for n in body if isinstance(n, SCOPE)]
    return graph


def on_cycles(graph: dict[str, set[str]]) -> set[str]:
    """The functions that can reach themselves through one call or more."""
    found = set()
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            f = stack.pop()
            if f == start:
                found.add(start)
                break
            if f not in seen:
                seen.add(f)
                stack += graph.get(f, ())
    return found


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}


def test_no_function_calls_itself():
    found = on_cycles(call_graph(package_sources()))
    assert found - ALLOWED.keys() == set()
    # an entry whose function no longer recurses is dropped from the list
    assert ALLOWED.keys() <= found


def test_call_graph_scan_finds_every_kind_of_cycle():
    sources = {
        "a": (
            "from .b import g as h\n"
            "def f(x):\n    return h(x)\n"
            "def own(x):\n    return own(x)\n"
            "def outer(x):\n"
            "    def inner(y):\n        return inner(y)\n"
            "    return inner(x)\n"
            "def takes(parts):\n    return parts(1)\n"
            "class C:\n"
            "    def m(self):\n        return self.n()\n"
            "    def n(self):\n        return self.m()\n"
            "    def alone(self):\n        return self.other()\n"
        ),
        "b": "from .a import f\ndef g(x):\n    return f(x)\ndef leaf(x):\n    return len(x)\n",
    }
    graph = call_graph(sources)
    assert graph["a.outer"] == {"a.outer.inner"}
    assert graph["a.takes"] == set() and graph["a.C.alone"] == set()
    assert on_cycles(graph) == {"a.f", "b.g", "a.own", "a.outer.inner", "a.C.m", "a.C.n"}
