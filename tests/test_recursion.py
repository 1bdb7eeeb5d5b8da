"""Guard: no function in src/effrew calls itself.

Terms, types and rule sides can be far deeper than the interpreter's
recursion limit, so every walk over them keeps its pending work on an
explicit stack.  This test makes that a checked invariant with an AST
scan: a function, nested ones included, that calls its own name, or a
method m that calls self.m, is flagged, unless the allowlist names it
with its reason.  Mutual recursion (f calls g, g calls f) is not caught.
"""

from __future__ import annotations

import ast
from pathlib import Path

import effrew

SOURCE = Path(effrew.__file__).parent

ALLOWED = {
    "rewrite.match_pattern": "the public reference matcher; the engine never calls it",
}


def self_calls() -> set[str]:
    """module.qualname of every function in src/effrew that calls itself."""
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # (node, qualname of the enclosing scope, whether that scope is a class)
        todo = [(node, path.stem, False) for node in tree.body]
        while todo:
            node, scope, in_class = todo.pop()
            if isinstance(node, ast.ClassDef):
                todo += [(n, f"{scope}.{node.name}", True) for n in node.body]
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo += [(n, scope, False) for n in ast.iter_child_nodes(node)]
                continue
            name = f"{scope}.{node.name}"
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if in_class:
                    if isinstance(f, ast.Attribute) and f.attr == node.name and (
                        isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
                    ):
                        found.add(name)
                elif isinstance(f, ast.Name) and f.id == node.name:
                    found.add(name)
            todo += [(n, name, False) for n in node.body]
    return found


def test_no_function_calls_itself():
    found = self_calls()
    assert found - ALLOWED.keys() == set()
    # an entry whose function no longer recurses is dropped from the list
    assert ALLOWED.keys() <= found
