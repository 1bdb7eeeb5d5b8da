"""Guard: every module-level name of src/effrew is read somewhere.

A module-level name (a def, a class or an assigned name) that occurs
nowhere but its own definition, across src/, tests/, bench/ and
README.md, is dead code.  In Python files an occurrence is a name, an
attribute, an imported name or a string constant equal to it (as
monkeypatch.setattr and __all__ spell names), read off the AST; in the
README it is the name as a whole word.  Dunder names are exempt.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "effrew"


def module_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements define."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


def occurrences(tree: ast.AST) -> Counter:
    """How often each name occurs in a parsed file."""
    seen: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            seen[node.name] += 1
        elif isinstance(node, ast.alias):
            seen[node.name.rpartition(".")[2]] += 1
            if node.asname:
                seen[node.asname] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            seen[node.value] += 1
    return seen


def unused_names(files: dict[str, str], readme: str) -> list[str]:
    """module:name of each module-level name of the package's files (a
    map from path to text; package paths start with "effrew/") that
    occurs only once in all of them and not at all in readme."""
    trees = {path: ast.parse(text) for path, text in files.items()}
    total: Counter = Counter()
    for tree in trees.values():
        total += occurrences(tree)
    out = []
    for path, tree in trees.items():
        if not path.startswith("effrew/"):
            continue
        for name in module_names(tree):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and total[name] <= 1 and not re.search(rf"\b{re.escape(name)}\b", readme):
                out.append(f"{Path(path).stem}:{name}")
    return out


def test_every_module_level_name_is_read():
    files = {f"effrew/{p.name}": p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    for folder in ("tests", "bench"):
        for p in sorted((ROOT / folder).rglob("*.py")):
            files[str(p.relative_to(ROOT))] = p.read_text(encoding="utf-8")
    assert unused_names(files, (ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_unused_name_scan_finds_a_dead_constant():
    files = {
        "effrew/m.py": "DEAD = 1\nLIVE = 2\n_PATCHED = 3\nREADME_ONLY = 4\n__all__ = ['f']\n"
        "def f():\n    return LIVE\ndef g():\n    pass\nclass K:\n    pass\n",
        "effrew/n.py": "from .m import K as Kay\n",
        "tests/t.py": "def test(monkeypatch):\n    monkeypatch.setattr(m, '_PATCHED', 0)\n",
    }
    assert unused_names(files, "see README_ONLY") == ["m:DEAD", "m:g"]
