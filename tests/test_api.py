"""The public API as text, pinned in tests/expected/api.txt.

For each name in effrew.__all__ the text gives its kind and signature, a
dataclass's fields, each an init field or a derived one, an exception's
base classes, and a union alias's members.  Annotations are written as
their source strings: every module of effrew defers their evaluation.
A change to the API shows as a diff of the file.  Regenerate it with

    PYTHONPATH=src python tests/test_api.py
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import typing
from pathlib import Path

import effrew

EXPECTED = Path(__file__).parent / "expected" / "api.txt"


class _Source(str):
    """An annotation's source string, which a signature prints unquoted."""

    def __repr__(self) -> str:
        return str(self)


def _annotation(a) -> _Source:
    if isinstance(a, str):
        return _Source(a)
    # the return annotation of a generated dataclass __init__
    return _Source("None" if a is None else inspect.formatannotation(a))


def _signature(obj) -> str:
    sig = inspect.signature(obj)
    params = [
        p if p.annotation is p.empty else p.replace(annotation=_annotation(p.annotation))
        for p in sig.parameters.values()
    ]
    ret = sig.return_annotation
    return str(sig.replace(parameters=params, return_annotation=ret if ret is sig.empty else _annotation(ret)))


def _class_name(cls: type) -> str:
    return cls.__qualname__ if cls.__module__ == "builtins" else f"{cls.__module__}.{cls.__qualname__}"


def api_text() -> str:
    lines = []
    for name in effrew.__all__:
        obj = getattr(effrew, name)
        lines.append(name)
        if typing.get_origin(obj) is typing.Union:
            lines.append("  kind: union")
            lines.append("  members: " + " | ".join(a.__qualname__ for a in typing.get_args(obj)))
        elif isinstance(obj, type) and issubclass(obj, BaseException):
            lines.append("  kind: exception")
            lines.append("  bases: " + ", ".join(map(_class_name, obj.__bases__)))
            if "__init__" in vars(obj):
                lines.append(f"  signature: {_signature(obj)}")
        elif isinstance(obj, type):
            lines.append("  kind: " + ("dataclass" if dataclasses.is_dataclass(obj) else "class"))
            lines.append(f"  signature: {_signature(obj)}")
            if dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    lines.append(f"  field {f.name}: {_annotation(f.type)} ({'init' if f.init else 'derived'})")
        else:
            lines.append(f"  kind: {'function' if inspect.isfunction(obj) else type(obj).__name__}")
            lines.append(f"  signature: {_signature(obj)}")
    return "\n".join(lines) + "\n"


def test_public_api_is_pinned():
    assert api_text() == EXPECTED.read_text(encoding="utf-8")


if __name__ == "__main__":
    EXPECTED.write_text(api_text(), encoding="utf-8")
    sys.exit(0)
