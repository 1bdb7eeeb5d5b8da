"""Small s-expression reader shared by the term and theory parsers.

Atoms are either ints (decimal-digit tokens, optionally signed) or plain
strings.  Lists come back as Python lists.  Whitespace is " \t\r\n", and
';' starts a comment that runs to the end of the line.  One regular
expression splits the text into tokens and one loop folds them into
lists, with an explicit stack of the lists still open, so a deep form
costs no Python stack.  Errors carry line and column, counted from the
offset only when an error is raised.

The module also holds the package's one printer loop, _render: terms,
types, node reprs, RPO derivations' text, the CLI's JSON and the forms
quoted in error messages are each written by _render with a parts
function of their own.
"""

from __future__ import annotations

import re

Node = int | str | list

# blanks and comments, then a paren or an atom; the token group is empty
# only at the end of the text, since the greedy skip stops at a token
_TOKEN = re.compile(r"(?:[ \t\r\n]|;[^\n]*)*([()]|[^ \t\r\n();]+)?")


class SexprError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _error(message: str, text: str, offset: int) -> SexprError:
    line = text.count("\n", 0, offset) + 1
    return SexprError(message, line, offset - text.rfind("\n", 0, offset))


def _read(text: str, one: bool) -> list:
    """The forms of text, in order.  With one set, there must be exactly
    one: a token after the first complete form is trailing input."""
    forms: list = []
    items = forms
    # (offset of the '(', list it sits in) for every list still open
    open_lists: list[tuple[int, list]] = []
    for m in _TOKEN.finditer(text):
        token = m.group(1)
        if token is None:
            break
        if one and forms and not open_lists:
            raise _error("trailing input after form", text, m.start(1))
        if token == "(":
            open_lists.append((m.start(1), items))
            items = []
        elif token == ")":
            if not open_lists:
                raise _error("unmatched ')'", text, m.start(1))
            _, outer = open_lists.pop()
            outer.append(items)
            items = outer
        else:
            body = token[1:] if token[0] in "+-" and len(token) > 1 else token
            items.append(int(token) if body.isdecimal() else token)
    if open_lists:
        raise _error("unclosed '('", text, open_lists[-1][0])
    if one and not forms:
        raise _error("unexpected end of input", text, len(text))
    return forms


def _render(root, parts) -> str:
    """The text of root, written from one explicit stack of pieces, so
    that its depth costs no Python stack: every printer of the package is
    this loop and a parts function.  parts(node) returns the node's pieces,
    last first: text, a str written as it is, and child nodes, each boxed
    in a 1-tuple and replaced on the stack by parts of the node it holds.
    Text and boxes never share a class, so no node, a str or a tuple among
    them, can be taken for text.  The root always goes through parts, so
    parts decides what it refuses, at the root as below it."""
    out: list[str] = []
    stack = list(parts(root))
    while stack:
        piece = stack.pop()
        if type(piece) is tuple:
            stack += parts(piece[0])
        else:
            out.append(piece)
    return "".join(out)


def _list_parts(node: Node) -> list:
    if type(node) is not list:
        return [repr(node)]
    pieces: list = ["]"]
    for x in reversed(node):
        pieces += ((x,) if type(x) is list else repr(x), ", ")
    # the first item's separator opens the list
    pieces[-1] = "[" if node else "[]"
    return pieces


def _node_repr(node: Node) -> str:
    """repr(node), rendered, so that an error message can quote a deep
    form: repr recurses."""
    return _render(node, _list_parts)


def parse_one(text: str) -> Node:
    """Parse exactly one form; trailing garbage is an error."""
    return _read(text, True)[0]


def parse_many(text: str) -> list:
    return _read(text, False)
