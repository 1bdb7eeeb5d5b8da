"""Small s-expression reader shared by the term and theory parsers.

Atoms are either ints (decimal-digit tokens, optionally signed) or plain
strings.  Lists come back as Python lists.  Errors carry line and column.
"""

from __future__ import annotations

Node = int | str | list

_DELIMS = "()"
_WS = " \t\r\n"


class SexprError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def _advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _skip_blank(self) -> None:
        while True:
            ch = self._peek()
            if ch is not None and ch in _WS:
                self._advance()
            elif ch == ";":
                while self._peek() not in (None, "\n"):
                    self._advance()
            else:
                return

    def _atom(self) -> "int | str":
        chars = []
        while True:
            ch = self._peek()
            if ch is None or ch in _WS or ch in _DELIMS or ch == ";":
                break
            chars.append(self._advance())
        token = "".join(chars)
        body = token[1:] if token[0] in "+-" and len(token) > 1 else token
        if body.isdecimal():
            return int(token)
        return token

    def read(self) -> Node:
        self._skip_blank()
        ch = self._peek()
        if ch is None:
            raise SexprError("unexpected end of input", self.line, self.col)
        if ch == ")":
            raise SexprError("unmatched ')'", self.line, self.col)
        if ch == "(":
            open_line, open_col = self.line, self.col
            self._advance()
            items = []
            while True:
                self._skip_blank()
                nxt = self._peek()
                if nxt is None:
                    raise SexprError("unclosed '('", open_line, open_col)
                if nxt == ")":
                    self._advance()
                    return items
                items.append(self.read())
        return self._atom()

    def at_end(self) -> bool:
        self._skip_blank()
        return self._peek() is None


def parse_one(text: str) -> Node:
    """Parse exactly one form; trailing garbage is an error."""
    r = _Reader(text)
    node = r.read()
    if not r.at_end():
        raise SexprError("trailing input after form", r.line, r.col)
    return node


def parse_many(text: str) -> list:
    r = _Reader(text)
    out = []
    while not r.at_end():
        out.append(r.read())
    return out
