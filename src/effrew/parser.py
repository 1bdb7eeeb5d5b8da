"""Surface syntax for terms and types.

    term  := ident
           | (lam ident term)
           | (app term term)
           | (pure term)
           | (let ident term term)
           | (eff ident (param*) term*)
           | (fn ident term*)
    param := integer | ident
    type  := ident | (E type) | (-> type type)

A bare ident is a variable.  Symbol applications are checked against the
signature (existence, kind, parameter domain, arity) at parse time.
"""

from __future__ import annotations

from .sexpr import SexprError, parse_one
from .signature import Signature, SignatureError, check_symapp
from .terms import App, Arrow, Base, Eff, Lam, Let, Pure, SymApp, Term, Type, Var

class ParseError(Exception):
    pass


def _ident(node, what: str) -> str:
    if not isinstance(node, str):
        raise ParseError(f"expected {what}, got {node!r}")
    return node


def _form(node) -> tuple:
    """Check the form of one non-variable term node, as far as it can be
    checked before its parts are built, and give (constructor, leading
    fields, the nodes of its parts).  A symbol application's constructor
    is SymApp, whose leading fields are kind, name and parameters."""
    if isinstance(node, int):
        raise ParseError(f"bare integer {node} is not a term")
    if not isinstance(node, list) or not node:
        raise ParseError("empty form is not a term")
    head = node[0]
    if head == "lam":
        if len(node) != 3:
            raise ParseError("(lam ident term) takes two parts")
        return Lam, (_ident(node[1], "binder"),), node[2:]
    if head == "app":
        if len(node) != 3:
            raise ParseError("(app term term) takes two parts")
        return App, (), node[1:]
    if head == "pure":
        if len(node) != 2:
            raise ParseError("(pure term) takes one part")
        return Pure, (), node[1:]
    if head == "let":
        if len(node) != 4:
            raise ParseError("(let ident term term) takes three parts")
        return Let, (_ident(node[1], "binder"),), node[2:]
    if head == "eff":
        if len(node) < 3 or not isinstance(node[2], list):
            raise ParseError("(eff ident (param*) term*) needs a parameter list")
        name = _ident(node[1], "effect name")
        for p in node[2]:
            if isinstance(p, list):
                raise ParseError(f"parameter of {name} must be an integer or ident")
        return SymApp, ("eff", name, tuple(node[2])), node[3:]
    if head == "fn":
        if len(node) < 2:
            raise ParseError("(fn ident term*) needs a symbol name")
        return SymApp, ("fn", _ident(node[1], "function name"), ()), node[2:]
    raise ParseError(f"unknown form head: {head!r}")


def build_term(node, sig: Signature) -> Term:
    """The term that an s-expression node denotes, its symbol applications
    checked against sig.  Raises ParseError or SignatureError.

    One explicit-stack pass, so a deep term costs no Python stack, which
    raises its errors in the order a recursive descent would: each form is
    checked when it is reached, its parts are built left to right, and a
    symbol application is checked against sig once its arguments are
    built."""
    top: list[Term] = []
    # one frame per form being built: constructor, leading fields, the
    # nodes of its parts, and the parts built so far
    frames: list = [(None, (), [node], top)]
    while frames:
        make, fixed, nodes, parts = frames[-1]
        if len(parts) < len(nodes):
            node = nodes[len(parts)]
            if isinstance(node, str):
                parts.append(Var(node))
            else:
                frames.append((*_form(node), []))
            continue
        frames.pop()
        if make is SymApp:
            term = SymApp(*fixed, tuple(parts))
            check_symapp(sig, term)
        elif make is not None:
            term = make(*fixed, *parts)
        else:
            return top[0]
        frames[-1][3].append(term)


def parse_term(text: str, sig: Signature) -> Term:
    """Parse one term, validating symbols against the signature.

    Raises ParseError (the message keeps line:col for syntax problems),
    which also wraps unknown-symbol and arity errors.
    """
    try:
        node = parse_one(text)
    except SexprError as e:
        raise ParseError(f"syntax error at {e}") from e
    try:
        return build_term(node, sig)
    except SignatureError as e:
        raise ParseError(str(e)) from e


def build_type(node) -> Type:
    if isinstance(node, str):
        return Base(node)
    if isinstance(node, list) and len(node) == 2 and node[0] == "E":
        return Eff(build_type(node[1]))
    if isinstance(node, list) and len(node) == 3 and node[0] == "->":
        return Arrow(build_type(node[1]), build_type(node[2]))
    raise ParseError(f"not a type: {node!r}")


def parse_type(text: str) -> Type:
    try:
        return build_type(parse_one(text))
    except SexprError as e:
        raise ParseError(f"syntax error at {e}") from e
