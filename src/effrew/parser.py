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

build_term and build_type are recursive descents written as steps run on
terms._run_steps, so a deep form costs no Python stack and errors come in
the order the plain recursion would raise them.
"""

from __future__ import annotations

from functools import partial

from .sexpr import SexprError, _node_repr, parse_one
from .signature import Signature, SignatureError, check_symapp
from .terms import App, Arrow, Base, Eff, Lam, Let, Pure, SymApp, Term, Type, Var, _run_steps


class ParseError(Exception):
    pass


def _ident(node, what: str) -> str:
    if not isinstance(node, str):
        raise ParseError(f"expected {what}, got {_node_repr(node)}")
    return node


def build_term(node, sig: Signature) -> Term:
    """The term that an s-expression node denotes, its symbol applications
    checked against sig.  Raises ParseError or SignatureError: each form is
    checked when it is reached, its parts are built left to right, and a
    symbol application is checked against sig once its arguments are
    built."""
    return _run_steps(partial(_build_term, sig), node)


def _build_term(sig: Signature, node):
    """Step of build_term for node."""
    if isinstance(node, str):
        return Var(node)
    if isinstance(node, int):
        raise ParseError(f"bare integer {node} is not a term")
    if not isinstance(node, list) or not node:
        raise ParseError("empty form is not a term")
    head = node[0]
    if head == "lam":
        if len(node) != 3:
            raise ParseError("(lam ident term) takes two parts")
        return Lam(_ident(node[1], "binder"), (yield node[2]))
    if head == "app":
        if len(node) != 3:
            raise ParseError("(app term term) takes two parts")
        return App((yield node[1]), (yield node[2]))
    if head == "pure":
        if len(node) != 2:
            raise ParseError("(pure term) takes one part")
        return Pure((yield node[1]))
    if head == "let":
        if len(node) != 4:
            raise ParseError("(let ident term term) takes three parts")
        return Let(_ident(node[1], "binder"), (yield node[2]), (yield node[3]))
    if head == "eff":
        if len(node) < 3 or not isinstance(node[2], list):
            raise ParseError("(eff ident (param*) term*) needs a parameter list")
        kind, name, params, parts = "eff", _ident(node[1], "effect name"), tuple(node[2]), node[3:]
        for p in params:
            if isinstance(p, list):
                raise ParseError(f"parameter of {name} must be an integer or ident")
    elif head == "fn":
        if len(node) < 2:
            raise ParseError("(fn ident term*) needs a symbol name")
        kind, name, params, parts = "fn", _ident(node[1], "function name"), (), node[2:]
    else:
        raise ParseError(f"unknown form head: {_node_repr(head)}")
    args = []
    for part in parts:
        args.append((yield part))
    term = SymApp(kind, name, params, tuple(args))
    check_symapp(sig, term)
    return term


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
    """The type that an s-expression node denotes, or ParseError."""
    return _run_steps(_build_type, node)


def _build_type(node):
    """Step of build_type for node."""
    if isinstance(node, str):
        return Base(node)
    if isinstance(node, list) and len(node) == 2 and node[0] == "E":
        return Eff((yield node[1]))
    if isinstance(node, list) and len(node) == 3 and node[0] == "->":
        return Arrow((yield node[1]), (yield node[2]))
    raise ParseError(f"not a type: {_node_repr(node)}")


def parse_type(text: str) -> Type:
    try:
        return build_type(parse_one(text))
    except SexprError as e:
        raise ParseError(f"syntax error at {e}") from e
