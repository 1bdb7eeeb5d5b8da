"""Command line front end.

Every command is a thin adapter over the library: load theories, read a
term, call the one library function, print its result.  Exit codes:

    0  success
    1  parse or type error (terms, theory files, signatures)
    2  certification failure, or precedence search found nothing
    3  fuel exhausted
    4  usage error

EFFREW_FUEL overrides the default step/node fuel.  Terms, types and
JSON are printed by the package's one renderer, sexpr._render, so no
output costs Python stack for its depth.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .graph import DEFAULT_NODE_FUEL, graph_summary, reduction_graph
from .parser import ParseError, parse_term, parse_type
from .rewrite import DEFAULT_FUEL, STRATEGIES, FuelExhausted, RuleError, normalize
from .rpo import (
    DEFAULT_SYMBOL_BOUND,
    NonSymbolicTermError,
    PrecedenceError,
    SearchBoundError,
    certify_ruleset,
    search_precedence,
)
from .sexpr import SexprError, _render
from .signature import Signature, SignatureError, describe_decl
from .terms import ident_str, print_term, type_str
from .theories import Theory, TheoryError, builtin, builtin_names, compose, load_theory
from .typecheck import TypingError, infer_type

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERT = 2
EXIT_FUEL = 3
EXIT_USAGE = 4

FUEL_ENV = "EFFREW_FUEL"

_INPUT_ERRORS = (
    ParseError,
    SexprError,
    TypingError,
    TheoryError,
    RuleError,
    SignatureError,
    PrecedenceError,
    NonSymbolicTermError,
    SearchBoundError,
    # an unreadable file, or one that is not UTF-8, is bad input too
    OSError,
    UnicodeDecodeError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _env_fuel(fallback: int) -> int:
    raw = os.environ.get(FUEL_ENV)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"{FUEL_ENV} must be an integer, got {raw!r}")


def _add_theory_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", action="append", default=[], metavar="NAME",
                   help="add a builtin theory (repeatable); see the theories command")
    p.add_argument("--theory", action="append", default=[], metavar="PATH",
                   help="add a theory file (repeatable)")


def _add_term_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--term", metavar="TEXT", help="inline term; '-' reads standard input")
    p.add_argument("--term-file", metavar="PATH", help="file containing one term")


def _load_theory_stack(args) -> Theory:
    parts = [builtin(name) for name in args.builtin]
    parts += [load_theory(path) for path in args.theory]
    if not parts:
        return Theory("empty", (), (), Signature(), ())
    return compose(*parts)


def _read_term(args, theory: Theory):
    if args.term is not None and args.term_file is not None:
        raise _UsageError("--term and --term-file are mutually exclusive")
    if args.term == "-":
        text = sys.stdin.read()
    elif args.term is not None:
        text = args.term
    elif args.term_file is not None:
        with open(args.term_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise _UsageError("a term is required (--term or --term-file)")
    return parse_term(text, theory.signature)


def _context(args) -> dict:
    ctx = {}
    for binding in args.var or []:
        name, sep, ty = binding.partition(":")
        if not sep or not name:
            raise _UsageError(f"--var wants name:type, got {binding!r}")
        ctx[name] = parse_type(ty)
    return ctx


def _json_parts(v) -> list:
    if isinstance(v, dict):
        opening, closing = "{", "}"
        items = []
        for k, x in v.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append((json.dumps(k) + ": ", x))
    elif isinstance(v, (list, tuple)):
        opening, closing = "[", "]"
        items = [("", x) for x in v]
    else:
        return [(json.dumps(v),)]
    pieces: list = [(closing,)]
    for key, x in reversed(items):
        # a tuple goes on as a list, since a 1-tuple is text to _render
        pieces += (list(x) if type(x) is tuple else x, (", " + key,))
    # the first item's separator opens the value
    pieces[-1] = (opening + items[0][0],) if items else (opening + closing,)
    return pieces


def json_text(value) -> str:
    """json.dumps(value), byte for byte under its default settings, for
    dicts with str keys, lists, tuples and scalars, rendered by
    sexpr._render, so the depth of value costs no Python stack: a certify
    report nests a dict and a list per derivation step.  Scalars and keys
    are rendered by json.dumps itself.  value must hold no cycle, as
    to_json's results never do."""
    return _render(value, _json_parts)


def _cmd_theories(args) -> int:
    for name in builtin_names():
        thy = builtin(name)
        print(f"{name}: {thy.description}")
        if args.verbose:
            for d in thy.signature.decls:
                print(f"  {describe_decl(d)}")
            for r in thy.rules:
                flag = " [extended]" if r.extended else ""
                print(f"  rule {r.name}{flag}")
            for line in thy.precedence.display_lines():
                print(f"  precedence {line}")
    return EXIT_OK


def _cmd_check(args) -> int:
    theory = _load_theory_stack(args)
    term = _read_term(args, theory)
    ty = infer_type(_context(args), term, theory.signature)
    if args.format == "json":
        print(json.dumps({"type": type_str(ty)}))
    else:
        print(type_str(ty))
    return EXIT_OK


def _normalize(args, theory, term):
    fuel = args.fuel if args.fuel is not None else _env_fuel(DEFAULT_FUEL)
    return normalize(term, list(theory.rules), strategy=args.strategy, fuel=fuel, seed=args.seed)


def _cmd_normalize(args) -> int:
    theory = _load_theory_stack(args)
    term = _read_term(args, theory)
    nf, trace = _normalize(args, theory, term)
    if args.format == "json":
        out = {"normal_form": print_term(nf), "steps": len(trace.steps)}
        if args.trace:
            out["trace"] = trace.to_json()["steps"]
        print(json.dumps(out))
    else:
        if args.trace:
            for line in trace.export_lines():
                print(line)
        print(print_term(nf))
    return EXIT_OK


def _cmd_trace(args) -> int:
    theory = _load_theory_stack(args)
    term = _read_term(args, theory)
    _, trace = _normalize(args, theory, term)
    if args.format == "json":
        print(json.dumps(trace.to_json()))
    else:
        for line in trace.export_lines():
            print(line)
    return EXIT_OK


def _cmd_certify(args) -> int:
    theory = _load_theory_stack(args)
    report = certify_ruleset(theory.precedence, theory.rules)
    if args.format == "json":
        print(json_text(report.to_json()))
    else:
        print(report.text())
    return EXIT_OK if report.overall else EXIT_CERT


def _cmd_search(args) -> int:
    theory = _load_theory_stack(args)
    prec = search_precedence(theory.rules, max_symbols=args.max_symbols)
    if args.format == "json":
        pairs = None if prec is None else [[ident_str(a), ident_str(b)] for a, b in sorted(prec.pairs)]
        print(json.dumps({"precedence": pairs}))
    else:
        if prec is None:
            print("none")
        else:
            for line in prec.display_lines():
                print(line)
    return EXIT_OK if prec is not None else EXIT_CERT


def _cmd_graph(args) -> int:
    theory = _load_theory_stack(args)
    term = _read_term(args, theory)
    fuel = args.fuel if args.fuel is not None else _env_fuel(DEFAULT_NODE_FUEL)
    g = reduction_graph(term, list(theory.rules), fuel=fuel)
    out = graph_summary(g) if args.summary else g.to_dot()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="effrew", description="rewrite and certify algebraic-effect terms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theories", help="list builtin theories")
    p.add_argument("--verbose", action="store_true", help="show signatures, rules, precedences")
    p.set_defaults(func=_cmd_theories)

    p = sub.add_parser("check", help="infer the type of a term")
    _add_theory_flags(p)
    _add_term_flags(p)
    p.add_argument("--var", action="append", metavar="NAME:TYPE",
                   help="assume a free variable at this type (repeatable)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check)

    for cmd, func, blurb in (
        ("normalize", _cmd_normalize, "rewrite a term to normal form"),
        ("trace", _cmd_trace, "rewrite and print one line per step"),
    ):
        p = sub.add_parser(cmd, help=blurb)
        _add_theory_flags(p)
        _add_term_flags(p)
        p.add_argument("--strategy", choices=STRATEGIES, default="leftmost-outermost")
        p.add_argument("--seed", type=int, help="rng seed; required for --strategy random")
        p.add_argument("--fuel", type=int, help=f"step budget (default {DEFAULT_FUEL} or {FUEL_ENV})")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if cmd == "normalize":
            p.add_argument("--trace", action="store_true", help="print the trace before the normal form")
        p.set_defaults(func=func)

    p = sub.add_parser("certify", help="check rule termination under the declared precedence")
    _add_theory_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="search for a precedence that certifies the rules")
    _add_theory_flags(p)
    p.add_argument("--max-symbols", type=int, default=DEFAULT_SYMBOL_BOUND,
                   help=f"symbol identity bound (default {DEFAULT_SYMBOL_BOUND})")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("graph", help="explore the full reduction graph")
    _add_theory_flags(p)
    _add_term_flags(p)
    p.add_argument("--fuel", type=int, help=f"node budget (default {DEFAULT_NODE_FUEL} or {FUEL_ENV})")
    p.add_argument("--summary", action="store_true", help="print counts instead of DOT")
    p.add_argument("--output", "-o", metavar="PATH", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FuelExhausted as e:
        print(f"fuel exhausted after {len(e.trace.steps)} steps; last term: {print_term(e.term)}",
              file=sys.stderr)
        return EXIT_FUEL
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
