"""Effect theories: signatures plus rewrite rules plus a precedence.

Five built-in theories ship with the engine:

  global-state  parameterised assign and a value-indexed get over a finite
                value domain; writes absorb reads and earlier writes
  nondet        binary choice, reassociated to the right
  par           interleaving parallel composition; its two commuting rules
                are a schema instantiated once per other effect in the
                signature, plus an extended join rule that zips two
                finished branches into a pure pair (join is not an
                algebraic operation; see _par)
  retry         bounded retry of a request with a failure continuation
  peano         unary naturals with plus, for numeral arguments

Theories compose by disjoint union.  Identical declarations shared by
several parts (retry and peano both carry the naturals) merge silently;
anything else with the same name is a clash.  Schemas are re-instantiated
over the composed signature, so par picks up commuting rules for effects
it has never seen.

Each rule is typed once, where it enters the program.  A builtin's
rules are constants built from its signature, and options only choose
symbol names, arities and domain values, so the test suite checks the
builtins under a grid of options and `builtin` does not.  Theory files
are checked when parsed.  A theory records in `checked` that its base
rules are known to type under its own signature: `builtin`,
`parse_theory` and `compose` set it on what they return.

A composition of any number of parts is checked once, as a whole, when it
is built: rule names are unique across the union and its precedence is
consistent.  It types only the base rules of parts that are not
`checked`.  The others are trusted, since typing a rule reads only the
declarations of its symbols and `Signature.merge` refuses any
conflicting declaration, so a rule that types under its part's signature
types the same under the union.  Schema expansions are not typed either:
like the builtin constants, they are built from declarations of the
union's signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .parser import ParseError, build_term, build_type
from .rewrite import RewriteRule, RuleError, make_rule, pattern_vars
from .rpo import Precedence, PrecedenceError
from .sexpr import SexprError, _node_repr, parse_one
from .signature import (
    EffectDecl,
    FunctionDecl,
    Signature,
    SignatureError,
    check_symapp,
)
from .terms import (
    Base,
    Eff,
    Identity,
    Param,
    Pure,
    SymApp,
    Term,
    Var,
    children,
    eff,
    fn,
    ident_str,
)
from .typecheck import TypingError, infer_rule_types


class TheoryError(Exception):
    pass


@dataclass(frozen=True)
class CommuteSchema:
    """Rule family: outer(e(s1..sn), t) ~> e(outer(s1,t)..outer(sn,t)) and
    the mirror image, for every effect e other than outer, with the
    precedence outer > e."""

    outer: str


@dataclass(frozen=True)
class Theory:
    name: str
    bases: tuple[str, ...]
    domains: tuple[tuple[str, tuple[Param, ...]], ...]
    signature: Signature
    base_rules: tuple[RewriteRule, ...]
    schemas: tuple[CommuteSchema, ...] = ()
    base_precedence: tuple = ()
    description: str = field(default="", compare=False)
    # set only by builtin, whose rules are constants that type, and by
    # _validate, so by parse_theory and compose; not a constructor
    # argument, so a hand-built theory or a dataclasses.replace copy
    # starts unchecked
    checked: bool = field(default=False, init=False, compare=False, repr=False)

    # computed on first access and kept in the instance dict; they are not
    # fields, so equality and hashing are unchanged
    @cached_property
    def _expansions(self) -> tuple:
        return tuple(_expand_commute(schema, self.signature) for schema in self.schemas)

    @cached_property
    def rules(self) -> tuple[RewriteRule, ...]:
        return self.base_rules + tuple(r for rules, _ in self._expansions for r in rules)

    @cached_property
    def precedence(self) -> Precedence:
        return Precedence(list(self.base_precedence) + [p for _, pairs in self._expansions for p in pairs])


def _expand_commute(schema: CommuteSchema, sig: Signature):
    outer = sig.get(schema.outer)
    if not isinstance(outer, EffectDecl) or outer.arity != 2 or outer.param_domain:
        raise TheoryError(f"schema head {schema.outer} must be a parameterless binary effect")
    rules: list[RewriteRule] = []
    pairs: list[tuple[Identity, Identity]] = []
    outer_id = (schema.outer, ())
    for decl in sig.effects():
        if decl.name == schema.outer:
            continue
        for identity in sig.instances(decl.name):
            _, params = identity
            svars = [Var(f"s{i + 1}") for i in range(decl.arity)]
            t = Var("t")
            inner = SymApp("eff", decl.name, params, tuple(svars))
            left = make_rule(
                f"{schema.outer}-left.{ident_str(identity)}",
                eff(schema.outer, inner, t),
                SymApp("eff", decl.name, params, tuple(eff(schema.outer, s, t) for s in svars)),
            )
            right = make_rule(
                f"{schema.outer}-right.{ident_str(identity)}",
                eff(schema.outer, t, inner),
                SymApp("eff", decl.name, params, tuple(eff(schema.outer, t, s) for s in svars)),
            )
            rules.extend((left, right))
            pairs.append((outer_id, identity))
    return rules, pairs


def _validate(theory: Theory, unchecked: Sequence[RewriteRule] | None = None) -> Theory:
    """Check that rule names are unique, that the rules type under the
    theory's signature (an extended rule, which is not typed, that its
    symbols are declared) and that the precedence is consistent.  Every
    rule is typed, unless `unchecked` lists the only rules that need it.
    Marks the theory `checked`."""
    seen: set[str] = set()
    for rule in theory.rules:
        if rule.name in seen:
            raise TheoryError(f"duplicate rule name: {rule.name}")
        seen.add(rule.name)
        if unchecked is not None and rule not in unchecked:
            continue
        if not rule.extended:
            # typing checks every symbol node against the signature
            try:
                infer_rule_types(theory.signature, rule.lhs, rule.rhs, pattern_vars(rule.lhs))
            except TypingError as e:
                raise TheoryError(f"rule {rule.name} is ill-typed: {e}") from e
            continue
        for side, label in ((rule.lhs, "left"), (rule.rhs, "right")):
            # preorder on a plain stack, each distinct node once, so the
            # first bad node is named and no position is built
            stack, walked = [side], set()
            while stack:
                sub = stack.pop()
                if id(sub) in walked:
                    continue
                walked.add(id(sub))
                if type(sub) is SymApp:
                    try:
                        check_symapp(theory.signature, sub)
                    except SignatureError as e:
                        raise TheoryError(f"rule {rule.name}, {label} side: {e}") from e
                stack += reversed(children(sub))
    try:
        theory.precedence
    except PrecedenceError as e:
        raise TheoryError(f"declared precedence is inconsistent: {e}") from e
    return _checked(theory)


def _checked(theory: Theory) -> Theory:
    object.__setattr__(theory, "checked", True)
    return theory


# ---------------------------------------------------------------------------
# builtins


def _global_state(domain: tuple[Param, ...] = (0, 1)) -> Theory:
    n = len(domain)
    if n == 0:
        raise TheoryError("global-state needs a nonempty value domain")
    if any("." in str(i) for i in domain):
        raise TheoryError("global-state domain values must not contain '.', which separates rule name parts")
    sig = Signature(
        (
            EffectDecl("assign", 1, tuple(domain)),
            EffectDecl("get", n),
        )
    )
    rules: list[RewriteRule] = []
    for idx, i in enumerate(domain):
        ts = [Var(f"t{k + 1}") for k in range(n)]
        rules.append(
            make_rule(
                f"assign-get.{i}",
                eff("assign", eff("get", *ts), params=(i,)),
                eff("assign", ts[idx], params=(i,)),
            )
        )
    for i in domain:
        for j in domain:
            rules.append(
                make_rule(
                    f"assign-assign.{i}.{j}",
                    eff("assign", eff("assign", Var("s"), params=(j,)), params=(i,)),
                    eff("assign", Var("s"), params=(j,)),
                )
            )
    for idx, i in enumerate(domain):
        ss = [Var(f"s{k + 1}") for k in range(n)]
        ts = [Var(f"t{k + 1}") for k in range(n)]
        largs = list(ts)
        largs[idx] = eff("get", *ss)
        rargs = list(ts)
        rargs[idx] = ss[idx]
        rules.append(make_rule(f"get-get.{i}", eff("get", *largs), eff("get", *rargs)))
    return Theory(
        name="global-state",
        bases=("val",),
        domains=(),
        signature=sig,
        base_rules=tuple(rules),
        description=f"one mutable cell over the value domain {{{', '.join(map(str, domain))}}}",
    )


def _nondet() -> Theory:
    sig = Signature((EffectDecl("or", 2),))
    rule = make_rule(
        "or-assoc",
        eff("or", eff("or", Var("s1"), Var("s2")), Var("s3")),
        eff("or", Var("s1"), eff("or", Var("s2"), Var("s3"))),
    )
    return Theory(
        name="nondet",
        bases=("val",),
        domains=(),
        signature=sig,
        base_rules=(rule,),
        description="binary nondeterministic choice, reassociated to the right",
    )


def _par(effects: tuple[tuple[str, int], ...] = (("e1", 1), ("e2", 1)), join: bool = True) -> Theory:
    """Interleaving parallel composition over `effects`, with the join
    rule `join-par` unless `join` is false.

    join is not an algebraic operation: join-par does not commute with
    eff-assoc.  eff-assoc moves a let's body under the join, into its
    argument, where join-par no longer sees two finished branches.  Under
    par, (let x (eff join () (eff par () (pure a) (pure b))) (eff e1 ()
    (pure x))) has two normal forms, (eff e1 () (pure (fn pair a b))) and
    (eff join () (eff e1 () (eff e1 () (eff par () (pure a) (pure b))))).
    This is nondeterminism beyond the left/right interleaving of the
    commuting rules; the rules are kept as they are."""
    decls: list = [EffectDecl("par", 2)]
    for name, arity in effects:
        decls.append(EffectDecl(name, arity))
    base_rules: tuple[RewriteRule, ...] = ()
    if join:
        decls.append(EffectDecl("join", 1))
        decls.append(FunctionDecl("pair", (Base("val"), Base("val")), Base("val")))
        base_rules = (
            make_rule(
                "join-par",
                eff("join", eff("par", Var("v"), Var("w"))),
                Pure(fn("pair", Var("v"), Var("w"))),
                extended=True,
            ),
        )
    return Theory(
        name="par",
        bases=("val",),
        domains=(),
        signature=Signature(tuple(decls)),
        base_rules=base_rules,
        schemas=(CommuteSchema("par"),),
        description="interleaving parallel composition over the other effects in scope",
    )


def _retry() -> Theory:
    nat = Base("nat")
    sig = Signature(
        (
            FunctionDecl("zero", (), nat),
            FunctionDecl("succ", (nat,), nat),
            EffectDecl("request", 3),
            FunctionDecl("retry", (nat, Eff(nat)), Eff(nat)),
        )
    )
    request = eff("request", Var("t"), Var("s1"), Var("s2"))
    rules = (
        make_rule("retry-zero", fn("retry", fn("zero"), request), Var("t")),
        make_rule(
            "retry-succ",
            fn("retry", fn("succ", Var("u")), request),
            eff("request", fn("retry", Var("u"), request), Var("s1"), Var("s2")),
        ),
    )
    return Theory(
        name="retry",
        bases=("nat",),
        domains=(),
        signature=sig,
        base_rules=rules,
        base_precedence=((("retry", ()), ("request", ())),),
        description="bounded retry of a request effect, counted by a numeral",
    )


def _peano() -> Theory:
    nat = Base("nat")
    sig = Signature(
        (
            FunctionDecl("zero", (), nat),
            FunctionDecl("succ", (nat,), nat),
            FunctionDecl("plus", (nat, nat), nat),
        )
    )
    rules = (
        make_rule("plus-zero", fn("plus", fn("zero"), Var("y")), Var("y")),
        make_rule(
            "plus-succ",
            fn("plus", fn("succ", Var("x")), Var("y")),
            fn("succ", fn("plus", Var("x"), Var("y"))),
        ),
    )
    return Theory(
        name="peano",
        bases=("nat",),
        domains=(),
        signature=sig,
        base_rules=rules,
        base_precedence=((("plus", ()), ("succ", ())),),
        description="unary naturals with plus",
    )


_BUILTINS = {
    "global-state": _global_state,
    "nondet": _nondet,
    "par": _par,
    "retry": _retry,
    "peano": _peano,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin(name: str, **options) -> Theory:
    if name not in _BUILTINS:
        raise TheoryError(f"unknown builtin theory {name!r}; available: {', '.join(builtin_names())}")
    try:
        theory = _BUILTINS[name](**options)
    except (TypeError, SignatureError) as e:
        raise TheoryError(f"bad options for builtin {name}: {e}") from e
    return _checked(theory)


# ---------------------------------------------------------------------------
# theory files


def parse_theory(text: str) -> Theory:
    """Parse a theory file:

    (theory NAME
      (base B ...)
      (domain NAME (v1 v2 ...))
      (effect NAME [DOMAIN] ARITY) ...
      (function NAME (S1 ... Sn -> T)) ...
      (rule NAME LHS RHS [extended]) ...
      (precedence (A > B) ...))

    Precedence entries name symbol families and expand over all their
    parameter instances.
    """
    try:
        node = parse_one(text)
    except SexprError as e:
        raise TheoryError(f"syntax error at {e}") from e
    if not isinstance(node, list) or len(node) < 2 or node[0] != "theory" or not isinstance(node[1], str):
        raise TheoryError("expected (theory NAME clause*)")
    name = node[1]
    bases: list[str] = []
    domains: dict[str, tuple[Param, ...]] = {}
    decls: list = []
    rule_clauses: list = []
    prec_clauses: list = []
    for clause in node[2:]:
        if not isinstance(clause, list) or not clause or not isinstance(clause[0], str):
            raise TheoryError(f"bad clause: {_node_repr(clause)}")
        head = clause[0]
        if head == "base":
            for b in clause[1:]:
                if not isinstance(b, str):
                    raise TheoryError(f"base type names must be idents, got {_node_repr(b)}")
                bases.append(b)
        elif head == "domain":
            if len(clause) != 3 or not isinstance(clause[1], str) or not isinstance(clause[2], list):
                raise TheoryError("expected (domain NAME (v1 v2 ...))")
            vals = []
            for v in clause[2]:
                if isinstance(v, list):
                    raise TheoryError(f"domain values must be atoms, got {_node_repr(v)}")
                vals.append(v)
            if not vals:
                raise TheoryError(f"domain {clause[1]} is empty")
            if clause[1] in domains:
                raise TheoryError(f"duplicate domain {clause[1]}")
            domains[clause[1]] = tuple(vals)
        elif head == "effect":
            if len(clause) == 3 and isinstance(clause[1], str) and isinstance(clause[2], int):
                decls.append(EffectDecl(clause[1], clause[2]))
            elif (
                len(clause) == 4
                and isinstance(clause[1], str)
                and isinstance(clause[2], str)
                and isinstance(clause[3], int)
            ):
                if clause[2] not in domains:
                    raise TheoryError(f"effect {clause[1]} names unknown domain {clause[2]}")
                decls.append(EffectDecl(clause[1], clause[3], domains[clause[2]]))
            else:
                raise TheoryError("expected (effect NAME [DOMAIN] ARITY)")
        elif head == "function":
            if len(clause) != 3 or not isinstance(clause[1], str) or not isinstance(clause[2], list):
                raise TheoryError("expected (function NAME (S1 ... Sn -> T))")
            form = clause[2]
            if len(form) < 2 or form[-2] != "->":
                raise TheoryError(f"function {clause[1]}: signature needs '-> T' at the end")
            try:
                args = tuple(build_type(s) for s in form[:-2])
                result = build_type(form[-1])
            except ParseError as e:
                raise TheoryError(f"function {clause[1]}: {e}") from e
            decls.append(FunctionDecl(clause[1], args, result))
        elif head == "rule":
            rule_clauses.append(clause)
        elif head == "precedence":
            prec_clauses.append(clause)
        else:
            raise TheoryError(f"unknown clause head: {head}")

    try:
        sig = Signature(tuple(decls))
    except SignatureError as e:
        raise TheoryError(str(e)) from e

    rules = []
    for clause in rule_clauses:
        if len(clause) not in (4, 5) or not isinstance(clause[1], str):
            raise TheoryError("expected (rule NAME LHS RHS [extended])")
        extended = False
        if len(clause) == 5:
            if clause[4] != "extended":
                raise TheoryError(f"rule {clause[1]}: unknown flag {_node_repr(clause[4])}")
            extended = True
        try:
            # rule sides reuse the term grammar; rule variables are free idents
            lhs = build_term(clause[2], sig)
            rhs = build_term(clause[3], sig)
        except (ParseError, SignatureError) as e:
            raise TheoryError(f"rule {clause[1]}: {e}") from e
        try:
            rules.append(make_rule(clause[1], lhs, rhs, extended))
        except RuleError as e:
            raise TheoryError(str(e)) from e

    pairs: list[tuple[Identity, Identity]] = []
    for clause in prec_clauses:
        for entry in clause[1:]:
            if (
                not isinstance(entry, list)
                or len(entry) != 3
                or entry[1] != ">"
                or not isinstance(entry[0], str)
                or not isinstance(entry[2], str)
            ):
                raise TheoryError("expected (precedence (A > B) ...)")
            a, b = entry[0], entry[2]
            if a == b:
                raise TheoryError(f"precedence {a} > {a} cannot hold in a strict order")
            for fam in (a, b):
                if fam not in sig:
                    raise TheoryError(f"precedence names unknown symbol {fam}")
            for ia in sig.instances(a):
                for ib in sig.instances(b):
                    pairs.append((ia, ib))

    return _validate(
        Theory(
            name=name,
            bases=tuple(dict.fromkeys(bases)),
            domains=tuple(domains.items()),
            signature=sig,
            base_rules=tuple(rules),
            base_precedence=tuple(pairs),
        )
    )


def load_theory(path: str) -> Theory:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_theory(fh.read())


# ---------------------------------------------------------------------------
# composition


def compose(*theories: Theory) -> Theory:
    """Disjoint union of theories, named a+b+c.  Shared identical
    declarations merge; conflicting declarations, duplicate rule names, and
    inconsistent precedences are errors.  Schemas re-instantiate over the
    union, which is validated once; a single part is validated like
    several.  Only the base rules of parts that are not `checked` are
    typed: a checked part's rules type under its own signature, so under
    the union too, and schema expansions are built from the union's
    declarations (see the module docstring)."""
    if not theories:
        raise TheoryError("compose needs at least one theory")
    sig = Signature()
    domains: dict[str, tuple[Param, ...]] = {}
    bases, rules, unchecked, schemas, pairs = [], [], [], [], []
    for part in theories:
        try:
            sig = sig.merge(part.signature)
        except SignatureError as e:
            raise TheoryError(str(e)) from e
        for dname, vals in part.domains:
            if domains.setdefault(dname, vals) != vals:
                raise TheoryError(f"conflicting domain {dname}")
        bases += part.bases
        rules += part.base_rules
        if not part.checked:
            unchecked += part.base_rules
        schemas += part.schemas
        pairs += part.base_precedence
    return _validate(
        Theory(
            name="+".join(part.name for part in theories),
            bases=tuple(dict.fromkeys(bases)),
            domains=tuple(domains.items()),
            signature=sig,
            base_rules=tuple(rules),
            schemas=tuple(dict.fromkeys(schemas)),
            base_precedence=tuple(dict.fromkeys(pairs)),
        ),
        unchecked,
    )


# ---------------------------------------------------------------------------
# numerals


def peano_numeral(n: int) -> Term:
    if n < 0:
        raise ValueError("peano numerals are nonnegative")
    t: Term = fn("zero")
    for _ in range(n):
        t = fn("succ", t)
    return t


def numeral_value(t: Term) -> int | None:
    n = 0
    while isinstance(t, SymApp) and t.kind == "fn" and t.name == "succ" and len(t.args) == 1:
        n += 1
        t = t.args[0]
    if isinstance(t, SymApp) and t.kind == "fn" and t.name == "zero" and not t.args:
        return n
    return None
