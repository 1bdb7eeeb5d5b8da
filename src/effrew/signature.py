"""Symbol signatures: effect and function declarations.

One name maps to exactly one declaration, so two symbols with the same
name but different arities are rejected up front.  An effect family with
a nonempty parameter domain contributes one symbol identity per value in
the domain; identities are what precedences and matching care about.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Identity, Param, SymApp, Type, ident_str, type_str


class SignatureError(Exception):
    pass


@dataclass(frozen=True)
class EffectDecl:
    name: str
    arity: int
    param_domain: tuple[Param, ...] = ()

    kind = "eff"


@dataclass(frozen=True)
class FunctionDecl:
    name: str
    arg_types: tuple[Type, ...]
    result: Type

    kind = "fn"

    @property
    def arity(self) -> int:
        return len(self.arg_types)


Decl = EffectDecl | FunctionDecl


@dataclass(frozen=True)
class Signature:
    decls: tuple = ()

    def __post_init__(self):
        seen = {}
        for d in self.decls:
            if d.name in seen:
                raise SignatureError(f"duplicate symbol name: {d.name}")
            if isinstance(d, EffectDecl):
                if d.arity < 0:
                    raise SignatureError(f"negative arity for {d.name}")
                # values that print alike would give identities that print alike
                n = len(d.param_domain)
                if len(set(d.param_domain)) != n or len(set(map(str, d.param_domain))) != n:
                    raise SignatureError(f"repeated values in {d.name} parameter domain")
            seen[d.name] = d
        object.__setattr__(self, "_by_name", seen)

    def get(self, name: str):
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def effects(self) -> list[EffectDecl]:
        return [d for d in self.decls if isinstance(d, EffectDecl)]

    def functions(self) -> list[FunctionDecl]:
        return [d for d in self.decls if isinstance(d, FunctionDecl)]

    def instances(self, name: str) -> list[Identity]:
        """All identities of a symbol family: one per domain value, or a
        single parameterless identity."""
        d = self.get(name)
        if d is None:
            raise SignatureError(f"unknown symbol: {name}")
        if isinstance(d, EffectDecl) and d.param_domain:
            return [(name, (v,)) for v in d.param_domain]
        return [(name, ())]

    def merge(self, other: "Signature") -> "Signature":
        """Union of two signatures.  The same name may appear on both sides
        only with an identical declaration."""
        out = list(self.decls)
        for d in other.decls:
            mine = self.get(d.name)
            if mine is None:
                out.append(d)
            elif mine != d:
                raise SignatureError(f"conflicting declarations for symbol {d.name}")
        return Signature(tuple(out))


def check_symapp(sig: Signature, node: SymApp) -> Decl:
    """Validate a symbol application node against the signature; returns
    the declaration."""
    decl = sig.get(node.name)
    if decl is None:
        raise SignatureError(f"unknown symbol: {node.name}")
    if decl.kind != node.kind:
        raise SignatureError(
            f"{node.name} is declared as {'an effect' if decl.kind == 'eff' else 'a function'}"
        )
    if isinstance(decl, EffectDecl):
        if decl.param_domain:
            if len(node.params) != 1:
                raise SignatureError(f"{node.name} takes exactly one parameter")
            if node.params[0] not in decl.param_domain:
                raise SignatureError(
                    f"parameter {node.params[0]} not in domain of {node.name}"
                )
        elif node.params:
            raise SignatureError(f"{node.name} takes no parameters")
    elif node.params:
        raise SignatureError(f"function symbol {node.name} takes no parameters")
    if len(node.args) != decl.arity:
        raise SignatureError(
            f"arity mismatch: {ident_str(node.identity)} expects "
            f"{decl.arity} arguments, got {len(node.args)}"
        )
    return decl


def describe_decl(d) -> str:
    if isinstance(d, EffectDecl):
        dom = " over {" + ", ".join(str(v) for v in d.param_domain) + "}" if d.param_domain else ""
        return f"effect {d.name}/{d.arity}{dom}"
    sig = " ".join(type_str(t) for t in d.arg_types)
    return f"function {d.name} : ({sig} -> {type_str(d.result)})"
