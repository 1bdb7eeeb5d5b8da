"""Exhaustive reduction graph exploration.

Breadth-first closure of the one-step rewrite relation from a start
term.  Nodes are identified modulo alpha through the canonical de Bruijn
rendering, so graphs of terms with binders stay finite when they should.
The fuel bounds the number of distinct nodes; a truncated graph keeps
whatever was explored and says so.  Each node is listed once by the
rewrite engine's redex walk, and each reduct is built from what that
listing found (the bindings of a user rule), without a second match.
Per edge the exploration builds one contractum, one reduct (the node's
term with the contractum spliced in by replace_at, which shares every
subterm off the path), one canonical key and one Edge, whether or not
the key names a node met before.

Exploration is a pure function of (term, rules, fuel).
"""

from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

from .rewrite import _ROOT, RewriteRule, _cell_position, _contractum, _list_redexes, head_index
from .terms import Position, Term, _built, _table, canonical_key, print_term, replace_at

DEFAULT_NODE_FUEL = 100_000


@dataclass(slots=True, init=False, unsafe_hash=True)
class Edge:
    """One rewrite step between two nodes, named by their keys.  A
    read-only dataclass on __slots__, as RpoDerivation is: the constructor
    writes each slot through its descriptor, and assigning or deleting any
    name raises FrozenInstanceError.  Equality, the hash and repr are the
    dataclass's own, over the four fields; RpoDerivation takes its own
    from the node base it shares with the terms."""

    src: str
    rule_name: str
    position: Position
    dst: str

    def __init__(self, src: str, rule_name: str, position: Position, dst: str):
        _edge_src(self, src)
        _edge_rule_name(self, rule_name)
        _edge_position(self, position)
        _edge_dst(self, dst)

    def __reduce__(self):
        return Edge, (self.src, self.rule_name, self.position, self.dst)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_edge_src, _edge_rule_name = Edge.src.__set__, Edge.rule_name.__set__
_edge_position, _edge_dst = Edge.position.__set__, Edge.dst.__set__


@dataclass(frozen=True)
class ReductionGraph:
    root: str
    nodes: dict  # canonical key -> representative term, in discovery order
    edges: tuple[Edge, ...]
    normal_forms: tuple[str, ...]
    truncated: bool

    def __reduce__(self):
        """The node terms as one flat table (see terms._table), which
        _load_graph rebuilds in one loop, so a subterm that several nodes
        share stays shared; the cached adjacency is left behind."""
        table, at = _table(list(self.nodes.values()))
        rows = [(key, at[id(t)]) for key, t in self.nodes.items()]
        return _load_graph, (self.root, table, rows, self.edges, self.normal_forms, self.truncated)

    def __deepcopy__(self, memo):
        # the table holds only classes, scalars and indices, and the edges
        # are read-only, so the copy is built from them as they are
        return _load_graph(*self.__reduce__()[1])

    def __copy__(self):
        return ReductionGraph(self.root, self.nodes, self.edges, self.normal_forms, self.truncated)

    @property
    def normal_form_terms(self) -> list[Term]:
        return [self.nodes[k] for k in self.normal_forms]

    def successors(self, key: str) -> list[str]:
        return list(self._adjacency.get(key, ()))

    @cached_property
    def _adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {k: [] for k in self.nodes}
        for e in self.edges:
            adj[e.src].append(e.dst)
        return adj

    @cached_property
    def _topological_order(self) -> list[str] | None:
        """Kahn order of the nodes, or None when the edges close a cycle.
        Iterative, so deep chains do not hit the recursion limit."""
        adj = self._adjacency
        indeg = dict.fromkeys(self.nodes, 0)
        for e in self.edges:
            indeg[e.dst] += 1
        ready = deque(k for k, d in indeg.items() if d == 0)
        order = []
        while ready:
            k = ready.popleft()
            order.append(k)
            for n in adj[k]:
                indeg[n] -= 1
                if indeg[n] == 0:
                    ready.append(n)
        return order if len(order) == len(self.nodes) else None

    def has_cycle(self) -> bool:
        return self._topological_order is None

    @property
    def acyclic(self) -> bool | None:
        """True/False when fully explored; None when truncated (a cycle in
        the explored part still reports False)."""
        if self.has_cycle():
            return False
        return None if self.truncated else True

    def longest_path(self) -> int | None:
        """Length in steps of the longest reduction from the root; None for
        truncated or cyclic graphs."""
        order = self._topological_order
        if self.truncated or order is None:
            return None
        adj = self._adjacency
        depth: dict[str, int] = {}
        for k in reversed(order):
            depth[k] = max((1 + depth[n] for n in adj[k]), default=0)
        return depth[self.root]

    def to_dot(self) -> str:
        ids = {k: f"n{i}" for i, k in enumerate(self.nodes)}
        lines = ["digraph reduction {"]
        for k, term in self.nodes.items():
            label = print_term(term).replace("\\", "\\\\").replace('"', '\\"')
            shape = ' shape=doublecircle' if k in self.normal_forms else ""
            lines.append(f'  {ids[k]} [label="{label}"{shape}];')
        for e in self.edges:
            lines.append(f'  {ids[e.src]} -> {ids[e.dst]} [label="{e.rule_name}"];')
        lines.append("}")
        return "\n".join(lines)


def _load_graph(
    root: str, table: tuple, rows: list, edges: tuple, normal_forms: tuple, truncated: bool
) -> ReductionGraph:
    """The graph that ReductionGraph.__reduce__ listed."""
    built = _built(table)
    return ReductionGraph(root, {key: built[i] for key, i in rows}, edges, normal_forms, truncated)


def reduction_graph(
    t: Term, rules: list[RewriteRule] = (), fuel: int = DEFAULT_NODE_FUEL
) -> ReductionGraph:
    index = head_index(rules)
    root = canonical_key(t)
    nodes: dict[str, Term] = {root: t}
    # each key met to its first key object, which the nodes dict holds, so
    # that every edge holds that object and not a string of its own
    keys: dict[str, str] = {root: root}
    edges: list[Edge] = []
    normal: list[str] = []
    queue: deque[str] = deque([root])
    truncated = False
    # one redex-free record serves every node's walk, since a subterm with
    # no redex has none wherever it occurs
    clean: dict[int, Term] = {}
    while queue:
        key = queue.popleft()
        term = nodes[key]
        listing: list = []
        _list_redexes(term, _ROOT, index, clean, listing)
        if not listing:
            normal.append(key)
            continue
        cell = None
        for at, _, rule_name, rule, _, contraction in listing:
            # the entries at one node share its cell
            if at is not cell:
                cell, pos = at, _cell_position(at)
            reduct = replace_at(term, pos, _contractum(rule, contraction))
            dst = canonical_key(reduct)
            dst = keys.setdefault(dst, dst)
            if dst not in nodes:
                if len(nodes) >= fuel:
                    truncated = True
                    continue
                nodes[dst] = reduct
                queue.append(dst)
            edges.append(Edge(key, rule_name, pos, dst))
    return ReductionGraph(root, nodes, tuple(edges), tuple(normal), truncated)


def graph_summary(g: ReductionGraph) -> str:
    acyclic = {True: "yes", False: "no", None: "unknown (truncated)"}[g.acyclic]
    longest = g.longest_path()
    lines = [
        f"nodes: {len(g.nodes)}",
        f"edges: {len(g.edges)}",
        f"normal forms: {len(g.normal_forms)}",
        f"acyclic: {acyclic}",
        f"longest path: {longest if longest is not None else 'n/a'}",
        f"truncated: {'yes' if g.truncated else 'no'}",
    ]
    for k in g.normal_forms:
        lines.append(f"  nf: {print_term(g.nodes[k])}")
    return "\n".join(lines)
