"""Exhaustive reduction graph exploration.

Breadth-first closure of the one-step rewrite relation from a start
term.  Nodes are identified modulo alpha through the canonical de Bruijn
rendering, so graphs of terms with binders stay finite when they should.
The fuel bounds the number of distinct nodes; a truncated graph keeps
whatever was explored and says so.

Exploration is a pure function of (term, rules, fuel).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .rewrite import RewriteRule, head_index, iter_redexes
from .terms import Position, Term, canonical_key, print_term

DEFAULT_NODE_FUEL = 100_000


@dataclass(frozen=True)
class Edge:
    src: str
    rule_name: str
    position: Position
    dst: str


@dataclass(frozen=True)
class ReductionGraph:
    root: str
    nodes: dict  # canonical key -> representative term, in discovery order
    edges: tuple[Edge, ...]
    normal_forms: tuple[str, ...]
    truncated: bool

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


def reduction_graph(
    t: Term, rules: list[RewriteRule] = (), fuel: int = DEFAULT_NODE_FUEL
) -> ReductionGraph:
    index = head_index(rules)
    root = canonical_key(t)
    nodes: dict[str, Term] = {root: t}
    edges: list[Edge] = []
    normal: list[str] = []
    queue: deque[str] = deque([root])
    truncated = False
    while queue:
        key = queue.popleft()
        redexes = list(iter_redexes(nodes[key], index))
        if not redexes:
            normal.append(key)
            continue
        for r in redexes:
            dst = canonical_key(r.reduct)
            if dst not in nodes:
                if len(nodes) >= fuel:
                    truncated = True
                    continue
                nodes[dst] = r.reduct
                queue.append(dst)
            edges.append(Edge(key, r.rule_name, r.position, dst))
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
