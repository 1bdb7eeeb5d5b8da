import copy
import dataclasses
import pickle
import random

import pytest

from effrew.graph import Edge, ReductionGraph, graph_summary, reduction_graph
from effrew.rewrite import make_rule
from effrew.terms import Let, Pure, Var, alpha_eq, canonical_key, eff, fn, iter_subterms, print_term
from oracles import naive_normal_forms
from termgen import or_tree


def test_normal_form_is_its_own_graph():
    g = reduction_graph(Pure(Var("v")))
    assert len(g.nodes) == 1
    assert g.edges == ()
    assert g.normal_forms == (g.root,)
    assert not g.truncated
    assert g.acyclic is True
    assert g.longest_path() == 0


def test_two_step_chain(peano):
    from effrew.theories import peano_numeral

    t = fn("plus", peano_numeral(1), peano_numeral(1))
    g = reduction_graph(t, list(peano.rules))
    assert g.acyclic is True
    assert len(g.normal_forms) == 1
    assert alpha_eq(g.normal_form_terms[0], peano_numeral(2))
    assert g.longest_path() == 2


def test_par_race_has_two_normal_forms(par):
    t = eff("par", eff("e1", Pure(Var("v"))), eff("e2", Pure(Var("w"))))
    g = reduction_graph(t, list(par.rules))
    assert len(g.normal_forms) == 2
    assert g.acyclic is True
    nf_keys = set(g.normal_forms)
    assert nf_keys == naive_normal_forms(t, list(par.rules))


def test_graph_agrees_with_naive_closure(nondet):
    rng = random.Random(31)
    rules = list(nondet.rules)
    for _ in range(20):
        t = or_tree(rng, 3)
        g = reduction_graph(t, rules)
        assert not g.truncated
        assert set(g.normal_forms) == naive_normal_forms(t, rules)


def test_nodes_deduplicated_modulo_alpha(nondet):
    # Two different reduction orders reach alpha-variants, not duplicates.
    t = eff(
        "or",
        eff("or", Pure(Var("a")), Pure(Var("b"))),
        eff("or", Pure(Var("c")), Pure(Var("d"))),
    )
    g = reduction_graph(t, list(nondet.rules))
    keys = list(g.nodes)
    assert len(keys) == len(set(keys))
    for key, term in g.nodes.items():
        assert canonical_key(term) == key


def test_truncation_flags_and_unknowns():
    rule = make_rule("grow", fn("g", Var("x")), fn("g", fn("g", Var("x"))))
    g = reduction_graph(fn("g", fn("c")), [rule], fuel=5)
    assert g.truncated
    assert len(g.nodes) == 5
    assert g.acyclic is None
    assert g.longest_path() is None


def test_cycle_detected():
    swap = make_rule("swap", fn("f", Var("x"), Var("y")), fn("f", Var("y"), Var("x")))
    g = reduction_graph(fn("f", fn("c"), Var("v")), [swap])
    assert g.has_cycle()
    assert g.acyclic is False
    assert g.longest_path() is None
    assert g.normal_forms == ()


def test_edges_reference_known_nodes(par):
    t = eff("par", eff("e1", Pure(Var("v"))), eff("e2", Pure(Var("w"))))
    g = reduction_graph(t, list(par.rules))
    for e in g.edges:
        assert isinstance(e, Edge)
        assert e.src in g.nodes
        assert e.dst in g.nodes
        assert e.rule_name


def test_to_dot_format(par):
    t = eff("par", eff("e1", Pure(Var("v"))), eff("e2", Pure(Var("w"))))
    g = reduction_graph(t, list(par.rules))
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert dot.count("doublecircle") == len(g.normal_forms)
    assert dot.count("->") == len(g.edges)
    for term in g.nodes.values():
        assert print_term(term).replace('"', '\\"') in dot


def test_graph_summary_lines(nondet):
    t = eff("or", eff("or", Pure(Var("a")), Pure(Var("b"))), Pure(Var("c")))
    g = reduction_graph(t, list(nondet.rules))
    text = graph_summary(g)
    assert f"nodes: {len(g.nodes)}" in text
    assert "normal forms: 1" in text
    assert "acyclic: yes" in text
    assert "truncated: no" in text
    assert "nf: " in text


def test_longest_path_on_diamond():
    # f(c) -> g(c) two ways with different lengths; longest must win.
    r1 = make_rule("short", fn("f", Var("x")), fn("g", Var("x")))
    r2 = make_rule("stepdown", fn("f", Var("x")), fn("h", Var("x")))
    r3 = make_rule("finish", fn("h", Var("x")), fn("g", Var("x")))
    g = reduction_graph(fn("f", fn("c")), [r1, r2, r3])
    assert g.successors(g.root) == [canonical_key(fn("g", fn("c"))), canonical_key(fn("h", fn("c")))]
    assert g.longest_path() == 2
    assert len(g.normal_forms) == 1


def test_longest_path_survives_deep_chains():
    # chain far past the interpreter recursion limit
    n = 5000
    keys = [f"k{i}" for i in range(n + 1)]
    nodes = {k: Var(k) for k in keys}
    edges = tuple(Edge(keys[i], "step", (), keys[i + 1]) for i in range(n))
    g = ReductionGraph(keys[0], nodes, edges, (keys[-1],), False)
    assert g.longest_path() == n
    assert g.acyclic is True


def test_join_does_not_commute_with_eff_assoc(par):
    # eff-assoc moves the let's body under join, where join-par no longer
    # sees two finished branches: join is not an algebraic operation
    joined = eff("join", eff("par", Pure(Var("a")), Pure(Var("b"))))
    t = Let("x", joined, eff("e1", Pure(Var("x"))))
    assert graph_summary(reduction_graph(t, list(par.rules))).splitlines() == [
        "nodes: 13",
        "edges: 16",
        "normal forms: 2",
        "acyclic: yes",
        "longest path: 6",
        "truncated: no",
        "  nf: (eff e1 () (pure (fn pair a b)))",
        "  nf: (eff join () (eff e1 () (eff e1 () (eff par () (pure a) (pure b)))))",
    ]


def test_edge_contract(par):
    # a read-only dataclass on slots, with the fields, equality, hash, repr
    # and replace of a frozen dataclass
    e = Edge("k0", "par-left", (0, 1), "k1")
    assert [f.name for f in dataclasses.fields(Edge)] == ["src", "rule_name", "position", "dst"]
    assert all(f.init and f.compare and f.hash is None for f in dataclasses.fields(Edge))
    assert repr(e) == "Edge(src='k0', rule_name='par-left', position=(0, 1), dst='k1')"
    assert e == Edge("k0", "par-left", (0, 1), "k1") and hash(e) == hash(("k0", "par-left", (0, 1), "k1"))
    assert e == Edge(src="k0", rule_name="par-left", position=(0, 1), dst="k1")
    for other in (
        Edge("k2", "par-left", (0, 1), "k1"),
        Edge("k0", "par-right", (0, 1), "k1"),
        Edge("k0", "par-left", (0,), "k1"),
        Edge("k0", "par-left", (0, 1), "k2"),
    ):
        assert e != other
    assert e != ("k0", "par-left", (0, 1), "k1")
    assert dataclasses.replace(e, dst="k2") == Edge("k0", "par-left", (0, 1), "k2")
    assert not hasattr(e, "__dict__")
    for name in ("src", "rule_name", "position", "dst", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, name, "k9")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(e, name)
    assert e == Edge("k0", "par-left", (0, 1), "k1")
    # a graph copies and pickles whole, its edges included
    t = Let("x", eff("par", eff("e1", Pure(Var("v"))), eff("e2", Pure(Var("w")))), Pure(Var("x")))
    g = reduction_graph(t, list(par.rules))
    assert len(g.edges) > 4
    for dup in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        again = dup(g)
        assert again == g
        assert list(again.nodes.items()) == list(g.nodes.items())
        assert again.edges == g.edges and all(type(x) is Edge for x in again.edges)
        assert again.normal_forms == g.normal_forms and again.truncated == g.truncated
        assert again.to_dot() == g.to_dot()


def _shared_across_nodes(g):
    """The subterms that two nodes of g hold as one object, each as the
    pair of its first place, (node number, position), and a later place in
    another node."""
    first, shared = {}, set()
    for i, term in enumerate(g.nodes.values()):
        for pos, sub in iter_subterms(term):
            at = first.setdefault(id(sub), (i, pos))
            if at[0] != i:
                shared.add((at, (i, pos)))
    return shared


def test_copied_graphs_keep_subterms_that_nodes_share(par):
    # a reduct shares every subterm off its redex's path with the node it
    # came from; the graph reduces to one table of all its node terms, so a
    # copy shares each of them between the same places, and no more
    t = Let("x", eff("par", eff("e1", Pure(Var("v"))), eff("e2", Pure(Var("w")))), Pure(Var("x")))
    g = reduction_graph(t, list(par.rules))
    shared = _shared_across_nodes(g)
    assert len(shared) > 10
    for dup in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        again = dup(g)
        assert again == g and _shared_across_nodes(again) == shared
    assert copy.copy(g).nodes is g.nodes


def test_edges_hold_the_node_keys_themselves(par):
    # an edge to a node met before names it by the nodes dict's own key
    # object, not a string of its own that spells the same key, so a graph
    # and its pickle hold each key once
    t = Let("x", eff("par", eff("e1", Pure(Var("v"))), eff("e2", Pure(Var("w")))), Pure(Var("x")))
    g = reduction_graph(t, list(par.rules))
    assert len(g.edges) > len(g.nodes) - 1
    for h in (g, copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        keys = {id(k) for k in h.nodes}
        assert id(h.root) in keys
        assert all(id(e.src) in keys and id(e.dst) in keys for e in h.edges)
    # edges that each hold their own copy of their keys pickle larger
    apart = tuple(Edge("".join(e.src), e.rule_name, e.position, "".join(e.dst)) for e in g.edges)
    assert apart == g.edges and apart[-1].dst is not g.edges[-1].dst
    assert len(pickle.dumps(g)) < len(pickle.dumps(dataclasses.replace(g, edges=apart)))
