import random

from effrew.graph import Edge, ReductionGraph, graph_summary, reduction_graph
from effrew.rewrite import make_rule
from effrew.terms import Pure, Var, alpha_eq, canonical_key, eff, fn, print_term
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
