"""Classifier rules, verdicts on the curated corpus, ideal reports."""

from __future__ import annotations

import random

import graphck as G

from conftest import (dumbbell, full_two_vertex, mixed_m, random_graph,
                      single_edge, single_loop, three_loop, two_cycle,
                      two_loop, two_vertex_pi, u_graph)


def chain(n):
    vs = [f"v{i}" for i in range(n)]
    es = [(f"e{i}", f"v{i}", f"v{i+1}") for i in range(n - 1)]
    return G.DirectedGraph.build(vs, es)


def disjoint_pair():
    return G.DirectedGraph.build(
        ["v", "w"],
        [("e1", "v", "v"), ("e2", "v", "v"), ("f1", "w", "w"), ("f2", "w", "w")])


def feeder_chain():
    """Two-step feeder into a two-loop vertex; purely infinite as a whole
    since every vertex connects to the cycle."""
    return G.DirectedGraph.build(
        ["u1", "u2", "v"],
        [("a", "u1", "u2"), ("b", "u2", "v"), ("e1", "v", "v"), ("e2", "v", "v")])


def branched_mixed():
    """Two loops at v, a feeder chain, and a dead branch ending at a sink:
    not purely infinite, but the ideal at v has an acyclic quotient."""
    return G.DirectedGraph.build(
        ["u1", "u2", "v", "w"],
        [("a", "u1", "v"), ("c", "u1", "u2"), ("d", "u2", "w"),
         ("e1", "v", "v"), ("e2", "v", "v")])


def loop_with_exit():
    return G.DirectedGraph.build(["v", "w"], [("e", "v", "v"), ("a", "v", "w")])


def test_purely_infinite_examples():
    assert G.purely_infinite(two_loop())
    assert not G.purely_infinite(single_loop())
    assert not G.purely_infinite(mixed_m())
    assert G.purely_infinite(two_vertex_pi())
    assert not G.purely_infinite(two_cycle())


# graph builder, expected lower, expected upper, rule that must fire
CORPUS = [
    ("empty", lambda: G.DirectedGraph.build([], []), 0, 0, "R0"),
    ("point", lambda: chain(1), 0, 0, "R0"),
    ("single_edge", single_edge, 0, 0, "R0"),
    ("chain3", lambda: chain(3), 0, 0, "R0"),
    ("single_loop", single_loop, 1, None, "R5"),
    ("two_cycle", two_cycle, 1, None, "R5"),
    ("dumbbell", dumbbell, 1, None, "R5"),
    ("loop_with_exit", loop_with_exit, 1, None, "R5"),
    ("two_loop", two_loop, 1, 1, "R1"),
    ("three_loop", three_loop, 1, 1, "R1"),
    ("full_two_vertex", full_two_vertex, 1, 1, "R1"),
    ("two_vertex_pi", two_vertex_pi, 1, 1, "R1"),
    ("disjoint_pair", disjoint_pair, 1, 1, "R1"),
    ("u_graph", u_graph, 1, 1, "R1"),
    ("feeder_chain", feeder_chain, 1, 1, "R1"),
    ("mixed_m", mixed_m, 1, 1, "R3"),
    ("branched_mixed", branched_mixed, 1, 1, "R3"),
]


def test_classifier_corpus():
    assert len(CORPUS) >= 12
    for name, make, lo, hi, rule in CORPUS:
        verdict = G.classify(make())
        assert verdict.lower == lo, (name, verdict)
        assert verdict.upper == hi, (name, verdict)
        assert rule in {r.rule for r in verdict.rules_fired}, (name, verdict)


def test_classifier_never_inverts_bounds():
    for name, make, *_ in CORPUS:
        v = G.classify(make())
        if v.lower is not None and v.upper is not None:
            assert v.lower <= v.upper


def test_r1_carries_lattice_witness():
    v = G.classify(two_loop())
    r1 = next(r for r in v.rules_fired if r.rule == "R1")
    assert r1.witness["ideal_lattice"] == [[], ["v"]]
    assert v.toeplitz_upper == 2


def test_r3_carries_ideal_witness():
    v = G.classify(mixed_m())
    r3 = next(r for r in v.rules_fired if r.rule == "R3")
    assert r3.witness["ideal_vertices"] == ["v"]
    assert "ideal_lattice" in r3.witness
    # hypotheses re-check by hand: the witness piece is purely infinite and
    # the quotient is acyclic
    m = mixed_m()
    h = {m.vertex("v")}
    assert G.purely_infinite(G.restriction_graph(m, h))
    assert G.is_acyclic(G.quotient_graph(m, h))


def test_mixed_m_feeds_rule_r3_not_r1():
    v = G.classify(mixed_m())
    fired = {r.rule for r in v.rules_fired}
    assert "R1" not in fired and "R3" in fired


def test_single_loop_abstains():
    v = G.classify(single_loop())
    assert (v.lower, v.upper, v.toeplitz_upper) == (1, None, None)


def test_ideal_report_mixed_m():
    rep = G.ideal_report(mixed_m())
    assert [e.vertices for e in rep.entries] == [[], ["v"], ["w"], ["u", "v", "w"]]
    witness = next(e for e in rep.entries if e.vertices == ["v"])
    assert witness.restriction_purely_infinite and witness.quotient_acyclic
    assert rep.condition_k and rep.warning is None


def test_ideal_report_two_loop_simple():
    rep = G.ideal_report(two_loop())
    assert rep.simple and len(rep.entries) == 2


def test_simple_requires_condition_L():
    # C*(single loop) = C(T) and C*(two_cycle) = M_2(C(T)): two-set lattices,
    # but a cycle without an exit; the empty graph's algebra is zero
    assert not G.ideal_report(single_loop()).simple
    assert not G.ideal_report(two_cycle()).simple
    assert not G.ideal_report(G.DirectedGraph.build([], [])).simple


def test_ideal_report_two_cycle_warns():
    rep = G.ideal_report(two_cycle())
    assert not rep.condition_k
    assert rep.warning is not None
    assert [e.vertices for e in rep.entries] == [[], ["v", "w"]]


def _pieces_by_graphs(g, h):
    """Oracle for one lattice set: build both pieces and test them directly."""
    return (G.purely_infinite(G.restriction_graph(g, h)),
            G.is_acyclic(G.quotient_graph(g, h)))


def _r3_by_graphs(g):
    """Oracle for R3: the first lattice set whose pieces pass, past R0 and R1."""
    if G.is_acyclic(g) or G.purely_infinite(g):
        return None
    lattice = G.enumerate_hereditary_saturated(g)
    for h in lattice:
        if h and all(_pieces_by_graphs(g, h)):
            return {"ideal_vertices": sorted(v.id for v in h),
                    "ideal_lattice": [sorted(v.id for v in s) for s in lattice if s <= h]}
    return None


def test_ideal_predicates_match_built_pieces():
    rng = random.Random(6)
    graphs = [make() for _, make, *_ in CORPUS]
    graphs += [random_graph(rng, max_vertices=9, max_edges=14) for _ in range(300)]
    fired = 0
    for g in graphs:
        lattice = G.enumerate_hereditary_saturated(g)
        entries = G.ideal_report(g).entries
        assert [e.vertices for e in entries] == [sorted(v.id for v in h) for h in lattice]
        for h, e in zip(lattice, entries):
            got = (e.restriction_purely_infinite, e.quotient_acyclic)
            assert got == _pieces_by_graphs(g, h), (g.edges, e.vertices)
        r3 = [r.witness for r in G.classify(g).rules_fired if r.rule == "R3"]
        expected = _r3_by_graphs(g)
        assert r3 == ([expected] if expected else []), g.edges
        fired += bool(r3)
    assert fired >= 5
