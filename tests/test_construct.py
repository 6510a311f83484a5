"""Blow-up graphs, path embedding, truncation, closure subgraph, tails."""

from __future__ import annotations

import hashlib
import random

import pytest

import graphck as G
from graphck.errors import ContractViolation
from graphck.graphs import Path, paths
from graphck.symbolic import iota_path_image

from conftest import (mixed_m, random_condition_k_graph, random_graph,
                      single_edge, single_loop, two_loop)
from oracles import (add_tails, embed_path_by_blocks, iota_path_image_by_products,
                     truncate_path)


def test_truncate_examples():
    g = two_loop()
    e, f = g.edge("e"), g.edge("f")
    mu5 = Path((e, f, e, f, e))
    w = truncate_path(mu5, 2)
    assert w.head.id == "e" and w.tail_length == 4
    mu4 = Path((e, f, e, f))
    w = truncate_path(mu4, 2)
    assert len(w.head) == 0 and w.head.source.id == "v"
    mu1 = Path((e,))
    assert truncate_path(mu1, 3).head == mu1


def test_truncate_head_uniqueness(rng):
    for _ in range(60):
        g = random_graph(rng, max_vertices=4, max_edges=8)
        for mu in paths(g, 0, 5):
            for m in (1, 2, 3):
                w = truncate_path(mu, m)
                assert len(w.head) < m and w.tail_length % m == 0
                assert mu.edges[:len(w.head)] == w.head.edges


def test_blowup_m1_isomorphic_to_base(rng):
    for _ in range(25):
        g = random_graph(rng, max_vertices=5, max_edges=10)
        bg = G.blowup_graph(g, 1)
        assert len(bg.graph.vertices) == len(g.vertices)
        assert len(bg.graph.edges) == len(g.edges)
        for em in bg.graph.edges:
            e, p = bg.pair_of_edge(em)
            assert len(p) == 0
            assert bg.path_of_vertex(em.source) == Path.at(e.source)
            assert bg.path_of_vertex(em.range) == Path.at(e.range)


def test_blowup_two_loop_m2():
    bg = G.blowup_graph(two_loop(), 2)
    assert [v.id for v in bg.graph.vertices] == ["v", "e", "f"]
    got = {(e.id, e.source.id, e.range.id) for e in bg.graph.edges}
    assert got == {("e__v", "e", "v"), ("f__v", "f", "v"),
                   ("e__e", "v", "e"), ("e__f", "v", "f"),
                   ("f__e", "v", "e"), ("f__f", "v", "f")}


def test_blowup_single_edge_m2():
    bg = G.blowup_graph(single_edge(), 2)
    assert [v.id for v in bg.graph.vertices] == ["v", "w", "e"]
    assert [(e.id, e.source.id, e.range.id) for e in bg.graph.edges] == [("e__w", "e", "w")]


def test_blowup_source_range_rules(rng):
    for _ in range(30):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        for m in (1, 2, 3, 4):
            bg = G.blowup_graph(g, m)
            assert len(bg.graph.vertices) == len(paths(g, 0, m))
            for em in bg.graph.edges:
                e, p = bg.pair_of_edge(em)
                assert e.range == p.source
                assert bg.path_of_vertex(em.range) == p
                if len(p) < m - 1:
                    assert bg.path_of_vertex(em.source) == Path((e,)) * p
                else:
                    assert bg.path_of_vertex(em.source) == Path.at(e.source)


def test_embed_examples():
    g = two_loop()
    e, f = g.edge("e"), g.edge("f")
    bg = G.blowup_graph(g, 2)
    assert G.embed_path(bg, Path.at(g.vertex("v"))).id == "v"
    assert G.embed_path(bg, Path((e, f))).id == "e__f.f__v"
    assert G.embed_path(bg, Path((e, f, e, f))).id == "e__f.f__v.e__f.f__v"


def _random_walk(rng, g, length):
    v = rng.choice(g.vertices)
    edges = []
    for _ in range(length):
        out = g.out_edges(v if not edges else edges[-1].range)
        if not out:
            break
        edges.append(rng.choice(out))
    return Path(tuple(edges)) if edges else Path.at(v)


def test_embed_endpoints_exhaustive_small():
    """Every path of length <= 3m on the low-branching corpus graphs."""
    for g in (two_loop(), single_loop(), single_edge()):
        for m in (1, 2, 3):
            bg = G.blowup_graph(g, m)
            seen = set()
            for mu in paths(g, 0, 3 * m + 1):
                img = G.embed_path(bg, mu)
                assert len(img) == len(mu)
                assert bg.path_of_vertex(img.source) == truncate_path(mu, m).head
                assert bg.path_of_vertex(img.range) == Path.at(mu.range)
                assert img not in seen
                seen.add(img)


def test_embed_endpoints_random(rng):
    for _ in range(25):
        g = random_graph(rng, max_vertices=4, max_edges=6)
        for m in (1, 2, 3):
            bg = G.blowup_graph(g, m)
            for _ in range(25):
                mu = _random_walk(rng, g, rng.randint(0, 3 * m))
                img = G.embed_path(bg, mu)
                assert len(img) == len(mu)
                assert bg.path_of_vertex(img.source) == truncate_path(mu, m).head
                assert bg.path_of_vertex(img.range) == Path.at(mu.range)


def test_embed_block_factorization(rng):
    """The image of mu*nu is the image of mu followed by the image of nu
    whenever |nu| is a multiple of m: then the truncation of nu is a vertex of
    length 0, which is where the image of mu ends."""
    checked = 0
    for _ in range(40):
        g = random_graph(rng, max_vertices=4, max_edges=6, no_sinks=True)
        for m in (1, 2, 3):
            bg = G.blowup_graph(g, m)
            for _ in range(15):
                mu = _random_walk(rng, g, rng.randint(0, 2 * m))
                edges = []
                cur = mu.range
                for _ in range(m * rng.randint(0, 2)):
                    e = rng.choice(g.out_edges(cur))
                    edges.append(e)
                    cur = e.range
                nu = Path(tuple(edges)) if edges else Path.at(mu.range)
                whole = G.embed_path(bg, mu * nu)
                split = G.embed_path(bg, mu) * G.embed_path(bg, nu)
                assert whole == split
                checked += 1
    assert checked > 100


def test_walks_match_block_recursion_and_edge_products(rng):
    """The labeled walk gives the embedding the block recursion gives, and
    the inclusion the product of the scanned edge images gives, on random
    graphs with and without sinks."""
    checked = 0
    for _ in range(20):
        g = random_graph(rng, max_vertices=4, max_edges=6)
        for m in (1, 2, 3, 4):
            bg = G.blowup_graph(g, m)
            for _ in range(30):
                mu = _random_walk(rng, g, rng.randint(0, 2 * m + 1))
                assert G.embed_path(bg, mu) == embed_path_by_blocks(bg, mu), (m, mu)
                checked += 1
            for _ in range(8):
                mu = _random_walk(rng, g, rng.randint(0, m + 1))
                assert iota_path_image(bg, mu) == iota_path_image_by_products(bg, mu), (m, mu)
    assert checked == 2400


def _ring(n: int) -> G.DirectedGraph:
    """Ring i -> i+1 (a), i -> i+2 (b) on n vertices."""
    return G.DirectedGraph.build(
        [f"v{i}" for i in range(n)],
        [x for i in range(n) for x in ((f"a{i}", f"v{i}", f"v{(i + 1) % n}"),
                                       (f"b{i}", f"v{i}", f"v{(i + 2) % n}"))])


def test_jeong_park_examples():
    g = two_loop()
    sub = G.jeong_park_subgraph(g, {g.vertex("v")}, set())
    assert sorted(e.id for e in sub.edges) == ["e", "f"]
    empty = G.jeong_park_subgraph(g, set(), set())
    assert empty.vertices == () and empty.edges == ()
    u = G.DirectedGraph.build(
        ["u", "v"], [("a", "u", "v"), ("e1", "v", "v"), ("e2", "v", "v")])
    sub = G.jeong_park_subgraph(u, {u.vertex("u")}, set())
    assert sorted(v.id for v in sub.vertices) == ["u", "v"]
    assert sorted(e.id for e in sub.edges) == ["a", "e1", "e2"]
    # 400-vertex ring: long searches where the lex tie-breaking decides every
    # cycle the closure adds
    n = 400
    ring = _ring(n)
    sub = G.jeong_park_subgraph(ring, {ring.vertex("v0")}, set())
    assert [e.id for e in sub.edges] == [
        x for i in range(n) for x in ((f"a{i}", f"b{i}") if i % 2 == 0 else (f"a{i}",))]


def test_jeong_park_precondition():
    with pytest.raises(ContractViolation):
        G.jeong_park_subgraph(single_loop(), set(), set())


def test_jeong_park_properties(rng):
    for _ in range(100):
        g = random_condition_k_graph(rng)
        k = rng.randint(0, len(g.vertices))
        v_set = set(rng.sample(list(g.vertices), k))
        f_set = set(rng.sample(list(g.edges), rng.randint(0, min(2, len(g.edges)))))
        sub = G.jeong_park_subgraph(g, v_set, f_set)
        assert G.satisfies_condition_K(sub)
        assert G.every_vertex_connects_to_cycle(sub)
        assert v_set <= set(sub.vertices) and f_set <= set(sub.edges)
        assert set(sub.vertices) <= set(g.vertices) and set(sub.edges) <= set(g.edges)



# sha256 of the emitted closure subgraph, or the refusal message, of every
# call in `test_jeong_park_outputs_and_refusals_are_pinned`.  The shortest-walk
# tie-breaks decide which edges the closure keeps, and the subgraph is the
# `jeong-park` output: update only as a declared result change.
JEONG_PARK_DIGEST = "c44d21f3d0acfe5517f59327029ddace344ef1a1781fd6074eed0fa3e2d87de7"


def test_jeong_park_outputs_and_refusals_are_pinned():
    rng = random.Random(70913)
    graphs = [_ring(400), _ring(7), two_loop(), mixed_m(), single_loop()]
    graphs += [random_condition_k_graph(rng, max_vertices=7) for _ in range(80)]
    graphs += [random_graph(rng, max_vertices=6, max_edges=12, no_sinks=True) for _ in range(60)]
    digest = hashlib.sha256()
    refused = 0
    for g in graphs:
        for _ in range(2):
            v_set = set(rng.sample(list(g.vertices), rng.randint(0, min(3, len(g.vertices)))))
            f_set = set(rng.sample(list(g.edges), rng.randint(0, min(2, len(g.edges)))))
            try:
                out = G.emit_graph(G.jeong_park_subgraph(g, v_set, f_set))
            except ContractViolation as exc:
                out = f"refused: {exc}"
                refused += 1
            digest.update(out.encode())
    assert 0 < refused < len(graphs) * 2
    assert digest.hexdigest() == JEONG_PARK_DIGEST

def test_add_tails():
    g = single_edge()
    t = add_tails(g, 2)
    assert len(t.vertices) == 4 and len(t.edges) == 3
    assert [v.id for v in G.sinks(t)] == ["w_tail2"]
    assert add_tails(two_loop(), 3) == two_loop()
    m = add_tails(mixed_m(), 1)
    assert len(m.vertices) == 4
    assert not any(v.id == "w" for v in G.sinks(m))
    # synthesized tail edge ids dodge user ids as the vertex ids do
    g = G.DirectedGraph.build(["v", "w", "w_tail1"], [("e", "v", "w"), ("w_tailedge1", "v", "v"),
                                                     ("x", "w_tail1", "v")])
    t = add_tails(g, 2)
    assert [v.id for v in t.vertices[3:]] == ["w_tail1_", "w_tail2"]
    assert [e.id for e in t.edges[3:]] == ["w_tailedge1_", "w_tailedge2"]
    assert G.parse_graph(G.emit_graph(t)) == t


def test_blowup_emits_parseable_dsl(rng):
    """Synthesized ids stay DSL-legal and unique, so blow-ups pipe back."""
    from graphck.dsl import emit_graph, parse_graph

    for make_m in ((two_loop, 4), (mixed_m, 3), (single_edge, 3)):
        g, m = make_m[0](), make_m[1]
        bg = G.blowup_graph(g, m)
        assert parse_graph(emit_graph(bg.graph)) == bg.graph
    # user ids engineered to collide with the underscore join
    h = G.DirectedGraph.build(["v"], [("e", "v", "v"), ("e_e", "v", "v")])
    bg = G.blowup_graph(h, 3)
    ids = [x.id for x in bg.graph.vertices] + [x.id for x in bg.graph.edges]
    assert len(ids) == len(set(ids))
    assert parse_graph(emit_graph(bg.graph)) == bg.graph


def _collision_graph() -> G.DirectedGraph:
    """Ids that collide with synthesized tokens: vertex x0 with path (x0),
    edge x0_x0 with path (x0, x0), so `fresh` has to append underscores."""
    return G.DirectedGraph.build(
        ["v", "x0"], [("x0", "v", "v"), ("x0_x0", "v", "x0"), ("y", "x0", "v"),
                      ("x0__v", "x0", "x0")])


# sha256 of the emitted blow-up and of every vertex and edge lookup, m = 1..5,
# on the graphs of `test_blowup_graphs_and_lookups_are_pinned`.  Vertex and
# edge ids, their order and the lookups are part of every `blowup` output:
# update this digest only as a declared result change.
BLOWUP_DIGEST = "fc81d4a6d646ddca92fe75b1677e20e41bc623514c6e37ccf291166d5f235119"


def test_blowup_graphs_and_lookups_are_pinned():
    rng = random.Random(52103)
    graphs = [_collision_graph(), two_loop(), mixed_m()]
    graphs += [random_graph(rng, max_vertices=4, max_edges=6) for _ in range(6)]
    digest = hashlib.sha256()
    for g in graphs:
        for m in range(1, 6):
            bg = G.blowup_graph(g, m)
            digest.update(G.emit_graph(bg.graph).encode())
            digest.update(repr([(v.id, bg.path_of_vertex(v).id)
                                for v in bg.graph.vertices]).encode())
            digest.update(repr([(em.id, e.id, p.id) for em in bg.graph.edges
                                for e, p in [bg.pair_of_edge(em)]]).encode())
    assert digest.hexdigest() == BLOWUP_DIGEST


def test_blowup_lookups_refuse_what_is_not_there():
    g = two_loop()
    e, f = g.edge("e"), g.edge("f")
    bg = G.blowup_graph(g, 2)
    with pytest.raises(ContractViolation, match="length"):
        bg.vertex_of_path(Path((e, f)))
    stranger = G.DirectedGraph.build(["w"], [("e", "w", "w")])
    for p in (Path.at(stranger.vertex("w")), Path((stranger.edge("e"),))):
        with pytest.raises(ContractViolation):
            bg.vertex_of_path(p)
    v, top = g.vertex("v"), bg.vertex_of_path(Path((e,)))
    with pytest.raises(ContractViolation, match="not an edge"):
        bg.walk_into(Path((G.Edge("x", v, v),)), top)
    with pytest.raises(ContractViolation, match="ends at"):
        bg.walk_into(Path.at(stranger.vertex("w")), top)
    with pytest.raises(ContractViolation, match="ends at"):
        bg.walk_into(Path((e,)), G.Vertex("zz"))
    assert bg.walk_into(Path((f, e)), top).id == "f__v.e__e"
