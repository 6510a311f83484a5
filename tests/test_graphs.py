"""Core graph machinery: adjacency, paths, cycles, hereditary saturated sets."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphck as G
from graphck.errors import ContractViolation
from graphck.graphs import (PathTree, cycle_vertices, first_return_counts, is_hereditary,
                            is_saturated, paths_from, unique_first_return)
from graphck.ktheory import connectivity_matrix

from conftest import mixed_m, random_graph, single_edge, single_loop, two_cycle, two_loop
from oracles import (adjacency_matrix, eager_path_tree, first_return_paths,
                     hereditary_saturated_closure, path_prefix)


def test_adjacency_two_loops():
    assert adjacency_matrix(two_loop()) == [[2]]


def test_adjacency_single_edge():
    assert adjacency_matrix(single_edge()) == [[0, 1], [0, 0]]


def test_adjacency_of_blowup_two_loop():
    # vertices of the second blow-up are v, e, f in path order
    bg = G.blowup_graph(two_loop(), 2)
    assert [v.id for v in bg.graph.vertices] == ["v", "e", "f"]
    assert adjacency_matrix(bg.graph) == [[0, 2, 2], [1, 0, 0], [1, 0, 0]]


def test_adjacency_degree_sums(rng):
    for _ in range(50):
        g = random_graph(rng)
        a = adjacency_matrix(g)
        for i, v in enumerate(g.vertices):
            assert sum(a[i]) == len(g.out_edges(v))
            assert sum(row[i] for row in a) == len(g.in_edges(v))


def test_adjacency_transpose_gives_the_connectivity_matrix(rng):
    for _ in range(50):
        g = random_graph(rng)
        a = adjacency_matrix(g)
        n = len(a)
        assert connectivity_matrix(g) == [[(1 if i == j else 0) - a[j][i] for j in range(n)]
                                          for i in range(n)]


def test_adjacency_keeps_edge_insertion_order():
    # parallel edges and loops interleaved across sources and ranges
    g = G.DirectedGraph.build(
        ["u", "v"], [("a", "u", "v"), ("l1", "v", "v"), ("b", "u", "v"), ("c", "v", "u"),
                     ("l2", "v", "v"), ("d", "u", "u"), ("e", "u", "v")])
    u, v = g.vertex("u"), g.vertex("v")
    assert [e.id for e in g.out_edges(u)] == ["a", "b", "d", "e"]
    assert [e.id for e in g.out_edges(v)] == ["l1", "c", "l2"]
    assert [e.id for e in g.in_edges(u)] == ["c", "d"]
    assert [e.id for e in g.in_edges(v)] == ["a", "l1", "b", "l2", "e"]
    assert all(isinstance(g.out_edges(x), tuple) and isinstance(g.in_edges(x), tuple)
               for x in (u, v))


def test_equal_vertices_and_edges_share_dict_keys():
    text = "vertex a\nvertex b\nvertex c\nedge e : a -> b\n"
    g1, g2 = G.parse_graph(text), G.parse_graph(text)
    (e1,), (e2,) = g1.edges, g2.edges
    assert e1 is not e2 and e1.source is not e2.source
    keys = {e1: "edge", e1.source: "vertex", G.Path((e1,)): "path"}
    assert keys[e2] == "edge" and keys[e2.source] == "vertex"
    assert keys[G.Path((e2,))] == "path"
    a, b, c = g1.vertices
    assert G.Edge("e", a, b) == e2 and G.Edge("e", a, b) != G.Edge("e", a, c)
    assert G.Edge("e", a, c) not in keys and G.Vertex("a") in keys


def test_paths_two_loop_counts():
    g = two_loop()
    assert [p.id for p in G.paths(g, 0, 1)] == ["v"]
    assert len(G.paths(g, 0, 3)) == 7  # 1 + 2 + 4
    assert len(G.paths(g, 2, 4)) == 12  # 4 + 8


def test_paths_single_edge():
    g = single_edge()
    assert [p.id for p in G.paths(g, 1, 3)] == ["e"]


def test_paths_deterministic_order():
    g = two_loop()
    ids = [p.id for p in G.paths(g, 0, 3)]
    assert ids == ["v", "e", "f", "e.e", "e.f", "f.e", "f.f"]


def test_duplicate_vertex_id_rejected():
    with pytest.raises(ContractViolation, match="duplicate vertex id a"):
        G.DirectedGraph([G.Vertex("a"), G.Vertex("a")], [])


def test_path_extend_is_concatenation_with_one_edge(rng):
    """p.extend(e) equals p * Path((e,)) with the hash of the path built from
    scratch, and refuses an edge that does not leave p's range."""
    refused = 0
    for _ in range(40):
        g = random_graph(rng, max_vertices=4, max_edges=8)
        for p in G.paths(g, 0, 3):
            for e in g.edges:
                if e.source == p.range:
                    q = p.extend(e)
                    built = G.Path(p.edges + (e,))
                    assert q == p * G.Path((e,)) == built and hash(q) == hash(built)
                    assert (q.source, q.range, q.id) == (p.source, e.range, built.id)
                else:
                    with pytest.raises(ContractViolation, match="do not compose"):
                        p.extend(e)
                    refused += 1
    assert refused > 100


def test_paths_bad_range():
    with pytest.raises(ContractViolation):
        G.paths(two_loop(), 3, 2)
    # negative bounds count as 0, as in the layer-by-layer enumeration
    assert G.paths(two_loop(), -2, -1) == []
    assert [p.id for p in G.paths(two_loop(), -1, 2)] == ["v", "e", "f"]


def test_first_return_two_loop():
    g = two_loop()
    assert [p.id for p in first_return_paths(g, g.vertex("v"))] == ["e", "f"]


def test_first_return_single_loop():
    g = single_loop()
    assert [p.id for p in first_return_paths(g, g.vertex("v"))] == ["e"]


def test_first_return_two_cycle():
    g = two_cycle()
    assert [p.id for p in first_return_paths(g, g.vertex("v"))] == ["a.b"]


def test_first_return_interior_avoids_base(rng):
    for _ in range(40):
        g = random_graph(rng)
        for v in g.vertices:
            for p in first_return_paths(g, v, max_length=6, max_paths=10000):
                assert p.source == v and p.range == v
                assert all(e.range != v for e in p.edges[:-1])


def test_first_return_matches_bruteforce(rng):
    """The exact three-way count, the unique path and Condition (K) agree
    with bounded enumeration."""
    for _ in range(300):
        g = random_graph(rng, max_vertices=6, max_edges=10)
        bound = 2 * len(g.vertices) + 2
        counts = first_return_counts(g)
        brute = {}
        for v in g.vertices:
            listed = first_return_paths(g, v, max_length=bound, max_paths=200000)
            brute[v] = 0 if not listed else (1 if len(listed) == 1 else 2)
            assert counts[v] == brute[v]
            assert unique_first_return(g, v) == (listed[0] if brute[v] == 1 else None)
        assert G.satisfies_condition_K(g) == (1 not in brute.values())


def test_condition_k_examples():
    assert G.satisfies_condition_K(two_loop())
    assert not G.satisfies_condition_K(single_loop())
    assert not G.satisfies_condition_K(two_cycle())
    assert G.satisfies_condition_K(single_edge())  # vacuous: no cycles


def test_connects_to_cycle_examples():
    assert G.every_vertex_connects_to_cycle(two_loop())
    assert not G.every_vertex_connects_to_cycle(single_edge())
    assert not G.every_vertex_connects_to_cycle(mixed_m())  # w is a sink


def test_acyclic_and_sinks():
    g = single_edge()
    assert G.is_acyclic(g)
    assert [v.id for v in G.sinks(g)] == ["w"]
    assert not G.is_acyclic(two_loop())
    assert G.sinks(two_loop()) == []
    m = mixed_m()
    assert not G.is_acyclic(m)
    assert [v.id for v in G.sinks(m)] == ["w"]


def _closure_bruteforce(g, s):
    """Intersection of all hereditary saturated supersets (2^n scan)."""
    base = frozenset(s)
    best = frozenset(g.vertices)
    for k in range(len(g.vertices) + 1):
        for sub in combinations(g.vertices, k):
            cand = frozenset(sub)
            if base <= cand and is_hereditary(g, cand) and is_saturated(g, cand):
                best = best & cand
    return best


def test_closure_examples():
    m = mixed_m()
    v, u = m.vertex("v"), m.vertex("u")
    assert hereditary_saturated_closure(m, {v}) == frozenset({v})
    assert hereditary_saturated_closure(m, {u}) == frozenset(m.vertices)
    assert hereditary_saturated_closure(m, set()) == frozenset()


def test_closure_against_bruteforce(rng):
    for _ in range(120):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        k = rng.randint(0, len(g.vertices))
        s = frozenset(rng.sample(list(g.vertices), k))
        assert hereditary_saturated_closure(g, s) == _closure_bruteforce(g, s)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_closure_properties(data):
    seed = data.draw(st.integers(0, 10**6))
    r = random.Random(seed)
    g = random_graph(r, max_vertices=5, max_edges=8)
    s = frozenset(data.draw(st.sets(st.sampled_from(list(g.vertices))))) if g.vertices else frozenset()
    t = s | frozenset(data.draw(st.sets(st.sampled_from(list(g.vertices))))) if g.vertices else frozenset()
    cs = hereditary_saturated_closure(g, s)
    assert is_hereditary(g, cs) and is_saturated(g, cs)
    assert hereditary_saturated_closure(g, cs) == cs
    assert cs <= hereditary_saturated_closure(g, t)


def test_enumerate_examples():
    m = mixed_m()
    sets = [frozenset(v.id for v in s) for s in G.enumerate_hereditary_saturated(m)]
    assert sets == [frozenset(), {"v"}, {"w"}, {"u", "v", "w"}]
    g = two_loop()
    assert [set(v.id for v in s) for s in G.enumerate_hereditary_saturated(g)] == [set(), {"v"}]
    c = two_cycle()
    assert [set(v.id for v in s) for s in G.enumerate_hereditary_saturated(c)] == [set(), {"v", "w"}]


def test_enumerate_against_bruteforce(rng):
    for _ in range(150):
        g = random_graph(rng, max_vertices=8, max_edges=16)
        fast = {frozenset(v.id for v in s) for s in G.enumerate_hereditary_saturated(g)}
        brute = set()
        for k in range(len(g.vertices) + 1):
            for sub in combinations(g.vertices, k):
                if is_hereditary(g, sub) and is_saturated(g, sub):
                    brute.add(frozenset(v.id for v in sub))
        assert fast == brute


def test_enumerate_resource_bound():
    g = G.DirectedGraph.build([f"v{i}" for i in range(25)], [])
    with pytest.raises(G.ResourceLimit):
        G.enumerate_hereditary_saturated(g)


def few_component_graph(rng, n):
    """n vertices split into 2-6 blocks, each strongly connected (a ring with
    chords, a looped vertex) or a lone loop-free vertex; edges between blocks
    only go to earlier blocks, so the blocks are the components."""
    vs = [f"v{i}" for i in range(n)]
    rng.shuffle(vs)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, 5)))
    blocks = [vs[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    es = []
    for k, block in enumerate(blocks):
        if len(block) > 1 or rng.random() < 0.5:
            es += [(block[i], block[(i + 1) % len(block)]) for i in range(len(block))]
            es += [(rng.choice(block), rng.choice(block)) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 3) if k else 0):
            es.append((rng.choice(block), rng.choice(rng.choice(blocks[:k]))))
    return G.DirectedGraph.build(sorted(vs, key=lambda v: int(v[1:])),
                                 [(f"e{j}", s, r) for j, (s, r) in enumerate(es)])


def test_enumerate_complete_on_large_few_component_graphs(rng):
    """Hereditary saturated, sorted, no duplicates, contains the empty set and
    closed under adding one vertex and closing: then every hereditary
    saturated T is listed, reached from the empty set one vertex of T at a
    time."""
    for _ in range(40):
        g = few_component_graph(rng, rng.randint(21, 40))
        sets = G.enumerate_hereditary_saturated(g)
        assert sets[0] == frozenset()
        keys = [(len(s), sorted(g.vertex_index(v) for v in s)) for s in sets]
        assert keys == sorted(keys) and len(set(sets)) == len(sets)
        listed = set(sets)
        for s in sets:
            assert is_hereditary(g, s) and is_saturated(g, s)
            for v in g.vertices:
                if v not in s:
                    assert hereditary_saturated_closure(g, s | {v}) in listed


def test_condition_L_examples():
    assert not G.satisfies_condition_L(single_loop())
    assert not G.satisfies_condition_L(two_cycle())
    assert G.satisfies_condition_L(two_loop())
    assert G.satisfies_condition_L(single_edge())
    assert G.satisfies_condition_L(G.DirectedGraph.build([], []))
    # a loop feeding the bare cycle: the loop has an exit, the cycle has none
    fed = G.DirectedGraph.build(["u", "v", "w"], [("l", "u", "u"), ("a", "u", "v"),
                                                  ("b", "v", "w"), ("c", "w", "v")])
    assert not G.satisfies_condition_L(fed)
    exit_ = G.DirectedGraph(fed.vertices + (G.Vertex("x"),),
                            fed.edges + (G.Edge("d", fed.vertex("w"), G.Vertex("x")),))
    assert G.satisfies_condition_L(exit_)


def test_quotient_restriction_examples():
    m = mixed_m()
    q = G.quotient_graph(m, {m.vertex("v")})
    assert [v.id for v in q.vertices] == ["u", "w"]
    assert [(e.id, e.source.id, e.range.id) for e in q.edges] == [("b", "u", "w")]
    r = G.restriction_graph(m, {m.vertex("v")})
    assert [v.id for v in r.vertices] == ["v"]
    assert sorted(e.id for e in r.edges) == ["e1", "e2"]
    r2 = G.restriction_graph(m, {m.vertex("w")})
    assert [v.id for v in r2.vertices] == ["w"] and r2.edges == ()
    assert G.quotient_graph(m, set()) == m
    assert G.quotient_graph(m, set(m.vertices)).vertices == ()
    assert G.restriction_graph(m, set(m.vertices)) == m


def test_quotient_requires_hereditary_saturated():
    m = mixed_m()
    with pytest.raises(ContractViolation):
        G.quotient_graph(m, {m.vertex("u")})  # not hereditary
    with pytest.raises(ContractViolation):
        G.quotient_graph(m, {m.vertex("v"), m.vertex("w")})  # not saturated
    with pytest.raises(ContractViolation):
        G.restriction_graph(m, {m.vertex("u")})


def test_edge_trichotomy(rng):
    """Every edge is in the restriction, in the quotient, or crosses into H."""
    for _ in range(120):
        g = random_graph(rng, max_vertices=6, max_edges=12)
        for h in G.enumerate_hereditary_saturated(g):
            r = G.restriction_graph(g, h)
            q = G.quotient_graph(g, h)
            crossing = [e for e in g.edges if e.source not in h and e.range in h]
            assert len(r.edges) + len(q.edges) + len(crossing) == len(g.edges)


def test_cycle_vertices_multigraph():
    g = G.DirectedGraph.build(["v", "w"], [("a", "v", "w"), ("b", "v", "w")])
    assert not cycle_vertices(g)
    g2 = G.DirectedGraph.build(["v"], [("e", "v", "v")])
    assert cycle_vertices(g2) == frozenset(g2.vertices)


def test_paths_from_matches_paths(rng):
    g = two_loop()
    v = g.vertex("v")
    assert [p.id for p in paths_from(g, v, 2)] == ["e.e", "e.f", "f.e", "f.f"]
    assert paths_from(g, v, -1) == [G.Path.at(v)]  # a negative length counts as 0
    for _ in range(20):
        g = random_graph(rng, max_vertices=4, max_edges=7)
        for v in g.vertices:
            for length in range(4):
                layer = [p for p in G.paths(g, length, length + 1) if p.source == v]
                assert paths_from(g, v, length) == layer


def test_path_tree_layout_find_and_prefix_map(rng):
    for _ in range(25):
        g = random_graph(rng, max_vertices=4, max_edges=7)
        tree = PathTree(g, depth=3)
        assert tree.paths == G.paths(g, 0, 4) and len(tree.offsets) == 5
        for length in range(4):
            layer = tree.paths[tree.offsets[length]:tree.offsets[length + 1]]
            assert all(len(p) == length for p in layer)
        for i, p in enumerate(tree.paths):
            assert tree.find(p) == i and i in tree.from_vertex[p.source]
            if p.edges:
                assert tree.paths[tree.parent[i]] == path_prefix(p, len(p) - 1)
                k = g.out_edges(p.edges[-1].source).index(p.edges[-1])
                assert tree.first_child[tree.parent[i]] + k == i
        for v, ids in tree.from_vertex.items():
            assert ids == sorted(ids) and [tree.paths[i].source for i in ids] == [v] * len(ids)
        for mu in tree.paths:
            want = {i: tree.find(mu * tree.paths[i]) for i in tree.from_vertex[mu.range]}
            assert tree.prefix_map(mu) == {i: j for i, j in want.items() if j is not None}
        for p in G.paths(g, 4, 5):
            assert tree.find(p) is None
        stranger = G.DirectedGraph.build(["s"], [("l", "s", "s")])
        assert tree.find(G.Path((stranger.edge("l"),))) is None
        assert tree.prefix_map(G.Path.at(stranger.vertex("s"))) == {}


def test_lazy_path_tree_matches_eager_oracle(rng):
    """The index arrays give the eager tree's paths, whether read node by node,
    all at once, or again after the tree has grown past an earlier read; the
    roots come out of vertex order, and half the time as equal copies of the
    graph's vertices."""
    for trial in range(25):
        g = random_graph(rng, max_vertices=4, max_edges=7)
        roots = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
        if trial % 2:
            roots = [G.Vertex(v.id) for v in roots]
        depth = rng.randint(1, 4)
        want, parent, offsets = eager_path_tree(g, roots, depth)
        tree = PathTree(g, roots, depth)
        assert len(tree) == len(want) and tree.parent == parent and tree.offsets == offsets
        assert tree.from_vertex == {v: [i for i, p in enumerate(want) if p.source == v]
                                    for v in g.vertices}
        assert len(tree.first_child) == offsets[depth]
        for i, first in enumerate(tree.first_child):
            children = [j for j in range(len(want)) if parent[j] == i]
            # the children sit from first_child[i] on, in out_edges order
            assert children == list(range(first, first + len(children)))
            assert first == sum(1 for j in range(len(want)) if j < offsets[1] or parent[j] < i)
            assert [want[j].edges[-1] for j in children] == list(g.out_edges(want[i].range))
        for i, p in enumerate(want):
            built = tree.path(i)
            assert built == p and hash(built) == hash(p) and built.id == p.id
            assert tree.length(i) == len(p)
            assert (tree.source[i], tree.end[i]) == (p.source, p.range)
            assert tree.edge[i] == (p.edges[-1] if p.edges else None)
        assert tree.path(-1) == want[-1]  # counted from the end, like a list
        assert len(tree._paths) == len(roots)  # path(i) builds no cached path
        assert tree.paths == want

        grown = PathTree(g, roots)
        for length in range(depth):
            assert grown.paths == want[:offsets[length + 1]]
            grown.grow()
        assert grown.paths == want
        assert [grown.path(i) for i in range(len(want))] == want
        assert [hash(p) for p in grown.paths] == [hash(p) for p in want]


def test_path_hash_folds_from_the_prefix(rng):
    for _ in range(20):
        g = random_graph(rng, max_vertices=4, max_edges=7)
        for p in G.paths(g, 0, 4):
            step = G.Path.at(p.source)
            for e in p.edges:
                step = step.extend(e)
            assert step == p and hash(step) == hash(p)
            copy = G.Path(p.edges) if p.edges else G.Path.at(p.base)
            assert hash(copy) == hash(p)


def test_prefix_map_refuses_a_range_that_is_not_a_root():
    g = G.DirectedGraph.build(["v", "w"], [("e", "v", "w"), ("f", "w", "v")])
    tree = PathTree(g, (g.vertex("v"),), 3)
    with pytest.raises(ContractViolation, match=r"range w .*root"):
        tree.prefix_map(G.Path((g.edge("e"),)))
    ef = G.Path((g.edge("e"), g.edge("f")))
    assert tree.prefix_map(ef) == {0: 2, 1: 3}  # v -> ef and e -> efe


def test_cycle_vertices_against_networkx(rng):
    import networkx as nx

    for _ in range(200):
        g = random_graph(rng, max_vertices=6, max_edges=12)
        ours = {v.id for v in cycle_vertices(g)}
        h = nx.MultiDiGraph()
        h.add_nodes_from(v.id for v in g.vertices)
        h.add_edges_from((e.source.id, e.range.id) for e in g.edges)
        theirs = set()
        for comp in nx.strongly_connected_components(h):
            sub = h.subgraph(comp)
            if sub.number_of_edges():
                theirs |= set(comp)
        assert ours == theirs
