"""Graph-level constructions: blow-up graphs, path embedding, subgraph closure.

The blow-up of a graph puts one vertex for every path of length < m and one
edge for every (edge, path) pair that composes; the embedding carries a base
path to the one blow-up walk that it labels into the vertex of its range.  All
constructions are deterministic: candidate paths are chosen shortest first,
ties broken by edge-id sequence.
"""

from __future__ import annotations

from .errors import ContractViolation
from .graphs import (DirectedGraph, Edge, Path, PathTree, Vertex, _components,
                     _counts_in_components, _cycle_sets, _first_return, _out_ranges)


# synthesized ids must stay DSL-legal ([A-Za-z0-9_]+) so the emitted graph
# pipes back into every command; underscore joins can collide with user ids,
# so they are deterministically uniquified
def _fresh(used: set[str], token: str) -> str:
    while token in used:
        token += "_"
    used.add(token)
    return token


class BlowupGraph:
    """The m-th blow-up of a base graph together with both directions of lookup.

    Vertices are the base paths of length < m; edges are pairs (e, mu) with
    r(e) = s(mu).  The pair's source is e*mu when |mu| < m-1 and s(e) when
    |mu| = m-1; its range is mu.
    """

    def __init__(self, base: DirectedGraph, m: int):
        if m < 1:
            raise ContractViolation("m must be positive")
        self.base = base
        self.m = m

        # vertex i is tree path i; (e, p) starts at e p while that is shorter than m
        tree = self.tree = PathTree(base, depth=m - 1)
        # a path's token is its vertex id, or its edge ids joined by "_"
        tokens: list[str] = []
        for j, e, v in zip(tree.parent, tree.edge, tree.source):
            tokens.append(v.id if e is None else e.id if tree.edge[j] is None
                          else tokens[j] + "_" + e.id)
        vertex_ids: set[str] = set()
        vs = [Vertex(_fresh(vertex_ids, t)) for t in tokens]
        edge_ids: set[str] = set()
        edges: list[Edge] = []
        # _into[i][k]: the edge of the pair (base edge k, path i) and the index of its source
        self._into: list[dict[int, tuple[Edge, int]]] = [{} for _ in vs]
        # _pair_of_edge[n]: the pair (e, p) of blow-up edge n, with p as a tree index
        self._pair_of_edge: list[tuple[Edge, int]] = []
        for k, e in enumerate(base.edges):
            longer = tree.prefix_map(Path((e,)))
            top = tree.from_vertex[e.source][0]
            for i in tree.from_vertex[e.range]:
                j = longer.get(i, top)
                new = Edge(_fresh(edge_ids, f"{e.id}__{vs[i].id}"), vs[j], vs[i])
                self._into[i][k] = (new, j)
                self._pair_of_edge.append((e, i))
                edges.append(new)
        self.graph = DirectedGraph(vs, edges)

    def vertex_of_path(self, p: Path) -> Vertex:
        i = self.tree.find(p)
        if i is None:
            raise ContractViolation(f"path {p.id} is not a base path of length < m={self.m}")
        return self.graph.vertices[i]

    def path_of_vertex(self, v: Vertex) -> Path:
        if not self.graph.has_vertex(v):
            raise ContractViolation(f"vertex {v.id} is not a vertex of the blow-up")
        return self.tree.path(self.graph.vertex_index(v))

    def pair_of_edge(self, edge: Edge) -> tuple[Edge, Path]:
        n = self.graph.edge_position(edge)
        if n is None:
            raise ContractViolation(f"edge {edge.id} is not an edge of the blow-up")
        e, i = self._pair_of_edge[n]
        return e, self.tree.path(i)

    def walk_into(self, mu: Path, v: Vertex) -> Path:
        """The blow-up path into v whose edges carry the edges of mu.

        Each blow-up vertex p has exactly one incoming edge for each base edge
        e with r(e) = s(p): the edge for the pair (e, p).  That edge starts at
        the vertex e p while |p| < m-1 and at s(e) when |p| = m-1, a vertex
        whose path leaves s(e) in both cases.  So the walk back from v along
        mu is unique, and it exists iff r(mu) = s(p).  Into the vertex r(mu)
        it starts at the truncation [mu]_m, the prefix of length |mu| mod m:
        k steps back from there the path is the first k mod m of the last k
        edges of mu.
        """
        i = self.graph.vertex_index(v) if self.graph.has_vertex(v) else None
        if i is None or self.tree.source[i] != mu.range:
            raise ContractViolation(f"no blow-up walk carrying {mu.id} ends at {v.id}")
        walk = []
        for e in reversed(mu.edges):
            k = self.base.edge_position(e)
            step = None if k is None else self._into[i].get(k)
            if step is None:
                raise ContractViolation(f"edge {e.id} is not an edge of the base graph")
            new, i = step
            walk.append(new)
        return Path(tuple(reversed(walk))) if walk else Path.at(v)


def blowup_graph(g: DirectedGraph, m: int) -> BlowupGraph:
    return BlowupGraph(g, m)


def embed_path(bg: BlowupGraph, mu: Path) -> Path:
    """Image of a base path in the blow-up: its walk into the vertex of r(mu),
    which has the length of mu and starts at the truncation [mu]_m."""
    return bg.walk_into(mu, bg.vertex_of_path(Path.at(mu.range)))


def _shortest_walk(g: DirectedGraph, start: Vertex, targets: frozenset[Vertex],
                   first_edges: tuple[Edge, ...]) -> Path | None:
    """Shortest walk of at least one edge from start into targets that leaves
    by one of first_edges, ties by lex edge-id sequence.  Targets end the
    search at the first layer that meets them, so no walk passes through one."""
    # each walk travels with its edge-id sequence, the tie-breaking key;
    # edge ids are unique, so distinct walks never tie and min never compares walks
    seen = {start}
    frontier: list[tuple[Vertex, tuple[Edge, ...], tuple[str, ...]]] = [(start, (), ())]
    while frontier:
        hits: list[tuple[tuple[str, ...], tuple[Edge, ...]]] = []
        layer: dict[Vertex, tuple[tuple[str, ...], tuple[Edge, ...]]] = {}
        for v, walk, key in frontier:
            for e in g.out_edges(v) if walk else first_edges:
                w = e.range
                cand = (key + (e.id,), walk + (e,))
                if w in targets:
                    hits.append(cand)
                elif w not in seen and (w not in layer or cand < layer[w]):
                    layer[w] = cand
        if hits:
            return Path(min(hits)[1])
        seen.update(layer)
        frontier = [(w, walk, key) for w, (key, walk) in layer.items()]
    return None


def jeong_park_subgraph(g: DirectedGraph, v_set, f_set) -> DirectedGraph:
    """Finite subgraph containing the given vertices and edges in which every
    vertex connects to a cycle and Condition (K) holds.

    Stage one routes each required vertex into a cycle; stage two keeps adding
    a second cycle at any vertex with a unique first-return path until none is
    left.  Requires the ambient graph to satisfy both properties.
    """
    v_set = frozenset(v_set)
    f_set = frozenset(f_set)
    for v in v_set:
        if not g.has_vertex(v):
            raise ContractViolation(f"vertex {v.id} not in graph")
    for e in f_set:
        if g.edge_position(e) is None:
            raise ContractViolation(f"edge {e.id} not in graph")
    cyc, bare, reach = _cycle_sets(g)
    bad = next((v for v in g.vertices if v in bare), None)
    if bad is not None:
        raise ContractViolation(f"ambient graph fails Condition (K) at {bad.id}")
    bad = next((v for v in g.vertices if v not in reach), None)
    if bad is not None:
        raise ContractViolation(f"vertex {bad.id} does not connect to a cycle")

    chosen: set[Edge] = set(f_set)
    required = sorted(v_set | {e.range for e in f_set}, key=g.vertex_index)
    for v in required:
        walk = Path.at(v) if v in cyc else _shortest_walk(g, v, cyc, g.out_edges(v))
        assert walk is not None
        u = walk.range
        cycle = _shortest_walk(g, u, frozenset((u,)), g.out_edges(u))
        assert cycle is not None
        chosen.update(walk.edges)
        chosen.update(cycle.edges)

    def subgraph(edge_set: set[Edge]) -> DirectedGraph:
        touched = {e.source for e in edge_set} | {e.range for e in edge_set}
        vs = [v for v in g.vertices if v in touched]
        es = [e for e in g.edges if e in edge_set]
        return DirectedGraph(vs, es)

    # close up Condition (K): a pass adds, for each vertex with a unique
    # first-return path, a cycle through one of its vertices that leaves by a
    # different edge; each pass strictly grows the edge set, so this stops.
    # One components run per pass serves the counts and every return path.
    sub = subgraph(chosen)
    for _ in range(len(g.edges) + 1):
        succ = _out_ranges(sub)
        comp, ncomp = _components(succ)
        counts = _counts_in_components(succ, comp, ncomp)
        deficient = [i for i, c in enumerate(counts) if c == 1]
        if not deficient:
            return sub
        for i in deficient:
            ret = _first_return(sub, succ, comp, i)
            added = False
            for n in range(len(ret)):
                u = ret.edges[n].source
                second = _shortest_walk(g, u, frozenset((u,)), tuple(
                    e for e in g.out_edges(u) if e != ret.edges[n]))
                if second is not None:
                    chosen.update(second.edges)
                    added = True
                    break
            if not added:
                raise ContractViolation(
                    f"no alternative cycle exists through the cycle at {sub.vertices[i].id}")
        sub = subgraph(chosen)
    raise AssertionError("closure did not stabilize")
