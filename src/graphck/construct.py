"""Graph-level constructions: blow-up graphs, path embedding, subgraph closure.

The blow-up of a graph puts one vertex for every path of length < m and one
edge for every (edge, path) pair that composes; the embedding carries paths of
the base graph to paths of the blow-up.  All constructions are deterministic:
candidate paths are chosen shortest first, ties broken by edge-id sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation
from .graphs import (DirectedGraph, Edge, Path, PathTree, Vertex, cycle_vertices,
                     first_return_counts, reaching, sinks, unique_first_return)


@dataclass(frozen=True)
class TruncationWitness:
    """Factorization path = head * tail with |tail| divisible by m, |head| < m."""

    path: Path
    m: int
    head: Path
    tail_length: int


def truncate_path(mu: Path, m: int) -> TruncationWitness:
    """Unique prefix of mu with length |mu| mod m."""
    if m < 1:
        raise ContractViolation("m must be positive")
    k = len(mu) % m
    return TruncationWitness(mu, m, mu.prefix(k), len(mu) - k)


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

        def path_token(p: Path) -> str:
            return p.base.id if not p.edges else "_".join(e.id for e in p.edges)

        # vertex i is tree path i; (e, p) starts at e p while that is shorter than m
        tree = self.tree = PathTree(base, depth=m - 1)
        vertex_ids: set[str] = set()
        vs = [Vertex(_fresh(vertex_ids, path_token(p))) for p in tree.paths]
        edge_ids: set[str] = set()
        self._edge_of_pair: dict[tuple[Edge, Path], Edge] = {}
        for e in base.edges:
            longer = tree.prefix_map(Path((e,)))
            top = tree.from_vertex[e.source][0]
            for i in tree.from_vertex[e.range]:
                self._edge_of_pair[(e, tree.paths[i])] = Edge(
                    _fresh(edge_ids, f"{e.id}__{vs[i].id}"), vs[longer.get(i, top)], vs[i])
        self._pair_of_edge = {new: pair for pair, new in self._edge_of_pair.items()}
        self.graph = DirectedGraph(vs, self._edge_of_pair.values())

    def vertex_of_path(self, p: Path) -> Vertex:
        i = self.tree.find(p)
        if i is None:
            raise ContractViolation(f"path {p.id} is not a base path of length < m={self.m}")
        return self.graph.vertices[i]

    def path_of_vertex(self, v: Vertex) -> Path:
        return self.tree.paths[self.graph.vertex_index(v)]

    def edge_of_pair(self, e: Edge, p: Path) -> Edge:
        if (e, p) not in self._edge_of_pair:
            raise ContractViolation(f"({e.id}, {p.id}) is not an edge of the blow-up")
        return self._edge_of_pair[(e, p)]

    def pair_of_edge(self, edge: Edge) -> tuple[Edge, Path]:
        return self._pair_of_edge[edge]


def blowup_graph(g: DirectedGraph, m: int) -> BlowupGraph:
    return BlowupGraph(g, m)


def embed_path(bg: BlowupGraph, mu: Path) -> Path:
    """Image of a base path in the blow-up.

    Length is preserved, the source is the truncation [mu]_m and the range is
    r(mu).  Built edge by edge for |mu| <= m and by splitting off blocks of
    length m beyond that.
    """
    m = bg.m
    n = len(mu)
    if n == 0:
        return Path.at(bg.vertex_of_path(mu))
    if n <= m:
        edges = []
        for k in range(n):
            suffix = mu.suffix_from(k + 1)
            edges.append(bg.edge_of_pair(mu.edges[k], suffix))
        return Path(tuple(edges))
    head = truncate_path(mu, m).head
    mid = Path(mu.edges[len(head):len(head) + m])
    rest = mu.suffix_from(len(head) + m)
    return embed_path(bg, head) * embed_path(bg, mid) * embed_path(bg, rest)


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
        if e not in g.edges:
            raise ContractViolation(f"edge {e.id} not in graph")
    counts = first_return_counts(g)
    bad = next((v for v in g.vertices if counts[v] == 1), None)
    if bad is not None:
        raise ContractViolation(f"ambient graph fails Condition (K) at {bad.id}")
    cyc = cycle_vertices(g)
    reach = reaching(g, cyc)
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
    sub = subgraph(chosen)
    for _ in range(len(g.edges) + 1):
        counts = first_return_counts(sub)
        deficient = [v for v in sub.vertices if counts[v] == 1]
        if not deficient:
            return sub
        for w in deficient:
            ret = unique_first_return(sub, w)
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
                    f"no alternative cycle exists through the cycle at {w.id}")
        sub = subgraph(chosen)
    raise AssertionError("closure did not stabilize")


def add_tails(g: DirectedGraph, depth: int) -> DirectedGraph:
    """Append a fresh length-`depth` chain after every sink.

    The result is flagged `tail_truncated`: the true sink-free completion is
    infinite, and exact invariants refuse to work on the capped stand-in.
    """
    if depth < 1:
        raise ContractViolation("depth must be positive")
    sink_list = sinks(g)
    if not sink_list:
        return g
    vertex_ids = {v.id for v in g.vertices}
    edge_ids = {e.id for e in g.edges}
    vertices = list(g.vertices)
    edges = list(g.edges)
    for w in sink_list:
        prev = w
        for i in range(1, depth + 1):
            nxt = Vertex(_fresh(vertex_ids, f"{w.id}_tail{i}"))
            vertices.append(nxt)
            edges.append(Edge(_fresh(edge_ids, f"{w.id}_tailedge{i}"), prev, nxt))
            prev = nxt
    return DirectedGraph(vertices, edges, tail_truncated=True)
