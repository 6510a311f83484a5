"""Finite directed multigraphs, path combinatorics and vertex-set machinery.

Everything here is an immutable value; all operations are pure functions, so
instances can be shared freely across threads.  Vertices and edges keep their
insertion order, and paths are ordered by length and then left-to-right by
edge insertion index, so every matrix and report built downstream is
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContractViolation, ResourceLimit


@dataclass(frozen=True)
class Vertex:
    id: str

    def __repr__(self) -> str:
        return f"Vertex({self.id})"


@dataclass(frozen=True)
class Edge:
    id: str
    source: Vertex
    range: Vertex

    def __repr__(self) -> str:
        return f"Edge({self.id}: {self.source.id}->{self.range.id})"


class Path:
    """A composable edge sequence; an empty path stores its base vertex.

    Hash and endpoints are cached: paths are used as dictionary keys
    throughout the symbolic and representation layers.
    """

    __slots__ = ("edges", "base", "_hash")

    def __init__(self, edges: tuple[Edge, ...] = (), base: Vertex | None = None):
        edges = tuple(edges)
        if edges:
            if base is not None:
                raise ContractViolation("nonempty path must not carry a base vertex")
            for e, f in zip(edges, edges[1:]):
                if e.range != f.source:
                    raise ContractViolation(
                        f"edges {e.id} and {f.id} do not compose: "
                        f"r({e.id})={e.range.id} but s({f.id})={f.source.id}"
                    )
        elif base is None:
            raise ContractViolation("empty path needs a base vertex")
        self.edges = edges
        self.base = base
        self._hash = hash((edges, base))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (isinstance(other, Path) and self._hash == other._hash
                and self.edges == other.edges and self.base == other.base)

    @staticmethod
    def at(v: Vertex) -> "Path":
        return Path((), v)

    @property
    def source(self) -> Vertex:
        return self.edges[0].source if self.edges else self.base  # type: ignore[return-value]

    @property
    def range(self) -> Vertex:
        return self.edges[-1].range if self.edges else self.base  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self.edges)

    def concat(self, other: "Path") -> "Path":
        """Concatenation self followed by other; ranges must match sources."""
        if self.range != other.source:
            raise ContractViolation(
                f"paths do not compose: r={self.range.id} vs s={other.source.id}"
            )
        if not other.edges:
            return self
        if not self.edges:
            return other
        return Path(self.edges + other.edges)

    def __mul__(self, other: "Path") -> "Path":
        return self.concat(other)

    def prefix(self, k: int) -> "Path":
        return Path(self.edges[:k]) if k else Path.at(self.source)

    def suffix_from(self, k: int) -> "Path":
        """The path made of edges k, k+1, ... (empty at range if k == len)."""
        return Path(self.edges[k:]) if k < len(self.edges) else Path.at(self.range)

    def vertices(self) -> list[Vertex]:
        """Vertex itinerary: source, then range of each edge."""
        out = [self.source]
        out.extend(e.range for e in self.edges)
        return out

    @property
    def id(self) -> str:
        """Deterministic textual name: vertex id, or dot-joined edge ids."""
        return self.base.id if not self.edges else ".".join(e.id for e in self.edges)

    def __repr__(self) -> str:
        return f"Path({self.id})"


class DirectedGraph:
    """Finite directed multigraph with insertion-ordered vertices and edges."""

    __slots__ = ("vertices", "edges", "tail_truncated", "_vindex", "_eindex", "_out", "_in")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge],
                 tail_truncated: bool = False):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        # flagged when sinks were capped with finite tails (see constructions)
        self.tail_truncated = tail_truncated
        self._vindex: dict[Vertex, int] = {}
        for i, v in enumerate(self.vertices):
            if v in self._vindex:  # Vertex compares by id
                raise ContractViolation(f"duplicate vertex id {v.id}")
            self._vindex[v] = i
        self._eindex: dict[Edge, int] = {}
        seen_eids = set()
        for i, e in enumerate(self.edges):
            if e.id in seen_eids:
                raise ContractViolation(f"duplicate edge id {e.id}")
            seen_eids.add(e.id)
            if e.source not in self._vindex or e.range not in self._vindex:
                raise ContractViolation(f"edge {e.id} has an endpoint outside the graph")
            self._eindex[e] = i
        self._out: dict[Vertex, tuple[Edge, ...]] = {v: () for v in self.vertices}
        self._in: dict[Vertex, tuple[Edge, ...]] = {v: () for v in self.vertices}
        for e in self.edges:
            self._out[e.source] += (e,)
            self._in[e.range] += (e,)

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]] = ()) -> "DirectedGraph":
        """Convenience constructor from ids: edges given as (id, src, dst)."""
        vs = [Vertex(x) for x in vertices]
        lookup = {v.id: v for v in vs}
        es = []
        for eid, s, r in edges:
            if s not in lookup or r not in lookup:
                raise ContractViolation(f"edge {eid} references unknown vertex")
            es.append(Edge(eid, lookup[s], lookup[r]))
        return DirectedGraph(vs, es)

    def out_edges(self, v: Vertex) -> tuple[Edge, ...]:
        return self._out[v]

    def in_edges(self, v: Vertex) -> tuple[Edge, ...]:
        return self._in[v]

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._vindex

    def vertex_index(self, v: Vertex) -> int:
        return self._vindex[v]

    def vertex(self, vid: str) -> Vertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise ContractViolation(f"no vertex named {vid}")

    def edge(self, eid: str) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise ContractViolation(f"no edge named {eid}")

    def path_key(self, p: Path) -> tuple:
        """Sort key realising the length-then-lex path order."""
        if not p.edges:
            return (0, (self._vindex[p.base],))
        return (len(p.edges), tuple(self._eindex[e] for e in p.edges))

    def __eq__(self, other) -> bool:
        return (isinstance(other, DirectedGraph)
                and self.vertices == other.vertices and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"DirectedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def adjacency_matrix(g: DirectedGraph) -> list[list[int]]:
    """Vertex-by-vertex matrix counting edges v -> w, in insertion order."""
    n = len(g.vertices)
    mat = [[0] * n for _ in range(n)]
    for e in g.edges:
        mat[g.vertex_index(e.source)][g.vertex_index(e.range)] += 1
    return mat


def paths(g: DirectedGraph, lo: int, hi: int) -> list[Path]:
    """All paths of length in [lo, hi), length-then-lex ordered."""
    if lo > hi:
        raise ContractViolation(f"need lo <= hi, got {lo} > {hi}")
    out: list[Path] = []
    layer = [Path.at(v) for v in g.vertices]
    length = 0
    while length < hi and layer:
        if length >= lo:
            out.extend(layer)
        layer = [p * Path((e,)) for p in layer for e in g.out_edges(p.range)]
        length += 1
    return out


def paths_from(g: DirectedGraph, v: Vertex, length: int) -> list[Path]:
    """All paths of the given length with source v, in lex order."""
    layer = [Path.at(v)]
    for _ in range(length):
        layer = [p * Path((e,)) for p in layer for e in g.out_edges(p.range)]
    return layer


def sinks(g: DirectedGraph) -> list[Vertex]:
    return [v for v in g.vertices if not g.out_edges(v)]


def _components(g: DirectedGraph) -> tuple[dict[Vertex, int], int]:
    """Strongly connected components by Tarjan: (component of each vertex, count).

    A component is numbered only after every component it reaches, so edges
    between components always lead to a smaller number.
    """
    index: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    comp: dict[Vertex, int] = {}
    stack: list[Vertex] = []
    n = 0
    for root in g.vertices:
        if root in index:
            continue
        # iterative Tarjan; recursion depth can exceed limits on long chains
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(g.out_edges(root)))]
        while work:
            v, it = work[-1]
            for e in it:
                w = e.range
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(g.out_edges(w))))
                    break
                if w not in comp:  # visited and unassigned: still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n
                        if w == v:
                            break
                    n += 1
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
    return comp, n


def first_return_counts(g: DirectedGraph) -> dict[Vertex, int]:
    """Number of first-return paths at each vertex: 0, 1 or 2 (at least two).

    A first-return path at v stays inside v's strongly connected component C,
    and each edge x -> y inside C lies on one: shortest paths v -> x and y -> v
    meet v only at their ends.  So two edges from one vertex into C give two
    such paths; if no vertex sends two, C is a bare cycle (one path) or a lone
    vertex without a loop (none).
    """
    comp, _ = _components(g)
    most: dict[int, int] = {}  # per component: most edges one vertex sends into it
    for v in g.vertices:
        inside = sum(1 for e in g.out_edges(v) if comp[e.range] == comp[v])
        most[comp[v]] = max(most.get(comp[v], 0), inside)
    return {v: min(2, most[comp[v]]) for v in g.vertices}


def cycle_vertices(g: DirectedGraph) -> frozenset[Vertex]:
    """Vertices lying on at least one cycle."""
    return frozenset(v for v, count in first_return_counts(g).items() if count)


def is_acyclic(g: DirectedGraph) -> bool:
    return not cycle_vertices(g)


def unique_first_return(g: DirectedGraph, v: Vertex) -> Path | None:
    """The single first-return path at v, when there is exactly one.

    Follows from v the one edge each vertex sends into v's component; the
    walk returns to v with no branch on the way exactly when that component
    is a bare cycle.
    """
    comp, _ = _components(g)
    walk: list[Edge] = []
    x = v
    while not walk or x != v:
        inside = [e for e in g.out_edges(x) if comp[e.range] == comp[v]]
        if len(inside) != 1:
            return None
        walk.append(inside[0])
        x = inside[0].range
    return Path(tuple(walk))


def first_return_paths(g: DirectedGraph, v: Vertex, max_length: int | None = None,
                       max_paths: int = 100_000) -> list[Path]:
    """Cycles at v visiting v only at their endpoints, up to max_length.

    There may be infinitely many overall; the default bound |E^0|*|E^1| is
    enough to witness the count used by Condition (K) on small graphs.
    """
    if not g.has_vertex(v):
        raise ContractViolation(f"vertex {v.id} not in graph")
    if max_length is None:
        max_length = len(g.vertices) * len(g.edges)
    found: list[Path] = []
    stack: list[Path] = [Path((e,)) for e in reversed(g.out_edges(v))]
    while stack:
        p = stack.pop()
        if p.range == v:
            found.append(p)
            if len(found) > max_paths:
                raise ResourceLimit(
                    f"more than {max_paths} first-return paths at {v.id}; raise max_paths")
            continue
        if len(p) >= max_length:
            continue
        for e in reversed(g.out_edges(p.range)):
            stack.append(p * Path((e,)))
    found.sort(key=g.path_key)
    return found


def satisfies_condition_K(g: DirectedGraph) -> bool:
    """No vertex has exactly one first-return path."""
    return 1 not in first_return_counts(g).values()


def satisfies_condition_L(g: DirectedGraph) -> bool:
    """Every cycle has an exit: no component is a bare cycle, whose vertices
    each emit exactly one edge, inside the component."""
    comp, n = _components(g)
    has_exit = [False] * n
    for v in g.vertices:
        out = g.out_edges(v)
        if len(out) != 1 or comp[out[0].range] != comp[v]:
            has_exit[comp[v]] = True
    return all(has_exit)


def reaching(g: DirectedGraph, targets: Iterable[Vertex]) -> set[Vertex]:
    """Vertices with a (possibly empty) path into targets."""
    seen = set(targets)
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for e in g.in_edges(x):
            if e.source not in seen:
                seen.add(e.source)
                frontier.append(e.source)
    return seen


def every_vertex_connects_to_cycle(g: DirectedGraph) -> bool:
    """From each vertex there is a (possibly empty) path to a cycle vertex."""
    return len(reaching(g, cycle_vertices(g))) == len(g.vertices)


def _as_vertex_set(g: DirectedGraph, s: Iterable[Vertex]) -> frozenset[Vertex]:
    out = frozenset(s)
    for v in out:
        if not g.has_vertex(v):
            raise ContractViolation(f"vertex {v.id} not in graph")
    return out


def is_hereditary(g: DirectedGraph, s: Iterable[Vertex]) -> bool:
    h = frozenset(s)
    return all(e.range in h for e in g.edges if e.source in h)


def is_saturated(g: DirectedGraph, s: Iterable[Vertex]) -> bool:
    h = frozenset(s)
    for v in g.vertices:
        out = g.out_edges(v)
        if out and v not in h and all(e.range in h for e in out):
            return False
    return True


def hereditary_saturated_closure(g: DirectedGraph, s: Iterable[Vertex]) -> frozenset[Vertex]:
    """Smallest hereditary and saturated superset, by fixed-point iteration."""
    h = set(_as_vertex_set(g, s))
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if e.source in h and e.range not in h:
                h.add(e.range)
                changed = True
        for v in g.vertices:
            out = g.out_edges(v)
            if out and v not in h and all(e.range in h for e in out):
                h.add(v)
                changed = True
    return frozenset(h)


MAX_LATTICE_SETS = 1 << 20  # holds every lattice of a graph with <= 20 vertices


def enumerate_hereditary_saturated(g: DirectedGraph) -> list[frozenset[Vertex]]:
    """All hereditary saturated subsets, ordered by cardinality then position.

    Hereditary sets are unions of components closed under successors.  The
    components are decided successors first, so every partial choice ends in
    a set: the cost follows the number of sets, refused past MAX_LATTICE_SETS.
    """
    comp, n = _components(g)
    members = [0] * n  # vertex bits of each component
    succ = [0] * n     # vertex bits of the ranges of its edges
    for v, c in comp.items():
        members[c] |= 1 << g.vertex_index(v)
    for e in g.edges:
        succ[comp[e.source]] |= 1 << g.vertex_index(e.range)
    sets = [0]
    for c in range(n):
        outside = succ[c] & ~members[c]
        # a lone loop-free vertex with edges: saturation takes it once all of them land in h
        forced = succ[c] and succ[c] == outside
        grown = []
        for h in sets:
            if not outside & ~h:
                grown.append(h | members[c])
                if forced:
                    continue
            grown.append(h)
            if len(grown) > MAX_LATTICE_SETS:
                raise ResourceLimit(
                    f"ideal lattice exceeds MAX_LATTICE_SETS = {MAX_LATTICE_SETS}: {len(grown)} "
                    f"hereditary saturated sets after {c + 1} of {n} components")
        sets = grown
    positions = sorted((tuple(i for i in range(len(g.vertices)) if h >> i & 1) for h in sets),
                       key=lambda pos: (len(pos), pos))
    return [frozenset(g.vertices[i] for i in pos) for pos in positions]


def quotient_graph(g: DirectedGraph, h: Iterable[Vertex]) -> DirectedGraph:
    """Graph on E^0 \\ H keeping the edges whose range lies outside H."""
    hs = _as_vertex_set(g, h)
    if not is_hereditary(g, hs):
        raise ContractViolation("quotient requires a hereditary set")
    if not is_saturated(g, hs):
        raise ContractViolation("quotient requires a saturated set")
    keep_v = [v for v in g.vertices if v not in hs]
    keep_e = [e for e in g.edges if e.range not in hs]
    return DirectedGraph(keep_v, keep_e)


def restriction_graph(g: DirectedGraph, h: Iterable[Vertex]) -> DirectedGraph:
    """Graph on H keeping the edges whose source lies in H."""
    hs = _as_vertex_set(g, h)
    if not is_hereditary(g, hs):
        raise ContractViolation("restriction requires a hereditary set")
    keep_v = [v for v in g.vertices if v in hs]
    keep_e = [e for e in g.edges if e.source in hs]
    return DirectedGraph(keep_v, keep_e)
