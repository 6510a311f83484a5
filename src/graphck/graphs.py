"""Finite directed multigraphs, path combinatorics and vertex-set machinery.

Graphs and paths are immutable values and the functions are pure; only a
`PathTree` grows, and it is the one place that enumerates paths.  It holds
them as index arrays and builds a `Path` only when one is read.  Vertices
and edges keep their insertion order, and paths are ordered by length and
then left-to-right by edge insertion index, so every matrix and report built
downstream is byte-stable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from .errors import ContractViolation, ResourceLimit


@dataclass(frozen=True)
class Vertex:
    id: str

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"Vertex({self.id})"


@dataclass(frozen=True)
class Edge:
    id: str
    source: Vertex
    range: Vertex

    def __hash__(self) -> int:  # equal edges share an id; __eq__ still compares all fields
        return hash(self.id)

    def __repr__(self) -> str:
        return f"Edge({self.id}: {self.source.id}->{self.range.id})"


class Path:
    """A composable edge sequence; an empty path stores its base vertex.

    The hash is cached and folded from the prefix's hash, so a one-edge
    extension hashes in O(1): paths are used as dictionary keys throughout
    the symbolic and representation layers.
    """

    __slots__ = ("edges", "base", "_hash")

    def __init__(self, edges: tuple[Edge, ...] = (), base: Vertex | None = None):
        edges = tuple(edges)
        if edges:
            if base is not None:
                raise ContractViolation("nonempty path must not carry a base vertex")
            for e, f in zip(edges, edges[1:]):
                if e.range is not f.source and e.range != f.source:
                    raise ContractViolation(
                        f"edges {e.id} and {f.id} do not compose: "
                        f"r({e.id})={e.range.id} but s({f.id})={f.source.id}"
                    )
        elif base is None:
            raise ContractViolation("empty path needs a base vertex")
        # the hash folds one edge at a time from the source's, as `_grown` does
        h = hash(edges[0].source if edges else base)
        for e in edges:
            h = hash((h, e.id))
        self.edges = edges
        self.base = base
        self._hash = h

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

    def extend(self, e: Edge) -> "Path":
        """self followed by the edge e.  Only the new junction is checked: the
        junctions of self were checked when it was built."""
        end = self.range
        if end is not e.source and end != e.source:
            raise ContractViolation(
                f"paths do not compose: r={end.id} vs s={e.source.id}")
        return self._grown(e)

    def _grown(self, e: Edge) -> "Path":
        """self followed by e, which the caller knows composes."""
        out = Path.__new__(Path)
        out.edges = self.edges + (e,)
        out.base = None
        out._hash = hash((self._hash, e.id))
        return out

    def suffix_from(self, k: int) -> "Path":
        """The path made of edges k, k+1, ... (empty at range if k == len)."""
        return Path(self.edges[k:]) if k < len(self.edges) else Path.at(self.range)

    @property
    def id(self) -> str:
        """Deterministic textual name: vertex id, or dot-joined edge ids."""
        return self.base.id if not self.edges else ".".join(e.id for e in self.edges)

    def __repr__(self) -> str:
        return f"Path({self.id})"


class DirectedGraph:
    """Finite directed multigraph with insertion-ordered vertices and edges."""

    __slots__ = ("vertices", "edges", "_vindex", "_out", "_in")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge]):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._vindex: dict[Vertex, int] = {}
        for i, v in enumerate(self.vertices):
            if v in self._vindex:  # Vertex compares by id
                raise ContractViolation(f"duplicate vertex id {v.id}")
            self._vindex[v] = i
        seen_eids = set()
        for e in self.edges:
            if e.id in seen_eids:
                raise ContractViolation(f"duplicate edge id {e.id}")
            seen_eids.add(e.id)
            if e.source not in self._vindex or e.range not in self._vindex:
                raise ContractViolation(f"edge {e.id} has an endpoint outside the graph")
        out: dict[Vertex, list[Edge]] = {v: [] for v in self.vertices}
        into: dict[Vertex, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.source].append(e)
            into[e.range].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in into.items()}

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

    def __eq__(self, other) -> bool:
        return (isinstance(other, DirectedGraph)
                and self.vertices == other.vertices and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"DirectedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class PathTree:
    """The paths from root vertices (by default all), grown one length at a time.

    The tree is kept as flat index arrays; a `Path` object is built only when
    one is read.  Node i is a path: `parent[i]` is i without its last edge
    (-1 at a root), `edge[i]` that last edge (None at a root), `source[i]` and
    `end[i]` its source and range vertex.  The paths of length L, in lex order
    of edge insertion index, are nodes `offsets[L]` to `offsets[L + 1] - 1`.
    Node i's one-edge extensions are contiguous from `first_child[i]` (kept
    for all but the last layer), in `out_edges` order.  `from_vertex[v]`
    lists the nodes whose path leaves v, ascending.
    """

    __slots__ = ("graph", "parent", "edge", "source", "end", "offsets", "first_child",
                 "from_vertex", "_edge_pos", "_paths")

    def __init__(self, g: DirectedGraph, roots: Iterable[Vertex] | None = None, depth: int = 0):
        self.graph = g
        roots = list(g.vertices if roots is None else roots)
        self.parent = [-1] * len(roots)
        self.edge: list[Edge | None] = [None] * len(roots)
        self.source: list[Vertex] = roots
        self.end: list[Vertex] = roots[:]
        self.offsets = [0, len(roots)]
        self.first_child: list[int] = []
        self.from_vertex: dict[Vertex, list[int]] = {v: [] for v in g.vertices}
        self.from_vertex.update((v, [i]) for i, v in enumerate(roots))
        self._edge_pos = {e: k for v in g.vertices for k, e in enumerate(g.out_edges(v))}
        self._paths = [Path.at(v) for v in roots]  # the built prefix of `paths`
        for _ in range(depth):
            self.grow()

    def grow(self) -> None:
        """Append the layer of one-edge extensions of the last layer.

        A layer is sorted by source (a child keeps its parent's source
        object), so `source` and `from_vertex` are extended once per run of
        equal sources; each end vertex's out-edges and their ranges are read
        once per call."""
        out, parent, edge, source, end = (self.graph._out, self.parent, self.edge,
                                          self.source, self.end)
        first_child = self.first_child
        ext: dict[Vertex, tuple[tuple[Edge, ...], list[Vertex]]] = {}
        lo, hi = self.offsets[-2], self.offsets[-1]
        run, start = source[lo] if lo < hi else None, len(parent)
        for i in range(lo, hi):
            if source[i] is not run:
                self._extend_run(run, start)
                run, start = source[i], len(parent)
            first_child.append(len(parent))
            v = end[i]
            es_ranges = ext.get(v)
            if es_ranges is None:
                es = out[v]
                es_ranges = ext[v] = (es, [e.range for e in es])
            es, ranges = es_ranges
            if es:
                parent.extend(repeat(i, len(es)))
                edge.extend(es)
                end.extend(ranges)
        self._extend_run(run, start)
        self.offsets.append(len(parent))

    def _extend_run(self, s: Vertex | None, start: int) -> None:
        """Record source s for the new nodes from start on."""
        n = len(self.parent) - start
        if n:
            self.source.extend(repeat(s, n))
            self.from_vertex[s].extend(range(start, start + n))

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def paths(self) -> list[Path]:
        """Every node's path, in node order; built on first read, and extended
        on a later read after the tree has grown."""
        built, parent, edge = self._paths, self.parent, self.edge
        for i in range(len(built), len(parent)):
            built.append(built[parent[i]]._grown(edge[i]))
        return built

    def path(self, i: int) -> Path:
        """Node i's path, built from its parent chain."""
        edges = []
        while self.edge[i] is not None:
            edges.append(self.edge[i])
            i = self.parent[i]
        return Path(tuple(reversed(edges))) if edges else Path.at(self.source[i])

    def length(self, i: int) -> int:
        """The length of node i's path: the layer that holds it."""
        return bisect_right(self.offsets, i) - 1

    def find(self, p: Path) -> int | None:
        """Index of p, or None when p is not in the tree."""
        at = self.from_vertex.get(p.source)
        i = at[0] if at else None
        for e in p.edges:
            k = self._edge_pos.get(e)
            if i is None or k is None or i >= len(self.first_child):
                return None
            i = self.first_child[i] + k
        return i

    def prefix_map(self, mu: Path) -> dict[int, int]:
        """i(p) -> i(mu p) for the paths p from r(mu) with mu p in the tree,
        ascending in i(p); r(mu) must be a root.  A child's image is the
        same-position child of its parent's image."""
        up = self.find(mu)
        if up is None:
            return {}
        domain = self.from_vertex[mu.range]
        if not domain:
            raise ContractViolation(
                f"prefix map of {mu.id} needs its range {mu.range.id} to be a root of the tree")
        stop = bisect_left(domain, self.offsets[-1 - len(mu)])
        fc, parent = self.first_child, self.parent
        out = {domain[0]: up}
        for i in domain[1:stop]:
            j = parent[i]
            out[i] = fc[out[j]] + i - fc[j]
        return out


def paths(g: DirectedGraph, lo: int, hi: int) -> list[Path]:
    """All paths of length in [lo, hi), length-then-lex ordered."""
    if lo > hi:
        raise ContractViolation(f"need lo <= hi, got {lo} > {hi}")
    tree = PathTree(g, depth=hi - 1)
    return tree.paths[tree.offsets[max(lo, 0)]:tree.offsets[max(hi, 0)]]


def paths_from(g: DirectedGraph, v: Vertex, length: int) -> list[Path]:
    """All paths of the given length with source v, in lex order."""
    tree = PathTree(g, (v,), length)
    return tree.paths[tree.offsets[max(length, 0)]:]


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
