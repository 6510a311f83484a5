"""Second routes for the graph, blow-up, symbolic and K-theory invariants.

The library decides each quantity one way: first-return counts and Condition
(K) from strongly connected components, the ideal lattice from the
component condensation, the blow-up embedding and inclusion from labeled
walks, products of formal sums from the pairs of words that share an inner
key, invariant factors by Smith normal form, the geometric sum of powers of
A^t by walks along out-edges, and I - A^t from each vertex's in-edges.
These are the independent routes the tests compare against -- brute-force
first returns, fixed-point closure, block recursion and products of edge
images, products over every pair of words, minor gcds, path enumeration, the
adjacency matrix, a path tree with one `Path` per node -- kept out of the
library because nothing but the tests runs them.  `add_tails` builds the
capped stand-in for a graph with sinks that K-theory must refuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable

from graphck.construct import BlowupGraph, _fresh
from graphck.errors import ContractViolation, ResourceLimit
from graphck.graphs import (DirectedGraph, Edge, Path, Vertex, _as_vertex_set, paths_from,
                            sinks)
from graphck.ktheory import (IntMatrix, KTheoryResult, _det, connectivity_matrix,
                             smith_normal_form)
from graphck.symbolic import FormalSum, Word, _word_product


def path_vertices(p: Path) -> list[Vertex]:
    """Vertex itinerary: source, then range of each edge."""
    out = [p.source]
    out.extend(e.range for e in p.edges)
    return out


def path_isometry(g: DirectedGraph, p: Path) -> FormalSum:
    """s_p = product of the edge generators along p."""
    return FormalSum.of(g, Word(p, Path.at(p.range)))


def product_over_all_pairs(a: FormalSum, b: FormalSum) -> FormalSum:
    """a * b, for sums whose words are all tensored or all untensored, by the
    nested loop over every pair of words in the order of a's terms, then
    b's; `FormalSum.__mul__` visits only the pairs whose inner legs share a
    key."""
    a._require_same(b)
    out: dict[Word, Fraction] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = _word_product(wa, wb)
            if w is not None:
                out[w] = out[w] + ca * cb if w in out else ca * cb
    return FormalSum(a.graph, out)


def path_prefix(p: Path, k: int) -> Path:
    """The first k edges of p; the empty path at s(p) when k == 0."""
    return Path(p.edges[:k]) if k else Path.at(p.source)


def eager_path_tree(g: DirectedGraph, roots: Iterable[Vertex] | None = None,
                    depth: int = 0) -> tuple[list[Path], list[int], list[int]]:
    """(paths, parent, offsets) of the path tree, grown with one `Path` per
    node, each built from its parent's edge tuple and checked in full."""
    tree = [Path.at(v) for v in (g.vertices if roots is None else roots)]
    parent = [-1] * len(tree)
    offsets = [0, len(tree)]
    for _ in range(depth):
        for i in range(offsets[-2], offsets[-1]):
            for e in g.out_edges(tree[i].range):
                tree.append(Path(tree[i].edges + (e,)))
                parent.append(i)
        offsets.append(len(tree))
    return tree, parent, offsets


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
    return TruncationWitness(mu, m, path_prefix(mu, k), len(mu) - k)


def embed_path_by_blocks(bg: BlowupGraph, mu: Path) -> Path:
    """Image of a base path in the blow-up, edge by edge for |mu| <= m, where
    edge k is the pair (e_k, rest of mu after it), found among the edges into
    the rest's vertex; beyond that by splitting mu into [mu]_m, a block of m
    edges and the rest, whose length is a multiple of m, so the three images
    compose."""
    m = bg.m
    n = len(mu)
    if n == 0:
        return Path.at(bg.vertex_of_path(mu))
    if n <= m:
        return Path(tuple(
            next(em for em in bg.graph.in_edges(bg.vertex_of_path(mu.suffix_from(k + 1)))
                 if bg.pair_of_edge(em)[0] == e)
            for k, e in enumerate(mu.edges)))
    head = truncate_path(mu, m).head
    mid = Path(mu.edges[len(head):len(head) + m])
    rest = mu.suffix_from(len(head) + m)
    return (embed_path_by_blocks(bg, head) * embed_path_by_blocks(bg, mid)
            * embed_path_by_blocks(bg, rest))


def iota_path_image_by_products(bg: BlowupGraph, mu: Path) -> FormalSum:
    """Image of s_mu under the inclusion into the blow-up, as the product of
    its edge images; each edge goes to the sum of the blow-up edges built from
    it, found by a scan over all of them, and a path of length 0 at v to the
    projections of the blow-up vertices whose paths leave v."""
    g = bg.graph
    if not mu.edges:
        ats = [Path.at(p) for p in g.vertices if bg.path_of_vertex(p).source == mu.source]
        return FormalSum(g, {Word(at, at): Fraction(1) for at in ats})
    total = None
    for e in mu.edges:
        factor = FormalSum(g, {Word(Path((em,)), Path.at(em.range)): Fraction(1)
                               for em in g.edges if bg.pair_of_edge(em)[0] == e})
        total = factor if total is None else total * factor
    return total


def first_return_paths(g: DirectedGraph, v: Vertex, max_length: int | None = None,
                       max_paths: int = 100_000) -> list[Path]:
    """Cycles at v visiting v only at their endpoints, up to max_length,
    ordered by length and then by edge insertion index.

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
    index = {e: i for i, e in enumerate(g.edges)}
    found.sort(key=lambda p: (len(p), tuple(index[e] for e in p.edges)))
    return found


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


def smith_diagonal_by_minors(matrix: IntMatrix) -> list[int]:
    """Invariant factors from gcds of k-by-k minors.

    Exponential in the size; intended for cross-checking small matrices.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    size = min(nrows, ncols)
    gcds = [1]
    for k in range(1, size + 1):
        g = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(_det(sub)))
        gcds.append(g)
    diag = []
    for k in range(1, size + 1):
        if gcds[k] == 0:
            diag.append(0)
        else:
            diag.append(gcds[k] // gcds[k - 1])
    return diag


def k0_class(res: KTheoryResult, x: list[int]) -> tuple[int, ...]:
    """Coordinates of an integer vector in the cokernel presentation, read
    through the U of the Smith form of the graph's I - A^t."""
    snf = smith_normal_form(connectivity_matrix(res.graph))
    z = [sum(a * b for a, b in zip(row, x)) for row in snf.u]
    diag = snf.diagonal
    out = []
    for i, c in enumerate(z):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            out.append(c)
        elif di > 1:
            out.append(c % di)
    return tuple(out)


def adjacency_matrix(g: DirectedGraph) -> list[list[int]]:
    """Vertex-by-vertex matrix counting edges v -> w, in insertion order."""
    n = len(g.vertices)
    mat = [[0] * n for _ in range(n)]
    for e in g.edges:
        mat[g.vertex_index(e.source)][g.vertex_index(e.range)] += 1
    return mat


def vertex_range_counts(g: DirectedGraph, v: Vertex, m: int) -> list[int]:
    """Multiset of ranges of the paths of length < m leaving v, as a vector:
    the path-enumeration route to the geometric-sum column."""
    counts = [0] * len(g.vertices)
    for length in range(m):
        for p in paths_from(g, v, length):
            counts[g.vertex_index(p.range)] += 1
    return counts


def add_tails(g: DirectedGraph, depth: int) -> DirectedGraph:
    """Append a fresh length-`depth` chain after every sink.  The true
    sink-free completion is infinite; the capped stand-in still ends in a
    sink at each chain's end."""
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
    return DirectedGraph(vertices, edges)
