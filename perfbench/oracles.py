"""Independent oracles for the benchmark's correctness checks.

Nothing here imports graphck: every expected value is recomputed from the
benchmark's own graph description (`Graph`), with algorithms chosen to differ
from the library's (brute force, condensation DAGs, Fraction elimination,
path counting, the closed-form weight table).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil


@dataclass(frozen=True)
class Graph:
    """Vertex ids in declaration order and edges as (id, source, range)."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    def dsl(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {e} : {s} -> {r}" for e, s, r in self.edges]
        return "\n".join(lines) + "\n"

    def successors(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for _, s, r in self.edges:
            out[s].append(r)
        return out


def sccs(g: Graph) -> list[list[str]]:
    """Strongly connected components by Kosaraju's two passes, iteratively."""
    succ = g.successors()
    pred: dict[str, list[str]] = {v: [] for v in g.vertices}
    for _, s, r in g.edges:
        pred[r].append(s)
    order: list[str] = []
    seen: set[str] = set()
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    comps: list[list[str]] = []
    assigned: set[str] = set()
    for root in reversed(order):
        if root in assigned:
            continue
        comp = [root]
        assigned.add(root)
        frontier = [root]
        while frontier:
            x = frontier.pop()
            for y in pred[x]:
                if y not in assigned:
                    assigned.add(y)
                    comp.append(y)
                    frontier.append(y)
        comps.append(comp)
    return comps


def _internal_edge_counts(g: Graph, comps: list[list[str]]) -> list[int]:
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    counts = [0] * len(comps)
    for _, s, r in g.edges:
        if comp_of[s] == comp_of[r]:
            counts[comp_of[s]] += 1
    return counts


def cycle_vertex_set(g: Graph) -> set[str]:
    comps = sccs(g)
    counts = _internal_edge_counts(g, comps)
    return {v for c, k in zip(comps, counts) if k for v in c}


def is_acyclic(g: Graph) -> bool:
    return not cycle_vertex_set(g)


def condition_k(g: Graph) -> bool:
    """A finite graph has Condition (K) iff no cyclic component is a single
    cycle, i.e. every component with internal edges has more edges than
    vertices."""
    comps = sccs(g)
    return all(k == 0 or k > len(c) for c, k in zip(comps, _internal_edge_counts(g, comps)))


def connects_to_cycle(g: Graph) -> bool:
    reach = cycle_vertex_set(g)
    pred: dict[str, list[str]] = {v: [] for v in g.vertices}
    for _, s, r in g.edges:
        pred[r].append(s)
    frontier = list(reach)
    while frontier:
        x = frontier.pop()
        for y in pred[x]:
            if y not in reach:
                reach.add(y)
                frontier.append(y)
    return len(reach) == len(g.vertices)


def purely_infinite(g: Graph) -> bool:
    return condition_k(g) and connects_to_cycle(g)


def has_cycle_without_exit(g: Graph) -> bool:
    """Some cycle whose every vertex emits only the cycle's own edge."""
    succ = g.successors()
    for start in g.vertices:
        v = start
        for _ in range(len(g.vertices)):
            if len(succ[v]) != 1:
                break
            v = succ[v][0]
            if v == start:
                return True
    return False


def sinks(g: Graph) -> list[str]:
    succ = g.successors()
    return [v for v in g.vertices if not succ[v]]


def _closed_sets_brute_force(g: Graph) -> list[frozenset[str]]:
    """Every subset, kept when hereditary and saturated (bitmask filter)."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    succ_mask = [0] * len(g.vertices)
    for _, s, r in g.edges:
        succ_mask[idx[s]] |= 1 << idx[r]
    out = []
    for bits in range(1 << len(g.vertices)):
        ok = True
        for i, mask in enumerate(succ_mask):
            inside = bits >> i & 1
            if inside and mask & ~bits:
                ok = False  # not hereditary
                break
            if not inside and mask and not mask & ~bits:
                ok = False  # not saturated
                break
        if ok:
            out.append(frozenset(v for v in g.vertices if bits >> idx[v] & 1))
    return out


def closed_sets_by_components(g: Graph) -> list[frozenset[str]]:
    """Successor-closed unions of strongly connected components, enumerated
    sinks-first on the condensation, then filtered for saturation."""
    comps = sccs(g)  # Kosaraju emits components sources-first
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    succ_comps = [set() for _ in comps]
    for _, s, r in g.edges:
        if comp_of[s] != comp_of[r]:
            succ_comps[comp_of[s]].add(comp_of[r])
    succ = g.successors()
    out: list[frozenset[str]] = []
    chosen = [False] * len(comps)

    def walk(k: int) -> None:
        if k < 0:
            h = frozenset(v for i, c in enumerate(comps) if chosen[i] for v in c)
            if all(v in h or not succ[v] or any(w not in h for w in succ[v])
                   for v in g.vertices):
                out.append(h)
            return
        walk(k - 1)
        if all(chosen[j] for j in succ_comps[k]):
            chosen[k] = True
            walk(k - 1)
            chosen[k] = False

    walk(len(comps) - 1)
    return out


BRUTE_FORCE_MAX_VERTICES = 12


def hereditary_saturated_sets(g: Graph) -> set[frozenset[str]]:
    """The gauge-invariant ideal lattice as vertex sets: brute force up to
    twelve vertices, the condensation enumeration above that."""
    if len(g.vertices) <= BRUTE_FORCE_MAX_VERTICES:
        return set(_closed_sets_brute_force(g))
    return set(closed_sets_by_components(g))


def restriction(g: Graph, h: frozenset[str]) -> Graph:
    return Graph(tuple(v for v in g.vertices if v in h),
                 tuple(e for e in g.edges if e[1] in h))


def quotient(g: Graph, h: frozenset[str]) -> Graph:
    return Graph(tuple(v for v in g.vertices if v not in h),
                 tuple(e for e in g.edges if e[2] not in h))


def lattice_order(g: Graph, sets) -> list[frozenset[str]]:
    """The library's documented order: by cardinality, then vertex positions."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    return sorted(sets, key=lambda h: (len(h), sorted(pos[v] for v in h)))


def expected_simple(g: Graph, lattice_size: int) -> bool:
    """Simple iff the lattice is {0, E^0} and every cycle has an exit."""
    if not g.vertices:
        return False
    return lattice_size == 2 and not has_cycle_without_exit(g)


def expected_verdict(g: Graph, lattice: list[frozenset[str]]) -> tuple:
    """(lower, upper, toeplitz_upper, rules) from the rule definitions."""
    if is_acyclic(g):
        return 0, 0, None, ["R0"]
    if purely_infinite(g):
        return 1, 1, 2, ["R1", "R4"]
    for h in lattice:
        if h and purely_infinite(restriction(g, h)) and is_acyclic(quotient(g, h)):
            return 1, 1, None, ["R3"]
    return 1, None, None, ["R5"]


def rank_and_minor(matrix: list[list[int]]) -> tuple[int, int]:
    """Rank r, and |det| of the r-by-r submatrix on the pivot rows and
    columns (|det| of the matrix when r is full), by sparse Fraction
    elimination pivoting on the sparsest available row."""
    rows = [{j: Fraction(x) for j, x in enumerate(r) if x} for r in matrix]
    n = len(matrix)
    rank = 0
    det = Fraction(1)
    live = list(range(len(rows)))
    for col in range(len(matrix[0]) if matrix else 0):
        cands = [i for i in live if col in rows[i]]
        if not cands:
            continue
        p = min(cands, key=lambda i: len(rows[i]))
        live.remove(p)
        prow = rows[p]
        pv = prow[col]
        det *= pv
        rank += 1
        for i in cands:
            if i == p:
                continue
            row = rows[i]
            f = row[col] / pv
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
    return rank, abs(int(det))


def connectivity_matrix(g: Graph) -> list[list[int]]:
    """I - A^t with A counting edges v -> w."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _, s, r in g.edges:
        m[idx[r]][idx[s]] -= 1
    return m


def k_group_facts(g: Graph) -> tuple[int, int]:
    """(K1 rank = K0 free rank, |det| of a maximal nonsingular minor of
    I - A^t).  The K0 torsion orders multiply to the gcd of all maximal
    minors, so their product divides this one, and equals it (|det|) when
    the free rank is 0."""
    n = len(g.vertices)
    rank, minor = rank_and_minor(connectivity_matrix(g))
    return n - rank, minor


def geometric_sum_column(g: Graph, v: str, m: int) -> list[int]:
    """Column v of I + A^t + ... + (A^t)^(m-1): ranges of the paths of
    length < m leaving v, counted by walking the adjacency."""
    idx = {x: i for i, x in enumerate(g.vertices)}
    succ = g.successors()
    counts = [0] * len(g.vertices)
    layer = {v: 1}
    for _ in range(m):
        nxt: dict[str, int] = {}
        for x, c in layer.items():
            counts[idx[x]] += c
            for y in succ[x]:
                nxt[y] = nxt.get(y, 0) + c
        layer = nxt
    return counts


def check_k0_witness(g: Graph, m: int, v: str, x: list[int]) -> bool:
    """(I - A^t) x equals (geometric sum - m) applied to the class of v."""
    phi = connectivity_matrix(g)
    col = geometric_sum_column(g, v, m)
    col[g.vertices.index(v)] -= m
    return all(sum(a * b for a, b in zip(row, x) if a) == c for row, c in zip(phi, col))


def path_counts(g: Graph, m: int) -> tuple[int, int]:
    """(|V|, |E|) of the m-th blow-up: paths of length < m, and pairs of an
    edge with a path of length < m leaving its range, via powers of A."""
    succ = g.successors()
    walks = {v: 1 for v in g.vertices}  # paths of the current length ending at v
    by_length = []
    for _ in range(m):
        by_length.append(sum(walks.values()))
        nxt: dict[str, int] = {}
        for x, c in walks.items():
            for y in succ[x]:
                nxt[y] = nxt.get(y, 0) + c
        walks = nxt
    n_vertices = sum(by_length)
    # an edge followed by a path of length < m is a path of length 1..m
    n_edges = n_vertices - len(g.vertices) + sum(walks.values())
    return n_vertices, n_edges


def kappa_entry(m: int, i: int, j: int) -> Fraction:
    """0-based weight-table entry, zero outside the window."""
    if not (0 <= i < m and 0 <= j < m):
        return Fraction(0)
    i, j = i + 1, j + 1
    return Fraction(min(i, j, m + 1 - i, m + 1 - j), ceil(m / 2) + 1)


def coefficient_table(m: int, a: int, b: int) -> list[Fraction]:
    """K_{m,i}: the weights met by legs of lengths a+i and b+i in the window
    [m, 2m) and in the half-shifted window, one representative each."""
    half = ceil(m / 2)
    vals = []
    for i in range(m):
        total = Fraction(0)
        for shift in (m, m + half):
            # the representative of a+i modulo m inside [shift, shift+m)
            t = shift + (a + i - shift) % m
            total += kappa_entry(m, t - shift, t - shift - a + b)
        vals.append(total)
    return vals


def approx_expectation(m: int, a: int, b: int) -> tuple[str, list[str]]:
    """(max |1 - K_{m,i}|, K values) as the CLI prints them."""
    vals = coefficient_table(m, a, b)
    return str(max(abs(1 - v) for v in vals)), [str(v) for v in vals]


def gabe_terms(g: Graph, h: frozenset[str], x: frozenset[str]) -> int:
    """Terms of the window projection: vertices of h in x, plus each path
    that stays in x outside h and whose last edge enters h."""
    by_source: dict[str, list[tuple[str, str, str]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        by_source[e[1]].append(e)
    count = sum(1 for v in g.vertices if v in h and v in x)
    frontier = [v for v in g.vertices if v in x and v not in h]
    while frontier:
        v = frontier.pop()
        for _, _, r in by_source[v]:
            if r in h:
                count += 1
            elif r in x:
                frontier.append(r)
    return count
