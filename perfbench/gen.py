"""Seeded graph generators; the same seed always yields the same graphs.

Generators return `oracles.Graph` values, which the workloads write out as
DSL files or parse into library objects.  They use only `random.Random`, so
a seed fixes every input byte independently of the program under test.
"""

from __future__ import annotations

import random

from perfbench.oracles import Graph, closed_sets_by_components

# the named shapes of the library's representation corpus
SHAPES = {
    "two_loop": Graph(("v",), (("e", "v", "v"), ("f", "v", "v"))),
    "single_loop": Graph(("v",), (("e", "v", "v"),)),
    "single_edge": Graph(("v", "w"), (("e", "v", "w"),)),
    "two_cycle": Graph(("v", "w"), (("a", "v", "w"), ("b", "w", "v"))),
    "mixed_m": Graph(("u", "v", "w"), (("e1", "v", "v"), ("e2", "v", "v"),
                                       ("a", "u", "v"), ("b", "u", "w"))),
    "u_graph": Graph(("u", "v"), (("a", "u", "v"), ("e1", "v", "v"), ("e2", "v", "v"))),
    "three_loop": Graph(("v",), (("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v"))),
}


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """An independent deterministic stream per (workload, seed, purpose)."""
    return random.Random(f"{workload}/{seed}/{stream}")


def _relabel(rng: random.Random, vertices: list[str],
             edges: list[tuple[str, str]]) -> tuple[Graph, dict[str, str]]:
    """Shuffle declaration order and rename to v0.., e0.. in that order;
    returns the graph and the old-to-new vertex names."""
    order = vertices[:]
    rng.shuffle(order)
    name = {v: f"v{i}" for i, v in enumerate(order)}
    es = edges[:]
    rng.shuffle(es)
    g = Graph(tuple(name[v] for v in order),
              tuple((f"e{i}", name[s], name[r]) for i, (s, r) in enumerate(es)))
    return g, name


def component_graph(rng: random.Random, n: int, pieces: int,
                    sink_free: bool = False) -> Graph | None:
    """A graph with `pieces` strongly connected pieces on `n` vertices, or
    None when `sink_free` is asked for and the draw has a sink.

    Each piece of two or more vertices is a cycle, plus one chord when it is
    to satisfy Condition (K); a one-vertex piece carries no loop, one loop or
    two loops.  Pieces are ordered and joined by forward edges of a random
    density: the piece count and the density set the lattice size.
    """
    if not 1 <= pieces <= n:
        raise ValueError(f"need 1 <= pieces <= n, got {pieces}, {n}")
    cuts = sorted(rng.sample(range(1, n), pieces - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    groups, edges, k = [], [], 0
    for size in sizes:
        group = [f"p{k + i}" for i in range(size)]
        k += size
        groups.append(group)
        if size == 1:
            loops = rng.choice((0, 1, 2)) if not sink_free else rng.choice((1, 2))
            edges += [(group[0], group[0])] * loops
        else:
            edges += [(group[i], group[(i + 1) % size]) for i in range(size)]
            if rng.random() < 0.6:
                edges.append((rng.choice(group), rng.choice(group)))
    density = rng.uniform(0.15, 0.7)
    for i, src in enumerate(groups):
        for dst in groups[i + 1:]:
            if rng.random() < density:
                edges.append((rng.choice(src), rng.choice(dst)))
    g = _relabel(rng, [v for grp in groups for v in grp], edges)[0]
    if sink_free and any(not out for out in g.successors().values()):
        return None
    return g


def banded_component_graph(rng: random.Random, n: int, sets: tuple[int, int],
                           sink_free: bool = False) -> Graph:
    """A component graph on n vertices whose ideal lattice size lies in the
    band `sets`, redrawn until it does.  Fixing the size and banding the
    lattice keeps the work of a pass steady from seed to seed."""
    lo, hi = sets
    while True:
        # piece counts near the band's bit length reach it most often
        g = component_graph(rng, n, rng.randint(1, min(n, 2 * hi.bit_length())), sink_free)
        if g is not None and lo <= len(closed_sets_by_components(g)) <= hi:
            return g


def sink_free_graph(rng: random.Random, n: int, max_out: int = 3) -> Graph:
    """Random graph on n vertices, every vertex emitting 1..max_out edges
    with uniformly chosen ranges: the Smith-form workload."""
    names = [f"x{i}" for i in range(n)]
    edges = [(v, rng.choice(names)) for v in names for _ in range(rng.randint(1, max_out))]
    return _relabel(rng, names, edges)[0]


def regular_graph(rng: random.Random, n: int, degree: int) -> Graph:
    """Every vertex emits exactly `degree` edges with random ranges, so there
    are exactly n * degree**k paths of length k whatever the wiring: blow-up
    sizes depend only on (n, degree, m), while the structure follows the seed."""
    names = [f"r{i}" for i in range(n)]
    # the first edges form a permutation, so every vertex also receives an edge
    targets = names[:]
    rng.shuffle(targets)
    edges = list(zip(names, targets))
    edges += [(v, rng.choice(names)) for v in names for _ in range(degree - 1)]
    return _relabel(rng, names, edges)[0]


def acyclic_quotient_graph(rng: random.Random) -> tuple[Graph, frozenset[str], frozenset[str]]:
    """A Condition-(K) core fed by an acyclic feeder layer.  The ideal is the
    hereditary saturated closure of the core, so the quotient is acyclic;
    the window is a random nonempty vertex set."""
    core_n = rng.randint(1, 3)
    feed_n = rng.randint(1, 4)
    core = [f"k{i}" for i in range(core_n)]
    feed = [f"f{i}" for i in range(feed_n)]
    edges = [(core[i], core[(i + 1) % core_n]) for i in range(core_n)]
    edges.append((rng.choice(core), rng.choice(core)))
    for i, v in enumerate(feed):
        targets = core + feed[i + 1:]
        for _ in range(rng.randint(1, 2)):
            edges.append((v, rng.choice(targets)))
    g, name = _relabel(rng, core + feed, edges)
    ideal = {name[v] for v in core}
    succ = g.successors()
    grew = True
    while grew:
        grew = False
        for v in g.vertices:
            if v not in ideal and all(w in ideal for w in succ[v]):
                ideal.add(v)
                grew = True
    window = frozenset(v for v in g.vertices if rng.random() < 0.7) or frozenset(g.vertices)
    return g, frozenset(ideal), window


def path_specs(g: Graph, lo: int, hi: int) -> list[tuple[str, str, str]]:
    """Paths of length in [lo, hi) as (spec, source, range), where spec is a
    vertex id or dot-joined edge ids as the CLI takes them."""
    out = []
    layer = [(v, v, v, 0) for v in g.vertices]
    by_source: dict[str, list[tuple[str, str, str]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        by_source[e[1]].append(e)
    length = 0
    while length < hi and layer:
        if length >= lo:
            out.extend((spec, s, r) for spec, s, r, _ in layer)
        layer = [(eid if n == 0 else f"{spec}.{eid}", s, dst, n + 1)
                 for spec, s, r, n in layer for eid, _, dst in by_source[r]]
        length += 1
    return out
