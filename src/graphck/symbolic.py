"""Exact symbolic *-algebra spanned by words s_alpha s_beta*.

A formal sum maps words to rational coefficients.  Products collapse by
prefix comparison of the inner paths, adjoints swap the two legs, and
equality in the relation-quotient algebra is decided by the leveling rewrite:
expand every word until its left leg reaches a fixed depth or ends at a sink.
Words may carry a matrix-unit index pair, which multiplies like compact
operators and otherwise rides along untouched.  Sums are immutable values and
every operation is pure, so instances are safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .construct import BlowupGraph
from .errors import ContractViolation
from .graphs import (DirectedGraph, Edge, Path, Vertex, _as_vertex_set,
                     cycle_vertices, is_hereditary, is_saturated, sinks)


class AlgebraMode(enum.Enum):
    TOEPLITZ = "toeplitz"
    CUNTZ_KRIEGER = "ck"


@dataclass(frozen=True)
class Word:
    """s_alpha s_beta*, optionally tensored with a matrix unit theta_{mu,nu}."""

    alpha: Path
    beta: Path
    unit: tuple[Path, Path] | None = None

    def __post_init__(self):
        if self.alpha.range != self.beta.range:
            raise ContractViolation(
                f"word legs must share their range: {self.alpha.id} vs {self.beta.id}")

    def star(self) -> "Word":
        u = (self.unit[1], self.unit[0]) if self.unit else None
        return Word(self.beta, self.alpha, u)

    @property
    def degree(self) -> int:
        return len(self.alpha) - len(self.beta)

    def __repr__(self) -> str:
        body = f"s[{self.alpha.id}]s*[{self.beta.id}]"
        if self.unit:
            body += f"(x)th[{self.unit[0].id},{self.unit[1].id}]"
        return body


def _path_extends(long: Path, short: Path) -> Path | None:
    """If long = short * rest, return rest, else None."""
    k = len(short)
    if len(long) < k or long.edges[:k] != short.edges[:k]:
        return None
    # matching edge prefixes force matching sources except in the empty case
    if k == 0 and long.source != short.source:
        return None
    return long.suffix_from(k)


def _word_product(a: Word, b: Word) -> tuple[Word, bool] | None:
    """Product of two words, or None when it vanishes."""
    if (a.unit is None) != (b.unit is None):
        raise ContractViolation("cannot multiply tensored with untensored words")
    unit = None
    if a.unit is not None:
        if a.unit[1] != b.unit[0]:
            return None
        unit = (a.unit[0], b.unit[1])
    rest = _path_extends(b.alpha, a.beta)
    if rest is not None:
        return Word(a.alpha * rest, b.beta, unit), True
    rest = _path_extends(a.beta, b.alpha)
    if rest is not None:
        return Word(a.alpha, b.beta * rest, unit), True
    return None


class FormalSum:
    """Finitely supported rational combination of words over one graph."""

    __slots__ = ("graph", "terms")

    def __init__(self, graph: DirectedGraph, terms: Mapping[Word, Fraction] | None = None):
        self.graph = graph
        self.terms: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[w] = c

    @staticmethod
    def zero(graph: DirectedGraph) -> "FormalSum":
        return FormalSum(graph)

    @staticmethod
    def of(graph: DirectedGraph, word: Word, coeff=1) -> "FormalSum":
        return FormalSum(graph, {word: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same(self, other: "FormalSum") -> None:
        if self.graph is not other.graph and self.graph != other.graph:
            raise ContractViolation("formal sums live over different graphs")

    def __add__(self, other: "FormalSum") -> "FormalSum":
        self._require_same(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, Fraction(0)) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return FormalSum(self.graph, out)

    def __neg__(self) -> "FormalSum":
        return FormalSum(self.graph, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def scale(self, c) -> "FormalSum":
        c = Fraction(c)
        return FormalSum(self.graph, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other: "FormalSum") -> "FormalSum":
        self._require_same(other)
        out: dict[Word, Fraction] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                prod = _word_product(wa, wb)
                if prod is None:
                    continue
                w, _ = prod
                s = out.get(w, Fraction(0)) + ca * cb
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return FormalSum(self.graph, out)

    def star(self) -> "FormalSum":
        return FormalSum(self.graph, {w.star(): c for w, c in self.terms.items()})

    def max_abs_coefficient(self) -> Fraction:
        return max((abs(c) for c in self.terms.values()), default=Fraction(0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormalSum) and self.graph == other.graph
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "FormalSum(0)"
        bits = [f"{c}*{w}" for w, c in sorted(self.terms.items(), key=lambda t: repr(t[0]))]
        return "FormalSum(" + " + ".join(bits) + ")"


def vertex_projection(g: DirectedGraph, v: Vertex) -> FormalSum:
    """The generator p_v as a formal sum."""
    return FormalSum.of(g, Word(Path.at(v), Path.at(v)))


def edge_isometry(g: DirectedGraph, e: Edge) -> FormalSum:
    """The generator s_e as a formal sum."""
    return FormalSum.of(g, Word(Path((e,)), Path.at(e.range)))


def normal_form(a: FormalSum, mode: AlgebraMode, depth: int | None = None) -> FormalSum:
    """Canonical form at the given depth.

    Toeplitz words are already independent, so that mode is the identity.  In
    Cuntz-Krieger mode every word whose left leg is shorter than `depth` and
    does not end at a sink is replaced by the sum of its one-edge extensions,
    recursively; two sums are equal in the quotient iff their canonical forms
    at a common depth coincide.
    """
    if mode is AlgebraMode.TOEPLITZ:
        return FormalSum(a.graph, dict(a.terms))
    g = a.graph
    if depth is None:
        depth = max((len(w.alpha) for w in a.terms), default=0)
    else:
        too_long = max((len(w.alpha) for w in a.terms), default=0)
        if depth < too_long:
            raise ContractViolation(
                f"leveling depth {depth} is below the longest left leg {too_long}")
    out: dict[Word, Fraction] = {}
    stack = list(a.terms.items())
    while stack:
        w, c = stack.pop()
        if len(w.alpha) >= depth or not g.out_edges(w.alpha.range):
            s = out.get(w, Fraction(0)) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
            continue
        for e in g.out_edges(w.alpha.range):
            ext = Path((e,))
            stack.append((Word(w.alpha * ext, w.beta * ext, w.unit), c))
    return FormalSum(g, out)


def sums_equal(a: FormalSum, b: FormalSum, mode: AlgebraMode, depth: int | None = None) -> bool:
    """Equality in the chosen algebra, by canonical forms at a common depth."""
    if depth is None:
        depth = max((len(w.alpha) for s in (a, b) for w in s.terms), default=0)
    return normal_form(a - b, mode, depth).is_zero()


@dataclass
class FamilyCheck:
    """Outcome of a generating-family verification."""

    ok: bool
    failed_relation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_tck_family(g: DirectedGraph,
                      vertex_images: Mapping[Vertex, FormalSum],
                      edge_images: Mapping[Edge, FormalSum],
                      mode: AlgebraMode,
                      depth: int | None = None) -> FamilyCheck:
    """Check that the images satisfy the generating relations of the graph g.

    Verified: vertex images are mutually orthogonal projections; each edge
    image satisfies t*t = q at its range; the range projections tt* at a
    common source are mutually orthogonal and dominated by the vertex image;
    in Cuntz-Krieger mode they must sum to the vertex image at non-sinks.
    Returns the first failing relation by name.
    """
    for v in g.vertices:
        if v not in vertex_images:
            raise ContractViolation(f"no image given for vertex {v.id}")
    for e in g.edges:
        if e not in edge_images:
            raise ContractViolation(f"no image given for edge {e.id}")

    def eq(x: FormalSum, y: FormalSum) -> bool:
        return sums_equal(x, y, mode, depth)

    verts = list(g.vertices)
    for i, v in enumerate(verts):
        qv = vertex_images[v]
        if not eq(qv.star(), qv):
            return FamilyCheck(False, f"selfadjoint({v.id})")
        if not eq(qv * qv, qv):
            return FamilyCheck(False, f"projection({v.id})")
        for w in verts[i + 1:]:
            if not eq(qv * vertex_images[w], FormalSum.zero(qv.graph)):
                return FamilyCheck(False, f"orthogonality({v.id},{w.id})")
    for e in g.edges:
        te = edge_images[e]
        if not eq(te.star() * te, vertex_images[e.range]):
            return FamilyCheck(False, f"CK1({e.id})")
    for v in g.vertices:
        out = g.out_edges(v)
        ranges = [edge_images[e] * edge_images[e].star() for e in out]
        for i, e in enumerate(out):
            for j in range(i + 1, len(out)):
                if not eq(ranges[i] * ranges[j], FormalSum.zero(ranges[i].graph)):
                    return FamilyCheck(False, f"CK2-orthogonality({e.id},{out[j].id})")
            if not eq(vertex_images[v] * ranges[i], ranges[i]):
                return FamilyCheck(False, f"CK2-domination({e.id})")
        if mode is AlgebraMode.CUNTZ_KRIEGER and out:
            total = ranges[0]
            for r in ranges[1:]:
                total = total + r
            if not eq(total, vertex_images[v]):
                return FamilyCheck(False, f"CK2-sum({v.id})")
    return FamilyCheck(True)


def iota_image(bg: BlowupGraph, gen: Vertex | Edge) -> FormalSum:
    """Image of a base-graph generator under the inclusion into the blow-up.

    A vertex goes to the sum of the blow-up vertex projections over the paths
    leaving it; an edge goes to the sum of all blow-up edge generators built
    from it.
    """
    g = bg.graph
    terms: dict[Word, Fraction] = {}
    if isinstance(gen, Vertex):
        ats = [Path.at(g.vertices[i]) for i in bg.tree.from_vertex.get(gen, ())]
        return FormalSum(g, {Word(at, at): Fraction(1) for at in ats})
    for em in g.edges:
        base_edge, _ = bg.pair_of_edge(em)
        if base_edge == gen:
            terms[Word(Path((em,)), Path.at(em.range))] = Fraction(1)
    return FormalSum(g, terms)


def iota_path_image(bg: BlowupGraph, mu: Path) -> FormalSum:
    """Image of s_mu under the inclusion, as a product of edge images."""
    total = iota_image(bg, mu.source) if not mu.edges else None
    for e in mu.edges:
        factor = iota_image(bg, e)
        total = factor if total is None else total * factor
    return total


def jm_image(bg: BlowupGraph, gen: Vertex | Edge) -> FormalSum:
    """Image of a blow-up generator inside the base algebra tensored with
    matrix units indexed by short paths.

    Defined only over sink-free base graphs; the relation sum at a base
    vertex needs every vertex to emit an edge.
    """
    base = bg.base
    bad = sinks(base)
    if bad:
        raise ContractViolation(
            f"base graph has a sink ({bad[0].id}); the reinclusion needs a sink-free graph")
    m = bg.m
    if isinstance(gen, Vertex):
        mu = bg.path_of_vertex(gen)
        w = Path.at(mu.range)
        return FormalSum.of(base, Word(w, w, (mu, mu)))
    e, mu = bg.pair_of_edge(gen)
    emu = Path((e,)) * mu
    if len(mu) == m - 1:
        return FormalSum.of(
            base, Word(emu, Path.at(emu.range), (Path.at(e.source), mu)))
    w = Path.at(mu.range)
    return FormalSum.of(base, Word(w, w, (emu, mu)))


def gabe_approximate_identity(g: DirectedGraph, h: Iterable[Vertex],
                              x: Iterable[Vertex]) -> FormalSum:
    """Finite-window projection built from vertex projections inside the set
    and range projections of the paths that enter it from the window.

    Requires h hereditary and saturated with acyclic quotient: a cycle meeting
    h lies inside it, so every cycle must.  That keeps the path family finite.
    """
    hs = frozenset(h)
    xs = frozenset(x)
    if not (is_hereditary(g, hs) and is_saturated(g, hs)):
        raise ContractViolation("the ideal set must be hereditary and saturated")
    if not cycle_vertices(g) <= _as_vertex_set(g, hs):
        raise ContractViolation("the quotient graph must be acyclic")
    terms: dict[Word, Fraction] = {}
    for v in g.vertices:
        if v in hs and v in xs:
            at = Path.at(v)
            terms[Word(at, at)] = Fraction(1)
    # paths with every source in the window outside the set whose last edge
    # enters the set; the acyclic quotient bounds their length
    frontier: list[Path] = [Path.at(v) for v in g.vertices if v in xs and v not in hs]
    while frontier:
        p = frontier.pop()
        for e in g.out_edges(p.range):
            q = p * Path((e,))
            if e.range in hs:
                terms[Word(q, q)] = Fraction(1)
            elif e.range in xs:
                frontier.append(q)
    return FormalSum(g, terms)


def commutator_is_zero(e: FormalSum, w: Word | FormalSum,
                       depth: int | None = None) -> bool:
    """Whether e commutes with w in the relation-quotient algebra."""
    ws = w if isinstance(w, FormalSum) else FormalSum.of(e.graph, w)
    return sums_equal(e * ws, ws * e, AlgebraMode.CUNTZ_KRIEGER, depth)
