"""Exact symbolic *-algebra spanned by words s_alpha s_beta*.

A formal sum maps words to rational coefficients.  Products collapse by
prefix comparison of the inner paths, adjoints swap the two legs, and
equality in the relation-quotient algebra is decided by the leveling rewrite:
expand every word, one edge at a time, until its left leg reaches a fixed
depth or ends at a sink.  Words may carry a matrix-unit index pair, which
multiplies like compact operators and otherwise rides along untouched.

A product s_a s_b* s_c s_d* vanishes unless the inner legs b and c share a
source and, for tensored words, the inner matrix-unit indices agree, so a
product of sums meets only the pairs of words with equal inner keys.  A
generating family is checked with a number of normal forms linear in |V| +
|E|: projections sum to a projection iff they are pairwise orthogonal.

Sums are immutable values and every operation is pure, so instances are safe
to share across threads.
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


def _word_product(a: Word, b: Word) -> Word | None:
    """Product of two words, both tensored or both untensored, or None when
    it vanishes."""
    unit = None
    if a.unit is not None:
        if a.unit[1] != b.unit[0]:
            return None
        unit = (a.unit[0], b.unit[1])
    rest = _path_extends(b.alpha, a.beta)
    if rest is not None:
        return Word(a.alpha * rest, b.beta, unit)
    rest = _path_extends(a.beta, b.alpha)
    if rest is not None:
        return Word(a.alpha, b.beta * rest, unit)
    return None


class FormalSum:
    """Finitely supported rational combination of words over one graph."""

    __slots__ = ("graph", "terms")

    def __init__(self, graph: DirectedGraph, terms: Mapping[Word, Fraction] | None = None):
        self.graph = graph
        self.terms: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = c if type(c) is Fraction else Fraction(c)
                if c:
                    self.terms[w] = c

    @staticmethod
    def of(graph: DirectedGraph, word: Word) -> "FormalSum":
        return FormalSum(graph, {word: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same(self, other: "FormalSum") -> None:
        if self.graph is not other.graph and self.graph != other.graph:
            raise ContractViolation("formal sums live over different graphs")

    def __add__(self, other: "FormalSum") -> "FormalSum":
        self._require_same(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return FormalSum(self.graph, out)

    def __neg__(self) -> "FormalSum":
        return FormalSum(self.graph, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __mul__(self, other: "FormalSum") -> "FormalSum":
        """Only words with equal inner keys have a nonzero product: the source
        of a's right leg with a's right matrix-unit index must equal the source
        of b's left leg with b's left index.  other's words are grouped under
        that key in their own order, so each coefficient is summed in the
        order of the full nested loop over pairs.  Tensored and untensored
        words never share a key, so a product mixing them is refused before
        any pair is matched."""
        self._require_same(other)
        if self.terms and other.terms and len(
                {w.unit is None for w in self.terms} | {w.unit is None for w in other.terms}) > 1:
            raise ContractViolation("cannot multiply tensored with untensored words")
        by_key: dict[tuple, list[tuple[Word, Fraction]]] = {}
        for wb, cb in other.terms.items():
            unit = wb.unit
            key = (wb.alpha.source, None if unit is None else unit[0])
            by_key.setdefault(key, []).append((wb, cb))
        out: dict[Word, Fraction] = {}
        for wa, ca in self.terms.items():
            unit = wa.unit
            for wb, cb in by_key.get((wa.beta.source, None if unit is None else unit[1]), ()):
                w = _word_product(wa, wb)
                if w is not None:
                    out[w] = out[w] + ca * cb if w in out else ca * cb
        return FormalSum(self.graph, out)

    def star(self) -> "FormalSum":
        return FormalSum(self.graph, {w.star(): c for w, c in self.terms.items()})

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


def _leveling_depth(longest: int, depth: int | None) -> int:
    """The depth to level a sum whose longest left leg has length `longest`
    at: `depth`, or `longest` when it is None.  A shallower depth is refused,
    since leveling never shortens a word."""
    if depth is None:
        return longest
    if depth < longest:
        raise ContractViolation(
            f"leveling depth {depth} is below the longest left leg {longest}")
    return depth


def normal_form(a: FormalSum, mode: AlgebraMode, depth: int | None = None) -> FormalSum:
    """Canonical form at the given depth.

    Toeplitz words are already independent, so that mode is the identity.  In
    Cuntz-Krieger mode every word whose left leg is shorter than `depth` and
    does not end at a sink is replaced by the sum of its one-edge extensions,
    recursively; two sums are equal in the quotient iff their canonical forms
    at a common depth coincide.
    """
    if mode is AlgebraMode.TOEPLITZ:
        return FormalSum(a.graph, a.terms)
    g = a.graph
    depth = _leveling_depth(max((len(w.alpha) for w in a.terms), default=0), depth)
    out: dict[Word, Fraction] = {}
    stack = list(a.terms.items())
    while stack:
        w, c = stack.pop()
        edges = g.out_edges(w.alpha.range) if len(w.alpha) < depth else ()
        if not edges:
            out[w] = out[w] + c if w in out else c
            continue
        for e in edges:
            stack.append((Word(w.alpha.extend(e), w.beta.extend(e), w.unit), c))
    return FormalSum(g, out)


def sums_equal(a: FormalSum, b: FormalSum, mode: AlgebraMode) -> bool:
    """Equality in the chosen algebra: whether a - b levels to zero at its
    longest left leg.  Any deeper level gives the same verdict: leveling a
    leveled sum one more step is injective (distinct words have disjoint
    nonempty sets of extensions), so NF_d(x) = 0 iff NF_d'(x) = 0 for any
    d >= d' >= that length."""
    return normal_form(a - b, mode).is_zero()


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
                      mode: AlgebraMode) -> FamilyCheck:
    """Check that the images q_v, t_e satisfy the generating relations of the
    graph g, in this order, and return the first that fails by name:

    - per vertex v: selfadjoint(v), q_v* = q_v; projection(v), q_v q_v = q_v;
      then orthogonality(v,w), q_v q_w = 0, for each later vertex w;
    - per edge e: CK1(e), t_e* t_e = q_r(e);
    - per vertex v, with r_e = t_e t_e* for its out-edges e: for each out-edge
      e, CK2-orthogonality(e,f), r_e r_f = 0, for each later out-edge f, and
      then CK2-domination(e), q_v r_e = r_e; then, in Cuntz-Krieger mode and
      when v emits an edge, CK2-sum(v), the sum of the r_e equals q_v.

    A fast pass decides the verdict with a number of checks linear in |V| +
    |E|, by a lemma that holds in any C*-algebra: projections p_1..p_n sum to
    a projection iff they are pairwise orthogonal, and then a projection q
    dominates each p_i iff q (p_1 + ... + p_n) = p_1 + ... + p_n.  The symbolic
    algebra is such an algebra's dense *-subalgebra (words are independent in
    the Toeplitz algebra, and leveling decides equality in the quotient), so
    these checks hold iff all of the above do:

    - each q_v selfadjoint and a projection, then the sum of the q_v a
      projection;
    - CK1(e) for each edge, which makes each r_e a projection;
    - at each vertex v that emits edges: in Cuntz-Krieger mode CK2-sum(v)
      alone, since the projection q_v is then the sum of the r_e; in Toeplitz
      mode, that the sum of the r_e is a projection dominated by q_v.

    Only when the fast pass fails does the ordered scan run, to name the
    first failing relation.
    """
    for v in g.vertices:
        if v not in vertex_images:
            raise ContractViolation(f"no image given for vertex {v.id}")
    for e in g.edges:
        if e not in edge_images:
            raise ContractViolation(f"no image given for edge {e.id}")

    def holds(x: FormalSum, y: FormalSum | None) -> bool:  # x = y, or x = 0 when y is None
        return normal_form(x if y is None else x - y, mode).is_zero()

    def range_projections(v: Vertex) -> list[FormalSum]:
        return [edge_images[e] * edge_images[e].star() for e in g.out_edges(v)]

    def fast_checks():  # (x, y) pairs as in relations(), whose equalities imply them all
        qs = [vertex_images[v] for v in g.vertices]
        for q in qs:
            yield q.star(), q
            yield q * q, q
        if qs:
            total = sum(qs[1:], qs[0])
            yield total * total, total
        for e in g.edges:
            te = edge_images[e]
            yield te.star() * te, vertex_images[e.range]
        for v in g.vertices:
            ranges = range_projections(v)
            if not ranges:
                continue
            total = sum(ranges[1:], ranges[0])
            if mode is AlgebraMode.CUNTZ_KRIEGER:
                yield total, vertex_images[v]
            else:
                yield total * total, total
                yield vertex_images[v] * total, total

    def relations():  # (name, x, y): x = y, or x = 0 when y is None
        for i, v in enumerate(g.vertices):
            qv = vertex_images[v]
            yield f"selfadjoint({v.id})", qv.star(), qv
            yield f"projection({v.id})", qv * qv, qv
            for w in g.vertices[i + 1:]:
                yield f"orthogonality({v.id},{w.id})", qv * vertex_images[w], None
        for e in g.edges:
            te = edge_images[e]
            yield f"CK1({e.id})", te.star() * te, vertex_images[e.range]
        for v in g.vertices:
            out = g.out_edges(v)
            ranges = range_projections(v)
            for i, e in enumerate(out):
                for j in range(i + 1, len(out)):
                    yield f"CK2-orthogonality({e.id},{out[j].id})", ranges[i] * ranges[j], None
                yield f"CK2-domination({e.id})", vertex_images[v] * ranges[i], ranges[i]
            if mode is AlgebraMode.CUNTZ_KRIEGER and out:
                yield f"CK2-sum({v.id})", sum(ranges[1:], ranges[0]), vertex_images[v]

    if all(holds(x, y) for x, y in fast_checks()):
        return FamilyCheck(True)
    for name, x, y in relations():
        if not holds(x, y):
            return FamilyCheck(False, name)
    return FamilyCheck(True)


def iota_image(bg: BlowupGraph, gen: Vertex | Edge) -> FormalSum:
    """Image of a base-graph generator under the inclusion into the blow-up:
    the image of the path of length 0 or 1 that the generator is."""
    return iota_path_image(bg, Path.at(gen) if isinstance(gen, Vertex) else Path((gen,)))


def iota_path_image(bg: BlowupGraph, mu: Path) -> FormalSum:
    """Image of s_mu under the inclusion: the image of the word s_mu p_r(mu)."""
    return iota_word_image(bg, mu, Path.at(mu.range))


def iota_word_image(bg: BlowupGraph, mu: Path, nu: Path) -> FormalSum:
    """Image of s_mu s_nu* under the inclusion: the sum of s_a s_b* over the
    blow-up vertices p whose paths leave r(mu), with a and b the walks into p
    that carry mu and nu (`BlowupGraph.walk_into`).

    The product of the edge images of mu keeps exactly the composable chains
    of blow-up edges, one walk per end vertex p; and s_a p times p' s_b*
    vanishes unless p = p'.
    """
    ends = bg.tree.from_vertex.get(mu.range)
    if ends is None:
        raise ContractViolation(f"{mu.id} is not a path of the base graph")
    ps = [bg.graph.vertices[i] for i in ends]
    return FormalSum(bg.graph, {Word(bg.walk_into(mu, p), bg.walk_into(nu, p)): 1 for p in ps})


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
            terms[Word(at, at)] = 1
    # paths with every source in the window outside the set whose last edge
    # enters the set; the acyclic quotient bounds their length
    frontier: list[Path] = [Path.at(v) for v in g.vertices if v in xs and v not in hs]
    while frontier:
        p = frontier.pop()
        for e in g.out_edges(p.range):
            q = p.extend(e)
            if e.range in hs:
                terms[Word(q, q)] = 1
            elif e.range in xs:
                frontier.append(q)
    return FormalSum(g, terms)


def commutator_is_zero(e: FormalSum, w: Word | FormalSum) -> bool:
    """Whether e commutes with w in the relation-quotient algebra."""
    ws = w if isinstance(w, FormalSum) else FormalSum.of(e.graph, w)
    return sums_equal(e * ws, ws * e, AlgebraMode.CUNTZ_KRIEGER)
