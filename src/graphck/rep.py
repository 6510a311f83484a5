"""Truncated path-space representation and the compression-map machinery.

Generators act on the span of paths of length <= N.  Truncation only corrupts
creation: appending an edge to a top-shell path gives zero instead of a longer
path, while co-isometries and diagonal projections are exact everywhere.
Every operator therefore carries a bound on its creation factors, and exact
identities are asserted on the columns indexed by paths of length
<= N - creations, where nothing has been lost.  The basis is sorted by
length, so that exact region is a prefix of basis indices.

The 0/1 operators -- generators, T_mu, words T_alpha T_beta*, path
projections, matrix units and window projections -- are partial injections
of basis paths, held as `Injection`s: an index map (column -> row) read off
the basis path tree, T_mu: i(p) -> i(mu p), never by a matrix product.
Their products compose the maps.  Weighted operators -- evaluated formal
sums, band compressions, and sums and differences of operators -- are
`RatMatrix`es with rational entries.  A built representation is immutable
and all operations are pure, so independent scans parallelize.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .construct import BlowupGraph, embed_path
from .errors import ContractViolation, ResourceLimit
from .graphs import DirectedGraph, Edge, Path, PathTree, Vertex, _out_ranges, sinks
from .sparse import Injection, RatMatrix
from .symbolic import FormalSum, Word, _leveling_depth

DEFAULT_MAX_BASIS = 200_000


@dataclass
class RepOperator:
    """A matrix plus creation bounds governing its exact region.

    `matrix` is an `Injection` for a 0/1 operator and a `RatMatrix` for a
    weighted one; products, sums and adjoints accept either.  `creations`
    bounds how far the operator can lengthen a basis path, which is exactly
    what truncation corrupts; `star_creations` is the same bound for the
    adjoint, so taking adjoints keeps the bookkeeping sound.  An operator
    with bound k is exact on columns of length <= cutoff - k.
    """

    matrix: RatMatrix | Injection
    creations: int
    star_creations: int | None = None

    def __post_init__(self):
        if self.star_creations is None:
            self.star_creations = self.creations

    def __mul__(self, other: "RepOperator") -> "RepOperator":
        return RepOperator(self.matrix * other.matrix,
                           self.creations + other.creations,
                           self.star_creations + other.star_creations)

    def __add__(self, other: "RepOperator") -> "RepOperator":
        return RepOperator(self.matrix + other.matrix,
                           max(self.creations, other.creations),
                           max(self.star_creations, other.star_creations))

    def __sub__(self, other: "RepOperator") -> "RepOperator":
        return RepOperator(self.matrix - other.matrix,
                           max(self.creations, other.creations),
                           max(self.star_creations, other.star_creations))

    def star(self) -> "RepOperator":
        return RepOperator(self.matrix.star(), self.star_creations, self.creations)


def _basis_bound() -> int:
    """The basis-size bound: GRAPHCK_MAX_BASIS when set, else the default."""
    env = os.environ.get("GRAPHCK_MAX_BASIS")
    if not env:
        return DEFAULT_MAX_BASIS
    try:
        return int(env)
    except ValueError:
        raise ContractViolation(
            f"GRAPHCK_MAX_BASIS must be an integer, got {env!r}") from None


def _word_map(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """T_alpha T_beta*, i(beta tau) -> i(alpha tau), from the maps a, b of T_alpha, T_beta."""
    return {b[c]: r for c, r in a.items() if c in b}


class _BasisIndex(Mapping):
    """Read-only view path -> basis index, answered by the tree's `find`;
    iterates the basis in order."""

    __slots__ = ("_tree",)

    def __init__(self, tree: PathTree):
        self._tree = tree

    def __getitem__(self, p: Path) -> int:
        i = self._tree.find(p) if isinstance(p, Path) else None
        if i is None:
            raise KeyError(p)
        return i

    def __iter__(self):
        return iter(self._tree.paths)

    def __len__(self) -> int:
        return len(self._tree)


class TruncatedRep:
    """Concrete generators on the span of paths of length at most N.

    The basis is a `PathTree` grown to length N, so it is sorted by length:
    `offsets[L]` is the index of the first path of length L (`offsets[cutoff + 1]`
    is the dimension).  T_mu maps column i(tau) to row i(mu tau), which the
    tree's `prefix_map` gives by index arithmetic alone, so no operator needs
    a basis `Path`: `basis` and `index` are views that build them on demand.
    """

    def __init__(self, graph: DirectedGraph, cutoff: int):
        if cutoff < 1:
            raise ContractViolation("cutoff must be positive")
        bound = _basis_bound()
        self.graph = graph
        self.cutoff = cutoff
        tree = self.tree = PathTree(graph)
        for length in range(cutoff + 1):
            if length:
                tree.grow()
            if len(tree) > bound:
                raise ResourceLimit(
                    f"truncated basis has {len(tree)} paths of length <= {length}, over "
                    f"the bound {bound}; lower the cutoff or raise GRAPHCK_MAX_BASIS")
        self.offsets: list[int] = tree.offsets
        self.dimension = len(tree)
        self.index: Mapping[Path, int] = _BasisIndex(tree)

    @property
    def basis(self) -> list[Path]:
        return self.tree.paths

    def t(self, e: Edge) -> RepOperator:
        return self.t_path(Path((e,)))

    def q(self, v: Vertex) -> RepOperator:
        return self.t_path(Path.at(v))

    def t_path(self, mu: Path) -> RepOperator:
        """T_mu: column xi_tau -> row xi_{mu tau}."""
        return RepOperator(Injection(self.dimension, self.tree.prefix_map(mu)), len(mu), 0)

    def word_operator(self, alpha: Path, beta: Path) -> RepOperator:
        """T_alpha T_beta*, with the tight length-shift creation bounds."""
        word = _word_map(self.tree.prefix_map(alpha), self.tree.prefix_map(beta))
        return RepOperator(Injection(self.dimension, word),
                           max(0, len(alpha) - len(beta)), max(0, len(beta) - len(alpha)))

    def exact_columns(self, creations: int) -> range:
        """Basis indices on which operators with this creation bound are exact:
        the paths of length <= cutoff - creations."""
        return range(self.offsets[max(0, self.cutoff - creations + 1)])

    def equal_on_exact_region(self, a: RepOperator, b: RepOperator) -> bool:
        k = max(a.creations, b.creations)
        cols = self.exact_columns(k)
        if not cols:
            raise ContractViolation(
                f"exact region is empty at creation bound {k} (cutoff {self.cutoff})")
        return a.matrix.equal_on_columns(b.matrix, cols)

    def evaluate(self, s: FormalSum) -> RepOperator:
        """Matrix of a formal sum; words must be untensored."""
        if s.graph != self.graph:
            raise ContractViolation("formal sum lives over a different graph")
        total = RatMatrix(self.dimension, self.dimension)
        rows = total.rows
        met: set[int] = set()  # rows written by two terms; no other row can cancel
        creations = 0
        star_creations = 0
        leg = functools.cache(self.tree.prefix_map)  # terms share their legs
        for w, c in s.terms.items():
            if w.unit is not None:
                raise ContractViolation("tensored words have no truncated-representation matrix")
            for col, row in _word_map(leg(w.alpha), leg(w.beta)).items():
                dst = rows.get(row)
                if dst is None:
                    rows[row] = {col: c}
                else:
                    met.add(row)
                    dst[col] = dst[col] + c if col in dst else c
            creations = max(creations, len(w.alpha) - len(w.beta))
            star_creations = max(star_creations, len(w.beta) - len(w.alpha))
        for i in met:
            row = rows[i]
            for j in [j for j, v in row.items() if not v]:
                del row[j]
            if not row:
                del rows[i]
        return RepOperator(total, creations, star_creations)


def build_rep(g: DirectedGraph, cutoff: int) -> TruncatedRep:
    return TruncatedRep(g, cutoff)


def _unit(rep: TruncatedRep, mu: Path, nu: Path) -> Injection:
    """e_{mu,nu}, or zero when a leg is not a basis path."""
    i, j = rep.tree.find(mu), rep.tree.find(nu)
    return Injection(rep.dimension, {} if i is None or j is None else {j: i})


def path_projection(rep: TruncatedRep, mu: Path) -> RepOperator:
    """Range projection of mu minus its one-edge extensions, which is exactly
    the rank-one projection e_{mu,mu}: the two prefix projections agree off
    the basis vector of mu, so no truncation error survives anywhere."""
    if len(mu) + 1 > rep.cutoff:
        raise ContractViolation(
            f"path projection needs |mu|+1 <= cutoff, got |mu|={len(mu)}, cutoff={rep.cutoff}")
    return RepOperator(_unit(rep, mu, mu), 0, 0)


def matrix_unit(rep: TruncatedRep, mu: Path, nu: Path) -> RepOperator:
    """T_mu Delta_{r(mu)} T_nu*, the (mu, nu) matrix unit e_{mu,nu}; zero when
    a leg is longer than the cutoff.  Exact everywhere: the only column it
    does not kill is the basis vector of nu."""
    if mu.range != nu.range:
        raise ContractViolation(
            f"matrix unit needs matching ranges: {mu.id} vs {nu.id}")
    return RepOperator(_unit(rep, mu, nu), max(0, len(mu) - len(nu)),
                       max(0, len(nu) - len(mu)))


def window_projection(rep: TruncatedRep, m: int) -> RepOperator:
    """Sum of the path projections over all paths of length < m: the
    identity on the basis prefix of those paths."""
    if not 0 <= m <= rep.cutoff:
        raise ContractViolation(f"need 0 <= m <= cutoff, got m={m}, cutoff={rep.cutoff}")
    return RepOperator(Injection(rep.dimension, {i: i for i in range(rep.offsets[m])}), 0, 0)


@dataclass(frozen=True)
class KappaMatrix:
    """Symmetric averaging-weight matrix; entries min(i,j,m+1-i,m+1-j)/(L+1)."""

    m: int
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def half(self) -> int:
        return ceil(self.m / 2)

    def entry(self, i: int, j: int) -> Fraction:
        """1-based access, zero outside {1..m}^2."""
        if 1 <= i <= self.m and 1 <= j <= self.m:
            return self.entries[i - 1][j - 1]
        return Fraction(0)

    def entry0(self, a: int, b: int) -> Fraction:
        """0-based access: the windowed formulas feed arguments in {0..m-1}."""
        return self.entry(a + 1, b + 1)


def kappa_matrix(m: int) -> KappaMatrix:
    if m < 1:
        raise ContractViolation("m must be positive")
    half = ceil(m / 2)
    rows = tuple(
        tuple(Fraction(min(i, j, m + 1 - i, m + 1 - j), half + 1) for j in range(1, m + 1))
        for i in range(1, m + 1))
    return KappaMatrix(m, rows)


def _window_weights(kappa: KappaMatrix, shift: int, a: int, b: int) -> dict[int, Fraction]:
    """The weight of each extension length t, ascending, for which legs of
    lengths a and b, both extended by t, land in [shift, shift+m)."""
    t_lo = max(0, shift - min(a, b))
    t_hi = max(t_lo, shift + kappa.m - max(a, b))
    return {t: kappa.entry0(a + t - shift, b + t - shift) for t in range(t_lo, t_hi)}


def _windowed_sum(rep: TruncatedRep, m: int, shift: int, mu: Path, nu: Path) -> RepOperator:
    """Sum of weighted matrix units over shared extensions whose lengths land
    in [shift, shift+m) on both legs, which share their range."""
    a, b = len(mu), len(nu)
    # the longest extended leg has length shift+m-1 and its projection needs one more
    if shift + m > rep.cutoff:
        raise ContractViolation(
            f"cutoff {rep.cutoff} too small for window [{shift},{shift + m})")
    weights = _window_weights(kappa_matrix(m), shift, a, b)
    # e_{mu tau, nu tau} for each extension tau: the word map T_mu T_nu*
    # restricted to the columns nu tau whose length |tau| has a weight
    mu_map = rep.tree.prefix_map(mu)
    nu_map = rep.tree.prefix_map(nu)
    total = RatMatrix(rep.dimension, rep.dimension)
    for tau, row in mu_map.items():
        c = weights.get(rep.tree.length(tau))
        if c and tau in nu_map:
            total.rows[row] = {nu_map[tau]: c}
    return RepOperator(total, max(0, a - b), max(0, b - a))


def band_compression(rep: TruncatedRep, m: int, w: Word) -> RepOperator:
    """First compression map on a word: weighted matrix units with both legs
    extended into the window [m, 2m)."""
    return _windowed_sum(rep, m, m, w.alpha, w.beta)


def shifted_band_compression(rep: TruncatedRep, m: int, w: Word) -> RepOperator:
    """Second compression map, window shifted by half: [m+l, 2m+l)."""
    return _windowed_sum(rep, m, m + ceil(m / 2), w.alpha, w.beta)


def _schur_by_length(rep: TruncatedRep, mat: RatMatrix, m: int, shift: int) -> RatMatrix:
    kappa = kappa_matrix(m)
    length = rep.tree.length
    out = RatMatrix(rep.dimension, rep.dimension)
    for i, row in mat.rows.items():
        li = length(i)
        for j, v in row.items():
            c = kappa.entry0(li - shift, length(j) - shift)
            if c:
                out.rows.setdefault(i, {})[j] = c * v
    return out


def compression_route(rep: TruncatedRep, m: int, w: Word, shift: int) -> RepOperator:
    """The same compression computed as M * (Phi_big - Phi_small) a (...),
    where the Schur weights depend only on the path lengths."""
    lo = window_projection(rep, shift)
    hi = window_projection(rep, shift + m)
    band = hi - lo
    a = rep.word_operator(w.alpha, w.beta)
    mid = band * a * band
    return RepOperator(_schur_by_length(rep, mid.matrix, m, shift), mid.creations,
                       mid.star_creations)


@dataclass(frozen=True)
class KCoefficients:
    """Per-length coefficient sums of the two windowed compressions."""

    m: int
    a: int
    b: int
    values: tuple[Fraction, ...]

    @property
    def max_defect(self) -> Fraction:
        return max(abs(1 - v) for v in self.values)


def k_coefficients(m: int, a: int, b: int) -> KCoefficients:
    """Exact values K_{m,i}, i = 0..m-1, for legs of lengths a and b.

    Each K is the sum of (at most) two weight-matrix entries: the unique
    in-window representative of a+i modulo m, and the one in the window
    shifted by ceil(m/2), as in shifted_band_compression; out-of-range
    partners contribute zero.
    """
    if m < 1:
        raise ContractViolation("m must be positive")
    if abs(a - b) >= m:
        raise ContractViolation("leg length gap must be smaller than m")
    kappa = kappa_matrix(m)
    vals = []
    for i in range(m):
        r1 = (a + i) % m
        c1 = kappa.entry0(r1, r1 - a + b)
        r2 = (a + i - m - ceil(m / 2)) % m
        c2 = kappa.entry0(r2, r2 - a + b)
        vals.append(c1 + c2)
    return KCoefficients(m, a, b, tuple(vals))


@dataclass
class ApproximationGap:
    """Size of the canonical form of (compressed image) - (inclusion image)
    of a word: its number of terms and its largest absolute coefficient."""

    difference_terms: int
    max_coefficient: Fraction
    coefficients: KCoefficients


def _leaf_counts(succ: list[list[int]], ks: set[int]) -> dict[int, list[int]]:
    """L(v, k) by vertex index v for each k in ks, on succ = `_out_ranges(g)`:
    the number of words that leveling k edges further makes of a word whose
    left leg ends at v.  L(v, k) is 1 when k = 0 or v is a sink, and otherwise
    the sum of L(r(e), k - 1) over the out-edges e of v; each layer is built
    once, from the one before."""
    layer = [1] * len(succ)
    out = {}
    for k in range(max(ks) + 1):
        if k:
            layer = [sum([layer[w] for w in ws]) if ws else 1 for ws in succ]
        if k in ks:
            out[k] = layer
    return out


def approximation_gap(bg: BlowupGraph, mu: Path, nu: Path,
                      depth: int | None = None) -> ApproximationGap:
    """Gap between the two windowed compressions of s_mu s_nu* (pushed into
    the blow-up algebra) and the inclusion image, leveled in Cuntz-Krieger
    mode at `depth` (by default the longest left leg of the gap): the number
    of its terms and its largest absolute coefficient, counted without
    listing the terms.  The coefficients that survive are exactly
    1 - K_{m,i}, so the largest reports the approximation quality of the
    compression pair.

    The count rests on a lemma about leveling.  A word's trunk is what is
    left after stripping the longest common suffix of its two legs (a
    tensored word keeps its matrix unit).  Leveling extends both legs by the
    same edge, so it sends a word only to words with the same trunk, and
    distinct trunks have disjoint sets of extensions: the normal form splits
    by trunk.  The words with trunk (alpha, beta) are (alpha lam, beta lam)
    for the paths lam from r(alpha).  A leaf lam is a path of the remaining
    depth, or a shorter path that ends at a sink, and its coefficient is the
    sum of the coefficients on the prefixes of lam that are in the support.
    So one walk over each trunk's trie gives both numbers, with the leaves
    below a node counted by L(v, k) (`_leaf_counts`).

    The tries come from the blow-up walks, not from words.  The sum is
    w(|tau|) s_{mu tau} s_{nu tau}* over the extensions tau of r(mu), with
    w(t) the two windows' weights of length t, minus the inclusion image.
    The embeddings of mu tau and nu tau end at one vertex and share their
    last |tau| edges, the walk of tau, which starts at the blow-up vertex
    X = [tau]_m (`BlowupGraph.walk_into`).  So the term of tau is
    (A_X P, B_X P), with A_X and B_X the walks of mu and nu into X and P the
    walk of tau, and the inclusion image is the term of the empty tau at
    each X, with coefficient -1.  The terms at X lie in the trunk of
    (A_X, B_X), below its common suffix, which ends at X; terms at distinct
    X differ in the vertex |mu| edges into the left leg.  So the trie splits
    into one subtrie at each X.  A walk from X whose length t is congruent
    to |X| mod m ends at a vertex of length 0 and is the walk of the tau it
    carries, so the support below X fills the levels of those t with
    w(t) != 0, and each leaf below X has the coefficient -1 + the sum of
    those w(t).  The walk goes down from X to the last such level and counts
    the leaves below it there.  The base graph has no sink, so neither has
    the blow-up: every leaf has the full depth.

    m > |mu|, |nu| puts every weighted t past 0, so no term cancels the
    inclusion image, and the longest left leg is |mu| plus the largest t.
    """
    g = bg.base
    m = bg.m
    bad = sinks(g)
    if bad:
        raise ContractViolation(f"base graph has a sink ({bad[0].id})")
    a, b = len(mu), len(nu)
    if not (m > a and m > b):
        raise ContractViolation("need m greater than both leg lengths")
    if mu.range != nu.range:
        raise ContractViolation("legs must share their range")
    kappa = kappa_matrix(m)
    weight: dict[int, Fraction] = {}
    for shift in (m, m + kappa.half):
        for t, c in _window_weights(kappa, shift, a, b).items():
            if c:
                weight[t] = weight[t] + c if t in weight else c
    embed_path(bg, mu)  # refuses a leg that is not a path of the base graph
    embed_path(bg, nu)
    below = _leveling_depth(a + max(weight), depth) - a  # the leaves' depth under X
    # by the length of X mod m: the last weighted level and the leaves' coefficient
    last = [max((t for t in weight if t % m == r), default=0) for r in range(m)]
    coef = [sum((c for t, c in weight.items() if t % m == r), Fraction(-1)) for r in range(m)]
    succ = _out_ranges(bg.graph)
    leaves = _leaf_counts(succ, {below - t for t in last})
    terms = 0
    top = Fraction(0)
    for x in bg.tree.from_vertex[mu.range]:
        r = bg.tree.length(x)
        if not coef[r]:
            continue
        level = [x]
        for _ in range(last[r]):
            level = [w for v in level for w in succ[v]]
        count = leaves[below - last[r]]
        terms += sum([count[v] for v in level])
        top = max(top, abs(coef[r]))
    return ApproximationGap(terms, top, k_coefficients(m, a, b))
