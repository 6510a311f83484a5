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
from .graphs import DirectedGraph, Edge, Path, PathTree, Vertex, sinks
from .sparse import Injection, RatMatrix
from .symbolic import AlgebraMode, FormalSum, Word, iota_word_image, normal_form

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


def _basis_bound(max_basis: int | None) -> tuple[int, str]:
    """The basis-size bound and the knob that sets it: an explicit argument
    wins over GRAPHCK_MAX_BASIS, which wins over the default."""
    if max_basis is not None:
        return max_basis, "max_basis"
    env = os.environ.get("GRAPHCK_MAX_BASIS")
    if not env:
        return DEFAULT_MAX_BASIS, "GRAPHCK_MAX_BASIS"
    try:
        return int(env), "GRAPHCK_MAX_BASIS"
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

    def __init__(self, graph: DirectedGraph, cutoff: int, max_basis: int | None = None):
        if cutoff < 1:
            raise ContractViolation("cutoff must be positive")
        bound, knob = _basis_bound(max_basis)
        self.graph = graph
        self.cutoff = cutoff
        tree = self.tree = PathTree(graph)
        for length in range(cutoff + 1):
            if length:
                tree.grow()
            if len(tree) > bound:
                raise ResourceLimit(
                    f"truncated basis has {len(tree)} paths of length <= {length}, over "
                    f"the bound {bound}; lower the cutoff or raise {knob}")
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


def build_rep(g: DirectedGraph, cutoff: int, max_basis: int | None = None) -> TruncatedRep:
    return TruncatedRep(g, cutoff, max_basis)


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


def _windowed_sum(rep: TruncatedRep, m: int, shift: int, mu: Path, nu: Path) -> RepOperator:
    """Sum of weighted matrix units over shared extensions whose lengths land
    in [shift, shift+m) on both legs."""
    if mu.range != nu.range:
        raise ContractViolation("legs must share their range")
    a, b = len(mu), len(nu)
    # the longest extended leg has length shift+m-1 and its projection needs one more
    if shift + m > rep.cutoff:
        raise ContractViolation(
            f"cutoff {rep.cutoff} too small for window [{shift},{shift + m})")
    kappa = kappa_matrix(m)
    t_lo = max(0, shift - min(a, b))
    t_hi = max(t_lo, shift + m - max(a, b))
    weights = {t: kappa.entry0(a + t - shift, b + t - shift) for t in range(t_lo, t_hi)}
    # e_{mu tau, nu tau} for each extension tau: the word map T_mu T_nu*
    # restricted to the columns nu tau with |tau| in [t_lo, t_hi)
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
    """Canonical form of (compressed image) - (inclusion image) of a word."""

    difference: FormalSum
    max_coefficient: Fraction
    coefficients: KCoefficients


def approximation_gap(bg: BlowupGraph, mu: Path, nu: Path,
                      depth: int | None = None) -> ApproximationGap:
    """Gap between the two windowed compressions of s_mu s_nu* (pushed into
    the blow-up algebra) and the inclusion image, in canonical form.

    Expressed over the blow-up graph in Cuntz-Krieger mode; the coefficients
    that survive are exactly 1 - K_{m,i}, so the largest absolute coefficient
    reports the approximation quality of the compression pair.
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
    half = ceil(m / 2)
    terms: dict[Word, Fraction] = {}
    tree = PathTree(g, (mu.range,))  # the extensions tau, grown as far as needed
    for shift in (m, m + half):
        t_lo = max(0, shift - min(a, b))
        t_hi = max(t_lo, shift + m - max(a, b))
        for t in range(t_lo, t_hi):
            c = kappa.entry0(a + t - shift, b + t - shift)
            if not c:
                continue
            while len(tree.offsets) < t + 2:
                tree.grow()
            for tau in tree.paths[tree.offsets[t]:tree.offsets[t + 1]]:
                w = Word(embed_path(bg, mu * tau), embed_path(bg, nu * tau))
                terms[w] = terms[w] + c if w in terms else c
    diff = normal_form(FormalSum(bg.graph, terms) - iota_word_image(bg, mu, nu),
                       AlgebraMode.CUNTZ_KRIEGER, depth)
    return ApproximationGap(diff, diff.max_abs_coefficient(), k_coefficients(m, a, b))
