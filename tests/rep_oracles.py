"""Reference routes for the truncated representation.

The library builds every 0/1 operator directly from index maps.  These are
the composed constructions from the definitions -- generators by path
hashing, T_mu as a product of edge operators, range projections minus
extension projections, and so on -- which the tests compare against the
direct ones on whole matrices.  `injection_matrix` stores a partial
injection as the dict-of-dicts `RatMatrix` the library used before
`Injection`, for the differential tests of the injection algebra.  The
matrix-unit rule check, the two Schur routes for the weight matrix and the
window-to-blow-up map lambda live here too, as does the double-precision
norm estimate: only tests use them.  `gap_difference` lists the leveled
approximation gap term by term, the route `approximation_gap` took before it
counted the terms per trunk.
"""

from __future__ import annotations

from fractions import Fraction
from weakref import WeakKeyDictionary

import numpy as np

import graphck
from graphck.construct import BlowupGraph, embed_path
from graphck.errors import ContractViolation
from graphck.graphs import Path, PathTree, paths, sinks
from graphck.rep import KappaMatrix, RepOperator, TruncatedRep, _window_weights, kappa_matrix
from graphck.sparse import RatMatrix
from graphck.symbolic import AlgebraMode, FormalSum, Word, iota_word_image, normal_form


# rep -> edge -> T_e; no caller mutates a RepOperator or its matrix, so the
# composed routes below share one T_e per edge
_EDGE_OPERATORS: WeakKeyDictionary = WeakKeyDictionary()


def edge_operator(rep: TruncatedRep, e) -> RepOperator:
    """T_e: xi_p -> xi_{e p} for p starting at r(e) with |p| < cutoff; built
    once per (rep, e)."""
    built = _EDGE_OPERATORS.setdefault(rep, {})
    if e not in built:
        m = RatMatrix(rep.dimension, rep.dimension)
        for p, i in rep.index.items():
            if p.source == e.range and len(p) + 1 <= rep.cutoff:
                m.rows.setdefault(rep.index[Path((e,)) * p], {})[i] = 1
        built[e] = RepOperator(m, 1, 0)
    return built[e]


def vertex_operator(rep: TruncatedRep, v) -> RepOperator:
    """Q_v: the diagonal projection onto the paths starting at v."""
    m = RatMatrix(rep.dimension, rep.dimension)
    for p, i in rep.index.items():
        if p.source == v:
            m.rows[i] = {i: 1}
    return RepOperator(m, 0, 0)


def t_path(rep: TruncatedRep, mu: Path) -> RepOperator:
    """T_mu = T_{e1} ... T_{ek}, or Q_v for the empty path at v."""
    if not mu.edges:
        return vertex_operator(rep, mu.base)
    out = edge_operator(rep, mu.edges[0])
    for e in mu.edges[1:]:
        out = out * edge_operator(rep, e)
    return RepOperator(out.matrix, len(mu), 0)


def word_operator(rep: TruncatedRep, alpha: Path, beta: Path) -> RepOperator:
    mat = t_path(rep, alpha).matrix * t_path(rep, beta).matrix.star()
    return RepOperator(mat, max(0, len(alpha) - len(beta)), max(0, len(beta) - len(alpha)))


def path_projection(rep: TruncatedRep, mu: Path) -> RepOperator:
    """T_mu T_mu* minus T_{mu e} T_{mu e}* over the edges e leaving r(mu)."""
    tm = t_path(rep, mu)
    out = tm * tm.star()
    for e in rep.graph.out_edges(mu.range):
        ext = t_path(rep, mu * Path((e,)))
        out = out - ext * ext.star()
    return RepOperator(out.matrix, 0, 0)


def matrix_unit(rep: TruncatedRep, mu: Path, nu: Path) -> RepOperator:
    """T_mu Delta_{r(mu)} T_nu*."""
    d = path_projection(rep, Path.at(mu.range))
    op = t_path(rep, mu) * d * t_path(rep, nu).star()
    return RepOperator(op.matrix, max(0, len(mu) - len(nu)), max(0, len(nu) - len(mu)))


def window_projection(rep: TruncatedRep, m: int) -> RepOperator:
    """Sum of the path projections over all paths of length < m."""
    total = RatMatrix(rep.dimension, rep.dimension)
    for mu in paths(rep.graph, 0, m):
        total = total + path_projection(rep, mu).matrix
    return RepOperator(total, 0, 0)


def injection_matrix(n: int, cmap: dict[int, int]) -> RatMatrix:
    """The 0/1 matrix sending column c to row cmap[c], with int 1 entries."""
    m = RatMatrix(n, n)
    m.rows = {r: {c: 1} for c, r in cmap.items()}
    return m


def identity_matrix(n: int) -> RatMatrix:
    m = RatMatrix(n, n)
    for i in range(n):
        m.rows[i] = {i: Fraction(1)}
    return m


def check_matrix_units(rep: TruncatedRep, p: int) -> bool:
    """Multiplication and adjoint rules for all matrix units of length < p,
    built by the library's direct `matrix_unit`."""
    all_paths = [q for q in paths(rep.graph, 0, p)]
    pairs = [(mu, nu) for mu in all_paths for nu in all_paths if mu.range == nu.range]
    units = {(mu, nu): graphck.matrix_unit(rep, mu, nu) for mu, nu in pairs}
    for (mu, nu), u in units.items():
        if not rep.equal_on_exact_region(u.star(), units[(nu, mu)]):
            return False
    zero = RepOperator(RatMatrix(rep.dimension, rep.dimension), 0)
    for (mu, nu), u in units.items():
        for (rho, sigma), w in units.items():
            prod = u * w
            if nu == rho:
                expected = graphck.matrix_unit(rep, mu, sigma)
                expected = RepOperator(expected.matrix, prod.creations)
            else:
                expected = RepOperator(zero.matrix, prod.creations)
            if not rep.equal_on_exact_region(prod, expected):
                return False
    return True


def schur_multiply(kappa: KappaMatrix, a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Entrywise product kappa * a."""
    m = kappa.m
    return [[kappa.entries[i][j] * a[i][j] for j in range(m)] for i in range(m)]


def schur_via_projections(kappa: KappaMatrix, a: list[list[Fraction]]) -> list[list[Fraction]]:
    """The same map written as an average of corner compressions: summing the
    middle blocks l..m-l+1 over l = 1..ceil(m/2), normalized by 1/(half+1)."""
    m = kappa.m
    out = [[Fraction(0)] * m for _ in range(m)]
    for l in range(1, kappa.half + 1):
        for i in range(l - 1, m - l + 1):
            row = out[i]
            arow = a[i]
            for j in range(l - 1, m - l + 1):
                row[j] += arow[j]
    c = Fraction(1, kappa.half + 1)
    return [[c * x for x in row] for row in out]


def lambda_map(bg: BlowupGraph, p: int, mu: Path, nu: Path) -> FormalSum:
    """Matrix unit of the window [p, p+m) sent to the blow-up word on the
    embedded paths."""
    m = bg.m
    if mu.range != nu.range:
        raise ContractViolation("legs must share their range")
    for leg in (mu, nu):
        if not (p <= len(leg) < p + m):
            raise ContractViolation(
                f"path {leg.id} has length {len(leg)} outside [{p}, {p + m})")
    return FormalSum.of(bg.graph, Word(embed_path(bg, mu), embed_path(bg, nu)))


def to_numpy(mat: RatMatrix) -> np.ndarray:
    out = np.zeros((mat.nrows, mat.ncols))
    for i, row in mat.rows.items():
        for j, v in row.items():
            out[i, j] = float(v)
    return out


def operator_norm(mat: RatMatrix | np.ndarray, iterations: int = 200) -> float:
    """Double-precision spectral norm; dense SVD below dimension 2000,
    power iteration on A*A above."""
    a = to_numpy(mat) if isinstance(mat, RatMatrix) else np.asarray(mat, dtype=float)
    if max(a.shape) <= 2000:
        return float(np.linalg.norm(a, 2)) if a.size else 0.0
    rng = np.random.default_rng(7)
    x = rng.standard_normal(a.shape[1])
    x /= np.linalg.norm(x)
    last = 0.0
    for _ in range(iterations):
        y = a.T @ (a @ x)
        norm = np.linalg.norm(y)
        if norm == 0:
            return 0.0
        x = y / norm
        if abs(norm - last) < 1e-12 * max(1.0, norm):
            break
        last = norm
    return float(np.sqrt(norm))


def gap_difference(bg: BlowupGraph, mu: Path, nu: Path, depth: int | None = None) -> FormalSum:
    """The leveled approximation gap of s_mu s_nu*, listed: one word per
    extension tau and window, minus the inclusion image, in normal form.
    Refuses what `approximation_gap` refuses, in the same order."""
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
    terms: dict[Word, Fraction] = {}
    tree = PathTree(g, (mu.range,))  # the extensions tau, grown as far as needed
    for shift in (m, m + kappa.half):
        for t, c in _window_weights(kappa, shift, a, b).items():
            if not c:
                continue
            while len(tree.offsets) < t + 2:
                tree.grow()
            for tau in tree.paths[tree.offsets[t]:tree.offsets[t + 1]]:
                w = Word(embed_path(bg, mu * tau), embed_path(bg, nu * tau))
                terms[w] = terms[w] + c if w in terms else c
    return normal_form(FormalSum(bg.graph, terms) - iota_word_image(bg, mu, nu),
                       AlgebraMode.CUNTZ_KRIEGER, depth)
