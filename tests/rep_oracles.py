"""Reference routes for the truncated representation.

The library builds every 0/1 operator directly from index maps.  These are
the composed constructions from the definitions -- generators by path
hashing, T_mu as a product of edge operators, range projections minus
extension projections, and so on -- which the tests compare against the
direct ones on whole matrices.  The double-precision norm estimate lives
here too: only tests use floats.
"""

from __future__ import annotations

import numpy as np

from graphck.graphs import Path, paths
from graphck.rep import RepOperator, TruncatedRep
from graphck.sparse import RatMatrix


def edge_operator(rep: TruncatedRep, e) -> RepOperator:
    """T_e: xi_p -> xi_{e p} for p starting at r(e) with |p| < cutoff."""
    m = RatMatrix(rep.dimension, rep.dimension)
    for p, i in rep.index.items():
        if p.source == e.range and len(p) + 1 <= rep.cutoff:
            m.rows.setdefault(rep.index[Path((e,)) * p], {})[i] = 1
    return RepOperator(m, 1, 0)


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
