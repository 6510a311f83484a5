"""Exact K-theory of finite sink-free graphs via Smith normal form.

The two K-groups are the kernel and cokernel over the integers of I - A^t,
where A counts edges between vertices.  The endomorphism induced by the
m-fold inclusion-reinclusion composite acts on vertex classes as the
geometric sum of powers of A^t, and the verification routines certify that
it agrees with multiplication by m on both groups, with integer witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractViolation
from .graphs import (DirectedGraph, Vertex, adjacency_matrix,
                     enumerate_hereditary_saturated, paths_from,
                     quotient_graph, restriction_graph, sinks)

IntMatrix = list[list[int]]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for j in range(k):
            x = arow[j]
            if x:
                brow = b[j]
                for c in range(m):
                    orow[c] += x * brow[c]
    return out


def _mat_vec(a: IntMatrix, v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _transpose(a: IntMatrix) -> IntMatrix:
    return [list(col) for col in zip(*a)] if a else []


def _det(a: IntMatrix) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass
class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    matrix: IntMatrix
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> list[int]:
        n = min(len(self.d), len(self.d[0]) if self.d else 0)
        return [self.d[i][i] for i in range(n)]

    def verify(self) -> bool:
        if _mat_mul(_mat_mul(self.u, self.matrix), self.v) != self.d:
            return False
        for i, row in enumerate(self.d):
            for j, x in enumerate(row):
                if i != j and x:
                    return False
        if any(x < 0 for x in self.diagonal):
            return False
        nz = [x for x in self.diagonal if x]
        if len(nz) != len([x for x in self.diagonal[:len(nz)] if x]):
            return False  # a zero before a nonzero breaks the chain
        for a, b in zip(nz, nz[1:]):
            if b % a:
                return False
        return abs(_det(self.u)) == 1 and abs(_det(self.v)) == 1


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Diagonalize over the integers by unimodular row/column operations.

    Classic pivot-shrinking loop: pull a least nonzero into the corner,
    reduce its row and column by division, and when the corner divides the
    whole remaining block move on; otherwise mix an offending row in, which
    strictly shrinks the next pivot.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    d = [row[:] for row in matrix]
    u = _identity(nrows)
    v = _identity(ncols)

    def row_op(i, j, c):  # row_i -= c * row_j
        d[i] = [x - c * y for x, y in zip(d[i], d[j])]
        u[i] = [x - c * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, c):  # col_i -= c * col_j
        for row in d:
            row[i] -= c * row[j]
        for row in v:
            row[i] -= c * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    for k in range(min(nrows, ncols)):
        while True:
            pivot = None
            best = None
            for i in range(k, nrows):
                for j in range(k, ncols):
                    x = abs(d[i][j])
                    if x and (best is None or x < best):
                        best, pivot = x, (i, j)
            if pivot is None:
                break
            if pivot[0] != k:
                swap_rows(k, pivot[0])
            if pivot[1] != k:
                swap_cols(k, pivot[1])
            if d[k][k] < 0:
                row_op(k, k, 2)  # negate via row_k -= 2*row_k
            p = d[k][k]
            changed = False
            for i in range(k + 1, nrows):
                if d[i][k]:
                    row_op(i, k, d[i][k] // p)
                    changed = changed or bool(d[i][k])
            for j in range(k + 1, ncols):
                if d[k][j]:
                    col_op(j, k, d[k][j] // p)
                    changed = changed or bool(d[k][j])
            if changed:
                continue
            offender = None
            for i in range(k + 1, nrows):
                if any(d[i][j] % p for j in range(k + 1, ncols)):
                    offender = i
                    break
            if offender is None:
                break
            row_op(k, offender, -1)
    return SmithDecomposition([row[:] for row in matrix], u, d, v)


def smith_diagonal_by_minors(matrix: IntMatrix) -> list[int]:
    """Independent oracle: invariant factors from gcds of k-by-k minors.

    Exponential in the size; intended for cross-checking small matrices.
    """
    from itertools import combinations
    from math import gcd

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


@dataclass
class KTheoryResult:
    """Kernel/cokernel presentation of I - A^t."""

    graph: DirectedGraph
    k0_free_rank: int
    k0_torsion: list[int]
    k1_rank: int
    decomposition: SmithDecomposition

    def k0_class(self, x: list[int]) -> tuple[int, ...]:
        """Coordinates of an integer vector in the cokernel presentation."""
        z = _mat_vec(self.decomposition.u, x)
        diag = self.decomposition.diagonal
        out = []
        for i, c in enumerate(z):
            di = diag[i] if i < len(diag) else 0
            if di == 0:
                out.append(c)
            elif di > 1:
                out.append(c % di)
        return tuple(out)


def integer_kernel_basis(snf: SmithDecomposition) -> list[list[int]]:
    """Basis of the integer kernel of the decomposed matrix."""
    v = snf.v
    diag = snf.diagonal
    n = len(v)
    basis = []
    for i in range(n):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            basis.append([v[r][i] for r in range(n)])
    return basis


def connectivity_matrix(g: DirectedGraph) -> IntMatrix:
    """I - A^t, the presentation matrix of both K-groups."""
    a = adjacency_matrix(g)
    n = len(a)
    return [[(1 if i == j else 0) - a[j][i] for j in range(n)] for i in range(n)]


def _require_ktheory_ready(g: DirectedGraph) -> None:
    if g.tail_truncated:
        raise ContractViolation(
            "graph carries capped tails; its K-theory would reflect the cap, "
            "not the sink-free completion")
    bad = sinks(g)
    if bad:
        raise ContractViolation(
            f"graph has a sink ({bad[0].id}); preprocess with add_tails, noting "
            "that capped tails are refused here precisely because they are caps")


def graph_k_theory(g: DirectedGraph) -> KTheoryResult:
    """K0 = coker(I - A^t) and K1 = ker(I - A^t), presented via Smith form."""
    _require_ktheory_ready(g)
    snf = smith_normal_form(connectivity_matrix(g))
    diag = snf.diagonal
    free = sum(1 for x in diag if x == 0)
    torsion = [x for x in diag if x > 1]
    return KTheoryResult(g, free, torsion, free, snf)


def induced_endomorphism_matrix(g: DirectedGraph, m: int) -> IntMatrix:
    """Geometric sum I + A^t + ... + (A^t)^(m-1), by Horner iteration."""
    if m < 1:
        raise ContractViolation("m must be positive")
    at = _transpose(adjacency_matrix(g))
    n = len(at)
    total = _identity(n)
    for _ in range(m - 1):
        total = _mat_mul(at, total)
        for i in range(n):
            total[i][i] += 1
    return total


@dataclass
class MultiplicationCertificate:
    """Integer witnesses that the induced endomorphism is multiplication by m."""

    graph: DirectedGraph
    m: int
    ok: bool
    k0_witnesses: dict[str, list[int]] = field(default_factory=dict)
    k1_basis: list[list[int]] = field(default_factory=list)
    failure: str | None = None

    def reverify(self) -> bool:
        """Re-check every stored witness from scratch; False for a failed certificate."""
        phi = connectivity_matrix(self.graph)
        b = induced_endomorphism_matrix(self.graph, self.m)
        n = len(phi)
        for vid, x in self.k0_witnesses.items():
            idx = next(i for i, v in enumerate(self.graph.vertices) if v.id == vid)
            y = [b[i][idx] - (self.m if i == idx else 0) for i in range(n)]
            if _mat_vec(phi, x) != y:
                return False
        for x in self.k1_basis:
            if _mat_vec(phi, x) != [0] * n:
                return False
            if _mat_vec(b, x) != [self.m * c for c in x]:
                return False
        return self.ok


def _solve_integer(snf: SmithDecomposition, y: list[int]) -> list[int] | None:
    """An integer solution x of M x = y, using U M V = D."""
    w = _mat_vec(snf.u, y)
    diag = snf.diagonal
    n = len(snf.v)
    z = [0] * n
    for i, c in enumerate(w):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if c:
                return None
        else:
            if c % di:
                return None
            z[i] = c // di
    return _mat_vec(snf.v, z)


def verify_multiplication_by_m(g: DirectedGraph, m: int) -> MultiplicationCertificate:
    """Certify the multiplication-by-m action of the induced endomorphism.

    K0: for each vertex class, (geometric sum - m) applied to it must land in
    the image of I - A^t over the integers; the solution vector is kept.
    K1: the geometric sum must fix-and-scale an integer kernel basis exactly.
    """
    _require_ktheory_ready(g)
    if m < 1:
        raise ContractViolation("m must be positive")
    phi = connectivity_matrix(g)
    snf = smith_normal_form(phi)
    b = induced_endomorphism_matrix(g, m)
    n = len(phi)
    cert = MultiplicationCertificate(g, m, True)
    for idx, vtx in enumerate(g.vertices):
        y = [b[i][idx] - (m if i == idx else 0) for i in range(n)]
        x = _solve_integer(snf, y)
        if x is None:
            cert.ok = False
            cert.failure = f"K0 class of {vtx.id} is not shifted by a boundary"
            return cert
        cert.k0_witnesses[vtx.id] = x
    for x in integer_kernel_basis(snf):
        if _mat_vec(b, x) != [m * c for c in x]:
            cert.ok = False
            cert.failure = "K1 basis vector is not scaled by m"
            return cert
        cert.k1_basis.append(x)
    return cert


def vertex_range_counts(g: DirectedGraph, v: Vertex, m: int) -> list[int]:
    """Multiset of ranges of the paths of length < m leaving v, as a vector.

    Independent path-enumeration cross-check of the geometric-sum column."""
    counts = [0] * len(g.vertices)
    for length in range(m):
        for p in paths_from(g, v, length):
            counts[g.vertex_index(p.range)] += 1
    return counts


@dataclass
class SubquotientEntry:
    target: str
    kind: str
    status: str  # "pass", "fail", or "skip"
    reason: str | None = None
    certificate: MultiplicationCertificate | None = None


@dataclass
class SubquotientReport:
    graph: DirectedGraph
    m: int
    entries: list[SubquotientEntry]

    @property
    def ok(self) -> bool:
        return all(e.status != "fail" for e in self.entries)


def _run_target(name: str, kind: str, graph: DirectedGraph, m: int) -> SubquotientEntry:
    if sinks(graph):
        return SubquotientEntry(name, kind, "skip",
                                reason=f"sink {sinks(graph)[0].id} in the piece")
    cert = verify_multiplication_by_m(graph, m)
    status = "pass" if cert.reverify() else "fail"
    return SubquotientEntry(name, kind, status, certificate=cert)


def verify_on_subquotients(g: DirectedGraph, m: int) -> SubquotientReport:
    """Sweep every hereditary saturated set: verify the multiplication-by-m
    action on the corresponding ideal piece and quotient piece, and on the
    in-between pieces for strictly nested pairs.  Sink-bearing pieces are
    reported as skipped, never failed."""
    _require_ktheory_ready(g)
    sets = enumerate_hereditary_saturated(g)
    entries: list[SubquotientEntry] = []
    names = {h: "{" + ",".join(sorted(v.id for v in h)) + "}" for h in sets}
    for h in sets:
        ideal = restriction_graph(g, h)
        quot = quotient_graph(g, h)
        entries.append(_run_target(f"ideal {names[h]}", "ideal", ideal, m))
        entries.append(_run_target(f"quotient by {names[h]}", "quotient", quot, m))
        for j in sets:
            if j < h and j:
                # j is hereditary saturated in the ideal piece too: a vertex
                # outside the saturated h has an edge leaving h
                sub = quotient_graph(ideal, j)
                entries.append(_run_target(
                    f"subquotient {names[j]} in {names[h]}", "subquotient", sub, m))
    return SubquotientReport(g, m, entries)
