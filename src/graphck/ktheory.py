"""Exact K-theory of finite sink-free graphs via Smith normal form.

The two K-groups are the kernel and cokernel over the integers of I - A^t,
where A counts edges between vertices.  The endomorphism induced by the
m-fold inclusion-reinclusion composite acts on vertex classes as the
geometric sum of powers of A^t, and the verification routines certify that
it agrees with multiplication by m on both groups, with integer witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .errors import ContractViolation
from .graphs import (DirectedGraph, Vertex, adjacency_matrix,
                     enumerate_hereditary_saturated, sinks)

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
    return [sum(map(mul, row, v)) for row in a]


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

    The pivot is the first least nonzero entry of the remaining block in
    row-major order.  An entry of absolute value 1 ends the search, since no
    later entry can be smaller, and a corner of 1 skips the divisibility
    check, since it divides every entry.  Neither shortcut changes which
    pivot is taken or which operations follow, so U, D and V are those of
    the full scans; on I - A^t the pivot is nearly always 1.
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
                row = d[i]
                for j in range(k, ncols):
                    x = abs(row[j])
                    if x and (best is None or x < best):
                        best, pivot = x, (i, j)
                        if x == 1:
                            break
                if best == 1:
                    break
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
            if p == 1:
                break
            offender = None
            for i in range(k + 1, nrows):
                if any(d[i][j] % p for j in range(k + 1, ncols)):
                    offender = i
                    break
            if offender is None:
                break
            row_op(k, offender, -1)
    return SmithDecomposition([row[:] for row in matrix], u, d, v)


@dataclass
class KTheoryResult:
    """Kernel/cokernel presentation of I - A^t."""

    graph: DirectedGraph
    k0_free_rank: int
    k0_torsion: list[int]
    k1_rank: int
    decomposition: SmithDecomposition


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
            f"graph has a sink ({bad[0].id}); K-theory here covers sink-free graphs only")


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
        index = {v.id: i for i, v in enumerate(self.graph.vertices)}
        for vid, x in self.k0_witnesses.items():
            idx = index[vid]
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


@dataclass
class SubquotientEntry:
    target: str
    kind: str
    status: str  # "pass" or "fail"
    certificate: MultiplicationCertificate


@dataclass
class SubquotientReport:
    graph: DirectedGraph
    m: int
    entries: list[SubquotientEntry]

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)


def verify_on_subquotients(g: DirectedGraph, m: int) -> SubquotientReport:
    """Sweep every hereditary saturated set H: certify the multiplication-by-m
    action on the ideal piece and the quotient piece of H, and on the
    subquotient piece of each nonempty lattice set J strictly inside H.

    The pieces are the subgraphs induced on H, on E^0 \\ H and on H \\ J.  The
    lattice sets are hereditary, so no edge leaves H or J: the ideal piece's
    edges (source in H) and the quotient piece's edges (range outside H) are
    those with both ends in the piece's set, and J is hereditary in the ideal
    piece, whose quotient by J is then the piece on H \\ J.

    No piece of a sink-free graph has a sink.  A vertex of the ideal piece
    keeps all its edges.  A vertex whose edges all land in a saturated set
    lies in that set, so a vertex of E^0 \\ H, or of H \\ J, has an edge that
    stays in its piece.  No piece is ever skipped, and
    `verify_multiplication_by_m` would refuse a sink loudly.

    Each distinct vertex set is certified once; every entry that names it
    shares its status and certificate."""
    _require_ktheory_ready(g)
    sets = enumerate_hereditary_saturated(g)
    names = {h: "{" + ",".join(sorted(v.id for v in h)) + "}" for h in sets}
    everything = frozenset(g.vertices)
    certified: dict[frozenset[Vertex], tuple[str, MultiplicationCertificate]] = {}
    entries: list[SubquotientEntry] = []

    def add(target: str, kind: str, piece: frozenset[Vertex]) -> None:
        if piece not in certified:
            cert = verify_multiplication_by_m(DirectedGraph(
                [v for v in g.vertices if v in piece],
                [e for e in g.edges if e.source in piece and e.range in piece]), m)
            certified[piece] = ("pass" if cert.reverify() else "fail", cert)
        entries.append(SubquotientEntry(target, kind, *certified[piece]))

    for h in sets:
        add(f"ideal {names[h]}", "ideal", h)
        add(f"quotient by {names[h]}", "quotient", everything - h)
        for j in sets:
            if j < h and j:
                add(f"subquotient {names[j]} in {names[h]}", "subquotient", h - j)
    return SubquotientReport(g, m, entries)
