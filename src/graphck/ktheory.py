"""Exact K-theory of finite sink-free graphs via Smith normal form.

The two K-groups are the kernel and cokernel over the integers of I - A^t,
where A counts edges between vertices.  Their ranks and torsion are read
from the Smith diagonal alone, which `smith_diagonal` finds by eliminating
unit pivots on sparse rows and factoring only the small remainder densely.
The endomorphism induced by the m-fold inclusion-reinclusion composite acts
on vertex classes as the geometric sum B = I + A^t + ... + (A^t)^(m-1), and
the verification routines certify that it agrees with multiplication by m on
both groups, with integer witnesses.  B is never formed as a matrix: it acts
by walks along edges, since (A^t)^j e_v counts the paths of length j leaving
v by range, and `_power_sum` pushes a vector along out-edges one layer at a
time.  Where K1 = 0 the K0 witnesses have a closed form; the unimodular
transforms U and V of `smith_normal_form` serve only the certificates of
graphs with K1 > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable
from heapq import heapify, heappop, heappush
from operator import mul

from .errors import ContractViolation
from .graphs import DirectedGraph, Vertex, _out_ranges, enumerate_hereditary_saturated, sinks

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


def smith_diagonal(matrix: IntMatrix) -> list[int]:
    """The Smith diagonal alone, without U and V.

    While some entry is +-1, pivot on the one of least fill, (row nnz - 1) *
    (col nnz - 1), and clear its column by row operations on sparse row
    dicts; column operations would then clear its row without touching the
    rest, so the matrix is equivalent to [1] plus the remaining block.  The
    nonzero rows and columns left over go to the dense `smith_normal_form`,
    and the zero ones add zeros at the end.  The Smith diagonal is unique,
    so this is `smith_normal_form(matrix).diagonal` whatever the pivot order.
    """
    size = min(len(matrix), len(matrix[0]) if matrix else 0)
    return _sparse_smith_diagonal([{j: x for j, x in enumerate(row) if x} for row in matrix],
                                  size)


def _sparse_smith_diagonal(sparse_rows: list[dict[int, int]], size: int) -> list[int]:
    """`smith_diagonal` of the matrix whose nonzero entries are these row
    dicts (consumed), with min(rows, columns) = size.

    A heap holds (fill, row, column) of the unit entries, pushed again
    whenever an elimination changes their row or column; a popped entry
    whose fill is no longer current is stale and skipped.  Ties go to the
    lowest row, then the lowest column."""
    rows = dict(enumerate(sparse_rows))
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [((len(row) - 1) * (len(cols[j]) - 1), i, j)
            for i, row in rows.items() for j, x in row.items() if x == 1 or x == -1]
    heapify(heap)
    units = 0
    while heap:
        fill, r, c = heappop(heap)
        prow = rows.get(r)
        p = prow.get(c) if prow is not None else None
        if (p != 1 and p != -1) or fill != (len(prow) - 1) * (len(cols[c]) - 1):
            continue
        del rows[r], prow[c]
        for j in prow:
            cols[j].discard(r)
        touched = cols.pop(c)
        touched.discard(r)
        for i in touched:
            row = rows[i]
            f = row.pop(c) * p  # p = +-1, so row_i -= (x / p) * row_r
            for j, y in prow.items():
                x = row.get(j, 0) - f * y
                if x:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = x
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
        for i in touched:
            row = rows[i]
            for j, x in row.items():
                if x == 1 or x == -1:
                    heappush(heap, ((len(row) - 1) * (len(cols[j]) - 1), i, j))
        for j in prow:
            col = cols[j]
            for i in col - touched:
                row = rows[i]
                if row[j] == 1 or row[j] == -1:
                    heappush(heap, ((len(row) - 1) * (len(col) - 1), i, j))
        units += 1
    live = sorted(j for j, col in cols.items() if col)
    rest = [[row.get(j, 0) for j in live] for row in rows.values() if row]
    diagonal = [1] * units + (smith_normal_form(rest).diagonal if rest else [])
    return diagonal + [0] * (size - len(diagonal))


@dataclass
class KTheoryResult:
    """Kernel/cokernel presentation of I - A^t."""

    graph: DirectedGraph
    k0_free_rank: int
    k0_torsion: list[int]
    k1_rank: int


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
    """I - A^t, the presentation matrix of both K-groups, as a dense matrix."""
    n = len(g.vertices)
    return [[row.get(j, 0) for j in range(n)] for row in _connectivity_rows(g)]


def _connectivity_rows(g: DirectedGraph) -> list[dict[int, int]]:
    """The nonzero entries of I - A^t, row by row: row i holds 1 at column i,
    less one at column j for each edge from vertex j into vertex i."""
    index = g._vindex
    rows = [{i: 1} for i in range(len(g.vertices))]
    for e in g.edges:
        row = rows[index[e.range.id]]
        j = index[e.source.id]
        row[j] = row.get(j, 0) - 1
    for i, row in enumerate(rows):
        if not row[i]:
            del row[i]
    return rows


def _require_ktheory_ready(g: DirectedGraph) -> None:
    bad = sinks(g)
    if bad:
        raise ContractViolation(
            f"graph has a sink ({bad[0].id}); K-theory here covers sink-free graphs only")


def _k_theory_of(g: DirectedGraph, diagonal: list[int]) -> KTheoryResult:
    free = diagonal.count(0)
    return KTheoryResult(g, free, [x for x in diagonal if x > 1], free)


def graph_k_theory(g: DirectedGraph) -> KTheoryResult:
    """K0 = coker(I - A^t) and K1 = ker(I - A^t), read from the Smith diagonal."""
    _require_ktheory_ready(g)
    return _k_theory_of(g, _sparse_smith_diagonal(_connectivity_rows(g), len(g.vertices)))


def _power_sum(succ: list[list[int]], x: dict[int, int], weights: Iterable[int]) -> list[int]:
    """sum_j weights[j] (A^t)^j x as a vector by vertex index, for x given by
    its nonzero entries by vertex index and succ = `_out_ranges(g)`.
    (A^t x)_w sums x_v over the edges v -> w, so each power pushes the
    previous layer one step along out-edges: (A^t)^j e_v counts the paths of
    length j leaving v by range."""
    out = [0] * len(succ)
    layer = x
    for j, weight in enumerate(weights):
        if j:
            nxt: dict[int, int] = {}
            for v, c in layer.items():
                for w in succ[v]:
                    nxt[w] = nxt.get(w, 0) + c
            layer = nxt
        for v, c in layer.items():
            out[v] += weight * c
    return out


def _k0_target(succ: list[list[int]], i: int, m: int) -> list[int]:
    """(B - m) e_i with B = sum_{j<m} (A^t)^j: the vector that the K0
    witness x of the vertex with index i must give as (I - A^t) x."""
    y = _power_sum(succ, {i: 1}, [1] * m)
    y[i] -= m
    return y


def _scales_by_m(succ: list[list[int]], x: list[int], m: int) -> bool:
    """B x == m x, for x a vector by vertex index."""
    return (_power_sum(succ, {i: c for i, c in enumerate(x) if c}, [1] * m)
            == [m * c for c in x])


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
        """Re-check every stored witness from scratch; False for a failed
        certificate, and for one without exactly one K0 witness per vertex,
        with a vector of the wrong length, or with a K1 basis that does not
        span the integer kernel of I - A^t.

        The basis spans the kernel iff it has the kernel's rank, the number of
        zeros on the Smith diagonal of I - A^t, and the n x k matrix of its
        vectors has only units on its Smith diagonal: then the vectors are
        independent and span a saturated lattice, and a saturated sublattice
        of the kernel with the kernel's rank is the whole kernel."""
        if self.m < 1:
            raise ContractViolation("m must be positive")
        g = self.graph
        phi = _connectivity_rows(g)
        n = len(phi)

        def phi_times(x: list[int]) -> list[int]:
            return [sum(c * x[j] for j, c in row.items()) for row in phi]

        if (self.k0_witnesses.keys() != {v.id for v in g.vertices}
                or any(len(x) != n for x in [*self.k0_witnesses.values(), *self.k1_basis])):
            return False
        k = len(self.k1_basis)
        if _sparse_smith_diagonal([dict(row) for row in phi], n).count(0) != k:
            return False
        basis_rows = [{i: x[j] for i, x in enumerate(self.k1_basis) if x[j]} for j in range(n)]
        if any(d != 1 and d != -1 for d in _sparse_smith_diagonal(basis_rows, k)):
            return False
        succ = _out_ranges(g)
        for i, v in enumerate(g.vertices):
            if phi_times(self.k0_witnesses[v.id]) != _k0_target(succ, i, self.m):
                return False
        for x in self.k1_basis:
            if phi_times(x) != [0] * n or not _scales_by_m(succ, x, self.m):
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


def _certify(g: DirectedGraph, m: int, diagonal: list[int]) -> MultiplicationCertificate:
    """The certificate of `verify_multiplication_by_m`, given the Smith
    diagonal of I - A^t."""
    cert = MultiplicationCertificate(g, m, True)
    succ = _out_ranges(g)
    if 0 not in diagonal:
        for i, v in enumerate(g.vertices):
            cert.k0_witnesses[v.id] = _power_sum(succ, {i: 1}, range(1 - m, 0))
        return cert
    snf = smith_normal_form(connectivity_matrix(g))
    for i, v in enumerate(g.vertices):
        x = _solve_integer(snf, _k0_target(succ, i, m))
        if x is None:
            cert.ok = False
            cert.failure = f"K0 class of {v.id} is not shifted by a boundary"
            return cert
        cert.k0_witnesses[v.id] = x
    for x in integer_kernel_basis(snf):
        if not _scales_by_m(succ, x, m):
            cert.ok = False
            cert.failure = "K1 basis vector is not scaled by m"
            return cert
        cert.k1_basis.append(x)
    return cert


def verify_multiplication_by_m(g: DirectedGraph, m: int) -> MultiplicationCertificate:
    """Certify the multiplication-by-m action of the induced endomorphism.

    K0: for each vertex class, (geometric sum - m) applied to it must land in
    the image of I - A^t over the integers; the solution vector is kept.
    K1: the geometric sum must fix-and-scale an integer kernel basis exactly.
    The geometric sum B = sum_{k<m} (A^t)^k acts by walks along edges: B e_v
    counts by range the paths of length < m leaving v, and B x pushes the
    entries of x along those paths.

    The telescoping identity
    (I - A^t) sum_{j<k} (A^t)^j = I - (A^t)^k, summed over k = 1..m-1, gives
    B - mI = -(I - A^t) sum_{j=0}^{m-2} (m-1-j) (A^t)^j.  So on every graph
    x_v = -sum_{j=0}^{m-2} (m-1-j) (A^t)^j e_v solves (I - A^t) x = (B - m) e_v.
    When the Smith diagonal has no zero, K1 = ker(I - A^t) = 0 and that
    solution is the only one, so it is the witness any solver would find, and
    there is no kernel basis to check.  Otherwise the witnesses come from the
    unimodular U and V of `smith_normal_form`, and the kernel basis from V.
    """
    return _k_theory_with_certificate(g, m)[1]


def _k_theory_with_certificate(g: DirectedGraph, m: int
                               ) -> tuple[KTheoryResult, MultiplicationCertificate]:
    """`graph_k_theory(g)` and `verify_multiplication_by_m(g, m)` from one
    Smith diagonal of I - A^t."""
    _require_ktheory_ready(g)
    if m < 1:
        raise ContractViolation("m must be positive")
    diagonal = _sparse_smith_diagonal(_connectivity_rows(g), len(g.vertices))
    return _k_theory_of(g, diagonal), _certify(g, m, diagonal)


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
