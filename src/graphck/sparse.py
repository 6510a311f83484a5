"""Sparse matrices over exact rationals, sized for desk-scale operator work.

Two classes share one read interface (`nrows`, `ncols`, a row-major `rows`
dict-of-dicts, `get`, `nnz`, `is_zero`, `star`, `==`, `equal_on_columns`).
`RatMatrix` holds weighted operators: entries are Fractions or plain ints
(the numeric tower keeps results exact).  `Injection` holds the 0/1
operators of the truncated representation, which are partial injections of
basis vectors: it stores only the map column -> row, every entry is int 1,
and its products with either class move rows or columns without arithmetic.
Sums and differences go through `RatMatrix`.  No floats appear anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def _shape_check(a, b) -> None:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} vs {b.nrows}x{b.ncols}")


def _mul_check(a, b) -> None:
    if a.ncols != b.nrows:
        raise ValueError(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")


def _column_set(cols: Iterable[int]) -> range | set[int] | frozenset[int]:
    return cols if isinstance(cols, (range, set, frozenset)) else set(cols)


class RatMatrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int,
                 entries: dict[tuple[int, int], Fraction] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, Fraction]] = {}
        if entries:
            for (i, j), v in entries.items():
                if v:
                    self.rows.setdefault(i, {})[j] = v

    def get(self, i: int, j: int) -> Fraction:
        return self.rows.get(i, {}).get(j, Fraction(0))

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RatMatrix, Injection)):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self.rows == other.rows

    def __add__(self, other: "RatMatrix | Injection") -> "RatMatrix":
        _shape_check(self, other)
        out = RatMatrix(self.nrows, self.ncols)
        for i, row in self.rows.items():
            out.rows[i] = dict(row)
        for i, row in other.rows.items():
            dst = out.rows.setdefault(i, {})
            for j, v in row.items():
                s = dst.get(j, 0) + v
                if s:
                    dst[j] = s
                else:
                    dst.pop(j, None)
            if not dst:
                del out.rows[i]
        return out

    def __neg__(self) -> "RatMatrix":
        out = RatMatrix(self.nrows, self.ncols)
        for i, row in self.rows.items():
            out.rows[i] = {j: -v for j, v in row.items()}
        return out

    def __sub__(self, other: "RatMatrix | Injection") -> "RatMatrix":
        return self + (-other)

    def __mul__(self, other: "RatMatrix | Injection") -> "RatMatrix":
        _mul_check(self, other)
        out = RatMatrix(self.nrows, other.ncols)
        if isinstance(other, Injection):
            # column r of self becomes column c where other sends c to r
            inv = {r: c for c, r in other.cmap.items()}
            for i, row in self.rows.items():
                moved = {inv[j]: v for j, v in row.items() if j in inv}
                if moved:
                    out.rows[i] = moved
            return out
        for i, row in self.rows.items():
            acc: dict[int, Fraction] = {}
            for j, a in row.items():
                brow = other.rows.get(j)
                if not brow:
                    continue
                for k, b in brow.items():
                    s = acc.get(k, 0) + a * b
                    if s:
                        acc[k] = s
                    else:
                        acc.pop(k, None)
            if acc:
                out.rows[i] = acc
        return out

    def transpose(self) -> "RatMatrix":
        out = RatMatrix(self.ncols, self.nrows)
        for i, row in self.rows.items():
            for j, v in row.items():
                out.rows.setdefault(j, {})[i] = v
        return out

    # all matrices here have rational entries, so adjoint == transpose
    star = transpose

    def equal_on_columns(self, other: "RatMatrix | Injection", cols: Iterable[int]) -> bool:
        """Equal entries in every column of cols; one pass over the stored
        entries of both matrices."""
        _shape_check(self, other)
        keep = _column_set(cols)
        if isinstance(other, Injection):
            cmap = other.cmap
            return (all(v == (1 if cmap.get(j) == i else 0)
                        for i, row in self.rows.items() for j, v in row.items() if j in keep)
                    and all(self.rows.get(r, {}).get(c) == 1
                            for c, r in cmap.items() if c in keep))
        for a, b in ((self.rows, other.rows), (other.rows, self.rows)):
            for i, row in a.items():
                brow = b.get(i, {})
                for j, v in row.items():
                    if j in keep and brow.get(j, 0) != v:
                        return False
        return True

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


class Injection:
    """The n x n 0/1 matrix sending column c to row cmap[c], for an injective
    cmap: a partial injection of basis vectors.  Every stored entry is int 1."""

    __slots__ = ("nrows", "ncols", "cmap")

    def __init__(self, n: int, cmap: dict[int, int]):
        self.nrows = self.ncols = n
        self.cmap = cmap

    @property
    def rows(self) -> dict[int, dict[int, int]]:
        """The `RatMatrix` row view {row: {column: 1}}, built on each read."""
        return {r: {c: 1} for c, r in self.cmap.items()}

    def get(self, i: int, j: int) -> int | Fraction:
        return 1 if self.cmap.get(j) == i else Fraction(0)

    def nnz(self) -> int:
        return len(self.cmap)

    def is_zero(self) -> bool:
        return not self.cmap

    def __eq__(self, other) -> bool:
        if isinstance(other, Injection):
            return self.nrows == other.nrows and self.cmap == other.cmap
        if isinstance(other, RatMatrix):
            return other == self
        return NotImplemented

    def star(self) -> "Injection":
        return Injection(self.nrows, {r: c for c, r in self.cmap.items()})

    def __mul__(self, other: "Injection | RatMatrix") -> "Injection | RatMatrix":
        _mul_check(self, other)
        cmap = self.cmap
        if isinstance(other, Injection):
            return Injection(self.nrows, {c: cmap[r] for c, r in other.cmap.items() if r in cmap})
        # row c of other becomes row cmap[c]
        out = RatMatrix(self.nrows, other.ncols)
        for c, row in other.rows.items():
            if c in cmap:
                out.rows[cmap[c]] = dict(row)
        return out

    def _rat(self) -> RatMatrix:
        out = RatMatrix(self.nrows, self.ncols)
        out.rows = self.rows
        return out

    def __add__(self, other: "Injection | RatMatrix") -> RatMatrix:
        return self._rat() + other

    def __sub__(self, other: "Injection | RatMatrix") -> RatMatrix:
        return self._rat() - other

    def __neg__(self) -> RatMatrix:
        return -self._rat()

    def equal_on_columns(self, other: "Injection | RatMatrix", cols: Iterable[int]) -> bool:
        """Equal entries in every column of cols."""
        if isinstance(other, RatMatrix):
            return other.equal_on_columns(self, cols)
        _shape_check(self, other)
        a, b = self.cmap, other.cmap
        keep = _column_set(cols)
        return (all(b.get(c) == r for c, r in a.items() if c in keep)
                and all(c in a for c in b if c in keep))

    def __repr__(self) -> str:
        return f"Injection({self.nrows}x{self.ncols}, nnz={self.nnz()})"
