"""Sparse matrices over exact rationals, sized for desk-scale operator work.

Row-major dict-of-dicts storage; entries are Fractions or plain ints (the
numeric tower keeps results exact).  The 0/1 operators of the truncated
representation are partial injections of basis vectors, stored with int 1
entries, one per row and column; weighted sums carry Fractions.  No floats
appear anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


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
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self.rows == other.rows

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._shape_check(other)
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

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        self._mul_check(other)
        out = RatMatrix(self.nrows, other.ncols)
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

    def equal_on_columns(self, other: "RatMatrix", cols: Iterable[int]) -> bool:
        """Equal entries in every column of cols; one pass over the stored
        entries of both matrices."""
        self._shape_check(other)
        keep = cols if isinstance(cols, (range, set, frozenset)) else set(cols)
        for a, b in ((self.rows, other.rows), (other.rows, self.rows)):
            for i, row in a.items():
                brow = b.get(i, {})
                for j, v in row.items():
                    if j in keep and brow.get(j, 0) != v:
                        return False
        return True

    def _shape_check(self, other: "RatMatrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} vs "
                             f"{other.nrows}x{other.ncols}")

    def _mul_check(self, other: "RatMatrix") -> None:
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by "
                             f"{other.nrows}x{other.ncols}")

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"

