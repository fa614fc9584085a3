"""Points and objective vectors in the 3x2-block matrix layout.

A :class:`BlockPoint` is an ``m x n`` grid of blocks, each block a 3x2
array of rationals (block row ``k`` in 1..3, block column ``l`` in 1..2,
both 0-based internally).  The same shape serves both feasible points and
objective vectors; the text header tag (``point`` vs ``objective``) tells
them apart on disk.

The flat variable order is the fixed bijection used by every constraint
builder: row-major over ``(i, j, k, l)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from satpoly.errors import InputError
from satpoly.rational import Rational, content_lines, format_rational, parse_int, parse_rational


def flat_index(i: int, j: int, k: int, l: int, n: int) -> int:
    """Flat position of cell ``(k, l)`` of block ``(i, j)`` (all 0-based)."""
    return ((i * n + j) * 3 + k) * 2 + l


@dataclass
class BlockPoint:
    """An ``m x n`` grid of 3x2 rational blocks (6mn values in total)."""

    m: int
    n: int
    cells: list[list[list[list[Rational]]]]

    @staticmethod
    def zeros(m: int, n: int) -> "BlockPoint":
        if m < 1 or n < 1:
            raise InputError("block grid dimensions must be positive")
        zero = Fraction(0)
        cells = [
            [[[zero, zero] for _ in range(3)] for _ in range(n)] for _ in range(m)
        ]
        return BlockPoint(m, n, cells)

    def copy(self) -> "BlockPoint":
        return BlockPoint(
            self.m,
            self.n,
            [
                [[row[:] for row in block] for block in brow]
                for brow in self.cells
            ],
        )

    def get(self, i: int, j: int, k: int, l: int) -> Rational:
        return self.cells[i][j][k][l]

    def set(self, i: int, j: int, k: int, l: int, value) -> None:
        self.cells[i][j][k][l] = Fraction(value)

    def iter_cells(self) -> Iterator[tuple[int, int, int, int, Rational]]:
        for i in range(self.m):
            for j in range(self.n):
                for k in range(3):
                    for l in range(2):
                        yield i, j, k, l, self.cells[i][j][k][l]

    def flat(self) -> list[Rational]:
        out = []
        for i in range(self.m):
            for j in range(self.n):
                for k in range(3):
                    for l in range(2):
                        out.append(self.cells[i][j][k][l])
        return out

    @staticmethod
    def from_flat(values: Sequence[Rational], m: int, n: int) -> "BlockPoint":
        if len(values) != 6 * m * n:
            raise InputError("flat vector has wrong length for block grid")
        p = BlockPoint.zeros(m, n)
        idx = 0
        for i in range(m):
            for j in range(n):
                for k in range(3):
                    for l in range(2):
                        p.cells[i][j][k][l] = Fraction(values[idx])
                        idx += 1
        return p

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockPoint):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.flat() == other.flat()

    # -- text format ---------------------------------------------------------
    # Header "point m n" (or "objective m n"), then 3m lines of 2n rationals:
    # the block-matrix layout, one sub-row of blocks per line.

    def to_text(self, tag: str = "point") -> str:
        lines = [f"{tag} {self.m} {self.n}"]
        for i in range(self.m):
            for k in range(3):
                entries = []
                for j in range(self.n):
                    for l in range(2):
                        entries.append(format_rational(self.cells[i][j][k][l]))
                lines.append(" ".join(entries))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str, expect_tag: str | None = None) -> "BlockPoint":
        lines = content_lines(text)
        if not lines:
            raise InputError("empty block-point text")
        header = lines[0].split()
        if len(header) != 3 or header[0] not in ("point", "objective"):
            raise InputError(f"bad block-point header: {lines[0]!r}")
        if expect_tag is not None and header[0] != expect_tag:
            raise InputError(f"expected {expect_tag!r} header, got {header[0]!r}")
        m, n = (parse_int(header, k, "block-point header") for k in (1, 2))
        if len(lines) != 1 + 3 * m:
            raise InputError("wrong number of block-matrix lines")
        rows = [line.split() for line in lines[1:]]
        # The widths bound n by the text's length before the grid is allocated.
        if any(len(tokens) != 2 * n for tokens in rows):
            raise InputError("block-matrix line has wrong width")
        p = BlockPoint.zeros(m, n)
        for i in range(m):
            for k in range(3):
                tokens = rows[3 * i + k]
                for j in range(n):
                    for l in range(2):
                        p.cells[i][j][k][l] = parse_rational(tokens[2 * j + l])
        return p


#: ObjectiveVector shares the BlockPoint shape; its cells are objective
#: coefficients rather than coordinates.
ObjectiveVector = BlockPoint


def objective_value(c: BlockPoint, x: BlockPoint) -> Rational:
    """Exact inner product of two block-shaped vectors."""
    if (c.m, c.n) != (x.m, x.n):
        raise InputError("mismatched block grid shapes")
    total = Fraction(0)
    for i, j, k, l, val in c.iter_cells():
        if val:
            total += val * x.cells[i][j][k][l]
    return total
