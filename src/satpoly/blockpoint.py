"""Points and objective vectors in the 3x2-block matrix layout.

A :class:`BlockPoint` is a vector in R^{6mn} written as an ``m x n`` grid
of blocks, each block a 3x2 array of rationals (block row ``k`` in 1..3,
block column ``l`` in 1..2, both 0-based internally).  The same shape
serves both feasible points and objective vectors; the text header tag
(``point`` vs ``objective``) tells them apart on disk.

The values are stored once, flat, in the fixed order every constraint
builder and the LP use: row-major over ``(i, j, k, l)`` (:func:`flat_index`),
so block ``(i, j)`` is the six values from offset ``6 * (i * n + j)``.
Cells are read and written as ``p[i, j, k, l]``.  An entry is an ``int``
or a ``Fraction``: the text reader and the objective constructors of
:mod:`satpoly.reductions` and :mod:`satpoly.ecbgc` keep integral values as
``int``, equal in value and in text to ``Fraction`` ones, so divide an
entry through ``Fraction``: ``(x + y) / 2`` on ``int`` entries is a float.
A grid of more than :data:`satpoly.linsys.MAX_TEXT_VARS` values is refused
with a ``BudgetError`` before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from satpoly.errors import BudgetError, InputError
from satpoly.linsys import MAX_TEXT_VARS
from satpoly.rational import Rational, content_lines, format_rational, parse_int, parse_token


def flat_index(i: int, j: int, k: int, l: int, n: int) -> int:
    """Flat position of cell ``(k, l)`` of block ``(i, j)`` (all 0-based)."""
    return ((i * n + j) * 3 + k) * 2 + l


def _check_shape(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise InputError("block grid dimensions must be positive")
    if 6 * m * n > MAX_TEXT_VARS:
        raise BudgetError(f"the {m}x{n} block grid exceeds {MAX_TEXT_VARS} values")


@dataclass
class BlockPoint:
    """An ``m x n`` grid of 3x2 rational blocks: 6mn values in flat order, each
    an ``int`` or a ``Fraction`` (divide through ``Fraction``, never ``/``)."""

    m: int
    n: int
    values: list[Rational]

    @staticmethod
    def zeros(m: int, n: int) -> "BlockPoint":
        _check_shape(m, n)
        return BlockPoint(m, n, [Fraction(0)] * (6 * m * n))

    def copy(self) -> "BlockPoint":
        return BlockPoint(self.m, self.n, self.values[:])

    def __getitem__(self, cell: tuple[int, int, int, int]) -> Rational:
        i, j, k, l = cell
        return self.values[flat_index(i, j, k, l, self.n)]

    def __setitem__(self, cell: tuple[int, int, int, int], value: Rational) -> None:
        i, j, k, l = cell
        self.values[flat_index(i, j, k, l, self.n)] = value

    def flat(self) -> list[Rational]:
        return list(self.values)

    @staticmethod
    def from_flat(values: Sequence[Rational], m: int, n: int) -> "BlockPoint":
        if len(values) != 6 * m * n:
            raise InputError("flat vector has wrong length for block grid")
        _check_shape(m, n)
        return BlockPoint(m, n, [v if isinstance(v, Fraction) else Fraction(v) for v in values])

    # -- text format ---------------------------------------------------------
    # Header "point m n" (or "objective m n"), then 3m lines of 2n rationals:
    # the block-matrix layout, one sub-row of blocks per line.  Position
    # 2j + l of line (i, k) is cell (k, l) of block (i, j), the value at
    # 6(in + j) + 2k + l: the even positions are the values from 6in + 2k
    # in steps of 6, and the odd ones the values just after those.

    def to_text(self, tag: str = "point") -> str:
        lines = [f"{tag} {self.m} {self.n}"]
        for i in range(self.m):
            for k in range(3):
                start = 6 * i * self.n + 2 * k
                cells = (self.values[start + 6 * j + l] for j in range(self.n) for l in range(2))
                lines.append(" ".join(map(format_rational, cells)))
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
            end = 6 * (i + 1) * n
            for k in range(3):
                parsed = [parse_token(t) for t in rows[3 * i + k]]
                start = 6 * i * n + 2 * k
                p.values[start:end:6] = parsed[0::2]
                p.values[start + 1 : end : 6] = parsed[1::2]
        return p


#: ObjectiveVector shares the BlockPoint shape; its cells are objective
#: coefficients rather than coordinates.
ObjectiveVector = BlockPoint


def objective_value(c: BlockPoint, x: BlockPoint) -> Rational:
    """Exact inner product of two block-shaped vectors."""
    if (c.m, c.n) != (x.m, x.n):
        raise InputError("mismatched block grid shapes")
    return sum((a * b for a, b in zip(c.values, x.values) if a), Fraction(0))
