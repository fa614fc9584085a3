"""Integer recognition: decide whether a linear maximum is attained integrally.

Two comparisons are implemented.  Over the quadric relaxation the test
compares against the metric strengthening; over the block relaxation it
compares against the O(m^2 n^2)-row strengthening, restricted to
column-balanced objectives: every block column j owns a pair of block
rows (a_j, b_j) with ``c^{a,1} + c^{b,2} = c^{a,2} + c^{b,1}`` in every
block row i.  :func:`recognize_satp` normalizes once, renaming each
column's pair onto rows (2, 3), and all later work is in those coordinates.
It also scales the objective to integers once, by the lcm of its
denominators: the balance decision, the renamings, the LP cost and the
witness's value all work on those integers, and the two optima are divided
by the scale once at the end.

The strengthened optimum is found by separation (Dantzig, Fulkerson and
Johnson 1954): the strengthening rows are the lazy rows of one
:func:`lp_maximize` call, so the rows the base optimizer violates join its
optimal tableau as cuts and the dual simplex moves on from there until no
row is violated.  The full strengthened system never reaches the simplex.

When the two optima agree, a maximizing integral vertex is extracted
constructively: the optimizer of the strengthened system is rewritten,
by per-row column swaps, per-column row permutations, and
objective-preserving four-cell exchanges, into a point with positive
top-left mass in every block, which then splits as a convex combination
``alpha * q + (1 - alpha) * h`` with q integral.  The optimizer is read
from the LP's integer optimum, ``int`` where an entry is integral and
``Fraction`` where it is not.  The normalization and the rewriting
renamings are recorded in invertible ledgers, so the witness comes back in
the caller's coordinates, where its value equalling the relaxation optimum
certifies the answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence

from satpoly.blockpoint import BlockPoint, ObjectiveVector
from satpoly.builders import (
    build_bqp_lp,
    build_met,  # unused here; perfbench/tracing.py wraps this name
    build_satp_lp,
    build_satp2_lp,  # unused here; perfbench/tracing.py wraps this name
    bqp_pair_index,
    bqp_var_count,
    met_triangle_rows,
    satp2_inequality_rows,
)
from satpoly.errors import BalanceError, InputError, InternalInvariantError
from satpoly.linsys import LinearSystem, LpResult, Row, _scaled, lp_maximize
from satpoly.rational import Rational
from satpoly.vertices import DEFAULT_CODE_BUDGET, VertexCode, code_to_point, row_codes


# ---------------------------------------------------------------------------
# Renaming ledger
# ---------------------------------------------------------------------------


#: Each permutation of the three block rows, mapped to its inverse.
_INVERSE = {p: tuple(p.index(k) for k in range(3)) for p in itertools.permutations(range(3))}
#: Per permutation q and row swap s, the six cells (q[k], l ^ s) of a block, in
#: the order of the cells (k, l) that read them.
_READ = {
    (q, s): itemgetter(*(2 * q[k] + (l ^ s) for k in range(3) for l in range(2)))
    for q in _INVERSE for s in (False, True)
}


@dataclass
class RenamingLedger:
    """Invertible record of the coordinate renamings applied to a grid.

    ``row_swap[i]`` exchanges the two cell columns of every block in block
    row i; ``col_perm[j]`` sends the original block-row index k (0-based)
    of every block in block column j to position ``col_perm[j][k]``.
    """

    row_swap: list[bool]
    col_perm: list[tuple[int, int, int]]

    @staticmethod
    def identity(m: int, n: int) -> "RenamingLedger":
        return RenamingLedger([False] * m, [(0, 1, 2)] * n)

    def is_identity(self) -> bool:
        return not any(self.row_swap) and all(p == (0, 1, 2) for p in self.col_perm)

    def cell_source(self, i: int, j: int, k: int, l: int) -> tuple[int, int]:
        """The original cell of block (i, j) shown at ``(k, l)`` in ledger coordinates."""
        return _INVERSE[self.col_perm[j]][k], l ^ self.row_swap[i]

    def _blocks(self, p: BlockPoint, perms: Sequence[tuple[int, int, int]]) -> BlockPoint:
        """``p`` read block by block: cell (k, l) of block (i, j) of the result is
        cell ``(perms[j][k], l)`` of that block of ``p``, or ``1 - l`` if row i swaps."""
        v, n, out = p.values, p.n, []
        for i, swap in enumerate(self.row_swap):
            for j, perm in enumerate(perms):
                b = 6 * (i * n + j)
                out += _READ[perm, swap](v[b : b + 6])
        return BlockPoint(p.m, p.n, out)

    def apply_point(self, p: BlockPoint) -> BlockPoint:
        """Map a point from original coordinates into ledger coordinates: each
        value is read from its :meth:`cell_source`."""
        return self._blocks(p, [_INVERSE[perm] for perm in self.col_perm])

    def pullback_point(self, p: BlockPoint) -> BlockPoint:
        """Map a point from ledger coordinates back to the original ones."""
        return self._blocks(p, self.col_perm)

    def allones_preimage(self) -> VertexCode:
        """The integral code whose renamed point has its unit at cell (1,1) everywhere."""
        row = tuple(1 if s else 0 for s in self.row_swap)
        col = tuple(p.index(0) for p in self.col_perm)
        return VertexCode(row, col)


def compose_ledgers(outer: RenamingLedger, inner: RenamingLedger) -> RenamingLedger:
    """The ledger applying ``inner`` first and ``outer`` second."""
    if len(outer.row_swap) != len(inner.row_swap) or len(outer.col_perm) != len(
        inner.col_perm
    ):
        raise InputError("ledger shapes disagree")
    row_swap = [a != b for a, b in zip(outer.row_swap, inner.row_swap)]
    col_perm = [
        tuple(po[pi[k]] for k in range(3))
        for po, pi in zip(outer.col_perm, inner.col_perm)
    ]
    return RenamingLedger(row_swap, col_perm)


def _row_differences(c: ObjectiveVector, j: int) -> list[tuple[Rational, ...]]:
    """``d_k = (c^{k,1}_{ij} - c^{k,2}_{ij})_i`` of column j; (a, b) balances it iff d_a == d_b."""
    v = c.values
    blocks = range(6 * j, len(v), 6 * c.n)  # the offsets of the blocks of column j
    return [tuple(v[b + 2 * k] - v[b + 2 * k + 1] for b in blocks) for k in range(3)]


def normalization_ledger(c: ObjectiveVector) -> RenamingLedger:
    """Per-column row renaming moving some balancing pair onto rows (2, 3).

    The one balance decision: each column's row differences are taken once
    and the pairs tried in the order (2, 3), (1, 2), (1, 3).  A column the
    pair (2, 3) balances keeps the identity; a column balanced by (1, b)
    gets the permutation sending rows 1 and b to 2 and 3.  Raises
    BalanceError for the first column no pair balances.
    """
    ledger = RenamingLedger.identity(c.m, c.n)
    for j in range(c.n):
        d = _row_differences(c, j)
        if d[1] == d[2]:
            continue
        if d[0] == d[1]:
            ledger.col_perm[j] = (1, 2, 0)
        elif d[0] == d[2]:
            ledger.col_perm[j] = (1, 0, 2)
        else:
            raise BalanceError(j)
    return ledger


# ---------------------------------------------------------------------------
# Optimizer rewriting
# ---------------------------------------------------------------------------

# Cell shorthands within a 3x2 block, 0-based (k, l):
_X, _Y = (0, 0), (0, 1)
_Z, _T = (1, 0), (1, 1)
_U, _V = (2, 0), (2, 1)


class _Rewriter:
    """Working state for the positive-top-left rewriting procedure.

    The point ``p`` keeps the normalized coordinates throughout, where it
    meets the canonical strengthened system and the objective is balanced
    by the row pair (2, 3) in every column.  A renaming only updates
    ``ledger``; the procedure reads and writes cells in ledger
    coordinates, each one mapped back to its cell of ``p`` by
    :meth:`RenamingLedger.cell_source`.  The rewritten point is
    ``ledger.apply_point(p)``.
    """

    def __init__(self, w: BlockPoint):
        self.p = w
        self.ledger = RenamingLedger.identity(w.m, w.n)
        self.rotated: list[int] = []  # columns moved to the positive prefix

    # -- renamings ---------------------------------------------------------

    def lswap(self, i: int) -> None:
        self.ledger.row_swap[i] = not self.ledger.row_swap[i]

    def kperm(self, j: int, sigma: tuple[int, int, int]) -> None:
        self.ledger.col_perm[j] = tuple(sigma[k] for k in self.ledger.col_perm[j])

    # -- views -------------------------------------------------------------

    def cell(self, i: int, j: int, kl) -> Fraction:
        k, l = self.ledger.cell_source(i, j, *kl)
        return self.p.values[6 * (i * self.p.n + j) + 2 * k + l]

    def row_sum(self, j: int, k: int) -> Fraction:
        return self.cell(0, j, (k, 0)) + self.cell(0, j, (k, 1))

    def left_col_sum(self, i: int) -> Fraction:
        return self.cell(i, 0, _X) + self.cell(i, 0, _Z) + self.cell(i, 0, _U)

    # -- the objective-preserving four-cell exchange ------------------------

    def eps_fix(self, i: int, j: int, target) -> None:
        """Shift mass in block (i, j) until ledger cell ``target`` is positive.

        The four cells of the balancing rows (2, 3) of ``p`` move by +/- eps
        along the two diagonals; the balance identity keeps the objective
        unchanged, and the shift cancels inside every row sum, left-column
        sum, and strengthening row, so eps is limited only by the two
        decreased cells.
        """
        plus = (2, 5)  # the offsets 2k + l of cells (2,1) and (3,2)
        minus = (3, 4)  # and of cells (2,2) and (3,1)
        k, l = self.ledger.cell_source(i, j, *target)
        if 2 * k + l in plus:
            inc, dec = plus, minus
        elif 2 * k + l in minus:
            inc, dec = minus, plus
        else:
            raise InternalInvariantError("exchange target outside the balanced pair")
        v, b = self.p.values, 6 * (i * self.p.n + j)
        d0, d1 = v[b + dec[0]], v[b + dec[1]]
        if d0 <= 0 or d1 <= 0:
            raise InternalInvariantError(
                "exchange needs strictly positive cells to draw from"
            )
        eps = Fraction(min(d0, d1), 2)
        for o in inc:
            v[b + o] += eps
        for o in dec:
            v[b + o] -= eps


_ROTATE = (2, 0, 1)  # block rows move up one slot; the top row wraps to the bottom
_SWAP_23 = (0, 2, 1)


def construct_wstar(w: BlockPoint) -> tuple[BlockPoint, RenamingLedger]:
    """Rewrite a strengthened-system optimizer to positive top-left mass.

    Works in normalized coordinates and checks none of its preconditions,
    which :func:`recognize_satp` guarantees: ``w`` is an optimizer of the
    canonical strengthened system (the base system of
    :func:`build_satp_lp` plus the rows of :func:`satp2_inequality_rows`)
    for an objective every column of which the row pair (2, 3) balances
    (:func:`normalization_ledger` renames a balanced objective there).  If
    ``w`` already has positive top-left mass everywhere it is returned
    unchanged with an identity ledger.  Otherwise ``w`` stays fixed while
    the rewriting renames only the ledger and shifts mass by exchanges
    that preserve every such objective's value.  Returns ``wstar`` with
    the ledger from the coordinates of ``w`` to those of ``wstar``.  The
    values of ``w`` may mix ``int`` and ``Fraction``; an exchange moves a
    ``Fraction``.
    """
    m, n = w.m, w.n
    if all(x > 0 for x in w.values[::6]):  # the top-left cell of every block
        return w.copy(), RenamingLedger.identity(m, n)

    state = _Rewriter(w.copy())

    # Rows whose left cell column carries no mass get their columns swapped.
    for i in range(m):
        if state.left_col_sum(i) == 0:
            state.lswap(i)

    # Columns with an empty second block row but mass in the third swap them.
    for j in range(n):
        if state.row_sum(j, 1) == 0 and state.row_sum(j, 2) > 0:
            state.kperm(j, _SWAP_23)

    # Columns with an empty first block row: make (2,1) positive in every
    # block, then rotate the block rows up so the column joins the
    # all-positive prefix.
    for j in range(n):
        if state.row_sum(j, 0) == 0:
            for i in range(m):
                if state.cell(i, j, _Z) == 0:
                    state.eps_fix(i, j, _Z)
            state.kperm(j, _ROTATE)
            state.rotated.append(j)

    max_iters = m * n * (m + n)
    iters = 0
    while True:
        target = None
        for j in range(n):
            if j in state.rotated:
                continue
            for i in range(m):
                if state.cell(i, j, _X) == 0:
                    target = (i, j)
                    break
            if target:
                break
        if target is None:
            break
        iters += 1
        if iters > max_iters:
            raise InternalInvariantError("rewriting exceeded its iteration bound")
        i, j = target
        if any(
            state.cell(ii, jj, _X) == 0
            for jj in state.rotated
            for ii in range(m)
        ):  # pragma: no cover - invariant guard
            raise InternalInvariantError("a normalized column lost positivity")

        # Make the (2,1) cell of the focus block positive.
        if state.cell(i, j, _Z) == 0:
            state.eps_fix(i, j, _Z)

        # Inspect block row i over the columns left of j: rotated columns
        # first, then earlier non-rotated columns.
        left = list(state.rotated) + [
            l for l in range(j) if l not in state.rotated
        ]
        standing = []
        for l in left:
            if state.cell(i, l, _Y) == 0:
                if l in state.rotated:
                    if state.cell(i, l, _T) > 0:
                        state.eps_fix(i, l, _Y)  # witness dissolved
                    else:
                        standing.append(l)
                else:
                    if (
                        state.cell(i, l, _T) == 0
                        and state.cell(i, l, _Z) > 0
                        and state.cell(i, l, _V) > 0
                    ):
                        state.eps_fix(i, l, _T)
                    standing.append(l)
        if not standing:
            # The whole block row can swap its cell columns.
            state.lswap(i)
            continue

        # Inspect block column j: every block needs (2,1) positive before
        # the rows can rotate up.
        blocked = False
        for k in range(m):
            if state.cell(k, j, _Z) == 0:
                if state.cell(k, j, _T) <= 0:  # pragma: no cover - invariant guard
                    raise InternalInvariantError("second-row mass vanished")
                if state.cell(k, j, _U) > 0:
                    state.eps_fix(k, j, _Z)
                else:
                    blocked = True
        if not blocked:
            state.kperm(j, _ROTATE)
            state.rotated.append(j)
            continue

        # A standing row witness and a blocked column cannot coexist for a
        # feasible point: the strengthening rows exclude it.
        raise InternalInvariantError(
            "rewriting case analysis exhausted on a feasible point"
        )

    return state.ledger.apply_point(state.p), state.ledger


def decompose(
    wstar: BlockPoint, ledger: RenamingLedger, base: LinearSystem
) -> tuple[Rational, VertexCode, BlockPoint]:
    """Split a positive-top-left point as ``alpha * q + (1 - alpha) * h``.

    ``alpha`` is the minimum top-left cell over all blocks, ``q`` is the
    integral vertex whose renamed point is the all-top-left unit point
    (returned in original coordinates via the inverse ledger), and ``h``
    stays feasible for the base relaxation ``base`` (:func:`build_satp_lp`
    of the grid), in ledger coordinates.
    """
    m, n = wstar.m, wstar.n
    if len(ledger.row_swap) != m or len(ledger.col_perm) != n:
        raise InputError("ledger shape disagrees with the point")
    alpha = min(wstar.values[::6])
    if alpha <= 0:
        raise InputError("decomposition needs positive top-left mass everywhere")
    q = ledger.allones_preimage()
    if alpha == 1:
        h = ledger.apply_point(code_to_point(q))
        return Fraction(1), q, h
    scale = 1 - alpha
    h = BlockPoint(
        m, n, [(val - alpha if o % 6 == 0 else val) / scale for o, val in enumerate(wstar.values)]
    )
    if not base.is_feasible(h.flat()):  # pragma: no cover
        raise InternalInvariantError("decomposition residual left the base system")
    return alpha, q, h


# ---------------------------------------------------------------------------
# Recognition drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecognitionOutcome:
    """Answer plus diagnostics of the two LP optima.

    ``answer`` is true exactly when the relaxation and strengthened optima
    agree; for the block recognizer a maximizing integral witness is then
    attached (with ``objective . witness == lp_value``), while the quadric
    recognizer is non-constructive and leaves ``witness`` empty.
    """

    answer: bool
    witness: Optional[VertexCode]
    relaxation_value: Rational
    strengthened_value: Rational

    @property
    def lp_value(self) -> Rational:
        """The LP optimum, the relaxation's: ``relaxation_value``."""
        return self.relaxation_value


def _optima(
    base: LinearSystem, rows: Sequence[tuple[Row, Rational]], objective: list[Rational]
) -> tuple[LpResult, LpResult]:
    """Optima over ``base`` and over ``base`` plus the ``<=`` rows ``rows``, the
    second separated by :func:`lp_maximize` with ``rows`` as its lazy rows."""
    relaxed = lp_maximize(base, objective, lazy_rows=rows)
    if relaxed.status != "Optimal" or relaxed.lazy.status != "Optimal":
        raise InternalInvariantError("base and cut systems are bounded and nonempty")
    return relaxed, relaxed.lazy


def recognize_satp(c: ObjectiveVector, m: int, n: int) -> RecognitionOutcome:
    """Integer recognition over the block relaxation for balanced objectives.

    The objective is renamed so every column is balanced by the row pair
    (2, 3); the base relaxation is invariant under that renaming, and the
    back-renamed strengthened system is an equally valid tightening with
    the same integral vertices, so comparing the two optima in normalized
    coordinates decides integral attainment.  The strengthened optimum is
    computed by separating the rows of :func:`satp2_inequality_rows` from
    the base optimizer; its optimizer is also the point handed to
    :func:`construct_wstar`.  A positive answer comes with a maximizing
    integral witness in the caller's coordinates.

    The objective is scaled to integers once, so the LP cost, the balance
    decision and the witness's value are all integer work; the two optima
    are divided by the scale once, and the values of the outcome are
    ``Fraction``s.  The point handed to :func:`construct_wstar` is read from
    the strengthened optimum's integer ``scaled_point``, and is that list
    itself when its denominator is 1.

    The witness is its own certificate: its value is at most the integral
    maximum, which is at most the strengthened and relaxation optima, so a
    witness whose value equals the relaxation optimum proves the answer.
    That one exact test is the only check of a positive answer; no
    membership test and no :func:`decompose` call re-proves what it
    proves.  A witness that misses the optimum is a bug and raises
    InternalInvariantError.
    """
    if (c.m, c.n) != (m, n):
        raise InputError("objective shape disagrees with the grid")
    v, scale = _scaled(c.values)
    c = BlockPoint(m, n, v)  # the objective times scale, in integers
    pre = normalization_ledger(c)  # raises BalanceError for an unbalanced column
    c0 = pre.apply_point(c)
    rows, base = satp2_inequality_rows(m, n), build_satp_lp(m, n)  # rows refused first
    relaxed, strengthened = _optima(base, rows, c0.flat())
    answer = relaxed.value == strengthened.value
    witness = None
    if answer:
        xs, d = strengthened.scaled_point
        w = BlockPoint(m, n, xs if d == 1 else [Fraction(x, d) if x % d else x // d for x in xs])
        _, ledger = construct_wstar(w)
        witness = compose_ledgers(ledger, pre).allones_preimage()
        if _code_value(c, witness.row, witness.col) != relaxed.value:
            raise InternalInvariantError("extracted witness misses the optimum")
    return RecognitionOutcome(
        answer=answer,
        witness=witness,
        relaxation_value=relaxed.value / scale,
        strengthened_value=strengthened.value / scale,
    )


def recognize_bqp(objective: list[Rational], n: int) -> RecognitionOutcome:
    """Integer recognition over the quadric relaxation via its metric tightening.

    The tightened optimum is computed by separating the triangle rows of
    :func:`met_triangle_rows` from the quadric relaxation's optimizer.
    """
    if n < 3:
        raise InputError("quadric recognition needs n >= 3")
    if len(objective) != bqp_var_count(n):
        raise InputError("objective has wrong dimension")
    rows = met_triangle_rows(n)  # refused before the base is built
    relaxed, tightened = _optima(build_bqp_lp(n), rows, objective)
    return RecognitionOutcome(
        answer=relaxed.value == tightened.value,
        witness=None,
        relaxation_value=relaxed.value,
        strengthened_value=tightened.value,
    )


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


def _code_value(c: ObjectiveVector, row: tuple[int, ...], col: tuple[int, ...]) -> Rational:
    """``c`` at the integral vertex coded ``(row, col)``: the m*n cells it selects."""
    v, n = c.values, c.n
    cols = [6 * j + 2 * cj for j, cj in enumerate(col)]  # cell (col_j, 0) of block (0, j)
    total = 0
    for i, ri in enumerate(row):
        b = 6 * n * i + ri
        for o in cols:
            total += v[b + o]
    return total


def integer_max_oracle(
    c: ObjectiveVector, m: int, n: int, budget: int = DEFAULT_CODE_BUDGET
) -> tuple[Rational, VertexCode]:
    """Exact maximum of the objective over all ``2^m 3^n`` integral vertices.

    Walks the ``2^m`` row codes of :func:`row_codes` in lexicographic
    order.  With the row code fixed, block column j contributes
    ``sum_i c[i, j, k, row_i]`` for its colour k alone, so each column
    takes its best colour, ties to the smallest.  The first row code
    reaching the maximum, with those colours, is the lexicographically
    first argmax over all codes.  Ground truth for the recognition drivers.
    """
    if (c.m, c.n) != (m, n):
        raise InputError("objective shape disagrees with the grid")
    rows = row_codes(m, n, budget)
    v, scale = _scaled(c.values)  # the objective times scale, in integers
    # per block column, the six-value blocks of rows 0..m-1
    columns = [[v[6 * (i * n + j) : 6 * (i * n + j) + 6] for i in range(m)] for j in range(n)]
    best: Optional[int] = None
    for row in rows:
        total, col = 0, []
        for blocks in columns:
            sums = [sum(b[2 * k + r] for b, r in zip(blocks, row)) for k in range(3)]
            top = max(sums)
            total += top
            col.append(sums.index(top))
        if best is None or total > best:
            best, best_code = total, (row, tuple(col))
    return Fraction(best, scale), VertexCode(*best_code)


def bqp_brute_force_max(
    objective: list[Rational], n: int
) -> tuple[Rational, tuple[int, ...]]:
    """Exact maximum over the 2^n zero-one points with products filled in."""
    if len(objective) != bqp_var_count(n):
        raise InputError("objective has wrong dimension")
    best_val: Optional[Fraction] = None
    best_bits: Optional[tuple[int, ...]] = None
    for bits in itertools.product((0, 1), repeat=n):
        total = Fraction(0)
        for i in range(n):
            if bits[i]:
                total += objective[i]
                for j in range(i + 1, n):
                    if bits[j]:
                        total += objective[bqp_pair_index(i, j, n)]
        if best_val is None or total > best_val:
            best_val = total
            best_bits = bits
    assert best_val is not None and best_bits is not None
    return best_val, best_bits
