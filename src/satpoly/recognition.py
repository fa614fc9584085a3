"""Integer recognition: decide whether a linear maximum is attained integrally.

Two comparisons are implemented.  Over the quadric relaxation the test
compares against the metric strengthening; over the block relaxation it
compares against the O(m^2 n^2)-row strengthening, restricted to
column-balanced objectives: every block column j owns a pair of block
rows (a_j, b_j) with ``c^{a,1} + c^{b,2} = c^{a,2} + c^{b,1}`` in every
block row i.

The strengthened optimum is found by separation (Dantzig, Fulkerson and
Johnson 1954): the strengthening rows the base optimizer violates become
cuts, and the base rows plus all cuts are solved again until no row is
violated, so the full strengthened system never reaches the simplex.

When the two optima agree, a maximizing integral vertex is extracted
constructively: the optimizer of the strengthened system is rewritten,
by per-row column swaps, per-column row permutations, and
objective-preserving four-cell exchanges, into a point with positive
top-left mass in every block, which then splits as a convex combination
``alpha * q + (1 - alpha) * h`` with q integral.  All renamings are
recorded in an invertible ledger so the witness comes back in the
caller's coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from satpoly.blockpoint import BlockPoint, ObjectiveVector, objective_value
from satpoly.builders import (
    build_bqp_lp,
    build_met,  # unused here; perfbench/tracing.py wraps this name
    build_satp_lp,
    build_satp2_lp,
    bqp_pair_index,
    bqp_var_count,
    met_triangle_rows,
    satp2_inequality_rows,
)
from satpoly.errors import (
    BalanceError,
    BudgetError,
    InputError,
    InternalInvariantError,
)
from satpoly.linsys import LinearSystem, LpResult, Row, lp_maximize, violated_rows
from satpoly.rational import Rational
from satpoly.vertices import DEFAULT_CODE_BUDGET, VertexCode, code_to_point

_PAIRS_1BASED = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))


@dataclass(frozen=True)
class BalanceCertificate:
    """Per-column balancing pairs ``(a_j, b_j)``, 1-based block rows."""

    pairs: tuple[tuple[int, int], ...]


def pair_balances_column(c: ObjectiveVector, j: int, a: int, b: int) -> bool:
    """Check ``c^{a,1} + c^{b,2} == c^{a,2} + c^{b,1}`` for every block row (a, b 1-based)."""
    a0, b0 = a - 1, b - 1
    for i in range(c.m):
        blk = c.cells[i][j]
        if blk[a0][0] + blk[b0][1] != blk[a0][1] + blk[b0][0]:
            return False
    return True


def check_balance(c: ObjectiveVector) -> BalanceCertificate:
    """Lexicographically smallest balancing pair per column, or BalanceError."""
    pairs = []
    for j in range(c.n):
        for a, b in _PAIRS_1BASED:
            if pair_balances_column(c, j, a, b):
                pairs.append((a, b))
                break
        else:
            raise BalanceError(j)
    return BalanceCertificate(tuple(pairs))


# ---------------------------------------------------------------------------
# Renaming ledger
# ---------------------------------------------------------------------------


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

    def cell_map(self, i: int, j: int, k: int, l: int) -> tuple[int, int]:
        return self.col_perm[j][k], (1 - l) if self.row_swap[i] else l

    def apply_point(self, p: BlockPoint) -> BlockPoint:
        """Map a point from original coordinates into ledger coordinates."""
        out = BlockPoint.zeros(p.m, p.n)
        for i, j, k, l, val in p.iter_cells():
            kk, ll = self.cell_map(i, j, k, l)
            out.cells[i][j][kk][ll] = val
        return out

    def pullback_point(self, p: BlockPoint) -> BlockPoint:
        """Map a point from ledger coordinates back to the original ones."""
        out = BlockPoint.zeros(p.m, p.n)
        for i, j, k, l, val in p.iter_cells():
            kk, ll = self.cell_map(i, j, k, l)
            out.cells[i][j][k][l] = p.cells[i][j][kk][ll]
        return out

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


def normalization_ledger(c: ObjectiveVector) -> RenamingLedger:
    """Per-column row renaming moving some balancing pair onto rows (2, 3).

    Columns already balanced by the pair (2, 3) keep the identity; the
    others get the permutation sending their lexicographically smallest
    balancing pair (a, b) to (2, 3).
    """
    ledger = RenamingLedger.identity(c.m, c.n)
    for j in range(c.n):
        if pair_balances_column(c, j, 2, 3):
            continue
        for a, b in _PAIRS_1BASED:
            if pair_balances_column(c, j, a, b):
                sigma: list[Optional[int]] = [None, None, None]
                sigma[a - 1] = 1
                sigma[b - 1] = 2
                sigma[next(k for k in range(3) if sigma[k] is None)] = 0
                ledger.col_perm[j] = tuple(sigma)  # type: ignore[assignment]
                break
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

    Starts from a point feasible for the canonical strengthened system and
    an objective balanced by the pair (2, 3) in every column; all later
    renamings keep the tracked pairs and the ledger image of the system in
    step with the point.
    """

    def __init__(self, w: BlockPoint, c: ObjectiveVector):
        self.m, self.n = w.m, w.n
        self.p = w.copy()
        self.c = c.copy()
        self.ledger = RenamingLedger.identity(self.m, self.n)
        # Current balancing pair per column, 0-based block rows.
        self.pairs: list[tuple[int, int]] = [(1, 2)] * self.n
        self.rotated: list[int] = []  # columns moved to the positive prefix

    # -- renamings ---------------------------------------------------------

    def lswap(self, i: int) -> None:
        for j in range(self.n):
            for blk in (self.p.cells[i][j], self.c.cells[i][j]):
                for k in range(3):
                    blk[k][0], blk[k][1] = blk[k][1], blk[k][0]
        self.ledger.row_swap[i] = not self.ledger.row_swap[i]

    def kperm(self, j: int, sigma: tuple[int, int, int]) -> None:
        for i in range(self.m):
            for grid in (self.p.cells, self.c.cells):
                old = grid[i][j]
                new = [None, None, None]
                for k in range(3):
                    new[sigma[k]] = old[k]
                grid[i][j] = new  # type: ignore[assignment]
        old_perm = self.ledger.col_perm[j]
        self.ledger.col_perm[j] = tuple(sigma[old_perm[k]] for k in range(3))
        a, b = self.pairs[j]
        self.pairs[j] = (sigma[a], sigma[b])

    # -- views -------------------------------------------------------------

    def cell(self, i: int, j: int, kl) -> Fraction:
        return self.p.cells[i][j][kl[0]][kl[1]]

    def row_sum(self, j: int, k: int) -> Fraction:
        blk = self.p.cells[0][j]
        return blk[k][0] + blk[k][1]

    def left_col_sum(self, i: int) -> Fraction:
        blk = self.p.cells[i][0]
        return blk[0][0] + blk[1][0] + blk[2][0]

    # -- the objective-preserving four-cell exchange ------------------------

    def eps_fix(self, i: int, j: int, target) -> None:
        """Shift mass within block (i, j) so that ``target`` becomes positive.

        The four cells of the column's balancing pair move by +/- eps; the
        balance identity keeps the objective unchanged, and the shift
        cancels inside every row sum, left-column sum, and strengthening
        row, so eps is limited only by the two decreased cells.
        """
        a, b = self.pairs[j]
        plus = ((a, 0), (b, 1))
        minus = ((a, 1), (b, 0))
        if target in plus:
            inc, dec = plus, minus
        elif target in minus:
            inc, dec = minus, plus
        else:
            raise InternalInvariantError("exchange target outside the balanced pair")
        cblk = self.c.cells[i][j]
        if (
            cblk[plus[0][0]][plus[0][1]] + cblk[plus[1][0]][plus[1][1]]
            != cblk[minus[0][0]][minus[0][1]] + cblk[minus[1][0]][minus[1][1]]
        ):
            raise InternalInvariantError("tracked pair lost the balance identity")
        d0 = self.cell(i, j, dec[0])
        d1 = self.cell(i, j, dec[1])
        if d0 <= 0 or d1 <= 0:
            raise InternalInvariantError(
                "exchange needs strictly positive cells to draw from"
            )
        eps = min(d0, d1) / 2
        blk = self.p.cells[i][j]
        for k, l in inc:
            blk[k][l] += eps
        for k, l in dec:
            blk[k][l] -= eps

    # -- verification ------------------------------------------------------

    def check_current(self, reference_value: Fraction) -> None:
        # The base rows are invariant under renamings, and a renamed
        # strengthening row dotted with the point equals the canonical row
        # dotted with its pullback: the pullback meets the canonical
        # strengthened system exactly when the point meets the renamed one.
        original = self.ledger.pullback_point(self.p)
        if not build_satp2_lp(self.m, self.n).is_feasible(original.flat()):
            raise InternalInvariantError(
                "rewritten point violates the renamed strengthened system"
            )
        if objective_value(self.c, self.p) != reference_value:
            raise InternalInvariantError("rewriting changed the objective value")


_ROTATE = (2, 0, 1)  # block rows move up one slot; the top row wraps to the bottom
_SWAP_23 = (0, 2, 1)


def construct_wstar(
    w: BlockPoint, c: ObjectiveVector
) -> tuple[BlockPoint, RenamingLedger]:
    """Rewrite a strengthened-system optimizer to positive top-left mass.

    ``c`` is first normalized so every column is balanced by the row pair
    (2, 3); ``w`` must be feasible for the correspondingly renamed
    strengthened system (for an already-normalized objective that is the
    canonical one, which is what :func:`recognize_satp` passes).  Returns
    the rewritten point in renamed coordinates together with the composed
    ledger of all renamings applied, including the normalization.  The
    objective value is preserved exactly.  If ``w`` already has positive
    top-left mass everywhere it is returned unchanged with an identity
    ledger.
    """
    m, n = w.m, w.n
    if (c.m, c.n) != (m, n):
        raise InputError("point and objective shapes disagree")

    if all(w.cells[i][j][0][0] > 0 for i in range(m) for j in range(n)):
        if not build_satp2_lp(m, n).is_feasible(w.flat()):
            raise InputError("point is not feasible for the strengthened system")
        return w.copy(), RenamingLedger.identity(m, n)

    pre = normalization_ledger(c)
    w0 = pre.apply_point(w)
    c0 = pre.apply_point(c)
    for j in range(n):
        if not pair_balances_column(c0, j, 2, 3):  # pragma: no cover
            raise InternalInvariantError("normalization failed to balance a column")
    if not build_satp2_lp(m, n).is_feasible(w0.flat()):
        raise InputError(
            "point is not feasible for the normalized strengthened system"
        )

    state = _Rewriter(w0, c0)
    value = objective_value(c0, w0)

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

    state.check_current(value)
    return state.p, compose_ledgers(state.ledger, pre)


def decompose(
    wstar: BlockPoint, ledger: RenamingLedger
) -> tuple[Rational, VertexCode, BlockPoint]:
    """Split a positive-top-left point as ``alpha * q + (1 - alpha) * h``.

    ``alpha`` is the minimum top-left cell over all blocks, ``q`` is the
    integral vertex whose renamed point is the all-top-left unit point
    (returned in original coordinates via the inverse ledger), and ``h``
    stays feasible for the base relaxation, in ledger coordinates.
    """
    m, n = wstar.m, wstar.n
    if len(ledger.row_swap) != m or len(ledger.col_perm) != n:
        raise InputError("ledger shape disagrees with the point")
    alpha = min(wstar.cells[i][j][0][0] for i in range(m) for j in range(n))
    if alpha <= 0:
        raise InputError("decomposition needs positive top-left mass everywhere")
    q = ledger.allones_preimage()
    if alpha == 1:
        h = ledger.apply_point(code_to_point(q))
        return Fraction(1), q, h
    h = BlockPoint.zeros(m, n)
    scale = 1 - alpha
    for i, j, k, l, val in wstar.iter_cells():
        if (k, l) == (0, 0):
            h.cells[i][j][k][l] = (val - alpha) / scale
        else:
            h.cells[i][j][k][l] = val / scale
    if not build_satp_lp(m, n).is_feasible(h.flat()):  # pragma: no cover
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
    lp_value: Rational
    witness: Optional[VertexCode]
    relaxation_value: Rational
    strengthened_value: Rational


def _separate(
    base: LinearSystem, rows: list[tuple[Row, Rational]], objective: list[Rational]
) -> tuple[LpResult, LpResult]:
    """Optima over ``base`` and over ``base`` plus the ``<=`` rows ``rows``.

    The second comes by separation: the rows the optimizer violates join
    the cuts, and the base rows plus all cuts are solved again from scratch
    until no row is violated.  That optimizer is feasible for the full
    system and optimal for a relaxation of it.  An optimizer meets its own
    cuts, so each round adds a row and the loop ends.
    """
    relaxed = result = lp_maximize(base, objective)
    cuts: set[int] = set()
    while result.status == "Optimal" and (violated := violated_rows(rows, result.point)):
        if not cuts.isdisjoint(violated):
            raise InternalInvariantError("LP optimizer violates one of its own cuts")
        cuts.update(violated)
        ineq = base.ineq_rows + [rows[k] for k in sorted(cuts)]
        system = LinearSystem(base.var_count, base.eq_rows, ineq, base.nonneg)
        result = lp_maximize(system, objective)
    if relaxed.status != "Optimal" or result.status != "Optimal":
        raise InternalInvariantError("base and cut systems are bounded and nonempty")
    if result.value > relaxed.value:  # pragma: no cover - sandwich guard
        raise InternalInvariantError("strengthened optimum exceeded the relaxation")
    return relaxed, result


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
    """
    if (c.m, c.n) != (m, n):
        raise InputError("objective shape disagrees with the grid")
    pre = normalization_ledger(c)  # raises BalanceError for an unbalanced column
    c0 = pre.apply_point(c)
    relaxed, strengthened = _separate(
        build_satp_lp(m, n), satp2_inequality_rows(m, n), c0.flat()
    )
    answer = relaxed.value == strengthened.value
    witness = None
    if answer:
        wstar, ledger = construct_wstar(
            BlockPoint.from_flat(strengthened.point, m, n), c0
        )
        decompose(wstar, ledger)  # checks the residual stays in the base system
        witness = compose_ledgers(ledger, pre).allones_preimage()
        if objective_value(c, code_to_point(witness)) != relaxed.value:
            raise InternalInvariantError("extracted witness misses the optimum")
    return RecognitionOutcome(
        answer=answer,
        lp_value=relaxed.value,
        witness=witness,
        relaxation_value=relaxed.value,
        strengthened_value=strengthened.value,
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
    relaxed, tightened = _separate(build_bqp_lp(n), met_triangle_rows(n), objective)
    return RecognitionOutcome(
        answer=relaxed.value == tightened.value,
        lp_value=relaxed.value,
        witness=None,
        relaxation_value=relaxed.value,
        strengthened_value=tightened.value,
    )


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def integer_max_oracle(
    c: ObjectiveVector, m: int, n: int, budget: int = DEFAULT_CODE_BUDGET
) -> tuple[Rational, VertexCode]:
    """Exact maximum of the objective over all integral vertices.

    Scans the ``2^m 3^n`` codes in lexicographic order and returns the
    first argmax.  Ground truth for the recognition drivers.
    """
    if (c.m, c.n) != (m, n):
        raise InputError("objective shape disagrees with the grid")
    count = (2**m) * (3**n)
    if count > budget:
        raise BudgetError(f"{count} codes exceed budget {budget}")
    best_val: Optional[Fraction] = None
    best_code: Optional[VertexCode] = None
    for row in itertools.product((0, 1), repeat=m):
        for col in itertools.product((0, 1, 2), repeat=n):
            total = Fraction(0)
            for i in range(m):
                ri = row[i]
                crow = c.cells[i]
                for j in range(n):
                    total += crow[j][col[j]][ri]
            if best_val is None or total > best_val:
                best_val = total
                best_code = VertexCode(row, col)
    assert best_val is not None and best_code is not None
    return best_val, best_code


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
