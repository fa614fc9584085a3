"""Constraint-system builders for the five polytopes.

Variable orderings are fixed and documented so tight-set indices and file
formats are reproducible:

* SATP systems: flat index ``((i*n + j)*3 + k)*2 + l`` (0-based, row-major
  over blocks then cells; see :mod:`satpoly.blockpoint`).
* BQP systems: ``x_i`` at positions ``0..n-1`` followed by ``x_{ij}``
  (``i < j``) in lexicographic pair order.
* BQP standard form: upper-triangular blocks ``(i <= j)`` in lexicographic
  order, four cells per block, row-major over ``(k, l)`` with k, l in {1,2}.

Rows are sparse :data:`satpoly.linsys.Row` maps with plain integer
``+1``/``-1`` coefficients; the right sides are the integers 0, 1 and 3.

Each builder refuses a size it will not build before it allocates anything:
a non-positive block grid, or a quadric ``n`` below 2 (3 for MET), with
``InputError``; a system of more than :data:`satpoly.linsys.MAX_TEXT_VARS`
variables, or strengthening rows of more than that many coefficients, with
``BudgetError``.  :data:`BUILDERS` names the five systems for the CLI.

:func:`build_satp_lp`, :func:`satp2_inequality_rows`, :func:`build_bqp_lp`
and :func:`met_triangle_rows` are memoized by their dimensions, 16 shapes
each (``functools.lru_cache``): a repeated shape returns the same immutable
system or row tuple, and a memoized system keeps its phase-1 tableau.

Equality generators: the consistency families are stated over all index
pairs, but adjacent pairs already span the same row space, so only the
adjacent-pair generators are emitted (smaller systems, identical feasible
set).

Row ordering inside each SATP system: block-sum rows (i-major, then j),
then row-consistency rows (per i, adjacent columns j, j+1), then
column-consistency rows (per k, per j, adjacent rows i, i+1).  The
strengthened system appends its inequality rows after those, iterating
``i, k != i, j, l != j`` and emitting the left-column-heavy row before the
top-row-heavy row for each quadruple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from satpoly.blockpoint import BlockPoint, _check_shape, flat_index
from satpoly.errors import BudgetError, FaceMembershipError, InputError
from satpoly.linsys import MAX_TEXT_VARS, FrozenRows, LinearSystem, Row
from satpoly.rational import Rational

_ZERO = Fraction(0)

# A memoized builder keeps the results of its 16 most recently used shapes.
_memoized = lru_cache(maxsize=16)


# Per-block cell triples used by the strengthened system's inequalities.
# "Odd" cells are (1,2),(2,1),(3,1); "even" cells are the complementary
# (1,1),(2,2),(3,2) (1-based).  Every block's six cells split into these
# two triples, and each inequality charges one triple from each of four
# blocks arranged on a 2x2 sub-grid.
ODD_CELLS = ((0, 1), (1, 0), (2, 0))
EVEN_CELLS = ((0, 0), (1, 1), (2, 1))


@_memoized
def build_satp_lp(m: int, n: int) -> LinearSystem:
    """LP relaxation of the 3-SAT polytope on an ``m x n`` block grid.

    Equalities: one block-sum row per block (mn rows), row-consistency of
    left-column sums across adjacent block columns (m(n-1) rows), and
    per-k row-sum consistency across adjacent block rows (3n(m-1) rows).
    All 6mn variables are nonnegative.  The grid must be positive and hold at
    most ``MAX_TEXT_VARS`` values.
    """
    _check_shape(m, n)
    nvars = 6 * m * n
    eq_rows: list[tuple[Row, Rational]] = []

    for i in range(m):
        for j in range(n):
            row = {flat_index(i, j, k, l, n): 1 for k in range(3) for l in range(2)}
            eq_rows.append((row, 1))

    for i in range(m):
        for j in range(n - 1):
            row = {}
            for k in range(3):
                row[flat_index(i, j, k, 0, n)] = 1
                row[flat_index(i, j + 1, k, 0, n)] = -1
            eq_rows.append((row, 0))

    for k in range(3):
        for j in range(n):
            for i in range(m - 1):
                row = {}
                for l in range(2):
                    row[flat_index(i, j, k, l, n)] = 1
                    row[flat_index(i + 1, j, k, l, n)] = -1
                eq_rows.append((row, 0))

    return LinearSystem(nvars, eq_rows=eq_rows, nonneg=[True] * nvars)


@_memoized
def satp2_inequality_rows(m: int, n: int) -> FrozenRows:
    """The O(m^2 n^2) strengthening rows.

    For every ordered pair of block rows ``i != k`` and block columns
    ``j != l`` two rows are emitted, each bounding a sum of four
    cell-triples (of four distinct blocks, so twelve distinct cells) by 3.
    The grid is checked as :func:`build_satp_lp` checks it, and rows over
    ``MAX_TEXT_VARS`` coefficients in all are refused unbuilt.
    """
    _check_shape(m, n)
    if 24 * m * (m - 1) * n * (n - 1) > MAX_TEXT_VARS:
        raise BudgetError(f"the {m}x{n} satp2 rows exceed {MAX_TEXT_VARS} coefficients")
    rows: list[tuple[Row, Rational]] = []

    def add_row(parts):
        row = {}
        for (bi, bj), cells in parts:
            for k, l in cells:
                row[flat_index(bi, bj, k, l, n)] = 1
        rows.append((row, 3))

    for i in range(m):
        for k in range(m):
            if k == i:
                continue
            for j in range(n):
                for l in range(n):
                    if l == j:
                        continue
                    add_row(
                        [
                            ((i, j), ODD_CELLS),
                            ((i, l), EVEN_CELLS),
                            ((k, j), EVEN_CELLS),
                            ((k, l), EVEN_CELLS),
                        ]
                    )
                    add_row(
                        [
                            ((i, j), ODD_CELLS),
                            ((i, l), ODD_CELLS),
                            ((k, j), EVEN_CELLS),
                            ((k, l), ODD_CELLS),
                        ]
                    )
    return FrozenRows(rows, 6 * m * n)


def build_satp2_lp(m: int, n: int) -> LinearSystem:
    """The strengthened relaxation: base system plus 2 m(m-1) n(n-1) rows.

    For ``m < 2`` or ``n < 2`` the inequalities need two distinct block
    rows and columns, so there are none.
    """
    rows = satp2_inequality_rows(m, n)  # refused before the base is built
    base = build_satp_lp(m, n)
    return LinearSystem(base.var_count, base.eq_rows, rows, base.nonneg)


# ---------------------------------------------------------------------------
# Boolean quadric polytope and friends
# ---------------------------------------------------------------------------


def bqp_var_count(n: int) -> int:
    return n + n * (n - 1) // 2


def bqp_pair_index(i: int, j: int, n: int) -> int:
    """Position of ``x_{ij}`` (0-based, i < j) after the n singleton vars."""
    if not 0 <= i < j < n:
        raise InputError("pair index out of range")
    return n + (i * (2 * n - i - 1)) // 2 + (j - i - 1)


@_memoized
def build_bqp_lp(n: int) -> LinearSystem:
    """Boolean quadric relaxation over ``x_i`` and ``x_{ij}``.

    Per pair i < j: ``x_i + x_j - x_{ij} <= 1``, ``x_{ij} <= x_i``,
    ``x_{ij} <= x_j``; nonnegativity on every variable.  The ``x_i <= 1``
    bounds are implied by the pair rows but emitted explicitly to keep the
    polyhedron visibly bounded.  Refused over ``MAX_TEXT_VARS`` variables.
    """
    if n < 2:
        raise InputError("n must be at least 2")
    nvars = bqp_var_count(n)
    if nvars > MAX_TEXT_VARS:
        raise BudgetError(f"the bqp system exceeds {MAX_TEXT_VARS} variables")
    ineq: list[tuple[Row, Rational]] = []
    for i in range(n):
        for j in range(i + 1, n):
            p = bqp_pair_index(i, j, n)
            ineq.append(({i: 1, j: 1, p: -1}, 1))
            ineq.append(({p: 1, i: -1}, 0))
            ineq.append(({p: 1, j: -1}, 0))
    for i in range(n):
        ineq.append(({i: 1}, 1))
    return LinearSystem(nvars, ineq_rows=ineq, nonneg=[True] * nvars)


@_memoized
def met_triangle_rows(n: int) -> FrozenRows:
    """The four triangle rows of every triple i < j < k (4 * C(n,3) rows,
    18 coefficients per triple); refused over ``MAX_TEXT_VARS`` coefficients."""
    if 3 * n * (n - 1) * (n - 2) > MAX_TEXT_VARS:
        raise BudgetError(f"the n = {n} triangle rows exceed {MAX_TEXT_VARS} coefficients")
    rows: list[tuple[Row, Rational]] = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                pij = bqp_pair_index(i, j, n)
                pik = bqp_pair_index(i, k, n)
                pjk = bqp_pair_index(j, k, n)
                rows.append(({i: 1, j: 1, k: 1, pij: -1, pik: -1, pjk: -1}, 1))
                rows.append(({i: -1, pij: 1, pik: 1, pjk: -1}, 0))
                rows.append(({j: -1, pij: 1, pik: -1, pjk: 1}, 0))
                rows.append(({k: -1, pij: -1, pik: 1, pjk: 1}, 0))
    return FrozenRows(rows, bqp_var_count(n))


def build_met(n: int) -> LinearSystem:
    """Metric strengthening: the quadric relaxation's rows, then the triangle rows."""
    if n < 3:
        raise InputError("n must be at least 3")
    rows = met_triangle_rows(n)  # refused before the base is built
    base = build_bqp_lp(n)
    ineq = base.ineq_rows + rows
    return LinearSystem(base.var_count, ineq_rows=ineq, nonneg=base.nonneg)


# -- standard form ----------------------------------------------------------


def bqp_std_blocks(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def bqp_std_index(i: int, j: int, k: int, l: int, n: int) -> int:
    """Flat position of cell (k, l) of upper-triangular block (i, j); 0-based."""
    if not 0 <= i <= j < n:
        raise InputError("standard-form blocks are upper triangular")
    block = i * n - (i * (i - 1)) // 2 + (j - i)
    return block * 4 + k * 2 + l


def bqp_std_var_count(n: int) -> int:
    return 4 * (n * (n + 1) // 2)


def build_bqp_standard(n: int) -> LinearSystem:
    """Slack-variable standard form of the Boolean quadric relaxation.

    Variables ``x^{k,l}_{i,j}`` for k, l in {1,2} over upper-triangular
    blocks i <= j.  Rows: block sums equal 1; top-row sums agree down each
    block column; left-column sums agree along each block row; the
    diagonal off-cells vanish.  All variables nonnegative.  Refused over
    ``MAX_TEXT_VARS`` variables.
    """
    if n < 2:
        raise InputError("n must be at least 2")
    nvars = bqp_std_var_count(n)
    if nvars > MAX_TEXT_VARS:
        raise BudgetError(f"the bqp-std system exceeds {MAX_TEXT_VARS} variables")
    eq: list[tuple[Row, Rational]] = []

    for i, j in bqp_std_blocks(n):
        row = {bqp_std_index(i, j, k, l, n): 1 for k in range(2) for l in range(2)}
        eq.append((row, 1))

    # top-row sums x^{1,1} + x^{1,2} depend only on the column index j
    for j in range(n):
        for i in range(j):
            row = {}
            for l in range(2):
                row[bqp_std_index(i, j, 0, l, n)] = 1
                row[bqp_std_index(i + 1, j, 0, l, n)] = -1
            eq.append((row, 0))

    # left-column sums x^{1,1} + x^{2,1} depend only on the row index i
    for i in range(n):
        for j in range(i, n - 1):
            row = {}
            for k in range(2):
                row[bqp_std_index(i, j, k, 0, n)] = 1
                row[bqp_std_index(i, j + 1, k, 0, n)] = -1
            eq.append((row, 0))

    for i in range(n):
        for k, l in ((0, 1), (1, 0)):
            eq.append(({bqp_std_index(i, i, k, l, n): 1}, 0))

    return LinearSystem(nvars, eq_rows=eq, nonneg=[True] * nvars)


#: The five systems by their ``satpoly build --polytope`` name: the two block
#: systems take ``(m, n)``, the three quadric ones ``n`` only.
BUILDERS = {
    "satp": build_satp_lp,
    "satp2": build_satp2_lp,
    "bqp": build_bqp_lp,
    "bqp-std": build_bqp_standard,
    "met": build_met,
}


def bqp_point_to_standard(x: list[Rational], n: int) -> list[Rational]:
    """Lift a quadric-relaxation point to the standard form via the slacks.

    ``x^{1,1}_{ij} = x_{ij}``, ``x^{1,2}_{ij} = x_j - x_{ij}``,
    ``x^{2,1}_{ij} = x_i - x_{ij}``, ``x^{2,2}_{ij} = 1 - x_i - x_j + x_{ij}``,
    with ``x_{ii} = x_i``.
    """
    if len(x) != bqp_var_count(n):
        raise InputError("point has wrong dimension")
    out = [_ZERO] * bqp_std_var_count(n)

    def xij(i, j):
        if i == j:
            return Fraction(x[i])
        return Fraction(x[bqp_pair_index(i, j, n)])

    for i, j in bqp_std_blocks(n):
        xi, xj, xx = Fraction(x[i]), Fraction(x[j]), xij(i, j)
        out[bqp_std_index(i, j, 0, 0, n)] = xx
        out[bqp_std_index(i, j, 0, 1, n)] = xj - xx
        out[bqp_std_index(i, j, 1, 0, n)] = xi - xx
        out[bqp_std_index(i, j, 1, 1, n)] = 1 - xi - xj + xx
    return out


def bqp_standard_to_point(s: list[Rational], n: int) -> list[Rational]:
    """Inverse of :func:`bqp_point_to_standard` (read off the top-left cells)."""
    if len(s) != bqp_std_var_count(n):
        raise InputError("standard point has wrong dimension")
    out = [_ZERO] * bqp_var_count(n)
    for i in range(n):
        out[i] = Fraction(s[bqp_std_index(i, i, 0, 0, n)])
    for i in range(n):
        for j in range(i + 1, n):
            out[bqp_pair_index(i, j, n)] = Fraction(s[bqp_std_index(i, j, 0, 0, n)])
    return out


def project_satp_face_to_bqp(point: BlockPoint) -> list[Rational]:
    """Project a point on the quadric face of a square grid to standard form.

    The face fixes the whole third block row to zero and the off-diagonal
    cells of every diagonal block to zero.  The projection keeps the 2x2
    top of each upper-triangular block (i <= j) and drops the rest; the
    sub-diagonal duplicates are the discarded coordinates.
    """
    if point.m != point.n:
        raise InputError("face projection needs a square block grid")
    n = point.n
    for i in range(n):
        for j in range(n):
            for l in range(2):
                if point[i, j, 2, l] != 0:
                    raise FaceMembershipError(
                        f"third block row is nonzero at block ({i + 1},{j + 1})"
                    )
    for i in range(n):
        if point[i, i, 0, 1] != 0 or point[i, i, 1, 0] != 0:
            raise FaceMembershipError(
                f"diagonal block ({i + 1},{i + 1}) has off-cell mass"
            )
    out = [_ZERO] * bqp_std_var_count(n)
    for i, j in bqp_std_blocks(n):
        for k in range(2):
            for l in range(2):
                out[bqp_std_index(i, j, k, l, n)] = point[i, j, k, l]
    return out
