"""Exact rational linear systems, linear algebra, and a simplex LP maximizer.

A :class:`LinearSystem` holds equality rows, ``<=`` inequality rows, and a
per-variable nonnegativity flag.  Every row is a sparse :data:`Row`, a map
from column to rational coefficient in which absent columns are zero, and
so is every row of the simplex tableau inside :func:`lp_maximize`.
All arithmetic is exact; results satisfy their constraints with no
tolerance anywhere.

Rank and equation solving share one exact kernel: rows become sparse
integer rows, and fraction-free elimination (Bareiss 1968, Edmonds 1967)
reduces them into an echelon basis.  Only the back-substitution of a
unique solution divides, in ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from satpoly.errors import InputError, InternalInvariantError
from satpoly.rational import Rational, content_lines, format_rational, parse_int, parse_rational

Row = dict[int, Rational]
"""A sparse row: column index to coefficient; absent columns are zero."""


@dataclass
class LinearSystem:
    """Equalities, ``<=`` inequalities, and nonnegativity flags over named columns.

    ``eq_rows`` and ``ineq_rows`` are lists of ``(coeffs, rhs)`` pairs whose
    ``coeffs`` is a :data:`Row` over columns in ``range(var_count)``; an
    inequality row means ``coeffs . x <= rhs``.  ``nonneg[v]`` marks
    ``x_v >= 0``.  Instances (rows included) are treated as immutable after
    construction, so systems may share row objects.
    """

    var_count: int
    eq_rows: list[tuple[Row, Rational]] = field(default_factory=list)
    ineq_rows: list[tuple[Row, Rational]] = field(default_factory=list)
    nonneg: list[bool] = field(default_factory=list)

    def __post_init__(self):
        if self.var_count < 0:
            raise InputError("negative variable count")
        if not self.nonneg:
            self.nonneg = [True] * self.var_count
        if len(self.nonneg) != self.var_count:
            raise InputError("nonneg flag list has wrong length")
        columns = range(self.var_count)
        for coeffs, _ in [*self.eq_rows, *self.ineq_rows]:
            if not isinstance(coeffs, dict) or any(j not in columns for j in coeffs):
                raise InputError(
                    f"constraint row must be a {{column: coefficient}} dict over "
                    f"columns 0..{self.var_count - 1}"
                )

    # -- feasibility -------------------------------------------------------

    def is_feasible(self, point: Sequence[Rational]) -> bool:
        """Exact membership test."""
        if len(point) != self.var_count:
            raise InputError("point has wrong dimension")
        for coeffs, rhs in self.eq_rows:
            if _dot(coeffs, point) != rhs:
                return False
        if violated_rows(self.ineq_rows, point):
            return False
        for v, flag in enumerate(self.nonneg):
            if flag and point[v] < 0:
                return False
        return True

    def tight_rows(self, *points: Sequence[Rational]) -> "LinearSystem":
        """Equality system of all constraints active at every one of ``points``.

        Includes every equality row, every inequality row met with equality
        at each point, and a unit row for every nonnegative variable that
        is zero at each point.
        """
        rows = list(self.eq_rows)
        for coeffs, rhs in self.ineq_rows:
            if all(_dot(coeffs, p) == rhs for p in points):
                rows.append((coeffs, rhs))
        for v, flag in enumerate(self.nonneg):
            if flag and all(p[v] == 0 for p in points):
                rows.append(({v: 1}, 0))
        return LinearSystem(self.var_count, eq_rows=rows, nonneg=[False] * self.var_count)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"vars {self.var_count}"]
        if not all(self.nonneg):
            lines.append("nonneg " + " ".join("1" if f else "0" for f in self.nonneg))
        for coeffs, rhs in self.eq_rows:
            lines.append("eq " + _row_text(coeffs, rhs, self.var_count))
        for coeffs, rhs in self.ineq_rows:
            lines.append("le " + _row_text(coeffs, rhs, self.var_count))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "LinearSystem":
        var_count = None
        nonneg = None
        eq_rows: list[tuple[Row, Rational]] = []
        ineq_rows: list[tuple[Row, Rational]] = []
        for line in content_lines(text):
            tokens = line.split()
            kind = tokens[0]
            if kind == "vars":
                if var_count is not None:
                    raise InputError("duplicate 'vars' header")
                var_count = parse_int(tokens, 1, "'vars' header")
            elif kind == "nonneg":
                if any(t not in ("0", "1") for t in tokens[1:]):
                    raise InputError(f"nonneg flags must be 0 or 1: {line!r}")
                nonneg = [t == "1" for t in tokens[1:]]
            elif kind in ("eq", "le"):
                if var_count is None:
                    raise InputError("constraint row before 'vars' header")
                coeffs, rhs = _parse_row(tokens[1:], var_count)
                (eq_rows if kind == "eq" else ineq_rows).append((coeffs, rhs))
            else:
                raise InputError(f"unknown line kind {kind!r}")
        if var_count is None:
            raise InputError("missing 'vars' header")
        if nonneg is None:
            nonneg = [True] * var_count
        return LinearSystem(var_count, eq_rows=eq_rows, ineq_rows=ineq_rows, nonneg=nonneg)


def _row_text(coeffs: Row, rhs: Rational, var_count: int) -> str:
    dense = (format_rational(coeffs.get(j, 0)) for j in range(var_count))
    return " ".join(dense) + " | " + format_rational(rhs)


def _parse_row(tokens: list[str], var_count: int) -> tuple[Row, Rational]:
    """A dense text row (``c1 ... cN | rhs``) as a sparse row and its right side."""
    if "|" not in tokens:
        raise InputError("constraint row missing '|' separator")
    bar = tokens.index("|")
    coeffs = [parse_rational(t) for t in tokens[:bar]]
    rest = tokens[bar + 1 :]
    if len(coeffs) != var_count or len(rest) != 1:
        raise InputError("constraint row has wrong shape")
    return {j: c for j, c in enumerate(coeffs) if c}, parse_rational(rest[0])


def _dot(coeffs: Row, point: Sequence[Rational]) -> Rational:
    return sum((c * point[j] for j, c in coeffs.items()), Fraction(0))


def violated_rows(rows: Sequence[tuple[Row, Rational]], point: Sequence[Rational]) -> list[int]:
    """Indices of the ``<=`` rows that ``point`` violates, in row order."""
    return [k for k, (coeffs, rhs) in enumerate(rows) if _dot(coeffs, point) > rhs]


# ---------------------------------------------------------------------------
# Rank and unique solutions: one fraction-free elimination kernel
# ---------------------------------------------------------------------------


def _int_row(values: Row) -> dict[int, int]:
    """Primitive integer multiple of a rational row.

    Zeros are dropped, denominators cleared and the content divided out;
    scaling a row changes neither its span nor its solutions.
    """
    row = {j: v for j, v in values.items() if v}
    if row:
        scale = lcm(*(v.denominator for v in row.values()))
        row = {j: v.numerator * (scale // v.denominator) for j, v in row.items()}
        g = gcd(*row.values())
        if g > 1:
            row = {j: v // g for j, v in row.items()}
    return row


def _reduce_into(basis: dict[int, dict[int, int]], row: dict[int, int]) -> Optional[int]:
    """Add ``row`` to an echelon ``basis``; returns its pivot, None if dependent.

    ``basis`` maps each pivot column to a row whose lowest column it is.
    The row's lowest column is eliminated fraction-free against the basis
    row pivoting there, content divided out, until it is empty (a linear
    combination of the basis) or its lowest column is new.
    """
    while row:
        col = min(row)
        pivot_row = basis.get(col)
        if pivot_row is None:
            basis[col] = row
            return col
        g = gcd(pivot_row[col], row[col])
        a, b = pivot_row[col] // g, row[col] // g
        new = {j: a * v for j, v in row.items()}
        for j, v in pivot_row.items():
            x = new.get(j, 0) - b * v
            if x:
                new[j] = x
            else:
                del new[j]
        if new:
            g = gcd(*new.values())
            if g > 1:
                new = {j: v // g for j, v in new.items()}
        row = new
    return None


def rank(rows: Sequence[Row]) -> int:
    """Exact rank of a list of sparse rational rows."""
    rows = list(rows)
    # The rank is at most the number of columns the rows touch.
    return rank_at_most(rows, len(set().union(*rows)))


def rank_at_most(rows: Sequence[Row], cap: int) -> int:
    """Exact rank when it is known a priori that rank <= cap.

    Elimination stops once ``cap`` independent rows are found; used by
    vertex/edge verification where geometry supplies the cap.
    """
    basis: dict[int, dict[int, int]] = {}
    # Shortest rows first: the unit rows of tight vertex systems then cancel
    # their columns from longer rows without fill-in.
    for row in sorted(map(_int_row, rows), key=len):
        if len(basis) >= cap:
            break
        _reduce_into(basis, row)
    return len(basis)


def _solve_equalities(
    rows: Sequence[tuple[Row, Rational]], var_count: int
) -> tuple[str, Optional[list[Rational]]]:
    """Solve ``coeffs . x == rhs`` rows exactly.

    The augmented rows are eliminated as integer rows (the right side is
    column ``var_count``), then a unique solution is back-substituted in
    ``Fraction``.  Returns ("unique", x), ("underdetermined", None), or
    ("inconsistent", None).
    """
    basis: dict[int, dict[int, int]] = {}
    augmented = (_int_row({**coeffs, var_count: rhs}) for coeffs, rhs in rows)
    for row in sorted(augmented, key=len):
        if _reduce_into(basis, row) == var_count:
            return "inconsistent", None
    if len(basis) < var_count:
        return "underdetermined", None
    solution: list[Rational] = [Fraction(0)] * var_count
    for col in sorted(basis, reverse=True):
        row = basis[col]
        total = Fraction(row.get(var_count, 0))
        for j, a in row.items():
            if col < j < var_count:
                total -= a * solution[j]
        solution[col] = total / row[col]
    return "unique", solution


def unique_solution(sys: LinearSystem) -> Optional[list[Rational]]:
    """Solve the equality rows of ``sys``; None unless exactly one solution.

    Inequality rows and nonnegativity flags are ignored.
    """
    status, solution = _solve_equalities(sys.eq_rows, sys.var_count)
    return solution if status == "unique" else None


# ---------------------------------------------------------------------------
# Exact simplex
# ---------------------------------------------------------------------------


@dataclass
class LpResult:
    """Outcome of :func:`lp_maximize`.

    When ``status == "Optimal"``, ``point`` is a basic feasible solution (a
    vertex of the feasible polyhedron), ``value == objective . point``
    exactly, and ``tight_set`` lists the active constraint rows: equality
    rows are indexed ``0 .. E-1`` and inequality rows ``E .. E+I-1``.
    """

    status: str  # "Optimal" | "Infeasible" | "Unbounded"
    value: Optional[Rational] = None
    point: Optional[list[Rational]] = None
    tight_set: Optional[set[int]] = None


class _Tableau:
    """Sparse rational simplex tableau with Bland's anti-cycling rule.

    Every row is a :data:`Row` of ``Fraction`` entries whose right side is
    column ``rhs``, past every variable column; entries that cancel are
    dropped, so a stored zero is never chosen as a pivot.
    """

    def __init__(self, rows: list[Row], basis: list[int], rhs: int):
        self.rows = rows
        self.basis = basis
        self.rhs = rhs

    def pivot(self, row: int, col: int) -> None:
        pivrow = self.rows[row]
        pv = pivrow[col]
        if pv != 1:
            inv = Fraction(1) / pv
            for j, x in pivrow.items():
                pivrow[j] = x * inv
        for i, ri in enumerate(self.rows):
            f = ri.get(col)
            if f and i != row:
                _sub_scaled(ri, f, pivrow)
        self.basis[row] = col

    def run(self, cost: Row, allowed: int) -> tuple[str, Row]:
        """Maximize over columns [0, allowed); returns status and final z-row.

        ``cost`` is the objective over all columns; the z-row is kept in
        reduced form (entry j = z_j - c_j, optimal when all >= 0).
        """
        rows, basis, rhs = self.rows, self.basis, self.rhs
        zrow = {j: -c for j, c in cost.items()}
        for i, b in enumerate(basis):
            f = zrow.get(b)
            if f:
                _sub_scaled(zrow, f, rows[i])
        while True:
            enter = min((j for j, x in zrow.items() if j < allowed and x < 0), default=-1)
            if enter < 0:
                return "optimal", zrow
            leave = -1
            best: Optional[Fraction] = None
            for i, ri in enumerate(rows):
                a = ri.get(enter)
                if a is not None and a > 0:
                    ratio = ri.get(rhs, 0) / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded", zrow
            self.pivot(leave, enter)
            f = zrow.get(enter)
            if f:
                _sub_scaled(zrow, f, rows[leave])


def _sub_scaled(row: Row, f: Fraction, other: Row) -> None:
    """``row -= f * other`` in place, dropping the entries that cancel."""
    g = -f
    for j, x in other.items():
        y = row.get(j)
        if y is None:
            row[j] = g * x
        elif y := y + g * x:
            row[j] = y
        else:
            del row[j]


def lp_maximize(sys: LinearSystem, objective: Sequence[Rational]) -> LpResult:
    """Maximize ``objective . x`` over ``sys`` with exact rational arithmetic.

    Two-phase simplex: phase 1 drives auxiliary variables out of the basis
    (uniform handling of equality rows), phase 2 optimizes with Bland's
    smallest-index rule, which guarantees termination.  Infeasible and
    unbounded inputs are reported as statuses, never exceptions.
    """
    if len(objective) != sys.var_count:
        raise InputError("objective length does not match variable count")
    cost: Row = {v: Fraction(c) for v, c in enumerate(objective) if c}

    # Column layout: one column per nonnegative variable, a (+,-) pair per
    # free variable, one slack per inequality row, one artificial per row
    # with no slack to start the basis on, then the right side.
    col_of_var: list[tuple[int, Optional[int]]] = []
    ncols = 0
    for flag in sys.nonneg:
        if flag:
            col_of_var.append((ncols, None))
            ncols += 1
        else:
            col_of_var.append((ncols, ncols + 1))
            ncols += 2
    slack0 = ncols
    struct_cols = ncols + len(sys.ineq_rows)
    rhs_col = struct_cols + len(sys.eq_rows) + sum(rhs < 0 for _, rhs in sys.ineq_rows)

    def expand(coeffs: Row) -> Row:
        row: Row = {}
        for v, c in coeffs.items():
            if c:
                pos, neg = col_of_var[v]
                row[pos] = Fraction(c)
                if neg is not None:
                    row[neg] = -row[pos]
        return row

    rows: list[Row] = []
    basis: list[int] = []
    art = struct_cols
    # k counts from -len(eq_rows): negative on equalities, the slack index after.
    for k, (coeffs, rhs) in enumerate([*sys.eq_rows, *sys.ineq_rows], -len(sys.eq_rows)):
        row = expand(coeffs)
        if k >= 0:
            row[slack0 + k] = Fraction(1)
        if rhs:
            row[rhs_col] = Fraction(rhs)
        if rhs < 0:
            row = {j: -x for j, x in row.items()}
        if k >= 0 and rhs >= 0:
            basis.append(slack0 + k)
        else:  # an equality, or a slack whose coefficient became -1
            row[art] = Fraction(1)
            basis.append(art)
            art += 1
        rows.append(row)

    tab = _Tableau(rows, basis, rhs_col)

    if art > struct_cols:
        phase1_cost = {c: Fraction(-1) for c in range(struct_cols, art)}
        status, zrow = tab.run(phase1_cost, allowed=struct_cols)
        if status != "optimal" or zrow.get(rhs_col):
            return LpResult(status="Infeasible")
        # Pivot remaining zero-level artificials out; drop redundant rows.
        for i in range(len(tab.rows) - 1, -1, -1):
            if tab.basis[i] >= struct_cols:
                entry = min((j for j in tab.rows[i] if j < struct_cols), default=None)
                if entry is None:
                    del tab.rows[i]
                    del tab.basis[i]
                else:
                    tab.pivot(i, entry)

    status, zrow = tab.run(expand(cost), allowed=struct_cols)
    if status == "unbounded":
        return LpResult(status="Unbounded")

    zero = Fraction(0)
    col_values = {b: row.get(rhs_col, zero) for b, row in zip(tab.basis, tab.rows)}
    point = [col_values.get(pos, zero) - col_values.get(neg, zero) for pos, neg in col_of_var]
    value = _dot(cost, point)

    if not sys.is_feasible(point):  # pragma: no cover - exactness guard
        raise InternalInvariantError("simplex returned an infeasible point")
    tight = set(range(len(sys.eq_rows)))
    base = len(sys.eq_rows)
    for k, (coeffs, rhs) in enumerate(sys.ineq_rows):
        if _dot(coeffs, point) == rhs:
            tight.add(base + k)
    return LpResult(status="Optimal", value=value, point=point, tight_set=tight)
