"""Exact rational linear systems, linear algebra, and a simplex LP maximizer.

A :class:`LinearSystem` holds equality rows, ``<=`` inequality rows, and a
per-variable nonnegativity flag.  Every row is a sparse :data:`Row`, a map
from column to rational coefficient in which absent columns are zero.
All arithmetic is exact; results satisfy their constraints with no
tolerance anywhere.

Rank, equation solving, the simplex and the vertex census share one exact
row update, :func:`_eliminate`: fraction-free elimination on sparse integer
rows (Bareiss 1968, Edmonds 1967), content divided out.  Rank and solving
reduce rows into an echelon basis, which the solve back-substitutes; the
simplex's one state type, :class:`_Tableau`, keeps each row over its basic
entry, and its z-row with them.  Nothing divides: the solve and simplex put
their point's ratios over one denominator (:func:`_over_one_denominator`),
and those integers, like the census's, become ``Fraction``s in one place,
:func:`_unscaled`, which builds one per distinct entry.

Row tests at a point work in integers: the point is scaled once by the
lcm of its denominators (the tableau's point already is), and a
:class:`FrozenRows` keeps a column index, built on first use, through
which a test sums every row over the point's nonzero entries alone.  The
feasibility test, the rows active at a set of points (with the columns
they pin at zero, those outside the points' support) and the separation
of lazy rows all read rows this way.

The text reader checks a row's shape in O(1) and parses only the nonzero
tokens of a dense row, each distinct token once through the cache it
shares with the block-point reader, and keeps integral values as
``int``s, the form the builders emit; a row of ``int``s enters
elimination with no ``Fraction`` work.

Phase 1 is a crash basis and the dual simplex: the inequality rows start
on their slacks, each independent equality row is pivoted in on its
smallest column, and :meth:`_Tableau.restore` makes the basis feasible
from an empty z-row, under which every basis is dual feasible.  The dual
Bland rule it pivots by cannot cycle (Bland 1977), so phase 1 ends.
Phase 2 prices by Dantzig's rule: the column with the most negative
reduced cost enters, ties to the smaller column.  Degenerate pivots,
frequent at the SATP and BQP vertices, can cycle under that rule, so after
:data:`STALL` of them in a row Bland's smallest-index rule takes over
until the next nondegenerate pivot.  This terminates: a nondegenerate
pivot strictly raises the objective, so a basis can repeat only inside
one run of degenerate pivots, and a run longer than ``STALL`` continues
under Bland's rule, which cannot cycle.

A system is immutable: its rows are :class:`FrozenRows`, tuples of
read-only maps, and constructing one is the only way rows are frozen, so
every row set has had its keys checked as columns, at a cost of its
entries.  Phase 1 of the simplex depends only on the system, so its
feasible tableau, or the finding that there is none, is computed once per
system object and kept on it; a system solved for many objectives runs
phase 1 once.  The tableau's rows, the system's and the cuts added later,
are all built by one :meth:`_Tableau.row`.

Separation is warm: :func:`lp_maximize` takes lazy ``<=`` rows, which
join the optimal tableau only once its point violates them, each with its
own slack basic, and the dual simplex restores feasibility from there
(Dantzig, Fulkerson and Johnson 1954; Chvátal 1983, ch. 10).  No system
with the cuts is built and no cut round starts from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from satpoly.errors import BudgetError, InputError, InternalInvariantError
from satpoly.rational import Rational, content_lines, format_rational, parse_int, parse_token

Row = dict[int, Rational]
"""A sparse row: column index to coefficient; absent columns are zero."""

#: The largest ``vars`` header :meth:`LinearSystem.from_text` accepts, checked before
#: any per-variable allocation; the SATP system of a 10x10 grid has 600 variables.
MAX_TEXT_VARS = 10**6

#: Consecutive degenerate pivots after which :meth:`_Tableau.run` leaves
#: Dantzig's rule for Bland's, until the next nondegenerate pivot.
STALL = 20


@dataclass(frozen=True)
class LinearSystem:
    """Equalities, ``<=`` inequalities, and nonnegativity flags over named columns.

    ``eq_rows`` and ``ineq_rows`` are sequences of ``(coeffs, rhs)`` pairs
    whose ``coeffs`` is a :data:`Row` over columns in ``range(var_count)``;
    an inequality row means ``coeffs . x <= rhs``.  ``nonneg[v]`` marks
    ``x_v >= 0``; an empty ``nonneg`` marks every variable.

    A system is immutable: it stores its flags as a tuple and its rows as
    :class:`FrozenRows`, which checks their columns and keeps each
    ``coeffs`` as a read-only view of the dict it was given, which a caller
    must not change later.  A row already read-only is shared, not wrapped
    again.  The phase-1 result of :func:`lp_maximize` is kept on the system.
    """

    var_count: int
    eq_rows: "FrozenRows" = ()
    ineq_rows: "FrozenRows" = ()
    nonneg: tuple[bool, ...] = ()

    def __post_init__(self):
        if self.var_count < 0:
            raise InputError("negative variable count")
        nonneg = tuple(self.nonneg) or (True,) * self.var_count
        if len(nonneg) != self.var_count:
            raise InputError("nonneg flag list has wrong length")
        object.__setattr__(self, "nonneg", nonneg)
        for name in ("eq_rows", "ineq_rows"):
            object.__setattr__(self, name, FrozenRows(getattr(self, name), self.var_count))

    @cached_property
    def _phase1_tableau(self) -> Optional["_Tableau"]:
        """The feasible tableau phase 1 ends with, or None if the system is infeasible."""
        return _phase1(self)

    # -- row tests at a point ----------------------------------------------

    def _scaled_point(self, point: Sequence[Rational]) -> tuple[list[int], int]:
        """``point`` scaled by :func:`_scaled`; InputError unless it has ``var_count`` entries."""
        if len(point) != self.var_count:
            raise InputError("point has wrong dimension")
        return _scaled(point)

    def is_feasible(self, point: Sequence[Rational]) -> bool:
        """Exact membership test."""
        return self._holds(*self._scaled_point(point))

    def _holds(self, xs: list[int], scale: int) -> bool:
        """True iff the point ``xs / scale``, of ``var_count`` entries, satisfies the system."""
        if min(compress(xs, self.nonneg), default=0) < 0:
            return False
        eq = self.eq_rows
        if any(t != b * scale for t, (_, b) in zip(eq.activities(xs), eq)):
            return False
        return next(_violated(self.ineq_rows, xs, scale), None) is None

    def _tight_at(self, scaled: Sequence[tuple[list[int], int]]) -> tuple[list[int], set[int]]:
        """The one pass finding the rows met with equality at the points ``xs / scale``.

        Returns the indices of the rows active at every point, every equality
        row ``0 .. E-1`` and then ``E + k`` for each inequality row k met with
        equality, and the pinned columns: the nonnegative ones outside the
        points' support.
        """
        e, ineq = len(self.eq_rows), self.ineq_rows
        activities = [(ineq.activities(xs), scale) for xs, scale in scaled]
        rows = list(range(e))
        rows += [
            e + k for k, (_, b) in enumerate(ineq) if all(t[k] == b * s for t, s in activities)
        ]
        support = {j for xs, _ in scaled for j, x in enumerate(xs) if x}
        pinned = {v for v, flag in enumerate(self.nonneg) if flag and v not in support}
        return rows, pinned

    def tight_set(self, point: Sequence[Rational]) -> set[int]:
        """Indices of the rows active at ``point``, numbered as :meth:`_tight_at` numbers them."""
        return set(self._tight_at([self._scaled_point(point)])[0])

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
                if var_count > MAX_TEXT_VARS:
                    raise BudgetError(f"'vars' header over the limit of {MAX_TEXT_VARS}")
            elif kind == "nonneg":
                flags = tokens[1:]
                if nonneg is not None or not flags or any(t not in ("0", "1") for t in flags):
                    raise InputError(f"expected one 'nonneg' line of 0/1 flags: {line!r}")
                nonneg = [t == "1" for t in flags]
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


class _ColumnError(InputError):
    """A row key that is not a column in ``range(var_count)``."""


class FrozenRows(tuple):
    """A tuple of ``(coeffs, rhs)`` rows over the columns ``range(var_count)``,
    each ``coeffs`` a read-only map.

    ``FrozenRows(rows, var_count)`` wraps each dict ``coeffs``, not copied, in
    a :class:`types.MappingProxyType`.  It raises InputError for a row that
    is not a ``(map, rhs)`` pair, a coefficient or right side that is not an
    ``int`` or a ``Fraction``, or a key that is not an ``int`` in
    ``range(var_count)``; the check costs the rows' entries, whatever
    ``var_count`` is.  Rows already frozen for ``var_count`` columns are
    returned as they are.  Pickling and deep copies rebuild from plain
    ``dict`` rows and ``var_count``.

    :attr:`columns` is built on first use and kept, so a row test at a point
    reads only the entries in the point's support.
    """

    var_count: int

    def __new__(cls, rows: Iterable[tuple[Mapping[int, Rational], Rational]], var_count: int):
        if type(rows) is FrozenRows and rows.var_count == var_count:
            return rows
        pair = "constraint row must be a ({column: coefficient}, rhs) pair"
        try:
            rows = [(MappingProxyType(c) if isinstance(c, dict) else c, rhs) for c, rhs in rows]
        except (TypeError, ValueError):  # a row that does not unpack as a pair
            raise InputError(pair) from None
        maps = [coeffs for coeffs, _ in rows]
        if not all(isinstance(c, MappingProxyType) for c in maps):
            raise InputError(pair)
        # The key types are read per entry and the range per distinct key: a set
        # of the keys alone could keep one row's 1 and drop another's 1.0.  The
        # value types take a second pass: one pass over (key, value) type pairs
        # hashes a tuple per entry and costs more than the two.
        keys = set().union(*maps)
        if not all(issubclass(t, int) for t in set(map(type, chain.from_iterable(maps)))) or (
            keys and not (0 <= min(keys) and max(keys) < var_count)
        ):
            raise _ColumnError(
                f"constraint row must be a {{column: coefficient}} dict over "
                f"columns 0..{var_count - 1}"
            )
        numbers = set(map(type, chain.from_iterable(map(MappingProxyType.values, maps))))
        numbers.update(type(rhs) for _, rhs in rows)
        if not all(issubclass(t, (int, Fraction)) for t in numbers):
            raise InputError("constraint row values must be ints or Fractions")
        self = super().__new__(cls, rows)
        self.var_count = var_count
        return self

    def __reduce__(self):
        return FrozenRows, ([(dict(c), rhs) for c, rhs in self], self.var_count)

    @cached_property
    def columns(self) -> dict[int, list[tuple[int, Rational]]]:
        """Each column the rows name, with its ``(row, coefficient)`` pairs, zeros left out;
        its size is the rows' entry count, whatever ``var_count`` is."""
        index: dict[int, list[tuple[int, Rational]]] = {}
        for i, (coeffs, _) in enumerate(self):
            for j, c in coeffs.items():
                if c:
                    index.setdefault(j, []).append((i, c))
        return index

    def activities(self, xs: Sequence[int]) -> list[Rational]:
        """``coeffs . xs`` for every row, summed over the nonzero entries of ``xs`` only."""
        totals: list[Rational] = [0] * len(self)
        columns = self.columns
        for j, x in enumerate(xs):
            if x and (column := columns.get(j)):
                for i, c in column:
                    totals[i] += c * x
        return totals


def _row_text(coeffs: Row, rhs: Rational, var_count: int) -> str:
    """The dense text of a sparse row: only its stored entries are formatted."""
    dense = ["0"] * var_count
    for j, c in coeffs.items():
        dense[j] = format_rational(c)
    return " ".join(dense) + " | " + format_rational(rhs)


def _parse_row(tokens: list[str], var_count: int) -> tuple[Row, Rational]:
    """A dense text row (``c1 ... cN | rhs``) as a sparse row and its right side.

    The shape is checked in O(1), by the length and the ``|`` at the
    separator's place (a negative ``var_count`` fits no row).  A ``|`` among
    the coefficients fails to parse, so the tokens are scanned for one only
    on an error, to choose the message.
    """
    if var_count >= 0 and len(tokens) == var_count + 2 and tokens[var_count] == "|":
        try:
            row = {
                j: c
                for j in range(var_count)
                if tokens[j] != "0" and (c := parse_token(tokens[j]))
            }
            return row, parse_token(tokens[-1])
        except InputError:
            if "|" not in tokens[:var_count]:
                raise
    if "|" not in tokens:
        raise InputError("constraint row missing '|' separator")
    raise InputError("constraint row has wrong shape")


def _scaled(point: Sequence[Rational]) -> tuple[list[int], int]:
    """``point`` times the lcm ``L`` of its denominators, as ints, and ``L``.

    As L > 0, ``a.x`` compares with ``b`` exactly as ``a.xs`` compares with ``b*L``.
    """
    dens = [x.denominator for x in point]
    scale = reduce(lcm, set(dens), 1)
    return [x.numerator * (scale // d) for x, d in zip(point, dens)], scale


def _unscaled(xs: Sequence[int], scale: int) -> list[Fraction]:
    """The inverse of :func:`_scaled`: ``xs / scale`` as ``Fraction``s, one built per
    distinct entry."""
    entries = {x: Fraction(x, scale) for x in set(xs)}
    return [entries[x] for x in xs]


def _over_one_denominator(ratios: Mapping[int, tuple[int, int]]) -> tuple[dict[int, int], int]:
    """Each ratio ``r / d`` (``d != 0``) of ``ratios`` as ``x / L``, with ``L > 0`` the lcm
    of their denominators in lowest terms: the numerators ``x`` by key, and ``L``."""
    lowest = {}
    for k, (r, d) in ratios.items():
        g = gcd(r, d)
        lowest[k] = r // g, d // g
    scale = reduce(lcm, {d for _, d in lowest.values()}, 1)
    return {k: r * (scale // d) for k, (r, d) in lowest.items()}, scale


def _violated(rows: FrozenRows, xs: list[int], scale: int) -> Iterator[int]:
    """Indices of the ``<=`` rows that the point ``xs / scale`` violates, in row order."""
    return (k for k, (t, (_, b)) in enumerate(zip(rows.activities(xs), rows)) if t > b * scale)


# ---------------------------------------------------------------------------
# Rank and unique solutions: one fraction-free elimination kernel
# ---------------------------------------------------------------------------


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by its content, the gcd of its entries (often 1 after a few)."""
    g = 0
    for v in row.values():
        if (g := gcd(g, v)) == 1:
            return row
    return {j: v // g for j, v in row.items()} if g else row


def _int_row(values: Row) -> dict[int, int]:
    """Primitive positive integer multiple of a rational row.

    Zeros are dropped, denominators cleared and the content divided out;
    scaling a row changes neither its span nor its solutions.
    """
    row = {j: v for j, v in values.items() if v}
    if all(type(v) is int for v in row.values()):  # the builders' and the reader's rows
        return _primitive(row)
    nums, _ = _scaled(list(row.values()))
    return _primitive(dict(zip(row, nums)))


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """``row`` with its ``col`` entry cleared against ``pivot_row``; ``row`` is consumed.

    With ``a/p = row[col] / pivot_row[col]`` in lowest terms, the result is
    ``p*row - a*pivot_row`` over its content: for ``p > 0`` a positive
    multiple of the rational row ``row - (a/p)*pivot_row``.
    """
    g = gcd(pivot_row[col], row[col])
    p, a = pivot_row[col] // g, row[col] // g
    if p != 1:
        row = {j: p * v for j, v in row.items()}
    for j, v in pivot_row.items():
        x = row.get(j, 0) - a * v
        if x:
            row[j] = x
        else:
            del row[j]
    return _primitive(row)


def _reduce_into(basis: dict[int, dict[int, int]], row: dict[int, int]) -> Optional[int]:
    """Add ``row`` to an echelon ``basis``; returns its pivot, None if dependent.

    ``basis`` maps each pivot column to a row whose lowest column it is.
    The row's lowest column is eliminated against the basis row pivoting
    there until the row is empty (a linear combination of the basis) or its
    lowest column is new.
    """
    while row:
        col = min(row)
        pivot_row = basis.get(col)
        if pivot_row is None:
            basis[col] = row
            return col
        row = _eliminate(row, pivot_row, col)
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
    # Shortest rows first: a short row cancels its columns from longer rows
    # with little fill-in.
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
    column ``var_count``) and a unique solution is back-substituted in
    integers, highest pivot first: :func:`_eliminate` clears each row against
    the rows below it, which by then hold only their pivot and right side.
    Returns ("unique", x), ("underdetermined", None), or ("inconsistent", None).
    """
    basis: dict[int, dict[int, int]] = {}
    augmented = (_int_row({**coeffs, var_count: rhs}) for coeffs, rhs in rows)
    for row in sorted(augmented, key=len):
        if _reduce_into(basis, row) == var_count:
            return "inconsistent", None
    if len(basis) < var_count:
        return "underdetermined", None
    for col in sorted(basis, reverse=True):
        for j in [j for j in basis[col] if col < j < var_count]:
            basis[col] = _eliminate(basis[col], basis[j], j)
    scaled, scale = _over_one_denominator(
        {col: (row.get(var_count, 0), row[col]) for col, row in basis.items()}
    )
    return "unique", _unscaled([scaled[v] for v in range(var_count)], scale)


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
    vertex of the feasible polyhedron) and ``value == objective . point``
    exactly; :meth:`LinearSystem.tight_set` lists the rows active there.
    ``lazy`` is the outcome once the lazy rows also hold, None when no lazy
    rows were given; ``status``, ``value`` and ``point`` stay the base optimum.
    ``value`` and every entry of ``point`` are ``Fraction``s.

    ``scaled_point`` is the same point as the simplex read it, ``(xs, L)``
    with ``point[v] == xs[v] / L`` in integers, for a caller that goes on in
    integers; equality and repr ignore it.
    """

    status: str  # "Optimal" | "Infeasible" | "Unbounded"
    value: Optional[Rational] = None
    point: Optional[list[Rational]] = None
    lazy: Optional["LpResult"] = None
    scaled_point: Optional[tuple[list[int], int]] = field(default=None, compare=False, repr=False)


@dataclass
class _Tableau:
    """Sparse integer simplex tableau: primal simplex for phase 2, dual simplex otherwise.

    :meth:`run` enters the column of most negative z-row entry, and after
    :data:`STALL` degenerate pivots in a row the smallest column with a
    negative entry, until a pivot is nondegenerate; only a run of degenerate
    pivots can repeat a basis, and Bland's rule ends every long one.
    :meth:`restore`, the dual simplex, is the one routine that makes a basis
    feasible: in phase 1 and after each round of cuts.

    ``col_of_var[v]`` is the column of ``x_v``, or the ``(+, -)`` column pair
    of a free variable: these structural columns are ``0 .. ncols-1``.  The
    slack columns follow, then the right side in column ``rhs``.  Lazy row k
    adds the slack column ``rhs + 1 + k``.  Row ``i`` is an integer row
    standing for ``rows[i] / rows[i][basis[i]]``: its basic entry, kept
    positive by every pivot, is its denominator.  Entries that cancel are
    dropped, so a stored zero is never chosen as a pivot.  ``zrow`` is the
    z-row of the cost :meth:`run` was last given, empty before the first, a
    positive multiple of the reduced costs (z_j - c_j, optimal when all
    >= 0); :meth:`pivot` keeps it reduced.
    """

    col_of_var: list[tuple[int, Optional[int]]]
    ncols: int
    rhs: int
    rows: list[dict[int, int]]
    basis: list[int]
    zrow: dict[int, int] = field(default_factory=dict)

    def copy(self) -> "_Tableau":
        """A tableau to pivot, with no z-row: :func:`_eliminate` consumes the rows it updates."""
        return _Tableau(
            self.col_of_var, self.ncols, self.rhs, list(map(dict, self.rows)), list(self.basis)
        )

    def expand(self, coeffs: Iterable[tuple[int, Rational]]) -> Row:
        """The ``(variable, coefficient)`` pairs ``coeffs`` as a row over the columns."""
        row: Row = {}
        for v, c in coeffs:
            if c:
                pos, neg = self.col_of_var[v]
                row[pos] = c
                if neg is not None:
                    row[neg] = -c
        return row

    def row(
        self, coeffs: Mapping[int, Rational], rhs: Rational, slack: Optional[int] = None
    ) -> dict[int, int]:
        """``coeffs . x = rhs`` over the columns as a primitive integer row, unreduced;
        a ``slack`` column adds its unit entry, for ``coeffs . x + s = rhs``."""
        row = self.expand(coeffs.items())
        if slack is not None:
            row[slack] = 1
        row[self.rhs] = rhs
        return _int_row(row)

    def point(self) -> tuple[list[int], int]:
        """The basic solution as ``(xs, L)``: ``xs[v] / L`` is each variable's value, a
        free one's ``+`` less its ``-``; only the structural basic rows are read."""
        rhs, ncols = self.rhs, self.ncols
        basic = zip(self.basis, self.rows)
        scaled, scale = _over_one_denominator(
            {b: (row[rhs], row[b]) for b, row in basic if b < ncols and rhs in row}
        )
        # a nonnegative variable's neg is None, which no column is
        return [scaled.get(pos, 0) - scaled.get(neg, 0) for pos, neg in self.col_of_var], scale

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """``row`` with its entries in basic columns cleared against the basic rows."""
        for i, b in enumerate(self.basis):
            if b in row:
                row = _eliminate(row, self.rows[i], b)
        return row

    def pivot(self, row: int, col: int) -> None:
        rows = self.rows
        pivrow = rows[row]
        if pivrow[col] < 0:
            pivrow = rows[row] = {j: -x for j, x in pivrow.items()}
        for i, ri in enumerate(rows):
            if col in ri and i != row:
                rows[i] = _eliminate(ri, pivrow, col)
        if col in self.zrow:
            self.zrow = _eliminate(self.zrow, pivrow, col)
        self.basis[row] = col

    def run(self, cost: Row) -> str:
        """Phase 2: maximize ``cost``, a row over the columns below ``rhs``,
        from a feasible basis; returns the status, with :attr:`zrow` the final z-row.

        Dantzig's rule: the entering column has the most negative z-row
        entry, ties to the smaller column; the z-row is one positive multiple
        of the reduced costs, so this is their argmin.  After :data:`STALL`
        degenerate pivots in a row (the winning right side is 0), Bland's
        rule, the smallest column with a negative entry, enters until the
        next nondegenerate pivot.  The leaving row has the least ratio,
        ties to the smallest basic column.

        This terminates: a nondegenerate pivot strictly raises the
        objective, so a basis can repeat only inside one run of degenerate
        pivots, and a run longer than ``STALL`` continues under Bland's
        rule, which cannot cycle (Bland 1977).
        """
        rows, basis, rhs = self.rows, self.basis, self.rhs
        self.zrow = self.reduce(_int_row({j: -c for j, c in cost.items()}))
        stalled = 0
        while True:
            negative = [(x, j) for j, x in self.zrow.items() if x < 0 and j < rhs]
            if not negative:
                return "optimal"
            enter = min(negative)[1] if stalled < STALL else min(j for _, j in negative)
            # rhs_i / a_i, in which the row scale cancels, against the best, cross-multiplied
            leave = best_rhs = best_a = -1
            for i, ri in enumerate(rows):
                a = ri.get(enter)
                if a is not None and a > 0:
                    r = ri.get(rhs, 0)
                    diff = r * best_a - best_rhs * a
                    if leave < 0 or diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                        leave, best_rhs, best_a = i, r, a
            if leave < 0:
                return "unbounded"
            stalled = stalled + 1 if best_rhs == 0 else 0
            self.pivot(leave, enter)

    def add_row(self, coeffs: Mapping[int, Rational], rhs: Rational, slack: int) -> None:
        """Append ``coeffs . x + s = rhs`` with its new slack column ``slack`` basic.

        The row is reduced against the basic rows, so its right side is
        negative exactly when the basic solution violates ``coeffs . x <= rhs``.
        """
        self.rows.append(self.reduce(self.row(coeffs, rhs, slack)))
        self.basis.append(slack)

    def restore(self) -> str:
        """Dual simplex from a dual-feasible :attr:`zrow`; returns the status.

        Phase 1 calls it with the empty z-row, under which every basis is
        dual feasible, and each cut round with the optimal z-row.

        Dual Bland rule: the leaving row has the smallest basic column among
        the rows with a negative right side, and the entering column has the
        least ratio ``zrow[j] / -a_j`` over the negative entries ``a_j`` of
        that row, ties to the smallest column.  A negative row with no
        negative entry proves the system infeasible.
        """
        rows, basis, rhs = self.rows, self.basis, self.rhs
        while True:
            negative = (i for i, ri in enumerate(rows) if ri.get(rhs, 0) < 0)
            leave = min(negative, key=basis.__getitem__, default=-1)
            if leave < 0:
                return "optimal"
            # zrow[j] / -a against the best, cross-multiplied; both -a > 0
            zrow = self.zrow
            enter = best_z = best_a = -1
            for j, a in rows[leave].items():
                if a < 0 and j != rhs:
                    z = zrow.get(j, 0)
                    diff = best_z * a - z * best_a
                    if enter < 0 or diff < 0 or (diff == 0 and j < enter):
                        enter, best_z, best_a = j, z, a
            if enter < 0:
                return "infeasible"
            self.pivot(leave, enter)


def _phase1(sys: LinearSystem) -> Optional[_Tableau]:
    """Lay out the columns and find a feasible basis; None if the system is infeasible.

    A crash basis, then the dual simplex.  Each inequality row starts with
    its slack basic.  Each equality row is reduced against the basis: a row
    with nothing left is dropped as redundant, one with only its right side
    left (``0 = b``, ``b != 0``) proves the system infeasible, and any other
    joins the tableau, its smallest column pivoted in.  The empty z-row
    prices every basis as dual feasible, so :meth:`_Tableau.restore` then
    makes the basis primal feasible or proves the system infeasible; the
    dual Bland rule it pivots by cannot cycle (Bland 1977).
    :attr:`LinearSystem._phase1_tableau` keeps the result.
    """
    # Column layout: one column per nonnegative variable, a (+,-) pair per
    # free variable, one slack per inequality row, then the right side.
    col_of_var: list[tuple[int, Optional[int]]] = []
    ncols = 0
    for flag in sys.nonneg:
        if flag:
            col_of_var.append((ncols, None))
            ncols += 1
        else:
            col_of_var.append((ncols, ncols + 1))
            ncols += 2
    rhs_col = ncols + len(sys.ineq_rows)

    tab = _Tableau(col_of_var, ncols, rhs_col, rows=[], basis=[])
    rows, basis = tab.rows, tab.basis
    # The inequalities first, each basic in its slack: no row reduces another.
    for slack, (coeffs, rhs) in enumerate(sys.ineq_rows, ncols):
        rows.append(tab.row(coeffs, rhs, slack))
        basis.append(slack)
    for coeffs, rhs in sys.eq_rows:
        row = tab.reduce(tab.row(coeffs, rhs))
        if not row:
            continue
        if len(row) == 1 and rhs_col in row:
            return None
        rows.append(row)
        basis.append(min(row))  # the right side is the last column
        tab.pivot(len(rows) - 1, basis[-1])
    return tab if tab.restore() == "optimal" else None


def lp_maximize(
    sys: LinearSystem,
    objective: Sequence[Rational],
    lazy_rows: Optional[Sequence[tuple[Mapping[int, Rational], Rational]]] = None,
) -> LpResult:
    """Maximize ``objective . x`` over ``sys`` with exact rational arithmetic.

    Two-phase simplex on one :class:`_Tableau`.  Phase 1 (:func:`_phase1`)
    lays out the columns, starts a basis on the slacks and the independent
    equality rows, and makes it feasible by the dual simplex under the dual
    Bland rule, which cannot cycle (Bland 1977).  Phase 2 enters the column
    of most negative reduced cost (Dantzig's rule), and after :data:`STALL`
    degenerate pivots in a row the smallest such column (Bland's rule) until
    a pivot is nondegenerate.  This terminates: nondegenerate pivots
    strictly raise the objective, so only a run of degenerate pivots can
    repeat a basis, and Bland's rule cannot cycle.  The point is read off
    the final tableau as integers over one denominator, kept as the
    result's ``scaled_point``.  Infeasible and unbounded inputs are
    reported as statuses, never exceptions.

    An objective whose nonzero entries are all ``int`` is the integer cost
    as it is; any other is scaled to integers by the lcm of its
    denominators.  The cost row is made primitive before it prices, so a
    positive multiple of an objective makes the same pivots.

    Phase 1 never reads the objective, so its tableau is computed once per
    system and kept on it (:attr:`LinearSystem._phase1_tableau`).  Each call
    runs phase 2 on a copy: solving a system again makes exactly the
    phase-2 pivots of a cold solve and returns the same result.

    ``lazy_rows`` are ``(coeffs, rhs)`` rows ``coeffs . x <= rhs`` over the
    columns of ``sys``.  They are frozen and checked as :class:`FrozenRows`
    (rows already frozen for the width of ``sys``, as the builders return
    them, are used as they are) and separated from the optimum through
    their column index: the rows its point violates join the tableau
    (:meth:`_Tableau.add_row`), the dual simplex (:meth:`_Tableau.restore`)
    makes the point feasible again, and this repeats until no lazy row is
    violated.  The result is the base optimum,
    with the optimum over ``sys`` plus every lazy row in ``lazy``: it is
    Infeasible when the lazy rows empty the feasible set, and it has the
    base status when the base has no optimum to separate.
    """
    if len(objective) != sys.var_count:
        raise InputError("objective length does not match variable count")
    if lazy_rows is not None:
        try:
            lazy_rows = FrozenRows(lazy_rows, sys.var_count)
        except _ColumnError:
            raise InputError(f"lazy row names a column outside 0..{sys.var_count - 1}") from None
    cost = {v: c for v, c in enumerate(objective) if c}
    denom = 1  # cost is the objective times denom, in integers
    if not all(type(c) is int for c in cost.values()):  # a bool is scaled too
        # ints and Fractions have the numerator and denominator _scaled reads
        nums, denom = _scaled(
            [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in cost.values()]
        )
        cost = dict(zip(cost, nums))
    ready = sys._phase1_tableau
    if ready is None:
        return _no_optimum("Infeasible", lazy_rows)

    tab = ready.copy()  # the system's tableau is shared
    if tab.run(tab.expand(cost.items())) == "unbounded":
        return _no_optimum("Unbounded", lazy_rows)
    xs, scale = tab.point()
    result = _optimum(sys, cost, denom, xs, scale)
    if lazy_rows is None:
        return result

    cuts = set()
    while violated := list(_violated(lazy_rows, xs, scale)):
        if not cuts.isdisjoint(violated):
            raise InternalInvariantError("LP optimizer violates one of its own cuts")
        cuts.update(violated)
        for k in violated:
            tab.add_row(*lazy_rows[k], tab.rhs + 1 + k)
        if tab.restore() == "infeasible":
            result.lazy = LpResult(status="Infeasible")
            return result
        xs, scale = tab.point()
    # The loop ends only at a point that meets every lazy row.
    result.lazy = _optimum(sys, cost, denom, xs, scale) if cuts else replace(result)
    if result.lazy.value > result.value:  # pragma: no cover - sandwich guard
        raise InternalInvariantError("lazy-row optimum exceeded the base optimum")
    return result


def _no_optimum(status: str, lazy_rows) -> LpResult:
    """An Infeasible or Unbounded result; with lazy rows, ``lazy`` has the same status."""
    return LpResult(status=status, lazy=None if lazy_rows is None else LpResult(status=status))


def _optimum(sys: LinearSystem, cost: dict[int, int], denom: int, xs: list[int], scale: int):
    """The Optimal :class:`LpResult` at the point ``xs / scale`` for the objective
    ``cost / denom``, its point built by :func:`_unscaled` and ``(xs, scale)`` kept
    as its ``scaled_point``; InternalInvariantError unless the point is in ``sys``."""
    if not sys._holds(xs, scale):  # pragma: no cover - exactness guard
        raise InternalInvariantError("simplex returned an infeasible point")
    value = Fraction(sum(c * xs[j] for j, c in cost.items()), denom * scale)
    return LpResult("Optimal", value, _unscaled(xs, scale), scaled_point=(xs, scale))
