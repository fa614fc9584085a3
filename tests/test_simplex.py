"""The integer simplex tableau against the ``Fraction`` tableau it replaced.

The reference below is a rational tableau and two-phase solver written
apart from :mod:`satpoly.linsys`: phase 1 starts the inequality rows on
their slacks, pivots each independent equality row in on its smallest
column, and restores feasibility by a ``Fraction`` dual simplex under the
dual Bland rule; phase 2 prices by Dantzig's rule with the Bland fallback,
over its ``Fraction`` reduced costs.  Both must make the same pivots, in
the same order, and return equal results.  A cold solve, the first on a
system, makes every pivot; a warm one, on a system that keeps its phase-1
tableau, makes only the phase-2 pivots of the cold solve.
"""

import random
import threading
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from sys import getswitchinterval, setswitchinterval

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satpoly.linsys as linsys
from satpoly.builders import build_bqp_lp, build_satp_lp, met_triangle_rows, satp2_inequality_rows
from satpoly.linsys import STALL, LinearSystem, LpResult, _Tableau, lp_maximize
from tests.test_vertices import COEFFS


class FractionTableau:
    """Reference: sparse ``Fraction`` tableau, each row over a basic entry of 1;
    Dantzig's rule with a Bland fallback, and the dual Bland rule."""

    def __init__(self, rows, basis, rhs):
        self.rows = rows
        self.basis = basis
        self.rhs = rhs

    def pivot(self, row, col):
        pivrow = self.rows[row]
        pv = pivrow[col]
        if pv != 1:
            inv = Fraction(1) / pv
            for j, x in pivrow.items():
                pivrow[j] = x * inv
        for i, ri in enumerate(self.rows):
            f = ri.get(col)
            if f and i != row:
                sub_scaled(ri, f, pivrow)
        self.basis[row] = col

    def run(self, cost, allowed):
        """Dantzig's rule: the column of least reduced cost enters, ties to the
        smaller column, except that after ``STALL`` zero-ratio pivots in a row
        the smallest column of negative reduced cost enters, until a pivot
        with a positive ratio."""
        rows, basis, rhs = self.rows, self.basis, self.rhs
        zrow = {j: -c for j, c in cost.items()}
        for i, b in enumerate(basis):
            f = zrow.get(b)
            if f:
                sub_scaled(zrow, f, rows[i])
        degenerate = 0
        while True:
            columns = sorted(j for j, x in zrow.items() if j < allowed and x < 0)
            if not columns:
                return "optimal", zrow
            enter = columns[0]
            if degenerate < STALL:
                for j in columns:
                    if zrow[j] < zrow[enter]:
                        enter = j
            leave = -1
            best = None
            for i, ri in enumerate(rows):
                a = ri.get(enter)
                if a is not None and a > 0:
                    ratio = ri.get(rhs, 0) / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded", zrow
            degenerate = degenerate + 1 if best == 0 else 0
            self.pivot(leave, enter)
            f = zrow.get(enter)
            if f:
                sub_scaled(zrow, f, rows[leave])

    def restore(self, zrow):
        """Dual simplex from the dual-feasible ``zrow``, which it keeps reduced:
        of the rows with a negative right side the one with the smallest basic
        column leaves, and of the columns with a negative entry ``a`` in that
        row the one of least ``zrow[j] / -a`` enters, ties to the smaller
        column; a leaving row with no negative entry proves infeasibility."""
        rows, basis, rhs = self.rows, self.basis, self.rhs
        while True:
            infeasible = [i for i, ri in enumerate(rows) if ri.get(rhs, 0) < 0]
            if not infeasible:
                return "optimal"
            leave = min(infeasible, key=lambda i: basis[i])
            enter = -1
            best = None
            for j in sorted(rows[leave]):
                a = rows[leave][j]
                if j != rhs and a < 0:
                    ratio = zrow.get(j, 0) / -a
                    if best is None or ratio < best:
                        best = ratio
                        enter = j
            if enter < 0:
                return "infeasible"
            self.pivot(leave, enter)
            f = zrow.get(enter)
            if f:
                sub_scaled(zrow, f, rows[leave])


def sub_scaled(row, f, other):
    """``row -= f * other`` in place, dropping the entries that cancel."""
    for j, x in other.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            row.pop(j, None)


def fraction_lp_maximize(sys, objective):
    """Reference: the two-phase simplex over :class:`FractionTableau`."""
    cost = {v: Fraction(c) for v, c in enumerate(objective) if c}
    col_of_var = []
    ncols = 0
    for flag in sys.nonneg:
        col_of_var.append((ncols, None) if flag else (ncols, ncols + 1))
        ncols += 1 if flag else 2
    slack0 = ncols
    rhs_col = ncols + len(sys.ineq_rows)

    def expand(coeffs):
        row = {}
        for v, c in coeffs.items():
            if c:
                pos, neg = col_of_var[v]
                row[pos] = Fraction(c)
                if neg is not None:
                    row[neg] = -row[pos]
        return row

    tab = FractionTableau([], [], rhs_col)
    for k, (coeffs, rhs) in enumerate(sys.ineq_rows):
        row = expand(coeffs)
        row[slack0 + k] = Fraction(1)
        if rhs:
            row[rhs_col] = Fraction(rhs)
        tab.rows.append(row)
        tab.basis.append(slack0 + k)
    for coeffs, rhs in sys.eq_rows:
        row = expand(coeffs)
        if rhs:
            row[rhs_col] = Fraction(rhs)
        for i, b in enumerate(tab.basis):
            f = row.get(b)
            if f:
                sub_scaled(row, f, tab.rows[i])
        if not row:  # a combination of the rows before it
            continue
        if list(row) == [rhs_col]:  # 0 = rhs with rhs != 0
            return LpResult(status="Infeasible")
        tab.rows.append(row)
        tab.basis.append(None)
        tab.pivot(len(tab.rows) - 1, min(row))
    if tab.restore({}) == "infeasible":
        return LpResult(status="Infeasible")

    status, _ = tab.run(expand(cost), rhs_col)
    if status == "unbounded":
        return LpResult(status="Unbounded")
    zero = Fraction(0)
    col_values = {b: row.get(rhs_col, zero) for b, row in zip(tab.basis, tab.rows)}
    point = [col_values.get(pos, zero) - col_values.get(neg, zero) for pos, neg in col_of_var]
    value = sum((c * point[v] for v, c in cost.items()), zero)
    return LpResult(status="Optimal", value=value, point=point)


def fraction_tight_set(sys, point):
    """Reference: the rows active at ``point``, summed in ``Fraction``."""
    e = len(sys.eq_rows)
    return set(range(e)) | {
        e + k
        for k, (coeffs, rhs) in enumerate(sys.ineq_rows)
        if sum(c * point[j] for j, c in coeffs.items()) == rhs
    }


class PivotCapReached(Exception):
    """Raised by :func:`recorded_pivots` at the pivot past its cap."""


@contextmanager
def recorded_pivots(cls, cap=None):
    """The ``(row, col)`` of every ``cls.pivot`` call inside the block, in order;
    the pivot past ``cap`` raises :class:`PivotCapReached`, so a rule that
    cycles fails instead of running forever."""
    pivots = []
    original = cls.pivot

    def pivot(self, row, col):
        pivots.append((row, col))
        if cap is not None and len(pivots) > cap:
            raise PivotCapReached(cap)
        original(self, row, col)

    cls.pivot = pivot
    try:
        yield pivots
    finally:
        cls.pivot = original


# Chvátal, Linear Programming (1983), p. 31: the largest-coefficient rule,
# ties in the ratio test to the smallest basic column, cycles through six
# degenerate bases from the slack basis.
CHVATAL = LinearSystem(
    4,
    ineq_rows=[
        ({0: Fraction(1, 2), 1: Fraction(-11, 2), 2: Fraction(-5, 2), 3: 9}, 0),
        ({0: Fraction(1, 2), 1: Fraction(-3, 2), 2: Fraction(-1, 2), 3: 1}, 0),
        ({0: 1}, 1),
    ],
)
CHVATAL_OBJECTIVE = [10, -57, -9, -24]


@st.composite
def lp_problems(draw):
    """A system over up to four variables, some free, with p/q entries,
    right sides of either sign, and maybe a repeated or doubled row (ties in
    the ratio test); unbounded and infeasible problems are frequent."""
    n = draw(st.integers(1, 4))
    nonneg = draw(st.lists(st.sampled_from((True, True, False)), min_size=n, max_size=n))
    row = st.tuples(st.dictionaries(st.integers(0, n - 1), COEFFS, max_size=n), COEFFS)
    eq_rows = draw(st.lists(row, max_size=2))
    ineq_rows = draw(st.lists(row, max_size=5))
    for rows in (eq_rows, ineq_rows):
        if rows and draw(st.booleans()):
            coeffs, rhs = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from((1, 2, Fraction(1, 3))))
            rows.append(({j: scale * c for j, c in coeffs.items()}, scale * rhs))
    objective = draw(st.lists(COEFFS, min_size=n, max_size=n))
    return LinearSystem(n, eq_rows=eq_rows, ineq_rows=ineq_rows, nonneg=nonneg), objective


@settings(max_examples=400, deadline=None)
@given(lp_problems())
@example((LinearSystem(1, eq_rows=[({0: 1}, -1)]), [1]))  # infeasible
@example((LinearSystem(2, ineq_rows=[({0: 1, 1: -1}, 1)]), [1, 1]))  # unbounded
@example(  # a tie in the ratio test, broken by the lower basic column
    (LinearSystem(2, ineq_rows=[({0: 1}, 1), ({0: 2, 1: 1}, 2), ({1: 1}, 0)]), [1, 1])
)
@example(  # an equality row pivoted in on a negative entry, its right side zero
    (LinearSystem(2, eq_rows=[({0: -1, 1: -1}, 0)], ineq_rows=[({0: 1, 1: 2}, 4)]), [1, -1])
)
@example(  # a duplicated equality row reduces to nothing and is dropped
    (LinearSystem(2, eq_rows=[({0: 1, 1: 1}, 1), ({0: 2, 1: 2}, 2)]), [1, 0])
)
@example(  # the second equality reduces to 0 = 1: Infeasible with no dual pivot
    (LinearSystem(2, eq_rows=[({0: 1, 1: 1}, 1), ({0: 2, 1: 2}, 3)]), [1, 0])
)
@example(  # an equality over a free variable, its minus column entering by a dual pivot
    (LinearSystem(2, eq_rows=[({0: -1, 1: 1}, 2)], nonneg=[False, True]), [1, -2])
)
@example(  # x1 + x2 = -1 over nonnegative variables: the dual phase ends infeasible
    (LinearSystem(2, eq_rows=[({0: 1, 1: 1}, -1)]), [1, 1])
)
@example((CHVATAL, CHVATAL_OBJECTIVE))  # STALL degenerate pivots, then Bland's rule
def test_integer_tableau_pivots_like_the_fraction_tableau(problem):
    sys, objective = problem
    sys = replace(sys)  # a new system has no phase-1 tableau: a cold solve
    with recorded_pivots(_Tableau, cap=200) as pivots:
        result = lp_maximize(sys, objective)
    with recorded_pivots(FractionTableau, cap=200) as reference_pivots:
        reference = fraction_lp_maximize(sys, objective)
    assert pivots == reference_pivots
    assert result == reference
    if result.status == "Optimal":
        assert sys.tight_set(result.point) == fraction_tight_set(sys, reference.point)
        assert type(result.value) is Fraction
        assert all(type(x) is Fraction for x in result.point)


def test_the_bland_fallback_breaks_chvatals_cycle():
    with recorded_pivots(_Tableau, cap=200) as pivots:
        result = lp_maximize(replace(CHVATAL), CHVATAL_OBJECTIVE)
    assert result == LpResult(status="Optimal", value=1, point=[1, 0, 1, 0])
    # Dantzig's rule walks the cycle, six pivots a turn, for STALL degenerate pivots
    assert pivots[6:STALL] == pivots[: STALL - 6]
    # then Bland's rule leaves it (x1 enters where the cycle had the slack
    # x6), and the first nondegenerate pivot, on x1 <= 1, is the last
    assert pivots[STALL:] == [(0, 2), (1, 3), (0, 4), (1, 0), (2, 2)]


def test_dantzig_pricing_alone_cycles_on_chvatals_example(monkeypatch):
    monkeypatch.setattr(linsys, "STALL", 10**9)
    with pytest.raises(PivotCapReached):
        with recorded_pivots(_Tableau, cap=200):
            lp_maximize(replace(CHVATAL), CHVATAL_OBJECTIVE)


@settings(max_examples=200, deadline=None)
@given(lp_problems())
def test_warm_solve_makes_only_the_cold_phase_2_pivots(problem):
    sys, objective = problem
    sys = replace(sys)
    with recorded_pivots(_Tableau) as cold_pivots:
        cold = lp_maximize(sys, objective)
    with recorded_pivots(_Tableau) as phase1_pivots:
        ready = linsys._phase1(sys)
    with recorded_pivots(_Tableau) as warm_pivots:
        warm = lp_maximize(sys, objective)
    assert warm == cold
    assert cold_pivots == phase1_pivots + warm_pivots
    assert (ready is None) == (cold.status == "Infeasible")


@st.composite
def lazy_lp_problems(draw):
    """A problem of :func:`lp_problems` and up to four lazy rows over its variables."""
    sys, objective = draw(lp_problems())
    coeffs = st.dictionaries(st.integers(0, sys.var_count - 1), COEFFS, max_size=sys.var_count)
    return sys, objective, draw(st.lists(st.tuples(coeffs, COEFFS), max_size=4))


@contextmanager
def checked_z_rows():
    """Check after every ``run``, ``add_row``, ``restore`` and ``pivot`` that
    ``tab.zrow`` is the cost row last given to ``run`` reduced at the current
    basis, the empty cost for a tableau not yet given one (phase 1's); yields
    the names of the checked calls, in order."""
    checked, costs = [], {}  # id(tab) -> (tab, cost): a kept tab's id is not reused
    originals = {name: getattr(_Tableau, name) for name in ("run", "add_row", "restore", "pivot")}

    def checking(name):
        def call(tab, *args):
            if name == "run":
                costs[id(tab)] = tab, args[0]
            result = originals[name](tab, *args)
            _, cost = costs.get(id(tab), (tab, {}))
            assert tab.zrow == tab.reduce(linsys._int_row({j: -c for j, c in cost.items()})), name
            checked.append(name)
            return result

        return call

    for name in originals:
        setattr(_Tableau, name, checking(name))
    try:
        yield checked
    finally:
        for name, method in originals.items():
            setattr(_Tableau, name, method)


@settings(max_examples=200, deadline=None)
@given(lazy_lp_problems())
def test_the_z_row_is_the_cost_row_reduced_at_the_basis(problem):
    sys, objective, lazy_rows = problem
    with checked_z_rows():
        lp_maximize(replace(sys), objective, lazy_rows=lazy_rows)  # a cold solve


def test_the_z_row_checks_reach_every_tableau_method():
    # phase 1's restore, with no pivot from the feasible slack basis, then
    # two cut rounds, each with one dual pivot
    sys = LinearSystem(2, ineq_rows=[({0: 1}, 2), ({1: 1}, 2)])
    with checked_z_rows() as checked:
        lp_maximize(sys, [2, 1], lazy_rows=[({0: 1}, 1), ({0: -1, 1: 1}, Fraction(1, 2))])
    assert checked.count("run") == 1 and checked.count("restore") == 3
    assert checked.count("add_row") == 2 and checked.count("pivot") == 4


def test_a_memoized_system_is_read_only():
    sys = build_satp_lp(2, 2)
    assert build_satp_lp(2, 2) is sys
    assert lp_maximize(sys, [1] * sys.var_count).value == 4  # phase 1 is kept on sys
    with pytest.raises(FrozenInstanceError):
        sys.var_count = 3
    with pytest.raises(FrozenInstanceError):
        sys.eq_rows = ()
    with pytest.raises(AttributeError):
        sys.eq_rows.append(({0: 1}, 0))
    with pytest.raises(TypeError):
        sys.eq_rows[0] = ({0: 1}, 0)
    with pytest.raises(TypeError):
        sys.eq_rows[0][0][5] = 1
    with pytest.raises(TypeError):
        sys.nonneg[0] = False
    with pytest.raises(TypeError):
        satp2_inequality_rows(2, 2)[0][0][0] = 2
    assert sys == build_satp_lp.__wrapped__(2, 2)
    # a row that is already read-only is shared, not wrapped again
    assert LinearSystem(sys.var_count, sys.eq_rows).eq_rows[0][0] is sys.eq_rows[0][0]


@pytest.mark.parametrize(
    "builder,shapes",
    [
        (build_satp_lp, [(1, n) for n in range(1, 21)]),
        (satp2_inequality_rows, [(2, n) for n in range(1, 21)]),
        (build_bqp_lp, [(n,) for n in range(2, 22)]),
        (met_triangle_rows, [(n,) for n in range(3, 23)]),
    ],
)
def test_builder_cache_keeps_16_shapes(builder, shapes):
    for shape in shapes:
        last = builder(*shape)
    info = builder.cache_info()
    assert info.maxsize == info.currsize == 16
    assert builder(*shapes[-1]) is last
    builder(*shapes[0])  # the least recently used shape was dropped
    assert builder.cache_info().misses == info.misses + 1


def test_threads_solving_one_memoized_system_agree_with_one_thread():
    # the shared system has no phase-1 tableau yet, so the threads race to
    # compute it; every answer must equal the single-thread answer.  Ties in
    # the objective make the optimal vertex depend on the starting basis, so
    # a solve that pivoted the shared tableau itself would show.
    rng = random.Random(5)
    objectives = [[rng.randint(-1, 1) for _ in range(54)] for _ in range(8)]
    expected = [lp_maximize(build_satp_lp.__wrapped__(3, 3), c) for c in objectives]
    build_satp_lp.cache_clear()
    shared = build_satp_lp(3, 3)
    errors = []

    def work(offset):
        try:
            for k in range(3 * len(objectives)):
                i = (offset + k) % len(objectives)
                assert lp_maximize(shared, objectives[i]) == expected[i]
        except AssertionError as exc:  # reported by the main thread
            errors.append(exc)

    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
