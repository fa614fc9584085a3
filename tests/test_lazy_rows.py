"""Lazy rows of :func:`satpoly.linsys.lp_maximize` against the cold separation loop.

The reference below is the loop that separated strengthening rows before
they joined the optimal tableau: the rows the optimizer violates become
cuts, and the base rows plus all cuts are solved again from scratch until
no row is violated.  The warm path must reach the same status and value at
a point that meets the base rows and every lazy row, and the base solve
inside it must make exactly the pivots of a plain solve.
"""

from dataclasses import replace
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from satpoly.linsys import LinearSystem, _Tableau, lp_maximize
from tests.test_linsys import reference_value
from tests.test_simplex import recorded_pivots
from tests.test_vertices import COEFFS


def cold_separation(base, rows, objective):
    """Reference: optima over ``base`` and over ``base`` plus the ``<=`` rows
    ``rows``, the second by solving the base rows plus all cuts from scratch."""
    relaxed = result = lp_maximize(base, objective)
    cuts = set()
    while result.status == "Optimal":
        violated = {k for k, (a, b) in enumerate(rows) if reference_value(a, result.point) > b}
        if not violated:
            break
        assert cuts.isdisjoint(violated)
        cuts |= violated
        ineq = base.ineq_rows + tuple(rows[k] for k in sorted(cuts))
        system = LinearSystem(base.var_count, base.eq_rows, ineq, base.nonneg)
        result = lp_maximize(system, objective)
    return relaxed, result


@st.composite
def lazy_problems(draw):
    """A system over up to four variables, some free, boxed into [-3, 3] in
    two cases of three so that it has an optimum, and one to six lazy rows.
    The base right sides sit at or above each row's value at a drawn point,
    or one below.  Most lazy ones pass through the midpoint of that point
    and the base optimum, so they cut the optimum but not the point; the
    others sit three below, which often empties the system.  A row may
    repeat, doubled (ties in the ratio tests)."""
    n = draw(st.integers(1, 4))
    nonneg = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    point = [draw(st.fractions(0 if flag else -2, 2, max_denominator=3)) for flag in nonneg]
    coeffs = st.dictionaries(st.integers(0, n - 1), COEFFS, max_size=n)

    def rows(at, offsets, min_size=0, max_size=4):
        drawn = draw(st.lists(coeffs, min_size=min_size, max_size=max_size))
        drawn = [(a, reference_value(a, at) + draw(offsets)) for a in drawn]
        if drawn and draw(st.booleans()):
            a, b = draw(st.sampled_from(drawn))
            drawn.append(({j: 2 * c for j, c in a.items()}, 2 * b))
        return drawn

    ineq_rows = rows(point, st.sampled_from([0, 0, 1, Fraction(1, 2), 0, 1, -1]))
    if draw(st.integers(0, 2)):
        ineq_rows += [({v: sign}, 3) for v in range(n) for sign in (1, -1)]
    sys = LinearSystem(n, rows(point, st.just(0), max_size=2), ineq_rows, nonneg)
    objective = draw(st.lists(COEFFS, min_size=n, max_size=n))
    base = lp_maximize(sys, objective)
    at = [(x + y) / 2 for x, y in zip(base.point, point)] if base.status == "Optimal" else point
    return sys, objective, rows(at, st.sampled_from([0, 0, 0, -3]), min_size=1, max_size=6)


EMPTYING = (LinearSystem(1, ineq_rows=[({0: 1}, 1)]), [1], [({0: -1}, -2)])  # x <= 1, x >= 2
UNBOUNDED = (LinearSystem(2, ineq_rows=[({0: 1, 1: -1}, 1)]), [1, 1], [({0: 1}, 3)])
INFEASIBLE = (LinearSystem(1, eq_rows=[({0: 1}, -1)]), [1], [({0: 1}, 0)])
# two rounds: the base optimum (2, 2) violates only the first row, and the
# first cut moves the optimum to (1, 2), which violates the second
TWO_ROUNDS = (
    LinearSystem(2, ineq_rows=[({0: 1}, 2), ({1: 1}, 2)]),
    [2, 1],
    [({0: 1}, 1), ({0: -1, 1: 1}, Fraction(1, 2))],
)


@settings(max_examples=300, deadline=None)
@given(lazy_problems())
@example(EMPTYING)
@example(UNBOUNDED)
@example(INFEASIBLE)
@example(TWO_ROUNDS)
def test_lazy_rows_match_the_cold_separation_loop(problem):
    sys, objective, rows = problem
    warm = lp_maximize(sys, objective, lazy_rows=rows)
    relaxed, strengthened = cold_separation(sys, rows, objective)
    assert replace(warm, lazy=None) == relaxed
    lazy = warm.lazy
    assert (lazy.status, lazy.value) == (strengthened.status, strengthened.value)
    assert lazy.lazy is None
    if lazy.status == "Optimal":
        assert sys.is_feasible(lazy.point)
        assert all(reference_value(a, lazy.point) <= b for a, b in rows)
        assert lazy.value == reference_value(dict(enumerate(objective)), lazy.point)
        assert lazy.value <= warm.value
    else:
        assert (lazy.value, lazy.point) == (None, None)


def test_the_examples_reach_every_outcome():
    statuses = [lp_maximize(*case).lazy.status for case in (EMPTYING, UNBOUNDED, INFEASIBLE)]
    assert statuses == ["Infeasible", "Unbounded", "Infeasible"]
    assert lp_maximize(*EMPTYING).status == "Optimal"
    sys, objective, rows = TWO_ROUNDS
    with recorded_pivots(_Tableau) as pivots:
        res = lp_maximize(replace(sys), objective, lazy_rows=rows)
    assert (res.value, res.lazy.value, res.lazy.point) == (6, Fraction(7, 2), [1, Fraction(3, 2)])
    assert len(pivots) == 4  # two phase-2 pivots, then one dual pivot per round


@settings(max_examples=200, deadline=None)
@given(lazy_problems())
def test_lazy_rows_keep_the_pivots_of_the_plain_solve(problem):
    sys, objective, rows = problem
    with recorded_pivots(_Tableau) as plain_pivots:
        plain = lp_maximize(replace(sys), objective)
    with recorded_pivots(_Tableau) as lazy_pivots:
        warm = lp_maximize(replace(sys), objective, lazy_rows=rows)
    assert replace(warm, lazy=None) == plain
    assert lazy_pivots[: len(plain_pivots)] == plain_pivots
