import copy
import hashlib
import pickle
import random
import re
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satpoly.builders import build_satp_lp
from satpoly.errors import BudgetError, InputError
from satpoly.linsys import (
    MAX_TEXT_VARS,
    FrozenRows,
    LinearSystem,
    LpResult,
    _Tableau,
    _scaled,
    _violated,
    lp_maximize,
    rank,
    rank_at_most,
    unique_solution,
)
from satpoly.rational import format_rational, format_vector
from satpoly.vertices import _free_rows, enumerate_lp_vertices, fractional_vertex, is_edge
from tests.conftest import build_kind
from tests.test_elimination import sparse_rows
from tests.test_vertices import COEFFS

ONE = Fraction(1)
ZERO = Fraction(0)


def sparse(dense):
    """The sparse row of a dense coefficient list."""
    return {j: c for j, c in enumerate(dense) if c}


def unit(v):
    return {v: ONE}


def test_lp_forced_equality():
    sys = LinearSystem(2, eq_rows=[({0: ONE, 1: ONE}, ONE)])
    res = lp_maximize(sys, [ONE, ONE])
    assert res.status == "Optimal"
    assert res.value == 1


def test_lp_unbounded():
    assert lp_maximize(LinearSystem(1), [ONE]).status == "Unbounded"


def test_lp_infeasible():
    sys = LinearSystem(2, eq_rows=[({0: 1, 1: 1}, ONE), ({0: 1, 1: 1}, Fraction(2))])
    assert lp_maximize(sys, [ONE, ZERO]).status == "Infeasible"


def test_lp_single_block_system():
    res = lp_maximize(build_satp_lp(1, 1), [ONE] * 6)
    assert res.status == "Optimal" and res.value == 1


def test_lp_dimension_mismatch():
    with pytest.raises(InputError):
        lp_maximize(LinearSystem(2), [ONE])


def test_lp_free_variable():
    # minimize-like: maximize -x with x free and x >= -5 encoded as -x <= 5
    sys = LinearSystem(1, ineq_rows=[({0: Fraction(-1)}, Fraction(5))], nonneg=[False])
    res = lp_maximize(sys, [Fraction(-1)])
    assert res.status == "Optimal"
    assert res.value == 5 and res.point == [Fraction(-5)]


def test_lp_objective_entries_of_every_type_give_one_cost():
    # ints and Fractions are scaled as they are, other types through Fraction(c)
    sys = LinearSystem(3, ineq_rows=[({0: 1, 1: 1, 2: 1}, 2), ({0: 1}, 1), ({2: 1}, 1)])
    expected = lp_maximize(sys, [Fraction(3, 2), Fraction(0), Fraction(1)])
    assert expected.value == Fraction(5, 2)
    for objective in (
        [Fraction(3, 2), 0, True],
        [1.5, 0.0, 1],
        [Decimal("1.5"), Decimal(0), Fraction(1)],
        ["3/2", 0, 1],
    ):
        result = lp_maximize(sys, objective)
        assert result == expected and type(result.value) is Fraction
    # an objective of ints is the cost as it is; twice the objective, twice the value
    doubled = lp_maximize(sys, [3, 0, 2])
    assert doubled.point == expected.point and doubled.value == 2 * expected.value
    assert all(type(x) is Fraction for x in [doubled.value, *doubled.point])


def test_lp_point_replay_exact():
    rng = random.Random(11)
    for _ in range(25):
        nvars = rng.randint(2, 5)
        sys = LinearSystem(
            nvars,
            eq_rows=[
                (
                    sparse([Fraction(rng.randint(-2, 2)) for _ in range(nvars)]),
                    Fraction(rng.randint(0, 3)),
                )
            ],
            ineq_rows=[
                (
                    sparse([Fraction(rng.randint(-2, 2)) for _ in range(nvars)]),
                    Fraction(rng.randint(0, 4)),
                )
                for _ in range(2)
            ]
            + [(unit(w), Fraction(3)) for w in range(nvars)],
        )
        objective = [Fraction(rng.randint(-3, 3)) for _ in range(nvars)]
        res = lp_maximize(sys, objective)
        if res.status != "Optimal":
            continue
        assert sys.is_feasible(res.point)
        assert sum(c * x for c, x in zip(objective, res.point)) == res.value
        for idx in sys.tight_set(res.point):
            if idx >= len(sys.eq_rows):
                coeffs, rhs = sys.ineq_rows[idx - len(sys.eq_rows)]
                assert sum(c * res.point[j] for j, c in coeffs.items()) == rhs


def test_lp_matches_vertex_enumeration_on_random_systems():
    rng = random.Random(23)
    checked = 0
    for _ in range(30):
        nvars = rng.randint(2, 4)
        eq = [
            (
                sparse([Fraction(rng.randint(0, 2)) for _ in range(nvars)]),
                Fraction(rng.randint(1, 3)),
            )
        ]
        bounds = [(unit(w), Fraction(2)) for w in range(nvars)]
        sys = LinearSystem(nvars, eq_rows=eq, ineq_rows=bounds)
        objective = [Fraction(rng.randint(-3, 3)) for _ in range(nvars)]
        res = lp_maximize(sys, objective)
        verts = enumerate_lp_vertices(sys)
        if res.status == "Infeasible":
            assert verts == []
            continue
        assert res.status == "Optimal"  # bounded by construction
        best = max(sum(c * x for c, x in zip(objective, v)) for v in verts)
        assert best == res.value
        checked += 1
    assert checked >= 10


def test_lp_handles_negative_rhs_and_redundancy():
    rng = random.Random(41)
    agreements = 0
    for _ in range(40):
        nvars = rng.randint(2, 4)
        eq_coeffs = sparse([Fraction(rng.randint(-2, 2)) for _ in range(nvars)])
        eq = [(eq_coeffs, Fraction(rng.randint(-2, 2)))]
        if rng.random() < 0.5:
            eq.append((dict(eq_coeffs), eq[0][1]))  # duplicate equality row
        ineq = [
            (
                sparse([Fraction(rng.randint(-2, 2)) for _ in range(nvars)]),
                Fraction(rng.randint(-3, 3)),  # negative rhs exercises phase 1
            )
            for _ in range(2)
        ]
        ineq += [(unit(w), Fraction(3)) for w in range(nvars)]
        sys = LinearSystem(nvars, eq_rows=eq, ineq_rows=ineq)
        objective = [Fraction(rng.randint(-3, 3)) for _ in range(nvars)]
        res = lp_maximize(sys, objective)
        verts = enumerate_lp_vertices(sys)
        if res.status == "Infeasible":
            assert verts == []
            continue
        assert res.status == "Optimal"
        assert res.value == max(
            sum(c * x for c, x in zip(objective, v)) for v in verts
        )
        agreements += 1
    assert agreements >= 10


@st.composite
def boxed_lps(draw):
    """A system over up to four variables, some free, each boxed by ``le``
    rows so that the LP is optimal or infeasible, and an objective.  Entries
    are rational, right sides of either sign, and explicit zero entries may
    be kept in the rows."""
    n = draw(st.integers(1, 4))
    nonneg = draw(st.lists(st.sampled_from((True, True, False)), min_size=n, max_size=n))
    row = st.tuples(st.lists(COEFFS, min_size=n, max_size=n), COEFFS)
    keep_zeros = draw(st.booleans())
    eq_rows = sparse_rows(draw(st.lists(row, max_size=2)), keep_zeros)
    ineq_rows = sparse_rows(draw(st.lists(row, max_size=3)), keep_zeros)
    for v in range(n):
        ineq_rows.append(({v: 1}, draw(st.integers(1, 3))))
        if not nonneg[v]:
            ineq_rows.append(({v: -1}, draw(COEFFS)))  # x_v >= -rhs
    objective = draw(st.lists(COEFFS, min_size=n, max_size=n))
    return LinearSystem(n, eq_rows=eq_rows, ineq_rows=ineq_rows, nonneg=nonneg), objective


@settings(max_examples=300, deadline=None)
@given(boxed_lps())
def test_lp_matches_vertex_enumeration_on_boxed_systems(lp):
    sys, objective = lp
    res = lp_maximize(sys, objective)
    verts = enumerate_lp_vertices(sys)
    if not verts:
        assert res.status == "Infeasible"
        return
    assert res.status == "Optimal"
    assert res.value == max(sum(c * x for c, x in zip(objective, v)) for v in verts)
    assert type(res.value) is Fraction
    assert all(type(x) is Fraction for x in res.point)
    assert sys.is_feasible(res.point)


# sha256[:16] of the `satpoly lp` output for the objective (7v mod 5) - 2.
LP_DIGESTS = {
    ("satp", 3, 3): "58dc07bb8735f08a",
    ("satp2", 3, 3): "a19e2131cf775700",
    ("bqp", None, 6): "fcf9dab18fd840af",
    ("met", None, 6): "719cee9a3a75994d",
}


@pytest.mark.parametrize("kind,m,n", LP_DIGESTS)
def test_lp_output_digest(kind, m, n):
    sys = build_kind(kind, m, n)
    res = lp_maximize(sys, [(7 * v) % 5 - 2 for v in range(sys.var_count)])
    text = (
        f"status {res.status}\n"
        f"value {format_rational(res.value)}\n"
        f"point {format_vector(res.point)}\n"
        f"tight {' '.join(str(i) for i in sorted(sys.tight_set(res.point)))}\n"
    )
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == LP_DIGESTS[kind, m, n]


def test_satp_systems_never_unbounded():
    rng = random.Random(5)
    sys = build_satp_lp(2, 2)
    for _ in range(10):
        objective = [Fraction(rng.randint(-5, 5)) for _ in range(24)]
        assert lp_maximize(sys, objective).status == "Optimal"


def test_rank_examples():
    assert rank([{0: ONE}, {1: ONE}]) == 2
    assert rank([{0: ONE, 1: ONE}, {0: Fraction(2), 1: Fraction(2)}]) == 1
    assert rank([]) == 0
    assert rank([{}, {3: ZERO}]) == 0
    assert rank([{0: ONE}, {0: ONE, 5: ONE}, {5: -1}]) == 2


def test_rank_fractional_rows():
    half_third = {0: Fraction(1, 2), 1: Fraction(1, 3)}
    assert rank([half_third, {0: Fraction(3, 2), 1: ONE}]) == 1
    assert rank([half_third, {0: Fraction(3, 2), 1: Fraction(2)}]) == 2


def test_rank_of_table9_tight_system():
    point = fractional_vertex(6)
    tight = reference_tight_rows(build_satp_lp(6, 6), [point.flat()])
    assert rank([coeffs for coeffs, _ in tight]) == 216


def test_unique_solution_cases():
    assert unique_solution(LinearSystem(1, eq_rows=[({0: ONE}, ONE)])) == [ONE]
    assert unique_solution(LinearSystem(2, eq_rows=[({0: 1, 1: 1}, ONE)])) is None
    inconsistent = LinearSystem(1, eq_rows=[({0: 1}, ONE), ({0: 1}, Fraction(2))])
    assert unique_solution(inconsistent) is None


def test_unique_solution_recovers_table9_point():
    point = fractional_vertex(6)
    tight = reference_tight_rows(build_satp_lp(6, 6), [point.flat()])
    assert unique_solution(LinearSystem(216, eq_rows=tight)) == point.flat()


def test_system_serialization_roundtrip():
    sys = LinearSystem(
        3,
        eq_rows=[({0: ONE, 1: Fraction(-1, 2)}, Fraction(2, 3))],
        ineq_rows=[({1: ONE, 2: ONE}, Fraction(5))],
        nonneg=[True, False, True],
    )
    text = sys.to_text()
    assert text == "vars 3\nnonneg 1 0 1\neq 1 -1/2 0 | 2/3\nle 0 1 1 | 5\n"
    back = LinearSystem.from_text(text)
    assert back.var_count == 3
    assert back.eq_rows == sys.eq_rows
    assert back.ineq_rows == sys.ineq_rows
    assert back.nonneg == sys.nonneg


def test_system_from_text_rejects_malformed():
    with pytest.raises(InputError):
        LinearSystem.from_text("eq 1 1 | 1\n")  # no header
    with pytest.raises(InputError):
        LinearSystem.from_text("vars 2\neq 1 | 1\n")  # wrong width
    with pytest.raises(InputError, match="duplicate 'vars' header"):
        LinearSystem.from_text("vars 2\neq 1 1 | 1\nvars 3\n")
    with pytest.raises(BudgetError, match="'vars' header over the limit"):
        LinearSystem.from_text(f"vars {MAX_TEXT_VARS + 1}\nle 1 | 1\n")


def test_constructor_rejects_rows_outside_the_sparse_format():
    with pytest.raises(InputError):
        LinearSystem(2, eq_rows=[({2: 1}, 0)])  # column outside range(2)
    with pytest.raises(InputError):
        LinearSystem(2, ineq_rows=[({-1: 1}, 0)])
    with pytest.raises(InputError):
        LinearSystem(2, eq_rows=[([ONE, ONE], ONE)])  # a dense list row


def test_a_row_key_outside_the_columns_is_refused_by_name():
    message = "constraint row must be a {column: coefficient} dict over columns 0..2"
    for key in (-1, 3, "a", 1.5, 1.0):
        for rows in ("eq_rows", "ineq_rows"):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                LinearSystem(3, **{rows: [({0: 1, key: 1}, 0)]})
    # the class itself checks, and 1.0 is refused beside another row's 1
    for rows in ([({99: 1}, 1)], [({1: 1}, 0), ({1.0: 1}, 0)]):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            FrozenRows(rows, 3)
    # True == 1 and hash(True) == hash(1): it names column 1, as in range(3)
    sys = LinearSystem(3, ineq_rows=[({True: 1}, 1)])
    assert sys.is_feasible([0, 1, 0]) and not sys.is_feasible([0, 2, 0])


def test_rows_with_values_or_shapes_outside_the_format_are_refused():
    # a float coefficient once constructed and then raised AttributeError in
    # lp_maximize, and a row that is not a pair raised a bare TypeError
    pair = "constraint row must be a ({column: coefficient}, rhs) pair"
    values = "constraint row values must be ints or Fractions"
    cases = [
        ([5], pair),
        ([({0: 1},)], pair),
        ([({0: 1}, 1, 0)], pair),
        ([([1, 1], 1)], pair),
        ([({0: 1}, 1), ({0: 1.5}, 1)], values),
        ([({0: "1"}, 1)], values),
        ([({0: Decimal(1)}, 1)], values),
        ([({0: 1}, 1.0)], values),
        ([({0: 1}, "1")], values),
    ]
    for rows, message in cases:
        for name in ("eq_rows", "ineq_rows"):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                LinearSystem(2, **{name: rows})
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            lp_maximize(LinearSystem(2), [1, 0], lazy_rows=rows)
    with pytest.raises(InputError, match=f"^{re.escape(pair)}$"):
        FrozenRows(5, 2)
    # ints, bools and Fractions are the values a row holds
    sys = LinearSystem(2, ineq_rows=[({0: Fraction(1, 2), 1: True}, Fraction(3, 2)), ({0: 1}, 1)])
    assert lp_maximize(sys, [1, 1]).value == 2


def test_a_system_survives_deepcopy_and_pickle():
    # deepcopy once raised TypeError from FrozenRows.__new__, and pickle
    # refused the read-only row maps
    systems = [
        LinearSystem(
            3,
            eq_rows=[({0: 1, 1: 1, 2: 1}, 1)],
            ineq_rows=[({0: Fraction(1, 2), 1: -1}, 0), ({1: 1}, Fraction(1, 3))],
            nonneg=(True, False, True),
        ),
        build_satp_lp(2, 2),  # memoized, with its phase-1 tableau and column index kept
    ]
    lp_maximize(systems[1], [1] * 24)
    for system in systems:
        objective = [Fraction(k % 5, 1 + k % 3) for k in range(system.var_count)]
        expected = lp_maximize(system, objective, lazy_rows=[({0: 1}, Fraction(1, 4))])
        for copied in (copy.deepcopy(system), pickle.loads(pickle.dumps(system))):
            assert copied == system and copied is not system
            for rows in (copied.eq_rows, copied.ineq_rows):
                assert type(rows) is FrozenRows and rows.var_count == system.var_count
            result = lp_maximize(copied, objective, lazy_rows=[({0: 1}, Fraction(1, 4))])
            assert result == expected


def test_free_rows_drop_the_pinned_columns_and_the_rows_left_empty():
    sys = LinearSystem(
        3,
        eq_rows=[({0: 1, 1: 1, 2: 1}, 1)],
        ineq_rows=[({0: 1, 1: -1}, 0), ({1: 1}, 1), ({0: 1, 2: -1}, 0)],
    )
    # at (0, 1, 0) row 1 is slack, rows 2 and 3 are met and columns 0 and 2 are pinned
    at = _scaled([ZERO, ONE, ZERO])
    assert sys._tight_at([at]) == ([0, 2, 3], {0, 2})
    # the last row has no free entry, so no row is built for it
    assert _free_rows(sys, at) == ([{1: 1}, {1: 1}], 1)


def test_row_tests_refuse_a_point_of_the_wrong_length():
    # an extra entry was once ignored and a missing one raised a bare IndexError
    sys = build_satp_lp(1, 1)
    point = [ONE] + [ZERO] * 5
    for wrong in (point + [ZERO], point[:5]):
        for pair in ((point, wrong), (wrong, point)):
            with pytest.raises(InputError, match="point has wrong dimension"):
                is_edge(sys, *pair)
        with pytest.raises(InputError, match="point has wrong dimension"):
            sys.tight_set(wrong)
        with pytest.raises(InputError, match="point has wrong dimension"):
            sys.is_feasible(wrong)
    # the equality row, and the five zero entries pinned
    assert sys._tight_at([_scaled(point)]) == ([0], {1, 2, 3, 4, 5})
    assert sys.tight_set(point) == {0}


def test_lazy_rows_cut_only_where_strictly_violated(monkeypatch):
    # the base optimum is (1/2, 1/2); a lazy row met with equality there is
    # no cut, and an empty row reads 0, so ({}, -1) is violated everywhere
    base = LinearSystem(2, ineq_rows=[({0: 1}, Fraction(1, 2)), ({1: 1}, Fraction(1, 2))])
    rows = [({0: 1, 1: 1}, 1), ({0: 1}, 0), ({1: -1}, 0), ({0: 2}, 1)]
    cuts = []
    add_row = _Tableau.add_row

    def recorded(tab, coeffs, rhs, slack):
        cuts.append(slack - tab.rhs - 1)  # lazy row k has slack column rhs + 1 + k
        add_row(tab, coeffs, rhs, slack)

    monkeypatch.setattr(_Tableau, "add_row", recorded)
    res = lp_maximize(base, [ONE, ONE], lazy_rows=rows)
    assert (res.status, res.value, res.point) == ("Optimal", 1, [Fraction(1, 2)] * 2)
    assert res.lazy == LpResult("Optimal", Fraction(1, 2), [ZERO, Fraction(1, 2)])
    assert cuts == [1]
    cuts.clear()
    res = lp_maximize(base, [ONE, ONE], lazy_rows=rows + [({}, -1)])
    assert res.value == 1 and res.lazy == LpResult("Infeasible")
    assert cuts == [1, 4]
    # with no lazy row to cut, the lazy optimum is the base optimum
    assert lp_maximize(base, [ONE, ONE], lazy_rows=[]).lazy == replace(res, lazy=None)
    with pytest.raises(InputError, match="lazy row names a column outside 0..1"):
        lp_maximize(base, [ONE, ONE], lazy_rows=[({2: 1}, 0)])
    with pytest.raises(InputError, match="lazy row names a column outside"):
        lp_maximize(base, [ONE, ONE], lazy_rows=[({-1: 1}, 0)])


def reference_value(coeffs, point):
    """``coeffs . point`` summed term by term in ``Fraction``."""
    return sum((Fraction(c) * Fraction(point[j]) for j, c in coeffs.items()), Fraction(0))


POINT_ENTRIES = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)


@st.composite
def systems_at_points(draw):
    """A system, two points with mixed denominators and negative entries, and
    an objective.  Each right side sits at, above or below its row's value at
    the first point, so rows are met with equality, slack and violated; rows
    may be empty or keep explicit zeros, and entries mix ``int`` and ``p/q``."""
    n = draw(st.integers(1, 4))
    point = draw(st.lists(POINT_ENTRIES, min_size=n, max_size=n))
    other = draw(st.one_of(st.just(point), st.lists(POINT_ENTRIES, min_size=n, max_size=n)))
    offsets = st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 5), Fraction(-2, 3)])

    def rows(max_size):
        row = st.dictionaries(st.integers(0, n - 1), COEFFS, max_size=n)
        coeffs = draw(st.lists(row, max_size=max_size))
        rhs = [reference_value(c, point) + draw(offsets) for c in coeffs]
        return [(c, int(b) if b.denominator == 1 else b) for c, b in zip(coeffs, rhs)]

    nonneg = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    system = LinearSystem(n, eq_rows=rows(2), ineq_rows=rows(5), nonneg=nonneg)
    objective = draw(st.lists(COEFFS, min_size=n, max_size=n))
    return system, point, other, objective


def reference_tight_at(system, points):
    """The rows met with equality at every point, numbered as ``_tight_at``
    numbers them, and the nonnegative columns zero at every point."""
    e = len(system.eq_rows)
    rows = list(range(e)) + [
        e + k
        for k, (coeffs, rhs) in enumerate(system.ineq_rows)
        if all(reference_value(coeffs, p) == rhs for p in points)
    ]
    pinned = {
        v for v, flag in enumerate(system.nonneg) if flag and all(p[v] == 0 for p in points)
    }
    return rows, pinned


def reference_tight_rows(system, points):
    """The rows active at every point, then a unit row for each pinned column."""
    indices, pinned = reference_tight_at(system, points)
    rows = system.eq_rows + system.ineq_rows
    return tuple([rows[i] for i in indices] + [({v: 1}, 0) for v in sorted(pinned)])


@settings(max_examples=300, deadline=None)
@given(systems_at_points())
def test_row_tests_match_a_fraction_reference(case):
    system, point, other, objective = case
    violated = [
        k
        for k, (coeffs, rhs) in enumerate(system.ineq_rows)
        if reference_value(coeffs, point) > rhs
    ]
    feasible = (
        all(reference_value(coeffs, point) == rhs for coeffs, rhs in system.eq_rows)
        and not violated
        and all(x >= 0 for flag, x in zip(system.nonneg, point) if flag)
    )
    assert system.is_feasible(point) == feasible
    for points in ([point], [point, other]):
        assert system._tight_at(list(map(_scaled, points))) == reference_tight_at(system, points)

    # Box every variable into [-3, 3], so that the LP is optimal or infeasible.
    boxes = [({v: sign}, 3) for v in range(system.var_count) for sign in (1, -1)]
    boxed = LinearSystem(
        system.var_count,
        eq_rows=system.eq_rows,
        ineq_rows=[*system.ineq_rows, *boxes],
        nonneg=system.nonneg,
    )
    res = lp_maximize(boxed, objective)
    if res.status == "Optimal":
        e = len(boxed.eq_rows)
        assert boxed.tight_set(res.point) == set(range(e)) | {
            e + k
            for k, (coeffs, rhs) in enumerate(boxed.ineq_rows)
            if reference_value(coeffs, res.point) == rhs
        }
        assert res.value == reference_value(dict(enumerate(objective)), res.point)
    else:  # the point lies in the box, so a feasible point keeps the LP feasible
        assert res.status == "Infeasible" and not feasible


@settings(max_examples=200, deadline=None)
@given(systems_at_points())
@example(  # an empty row violated everywhere, at the zero point
    (LinearSystem(2, ineq_rows=[({}, -1), ({0: 1}, 0)]), [0, 0], [0, 0], [1, 1])
)
@example(  # free columns at negative values, Fraction coefficients and right sides
    (
        LinearSystem(
            2,
            eq_rows=[({0: Fraction(1, 2), 1: 1}, Fraction(-5, 4))],
            ineq_rows=[({0: Fraction(-2, 3)}, Fraction(1, 3)), ({1: -1}, 0)],
            nonneg=[False, False],
        ),
        [Fraction(-1, 2), -1],
        [0, 0],
        [1, -1],
    )
)
def test_integer_row_tests_match_a_fraction_reference(case):
    system, point, _, objective = case
    n = system.var_count
    xs, scale = _scaled(point)
    for rows in (system.eq_rows, system.ineq_rows):
        values = [reference_value(coeffs, point) for coeffs, _ in rows]
        assert [Fraction(t, scale) for t in rows.activities(xs)] == values
    violated = [
        k
        for k, (coeffs, rhs) in enumerate(system.ineq_rows)
        if reference_value(coeffs, point) > rhs
    ]
    assert list(_violated(system.ineq_rows, xs, scale)) == violated
    feasible = (
        all(reference_value(coeffs, point) == rhs for coeffs, rhs in system.eq_rows)
        and not violated
        and all(x >= 0 for flag, x in zip(system.nonneg, point) if flag)
    )
    assert system._scaled_point(point) == (xs, scale)
    assert system._holds(xs, scale) == feasible

    # The inequality rows as lazy rows over a box: a plain list is frozen, rows
    # frozen for this width pass through, rows frozen for more are checked again.
    box = LinearSystem(
        n, ineq_rows=[({v: sign}, 3) for v in range(n) for sign in (1, -1)], nonneg=system.nonneg
    )
    plain = [(dict(coeffs), rhs) for coeffs, rhs in system.ineq_rows]
    expected = lp_maximize(box, objective, lazy_rows=plain)
    if expected.lazy.status == "Optimal":
        assert all(reference_value(coeffs, expected.lazy.point) <= rhs for coeffs, rhs in plain)
    assert FrozenRows(system.ineq_rows, n) is system.ineq_rows
    assert lp_maximize(box, objective, lazy_rows=system.ineq_rows) == expected
    wide = FrozenRows(plain, n + 1)
    assert FrozenRows(wide, n) is not wide and FrozenRows(wide, n) == wide
    assert lp_maximize(box, objective, lazy_rows=wide) == expected
    outside = FrozenRows([*plain, ({n: 1}, 0)], n + 1)
    with pytest.raises(InputError, match=f"^lazy row names a column outside 0..{n - 1}$"):
        lp_maximize(box, objective, lazy_rows=outside)


def test_the_column_index_holds_only_the_columns_its_rows_name():
    # the index costs the rows' entries, not the vars header
    last = MAX_TEXT_VARS - 1
    sys = LinearSystem(MAX_TEXT_VARS, ineq_rows=[({0: 1, last: 2}, 1)])
    assert sys.ineq_rows.columns == {0: [(0, 1)], last: [(0, 2)]}
    assert sys.eq_rows.columns == {}


def test_the_row_check_costs_the_entries_not_the_vars_header():
    # the 10^6 nonneg flags take 7.6 MiB; a set of every column took 74.8 MiB
    tracemalloc.start()
    try:
        LinearSystem(MAX_TEXT_VARS, ineq_rows=[({0: 1}, 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


@settings(max_examples=200, deadline=None)
@given(systems_at_points(), st.data())
def test_free_rows_keep_the_rank_of_the_tight_rows(case, data):
    system, point, other, _ = case
    for points in ([point], [point, other]):
        rows, free = _free_rows(system, *map(_scaled, points))
        pinned = system.var_count - free
        tight = [coeffs for coeffs, _ in reference_tight_rows(system, points)]
        assert pinned + rank(rows) == rank(tight)
        cap = data.draw(st.integers(pinned, system.var_count))
        assert pinned + rank_at_most(rows, cap - pinned) == rank_at_most(tight, cap)


def dense_text(system):
    """The dense writer: every column of every row formatted on its own."""
    lines = [f"vars {system.var_count}"]
    if not all(system.nonneg):
        lines.append("nonneg " + " ".join(str(int(f)) for f in system.nonneg))
    for kind, rows in (("eq", system.eq_rows), ("le", system.ineq_rows)):
        for coeffs, rhs in rows:
            cells = [format_rational(coeffs.get(j, 0)) for j in range(system.var_count)]
            lines.append(" ".join([kind, *cells, "|", format_rational(rhs)]))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(systems_at_points())
def test_sparse_writer_matches_the_dense_writer(case):
    # the rows keep explicit zeros and mix negative, int and p/q entries
    system = case[0]
    text = system.to_text()
    assert text == dense_text(system)
    def nonzero(rows):
        return [({j: c for j, c in coeffs.items() if c}, rhs) for coeffs, rhs in rows]

    back = LinearSystem.from_text(text)
    assert back == replace(
        system, eq_rows=nonzero(system.eq_rows), ineq_rows=nonzero(system.ineq_rows)
    )
    assert back.to_text() == text


def test_sparse_writer_prints_coefficients_past_the_str_limit():
    huge = Fraction(-(10**5000), 3)  # str() refuses its numerator
    system = LinearSystem(3, ineq_rows=[({0: 0, 2: huge}, 1)])
    text = system.to_text()
    assert text == dense_text(system)
    assert text == "vars 3\nle 0 0 -1" + "0" * 5000 + "/3 | 1\n"


BUILDER_KINDS = [
    ("satp", 2, 3),
    ("satp2", 2, 2),
    ("bqp", None, 4),
    ("bqp-std", None, 3),
    ("met", None, 4),
]


@pytest.mark.parametrize("kind,m,n", BUILDER_KINDS)
def test_builder_text_roundtrip_keeps_int_values(kind, m, n):
    sys = build_kind(kind, m, n)
    back = LinearSystem.from_text(sys.to_text())
    assert back == sys
    rows = back.eq_rows + back.ineq_rows
    values = [v for coeffs, rhs in rows for v in (*coeffs.values(), rhs)]
    assert values and all(type(v) is int for v in values)


def test_row_reader_drops_zero_values_and_keeps_validation():
    back = LinearSystem.from_text("vars 4\neq 00 -0 0/7 3/6 | 4/2\nle 0 -2 0 0 | 0\n")
    assert back.eq_rows == (({3: Fraction(1, 2)}, 2),)
    assert back.ineq_rows == (({1: -2}, 0),)
    assert [type(v) for v in (back.eq_rows[0][1], back.ineq_rows[0][0][1])] == [int, int]
    bad_rows = [
        ("1/0 0 0 0 | 1", "zero denominator: '1/0'"),
        ("0.0 0 0 0 | 1", "not a rational literal: '0.0'"),
        ("+1 0 0 0 | 1", "not a rational literal: '+1'"),
        ("x 0 0 0 | 1", "not a rational literal: 'x'"),
        ("0 0 0 0 | 0.0", "not a rational literal: '0.0'"),
        ("0 0 0 0 1", "constraint row missing '|' separator"),
        ("0 0 0 | 1", "constraint row has wrong shape"),  # short
        ("0 0 0 0 0 | 1", "constraint row has wrong shape"),  # long
        ("0 0 0 0 | 1 2", "constraint row has wrong shape"),
        ("0 0 0 0 |", "constraint row has wrong shape"),
        # a '|' at the separator's place and a second among the coefficients
        ("0 | 0 0 | 1", "constraint row has wrong shape"),
        ("x | 0 0 | 1", "constraint row has wrong shape"),
        ("0 0 0 0 | |", "not a rational literal: '|'"),
    ]
    for row, message in bad_rows:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            LinearSystem.from_text(f"vars 4\nle {row}\n")
    # tokens[-1] is the '|' of a one-token row, which no header fits
    with pytest.raises(InputError, match="^constraint row has wrong shape$"):
        LinearSystem.from_text("vars -1\nle |\n")
