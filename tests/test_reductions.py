import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satpoly.blockpoint import BlockPoint
from satpoly.errors import InputError
from satpoly.recognition import integer_max_oracle
from satpoly.reductions import (
    Cnf3Formula,
    apply_clause_weights,
    assignment_from_code,
    max_sat_oracle,
    nae3sat_oracle,
    objective_max3sat,
    objective_nae3sat,
    objective_x3sat,
    parse_cnf3,
    weighted_max_sat_oracle,
    x3sat_oracle,
)
from satpoly.vertices import VertexCode
from tests.conftest import (
    FORMULA_18,
    TABLE3A_ROWS,
    TABLE3B_ROWS,
    TABLE3C_ROWS,
    grid_point,
)


def test_parse_formula():
    f = parse_cnf3(FORMULA_18)
    assert f.var_count == 4 and f.clause_count == 3
    assert f.clauses[0] == ((1, False), (2, False), (3, True))
    assert f.clauses[2] == ((2, True), (3, False), (4, True))


def test_parse_rejects_short_clause():
    with pytest.raises(InputError):
        parse_cnf3("p cnf 2 1\n1 2 0\n")


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(InputError):
        parse_cnf3("p cnf 2 1\n1 2 3 0\n")


def test_parse_empty_formula():
    f = parse_cnf3("p cnf 3 0\n")
    assert f.var_count == 3 and f.clause_count == 0


def random_formula(rng, m, n, distinct=False):
    clauses = []
    for _ in range(n):
        pool = range(1, m + 1)
        variables = rng.sample(pool, 3) if distinct else [rng.choice(pool) for _ in range(3)]
        clauses.append(tuple((v, rng.random() < 0.5) for v in variables))
    return Cnf3Formula(m, tuple(clauses))


def test_max3sat_objective_matches_published_table(formula18_text):
    v = objective_max3sat(parse_cnf3(formula18_text))
    assert v == grid_point(TABLE3A_ROWS)


def test_x3sat_objective_matches_published_table(formula18_text):
    w = objective_x3sat(parse_cnf3(formula18_text))
    assert w == grid_point(TABLE3B_ROWS)


def test_nae3sat_objective_matches_published_table(formula18_text):
    y = objective_nae3sat(parse_cnf3(formula18_text))
    assert y == grid_point(TABLE3C_ROWS)


def test_repeated_literal_clause_shapes():
    triple = Cnf3Formula(1, (((1, False), (1, False), (1, False)),))
    v = objective_max3sat(triple)
    assert [v[0, 0, k, 0] for k in range(3)] == [1, 1, 1]
    assert all(v[0, 0, k, 1] == 0 for k in range(3))
    # a one-variable clause can never be not-all-equal
    y = objective_nae3sat(triple)
    value, _ = integer_max_oracle(y, 1, 1)
    assert value < 3
    assert not nae3sat_oracle(triple)


def test_formula18_exactly_one_and_not_all_equal(formula18_text):
    f = parse_cnf3(formula18_text)
    w_max, _ = integer_max_oracle(objective_x3sat(f), 4, 3)
    assert (w_max == 9) == x3sat_oracle(f)
    y_max, _ = integer_max_oracle(objective_nae3sat(f), 4, 3)
    assert (y_max == 9) == nae3sat_oracle(f)


def test_formula18_max_sat_value(formula18_text):
    from satpoly.blockpoint import objective_value
    from satpoly.vertices import code_to_point, enumerate_integral_vertices

    f = parse_cnf3(formula18_text)
    v = objective_max3sat(f)
    value, _ = integer_max_oracle(v, f.var_count, f.clause_count)
    assert value == 3 == max_sat_oracle(f)
    # every vertex achieving the optimum decodes to a satisfying assignment
    maximizers = 0
    for code in enumerate_integral_vertices(f.var_count, f.clause_count):
        if objective_value(v, code_to_point(code)) != 3:
            continue
        maximizers += 1
        assignment = assignment_from_code(code)
        assert all(
            any(assignment.values[var - 1] != neg for var, neg in clause)
            for clause in f.clauses
        )
    assert maximizers > 0


def test_objectives_zero_outside_incident_blocks():
    rng = random.Random(808)
    for _ in range(8):
        f = random_formula(rng, rng.randint(2, 4), rng.randint(1, 3))
        members = [
            {var for var, _ in clause} for clause in f.clauses
        ]
        for objective in (
            objective_max3sat(f),
            objective_x3sat(f),
            objective_nae3sat(f),
        ):
            for o, val in enumerate(objective.values):
                i, j = divmod(o // 6, objective.n)
                if val:
                    assert (i + 1) in members[j]


def test_assignment_from_code():
    assert assignment_from_code(VertexCode((0, 0), (0,))).values == (True, True)
    assert assignment_from_code(VertexCode((1, 1), (0,))).values == (False, False)
    # the column part never affects the decoded assignment
    for col in ((0,), (1,), (2,)):
        assert assignment_from_code(VertexCode((1, 0), col)).values == (False, True)


def test_clause_weights():
    f = parse_cnf3(FORMULA_18)
    v = objective_max3sat(f)
    assert apply_clause_weights(v, [Fraction(1)] * 3) == v
    doubled = apply_clause_weights(v, [Fraction(2), Fraction(1), Fraction(1)])
    expect = grid_point(TABLE3A_ROWS)
    for i in range(4):
        for k in range(3):
            for l in range(2):
                expect[i, 0, k, l] *= 2
    assert doubled == expect
    with pytest.raises(InputError):
        apply_clause_weights(v, [Fraction(-1), Fraction(1), Fraction(1)])


def test_weighted_maximum_agrees_with_truth_table():
    rng = random.Random(19)
    for _ in range(10):
        f = random_formula(rng, rng.randint(2, 4), rng.randint(1, 3))
        weights = [Fraction(rng.randint(0, 3)) for _ in range(f.clause_count)]
        weighted = apply_clause_weights(objective_max3sat(f), weights)
        value, _ = integer_max_oracle(weighted, f.var_count, f.clause_count)
        assert value == weighted_max_sat_oracle(f, weights)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_all_three_objectives_agree_with_truth_tables(seed):
    # the exactly-one and not-all-equal correspondences need three distinct
    # variables per clause (a block scores at most one literal place); the
    # max-sat one also tolerates repeats
    rng = random.Random(seed)
    for _ in range(12):
        m = rng.randint(3, 4)
        n = rng.randint(1, 4)
        f = random_formula(rng, m, n, distinct=True)
        v_max, _ = integer_max_oracle(objective_max3sat(f), m, n)
        assert v_max == max_sat_oracle(f)
        w_max, _ = integer_max_oracle(objective_x3sat(f), m, n)
        assert (w_max == 3 * n) == x3sat_oracle(f)
        y_max, _ = integer_max_oracle(objective_nae3sat(f), m, n)
        assert (y_max == 3 * n) == nae3sat_oracle(f)


def test_max_sat_objective_tolerates_repeated_variables():
    rng = random.Random(404)
    for _ in range(12):
        m = rng.randint(2, 4)
        n = rng.randint(1, 4)
        f = random_formula(rng, m, n)
        v_max, _ = integer_max_oracle(objective_max3sat(f), m, n)
        assert v_max == max_sat_oracle(f)


def test_x3sat_column_bound():
    # every feasible point scores at most 3 per block column
    from satpoly.builders import build_satp_lp
    from satpoly.linsys import lp_maximize

    f = parse_cnf3(FORMULA_18)
    w = objective_x3sat(f)
    sys = build_satp_lp(4, 3)
    for j in range(3):
        column_only = w.copy()
        for i in range(4):
            for jj in range(3):
                if jj != j:
                    for k in range(3):
                        for l in range(2):
                            column_only[i, jj, k, l] = Fraction(0)
        res = lp_maximize(sys, column_only.flat())
        assert res.value <= 3


@st.composite
def cnf3_formulas(draw, max_vars=5, max_clauses=5):
    """Formulas over up to ``max_vars`` variables: literals may repeat a variable
    inside a clause, and a variable may appear in no clause."""
    m = draw(st.integers(1, max_vars))
    literal = st.tuples(st.integers(1, m), st.booleans())
    clauses = draw(st.lists(st.tuples(literal, literal, literal), min_size=1, max_size=max_clauses))
    return Cnf3Formula(m, tuple(clauses))


def reference_objective(formula, kind):
    """The objective cell by cell, as ``Fraction``s, from the module docstring's
    1-based conventions: place k, side 1 (side 2 for a negated literal)."""
    c = BlockPoint.zeros(formula.var_count, formula.clause_count)
    for j, clause in enumerate(formula.clauses, 1):
        for k, (var, neg) in enumerate(clause, 1):
            side, mirror = (2, 1) if neg else (1, 2)
            k1, k2 = k % 3 + 1, (k + 1) % 3 + 1  # the next places, cyclically
            cells = {
                "max": [(k, side)],
                "x": [(k, side)] + [(s, mirror) for s in (1, 2, 3) if s != k],
                "nae": [(k, side), (k1, mirror), (k2, 1), (k2, 2)],
            }[kind]
            for row, col in cells:
                c[var - 1, j - 1, row - 1, col - 1] = Fraction(1)
    return c


CONSTRUCTORS = {"max": objective_max3sat, "x": objective_x3sat, "nae": objective_nae3sat}


@settings(max_examples=200, deadline=None)
@given(cnf3_formulas(), st.sampled_from(sorted(CONSTRUCTORS)))
@example(Cnf3Formula(1, (((1, False), (1, True), (1, False)),)), "x")  # one variable, three places
@example(Cnf3Formula(3, (((2, True), (2, True), (1, False)),)), "nae")  # variable 3 unused
def test_objectives_match_a_fraction_reference(formula, kind):
    c = CONSTRUCTORS[kind](formula)
    reference = reference_objective(formula, kind)
    assert c == reference
    assert all(type(x) is int for x in c.values)  # never a float or a bool
    assert c.to_text(tag="objective") == reference.to_text(tag="objective")
