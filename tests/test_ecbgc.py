import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satpoly.blockpoint import BlockPoint
from satpoly.ecbgc import (
    Coloring,
    ConditionCheck,
    EcbgcInstance,
    brute_force_coloring,
    check_condition,
    coloring_is_valid,
    format_ecbgc,
    objective_from_instance,
    parse_ecbgc,
    reduce_x3sat_to_ecbgc,
    scale_edge_weights,
    solve_ecbgc,
)
from satpoly.errors import BalanceError, BudgetError, InputError, SubclassError
from satpoly.recognition import integer_max_oracle, normalization_ledger
from satpoly.reductions import Cnf3Formula, parse_cnf3, x3sat_oracle
from satpoly.vertices import enumerate_integral_vertices
from tests.conftest import (
    FORMULA_18,
    TABLE16_INSTANCE,
    TABLE16_OBJECTIVE_ROWS,
    balances,
    grid_point,
    random_subclass_instance,
)
from tests.test_reductions import cnf3_formulas, reference_objective

FULL = ((True, True, True), (True, True, True))


def test_parse_single_permissive_edge():
    inst = parse_ecbgc("ecbgc 1 1\nedge 1 1 : ++++++\n")
    assert inst.u_count == 1 and inst.v_count == 1
    assert inst.edges == ((1, 1, FULL),)


def test_parse_rejects_five_flags():
    with pytest.raises(InputError):
        parse_ecbgc("ecbgc 1 1\nedge 1 1 : +++++\n")


def test_parse_rejects_duplicates_and_range():
    with pytest.raises(InputError):
        parse_ecbgc("ecbgc 1 1\nedge 1 1 : ++++++\nedge 1 1 : ------\n")
    with pytest.raises(InputError):
        parse_ecbgc("ecbgc 1 1\nedge 2 1 : ++++++\n")


def test_parse_published_instance():
    inst = parse_ecbgc(TABLE16_INSTANCE)
    pc = inst.edge_map()[(1, 1)]
    # u-color 1 permits v-colors 1 and 2; u-color 2 permits only v-color 3
    assert pc[0] == (True, True, False)
    assert pc[1] == (False, False, True)
    assert format_ecbgc(inst) == TABLE16_INSTANCE


def test_check_condition_fully_permissive():
    inst = EcbgcInstance(2, 2, ((1, 1, FULL), (2, 2, FULL)))
    cond = check_condition(inst)
    assert cond.ok and cond.pairs == ((1, 2), (1, 2))


def test_check_condition_published_instance():
    cond = check_condition(parse_ecbgc(TABLE16_INSTANCE))
    assert cond.ok
    assert cond.pairs == ((1, 2), (1, 2))


def test_check_condition_fails_on_reduction_instance():
    inst = reduce_x3sat_to_ecbgc(parse_cnf3(FORMULA_18))
    cond = check_condition(inst)
    assert not cond.ok
    assert cond.violating is not None


def test_objective_matches_published_table():
    inst = parse_ecbgc(TABLE16_INSTANCE)
    cond = check_condition(inst)
    c = objective_from_instance(inst, cond.pairs)
    assert c == grid_point(TABLE16_OBJECTIVE_ROWS)
    assert all(balances(c, j, a, b) for j, (a, b) in enumerate(cond.pairs))


def test_objective_fully_permissive_edge():
    inst = EcbgcInstance(1, 1, ((1, 1, FULL),))
    c = objective_from_instance(inst, ((1, 2),))
    assert all(val == 1 for val in c.values)


def test_zero_balancing_single_permitted_combination():
    # only (v=a=1, u=1) permitted: the linked cell (v=b=2, u=2) gets -1
    pc = ((True, False, False), (False, False, False))
    inst = EcbgcInstance(1, 1, ((1, 1, pc),))
    c = objective_from_instance(inst, ((1, 2),))
    assert c[0, 0, 0, 0] == 1
    assert c[0, 0, 1, 1] == -1


def test_solve_single_edge_instances():
    only_13 = ((False, False, True), (False, False, False))
    inst = EcbgcInstance(1, 1, ((1, 1, only_13),))
    coloring = solve_ecbgc(inst)
    assert coloring == Coloring((1,), (3,))
    nothing = ((False,) * 3, (False,) * 3)
    assert solve_ecbgc(EcbgcInstance(1, 1, ((1, 1, nothing),))) is None


def test_solve_refuses_outside_subclass():
    inst = reduce_x3sat_to_ecbgc(parse_cnf3(FORMULA_18))
    with pytest.raises(SubclassError):
        solve_ecbgc(inst)


def test_brute_force_examples():
    inst = EcbgcInstance(2, 2, ((1, 1, FULL), (2, 2, FULL)))
    assert brute_force_coloring(inst) == Coloring((1, 1), (1, 1))
    only_22 = ((False, False, False), (False, True, False))
    assert brute_force_coloring(EcbgcInstance(1, 1, ((1, 1, only_22),))) == Coloring(
        (2,), (2,)
    )


def coloring_reference(inst):
    """The full walk: the first of the ``2^m 3^n`` codes every edge permits, or None."""
    for code in enumerate_integral_vertices(inst.u_count, inst.v_count):
        row, col = code.row, code.col
        if all(pc[row[i - 1]][col[j - 1]] for i, j, pc in inst.edges):
            return Coloring(tuple(r + 1 for r in row), tuple(k + 1 for k in col))
    return None


@st.composite
def coloring_instances(draw):
    """Instances on grids up to 4x4 with uniform tables on about two thirds of
    the pairs: several colors often fit a V-vertex, and about one in four
    instances has no coloring."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    flags = st.tuples(st.booleans(), st.booleans(), st.booleans())
    edges = [
        (i, j, draw(st.tuples(flags, flags)))
        for i in range(1, m + 1)
        for j in range(1, n + 1)
        if draw(st.sampled_from((True, True, False)))
    ]
    return EcbgcInstance(m, n, tuple(edges))


@settings(max_examples=300, deadline=None)
@given(coloring_instances())
def test_brute_force_coloring_matches_the_full_walk(inst):
    assert brute_force_coloring(inst) == coloring_reference(inst)


def test_brute_force_coloring_budget_bounds_row_codes_times_columns():
    inst = EcbgcInstance(3, 2, ())  # 2^3 U-colorings over 2 V-vertices
    assert brute_force_coloring(inst, budget=16) == Coloring((1, 1, 1), (1, 1))
    with pytest.raises(BudgetError):
        brute_force_coloring(inst, budget=15)
    # refused before a list per V-vertex is made
    with pytest.raises(BudgetError):
        brute_force_coloring(EcbgcInstance(1, 10**9, ()))


def test_solver_agrees_with_brute_force_sample():
    rng = random.Random(17)
    solved = colorable = 0
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        inst = random_subclass_instance(rng, m, n)
        if not check_condition(inst).ok:
            continue
        found = solve_ecbgc(inst)
        brute = brute_force_coloring(inst)
        assert (found is None) == (brute is None)
        if found is not None:
            assert coloring_is_valid(inst, found)
            colorable += 1
        solved += 1
    assert solved >= 15 and colorable >= 3


def test_reduction_shapes():
    inst = reduce_x3sat_to_ecbgc(parse_cnf3(FORMULA_18))
    assert inst.u_count == 4 and inst.v_count == 3
    assert len(inst.edges) == 9
    single = Cnf3Formula(3, (((1, False), (2, False), (3, False)),))
    assert len(reduce_x3sat_to_ecbgc(single).edges) == 3


def test_reduction_preserves_satisfiability():
    rng = random.Random(29)
    f18 = parse_cnf3(FORMULA_18)
    formulas = [f18]
    for _ in range(30):
        m = rng.randint(3, 4)
        n = rng.randint(1, 3)
        clauses = tuple(
            tuple((v, rng.random() < 0.5) for v in rng.sample(range(1, m + 1), 3))
            for _ in range(n)
        )
        formulas.append(Cnf3Formula(m, clauses))
    for f in formulas:
        inst = reduce_x3sat_to_ecbgc(f)
        assert (brute_force_coloring(inst) is not None) == x3sat_oracle(f)


def test_weighted_edges_keep_balance_and_scale_value():
    inst = parse_ecbgc(TABLE16_INSTANCE)
    cond = check_condition(inst)
    c = objective_from_instance(inst, cond.pairs)
    weights = {(1, 1): Fraction(2), (1, 2): Fraction(1), (2, 1): Fraction(3, 2), (2, 2): Fraction(1)}
    weighted = scale_edge_weights(c, inst, weights)
    assert all(balances(weighted, j, a, b) for j, (a, b) in enumerate(cond.pairs))
    base_value, base_code = integer_max_oracle(c, 2, 2)
    w_value, w_code = integer_max_oracle(weighted, 2, 2)
    # per-edge positive scaling never invalidates an argmax coloring
    coloring = Coloring(
        tuple(r + 1 for r in w_code.row), tuple(cc + 1 for cc in w_code.col)
    )
    if base_value == len(inst.edges):
        assert coloring_is_valid(inst, coloring)
    with pytest.raises(InputError):
        scale_edge_weights(c, inst, {(1, 1): Fraction(0)})


# Block (1, 2) is no edge; (0, 2) once wrapped to block (2, 2) and (3, 1)
# raised a bare IndexError.
@pytest.mark.parametrize(
    "grid, key",
    [((2, 2), (0, 2)), ((2, 2), (3, 1)), ((2, 2), (1, 2)), ((2, 3), (1, 1))],
    ids=["row-zero", "row-past-grid", "not-an-edge", "other-grid"],
)
def test_weights_off_the_instance_edges_are_input_errors(grid, key):
    inst = parse_ecbgc("ecbgc 2 2\nedge 1 1 : ++---+\nedge 2 2 : +--+-+\n")
    with pytest.raises(InputError):
        scale_edge_weights(BlockPoint.zeros(*grid), inst, {key: Fraction(5)})


def _first_ordered_pair(linked):
    """Reference search: the first of all six ordered pairs (a, b) that is linked."""
    return next((ab for ab in itertools.permutations((1, 2, 3), 2) if linked(*ab)), None)


def test_pair_searches_match_six_ordered_pairs():
    rng = random.Random(8)
    balanced = linked = 0
    for _ in range(600):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        c = BlockPoint.from_flat([rng.randint(0, 1) for _ in range(6 * m * n)], m, n)
        expected = [_first_ordered_pair(lambda a, b: balances(c, j, a, b)) for j in range(n)]
        if None in expected:
            with pytest.raises(BalanceError) as err:
                normalization_ledger(c)
            assert err.value.column == expected.index(None)
        else:
            c0 = normalization_ledger(c).apply_point(c)
            assert all(balances(c0, j, 2, 3) for j in range(n))
            balanced += 1

        edges = tuple(
            (i, j, tuple(tuple(rng.random() < 0.7 for _ in range(3)) for _ in range(2)))
            for i in range(1, m + 1)
            for j in range(1, n + 1)
            if rng.random() < 0.6
        )
        expected = [
            _first_ordered_pair(
                lambda a, b: all(
                    (pc[0][a - 1] and pc[1][b - 1]) == (pc[1][a - 1] and pc[0][b - 1])
                    for _, jj, pc in edges
                    if jj == j
                )
            )
            for j in range(1, n + 1)
        ]
        if None in expected:
            violating = expected.index(None) + 1
            assert check_condition(EcbgcInstance(m, n, edges)) == ConditionCheck(None, violating)
        else:
            assert check_condition(EcbgcInstance(m, n, edges)) == ConditionCheck(
                tuple(expected), None
            )
            linked += 1
    assert balanced >= 100 and linked >= 100


TABLES = [(f[:3], f[3:]) for f in itertools.product((False, True), repeat=6)]


def linked_by(pc, a, b):
    """The docstring's biconditional: ``pc(a,1) = pc(b,2) = '+'  <=>  pc(a,2) = pc(b,1) = '+'``."""
    return (pc[0][a - 1] and pc[1][b - 1]) == (pc[1][a - 1] and pc[0][b - 1])


@st.composite
def subclass_instances(draw):
    """An instance and one linked pair per V-vertex, each edge's table linked by it."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pair = st.sampled_from(list(itertools.permutations((1, 2, 3), 2)))
    pairs = tuple(draw(st.lists(pair, min_size=n, max_size=n)))
    cells = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n)), max_size=m * n))
    edges = tuple(
        (i, j, draw(st.sampled_from([pc for pc in TABLES if linked_by(pc, *pairs[j - 1])])))
        for i, j in sorted(cells)
    )
    return EcbgcInstance(m, n, edges), pairs


def reference_subclass_objective(inst, pairs):
    """The objective cell by cell, as ``Fraction``s, from the docstring: 1 at each
    permitted (V-color k, U-color s), and -1 diagonally opposite the one
    permitted combination of (a_j, b_j) when there is only one."""
    c = BlockPoint.zeros(inst.u_count, inst.v_count)
    for i, j, pc in inst.edges:
        for s in (1, 2):
            for k in (1, 2, 3):
                if pc[s - 1][k - 1]:
                    c[i - 1, j - 1, k - 1, s - 1] = Fraction(1)
        a, b = pairs[j - 1]
        opposite = {(a, 1): (b, 2), (a, 2): (b, 1), (b, 1): (a, 2), (b, 2): (a, 1)}
        permitted = [(k, s) for k, s in opposite if pc[s - 1][k - 1]]
        if len(permitted) == 1:
            k, s = opposite[permitted[0]]
            c[i - 1, j - 1, k - 1, s - 1] = Fraction(-1)
    return c


@settings(max_examples=200, deadline=None)
@given(subclass_instances())
def test_subclass_objective_matches_a_fraction_reference(drawn):
    inst, pairs = drawn
    c = objective_from_instance(inst, pairs)
    reference = reference_subclass_objective(inst, pairs)
    assert c == reference
    assert all(type(x) is int for x in c.values)  # never a float or a bool
    assert c.to_text(tag="objective") == reference.to_text(tag="objective")
    assert all(balances(c, j, a, b) for j, (a, b) in enumerate(pairs))


def reference_reduction(formula):
    """The parent construction: every block of the exactly-one objective, in
    row-major order, is an edge when it has a nonzero cell."""
    w = reference_objective(formula, "x")
    edges = []
    for i in range(formula.var_count):
        for j in range(formula.clause_count):
            blk = [w[i, j, k, l] for k in range(3) for l in range(2)]
            if any(blk):
                pc = (tuple(x == 1 for x in blk[0::2]), tuple(x == 1 for x in blk[1::2]))
                edges.append((i + 1, j + 1, pc))
    return EcbgcInstance(formula.var_count, formula.clause_count, tuple(edges))


@settings(max_examples=200, deadline=None)
@given(cnf3_formulas())
@example(Cnf3Formula(4, (((3, False), (3, True), (1, False)), ((1, True), (1, True), (1, True)))))
def test_reduction_matches_a_reference_scanning_every_block(formula):
    inst = reduce_x3sat_to_ecbgc(formula)
    assert inst == reference_reduction(formula)  # the same edges in the same order
    assert format_ecbgc(inst) == format_ecbgc(reference_reduction(formula))
