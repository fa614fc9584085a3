import random
from fractions import Fraction

import pytest

from satpoly.builders import build_satp_lp
from satpoly.errors import InputError
from satpoly.linsys import LinearSystem, lp_maximize, rank, unique_solution
from satpoly.vertices import enumerate_lp_vertices, fractional_vertex

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
        for idx in res.tight_set:
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
    tight = build_satp_lp(6, 6).tight_rows(point.flat())
    assert rank([coeffs for coeffs, _ in tight.eq_rows]) == 216


def test_unique_solution_cases():
    assert unique_solution(LinearSystem(1, eq_rows=[({0: ONE}, ONE)])) == [ONE]
    assert unique_solution(LinearSystem(2, eq_rows=[({0: 1, 1: 1}, ONE)])) is None
    inconsistent = LinearSystem(1, eq_rows=[({0: 1}, ONE), ({0: 1}, Fraction(2))])
    assert unique_solution(inconsistent) is None


def test_unique_solution_recovers_table9_point():
    point = fractional_vertex(6)
    tight = build_satp_lp(6, 6).tight_rows(point.flat())
    assert unique_solution(tight) == point.flat()


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


def test_constructor_rejects_rows_outside_the_sparse_format():
    with pytest.raises(InputError):
        LinearSystem(2, eq_rows=[({2: 1}, 0)])  # column outside range(2)
    with pytest.raises(InputError):
        LinearSystem(2, ineq_rows=[({-1: 1}, 0)])
    with pytest.raises(InputError):
        LinearSystem(2, eq_rows=[([ONE, ONE], ONE)])  # a dense list row


def test_tight_rows_share_rows_and_emit_unit_rows():
    sys = LinearSystem(
        3,
        eq_rows=[({0: 1, 1: 1, 2: 1}, 1)],
        ineq_rows=[({0: 1, 1: -1}, 0), ({1: 1}, 1)],
    )
    tight = sys.tight_rows([ZERO, ONE, ZERO])
    assert tight.eq_rows[0][0] is sys.eq_rows[0][0]
    assert tight.eq_rows[1][0] is sys.ineq_rows[1][0]
    assert tight.eq_rows == [
        ({0: 1, 1: 1, 2: 1}, 1),
        ({1: 1}, 1),
        ({0: 1}, 0),
        ({2: 1}, 0),
    ]
    assert tight.nonneg == [False] * 3
