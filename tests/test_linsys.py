import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpoly.builders import PolytopeId, build_satp_lp
from satpoly.errors import InputError
from satpoly.linsys import LinearSystem, lp_maximize, rank, unique_solution, violated_rows
from satpoly.rational import format_rational, format_vector
from satpoly.vertices import enumerate_lp_vertices, fractional_vertex
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
    ("satp", 3, 3): "c82c066127808527",
    ("satp2", 3, 3): "a19e2131cf775700",
    ("bqp", None, 6): "fcf9dab18fd840af",
    ("met", None, 6): "719cee9a3a75994d",
}


@pytest.mark.parametrize("kind,m,n", LP_DIGESTS)
def test_lp_output_digest(kind, m, n):
    sys = PolytopeId(kind, m=m, n=n).build()
    res = lp_maximize(sys, [(7 * v) % 5 - 2 for v in range(sys.var_count)])
    text = (
        f"status {res.status}\n"
        f"value {format_rational(res.value)}\n"
        f"point {format_vector(res.point)}\n"
        f"tight {' '.join(str(i) for i in sorted(res.tight_set))}\n"
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
    with pytest.raises(InputError, match="duplicate 'vars' header"):
        LinearSystem.from_text("vars 2\neq 1 1 | 1\nvars 3\n")


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


def test_violated_rows_lists_strict_violations_in_row_order():
    rows = [({0: 1, 1: 1}, 1), ({0: 1}, 0), ({1: -1}, 0), ({}, -1), ({0: 2}, 1)]
    point = [Fraction(1, 2), Fraction(1, 2)]
    # a row met with equality is not violated; an empty row reads 0
    assert violated_rows(rows, point) == [1, 3]
    assert violated_rows([], point) == []
