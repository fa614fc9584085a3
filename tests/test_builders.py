import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from satpoly.builders import (
    bqp_pair_index,
    bqp_point_to_standard,
    bqp_standard_to_point,
    bqp_std_index,
    bqp_std_var_count,
    build_bqp_lp,
    build_bqp_standard,
    build_met,
    build_satp_lp,
    build_satp2_lp,
    met_triangle_rows,
    project_satp_face_to_bqp,
    satp2_inequality_rows,
)
from satpoly.ecbgc import EcbgcInstance
from satpoly.errors import BudgetError, FaceMembershipError, InputError
from satpoly.linsys import LinearSystem, lp_maximize
from satpoly.vertices import VertexCode, code_to_point, enumerate_integral_vertices
from tests.conftest import build_kind, grid_point, TABLE9_ROWS

ONE = Fraction(1)


def test_satp_lp_counts():
    s11 = build_satp_lp(1, 1)
    assert s11.var_count == 6 and len(s11.eq_rows) == 1 and not s11.ineq_rows
    s22 = build_satp_lp(2, 2)
    assert s22.var_count == 24 and len(s22.eq_rows) == 12
    # mn + m(n-1) + 3n(m-1) for a rectangular grid
    s34 = build_satp_lp(3, 4)
    assert len(s34.eq_rows) == 12 + 3 * 3 + 3 * 4 * 2
    with pytest.raises(InputError):
        build_satp_lp(0, 1)


def test_satp_lp_single_block_feasible():
    sys = build_satp_lp(1, 1)
    point = [ONE] + [Fraction(0)] * 5
    assert sys.is_feasible(point)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 3), (2, 3), (3, 2), (1, 3), (3, 1)])
def test_integral_vertices_satisfy_both_systems(m, n):
    base = build_satp_lp(m, n)
    strong = build_satp2_lp(m, n)
    for code in enumerate_integral_vertices(m, n):
        flat = code_to_point(code).flat()
        assert base.is_feasible(flat)
        assert strong.is_feasible(flat)


def test_satp2_counts_and_small_dims():
    s22 = build_satp2_lp(2, 2)
    assert s22.var_count == 24
    assert len(s22.eq_rows) == 12
    assert len(s22.ineq_rows) == 8
    s33 = build_satp2_lp(3, 3)
    assert len(s33.ineq_rows) == 2 * 3 * 2 * 3 * 2
    # degenerate dims fall back to the base system
    s1n = build_satp2_lp(1, 3)
    assert not s1n.ineq_rows


def test_satp2_contained_in_satp_on_random_directions():
    rng = random.Random(3)
    base = build_satp_lp(2, 2)
    strong = build_satp2_lp(2, 2)
    for _ in range(20):
        objective = [Fraction(rng.randint(-3, 3)) for _ in range(24)]
        res = lp_maximize(strong, objective)
        assert res.status == "Optimal"
        assert base.is_feasible(res.point)


def test_table9_vertex_cut_by_strengthening():
    point = grid_point(TABLE9_ROWS, denominator=7)
    flat = point.flat()
    strong = build_satp2_lp(6, 6)
    assert build_satp_lp(6, 6).is_feasible(flat)
    violated = [
        idx
        for idx, (coeffs, rhs) in enumerate(strong.ineq_rows)
        if sum(c * flat[j] for j, c in coeffs.items()) > rhs
    ]
    assert violated  # the strengthening cuts this fractional vertex off


def test_bqp_lp_shapes_and_examples():
    b2 = build_bqp_lp(2)
    # per pair: three inequality rows plus the nonnegativity flag family,
    # plus the explicit x_i <= 1 bounds
    assert b2.var_count == 3
    assert len(b2.ineq_rows) == 3 * 1 + 2
    assert all(b2.nonneg)
    assert b2.is_feasible([ONE, ONE, ONE])
    b3 = build_bqp_lp(3)
    assert b3.var_count == 6
    assert len(b3.ineq_rows) == 3 * 3 + 3
    with pytest.raises(InputError):
        build_bqp_lp(1)


def test_met_counts_and_cutting():
    m3 = build_met(3)
    assert len(m3.ineq_rows) == 12 + 4  # quadric rows plus one triangle family
    half = [Fraction(1, 2)] * 3 + [Fraction(0)] * 3
    assert build_bqp_lp(3).is_feasible(half)
    assert not m3.is_feasible(half)
    first_triangle = m3.ineq_rows[12]
    assert first_triangle == ({0: 1, 1: 1, 2: 1, 3: -1, 4: -1, 5: -1}, 1)
    lhs = sum(c * half[j] for j, c in first_triangle[0].items())
    assert lhs == Fraction(3, 2)
    assert met_triangle_rows(3) == m3.ineq_rows[12:]
    assert len(met_triangle_rows(5)) == 4 * 10
    assert met_triangle_rows(2) == ()
    with pytest.raises(InputError):
        build_met(2)


def test_strengthening_rows_over_a_million_coefficients_are_refused():
    # 24 m(m-1) n(n-1) coefficients for SATP^2, 18 C(n,3) for the triangle rows
    assert sum(len(a) for a, _ in satp2_inequality_rows(3, 4)) == 24 * 6 * 12
    assert sum(len(a) for a, _ in met_triangle_rows(6)) == 18 * 20
    # 14x14 holds 794,976 and n = 70 holds 985,320; the next sizes are refused
    for build in (satp2_inequality_rows, build_satp2_lp):
        with pytest.raises(BudgetError, match="15x15 satp2 rows exceed 1000000"):
            build(15, 15)
    for build in (met_triangle_rows, build_met):
        with pytest.raises(BudgetError, match="n = 71 triangle rows exceed 1000000"):
            build(71)


def test_met_keeps_zero_one_points():
    m3 = build_met(3)
    for bits in itertools.product((0, 1), repeat=3):
        point = [Fraction(b) for b in bits]
        point += [
            Fraction(bits[i] * bits[j]) for i in range(3) for j in range(i + 1, 3)
        ]
        assert m3.is_feasible(point)


def test_bqp_standard_shapes_and_ones_point():
    std2 = build_bqp_standard(2)
    assert std2.var_count == bqp_std_var_count(2) == 12
    ones = bqp_point_to_standard([ONE, ONE, ONE], 2)
    assert std2.is_feasible(ones)
    for i, j in ((0, 0), (0, 1), (1, 1)):
        assert ones[bqp_std_index(i, j, 0, 0, 2)] == 1


def test_bqp_standard_slack_identities_and_equivalence():
    rng = random.Random(7)
    b2 = build_bqp_lp(2)
    std2 = build_bqp_standard(2)
    checked = 0
    while checked < 100:
        x1 = Fraction(rng.randint(0, 12), 12)
        x2 = Fraction(rng.randint(0, 12), 12)
        lo = max(Fraction(0), x1 + x2 - 1)
        hi = min(x1, x2)
        if lo > hi:
            continue
        x12 = lo + (hi - lo) * Fraction(rng.randint(0, 12), 12)
        point = [x1, x2, x12]
        assert b2.is_feasible(point)
        lifted = bqp_point_to_standard(point, 2)
        assert std2.is_feasible(lifted)
        # slack identity: the (1,2) cell equals x_jj - x_ij
        assert lifted[bqp_std_index(0, 1, 0, 1, 2)] == x2 - x12
        assert bqp_standard_to_point(lifted, 2) == point
        checked += 1


def test_face_projection_examples():
    std2 = build_bqp_standard(2)
    # all-zeros code sits on the face; its image is the all-ones point
    image = project_satp_face_to_bqp(code_to_point(VertexCode((0, 0), (0, 0))))
    assert std2.is_feasible(image)
    assert bqp_standard_to_point(image, 2) == [ONE, ONE, ONE]
    # codes with matching row/col bits project to feasible zero-one points
    consistent = 0
    for code in enumerate_integral_vertices(2, 2):
        if all(c in (0, 1) for c in code.col) and code.col == code.row:
            image = project_satp_face_to_bqp(code_to_point(code))
            assert std2.is_feasible(image)
            assert all(v in (0, 1) for v in image)
            consistent += 1
    assert consistent == 4
    # off the face: a code using the third block row
    with pytest.raises(FaceMembershipError):
        project_satp_face_to_bqp(code_to_point(VertexCode((0, 0), (2, 0))))
    with pytest.raises(FaceMembershipError):
        # diagonal block with mismatched row/col bits
        project_satp_face_to_bqp(code_to_point(VertexCode((1, 0), (0, 0))))


def test_pair_index_layout():
    assert bqp_pair_index(0, 1, 3) == 3
    assert bqp_pair_index(0, 2, 3) == 4
    assert bqp_pair_index(1, 2, 3) == 5
    with pytest.raises(InputError):
        bqp_pair_index(1, 1, 3)


# sha256[:16] of the text of each system, fixed when rows were dense lists:
# the sparse rows must print the same bytes.
BUILD_TEXT_DIGESTS = [
    ("satp", 2, 3, "418f43e049a2d194"),
    ("satp2", 3, 3, "db40fcacc5921f0f"),
    ("bqp", None, 5, "f2928b3e37d749fa"),
    ("bqp-std", None, 4, "2afb609d32d5ad1e"),
    ("met", None, 5, "f96440e83f17f205"),
]


@pytest.mark.parametrize("kind,m,n,digest", BUILD_TEXT_DIGESTS)
def test_build_text_digest(kind, m, n, digest):
    text = build_kind(kind, m, n).to_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_builders_emit_sparse_integer_rows():
    for sys in (build_satp2_lp(2, 3), build_met(4), build_bqp_standard(3)):
        for coeffs, rhs in [*sys.eq_rows, *sys.ineq_rows]:
            assert type(rhs) is int
            assert all(type(c) is int and c in (1, -1) for c in coeffs.values())
    block_sum, _ = build_satp_lp(2, 3).eq_rows[0]
    assert block_sum == {j: 1 for j in range(6)}
    assert all(len(c) == 12 for c, _ in build_satp2_lp(3, 3).ineq_rows)


def test_builder_serialization_roundtrip():
    sys = build_satp2_lp(2, 2)
    back = LinearSystem.from_text(sys.to_text())
    assert back.eq_rows == sys.eq_rows
    assert back.ineq_rows == sys.ineq_rows
    assert back.nonneg == sys.nonneg


# Each builder and the coloring instance refuse a grid that is empty or holds
# over 10^6 values before anything is allocated; the quadric systems are just
# over 10^6 variables: 1,000,405 for bqp at n = 1414, 1,001,112 for bqp-std at 707.
API_REFUSALS = {
    "satp-empty": (build_satp_lp, (0, 2), InputError, "must be positive"),
    "satp-oversize": (build_satp_lp, (409, 409), BudgetError, "409x409 block grid exceeds"),
    "satp2-rows-negative": (satp2_inequality_rows, (-1, 5), InputError, "must be positive"),
    "satp2-rows-empty": (satp2_inequality_rows, (0, 3), InputError, "must be positive"),
    "bqp-oversize": (build_bqp_lp, (1414,), BudgetError, "the bqp system exceeds 1000000"),
    "bqp-std-oversize": (build_bqp_standard, (707,), BudgetError, "the bqp-std system exceeds"),
    "ecbgc-oversize": (EcbgcInstance, (1, 10**7, ()), BudgetError, "1x10000000 block grid"),
}


@pytest.mark.parametrize("case", API_REFUSALS)
def test_builders_and_instance_refuse_before_allocating(case):
    make, args, error, message = API_REFUSALS[case]
    tracemalloc.start()
    try:
        with pytest.raises(error, match=message):
            make(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
