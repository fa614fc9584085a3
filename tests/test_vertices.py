import hashlib
import itertools
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpoly import vertices
from satpoly.builders import build_bqp_lp, build_met, build_satp2_lp, build_satp_lp
from satpoly.errors import BudgetError, InputError, InternalInvariantError, NotAVertexError
from satpoly.linsys import LinearSystem
from satpoly.rational import format_vector
from satpoly.vertices import (
    SkeletonGraph,
    VertexCode,
    adjacent,
    code_to_point,
    construct_clique,
    enumerate_integral_vertices,
    enumerate_lp_vertices,
    fractional_vertex,
    is_edge,
    point_to_code,
    skeleton,
    verify_vertex,
)
from tests.conftest import (
    TABLE10_DEN2_ROWS,
    TABLE10_DEN3_ROWS,
    TABLE10_DEN4_ROWS,
    TABLE9_ROWS,
    grid_point,
)
from tests.test_elimination import gauss_jordan, sparse_rows

ONE = Fraction(1)


def test_code_to_point_unit_positions():
    p = code_to_point(VertexCode((0,), (0,)))
    assert p[0, 0, 0, 0] == 1 and sum(p.flat()) == 1
    p = code_to_point(VertexCode((1,), (2,)))
    assert p[0, 0, 2, 1] == 1 and sum(p.flat()) == 1


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 3), (2, 3)])
def test_codec_roundtrip_exhaustive(m, n):
    for code in enumerate_integral_vertices(m, n):
        assert point_to_code(code_to_point(code)) == code


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=4),
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
)
def test_codec_roundtrip_property(row, col):
    code = VertexCode(tuple(row), tuple(col))
    assert point_to_code(code_to_point(code)) == code


def test_point_to_code_rejects_bad_points():
    p = code_to_point(VertexCode((0,), (0,)))
    p[0, 0, 1, 0] = Fraction(1)  # two units in one block
    with pytest.raises(NotAVertexError):
        point_to_code(p)
    q = code_to_point(VertexCode((0, 0), (0, 0)))
    q[1, 1, 0, 0] = Fraction(0)
    q[1, 1, 1, 1] = Fraction(1)  # inconsistent with the row/col codes
    with pytest.raises(NotAVertexError):
        point_to_code(q)
    r = code_to_point(VertexCode((0, 1), (2, 0)))
    r[0, 0, 2, 0] = Fraction(2)  # the unit of block (1,1) holds a 2
    with pytest.raises(NotAVertexError):
        point_to_code(r)
    z = code_to_point(VertexCode((0, 1), (2, 0)))
    z[1, 1, 0, 1] = Fraction(0)  # block (2,2), outside block row and column 1, all zero
    with pytest.raises(NotAVertexError):
        point_to_code(z)


def test_enumeration_counts_and_budget():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            codes = enumerate_integral_vertices(m, n)
            assert len(codes) == 2**m * 3**n
            assert codes == sorted(codes)
    assert len(enumerate_integral_vertices(3, 2)) == 72
    with pytest.raises(BudgetError):
        enumerate_integral_vertices(3, 2, budget=10)


def test_enumeration_checks_the_grid_and_the_budget_first():
    with pytest.raises(BudgetError):
        enumerate_integral_vertices(40, 40)  # refused before any code is built
    with pytest.raises(InputError):
        enumerate_integral_vertices(0, 2)


def test_skeleton_and_clique_budgets():
    assert len(skeleton(2, 2, budget=36 * 36).codes) == 36
    with pytest.raises(BudgetError):
        skeleton(2, 2, budget=36 * 36 - 1)  # the adjacency matrix has 36^2 cells
    with pytest.raises(BudgetError):
        skeleton(2, 2, budget=-1)
    assert len(construct_clique(5, 5, budget=32)) == 32
    with pytest.raises(BudgetError):
        construct_clique(5, 5, budget=31)
    with pytest.raises(BudgetError):
        construct_clique(40, 40)
    # Two codes, or 2^19, within the code budget but each very long.
    assert [c.m for c in construct_clique(499_999, 1)] == [499_999] * 2
    for m, n in ((500_000, 1), (10**9, 1), (1, 10**9), (19, 8000)):
        with pytest.raises(BudgetError, match="entries"):
            construct_clique(m, n)


def test_adjacency_trichotomy_examples():
    assert adjacent(VertexCode((0, 0), (0, 0)), VertexCode((0, 0), (0, 1)))
    assert not adjacent(VertexCode((0, 0), (0, 0)), VertexCode((1, 1), (0, 0)))
    assert adjacent(VertexCode((0, 1), (0, 2)), VertexCode((1, 0), (2, 0)))
    with pytest.raises(InputError):
        adjacent(VertexCode((0,), (0,)), VertexCode((0,), (0,)))


def test_skeleton_single_block_is_complete():
    graph = skeleton(1, 1)
    assert len(graph.codes) == 6
    assert all(
        graph.adjacency[a][b]
        for a in range(6)
        for b in range(6)
        if a != b
    )
    assert graph.diameter() == 1


def test_skeleton_two_by_two():
    graph = skeleton(2, 2)
    assert graph.diameter() == 2
    clique = construct_clique(2, 2)
    index = {code: i for i, code in enumerate(graph.codes)}
    for u, v in itertools.combinations(clique, 2):
        assert graph.adjacency[index[u]][index[v]]


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3)])
def test_skeleton_diameter_two_on_small_grids(m, n):
    assert skeleton(m, n).diameter() == 2


def reference_diameter(adjacency):
    """Diameter by a queue BFS from every vertex over the dense rows."""
    best = 0
    for start in range(len(adjacency)):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt, edge in enumerate(adjacency[cur]):
                if edge and nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        assert len(dist) == len(adjacency), "disconnected"
        best = max(best, *dist.values())
    return best


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)])
def test_diameter_matches_a_queue_bfs(m, n):
    graph = skeleton(m, n)
    assert graph.diameter() == reference_diameter(graph.adjacency)


def test_diameter_of_hand_built_graphs():
    def graph(edges):
        adjacency = [[{a, b} in edges for b in range(4)] for a in range(4)]
        return SkeletonGraph(enumerate_integral_vertices(1, 1)[:4], adjacency)

    # the path 0 - 3 - 1 - 2: the last vertex is not an end, so its BFS alone gives 2
    path = graph([{0, 3}, {3, 1}, {1, 2}])
    assert path.diameter() == reference_diameter(path.adjacency) == 3
    with pytest.raises(InternalInvariantError, match="disconnected"):
        graph([{0, 1}, {2, 3}]).diameter()


def test_construct_clique_examples():
    clique = construct_clique(2, 2)
    assert [str(c) for c in clique] == ["00:00", "01:01", "10:10", "11:11"]
    assert len(construct_clique(1, 3)) == 2
    for m, n in [(2, 2), (3, 3), (4, 4), (3, 4)]:
        codes = construct_clique(m, n)
        assert len(codes) == 2 ** min(m, n)
        for u, v in itertools.combinations(codes, 2):
            assert adjacent(u, v)


def test_fractional_vertex_matches_published_matrix():
    assert fractional_vertex(6) == grid_point(TABLE9_ROWS, denominator=7)


def test_fractional_vertex_odd_case_values():
    p = fractional_vertex(5)
    assert p[0, 0, 2, 1] == Fraction(1, 6)
    assert p[0, 0, 0, 0] + p[0, 0, 0, 1] == Fraction(2, 6)


def test_fractional_vertex_smallest_case():
    p = fractional_vertex(4)
    sys = build_satp_lp(4, 4)
    assert sys.is_feasible(p.flat())
    assert verify_vertex(p, sys)


#: sha256 of ``fractional_vertex(n).to_text()``, pinned for every n the table covers.
FRACTIONAL_TEXT_SHA256 = {
    4: "04617abd8800d81513aada6406aa1fd1fd021d275d101b94627923a30d95c30b",
    5: "1425886c1dd130ef761ce6e66b9365e5a15a349065a69f9b1ca1b6dd2ae9c90f",
    6: "36271150357fb44c14af1be5e9c6889f55db0c86641d5e63e59f700c22c39f77",
    7: "54ec3363c1fdde8edd99ad58ba9ee54e048e8932d061081009c24ff9cad954dd",
    8: "c7a7893822016b47c91b2ceebfe5fe45ab0853c2aca24e9c68f616400c2156dc",
    9: "b1617a07f916164ff0b2c0b5b85b72953e9861c8570624765a22a54608a39129",
    10: "005ee84cd1fe72ece8da0498bf77f52a00fb122c041099caa69d65ad3a1997a0",
    11: "5bf6696cdc41a0204f148fb53acf400161bb66cfa3ed9015e609d4b15355bf04",
    12: "a95625bb29f705b9f769c49a8ad784aa677cc559a12ce72505003c3baa0452ab",
}


@pytest.mark.parametrize("n", sorted(FRACTIONAL_TEXT_SHA256))
def test_fractional_vertex_text_is_pinned(n):
    text = fractional_vertex(n).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == FRACTIONAL_TEXT_SHA256[n]


def test_fractional_vertex_rejects_small_n():
    for n in (1, 2, 3):
        with pytest.raises(InputError):
            fractional_vertex(n)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2)])
def test_integral_points_verify_as_vertices(m, n):
    sys = build_satp_lp(m, n)
    for code in enumerate_integral_vertices(m, n):
        assert verify_vertex(code_to_point(code), sys)


def test_midpoint_is_not_a_vertex():
    sys = build_satp_lp(2, 2)
    a = code_to_point(VertexCode((0, 0), (0, 0))).flat()
    b = code_to_point(VertexCode((0, 0), (0, 1))).flat()
    mid = [(x + y) / 2 for x, y in zip(a, b)]
    assert not verify_vertex(mid, sys)


def test_verify_vertex_requires_feasibility():
    sys = build_satp_lp(1, 1)
    with pytest.raises(InputError):
        verify_vertex([Fraction(2)] + [Fraction(0)] * 5, sys)


def test_published_small_denominator_vertices():
    cases = [
        (grid_point(TABLE10_DEN2_ROWS, 2), build_satp_lp(2, 2)),
        (grid_point(TABLE10_DEN3_ROWS, 3), build_satp_lp(3, 2)),
        (grid_point(TABLE10_DEN4_ROWS, 4), build_satp_lp(3, 3)),
    ]
    for point, sys in cases:
        assert sys.is_feasible(point.flat())
        assert verify_vertex(point, sys)


def test_is_edge_matches_adjacency_samples():
    sys = build_satp_lp(2, 2)
    u = code_to_point(VertexCode((0, 0), (0, 0)))
    v = code_to_point(VertexCode((0, 0), (0, 1)))
    w = code_to_point(VertexCode((1, 1), (0, 0)))
    assert is_edge(sys, u, v)
    assert not is_edge(sys, u, w)
    with pytest.raises(InputError):
        is_edge(sys, u, u)


def test_vertex_and_edge_tests_rank_only_the_free_columns(monkeypatch):
    calls = []

    def record(fn):
        def recorded(rows, *cap):
            calls.append((fn.__name__, list(rows), *cap))
            return fn(rows, *cap)

        return recorded

    monkeypatch.setattr(vertices, "rank", record(vertices.rank))
    monkeypatch.setattr(vertices, "rank_at_most", record(vertices.rank_at_most))
    sys = build_satp_lp(6, 6)
    u = code_to_point(VertexCode((0,) * 6, (0,) * 6))
    v = code_to_point(VertexCode((1,) + (0,) * 5, (0,) * 6))
    assert verify_vertex(u, sys)
    [(name, rows)] = calls
    support = {j for j, x in enumerate(u.flat()) if x}
    assert name == "rank" and len(support) == 36
    assert set().union(*rows) <= support
    calls.clear()
    assert is_edge(sys, u, v)
    pinned = sum(1 for a, b in zip(u.flat(), v.flat()) if a == b == 0)
    assert [call[0] for call in calls] == ["rank", "rank", "rank_at_most"]
    assert calls[-1][2] == 215 - pinned


def test_enumerate_lp_vertices_unit_simplex():
    simplex = LinearSystem(3, eq_rows=[({0: ONE, 1: ONE, 2: ONE}, ONE)])
    verts = enumerate_lp_vertices(simplex)
    assert len(verts) == 3
    assert all(sorted(v) == [0, 0, 1] for v in verts)


def test_enumerate_lp_vertices_single_block():
    verts = enumerate_lp_vertices(build_satp_lp(1, 1))
    assert len(verts) == 6
    assert all(all(x in (0, 1) for x in v) for v in verts)


def test_enumerate_lp_vertices_budget():
    with pytest.raises(BudgetError):
        enumerate_lp_vertices(build_satp_lp(2, 2), budget=10)


def test_blockpoint_text_roundtrip_and_errors():
    from satpoly.blockpoint import BlockPoint

    point = fractional_vertex(4)
    assert BlockPoint.from_text(point.to_text()) == point
    tagged = point.to_text(tag="objective")
    assert tagged.startswith("objective 4 4\n")
    assert BlockPoint.from_text(tagged, expect_tag="objective") == point
    with pytest.raises(InputError):
        BlockPoint.from_text(tagged, expect_tag="point")
    with pytest.raises(InputError):
        BlockPoint.from_text("point 1 1\n1 0\n0 0\n")  # missing a block sub-row
    with pytest.raises(InputError):
        BlockPoint.from_text("point 1 1\n1 0 0\n0 0\n0 0\n")  # wrong width


@st.composite
def block_points(draw):
    from satpoly.blockpoint import BlockPoint

    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
        min_size=6 * m * n,
        max_size=6 * m * n,
    )
    return BlockPoint.from_flat(draw(values), m, n)


@settings(max_examples=100, deadline=None)
@given(block_points())
def test_blockpoint_text_index_and_flat_views_agree(p):
    from satpoly.blockpoint import flat_index
    from satpoly.rational import parse_rational

    lines = p.to_text().splitlines()
    flat = p.flat()
    for i in range(p.m):
        for j in range(p.n):
            for k in range(3):
                for l in range(2):
                    token = parse_rational(lines[1 + 3 * i + k].split()[2 * j + l])
                    assert token == p[i, j, k, l] == flat[flat_index(i, j, k, l, p.n)]


def test_blockpoint_text_checks_widths_before_allocating_the_grid():
    from satpoly.blockpoint import BlockPoint

    # a 200,000-column grid would take tens of MiB; the lines hold one value each
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="wrong width"):
            BlockPoint.from_text("objective 1 200000\n1\n1\n1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_enumerate_lp_vertices_with_inequalities():
    # 0 <= x, y; x + y <= 1: a triangle with three vertices
    tri = LinearSystem(2, ineq_rows=[({0: ONE, 1: ONE}, ONE)])
    verts = enumerate_lp_vertices(tri)
    assert sorted(tuple(v) for v in verts) == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), ONE),
        (ONE, Fraction(0)),
    ]


def census_reference(vertices):
    """The vertices as ``Fraction`` tuples, deduped and sorted in ``Fraction`` order."""
    return sorted(map(list, {tuple(Fraction(x) for x in v) for v in vertices}))


def test_census_returns_fractions_in_fraction_order():
    # Vertices with denominators 1, 2, 3 and 5.  Sorted unscaled, the
    # primitive rays would put (1/2, 0), ray (1, 0 | t = 2), before
    # (2/5, 1/5), ray (2, 1 | t = 5).
    two_cuts = LinearSystem(2, ineq_rows=[({0: 2, 1: 1}, 1), ({0: 1, 1: 3}, 1)])
    verts = enumerate_lp_vertices(two_cuts)
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    assert verts == [[0, 0], [0, third], [2 * fifth, fifth], [Fraction(1, 2), 0]]
    assert verts == brute_force_vertices(two_cuts)
    satp = build_satp_lp(1, 2)
    census = enumerate_lp_vertices(satp)
    assert len(census) == 18
    assert {x.denominator for v in census for x in v} == {1}  # integral, yet Fractions
    assert all(verify_vertex(v, satp) for v in census)
    for found in (verts, census):
        assert found == census_reference(found)
        assert all(type(x) is Fraction for v in found for x in v)


@pytest.mark.parametrize(
    "build, m, n, count",
    [(build_satp_lp, 1, 3, 54), (build_satp_lp, 3, 1, 24), (build_satp_lp, 1, 4, 162),
     (build_satp2_lp, 2, 2, 76)],
)
def test_census_counts_on_block_grids(build, m, n, count):
    """Grids of 18 to 24 variables, past the brute-force reference.  A 1xn or
    mx1 grid has only its 2^m 3^n integral vertices; the SATP^2 2x2 system
    adds inequality rows, each a half-space of the (x, t) cone, and 40
    fractional vertices to its 36 integral ones."""
    sys = build(m, n)
    census = enumerate_lp_vertices(sys)
    assert len(census) == count
    assert census == census_reference(census)
    assert all(verify_vertex(v, sys) for v in census)
    integral = [code_to_point(code).flat() for code in enumerate_integral_vertices(m, n)]
    assert [v for v in census if all(x.denominator == 1 for x in v)] == sorted(integral)


#: (builder, n, vertices, integral vertices, coordinates, sha256[:16] of the
#: census as ``satpoly enum-lp-vertices`` prints it), the digests fixed when
#: each inequality row had a slack column in the cone.
QUADRIC_CENSUSES = [
    (build_bqp_lp, 3, 12, 8, {0, Fraction(1, 2), 1}, "bf264ab4da8db94c"),
    (build_bqp_lp, 4, 104, 16, {0, Fraction(1, 2), 1}, "011e9088635e5944"),
    (build_met, 3, 8, 8, {0, 1}, "715fe711e285373e"),
    (build_met, 4, 32, 16, {0, Fraction(1, 3), Fraction(2, 3), 1}, "f0ef0e0456694ad9"),
]


@pytest.mark.parametrize("build, n, count, integral, coordinates, digest", QUADRIC_CENSUSES)
def test_census_on_the_quadric_systems(build, n, count, integral, coordinates, digest):
    """Systems with many inequality rows and no equality.  The quadric
    relaxation's vertices are half-integral (Padberg); the metric
    strengthening cuts the fractional ones off at n = 3 and leaves thirds
    at n = 4."""
    sys = build(n)
    census = enumerate_lp_vertices(sys)
    assert len(census) == count
    assert sum(all(x.denominator == 1 for x in v) for v in census) == integral
    assert {x for v in census for x in v} == coordinates
    assert all(verify_vertex(v, sys) for v in census)
    text = "".join(format_vector(v) + "\n" for v in census)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def brute_force_vertices(sys):
    """Reference: every feasible unique solution of all equalities plus a
    subset of the inequality and nonnegativity constraints made tight."""
    n = sys.var_count

    def dense(rows):
        return [([coeffs.get(j, 0) for j in range(n)], rhs) for coeffs, rhs in rows]

    eq_rows = dense(sys.eq_rows)
    units = [([int(u == v) for u in range(n)], 0) for v in range(n) if sys.nonneg[v]]
    optional = [*dense(sys.ineq_rows), *units]
    found = set()
    for size in range(len(optional) + 1):
        for subset in itertools.combinations(optional, size):
            status, solution, _ = gauss_jordan([*eq_rows, *subset], n)
            if status == "unique" and sys.is_feasible(solution):
                found.add(tuple(solution))
    return sorted(map(list, found))


COEFFS = st.one_of(
    st.integers(-2, 2), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def small_systems(draw):
    """Up to four variables, some free, with duplicate and scaled equality
    rows and right sides of either sign: empty, unbounded and lineality-
    carrying polyhedra all occur."""
    n = draw(st.integers(1, 4))
    row = st.tuples(st.lists(COEFFS, min_size=n, max_size=n), COEFFS)
    eq_rows = draw(st.lists(row, max_size=2))
    if eq_rows and draw(st.booleans()):
        coeffs, rhs = draw(st.sampled_from(eq_rows))
        f = draw(st.sampled_from((1, -1, Fraction(2, 3))))
        eq_rows.append(([f * c for c in coeffs], f * rhs))
    ineq_rows = draw(st.lists(row, max_size=3))
    nonneg = draw(st.lists(st.sampled_from((True, True, True, False)), min_size=n, max_size=n))
    return LinearSystem(
        n, eq_rows=sparse_rows(eq_rows), ineq_rows=sparse_rows(ineq_rows), nonneg=nonneg
    )


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_enumerate_lp_vertices_matches_brute_force(sys):
    assert enumerate_lp_vertices(sys) == brute_force_vertices(sys)
