"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <k>: PASS|FAIL`` line (run pytest
with ``-s`` to see them live).  All comparisons are exact; the stated
runtime ceilings are asserted.
"""

import io
import itertools
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from satpoly.blockpoint import BlockPoint, objective_value
from satpoly.builders import build_satp_lp, build_satp2_lp
from satpoly.cli import run as cli_run
from satpoly.ecbgc import (
    brute_force_coloring,
    check_condition,
    coloring_is_valid,
    objective_from_instance,
    reduce_x3sat_to_ecbgc,
    solve_ecbgc,
)
from satpoly.linsys import lp_maximize
from satpoly.recognition import (
    bqp_brute_force_max,
    construct_wstar,
    integer_max_oracle,
    normalization_ledger,
    recognize_bqp,
    recognize_satp,
)
from satpoly.reductions import (
    Cnf3Formula,
    max_sat_oracle,
    nae3sat_oracle,
    objective_max3sat,
    objective_nae3sat,
    objective_x3sat,
    parse_cnf3,
    x3sat_oracle,
)
from satpoly.vertices import (
    VertexCode,
    adjacent,
    code_to_point,
    construct_clique,
    enumerate_integral_vertices,
    enumerate_lp_vertices,
    fractional_vertex,
    is_edge,
    skeleton,
    verify_vertex,
)
from tests.conftest import (
    FORMULA_18,
    TABLE16_INSTANCE,
    TABLE16_OBJECTIVE_ROWS,
    TABLE3A_ROWS,
    TABLE3B_ROWS,
    TABLE3C_ROWS,
    TABLE9_ROWS,
    grid_point,
    random_balanced_objective,
    random_subclass_instance,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def distinct_var_formula(rng, m, n):
    clauses = tuple(
        tuple((v, rng.random() < 0.5) for v in rng.sample(range(1, m + 1), 3))
        for _ in range(n)
    )
    return Cnf3Formula(m, clauses)


def test_criterion_1_published_fractional_matrix_reproduction():
    with criterion(1, "published n=6 fractional vertex reproduced exactly, < 1 s"):
        start = time.monotonic()
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_run(["vertices", "fractional", "--n", "6"])
        point = fractional_vertex(6)
        assert verify_vertex(point, build_satp_lp(6, 6))
        elapsed = time.monotonic() - start
        assert code == 0
        expected_lines = ["point 6 6"] + [
            " ".join("0" if v == 0 else f"{v}/7" for v in row) for row in TABLE9_ROWS
        ]
        assert buf.getvalue() == "\n".join(expected_lines) + "\n"
        flat = point.flat()
        assert len(flat) == 216
        assert all(x.denominator in (1, 7) for x in flat)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_denominator_law():
    with criterion(2, "denominators equal n+1 for n = 4..10, < 30 s"):
        start = time.monotonic()
        for n in range(4, 11):
            sys = build_satp_lp(n, n)
            point = fractional_vertex(n)
            flat = point.flat()
            assert sys.is_feasible(flat)
            assert verify_vertex(point, sys)
            positive = [x for x in flat if x > 0]
            assert min(positive) == Fraction(1, n + 1)
            assert all((x * (n + 1)).denominator == 1 for x in flat)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_3_vertex_census():
    with criterion(3, "vertex census: 6 on the single block, 36+72 on the 2x2 grid"):
        start = time.monotonic()
        small = enumerate_lp_vertices(build_satp_lp(1, 1))
        assert len(small) == 6
        assert all(all(x in (0, 1) for x in v) for v in small)
        verts = enumerate_lp_vertices(build_satp_lp(2, 2))
        assert len(verts) == 108
        integral = [v for v in verts if all(x.denominator == 1 for x in v)]
        fractional = [v for v in verts if any(x.denominator != 1 for x in v)]
        assert len(integral) == 36
        assert len(fractional) == 72
        for v in fractional:
            assert all(x.denominator in (1, 2) for x in v)
        elapsed = time.monotonic() - start
        assert elapsed < 1800.0, f"took {elapsed:.1f}s"


def test_criterion_4_skeleton_properties():
    with criterion(4, "diameter 2, clique of size 2^min, adjacency trichotomy"):
        start = time.monotonic()
        for m, n in ((2, 2), (2, 3), (3, 3)):
            graph = skeleton(m, n)
            assert graph.diameter() == 2
            clique = construct_clique(m, n)
            assert len(clique) == 2 ** min(m, n)
            for u, v in itertools.combinations(clique, 2):
                assert adjacent(u, v)
            codes = graph.codes
            for a in range(len(codes)):
                assert not graph.adjacency[a][a]
                for b in range(a + 1, len(codes)):
                    assert graph.adjacency[a][b] == graph.adjacency[b][a]
                    row_diff = sum(
                        1 for x, y in zip(codes[a].row, codes[b].row) if x != y
                    )
                    col_diff = sum(
                        1 for x, y in zip(codes[a].col, codes[b].col) if x != y
                    )
                    expected = (
                        (row_diff > 0 and col_diff > 0)
                        or (row_diff == 1 and col_diff == 0)
                        or (row_diff == 0 and col_diff == 1)
                    )
                    assert graph.adjacency[a][b] == expected
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_5_quasi_integrality():
    with criterion(5, "LP edges match combinatorial adjacency on all 630 pairs"):
        start = time.monotonic()
        sys = build_satp_lp(2, 2)
        codes = enumerate_integral_vertices(2, 2)
        points = [code_to_point(c) for c in codes]
        pairs = 0
        for a, b in itertools.combinations(range(len(codes)), 2):
            pairs += 1
            assert is_edge(sys, points[a], points[b]) == adjacent(codes[a], codes[b])
        assert pairs == 630
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_6_objective_tables():
    with criterion(6, "all three published objective tables reproduced bit-exactly"):
        f = parse_cnf3(FORMULA_18)
        assert objective_max3sat(f) == grid_point(TABLE3A_ROWS)
        assert objective_x3sat(f) == grid_point(TABLE3B_ROWS)
        assert objective_nae3sat(f) == grid_point(TABLE3C_ROWS)


def test_criterion_7_reduction_correctness():
    with criterion(7, "100 random formulas: all three reductions match truth tables"):
        start = time.monotonic()
        rng = random.Random(20260811)
        for _ in range(100):
            m = rng.randint(3, 4)
            n = rng.randint(1, 4)
            f = distinct_var_formula(rng, m, n)
            v_max, _ = integer_max_oracle(objective_max3sat(f), m, n)
            assert v_max == max_sat_oracle(f)
            w_max, _ = integer_max_oracle(objective_x3sat(f), m, n)
            assert (w_max == 3 * n) == x3sat_oracle(f)
            y_max, _ = integer_max_oracle(objective_nae3sat(f), m, n)
            assert (y_max == 3 * n) == nae3sat_oracle(f)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_8_recognition_soundness():
    with criterion(8, "210 balanced objectives: recognition matches the oracle"):
        start = time.monotonic()
        rng = random.Random(8208)
        trials = [(2, 2)] * 80 + [(2, 3)] * 70 + [(3, 3)] * 60
        positives = 0
        for m, n in trials:
            c = random_balanced_objective(rng, m, n)
            outcome = recognize_satp(c, m, n)
            oracle_value, _ = integer_max_oracle(c, m, n)
            assert outcome.answer == (oracle_value == outcome.relaxation_value)
            assert oracle_value <= outcome.strengthened_value <= outcome.relaxation_value
            if outcome.answer:
                positives += 1
                witness_point = code_to_point(outcome.witness)
                assert objective_value(c, witness_point) == outcome.lp_value
            else:
                assert outcome.witness is None
        # exercise the rewriting postconditions directly on a subsample
        rng2 = random.Random(828)
        for _ in range(20):
            m, n = rng2.choice([(2, 2), (2, 3)])
            c = random_balanced_objective(rng2, m, n)
            c = normalization_ledger(c).apply_point(c)
            res = lp_maximize(build_satp2_lp(m, n), c.flat())
            relaxed = lp_maximize(build_satp_lp(m, n), c.flat())
            if res.value != relaxed.value:
                continue
            w = BlockPoint.from_flat(res.point, m, n)
            wstar, ledger = construct_wstar(w)
            assert all(
                wstar[i, j, 0, 0] > 0 for i in range(m) for j in range(n)
            )
            assert objective_value(c, ledger.pullback_point(wstar)) == res.value
        assert positives >= 50
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_9_quadric_recognition():
    with criterion(9, "120 quadric objectives: recognition matches brute force"):
        start = time.monotonic()
        rng = random.Random(909)
        for n in (3, 4):
            size = n + n * (n - 1) // 2
            for _ in range(60):
                objective = [Fraction(rng.randint(-3, 3)) for _ in range(size)]
                outcome = recognize_bqp(objective, n)
                brute, _ = bqp_brute_force_max(objective, n)
                assert outcome.answer == (brute == outcome.relaxation_value)
                assert brute <= outcome.strengthened_value <= outcome.relaxation_value
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_10_coloring():
    with criterion(10, "coloring: published objective, solver vs oracle, reduction"):
        start = time.monotonic()
        from satpoly.ecbgc import parse_ecbgc

        inst = parse_ecbgc(TABLE16_INSTANCE)
        cond = check_condition(inst)
        assert cond.ok
        assert objective_from_instance(inst, cond.pairs) == grid_point(
            TABLE16_OBJECTIVE_ROWS
        )

        rng = random.Random(1010)
        solved = 0
        while solved < 100:
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            candidate = random_subclass_instance(rng, m, n)
            if not check_condition(candidate).ok:
                continue
            found = solve_ecbgc(candidate)
            brute = brute_force_coloring(candidate)
            assert (found is None) == (brute is None)
            if found is not None:
                assert coloring_is_valid(candidate, found)
            solved += 1

        formulas = [parse_cnf3(FORMULA_18)]
        for _ in range(100):
            formulas.append(distinct_var_formula(rng, rng.randint(3, 4), rng.randint(1, 3)))
        for f in formulas:
            reduced = reduce_x3sat_to_ecbgc(f)
            assert (brute_force_coloring(reduced) is not None) == x3sat_oracle(f)
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_11_negative_control():
    with criterion(11, "strengthening cuts the n=6 fractional vertex, keeps integrals"):
        start = time.monotonic()
        strong = build_satp2_lp(6, 6)
        point = grid_point(TABLE9_ROWS, denominator=7)
        flat = point.flat()
        violated = [
            idx
            for idx, (coeffs, rhs) in enumerate(strong.ineq_rows)
            if sum(c * flat[j] for j, c in coeffs.items()) > rhs
        ]
        assert violated, "expected at least one violated strengthening row"

        rng = random.Random(1111)
        for _ in range(1000):
            row = tuple(rng.randint(0, 1) for _ in range(6))
            col = tuple(rng.randint(0, 2) for _ in range(6))
            x = [int(v) for v in code_to_point(VertexCode(row, col)).flat()]
            assert max(sum(c * x[j] for j, c in a.items()) for a, _ in strong.ineq_rows) <= 3
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
