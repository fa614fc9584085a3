import random
import time
from fractions import Fraction

import pytest

from satpoly.blockpoint import BlockPoint, objective_value
from satpoly.builders import (
    bqp_pair_index,
    bqp_var_count,
    build_bqp_lp,
    build_met,
    build_satp_lp,
    build_satp2_lp,
    met_triangle_rows,
    satp2_inequality_rows,
)
from satpoly.errors import BalanceError, InputError
from satpoly.linsys import lp_maximize, violated_rows
from satpoly.recognition import (
    RenamingLedger,
    bqp_brute_force_max,
    check_balance,
    compose_ledgers,
    construct_wstar,
    decompose,
    integer_max_oracle,
    normalization_ledger,
    recognize_bqp,
    recognize_satp,
)
from satpoly.reductions import objective_x3sat, parse_cnf3
from satpoly.vertices import VertexCode, code_to_point, enumerate_integral_vertices
from tests.conftest import (
    FORMULA_18,
    TABLE16_OBJECTIVE_ROWS,
    grid_point,
    random_balanced_objective,
)


def test_check_balance_zero_objective():
    cert = check_balance(BlockPoint.zeros(2, 3))
    assert cert.pairs == ((1, 2),) * 3


def test_check_balance_on_coloring_objective():
    c = grid_point(TABLE16_OBJECTIVE_ROWS)
    cert = check_balance(c)
    assert cert.pairs == ((1, 2), (1, 2))


def test_check_balance_rejects_exactly_one_objective():
    w = objective_x3sat(parse_cnf3(FORMULA_18))
    with pytest.raises(BalanceError):
        check_balance(w)


def test_wstar_identity_on_positive_point():
    # barycenter of all integral vertices has every coordinate positive
    codes = enumerate_integral_vertices(2, 2)
    total = BlockPoint.zeros(2, 2)
    for code in codes:
        p = code_to_point(code)
        for i, j, k, l, val in p.iter_cells():
            total.cells[i][j][k][l] += val
    for i, j, k, l, val in total.iter_cells():
        total.cells[i][j][k][l] = val / len(codes)
    wstar, ledger = construct_wstar(total, BlockPoint.zeros(2, 2))
    assert wstar == total
    assert ledger.is_identity()


def test_wstar_renames_every_integral_vertex_to_all_ones():
    zero = BlockPoint.zeros(2, 2)
    for code in enumerate_integral_vertices(2, 2):
        w = code_to_point(code)
        wstar, ledger = construct_wstar(w, zero)
        assert all(
            wstar.cells[i][j][0][0] == 1 for i in range(2) for j in range(2)
        )
        alpha, q, h = decompose(wstar, ledger)
        assert alpha == 1
        assert q == code
        assert ledger.apply_point(code_to_point(q)) == wstar


def test_wstar_postconditions_on_lp_optimizers():
    rng = random.Random(99)
    base22 = build_satp_lp(2, 2)
    strong22 = build_satp2_lp(2, 2)
    ran = 0
    for _ in range(30):
        c = random_balanced_objective(rng, 2, 2)
        res = lp_maximize(strong22, c.flat())
        relaxed = lp_maximize(base22, c.flat())
        if res.value != relaxed.value:
            continue
        w = BlockPoint.from_flat(res.point, 2, 2)
        wstar, ledger = construct_wstar(w, c)
        assert all(wstar.cells[i][j][0][0] > 0 for i in range(2) for j in range(2))
        pulled = ledger.pullback_point(wstar)
        assert objective_value(c, pulled) == objective_value(c, w)
        assert base22.is_feasible(wstar.flat())
        ran += 1
    assert ran >= 10


def test_wstar_postconditions_on_fractional_points():
    # under the zero objective every feasible point is an optimizer, so
    # random fractional mixtures drive the mass-shifting exchanges
    rng = random.Random(100)
    zero = BlockPoint.zeros(2, 2)
    base22 = build_satp_lp(2, 2)
    codes = enumerate_integral_vertices(2, 2)
    seen_fractional = 0
    for _ in range(25):
        picks = rng.sample(codes, rng.randint(2, 4))
        weights = [Fraction(rng.randint(1, 4)) for _ in picks]
        total = sum(weights)
        w = BlockPoint.zeros(2, 2)
        for code, weight in zip(picks, weights):
            p = code_to_point(code)
            for i, j, k, l, val in p.iter_cells():
                w.cells[i][j][k][l] += val * weight / total
        if any(x.denominator > 1 for x in w.flat()):
            seen_fractional += 1
        wstar, ledger = construct_wstar(w, zero)
        assert all(wstar.cells[i][j][0][0] > 0 for i in range(2) for j in range(2))
        assert base22.is_feasible(wstar.flat())
        assert ledger.pullback_point(wstar) is not None
    assert seen_fractional >= 10


def _point_from_sixtuples(blocks, m, n, denominator):
    p = BlockPoint.zeros(m, n)
    for (i, j), (x, y, z, t, u, v) in blocks.items():
        blk = p.cells[i][j]
        blk[0][0], blk[0][1] = Fraction(x, denominator), Fraction(y, denominator)
        blk[1][0], blk[1][1] = Fraction(z, denominator), Fraction(t, denominator)
        blk[2][0], blk[2][1] = Fraction(u, denominator), Fraction(v, denominator)
    return p


def test_wstar_exchange_heavy_point():
    # focus block has an empty top-left cell and an empty (2,1) cell, the
    # left neighbour carries a row witness, and the column below needs its
    # own exchange before it can rotate
    w = _point_from_sixtuples(
        {
            (0, 0): (1, 0, 1, 0, 0, 2),
            (0, 1): (0, 1, 0, 1, 2, 0),
            (1, 0): (1, 0, 1, 0, 1, 1),
            (1, 1): (1, 0, 0, 1, 2, 0),
        },
        2,
        2,
        denominator=4,
    )
    zero = BlockPoint.zeros(2, 2)
    assert build_satp2_lp(2, 2).is_feasible(w.flat())
    wstar, ledger = construct_wstar(w, zero)
    assert all(wstar.cells[i][j][0][0] > 0 for i in range(2) for j in range(2))
    assert build_satp_lp(2, 2).is_feasible(wstar.flat())
    assert objective_value(zero, ledger.pullback_point(wstar)) == 0
    _assert_renamed_strengthening_holds(wstar, ledger)


def _assert_renamed_strengthening_holds(wstar, ledger):
    # wstar meets the renamed strengthened system exactly when its
    # pullback meets the canonical one.
    original = ledger.pullback_point(wstar)
    assert build_satp2_lp(wstar.m, wstar.n).is_feasible(original.flat())


def test_wstar_witness_in_rotated_column():
    # the first column has an empty top block row, so it rotates upward;
    # the rotated column then carries the row witness of the later focus
    # block, which dissolves by an exchange before the row swap fires
    w = _point_from_sixtuples(
        {
            (0, 0): (0, 0, 2, 0, 1, 1),
            (0, 1): (0, 1, 1, 0, 2, 0),
            (1, 0): (0, 0, 1, 1, 1, 1),
            (1, 1): (1, 0, 1, 0, 0, 2),
        },
        2,
        2,
        denominator=4,
    )
    zero = BlockPoint.zeros(2, 2)
    assert build_satp2_lp(2, 2).is_feasible(w.flat())
    wstar, ledger = construct_wstar(w, zero)
    assert all(wstar.cells[i][j][0][0] > 0 for i in range(2) for j in range(2))
    assert build_satp_lp(2, 2).is_feasible(wstar.flat())
    _assert_renamed_strengthening_holds(wstar, ledger)


def test_recognition_on_degenerate_grids():
    # with a single block row or column there is no strengthening, the two
    # optima always coincide, and the witness machinery must still work
    rng = random.Random(404)
    for m, n in ((1, 1), (1, 3), (3, 1), (1, 2)):
        for _ in range(8):
            c = random_balanced_objective(rng, m, n)
            out = recognize_satp(c, m, n)
            oracle_value, _ = integer_max_oracle(c, m, n)
            assert out.answer
            assert out.lp_value == oracle_value
            assert objective_value(c, code_to_point(out.witness)) == oracle_value


def test_decompose_midpoint():
    q0 = VertexCode((0, 0), (0, 0))
    other = VertexCode((0, 0), (0, 1))  # adjacent to q0
    a = code_to_point(q0)
    b = code_to_point(other)
    mid = BlockPoint.zeros(2, 2)
    for i, j, k, l, _ in mid.iter_cells():
        mid.cells[i][j][k][l] = (a.cells[i][j][k][l] + b.cells[i][j][k][l]) / 2
    alpha, q, h = decompose(mid, RenamingLedger.identity(2, 2))
    assert alpha == Fraction(1, 2)
    assert q == q0
    assert h == b  # the residual is the other integral vertex
    assert build_satp_lp(2, 2).is_feasible(h.flat())


def test_decompose_reconstruction_identity():
    rng = random.Random(5)
    strong = build_satp2_lp(2, 2)
    for _ in range(10):
        c = random_balanced_objective(rng, 2, 2)
        res = lp_maximize(strong, c.flat())
        w = BlockPoint.from_flat(res.point, 2, 2)
        wstar, ledger = construct_wstar(w, c)
        alpha, q, h = decompose(wstar, ledger)
        ones = ledger.apply_point(code_to_point(ledger.allones_preimage()))
        for i, j, k, l, val in wstar.iter_cells():
            assert val == alpha * ones.cells[i][j][k][l] + (1 - alpha) * h.cells[i][j][k][l]


def test_decompose_requires_positive_mass():
    w = code_to_point(VertexCode((0, 0), (1, 1)))
    with pytest.raises(InputError):
        decompose(w, RenamingLedger.identity(2, 2))


def test_recognize_zero_objective():
    out = recognize_satp(BlockPoint.zeros(2, 2), 2, 2)
    assert out.answer and out.lp_value == 0
    assert out.witness is not None
    assert objective_value(BlockPoint.zeros(2, 2), code_to_point(out.witness)) == 0


def test_recognize_agrees_with_oracle_sample():
    rng = random.Random(77)
    for _ in range(25):
        m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
        c = random_balanced_objective(rng, m, n)
        out = recognize_satp(c, m, n)
        oracle_value, _ = integer_max_oracle(c, m, n)
        assert out.answer == (oracle_value == out.relaxation_value)
        if out.answer:
            assert objective_value(c, code_to_point(out.witness)) == out.lp_value
        else:
            assert out.witness is None
            assert oracle_value <= out.strengthened_value < out.relaxation_value


def test_separation_matches_full_strengthened_lp():
    # the full SATP^2 LP is the reference; about one objective in thirty
    # has a base optimizer that violates a strengthening row, so the
    # sample is large enough to run the cut rounds several times
    rng = random.Random(6060)
    cut_path = 0
    for m, n in [(2, 2)] * 100 + [(2, 3)] * 30 + [(3, 2)] * 30 + [(3, 3)] * 5:
        c = random_balanced_objective(rng, m, n)
        flat = normalization_ledger(c).apply_point(c).flat()
        base = lp_maximize(build_satp_lp(m, n), flat)
        cut_path += bool(violated_rows(satp2_inequality_rows(m, n), base.point))
        out = recognize_satp(c, m, n)
        assert out.relaxation_value == base.value
        assert out.strengthened_value == lp_maximize(build_satp2_lp(m, n), flat).value
    assert cut_path >= 3


def _switch(objective, n, s):
    """The objective after the substitution x_s -> 1 - x_s, up to a constant.

    The substitution (with x_sj -> x_j - x_sj) maps the quadric and the
    metric polytopes onto themselves and the triangle row family 0 onto
    family s + 1 (first triple at n = 3).
    """
    out = list(objective)
    out[s] = -objective[s]
    for j in range(n):
        if j != s:
            p = bqp_pair_index(min(s, j), max(s, j), n)
            out[j] += objective[p]
            out[p] = -objective[p]
    return out


def test_separation_matches_full_metric_lp():
    # random objectives rarely need every triangle family, so the sample
    # also holds the all-half objective of n = 3 and its three switchings,
    # whose base optimizers each violate a row of a different family
    rng = random.Random(6161)
    half = [Fraction(1)] * 3 + [Fraction(-2)] * 3
    sample = [(3, half)] + [(3, _switch(half, 3, s)) for s in range(3)]
    for n in (3,) * 20 + (4,) * 15 + (5,) * 10 + (6,) * 6:
        sample.append((n, [Fraction(rng.randint(-3, 3)) for _ in range(bqp_var_count(n))]))
    cut_path = 0
    for n, objective in sample:
        base = lp_maximize(build_bqp_lp(n), objective)
        cut_path += bool(violated_rows(met_triangle_rows(n), base.point))
        out = recognize_bqp(objective, n)
        assert out.relaxation_value == base.value
        assert out.strengthened_value == lp_maximize(build_met(n), objective).value
    assert cut_path >= 3


def test_recognize_6x6_matches_oracle():
    # seed 1 is the first seed whose base optimizer violates strengthening
    # rows (34 of them, one cut round); the full 6x6 strengthened LP of
    # 1,956 rows runs for minutes
    c = random_balanced_objective(random.Random(1), 6, 6)
    start = time.monotonic()
    outcome = recognize_satp(c, 6, 6)
    elapsed = time.monotonic() - start
    oracle_value, _ = integer_max_oracle(c, 6, 6)
    assert outcome.answer == (oracle_value == outcome.relaxation_value)
    assert oracle_value <= outcome.strengthened_value <= outcome.relaxation_value
    if outcome.answer:
        assert objective_value(c, code_to_point(outcome.witness)) == outcome.lp_value
    else:
        assert outcome.witness is None
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_recognize_rejects_unbalanced():
    with pytest.raises(BalanceError):
        recognize_satp(objective_x3sat(parse_cnf3(FORMULA_18)), 4, 3)


def test_sandwich_for_arbitrary_objectives():
    rng = random.Random(31)
    base = build_satp_lp(2, 2)
    strong = build_satp2_lp(2, 2)
    for _ in range(15):
        c = BlockPoint.from_flat(
            [Fraction(rng.randint(-3, 3)) for _ in range(24)], 2, 2
        )
        relaxed = lp_maximize(base, c.flat()).value
        strengthened = lp_maximize(strong, c.flat()).value
        oracle_value, _ = integer_max_oracle(c, 2, 2)
        assert oracle_value <= strengthened <= relaxed


def test_ledger_composition_and_inverse():
    rng = random.Random(13)
    import itertools

    perms = list(itertools.permutations((0, 1, 2)))
    for _ in range(20):
        l1 = RenamingLedger(
            [rng.random() < 0.5 for _ in range(2)],
            [rng.choice(perms) for _ in range(2)],
        )
        l2 = RenamingLedger(
            [rng.random() < 0.5 for _ in range(2)],
            [rng.choice(perms) for _ in range(2)],
        )
        p = BlockPoint.from_flat(
            [Fraction(rng.randint(0, 5)) for _ in range(24)], 2, 2
        )
        combined = compose_ledgers(l2, l1)
        assert combined.apply_point(p) == l2.apply_point(l1.apply_point(p))
        assert l1.pullback_point(l1.apply_point(p)) == p


def test_recognize_bqp_zero_objective():
    out = recognize_bqp([Fraction(0)] * 6, 3)
    assert out.answer and out.lp_value == 0


def test_recognize_bqp_matches_brute_force():
    rng = random.Random(55)
    for n in (3, 4):
        size = n + n * (n - 1) // 2
        for _ in range(15):
            objective = [Fraction(rng.randint(-3, 3)) for _ in range(size)]
            out = recognize_bqp(objective, n)
            brute, _ = bqp_brute_force_max(objective, n)
            assert out.answer == (brute == out.relaxation_value)


def test_recognize_bqp_detects_fractional_optimum():
    # rewarding the all-half point: sum x_i - 2 sum x_ij
    objective = [Fraction(1)] * 3 + [Fraction(-2)] * 3
    out = recognize_bqp(objective, 3)
    brute, _ = bqp_brute_force_max(objective, 3)
    assert not out.answer
    assert out.relaxation_value == Fraction(3, 2) > brute == 1
    assert out.strengthened_value < out.relaxation_value


def test_recognize_bqp_needs_three_vertices():
    with pytest.raises(InputError):
        recognize_bqp([Fraction(0)] * 3, 2)
