import collections
import hashlib
import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satpoly.recognition as recognition
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
from satpoly.errors import BalanceError, BudgetError, InputError
from satpoly.linsys import LinearSystem, lp_maximize
from satpoly.recognition import (
    RenamingLedger,
    bqp_brute_force_max,
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
    balances,
    grid_point,
    random_balanced_objective,
)


def test_normalization_keeps_a_zero_objective():
    # every pair balances a zero column, and (2, 3) is tried first
    assert normalization_ledger(BlockPoint.zeros(2, 3)).is_identity()


def test_normalization_of_the_coloring_objective():
    # both columns are balanced by (1, 2) and not by (2, 3): rows 1, 2 go to 2, 3
    c = grid_point(TABLE16_OBJECTIVE_ROWS)
    assert normalization_ledger(c).col_perm == [(1, 2, 0), (1, 2, 0)]


def test_normalization_rejects_exactly_one_objective():
    w = objective_x3sat(parse_cnf3(FORMULA_18))
    with pytest.raises(BalanceError):
        normalization_ledger(w)


# set partitions of the block rows {0, 1, 2} into classes of equal row
# differences: the pairs inside one class balance the column
_DIFFERENCE_CLASSES = ((0, 1, 2), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 0, 0))


@st.composite
def patterned_objectives(draw):
    """Small-integer objectives whose columns each get a drawn balance pattern."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    c = BlockPoint.zeros(m, n)
    for j in range(n):
        classes = draw(st.sampled_from(_DIFFERENCE_CLASSES))
        diffs = [[draw(small) for _ in range(m)] for _ in range(3)]
        for i in range(m):
            for k in range(3):
                right = draw(small)
                c[i, j, k, 0] = Fraction(right + diffs[classes[k]][i])
                c[i, j, k, 1] = Fraction(right)
    return c


@settings(max_examples=300, deadline=None)
@given(patterned_objectives())
def test_balance_decision_matches_brute_force(c):
    expected = [
        next((p for p in itertools.combinations((1, 2, 3), 2) if balances(c, j, *p)), None)
        for j in range(c.n)
    ]
    if None in expected:
        with pytest.raises(BalanceError) as err:
            normalization_ledger(c)
        assert err.value.column == expected.index(None)
        return
    ledger = normalization_ledger(c)
    assert not any(ledger.row_swap)
    c0 = ledger.apply_point(c)
    for j in range(c.n):
        # (2, 3) is tried first, then the smallest pair (1, b), whose rows go to 2 and 3
        if balances(c, j, 2, 3):
            assert ledger.col_perm[j] == (0, 1, 2)
        else:
            assert ledger.col_perm[j] == {(1, 2): (1, 2, 0), (1, 3): (1, 0, 2)}[expected[j]]
        assert balances(c0, j, 2, 3)


def test_wstar_identity_on_positive_point():
    # barycenter of all integral vertices has every coordinate positive
    codes = enumerate_integral_vertices(2, 2)
    total = BlockPoint.zeros(2, 2)
    for code in codes:
        p = code_to_point(code)
        for o, val in enumerate(p.values):
            total.values[o] += val
    total.values = [val / len(codes) for val in total.values]
    wstar, ledger = construct_wstar(total)
    assert wstar == total
    assert ledger.is_identity()


def test_wstar_renames_every_integral_vertex_to_all_ones():
    for code in enumerate_integral_vertices(2, 2):
        w = code_to_point(code)
        wstar, ledger = construct_wstar(w)
        assert all(
            wstar[i, j, 0, 0] == 1 for i in range(2) for j in range(2)
        )
        alpha, q, h = decompose(wstar, ledger, build_satp_lp(2, 2))
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
        c = normalization_ledger(c).apply_point(c)
        res = lp_maximize(strong22, c.flat())
        relaxed = lp_maximize(base22, c.flat())
        if res.value != relaxed.value:
            continue
        w = BlockPoint.from_flat(res.point, 2, 2)
        wstar, ledger = construct_wstar(w)
        assert all(wstar[i, j, 0, 0] > 0 for i in range(2) for j in range(2))
        pulled = ledger.pullback_point(wstar)
        assert objective_value(c, pulled) == objective_value(c, w)
        assert base22.is_feasible(wstar.flat())
        _assert_renamed_strengthening_holds(wstar, ledger)
        ran += 1
    assert ran >= 10


def test_wstar_postconditions_on_fractional_points():
    # under the zero objective every feasible point is an optimizer, so
    # random fractional mixtures drive the mass-shifting exchanges
    rng = random.Random(100)
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
            for o, val in enumerate(p.values):
                w.values[o] += val * weight / total
        if any(x.denominator > 1 for x in w.flat()):
            seen_fractional += 1
        wstar, ledger = construct_wstar(w)
        assert all(wstar[i, j, 0, 0] > 0 for i in range(2) for j in range(2))
        assert base22.is_feasible(wstar.flat())
        assert ledger.pullback_point(wstar) is not None
    assert seen_fractional >= 10


def _point_from_sixtuples(blocks, m, n, denominator):
    p = BlockPoint.zeros(m, n)
    for (i, j), six in blocks.items():
        b = 6 * (i * n + j)
        p.values[b : b + 6] = [Fraction(a, denominator) for a in six]
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
    wstar, ledger = construct_wstar(w)
    assert all(wstar[i, j, 0, 0] > 0 for i in range(2) for j in range(2))
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
    assert build_satp2_lp(2, 2).is_feasible(w.flat())
    wstar, ledger = construct_wstar(w)
    assert all(wstar[i, j, 0, 0] > 0 for i in range(2) for j in range(2))
    assert build_satp_lp(2, 2).is_feasible(wstar.flat())
    _assert_renamed_strengthening_holds(wstar, ledger)


def test_wstar_checks_positive_point_in_normalized_coordinates():
    # only rows (1, 2) balance the first column; after normalization
    # rotates that column, the positive shortcut's identity ledger is
    # exact: its pullback meets SATP^2
    c = BlockPoint.zeros(2, 2)
    for i in range(2):
        c[i, 0, 0, 0], c[i, 0, 1, 0], c[i, 0, 2, 0] = Fraction(1), Fraction(1), Fraction(5)
    pre = normalization_ledger(c)
    assert pre.col_perm == [(1, 2, 0), (0, 1, 2)]
    w = _point_from_sixtuples(
        {
            (0, 0): (1, 7, 7, 1, 1, 1),
            (0, 1): (1, 7, 1, 1, 7, 1),
            (1, 0): (7, 1, 1, 7, 1, 1),
            (1, 1): (1, 7, 1, 1, 7, 1),
        },
        2,
        2,
        denominator=18,
    )
    strong = build_satp2_lp(2, 2)
    assert not strong.is_feasible(w.flat())
    w0 = pre.apply_point(w)
    assert strong.is_feasible(w0.flat())
    assert all(w0[i, j, 0, 0] > 0 for i in range(2) for j in range(2))
    wstar, ledger = construct_wstar(w0)
    assert wstar == w0
    assert ledger.is_identity()
    _assert_renamed_strengthening_holds(wstar, ledger)


# sha256[:16] over the rewritten point, the ledger and the decomposition
# (alpha, q and the text of h) of a seeded sample: every exchange and every
# eps must stay the same.
WSTAR_DIGEST = "c1712cdf1a609e00"


def test_construct_wstar_digest():
    rng = random.Random(1)
    cases = []
    for m, n, count in ((2, 2, 8), (2, 3, 4), (3, 2, 4), (3, 3, 2)):
        strong = build_satp2_lp(m, n)
        for _ in range(count):
            c = random_balanced_objective(rng, m, n)
            c0 = normalization_ledger(c).apply_point(c)
            w = BlockPoint.from_flat(lp_maximize(strong, c0.flat()).point, m, n)
            cases.append(w)
    # under the zero objective every feasible point is an optimizer
    for m, n in ((2, 3), (3, 3)) * 12:
        codes = enumerate_integral_vertices(m, n)
        picks = rng.sample(codes, rng.randint(2, 4))
        weights = [Fraction(rng.randint(1, 4)) for _ in picks]
        w = BlockPoint.zeros(m, n)
        for code, weight in zip(picks, weights):
            for o, val in enumerate(code_to_point(code).values):
                w.values[o] += val * weight / sum(weights)
        cases.append(w)
    digest = hashlib.sha256()
    rewritten = scaled = 0
    for w in cases:
        wstar, ledger = construct_wstar(w)
        rewritten += wstar != w
        alpha, q, h = decompose(wstar, ledger, build_satp_lp(w.m, w.n))
        for part in (wstar.to_text(), repr(ledger), repr(alpha), repr(q), h.to_text()):
            digest.update(part.encode())
        # the rewriting is scale-free: w times the lcm L of its denominators,
        # in integers, gives the same ledger and L times wstar
        scale = math.lcm(*(x.denominator for x in w.values))
        scaled += scale > 1
        w_l = BlockPoint(w.m, w.n, [int(x * scale) for x in w.values])
        wstar_l, ledger_l = construct_wstar(w_l)
        assert ledger_l == ledger
        assert wstar_l == BlockPoint(w.m, w.n, [scale * x for x in wstar.values])
    assert rewritten >= 30
    assert scaled >= 20
    assert digest.hexdigest()[:16] == WSTAR_DIGEST


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
    mid = BlockPoint(2, 2, [(x + y) / 2 for x, y in zip(a.values, b.values)])
    alpha, q, h = decompose(mid, RenamingLedger.identity(2, 2), build_satp_lp(2, 2))
    assert alpha == Fraction(1, 2)
    assert q == q0
    assert h == b  # the residual is the other integral vertex
    assert build_satp_lp(2, 2).is_feasible(h.flat())


def test_decompose_reconstruction_identity():
    rng = random.Random(5)
    strong = build_satp2_lp(2, 2)
    for _ in range(10):
        c = random_balanced_objective(rng, 2, 2)
        c = normalization_ledger(c).apply_point(c)
        res = lp_maximize(strong, c.flat())
        w = BlockPoint.from_flat(res.point, 2, 2)
        wstar, ledger = construct_wstar(w)
        alpha, q, h = decompose(wstar, ledger, build_satp_lp(2, 2))
        ones = ledger.apply_point(code_to_point(ledger.allones_preimage()))
        for val, one, rest in zip(wstar.values, ones.values, h.values):
            assert val == alpha * one + (1 - alpha) * rest


def test_decompose_requires_positive_mass():
    w = code_to_point(VertexCode((0, 0), (1, 1)))
    with pytest.raises(InputError):
        decompose(w, RenamingLedger.identity(2, 2), build_satp_lp(2, 2))


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
        rows = satp2_inequality_rows(m, n)
        cut_path += not LinearSystem(len(flat), ineq_rows=rows).is_feasible(base.point)
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
        rows = met_triangle_rows(n)
        cut_path += not LinearSystem(len(objective), ineq_rows=rows).is_feasible(base.point)
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


def test_recognize_8x8_seed_2_cuts_join_the_optimal_tableau():
    # the base optimizer violates 401 strengthening rows; solving the base
    # rows plus those cuts from scratch took about a minute, and adding them
    # to the optimal tableau takes a few seconds (294 dual pivots)
    c = random_balanced_objective(random.Random(2), 8, 8)
    start = time.monotonic()
    outcome = recognize_satp(c, 8, 8)
    elapsed = time.monotonic() - start
    assert (outcome.relaxation_value, outcome.strengthened_value) == (48, 38)
    assert not outcome.answer and outcome.witness is None
    assert elapsed < 20.0, f"took {elapsed:.1f}s"


def test_positive_recognition_normalizes_and_builds_once(monkeypatch):
    # a positive call normalizes once and builds the base system and the
    # strengthening rows once; the full strengthened system is never built,
    # and the witness's value is the only check, so nothing is decomposed
    counts = collections.Counter()

    def counted(name):
        inner = getattr(recognition, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    names = (
        "normalization_ledger", "satp2_inequality_rows", "build_satp2_lp", "build_satp_lp",
        "decompose",
    )
    for name in names:
        monkeypatch.setattr(recognition, name, counted(name))
    c = random_balanced_objective(random.Random(1), 3, 3)
    assert recognize_satp(c, 3, 3).answer
    assert counts["normalization_ledger"] == 1
    assert counts["satp2_inequality_rows"] == 1
    assert counts["build_satp2_lp"] == 0
    assert counts["build_satp_lp"] == 1
    assert counts["decompose"] == 0


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32),
    st.one_of(st.integers(1, 6), st.just(Fraction(1, 2))),
)
def test_a_scaled_objective_scales_the_optima_and_keeps_the_witness(m, n, seed, k):
    # recognize_satp scales its objective to integers once and divides the
    # optima by that scale at the end: k * c gives c's answer and witness,
    # and k times its values, which are Fractions whatever the input type
    c = random_balanced_objective(random.Random(seed), m, n)
    # an int k gives an objective of ints, the half one of Fractions
    kc = [k * v.numerator if type(k) is int else k * v for v in c.values]
    outcome, scaled = recognize_satp(c, m, n), recognize_satp(BlockPoint(m, n, kc), m, n)
    assert (scaled.answer, scaled.witness) == (outcome.answer, outcome.witness)
    assert scaled.relaxation_value == k * outcome.relaxation_value
    assert scaled.strengthened_value == k * outcome.strengthened_value
    for o in (outcome, scaled):
        assert all(type(x) is Fraction for x in (o.relaxation_value, o.strengthened_value))
    # the LP's point is Fractions too; its integer optimum rides on the
    # result, outside equality and repr
    result = lp_maximize(build_satp_lp(m, n), kc, lazy_rows=satp2_inequality_rows(m, n))
    for res in (result, result.lazy):
        xs, d = res.scaled_point
        assert res.point == [Fraction(x, d) for x in xs]
        assert all(type(x) is Fraction for x in [res.value, *res.point])
        plain = replace(res, scaled_point=None)
        assert res == plain and repr(res) == repr(plain)
    assert result.value == scaled.relaxation_value


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


def integer_max_reference(c, m, n):
    """The full walk: every one of the ``2^m 3^n`` codes, the first argmax kept."""
    best_val = best_code = None
    for code in enumerate_integral_vertices(m, n):
        cells = ((i, j, cj, ri) for i, ri in enumerate(code.row) for j, cj in enumerate(code.col))
        total = sum((c[cell] for cell in cells), Fraction(0))
        if best_val is None or total > best_val:
            best_val, best_code = total, code
    return best_val, best_code


@st.composite
def tied_objectives(draw):
    """Objectives on grids up to 4x4 with values in {-1, 0, 1}, so ties are common."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(st.lists(st.sampled_from((0, 1, -1)), min_size=6 * m * n, max_size=6 * m * n))
    return BlockPoint.from_flat(values, m, n)


@settings(max_examples=300, deadline=None)
@given(tied_objectives())
def test_integer_max_oracle_matches_the_full_walk(c):
    value, code = integer_max_oracle(c, c.m, c.n)
    assert (value, code) == integer_max_reference(c, c.m, c.n)
    assert type(value) is Fraction


def test_integer_max_oracle_budget_bounds_row_codes_times_columns():
    c = BlockPoint.zeros(3, 2)  # 2^3 row codes over 2 columns
    assert integer_max_oracle(c, 3, 2, budget=16) == (0, VertexCode((0, 0, 0), (0, 0)))
    with pytest.raises(BudgetError):
        integer_max_oracle(c, 3, 2, budget=15)
    # the column count is bounded too, not only the 2^m row codes
    with pytest.raises(BudgetError):
        integer_max_oracle(BlockPoint.zeros(1, 3), 1, 3, budget=5)
    # 2^m is refused before it is computed
    with pytest.raises(BudgetError):
        integer_max_oracle(BlockPoint.zeros(10**5, 1), 10**5, 1)


def test_integer_max_oracle_answers_the_8x8_grid():
    # 2^8 3^8 = 1,679,616 codes were over the default budget of 10^6; the
    # 2^8 row codes times 8 columns are not
    c = random_balanced_objective(random.Random(2), 8, 8)
    value, code = integer_max_oracle(c, 8, 8)
    assert value == 38  # the strengthened optimum of this grid
    assert objective_value(c, code_to_point(code)) == value


def test_ledger_composition_and_inverse():
    rng = random.Random(13)
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


def test_ledger_reads_match_tuple_index_over_all_six_permutations():
    """Block column j of a 2x6 grid carries the j-th permutation; block row 1 swaps."""
    perms = list(itertools.permutations((0, 1, 2)))
    ledger = RenamingLedger([False, True], perms)
    p = BlockPoint(2, 6, [Fraction(x, 3) if x % 5 else x for x in range(72)])
    applied, pulled = BlockPoint.zeros(2, 6), BlockPoint.zeros(2, 6)
    for i, swap in enumerate(ledger.row_swap):
        for j, perm in enumerate(perms):
            for k in range(3):
                for l in range(2):
                    source = (perm.index(k), (1 - l) if swap else l)
                    assert ledger.cell_source(i, j, k, l) == source
                    applied[i, j, k, l] = p[(i, j, *source)]
                    pulled[i, j, k, l] = p[i, j, perm[k], (1 - l) if swap else l]
    assert ledger.apply_point(p) == applied
    assert ledger.pullback_point(p) == pulled
    assert ledger.pullback_point(applied) == p
