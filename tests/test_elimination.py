"""The sparse fraction-free kernel against a dense Fraction Gauss-Jordan.

The strategies draw dense rows, which the reference reads directly; the
kernel gets them as sparse rows through :func:`sparse_rows`.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given
from hypothesis import strategies as st

from satpoly.linsys import (
    LinearSystem,
    _int_row,
    _solve_equalities,
    rank,
    rank_at_most,
    unique_solution,
)


def gauss_jordan(rows, var_count):
    """Reference: dense Gauss-Jordan over ``Fraction`` on ``(coeffs, rhs)`` rows.

    Returns (status, solution, rank) with status "unique",
    "underdetermined" or "inconsistent"; the solution is None unless unique.
    """
    aug = [[Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    pivots = []
    row = 0
    for col in range(var_count):
        piv = next((i for i in range(row, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(len(aug)):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == len(aug):
            break
    if any(aug[i][var_count] != 0 for i in range(row, len(aug))):
        return "inconsistent", None, len(pivots)
    if len(pivots) < var_count:
        return "underdetermined", None, len(pivots)
    solution = [Fraction(0)] * var_count
    for r, c in pivots:
        solution[c] = aug[r][var_count]
    return "unique", solution, len(pivots)


def sparse_rows(rows, keep_zeros=False):
    """Dense ``(coeffs, rhs)`` rows as sparse ``({column: coeff}, rhs)`` rows.

    With ``keep_zeros`` every column is kept, so explicit zero entries reach
    the kernel too.
    """
    return [
        ({j: c for j, c in enumerate(coeffs) if keep_zeros or c}, rhs)
        for coeffs, rhs in rows
    ]


# Mostly zeros and small integers (plain ints too, as the vertex census
# passes them), some small fractions, and a few huge numerators/denominators.
ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


@st.composite
def systems(draw):
    """``(rows, var_count)`` with dependent, zero and inconsistent rows mixed in."""
    n = draw(st.integers(0, 5))
    rows = draw(
        st.lists(st.tuples(st.lists(ENTRIES, min_size=n, max_size=n), ENTRIES), max_size=4)
    )
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(rows) - 1), ENTRIES), min_size=1, max_size=3
            )
        )
        coeffs = [sum(f * rows[i][0][j] for i, f in picks) for j in range(n)]
        rhs = sum(f * rows[i][1] for i, f in picks) + draw(st.sampled_from((0, 0, 1)))
        rows.append((coeffs, rhs))
    for _ in range(draw(st.integers(0, 2))):
        rows.append(([0] * n, draw(st.sampled_from((0, 5)))))
    return draw(st.permutations(rows)), n


@given(systems(), st.booleans())
def test_kernel_matches_gauss_jordan(case, keep_zeros):
    rows, n = case
    status, solution, ref_rank = gauss_jordan(rows, n)
    rows = sparse_rows(rows, keep_zeros)
    coeff_rows = [coeffs for coeffs, _ in rows]
    assert rank(coeff_rows) == ref_rank
    for cap in range(ref_rank, n + 1):
        assert rank_at_most(coeff_rows, cap) == ref_rank
    assert _solve_equalities(rows, n) == (status, solution)
    assert unique_solution(LinearSystem(n, eq_rows=rows)) == solution


def test_kernel_handles_negative_pivots_and_large_entries():
    big = Fraction(10**40 + 1, 3**50)
    rows = [([-2, big], -1), ([big, Fraction(-7, 5)], big), ([-4, 2 * big], -2)]
    assert _solve_equalities(sparse_rows(rows), 2) == gauss_jordan(rows, 2)[:2]
    assert rank([coeffs for coeffs, _ in sparse_rows(rows)]) == 2


# Integral rows come as ints and as Fraction(k, 1); proper fractions mix in.
ROW_VALUES = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6)),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.booleans().map(lambda big: 10**30 + 1 if big else -(10**30)),
)


def int_row_reference(values):
    """The primitive positive integer multiple of a rational row, in ``Fraction``."""
    row = {j: Fraction(v) for j, v in values.items() if v}
    scaled = {j: v * lcm(*(x.denominator for x in row.values())) for j, v in row.items()}
    g = gcd(*(int(v) for v in scaled.values()))
    return {j: int(v) // g for j, v in scaled.items()}


@given(st.dictionaries(st.integers(0, 30), ROW_VALUES, max_size=8))
def test_int_row_is_the_primitive_positive_integer_multiple(values):
    snapshot = dict(values)
    got = _int_row(values)
    assert got == int_row_reference(values)
    assert all(type(v) is int for v in got.values())
    assert got is not values and values == snapshot  # a new row: elimination consumes it
