"""Shared fixtures: published reference matrices and small helpers."""

from fractions import Fraction

import pytest

from satpoly.blockpoint import BlockPoint
from satpoly.builders import BUILDERS
from satpoly.ecbgc import EcbgcInstance

FORMULA_18 = "p cnf 4 3\n1 2 -3 0\n-1 3 4 0\n-2 3 -4 0\n"


def build_kind(kind, m, n):
    """The ``kind`` system of ``BUILDERS``: on the ``m x n`` grid, or for ``n``
    alone when ``m`` is None."""
    return BUILDERS[kind](n) if m is None else BUILDERS[kind](m, n)


def grid_point(rows, denominator=1):
    """Build a BlockPoint from 3m rows of 2n integer numerators."""
    m = len(rows) // 3
    n = len(rows[0]) // 2
    p = BlockPoint.zeros(m, n)
    for i in range(m):
        for k in range(3):
            line = rows[i * 3 + k]
            for j in range(n):
                for l in range(2):
                    p[i, j, k, l] = Fraction(line[2 * j + l], denominator)
    return p


def balances(c, j, a, b):
    """True iff the block rows ``a`` and ``b`` (1-based) balance column ``j`` of ``c``."""
    return all(
        c[i, j, a - 1, 0] + c[i, j, b - 1, 1] == c[i, j, a - 1, 1] + c[i, j, b - 1, 0]
        for i in range(c.m)
    )


def random_balanced_objective(rng, m, n, lo=-3, hi=3):
    """Random integer objective with a balancing row pair in every column."""
    c = BlockPoint.zeros(m, n)
    for j in range(n):
        a, b = rng.sample(range(3), 2)
        rest = 3 - a - b
        for i in range(m):
            while True:
                ca1, ca2, cb2 = (rng.randint(lo, hi) for _ in range(3))
                cb1 = ca1 + cb2 - ca2
                if lo <= cb1 <= hi:
                    break
            c[i, j, a, 0], c[i, j, a, 1] = Fraction(ca1), Fraction(ca2)
            c[i, j, b, 0], c[i, j, b, 1] = Fraction(cb1), Fraction(cb2)
            c[i, j, rest, 0] = Fraction(rng.randint(lo, hi))
            c[i, j, rest, 1] = Fraction(rng.randint(lo, hi))
    return c


def random_subclass_instance(rng, m, n):
    """Random coloring instance satisfying the linked-pair condition."""
    pairs = [tuple(rng.sample((1, 2, 3), 2)) for _ in range(n)]
    edges = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if rng.random() < 0.3:
                continue
            a, b = pairs[j - 1]
            while True:
                flags = [rng.random() < 0.55 for _ in range(6)]
                pc = (tuple(flags[:3]), tuple(flags[3:]))
                left = pc[0][a - 1] and pc[1][b - 1]
                right = pc[1][a - 1] and pc[0][b - 1]
                if left == right:
                    break
            edges.append((i, j, pc))
    return EcbgcInstance(m, n, tuple(edges))


# Fractional vertex of the square relaxation at n = 6; every entry is a
# multiple of 1/7.
TABLE9_ROWS = [
    [3, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0],
    [3, 0, 0, 1, 1, 0, 2, 0, 2, 0, 3, 0],
    [0, 1, 1, 0, 1, 1, 1, 1, 2, 1, 2, 1],
    [3, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0],
    [3, 0, 1, 0, 0, 1, 2, 0, 2, 0, 3, 0],
    [0, 1, 0, 1, 2, 0, 1, 1, 2, 1, 2, 1],
    [2, 1, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0],
    [3, 0, 0, 1, 1, 0, 0, 2, 2, 0, 3, 0],
    [0, 1, 0, 1, 0, 2, 2, 0, 1, 2, 1, 2],
    [2, 1, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0],
    [3, 0, 0, 1, 1, 0, 2, 0, 0, 2, 3, 0],
    [0, 1, 0, 1, 0, 2, 0, 2, 3, 0, 1, 2],
    [0, 3, 3, 2, 4, 0, 2, 1, 2, 0, 1, 0],
    [3, 0, 1, 0, 0, 1, 2, 0, 2, 0, 0, 3],
    [1, 0, 0, 1, 0, 2, 0, 2, 0, 3, 3, 0],
    [3, 0, 3, 2, 4, 0, 2, 1, 2, 0, 1, 0],
    [0, 3, 1, 0, 0, 1, 2, 0, 2, 0, 3, 0],
    [1, 0, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3],
]

# Fractional vertices with denominators 2, 3 and 4 (grids 2x2, 3x2, 3x3).
TABLE10_DEN2_ROWS = [
    [1, 0, 0, 1],
    [0, 1, 1, 0],
    [0, 0, 0, 0],
    [1, 0, 1, 0],
    [0, 1, 0, 1],
    [0, 0, 0, 0],
]
TABLE10_DEN3_ROWS = [
    [0, 1, 2, 0],
    [1, 0, 0, 1],
    [1, 0, 0, 0],
    [1, 0, 2, 0],
    [0, 1, 0, 1],
    [1, 0, 0, 0],
    [1, 0, 2, 0],
    [1, 0, 0, 1],
    [0, 1, 0, 0],
]
TABLE10_DEN4_ROWS = [
    [2, 0, 2, 0, 2, 0],
    [1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [2, 0, 2, 0, 2, 0],
    [0, 1, 1, 0, 0, 1],
    [1, 0, 0, 1, 1, 0],
    [2, 0, 2, 0, 0, 2],
    [0, 1, 0, 1, 1, 0],
    [0, 1, 0, 1, 1, 0],
]

# Objective vectors for the three-clause formula over four variables.
TABLE3A_ROWS = [
    [1, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 1],
]
TABLE3B_ROWS = [
    [1, 0, 0, 1, 0, 0],
    [0, 1, 1, 0, 0, 0],
    [0, 1, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 1],
    [1, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 1, 0],
    [1, 0, 0, 1, 0, 1],
    [1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 0],
    [0, 0, 1, 0, 0, 1],
]
TABLE3C_ROWS = [
    [1, 0, 0, 1, 0, 0],
    [0, 1, 1, 0, 0, 0],
    [1, 1, 1, 1, 0, 0],
    [1, 1, 0, 0, 0, 1],
    [1, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 1, 1],
    [1, 0, 1, 1, 1, 1],
    [1, 1, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 0, 1, 1, 0],
    [0, 0, 1, 1, 1, 1],
    [0, 0, 1, 0, 0, 1],
]

# Two-U, two-V coloring instance and its balanced objective with the -1
# zero-balancing entries.
TABLE16_INSTANCE = (
    "ecbgc 2 2\n"
    "edge 1 1 : ++---+\n"
    "edge 1 2 : +-+--+\n"
    "edge 2 1 : --+-+-\n"
    "edge 2 2 : +--+-+\n"
)
TABLE16_OBJECTIVE_ROWS = [
    [1, 0, 1, 0],
    [1, 0, 0, -1],
    [0, 1, 1, 1],
    [-1, 0, 1, 1],
    [0, 1, 0, 0],
    [1, 0, 0, 1],
]


@pytest.fixture
def formula18_text():
    return FORMULA_18


@pytest.fixture
def table9_point():
    return grid_point(TABLE9_ROWS, denominator=7)
