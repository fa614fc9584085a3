"""Integral vertices, 1-skeleton analysis, and vertex machinery.

Integral vertices of the block polytope are zero-one points with exactly
one unit per block; they biject with codes ``(row, col)`` where ``row`` is
a 0/1 vector of length m and ``col`` a 0/1/2 vector of length n.  The unit
of block ``(i, j)`` sits at cell ``(col_j + 1, row_i + 1)`` (1-based).

Vertex verification is algebraic: a feasible point is a vertex exactly
when the constraints tight at it pin it down uniquely (tight-row rank
equals the variable count).  Edges are faces of dimension one.  The
nonnegativities tight at the points pin their columns at zero, so the
rank is taken over the other, free columns only: the pinned count plus
the rank of the remaining tight rows with the pinned columns deleted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterator

from satpoly.blockpoint import BlockPoint
from satpoly.builders import build_satp_lp
from satpoly.errors import BudgetError, InputError, InternalInvariantError, NotAVertexError
from satpoly.linsys import (
    MAX_TEXT_VARS,
    LinearSystem,
    Row,
    _eliminate,
    _int_row,
    _solve_equalities,  # unused here; perfbench/tracing.py wraps this name
    _unscaled,
    rank,
    rank_at_most,
)
from satpoly.rational import Rational

DEFAULT_CODE_BUDGET = 10**6
DEFAULT_LP_VERTEX_BUDGET = 24


@dataclass(frozen=True, order=True)
class VertexCode:
    """Integral-vertex code: ``row`` over {0,1}, ``col`` over {0,1,2}."""

    row: tuple[int, ...]
    col: tuple[int, ...]

    def __post_init__(self):
        if not all(r in (0, 1) for r in self.row):
            raise InputError("row entries must be 0 or 1")
        if not all(c in (0, 1, 2) for c in self.col):
            raise InputError("col entries must be 0, 1 or 2")

    @property
    def m(self) -> int:
        return len(self.row)

    @property
    def n(self) -> int:
        return len(self.col)

    def __str__(self) -> str:
        return "".join(map(str, self.row)) + ":" + "".join(map(str, self.col))

    @staticmethod
    def parse(text: str) -> "VertexCode":
        parts = text.strip().split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise InputError(f"bad vertex code {text!r}; expected ROW:COL digits")
        digits = "".join(parts)
        if not (digits.isdigit() and digits.isascii()):
            raise InputError(f"bad vertex code {text!r}")
        return VertexCode(tuple(map(int, parts[0])), tuple(map(int, parts[1])))


def code_to_point(code: VertexCode) -> BlockPoint:
    """Zero-one point with one unit per block, at cell (col_j+1, row_i+1)."""
    p = BlockPoint.zeros(code.m, code.n)
    one = Fraction(1)
    for i, r in enumerate(code.row):
        for j, c in enumerate(code.col):
            p[i, j, c, r] = one
    return p


def point_to_code(p: BlockPoint) -> VertexCode:
    """Inverse of :func:`code_to_point`; rejects every point outside its image.

    ``row`` is read off the units of block column 1 and ``col`` off those
    of block row 1; the point is accepted only if it re-encodes exactly.
    """

    def unit(i: int, j: int) -> tuple[int, int]:
        b = 6 * (i * p.n + j)
        nonzero = [o for o in range(6) if p.values[b + o]]
        if len(nonzero) != 1:
            raise NotAVertexError(f"block ({i + 1},{j + 1}) is not a unit block")
        return divmod(nonzero[0], 2)

    row = tuple(unit(i, 0)[1] for i in range(p.m))
    col = tuple(unit(0, j)[0] for j in range(p.n))
    code = VertexCode(row, col)
    if code_to_point(code) != p:
        raise NotAVertexError(f"point is not the integral vertex {code}")
    return code


def _check_grid(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise InputError("grid dimensions must be positive")


def row_codes(m: int, n: int, budget: int = DEFAULT_CODE_BUDGET) -> Iterator[tuple[int, ...]]:
    """The ``2^m`` row codes ``row`` of the integral codes, lexicographically.

    The exact oracles share this walk: once the row code is fixed, each
    block column takes its best colour on its own.  ``budget`` bounds
    ``2^m * n``, the row codes times the columns each of them visits; it
    is checked on the call, before any code is generated.
    """
    _check_grid(m, n)
    if m >= budget.bit_length() or 2**m * n > budget:  # as in enumerate_integral_vertices
        raise BudgetError(f"the row codes of the {m}x{n} grid exceed budget {budget}")
    return itertools.product((0, 1), repeat=m)


def enumerate_integral_vertices(
    m: int, n: int, budget: int = DEFAULT_CODE_BUDGET
) -> list[VertexCode]:
    """All ``2^m 3^n`` codes in lexicographic order, guarded by a budget."""
    _check_grid(m, n)
    # 2^m 3^n >= 2^(m+n) > budget once m + n reaches the budget's bit length,
    # so a grid that large is refused before its count is computed.
    if m + n >= budget.bit_length() or 2**m * 3**n > budget:
        raise BudgetError(f"the codes of the {m}x{n} grid exceed budget {budget}")
    return [
        VertexCode(row, col)
        for row in itertools.product((0, 1), repeat=m)
        for col in itertools.product((0, 1, 2), repeat=n)
    ]


def adjacent(u: VertexCode, v: VertexCode) -> bool:
    """1-skeleton adjacency of two integral vertices.

    Adjacent iff the codes differ in both vectors, or in exactly one
    coordinate of one vector while the other vector agrees.
    """
    if (u.m, u.n) != (v.m, v.n):
        raise InputError("codes have different grid shapes")
    if u == v:
        raise InputError("adjacency is defined for distinct vertices")
    row_diff = sum(1 for a, b in zip(u.row, v.row) if a != b)
    col_diff = sum(1 for a, b in zip(u.col, v.col) if a != b)
    if row_diff and col_diff:
        return True
    if col_diff == 0 and row_diff == 1:
        return True
    if row_diff == 0 and col_diff == 1:
        return True
    return False


@dataclass
class SkeletonGraph:
    """Vertex codes plus a symmetric adjacency matrix (no self-loops)."""

    codes: list[VertexCode]
    adjacency: list[list[bool]]

    def diameter(self) -> int:
        """Exact diameter by BFS from every vertex; a BFS level ORs int bitmask rows."""
        masks = [sum(1 << b for b, edge in enumerate(row) if edge) for row in self.adjacency]
        everything = (1 << len(masks)) - 1
        best = 0
        for start in range(len(masks)):
            seen = frontier = 1 << start
            depth = 0
            while seen != everything:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= masks[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & ~seen
                if not frontier:
                    raise InternalInvariantError("skeleton graph is disconnected")
                seen |= frontier
                depth += 1
            best = max(best, depth)
        return best


def skeleton(m: int, n: int, budget: int = DEFAULT_CODE_BUDGET) -> SkeletonGraph:
    """Full 1-skeleton over all integral vertices.

    ``budget`` bounds the cells of the adjacency matrix, the square of the
    vertex count, which is refused before anything is built.
    """
    try:
        codes = enumerate_integral_vertices(m, n, budget=isqrt(max(budget, 0)))
    except BudgetError:
        raise BudgetError(f"the {m}x{n} skeleton exceeds budget {budget}") from None
    size = len(codes)
    adj = [[False] * size for _ in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            if adjacent(codes[a], codes[b]):
                adj[a][b] = adj[b][a] = True
    return SkeletonGraph(codes, adj)


def construct_clique(
    m: int, n: int, budget: int = DEFAULT_CODE_BUDGET
) -> list[VertexCode]:
    """A clique of size ``2^min(m,n)`` in the 1-skeleton, guarded by a budget.

    Codes agree between row and col on the first ``min(m, n)`` coordinates
    (cols restricted to {0,1}) and are zero elsewhere; any two of them
    differ in both vectors, hence are pairwise adjacent.  ``budget`` bounds
    the number of codes and ``MAX_TEXT_VARS`` their entries, ``m + n`` per
    code: the 10^9 x 1 grid has two codes, each 10^9 + 1 entries long.
    """
    _check_grid(m, n)
    p = min(m, n)
    if p >= budget.bit_length() or 2**p > budget:  # as in enumerate_integral_vertices
        raise BudgetError(f"the {m}x{n} clique exceeds budget {budget}")
    if 2**p * (m + n) > MAX_TEXT_VARS:
        raise BudgetError(f"the {m}x{n} clique's codes exceed {MAX_TEXT_VARS} entries")
    out = []
    for bits in itertools.product((0, 1), repeat=p):
        row = tuple(bits) + (0,) * (m - p)
        col = tuple(bits) + (0,) * (n - p)
        out.append(VertexCode(row, col))
    return out


# ---------------------------------------------------------------------------
# Fractional vertex with denominator n+1
# ---------------------------------------------------------------------------


def fractional_vertex(n: int) -> BlockPoint:
    """A fractional vertex of the square relaxation with denominator n+1.

    Every coordinate is an integer multiple of ``1/(n+1)`` and the minimum
    positive coordinate equals exactly ``1/(n+1)``.  The support pattern:
    diagonal blocks load cells (1,1),(2,1),(3,2); superdiagonal blocks load
    (1,1),(2,2),(3,1); column j additionally hosts two compact blocks in
    rows 2j-1 and 2j loading (1,1),(2,2),(3,2); the first column's last two
    rows carry their own closing patterns; every remaining block is a
    filler whose values are fixed by the row/column sum profiles.

    The result is validated (feasibility plus uniqueness of the tight
    system) before being returned.  Requires ``n >= 4``: the closing
    patterns need the last two block rows to differ from the first two.
    """
    if n < 4:
        raise InputError("fractional vertex construction needs n >= 4")
    x = Fraction(1, n + 1)
    p = BlockPoint.zeros(n, n)
    for j1 in range(1, n + 1):
        # the top-row sums of the 1-based column j1
        if j1 == 1:
            r1, r2, r3 = (n // 2) * x, ((n + 1) // 2) * x, x
        else:
            r1, r2, r3 = (n + 1 - j1) * x, (j1 // 2) * x, ((j1 + 1) // 2) * x
        for i1 in range(1, n + 1):
            # a patterned block's cells take r1, r2 and r3; a filler names its four
            values = r1, r2, r3
            if j1 == 1 and i1 == n - 1:
                cells = (0, 1), (1, 0), (2, 0)
            elif j1 == 1 and i1 == n:
                cells = (0, 0), (1, 1), (2, 0)
            elif i1 == j1:
                cells = (0, 0), (1, 0), (2, 1)
            elif j1 == i1 + 1:
                cells = (0, 0), (1, 1), (2, 0)
            elif j1 >= 2 and i1 in (2 * j1 - 1, 2 * j1):
                cells = (0, 0), (1, 1), (2, 1)
            elif i1 < j1:
                v = ((i1 + 1) // 2) * x
                cells, values = ((0, 0), (1, 0), (2, 0), (2, 1)), (r1, r2, r3 - v, v)
            else:
                y = ((i1 + 1) // 2) * x - r3
                cells, values = ((0, 0), (0, 1), (1, 0), (2, 1)), (r1 - y, y, r2, r3)
            for (k, l), value in zip(cells, values):
                p[i1 - 1, j1 - 1, k, l] = value

    sys = build_satp_lp(n, n)
    scaled = sys._scaled_point(p.flat())
    if not sys._holds(*scaled):
        raise InternalInvariantError("constructed fractional point is infeasible")
    if not _is_vertex(sys, scaled):
        raise InternalInvariantError("constructed fractional point is not a vertex")
    return p


# ---------------------------------------------------------------------------
# Algebraic vertex and edge tests
# ---------------------------------------------------------------------------


def _scaled_feasible(sys: LinearSystem, flat: list[Rational]) -> tuple[list[int], int]:
    """``flat`` scaled to integers, once for all the tests at it; InputError
    unless it is a point of ``sys``."""
    scaled = sys._scaled_point(flat)
    if not sys._holds(*scaled):
        raise InputError("point is not feasible for the system")
    return scaled


def _free_rows(sys: LinearSystem, *scaled: tuple[list[int], int]) -> tuple[list[Row], int]:
    """The rows tight at every scaled point, over the free columns, and the free column count.

    The unit rows of the pinned columns span exactly those coordinates, so
    eliminating them is the same as deleting the pinned columns from the
    other rows: the tight system's rank is ``len(pinned)`` plus the rank of
    the rows returned here.  The rows are read off the systems' column
    indexes over the free columns alone, so a row with no free entry is
    never built.
    """
    indices, pinned = sys._tight_at(scaled)
    free = [j for j in range(sys.var_count) if j not in pinned]
    tight: dict[int, Row] = {i: {} for i in indices}  # row index -> its free entries
    for offset, frozen in ((0, sys.eq_rows), (len(sys.eq_rows), sys.ineq_rows)):
        columns = frozen.columns
        for j in free:
            for k, c in columns.get(j, ()):
                if (row := tight.get(offset + k)) is not None:
                    row[j] = c
    return [row for row in tight.values() if row], len(free)


def _is_vertex(sys: LinearSystem, scaled: tuple[list[int], int]) -> bool:
    """:func:`verify_vertex` at a feasible point already scaled."""
    rows, free = _free_rows(sys, scaled)
    return rank(rows) == free


def verify_vertex(p: BlockPoint | list[Rational], sys: LinearSystem) -> bool:
    """True iff the constraints tight at ``p`` determine it uniquely.

    ``p`` must be feasible.  The tight subsystem collects all equality
    rows, the inequality rows met with equality, and the nonnegativities
    active at zero; ``p`` is a vertex exactly when that subsystem has rank
    equal to the variable count, that is, when the other tight rows have
    full rank over the columns that are not pinned at zero.
    """
    flat = p.flat() if isinstance(p, BlockPoint) else list(p)
    return _is_vertex(sys, _scaled_feasible(sys, flat))


def is_edge(
    sys: LinearSystem, p: BlockPoint | list[Rational], q: BlockPoint | list[Rational]
) -> bool:
    """True iff the minimal face containing two vertices is a segment.

    Both points must be distinct vertices of ``sys``.  The constraints
    tight at both span a solution space containing the line through them;
    the pair is an edge exactly when that space has dimension one.
    """
    pf = p.flat() if isinstance(p, BlockPoint) else list(p)
    qf = q.flat() if isinstance(q, BlockPoint) else list(q)
    if pf == qf:
        raise InputError("edge test needs two distinct vertices")
    scaled = []
    for flat in (pf, qf):
        point = _scaled_feasible(sys, flat)
        if not _is_vertex(sys, point):
            raise InputError("edge test inputs must be vertices")
        scaled.append(point)
    rows, free = _free_rows(sys, *scaled)
    # Both vertices satisfy every collected row, so over the free columns
    # the rank is at most free - 1; equality means the face is one-dimensional.
    return rank_at_most(rows, free - 1) == free - 1


# ---------------------------------------------------------------------------
# LP-vertex enumeration by double description
# ---------------------------------------------------------------------------


def enumerate_lp_vertices(
    sys: LinearSystem, budget: int = DEFAULT_LP_VERTEX_BUDGET
) -> list[list[Rational]]:
    """All vertices of the polyhedron, by the double-description method.

    The polyhedron is homogenized to the cone over ``y = (x, t)`` cut out
    by the hyperplane ``a.x - b t = 0`` for each equality and by the
    half-spaces ``b t - a.x >= 0`` for each inequality and ``y_v >= 0``
    for every nonnegative column and ``t``, each half-space with its own
    bit in the rays' zero sets.  Its vertices are the extreme rays with
    ``t > 0``, scaled to ``t = 1``.

    The cone starts as all of space (an identity lineality basis, no rays)
    and takes the constraints one at a time, equalities first (Motzkin et
    al. 1953; Fukuda and Prodon 1996).  A constraint that is nonzero on
    the lineality consumes one lineality vector: the others and every ray
    are projected onto its hyperplane along that vector, and for a
    half-space the vector itself becomes a ray.  Otherwise the rays are
    split by sign and each (+, -) pair that is adjacent combines into a
    ray on the hyperplane; a pair is adjacent when no third ray is tight
    at every half-space tight at both.  Rays and lineality vectors are
    sparse primitive integer rows, and the column after ``t`` holds their
    value on the constraint at hand: :func:`~satpoly.linsys._eliminate`
    clearing it is both the projection and the combination.  A lineality
    direction left at the end means the polyhedron has no vertex.  Results
    are sorted.

    Gated by ``budget`` on the variable count, which also bounds the
    cone's dimension, ``var_count + 1``.
    """
    if sys.var_count > budget:
        raise BudgetError(f"{sys.var_count} variables exceed enumeration budget {budget}")

    t = sys.var_count
    dim = t + 1  # the cone's dimension, and the value column past its columns

    # (row, bit): an equality row has bit 0, and each half-space its own bit
    # in the rays' zero sets: 1 << v for y_v >= 0, 1 << (dim + k) for row k.
    constraints: list[tuple[dict[int, int], int]] = []
    for coeffs, rhs in sys.eq_rows:
        constraints.append((_int_row({**coeffs, t: -rhs}), 0))
    for v in range(dim):
        if v == t or sys.nonneg[v]:
            constraints.append(({v: 1}, 1 << v))
    for k, (coeffs, rhs) in enumerate(sys.ineq_rows):  # b t - a.x >= 0
        row = _int_row({**coeffs, t: -rhs})
        constraints.append(({j: -c for j, c in row.items()}, 1 << (dim + k)))

    lineality: list[dict[int, int]] = [{v: 1} for v in range(dim)]
    rays: list[dict[int, int]] = []
    zeros: list[int] = []  # per ray, the bits of the half-spaces it meets with 0
    done = 0  # bits of the half-spaces processed so far

    for row, bit in constraints:
        for y in itertools.chain(lineality, rays):  # column dim: the value on this row
            y[dim] = sum(c * y[j] for j, c in row.items() if j in y)
        pivot = next((i for i, y in enumerate(lineality) if y[dim]), None)
        if pivot is not None:
            direction = lineality.pop(pivot)
            if direction[dim] < 0:
                direction = {j: -x for j, x in direction.items()}
            lineality = [_eliminate(y, direction, dim) if y[dim] else y for y in lineality]
            rays = [_eliminate(y, direction, dim) if y[dim] else y for y in rays]
            zeros = [z | bit for z in zeros]
            if bit:
                rays.append(direction)
                zeros.append(done)
        else:
            kept = [i for i, y in enumerate(rays) if y[dim] == 0 or (bit and y[dim] > 0)]
            new_rays = [rays[i] for i in kept]
            new_zeros = [zeros[i] if rays[i][dim] else zeros[i] | bit for i in kept]
            plus = [i for i, y in enumerate(rays) if y[dim] > 0]
            minus = [i for i, y in enumerate(rays) if y[dim] < 0]
            for i in plus:
                for j in minus:
                    common = zeros[i] & zeros[j]
                    if any(
                        z & common == common and k != i and k != j
                        for k, z in enumerate(zeros)
                    ):
                        continue
                    new_rays.append(_eliminate(dict(rays[j]), rays[i], dim))
                    new_zeros.append(common | bit)
            rays, zeros = new_rays, new_zeros
        done |= bit

    if lineality:
        return []
    # Each vertex times the lcm of the rays' t: integer tuples that dedupe and
    # sort as the vertices do, the scale being positive.  They share a few
    # distinct entries, so they are unscaled in one call, one run of entries.
    bounded = [y for y in rays if y.get(t, 0) > 0]
    scale = lcm(*(y[t] for y in bounded))
    found = {tuple(y.get(v, 0) * (scale // y[t]) for v in range(t)) for y in bounded}
    entries = iter(_unscaled([x for vertex in sorted(found) for x in vertex], scale))
    return [list(itertools.islice(entries, t)) for _ in found]
