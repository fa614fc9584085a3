"""2-3 edge-constrained bipartite graph coloring.

An instance is a bipartite graph with side U colored from {1, 2} and side
V from {1, 2, 3}; each edge carries a table of permitted color pairs.
Colorings biject with integral vertices of the block polytope on the
``|U| x |V|`` grid (``color(u_i) = row_i + 1``, ``color(v_j) = col_j + 1``),
so the permitted tables become a 0/1 objective whose maximum hits the edge
count exactly when a valid coloring exists.

The polynomial subclass: every V-vertex owns a pair of its colors whose
permitted/forbidden pattern is linked across the two U-colors on all
incident edges (a biconditional per edge).  Instances in the subclass
yield column-balanced objectives, after inserting a ``-1`` next to any
edge that permits exactly one of the four linked combinations (zero
balancing), and are solved by integer recognition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from satpoly.blockpoint import BlockPoint, ObjectiveVector, _check_shape
from satpoly.errors import BalanceError, InputError, InternalInvariantError, SubclassError
from satpoly.rational import Rational, content_lines, parse_int
from satpoly.recognition import recognize_satp
from satpoly.reductions import Cnf3Formula, objective_x3sat
from satpoly.vertices import DEFAULT_CODE_BUDGET, row_codes

#: pc tables are indexed [u_color][v_color], 0-based: pc[s][k] for
#: s in {0,1} (U side) and k in {0,1,2} (V side); True means permitted.
PcTable = tuple[tuple[bool, bool, bool], tuple[bool, bool, bool]]

#: Candidate linked pairs of V-colors (1-based), in the lexicographic order
#: the subclass test takes them.  The link condition is symmetric in a and
#: b, so a reversed pair such as (2, 1) is linked exactly when (1, 2) is and
#: would never be found first.
BALANCING_PAIRS = ((1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class EcbgcInstance:
    """A coloring instance on the ``u_count x v_count`` block grid, which must be
    positive and hold at most ``MAX_TEXT_VARS`` values; checked before the edges."""

    u_count: int
    v_count: int
    edges: tuple[tuple[int, int, PcTable], ...]  # (i, j) 1-based

    def __post_init__(self):
        _check_shape(self.u_count, self.v_count)
        seen = set()
        for i, j, _ in self.edges:
            if not (1 <= i <= self.u_count and 1 <= j <= self.v_count):
                raise InputError(f"edge ({i},{j}) out of range")
            if (i, j) in seen:
                raise InputError(f"duplicate edge ({i},{j})")
            seen.add((i, j))

    def edge_map(self) -> dict[tuple[int, int], PcTable]:
        return {(i, j): pc for i, j, pc in self.edges}


@dataclass(frozen=True)
class Coloring:
    u_colors: tuple[int, ...]  # values in {1, 2}
    v_colors: tuple[int, ...]  # values in {1, 2, 3}


def coloring_is_valid(inst: EcbgcInstance, coloring: Coloring) -> bool:
    if len(coloring.u_colors) != inst.u_count or len(coloring.v_colors) != inst.v_count:
        raise InputError("coloring has wrong lengths")
    for i, j, pc in inst.edges:
        if not pc[coloring.u_colors[i - 1] - 1][coloring.v_colors[j - 1] - 1]:
            return False
    return True


def parse_ecbgc(text: str) -> EcbgcInstance:
    """Parse the instance format: header ``ecbgc m n`` then ``edge i j : <6 flags>``.

    The six +/- flags run over the U color first, V color second:
    positions 1..3 are (u=1, v=1..3), positions 4..6 are (u=2, v=1..3).
    """
    header = None
    edges = []
    for line in content_lines(text):
        tokens = line.split()
        if tokens[0] == "ecbgc":
            if header is not None or len(tokens) != 3:
                raise InputError(f"bad or repeated header: {line!r}")
            header = tuple(parse_int(tokens, k, "header") for k in (1, 2))
        elif tokens[0] == "edge":
            if header is None:
                raise InputError("edge line before the header")
            if len(tokens) != 5 or tokens[3] != ":":
                raise InputError(f"bad edge line: {line!r}")
            i, j = (parse_int(tokens, k, "edge line") for k in (1, 2))
            flags = tokens[4]
            if len(flags) != 6 or flags.strip("+-"):
                raise InputError(f"expected six +/- flags: {line!r}")
            pc = (tuple(map("+".__eq__, flags[:3])), tuple(map("+".__eq__, flags[3:])))
            edges.append((i, j, pc))
        else:
            raise InputError(f"unknown line kind {tokens[0]!r}")
    if header is None:
        raise InputError("missing 'ecbgc' header")
    return EcbgcInstance(header[0], header[1], tuple(edges))


def format_ecbgc(inst: EcbgcInstance) -> str:
    lines = [f"ecbgc {inst.u_count} {inst.v_count}"]
    for i, j, pc in inst.edges:
        flags = "".join("+" if pc[s][k] else "-" for s in range(2) for k in range(3))
        lines.append(f"edge {i} {j} : {flags}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of the subclass test: pairs per V-vertex, or a violator."""

    pairs: Optional[tuple[tuple[int, int], ...]]  # (a_j, b_j), 1-based colors
    violating: Optional[int]  # 1-based V index when the test fails

    @property
    def ok(self) -> bool:
        return self.pairs is not None


def _pair_ok_for_edge(pc: PcTable, a: int, b: int) -> bool:
    left = pc[0][a - 1] and pc[1][b - 1]
    right = pc[1][a - 1] and pc[0][b - 1]
    return left == right


def check_condition(inst: EcbgcInstance) -> ConditionCheck:
    """Find, per V-vertex, a color pair linking both U-colors on all edges.

    For each ``j`` the lexicographically smallest pair ``(a_j, b_j)`` with
    ``pc(i,j,a_j,1) = pc(i,j,b_j,2) = '+'  <=>  pc(i,j,a_j,2) = pc(i,j,b_j,1) = '+'``
    on every incident edge; failure names the first vertex without one.
    """
    by_vertex: dict[int, list[PcTable]] = {}
    for i, j, pc in inst.edges:
        by_vertex.setdefault(j, []).append(pc)
    pairs = []
    for j in range(1, inst.v_count + 1):
        tables = by_vertex.get(j, [])
        for a, b in BALANCING_PAIRS:
            if all(_pair_ok_for_edge(pc, a, b) for pc in tables):
                pairs.append((a, b))
                break
        else:
            return ConditionCheck(pairs=None, violating=j)
    return ConditionCheck(pairs=tuple(pairs), violating=None)


def objective_from_instance(
    inst: EcbgcInstance, pairs: tuple[tuple[int, int], ...]
) -> ObjectiveVector:
    """0/1 objective from the permitted tables, with zero balancing.

    Cell ``(k, s)`` of block ``(i, j)`` is 1 when edge (i, j) permits
    U-color s with V-color k.  When an edge permits exactly one of the
    four combinations built from ``(a_j, b_j)``, the diagonally opposite
    cell gets -1 so the column stays balanced.  Non-edges contribute
    zero blocks, which are balanced vacuously.  The entries are ``int``.
    """
    if len(pairs) != inst.v_count:
        raise InputError("one pair per V-vertex required")
    m, n = inst.u_count, inst.v_count
    c = [0] * (6 * m * n)
    for i, j, pc in inst.edges:
        a, b = pairs[j - 1]
        if not _pair_ok_for_edge(pc, a, b):
            raise InputError(f"edge ({i},{j}) violates the subclass condition")
        o = 6 * ((i - 1) * n + j - 1)  # cell (k, s) of block (i, j) is at o + 2k + s
        for s in range(2):
            for k in range(3):
                if pc[s][k]:
                    c[o + 2 * k + s] = 1
        quad = [(a - 1, 0), (a - 1, 1), (b - 1, 0), (b - 1, 1)]
        permitted = [(k, s) for k, s in quad if pc[s][k]]
        if len(permitted) == 1:
            k, s = permitted[0]
            partner_k = (b - 1) if k == a - 1 else (a - 1)
            c[o + 2 * partner_k + 1 - s] = -1
    return BlockPoint(m, n, c)


def solve_ecbgc(inst: EcbgcInstance) -> Optional[Coloring]:
    """Polynomial solver for subclass instances, via integer recognition.

    A coloring exists iff the recognition answer is positive with optimum
    equal to the edge count; the witness vertex decodes to the coloring,
    which is validated against every edge table before being returned.
    Instances outside the subclass are refused.  A subclass instance's
    objective is balanced by construction, so a BalanceError from the
    recognition is a bug and becomes InternalInvariantError.
    """
    cond = check_condition(inst)
    if not cond.ok:
        raise SubclassError(
            f"V-vertex {cond.violating} admits no linked color pair"
        )
    c = objective_from_instance(inst, cond.pairs)
    try:
        outcome = recognize_satp(c, inst.u_count, inst.v_count)
    except BalanceError as exc:
        raise InternalInvariantError(f"zero balancing failed: {exc}") from exc
    if not outcome.answer or outcome.lp_value != len(inst.edges):
        return None
    code = outcome.witness
    coloring = Coloring(
        tuple(r + 1 for r in code.row), tuple(col + 1 for col in code.col)
    )
    if not coloring_is_valid(inst, coloring):  # pragma: no cover - theory guard
        raise InternalInvariantError("witness decoded to an invalid coloring")
    return coloring


def brute_force_coloring(
    inst: EcbgcInstance, budget: int = DEFAULT_CODE_BUDGET
) -> Optional[Coloring]:
    """First valid coloring in lexicographic order, or None.

    Walks the U-colorings of :func:`row_codes` in lexicographic order.
    With the U-colors fixed, the V-vertices are independent: each takes
    the first color that every incident edge permits, and the first
    U-coloring under which every V-vertex has one gives the
    lexicographically first valid coloring.
    """
    rows = row_codes(inst.u_count, inst.v_count, budget)
    incident: list[list[tuple[int, PcTable]]] = [[] for _ in range(inst.v_count)]
    for i, j, pc in inst.edges:
        incident[j - 1].append((i - 1, pc))
    for row in rows:
        col = []
        for edges in incident:
            k = next((k for k in range(3) if all(pc[row[i]][k] for i, pc in edges)), None)
            if k is None:
                break
            col.append(k)
        else:
            return Coloring(tuple(r + 1 for r in row), tuple(k + 1 for k in col))
    return None


def reduce_x3sat_to_ecbgc(formula: Cnf3Formula) -> EcbgcInstance:
    """Exactly-one 3-SAT as edge-constrained coloring.

    One edge per variable/clause incidence; the permitted table of edge
    (i, j) marks the cells where the exactly-one objective scores, so
    colorability coincides with exactly-one satisfiability.  A clause
    repeating a variable yields a single edge whose table is the union of
    the per-place patterns.  Only the incident blocks are read, in the
    sorted (variable, clause) order, which is the grid's row-major order;
    every other block of the objective is zero.
    """
    w = objective_x3sat(formula).values
    n = formula.clause_count
    incidences = sorted({(var, j) for j, clause in enumerate(formula.clauses) for var, _ in clause})
    edges = []
    for var, j in incidences:
        b = 6 * ((var - 1) * n + j)
        blk = w[b : b + 6]  # cell (k, l) at 2k + l, each 0 or 1
        edges.append((var, j + 1, (tuple(map(bool, blk[0::2])), tuple(map(bool, blk[1::2])))))
    return EcbgcInstance(formula.var_count, n, tuple(edges))


def scale_edge_weights(
    c: ObjectiveVector, inst: EcbgcInstance, weights: dict[tuple[int, int], Rational]
) -> ObjectiveVector:
    """Scale each edge's objective block by a positive weight.

    Uniform positive scaling of a block preserves the balance identity, so
    weighted instances stay inside the tractable objective class.  Each key
    must be an edge of ``inst``, and ``c`` must be on ``inst``'s grid.
    """
    if (c.m, c.n) != (inst.u_count, inst.v_count):
        raise InputError("the objective and the instance have different grids")
    edges = inst.edge_map()
    out = c.copy()
    for (i, j), weight in weights.items():
        if (i, j) not in edges:
            raise InputError(f"({i},{j}) is not an edge of the instance")
        weight = Fraction(weight)
        if weight <= 0:
            raise InputError("edge weights must be positive")
        for k in range(3):
            for l in range(2):
                out[i - 1, j - 1, k, l] *= weight
    return out
