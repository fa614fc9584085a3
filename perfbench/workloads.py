"""Seeded instance pools, timed answers and oracle checks for each workload.

Every instance reaches the program as text, the way the CLI reads it.  A
pool is made once per run from ``--seed`` by the generators below, which
belong to the benchmark rather than to the repository's tests, so that a
test edit cannot silently change a workload.  Oracle answers are computed
while the pool is built, outside the timed region.

The program is reached only through module attributes (``api.recognition
.recognize_satp`` and so on), never through names bound at import time,
so the tracer's wrappers on those attributes see every call.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

REFUSED = "refused"


@dataclass
class Item:
    """One instance of a pool: its kind, its input texts and its oracle data."""

    kind: str
    label: str
    texts: tuple[str, ...]
    expected: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named pool recipe.

    ``mix`` lists ``(kind, size, count)``: ``count`` items of that kind and
    size go into every pool, interleaved so that each stretch of the loop
    sees the whole mix.  Why each workload exists is in README.md.
    """

    name: str
    mix: tuple[tuple[str, tuple[int, ...], int], ...]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def balanced_objective_text(rng: random.Random, m: int, n: int, lo=-3, hi=3) -> str:
    """Integer block objective with a balancing row pair in every column."""
    cells = [[[[0, 0] for _ in range(3)] for _ in range(n)] for _ in range(m)]
    for j in range(n):
        a, b = rng.sample(range(3), 2)
        rest = 3 - a - b
        for i in range(m):
            while True:
                ca1, ca2, cb2 = (rng.randint(lo, hi) for _ in range(3))
                cb1 = ca1 + cb2 - ca2
                if lo <= cb1 <= hi:
                    break
            blk = cells[i][j]
            blk[a] = [ca1, ca2]
            blk[b] = [cb1, cb2]
            blk[rest] = [rng.randint(lo, hi), rng.randint(lo, hi)]
    return _block_text("objective", cells)


def _block_text(tag: str, cells) -> str:
    m, n = len(cells), len(cells[0])
    lines = [f"{tag} {m} {n}"]
    for i in range(m):
        for k in range(3):
            lines.append(
                " ".join(_fmt(cells[i][j][k][l]) for j in range(n) for l in range(2))
            )
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def linked(flags: tuple[bool, ...], a: int, b: int) -> bool:
    """The linked-pair test for one edge table (six flags, U color major)."""
    left = flags[a - 1] and flags[3 + b - 1]
    right = flags[3 + a - 1] and flags[b - 1]
    return left == right


def subclass_instance_text(rng: random.Random, m: int, n: int) -> str:
    """Coloring instance whose every V-vertex owns a linked color pair."""
    pairs = [tuple(rng.sample((1, 2, 3), 2)) for _ in range(n)]
    lines = [f"ecbgc {m} {n}"]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if rng.random() < 0.3:
                continue
            while True:
                flags = tuple(rng.random() < 0.55 for _ in range(6))
                if linked(flags, *pairs[j - 1]):
                    break
            lines.append(f"edge {i} {j} : " + "".join("+" if f else "-" for f in flags))
    return "\n".join(lines) + "\n"


def cnf_text(rng: random.Random, m: int, n: int) -> str:
    """Exactly-one 3-CNF with three distinct variables per clause."""
    lines = [f"p cnf {m} {n}"]
    for _ in range(n):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, m + 1), 3)]
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def bqp_objective_text(rng: random.Random, n: int) -> str:
    return " ".join(str(rng.randint(-3, 3)) for _ in range(n + n * (n - 1) // 2)) + "\n"


def code_cells(m: int, n: int, row, col):
    """Zero-one block cells of the integral vertex with codes ``row``/``col``."""
    cells = [[[[0, 0] for _ in range(3)] for _ in range(n)] for _ in range(m)]
    for i in range(m):
        for j in range(n):
            cells[i][j][col[j]][row[i]] = 1
    return cells


def random_code(rng: random.Random, m: int, n: int):
    return (
        tuple(rng.randint(0, 1) for _ in range(m)),
        tuple(rng.randint(0, 2) for _ in range(n)),
    )


def two_codes(rng: random.Random, m: int, n: int):
    """Two distinct random vertex codes."""
    u = random_code(rng, m, n)
    v = u
    while v == u:
        v = random_code(rng, m, n)
    return u, v


def satp2_violated(flat, m: int, n: int) -> bool:
    """True iff the point breaks some strengthening row (each bounds four triples by 3)."""
    odd, even = {}, {}
    for i in range(m):
        for j in range(n):
            base = (i * n + j) * 6
            odd[i, j] = flat[base + 1] + flat[base + 2] + flat[base + 4]
            even[i, j] = flat[base + 0] + flat[base + 3] + flat[base + 5]
    for i, k in itertools.permutations(range(m), 2):
        for j, l in itertools.permutations(range(n), 2):
            if odd[i, j] + even[i, l] + even[k, j] + even[k, l] > 3:
                return True
            if odd[i, j] + odd[i, l] + even[k, j] + odd[k, l] > 3:
                return True
    return False


def met_violated(x, n: int) -> bool:
    """True iff the quadric point breaks some triangle row of the metric tightening."""

    def pair(i, j):
        return x[n + i * (2 * n - i - 1) // 2 + (j - i - 1)]

    for i, j, k in itertools.combinations(range(n), 3):
        xij, xik, xjk = pair(i, j), pair(i, k), pair(j, k)
        if (
            x[i] + x[j] + x[k] - xij - xik - xjk > 1
            or xij + xik - xjk > x[i]
            or xij + xjk - xik > x[j]
            or xik + xjk - xij > x[k]
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def build_pool(workload: Workload, api, seed: int) -> list[Item]:
    """The workload's items for ``seed``, with oracle answers attached."""
    rng = random.Random(f"{workload.name}:{seed}")
    groups = []
    for kind, size, count in workload.mix:
        groups.append([_MAKERS[kind](api, rng, *size) for _ in range(count)])
    # Interleave the groups so that any stretch of the loop sees the mix.
    total = sum(len(g) for g in groups)
    pool = []
    for step in range(total):
        for g, group in enumerate(groups):
            want = (step + 1) * len(group) // total
            have = step * len(group) // total
            if want > have:
                pool.append(group[have])
    return pool


def _make_satp(api, rng, m, n):
    text = balanced_objective_text(rng, m, n)
    c = api.blockpoint.BlockPoint.from_text(text, expect_tag="objective")
    value, _ = api.recognition.integer_max_oracle(c, m, n)
    return Item("satp", f"satp{m}x{n}", (text,), {"objective": c, "value": value})


def _make_bqp(api, rng, n):
    text = bqp_objective_text(rng, n)
    objective = [Fraction(int(t)) for t in text.split()]
    value, _ = api.recognition.bqp_brute_force_max(objective, n)
    return Item("bqp", f"bqp{n}", (text,), {"n": n, "value": value})


def _make_ecbgc(api, rng, m, n):
    text = subclass_instance_text(rng, m, n)
    inst = api.ecbgc.parse_ecbgc(text)
    colorable = api.ecbgc.brute_force_coloring(inst) is not None
    return Item("ecbgc", f"ecbgc{m}x{n}", (text,), {"colorable": colorable})


def _make_x3sat(api, rng, m, n):
    text = cnf_text(rng, m, n)
    formula = api.reductions.parse_cnf3(text)
    return Item(
        "x3sat", f"x3sat{m}x{n}", (text,),
        {"clauses": n, "satisfiable": api.reductions.x3sat_oracle(formula)},
    )


def _system_text(api, m, n):
    return api.builders.build_satp_lp(m, n).to_text()


def _make_vertex(api, rng, m, n):
    row, col = random_code(rng, m, n)
    point = _block_text("point", code_cells(m, n, row, col))
    return Item("verify", f"vertex{m}x{n}", (_system_text(api, m, n), point), {"vertex": True})


def _make_midpoint(api, rng, m, n):
    u, v = two_codes(rng, m, n)
    a, b = code_cells(m, n, *u), code_cells(m, n, *v)
    half = Fraction(1, 2)
    cells = [
        [[[half * (a[i][j][k][l] + b[i][j][k][l]) for l in range(2)] for k in range(3)]
         for j in range(n)]
        for i in range(m)
    ]
    # A midpoint of two distinct vertices lies inside a segment: never a vertex.
    point = _block_text("point", cells)
    return Item("verify", f"midpoint{m}x{n}", (_system_text(api, m, n), point), {"vertex": False})


def _make_edge(api, rng, m, n):
    u, v = two_codes(rng, m, n)
    codes = [api.vertices.VertexCode(*c) for c in (u, v)]
    texts = (
        _system_text(api, m, n),
        _block_text("point", code_cells(m, n, *u)),
        _block_text("point", code_cells(m, n, *v)),
    )
    return Item("edge", f"edge{m}x{n}", texts, {"adjacent": api.vertices.adjacent(*codes)})


def _make_fractional(api, rng, n):
    return Item("fractional", f"fractional{n}", (str(n),), {"n": n})


#: Vertex counts of the base relaxation on the census grids.
CENSUS_COUNTS = {(1, 1): 6, (1, 3): 54, (3, 1): 24, (1, 4): 162}


def _make_census(api, rng, m, n):
    return Item(
        "census", f"census{m}x{n}", (_system_text(api, m, n),),
        {"m": m, "n": n, "count": CENSUS_COUNTS[m, n]},
    )


_MAKERS: dict[str, Callable] = {
    "satp": _make_satp,
    "bqp": _make_bqp,
    "ecbgc": _make_ecbgc,
    "x3sat": _make_x3sat,
    "verify": _make_vertex,
    "midpoint": _make_midpoint,
    "edge": _make_edge,
    "fractional": _make_fractional,
    "census": _make_census,
}


# ---------------------------------------------------------------------------
# Timed answers
# ---------------------------------------------------------------------------


def answer(api, item: Item):
    """Run the program on one item, from its texts to its answer (timed)."""
    kind = item.kind
    if kind == "satp":
        c = api.blockpoint.BlockPoint.from_text(item.texts[0], expect_tag="objective")
        return api.recognition.recognize_satp(c, c.m, c.n)
    if kind == "bqp":
        objective = [api.rational.parse_rational(t) for t in item.texts[0].split()]
        return api.recognition.recognize_bqp(objective, item.expected["n"])
    if kind == "ecbgc":
        inst = api.ecbgc.parse_ecbgc(item.texts[0])
        cond = api.ecbgc.check_condition(inst)
        return inst, cond, _solve(api, inst)
    if kind == "x3sat":
        formula = api.reductions.parse_cnf3(item.texts[0])
        objectives = (
            api.reductions.objective_max3sat(formula),
            api.reductions.objective_x3sat(formula),
            api.reductions.objective_nae3sat(formula),
        )
        inst = api.ecbgc.reduce_x3sat_to_ecbgc(formula)
        return objectives, inst, _solve(api, inst)
    if kind in ("verify", "edge", "census"):
        system = api.linsys.LinearSystem.from_text(item.texts[0])
        if kind == "census":
            return api.vertices.enumerate_lp_vertices(system)
        points = [
            api.blockpoint.BlockPoint.from_text(t, expect_tag="point") for t in item.texts[1:]
        ]
        if kind == "verify":
            return api.vertices.verify_vertex(points[0], system)
        return api.vertices.is_edge(system, *points)
    if kind == "fractional":
        return api.vertices.fractional_vertex(item.expected["n"])
    raise ValueError(f"unknown item kind {kind!r}")


def _solve(api, inst):
    try:
        return api.ecbgc.solve_ecbgc(inst)
    except api.errors.SubclassError:
        return REFUSED


# ---------------------------------------------------------------------------
# Canonical answers and checks (outside the timed region)
# ---------------------------------------------------------------------------


def canonical(api, item: Item, result) -> str:
    """A text form of the answer; equal answers give equal text."""
    kind = item.kind
    if kind in ("satp", "bqp"):
        return "|".join(
            str(x)
            for x in (
                result.answer, result.lp_value, result.witness,
                result.relaxation_value, result.strengthened_value,
            )
        )
    if kind == "ecbgc":
        inst, cond, coloring = result
        return f"{cond.pairs}|{_coloring_text(coloring)}"
    if kind == "x3sat":
        objectives, inst, coloring = result
        texts = [o.to_text(tag="objective") for o in objectives]
        return "|".join(texts + [api.ecbgc.format_ecbgc(inst), _coloring_text(coloring)])
    if kind in ("verify", "edge"):
        return str(result)
    if kind == "fractional":
        return result.to_text()
    if kind == "census":
        return "\n".join(" ".join(_fmt(x) for x in v) for v in result)
    raise ValueError(f"unknown item kind {kind!r}")


def _coloring_text(coloring) -> str:
    if coloring is None or coloring == REFUSED:
        return str(coloring)
    return f"{coloring.u_colors}/{coloring.v_colors}"


def check(api, item: Item, result) -> str | None:
    """None when the answer agrees with the oracle, else the reason it does not."""
    kind, exp = item.kind, item.expected
    if kind in ("satp", "bqp"):
        value = exp["value"]
        if result.answer != (value == result.relaxation_value):
            return "answer disagrees with the integer optimum"
        if not value <= result.strengthened_value <= result.relaxation_value:
            return "LP optima are not sandwiched around the integer optimum"
        if kind == "satp":
            if result.answer != (result.witness is not None):
                return "witness present exactly on positive answers"
            if result.witness is not None:
                point = api.vertices.code_to_point(result.witness)
                got = api.blockpoint.objective_value(exp["objective"], point)
                if got != result.lp_value:
                    return "witness misses the optimum"
        return None
    if kind == "ecbgc":
        inst, cond, coloring = result
        if not cond.ok or coloring == REFUSED:
            return "subclass instance was refused"
        return _check_coloring(api, inst, coloring, exp["colorable"])
    if kind == "x3sat":
        objectives, inst, coloring = result
        n = exp["clauses"]
        # Distinct variables per clause: 1, 3 and 4 unit cells per literal.
        for objective, per_literal in zip(objectives, (1, 3, 4)):
            if sum(objective.flat()) != 3 * per_literal * n:
                return "objective has the wrong number of unit cells"
        brute = api.ecbgc.brute_force_coloring(inst)
        if (brute is not None) != exp["satisfiable"]:
            return "reduction changed satisfiability"
        if coloring == REFUSED:
            return None if not _in_subclass(inst) else "subclass instance was refused"
        if not _in_subclass(inst):
            return "instance outside the subclass was not refused"
        return _check_coloring(api, inst, coloring, exp["satisfiable"])
    if kind == "verify":
        return None if result == exp["vertex"] else "vertex test disagrees with the construction"
    if kind == "edge":
        return None if result == exp["adjacent"] else "edge test disagrees with adjacency"
    if kind == "fractional":
        n = exp["n"]
        flat = result.flat()
        if min(x for x in flat if x > 0) != Fraction(1, n + 1):
            return "smallest positive coordinate is not 1/(n+1)"
        if any((x * (n + 1)).denominator != 1 for x in flat):
            return "a coordinate is not a multiple of 1/(n+1)"
        if not satp2_violated(flat, n, n):
            return "no strengthening row cuts the fractional vertex"
        return None
    if kind == "census":
        m, n = exp["m"], exp["n"]
        if len(result) != exp["count"]:
            return f"census found {len(result)} vertices, expected {exp['count']}"
        found = {tuple(v) for v in result}
        for row in itertools.product((0, 1), repeat=m):
            for col in itertools.product((0, 1, 2), repeat=n):
                cells = code_cells(m, n, row, col)
                flat = tuple(
                    Fraction(cells[i][j][k][l])
                    for i in range(m) for j in range(n) for k in range(3) for l in range(2)
                )
                if flat not in found:
                    return "census misses an integral vertex"
        return None
    raise ValueError(f"unknown item kind {kind!r}")


def _check_coloring(api, inst, coloring, colorable: bool) -> str | None:
    if coloring is None:
        return None if not colorable else "colorable instance reported uncolorable"
    if not colorable:
        return "uncolorable instance got a coloring"
    if not api.ecbgc.coloring_is_valid(inst, coloring):
        return "returned coloring breaks an edge table"
    return None


def _in_subclass(inst) -> bool:
    tables: dict[int, list] = {}
    for _, j, pc in inst.edges:
        tables.setdefault(j, []).append(tuple(pc[0]) + tuple(pc[1]))
    pairs = list(itertools.permutations((1, 2, 3), 2))
    return all(
        any(all(linked(t, a, b) for t in tables.get(j, [])) for a, b in pairs)
        for j in range(1, inst.v_count + 1)
    )


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recognize",
            (
                ("satp", (3, 3), 20),
                ("satp", (2, 4), 21),
                ("satp", (3, 4), 3),
                ("bqp", (6,), 12),
                ("bqp", (7,), 4),
            ),
        ),
        Workload(
            "coloring",
            (
                ("ecbgc", (1, 1), 9),
                ("ecbgc", (1, 2), 9),
                ("ecbgc", (2, 1), 9),
                ("ecbgc", (1, 3), 9),
                ("ecbgc", (3, 1), 9),
                ("ecbgc", (2, 2), 114),
                ("ecbgc", (2, 3), 59),
                ("ecbgc", (3, 2), 59),
                ("ecbgc", (3, 3), 5),
                ("x3sat", (4, 3), 26),
                ("x3sat", (5, 4), 26),
                ("x3sat", (6, 4), 26),
            ),
        ),
        Workload(
            "vertex",
            (
                ("census", (1, 3), 1),
                ("census", (3, 1), 1),
                ("census", (1, 4), 1),
                ("fractional", (6,), 1),
                ("fractional", (7,), 1),
                ("fractional", (8,), 1),
                ("fractional", (9,), 1),
                ("fractional", (10,), 1),
                ("verify", (3, 3), 4),
                ("midpoint", (3, 3), 4),
                ("edge", (3, 3), 4),
                ("verify", (4, 4), 4),
                ("midpoint", (4, 4), 4),
                ("edge", (4, 4), 8),
                ("verify", (5, 5), 2),
                ("midpoint", (5, 5), 2),
                ("verify", (6, 6), 2),
                ("midpoint", (6, 6), 2),
            ),
        ),
    )
}
