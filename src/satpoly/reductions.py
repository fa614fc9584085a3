"""3-CNF parsing and the objective vectors for three SAT variants.

A clause is an ordered triple of literals; the position of a literal in
its clause (place 1..3) selects the block row that scores it.  Truth
assignments correspond to integral-vertex row codes via ``u_i = 1 - row_i``;
the column code picks which clause position a vertex credits.

Objective conventions per literal ``u_i`` (or its negation) at place ``k``
of clause ``j``, writing into block ``(i, j)``:

* max-sat: one unit at row k, side 1 (side 2 for a negated literal);
* exactly-one: units at (k, 1) and (s, 2) for both other places s
  (mirrored for a negated literal);
* not-all-equal: units at (k, 1), (k', 2), and both sides of row k'',
  where k', k'' are the next places in cyclic order 1 -> 2 -> 3 -> 1
  (mirrored for a negated literal).

Cells are set to one, not accumulated, so clauses repeating a variable
stay within the same convention.  The objectives hold ``int`` entries,
each written at its flat offset ``6(i n + j) + 2k + l``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from satpoly.blockpoint import BlockPoint, ObjectiveVector, _check_shape
from satpoly.errors import InputError
from satpoly.rational import Rational, content_lines, parse_int

Literal = tuple[int, bool]  # (variable index 1..m, negated)


@dataclass(frozen=True)
class Cnf3Formula:
    var_count: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class Assignment:
    values: tuple[bool, ...]


def parse_cnf3(text: str) -> Cnf3Formula:
    """Parse the DIMACS-style subset: ``p cnf m n`` then n 3-literal lines.

    DIMACS ``c`` comment lines are skipped, and ``#`` starts a comment as
    in every other text format.
    """
    header = None
    clauses: list[tuple[Literal, Literal, Literal]] = []
    for line in content_lines(text):
        if line.startswith("c"):
            continue
        if line.startswith("p"):
            tokens = line.split()
            if header is not None or len(tokens) != 4 or tokens[:2] != ["p", "cnf"]:
                raise InputError(f"bad or repeated problem line: {line!r}")
            header = tuple(parse_int(tokens, k, "problem line") for k in (2, 3))
            continue
        if header is None:
            raise InputError("clause line before the problem line")
        tokens = line.split()
        if tokens[-1] != "0":
            raise InputError(f"clause line not terminated by 0: {line!r}")
        lits = [parse_int(tokens, k, "clause line") for k in range(len(tokens) - 1)]
        if len(lits) != 3 or any(l == 0 for l in lits):
            raise InputError(f"clause must have exactly 3 nonzero literals: {line!r}")
        triple = tuple((abs(l), l < 0) for l in lits)
        for var, _ in triple:
            if var > header[0]:
                raise InputError(f"variable {var} out of range (m={header[0]})")
        clauses.append(triple)  # type: ignore[arg-type]
    if header is None:
        raise InputError("missing problem line")
    if len(clauses) != header[1]:
        raise InputError(
            f"expected {header[1]} clauses, found {len(clauses)}"
        )
    return Cnf3Formula(header[0], tuple(clauses))


def objective_max3sat(formula: Cnf3Formula) -> ObjectiveVector:
    """One unit per literal: row = place, side = polarity."""
    m, n = formula.var_count, formula.clause_count
    _check_shape(m, n)
    v = [0] * (6 * m * n)
    for j, clause in enumerate(formula.clauses):
        for k, (var, neg) in enumerate(clause):
            v[6 * ((var - 1) * n + j) + 2 * k + neg] = 1
    return BlockPoint(m, n, v)


def objective_x3sat(formula: Cnf3Formula) -> ObjectiveVector:
    """Exactly-one scoring: credit place k on one side, both others mirrored."""
    m, n = formula.var_count, formula.clause_count
    _check_shape(m, n)
    w = [0] * (6 * m * n)
    for j, clause in enumerate(formula.clauses):
        for k, (var, neg) in enumerate(clause):
            b = 6 * ((var - 1) * n + j)
            w[b + 2 * k + neg] = 1
            for s in range(3):
                if s != k:
                    w[b + 2 * s + 1 - neg] = 1
    return BlockPoint(m, n, w)


def objective_nae3sat(formula: Cnf3Formula) -> ObjectiveVector:
    """Not-all-equal scoring over the cyclic place order 1 -> 2 -> 3 -> 1."""
    m, n = formula.var_count, formula.clause_count
    _check_shape(m, n)
    y = [0] * (6 * m * n)
    for j, clause in enumerate(formula.clauses):
        for k, (var, neg) in enumerate(clause):
            b = 6 * ((var - 1) * n + j)
            k1 = (k + 1) % 3
            k2 = (k + 2) % 3
            y[b + 2 * k + neg] = 1
            y[b + 2 * k1 + 1 - neg] = 1
            y[b + 2 * k2] = y[b + 2 * k2 + 1] = 1
    return BlockPoint(m, n, y)


def assignment_from_code(code) -> Assignment:
    """Decode a truth assignment from a vertex code: ``u_i = 1 - row_i``."""
    return Assignment(tuple(r == 0 for r in code.row))


def apply_clause_weights(
    v: ObjectiveVector, weights: list[Rational]
) -> ObjectiveVector:
    """Scale every block column j by ``weights[j]`` (weights nonnegative)."""
    if len(weights) != v.n:
        raise InputError("one weight per clause required")
    ws = [Fraction(w) for w in weights]
    if any(w < 0 for w in ws):
        raise InputError("clause weights must be nonnegative")
    # value o lies in block (i, j) with o // 6 == in + j
    return BlockPoint(v.m, v.n, [val * ws[o // 6 % v.n] for o, val in enumerate(v.values)])


# -- brute-force truth-table oracles (deliberately naive) -------------------


def _clause_truth(clause, values: tuple[bool, ...]) -> list[bool]:
    return [values[var - 1] != neg for var, neg in clause]


def max_sat_oracle(formula: Cnf3Formula) -> int:
    """Largest number of simultaneously satisfiable clauses, by truth table."""
    best = 0
    for bits in range(2**formula.var_count):
        values = tuple(bool(bits >> i & 1) for i in range(formula.var_count))
        sat = sum(
            1 for clause in formula.clauses if any(_clause_truth(clause, values))
        )
        best = max(best, sat)
    return best


def weighted_max_sat_oracle(formula: Cnf3Formula, weights: list[Rational]) -> Rational:
    best = Fraction(0)
    for bits in range(2**formula.var_count):
        values = tuple(bool(bits >> i & 1) for i in range(formula.var_count))
        total = sum(
            (Fraction(w) for clause, w in zip(formula.clauses, weights)
             if any(_clause_truth(clause, values))),
            Fraction(0),
        )
        best = max(best, total)
    return best


def x3sat_oracle(formula: Cnf3Formula) -> bool:
    """True iff some assignment makes exactly one literal true per clause."""
    for bits in range(2**formula.var_count):
        values = tuple(bool(bits >> i & 1) for i in range(formula.var_count))
        if all(
            sum(_clause_truth(clause, values)) == 1 for clause in formula.clauses
        ):
            return True
    return False


def nae3sat_oracle(formula: Cnf3Formula) -> bool:
    """True iff some assignment leaves every clause neither all-true nor all-false."""
    for bits in range(2**formula.var_count):
        values = tuple(bool(bits >> i & 1) for i in range(formula.var_count))
        if all(
            0 < sum(_clause_truth(clause, values)) < 3 for clause in formula.clauses
        ):
            return True
    return False
