"""Command-line interface.

Exit codes: 0 success, 1 negative decision (answer false, not colorable,
not a vertex, not adjacent, LP not optimal), 2 input error, 3 budget or
subclass refusal, 4 internal error (a broken invariant or any other
exception: a bug, never an answer).  All rationals print as ``p/q``; identical invocations produce
byte-identical output.

Each command takes exactly the flags it reads, after its action (``satpoly
vertices adjacent --u 00:00 --v 00:01``); a missing or unknown flag exits 2
with argparse's usage line.  Flags are matched whole: an abbreviation
such as ``--inst`` for ``--instance`` exits 2 too, reported as an
unrecognized argument, also before the command (``satpoly --inst ...``).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Optional, Sequence

from satpoly.blockpoint import BlockPoint
from satpoly.builders import BUILDERS
from satpoly.errors import BudgetError, InputError, SatpolyError, SubclassError
from satpoly.linsys import LinearSystem, lp_maximize
from satpoly.rational import content_lines, format_rational, format_vector, parse_token
from satpoly import ecbgc as ecbgc_mod
from satpoly import rational, recognition, reductions, vertices

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _int_flag(text: str) -> int:
    """An integer flag's value: ASCII ``-?[0-9]+``, as the text readers take integers."""
    try:
        return rational.parse_int([text], 0, "flag")
    except InputError:  # an ArgumentTypeError exits 2 with argparse's usage line
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _read_flat_vector(path: str) -> list:
    return [parse_token(t) for line in content_lines(_read(path)) for t in line.split()]


def _cmd_build(args) -> int:
    kind, m, n = args.polytope, args.m, args.n
    if kind in ("satp", "satp2"):
        if m is None or n is None:
            raise InputError(f"{kind} needs positive m and n")
        system = BUILDERS[kind](m, n)
    elif m is not None:
        raise InputError(f"{kind} takes n only, not m")
    elif n is None:
        raise InputError(f"{kind} needs a positive n")
    else:
        system = BUILDERS[kind](n)
    sys.stdout.write(system.to_text())
    return EXIT_OK


def _cmd_lp(args) -> int:
    system = LinearSystem.from_text(_read(args.system))
    objective = _read_flat_vector(args.objective)
    result = lp_maximize(system, objective)
    print(f"status {result.status}")
    if result.status != "Optimal":
        return EXIT_NEGATIVE
    print(f"value {format_rational(result.value)}")
    print("point " + format_vector(result.point))
    print("tight " + " ".join(str(i) for i in sorted(system.tight_set(result.point))))
    return EXIT_OK


def _cmd_vertices(args) -> int:
    action = args.action
    if action == "enumerate":
        for code in vertices.enumerate_integral_vertices(
            args.m, args.n, budget=args.budget
        ):
            print(code)
        return EXIT_OK
    if action == "adjacent":
        u = vertices.VertexCode.parse(args.u)
        v = vertices.VertexCode.parse(args.v)
        ok = vertices.adjacent(u, v)
        print("true" if ok else "false")
        return EXIT_OK if ok else EXIT_NEGATIVE
    if action == "diameter":
        graph = vertices.skeleton(args.m, args.n, budget=args.budget)
        print(graph.diameter())
        return EXIT_OK
    if action == "clique":
        for code in vertices.construct_clique(args.m, args.n, budget=args.budget):
            print(code)
        return EXIT_OK
    # fractional
    point = vertices.fractional_vertex(args.n)
    sys.stdout.write(point.to_text())
    return EXIT_OK


def _cmd_verify_vertex(args) -> int:
    system = LinearSystem.from_text(_read(args.system))
    point = BlockPoint.from_text(_read(args.point), expect_tag="point")
    ok = vertices.verify_vertex(point, system)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_enum_lp_vertices(args) -> int:
    system = LinearSystem.from_text(_read(args.system))
    for vertex in vertices.enumerate_lp_vertices(system, budget=args.budget):
        print(format_vector(vertex))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    formula = reductions.parse_cnf3(_read(args.cnf))
    sys.stdout.write(reductions.OBJECTIVES[args.variant](formula).to_text(tag="objective"))
    return EXIT_OK


def _cmd_recognize(args) -> int:
    if args.kind == "satp":
        c = BlockPoint.from_text(_read(args.objective), expect_tag="objective")
        outcome = recognition.recognize_satp(c, c.m, c.n)
    else:
        objective = _read_flat_vector(args.objective)
        outcome = recognition.recognize_bqp(objective, args.n)
    print(f"answer {'true' if outcome.answer else 'false'}")
    print(f"value {format_rational(outcome.lp_value)}")
    print(
        f"relaxation {format_rational(outcome.relaxation_value)}"
        f" strengthened {format_rational(outcome.strengthened_value)}"
    )
    if outcome.witness is not None:
        print(f"witness {outcome.witness}")
    return EXIT_OK if outcome.answer else EXIT_NEGATIVE


def _cmd_oracle(args) -> int:
    if args.kind == "satp":
        c = BlockPoint.from_text(_read(args.objective), expect_tag="objective")
        value, code = recognition.integer_max_oracle(
            c, c.m, c.n, budget=args.budget
        )
        print(f"value {format_rational(value)}")
        print(f"argmax {code}")
        return EXIT_OK
    inst = ecbgc_mod.parse_ecbgc(_read(args.instance))
    coloring = ecbgc_mod.brute_force_coloring(inst, budget=args.budget)
    if coloring is None:
        print("no coloring")
        return EXIT_NEGATIVE
    _print_coloring(coloring)
    return EXIT_OK


def _print_coloring(coloring: ecbgc_mod.Coloring) -> None:
    for i, color in enumerate(coloring.u_colors, start=1):
        print(f"u {i} {color}")
    for j, color in enumerate(coloring.v_colors, start=1):
        print(f"v {j} {color}")


def _cmd_ecbgc(args) -> int:
    if args.action == "from-x3sat":
        formula = reductions.parse_cnf3(_read(args.cnf))
        sys.stdout.write(ecbgc_mod.format_ecbgc(ecbgc_mod.reduce_x3sat_to_ecbgc(formula)))
        return EXIT_OK
    inst = ecbgc_mod.parse_ecbgc(_read(args.instance))
    if args.action == "check":
        cond = ecbgc_mod.check_condition(inst)
        if cond.ok:
            for j, (a, b) in enumerate(cond.pairs, start=1):
                print(f"v {j} pair {a} {b}")
            return EXIT_OK
        print(f"violating {cond.violating}")
        return EXIT_NEGATIVE
    coloring = ecbgc_mod.solve_ecbgc(inst)
    if coloring is None:
        print("no coloring")
        return EXIT_NEGATIVE
    _print_coloring(coloring)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated flags; the subparsers it makes are of this class too.

    Each parser names an unknown ``--flag`` among its own arguments before
    argparse reports a required flag missing: ``--inst`` is unrecognized,
    not ``--instance`` absent.  A leaf's own arguments are all it is handed;
    a parser with subcommands owns the flags before its subcommand.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        own = args
        if self._subparsers is not None:  # no parser with subcommands has a valued flag
            own = itertools.takewhile(lambda a: a.startswith("-"), args)
        flags = self._option_string_actions
        unknown = [
            a for a in own if a.startswith("--") and a != "--" and a.split("=", 1)[0] not in flags
        ]
        if unknown:
            self.error("unrecognized arguments: " + " ".join(unknown))
        return super().parse_known_args(args, namespace)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="satpoly",
        description="Exact tools for the 3-SAT relaxation polytope family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a constraint system")
    p.add_argument("--polytope", required=True, choices=BUILDERS)
    p.add_argument("--m", type=_int_flag)
    p.add_argument("--n", type=_int_flag)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("lp", help="maximize an objective over a system")
    p.add_argument("--system", required=True)
    p.add_argument("--objective", required=True, help="flat rational vector file")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("vertices", help="integral-vertex machinery")
    p.set_defaults(func=_cmd_vertices)
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("enumerate", "diameter", "clique"):
        a = actions.add_parser(action)
        a.add_argument("--m", type=_int_flag, required=True)
        a.add_argument("--n", type=_int_flag, required=True)
        a.add_argument("--budget", type=_int_flag, default=vertices.DEFAULT_CODE_BUDGET)
    a = actions.add_parser("adjacent")
    a.add_argument("--u", required=True, help="vertex code ROW:COL, e.g. 01:20")
    a.add_argument("--v", required=True, help="vertex code ROW:COL")
    actions.add_parser("fractional").add_argument("--n", type=_int_flag, required=True)

    p = sub.add_parser("verify-vertex", help="algebraic vertex test")
    p.add_argument("--system", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_verify_vertex)

    p = sub.add_parser("enum-lp-vertices", help="exhaustive vertex enumeration")
    p.add_argument("--system", required=True)
    p.add_argument("--budget", type=_int_flag, default=vertices.DEFAULT_LP_VERTEX_BUDGET)
    p.set_defaults(func=_cmd_enum_lp_vertices)

    p = sub.add_parser("reduce", help="3-CNF to objective vector")
    p.add_argument("variant", choices=reductions.OBJECTIVES)
    p.add_argument("--cnf", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("recognize", help="integer recognition")
    p.set_defaults(func=_cmd_recognize)
    kinds = p.add_subparsers(dest="kind", required=True)
    kinds.add_parser("satp").add_argument("--objective", required=True)
    a = kinds.add_parser("bqp")
    a.add_argument("--objective", required=True, help="flat rational vector file")
    a.add_argument("--n", type=_int_flag, required=True)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    p.set_defaults(func=_cmd_oracle)
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, flag in (("satp", "--objective"), ("ecbgc", "--instance")):
        a = kinds.add_parser(kind)
        a.add_argument(flag, required=True)
        a.add_argument("--budget", type=_int_flag, default=vertices.DEFAULT_CODE_BUDGET)

    p = sub.add_parser("ecbgc", help="edge-constrained bipartite coloring")
    p.set_defaults(func=_cmd_ecbgc)
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("check", "solve"):
        actions.add_parser(action).add_argument("--instance", required=True)
    actions.add_parser("from-x3sat").add_argument("--cnf", required=True)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (BudgetError, SubclassError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SatpolyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug outside the package's own checks
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
