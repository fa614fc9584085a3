import io
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpoly import cli, ecbgc
from satpoly.blockpoint import BlockPoint, objective_value
from satpoly.builders import BUILDERS
from satpoly.cli import run
from satpoly.errors import BalanceError, InternalInvariantError
from satpoly.recognition import RenamingLedger, normalization_ledger, recognize_satp
from satpoly.vertices import VertexCode, code_to_point
from tests.conftest import FORMULA_18, TABLE16_INSTANCE, TABLE9_ROWS


def invoke(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(args))
    return code, buf.getvalue()


def table9_text():
    lines = ["point 6 6"]
    for row in TABLE9_ROWS:
        lines.append(" ".join("0" if v == 0 else f"{v}/7" for v in row))
    return "\n".join(lines) + "\n"


def test_fractional_vertex_output_is_published_matrix():
    code, out = invoke("vertices", "fractional", "--n", "6")
    assert code == 0
    assert out == table9_text()


def test_output_is_deterministic():
    first = invoke("vertices", "fractional", "--n", "6")
    second = invoke("vertices", "fractional", "--n", "6")
    assert first == second


def test_enumerate_single_block():
    code, out = invoke("vertices", "enumerate", "--m", "1", "--n", "1")
    assert code == 0
    assert out.splitlines() == ["0:0", "0:1", "0:2", "1:0", "1:1", "1:2"]


def test_adjacent_exit_codes():
    code, out = invoke("vertices", "adjacent", "--u", "00:00", "--v", "00:01")
    assert code == 0 and out.strip() == "true"
    code, out = invoke("vertices", "adjacent", "--u", "00:00", "--v", "11:00")
    assert code == 1 and out.strip() == "false"


def test_diameter_and_clique():
    code, out = invoke("vertices", "diameter", "--m", "2", "--n", "2")
    assert code == 0 and out.strip() == "2"
    code, out = invoke("vertices", "clique", "--m", "2", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["00:00", "01:01", "10:10", "11:11"]


BUDGET_REFUSALS = {
    "enumerate": ["vertices", "enumerate", "--m", "3", "--n", "2", "--budget", "10"],
    # the 36 x 36 adjacency matrix exceeds 100 cells
    "diameter": ["vertices", "diameter", "--m", "2", "--n", "2", "--budget", "100"],
    "clique": ["vertices", "clique", "--m", "5", "--n", "5", "--budget", "4"],
    # code counts of 1,400 digits and more, refused before they are computed
    "enumerate-wide": ["vertices", "enumerate", "--m", "3000", "--n", "1"],
    "enumerate-huge": ["vertices", "enumerate", "--m", "10000000", "--n", "1"],
    "diameter-huge": ["vertices", "diameter", "--m", "100000000", "--n", "3"],
    "clique-huge": ["vertices", "clique", "--m", "100000000", "--n", "100000000"],
    # two codes, each 10^9 + 1 entries long
    "clique-long": ["vertices", "clique", "--m", "1000000000", "--n", "1"],
    # a negative budget is an integer flag, refused by the budget check
    "enumerate-negative": ["vertices", "enumerate", "--m", "1", "--n", "1", "--budget", "-1"],
    "diameter-negative": ["vertices", "diameter", "--m", "1", "--n", "1", "--budget", "-1"],
}


@pytest.mark.parametrize("case", BUDGET_REFUSALS)
def test_budget_refusal_exit_code(capsys, case):
    assert invoke(*BUDGET_REFUSALS[case]) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("refused: ")
    assert err.count("\n") == 1 and len(err) < 100


# Grids sized by a header or a flag past the 10**6 values a block grid may
# hold, and systems past the 10**6 variables `build` may emit; each would
# take hundreds of MiB before it was refused.
GRID_REFUSALS = {
    "build-satp": (["build", "--polytope", "satp", "--m", "409", "--n", "409"], None),
    "build-met": (["build", "--polytope", "met", "--n", "1414"], None),
    "build-bqp-std": (["build", "--polytope", "bqp-std", "--n", "707"], None),
    # 24 m(m-1) n(n-1) and 18 C(n,3) strengthening coefficients over 10^6
    "build-satp2": (["build", "--polytope", "satp2", "--m", "40", "--n", "40"], None),
    "build-met-rows": (["build", "--polytope", "met", "--n", "300"], None),
    "ecbgc-solve": (["ecbgc", "solve", "--instance"], "ecbgc 200000 1\n"),
    "oracle-ecbgc": (["oracle", "ecbgc", "--instance"], "ecbgc 10000000 1\n"),
    "ecbgc-check": (["ecbgc", "check", "--instance"], "ecbgc 1 10000000\n"),
    "reduce-x3sat": (["reduce", "x3sat", "--cnf"], "p cnf 1000000 1\n1 2 3 0\n"),
    "fractional": (["vertices", "fractional", "--n", "500"], None),
}


@pytest.mark.parametrize("case", GRID_REFUSALS)
def test_grid_refusals_allocate_nothing(tmp_path, capsys, case):
    args, text = GRID_REFUSALS[case]
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        args = [*args, str(path)]
    tracemalloc.start()
    try:
        result = invoke(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert peak < 2**20


def test_build_dispatch(capsys):
    """Each kind of the builder table builds from the flags it takes; an
    unknown kind, a missing flag and a flag the kind does not take exit 2."""
    for args, var_count in [
        (["satp", "--m", "2", "--n", "2"], 24),
        (["met", "--n", "3"], 6),
        (["bqp-std", "--n", "2"], 12),
    ]:
        code, out = invoke("build", "--polytope", *args)
        assert code == 0 and out.startswith(f"vars {var_count}\n")
    for args, message in [
        (["cut", "--n", "3"], "invalid choice: 'cut'"),
        (["satp", "--n", "2"], "error: satp needs positive m and n\n"),
        (["bqp"], "error: bqp needs a positive n\n"),
        (["met", "--m", "2", "--n", "3"], "error: met takes n only, not m\n"),
    ]:
        capsys.readouterr()
        assert invoke("build", "--polytope", *args) == (2, "")
        assert message in capsys.readouterr().err


STRENGTHENING_REFUSALS = {
    # 4,867,200 rows: the objective is read, the rows refused before the base is built
    "satp": (["satp"], BlockPoint.zeros(40, 40).to_text(tag="objective")),
    # 17,820,400 triangle rows over 45,150 variables
    "bqp": (["bqp", "--n", "300"], " ".join(["0"] * 45150) + "\n"),
}


@pytest.mark.parametrize("case", STRENGTHENING_REFUSALS)
def test_recognize_refuses_strengthening_rows_over_budget(tmp_path, capsys, case):
    args, text = STRENGTHENING_REFUSALS[case]
    path = tmp_path / "objective.txt"
    path.write_text(text)
    tracemalloc.start()
    try:
        result = invoke("recognize", *args, "--objective", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert peak < 4 * 2**20


def test_build_and_lp_pipeline(tmp_path):
    code, system_text = invoke("build", "--polytope", "satp", "--m", "1", "--n", "1")
    assert code == 0
    system = tmp_path / "system.txt"
    system.write_text(system_text)
    objective = tmp_path / "objective.txt"
    objective.write_text("1 1 1 1 1 1\n")
    code, out = invoke("lp", "--system", str(system), "--objective", str(objective))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status Optimal"
    assert lines[1] == "value 1"


def test_lp_infeasible_exit_code(tmp_path):
    system = tmp_path / "system.txt"
    system.write_text("vars 1\neq 1 | 1\neq 1 | 2\n")
    objective = tmp_path / "objective.txt"
    objective.write_text("1\n")
    code, out = invoke("lp", "--system", str(system), "--objective", str(objective))
    assert code == 1 and out.strip() == "status Infeasible"


def test_verify_vertex_cli(tmp_path):
    _, system_text = invoke("build", "--polytope", "satp", "--m", "1", "--n", "1")
    system = tmp_path / "system.txt"
    system.write_text(system_text)
    point = tmp_path / "point.txt"
    point.write_text("point 1 1\n1 0\n0 0\n0 0\n")
    code, out = invoke("verify-vertex", "--system", str(system), "--point", str(point))
    assert code == 0 and out.strip() == "true"
    point.write_text("point 1 1\n1/2 1/2\n0 0\n0 0\n")
    code, out = invoke("verify-vertex", "--system", str(system), "--point", str(point))
    assert code == 1 and out.strip() == "false"


def test_enum_lp_vertices_cli(tmp_path):
    _, system_text = invoke("build", "--polytope", "satp", "--m", "1", "--n", "1")
    system = tmp_path / "system.txt"
    system.write_text(system_text)
    code, out = invoke("enum-lp-vertices", "--system", str(system))
    assert code == 0
    assert len(out.splitlines()) == 6


def test_reduce_recognize_oracle_pipeline(tmp_path):
    cnf = tmp_path / "formula.cnf"
    cnf.write_text(FORMULA_18)
    code, objective_text = invoke("reduce", "max3sat", "--cnf", str(cnf))
    assert code == 0
    assert objective_text.startswith("objective 4 3\n")
    objective = tmp_path / "objective.txt"
    objective.write_text(objective_text)
    code, out = invoke("oracle", "satp", "--objective", str(objective))
    assert code == 0
    assert "value 3" in out
    # the exactly-one objective is outside the balanced class: refused
    code, x3_text = invoke("reduce", "x3sat", "--cnf", str(cnf))
    assert code == 0
    objective.write_text(x3_text)
    code, _ = invoke("recognize", "satp", "--objective", str(objective))
    assert code == 3


def test_reduce_reads_hash_comments_in_cnf(tmp_path):
    cnf = tmp_path / "formula.cnf"
    cnf.write_text("c DIMACS comment\np cnf 3 1\n1 2 3 0 # first clause\n")
    code, out = invoke("reduce", "max3sat", "--cnf", str(cnf))
    assert code == 0
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    assert invoke("reduce", "max3sat", "--cnf", str(cnf)) == (0, out)


def test_recognize_zero_objective(tmp_path):
    objective = tmp_path / "objective.txt"
    objective.write_text("objective 2 2\n" + "\n".join(["0 0 0 0"] * 6) + "\n")
    code, out = invoke("recognize", "satp", "--objective", str(objective))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "answer true"
    assert lines[1] == "value 0"
    assert any(line.startswith("witness ") for line in lines)


def test_recognize_bqp_cli(tmp_path):
    objective = tmp_path / "objective.txt"
    objective.write_text("1 1 1 -2 -2 -2\n")
    code, out = invoke("recognize", "bqp", "--objective", str(objective), "--n", "3")
    assert code == 1
    assert out.splitlines()[0] == "answer false"


def test_ecbgc_cli(tmp_path):
    instance = tmp_path / "instance.txt"
    instance.write_text(TABLE16_INSTANCE)
    code, out = invoke("ecbgc", "check", "--instance", str(instance))
    assert code == 0
    assert out.splitlines() == ["v 1 pair 1 2", "v 2 pair 1 2"]
    code, out = invoke("ecbgc", "solve", "--instance", str(instance))
    assert code in (0, 1)
    cnf = tmp_path / "formula.cnf"
    cnf.write_text(FORMULA_18)
    code, out = invoke("ecbgc", "from-x3sat", "--cnf", str(cnf))
    assert code == 0
    assert out.startswith("ecbgc 4 3\n")
    assert sum(1 for line in out.splitlines() if line.startswith("edge")) == 9
    instance.write_text(out)
    code, _ = invoke("ecbgc", "solve", "--instance", str(instance))
    assert code == 3  # outside the tractable subclass
    code, oracle_out = invoke("oracle", "ecbgc", "--instance", str(instance))
    assert code in (0, 1)


# Each case: CLI arguments, the instance text, the exit code and the output.
ECBGC_OUTCOMES = {
    "oracle-coloring": (
        ["oracle", "ecbgc"],
        "ecbgc 1 2\nedge 1 1 : ---+--\nedge 1 2 : -----+\n",
        0,
        "u 1 2\nv 1 1\nv 2 3\n",
    ),
    "check-violating": (["ecbgc", "check"], "ecbgc 1 1\nedge 1 1 : ++--++\n", 1, "violating 1\n"),
    "solve-no-coloring": (["ecbgc", "solve"], "ecbgc 1 1\nedge 1 1 : ------\n", 1, "no coloring\n"),
}


@pytest.mark.parametrize("case", ECBGC_OUTCOMES)
def test_ecbgc_outcomes(tmp_path, case):
    args, text, code, out = ECBGC_OUTCOMES[case]
    instance = tmp_path / "instance.txt"
    instance.write_text(text)
    assert invoke(*args, "--instance", str(instance)) == (code, out)


def test_input_from_stdin(tmp_path, monkeypatch):
    instance = tmp_path / "instance.txt"
    instance.write_text(TABLE16_INSTANCE)
    from_file = invoke("ecbgc", "check", "--instance", str(instance))
    monkeypatch.setattr(sys, "stdin", io.StringIO(TABLE16_INSTANCE))
    assert invoke("ecbgc", "check", "--instance", "-") == from_file == (
        0,
        "v 1 pair 1 2\nv 2 pair 1 2\n",
    )


def test_recognize_agrees_with_oracle_via_cli(tmp_path):
    # the balanced coloring objective: recognition and the brute-force
    # oracle must report the same optimum
    from tests.conftest import TABLE16_OBJECTIVE_ROWS, grid_point

    objective = tmp_path / "objective.txt"
    objective.write_text(grid_point(TABLE16_OBJECTIVE_ROWS).to_text(tag="objective"))
    rcode, rec_out = invoke("recognize", "satp", "--objective", str(objective))
    ocode, oracle_out = invoke("oracle", "satp", "--objective", str(objective))
    assert ocode == 0
    oracle_value = oracle_out.splitlines()[0].split()[1]
    rec_lines = rec_out.splitlines()
    assert rec_lines[0] in ("answer true", "answer false")
    if rcode == 0:
        assert rec_lines[1] == f"value {oracle_value}"
    else:
        assert rec_lines[1] != f"value {oracle_value}"


def test_input_error_exit_code(tmp_path):
    code, _ = invoke("build", "--polytope", "satp")
    assert code == 2
    missing = tmp_path / "missing.txt"
    code, _ = invoke("lp", "--system", str(missing), "--objective", str(missing))
    assert code == 2
    code, _ = invoke("vertices", "adjacent", "--u", "0:0", "--v", "0:0")
    assert code == 2  # equal codes are invalid input
    code, _ = invoke("nonsense")
    assert code == 2


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(args):
        raise InternalInvariantError("planted invariant failure")

    monkeypatch.setattr(cli, "_cmd_build", broken)
    assert run(["build", "--polytope", "satp", "--m", "1", "--n", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: planted invariant failure\n"


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise ValueError("planted bug")

    monkeypatch.setattr(cli, "_cmd_build", broken)
    assert run(["build", "--polytope", "satp", "--m", "1", "--n", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: planted bug\n"


def test_a_witness_off_the_optimum_is_a_bug(monkeypatch, tmp_path, capsys):
    # the witness's value is the only check of a positive answer, so a
    # ledger that decodes to a vertex off the optimum is a bug (exit 4),
    # never a negative answer (exit 1)
    inst = ecbgc.parse_ecbgc(TABLE16_INSTANCE)
    c = ecbgc.objective_from_instance(inst, ecbgc.check_condition(inst).pairs)
    right = RenamingLedger.allones_preimage

    def flipped(code):
        return VertexCode(tuple(1 - r for r in code.row), code.col)

    outcome = recognize_satp(c, 2, 2)
    assert objective_value(c, code_to_point(flipped(outcome.witness))) != outcome.lp_value
    monkeypatch.setattr(RenamingLedger, "allones_preimage", lambda led: flipped(right(led)))
    with pytest.raises(InternalInvariantError):
        recognize_satp(c, 2, 2)
    path = tmp_path / "inst.txt"
    path.write_text(TABLE16_INSTANCE)
    assert run(["ecbgc", "solve", "--instance", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: extracted witness misses the optimum\n"


def test_an_unbalanced_subclass_objective_is_a_bug(monkeypatch, tmp_path, capsys):
    # a subclass instance's objective is balanced by construction, so a
    # BalanceError from its recognition is a bug (exit 4), not a refusal (3)
    c = BlockPoint.zeros(2, 2)
    c[0, 0, 0, 0], c[0, 0, 1, 0] = Fraction(1), Fraction(2)
    with pytest.raises(BalanceError):
        normalization_ledger(c)
    monkeypatch.setattr(ecbgc, "objective_from_instance", lambda inst, pairs: c)
    with pytest.raises(InternalInvariantError):
        ecbgc.solve_ecbgc(ecbgc.parse_ecbgc(TABLE16_INSTANCE))
    path = tmp_path / "inst.txt"
    path.write_text(TABLE16_INSTANCE)
    assert run(["ecbgc", "solve", "--instance", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: zero balancing failed: ")


def test_abbreviated_flags_are_refused(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("ecbgc 1 1\nedge 1 1 : ++++++\n")
    assert invoke("ecbgc", "check", "--instance", str(path))[0] == 0
    assert invoke("ecbgc", "check", "--inst", str(path))[0] == 2
    assert invoke("build", "--polytope", "satp", "--m", "1", "--n", "1")[0] == 0
    assert invoke("build", "--poly", "satp", "--m", "1", "--n", "1")[0] == 2


def test_an_unknown_flag_is_named_before_a_missing_one(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("ecbgc 1 1\nedge 1 1 : ++++++\n")
    assert invoke("ecbgc", "check", "--inst", str(path))[0] == 2
    assert "unrecognized arguments: --inst" in capsys.readouterr().err
    # "--" still ends the flags
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    assert invoke("reduce", "--cnf", str(cnf), "--", "max3sat")[0] == 0


def test_an_unknown_flag_before_the_subcommand_is_named(capsys):
    for argv in (["--inst", "ecbgc", "check"], ["ecbgc", "--inst", "check"]):
        assert invoke(*argv)[0] == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --inst" in err
        assert "required" not in err
    # a known flag before the subcommand is still read
    assert invoke("--help", "ecbgc")[0] == 0


SYSTEM_1X1 = "vars 6\neq 1 1 1 1 1 1 | 1\n"
VERIFY = ["verify-vertex", "--system", "{a}", "--point", "{b}"]

# Each case: CLI arguments with {a}/{b} standing for the input files, and
# the texts of those files.
MALFORMED_INTEGERS = {
    "vars-missing": (VERIFY, ["vars\n", ""]),
    "vars": (["enum-lp-vertices", "--system", "{a}"], ["vars x\n"]),
    "point": (VERIFY, [SYSTEM_1X1, "point 1 x\n"]),
    "objective": (["recognize", "satp", "--objective", "{a}"], ["objective x 1\n"]),
    "p-cnf": (["reduce", "max3sat", "--cnf", "{a}"], ["p cnf 3 x\n1 2 3 0\n"]),
    "literal": (["reduce", "max3sat", "--cnf", "{a}"], ["p cnf 3 1\n1 x 3 0\n"]),
    "ecbgc": (["ecbgc", "solve", "--instance", "{a}"], ["ecbgc x 2\n"]),
    "edge": (["ecbgc", "check", "--instance", "{a}"], ["ecbgc 1 1\nedge 1 y : ++++++\n"]),
    "nonneg": (
        ["lp", "--system", "{a}", "--objective", "{b}"],
        ["vars 2\nnonneg 1 x\nle 1 1 | 1\n", "1 1\n"],
    ),
    "vars-twice": (
        ["lp", "--system", "{a}", "--objective", "{b}"],
        ["vars 2\neq 1 1 | 1\nvars 3\n", "1 1 1\n"],
    ),
    "nonneg-twice": (
        ["lp", "--system", "{a}", "--objective", "{b}"],
        ["vars 2\nnonneg 0 0\nnonneg 1 1\nle 1 1 | 1\n", "1 1\n"],
    ),
    "nonneg-bare": (
        ["lp", "--system", "{a}", "--objective", "{b}"],
        ["vars 2\nnonneg\nle 1 1 | 1\n", "1 1\n"],
    ),
    "p-cnf-twice": (["reduce", "max3sat", "--cnf", "{a}"], ["p cnf 3 1\n1 2 3 0\np cnf 5 1\n"]),
    "ecbgc-twice": (
        ["ecbgc", "solve", "--instance", "{a}"],
        ["ecbgc 1 1\nedge 1 1 : ++++++\necbgc 2 2\n"],
    ),
    "ecbgc-size": (["oracle", "ecbgc", "--instance", "{a}"], ["ecbgc -1 2\n"]),
    "enumerate-size": (["vertices", "enumerate", "--m", "-1", "--n", "2"], []),
    "enumerate-zero": (["vertices", "enumerate", "--m", "0", "--n", "0"], []),
    "clique-size": (["vertices", "clique", "--m", "-1", "--n", "2"], []),
}


def run_in_a_process(tmp_path, args, files):
    """Run the CLI in its own process on ``files`` (texts or bytes, bound to
    {a} and {b} in ``args``); returns the completed process."""
    paths = {}
    for key, content in zip("ab", files):
        paths[key] = tmp_path / f"{key}.txt"
        if isinstance(content, bytes):
            paths[key].write_bytes(content)
        else:
            paths[key].write_text(content)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "satpoly.cli", *(arg.format(**paths) for arg in args)],
        capture_output=True,
        text=True,
        env=env,
    )


def assert_input_error_in_a_process(tmp_path, args, files):
    """Exit 2 with an ``error:`` line and no traceback; see :func:`run_in_a_process`."""
    proc = run_in_a_process(tmp_path, args, files)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", MALFORMED_INTEGERS)
def test_malformed_integer_fields_are_input_errors(tmp_path, case):
    assert_input_error_in_a_process(tmp_path, *MALFORMED_INTEGERS[case])


LP = ["lp", "--system", "{a}", "--objective", "{b}"]

# Each case: arguments and file texts as in MALFORMED_INTEGERS, and the
# message.  Integers are ASCII -?[0-9]+ and rationals add /[0-9]+: bare int()
# takes every one of these tokens, and a \d pattern the Arabic-Indic digits.
NOT_ASCII_INTEGERS = {
    "vars-underscore": (["enum-lp-vertices", "--system", "{a}"], ["vars 1_0\n"],
                        "not an integer in 'vars' header: '1_0'"),
    "vars-plus": (["enum-lp-vertices", "--system", "{a}"], ["vars +2\n"],
                  "not an integer in 'vars' header: '+2'"),
    "vars-arabic": (["enum-lp-vertices", "--system", "{a}"], ["vars \u0661\n"],
                    "not an integer in 'vars' header: '\u0661'"),
    "ecbgc-underscore": (["ecbgc", "solve", "--instance", "{a}"], ["ecbgc 1_0 +1\n"],
                         "not an integer in header: '1_0'"),
    "ecbgc-arabic": (["ecbgc", "solve", "--instance", "{a}"], ["ecbgc \u0661 1\n"],
                     "not an integer in header: '\u0661'"),
    "edge-plus": (["ecbgc", "check", "--instance", "{a}"], ["ecbgc 1 1\nedge +1 1 : ++++++\n"],
                  "not an integer in edge line: '+1'"),
    "point-header": (VERIFY, [SYSTEM_1X1, "point \u0661 1\n1 0\n0 0\n0 0\n"],
                     "not an integer in block-point header: '\u0661'"),
    "point-cell": (VERIFY, [SYSTEM_1X1, "point 1 1\n\u0661 0\n0 0\n0 0\n"],
                   "not a rational literal: '\u0661'"),
    "system-cell": (VERIFY, ["vars 6\neq 1 1 1 1 1 \u0661 | 1\n", "point 1 1\n1 0\n0 0\n0 0\n"],
                    "not a rational literal: '\u0661'"),
    "objective-fraction": (LP, ["vars 1\nle 1 | 1\n", "\u0661/\u0662\n"],
                           "not a rational literal: '\u0661/\u0662'"),
    "p-cnf": (["reduce", "x3sat", "--cnf", "{a}"], ["p cnf 3 1_0\n"],
              "not an integer in problem line: '1_0'"),
    "literal": (["reduce", "x3sat", "--cnf", "{a}"], ["p cnf 3 1\n+1 2 3 0\n"],
                "not an integer in clause line: '+1'"),
    "vertex-code": (["vertices", "adjacent", "--u", "\u06610:00", "--v", "00:01"], [],
                    "bad vertex code '\u06610:00'"),
}


@pytest.mark.parametrize("case", NOT_ASCII_INTEGERS)
def test_integers_are_ascii_digits(tmp_path, capsys, case):
    args, files, message = NOT_ASCII_INTEGERS[case]
    paths = {}
    for key, content in zip("ab", files):
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text(content, encoding="utf-8")
    assert invoke(*(arg.format(**paths) for arg in args)) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


# Each case: an argv, its integer flag and the flag's value.  Bare int() takes
# every value; the flags take ASCII -?[0-9]+ as the text readers do, so each
# exits 2 with argparse's usage line before any file is read.
NOT_ASCII_FLAGS = {
    "enumerate-arabic": (["vertices", "enumerate", "--m", "\u0661", "--n", "1"], "--m", "\u0661"),
    "enumerate-underscore": (["vertices", "enumerate", "--m", "1", "--n", "1_0"], "--n", "1_0"),
    "fractional-plus": (["vertices", "fractional", "--n", "+5"], "--n", "+5"),
    "diameter-space": (["vertices", "diameter", "--m", " 2", "--n", "2"], "--m", " 2"),
    "clique-budget": (["vertices", "clique", "--m", "1", "--n", "1", "--budget", "+4"],
                      "--budget", "+4"),
    "build-arabic": (["build", "--polytope", "satp", "--m", "1", "--n", "\u0662"],
                     "--n", "\u0662"),
    "bqp-underscore": (["recognize", "bqp", "--objective", "none.txt", "--n", "1_2"],
                       "--n", "1_2"),
    "census-budget": (["enum-lp-vertices", "--system", "none.txt", "--budget", "2_4"],
                      "--budget", "2_4"),
    "oracle-budget": (["oracle", "satp", "--objective", "none.txt", "--budget", "\u0661"],
                      "--budget", "\u0661"),
}


@pytest.mark.parametrize("case", NOT_ASCII_FLAGS)
def test_integer_flags_are_ascii_digits(capsys, case):
    args, flag, value = NOT_ASCII_FLAGS[case]
    assert invoke(*args) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: satpoly ")
    assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


def test_a_vertex_written_in_arabic_indic_digits_is_refused(tmp_path, capsys):
    """The SATP 1x1 system and its vertex, every 1 written as U+0661: exit 2, not true."""
    system, point = tmp_path / "system.txt", tmp_path / "point.txt"
    system.write_text(invoke("build", "--polytope", "satp", "--m", "1", "--n", "1")[1])
    point.write_text("point 1 1\n1 0\n0 0\n0 0\n")
    assert invoke("verify-vertex", "--system", str(system), "--point", str(point)) == (0, "true\n")
    for path in (system, point):
        path.write_text(path.read_text().replace("1", "\u0661"), encoding="utf-8")
    assert invoke("verify-vertex", "--system", str(system), "--point", str(point)) == (2, "")
    assert capsys.readouterr().err.startswith("error: not ")


UNREADABLE_INPUTS = {
    # past the interpreter's digit limit for int() of a string
    "long-literal": (LP, ["vars 1\neq 1 | " + "7" * 5000 + "\n", "1\n"]),
    "long-objective": (LP, ["vars 1\nle 1 | 1\n", "1/" + "3" * 5000 + "\n"]),
    "not-utf8": (LP, [b"vars 2\n\xff\n", "1 1\n"]),
    "not-utf8-cnf": (["reduce", "max3sat", "--cnf", "{a}"], [b"p cnf 3 1\n\xfe 2 3 0\n"]),
}


@pytest.mark.parametrize("case", UNREADABLE_INPUTS)
def test_unreadable_inputs_are_input_errors(tmp_path, case):
    assert_input_error_in_a_process(tmp_path, *UNREADABLE_INPUTS[case])


def parse_long_int(text):
    """An int from its decimal text, read in slices short enough for int()."""
    value = 0
    for k in range(0, len(text), 1000):
        piece = text[k : k + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


SEVENS = "7" * 3000  # each literal parses; the optimum has 6,000 digits


@pytest.mark.parametrize(
    "system, objective, expected",
    [
        (f"vars 1\nle 1 | {SEVENS}\n", SEVENS, (parse_long_int(SEVENS) ** 2, 1)),
        (f"vars 1\nle {SEVENS} | 1\n", "1/" + SEVENS, (1, parse_long_int(SEVENS) ** 2)),
    ],
    ids=["numerator", "denominator"],
)
def test_lp_prints_answers_past_the_int_digit_limit(tmp_path, system, objective, expected):
    proc = run_in_a_process(tmp_path, LP, [system, objective + "\n"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "status Optimal"
    num, _, den = lines[1].removeprefix("value ").partition("/")
    assert (parse_long_int(num), parse_long_int(den or "1")) == expected
    assert len(den or num) == 6000
    assert lines[3] == "tight 0"


# Tokens for fuzzing the system and objective texts of `satpoly lp`.
NUMBERS = st.one_of(
    st.integers(-3, 3).map(str),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).map(str),
)
VALUES = st.one_of(
    NUMBERS,
    st.sampled_from(["00", "-0", "0/5", "1/0", "1.5", "+1", "1_0", "\u0661", "x", ""]),
)
HUGE = (10**7, 10**12)  # `vars` headers over linsys.MAX_TEXT_VARS
TOKENS = st.one_of(
    VALUES,
    st.sampled_from(["vars", "nonneg", "eq", "le", "|", "#", "/", "-", "--1"]),
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), min_size=1, max_size=3),
)


@st.composite
def lp_texts(draw):
    """A system text, an objective text and the drawn ``vars`` header: well
    formed, or with values, lengths, headers and lines out of place or
    replaced by free text, or a header over the reader's limit."""
    n = draw(st.integers(0, 3))
    fuzz = draw(st.booleans())
    values = VALUES if fuzz else NUMBERS
    header = draw(st.sampled_from([n, n, n, -1, "x", "", *HUGE])) if fuzz else n
    lines = [f"vars {header}"]
    if draw(st.booleans()):
        flags = st.sampled_from("0011x" if fuzz else "01")
        size = {} if fuzz else {"min_size": n, "max_size": n}
        lines.append("nonneg " + " ".join(draw(st.lists(flags, **size))))
    dense_row = st.lists(values, min_size=n, max_size=n)
    shaped = st.tuples(st.sampled_from(["eq", "le"]), dense_row, values)
    for kind, coeffs, rhs in draw(st.lists(shaped, max_size=5)):
        lines.append(" ".join([kind, *coeffs, "|", rhs]))
    count = n
    if fuzz:
        for line in draw(st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), line)
        if draw(st.booleans()):
            lines = draw(st.permutations(lines))
        count = draw(st.sampled_from([n, n + 1, max(n - 1, 0)]))
        values = st.one_of(VALUES, TOKENS)
    objective = draw(st.lists(values, min_size=count, max_size=count))
    separator = draw(st.sampled_from([" ", "\n", "  # c\n"]))
    return "\n".join(lines) + "\n", separator.join(objective) + "\n", header


@settings(max_examples=300, deadline=None)
@given(lp_texts())
def test_lp_on_fuzzed_texts_exits_cleanly(drawn):
    """Every text gives an answer (0), a negative one (1) or an input error (2);
    a header over the limit may also be refused (3)."""
    *texts, header = drawn
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("system.txt", "objective.txt")]
        for path, text in zip(paths, texts):
            Path(path).write_text(text, encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["lp", "--system", paths[0], "--objective", paths[1]])
    status = out.getvalue().split("\n", 1)[0]
    assert (code, status) in {
        (0, "status Optimal"),
        (1, "status Infeasible"),
        (1, "status Unbounded"),
        (2, ""),
        *([(3, "")] if header in HUGE else []),
    }
    assert err.getvalue().startswith("error: ") == (code == 2)
    assert err.getvalue().startswith("refused: ") == (code == 3)


# Each leaf command: its required flags and its optional ones, each mapped
# to the kind of value it takes.
GRID_FLAGS = ({"--m": "int", "--n": "int"}, {"--budget": "int"})
LEAVES = {
    ("build",): ({"--polytope": "polytope"}, {"--m": "int", "--n": "int"}),
    ("lp",): ({"--system": "system", "--objective": "flat"}, {}),
    ("vertices", "enumerate"): GRID_FLAGS,
    ("vertices", "diameter"): GRID_FLAGS,
    ("vertices", "clique"): GRID_FLAGS,
    ("vertices", "adjacent"): ({"--u": "code", "--v": "code"}, {}),
    ("vertices", "fractional"): ({"--n": "int"}, {}),
    ("verify-vertex",): ({"--system": "system", "--point": "point"}, {}),
    ("enum-lp-vertices",): ({"--system": "system"}, {"--budget": "int"}),
    ("reduce", "max3sat"): ({"--cnf": "cnf"}, {}),
    ("reduce", "x3sat"): ({"--cnf": "cnf"}, {}),
    ("reduce", "nae3sat"): ({"--cnf": "cnf"}, {}),
    ("recognize", "satp"): ({"--objective": "block"}, {}),
    ("recognize", "bqp"): ({"--objective": "flat", "--n": "int"}, {}),
    ("oracle", "satp"): ({"--objective": "block"}, {"--budget": "int"}),
    ("oracle", "ecbgc"): ({"--instance": "instance"}, {"--budget": "int"}),
    ("ecbgc", "check"): ({"--instance": "instance"}, {}),
    ("ecbgc", "solve"): ({"--instance": "instance"}, {}),
    ("ecbgc", "from-x3sat"): ({"--cnf": "cnf"}, {}),
}
FLAG_KINDS = {
    flag: kind for leaf in LEAVES.values() for part in leaf for flag, kind in part.items()
}
# One small valid input of each kind, and a garbage line: a file flag reads
# the input of its kind or the garbage.
INPUTS = {
    "system": SYSTEM_1X1,
    "point": "point 1 1\n1 0\n0 0\n0 0\n",
    "block": "objective 1 1\n1 0\n0 1\n0 0\n",
    "flat": "1 1 1 -2 -2 -2\n",
    "cnf": "p cnf 3 1\n1 2 3 0\n",
    "instance": TABLE16_INSTANCE,
    "garbage": "edge 1 x : ++\n",
}
ARG_VALUES = {
    "int": st.sampled_from([-1, 0, 1, 2, 3, 10**9]).map(str),
    "polytope": st.sampled_from(tuple(BUILDERS)),
    "code": st.sampled_from(["00:00", "01:10", "0:0", "x"]),
    **{kind: st.sampled_from([f"{{{kind}}}", "{garbage}"]) for kind in INPUTS},
}


@st.composite
def leaf_argvs(draw):
    """A leaf with a subset of its flags, sometimes one flag of another leaf
    added, file values as {kind} placeholders; and whether a required flag
    is missing or a foreign flag present."""
    leaf = draw(st.sampled_from(sorted(LEAVES)))
    required, optional = LEAVES[leaf]
    flags = {**required, **optional}
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    foreign = draw(st.lists(st.sampled_from(sorted(FLAG_KINDS.keys() - flags)), max_size=1))
    argv = list(leaf)
    for flag in chosen + foreign:
        argv += [flag, draw(ARG_VALUES[flags.get(flag, FLAG_KINDS[flag])])]
    return argv, not required.keys() <= set(chosen), bool(foreign)


@settings(max_examples=150, deadline=None)
@given(leaf_argvs())
def test_every_leaf_takes_exactly_its_flags(drawn):
    """Any drawn argv exits 0 to 3 without a traceback; a missing required
    flag or a flag of another leaf exits 2 with argparse's usage line."""
    argv, missing, foreign = drawn
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: os.path.join(tmp, f"{kind}.txt") for kind in INPUTS}
        for kind, text in INPUTS.items():
            Path(paths[kind]).write_text(text, encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = run([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if missing or foreign:
        assert code == 2 and err.getvalue().startswith("usage: satpoly")


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    lines = [line for line in section.splitlines() if line.startswith("satpoly ")]
    assert len(lines) >= 18
    for line in lines:
        # a pipeline line ends in a shell redirection, which is not an argument
        argv = shlex.split(line.split(">")[0], comments=True)[1:]
        with redirect_stderr(io.StringIO()) as err:
            try:
                cli._parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{line!r} does not parse: {err.getvalue()}")
