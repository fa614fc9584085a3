import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from satpoly import cli
from satpoly.cli import run
from satpoly.errors import InternalInvariantError
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
    code, out = invoke(
        "vertices", "adjacent", "--m", "2", "--n", "2", "--u", "00:00", "--v", "00:01"
    )
    assert code == 0 and out.strip() == "true"
    code, out = invoke(
        "vertices", "adjacent", "--m", "2", "--n", "2", "--u", "00:00", "--v", "11:00"
    )
    assert code == 1 and out.strip() == "false"


def test_diameter_and_clique():
    code, out = invoke("vertices", "diameter", "--m", "2", "--n", "2")
    assert code == 0 and out.strip() == "2"
    code, out = invoke("vertices", "clique", "--m", "2", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["00:00", "01:01", "10:10", "11:11"]


def test_budget_refusal_exit_code():
    code, _ = invoke("vertices", "enumerate", "--m", "3", "--n", "2", "--budget", "10")
    assert code == 3


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
    "ecbgc-size": (["oracle", "ecbgc", "--instance", "{a}"], ["ecbgc -1 2\n"]),
    "enumerate-size": (["vertices", "enumerate", "--m", "-1", "--n", "2"], []),
    "enumerate-zero": (["vertices", "enumerate", "--m", "0", "--n", "0"], []),
    "clique-size": (["vertices", "clique", "--m", "-1", "--n", "2"], []),
}


@pytest.mark.parametrize("case", MALFORMED_INTEGERS)
def test_malformed_integer_fields_are_input_errors(tmp_path, case):
    args, files = MALFORMED_INTEGERS[case]
    paths = {}
    for key, text in zip("ab", files):
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text(text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "satpoly.cli", *(arg.format(**paths) for arg in args)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
