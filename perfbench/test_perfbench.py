"""Tests of the benchmark itself, on a smoke-size pool that touches every item kind.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json

import pytest

import run
import workloads

SMOKE = workloads.Workload(
    "smoke",
    (
        ("satp", (2, 2), 3),
        ("bqp", (4,), 2),
        ("ecbgc", (2, 2), 2),
        ("x3sat", (4, 3), 2),
        ("verify", (2, 2), 1),
        ("midpoint", (2, 2), 1),
        ("edge", (2, 2), 1),
        ("fractional", (4,), 1),
        ("census", (1, 1), 1),
    ),
)

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def smoke_run(capsys, seed=1, trace=0, table=None):
    argv = ["--workload", "smoke", "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, table or {"smoke": SMOKE}) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_benchmark_metric_with_its_unit(capsys, trace, section):
    info, result = smoke_run(capsys, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= info["pool_items"] == 14
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert info["error_rate"] == 0 and info["refused"] > 0


def test_planted_wrong_oracle_value_is_a_failure(capsys, monkeypatch):
    honest = workloads.build_pool

    def planted(workload, api, seed):
        pool = honest(workload, api, seed)
        item = next(i for i in pool if i.kind == "satp")
        item.expected["value"] += 1
        return pool

    monkeypatch.setattr(workloads, "build_pool", planted)
    info, result = smoke_run(capsys)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert info["error_rate"] == result["failed"] / result["attempted"] > 0
    assert info["failures"] == {"wrong": result["failed"]}


def test_seed_changes_the_instances_but_not_the_metrics(capsys):
    info1, result1 = smoke_run(capsys, seed=1)
    info2, result2 = smoke_run(capsys, seed=2)
    assert info1["pool_digest"] != info2["pool_digest"]
    assert result1["metrics"].keys() == result2["metrics"].keys()


def test_missing_sources_exit_nonzero_without_a_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    argv = ["--workload", "smoke", "--seed", "1", "--seconds", "0"]
    assert run.main(argv, {"smoke": SMOKE}) != 0
    assert capsys.readouterr().out == ""
