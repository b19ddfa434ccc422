"""Tests of the benchmark itself.

Run from the root of the repository: ``python3 -m pytest perfbench -q``.
The smoke tests run every workload at a tiny ladder (``--smoke``) and check
that each metric of ``BENCHMARK.json`` is printed by name with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import stub_trainer  # noqa: E402
from tracing import Tracer, self_times, union_length  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[-1] for line in lines if not line.startswith("#")}
    assert printed == wanted


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work"))
    proc = _bench("--workload", "search-243", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_stub_replies_depend_only_on_the_request() -> None:
    configs = [{"x": i} for i in range(4000)]
    failed = sum(stub_trainer.fails(c, "arch", 3) for c in configs)
    assert 0.02 < failed / len(configs) < 0.045
    a = stub_trainer.reply({"id": "a", "config": {"x": 1}, "architecture": None, "budget": 9}, 81)
    b = stub_trainer.reply({"id": "b", "config": {"x": 1}, "architecture": None, "budget": 9}, 81)
    assert a["objectives"] == b["objectives"]


def test_schedule_check_follows_the_plan() -> None:
    s_max, brackets = checks.plan(1, 9, 3)
    assert s_max == 2
    assert brackets == [(2, [9, 3, 1]), (1, [5, 1]), (0, [3])]
    rows = [{"bracket": "-1", "rung": "2", "status": "ok"}]
    for s, counts in brackets:
        for offset, n in enumerate(counts):
            rows += [{"bracket": str(s), "rung": str(2 - s + offset), "status": "ok"}] * n
    assert checks.check_schedule(rows, (1, 9, 3)) == []
    assert checks.check_schedule(rows[:-1], (1, 9, 3)) != []


def test_pareto_check_catches_a_wrong_front(tmp_path: Path) -> None:
    rows = [
        {"config_id": "1", "budget_epochs": "9", "status": "ok",
         "primary_cost": "0.1", "runtime_hours": "2.0"},
        {"config_id": "2", "budget_epochs": "9", "status": "ok",
         "primary_cost": "0.2", "runtime_hours": "1.0"},
        {"config_id": "3", "budget_epochs": "9", "status": "ok",
         "primary_cost": "0.3", "runtime_hours": "3.0"},
    ]
    path = tmp_path / "pareto.json"
    path.write_text(json.dumps({"points": [
        {"primary": 0.1, "runtime_hours": 2.0}, {"primary": 0.2, "runtime_hours": 1.0},
    ]}))
    assert checks.check_pareto(rows, path) == []
    path.write_text(json.dumps({"points": [{"primary": 0.1, "runtime_hours": 2.0}]}))
    assert checks.check_pareto(rows, path) != []


def test_measure_times_whole_cycles_and_traces_one() -> None:
    import worker

    class Ops:
        inputs = 3

        def op(self, j: int) -> dict:
            time.sleep(0.004)
            return {"j": j, "input": j % self.inputs}

    untraced = worker.Context.measure(Ops(), 0.05)
    assert len(untraced) >= 3 and len(untraced) % 3 == 0
    tracer = Tracer()
    traced = worker.Context.measure(Ops(), 0.05, tracer=tracer)
    assert [r["input"] for r in traced] == [0, 1, 2]
    assert [s[1] for s in tracer.spans] == ["bench.op"] * 3
    assert worker.median_of_inputs(
        [{"input": 0, "wall": 1.0}, {"input": 0, "wall": 3.0}, {"input": 1, "wall": 5.0}],
        lambda r: r["wall"],
    ) == 3.5


def test_self_time_subtracts_the_union_of_children() -> None:
    spans = [
        (1, "root", 0.0, 10.0, None, None, None),
        (2, "a", 1.0, 4.0, 1, None, None),
        (3, "b", 3.0, 6.0, 1, None, None),  # overlaps a, as pool threads do
    ]
    assert union_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0
    assert self_times(spans) == {1: 5.0, 2: 3.0, 3: 3.0}


def test_tracer_rebinds_names_imported_by_callers_and_restores_them() -> None:
    from jahsband import moo, priorband

    import worker

    jb = worker.import_jahsband()
    original = moo.non_dominated_sort
    tracer = Tracer()
    tracer.install(jb)
    try:
        assert priorband.non_dominated_sort is moo.non_dominated_sort is not original
        points = [moo.CostVector(p, 1.0 - p) for p in (0.1, 0.5, 0.9, 0.95)]
        moo.select_top_k(points + [moo.CostVector(1.0, 1.0)], 2)
    finally:
        tracer.uninstall()
    assert priorband.non_dominated_sort is moo.non_dominated_sort is original
    names = {s[0]: s[1] for s in tracer.spans}
    parents = {s[1]: names.get(s[4]) for s in tracer.spans}
    assert parents["moo.non_dominated_sort"] == "moo.select_top_k"
    assert parents["moo.crowding_distance"] == "moo.select_top_k"
