"""Output checks for the benchmark's timed operations.

Each check reads files a timed operation wrote and recomputes what it can
without calling ``jahsband``: the bracket schedule, the Pareto front, the
incumbent trajectory and, for the stub trainer, every reply. A check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import stub_trainer


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def plan(b_min: int, b_max: int, eta: int) -> tuple[int, list[tuple[int, list[int]]]]:
    """(s_max, [(s, rung counts)]) of the standard Hyperband plan."""
    s_max = 0
    while b_min * eta ** (s_max + 1) <= b_max:
        s_max += 1
    brackets = []
    for s in range(s_max, -1, -1):
        counts = [math.ceil((s_max + 1) / (s + 1) * eta**s)]
        for _ in range(s):
            counts.append(max(1, counts[-1] // eta))
        brackets.append((s, counts))
    return s_max, brackets


def check_schedule(rows: list[dict[str, str]], ladder: tuple[int, int, int]) -> list[str]:
    """Trials per (bracket, rung) follow the plan; a rung shrinks below the
    plan only when fewer trials than planned came back ok."""
    b_min, b_max, eta = ladder
    s_max, brackets = plan(b_min, b_max, eta)
    groups: list[tuple[tuple[str, str], list[dict[str, str]]]] = []
    for row in rows:
        key = (row["bracket"], row["rung"])
        if groups and groups[-1][0] == key:
            groups[-1][1].append(row)
        else:
            groups.append((key, [row]))
    expected: list[tuple[tuple[str, str], int]] = [(("-1", str(s_max)), 1)]
    actual = dict(groups)
    for s, counts in brackets:
        n = counts[0]
        for offset in range(len(counts)):
            key = (str(s), str(s_max - s + offset))
            expected.append((key, n))
            ok = sum(r["status"] == "ok" for r in actual.get(key, []))
            if offset + 1 < len(counts):
                n = min(counts[offset + 1], ok)
                if n == 0:
                    break
    got = [(key, len(group)) for key, group in groups]
    if got != expected:
        return [f"schedule mismatch: {got[:6]}... vs {expected[:6]}..."]
    return []


def _best_costs(rows: list[dict[str, str]]) -> list[tuple[int, float, float]]:
    best: dict[int, tuple[int, float, float]] = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        cid, budget = int(row["config_id"]), int(row["budget_epochs"])
        if cid not in best or budget > best[cid][0]:
            best[cid] = (budget, float(row["primary_cost"]), float(row["runtime_hours"]))
    return [(cid, best[cid][1], best[cid][2]) for cid in sorted(best)]


def check_pareto(rows: list[dict[str, str]], pareto_path: Path) -> list[str]:
    """pareto.json lists the non-dominated highest-budget costs in
    config-id order."""
    costs = _best_costs(rows)
    front = [
        (p, r) for _, p, r in costs
        if not any(
            q <= p and s <= r and (q < p or s < r) for _, q, s in costs
        )
    ]
    points = json.loads(pareto_path.read_text(encoding="utf-8"))["points"]
    got = [(pt["primary"], pt["runtime_hours"]) for pt in points]
    return [] if got == front else [f"pareto front differs: {len(got)} vs {len(front)} points"]


def check_trajectory(rows: list[dict[str, str]], path: Path, b_max: int) -> list[str]:
    traj = read_rows(path)
    if len(traj) != len(rows):
        return [f"trajectory has {len(traj)} rows, history {len(rows)}"]
    best = None
    for i, (row, t) in enumerate(zip(rows, traj)):
        if row["status"] == "ok" and int(row["budget_epochs"]) == b_max:
            p = float(row["primary_cost"])
            best = p if best is None else min(best, p)
        want = "" if best is None else best
        got = "" if t["incumbent_primary"] == "" else float(t["incumbent_primary"])
        if (int(t["trial"]), int(t["charged_epochs"]), got) != (
            i, int(row["charged_epochs_cumulative"]), want
        ):
            return [f"trajectory row {i} differs"]
    return []


def check_stub_replies(rows: list[dict[str, str]], b_max: int) -> list[str]:
    """Every trial's status and objectives are what the stub answers."""
    for row in rows:
        config = json.loads(row["serialized_config"])
        arch = row["serialized_architecture"] or None
        budget = int(row["budget_epochs"])
        if stub_trainer.fails(config, arch, budget):
            if row["status"] != "failed" or row["primary_cost"] != "":
                return [f"config {row['config_id']} should have failed"]
            continue
        primary, runtime = stub_trainer.objectives(config, arch, budget, b_max)
        if row["status"] != "ok" or (
            float(row["primary_cost"]), float(row["runtime_hours"])
        ) != (primary, runtime):
            return [f"config {row['config_id']} at {budget}: reply not recorded as sent"]
    return []


def check_run_outputs(
    out: Path, ladder: tuple[int, int, int], stub: bool
) -> tuple[list[str], list[dict[str, str]]]:
    """All checks on the files one ``run`` + ``export_reports`` wrote."""
    rows = read_rows(out / "history.csv")
    problems = check_schedule(rows, ladder)
    problems += check_pareto(rows, out / "pareto.json")
    problems += check_trajectory(rows, out / "incumbent_trajectory.csv", ladder[1])
    if stub:
        problems += check_stub_replies(rows, ladder[1])
    return problems, rows


def check_importance(path: Path, names: list[str]) -> list[str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    if sorted(report) != sorted(names):
        return [f"importance names differ: {sorted(report)}"]
    for name, entry in report.items():
        value = entry["importance"]
        if not (math.isfinite(value) and 0.0 <= value <= 1.0 + 1e-9):
            return [f"importance of {name} out of range: {value}"]
    return []


def check_expected(
    expected: dict[str, str] | None, out: Path, names: list[str]
) -> list[str]:
    """sha256 of each named file equals the recorded value, when one is
    recorded for this seed."""
    if not expected:
        return []
    return [
        f"{name}: sha256 differs from the recorded value"
        for name in names if name in expected and sha256(out / name) != expected[name]
    ]
