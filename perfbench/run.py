"""Benchmark entry point.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload search-243 --seed 0 --seconds 25 --trace 0

Each call runs one workload in its own process (``worker.py``), after
``SETUP_SAMPLES`` set-up-only processes (probes) whose median set-up time is
``setup_s``. It prints one line
per metric and, as its last line, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. It exits non-zero
when an operation fails its output check. ``--record`` instead stores the
output hashes of this seed's inputs in ``expected_sha256.json``. The workloads
and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from worker import WORKLOADS  # noqa: E402

EXPECTED = HERE / "expected_sha256.json"
SETUP_SAMPLES = 7
#: all worker processes of one call must end within this many seconds
TIMEOUT_S = 170.0


def environment() -> dict:
    """Interpreter, machine and commit the figures were taken on."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "commit": commit,
    }


def spawn(args: argparse.Namespace, work: Path, deadline: float, *extra: str) -> dict:
    """Run worker.py to completion and return its result.json."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {
        **os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), *extra,
    ]
    if args.smoke:
        command.append("--smoke")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [*command, "--spawned-at", repr(spawned_at)], cwd=ROOT, env=env, stdout=sys.stderr,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"workers did not end within {TIMEOUT_S}s")
    if code != 0:
        raise SystemExit(f"worker exited with code {code}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny ladders, for the benchmark's own tests")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output hashes in expected_sha256.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for needed in (ROOT / "src" / "jahsband", ROOT / "spaces" / "jahs_table3_4.json"):
        if not needed.exists():
            print(f"missing {needed.relative_to(ROOT)}: run from a full checkout",
                  file=sys.stderr)
            return 2

    deadline = time.monotonic() + (3600 if args.record else TIMEOUT_S)
    env = environment()
    base = HERE / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--record"] if args.record else []
    # probe K of the report workload writes history K, which the main process reads
    setups = [spawn(args, base / f"probe{k}", deadline, "--probe", str(k), *extra)["setup_s"]
              for k in range(SETUP_SAMPLES)]
    result = spawn(args, base / "main", deadline, "--sources", str(base), *extra)
    # keep only result.json and spans.jsonl; source histories and outputs are large
    for path in [*base.glob("probe*"), *(d for d in (base / "main").iterdir() if d.is_dir())]:
        shutil.rmtree(path)
    if args.record:
        table = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
        table.setdefault(args.workload, {}).update(result["record"])
        EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    ops = result["untraced"] + result.get("traced", [])
    failed = [r for r in ops if r["problems"]]
    for r in failed:
        print(f"operation {r['j']} failed: {r['problems']}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        measured = result.get("per_layer", {})
    else:
        measured = dict(result.get("end_to_end", {}), setup_s=statistics.median(setups))
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    metrics = {name: measured[name] for name in units if name in measured}
    samples = sum(1 for r in result["untraced"] if not r["problems"])
    print(f"# {args.workload} seed {args.seed}: {samples} timed operations, "
          f"{len(setups)} set-ups, {env['nproc']} cpus, load {env['loadavg_at_start']}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {units[name]}")

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": {**env, **result.get("versions", {})},
        "setup_samples": setups, "wall_s_samples": samples,
        "metrics": metrics, "operations": ops,
    }
    (base / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    correct = not missing and not failed
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
