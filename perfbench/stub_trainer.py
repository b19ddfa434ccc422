"""Stub external trainer for the ``external-stub-81`` workload (stdlib only).

Speaks the evaluator line protocol of ``jahsband.harness.ExternalEvaluator``:
one JSON request per line on stdin, one JSON reply per line on stdout. Each
request takes a fixed 20 ms. Objectives and the ``failed`` replies
are a function of the request's configuration, architecture and budget only,
so the replies do not depend on request order or on the worker count.

The file named by ``--busy-log`` gets a ``{"ready": true}`` line once the
child is up, and a ``{"busy": [[start, end], ...]}`` line when stdin closes.
Each interval runs from reading a request to flushing its reply.

Run: ``python3 perfbench/stub_trainer.py --busy-log busy.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

#: share of requests answered with ``status: failed`` (1/32)
FAIL_SHARE = 1.0 / 32.0
#: time each request takes
SLEEP_S = 0.020
HOURS_PER_EPOCH = 0.002
CURVATURE = 3.0


def _unit(text: str) -> float:
    """Deterministic number in [0, 1) from a string."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _config_key(config: dict, architecture: str | None) -> str:
    return json.dumps({"architecture": architecture, "config": config}, sort_keys=True)


def fails(config: dict, architecture: str | None, budget: int) -> bool:
    """True when the stub answers this request with ``status: failed``."""
    return _unit(f"fail|{_config_key(config, architecture)}|{budget}") < FAIL_SHARE


def objectives(
    config: dict, architecture: str | None, budget: int, b_max: int
) -> tuple[float, float]:
    """(primary, runtime_hours): a per-configuration quality scaled by a
    saturating learning curve, and a runtime linear in the budget."""
    key = _config_key(config, architecture)
    quality = 0.3 + 0.65 * _unit(f"quality|{key}")
    curve = (1.0 - math.exp(-CURVATURE * budget / b_max)) / (
        1.0 - math.exp(-CURVATURE)
    )
    runtime = budget * HOURS_PER_EPOCH * (1.0 + _unit(f"size|{key}"))
    return 1.0 - quality * curve, runtime


def reply(request: dict, b_max: int) -> dict:
    config, arch, budget = request["config"], request["architecture"], request["budget"]
    if fails(config, arch, budget):
        return {"id": request["id"], "status": "failed", "error": "stub failure"}
    primary, runtime = objectives(config, arch, budget, b_max)
    return {
        "id": request["id"],
        "status": "ok",
        "objectives": {"primary": primary, "runtime_hours": runtime},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--busy-log", required=True)
    parser.add_argument("--b-max", type=int, default=81)
    args = parser.parse_args()
    busy: list[list[float]] = []
    with open(args.busy_log, "w", encoding="utf-8") as log:
        log.write('{"ready": true}\n')
        log.flush()
        for line in sys.stdin:
            start = time.monotonic()
            response = reply(json.loads(line), args.b_max)
            time.sleep(SLEEP_S)
            sys.stdout.write(json.dumps(response) + "\n")
            sys.stdout.flush()
            busy.append([start, time.monotonic()])
        log.write(json.dumps({"busy": busy}) + "\n")


if __name__ == "__main__":
    main()
