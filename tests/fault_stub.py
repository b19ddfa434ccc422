"""Evaluator stub that injects faults on a schedule (stdlib only).

Speaks the line protocol of ``jahsband.harness.ExternalEvaluator``. A request
is answered with :func:`objectives` of its configuration, architecture and
budget, unless :func:`fault` picks one of :data:`FAULTS` for it: a hash of
(configuration JSON, architecture, budget) and the schedule's salt gives a
number in [0, 1), and each fault owns a slice of that interval as wide as its
share. The answer depends on nothing else, so an in-process twin that imports
these functions can tell which trials must fail.

Every process the stub starts, itself included, appends a byte to the
heartbeat file when it starts and every 20 ms after, so a test can see that
none of them is left.

Run: ``python3 -S tests/fault_stub.py SCHEDULE_JSON HEARTBEAT_FILE``, where
the schedule is ``{"salt": int, "shares": {fault: share}}``; ``-S`` skips
site-packages, which the stub does not need, so a respawn is quick.
``python3 -S tests/fault_stub.py --beat HEARTBEAT_FILE`` only beats, for 30 s.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import threading
import time

#: every fault but "split" makes the request fail
FAULTS = (
    "exit",  # exit before replying
    "hang",  # no reply before the client's timeout
    "not-json",
    "not-utf8",
    "not-object",
    "wrong-id",
    "failed",  # status "failed"
    "nan",  # a NaN primary cost
    "above-one",  # a primary cost above 1
    "huge-int",  # a primary cost of 400 digits, too large for a float
    "deep",  # a line of 100,000 "[", nested too deeply to decode
    "grandchild",  # hang while a grandchild holds stdout open
    "split",  # a valid reply in two writes 50 ms apart
)
FAILURES = frozenset(FAULTS) - {"split"}
#: a hanging process sleeps this long at most, so a leak ends by itself
HANG_S = 30.0
BEAT_S = 0.02
B_MAX = 9


def _unit(text: str) -> float:
    """Deterministic number in [0, 1) from a string."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _key(config: dict, architecture: str | None) -> str:
    return json.dumps({"architecture": architecture, "config": config}, sort_keys=True)


def fault(config: dict, architecture: str | None, budget: int, schedule: dict) -> str | None:
    """The fault scheduled for this request, or None for a plain reply."""
    u = _unit(f"{schedule['salt']}|{_key(config, architecture)}|{budget}")
    edge = 0.0
    for name in FAULTS:
        edge += schedule["shares"].get(name, 0.0)
        if u < edge:
            return name
    return None


def objectives(config: dict, architecture: str | None, budget: int) -> tuple[float, float]:
    """(primary, runtime_hours): a per-configuration quality scaled by a
    learning curve that saturates at B_MAX, and a runtime linear in the budget."""
    key = _key(config, architecture)
    quality = 0.2 + 0.75 * _unit(f"quality|{key}")
    curve = (1.0 - math.exp(-3.0 * budget / B_MAX)) / (1.0 - math.exp(-3.0))
    return 1.0 - quality * curve, budget * 0.01 * (1.0 + _unit(f"size|{key}"))


def beat(heartbeat, seconds: float = math.inf) -> None:
    """Append a byte to the open heartbeat file every BEAT_S for ``seconds``."""
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        heartbeat.write(b".")
        time.sleep(BEAT_S)


def reply(request: dict, name: str | None) -> bytes:
    """The bytes the stub writes for a request given its fault."""
    if name == "not-json":
        return b"epoch 1 done\n"
    if name == "not-utf8":
        return b"\xff\xfe\n"
    if name == "not-object":
        return b"[]\n"
    if name == "deep":
        return b"[" * 100_000 + b"\n"
    if name == "failed":
        answer = {"id": request["id"], "status": "failed", "error": "scheduled"}
        return json.dumps(answer).encode() + b"\n"
    primary, runtime = objectives(request["config"], request["architecture"], request["budget"])
    answer = {"id": "bogus" if name == "wrong-id" else request["id"], "status": "ok"}
    if name == "nan":
        primary = math.nan
    elif name == "above-one":
        primary = 1.5
    elif name == "huge-int":
        primary = 10**400
    answer["objectives"] = {"primary": primary, "runtime_hours": runtime}
    return json.dumps(answer).encode() + b"\n"


def main(argv: list[str]) -> None:
    heartbeat = open(argv[1], "ab", buffering=0)
    heartbeat.write(b".")  # before any fault can end the process
    if argv[0] == "--beat":
        beat(heartbeat, HANG_S)
        return
    schedule = json.loads(argv[0])
    threading.Thread(target=beat, args=(heartbeat,), daemon=True).start()
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        request = json.loads(line)
        name = fault(request["config"], request["architecture"], request["budget"], schedule)
        if name == "exit":
            sys.exit(3)
        if name == "grandchild":
            # inherits stdout, so the pipe stays open while it lives
            subprocess.Popen([sys.executable, "-S", __file__, "--beat", argv[1]])
        if name in ("hang", "grandchild"):
            time.sleep(HANG_S)
        data = reply(request, name)
        if name == "split":
            out.write(data[:10])
            out.flush()
            time.sleep(0.05)
            data = data[10:]
        out.write(data)
        out.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
