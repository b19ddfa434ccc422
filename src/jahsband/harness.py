"""Evaluation backends.

SyntheticProblem is a deterministic stand-in for segmentation-model
training: quality follows a Gaussian bump around a hidden optimum in
normalized coordinates, scaled by a saturating learning curve in the epoch
budget, and runtime grows linearly in epochs and multiplicatively in the
capacity-like parameters. ReplayProblem answers evaluations from a run's
history, as read back from its ``history.csv``, for exact regression runs.
ExternalEvaluator speaks a line-delimited JSON protocol to a child process
so real trainers can attach. Every backend returns a
:class:`~jahsband.moo.CostVector`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import selectors
import shlex
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any

from ._pcg64 import stream
from .configspace import (
    ARCH_BLOCKS,
    CATEGORICAL,
    Configuration,
    SearchSpace,
    coordinate_names,
    normalize,
)
from .moo import CostVector

if TYPE_CHECKING:
    import numpy as np
    from .priorband import RunHistory


class BudgetOutOfRangeError(ValueError):
    """Budget outside [1, b_max]."""


class ShapeMismatchError(ValueError):
    """Mask grids differ in shape."""


class MissingEntryError(KeyError):
    """Replay history has no trial for a (configuration, budget) key."""


class InvalidProblemError(ValueError):
    """A problem's settings are out of range or cannot be parsed."""


class MalformedRowError(ValueError):
    """A history.csv lacks a column or has a row that cannot be parsed."""


class EvaluationFailed(RuntimeError):
    """Base class for evaluator-side failures; the optimizer records these
    as failed trials and keeps going."""


class EvaluatorTimeout(EvaluationFailed):
    """The external evaluator did not answer in time."""


class ProtocolError(EvaluationFailed):
    """The external evaluator broke the wire protocol."""


class EvaluatorReportedFailure(EvaluationFailed):
    """The external evaluator answered with status "failed"."""


class RecordedFailure(EvaluationFailed):
    """The replayed history recorded this evaluation as failed."""


def dsc(x_mask: np.ndarray, y_mask: np.ndarray) -> float:
    """Dice similarity 2|X n Y| / (|X| + |Y|) of two boolean voxel grids.

    Two empty masks agree perfectly and score 1.0.
    """
    import numpy as np

    x = np.asarray(x_mask, dtype=bool)
    y = np.asarray(y_mask, dtype=bool)
    if x.shape != y.shape:
        raise ShapeMismatchError(f"{x.shape} vs {y.shape}")
    denom = int(x.sum()) + int(y.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((x & y).sum()) / denom


def config_key(config: Configuration) -> str:
    """Canonical string key of a configuration (parameters plus serialized
    architecture); it seeds the synthetic problem's noise, so its bytes are
    part of every noisy run's output."""
    arch = config.serialized_architecture or None
    return json.dumps(
        {"params": config.assignments, "arch": arch}, sort_keys=True
    )


#: parameter names treated as capacity knobs that scale runtime
DEFAULT_SIZE_PARAMETER_NAMES = ("Model Scale", "Base #Features", "Max. #Features")


@dataclass(frozen=True)
class SyntheticProblem:
    """Deterministic multi-fidelity, two-objective benchmark problem.

    quality(config) = exp(-sum_i w_i (u_i - optimum_i)^2); the learning curve
    (1 - exp(-curvature * b / b_max)) / (1 - exp(-curvature)) saturates at the
    top budget, so primary cost at a given budget is
    1 - quality * curve(budget), plus optional budget-scaled Gaussian noise.
    Runtime is budget * hours_per_epoch * prod(1 + u_i) over the size
    parameters.
    """

    space: SearchSpace
    optimum: dict[str, float]
    weights: dict[str, float]
    b_max: int = 1000
    curvature: float = 3.0
    hours_per_epoch: float = 0.002
    size_parameters: tuple[str, ...] = ()
    noise: float = 0.0

    def __post_init__(self) -> None:
        names = set(coordinate_names(self.space))
        for source in (self.optimum, self.weights, self.size_parameters):
            unknown = set(source) - names
            if unknown:
                raise InvalidProblemError(f"unknown coordinate names: {sorted(unknown)}")
        if any(not 0.0 <= v <= 1.0 for v in self.optimum.values()):
            raise InvalidProblemError("optimum must lie inside the unit cube")
        # every check holds for NaN too: a comparison with NaN is False
        if any(not 0 <= w < math.inf for w in self.weights.values()) or not any(
            w > 0 for w in self.weights.values()
        ):
            raise InvalidProblemError("weights must be finite and >= 0 with at least one > 0")
        if not 0 < self.curvature < math.inf:
            raise InvalidProblemError("curvature must be finite and > 0")
        if not 0 < self.hours_per_epoch < math.inf:
            raise InvalidProblemError("hours_per_epoch must be finite and > 0")
        if not 0 <= self.noise < math.inf:
            raise InvalidProblemError("noise must be finite and >= 0")

    @classmethod
    def from_space(
        cls,
        space: SearchSpace,
        optimum: dict[str, float] | str = "random",
        *,
        weights: dict[str, float] | None = None,
        size_parameters: tuple[str, ...] | None = None,
        problem_seed: int = 0,
        **settings: Any,
    ) -> "SyntheticProblem":
        """Assemble a problem with sensible defaults: unit weights, capacity
        knobs as size parameters, and either a randomly placed optimum
        ("random", drawn from problem_seed) or one at the space defaults
        ("default"). The other fields come from ``settings`` as given."""
        names = coordinate_names(space)
        if optimum == "random":
            rng = stream(problem_seed)
            optimum = {n: rng.random() for n in names}
        elif optimum == "default":
            row = normalize(space, space.default_configuration())
            optimum = {n: row[i] / scale for n, (i, scale) in cls._coordinates(space).items()}
        if weights is None:
            weights = {n: 1.0 for n in names}
        if size_parameters is None:
            size_parameters = tuple(
                n for n in DEFAULT_SIZE_PARAMETER_NAMES if n in names
            )
            if space.grammar is not None:
                size_parameters += (ARCH_BLOCKS,)
        return cls(space=space, optimum=dict(optimum), weights=dict(weights),
                   size_parameters=tuple(size_parameters), **settings)

    @staticmethod
    def _coordinates(space: SearchSpace) -> dict[str, tuple[int, int]]:
        """Coordinate name -> (index, scale): u_i is the ``normalize`` row's
        entry at index divided by scale, K - 1 for a categorical with K > 1
        choices so that every u_i lies in [0, 1], and otherwise 1, which
        changes no float."""
        scales = [s.n_choices - 1 if s.kind == CATEGORICAL and s.n_choices > 1 else 1
                  for s in space.parameters] + [1, 1]  # and the architecture's
        return dict(zip(coordinate_names(space), enumerate(scales)))

    @cached_property
    def _terms(self) -> tuple[tuple, tuple]:
        """(index, scale, weight, optimum) per weight, in ``weights`` order,
        and (index, scale) per size parameter, from :meth:`_coordinates`."""
        where = self._coordinates(self.space)
        return (
            tuple((*where[n], w, self.optimum.get(n, 0.0)) for n, w in self.weights.items()),
            tuple(where[n] for n in self.size_parameters),
        )

    def fingerprint(self) -> str:
        """sha256 of :meth:`to_dict`; it seeds the noise streams."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def evaluate(
        self,
        config: Configuration,
        budget: int,
        seed: int = 0,
        previous_budget: int | None = None,
    ) -> CostVector:
        if not 1 <= budget <= self.b_max:
            raise BudgetOutOfRangeError(f"budget {budget} not in [1, {self.b_max}]")
        row = normalize(self.space, config)
        quality_terms, size_terms = self._terms
        # left to right, as builtin sum adds floats before Python 3.12
        exponent = 0.0
        for i, scale, w, opt in quality_terms:
            exponent += w * (row[i] / scale - opt) ** 2
        quality = math.exp(-exponent)
        curve = (1.0 - math.exp(-self.curvature * budget / self.b_max)) / (
            1.0 - math.exp(-self.curvature)
        )
        primary = 1.0 - quality * curve
        if self.noise > 0.0:
            import numpy as np

            entropy = hashlib.sha256(
                f"{self.fingerprint()}|{config_key(config)}|{budget}|{seed}".encode()
            ).digest()
            rng = np.random.default_rng(
                np.frombuffer(entropy[:16], dtype=np.uint64)
            )
            primary += rng.normal(
                0.0, self.noise * math.sqrt(self.b_max / budget)
            )
        runtime = budget * self.hours_per_epoch
        for i, scale in size_terms:
            runtime *= 1.0 + row[i] / scale
        return CostVector(
            primary=float(min(max(primary, 0.0), 1.0)),
            runtime_hours=float(runtime),
        )

    def without_noise(self) -> "SyntheticProblem":
        return replace(self, noise=0.0)

    def to_dict(self) -> dict[str, Any]:
        """Every field but the space, each value of the type it was given."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "space"}

    @classmethod
    def from_dict(cls, space: SearchSpace, obj: dict[str, Any]) -> "SyntheticProblem":
        """The problem of a :meth:`to_dict` record, with an int ``b_max`` and
        float numbers; a missing key or bad value raises :class:`InvalidProblemError`."""
        try:
            return cls(
                space=space,
                optimum=dict(obj["optimum"]),
                weights=dict(obj["weights"]),
                b_max=int(obj["b_max"]),
                curvature=float(obj["curvature"]),
                hours_per_epoch=float(obj["hours_per_epoch"]),
                size_parameters=tuple(obj["size_parameters"]),
                noise=float(obj["noise"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            what = f"no key {exc}" if type(exc) is KeyError else exc
            raise InvalidProblemError(f"problem record: {what}") from None


@dataclass(frozen=True)
class ReplayProblem:
    """Exact lookup of the evaluations recorded in a run's history.

    ``table`` maps (:func:`config_key`, budget) to the recorded cost, or to
    None for a recorded failure, which is raised as :class:`RecordedFailure`
    so the replay fails that trial again.
    """

    space: SearchSpace
    table: dict[tuple[str, int], CostVector | None]

    @classmethod
    def from_history(cls, history: "RunHistory") -> "ReplayProblem":
        """Replay a history, e.g. one read back by
        :func:`~jahsband.priorband.read_history_csv`; the first trial per
        (configuration, budget) wins."""
        table: dict[tuple[str, int], CostVector | None] = {}
        for t in history.trials:
            table.setdefault((config_key(t.configuration), t.budget), t.cost)
        return cls(history.space, table)

    def evaluate(
        self,
        config: Configuration,
        budget: int,
        seed: int = 0,
        previous_budget: int | None = None,
    ) -> CostVector:
        key = (config_key(config), budget)
        if key not in self.table:
            raise MissingEntryError(f"no replay entry for budget {budget}")
        if self.table[key] is None:
            raise RecordedFailure(f"recorded as failed at budget {budget}")
        return self.table[key]


def _stop(proc: subprocess.Popen, grace: float) -> None:
    """End a child: give it ``grace`` seconds to exit on stdin EOF, then kill
    its whole process group, so a trainer started behind a wrapper script
    dies with it and no process is left holding the pipe or a GPU."""
    with contextlib.suppress(OSError):  # a dead child may leave data unflushed
        proc.stdin.close()
    with contextlib.suppress(subprocess.TimeoutExpired):
        proc.wait(timeout=grace)
    with contextlib.suppress(ProcessLookupError):  # the group has exited
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    proc.stdout.close()


class ExternalEvaluator:
    """Client side of the evaluator wire protocol.

    One JSON object per line on the child's stdin/stdout. Request:
    {"id", "config", "architecture", "budget", "previous_budget", "seed"};
    response: {"id", "status": "ok"|"failed", "objectives": {"primary",
    "runtime_hours"}}, a UTF-8 line ending in "\\n" or "\\r\\n".
    previous_budget signals run continuation. The child leads its own session
    (POSIX only). One that exits, closes its output, misses the timeout or
    answers with a line that is not a JSON object carrying the request's id is
    killed with its whole process group; that request fails and the next one
    starts a fresh child from the same argv. :meth:`close` gives the child 5 s
    to exit on stdin EOF, then does the same. A process that calls ``setsid``
    itself is not reached.
    """

    def __init__(
        self,
        command: str | list[str],
        space: SearchSpace,
        b_max: int,
        timeout: float = 60.0,
    ) -> None:
        if not 0 < timeout < math.inf:
            raise InvalidProblemError(f"timeout must be finite and > 0, got {timeout!r}")
        self.space = space
        self.b_max = b_max
        self.timeout = timeout
        try:
            self._argv = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:  # an unbalanced quote
            raise InvalidProblemError(f"evaluator command: {exc}") from None
        self._proc: subprocess.Popen | None = self._spawn()
        self._lock = threading.Lock()
        self._counter = 0

    def _spawn(self) -> subprocess.Popen:
        self._pending = b""  # bytes read past the last newline
        try:
            return subprocess.Popen(
                self._argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                start_new_session=True,
            )
        except OSError as exc:
            raise EvaluationFailed(
                f"cannot spawn evaluator {self._argv[0]!r}: {exc}"
            ) from exc

    def evaluate(
        self,
        config: Configuration,
        budget: int,
        seed: int = 0,
        previous_budget: int | None = None,
    ) -> CostVector:
        with self._lock:
            if self._proc is None:
                self._proc = self._spawn()
            self._counter += 1
            request = {
                "id": f"eval-{self._counter}",
                "config": config.assignments,
                "architecture": config.serialized_architecture or None,
                "budget": budget,
                "previous_budget": previous_budget,
                "seed": seed,
            }
            try:
                response = self._exchange(request)
            except EvaluationFailed:
                # after a late, stray or unreadable reply the child's replies
                # may be out of step with its requests, so it is replaced and
                # a dead or late child costs one trial
                proc, self._proc = self._proc, None
                _stop(proc, 0)
                raise
        if response.get("status") == "failed":
            raise EvaluatorReportedFailure(str(response.get("error", "failed")))
        if response.get("status") != "ok":
            raise ProtocolError(f"unknown status {response.get('status')!r}")
        try:
            objectives = response["objectives"]
            return CostVector(
                float(objectives["primary"]), float(objectives["runtime_hours"])
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"bad objectives in {response!r}") from exc

    def _exchange(self, request: dict) -> dict:
        """Send one request and read its reply line within the timeout;
        raises only :class:`EvaluationFailed` subclasses."""
        try:
            self._proc.stdin.write(json.dumps(request).encode() + b"\n")
            self._proc.stdin.flush()
        except OSError as exc:
            raise ProtocolError(f"evaluator pipe broken: {exc}") from exc
        deadline = time.monotonic() + self.timeout
        fd = self._proc.stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._pending:
                if not selector.select(deadline - time.monotonic()):
                    raise EvaluatorTimeout(f"no response within {self.timeout}s")
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise ProtocolError("evaluator closed its output")
                self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        try:  # not UTF-8, not JSON, or nested too deeply to decode
            response = json.loads(line.decode())
        except (ValueError, RecursionError):
            response = None
        if not isinstance(response, dict):
            raise ProtocolError(f"malformed response: {line!r}")
        if response.get("id") != request["id"]:
            raise ProtocolError(
                f"response id {response.get('id')!r} != request id {request['id']!r}"
            )
        return response

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            _stop(proc, 5)

    def __enter__(self) -> "ExternalEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
