"""Evaluation backends.

SyntheticProblem is a deterministic stand-in for segmentation-model
training: quality follows a Gaussian bump around a hidden optimum in
normalized coordinates, scaled by a saturating learning curve in the epoch
budget, and runtime grows linearly in epochs and multiplicatively in the
capacity-like parameters. ReplayProblem looks evaluations up from a recorded
table for exact regression runs. ExternalEvaluator speaks a line-delimited
JSON protocol to a child process so real trainers can attach.
"""

from __future__ import annotations

import hashlib
import json
import math
import shlex
import subprocess
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .configspace import CATEGORICAL, Configuration, SearchSpace
from .grammar import extract_features, serialize


class BudgetOutOfRangeError(ValueError):
    """Budget outside [1, b_max]."""


class ShapeMismatchError(ValueError):
    """Mask grids differ in shape."""


class MissingEntryError(KeyError):
    """Replay table has no row for a (config, budget) key."""


class MalformedRowError(ValueError):
    """Replay table row cannot be parsed."""


class EvaluationFailed(RuntimeError):
    """Base class for evaluator-side failures; the optimizer records these
    as failed trials and keeps going."""


class EvaluatorTimeout(EvaluationFailed):
    """The external evaluator did not answer in time."""


class ProtocolError(EvaluationFailed):
    """The external evaluator broke the wire protocol."""


class EvaluatorReportedFailure(EvaluationFailed):
    """The external evaluator answered with status "failed"."""


@dataclass(frozen=True)
class Objectives:
    """Primary cost in [0, 1] (lower better) and training runtime in hours."""

    primary: float
    runtime_hours: float


def dsc(x_mask: np.ndarray, y_mask: np.ndarray) -> float:
    """Dice similarity 2|X n Y| / (|X| + |Y|) of two boolean voxel grids.

    Two empty masks agree perfectly and score 1.0.
    """
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
    architecture); used by replay tables and noise seeding."""
    arch = serialize(config.derivation) if config.derivation is not None else None
    return json.dumps(
        {"params": config.assignments, "arch": arch}, sort_keys=True
    )


#: parameter names treated as capacity knobs that scale runtime
DEFAULT_SIZE_PARAMETER_NAMES = ("Model Scale", "Base #Features", "Max. #Features")
ARCH_STAGES = "arch.n_stages"
ARCH_BLOCKS = "arch.total_blocks"


def _arch_coords(space: SearchSpace, config: Configuration) -> dict[str, float]:
    """Two pseudo-coordinates in [0, 1] summarizing a derivation: relative
    stage count and relative total block count over the grammar's range."""
    g = space.grammar
    feats = extract_features(config.derivation)
    lo, hi = g.n_stages_min, g.n_stages_max
    stages = (feats.n_stages - lo) / (hi - lo) if hi > lo else 0.0
    min_total, max_total = g.total_blocks_range
    blocks = (feats.total_blocks - min_total) / (max_total - min_total) \
        if max_total > min_total else 0.0
    return {ARCH_STAGES: stages, ARCH_BLOCKS: blocks}


def unit_coordinates(space: SearchSpace, config: Configuration) -> dict[str, float]:
    """Coordinates in the unit cube, one per parameter plus the architecture
    pseudo-parameters when the space carries a grammar. Categorical indices
    are rescaled by 1/(K-1) so every coordinate lies in [0, 1]."""
    coords: dict[str, float] = {}
    for spec in space.parameters:
        u = spec.to_unit(config.assignments[spec.name])
        if spec.kind == CATEGORICAL and spec.n_choices > 1:
            u /= spec.n_choices - 1
        coords[spec.name] = u
    if space.grammar is not None:
        coords.update(_arch_coords(space, config))
    return coords


def coordinate_names(space: SearchSpace) -> list[str]:
    names = list(space.names)
    if space.grammar is not None:
        names += [ARCH_STAGES, ARCH_BLOCKS]
    return names


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
        for source in (self.optimum, self.weights):
            unknown = set(source) - names
            if unknown:
                raise ValueError(f"unknown coordinate names: {sorted(unknown)}")
        if any(not 0.0 <= v <= 1.0 for v in self.optimum.values()):
            raise ValueError("optimum must lie inside the unit cube")
        if any(w < 0 for w in self.weights.values()) or not any(
            w > 0 for w in self.weights.values()
        ):
            raise ValueError("weights must be >= 0 with at least one > 0")
        if self.curvature <= 0:
            raise ValueError("curvature must be positive")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")

    @classmethod
    def from_space(
        cls,
        space: SearchSpace,
        optimum: dict[str, float] | str = "random",
        weights: dict[str, float] | None = None,
        b_max: int = 1000,
        curvature: float = 3.0,
        hours_per_epoch: float = 0.002,
        size_parameters: tuple[str, ...] | None = None,
        noise: float = 0.0,
        problem_seed: int = 0,
    ) -> "SyntheticProblem":
        """Assemble a problem with sensible defaults: unit weights, capacity
        knobs as size parameters, and either a randomly placed optimum
        ("random", drawn from problem_seed) or one at the space defaults
        ("default")."""
        names = coordinate_names(space)
        if optimum == "random":
            rng = np.random.default_rng(problem_seed)
            optimum = {n: float(rng.uniform()) for n in names}
        elif optimum == "default":
            optimum = unit_coordinates(space, space.default_configuration())
        if weights is None:
            weights = {n: 1.0 for n in names}
        if size_parameters is None:
            size_parameters = tuple(
                n for n in DEFAULT_SIZE_PARAMETER_NAMES if n in names
            )
            if space.grammar is not None:
                size_parameters += (ARCH_BLOCKS,)
        return cls(
            space=space,
            optimum=dict(optimum),
            weights=dict(weights),
            b_max=b_max,
            curvature=curvature,
            hours_per_epoch=hours_per_epoch,
            size_parameters=tuple(size_parameters),
            noise=noise,
        )

    def fingerprint(self) -> str:
        payload = json.dumps(
            {
                "optimum": self.optimum,
                "weights": self.weights,
                "b_max": self.b_max,
                "curvature": self.curvature,
                "hours_per_epoch": self.hours_per_epoch,
                "size_parameters": list(self.size_parameters),
                "noise": self.noise,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def evaluate(
        self,
        config: Configuration,
        budget: int,
        seed: int = 0,
        previous_budget: int | None = None,
    ) -> Objectives:
        if not 1 <= budget <= self.b_max:
            raise BudgetOutOfRangeError(f"budget {budget} not in [1, {self.b_max}]")
        coords = unit_coordinates(self.space, config)
        quality = math.exp(
            -sum(
                w * (coords[name] - self.optimum.get(name, 0.0)) ** 2
                for name, w in self.weights.items()
            )
        )
        curve = (1.0 - math.exp(-self.curvature * budget / self.b_max)) / (
            1.0 - math.exp(-self.curvature)
        )
        primary = 1.0 - quality * curve
        if self.noise > 0.0:
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
        for name in self.size_parameters:
            runtime *= 1.0 + coords[name]
        return Objectives(
            primary=float(min(max(primary, 0.0), 1.0)),
            runtime_hours=float(runtime),
        )

    def without_noise(self) -> "SyntheticProblem":
        return replace(self, noise=0.0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "optimum": self.optimum,
            "weights": self.weights,
            "b_max": self.b_max,
            "curvature": self.curvature,
            "hours_per_epoch": self.hours_per_epoch,
            "size_parameters": list(self.size_parameters),
            "noise": self.noise,
        }

    @classmethod
    def from_dict(cls, space: SearchSpace, obj: dict[str, Any]) -> "SyntheticProblem":
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


class ReplayProblem:
    """Exact lookup of previously recorded evaluations."""

    def __init__(
        self,
        space: SearchSpace,
        table: dict[tuple[str, int], Objectives],
        b_max: int,
    ) -> None:
        self.space = space
        self.table = table
        self.b_max = b_max

    def evaluate(
        self,
        config: Configuration,
        budget: int,
        seed: int = 0,
        previous_budget: int | None = None,
    ) -> Objectives:
        key = (config_key(config), budget)
        if key not in self.table:
            raise MissingEntryError(f"no replay entry for budget {budget}")
        return self.table[key]


def replay_load(path: str | Path, space: SearchSpace) -> ReplayProblem:
    """Load a replay table: CSV with header config,budget,primary,runtime_hours."""
    import csv

    table: dict[tuple[str, int], Objectives] = {}
    b_max = 1
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"config", "budget", "primary", "runtime_hours"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise MalformedRowError(f"replay table needs columns {sorted(required)}")
        for i, row in enumerate(reader, start=2):
            try:
                budget = int(row["budget"])
                objectives = Objectives(
                    float(row["primary"]), float(row["runtime_hours"])
                )
                key_str = row["config"]
                json.loads(key_str)  # must be a valid canonical key
            except (TypeError, ValueError, json.JSONDecodeError) as exc:
                raise MalformedRowError(f"line {i}: {exc}") from exc
            table[(key_str, budget)] = objectives
            b_max = max(b_max, budget)
    return ReplayProblem(space, table, b_max)


def replay_save(trials, path: str | Path) -> None:
    """Write completed trials as a replay table (failed trials are skipped)."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "budget", "primary", "runtime_hours"])
        seen = set()
        for trial in trials:
            if trial.status != "ok" or trial.cost is None:
                continue
            key = (config_key(trial.configuration), trial.budget)
            if key in seen:
                continue
            seen.add(key)
            writer.writerow(
                [key[0], key[1], repr(trial.cost.primary),
                 repr(trial.cost.runtime_hours)]
            )


class ExternalEvaluator:
    """Client side of the evaluator wire protocol.

    One JSON object per line on the child's stdin/stdout. Request:
    {"id", "config", "architecture", "budget", "previous_budget", "seed"};
    response: {"id", "status": "ok"|"failed", "objectives": {"primary",
    "runtime_hours"}}. previous_budget signals run continuation.
    """

    def __init__(
        self,
        command: str | list[str],
        space: SearchSpace,
        b_max: int,
        timeout: float = 60.0,
    ) -> None:
        self.space = space
        self.b_max = b_max
        self.timeout = timeout
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise EvaluationFailed(f"cannot spawn evaluator {argv[0]!r}: {exc}") from exc
        self._lock = threading.Lock()
        self._counter = 0

    def evaluate(
        self,
        config: Configuration,
        budget: int,
        seed: int = 0,
        previous_budget: int | None = None,
    ) -> Objectives:
        with self._lock:
            self._counter += 1
            request_id = f"eval-{self._counter}"
            request = {
                "id": request_id,
                "config": config.assignments,
                "architecture": serialize(config.derivation)
                if config.derivation is not None
                else None,
                "budget": budget,
                "previous_budget": previous_budget,
                "seed": seed,
            }
            try:
                self._proc.stdin.write(json.dumps(request) + "\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise ProtocolError(f"evaluator pipe broken: {exc}") from exc
            line = self._read_line()
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed response: {line!r}") from exc
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} != request id {request_id!r}"
            )
        if response.get("status") == "failed":
            raise EvaluatorReportedFailure(str(response.get("error", "failed")))
        if response.get("status") != "ok":
            raise ProtocolError(f"unknown status {response.get('status')!r}")
        try:
            objectives = response["objectives"]
            return Objectives(
                float(objectives["primary"]), float(objectives["runtime_hours"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad objectives in {response!r}") from exc

    def _read_line(self) -> str:
        result: list[str] = []

        def reader() -> None:
            result.append(self._proc.stdout.readline())

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(self.timeout)
        if thread.is_alive():
            raise EvaluatorTimeout(f"no response within {self.timeout}s")
        if not result or not result[0]:
            raise ProtocolError("evaluator closed its output")
        return result[0]

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()

    def __enter__(self) -> "ExternalEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
