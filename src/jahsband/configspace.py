"""Typed hyperparameter search spaces.

A space is an ordered list of parameter specs (float, log-float, integer,
ordinal, categorical), each carrying a default value and a prior confidence.
Sampling supports three strategies: uniform, prior-centered (truncated normal
around the default in normalized space, boosted-default for categoricals),
and local sampling around an arbitrary center. Densities of configurations
under those prior distributions are available for likelihood scoring.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Any, Iterable, Sequence, Union

from ._normal import ndtr, ndtri
from ._pcg64 import PCG64, stream

FLOAT = "float"
LOG_FLOAT = "log_float"
INTEGER = "integer"
ORDINAL = "ordinal"
CATEGORICAL = "categorical"

_NUMERIC_KINDS = (FLOAT, LOG_FLOAT, INTEGER)
_KINDS = (FLOAT, LOG_FLOAT, INTEGER, ORDINAL, CATEGORICAL)

#: normalized-space standard deviation per prior confidence level
CONFIDENCE_SIGMA = {"low": 0.5, "medium": 0.25, "high": 0.125}
#: boosted-default categorical multiplier per confidence level
CONFIDENCE_MULTIPLIER = {"low": 2.0, "medium": 4.0, "high": 8.0}
#: names of the two architecture coordinates a grammar adds
ARCH_STAGES = "arch.n_stages"
ARCH_BLOCKS = "arch.total_blocks"


class SpaceError(ValueError):
    """Base class for search space validation errors."""


class DuplicateNameError(SpaceError):
    """Two parameters share a name."""


class DefaultOutOfDomainError(SpaceError):
    """A default value lies outside its parameter's domain."""


class EmptyDomainError(SpaceError):
    """A space or a value list has no content."""


class UnknownParameterError(SpaceError):
    """A configuration names a parameter the space does not have."""


class OutOfDomainError(SpaceError):
    """A configuration value lies outside its parameter's domain."""


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _truncnorm_bounds(mu: float, sigma: float) -> tuple[float, float]:
    """The normal(mu, sigma) CDF at 0 and at 1."""
    return ndtr((0.0 - mu) / sigma), ndtr((1.0 - mu) / sigma)


def _truncnorm_sample(
    rng: PCG64, mu: float, sigma: float, bounds: tuple[float, float]
) -> float:
    """One draw from a normal(mu, sigma) truncated to [0, 1], by inverse CDF
    between ``bounds``, the pair's :func:`_truncnorm_bounds`, which callers
    keep with their plan: one ``rng.uniform`` between them, the value and
    the stream as between fresh bounds."""
    return mu + sigma * ndtri(rng.uniform(*bounds))


@dataclass(frozen=True)
class ParameterSpec:
    """A single hyperparameter: its kind, domain, default, and prior width.

    Numeric kinds use ``lo``/``hi`` bounds; ordinal and categorical kinds use
    a ``values`` list (ordered for ordinal, unordered for categorical).
    """

    name: str
    kind: str
    lo: float | None = None
    hi: float | None = None
    values: tuple[Any, ...] | None = None
    default: Any = None
    prior_confidence: str = "medium"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise SpaceError(f"parameter name {self.name!r} is not a string")
        if self.kind not in _KINDS:
            raise SpaceError(f"{self.name}: unknown kind {self.kind!r}")
        if self.prior_confidence not in tuple(CONFIDENCE_SIGMA):
            raise SpaceError(
                f"{self.name}: confidence must be one of low/medium/high"
            )
        if self.kind in _NUMERIC_KINDS:
            if self.lo is None or self.hi is None:
                raise SpaceError(f"{self.name}: numeric kinds need lo and hi")
            if not all(isinstance(b, (int, float)) and not isinstance(b, bool)
                       and abs(b) <= sys.float_info.max for b in (self.lo, self.hi)):
                raise SpaceError(f"{self.name}: lo and hi must be finite numbers")
            if self.kind == INTEGER and not all(
                    b == int(b) and -2**63 <= b < 2**63 for b in (self.lo, self.hi)):
                raise SpaceError(f"{self.name}: integer bounds must be whole int64s")
            if not (self.lo < self.hi):
                raise SpaceError(f"{self.name}: requires lo < hi")
            if self.kind == FLOAT and not math.isfinite(self.hi - self.lo):
                raise SpaceError(f"{self.name}: hi - lo must be finite")
            if self.kind == LOG_FLOAT and self.lo <= 0:
                raise SpaceError(f"{self.name}: log scale requires lo > 0")
        else:
            if not self.values:
                raise EmptyDomainError(f"{self.name}: empty value list")
            if len(set(map(repr, self.values))) != len(self.values):
                raise SpaceError(f"{self.name}: duplicate values")
        if self.default is None:
            raise SpaceError(f"{self.name}: default required")
        if not self.contains(self.default):
            raise DefaultOutOfDomainError(
                f"{self.name}: default {self.default!r} outside domain"
            )

    def contains(self, value: Any) -> bool:
        """Whether ``value`` is in the domain. A bool is no number, an integer
        kind takes ints only, and a listed value must match in type too."""
        if self.kind not in _NUMERIC_KINDS:
            return self._index(value) is not None
        return (isinstance(value, int if self.kind == INTEGER else (int, float))
                and not isinstance(value, bool) and self.lo <= value <= self.hi)

    def _index(self, value: Any) -> int | None:
        """Position of the listed value equal to ``value`` in type and value."""
        for i, v in enumerate(self.values):
            if v == value and type(v) is type(value):
                return i
        return None

    @property
    def n_choices(self) -> int:
        """Number of discrete choices (ordinal/categorical only)."""
        assert self.values is not None
        return len(self.values)

    def to_unit(self, value: Any) -> float:
        """Map a domain value to its normalized coordinate; others raise OutOfDomainError.

        Float/integer map affinely onto [0, 1]; log-float maps through log
        first; ordinal maps to index/(K-1). Categorical maps to the raw
        category index (not interpolated).
        """
        if self.kind not in _NUMERIC_KINDS:
            idx = self._index(value)
            if idx is None:
                raise OutOfDomainError(f"{self.name}: {value!r} outside domain")
            if self.kind == ORDINAL:
                return idx / (self.n_choices - 1) if self.n_choices > 1 else 0.0
            return float(idx)
        if not self.contains(value):
            raise OutOfDomainError(f"{self.name}: {value!r} outside domain")
        if self.kind == LOG_FLOAT:
            return (math.log(value) - math.log(self.lo)) / (
                math.log(self.hi) - math.log(self.lo)
            )
        return (float(value) - self.lo) / (self.hi - self.lo)

    def from_unit(self, coord: float) -> Any:
        """Inverse of :meth:`to_unit`; integer-like kinds round to nearest."""
        if self.kind == FLOAT:
            return self.lo + coord * (self.hi - self.lo)
        if self.kind == LOG_FLOAT:
            return math.exp(
                math.log(self.lo)
                + coord * (math.log(self.hi) - math.log(self.lo))
            )
        if self.kind == INTEGER:
            v = _round_half_up(self.lo + coord * (self.hi - self.lo))
            return int(min(max(v, self.lo), self.hi))
        if self.kind == ORDINAL:
            idx = _round_half_up(coord * (self.n_choices - 1))
        else:
            idx = _round_half_up(coord)
        idx = min(max(idx, 0), self.n_choices - 1)
        return self.values[idx]


@dataclass(frozen=True)
class Configuration:
    """One point in a search space: a value per parameter, plus an optional
    architecture derivation when the space carries a grammar.

    What is derived from it (its :func:`normalize` row per space and its
    serialized strings) is computed on first use and kept on the object, so
    its assignments must not change once it has been encoded or serialized.
    """

    assignments: dict[str, Any]
    derivation: tuple | None = None

    def __getitem__(self, name: str) -> Any:
        return self.assignments[name]

    @cached_property
    def serialized_config(self) -> str:
        """The parameter assignments as sorted JSON."""
        return json.dumps(self.assignments, sort_keys=True)

    @cached_property
    def serialized_architecture(self) -> str:
        """The serialized derivation; "" without one."""
        if self.derivation is None:
            return ""
        from . import grammar as hg

        return hg.serialize(self.derivation)

    @cached_property
    def _rows(self) -> dict[SearchSpace, tuple[float, ...]]:
        return {}


class SearchSpace:
    """An ordered, validated collection of parameter specs with an optional
    architecture grammar slot."""

    def __init__(self, specs: Sequence[ParameterSpec], grammar=None) -> None:
        if not specs and grammar is None:
            raise EmptyDomainError("space needs parameters or a grammar")
        names = [s.name for s in specs]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise DuplicateNameError(f"duplicate parameter names: {sorted(dupes)}")
        self.parameters: tuple[ParameterSpec, ...] = tuple(specs)
        self.grammar = grammar
        self._by_name = {s.name: s for s in self.parameters}

    def __len__(self) -> int:
        return len(self.parameters)

    def __iter__(self) -> Iterable[ParameterSpec]:
        return iter(self.parameters)

    def __getitem__(self, name: str) -> ParameterSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownParameterError(f"unknown parameter {name!r}") from None

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.parameters]

    def validate(self, config: Configuration) -> None:
        """Raise if the configuration does not fit this space: a name not the
        space's, a value missing or outside its domain, or a derivation the
        grammar cannot derive. This is :func:`normalize`'s one pass, so the
        row it encodes is kept on the configuration."""
        _row(self, config)

    def default_configuration(self) -> Configuration:
        """Every parameter at its default; one object per space, so its
        :func:`normalize` row is encoded once."""
        return self._default

    @cached_property
    def _default(self) -> Configuration:
        derivation = None
        if self.grammar is not None:
            from . import grammar as hg

            derivation = hg.default_derivation(self.grammar)
        return Configuration(
            {s.name: s.default for s in self.parameters}, derivation
        )


def build_space(specs: Sequence[ParameterSpec], grammar=None) -> SearchSpace:
    """Validate specs and assemble a search space."""
    return SearchSpace(specs, grammar)


def coordinate_names(space: SearchSpace) -> list[str]:
    """Names of the coordinates :func:`normalize` returns, in order."""
    names = list(space.names)
    if space.grammar is not None:
        names += [ARCH_STAGES, ARCH_BLOCKS]
    return names


def normalize(space: SearchSpace, config: Configuration) -> list[float]:
    """The one encoder: a configuration's coordinates, one per parameter in
    order, then ``Grammar.unit_features`` when the space has a grammar.
    Categorical entries hold the raw category index; everything else lies in
    [0, 1]. The configuration is validated and encoded once per space, by
    :func:`_row`; each call returns a fresh list, which the caller may change."""
    return list(_row(space, config))


def _row(space: SearchSpace, config: Configuration) -> tuple[float, ...]:
    """The :func:`normalize` row as the tuple kept on the configuration, and
    the space's one check: of the names, of each value by its
    :meth:`ParameterSpec.to_unit` and of the derivation by its encoder."""
    row = config._rows.get(space)
    if row is None:
        values = config.assignments
        if values.keys() != space._by_name.keys():
            for name in values:
                space[name]  # raises UnknownParameterError for a name it lacks
            missing = next(n for n in space._by_name if n not in values)
            raise UnknownParameterError(f"missing value for {missing}")
        row = [s.to_unit(values[s.name]) for s in space.parameters]
        if space.grammar is not None:
            row += space.grammar.unit_features(config.derivation)
        elif config.derivation is not None:
            raise SpaceError("a derivation needs a space with a grammar")
        row = config._rows[space] = tuple(row)
    return row


# sampling strategies

Strategy = Union[str, tuple]


def choice_cdf(probs: Sequence[float]) -> tuple[float, ...]:
    """The CDF ``Generator.choice(k, p=probs)`` searches, computed with the
    same operations (cumulative sum, then division by its last entry), so
    :func:`draw_index` on it reproduces that ``choice`` bit for bit."""
    cdf = list(accumulate(map(float, probs)))
    return tuple(c / cdf[-1] for c in cdf)


def boosted_cdf(k: int, m: float, favored: int) -> tuple[float, ...]:
    """:func:`choice_cdf` of the boosted-default distribution over ``k``
    choices: weight ``m`` on index ``favored``, 1 on every other."""
    probs = [1.0 / (m + k - 1)] * k
    probs[favored] = m / (m + k - 1)
    return choice_cdf(probs)


def draw_index(rng: PCG64, cdf: Sequence[float]) -> int:
    """One index drawn from ``cdf`` with exactly one ``rng.random()``: the
    index ``rng.choice(len(cdf), p=probs)`` returns, leaving the stream where
    it leaves it. A zero-probability index is never drawn."""
    return bisect_right(cdf, rng.random())


def _sample_param_uniform(rng: PCG64, spec: ParameterSpec) -> Any:
    if spec.kind == FLOAT:
        return rng.uniform(float(spec.lo), float(spec.hi))
    if spec.kind == LOG_FLOAT:
        return math.exp(rng.uniform(math.log(spec.lo), math.log(spec.hi)))
    if spec.kind == INTEGER:
        return int(rng.integers(int(spec.lo), int(spec.hi) + 1))
    return spec.values[int(rng.integers(spec.n_choices))]


def _prior_entry(c: float, n_choices: int | None, confidence: str) -> tuple:
    """The prior of one coordinate around its center ``c``: with
    ``n_choices``, ``(c, None, boosted CDF, log match, log mismatch)`` for a
    categorical choice whose center is index ``c``; without,
    ``(c, sigma, (lo, hi), log normalizer, None)`` for a truncated normal on
    [0, 1], where ``(lo, hi)`` are its CDF bounds and the normalizer is
    ``sigma * sqrt(2 pi) * (hi - lo)``. Parameters and grammar rules both
    take their entries from here."""
    if n_choices is not None:
        m = CONFIDENCE_MULTIPLIER[confidence]
        k = m + n_choices - 1
        cdf = boosted_cdf(n_choices, m, int(c))
        return (c, None, cdf, math.log(m / k), math.log(1 / k))
    sigma = CONFIDENCE_SIGMA[confidence]
    lo, hi = bounds = _truncnorm_bounds(c, sigma)
    norm = math.log(sigma * math.sqrt(2.0 * math.pi) * (hi - lo))
    return (c, sigma, bounds, norm, None)


@lru_cache(maxsize=16)
def _prior(
    space: SearchSpace, center: tuple[float, ...], confidence: str | None
) -> tuple:
    """Per parameter, the :func:`_prior_entry` around the :func:`normalize`
    row ``center``, at ``confidence`` or, when None, the parameter's own.
    Sampling and :func:`log_densities` read this one plan. A run needs the
    prior center and one incumbent per bracket, each at two confidences, so
    few plans are kept."""
    return tuple(
        _prior_entry(c, spec.n_choices if spec.kind == CATEGORICAL else None,
                     confidence or spec.prior_confidence)
        for spec, c in zip(space.parameters, center))


def sample(
    space: SearchSpace,
    strategy: Strategy = "uniform",
    seed: int | PCG64 = 0,
    confidence: str | None = None,
) -> Configuration:
    """Draw one configuration.

    strategy is ``"uniform"``, ``"prior"`` (truncated normal around each
    default, width set by each parameter's own confidence unless
    ``confidence`` overrides it), or ``("around", center)`` for local sampling
    around an arbitrary configuration (confidence defaults to medium).
    Architecture derivations are drawn with the matching grammar mode.

    "prior" is sampling around :meth:`SearchSpace.default_configuration`.
    Both read the :func:`_prior` plan of the center's :func:`normalize` row,
    kept per (space, row, confidence), so a center is validated and encoded
    once. The random calls and float operations stay those of a draw that
    recomputes the plan, so the results are bit-identical.
    """
    rng = stream(seed)
    assignments: dict[str, Any] = {}
    if strategy == "uniform":
        for spec in space.parameters:
            assignments[spec.name] = _sample_param_uniform(rng, spec)
        mode = "uniform"
    else:
        if strategy == "prior":
            center = space.default_configuration()
        elif isinstance(strategy, tuple) and strategy[0] == "around":
            center, confidence = strategy[1], confidence or "medium"
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        plan = _prior(space, _row(space, center), confidence)
        for spec, (c, sigma, draw, _, _) in zip(space.parameters, plan):
            if sigma is None:
                assignments[spec.name] = spec.values[draw_index(rng, draw)]
            else:
                assignments[spec.name] = spec.from_unit(
                    _truncnorm_sample(rng, c, sigma, draw))
        mode = ("prior", center.derivation,
                confidence or getattr(space.grammar, "prior_confidence", None))

    derivation = None
    if space.grammar is not None:
        from . import grammar as hg

        derivation = hg.sample_derivation(space.grammar, mode, rng)
    return Configuration(assignments, derivation)


def log_densities(
    space: SearchSpace,
    rows: Iterable[Sequence[float]],
    center: Sequence[float],
    confidence: str | None = None,
) -> list[float]:
    """Log density of each :func:`normalize` row in ``rows`` under the
    prior-style distribution centered at the row ``center``: a sum over
    parameters of truncated-normal log densities (numeric kinds) and log
    boosted-default category probabilities. With ``confidence=None`` each
    parameter uses its own declared confidence. Architecture coordinates do
    not enter the sum.

    The log normalizers and log probabilities come from the center's
    :func:`_prior` plan, which sampling reads too. Each row adds its terms in
    parameter order with the operations of a row-by-row evaluation, so every
    density is bit-identical to that evaluation's.
    """
    plan = _prior(space, tuple(center), confidence)
    densities = []
    for row in rows:
        total = 0.0
        for x, (c, sigma, _, a, b) in zip(row, plan):
            if sigma is None:
                total += a if x == c else b
            elif 0.0 <= x <= 1.0:
                z = (x - c) / sigma
                total += -0.5 * z * z - a
            else:
                total += -math.inf
        densities.append(total)
    return densities


def prior_pdf(
    space: SearchSpace,
    config: Configuration,
    center: Configuration,
    confidence: str | None = None,
) -> float:
    """``exp`` of the :func:`log_densities` of ``config`` around ``center``;
    it underflows to 0.0 in wide spaces."""
    return math.exp(log_densities(
        space, [normalize(space, config)], _row(space, center), confidence)[0])


# declarative space files

_KIND_ALIASES = {
    "float": FLOAT,
    "log_float": LOG_FLOAT,
    "log-float": LOG_FLOAT,
    "logfloat": LOG_FLOAT,
    "integer": INTEGER,
    "int": INTEGER,
    "ordinal": ORDINAL,
    "categorical": CATEGORICAL,
}


def spec_from_dict(obj: Any) -> ParameterSpec:
    if not isinstance(obj, dict):
        raise SpaceError(f"parameter {obj!r} is not a JSON object")
    kind = _KIND_ALIASES.get(str(obj.get("kind", "")).lower())
    if kind is None:
        raise SpaceError(f"unknown kind in {obj!r}")
    for key in ("name", "default"):
        if key not in obj:
            raise SpaceError(f"parameter {obj!r} has no {key!r}")
    values = obj.get("values")
    if not isinstance(values, (list, tuple, type(None))):
        raise SpaceError(f"{obj['name']}: values must be a list")
    return ParameterSpec(
        name=obj["name"],
        kind=kind,
        lo=obj.get("lo"),
        hi=obj.get("hi"),
        values=tuple(values) if values is not None else None,
        default=obj["default"],
        prior_confidence=obj.get("confidence", "medium"),
    )


def _read_json(path: str | Path, error: type[Exception]) -> Any:
    """``json.load`` of a UTF-8 file. A document nested too deeply for the
    decoder raises ``error``, the reader's own, instead of RecursionError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise error(f"{path}: JSON nested too deeply") from None


def load_space(source: str | Path | dict) -> SearchSpace:
    """Load a search space from a JSON file or an already-parsed dict.

    Format: ``{"parameters": [{name, kind, lo/hi or values, default,
    confidence}, ...], "grammar": {...}?}``. A bare list is accepted as the
    parameters array.
    """
    if isinstance(source, (str, Path)):
        data = _read_json(source, SpaceError)
    else:
        data = source
    if isinstance(data, list):
        data = {"parameters": data}
    if not isinstance(data, dict) or not isinstance(data.get("parameters", []), list):
        raise SpaceError("a space is a JSON object with a list of parameters")
    specs = [spec_from_dict(o) for o in data.get("parameters", [])]
    grammar = None
    gspec = data.get("grammar")
    if gspec is not None:
        from . import grammar as hg

        grammar = hg.grammar_from_dict(gspec)
    return build_space(specs, grammar)


def space_to_dict(space: SearchSpace) -> dict[str, Any]:
    """Serializable form of a space, inverse of :func:`load_space`."""
    params = []
    for s in space.parameters:
        obj: dict[str, Any] = {"name": s.name, "kind": s.kind}
        if s.kind in _NUMERIC_KINDS:
            obj["lo"] = s.lo
            obj["hi"] = s.hi
        else:
            obj["values"] = list(s.values)
        obj["default"] = s.default
        obj["confidence"] = s.prior_confidence
        params.append(obj)
    out: dict[str, Any] = {"parameters": params}
    if space.grammar is not None:
        from . import grammar as hg

        out["grammar"] = hg.grammar_to_dict(space.grammar)
    return out
