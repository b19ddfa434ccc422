"""Frozen reference sampler and synthetic evaluation.

A verbatim copy of ``jahsband.configspace.sample`` and
``jahsband.grammar.sample_derivation`` with their helpers, as they were
before the per-space, per-center and per-grammar draw data was computed once:
every draw maps its center, looks up its categorical CDF and its truncated
normal bounds again, and ``_build`` checks every symbol of every alternative.
:func:`evaluate` is ``jahsband.harness.SyntheticProblem.evaluate`` as it was
then, reading the encoded configuration through a dict by coordinate name.
The tests compare the package's samplers with this module's, value for value
and random stream for random stream, and its evaluation bit for bit, so a
change in any draw or any float shows up.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Any, Callable

import numpy as np
from scipy.special import ndtr, ndtri

from jahsband.configspace import (
    CATEGORICAL,
    CONFIDENCE_MULTIPLIER,
    CONFIDENCE_SIGMA,
    FLOAT,
    INTEGER,
    LOG_FLOAT,
    Configuration,
    ParameterSpec,
    SearchSpace,
    _round_half_up,
    boosted_cdf,
    coordinate_names,
    draw_index,
    normalize,
)
from jahsband.grammar import (
    DROPOUT_OPTIONS,
    Derivation,
    Grammar,
    GrammarError,
    _choice_map,
    validate_derivation,
)
from jahsband.harness import BudgetOutOfRangeError, config_key
from jahsband.moo import CostVector


def _truncnorm_sample(
    rng: np.random.Generator, mu: float, sigma: float
) -> float:
    """One draw from a normal(mu, sigma) truncated to [0, 1], by inverse CDF."""
    a = ndtr((0.0 - mu) / sigma)
    b = ndtr((1.0 - mu) / sigma)
    u = rng.uniform(a, b)
    return float(mu + sigma * ndtri(u))


def _sample_param_uniform(rng: np.random.Generator, spec: ParameterSpec) -> Any:
    if spec.kind == FLOAT:
        return float(rng.uniform(spec.lo, spec.hi))
    if spec.kind == LOG_FLOAT:
        return float(
            math.exp(rng.uniform(math.log(spec.lo), math.log(spec.hi)))
        )
    if spec.kind == INTEGER:
        return int(rng.integers(int(spec.lo), int(spec.hi) + 1))
    return spec.values[int(rng.integers(spec.n_choices))]


def _sample_param_prior(
    rng: np.random.Generator, spec: ParameterSpec, center: Any, confidence: str
) -> Any:
    if spec.kind == CATEGORICAL:
        cdf = boosted_cdf(
            spec.n_choices,
            CONFIDENCE_MULTIPLIER[confidence],
            spec.values.index(center),
        )
        return spec.values[draw_index(rng, cdf)]
    sigma = CONFIDENCE_SIGMA[confidence]
    mu = spec.to_unit(center)
    coord = _truncnorm_sample(rng, mu, sigma)
    return spec.from_unit(coord)


def sample(
    space: SearchSpace,
    strategy="uniform",
    seed: int | np.random.Generator = 0,
    confidence: str | None = None,
) -> Configuration:
    """Draw one configuration."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    assignments: dict[str, Any] = {}

    if strategy == "uniform":
        for spec in space.parameters:
            assignments[spec.name] = _sample_param_uniform(rng, spec)
    elif strategy == "prior":
        for spec in space.parameters:
            conf = confidence or spec.prior_confidence
            assignments[spec.name] = _sample_param_prior(
                rng, spec, spec.default, conf
            )
    elif isinstance(strategy, tuple) and strategy[0] == "around":
        center = strategy[1]
        space.validate(center)
        conf_default = confidence or "medium"
        for spec in space.parameters:
            assignments[spec.name] = _sample_param_prior(
                rng, spec, center.assignments[spec.name], conf_default
            )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    derivation = None
    if space.grammar is not None:
        if strategy == "uniform":
            derivation = sample_derivation(space.grammar, "uniform", rng)
        else:
            if strategy == "prior":
                center_d = default_derivation(space.grammar)
                conf = confidence or getattr(
                    space.grammar, "prior_confidence", "medium"
                )
            else:
                center_d = strategy[1].derivation
                conf = confidence or "medium"
            derivation = sample_derivation(
                space.grammar, ("prior", center_d, conf), rng
            )
    return Configuration(assignments, derivation)


def _build(grammar: Grammar, sym: str, choose: Callable[[str], int]) -> Derivation:
    ai = choose(sym)
    alt = grammar.productions[sym][ai]
    children = tuple(
        _build(grammar, s, choose) if grammar.is_nonterminal(s) else s
        for s in alt
    )
    return (sym, ai, children)


def default_derivation(grammar: Grammar) -> Derivation:
    """The derivation every prior is anchored to."""
    stages_alt = grammar.n_stages_max - grammar.n_stages_min

    def choose(nt: str) -> int:
        if nt == grammar.start:
            return stages_alt
        if nt in grammar.block_info:
            return grammar.block_info[nt][1] - 1
        if nt.endswith("_Dropout"):
            return DROPOUT_OPTIONS.index("NoDropout")
        return 0

    return _build(grammar, grammar.start, choose)


_ENCODER_RULE = re.compile(r"^\d+E$")


def _prior_plan(grammar: Grammar, center: Derivation) -> tuple[dict[str, int], int]:
    if not validate_derivation(grammar, center):
        raise GrammarError("prior center is not a derivation of this grammar")
    defaults = _choice_map(center)
    return defaults, next(
        (ai for lhs, ai in defaults.items() if _ENCODER_RULE.match(lhs)), 0
    )


def sample_derivation(
    grammar: Grammar,
    mode="uniform",
    seed: int | np.random.Generator = 0,
) -> Derivation:
    """Draw one derivation."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    prods = grammar.productions

    if mode == "uniform":
        return _build(grammar, grammar.start,
                      lambda nt: int(rng.integers(len(prods[nt]))))

    if not (isinstance(mode, tuple) and mode[0] == "prior"):
        raise GrammarError(f"unknown mode {mode!r}")
    _, center, confidence = mode
    defaults, encoder_alt = _prior_plan(grammar, center)
    sigma = CONFIDENCE_SIGMA[confidence]
    m = CONFIDENCE_MULTIPLIER[confidence]

    def choose(nt: str) -> int:
        n_alts = len(prods[nt])
        if n_alts == 1:
            return 0
        if nt in grammar.block_info:
            cap, profile_center = grammar.block_info[nt]
            center_count = defaults[nt] + 1 if nt in defaults else profile_center
            mu = (center_count - 1) / (cap - 1)
            coord = _truncnorm_sample(rng, mu, sigma)
            idx = _round_half_up(coord * (cap - 1))
            return min(max(idx, 0), cap - 1)
        if _ENCODER_RULE.match(nt):
            default_alt = encoder_alt
        else:
            default_alt = defaults.get(nt, 0)
        return draw_index(rng, boosted_cdf(n_alts, m, default_alt))

    return _build(grammar, grammar.start, choose)


def unit_coordinates(space: SearchSpace, config: Configuration) -> dict[str, float]:
    row = normalize(space, config)
    for i, spec in enumerate(space.parameters):
        if spec.kind == CATEGORICAL and spec.n_choices > 1:
            row[i] /= spec.n_choices - 1
    return dict(zip(coordinate_names(space), row))


def evaluate(problem, config: Configuration, budget: int, seed: int = 0) -> CostVector:
    """``SyntheticProblem.evaluate`` of ``problem``, reading the encoded
    configuration through a dict by coordinate name."""
    if not 1 <= budget <= problem.b_max:
        raise BudgetOutOfRangeError(f"budget {budget} not in [1, {problem.b_max}]")
    coords = unit_coordinates(problem.space, config)
    quality = math.exp(
        -sum(
            w * (coords[name] - problem.optimum.get(name, 0.0)) ** 2
            for name, w in problem.weights.items()
        )
    )
    curve = (1.0 - math.exp(-problem.curvature * budget / problem.b_max)) / (
        1.0 - math.exp(-problem.curvature)
    )
    primary = 1.0 - quality * curve
    if problem.noise > 0.0:
        entropy = hashlib.sha256(
            f"{problem.fingerprint()}|{config_key(config)}|{budget}|{seed}".encode()
        ).digest()
        rng = np.random.default_rng(
            np.frombuffer(entropy[:16], dtype=np.uint64)
        )
        primary += rng.normal(
            0.0, problem.noise * math.sqrt(problem.b_max / budget)
        )
    runtime = budget * problem.hours_per_epoch
    for name in problem.size_parameters:
        runtime *= 1.0 + coords[name]
    return CostVector(
        primary=float(min(max(primary, 0.0), 1.0)),
        runtime_hours=float(runtime),
    )
