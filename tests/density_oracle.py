"""Frozen reference for prior log densities.

A verbatim copy of ``jahsband.configspace.log_density`` and its helper
``_truncnorm_logpdf`` from before the per-center constants were computed
once per center: every row recomputes the truncated-normal normalizer of
every numeric parameter. The tests compare
``jahsband.configspace.log_densities`` with this module's
:func:`log_density`, float for float, so any change in an operation or its
order shows up.
"""

from __future__ import annotations

import math
from typing import Sequence

from scipy.special import ndtr

from jahsband.configspace import (
    CATEGORICAL,
    CONFIDENCE_MULTIPLIER,
    CONFIDENCE_SIGMA,
    SearchSpace,
)


def _truncnorm_logpdf(x: float, mu: float, sigma: float) -> float:
    """Log density at x of a normal(mu, sigma) truncated to [0, 1]."""
    if not 0.0 <= x <= 1.0:
        return -math.inf
    z = (x - mu) / sigma
    mass = ndtr((1.0 - mu) / sigma) - ndtr((0.0 - mu) / sigma)
    return -0.5 * z * z - math.log(sigma * math.sqrt(2.0 * math.pi) * mass)


def log_density(
    space: SearchSpace,
    row: Sequence[float],
    center: Sequence[float],
    confidence: str | None = None,
) -> float:
    """Log density of the :func:`normalize` row ``row`` under the prior-style
    distribution centered at the row ``center``: a sum over parameters of
    truncated-normal log densities (numeric kinds) and log boosted-default
    category probabilities.

    With ``confidence=None`` each parameter uses its own declared confidence.
    Architecture coordinates do not enter the sum.
    """
    total = 0.0
    for spec, x, c in zip(space.parameters, row, center):
        conf = confidence or spec.prior_confidence
        if spec.kind == CATEGORICAL:
            m = CONFIDENCE_MULTIPLIER[conf]
            total += math.log((m if x == c else 1) / (m + spec.n_choices - 1))
        else:
            total += _truncnorm_logpdf(x, c, CONFIDENCE_SIGMA[conf])
    return total
