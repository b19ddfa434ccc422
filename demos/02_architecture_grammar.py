#!/usr/bin/env python3
"""Build a hierarchical U-Net grammar and explore it.

The grammar is generated for a maximum stage count and a model-scale cap;
block-count rules stretch from 1 block up to scale x default per stage,
with separate default profiles for convolutional and residual encoders.
"""


import numpy as np

from jahsband import (
    build_grammar,
    count_derivations,
    default_derivation,
    enumerate_derivations,
    parse,
    sample_derivation,
    serialize,
)

grammar = build_grammar(n_stages_max=4, model_scale_max=2)
for lhs, alternatives in grammar.productions.items():
    print(lhs, "::=", " | ".join(" ".join(tokens) for tokens in alternatives))
print()

print("total architectures:", count_derivations(grammar))

default = default_derivation(grammar)
print("default architecture:", serialize(default))
print("default (stages, blocks), scaled to [0, 1]:", grammar.unit_features(default))
print()

print("first five derivations, lexicographically:")
for derivation in enumerate_derivations(grammar, limit=5):
    print(" ", serialize(derivation))
print()

# Prior-based sampling concentrates on the default; the boost grows with
# confidence. Block-count defaults switch profile when a residual encoder
# is drawn.
rng = np.random.default_rng(0)
print("three prior samples (high confidence):")
for _ in range(3):
    d = sample_derivation(grammar, ("prior", default, "high"), rng)
    print(" ", serialize(d))

print("three uniform samples:")
for _ in range(3):
    d = sample_derivation(grammar, "uniform", rng)
    print(" ", serialize(d))

# Strings round-trip: parse(serialize(d)) is the identity.
text = serialize(default)
assert parse(grammar, text) == default
print()
print("serialize -> parse roundtrip holds")
