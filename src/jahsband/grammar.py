"""Hierarchical U-Net architecture grammar.

The grammar is generated dynamically for a maximum stage count and model
scale: a start rule picks the number of stages, encoder rules pick a
convolutional or residual encoder, a decoder rule mirrors the encoder with
one fewer block stage, and per-stage block-count rules span 1 up to
scale x default. Norm / nonlinearity / dropout rules are shared between all
branches. Derivations serialize to function-composition strings like

    U-Net(ConvEncoder(InstanceNorm LeakyReLU NoDropout, 2b, down, 2b),
          ConvDecoder(InstanceNorm LeakyReLU NoDropout, up, 2b))

A derivation is a nested tuple ``(nonterminal, alternative_index, children)``
whose children are terminal strings or sub-derivations; equality is
structural.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator

import numpy as np

from .configspace import (
    CONFIDENCE_MULTIPLIER,
    CONFIDENCE_SIGMA,
    _round_half_up,
    _truncnorm_sample,
)

Derivation = tuple  # (lhs, alt_index, children)

NORM_OPTIONS = ("InstanceNorm", "BatchNorm")
NONLIN_OPTIONS = ("LeakyReLU", "ReLU", "ELU", "PReLU", "GELU")
DROPOUT_OPTIONS = ("Dropout", "NoDropout")


class InvalidStageCountError(ValueError):
    """Stage count below the minimum of 2."""


class ParseError(ValueError):
    """A string could not be tokenized or structured."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotInLanguageError(ParseError):
    """A well-formed string that no grammar derivation produces."""


def default_block_profile(n_stages_max: int) -> dict[str, tuple[int, ...]]:
    """Per-stage default block counts: 2 per convolutional encoder stage,
    (1, 3, 4, 6, 6, ...) for the residual encoder, 2 per decoder stage."""
    residual = (1, 3, 4) + (6,) * max(n_stages_max - 3, 0)
    return {
        "conv": (2,) * n_stages_max,
        "residual": residual[:n_stages_max],
        "decoder": (2,) * (n_stages_max - 1),
    }


class Grammar:
    """A context-free grammar with ordered productions.

    ``productions`` maps each nonterminal to a tuple of alternatives; an
    alternative is a tuple of symbols, where any symbol that is itself a
    production key is a nonterminal and everything else is a terminal token.
    U-Net grammars built by :func:`build_grammar` additionally carry stage /
    scale metadata used by prior-based sampling.
    """

    def __init__(
        self,
        productions: dict[str, tuple[tuple[str, ...], ...]],
        start: str = "S",
        *,
        n_stages_max: int | None = None,
        model_scale_max: int | None = None,
        default_blocks: dict[str, tuple[int, ...]] | None = None,
        prior_confidence: str = "medium",
        block_info: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        if start not in productions:
            raise ValueError(f"start symbol {start!r} has no productions")
        for lhs, alts in productions.items():
            if not alts:
                raise ValueError(f"{lhs}: no alternatives")
        self.productions = dict(productions)
        self.start = start
        self.n_stages_max = n_stages_max
        self.model_scale_max = model_scale_max
        self.default_blocks = default_blocks
        self.prior_confidence = prior_confidence
        # block rule name -> (number of alternatives, default block count)
        self.block_info = dict(block_info or {})

    def is_nonterminal(self, symbol: str) -> bool:
        return symbol in self.productions

    @property
    def n_stages_min(self) -> int:
        assert self.n_stages_max is not None
        return max(2, self.n_stages_max // 2)

    @cached_property
    def total_blocks_range(self) -> tuple[int, int]:
        """Fewest and most blocks a U-Net derivation can hold: one block per
        stage at the fewest stages, and the larger of the conv and residual
        encoders plus the decoder at full caps over the most stages."""
        assert self.n_stages_max is not None
        n = self.n_stages_max
        caps = {name: info[0] for name, info in self.block_info.items()}
        decoder = sum(caps[f"DB_{i}"] for i in range(1, n))
        conv = sum(caps[f"CEB_{i}"] for i in range(1, n + 1))
        residual = sum(caps[f"REB_{i}"] for i in range(1, n + 1))
        return 2 * self.n_stages_min - 1, max(conv, residual) + decoder


def build_grammar(
    n_stages_max: int,
    model_scale_max: int = 1,
    default_blocks: dict[str, tuple[int, ...]] | None = None,
    prior_confidence: str = "medium",
) -> Grammar:
    """Generate the U-Net grammar for up to ``n_stages_max`` stages.

    Block-count rules for stage i run from 1b to
    ``model_scale_max * default`` blocks, where the defaults come from
    ``default_blocks`` (keys "conv", "residual", "decoder"; the shipped
    profile is used when omitted).
    """
    if n_stages_max < 2:
        raise InvalidStageCountError(f"n_stages_max={n_stages_max} < 2")
    if model_scale_max < 1:
        raise ValueError("model_scale_max must be >= 1")
    profile = default_block_profile(n_stages_max)
    if default_blocks:
        profile.update(
            {k: tuple(v) for k, v in default_blocks.items() if v is not None}
        )
    for key, need in (("conv", n_stages_max), ("residual", n_stages_max),
                      ("decoder", n_stages_max - 1)):
        blocks = profile[key]
        if len(blocks) < need:
            raise ValueError(f"{key} block profile needs {need} entries")
        if any(b < 1 for b in blocks):
            raise ValueError(f"{key} block counts must be >= 1")

    lo = max(2, n_stages_max // 2)
    prods: dict[str, tuple[tuple[str, ...], ...]] = {}
    prods["S"] = tuple(
        ("U-Net", "(", f"{k}E", ",", f"{k}D", ")")
        for k in range(lo, n_stages_max + 1)
    )
    for k in range(lo, n_stages_max + 1):
        conv: list[str] = ["ConvEncoder", "(", "E_Norm", "E_Nonlin",
                           "E_Dropout", ",", "CEB_1"]
        res: list[str] = ["ResEncoder", "(", "E_Norm", "E_Nonlin",
                          "E_Dropout", ",", "REB_1"]
        for i in range(2, k + 1):
            conv += [",", "down", ",", f"CEB_{i}"]
            res += [",", "down", ",", f"REB_{i}"]
        prods[f"{k}E"] = (tuple(conv + [")"]), tuple(res + [")"]))

        dec: list[str] = ["ConvDecoder", "(", "D_Norm", "D_Nonlin",
                          "D_Dropout"]
        for i in range(1, k):
            dec += [",", "up", ",", f"DB_{i}"]
        prods[f"{k}D"] = (tuple(dec + [")"]),)

    block_info: dict[str, tuple[int, int]] = {}
    for prefix, key, count in (("CEB", "conv", n_stages_max),
                               ("REB", "residual", n_stages_max),
                               ("DB", "decoder", n_stages_max - 1)):
        for i in range(1, count + 1):
            default = profile[key][i - 1]
            cap = model_scale_max * default
            name = f"{prefix}_{i}"
            prods[name] = tuple((f"{b}b",) for b in range(1, cap + 1))
            block_info[name] = (cap, default)

    for side in ("E", "D"):
        prods[f"{side}_Norm"] = tuple((t,) for t in NORM_OPTIONS)
        prods[f"{side}_Nonlin"] = tuple((t,) for t in NONLIN_OPTIONS)
        prods[f"{side}_Dropout"] = tuple((t,) for t in DROPOUT_OPTIONS)

    return Grammar(
        prods,
        "S",
        n_stages_max=n_stages_max,
        model_scale_max=model_scale_max,
        default_blocks=profile,
        prior_confidence=prior_confidence,
        block_info=block_info,
    )


def grammar_text(grammar: Grammar) -> str:
    """Human-readable rule listing, one ``NT ::= a | b | ...`` line per rule."""
    lines = []
    for lhs, alts in grammar.productions.items():
        rendered = " | ".join(_join_tokens(alt) for alt in alts)
        lines.append(f"{lhs} ::= {rendered}")
    return "\n".join(lines)


# counting and enumeration

def count_derivations(grammar: Grammar) -> int:
    """Number of distinct complete derivations (analytic, no enumeration)."""
    memo: dict[str, int] = {}
    visiting: set[str] = set()

    def count(sym: str) -> int:
        if not grammar.is_nonterminal(sym):
            return 1
        if sym in memo:
            return memo[sym]
        if sym in visiting:
            raise ValueError(f"grammar is cyclic at {sym}")
        visiting.add(sym)
        total = 0
        for alt in grammar.productions[sym]:
            prod = 1
            for s in alt:
                prod *= count(s)
            total += prod
        visiting.discard(sym)
        memo[sym] = total
        return total

    return count(grammar.start)


def _expand_all(grammar: Grammar, sym: str, memo: dict) -> list[Derivation]:
    if sym in memo:
        return memo[sym]
    out: list[Derivation] = []
    for ai, alt in enumerate(grammar.productions[sym]):
        slots = [i for i, s in enumerate(alt) if grammar.is_nonterminal(s)]
        if not slots:
            out.append((sym, ai, tuple(alt)))
            continue
        sublists = [_expand_all(grammar, alt[i], memo) for i in slots]
        template = list(alt)
        for combo in itertools.product(*sublists):
            t = list(template)
            for pos, node in zip(slots, combo):
                t[pos] = node
            out.append((sym, ai, tuple(t)))
    memo[sym] = out
    return out


def enumerate_derivations(
    grammar: Grammar, limit: int | None = None
) -> Iterator[Derivation]:
    """Yield every derivation in lexicographic order (alternative index first,
    then children left to right), stopping after ``limit`` when given.

    Sub-derivation tables below the start symbol are materialized once; the
    top level streams, so arbitrarily large languages can be counted without
    holding all derivations in memory.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")

    def _iter_start() -> Iterator[Derivation]:
        memo: dict[str, list[Derivation]] = {}
        start = grammar.start
        for ai, alt in enumerate(grammar.productions[start]):
            slots = [i for i, s in enumerate(alt) if grammar.is_nonterminal(s)]
            if not slots:
                yield (start, ai, tuple(alt))
                continue
            sublists = [_expand_all(grammar, alt[i], memo) for i in slots]
            t = list(alt)
            if len(slots) == 2:
                # hot path: the start rule of U-Net grammars
                i0, i1 = slots
                first, second = sublists
                for a_node in first:
                    t[i0] = a_node
                    for b_node in second:
                        t[i1] = b_node
                        yield (start, ai, tuple(t))
            else:
                for combo in itertools.product(*sublists):
                    for pos, node in zip(slots, combo):
                        t[pos] = node
                    yield (start, ai, tuple(t))

    gen = _iter_start()
    return gen if limit is None else itertools.islice(gen, limit)


# sampling

def _build(grammar: Grammar, sym: str, choose: Callable[[str], int]) -> Derivation:
    ai = choose(sym)
    alt = grammar.productions[sym][ai]
    children = tuple(
        _build(grammar, s, choose) if grammar.is_nonterminal(s) else s
        for s in alt
    )
    return (sym, ai, children)


def default_derivation(grammar: Grammar) -> Derivation:
    """The derivation every prior is anchored to: maximum stages,
    convolutional encoder, InstanceNorm / LeakyReLU / no dropout, and the
    profile's default block count at every stage."""
    if grammar.n_stages_max is None:
        raise ValueError("default derivation needs a U-Net grammar")
    stages_alt = grammar.n_stages_max - grammar.n_stages_min

    def choose(nt: str) -> int:
        if nt == grammar.start:
            return stages_alt
        if nt in grammar.block_info:
            return grammar.block_info[nt][1] - 1
        if nt.endswith("_Dropout"):
            return DROPOUT_OPTIONS.index("NoDropout")
        return 0  # conv encoder, sole decoder, InstanceNorm, LeakyReLU

    return _build(grammar, grammar.start, choose)


def _choice_map(derivation: Derivation) -> dict[str, int]:
    """lhs -> alternative index for every node of a derivation."""
    out: dict[str, int] = {}
    stack = [derivation]
    while stack:
        lhs, ai, children = stack.pop()
        out[lhs] = ai
        for c in children:
            if isinstance(c, tuple):
                stack.append(c)
    return out


_ENCODER_RULE = re.compile(r"^\d+E$")


def sample_derivation(
    grammar: Grammar,
    mode: str | tuple = "uniform",
    seed: int | np.random.Generator = 0,
) -> Derivation:
    """Draw one derivation.

    ``mode="uniform"`` picks every alternative equiprobably at each
    expansion. ``mode=("prior", default_derivation, confidence)`` boosts the
    default alternative of each categorical rule and draws block counts from
    a truncated normal over 1..cap, rounded, centered on the default count of
    the branch being expanded (so a residual branch centers on the residual
    profile even when the default derivation is convolutional).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    prods = grammar.productions

    if mode == "uniform":
        return _build(grammar, grammar.start,
                      lambda nt: int(rng.integers(len(prods[nt]))))

    if not (isinstance(mode, tuple) and mode[0] == "prior"):
        raise ValueError(f"unknown mode {mode!r}")
    _, center, confidence = mode
    if not validate_derivation(grammar, center):
        raise ValueError("prior center is not a derivation of this grammar")
    defaults = _choice_map(center)
    encoder_alt = next(
        (ai for lhs, ai in defaults.items() if _ENCODER_RULE.match(lhs)), 0
    )
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
        probs = np.full(n_alts, 1.0 / (m + n_alts - 1))
        probs[default_alt] = m / (m + n_alts - 1)
        return int(rng.choice(n_alts, p=probs))

    return _build(grammar, grammar.start, choose)


def validate_derivation(grammar: Grammar, derivation: Derivation) -> bool:
    """Structural check that a tree is a derivation of the grammar."""
    try:
        lhs, ai, children = derivation
        alt = grammar.productions[lhs][ai]
    except (TypeError, ValueError, KeyError, IndexError):
        return False
    if len(alt) != len(children):
        return False
    for sym, child in zip(alt, children):
        if grammar.is_nonterminal(sym):
            if not (isinstance(child, tuple)
                    and child[0] == sym
                    and validate_derivation(grammar, child)):
                return False
        elif child != sym:
            return False
    return True


# serialization

def _join_tokens(tokens: Any) -> str:
    parts: list[str] = []
    for tok in tokens:
        if not parts:
            parts.append(tok)
        elif tok in ("(", ")", ","):
            parts.append(tok)
        elif parts[-1].endswith("("):
            parts.append(tok)
        else:
            parts.append(" " + tok)
    return "".join(parts)


def _terminal_stream(derivation: Derivation, out: list[str]) -> None:
    for child in derivation[2]:
        if isinstance(child, tuple):
            _terminal_stream(child, out)
        else:
            out.append(child)


def serialize(derivation: Derivation) -> str:
    """Function-composition string of a derivation."""
    tokens: list[str] = []
    _terminal_stream(derivation, tokens)
    return _join_tokens(tokens)


_TOKEN = re.compile(r"[(),]|[A-Za-z0-9][A-Za-z0-9_.\-]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((match.group(), pos))
        pos = match.end()
    return tokens


def parse(grammar: Grammar, text: str) -> Derivation:
    """Parse a function-composition string back into a derivation.

    Raises :class:`ParseError` for malformed input and
    :class:`NotInLanguageError` for well-formed strings the grammar cannot
    derive (e.g. a block count beyond the rule's cap).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    furthest = 0

    def match(nt: str, i: int) -> tuple[Derivation, int] | None:
        nonlocal furthest
        for ai, alt in enumerate(grammar.productions[nt]):
            children: list = []
            j = i
            ok = True
            for sym in alt:
                if grammar.is_nonterminal(sym):
                    res = match(sym, j)
                    if res is None:
                        ok = False
                        break
                    node, j = res
                    children.append(node)
                else:
                    if j < len(tokens) and tokens[j][0] == sym:
                        children.append(sym)
                        j += 1
                    else:
                        furthest = max(furthest, j)
                        ok = False
                        break
            if ok:
                return (nt, ai, tuple(children)), j
        return None

    result = match(grammar.start, 0)
    if result is None:
        pos = tokens[min(furthest, len(tokens) - 1)][1]
        raise NotInLanguageError("no derivation matches", pos)
    node, end = result
    if end != len(tokens):
        raise NotInLanguageError("trailing input", tokens[end][1])
    return node


# feature extraction

@dataclass(frozen=True)
class ArchFeatures:
    """Architecture-level summary of a derivation, usable as
    pseudo-hyperparameters in downstream analyses."""

    n_stages: int
    encoder_type: str  # "conv" | "residual"
    enc_blocks: tuple[int, ...]
    dec_blocks: tuple[int, ...]
    enc_norm: str
    enc_nonlin: str
    enc_dropout: bool
    dec_norm: str
    dec_nonlin: str
    dec_dropout: bool

    @property
    def total_blocks(self) -> int:
        return sum(self.enc_blocks) + sum(self.dec_blocks)


def extract_features(derivation: Derivation) -> ArchFeatures:
    """Read off stage count, encoder type, block counts, and cell-level
    choices from a U-Net derivation."""
    enc_node = dec_node = None
    for child in derivation[2]:
        if isinstance(child, tuple):
            if child[0].endswith("E"):
                enc_node = child
            elif child[0].endswith("D"):
                dec_node = child
    if enc_node is None or dec_node is None:
        raise ValueError("not a U-Net derivation")

    def side(node: Derivation) -> tuple[list[int], str, str, bool]:
        blocks: list[int] = []
        norm = nonlin = ""
        dropout = False
        for child in node[2]:
            if not isinstance(child, tuple):
                continue
            lhs, _, sub = child
            if lhs.endswith("_Norm"):
                norm = sub[0]
            elif lhs.endswith("_Nonlin"):
                nonlin = sub[0]
            elif lhs.endswith("_Dropout"):
                dropout = sub[0] == "Dropout"
            else:
                blocks.append(int(sub[0][:-1]))
        return blocks, norm, nonlin, dropout

    enc_blocks, e_norm, e_nonlin, e_drop = side(enc_node)
    dec_blocks, d_norm, d_nonlin, d_drop = side(dec_node)
    return ArchFeatures(
        n_stages=len(enc_blocks),
        encoder_type="conv" if enc_node[2][0] == "ConvEncoder" else "residual",
        enc_blocks=tuple(enc_blocks),
        dec_blocks=tuple(dec_blocks),
        enc_norm=e_norm,
        enc_nonlin=e_nonlin,
        enc_dropout=e_drop,
        dec_norm=d_norm,
        dec_nonlin=d_nonlin,
        dec_dropout=d_drop,
    )


# declarative form

def grammar_from_dict(obj: dict[str, Any]) -> Grammar:
    blocks = obj.get("default_blocks") or {}
    return build_grammar(
        n_stages_max=int(obj["n_stages_max"]),
        model_scale_max=int(obj.get("model_scale_max", 1)),
        default_blocks={k: tuple(v) for k, v in blocks.items()},
        prior_confidence=obj.get("confidence", "medium"),
    )


def grammar_to_dict(grammar: Grammar) -> dict[str, Any]:
    return {
        "n_stages_max": grammar.n_stages_max,
        "model_scale_max": grammar.model_scale_max,
        "default_blocks": {
            k: list(v) for k, v in (grammar.default_blocks or {}).items()
        },
        "confidence": grammar.prior_confidence,
    }
