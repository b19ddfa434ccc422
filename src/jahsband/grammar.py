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
import math
import re
from functools import cached_property, lru_cache
from typing import Any, Callable, Iterator

from ._pcg64 import PCG64, stream
from .configspace import (
    CONFIDENCE_SIGMA,
    _prior_entry,
    _round_half_up,
    _truncnorm_sample,
    draw_index,
)

Derivation = tuple  # (lhs, alt_index, children)

NORM_OPTIONS = ("InstanceNorm", "BatchNorm")
NONLIN_OPTIONS = ("LeakyReLU", "ReLU", "ELU", "PReLU", "GELU")
DROPOUT_OPTIONS = ("Dropout", "NoDropout")


class GrammarError(ValueError):
    """A grammar, a derivation or a grammar operation's argument is invalid."""


class InvalidStageCountError(GrammarError):
    """Stage count below the minimum of 2."""


class ParseError(GrammarError):
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
            raise GrammarError(f"start symbol {start!r} has no productions")
        for lhs, alts in productions.items():
            if not alts:
                raise GrammarError(f"{lhs}: no alternatives")
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

    @cached_property
    def expansions(self) -> dict[str, tuple[tuple[tuple[str, ...], tuple], ...]]:
        """Per rule, per alternative: the alternative and its nonterminal
        slots as ``(position, symbol)`` pairs, in order."""
        return {lhs: tuple((alt, tuple((i, s) for i, s in enumerate(alt)
                                       if s in self.productions)) for alt in alts)
                for lhs, alts in self.productions.items()}

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

    def unit_features(self, derivation: Derivation) -> tuple[float, float]:
        """Two coordinates in [0, 1] summarizing a U-Net derivation: its stage
        count (start rule alternative i has ``n_stages_min + i`` stages) and
        its block total, each relative to this grammar's range. The one
        derivation check, :meth:`_block_total`, counts the blocks; a
        derivation this grammar cannot derive raises :class:`GrammarError`."""
        total = self._block_total(derivation)
        if total is None or self.n_stages_max is None:
            raise GrammarError("not a U-Net derivation of this grammar")
        lo, hi = self.n_stages_min, self.n_stages_max
        stages = derivation[1] / (hi - lo) if hi > lo else 0.0
        min_total, max_total = self.total_blocks_range
        blocks = (total - min_total) / (max_total - min_total) \
            if max_total > min_total else 0.0
        return stages, blocks

    def _block_total(self, derivation: Derivation) -> int | None:
        """The one derivation check: the number of blocks ``derivation``
        holds (block rule alternative i holds i + 1), or None if this grammar
        cannot derive it from its start symbol. Each node is a tuple
        ``(rule, i, children)`` with an int i in the rule's range and a
        children tuple that is alternative i, a node of the named rule at
        each nonterminal; the walk keeps its own stack."""
        expansions, blocks, total = self.expansions, self.block_info, 0
        stack = [(self.start, derivation)]
        pop, push = stack.pop, stack.append
        try:
            while stack:
                sym, node = pop()
                lhs, ai, children = node
                alts = expansions[sym]
                if not (lhs == sym and isinstance(node, tuple) and isinstance(ai, int)
                        and 0 <= ai < len(alts)):
                    return None
                alt, slots = alts[ai]
                if sym in blocks:
                    total += ai + 1
                if slots:
                    # alternative i once each node is put back as its rule
                    shape = list(children)
                    for i, s in slots:
                        push((s, shape[i]))
                        shape[i] = s
                    if not (isinstance(children, tuple) and tuple(shape) == alt):
                        return None
                elif children != alt:
                    return None
        except (TypeError, ValueError, IndexError):  # a node not of three, or too few children
            return None
        return total


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
        raise GrammarError("model_scale_max must be >= 1")
    if prior_confidence not in tuple(CONFIDENCE_SIGMA):
        raise GrammarError("confidence must be one of low/medium/high")
    profile = default_block_profile(n_stages_max)
    if default_blocks:
        unknown = [k for k in default_blocks if k not in profile]
        if unknown:
            raise GrammarError(f"unknown default_blocks keys {unknown}")
        profile.update(
            {k: tuple(v) for k, v in default_blocks.items() if v is not None}
        )
    for key, need in (("conv", n_stages_max), ("residual", n_stages_max),
                      ("decoder", n_stages_max - 1)):
        blocks = profile[key]
        if len(blocks) < need:
            raise GrammarError(f"{key} block profile needs {need} entries")
        if any(b < 1 for b in blocks):
            raise GrammarError(f"{key} block counts must be >= 1")

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


# counting and enumeration

def count_derivations(grammar: Grammar) -> int:
    """Number of distinct complete derivations (analytic, no enumeration)."""
    memo: dict[str, int | None] = {}  # None while a rule is being counted

    def count(sym: str) -> int:
        if sym not in memo:
            memo[sym] = None
            memo[sym] = sum(math.prod(count(nt) for _, nt in slots)
                            for _, slots in grammar.expansions[sym])
        elif memo[sym] is None:
            raise GrammarError(f"grammar is cyclic at {sym}")
        return memo[sym]

    return count(grammar.start)


def _expand(grammar: Grammar, sym: str, memo: dict) -> Iterator[Derivation]:
    """Yield the derivations of ``sym`` in lexicographic order. Those of
    each nonterminal below it are listed once into ``memo``; those of
    ``sym`` itself stream."""
    for ai, (alt, slots) in enumerate(grammar.expansions[sym]):
        if not slots:
            yield (sym, ai, alt)
            continue
        for _, nt in slots:
            if nt not in memo:
                memo[nt] = list(_expand(grammar, nt, memo))
        t = list(alt)
        if len(slots) == 2:
            # hot path: the start rule of U-Net grammars
            (i0, first), (i1, second) = slots
            second = memo[second]
            for a_node in memo[first]:
                t[i0] = a_node
                for b_node in second:
                    t[i1] = b_node
                    yield (sym, ai, tuple(t))
        else:
            for combo in itertools.product(*(memo[nt] for _, nt in slots)):
                for (pos, _), node in zip(slots, combo):
                    t[pos] = node
                yield (sym, ai, tuple(t))


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
        raise GrammarError("limit must be >= 1")
    gen = _expand(grammar, grammar.start, {})
    return gen if limit is None else itertools.islice(gen, limit)


# sampling

def _build(expansions: dict, sym: str, choose: Callable[[str], int]) -> Derivation:
    """The derivation of ``sym`` whose alternatives ``choose`` picks, depth
    first and left to right, from a grammar's :attr:`Grammar.expansions`:
    only nonterminal slots are filled, and an all-terminal alternative is
    its own children tuple. ``choose`` is called in the same order as
    before, so random draws stay bit-identical."""
    ai = choose(sym)
    alt, slots = expansions[sym][ai]
    if not slots:
        return (sym, ai, alt)
    children = list(alt)
    for i, nt in slots:
        children[i] = _build(expansions, nt, choose)
    return (sym, ai, tuple(children))


@lru_cache(maxsize=64)
def default_derivation(grammar: Grammar) -> Derivation:
    """The derivation every prior is anchored to: maximum stages,
    convolutional encoder, InstanceNorm / LeakyReLU / no dropout, and the
    profile's default block count at every stage. Built once per grammar;
    a derivation is an immutable tuple, so every caller can share it."""
    if grammar.n_stages_max is None:
        raise GrammarError("default derivation needs a U-Net grammar")
    stages_alt = grammar.n_stages_max - grammar.n_stages_min

    def choose(nt: str) -> int:
        if nt == grammar.start:
            return stages_alt
        if nt in grammar.block_info:
            return grammar.block_info[nt][1] - 1
        if nt.endswith("_Dropout"):
            return DROPOUT_OPTIONS.index("NoDropout")
        return 0  # conv encoder, sole decoder, InstanceNorm, LeakyReLU

    return _build(grammar.expansions, grammar.start, choose)


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


@lru_cache(maxsize=256)
def _prior_plan(grammar: Grammar, center: Derivation, confidence: str) -> dict:
    """Per rule, how a prior draw around ``center`` picks its alternative:
    None (the only one) or the rule's ``configspace._prior_entry`` and its
    last alternative's index. The entry is a truncated normal at
    ``(count - 1) / (cap - 1)`` for a block count and a boosted categorical
    toward the center's choice otherwise. Kept per (grammar, center,
    confidence); an invalid center raises, so it is never kept."""
    if not validate_derivation(grammar, center):
        raise GrammarError("prior center is not a derivation of this grammar")
    defaults = _choice_map(center)
    encoder_alt = next(
        (ai for lhs, ai in defaults.items() if _ENCODER_RULE.match(lhs)), 0
    )
    plan: dict[str, tuple | None] = {}
    for nt, alts in grammar.productions.items():
        if len(alts) == 1:
            plan[nt] = None
        elif nt in grammar.block_info:
            cap, profile_center = grammar.block_info[nt]
            center_count = defaults[nt] + 1 if nt in defaults else profile_center
            entry = _prior_entry((center_count - 1) / (cap - 1), None, confidence)
            plan[nt] = (entry, cap - 1)
        else:
            default_alt = encoder_alt if _ENCODER_RULE.match(nt) else defaults.get(nt, 0)
            plan[nt] = (_prior_entry(default_alt, len(alts), confidence), len(alts) - 1)
    return plan


def sample_derivation(
    grammar: Grammar,
    mode: str | tuple = "uniform",
    seed: int | PCG64 = 0,
) -> Derivation:
    """Draw one derivation.

    ``mode="uniform"`` picks every alternative equiprobably at each
    expansion. ``mode=("prior", default_derivation, confidence)`` boosts the
    default alternative of each categorical rule and draws block counts from
    a truncated normal over 1..cap, rounded, centered on the default count of
    the branch being expanded (so a residual branch centers on the residual
    profile even when the default derivation is convolutional).
    """
    rng = stream(seed)
    prods = grammar.productions

    if mode == "uniform":
        return _build(grammar.expansions, grammar.start,
                      lambda nt: int(rng.integers(len(prods[nt]))))

    if not (isinstance(mode, tuple) and mode[0] == "prior"):
        raise GrammarError(f"unknown mode {mode!r}")
    _, center, confidence = mode
    plan = _prior_plan(grammar, center, confidence)

    def choose(nt: str) -> int:
        rule = plan[nt]
        if rule is None:
            return 0
        (c, sigma, draw, _, _), top = rule
        if sigma is None:
            return draw_index(rng, draw)
        idx = _round_half_up(_truncnorm_sample(rng, c, sigma, draw) * top)
        return min(max(idx, 0), top)

    return _build(grammar.expansions, grammar.start, choose)


def validate_derivation(grammar: Grammar, derivation: Derivation) -> bool:
    """Whether ``derivation`` is a derivation of ``grammar`` from its start
    symbol, by :meth:`Grammar._block_total`, the one derivation check."""
    return grammar._block_total(derivation) is not None


# serialization

def _join_tokens(tokens: Any) -> str:
    parts: list[str] = []
    for tok in tokens:
        if not parts or tok in ("(", ")", ",") or parts[-1].endswith("("):
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


# a token, or (the error alternative, whose group is empty) any other
# character but whitespace, which the scan skips because neither matches it
_TOKEN = re.compile(r"([(),]|[A-Za-z0-9][A-Za-z0-9_.\-]*)|\S")


def parse(grammar: Grammar, text: str) -> Derivation:
    """Parse a function-composition string back into a derivation.

    Raises :class:`ParseError` for malformed input and
    :class:`NotInLanguageError` for well-formed strings the grammar cannot
    derive (e.g. a block count beyond the rule's cap).

    The text is scanned once; token positions are found only to report an
    error.
    """
    tokens = _TOKEN.findall(text)
    if "" in tokens:
        stray = next(m for m in _TOKEN.finditer(text) if m[1] is None)
        raise ParseError(f"unexpected character {stray[0]!r}", stray.start())
    if not tokens:
        raise ParseError("empty input", 0)
    prods, n = grammar.productions, len(tokens)
    furthest = 0  # the furthest token an alternative failed at

    def match(nt: str, i: int) -> tuple[Derivation, int] | None:
        nonlocal furthest
        for ai, alt in enumerate(prods[nt]):
            children: list = []
            j = i
            for sym in alt:
                if sym in prods:
                    res = match(sym, j)
                    if res is None:
                        break
                    node, j = res
                    children.append(node)
                elif j < n and tokens[j] == sym:
                    children.append(sym)
                    j += 1
                else:
                    furthest = max(furthest, j)
                    break
            else:
                return (nt, ai, tuple(children)), j
        return None

    result = match(grammar.start, 0)
    if result is not None and result[1] == n:
        return result[0]
    positions = [m.start() for m in _TOKEN.finditer(text)]
    if result is None:
        raise NotInLanguageError("no derivation matches", positions[min(furthest, n - 1)])
    raise NotInLanguageError("trailing input", positions[result[1]])


# declarative form

def grammar_from_dict(obj: Any) -> Grammar:
    """The grammar a space file's ``grammar`` object declares."""
    if not isinstance(obj, dict):
        raise GrammarError("the grammar section must be a JSON object")
    n, scale = obj.get("n_stages_max"), obj.get("model_scale_max", 1)
    if type(n) is not int or type(scale) is not int:
        raise GrammarError("n_stages_max and model_scale_max must be integers")
    blocks = obj.get("default_blocks") or {}
    if not isinstance(blocks, dict) or not all(
            isinstance(v, (list, tuple)) and all(type(b) is int for b in v)
            for v in blocks.values()):
        raise GrammarError("default_blocks must map names to lists of integers")
    return build_grammar(
        n_stages_max=n,
        model_scale_max=scale,
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
