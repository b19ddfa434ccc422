from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jahsband import grammar as hg

from arch_features import extract_features
import grammar_oracle as oracle


def grammar_text(grammar):
    """One ``NT ::= a | b | ...`` line per rule, each alternative's tokens
    joined as ``serialize`` joins a derivation's."""
    return "\n".join(
        f"{lhs} ::= " + " | ".join(hg._join_tokens(alt) for alt in alts)
        for lhs, alts in grammar.productions.items())


def worked_example():
    """4 stages, scale 2: conv (2,2,2,2), residual (1,3,4,6), decoder (2,2,2)."""
    return hg.build_grammar(4, 2)


class TestBuildGrammar:
    def test_worked_example_block_caps(self):
        text = grammar_text(worked_example())
        lines = dict(line.split(" ::= ") for line in text.splitlines())
        for i in range(1, 5):
            assert lines[f"CEB_{i}"] == "1b | 2b | 3b | 4b"
        assert lines["REB_1"] == "1b | 2b"
        assert lines["REB_2"].endswith("6b") and lines["REB_2"].count("|") == 5
        assert lines["REB_3"].endswith("8b") and lines["REB_3"].count("|") == 7
        assert lines["REB_4"].endswith("12b") and lines["REB_4"].count("|") == 11
        for i in range(1, 4):
            assert lines[f"DB_{i}"] == "1b | 2b | 3b | 4b"
        assert lines["S"] == "U-Net(2E, 2D) | U-Net(3E, 3D) | U-Net(4E, 4D)"
        assert lines["E_Norm"] == "InstanceNorm | BatchNorm"
        assert lines["E_Nonlin"] == "LeakyReLU | ReLU | ELU | PReLU | GELU"
        assert lines["E_Dropout"] == "Dropout | NoDropout"

    def test_two_stage_grammar_clamps_lower_bound(self):
        g = hg.build_grammar(2, 1)
        assert len(g.productions["S"]) == 1
        assert g.n_stages_min == 2

    def test_one_stage_is_invalid(self):
        with pytest.raises(hg.InvalidStageCountError):
            hg.build_grammar(1, 1)

    def test_block_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            hg.build_grammar(2, 1, {"conv": (0, 2)})


class TestCount:
    def test_single_production_grammar(self):
        g = hg.Grammar({"S": (("a",),)})
        assert hg.count_derivations(g) == 1

    def test_cell_rule_factor_alone(self):
        g = hg.Grammar(
            {
                "S": (("E_Norm", "E_Nonlin", "E_Dropout"),),
                "E_Norm": tuple((t,) for t in hg.NORM_OPTIONS),
                "E_Nonlin": tuple((t,) for t in hg.NONLIN_OPTIONS),
                "E_Dropout": tuple((t,) for t in hg.DROPOUT_OPTIONS),
            }
        )
        assert hg.count_derivations(g) == 2 * 5 * 2

    def test_reference_profile_scale_1(self):
        assert hg.count_derivations(hg.build_grammar(4, 1)) == 319_200

    def test_cyclic_grammar_rejected(self):
        g = hg.Grammar({"S": (("S",),)})
        with pytest.raises(ValueError):
            hg.count_derivations(g)


class TestEnumerate:
    def test_single_production(self):
        g = hg.Grammar({"S": (("a",),)})
        assert list(hg.enumerate_derivations(g)) == [("S", 0, ("a",))]

    def test_limit_yields_distinct_parseable(self):
        g = worked_example()
        out = list(hg.enumerate_derivations(g, 10))
        assert len(out) == 10
        assert len(set(out)) == 10
        for d in out:
            assert hg.parse(g, hg.serialize(d)) == d

    def test_exhaustive_matches_analytic_small(self):
        for n, s in [(2, 1), (2, 2), (3, 1)]:
            g = hg.build_grammar(n, s)
            derivations = list(hg.enumerate_derivations(g))
            assert len(derivations) == hg.count_derivations(g)
            # duplicate-free and injective under serialization
            assert len({hg.serialize(d) for d in derivations}) == len(derivations)

    def test_lexicographic_and_complete_prefix(self):
        g = hg.build_grammar(2, 1)
        full = list(hg.enumerate_derivations(g))
        assert list(hg.enumerate_derivations(g, 50)) == full[:50]


class TestSampling:
    def test_uniform_encoder_split(self):
        g = worked_example()
        rng = np.random.default_rng(0)
        counts = Counter(
            extract_features(hg.sample_derivation(g, "uniform", rng)).encoder_type
            for _ in range(10000)
        )
        assert counts["conv"] / 10000 == pytest.approx(0.5, abs=0.02)

    def test_prior_high_confidence_mode_is_default(self):
        g = worked_example()
        center = hg.default_derivation(g)
        rng = np.random.default_rng(1)
        counts = Counter(
            hg.serialize(hg.sample_derivation(g, ("prior", center, "high"), rng))
            for _ in range(10000)
        )
        assert counts.most_common(1)[0][0] == hg.serialize(center)

    def test_residual_branch_uses_residual_profile(self):
        g = worked_example()
        center = hg.default_derivation(g)
        rng = np.random.default_rng(2)
        stage_counts = [Counter(), Counter()]
        for _ in range(6000):
            feats = extract_features(
                hg.sample_derivation(g, ("prior", center, "high"), rng)
            )
            if feats.encoder_type == "residual":
                stage_counts[0][feats.enc_blocks[0]] += 1
                stage_counts[1][feats.enc_blocks[1]] += 1
        # residual defaults are (1, 3, ...), not the conv profile (2, 2, ...)
        assert stage_counts[0].most_common(1)[0][0] == 1
        assert stage_counts[1].most_common(1)[0][0] == 3

    def test_prior_boosts_every_default_choice_over_uniform(self):
        g = hg.build_grammar(3, 2)
        center = hg.default_derivation(g)
        rng = np.random.default_rng(3)
        n = 10000
        prior_hits = Counter()
        uniform_hits = Counter()
        for mode, hits in (
            (("prior", center, "high"), prior_hits),
            ("uniform", uniform_hits),
        ):
            for _ in range(n):
                feats = extract_features(hg.sample_derivation(g, mode, rng))
                hits["stages"] += feats.n_stages == 3
                hits["encoder"] += feats.encoder_type == "conv"
                hits["norm"] += feats.enc_norm == "InstanceNorm"
                hits["nonlin"] += feats.enc_nonlin == "LeakyReLU"
                hits["dropout"] += not feats.enc_dropout
        for key in prior_hits:
            assert prior_hits[key] > uniform_hits[key]

    def test_sampled_derivations_always_valid(self):
        g = worked_example()
        center = hg.default_derivation(g)
        rng = np.random.default_rng(4)
        for _ in range(5000):
            for mode in ("uniform", ("prior", center, "medium")):
                d = hg.sample_derivation(g, mode, rng)
                assert hg.validate_derivation(g, d)
                feats = extract_features(d)
                assert len(feats.enc_blocks) == feats.n_stages
                assert len(feats.dec_blocks) == feats.n_stages - 1

    def test_deterministic_given_seed(self):
        g = worked_example()
        assert hg.sample_derivation(g, "uniform", 42) == hg.sample_derivation(
            g, "uniform", 42
        )

    def test_invalid_prior_center_raises_on_every_call(self):
        g = worked_example()
        center = hg.default_derivation(g)
        hg.sample_derivation(g, ("prior", center, "medium"), 0)
        bad = (center[0], center[1], center[2][:-1])
        for _ in range(3):
            with pytest.raises(ValueError, match="not a derivation"):
                hg.sample_derivation(g, ("prior", bad, "medium"), 0)

    def test_equal_center_draws_alike_per_grammar(self):
        small, large = hg.build_grammar(3, 1), hg.build_grammar(3, 2)
        center = next(
            d for d in (hg.sample_derivation(large, "uniform", s) for s in range(100))
            if not hg.validate_derivation(small, d)
        )
        twin = hg.parse(large, hg.serialize(center))
        assert twin == center and twin is not center
        for conf in ("low", "high"):
            draws = [
                [hg.sample_derivation(large, ("prior", c, conf), s) for s in range(10)]
                for c in (center, twin)
            ]
            assert draws[0] == draws[1]
        # kept for one grammar, the center is still checked against another
        with pytest.raises(ValueError, match="not a derivation"):
            hg.sample_derivation(small, ("prior", twin, "medium"), 0)

    def test_default_derivation_equals_fresh_build(self):
        for stages in range(2, 7):
            for scale in range(1, 4):
                g = hg.build_grammar(stages, scale)
                kept = hg.default_derivation(g)
                assert kept == hg.default_derivation.__wrapped__(g)
                assert hg.default_derivation(g) is kept


class TestSerializeParse:
    def test_two_stage_default_string(self):
        g = hg.build_grammar(2, 1)
        d = hg.default_derivation(g)
        assert hg.serialize(d) == (
            "U-Net(ConvEncoder(InstanceNorm LeakyReLU NoDropout, 2b, down, 2b), "
            "ConvDecoder(InstanceNorm LeakyReLU NoDropout, up, 2b))"
        )

    def test_roundtrip_1000_uniform(self):
        g = worked_example()
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d = hg.sample_derivation(g, "uniform", rng)
            assert hg.parse(g, hg.serialize(d)) == d

    def test_block_count_beyond_cap_rejected(self):
        g = hg.build_grammar(2, 1)
        text = hg.serialize(hg.default_derivation(g)).replace("2b, down", "5b, down")
        with pytest.raises(hg.NotInLanguageError):
            hg.parse(g, text)

    def test_garbage_rejected_with_position(self):
        g = hg.build_grammar(2, 1)
        with pytest.raises(hg.ParseError) as err:
            hg.parse(g, "U-Net(%)")
        assert err.value.position == 6

    def test_trailing_input_rejected(self):
        g = hg.build_grammar(2, 1)
        text = hg.serialize(hg.default_derivation(g)) + " extra"
        with pytest.raises(hg.NotInLanguageError):
            hg.parse(g, text)


@lru_cache(maxsize=None)
def cached_grammar(n_stages, scale):
    return hg.build_grammar(n_stages, scale)


@st.composite
def sampled_derivations(draw):
    """(grammar, derivation) over build_grammar(2..6, 1..3), drawn uniformly
    or from the prior around the default derivation."""
    g = cached_grammar(draw(st.integers(2, 6)), draw(st.integers(1, 3)))
    seed = draw(st.integers(0, 2**32 - 1))
    mode = draw(st.sampled_from(["uniform", "low", "medium", "high"]))
    if mode == "uniform":
        return g, hg.sample_derivation(g, "uniform", seed)
    return g, hg.sample_derivation(g, ("prior", hg.default_derivation(g), mode), seed)


# characters a garbled string may gain: token characters, separators, ASCII
# and Unicode whitespace, and characters no token may start with
GARBLE = "aZ09b_.-(),  \t\n\u00a0\u2003%$#+é\x00"


@st.composite
def mutated_strings(draw):
    """(grammar, text): a serialized derivation with one token dropped, two
    tokens swapped, or one character replaced or inserted."""
    g, d = draw(sampled_derivations())
    text = hg.serialize(d)
    spans = [(pos, pos + len(tok)) for tok, pos in oracle._tokenize(text)]
    how = draw(st.sampled_from(["drop", "swap", "replace", "insert"]))
    if how == "drop":
        a, b = spans[draw(st.integers(0, len(spans) - 1))]
        return g, text[:a] + text[b:]
    if how == "swap":
        i = draw(st.integers(0, len(spans) - 2))
        j = draw(st.integers(i + 1, len(spans) - 1))
        (a, b), (c, e) = spans[i], spans[j]
        return g, text[:a] + text[c:e] + text[b:c] + text[a:b] + text[e:]
    at = draw(st.integers(0, len(text) - (how == "replace")))
    char = draw(st.sampled_from(GARBLE))
    return g, text[:at] + char + text[at + (how == "replace"):]


TERMINALS = ["a", "b", "c", "(", ","]


@st.composite
def grammar_texts(draw):
    """(grammar, text): a grammar whose rule i names only the rules after
    it (so none is left-recursive), and a sentence it derives with up to
    two tokens dropped, inserted or replaced, or any string of tokens."""
    names = [f"R{i}" for i in range(draw(st.integers(1, 4)))]
    productions = {
        name: tuple(draw(st.lists(
            st.lists(st.sampled_from(TERMINALS + names[i + 1:]), max_size=3).map(tuple),
            min_size=1, max_size=4)))
        for i, name in enumerate(names)}
    g = hg.Grammar(productions, start="R0")

    def derive(symbol):
        if symbol not in productions:
            return [symbol]
        alt = draw(st.sampled_from(productions[symbol]))
        return [token for s in alt for token in derive(s)]

    if draw(st.booleans()):
        tokens = derive("R0")
    else:
        tokens = draw(st.lists(st.sampled_from(TERMINALS), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        how = draw(st.sampled_from(["drop", "insert", "replace"]))
        token = [draw(st.sampled_from(TERMINALS))] if how != "drop" else []
        tokens = tokens[:at] + token + tokens[at + (how != "insert"):]
    return g, " ".join(tokens)


def parse_outcome(parse, g, text):
    try:
        return "derivation", parse(g, text)
    except hg.ParseError as exc:
        return type(exc), exc.position, str(exc)


class TestParseProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=sampled_derivations())
    def test_parse_inverts_serialize(self, case):
        g, d = case
        assert hg.parse(g, hg.serialize(d)) == d

    @settings(max_examples=400, deadline=None)
    @given(case=mutated_strings())
    def test_mutated_strings_fail_as_before(self, case):
        """Same derivation, or the same error class, position and message,
        as the frozen character-by-character parser."""
        g, text = case
        assert parse_outcome(hg.parse, g, text) == parse_outcome(oracle.parse, g, text)

    @pytest.mark.parametrize("text", ["", "   ", "\u00a0", "%", " ,", "U-Net(%)"])
    def test_edge_strings_fail_as_before(self, text):
        g = cached_grammar(2, 1)
        assert parse_outcome(hg.parse, g, text) == parse_outcome(oracle.parse, g, text)

    @settings(max_examples=300, deadline=None)
    @given(case=grammar_texts())
    def test_any_grammar_parses_as_before(self, case):
        """Grammars with empty alternatives, alternatives that share a first
        token or begin with a rule, and texts that end early: the same
        outcome as the frozen parser, which tries every alternative."""
        g, text = case
        assert parse_outcome(hg.parse, g, text) == parse_outcome(oracle.parse, g, text)


@st.composite
def acyclic_grammars(draw):
    """Grammars whose rule i names only the rules after it, as in
    grammar_texts, but with a symbol as likely to be a rule as a terminal, so
    the start and inner rules have alternatives with 0 to 4 nonterminal
    slots; their languages hold at most 2,000 derivations."""
    names = [f"R{i}" for i in range(draw(st.integers(1, 5)))]

    def symbols(i):
        later = names[i + 1:]
        return st.sampled_from(TERMINALS) | st.sampled_from(later) if later \
            else st.sampled_from(TERMINALS)

    productions = {
        name: tuple(draw(st.lists(st.lists(symbols(i), max_size=4).map(tuple),
                                  min_size=1, max_size=3)))
        for i, name in enumerate(names)}
    g = hg.Grammar(productions, start="R0")
    assume(hg.count_derivations(g) <= 2000)
    return g


def expansions_by_recursion(g, symbols):
    """Every expansion of a sequence of symbols, in lexicographic order: the
    first symbol's derivations (alternative index first, then children left
    to right) outermost."""
    if not symbols:
        yield ()
        return
    head, rest = symbols[0], symbols[1:]
    heads = [head] if head not in g.productions else (
        (head, ai, children)
        for ai, alt in enumerate(g.productions[head])
        for children in expansions_by_recursion(g, alt))
    for node in heads:
        for tail in expansions_by_recursion(g, rest):
            yield (node,) + tail


class TestEnumerateProperties:
    @settings(max_examples=300, deadline=None)
    @given(g=acyclic_grammars(), k=st.integers(1, 50))
    def test_enumeration_is_the_recursive_one(self, g, k):
        """The same derivations in the same order as plain recursion, as
        many as count_derivations says, and limit=k gives the first k."""
        want = [d for (d,) in expansions_by_recursion(g, (g.start,))]
        assert list(hg.enumerate_derivations(g)) == want
        assert len(want) == hg.count_derivations(g)
        assert list(hg.enumerate_derivations(g, k)) == want[:k]


class TestFeatures:
    def test_two_stage_default_features(self):
        g = hg.build_grammar(2, 1)
        feats = extract_features(hg.default_derivation(g))
        assert feats.n_stages == 2
        assert feats.encoder_type == "conv"
        assert feats.enc_blocks == (2, 2)
        assert feats.dec_blocks == (2,)
        assert feats.enc_norm == "InstanceNorm"
        assert feats.enc_nonlin == "LeakyReLU"
        assert not feats.enc_dropout and not feats.dec_dropout

    def test_decoder_one_fewer_stage(self):
        g = worked_example()
        rng = np.random.default_rng(6)
        for _ in range(500):
            feats = extract_features(hg.sample_derivation(g, "uniform", rng))
            assert len(feats.dec_blocks) == len(feats.enc_blocks) - 1

    def test_default_matches_profile(self):
        g = worked_example()
        feats = extract_features(hg.default_derivation(g))
        assert feats.n_stages == 4
        assert feats.enc_blocks == g.default_blocks["conv"]
        assert feats.dec_blocks == g.default_blocks["decoder"]
