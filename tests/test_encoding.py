"""The configuration encoder: ``configspace.normalize`` and what is built on
it, pinned bit for bit."""

import builtins
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jahsband import configspace as cs
from jahsband import grammar as hg
from jahsband._pcg64 import PCG64
from jahsband.analysis import export_reports
from jahsband.harness import SyntheticProblem
from jahsband.priorband import run
from jahsband.scheduler import budget_ladder

from arch_features import extract_features
import density_oracle
import sampling_oracle

SPACE_FILE = Path(__file__).resolve().parents[1] / "spaces" / "jahs_table3_4.json"


def pinned_configurations(space):
    default = space.default_configuration()
    return [
        default,
        cs.sample(space, "uniform", 1),
        cs.sample(space, "uniform", 2),
        cs.sample(space, "prior", 3),
        cs.sample(space, ("around", default), 4),
    ]


# float.hex per configuration of: the noise-free problem at budgets 1 and 243
# (primary, runtime; primary), then the noisy problem at 243 (primary,
# runtime), recorded before the encoder was unified
EVALUATE_HEX = [
    ("0x1.fffcf51f0ece8p-1", "0x1.930e65c2a88d0p-8", "0x1.ff14610a477b4p-1",
     "0x0.0p+0", "0x1.7e96aa97c5fddp+0"),
    ("0x1.ffba363babeb7p-1", "0x1.cdf47ac30d001p-8", "0x1.eae35f7d9b4d9p-1",
     "0x1.0000000000000p+0", "0x1.b67f108725570p+0"),
    ("0x1.ffd3235b7b2a8p-1", "0x1.2b05326685e3ap-7", "0x1.f26dbf03070dfp-1",
     "0x1.e32b6414cfad6p-1", "0x1.1bd5eed75116fp+1"),
    ("0x1.fffe455cb1ad0p-1", "0x1.2d14f2da2a5ebp-8", "0x1.ff7a18a5321b9p-1",
     "0x1.59b6af1170e55p-2", "0x1.1dcae2851637ep+0"),
    ("0x1.fff849126f994p-1", "0x1.23cddb141f099p-7", "0x1.fdaa8eff53fdap-1",
     "0x1.d307367d5badfp-1", "0x1.14fc66f419762p+1"),
]

# float.hex per configuration of prior_pdf around the default with each
# parameter's own confidence, and around the second configuration at "high",
# recorded when prior_pdf was still a plain product of densities
PRIOR_PDF_HEX = [
    ("0x1.645448c6eb64ap+5", "0x1.cb37868b0da72p-76"),
    ("0x1.b802b25c5e780p-24", "0x1.8b00ff9ce7f8fp+14"),
    ("0x1.8f308a7eeb4f1p-23", "0x1.88e23e93a1962p-124"),
    ("0x1.05355946dfaf4p+1", "0x1.3799d4190c8e6p-100"),
    ("0x1.98aa8f082dc02p-6", "0x1.04c35d7136c3dp-76"),
]

# float.hex of the log density of the same pairs
LOG_PRIOR_PDF_HEX = [
    ("0x1.e5f0e15557cb6p+1", "-0x1.a0c23bc004e0cp+5"),
    ("-0x1.0180a8efb24d4p+4", "0x1.4468aeec670a6p+3"),
    ("-0x1.eff0a6169ee36p+3", "-0x1.561670a1338e7p+6"),
    ("0x1.6d341ea9f6671p-1", "-0x1.1479022a47435p+6"),
    ("-0x1.d877fcd53df1cp+1", "-0x1.a54937a4df508p+5"),
]


def test_synthetic_evaluate_bits_pinned():
    space = cs.load_space(SPACE_FILE)
    plain = SyntheticProblem.from_space(space, optimum="random", b_max=243)
    noisy = SyntheticProblem.from_space(
        space, optimum="default", b_max=243, noise=0.02
    )
    for config, want in zip(pinned_configurations(space), EVALUATE_HEX):
        low, top = plain.evaluate(config, 1), plain.evaluate(config, 243)
        noisy_top = noisy.evaluate(config, 243, seed=7)
        got = (low.primary, low.runtime_hours, top.primary,
               noisy_top.primary, noisy_top.runtime_hours)
        assert tuple(v.hex() for v in got) == want


def test_pins_hold_under_compensated_sum(monkeypatch, tmp_path):
    # Python 3.12's builtin sum compensates float sums, 3.11's adds left to
    # right; with a compensated sum in its place, nothing pinned may change
    real_sum = builtins.sum

    def compensated_sum(iterable, start=0):
        items = list(iterable)
        if any(type(v) is float for v in items):
            return math.fsum([start, *items])
        return real_sum(items, start)

    def short_run(out):
        # seed 1 is one whose history.csv a compensated quality sum changes;
        # the strategy weights show a compensated share sum
        space = cs.load_space(SPACE_FILE)
        problem = SyntheticProblem.from_space(space, b_max=27)
        result = run(space, problem, budget_ladder(1, 27, 3), seed=1)
        export_reports(result, out)
        return (out / "history.csv").read_bytes(), result.weight_traces

    plain = short_run(tmp_path / "plain")
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0 != real_sum([0.1] * 10)
    test_synthetic_evaluate_bits_pinned()
    assert short_run(tmp_path / "compensated") == plain


def test_prior_pdf_bits_pinned():
    space = cs.load_space(SPACE_FILE)
    configs = pinned_configurations(space)
    for config, want_log, want in zip(configs, LOG_PRIOR_PDF_HEX, PRIOR_PDF_HEX):
        pairs = ((configs[0], None), (configs[1], "high"))
        got = [cs.log_densities(space, [cs.normalize(space, config)],
                                cs.normalize(space, c), conf)[0] for c, conf in pairs]
        assert tuple(v.hex() for v in got) == want_log
        # exp of a sum of logs differs from the product in the last bits
        for (center, conf), product in zip(pairs, want):
            assert math.isclose(
                cs.prior_pdf(space, config, center, conf),
                float.fromhex(product), rel_tol=1e-13,
            )


# normalize against an independent per-kind formula

def _reference_coordinate(spec, value):
    if spec.kind in ("float", "integer"):
        return (value - spec.lo) / (spec.hi - spec.lo)
    if spec.kind == "log_float":
        return (math.log(value) - math.log(spec.lo)) / (
            math.log(spec.hi) - math.log(spec.lo)
        )
    index = spec.values.index(value)
    if spec.kind == "ordinal":
        return index / (len(spec.values) - 1) if len(spec.values) > 1 else 0.0
    return float(index)


def _reference_arch(grammar, derivation):
    feats = extract_features(derivation)
    lo, hi = grammar.n_stages_min, grammar.n_stages_max
    min_total, max_total = grammar.total_blocks_range
    return [
        (feats.n_stages - lo) / (hi - lo) if hi > lo else 0.0,
        (feats.total_blocks - min_total) / (max_total - min_total)
        if max_total > min_total else 0.0,
    ]


@st.composite
def spec_strategy(draw, index):
    kind = draw(st.sampled_from(cs._KINDS))
    name = f"x{index}"
    conf = draw(st.sampled_from(sorted(cs.CONFIDENCE_SIGMA)))
    if kind in ("float", "log_float"):
        lo = draw(st.floats(1e-6, 100.0))
        hi = lo + draw(st.floats(1e-3, 1000.0))
        return cs.ParameterSpec(name, kind, lo=lo, hi=hi, default=lo,
                                prior_confidence=conf)
    if kind == "integer":
        lo = draw(st.integers(-50, 50))
        hi = lo + draw(st.integers(1, 100))
        return cs.ParameterSpec(name, kind, lo=lo, hi=hi, default=hi,
                                prior_confidence=conf)
    if kind == "ordinal":
        values = tuple(draw(st.lists(
            st.integers(-20, 20), min_size=1, max_size=6, unique=True
        )))
    else:
        values = tuple(draw(st.lists(
            st.text("abc", min_size=1, max_size=3), min_size=1, max_size=6,
            unique=True,
        )))
    return cs.ParameterSpec(name, kind, values=values, default=values[0],
                            prior_confidence=conf)


@st.composite
def space_strategy(draw):
    n = draw(st.integers(0, 6))
    specs = [draw(spec_strategy(i)) for i in range(n)]
    stages = draw(st.one_of(st.none(), st.integers(2, 6)))
    grammar = None
    if stages is not None or not specs:
        grammar = hg.build_grammar(stages or 2, draw(st.integers(1, 3)))
    return cs.build_space(specs, grammar)


@settings(max_examples=150, deadline=None)
@given(space=space_strategy(), seed=st.integers(0, 2**32 - 1))
def test_normalize_matches_reference(space, seed):
    rng = np.random.default_rng(seed)
    center = cs.sample(space, "uniform", rng)
    for strategy in ("uniform", "prior", ("around", center)):
        config = cs.sample(space, strategy, rng)
        row = cs.normalize(space, config)
        want = [
            _reference_coordinate(spec, config[spec.name]) for spec in space
        ]
        if space.grammar is not None:
            want += _reference_arch(space.grammar, config.derivation)
        assert row == want
        assert all(type(v) is float for v in row)
        assert len(row) == len(cs.coordinate_names(space))


def test_normalize_returns_a_fresh_list():
    space = cs.load_space(SPACE_FILE)
    config = cs.sample(space, "uniform", 0)
    row = cs.normalize(space, config)
    want = list(row)
    row[0] = -1.0
    row.append(2.0)
    assert cs.normalize(space, config) == want
    assert cs.normalize(space, config) is not cs.normalize(space, config)


def test_normalize_keeps_one_row_per_space():
    narrow = cs.build_space([cs.ParameterSpec("p0", "float", lo=0.0, hi=1.0, default=0.5)])
    wide = cs.build_space([cs.ParameterSpec("p0", "float", lo=0.0, hi=2.0, default=0.5)])
    config = cs.Configuration({"p0": 0.5})
    for _ in range(2):
        assert cs.normalize(narrow, config) == [0.5]
        assert cs.normalize(wide, config) == [0.25]


@settings(max_examples=100, deadline=None)
@given(space=space_strategy(), seed=st.integers(0, 2**32 - 1))
def test_serialized_strings_match_reference(space, seed):
    rng = np.random.default_rng(seed)
    for strategy in ("uniform", "prior"):
        config = cs.sample(space, strategy, rng)
        want_arch = "" if config.derivation is None else hg.serialize(config.derivation)
        for _ in range(2):
            assert config.serialized_config == json.dumps(config.assignments, sort_keys=True)
            assert config.serialized_architecture == want_arch


# log densities against the frozen per-row code in density_oracle.py

@st.composite
def row_strategy(draw, space, center):
    """A row whose numeric coordinates may lie outside [0, 1] and whose
    categorical ones match the center's index or not."""
    row = []
    for spec, c in zip(space.parameters, center):
        if spec.kind == "categorical":
            row.append(float(draw(st.one_of(
                st.just(c), st.integers(0, spec.n_choices - 1)
            ))))
        else:
            row.append(draw(st.one_of(
                st.sampled_from([0.0, 1.0, -1e-300, 1.0 + 2**-52]),
                st.floats(-0.5, 1.5),
            )))
    return row


@settings(max_examples=150, deadline=None)
@given(
    space=space_strategy(),
    seed=st.integers(0, 2**32 - 1),
    confidence=st.sampled_from([None, *sorted(cs.CONFIDENCE_SIGMA)]),
    data=st.data(),
)
def test_log_densities_match_oracle_bits(space, seed, confidence, data):
    rng = np.random.default_rng(seed)
    configs = [cs.sample(space, s, rng) for s in ("uniform", "prior", "uniform")]
    configs.append(cs.sample(space, ("around", configs[0]), rng))
    rows = [cs.normalize(space, c) for c in configs]
    for center in rows[:2]:
        table = rows + [data.draw(row_strategy(space, center)) for _ in range(4)]
        want = [density_oracle.log_density(space, r, center, confidence)
                for r in table]
        got = cs.log_densities(space, table, center, confidence)
        assert [v.hex() for v in got] == [v.hex() for v in want]


# sampling and evaluation against the frozen code in sampling_oracle.py

CONFIDENCES = st.sampled_from([None, *sorted(cs.CONFIDENCE_SIGMA)])


def assert_same_configuration(got, want):
    assert list(got.assignments) == list(want.assignments)
    for name, value in want.assignments.items():
        assert type(got[name]) is type(value)
        if type(value) is float:
            assert got[name].hex() == value.hex()
        else:
            assert got[name] == value
    assert got.derivation == want.derivation


@settings(max_examples=150, deadline=None)
@given(space=space_strategy(), seed=st.integers(0, 2**32 - 1),
       confidence=CONFIDENCES)
def test_sample_matches_oracle(space, seed, confidence):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    center = cs.sample(space, "uniform", rng)
    assert_same_configuration(center, sampling_oracle.sample(space, "uniform", ref))
    for strategy in ("uniform", "prior", ("around", center)):
        for _ in range(2):
            got = cs.sample(space, strategy, rng, confidence)
            want = sampling_oracle.sample(space, strategy, ref, confidence)
            assert_same_configuration(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state


SHIPPED_SPACES = [cs.load_space(p) for p in sorted(SPACE_FILE.parent.glob("*.json"))]


@settings(max_examples=100, deadline=None)
@given(space=st.sampled_from(SHIPPED_SPACES), seed=st.integers(0, 2**32 - 1))
def test_prior_is_sampling_around_the_default(space, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    around = ("around", space.default_configuration())
    for _ in range(3):
        got = cs.sample(space, "prior", rng, confidence="medium")
        assert_same_configuration(got, cs.sample(space, around, ref))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_center_encoded_once_across_draws(monkeypatch):
    space = cs.load_space(SPACE_FILE)
    center = cs.sample(space, "uniform", 0)
    unit_features, encoded = hg.Grammar.unit_features, []

    def counting(grammar, derivation):
        encoded.append(derivation)
        return unit_features(grammar, derivation)

    monkeypatch.setattr(hg.Grammar, "unit_features", counting)
    rng = np.random.default_rng(1)
    for strategy in (("around", center), "prior"):
        for _ in range(50):
            cs.sample(space, strategy, rng)
    assert encoded == [center.derivation, space.default_configuration().derivation]
    # a center outside the space raises before it draws anything
    spec = space["Momentum (SGD)"]
    outside = cs.Configuration({**center.assignments, spec.name: spec.hi * 2},
                               center.derivation)
    state = rng.bit_generator.state
    with pytest.raises(cs.OutOfDomainError):
        cs.sample(space, ("around", outside), rng)
    assert rng.bit_generator.state == state


def test_default_configuration_is_one_object_per_space():
    space, twin = cs.load_space(SPACE_FILE), cs.load_space(SPACE_FILE)
    assert space.default_configuration() is space.default_configuration()
    assert twin.default_configuration() is not space.default_configuration()
    assert twin.default_configuration() == space.default_configuration()


def _default_with(old, new):
    """The shipped space's default derivation with its first child equal to
    ``old`` (a node or a terminal, depth first) replaced by ``new``."""
    found = []

    def edit(node):
        lhs, ai, children = node
        out = []
        for child in children:
            if not found and child == old:
                found.append(child)
                child = new
            elif isinstance(child, tuple):
                child = edit(child)
            out.append(child)
        return (lhs, ai, tuple(out))

    derivation = edit(hg.default_derivation(cs.load_space(SPACE_FILE).grammar))
    assert found, old
    return derivation


def _with_encoder_norm(node):
    """The shipped space's default derivation with ``node`` for its encoder
    norm node."""
    return _default_with(("E_Norm", 0, ("InstanceNorm",)), node)


@pytest.mark.parametrize("derivation", [
    ("S", 0, ()),
    ("S", 0, ("U-Net", "(", "abc", ",", "xyz", ")")),
    ("S", 0, ("U-Net", "(", ("4E", 0, ()), ",", ("4D", 0, ()), ")")),
    # U-Nets of other grammars: six stages, and a first block count over the cap of 4
    hg.sample_derivation(hg.build_grammar(6, 2), "uniform", 3),
    hg.parse(hg.build_grammar(4, 3), "U-Net(ConvEncoder(InstanceNorm LeakyReLU NoDropout, "
             "6b, down, 2b, down, 2b, down, 2b), ConvDecoder(InstanceNorm LeakyReLU "
             "NoDropout, up, 2b, up, 2b, up, 2b))"),
    # an encoder norm that no alternative, or not this one, derives
    _with_encoder_norm(("E_Norm", 9, ("GroupNorm",))),
    _with_encoder_norm(("E_Norm", -1, ("BatchNorm",))),
    _with_encoder_norm(("E_Norm", 0, ("BatchNorm",))),
    _with_encoder_norm(("D_Norm", 0, ("InstanceNorm",))),
    # a block token, a terminal and an encoder token that the alternative
    # does not hold, a block index of -1, and a derivation that is not a tuple
    _default_with(("CEB_1", 1, ("2b",)), ("CEB_1", 1, ("7b",))),
    _default_with("down", "up"),
    _default_with("ConvEncoder", "ResEncoder"),
    _default_with(("CEB_1", 1, ("2b",)), ("CEB_1", -1, ("4b",))),
    list(hg.default_derivation(cs.load_space(SPACE_FILE).grammar)),
])
def test_non_unet_derivation_is_a_grammar_error(derivation):
    """Encoding, sampling around and evaluating a configuration whose
    derivation is not shaped like a U-Net, or is one of another grammar,
    raise GrammarError, not the unpacking error underneath."""
    space = cs.load_space(SPACE_FILE)
    assert not hg.validate_derivation(space.grammar, derivation)
    config = cs.Configuration(dict(space.default_configuration().assignments), derivation)
    problem = SyntheticProblem.from_space(space, b_max=243)
    for call in (lambda: cs.normalize(space, config),
                 lambda: cs.sample(space, ("around", config), 0),
                 lambda: problem.evaluate(config, 1)):
        with pytest.raises(hg.GrammarError, match="not a U-Net derivation"):
            call()


def _nodes(derivation, path=()):
    """(path, node) for each node of a derivation, depth first; a path lists
    the child positions from the root."""
    yield path, derivation
    for i, child in enumerate(derivation[2]):
        if isinstance(child, tuple):
            yield from _nodes(child, path + (i,))


def _put(derivation, path, node):
    """``derivation`` with ``node`` at ``path``."""
    if not path:
        return node
    lhs, ai, children = derivation
    i = path[0]
    return (lhs, ai, children[:i] + (_put(children[i], path[1:], node),) + children[i + 1:])


MUTATIONS = ("index -1", "index True", "index out of range", "terminal swapped",
             "block token", "children as list", "dropped child", "other rule")


def _mutate(grammar, derivation, kind, data):
    """``derivation`` with one node changed by the mutation ``kind``; ``data``
    draws the node and the change."""
    nodes = list(_nodes(derivation))
    candidates = [(p, n) for p, n in nodes if n[0] in grammar.block_info] \
        if kind == "block token" else nodes
    path, (lhs, ai, children) = data.draw(st.sampled_from(candidates))
    if kind == "index -1":
        node = (lhs, -1, children)
    elif kind == "index True":
        node = (lhs, True, children)
    elif kind == "index out of range":
        node = (lhs, len(grammar.productions[lhs]), children)
    elif kind == "terminal swapped":
        i = data.draw(st.sampled_from([i for i, c in enumerate(children) if isinstance(c, str)]))
        tokens = {s for alts in grammar.productions.values() for alt in alts for s in alt
                  if s not in grammar.productions}
        token = data.draw(st.sampled_from(sorted(tokens - {children[i]})))
        node = (lhs, ai, children[:i] + (token,) + children[i + 1:])
    elif kind == "block token":
        cap = grammar.block_info[lhs][0]
        count = data.draw(st.integers(1, cap + 1).filter(lambda m: m != ai + 1))
        node = (lhs, ai, (f"{count}b",))
    elif kind == "children as list":
        node = (lhs, ai, list(children))
    elif kind == "dropped child":
        i = data.draw(st.integers(0, len(children) - 1))
        node = (lhs, ai, children[:i] + children[i + 1:])
    else:
        node = data.draw(st.sampled_from([n for _, n in nodes if n[0] != lhs]))
    return _put(derivation, path, node)


def _parses_back(grammar, derivation):
    """The oracle: a derivation of the grammar is the one its string parses
    back to."""
    try:
        return hg.parse(grammar, hg.serialize(derivation)) == derivation
    except hg.GrammarError:
        return False


@settings(max_examples=300, deadline=None)
@given(stages=st.integers(2, 6), scale=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(MUTATIONS), data=st.data())
def test_derivation_check_matches_parse_oracle(stages, scale, seed, kind, data):
    """The one derivation check accepts a mutated derivation exactly when it
    parses back to itself, and encoding raises GrammarError exactly when the
    check fails."""
    grammar = hg.build_grammar(stages, scale)
    derivation = hg.sample_derivation(grammar, "uniform", seed)
    assert hg.validate_derivation(grammar, derivation)
    mutated = _mutate(grammar, derivation, kind, data)
    valid = hg.validate_derivation(grammar, mutated)
    assert valid == _parses_back(grammar, mutated)
    config = cs.Configuration({}, mutated)
    if valid:
        cs.normalize(cs.build_space([], grammar), config)
    else:
        with pytest.raises(hg.GrammarError):
            cs.normalize(cs.build_space([], grammar), config)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stages=st.integers(2, 6),
       scale=st.integers(1, 3), confidence=st.sampled_from(sorted(cs.CONFIDENCE_SIGMA)))
def test_sample_derivation_matches_oracle(seed, stages, scale, confidence):
    grammar = hg.build_grammar(stages, scale)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        center = hg.sample_derivation(grammar, "uniform", rng)
        assert center == sampling_oracle.sample_derivation(grammar, "uniform", ref)
        mode = ("prior", center, confidence)
        got = hg.sample_derivation(grammar, mode, rng)
        assert got == sampling_oracle.sample_derivation(grammar, mode, ref)
        assert rng.bit_generator.state == ref.bit_generator.state


_UNIT_ENDS = st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53, 0.5])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data(),
       ends=st.one_of(
           st.tuples(_UNIT_ENDS, _UNIT_ENDS),
           st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
       ))
def test_uniform_draw_is_numpy_uniform(seed, data, ends):
    a, b = sorted(ends)
    if data.draw(st.booleans()):
        b = a
    rng, ref = PCG64(seed), np.random.default_rng(seed)
    for _ in range(4):
        got, want = rng.uniform(a, b), ref.uniform(a, b)
        assert type(got) is float
        assert got.hex() == float(want).hex()
    assert rng.random() == ref.random()  # and the stream is where numpy leaves it


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       mu=_UNIT_ENDS | st.floats(-0.5, 1.5),
       sigma=st.sampled_from(sorted(cs.CONFIDENCE_SIGMA.values())))
def test_truncnorm_sample_matches_oracle(seed, mu, sigma):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        got = cs._truncnorm_sample(rng, mu, sigma, cs._truncnorm_bounds(mu, sigma))
        assert got.hex() == sampling_oracle._truncnorm_sample(ref, mu, sigma).hex()
    assert rng.bit_generator.state == ref.bit_generator.state


@st.composite
def problem_strategy(draw):
    """A noisy problem over a space with at least one categorical, weighted
    in a shuffled coordinate order with an optimum on only some coordinates."""
    space = draw(space_strategy())
    values = tuple(draw(st.lists(st.text("xyz", min_size=1, max_size=2),
                                 min_size=1, max_size=5, unique=True)))
    extra = cs.ParameterSpec("cat", "categorical", values=values, default=values[-1])
    space = cs.build_space([*space.parameters, extra], space.grammar)
    names = cs.coordinate_names(space)
    order = draw(st.permutations(names))
    weights = {n: draw(st.floats(0.0, 4.0)) for n in order}
    weights[order[0]] = draw(st.floats(0.1, 4.0))
    optimum = {n: draw(st.floats(0.0, 1.0))
               for n in draw(st.lists(st.sampled_from(names), unique=True))}
    sizes = tuple(draw(st.lists(st.sampled_from(names), unique=True, max_size=4)))
    return SyntheticProblem(
        space, optimum, weights, b_max=draw(st.integers(1, 243)),
        size_parameters=sizes, noise=draw(st.floats(1e-4, 0.1)),
    )


@settings(max_examples=100, deadline=None)
@given(problem=problem_strategy(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_synthetic_evaluate_matches_oracle(problem, seed, data):
    rng = np.random.default_rng(seed)
    for strategy in ("uniform", "prior", "uniform"):
        config = cs.sample(problem.space, strategy, rng)
        for problem_ in (problem, problem.without_noise()):
            budget = data.draw(st.integers(1, problem.b_max))
            got = problem_.evaluate(config, budget, seed=seed)
            want = sampling_oracle.evaluate(problem_, config, budget, seed=seed)
            assert (got.primary.hex(), got.runtime_hours.hex()) == (
                want.primary.hex(), want.runtime_hours.hex())
