import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import truncnorm

from jahsband import configspace as cs
from jahsband._pcg64 import PCG64
from jahsband.grammar import serialize
from jahsband.priorband import SamplerWeights

from conftest import float_space

SPACES_DIR = Path(__file__).resolve().parents[1] / "spaces"


def table_space():
    return cs.load_space(SPACES_DIR / "jahs_table3_4.json")


class TestBuildSpace:
    def test_full_table_loads_with_15_parameters(self):
        space = table_space()
        assert len(space) == 15
        momentum = space["Momentum (SGD)"]
        assert momentum.kind == "log_float"
        assert (momentum.lo, momentum.hi, momentum.default) == (0.5, 0.999, 0.99)
        assert space.grammar is not None

    def test_hpo_block_is_8_parameters(self):
        space = table_space()
        hpo = [
            "Optimizer", "Momentum (SGD)", "Initial Learning Rate",
            "Learning Rate Scheduler", "Weight Decay",
            "Foreground Oversampling", "Loss Function",
            "Data Augmentation Factor",
        ]
        assert [n for n in space.names if n in hpo] == hpo

    def test_empty_spec_list_is_error(self):
        with pytest.raises(cs.EmptyDomainError):
            cs.build_space([])

    def test_default_out_of_domain(self):
        with pytest.raises(cs.DefaultOutOfDomainError):
            cs.ParameterSpec("m", "log_float", lo=0.5, hi=0.999, default=0.2)

    def test_duplicate_names(self):
        spec = cs.ParameterSpec("x", "float", lo=0.0, hi=1.0, default=0.5)
        with pytest.raises(cs.DuplicateNameError):
            cs.build_space([spec, spec])

    def test_float_range_must_be_finite(self):
        # rng.uniform refuses a range beyond the largest double
        with pytest.raises(cs.SpaceError, match="finite"):
            cs.ParameterSpec("x", "float", lo=-1e308, hi=1e308, default=0.0)

    def test_log_float_needs_positive_lo(self):
        with pytest.raises(cs.SpaceError):
            cs.ParameterSpec("x", "log_float", lo=0.0, hi=1.0, default=0.5)

    def test_roundtrip_through_dict(self):
        space = table_space()
        again = cs.load_space(cs.space_to_dict(space))
        assert again.names == space.names
        assert cs.space_to_dict(again) == cs.space_to_dict(space)


class TestNormalize:
    def test_log_float_bounds_and_interior(self):
        space = table_space()
        lr = space["Initial Learning Rate"]
        assert lr.to_unit(1e-5) == pytest.approx(0.0)
        # hand check: (log(1e-2) - log(1e-5)) / (log(0.1) - log(1e-5)) = 3/4
        assert lr.to_unit(1e-2) == pytest.approx(0.75)

    def test_ordinal_index_over_k_minus_1(self):
        space = table_space()
        assert space["Model Scale"].to_unit(1) == pytest.approx(1 / 3)

    def test_categorical_maps_to_index(self):
        space = table_space()
        assert space["Optimizer"].to_unit("AdamW") == 2.0

    @pytest.mark.parametrize("name, value", [
        ("Model Scale", True),  # a bool is no number
        ("Model Scale", 1.0),  # equals the listed int 1
        ("Base #Features", 32.0),  # an integer parameter takes ints
    ])
    def test_value_equal_to_a_domain_value_of_another_type(self, name, value):
        space = table_space()
        assert not space[name].contains(value)
        config = space.default_configuration()
        with pytest.raises(cs.OutOfDomainError, match=name):
            space.validate(cs.Configuration({**config.assignments, name: value},
                                            config.derivation))

    def test_listed_values_of_two_types_encode_apart(self):
        spec = cs.ParameterSpec("o", "ordinal", values=(1.0, 1, True), default=1)
        assert [spec.to_unit(v) for v in (1.0, 1, True)] == [0.0, 0.5, 1.0]

    def test_unknown_parameter(self):
        space = float_space(2)
        with pytest.raises(cs.UnknownParameterError):
            cs.normalize(space, cs.Configuration({"p0": 0.5, "nope": 1.0}))

    def test_roundtrip_floats(self, rng):
        space = float_space(4)
        for _ in range(200):
            config = cs.sample(space, "uniform", rng)
            for spec in space:
                back = spec.from_unit(spec.to_unit(config[spec.name]))
                assert back == pytest.approx(config[spec.name], abs=1e-12)

    def test_roundtrip_integer_ordinal_after_rounding(self, rng):
        space = cs.build_space([
            cs.ParameterSpec("i", "integer", lo=3, hi=17, default=5),
            cs.ParameterSpec("o", "ordinal", values=(0.5, 1, 1.5, 2), default=1),
        ])
        for _ in range(200):
            config = cs.sample(space, "uniform", rng)
            for spec in space:
                back = spec.from_unit(spec.to_unit(config[spec.name]))
                assert back == config[spec.name]


class TestSample:
    def test_uniform_deterministic_given_seed(self):
        space = table_space()
        assert cs.sample(space, "uniform", 99) == cs.sample(space, "uniform", 99)

    def test_prior_mean_matches_truncnorm(self):
        space = float_space(1, default=0.5, confidence="high")
        rng = np.random.default_rng(0)
        values = [cs.sample(space, "prior", rng)["p0"] for _ in range(10000)]
        a, b = (0 - 0.5) / 0.125, (1 - 0.5) / 0.125
        expected = truncnorm.mean(a, b, loc=0.5, scale=0.125)
        assert np.mean(values) == pytest.approx(expected, abs=0.02)

    def test_high_confidence_concentrates(self):
        rng = np.random.default_rng(1)
        high = float_space(1, confidence="high")
        low = float_space(1, confidence="low")
        vh = [cs.sample(high, "prior", rng)["p0"] for _ in range(10000)]
        vl = [cs.sample(low, "prior", rng)["p0"] for _ in range(10000)]
        assert np.std(vh) < np.std(vl)

    def test_categorical_boosted_default_frequencies(self):
        space = cs.build_space([
            cs.ParameterSpec("c", "categorical", values=("a", "b", "c"),
                             default="a", prior_confidence="medium")
        ])
        rng = np.random.default_rng(2)
        counts = Counter(cs.sample(space, "prior", rng)["c"] for _ in range(10000))
        assert counts["a"] / 10000 == pytest.approx(4 / 6, abs=0.02)
        assert counts["b"] / 10000 == pytest.approx(1 / 6, abs=0.02)
        assert counts["c"] / 10000 == pytest.approx(1 / 6, abs=0.02)

    def test_around_centers_on_given_config(self):
        space = float_space(1)
        center = cs.Configuration({"p0": 0.8})
        rng = np.random.default_rng(3)
        values = [
            cs.sample(space, ("around", center), rng)["p0"] for _ in range(4000)
        ]
        # around uses medium confidence; compare to the analytic median
        a, b = (0 - 0.8) / 0.25, (1 - 0.8) / 0.25
        expected = truncnorm.median(a, b, loc=0.8, scale=0.25)
        assert np.median(values) == pytest.approx(expected, abs=0.02)

    def test_sampled_configs_always_valid(self):
        # 10 000-draw fuzz split across strategies and spaces
        table = table_space()
        small = float_space(3)
        rng = np.random.default_rng(4)
        for _ in range(5000):
            table.validate(cs.sample(table, "uniform", rng))
        center = cs.sample(small, "uniform", rng)
        for _ in range(2500):
            small.validate(cs.sample(small, "prior", rng))
            small.validate(cs.sample(small, ("around", center), rng))

    def test_integer_prior_rounds(self):
        space = cs.build_space(
            [cs.ParameterSpec("i", "integer", lo=1, hi=9, default=5,
                              prior_confidence="high")]
        )
        rng = np.random.default_rng(5)
        values = [cs.sample(space, "prior", rng)["i"] for _ in range(2000)]
        assert all(isinstance(v, int) for v in values)
        assert Counter(values).most_common(1)[0][0] == 5


class TestPriorPdf:
    def test_maximized_at_center_grid(self):
        space = float_space(1)
        center = cs.Configuration({"p0": 0.3})
        grid = np.linspace(0, 1, 101)
        scores = [
            cs.prior_pdf(space, cs.Configuration({"p0": float(g)}), center)
            for g in grid
        ]
        assert int(np.argmax(scores)) == 30
        assert all(s > 0 for s in scores)

    def test_center_scores_highest_jointly(self, rng):
        space = float_space(3)
        center = cs.Configuration({f"p{i}": 0.5 for i in range(3)})
        top = cs.prior_pdf(space, center, center)
        for _ in range(300):
            other = cs.sample(space, "uniform", rng)
            assert cs.prior_pdf(space, other, center) <= top

    def test_symmetry_around_midpoint_center(self):
        space = float_space(1)
        center = cs.Configuration({"p0": 0.5})
        left = cs.prior_pdf(space, cs.Configuration({"p0": 0.35}), center)
        right = cs.prior_pdf(space, cs.Configuration({"p0": 0.65}), center)
        assert left == pytest.approx(right, rel=1e-12)

    def test_categorical_factor_ratio(self):
        space = cs.build_space([
            cs.ParameterSpec("c", "categorical", values=("a", "b", "c"),
                             default="a", prior_confidence="medium")
        ])
        center = cs.Configuration({"c": "a"})
        ratio = cs.prior_pdf(space, center, center) / cs.prior_pdf(
            space, cs.Configuration({"c": "b"}), center
        )
        assert ratio == pytest.approx(4.0)

    def test_out_of_domain(self):
        space = float_space(1)
        with pytest.raises(cs.OutOfDomainError):
            cs.prior_pdf(
                space,
                cs.Configuration({"p0": 1.5}),
                cs.Configuration({"p0": 0.5}),
            )


class TestDraw:
    """``draw_index`` on a cached CDF against ``Generator.choice(k, p=...)``:
    the same index and the same position in the random stream."""

    @staticmethod
    def assert_draws_match(seed, cdf, probs, n=8):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(n):
            idx = cs.draw_index(ours, cdf)
            assert idx == int(reference.choice(len(probs), p=probs))
            assert probs[idx] > 0
        assert ours.random() == reference.random()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
           m=st.sampled_from(sorted(cs.CONFIDENCE_MULTIPLIER.values())),
           data=st.data())
    def test_boosted_matches_choice(self, seed, k, m, data):
        favored = data.draw(st.integers(0, k - 1))
        probs = np.full(k, 1.0 / (m + k - 1))
        probs[favored] = m / (m + k - 1)
        self.assert_draws_match(seed, cs.boosted_cdf(k, m, favored), probs)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           random=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
           prior=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0))
    def test_strategy_weights_match_choice(self, seed, random, prior):
        rest = 1.0 - random
        probs = SamplerWeights(random, rest * prior, rest * (1.0 - prior)).as_array()
        self.assert_draws_match(seed, cs.choice_cdf(probs), probs)

    # sha256 of 200 consecutive draws from default_rng(2024), then the
    # stream's next uniform, recorded before draws used cached CDFs
    SAMPLE_PINS = {
        "uniform": ("99d09e99e590d56661c03c56df5c2f8a95c9cc78412bfcddc2ced92c6db0a19d",
                    0.20054870007835635),
        "prior": ("e9e74ecb0a90e94f263f7b5e3984314a69925cec32ec089b5954c2a013d543e5",
                  0.16543487921893096),
        "around": ("25f0814e9fa89aadcea30f98e08288c57157c093ebc0975bfbac504a8ead7403",
                   0.4008620659208203),
    }

    @pytest.mark.parametrize("kind", sorted(SAMPLE_PINS))
    def test_sample_stream_pinned(self, kind, stream=np.random.default_rng):
        space = table_space()
        strategy = ("around", cs.sample(space, "uniform", 7)) if kind == "around" else kind
        rng = stream(2024)
        digest = hashlib.sha256()
        for _ in range(200):
            config = cs.sample(space, strategy, rng)
            digest.update((json.dumps(config.assignments, sort_keys=True) + "|"
                           + serialize(config.derivation) + "\n").encode())
        assert (digest.hexdigest(), rng.random()) == self.SAMPLE_PINS[kind]

    @pytest.mark.parametrize("kind", sorted(SAMPLE_PINS))
    def test_port_stream_pinned(self, kind):
        """The same pins from the pure-Python stream a run draws from."""
        self.test_sample_stream_pinned(kind, stream=PCG64)
