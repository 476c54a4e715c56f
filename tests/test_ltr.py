"""Ranking metrics and the coordinate-ascent trainer."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gistrank.errors import IntegrityError, TrainingError
from gistrank.ltr import (
    CoordinateAscentConfig,
    RankModel,
    Ranking,
    TrainingExample,
    average_precision,
    load_model,
    mean_metric,
    precision_at_k,
    rank,
    save_model,
    train_coordinate_ascent,
)


def ap_oracle(bools):
    """Direct-definition AP in exact rational arithmetic."""
    hits = 0
    total = Fraction(0)
    for position, relevant in enumerate(bools, start=1):
        if relevant:
            hits += 1
            total += Fraction(hits, position)
    return float(total / hits) if hits else 0.0


def p_at_k_oracle(bools, k):
    return float(Fraction(sum(bools[:k]), k))


class TestAveragePrecision:
    def test_worked_example(self):
        assert average_precision([True, False, True]) == pytest.approx(
            (1 / 1 + 2 / 3) / 2, abs=1e-9
        )

    def test_all_relevant(self):
        for n in range(1, 6):
            assert average_precision([True] * n) == 1.0

    def test_no_relevant_is_zero(self):
        assert average_precision([False, False]) == 0.0
        assert average_precision([]) == 0.0

    def test_exhaustive_against_oracle(self):
        for length in range(0, 9):
            for bools in itertools.product([False, True], repeat=length):
                assert average_precision(list(bools)) == pytest.approx(
                    ap_oracle(bools), abs=1e-12
                )


class TestPrecisionAtK:
    def test_examples(self):
        assert precision_at_k([True, True, False, True], 3) == pytest.approx(2 / 3)
        assert precision_at_k([True] * 5, 5) == 1.0
        assert precision_at_k([True], 50) == pytest.approx(0.02)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            precision_at_k([True], 0)

    def test_exhaustive_against_oracle(self):
        for length in range(0, 9):
            for bools in itertools.product([False, True], repeat=length):
                for k in range(1, 11):
                    assert precision_at_k(list(bools), k) == pytest.approx(
                        p_at_k_oracle(bools, k), abs=1e-12
                    )


class TestMeanMetric:
    def test_values(self):
        assert mean_metric([1.0]) == 1.0
        assert mean_metric([0.5, 1.0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_metric([])


class TestRanking:
    def test_sorted_enforced(self):
        with pytest.raises(IntegrityError):
            Ranking(query_id="q", items=(("a", 0.1), ("b", 0.9)))

    def test_tie_order_enforced(self):
        with pytest.raises(IntegrityError):
            Ranking(query_id="q", items=(("b", 0.5), ("a", 0.5)))

    def test_duplicate_doc_rejected(self):
        with pytest.raises(IntegrityError):
            Ranking(query_id="q", items=(("a", 0.9), ("a", 0.1)))


class TestRank:
    def model(self, weights):
        return RankModel(
            weights=tuple(weights),
            feature_names=tuple(f"f{i}" for i in range(len(weights))),
            training_map=0.0,
        )

    def test_orders_by_score(self):
        ranking = rank(self.model([1.0, 0.0]), [("a", (0.9, 0.0)), ("b", (0.1, 0.0))])
        assert ranking.doc_ids == ("a", "b")

    def test_ties_break_by_doc_id(self):
        ranking = rank(self.model([1.0]), [("b", (0.5,)), ("a", (0.5,)), ("c", (0.5,))])
        assert ranking.doc_ids == ("a", "b", "c")

    def test_dimension_mismatch(self):
        with pytest.raises(IntegrityError):
            rank(self.model([1.0, 0.0]), [("a", (0.9,))])

    def test_empty_candidates(self):
        assert rank(self.model([1.0]), []).items == ()

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.lists(
            st.tuples(
                st.floats(min_value=-5, max_value=5, allow_nan=False),
                st.floats(min_value=-5, max_value=5, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_positive_scaling_invariance(self, scale, rows):
        candidates = [(f"d{i}", row) for i, row in enumerate(rows)]
        base = self.model([0.7, -0.3])
        scaled = self.model([0.7 * scale, -0.3 * scale])
        assert rank(base, candidates).doc_ids == rank(scaled, candidates).doc_ids


def separable_examples(n_queries=20, n_noise=15, seed=0):
    """Queries where dimension 0 perfectly separates relevant from irrelevant."""
    rng = np.random.default_rng(seed)
    examples = []
    for q in range(n_queries):
        for d in range(6):
            relevant = d < 2
            informative = rng.uniform(0.6, 1.0) if relevant else rng.uniform(0.0, 0.4)
            noise = rng.uniform(0.0, 1.0, size=n_noise)
            examples.append(
                TrainingExample(
                    query_id=f"q{q:02d}",
                    doc_id=f"d{d}",
                    features=(float(informative), *map(float, noise)),
                    grade=5 if relevant else 1,
                )
            )
    return examples, [f"f{i}" for i in range(n_noise + 1)]


class TestTrainCoordinateAscent:
    def test_single_informative_feature(self):
        examples = [
            TrainingExample("q", "a", (0.9,), 5),
            TrainingExample("q", "b", (0.1,), 1),
        ]
        model = train_coordinate_ascent(examples, ["f0"], CoordinateAscentConfig(restarts=1))
        assert model.training_map == 1.0

    def test_constant_features_return_uniform_weights(self):
        examples = [
            TrainingExample("q", "a", (0.5, 0.5), 1),
            TrainingExample("q", "b", (0.5, 0.5), 5),
        ]
        model = train_coordinate_ascent(examples, ["f0", "f1"], CoordinateAscentConfig())
        assert model.weights == (0.5, 0.5)
        # tie-broken ranking is (a, b): the relevant doc sits second -> AP 1/2
        assert model.training_map == pytest.approx(0.5)

    def test_separable_set_reaches_map_one(self):
        examples, names = separable_examples()
        model = train_coordinate_ascent(examples, names, CoordinateAscentConfig(seed=11))
        assert model.training_map == 1.0

    def test_unit_l1_norm(self):
        examples, names = separable_examples(n_queries=5)
        model = train_coordinate_ascent(examples, names, CoordinateAscentConfig(restarts=2))
        assert sum(abs(w) for w in model.weights) == pytest.approx(1.0, abs=1e-9)

    def test_no_relevant_documents_is_training_error(self):
        examples = [
            TrainingExample("q", "a", (0.9,), 1),
            TrainingExample("q", "b", (0.1,), 2),
        ]
        with pytest.raises(TrainingError, match="relevant"):
            train_coordinate_ascent(examples, ["f0"], CoordinateAscentConfig())

    def test_zero_restarts_is_training_error(self):
        examples, names = separable_examples(n_queries=2)
        with pytest.raises(TrainingError, match="restarts"):
            train_coordinate_ascent(examples, names, CoordinateAscentConfig(restarts=0))

    def test_dimension_mismatch_is_integrity_error(self):
        examples = [TrainingExample("q", "a", (0.9, 0.2), 5)]
        with pytest.raises(IntegrityError):
            train_coordinate_ascent(examples, ["f0"], CoordinateAscentConfig())

    def test_reproducible_model_files(self, tmp_path):
        examples, names = separable_examples(seed=3)
        config = CoordinateAscentConfig(seed=42)
        model_a = train_coordinate_ascent(examples, names, config)
        model_b = train_coordinate_ascent(examples, names, config)
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model_a, path_a)
        save_model(model_b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_model_round_trip(self, tmp_path):
        examples, names = separable_examples(n_queries=3)
        model = train_coordinate_ascent(examples, names, CoordinateAscentConfig(restarts=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.weights == model.weights
        assert loaded.feature_names == model.feature_names
        assert loaded.training_map == model.training_map

    def test_relevance_threshold_configurable(self):
        examples = [
            TrainingExample("q", "a", (0.9,), 3),
            TrainingExample("q", "b", (0.1,), 1),
        ]
        with pytest.raises(TrainingError):
            train_coordinate_ascent(examples, ["f0"], CoordinateAscentConfig())
        model = train_coordinate_ascent(
            examples, ["f0"], CoordinateAscentConfig(relevance_threshold=3)
        )
        assert model.training_map == 1.0


def test_model_weight_name_mismatch():
    with pytest.raises(IntegrityError):
        RankModel(weights=(0.5,), feature_names=("a", "b"), training_map=0.0)
