"""Ranking metrics and the coordinate-ascent trainer."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gistrank import ltr
from gistrank.errors import IntegrityError, TrainingError
from gistrank.ltr import (
    AscentStats,
    CoordinateAscentConfig,
    RankModel,
    Ranking,
    average_precision,
    mean_metric,
    precision_at_k,
    rank,
    train_coordinate_ascent,
)
from gistrank.pipeline import ARTIFACTS
from gistrank.topics import InstanceVector, Lexicon, stack_vectors, train_topic_models


@dataclasses.dataclass(frozen=True)
class TrainingExample:
    """One graded document of one query, the form the reference loop takes."""

    query_id: str
    doc_id: str
    features: tuple[float, ...]
    grade: int


def as_queries(examples):
    """Examples as the trainer's queries: in query-id order, rows in doc-id order."""
    grouped = {}
    for example in examples:
        grouped.setdefault(example.query_id, []).append(example)
    queries = []
    for query_id in sorted(grouped):
        docs = sorted(grouped[query_id], key=lambda e: e.doc_id)
        matrix = np.array([e.features for e in docs], dtype=np.float64)
        queries.append((matrix, np.array([e.grade for e in docs])))
    return queries


def train_examples(examples, feature_names, config=CoordinateAscentConfig(), stats=None):
    """``train_coordinate_ascent`` on one example set."""
    (model,) = train_coordinate_ascent([as_queries(examples)], feature_names, config, stats)
    return model


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


def rank_oracle(model, doc_ids, matrix):
    """The sort ``rank`` replaced: Python's ``sorted`` on (-score, doc id)."""
    scores = matrix @ np.asarray(model.weights)
    order = sorted(range(len(doc_ids)), key=lambda i: (-scores[i], doc_ids[i]))
    return tuple((doc_ids[i], float(scores[i])) for i in order)


# Few distinct values make exact score ties likely, -0.0 among them.
TIE_VALUES = (0.0, -0.0, 0.5, -0.5, 1.0, 2.0)


@st.composite
def rank_inputs(draw):
    """Weights, distinct doc ids and a document matrix; the ids include ones
    whose string and numeric orders differ ("2" and "10")."""
    n_dims = draw(st.integers(1, 3))
    value = st.sampled_from(TIE_VALUES) | st.floats(-3, 3, allow_nan=False)
    weights = draw(st.lists(value, min_size=n_dims, max_size=n_dims))
    doc_id = st.sampled_from(["2", "10", "1", "01", "-3", " 7", "a", "B", "é"]) | st.text(max_size=3)
    doc_ids = draw(st.lists(doc_id, unique=True, max_size=12))
    rows = draw(st.lists(
        st.lists(value, min_size=n_dims, max_size=n_dims), min_size=len(doc_ids), max_size=len(doc_ids)
    ))
    return weights, doc_ids, np.array(rows, dtype=np.float64).reshape(len(doc_ids), n_dims)


class TestRank:
    def model(self, weights):
        return RankModel(
            weights=tuple(weights),
            feature_names=tuple(f"f{i}" for i in range(len(weights))),
            training_map=0.0,
        )

    def test_orders_by_score(self):
        ranking = rank(self.model([1.0, 0.0]), ["b", "a"], np.array([[0.1, 0.0], [0.9, 0.0]]))
        assert ranking.doc_ids == ("a", "b")

    def test_ties_break_by_doc_id(self):
        ranking = rank(self.model([1.0]), ["b", "2", "a", "10"], np.full((4, 1), 0.5))
        assert ranking.doc_ids == ("10", "2", "a", "b")

    def test_dimension_mismatch(self):
        with pytest.raises(IntegrityError):
            rank(self.model([1.0, 0.0]), ["a"], np.array([[0.9]]))
        with pytest.raises(IntegrityError):
            rank(self.model([1.0]), ["a", "b"], np.array([[0.9]]))

    def test_empty_candidates(self):
        assert rank(self.model([1.0]), [], np.zeros((0, 1))).items == ()

    # Rounding breaks exact invariance under an arbitrary positive scale: two
    # scores 1 ulp apart can round to one value once the weights are tripled.
    # A power-of-two scale multiplies every product and sum exactly as long as
    # nothing underflows, so the values are 0 or at least 1e-300 in size.
    _value = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-300, max_value=5, allow_subnormal=False),
        st.floats(min_value=-5, max_value=-1e-300, allow_subnormal=False),
    )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=-6, max_value=6).map(lambda k: 2.0**k),
        st.lists(st.tuples(_value, _value), min_size=1, max_size=8),
    )
    def test_positive_scaling_invariance(self, scale, rows):
        doc_ids, matrix = [f"d{i}" for i in range(len(rows))], np.array(rows)
        base = self.model([0.7, -0.3])
        scaled = self.model([0.7 * scale, -0.3 * scale])
        assert rank(base, doc_ids, matrix).doc_ids == rank(scaled, doc_ids, matrix).doc_ids

    @settings(max_examples=300, deadline=None)
    @given(rank_inputs())
    def test_equals_python_sort(self, data):
        weights, doc_ids, matrix = data
        model = self.model(weights)
        # repr tells -0.0 from 0.0 apart.
        assert repr(rank(model, doc_ids, matrix).items) == repr(rank_oracle(model, doc_ids, matrix))



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
        model = train_examples(examples, ["f0"], CoordinateAscentConfig(restarts=1))
        assert model.training_map == 1.0

    def test_constant_features_return_uniform_weights(self):
        examples = [
            TrainingExample("q", "a", (0.5, 0.5), 1),
            TrainingExample("q", "b", (0.5, 0.5), 5),
        ]
        model = train_examples(examples, ["f0", "f1"], CoordinateAscentConfig())
        assert model.weights == (0.5, 0.5)
        # tie-broken ranking is (a, b): the relevant doc sits second -> AP 1/2
        assert model.training_map == pytest.approx(0.5)

    def test_separable_set_reaches_map_one(self):
        examples, names = separable_examples()
        model = train_examples(examples, names, CoordinateAscentConfig(seed=11))
        assert model.training_map == 1.0

    def test_unit_l1_norm(self):
        examples, names = separable_examples(n_queries=5)
        model = train_examples(examples, names, CoordinateAscentConfig(restarts=2))
        assert sum(abs(w) for w in model.weights) == pytest.approx(1.0, abs=1e-9)

    def test_no_relevant_documents_is_training_error(self):
        examples = [
            TrainingExample("q", "a", (0.9,), 1),
            TrainingExample("q", "b", (0.1,), 2),
        ]
        with pytest.raises(TrainingError, match="relevant"):
            train_examples(examples, ["f0"], CoordinateAscentConfig())

    def test_zero_restarts_is_training_error(self):
        examples, names = separable_examples(n_queries=2)
        with pytest.raises(TrainingError, match="restarts"):
            train_examples(examples, names, CoordinateAscentConfig(restarts=0))

    def test_dimension_mismatch_is_integrity_error(self):
        examples = [TrainingExample("q", "a", (0.9, 0.2), 5)]
        with pytest.raises(IntegrityError):
            train_examples(examples, ["f0"], CoordinateAscentConfig())

    def test_reproducible_model_files(self, tmp_path):
        examples, names = separable_examples(seed=3)
        config = CoordinateAscentConfig(seed=42)
        model_a = train_examples(examples, names, config)
        model_b = train_examples(examples, names, config)
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        ARTIFACTS["model1.json"].write(path_a, model_a)
        ARTIFACTS["model1.json"].write(path_b, model_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_model_round_trip(self, tmp_path):
        examples, names = separable_examples(n_queries=3)
        model = train_examples(examples, names, CoordinateAscentConfig(restarts=1))
        path = tmp_path / "model.json"
        ARTIFACTS["model1.json"].write(path, model)
        loaded = ARTIFACTS["model1.json"].read(path)
        assert loaded.weights == model.weights
        assert loaded.feature_names == model.feature_names
        assert loaded.training_map == model.training_map

    @pytest.mark.parametrize(
        "changes",
        [
            {"min_gain": -1e-3},
            {"min_gain": float("nan")},
            {"min_gain": float("inf")},
            {"step_base": 0.0},
            {"step_base": -0.05},
            {"step_base": float("nan")},
            {"step_base": float("inf")},
            {"step_levels": 1100},
            {"step_base": 1e307},
            {"step_levels": 0},
        ],
    )
    def test_bad_step_settings_are_training_errors(self, changes):
        # A negative min_gain used to accept steps of no gain forever; a NaN
        # one accepted no step at all. 2.0**1099 overflowed with a raw
        # OverflowError, 1e307 * 2**9 trained on with infinite steps, and no
        # step level at all failed with a raw IndexError.
        examples, names = separable_examples(n_queries=3)
        config = dataclasses.replace(CoordinateAscentConfig(restarts=1), **changes)
        with pytest.raises(TrainingError, match=next(iter(changes))):
            train_examples(examples, names, config)

    def test_relevance_threshold_configurable(self):
        examples = [
            TrainingExample("q", "a", (0.9,), 3),
            TrainingExample("q", "b", (0.1,), 1),
        ]
        with pytest.raises(TrainingError):
            train_examples(examples, ["f0"], CoordinateAscentConfig())
        model = train_examples(examples, ["f0"], CoordinateAscentConfig(relevance_threshold=3))
        assert model.training_map == 1.0


def test_model_weight_name_mismatch():
    with pytest.raises(IntegrityError):
        RankModel(weights=(0.5,), feature_names=("a", "b"), training_map=0.0)


def loop_train_coordinate_ascent(examples, feature_names, config=CoordinateAscentConfig()):
    """Reference: the per-restart, per-coordinate, per-query loop the batched trainer replaced.

    Every probe re-sorts every query's scores under all steps and recomputes
    each query's AP from scratch.
    """

    def batch_ap(matrix, relevant, scores):
        n_relevant = int(relevant.sum())
        if n_relevant == 0:
            return np.zeros(scores.shape[0])
        order = np.argsort(-scores, axis=1, kind="stable")
        rel = relevant[order]
        cum = np.cumsum(rel, axis=1)
        precision = cum / np.arange(1, matrix.shape[0] + 1, dtype=np.float64)
        return (precision * rel).sum(axis=1) / n_relevant

    def unit_l1(weights):
        return weights / np.abs(weights).sum()

    n_dims = len(feature_names)
    grouped = {}
    for example in examples:
        grouped.setdefault(example.query_id, []).append(example)
    blocks = []
    for query_id in sorted(grouped):
        docs = sorted(grouped[query_id], key=lambda e: e.doc_id)
        matrix = np.asarray([e.features for e in docs], dtype=np.float64)
        relevant = np.asarray([e.grade >= config.relevance_threshold for e in docs], dtype=bool)
        blocks.append((matrix, relevant))
    deltas = np.array(
        [sign * config.step_base * (2.0**level) for level in range(config.step_levels) for sign in (1.0, -1.0)]
    )

    best_weights, best_map = None, -1.0
    for restart in range(config.restarts):
        if restart == 0:
            weights = np.full(n_dims, 1.0 / n_dims)
        else:
            rng = np.random.default_rng((config.seed, restart))
            weights = rng.standard_normal(n_dims)
            if np.abs(weights).sum() == 0.0:
                weights = np.full(n_dims, 1.0 / n_dims)
            weights = unit_l1(weights)
        current = 0.0
        for matrix, relevant in blocks:
            current += float(batch_ap(matrix, relevant, (matrix @ weights)[None, :])[0])
        current /= len(blocks)
        improved = True
        while improved:
            improved = False
            for dim in range(n_dims):
                candidate_maps = np.zeros(len(deltas))
                for matrix, relevant in blocks:
                    base = matrix @ weights
                    shifted = base[None, :] + deltas[:, None] * matrix[:, dim][None, :]
                    candidate_maps += batch_ap(matrix, relevant, shifted)
                candidate_maps /= len(blocks)
                best_idx = int(np.argmax(candidate_maps))
                if candidate_maps[best_idx] > current + config.min_gain:
                    trial = weights.copy()
                    trial[dim] += deltas[best_idx]
                    if np.abs(trial).sum() == 0.0:
                        continue
                    weights = unit_l1(trial)
                    current = candidate_maps[best_idx]
                    improved = True
        if current > best_map:
            best_map, best_weights = current, weights
    return RankModel(
        weights=tuple(float(w) for w in best_weights),
        feature_names=tuple(feature_names),
        training_map=float(best_map),
        config=config.as_dict(),
    )


# Grid values make equal scores likely: with five dimensions the uniform
# start weight is 0.2 and the step -0.2 sends a one-feature row exactly to
# the score of an all-zero row.
GRID = (0.25, 0.5, 1.0, 2.0, -0.5)


def random_rows(rng, n_rows, n_dims, density):
    """Sparse rows with all-zero columns and rows, duplicate rows and both signs."""
    rows = np.zeros((n_rows, n_dims))
    dead = rng.random(n_dims) < 0.2
    for i in range(n_rows):
        kind = rng.integers(6)
        if kind == 0 or (kind == 1 and i == 0):
            continue  # all-zero row
        if kind == 1:
            rows[i] = rows[rng.integers(i)]  # duplicate row: exact score ties
        elif kind == 2:
            rows[i, rng.integers(n_dims)] = GRID[rng.integers(len(GRID))]
        else:
            mask = rng.random(n_dims) < density
            grid = np.asarray(GRID)[rng.integers(len(GRID), size=n_dims)]
            rows[i] = np.where(mask, np.where(rng.random(n_dims) < 0.5, grid, rng.normal(size=n_dims)), 0.0)
    rows[:, dead] = 0.0
    return rows


@st.composite
def training_sets(draw):
    """Queries of mixed lengths: one-document queries, queries without a
    relevant document, and queries long enough that sparse columns move few
    of their documents."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_dims = draw(st.sampled_from([1, 2, 3, 5, 5]))
    density = draw(st.sampled_from([0.1, 0.3, 0.8]))
    lengths = draw(st.lists(st.sampled_from([1, 2, 3, 9, 17, 24]), min_size=1, max_size=4))
    lengths[0] = max(lengths[0], 2)
    examples = []
    for q, n_docs in enumerate(lengths):
        rows = random_rows(rng, n_docs, n_dims, density)
        grades = rng.integers(0, 6, size=n_docs)
        if q == 0:
            grades[rng.integers(n_docs)] = 5
        for d in rng.permutation(n_docs):
            examples.append(
                TrainingExample(f"q{q}", f"d{d:02d}", tuple(float(x) for x in rows[d]), int(grades[d]))
            )
    config = CoordinateAscentConfig(
        restarts=draw(st.integers(1, 3)),
        step_base=draw(st.sampled_from([0.05, 0.1])),
        step_levels=draw(st.integers(1, 3)),
        min_gain=draw(st.sampled_from([0.0, 1e-6])),
        seed=draw(st.integers(0, 100)),
        relevance_threshold=3,
    )
    return examples, [f"f{i}" for i in range(n_dims)], config


def topic_data(rng, n_instances, n_dims, topics, density):
    vectors = []
    rows = random_rows(rng, n_instances, n_dims, density)
    for i in range(n_instances):
        entries = {d: float(rows[i, d]) for d in range(n_dims) if rows[i, d] != 0.0}
        vectors.append(InstanceVector(instance_id=f"i{i:02d}", entries=entries))
    gold = {}
    for i, vector in enumerate(vectors):
        gold[vector.instance_id] = {t for t in topics if rng.random() < 0.3}
    for k, topic in enumerate(topics):  # every topic has a positive and a negative
        gold[vectors[k % n_instances].instance_id].add(topic)
        gold[vectors[(k + 1) % n_instances].instance_id].discard(topic)
    return vectors, gold


def topic_examples(vectors, gold, topic, n_dims):
    return [
        TrainingExample(topic, v.instance_id, tuple(row), 1 if topic in gold[v.instance_id] else 0)
        for v, row in zip(vectors, stack_vectors(vectors, n_dims).tolist())
    ]


class TestBatchedTrainerMatchesLoop:
    @settings(max_examples=80, deadline=None)
    @given(training_sets())
    def test_models_equal_loop(self, data):
        examples, names, config = data
        assert train_examples(examples, names, config) == loop_train_coordinate_ascent(
            examples, names, config
        )

    # A ratio of 0 re-places the moved documents in every probe, also when
    # every document moves; a ratio above any document count re-sorts every
    # probed query. The other path fails the test if it is taken. A slice
    # budget of 1 probes every pair alone, one of 100 a few pairs at a time
    # (how many depends on the query length), and one of 2**30 all at once.
    @pytest.mark.parametrize("ratio, unused", [(0, "_resort"), (10**9, "_replace")])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=training_sets())
    def test_each_probe_path_alone_equals_loop(self, monkeypatch, ratio, unused, data):
        def unused_path(*args):
            raise AssertionError(f"{unused} ran with _SPARSE_RATIO = {ratio}")

        monkeypatch.setattr(ltr, "_SPARSE_RATIO", ratio)
        monkeypatch.setattr(ltr._LengthGroup, unused, unused_path)
        examples, names, config = data
        expected = loop_train_coordinate_ascent(examples, names, config)
        for budget in (1, 100, 1 << 30):
            monkeypatch.setattr(ltr, "_SLICE_ELEMENTS", budget)
            assert train_examples(examples, names, config) == expected

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([9, 17, 30]),
        st.sampled_from([3, 5, 8]),
        st.sampled_from([0.1, 0.4]),
        st.integers(1, 4),
    )
    def test_topic_models_equal_loop(self, seed, n_instances, n_dims, density, n_topics):
        rng = np.random.default_rng(seed)
        topics = [f"t{k}" for k in range(n_topics)]
        vectors, gold = topic_data(rng, n_instances, n_dims, topics, density)
        lexicon = Lexicon(entries={d: d for d in range(n_dims)}, top_k=10)
        config = CoordinateAscentConfig(restarts=2, step_levels=3, seed=seed % 50, relevance_threshold=1)
        models = train_topic_models(vectors, gold, topics, lexicon, config)
        assert list(models) == topics
        for topic, model in models.items():
            examples = topic_examples(vectors, gold, topic, n_dims)
            assert model == loop_train_coordinate_ascent(
                examples, lexicon.feature_names(), config
            )

    @settings(max_examples=20, deadline=None)
    @given(st.lists(training_sets(), min_size=1, max_size=3), st.integers(1, 5))
    def test_joint_training_equals_training_alone(self, sets, restarts):
        # Sets of different queries, lengths and widths, one shared config.
        n_dims = max(len(names) for _, names, _ in sets)
        names = [f"f{i}" for i in range(n_dims)]
        config = dataclasses.replace(sets[0][2], restarts=restarts)
        padded = [
            [
                dataclasses.replace(e, features=e.features + (0.0,) * (n_dims - len(e.features)))
                for e in examples
            ]
            for examples, _, _ in sets
        ]
        joint = train_coordinate_ascent([as_queries(examples) for examples in padded], names, config)
        assert len(joint) == len(padded)
        for model, examples in zip(joint, padded):
            assert model == train_examples(examples, names, config)

    def test_topics_jointly_equal_each_topic_alone(self):
        rng = np.random.default_rng(12)
        topics = [f"t{k}" for k in range(5)]
        vectors, gold = topic_data(rng, 40, 12, topics, 0.15)
        lexicon = Lexicon(entries={d: d for d in range(12)}, top_k=10)
        config = CoordinateAscentConfig(restarts=3, relevance_threshold=1)
        models = train_topic_models(vectors, gold, topics, lexicon, config)
        for topic, model in models.items():
            assert train_topic_models(vectors, gold, [topic], lexicon, config) == {topic: model}

    def test_moved_document_ties_an_unmoved_one(self):
        # Uniform start weights 0.2; the step -0.2 on a dimension sends each
        # row that is non-zero only there to score 0, the score of the
        # all-zero rows, and the doc index alone decides their order. About
        # two rows in 32 move per dimension, so only they are re-placed.
        rng = np.random.default_rng(6)
        examples = []
        for q in range(2):
            for d in range(32):
                row = [0.0] * 5
                if rng.random() < 0.3:
                    row[rng.integers(5)] = GRID[rng.integers(4)]
                examples.append(TrainingExample(f"q{q}", f"d{d:02d}", tuple(row), int(rng.integers(0, 6))))
        config = CoordinateAscentConfig(restarts=1, step_levels=3, min_gain=0.0)
        names = [f"f{i}" for i in range(5)]
        assert train_examples(examples, names, config) == loop_train_coordinate_ascent(
            examples, names, config
        )

    def test_moved_documents_of_both_relevances(self):
        # Long sparse queries where documents of both relevance values move
        # on one coordinate, each crossing only its own kind, and their
        # reordering among themselves changes the relevance sequence.
        rng = np.random.default_rng(70)
        examples = []
        for q in range(2):
            rows = random_rows(rng, 32, 4, 0.1)
            grades = rng.integers(0, 6, size=32)
            examples += [
                TrainingExample(f"q{q}", f"d{d:02d}", tuple(float(x) for x in rows[d]), int(grades[d]))
                for d in range(32)
            ]
        names = [f"f{i}" for i in range(4)]
        config = CoordinateAscentConfig(restarts=2, step_levels=4, relevance_threshold=3)
        assert train_examples(examples, names, config) == loop_train_coordinate_ascent(
            examples, names, config
        )

    def test_queries_summed_in_query_order(self):
        # Six queries: summing their APs in any other order changes the last
        # bits of some candidate MAP, and with them the model.
        rng = np.random.default_rng(1)
        examples = []
        for q in range(6):
            rows = random_rows(rng, 9, 4, 0.5)
            grades = rng.integers(0, 6, size=9)
            examples += [
                TrainingExample(f"q{q}", f"d{d}", tuple(float(x) for x in rows[d]), int(grades[d]))
                for d in range(9)
            ]
        names = [f"f{i}" for i in range(4)]
        config = CoordinateAscentConfig(restarts=2, step_levels=4)
        assert train_examples(examples, names, config) == loop_train_coordinate_ascent(
            examples, names, config
        )

    def test_no_example_sets_no_models(self):
        assert train_coordinate_ascent([], ["f0"], CoordinateAscentConfig(restarts=0)) == []
        assert train_topic_models([], {}, [], Lexicon(entries={0: 0}, top_k=10)) == {}


def probed_restarts(monkeypatch, config, n_dims):
    """Record the (problem, restart) of the runs of every probe, one set per call.

    A run's restart is found from its start weights."""
    calls, labels = [], []
    starts = [ltr._initial_weights(n_dims, config.seed, k) for k in range(config.restarts)]
    ascend, probe = ltr._ascend, ltr._LengthGroup.probe

    def recording_ascend(runs, problem, *args):
        labels[:] = [
            (int(p), next(k for k, w in enumerate(starts) if np.array_equal(w, start)))
            for (_, start), p in zip(runs, problem)
        ]
        return ascend(runs, problem, *args)

    def recording_probe(self, pairs, dim, deltas):
        calls.append({labels[r] for r in self.run[pairs].tolist()})
        return probe(self, pairs, dim, deltas)

    monkeypatch.setattr(ltr, "_ascend", recording_ascend)
    monkeypatch.setattr(ltr._LengthGroup, "probe", recording_probe)
    return calls


def mixed_queries(seed):
    """Three five-document queries, about 40% relevant; some have no
    relevant document, so the MAP ceiling may be below 1."""
    rng = np.random.default_rng(seed)
    examples = []
    for q in range(3):
        for d in range(5):
            relevant = rng.random() < 0.4
            row = rng.normal(size=3) + (0.8 if relevant else 0.0) * np.array([1.0, -1.0, 0.5])
            examples.append(
                TrainingExample(f"q{q}", f"d{d}", tuple(float(x) for x in row), 5 if relevant else 0)
            )
    return examples, ["f0", "f1", "f2"]


@st.composite
def relevance_rows(draw):
    """Ranked relevance rows of one length, each with a relevant document:
    all relevant first, one relevant swapped out of the top, or random."""
    n_docs = draw(st.integers(1, 400))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        n_relevant = draw(st.integers(1, n_docs))
        row = [True] * n_relevant + [False] * (n_docs - n_relevant)
        kind = draw(st.sampled_from(["first", "swap", "random"]))
        if kind == "swap" and n_relevant < n_docs:
            i = draw(st.integers(0, n_relevant - 1))
            j = draw(st.integers(n_relevant, n_docs - 1))
            row[i], row[j] = row[j], row[i]
        elif kind == "random":
            row = draw(st.permutations(row))
        rows.append(row)
    return np.array(rows)


class TestCeilingStop:
    """The stop at the training-MAP ceiling and the prune of later restarts
    leave every model equal to the loop's, which trains every restart to
    the end."""

    def test_run_starting_at_ceiling(self, monkeypatch):
        # Uniform weights already rank every relevant document first, so
        # restart 0 stops before any probe and the others are skipped.
        examples = [
            TrainingExample(f"q{q}", f"d{d}", (1.0 - d / 4, 0.5 - d / 8), 5 if d < 2 else 1)
            for q in range(2)
            for d in range(4)
        ]
        config = CoordinateAscentConfig(restarts=5, seed=4)
        calls = probed_restarts(monkeypatch, config, 2)
        stats = AscentStats()
        model = train_examples(examples, ["f0", "f1"], config, stats)
        assert calls == []
        assert model == loop_train_coordinate_ascent(examples, ["f0", "f1"], config)
        assert model.weights == (0.5, 0.5) and model.training_map == 1.0
        assert stats == AscentStats(runs=1, at_ceiling=1, skipped=4)

    def test_ceiling_below_one(self):
        # q0 has one document, relevant: AP 1 under any weights. q1 ranks its
        # relevant document second until a step on f1. q2 has no relevant
        # document. The ceiling is 2/3, and uniform weights start at 1/2.
        examples = [
            TrainingExample("q0", "a", (0.2, 0.7), 5),
            TrainingExample("q1", "a", (1.0, 0.0), 1),
            TrainingExample("q1", "b", (0.0, 1.0), 5),
            TrainingExample("q2", "a", (0.3, 0.2), 1),
            TrainingExample("q2", "b", (0.1, 0.9), 2),
        ]
        config = CoordinateAscentConfig(restarts=2, seed=1)
        stats = AscentStats()
        model = train_examples(examples, ["f0", "f1"], config, stats)
        assert model == loop_train_coordinate_ascent(examples, ["f0", "f1"], config)
        assert model.training_map == 2 / 3 and model.weights != (0.5, 0.5)
        assert stats.at_ceiling >= 1

    def test_later_restart_starts_at_ceiling(self):
        # Restart 1 of seed 0 starts at about (0.10, -0.90) and ranks b
        # first; uniform weights rank a first, and restart 0 reaches MAP 1
        # only after a step on f1. Restart 0 must still win, and restart 1,
        # which could at best tie it, is never trained.
        examples = [TrainingExample("q", "a", (1.0, 1.0), 1), TrainingExample("q", "b", (1.0, 0.0), 5)]
        config = CoordinateAscentConfig(restarts=2, seed=0)
        stats = AscentStats()
        model = train_examples(examples, ["f0", "f1"], config, stats)
        assert model == loop_train_coordinate_ascent(examples, ["f0", "f1"], config)
        assert model.weights[1] < 0 < model.weights[0]
        assert stats == AscentStats(runs=1, at_ceiling=1, skipped=1)

    # Trained alone, restart 0 reaches the ceiling (below 1 on 47 and 100)
    # on 9, 47, 100, 108 and 191, and restarts 1 and 2 are never trained.
    # On 12, 203 and 346 it ends below, and restart 2 reaches the ceiling
    # before restart 1, after one or more steps.
    OUT_OF_ORDER_STATS = {
        **dict.fromkeys([9, 47, 100, 108, 191], AscentStats(runs=1, at_ceiling=1, skipped=2)),
        **dict.fromkeys([12, 203, 346], AscentStats(runs=3, at_ceiling=2, skipped=0)),
    }

    @pytest.mark.parametrize("seed", [9, 12, 47, 100, 108, 191, 203, 346])
    def test_restarts_reaching_ceiling_out_of_order(self, seed):
        examples, names = mixed_queries(seed)
        config = CoordinateAscentConfig(restarts=3, seed=seed % 7, relevance_threshold=1)
        stats = AscentStats()
        model = train_examples(examples, names, config, stats)
        assert model == loop_train_coordinate_ascent(examples, names, config)
        assert stats == self.OUT_OF_ORDER_STATS[seed]

    @pytest.mark.parametrize("seed", [0, 42])
    def test_later_restart_at_ceiling_cuts_short_the_next(self, seed):
        # Restart 0 ends below the ceiling (2/3 on 0, 1 on 42); restart 1
        # then reaches it while restart 2 still trains, and stops it.
        examples, names = mixed_queries(seed)
        config = CoordinateAscentConfig(restarts=3, seed=seed % 7, relevance_threshold=1)
        stats = AscentStats()
        model = train_examples(examples, names, config, stats)
        assert model == loop_train_coordinate_ascent(examples, names, config)
        assert stats == AscentStats(runs=3, at_ceiling=1, skipped=1)

    def test_joint_problems_prune_only_their_own_restarts(self):
        sets = [mixed_queries(seed)[0] for seed in (9, 12, 47)]
        config = CoordinateAscentConfig(restarts=3, seed=2, relevance_threshold=1)
        joint = train_coordinate_ascent([as_queries(e) for e in sets], ["f0", "f1", "f2"], config)
        for model, examples in zip(joint, sets):
            assert model == loop_train_coordinate_ascent(examples, ["f0", "f1", "f2"], config)

    def test_later_restarts_not_probed_after_restart_0_reaches_ceiling(self, monkeypatch):
        examples, names = separable_examples(n_queries=6, n_noise=4, seed=0)
        config = CoordinateAscentConfig(restarts=5, seed=0)
        calls = probed_restarts(monkeypatch, config, len(names))
        stats = AscentStats()
        model = train_examples(examples, names, config, stats)
        assert model == loop_train_coordinate_ascent(examples, names, config)
        assert model.training_map == 1.0
        # Restart 0 needs steps and reaches the ceiling; no other restart
        # is ever probed.
        assert calls and all(runs == {(0, 0)} for runs in calls)
        assert stats == AscentStats(runs=1, at_ceiling=1, skipped=4)

    def test_later_restarts_probed_only_below_the_ceiling(self, monkeypatch):
        # Four problems trained jointly: restarts 1 and 2 of a problem are
        # probed only when its restart 0, trained alone, ends below the
        # ceiling, and only after every restart 0 has stopped.
        sets = [as_queries(mixed_queries(seed)[0]) for seed in (9, 12, 47, 0)]
        names = ["f0", "f1", "f2"]
        config = CoordinateAscentConfig(restarts=3, seed=2, relevance_threshold=1)
        first_only = dataclasses.replace(config, restarts=1)
        below = []
        for queries in sets:
            ceiling = sum(1.0 if (grades >= 1).any() else 0.0 for _, grades in queries) / len(queries)
            (first,) = train_coordinate_ascent([queries], names, first_only)
            below.append(first.training_map < ceiling)
        assert any(below) and not all(below)
        alone = [train_coordinate_ascent([queries], names, config)[0] for queries in sets]

        calls = probed_restarts(monkeypatch, config, len(names))
        assert train_coordinate_ascent(sets, names, config) == alone
        probed = set().union(*calls)
        for p, is_below in enumerate(below):
            assert (p, 0) in probed
            assert ({(p, 1), (p, 2)} <= probed) == is_below
            assert ({(p, 1), (p, 2)} & probed == set()) == (not is_below)
        later_round = [max(restart for _, restart in runs) > 0 for runs in calls]
        assert later_round == sorted(later_round)

    @settings(max_examples=200, deadline=None)
    @given(relevance_rows())
    def test_ap_never_exceeds_one(self, relevant):
        # The stop is exact because AP is at most 1.0 and is exactly 1.0
        # only when every relevant document ranks first.
        n_relevant = relevant.sum(axis=1)
        ap = ltr._ap_rows(relevant, n_relevant)
        assert (ap <= 1.0).all()
        first = np.array([row[:n].all() for row, n in zip(relevant, n_relevant)])
        assert ((ap == 1.0) == first).all()


@settings(max_examples=100, deadline=None)
@given(relevance_rows(), st.integers(0, 3))
def test_ap_rows_bits_do_not_depend_on_the_batch(relevant, extra):
    # A probe recomputes rows, some equal to the cached one, in batches of
    # other sizes and layouts than the refresh that cached it; a row must get
    # the same bits in each. The strided copy is a view into wider rows, as
    # ``_replace`` passes its rebuilt rows. A probe passes them as (pairs x
    # steps x documents), with one relevant count per pair; here each row
    # is a pair of two equal steps, contiguous and as such a view.
    n_relevant = relevant.sum(axis=1)
    batch = ltr._ap_rows(relevant, n_relevant).tolist()
    alone = [ltr._ap_rows(row[None], n)[0] for row, n in zip(relevant, n_relevant)]
    wide = np.zeros((len(relevant) + extra, relevant.shape[1] + 1), dtype=bool)
    wide[extra:, :-1] = relevant
    strided = ltr._ap_rows(wide[extra:, :-1], n_relevant).tolist()
    assert batch == alone == strided
    steps = np.repeat(relevant[:, None], 2, axis=1)
    wide_steps = np.zeros((len(relevant) + extra, 2, relevant.shape[1] + 1), dtype=bool)
    wide_steps[extra:, :, :-1] = steps
    for rows in (steps, wide_steps[extra:, :, :-1]):
        assert ltr._ap_rows(rows, n_relevant[:, None]).T.tolist() == [batch, batch]


def resorted_ap(group, pairs, dim, deltas):
    """``_ap_rows`` over the rows of a plain stable re-sort of each pair's
    cached scores under each step, and the number of runs of equal rankings
    in ascending step order over the pairs with a document that moves."""
    rows, runs = [], 0
    by_delta = np.argsort(deltas)
    for p in pairs:
        column = group.stack[group.matrix[p], :, dim]
        orders = [np.argsort(-(group.scores[p] + delta * column), kind="stable") for delta in deltas]
        rows.append([group.relevant[p][order] for order in orders])
        if column.any():
            runs += 1 + sum(not np.array_equal(orders[a], orders[b]) for a, b in zip(by_delta, by_delta[1:]))
    return ltr._ap_rows(np.array(rows), group.n_relevant[pairs, None]), runs


def replaced_ap(monkeypatch, group, pairs, dim, deltas, budget):
    """``group.probe`` on the re-place path alone, and how many rows it reduced."""
    reduced = []

    def counting_ap_rows(relevant, n_relevant):
        reduced.append(int(np.prod(relevant.shape[:-1])))
        return ap_rows(relevant, n_relevant)

    def unused_path(*args):
        raise AssertionError("_resort ran with _SPARSE_RATIO = 0")

    ap_rows = ltr._ap_rows
    monkeypatch.setattr(ltr, "_SPARSE_RATIO", 0)
    monkeypatch.setattr(ltr, "_SLICE_ELEMENTS", budget)
    monkeypatch.setattr(ltr, "_ap_rows", counting_ap_rows)
    monkeypatch.setattr(ltr._LengthGroup, "_resort", unused_path)
    try:
        return group.probe(pairs, dim, deltas), sum(reduced)
    finally:
        monkeypatch.undo()


class TestProbeEqualsResort:
    """The APs a probe returns (pairs x steps, in the caller's step order)
    equal, bit for bit, ``_ap_rows`` over rows rebuilt by a plain stable
    re-sort, and only the first step of each run of equal rankings reaches
    ``_ap_rows``. A slice budget of 1 or 100 probes one pair at a time
    here, one of 2**30 all at once."""

    # In the caller's order, as ``train_coordinate_ascent`` interleaves signs.
    DELTAS = np.array([1 / 64, -1 / 64, 1 / 32, -1 / 32, 0.125, -0.125, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0])

    @staticmethod
    def group():
        # Weights (0.5, 0.5, 0): the unmoved documents 1, 2, 5 and 6 score
        # 0.5, and 0 and 9 score 1.0. On dimension 0 the step -0.125 sends
        # document 4 (0.75) to 0.5 and document 8 (1.125) to 1.0, each into
        # a tie with unmoved documents of lower and higher index; the four
        # steps of at most 1/32 leave the cached ranking. On dimension 2 only
        # document 8, first by 0.125, moves, by at most 0.001.
        a = np.array([
            [0, 2, 0], [0, 1, 0], [0, 1, 0], [0, 0.25, 0], [2, -0.5, 0],
            [0, 1, 0], [0, 1, 0], [0, -1, 0], [1, 1.25, 0.001], [0, 2, 0],
        ])
        b = a * [0, 1, 1]  # nothing non-zero on dimension 0
        ones = np.array([0, 1, 0, 0, 1, 0, 1, 1, 1, 0], dtype=bool)
        group = ltr._LengthGroup([(0, 0, a, ones), (0, 1, a, ~ones), (1, 0, b, ones)])
        for run in (0, 1):
            group.refresh(run, np.array([0.5, 0.5, 0.0]))
        return group

    @pytest.mark.parametrize("budget", [1, 100, 1 << 30])
    def test_moved_documents_tie_runs_of_unmoved_ones(self, monkeypatch, budget):
        group, pairs = self.group(), np.arange(3)
        expected, runs = resorted_ap(group, pairs, 0, self.DELTAS)
        tie_step = int(np.flatnonzero(self.DELTAS == -0.125)[0])
        shifted = group.scores[0] + self.DELTAS[tie_step] * group.stack[0, :, 0]
        assert np.argsort(-shifted, kind="stable").tolist() == [0, 8, 9, 1, 2, 4, 5, 6, 3, 7]
        ap, reduced = replaced_ap(monkeypatch, group, pairs, 0, self.DELTAS, budget)
        assert ap.tobytes() == expected.tobytes()
        # The pair on b keeps its cached AP; the four small steps are one run.
        assert reduced == runs <= 2 * (len(self.DELTAS) - 3)
        assert (ap[2] == group.ap[2]).all()

    @pytest.mark.parametrize("budget", [1, 100, 1 << 30])
    def test_probe_where_nothing_changes(self, monkeypatch, budget):
        group, pairs = self.group(), np.arange(3)
        expected, runs = resorted_ap(group, pairs, 2, self.DELTAS)
        ap, reduced = replaced_ap(monkeypatch, group, pairs, 2, self.DELTAS, budget)
        assert ap.tobytes() == expected.tobytes()
        assert ap.tobytes() == np.repeat(group.ap[:, None], len(self.DELTAS), axis=1).tobytes()
        assert reduced == runs == 3  # one row per pair

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32 - 1), st.sampled_from([9, 17, 24]), st.integers(1, 4))
    def test_random_groups(self, monkeypatch, seed, n_docs, n_pairs):
        # Grid weights and steps keep many scores exact, so moved documents
        # tie unmoved ones and equal rankings repeat over steps.
        rng = np.random.default_rng(seed)
        matrices = [random_rows(rng, n_docs, 3, 0.3) for _ in range(2)]
        pairs = []
        for p in range(n_pairs):
            relevant = rng.random(n_docs) < 0.4
            relevant[rng.integers(n_docs)] = True
            pairs.append((p % 2, p, matrices[int(rng.integers(2))], relevant))
        group = ltr._LengthGroup(pairs)
        for run in (0, 1):
            group.refresh(run, np.asarray(GRID)[rng.integers(len(GRID), size=3)])
        deltas = np.array([sign * 0.25 * 2.0**level for level in range(4) for sign in (1.0, -1.0)])
        for dim in range(3):
            expected, runs = resorted_ap(group, np.arange(n_pairs), dim, deltas)
            for budget in (1, 100, 1 << 30):
                ap, reduced = replaced_ap(monkeypatch, group, np.arange(n_pairs), dim, deltas, budget)
                assert ap.tobytes() == expected.tobytes()
                assert reduced == runs
