"""Stage 2: lexicon construction, vectorization, per-topic models."""

import json

import numpy as np
import pytest

from gistrank.errors import IntegrityError, ParseError, TrainingError
from gistrank.ltr import CoordinateAscentConfig, RankModel, Ranking
from gistrank.pipeline import ARTIFACTS
from gistrank.topics import (
    InstanceVector,
    Lexicon,
    build_lexicon,
    rank_images,
    stack_vectors,
    train_topic_models,
    vectorize,
)


def ranking(query_id, pairs):
    return Ranking(query_id=query_id, items=tuple(pairs))


def descending(ids, start=1.0, step=0.01):
    return [(str(i), start - k * step) for k, i in enumerate(ids)]


class TestBuildLexicon:
    def test_identical_top10_lists(self):
        items = descending(range(10))
        rankings = {"a": ranking("a", items), "b": ranking("b", items)}
        assert len(build_lexicon(rankings, top_k=10)) == 10

    def test_disjoint_top10_lists(self):
        rankings = {
            "a": ranking("a", descending(range(10))),
            "b": ranking("b", descending(range(100, 110))),
        }
        assert len(build_lexicon(rankings, top_k=10)) == 20

    def test_empty_input(self):
        assert len(build_lexicon({})) == 0

    def test_truncation_at_top_k(self):
        rankings = {"a": ranking("a", descending(range(30)))}
        assert len(build_lexicon(rankings, top_k=5)) == 5

    def test_dimensions_ascending_node_id(self):
        rankings = {"a": ranking("a", descending([30, 2, 400]))}
        lexicon = build_lexicon(rankings, top_k=3)
        assert lexicon.entries == {2: 0, 30: 1, 400: 2}

    def test_size_bounded_by_topk_times_instances(self):
        rng = np.random.default_rng(2)
        rankings = {}
        for q in range(8):
            ids = rng.choice(200, size=15, replace=False)
            rankings[f"q{q}"] = ranking(f"q{q}", descending(ids))
        lexicon = build_lexicon(rankings, top_k=10)
        assert len(lexicon) <= 10 * len(rankings)

    def test_monotone_in_instances(self):
        base = {"a": ranking("a", descending(range(12)))}
        grown = dict(base)
        grown["b"] = ranking("b", descending(range(8, 20)))
        assert set(build_lexicon(base).entries) <= set(build_lexicon(grown).entries)


class TestVectorize:
    def test_scores_placed_at_dimensions(self):
        lexicon = Lexicon(entries={1: 0, 2: 1}, top_k=10)
        vector = vectorize(ranking("a", [("1", 0.9), ("2", 0.4)]), lexicon)
        assert vector.entries == {0: 0.9, 1: 0.4}

    def test_docs_outside_lexicon_dropped(self):
        lexicon = Lexicon(entries={1: 0}, top_k=10)
        vector = vectorize(ranking("a", [("1", 0.9), ("7", 0.8)]), lexicon)
        assert vector.entries == {0: 0.9}

    def test_empty_ranking(self):
        lexicon = Lexicon(entries={1: 0}, top_k=10)
        vector = vectorize(ranking("a", []), lexicon)
        assert vector.entries == {}
        assert stack_vectors([vector], 1).tolist() == [[0.0]]

    def test_dense_rejects_out_of_range(self):
        vectors = [InstanceVector(instance_id="a", entries={1: 1.0}), InstanceVector("b", {5: 1.0})]
        with pytest.raises(IntegrityError, match="'b': dimension 5 exceeds lexicon size 2"):
            stack_vectors(vectors, 2)


def make_vectors(rng, n, dims, informative_dim, positives):
    vectors = []
    for i in range(n):
        iid = f"i{i:02d}"
        entries = {d: float(rng.uniform(0.1, 0.9)) for d in range(dims)}
        entries[informative_dim] = 1.0 if iid in positives else 0.0
        vectors.append(InstanceVector(instance_id=iid, entries=entries))
    return vectors


class TestTrainTopicModels:
    def lexicon(self, dims):
        return Lexicon(entries={d: d for d in range(dims)}, top_k=10)

    def test_separable_topic_reaches_map_one(self):
        rng = np.random.default_rng(4)
        positives = {"i00", "i01", "i02"}
        vectors = make_vectors(rng, 8, 4, 2, positives)
        gold = {v.instance_id: ({"sky"} if v.instance_id in positives else set()) for v in vectors}
        models = train_topic_models(vectors, gold, ["sky"], self.lexicon(4))
        assert models["sky"].training_map == 1.0

    def test_topics_rank_one_matrix_in_instance_id_order(self, monkeypatch):
        import gistrank.topics as topics_mod

        rng = np.random.default_rng(3)
        vectors = make_vectors(rng, 8, 3, 0, set())
        gold = {v.instance_id: {"a"} if i % 2 else {"b"} for i, v in enumerate(vectors)}
        calls = []
        train = topics_mod.train_coordinate_ascent

        def recording_train(problems, *args):
            calls.append(problems)
            return train(problems, *args)

        monkeypatch.setattr(topics_mod, "train_coordinate_ascent", recording_train)
        models = train_topic_models(vectors[::-1], gold, ["a", "b"], self.lexicon(3))
        ((query_a,), (query_b,)) = calls[0]
        # One matrix object serves every topic, its rows in instance-id order.
        assert query_a[0] is query_b[0]
        assert query_a[0].tolist() == stack_vectors(vectors, 3).tolist()
        assert query_a[1].tolist() == [0, 1] * 4
        assert models == train_topic_models(vectors, gold, ["a", "b"], self.lexicon(3))

    def test_identical_positive_sets_identical_models(self):
        rng = np.random.default_rng(5)
        positives = {"i00", "i03"}
        vectors = make_vectors(rng, 6, 3, 1, positives)
        gold = {
            v.instance_id: ({"a", "b"} if v.instance_id in positives else set())
            for v in vectors
        }
        models = train_topic_models(vectors, gold, ["a", "b"], self.lexicon(3))
        assert models["a"].weights == models["b"].weights
        rankings = rank_images(models, vectors)
        assert rankings["a"].doc_ids == rankings["b"].doc_ids

    def test_topic_without_positive_named_in_error(self):
        rng = np.random.default_rng(6)
        vectors = make_vectors(rng, 4, 2, 0, {"i00"})
        gold = {v.instance_id: set() for v in vectors}
        gold["i00"] = {"present"}
        with pytest.raises(TrainingError, match="missing"):
            train_topic_models(vectors, gold, ["missing"], self.lexicon(2))

    def test_topic_without_negative_rejected(self):
        rng = np.random.default_rng(7)
        vectors = make_vectors(rng, 3, 2, 0, set())
        gold = {v.instance_id: {"all"} for v in vectors}
        with pytest.raises(TrainingError, match="all"):
            train_topic_models(vectors, gold, ["all"], self.lexicon(2))

    def test_per_topic_ap_matches_metric_oracle(self):
        from gistrank.ltr import average_precision

        rng = np.random.default_rng(8)
        topics = ["t0", "t1", "t2"]
        vectors = make_vectors(rng, 9, 5, 0, set())
        gold = {v.instance_id: {topics[i % 3]} for i, v in enumerate(vectors)}
        models = train_topic_models(
            vectors, gold, topics, self.lexicon(5), CoordinateAscentConfig(restarts=2, relevance_threshold=1)
        )
        rankings = rank_images(models, vectors)
        for topic in topics:
            relevance = [topic in gold[iid] for iid in rankings[topic].doc_ids]
            recomputed = average_precision(relevance)
            assert 0.0 <= recomputed <= 1.0
            assert len(rankings[topic].doc_ids) == len(vectors)


class TestRankImages:
    def single_dim_models(self, topic, dim, dims):
        weights = [0.0] * dims
        weights[dim] = 1.0
        names = tuple(f"concept:{d}" for d in range(dims))
        return {topic: RankModel(tuple(weights), names, 1.0)}

    def test_orders_by_selected_dimension(self):
        vectors = [
            InstanceVector("a", {0: 0.2}),
            InstanceVector("b", {0: 0.9}),
            InstanceVector("c", {0: 0.5}),
        ]
        rankings = rank_images(self.single_dim_models("t", 0, 2), vectors)
        assert rankings["t"].doc_ids == ("b", "c", "a")

    def test_all_zero_vectors_tie_break_by_id(self):
        vectors = [InstanceVector(i, {}) for i in ("c", "a", "b")]
        rankings = rank_images(self.single_dim_models("t", 0, 1), vectors)
        assert rankings["t"].doc_ids == ("a", "b", "c")

    def test_matches_brute_force_dot_product(self):
        rng = np.random.default_rng(9)
        dims = 6
        vectors = [
            InstanceVector(f"i{i}", {d: float(rng.normal()) for d in range(dims)})
            for i in range(10)
        ]
        weights = rng.normal(size=dims)
        names = tuple(f"concept:{d}" for d in range(dims))
        model = RankModel(tuple(float(w) for w in weights), names, 0.0)
        rankings = rank_images({"t": model}, vectors)
        expected = sorted(
            vectors,
            key=lambda v: (-float(np.dot(weights, stack_vectors([v], dims)[0])), v.instance_id),
        )
        assert rankings["t"].doc_ids == tuple(v.instance_id for v in expected)

    def test_every_instance_ranked_once(self):
        vectors = [InstanceVector(f"i{i}", {0: float(i)}) for i in range(5)]
        rankings = rank_images(self.single_dim_models("t", 0, 1), vectors)
        assert sorted(rankings["t"].doc_ids) == [f"i{i}" for i in range(5)]


def test_instance_vector_io_round_trip(tmp_path):
    vectors = [
        InstanceVector("a", {3: -1.25, 0: 0.5}),
        InstanceVector("b", {}),
    ]
    path = tmp_path / "vectors.jsonl"
    ARTIFACTS["vectors_train.jsonl"].write(path, vectors)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [
        {"entries": {"0": 0.5, "3": -1.25}, "instance_id": "a"},
        {"entries": {}, "instance_id": "b"},
    ]
    assert lines[0] == '{"entries": {"0": 0.5, "3": -1.25}, "instance_id": "a"}'


def test_lexicon_io_round_trip(tmp_path):
    lexicon = Lexicon(entries={5: 0, 9: 1}, top_k=10)
    path = tmp_path / "lexicon.json"
    ARTIFACTS["lexicon.json"].write(path, lexicon)
    loaded = ARTIFACTS["lexicon.json"].read(path)
    assert loaded.entries == lexicon.entries
    assert loaded.top_k == 10


@pytest.mark.parametrize(
    "entries, top_k",
    [
        ({"5": 0, "9": -1}, 10),  # a negative dimension
        ({"5": 0, "9": 0}, 10),  # one dimension twice
        ({"5": 0, "9": 2}, 10),  # a gap
        ({"5": 0, "05": 1}, 10),  # two keys of one node id
        ({"5": 0, "9": 1.5}, 10),  # int() would read 1
        ({"5": 0, "9": True}, 10),
        ({"5": 0, "9": 1}, 0),
    ],
    ids=["negative-dim", "repeated-dim", "dim-gap", "repeated-node", "float-dim", "bool-dim", "top-k-zero"],
)
def test_damaged_lexicon_is_parse_error(tmp_path, entries, top_k):
    with pytest.raises(ValueError):
        Lexicon.from_json_obj({"entries": entries, "top_k": top_k})
    path = tmp_path / "lexicon.json"
    path.write_text(json.dumps({"entries": entries, "top_k": top_k}))
    with pytest.raises(ParseError, match="lexicon"):
        ARTIFACTS["lexicon.json"].read(path)


def test_empty_lexicon_loads(tmp_path):
    path = tmp_path / "lexicon.json"
    ARTIFACTS["lexicon.json"].write(path, Lexicon(entries={}, top_k=1))
    assert ARTIFACTS["lexicon.json"].read(path) == Lexicon(entries={}, top_k=1)


def test_lexicon_feature_names_ordered():
    lexicon = Lexicon(entries={9: 1, 5: 0}, top_k=10)
    assert lexicon.feature_names() == ("concept:5", "concept:9")
