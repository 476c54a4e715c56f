"""Concept linking and corpus statistics."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from gistrank.errors import IntegrityError
from gistrank.linking import (
    Instance,
    LinkMode,
    SeedOrigin,
    SeedSet,
    corpus_link_stats,
    link_instance,
    read_corpus,
)


def inst(iid="i0", tags=(), labels=(), topics=(), grades=None):
    return Instance(
        instance_id=iid,
        tags=tuple(tags),
        image_labels=tuple(labels),
        topics=frozenset(topics),
        concept_grades=grades,
    )


class TestLinkInstance:
    def test_unmatched_mentions_dropped(self, tiny_kg):
        seeds = link_instance(tiny_kg, inst(tags=["car", "zzzqx"]), LinkMode.TAGS_ONLY)
        assert seeds.seeds == {1: SeedOrigin(from_tags=True)}

    def test_tag_and_image_origins(self, tiny_kg):
        seeds = link_instance(
            tiny_kg, inst(tags=["volvo"], labels=["car"]), LinkMode.TAGS_AND_IMAGE
        )
        assert seeds.seeds == {
            0: SeedOrigin(from_tags=True),
            1: SeedOrigin(from_image=True),
        }

    def test_same_mention_from_both_sources_sets_both_flags(self, tiny_kg):
        seeds = link_instance(
            tiny_kg, inst(tags=["car"], labels=["car"]), LinkMode.TAGS_AND_IMAGE
        )
        assert seeds.seeds == {1: SeedOrigin(from_tags=True, from_image=True)}

    def test_tags_only_ignores_image_labels(self, tiny_kg):
        seeds = link_instance(
            tiny_kg, inst(tags=["volvo"], labels=["car"]), LinkMode.TAGS_ONLY
        )
        assert set(seeds.seeds) == {0}

    def test_mode_monotonicity(self, tiny_kg):
        instance = inst(tags=["volvo", "car"], labels=["motor vehicles"])
        tags_only = link_instance(tiny_kg, instance, LinkMode.TAGS_ONLY)
        both = link_instance(tiny_kg, instance, LinkMode.TAGS_AND_IMAGE)
        assert set(tags_only.seeds) <= set(both.seeds)

    def test_order_free(self, tiny_kg):
        a = link_instance(tiny_kg, inst(tags=["volvo", "car"]), LinkMode.TAGS_ONLY)
        b = link_instance(tiny_kg, inst(tags=["car", "volvo"]), LinkMode.TAGS_ONLY)
        assert a.seeds == b.seeds

    def test_empty_instance_yields_empty_seedset(self, tiny_kg):
        seeds = link_instance(tiny_kg, inst(), LinkMode.TAGS_AND_IMAGE)
        assert seeds.seeds == {}

    def test_redirect_mention_links(self, tiny_kg):
        seeds = link_instance(tiny_kg, inst(tags=["Automobile"]), LinkMode.TAGS_ONLY)
        assert set(seeds.seeds) == {1}


class TestCorpusLinkStats:
    def test_two_instance_fixture(self, tiny_kg):
        corpus = [inst("a", tags=["car"]), inst("b", tags=[])]
        report = corpus_link_stats(tiny_kg, corpus)
        assert report.total_candidates_tags == 1
        assert report.total_seeds_tags == 1
        assert report.unique_candidates_tags == 1
        assert report.unique_seeds_tags == 1
        assert report.empty_instances_tags == 1
        assert report.empty_instances_image == 2

    def test_empty_corpus_all_zero(self, tiny_kg):
        report = corpus_link_stats(tiny_kg, [])
        assert all(v == 0 for v in report.as_dict().values())

    def test_duplicates_count_in_totals_once_in_uniques(self, tiny_kg):
        corpus = [inst(f"i{k}", tags=["car", "car"]) for k in range(3)]
        report = corpus_link_stats(tiny_kg, corpus)
        assert report.total_candidates_tags == 6
        assert report.total_seeds_tags == 6
        assert report.unique_candidates_tags == 1

    def test_seeds_bounded_by_candidates(self, tiny_kg):
        corpus = [
            inst("a", tags=["car", "nope"], labels=["volvo", "xx", "yy"]),
            inst("b", tags=["Motor Vehicles"]),
        ]
        report = corpus_link_stats(tiny_kg, corpus)
        assert report.total_seeds_tags <= report.total_candidates_tags
        assert report.total_seeds_image <= report.total_candidates_image
        assert report.unique_seeds_tags <= report.unique_candidates_tags
        assert report.unique_seeds_image <= report.unique_candidates_image

    def test_totals_equal_sum_of_per_instance_links(self, tiny_kg):
        corpus = [
            inst("a", tags=["car", "volvo", "junk"]),
            inst("b", tags=["car", "car"]),
            inst("c"),
        ]
        report = corpus_link_stats(tiny_kg, corpus)
        per_instance = sum(
            sum(1 for t in i.tags if tiny_kg.lookup_title(t) is not None) for i in corpus
        )
        assert report.total_seeds_tags == per_instance


class TestCorpusIO:
    def test_read_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps(
                {
                    "id": "a",
                    "tags": ["x"],
                    "image_labels": ["y"],
                    "topics": ["sky"],
                    "concept_grades": {"3": 5},
                }
            )
            + "\n",
            encoding="utf-8",
        )
        (corpus,) = read_corpus(path)
        assert corpus.instance_id == "a"
        assert corpus.concept_grades == {3: 5}
        assert corpus.topics == frozenset({"sky"})

    def test_unreadable_record_skipped(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "tags": []}\nnot json at all\n', encoding="utf-8")
        corpus = read_corpus(path)
        assert [i.instance_id for i in corpus] == ["a"]
        assert any("skipping unreadable record" in r.message for r in caplog.records)

    def test_bad_grade_record_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "concept_grades": {"1": 9}}\n', encoding="utf-8")
        assert read_corpus(path) == []

    def test_two_grades_for_one_node_skip_the_record(self, tmp_path, caplog):
        # int() reads "7" and " 7" as one id; the last grade once won silently.
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "concept_grades": {"7": 5, " 7": 1}}\n{"id": "b", "concept_grades": {"7": 5}}\n',
            encoding="utf-8",
        )
        assert [(i.instance_id, i.concept_grades) for i in read_corpus(path)] == [("b", {7: 5})]
        assert any(
            "corpus.jsonl:1: skipping unreadable record (two concept grades name one node id)" in r.message
            for r in caplog.records
        )

    def test_duplicate_id_is_integrity_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a"}\n{"id": "a"}\n', encoding="utf-8")
        with pytest.raises(IntegrityError, match="duplicate instance id"):
            read_corpus(path)

    # An array of grades once raised a raw AttributeError, an infinite grade
    # an OverflowError, and a string of tags or topics was read one
    # character at a time. Other JSON values in place of a string were kept
    # as their str(), and other grades truncated by int().
    @pytest.mark.parametrize(
        "record",
        [
            {"id": "x", "tags": ["x"], "concept_grades": [5]},
            {"id": "y", "tags": "sunset beach", "topics": "beach"},
            {"id": "z", "concept_grades": {"1": float("inf")}},
            {"id": "x", "tags": [5, None, {"a": 1}], "concept_grades": {"1": 4.9, "2": True}},
            {"id": 5, "tags": ["x"]},
            {"id": "x", "tags": ["x", None]},
            {"id": "x", "image_labels": [{"a": 1}]},
            {"id": "x", "topics": [1]},
            {"id": "x", "concept_grades": {"1": 4.9}},
            {"id": "x", "concept_grades": {"1": True}},
            {"id": "x", "concept_grades": {"1": 5.0}},
        ],
    )
    def test_field_of_another_json_type_skips_the_record(self, tmp_path, caplog, record):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "tags": ["x"], "concept_grades": null}\n' + json.dumps(record) + "\n",
            encoding="utf-8",
        )
        assert [(i.instance_id, i.tags, i.concept_grades) for i in read_corpus(path)] == [("a", ("x",), None)]
        assert any("corpus.jsonl:2: skipping unreadable record" in r.message for r in caplog.records)


# Any JSON value in any field, and often the type the field should have,
# so that a record bad in one place only is common too.
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 6), st.integers(), st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan]), st.text(max_size=4),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
arrays = st.lists(leaves, max_size=3) | json_values
corpus_records = st.fixed_dictionaries(
    {},
    optional={
        "id": json_values,
        "tags": arrays,
        "image_labels": arrays,
        "topics": arrays,
        "concept_grades": st.dictionaries(st.integers(-2, 9).map(str), leaves, max_size=3) | json_values,
    },
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(st.lists(corpus_records, max_size=4))
def test_any_json_in_a_corpus_field_is_read_or_skipped(fuzz_dir, records):
    path = fuzz_dir / "corpus.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    try:
        corpus = read_corpus(path)
    except IntegrityError as exc:
        assert "duplicate instance id" in str(exc)
        return
    for instance in corpus:
        assert type(instance.tags) is tuple and type(instance.image_labels) is tuple
        assert type(instance.topics) is frozenset
        texts = (instance.instance_id, *instance.tags, *instance.image_labels, *instance.topics)
        assert all(type(text) is str for text in texts)
        grades = instance.concept_grades or {}
        assert all(type(key) is int and type(value) is int for key, value in grades.items())


def test_grade_range_enforced():
    with pytest.raises(IntegrityError, match="1..5"):
        inst(grades={1: 6})


def test_seedset_json_round_trip(tiny_kg):
    seeds = link_instance(
        tiny_kg, inst(tags=["volvo"], labels=["car", "volvo"]), LinkMode.TAGS_AND_IMAGE
    )
    assert SeedSet.from_json_obj(seeds.to_json_obj()).seeds == seeds.seeds
