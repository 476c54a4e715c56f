"""Evaluation reports and the cross-mode comparison."""

import pytest

from gistrank.errors import IntegrityError
from gistrank.evaluation import EvalReport, TopicEval, compare_modes, evaluate, report_table
from gistrank.ltr import Ranking


def ranking(topic, ids):
    return Ranking(query_id=topic, items=tuple((i, 1.0 - k * 0.1) for k, i in enumerate(ids)))


class TestEvaluate:
    def test_perfect_ranking(self):
        rankings = {"sky": ranking("sky", ["a", "b", "c", "d", "e"])}
        gold = {"a": {"sky"}, "b": {"sky"}, "c": {"sky"}, "d": set(), "e": set()}
        report = evaluate(rankings, gold, k=3)
        assert report.per_topic["sky"].ap == 1.0
        assert report.per_topic["sky"].p_at_k == 1.0
        assert report.per_topic["sky"].positives == 3

    def test_topic_with_zero_positives(self):
        rankings = {"sky": ranking("sky", ["a", "b"])}
        gold = {"a": set(), "b": set()}
        report = evaluate(rankings, gold, k=2)
        assert report.per_topic["sky"].ap == 0.0
        assert report.per_topic["sky"].positives == 0

    def test_missing_gold_entry_is_integrity_error(self):
        rankings = {"sky": ranking("sky", ["a", "b"])}
        with pytest.raises(IntegrityError, match="'b'"):
            evaluate(rankings, {"a": {"sky"}}, k=2)

    def test_macro_means(self):
        rankings = {
            "sky": ranking("sky", ["a", "b"]),
            "sea": ranking("sea", ["b", "a"]),
        }
        gold = {"a": {"sky"}, "b": {"sea"}}
        report = evaluate(rankings, gold, k=1)
        assert report.overall_map == pytest.approx(
            (report.per_topic["sky"].ap + report.per_topic["sea"].ap) / 2
        )
        assert report.overall_p_at_k == pytest.approx(
            (report.per_topic["sky"].p_at_k + report.per_topic["sea"].p_at_k) / 2
        )

    def test_deterministic(self):
        rankings = {"sky": ranking("sky", ["a", "b", "c"])}
        gold = {"a": {"sky"}, "b": set(), "c": {"sky"}}
        first = evaluate(rankings, gold, k=2)
        second = evaluate(rankings, gold, k=2)
        assert first == second


def mk_report(mode, overall_map, k=50, lexicon=10):
    return EvalReport(
        mode=mode,
        k=k,
        per_topic={"t": TopicEval(ap=overall_map, p_at_k=0.5, positives=1)},
        overall_map=overall_map,
        overall_p_at_k=0.5,
        lexicon_size=lexicon,
    )


class TestCompareModes:
    def test_identical_reports_ordering_true(self):
        comparison = compare_modes(
            [mk_report("TII", 0.5), mk_report("TI", 0.5), mk_report("T", 0.5)]
        )
        assert comparison.ordering_holds

    def test_strict_ordering_true(self):
        comparison = compare_modes(
            [mk_report("TII", 0.6), mk_report("TI", 0.4), mk_report("T", 0.3)]
        )
        assert comparison.ordering_holds

    def test_violation_detected(self):
        comparison = compare_modes(
            [mk_report("TII", 0.3), mk_report("TI", 0.4), mk_report("T", 0.2)]
        )
        assert not comparison.ordering_holds

    def test_mismatched_k_rejected(self):
        with pytest.raises(IntegrityError, match="k="):
            compare_modes([mk_report("TII", 0.5), mk_report("T", 0.4, k=10)])

    def test_table_layout(self):
        comparison = compare_modes(
            [mk_report("TII", 0.6, lexicon=20), mk_report("TI", 0.4), mk_report("T", 0.3)]
        )
        table = comparison.table()
        lines = table.splitlines()
        assert lines[0].startswith("metric")
        assert "TII" in lines[0] and "TI" in lines[0]
        assert lines[1].startswith("MAP")
        assert lines[2].startswith("P@50")
        assert lines[3].startswith("lexicon")
        assert "yes" in table


def test_report_table_includes_overall():
    report = mk_report("T", 0.25)
    text = report_table(report)
    assert "overall (macro)" in text
    assert "0.2500" in text
