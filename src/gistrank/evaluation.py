"""Evaluation of per-topic image rankings: MAP, P@k, and mode comparison.

Overall figures are unweighted macro-averages across topics. Topics with
zero gold positives are kept in the report (AP 0 by convention) rather than
silently dropped; their positive count makes them easy to spot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import IntegrityError
from .ltr import Ranking, average_precision, mean_metric, precision_at_k

MODES = ("T", "TI", "TII")

MODE_LABELS = {
    "T": "tags-only",
    "TI": "tags+image",
    "TII": "tags+image+expanded",
}


@dataclass(frozen=True)
class TopicEval:
    ap: float
    p_at_k: float
    positives: int


@dataclass(frozen=True)
class EvalReport:
    mode: str | None
    k: int
    per_topic: Mapping[str, TopicEval]
    overall_map: float
    overall_p_at_k: float
    lexicon_size: int | None = None

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode,
            "k": self.k,
            "per_topic": {
                topic: {"ap": ev.ap, "p_at_k": ev.p_at_k, "positives": ev.positives}
                for topic, ev in sorted(self.per_topic.items())
            },
            "overall_map": self.overall_map,
            "overall_p_at_k": self.overall_p_at_k,
            "lexicon_size": self.lexicon_size,
        }


def evaluate(
    rankings: Mapping[str, Ranking],
    gold: Mapping[str, frozenset[str] | set[str]],
    k: int = 50,
    mode: str | None = None,
    lexicon_size: int | None = None,
) -> EvalReport:
    """Score per-topic rankings against gold topic sets.

    An instance is relevant to a topic when the topic is in its gold set.
    Every ranked instance must appear in ``gold``.
    """
    per_topic: dict[str, TopicEval] = {}
    for topic in sorted(rankings):
        ranking = rankings[topic]
        relevance = []
        for instance_id in ranking.doc_ids:
            if instance_id not in gold:
                raise IntegrityError(
                    f"ranked instance {instance_id!r} has no gold topic entry"
                )
            relevance.append(topic in gold[instance_id])
        per_topic[topic] = TopicEval(
            ap=average_precision(relevance),
            p_at_k=precision_at_k(relevance, k),
            positives=sum(relevance),
        )
    if not per_topic:
        raise IntegrityError("no topics to evaluate")
    return EvalReport(
        mode=mode,
        k=k,
        per_topic=per_topic,
        overall_map=mean_metric([ev.ap for ev in per_topic.values()]),
        overall_p_at_k=mean_metric([ev.p_at_k for ev in per_topic.values()]),
        lexicon_size=lexicon_size,
    )


@dataclass(frozen=True)
class ModeComparison:
    """Side-by-side overall metrics of the candidate-set modes."""

    k: int
    overall_map: Mapping[str, float]
    overall_p_at_k: Mapping[str, float]
    lexicon_sizes: Mapping[str, int | None]
    ordering_holds: bool

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "overall_map": dict(self.overall_map),
            "overall_p_at_k": dict(self.overall_p_at_k),
            "lexicon_sizes": dict(self.lexicon_sizes),
            "ordering_holds": self.ordering_holds,
        }

    def table(self) -> str:
        """Aligned text table: modes as columns, metrics as rows."""
        modes = [m for m in ("TII", "TI", "T") if m in self.overall_map]
        headers = ["metric"] + [f"{m} ({MODE_LABELS[m]})" for m in modes]
        rows = [
            ["MAP"] + [f"{self.overall_map[m]:.4f}" for m in modes],
            [f"P@{self.k}"] + [f"{self.overall_p_at_k[m]:.4f}" for m in modes],
            ["lexicon"]
            + ["-" if self.lexicon_sizes.get(m) is None else str(self.lexicon_sizes[m]) for m in modes],
        ]
        widths = [max(len(str(row[i])) for row in [headers] + rows) for i in range(len(headers))]
        lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)) for row in [headers] + rows]
        lines.append("")
        lines.append(f"MAP(TII) >= MAP(TI) >= MAP(T): {'yes' if self.ordering_holds else 'NO'}")
        return "\n".join(lines) + "\n"


def compare_modes(reports: Sequence[EvalReport]) -> ModeComparison:
    """Combine per-mode reports and check the expected MAP ordering.

    All reports must share the same cutoff ``k``. The ordering flag is true
    when MAP does not decrease as the candidate set grows (ties allowed).
    """
    if not reports:
        raise IntegrityError("compare_modes needs at least one report")
    k = reports[0].k
    by_mode: dict[str, EvalReport] = {}
    for report in reports:
        if report.k != k:
            raise IntegrityError(f"reports mix k={k} and k={report.k}")
        if report.mode is None:
            raise IntegrityError("report is missing its mode")
        by_mode[report.mode] = report

    chain = [by_mode[m].overall_map for m in ("TII", "TI", "T") if m in by_mode]
    ordering = not any(better < worse for better, worse in zip(chain, chain[1:]))
    return ModeComparison(
        k=k,
        overall_map={m: r.overall_map for m, r in by_mode.items()},
        overall_p_at_k={m: r.overall_p_at_k for m, r in by_mode.items()},
        lexicon_sizes={m: r.lexicon_size for m, r in by_mode.items()},
        ordering_holds=ordering,
    )


def report_table(report: EvalReport) -> str:
    """Per-topic text table for one report."""
    header = f"{'topic':<24}{'AP':>10}{'P@' + str(report.k):>10}{'positives':>12}"
    lines = [header, "-" * len(header)]
    for topic, ev in sorted(report.per_topic.items()):
        lines.append(f"{topic:<24}{ev.ap:>10.4f}{ev.p_at_k:>10.4f}{ev.positives:>12d}")
    lines.append("-" * len(header))
    lines.append(
        f"{'overall (macro)':<24}{report.overall_map:>10.4f}{report.overall_p_at_k:>10.4f}"
    )
    return "\n".join(lines) + "\n"
