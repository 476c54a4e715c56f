"""Span tracing around the pipeline's layer calls, installed from outside.

``install`` replaces the module attributes through which ``gistrank.pipeline``
(and, one level down, ``features`` and ``topics``) reach each layer's public
functions with wrappers that record a span per call: name, start, end and
parent. Nothing under ``src/`` changes; ``uninstall`` puts the originals back.
Spans stay in memory until the run writes them out as JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

import gistrank.features as features_mod
import gistrank.pipeline as pipeline_mod
import gistrank.topics as topics_mod
from gistrank.evaluation import MODES
from gistrank.pipeline import STAGE_ORDER
from gistrank.query_graph import QueryGraph

LAYERS = (
    "kg",
    "linking",
    "query_graph",
    "clustering",
    "features",
    "ltr",
    "topics",
    "evaluation",
    "pipeline",
)

# Counts are taken from this mode only; times are summed over every mode.
COUNT_MODE = "TII"


@dataclasses.dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: str
    mode: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.span_id], key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.duration - covered
    return result


class Tracer:
    """Collects spans and mode-TII counts; one ``trace`` id per repetition."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.trace = ""
        self.mode = ""
        self._stack: list[int] = []
        self._next_id = 0

    def count(self, key: str, value: float) -> None:
        self.counts[(self.trace, key)] += value

    def set_count(self, key: str, value: float) -> None:
        self.counts[(self.trace, key)] = value

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.trace, self.mode))

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps([dataclasses.asdict(s) for s in self.spans]) + "\n", encoding="utf-8"
        )


def _wrap(tracer: Tracer, name: str, fn: Callable, on_result: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if on_result is not None and tracer.mode == COUNT_MODE:
            on_result(tracer, args, result)
        return result

    return wrapper


def _on_graph(t: Tracer, args, graph) -> None:
    t.set_count("kg.nodes", graph.n_nodes)
    t.set_count("kg.edges", len(graph.edges))


def _on_link_stats(t: Tracer, args, report) -> None:
    mentions = report.total_candidates_tags + report.total_candidates_image
    linked = report.total_seeds_tags + report.total_seeds_image
    t.set_count("linking.seed_ratio", linked / mentions if mentions else 0.0)


def _on_query_graph(t: Tracer, args, qg) -> None:
    t.count("query_graph.nodes", qg.n_nodes)
    t.count("query_graph.intermediates", len(qg.intermediates))


# (owner, attribute, span name, count hook). Patching the attribute where the
# caller looks the name up at call time catches every call path.
_PATCHES = (
    (pipeline_mod, "load_graph", "kg.load_graph", _on_graph),
    (pipeline_mod, "read_corpus", "linking.read_corpus", None),
    (pipeline_mod, "link_instance", "linking.link_instance", None),
    (pipeline_mod, "corpus_link_stats", "linking.corpus_link_stats", _on_link_stats),
    (pipeline_mod, "build_query_graph", "query_graph.build_query_graph", _on_query_graph),
    (QueryGraph, "from_json_obj", "query_graph.from_json_obj", None),
    (
        pipeline_mod, "build_relatedness_graph", "clustering.build_relatedness_graph",
        lambda t, a, wg: t.count("clustering.weighted_pairs", len(wg.weights)),
    ),
    (pipeline_mod, "louvain", "clustering.louvain", None),
    (pipeline_mod, "build_idf_table", "features.build_idf_table", None),
    (pipeline_mod, "extract_instance_features", "features.extract_instance_features", None),
    (features_mod, "pagerank", "features.pagerank", None),
    (features_mod, "betweenness", "features.betweenness", None),
    (pipeline_mod, "normalize_per_query", "features.normalize_per_query", None),
    (
        pipeline_mod, "write_feature_rows", "features.write_feature_rows",
        lambda t, a, r: t.count("features.rows", len(a[1])),
    ),
    (pipeline_mod, "read_feature_rows", "features.read_feature_rows", None),
    (
        pipeline_mod, "train_coordinate_ascent", "ltr.train1",
        lambda t, a, r: t.count("ltr.train1.examples", len(a[0])),
    ),
    (topics_mod, "train_coordinate_ascent", "ltr.train2", None),
    (pipeline_mod, "rank", "ltr.rank", None),
    (topics_mod, "rank", "ltr.rank", None),
    (
        pipeline_mod, "build_lexicon", "topics.build_lexicon",
        lambda t, a, lex: t.set_count("topics.lexicon_dims", len(lex)),
    ),
    (
        pipeline_mod, "vectorize", "topics.vectorize",
        lambda t, a, vec: t.count("topics.vector_nnz", len(vec.entries)),
    ),
    (pipeline_mod, "train_topic_models", "topics.train_topic_models", None),
    (pipeline_mod, "rank_images", "topics.rank_images", None),
    (pipeline_mod, "evaluate", "evaluation.evaluate", None),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced call site; returns a function that undoes it."""
    undo: list[Callable[[], None]] = []
    for owner, attr, name, hook in _PATCHES:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(_wrap(tracer, name, original.__func__, hook))
        else:
            wrapped = _wrap(tracer, name, original, hook)
        setattr(owner, attr, wrapped)
        undo.append(functools.partial(setattr, owner, attr, original))

    stages = pipeline_mod._STAGE_FUNCS
    originals = dict(stages)

    def stage_wrapper(stage: str, fn: Callable) -> Callable:
        def run(ctx):
            tracer.mode = ctx.config.mode
            try:
                return tracer.call(f"pipeline.stage.{stage}.{ctx.config.mode}", fn, (ctx,), {})
            finally:
                tracer.mode = ""

        return run

    for stage, fn in originals.items():
        stages[stage] = stage_wrapper(stage, fn)
    undo.append(lambda: stages.update(originals))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


_TIMED = tuple(dict.fromkeys(name for _, _, name, _ in _PATCHES))

# Per-function metrics reported by the traced run: busy seconds for each,
# call counts for those named here.
_CALL_COUNTS = (
    "kg.load_graph",
    "linking.read_corpus",
    "linking.link_instance",
    "query_graph.build_query_graph",
    "query_graph.from_json_obj",
    "clustering.louvain",
    "features.build_idf_table",
    "features.read_feature_rows",
    "ltr.rank",
    "topics.vectorize",
)


def per_layer_metric_names() -> list[str]:
    """Every metric the traced run reports, in a stable order."""
    return [*summarize(Tracer(), ""), "trace.overhead_s"]


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def summarize(tracer: Tracer, trace: str) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all but ``trace.overhead_s``)."""
    spans = [s for s in tracer.spans if s.trace == trace]
    selfs = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        busy[span.name] += span.duration
        layer_self[span.layer] += selfs[span.span_id]
        if span.mode == COUNT_MODE:
            calls[span.name] += 1

    def counted(key: str) -> float:
        return tracer.counts.get((trace, key), 0.0)

    def mean(key: str, per: str) -> float:
        return counted(key) / calls[per] if calls[per] else 0.0

    metrics: dict[str, float] = {}
    for fn in _TIMED:
        metrics[f"{fn}.s"] = busy[fn]
        if fn in _CALL_COUNTS:
            metrics[f"{fn}.calls"] = calls[fn]
    metrics.update(
        {
            "kg.nodes": counted("kg.nodes"),
            "kg.edges": counted("kg.edges"),
            "linking.seed_ratio": counted("linking.seed_ratio"),
            "query_graph.nodes_mean": mean("query_graph.nodes", "query_graph.build_query_graph"),
            "query_graph.intermediates_mean": mean(
                "query_graph.intermediates", "query_graph.build_query_graph"
            ),
            "clustering.weighted_pairs": counted("clustering.weighted_pairs"),
            "features.rows": counted("features.rows"),
            "ltr.train1.examples": counted("ltr.train1.examples"),
            "ltr.train_coordinate_ascent.calls": calls["ltr.train1"] + calls["ltr.train2"],
            "topics.lexicon_dims": counted("topics.lexicon_dims"),
            "topics.vector_nnz_mean": mean("topics.vector_nnz", "topics.vectorize"),
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.self.s"] = layer_self[layer]
    for mode in MODES:
        for stage in STAGE_ORDER:
            name = f"pipeline.stage.{stage}.{mode}"
            metrics[f"{name}.s"] = busy[name]
    return metrics


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric across traced repetitions."""
    return {k: statistics.median(rep[k] for rep in per_rep) for k in per_rep[0]}
