"""Staged pipeline: linking, expansion, clustering, features, two ranking
stages, and evaluation, each writing deterministic artifacts to disk.

Per-mode artifacts live under ``<out>/<mode>/``. The candidate set ranked in
stage 1 depends on the mode: tags-only seeds (T), tag and image seeds (TI),
or seeds plus intermediate categories (TII). The query graph itself is
always built so connectivity features see the expanded context.

Each stage is a transform: it takes its parsed inputs and returns its
outputs as objects, and opens no file. ``ARTIFACTS`` holds each artifact's
reader and writer, and ``_step`` does every stage's file work around its
transform. Stage outputs carry no timestamps, so re-running with the same
config and seeds reproduces every file byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, TypeVar

import numpy as np

from . import __version__
from .clustering import Partition, build_relatedness_graph, louvain
from .config import PipelineConfig
from .errors import (
    ConfigError,
    IntegrityError,
    ParseError,
    StageDependencyError,
    check_shape,
    int_key,
    json_text,
    jsonl_text,
    read_json,
    write_atomic,
)
from .evaluation import MODES, EvalReport, compare_modes, evaluate, report_table
from .features import (
    FEATURE_NAMES,
    IdfTable,
    build_idf_table,
    extract_instance_features,
    normalize_per_query,
    read_feature_rows,
    write_feature_rows,
)
from .kg import KnowledgeGraph, load_graph
from .linking import Instance, LinkMode, SeedSet, corpus_link_stats, link_instance, read_corpus
from .ltr import AscentStats, RankModel, Ranking, rank, train_coordinate_ascent
# No stage calls ``build_query_graph``; the benchmark's tracer patches it here.
from .query_graph import QueryGraph, QueryGraphRows, build_query_graph, build_query_graphs, with_hops
from .snapshot import kg_snapshot_key, load_kg_snapshot, save_kg_snapshot
from .topics import InstanceVector, Lexicon, build_lexicon, rank_images, train_topic_models, vectorize

logger = logging.getLogger(__name__)

T = TypeVar("T")


def split_instances(instance_ids: Iterable[str], ratio: float, seed: int) -> tuple[set[str], set[str]]:
    """Deterministic train/test split: a pure function of ids, ratio, seed."""
    ordered = sorted(instance_ids)
    n = len(ordered)
    if n < 2:
        raise ConfigError("corpus must contain at least 2 instances to split")
    n_train = min(max(int(round(ratio * n)), 1), n - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    train = {ordered[i] for i in perm[:n_train]}
    return train, {i for i in ordered if i not in train}


# The graph and IDF snapshot, at the output root; see ``_load_kg``.
KG_SNAPSHOT = "kg_snapshot.bin"


def _load_kg(config: PipelineConfig) -> tuple[KnowledgeGraph, IdfTable]:
    """The graph and its IDF table, from the snapshot at the output root when
    that holds these TSV files, else parsed and built, then snapshotted.

    The key is taken before parsing: a TSV edited in between leaves a
    snapshot under the old bytes' key, which the next stage misses.
    """
    path = config.out / KG_SNAPSHOT
    key = kg_snapshot_key(config.kg_nodes, config.kg_edges)
    loaded = load_kg_snapshot(path, key)
    if loaded is None:
        graph = load_graph(config.kg_nodes, config.kg_edges)
        loaded = graph, build_idf_table(graph)
        save_kg_snapshot(path, key, *loaded)
    return loaded


class _Shared:
    """What the contexts of one run share: the loaded inputs and the artifact store."""

    def __init__(self) -> None:
        self.kg: tuple[KnowledgeGraph, IdfTable] | None = None
        self.corpus: list[Instance] | None = None
        self.store: dict[tuple, object] = {}


class PipelineContext:
    """One mode's view of a run: its config, the loaded graph, corpus and IDF
    table, and the store of the artifacts this run has made.

    The graph, corpus and IDF table load once, on first use. ``for_mode``
    makes the context of another mode that shares them, and the store, with
    this one; ``run_all`` runs its three modes so. ``run_stage`` makes a
    fresh context per call, so a single-mode stage reads its inputs from
    disk and loads the graph from the snapshot an earlier stage wrote.
    """

    def __init__(self, config: PipelineConfig, shared: _Shared | None = None):
        self.config = config
        self.shared = _Shared() if shared is None else shared

    def for_mode(self, mode: str) -> "PipelineContext":
        return PipelineContext(dataclasses.replace(self.config, mode=mode), self.shared)

    def _kg(self) -> tuple[KnowledgeGraph, IdfTable]:
        if self.shared.kg is None:
            self.shared.kg = _load_kg(self.config)
        return self.shared.kg

    @property
    def graph(self) -> KnowledgeGraph:
        return self._kg()[0]

    @property
    def idf(self) -> IdfTable:
        return self._kg()[1]

    @property
    def corpus(self) -> list[Instance]:
        if self.shared.corpus is None:
            instances = read_corpus(self.config.corpus)
            if self.config.image_labels is not None:
                overrides = _read_jsonl(
                    self.config.image_labels, _LABEL_OVERRIDE, lambda obj: (obj["id"], tuple(obj["image_labels"]))
                )
                instances = [
                    dataclasses.replace(inst, image_labels=overrides[inst.instance_id])
                    if inst.instance_id in overrides
                    else inst
                    for inst in instances
                ]
            self.shared.corpus = instances
        return self.shared.corpus

    def corpus_by_id(self) -> dict[str, Instance]:
        return {inst.instance_id: inst for inst in self.corpus}

    def key(self, name: str) -> tuple[str, object]:
        """The store key of ``name`` in this context: its link mode for what
        depends only on the link mode, else its mode."""
        if name in _BY_LINK_MODE:
            return name, _link_mode(self.config)
        return name, self.config.mode


def _mode_dir(config: PipelineConfig) -> Path:
    return config.out / config.mode


def _write_json(path: Path, obj) -> str:
    return write_atomic(path, json_text(obj))


def _seeds(config: PipelineConfig) -> dict[str, int]:
    return {
        "split": config.resolved_split_seed(),
        "train1": config.train1.seed,
        "train2": config.train2.seed,
    }


def _check_input(config: PipelineConfig, stage: str, name: str) -> None:
    """Check that input ``name`` of ``stage`` and its producer's manifest
    exist, that the manifest has its shape and, when the producer's outputs
    are seed-dependent, that it records this run's seeds."""
    mode_dir = _mode_dir(config)
    producer = next(s for s, spec in STAGES.items() if name in spec.outputs)
    manifest = mode_dir / f"{producer}.manifest.json"
    for path in (mode_dir / name, manifest):
        if not path.is_file():
            raise StageDependencyError(
                f"stage {stage!r} needs {path} which does not exist; run stage {producer!r} first"
            )
    keys = STAGES[producer].seeds
    made_with = read_json(manifest, _MANIFEST, lambda obj: {k: obj["seeds"][k] for k in keys})
    expected = {k: _seeds(config)[k] for k in keys}
    if made_with != expected:
        raise StageDependencyError(
            f"stage {stage!r} needs {mode_dir / name} made with seeds {expected}, "
            f"but stage {producer!r} made it with {made_with}; re-run stage {producer!r}"
        )


def _link_mode(config: PipelineConfig) -> LinkMode:
    return LinkMode.TAGS_ONLY if config.mode == "T" else LinkMode.TAGS_AND_IMAGE


def _read_jsonl(path: Path, shape: Any, parse: Callable[[dict], tuple[str, T]]) -> dict[str, T]:
    """The records of a JSON-lines artifact by id, in file order: each
    non-blank line checked against ``shape`` and parsed into an (id, record)
    pair. A line that is not UTF-8 JSON, breaks ``shape`` or that ``parse``
    rejects with a ``ValueError`` is a ``ParseError``, and a second record
    for an id an ``IntegrityError``; both name the file and line."""
    records: dict[str, T] = {}
    with path.open("rb") as fh:
        lines = [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]
    try:  # all records in one check; when it fails, each line is checked alone to name the first bad one
        objs: list = check_shape([shape], [json.loads(line.decode("utf-8")) for _, line in lines])
    except ValueError:
        objs = [None] * len(lines)
    for (lineno, line), obj in zip(lines, objs):
        try:
            record_id, record = parse(check_shape(shape, json.loads(line.decode("utf-8"))) if obj is None else obj)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: malformed record ({exc!r})") from None
        if record_id in records:
            raise IntegrityError(f"{path}:{lineno}: duplicate record for instance {record_id!r}")
        records[record_id] = record
    return records


def _by_instance_id(parse: Callable[[dict], T]) -> Callable[[dict], tuple[str, T]]:
    return lambda obj: (obj["instance_id"], parse(obj))


def _read_query_graphs(path: Path) -> dict[str, QueryGraph]:
    """The query graphs of a file by instance id, every record parsed and
    checked before one batch builds all of their hop counts."""
    rows = _read_jsonl(path, _QUERY_GRAPH, _by_instance_id(QueryGraphRows.from_json_obj))
    return dict(zip(rows, with_hops(list(rows.values()))))


def _parse_partition(obj: dict) -> Partition:
    assignment = obj["assignment"]
    return Partition(dict(zip(map(int, assignment), assignment.values())), float(obj["modularity"]))


def _parse_ranking(query_id: str, items: list) -> Ranking:
    return Ranking(query_id, tuple(zip(map(itemgetter(0), items), map(float, map(itemgetter(1), items)))))


# An instance's rows of the feature dump: doc ids (node ids as decimal
# strings), the float64 matrix with a row per doc id, and the grades.
FeatureRows = tuple[list[str], np.ndarray, list[int | None]]
Split = tuple[set[str], set[str]]


def _parse_split(obj: dict) -> Split:
    train, test = obj["train"], obj["test"]
    # The writer lists each instance id once, in one of the two lists.
    if len({*train, *test}) != len(train) + len(test):
        raise ValueError("an instance id is listed twice")
    return set(train), set(test)


def _write_features(path: Path, features: dict[str, FeatureRows]) -> None:
    parts = features.values()
    write_feature_rows(
        path,
        np.concatenate([np.empty((0, len(FEATURE_NAMES))), *(matrix for _, matrix, _ in parts)]),
        [iid for iid, (doc_ids, _, _) in features.items() for _ in doc_ids],
        [doc_id for doc_ids, _, _ in parts for doc_id in doc_ids],
        [grade for _, _, grades in parts for grade in grades],
    )


def _write_vectors(path: Path, vectors: list[InstanceVector]) -> None:
    write_atomic(path, jsonl_text(
        {"instance_id": v.instance_id, "entries": {str(d): s for d, s in sorted(v.entries.items())}}
        for v in vectors
    ))


class _Artifact(NamedTuple):
    """How one artifact is read from its file and written to it, and the shape
    (see ``errors.check_shape``) of its records, or of its one JSON value.
    ``read`` and ``shape`` are None where nothing reads the file back;
    ``write`` returns the text it wrote, or None."""

    read: Callable[[Path], Any] | None
    write: Callable[[Path, Any], str | None]
    shape: Any = None


def _jsonl(shape: dict, parse: Callable[[dict], tuple[str, Any]], to_obj: Callable[[str, Any], dict]) -> _Artifact:
    """A JSON-lines artifact, held as a mapping from instance id to record."""
    return _Artifact(
        lambda path: _read_jsonl(path, shape, parse),
        lambda path, records: write_atomic(path, jsonl_text(to_obj(k, r) for k, r in records.items())),
        shape,
    )


def _json(shape: Any, parse: Callable[[Any], Any], to_obj: Callable[[Any], Any]) -> _Artifact:
    return _Artifact(
        lambda path: read_json(path, shape, parse), lambda path, obj: _write_json(path, to_obj(obj)), shape
    )


# The shapes that two files share, or that no artifact has.
_SEEDS = [{"id": int, "from_tags": bool, "from_image": bool}]
_QUERY_GRAPH = {"instance_id": str, "seeds": _SEEDS, "intermediates": [int], "edges": [(int, int)]}
_MODEL = {"feature_names": [str], "weights": [float], "training_map": float, "config": {str: float}}
_MANIFEST = {
    "stage": str, "mode": str, "seed": int, "seeds": {"split": int, "train1": int, "train2": int},
    "config_hash": str, "inputs": [str], "outputs": [str], "version": str,
}
_LABEL_OVERRIDE = {"id": str, "image_labels": [str]}

# Every artifact's reader, writer and record shape: the one place that knows
# the file formats. A reader checks the records against their shape, so its
# parser only converts values and checks what spans fields. Reading what a
# writer wrote returns an object equal to the one written, so ``run_all``
# hands the written object to the consumers. Names that the benchmark's
# tracer patches are looked up when called.
ARTIFACTS = {
    "seeds.jsonl": _jsonl(
        {"instance_id": str, "seeds": _SEEDS}, _by_instance_id(SeedSet.from_json_obj), lambda _, s: s.to_json_obj()
    ),
    "link_report.json": _Artifact(None, _write_json),
    "query_graphs.jsonl": _Artifact(
        _read_query_graphs,
        lambda path, graphs: write_atomic(path, jsonl_text(qg.to_json_obj() for qg in graphs.values())),
        _QUERY_GRAPH,
    ),
    "partitions.jsonl": _jsonl(
        {"instance_id": str, "assignment": {int_key: int}, "modularity": float},
        _by_instance_id(_parse_partition), lambda iid, p: {**p.to_json_obj(), "instance_id": iid},
    ),
    "features.bin": _Artifact(lambda path: read_feature_rows(path), _write_features),
    "split.json": _json(
        {"train": [str], "test": [str]}, _parse_split, lambda sp: {"train": sorted(sp[0]), "test": sorted(sp[1])}
    ),
    "model1.json": _json(_MODEL, RankModel.from_json_obj, RankModel.to_json_obj),
    "rankings1.jsonl": _jsonl(
        {"query_id": str, "items": [(int_key, float)]},
        lambda obj: (obj["query_id"], _parse_ranking(obj["query_id"], obj["items"])),
        lambda iid, r: {"query_id": iid, "items": r.items},
    ),
    "lexicon.json": _json({"top_k": int, "entries": {int_key: int}}, Lexicon.from_json_obj, Lexicon.to_json_obj),
    "vectors_train.jsonl": _Artifact(None, _write_vectors),
    "topic_models.json": _json(
        {str: _MODEL},
        lambda obj: {topic: RankModel.from_json_obj(m) for topic, m in obj.items()},
        lambda models: {topic: m.to_json_obj() for topic, m in models.items()},
    ),
    "vectors_test.jsonl": _Artifact(None, _write_vectors),
    "rankings2.json": _json(
        {str: [(str, float)]},
        lambda obj: {topic: _parse_ranking(topic, items) for topic, items in obj.items()},
        lambda rankings: {topic: r.items for topic, r in rankings.items()},
    ),
    "report.json": _Artifact(None, lambda path, report: _write_json(path, report.to_json_obj())),
    "report.txt": _Artifact(None, write_atomic),
}

# The raw feature matrices of every query-graph node, from which each mode
# takes its candidate rows; stored, not written.
_RAW_FEATURES = "raw features"


def _link(ctx: PipelineContext) -> tuple[dict[str, SeedSet], dict]:
    link_mode = _link_mode(ctx.config)
    seeds = {inst.instance_id: link_instance(ctx.graph, inst, link_mode) for inst in ctx.corpus}
    return seeds, corpus_link_stats(ctx.graph, ctx.corpus).as_dict()


def _graph(ctx: PipelineContext, seeds: dict[str, SeedSet]) -> tuple[dict[str, QueryGraph]]:
    return (dict(zip(seeds, build_query_graphs(ctx.graph, list(seeds.values())))),)


def _cluster(ctx: PipelineContext, graphs: dict[str, QueryGraph]) -> tuple[dict[str, Partition]]:
    # Without the phase modularity, which the file does not hold.
    partitions = (louvain(build_relatedness_graph(qg)) for qg in graphs.values())
    return ({iid: dataclasses.replace(p, phase_modularity=()) for iid, p in zip(graphs, partitions)},)


def _raw_features(
    ctx: PipelineContext, graphs: dict[str, QueryGraph], partitions: dict[str, Partition]
) -> list[tuple[QueryGraph, dict[int, int], np.ndarray]]:
    """The query graph, concept grades and raw feature matrix (a row per node
    of the graph's ``order``) of every instance with a non-empty query graph.

    A raw row depends on its node, not on the candidate set, so computing
    every node once serves every mode's candidates.
    """
    mode_dir = _mode_dir(ctx.config)
    instances = ctx.corpus_by_id()
    for iid in graphs:
        if iid not in partitions:
            raise IntegrityError(
                f"{mode_dir / 'partitions.jsonl'}: no partition for instance {iid!r}; rerun stage 'cluster'"
            )
        if iid not in instances:
            raise IntegrityError(
                f"{ctx.config.corpus}: no corpus record for instance {iid!r} "
                f"of {mode_dir / 'query_graphs.jsonl'}"
            )
    batch = [qg for qg in graphs.values() if qg.order]
    batch_instances = [instances[qg.instance_id] for qg in batch]
    matrices = extract_instance_features(
        batch, [partitions[qg.instance_id] for qg in batch], batch_instances, ctx.graph, ctx.idf
    )
    return [(qg, inst.concept_grades or {}, m) for qg, inst, m in zip(batch, batch_instances, matrices)]


def _features(
    ctx: PipelineContext, graphs: dict[str, QueryGraph], partitions: dict[str, Partition]
) -> tuple[dict[str, FeatureRows]]:
    store, key = ctx.shared.store, ctx.key(_RAW_FEATURES)
    if key not in store:
        store[key] = _raw_features(ctx, graphs, partitions)
    features = {}
    for qg, grades, matrix in store[key]:
        # TII ranks every node of the query graph, T and TI only the seeds.
        picked = [i for i, o in enumerate(qg.origins) if ctx.config.mode == "TII" or o is not None]
        if picked:
            nodes = [qg.order[i] for i in picked]
            features[qg.instance_id] = (
                list(map(str, nodes)), normalize_per_query(matrix[picked]), list(map(grades.get, nodes))
            )
    return (features,)


def _log_ascent(stage: str, stats: AscentStats) -> None:
    logger.info(
        "stage %s: trained %d restart(s), %d stopped at the training-MAP ceiling; "
        "%d later restart(s) could not win and were cut short or never trained; "
        "%d (restart, coordinate) probe(s) skipped as unable to gain",
        stage, stats.runs, stats.at_ceiling, stats.skipped, stats.cannot_gain,
    )


def _train1(ctx: PipelineContext, features: dict[str, FeatureRows]) -> tuple[Split, RankModel]:
    config = ctx.config
    train_ids, test_ids = split_instances(
        (inst.instance_id for inst in ctx.corpus), config.split_ratio, config.resolved_split_seed()
    )
    # A query per training instance with graded rows, in instance-id order;
    # its rows in doc-id order, which breaks score ties.
    queries = []
    for iid in sorted(train_ids & features.keys()):
        doc_ids, matrix, grades = features[iid]
        graded = sorted((i for i, grade in enumerate(grades) if grade is not None), key=doc_ids.__getitem__)
        if graded:
            queries.append((matrix[graded], np.array([grades[i] for i in graded])))
    stats = AscentStats()
    (model,) = train_coordinate_ascent([queries], FEATURE_NAMES, config.train1, stats)
    n_examples = sum(len(grades) for _, grades in queries)
    logger.info("stage train1: training MAP %.4f over %d examples", model.training_map, n_examples)
    _log_ascent("train1", stats)
    return (train_ids, test_ids), model


def _rank1(
    ctx: PipelineContext, features: dict[str, FeatureRows], model: RankModel
) -> tuple[dict[str, Ranking]]:
    if model.feature_names != FEATURE_NAMES:
        raise IntegrityError(
            f"{_mode_dir(ctx.config) / 'model1.json'}: model feature names do not match the "
            "feature extractor; retrain with stage 'train1'"
        )
    ordered = sorted(features.items())
    return ({iid: rank(model, doc_ids, matrix, query_id=iid) for iid, (doc_ids, matrix, _) in ordered},)


def _lexicon(ctx: PipelineContext, rankings: dict[str, Ranking], split: Split) -> tuple[Lexicon]:
    # Built from the training split only, so evaluation stays leak-free.
    train_rankings = {iid: r for iid, r in rankings.items() if iid in split[0]}
    lexicon = build_lexicon(train_rankings, top_k=ctx.config.top_k)
    logger.info("stage lexicon: %d concepts (top_k=%d)", len(lexicon), ctx.config.top_k)
    return (lexicon,)


def _vectors_for(ids: Iterable[str], rankings: dict[str, Ranking], lexicon: Lexicon) -> list[InstanceVector]:
    # Instances with no stage-1 candidates stay rankable as zeros.
    return [vectorize(rankings[iid], lexicon) if iid in rankings else InstanceVector(iid, {}) for iid in sorted(ids)]


def _train2(
    ctx: PipelineContext, rankings: dict[str, Ranking], lexicon: Lexicon, split: Split
) -> tuple[list[InstanceVector], dict[str, RankModel]]:
    train_ids, _ = split
    instances = ctx.corpus_by_id()
    missing = sorted(train_ids - instances.keys())
    if missing:
        raise IntegrityError(
            f"{ctx.config.corpus}: no corpus record for instance {missing[0]!r} "
            f"of {_mode_dir(ctx.config) / 'split.json'}"
        )
    vectors = _vectors_for(train_ids, rankings, lexicon)
    gold = {iid: instances[iid].topics for iid in train_ids}
    topics = sorted({t for topic_set in gold.values() for t in topic_set})
    stats = AscentStats()
    models = train_topic_models(vectors, gold, topics, lexicon, ctx.config.train2, stats)
    training_maps = [m.training_map for m in models.values()]
    logger.info(
        "stage train2: training MAP %.4f to %.4f over %d topics",
        min(training_maps, default=0.0), max(training_maps, default=0.0), len(models),
    )
    _log_ascent("train2", stats)
    return vectors, models


def _rank2(
    ctx: PipelineContext, rankings: dict[str, Ranking], lexicon: Lexicon, split: Split,
    models: dict[str, RankModel],
) -> tuple[list[InstanceVector], dict[str, Ranking]]:
    expected_names = lexicon.feature_names()
    for topic, model in models.items():
        if model.feature_names != expected_names:
            raise IntegrityError(
                f"{_mode_dir(ctx.config) / 'topic_models.json'}: topic model {topic!r} does not "
                "match the lexicon; retrain with stage 'train2'"
            )
    vectors = _vectors_for(split[1], rankings, lexicon)
    return vectors, rank_images(models, vectors)


def _evaluate(ctx: PipelineContext, rankings: dict[str, Ranking], lexicon: Lexicon) -> tuple[EvalReport, str]:
    config = ctx.config
    gold = {inst.instance_id: inst.topics for inst in ctx.corpus}
    report = evaluate(rankings, gold, k=config.eval_k, mode=config.mode, lexicon_size=len(lexicon))
    logger.info(
        "stage evaluate [%s]: MAP %.4f, P@%d %.4f",
        config.mode, report.overall_map, config.eval_k, report.overall_p_at_k,
    )
    return report, report_table(report)


class Stage(NamedTuple):
    """A stage's transform, the artifacts it reads and writes besides its
    manifest (in the manifest's order), the seeds its outputs depend on,
    and whether they depend only on the link mode."""

    transform: Callable[..., tuple]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    seeds: tuple[str, ...] = ()
    by_link_mode: bool = False


# Every stage in run order: the one place that says what a stage reads, writes and depends on.
STAGES = {
    "link": Stage(_link, (), ("seeds.jsonl", "link_report.json"), by_link_mode=True),
    "graph": Stage(_graph, ("seeds.jsonl",), ("query_graphs.jsonl",), by_link_mode=True),
    "cluster": Stage(_cluster, ("query_graphs.jsonl",), ("partitions.jsonl",), by_link_mode=True),
    "features": Stage(_features, ("query_graphs.jsonl", "partitions.jsonl"), ("features.bin",)),
    "train1": Stage(_train1, ("features.bin",), ("split.json", "model1.json"), ("split", "train1")),
    "rank1": Stage(_rank1, ("features.bin", "model1.json"), ("rankings1.jsonl",), ("split", "train1")),
    "lexicon": Stage(_lexicon, ("rankings1.jsonl", "split.json"), ("lexicon.json",), ("split", "train1")),
    "train2": Stage(
        _train2, ("rankings1.jsonl", "lexicon.json", "split.json"),
        ("vectors_train.jsonl", "topic_models.json"), ("split", "train1", "train2"),
    ),
    "rank2": Stage(
        _rank2, ("rankings1.jsonl", "lexicon.json", "split.json", "topic_models.json"),
        ("vectors_test.jsonl", "rankings2.json"), ("split", "train1", "train2"),
    ),
    "evaluate": Stage(
        _evaluate, ("rankings2.json", "lexicon.json"), ("report.json", "report.txt"), ("split", "train1", "train2")
    ),
}
STAGE_ORDER = tuple(STAGES)

# What depends only on the link mode: ``run_all``'s TI takes it from TII,
# which links the same way, and computes none of it again.
_BY_LINK_MODE = frozenset((*(n for s in STAGES.values() if s.by_link_mode for n in s.outputs), _RAW_FEATURES))


def _step(stage: str, ctx: PipelineContext) -> None:
    """Run ``stage`` in ``ctx``'s mode: all of its file work around its transform.

    It makes the mode directory. Each input comes from the store when this
    run made it; otherwise it is checked (``_check_input``) and read through
    its reader. The transform takes the inputs and returns the outputs in
    table order; each output is written through its writer and stored, with
    its text when the stage is ``by_link_mode``. When every output's text is
    stored already, as for TI after TII, that text is written again and the
    transform is not called. Last comes the manifest, ``<stage>.manifest.json``.
    """
    config, spec, store, mode_dir = ctx.config, STAGES[stage], ctx.shared.store, _mode_dir(ctx.config)
    try:
        mode_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot make the output directory {mode_dir}: {exc.strerror}") from None
    keys = {name: ctx.key(name) for name in spec.outputs}
    if all(("text", *key) in store for key in keys.values()):
        for name, key in keys.items():
            write_atomic(mode_dir / name, store["text", *key])
    else:
        inputs = {name: ctx.key(name) for name in spec.inputs}
        for name, key in inputs.items():
            if key not in store:
                _check_input(config, stage, name)
        outputs = spec.transform(ctx, *(
            store[key] if key in store else ARTIFACTS[name].read(mode_dir / name)
            for name, key in inputs.items()
        ))
        for (name, key), obj in zip(keys.items(), outputs):
            text = ARTIFACTS[name].write(mode_dir / name, obj)
            store[key] = obj
            if spec.by_link_mode:
                store["text", *key] = text
    _write_json(mode_dir / f"{stage}.manifest.json", dict(
        stage=stage, mode=config.mode, seed=config.seed, seeds=_seeds(config), config_hash=config.config_hash(),
        inputs=list(spec.inputs), outputs=list(spec.outputs), version=__version__,
    ))


# Each stage is ``_step`` bound to its name, called with the context alone.
_STAGE_FUNCS = {stage: functools.partial(_step, stage) for stage in STAGES}


def run_stage(config: PipelineConfig, stage: str) -> Path:
    """Run one pipeline stage (or ``all``) and return the artifact directory.

    ``all`` runs every stage for each of the three candidate-set modes and
    writes a cross-mode comparison at the output root. Re-running a stage
    overwrites its outputs deterministically.
    """
    if stage == "all":
        return run_all(config)
    if stage not in _STAGE_FUNCS:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {', '.join(STAGE_ORDER)} or all")
    config.validate()
    _STAGE_FUNCS[stage](PipelineContext(config))
    return _mode_dir(config)


# ``run_all`` runs TII first, so that TII does the work TI reuses.
_RUN_ORDER = ("TII", "TI", "T")


def run_all(config: PipelineConfig) -> Path:
    """Run the full pipeline for modes T, TI, and TII and compare them.

    It runs mode by mode, TII, TI and T, each through all ten stages, with
    the same ``_step`` as ``run_stage`` and over one loaded graph, corpus and
    IDF table. Every output goes to disk and into one store, from which its
    consumers take it: nothing is read back. When a mode ends, its report is
    kept for the comparison, and the store drops every entry not keyed by
    the link mode of a later mode.
    """
    config.validate()
    base = PipelineContext(config)
    contexts = [base.for_mode(mode) for mode in _RUN_ORDER]
    store, reports = base.shared.store, {}
    for i, ctx in enumerate(contexts):
        for stage in STAGE_ORDER:
            _STAGE_FUNCS[stage](ctx)
        reports[ctx.config.mode] = store["report.json", ctx.config.mode]
        keep = {_link_mode(c.config) for c in contexts[i + 1:]}
        for key in [key for key in store if key[-1] not in keep]:
            del store[key]
    comparison = compare_modes([reports[mode] for mode in MODES])
    _write_json(config.out / "comparison.json", comparison.to_json_obj())
    write_atomic(config.out / "comparison.txt", comparison.table())
    logger.info("comparison written to %s", config.out / "comparison.txt")
    return config.out
