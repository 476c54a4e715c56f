"""Staged pipeline: linking, expansion, clustering, features, two ranking
stages, and evaluation, each writing deterministic artifacts to disk.

Per-mode artifacts live under ``<out>/<mode>/``. The candidate set ranked in
stage 1 depends on the mode: tags-only seeds (T), tag and image seeds (TI),
or seeds plus intermediate categories (TII). The query graph itself is
always built so connectivity features see the expanded context.

Stage outputs carry no timestamps, so re-running with the same config and
seeds reproduces every file byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

from . import __version__
from .clustering import Partition, build_relatedness_graph, louvain
from .config import PipelineConfig
from .errors import (
    ConfigError,
    IntegrityError,
    ParseError,
    StageDependencyError,
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
    pagerank_batch,
    read_feature_rows,
    write_feature_rows,
)
from .kg import KnowledgeGraph, load_graph
from .linking import Instance, LinkMode, SeedSet, corpus_link_stats, link_instance, read_corpus
from .ltr import AscentStats, RankModel, Ranking, load_model, rank, save_model, train_coordinate_ascent
from .query_graph import QueryGraph, build_query_graph
from .snapshot import kg_snapshot_key, load_kg_snapshot, save_kg_snapshot
from .topics import (
    InstanceVector,
    Lexicon,
    build_lexicon,
    load_lexicon,
    rank_images,
    save_lexicon,
    train_topic_models,
    vectorize,
    write_instance_vectors,
)

logger = logging.getLogger(__name__)

T = TypeVar("T")

STAGE_ORDER = (
    "link",
    "graph",
    "cluster",
    "features",
    "train1",
    "rank1",
    "lexicon",
    "train2",
    "rank2",
    "evaluate",
)

# The files each stage writes besides its manifest, in the manifest's order.
STAGE_OUTPUTS = {
    "link": ("seeds.jsonl", "link_report.json"),
    "graph": ("query_graphs.jsonl",),
    "cluster": ("partitions.jsonl",),
    "features": ("features.tsv",),
    "train1": ("split.json", "model1.json"),
    "rank1": ("rankings1.jsonl",),
    "lexicon": ("lexicon.json",),
    "train2": ("vectors_train.jsonl", "topic_models.json"),
    "rank2": ("vectors_test.jsonl", "rankings2.json"),
    "evaluate": ("report.json", "report.txt"),
}

STAGE_INPUTS = {
    "link": (),
    "graph": ("seeds.jsonl",),
    "cluster": ("query_graphs.jsonl",),
    "features": ("query_graphs.jsonl", "partitions.jsonl"),
    "train1": ("features.tsv",),
    "rank1": ("features.tsv", "model1.json"),
    "lexicon": ("rankings1.jsonl", "split.json"),
    "train2": ("rankings1.jsonl", "lexicon.json", "split.json"),
    "rank2": ("rankings1.jsonl", "lexicon.json", "split.json", "topic_models.json"),
    "evaluate": ("rankings2.json", "lexicon.json"),
}

# The seeds that each stage's outputs depend on; other stages depend on none.
STAGE_SEEDS = {
    "train1": ("split", "train1"),
    "rank1": ("split", "train1"),
    "lexicon": ("split", "train1"),
    "train2": ("split", "train1", "train2"),
    "rank2": ("split", "train1", "train2"),
}


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
    """What the contexts of one run share: the loaded inputs and a stage-result store."""

    def __init__(self) -> None:
        self.kg: tuple[KnowledgeGraph, IdfTable] | None = None
        self.corpus: list[Instance] | None = None
        self.results: dict[tuple, object] = {}


class PipelineContext:
    """One mode's view of a run: its config, the loaded graph, corpus and IDF
    table, and a store of stage results keyed by stage and link mode.

    The graph, corpus and IDF table load once, on first use. ``for_mode``
    makes the context of another mode that shares them, and the store, with
    this one; ``run_all`` runs its three modes so, and TI then reuses the
    link, graph, cluster and feature work of TII, which links the same way.
    ``run_stage`` makes a fresh context per call, so a single-mode stage
    computes everything itself and loads the graph from the snapshot an
    earlier stage wrote.
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
                overrides = _read_jsonl(self.config.image_labels, _parse_label_override)
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

    def reuse(self, stage: str, compute: Callable[[], T]) -> T:
        """``stage``'s stored result for this context's link mode, computed
        and stored on first use."""
        key = (stage, _link_mode(self.config))
        results = self.shared.results
        if key not in results:
            results[key] = compute()
        return results[key]


def _parse_label_override(obj: dict) -> tuple[str, tuple[str, ...]]:
    return str(obj["id"]), tuple(str(t) for t in obj.get("image_labels", ()))


def _mode_dir(config: PipelineConfig) -> Path:
    return config.out / config.mode


def _write_json(path: Path, obj) -> None:
    write_atomic(path, json_text(obj))


def _seeds(config: PipelineConfig) -> dict[str, int]:
    return {
        "split": config.resolved_split_seed(),
        "train1": config.train1.seed,
        "train2": config.train2.seed,
    }


def _write_manifest(config: PipelineConfig, stage: str) -> None:
    manifest = {
        "stage": stage,
        "mode": config.mode,
        "seed": config.seed,
        "seeds": _seeds(config),
        "config_hash": config.config_hash(),
        "inputs": list(STAGE_INPUTS[stage]),
        "outputs": list(STAGE_OUTPUTS[stage]),
        "version": __version__,
    }
    _write_json(_mode_dir(config) / f"{stage}.manifest.json", manifest)


def _check_inputs(config: PipelineConfig, stage: str) -> None:
    """Check that each input exists and, when seed-dependent, was made with this run's seeds.

    The seeds an input was made with are read from its producer's manifest.
    """
    mode_dir = _mode_dir(config)
    seeds = _seeds(config)
    for artifact in STAGE_INPUTS[stage]:
        producer = next(s for s, outputs in STAGE_OUTPUTS.items() if artifact in outputs)
        keys = STAGE_SEEDS.get(producer, ())
        manifest = mode_dir / f"{producer}.manifest.json"
        for path in [mode_dir / artifact, manifest] if keys else [mode_dir / artifact]:
            if not path.is_file():
                raise StageDependencyError(
                    f"stage {stage!r} needs {path} which does not exist; "
                    f"run stage {producer!r} first"
                )
        if not keys:
            continue
        made_with = read_json(manifest, lambda obj: {k: int(obj["seeds"][k]) for k in keys})
        expected = {k: seeds[k] for k in keys}
        if made_with != expected:
            raise StageDependencyError(
                f"stage {stage!r} needs {mode_dir / artifact} made with seeds {expected}, "
                f"but stage {producer!r} made it with {made_with}; re-run stage {producer!r}"
            )


def _link_mode(config: PipelineConfig) -> LinkMode:
    return LinkMode.TAGS_ONLY if config.mode == "T" else LinkMode.TAGS_AND_IMAGE


def _read_jsonl(path: Path, parse: Callable[[dict], tuple[str, T]]) -> dict[str, T]:
    """Parse each non-blank line of a JSON-lines artifact with ``parse`` into
    an (instance id, record) pair, and return the records by id in file order.

    A line that is not UTF-8 JSON, or that ``parse`` cannot read, raises
    ``ParseError`` naming the file and line; a second record with the same
    id raises ``IntegrityError`` naming the file, the line and the id.
    """
    records: dict[str, T] = {}
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record_id, record = parse(json.loads(line.decode("utf-8")))
                duplicate = record_id in records  # an unhashable id is malformed too
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed record ({exc!r})") from None
            if duplicate:
                raise IntegrityError(f"{path}:{lineno}: duplicate record for instance {record_id!r}")
            records[record_id] = record
    return records


def _by_instance_id(parse: Callable[[dict], T]) -> Callable[[dict], tuple[str, T]]:
    return lambda obj: (obj["instance_id"], parse(obj))


def _read_query_graphs(path: Path) -> list[QueryGraph]:
    return list(_read_jsonl(path, _by_instance_id(QueryGraph.from_json_obj)).values())


def _parse_partition(obj: dict) -> tuple[str, Partition]:
    assignment = {int(n): int(c) for n, c in obj["assignment"].items()}
    if len(assignment) != len(obj["assignment"]):
        raise ValueError("two keys of the assignment name one node id")
    return obj["instance_id"], Partition(assignment=assignment, modularity=float(obj["modularity"]))


def _parse_ranking(obj: dict) -> tuple[str, Ranking]:
    items = tuple((str(d), float(s)) for d, s in obj["items"])
    for doc_id, _ in items:
        int(doc_id)  # a node id; a ValueError reads as a malformed record
    return obj["query_id"], Ranking(query_id=obj["query_id"], items=items)


def _read_rankings_jsonl(path: Path) -> dict[str, Ranking]:
    return _read_jsonl(path, _parse_ranking)


def _load_split(mode_dir: Path) -> tuple[set[str], set[str]]:
    return read_json(mode_dir / "split.json", lambda obj: (set(obj["train"]), set(obj["test"])))


def _stage_link(ctx: PipelineContext) -> None:
    config = ctx.config
    mode_dir = _mode_dir(config)
    link_mode = _link_mode(config)

    def link() -> tuple[str, str]:
        seed_sets = [link_instance(ctx.graph, inst, link_mode) for inst in ctx.corpus]
        report = corpus_link_stats(ctx.graph, ctx.corpus).as_dict()
        return jsonl_text(s.to_json_obj() for s in seed_sets), json_text(report)

    seeds, report = ctx.reuse("link", link)
    write_atomic(mode_dir / "seeds.jsonl", seeds)
    write_atomic(mode_dir / "link_report.json", report)


def _stage_graph(ctx: PipelineContext) -> None:
    config = ctx.config
    mode_dir = _mode_dir(config)

    def expand() -> str:
        seed_sets = _read_jsonl(mode_dir / "seeds.jsonl", _by_instance_id(SeedSet.from_json_obj))
        return jsonl_text(build_query_graph(ctx.graph, ss).to_json_obj() for ss in seed_sets.values())

    text = ctx.reuse("graph", expand)
    write_atomic(mode_dir / "query_graphs.jsonl", text)


def _stage_cluster(ctx: PipelineContext) -> None:
    config = ctx.config
    mode_dir = _mode_dir(config)

    def cluster_one(qg: QueryGraph) -> dict:
        partition = louvain(build_relatedness_graph(qg))
        obj = partition.to_json_obj()
        obj["instance_id"] = qg.instance_id
        return obj

    def cluster() -> str:
        graphs = _read_query_graphs(mode_dir / "query_graphs.jsonl")
        return jsonl_text(cluster_one(qg) for qg in graphs)

    text = ctx.reuse("cluster", cluster)
    write_atomic(mode_dir / "partitions.jsonl", text)


def _raw_features(
    ctx: PipelineContext, mode_dir: Path
) -> list[tuple[QueryGraph, dict[int, int], np.ndarray]]:
    """The query graph, concept grades and raw feature matrix (a row per node
    of the graph's ``order``) of every instance with a non-empty query graph.

    A raw row depends on its node, not on the candidate set, so computing
    every node once serves every mode's candidates.
    """
    graphs = _read_query_graphs(mode_dir / "query_graphs.jsonl")
    partitions = _read_jsonl(mode_dir / "partitions.jsonl", _parse_partition)
    instances = ctx.corpus_by_id()
    for qg in graphs:
        if qg.instance_id not in partitions:
            raise IntegrityError(
                f"{mode_dir / 'partitions.jsonl'}: no partition for instance "
                f"{qg.instance_id!r}; rerun stage 'cluster'"
            )
        if qg.instance_id not in instances:
            raise IntegrityError(
                f"{ctx.config.corpus}: no corpus record for instance {qg.instance_id!r} "
                f"of {mode_dir / 'query_graphs.jsonl'}"
            )
    features = []
    for qg, pagerank_scores in zip(graphs, pagerank_batch(graphs)):
        if qg.order:
            instance = instances[qg.instance_id]
            matrix = extract_instance_features(
                qg, partitions[qg.instance_id], instance, ctx.graph, ctx.idf, pagerank_scores
            )
            features.append((qg, instance.concept_grades or {}, matrix))
    return features


def _stage_features(ctx: PipelineContext) -> None:
    config = ctx.config
    mode_dir = _mode_dir(config)
    rows = []
    for qg, grades, matrix in ctx.reuse("features", lambda: _raw_features(ctx, mode_dir)):
        # TII ranks every node of the query graph, T and TI only the seeds.
        picked = [i for i, o in enumerate(qg.origins) if config.mode == "TII" or o is not None]
        if not picked:
            continue
        normalized = normalize_per_query(matrix[picked]).tolist()
        candidates = [qg.order[i] for i in picked]
        rows.extend((qg.instance_id, v, row, grades.get(v)) for v, row in zip(candidates, normalized))
    write_feature_rows(mode_dir / "features.tsv", rows)


def _log_ascent(stage: str, stats: AscentStats) -> None:
    logger.info(
        "stage %s: trained %d restart(s), %d stopped at the training-MAP ceiling; "
        "%d later restart(s) could not win and were cut short or never trained",
        stage, stats.runs, stats.at_ceiling, stats.skipped,
    )


def _stage_train1(ctx: PipelineContext) -> None:
    config = ctx.config
    mode_dir = _mode_dir(config)
    instances = read_feature_rows(mode_dir / "features.tsv")
    train_ids, test_ids = split_instances(
        (inst.instance_id for inst in ctx.corpus), config.split_ratio, config.resolved_split_seed()
    )
    _write_json(mode_dir / "split.json", {"train": sorted(train_ids), "test": sorted(test_ids)})

    # A query per training instance with graded rows, in instance-id order;
    # its rows in doc-id order, which breaks score ties.
    queries = []
    for iid in sorted(train_ids & instances.keys()):
        doc_ids, matrix, grades = instances[iid]
        graded = sorted((i for i, grade in enumerate(grades) if grade is not None), key=doc_ids.__getitem__)
        if graded:
            queries.append((matrix[graded], np.array([grades[i] for i in graded])))
    stats = AscentStats()
    (model,) = train_coordinate_ascent([queries], FEATURE_NAMES, config.train1, stats)
    save_model(model, mode_dir / "model1.json")
    n_examples = sum(len(grades) for _, grades in queries)
    logger.info("stage train1: training MAP %.4f over %d examples", model.training_map, n_examples)
    _log_ascent("train1", stats)


def _stage_rank1(ctx: PipelineContext) -> None:
    config = ctx.config
    mode_dir = _mode_dir(config)
    model = load_model(mode_dir / "model1.json")
    if model.feature_names != FEATURE_NAMES:
        raise IntegrityError(
            f"{mode_dir / 'model1.json'}: model feature names do not match the "
            "feature extractor; retrain with stage 'train1'"
        )
    instances = read_feature_rows(mode_dir / "features.tsv")
    rankings = (
        rank(model, doc_ids, matrix, query_id=iid)
        for iid, (doc_ids, matrix, _) in sorted(instances.items())
    )
    objs = ({"query_id": r.query_id, "items": [[d, s] for d, s in r.items]} for r in rankings)
    write_atomic(mode_dir / "rankings1.jsonl", jsonl_text(objs))


def _stage_lexicon(ctx: PipelineContext) -> None:
    config = ctx.config
    mode_dir = _mode_dir(config)
    rankings = _read_rankings_jsonl(mode_dir / "rankings1.jsonl")
    train_ids, _ = _load_split(mode_dir)
    # Built from the training split only, so evaluation stays leak-free.
    train_rankings = {iid: r for iid, r in rankings.items() if iid in train_ids}
    lexicon = build_lexicon(train_rankings, top_k=config.top_k)
    save_lexicon(lexicon, mode_dir / "lexicon.json")
    logger.info("stage lexicon: %d concepts (top_k=%d)", len(lexicon), config.top_k)


def _vectors_for(
    ids: Iterable[str], rankings: dict[str, Ranking], lexicon: Lexicon
) -> list[InstanceVector]:
    vectors = []
    for iid in sorted(ids):
        if iid in rankings:
            vectors.append(vectorize(rankings[iid], lexicon))
        else:
            # Instances with no stage-1 candidates stay rankable as zeros.
            vectors.append(InstanceVector(instance_id=iid, entries={}))
    return vectors


def _stage_train2(ctx: PipelineContext) -> None:
    config = ctx.config
    mode_dir = _mode_dir(config)
    rankings = _read_rankings_jsonl(mode_dir / "rankings1.jsonl")
    lexicon = load_lexicon(mode_dir / "lexicon.json")
    train_ids, _ = _load_split(mode_dir)
    instances = ctx.corpus_by_id()
    missing = sorted(train_ids - instances.keys())
    if missing:
        raise IntegrityError(
            f"{config.corpus}: no corpus record for instance {missing[0]!r} "
            f"of {mode_dir / 'split.json'}"
        )

    vectors = _vectors_for(train_ids, rankings, lexicon)
    write_instance_vectors(vectors, mode_dir / "vectors_train.jsonl")
    gold = {iid: instances[iid].topics for iid in train_ids}
    topics = sorted({t for topic_set in gold.values() for t in topic_set})
    stats = AscentStats()
    models = train_topic_models(vectors, gold, topics, lexicon, config.train2, stats)
    training_maps = [m.training_map for m in models.values()]
    logger.info(
        "stage train2: training MAP %.4f to %.4f over %d topics",
        min(training_maps, default=0.0), max(training_maps, default=0.0), len(models),
    )
    _log_ascent("train2", stats)
    _write_json(mode_dir / "topic_models.json", {t: m.to_json_obj() for t, m in models.items()})


def _stage_rank2(ctx: PipelineContext) -> None:
    config = ctx.config
    mode_dir = _mode_dir(config)
    rankings = _read_rankings_jsonl(mode_dir / "rankings1.jsonl")
    lexicon = load_lexicon(mode_dir / "lexicon.json")
    _, test_ids = _load_split(mode_dir)

    path = mode_dir / "topic_models.json"
    models = read_json(
        path, lambda obj: {topic: RankModel.from_json_obj(m) for topic, m in obj.items()}
    )
    expected_names = lexicon.feature_names()
    for topic, model in models.items():
        if model.feature_names != expected_names:
            raise IntegrityError(
                f"{path}: topic model {topic!r} does not match the lexicon; "
                "retrain with stage 'train2'"
            )
    vectors = _vectors_for(test_ids, rankings, lexicon)
    write_instance_vectors(vectors, mode_dir / "vectors_test.jsonl")
    per_topic = rank_images(models, vectors)
    _write_json(
        mode_dir / "rankings2.json",
        {topic: [[d, s] for d, s in r.items] for topic, r in per_topic.items()},
    )


def _stage_evaluate(ctx: PipelineContext) -> None:
    config = ctx.config
    mode_dir = _mode_dir(config)
    rankings = read_json(
        mode_dir / "rankings2.json",
        lambda obj: {
            topic: Ranking(query_id=topic, items=tuple((str(d), float(s)) for d, s in items))
            for topic, items in obj.items()
        },
    )
    lexicon = load_lexicon(mode_dir / "lexicon.json")
    gold = {inst.instance_id: inst.topics for inst in ctx.corpus}
    report = evaluate(
        rankings, gold, k=config.eval_k, mode=config.mode, lexicon_size=len(lexicon)
    )
    _write_json(mode_dir / "report.json", report.to_json_obj())
    write_atomic(mode_dir / "report.txt", report_table(report))
    logger.info(
        "stage evaluate [%s]: MAP %.4f, P@%d %.4f",
        config.mode,
        report.overall_map,
        config.eval_k,
        report.overall_p_at_k,
    )


_STAGE_FUNCS = {
    "link": _stage_link,
    "graph": _stage_graph,
    "cluster": _stage_cluster,
    "features": _stage_features,
    "train1": _stage_train1,
    "rank1": _stage_rank1,
    "lexicon": _stage_lexicon,
    "train2": _stage_train2,
    "rank2": _stage_rank2,
    "evaluate": _stage_evaluate,
}


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
    _run(PipelineContext(config), stage)
    return _mode_dir(config)


def _run(ctx: PipelineContext, stage: str) -> None:
    """Run one stage in one mode: check its inputs, write its outputs, then its manifest."""
    mode_dir = _mode_dir(ctx.config)
    try:
        mode_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot make the output directory {mode_dir}: {exc.strerror}") from None
    _check_inputs(ctx.config, stage)
    _STAGE_FUNCS[stage](ctx)
    _write_manifest(ctx.config, stage)


# ``run_all`` runs each stage for TII first, so that TII does the work TI reuses.
_RUN_ORDER = ("TII", "TI", "T")


def run_all(config: PipelineConfig) -> Path:
    """Run the full pipeline for modes T, TI, and TII and compare them.

    It runs stage by stage, each for TII, TI and T in turn, through the same
    runner as ``run_stage`` and over one loaded graph, corpus and IDF table.
    The modes share a store of stage results keyed by stage and link mode, so
    TI reuses the link, graph, cluster and feature work of TII, which links
    the same way; T does its own. The store is emptied after each stage.
    """
    config.validate()
    base = PipelineContext(config)
    contexts = [base.for_mode(mode) for mode in _RUN_ORDER]
    for stage in STAGE_ORDER:
        for ctx in contexts:
            _run(ctx, stage)
        base.shared.results.clear()
    reports = [
        read_json(config.out / mode / "report.json", EvalReport.from_json_obj) for mode in MODES
    ]
    comparison = compare_modes(reports)
    _write_json(config.out / "comparison.json", comparison.to_json_obj())
    write_atomic(config.out / "comparison.txt", comparison.table())
    logger.info("comparison written to %s", config.out / "comparison.txt")
    return config.out
