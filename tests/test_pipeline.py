"""Config parsing, stage orchestration, fixture generation, CLI surface."""

import filecmp
import hashlib
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gistrank
from gistrank import pipeline
from gistrank.cli import main
from gistrank.config import load_config
from gistrank.errors import ConfigError, StageDependencyError, atomic_open, write_atomic
from gistrank.features import write_feature_rows
from gistrank.fixture import gen_fixture
from gistrank.kg import load_graph
from gistrank.linking import LinkMode, link_instance, read_corpus
from gistrank.pipeline import (
    ARTIFACTS,
    STAGE_ORDER,
    STAGES,
    run_all,
    run_stage,
    split_instances,
)
from gistrank.query_graph import QueryGraph, QueryGraphRows, build_query_graph

from tests.conftest import count_pipeline_calls, edit_npy_record, neighbors, npy_records
from tests.loop_kg import loop_load_graph


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("fixture")
    gen_fixture(seed=7, n_instances=30, n_topics=3, out_dir=out)
    return out


@pytest.fixture(scope="module")
def through_rank1(tmp_path_factory) -> Path:
    """A 9×3 fixture whose TII stages have run from link through rank1."""
    out = tmp_path_factory.mktemp("through_rank1")
    main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
    for stage in STAGE_ORDER[: STAGE_ORDER.index("rank1") + 1]:
        assert main([stage, "--config", str(out / "pipeline.config")]) == 0
    return out


@pytest.fixture(scope="module")
def run_all_out(fixture_dir, tmp_path_factory) -> Path:
    """The output root of one ``run_all`` over ``fixture_dir``."""
    out = tmp_path_factory.mktemp("run_all")
    return run_all(load_config(fixture_dir / "pipeline.config", {"out": str(out)}))


def _artifacts(root: Path) -> dict[str, bytes]:
    """The bytes of every file under ``root``, manifests included."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfig:
    def test_defaults_and_derived_seeds(self, fixture_dir):
        config = load_config(fixture_dir / "pipeline.config")
        assert config.mode == "TII"
        assert config.top_k == 10
        assert config.eval_k == 50
        assert config.split_ratio == 0.6
        assert config.resolved_split_seed() == config.seed + 1
        assert config.train1.seed == config.seed + 2
        assert config.train2.seed == config.seed + 3
        assert config.train1.relevance_threshold == 4
        assert config.train2.relevance_threshold == 1

    def test_relative_paths_resolved_against_config(self, fixture_dir):
        config = load_config(fixture_dir / "pipeline.config")
        assert config.kg_nodes == fixture_dir / "kg_nodes.tsv"

    def test_missing_file_is_config_error(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text("kg.nodes=nope.tsv\nkg.edges=nope.tsv\ncorpus=nope.jsonl\n")
        with pytest.raises(ConfigError, match="kg.nodes"):
            load_config(path)

    def test_unknown_key_rejected(self, fixture_dir, tmp_path):
        path = tmp_path / "extra.config"
        path.write_text(
            f"kg.nodes={fixture_dir / 'kg_nodes.tsv'}\n"
            f"kg.edges={fixture_dir / 'kg_edges.tsv'}\n"
            f"corpus={fixture_dir / 'corpus.jsonl'}\n"
            "zzz=1\n"
        )
        with pytest.raises(ConfigError, match="zzz"):
            load_config(path)

    def test_bad_ratio_rejected(self, fixture_dir):
        with pytest.raises(ConfigError, match="split.ratio"):
            load_config(fixture_dir / "pipeline.config", {"split.ratio": "1.5"})

    def test_bad_mode_rejected(self, fixture_dir):
        with pytest.raises(ConfigError, match="mode"):
            load_config(fixture_dir / "pipeline.config", {"mode": "X"})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("train2.min_gain", "-0.001"),
            ("train1.min_gain", "nan"),
            ("train2.min_gain", "inf"),
            ("train1.step_base", "0"),
            ("train1.step_base", "inf"),
            ("train2.step_base", "nan"),
            ("train1.step_levels", "1100"),
            ("train2.step_base", "1e307"),
        ],
    )
    def test_bad_training_settings_rejected(self, fixture_dir, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(fixture_dir / "pipeline.config", {key: value})

    def test_workers_key_accepts_only_1(self, fixture_dir):
        # The benchmark harness still passes workers=1; the pool is gone.
        assert load_config(fixture_dir / "pipeline.config", {"workers": "1"}) == load_config(
            fixture_dir / "pipeline.config"
        )
        for value in ("2", "0"):
            with pytest.raises(ConfigError, match="workers: the worker pool was removed"):
                load_config(fixture_dir / "pipeline.config", {"workers": value})

    def test_non_utf8_line_is_config_error(self, fixture_dir, tmp_path):
        path = tmp_path / "bytes.config"
        path.write_bytes((fixture_dir / "pipeline.config").read_bytes() + b"# \xff\n")
        lineno = len(path.read_bytes().splitlines())
        with pytest.raises(ConfigError, match=f"bytes.config:{lineno}: line is not valid UTF-8"):
            load_config(path)

    def test_overrides_apply(self, fixture_dir):
        config = load_config(fixture_dir / "pipeline.config", {"mode": "T", "seed": "11"})
        assert config.mode == "T"
        assert config.seed == 11


class TestSplit:
    def test_pure_function_of_inputs(self):
        ids = [f"i{k}" for k in range(20)]
        assert split_instances(ids, 0.6, 5) == split_instances(list(reversed(ids)), 0.6, 5)
        assert split_instances(ids, 0.6, 5) != split_instances(ids, 0.6, 6)

    def test_partition_covers_all(self):
        ids = [f"i{k}" for k in range(11)]
        train, test = split_instances(ids, 0.5, 1)
        assert train | test == set(ids)
        assert not train & test
        assert train and test


class TestGenFixture:
    def test_files_parse(self, fixture_dir):
        graph = load_graph(fixture_dir / "kg_nodes.tsv", fixture_dir / "kg_edges.tsv")
        corpus = read_corpus(fixture_dir / "corpus.jsonl")
        assert graph.n_nodes > 100
        assert len(corpus) == 30
        assert all(instance.topics for instance in corpus)
        # the CSR rows equal the symmetric category links, exhaustively on this
        # mid-size fixture
        adjacency = loop_load_graph(fixture_dir / "kg_nodes.tsv", fixture_dir / "kg_edges.tsv").adjacency
        for a in graph.ids.tolist():
            assert neighbors(graph, a) == adjacency[a]
            for b in adjacency[a]:
                assert a in neighbors(graph, b)

    def test_deterministic(self, tmp_path, fixture_dir):
        other = tmp_path / "again"
        gen_fixture(seed=7, n_instances=30, n_topics=3, out_dir=other)
        for name in ("kg_nodes.tsv", "kg_edges.tsv", "corpus.jsonl"):
            assert filecmp.cmp(fixture_dir / name, other / name, shallow=False), name

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        gen_fixture(seed=1, n_instances=12, n_topics=3, out_dir=a)
        gen_fixture(seed=2, n_instances=12, n_topics=3, out_dir=b)
        assert not filecmp.cmp(a / "corpus.jsonl", b / "corpus.jsonl", shallow=False)

    def test_size_precondition(self, tmp_path):
        with pytest.raises(ConfigError, match="3 \\* n_topics"):
            gen_fixture(seed=1, n_instances=5, n_topics=2, out_dir=tmp_path)

    def test_same_topic_instances_share_hub_category(self, fixture_dir):
        graph = load_graph(fixture_dir / "kg_nodes.tsv", fixture_dir / "kg_edges.tsv")
        corpus = read_corpus(fixture_dir / "corpus.jsonl")
        by_topic: dict[str, list] = {}
        for instance in corpus:
            seeds = link_instance(graph, instance, LinkMode.TAGS_AND_IMAGE)
            qg = build_query_graph(graph, seeds)
            for topic in instance.topics:
                by_topic.setdefault(topic, []).append(qg)
        for topic, graphs in by_topic.items():
            hub = graph.lookup_title(f"{topic} hub")
            assert hub is not None
            for qg in graphs:
                assert hub in qg.order, (topic, qg.instance_id)


class TestStages:
    def test_rank1_before_train1_names_missing_stage(self, fixture_dir, tmp_path):
        config = load_config(
            fixture_dir / "pipeline.config", {"out": str(tmp_path / "out")}
        )
        run_stage(config, "link")
        with pytest.raises(StageDependencyError, match="train1"):
            run_stage(config, "rank1")

    def test_stage_table_invariants(self):
        outputs = [name for spec in STAGES.values() for name in spec.outputs]
        # Every artifact is written by exactly one stage.
        assert sorted(outputs) == sorted(ARTIFACTS)
        producer = {name: stage for stage, spec in STAGES.items() for name in spec.outputs}
        for stage, spec in STAGES.items():
            for name in spec.inputs:
                made_by = STAGES[producer[name]]
                # Each input comes from an earlier stage.
                assert STAGE_ORDER.index(producer[name]) < STAGE_ORDER.index(stage), (stage, name)
                # run_all's TI takes a link-mode stage's outputs from TII, so
                # such a stage may read nothing that depends on the mode.
                assert made_by.by_link_mode or not spec.by_link_mode, (stage, name)
                # A stage's outputs depend on every seed its inputs depend on.
                assert set(made_by.seeds) <= set(spec.seeds), (stage, name)

    def test_unknown_stage(self, fixture_dir):
        config = load_config(fixture_dir / "pipeline.config")
        with pytest.raises(ConfigError, match="unknown stage"):
            run_stage(config, "zap")

    def test_stagewise_run_produces_artifacts(self, fixture_dir, tmp_path):
        config = load_config(
            fixture_dir / "pipeline.config",
            {"out": str(tmp_path / "out"), "mode": "TI"},
        )
        for stage in (
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
        ):
            run_stage(config, stage)
        mode_dir = tmp_path / "out" / "TI"
        for artifact in (
            "seeds.jsonl",
            "link_report.json",
            "query_graphs.jsonl",
            "partitions.jsonl",
            "features.bin",
            "model1.json",
            "rankings1.jsonl",
            "lexicon.json",
            "topic_models.json",
            "rankings2.json",
            "report.json",
            "report.txt",
        ):
            assert (mode_dir / artifact).is_file(), artifact
        report = json.loads((mode_dir / "report.json").read_text())
        assert report["mode"] == "TI"
        assert 0.0 <= report["overall_map"] <= 1.0
        manifest = json.loads((mode_dir / "evaluate.manifest.json").read_text())
        assert manifest["mode"] == "TI"
        assert "config_hash" in manifest

    def test_training_stages_log_the_ceiling_stop(self, fixture_dir, tmp_path, caplog):
        config = load_config(fixture_dir / "pipeline.config", {"out": str(tmp_path / "out"), "mode": "T"})
        with caplog.at_level(logging.INFO, logger="gistrank.pipeline"):
            for stage in STAGE_ORDER[:STAGE_ORDER.index("train2") + 1]:
                run_stage(config, stage)
        # Five restarts of one set in stage 1, of each of three topics in
        # stage 2. Every restart 0 reaches the ceiling, so no later restart
        # is trained.
        for stage, trained, skipped in (("train1", 1, 4), ("train2", 3, 12)):
            assert re.search(
                rf"stage {stage}: trained {trained} restart\(s\), {trained} stopped at the "
                rf"training-MAP ceiling; {skipped} later restart\(s\) could not win and were "
                r"cut short or never trained",
                caplog.text,
            )
        assert re.search(r"stage train2: training MAP \d\.\d{4} to \d\.\d{4} over 3 topics", caplog.text)

    def test_each_manifest_lists_what_its_stage_writes(self, fixture_dir, tmp_path):
        config = load_config(fixture_dir / "pipeline.config", {"out": str(tmp_path / "out")})
        for stage in STAGE_ORDER:
            run_stage(config, stage)
        mode_dir = tmp_path / "out" / "TII"
        manifests = sorted(p.name for p in mode_dir.glob("*.manifest.json"))
        assert manifests == sorted(f"{stage}.manifest.json" for stage in STAGE_ORDER)
        for stage in STAGE_ORDER:
            manifest = json.loads((mode_dir / f"{stage}.manifest.json").read_text())
            assert manifest["stage"] == stage
            assert manifest["outputs"] == list(STAGES[stage].outputs)
            for name in manifest["outputs"]:
                assert (mode_dir / name).is_file(), name
        # Nothing else: every file a stage writes is declared.
        written = {p.relative_to(mode_dir).as_posix() for p in mode_dir.rglob("*") if p.is_file()}
        declared = {name for spec in STAGES.values() for name in spec.outputs}
        assert written == declared | set(manifests)

    def test_one_stage_call_makes_the_mode_directory_and_the_manifest(self, fixture_dir, tmp_path):
        # The stage function is the whole stage: nothing around it makes
        # the directory or writes the manifest.
        config = load_config(fixture_dir / "pipeline.config", {"out": str(tmp_path / "fresh"), "mode": "T"})
        pipeline._STAGE_FUNCS["link"](pipeline.PipelineContext(config))
        mode_dir = tmp_path / "fresh" / "T"
        assert sorted(p.name for p in mode_dir.iterdir()) == sorted(("link.manifest.json", *STAGES["link"].outputs))
        manifest = json.loads((mode_dir / "link.manifest.json").read_text())
        assert (manifest["stage"], manifest["mode"]) == ("link", "T")
        assert manifest["outputs"] == list(STAGES["link"].outputs)

    def test_link_report_written(self, fixture_dir, tmp_path):
        config = load_config(fixture_dir / "pipeline.config", {"out": str(tmp_path / "o")})
        run_stage(config, "link")
        report = json.loads((tmp_path / "o" / "TII" / "link_report.json").read_text())
        assert report["empty_instances_tags"] == 1
        assert report["empty_instances_image"] == 1
        assert report["total_seeds_tags"] <= report["total_candidates_tags"]

    def test_reruns_byte_identical(self, fixture_dir, tmp_path):
        # Runs into two output directories write the same trees, manifests
        # included: the config hash covers no output path.
        from gistrank.pipeline import run_all

        first, second = (
            _artifacts(run_all(load_config(fixture_dir / "pipeline.config", {"out": str(tmp_path / name)})))
            for name in ("first", "second")
        )
        assert sum(name.endswith(".manifest.json") for name in first) == 30
        assert len(first) > 60
        assert first == second

    def test_image_label_override(self, fixture_dir, tmp_path):
        override = tmp_path / "labels.jsonl"
        override.write_text(json.dumps({"id": "inst000", "image_labels": []}) + "\n")
        config = load_config(
            fixture_dir / "pipeline.config",
            {"out": str(tmp_path / "o"), "image_labels": str(override)},
        )
        run_stage(config, "link")
        seeds_lines = (tmp_path / "o" / "TII" / "seeds.jsonl").read_text().splitlines()
        first = json.loads(seeds_lines[0])
        assert first["instance_id"] == "inst000"
        assert all(not s["from_image"] for s in first["seeds"])

    def test_malformed_label_override_is_parse_error(self, fixture_dir, tmp_path):
        from gistrank.errors import ParseError

        # A record without an id, labels that are a string, not an array
        # (once read one character at a time), and an id or a label that is
        # not a string (once kept as its str()).
        records = [
            '{"image_labels": ["x"]}',
            '{"id": "inst000", "image_labels": "dog"}',
            '{"id": "inst000", "image_labels": ["dog", 5]}',
            '{"id": "inst000", "image_labels": [null]}',
            '{"id": 0, "image_labels": ["dog"]}',
        ]
        for i, record in enumerate(records):
            override = tmp_path / "labels.jsonl"
            override.write_text(record + "\n")
            config = load_config(
                fixture_dir / "pipeline.config",
                {"out": str(tmp_path / f"o{i}"), "image_labels": str(override)},
            )
            with pytest.raises(ParseError, match="labels.jsonl:1"):
                run_stage(config, "link")

    def test_stale_stage1_model_rejected(self, fixture_dir, tmp_path):
        from gistrank.errors import IntegrityError
        from gistrank.ltr import RankModel

        config = load_config(fixture_dir / "pipeline.config", {"out": str(tmp_path / "o")})
        for stage in ("link", "graph", "cluster", "features", "train1"):
            run_stage(config, stage)
        bogus = RankModel(weights=(1.0,), feature_names=("other",), training_map=0.0)
        ARTIFACTS["model1.json"].write(tmp_path / "o" / "TII" / "model1.json", bogus)
        with pytest.raises(IntegrityError, match="feature names"):
            run_stage(config, "rank1")


def _prefix_first_doc_ids(data: bytes, prefix: str) -> bytes:
    """Prefix the first ranked doc id of every stage-1 ranking."""
    records = [json.loads(line) for line in data.splitlines()]
    for record in records:
        if record["items"]:
            record["items"][0][0] = prefix + record["items"][0][0]
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


def _edit_json(data: bytes, edit) -> bytes:
    """The JSON text ``data`` after ``edit`` changed its object in place."""
    obj = json.loads(data)
    edit(obj)
    return json.dumps(obj).encode()


def _edit_split_seed(data: bytes, edit) -> bytes:
    """The manifest text ``data`` with ``edit`` applied to its split seed."""
    return _edit_json(data, lambda m: m["seeds"].update(split=edit(m["seeds"]["split"])))


def _nan_first_score(data: bytes) -> bytes:
    """A NaN for the first score of the first stage-1 ranking that has one."""
    records = [json.loads(line) for line in data.splitlines()]
    next(r for r in records if r["items"])["items"][0][1] = math.nan
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def _cut_after_records(n: int):
    """Cut a feature dump right after its first ``n`` records."""
    return lambda data: data[: ([0] + [end for end, _ in npy_records(data)])[n]]


def _edit_first_line(data: bytes, field: str, edit) -> bytes:
    """Apply ``edit`` in place to the record of the first JSON line whose ``field`` is not empty."""
    lines = data.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if json.loads(line)[field])
    record = json.loads(lines[i])
    edit(record)
    lines[i] = json.dumps(record).encode() + b"\n"
    return b"".join(lines)


def _respell_key(mapping: dict, respell) -> None:
    """Give the longest key of ``mapping`` the spelling ``respell(key)``, keeping its value."""
    key = max(mapping, key=len)
    mapping[respell(key)] = mapping.pop(key)


def _first_seed(record: dict) -> dict:
    return record["seeds"][0]


def _respell_first_partition_key(record: dict) -> None:
    """Add a second key for the first assigned node: its digits and a space."""
    record["assignment"][next(iter(record["assignment"])) + " "] = 99


def _flip_first_seed(record: dict) -> None:
    """Add a second seed entry for the first seed, with its tag origin flipped."""
    first = record["seeds"][0]
    record["seeds"].append({**first, "from_tags": not first["from_tags"]})


def _add_foreign_partition_node(data: bytes) -> bytes:
    """Assign one node that is not in the query graph in the first non-empty partition."""
    lines = data.splitlines(keepends=True)
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["assignment"]:
            foreign = max(map(int, record["assignment"])) + 1
            record["assignment"][str(foreign)] = 0
            lines[i] = json.dumps(record).encode() + b"\n"
            break
    return b"".join(lines)


def _same(a, b) -> bool:
    """``a == b``, with query graphs compared by their rows, arrays bit for
    bit with their dtype and C layout, and mappings in their order too."""
    if isinstance(a, QueryGraph):
        return isinstance(b, QueryGraph) and _same(
            (a.instance_id, a.order, a.origins, a.hops), (b.instance_id, b.order, b.origins, b.hops)
        )
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape)
            and a.flags.c_contiguous and b.flags.c_contiguous and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.fixture(scope="module")
def written(fixture_dir, tmp_path_factory) -> dict[str, list]:
    """The (path, object) pairs that one ``run_all`` wrote through the
    artifact writers, by artifact name."""
    records: dict[str, list] = {name: [] for name in ARTIFACTS}
    with pytest.MonkeyPatch.context() as mp:
        for name, artifact in ARTIFACTS.items():
            def write(path, obj, _name=name, _write=artifact.write):
                records[_name].append((path, obj))
                return _write(path, obj)

            mp.setitem(ARTIFACTS, name, artifact._replace(write=write))
        out = tmp_path_factory.mktemp("written")
        run_all(load_config(fixture_dir / "pipeline.config", {"out": str(out)}))
    return records


class TestArtifacts:
    """``run_all`` hands each object it writes to the consumers of the file,
    so reading the file back must give an equal object."""

    @pytest.mark.parametrize("name", sorted({name for spec in STAGES.values() for name in spec.inputs}))
    def test_what_run_all_hands_over_reads_back_equal(self, written, name):
        # Once per mode, but TI writes again the text TII's writer made for
        # the outputs of the stages that depend only on the link mode.
        by_link_mode = {name for stage in ("link", "graph", "cluster") for name in STAGES[stage].outputs}
        assert len(written[name]) == (2 if name in by_link_mode else 3)
        for path, obj in written[name]:
            assert _same(obj, ARTIFACTS[name].read(path)), path

    def test_features_in_the_stage_form_round_trip(self, tmp_path):
        # Per instance, in the order given (not sorted): doc ids, one fresh
        # C-contiguous float64 matrix, grades with None for ungraded rows.
        # The values come back bit for bit, -0.0 and a subnormal included.
        features = {
            "i2": (["10"], np.array([[-0.0] + [1.0] * 15]), [None]),
            "i1": (["4", "3"], np.array([[x / 7 for x in range(16)], [0.0] * 15 + [5e-324]]), [5, None]),
        }
        path = tmp_path / "features.bin"
        ARTIFACTS["features.bin"].write(path, features)
        flat = tmp_path / "flat.bin"
        write_feature_rows(
            flat, np.concatenate([m for _, m, _ in features.values()]), ["i2", "i1", "i1"], ["10", "4", "3"],
            [None, 5, None],
        )
        assert path.read_bytes() == flat.read_bytes()
        read = ARTIFACTS["features.bin"].read(path)
        assert _same(read, features) and list(read) == ["i2", "i1"]
        assert all(m.flags.writeable and m.base is None for _, m, _ in read.values())
        ARTIFACTS["features.bin"].write(path, {})
        assert ARTIFACTS["features.bin"].read(path) == {}


class TestAtomicWrites:
    def test_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "features.bin"
        write_feature_rows(path, np.full((1, 16), 0.5), ["i1"], ["3"], [1])
        old = path.read_bytes()
        save = np.save

        def save_until_the_matrix(fh, array, **kwargs):
            if array.ndim == 2:  # the disk fills up in the last record
                fh.write(b"\x93NUMPY")
                raise OSError("disk full")
            save(fh, array, **kwargs)

        monkeypatch.setattr(np, "save", save_until_the_matrix)
        with pytest.raises(OSError, match="disk full"):
            write_feature_rows(path, np.full((1, 16), 0.25), ["i2"], ["4"], [None])
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.bin"]

    def test_writers_replace_the_file_in_one_step(self, tmp_path):
        path = tmp_path / "a.json"
        write_atomic(path, "old\n")
        with pytest.raises(ValueError):
            with atomic_open(path) as fh:
                fh.write("partial")
                raise ValueError("interrupted")
        assert path.read_text() == "old\n"
        write_atomic(path, b"new\n")
        assert path.read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


class TestRunAll:
    """``run_all`` shares one graph, corpus and IDF table, and a store of stage
    results, between its modes; each mode must still write what it alone would."""

    @pytest.mark.parametrize("mode", ["T", "TI", "TII"])
    def test_each_mode_writes_what_its_staged_run_writes(
        self, fixture_dir, run_all_out, tmp_path, mode
    ):
        features = {m: (run_all_out / m / "features.bin").read_bytes() for m in ("T", "TI", "TII")}
        assert len(set(features.values())) == 3  # TI ranks fewer candidates than TII
        config = load_config(
            fixture_dir / "pipeline.config", {"out": str(tmp_path / "staged"), "mode": mode}
        )
        for stage in STAGE_ORDER:
            run_stage(config, stage)
        staged = _artifacts(tmp_path / "staged" / mode)
        assert "features.bin" in staged and "report.txt" in staged
        assert _artifacts(run_all_out / mode) == staged

    def test_shared_work_runs_once_per_run_or_link_mode(self, fixture_dir, tmp_path, monkeypatch):
        per_run = ("load_graph", "read_corpus", "build_idf_table")
        per_link_mode = ("link_instance", "louvain")
        batches = ("build_query_graphs", "extract_instance_features")
        counts = count_pipeline_calls(monkeypatch, per_run + per_link_mode + batches + ("read_feature_rows",))
        parsed_graphs = []
        parse_graph = QueryGraphRows.from_json_obj.__func__

        def counted_parse(cls, obj):
            parsed_graphs.append(obj["instance_id"])
            return parse_graph(cls, obj)

        monkeypatch.setattr(QueryGraphRows, "from_json_obj", classmethod(counted_parse))
        out = run_all(load_config(fixture_dir / "pipeline.config", {"out": str(tmp_path / "o")}))
        n = len(read_corpus(fixture_dir / "corpus.jsonl"))
        assert {name: counts[name] for name in per_run} == dict.fromkeys(per_run, 1)
        assert {name: counts[name] for name in per_link_mode} == dict.fromkeys(per_link_mode, 2 * n)
        # One batch per link mode: T and TII (which TI reuses).
        assert {name: counts[name] for name in batches} == dict.fromkeys(batches, 2)
        # Each consumer takes what the run made from the store: nothing is read back.
        assert counts["read_feature_rows"] == 0 and parsed_graphs == []

    def test_modes_run_one_after_another_and_keep_only_what_later_modes_read(
        self, fixture_dir, tmp_path, monkeypatch
    ):
        # Each mode runs all ten stages; when it ends, the store keeps only
        # what is keyed by the link mode of a later mode.
        calls = []
        for stage, run in list(pipeline._STAGE_FUNCS.items()):
            def recording_run(ctx, stage=stage, run=run):
                if stage == "link":
                    calls.append((ctx.config.mode, "held", {key[-1] for key in ctx.shared.store}))
                calls.append((ctx.config.mode, stage))
                run(ctx)

            monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, recording_run)
        run_all(load_config(fixture_dir / "pipeline.config", {"out": str(tmp_path / "o")}))
        expected = []
        for mode, held in (("TII", set()), ("TI", {LinkMode.TAGS_AND_IMAGE}), ("T", set())):
            expected += [(mode, "held", held), *((mode, stage) for stage in STAGE_ORDER)]
        assert calls == expected

    def test_run_stage_reads_its_inputs_from_disk(self, fixture_dir, run_all_out, tmp_path):
        out = tmp_path / "copy"
        shutil.copytree(run_all_out, out)
        rankings = out / "TII" / "rankings1.jsonl"
        records = [json.loads(line) for line in rankings.read_text().splitlines()]
        for record in records:
            record["items"] = [["999999", 1.0]]
        rankings.write_text("".join(json.dumps(record) + "\n" for record in records))
        run_stage(load_config(fixture_dir / "pipeline.config", {"out": str(out)}), "lexicon")
        assert json.loads((out / "TII" / "lexicon.json").read_text())["entries"] == {"999999": 0}

    def test_graph_layer_bytes_are_pinned(self, tmp_path):
        # Recorded by running these commands at commit 7128ac1, whose Louvain
        # ran on a pairs dict (now tests/loop_louvain.py). The files hold
        # only node ids, cluster ids and modularity values built from exact
        # sums, so the digests do not depend on the Python or numpy version.
        expected = {
            "T/query_graphs.jsonl": "5cf260522374085775f2a7cec59733c41faefaed57d440185cbebe467d219ab2",
            "T/partitions.jsonl": "d82b73e4a1b5d8cea842a21c1f952cbf2b35a3bdab2119ba1b280212afcfd7cd",
            "TII/query_graphs.jsonl": "0b8a21250e9be5ad938a4f13958d3c90a7815823923c79df419be785860d9ef4",
            "TII/partitions.jsonl": "2d29becb7382b6ba0806b33145a7c120b8035ae165bed21355af3b3828b103f2",
        }
        out = tmp_path / "fx"
        assert main(["gen-fixture", "--seed", "1", "--instances", "30", "--topics", "3",
                     "--out", str(out)]) == 0
        assert main(["all", "--config", str(out / "pipeline.config")]) == 0
        got = {
            name: hashlib.sha256((out / "out" / name).read_bytes()).hexdigest() for name in expected
        }
        assert got == expected


class TestCli:
    def test_gen_fixture_and_stage(self, tmp_path, capsys):
        out = tmp_path / "fx"
        assert main(["gen-fixture", "--seed", "3", "--instances", "9", "--topics", "3", "--out", str(out)]) == 0
        assert main(["link", "--config", str(out / "pipeline.config")]) == 0
        assert (out / "out" / "TII" / "seeds.jsonl").is_file()

    def test_all_imports_no_numpy_ma(self, fixture_dir, tmp_path):
        # numpy.ma adds about 1.2 MB of resident memory, and numpy 2 imports
        # it on the first plain np.unique (through np.ma.is_masked); no stage
        # needs it. Older numpy imports it with numpy itself.
        code = (
            "import sys, numpy; before = 'numpy.ma' in sys.modules; from gistrank.cli import main; "
            "print(main(sys.argv[1:]), before, 'numpy.ma' in sys.modules)"
        )
        config = fixture_dir / "pipeline.config"
        result = subprocess.run(
            [sys.executable, "-c", code, "all", "--config", str(config), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(Path(gistrank.__file__).parents[1])},
        )
        status, before, after = result.stdout.split()
        assert (status, after) == ("0", before)

    def test_usage_error_exit_code(self, capsys):
        assert main(["link"]) == 1  # missing --config

    def test_missing_config_file_exit_code(self, capsys):
        assert main(["link", "--config", "/nonexistent.config"]) == 1

    def test_dependency_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "3", "--instances", "9", "--topics", "3", "--out", str(out)])
        assert main(["rank1", "--config", str(out / "pipeline.config")]) == 2

    @pytest.mark.parametrize(
        "artifact, upstream, stage, corrupt",
        [
            ("seeds.jsonl", ["link"], "graph", lambda data: data[:-40]),
            ("query_graphs.jsonl", ["link", "graph"], "cluster", lambda data: data[:-40]),
            ("partitions.jsonl", ["link", "graph", "cluster"], "features", lambda data: data[:-40]),
            ("seeds.jsonl", ["link"], "graph", lambda data: b"\xff" + data),
            (
                "partitions.jsonl", ["link", "graph", "cluster"], "features",
                lambda data: b'{"instance_id": "x", "assignment": [1], "modularity": 0}\n',
            ),
            (
                "query_graphs.jsonl", ["link", "graph"], "cluster",
                lambda data: b'{"instance_id": "x", "seeds": [], "intermediates": [1], '
                b'"edges": [[1, 2]]}\n',
            ),
            (
                "query_graphs.jsonl", ["link", "graph"], "cluster",
                lambda data: _edit_first_line(
                    data, "seeds", lambda r: r["intermediates"].append(_first_seed(r)["id"])
                ),
            ),
            (
                "query_graphs.jsonl", ["link", "graph"], "cluster",
                lambda data: _edit_first_line(
                    data, "seeds", lambda r: r["edges"].append([_first_seed(r)["id"]] * 2)
                ),
            ),
            (
                "partitions.jsonl", ["link", "graph", "cluster"], "features",
                _add_foreign_partition_node,
            ),
            # Values that int(), float() or bool() once read as others: a seed
            # id of 9.9 as 9, the flag "false" as true, an intermediate or an
            # edge end of 2.5 as 2, a cluster id of 1.7 or true as 1; and a NaN
            # modularity passed.
            (
                "seeds.jsonl", ["link"], "graph",
                lambda data: _edit_first_line(
                    data, "seeds", lambda r: _first_seed(r).update(id=_first_seed(r)["id"] + 0.9)
                ),
            ),
            (
                "seeds.jsonl", ["link"], "graph",
                lambda data: _edit_first_line(data, "seeds", lambda r: _first_seed(r).update(from_tags="false")),
            ),
            (
                "query_graphs.jsonl", ["link", "graph"], "cluster",
                lambda data: _edit_first_line(
                    data, "intermediates", lambda r: r.update(intermediates=[v + 0.5 for v in r["intermediates"]])
                ),
            ),
            (
                "query_graphs.jsonl", ["link", "graph"], "cluster",
                lambda data: _edit_first_line(
                    data, "edges", lambda r: r.update(edges=[[a + 0.5, b] for a, b in r["edges"]])
                ),
            ),
            (
                "partitions.jsonl", ["link", "graph", "cluster"], "features",
                lambda data: _edit_first_line(
                    data, "assignment", lambda r: r.update(assignment=dict.fromkeys(r["assignment"], 1.7))
                ),
            ),
            (
                "partitions.jsonl", ["link", "graph", "cluster"], "features",
                lambda data: _edit_first_line(
                    data, "assignment", lambda r: r.update(assignment=dict.fromkeys(r["assignment"], True))
                ),
            ),
            (
                "partitions.jsonl", ["link", "graph", "cluster"], "features",
                lambda data: _edit_first_line(data, "assignment", lambda r: r.update(modularity=math.nan)),
            ),
            # int() reads the keys "+7" and " 7" as node 7, and "7_1" as node 71.
            (
                "partitions.jsonl", ["link", "graph", "cluster"], "features",
                lambda data: _edit_first_line(
                    data, "assignment", lambda r: _respell_key(r["assignment"], lambda k: "+" + k)
                ),
            ),
            (
                "partitions.jsonl", ["link", "graph", "cluster"], "features",
                lambda data: _edit_first_line(
                    data, "assignment", lambda r: _respell_key(r["assignment"], lambda k: k[:1] + "_" + k[1:])
                ),
            ),
        ],
        ids=["truncated-seeds", "truncated-graphs", "truncated-partitions", "non-utf8-seeds",
             "partition-type", "graph-stray-edge", "graph-seed-as-intermediate",
             "graph-self-loop", "partition-foreign-node", "seed-float-id", "seed-string-flag",
             "graph-float-intermediate", "graph-float-edge-end", "partition-float-cluster",
             "partition-boolean-cluster", "partition-nan-modularity", "partition-plus-key",
             "partition-underscore-key"],
    )
    def test_malformed_graph_layer_artifact_exit_code(
        self, tmp_path, capsys, artifact, upstream, stage, corrupt
    ):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        config = str(out / "pipeline.config")
        for name in upstream:
            assert main([name, "--config", config]) == 0
        path = out / "out" / "TII" / artifact
        path.write_bytes(corrupt(path.read_bytes()))
        assert main([stage, "--config", config]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "artifact, stage, edit",
        [
            ("partitions.jsonl", "features", _respell_first_partition_key),
            ("seeds.jsonl", "graph", _flip_first_seed),
            ("query_graphs.jsonl", "cluster", _flip_first_seed),
        ],
        ids=["partition-key", "seeds", "query-graph-seeds"],
    )
    def test_node_named_twice_in_a_record_exit_code(self, tmp_path, capsys, artifact, stage, edit):
        # A record naming one node twice (two seed entries, or partition keys
        # such as "7" and "7 " that int() reads as one id) once kept the last.
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        config = str(out / "pipeline.config")
        for name in STAGE_ORDER[: STAGE_ORDER.index(stage)]:
            assert main([name, "--config", config]) == 0
        path = out / "out" / "TII" / artifact
        lines = path.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if json.loads(line).get("seeds", True))
        record = json.loads(lines[first])
        edit(record)
        lines[first] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        assert main([stage, "--config", config]) == 2
        assert f"{path}:{first + 1}: malformed record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "artifact, upstream, stage, id_key",
        [
            ("labels.jsonl", 0, "link", "id"),
            ("out/TII/seeds.jsonl", 1, "graph", "instance_id"),
            ("out/TII/query_graphs.jsonl", 2, "cluster", "instance_id"),
            ("out/TII/partitions.jsonl", 3, "features", "instance_id"),
            ("out/TII/rankings1.jsonl", 6, "lexicon", "query_id"),
        ],
        ids=["label-override", "seeds", "query-graphs", "partitions", "rankings1"],
    )
    def test_duplicate_record_exit_code(self, tmp_path, capsys, artifact, upstream, stage, id_key):
        # A second record for an instance once replaced the first one silently.
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        (out / "labels.jsonl").write_text(json.dumps({"id": "inst000", "image_labels": []}) + "\n")
        config = out / "pipeline.config"
        config.write_text(config.read_text() + "image_labels=labels.jsonl\n")
        for name in STAGE_ORDER[:upstream]:
            assert main([name, "--config", str(config)]) == 0
        path = out / artifact
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        if "assignment" in record:  # a different partition of the same nodes
            record["assignment"] = dict.fromkeys(record["assignment"], 0)
        path.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        assert main([stage, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:{len(lines) + 1}: duplicate record for instance {record[id_key]!r}" in err

    @pytest.mark.parametrize("edit", [{"dim": -1}, {"dim": 0}], ids=["negative-dim", "repeated-dim"])
    def test_damaged_lexicon_exit_code(self, tmp_path, capsys, edit):
        # Once, train2 wrote a concept with dimension -1 into the last
        # column, and one of two concepts sharing a dimension was lost.
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        config = str(out / "pipeline.config")
        for name in STAGE_ORDER:
            assert main([name, "--config", config]) == 0
        path = out / "out" / "TII" / "lexicon.json"
        lexicon = json.loads(path.read_text())
        lexicon["entries"][max(lexicon["entries"], key=lexicon["entries"].get)] = edit["dim"]
        path.write_text(json.dumps(lexicon))
        for stage in ("train2", "rank2", "evaluate"):
            assert main([stage, "--config", config]) == 2
            assert "lexicon dimensions must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit, where",
        [
            ("kg_nodes.tsv", lambda lines: lines + [b"\xff"], "last"),
            ("kg_edges.tsv", lambda lines: [lines[0].rstrip(b"\n") + b"\xff\n"] + lines[1:], 1),
        ],
        ids=["nodes-byte-appended", "edges-comment-line"],
    )
    def test_non_utf8_graph_line_exit_code(self, tmp_path, capsys, name, edit, where):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        path = out / name
        lines = edit(path.read_bytes().splitlines(keepends=True))
        assert lines[0].startswith(b"#")
        path.write_bytes(b"".join(lines))
        assert main(["link", "--config", str(out / "pipeline.config")]) == 2
        lineno = len(lines) if where == "last" else where
        assert f"error: {path}:{lineno}: line is not valid UTF-8" in capsys.readouterr().err

    def test_corpus_record_with_a_lone_surrogate_is_skipped(self, tmp_path, caplog):
        # A JSON escape can spell a lone surrogate, which UTF-8 cannot encode:
        # the feature dump once died on it with a raw UnicodeEncodeError.
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        corpus = out / "corpus.jsonl"
        lines = corpus.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["id"] += "\udcff"
        lines[2] = json.dumps(record).encode() + b"\n"
        corpus.write_bytes(b"".join(lines))
        assert main(["all", "--config", str(out / "pipeline.config")]) == 0
        assert f"{corpus}:3: skipping unreadable record (not valid UTF-8)" in caplog.text
        kept = {json.loads(line)["id"] for i, line in enumerate(lines) if i != 2}
        for mode in ("T", "TI", "TII"):
            seeds = (out / "out" / mode / "seeds.jsonl").read_text().splitlines()
            assert {json.loads(line)["instance_id"] for line in seeds} == kept

    def test_corpus_record_with_a_newline_in_its_id_is_skipped(self, tmp_path, caplog):
        # The feature dump ends each instance id with a newline: an id holding
        # one once passed `all` but split in the dump, so a staged train1 exited 2.
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        corpus = out / "corpus.jsonl"
        lines = corpus.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["id"] += "\nx"
        lines[2] = json.dumps(record).encode() + b"\n"
        corpus.write_bytes(b"".join(lines))
        config = str(out / "pipeline.config")
        assert main(["all", "--config", config]) == 0
        assert f"{corpus}:3: skipping unreadable record (instance id holds a newline)" in caplog.text
        for stage in ("features", "train1", "rank1"):
            assert main([stage, "--config", config]) == 0, stage

    def test_non_utf8_corpus_record_is_skipped(self, tmp_path, capsys, caplog):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        corpus = out / "corpus.jsonl"
        lines = corpus.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].rstrip(b"\n") + b"\xff\n"
        corpus.write_bytes(b"".join(lines))
        assert main(["link", "--config", str(out / "pipeline.config")]) == 0
        assert f"{corpus}:3: skipping unreadable record (not valid UTF-8)" in caplog.text
        seeds = (out / "out" / "TII" / "seeds.jsonl").read_text().splitlines()
        assert len(seeds) == len(lines) - 1

    @pytest.mark.parametrize(
        "path, missing",
        [("out/TII/partitions.jsonl", "partition"), ("corpus.jsonl", "corpus record")],
        ids=["partitions-line-dropped", "corpus-line-dropped"],
    )
    def test_features_with_missing_instance_exit_code(self, tmp_path, capsys, path, missing):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        config = str(out / "pipeline.config")
        for name in ("link", "graph", "cluster"):
            assert main([name, "--config", config]) == 0
        target = out / path
        lines = target.read_bytes().splitlines(keepends=True)
        target.write_bytes(b"".join(lines[:-1]))
        assert main(["features", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and missing in err and target.name in err

    @pytest.mark.parametrize(
        "artifact, upstream, stage, corrupt",
        [
            # Node ids written as floats, not int64.
            ("features.bin", 4, "train1", lambda data: edit_npy_record(data, 2, lambda ids: ids.astype(float))),
            ("model1.json", 5, "rank1", lambda data: data.replace(b'"weights"', b'"weight"')),
            # Python's json reads NaN and Infinity, which once passed as weights, MAPs and scores.
            (
                "model1.json", 5, "rank1",
                lambda data: _edit_json(data, lambda m: m["weights"].__setitem__(0, math.nan)),
            ),
            (
                "topic_models.json", 8, "rank2",
                lambda data: _edit_json(data, lambda ms: next(iter(ms.values())).update(training_map=math.inf)),
            ),
            ("rankings1.jsonl", 6, "lexicon", _nan_first_score),
            (
                "rankings2.json", 9, "evaluate",
                lambda data: _edit_json(data, lambda rs: next(iter(rs.values()))[0].__setitem__(1, math.nan)),
            ),
            ("rankings1.jsonl", 6, "lexicon", lambda data: data[:-40]),
            ("rankings1.jsonl", 6, "lexicon", lambda data: _prefix_first_doc_ids(data, "x")),
            ("rankings1.jsonl", 8, "rank2", lambda data: _prefix_first_doc_ids(data, "x")),
            ("split.json", 6, "lexicon", lambda data: data[:-40]),
            ("lexicon.json", 7, "train2", lambda data: data[:-40]),
            ("topic_models.json", 8, "rank2", lambda data: data[:-40]),
            # The first topic's entry loses its weights, or one feature name.
            ("topic_models.json", 8, "rank2", lambda data: data.replace(b'"weights"', b'"weight"', 1)),
            ("topic_models.json", 8, "rank2", lambda data: data.replace(b'"concept:', b'"concept:x', 1)),
            ("rankings2.json", 9, "evaluate", lambda data: data[:-40]),
            # Values that str(), float() or set() once read as others: the doc
            # id 5 as "5", null as "None", the score true as 1.0, and a string
            # of instance ids as the set of its characters.
            (
                "rankings1.jsonl", 6, "lexicon",
                lambda data: _edit_first_line(
                    data, "items", lambda r: r.update(items=[[int(d), s] for d, s in r["items"]])
                ),
            ),
            (
                "rankings1.jsonl", 6, "lexicon",
                lambda data: _edit_first_line(
                    data, "items", lambda r: r.update(items=[[d, True] for d, _ in r["items"]])
                ),
            ),
            (
                "rankings2.json", 9, "evaluate",
                lambda data: _edit_json(data, lambda rs: next(iter(rs.values()))[0].__setitem__(0, None)),
            ),
            (
                "rankings2.json", 9, "evaluate",
                lambda data: _edit_json(data, lambda rs: next(iter(rs.values()))[0].__setitem__(1, True)),
            ),
            ("split.json", 6, "lexicon", lambda data: _edit_json(data, lambda sp: sp.update(train=sp["train"][0]))),
            # float() read the weight true as 1.0 and "0.5" as 0.5, and int()
            # the top_k 2.5 as 2 and the lexicon keys and stage-1 doc ids "+7"
            # and " 7" as node 7.
            ("model1.json", 5, "rank1", lambda data: _edit_json(data, lambda m: m["weights"].__setitem__(0, True))),
            ("model1.json", 5, "rank1", lambda data: _edit_json(data, lambda m: m["weights"].__setitem__(0, "0.5"))),
            (
                "model1.json", 5, "rank1",
                lambda data: _edit_json(data, lambda m: m.update(training_map=str(m["training_map"]))),
            ),
            (
                "topic_models.json", 8, "rank2",
                lambda data: _edit_json(data, lambda ms: next(iter(ms.values()))["weights"].__setitem__(0, True)),
            ),
            ("lexicon.json", 7, "train2", lambda data: _edit_json(data, lambda lx: lx.update(top_k=2.5))),
            ("lexicon.json", 7, "train2", lambda data: _edit_json(data, lambda lx: lx.update(top_k=True))),
            (
                "lexicon.json", 7, "train2",
                lambda data: _edit_json(data, lambda lx: _respell_key(lx["entries"], lambda k: "+" + k)),
            ),
            (
                "lexicon.json", 7, "train2",
                lambda data: _edit_json(data, lambda lx: _respell_key(lx["entries"], lambda k: " " + k)),
            ),
            ("rankings1.jsonl", 6, "lexicon", lambda data: _prefix_first_doc_ids(data, "+")),
            # The writer lists each instance id once, in one of the two lists.
            ("split.json", 6, "lexicon", lambda data: _edit_json(data, lambda sp: sp["train"].extend(sp["test"][:2]))),
            ("split.json", 6, "lexicon", lambda data: _edit_json(data, lambda sp: sp["train"].append(sp["train"][0]))),
            # int() read the seeds 10.5 and "10" as the split seed 10.
            ("train1.manifest.json", 5, "rank1", lambda data: _edit_split_seed(data, lambda seed: seed + 0.5)),
            ("train1.manifest.json", 5, "rank1", lambda data: _edit_split_seed(data, str)),
            ("train1.manifest.json", 5, "rank1", lambda data: _edit_split_seed(data, lambda seed: True)),
        ],
        ids=["feature-node-id", "model1-no-weights", "model1-nan-weight", "topic-model-infinite-map",
             "rankings1-nan-score", "rankings2-nan-score", "truncated-rankings1",
             "rankings1-doc-id-for-lexicon", "rankings1-doc-id-for-rank2", "truncated-split",
             "truncated-lexicon", "truncated-topic-models", "topic-model-no-weights",
             "topic-model-not-the-lexicon", "truncated-rankings2", "rankings1-integer-doc-id",
             "rankings1-boolean-score", "rankings2-null-doc-id", "rankings2-boolean-score",
             "split-string-ids", "model1-boolean-weight", "model1-string-weight", "model1-string-map",
             "topic-model-boolean-weight", "lexicon-float-top-k", "lexicon-boolean-top-k",
             "lexicon-plus-key", "lexicon-space-key", "rankings1-plus-doc-id", "split-overlap",
             "split-repeated-id", "manifest-float-seed", "manifest-string-seed", "manifest-boolean-seed"],
    )
    def test_malformed_training_artifact_exit_code(
        self, tmp_path, capsys, artifact, upstream, stage, corrupt
    ):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        config = str(out / "pipeline.config")
        stages = ["link", "graph", "cluster", "features", "train1", "rank1", "lexicon", "train2", "rank2"]
        for name in stages[:upstream]:
            assert main([name, "--config", config]) == 0
        path = out / "out" / "TII" / artifact
        data = path.read_bytes()
        assert corrupt(data) != data
        path.write_bytes(corrupt(data))
        assert main([stage, "--config", config]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and path.name in err

    def test_train2_with_missing_instance_exit_code(self, tmp_path, capsys):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        config = str(out / "pipeline.config")
        for name in STAGE_ORDER[:7]:
            assert main([name, "--config", config]) == 0
        split = json.loads((out / "out" / "TII" / "split.json").read_text())
        dropped = split["train"][0]
        corpus = out / "corpus.jsonl"
        lines = corpus.read_bytes().splitlines(keepends=True)
        corpus.write_bytes(b"".join(line for line in lines if json.loads(line)["id"] != dropped))
        capsys.readouterr()
        assert main(["train2", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "corpus.jsonl" in err and "split.json" in err
        assert repr(dropped) in err

    def test_non_finite_feature_cell_exit_code(self, through_rank1, tmp_path, capsys):
        out = tmp_path / "fx"
        shutil.copytree(through_rank1, out)
        path = out / "out" / "TII" / "features.bin"
        records = [array for _, array in npy_records(path.read_bytes())]
        row = len(records[2]) // 2

        def nan_cell(matrix):
            matrix[row, 1] = math.nan
            return matrix

        path.write_bytes(edit_npy_record(path.read_bytes(), 4, nan_cell))
        instance_id = records[1].tobytes().decode().split("\n")[row]
        for stage in ("train1", "rank1"):
            capsys.readouterr()
            assert main([stage, "--config", str(out / "pipeline.config")]) == 2
            err = capsys.readouterr().err
            assert f"{path}: instance {instance_id!r}, node {records[2][row]}: non-finite value" in err

    @pytest.mark.parametrize(
        "damage",
        [
            *map(_cut_after_records, range(5)),
            lambda data: data[: npy_records(data)[1][0] + 20],  # inside the header of the node ids
            lambda data: data[:-100],  # inside the matrix
            lambda data: data[:-1],
            lambda data: data + b"\0",
            lambda data: edit_npy_record(data, 4, lambda m: m.astype(np.float32)),
            lambda data: edit_npy_record(data, 4, lambda m: m[:, :15]),
            lambda data: edit_npy_record(data, 0, lambda names: names[::-1]),
        ],
        ids=["cut-empty", "cut-after-names", "cut-after-instance-ids", "cut-after-node-ids", "cut-after-grades",
             "cut-in-a-header", "cut-in-the-matrix", "cut-last-byte", "appended-byte", "matrix-float32",
             "matrix-15-columns", "wrong-feature-names"],
    )
    def test_damaged_feature_dump_exit_code(self, through_rank1, tmp_path, capsys, damage):
        # A feature dump cut to a prefix once fed train1 ... evaluate, which
        # all exited 0 on the rows that were left.
        out = tmp_path / "fx"
        shutil.copytree(through_rank1, out)
        path = out / "out" / "TII" / "features.bin"
        path.write_bytes(damage(path.read_bytes()))
        for stage in ("train1", "rank1"):
            capsys.readouterr()
            assert main([stage, "--config", str(out / "pipeline.config")]) == 2
            assert f"error: {path}: " in capsys.readouterr().err

    def test_negative_min_gain_exit_code(self, tmp_path, capsys):
        # Steps of zero gain used to be accepted forever, and `all` hung.
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "1", "--instances", "9", "--topics", "3", "--out", str(out)])
        path = out / "pipeline.config"
        path.write_text(path.read_text() + "train2.min_gain=-0.001\n")
        assert main(["all", "--config", str(path)]) == 1
        assert "train2.min_gain: must be finite and >= 0" in capsys.readouterr().err
        assert not (out / "out").exists()

    def test_removed_workers_key_exit_code(self, tmp_path, capsys):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        path = out / "pipeline.config"
        path.write_text(path.read_text() + "workers=4\n")
        assert main(["all", "--config", str(path)]) == 1
        assert "workers: the worker pool was removed" in capsys.readouterr().err
        assert not (out / "out").exists()

    @pytest.mark.parametrize("stage", ["link", "all"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_output_path_through_a_file_exit_code(self, tmp_path, capsys, stage, below):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        target = tmp_path / "outfile"
        target.write_bytes(b"kept")
        out_arg = target / "sub" if below else target
        capsys.readouterr()
        assert main([stage, "--config", str(out / "pipeline.config"), "--out", str(out_arg)]) == 1
        assert f"error: out: cannot make the output directory {out_arg / 'TII'}" in capsys.readouterr().err
        assert target.read_bytes() == b"kept"

    def test_non_utf8_config_line_exit_code(self, tmp_path, capsys):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        path = out / "pipeline.config"
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        lineno = len(path.read_bytes().splitlines())
        assert main(["link", "--config", str(path)]) == 1
        assert f"error: {path}:{lineno}: line is not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("upstream, stage", [(4, "train1"), (5, "rank1")])
    def test_non_utf8_feature_dump_exit_code(self, tmp_path, capsys, upstream, stage):
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        config = str(out / "pipeline.config")
        for name in STAGE_ORDER[:upstream]:
            assert main([name, "--config", config]) == 0
        path = out / "out" / "TII" / "features.bin"
        data = bytearray(path.read_bytes())
        (_, _), (end, instance_ids), *_ = npy_records(bytes(data))
        data[end - instance_ids.size] = 0xFF  # the first byte of the first instance id
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main([stage, "--config", config]) == 2
        assert f"error: {path}: an instance id is not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rerun, later, stale",
        [
            (["train1"], ["rank1", "lexicon", "train2", "rank2"], "train1"),
            (["train1", "rank1", "lexicon"], ["train2", "rank2"], "rank1"),
        ],
        ids=["train1-then-rank1", "train1-to-lexicon-then-train2"],
    )
    def test_stage_seed_mismatch_exit_code(self, tmp_path, capsys, rerun, later, stale):
        # Outputs of train1 and later stages are made with the split and
        # training seeds; a later stage run with other seeds must not use them.
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        config = str(out / "pipeline.config")
        for name in ("link", "graph", "cluster", "features"):
            assert main([name, "--config", config]) == 0
        for name in rerun:
            assert main([name, "--config", config, "--seed", "99"]) == 0
        capsys.readouterr()
        assert main([later[0], "--config", config, "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"re-run stage {stale!r}" in err
        for name in later:
            assert main([name, "--config", config, "--seed", "99"]) == 0

    @pytest.mark.parametrize(
        "stage, artifact",
        [
            ("graph", "seeds.jsonl"),
            ("cluster", "query_graphs.jsonl"),
            ("features", "partitions.jsonl"),
            ("train1", "features.bin"),
            ("rank1", "model1.json"),
            ("lexicon", "rankings1.jsonl"),
            ("train2", "lexicon.json"),
            ("rank2", "topic_models.json"),
            ("evaluate", "rankings2.json"),
        ],
        ids=lambda value: value.split(".")[0],
    )
    def test_input_without_producer_manifest_exit_code(self, tmp_path, capsys, stage, artifact):
        # Only the manifests of seed-dependent producers were once required,
        # so a feature dump without features.manifest.json fed train1.
        producer = next(s for s, spec in STAGES.items() if artifact in spec.outputs)
        out = tmp_path / "fx"
        main(["gen-fixture", "--seed", "9", "--instances", "9", "--topics", "3", "--out", str(out)])
        config = str(out / "pipeline.config")
        for name in STAGE_ORDER[: STAGE_ORDER.index(stage)]:
            assert main([name, "--config", config]) == 0
        (out / "out" / "TII" / f"{producer}.manifest.json").unlink()
        capsys.readouterr()
        assert main([stage, "--config", config]) == 2
        err = capsys.readouterr().err
        assert f"{producer}.manifest.json" in err and f"run stage {producer!r}" in err

    def test_bad_fixture_sizes_exit_code(self, tmp_path, capsys):
        assert (
            main(["gen-fixture", "--seed", "1", "--instances", "2", "--topics", "3", "--out", str(tmp_path)])
            == 1
        )

    def test_training_failure_exit_code(self, tmp_path, capsys):
        # All concept grades below the relevance threshold: stage-1 training
        # has no relevant document anywhere and must exit with code 3.
        nodes = tmp_path / "nodes.tsv"
        edges = tmp_path / "edges.tsv"
        corpus = tmp_path / "corpus.jsonl"
        nodes.write_text(
            "0\tarticle\tcar\t\t\n1\tarticle\tvolvo\t\t\n2\tcategory\tvehicles\t\t\n",
            encoding="utf-8",
        )
        edges.write_text("0\t2\tcategory_link\n1\t2\tcategory_link\n", encoding="utf-8")
        records = [
            {"id": f"i{k}", "tags": ["car", "volvo"], "image_labels": [], "topics": ["t"],
             "concept_grades": {"0": 1, "1": 2, "2": 1}}
            for k in range(4)
        ]
        corpus.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        config = tmp_path / "run.config"
        config.write_text(
            "kg.nodes=nodes.tsv\nkg.edges=edges.tsv\ncorpus=corpus.jsonl\nout=out\n",
            encoding="utf-8",
        )
        for stage in ("link", "graph", "cluster", "features"):
            assert main([stage, "--config", str(config)]) == 0
        assert main(["train1", "--config", str(config)]) == 3
