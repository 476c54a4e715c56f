"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gistrank.kg as kg_mod  # noqa: E402
import gistrank.pipeline as pipeline_mod  # noqa: E402
from gistrank.cli import main as cli_main  # noqa: E402
from gistrank.config import load_config  # noqa: E402
from gistrank.fixture import gen_fixture  # noqa: E402
from gistrank.kg import load_graph  # noqa: E402
from gistrank.pipeline import run_all  # noqa: E402
from gistrank.query_graph import bfs_distances  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_pad_kg_is_deterministic_in_seed(tmp_path):
    digests = []
    for name, pad_seed in (("a", 3), ("b", 3), ("c", 4)):
        gen_fixture(3, 9, 3, tmp_path / name)
        assert workloads.pad_kg(tmp_path / name, pad_seed) == (
            workloads.PAD_CATEGORIES + workloads.PAD_ARTICLES,
            workloads.PAD_CATEGORIES + workloads.PAD_ARTICLES,
        )
        digests.append(workloads.file_hashes(tmp_path / name))
    assert digests[0] == digests[1]
    assert digests[0]["kg_nodes.tsv"] != digests[2]["kg_nodes.tsv"]
    assert digests[0]["corpus.jsonl"] == digests[2]["corpus.jsonl"]


def test_padding_keeps_seeds_query_graphs_and_partitions(tmp_path):
    padded = workloads.WORKLOADS["kg-large-staged"]
    hashes = {}
    for name, workload in (("plain", dataclasses.replace(padded, padded=False)), ("padded", padded)):
        config = workloads.prepare(workload, 5, tmp_path / name)
        workloads.run_staged(config, tmp_path / name / "out", workloads.PAD_STAGES)
        hashes[name] = workloads.pad_invariant_hashes(tmp_path / name / "out")
    assert len(hashes["plain"]) == 3 * len(workloads.PAD_INVARIANT)
    assert hashes["padded"] == hashes["plain"]


def test_padding_is_reached_by_every_topical_seed_bfs(tmp_path):
    workloads.prepare(workloads.WORKLOADS["kg-large-staged"], 5, tmp_path)
    graph = load_graph(tmp_path / "kg_nodes.tsv", tmp_path / "kg_edges.tsv")
    pad_categories = {
        n.node_id for n in graph.nodes.values() if n.title.startswith("pad category")
    }
    assert len(pad_categories) == workloads.PAD_CATEGORIES
    seed = graph.lookup_title("topic00 item 00")
    reached = bfs_distances(graph, seed, 4)
    assert pad_categories <= reached.keys()
    assert not any(graph.nodes[n].title.startswith("pad article") for n in reached)


def test_self_time_subtracts_child_cover():
    span = tracing.Span
    spans = [
        span(0, "pipeline.stage.features.T", 0.0, 10.0, None, "r", "T"),
        span(1, "features.extract_instance_features", 1.0, 5.0, 0, "r", "T"),
        span(2, "features.pagerank", 2.0, 3.0, 1, "r", "T"),
        span(3, "features.betweenness", 3.5, 4.0, 1, "r", "T"),
        span(4, "ltr.train1", 6.0, 9.0, 0, "r", "T"),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.5, 2: 1.0, 3: 0.5, 4: 3.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    span = tracing.Span
    spans = [
        span(0, "topics.train_topic_models", 0.0, 4.0, None, "r", "T"),
        span(1, "ltr.train2", 1.0, 3.0, 0, "r", "T"),
        span(2, "ltr.train2", 2.0, 5.0, 0, "r", "T"),
    ]
    assert tracing.self_times(spans)[0] == 1.0


def test_traced_run_reports_every_per_layer_metric_and_uninstalls(tmp_path):
    config = load_config(gen_fixture(2, 30, 3, tmp_path)["config"])
    tracer = tracing.Tracer()
    tracer.trace = "rep1"
    uninstall = tracing.install(tracer)
    try:
        run_all(config)
    finally:
        uninstall()
    assert pipeline_mod.load_graph is kg_mod.load_graph

    metrics = tracing.summarize(tracer, "rep1")
    assert list(metrics) == [n for n in tracing.per_layer_metric_names() if n != "trace.overhead_s"]
    assert metrics["kg.load_graph.calls"] == 1
    assert metrics["linking.link_instance.calls"] == 30
    assert metrics["ltr.train_coordinate_ascent.calls"] == 1 + 3
    assert all(metrics[f"pipeline.stage.{s}.{m}.s"] > 0 for s in pipeline_mod.STAGE_ORDER
               for m in workloads.MODES)
    stage_total = sum(v for k, v in metrics.items() if k.startswith("pipeline.stage."))
    layer_self = sum(metrics[f"{layer}.self.s"] for layer in tracing.LAYERS)
    assert abs(layer_self - stage_total) < 1e-6
    assert 0 < metrics["pipeline.self.s"] < stage_total


def test_reference_is_sampled_before_every_stage_call_while_sampling(tmp_path):
    path = gen_fixture(2, 30, 3, tmp_path)["config"]
    originals = dict(pipeline_mod._STAGE_FUNCS)
    try:
        counter = worker.StageCounter()
        counter.sampling = True
        run_all(load_config(path, {"out": str(tmp_path / "sampled")}))
        counter.sampling = False
        run_all(load_config(path, {"out": str(tmp_path / "plain")}))
    finally:
        pipeline_mod._STAGE_FUNCS.update(originals)
    stage_calls = len(pipeline_mod.STAGE_ORDER) * len(workloads.MODES)
    assert (counter.attempted, counter.failed) == (2 * stage_calls, 0)
    assert len(counter.samples) == stage_calls
    assert all(s > 0 for s in counter.samples)
    assert counter.sampling_s >= sum(counter.samples)


def test_benchmark_json_names_units_and_metric_sets():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["perfbench"]
    groups = (spec["workloads"], spec["end_to_end"], spec["per_layer"])
    names = [entry["name"] for group in groups for entry in group]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert all(UNIT_RE.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_metric_names()
    assert all(m["unit"] == tracing.unit_of(m["name"]) for m in spec["per_layer"])


def _cli_outputs_match(bench_out: Path, cli_out: Path) -> None:
    bench, cli = workloads.file_hashes(bench_out), workloads.file_hashes(cli_out)
    assert bench.keys() == cli.keys()
    # Manifests hash the config, which names the output directory.
    differing = {rel for rel in bench if bench[rel] != cli[rel]}
    assert all(rel.endswith(".manifest.json") for rel in differing)
    assert workloads.read_maps(bench_out) == workloads.read_maps(cli_out)


def test_run_all_workload_writes_what_the_cli_writes(tmp_path):
    config = gen_fixture(2, 30, 3, tmp_path)["config"]
    workload = dataclasses.replace(workloads.WORKLOADS["corpus-300x3"], instances=30)
    workloads.run_workload(workload, config, tmp_path / "bench")
    assert cli_main(["all", "--config", str(config), "--out", str(tmp_path / "cli")]) == 0
    _cli_outputs_match(tmp_path / "bench", tmp_path / "cli")


def test_staged_workload_writes_what_the_staged_cli_writes(tmp_path):
    config = gen_fixture(2, 30, 3, tmp_path)["config"]
    workload = dataclasses.replace(workloads.WORKLOADS["kg-large-staged"], padded=False)
    workloads.run_workload(workload, config, tmp_path / "bench")
    for mode in workloads.MODES:
        for stage in pipeline_mod.STAGE_ORDER:
            argv = [stage, "--config", str(config), "--mode", mode, "--out", str(tmp_path / "cli")]
            assert cli_main(argv) == 0
    _cli_outputs_match(tmp_path / "bench", tmp_path / "cli")
