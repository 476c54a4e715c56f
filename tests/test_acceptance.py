"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines while the suite executes. Criteria 6-8 share a single end-to-end
pipeline run over the bundled synthetic fixture (seed 7, 30 instances,
3 topics).
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from gistrank.clustering import louvain
from gistrank.config import load_config
from gistrank.evaluation import evaluate
from gistrank.features import betweenness, pagerank
from gistrank.fixture import gen_fixture
from gistrank.linking import Instance, corpus_link_stats, read_corpus
from gistrank.ltr import (
    CoordinateAscentConfig,
    RankModel,
    average_precision,
    precision_at_k,
)
from gistrank.pipeline import ARTIFACTS, run_all
from gistrank.query_graph import build_query_graph
from gistrank.topics import rank_images

from tests.conftest import query_graph_from_edges, random_edges, random_kg
from tests.test_clustering import all_partitions, modularity_oracle, wgraph
from tests.test_features import dense_pagerank, naive_betweenness
from tests.test_ltr import separable_examples, train_examples
from tests.test_query_graph import enumerate_intermediates, seedset


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.2f}s)"
            )
    except BaseException:
        print(f"[acceptance] {number}. {label}: FAIL")
        raise
    print(f"[acceptance] {number}. {label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_intermediate_node_oracle():
    with criterion(1, "query-graph intermediates match exhaustive path enumeration", 10.0):
        rng = np.random.default_rng(101)
        checked_nonempty = 0
        for trial in range(110):
            if trial % 2 == 0:  # sparse, up to 50 nodes
                n = int(rng.integers(4, 51))
                prob = float(rng.uniform(1.5, 3.0)) / n
            else:  # dense and small: many shortest paths per pair
                n = int(rng.integers(4, 17))
                prob = float(rng.uniform(0.25, 0.45))
            graph = random_kg(rng, n, prob)
            n_seeds = int(rng.integers(2, 7))
            seeds = [
                int(s)
                for s in rng.choice(sorted(graph.nodes), size=min(n_seeds, n), replace=False)
            ]
            qg = build_query_graph(graph, seedset(seeds))
            expected = enumerate_intermediates(graph, seeds)
            assert qg.intermediates == expected, (n, seeds)
            checked_nonempty += bool(expected)
        assert checked_nonempty >= 50  # the sweep must exercise real expansions


def test_criterion_2_centrality_oracles():
    with criterion(2, "betweenness/pagerank match brute-force oracles", 10.0):
        rng = np.random.default_rng(102)
        for _ in range(25):
            n = int(rng.integers(2, 31))
            edges = random_edges(rng, n, 0.15)
            qg = query_graph_from_edges(n, edges)
            got = betweenness(qg)
            expected = naive_betweenness(qg, edges)
            for i, node in enumerate(qg.order):
                assert abs(got[i] - expected[node]) <= 1e-9
        for _ in range(25):
            n = int(rng.integers(2, 21))
            edges = random_edges(rng, n, 0.25)
            qg = query_graph_from_edges(n, edges)
            got = pagerank(qg)
            expected = dense_pagerank(qg, edges)
            for i, node in enumerate(qg.order):
                assert abs(got[i] - expected[node]) <= 1e-6


def _random_weighted_graph(rng, n):
    edges = [
        (a, b, float(rng.uniform(0.05, 1.0)))
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.35
    ]
    return wgraph(n, edges)


def test_criterion_3_louvain():
    with criterion(3, "louvain: monotone phases, barbell cliques, near-optimal Q", 30.0):
        rng = np.random.default_rng(103)
        for _ in range(100):
            wg = _random_weighted_graph(rng, int(rng.integers(2, 18)))
            part = louvain(wg)
            for earlier, later in zip(part.phase_modularity, part.phase_modularity[1:]):
                assert later >= earlier - 1e-9

        barbell_edges = [(3, 4, 1.0)]
        for block in (range(0, 4), range(4, 8)):
            barbell_edges.extend((a, b, 1.0) for a, b in itertools.combinations(block, 2))
        part = louvain(wgraph(8, barbell_edges))
        assert len({part.assignment[i] for i in range(4)}) == 1
        assert len({part.assignment[i] for i in range(4, 8)}) == 1
        assert part.assignment[0] != part.assignment[7]

        sizes = [2, 4, 5, 6, 7, 8, 8, 10]
        for n in sizes:
            wg = _random_weighted_graph(rng, n)
            part = louvain(wg)
            best = max(modularity_oracle(wg, a) for a in all_partitions(n))
            assert part.modularity >= best - 0.05, (n, part.modularity, best)


def test_criterion_4_metric_oracles():
    with criterion(4, "AP/P@k equal direct-definition computation (exhaustive, len<=8)"):
        for length in range(0, 9):
            for bools in itertools.product([False, True], repeat=length):
                hits = 0
                total = Fraction(0)
                for position, relevant in enumerate(bools, start=1):
                    if relevant:
                        hits += 1
                        total += Fraction(hits, position)
                expected_ap = float(total / hits) if hits else 0.0
                assert abs(average_precision(list(bools)) - expected_ap) <= 1e-12
                for k in range(1, 10):
                    expected_p = float(Fraction(sum(bools[:k]), k))
                    assert abs(precision_at_k(list(bools), k) - expected_p) <= 1e-12
        assert average_precision([True, False, True]) == pytest.approx(0.833333333, abs=1e-9)


def test_criterion_5_coordinate_ascent():
    with criterion(5, "coordinate ascent: monotone, solves separable set, reproducible", 30.0):
        examples, names = separable_examples(n_queries=20, n_noise=15, seed=55)
        config = CoordinateAscentConfig(restarts=5, seed=505)
        # Monotonicity is asserted inside the training loop on every accepted step.
        model = train_examples(examples, names, config)
        assert model.training_map == 1.0

        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path_a, path_b = Path(tmp) / "a.json", Path(tmp) / "b.json"
            ARTIFACTS["model1.json"].write(path_a, train_examples(examples, names, config))
            ARTIFACTS["model1.json"].write(path_b, train_examples(examples, names, config))
            assert path_a.read_bytes() == path_b.read_bytes()


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full three-mode pipeline run over the bundled fixture (seed 7)."""
    root = tmp_path_factory.mktemp("acceptance")
    gen_fixture(seed=7, n_instances=30, n_topics=3, out_dir=root)
    config = load_config(root / "pipeline.config")
    start = time.perf_counter()
    out = run_all(config)
    elapsed = time.perf_counter() - start
    return {"root": root, "out": out, "elapsed": elapsed, "config": config}


def test_criterion_6_ablation_ordering(pipeline_run):
    with criterion(6, "end-to-end MAP ordering TII >= TI >= T with margin >= 0.05"):
        comparison = json.loads((pipeline_run["out"] / "comparison.json").read_text())
        maps = comparison["overall_map"]
        assert maps["TII"] >= maps["TI"] >= maps["T"], maps
        assert maps["TII"] - maps["T"] >= 0.05, maps
        assert comparison["ordering_holds"]
        assert pipeline_run["elapsed"] < 60.0, pipeline_run["elapsed"]
        print(
            f"  MAP: TII={maps['TII']:.4f} TI={maps['TI']:.4f} T={maps['T']:.4f} "
            f"(all-mode run {pipeline_run['elapsed']:.1f}s)"
        )


def test_criterion_7_lexicon_size_trend(pipeline_run):
    with criterion(7, "lexicon(TII) is no larger than lexicon(T)"):
        comparison = json.loads((pipeline_run["out"] / "comparison.json").read_text())
        sizes = comparison["lexicon_sizes"]
        assert sizes["TII"] <= sizes["T"], sizes
        print(f"  lexicon sizes: TII={sizes['TII']} TI={sizes['TI']} T={sizes['T']}")


def test_criterion_8_random_model_sanity(pipeline_run):
    with criterion(8, "random-weight models score near topic prevalence"):
        out = pipeline_run["out"] / "TII"
        lexicon = ARTIFACTS["lexicon.json"].read(out / "lexicon.json")
        rankings1 = ARTIFACTS["rankings1.jsonl"].read(out / "rankings1.jsonl")
        split = json.loads((out / "split.json").read_text())
        corpus = read_corpus(pipeline_run["root"] / "corpus.jsonl")
        gold = {inst.instance_id: set(inst.topics) for inst in corpus}
        topics = sorted({t for labels in gold.values() for t in labels})

        from gistrank.pipeline import _vectors_for

        # "Prevalence of the fixture": rank the whole corpus, not just the
        # held-out split, so chance-level MAP is measured on the same pool.
        all_ids = set(split["train"]) | set(split["test"])
        vectors = _vectors_for(all_ids, rankings1, lexicon)
        prevalence = float(
            np.mean([sum(1 for i in all_ids if t in gold[i]) / len(all_ids) for t in topics])
        )

        names = lexicon.feature_names()
        maps = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            models = {}
            for topic in topics:
                weights = rng.standard_normal(len(names))
                weights /= np.abs(weights).sum()
                models[topic] = RankModel(tuple(float(w) for w in weights), names, 0.0)
            report = evaluate(rank_images(models, vectors), gold, k=50)
            maps.append(report.overall_map)
        mean_map = float(np.mean(maps))
        assert abs(mean_map - prevalence) <= 0.15, (mean_map, prevalence)
        print(f"  random-model MAP {mean_map:.4f} vs prevalence {prevalence:.4f}")


def test_criterion_9_linking_statistics(tiny_kg):
    with criterion(9, "corpus link statistics match hand counts on 5-instance fixture"):
        corpus = [
            # tags: 3 candidates, 2 linked ("car", "volvo"); image: 1 candidate, 1 linked
            Instance("i1", tags=("car", "volvo", "qqq"), image_labels=("car",)),
            # tags: 2 candidates ("car" twice), both link; image empty
            Instance("i2", tags=("car", "car")),
            # tags empty; image: 2 candidates, 1 linked
            Instance("i3", image_labels=("motor vehicles", "zzz")),
            # tags: 1 unlinkable candidate; image: 1 linked (alias via redirect)
            Instance("i4", tags=("nope",), image_labels=("Automobile",)),
            # completely empty instance
            Instance("i5"),
        ]
        report = corpus_link_stats(tiny_kg, corpus)
        assert report.total_candidates_tags == 6
        assert report.total_seeds_tags == 4
        assert report.total_candidates_image == 4
        assert report.total_seeds_image == 3
        assert report.unique_candidates_tags == 4  # car, volvo, qqq, nope
        assert report.unique_seeds_tags == 2  # car, volvo
        assert report.unique_candidates_image == 4  # car, motor vehicles, zzz, automobile
        assert report.unique_seeds_image == 3  # car, motor vehicles, automobile
        assert report.empty_instances_tags == 2  # i3, i5
        assert report.empty_instances_image == 2  # i2, i5
