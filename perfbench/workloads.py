"""Benchmark workloads: seeded input generation and one full run of each.

Every workload starts from ``gistrank.fixture.gen_fixture``. The
``kg-large-staged`` workload then pads the knowledge graph with filler
categories and articles that stress graph loading, the IDF table and the
4-hop seed expansion without changing which categories the expansion keeps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from gistrank.config import load_config
from gistrank.evaluation import MODES
from gistrank.fixture import gen_fixture
from gistrank.pipeline import STAGE_ORDER, run_all, run_stage

# Padding for kg-large-staged. Filler categories hang directly under
# "root topics": topical seed -> group -> hub -> root -> filler is 4 hops, so
# every topical seed's BFS reaches all of them. Filler articles sit one hop
# further out, so they are parsed and counted by the IDF table but never
# expanded. The sizes keep one staged run of all three modes (nine graph
# loads) near the run time of the other workloads.
PAD_CATEGORIES = 1_000
PAD_ARTICLES = 20_000
PAD_VOCAB = 4_000
PAD_ABSTRACT_WORDS = 8
ROOT_TITLE = "root topics"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    instances: int
    topics: int
    padded: bool
    staged: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-300x3", 300, 3, padded=False, staged=False,
            why="many instances: per-instance graph, cluster and feature work dominates",
        ),
        Workload(
            "topics-120x10", 120, 10, padded=False, staged=False,
            why="ten topics: stage-2 per-topic training over a wide lexicon dominates",
        ),
        Workload(
            "kg-large-staged", 60, 3, padded=True, staged=True,
            why="21k-node graph run stage by stage: graph loading, IDF and 4-hop BFS dominate",
        ),
    )
}


def pad_kg(fixture_dir: Path, seed: int) -> tuple[int, int]:
    """Append filler categories and articles to a fixture's node and edge TSVs.

    Deterministic in ``seed``. Returns the number of nodes and edges added.
    """
    nodes_path = fixture_dir / "kg_nodes.tsv"
    edges_path = fixture_dir / "kg_edges.tsv"
    root_id = None
    next_id = 0
    with nodes_path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            cells = line.rstrip("\n").split("\t")
            node_id = int(cells[0])
            next_id = max(next_id, node_id + 1)
            if cells[2] == ROOT_TITLE:
                root_id = node_id
    if root_id is None:
        raise ValueError(f"{nodes_path}: no {ROOT_TITLE!r} category to pad under")

    rng = np.random.default_rng([seed, 0x9AD])
    words = rng.integers(PAD_VOCAB, size=(PAD_ARTICLES, PAD_ABSTRACT_WORDS))
    parents = rng.integers(PAD_CATEGORIES, size=PAD_ARTICLES)
    first_cat = next_id
    first_art = first_cat + PAD_CATEGORIES

    node_lines = [
        f"{first_cat + c}\tcategory\tpad category {c:04d}\t\t\n" for c in range(PAD_CATEGORIES)
    ]
    edge_lines = [f"{first_cat + c}\t{root_id}\tcategory_link\n" for c in range(PAD_CATEGORIES)]
    for a in range(PAD_ARTICLES):
        abstract = " ".join(f"padword{w:04d}" for w in words[a])
        node_lines.append(f"{first_art + a}\tarticle\tpad article {a:05d}\t\t{abstract}\n")
        edge_lines.append(f"{first_art + a}\t{first_cat + int(parents[a])}\tcategory_link\n")
    with nodes_path.open("a", encoding="utf-8") as fh:
        fh.writelines(node_lines)
    with edges_path.open("a", encoding="utf-8") as fh:
        fh.writelines(edge_lines)
    return len(node_lines), len(edge_lines)


def prepare(workload: Workload, seed: int, fixture_dir: Path) -> Path:
    """Generate the workload's inputs into ``fixture_dir``; returns the config path."""
    if fixture_dir.exists():
        shutil.rmtree(fixture_dir)
    paths = gen_fixture(seed, workload.instances, workload.topics, fixture_dir)
    if workload.padded:
        pad_kg(fixture_dir, seed)
    return paths["config"]


def run_workload(workload: Workload, config_path: Path, out_dir: Path) -> None:
    """One full run of the workload, writing every artifact under ``out_dir``."""
    if workload.staged:
        run_staged(config_path, out_dir)
    else:
        run_all(load_config(config_path, {"out": str(out_dir), "workers": "1"}))


def run_staged(config_path: Path, out_dir: Path, stages: tuple[str, ...] = STAGE_ORDER) -> None:
    """Call the public ``run_stage`` once per stage and mode.

    Each call builds its own context, as a user driving the CLI stage by
    stage would.
    """
    config = load_config(config_path, {"out": str(out_dir), "workers": "1"})
    for mode in MODES:
        mode_config = dataclasses.replace(config, mode=mode)
        for stage in stages:
            run_stage(mode_config, stage)


# Artifacts that the graph padding must leave byte-identical, and the
# stages that write them.
PAD_INVARIANT = ("seeds.jsonl", "query_graphs.jsonl", "partitions.jsonl")
PAD_STAGES = STAGE_ORDER[:3]


def file_hashes(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by POSIX relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def mode_digests(hashes: dict[str, str]) -> dict[str, str]:
    """One sha256 per mode over that mode's artifact hashes."""
    digests = {}
    for mode in MODES:
        h = hashlib.sha256()
        for rel, digest in sorted(hashes.items()):
            if rel.startswith(f"{mode}/"):
                h.update(f"{rel}\0{digest}\n".encode())
        digests[mode] = h.hexdigest()
    return digests


def pad_invariant_hashes(out_dir: Path) -> dict[str, str]:
    """Hashes of the artifacts that the graph padding must leave unchanged."""
    return {
        rel: digest
        for rel, digest in file_hashes(out_dir).items()
        if rel.rsplit("/", 1)[-1] in PAD_INVARIANT
    }


def read_maps(out_dir: Path) -> dict[str, float]:
    return {
        mode: float(json.loads((out_dir / mode / "report.json").read_text())["overall_map"])
        for mode in MODES
    }
