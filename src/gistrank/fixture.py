"""Synthetic desk-scale fixture: a small knowledge graph plus a corpus.

The graph contains per-topic article clusters. Each topic owns a pool of
tag articles split across two group categories, two object articles (one
per group), and a hub category joining the groups, so any two seeds of the
same topic connect within four hops and their shortest paths pass through
shared categories. Noise articles and common object articles are linkable
but isolated; filler articles pad the graph and are never mentioned.

Corpus instances mention their topic's articles in tags and image labels
(with dropout and occasional false-positive detections from another topic),
plus linkable noise and an unlinkable junk token. Concept grades mark hub
categories and topical seeds as highly relevant and noise as irrelevant.
Everything is a deterministic function of the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .kg import EdgeKind, NodeKind

TAG_POOL = 30  # per topic, half per group; instances draw 3 + 2 across groups
NOISE_POOL = 24
COMMON_OBJECTS = 3
FILLER_ARTICLES = 40
FILLER_GROUPS = 8

NOISE_TAGS = 4
KEEP_SECOND_OBJECT_P = 0.6
FALSE_OBJECT_P = 0.2

_JUNK_VOCAB = ("zergle", "wumpus", "fizzle", "gromble", "quorv", "snurfle")
_THEME_VOCAB = ("scene", "motif", "texture", "pattern", "shade", "contour")


class _Builder:
    """Accumulates nodes/edges with sequential ids and writes the TSV files."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, str, str, str, str]] = []
        self.edges: list[tuple[int, int]] = []
        self.ids: dict[str, int] = {}

    def add_node(self, kind: NodeKind, title: str, redirects: str = "", abstract: str = "") -> int:
        node_id = len(self.rows)
        self.rows.append((node_id, kind.value, title, redirects, abstract))
        self.ids[title] = node_id
        return node_id

    def link(self, src_title: str, dst_title: str) -> None:
        self.edges.append((self.ids[src_title], self.ids[dst_title]))

    def write(self, nodes_path: Path, edges_path: Path) -> None:
        with nodes_path.open("w", encoding="utf-8") as fh:
            fh.write("# id\tkind\ttitle\tredirect_titles\tabstract_text\n")
            for row in self.rows:
                fh.write("\t".join(str(c) for c in row) + "\n")
        with edges_path.open("w", encoding="utf-8") as fh:
            fh.write("# src_id\tdst_id\tkind\n")
            for src, dst in self.edges:
                fh.write(f"{src}\t{dst}\t{EdgeKind.CATEGORY_LINK.value}\n")


def _topic_name(t: int) -> str:
    return f"topic{t:02d}"


def _item_title(topic: str, i: int) -> str:
    return f"{topic} item {i:02d}"


def gen_fixture(seed: int, n_instances: int, n_topics: int, out_dir: str | Path) -> dict[str, Path]:
    """Generate the fixture files; returns the paths keyed by role.

    Writes ``kg_nodes.tsv``, ``kg_edges.tsv``, ``corpus.jsonl``, and a
    ready-to-run ``pipeline.config`` into ``out_dir``.
    """
    if n_topics < 1:
        raise ConfigError("n_topics must be >= 1")
    if n_instances < 3 * n_topics:
        raise ConfigError(
            f"n_instances must be >= 3 * n_topics ({3 * n_topics}), got {n_instances}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    topics = [_topic_name(t) for t in range(n_topics)]

    b = _Builder()
    b.add_node(NodeKind.CATEGORY, "root topics")
    for t, topic in enumerate(topics):
        theme = _THEME_VOCAB[t % len(_THEME_VOCAB)]
        b.add_node(NodeKind.CATEGORY, f"{topic} group a")
        b.add_node(NodeKind.CATEGORY, f"{topic} group b")
        b.add_node(NodeKind.CATEGORY, f"{topic} hub")
        b.link(f"{topic} group a", f"{topic} hub")
        b.link(f"{topic} group b", f"{topic} hub")
        b.link(f"{topic} hub", "root topics")
        for i in range(TAG_POOL):
            group = "a" if i < TAG_POOL // 2 else "b"
            title = _item_title(topic, i)
            redirects = f"{title} alt" if i % 5 == 0 else ""
            abstract = f"the {topic} {theme} covers item {i:02d} within a shared {theme}"
            b.add_node(NodeKind.ARTICLE, title, redirects, abstract)
            b.link(title, f"{topic} group {group}")
        for obj, group in (("alpha", "a"), ("beta", "b")):
            title = f"object {topic} {obj}"
            abstract = f"the {topic} object {obj} appears across {topic} scenes and {theme}s"
            b.add_node(NodeKind.ARTICLE, title, "", abstract)
            b.link(title, f"{topic} group {group}")

    for i in range(NOISE_POOL):
        junk = " ".join(_JUNK_VOCAB[(i + j) % len(_JUNK_VOCAB)] for j in range(3))
        b.add_node(NodeKind.ARTICLE, f"noise blob {i:02d}", "", junk)
    for i in range(COMMON_OBJECTS):
        b.add_node(NodeKind.ARTICLE, f"object common {i:02d}", "", "ubiquitous shape of all scenes")

    b.add_node(NodeKind.CATEGORY, "filler hub")
    b.link("filler hub", "root topics")
    for g in range(FILLER_GROUPS):
        b.add_node(NodeKind.CATEGORY, f"filler group {g:02d}")
        b.link(f"filler group {g:02d}", "filler hub")
    for i in range(FILLER_ARTICLES):
        b.add_node(NodeKind.ARTICLE, f"filler item {i:02d}", "", "unrelated background entry")
        b.link(f"filler item {i:02d}", f"filler group {i % FILLER_GROUPS:02d}")

    nodes_path = out_dir / "kg_nodes.tsv"
    edges_path = out_dir / "kg_edges.tsv"
    b.write(nodes_path, edges_path)

    def tag_form(topic: str, item: int) -> str:
        # Exercise normalization and redirects: vary case, sometimes alias.
        title = _item_title(topic, item)
        if item % 5 == 0 and rng.random() < 0.5:
            title = f"{title} alt"
        return title.title() if rng.random() < 0.3 else title

    def sample_items(topic: str, n_a: int, n_b: int) -> list[int]:
        half = TAG_POOL // 2
        picks_a = rng.choice(half, size=n_a, replace=False)
        picks_b = rng.choice(half, size=n_b, replace=False) + half
        return [int(i) for i in np.concatenate([picks_a, picks_b])]

    corpus_path = out_dir / "corpus.jsonl"
    with corpus_path.open("w", encoding="utf-8") as fh:
        for idx in range(n_instances):
            instance_id = f"inst{idx:03d}"
            primary = topics[idx % n_topics]
            gold = [primary]
            if n_topics > 1 and idx % 10 == 5:
                gold.append(topics[(idx % n_topics + 1) % n_topics])

            grades: dict[str, int] = {}

            def grade_topic(topic: str) -> None:
                grades[str(b.ids[f"{topic} hub"])] = 5
                grades[str(b.ids[f"{topic} group a"])] = 4
                grades[str(b.ids[f"{topic} group b"])] = 4
                for obj in ("alpha", "beta"):
                    grades[str(b.ids[f"object {topic} {obj}"])] = 5

            tags: list[str] = []
            if idx != 3:  # one instance has no tags at all
                if len(gold) == 1:
                    items = sample_items(primary, 3, 2)
                    tags.extend(tag_form(primary, i) for i in items)
                    for i in items:
                        grades[str(b.ids[_item_title(primary, i)])] = 5
                else:
                    for topic, (n_a, n_b) in zip(gold, ((2, 1), (1, 1))):
                        items = sample_items(topic, n_a, n_b)
                        tags.extend(tag_form(topic, i) for i in items)
                        for i in items:
                            grades[str(b.ids[_item_title(topic, i)])] = 5
                noise_ids = [int(i) for i in rng.choice(NOISE_POOL, size=NOISE_TAGS, replace=False)]
                tags.extend(f"noise blob {i:02d}" for i in noise_ids)
                for i in noise_ids:
                    grades[str(b.ids[f'noise blob {i:02d}'])] = 1
                tags.append(f"junkword {idx:03d}")  # never linkable

            image_labels: list[str] = []
            if idx != 4:  # one instance has no image labels at all
                for topic in gold:
                    grade_topic(topic)
                    objects = ["alpha", "beta"]
                    if tags and rng.random() > KEEP_SECOND_OBJECT_P:
                        objects = [objects[int(rng.integers(2))]]
                    image_labels.extend(f"object {topic} {o}" for o in objects)
                if n_topics > 1 and rng.random() < FALSE_OBJECT_P:
                    other = topics[(idx % n_topics + 1) % n_topics]
                    if other not in gold:
                        fp = f"object {other} alpha"
                        image_labels.append(fp)
                        grades[str(b.ids[fp])] = 1
                commons = rng.choice(COMMON_OBJECTS, size=min(2, COMMON_OBJECTS), replace=False)
                for i in commons:
                    image_labels.append(f"object common {int(i):02d}")
                    grades[str(b.ids[f'object common {int(i):02d}'])] = 1
            else:
                for topic in gold:
                    grade_topic(topic)

            record = {
                "id": instance_id,
                "tags": tags,
                "image_labels": image_labels,
                "topics": gold,
                "concept_grades": grades,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    config_path = out_dir / "pipeline.config"
    config_path.write_text(
        "\n".join(
            (
                "# generated fixture configuration",
                "kg.nodes=kg_nodes.tsv",
                "kg.edges=kg_edges.tsv",
                "corpus=corpus.jsonl",
                "out=out",
                "mode=TII",
                f"seed={seed}",
                "top_k=10",
                "eval.k=50",
                "split.ratio=0.6",
                "",
            )
        ),
        encoding="utf-8",
    )
    return {
        "nodes": nodes_path,
        "edges": edges_path,
        "corpus": corpus_path,
        "config": config_path,
    }
