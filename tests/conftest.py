"""Shared fixtures: tiny hand-built graphs and random graph generators."""

from __future__ import annotations

import io
import itertools
import weakref
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import gistrank.pipeline as pipeline
from gistrank.kg import EdgeKind, KnowledgeGraph, NodeKind
from gistrank.linking import SeedOrigin
from gistrank.query_graph import QueryGraph


def count_pipeline_calls(monkeypatch, names) -> dict[str, int]:
    """Count the calls ``gistrank.pipeline`` makes to each named function from
    now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(pipeline, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return counts


def npy_records(data: bytes) -> list[tuple[int, np.ndarray]]:
    """The ``np.save`` records of a feature dump, each with the offset at which it ends."""
    fh = io.BytesIO(data)
    records = []
    while fh.tell() < len(data):
        array = np.lib.format.read_array(fh, allow_pickle=False)
        records.append((fh.tell(), array))
    return records


def edit_npy_record(data: bytes, index: int, edit) -> bytes:
    """``data`` with record ``index`` replaced by ``edit(record)``, saved again."""
    fh = io.BytesIO()
    for i, (_, array) in enumerate(npy_records(data)):
        np.save(fh, edit(array.copy()) if i == index else array, allow_pickle=False)
    return fh.getvalue()


# The category links that ``kg_from_parts`` built each graph from: the
# oracles read a graph's adjacency from these, not from its CSR.
_LINKS: weakref.WeakKeyDictionary[KnowledgeGraph, list] = weakref.WeakKeyDictionary()


def kg_from_parts(nodes, edges) -> KnowledgeGraph:
    """Assemble a KnowledgeGraph directly from (id, kind, title[, redirects, abstract])
    node tuples and (src, dst) category-link edge pairs."""
    specs = sorted(((*spec, (), "")[:5] for spec in nodes), key=lambda spec: spec[0])
    position = {spec[0]: i for i, spec in enumerate(specs)}
    edges = list(edges)
    ends = [(position[a], position[b]) for a, b in edges]
    graph = KnowledgeGraph.from_columns(
        ids=[spec[0] for spec in specs],
        is_category=[spec[1] is NodeKind.CATEGORY for spec in specs],
        titles=[spec[2] for spec in specs],
        abstracts=[spec[4] for spec in specs],
        redirect_titles={spec[0]: frozenset(spec[3]) for spec in specs if spec[3]},
        ends=ends,
        edge_is_redirect=[False] * len(ends),
    )
    _LINKS[graph] = edges
    return graph


def save_graph(graph: KnowledgeGraph, nodes_path: str | Path, edges_path: str | Path) -> None:
    """Write a graph back to the TSV file format (round-trips with load_graph).

    The graph keeps its redirects only as ``title_index`` entries, so they are
    written from there: a node whose title maps to another node as a redirect
    edge to it, and a key that is no title as a redirect title of the node it
    maps to, which must be an article.
    """
    index = graph.title_index
    aliases: dict[int, list[str]] = {}
    for alias in itertools.islice(index, graph.n_nodes, None):
        aliases.setdefault(index[alias], []).append(alias)
    with Path(nodes_path).open("w", encoding="utf-8") as fh:
        for node_id in graph.ids.tolist():
            node = graph.node(node_id)
            redirects = "|".join(sorted(aliases.get(node_id, ())))
            fh.write(f"{node_id}\t{node.kind.value}\t{node.title}\t{redirects}\t{node.abstract_text}\n")
    with Path(edges_path).open("w", encoding="utf-8") as fh:
        for src, dst in graph.edges.tolist():
            fh.write(f"{src}\t{dst}\t{EdgeKind.CATEGORY_LINK.value}\n")
        for src, title in zip(graph.ids.tolist(), graph.titles):
            if index[title] != src:
                fh.write(f"{src}\t{index[title]}\t{EdgeKind.REDIRECT.value}\n")


def neighbors(graph: KnowledgeGraph, node_id: int) -> tuple[int, ...]:
    """A node's category-link neighbours, ascending, read from the CSR rows."""
    p = graph.position(node_id)
    return tuple(graph.ids[graph.indices[graph.indptr[p] : graph.indptr[p + 1]]].tolist())


def kg_adjacency(graph: KnowledgeGraph) -> dict[int, tuple[int, ...]]:
    """Each node's category-link neighbours, ascending, from the links
    ``kg_from_parts`` built ``graph`` from."""
    neighbors: dict[int, set[int]] = {v: set() for v in graph.ids.tolist()}
    for a, b in _LINKS[graph]:
        neighbors[a].add(b)
        neighbors[b].add(a)
    return {v: tuple(sorted(ns)) for v, ns in neighbors.items()}


def dict_bfs(adjacency, source: int, cutoff: int) -> dict[int, int]:
    """Reference BFS: hop counts from ``source`` over an adjacency dict, up to ``cutoff``."""
    distances = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        d = distances[current]
        if d >= cutoff:
            continue
        for neighbor in adjacency.get(current, ()):
            if neighbor not in distances:
                distances[neighbor] = d + 1
                queue.append(neighbor)
    return distances


def random_kg(rng: np.random.Generator, n_nodes: int, edge_prob: float) -> KnowledgeGraph:
    """Random knowledge graph; category-link edges always end at a category."""
    kinds = [
        NodeKind.CATEGORY if rng.random() < 0.5 else NodeKind.ARTICLE for _ in range(n_nodes)
    ]
    nodes = [(i, kinds[i], f"node {i}") for i in range(n_nodes)]
    edges = []
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            if rng.random() >= edge_prob:
                continue
            if kinds[b] is NodeKind.CATEGORY:
                edges.append((a, b))
            elif kinds[a] is NodeKind.CATEGORY:
                edges.append((b, a))
            # article-article pairs get no edge
    return kg_from_parts(nodes, edges)


def query_graph_from_edges(n_nodes: int, edges, seeds=None, instance_id="q") -> QueryGraph:
    """Build a QueryGraph directly from an edge list (all nodes seeds by default)."""
    seed_ids = set(range(n_nodes)) if seeds is None else set(seeds)
    intermediates = frozenset(set(range(n_nodes)) - seed_ids)
    return QueryGraph.from_parts(
        instance_id=instance_id,
        seeds={s: SeedOrigin(from_tags=True) for s in sorted(seed_ids)},
        intermediates=intermediates,
        edges=frozenset((a, b) if a < b else (b, a) for a, b in edges),
    )


def random_edges(rng: np.random.Generator, n_nodes: int, edge_prob: float) -> list[tuple[int, int]]:
    """Each pair of nodes 0..n_nodes-1, ascending, kept with probability ``edge_prob``."""
    return [
        (a, b)
        for a in range(n_nodes)
        for b in range(a + 1, n_nodes)
        if rng.random() < edge_prob
    ]


def random_query_graph(rng: np.random.Generator, n_nodes: int, edge_prob: float) -> QueryGraph:
    return query_graph_from_edges(n_nodes, random_edges(rng, n_nodes, edge_prob))


@st.composite
def query_graph_parts(draw, max_linked=12):
    """Random parts of a query graph: scattered node ids, a seed map over a
    random subset of them with mixed origins, and edges among the ids.

    At most two random edges per linked node give paths of several hops and
    disconnected parts; up to three extra nodes have no edge at all; the seed
    subset may be empty. Returns ``(ids, seeds, edges)``, each as drawn: the
    edges unnormalised and possibly repeated.
    """
    n_linked, n_isolated = draw(st.integers(0, max_linked)), draw(st.integers(0, 3))
    ids = draw(st.lists(st.integers(0, 999), min_size=n_linked + n_isolated,
                        max_size=n_linked + n_isolated, unique=True))
    pairs = list(itertools.combinations(ids[:n_linked], 2))
    edges = []
    if pairs:
        n_edges = draw(st.integers(0, 2 * n_linked))
        edges = draw(st.lists(st.sampled_from(pairs), min_size=n_edges, max_size=n_edges))
    seeds = {
        s: SeedOrigin(from_tags=draw(st.booleans()), from_image=draw(st.booleans()))
        for s in sorted(draw(st.sets(st.sampled_from(ids))) if ids else ())
    }
    return ids, seeds, edges


def seeded_query_graphs(max_linked=12):
    """``query_graph_parts`` built into a query graph. Returns the graph and
    the edges drawn for it: the oracles that check ``hops`` read these."""
    return query_graph_parts(max_linked).map(
        lambda parts: (query_graph_from_parts(*parts), parts[2])
    )


def query_graph_from_parts(ids, seeds, edges) -> QueryGraph:
    """The query graph "q" over ``ids``: ``seeds`` and, as intermediates, the rest."""
    return QueryGraph.from_parts("q", seeds, frozenset(ids) - seeds.keys(), edges)


def neighbor_tuples(nodes, edges) -> dict[int, tuple[int, ...]]:
    """Each of ``nodes``' neighbours along ``edges`` (id pairs, either way
    round), as an ascending tuple."""
    neighbors: dict[int, set[int]] = {v: set() for v in nodes}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    return {v: tuple(sorted(ns)) for v, ns in neighbors.items()}


def all_pairs_hops(nodes, edges) -> dict[tuple[int, int], int]:
    """Oracle: hop counts of every reachable ordered pair of ``nodes``, by BFS
    along ``edges``."""
    neighbors = neighbor_tuples(nodes, edges)
    hops = {}
    for source in nodes:
        reached, frontier, d = {source}, {source}, 0
        while frontier:
            hops.update(((source, v), d) for v in frontier)
            frontier = {w for v in frontier for w in neighbors[v]} - reached
            reached |= frontier
            d += 1
    return hops


# Valid node and edge TSV text, for differential tests of the loader and
# round trips through the graph snapshot.

_WORDS = ("car", "motor", "vehicle", "red", "café", "x")
_SPACES = (" ", "  ", "\x85", "\u2028", "\x0c", "\x1c")
_DIGITS = ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९")
# Blank (whitespace only) and comment lines; "\x85" and "\u2028" end no line.
_NOISE = ("", "   ", "\x85", "\u2028", "\x0c", "#", "# comment\twith a tab")
_TITLES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
_ABSTRACTS = st.text(st.sampled_from("ab Z\x85\u2028\x0c|#"), max_size=8)


@st.composite
def spelled(draw, value: int) -> str:
    """``value`` as one of the spellings ``int()`` accepts."""
    text = str(value)
    style = draw(st.sampled_from(("plain", "plus", "space", "underscore", "digits")))
    if style == "plus":
        return "+" + text
    if style == "space":
        return draw(st.sampled_from((" ", "  "))) + text + draw(st.sampled_from(("", " ")))
    if style == "underscore" and len(text) > 1:
        return text[0] + "_" + text[1:]
    if style == "digits":
        digits = draw(st.sampled_from(_DIGITS))
        return "".join(digits[int(c)] for c in text)
    return text


@st.composite
def decorated(draw, title: str) -> str:
    """A raw spelling of ``title`` that normalizes back to it."""
    words = [w.upper() if draw(st.booleans()) else w for w in title.split(" ")]
    text = words[0] + "".join(draw(st.sampled_from(_SPACES)) + w for w in words[1:])
    return draw(st.sampled_from(("", " ", "\x85"))) + text + draw(st.sampled_from(("", "\u2028")))


@st.composite
def graph_rows(draw):
    """Field rows of a valid node and edge file pair.

    Ids are unsorted with gaps; redirects form chains, and aliases compete
    with primary titles and with each other.
    """
    n = draw(st.integers(0, 9))
    ids = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    categories = [draw(st.booleans()) for _ in ids]
    titles = draw(st.lists(_TITLES, min_size=n, max_size=n, unique=True))
    aliases = st.sampled_from(titles + ["auto", "motor car", ""])
    node_rows = []
    for node_id, category, title in zip(ids, categories, titles):
        redirects = [] if category else draw(st.lists(aliases, max_size=3))
        node_rows.append([
            draw(spelled(node_id)),
            "category" if category else "article",
            draw(decorated(title)),
            "|".join(draw(decorated(a)) if a else a for a in redirects),
            "" if category else draw(_ABSTRACTS),
        ])
    cats = [v for v, c in zip(ids, categories) if c]
    edges = []
    if cats and n > 1:
        links = st.tuples(st.sampled_from(ids), st.sampled_from(cats)).filter(lambda e: e[0] != e[1])
        edges += [(a, b, "category_link") for a, b in draw(st.lists(links, unique=True, max_size=10))]
    if n > 1:
        rank = {v: k for k, v in enumerate(draw(st.permutations(ids)))}
        chain = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: rank[e[0]] < rank[e[1]])
        edges += [(a, b, "redirect") for a, b in draw(st.lists(chain, unique_by=lambda e: e[0], max_size=4))]
    edge_rows = [[draw(spelled(a)), draw(spelled(b)), kind] for a, b, kind in draw(st.permutations(edges))]
    return node_rows, edge_rows


@st.composite
def tsv_text(draw, rows) -> str:
    """The rows as a TSV file, with blank and comment lines between them and
    each line ended by "\\n", "\\r\\n" or "\\r" (the last one maybe not at all)."""
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(_NOISE), max_size=2))
        lines.append("\t".join(row))
    ends = [draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@pytest.fixture
def tiny_kg(tmp_path):
    """Three-node graph from the linking walk-through: volvo, car, one hub category."""
    nodes_file = tmp_path / "nodes.tsv"
    edges_file = tmp_path / "edges.tsv"
    nodes_file.write_text(
        "0\tarticle\tvolvo\t\tswedish marque of motor vehicles\n"
        "1\tarticle\tcar\tautomobile\ta wheeled motor vehicle\n"
        "2\tcategory\tmotor vehicles\t\t\n",
        encoding="utf-8",
    )
    edges_file.write_text("0\t2\tcategory_link\n1\t2\tcategory_link\n", encoding="utf-8")
    from gistrank.kg import load_graph

    return load_graph(nodes_file, edges_file)


@pytest.fixture(scope="session")
def fixture_run(tmp_path_factory) -> Path:
    """A 30×3 seed-7 fixture directory after ``run_all``: every mode's
    artifacts lie under its ``out``."""
    from gistrank.config import load_config
    from gistrank.fixture import gen_fixture

    root = tmp_path_factory.mktemp("fixture_run")
    gen_fixture(seed=7, n_instances=30, n_topics=3, out_dir=root)
    pipeline.run_all(load_config(root / "pipeline.config", {"out": str(root / "out")}))
    return root
