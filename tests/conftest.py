"""Shared fixtures: tiny hand-built graphs and random graph generators."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from gistrank.kg import ConceptNode, EdgeKind, KgEdge, KnowledgeGraph, NodeKind
from gistrank.linking import SeedOrigin
from gistrank.query_graph import QueryGraph


def kg_from_parts(nodes, edges) -> KnowledgeGraph:
    """Assemble a KnowledgeGraph directly from (id, kind, title[, redirects, abstract])
    node tuples and (src, dst) category-link edge pairs."""
    node_map = {}
    for spec in nodes:
        node_id, kind, title = spec[0], spec[1], spec[2]
        redirects = frozenset(spec[3]) if len(spec) > 3 else frozenset()
        abstract = spec[4] if len(spec) > 4 else ""
        node_map[node_id] = ConceptNode(node_id, kind, title, redirects, abstract)
    edge_objs = tuple(KgEdge(a, b, EdgeKind.CATEGORY_LINK) for a, b in edges)
    neighbor_sets = {nid: set() for nid in node_map}
    for a, b in edges:
        neighbor_sets[a].add(b)
        neighbor_sets[b].add(a)
    title_index = {}
    for nid, node in sorted(node_map.items()):
        title_index.setdefault(node.title, nid)
        for alias in sorted(node.redirect_titles):
            title_index.setdefault(alias, nid)
    return KnowledgeGraph(
        nodes=dict(sorted(node_map.items())),
        edges=edge_objs,
        adjacency={nid: tuple(sorted(ns)) for nid, ns in neighbor_sets.items()},
        title_index=title_index,
    )


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


def random_query_graph(rng: np.random.Generator, n_nodes: int, edge_prob: float) -> QueryGraph:
    edges = [
        (a, b)
        for a in range(n_nodes)
        for b in range(a + 1, n_nodes)
        if rng.random() < edge_prob
    ]
    return query_graph_from_edges(n_nodes, edges)


@st.composite
def seeded_query_graphs(draw, max_linked=12):
    """Random query graph over scattered node ids with a random seed subset.

    At most two random edges per linked node give paths of several hops and
    disconnected parts; up to three extra nodes have no edge at all; the seed
    subset may be empty.
    """
    n_linked, n_isolated = draw(st.integers(0, max_linked)), draw(st.integers(0, 3))
    ids = draw(st.lists(st.integers(0, 999), min_size=n_linked + n_isolated,
                        max_size=n_linked + n_isolated, unique=True))
    pairs = list(itertools.combinations(ids[:n_linked], 2))
    edges = []
    if pairs:
        n_edges = draw(st.integers(0, 2 * n_linked))
        edges = draw(st.lists(st.sampled_from(pairs), min_size=n_edges, max_size=n_edges))
    seeds = draw(st.sets(st.sampled_from(ids))) if ids else set()
    return QueryGraph.from_parts(
        instance_id="q",
        seeds={s: SeedOrigin(from_tags=True) for s in seeds},
        intermediates=frozenset(ids) - seeds,
        edges=frozenset((min(a, b), max(a, b)) for a, b in edges),
    )


def neighbor_tuples(qg: QueryGraph) -> dict[int, tuple[int, ...]]:
    """Each node's neighbours in ``qg.edges``, as an ascending tuple."""
    neighbors: dict[int, set[int]] = {v: set() for v in qg.order}
    for a, b in qg.edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    return {v: tuple(sorted(ns)) for v, ns in neighbors.items()}


def all_pairs_hops(qg: QueryGraph) -> dict[tuple[int, int], int]:
    """Oracle: hop counts of every reachable ordered pair, by BFS over ``qg.edges``."""
    neighbors = neighbor_tuples(qg)
    hops = {}
    for source in qg.order:
        reached, frontier, d = {source}, {source}, 0
        while frontier:
            hops.update(((source, v), d) for v in frontier)
            frontier = {w for v in frontier for w in neighbors[v]} - reached
            reached |= frontier
            d += 1
    return hops


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
