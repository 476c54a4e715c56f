"""Shared fixtures: tiny hand-built graphs and random graph generators."""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import strategies as st

from gistrank.kg import KnowledgeGraph, NodeKind
from gistrank.linking import SeedOrigin
from gistrank.query_graph import QueryGraph


def kg_from_parts(nodes, edges) -> KnowledgeGraph:
    """Assemble a KnowledgeGraph directly from (id, kind, title[, redirects, abstract])
    node tuples and (src, dst) category-link edge pairs."""
    specs = [(*spec, (), "")[:5] for spec in nodes]
    edges = list(edges)
    return KnowledgeGraph.from_columns(
        ids=[spec[0] for spec in specs],
        is_category=[spec[1] is NodeKind.CATEGORY for spec in specs],
        titles=[spec[2] for spec in specs],
        abstracts=[spec[4] for spec in specs],
        redirect_titles={spec[0]: frozenset(spec[3]) for spec in specs if spec[3]},
        edges=edges,
        edge_is_redirect=[False] * len(edges),
    )


def kg_adjacency(graph: KnowledgeGraph) -> dict[int, tuple[int, ...]]:
    """Each node's category-link neighbours, ascending, read from ``graph.edges``."""
    neighbors: dict[int, set[int]] = {v: set() for v in graph.ids.tolist()}
    for (a, b), redirect in zip(graph.edges.tolist(), graph.edge_is_redirect.tolist()):
        if not redirect:
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
