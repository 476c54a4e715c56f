"""Query-specific subgraph expansion.

A seed set is expanded by collecting every category node that lies on a
shortest path of at most four edges between two distinct seeds. The
resulting subgraph keeps the seeds, those intermediate categories, and all
category-link edges induced among the retained nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Mapping

import numpy as np

from .errors import IntegrityError, NotFoundError
from .kg import KnowledgeGraph
from .linking import SeedOrigin, SeedSet

MAX_PATH_LENGTH = 4


def _bfs(adjacency: Mapping[int, Collection[int]], source: int, cutoff: int | None) -> dict[int, int]:
    distances = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        d = distances[current]
        if cutoff is not None and d >= cutoff:
            continue
        for neighbor in adjacency.get(current, ()):
            if neighbor not in distances:
                distances[neighbor] = d + 1
                queue.append(neighbor)
    return distances


def bfs_distances(graph: KnowledgeGraph, source: int, cutoff: int) -> dict[int, int]:
    """Unweighted shortest-path distances from ``source`` up to ``cutoff`` hops.

    Traversal follows category-link adjacency (undirected); nodes farther
    than the cutoff are omitted from the result.
    """
    if source not in graph.nodes:
        raise NotFoundError(f"unknown source node {source}")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    return _bfs(graph.adjacency, source, cutoff)


@dataclass(frozen=True)
class QueryGraph:
    """Per-instance subgraph of seeds, intermediate categories, and edges.

    ``order`` lists the node ids of seeds and intermediates ascending and
    ``index`` maps each id to its position there.
    ``hops`` is the read-only n×n matrix of hop counts inside the subgraph,
    rows and columns in ``order``, with -1 where a pair is unreachable; it
    is the graph's only adjacency, a node's neighbours being ``hops[i] == 1``.
    """

    instance_id: str
    seeds: Mapping[int, SeedOrigin]
    intermediates: frozenset[int]
    edges: frozenset[tuple[int, int]]
    order: tuple[int, ...] = field(repr=False)
    index: Mapping[int, int] = field(repr=False)
    hops: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_parts(
        cls,
        instance_id: str,
        seeds: Mapping[int, SeedOrigin],
        intermediates: frozenset[int],
        edges: frozenset[tuple[int, int]],
    ) -> "QueryGraph":
        both = intermediates.intersection(seeds)
        if both:
            raise IntegrityError(
                f"instance {instance_id!r}: node {min(both)} is both a seed and an intermediate"
            )
        order = tuple(sorted(frozenset(seeds) | intermediates))
        neighbors: dict[int, set[int]] = {n: set() for n in order}
        for a, b in edges:
            if a == b:
                raise IntegrityError(f"instance {instance_id!r}: self-loop edge ({a}, {b})")
            if a not in neighbors or b not in neighbors:
                raise IntegrityError(
                    f"instance {instance_id!r}: edge ({a}, {b}) has an endpoint "
                    "that is neither a seed nor an intermediate"
                )
            neighbors[a].add(b)
            neighbors[b].add(a)
        rows = []
        for source in order:
            reached = _bfs(neighbors, source, None)
            rows.append([reached.get(target, -1) for target in order])
        hops = np.array(rows, dtype=np.int64).reshape(len(order), len(order))
        hops.flags.writeable = False
        return cls(
            instance_id=instance_id,
            seeds=dict(seeds),
            intermediates=intermediates,
            edges=edges,
            order=order,
            index={n: i for i, n in enumerate(order)},
            hops=hops,
        )

    @property
    def n_nodes(self) -> int:
        return len(self.order)

    def distance(self, a: int, b: int) -> int | None:
        """Hop distance within the subgraph, or None when unreachable.

        Raises ``NotFoundError`` for a node outside the subgraph.
        """
        for node in (a, b):
            if node not in self.index:
                raise NotFoundError(f"node {node} is not in the query graph")
        d = int(self.hops[self.index[a], self.index[b]])
        return None if d < 0 else d

    def to_json_obj(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "seeds": [
                {"id": nid, "from_tags": o.from_tags, "from_image": o.from_image}
                for nid, o in sorted(self.seeds.items())
            ],
            "intermediates": sorted(self.intermediates),
            "edges": [list(e) for e in sorted(self.edges)],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QueryGraph":
        seeds = {
            int(s["id"]): SeedOrigin(bool(s["from_tags"]), bool(s["from_image"]))
            for s in obj["seeds"]
        }
        edges = frozenset((int(a), int(b)) if a < b else (int(b), int(a)) for a, b in obj["edges"])
        return cls.from_parts(
            instance_id=obj["instance_id"],
            seeds=seeds,
            intermediates=frozenset(int(n) for n in obj["intermediates"]),
            edges=edges,
        )


def build_query_graph(graph: KnowledgeGraph, seedset: SeedSet) -> QueryGraph:
    """Expand a seed set into its query-specific subgraph.

    For every unordered seed pair within distance 4 of each other, all
    category nodes on *any* shortest path between them become intermediates:
    one integer test, d(s,v) + d(v,t) == d(s,t), over a matrix of each seed's
    BFS distances (beyond 4 read as 5). Seeds never re-enter the intermediate
    set, and article nodes are never collected. An empty seed set yields an
    empty subgraph.
    """
    for seed_id in seedset.seeds:
        if seed_id not in graph.nodes:
            raise IntegrityError(
                f"instance {seedset.instance_id!r}: seed {seed_id} is not in the graph"
            )

    seeds = dict(seedset.seeds)
    seed_ids = sorted(seeds)
    frontiers = [_bfs(graph.adjacency, s, MAX_PATH_LENGTH) for s in seed_ids]
    reached = sorted(
        {v for f in frontiers for v in f if v not in seeds and graph.nodes[v].is_category}
    )
    columns, k = seed_ids + reached, len(seed_ids)
    dist = np.array(
        [[f.get(v, MAX_PATH_LENGTH + 1) for v in columns] for f in frontiers], dtype=np.int64
    ).reshape(k, len(columns))
    to_seed, to_node = dist[:, :k], dist[:, k:]
    s, t = np.nonzero(np.triu(to_seed <= MAX_PATH_LENGTH, k=1))
    on_path = (to_node[s] + to_node[t] == to_seed[s, t, None]).any(axis=0)
    intermediates = {v for v, hit in zip(reached, on_path.tolist()) if hit}

    nodes = set(seeds) | intermediates
    edges = {
        (node, neighbor) if node < neighbor else (neighbor, node)
        for node in nodes
        for neighbor in graph.adjacency.get(node, ())
        if neighbor in nodes
    }
    return QueryGraph.from_parts(
        instance_id=seedset.instance_id,
        seeds=seeds,
        intermediates=frozenset(intermediates),
        edges=frozenset(edges),
    )
