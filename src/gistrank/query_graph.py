"""Query-specific subgraph expansion.

A seed set is expanded by collecting every category node that lies on a
shortest path of at most four edges between two distinct seeds. The
resulting subgraph keeps the seeds, those intermediate categories, and all
category-link edges induced among the retained nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import IntegrityError
from .kg import KnowledgeGraph, _search
from .linking import SeedOrigin, SeedSet, seeds_from_json, seeds_to_json

MAX_PATH_LENGTH = 4


def _gather(graph: KnowledgeGraph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows of ``nodes``, concatenated: for each neighbour position,
    the index into ``nodes`` of the node it was read from, and the position."""
    starts = graph.indptr[nodes]
    sizes = graph.indptr[nodes + 1] - starts
    owner = np.repeat(np.arange(len(nodes)), sizes)
    return owner, graph.indices[(starts - np.cumsum(sizes) + sizes)[owner] + np.arange(len(owner))]


def _hop_counts(graph: KnowledgeGraph, sources: np.ndarray, cutoff: int) -> np.ndarray:
    """Hop counts over the category links from each source position (rows)
    to every node position (columns), with cutoff + 1 beyond ``cutoff``.

    One breadth-first search from all sources at once, a level at a time:
    the frontier is a set of (source, node) cells, and each level reads the
    CSR rows of all of them together.
    """
    k, n, far = len(sources), graph.n_nodes, cutoff + 1
    dist = np.full(k * n, far, dtype=np.min_scalar_type(far))
    frontier = np.arange(k) * n + sources
    dist[frontier] = 0
    for level in range(1, far):
        nodes = frontier % n
        owner, reached = _gather(graph, nodes)
        cells = (frontier - nodes)[owner] + reached
        cells = cells[dist[cells] == far]
        if not len(cells):
            break
        dist[cells] = level
        frontier = np.flatnonzero(dist == level)
    return dist.reshape(k, n)


def bfs_distances(graph: KnowledgeGraph, source: int, cutoff: int) -> dict[int, int]:
    """Unweighted shortest-path distances from ``source`` up to ``cutoff`` hops.

    Traversal follows category-link adjacency (undirected); nodes farther
    than the cutoff are omitted from the result, which is keyed by node id
    in ascending order.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    cutoff = min(cutoff, graph.n_nodes)
    dist = _hop_counts(graph, np.array([graph.position(source)]), cutoff)[0]
    hit = np.flatnonzero(dist <= cutoff)
    return dict(zip(graph.ids[hit].tolist(), dist[hit].tolist()))


@dataclass(frozen=True, eq=False)
class QueryGraph:
    """Per-instance subgraph of seeds and intermediate categories, held as rows.

    ``order`` lists the node ids ascending, one row per node. ``origins[i]``
    is the ``SeedOrigin`` of the seed ``order[i]``, or None when that node is
    an intermediate. ``hops`` is the read-only n×n matrix of hop counts inside
    the subgraph, rows and columns in ``order``, with -1 where a pair is
    unreachable; it is the graph's only adjacency, a node's neighbours being
    ``hops[i] == 1``.
    """

    instance_id: str
    order: tuple[int, ...]
    origins: tuple[SeedOrigin | None, ...] = field(repr=False)
    hops: np.ndarray = field(repr=False)

    @classmethod
    def from_parts(
        cls,
        instance_id: str,
        seeds: Mapping[int, SeedOrigin],
        intermediates: frozenset[int],
        edges: Iterable[Sequence[int]],
    ) -> "QueryGraph":
        both = intermediates.intersection(seeds)
        if both:
            raise IntegrityError(
                f"instance {instance_id!r}: node {min(both)} is both a seed and an intermediate"
            )
        order = tuple(sorted(frozenset(seeds) | intermediates))
        index = {n: i for i, n in enumerate(order)}
        neighbors: list[list[int]] = [[] for _ in order]
        for a, b in edges:
            if a == b:
                raise IntegrityError(f"instance {instance_id!r}: self-loop edge ({a}, {b})")
            if a not in index or b not in index:
                raise IntegrityError(
                    f"instance {instance_id!r}: edge ({a}, {b}) has an endpoint "
                    "that is neither a seed nor an intermediate"
                )
            neighbors[index[a]].append(index[b])
            neighbors[index[b]].append(index[a])
        # Breadth-first from each position, a frontier list per level.
        rows = []
        for source in range(len(order)):
            row = [-1] * len(order)
            row[source], frontier, d = 0, [source], 0
            while frontier:
                d += 1
                reached = []
                for v in frontier:
                    for w in neighbors[v]:
                        if row[w] < 0:
                            row[w] = d
                            reached.append(w)
                frontier = reached
            rows.append(row)
        hops = np.array(rows, dtype=np.int64).reshape(len(order), len(order))
        hops.flags.writeable = False
        return cls(instance_id, order, tuple(map(seeds.get, order)), hops)

    @property
    def n_nodes(self) -> int:
        return len(self.order)

    @property
    def intermediates(self) -> frozenset[int]:
        """The ids of the nodes that are not seeds, derived from ``origins``."""
        return frozenset(v for v, o in zip(self.order, self.origins) if o is None)

    def to_json_obj(self) -> dict:
        order = self.order
        # Each edge once, as an ascending id pair, in ascending pair order: the
        # upper triangle of ``hops == 1`` in row-major order, as ``order`` ascends.
        a, b = np.nonzero(self.hops == 1)
        return {
            "instance_id": self.instance_id,
            "seeds": seeds_to_json({v: o for v, o in zip(order, self.origins) if o is not None}),
            "intermediates": sorted(self.intermediates),
            "edges": [[order[i], order[j]] for i, j in zip(a.tolist(), b.tolist()) if i < j],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QueryGraph":
        return cls.from_parts(
            instance_id=obj["instance_id"],
            seeds=seeds_from_json(obj["seeds"]),
            intermediates=frozenset(int(n) for n in obj["intermediates"]),
            edges=((int(a), int(b)) for a, b in obj["edges"]),
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
    seeds = dict(seedset.seeds)
    at, found = _search(graph.ids, list(seeds))
    if not all(found):
        raise IntegrityError(
            f"instance {seedset.instance_id!r}: seed {list(seeds)[found.index(False)]} is not in the graph"
        )
    sources = np.sort(at)  # the ids ascend with their positions
    dist = _hop_counts(graph, sources, MAX_PATH_LENGTH)
    candidate = (dist <= MAX_PATH_LENGTH).any(axis=0) & graph.is_category
    candidate[sources] = False
    reached = np.flatnonzero(candidate)
    to_seed, to_node = dist[:, sources], dist[:, reached]
    s, t = np.nonzero(np.triu(to_seed <= MAX_PATH_LENGTH, k=1))
    on_path = (to_node[s] + to_node[t] == to_seed[s, t, None]).any(axis=0)
    intermediates = reached[on_path]

    kept = np.sort(np.concatenate([sources, intermediates]))  # disjoint sets
    inside = np.zeros(graph.n_nodes, dtype=bool)
    inside[kept] = True
    owner, neighbor = _gather(graph, kept)
    node = kept[owner]
    induced = inside[neighbor] & (node < neighbor)
    edges = zip(graph.ids[node[induced]].tolist(), graph.ids[neighbor[induced]].tolist())
    return QueryGraph.from_parts(
        instance_id=seedset.instance_id,
        seeds=seeds,
        intermediates=frozenset(graph.ids[intermediates].tolist()),
        edges=frozenset(edges),
    )
