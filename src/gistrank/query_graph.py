"""Query-specific subgraph expansion.

A seed set is expanded by collecting every category node that lies on a
shortest path of at most four edges between two distinct seeds. The
resulting subgraph keeps the seeds, those intermediate categories, and all
category-link edges induced among the retained nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

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


# The cells of one block of a two-dimensional temporary in
# ``build_query_graphs``, one byte or flag each. On the staged benchmark run
# over the 21,182-node padded graph, blocks of 2^18 cells raised peak
# resident memory by about 1.4 MB more than blocks of 2^17.
_BLOCK_CELLS = 1 << 17


def _blocks(count: int, width: int) -> list[slice]:
    """Consecutive slices covering ``range(count)``, each few enough rows
    that the rows times ``width`` hold at most ``_BLOCK_CELLS`` cells (but
    at least one row)."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


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
        """The one-graph case of ``with_hops(QueryGraphRows.from_parts(...))``."""
        return with_hops([QueryGraphRows.from_parts(instance_id, seeds, intermediates, edges)])[0]

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
        """The one-record case of ``with_hops`` over ``QueryGraphRows.from_json_obj``."""
        return with_hops([QueryGraphRows.from_json_obj(obj)])[0]


def _stacked_hops(adjacent: np.ndarray) -> np.ndarray:
    """Hop counts inside each graph of a stack of n×n adjacency matrices,
    -1 where a pair is unreachable.

    One breadth-first search from every node of every graph at once, a
    level at a time: the frontier holds the (graph, source, node) cells
    first reached at the last level, and one matrix product per level
    reaches their neighbours. The product counts walks, at most n per
    cell, so float32 holds it exactly.
    """
    n = adjacent.shape[-1]
    eye = np.eye(n, dtype=bool)
    hops = np.where(eye, 0, -1).astype(np.int64)[None].repeat(len(adjacent), axis=0)
    unseen, step = hops < 0, adjacent.astype(np.float32)
    frontier = np.broadcast_to(eye.astype(np.float32), adjacent.shape)
    for level in range(1, n):
        reached = np.matmul(frontier, step) > 0
        reached &= unseen
        if not reached.any():
            break
        hops[reached] = level
        unseen ^= reached
        frontier = reached.astype(np.float32)
    hops.flags.writeable = False
    return hops


class QueryGraphRows(NamedTuple):
    """A query graph before its hop counts: the ``QueryGraph`` fields but
    ``hops``, and its edges as an (m, 2) array of row pairs, each pair once
    or more and either way round."""

    instance_id: str
    order: tuple[int, ...]
    origins: tuple[SeedOrigin | None, ...]
    edges: np.ndarray

    @classmethod
    def from_parts(
        cls,
        instance_id: str,
        seeds: Mapping[int, SeedOrigin],
        intermediates: frozenset[int],
        edges: Iterable[Sequence[int]],
    ) -> "QueryGraphRows":
        """``IntegrityError`` unless the seeds and intermediates are disjoint
        and every edge joins two distinct nodes of them."""
        both = intermediates.intersection(seeds)
        if both:
            raise IntegrityError(
                f"instance {instance_id!r}: node {min(both)} is both a seed and an intermediate"
            )
        order = tuple(sorted(frozenset(seeds) | intermediates))
        index = {n: i for i, n in enumerate(order)}
        pairs = []
        for a, b in edges:
            if a == b:
                raise IntegrityError(f"instance {instance_id!r}: self-loop edge ({a}, {b})")
            if a not in index or b not in index:
                raise IntegrityError(
                    f"instance {instance_id!r}: edge ({a}, {b}) has an endpoint "
                    "that is neither a seed nor an intermediate"
                )
            pairs.append((index[a], index[b]))
        rows = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        return cls(instance_id, order, tuple(map(seeds.get, order)), rows)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QueryGraphRows":
        intermediates, edges = obj["intermediates"], obj["edges"]
        # Checked by type, as int() reads 2.5 as 2 and true as 1.
        if not all(type(v) is int for v in (*intermediates, *(v for edge in edges for v in edge))):
            raise ValueError("a node id is not an integer")
        return cls.from_parts(
            instance_id=obj["instance_id"],
            seeds=seeds_from_json(obj["seeds"]),
            intermediates=frozenset(intermediates),
            edges=edges,
        )


def with_hops(rows: Sequence[QueryGraphRows]) -> list[QueryGraph]:
    """The query graphs of ``rows``, in order, their ``hops`` filled by one
    breadth-first search per group of graphs with one node count.

    Each graph's ``hops`` is a read-only view into its group's stack, and
    does not depend on the other graphs of the batch.
    """
    sizes = np.array([len(r.order) for r in rows], dtype=np.intp)
    hops: list[np.ndarray] = [np.empty(0)] * len(rows)
    for n in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == n).tolist()
        edges = np.concatenate([np.empty((0, 2), dtype=np.intp), *(rows[i].edges for i in members)])
        graph_of = np.repeat(np.arange(len(members)), [len(rows[i].edges) for i in members])
        adjacent = np.zeros((len(members), n, n), dtype=bool)
        adjacent[graph_of, edges[:, 0], edges[:, 1]] = True
        adjacent[graph_of, edges[:, 1], edges[:, 0]] = True
        for i, stacked in zip(members, _stacked_hops(adjacent)):
            hops[i] = stacked
    return [QueryGraph(r.instance_id, r.order, r.origins, h) for r, h in zip(rows, hops)]


def build_query_graphs(graph: KnowledgeGraph, seedsets: Sequence[SeedSet]) -> list[QueryGraph]:
    """Expand each seed set into its query-specific subgraph, in one batch.

    For every unordered seed pair of an instance within distance 4 of each
    other, all category nodes on *any* shortest path between them become
    intermediates: one integer test, d(s,v) + d(v,t) == d(s,t), over the BFS
    distances (beyond 4 read as 5) of each distinct seed of the batch,
    computed once. Seeds never re-enter their instance's intermediate set,
    and article nodes are never collected. An empty seed set yields an empty
    subgraph.

    A graph does not depend on the other seed sets of the batch. The first
    seed set, in batch order, with a seed that is not in the graph raises
    the error it would raise alone, naming its first such seed.
    """
    seed_ids = [v for ss in seedsets for v in ss.seeds]
    at, found = _search(graph.ids, seed_ids)
    counts = np.array([len(ss.seeds) for ss in seedsets], dtype=np.intp)
    ends = np.cumsum(counts)
    if not all(found):
        missing = found.index(False)
        owner = seedsets[int(np.searchsorted(ends, missing, side="right"))]
        raise IntegrityError(f"instance {owner.instance_id!r}: seed {seed_ids[missing]} is not in the graph")
    n = graph.n_nodes
    # Seed cells (instance, position) as keys instance * n + position, by
    # instance and then position: the ids ascend with their positions.
    seed_keys = np.sort(np.repeat(np.arange(len(seedsets)), counts) * n + at)
    instance, at = np.divmod(seed_keys, n)
    is_seed = np.zeros(n, dtype=bool)
    is_seed[at] = True
    distinct = np.flatnonzero(is_seed)
    row = np.searchsorted(distinct, at)  # each seed cell's index into ``distinct``
    # The categories within 2 of some seed: every node inside a path of at
    # most 4 edges is within 2 of its nearer end.
    near = is_seed.copy()
    for _ in range(MAX_PATH_LENGTH // 2):
        near[_gather(graph, np.flatnonzero(near))[1]] = True
    columns = np.flatnonzero(near & graph.is_category)
    # Each distinct seed's hops (beyond 4 read as 5) to the distinct seeds and
    # to those categories, from one BFS per block of distinct seeds.
    to_seed = np.empty((len(distinct), len(distinct)), dtype=np.uint8)
    to_column = np.empty((len(distinct), len(columns)), dtype=np.uint8)
    for block in _blocks(len(distinct), n):
        dist = _hop_counts(graph, distinct[block], MAX_PATH_LENGTH)
        to_seed[block], to_column[block] = dist[:, distinct], dist[:, columns]

    # Every seed pair (s, t) of an instance, s before t, at most 4 apart.
    later = np.repeat(ends, counts) - np.arange(len(at)) - 1
    s = np.repeat(np.arange(len(at)), later)
    t = s + 1 + np.arange(len(s)) - np.repeat(np.cumsum(later) - later, later)
    close = to_seed[row[s], row[t]] <= MAX_PATH_LENGTH
    s, t = s[close], t[close]
    on_path = np.zeros((len(seedsets), len(columns)), dtype=bool)
    for block in _blocks(len(s), len(columns)):
        a, b = row[s[block]], row[t[block]]
        pair, column = np.nonzero(to_column[a] + to_column[b] == to_seed[a, b, None])
        on_path[instance[s[block][pair]], column] = True
    on_instance, on_column = np.nonzero(on_path)

    # Kept cells, by instance and then position, each once (a seed may lie on
    # a path between two others), and their induced edges.
    keys = np.sort(np.concatenate([seed_keys, on_instance * n + columns[on_column]]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    cell_instance, position = np.divmod(keys, n)
    owner, neighbor = _gather(graph, position)
    wanted = keys[owner] - position[owner] + neighbor
    found_at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    induced = (keys[found_at] == wanted) & (position[owner] < neighbor)
    sizes = np.bincount(cell_instance, minlength=len(seedsets))
    a, b = owner[induced], found_at[induced]
    edges = np.stack([a, b], axis=1) - (np.cumsum(sizes) - sizes)[cell_instance[a], None]
    edge_ends = np.cumsum(np.bincount(cell_instance[a], minlength=len(seedsets))).tolist()
    ids, node_ends = graph.ids[position].tolist(), np.cumsum(sizes).tolist()
    rows = []
    for ss, lo, hi, edge_lo, edge_hi in zip(seedsets, [0, *node_ends], node_ends, [0, *edge_ends], edge_ends):
        order = tuple(ids[lo:hi])
        origins = tuple(map(ss.seeds.get, order))
        rows.append(QueryGraphRows(ss.instance_id, order, origins, edges[edge_lo:edge_hi]))
    return with_hops(rows)


def build_query_graph(graph: KnowledgeGraph, seedset: SeedSet) -> QueryGraph:
    """Expand one seed set into its query-specific subgraph: the one-instance
    case of :func:`build_query_graphs`."""
    return build_query_graphs(graph, [seedset])[0]
