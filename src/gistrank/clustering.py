"""Path-based relatedness between query-graph concepts plus Louvain clustering.

Relatedness decays geometrically with hop distance inside the query graph
and vanishes beyond the same four-hop horizon used for graph expansion.
Louvain here is fully deterministic: nodes are visited in ascending id
order and a move is accepted only on a strict modularity gain, so repeated
runs on the same graph always produce the same partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .query_graph import MAX_PATH_LENGTH, QueryGraph

RELATEDNESS_DECAY = 0.5

# Gains this small are treated as zero so float noise cannot cause moves.
MIN_GAIN = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph held as one dense weight matrix.

    ``nodes`` ascend; ``matrix`` is symmetric with a zero diagonal, its rows
    and columns following ``nodes``. A zero entry means no edge.
    """

    nodes: tuple[int, ...]
    matrix: np.ndarray

    @property
    def weights(self) -> dict[tuple[int, int], float]:
        """The nonzero upper-triangle pairs, keyed by node ids, in row-major order.

        Derived from ``matrix`` afresh on each call.
        """
        rows, cols = np.nonzero(np.triu(self.matrix, k=1))
        nodes = self.nodes
        return {
            (nodes[i], nodes[j]): w
            for i, j, w in zip(rows.tolist(), cols.tolist(), self.matrix[rows, cols].tolist())
        }


@dataclass(frozen=True)
class Partition:
    """Cluster assignment with its modularity.

    ``phase_modularity`` records modularity after each Louvain phase,
    projected onto the original nodes; it is non-decreasing.
    """

    assignment: Mapping[int, int]
    modularity: float
    phase_modularity: tuple[float, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "assignment": {str(n): c for n, c in sorted(self.assignment.items())},
            "modularity": self.modularity,
        }


def relatedness_matrix(hops: np.ndarray) -> np.ndarray:
    """Semantic relatedness, in [0, 1], of the node pairs of a query graph's
    ``hops`` matrix (or of each matrix of a stack of them): decay^d for hop
    distance d, so 1 for a node and itself, and 0 beyond the horizon or for
    unreachable pairs. Every nonzero entry is a power of two, so sums over it
    are exact in any order.
    """
    within = (hops >= 0) & (hops <= MAX_PATH_LENGTH)
    return np.where(within, RELATEDNESS_DECAY**hops, 0.0)


def build_relatedness_graph(qg: QueryGraph) -> WeightedGraph:
    """Weighted graph over all query-graph nodes: the relatedness matrix with
    its diagonal zeroed."""
    matrix = relatedness_matrix(qg.hops)
    np.fill_diagonal(matrix, 0.0)
    return WeightedGraph(nodes=qg.order, matrix=matrix)


def _modularity(level: np.ndarray, m: float) -> float:
    """Weighted modularity of the partition whose clusters are the nodes of
    ``level``, the weight matrix aggregated by cluster.

    A cluster's internal weight is half its diagonal entry (self-loop mass is
    counted twice) and its degree is its row sum. The per-cluster terms are
    added one by one in cluster order, so the rounding follows that order.
    """
    q = 0.0
    for internal, k_c in zip((np.diag(level) / 2.0).tolist(), level.sum(axis=1).tolist()):
        q += internal / m - (k_c / (2.0 * m)) ** 2
    return q


def _local_moving(level: np.ndarray, m: float) -> tuple[list[int], bool]:
    """One Louvain phase: greedy node moves until a full sweep changes nothing.

    Nodes are the rows of ``level``, whose diagonal holds self-loop mass
    counted twice (adjacency-matrix convention), so degrees and gains stay
    consistent across aggregation levels. Returns each node's community (a
    node index) and whether any move happened.
    """
    rows = level.tolist()
    neighbors = [
        [(j, w) for j, w in enumerate(row) if w > 0.0 and j != i] for i, row in enumerate(rows)
    ]
    degree = [sum(row) for row in rows]
    community = list(range(len(rows)))
    sigma_tot = degree[:]
    moved_any = False

    improved = True
    while improved:
        improved = False
        for node, k_i in enumerate(degree):
            home = community[node]
            sigma_tot[home] -= k_i
            community[node] = -1  # temporarily removed

            # Weight from node into each neighboring community.
            k_in: dict[int, float] = {home: 0.0}
            for neighbor, w in neighbors[node]:
                c = community[neighbor]
                if c != -1:
                    k_in[c] = k_in.get(c, 0.0) + w

            base = k_in.get(home, 0.0) / m - sigma_tot[home] * k_i / (2.0 * m * m)
            best_c, best_gain = home, 0.0
            for c in sorted(k_in):
                if c == home:
                    continue
                gain = (k_in[c] / m - sigma_tot[c] * k_i / (2.0 * m * m)) - base
                if gain > best_gain + MIN_GAIN:
                    best_c, best_gain = c, gain

            community[node] = best_c
            sigma_tot[best_c] += k_i
            if best_c != home:
                improved = True
                moved_any = True
    return community, moved_any


def louvain(wg: WeightedGraph) -> Partition:
    """Two-phase Louvain clustering maximizing weighted modularity.

    Node visit order is ascending id and ties never move, so the result is
    fully determined by the graph. After each phase the communities become
    the nodes of the next level: one ``bincount`` sums the level matrix into
    their cells, and each is numbered by its smallest member, so index order
    stays node-id order. Isolated nodes end up as singleton clusters; the
    empty graph yields an empty partition.
    """
    if not wg.nodes:
        return Partition(assignment={}, modularity=0.0, phase_modularity=())

    level = wg.matrix
    m = float(level.sum()) / 2.0
    labels = np.arange(len(wg.nodes))  # each node's index at the current level
    phase_q: list[float] = []
    if m > 0.0:
        while True:
            community, moved = _local_moving(level, m)
            if not moved:
                break
            # Communities in order of first member, which is smallest member.
            relabel = {c: i for i, c in enumerate(dict.fromkeys(community))}
            new = np.array([relabel[c] for c in community])
            k = len(relabel)
            cells = (new[:, None] * k + new[None, :]).ravel()
            level = np.bincount(cells, weights=level.ravel(), minlength=k * k).reshape(k, k)
            labels = new[labels]
            phase_q.append(_modularity(level, m))

    return Partition(
        assignment=dict(zip(wg.nodes, labels.tolist())),
        modularity=_modularity(level, m) if m > 0.0 else 0.0,
        phase_modularity=tuple(phase_q),
    )
