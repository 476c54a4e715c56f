"""Reference Louvain: the dict-based clustering that the matrix form replaced.

It keeps relatedness weights in a pairs dict, builds dict-of-dict neighbour
maps, a loops dict and a members dict, aggregates them with ``_aggregate``
and recomputes modularity from the pairs after every phase.
``tests/test_clustering.py`` holds ``gistrank.clustering.louvain`` to it, bit
for bit, on relatedness graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from gistrank.clustering import MIN_GAIN, Partition, relatedness_matrix
from gistrank.errors import IntegrityError
from gistrank.query_graph import QueryGraph


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph with weights keyed by sorted node pairs.

    Zero-weight pairs are omitted; there are no self-pairs, so symmetry
    holds by construction.
    """

    nodes: tuple[int, ...]
    weights: Mapping[tuple[int, int], float]

    @property
    def total_weight(self) -> float:
        return sum(self.weights.values())


def build_relatedness_graph(qg: QueryGraph) -> WeightedGraph:
    """Weighted graph over all query-graph nodes with relatedness weights.

    Pairs are listed in row-major order of the upper triangle, which is the
    order of ``itertools.combinations(qg.order, 2)``.
    """
    matrix = relatedness_matrix(qg.hops)
    rows, cols = np.nonzero(np.triu(matrix, k=1))
    order = qg.order
    weights = {
        (order[i], order[j]): w
        for i, j, w in zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist())
    }
    return WeightedGraph(nodes=order, weights=weights)


def modularity(wg: WeightedGraph, assignment: Mapping[int, int]) -> float:
    """Weighted modularity of a partition.

    Q = (1/2m) * sum_ij [w_ij - k_i*k_j/(2m)] * delta(c_i, c_j), summed over
    ordered pairs. An empty or edgeless graph has modularity 0.
    """
    for node in wg.nodes:
        if node not in assignment:
            raise IntegrityError(f"node {node} is missing from the assignment")
    m = wg.total_weight
    if m <= 0.0:
        return 0.0
    degree = {node: 0.0 for node in wg.nodes}
    internal = {}
    for (a, b), w in wg.weights.items():
        degree[a] += w
        degree[b] += w
        if assignment[a] == assignment[b]:
            internal[assignment[a]] = internal.get(assignment[a], 0.0) + w
    cluster_degree: dict[int, float] = {}
    for node in wg.nodes:
        c = assignment[node]
        cluster_degree[c] = cluster_degree.get(c, 0.0) + degree[node]
    q = 0.0
    for cluster, k_c in cluster_degree.items():
        q += internal.get(cluster, 0.0) / m - (k_c / (2.0 * m)) ** 2
    return q


def _local_moving(
    order: list[int],
    neighbors: dict[int, dict[int, float]],
    loops: dict[int, float],
    two_m: float,
) -> tuple[dict[int, int], bool]:
    """One Louvain phase: greedy node moves until a full sweep changes nothing.

    ``loops[i]`` holds self-loop mass already counted twice (adjacency-matrix
    convention), so degrees and gains stay consistent across aggregation
    levels. Returns the node-to-community map and whether any move happened.
    """
    degree = {
        node: loops[node] + sum(neighbors[node].values()) for node in order
    }
    community = {node: node for node in order}
    sigma_tot = {node: degree[node] for node in order}
    m = two_m / 2.0
    moved_any = False

    improved = True
    while improved:
        improved = False
        for node in order:
            home = community[node]
            k_i = degree[node]
            sigma_tot[home] -= k_i
            community[node] = -1  # temporarily removed

            # Weight from node into each neighboring community.
            k_in: dict[int, float] = {home: 0.0}
            for neighbor, w in neighbors[node].items():
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


def _aggregate(
    community: dict[int, int],
    neighbors: dict[int, dict[int, float]],
    loops: dict[int, float],
    members: dict[int, list[int]],
) -> tuple[dict[int, dict[int, float]], dict[int, float], dict[int, list[int]]]:
    """Collapse communities into super-nodes, folding intra weight into loops."""
    # Relabel communities by their smallest original member for determinism.
    old_labels = sorted(set(community.values()), key=lambda c: min(
        min(members[n]) for n in community if community[n] == c
    ))
    relabel = {old: new for new, old in enumerate(old_labels)}

    new_members: dict[int, list[int]] = {relabel[c]: [] for c in old_labels}
    for node in community:
        new_members[relabel[community[node]]].extend(members[node])

    new_neighbors: dict[int, dict[int, float]] = {c: {} for c in new_members}
    new_loops: dict[int, float] = {c: 0.0 for c in new_members}
    for node, nbrs in neighbors.items():
        c_a = relabel[community[node]]
        new_loops[c_a] += loops[node]
        for neighbor, w in nbrs.items():
            c_b = relabel[community[neighbor]]
            if c_a == c_b:
                new_loops[c_a] += w  # both directions visited: counts twice
            else:
                new_neighbors[c_a][c_b] = new_neighbors[c_a].get(c_b, 0.0) + w
    return new_neighbors, new_loops, new_members


def louvain(wg: WeightedGraph) -> Partition:
    """Two-phase Louvain clustering maximizing weighted modularity.

    Node visit order is ascending id and ties never move, so the result is
    fully determined by the graph. Isolated nodes end up as singleton
    clusters; the empty graph yields an empty partition.
    """
    if not wg.nodes:
        return Partition(assignment={}, modularity=0.0, phase_modularity=())

    neighbors: dict[int, dict[int, float]] = {node: {} for node in wg.nodes}
    for (a, b), w in wg.weights.items():
        if w <= 0.0:
            continue
        neighbors[a][b] = neighbors[a].get(b, 0.0) + w
        neighbors[b][a] = neighbors[b].get(a, 0.0) + w
    loops = {node: 0.0 for node in wg.nodes}
    members = {node: [node] for node in wg.nodes}
    two_m = sum(sum(ns.values()) for ns in neighbors.values())

    assignment = {node: node for node in wg.nodes}
    phase_q: list[float] = []
    if two_m > 0.0:
        while True:
            order = sorted(neighbors)
            community, moved = _local_moving(order, neighbors, loops, two_m)
            if not moved:
                break
            for super_node, original in members.items():
                for node in original:
                    assignment[node] = community[super_node]
            phase_q.append(modularity(wg, assignment))
            neighbors, loops, members = _aggregate(community, neighbors, loops, members)

    # Contiguous cluster ids 0..k-1, ordered by smallest member node id.
    clusters = sorted(set(assignment.values()), key=lambda c: min(
        n for n in assignment if assignment[n] == c
    ))
    relabel = {c: i for i, c in enumerate(clusters)}
    final = {node: relabel[c] for node, c in assignment.items()}
    return Partition(
        assignment=final,
        modularity=modularity(wg, final),
        phase_modularity=tuple(phase_q),
    )
