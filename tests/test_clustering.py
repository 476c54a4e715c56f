"""Relatedness weights, modularity, and deterministic Louvain clustering.

``tests/loop_louvain.py`` keeps the dict-based Louvain that the matrix form
replaced; on relatedness graphs the two must agree bit for bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from gistrank.clustering import (
    Partition,
    WeightedGraph,
    build_relatedness_graph,
    louvain,
    relatedness_matrix,
)
from gistrank.errors import IntegrityError

from tests import loop_louvain
from tests.conftest import (
    all_pairs_hops,
    query_graph_from_edges,
    random_query_graph,
    seeded_query_graphs,
)


def wgraph(n, weighted_edges):
    """Weighted graph over nodes 0..n-1 from (a, b, weight) edges."""
    matrix = np.zeros((n, n))
    for a, b, w in weighted_edges:
        matrix[a, b] = matrix[b, a] = w
    return WeightedGraph(nodes=tuple(range(n)), matrix=matrix)


def pairs_graph(n, weighted_edges):
    """The same graph in the reference's pairs-dict form."""
    return loop_louvain.WeightedGraph(
        nodes=tuple(range(n)),
        weights={(min(a, b), max(a, b)): w for a, b, w in weighted_edges},
    )


def relatedness(qg, a, b):
    return float(relatedness_matrix(qg.hops)[qg.order.index(a), qg.order.index(b)])


def all_partitions(n):
    """All set partitions of range(n) as assignment dicts (restricted growth)."""
    def grow(prefix, n_used):
        i = len(prefix)
        if i == n:
            yield dict(enumerate(prefix))
            return
        for c in range(n_used + 1):
            yield from grow(prefix + [c], max(n_used, c + 1))

    yield from grow([], 0)


def modularity_oracle(wg, assignment):
    """Independent matrix-form modularity: (1/2m) sum_ij (w_ij - k_i k_j / 2m) delta."""
    w = wg.matrix
    two_m = w.sum()
    if two_m == 0:
        return 0.0
    k = w.sum(axis=1)
    labels = [assignment[n] for n in wg.nodes]
    same = np.equal.outer(labels, labels)
    return float(((w - np.outer(k, k) / two_m) * same).sum() / two_m)


class TestRelatedness:
    def test_identity(self, tiny_kg):
        qg = query_graph_from_edges(3, [(0, 2), (1, 2)])
        assert relatedness(qg, 0, 0) == 1.0

    def test_adjacent(self):
        qg = query_graph_from_edges(2, [(0, 1)])
        assert relatedness(qg, 0, 1) == 0.5

    def test_separate_components(self):
        qg = query_graph_from_edges(4, [(0, 1), (2, 3)])
        assert relatedness(qg, 0, 3) == 0.0

    def test_beyond_horizon_is_zero(self):
        qg = query_graph_from_edges(6, [(i, i + 1) for i in range(5)])
        assert relatedness(qg, 0, 4) == 0.5**4
        assert relatedness(qg, 0, 5) == 0.0

    def test_symmetry_exhaustive(self):
        rng = np.random.default_rng(3)
        qg = random_query_graph(rng, 12, 0.25)
        for a, b in itertools.combinations(qg.order, 2):
            assert relatedness(qg, a, b) == relatedness(qg, b, a)


class TestRelatednessMatrix:
    @settings(max_examples=60, deadline=None)
    @given(seeded_query_graphs())
    def test_matches_definition(self, drawn):
        qg, edges = drawn
        matrix = relatedness_matrix(qg.hops)
        hops = all_pairs_hops(qg.order, edges)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 1.0)
        for i, a in enumerate(qg.order):
            for j, b in enumerate(qg.order):
                d = hops.get((a, b))
                expected = 0.5**d if d is not None and d <= 4 else 0.0
                assert matrix[i, j] == expected
        wg = build_relatedness_graph(qg)
        np.fill_diagonal(matrix, 0.0)
        assert wg.nodes == qg.order
        assert np.array_equal(wg.matrix, matrix)


class TestBuildRelatednessGraph:
    def test_empty(self):
        qg = query_graph_from_edges(0, [])
        wg = build_relatedness_graph(qg)
        assert wg.nodes == () and wg.weights == {}
        assert wg.matrix.shape == (0, 0)

    def test_triangle(self):
        qg = query_graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        wg = build_relatedness_graph(qg)
        assert wg.weights == {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.5}
        assert wg.matrix.tolist() == [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]

    def test_matches_per_pair_calls(self):
        rng = np.random.default_rng(9)
        qg = random_query_graph(rng, 10, 0.3)
        wg = build_relatedness_graph(qg)
        expected = [
            ((a, b), relatedness(qg, a, b))
            for a, b in itertools.combinations(qg.order, 2)
            if relatedness(qg, a, b) > 0.0
        ]
        # Insertion order too: the reference Louvain sums weights in this order.
        assert list(wg.weights.items()) == expected
        assert list(loop_louvain.build_relatedness_graph(qg).weights.items()) == expected


class TestModularity:
    """The reference's pairs-dict modularity, which the equality tests trust."""

    def test_single_edge_one_cluster(self):
        wg = pairs_graph(2, [(0, 1, 1.0)])
        assert loop_louvain.modularity(wg, {0: 0, 1: 0}) == pytest.approx(0.0)

    def test_two_disconnected_edges_two_clusters(self):
        wg = pairs_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert loop_louvain.modularity(wg, {0: 0, 1: 0, 2: 1, 3: 1}) == pytest.approx(0.5)

    def test_singletons_on_single_edge(self):
        wg = pairs_graph(2, [(0, 1, 1.0)])
        assert loop_louvain.modularity(wg, {0: 0, 1: 1}) == pytest.approx(-0.5)

    def test_unassigned_node_is_integrity_error(self):
        wg = pairs_graph(2, [(0, 1, 1.0)])
        with pytest.raises(IntegrityError):
            loop_louvain.modularity(wg, {0: 0})

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            edges = [
                (a, b, float(rng.uniform(0.1, 2.0)))
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.5
            ]
            assignment = {i: int(rng.integers(0, 3)) for i in range(n)}
            assert loop_louvain.modularity(pairs_graph(n, edges), assignment) == pytest.approx(
                modularity_oracle(wgraph(n, edges), assignment), abs=1e-12
            )


def barbell_graph():
    """Two 4-cliques (nodes 0-3 and 4-7) joined by the single edge 3-4."""
    edges = []
    for block in (range(0, 4), range(4, 8)):
        edges.extend((a, b, 1.0) for a, b in itertools.combinations(block, 2))
    edges.append((3, 4, 1.0))
    return wgraph(8, edges)


class TestLouvain:
    def test_single_node(self):
        wg = WeightedGraph(nodes=(7,), matrix=np.zeros((1, 1)))
        part = louvain(wg)
        assert part.assignment == {7: 0}
        assert part.modularity == 0.0

    def test_empty_graph(self):
        part = louvain(WeightedGraph(nodes=(), matrix=np.zeros((0, 0))))
        assert part.assignment == {}
        assert part.modularity == 0.0

    def test_barbell_recovers_cliques(self):
        part = louvain(barbell_graph())
        clusters = {part.assignment[i] for i in range(4)}, {
            part.assignment[i] for i in range(4, 8)
        }
        assert len(clusters[0]) == 1 and len(clusters[1]) == 1
        assert clusters[0] != clusters[1]

    def test_barbell_is_exhaustive_optimum(self):
        wg = barbell_graph()
        part = louvain(wg)
        best = max(modularity_oracle(wg, a) for a in all_partitions(8))
        assert part.modularity == pytest.approx(best, abs=1e-12)

    def test_two_disconnected_edges(self):
        wg = wgraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        part = louvain(wg)
        assert part.modularity == pytest.approx(0.5)
        assert part.assignment[0] == part.assignment[1]
        assert part.assignment[2] == part.assignment[3]
        assert part.assignment[0] != part.assignment[2]

    def test_isolated_nodes_are_singletons(self):
        wg = wgraph(3, [(0, 1, 1.0)])
        part = louvain(wg)
        assert part.assignment[2] not in (part.assignment[0], part.assignment[1])

    def test_cluster_ids_contiguous(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            qg = random_query_graph(rng, int(rng.integers(1, 15)), 0.3)
            part = louvain(build_relatedness_graph(qg))
            ids = set(part.assignment.values())
            assert ids == set(range(len(ids)))

    def test_never_below_singleton_modularity(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            edges = [
                (a, b, float(rng.uniform(0.1, 1.0)))
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.4
            ]
            wg = wgraph(n, edges)
            part = louvain(wg)
            singleton = modularity_oracle(wg, {i: i for i in range(n)})
            assert part.modularity >= singleton - 1e-12

    def test_phase_modularity_non_decreasing(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(2, 16))
            edges = [
                (a, b, float(rng.uniform(0.05, 1.0)))
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.35
            ]
            part = louvain(wgraph(n, edges))
            for earlier, later in zip(part.phase_modularity, part.phase_modularity[1:]):
                assert later >= earlier - 1e-9

    def test_small_graphs_near_exhaustive_optimum(self):
        rng = np.random.default_rng(59)
        for _ in range(8):
            n = int(rng.integers(2, 8))
            edges = [
                (a, b, float(rng.uniform(0.1, 1.0)))
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.5
            ]
            wg = wgraph(n, edges)
            part = louvain(wg)
            best = max(modularity_oracle(wg, a) for a in all_partitions(n))
            assert part.modularity >= best - 0.05


def assert_matches_reference(qg):
    got = louvain(build_relatedness_graph(qg))
    expected = loop_louvain.louvain(loop_louvain.build_relatedness_graph(qg))
    assert got.assignment == expected.assignment
    # Exact float equality: every relatedness weight is a power of two, so
    # degrees and community sums are exact in any order, and the gain and
    # modularity arithmetic keeps the reference's operation order.
    assert got.modularity == expected.modularity
    assert got.phase_modularity == expected.phase_modularity


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(seeded_query_graphs(max_linked=24))
    def test_seeded_query_graphs(self, drawn):
        assert_matches_reference(drawn[0])

    def test_random_query_graphs(self):
        rng = np.random.default_rng(61)
        multi_phase = 0
        for _ in range(200):
            n = int(rng.integers(0, 41))
            qg = random_query_graph(rng, n, float(rng.uniform(0.02, 0.4)))
            assert_matches_reference(qg)
            multi_phase += len(louvain(build_relatedness_graph(qg)).phase_modularity) > 1
        assert multi_phase >= 20  # aggregation levels beyond the first are exercised

    def test_modularity_matches_matrix_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            n = int(rng.integers(2, 16))
            edges = [
                (a, b, float(rng.uniform(0.05, 1.0)))
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.35
            ]
            wg = wgraph(n, edges)
            part = louvain(wg)
            assert part.modularity == pytest.approx(
                modularity_oracle(wg, part.assignment), abs=1e-12
            )


def test_partition_json():
    part = Partition(assignment={3: 0, 5: 1}, modularity=0.25)
    obj = part.to_json_obj()
    assert obj == {"assignment": {"3": 0, "5": 1}, "modularity": 0.25}
