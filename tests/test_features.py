"""Feature extraction: centrality oracles, the worked examples, normalization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gistrank.clustering import Partition, build_relatedness_graph, louvain
from gistrank.errors import IntegrityError
from gistrank.features import (
    BOOLEAN_FEATURES,
    FEATURE_NAMES,
    FeatureVector,
    betweenness,
    build_idf_table,
    extract_features,
    extract_instance_features,
    normalize_per_query,
    pagerank,
    pagerank_batch,
    read_feature_rows,
    tokenize,
    write_feature_rows,
)
from gistrank.kg import NodeKind
from gistrank.linking import Instance, SeedOrigin, SeedSet
from gistrank.query_graph import build_query_graph

from tests.conftest import (
    all_pairs_hops,
    kg_from_parts,
    query_graph_from_edges,
    random_query_graph,
    seeded_query_graphs,
)


def naive_betweenness(qg):
    """Oracle: enumerate every shortest path explicitly and count pass-throughs."""
    nodes = sorted(qg.nodes)
    scores = {v: 0.0 for v in nodes}

    def shortest_paths(s, t):
        d_target = qg.distance(s, t)
        if d_target is None or s == t:
            return []
        paths = []
        stack = [(s, [s])]
        while stack:
            node, path = stack.pop()
            if node == t:
                paths.append(path)
                continue
            for nb in qg.adjacency.get(node, ()):
                # extend only along shortest-path structure
                if (
                    qg.distance(s, nb) == len(path)
                    and (qg.distance(nb, t) or 0) == d_target - len(path)
                    and qg.distance(nb, t) is not None
                ):
                    stack.append((nb, path + [nb]))
        return paths

    for s, t in itertools.combinations(nodes, 2):
        paths = shortest_paths(s, t)
        if not paths:
            continue
        for v in nodes:
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            scores[v] += through / len(paths)

    n = len(nodes)
    if n < 3:
        return {v: 0.0 for v in nodes}
    return {v: scores[v] / ((n - 1) * (n - 2) / 2) for v in nodes}


def dense_pagerank(qg, damping=0.85):
    """Oracle: solve the stationary linear system directly."""
    nodes = sorted(qg.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    transition = np.zeros((n, n))
    for v in nodes:
        neighbors = qg.adjacency.get(v, ())
        if neighbors:
            for w in neighbors:
                transition[index[w], index[v]] = 1.0 / len(neighbors)
        else:
            transition[:, index[v]] = 1.0 / n
    solution = np.linalg.solve(
        np.eye(n) - damping * transition, np.full(n, (1.0 - damping) / n)
    )
    return {v: float(solution[index[v]]) for v in nodes}


def loop_pagerank(qg, damping=0.85, tol=1e-9):
    """Reference: the per-node power iteration the batched PageRank replaced."""
    nodes = sorted(qg.nodes)
    n = len(nodes)
    if n == 0:
        return {}
    index = {v: i for i, v in enumerate(nodes)}
    neighbors = [np.array([index[w] for w in qg.adjacency.get(v, ())], dtype=np.intp) for v in nodes]
    degree = np.array([len(nb) for nb in neighbors], dtype=np.float64)
    dangling = degree == 0

    scores = np.full(n, 1.0 / n)
    for _ in range(10_000):
        share = np.where(dangling, 0.0, scores / np.maximum(degree, 1.0))
        incoming = np.zeros(n)
        for i, nb in enumerate(neighbors):
            if nb.size:
                incoming[i] = share[nb].sum()
        dangling_mass = scores[dangling].sum()
        updated = (1.0 - damping) / n + damping * (incoming + dangling_mass / n)
        if np.max(np.abs(updated - scores)) < tol:
            scores = updated
            break
        scores = updated
    return {v: float(scores[index[v]]) for v in nodes}


def loop_graph_features(qg, partition, node_id):
    """Reference: the per-candidate loops that the matrix-row graph features replaced."""
    hops = all_pairs_hops(qg)

    def rel(a, b):
        d = hops.get((a, b))
        return 0.5**d if d is not None and d <= 4 else 0.0

    n = qg.n_nodes
    finite = [hops[(node_id, o)] for o in qg.nodes if o != node_id and (node_id, o) in hops]
    if finite and n > 1:
        r = len(finite)
        closeness = (r / (n - 1)) * (r / sum(finite))
    else:
        closeness = 0.0
    seed_ids = sorted(qg.seeds)
    near = sum(1 for s in seed_ids if s != node_id and hops.get((node_id, s), 3) <= 2)
    cluster = partition.assignment[node_id]
    peers = [m for m, c in partition.assignment.items() if c == cluster and m != node_id]
    others = [s for s in seed_ids if s != node_id]
    return {
        "closeness": closeness,
        "seeds_within_2hops": near / len(seed_ids) if seed_ids else 0.0,
        "mean_intra_cluster_relatedness": (
            sum(rel(node_id, m) for m in peers) / len(peers) if peers else 0.0
        ),
        "mean_seed_relatedness": (
            sum(rel(node_id, s) for s in others) / len(others) if others else 0.0
        ),
    }


@st.composite
def pagerank_graphs(draw, hub_leaves=st.just(0), isolated=st.integers(0, 2)):
    """Random graph with a hub of ``hub_leaves`` leaves and ``isolated`` isolated nodes.

    Nodes are ``[0, core)`` random, then the hub and its leaves, then the
    isolated nodes. Random edges may join any two non-isolated nodes.
    """
    core, leaves, n_isolated = draw(st.integers(0, 10)), draw(hub_leaves), draw(isolated)
    hub = core
    connected = core + (leaves + 1 if leaves else 0)
    edges = {(hub, hub + 1 + i) for i in range(leaves)}
    pairs = list(itertools.combinations(range(connected), 2))
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=40)))
    return query_graph_from_edges(connected + n_isolated, sorted(edges))


@st.composite
def pagerank_batches(draw):
    """A shuffled batch mixing every shape whose segment sums take a distinct path.

    Degree >= 8 and >= 8 dangling nodes hit numpy's pairwise summation.
    """
    batch = [
        query_graph_from_edges(0, []),
        query_graph_from_edges(1, []),
        draw(pagerank_graphs(isolated=st.integers(1, 3))),
        draw(pagerank_graphs(hub_leaves=st.integers(8, 20))),
        draw(pagerank_graphs(isolated=st.integers(8, 20))),
        *draw(st.lists(pagerank_graphs(), max_size=6)),
    ]
    return draw(st.permutations(batch))


class TestBetweenness:
    def test_path_graph(self):
        qg = query_graph_from_edges(3, [(0, 1), (1, 2)])
        assert betweenness(qg) == {0: 0.0, 1: 1.0, 2: 0.0}

    def test_triangle_all_zero(self):
        qg = query_graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert betweenness(qg) == {0: 0.0, 1: 0.0, 2: 0.0}

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(12):
            qg = random_query_graph(rng, int(rng.integers(2, 30)), 0.15)
            got = betweenness(qg)
            expected = naive_betweenness(qg)
            for node in got:
                assert got[node] == pytest.approx(expected[node], abs=1e-9)


class TestPagerank:
    def test_single_node(self):
        qg = query_graph_from_edges(1, [])
        assert pagerank(qg) == {0: pytest.approx(1.0)}

    def test_symmetric_pair(self):
        qg = query_graph_from_edges(2, [(0, 1)])
        scores = pagerank(qg)
        assert scores[0] == pytest.approx(0.5, abs=1e-9)
        assert scores[1] == pytest.approx(0.5, abs=1e-9)

    def test_empty_graph(self):
        assert pagerank(query_graph_from_edges(0, [])) == {}

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            qg = random_query_graph(rng, int(rng.integers(1, 25)), 0.2)
            assert sum(pagerank(qg).values()) == pytest.approx(1.0, abs=1e-6)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            qg = random_query_graph(rng, int(rng.integers(2, 20)), 0.25)
            got = pagerank(qg)
            expected = dense_pagerank(qg)
            for node in got:
                assert got[node] == pytest.approx(expected[node], abs=1e-6)

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            pagerank(query_graph_from_edges(1, []), damping=1.0)
        with pytest.raises(ValueError):
            pagerank_batch([], damping=0.0)


class TestPagerankBatch:
    @settings(max_examples=30, deadline=None)
    @given(pagerank_batches())
    def test_matches_loop_reference_bit_for_bit(self, batch):
        assert pagerank_batch(batch) == [loop_pagerank(qg) for qg in batch]

    @settings(max_examples=30, deadline=None)
    @given(pagerank_batches())
    def test_scores_do_not_depend_on_the_batch(self, batch):
        alone = [pagerank(qg) for qg in batch]
        assert pagerank_batch(batch) == alone
        assert pagerank_batch(batch[::-1]) == alone[::-1]
        assert pagerank_batch(batch[1::2]) == alone[1::2]

    def test_empty_batch(self):
        assert pagerank_batch([]) == []


@pytest.fixture
def extraction_setup(tiny_kg):
    seedset = SeedSet(
        "q1",
        {
            0: SeedOrigin(from_tags=True),  # volvo
            1: SeedOrigin(from_image=True),  # car
        },
    )
    qg = build_query_graph(tiny_kg, seedset)
    partition = louvain(build_relatedness_graph(qg))
    instance = Instance(
        instance_id="q1", tags=("volvo",), image_labels=("car",), topics=frozenset({"t"})
    )
    idf = build_idf_table(tiny_kg)
    return tiny_kg, qg, partition, instance, idf


class TestExtractFeatures:
    def test_intermediate_category_booleans(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        vec = extract_features(qg, partition, instance, 2, kg, idf)
        assert vec["is_intermediate"] == 1.0
        assert vec["origin_tag"] == 0.0
        assert vec["origin_image"] == 0.0
        assert vec["origin_both"] == 0.0
        assert vec["is_category"] == 1.0

    def test_isolated_single_seed(self, tiny_kg):
        seedset = SeedSet("q2", {0: SeedOrigin(from_tags=True)})
        qg = build_query_graph(tiny_kg, seedset)
        partition = louvain(build_relatedness_graph(qg))
        instance = Instance(instance_id="q2", tags=("volvo",))
        vec = extract_features(qg, partition, instance, 0, tiny_kg)
        assert vec["degree_centrality"] == 0.0
        assert vec["betweenness"] == 0.0
        assert vec["closeness"] == 0.0
        assert vec["seeds_within_2hops"] == 0.0
        assert vec["origin_tag"] == 1.0

    def test_title_token_jaccard(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        # title "car" vs mention tokens {volvo, car} -> 1/2
        vec = extract_features(qg, partition, instance, 1, kg, idf)
        assert vec["title_token_jaccard"] == pytest.approx(0.5)

    def test_origin_both(self, tiny_kg):
        seedset = SeedSet("q3", {1: SeedOrigin(from_tags=True, from_image=True)})
        qg = build_query_graph(tiny_kg, seedset)
        partition = louvain(build_relatedness_graph(qg))
        instance = Instance(instance_id="q3", tags=("car",), image_labels=("car",))
        vec = extract_features(qg, partition, instance, 1, tiny_kg)
        assert (vec["origin_tag"], vec["origin_image"], vec["origin_both"]) == (1.0, 1.0, 1.0)

    def test_abstract_cosine_positive_on_overlap(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        instance = Instance(instance_id="q1", tags=("motor", "vehicle"), image_labels=())
        vec = extract_features(qg, partition, instance, 1, kg, idf)
        assert 0.0 < vec["abstract_tfidf_cosine"] <= 1.0

    def test_log_abstract_length(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        vec = extract_features(qg, partition, instance, 1, kg, idf)
        n_tokens = len(tokenize(kg.node(1).abstract_text))
        assert vec["log_abstract_length"] == pytest.approx(math.log(1 + n_tokens))

    def test_node_outside_graph_rejected(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        with pytest.raises(IntegrityError):
            extract_features(qg, partition, instance, 99, kg, idf)

    def test_unassigned_node_rejected(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        with pytest.raises(IntegrityError):
            extract_features(qg, Partition(assignment={}, modularity=0.0), instance, 0, kg, idf)

    @settings(max_examples=60, deadline=None)
    @given(seeded_query_graphs(), st.data())
    def test_graph_features_match_loop_reference(self, qg, data):
        labels = data.draw(st.lists(st.integers(0, 3), min_size=qg.n_nodes, max_size=qg.n_nodes))
        partition = Partition(assignment=dict(zip(qg.order, labels)), modularity=0.0)
        kg = kg_from_parts([(v, NodeKind.CATEGORY, f"node {v}") for v in qg.order], [])
        instance = Instance(instance_id="q", tags=("node",))
        vectors = extract_instance_features(qg, partition, instance, kg, build_idf_table(kg))
        assert list(vectors) == list(qg.order)
        for node_id, vec in vectors.items():
            expected = loop_graph_features(qg, partition, node_id)
            assert {name: vec[name] for name in expected} == expected

    def test_invariants_on_random_fixtures(self):
        rng = np.random.default_rng(73)
        bounded = (
            "degree_centrality",
            "betweenness",
            "closeness",
            "pagerank",
            "seeds_within_2hops",
            "cluster_size_ratio",
            "mean_intra_cluster_relatedness",
            "mean_seed_relatedness",
            "title_token_jaccard",
            "abstract_tfidf_cosine",
        )
        from tests.conftest import random_kg

        for _ in range(10):
            kg = random_kg(rng, 25, 0.12)
            seeds = {
                int(s): SeedOrigin(from_tags=bool(rng.integers(2)), from_image=True)
                for s in rng.choice(sorted(kg.nodes), size=4, replace=False)
            }
            qg = build_query_graph(kg, SeedSet("r", seeds))
            partition = louvain(build_relatedness_graph(qg))
            instance = Instance(instance_id="r", tags=("node 1", "node 2"))
            idf = build_idf_table(kg)
            vectors = extract_instance_features(qg, partition, instance, kg, idf)
            for vec in vectors.values():
                for name in bounded:
                    assert 0.0 <= vec[name] <= 1.0 + 1e-12, name
                for name in BOOLEAN_FEATURES:
                    assert vec[name] in (0.0, 1.0)
                assert all(math.isfinite(v) for v in vec.values)


class TestNormalizePerQuery:
    def vec(self, fill, **named):
        values = [fill] * len(FEATURE_NAMES)
        for name, value in named.items():
            values[FEATURE_NAMES.index(name)] = value
        return FeatureVector(values=tuple(values))

    def test_single_vector_zeroes_non_booleans(self):
        vec = self.vec(0.7, is_category=1.0, origin_tag=1.0)
        (out,) = normalize_per_query([vec])
        for name in FEATURE_NAMES:
            if name in BOOLEAN_FEATURES:
                assert out[name] == vec[name]
            else:
                assert out[name] == 0.0

    def test_affine_scaling(self):
        vectors = [self.vec(v) for v in (2.0, 4.0, 6.0)]
        out = normalize_per_query(vectors)
        scaled = [o["degree_centrality"] for o in out]
        assert scaled == [0.0, 0.5, 1.0]

    def test_booleans_pass_through(self):
        vectors = [self.vec(0.2, origin_tag=1.0), self.vec(0.4, origin_tag=1.0)]
        out = normalize_per_query(vectors)
        assert [o["origin_tag"] for o in out] == [1.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_per_query([])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=len(FEATURE_NAMES),
                max_size=len(FEATURE_NAMES),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_idempotent(self, raw):
        vectors = [FeatureVector(values=tuple(row)) for row in raw]
        once = normalize_per_query(vectors)
        twice = normalize_per_query(once)
        for a, b in zip(once, twice):
            assert a.values == pytest.approx(b.values, abs=1e-12)


class TestFeatureIO:
    def test_round_trip(self, tmp_path):
        rows = [
            ("i1", 3, FeatureVector(values=tuple(float(x) / 7 for x in range(16))), 5),
            ("i1", 4, FeatureVector(values=(0.0,) * 16), None),
        ]
        path = tmp_path / "features.tsv"
        write_feature_rows(path, rows)
        assert read_feature_rows(path) == rows

    def test_header_mismatch_fails(self, tmp_path):
        path = tmp_path / "features.tsv"
        path.write_text("instance_id\tnode_id\twrong\tgrade\n", encoding="utf-8")
        with pytest.raises(IntegrityError, match="header mismatch"):
            read_feature_rows(path)


def test_feature_names_frozen():
    assert len(FEATURE_NAMES) == 16
    assert FEATURE_NAMES[0] == "degree_centrality"
    assert FEATURE_NAMES[-1] == "is_category"


def test_vector_length_enforced():
    with pytest.raises(IntegrityError):
        FeatureVector(values=(1.0, 2.0))


def test_vector_rejects_nan():
    values = [0.0] * 15 + [float("nan")]
    with pytest.raises(IntegrityError):
        FeatureVector(values=tuple(values))
