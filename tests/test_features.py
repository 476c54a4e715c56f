"""Feature extraction: centrality oracles, the worked examples, normalization."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gistrank.features as features_module
from gistrank.clustering import Partition, build_relatedness_graph, louvain, relatedness_matrix
from gistrank.errors import GistRankError, IntegrityError, NotFoundError, ParseError
from gistrank.features import (
    BOOLEAN_FEATURES,
    FEATURE_NAMES,
    IdfTable,
    betweenness,
    build_idf_table,
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
from gistrank.query_graph import QueryGraph, build_query_graph

from tests.conftest import (
    all_pairs_hops,
    edit_npy_record,
    kg_from_parts,
    neighbor_tuples,
    query_graph_from_edges,
    query_graph_parts,
    random_edges,
    random_query_graph,
    seeded_query_graphs,
)


def naive_betweenness(qg, edges):
    """Oracle: enumerate every shortest path along ``edges`` explicitly and
    count pass-throughs."""
    nodes = qg.order
    adjacency = neighbor_tuples(nodes, edges)
    hops = all_pairs_hops(nodes, edges)
    scores = {v: 0.0 for v in nodes}

    def shortest_paths(s, t):
        d_target = hops.get((s, t))
        if d_target is None or s == t:
            return []
        paths = []
        stack = [(s, [s])]
        while stack:
            node, path = stack.pop()
            if node == t:
                paths.append(path)
                continue
            for nb in adjacency[node]:
                # extend only along shortest-path structure
                if (
                    hops.get((s, nb)) == len(path)
                    and (hops.get((nb, t)) or 0) == d_target - len(path)
                    and hops.get((nb, t)) is not None
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


def loop_betweenness(qg, edges):
    """Reference: the node-keyed Brandes loop that the index-space one
    replaced, along ``edges``."""
    nodes = qg.order
    adjacency = neighbor_tuples(nodes, edges)
    raw = {v: 0.0 for v in nodes}
    for source in nodes:
        stack = []
        predecessors = {v: [] for v in nodes}
        sigma = {v: 0.0 for v in nodes}
        dist = {v: -1 for v in nodes}
        sigma[source], dist[source] = 1.0, 0
        queue = [source]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            stack.append(v)
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta = {v: 0.0 for v in nodes}
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                raw[w] += delta[w]
    n = len(nodes)
    if n < 3:
        return {v: 0.0 for v in nodes}
    return {v: raw[v] / ((n - 1) * (n - 2)) for v in nodes}


def dense_pagerank(qg, edges, damping=0.85):
    """Oracle: solve the stationary linear system along ``edges`` directly."""
    nodes = qg.order
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    adjacency = neighbor_tuples(nodes, edges)
    transition = np.zeros((n, n))
    for v in nodes:
        neighbors = adjacency[v]
        if neighbors:
            for w in neighbors:
                transition[index[w], index[v]] = 1.0 / len(neighbors)
        else:
            transition[:, index[v]] = 1.0 / n
    solution = np.linalg.solve(
        np.eye(n) - damping * transition, np.full(n, (1.0 - damping) / n)
    )
    return {v: float(solution[index[v]]) for v in nodes}


def loop_pagerank(qg, edges, damping=0.85, tol=1e-9):
    """Reference: the per-node power iteration the batched PageRank replaced,
    along ``edges``."""
    nodes = qg.order
    n = len(nodes)
    if n == 0:
        return {}
    index = {v: i for i, v in enumerate(nodes)}
    adjacency = neighbor_tuples(nodes, edges)
    neighbors = [np.array([index[w] for w in adjacency[v]], dtype=np.intp) for v in nodes]
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


def loop_graph_features(qg, edges, partition, node_id):
    """Reference: the per-candidate loops that the matrix-row graph features
    replaced, with hop counts along ``edges``."""
    hops = all_pairs_hops(qg.order, edges)

    def rel(a, b):
        d = hops.get((a, b))
        return 0.5**d if d is not None and d <= 4 else 0.0

    n = qg.n_nodes
    finite = [hops[(node_id, o)] for o in qg.order if o != node_id and (node_id, o) in hops]
    if finite and n > 1:
        r = len(finite)
        closeness = (r / (n - 1)) * (r / sum(finite))
    else:
        closeness = 0.0
    seed_ids = [v for v, o in zip(qg.order, qg.origins) if o is not None]
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


def _cosine(a, b):
    """Cosine of two tf-idf weight maps, each norm summed anew on each call."""
    if not a or not b:
        return 0.0
    dot = sum(w * b[t] for t, w in a.items() if t in b)
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    return dot / (norm_a * norm_b)


def loop_instance_features(qg, edges, partition, instance, graph, idf, candidates, pagerank_scores):
    """Reference: the per-candidate assembly that the feature matrix replaced.

    The graph features come from per-node lists indexed like ``qg.order``,
    ``pagerank_scores`` among them, and the degrees from ``edges``; each
    candidate's 16 values are then gathered one by one, in ascending node id.
    """
    n = qg.n_nodes
    adjacency = neighbor_tuples(qg.order, edges)
    between = betweenness(qg).tolist()
    cluster_sizes = Counter(partition.assignment.values())

    hops = qg.hops
    reachable = hops > 0
    r = reachable.sum(axis=1)
    total = np.where(reachable, hops, 0).sum(axis=1)
    closeness = ((r / max(n - 1, 1)) * (r / np.maximum(total, 1))).tolist()

    seed_cols = [i for i, o in enumerate(qg.origins) if o is not None]
    n_seeds = len(seed_cols)
    to_seeds = hops[:, seed_cols]
    near = ((to_seeds > 0) & (to_seeds <= 2)).sum(axis=1)
    seeds_within = (near / max(n_seeds, 1)).tolist()

    related = relatedness_matrix(qg.hops)
    np.fill_diagonal(related, 0.0)
    labels = np.array([partition.assignment[v] for v in qg.order])
    peers = labels[:, None] == labels[None, :]
    np.fill_diagonal(peers, False)
    intra = ((related * peers).sum(axis=1) / np.maximum(peers.sum(axis=1), 1)).tolist()
    other_seeds = n_seeds - np.isin(np.arange(n), seed_cols)
    seed_rel = (related[:, seed_cols].sum(axis=1) / np.maximum(other_seeds, 1)).tolist()

    mention_text = " ".join(list(instance.tags) + list(instance.image_labels))
    instance_tokens = set(tokenize(mention_text))
    instance_tfidf = idf.tfidf(tokenize(mention_text))

    rows = []
    for node_id in sorted(candidates):
        i = qg.order.index(node_id)
        node = graph.node(node_id)
        origin = qg.origins[i]
        title_tokens = set(tokenize(node.title))
        union = title_tokens | instance_tokens
        abstract_tokens = tokenize(node.abstract_text)
        rows.append(
            (
                len(adjacency[node_id]) / (n - 1) if n > 1 else 0.0,
                between[i],
                closeness[i],
                pagerank_scores[i],
                seeds_within[i],
                1.0 if node_id in qg.intermediates else 0.0,
                cluster_sizes[partition.assignment[node_id]] / n,
                intra[i],
                seed_rel[i],
                1.0 if origin and origin.from_tags else 0.0,
                1.0 if origin and origin.from_image else 0.0,
                1.0 if origin and origin.from_tags and origin.from_image else 0.0,
                len(title_tokens & instance_tokens) / len(union) if union else 0.0,
                _cosine(idf.tfidf(abstract_tokens), instance_tfidf),
                math.log(1.0 + len(abstract_tokens)),
                1.0 if node.is_category else 0.0,
            )
        )
    return rows


_WORDS = ("car", "volvo", "motor", "vehicle", "road", "sky", "sea", "red")


def draw_node_specs(draw, nodes):
    """A ``kg_from_parts`` spec per node: a random kind, a title of random
    words and, for an article, an abstract of random words."""
    words = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)
    specs = []
    for v in nodes:
        kind = draw(st.sampled_from(NodeKind))
        abstract = draw(words) if kind is NodeKind.ARTICLE else ""
        specs.append((v, kind, draw(words), (), abstract))
    return specs


def draw_instance(draw, instance_id):
    """An instance whose tags and image labels share words with the titles and abstracts."""
    words = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)
    return Instance(
        instance_id=instance_id,
        tags=tuple(draw(st.lists(words, max_size=3))),
        image_labels=tuple(draw(st.lists(words, max_size=3))),
    )


@st.composite
def featured_instances(draw):
    """A random query graph with mixed seed origins over a graph with titles and abstracts.

    Returns the query graph and its drawn edges, a random partition of its
    nodes, the knowledge graph, an instance whose tags and image labels share
    words with the titles and abstracts, and a random subset of the nodes as
    candidates.
    """
    qg, edges = draw(seeded_query_graphs())
    kg = kg_from_parts(draw_node_specs(draw, qg.order), [])
    labels = draw(st.lists(st.integers(0, 3), min_size=qg.n_nodes, max_size=qg.n_nodes))
    partition = Partition(assignment=dict(zip(qg.order, labels)), modularity=0.0)
    instance = draw_instance(draw, "q")
    candidates = draw(st.lists(st.sampled_from(qg.order), unique=True)) if qg.order else []
    return qg, edges, partition, kg, instance, candidates


@st.composite
def featured_batches(draw):
    """A shuffled batch of instances over one knowledge graph.

    It mixes node counts and holds several graphs of one node count (a drawn
    graph again, under another instance id and partition, so the two share
    every node), a single-node graph, graphs with disconnected parts and
    cluster ids down to -3. Returns the (query graph, its drawn edges,
    partition, instance) of each, and the knowledge graph of all their nodes.
    """
    parts = draw(st.lists(query_graph_parts(), min_size=1, max_size=5))
    parts.append(([draw(st.integers(0, 999))], {}, []))
    parts += [parts[i] for i in draw(st.lists(st.integers(0, len(parts) - 1), min_size=1, max_size=3))]
    kg = kg_from_parts(draw_node_specs(draw, sorted({v for ids, _, _ in parts for v in ids})), [])
    cases = []
    for i, (ids, seeds, edges) in enumerate(draw(st.permutations(parts))):
        qg = QueryGraph.from_parts(f"q{i}", seeds, frozenset(ids) - seeds.keys(), edges)
        labels = draw(st.lists(st.integers(-3, 3), min_size=qg.n_nodes, max_size=qg.n_nodes))
        partition = Partition(assignment=dict(zip(qg.order, labels)), modularity=0.0)
        cases.append((qg, edges, partition, draw_instance(draw, qg.instance_id)))
    return cases, kg


def extract_one(qg, partition, instance, kg, idf):
    """The feature matrix of one instance, as a batch of one."""
    (matrix,) = extract_instance_features([qg], [partition], [instance], kg, idf)
    return matrix


def column(name):
    return FEATURE_NAMES.index(name)


@st.composite
def pagerank_graphs(draw, hub_leaves=st.just(0), isolated=st.integers(0, 2)):
    """Random graph with a hub of ``hub_leaves`` leaves and ``isolated`` isolated nodes.

    Nodes are ``[0, core)`` random, then the hub and its leaves, then the
    isolated nodes. Random edges may join any two non-isolated nodes.
    Returns the graph and its edges.
    """
    core, leaves, n_isolated = draw(st.integers(0, 10)), draw(hub_leaves), draw(isolated)
    hub = core
    connected = core + (leaves + 1 if leaves else 0)
    edges = {(hub, hub + 1 + i) for i in range(leaves)}
    pairs = list(itertools.combinations(range(connected), 2))
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=40)))
    return query_graph_from_edges(connected + n_isolated, edges), edges


@st.composite
def pagerank_batches(draw):
    """A shuffled batch mixing every shape whose segment sums take a distinct
    path, as (graph, edges) pairs.

    Degree >= 8 and >= 8 dangling nodes hit numpy's pairwise summation.
    """
    batch = [
        (query_graph_from_edges(0, []), []),
        (query_graph_from_edges(1, []), []),
        draw(pagerank_graphs(isolated=st.integers(1, 3))),
        draw(pagerank_graphs(hub_leaves=st.integers(8, 20))),
        draw(pagerank_graphs(isolated=st.integers(8, 20))),
        *draw(st.lists(pagerank_graphs(), max_size=6)),
    ]
    return draw(st.permutations(batch))


@st.composite
def dense_query_graphs(draw):
    """Random graph of 10 to 16 nodes, each pair joined with probability about 1/2.

    Many nodes have three or more successors in a breadth-first DAG, with
    fractional dependencies, so the order of a dependency sum shows in its
    bits. Returns the graph and its edges.
    """
    n = draw(st.integers(10, 16))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, k in zip(pairs, keep) if k]
    return query_graph_from_edges(n, edges), edges


def in_order(qg, scores):
    """A node-keyed reference's scores as a list in ``qg.order``."""
    return [scores[v] for v in qg.order]


class TestBetweenness:
    def test_path_graph(self):
        qg = query_graph_from_edges(3, [(0, 1), (1, 2)])
        assert betweenness(qg).tolist() == [0.0, 1.0, 0.0]

    def test_triangle_all_zero(self):
        qg = query_graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert betweenness(qg).tolist() == [0.0, 0.0, 0.0]

    def test_empty_graph(self):
        scores = betweenness(query_graph_from_edges(0, []))
        assert scores.dtype == np.float64 and scores.shape == (0,)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(12):
            n = int(rng.integers(2, 30))
            edges = random_edges(rng, n, 0.15)
            qg = query_graph_from_edges(n, edges)
            got = betweenness(qg).tolist()
            assert got == pytest.approx(in_order(qg, naive_betweenness(qg, edges)), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(dense_query_graphs(), seeded_query_graphs()))
    def test_matches_loop_reference_bit_for_bit(self, drawn):
        qg, edges = drawn
        assert betweenness(qg).tolist() == in_order(qg, loop_betweenness(qg, edges))


class TestPagerank:
    def test_single_node(self):
        qg = query_graph_from_edges(1, [])
        assert pagerank(qg).tolist() == [pytest.approx(1.0)]

    def test_symmetric_pair(self):
        qg = query_graph_from_edges(2, [(0, 1)])
        assert pagerank(qg).tolist() == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_empty_graph(self):
        scores = pagerank(query_graph_from_edges(0, []))
        assert scores.dtype == np.float64 and scores.shape == (0,)

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            qg = random_query_graph(rng, int(rng.integers(1, 25)), 0.2)
            assert sum(pagerank(qg).tolist()) == pytest.approx(1.0, abs=1e-6)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            edges = random_edges(rng, n, 0.25)
            qg = query_graph_from_edges(n, edges)
            got = pagerank(qg).tolist()
            assert got == pytest.approx(in_order(qg, dense_pagerank(qg, edges)), abs=1e-6)


class TestPagerankBatch:
    @settings(max_examples=30, deadline=None)
    @given(pagerank_batches())
    def test_matches_loop_reference_bit_for_bit(self, batch):
        got = [scores.tolist() for scores in pagerank_batch([qg for qg, _ in batch])]
        assert got == [in_order(qg, loop_pagerank(qg, edges)) for qg, edges in batch]

    @settings(max_examples=30, deadline=None)
    @given(pagerank_batches())
    def test_scores_do_not_depend_on_the_batch(self, drawn):
        def lists(graphs):
            return [scores.tolist() for scores in pagerank_batch(graphs)]

        batch = [qg for qg, _ in drawn]
        alone = [pagerank(qg).tolist() for qg in batch]
        assert lists(batch) == alone
        assert lists(batch[::-1]) == alone[::-1]
        assert lists(batch[1::2]) == alone[1::2]

    def test_empty_batch(self):
        # np.split would return one empty array for no graphs.
        assert pagerank_batch([]) == []

    def test_zero_node_graph(self):
        batch = [query_graph_from_edges(0, []), query_graph_from_edges(2, [(0, 1)])]
        empty, pair = pagerank_batch(batch)
        assert empty.dtype == np.float64 and empty.shape == (0,)
        assert pair.tolist() == pagerank(batch[1]).tolist()


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


def features_of(qg, partition, instance, kg, node, idf=None):
    """The feature row of ``node`` as a candidate of ``instance``."""
    idf = build_idf_table(kg) if idf is None else idf
    return extract_one(qg, partition, instance, kg, idf)[qg.order.index(node)]


class TestExtractFeatures:
    def test_intermediate_category_booleans(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        row = features_of(qg, partition, instance, kg, 2, idf)
        assert row[column("is_intermediate")] == 1.0
        assert row[column("origin_tag")] == 0.0
        assert row[column("origin_image")] == 0.0
        assert row[column("origin_both")] == 0.0
        assert row[column("is_category")] == 1.0

    def test_isolated_single_seed(self, tiny_kg):
        seedset = SeedSet("q2", {0: SeedOrigin(from_tags=True)})
        qg = build_query_graph(tiny_kg, seedset)
        partition = louvain(build_relatedness_graph(qg))
        instance = Instance(instance_id="q2", tags=("volvo",))
        row = features_of(qg, partition, instance, tiny_kg, 0)
        assert row[column("degree_centrality")] == 0.0
        assert row[column("betweenness")] == 0.0
        assert row[column("closeness")] == 0.0
        assert row[column("seeds_within_2hops")] == 0.0
        assert row[column("origin_tag")] == 1.0

    def test_title_token_jaccard(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        # title "car" vs mention tokens {volvo, car} -> 1/2
        row = features_of(qg, partition, instance, kg, 1, idf)
        assert row[column("title_token_jaccard")] == pytest.approx(0.5)

    def test_origin_both(self, tiny_kg):
        seedset = SeedSet("q3", {1: SeedOrigin(from_tags=True, from_image=True)})
        qg = build_query_graph(tiny_kg, seedset)
        partition = louvain(build_relatedness_graph(qg))
        instance = Instance(instance_id="q3", tags=("car",), image_labels=("car",))
        row = features_of(qg, partition, instance, tiny_kg, 1)
        origins = [row[column(name)] for name in ("origin_tag", "origin_image", "origin_both")]
        assert origins == [1.0, 1.0, 1.0]

    def test_abstract_cosine_positive_on_overlap(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        instance = Instance(instance_id="q1", tags=("motor", "vehicle"), image_labels=())
        row = features_of(qg, partition, instance, kg, 1, idf)
        assert 0.0 < row[column("abstract_tfidf_cosine")] <= 1.0

    def test_log_abstract_length(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        row = features_of(qg, partition, instance, kg, 1, idf)
        n_tokens = len(tokenize(kg.node(1).abstract_text))
        assert row[column("log_abstract_length")] == math.log(1 + n_tokens)

    def test_log_abstract_length_is_math_log(self):
        # log(9170) is one of the few small arguments where numpy's vectorised
        # log may round differently from math.log; the dump must not move.
        kg = kg_from_parts([(0, NodeKind.ARTICLE, "a", (), "w " * 9169)], [])
        qg = query_graph_from_edges(1, [])
        partition = Partition(assignment={0: 0}, modularity=0.0)
        row = features_of(qg, partition, Instance(instance_id="q"), kg, 0)
        assert row[column("log_abstract_length")] == math.log(9170.0)

    def test_unassigned_node_rejected(self, extraction_setup):
        kg, qg, partition, instance, idf = extraction_setup
        with pytest.raises(IntegrityError):
            features_of(qg, Partition(assignment={}, modularity=0.0), instance, kg, 0, idf)

    def test_foreign_partition_node_rejected(self, extraction_setup):
        # A partition naming a node outside the query graph once passed, and
        # cluster_size_ratio counted the foreign node in its cluster's size.
        kg, qg, partition, instance, idf = extraction_setup
        foreign = max(qg.order) + 1
        padded = Partition(
            assignment={**partition.assignment, foreign: partition.assignment[qg.order[0]]},
            modularity=partition.modularity,
        )
        with pytest.raises(IntegrityError, match=f"partition assigns node {foreign}"):
            features_of(qg, padded, instance, kg, 0, idf)

    def test_non_finite_value_rejected(self, extraction_setup, monkeypatch):
        kg, qg, partition, instance, idf = extraction_setup
        monkeypatch.setattr(features_module, "betweenness", lambda qg: np.full(qg.n_nodes, np.nan))
        with pytest.raises(IntegrityError, match="instance 'q1': non-finite feature value"):
            extract_one(qg, partition, instance, kg, idf)

    @settings(max_examples=80, deadline=None)
    @given(featured_instances())
    def test_matches_loop_reference_bit_for_bit(self, case):
        qg, edges, partition, kg, instance, candidates = case
        idf = build_idf_table(kg)
        matrix = extract_one(qg, partition, instance, kg, idf)
        assert matrix.shape == (qg.n_nodes, len(FEATURE_NAMES))
        got = matrix[[qg.order.index(v) for v in sorted(candidates)]]
        expected = np.array(
            loop_instance_features(qg, edges, partition, instance, kg, idf, candidates, pagerank(qg)),
            dtype=np.float64,
        ).reshape(len(candidates), len(FEATURE_NAMES))
        assert got.shape == expected.shape
        for j, name in enumerate(FEATURE_NAMES):
            assert got[:, j].tobytes() == expected[:, j].tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(seeded_query_graphs(), st.data())
    def test_graph_features_match_loop_reference(self, drawn, data):
        qg, edges = drawn
        labels = data.draw(st.lists(st.integers(0, 3), min_size=qg.n_nodes, max_size=qg.n_nodes))
        partition = Partition(assignment=dict(zip(qg.order, labels)), modularity=0.0)
        kg = kg_from_parts([(v, NodeKind.CATEGORY, f"node {v}") for v in qg.order], [])
        instance = Instance(instance_id="q", tags=("node",))
        matrix = extract_one(qg, partition, instance, kg, build_idf_table(kg))
        for node_id, row in zip(qg.order, matrix):
            expected = loop_graph_features(qg, edges, partition, node_id)
            assert {name: row[column(name)] for name in expected} == expected

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
            matrix = extract_one(qg, partition, instance, kg, idf)
            for name in bounded:
                values = matrix[:, column(name)]
                assert ((0.0 <= values) & (values <= 1.0 + 1e-12)).all(), name
            for name in BOOLEAN_FEATURES:
                assert set(matrix[:, column(name)].tolist()) <= {0.0, 1.0}
            assert np.isfinite(matrix).all()


class TestExtractBatch:
    @settings(max_examples=60, deadline=None)
    @given(featured_batches())
    def test_matches_loop_reference_bit_for_bit(self, drawn):
        cases, kg = drawn
        idf = build_idf_table(kg)
        graphs, _, partitions, instances = map(list, zip(*cases))
        matrices = extract_instance_features(graphs, partitions, instances, kg, idf)
        assert len(matrices) == len(cases)
        for (qg, edges, partition, instance), matrix in zip(cases, matrices):
            expected = np.array(
                loop_instance_features(qg, edges, partition, instance, kg, idf, qg.order, pagerank(qg)),
                dtype=np.float64,
            ).reshape(qg.n_nodes, len(FEATURE_NAMES))
            assert matrix.shape == expected.shape
            for j, name in enumerate(FEATURE_NAMES):
                assert matrix[:, j].tobytes() == expected[:, j].tobytes(), (qg.instance_id, name)

    @settings(max_examples=30, deadline=None)
    @given(featured_batches())
    def test_matrices_do_not_depend_on_the_batch(self, drawn):
        cases, kg = drawn
        idf = build_idf_table(kg)

        def extract(picked):
            graphs, _, partitions, instances = map(list, zip(*picked))
            return [m.tobytes() for m in extract_instance_features(graphs, partitions, instances, kg, idf)]

        alone = [extract([case])[0] for case in cases]
        assert extract(cases) == alone
        assert extract(cases[::-1]) == alone[::-1]
        assert extract(cases[1::2]) == alone[1::2]

    def test_empty_batch(self, tiny_kg):
        assert extract_instance_features([], [], [], tiny_kg, build_idf_table(tiny_kg)) == []


# Each way an instance can fail extraction, as (graph, partition, the error
# class and message it raises) for an instance id and a node id of its own;
# kind None is a good instance, and "non-finite" one only under a patched
# betweenness.
def _fails(kind, iid, node):
    qg = QueryGraph.from_parts(
        iid, {0: SeedOrigin(from_tags=True), node: SeedOrigin(from_image=True)}, frozenset({1}),
        [(0, 1), (1, node)],
    )
    assignment = dict.fromkeys(qg.order, -1)
    if kind == "unassigned":
        del assignment[node]
        return qg, assignment, IntegrityError, f"instance {iid!r}: node {node} is not assigned to a cluster"
    if kind == "foreign":
        assignment[node + 10] = 0
        message = f"instance {iid!r}: partition assigns node {node + 10}, outside the query graph"
        return qg, assignment, IntegrityError, message
    if kind == "unknown":
        # Its first node (the lowest id) is the unknown one: the first row of its graph.
        qg = QueryGraph.from_parts(iid, dict.fromkeys((-node, 0), SeedOrigin(from_tags=True)), frozenset(), [])
        return qg, dict.fromkeys(qg.order, 0), NotFoundError, f"unknown node id {-node}"
    return qg, assignment, IntegrityError, f"instance {iid!r}: non-finite feature value"


_FAILURES = ("unassigned", "foreign", "unknown", "non-finite")


@pytest.mark.parametrize("second", _FAILURES)
@pytest.mark.parametrize("first", _FAILURES)
def test_first_bad_instance_in_batch_order_raises(first, second, monkeypatch):
    # Batching must not change which error a stage reports: the first bad
    # instance in batch order raises, with the error it would raise alone.
    kg = kg_from_parts([(v, NodeKind.CATEGORY, f"node {v}") for v in range(8)], [])
    cases = [_fails(None, "a", 2), _fails(first, "b", 3), _fails(None, "c", 4), _fails(second, "d", 5)]
    non_finite = {iid for iid, kind in zip("abcd", (None, first, None, second)) if kind == "non-finite"}
    real = features_module.betweenness
    monkeypatch.setattr(
        features_module, "betweenness",
        lambda qg: np.full(qg.n_nodes, np.nan) if qg.instance_id in non_finite else real(qg),
    )
    graphs = [qg for qg, _, _, _ in cases]
    partitions = [Partition(assignment=a, modularity=0.0) for _, a, _, _ in cases]
    instances = [Instance(instance_id=qg.instance_id) for qg in graphs]
    _, _, error, message = cases[1]
    with pytest.raises(GistRankError) as raised:
        extract_instance_features(graphs, partitions, instances, kg, build_idf_table(kg))
    assert type(raised.value) is error and str(raised.value) == message
    # Without the first bad instance, the second one raises in its place.
    del graphs[1], partitions[1], instances[1]
    _, _, error, message = cases[3]
    with pytest.raises(GistRankError) as raised:
        extract_instance_features(graphs, partitions, instances, kg, build_idf_table(kg))
    assert type(raised.value) is error and str(raised.value) == message


def feature_row(fill, **named):
    values = [fill] * len(FEATURE_NAMES)
    for name, value in named.items():
        values[column(name)] = value
    return values


class TestNormalizePerQuery:
    def test_single_vector_zeroes_non_booleans(self):
        row = feature_row(0.7, is_category=1.0, origin_tag=1.0)
        (out,) = normalize_per_query(np.array([row]))
        for j, name in enumerate(FEATURE_NAMES):
            if name in BOOLEAN_FEATURES:
                assert out[j] == row[j]
            else:
                assert out[j] == 0.0

    def test_affine_scaling(self):
        out = normalize_per_query(np.array([feature_row(v) for v in (2.0, 4.0, 6.0)]))
        assert out[:, column("degree_centrality")].tolist() == [0.0, 0.5, 1.0]

    def test_booleans_pass_through(self):
        rows = [feature_row(0.2, origin_tag=1.0), feature_row(0.4, origin_tag=1.0)]
        out = normalize_per_query(np.array(rows))
        assert out[:, column("origin_tag")].tolist() == [1.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_per_query(np.zeros((0, len(FEATURE_NAMES))))

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
        once = normalize_per_query(np.array(raw))
        twice = normalize_per_query(once)
        assert twice == pytest.approx(once, abs=1e-12)

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
    def test_matches_per_column_loop(self, raw):
        matrix = np.array(raw)
        expected = matrix.copy()
        for j, name in enumerate(FEATURE_NAMES):
            if name in BOOLEAN_FEATURES:
                continue
            lo, hi = matrix[:, j].min(), matrix[:, j].max()
            expected[:, j] = (matrix[:, j] - lo) / (hi - lo) if hi - lo > 1e-12 else 0.0
        assert normalize_per_query(matrix).tobytes() == expected.tobytes()


def loop_idf_table(graph) -> IdfTable:
    """Reference: the per-abstract loop that the one-pass count replaced."""
    doc_frequency: Counter[str] = Counter()
    n_documents = 0
    for abstract in graph.abstracts:
        if abstract:
            n_documents += 1
            doc_frequency.update(set(tokenize(abstract)))
    return IdfTable(doc_frequency=dict(doc_frequency), n_documents=n_documents)


class TestIdfTable:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(st.sampled_from("aZ9 é_-\x85İ"), max_size=12), max_size=8))
    def test_one_pass_count_equals_loop(self, abstracts):
        graph = kg_from_parts(
            [(i, NodeKind.ARTICLE, f"node {i}", (), text) for i, text in enumerate(abstracts)], []
        )
        table = build_idf_table(graph)
        reference = loop_idf_table(graph)
        assert table.doc_frequency == reference.doc_frequency
        assert table.n_documents == reference.n_documents


def _write_dump(path, rows) -> None:
    """Write (instance id, node id, 16 values, grade) rows as one feature dump."""
    ids, nodes, values, grades = (list(column) for column in zip(*rows))
    write_feature_rows(path, np.array(values, dtype=np.float64), ids, list(map(str, nodes)), grades)


_ROWS = [
    ("i1", 3, tuple(float(x) / 7 for x in range(16)), 5),
    ("i1", 4, (0.0,) * 16, None),
    ("i2", 10, (-0.0,) + (1.0,) * 15, 1),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFeatureIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "features.bin"
        _write_dump(path, _ROWS)
        read = {iid: (ids, m.tobytes(), grades) for iid, (ids, m, grades) in read_feature_rows(path).items()}
        assert read == {
            "i1": (["3", "4"], np.array([_ROWS[0][2], _ROWS[1][2]]).tobytes(), [5, None]),
            "i2": (["10"], np.array([_ROWS[2][2]]).tobytes(), [1]),
        }
        # Five records, as ``np.load`` reads them one after another.
        with path.open("rb") as fh:
            records = [np.load(fh) for _ in range(5)]
            assert fh.read() == b""
        names, ids, nodes, grades, matrix = records
        assert names.tobytes().decode().split("\n")[:-1] == list(FEATURE_NAMES)
        assert ids.tobytes() == b"i1\ni1\ni2\n"
        assert nodes.tolist() == [3, 4, 10] and grades.tolist() == [5, 0, 1]
        assert matrix.dtype == np.float64 and matrix.shape == (3, 16)

    def test_header_mismatch_fails(self, tmp_path):
        path = tmp_path / "features.bin"
        _write_dump(path, _ROWS)
        names = "".join(name + "\n" for name in reversed(FEATURE_NAMES)).encode()
        path.write_bytes(edit_npy_record(path.read_bytes(), 0, lambda _: np.frombuffer(names, np.uint8)))
        with pytest.raises(IntegrityError, match="feature names"):
            read_feature_rows(path)

    def test_wrong_field_count_is_parse_error(self, tmp_path):
        path = tmp_path / "features.bin"
        write_feature_rows(path, np.full((1, 15), 0.5), ["i1"], ["3"], [1])
        message = r"features.bin: the feature record is float64 \(1, 15\), not float64 \(1, 16\)"
        with pytest.raises(ParseError, match=message):
            read_feature_rows(path)

    @pytest.mark.parametrize("line", [1, 3])
    def test_non_utf8_line_is_parse_error(self, tmp_path, line):
        # The instance ids are lines of UTF-8 text in one record.
        path = tmp_path / "features.bin"
        _write_dump(path, _ROWS)
        data = bytearray(path.read_bytes())
        data[data.index(b"i1\ni1\ni2\n") + 3 * (line - 1)] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="features.bin: an instance id is not valid UTF-8"):
            read_feature_rows(path)

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cell_is_integrity_error(self, tmp_path, cell):
        path = tmp_path / "features.bin"
        _write_dump(path, [_ROWS[0], ("i1", 4, (0.5,) * 15 + (cell,), None)])
        with pytest.raises(IntegrityError, match="features.bin: instance 'i1', node 4: non-finite"):
            read_feature_rows(path)

    @pytest.mark.parametrize(
        "index, edit, message",
        [
            (2, lambda nodes: nodes.astype(np.float64), "node id record is float64"),
            (3, lambda grades: grades[:-1], r"grade record is int64 \(2,\), not int64 \(3,\)"),
            (3, lambda grades: grades + 6, "a grade is neither 0"),
            (1, lambda ids: np.append(ids, np.uint8(ord("x"))), "bytes follow the last instance id"),
            (1, lambda ids: np.frombuffer(b"i1\ni2\ni1\n", np.uint8), "not in one run"),
            (4, lambda matrix: np.asfortranarray(matrix.astype(np.float32)), "feature record is float32"),
        ],
        ids=["node-dtype", "grade-count", "grade-range", "ids-unended", "instance-split", "matrix-dtype"],
    )
    def test_malformed_record_is_parse_error(self, tmp_path, index, edit, message):
        path = tmp_path / "features.bin"
        _write_dump(path, _ROWS)
        path.write_bytes(edit_npy_record(path.read_bytes(), index, edit))
        with pytest.raises(ParseError, match=message):
            read_feature_rows(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_cut_or_flipped_byte_is_read_or_a_gistrank_error(self, fuzz_dir, data):
        path = fuzz_dir / "features.bin"
        _write_dump(path, _ROWS)
        good = path.read_bytes()
        at = data.draw(st.integers(0, len(good) - 1))
        if data.draw(st.booleans()):
            damaged = good[:at]
        else:
            damaged = good[:at] + bytes([good[at] ^ data.draw(st.integers(1, 255))]) + good[at + 1 :]
        path.write_bytes(damaged)
        try:
            read_feature_rows(path)
        except GistRankError:
            pass


def test_feature_names_frozen():
    assert len(FEATURE_NAMES) == 16
    assert FEATURE_NAMES[0] == "degree_centrality"
    assert FEATURE_NAMES[-1] == "is_category"
