"""Query-graph expansion against brute-force path-enumeration oracles."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gistrank import query_graph
from gistrank.errors import IntegrityError, NotFoundError
from gistrank.kg import NodeKind
from gistrank.linking import SeedOrigin, SeedSet, seeds_to_json
from gistrank.query_graph import (
    MAX_PATH_LENGTH,
    QueryGraph,
    QueryGraphRows,
    bfs_distances,
    build_query_graph,
    build_query_graphs,
    with_hops,
)

from tests.conftest import (
    all_pairs_hops,
    dict_bfs,
    kg_adjacency,
    kg_from_parts,
    query_graph_from_parts,
    query_graph_parts,
    random_kg,
)


def seedset(ids, instance_id="q"):
    return SeedSet(instance_id, {i: SeedOrigin(from_tags=True) for i in ids})


def enumerate_intermediates(graph, seed_ids, max_len=MAX_PATH_LENGTH):
    """Oracle: collect interior category nodes of all shortest paths <= max_len
    between seed pairs, by exhaustive simple-path enumeration."""
    seed_ids = sorted(seed_ids)
    adjacency = kg_adjacency(graph)
    collected = set()
    for idx, s in enumerate(seed_ids):
        for t in seed_ids[idx + 1 :]:
            paths = []
            stack = [(s, [s])]
            while stack:
                node, path = stack.pop()
                if node == t:
                    paths.append(path)
                    continue
                if len(path) > max_len:  # path already has max_len edges
                    continue
                for neighbor in adjacency[node]:
                    if neighbor not in path:
                        stack.append((neighbor, path + [neighbor]))
            if not paths:
                continue
            shortest = min(len(p) - 1 for p in paths)
            for path in paths:
                if len(path) - 1 != shortest:
                    continue
                for node in path[1:-1]:
                    if node not in seed_ids and graph.nodes[node].is_category:
                        collected.add(node)
    return collected


def loop_build_query_graph(graph, seedset):
    """Reference: the per-pair expansion over one dict BFS per seed, which the
    array test and the CSR breadth-first search replaced."""
    seeds = dict(seedset.seeds)
    adjacency = kg_adjacency(graph)
    frontiers = {s: dict_bfs(adjacency, s, MAX_PATH_LENGTH) for s in seeds}
    intermediates = set()
    for s, t in itertools.combinations(sorted(seeds), 2):
        d_pair = frontiers[s].get(t)
        if d_pair is None or d_pair > MAX_PATH_LENGTH:
            continue
        far = frontiers[t]
        for v, d_sv in frontiers[s].items():
            if v in seeds or not graph.nodes[v].is_category:
                continue
            d_vt = far.get(v)
            if d_vt is not None and d_sv + d_vt == d_pair:
                intermediates.add(v)
    nodes = set(seeds) | intermediates
    edges = {
        (min(a, b), max(a, b)) for a in nodes for b in adjacency[a] if b in nodes
    }
    return QueryGraph.from_parts(seedset.instance_id, seeds, frozenset(intermediates), frozenset(edges))


def draw_expansion_graph(draw):
    """A random knowledge graph of 1 to 16 nodes with ids 0..n-1.

    A path through all nodes puts seed pairs both within and beyond 4 hops;
    a hub joined to three or more nodes and a few random edges add shortcuts
    and ties. Node kinds are random, so seeds may be categories.
    """
    n = draw(st.integers(1, 16))
    kinds = draw(st.lists(st.sampled_from(NodeKind), min_size=n, max_size=n))
    path = draw(st.permutations(range(n)))
    edges = set(zip(path, path[1:]))
    if n > 3:
        hub = draw(st.integers(0, n - 1))
        others = [v for v in range(n) if v != hub]
        edges |= {(hub, v) for v in draw(st.lists(st.sampled_from(others), min_size=3, unique=True))}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    return kg_from_parts([(v, kinds[v], f"n{v}") for v in range(n)], sorted(edges))


def draw_seedset(draw, graph, instance_id="q"):
    """A seed set of 0 to 6 nodes of ``graph``, in drawn order."""
    return seedset(draw(st.lists(st.integers(0, graph.n_nodes - 1), max_size=6, unique=True)), instance_id)


@st.composite
def expansion_cases(draw):
    """A random knowledge graph and a seed set of 0 to 6 of its nodes."""
    graph = draw_expansion_graph(draw)
    return graph, draw_seedset(draw, graph)


@st.composite
def expansion_batches(draw, min_size=0):
    """A random knowledge graph and a batch of seed sets over it, with
    instance ids "q0", "q1", ...: seed sets of ``expansion_cases``, some
    drawn again under another id, so distinct seeds recur across the batch."""
    graph = draw_expansion_graph(draw)
    seedsets = [draw_seedset(draw, graph, f"q{i}") for i in range(draw(st.integers(min_size, 5)))]
    for i in draw(st.lists(st.integers(0, len(seedsets) - 1), max_size=2)) if seedsets else ():
        seedsets.append(seedset(seedsets[i].seeds, f"q{len(seedsets)}"))
    return graph, draw(st.permutations(seedsets))


def floyd_warshall(graph):
    nodes = sorted(graph.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, neighbors in kg_adjacency(graph).items():
        for b in neighbors:
            dist[index[a], index[b]] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return nodes, index, dist


class TestBfsDistances:
    def test_line_graph(self):
        graph = kg_from_parts(
            [(0, NodeKind.ARTICLE, "a"), (1, NodeKind.CATEGORY, "b"), (2, NodeKind.ARTICLE, "c")],
            [(0, 1), (2, 1)],
        )
        assert bfs_distances(graph, 0, 4) == {0: 0, 1: 1, 2: 2}

    def test_cutoff(self):
        graph = kg_from_parts(
            [(0, NodeKind.ARTICLE, "a"), (1, NodeKind.CATEGORY, "b"), (2, NodeKind.ARTICLE, "c")],
            [(0, 1), (2, 1)],
        )
        assert bfs_distances(graph, 0, 1) == {0: 0, 1: 1}

    def test_unknown_source(self, tiny_kg):
        with pytest.raises(NotFoundError):
            bfs_distances(tiny_kg, 42, 4)

    def test_negative_cutoff(self, tiny_kg):
        with pytest.raises(ValueError):
            bfs_distances(tiny_kg, 0, -1)

    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            graph = random_kg(rng, int(rng.integers(2, 50)), 0.12)
            nodes, index, dist = floyd_warshall(graph)
            source = int(rng.choice(nodes))
            got = bfs_distances(graph, source, len(nodes))
            expected = {
                n: int(dist[index[source], index[n]])
                for n in nodes
                if np.isfinite(dist[index[source], index[n]])
            }
            assert got == expected


class TestBuildQueryGraph:
    def test_hub_category_between_two_articles(self, tiny_kg):
        qg = build_query_graph(tiny_kg, seedset([0, 1]))
        assert qg.intermediates == {2}
        assert qg.order == (0, 1, 2)
        assert qg.to_json_obj()["edges"] == [[0, 2], [1, 2]]

    def test_single_seed(self, tiny_kg):
        qg = build_query_graph(tiny_kg, seedset([0]))
        assert qg.intermediates == frozenset()
        assert qg.order == (0,)
        assert qg.to_json_obj()["edges"] == []

    def test_empty_seedset(self, tiny_kg):
        qg = build_query_graph(tiny_kg, seedset([]))
        assert qg.order == ()

    def test_unknown_seed_is_integrity_error(self, tiny_kg):
        with pytest.raises(IntegrityError, match="seed 42"):
            build_query_graph(tiny_kg, seedset([42]))

    @pytest.mark.parametrize("seeds, missing", [([-1], -1), ([2**70], 2**70), ([0, 2**64, 1, -5], 2**64)])
    def test_negative_or_huge_seed_is_integrity_error(self, tiny_kg, seeds, missing):
        # Never an OverflowError; the first seed not in the graph, in seed-set order, is named.
        with pytest.raises(IntegrityError, match=f"seed {missing} is not in the graph"):
            build_query_graph(tiny_kg, seedset(seeds))

    def test_pairs_beyond_cutoff_contribute_nothing(self):
        # Path of 6 edges between the two articles: distance 6 > 4.
        chain = [(0, NodeKind.ARTICLE, "a")] + [
            (i, NodeKind.CATEGORY, f"c{i}") for i in range(1, 6)
        ] + [(6, NodeKind.ARTICLE, "b")]
        graph = kg_from_parts(chain, [(i, i + 1) for i in range(6)])
        qg = build_query_graph(graph, seedset([0, 6]))
        assert qg.intermediates == frozenset()

    def test_articles_never_collected(self):
        # a - X(article) - b is the only connection: X must not enter I.
        graph = kg_from_parts(
            [
                (0, NodeKind.CATEGORY, "a"),
                (1, NodeKind.ARTICLE, "x"),
                (2, NodeKind.CATEGORY, "b"),
            ],
            [(1, 0), (1, 2)],
        )
        qg = build_query_graph(graph, seedset([0, 2]))
        assert qg.intermediates == frozenset()

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            graph = random_kg(rng, int(rng.integers(4, 50)), 2.5 / 40)
            n_seeds = int(rng.integers(2, 7))
            seeds = [int(s) for s in rng.choice(sorted(graph.nodes), size=min(n_seeds, graph.n_nodes), replace=False)]
            qg = build_query_graph(graph, seedset(seeds))
            assert qg.intermediates == enumerate_intermediates(graph, seeds)

    def test_monotone_in_seeds(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            graph = random_kg(rng, 30, 0.1)
            node_ids = sorted(graph.nodes)
            seeds = [int(s) for s in rng.choice(node_ids, size=4, replace=False)]
            qg_small = build_query_graph(graph, seedset(seeds))
            extra = int(rng.choice([n for n in node_ids if n not in seeds]))
            qg_big = build_query_graph(graph, seedset(seeds + [extra]))
            # The new seed itself may leave I (seeds and intermediates are disjoint).
            assert qg_small.intermediates - {extra} <= qg_big.intermediates

    @settings(max_examples=300, deadline=None)
    @given(expansion_cases())
    def test_matches_loop_reference(self, case):
        graph, seeds = case
        got, expected = build_query_graph(graph, seeds), loop_build_query_graph(graph, seeds)
        assert got.to_json_obj() == expected.to_json_obj()
        assert got.origins == expected.origins
        assert got.hops.tolist() == expected.hops.tolist()

    def test_subgraph_edges_are_induced(self, tiny_kg):
        qg = build_query_graph(tiny_kg, seedset([0, 1]))
        assert {tuple(e) for e in qg.to_json_obj()["edges"]} <= {(0, 2), (1, 2)}  # tiny_kg's links

    def test_category_seed_not_double_counted(self, tiny_kg):
        qg = build_query_graph(tiny_kg, seedset([0, 1, 2]))
        assert qg.origins[qg.order.index(2)] == SeedOrigin(from_tags=True)
        assert 2 not in qg.intermediates


def graph_form(qg):
    return qg.instance_id, qg.to_json_obj(), qg.origins, qg.hops.tolist()


class TestBuildQueryGraphs:
    # A block budget of 1 cell takes one distinct seed and one seed pair at
    # a time, one of 40 a few (how many depends on the graph), and the
    # default all of them at once on these graphs.
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=expansion_batches())
    def test_graphs_do_not_depend_on_the_batch(self, monkeypatch, case):
        graph, seedsets = case
        alone = [graph_form(loop_build_query_graph(graph, ss)) for ss in seedsets]
        assert [graph_form(build_query_graph(graph, ss)) for ss in seedsets] == alone
        for budget in (1, 40, query_graph._BLOCK_CELLS):
            monkeypatch.setattr(query_graph, "_BLOCK_CELLS", budget)
            assert list(map(graph_form, build_query_graphs(graph, seedsets))) == alone
            assert list(map(graph_form, build_query_graphs(graph, seedsets[::-1]))) == alone[::-1]

    def test_empty_batch(self, tiny_kg):
        assert build_query_graphs(tiny_kg, []) == []

    @settings(max_examples=100, deadline=None)
    @given(expansion_batches(min_size=1), st.data())
    def test_first_seed_set_with_an_unknown_seed_raises_its_own_error(self, case, data):
        graph, seedsets = case
        # Ids beyond the graph's nodes 0..n-1, negative, and beyond int64,
        # each put at a drawn place in a drawn seed set's order.
        unknown = st.sampled_from([graph.n_nodes, 999, -1, 2**63, 2**70])
        for i in data.draw(st.lists(st.integers(0, len(seedsets) - 1), min_size=1, unique=True)):
            items = list(seedsets[i].seeds.items())
            at = data.draw(st.integers(0, len(items)))
            items[at:at] = [(data.draw(unknown), SeedOrigin(from_image=True))]
            seedsets[i] = SeedSet(seedsets[i].instance_id, dict(items))
        errors = []
        for ss in seedsets:
            try:
                build_query_graph(graph, ss)
            except IntegrityError as exc:
                errors.append(str(exc))
        with pytest.raises(IntegrityError) as raised:
            build_query_graphs(graph, seedsets)
        assert str(raised.value) == errors[0]


class TestQueryGraphType:
    def test_distances_within_subgraph(self, tiny_kg):
        qg = build_query_graph(tiny_kg, seedset([0, 1]))
        assert qg.order == (0, 1, 2)
        assert qg.hops.tolist() == [[0, 2, 1], [2, 0, 1], [1, 1, 0]]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(query_graph_parts(), max_size=5), st.data())
    def test_hops_match_all_pairs_bfs(self, drawn, data):
        # A batch of mixed node counts, always with a one-node graph and a
        # pair with no path; each graph alone too.
        batch = data.draw(st.permutations([*drawn, ([7], {}, []), ([1, 2], {}, [])]))
        rows = [
            QueryGraphRows.from_parts(f"q{i}", seeds, frozenset(ids) - seeds.keys(), edges)
            for i, (ids, seeds, edges) in enumerate(batch)
        ]
        for (ids, seeds, edges), batched in zip(batch, with_hops(rows)):
            for qg in (batched, query_graph_from_parts(ids, seeds, edges)):
                expected = all_pairs_hops(ids, edges)
                assert qg.order == tuple(sorted(ids))
                assert qg.origins == tuple(map(seeds.get, qg.order))
                assert qg.hops.shape == (len(ids),) * 2
                assert not qg.hops.flags.writeable
                assert qg.hops.tolist() == [[expected.get((a, b), -1) for b in qg.order] for a in qg.order]

    @settings(max_examples=60, deadline=None)
    @given(query_graph_parts())
    def test_json_edges_are_the_drawn_edges(self, parts):
        ids, seeds, edges = parts
        qg = query_graph_from_parts(ids, seeds, edges)
        obj = qg.to_json_obj()
        assert obj["edges"] == [list(e) for e in sorted({(min(a, b), max(a, b)) for a, b in edges})]
        assert obj["intermediates"] == sorted(set(ids) - seeds.keys())
        assert obj["seeds"] == seeds_to_json(seeds)

        clone = QueryGraph.from_json_obj(json.loads(json.dumps(obj)))
        assert clone.order == qg.order
        assert clone.origins == qg.origins
        assert clone.hops.tolist() == qg.hops.tolist()

    def test_json_edge_endpoints_are_read_as_ints(self, tiny_kg):
        # Edge endpoints are read like seed and intermediate ids: JSON
        # integers only, as int() would read "0" and 1.5 as node ids 0 and
        # 1, and true as 1. Anything else is a malformed record, not a stray edge.
        obj = build_query_graph(tiny_kg, seedset([0, 1])).to_json_obj()
        assert obj["edges"]
        assert QueryGraph.from_json_obj(obj).to_json_obj() == obj
        for respell in (str, lambda v: v + 0.5, lambda v: True, lambda v: None):
            with pytest.raises(ValueError, match="not an integer"):
                QueryGraph.from_json_obj({**obj, "edges": [[respell(a), b] for a, b in obj["edges"]]})

    def test_edge_outside_nodes_is_integrity_error(self):
        with pytest.raises(IntegrityError, match="edge"):
            QueryGraph.from_parts("q", {0: SeedOrigin(from_tags=True)}, frozenset({1}), frozenset({(1, 2)}))

    def test_seed_listed_as_intermediate_is_integrity_error(self):
        with pytest.raises(IntegrityError, match="both a seed and an intermediate"):
            QueryGraph.from_parts("q", {0: SeedOrigin(from_tags=True)}, frozenset({0, 1}), frozenset())

    def test_self_loop_is_integrity_error(self):
        seeds = {0: SeedOrigin(from_tags=True), 1: SeedOrigin(from_tags=True)}
        with pytest.raises(IntegrityError, match="self-loop"):
            QueryGraph.from_parts("q", seeds, frozenset(), frozenset({(0, 1), (1, 1)}))

    def test_json_round_trip(self, tiny_kg):
        qg = build_query_graph(tiny_kg, seedset([0, 1]))
        clone = QueryGraph.from_json_obj(qg.to_json_obj())
        assert clone.to_json_obj() == qg.to_json_obj()
        assert clone.order == qg.order
        assert clone.origins == qg.origins
        assert clone.hops.tolist() == qg.hops.tolist()
