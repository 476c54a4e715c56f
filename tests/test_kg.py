"""Knowledge-graph store: loading, indexing, lookup, and round-trips."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gistrank.errors import GistRankError, IntegrityError, NotFoundError, ParseError
from gistrank.kg import EdgeKind, NodeKind, load_graph, normalize_title

from tests.conftest import graph_rows, kg_from_parts, neighbors, save_graph, tsv_text
from tests.loop_kg import loop_load_graph


def write_files(tmp_path, nodes_text, edges_text=""):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text(nodes_text, encoding="utf-8")
    edges.write_text(edges_text, encoding="utf-8")
    return nodes, edges


class TestLoadGraph:
    def test_single_article(self, tmp_path):
        nodes, edges = write_files(tmp_path, "0\tarticle\tcar\t\t\n")
        graph = load_graph(nodes, edges)
        assert graph.n_nodes == 1
        assert graph.title_index == {"car": 0}

    def test_redirect_title_maps_to_same_node(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "0\tarticle\tautomobile\tcar\t\n1\tcategory\tmotor vehicles\t\t\n",
            "0\t1\tcategory_link\n",
        )
        graph = load_graph(nodes, edges)
        assert graph.lookup_title("automobile") == 0
        assert graph.lookup_title("car") == 0

    def test_duplicate_title_is_integrity_error(self, tmp_path):
        lines = [f"{i}\tarticle\tnode {i}\t\t" for i in range(9)]
        lines.append("9\tarticle\tnode 3\t\t")  # duplicate of node 3
        nodes, edges = write_files(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(IntegrityError, match="node 3"):
            load_graph(nodes, edges)

    def test_malformed_line_names_file_and_line(self, tmp_path):
        nodes, edges = write_files(tmp_path, "0\tarticle\tcar\t\t\nnot-enough-fields\n")
        with pytest.raises(ParseError, match=r"nodes\.tsv:2"):
            load_graph(nodes, edges)

    def test_bad_node_id(self, tmp_path):
        nodes, edges = write_files(tmp_path, "x\tarticle\tcar\t\t\n")
        with pytest.raises(ParseError, match="not an integer"):
            load_graph(nodes, edges)

    def test_edge_to_unknown_node(self, tmp_path):
        nodes, edges = write_files(tmp_path, "0\tarticle\tcar\t\t\n", "0\t5\tcategory_link\n")
        with pytest.raises(IntegrityError, match="unknown node 5"):
            load_graph(nodes, edges)

    def test_category_link_must_end_at_category(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "0\tarticle\tcar\t\t\n1\tarticle\tbus\t\t\n",
            "0\t1\tcategory_link\n",
        )
        with pytest.raises(IntegrityError, match="must point at a category"):
            load_graph(nodes, edges)

    def test_duplicate_edge_rejected(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "0\tarticle\tcar\t\t\n1\tcategory\tvehicles\t\t\n",
            "0\t1\tcategory_link\n0\t1\tcategory_link\n",
        )
        with pytest.raises(IntegrityError, match="duplicate edge"):
            load_graph(nodes, edges)

    def test_self_loop_rejected(self, tmp_path):
        nodes, edges = write_files(
            tmp_path, "0\tcategory\tvehicles\t\t\n", "0\t0\tcategory_link\n"
        )
        with pytest.raises(IntegrityError, match="self-loop"):
            load_graph(nodes, edges)

    def test_category_with_abstract_rejected(self, tmp_path):
        nodes, edges = write_files(tmp_path, "0\tcategory\tvehicles\t\tsome text\n")
        with pytest.raises(IntegrityError, match="category"):
            load_graph(nodes, edges)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        nodes, edges = write_files(tmp_path, "# header\n\n0\tarticle\tcar\t\t\n")
        assert load_graph(nodes, edges).n_nodes == 1

    def test_redirect_edge_resolves_titles_to_target(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "0\tarticle\tautomobile\tmotorcar\t\n1\tarticle\tcar\t\t\n",
            "1\t0\tredirect\n",
        )
        graph = load_graph(nodes, edges)
        # node 1 is a redirect page whose title now lands on node 0
        assert graph.lookup_title("car") == 0
        assert graph.lookup_title("motorcar") == 0
        assert graph.lookup_title("automobile") == 0


class TestLookupTitle:
    def test_normalizes_mention(self, tiny_kg):
        assert tiny_kg.lookup_title("  CAR ") == 1
        assert tiny_kg.lookup_title("Motor   Vehicles") == 2

    def test_absent_mention(self, tiny_kg):
        assert tiny_kg.lookup_title("zzzqx") is None

    def test_redirect_title_resolution(self, tiny_kg):
        assert tiny_kg.lookup_title("automobile") == 1

    @given(st.text(max_size=40))
    def test_lookup_equals_lookup_of_normalized(self, mention):
        # Graph construction is cheap enough to run per example.
        import tests.conftest as c

        graph = c.kg_from_parts(
            [(0, NodeKind.ARTICLE, "car"), (1, NodeKind.CATEGORY, "motor vehicles")],
            [(0, 1)],
        )
        assert graph.lookup_title(mention) == graph.lookup_title(normalize_title(mention))


class TestInvariants:
    def test_adjacency_symmetric(self, tmp_path):
        import numpy as np

        from tests.conftest import kg_adjacency, random_kg

        rng = np.random.default_rng(11)
        for _ in range(10):
            graph = random_kg(rng, int(rng.integers(2, 40)), 0.15)
            adjacency = kg_adjacency(graph)
            for a in graph.ids.tolist():
                assert neighbors(graph, a) == adjacency[a]
                for b in adjacency[a]:
                    assert a in neighbors(graph, b)

    def test_round_trip(self, tmp_path, tiny_kg):
        nodes2, edges2 = tmp_path / "n2.tsv", tmp_path / "e2.tsv"
        save_graph(tiny_kg, nodes2, edges2)
        reloaded = load_graph(nodes2, edges2)
        assert reloaded.nodes == tiny_kg.nodes
        assert reloaded.edges.tolist() == tiny_kg.edges.tolist()
        assert reloaded.title_index == tiny_kg.title_index

    def test_round_trip_with_redirect_edges(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "0\tarticle\tautomobile\tmotorcar|auto\tfour wheels\n"
            "1\tarticle\tcar\t\t\n"
            "2\tcategory\tvehicles\t\t\n",
            "0\t2\tcategory_link\n1\t0\tredirect\n",
        )
        graph = load_graph(nodes, edges)
        nodes2, edges2 = tmp_path / "n2.tsv", tmp_path / "e2.tsv"
        save_graph(graph, nodes2, edges2)
        reloaded = load_graph(nodes2, edges2)
        assert reloaded.nodes == graph.nodes
        assert reloaded.edges.tolist() == graph.edges.tolist() == [[0, 2]]
        assert edges2.read_text() == "0\t2\tcategory_link\n1\t0\tredirect\n"
        assert reloaded.title_index == graph.title_index

    def test_title_index_targets_exist(self, tiny_kg):
        for node_id in tiny_kg.title_index.values():
            assert node_id in tiny_kg.nodes

    def test_neighbors_unknown_node(self, tiny_kg):
        with pytest.raises(NotFoundError):
            neighbors(tiny_kg, 99)


# Ids at and beyond the ends of int64, which a lookup must neither find nor overflow on.
_EDGE_IDS = (-(2**70), -(2**63) - 1, -(2**63), -1, 2**63 - 1, 2**63, 2**64, 2**70)


@st.composite
def id_lookups(draw):
    """Gapped node ids (possibly none, possibly the largest int64) and a query
    (possibly empty) mixing them with unknown, negative and huge ids."""
    ids = draw(st.sets(st.one_of(st.integers(0, 40), st.just(2**63 - 1)), max_size=10))
    known = st.sampled_from(sorted(ids)) if ids else st.nothing()
    query = draw(st.lists(st.one_of(known, st.integers(-3, 45), st.sampled_from(_EDGE_IDS)), max_size=6))
    return ids, query


class TestPositions:
    @settings(max_examples=200, deadline=None)
    @given(id_lookups())
    def test_matches_a_dict_of_ids(self, case):
        ids, query = case
        graph = kg_from_parts([(v, NodeKind.CATEGORY, f"n{v}") for v in ids], [])
        index = {v: i for i, v in enumerate(graph.ids.tolist())}
        assert sorted(index) == sorted(ids)
        missing = [v for v in query if v not in index]
        if missing:
            with pytest.raises(NotFoundError, match=f"unknown node id {missing[0]}$"):
                graph.positions_of(query)
        else:
            assert graph.positions_of(query).tolist() == [index[v] for v in query]
        for v in query:
            assert (v in graph.nodes) == (v in index)
            if v in index:
                assert graph.position(v) == index[v]
            else:
                with pytest.raises(NotFoundError):
                    graph.position(v)


def test_normalize_title():
    assert normalize_title("  Motor   Vehicles ") == "motor vehicles"
    assert normalize_title("CAR") == "car"
    assert normalize_title("") == ""


class TestReaderErrors:
    def test_non_utf8_line_names_file_and_line(self, tmp_path):
        nodes, edges = write_files(tmp_path, "0\tarticle\tcar\t\t\n", "# src\tdst\tkind\n")
        nodes.write_bytes(nodes.read_bytes() + b"1\tarticle\tbus\t\tx\xff\n")
        with pytest.raises(ParseError, match=r"nodes\.tsv:2: line is not valid UTF-8"):
            load_graph(nodes, edges)

    def test_non_utf8_comment_line_is_an_error(self, tmp_path):
        nodes, edges = write_files(tmp_path, "0\tarticle\tcar\t\t\n")
        edges.write_bytes(b"# a comment \xff\n")
        with pytest.raises(ParseError, match=r"edges\.tsv:1: line is not valid UTF-8"):
            load_graph(nodes, edges)

    def test_earlier_bad_line_wins_over_a_later_non_utf8_line(self, tmp_path):
        nodes, edges = write_files(tmp_path, "0\tarticle\tcar\t\t\n0\tarticle\tbus\t\t\n")
        nodes.write_bytes(nodes.read_bytes() + b"\xff\n")
        with pytest.raises(IntegrityError, match=r"nodes\.tsv:2: duplicate node id 0"):
            load_graph(nodes, edges)

    def test_node_id_beyond_int64_is_parse_error(self, tmp_path):
        nodes, edges = write_files(tmp_path, f"{2**63}\tarticle\tcar\t\t\n")
        with pytest.raises(ParseError, match=r"nodes\.tsv:1: node id '9223372036854775808' is out of range"):
            load_graph(nodes, edges)

    def test_unknown_huge_endpoint_is_integrity_error(self, tmp_path):
        nodes, edges = write_files(tmp_path, "0\tarticle\tcar\t\t\n", f"0\t{10**30}\tredirect\n")
        with pytest.raises(IntegrityError, match=f"unknown node {10**30}"):
            load_graph(nodes, edges)


# Differential tests against the per-line loop loader (tests/loop_kg.py).


def _load_both(nodes_text: str, edges_text: str):
    """The result of each loader, or the exception it raised."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        nodes, edges = Path(tmp, "nodes.tsv"), Path(tmp, "edges.tsv")
        nodes.write_bytes(nodes_text.encode("utf-8"))
        edges.write_bytes(edges_text.encode("utf-8"))
        for load in (loop_load_graph, load_graph):
            try:
                results.append(load(nodes, edges))
            except Exception as exc:  # compared below
                results.append(exc)
    return results


def _assert_same_graph(graph, ref):
    assert graph.ids.tolist() == list(ref.nodes)
    assert [graph.node(v) for v in ref.nodes] == list(ref.nodes.values())
    assert {v: neighbors(graph, v) for v in ref.nodes} == ref.adjacency
    assert list(graph.title_index.items()) == list(ref.title_index.items())
    links = {(min(a, b), max(a, b)) for a, b, kind in ref.edges if kind is EdgeKind.CATEGORY_LINK}
    assert graph.edges.tolist() == sorted(map(list, links))


def _mutate(draw, node_rows, edge_rows, row=None) -> list:
    """Turn a row (``row``, or a drawn one) into a case of one of the
    loader's errors, or by chance into a harmless change; return the row."""
    if row is None:
        rows = draw(st.sampled_from([r for r in (node_rows, edge_rows) if r]))
        row = draw(st.sampled_from(rows))
    else:
        rows = node_rows if any(r is row for r in node_rows) else edge_rows
    other = draw(st.sampled_from([r for r in rows if r is not row] or rows))
    if len(row) != (5 if rows is node_rows else 3):
        return row  # already the wrong field count: the first check fails it
    if rows is node_rows:
        case = draw(st.sampled_from(("dup-title", "id", "negative", "kind", "empty", "dup-id",
                                     "category", "fields")))
        if case == "fields":
            row.append("x") if draw(st.booleans()) else row.pop()
        elif case == "id":
            row[0] = draw(st.sampled_from(("x", "1.5", "", "0x10", "٣x")))
        elif case == "negative":
            row[0] = "-" + row[0].strip()
        elif case == "kind":
            row[1] = draw(st.sampled_from(("Article", "page", "")))
        elif case == "empty":
            row[2] = draw(st.sampled_from(("", " ", "\x85")))
        elif case == "dup-id":
            row[0] = other[0]
        elif case == "dup-title":
            row[2] = other[2].upper()
        else:
            row[1] = "category"
            row[3], row[4] = draw(st.sampled_from(((row[3] or "auto", ""), ("", row[4] or "text"), ("", ""))))
    else:
        ids = [r[0] for r in node_rows]
        case = draw(st.sampled_from(("cycle", "int", "kind", "unknown", "self", "dup", "article",
                                     "conflict", "fields")))
        if case == "fields":
            row.append("x") if draw(st.booleans()) else row.pop()
        elif case == "int":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(("a", "2.0", "")))
        elif case == "kind":
            row[2] = draw(st.sampled_from(("link", "Redirect", "")))
        elif case == "unknown":
            for end in draw(st.sampled_from(((0,), (1,), (0, 1)))):
                row[end] = str(draw(st.sampled_from((98, 99, -1, 10**30))))
        elif case == "self":
            row[1] = row[0]
        elif case == "dup":
            rows.insert(draw(st.integers(rows.index(row) + 1, len(rows))), list(row))
        elif case == "article":
            row[1], row[2] = draw(st.sampled_from(ids)), "category_link"
        elif case == "conflict":
            rows.append([row[0], draw(st.sampled_from(ids)), "redirect"])
        else:
            rows.append([row[1], row[0], "redirect"])
    return row


class TestAgainstLoopLoader:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_valid_files_load_the_same_graph(self, data):
        node_rows, edge_rows = data.draw(graph_rows())
        ref, graph = _load_both(data.draw(tsv_text(node_rows)), data.draw(tsv_text(edge_rows)))
        assert not isinstance(ref, Exception), ref
        _assert_same_graph(graph, ref)

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_bad_lines_raise_the_same_first_error(self, data):
        node_rows, edge_rows = data.draw(graph_rows().filter(lambda rows: rows[0]))
        row = _mutate(data.draw, node_rows, edge_rows)
        if data.draw(st.booleans()):  # a second error, maybe on the same line
            _mutate(data.draw, node_rows, edge_rows, row if data.draw(st.booleans()) else None)
        ref, got = _load_both(data.draw(tsv_text(node_rows)), data.draw(tsv_text(edge_rows)))
        if isinstance(ref, Exception):
            assert isinstance(ref, GistRankError), ref
            assert isinstance(got, GistRankError), got
            assert (type(got), str(got)) == (type(ref), str(ref))
        else:
            assert not isinstance(got, Exception), got
            _assert_same_graph(got, ref)
