"""Knowledge-graph store: loading, indexing, lookup, and round-trips."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gistrank.errors import GistRankError, IntegrityError, NotFoundError, ParseError
from gistrank.kg import NodeKind, load_graph, normalize_title, save_graph

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
                assert graph.neighbors(a) == adjacency[a]
                for b in adjacency[a]:
                    assert a in graph.neighbors(b)

    def test_round_trip(self, tmp_path, tiny_kg):
        nodes2, edges2 = tmp_path / "n2.tsv", tmp_path / "e2.tsv"
        save_graph(tiny_kg, nodes2, edges2)
        reloaded = load_graph(nodes2, edges2)
        assert reloaded.nodes == tiny_kg.nodes
        assert reloaded.edges.tolist() == tiny_kg.edges.tolist()
        assert reloaded.edge_is_redirect.tolist() == tiny_kg.edge_is_redirect.tolist()
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
        assert reloaded.edges.tolist() == graph.edges.tolist()
        assert reloaded.edge_is_redirect.tolist() == [False, True]
        assert reloaded.title_index == graph.title_index

    def test_title_index_targets_exist(self, tiny_kg):
        for node_id in tiny_kg.title_index.values():
            assert node_id in tiny_kg.nodes

    def test_neighbors_unknown_node(self, tiny_kg):
        with pytest.raises(NotFoundError):
            tiny_kg.neighbors(99)


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

_WORDS = ("car", "motor", "vehicle", "red", "café", "x")
_SPACES = (" ", "  ", "\x85", "\u2028", "\x0c", "\x1c")
_DIGITS = ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९")
# Blank (whitespace only) and comment lines; "\x85" and "\u2028" end no line.
_NOISE = ("", "   ", "\x85", "\u2028", "\x0c", "#", "# comment\twith a tab")
_TITLES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
_ABSTRACTS = st.text(st.sampled_from("ab Z\x85\u2028\x0c|#"), max_size=8)


@st.composite
def spelled(draw, value: int) -> str:
    """``value`` as one of the spellings ``int()`` accepts."""
    text = str(value)
    style = draw(st.sampled_from(("plain", "plus", "space", "underscore", "digits")))
    if style == "plus":
        return "+" + text
    if style == "space":
        return draw(st.sampled_from((" ", "  "))) + text + draw(st.sampled_from(("", " ")))
    if style == "underscore" and len(text) > 1:
        return text[0] + "_" + text[1:]
    if style == "digits":
        digits = draw(st.sampled_from(_DIGITS))
        return "".join(digits[int(c)] for c in text)
    return text


@st.composite
def decorated(draw, title: str) -> str:
    """A raw spelling of ``title`` that normalizes back to it."""
    words = [w.upper() if draw(st.booleans()) else w for w in title.split(" ")]
    text = words[0] + "".join(draw(st.sampled_from(_SPACES)) + w for w in words[1:])
    return draw(st.sampled_from(("", " ", "\x85"))) + text + draw(st.sampled_from(("", "\u2028")))


@st.composite
def graph_rows(draw):
    """Field rows of a valid node and edge file pair.

    Ids are unsorted with gaps; redirects form chains, and aliases compete
    with primary titles and with each other.
    """
    n = draw(st.integers(0, 9))
    ids = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    categories = [draw(st.booleans()) for _ in ids]
    titles = draw(st.lists(_TITLES, min_size=n, max_size=n, unique=True))
    aliases = st.sampled_from(titles + ["auto", "motor car", ""])
    node_rows = []
    for node_id, category, title in zip(ids, categories, titles):
        redirects = [] if category else draw(st.lists(aliases, max_size=3))
        node_rows.append([
            draw(spelled(node_id)),
            "category" if category else "article",
            draw(decorated(title)),
            "|".join(draw(decorated(a)) if a else a for a in redirects),
            "" if category else draw(_ABSTRACTS),
        ])
    cats = [v for v, c in zip(ids, categories) if c]
    edges = []
    if cats and n > 1:
        links = st.tuples(st.sampled_from(ids), st.sampled_from(cats)).filter(lambda e: e[0] != e[1])
        edges += [(a, b, "category_link") for a, b in draw(st.lists(links, unique=True, max_size=10))]
    if n > 1:
        rank = {v: k for k, v in enumerate(draw(st.permutations(ids)))}
        chain = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: rank[e[0]] < rank[e[1]])
        edges += [(a, b, "redirect") for a, b in draw(st.lists(chain, unique_by=lambda e: e[0], max_size=4))]
    edge_rows = [[draw(spelled(a)), draw(spelled(b)), kind] for a, b, kind in draw(st.permutations(edges))]
    return node_rows, edge_rows


@st.composite
def tsv_text(draw, rows) -> str:
    """The rows as a TSV file, with blank and comment lines between them and
    each line ended by "\\n", "\\r\\n" or "\\r" (the last one maybe not at all)."""
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(_NOISE), max_size=2))
        lines.append("\t".join(row))
    ends = [draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


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
    assert {v: graph.neighbors(v) for v in ref.nodes} == ref.adjacency
    assert list(graph.title_index.items()) == list(ref.title_index.items())
    assert len(graph.edges) == len(ref.edges)


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
