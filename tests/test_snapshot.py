"""The graph and IDF snapshot: round trips, damaged and stale files, and the
stages that load it."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gistrank.pipeline as pipeline
import gistrank.snapshot as snapshot
from gistrank.cli import main
from gistrank.config import load_config
from gistrank.features import build_idf_table
from gistrank.fixture import gen_fixture
from gistrank.kg import KnowledgeGraph, load_graph
from gistrank.pipeline import KG_SNAPSHOT, PipelineContext, run_stage
from gistrank.snapshot import kg_snapshot_key, load_kg_snapshot, save_kg_snapshot

from tests.conftest import count_pipeline_calls, graph_rows, random_kg, tsv_text

_ARRAYS = ("ids", "is_category", "indptr", "indices")
_LISTS = ("titles", "abstracts")
_MAPPINGS = ("title_index",)


def assert_same_kg(got: KnowledgeGraph, want: KnowledgeGraph) -> None:
    """Equal in every field: arrays in dtype, shape and values, and read-only;
    lists and mappings in value and order."""
    names = {f.name for f in dataclasses.fields(KnowledgeGraph)}
    assert names == {*_ARRAYS, *_LISTS, *_MAPPINGS}
    for name in _ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert np.array_equal(a, b), name
        assert not a.flags.writeable, name
    for name in _LISTS:
        assert getattr(got, name) == getattr(want, name), name
    for name in _MAPPINGS:
        assert list(getattr(got, name).items()) == list(getattr(want, name).items()), name


def _round_trip(graph: KnowledgeGraph) -> None:
    idf = build_idf_table(graph)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, KG_SNAPSHOT)
        save_kg_snapshot(path, b"k" * 32, graph, idf)
        loaded = load_kg_snapshot(path, b"k" * 32)
    assert loaded is not None
    assert_same_kg(loaded[0], graph)
    assert loaded[1] == idf


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_loaded_graph(self, data):
        node_rows, edge_rows = data.draw(graph_rows())
        with tempfile.TemporaryDirectory() as tmp:
            nodes, edges = Path(tmp, "nodes.tsv"), Path(tmp, "edges.tsv")
            nodes.write_bytes(data.draw(tsv_text(node_rows)).encode("utf-8"))
            edges.write_bytes(data.draw(tsv_text(edge_rows)).encode("utf-8"))
            graph = load_graph(nodes, edges)
        _round_trip(graph)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.floats(0.0, 1.0))
    def test_random_graph(self, seed, n_nodes, edge_prob):
        _round_trip(random_kg(np.random.default_rng(seed), n_nodes, edge_prob))


def _write_tiny_tsvs(root: Path) -> tuple[Path, Path]:
    nodes, edges = root / "nodes.tsv", root / "edges.tsv"
    nodes.write_text(
        "0\tarticle\tvolvo\t\tswedish marque of motor vehicles\n"
        "1\tarticle\tcar\tautomobile|auto\ta wheeled motor vehicle\n"
        "2\tcategory\tmotor vehicles\t\t\n"
        "3\tarticle\tmotorcar\t\t\n",
        encoding="utf-8",
    )
    edges.write_text("0\t2\tcategory_link\n1\t2\tcategory_link\n3\t1\tredirect\n", encoding="utf-8")
    return nodes, edges


class TestDamagedSnapshot:
    def test_every_truncation_and_flipped_byte_is_a_miss(self, tmp_path):
        nodes, edges = _write_tiny_tsvs(tmp_path)
        key = kg_snapshot_key(nodes, edges)
        graph = load_graph(nodes, edges)
        path = tmp_path / KG_SNAPSHOT
        save_kg_snapshot(path, key, graph, build_idf_table(graph))
        data = path.read_bytes()
        assert load_kg_snapshot(path, key) is not None
        damaged = tmp_path / "damaged.bin"
        for cut in range(len(data)):
            damaged.write_bytes(data[:cut])
            assert load_kg_snapshot(damaged, key) is None, cut
        for i in range(len(data)):
            for mask in (0x01, 0xFF):
                damaged.write_bytes(data[:i] + bytes([data[i] ^ mask]) + data[i + 1 :])
                assert load_kg_snapshot(damaged, key) is None, (i, mask)
        other_key = bytes([key[0] ^ 1]) + key[1:]
        assert load_kg_snapshot(path, other_key) is None
        assert load_kg_snapshot(tmp_path / "absent.bin", key) is None
        assert load_kg_snapshot(tmp_path, key) is None  # a directory

    def test_key_covers_both_files_format_and_version(self, tmp_path, monkeypatch):
        nodes, edges = _write_tiny_tsvs(tmp_path)
        key = kg_snapshot_key(nodes, edges)
        assert kg_snapshot_key(nodes, edges) == key
        # Bytes moved from one file to the other change the key.
        moved = tmp_path / "moved"
        moved.mkdir()
        text = nodes.read_bytes()
        (moved / "nodes.tsv").write_bytes(text[:-1])
        (moved / "edges.tsv").write_bytes(text[-1:] + edges.read_bytes())
        assert kg_snapshot_key(moved / "nodes.tsv", moved / "edges.tsv") != key
        monkeypatch.setattr(snapshot, "KG_SNAPSHOT_FORMAT", snapshot.KG_SNAPSHOT_FORMAT + 1)
        assert kg_snapshot_key(nodes, edges) != key
        monkeypatch.undo()
        monkeypatch.setattr(snapshot, "__version__", "0.0.0+other")
        assert kg_snapshot_key(nodes, edges) != key


@pytest.fixture(scope="module")
def fixture_9x3(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("fx")
    gen_fixture(seed=9, n_instances=9, n_topics=3, out_dir=out)
    return out


def _config(fixture: Path, out: Path, **overrides):
    return load_config(fixture / "pipeline.config", {"out": str(out), **overrides})


def _count_loads(monkeypatch) -> dict[str, int]:
    """Count the pipeline's parses and IDF builds from now on."""
    return count_pipeline_calls(monkeypatch, ("load_graph", "build_idf_table"))


_GRAPH_STAGES = ("link", "graph", "cluster", "features")


def _stage_artifacts(mode_dir: Path) -> dict[str, bytes]:
    return {
        name: (mode_dir / name).read_bytes()
        for stage in _GRAPH_STAGES
        for name in pipeline.STAGES[stage].outputs
    }


def _damage_other_key(config, path: Path) -> None:
    other = path.parent / "other"
    other.mkdir()
    nodes, edges = _write_tiny_tsvs(other)
    graph = load_graph(nodes, edges)
    save_kg_snapshot(path, kg_snapshot_key(nodes, edges), graph, build_idf_table(graph))


def _damage_other_version(config, path: Path) -> None:
    graph = load_graph(config.kg_nodes, config.kg_edges)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(snapshot, "__version__", "0.0.0+other")
        key = kg_snapshot_key(config.kg_nodes, config.kg_edges)
    save_kg_snapshot(path, key, graph, build_idf_table(graph))


def _flip_middle_byte(config, path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(data)


_DAMAGE = {
    "truncated": lambda config, path: path.write_bytes(path.read_bytes()[:-100]),
    "flipped": _flip_middle_byte,
    "empty": lambda config, path: path.write_bytes(b""),
    "foreign": lambda config, path: path.write_bytes(b"\x93NUMPY not a snapshot\n"),
    "other-key": _damage_other_key,
    "other-version": _damage_other_version,
}


class TestStagesUseTheSnapshot:
    def test_staged_run_parses_once(self, fixture_9x3, tmp_path, monkeypatch):
        counts = _count_loads(monkeypatch)
        for mode in ("T", "TI", "TII"):
            for stage in pipeline.STAGE_ORDER:
                run_stage(_config(fixture_9x3, tmp_path / "o", mode=mode), stage)
        assert counts == {"load_graph": 1, "build_idf_table": 1}

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_damaged_snapshot_is_rewritten_with_equal_outputs(
        self, fixture_9x3, tmp_path, monkeypatch, damage
    ):
        reference = _config(fixture_9x3, tmp_path / "ref")
        for stage in _GRAPH_STAGES:
            run_stage(reference, stage)
        good = (tmp_path / "ref" / KG_SNAPSHOT).read_bytes()

        config = _config(fixture_9x3, tmp_path / "o")
        run_stage(config, "link")
        path = tmp_path / "o" / KG_SNAPSHOT
        _DAMAGE[damage](config, path)
        assert path.read_bytes() != good
        counts = _count_loads(monkeypatch)
        for stage in _GRAPH_STAGES:
            run_stage(config, stage)
        assert counts == {"load_graph": 1, "build_idf_table": 1}
        assert path.read_bytes() == good
        assert _stage_artifacts(tmp_path / "o" / "TII") == _stage_artifacts(tmp_path / "ref" / "TII")

    def test_edited_tsv_is_seen_by_the_next_stage(self, fixture_9x3, tmp_path, monkeypatch):
        fixture = tmp_path / "fx"
        fixture.mkdir()
        for name in ("kg_nodes.tsv", "kg_edges.tsv", "corpus.jsonl", "pipeline.config"):
            (fixture / name).write_bytes((fixture_9x3 / name).read_bytes())
        config = _config(fixture, tmp_path / "o")
        run_stage(config, "link")
        old = (tmp_path / "o" / KG_SNAPSHOT).read_bytes()
        with (fixture / "kg_nodes.tsv").open("a", encoding="utf-8") as fh:
            fh.write("999999\tarticle\tbrand new concept\t\tnewword in the abstract\n")
        counts = _count_loads(monkeypatch)
        run_stage(config, "graph")
        assert counts == {"load_graph": 1, "build_idf_table": 1}
        assert (tmp_path / "o" / KG_SNAPSHOT).read_bytes() != old
        graph, idf = load_kg_snapshot(
            tmp_path / "o" / KG_SNAPSHOT, kg_snapshot_key(config.kg_nodes, config.kg_edges)
        )
        assert graph.lookup_title("Brand new concept") == 999999
        assert idf.doc_frequency["newword"] == 1

    def test_older_format_is_a_miss_and_rewritten(self, fixture_9x3, tmp_path, monkeypatch):
        run_stage(_config(fixture_9x3, tmp_path / "ref"), "link")
        fresh = (tmp_path / "ref" / KG_SNAPSHOT).read_bytes()
        config = _config(fixture_9x3, tmp_path / "o")
        with monkeypatch.context() as patch:
            patch.setattr(snapshot, "KG_SNAPSHOT_FORMAT", 1)
            run_stage(config, "link")
        path = tmp_path / "o" / KG_SNAPSHOT
        assert path.read_bytes() != fresh
        assert load_kg_snapshot(path, kg_snapshot_key(config.kg_nodes, config.kg_edges)) is None
        counts = _count_loads(monkeypatch)
        run_stage(config, "graph")
        assert counts == {"load_graph": 1, "build_idf_table": 1}
        assert path.read_bytes() == fresh

    def test_malformed_tsv_exits_2_with_an_old_snapshot_present(self, fixture_9x3, tmp_path, capsys):
        fixture = tmp_path / "fx"
        fixture.mkdir()
        for name in ("kg_nodes.tsv", "kg_edges.tsv", "corpus.jsonl", "pipeline.config"):
            (fixture / name).write_bytes((fixture_9x3 / name).read_bytes())
        config = str(fixture / "pipeline.config")
        assert main(["link", "--config", config]) == 0
        assert (fixture / "out" / KG_SNAPSHOT).is_file()
        nodes = fixture / "kg_nodes.tsv"
        nodes.write_bytes(nodes.read_bytes() + b"x\tarticle\tbroken\t\t\n")
        lineno = len(nodes.read_bytes().splitlines())
        capsys.readouterr()
        assert main(["graph", "--config", config]) == 2
        assert f"error: {nodes}:{lineno}: node id 'x' is not an integer" in capsys.readouterr().err

    def test_fresh_runs_write_identical_bytes(self, fixture_9x3, tmp_path):
        for name in ("a", "b"):
            run_stage(_config(fixture_9x3, tmp_path / name), "link")
        first = (tmp_path / "a" / KG_SNAPSHOT).read_bytes()
        assert first == (tmp_path / "b" / KG_SNAPSHOT).read_bytes()
        graph, idf = load_kg_snapshot(
            tmp_path / "a" / KG_SNAPSHOT,
            kg_snapshot_key(fixture_9x3 / "kg_nodes.tsv", fixture_9x3 / "kg_edges.tsv"),
        )
        assert_same_kg(graph, load_graph(fixture_9x3 / "kg_nodes.tsv", fixture_9x3 / "kg_edges.tsv"))
        assert idf == build_idf_table(graph)
        # The file is a run of plain .npy records, the strings one UTF-8 record.
        records = []
        with (tmp_path / "a" / KG_SNAPSHOT).open("rb") as fh:
            while fh.tell() < len(first):
                records.append(np.load(fh, allow_pickle=False))
        assert len(records) == 9
        assert records[7].tobytes().decode("utf-8").startswith("\n".join(graph.titles) + "\n")

    def test_stages_parse_once_and_leave_no_temp_file(self, fixture_9x3, tmp_path, monkeypatch):
        counts = _count_loads(monkeypatch)
        # link, graph and features each ask for the graph; cluster does not.
        for stage in _GRAPH_STAGES:
            run_stage(_config(fixture_9x3, tmp_path / "o"), stage)
        assert counts == {"load_graph": 1, "build_idf_table": 1}
        assert not list((tmp_path / "o").rglob("*.tmp"))
        assert PipelineContext(_config(fixture_9x3, tmp_path / "o")).graph.n_nodes > 0
