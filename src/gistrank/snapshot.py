"""The snapshot format of a parsed knowledge graph and its IDF table.

The first stage of a run directory that needs the graph writes both to one
file; later processes load them from it and skip the parse. A snapshot is
keyed by the bytes of the graph TSVs, so any change to them reads as a miss.
"""

from __future__ import annotations

import hashlib
import io
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .errors import atomic_open, save_strings
from .features import IdfTable
from .kg import KnowledgeGraph


# Bump when the records written by ``save_kg_snapshot`` change; it is part of
# the snapshot key, so snapshots in an older format read as misses.
KG_SNAPSHOT_FORMAT = 2
_DIGEST_SIZE = hashlib.sha256().digest_size


def _check_record(key: bytes, digest: bytes) -> bytes:
    """The last record of a snapshot: its key and the sha256 of the records before it."""
    buffer = io.BytesIO()
    np.save(buffer, np.frombuffer(key + digest, dtype=np.uint8), allow_pickle=False)
    return buffer.getvalue()


_CHECK_SIZE = len(_check_record(bytes(_DIGEST_SIZE), bytes(_DIGEST_SIZE)))


class _HashingSink:
    """Passes what is written on to ``fh`` and hashes it."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.fh.write(data)


def kg_snapshot_key(nodes_path: str | Path, edges_path: str | Path) -> bytes:
    """The key of the snapshot of a graph: a sha256 over the snapshot format,
    the package version and the bytes of both TSV files."""
    digest = hashlib.sha256(f"gistrank kg snapshot {KG_SNAPSHOT_FORMAT} {__version__}".encode())
    for path in (nodes_path, edges_path):
        data = Path(path).read_bytes()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.digest()


def save_kg_snapshot(path: str | Path, key: bytes, graph: KnowledgeGraph, idf: IdfTable) -> None:
    """Write ``graph`` and ``idf`` to ``path`` under ``key``, atomically.

    The file is a run of ``np.save`` records: the graph's arrays, the
    ``title_index`` targets, the IDF counts and document count, then every
    string as UTF-8, each ended by a newline (no TSV field holds one): the
    titles, the abstracts, the ``title_index`` keys that are no title and
    the IDF tokens. The index's keys are the titles followed by those, in
    that order. The last record holds the key and the sha256 of the records
    before it. Mappings keep their order, IDF tokens are sorted and nothing
    records a time, so the bytes are a function of the graph alone.
    """
    tokens = sorted(idf.doc_frequency)
    records = (
        graph.ids,
        graph.is_category,
        graph.indptr,
        graph.indices,
        np.array(list(graph.title_index.values()), dtype=np.int64),
        np.array([idf.doc_frequency[t] for t in tokens], dtype=np.int64),
        np.array(idf.n_documents, dtype=np.int64),
    )
    with atomic_open(path, binary=True) as fh:
        sink = _HashingSink(fh)
        for record in records:
            np.save(sink, record, allow_pickle=False)
        aliases = islice(graph.title_index, graph.n_nodes, None)
        save_strings(sink, [*graph.titles, *graph.abstracts, *aliases, *tokens])
        fh.write(_check_record(key, sink.sha256.digest()))


def load_kg_snapshot(path: str | Path, key: bytes) -> tuple[KnowledgeGraph, IdfTable] | None:
    """The graph and IDF table stored at ``path`` under ``key``, or None.

    A missing, truncated or damaged file, one that is not a snapshot, and a
    snapshot stored under another key (other TSV bytes, format or package
    version) all read as None. The graph equals the parsed one in every
    field, mapping order included.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    if len(data) < _CHECK_SIZE or data[-_CHECK_SIZE:] != _check_record(
        key, hashlib.sha256(memoryview(data)[:-_CHECK_SIZE]).digest()
    ):
        return None
    # The records are the ones this module wrote under this key. The strings
    # are decoded from ``data`` in place, which is let go before the split.
    fh = io.BytesIO(data)
    records = [np.lib.format.read_array(fh, allow_pickle=False) for _ in range(7)]
    np.lib.format.read_magic(fh)
    (size,), _, _ = np.lib.format.read_array_header_1_0(fh)
    with memoryview(data) as view:
        text = str(view[fh.tell() : fh.tell() + size], "utf-8")
    del data, fh
    strings = text.split("\n")
    del text
    strings.pop()  # the empty rest after the last newline
    ids, is_category, indptr, indices, targets, frequencies, n_documents = records
    n, n_keys = len(ids), len(targets)
    titles = strings[:n]
    graph = KnowledgeGraph(
        ids=ids,
        is_category=is_category,
        titles=titles,
        abstracts=strings[n : 2 * n],
        indptr=indptr,
        indices=indices,
        title_index=dict(zip(titles + strings[2 * n : n + n_keys], targets.tolist())),
    )
    idf = IdfTable(doc_frequency=dict(zip(strings[n + n_keys :], frequencies.tolist())), n_documents=int(n_documents))
    return graph, idf
