"""Per-instance feature matrices for concept ranking.

Sixteen features describe one candidate concept for one instance: graph
connectivity (degree, betweenness, closeness, pagerank, seed proximity),
cluster and relatedness signals, origin booleans, and text overlap between
the concept's title/abstract and the instance's tags and image labels. An
instance's query-graph nodes form one matrix, a row per node in the graph's
``order`` and a column per entry of ``FEATURE_NAMES``.
"""

from __future__ import annotations

import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from tokenize import TokenError
from typing import Mapping, Sequence

import numpy as np

from .clustering import Partition, relatedness_matrix
from .errors import IntegrityError, ParseError, atomic_open, save_strings
from .kg import KnowledgeGraph, _search
from .linking import VALID_GRADES, Instance
from .query_graph import QueryGraph

FEATURE_NAMES: tuple[str, ...] = (
    "degree_centrality",
    "betweenness",
    "closeness",
    "pagerank",
    "seeds_within_2hops",
    "is_intermediate",
    "cluster_size_ratio",
    "mean_intra_cluster_relatedness",
    "mean_seed_relatedness",
    "origin_tag",
    "origin_image",
    "origin_both",
    "title_token_jaccard",
    "abstract_tfidf_cosine",
    "log_abstract_length",
    "is_category",
)

BOOLEAN_FEATURES: frozenset[str] = frozenset(
    {"is_intermediate", "origin_tag", "origin_image", "origin_both", "is_category"}
)
_BOOLEAN_COLUMNS = np.array([name in BOOLEAN_FEATURES for name in FEATURE_NAMES])

_TOKEN_RE = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on non-alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def betweenness(qg: QueryGraph) -> np.ndarray:
    """Exact shortest-path betweenness (Brandes), normalized to [0, 1], in ``qg.order``.

    Each unordered node pair counts once; scores are divided by
    (n-1)(n-2)/2. Graphs with fewer than three nodes score all zeros.
    """
    n = len(qg.order)
    # Neighbours in ascending index order, which is ascending node id.
    neighbors = [np.flatnonzero(row).tolist() for row in qg.hops == 1]
    raw = [0.0] * n
    for source in range(n):
        stack: list[int] = []
        predecessors: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        dist = [-1] * n
        sigma[source], dist[source] = 1.0, 0
        queue = [source]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            stack.append(v)
            for w in neighbors[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                raw[w] += delta[w]

    if n < 3:
        return np.zeros(n)
    scale = (n - 1) * (n - 2)  # raw counts each pair twice (both endpoints)
    return np.array(raw) / scale


# PageRank's damping factor, and the per-node change below which its power iteration stops.
DAMPING = 0.85
TOLERANCE = 1e-9


def pagerank(qg: QueryGraph) -> np.ndarray:
    """PageRank by power iteration with uniform teleport, in ``qg.order``.

    Mass of isolated (dangling) nodes is redistributed uniformly; iteration
    stops once the largest per-node change drops below ``TOLERANCE``. Scores
    sum to 1 within 1e-6 on a nonempty graph. This is the one-graph case of
    :func:`pagerank_batch`.
    """
    return pagerank_batch([qg])[0]


def _segments_by_length(
    values: np.ndarray, lengths: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split ``values`` into consecutive segments of ``lengths`` and group them by length.

    Returns one (segment ids, segments as rows of a matrix) pair per nonzero
    length. Summing such a matrix along axis 1 adds each row exactly as a
    1-D ``.sum()`` of that row does (numpy switches to pairwise summation
    from 8 terms on), which ``np.add.reduceat`` would not.
    """
    starts = np.cumsum(lengths) - lengths
    groups = []
    for length in sorted(set(lengths.tolist()) - {0}):
        ids = np.flatnonzero(lengths == length)
        groups.append((ids, values[starts[ids, None] + np.arange(length)]))
    return groups


def pagerank_batch(graphs: Sequence[QueryGraph]) -> list[np.ndarray]:
    """PageRank of each query graph in its ``order``, in one power iteration over their union.

    The graphs form one block-diagonal system, but every graph keeps its own
    node count, dangling mass and stopping point: a graph is frozen from the
    first iteration in which its own largest change is below ``TOLERANCE``. Each
    graph's scores therefore equal, bit for bit, those of :func:`pagerank`
    on that graph alone.
    """
    sizes = np.array([len(qg.order) for qg in graphs], dtype=np.intp)
    offsets = np.cumsum(sizes) - sizes
    # Ascending neighbour lists as one CSR column array over global node indices.
    degrees: list[int] = []
    columns: list[int] = []
    for qg, start in zip(graphs, offsets.tolist()):
        adjacent = qg.hops == 1
        degrees.extend(adjacent.sum(axis=1).tolist())
        columns.extend((np.nonzero(adjacent)[1] + start).tolist())
    incoming_groups = _segments_by_length(
        np.array(columns, dtype=np.intp), np.array(degrees, dtype=np.intp)
    )
    degree = np.array(degrees, dtype=np.float64)
    dangling = degree == 0
    graph_of = np.repeat(np.arange(len(graphs)), sizes)
    dangling_nodes = np.flatnonzero(dangling)
    dangling_groups = _segments_by_length(
        dangling_nodes, np.bincount(graph_of[dangling_nodes], minlength=len(graphs))
    )
    n = np.repeat(sizes.astype(np.float64), sizes)  # each node's own graph size
    nonempty = np.flatnonzero(sizes)
    starts = offsets[nonempty]

    teleport = (1.0 - DAMPING) / n
    out_degree = np.maximum(degree, 1.0)
    scores = 1.0 / n
    active = sizes > 0
    for _ in range(10_000):
        if not active.any():
            break
        share = np.where(dangling, 0.0, scores / out_degree)
        incoming = np.zeros(len(degree))
        for rows, nb in incoming_groups:
            incoming[rows] = share[nb].sum(axis=1)
        dangling_mass = np.zeros(len(graphs))
        for members, idx in dangling_groups:
            dangling_mass[members] = scores[idx].sum(axis=1)
        incoming += dangling_mass[graph_of] / n
        updated = teleport + DAMPING * incoming
        change = np.maximum.reduceat(np.abs(updated - scores), starts)
        scores = np.where(active[graph_of], updated, scores)
        active[nonempty[change < TOLERANCE]] = False
    return [scores[start : start + size] for start, size in zip(offsets, sizes)]


@dataclass(frozen=True)
class IdfTable:
    """Inverse document frequencies over all article abstracts in a graph."""

    doc_frequency: Mapping[str, int]
    n_documents: int

    def idf(self, token: str) -> float:
        if self.n_documents == 0:
            return 0.0
        return math.log(self.n_documents / (1 + self.doc_frequency.get(token, 0))) + 1.0

    def tfidf(self, tokens: Sequence[str]) -> dict[str, float]:
        counts = Counter(tokens)
        return {t: c * self.idf(t) for t, c in counts.items()}


def build_idf_table(graph: KnowledgeGraph) -> IdfTable:
    """Document frequencies of the abstracts' tokens, counted in one pass."""
    docs = list(filter(None, graph.abstracts))  # only articles carry an abstract
    tokens = chain.from_iterable(map(set, map(_TOKEN_RE.findall, map(str.lower, docs))))
    return IdfTable(doc_frequency=dict(Counter(tokens)), n_documents=len(docs))


def _check(qg: QueryGraph, partition: Partition, graph: KnowledgeGraph) -> None:
    """Raise unless ``partition`` assigns exactly the nodes of ``qg``, all in ``graph``."""
    where, nodes, assigned = f"instance {qg.instance_id!r}", set(qg.order), partition.assignment.keys()
    if nodes - assigned:
        raise IntegrityError(f"{where}: node {min(nodes - assigned)} is not assigned to a cluster")
    if assigned - nodes:
        raise IntegrityError(f"{where}: partition assigns node {min(assigned - nodes)}, outside the query graph")
    graph.positions_of(qg.order)


def extract_instance_features(
    graphs: Sequence[QueryGraph],
    partitions: Sequence[Partition],
    instances: Sequence[Instance],
    graph: KnowledgeGraph,
    idf: IdfTable,
) -> list[np.ndarray]:
    """Feature matrices of a stage's instances, one per query graph, with a
    row per node in ``qg.order`` and a column per entry of ``FEATURE_NAMES``;
    ``partitions[i]`` and ``instances[i]`` belong to ``graphs[i]``.

    The graph columns are computed per group of graphs with one node count,
    the text columns from a memo of each distinct node's tokens and weights.
    The first graph that fails a check raises the error it would raise alone.
    """
    # The graphs before the first bad partition or unknown node are
    # extracted, and checked for non-finite values, before that one raises.
    pairs = enumerate(zip(graphs, partitions))
    good = next((i for i, (qg, p) in pairs if p.assignment.keys() != set(qg.order)), len(graphs))
    sizes = np.array([qg.n_nodes for qg in graphs[:good]], dtype=np.intp)
    positions, found = _search(graph.ids, [v for qg in graphs[:good] for v in qg.order])
    if not all(found):
        good = int(np.searchsorted(np.cumsum(sizes), found.index(False), side="right"))
        positions, sizes = positions[: sizes[:good].sum()], sizes[:good]
    batch, ends = graphs[:good], np.cumsum(sizes)
    matrix = np.empty((len(positions), len(FEATURE_NAMES)))
    column = {name: matrix[:, j] for j, name in enumerate(FEATURE_NAMES)}
    origins = [o for qg in batch for o in qg.origins]
    is_seed = np.array([o is not None for o in origins], dtype=bool)
    cluster_ids = np.array([p.assignment[v] for qg, p in zip(batch, partitions) for v in qg.order])
    for ids, rows in _segments_by_length(np.arange(len(positions)), sizes):
        # The group's graphs of n nodes stacked: each column is a masked reduction along
        # the last axis that counts integers or adds multiples of 1/16, exact in any order.
        hops, seeds, labels = np.stack([batch[i].hops for i in ids.tolist()]), is_seed[rows], cluster_ids[rows]
        n, eye = rows.shape[1], np.eye(rows.shape[1], dtype=bool)
        reachable = hops > 0
        r, total = reachable.sum(axis=2), np.where(reachable, hops, 0).sum(axis=2)
        n_seeds = seeds.sum(axis=1, keepdims=True)
        related = np.where(eye, 0.0, relatedness_matrix(hops))
        peers = (labels[:, :, None] == labels[:, None, :]) & ~eye
        n_peers = peers.sum(axis=2)
        column["degree_centrality"][rows] = (hops == 1).sum(axis=2) / max(n - 1, 1)
        # Scaled by the reachable fraction so disconnected graphs stay in
        # [0, 1]; a row with nothing reachable has r = total = 0 and scores 0.
        column["closeness"][rows] = (r / max(n - 1, 1)) * (r / np.maximum(total, 1))
        near = (reachable & (hops <= 2) & seeds[:, None, :]).sum(axis=2)
        column["seeds_within_2hops"][rows] = near / np.maximum(n_seeds, 1)
        column["cluster_size_ratio"][rows] = (n_peers + 1) / n
        column["mean_intra_cluster_relatedness"][rows] = (related * peers).sum(axis=2) / np.maximum(n_peers, 1)
        seed_related = (related * seeds[:, None, :]).sum(axis=2)
        column["mean_seed_relatedness"][rows] = seed_related / np.maximum(n_seeds - seeds, 1)
    column["betweenness"][:] = np.concatenate([np.empty(0), *(betweenness(qg) for qg in batch)])
    column["pagerank"][:] = np.concatenate([np.empty(0), *pagerank_batch(batch)])
    column["is_intermediate"][:] = ~is_seed
    column["origin_tag"][:] = [bool(o and o.from_tags) for o in origins]
    column["origin_image"][:] = [bool(o and o.from_image) for o in origins]
    column["origin_both"][:] = [bool(o and o.from_tags and o.from_image) for o in origins]
    column["is_category"][:] = graph.is_category[positions]

    memo = {}  # title tokens, abstract weights, their norm and log(1 + abstract tokens)
    for p in dict.fromkeys(positions.tolist()):
        abstract = tokenize(graph.abstracts[p])
        weights = idf.tfidf(abstract)
        norm = math.sqrt(sum(w * w for w in weights.values()))
        memo[p] = set(tokenize(graph.titles[p])), weights, norm, math.log(1.0 + len(abstract))
    text = []
    for instance, end, n in zip(instances, ends.tolist(), sizes.tolist()):
        mention = tokenize(" ".join((*instance.tags, *instance.image_labels)))
        mention_tokens, mention_weights = set(mention), idf.tfidf(mention)
        mention_norm = math.sqrt(sum(w * w for w in mention_weights.values()))
        for title_tokens, weights, norm, log_length in map(memo.get, positions[end - n : end].tolist()):
            shared = len(title_tokens & mention_tokens)
            union = len(title_tokens) + len(mention_tokens) - shared
            # Over the abstract's weights in their order, as the bits depend on it.
            dot = sum(w * mention_weights[t] for t, w in weights.items() if t in mention_weights)
            cosine = dot / (norm * mention_norm) if dot != 0.0 else 0.0
            text.append((shared / union if union else 0.0, cosine, log_length))
    names = ("title_token_jaccard", "abstract_tfidf_cosine", "log_abstract_length")
    matrix[:, [FEATURE_NAMES.index(name) for name in names]] = np.reshape(text, (-1, 3))
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = batch[int(np.searchsorted(ends, np.argmin(finite), side="right"))]
        raise IntegrityError(f"instance {bad.instance_id!r}: non-finite feature value")
    if good < len(graphs):
        _check(graphs[good], partitions[good], graph)
    return [matrix[end - n : end] for end, n in zip(ends.tolist(), sizes.tolist())]


def normalize_per_query(matrix: np.ndarray) -> np.ndarray:
    """Min-max scale each column to [0, 1] within one instance's candidates.

    Boolean columns pass through unchanged; constant non-boolean columns
    collapse to 0. Normalizing twice equals normalizing once.
    """
    if not len(matrix):
        raise ValueError("normalize_per_query requires at least one row")
    lo = matrix.min(axis=0)
    span = matrix.max(axis=0) - lo
    varies = span > 1e-12
    scaled = np.where(varies, matrix - lo, 0.0) / np.where(varies, span, 1.0)
    return np.where(_BOOLEAN_COLUMNS, matrix, scaled)


def write_feature_rows(
    path: str | Path,
    matrix: np.ndarray,
    instance_ids: Sequence[str],
    doc_ids: Sequence[str],
    grades: Sequence[int | None],
) -> None:
    """Write the feature dump, a row per candidate and each instance's rows in one run.

    The file is five ``np.save`` records: the feature names and the instance
    id of each row, as strings by ``save_strings``; the int64 node id and
    grade (0 for none) of each row; and the float64 matrix, a row per
    candidate and a column per feature.
    """
    with atomic_open(path, binary=True) as fh:
        save_strings(fh, FEATURE_NAMES)
        save_strings(fh, instance_ids)
        for record in (
            np.fromiter(map(int, doc_ids), np.int64, len(doc_ids)),
            np.fromiter((grade or 0 for grade in grades), np.int64, len(grades)),
            np.ascontiguousarray(matrix, dtype=np.float64),
        ):
            np.save(fh, record, allow_pickle=False)


def _read_record(fh: io.BytesIO, path: Path, name: str, dtype: type, shape: tuple = ()) -> np.ndarray:
    """The next ``np.save`` record of ``fh``; ``ParseError`` unless it has
    ``dtype`` and ``shape``, or any one-dimensional shape when that is empty."""
    try:
        array = np.lib.format.read_array(fh, allow_pickle=False)
    except (SyntaxError, TokenError, TypeError, ValueError) as exc:  # what numpy's header parser raises
        raise ParseError(f"{path}: malformed {name} record ({exc})") from None
    expected = shape or (array.size,)
    if array.dtype != dtype or array.shape != expected:
        found = f"{array.dtype} {array.shape}"
        raise ParseError(f"{path}: the {name} record is {found}, not {np.dtype(dtype)} {expected}")
    return array


def read_feature_rows(path: str | Path) -> dict[str, tuple[list[str], np.ndarray, list[int | None]]]:
    """Read a feature dump into its doc ids (node ids as decimal strings),
    one fresh float64 matrix and grades per instance, in file order.

    A missing, malformed or cut record, another dtype or shape, bytes after
    the last record, an instance id that is not UTF-8, a grade outside
    0..5 and an instance's rows in more than one run raise ``ParseError``;
    other feature names, or a non-finite value (naming its instance and
    node), raise ``IntegrityError``.
    """
    path = Path(path)
    fh = io.BytesIO(path.read_bytes())
    names, ids = (_read_record(fh, path, name, np.uint8) for name in ("feature names", "instance id"))
    if names.tobytes() != "".join(name + "\n" for name in FEATURE_NAMES).encode():
        raise IntegrityError(f"{path}: the feature names are not those of this feature extractor")
    try:
        *instance_ids, end = str(ids, "utf-8").split("\n")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: an instance id is not valid UTF-8") from None
    n = len(instance_ids)
    node_ids = _read_record(fh, path, "node id", np.int64, (n,))
    grades = _read_record(fh, path, "grade", np.int64, (n,))
    matrix = _read_record(fh, path, "feature", np.float64, (n, len(FEATURE_NAMES)))
    if end or fh.read(1):
        raise ParseError(f"{path}: bytes follow the last instance id or the last record")
    if not np.isin(grades, [0, *VALID_GRADES]).all():
        raise ParseError(f"{path}: a grade is neither 0 (none) nor one of {sorted(VALID_GRADES)}")
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))  # the first row that is not
        raise IntegrityError(f"{path}: instance {instance_ids[row]!r}, node {node_ids[row]}: non-finite value")
    doc_ids, grade_list = list(map(str, node_ids.tolist())), [g or None for g in grades.tolist()]
    starts = [i for i in range(n) if i == 0 or instance_ids[i] != instance_ids[i - 1]]
    runs = list(zip(starts, [*starts[1:], n]))
    features = {instance_ids[a]: (doc_ids[a:b], matrix[a:b].copy(), grade_list[a:b]) for a, b in runs}
    if len(features) != len(runs):
        raise ParseError(f"{path}: the rows of an instance are not in one run")
    return features
