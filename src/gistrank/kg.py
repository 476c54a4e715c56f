"""Knowledge-graph store: concept nodes, link edges, and title lookup.

Article pages and categories are the concepts; category links and redirects
are the edges. Category-link adjacency is undirected so that paths between
two articles can ascend into and descend out of the category layer. Redirect
edges alias titles onto their target node and are never traversed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import eq, ge, is_not, le, ne, not_, or_
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import GistRankError, IntegrityError, NotFoundError, ParseError, read_lines

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


class NodeKind(enum.Enum):
    ARTICLE = "article"
    CATEGORY = "category"


class EdgeKind(enum.Enum):
    CATEGORY_LINK = "category_link"
    REDIRECT = "redirect"


_NODE_KINDS = frozenset(k.value for k in NodeKind)
_EDGE_KINDS = frozenset(k.value for k in EdgeKind)


def normalize_title(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace to single spaces."""
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class ConceptNode:
    """One concept: an article or a category.

    Titles are stored normalized. Only articles may carry an abstract;
    categories keep it empty.
    """

    node_id: int
    kind: NodeKind
    title: str
    abstract_text: str = ""

    @property
    def is_category(self) -> bool:
        return self.kind is NodeKind.CATEGORY


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """Immutable concept graph held as arrays, indexed by node position.

    ``ids`` holds the node ids ascending (not necessarily dense); a node's
    position is its index there, found by binary search, and
    ``is_category``, ``titles`` and ``abstracts`` follow the same order.
    ``indptr``/``indices`` is the CSR adjacency of the category-link edges
    over positions: symmetric, each row's neighbours ascending.
    ``title_index`` maps every normalized title, in position order, and
    after them every redirect title that is no node's title to a node id,
    with redirect edges already resolved to their target; the redirects
    themselves are not kept. Every array is read-only, so the stages and
    modes of a run share one graph unchanged.
    """

    ids: np.ndarray
    is_category: np.ndarray
    titles: Sequence[str] = field(repr=False)
    abstracts: Sequence[str] = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    title_index: Mapping[str, int] = field(repr=False)

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[int],
        is_category: Sequence[bool],
        titles: Sequence[str],
        abstracts: Sequence[str],
        redirect_titles: Mapping[int, frozenset[str]],
        ends: np.ndarray | Sequence[tuple[int, int]],
        edge_is_redirect: Sequence[bool],
    ) -> "KnowledgeGraph":
        """Index checked node columns, in ascending id order, and the edges
        between them, as (src, dst) rows of node positions; the redirect
        titles (by carrier id) and redirect edges go into ``title_index``.

        Raises IntegrityError on a node with two redirect targets or a
        redirect cycle.
        """
        node_ids = np.asarray(ids, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
        redirect = np.asarray(edge_is_redirect, dtype=bool)
        n = len(node_ids)
        a, b = ends[~redirect].T
        pairs = np.sort(np.concatenate([a * n + b, b * n + a]))
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # a link listed both ways counts once
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs // n, minlength=n), out=indptr[1:])
        return cls(
            ids=node_ids,
            is_category=np.asarray(is_category, dtype=bool),
            titles=list(titles),
            abstracts=list(abstracts),
            indptr=indptr,
            indices=pairs % n,
            title_index=_title_index(
                node_ids.tolist(), titles, redirect_titles, node_ids[ends[redirect]].tolist()
            ),
        )

    def __post_init__(self) -> None:
        for array in (self.ids, self.is_category, self.indptr, self.indices):
            array.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def edges(self) -> np.ndarray:
        """Each category link once, as an ascending (id, id) row, in ascending
        row order; derived from the CSR on each call."""
        rows = np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))
        upper = rows < self.indices
        return self.ids[np.stack([rows[upper], self.indices[upper]], axis=1)]

    @property
    def nodes(self) -> Mapping[int, ConceptNode]:
        """Read-only view from node id to its ``ConceptNode``, built on demand."""
        return _NodeView(self)

    def position(self, node_id: int) -> int:
        return int(self.positions_of([node_id])[0])

    def positions_of(self, node_ids: Sequence[int]) -> np.ndarray:
        """The positions of ``node_ids``, by binary search in ``ids``; raises
        NotFoundError naming the first of them that is no node's id."""
        at, found = _search(self.ids, node_ids)
        if not all(found):
            raise NotFoundError(f"unknown node id {node_ids[found.index(False)]}")
        return at

    def node(self, node_id: int) -> ConceptNode:
        p = self.position(node_id)
        return ConceptNode(
            node_id,
            NodeKind.CATEGORY if self.is_category[p] else NodeKind.ARTICLE,
            self.titles[p],
            self.abstracts[p],
        )

    def lookup_title(self, mention: str) -> int | None:
        """Resolve a mention to a node id, or None when nothing matches.

        The mention is normalized exactly like node titles, so lookups are
        insensitive to case and surrounding/internal whitespace.
        """
        return self.title_index.get(normalize_title(mention))


def _search(ids: np.ndarray, node_ids: Sequence[int]) -> tuple[np.ndarray, list[bool]]:
    """Binary search of ``node_ids`` in the ascending ``ids``: where each
    one is or would go, and whether it is there."""
    keys = np.asarray(node_ids)
    if keys.dtype == np.int64 and len(ids):
        at = np.searchsorted(ids, keys)
        return at, (ids[np.minimum(at, len(ids) - 1)] == keys).tolist()
    # Other ids are clipped into int64 for the search only: a found id must equal the one asked.
    at = np.searchsorted(ids, [min(max(v, _INT64_MIN), _INT64_MAX) for v in node_ids])
    held = ids[np.minimum(at, len(ids) - 1)].tolist() if len(ids) else [None] * len(at)
    return at, list(map(eq, held, node_ids))


class _NodeView(Mapping[int, ConceptNode]):
    def __init__(self, graph: KnowledgeGraph) -> None:
        self._graph = graph

    def __getitem__(self, node_id: int) -> ConceptNode:
        try:
            return self._graph.node(node_id)
        except NotFoundError:
            raise KeyError(node_id) from None

    def __iter__(self) -> Iterator[int]:
        return iter(self._graph.ids.tolist())

    def __len__(self) -> int:
        return self._graph.n_nodes


def _title_index(
    ids: list[int],
    titles: Sequence[str],
    redirect_titles: Mapping[int, frozenset[str]],
    redirects: Iterable[Sequence[int]],
) -> dict[str, int]:
    # Redirect edges re-point a source node's titles at the edge target.
    redirect_to: dict[int, int] = {}
    for src, dst in redirects:
        if src in redirect_to:
            raise IntegrityError(f"node {src} has conflicting redirect edges")
        redirect_to[src] = dst

    def resolve(node_id: int) -> int:
        seen = {node_id}
        while node_id in redirect_to:
            node_id = redirect_to[node_id]
            if node_id in seen:
                raise IntegrityError(f"redirect cycle through node {node_id}")
            seen.add(node_id)
        return node_id

    resolved = {node_id: resolve(node_id) for node_id in sorted(redirect_to)}
    # Primary titles first: they always win over redirect aliases.
    index = dict(zip(titles, [resolved.get(i, i) for i in ids]))
    for node_id in sorted(redirect_titles):
        target = resolved.get(node_id, node_id)
        for alias in sorted(redirect_titles[node_id]):
            # An alias never shadows a primary title; among competing
            # aliases the lowest carrier id wins.
            index.setdefault(alias, target)
    return index


class _Rows:
    """The data lines of one TSV file, as columns, and the first error in them.

    Blank lines and lines starting with ``#`` are not data lines; a line that
    is not UTF-8 ends them and is the pending error. Each check scans the
    rows before the earliest error found so far (``limit``), which passed
    every earlier check, and lowers ``limit`` to the first row it fails. So
    the error left at the end is the one that running the checks in order on
    each line, line after line, meets first.
    """

    def __init__(self, path: Path, n_fields: int) -> None:
        self.path = path
        lines = read_lines(path)
        end = lines.index(None) if None in lines else len(lines)
        self.error: GistRankError | None = None
        if end < len(lines):
            self.error = ParseError(f"{path}:{end + 1}: line is not valid UTF-8")
        self.linenos = [
            i for i, line in enumerate(lines[:end], 1)
            if line and line[0] != "#" and not line.isspace()
        ]
        data = [lines[i - 1] for i in self.linenos]
        del lines
        self.limit = len(data)
        tabs = list(map(str.count, data, repeat("\t")))
        self.check(
            map(eq, tabs, repeat(n_fields - 1)),
            lambda r: ParseError(
                f"{self.where(r)}: expected {n_fields} tab-separated fields, got {tabs[r] + 1}"
            ),
        )
        cells = "\t".join(data[: self.limit]).split("\t") if self.limit else []
        del data
        # The fields of the rows before ``limit``, one list per column.
        self.columns = [cells[i::n_fields] for i in range(n_fields)]

    def where(self, row: int) -> str:
        return f"{self.path}:{self.linenos[row]}"

    def check(self, ok: Iterable[object], error: Callable[[int], GistRankError]) -> None:
        """Fail the first row whose ``ok`` entry is false."""
        self.fail(next(compress(count(), map(not_, ok)), None), error)

    def fail(self, row: int | None, error: Callable[[int], GistRankError]) -> None:
        if row is not None and row < self.limit:
            self.limit, self.error = row, error(row)

    def first_repeat(self, values: Sequence, error: Callable[[int, int], GistRankError]) -> None:
        """Fail the first row that repeats an earlier row's value; ``error``
        gets that row and the row that first held the value."""
        values = values[: self.limit]
        if len(set(values)) == len(values):
            return
        first: dict = {}
        for row, value in enumerate(values):
            if value in first:
                return self.fail(row, lambda r: error(r, first[value]))
            first[value] = row

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


def _ints(raw: Sequence[str]) -> list[int | None]:
    try:
        return list(map(int, raw))
    except ValueError:
        return [_int_or_none(s) for s in raw]


def _int_or_none(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _read_nodes(
    path: Path,
) -> tuple[np.ndarray, np.ndarray, list[str], list[str], dict[int, frozenset[str]]]:
    """A node file's checked columns in ascending id order: ids, category
    flags, normalized titles and abstracts; and the redirect titles of the
    nodes that carry any, in file order."""
    rows = _Rows(path, 5)
    raw_ids, kinds, raw_titles, raw_redirects, abstracts = rows.columns
    parsed = _ints(raw_ids)
    rows.check(
        map(is_not, parsed, repeat(None)),
        lambda r: ParseError(f"{rows.where(r)}: node id {raw_ids[r]!r} is not an integer"),
    )
    ids: list[int] = parsed[: rows.limit]  # type: ignore[assignment]
    rows.check(
        map(ge, ids, repeat(0)),
        lambda r: ParseError(f"{rows.where(r)}: node id must be non-negative"),
    )
    rows.check(
        map(le, ids, repeat(_INT64_MAX)),
        lambda r: ParseError(f"{rows.where(r)}: node id {raw_ids[r]!r} is out of range"),
    )
    rows.check(
        map(_NODE_KINDS.__contains__, kinds[: rows.limit]),
        lambda r: ParseError(f"{rows.where(r)}: unknown node kind {kinds[r]!r}"),
    )
    # normalize_title, column-wise
    titles = list(map(" ".join, map(str.split, map(str.lower, raw_titles[: rows.limit]))))
    rows.check(titles, lambda r: ParseError(f"{rows.where(r)}: empty title"))
    rows.first_repeat(
        ids, lambda r, _: IntegrityError(f"{rows.where(r)}: duplicate node id {ids[r]}")
    )
    rows.first_repeat(
        titles,
        lambda r, first: IntegrityError(
            f"{rows.where(r)}: duplicate title {titles[r]!r} (also node {ids[first]})"
        ),
    )
    n = rows.limit
    is_category = list(map(NodeKind.CATEGORY.value.__eq__, kinds[:n]))
    redirect_titles = {}
    for r in compress(range(n), raw_redirects):
        aliases = frozenset(t for t in map(normalize_title, raw_redirects[r].split("|")) if t)
        if aliases:
            redirect_titles[ids[r]] = aliases
    carrying = (r for r in compress(range(n), is_category) if ids[r] in redirect_titles or abstracts[r])
    rows.fail(
        next(carrying, None),
        lambda r: IntegrityError(
            f"{rows.where(r)}: category {titles[r]!r} must not carry redirect titles or an abstract"
        ),
    )
    rows.raise_first()
    node_ids = np.asarray(ids, dtype=np.int64)
    order = np.argsort(node_ids, kind="stable")
    picks = order.tolist()
    return (
        node_ids[order],
        np.asarray(is_category, dtype=bool)[order],
        [titles[i] for i in picks],
        [abstracts[i] for i in picks],
        redirect_titles,
    )


def _read_edges(
    path: Path, ids: np.ndarray, is_category: np.ndarray
) -> tuple[np.ndarray, list[bool]]:
    """An edge file's checked edges, as (src, dst) rows of node positions in
    file order, and which of them are redirects; ``ids`` and ``is_category``
    are the node columns in ascending id order."""
    rows = _Rows(path, 3)
    raw_src, raw_dst, edge_kinds = rows.columns
    src, dst = _ints(raw_src), _ints(raw_dst)
    for ends in (src, dst):
        rows.check(
            map(is_not, ends, repeat(None)),
            lambda r: ParseError(f"{rows.where(r)}: edge endpoints must be integers"),
        )
    rows.check(
        map(_EDGE_KINDS.__contains__, edge_kinds[: rows.limit]),
        lambda r: ParseError(f"{rows.where(r)}: unknown edge kind {edge_kinds[r]!r}"),
    )
    src_at, src_found = _search(ids, src[: rows.limit])
    dst_at, dst_found = _search(ids, dst[: rows.limit])
    for ends, found in ((src, src_found), (dst, dst_found)):
        rows.check(
            found,
            lambda r: IntegrityError(f"{rows.where(r)}: edge references unknown node {ends[r]}"),
        )
    rows.check(
        map(ne, src, dst),
        lambda r: IntegrityError(f"{rows.where(r)}: self-loop on node {src[r]}"),
    )
    m = rows.limit
    is_redirect = list(map(EdgeKind.REDIRECT.value.__eq__, edge_kinds[:m]))
    # One integer per (src, dst, kind) triple, from the endpoints' positions in the ascending ids.
    keys = (src_at[:m] * len(ids) + dst_at[:m]) * 2 + np.asarray(is_redirect, dtype=np.int64)
    rows.first_repeat(
        keys.tolist(),
        lambda r, _: IntegrityError(
            f"{rows.where(r)}: duplicate edge {src[r]}->{dst[r]} ({edge_kinds[r]})"
        ),
    )
    dst_is_category = is_category[dst_at[: rows.limit]].tolist()
    rows.check(
        map(or_, is_redirect, dst_is_category),
        lambda r: IntegrityError(
            f"{rows.where(r)}: category link {src[r]}->{dst[r]} must point at a category"
        ),
    )
    rows.raise_first()
    return np.stack([src_at, dst_at], axis=1), is_redirect


def load_graph(nodes_path: str | Path, edges_path: str | Path) -> KnowledgeGraph:
    """Load and index a knowledge graph from the TSV node/edge files.

    Each file is read once and checked a column at a time; the first bad
    line in file order decides the error. Raises ParseError on a line that
    is not UTF-8 or is malformed (naming file and line number) and
    IntegrityError on duplicate ids or titles, duplicate edges, or edges that
    reference unknown nodes.
    """
    ids, is_category, titles, abstracts, redirect_titles = _read_nodes(Path(nodes_path))
    ends, is_redirect = _read_edges(Path(edges_path), ids, is_category)
    return KnowledgeGraph.from_columns(
        ids, is_category, titles, abstracts, redirect_titles, ends, is_redirect
    )
