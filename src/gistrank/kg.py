"""Knowledge-graph store: concept nodes, link edges, and title lookup.

Article pages and categories are the concepts; category links and redirects
are the edges. Category-link adjacency is undirected so that paths between
two articles can ascend into and descend out of the category layer. Redirect
edges alias titles onto their target node and are never traversed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import IntegrityError, NotFoundError, ParseError


class NodeKind(enum.Enum):
    ARTICLE = "article"
    CATEGORY = "category"


class EdgeKind(enum.Enum):
    CATEGORY_LINK = "category_link"
    REDIRECT = "redirect"


def normalize_title(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace to single spaces."""
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class ConceptNode:
    """One concept: an article or a category.

    Titles are stored normalized. Only articles may carry redirect titles
    and an abstract; categories keep both empty.
    """

    node_id: int
    kind: NodeKind
    title: str
    redirect_titles: frozenset[str] = frozenset()
    abstract_text: str = ""

    @property
    def is_category(self) -> bool:
        return self.kind is NodeKind.CATEGORY


@dataclass(frozen=True)
class KgEdge:
    src: int
    dst: int
    kind: EdgeKind


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable, fully indexed concept graph.

    ``adjacency`` covers category-link edges only and is symmetric;
    ``title_index`` maps every normalized title and redirect title to a
    node id, with redirect edges already resolved to their target.
    Safe to share across threads after construction.
    """

    nodes: Mapping[int, ConceptNode]
    edges: tuple[KgEdge, ...]
    adjacency: Mapping[int, tuple[int, ...]] = field(repr=False)
    title_index: Mapping[str, int] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> ConceptNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NotFoundError(f"unknown node id {node_id}") from None

    def lookup_title(self, mention: str) -> int | None:
        """Resolve a mention to a node id, or None when nothing matches.

        The mention is normalized exactly like node titles, so lookups are
        insensitive to case and surrounding/internal whitespace.
        """
        return self.title_index.get(normalize_title(mention))

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        if node_id not in self.nodes:
            raise NotFoundError(f"unknown node id {node_id}")
        return self.adjacency.get(node_id, ())


def _data_lines(path: Path) -> Iterable[tuple[int, str]]:
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            yield lineno, line


def _parse_nodes(path: Path) -> dict[int, ConceptNode]:
    nodes: dict[int, ConceptNode] = {}
    seen_titles: dict[str, int] = {}
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(
                f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}"
            )
        raw_id, raw_kind, raw_title, raw_redirects, abstract = parts
        try:
            node_id = int(raw_id)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: node id {raw_id!r} is not an integer") from None
        if node_id < 0:
            raise ParseError(f"{path}:{lineno}: node id must be non-negative")
        try:
            kind = NodeKind(raw_kind)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: unknown node kind {raw_kind!r}") from None
        title = normalize_title(raw_title)
        if not title:
            raise ParseError(f"{path}:{lineno}: empty title")
        if node_id in nodes:
            raise IntegrityError(f"{path}:{lineno}: duplicate node id {node_id}")
        if title in seen_titles:
            raise IntegrityError(
                f"{path}:{lineno}: duplicate title {title!r} "
                f"(also node {seen_titles[title]})"
            )
        redirects = frozenset(
            normalize_title(t) for t in raw_redirects.split("|") if normalize_title(t)
        )
        if kind is NodeKind.CATEGORY and (redirects or abstract):
            raise IntegrityError(
                f"{path}:{lineno}: category {title!r} must not carry "
                "redirect titles or an abstract"
            )
        seen_titles[title] = node_id
        nodes[node_id] = ConceptNode(node_id, kind, title, redirects, abstract)
    return nodes


def _parse_edges(path: Path, nodes: Mapping[int, ConceptNode]) -> list[KgEdge]:
    edges: list[KgEdge] = []
    seen: set[tuple[int, int, EdgeKind]] = set()
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
            )
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: edge endpoints must be integers") from None
        try:
            kind = EdgeKind(parts[2])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: unknown edge kind {parts[2]!r}") from None
        for endpoint in (src, dst):
            if endpoint not in nodes:
                raise IntegrityError(f"{path}:{lineno}: edge references unknown node {endpoint}")
        if src == dst:
            raise IntegrityError(f"{path}:{lineno}: self-loop on node {src}")
        triple = (src, dst, kind)
        if triple in seen:
            raise IntegrityError(f"{path}:{lineno}: duplicate edge {src}->{dst} ({kind.value})")
        if kind is EdgeKind.CATEGORY_LINK and not nodes[dst].is_category:
            raise IntegrityError(
                f"{path}:{lineno}: category link {src}->{dst} must point at a category"
            )
        seen.add(triple)
        edges.append(KgEdge(src, dst, kind))
    return edges


def _build_title_index(
    nodes: Mapping[int, ConceptNode], edges: Iterable[KgEdge]
) -> dict[str, int]:
    # Redirect edges re-point a source node's titles at the edge target.
    redirect_to: dict[int, int] = {}
    for edge in edges:
        if edge.kind is not EdgeKind.REDIRECT:
            continue
        if edge.src in redirect_to:
            raise IntegrityError(f"node {edge.src} has conflicting redirect edges")
        redirect_to[edge.src] = edge.dst

    def resolve(node_id: int) -> int:
        seen = {node_id}
        while node_id in redirect_to:
            node_id = redirect_to[node_id]
            if node_id in seen:
                raise IntegrityError(f"redirect cycle through node {node_id}")
            seen.add(node_id)
        return node_id

    index: dict[str, int] = {}
    # Primary titles first: they always win over redirect aliases.
    for node_id in sorted(nodes):
        index[nodes[node_id].title] = resolve(node_id)
    for node_id in sorted(nodes):
        target = resolve(node_id)
        for alias in sorted(nodes[node_id].redirect_titles):
            # An alias never shadows a primary title; among competing
            # aliases the lowest carrier id wins.
            index.setdefault(alias, target)
    return index


def load_graph(nodes_path: str | Path, edges_path: str | Path) -> KnowledgeGraph:
    """Load and index a knowledge graph from the TSV node/edge files.

    Raises ParseError on malformed lines (naming file and line number) and
    IntegrityError on duplicate titles, duplicate edges, or edges that
    reference unknown nodes.
    """
    nodes_path, edges_path = Path(nodes_path), Path(edges_path)
    nodes = _parse_nodes(nodes_path)
    edges = _parse_edges(edges_path, nodes)

    neighbor_sets: dict[int, set[int]] = {node_id: set() for node_id in nodes}
    for edge in edges:
        if edge.kind is EdgeKind.CATEGORY_LINK:
            neighbor_sets[edge.src].add(edge.dst)
            neighbor_sets[edge.dst].add(edge.src)
    adjacency = {node_id: tuple(sorted(ns)) for node_id, ns in neighbor_sets.items()}

    return KnowledgeGraph(
        nodes=dict(sorted(nodes.items())),
        edges=tuple(edges),
        adjacency=adjacency,
        title_index=_build_title_index(nodes, edges),
    )


def save_graph(graph: KnowledgeGraph, nodes_path: str | Path, edges_path: str | Path) -> None:
    """Write a graph back to the TSV file format (round-trips with load_graph)."""
    with Path(nodes_path).open("w", encoding="utf-8") as fh:
        for node_id in sorted(graph.nodes):
            node = graph.nodes[node_id]
            fh.write(
                "\t".join(
                    (
                        str(node.node_id),
                        node.kind.value,
                        node.title,
                        "|".join(sorted(node.redirect_titles)),
                        node.abstract_text,
                    )
                )
                + "\n"
            )
    with Path(edges_path).open("w", encoding="utf-8") as fh:
        for edge in graph.edges:
            fh.write(f"{edge.src}\t{edge.dst}\t{edge.kind.value}\n")
