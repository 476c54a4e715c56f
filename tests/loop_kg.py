"""Reference loader: the per-line loop that ``load_graph`` replaced.

It builds a ``ConceptNode`` per node and a dict of neighbour tuples, and
runs every check line by line, so the first bad line in file order raises.
``tests/test_kg.py`` holds the column-wise loader to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from gistrank.errors import IntegrityError, ParseError
from gistrank.kg import ConceptNode, EdgeKind, NodeKind, normalize_title


@dataclass(frozen=True)
class LoopGraph:
    nodes: dict[int, ConceptNode]
    edges: list[tuple[int, int, EdgeKind]]
    adjacency: dict[int, tuple[int, ...]]
    title_index: dict[str, int]


def _data_lines(path: Path) -> Iterable[tuple[int, str]]:
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            yield lineno, line


def _parse_nodes(path: Path) -> tuple[dict[int, ConceptNode], dict[int, frozenset[str]]]:
    nodes: dict[int, ConceptNode] = {}
    redirect_titles: dict[int, frozenset[str]] = {}
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
        nodes[node_id] = ConceptNode(node_id, kind, title, abstract)
        redirect_titles[node_id] = redirects
    return nodes, redirect_titles


def _parse_edges(path: Path, nodes: Mapping[int, ConceptNode]) -> list[tuple[int, int, EdgeKind]]:
    edges: list[tuple[int, int, EdgeKind]] = []
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
        edges.append(triple)
    return edges


def _build_title_index(
    nodes: Mapping[int, ConceptNode],
    redirect_titles: Mapping[int, frozenset[str]],
    edges: Iterable[tuple[int, int, EdgeKind]],
) -> dict[str, int]:
    redirect_to: dict[int, int] = {}
    for src, dst, kind in edges:
        if kind is not EdgeKind.REDIRECT:
            continue
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

    index: dict[str, int] = {}
    for node_id in sorted(nodes):
        index[nodes[node_id].title] = resolve(node_id)
    for node_id in sorted(nodes):
        target = resolve(node_id)
        for alias in sorted(redirect_titles[node_id]):
            index.setdefault(alias, target)
    return index


def loop_load_graph(nodes_path: str | Path, edges_path: str | Path) -> LoopGraph:
    nodes_path, edges_path = Path(nodes_path), Path(edges_path)
    nodes, redirect_titles = _parse_nodes(nodes_path)
    edges = _parse_edges(edges_path, nodes)
    neighbor_sets: dict[int, set[int]] = {node_id: set() for node_id in nodes}
    for src, dst, kind in edges:
        if kind is EdgeKind.CATEGORY_LINK:
            neighbor_sets[src].add(dst)
            neighbor_sets[dst].add(src)
    return LoopGraph(
        nodes=dict(sorted(nodes.items())),
        edges=edges,
        adjacency={node_id: tuple(sorted(ns)) for node_id, ns in neighbor_sets.items()},
        title_index=_build_title_index(nodes, redirect_titles, edges),
    )
