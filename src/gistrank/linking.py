"""String-match concept linking from tags and image labels to seed nodes.

Every tag (and, when enabled, every image object label) is looked up as a
whole string against the knowledge-graph title index. Matches become seed
nodes carrying origin flags; unmatched mentions are dropped. An instance
with no linkable mention yields an empty seed set, which is a valid result.
"""

from __future__ import annotations

import enum
import json
import logging
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from .errors import IntegrityError, read_lines
from .kg import KnowledgeGraph, normalize_title

logger = logging.getLogger(__name__)

VALID_GRADES = frozenset({1, 2, 3, 4, 5})


class LinkMode(enum.Enum):
    TAGS_ONLY = "tags_only"
    TAGS_AND_IMAGE = "tags_and_image"


@dataclass(frozen=True)
class SeedOrigin:
    """Where a seed was mentioned: in the tags, the image labels, or both."""

    from_tags: bool = False
    from_image: bool = False

    def merged(self, other: "SeedOrigin") -> "SeedOrigin":
        return SeedOrigin(
            from_tags=self.from_tags or other.from_tags,
            from_image=self.from_image or other.from_image,
        )


def seeds_to_json(seeds: Mapping[int, SeedOrigin]) -> list[dict]:
    """The JSON form of a seed map: one object per seed, in ascending node id."""
    return [
        {"id": nid, "from_tags": o.from_tags, "from_image": o.from_image}
        for nid, o in sorted(seeds.items())
    ]


# Parsed seeds share the four possible origins: the features stage holds every
# query graph it reads, and an object per seed would be a quarter of their memory.
_ORIGINS = {(t, i): SeedOrigin(t, i) for t in (False, True) for i in (False, True)}


def seeds_from_json(items: Sequence[dict]) -> dict[int, SeedOrigin]:
    """The seed map written by :func:`seeds_to_json`; raises ``ValueError``
    when a seed id is not a JSON integer or an origin flag not a boolean,
    or when two of ``items`` name one node id."""
    flags = {s["id"]: (s["from_tags"], s["from_image"]) for s in items}
    # Checked by type, as int() reads 9.9 as 9 and _ORIGINS[1, 0] hits (1 == True).
    if not all(type(v) is int and type(t) is type(i) is bool for v, (t, i) in flags.items()):
        raise ValueError("a seed id is not an integer or an origin flag not a boolean")
    if len(flags) != len(items):
        raise ValueError("two seeds name one node id")
    return {v: _ORIGINS[origin] for v, origin in flags.items()}


@dataclass(frozen=True)
class Instance:
    """One image-text pair: tags, detected object labels, and gold data."""

    instance_id: str
    tags: tuple[str, ...] = ()
    image_labels: tuple[str, ...] = ()
    topics: frozenset[str] = frozenset()
    concept_grades: Mapping[int, int] | None = None

    def __post_init__(self) -> None:
        if self.concept_grades:
            bad = {g for g in self.concept_grades.values() if g not in VALID_GRADES}
            if bad:
                raise IntegrityError(
                    f"instance {self.instance_id!r}: concept grades must be in 1..5, got {sorted(bad)}"
                )


@dataclass
class SeedSet:
    """Linked seeds of one instance, keyed by node id."""

    instance_id: str
    seeds: dict[int, SeedOrigin] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"instance_id": self.instance_id, "seeds": seeds_to_json(self.seeds)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SeedSet":
        return cls(instance_id=obj["instance_id"], seeds=seeds_from_json(obj["seeds"]))


@dataclass(frozen=True)
class LinkReport:
    """Corpus-level linking statistics, split by mention origin.

    Totals count every mention occurrence; unique columns count distinct
    normalized mention strings; empty columns count instances with no tags
    or no image labels at all.
    """

    total_candidates_tags: int = 0
    total_seeds_tags: int = 0
    total_candidates_image: int = 0
    total_seeds_image: int = 0
    unique_candidates_tags: int = 0
    unique_seeds_tags: int = 0
    unique_candidates_image: int = 0
    unique_seeds_image: int = 0
    empty_instances_tags: int = 0
    empty_instances_image: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def link_instance(graph: KnowledgeGraph, instance: Instance, mode: LinkMode) -> SeedSet:
    """Link an instance's mentions to seed nodes with origin flags.

    Mentions are matched as whole strings only. A mention that appears in
    both the tags and the image labels produces one seed with both flags.
    """
    seeds: dict[int, SeedOrigin] = {}

    def add(mention: str, origin: SeedOrigin) -> None:
        node_id = graph.lookup_title(mention)
        if node_id is None:
            return
        seeds[node_id] = seeds.get(node_id, SeedOrigin()).merged(origin)

    for tag in instance.tags:
        add(tag, SeedOrigin(from_tags=True))
    if mode is LinkMode.TAGS_AND_IMAGE:
        for label in instance.image_labels:
            add(label, SeedOrigin(from_image=True))
    return SeedSet(instance_id=instance.instance_id, seeds=seeds)


def corpus_link_stats(graph: KnowledgeGraph, corpus: Sequence[Instance]) -> LinkReport:
    """Count linkage statistics for every instance in the corpus.

    The merge is order-independent: totals are plain sums and the unique
    columns are unions of normalized mention strings.
    """
    totals = {"tags": 0, "image": 0}
    linked = {"tags": 0, "image": 0}
    unique_candidates: dict[str, set[str]] = {"tags": set(), "image": set()}
    unique_seeds: dict[str, set[str]] = {"tags": set(), "image": set()}
    empty = {"tags": 0, "image": 0}

    for instance in corpus:
        for side, mentions in (("tags", instance.tags), ("image", instance.image_labels)):
            if not mentions:
                empty[side] += 1
            for mention in mentions:
                norm = normalize_title(mention)
                totals[side] += 1
                unique_candidates[side].add(norm)
                if graph.lookup_title(mention) is not None:
                    linked[side] += 1
                    unique_seeds[side].add(norm)

    return LinkReport(
        total_candidates_tags=totals["tags"],
        total_seeds_tags=linked["tags"],
        total_candidates_image=totals["image"],
        total_seeds_image=linked["image"],
        unique_candidates_tags=len(unique_candidates["tags"]),
        unique_seeds_tags=len(unique_seeds["tags"]),
        unique_candidates_image=len(unique_candidates["image"]),
        unique_seeds_image=len(unique_seeds["image"]),
        empty_instances_tags=empty["tags"],
        empty_instances_image=empty["image"],
    )


def _instance_from_record(obj: dict) -> Instance:
    if not isinstance(obj, dict) or "id" not in obj:
        raise IntegrityError("corpus record must be an object with an 'id' key")
    if not isinstance(obj["id"], str):
        raise ValueError("id must be a string")
    tags, image_labels, topics = (obj.get(key, []) for key in ("tags", "image_labels", "topics"))
    # A string is iterable too, and would be read one character at a time.
    if not all(isinstance(value, list) for value in (tags, image_labels, topics)):
        raise ValueError("tags, image_labels and topics must be arrays")
    if not all(isinstance(text, str) for text in (*tags, *image_labels, *topics)):
        raise ValueError("tags, image_labels and topics must hold strings")
    given = {} if obj.get("concept_grades") is None else obj["concept_grades"]
    if not isinstance(given, dict):
        raise ValueError("concept_grades must be an object")
    # int() would truncate 4.9 and read true as 1.
    if not all(type(v) is int for v in given.values()):
        raise ValueError("concept grades must be integers")
    grades = {int(k): v for k, v in given.items()}
    # int() reads "7" and " 7" as one node id.
    if len(grades) != len(given):
        raise ValueError("two concept grades name one node id")
    instance = Instance(
        instance_id=obj["id"],
        tags=tuple(tags),
        image_labels=tuple(image_labels),
        topics=frozenset(topics),
        concept_grades=grades or None,
    )
    # A JSON escape can spell a lone surrogate, which has no UTF-8 encoding,
    # or a newline, which ends an instance id in the feature dump.
    try:
        "".join((instance.instance_id, *instance.tags, *instance.image_labels, *instance.topics)).encode()
    except UnicodeEncodeError:
        raise ValueError("not valid UTF-8") from None
    if "\n" in instance.instance_id:
        raise ValueError("instance id holds a newline")
    return instance


def read_corpus(path: str | Path) -> list[Instance]:
    """Read a JSON-lines corpus file.

    ``id`` is a JSON string, ``tags``, ``image_labels`` and ``topics`` are
    arrays of strings, and ``concept_grades`` an object of integer grades by
    node id (absent or null: no grades). Unreadable records (a line that is
    not UTF-8, not JSON, or not a valid record, such as one with a field or
    an array element of another JSON type, a grade that is not a JSON
    integer or a key that ``int()`` cannot read, a string in the record with
    no UTF-8 encoding, an instance id holding a newline, or two concept
    grades for one node id) are skipped with a warning instead of aborting
    the whole run; duplicate instance ids are an integrity error.
    """
    instances: list[Instance] = []
    seen: set[str] = set()
    path = Path(path)
    for lineno, raw in enumerate(read_lines(path), start=1):
        if raw is None:
            logger.warning("%s:%d: skipping unreadable record (not valid UTF-8)", path, lineno)
            continue
        line = raw.strip()
        if not line:
            continue
        try:
            instance = _instance_from_record(json.loads(line))
        except (IntegrityError, KeyError, TypeError, ValueError) as exc:
            logger.warning("%s:%d: skipping unreadable record (%s)", path, lineno, exc)
            continue
        if instance.instance_id in seen:
            raise IntegrityError(
                f"{path}:{lineno}: duplicate instance id {instance.instance_id!r}"
            )
        seen.add(instance.instance_id)
        instances.append(instance)
    return instances

