"""Stage 2: concept lexicon, instance vectors, and per-topic image ranking.

The lexicon is the union of each instance's top-k ranked concepts; its size
is the dimensionality of the stage-2 vectors, whose entries are the stage-1
relevance scores of the concepts an instance was ranked on. One linear
model is trained per class topic (a single shared model would order images
identically for every topic), and images are ranked per topic by score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import IntegrityError, TrainingError, int_key
from .ltr import (
    AscentStats,
    CoordinateAscentConfig,
    RankModel,
    Ranking,
    rank,
    train_coordinate_ascent,
)


@dataclass(frozen=True)
class Lexicon:
    """Ordered map from concept node id to stage-2 dimension index."""

    entries: Mapping[int, int]
    top_k: int

    def __len__(self) -> int:
        return len(self.entries)

    def feature_names(self) -> tuple[str, ...]:
        ordered = sorted(self.entries.items(), key=lambda kv: kv[1])
        return tuple(f"concept:{node_id}" for node_id, _ in ordered)

    def to_json_obj(self) -> dict:
        return {
            "top_k": self.top_k,
            "entries": {str(node_id): dim for node_id, dim in sorted(self.entries.items())},
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Lexicon":
        """Raises ``ValueError`` unless the dimensions are the integers
        0..n-1, each once, and ``top_k`` is an integer of at least 1."""
        entries, n = {int_key(node_id): dim for node_id, dim in obj["entries"].items()}, len(obj["entries"])
        if any(type(dim) is not int for dim in entries.values()) or sorted(entries.values()) != list(range(n)):
            raise ValueError(f"lexicon dimensions must be the integers 0..{n - 1}, each once")
        top_k = obj["top_k"]
        if type(top_k) is not int or top_k < 1:
            raise ValueError(f"lexicon top_k must be an integer >= 1, got {top_k!r}")
        return cls(entries=entries, top_k=top_k)


@dataclass(frozen=True)
class InstanceVector:
    """Sparse stage-2 vector: dimension index -> stage-1 relevance score."""

    instance_id: str
    entries: Mapping[int, float]


def stack_vectors(vectors: Sequence[InstanceVector], size: int) -> np.ndarray:
    """The dense (vectors x size) float64 matrix of ``vectors``, a row each in order."""
    matrix = np.zeros((len(vectors), size))
    for row, vector in zip(matrix, vectors):
        dims = list(vector.entries)
        if dims and max(dims) >= size:
            raise IntegrityError(
                f"instance {vector.instance_id!r}: dimension {max(dims)} exceeds lexicon size {size}"
            )
        row[dims] = list(vector.entries.values())
    return matrix


def build_lexicon(stage1_rankings: Mapping[str, Ranking], top_k: int = 10) -> Lexicon:
    """Union of the top-k ranked concepts across instances.

    Dimensions are assigned in ascending node-id order, so the lexicon is
    deterministic and only ever grows as instances are added.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    concept_ids: set[int] = set()
    for ranking in stage1_rankings.values():
        concept_ids.update(int(doc_id) for doc_id in ranking.doc_ids[:top_k])
    return Lexicon(
        entries={node_id: dim for dim, node_id in enumerate(sorted(concept_ids))},
        top_k=top_k,
    )


def vectorize(ranking: Ranking, lexicon: Lexicon) -> InstanceVector:
    """Project a stage-1 ranking onto the lexicon dimensions.

    Every ranked concept present in the lexicon contributes its score;
    concepts outside the lexicon are dropped and missing dimensions are 0.
    """
    entries: dict[int, float] = {}
    for doc_id, score in ranking.items:
        dim = lexicon.entries.get(int(doc_id))
        if dim is not None:
            entries[dim] = score
    return InstanceVector(instance_id=ranking.query_id, entries=entries)


def train_topic_models(
    vectors: Sequence[InstanceVector],
    gold: Mapping[str, frozenset[str] | set[str]],
    topics: Sequence[str],
    lexicon: Lexicon,
    config: CoordinateAscentConfig = CoordinateAscentConfig(relevance_threshold=1),
    stats: AscentStats | None = None,
) -> dict[str, RankModel]:
    """Train one ranking model per topic over the lexicon dimensions, by
    topic in the order of ``topics``.

    For each topic the topic is the query and the instances are the
    documents, graded 1 when the topic is in the instance's gold set and 0
    otherwise. Topics without both a positive and a negative instance
    cannot be trained. ``stats`` is passed on to ``train_coordinate_ascent``.
    """
    ordered = sorted(vectors, key=lambda v: v.instance_id)
    matrix = stack_vectors(ordered, len(lexicon))
    problems = []
    for topic in topics:
        grades = np.array([topic in gold.get(v.instance_id, ()) for v in ordered], dtype=int)
        positives = int(grades.sum())
        if positives == 0:
            raise TrainingError(f"topic {topic!r} has no positive training instance")
        if positives == len(grades):
            raise TrainingError(f"topic {topic!r} has no negative training instance")
        # Every topic ranks the one matrix object, so the trainer holds it once.
        problems.append([(matrix, grades)])
    models = train_coordinate_ascent(problems, lexicon.feature_names(), config, stats)
    return dict(zip(topics, models))


def rank_images(
    models: Mapping[str, RankModel], vectors: Sequence[InstanceVector]
) -> dict[str, Ranking]:
    """Rank every instance under each topic model (ties by ascending id).

    The vectors are stacked once, in the given order, and each topic scores
    that matrix with its own product: one product for all topics rounds
    some scores differently.
    """
    if not models:
        return {}
    matrix = stack_vectors(vectors, len(next(iter(models.values())).weights))
    ids = [v.instance_id for v in vectors]
    return {topic: rank(model, ids, matrix, query_id=topic) for topic, model in models.items()}

