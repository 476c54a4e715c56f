"""Listwise learning-to-rank: IR metrics, a linear scorer, and its trainer.

Training runs coordinate ascent directly on mean average precision: one
weight dimension at a time is probed with geometrically spaced additive
steps and a step is kept only when it improves training MAP. Weights are
renormalized to unit L1 after every accepted step, which never changes the
induced rankings. Multiple restarts (uniform, then seeded random inits)
guard against poor local optima; everything is deterministic given the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import IntegrityError, TrainingError


def average_precision(ranked_relevance: Sequence[bool]) -> float:
    """Average precision of a ranked boolean relevance list.

    Mean over relevant positions k of (relevant count in top k) / k; a list
    with no relevant item scores 0 by convention.
    """
    hits = 0
    total = 0.0
    for position, relevant in enumerate(ranked_relevance, start=1):
        if relevant:
            hits += 1
            total += hits / position
    return total / hits if hits else 0.0


def precision_at_k(ranked_relevance: Sequence[bool], k: int) -> float:
    """Precision over the first ``k`` positions with a fixed denominator.

    Lists shorter than ``k`` are treated as padded with non-relevant items.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1 for r in ranked_relevance[:k] if r) / k


def mean_metric(per_query: Sequence[float]) -> float:
    if not per_query:
        raise ValueError("mean_metric requires at least one query value")
    return float(sum(per_query)) / len(per_query)


@dataclass(frozen=True)
class TrainingExample:
    query_id: str
    doc_id: str
    features: tuple[float, ...]
    grade: int


@dataclass(frozen=True)
class Ranking:
    """Scored documents of one query, best first.

    Scores are non-increasing and ties are broken by ascending doc id, so a
    ranking is fully determined by its scores.
    """

    query_id: str
    items: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        doc_ids = [doc for doc, _ in self.items]
        if len(set(doc_ids)) != len(doc_ids):
            raise IntegrityError(f"ranking {self.query_id!r} repeats a doc id")
        for (doc_a, score_a), (doc_b, score_b) in zip(self.items, self.items[1:]):
            if score_b > score_a or (score_b == score_a and doc_b < doc_a):
                raise IntegrityError(
                    f"ranking {self.query_id!r} is not sorted at {doc_a!r}/{doc_b!r}"
                )

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(doc for doc, _ in self.items)


@dataclass(frozen=True)
class CoordinateAscentConfig:
    restarts: int = 5
    step_base: float = 0.05
    step_levels: int = 10
    min_gain: float = 1e-6
    seed: int = 0
    relevance_threshold: int = 4

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RankModel:
    """Linear scoring model: one weight per feature dimension, unit L1 norm."""

    weights: tuple[float, ...]
    feature_names: tuple[str, ...]
    training_map: float
    config: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.feature_names):
            raise IntegrityError(
                f"model has {len(self.weights)} weights for {len(self.feature_names)} features"
            )

    def score(self, vector: Sequence[float]) -> float:
        if len(vector) != len(self.weights):
            raise IntegrityError(
                f"vector of length {len(vector)} does not match model "
                f"dimensionality {len(self.weights)}"
            )
        return float(np.dot(np.asarray(self.weights), np.asarray(vector, dtype=np.float64)))


def rank(model: RankModel, candidates: Sequence[tuple[str, Sequence[float]]], query_id: str = "") -> Ranking:
    """Score candidates and sort them best-first (ties by ascending doc id)."""
    if not candidates:
        return Ranking(query_id=query_id, items=())
    matrix = np.asarray([vec for _, vec in candidates], dtype=np.float64)
    if matrix.shape[1] != len(model.weights):
        raise IntegrityError(
            f"candidate vectors have {matrix.shape[1]} dims, model expects {len(model.weights)}"
        )
    scores = matrix @ np.asarray(model.weights)
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], candidates[i][0]))
    return Ranking(
        query_id=query_id,
        items=tuple((candidates[i][0], float(scores[i])) for i in order),
    )


class _QueryBlock:
    """Training documents of one query, pre-sorted by doc id for tie-breaks."""

    def __init__(self, query_id: str, examples: list[TrainingExample], threshold: int):
        examples = sorted(examples, key=lambda e: e.doc_id)
        self.query_id = query_id
        self.matrix = np.asarray([e.features for e in examples], dtype=np.float64)
        self.relevant = np.asarray([e.grade >= threshold for e in examples], dtype=bool)
        self.n_relevant = int(self.relevant.sum())
        self.positions = np.arange(1, len(examples) + 1, dtype=np.float64)


def _batch_ap(block: _QueryBlock, scores: np.ndarray) -> np.ndarray:
    """AP of one query for a batch of score rows (shape: candidates x docs)."""
    if block.n_relevant == 0:
        return np.zeros(scores.shape[0])
    # Stable sort on negated scores keeps ascending doc-id order among ties.
    order = np.argsort(-scores, axis=1, kind="stable")
    rel = block.relevant[order]
    cum = np.cumsum(rel, axis=1)
    precision = cum / block.positions
    return (precision * rel).sum(axis=1) / block.n_relevant


def _mean_ap(blocks: list[_QueryBlock], weights: np.ndarray) -> float:
    total = 0.0
    for block in blocks:
        total += float(_batch_ap(block, (block.matrix @ weights)[None, :])[0])
    return total / len(blocks)


def _unit_l1(weights: np.ndarray) -> np.ndarray:
    norm = np.abs(weights).sum()
    if norm == 0.0:
        raise TrainingError("weight vector collapsed to zero")
    return weights / norm


def train_coordinate_ascent(
    examples: Sequence[TrainingExample],
    feature_names: Sequence[str],
    config: CoordinateAscentConfig = CoordinateAscentConfig(),
) -> RankModel:
    """Fit a linear ranker by coordinate ascent on training MAP.

    Restart 0 starts from uniform weights, later restarts from seeded random
    unit-L1 vectors. Coordinates are cycled in fixed order; for each one the
    best additive step among +/- step_base * 2^i is accepted only when it
    improves MAP by more than ``min_gain``. Training stops after a full
    cycle without an accepted move; the best restart wins (ties go to the
    lowest restart index).
    """
    n_dims = len(feature_names)
    grouped: dict[str, list[TrainingExample]] = {}
    for example in examples:
        if len(example.features) != n_dims:
            raise IntegrityError(
                f"example {example.query_id}/{example.doc_id} has "
                f"{len(example.features)} features, expected {n_dims}"
            )
        grouped.setdefault(example.query_id, []).append(example)
    if not grouped:
        raise TrainingError("no training examples")

    blocks = [
        _QueryBlock(query_id, grouped[query_id], config.relevance_threshold)
        for query_id in sorted(grouped)
    ]
    if not any(b.n_relevant > 0 for b in blocks):
        raise TrainingError("no query has a relevant document at the configured threshold")
    if not any(len(b.positions) >= 2 and b.n_relevant > 0 for b in blocks):
        raise TrainingError("need at least one query with >= 2 documents and a relevant one")

    deltas = np.array(
        [sign * config.step_base * (2.0**level) for level in range(config.step_levels) for sign in (1.0, -1.0)]
    )

    best_weights: np.ndarray | None = None
    best_map = -1.0
    for restart in range(config.restarts):
        if restart == 0:
            weights = np.full(n_dims, 1.0 / n_dims)
        else:
            rng = np.random.default_rng((config.seed, restart))
            weights = rng.standard_normal(n_dims)
            if np.abs(weights).sum() == 0.0:
                weights = np.full(n_dims, 1.0 / n_dims)
            weights = _unit_l1(weights)

        current = _mean_ap(blocks, weights)
        improved = True
        while improved:
            improved = False
            for dim in range(n_dims):
                candidate_maps = np.zeros(len(deltas))
                for block in blocks:
                    base = block.matrix @ weights
                    shifted = base[None, :] + deltas[:, None] * block.matrix[:, dim][None, :]
                    candidate_maps += _batch_ap(block, shifted)
                candidate_maps /= len(blocks)
                best_idx = int(np.argmax(candidate_maps))
                if candidate_maps[best_idx] > current + config.min_gain:
                    trial = weights.copy()
                    trial[dim] += deltas[best_idx]
                    if np.abs(trial).sum() == 0.0:
                        continue
                    weights = _unit_l1(trial)
                    new_map = candidate_maps[best_idx]
                    if new_map < current - 1e-12:
                        raise TrainingError(
                            f"training MAP decreased from {current!r} to {new_map!r}"
                        )
                    current = new_map
                    improved = True

        if current > best_map:
            best_map = current
            best_weights = weights

    if best_weights is None:
        raise TrainingError(f"no model trained: restarts must be >= 1, got {config.restarts}")
    return RankModel(
        weights=tuple(float(w) for w in best_weights),
        feature_names=tuple(feature_names),
        training_map=float(best_map),
        config=config.as_dict(),
    )


def save_model(model: RankModel, path: str | Path) -> None:
    payload = {
        "feature_names": list(model.feature_names),
        "weights": list(model.weights),
        "training_map": model.training_map,
        "config": dict(model.config),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> RankModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"{path}: not a valid model file ({exc})") from None
    return RankModel(
        weights=tuple(float(w) for w in payload["weights"]),
        feature_names=tuple(payload["feature_names"]),
        training_map=float(payload["training_map"]),
        config=payload.get("config", {}),
    )
