"""Listwise learning-to-rank: IR metrics, a linear scorer, and its trainer.

Training runs coordinate ascent directly on mean average precision: one
weight dimension at a time is probed with geometrically spaced additive
steps and a step is kept only when it improves training MAP. Weights are
renormalized to unit L1 after every accepted step, which never changes the
induced rankings. Multiple restarts (uniform, then seeded random inits)
guard against poor local optima; everything is deterministic given the seed.

A restart stops early once its training MAP reaches the ceiling, the share
of queries with a relevant document, and the later restarts of the same
set are then never trained. Both stops are exact: AP never exceeds 1.0, so
at the ceiling no step can gain, and a later restart can at best tie, which
goes to the earlier one. Restart 0 of every set trains first; the other
restarts train only for the sets it left below the ceiling. On separable
data, where MAP 1.0 is reachable, this skips most of the work.

The runs of one round (and, in stage 2, all topics) train together: each
probe covers every active run and every query of one document count as one
array, and re-places only the documents whose value on the probed
coordinate is non-zero. The models equal those of probing one run and one
query at a time bit for bit (``tests/test_ltr.py`` keeps that loop as the
reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Mapping, Sequence

import numpy as np

from .errors import IntegrityError, TrainingError, is_finite_number


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

    def check(self, prefix: str, error: type[Exception]) -> None:
        """Raise ``error`` on the first setting training cannot run with,
        naming its key under ``prefix``.

        The comparisons are written so that NaN fails them: a negative
        min_gain accepts steps of no gain forever, a NaN one accepts none.
        """
        try:
            largest_step = self.step_base * 2.0 ** (self.step_levels - 1)
        except OverflowError:
            largest_step = math.inf
        for ok, message in (
            (self.restarts >= 1, f"{prefix}restarts: must be >= 1, got {self.restarts}"),
            (self.step_levels >= 1, f"{prefix}step_levels: must be >= 1, got {self.step_levels}"),
            (self.step_base > 0 and math.isfinite(self.step_base),
             f"{prefix}step_base: must be finite and > 0, got {self.step_base!r}"),
            (math.isfinite(largest_step),
             f"{prefix}step_base * 2**({prefix}step_levels - 1): must be finite"),
            (self.min_gain >= 0 and math.isfinite(self.min_gain),
             f"{prefix}min_gain: must be finite and >= 0, got {self.min_gain!r}"),
        ):
            if not ok:
                raise error(message)


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

    def to_json_obj(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "weights": list(self.weights),
            "training_map": self.training_map,
            "config": dict(self.config),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RankModel":
        """The model of a JSON object; a weight or training MAP that is not a finite
        number (a boolean, a string, JSON ``NaN`` or ``Infinity``) is a ``ValueError``."""
        weights, training_map = obj["weights"], obj["training_map"]
        if not all(map(is_finite_number, (*weights, training_map))):
            raise ValueError("a weight or the training MAP is not a finite number")
        return cls(tuple(map(float, weights)), tuple(obj["feature_names"]), float(training_map), obj.get("config", {}))


def rank(model: RankModel, doc_ids: Sequence[str], matrix: np.ndarray, query_id: str = "") -> Ranking:
    """Score the rows of ``matrix``, one per doc id, and sort them best-first
    (ties by ascending doc id). The rows are scored in the order given, as
    BLAS may round a product of permuted rows differently."""
    if matrix.shape != (len(doc_ids), len(model.weights)):
        raise IntegrityError(
            f"query {query_id!r}: candidate matrix has shape {matrix.shape}, "
            f"expected ({len(doc_ids)}, {len(model.weights)})"
        )
    scores = matrix @ np.asarray(model.weights)
    # A stable sort on negated scores over the documents in doc-id order.
    by_id = np.array(sorted(range(len(doc_ids)), key=doc_ids.__getitem__), dtype=np.intp)
    order = by_id[np.argsort(-scores[by_id], kind="stable")]
    values = scores.tolist()
    return Ranking(query_id=query_id, items=tuple((doc_ids[i], values[i]) for i in order.tolist()))


def _training_queries(queries, n_dims: int, threshold: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One problem's queries as checked (matrix, relevance) pairs."""
    checked = []
    for matrix, grades in queries:
        matrix, grades = np.asarray(matrix, dtype=np.float64), np.asarray(grades)
        if matrix.ndim != 2 or matrix.shape[1] != n_dims or grades.shape != matrix.shape[:1]:
            raise IntegrityError(
                f"query {len(checked)} has a {matrix.shape} document matrix and "
                f"{grades.shape} grades; expected {n_dims} features and one grade per document"
            )
        checked.append((matrix, grades >= threshold))
    if not checked:
        raise TrainingError("no training examples")
    if not any(relevant.any() for _, relevant in checked):
        raise TrainingError("no query has a relevant document at the configured threshold")
    if not any(len(relevant) >= 2 and relevant.any() for _, relevant in checked):
        raise TrainingError("need at least one query with >= 2 documents and a relevant one")
    return checked


def _ap_rows(relevant: np.ndarray, n_relevant) -> np.ndarray:
    """AP of each ranked relevance row (last axis: rank), one pairwise sum per row."""
    # Hit counts are exact in int32, which numpy accumulates from bool faster than int64.
    hits = np.cumsum(relevant, axis=-1, dtype=np.int32)
    precision = hits / np.arange(1, relevant.shape[-1] + 1, dtype=np.float64)
    precision *= relevant
    return precision.sum(axis=-1) / n_relevant


def _unit_l1(weights: np.ndarray) -> np.ndarray:
    norm = np.abs(weights).sum()
    if norm == 0.0:
        raise TrainingError("weight vector collapsed to zero")
    return weights / norm


def _initial_weights(n_dims: int, seed: int, restart: int) -> np.ndarray:
    if restart == 0:
        return np.full(n_dims, 1.0 / n_dims)
    rng = np.random.default_rng((seed, restart))
    weights = rng.standard_normal(n_dims)
    if np.abs(weights).sum() == 0.0:
        weights = np.full(n_dims, 1.0 / n_dims)
    return _unit_l1(weights)


# A probe works on (pairs x steps x documents) arrays. It takes its pairs in
# slices of at most this many (pair, step, document) elements, so the
# temporaries stay small however many runs train together.
_SLICE_ELEMENTS = 1 << 16

# A probe re-places only the documents that move when fewer than 1 in this
# many move; otherwise it re-sorts the whole query.
_SPARSE_RATIO = 8


class _LengthGroup:
    """The (run, query) pairs whose queries have one document count.

    Each pair holds its query's relevance row and the index of its document
    matrix, and caches three things a probe starts from: its scores under
    the run's weights, their stable best-first order, and the AP of that
    order. A probe gathers the rest (the relevance and scores in cached
    order) through ``order``. Queries without a relevant document never
    enter a group: their AP is 0 under any weights.
    """

    def __init__(self, pairs: list[tuple[int, int, np.ndarray, np.ndarray]]):
        # Queries on one matrix object share it (in stage 2 every topic ranks
        # the same training instances).
        matrices = {id(matrix): matrix for _, _, matrix, _ in pairs}
        matrix_index = {key: i for i, key in enumerate(matrices)}
        self.matrices = list(matrices.values())
        # A single matrix (the stage-2 topics) is used as it is, not copied.
        self.stack = self.matrices[0][None] if len(self.matrices) == 1 else np.stack(self.matrices)
        self.run, self.slot, self.matrix = (
            np.array(column) for column in zip(*((r, s, matrix_index[id(m)]) for r, s, m, _ in pairs))
        )
        self.relevant = np.stack([relevant for *_, relevant in pairs])
        self.n_relevant = self.relevant.sum(axis=1)
        n_pairs, n_docs = self.relevant.shape
        self.scores = np.empty((n_pairs, n_docs))
        self.order = np.empty((n_pairs, n_docs), dtype=np.intp)
        self.ap = np.empty(n_pairs)

    def refresh(self, run: int, weights: np.ndarray) -> None:
        """Recompute the cache of ``run``'s pairs for new weights."""
        pairs = np.flatnonzero(self.run == run)
        if pairs.size == 0:
            return
        scores = np.stack([self.matrices[m] @ weights for m in self.matrix[pairs]])
        # Stable sort on negated scores keeps ascending doc-index order among ties.
        order = np.argsort(-scores, axis=1, kind="stable")
        self.scores[pairs] = scores
        self.order[pairs] = order
        self.ap[pairs] = _ap_rows(self.relevant[pairs[:, None], order], self.n_relevant[pairs])

    def probe(self, pairs: np.ndarray, dim: int, deltas: np.ndarray) -> np.ndarray:
        """AP of each pair under each step on ``dim`` (shape: pairs x steps).

        Documents are ordered by the key (-score, doc index), the key of a
        stable sort on negated scores. A pair whose matrix has no document
        non-zero on ``dim`` keeps its cached AP. ``_ap_rows`` reduces each
        row on its own, so equal rows, the cached one included, get equal bits.
        """
        ap = np.repeat(self.ap[pairs][:, None], len(deltas), axis=1)
        # Per matrix: the documents non-zero on dim first, in ascending order.
        moves = self.stack[:, :, dim] != 0.0
        moved, n_moved = np.argsort(~moves, axis=1, kind="stable"), moves.sum(axis=1)
        matrices = self.matrix[pairs]
        hit = np.flatnonzero(n_moved[matrices] > 0)
        if hit.size == 0:
            return ap
        n_docs = self.relevant.shape[1]
        width = int(n_moved[matrices[hit]].max())
        resort = width * _SPARSE_RATIO > n_docs
        step = max(1, _SLICE_ELEMENTS // (len(deltas) * n_docs))
        for start in range(0, len(hit), step):
            rows = hit[start:start + step]
            if resort:
                ap[rows] = _ap_rows(self._resort(pairs[rows], dim, deltas), self.n_relevant[pairs[rows], None])
            else:
                part = matrices[rows]
                ap[rows] = self._replace(pairs[rows], dim, deltas, moved[part, :width], n_moved[part])
        return ap

    def _resort(self, pairs, dim, deltas):
        """Return the relevance rows of every (pair, step), from a full stable re-sort."""
        shifted = (
            self.scores[pairs][:, None, :]
            + deltas[None, :, None] * self.stack[self.matrix[pairs], :, dim][:, None, :]
        )
        order = np.argsort(np.negative(shifted, out=shifted), axis=-1, kind="stable")
        return self.relevant[pairs[:, None, None], order]

    def _replace(self, pairs, dim, deltas, docs, count):
        """Return the AP of every (pair, step), re-placing only the moved documents.

        Only the ``docs`` non-zero on ``dim`` move (ascending doc index,
        padded; ``count`` per pair). Each is re-placed among the unmoved
        ones, which keep their cached order. In ascending step order equal
        places come in runs, and only the first step of a run builds and
        reduces its row: equal places give an equal row, so equal AP bits.
        """
        n_pairs, n_docs = len(pairs), self.relevant.shape[1]
        valid = np.arange(docs.shape[1]) < count[:, None]
        rows = np.arange(n_pairs)[:, None]
        by_delta = np.argsort(deltas, kind="stable")
        keys = -(
            self.scores[pairs[:, None], docs][:, None, :]
            + deltas[by_delta, None] * self.stack[self.matrix[pairs][:, None], docs, dim][:, None, :]
        )
        labels = self.relevant[pairs[:, None], docs]

        # The unmoved documents in cached order: the first n_docs - count.
        is_moved = np.zeros((n_pairs, n_docs + 1), dtype=bool)
        is_moved[rows, np.where(valid, docs, n_docs)] = True
        order = self.order[pairs]
        keep = np.argsort(is_moved[rows, order], axis=1, kind="stable")
        rest = np.arange(n_docs) < (n_docs - count)[:, None]
        rest_docs = order[rows, keep]
        rest_relevant = self.relevant[pairs[:, None], rest_docs]
        rest_keys = np.where(rest, -self.scores[pairs[:, None], rest_docs], np.inf)

        # The new place of each moved document: its gap (the number of
        # unmoved documents ahead after the step) plus its rank among the moved.
        gap = _count_ahead(rest_keys, rest_docs, keys, docs)
        keys = np.where(valid[:, None, :], keys, np.inf)
        rank = np.argsort(np.argsort(keys, axis=-1, kind="stable"), axis=-1, kind="stable")
        new_place = np.where(valid[:, None, :], gap + rank, n_docs)

        # One row per run of equal places: moved documents at their new
        # places, unmoved ones filling the free places in cached order.
        first = np.ones(new_place.shape[:2], dtype=bool)
        first[:, 1:] = (new_place[:, 1:] != new_place[:, :-1]).any(axis=-1)
        owner = np.nonzero(first)[0]
        at = (np.arange(len(owner))[:, None], new_place[first])
        taken = np.zeros((len(owner), n_docs + 1), dtype=bool)
        taken[at] = True
        relevant = np.empty_like(taken)
        relevant[:, :n_docs][~taken[:, :n_docs]] = rest_relevant[owner][rest[owner]]
        relevant[at] = labels[owner]
        distinct = _ap_rows(relevant[:, :n_docs], self.n_relevant[pairs[owner]])
        # Each step takes its run's AP, back in the caller's step order.
        return distinct[np.cumsum(first).reshape(first.shape) - 1][:, np.argsort(by_delta)]


def _count_ahead(rest_keys: np.ndarray, rest_docs: np.ndarray, keys: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """Number of unmoved documents ahead of each moved one, from one search.

    Row i of ``rest_keys``/``rest_docs`` holds the negated scores and doc
    indices of its unmoved documents in key order, then +inf keys; ``keys``
    (rows x steps x moved) are the moved documents' negated new scores and
    ``docs`` (rows x moved) their doc indices. An equal score puts the lower
    doc index first. numpy sorts complex numbers by real, then imaginary
    part, so (row + key j) puts all rows in one sorted array.
    """
    n_rows, n_rest = rest_keys.shape
    table = np.empty(rest_keys.size, dtype=np.complex128)
    table.real, table.imag = np.repeat(np.arange(n_rows), n_rest), rest_keys.ravel()
    query = np.empty(keys.shape, dtype=np.complex128)
    query.real, query.imag = np.arange(n_rows)[:, None, None], keys
    ahead, after = (np.searchsorted(table, query, side=side).ravel() for side in ("left", "right"))
    tie = np.flatnonzero(after != ahead)
    if tie.size:
        # Of the unmoved documents with an equal key, those of lower doc index are ahead.
        span = ahead[tie, None] + np.arange(int((after[tie] - ahead[tie]).max()))
        moved_docs = np.broadcast_to(docs[:, None, :], keys.shape).ravel()[tie, None]
        lower = rest_docs.ravel()[np.minimum(span, table.size - 1)] < moved_docs
        ahead[tie] += (lower & (span < after[tie, None])).sum(axis=1)
    return ahead.reshape(keys.shape) - (np.arange(n_rows) * n_rest)[:, None, None]


@dataclass
class AscentStats:
    """What the early stop saved in training calls: restarts trained, those
    that stopped at the training-MAP ceiling, and later restarts never
    trained or cut short because an earlier restart of their problem
    reached it."""

    runs: int = 0
    at_ceiling: int = 0
    skipped: int = 0


def _ascend(
    runs: list[tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]],
    problem: np.ndarray,
    deltas: np.ndarray,
    config: CoordinateAscentConfig,
    stats: AscentStats,
) -> list[tuple[np.ndarray, float, bool]]:
    """Coordinate ascent for independent runs in lockstep; final (weights,
    MAP, whether at the ceiling) per run.

    A run is a query list and its start weights; ``problem`` holds each
    run's problem index, its restarts in order. Every cycle probes each
    coordinate for all active runs at once; a run stops after a cycle
    without an accepted step, or as soon as its MAP reaches its ceiling,
    which also stops the later restarts of its problem.
    """
    n_runs = len(runs)
    n_dims = len(runs[0][1])
    grouped: dict[int, list[tuple[int, int, np.ndarray, np.ndarray]]] = {}
    for r, (queries, _) in enumerate(runs):
        for slot, (matrix, relevant) in enumerate(queries):
            if relevant.any():
                grouped.setdefault(len(relevant), []).append((r, slot, matrix, relevant))
    groups = [_LengthGroup(pairs) for pairs in grouped.values()]
    n_queries = np.array([len(queries) for queries, _ in runs], dtype=np.float64)
    table = np.zeros((n_runs, int(n_queries.max()), len(deltas)))

    def mean_over_queries(rows: np.ndarray) -> np.ndarray:
        # A running total in query order, as summing one query at a time does.
        return np.cumsum(table[rows], axis=1)[:, -1, :] / n_queries[rows, None]

    # The highest MAP a run can reach: every query with a relevant document
    # at AP 1.0, summed like the APs, so a run at it compares equal exactly.
    has_relevant = np.zeros(table.shape[:2])
    for r, (queries, _) in enumerate(runs):
        has_relevant[r, :len(queries)] = [relevant.any() for _, relevant in queries]
    ceiling = np.cumsum(has_relevant, axis=1)[:, -1] / n_queries

    weights = [w for _, w in runs]
    for group in groups:
        for r in range(n_runs):
            group.refresh(r, weights[r])
        table[group.run, group.slot, 0] = group.ap
    current = mean_over_queries(np.arange(n_runs))[:, 0]
    active = np.ones(n_runs, dtype=bool)
    run_ids = np.arange(n_runs)

    def active_pairs() -> tuple[np.ndarray, list[np.ndarray]]:
        return np.flatnonzero(active), [np.flatnonzero(active[g.run]) for g in groups]

    def stop_at_ceiling(r: int) -> bool:
        # No step can gain at the ceiling, and a later restart can at best
        # tie this one, which it then loses.
        if current[r] < ceiling[r]:
            return False
        active[r] = False
        pruned = active & (problem == problem[r]) & (run_ids > r)
        active[pruned] = False
        stats.at_ceiling += 1
        stats.skipped += int(pruned.sum())
        return True

    stats.runs += n_runs
    for r in range(n_runs):
        if active[r]:
            stop_at_ceiling(r)
    while active.any():
        improved = np.zeros(n_runs, dtype=bool)
        rows, pairs = active_pairs()
        for dim in range(n_dims):
            if len(rows) == 0:
                break
            for group, group_pairs in zip(groups, pairs):
                table[group.run[group_pairs], group.slot[group_pairs]] = group.probe(
                    group_pairs, dim, deltas
                )
            candidate_maps = mean_over_queries(rows)
            best = np.argmax(candidate_maps, axis=1)
            best_maps = candidate_maps[np.arange(len(rows)), best]
            gains = best_maps > current[rows] + config.min_gain
            stopped = False
            for r, best_idx, new_map in zip(rows[gains], best[gains], best_maps[gains]):
                if not active[r]:
                    continue
                trial = weights[r].copy()
                trial[dim] += deltas[best_idx]
                if np.abs(trial).sum() == 0.0:
                    continue
                weights[r] = _unit_l1(trial)
                if new_map < current[r] - 1e-12:
                    raise TrainingError(
                        f"training MAP decreased from {current[r]!r} to {new_map!r}"
                    )
                current[r] = new_map
                improved[r] = True
                if stop_at_ceiling(r):
                    stopped = True
                    continue
                for group in groups:
                    group.refresh(r, weights[r])
            if stopped:
                rows, pairs = active_pairs()
        active &= improved
    return [(weights[r], float(current[r]), bool(current[r] >= ceiling[r])) for r in range(n_runs)]


def train_coordinate_ascent(
    problems: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]],
    feature_names: Sequence[str],
    config: CoordinateAscentConfig = CoordinateAscentConfig(),
    stats: AscentStats | None = None,
) -> list[RankModel]:
    """Fit one linear ranker per problem by coordinate ascent on training MAP.

    A problem is a list of queries in query order, and a query a pair of a
    float64 document matrix (one row per document, in ascending doc-id
    order, which breaks score ties) and an int grade per document; a
    document is relevant when its grade is at least
    ``relevance_threshold``. Queries that share one matrix object are
    stored once.

    Restart 0 starts from uniform weights, later restarts from seeded random
    unit-L1 vectors. Coordinates are cycled in fixed order; for each one the
    best additive step among +/- step_base * 2^i is accepted only when it
    improves MAP by more than ``min_gain`` (finite, >= 0). Training stops
    after a full cycle without an accepted move; the best restart wins (ties
    go to the lowest restart index).

    A restart also stops as soon as its MAP reaches the ceiling, the share
    of queries with a relevant document (AP never exceeds 1.0); the later
    restarts of its problem are then not trained further. Restart 0 of every
    problem trains first, and restarts 1.. only for the problems it left
    below the ceiling. Both are exact: at the ceiling no step gains more
    than ``min_gain``, and a later restart could at best tie, which the
    earlier one wins. The models are those of training every restart to the
    end. ``stats``, when given, adds up how many restarts were trained, how
    many stopped at the ceiling and how many were skipped.

    The runs of each round train together, across problems; each model
    equals the model a call with its problem alone would train.
    """
    n_dims = len(feature_names)
    problems = [_training_queries(p, n_dims, config.relevance_threshold) for p in problems]
    if not problems:
        return []
    config.check("", TrainingError)
    deltas = np.array(
        [sign * config.step_base * (2.0**level) for level in range(config.step_levels) for sign in (1.0, -1.0)]
    )
    stats = stats if stats is not None else AscentStats()

    def train(restarts: range, problem_ids: list[int]) -> list[tuple[np.ndarray, float, bool]]:
        if not problem_ids or not restarts:
            return []
        runs = [(problems[p], _initial_weights(n_dims, config.seed, r)) for p in problem_ids for r in restarts]
        return _ascend(runs, np.repeat(problem_ids, len(restarts)), deltas, config, stats)

    # Restart 0 of every problem first; the other restarts only where it
    # ended below the ceiling, as a later restart can at best tie it there.
    firsts = train(range(1), list(range(len(problems))))
    below = [p for p, (_, _, at_ceiling) in enumerate(firsts) if not at_ceiling]
    later = train(range(1, config.restarts), below)
    stats.skipped += (len(problems) - len(below)) * (config.restarts - 1)
    finals = [[first] for first in firsts]
    for i, p in enumerate(below):
        finals[p] += later[i * (config.restarts - 1):(i + 1) * (config.restarts - 1)]

    # The best restart of each problem; ``max`` keeps the first of equals.
    best = [max(restarts, key=lambda run: run[1]) for restarts in finals]
    return [
        RankModel(tuple(map(float, weights)), tuple(feature_names), final_map, config.as_dict())
        for weights, final_map, _ in best
    ]

