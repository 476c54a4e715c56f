"""Pipeline configuration: flat key=value files with namespaced keys.

Relative paths are resolved against the config file's directory. Training
seeds default to deterministic offsets of the master ``seed`` so a single
key reproduces a whole run; any of them can be overridden individually.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, read_lines
from .evaluation import MODES
from .ltr import CoordinateAscentConfig


@dataclass(frozen=True)
class PipelineConfig:
    """A checked run configuration; ``load_config`` fills in every default."""

    kg_nodes: Path
    kg_edges: Path
    corpus: Path
    out: Path
    mode: str
    top_k: int
    eval_k: int
    seed: int
    split_ratio: float
    split_seed: int | None
    image_labels: Path | None
    train1: CoordinateAscentConfig
    train2: CoordinateAscentConfig

    def resolved_split_seed(self) -> int:
        return self.split_seed if self.split_seed is not None else self.seed + 1

    def validate(self) -> None:
        for name, path in (("kg.nodes", self.kg_nodes), ("kg.edges", self.kg_edges), ("corpus", self.corpus)):
            if not path.is_file():
                raise ConfigError(f"{name}: file not found: {path}")
        if self.image_labels is not None and not self.image_labels.is_file():
            raise ConfigError(f"image_labels: file not found: {self.image_labels}")
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {'/'.join(MODES)}, got {self.mode!r}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split.ratio: must be strictly between 0 and 1, got {self.split_ratio}")
        if self.top_k < 1:
            raise ConfigError("top_k: must be >= 1")
        if self.eval_k < 1:
            raise ConfigError("eval.k: must be >= 1")
        for prefix, train in (("train1", self.train1), ("train2", self.train2)):
            train.check(f"{prefix}.", ConfigError)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:16]

    def canonical_text(self) -> str:
        # The output directory changes no artifact byte, so it is not part
        # of the text.
        items = {
            "kg.nodes": str(self.kg_nodes),
            "kg.edges": str(self.kg_edges),
            "corpus": str(self.corpus),
            "mode": self.mode,
            "top_k": str(self.top_k),
            "eval.k": str(self.eval_k),
            "seed": str(self.seed),
            "split.ratio": repr(self.split_ratio),
            "split.seed": str(self.resolved_split_seed()),
            "image_labels": str(self.image_labels) if self.image_labels else "",
        }
        for prefix, train in (("train1", self.train1), ("train2", self.train2)):
            for key, value in train.as_dict().items():
                items[f"{prefix}.{key}"] = repr(value)
        return "\n".join(f"{k}={v}" for k, v in sorted(items.items()))


def _parse_scalar(key: str, raw: str, kind: type):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Parse a key=value config file, apply overrides, and validate it."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        if raw is None:
            raise ConfigError(f"{path}:{lineno}: line is not valid UTF-8")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    values.update(overrides or {})

    base = path.parent

    def path_of(key: str, default: str | None = None) -> Path:
        raw = values.pop(key, default)
        if raw is None:
            raise ConfigError(f"{key}: required key is missing")
        p = Path(raw)
        return p if p.is_absolute() else (base / p)

    def scalar(key: str, kind: type, default):
        raw = values.pop(key, None)
        return default if raw is None else _parse_scalar(key, raw, kind)

    def train_config(prefix: str, **defaults) -> CoordinateAscentConfig:
        defaults = {**CoordinateAscentConfig().as_dict(), **defaults}
        return CoordinateAscentConfig(
            **{key: scalar(f"{prefix}.{key}", type(value), value) for key, value in defaults.items()}
        )

    kg_nodes = path_of("kg.nodes")
    kg_edges = path_of("kg.edges")
    corpus = path_of("corpus")
    out = path_of("out", "out")
    image_labels = path_of("image_labels") if "image_labels" in values else None

    # The worker pool is gone; the benchmark harness still passes
    # workers=1, so that value alone is accepted until it stops.
    if scalar("workers", int, 1) != 1:
        raise ConfigError("workers: the worker pool was removed; the pipeline runs sequentially")

    seed = scalar("seed", int, 7)
    train1 = train_config("train1", seed=seed + 2)
    train2 = train_config("train2", seed=seed + 3, relevance_threshold=1)

    config = PipelineConfig(
        kg_nodes=kg_nodes,
        kg_edges=kg_edges,
        corpus=corpus,
        out=out,
        mode=values.pop("mode", "TII"),
        top_k=scalar("top_k", int, 10),
        eval_k=scalar("eval.k", int, 50),
        seed=seed,
        split_ratio=scalar("split.ratio", float, 0.6),
        split_seed=scalar("split.seed", int, None),
        image_labels=image_labels,
        train1=train1,
        train2=train2,
    )
    if values:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(values))}")
    config.validate()
    return config
