"""Exception types shared across the package, and the JSON artifact reader.

The CLI maps these onto exit codes: config problems exit 1, data problems
(parse, integrity, lookup, missing stage artifacts) exit 2, training
failures exit 3.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, TypeVar

T = TypeVar("T")


class GistRankError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GistRankError):
    """A file could not be parsed; message names the file and line."""


class IntegrityError(GistRankError):
    """Data violates a structural invariant (duplicate ids, bad references)."""


class NotFoundError(GistRankError):
    """A referenced node or record does not exist."""


class ConfigError(GistRankError):
    """Invalid configuration or command-line usage."""


class TrainingError(GistRankError):
    """Model training cannot proceed (e.g. no relevant documents)."""


class StageDependencyError(GistRankError):
    """A pipeline stage is missing an upstream artifact."""


def read_json(path: str | Path, parse: Callable[[Any], T]) -> T:
    """Parse a JSON artifact with ``parse``.

    A file that is not UTF-8 JSON, or that ``parse`` cannot read, raises
    ``ParseError`` naming the file.
    """
    try:
        return parse(json.loads(Path(path).read_bytes().decode("utf-8")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed file ({exc!r})") from None
