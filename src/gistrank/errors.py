"""Exception types shared across the package, and the shared artifact I/O:
the checks of JSON numbers and keys the readers share, the JSON and
JSON-lines text every writer emits, the string record of the binary
artifacts, the atomic file writer, and the file readers.

The CLI maps these onto exit codes: config problems exit 1, data problems
(parse, integrity, lookup, missing stage artifacts) exit 2, training
failures exit 3.
"""

from __future__ import annotations

import json
import math
import os
import re
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

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


def is_finite_number(value: Any) -> bool:
    """Whether ``value`` is a finite JSON number: not NaN, an infinity, a boolean or a string."""
    return type(value) in (int, float) and math.isfinite(value)


def int_key(text: str) -> int:
    """The int a JSON object key spells as ``str()`` writes it; ``int()``
    alone would also read " 7" and "+7" as 7 and "7_1" as 71."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"the key {text!r} is not an integer as str() writes it")
    return value


def json_text(obj: Any) -> str:
    """A JSON artifact's text: indented, keys sorted, ending in a newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def jsonl_text(objs: Iterable[Any]) -> str:
    """A JSON-lines artifact's text: one compact object per line, keys sorted."""
    return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)


def save_strings(fh: IO[bytes], strings: Sequence[str]) -> None:
    """Write ``strings`` as one uint8 record of their UTF-8 bytes, each
    string ended by a newline.

    The bytes equal ``np.save`` of that array, but are encoded a few
    thousand strings at a time, twice (once to size the record), so no copy
    of all the text is ever held.
    """
    chunks = [strings[i : i + 4096] for i in range(0, len(strings), 4096)]

    def encoded():
        return (("\n".join(chunk) + "\n").encode("utf-8") for chunk in chunks)

    size = sum(map(len, encoded()))
    header = {"descr": np.dtype(np.uint8).str, "fortran_order": False, "shape": (size,)}
    np.lib.format.write_array_header_1_0(fh, header)
    for data in encoded():
        fh.write(data)


@contextmanager
def atomic_open(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write ``path`` through a new temp file beside it, which replaces
    ``path`` when the block ends without an error.

    Readers, and other writers, see the old file or the new one, never a
    part of either. Each writer gets its own temp name; on an error the temp
    file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path: str | Path, data: str | bytes) -> str | bytes:
    """Replace ``path`` with ``data`` (text is written as UTF-8) in one step; returns ``data``."""
    with atomic_open(path, binary=isinstance(data, bytes)) as fh:
        fh.write(data)
    return data


def read_json(path: str | Path, parse: Callable[[Any], T]) -> T:
    """Parse a JSON artifact with ``parse``.

    A file that is not UTF-8 JSON, or that ``parse`` cannot read, raises
    ``ParseError`` naming the file.
    """
    try:
        return parse(json.loads(Path(path).read_bytes().decode("utf-8")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed file ({exc!r})") from None


# surrogateescape decoding maps each byte that is not UTF-8 to one of these.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def read_lines(path: str | Path) -> list[str | None]:
    """The lines of a text file, without their line ends.

    Lines end at "\\n", "\\r\\n" or "\\r", as in text-mode reading, and at no
    other character, so "\\x85" and "\\u2028" stay inside a line. A line that
    is not valid UTF-8 reads as None; the others are decoded.
    """
    raw = Path(path).read_bytes()
    try:
        text, escaped = raw.decode("utf-8"), False
    except UnicodeDecodeError:
        text, escaped = raw.decode("utf-8", "surrogateescape"), True
    lines: list[str | None] = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # the end of the last line, not a line of its own
    if escaped:
        lines = [None if _ESCAPED_BYTE.search(line) else line for line in lines]
    return lines
