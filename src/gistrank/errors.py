"""Exception types shared across the package, and the shared artifact I/O:
the one check of every JSON artifact's records against their declared
shapes (``check_shape``), the JSON and JSON-lines text every writer emits,
the string record of the binary artifacts, the atomic file writer, and the
file readers.

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
from itertools import chain
from operator import itemgetter
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


class int_key:
    """The shape of a node id string, spelled as ``str()`` writes an int
    (``int()`` alone would also read " 7" and "+7" as 7 and "7_1" as 71)."""


def _finite(values: list) -> bool:
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


_NODE_IDS = re.compile(r"(?:(?:0|-?[1-9][0-9]*)\n)*")


def _node_ids(ids: list[str]) -> bool:
    # One match for all of them: each id ended by a newline, which none may hold.
    return "\n" not in "".join(ids) and _NODE_IDS.fullmatch("\n".join([*ids, ""])) is not None


# Each scalar shape's JSON types, the test that a list of its values must pass, and its name.
_SCALARS = {
    str: ({str}, None, "a string"), int: ({int}, None, "an integer"), bool: ({bool}, None, "a boolean"),
    float: ({int, float}, _finite, "a finite number"), int_key: ({str}, _node_ids, "a node id"),
}


def _check_types(values: list, types: set, where: str, what: str, test: Callable | None = None) -> None:
    if not set(map(type, values)) <= types or test is not None and not test(values):
        raise ValueError(f"{where} is not {what}")


def _check_column(shape: Any, values: list, where: str) -> None:
    """Raise ``ValueError`` naming the first part of ``shape`` that one of
    ``values`` breaks. The list is checked at once, then each key or item
    position of it as one list, so each value is visited once."""
    if isinstance(shape, list):
        _check_types(values, {list}, where, "an array")
        _check_column(shape[0], list(chain.from_iterable(values)), f"{where}[*]")
    elif isinstance(shape, dict) and list(shape) in ([str], [int_key]):
        _check_types(values, {dict}, where, "an object")
        ((key, item),) = shape.items()
        _check_column(key, list(chain.from_iterable(values)), f"{where} key")
        _check_column(item, list(chain.from_iterable(map(dict.values, values))), f"{where}[*]")
    elif isinstance(shape, (tuple, dict)):
        if isinstance(shape, tuple):
            keys, kind, what = range(len(shape)), list, f"an array of {len(shape)} items"
        else:
            keys, kind, what = shape, dict, f"an object of the keys {', '.join(sorted(shape))}"
        # Of the declared length, a value lacks a declared key only where it has another.
        _check_types(values, {kind}, where, what, lambda values: set(map(len, values)) <= {len(shape)})
        try:
            columns = [list(map(itemgetter(k), values)) for k in keys]
        except KeyError:
            raise ValueError(f"{where} is not {what}") from None
        for k, column in zip(keys, columns):
            _check_column(shape[k], column, f"{where}[{k!r}]")
    else:
        types, test, what = _SCALARS[shape]
        _check_types(values, types, where, what, test)


def check_shape(shape: Any, value: T) -> T:
    """``value``, a parsed JSON value, if it has ``shape``; else a ``ValueError``
    naming where not, as ``$['seeds'][*]['id'] is not an integer``.

    ``str``, ``int`` and ``bool`` are a JSON value of exactly that type (an
    integer is never a boolean), ``float`` a finite JSON number, integer or
    not, and ``int_key`` a node id string. ``[s]`` is an array of ``s``,
    ``(s, t)`` an array of exactly these items, ``{"key": s, ...}`` an object
    of exactly these keys, and ``{str: s}`` or ``{int_key: s}`` an object of
    any such keys, each mapping to an ``s``.
    """
    _check_column(shape, [value], "$")
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


def read_json(path: str | Path, shape: Any, parse: Callable[[Any], T]) -> T:
    """Parse a JSON artifact of ``shape`` with ``parse``.

    A file that is not UTF-8 JSON, that does not have ``shape``, or whose
    value ``parse`` rejects with a ``ValueError``, raises ``ParseError``
    naming the file.
    """
    try:
        return parse(check_shape(shape, json.loads(Path(path).read_bytes().decode("utf-8"))))
    except ValueError as exc:
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
