"""The record shapes of the JSON artifacts (``pipeline.ARTIFACTS``): every
writer's output has its shape, and every reader turns each way a record can
break it into a ``ParseError`` naming the file.

The fuzz cases are generated from the shapes: for every field of every
reader, each JSON type the field does not take, and for every object a
missing and an extra key (for a fixed-length array a missing and an extra
item). Which record, which item and which wrong value are drawn.
"""

import copy
import dataclasses
import json
import math
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gistrank import pipeline
from gistrank.config import load_config
from gistrank.errors import ParseError, check_shape, int_key
from gistrank.evaluation import MODES
from gistrank.pipeline import ARTIFACTS, STAGES

# A step of a field's path is an object key or a fixed-array position, ANY
# (any item of an array, any value of an object) or KEYS (any key of an
# object keyed by node ids); no declared key is spelled like these two.
ANY, KEYS = "[*]", "{keys}"

JSON_TYPES = {
    "string": st.text(max_size=4),
    "integer": st.integers(),
    "float": st.floats(),
    "boolean": st.booleans(),
    "null": st.none(),
    "array": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
ANY_JSON = st.one_of(*JSON_TYPES.values())


def _spells_node_id(text: str) -> bool:
    try:
        return str(int(text)) == text
    except ValueError:
        return False


# Wrong values of the JSON type that a finite number or a node id has.
NOT_NODE_ID = st.one_of(st.sampled_from(["+7", " 7", "7 ", "07", "7_1", "", "x"]), st.text(max_size=4)).filter(
    lambda text: not _spells_node_id(text)
)
NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])


def _is_map(shape) -> bool:
    return isinstance(shape, dict) and list(shape) in ([str], [int_key])


SCALAR_TYPES = {str: {"string"}, int_key: {"string"}, int: {"integer"}, bool: {"boolean"}, float: {"integer", "float"}}


def _takes(shape) -> set[str]:
    """The JSON types that values of ``shape`` have."""
    if isinstance(shape, (list, tuple)):
        return {"array"}
    return {"object"} if isinstance(shape, dict) else SCALAR_TYPES[shape]


def _fields(shape, path=()):
    """Every (path, shape) of ``shape``, itself first."""
    yield path, shape
    if isinstance(shape, list):
        yield from _fields(shape[0], (*path, ANY))
    elif _is_map(shape):
        ((key, value),) = shape.items()
        if key is int_key:
            yield (*path, KEYS), key
        yield from _fields(value, (*path, ANY))
    elif isinstance(shape, (tuple, dict)):
        for k in range(len(shape)) if isinstance(shape, tuple) else shape:
            yield from _fields(shape[k], (*path, k))


def _slots(record, path) -> list[tuple]:
    """The (container, key) of every value at ``path`` in ``record``; for a
    KEYS step, the object and each of its keys."""
    found = [([record], 0)]
    for step in path:
        values = [container[k] for container, k in found]
        if step in (ANY, KEYS):
            found = [(v, k) for v in values for k in (v if isinstance(v, dict) else range(len(v)))]
        else:
            found = [(v, step) for v in values]
    return found


# Each reader: its shape, whether it reads JSON lines, and how it reads a
# file of that shape at ``path`` in the scratch run directory ``root``.
def _artifact_read(name):
    return lambda root, path: ARTIFACTS[name].read(path)


def _manifest_read(root, path):
    config = load_config(root / "pipeline.config", {"out": str(root / "out")})
    pipeline._check_input(config, "cluster", "query_graphs.jsonl")


def _label_override_read(root, path):
    config = load_config(root / "pipeline.config", {"out": str(root / "out")})
    return pipeline.PipelineContext(dataclasses.replace(config, image_labels=path)).corpus


READERS = {
    **{
        name: (artifact.shape, name.endswith(".jsonl"), _artifact_read(name))
        for name, artifact in ARTIFACTS.items() if artifact.shape is not None
    },
    "graph.manifest.json": (pipeline._MANIFEST, False, _manifest_read),
    "labels.jsonl": (pipeline._LABEL_OVERRIDE, True, _label_override_read),
}


def _cases(kind: str) -> list:
    cases = []
    for reader, (shape, _, _) in READERS.items():
        for path, field in _fields(shape):
            name = "/".join(map(str, path)) or "record"
            if kind == "type" and path[-1:] != (KEYS,):
                cases += [
                    pytest.param(reader, path, field, json_type, id=f"{reader}:{name}:{json_type}")
                    for json_type in JSON_TYPES if json_type not in _takes(field)
                ]
                if field in (float, int_key):
                    cases.append(pytest.param(reader, path, field, None, id=f"{reader}:{name}:value"))
            elif kind == "type" and path[-1:] == (KEYS,):
                cases.append(pytest.param(reader, path, field, None, id=f"{reader}:{name}:spelling"))
            elif kind == "key" and isinstance(field, (tuple, dict)) and not _is_map(field):
                cases += [
                    pytest.param(reader, path, field, change, id=f"{reader}:{name}:{change}")
                    for change in ("missing", "extra")
                ]
    return cases


@pytest.fixture(scope="module")
def samples(fixture_run, tmp_path_factory):
    """A scratch run directory, and each reader's valid records (for a JSON
    file, its one value) from ``fixture_run``'s TII artifacts."""
    root = tmp_path_factory.mktemp("shapes")
    for name in ("pipeline.config", "kg_nodes.tsv", "kg_edges.tsv", "corpus.jsonl"):
        shutil.copy(fixture_run / name, root / name)
    (root / "out" / "TII").mkdir(parents=True)
    shutil.copy(fixture_run / "out" / "TII" / "query_graphs.jsonl", root / "out" / "TII" / "query_graphs.jsonl")
    records = {}
    for reader, (_, jsonl, _) in READERS.items():
        source = fixture_run / "out" / "TII" / reader
        if reader == "labels.jsonl":
            records[reader] = [{"id": f"inst00{i}", "image_labels": ["car", "volvo"][:i]} for i in range(3)]
        elif jsonl:
            records[reader] = [json.loads(line) for line in source.read_text().splitlines()]
        else:
            records[reader] = [json.loads(source.read_text())]
    return root, records


def _assert_rejected(samples, reader: str, index: int, record) -> None:
    """Write ``record`` in place of the ``index``-th sample of ``reader`` and
    check that reading the file is a ``ParseError`` naming it (and the line)."""
    root, records = samples
    _, jsonl, read = READERS[reader]
    path = root / "out" / "TII" / reader
    if jsonl:
        lines = [json.dumps(r) for r in records[reader]]
        lines[index] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text(json.dumps(record))
    with pytest.raises(ParseError) as raised:
        read(root, path)
    assert str(raised.value).startswith(f"{path}:{index + 1}: malformed record" if jsonl else f"{path}: malformed file")


def _draw_slot(data, samples, reader, path) -> tuple[int, dict, tuple]:
    """A drawn sample record of ``reader`` (its index and a copy) with a value
    at ``path``, and the slot of one such value in the copy."""
    _, records = samples
    index = data.draw(st.sampled_from([i for i, r in enumerate(records[reader]) if _slots(r, path)]))
    record = copy.deepcopy(records[reader][index])
    return index, record, data.draw(st.sampled_from(_slots(record, path)))


_FUZZ = settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("reader, path, field, json_type", _cases("type"))
@_FUZZ
@given(data=st.data())
def test_a_value_of_a_wrong_type_is_a_parse_error(samples, reader, path, field, json_type, data):
    index, record, (container, key) = _draw_slot(data, samples, reader, path)
    if path[-1:] == (KEYS,):
        container[data.draw(NOT_NODE_ID.filter(lambda text: text not in container))] = container.pop(key)
    else:
        wrong = JSON_TYPES[json_type] if json_type else NOT_FINITE if field is float else NOT_NODE_ID
        container[key] = data.draw(wrong)
    _assert_rejected(samples, reader, index, container[0] if not path else record)


@pytest.mark.parametrize("reader, path, field, change", _cases("key"))
@_FUZZ
@given(data=st.data())
def test_a_missing_or_extra_key_is_a_parse_error(samples, reader, path, field, change, data):
    index, record, (container, key) = _draw_slot(data, samples, reader, path)
    value = container[key]
    if isinstance(field, tuple) and change == "missing":
        value.pop()
    elif isinstance(field, tuple):
        value.append(data.draw(ANY_JSON))
    elif change == "missing":
        del value[data.draw(st.sampled_from(sorted(field)))]
    else:
        value[data.draw(st.text(max_size=8).filter(lambda text: text not in field))] = data.draw(ANY_JSON)
    _assert_rejected(samples, reader, index, container[0] if not path else record)


def test_the_cases_cover_every_reader():
    assert {case.values[0] for case in _cases("type")} == set(READERS)
    assert {case.values[0] for case in _cases("key")} == set(READERS)


@pytest.mark.parametrize("mode", MODES)
def test_every_writer_output_has_its_shape(fixture_run, mode):
    mode_dir = fixture_run / "out" / mode
    for name, artifact in ARTIFACTS.items():
        if artifact.shape is not None:
            text = (mode_dir / name).read_text()
            for value in map(json.loads, text.splitlines() if name.endswith(".jsonl") else [text]):
                assert check_shape(artifact.shape, value) is value, name
    for stage in STAGES:
        check_shape(pipeline._MANIFEST, json.loads((mode_dir / f"{stage}.manifest.json").read_text()))
