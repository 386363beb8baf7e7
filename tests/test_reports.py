import array
import dataclasses
import json

import numpy as np
import pytest

from kextract.bits import BitString
from kextract.oracle import NOT_FOUND
from kextract.reports import (
    SCHEMA_VERSION,
    all_passed,
    assertion,
    build_report,
    load_report,
    report_bytes,
    write_report,
)


def test_envelope_shape():
    rep = build_report("demo x", {"n": 2}, {"value": 1}, [assertion("ok", True)])
    assert set(rep) == {
        "schema_version",
        "command",
        "params",
        "data",
        "assertions",
    }
    assert rep["schema_version"] == SCHEMA_VERSION == 1
    assert rep["command"] == "demo x"
    assert rep["assertions"][0] == {"name": "ok", "passed": True, "detail": None}


def test_all_passed():
    rep = build_report("c", {}, None, [assertion("a", True), assertion("b", False, 3)])
    assert not all_passed(rep)
    rep = build_report("c", {}, None, [])
    assert all_passed(rep)


def test_jsonable_conversions():
    @dataclasses.dataclass
    class Inner:
        c: object
        xs: tuple

    data = {
        "sentinel": NOT_FOUND,
        "bits": BitString(4, 5),
        "nested": Inner(c=NOT_FOUND, xs=(np.int32(3), np.float64(0.5))),
        "arr": np.arange(3),
        "int_keys": {3: "x"},
    }
    doc = json.loads(report_bytes(build_report("c", {}, data)))
    assert doc["data"]["sentinel"] == "NOT_FOUND"
    assert doc["data"]["bits"] == {"len": 4, "hex": "50"}
    assert doc["data"]["nested"] == {"c": "NOT_FOUND", "xs": [3, 0.5]}
    assert doc["data"]["arr"] == [0, 1, 2]
    assert doc["data"]["int_keys"] == {"3": "x"}


def test_bytes_canonical():
    rep = build_report("c", {"b": 1, "a": 2}, [1, 2])
    blob = report_bytes(rep)
    assert blob.endswith(b"\n")
    keys = [line.split(b'"')[1] for line in blob.splitlines() if b'": ' in line or b'": {' in line]
    assert keys.index(b"assertions") < keys.index(b"command")  # sort_keys


def test_write_load_round_trip(tmp_path):
    rep = build_report("table verify", {"k": 3}, {"worst": 44}, [assertion("ok", True)])
    path = str(tmp_path / "r.json")
    write_report(rep, path)
    back = load_report(path)
    assert back["params"] == {"k": 3}
    assert back["data"] == {"worst": 44}
    assert (tmp_path / "r.json").read_bytes() == report_bytes(rep)


def test_equal_params_give_identical_files(tmp_path):
    """A report carries no wall-clock value: equal inputs write equal bytes."""
    paths = [str(tmp_path / f"{name}.json") for name in "abc"]
    write_report(build_report("c", {"x": 1}, {"v": [1, 2]}), paths[0])
    write_report(build_report("c", {"x": 1}, {"v": [1, 2]}), paths[1])
    write_report(build_report("c", {"x": 2}, {"v": [1, 2]}), paths[2])
    a, b, c = ((tmp_path / f"{name}.json").read_bytes() for name in "abc")
    assert a == b
    assert a != c


def test_non_finite_values_are_refused(tmp_path):
    path = tmp_path / "r.json"
    for value in (float("nan"), float("inf"), np.float64("-inf")):
        rep = build_report("demo x", {"eps": value}, {"value": 1}, [assertion("ok", True)])
        with pytest.raises(ValueError):
            write_report(rep, str(path))
        assert not path.exists()


def test_only_numpy_integers_floats_and_arrays_are_converted(tmp_path):
    """Other numpy scalars and array-like values stay unsupported: writing
    them is refused, not turned into some Python value."""
    path = tmp_path / "r.json"
    for value in (np.bool_(True), np.datetime64("2020-01-01"), array.array("i", [1]),
                  memoryview(b"x")):
        rep = build_report("demo x", {}, {"value": value}, [assertion("ok", True)])
        with pytest.raises(TypeError):
            write_report(rep, str(path))
        assert not path.exists()
