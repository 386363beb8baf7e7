"""Report envelopes: canonical JSON with a reproducible config block.

A report is {schema_version, command, params, data, assertions}, a pure
function of the command and its params, and it carries no wall-clock
value: equal params give byte-identical files, which is the determinism
contract. Execution details that cannot change results, such as the
feasibility override, are deliberately kept out of the envelope.

This module imports neither numpy nor the oracle, so the CLI can build
its parser without them: numpy integers, floats and arrays are checked
for only once numpy is loaded, as none can exist before, and NOT_FOUND
comes from the numpy-free machine module.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any, Optional

from .bits import BitString
from .machine import NOT_FOUND

SCHEMA_VERSION = 1


def assertion(name: str, passed: bool, detail: Any = None) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def build_report(
    command: str,
    params: dict,
    data: Any,
    assertions: Optional[list[dict]] = None,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "data": data,
        "assertions": assertions or [],
    }


def all_passed(report: dict) -> bool:
    return all(a["passed"] for a in report["assertions"])


def _jsonable(obj: Any) -> Any:
    if obj is NOT_FOUND:
        return "NOT_FOUND"
    if isinstance(obj, BitString):
        return {"len": obj.length, "hex": obj.pack_hex()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.repr
        }
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
    return obj


def report_bytes(report: dict) -> bytes:
    doc = _jsonable(report)
    # NaN and Infinity are not JSON: refuse them rather than write them
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def write_report(report: dict, path: str) -> None:
    data = report_bytes(report)  # before opening, so a refusal leaves no file
    with open(path, "wb") as fh:
        fh.write(data)


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
