"""The CLI's outputs on a tiny fixture match the recorded known answers.

The record is `known_answers.json`, written by `known_answers.py`. Numbers
must agree within `math.isclose(rel_tol=1e-7, abs_tol=1e-10)`, the tolerance
the benchmark checks its references with; sampled sequence indices must match
exactly. Merged-archive digests are recorded for information only.
"""

from __future__ import annotations

import json
import math

from known_answers import RECORD, known_answers

REL_TOL = 1e-7
ABS_TOL = 1e-10


def mismatches(actual, expected, path: str = "") -> list[str]:
    """Where `actual` differs from `expected`: structure and integers exactly,
    floats within tolerance."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path or 'answers'}: keys differ"]
        return [m for key in expected for m in mismatches(actual[key], expected[key], f"{path}/{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        return [m for i, (a, e) in enumerate(zip(actual, expected)) for m in mismatches(a, e, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def test_outputs_match_the_known_answers(tmp_path):
    expected = json.loads(RECORD.read_text(encoding="utf-8"))
    actual = known_answers(tmp_path)
    del expected["merged_sha256"], actual["merged_sha256"]
    assert mismatches(actual, expected) == []


def test_mismatches_reports_each_kind_of_difference():
    expected = {"a": [1.0, 2], "b": None}
    assert mismatches({"a": [1.0 + 1e-9, 2], "b": None}, expected) == []
    assert mismatches({"a": [1.001, 2], "b": None}, expected) == ["/a[0]: 1.001 != 1.0"]
    assert mismatches({"a": [1.0, 3], "b": None}, expected) == ["/a[1]: 3 != 2"]
    assert mismatches({"a": [1.0], "b": None}, expected) == ["/a: length differs"]
    assert mismatches({"a": [1.0, 2], "b": 0.0}, expected) == ["/b: 0.0 != None"]
    assert mismatches({"a": [1.0, 2]}, expected) == ["answers: keys differ"]
