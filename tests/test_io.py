import json
import math

import pytest
from helpers import read_csv
from hypothesis import given, settings, strategies as st

from wasslip.io import dumps, fmt_float, format_cell, sha256_hex, write_csv


class TestFloatFormat:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_17_digits_round_trip_exactly(self, x):
        assert float(fmt_float(x)) == x

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fmt_float(math.inf)
        with pytest.raises(ValueError):
            fmt_float(math.nan)


class TestJson:
    def test_output_is_valid_json_and_stable(self):
        doc = {"a": 1, "b": [1.5, "x", None, True], "c": {"nested": 0.1}, "d": []}
        text1 = dumps(doc)
        text2 = dumps(doc)
        assert text1 == text2
        assert json.loads(text1) == {"a": 1, "b": [1.5, "x", None, True], "c": {"nested": 0.1}, "d": []}

    def test_float_precision_survives_parse(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        assert json.loads(dumps({"v": value}))["v"] == value

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            dumps({1: "x"})


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], [3, -0.125]])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert [[float(c) for c in r] for r in rows] == [[1.0, 2.5], [3.0, -0.125]]

    def test_rejects_cells_with_separators(self):
        with pytest.raises(ValueError):
            format_cell("a,b")


def test_sha256_stable():
    assert sha256_hex(b"abc") == sha256_hex(b"abc")
    assert sha256_hex(b"abc") != sha256_hex(b"abd")
