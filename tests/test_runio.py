"""Tests for run persistence: canonical JSON, full-precision floats, the
append-only metrics stream, CSV export, and the run identifier.
"""

import json

import numpy as np
import pytest

from lfsearch.config import ExperimentConfig
from lfsearch.runio import MetricsWriter, dumps, format_float, run_id, write_xy_csv


class TestFormatFloat:
    def test_round_trips_exactly(self):
        rng = np.random.default_rng(0)
        values = list(rng.normal(0.0, 1.0, 200))
        values += list(rng.uniform(-1e300, 1e300, 50))
        values += [0.1, 1.0 / 3.0, 5e-324, -1.7e308, 0.0, -0.0, 2.0 ** -52]
        for v in values:
            v = float(v)
            assert float(format_float(v)) == v

    def test_integers_render_bare(self):
        assert format_float(1.0) == "1"
        assert format_float(-42.0) == "-42"

    def test_non_finite_rejected(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                format_float(bad)


class TestDumps:
    def test_scalars(self):
        assert dumps(None) == "null"
        assert dumps(True) == "true"
        assert dumps(False) == "false"
        assert dumps(3) == "3"
        assert dumps("a \"quote\"") == '"a \\"quote\\""'

    def test_numpy_scalars_and_arrays(self):
        assert dumps(np.int64(7)) == "7"
        assert dumps(np.float64(0.5)) == "0.5"
        assert dumps(np.array([1.0, 2.0])) == "[1,2]"
        assert dumps(np.array([[1, 2], [3, 4]])) == "[[1,2],[3,4]]"

    def test_preserves_insertion_order(self):
        assert dumps({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_nested_structures(self):
        value = {"x": [1, {"y": (2.5, None)}], "z": {"w": False}}
        assert dumps(value) == '{"x":[1,{"y":[2.5,null]}],"z":{"w":false}}'

    def test_output_is_valid_json(self):
        rng = np.random.default_rng(1)
        record = {"id": 3, "values": list(rng.normal(0.0, 1.0, 5)),
                  "tags": ["a", "b"], "meta": {"ok": True, "skip": None}}
        parsed = json.loads(dumps(record))
        assert parsed["id"] == 3
        assert parsed["values"] == record["values"]

    def test_full_precision_floats(self):
        third = 1.0 / 3.0
        assert json.loads(dumps({"v": third}))["v"] == third

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            dumps(object())


class TestMetricsWriter:
    def test_appends_one_json_line_per_record(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path) as writer:
            writer.write({"epoch": 1, "loss": 0.5})
            writer.write({"epoch": 2, "loss": 0.25})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"epoch": 1, "loss": 0.5}
        assert json.loads(lines[1]) == {"epoch": 2, "loss": 0.25}

    def test_records_are_flushed_immediately(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        writer = MetricsWriter(path)
        writer.write({"epoch": 1})
        # Readable before close: a crash mid-run leaves a valid prefix.
        assert path.read_text(encoding="utf-8") == '{"epoch":1}\n'
        writer.close()

    def test_reopening_appends(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path) as writer:
            writer.write({"run": 1})
        with MetricsWriter(path) as writer:
            writer.write({"run": 2})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["run"] for line in lines] == [1, 2]


class TestWriteXyCsv:
    def test_golden_output(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_xy_csv(path, [(0.0, 1.0), (0.5, 0.25)])
        assert path.read_text(encoding="utf-8") == "x,y\n0,1\n0.5,0.25\n"

    def test_round_trips_full_precision(self, tmp_path):
        rng = np.random.default_rng(2)
        points = [(float(x), float(y)) for x, y in rng.normal(0.0, 1.0, (20, 2))]
        path = tmp_path / "curve.csv"
        write_xy_csv(path, points)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,y"
        for line, (x, y) in zip(lines[1:], points):
            sx, sy = line.split(",")
            assert float(sx) == x
            assert float(sy) == y


class TestRunId:
    def test_empty_config_pin(self):
        # sha256 of the canonical form "{}", truncated to 12 hex chars.
        assert run_id({}) == "44136fa355b3"

    def test_default_experiment_pin(self):
        assert run_id(ExperimentConfig().to_dict()) == "71991403623b"

    def test_shape_and_stability(self):
        value = run_id({"seed": 1})
        assert len(value) == 12
        assert set(value) <= set("0123456789abcdef")
        assert run_id({"seed": 1}) == value

    def test_sensitive_to_any_change(self):
        base = ExperimentConfig().to_dict()
        changed = ExperimentConfig().to_dict()
        changed["seed"] = 1
        assert run_id(changed) != run_id(base)
