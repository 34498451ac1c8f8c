"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESK_SHAPES = [(128, 32), (64, 128)]  # (out, in): 32 -> 128 -> 64


def test_forward_flops_desk_batch():
    # 2*128*(32*128 + 128*64) backbone + 2*128*64*40 cosine head
    assert tracing.forward_flops(128, DESK_SHAPES, 40) == 3_801_088


def test_backward_flops_counts_each_matmul_of_backward():
    n, k, d = 128, 40, 64
    expected = (2 * n * k * d        # dcos @ head_unit
                + 2 * k * n * d      # dcos.T @ emb_unit
                + 2 * 64 * n * 128   # layer 1 weight gradient
                + 2 * n * 64 * 128   # layer 1 input gradient
                + 2 * 128 * n * 32)  # layer 0 weight gradient (no input gradient)
    assert tracing.backward_flops(n, DESK_SHAPES, k) == expected == 6_553_600


def test_embed_flops_is_backbone_only():
    assert tracing.mlp_flops(400, DESK_SHAPES) == 2 * 400 * (32 * 128 + 128 * 64)


def test_sgd_step_bytes_desk_model():
    params = 32 * 128 + 128 + 128 * 64 + 64 + 40 * 64
    assert params == 15_040
    assert tracing.sgd_step_bytes(8 * params) == 601_600


def test_enumerated_pairs_and_kept_ratio():
    assert tracing.enumerated_pairs(4000) == 7_998_000
    tracer = tracing.Tracer()
    tracer.counters["datasets.make_pairs"] = {"kept": 20_000, "enumerated": 7_998_000}
    tracer.spans.append(["datasets.make_pairs", 0.0, 1.0, None])
    metrics = tracing.layer_metrics(tracer, ["datasets.make_pairs"])
    assert metrics["datasets.make_pairs.kept_ratio"] == pytest.approx(20_000 / 7_998_000)


def test_self_times_subtract_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["leaf", 6.0, 6.5, 3],
    ]
    times = tracing.self_times(spans)
    assert times == {"root": (1, 3.0), "a": (1, 2.0), "leaf": (2, 1.5), "b": (1, 3.5)}
    assert sum(own for _calls, own in times.values()) == pytest.approx(10.0)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_nests_spans_and_closes_on_error():
    tracer = tracing.Tracer(clock=_Clock())

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap("inner", lambda x: x + 1)
    failing = tracer.wrap("failing", fail)

    def body():
        value = inner(1)
        with pytest.raises(ValueError):
            failing()
        return value

    outer = tracer.wrap("outer", body)
    assert outer() == 2
    assert [(name, parent) for name, _s, _e, parent in tracer.spans] == [
        ("outer", None), ("inner", 0), ("failing", 0)]
    assert all(end is not None for _n, _s, end, _p in tracer.spans)
    times = tracing.self_times(tracer.spans)
    assert sum(own for _c, own in times.values()) == pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1])


def test_work_extractor_error_drops_the_stat_not_the_call():
    tracer = tracing.Tracer()
    wrapped = tracer.wrap("f", lambda: 7, work=lambda a, k, r: {"rows": len(r)})
    assert wrapped() == 7
    assert "f" in tracer.work_errors and "f" not in tracer.counters


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracing.metric_units()


def test_benchmark_json_lists_every_end_to_end_metric():
    outcome = {"workload": "search-desk",
               "setups": [{"ok": True, "setup_s": 0.2, "train_samples": 1600}],
               "runs": [{"kind": "untraced", "run_s": 2.0, "peak_rss_mb": 47.0,
                         "val_verification_acc": 0.66, "problems": []}]}
    metrics = run.end_to_end(outcome)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_value, unit) in metrics.items()}
    assert metrics["train_samples_per_s"][0] == pytest.approx(4 * 30 * 1600 / 2.0)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def test_traced_child_patches_from_imports_and_closes_the_sum(tmp_path):
    result = tmp_path / "result.json"
    argv = ["search", "--out", str(tmp_path / "out"), "--epochs", "2",
            "--population", "2"]
    subprocess.run([sys.executable, str(HERE / "child.py"), "run", str(result), "1",
                    "--", *argv], check=True, env=_child_env(), capture_output=True,
                   timeout=120)
    out = json.loads(result.read_text(encoding="utf-8"))
    layers = out["layers"]
    assert out["exit_code"] == 0
    # Called through sgd_trainer's and search_engine's own bindings.
    assert layers["embed_model.forward.calls"] == 2 * 2 * 13
    assert layers["sgd_trainer.train_candidates.calls"] == 2
    assert layers["eval_protocols.reward.calls"] == 2 * 2
    assert layers["runio.MetricsWriter.write.calls"] == 2 * 2
    assert layers["checkpoint.write_checkpoint.calls"] == 2 + 1
    assert layers["datasets.load_flat_file.calls"] == 0
    assert layers["embed_model.forward.gflops"] > 0
    assert out["work_errors"] == {}
    total_ms = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    assert total_ms / 1e3 == pytest.approx(out["span_self_sum_s"])
    assert out["span_self_sum_s"] <= out["run_s"]
    assert out["run_s"] - out["span_self_sum_s"] < 0.01


def test_check_outputs_flags_out_of_range_accuracy(tmp_path):
    from lfsearch.checkpoint import read_checkpoint

    workload = run.WORKLOADS["fixed-csv-large"]
    (tmp_path / "metrics.jsonl").write_text("{}\n" * workload.epochs)
    (tmp_path / "eval.json").write_text(json.dumps(
        {"verification_accuracy": 1.5, "rank1": 0.5, "fold_accuracies": [0.5],
         "tpr_at_far": {"0.1": 0.2}}))
    problems = run.check_outputs(tmp_path, workload, read_checkpoint)
    assert any("outside [0, 1]" in p for p in problems)
    assert any("FileNotFoundError" in p for p in problems)


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "search-desk", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
