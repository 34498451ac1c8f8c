"""End-to-end tests of the command-line harness, run in process against
small synthetic problems (in a fresh interpreter where stderr itself is
checked).
"""

import argparse
import copy
import json
import multiprocessing
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import lfsearch
from lfsearch import candidate_workers, cli, numerics
from lfsearch.checkpoint import param_digest, read_checkpoint
from lfsearch.cli import main
from lfsearch.config import ConfigError, ExperimentConfig, from_dict, schedule_of
from lfsearch.contracts import ContractViolation
from lfsearch.datasets import (DataFormatError, SyntheticSpec, generate_synthetic,
                               load_flat_file, make_pairs)
from lfsearch.embed_model import init_model
from lfsearch.eval_protocols import reward
from lfsearch.margin_losses import MarginSpec
from lfsearch.numerics import RngStream
from lfsearch.runio import run_id
from lfsearch.search_engine import FactorRange
from lfsearch.sgd_trainer import TrainState, train_epoch
from oracles import save_flat_file

SRC = str(Path(lfsearch.__file__).resolve().parents[1])

BASE = {
    "dataset": {"classes": 8, "dim": 8, "samples_per_class": 8,
                "noise_sigma": 0.3, "train_frac": 0.75, "n_pairs": 24},
    "model": {"hidden": [16], "embedding": 8, "scale": 16.0},
    "sgd": {"batch_size": 16},
    "schedule": {"epochs": 2, "drop_epochs": []},
    "search": {"population": 2},
}


def write_config(tmp_path, name="config.json", **overrides):
    tree = copy.deepcopy(BASE)
    for section, value in overrides.items():
        if isinstance(value, dict):
            tree.setdefault(section, {}).update(value)
        else:
            tree[section] = value
    path = tmp_path / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return str(path)


def fresh_env(**changes):
    """The test environment with src/ on PYTHONPATH; a None value unsets."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for name, value in changes.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return env


def run_cli(argv, processes=None, **env_changes):
    """Run the command line in a fresh interpreter, so that warnings reach
    stderr as they would outside the test runner; `processes` forces the
    number of candidate processes a search uses."""
    if processes is None:
        entry = ["-m", "lfsearch.cli"]
    else:
        entry = ["-c", "import sys; from lfsearch import candidate_workers, cli; "
                       "candidate_workers.candidate_processes = "
                       f"lambda population: {processes}; "
                       "sys.exit(cli.main(sys.argv[1:]))"]
    return subprocess.run([sys.executable, *entry, *argv],
                          env=fresh_env(**env_changes), capture_output=True, text=True,
                          timeout=120)


def run_files(out):
    """Every file of a run directory, checkpoints included, but the two that
    describe the machine rather than the result."""
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()
            and path.name not in ("timings.jsonl", "environment.json")}


@pytest.fixture
def force_processes(monkeypatch):
    """Set the number of candidate processes the command line's searches use."""
    return lambda count: monkeypatch.setattr(candidate_workers, "candidate_processes",
                                             lambda population: count)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def read_xy(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y"
    return [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]


def epoch_timings(out):
    """The epoch lines of timings.jsonl, without its start and finish lines."""
    return [t for t in read_jsonl(out / "timings.jsonl") if "epoch" in t]


def check_epoch_files(out, loss_of, epochs=2):
    """convergence.csv follows the per-epoch loss in metrics.jsonl, and
    timings.jsonl has a start line, one line per epoch and a finish line."""
    records = read_jsonl(out / "metrics.jsonl")
    assert [r["epoch"] for r in records] == list(range(1, epochs + 1))
    assert read_xy(out / "convergence.csv") == [(float(r["epoch"]), loss_of(r))
                                                for r in records]
    start, *timings, finish = read_jsonl(out / "timings.jsonl")
    assert sorted(start) == ["phase", "seconds"] and start["phase"] == "start"
    assert [t["epoch"] for t in timings] == list(range(1, epochs + 1))
    assert sorted(finish) == ["checkpoint_s", "evaluation_s", "phase"]
    assert finish["phase"] == "finish"
    assert all(t[key] >= 0.0 for t in (start, *timings, finish)
               for key in ("seconds", "checkpoint_s", "evaluation_s")
               if key in t)
    return records


class TestTrainFixed:
    def test_produces_run_directory(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train-fixed", "--config", config, "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "cmc.csv", "config.json", "convergence.csv", "environment.json", "eval.json",
            "metrics.jsonl", "model.lfs", "roc.csv", "timings.jsonl"]
        records = read_jsonl(out / "metrics.jsonl")
        assert [r["epoch"] for r in records] == [1, 2]
        resolved = json.loads((out / "config.json").read_text(encoding="utf-8"))
        expected_id = run_id(resolved)
        assert all(r["run_id"] == expected_id for r in records)
        assert all(r["mode"] == "fixed" for r in records)
        report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        assert 0.0 <= report["verification_accuracy"] <= 1.0
        assert 0.0 <= report["rank1"] <= 1.0

    def test_zero_factor_spelling_matches_plain_exactly(self, tmp_path):
        config = write_config(tmp_path)
        out_plain = tmp_path / "plain"
        out_unified = tmp_path / "unified"
        assert main(["train-fixed", "--config", config, "--loss", "plain",
                     "--out", str(out_plain)]) == 0
        assert main(["train-fixed", "--config", config, "--loss", "unified",
                     "--a", "0", "--out", str(out_unified)]) == 0
        for name in ("config.json", "metrics.jsonl", "model.lfs", "eval.json"):
            assert (out_plain / name).read_bytes() == (out_unified / name).read_bytes()

    def test_curves_follow_metric_stream(self, tmp_path):
        config = write_config(tmp_path, schedule={"epochs": 3, "drop_epochs": []})
        out = tmp_path / "run"
        assert main(["train-fixed", "--config", config, "--out", str(out)]) == 0
        check_epoch_files(out, lambda r: r["mean_loss"], epochs=3)

    def test_rerun_replaces_metrics(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train-fixed", "--config", config, "--out", str(out)]) == 0
        assert main(["train-fixed", "--config", config, "--out", str(out)]) == 0
        assert len(read_jsonl(out / "metrics.jsonl")) == 2

    def test_loss_alias(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train-fixed", "--config", config, "--loss", "am",
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "config.json").read_text(encoding="utf-8"))
        assert resolved["loss"]["kind"] == "additive"

    def test_deterministic_across_runs(self, tmp_path):
        config = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train-fixed", "--config", config, "--out", str(out_a)]) == 0
        assert main(["train-fixed", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "model.lfs").read_bytes() == (out_b / "model.lfs").read_bytes()
        assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()


    def test_angular_overshoot_warns_once_per_run(self, tmp_path):
        # Overshoot happens in each of the three epochs; the warning does not
        # repeat.
        config = write_config(tmp_path)
        proc = run_cli(["train-fixed", "--config", config, "--loss", "angular",
                        "--epochs", "3", "--out", str(tmp_path / "x")])
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("margin transform exceeds the target cosine on ")

    @pytest.mark.parametrize("source", ["csv", "synthetic"])
    def test_full_dataset_is_released_before_the_pair_draws(self, tmp_path, monkeypatch,
                                                            source):
        refs, alive = [], []

        def tracked(load):
            def wrapper(*args, **kwargs):
                full = load(*args, **kwargs)
                refs.append(weakref.ref(full))
                if source == "csv":  # the features view the parsed table
                    assert full.features.base is not None
                    refs.append(weakref.ref(full.features.base))
                return full
            return wrapper

        def pairs(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return make_pairs(*args, **kwargs)

        monkeypatch.setattr("lfsearch.cli.load_flat_file", tracked(load_flat_file))
        monkeypatch.setattr("lfsearch.cli.generate_synthetic", tracked(generate_synthetic))
        monkeypatch.setattr("lfsearch.cli.make_pairs", pairs)
        argv = ["train-fixed", "--config", write_config(tmp_path), "--epochs", "1",
                "--out", str(tmp_path / "x")]
        if source == "csv":
            csv = tmp_path / "data.csv"
            save_flat_file(csv, generate_synthetic(SyntheticSpec(8, 8, 8, 0.3, 0)))
            argv += ["--data", str(csv)]
        assert main(argv) == 0
        assert len(refs) == (2 if source == "csv" else 1)
        assert alive == [[False] * len(refs)]


class TestBlasThreads:
    def test_k500_run_files_do_not_depend_on_the_thread_count(self, tmp_path):
        """A 500-class head makes products that OpenBLAS splits over threads
        and rounds differently; one pinned thread writes the same bytes
        whatever OPENBLAS_NUM_THREADS says."""
        config = tmp_path / "k500.json"
        config.write_text(json.dumps({
            "seed": 3, "reward": "classification", "schedule": {"epochs": 1},
            "loss": {"kind": "additive"},
            "dataset": {"classes": 500, "samples_per_class": 5, "train_frac": 0.6,
                        "n_pairs": 200}}), encoding="utf-8")
        runs = []
        for threads in (None, "1", "2"):
            out = tmp_path / f"threads-{threads}"
            proc = run_cli(["train-fixed", "--config", str(config), "--out", str(out)],
                           OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            runs.append({path.name: path.read_bytes() for path in out.iterdir()
                         if path.name not in ("timings.jsonl", "environment.json")})
        assert len(runs[0]) == 7
        assert runs[0] == runs[1] == runs[2]

    def test_k500_search_files_do_not_depend_on_the_thread_count(self, tmp_path):
        """The same with two candidate processes: each worker trains on the
        one pinned thread it inherits."""
        config = tmp_path / "k500.json"
        config.write_text(json.dumps({
            "seed": 3, "schedule": {"epochs": 1}, "search": {"population": 2},
            "dataset": {"classes": 500, "samples_per_class": 5, "train_frac": 0.6,
                        "n_pairs": 200}}), encoding="utf-8")
        runs = []
        for threads in (None, "1", "2"):
            out = tmp_path / f"threads-{threads}"
            proc = run_cli(["search", "--config", str(config), "--out", str(out)],
                           processes=2, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            environment = json.loads((out / "environment.json").read_text(encoding="utf-8"))
            assert environment["candidate_processes"] == 2
            runs.append(run_files(out))
        assert len(runs[0]) == 9
        assert runs[0] == runs[1] == runs[2]

    def test_environment_record_and_thread_count_restored(self, tmp_path):
        lib = numerics._openblas()
        before = lib.scipy_openblas_get_num_threads64_() if lib is not None else None
        if lib is not None:
            lib.scipy_openblas_set_num_threads64_(2)
        try:
            out = tmp_path / "run"
            assert main(["train-fixed", "--config", write_config(tmp_path),
                         "--out", str(out)]) == 0
            after = numerics.blas_environment()
        finally:
            if lib is not None:
                lib.scipy_openblas_set_num_threads64_(before)
        record = json.loads((out / "environment.json").read_text(encoding="utf-8"))
        assert record["numpy"] == np.__version__
        assert record["candidate_processes"] == 1
        assert sorted(record["blas"]) == ["name", "version"]
        if lib is None:
            assert record["pinned"] is False and record["blas_threads"] is None
        else:
            assert record["pinned"] is True and record["blas_threads"] == 1
            assert after["blas_threads"] == 2 and after["pinned"] is False

    def test_a_search_run_does_not_import_numpy_ma(self, tmp_path):
        code = ("import sys; from lfsearch.cli import main; "
                f"code = main(['search', '--epochs', '1', '--out', {str(tmp_path)!r}]); "
                "print(code, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr


class TestSearchCommand:
    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        outs = [tmp_path / name for name in ("a", "b", "c")]
        for out in outs:
            assert main(["search", "--config", config, "--out", str(out)]) == 0
        for name in ("config.json", "metrics.jsonl", "best.lfs", "eval.json",
                     "mu_trajectory.csv", "convergence.csv"):
            blobs = [(out / name).read_bytes() for out in outs]
            assert blobs[0] == blobs[1] == blobs[2], name
        for epoch in (1, 2):
            blobs = [(out / "checkpoints" / f"epoch_{epoch:03d}.lfs").read_bytes()
                     for out in outs]
            assert blobs[0] == blobs[1] == blobs[2]

    def test_metric_stream_chains_winner_digests(self, tmp_path):
        config = write_config(tmp_path, schedule={"epochs": 3, "drop_epochs": []})
        out = tmp_path / "run"
        assert main(["search", "--config", config, "--out", str(out)]) == 0
        records = read_jsonl(out / "metrics.jsonl")
        assert len(records) == 3
        for prev, cur in zip(records, records[1:]):
            assert cur["start_digest"] == prev["winner_digest"]
        for record in records:
            assert record["rewards"][record["winner"]] == max(record["rewards"])
            assert all(a <= 0.0 for a in record["factors"])

    def test_curves_follow_metric_stream(self, tmp_path):
        # The wide sigma spreads the rewards, so mu moves and a candidate
        # other than 0 wins at least once.
        config = write_config(tmp_path, schedule={"epochs": 3, "drop_epochs": []},
                              search={"population": 2, "sigma": 4.0})
        out = tmp_path / "run"
        assert main(["search", "--config", config, "--out", str(out)]) == 0
        records = check_epoch_files(out, lambda r: r["mean_losses"][r["winner"]], epochs=3)
        assert any(r["winner"] != 0 for r in records)
        assert any(r["mu_after"] != r["mu_before"] for r in records)
        assert read_xy(out / "mu_trajectory.csv") == [(float(r["epoch"]), r["mu_after"])
                                                      for r in records]

    def test_report_carries_search_outcome(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["search", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        assert report["best_epoch"] in (1, 2)
        assert report["best_candidate"] in (0, 1)
        assert "final_mu" in report


    def test_worker_count_changes_no_byte(self, tmp_path, force_processes):
        """A desk search (default data and model, 3 epochs, population 4)
        writes the same files in process and with two workers."""
        config = tmp_path / "desk.json"
        config.write_text(json.dumps({"schedule": {"epochs": 3},
                                      "search": {"population": 4}}), encoding="utf-8")
        runs = []
        for processes in (1, 2):
            force_processes(processes)
            out = tmp_path / f"processes-{processes}"
            assert main(["search", "--config", str(config), "--out", str(out)]) == 0
            environment = json.loads((out / "environment.json").read_text(encoding="utf-8"))
            assert environment["candidate_processes"] == processes
            runs.append(run_files(out))
        assert len(runs[0]) == 11
        assert runs[0] == runs[1]

    def test_timings_time_each_candidate(self, tmp_path):
        config = write_config(tmp_path, search={"population": 3})
        out = tmp_path / "run"
        assert main(["search", "--config", config, "--out", str(out)]) == 0
        timings = epoch_timings(out)
        assert [len(t["candidates"]) for t in timings] == [3, 3]
        assert all(c["train_s"] > 0 and c["reward_s"] > 0
                   for t in timings for c in t["candidates"])

    @pytest.mark.parametrize("error, code", [(None, 0), (ConfigError, 2),
                                             (DataFormatError, 3), ("lr", 4),
                                             (KeyboardInterrupt, None)])
    def test_no_worker_outlives_a_run(self, tmp_path, monkeypatch, force_processes,
                                      error, code):
        force_processes(2)
        lr = 1e300 if error == "lr" else 0.1
        if error not in (None, "lr"):
            def fail(*args):
                raise error("stopped in an epoch")

            monkeypatch.setattr(cli, "write_checkpoint", fail)
        argv = ["search", "--config", write_config(tmp_path, sgd={"learning_rate": lr}),
                "--out", str(tmp_path / "run")]
        with np.errstate(all="ignore"):
            if code is None:
                with pytest.raises(error):
                    main(argv)
            else:
                assert main(argv) == code
        assert multiprocessing.active_children() == []


def initial_run(config_path):
    """The data a run of the config file trains on, and its initial state."""
    config = from_dict(json.loads(Path(config_path).read_text(encoding="utf-8")))
    train, val, pairs = cli._prepare_data(config)
    model, head = init_model([train.feature_dim, *config.model.hidden,
                              config.model.embedding], train.identity_count,
                             config.model.scale, RngStream(config.seed, "init"))
    return config, (train, val, pairs), TrainState.fresh(model, head)


class TestRandomSchedule:
    def test_factors_are_negative_and_logged(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["random-schedule", "--config", config, "--out", str(out)]) == 0
        records = read_jsonl(out / "metrics.jsonl")
        assert len(records) == 2
        for record in records:
            assert record["mode"] == "random"
            assert -10000.0 <= record["a"] <= -1.0
            assert 0.0 <= record["val_reward"] <= 1.0
            assert record["mean_loss"] > 0.0
        assert (out / "model.lfs").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["random-schedule", "--config", config, "--out", str(out)]) == 0
        assert run_files(outs[0]) == run_files(outs[1])

    @pytest.mark.parametrize("mag_lo, mag_hi", [(1.0, 1e4), (0.0, 0.0)])
    def test_epochs_are_the_unified_loss_at_the_drawn_factor(self, tmp_path, mag_lo,
                                                             mag_hi):
        """Each epoch trains from the previous one under the unified loss at
        the factor FactorRange.draw takes from the epoch's "factor" child of
        the "random" root stream; a collapsed range trains plain softmax."""
        path = write_config(tmp_path, seed=7, random={"mag_lo": mag_lo, "mag_hi": mag_hi},
                            schedule={"epochs": 3, "drop_epochs": [2]})
        out = tmp_path / "run"
        assert main(["random-schedule", "--config", path, "--out", str(out)]) == 0
        config, (train, val, pairs), state = initial_run(path)
        root = RngStream(7, "random")
        expected = []
        for epoch in (1, 2, 3):
            stream = root.child(f"epoch{epoch}")
            a = FactorRange(mag_lo, mag_hi).draw(stream.child("factor"))
            state, mean_loss = train_epoch(state, MarginSpec.unified(a), train, config.sgd,
                                           schedule_of(config).lr_at(epoch), stream)
            expected.append((a, mean_loss, reward(state.model, state.head, val, pairs,
                                                  config.reward)))
        assert [(r["a"], r["mean_loss"], r["val_reward"])
                for r in read_jsonl(out / "metrics.jsonl")] == expected
        assert param_digest(*read_checkpoint(out / "model.lfs")) == \
            param_digest(state.model, state.head)

    def test_zero_epochs_keep_the_initial_model(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["random-schedule", "--config", path, "--epochs", "0",
                     "--out", str(out)]) == 0
        assert read_jsonl(out / "metrics.jsonl") == []
        report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        assert report["final_val_reward"] is None
        _config, _data, state = initial_run(path)
        assert param_digest(*read_checkpoint(out / "model.lfs")) == \
            param_digest(state.model, state.head)

    def test_curves_follow_metric_stream(self, tmp_path):
        config = write_config(tmp_path, schedule={"epochs": 3, "drop_epochs": []})
        out = tmp_path / "run"
        assert main(["random-schedule", "--config", config, "--out", str(out)]) == 0
        check_epoch_files(out, lambda r: r["mean_loss"], epochs=3)

    def test_collapsed_range_pins_factor_to_zero(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["random-schedule", "--config", config, "--out", str(out),
                     "--mag-lo", "0", "--mag-hi", "0"]) == 0
        records = read_jsonl(out / "metrics.jsonl")
        assert all(record["a"] == 0.0 for record in records)


class TestAblate:
    def test_trains_one_run_per_factor(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "ablation"
        assert main(["ablate-a", "--config", config, "--out", str(out),
                     "--factors", "0,-10"]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert [row["a"] for row in summary] == [0.0, -10.0]
        for row in summary:
            assert 0.0 <= row["verification_accuracy"] <= 1.0
        assert (out / "a_0" / "eval.json").exists()
        assert (out / "a_-10" / "eval.json").exists()
        zero_cfg = json.loads((out / "a_0" / "config.json").read_text(encoding="utf-8"))
        assert zero_cfg["loss"]["kind"] == "plain"

    def test_positive_factor_is_a_config_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["ablate-a", "--config", config, "--out", str(tmp_path / "x"),
                     "--factors", "0,5"]) == 2

    @pytest.mark.parametrize("factors, named", [
        ("-1e-7,-1.0000001e-7", "-1e-07 and -1.0000001e-07"),
        ("0,-10,-10", "-10.0 and -10.0"),
    ])
    def test_factors_sharing_a_run_directory(self, tmp_path, capsys, factors, named):
        # "a_{value:g}" prints both factors alike; the later run would
        # overwrite the earlier one while summary.json listed both.
        config = write_config(tmp_path)
        out = tmp_path / "x"
        assert main(["ablate-a", "--config", config, "--out", str(out),
                     f"--factors={factors}"]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_prepares_the_data_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return make_pairs(*args, **kwargs)

        monkeypatch.setattr("lfsearch.cli.make_pairs", counted)
        config = write_config(tmp_path, schedule={"epochs": 1})
        assert main(["ablate-a", "--config", config, "--out", str(tmp_path / "x"),
                     "--factors", "0,-1,-10"]) == 0
        assert len(calls) == 1


class TestEvalCommand:
    def test_reproduces_training_evaluation(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train-fixed", "--config", config, "--out", str(out)]) == 0
        eval_out = tmp_path / "eval"
        assert main(["eval", "--config", config, "--out", str(eval_out),
                     "--checkpoint", str(out / "model.lfs")]) == 0
        train_report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        eval_report = json.loads((eval_out / "eval.json").read_text(encoding="utf-8"))
        train_report.pop("final_val_reward")
        assert eval_report == train_report
        assert (eval_out / "roc.csv").read_bytes() == (out / "roc.csv").read_bytes()
        assert (eval_out / "cmc.csv").read_bytes() == (out / "cmc.csv").read_bytes()

    def test_missing_checkpoint_is_a_data_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["eval", "--config", config, "--out", str(tmp_path / "x"),
                     "--checkpoint", str(tmp_path / "absent.lfs")]) == 3

    def test_truncated_checkpoint_is_a_data_error(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train-fixed", "--config", config, "--out", str(out)]) == 0
        blob = (out / "model.lfs").read_bytes()
        broken = tmp_path / "broken.lfs"
        broken.write_bytes(blob[: len(blob) // 2])
        assert main(["eval", "--config", config, "--out", str(tmp_path / "x"),
                     "--checkpoint", str(broken)]) == 3

    def test_malformed_data_file_is_a_data_error(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train-fixed", "--config", config, "--out", str(out)]) == 0
        bad = tmp_path / "bad.csv"
        for body in ("1.0,oops\n", "1.0,0\nnan,1\n", "inf,0\n"):
            bad.write_text(body, encoding="utf-8")
            assert main(["eval", "--config", config, "--out", str(tmp_path / "x"),
                         "--checkpoint", str(out / "model.lfs"),
                         "--data", str(bad)]) == 3

    def test_input_dim_mismatch_is_a_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train-fixed", "--config", config, "--out", str(out)]) == 0
        wider = write_config(tmp_path, "wider.json", dataset={"dim": 12})
        assert main(["eval", "--config", wider, "--out", str(tmp_path / "x"),
                     "--checkpoint", str(out / "model.lfs")]) == 3
        assert "feature dim 12 does not match the checkpoint input dim 8" \
            in capsys.readouterr().err


class TestExitCodes:
    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["train-fixed", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_key(self, tmp_path):
        config = write_config(tmp_path, dataset={"classez": 10})
        assert main(["train-fixed", "--config", config,
                     "--out", str(tmp_path / "x")]) == 2

    def test_positive_mu(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["search", "--config", config, "--out", str(tmp_path / "x"),
                     "--mu", "1.0"]) == 2

    def test_odd_pair_count(self, tmp_path):
        config = write_config(tmp_path, dataset={"n_pairs": 7})
        assert main(["train-fixed", "--config", config,
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", [
        ["train-fixed", "--loss", "unified", "--a", "nan"],
        ["train-fixed", "--loss", "unified", "--a=-inf"],
        ["search", "--mu", "nan"],
        ["ablate-a", "--factors", "0,nan"],
        ["ablate-a", "--factors=-inf"],
    ])
    def test_non_finite_flag(self, tmp_path, capsys, argv):
        config = write_config(tmp_path)
        assert main(argv + ["--config", config, "--out", str(tmp_path / "x")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_non_finite_config_value(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"search": {"mu": NaN}}', encoding="utf-8")
        assert main(["search", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_missing_data_file(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["train-fixed", "--config", config, "--out", str(tmp_path / "x"),
                     "--data", str(tmp_path / "absent.csv")]) == 2

    def test_data_path_is_a_directory(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["train-fixed", "--config", config, "--out", str(tmp_path / "x"),
                     "--data", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: dataset.path:")

    def test_pair_pool_beyond_the_limit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("lfsearch.datasets.MAX_PAIR_POOL", 10)
        config = write_config(tmp_path)
        out = tmp_path / "x"
        assert main(["train-fixed", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: dataset: ") and "2**32" in err
        assert err.count("\n") == 1
        assert not (out / "metrics.jsonl").exists()

    @pytest.mark.parametrize("command", ["train-fixed", "search"])
    @pytest.mark.parametrize("learning_rate, failed_epoch", [(1e300, 1), (1e50, 2)])
    def test_non_finite_training(self, tmp_path, capsys, command, learning_rate,
                                 failed_epoch):
        config = write_config(tmp_path, sgd={"learning_rate": learning_rate})
        out = tmp_path / "x"
        with np.errstate(all="ignore"):
            code = main([command, "--config", config, "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"training error: training went non-finite in epoch {failed_epoch}")
        assert err.count("\n") == 1 and "Traceback" not in err
        records = read_jsonl(out / "metrics.jsonl")
        assert [r["epoch"] for r in records] == list(range(1, failed_epoch))

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("learning_rate, failed_epoch", [(1e300, 1), (1e50, 2)])
    def test_non_finite_search_in_each_process_count(self, tmp_path, capsys,
                                                     force_processes, processes,
                                                     learning_rate, failed_epoch):
        force_processes(processes)
        config = write_config(tmp_path, sgd={"learning_rate": learning_rate})
        out = tmp_path / "x"
        with np.errstate(all="ignore"):
            code = main(["search", "--config", config, "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"training error: training went non-finite in epoch {failed_epoch}")
        assert err.count("\n") == 1 and "Traceback" not in err
        records = read_jsonl(out / "metrics.jsonl")
        assert [r["epoch"] for r in records] == list(range(1, failed_epoch))
        assert multiprocessing.active_children() == []

    def test_non_finite_evaluation(self, tmp_path, capsys):
        # Parameters near 1e153 stay finite through training, but the row
        # norms of the final embeddings overflow.
        config = write_config(tmp_path, sgd={"learning_rate": 1e20},
                              schedule={"epochs": 3})
        out = tmp_path / "x"
        with np.errstate(all="ignore"):
            code = main(["train-fixed", "--config", config, "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("training error: validation embeddings are non-finite")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert [r["epoch"] for r in read_jsonl(out / "metrics.jsonl")] == [1, 2, 3]
        assert not (out / "eval.json").exists()

    @pytest.mark.parametrize("command", ["train-fixed", "search", "random-schedule"])
    def test_non_finite_training_prints_one_line(self, tmp_path, command):
        # No np.errstate: the numpy warnings raised on the way to the failure
        # end the one stderr line instead of preceding it.
        config = write_config(tmp_path, sgd={"learning_rate": 1e300})
        proc = run_cli([command, "--config", config, "--out", str(tmp_path / "x")])
        assert proc.returncode == 4
        assert proc.stderr.startswith("training error: training went non-finite in epoch 1")
        assert proc.stderr.count("\n") == 1 and "(first warning: " in proc.stderr

    @pytest.mark.parametrize("error, first_line", [
        (ContractViolation("broken invariant"), "internal error: broken invariant\n"),
        (RuntimeError("boom"), "Traceback (most recent call last):\n"),
    ])
    def test_internal_error(self, tmp_path, capsys, monkeypatch, error, first_line):
        def fail(config):
            raise error

        monkeypatch.setattr("lfsearch.cli._prepare_data", fail)
        config = write_config(tmp_path)
        assert main(["train-fixed", "--config", config, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(first_line)
        assert err.endswith(first_line if "internal" in first_line else "RuntimeError: boom\n")

    def test_interrupt_propagates(self, tmp_path, monkeypatch):
        def interrupt(config):
            raise KeyboardInterrupt

        monkeypatch.setattr("lfsearch.cli._prepare_data", interrupt)
        config = write_config(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            main(["train-fixed", "--config", config, "--out", str(tmp_path / "x")])

    def test_warnings_of_a_finished_run_still_show(self, tmp_path):
        # Huge but finite parameters overflow the row norms, yet the run ends.
        config = write_config(tmp_path, sgd={"learning_rate": 1e15},
                              schedule={"epochs": 3})
        proc = run_cli(["train-fixed", "--config", config, "--out", str(tmp_path / "x")])
        assert proc.returncode == 0
        assert "RuntimeWarning: overflow encountered" in proc.stderr

    @pytest.mark.parametrize("processes", [1, 2])
    def test_warnings_of_a_finished_search_still_show(self, tmp_path, processes):
        config = write_config(tmp_path, sgd={"learning_rate": 1e15},
                              schedule={"epochs": 3})
        proc = run_cli(["search", "--config", config, "--out", str(tmp_path / "x")],
                       processes=processes)
        assert proc.returncode == 0
        assert "RuntimeWarning: overflow encountered" in proc.stderr

    @pytest.mark.parametrize("learning_rate, code", [(1e300, 4), (1e50, 4), (1e20, 0),
                                                     (1e15, 0)])
    def test_worker_warnings_reach_stderr_as_in_process(self, tmp_path, learning_rate,
                                                        code):
        """Two workers print the in-process stderr byte for byte: the held-back
        warnings of a finished run, or the exit-4 line and its first warning."""
        config = write_config(tmp_path, sgd={"learning_rate": learning_rate},
                              schedule={"epochs": 3})
        procs = [run_cli(["search", "--config", config, "--out", str(tmp_path / f"p{n}")],
                         processes=n) for n in (1, 2)]
        assert [proc.returncode for proc in procs] == [code, code]
        assert "overflow encountered" in procs[0].stderr
        assert procs[0].stderr == procs[1].stderr


class TestPairDrawsBesideTraining:
    """The verification pairs are drawn in process before the first epoch."""

    def test_a_config_error_forks_nothing_and_writes_no_epoch(self, tmp_path, capsys,
                                                              monkeypatch):
        def refuse_fork():
            raise AssertionError("forked")

        monkeypatch.setattr("lfsearch.datasets.MAX_PAIR_POOL", 10)
        monkeypatch.setattr(os, "fork", refuse_fork)
        out = tmp_path / "x"
        assert main(["train-fixed", "--config", write_config(tmp_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: dataset: ") and "2**32" in err
        assert not (out / "metrics.jsonl").exists()
        assert multiprocessing.active_children() == []


class TestExportCurves:
    def test_curve_table_values(self, tmp_path):
        from lfsearch.margin_losses import modulating_function

        out = tmp_path / "curves"
        assert main(["export-curves", "--out", str(out), "--a-list", "0,-9"]) == 0
        lines = (out / "curves.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p,h[a=0],pm[a=0],h[a=-9],pm[a=-9]"
        assert len(lines) == 1002
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert row["p"] == "0.001"
        assert row["h[a=0]"] == "1"
        assert float(row["pm[a=0]"]) == 0.001
        mid = dict(zip(lines[0].split(","), lines[501].split(",")))
        assert mid["p"] == "0.500"
        assert float(mid["h[a=-9]"]) == modulating_function(-9.0, 0.5)
        assert float(mid["pm[a=-9]"]) == modulating_function(-9.0, 0.5) * 0.5
        last = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert float(last["h[a=-9]"]) == 1.0
        assert float(last["pm[a=-9]"]) == 1.0

    def test_positive_factor_rejected(self, tmp_path):
        assert main(["export-curves", "--out", str(tmp_path / "x"),
                     "--a-list", "1"]) == 2

    def test_empty_list_rejected(self, tmp_path):
        assert main(["export-curves", "--out", str(tmp_path / "x"),
                     "--a-list", ","]) == 2

    def test_non_finite_factor_rejected(self, tmp_path):
        assert main(["export-curves", "--out", str(tmp_path / "x"),
                     "--a-list", "0,nan"]) == 2


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["export-curves", "--config", "does-not-exist.json"],
        ["export-curves", "--seed", "3"],
        ["eval", "--checkpoint", "model.lfs", "--epochs", "3"],
        ["search", "--threads", "2"],
    ])
    def test_rejects_flags_the_command_does_not_read(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_overrides_pair_every_setting_flag_with_a_setting(self):
        # A dest missing from the table would be read as None and ignored.
        parser = cli._build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        dests = {action.dest for sub in commands.choices.values() for action in sub._actions}
        leaves = set()
        for section, table in ExperimentConfig().to_dict().items():
            if isinstance(table, dict):
                leaves |= {f"{section}.{key}" for key in table}
            else:
                leaves.add(section)
        table = dict(cli._OVERRIDES)
        assert set(table.values()) <= leaves
        assert dests - set(table) == {"help", "out", "config", "factors", "checkpoint",
                                      "a_list"}
