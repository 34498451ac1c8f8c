"""lfsearch benchmark: two CLI workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload search-desk --seed 1 --seconds 55 --trace 0

Run from the repository root. Every measured step is a fresh interpreter
(perfbench/child.py), started one at a time. `--trace 0` alternates set-up
replays and untraced `cli.main(argv)` runs and prints the end-to-end metrics;
`--trace 1` alternates traced and untraced runs and prints the per-layer
metrics. Every run's outputs are checked; a failed check counts in `failed`
and never aborts the benchmark. The last stdout line is the result object;
the line before it holds the environment, per-run values and hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
MIN_ROUNDS = 3
SETUP_EVERY = 2  # rounds per set-up replay; the other rounds only run the command
BUDGET_S = 150.0  # every invocation must end well inside 180 s

DESK_DATASET = {"classes": 50, "dim": 32, "samples_per_class": 40,
                "noise_sigma": 0.35, "train_frac": 0.8, "n_pairs": 2000}
MODEL = {"hidden": [128], "embedding": 64, "scale": 32.0}
LARGE_CSV = {"identities": 500, "per_identity": 40, "dim": 32, "sigma": 0.35}


@dataclass(frozen=True)
class Workload:
    command: str
    epochs: int
    candidates: int  # models trained per epoch
    checkpoint: str


# The search loop dominates search-desk. fixed-csv-large has no search; set-up
# (CSV parsing, pair enumeration) and a 500-class head dominate it, so a change
# to the search loop or candidate training should leave it unchanged.
WORKLOADS = {
    "search-desk": Workload("search", epochs=30, candidates=4, checkpoint="best.lfs"),
    "fixed-csv-large": Workload("train-fixed", epochs=5, candidates=1,
                                checkpoint="model.lfs"),
}


def workload_config(name: str, seed: int, csv_path: str | None) -> dict:
    """Settings tree passed as --config; sizes are pinned, not left to defaults."""
    if name == "search-desk":
        return {"seed": seed, "reward": "verification", "dataset": dict(DESK_DATASET),
                "model": dict(MODEL), "schedule": {"epochs": 30},
                "search": {"population": 4}}
    return {"seed": seed, "reward": "classification",
            "dataset": {"path": csv_path, "train_frac": 0.8, "n_pairs": 20000},
            "model": dict(MODEL), "schedule": {"epochs": 5},
            "loss": {"kind": "additive"}}


def write_identity_csv(path: Path, seed: int, identities: int, per_identity: int,
                       dim: int, sigma: float) -> None:
    """Label-suffixed CSV of noisy unit-sphere clusters, deterministic per seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((identities, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = np.repeat(centers, per_identity, axis=0)
    rows += sigma * rng.standard_normal(rows.shape)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    labels = np.repeat(np.arange(identities), per_identity)
    with open(path, "w", encoding="utf-8") as handle:
        for row, label in zip(rows.tolist(), labels.tolist()):
            handle.write(",".join(format(v, ".17g") for v in row) + f",{label}\n")


# ---------------------------------------------------------------------------
# children


class Runner:
    """Starts child.py steps one at a time and keeps the invocation in budget."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.started = time.perf_counter()
        self.count = 0
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def step(self, args) -> tuple[dict | None, str]:
        """Run one child; return (result or None, error text)."""
        self.count += 1
        result_path = self.work / f"result-{self.count}.json"
        timeout = max(10.0, BUDGET_S + 20.0 - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), args[0], str(result_path),
                 *args[1:]],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, f"child exit {proc.returncode}: {' | '.join(tail)}"
        return json.loads(result_path.read_text(encoding="utf-8")), ""


# ---------------------------------------------------------------------------
# checks


def check_outputs(run_dir: Path, workload: Workload, read_checkpoint) -> list:
    """Problems with one run directory; an empty list means it passed."""
    problems = []
    try:
        lines = (run_dir / "metrics.jsonl").read_bytes().splitlines()
        if len(lines) != workload.epochs:
            problems.append(f"metrics.jsonl has {len(lines)} lines, "
                            f"expected {workload.epochs}")
        report = json.loads((run_dir / "eval.json").read_text(encoding="utf-8"))
        accuracies = [report["verification_accuracy"], report["rank1"],
                      *report["fold_accuracies"], *report["tpr_at_far"].values()]
        if not all(0.0 <= value <= 1.0 for value in accuracies):
            problems.append("eval.json has an accuracy outside [0, 1]")
        read_checkpoint(run_dir / workload.checkpoint)
    except Exception as exc:  # any unreadable output is a failed check
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# measurement


def measure(name: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    # A fixed work path keeps dataset.path, and so run_id and the metrics.jsonl
    # bytes, identical across checkouts.
    work = root / WORK_DIR / f"{name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(name, seed, seconds, trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_once(runner, workload, config_arg, run_dir, kind, read_checkpoint) -> dict:
    argv = [workload.command, "--config", config_arg,
            "--out", run_dir.relative_to(runner.root).as_posix()]
    trace_flag = "1" if kind == "traced" else "0"
    result, error = runner.step(["run", trace_flag, "--", *argv])
    record = {"kind": kind, **(result or {})}
    problems = [error] if result is None else []
    if result is not None and result["exit_code"] != 0:
        problems.append(f"exit code {result['exit_code']}")
    if not problems:
        problems = check_outputs(run_dir, workload, read_checkpoint)
    if (run_dir / "metrics.jsonl").exists():
        digest = hashlib.sha256((run_dir / "metrics.jsonl").read_bytes())
        record["metrics_sha256"] = digest.hexdigest()
    if not problems:
        report = json.loads((run_dir / "eval.json").read_text(encoding="utf-8"))
        record["val_verification_acc"] = report["verification_accuracy"]
    record["problems"] = problems
    return record


def _measure(name, seed, seconds, trace, root, work) -> dict:
    sys.path.insert(0, str(root / "src"))
    from lfsearch.checkpoint import read_checkpoint

    workload = WORKLOADS[name]
    csv_path = None
    if name == "fixed-csv-large":
        csv_path = f"{work.relative_to(root).as_posix()}/identities.csv"
        write_identity_csv(root / csv_path, seed, **LARGE_CSV)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload_config(name, seed, csv_path)) + "\n",
                           encoding="utf-8")

    runner = Runner(root, work)
    config_arg = config_path.relative_to(root).as_posix()
    kinds = ("untraced", "traced") if trace else ("untraced",)
    setups, runs = [], []
    measure_start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        if not trace and rounds % SETUP_EVERY == 0:
            result, error = runner.step(["setup", config_arg])
            setups.append({"ok": result is not None, "error": error, **(result or {})})
        for kind in kinds:
            run_dir = work / f"run-{len(runs) + 1}"
            runs.append(_run_once(runner, workload, config_arg, run_dir,
                                  kind, read_checkpoint))
            shutil.rmtree(run_dir, ignore_errors=True)
        rounds += 1
        # Start a round only if it should finish inside the window.
        round_s = time.perf_counter() - round_start
        if runner.elapsed() + round_s > BUDGET_S:
            break
        if rounds >= MIN_ROUNDS and time.perf_counter() - measure_start + round_s > seconds:
            break

    # Determinism: every run of one workload and seed writes the same bytes.
    hashes = [r.get("metrics_sha256") for r in runs if not r["problems"]]
    reference = hashes[0] if hashes else None
    for record in runs:
        if not record["problems"] and record.get("metrics_sha256") != reference:
            record["problems"].append("metrics.jsonl differs from the first run")

    return {"workload": name, "setups": setups, "runs": runs, "metrics_sha256": reference,
            "measured_s": time.perf_counter() - measure_start}


def end_to_end(outcome: dict) -> dict:
    workload = WORKLOADS[outcome["workload"]]
    good = [r for r in outcome["runs"] if not r["problems"]]
    good_setups = [s for s in outcome["setups"] if s["ok"]]
    if not good or not good_setups:
        return {}
    train_samples = good_setups[0]["train_samples"]
    trained = workload.candidates * workload.epochs * train_samples
    return {
        "run_s": (median([r["run_s"] for r in good]), "s"),
        "setup_s": (median([s["setup_s"] for s in good_setups]), "s"),
        "train_samples_per_s": (median([trained / r["run_s"] for r in good]),
                                "samples/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in good]), "MB"),
        "val_verification_acc": (median([r["val_verification_acc"] for r in good]),
                                 "fraction"),
    }


def per_layer(outcome: dict) -> tuple[dict, dict]:
    import tracing

    units = tracing.metric_units()
    traced = [r for r in outcome["runs"] if r["kind"] == "traced" and not r["problems"]]
    untraced = [r for r in outcome["runs"]
                if r["kind"] == "untraced" and not r["problems"]]
    names = sorted({key for r in traced for key in r["layers"]})
    metrics = {key: (median([r["layers"][key] for r in traced if key in r["layers"]]),
                     units[key])
               for key in names}
    notes = {}
    if traced and untraced:
        traced_run = median([r["run_s"] for r in traced])
        notes = {
            "traced_run_s": traced_run,
            "untraced_run_s": median([r["run_s"] for r in untraced]),
            "tracing_overhead_s": traced_run - median([r["run_s"] for r in untraced]),
            # cli.main is the root span, so its self time closes the sum.
            "span_self_sum_minus_run_s": median(
                [r["span_self_sum_s"] - r["run_s"] for r in traced]),
            "work_errors": traced[0]["work_errors"],
        }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "lfsearch" / "cli.py").is_file():
        print(f"perfbench: no lfsearch sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2

    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    notes = {}
    if args.trace:
        metrics, notes = per_layer(outcome)
    else:
        metrics = end_to_end(outcome)
    if not metrics:
        print("perfbench: no run passed its checks; no metrics to report",
              file=sys.stderr)
        print(json.dumps({"runs": outcome["runs"], "setups": outcome["setups"]}),
              file=sys.stderr)
        return 1

    attempted = len(outcome["runs"]) + len(outcome["setups"])
    failed = (sum(1 for r in outcome["runs"] if r["problems"])
              + sum(1 for s in outcome["setups"] if not s["ok"]))
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "measured_s": outcome["measured_s"],
        "metrics_sha256": outcome["metrics_sha256"],
        "failed_share": failed / attempted,
        "computed_not_measured": "gflops: matmul FLOPs from array shapes; "
                                 "bytes: array and file sizes",
        "environment": environment(root),
        "trace_notes": notes,
        "runs": outcome["runs"],
        "setups": outcome["setups"],
    }
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
