"""Command-line experiment harness.

Subcommands: train-fixed, search, random-schedule, ablate-a, eval,
export-curves. Every run directory gets the resolved config, an append-only
metric stream, the final model, and plot-ready CSV curves. Exit codes: 0
success, 1 internal error, 2 config error, 3 data/format error, 4 training
went non-finite (metrics.jsonl keeps the epochs that completed).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointFormatError, read_checkpoint, write_checkpoint
from .config import (REWARD_KINDS, ConfigError, ExperimentConfig, from_dict,
                     load_config_file, set_path)
from .contracts import ContractViolation
from .datasets import (DataFormatError, SyntheticSpec, generate_synthetic,
                       load_flat_file, make_pairs, split_closed_set, split_open_set)
from .embed_model import init_model
from .eval_protocols import (FarUnresolvableError, embed_all, make_gallery_probe,
                             pair_similarities, rank1_identification, tpr_at_far,
                             verification_accuracy)
from .margin_losses import LOSS_ALIASES, LOSS_KNOBS, MarginKind, modulating_function
from .numerics import RngStream, blas_environment, one_blas_thread
from .runio import MetricsWriter, dumps, format_float, run_id, write_xy_csv
from .search_engine import run_search
from .sgd_trainer import NonFiniteTrainingError, TrainState

DEFAULT_ABLATION_FACTORS = "0,-1,-10,-100,-1000,-10000"
FAR_LADDER = (0.1, 0.01, 0.001, 0.0001, 1e-05, 1e-06)
# Every file a run directory's finished run writes, but the resolved config,
# which a run writes first.
RUN_FILES = ("environment.json", "metrics.jsonl", "timings.jsonl", "model.lfs", "best.lfs",
             "eval.json", "roc.csv", "cmc.csv", "convergence.csv", "mu_trajectory.csv")


# ---------------------------------------------------------------------------
# run assembly


# (argparse dest, dotted config path): every flag that overrides a setting.
_OVERRIDES = (("seed", "seed"), ("data", "dataset.path"), ("reward", "reward"),
              ("epochs", "schedule.epochs"), ("loss", "loss.kind"), ("m1", "loss.m1"),
              ("m2", "loss.m2"), ("m3", "loss.m3"), ("a", "loss.a"),
              ("population", "search.population"), ("mu", "search.mu"),
              ("mag_lo", "random.mag_lo"), ("mag_hi", "random.mag_hi"))


def _make_run_dir(path) -> Path:
    """Make a run directory and its parents; a path that cannot be one is a
    config error of --out."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot make the directory: {exc.strerror}") from None
    return out


def _resolve_config(args) -> ExperimentConfig:
    tree = load_config_file(args.config) if args.config else {}
    for dest, path in _OVERRIDES:
        value = getattr(args, dest, None)
        if value is not None:
            set_path(tree, path, value)
    config = from_dict(tree)
    # A knob flag that the requested loss kind does not read is an error; a
    # config file's unused knobs are allowed. The kind is read as requested,
    # since from_dict folds unified with a = 0 into plain.
    kind = tree.get("loss", {}).get("kind", config.loss.kind)
    kind = MarginKind(LOSS_ALIASES.get(kind, kind))
    for owner, knobs in LOSS_KNOBS.items():
        for knob in knobs:
            if getattr(args, knob, None) is not None and owner is not kind:
                raise ConfigError(f"--{knob}: the {kind.value} loss does not read it; "
                                  f"it is a knob of the {owner.value} loss")
    return config


def _prepare_data(config: ExperimentConfig):
    if config.dataset.path is not None:
        path = Path(config.dataset.path)
        if not path.is_file():
            raise ConfigError(f"dataset.path: file not found: {path}")
        full = load_flat_file(path)
    else:
        full = generate_synthetic(SyntheticSpec(classes=config.dataset.classes,
                                                dim=config.dataset.dim,
                                                samples_per_class=config.dataset.samples_per_class,
                                                noise_sigma=config.dataset.noise_sigma,
                                                seed=config.seed))
    split = split_closed_set if config.reward == "classification" else split_open_set
    try:
        train, val = split(full, config.dataset.train_frac, config.seed)
        # The splits copy their rows. Dropping the full set here frees it (and
        # a CSV's parsed table, which its features view) before the pair draws.
        del full
        pairs = make_pairs(val, config.dataset.n_pairs, config.seed)
    except ContractViolation as exc:
        raise ConfigError(f"dataset: {exc}") from None
    return train, val, pairs


def _init_state(config: ExperimentConfig, train) -> TrainState:
    dims = [train.feature_dim, *config.model.hidden, config.model.embedding]
    model, head = init_model(dims, train.identity_count, config.model.scale,
                             RngStream(config.seed, "init"))
    return TrainState.fresh(model, head)


def _loss_echo(config: ExperimentConfig) -> dict:
    """Loss description for metric lines: the kind plus only its own knobs."""
    loss = config.loss
    return {"kind": loss.kind.value,
            **{knob: getattr(loss, knob) for knob in LOSS_KNOBS[loss.kind]}}


def _write_evaluation(out: Path, model, head, val_set, val_pairs, **extra) -> dict:
    """Evaluate a model on the validation split and write eval.json, roc.csv
    and cmc.csv; the extra report keys follow the evaluation's own. Raises
    NonFiniteTrainingError, writing nothing, when an embedding is non-finite."""
    embeddings = embed_all(model, head, val_set)
    if not np.isfinite(embeddings).all():
        raise NonFiniteTrainingError("validation embeddings are non-finite: the parameters "
                                     "overflow the forward pass")
    sims = pair_similarities(embeddings, val_pairs)
    verification = verification_accuracy(sims, val_pairs.same)
    split = make_gallery_probe(val_set)
    rank1, cmc = rank1_identification(embeddings[split.gallery_indices],
                                      split.gallery_labels,
                                      embeddings[split.probe_indices],
                                      split.probe_labels)
    tpr = {}
    for far in FAR_LADDER:
        try:
            tpr[format(far, "g")] = tpr_at_far(sims, val_pairs.same, far)
        except FarUnresolvableError:
            break
    report = {
        "verification_accuracy": verification.accuracy,
        "rank1": rank1,
        "tpr_at_far": tpr,
        "fold_accuracies": list(verification.fold_accuracies),
        "fold_thresholds": list(verification.fold_thresholds),
        **extra,
    }
    (out / "eval.json").write_text(dumps(report) + "\n", encoding="utf-8")
    write_xy_csv(out / "roc.csv", verification.roc_points)
    write_xy_csv(out / "cmc.csv", [(float(rank), value)
                                   for rank, value in enumerate(cmc, start=1)])
    return report


def _epoch_fields(config: ExperimentConfig, mode: str, record) -> dict:
    """An epoch's metric line keys after its number: a search's compared record
    fields, in order; else the loss trained, the mean loss and the reward."""
    if mode == "search":
        return {field.name: getattr(record, field.name)
                for field in dataclasses.fields(record)[1:] if field.compare}
    if mode == "random":
        echo = {"a": record.factors[0]}
    else:
        echo = {"loss": _loss_echo(config),
                "lr": config.schedule.lr_at(config.sgd.learning_rate, record.epoch)}
    return {**echo, "mean_loss": record.mean_losses[0], "val_reward": record.rewards[0]}


def _run(config: ExperimentConfig, mode: str, out_dir, data) -> dict:
    """One run_search run end to end on the prepared (train, val, pairs), in
    mode "fixed" (train-fixed, ablate-a), "random" (random-schedule) or
    "search", and the one writer of its run directory: config.json; once
    the candidate processes have started, environment.json with their
    count; the metric lines, which the mode labels, and the timing lines (a
    start line for the time up to epoch 1, one per epoch and a finish line);
    then the convergence curve, the final model (a search's best candidate
    in best.lfs, else model.lfs) and its evaluation. It first deletes every
    file an earlier run wrote there, and the per-epoch winner checkpoints of
    searches by earlier builds, so a rerun that fails keeps none of them."""
    train, val, pairs = data
    out = _make_run_dir(out_dir)
    resolved = config.to_dict()
    identity = run_id(resolved)
    (out / "config.json").write_text(dumps(resolved) + "\n", encoding="utf-8")
    for name in RUN_FILES:
        (out / name).unlink(missing_ok=True)
    for stale in out.glob("checkpoints/epoch_*.lfs"):
        stale.unlink()
    with (MetricsWriter(out / "metrics.jsonl") as metrics,
          MetricsWriter(out / "timings.jsonl") as timings):
        clock = [time.perf_counter()]

        def lap() -> float:
            clock.append(time.perf_counter())
            return clock[-1] - clock[-2]

        def on_start(processes):
            environment = {**blas_environment(), "candidate_processes": processes}
            (out / "environment.json").write_text(dumps(environment) + "\n",
                                                  encoding="utf-8")
            timings.write({"phase": "start", "seconds": lap()})

        def on_epoch(record):
            seconds = lap()
            metrics.write({"run_id": identity, "mode": mode, "epoch": record.epoch,
                           **_epoch_fields(config, mode, record)})
            timings.write({"epoch": record.epoch, "seconds": seconds,
                           "candidates": [{"train_s": train_s, "reward_s": reward_s}
                                          for train_s, reward_s in zip(record.train_s,
                                                                       record.reward_s)]})

        result = run_search(config, _init_state(config, train), train, val, pairs, mode,
                            on_epoch=on_epoch, on_start=on_start)
        if mode == "search":
            write_xy_csv(out / "mu_trajectory.csv",
                         [(float(record.epoch), record.mu_after) for record in result.history])
            checkpoint, state = "best.lfs", result.best_state
            extra = {"best_reward": result.best_reward, "best_epoch": result.best_epoch,
                     "best_candidate": result.best_candidate, "final_mu": result.final_mu}
        else:
            checkpoint, state = "model.lfs", result.final_state
            extra = {"final_val_reward": result.history[-1].rewards[0] if result.history
                     else None}
        started = time.perf_counter()
        write_checkpoint(out / checkpoint, state.model, state.head)
        checkpoint_s = time.perf_counter() - started
        write_xy_csv(out / "convergence.csv", [(float(record.epoch),
                                                record.mean_losses[record.winner])
                                               for record in result.history])
        started = time.perf_counter()
        report = _write_evaluation(out, state.model, state.head, val, pairs, **extra)
        timings.write({"phase": "finish", "checkpoint_s": checkpoint_s,
                       "evaluation_s": time.perf_counter() - started})
    return report


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(args) -> int:
    """train-fixed, random-schedule and search, in the mode args.mode names."""
    config = _resolve_config(args)
    report = _run(config, args.mode, args.out, _prepare_data(config))
    if args.mode == "search":
        print(f"search done: best reward {report['best_reward']} at epoch "
              f"{report['best_epoch']} (candidate {report['best_candidate']}), "
              f"final mu {report['final_mu']:.6g} -> {args.out}")
    elif args.mode == "random":
        print(f"random-schedule done: final reward "
              f"{report['final_val_reward']} -> {args.out}")
    else:
        print(f"train-fixed done: loss={config.loss.kind.value} "
              f"verification={report['verification_accuracy']:.4f} "
              f"rank1={report['rank1']:.4f} -> {args.out}")
    return 0


def _parse_factor_list(text: str, field: str, named: str) -> dict:
    """Comma-separated modulating factors, each finite and <= 0, keyed by
    their `{:g}` form, which names ablate-a's run directories and
    export-curves' columns; -0 reads as 0, the factor it names. Two factors
    of one form are refused, naming `named` filled in with it."""
    try:
        values = [float(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise ConfigError(f"{field}: could not parse {text!r} as floats") from None
    if not values:
        raise ConfigError(f"{field}: list is empty")
    factors = {}
    for value in values:
        if not math.isfinite(value) or value > 0:
            raise ConfigError(f"{field}: {value:g} is not a finite factor <= 0")
        value += 0.0
        key = f"{value:g}"
        if key in factors:
            raise ConfigError(f"{field}: {factors[key]!r} and {value!r} would share "
                              + named.format(key))
        factors[key] = value
    return factors


def _cmd_ablate_a(args) -> int:
    factors = _parse_factor_list(args.factors, "factors", "the run directory a_{}")
    config = _resolve_config(args)
    # Every factor trains on the same data: the loss is all that differs.
    data = _prepare_data(config)
    base = _make_run_dir(args.out)
    # A rerun into the directory keeps no run or summary of an earlier one.
    for stale in base.glob("a_*"):
        if (stale / "config.json").is_file():
            shutil.rmtree(stale)
    (base / "summary.json").unlink(missing_ok=True)
    summary = []
    for key, value in factors.items():
        tree = config.to_dict()
        tree["loss"]["kind"] = "unified"
        tree["loss"]["a"] = value
        sub_config = from_dict(tree)
        report = _run(sub_config, "fixed", base / f"a_{key}", data)
        summary.append({"a": value,
                        "verification_accuracy": report["verification_accuracy"],
                        "rank1": report["rank1"],
                        "final_val_reward": report["final_val_reward"]})
    (base / "summary.json").write_text(dumps(summary) + "\n", encoding="utf-8")
    print(f"{'a':>10}  {'verification':>12}  {'rank1':>8}")
    for row in summary:
        print(f"{row['a']:>10g}  {row['verification_accuracy']:>12.4f}  "
              f"{row['rank1']:>8.4f}")
    return 0


def _cmd_eval(args) -> int:
    config = _resolve_config(args)
    path = Path(args.checkpoint)
    if not path.is_file():
        raise CheckpointFormatError(f"checkpoint not found: {path}")
    model, head = read_checkpoint(path)
    _train, val, pairs = _prepare_data(config)
    if val.feature_dim != model.layer_dims[0]:
        raise DataFormatError(f"dataset feature dim {val.feature_dim} does not match "
                              f"the checkpoint input dim {model.layer_dims[0]}")
    out = _make_run_dir(args.out)
    report = _write_evaluation(out, model, head, val, pairs)
    print(f"verification_accuracy {report['verification_accuracy']:.6f}")
    print(f"rank1 {report['rank1']:.6f}")
    for far, tpr in report["tpr_at_far"].items():
        print(f"tpr@far={far} {tpr:.6f}")
    return 0


def _cmd_export_curves(args) -> int:
    factors = _parse_factor_list(args.a_list, "a-list",
                                 "the columns h[a={0}] and pm[a={0}]")
    out = _make_run_dir(args.out)
    header = ["p"]
    for key in factors:
        header.append(f"h[a={key}]")
        header.append(f"pm[a={key}]")
    lines = [",".join(header)]
    for i in range(1001):
        p = i / 1000.0
        cells = [f"{p:.3f}"]
        for value in factors.values():
            h = modulating_function(value, p)
            cells.append(format_float(h))
            cells.append(format_float(h * p))
        lines.append(",".join(cells))
    target = out / "curves.csv"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfsearch",
        description="Margin-softmax loss family with reward-guided factor search.")
    sub = parser.add_subparsers(dest="command", required=True)

    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument("--out", required=True, metavar="DIR", help="run directory")

    data_opts = argparse.ArgumentParser(add_help=False, parents=[out_opts])
    data_opts.add_argument("--config", metavar="PATH", help="JSON settings file")
    data_opts.add_argument("--seed", type=int, help="override the experiment seed")
    data_opts.add_argument("--data", metavar="PATH",
                           help="CSV dataset instead of the synthetic default")
    data_opts.add_argument("--reward", choices=REWARD_KINDS,
                           help="validation score driving rewards")

    train_opts = argparse.ArgumentParser(add_help=False, parents=[data_opts])
    train_opts.add_argument("--epochs", type=int, help="override schedule.epochs")

    p = sub.add_parser("train-fixed", parents=[train_opts],
                       help="train one fixed loss")
    p.add_argument("--loss", choices=[kind.value for kind in MarginKind] + list(LOSS_ALIASES),
                   help="loss family")
    p.add_argument("--m1", type=int, help="angular multiplier")
    p.add_argument("--m2", type=float, help="additive angle margin (radians)")
    p.add_argument("--m3", type=float, help="additive cosine margin")
    p.add_argument("--a", type=float, help="unified modulating factor (<= 0)")
    p.set_defaults(handler=_cmd_train, mode="fixed")

    p = sub.add_parser("search", parents=[train_opts],
                       help="reward-guided search over the factor")
    p.add_argument("--population", type=int, help="candidates per epoch")
    p.add_argument("--mu", type=float, help="initial distribution mean")
    p.set_defaults(handler=_cmd_train, mode="search")

    p = sub.add_parser("random-schedule", parents=[train_opts],
                       help="resample the factor every epoch, no guidance")
    p.add_argument("--mag-lo", dest="mag_lo", type=float,
                   help="low end of the factor magnitude range")
    p.add_argument("--mag-hi", dest="mag_hi", type=float,
                   help="high end of the factor magnitude range")
    p.set_defaults(handler=_cmd_train, mode="random")

    p = sub.add_parser("ablate-a", parents=[train_opts],
                       help="train one fixed factor per listed value")
    p.add_argument("--factors", default=DEFAULT_ABLATION_FACTORS,
                   help="comma-separated factors (all <= 0)")
    p.set_defaults(handler=_cmd_ablate_a)

    p = sub.add_parser("eval", parents=[data_opts],
                       help="evaluate a checkpoint under the configured protocol")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("export-curves", parents=[out_opts],
                       help="emit h(a,p) and reduced-probability curves")
    p.add_argument("--a-list", dest="a_list", default=DEFAULT_ABLATION_FACTORS,
                   help="comma-separated factors (all <= 0)")
    p.set_defaults(handler=_cmd_export_curves)
    # A token that starts with a minus and a digit is a value, as in the
    # --flag=value form: `--a -1e5` and `--factors -1,-10`, not only `--a -1`.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _report_failure(exc: Exception) -> int:
    """Print a failed command's stderr line, or its traceback when the error
    is unexpected, and return its exit code."""
    for kinds, label, code in ((ConfigError, "config error", 2),
                               ((DataFormatError, CheckpointFormatError), "data error", 3),
                               (ContractViolation, "internal error", 1)):
        if isinstance(exc, kinds):
            print(f"{label}: {exc}", file=sys.stderr)
            return code
    traceback.print_exception(exc)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    failure = None
    # Warnings are held back so that a run which goes non-finite reports on
    # one stderr line; every other outcome shows them unchanged at its end.
    # One BLAS thread makes the run bytes independent of the thread count,
    # and the small products of a training step run faster on it.
    with one_blas_thread(), warnings.catch_warnings(record=True) as caught:
        try:
            code = args.handler(args)
        except BaseException as exc:
            failure = exc
    if isinstance(failure, NonFiniteTrainingError):
        first = f" (first warning: {caught[0].message})" if caught else ""
        print(f"training error: {failure}{first}", file=sys.stderr)
        return 4
    for record in caught:
        warnings.warn_explicit(record.message, record.category, record.filename,
                               record.lineno, source=record.source)
    if failure is None:
        return code
    if not isinstance(failure, Exception):
        raise failure
    return _report_failure(failure)


if __name__ == "__main__":
    sys.exit(main())
