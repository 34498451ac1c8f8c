"""Command-line experiment harness.

Subcommands: train-fixed, search, random-schedule, ablate-a, eval,
export-curves. Every run directory gets the resolved config, an append-only
metric stream, checkpoints, and plot-ready CSV curves. Exit codes: 0 success,
1 internal error, 2 config error, 3 data/format error, 4 training went
non-finite (metrics.jsonl keeps the epochs that completed).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

from . import candidate_workers
from .checkpoint import CheckpointFormatError, read_checkpoint, write_checkpoint
from .config import (FACTOR_TRANSFORMS, LOSS_ALIASES, LOSS_KINDS, LOSS_KNOBS,
                     OUTER_OPTIMIZERS, REWARD_KINDS, SCORE_GRAD_MODES, ConfigError,
                     ExperimentConfig, factor_range, from_dict, load_config_file,
                     margin_spec, schedule_of, search_settings, set_path)
from .contracts import ContractViolation
from .datasets import (DataFormatError, SyntheticSpec, generate_synthetic,
                       load_flat_file, make_pairs, split_closed_set, split_open_set)
from .embed_model import init_model
from .eval_protocols import (FarUnresolvableError, embed_all, make_gallery_probe,
                             pair_similarities, rank1_identification, reward,
                             tpr_at_far, verification_accuracy)
from .margin_losses import MarginKind, MarginSpec, modulating_function
from .numerics import RngStream, Workspace, blas_environment, one_blas_thread
from .runio import MetricsWriter, dumps, format_float, run_id, write_xy_csv
from .search_engine import run_search
from .sgd_trainer import NonFiniteTrainingError, TrainState, train_epoch

DEFAULT_ABLATION_FACTORS = "0,-1,-10,-100,-1000,-10000"
FAR_LADDER = (0.1, 0.01, 0.001, 0.0001, 1e-05, 1e-06)


# ---------------------------------------------------------------------------
# run assembly


# (argparse dest, dotted config path): every flag that overrides a setting.
_OVERRIDES = (("seed", "seed"), ("data", "dataset.path"), ("reward", "reward"),
              ("epochs", "schedule.epochs"), ("loss", "loss.kind"), ("m1", "loss.m1"),
              ("m2", "loss.m2"), ("m3", "loss.m3"), ("a", "loss.a"),
              ("population", "search.population"), ("mu", "search.mu"),
              ("score_grad", "search.score_grad"), ("outer", "search.outer"),
              ("transform", "search.transform"), ("mag_lo", "random.mag_lo"),
              ("mag_hi", "random.mag_hi"))


def _resolve_config(args) -> ExperimentConfig:
    tree = load_config_file(args.config) if args.config else {}
    for dest, path in _OVERRIDES:
        value = getattr(args, dest, None)
        if value is not None:
            set_path(tree, path, value)
    return from_dict(tree)


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
    return {"kind": loss.kind,
            **{knob: getattr(loss, knob) for knob in LOSS_KNOBS[MarginKind(loss.kind)]}}


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


class _RunRecorder:
    """One run directory: the resolved config, the numpy/BLAS environment
    with the number of processes that train candidates, the metric and
    timing streams, the epoch clock and convergence curve, then the final
    checkpoint and evaluation. timings.jsonl holds a start line (opening the
    run to epoch 1: the model init and any candidate workers' start), one
    line per epoch and a finish line. A rerun into the same directory
    replaces both streams."""

    def __init__(self, out_dir, config: ExperimentConfig, mode: str, processes: int = 1):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        resolved = config.to_dict()
        self._run_id = run_id(resolved)
        self._mode = mode
        (self.out / "config.json").write_text(dumps(resolved) + "\n", encoding="utf-8")
        environment = {**blas_environment(), "candidate_processes": processes}
        (self.out / "environment.json").write_text(dumps(environment) + "\n",
                                                   encoding="utf-8")
        for name in ("metrics.jsonl", "timings.jsonl"):
            (self.out / name).unlink(missing_ok=True)
        self._metrics = MetricsWriter(self.out / "metrics.jsonl")
        self._timings = MetricsWriter(self.out / "timings.jsonl")
        self._convergence = []
        self._clock = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._metrics.close()
        self._timings.close()
        return False

    def _lap(self) -> float:
        now = time.perf_counter()
        elapsed, self._clock = now - self._clock, now
        return elapsed

    def start(self) -> None:
        """Record the time up to epoch 1 and restart the epoch clock."""
        self._timings.write({"phase": "start", "seconds": self._lap()})

    def epoch(self, epoch: int, fields: dict, mean_loss: float, **spans) -> None:
        """Record one epoch: its metric line, its wall time since the last
        record with any further timing fields, and the mean training loss it
        adds to the convergence curve."""
        seconds = self._lap()
        self._metrics.write({"run_id": self._run_id, "mode": self._mode,
                             "epoch": epoch, **fields})
        self._timings.write({"epoch": epoch, "seconds": seconds, **spans})
        self._convergence.append((float(epoch), mean_loss))

    def finish(self, checkpoint_name: str, state: TrainState, val_set, val_pairs,
               **extra) -> dict:
        """Write the final model, the convergence curve and its evaluation,
        and time them on the finish line."""
        started = time.perf_counter()
        write_checkpoint(self.out / checkpoint_name, state.model, state.head)
        checkpoint_s = time.perf_counter() - started
        write_xy_csv(self.out / "convergence.csv", self._convergence)
        started = time.perf_counter()
        report = _write_evaluation(self.out, state.model, state.head, val_set, val_pairs,
                                   **extra)
        self._timings.write({"phase": "finish", "checkpoint_s": checkpoint_s,
                             "evaluation_s": time.perf_counter() - started})
        return report


def _run_fixed(config: ExperimentConfig, mode: str, out_dir, data) -> dict:
    """Train one model end to end on the prepared (train, val, pairs). Mode
    "fixed" trains the configured loss (train-fixed, ablate-a); mode
    "random" trains the unified loss with a factor drawn from the random
    range each epoch (random-schedule). The mode labels the metric lines
    and roots the run's random streams."""
    train, val, pairs = data
    schedule = schedule_of(config)
    if mode == "random":
        factors = factor_range(config)
    else:
        spec, loss_echo = margin_spec(config.loss), _loss_echo(config)
    root = RngStream(config.seed, mode)
    workspace = Workspace()
    final_reward = None
    with _RunRecorder(out_dir, config, mode) as run:
        state = _init_state(config, train)
        run.start()
        for epoch in range(1, config.schedule.epochs + 1):
            lr = schedule.lr_at(epoch)
            epoch_stream = root.child(f"epoch{epoch}")
            if mode == "random":
                a = factors.draw(epoch_stream.child("factor"))
                spec, echo = MarginSpec.unified(a), {"a": a}
            else:
                echo = {"loss": loss_echo, "lr": lr}
            state, mean_loss = train_epoch(state, spec, train, config.sgd, lr, epoch_stream,
                                           workspace)
            final_reward = reward(state.model, state.head, val, pairs, config.reward,
                                  workspace)
            run.epoch(epoch, {**echo, "mean_loss": mean_loss, "val_reward": final_reward},
                      mean_loss)
        return run.finish("model.lfs", state, val, pairs, final_val_reward=final_reward)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(args) -> int:
    """train-fixed (mode "fixed") and random-schedule (mode "random")."""
    config = _resolve_config(args)
    report = _run_fixed(config, args.mode, args.out, _prepare_data(config))
    if args.mode == "random":
        print(f"random-schedule done: final reward "
              f"{report['final_val_reward']} -> {args.out}")
    else:
        print(f"train-fixed done: loss={config.loss.kind} "
              f"verification={report['verification_accuracy']:.4f} "
              f"rank1={report['rank1']:.4f} -> {args.out}")
    return 0


def _cmd_search(args) -> int:
    config = _resolve_config(args)
    settings = search_settings(config)
    train, val, pairs = _prepare_data(config)
    processes = candidate_workers.candidate_processes(settings.distribution.population)
    with _RunRecorder(args.out, config, "search", processes) as run:
        state0 = _init_state(config, train)
        winners = run.out / "checkpoints"
        winners.mkdir(exist_ok=True)

        def on_epoch(record, winner_state):
            run.epoch(record.epoch,
                      {"mu_before": record.mu_before, "mu_after": record.mu_after,
                       "factors": list(record.factors),
                       "rewards": list(record.raw_rewards),
                       "normalized_rewards": list(record.normalized_rewards),
                       "winner": record.winner,
                       "mean_losses": list(record.mean_losses),
                       "start_digest": record.start_digest,
                       "winner_digest": record.winner_digest},
                      record.mean_losses[record.winner],
                      candidates=[{"train_s": train_s, "reward_s": reward_s}
                                  for train_s, reward_s in zip(record.train_s,
                                                               record.reward_s)])
            write_checkpoint(winners / f"epoch_{record.epoch:03d}.lfs",
                             winner_state.model, winner_state.head)

        result = run_search(settings, state0, train, val, pairs, config.seed,
                            on_start=run.start, on_epoch=on_epoch)
        write_xy_csv(run.out / "mu_trajectory.csv",
                     [(float(record.epoch), record.mu_after) for record in result.history])
        run.finish("best.lfs", result.best_state, val, pairs,
                   best_reward=result.best_reward, best_epoch=result.best_epoch,
                   best_candidate=result.best_candidate, final_mu=result.final_mu)
    print(f"search done: best reward {result.best_reward} at epoch "
          f"{result.best_epoch} (candidate {result.best_candidate}), "
          f"final mu {result.final_mu:.6g} -> {args.out}")
    return 0


def _parse_factor_list(text: str, field: str) -> list:
    """Comma-separated modulating factors, each finite and <= 0."""
    try:
        values = [float(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise ConfigError(f"{field}: could not parse {text!r} as floats") from None
    if not values:
        raise ConfigError(f"{field}: list is empty")
    for value in values:
        if not math.isfinite(value) or value > 0:
            raise ConfigError(f"{field}: {value:g} is not a finite factor <= 0")
    return values


def _cmd_ablate_a(args) -> int:
    factors = _parse_factor_list(args.factors, "factors")
    run_dirs = {}
    for value in factors:
        name = f"a_{value:g}"
        if name in run_dirs:
            raise ConfigError(f"factors: {run_dirs[name]!r} and {value!r} "
                              f"would share the run directory {name}")
        run_dirs[name] = value
    config = _resolve_config(args)
    # Every factor trains on the same data: the loss is all that differs.
    data = _prepare_data(config)
    base = Path(args.out)
    base.mkdir(parents=True, exist_ok=True)
    summary = []
    for name, value in run_dirs.items():
        tree = config.to_dict()
        tree["loss"]["kind"] = "unified"
        tree["loss"]["a"] = value
        sub_config = from_dict(tree)
        report = _run_fixed(sub_config, "fixed", base / name, data)
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
    if not path.exists():
        raise CheckpointFormatError(f"checkpoint not found: {path}")
    model, head = read_checkpoint(path)
    _train, val, pairs = _prepare_data(config)
    if val.feature_dim != model.layer_dims[0]:
        raise DataFormatError(f"dataset feature dim {val.feature_dim} does not match "
                              f"the checkpoint input dim {model.layer_dims[0]}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = _write_evaluation(out, model, head, val, pairs)
    print(f"verification_accuracy {report['verification_accuracy']:.6f}")
    print(f"rank1 {report['rank1']:.6f}")
    for far, tpr in report["tpr_at_far"].items():
        print(f"tpr@far={far} {tpr:.6f}")
    return 0


def _cmd_export_curves(args) -> int:
    factors = _parse_factor_list(args.a_list, "a-list")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["p"]
    for value in factors:
        header.append(f"h[a={value:g}]")
        header.append(f"pm[a={value:g}]")
    lines = [",".join(header)]
    for i in range(1001):
        p = i / 1000.0
        cells = [f"{p:.3f}"]
        for value in factors:
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
    p.add_argument("--loss", choices=list(LOSS_KINDS) + list(LOSS_ALIASES),
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
    p.add_argument("--score-grad", dest="score_grad", choices=SCORE_GRAD_MODES)
    p.add_argument("--outer", choices=OUTER_OPTIMIZERS)
    p.add_argument("--transform", choices=FACTOR_TRANSFORMS)
    p.set_defaults(handler=_cmd_search)

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
