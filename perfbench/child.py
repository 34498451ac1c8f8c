"""One measured step of the benchmark, run in a fresh interpreter.

    python3 child.py run RESULT_JSON TRACE -- ARGV...
        Import lfsearch.cli, then time cli.main(ARGV). TRACE=1 patches span
        wrappers over the package first and adds per-layer metrics.
    python3 child.py setup RESULT_JSON CONFIG_JSON
        Time `import lfsearch.cli` plus the work a command does before its
        first epoch, by calling the same public functions with the config.

The lfsearch package must be importable (run.py puts src/ on PYTHONPATH).
The result is one JSON object written to RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(trace: bool, argv) -> dict:
    from lfsearch import cli

    out = {}
    if trace:
        import tracing

        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
    started = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out["run_s"] = time.perf_counter() - started
    out["exit_code"] = code
    out["peak_rss_mb"] = _peak_rss_mb()
    if trace:
        out["layers"] = tracing.layer_metrics(tracer, installed)
        out["span_self_sum_s"] = sum(
            own for _calls, own in tracing.self_times(tracer.spans).values())
        out["work_errors"] = tracer.work_errors
    return out


def setup(config_path: str) -> dict:
    started = time.perf_counter()
    import lfsearch.cli  # noqa: F401  (the import every command pays)
    from lfsearch.config import from_dict, load_config_file
    from lfsearch.datasets import (SyntheticSpec, generate_synthetic, load_flat_file,
                                   make_pairs, split_closed_set, split_open_set)
    from lfsearch.embed_model import init_model
    from lfsearch.numerics import RngStream

    config = from_dict(load_config_file(config_path))
    data = config.dataset
    if data.path is not None:
        full = load_flat_file(data.path)
    else:
        full = generate_synthetic(SyntheticSpec(
            classes=data.classes, dim=data.dim,
            samples_per_class=data.samples_per_class,
            noise_sigma=data.noise_sigma, seed=config.seed))
    split = split_closed_set if config.reward == "classification" else split_open_set
    train, val = split(full, data.train_frac, config.seed)
    make_pairs(val, data.n_pairs, config.seed)
    init_model([train.feature_dim, *config.model.hidden, config.model.embedding],
               train.identity_count, config.model.scale,
               RngStream(config.seed, "init"))
    return {"setup_s": time.perf_counter() - started,
            "train_samples": train.sample_count}


def main(args) -> int:
    mode, result_path = args[0], args[1]
    if mode == "run":
        if args[3] != "--":
            raise SystemExit("usage: child.py run RESULT_JSON TRACE -- ARGV...")
        result = run(args[2] == "1", args[4:])
    elif mode == "setup":
        result = setup(args[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
