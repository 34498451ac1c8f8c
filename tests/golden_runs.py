"""Golden run digests: the sha256 of every file that a fixed matrix of small
command-line runs writes, in a table keyed by the build the bytes depend on
(numpy version, BLAS build, machine architecture).

The matrix, at seeds 0 and 1: `search` with one and with two candidate
processes, `search` of three candidates with two processes (so that one
worker trains two candidates from one epoch start), `train-fixed` with the
plain, arc, am, angular and unified losses,
`random-schedule`, `ablate-a`, and `eval` of the one-process search's
best.lfs. Its candidates tie on that data, so two `search-spread` rows, at
one and two processes, search a config of their own (more pairs, mu 0,
sigma 20, three candidates) where the winners and mu move. timings.jsonl
and environment.json are left out: they describe the clock and the
machine, not the result.

Run as a script to rewrite this build's row of the table, after a change
that moves run bytes on purpose; it prints the names of the digests it
added, removed and changed against the old row:

    PYTHONPATH=src python tests/golden_runs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

from lfsearch import candidate_workers, cli
from lfsearch.numerics import blas_environment

TABLE = Path(__file__).with_name("golden_runs.json")
SEEDS = (0, 1)
CONFIG = {
    "dataset": {"classes": 10, "dim": 8, "samples_per_class": 10,
                "noise_sigma": 0.3, "train_frac": 0.7, "n_pairs": 40},
    "model": {"hidden": [16], "embedding": 8, "scale": 16.0},
    "sgd": {"batch_size": 16},
    "schedule": {"epochs": 3, "drop_epochs": [2]},
    "search": {"population": 2},
}
# The matrix config with more validation pairs and a wide proposal, so that
# the candidates' rewards differ, later candidates win and mu steps.
SPREAD_CONFIG = {**CONFIG, "dataset": {**CONFIG["dataset"], "n_pairs": 200},
                 "search": {"mu": 0.0, "sigma": 20.0, "population": 3}}
SPREAD_NAME = "spread.json"
SKIPPED = ("timings.jsonl", "environment.json")


def build_key() -> str:
    """The numpy version, its BLAS build and the machine architecture."""
    environment = blas_environment()
    blas = environment["blas"]
    return (f"numpy {environment['numpy']}; blas {blas['name']} {blas['version']}; "
            f"{platform.machine()}")


def commands(seed: int, config: str, root: Path):
    """(run name, argv, candidate processes) of one seed's matrix; the
    spread rows read the spread config that write_config puts beside
    `config`."""
    base = ["--config", config, "--seed", str(seed)]
    spread = ["--config", str(Path(config).with_name(SPREAD_NAME)), "--seed", str(seed)]
    best = root / f"seed{seed}" / "search-1" / "best.lfs"
    return [("search-1", ["search", *base], 1),
            ("search-2", ["search", *base], 2),
            ("search-3", ["search", "--population", "3", *base], 2),
            ("search-spread-1", ["search", *spread], 1),
            ("search-spread-2", ["search", *spread], 2),
            ("plain", ["train-fixed", *base], 1),
            ("arc", ["train-fixed", "--loss", "arc", *base], 1),
            ("am", ["train-fixed", "--loss", "am", *base], 1),
            ("angular", ["train-fixed", "--loss", "angular", *base], 1),
            ("unified", ["train-fixed", "--loss", "unified", "--a", "-10", *base], 1),
            ("random", ["random-schedule", *base], 1),
            ("ablate", ["ablate-a", "--factors", "0,-10", *base], 1),
            ("eval", ["eval", "--checkpoint", str(best), *base], 1)]


def write_config(root) -> Path:
    """Write the matrix's config file and the spread config under `root`
    and return the matrix config's path."""
    config = Path(root) / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    config.with_name(SPREAD_NAME).write_text(json.dumps(SPREAD_CONFIG), encoding="utf-8")
    return config


def run(argv, out, processes: int) -> None:
    """Run one command line into `out` with `processes` candidate processes."""
    with mock.patch.object(candidate_workers, "candidate_processes",
                           lambda population: processes), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)}: exit code {code}")


def run_digests(root) -> dict:
    """Run the matrix under `root` and return the digest of each run file
    by its path relative to `root`."""
    root = Path(root)
    config = write_config(root)
    for seed in SEEDS:
        for name, argv, processes in commands(seed, str(config), root):
            run(argv, root / f"seed{seed}" / name, processes)
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.parent != root and path.name not in SKIPPED}


def row_changes(old: dict, new: dict) -> dict:
    """The names added, removed and changed from row `old` to row `new`."""
    return {"added": sorted(new.keys() - old.keys()),
            "removed": sorted(old.keys() - new.keys()),
            "changed": sorted(name for name in old.keys() & new.keys()
                              if old[name] != new[name])}


def main() -> int:
    table = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.is_file() else {}
    key = build_key()
    old = table.get(key, {})
    with tempfile.TemporaryDirectory() as root:
        table[key] = run_digests(root)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table[key])} digests for {key!r} to {TABLE}")
    for kind, names in row_changes(old, table[key]).items():
        print(f"{kind}: {len(names)}")
        for name in names:
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
