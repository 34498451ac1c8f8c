"""The one hard guarantee, pinned: a fixed matrix of small runs writes the
bytes recorded in golden_runs.json for this build (see golden_runs.py)."""

import json

import pytest

from golden_runs import SEEDS, TABLE, build_key, commands, row_changes, run, run_digests, \
    write_config


def test_run_files_match_the_golden_digests(tmp_path):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    key = build_key()
    if key not in table:
        pytest.skip(f"no golden run digests for build {key!r}; "
                    f"`PYTHONPATH=src python tests/golden_runs.py` adds them")
    want, got = table[key], run_digests(tmp_path)
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert not changed, f"run files differ from their golden digests: {changed}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["search-spread-1", "search-spread-2"])
def test_the_spread_searches_pin_the_winner_and_the_mu_step(tmp_path, seed, name):
    # The other searches tie every candidate: candidate 0 wins and mu stays.
    config = write_config(tmp_path)
    (argv, processes), = [(argv, processes) for row, argv, processes
                          in commands(seed, str(config), tmp_path) if row == name]
    run(argv, tmp_path / name, processes)
    records = [json.loads(line) for line in
               (tmp_path / name / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
    assert any(record["winner"] != 0 for record in records)
    assert any(record["mu_after"] != record["mu_before"] for record in records)


def test_a_rewritten_row_names_what_it_adds_removes_and_changes():
    old = {"kept": "1", "moved": "2", "gone": "3"}
    new = {"kept": "1", "moved": "4", "new": "5"}
    assert row_changes(old, new) == {"added": ["new"], "removed": ["gone"],
                                     "changed": ["moved"]}
    assert row_changes({}, new) == {"added": ["kept", "moved", "new"], "removed": [],
                                    "changed": []}
