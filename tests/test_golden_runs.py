"""The one hard guarantee, pinned: a fixed matrix of small runs writes the
bytes recorded in golden_runs.json for this build (see golden_runs.py)."""

import json

import pytest

from golden_runs import TABLE, build_key, run_digests


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
