"""The one hard guarantee, pinned: a fixed matrix of small runs writes the
bytes recorded in golden_runs.json for this build (see golden_runs.py)."""

import json

import pytest

from golden_runs import TABLE, build_key, row_changes, run_digests


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


def test_a_rewritten_row_names_what_it_adds_removes_and_changes():
    old = {"kept": "1", "moved": "2", "gone": "3"}
    new = {"kept": "1", "moved": "4", "new": "5"}
    assert row_changes(old, new) == {"added": ["new"], "removed": ["gone"],
                                     "changed": ["moved"]}
    assert row_changes({}, new) == {"added": ["kept", "moved", "new"], "removed": [],
                                    "changed": []}
