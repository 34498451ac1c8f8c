"""A search's run files fix every winner: oracles.replay, fed only the
resolved config and metrics.jsonl, rebuilds each epoch's start and winner
(their digests are the records' start_digest and winner_digest) and the
bytes of best.lfs, for the golden searches and a desk search on two
processes."""

import json

import pytest

from golden_runs import SEEDS, commands, run, write_config
from lfsearch.checkpoint import param_digest, serialize_model
from lfsearch.config import from_dict
from oracles import replay


def check_replay(out) -> list:
    """Replay the search run in `out` against its records; return them."""
    config = from_dict(json.loads((out / "config.json").read_text(encoding="utf-8")))
    records = [json.loads(line)
               for line in (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
    states = replay(config, records)
    assert len(states) == len(records) + 1 == config.schedule.epochs + 1
    for record, start, winner in zip(records, states, states[1:]):
        assert param_digest(start.model, start.head) == record["start_digest"], record["epoch"]
        assert param_digest(winner.model, winner.head) == record["winner_digest"], \
            record["epoch"]
    best = states[json.loads((out / "eval.json").read_text(encoding="utf-8"))["best_epoch"]]
    assert serialize_model(best.model, best.head) == (out / "best.lfs").read_bytes()
    return records


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["search-1", "search-2", "search-3"])
def test_the_golden_searches_replay(tmp_path, seed, name):
    config = write_config(tmp_path)
    (argv, processes), = [(argv, processes) for row, argv, processes
                          in commands(seed, str(config), tmp_path) if row == name]
    run(argv, tmp_path / name, processes)
    check_replay(tmp_path / name)


def test_a_desk_search_on_two_processes_replays(tmp_path):
    run(["search", "--epochs", "3", "--population", "4"], tmp_path / "desk", 2)
    records = check_replay(tmp_path / "desk")
    # The golden searches tie every candidate, so candidate 0 wins each of
    # their epochs; here a later candidate wins, and its factor is the one
    # the replay must train.
    assert any(record["winner"] != 0 for record in records)
