"""The console script end to end: ``python -m decqlearn.cli`` in a
subprocess, on the contracts that only a whole run shows. A run's outputs do
not depend on how its trials are split over workers, so a batch played in
lockstep and the same trials played one by one write the same files; and a
game whose greedy sets hold more than 2**63 policies simulates."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from decqlearn.game_model import save_game
from oracles import seeded_game

_SRC = Path(__file__).resolve().parents[1] / "src"


def _run(*args, timeout=300) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(_SRC) if not path else f"{_SRC}{os.pathsep}{path}"}
    done = subprocess.run(
        [sys.executable, "-m", "decqlearn.cli", *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return done


def _assert_same_outputs(a: Path, b: Path) -> None:
    """Equal ``frequencies.csv`` bytes, and equal ``summary.json`` but for
    the worker count it echoes."""
    assert (a / "frequencies.csv").read_bytes() == (b / "frequencies.csv").read_bytes()
    summaries = [json.loads((run / "summary.json").read_text()) for run in (a, b)]
    for summary in summaries:
        summary["config"].pop("workers")
    assert summaries[0] == summaries[1]


def test_outputs_do_not_depend_on_the_worker_count(tmp_path):
    for workers in (1, 2):
        _run(
            "reproduce-benchmark", "--trials", 64, "--horizon", 10_000,
            "--workers", workers, "--out-dir", tmp_path / f"workers{workers}",
        )
    _assert_same_outputs(tmp_path / "workers1", tmp_path / "workers2")


def test_lockstep_and_per_trial_batches_of_a_343_joint_action_game(tmp_path):
    # 3 players x 7 actions x 3 states: actions fit a uint8 table, the 343
    # joint actions do not. 9 trials on one worker play in lockstep; on two,
    # batches of 4 and 5 play trial by trial
    save_game(seeded_game(np.random.default_rng(343), (7, 7, 7), 3), tmp_path / "game.json")
    config = {"trials": 9, "horizon": 4000, "record_times": [0, 2000, 3999], "min_phase": 200}
    (tmp_path / "config.json").write_text(json.dumps(config))
    for workers in (1, 2):
        _run(
            "simulate", tmp_path / "game.json", "--config", tmp_path / "config.json",
            "--workers", workers, "--out-dir", tmp_path / f"workers{workers}",
        )
    _assert_same_outputs(tmp_path / "workers1", tmp_path / "workers2")


def test_simulate_a_game_of_more_than_2_pow_63_greedy_policies(tmp_path):
    # 128 states of 3 actions: a greedy set of 3**128 policies needs one
    # policy draw per state
    save_game(seeded_game(np.random.default_rng(128), (3, 3), 128, team=True), tmp_path / "game.json")
    config = {"trials": 2, "horizon": 2000, "record_times": [0, 1999], "min_phase": 100}
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "run"
    _run("simulate", tmp_path / "game.json", "--config", tmp_path / "config.json", "--out-dir", out)
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary["frequencies"]) == ["0", "1999"]
