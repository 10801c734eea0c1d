"""The console script end to end: ``python -m decqlearn.cli`` in a
subprocess, on the contracts that only a whole run shows. Its exit codes
reach the shell; one process runs every command in turn, with no option
outliving its call; a run's outputs do not depend on how its trials are
split over workers, so a batch played in lockstep and the same trials
played one by one write the same files; a game whose greedy sets hold more
than 2**63 policies simulates, and so do one at beta = 0.999 and one
whose labels policy iteration cannot solve to tol;
``analyze`` prints the same bytes twice, and the same discrete fields
under two OpenBLAS kernels; and the README's library example prints what
its comments say."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decqlearn import cli
from decqlearn.experiments import build_benchmark_game
from decqlearn.game_model import game_to_dict, save_game
from oracles import seeded_game

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"


def _python(*args, code=0, timeout=300, cwd=None, env=None) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args`` with the sources first on its path and
    ``env`` added to this process's environment."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(_SRC) if not path else f"{_SRC}{os.pathsep}{path}"}
    done = subprocess.run(
        [sys.executable, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=cwd,
    )
    assert done.returncode == code, done.stderr
    return done


def _run(*args, **kwargs) -> subprocess.CompletedProcess:
    return _python("-m", "decqlearn.cli", *args, **kwargs)


@pytest.mark.parametrize(
    "args, code",
    [
        (["analyze", "benchmark"], 0),
        (["analyze", "nan-kernel.json"], 1),
        (["simulate", "benchmark", "--config", "mistyped.json", "--out-dir", "run"], 2),
        (["simulate", "benchmark", "--config", "rate.json", "--out-dir", "run"], 2),
        (["reproduce-benchmark", "--full", "--horizon", "5", "--out-dir", "run"], 2),
        (["reproduce-benchmark", "--seed", "-1", "--out-dir", "run"], 2),
    ],
    ids=[
        "analyze",
        "nan-kernel-analyze",
        "mistyped-config-simulate",
        "rate-out-of-range-simulate",
        "full-and-horizon-benchmark",
        "negative-seed-benchmark",
    ],
)
def test_exit_codes_reach_the_shell(tmp_path, args, code):
    # a NaN kernel entry is a violation (exit 1); a mistyped field, a rate
    # outside its range, --full (10^6 stages) with --horizon, and a seed
    # outside 64 bits are usage errors (exit 2), refused before the output
    # directory is made
    doc = game_to_dict(build_benchmark_game())
    doc["kernel"][0][0] = [float("nan"), 1.0]
    (tmp_path / "nan-kernel.json").write_text(json.dumps(doc))
    (tmp_path / "mistyped.json").write_text('{"trials": "x"}')
    (tmp_path / "rate.json").write_text('{"rho": 5, "trials": 2, "horizon": 100, "record_times": [0]}')
    _run(*args, code=code, cwd=tmp_path)
    assert not (tmp_path / "run").exists()


def test_one_process_runs_every_command_in_turn(tmp_path, capsys):
    # The parser is built once per process: after an analyze with every
    # option, a simulate and a reproduce-benchmark, a bare analyze prints
    # what a fresh process prints, so no option outlives its call.
    (tmp_path / "config.json").write_text(json.dumps({"trials": 2, "horizon": 200, "record_times": [0, 199]}))
    calls = [
        ["analyze", "benchmark", "--rho", "0.1", "--delta", "0.7", "--lam", "0.3", "--eps", "0.2",
         "--ratio", "2", "--tol", "1e-8", "--out", str(tmp_path / "report.json")],
        ["simulate", "benchmark", "--config", str(tmp_path / "config.json"), "--seed", "3",
         "--workers", "1", "--out-dir", str(tmp_path / "sim")],
        ["reproduce-benchmark", "--trials", "2", "--horizon", "300", "--seed", "5",
         "--out-dir", str(tmp_path / "bench")],
        ["analyze", "benchmark"],
    ]
    for argv in calls:
        assert cli.main(argv) == 0
        last = capsys.readouterr().out
    assert last == _run("analyze", "benchmark").stdout
    assert cli._build_parser() is cli._build_parser()


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


def test_simulate_a_seeded_beta_0_999_game(tmp_path):
    game = seeded_game(np.random.default_rng(999), (2, 2), 3, discounts=(0.999, 0.999))
    save_game(game, tmp_path / "game.json")
    config = {"trials": 16, "horizon": 20_000, "record_times": [0, 19_999], "min_phase": 200}
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "run"
    _run(
        "simulate", tmp_path / "game.json", "--config", tmp_path / "config.json",
        "--out-dir", out, timeout=120,
    )
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary["frequencies"]) == ["0", "19999"]


def test_simulate_where_the_float_floor_binds(tmp_path):
    # At beta = 0.999 with costs to 1e4, policy iteration's Bellman residual
    # on the labels taken after play exceeds tol 1e-9 but not its float
    # floor; analyze passes on the same file.
    game = seeded_game(np.random.default_rng(0), (2, 2), 3, discounts=(0.999, 0.999))
    save_game(dataclasses.replace(game, costs=tuple(c * 1e4 for c in game.costs)), tmp_path / "game.json")
    config = {"trials": 2, "horizon": 100, "record_times": [0], "min_phase": 10}
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "run"
    _run("simulate", tmp_path / "game.json", "--config", tmp_path / "config.json", "--out-dir", out)
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary["frequencies"]) == ["0"]
    _run("analyze", tmp_path / "game.json")


@pytest.mark.parametrize(
    "seed, counts, discounts, states",
    [
        # players 0 and 2 share a discount and an action count, player 1
        # shares neither: two exact-solver groups
        (7, (2, 3, 2), (0.8, 0.9, 0.8), 3),
        (99, (3, 3), (0.99, 0.99), 4),
    ],
    ids=["two-groups", "beta-0.99"],
)
def test_analyze_is_repeatable(tmp_path, seed, counts, discounts, states):
    game = seeded_game(np.random.default_rng(seed), counts, states, discounts=discounts)
    save_game(game, tmp_path / "game.json")
    reports = [
        _run("analyze", tmp_path / "game.json", "--rho", 0.05, timeout=120).stdout
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
    delta_bar = json.loads(reports[0])["delta_bar"]
    assert isinstance(delta_bar, float) and math.isfinite(delta_bar)


def test_analyze_under_two_blas_kernels(tmp_path):
    # OPENBLAS_CORETYPE picks the OpenBLAS kernel of the one process it is
    # given to; the kernels sum products in other orders, and LAPACK's solve
    # lies on the report's path. On the exact-grid benchmark's seed-0
    # 2p x 4s x 3a game the gap differs in its last digits between these
    # two. The discrete fields agree, delta_bar and the gap within twice the
    # two solvers' bounds, 2 tol (1 + 1 / (1 - beta)).
    game = seeded_game(np.random.default_rng([0, 1]), (3, 3), 4)
    save_game(game, tmp_path / "game.json")
    reports = []
    for kernel in ("Haswell", "Sandybridge"):
        out = _run("analyze", tmp_path / "game.json", "--rho", 0.05, env={"OPENBLAS_CORETYPE": kernel})
        reports.append(json.loads(out.stdout))
    first, second = reports
    for field in ("equilibria", "num_equilibria", "weakly_acyclic", "path_bound_L"):
        assert first[field] == second[field]
    bound = 2 * 1e-9 * (1 + 1 / (1 - 0.8))
    assert abs(first["delta_bar"] - second["delta_bar"]) <= bound
    assert abs(first["perturbation"]["gap"] - second["perturbation"]["gap"]) <= bound


def test_readme_library_example_prints_its_commented_outputs():
    readme = (_ROOT / "README.md").read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected = re.findall(r"^print\(.*#\s*(.+?)\s*$", block, re.M)
    assert len(expected) == len(re.findall(r"^print\(", block, re.M))
    assert _python("-c", block).stdout.splitlines() == expected
