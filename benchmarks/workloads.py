"""Workload inputs, entry calls and output checks for the decqlearn benchmark.

Each workload turns a workload seed into its inputs (game and config files in
a work directory), drives the public command line in-process through
``decqlearn.cli.main``, and checks what the call wrote. Inputs depend on the
seed only, so two runs with one seed give the program the same inputs.

Workloads:

* ``batch-bench``: ``reproduce-benchmark`` with the standard parameters,
  32 trials x 1e5 steps on one worker. Nearly all time is the per-step loop.
* ``long-horizon``: ``simulate`` on a seeded random 3-player, 3-state,
  3-action team game, 2 trials x 1e6 steps on 2 workers. Few long trials, full
  horizon memory, and set-up dominated by ``equilibrium_set``.
* ``exact-grid``: ``analyze`` on the benchmark game (with the README's full
  parameters) and on seeded random 2p x 4s x 3a, 3p x 3s x 2a and
  2p x 5s x 3a games. No simulation; all time is exact enumeration.

The random exact-grid games are analyzed without ``--delta``: their
``delta_bar`` is tiny (about 1e-4 to 1e-2), and ``analyze`` rejects a delta at
or above it (``xi_bound`` raises ``ValueError``). That is a known input limit
of ``analyze``, not a failure of this benchmark.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from decqlearn import cli
from decqlearn.acyclicity import build_br_graph
from decqlearn.exact_solver import is_equilibrium
from decqlearn.experiments import build_benchmark_game
from decqlearn.game_model import StochasticGame, load_game, save_game, validate_game

# Relative slack for the Q-hull check, for float rounding in the updates.
_HULL_SLACK = 1e-9
TOL = 1e-9


def random_game(
    seed: int, tag: int, players: int, states: int, actions: int, team: bool = False
) -> StochasticGame:
    """A seeded random game: costs uniform on [0, 10), kernel rows drawn from
    a flat Dirichlet (full support, so every state is reachable), discount
    0.8 for every player, uniform initial distribution. A ``team`` game
    gives every player the same costs, so it has a deterministic equilibrium
    for learners to find; otherwise each player's costs are drawn apart."""
    rng = np.random.default_rng([seed, tag])
    joint = actions**players
    costs = [rng.uniform(0.0, 10.0, size=(states, joint))]
    costs += [costs[0] if team else rng.uniform(0.0, 10.0, size=(states, joint)) for _ in range(players - 1)]
    return StochasticGame(
        states=tuple(f"s{x}" for x in range(states)),
        action_sets=tuple(tuple(f"a{a}" for a in range(actions)) for _ in range(players)),
        costs=tuple(costs),
        discounts=(0.8,) * players,
        kernel=rng.dirichlet(np.ones(states), size=(states, joint)),
        initial_dist=np.full(states, 1.0 / states),
    )


def q_hull_bound(game: StochasticGame) -> float:
    """Largest |Q| any player's constant-step Q-learning can reach from the
    zero table: max over players of |min(0, c_min/(1-b))|, max(0, c_max/(1-b))."""
    bound = 0.0
    for cost, beta in zip(game.costs, game.discounts):
        lo = min(0.0, float(cost.min()) / (1.0 - beta))
        hi = max(0.0, float(cost.max()) / (1.0 - beta))
        bound = max(bound, -lo, hi)
    return bound


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> int:
    """One in-process command-line call; its stdout is captured and dropped
    (the checks read the files the call writes)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    """Common shape: ``setup`` is the fixed cost (run ``setup_repeats``
    times before each timed call), ``call`` is one timed entry call that
    returns its outputs, ``check`` lists what is wrong with
    them, and ``work`` is the work one call does (trial-steps or joint
    policies), the numerator of ``throughput_per_s``."""

    name = ""
    workers = 1
    setup_repeats = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.dir = work_dir
        self.calls = 0

    def out_dir(self) -> Path:
        self.calls += 1
        return self.dir / f"out{self.calls}"

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> int:
        raise NotImplementedError

    def call(self, workers: int | None = None) -> dict:
        raise NotImplementedError

    def check(self, outputs: dict) -> list[str]:
        raise NotImplementedError

    def deep_check(self, outputs: dict) -> list[str]:
        """Checks too costly for every call; run once on one call's outputs."""
        return []

    @property
    def work(self) -> int:
        raise NotImplementedError


class _Simulation(Workload):
    trials = 0
    horizon = 0
    record_times: tuple[int, ...] = ()
    game: StochasticGame

    @property
    def work(self) -> int:
        return self.trials * self.horizon

    def _read(self, code: int, out: Path) -> dict:
        csv_bytes = (out / "frequencies.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text())
        return {
            "exit_code": code,
            "csv": csv_bytes,
            "frequencies": summary["frequencies"],
            "max_abs_q": summary["max_abs_q"],
            "num_equilibria": summary.get("num_equilibria"),
            "trials": summary["config"]["trials"],
        }

    def reference(self, outputs: dict) -> dict:
        """The seed-0 reference record: a digest of ``frequencies.csv`` and
        the ``frequencies`` and ``max_abs_q`` fields of ``summary.json``."""
        return {
            "frequencies.csv": digest(outputs["csv"]),
            "frequencies": outputs["frequencies"],
            "max_abs_q": outputs["max_abs_q"],
        }

    def check(self, outputs: dict) -> list[str]:
        problems = []
        if outputs["exit_code"] != 0:
            problems.append(f"exit code {outputs['exit_code']}")
        if outputs["trials"] != self.trials:
            problems.append(f"summary echoes {outputs['trials']} trials, ran {self.trials}")
        rows = list(csv.reader(io.StringIO(outputs["csv"].decode())))
        if rows[0] != ["time", "frequency", "trials"]:
            problems.append(f"frequencies.csv header is {rows[0]}")
        times = [int(r[0]) for r in rows[1:]]
        if times != sorted(self.record_times):
            problems.append(f"frequencies.csv times {times} != {sorted(self.record_times)}")
        for t, freq, trials in rows[1:]:
            value = float(freq)
            hits = value * self.trials
            if not 0.0 <= value <= 1.0 or abs(hits - round(hits)) > 1e-9:
                problems.append(f"frequency {freq} at t={t} is not k/{self.trials}")
            if int(trials) != self.trials:
                problems.append(f"frequencies.csv row t={t} says {trials} trials")
            if outputs["frequencies"].get(t) != value:
                problems.append(f"summary.json frequency at t={t} differs from the csv")
        bound = q_hull_bound(self.game)
        if not 0.0 < outputs["max_abs_q"] <= bound * (1.0 + _HULL_SLACK):
            problems.append(f"max_abs_q {outputs['max_abs_q']} outside the Q hull (0, {bound}]")
        return problems


class BatchBench(_Simulation):
    name = "batch-bench"
    trials = 32
    horizon = 100_000
    record_times = (0, 10_000, 20_000, 30_000, 40_000)
    setup_repeats = 10

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.game = build_benchmark_game()

    def params(self) -> dict:
        return {
            "command": "reproduce-benchmark",
            "trials": self.trials,
            "horizon": self.horizon,
            "workers": self.workers,
        }

    def _argv(self, trials: int, horizon: int, workers: int, out: Path) -> list[str]:
        return [
            "reproduce-benchmark",
            "--trials", str(trials),
            "--horizon", str(horizon),
            "--seed", str(self.seed),
            "--workers", str(workers),
            "--out-dir", str(out),
        ]

    def setup(self) -> int:
        return run_cli(self._argv(1, 1, self.workers, self.out_dir()))

    def call(self, workers: int | None = None) -> dict:
        out = self.out_dir()
        code = run_cli(self._argv(self.trials, self.horizon, workers or self.workers, out))
        return self._read(code, out)


class LongHorizon(_Simulation):
    name = "long-horizon"
    trials = 2
    horizon = 1_000_000
    record_times = (0, 200_000, 400_000, 600_000, 800_000)
    workers = 2
    setup_repeats = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.game = random_game(seed, 0, players=3, states=3, actions=3, team=True)
        self.game_path = work_dir / "game.json"
        save_game(self.game, self.game_path)
        self.config_path = self._write_config("experiment.json", self.trials, self.horizon, self.record_times)
        self.setup_config_path = self._write_config("setup.json", 1, 1, (0,))

    def _write_config(self, name: str, trials: int, horizon: int, record_times) -> Path:
        path = self.dir / name
        config = {"trials": trials, "horizon": horizon, "record_times": list(record_times)}
        path.write_text(json.dumps(config) + "\n")
        return path

    def params(self) -> dict:
        return {
            "command": "simulate",
            "game": "random team game, 3 players x 3 states x 3 actions",
            "trials": self.trials,
            "horizon": self.horizon,
            "workers": self.workers,
        }

    def _argv(self, config: Path, workers: int, out: Path) -> list[str]:
        return [
            "simulate", str(self.game_path),
            "--config", str(config),
            "--seed", str(self.seed),
            "--workers", str(workers),
            "--out-dir", str(out),
        ]

    def setup(self) -> int:
        return run_cli(self._argv(self.setup_config_path, self.workers, self.out_dir()))

    def call(self, workers: int | None = None) -> dict:
        out = self.out_dir()
        code = run_cli(self._argv(self.config_path, workers or self.workers, out))
        return self._read(code, out)


class ExactGrid(Workload):
    name = "exact-grid"
    setup_repeats = 10
    # (label, players, states, actions); None marks the benchmark game.
    GRID = (
        ("benchmark", None, None, None),
        ("2p4s3a", 2, 4, 3),
        ("3p3s2a", 3, 3, 2),
        ("2p5s3a", 2, 5, 3),
    )

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.games: dict[str, StochasticGame] = {}
        self.paths: dict[str, Path] = {}
        for tag, (label, players, states, actions) in enumerate(self.GRID):
            if players is None:
                game = build_benchmark_game()
            else:
                game = random_game(seed, tag, players, states, actions)
            self.games[label] = game
            self.paths[label] = work_dir / f"{label}.json"
            save_game(game, self.paths[label])

    def params(self) -> dict:
        return {"command": "analyze", "games": [label for label, *_ in self.GRID]}

    @property
    def work(self) -> int:
        return sum(self._joint_policies(g) for g in self.games.values())

    @staticmethod
    def _joint_policies(game: StochasticGame) -> int:
        return math.prod(m**game.num_states for m in game.action_counts)

    def _argv(self, label: str, out: Path) -> list[str]:
        argv = ["analyze", str(self.paths[label]), "--rho", "0.05", "--lam", "0.2",
                "--eps", "0.1", "--ratio", "3", "--out", str(out)]
        if label == "benchmark":
            argv += ["--delta", "0.5"]
        return argv

    def setup(self) -> int:
        """Loading and validating the grid files."""
        for path in self.paths.values():
            if validate_game(load_game(path)):
                return 1
        return 0

    def call(self, workers: int | None = None) -> dict:
        out = self.out_dir()
        out.mkdir(parents=True)
        outputs = {}
        for label, *_ in self.GRID:
            report_path = out / f"{label}.json"
            code = run_cli(self._argv(label, report_path))
            outputs[label] = {"exit_code": code, "report": report_path.read_bytes()}
        return outputs

    def reference(self, outputs: dict) -> dict:
        """The seed-0 reference record: a digest of each ``analyze`` JSON."""
        return {label: digest(out["report"]) for label, out in outputs.items()}

    def check(self, outputs: dict) -> list[str]:
        problems = []
        for label, out in outputs.items():
            if out["exit_code"] != 0:
                problems.append(f"{label}: exit code {out['exit_code']}")
                continue
            report = json.loads(out["report"])
            expected = self._joint_policies(self.games[label])
            if report["violations"]:
                problems.append(f"{label}: violations {report['violations']}")
            if report["num_joint_policies"] != expected:
                problems.append(
                    f"{label}: num_joint_policies {report['num_joint_policies']} != {expected}"
                )
            if report["num_equilibria"] != len(report["equilibria"]):
                problems.append(f"{label}: num_equilibria disagrees with the equilibria list")
        return problems

    def deep_check(self, outputs: dict) -> list[str]:
        """Rebuilds each best-response graph: ``path_len`` must be 0 exactly
        on the equilibria, those must be the ones ``analyze`` reported, and
        ``is_equilibrium`` must confirm each of them."""
        problems = []
        for label, out in outputs.items():
            report = json.loads(out["report"])
            game = self.games[label]
            graph = build_br_graph(game, TOL)
            zero = {k for k, v in enumerate(graph.path_len) if v == 0}
            if zero != set(graph.equilibria):
                problems.append(f"{label}: path_len is 0 off the equilibria or not 0 on them")
            listed = [[list(c) for c in graph.nodes[k].choices] for k in sorted(zero)]
            if listed != report["equilibria"]:
                problems.append(f"{label}: equilibria differ from the best-response graph's")
            if not all(is_equilibrium(game, graph.nodes[k], 0.0, TOL) for k in zero):
                problems.append(f"{label}: is_equilibrium rejects a reported equilibrium")
        return problems


WORKLOADS = {w.name: w for w in (BatchBench, LongHorizon, ExactGrid)}
