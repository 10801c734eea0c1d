"""Experiment harness: the built-in benchmark game, batch trial execution
with deterministic per-trial seeding, and the exact-analysis report.

The benchmark instance is a two-player, two-state coordination game with a
risky high-cost state: matching actions is cheap in the low-cost state, but
in the high-cost state matching keeps play stuck there, so equilibrium play
matches in the low-cost state and mismatches in the high-cost one. It is
weakly acyclic and small enough for every exact computation here.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from . import acyclicity, exact_solver
from .agent import AgentConfig
from .game_model import StochasticGame, _check, _is_id, _is_real, load_game, validate_game
from .orchestrator import (
    RandomnessStreams,
    draw_schedule,
    run_episodes,
)

__all__ = [
    "build_benchmark_game",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "analyze_game",
    "resolve_game",
    "BENCHMARK_NAME",
]

BENCHMARK_NAME = "benchmark"
DEFAULT_RECORD_TIMES = (0, 10_000, 20_000, 30_000, 40_000)
# The learners' rates, each an ExperimentConfig field and an AgentConfig one.
_RATES = ("rho", "lam", "delta", "alpha")


def build_benchmark_game() -> StochasticGame:
    """Two players, states (s0, s1), actions (a0, a1), discount 0.8.

    Costs: in s0, 0 on matching actions and 2 otherwise; in s1, 10 on
    matching and 11 otherwise. Transitions: from s0 to s0 with probability
    0.5 for every joint action; from s1 to s0 with probability 0.25 on
    matching actions and 0.9 otherwise. Initial state uniform.
    """
    match = [0, 3]  # joint indices (a0, a0) and (a1, a1)
    cost = np.zeros((2, 4))
    for ja in range(4):
        cost[0, ja] = 0.0 if ja in match else 2.0
        cost[1, ja] = 10.0 if ja in match else 11.0
    kernel = np.zeros((2, 4, 2))
    for ja in range(4):
        kernel[0, ja] = (0.5, 0.5)
        to_s0 = 0.25 if ja in match else 0.9
        kernel[1, ja] = (to_s0, 1.0 - to_s0)
    return StochasticGame(
        states=("s0", "s1"),
        action_sets=(("a0", "a1"), ("a0", "a1")),
        costs=(cost, cost.copy()),
        discounts=(0.8, 0.8),
        kernel=kernel,
        initial_dist=np.array([0.5, 0.5]),
    )


def resolve_game(source: str | Path | StochasticGame) -> StochasticGame:
    """Accept a StochasticGame, the builtin name, or a JSON file path."""
    if isinstance(source, StochasticGame):
        return source
    if isinstance(source, str) and source == BENCHMARK_NAME:
        return build_benchmark_game()
    return load_game(source)


def _per_player(value: float | Sequence[float], n: int, name: str) -> tuple[float, ...]:
    if _is_real(value):
        return (float(value),) * n
    out = tuple(float(v) for v in value)
    if len(out) != n:
        raise ValueError(f"{name} needs one value per player, got {len(out)}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a batch run depends on; two runs with equal configs write
    byte-identical outputs regardless of worker count.

    Construction checks each field's type and range and raises a ValueError
    naming the key: ``game`` is a name or a path, held as a str; the counts
    (``min_phase``, ``ratio``, ``horizon``, ``trials``, ``workers``) are
    positive integers, with ``ratio * min_phase``, the longest phase, below
    2**63, ``master_seed`` a 64-bit unsigned integer and each record time an
    integer in [0, horizon), all held as Python ints; and
    rho, lam, delta and alpha are real numbers or lists of them (one per
    player), held as Python numbers or tuples of them, each value in its
    ``AgentConfig`` range (rho, lam and alpha in (0, 1), delta finite and
    positive). Every check is a rule of ``game_model._RULES`` (a bool or a
    float is no integer, a bool or a string no real), so a bad value is
    refused before any run, and a numpy scalar reaches no output."""

    game: str = BENCHMARK_NAME
    rho: float | tuple[float, ...] = 0.05
    lam: float | tuple[float, ...] = 0.2
    delta: float | tuple[float, ...] = 0.5
    alpha: float | tuple[float, ...] = 0.08
    min_phase: int = 5000
    ratio: int = 3
    horizon: int = 100_000
    trials: int = 500
    record_times: tuple[int, ...] = DEFAULT_RECORD_TIMES
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        game = os.fspath(self.game) if isinstance(self.game, os.PathLike) else self.game
        if not isinstance(game, str):
            raise ValueError(f"game must be a name or a path, got {self.game!r}")
        object.__setattr__(self, "game", game)
        # each value as a Python number: summary.json cannot hold a numpy one
        for key in ("min_phase", "ratio", "horizon", "trials", "workers", "master_seed"):
            kind = "seed" if key == "master_seed" else "count"
            object.__setattr__(self, key, _check(kind, key, getattr(self, key)))
        if self.ratio * self.min_phase >= 2**63:  # the longest phase, one 64-bit draw
            raise ValueError(f"ratio * min_phase must be below 2**63, got {self.ratio * self.min_phase}")
        for key in _RATES:
            value = getattr(self, key)
            entries = value if isinstance(value, (list, tuple)) else (value,)
            if not all(map(_is_real, entries)):
                raise ValueError(f"{key} must be a number or a list of numbers, got {value!r}")
            kind = "positive" if key == "delta" else "unit"
            held = tuple(_check(kind, key, entry) for entry in entries)
            object.__setattr__(self, key, held if isinstance(value, (list, tuple)) else held[0])
        if not isinstance(self.record_times, (list, tuple)) or not all(
            map(_is_id, self.record_times)
        ):
            raise ValueError(f"record_times must be a list of integers, got {self.record_times!r}")
        object.__setattr__(self, "record_times", tuple(int(t) for t in self.record_times))
        for t in self.record_times:
            if not 0 <= t < self.horizon:
                raise ValueError(f"record time {t} outside [0, horizon)")

    def agent_configs(self, game: StochasticGame) -> tuple[AgentConfig, ...]:
        rates = {key: _per_player(getattr(self, key), game.num_players, key) for key in _RATES}
        return tuple(
            AgentConfig(player=i, **{key: values[i] for key, values in rates.items()})
            for i in range(game.num_players)
        )

    def to_json_dict(self) -> dict:
        """Every field in declaration order, tuples as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"experiment config must be a JSON object, got {type(data).__name__}")
        kwargs = dict(data)
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ValueError(f"unknown experiment config keys: {', '.join(unknown)}")
        return ExperimentConfig(**kwargs)

    @staticmethod
    def from_json_file(path: str | Path) -> "ExperimentConfig":
        return ExperimentConfig.from_json_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    frequencies: dict[int, float]
    flags_by_trial: tuple[tuple[bool, ...], ...]
    max_abs_q_by_trial: tuple[float, ...]
    csv_path: Path | None
    summary_path: Path | None


def _run_trials(
    game: StochasticGame,
    configs: tuple[AgentConfig, ...],
    config: ExperimentConfig,
    trials: range,
) -> list[tuple[tuple[bool, ...], float]]:
    """Play the given trials as one batch; per trial, its equilibrium flags
    at the record times (only the joints the batch visited are labelled)
    and its largest |Q|."""
    streams = [RandomnessStreams(config.master_seed, trial=k) for k in trials]
    schedules = [
        draw_schedule(s, game.num_players, config.min_phase, config.ratio, config.horizon)
        for s in streams
    ]
    traces = run_episodes(
        game,
        configs,
        schedules,
        streams,
        config.horizon,
        record_times=config.record_times,
    )
    return [(tuple(r.at_equilibrium for r in tr.records), max(tr.max_abs_q)) for tr in traces]


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> ExperimentResult:
    """Run the configured batch of independent trials.

    Trial k draws all of its randomness from (master_seed, trial=k), so the
    aggregate is independent of scheduling and worker count. When ``out_dir``
    is given, creates it before any trial is played, then writes
    ``frequencies.csv`` (time, frequency, trials) and ``summary.json``
    (parameter echo plus results). No joint-policy space is enumerated:
    each worker labels only the joints its trials visit.
    """
    game = resolve_game(config.game)
    violations = validate_game(game)
    if violations:
        raise ValueError("invalid game: " + "; ".join(violations))
    if not exact_solver.check_reachability(game):
        warnings.warn(
            "state graph is not strongly connected; learning may not visit "
            "every state",
            stacklevel=2,
        )

    configs = config.agent_configs(game)  # a wrong-length rate list fails before any side effect
    out = None if out_dir is None else Path(out_dir)
    if out is not None:  # before any play, so that an unusable one fails fast
        out.mkdir(parents=True, exist_ok=True)
    # one contiguous slice of trials per worker, played as one batch
    workers = min(config.workers, config.trials)
    cuts = [config.trials * w // workers for w in range(workers + 1)]
    slices = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_trials, repeat(game), repeat(configs), repeat(config), slices))
    else:
        batches = list(map(_run_trials, repeat(game), repeat(configs), repeat(config), slices))
    outcomes = [outcome for batch in batches for outcome in batch]

    flags_by_trial = tuple(flags for flags, _ in outcomes)
    max_abs = tuple(m for _, m in outcomes)
    times = sorted(set(config.record_times))
    frequencies = {
        t: sum(flags[j] for flags in flags_by_trial) / config.trials
        for j, t in enumerate(times)
    }

    csv_path = summary_path = None
    if out is not None:
        csv_path = out / "frequencies.csv"
        lines = ["time,frequency,trials"]
        for t in times:
            lines.append(f"{t},{frequencies[t]!r},{config.trials}")
        csv_path.write_text("\n".join(lines) + "\n")
        summary_path = out / "summary.json"
        summary = {
            "config": config.to_json_dict(),
            "frequencies": {str(t): frequencies[t] for t in times},
            "max_abs_q": max(max_abs),
        }
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    return ExperimentResult(
        config=config,
        frequencies=frequencies,
        flags_by_trial=flags_by_trial,
        max_abs_q_by_trial=max_abs,
        csv_path=csv_path,
        summary_path=summary_path,
    )


def analyze_game(
    source: str | Path | StochasticGame,
    rhos: Sequence[float] | None = None,
    deltas: Sequence[float] | None = None,
    lambdas: Sequence[float] | None = None,
    eps: float | None = None,
    ratio: int | None = None,
    tol: float = 1e-9,
) -> dict:
    """Exact structural report: validation, reachability, equilibria, the
    best-response graph certificate, delta_bar, and (when the corresponding
    parameters are supplied) the perturbation and theta/xi diagnostics."""
    game = resolve_game(source)
    report: dict = {"violations": validate_game(game)}
    if report["violations"]:
        return report
    # every input as the Python number it equals, which the report can hold
    eps, ratio = (
        None if value is None else exact_solver.check_input(name, value)
        for name, value in (("eps", eps), ("ratio", ratio))
    )
    analysis = exact_solver.ExactAnalysis(game, tol, rhos, deltas)
    rhos, deltas = analysis.rhos, analysis.deltas
    if lambdas is not None:
        lambdas = exact_solver.check_per_player(game, "lambda", lambdas)
    # the grids first: they refuse an over-budget joint-policy space before
    # any solve, where delta_bar would solve the whole table first
    weakly = acyclicity.is_weakly_acyclic(analysis)
    L = acyclicity.path_bound_L(analysis) if weakly else None
    dbar = analysis.delta_bar
    equilibria = analysis.choices(np.flatnonzero(analysis.equilibrium_mask))
    report.update(
        num_players=game.num_players,
        states=list(game.states),
        reachable=exact_solver.check_reachability(game),
        num_joint_policies=analysis.equilibrium_mask.size,
        equilibria=[[list(c) for c in joint] for joint in equilibria],
        num_equilibria=len(equilibria),
        weakly_acyclic=weakly,
        path_bound_L=L,
        delta_bar=None if math.isinf(dbar) else dbar,
    )
    if rhos is not None:
        entry: dict = {"rhos": list(rhos), "gap": analysis.gap}
        if deltas is not None:
            entry["deltas"] = list(deltas)
            entry["bound"] = None if math.isinf(analysis.bound) else analysis.bound
            entry["within_bound"] = analysis.gap < analysis.bound
        report["perturbation"] = entry

    if lambdas is not None and eps is not None and weakly:
        R = ratio if ratio is not None else 1
        p = acyclicity.p_min(game, lambdas, R, L)
        entry = {"lambdas": list(lambdas), "eps": eps, "ratio": R, "p_min": p}
        # p_min underflows to 0.0 at large ratios; theta and xi are then
        # unknown. xi is also unknown when some delta lies outside
        # (0, delta_bar), where the paper's accuracy requirement is undefined.
        if deltas is not None and not math.isinf(dbar):
            theta = acyclicity.solve_theta(p, eps) if p > 0.0 else None
            defined = theta is not None and all(0.0 < d < dbar for d in deltas)
            entry["theta"] = theta
            entry["xi"] = (
                acyclicity.xi_bound(theta, R, game.num_players, L, deltas, dbar) if defined else None
            )
        report["update_diagnostics"] = entry
    return report
