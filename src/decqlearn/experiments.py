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
import numbers
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from . import acyclicity, exact_solver
from .agent import AgentConfig
from .game_model import StochasticGame, _is_id, load_game, validate_game
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


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _per_player(value: float | Sequence[float], n: int, name: str) -> tuple[float, ...]:
    if _is_number(value):
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
    naming the key: the counts, the seed and each record time are integers
    (not bools), and rho, lam, delta and alpha are numbers or lists of
    numbers (one per player), held as tuples."""

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
        for key in ("min_phase", "ratio", "horizon", "trials", "master_seed", "workers"):
            if not _is_id(getattr(self, key)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        for key in ("rho", "lam", "delta", "alpha"):
            value = getattr(self, key)
            if not _is_number(value) and not (
                isinstance(value, (list, tuple)) and all(map(_is_number, value))
            ):
                raise ValueError(f"{key} must be a number or a list of numbers, got {value!r}")
            if isinstance(value, list):
                object.__setattr__(self, key, tuple(value))
        if not isinstance(self.record_times, (list, tuple)) or not all(
            map(_is_id, self.record_times)
        ):
            raise ValueError(f"record_times must be a list of integers, got {self.record_times!r}")
        if self.min_phase < 1 or self.ratio < 1:
            raise ValueError("min_phase and ratio must be positive integers")
        if self.horizon < 1 or self.trials < 1:
            raise ValueError("horizon and trials must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        object.__setattr__(self, "record_times", tuple(int(t) for t in self.record_times))
        for t in self.record_times:
            if not 0 <= t < self.horizon:
                raise ValueError(f"record time {t} outside [0, horizon)")

    def agent_configs(self, game: StochasticGame) -> tuple[AgentConfig, ...]:
        n = game.num_players
        rhos = _per_player(self.rho, n, "rho")
        lams = _per_player(self.lam, n, "lam")
        deltas = _per_player(self.delta, n, "delta")
        alphas = _per_player(self.alpha, n, "alpha")
        return tuple(
            AgentConfig(player=i, rho=rhos[i], lam=lams[i], delta=deltas[i], alpha=alphas[i])
            for i in range(n)
        )

    def to_json_dict(self) -> dict:
        def scalar_or_list(v):
            return list(v) if isinstance(v, tuple) else v

        return {
            "game": str(self.game),
            "rho": scalar_or_list(self.rho),
            "lam": scalar_or_list(self.lam),
            "delta": scalar_or_list(self.delta),
            "alpha": scalar_or_list(self.alpha),
            "min_phase": self.min_phase,
            "ratio": self.ratio,
            "horizon": self.horizon,
            "trials": self.trials,
            "record_times": list(self.record_times),
            "master_seed": self.master_seed,
            "workers": self.workers,
        }

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
        config.agent_configs(game),
        schedules,
        streams,
        config.horizon,
        record_times=config.record_times,
        warn_unreachable=False,
    )
    return [(tuple(r.at_equilibrium for r in tr.records), max(tr.max_abs_q)) for tr in traces]


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> ExperimentResult:
    """Run the configured batch of independent trials.

    Trial k draws all of its randomness from (master_seed, trial=k), so the
    aggregate is independent of scheduling and worker count. When ``out_dir``
    is given, writes ``frequencies.csv`` (time, frequency, trials) and
    ``summary.json`` (parameter echo plus results). No joint-policy space
    is enumerated: each worker labels only the joints its trials visit.
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

    # one contiguous slice of trials per worker, played as one batch
    workers = min(config.workers, config.trials)
    cuts = [config.trials * w // workers for w in range(workers + 1)]
    slices = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_trials, repeat(game), repeat(config), slices))
    else:
        batches = list(map(_run_trials, repeat(game), repeat(config), slices))
    outcomes = [outcome for batch in batches for outcome in batch]

    flags_by_trial = tuple(flags for flags, _ in outcomes)
    max_abs = tuple(m for _, m in outcomes)
    times = sorted(set(config.record_times))
    frequencies = {
        t: sum(flags[j] for flags in flags_by_trial) / config.trials
        for j, t in enumerate(times)
    }

    csv_path = summary_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
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
    budget: int = exact_solver.DEFAULT_SOLVE_BUDGET,
) -> dict:
    """Exact structural report: validation, reachability, equilibria, the
    best-response graph certificate, delta_bar, and (when the corresponding
    parameters are supplied) the perturbation and theta/xi diagnostics."""
    game = resolve_game(source)
    report: dict = {"violations": validate_game(game)}
    if report["violations"]:
        return report
    exact_solver.check_input("tol", tol)
    for name, value in (("eps", eps), ("ratio", ratio)):
        if value is not None:
            exact_solver.check_input(name, value)
    analysis = exact_solver.ExactAnalysis(game, tol, budget, rhos, deltas)
    if lambdas is not None:
        exact_solver.check_per_player(game, "lambda", lambdas)
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
