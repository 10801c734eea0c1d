"""Seeded, deterministic multi-agent episode execution.

All randomness is derived from a single 64-bit master seed through disjoint
stream keys, one per primitive family: transition noise W_t, per-player
experimentation and action draws indexed by time, per-player inertia draws
keyed by boundary time, per-player policy draws keyed by (time, realized
greedy set), per-player phase lengths, and the initial state/policy draws.
Distinct keys give mutually independent streams, and regenerating from the
same master seed reproduces every draw, so a trace is a pure function of
(game, configs, schedule parameters, horizon, master seed).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .agent import Agent, AgentConfig
from .exact_solver import QTable, check_reachability, equilibrium_set
from .game_model import StochasticGame, sample_initial_state, sample_transition

__all__ = [
    "RandomnessStreams",
    "Schedule",
    "draw_schedule",
    "ActivePhase",
    "ActivePhaseList",
    "active_phases",
    "PolicyChange",
    "TraceRecord",
    "SimulationTrace",
    "run_episode",
    "frozen_q_run",
    "equilibrium_frequency",
]

_FAMILY_TRANSITION = 0
_FAMILY_EXPERIMENT = 1
_FAMILY_ACTION = 2
_FAMILY_INERTIA = 3
_FAMILY_POLICY = 4
_FAMILY_PHASE = 5
_FAMILY_INIT_STATE = 6
_FAMILY_INIT_POLICY = 7


class RandomnessStreams:
    """Keyed access to every primitive random variable of an episode.

    Per-step families are drawn as whole arrays indexed by t; event families
    (inertia, policy draws, phase lengths) are drawn lazily from their own
    keyed sub-streams, so a draw never depends on which other draws were
    consumed first.
    """

    def __init__(self, master_seed: int, trial: int = 0) -> None:
        if not 0 <= int(master_seed) < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if trial < 0:
            raise ValueError("trial index must be nonnegative")
        self.master_seed = int(master_seed)
        self.trial = int(trial)

    def _generator(self, *key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.trial, *key))
        return np.random.Generator(np.random.PCG64(seq))

    def transition_uniforms(self, horizon: int) -> np.ndarray:
        """W_0, ..., W_{horizon-1}."""
        return self._generator(_FAMILY_TRANSITION).random(horizon)

    def experimentation_uniforms(self, player: int, horizon: int) -> np.ndarray:
        return self._generator(_FAMILY_EXPERIMENT, player).random(horizon)

    def action_draws(self, player: int, horizon: int, num_actions: int) -> np.ndarray:
        return self._generator(_FAMILY_ACTION, player).integers(
            0, num_actions, size=horizon
        )

    def inertia_uniform(self, player: int, t: int) -> float:
        return float(self._generator(_FAMILY_INERTIA, player, t).random())

    def policy_draw(
        self, player: int, t: int, allowed: tuple[tuple[int, ...], ...]
    ) -> tuple[int, ...]:
        """Uniform draw from the product set of per-state allowed actions.

        The draw is a deterministic function of (master seed, trial, player,
        t, canonical encoding of the set), so only the realized set has to be
        materialized while the outcome stays distributionally identical to
        pre-drawing one policy per possible set.
        """
        if not allowed or any(len(acts) == 0 for acts in allowed):
            raise ValueError("every state needs at least one allowed action")
        text = ";".join(",".join(map(str, acts)) for acts in allowed)
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        fingerprint = int.from_bytes(digest, "big")
        gen = self._generator(
            _FAMILY_POLICY, player, t, fingerprint >> 32, fingerprint & 0xFFFFFFFF
        )
        total = 1
        for acts in allowed:
            total *= len(acts)
        index = int(gen.integers(total))
        picks = []
        for acts in reversed(allowed):
            index, pos = divmod(index, len(acts))
            picks.append(acts[pos])
        return tuple(reversed(picks))

    def phase_lengths(
        self, player: int, min_length: int, ratio: int, horizon: int
    ) -> list[int]:
        """Uniform integer lengths in [min_length, ratio * min_length] until
        the cumulative boundaries cover the horizon."""
        gen = self._generator(_FAMILY_PHASE, player)
        lengths: list[int] = []
        total = 0
        while total < horizon:
            length = int(gen.integers(min_length, ratio * min_length, endpoint=True))
            lengths.append(length)
            total += length
        return lengths

    def initial_state_uniform(self) -> float:
        return float(self._generator(_FAMILY_INIT_STATE).random())

    def initial_policy_choices(
        self, player: int, num_states: int, num_actions: int
    ) -> tuple[int, ...]:
        """Uniform draw over the player's deterministic policy space."""
        gen = self._generator(_FAMILY_INIT_POLICY, player)
        return tuple(int(a) for a in gen.integers(0, num_actions, size=num_states))


@dataclass(frozen=True)
class Schedule:
    """Per-player exploration phase lengths and the implied boundary times.

    Boundaries start at 0 and satisfy t[k+1] = t[k] + length[k]; every length
    must lie in [min_length, ratio * min_length].
    """

    min_length: int
    ratio: int
    phase_lengths: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.min_length < 1 or self.ratio < 1:
            raise ValueError("min_length and ratio must be positive integers")
        object.__setattr__(
            self,
            "phase_lengths",
            tuple(tuple(int(v) for v in row) for row in self.phase_lengths),
        )
        cap = self.ratio * self.min_length
        for i, row in enumerate(self.phase_lengths):
            if not row:
                raise ValueError(f"player {i} needs at least one phase length")
            for v in row:
                if not self.min_length <= v <= cap:
                    raise ValueError(
                        f"phase length {v} for player {i} outside "
                        f"[{self.min_length}, {cap}]"
                    )

    @property
    def num_players(self) -> int:
        return len(self.phase_lengths)

    @cached_property
    def boundaries(self) -> tuple[tuple[int, ...], ...]:
        """Per player: (0, t_1, t_2, ...) with one entry per phase start."""
        out = []
        for row in self.phase_lengths:
            acc = [0]
            for v in row:
                acc.append(acc[-1] + v)
            out.append(tuple(acc))
        return tuple(out)

    def covers(self, horizon: int) -> bool:
        return all(b[-1] >= horizon for b in self.boundaries)


def draw_schedule(
    streams: RandomnessStreams,
    num_players: int,
    min_length: int,
    ratio: int,
    horizon: int,
) -> Schedule:
    """Draw every player's phase lengths uniformly from
    [min_length, ratio * min_length] until the boundaries cover the horizon."""
    if min_length < 1 or ratio < 1:
        raise ValueError("min_length and ratio must be positive integers")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    lengths = tuple(
        tuple(streams.phase_lengths(i, min_length, ratio, horizon))
        for i in range(num_players)
    )
    return Schedule(min_length=min_length, ratio=ratio, phase_lengths=lengths)


@dataclass(frozen=True)
class ActivePhase:
    """One interval [tau_min, tau_max] bundling nearby policy-update
    opportunities; index 0 is the degenerate phase (0, 0)."""

    index: int
    tau_min: int
    tau_max: int


@dataclass(frozen=True)
class ActivePhaseList:
    phases: tuple[ActivePhase, ...]
    truncated: bool


def active_phases(schedule: Schedule) -> ActivePhaseList:
    """Transcribe the active-phase recursion over the schedule's coverage.

    Phase k+1 opens at the first boundary after tau_max_k and closes at the
    first time t by which every player has had a boundary in [tau_min, t] and
    no boundary falls in the next min_length / num_players stage games. The
    scan stops (flagged truncated) once the finite schedule can no longer
    certify a phase.
    """
    n = schedule.num_players
    min_length = schedule.min_length
    per_player = [b[1:] for b in schedule.boundaries]
    merged = sorted({t for row in per_player for t in row})
    coverage = min(row[-1] for row in per_player)

    phases = [ActivePhase(0, 0, 0)]
    truncated = False
    tau_max = 0
    index = 0
    while True:
        nxt_idx = bisect_right(merged, tau_max)
        if nxt_idx >= len(merged):
            truncated = True
            break
        tau_min = merged[nxt_idx]
        firsts = []
        exhausted = False
        for row in per_player:
            j = bisect_left(row, tau_min)
            if j >= len(row):
                exhausted = True
                break
            firsts.append(row[j])
        if exhausted:
            truncated = True
            break
        start = max(firsts)
        found = None
        for k in range(bisect_left(merged, start), len(merged)):
            t = merged[k]
            if t >= coverage:
                break
            after = bisect_right(merged, t)
            if after >= len(merged):
                break
            # no boundary within min_length / n steps after t, compared in
            # exact integer arithmetic
            if n * (merged[after] - t) >= min_length:
                found = t
                break
        if found is None:
            truncated = True
            break
        index += 1
        phases.append(ActivePhase(index, tau_min, found))
        tau_max = found
    return ActivePhaseList(tuple(phases), truncated)


@dataclass(frozen=True)
class PolicyChange:
    """A baseline policy switch: the joint baseline in force from time t on."""

    t: int
    player: int
    joint: tuple[tuple[int, ...], ...]
    at_equilibrium: bool


@dataclass(frozen=True)
class TraceRecord:
    t: int
    joint: tuple[tuple[int, ...], ...]
    at_equilibrium: bool
    q_tables: tuple[np.ndarray, ...] | None


@dataclass(frozen=True)
class SimulationTrace:
    """Sparse record of one episode: the initial joint baseline, every policy
    change, and snapshots at the requested times.

    The joint baseline is piecewise constant, so ``joint_at``/``at_equilibrium``
    reconstruct it for any stage t in [0, horizon).
    """

    master_seed: int
    trial: int
    horizon: int
    schedule: Schedule
    initial_joint: tuple[tuple[int, ...], ...]
    initial_at_equilibrium: bool
    events: tuple[PolicyChange, ...]
    records: tuple[TraceRecord, ...]
    max_abs_q: tuple[float, ...]

    @cached_property
    def _event_times(self) -> list[int]:
        return [e.t for e in self.events]

    def joint_at(self, t: int) -> tuple[tuple[int, ...], ...]:
        if not 0 <= t < self.horizon:
            raise ValueError(f"time {t} is beyond the simulated horizon {self.horizon}")
        idx = bisect_right(self._event_times, t)
        if idx == 0:
            return self.initial_joint
        return self.events[idx - 1].joint

    def at_equilibrium(self, t: int) -> bool:
        if not 0 <= t < self.horizon:
            raise ValueError(f"time {t} is beyond the simulated horizon {self.horizon}")
        idx = bisect_right(self._event_times, t)
        if idx == 0:
            return self.initial_at_equilibrium
        return self.events[idx - 1].at_equilibrium

    def to_json_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "trial": self.trial,
            "horizon": self.horizon,
            "schedule": {
                "min_length": self.schedule.min_length,
                "ratio": self.schedule.ratio,
                "phase_lengths": [list(row) for row in self.schedule.phase_lengths],
            },
            "initial": {
                "joint": [list(c) for c in self.initial_joint],
                "at_equilibrium": self.initial_at_equilibrium,
            },
            "events": [
                {
                    "t": e.t,
                    "player": e.player,
                    "joint": [list(c) for c in e.joint],
                    "at_equilibrium": e.at_equilibrium,
                }
                for e in self.events
            ],
            "records": [
                {
                    "t": r.t,
                    "joint": [list(c) for c in r.joint],
                    "at_equilibrium": r.at_equilibrium,
                    "q_tables": None
                    if r.q_tables is None
                    else [q.tolist() for q in r.q_tables],
                }
                for r in self.records
            ],
            "max_abs_q": list(self.max_abs_q),
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )


def _check_configs(game: StochasticGame, configs: Sequence[AgentConfig]) -> None:
    if len(configs) != game.num_players:
        raise ValueError(
            f"need one AgentConfig per player: got {len(configs)} for "
            f"{game.num_players} players"
        )
    for i, cfg in enumerate(configs):
        if cfg.player != i:
            raise ValueError("configs must be ordered by player id")


def _build_agents(
    game: StochasticGame,
    configs: Sequence[AgentConfig],
    streams: RandomnessStreams,
    forced_choices: Sequence[Sequence[int]] | None,
) -> list[Agent]:
    agents = []
    for i, cfg in enumerate(configs):
        if forced_choices is not None:
            baseline: Sequence[int] | None = forced_choices[i]
        elif cfg.initial_policy is not None:
            baseline = cfg.initial_policy.choice
        else:
            baseline = streams.initial_policy_choices(
                i, game.num_states, game.action_counts[i]
            )
        agents.append(
            Agent.from_config(
                cfg,
                num_states=game.num_states,
                num_actions=game.action_counts[i],
                discount=game.discounts[i],
                baseline=baseline,
            )
        )
    return agents


# Longest stretch of play built at once; bounds the per-segment tables.
_BLOCK = 1 << 13


def _play_segment(
    game: StochasticGame,
    agents: list[Agent],
    draws: Sequence[tuple[np.ndarray, np.ndarray]],
    w_draws: np.ndarray,
    x: int,
) -> int:
    """Play one stretch of stages under frozen baselines, starting in state
    ``x``; returns the state after its last stage.

    ``draws`` holds each player's experimentation flags and uniform actions
    for the stretch, ``w_draws`` its transition uniforms. With the baselines
    fixed, the action of every player and the next state are tables over
    (stage, state), built with array operations; only the state path and the
    Q-factor recursion run stage by stage.
    """
    length = len(w_draws)
    num_states = game.num_states
    tables = [
        np.where(explore[:, None], uniform[:, None], np.asarray(ag.baseline))
        for ag, (explore, uniform) in zip(agents, draws)
    ]
    joint = sum(table * stride for table, stride in zip(tables, game.joint_strides))
    next_table = sample_transition(game, np.arange(num_states), joint, w_draws[:, None])
    successor = next_table.ravel().tolist()

    path = []
    for offset in range(0, length * num_states, num_states):
        path.append(x)
        x = successor[offset + x]

    stages = np.arange(length)
    visited = np.array(path)
    joint_path = joint[stages, visited]
    next_states = path[1:] + [x]
    for ag, table, costs in zip(agents, tables, game.costs):
        ag.learn(
            path,
            table[stages, visited].tolist(),
            costs[visited, joint_path].tolist(),
            next_states,
        )
    return x


def _simulate(
    game: StochasticGame,
    agents: list[Agent],
    streams: RandomnessStreams,
    horizon: int,
    record_times: Sequence[int],
    equilibria: frozenset | None,
    boundaries: Sequence[Sequence[int]],
    record_q: bool,
) -> tuple[list[PolicyChange], list[TraceRecord], tuple[tuple[int, ...], ...], bool]:
    """Play ``horizon`` stages as segments between update and record times.

    ``boundaries`` holds each player's phase start times (a schedule's
    ``boundaries``, or nothing for a run without policy updates); player i
    appraises its baseline at each of its times after 0, and players sharing
    a time go in player order. A player experiments at stage t when its
    experimentation uniform is <= its rho. Every baseline is frozen between
    two update times, so each segment (capped at ``_BLOCK`` stages) is played
    by :func:`_play_segment`; the appraisals and snapshots run at the segment
    starts. ``tests/oracles.simulate_stepwise`` is the stage-by-stage
    reference these outputs must equal bit for bit.
    """
    w_draws = streams.transition_uniforms(horizon)
    draws = [
        (
            streams.experimentation_uniforms(i, horizon) <= ag.rho,
            streams.action_draws(i, horizon, game.action_counts[i]),
        )
        for i, ag in enumerate(agents)
    ]

    updates = sorted((t, i) for i, row in enumerate(boundaries) for t in row[1:] if t < horizon)
    updates.append((horizon, -1))
    next_update = 0
    sorted_records = sorted(set(int(t) for t in record_times))
    if sorted_records and not 0 <= sorted_records[0] <= sorted_records[-1] < horizon:
        raise ValueError("record times must lie in [0, horizon)")
    sorted_records.append(horizon)
    next_record = 0

    current_joint = tuple(tuple(ag.baseline) for ag in agents)
    current_eq = current_joint in equilibria if equilibria is not None else False
    initial_joint, initial_eq = current_joint, current_eq

    events: list[PolicyChange] = []
    records: list[TraceRecord] = []

    x = sample_initial_state(game, streams.initial_state_uniform())

    t = 0
    while t < horizon:
        while updates[next_update][0] == t:
            i = updates[next_update][1]
            next_update += 1
            lam_draw = streams.inertia_uniform(i, t)
            if agents[i].end_phase_update(lam_draw, partial(streams.policy_draw, i, t)):
                current_joint = tuple(tuple(a.baseline) for a in agents)
                current_eq = (
                    current_joint in equilibria if equilibria is not None else False
                )
                events.append(PolicyChange(t, i, current_joint, current_eq))
        if sorted_records[next_record] == t:
            snapshots = (
                tuple(np.array(ag.q) for ag in agents) if record_q else None
            )
            records.append(TraceRecord(t, current_joint, current_eq, snapshots))
            next_record += 1

        stop = min(t + _BLOCK, updates[next_update][0], sorted_records[next_record])
        x = _play_segment(
            game,
            agents,
            [(explore[t:stop], uniform[t:stop]) for explore, uniform in draws],
            w_draws[t:stop],
            x,
        )
        t = stop

    return events, records, initial_joint, initial_eq


def run_episode(
    game: StochasticGame,
    configs: Sequence[AgentConfig],
    schedule: Schedule,
    streams: RandomnessStreams,
    horizon: int,
    record_times: Sequence[int] = (),
    *,
    equilibria: frozenset | None = None,
    record_q: bool = False,
    warn_unreachable: bool = True,
) -> SimulationTrace:
    """Execute the full asynchronous stage-game loop.

    Each stage: pending phase-boundary policy updates, action selection from
    the softened baselines, the state transition via W_t, and every player's
    Q-update. ``equilibria`` (encodings from
    :func:`decqlearn.exact_solver.equilibrium_set`) may be precomputed and
    shared across episodes; when None it is computed here.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    _check_configs(game, configs)
    if schedule.num_players != game.num_players:
        raise ValueError("schedule and game disagree on the number of players")
    if not schedule.covers(horizon):
        raise ValueError("schedule does not cover the horizon")
    if warn_unreachable and not check_reachability(game):
        warnings.warn(
            "state graph is not strongly connected; learning may not visit "
            "every state",
            stacklevel=2,
        )
    if equilibria is None:
        equilibria = equilibrium_set(game, tol=1e-9)

    agents = _build_agents(game, configs, streams, None)
    events, records, initial_joint, initial_eq = _simulate(
        game,
        agents,
        streams,
        horizon,
        record_times,
        equilibria,
        boundaries=schedule.boundaries,
        record_q=record_q,
    )
    return SimulationTrace(
        master_seed=streams.master_seed,
        trial=streams.trial,
        horizon=horizon,
        schedule=schedule,
        initial_joint=initial_joint,
        initial_at_equilibrium=initial_eq,
        events=tuple(events),
        records=tuple(records),
        max_abs_q=tuple(ag.max_abs_q for ag in agents),
    )


def frozen_q_run(
    game: StochasticGame,
    configs: Sequence[AgentConfig],
    frozen_joint: Sequence[Sequence[int]],
    streams: RandomnessStreams,
    steps: int,
) -> list[QTable]:
    """Run the stage-game loop with policy updates disabled.

    The baselines are pinned to ``frozen_joint`` for the whole run, realizing
    the hypothetical Q-factor trajectory driven by the episode's own
    primitive streams; returns each player's final Q-table.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    _check_configs(game, configs)
    choices = [tuple(int(a) for a in row) for row in frozen_joint]
    if len(choices) != game.num_players:
        raise ValueError("frozen_joint needs one policy per player")
    agents = _build_agents(game, configs, streams, choices)
    _simulate(
        game,
        agents,
        streams,
        steps,
        record_times=(),
        equilibria=None,
        boundaries=(),
        record_q=False,
    )
    return [QTable(ag.player, np.array(ag.q)) for ag in agents]


def equilibrium_frequency(
    traces: Sequence[SimulationTrace], times: Sequence[int]
) -> dict[int, float]:
    """Per requested time, the fraction of traces whose baseline joint policy
    is an equilibrium at that time."""
    if not traces:
        raise ValueError("need at least one trace")
    out = {}
    for t in times:
        flags = [tr.at_equilibrium(t) for tr in traces]
        out[int(t)] = sum(flags) / len(flags)
    return out
