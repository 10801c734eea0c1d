"""Seeded, deterministic multi-agent episode execution.

All randomness is derived from a single 64-bit master seed through disjoint
stream keys, one per primitive family: transition noise W_t, per-player
experimentation and action draws indexed by time, per-player inertia draws
keyed by boundary time, per-player policy draws keyed by (time, realized
greedy set), per-player phase lengths, and the initial state/policy draws.
Distinct keys give mutually independent streams, and regenerating from the
same master seed reproduces every draw, so a trace is a pure function of
(game, configs, schedule parameters, horizon, master seed, trial).

The two entry points, :func:`run_episodes` and :func:`frozen_q_run`, take a
batch of trials, one ``RandomnessStreams`` each; a trial's outputs do not
depend on the batch. The configs hold only the learners' fixed parameters:
every Q table and every baseline of a run lives in the engine
(``_simulate``), which applies the Q-learning update and hands each table
and baseline to :func:`decqlearn.agent.end_phase_update` at the player's
phase boundaries.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .agent import AgentConfig, end_phase_update
from .exact_solver import QTable, label_equilibria
# sample_transition is not called here: the segment engine draws through
# _inverse_cdf on rows it has built. The name stays importable from this
# module, where benchmarks/selftest.py reaches it.
from .game_model import (
    StochasticGame,
    _check,
    _choice_for,
    _is_id,
    _inverse_cdf,
    sample_initial_state,
    sample_transition,
)

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
    "run_episodes",
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

# A joint baseline: one choice tuple (an action per state) per player.
Joint = tuple[tuple[int, ...], ...]


class RandomnessStreams:
    """Keyed access to every primitive random variable of an episode.

    Per-step families are open generators, drawn block by block (the blocks
    equal one horizon-sized draw); event families
    (inertia, policy draws, phase lengths) are drawn lazily from their own
    keyed sub-streams, so a draw never depends on which other draws were
    consumed first.

    ``master_seed`` is a 64-bit unsigned integer and ``trial`` a nonnegative
    integer, and the phase-length arguments are counts, each by its rule in
    ``game_model._RULES``.
    """

    def __init__(self, master_seed: int, trial: int = 0) -> None:
        self.master_seed = _check("seed", "master_seed", master_seed)
        self.trial = _check("index", "trial", trial)

    def _generator(self, *key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.trial, *key))
        return np.random.Generator(np.random.PCG64(seq))

    def transition_generator(self) -> np.random.Generator:
        """The stream of W_t: successive ``random(n)`` calls continue it, so
        blocks of draws equal one horizon-sized draw."""
        return self._generator(_FAMILY_TRANSITION)

    def experimentation_generator(self, player: int) -> np.random.Generator:
        """The player's experimentation uniforms, drawn by ``random(n)``."""
        return self._generator(_FAMILY_EXPERIMENT, player)

    def action_generator(self, player: int) -> np.random.Generator:
        """The player's uniform actions, drawn by ``integers(0, m, size=n)``."""
        return self._generator(_FAMILY_ACTION, player)

    def inertia_uniform(self, player: int, t: int) -> float:
        return float(self._generator(_FAMILY_INERTIA, player, t).random())

    def policy_draw(
        self, player: int, t: int, allowed: tuple[tuple[int, ...], ...]
    ) -> tuple[int, ...]:
        """Uniform draw from the product set of per-state allowed actions.

        The draw is a deterministic function of (master seed, trial, player,
        t, canonical encoding of the set), so only the realized set has to be
        materialized while the outcome stays distributionally identical to
        pre-drawing one policy per possible set. A set of at most 2**63
        policies is indexed by one integer draw; a larger one, whose index
        a 64-bit draw cannot hold, by one draw per state, in state order.
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
        if total > 2**63:
            return tuple(acts[int(gen.integers(len(acts)))] for acts in allowed)
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
        min_length, ratio, horizon = (
            _check("count", name, value)
            for name, value in (("min_length", min_length), ("ratio", ratio), ("horizon", horizon))
        )
        if ratio * min_length >= 2**63:  # the longest phase, one 64-bit draw
            raise ValueError(f"ratio * min_length must be below 2**63, got {ratio * min_length}")
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
    is a count (the rule of ``min_length`` and ``ratio``), held as the Python
    int it equals, and must lie in [min_length, ratio * min_length].
    """

    min_length: int
    ratio: int
    phase_lengths: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for name in ("min_length", "ratio"):
            object.__setattr__(self, name, _check("count", name, getattr(self, name)))
        object.__setattr__(
            self,
            "phase_lengths",
            tuple(
                tuple(_check("count", f"phase length of player {i}", v) for v in row)
                for i, row in enumerate(self.phase_lengths)
            ),
        )
        cap = self.ratio * self.min_length
        for i, row in enumerate(self.phase_lengths):
            if not row:
                raise ValueError(f"player {i} needs at least one phase length")
            for v in row:
                if not self.min_length <= v <= cap:
                    raise ValueError(
                        f"phase length of player {i} must lie in "
                        f"[{self.min_length}, {cap}], got {v}"
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
    [min_length, ratio * min_length] until the boundaries cover the horizon
    (``RandomnessStreams.phase_lengths`` checks the three counts)."""
    _check("count", "num_players", num_players)
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

    def _last_event(self, t: int) -> PolicyChange | None:
        """The last policy change at or before stage t, None before the
        first; a t that is not an integer (``game_model._is_id``, the rule
        of record times) or lies outside [0, horizon) is a ValueError."""
        if not _is_id(t):
            raise ValueError(f"time {t!r} is not an integer")
        if not 0 <= t < self.horizon:
            raise ValueError(f"time {t} is beyond the simulated horizon {self.horizon}")
        idx = bisect_right(self._event_times, t)
        return self.events[idx - 1] if idx else None

    def joint_at(self, t: int) -> tuple[tuple[int, ...], ...]:
        event = self._last_event(t)
        return self.initial_joint if event is None else event.joint

    def at_equilibrium(self, t: int) -> bool:
        event = self._last_event(t)
        return self.initial_at_equilibrium if event is None else event.at_equilibrium

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


def _first_baselines(
    game: StochasticGame,
    configs: Sequence[AgentConfig],
    streams: Sequence[RandomnessStreams],
    forced_choices: Sequence[Sequence[int]] | None = None,
) -> list[np.ndarray]:
    """Per player, the first baseline of every trial, (trial, state): the
    ``forced_choices``, else the config's ``initial_policy``, else a uniform
    draw from the trial's streams. Checks that ``configs`` hold one config
    per player in player order, each given baseline against the game, and
    each config's ``initial_q`` shape."""
    if len(configs) != game.num_players:
        raise ValueError(
            f"need one AgentConfig per player: got {len(configs)} for "
            f"{game.num_players} players"
        )
    baselines = []
    for i, cfg in enumerate(configs):
        if cfg.player != i:
            raise ValueError("configs must be ordered by player id")
        num_states, num_actions = game.num_states, game.action_counts[i]
        if forced_choices is None and cfg.initial_policy is None:
            rows = [s.initial_policy_choices(i, num_states, num_actions) for s in streams]
        else:
            choice = cfg.initial_policy.choice if forced_choices is None else forced_choices[i]
            rows = [_choice_for(game, i, choice)] * len(streams)
        if cfg.initial_q is not None and cfg.initial_q.shape != (num_states, num_actions):
            raise ValueError("initial_q has the wrong shape for this game")
        baselines.append(np.array(rows, dtype=np.int64))
    return baselines


# Most trial-stages played as one segment: a batch of B trials plays at most
# _BLOCK // B stages at once, which bounds the per-segment tables (longer
# tables lose cache locality). A segment outlives the phase ends inside it:
# play pauses there, and a trial that switches has its own columns rebuilt.
_BLOCK = 1 << 13

# Trial-stages of per-step draws taken at once from the open generators: few
# generator calls per stage, and 8 + 2 bytes per player and trial-stage held,
# whatever the horizon; a segment ends at the end of a block of draws too.
_DRAWS = 1 << 17

# Fewest stages of per-step draws taken at once: each generator call has a
# fixed cost, so a batch of more than _DRAWS / _DRAWS_MIN_STAGES trials holds
# this many stages of draws per trial instead (6 MB at 500 trials).
_DRAWS_MIN_STAGES = 1 << 10

# Smallest batch whose trials play in lockstep; below it one update per stage
# for all rows costs more than each trial's Python recursion (measured
# break-even on the benchmark game).
_LOCKSTEP_MIN = 8


def _draw_block(
    game: StochasticGame, configs: Sequence[AgentConfig], generators: list, length: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The next ``length`` stages of every trial's per-step draws: the
    transition uniforms and, per player, the experimentation flags (uniform
    <= its rho) and the uniform actions (in the smallest integer type that
    holds them), each of shape (trial, stage)."""
    batch = len(generators)
    w = np.empty((batch, length))
    for row, (w_gen, _) in zip(w, generators):
        w_gen.random(out=row)
    uniform = np.empty(length)
    draws = []
    for i, num_actions in enumerate(game.action_counts):
        flags = np.empty((batch, length), dtype=bool)
        actions = np.empty((batch, length), dtype=np.min_scalar_type(num_actions - 1))
        for k, (_, gens) in enumerate(generators):
            np.less_equal(gens[i][0].random(out=uniform), configs[i].rho, out=flags[k])
            actions[k] = gens[i][1].integers(0, num_actions, size=length)
        draws.append((flags, actions))
    return w, draws


class _QStack:
    """Every Q table of a batch during a run, in one array, entry (action,
    player, state, trial), padded to the largest action count with +inf,
    which no min picks up, and each table's running max |Q|. The update has
    two forms with the same float operations in the same order, and the same
    tie rule as ``min()``: :meth:`play` gives every (player, trial) its
    update of a stage at once, and :meth:`play_each` runs :func:`_learn`
    trial by trial.

    Every trial starts from its player's ``initial_q`` (zeros if None) and
    learns with its player's alpha and discount."""

    def __init__(
        self, game: StochasticGame, configs: Sequence[AgentConfig], batch: int
    ) -> None:
        self.widths = game.action_counts
        self.q = np.full((max(self.widths), game.num_players, game.num_states, batch), np.inf)
        initial = [
            np.zeros((game.num_states, m)) if cfg.initial_q is None else cfg.initial_q
            for cfg, m in zip(configs, self.widths)
        ]
        for i, (q, m) in enumerate(zip(initial, self.widths)):
            self.q[:m, i] = q.T[:, :, None]
        # one entry per (player, trial), player-major like the stack
        self.alpha = np.repeat([cfg.alpha for cfg in configs], batch)
        self.beta = np.repeat(game.discounts, batch)
        # the factors of the next row's minimum and of the old entry
        self.scale = np.stack([self.beta, 1.0 - self.alpha])
        self.max_abs_q = np.repeat([np.abs(q).max(initial=0.0) for q in initial], batch)

    def table(self, player: int, trial: int) -> np.ndarray:
        """A view of one Q table, (state, action)."""
        return self.q[: self.widths[player], player, :, trial].T

    def play(self, entries: np.ndarray, written: np.ndarray, start: int, stop: int) -> None:
        """Give every (player, trial) its update of each stage in [start,
        stop) of a :class:`_Segment`, from its ``entries`` and ``written``,
        in the float order of :func:`_learn`.

        A stage of A actions makes 5 + A numpy calls: one gather of every
        action plane's next-row entry and of the entry it writes, A - 1
        folds of the minimum (the running minimum second, as ``min()``
        keeps the first of tied values, 0.0 before -0.0), one multiply of
        the minimum by beta and of the old entry by 1 - alpha, ``+ c`` and
        ``* alpha`` on the minimum's row, the sum, and one scatter."""
        flat, width = self.q.reshape(-1), len(self.q)
        take, minimum, multiply, add = flat.take, np.minimum, np.multiply, np.add
        alpha, scale = self.alpha, self.scale
        read = np.empty(entries.shape[1:])
        # the fold leaves the minimum in row A - 1, beside the old entry in
        # row A, so one multiply scales both
        folds = list(zip(read[1:width], read[: width - 1]))
        pair, target, old = read[width - 1 :], read[width - 1], read[width]
        written = written[start:stop]
        for value, entry, write in zip(written, entries[start:stop], entries[start:stop, width]):
            # (1.0 - alpha) * q[x][u] + alpha * (c + beta * min(q[x_next]))
            take(entry, None, read, "clip")
            for later, running in folds:
                minimum(later, running, out=later)
            multiply(pair, scale, pair)
            add(target, value, target)  # the stage's costs
            multiply(target, alpha, target)
            add(old, target, value)
            flat[write] = value
        np.maximum(self.max_abs_q, np.abs(written).max(axis=0), out=self.max_abs_q)

    def play_each(
        self,
        game: StochasticGame,
        tables: list[np.ndarray],
        rows: np.ndarray,
        successor: np.ndarray,
        x: np.ndarray,
        start: int,
        stop: int,
    ) -> np.ndarray:
        """:meth:`play` stages [start, stop) of a :class:`_Segment` one trial
        at a time, trial k starting in state ``x[k]``: a Python walk of each
        trial's state path, then :func:`_learn` on each of its tables as
        lists, written back into the stack; returns the states after stage
        ``stop - 1``."""
        num_states, batch = successor.shape[:2]
        length = stop - start
        paths = []
        for k in range(batch):
            step = successor[:, k, start:stop].T.ravel().tolist()
            state = int(x[k])
            path = []
            for offset in range(0, length * num_states, num_states):
                path.append(state)
                state = step[offset + state]
            path.append(state)
            paths.append(path)
        visited = np.array(paths)
        # cell (trial k, stage t) of a (state, trial, stage) table along the paths
        cells = (visited[:, :-1], np.arange(batch)[:, None], np.arange(start, stop))
        cost_cells = rows[cells]
        for i, (table, costs) in enumerate(zip(tables, game.costs)):
            actions, path_costs = table[cells].tolist(), costs.take(cost_cells).tolist()
            for k, path in enumerate(paths):
                row = i * batch + k
                q = self.table(i, k)
                values = q.tolist()
                # path holds one more state than the stage count, so the
                # update's zip stops at the segment's last stage
                self.max_abs_q[row] = _learn(
                    values,
                    float(self.alpha[row]),
                    float(self.beta[row]),
                    float(self.max_abs_q[row]),
                    path,
                    actions[k],
                    path_costs[k],
                    path[1:],
                )
                q[...] = values
        return visited[:, -1]


def _learn(
    q: list[list[float]],
    alpha: float,
    beta: float,
    max_abs_q: float,
    states: Sequence[int],
    actions: Sequence[int],
    costs: Sequence[float],
    next_states: Sequence[int],
) -> float:
    """Constant-step Q-learning updates along a path of transitions on one
    table ``q`` held as lists, (state, action), in place: one entry
    (states[k], actions[k]) per step, in order. Returns the running max |Q|,
    starting from ``max_abs_q``. The per-trial form of the update;
    :meth:`_QStack.play` is the lockstep form, with the same float operations
    in the same order and the same minimum, signed zeros included: its fold
    of a row keeps the first of tied values, as ``min`` does.

    ``mins[x]`` caches ``min(q[x])``, so a step reads its next row's minimum
    without scanning the row. After a step writes ``value`` over ``old`` in
    row x, the cache stays exactly what ``min(q[x])`` returns, signed zeros
    included: a ``value`` below ``mins[x]`` is the new minimum; an ``old``
    equal to ``mins[x]`` may have been the minimum, and a ``value`` equal to
    it may now be the first one ``min`` meets (0.0 before -0.0), so the row
    is scanned again; otherwise the minimum is unchanged. The running max
    |Q| is ``max(hi, -lo)``, with ``hi`` and ``lo`` the highest and lowest
    of ``max_abs_q``, ``-max_abs_q`` and the values written."""
    keep = 1.0 - alpha
    mins = [min(row) for row in q]
    hi, lo = max_abs_q, -max_abs_q
    for x, u, c, x_next in zip(states, actions, costs, next_states):
        row = q[x]
        old = row[u]
        value = keep * old + alpha * (c + beta * mins[x_next])
        row[u] = value
        least = mins[x]
        if value < least:
            mins[x] = value
        elif value == least or old == least:
            mins[x] = min(row)
        if value > hi:
            hi = value
        if value < lo:
            lo = value
    return max(hi, -lo)


class _Segment:
    """The tables of one segment of a batch under frozen baselines: per
    player its actions, and the (state, joint action) rows of the kernel
    and cost tables, each over (state, trial, stage), with the state axis
    first to keep the inner loops long. Given the :class:`_QStack` that
    plays it in lockstep, it also holds every trial's state walk and the
    ``entries`` and ``written`` of :meth:`_QStack.play`; without one, the
    next states over (state, trial, stage), which :meth:`_QStack.play_each`
    walks trial by trial.

    ``baselines`` holds each player's baseline per trial, (trial, state);
    ``w`` the transition uniforms and ``draws`` each player's
    experimentation flags and uniform actions, (trial, stage); trial k
    starts in state ``x[k]``. :meth:`build` writes every table, and after
    a baseline changes at a pause it rewrites that trial's columns from the
    stage on, in either form.
    """

    def __init__(
        self,
        game: StochasticGame,
        baselines: list[np.ndarray],
        w: np.ndarray,
        draws: list[tuple[np.ndarray, np.ndarray]],
        x: np.ndarray,
        stack: _QStack | None,
    ) -> None:
        self.game, self.baselines, self.w, self.draws = game, baselines, w, draws
        batch, length = w.shape
        shape = (game.num_states, batch, length)
        # the action tables in the draws' narrow integer type; the rows,
        # state * J + joint action, which may not fit it, in np.intp
        self.tables = [np.empty(shape, dtype=uniform.dtype) for _, uniform in draws]
        self.rows = np.empty(shape, dtype=np.intp)
        self.lockstep = stack is not None
        if self.lockstep:
            # path[t, k] = (trial k's state at t) * B + k: the row of trial
            # k's table within one player's block of the stack; step[t, s,
            # k] the row after stage t from state s
            self.step = np.empty((length, game.num_states, batch), dtype=np.intp)
            self.path = np.empty((length + 1, batch), dtype=np.intp)
            self.path[0] = x * batch + np.arange(batch)
            # column block i of each: player i's (stage, trial) entries;
            # rows 0..A-1 of a stage's entries hold the next row in each
            # action plane, row A the entry the stage writes. Row t of
            # ``written`` holds stage t's costs until the stage writes its
            # values over them
            self.plane, self.width = stack.q[0].size, len(stack.q)
            self.entries = np.empty((length, self.width + 1, len(draws) * batch), dtype=np.intp)
            self.written = np.empty((length, len(draws) * batch))
        else:
            self.successor = np.empty(shape, dtype=np.intp)
        self.build(0, batch, 0)

    def build(self, k0: int, k1: int, u: int) -> None:
        """Write the columns of trials [k0, k1) from stage ``u`` on, under
        the current baselines."""
        game, batch, length = self.game, *self.w.shape
        trials, stages = slice(k0, k1), slice(u, None)
        for table, base, (explore, uniform) in zip(self.tables, self.baselines, self.draws):
            table[:, trials, stages] = np.where(
                explore[trials, stages],
                uniform[trials, stages],
                base[trials].T.astype(uniform.dtype)[:, :, None],
            )
        rows = self.rows[:, trials, stages]
        np.multiply(self.tables[0][:, trials, stages], game.joint_strides[0], out=rows, dtype=np.intp)
        for table, stride in zip(self.tables[1:], game.joint_strides[1:]):
            rows += np.multiply(table[:, trials, stages], stride, dtype=np.intp)
        rows += np.arange(game.num_states, dtype=np.intp)[:, None, None] * game.num_joint_actions
        successor = _inverse_cdf(game.cdf_columns, rows, self.w[trials, stages])
        if not self.lockstep:
            self.successor[:, trials, stages] = successor
            return
        self.step[stages, :, trials] = (
            successor * batch + np.arange(k0, k1)[:, None]
        ).transpose(2, 0, 1)
        step = self.step.reshape(length, -1)
        for row, now, after in zip(step[stages], self.path[u:, trials], self.path[u + 1 :, trials]):
            row.take(now, out=after, mode="clip")
        now, after = self.path[u:-1, trials], self.path[u + 1 :, trials]
        # entry (state, k, t) of a (state, trial, stage) table is flat entry
        # path[t, k] * L + t
        cells = now * length + np.arange(u, length)[:, None]
        cost_cells = self.rows.take(cells)
        span, entries = game.num_states * batch, self.entries[stages]
        for i, (table, cost) in enumerate(zip(self.tables, game.costs)):
            columns = slice(i * batch + k0, i * batch + k1)
            np.add(after, i * span, out=entries[:, 0, columns])
            for a in range(1, self.width):
                np.add(entries[:, 0, columns], a * self.plane, out=entries[:, a, columns])
            np.multiply(table.take(cells), self.plane, out=entries[:, self.width, columns], dtype=np.intp)
            entries[:, self.width, columns] += now + i * span
            self.written[stages, columns] = cost.take(cost_cells)


def _simulate(
    game: StochasticGame,
    configs: Sequence[AgentConfig],
    baselines: list[np.ndarray],
    streams: Sequence[RandomnessStreams],
    horizon: int,
    record_times: Sequence[int],
    boundaries: Sequence[Sequence[Sequence[int]]],
    record_q: bool,
) -> list[tuple[Joint, list, list, tuple[np.ndarray, ...], tuple[float, ...]]]:
    """Play ``horizon`` stages of a batch of trials in segments; per trial,
    returns its initial joint baseline, its policy changes as (t, player,
    joint in force from t), its records as (t, joint, Q snapshots or None),
    and per player its final Q table and largest |Q|. Nothing here labels
    a joint: the learners never read whether one is an equilibrium.

    Trial k has the streams ``streams[k]`` and the phase start times
    ``boundaries[k]`` (a schedule's ``boundaries``, or nothing for a run
    without policy updates); the trials share the game, the players'
    ``configs``, the horizon and the record times. ``baselines[i]`` holds
    player i's baseline of every trial, (trial, state), from its first one
    on: the run updates it in place, and it is the only copy. Every Q table
    lives on one :class:`_QStack` for the whole run. Player i of trial k
    appraises its baseline against its current table at each of its times
    after 0, players of a trial sharing a time in player order, through
    :func:`decqlearn.agent.end_phase_update`, which takes the inertia
    uniform keyed by (trial, player, time) only for a baseline that is not
    delta-greedy, so no other draw depends on it. A player experiments at
    stage t when its experimentation uniform is <= its rho. The stages up
    to the next record time or the end of the current block of draws
    (``_DRAWS`` trial-stages, at least ``_DRAWS_MIN_STAGES`` stages), at
    most ``_BLOCK`` trial-stages, form one :class:`_Segment`, whose tables
    are built with array operations; snapshots run at segment starts. Every
    baseline is frozen between two update times: play pauses at each update
    time inside a segment, runs the appraisals due there, and rebuilds the
    columns of each trial whose baseline changed from that stage on. The
    appraisals at a time run in (trial, player) order and draw the same
    keyed uniforms wherever the time falls. Between pauses the state paths
    and Q-factor recursions run stage by stage, in lockstep
    (:meth:`_QStack.play`) for a batch of ``_LOCKSTEP_MIN`` trials or more,
    else trial by trial (:meth:`_QStack.play_each`).
    A trial's draws depend only on its streams, so its outputs do not
    depend on the batch, and they equal bit for bit those of the
    stage-by-stage reference ``tests/oracles.simulate_stepwise``.
    """
    batch = len(streams)
    stack = _QStack(game, configs, batch)

    updates = sorted(
        (t, k, i)
        for k, rows in enumerate(boundaries)
        for i, row in enumerate(rows)
        for t in row[1:]
        if t < horizon
    )
    updates.append((horizon, -1, -1))
    next_update = 0
    update_times = sorted({u for u, _, _ in updates})
    lockstep = batch >= _LOCKSTEP_MIN
    times = tuple(record_times)
    if not all(_is_id(t) and 0 <= t < horizon for t in times):
        raise ValueError(f"record times must be integers in [0, horizon), got {times!r}")
    sorted_records = sorted(set(int(t) for t in times))
    sorted_records.append(horizon)
    next_record = 0

    def joint_of(k: int) -> Joint:
        return tuple(tuple(base[k].tolist()) for base in baselines)

    def tables_of(k: int) -> tuple[np.ndarray, ...]:
        return tuple(stack.table(i, k).copy() for i in range(game.num_players))

    current = [joint_of(k) for k in range(batch)]
    initial = list(current)
    events: list[list[tuple[int, int, Joint]]] = [[] for _ in range(batch)]
    records: list[list[tuple[int, Joint, tuple | None]]] = [[] for _ in range(batch)]
    generators = [
        (
            s.transition_generator(),
            [(s.experimentation_generator(i), s.action_generator(i)) for i in range(game.num_players)],
        )
        for s in streams
    ]
    x = np.array([sample_initial_state(game, s.initial_state_uniform()) for s in streams])
    segment_length = max(1, _BLOCK // batch)
    block_length = max(_DRAWS_MIN_STAGES, _DRAWS // batch)

    def appraise(now: int) -> list[int]:
        """Run the appraisals at time ``now``; returns the trials whose
        baselines changed, in order, once each."""
        nonlocal next_update
        switched: list[int] = []
        while updates[next_update][0] == now:
            _, k, i = updates[next_update]
            next_update += 1
            new = end_phase_update(
                configs[i],
                stack.table(i, k),
                baselines[i][k],
                partial(streams[k].inertia_uniform, i, now),
                partial(streams[k].policy_draw, i, now),
            )
            if new is not None:
                baselines[i][k] = new
                current[k] = joint_of(k)
                events[k].append((now, i, current[k]))
                if not switched or switched[-1] != k:
                    switched.append(k)
        return switched

    t = block_start = block_stop = 0
    while t < horizon:
        appraise(t)
        if sorted_records[next_record] == t:
            for k in range(batch):
                records[k].append((t, current[k], tables_of(k) if record_q else None))
            next_record += 1
        if t == block_stop:
            block_start, block_stop = t, min(t + block_length, horizon)
            w, draws = _draw_block(game, configs, generators, block_stop - t)

        stop = min(t + segment_length, block_stop, sorted_records[next_record])
        pauses = update_times[bisect_right(update_times, t) : bisect_left(update_times, stop)]
        a, b = t - block_start, stop - block_start
        segment = _Segment(
            game,
            baselines,
            w[:, a:b],
            [(explore[:, a:b], uniform[:, a:b]) for explore, uniform in draws],
            x,
            stack if lockstep else None,
        )
        bounds = [0, *(u - t for u in pauses), stop - t]
        for start, end in zip(bounds, bounds[1:]):
            if start:
                for k in appraise(t + start):
                    segment.build(k, k + 1, start)
            if lockstep:
                stack.play(segment.entries, segment.written, start, end)
            else:
                x = stack.play_each(game, segment.tables, segment.rows, segment.successor, x, start, end)
        if lockstep:
            x = segment.path[-1] // batch
        del segment  # its tables go before the next segment's are built
        t = stop

    return [
        (
            initial[k],
            events[k],
            records[k],
            tables_of(k),
            tuple(float(stack.max_abs_q[i * batch + k]) for i in range(game.num_players)),
        )
        for k in range(batch)
    ]


def _trials(streams: Sequence[RandomnessStreams]) -> list[RandomnessStreams]:
    """``streams`` as a list of at least one RandomnessStreams, one per trial;
    a lone one, which is not iterable, is a ValueError naming ``streams``."""
    try:
        trials = list(streams)
    except TypeError:
        raise ValueError(f"streams must be a sequence of RandomnessStreams, got {streams!r}") from None
    if not trials:
        raise ValueError("need at least one trial")
    return trials


def run_episodes(
    game: StochasticGame,
    configs: Sequence[AgentConfig],
    schedules: Sequence[Schedule],
    streams: Sequence[RandomnessStreams],
    horizon: int,
    record_times: Sequence[int] = (),
    *,
    record_q: bool = False,
) -> list[SimulationTrace]:
    """Play ``horizon`` stages of the asynchronous stage-game loop (see
    :func:`_simulate`) for a batch of trials, trial k with ``schedules[k]``
    and ``streams[k]``; returns one trace per trial. A trial draws only from
    its own streams, so its trace does not depend on the batch it runs in:
    ``(trace,) = run_episodes(game, configs, [schedule], [streams],
    horizon)`` gives it byte for byte.

    The joints are labelled after play, the distinct ones of the whole batch
    at once, by :func:`decqlearn.exact_solver.label_equilibria` at tol 1e-9,
    which solves only the opponent joints the trials visited, by policy
    iteration, and agrees with membership in
    ``ExactAnalysis(game, 1e-9).equilibria`` except where a Q-gap lies
    within solver error of the 1e-9 slack. Nothing warns on a game whose
    state graph is not strongly connected (``check_reachability`` tells)."""
    horizon = _check("count", "horizon", horizon)
    streams = _trials(streams)
    if not isinstance(schedules, Sequence) or len(schedules) != len(streams):
        raise ValueError("need one schedule per trial and at least one trial")
    for schedule in schedules:
        if schedule.num_players != game.num_players:
            raise ValueError("schedule and game disagree on the number of players")
        if not schedule.covers(horizon):
            raise ValueError("schedule does not cover the horizon")

    results = _simulate(
        game,
        configs,
        _first_baselines(game, configs, streams),
        streams,
        horizon,
        record_times,
        boundaries=[schedule.boundaries for schedule in schedules],
        record_q=record_q,
    )
    joints = list(
        dict.fromkeys(
            joint for initial, events, *_ in results for joint in [initial, *(e[2] for e in events)]
        )
    )
    label = dict(zip(joints, label_equilibria(game, joints, 1e-9)))
    return [
        SimulationTrace(
            master_seed=s.master_seed,
            trial=s.trial,
            horizon=horizon,
            schedule=schedule,
            initial_joint=initial,
            initial_at_equilibrium=label[initial],
            events=tuple(PolicyChange(t, i, joint, label[joint]) for t, i, joint in events),
            records=tuple(
                TraceRecord(t, joint, label[joint], snapshots) for t, joint, snapshots in records
            ),
            max_abs_q=max_abs_q,
        )
        for s, schedule, (initial, events, records, _, max_abs_q) in zip(
            streams, schedules, results
        )
    ]


def frozen_q_run(
    game: StochasticGame,
    configs: Sequence[AgentConfig],
    frozen_joint: Sequence[Sequence[int]],
    streams: Sequence[RandomnessStreams],
    steps: int,
) -> list[list[QTable]]:
    """Play ``steps`` stages of the stage-game loop with policy updates
    disabled, one trial per entry of ``streams``, as one batch.

    The baselines are pinned to ``frozen_joint`` for the whole run, realizing
    the hypothetical Q-factor trajectory driven by each trial's own
    primitive streams; returns, per trial, each player's final Q-table. As in
    :func:`run_episodes`, a trial's tables do not depend on the batch.
    """
    steps = _check("count", "steps", steps)
    if len(frozen_joint) != game.num_players:
        raise ValueError("frozen_joint needs one policy per player")
    streams = _trials(streams)
    results = _simulate(
        game,
        configs,
        _first_baselines(game, configs, streams, frozen_joint),
        streams,
        steps,
        record_times=(),
        boundaries=[()] * len(streams),
        record_q=False,
    )
    return [[QTable(i, q) for i, q in enumerate(final)] for _, _, _, final, _ in results]


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
