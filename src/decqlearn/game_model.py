"""Finite stochastic games: data types, validation, and the noise-driven
transition mechanism.

A game couples N players, a finite state set, per-player finite action sets,
per-player stage-cost tensors, per-player discount factors, a transition
kernel over (state, joint action), and an initial state distribution.

Joint actions are indexed in row-major order of player index: player 0 is the
most significant digit, so for action counts (m0, ..., m_{N-1}) the joint
index of (a0, ..., a_{N-1}) is a0 * m1 * ... * m_{N-1} + ... + a_{N-1}.
The JSON game format (see ``game_to_dict``) uses the same ordering.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "StochasticGame",
    "DeterministicPolicy",
    "StationaryPolicy",
    "JointDeterministicPolicy",
    "validate_game",
    "soften_policy",
    "sample_transition",
    "sample_initial_state",
    "enumerate_deterministic_policies",
    "game_to_dict",
    "game_from_dict",
    "save_game",
    "load_game",
]

_SUM_TOL = 1e-12


def _require_finite(name: str, arr: np.ndarray) -> None:
    """Refuse an array with a NaN or infinite entry, naming the first one."""
    if not np.isfinite(arr).all():
        at = tuple(np.argwhere(~np.isfinite(arr))[0].tolist())
        raise ValueError(f"{name}{list(at)} is {float(arr[at])!r}, must be finite")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StochasticGame:
    """Immutable description of a finite discounted stochastic game.

    Shapes: ``costs[i]`` is (num_states, num_joint_actions); ``kernel`` is
    (num_states, num_joint_actions, num_states); ``initial_dist`` is
    (num_states,). Structural (shape) errors raise at construction; numeric
    invariants are checked by :func:`validate_game`.
    """

    states: tuple[str, ...]
    action_sets: tuple[tuple[str, ...], ...]
    costs: tuple[np.ndarray, ...]
    discounts: tuple[float, ...]
    kernel: np.ndarray
    initial_dist: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        object.__setattr__(
            self, "action_sets", tuple(tuple(str(a) for a in acts) for acts in self.action_sets)
        )
        n = len(self.action_sets)
        if n < 1:
            raise ValueError("game needs at least one player")
        if not self.states:
            raise ValueError("game needs at least one state")
        if any(len(acts) < 1 for acts in self.action_sets):
            raise ValueError("every player needs at least one action")
        object.__setattr__(self, "costs", tuple(_readonly(c) for c in self.costs))
        object.__setattr__(self, "discounts", tuple(float(b) for b in self.discounts))
        object.__setattr__(self, "kernel", _readonly(self.kernel))
        object.__setattr__(self, "initial_dist", _readonly(self.initial_dist))

        s, a = self.num_states, self.num_joint_actions
        if len(self.costs) != n or len(self.discounts) != n:
            raise ValueError("costs and discounts must have one entry per player")
        for i, c in enumerate(self.costs):
            if c.shape != (s, a):
                raise ValueError(f"costs[{i}] has shape {c.shape}, expected {(s, a)}")
        if self.kernel.shape != (s, a, s):
            raise ValueError(f"kernel has shape {self.kernel.shape}, expected {(s, a, s)}")
        if self.initial_dist.shape != (s,):
            raise ValueError(f"initial_dist has shape {self.initial_dist.shape}, expected {(s,)}")

    @property
    def num_players(self) -> int:
        return len(self.action_sets)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @cached_property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(acts) for acts in self.action_sets)

    @cached_property
    def num_joint_actions(self) -> int:
        out = 1
        for count in self.action_counts:
            out *= count
        return out

    @cached_property
    def joint_strides(self) -> tuple[int, ...]:
        """Multipliers turning a joint action tuple into its flat index."""
        counts = self.action_counts
        strides = [1] * len(counts)
        for i in range(len(counts) - 2, -1, -1):
            strides[i] = strides[i + 1] * counts[i + 1]
        return tuple(strides)

    def joint_index(self, actions: Sequence[int]) -> int:
        """Flat index of a joint action tuple (player 0 most significant)."""
        if len(actions) != self.num_players:
            raise ValueError("joint action needs one entry per player")
        idx = 0
        for a, count, stride in zip(actions, self.action_counts, self.joint_strides):
            if not 0 <= a < count:
                raise ValueError(f"action id {a} out of range")
            idx += a * stride
        return idx

    def joint_tuple(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`joint_index`."""
        if not 0 <= index < self.num_joint_actions:
            raise ValueError(f"joint action index {index} out of range")
        out = []
        for stride, count in zip(self.joint_strides, self.action_counts):
            out.append((index // stride) % count)
        return tuple(out)

    @cached_property
    def cdf_columns(self) -> np.ndarray:
        """The kernel's inverse-CDF table (see :func:`_cdf_columns`), shape
        (num_states - 1, num_states * num_joint_actions): entry (j, state *
        num_joint_actions + joint action) for next-state j."""
        columns = _cdf_columns(self.kernel)
        return _readonly(columns.reshape(len(columns), self.num_states * self.num_joint_actions))


def _is_id(a: object) -> bool:
    """The one rule for an integer input (an action or player id, a seed, a
    trial index, a length or a count): a Python or numpy integer, not a bool
    and not a float."""
    return isinstance(a, (int, np.integer)) and not isinstance(a, bool)


def _is_real(a: object) -> bool:
    """The one rule for a real input (a rate, a tolerance): a Python or numpy
    real number, integers included, not a bool."""
    return isinstance(a, numbers.Real) and not isinstance(a, bool)


# The range of each kind of scalar input: (test, wording for the error).
# "unit" holds a learner's rates and eps, "rho" an analysis's experimentation
# (0 allowed: no softening), "probability" the rho of ``soften_policy`` (1 too:
# uniform play) and a uniform w, "chance" the inertia floor p_min,
# "nonnegative" a greedy slack eps, "positive" a tolerance such as tol, delta
# or theta.
_RULES = {
    "count": (lambda v: _is_id(v) and v >= 1, "be a positive integer"),
    "index": (lambda v: _is_id(v) and v >= 0, "be a nonnegative integer"),
    "seed": (lambda v: _is_id(v) and 0 <= v < 2**64, "be a 64-bit unsigned integer"),
    "unit": (lambda v: _is_real(v) and 0.0 < v < 1.0, "lie in (0, 1)"),
    "rho": (lambda v: _is_real(v) and 0.0 <= v < 1.0, "lie in [0, 1)"),
    "probability": (lambda v: _is_real(v) and 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "chance": (lambda v: _is_real(v) and 0.0 < v <= 1.0, "lie in (0, 1]"),
    "nonnegative": (lambda v: _is_real(v) and v >= 0.0, "be nonnegative"),
    "positive": (lambda v: _is_real(v) and 0.0 < v < math.inf, "be finite and positive"),
}


def _check(kind: str, name: str, value):
    """The one range check of a scalar input: ``value`` passes the rule of
    ``kind`` in ``_RULES``, else a ValueError "{name} must {wording}, got
    {value!r}". Returns ``value`` as the Python number it equals (``item()``
    of a numpy scalar), so that no numpy type reaches a result."""
    test, wording = _RULES[kind]
    if not test(value):
        raise ValueError(f"{name} must {wording}, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def _action_ids(choice: Iterable) -> tuple[int, ...]:
    """``choice`` as Python ints; an entry that is not an id (see
    :func:`_is_id`) is a ValueError naming it."""
    choice = tuple(choice)
    for a in choice:
        if not _is_id(a):
            raise ValueError(f"action id {a!r} is not an integer")
    return tuple(int(a) for a in choice)


def _player_id(player: object) -> int:
    """``player`` as a Python int; a value that is not an id (see
    :func:`_is_id`) or is negative is a ValueError naming it."""
    if not _is_id(player):
        raise ValueError(f"player id {player!r} is not an integer")
    if player < 0:
        raise ValueError(f"player id {player!r} must be nonnegative")
    return int(player)


def _choice_for(game: StochasticGame, player: int, choice: Iterable) -> tuple[int, ...]:
    """The one rule for a choice tuple: ``choice`` as Python ints, one action
    id (see :func:`_action_ids`) in range for ``player`` per state of the
    game; anything else is a ValueError naming the fault."""
    if not 0 <= player < game.num_players:
        raise ValueError(f"player id {player} out of range")
    choice = _action_ids(choice)
    if len(choice) != game.num_states:
        raise ValueError(
            f"player {player}'s policy must choose an action in every state: "
            f"{len(choice)} action ids for {game.num_states} states"
        )
    count = game.action_counts[player]
    for x, a in enumerate(choice):
        if not 0 <= a < count:
            raise ValueError(f"action id {a} invalid for player {player} in state {x}")
    return choice


@dataclass(frozen=True)
class DeterministicPolicy:
    """One player's deterministic stationary policy: a total map
    state index -> action id."""

    player: int
    choice: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "player", _player_id(self.player))
        object.__setattr__(self, "choice", _action_ids(self.choice))
        if any(a < 0 for a in self.choice):
            raise ValueError("action ids must be nonnegative")


@dataclass(frozen=True)
class StationaryPolicy:
    """One player's stationary randomized policy: per state, a probability
    vector over that player's actions."""

    player: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "player", _player_id(self.player))
        object.__setattr__(self, "probs", _readonly(self.probs))
        if self.probs.ndim != 2:
            raise ValueError("probs must be a (num_states, num_actions) array")
        _require_finite("probs", self.probs)
        if not (np.abs(self.probs.sum(axis=1) - 1.0) <= _SUM_TOL).all():
            raise ValueError("every probability row must sum to 1")
        if np.any(self.probs < 0.0):
            raise ValueError("probabilities must be nonnegative")


@dataclass(frozen=True)
class JointDeterministicPolicy:
    """A deterministic policy for every player, ordered by player id."""

    policies: tuple[DeterministicPolicy, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "policies", tuple(self.policies))
        for i, pol in enumerate(self.policies):
            if pol.player != i:
                raise ValueError("policies must be ordered by player id, one per player")

    @property
    def choices(self) -> tuple[tuple[int, ...], ...]:
        """Nested-tuple encoding, convenient as a dict key."""
        return tuple(pol.choice for pol in self.policies)

    @staticmethod
    def from_choices(choices: Sequence[Sequence[int]]) -> "JointDeterministicPolicy":
        return JointDeterministicPolicy(
            tuple(DeterministicPolicy(i, tuple(c)) for i, c in enumerate(choices))
        )


def validate_game(game: StochasticGame) -> list[str]:
    """Check the numeric invariants of a game; returns violations as data.

    An empty list means the game is valid. Each violation names the offending
    player/state/joint-action. A sum that is NaN or infinite is a violation.
    """
    violations: list[str] = []
    for i, beta in enumerate(game.discounts):
        if not 0.0 <= beta < 1.0:
            violations.append(f"discount for player {i} is {beta}, must lie in [0, 1)")
    for i, c in enumerate(game.costs):
        if not np.all(np.isfinite(c)):
            bad = np.argwhere(~np.isfinite(c))[0]
            violations.append(
                f"cost for player {i} is not finite at state {game.states[bad[0]]}, "
                f"joint action {game.joint_tuple(int(bad[1]))}"
            )
    negative = (game.kernel < 0.0).any(axis=2)
    sums = game.kernel.sum(axis=2)
    # not <=, so that a NaN sum is a violation too
    off = ~(np.abs(sums - 1.0) <= _SUM_TOL)
    for s, ja in np.argwhere(negative | off).tolist():
        row = f"kernel row (state {game.states[s]}, joint action {game.joint_tuple(ja)})"
        if negative[s, ja]:
            violations.append(f"{row} has a negative entry")
        if off[s, ja]:
            violations.append(f"{row} sums to {float(sums[s, ja])!r}, expected 1")
    total = float(game.initial_dist.sum())
    if np.any(game.initial_dist < 0.0):
        violations.append("initial_dist has a negative entry")
    if not abs(total - 1.0) <= _SUM_TOL:
        violations.append(f"initial_dist sums to {total!r}, expected 1")
    return violations


def _softened(choice: np.ndarray, rho, m: int) -> np.ndarray:
    """The one softening rule, rho / m + [a == choice] * (1 - rho) for the m
    actions a on a new last axis, ``rho`` broadcast against the int ``choice``."""
    return rho / m + (choice[..., None] == np.arange(m)) * (1.0 - rho)


def soften_policy(policy: DeterministicPolicy, rho: float, num_actions: int) -> StationaryPolicy:
    """Mix a deterministic policy with uniform experimentation (``_softened``).

    The result plays the chosen action with probability (1 - rho) + rho / m
    and every other action with probability rho / m, where m = num_actions.
    """
    rho = _check("probability", "rho", rho)
    _check("count", "num_actions", num_actions)
    for a in policy.choice:
        if not 0 <= a < num_actions:
            raise ValueError(f"action id {a} out of range for {num_actions} actions")
    return StationaryPolicy(policy.player, _softened(np.array(policy.choice), rho, num_actions))


def _cdf_columns(masses: np.ndarray) -> np.ndarray:
    """The inverse-CDF table of the distributions along the last axis of
    ``masses`` (n outcomes each), that axis moved first and its last entry
    dropped, (n - 1, ...): entry j is the cumulative mass of outcomes 0..j,
    or +inf from the last outcome of positive mass on.

    The draw for w in [0, 1] is the count of a distribution's entries <= w:
    the first outcome whose cumulative mass strictly exceeds w (as
    ``bisect_right`` would return), and the last outcome of positive mass
    for w at the very top of the CDF, as the cumulative mass past that
    outcome only adds zeros."""
    n = masses.shape[-1]
    cumulative = np.cumsum(masses, axis=-1)
    last_positive = n - 1 - (masses[..., ::-1] > 0.0).argmax(axis=-1)
    cumulative[np.arange(n) >= last_positive[..., None]] = np.inf
    return np.moveaxis(cumulative[..., :-1], -1, 0).copy()


def _inverse_cdf(columns: np.ndarray, row: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per entry of ``w``, the draw from distribution ``row`` (broadcasting
    with ``w``) of the inverse-CDF table ``columns`` (see
    :func:`_cdf_columns`), flattened after its first axis: the count of
    entries <= w, one column gathered and compared at a time."""
    below = np.zeros(np.broadcast_shapes(row.shape, w.shape), dtype=np.intp)
    for column in columns:
        below += column.take(row) <= w
    return below[()]


def _check_ids(name: str, ids: object, stop: int) -> np.ndarray:
    """``ids`` as an array with every entry in [0, stop) (an empty array
    passes): an id (see :func:`_is_id`) or an array of integer dtype."""
    array = np.asarray(ids)
    if not (array.dtype.kind in "iu" or _is_id(ids)):
        raise ValueError(f"{name} must be an integer or an integer array, got {ids!r}")
    if array.size and not 0 <= array.min() <= array.max() < stop:
        raise ValueError(f"{name} {array} out of range")
    return array


def sample_transition(
    game: StochasticGame,
    state: int | np.ndarray,
    joint_action: int | np.ndarray,
    w: float | np.ndarray,
) -> int | np.ndarray:
    """Deterministic inverse-CDF next-state selection.

    Returns the first next-state whose cumulative kernel mass strictly
    exceeds ``w``; ``w`` exactly at the top of the CDF maps to the last state
    of positive mass. Under w ~ Unif[0, 1] the induced law is the kernel row.
    The arguments may be integers and a float or arrays that broadcast
    together; the result is an integer or an array of that shape. An id
    that is not an integer or a w that is not real (a bool is neither) is a
    ValueError naming it, as is one out of range. The
    cumulative masses are gathered from :attr:`StochasticGame.cdf_columns`
    by the flat (state, joint action) row, one next-state column at a time.
    """
    state = _check_ids("state id", state, game.num_states)
    joint_action = _check_ids("joint action index", joint_action, game.num_joint_actions)
    if np.ndim(w) == 0 and not isinstance(w, np.ndarray):
        w = _check("probability", "w", w)
    w = np.asarray(w)
    if w.dtype.kind not in "iuf":
        raise ValueError(f"w must be a real number or a real array, got {w!r}")
    if w.size and not 0.0 <= w.min() <= w.max() <= 1.0:
        raise ValueError(f"w must lie in [0, 1], got {w}")
    row = np.add(np.multiply(state, game.num_joint_actions, dtype=np.intp), joint_action)
    return _inverse_cdf(game.cdf_columns, row, w)


def sample_initial_state(game: StochasticGame, w: float) -> int:
    """Inverse-CDF draw from the initial state distribution, with the same
    tie rule as :func:`sample_transition`."""
    w = _check("probability", "w", w)
    return int(_inverse_cdf(_cdf_columns(game.initial_dist)[:, None], np.intp(0), np.asarray(w)))


def enumerate_deterministic_policies(num_states: int, num_actions: int) -> list[tuple[int, ...]]:
    """All choice tuples (one action id per state), lexicographic order."""
    return list(itertools.product(range(num_actions), repeat=num_states))


def game_to_dict(game: StochasticGame, players: Iterable[str] | None = None) -> dict:
    """JSON-ready description. Joint-action columns follow the row-major
    player-0-most-significant order documented in the module docstring."""
    names = list(players) if players is not None else [f"p{i}" for i in range(game.num_players)]
    if len(names) != game.num_players:
        raise ValueError("need one player name per player")
    for k, name in enumerate(names):
        if not isinstance(name, str):
            raise ValueError(f"players[{k}] must be a string, got {name!r}")
    return {
        "players": names,
        "states": list(game.states),
        "actions": [list(acts) for acts in game.action_sets],
        "discounts": list(game.discounts),
        "costs": [c.tolist() for c in game.costs],
        "kernel": game.kernel.tolist(),
        "initial_dist": game.initial_dist.tolist(),
    }


def game_from_dict(data: dict) -> StochasticGame:
    """Inverse of :func:`game_to_dict`; raises ValueError on malformed input."""
    if not isinstance(data, dict):
        raise ValueError(f"game description must be a JSON object, got {type(data).__name__}")
    try:
        players = data["players"]
        states = data["states"]
        actions = data["actions"]
        discounts = data["discounts"]
        costs = data["costs"]
        kernel = data["kernel"]
        initial = data["initial_dist"]
    except KeyError as exc:
        raise ValueError(f"game description is missing key {exc.args[0]!r}") from None
    try:
        # A string is iterable, so it would be read one character per name.
        named = [("players", players), ("states", states), ("actions", actions)]
        named += [(f"actions[{i}]", a) for i, a in enumerate(actions)]
        for key, names in named:
            if isinstance(names, str):
                raise ValueError(f"{key} must be a list of names, got the string {names!r}")
        # Each name is a string (``actions`` itself holds lists): StochasticGame
        # would str() any other, so a JSON true would become the name 'True'.
        for key, names in named[:2] + named[3:]:
            for k, name in enumerate(names):
                if not isinstance(name, str):
                    raise ValueError(f"{key}[{k}] must be a string, got {name!r}")
        if len(actions) != len(players) or len(discounts) != len(players) or len(costs) != len(players):
            raise ValueError("actions, discounts, and costs must have one entry per player")
        return StochasticGame(
            states=tuple(states),
            action_sets=tuple(tuple(a) for a in actions),
            costs=tuple(_numbers(f"costs[{i}]", c) for i, c in enumerate(costs)),
            discounts=tuple(_numbers("discounts", discounts).tolist()),
            kernel=_numbers("kernel", kernel),
            initial_dist=_numbers("initial_dist", initial),
        )
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed game description: {exc}") from exc


def _numbers(key: str, value) -> np.ndarray:
    """``value``, a number or nested lists of numbers, as a float64 array;
    an entry that is not a real number (see :func:`_is_real`: a bool, a
    string, a null or a list out of place) is a ValueError naming ``key``."""
    entries = np.asarray(value, dtype=object)
    # JSON's numbers are int and float: one pass over the entries' types
    # clears them, and any other type has its entries checked one by one
    if not {int, float}.issuperset(map(type, entries.flat)):
        for entry in entries.flat:
            if not _is_real(entry):
                raise ValueError(f"{key} must hold numbers only, got {entry!r}")
    return entries.astype(np.float64)


def save_game(game: StochasticGame, path: str | Path, players: Iterable[str] | None = None) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game, players), indent=2) + "\n")


def load_game(path: str | Path) -> StochasticGame:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read game file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"game file {path} is not valid JSON: {exc}") from exc
    return game_from_dict(data)
