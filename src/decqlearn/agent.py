"""One player's learning state machine.

During an exploration phase the agent runs constant-step Q-learning on its
own (state, action) table while following its baseline deterministic policy
mixed with uniform experimentation. At each phase boundary it re-appraises
the baseline: if the baseline is delta-greedy for the current table it is
kept; otherwise it is kept with the inertia probability and replaced by a
uniform draw from the delta-greedy set otherwise. Randomness is injected by
the caller, so a run is a pure function of the supplied draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exact_solver import QTable
from .game_model import DeterministicPolicy

__all__ = ["AgentConfig", "Agent"]

# Draws a policy uniformly from a product set encoded as per-state tuples of
# allowed action ids; supplied by the episode driver.
SubsetDraw = Callable[[tuple[tuple[int, ...], ...]], Sequence[int]]


@dataclass(frozen=True)
class AgentConfig:
    """Hyperparameters for one learner.

    ``rho`` (experimentation), ``lam`` (inertia), and ``alpha`` (step size)
    must lie in (0, 1); ``delta`` (greedy tolerance) must be finite and
    positive.
    ``initial_policy`` may be None, meaning the episode driver draws one
    uniformly; ``initial_q`` defaults to the all-zero table.
    """

    player: int
    rho: float
    lam: float
    delta: float
    alpha: float
    initial_policy: DeterministicPolicy | None = None
    initial_q: np.ndarray | QTable | None = None

    def __post_init__(self) -> None:
        if self.player < 0:
            raise ValueError("player id must be nonnegative")
        for name in ("rho", "lam", "alpha"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in the open interval (0, 1), got {value}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be finite and positive, got {self.delta}")
        if self.initial_policy is not None and self.initial_policy.player != self.player:
            raise ValueError("initial_policy belongs to a different player")
        if self.initial_q is not None:
            raw = self.initial_q.values if isinstance(self.initial_q, QTable) else self.initial_q
            q = np.asarray(raw, dtype=np.float64)
            if not np.all(np.isfinite(q)):
                raise ValueError("initial_q must be finite")
            object.__setattr__(self, "initial_q", q)


class Agent:
    """Mutable learner driven by an episode executor: Q-learning along each
    stretch of play between phase boundaries (:meth:`learn`), then the
    policy appraisal at the boundary (:meth:`end_phase_update`). The agent
    keeps no clock: the executor plays the softened baseline and calls the
    appraisal at the player's boundary times from the schedule. An executor
    playing many trials in lockstep keeps the tables in its own stack and
    applies the same update there; it writes a table into :attr:`q` before
    each appraisal and at the end of the run.

    The constructor takes raw scalars so degenerate settings (rho = 0,
    alpha = 1) remain reachable for diagnostics; configured runs go through
    :meth:`from_config`, which enforces the AgentConfig ranges.
    """

    __slots__ = (
        "player",
        "rho",
        "lam",
        "delta",
        "alpha",
        "discount",
        "num_states",
        "num_actions",
        "q",
        "baseline",
        "max_abs_q",
    )

    def __init__(
        self,
        player: int,
        rho: float,
        lam: float,
        delta: float,
        alpha: float,
        discount: float,
        baseline: Sequence[int],
        initial_q: np.ndarray | None,
    ) -> None:
        self.player = player
        self.rho = rho
        self.lam = lam
        self.delta = delta
        self.alpha = alpha
        self.discount = discount
        self.baseline = list(baseline)
        self.num_states = len(self.baseline)
        if initial_q is None:
            raise ValueError("initial_q is required here; from_config fills in zeros")
        q = np.asarray(initial_q, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != self.num_states:
            raise ValueError("initial_q must be a (num_states, num_actions) array")
        self.num_actions = q.shape[1]
        self.q = [list(map(float, row)) for row in q]
        self.max_abs_q = max((abs(v) for row in self.q for v in row), default=0.0)

    @classmethod
    def from_config(
        cls,
        config: AgentConfig,
        num_states: int,
        num_actions: int,
        discount: float,
        baseline: Sequence[int] | None = None,
    ) -> "Agent":
        if baseline is None:
            if config.initial_policy is None:
                raise ValueError("no baseline policy: config has none and none was drawn")
            baseline = config.initial_policy.choice
        if len(baseline) != num_states:
            raise ValueError("baseline must choose an action in every state")
        if any(not 0 <= a < num_actions for a in baseline):
            raise ValueError("baseline contains an invalid action id")
        initial_q = config.initial_q
        if initial_q is None:
            initial_q = np.zeros((num_states, num_actions))
        elif initial_q.shape != (num_states, num_actions):
            raise ValueError("initial_q has the wrong shape for this game")
        return cls(
            player=config.player,
            rho=config.rho,
            lam=config.lam,
            delta=config.delta,
            alpha=config.alpha,
            discount=discount,
            baseline=baseline,
            initial_q=initial_q,
        )

    def learn(
        self,
        states: Sequence[int],
        actions: Sequence[int],
        costs: Sequence[float],
        next_states: Sequence[int],
    ) -> None:
        """Constant-step Q-learning updates along a path of transitions, one
        entry (states[k], actions[k]) per step, in order. The per-trial form
        of the update; ``orchestrator._QStack.play`` is the lockstep form, with
        the same float operations in the same order."""
        q = self.q
        alpha = self.alpha
        beta = self.discount
        max_abs_q = self.max_abs_q
        for x, u, c, x_next in zip(states, actions, costs, next_states):
            value = (1.0 - alpha) * q[x][u] + alpha * (c + beta * min(q[x_next]))
            q[x][u] = value
            magnitude = value if value >= 0.0 else -value
            if magnitude > max_abs_q:
                max_abs_q = magnitude
        self.max_abs_q = max_abs_q

    def greedy_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per state, the actions within delta of the best current Q-value."""
        delta = self.delta
        out = []
        for row in self.q:
            cutoff = min(row) + delta
            out.append(tuple(a for a, v in enumerate(row) if v <= cutoff))
        return tuple(out)

    def baseline_is_greedy(self) -> bool:
        for x, row in enumerate(self.q):
            if row[self.baseline[x]] > min(row) + self.delta:
                return False
        return True

    def end_phase_update(self, lambda_draw: float, subset_draw: SubsetDraw) -> bool:
        """Phase-boundary policy appraisal; returns True iff the baseline
        changed.

        Keeps a delta-greedy baseline unconditionally; otherwise keeps it
        when ``lambda_draw < lam`` (inertia) and else replaces it with the
        supplied uniform draw from the realized delta-greedy set.
        """
        changed = False
        if not self.baseline_is_greedy():
            if not lambda_draw < self.lam:
                candidate = list(subset_draw(self.greedy_sets()))
                changed = candidate != self.baseline
                self.baseline = candidate
        return changed
