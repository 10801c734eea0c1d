"""One player's learner: its parameters, its baseline and the phase-end
appraisal.

During an exploration phase the player runs constant-step Q-learning on its
own (state, action) table while following its baseline deterministic policy
mixed with uniform experimentation; the episode executor holds that table
and applies the update. At each phase boundary the agent re-appraises the
baseline: if the baseline is delta-greedy for the current table it is
kept; otherwise it is kept with the inertia probability and replaced by a
uniform draw from the delta-greedy set otherwise. Randomness is injected by
the caller, so a run is a pure function of the supplied draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exact_solver import QTable, _greedy_mask
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
    """One learner's parameters, its baseline policy and its initial Q table,
    driven by an episode executor. The executor holds the running Q tables
    (``orchestrator._QStack``) and applies the Q-learning update along each
    stretch of play; at the player's phase boundaries it hands the current
    table to :meth:`end_phase_update`, the policy appraisal. The agent keeps
    no clock.

    The constructor takes raw scalars so degenerate settings (rho = 0,
    alpha = 1) remain reachable for diagnostics; configured runs go through
    :meth:`from_config`, which enforces the AgentConfig ranges.
    """

    __slots__ = ("player", "rho", "lam", "delta", "alpha", "discount", "baseline", "initial_q")

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
        if initial_q is None:
            raise ValueError("initial_q is required here; from_config fills in zeros")
        q = np.asarray(initial_q, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != len(self.baseline):
            raise ValueError("initial_q must be a (num_states, num_actions) array")
        self.initial_q = q

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

    def end_phase_update(
        self, q: np.ndarray, lambda_draw: float, subset_draw: SubsetDraw
    ) -> bool:
        """Phase-boundary policy appraisal against the current Q table ``q``,
        (state, action); returns True iff the baseline changed.

        Keeps a delta-greedy baseline unconditionally; otherwise keeps it
        when ``lambda_draw < lam`` (inertia) and else replaces it with the
        supplied uniform draw from the realized delta-greedy set.
        """
        greedy = _greedy_mask(q, self.delta)
        if greedy[np.arange(len(self.baseline)), self.baseline].all() or lambda_draw < self.lam:
            return False
        candidate = list(subset_draw(tuple(tuple(np.flatnonzero(row).tolist()) for row in greedy)))
        changed = candidate != self.baseline
        self.baseline = candidate
        return changed
