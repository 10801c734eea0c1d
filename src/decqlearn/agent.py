"""One player's learner: its parameters and the phase-end appraisal.

During an exploration phase the player runs constant-step Q-learning on its
own (state, action) table while following its baseline deterministic policy
mixed with uniform experimentation; the episode executor holds the table
and the baseline and applies the update. At each phase boundary
:func:`end_phase_update` re-appraises the baseline: if the baseline is
delta-greedy for the current table it is kept; otherwise it is kept with the
inertia probability and replaced by a uniform draw from the delta-greedy set
otherwise. Randomness is injected by the caller as draw callables, so a run
is a pure function of the supplied draws. The inertia uniform is drawn only
for a baseline that is not delta-greedy; the episode executor keys it by
(trial, player, time), so skipping it changes no other draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exact_solver import QTable, _greedy_mask
from .game_model import DeterministicPolicy, _check, _player_id

__all__ = ["AgentConfig", "end_phase_update"]

# Draws a policy uniformly from a product set encoded as per-state tuples of
# allowed action ids; supplied by the episode driver.
SubsetDraw = Callable[[tuple[tuple[int, ...], ...]], Sequence[int]]


@dataclass(frozen=True)
class AgentConfig:
    """Hyperparameters for one learner.

    ``player`` is an integer id (not a bool), nonnegative.
    ``rho`` (experimentation), ``lam`` (inertia), and ``alpha`` (step size)
    are real numbers in (0, 1); ``delta`` (greedy tolerance) is a finite
    positive real. Each goes through its rule in ``game_model._RULES``, so a
    string, a bool or a NaN is a ValueError naming the field, and is held as
    the Python number it equals.
    ``initial_policy`` may be None, meaning the episode driver draws one
    uniformly; ``initial_q`` defaults to the all-zero table. An
    ``initial_policy``, and an ``initial_q`` given as a ``QTable``, must
    belong to ``player``.
    """

    player: int
    rho: float
    lam: float
    delta: float
    alpha: float
    initial_policy: DeterministicPolicy | None = None
    initial_q: np.ndarray | QTable | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "player", _player_id(self.player))
        for name in ("rho", "lam", "alpha", "delta"):
            kind = "positive" if name == "delta" else "unit"
            object.__setattr__(self, name, _check(kind, name, getattr(self, name)))
        if self.initial_policy is not None and self.initial_policy.player != self.player:
            raise ValueError("initial_policy belongs to a different player")
        if isinstance(self.initial_q, QTable) and self.initial_q.player != self.player:
            raise ValueError("initial_q belongs to a different player")
        if self.initial_q is not None:
            raw = self.initial_q.values if isinstance(self.initial_q, QTable) else self.initial_q
            q = np.asarray(raw, dtype=np.float64)
            if not np.all(np.isfinite(q)):
                raise ValueError("initial_q must be finite")
            object.__setattr__(self, "initial_q", q)


def end_phase_update(
    config: AgentConfig,
    q: np.ndarray,
    baseline: Sequence[int],
    inertia_draw: Callable[[], float],
    subset_draw: SubsetDraw,
) -> tuple[int, ...] | None:
    """Phase-boundary appraisal of a player's ``baseline`` (an action per
    state) against its current Q table ``q``, (state, action); returns the
    new baseline if it changed, else None.

    Keeps a ``config.delta``-greedy baseline unconditionally, without
    calling ``inertia_draw``; otherwise calls it once for the inertia
    uniform, keeps the baseline when that is ``< config.lam`` and else
    replaces it with the supplied uniform draw from the realized
    delta-greedy set.
    """
    greedy = _greedy_mask(q, config.delta)
    if greedy[np.arange(len(baseline)), baseline].all() or inertia_draw() < config.lam:
        return None
    candidate = tuple(subset_draw(tuple(tuple(np.flatnonzero(row).tolist()) for row in greedy)))
    return None if candidate == tuple(baseline) else candidate
