"""Structural analysis of the deterministic joint-policy space.

The strict best-response graph is held by ``exact_solver.ExactAnalysis`` as
arrays: nodes are deterministic joint policies, and an edge changes exactly
one player's policy to a different 0-best-response. A game is weakly acyclic
when every node has a path into the (nonempty) equilibrium set; the
certificate also yields the shortest-path profile used by the convergence
diagnostics: the path bound L, the inertia floor p_min, and the theta/xi
tolerance split (``solve_theta``, then ``xi_bound``). ``BrGraph``
(``build_br_graph``) is a view of those arrays for tools that want the graph
itself.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .exact_solver import (
    DEFAULT_SOLVE_BUDGET,
    ExactAnalysis,
    check_input,
    check_per_player,
)
from .game_model import JointDeterministicPolicy, StochasticGame, _check

__all__ = [
    "BrGraph",
    "build_br_graph",
    "is_weakly_acyclic",
    "path_bound_L",
    "p_min",
    "solve_theta",
    "xi_bound",
]


class _Nodes(Sequence):
    """The nodes of a ``BrGraph``, the joint policies in flat order: a
    read-only sequence that decodes a node (``ExactAnalysis.choices``) and
    builds its ``JointDeterministicPolicy`` only when it is read."""

    def __init__(self, analysis: ExactAnalysis) -> None:
        self._analysis = analysis
        self._len = len(analysis.path_len)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k) -> JointDeterministicPolicy:
        k = operator.index(k)
        if not -self._len <= k < self._len:
            raise IndexError(f"node {k} out of range for {self._len} nodes")
        return JointDeterministicPolicy.from_choices(self._analysis.choices([k % self._len])[0])


class BrGraph:
    """Strict best-response graph over all deterministic joint policies, a
    view of one ``ExactAnalysis``'s arrays.

    ``nodes`` are the joint policies in ``itertools.product`` order, a
    read-only sequence that builds a node's ``JointDeterministicPolicy`` only
    when that node is read; ``equilibria`` the node indices of the
    equilibria; ``path_len`` the analysis's read-only float array, per node
    the length of a shortest strict best-response path into the equilibria
    (0 exactly on equilibria, ``math.inf`` if none is reachable); ``edges``
    the analysis's sorted (source, target, deviator) (E, 3) array, built the
    first time it is read.
    """

    def __init__(self, analysis: ExactAnalysis) -> None:
        self._analysis = analysis
        self.nodes = _Nodes(analysis)
        self.equilibria = frozenset(np.flatnonzero(analysis.equilibrium_mask).tolist())
        self.path_len = analysis.path_len

    @property
    def edges(self) -> np.ndarray:
        return self._analysis.edges


def build_br_graph(
    game: StochasticGame, tol: float, budget: int = DEFAULT_SOLVE_BUDGET
) -> BrGraph:
    """The strict best-response graph over the joint-policy space.

    Best-response membership is judged on exact Q-values with slack ``tol``;
    shortest path lengths are computed by reverse breadth-first search from
    the equilibrium set. The result is a view of ``ExactAnalysis(game, tol,
    budget)``'s arrays (its grids and one path length per joint policy).
    """
    return BrGraph(ExactAnalysis(game, tol, budget))


def is_weakly_acyclic(analysis: ExactAnalysis) -> bool:
    """True iff equilibria exist and every joint policy of the analysed game
    can reach one along strict best-response edges. Reads only
    ``path_len`` (so a ``BrGraph`` view serves too): when every path length
    is finite, some node sits at 0, so an equilibrium exists."""
    return bool(np.isfinite(analysis.path_len).all())


def path_bound_L(analysis: ExactAnalysis) -> int:
    """One plus the largest shortest-path length to equilibrium, read off
    the analysis's ``path_len``."""
    if not is_weakly_acyclic(analysis):
        raise ValueError("path bound is only defined for weakly acyclic games")
    return 1 + int(np.max(analysis.path_len))


def p_min(
    game: StochasticGame, lambdas: Sequence[float], R: int, L: int
) -> float:
    """Lower bound on the probability of walking a best-response path to
    equilibrium through inertia and correct updates:
    prod_j min((1 - lambda_j) / |policy space of j|, lambda_j) ** ((R+1) L).
    """
    lambdas = check_per_player(game, "lambda", lambdas)
    # Python ints: no overflow, and the same bits whatever the caller's
    # integer type
    exponent = (check_input("ratio", R) + 1) * _check("count", "L", L)
    out = 1.0
    for j, lam in enumerate(lambdas):
        policy_count = game.action_counts[j] ** game.num_states
        out *= min((1.0 - lam) / policy_count, lam) ** exponent
    return out


def _stay_vs_move(theta: float, p: float) -> float:
    return (1.0 - theta) * p / (theta + (1.0 - theta) * p) - theta


def _sigmoid(u: float) -> float:
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def solve_theta(p: float, eps: float) -> float:
    """Unique theta in (0, 1) with
    (1 - theta) p / (theta + (1 - theta) p) - theta = 1 - eps.

    The left side falls strictly from 1 (theta -> 0) to -1 (theta = 1), so
    bisection applies; it runs on the logit scale because the root is of
    order p when p is tiny.
    """
    p = _check("chance", "p_min", p)
    target = 1.0 - check_input("eps", eps)
    lo, hi = -745.0, 36.7  # logit bounds: theta from ~5e-324 to ~1 - 1e-16
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _stay_vs_move(_sigmoid(mid), p) > target:
            lo = mid
        else:
            hi = mid
    return _sigmoid(0.5 * (lo + hi))


def xi_bound(
    theta: float,
    R: int,
    N: int,
    L: int,
    deltas: Sequence[float],
    dbar: float,
) -> float:
    """Learning-accuracy requirement paired with theta:
    min(theta, min_i min(delta_i, dbar - delta_i) / 2) / ((R+1) N L)."""
    theta = _check("positive", "theta", theta)
    R, N, L = check_input("ratio", R), _check("count", "N", N), _check("count", "L", L)
    deltas = [_check("positive", "delta", d) for d in deltas]
    for d in deltas:
        if not d < dbar:
            raise ValueError(f"delta {d} must lie strictly inside (0, {dbar})")
    margin = 0.5 * min(min(d, dbar - d) for d in deltas)
    return min(theta, margin) / ((R + 1) * N * L)
