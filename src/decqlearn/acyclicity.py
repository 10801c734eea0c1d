"""Structural analysis of the deterministic joint-policy space.

The strict best-response graph (``BrGraph``, a view of the arrays of
``exact_solver.ExactAnalysis``): nodes are deterministic joint policies, and
an edge changes exactly one player's policy to a different 0-best-response.
A game is weakly acyclic when every node has a path into the (nonempty)
equilibrium set; the certificate also yields the shortest-path profile used
by the convergence diagnostics (the path bound L, the inertia floor p_min,
and the theta/xi tolerance split).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exact_solver import (
    DEFAULT_SOLVE_BUDGET,
    BrGraph,
    ExactAnalysis,
    check_input,
    check_per_player,
)
from .game_model import StochasticGame, _check_count

__all__ = [
    "BrGraph",
    "build_br_graph",
    "is_weakly_acyclic",
    "path_bound_L",
    "p_min",
    "solve_theta",
    "xi_bound",
    "theta_and_xi",
]


def build_br_graph(
    game: StochasticGame, tol: float, budget: int = DEFAULT_SOLVE_BUDGET
) -> BrGraph:
    """The strict best-response graph over the joint-policy space.

    Best-response membership is judged on exact Q-values with slack ``tol``;
    shortest path lengths are computed by reverse breadth-first search from
    the equilibrium set. The result is ``ExactAnalysis.graph``, a view of the
    analysis's arrays (its grids and one path length per joint policy): it
    builds a node's ``JointDeterministicPolicy`` only when that node is read,
    and the edge array only when ``edges`` is first read.
    """
    return ExactAnalysis(game, tol, budget).graph


def is_weakly_acyclic(graph: BrGraph | ExactAnalysis) -> bool:
    """True iff equilibria exist and every joint policy can reach one along
    strict best-response edges. Reads only ``path_len``, which a ``BrGraph``
    and an ``ExactAnalysis`` both have: when every path length is finite,
    some node sits at 0, so an equilibrium exists."""
    return bool(np.isfinite(graph.path_len).all())


def path_bound_L(graph: BrGraph | ExactAnalysis) -> int:
    """One plus the largest shortest-path length to equilibrium."""
    if not is_weakly_acyclic(graph):
        raise ValueError("path bound is only defined for weakly acyclic games")
    return 1 + int(np.max(graph.path_len))


def p_min(
    game: StochasticGame, lambdas: Sequence[float], R: int, L: int
) -> float:
    """Lower bound on the probability of walking a best-response path to
    equilibrium through inertia and correct updates:
    prod_j min((1 - lambda_j) / |policy space of j|, lambda_j) ** ((R+1) L).
    """
    check_per_player(game, "lambda", lambdas)
    check_input("ratio", R)
    _check_count("L", L)
    # Python ints: no overflow, and the same bits whatever the caller's
    # integer type
    exponent = (int(R) + 1) * int(L)
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
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p_min must lie in (0, 1], got {p}")
    check_input("eps", eps)
    target = 1.0 - eps
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
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    check_input("ratio", R)
    _check_count("N", N)
    _check_count("L", L)
    for d in deltas:
        if not 0.0 < d < dbar:
            raise ValueError(f"delta {d} must lie strictly inside (0, {dbar})")
    margin = 0.5 * min(min(d, dbar - d) for d in deltas)
    return min(theta, margin) / ((int(R) + 1) * int(N) * int(L))


def theta_and_xi(
    p: float,
    eps: float,
    R: int,
    N: int,
    L: int,
    deltas: Sequence[float],
    dbar: float,
) -> tuple[float, float]:
    """Solve for theta and derive the paired xi tolerance."""
    theta = solve_theta(p, eps)
    return theta, xi_bound(theta, R, N, L, deltas, dbar)
