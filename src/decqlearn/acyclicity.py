"""Structural analysis of the deterministic joint-policy space.

Builds the strict best-response graph: nodes are deterministic joint
policies, and an edge changes exactly one player's policy to a different
0-best-response. A game is weakly acyclic when every node has a path into the
(nonempty) equilibrium set; the certificate also yields the shortest-path
profile used by the convergence diagnostics (the path bound L, the inertia
floor p_min, and the theta/xi tolerance split).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .exact_solver import (
    _best_response_grids,
    _best_response_table,
    _check_node_budget,
)
from .game_model import (
    DeterministicPolicy,
    JointDeterministicPolicy,
    StochasticGame,
    enumerate_deterministic_policies,
)

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

DEFAULT_NODE_BUDGET = 10**6


@dataclass(frozen=True)
class BrGraph:
    """Strict best-response graph over all deterministic joint policies.

    ``edges`` are (source index, target index, deviating player); ``path_len``
    maps each node to the length of a shortest strict best-response path into
    the equilibrium set (0 exactly on equilibria, ``math.inf`` if none is
    reachable).
    """

    nodes: tuple[JointDeterministicPolicy, ...]
    edges: tuple[tuple[int, int, int], ...]
    equilibria: frozenset[int]
    path_len: tuple[float, ...]

    def node_index(self, joint: JointDeterministicPolicy) -> int:
        return self._index[joint.choices]

    @property
    def _index(self) -> dict[tuple[tuple[int, ...], ...], int]:
        cached = getattr(self, "_index_cache", None)
        if cached is None:
            cached = {node.choices: k for k, node in enumerate(self.nodes)}
            object.__setattr__(self, "_index_cache", cached)
        return cached

    def to_json_dict(self) -> dict:
        """Export for external visualization tools."""
        return {
            "nodes": [list(map(list, node.choices)) for node in self.nodes],
            "edges": [
                {"source": s, "target": t, "deviator": i} for s, t, i in self.edges
            ],
            "equilibria": sorted(self.equilibria),
            "path_len": [None if math.isinf(v) else int(v) for v in self.path_len],
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")


def _br_graph(game: StochasticGame, table: Sequence[np.ndarray], tol: float) -> BrGraph:
    """The graph read off the best-response table of ``exact_solver``;
    node k is the k-th joint policy in ``itertools.product`` order, which is
    the flat (C) order of the best-response grids."""
    grids = _best_response_grids(game, table, tol)
    shape = grids[0].shape
    num_nodes = grids[0].size
    edges = []
    for i, grid in enumerate(grids):
        # Every node whose player-i policy is a best response receives an
        # edge from each node that differs from it in player i's policy only.
        stride = num_nodes // math.prod(shape[: i + 1])
        target = np.flatnonzero(grid)[:, None]
        source = target + (np.arange(shape[i]) - target // stride % shape[i]) * stride
        edges.append(np.stack(np.broadcast_arrays(source, target, i), axis=-1)[source != target])
    edges = np.concatenate(edges)  # rows: source, target, deviator
    edges = edges[np.lexsort((edges[:, 1], edges[:, 2], edges[:, 0]))]

    # Shortest path lengths by reverse breadth-first search from the equilibria.
    at_equilibrium = functools.reduce(np.logical_and, grids).ravel()
    path_len = np.where(at_equilibrium, 0.0, math.inf)
    frontier, level = at_equilibrium, 0.0
    while frontier.any():
        level += 1.0
        reached = np.bincount(edges[frontier[edges[:, 1]], 0], minlength=num_nodes) > 0
        frontier = reached & np.isinf(path_len)
        path_len[frontier] = level

    policies = [
        [DeterministicPolicy(i, c) for c in enumerate_deterministic_policies(game.num_states, m)]
        for i, m in enumerate(game.action_counts)
    ]
    return BrGraph(
        nodes=tuple(JointDeterministicPolicy(joint) for joint in itertools.product(*policies)),
        edges=tuple(map(tuple, edges.tolist())),
        equilibria=frozenset(np.flatnonzero(at_equilibrium).tolist()),
        path_len=tuple(path_len.tolist()),
    )


def build_br_graph(
    game: StochasticGame, tol: float, budget: int = DEFAULT_NODE_BUDGET
) -> BrGraph:
    """Enumerate the joint-policy space and its strict best-response edges.

    Best-response membership is judged on exact Q-values with slack ``tol``;
    shortest path lengths are computed by reverse breadth-first search from
    the equilibrium set.
    """
    _check_node_budget(game, tol, budget)
    return _br_graph(game, _best_response_table(game, tol), tol)


def is_weakly_acyclic(graph: BrGraph) -> bool:
    """True iff equilibria exist and every joint policy can reach one along
    strict best-response edges."""
    return bool(graph.equilibria) and all(math.isfinite(v) for v in graph.path_len)


def path_bound_L(graph: BrGraph) -> int:
    """One plus the largest shortest-path length to equilibrium."""
    if not is_weakly_acyclic(graph):
        raise ValueError("path bound is only defined for weakly acyclic games")
    return 1 + int(max(graph.path_len))


def p_min(
    game: StochasticGame, lambdas: Sequence[float], R: int, L: int
) -> float:
    """Lower bound on the probability of walking a best-response path to
    equilibrium through inertia and correct updates:
    prod_j min((1 - lambda_j) / |policy space of j|, lambda_j) ** ((R+1) L).
    """
    if len(lambdas) != game.num_players:
        raise ValueError("need one lambda per player")
    if R < 1 or L < 1:
        raise ValueError("R and L must be positive integers")
    exponent = (R + 1) * L
    out = 1.0
    for j, lam in enumerate(lambdas):
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {lam}")
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
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
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
    if R < 1 or N < 1 or L < 1:
        raise ValueError("R, N, and L must be positive integers")
    for d in deltas:
        if not 0.0 < d < dbar:
            raise ValueError(f"delta {d} must lie strictly inside (0, {dbar})")
    margin = 0.5 * min(min(d, dbar - d) for d in deltas)
    return min(theta, margin) / ((R + 1) * N * L)


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
