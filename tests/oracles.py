"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: policy
iteration instead of value iteration, Gauss-style iterative evaluation
instead of a direct linear solve, full-policy-space filtering instead of
product construction, a literal integer-time scan of the active-phase
recursion instead of the event-driven transcription, and a stage-by-stage
episode loop instead of the segment-vectorized one.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from decqlearn.exact_solver import InducedMdp
from decqlearn.game_model import (
    StochasticGame,
    enumerate_deterministic_policies,
    sample_initial_state,
    sample_transition,
)
from decqlearn.orchestrator import PolicyChange, TraceRecord


def q_star_policy_iteration(mdp: InducedMdp, max_iter: int = 1000) -> np.ndarray:
    """Exact optimal Q-factors by policy iteration with linear-solve
    evaluation; keeps the incumbent action on ties so the loop terminates."""
    num_states, _ = mdp.cost.shape
    beta = mdp.discount
    idx = np.arange(num_states)
    policy = np.zeros(num_states, dtype=int)
    for _ in range(max_iter):
        transition = mdp.kernel[idx, policy]
        cost = mdp.cost[idx, policy]
        values = np.linalg.solve(np.eye(num_states) - beta * transition, cost)
        q = mdp.cost + beta * (mdp.kernel @ values)
        greedy = q.argmin(axis=1)
        keep = q[idx, policy] <= q[idx, greedy] + 1e-12
        new_policy = np.where(keep, policy, greedy)
        if np.array_equal(new_policy, policy):
            return q
        policy = new_policy
    raise RuntimeError("policy iteration did not settle")


def policy_value_iterative(game: StochasticGame, player: int, probs_by_player, tol: float) -> np.ndarray:
    """Iterative policy evaluation with explicitly looped marginalization."""
    num_states = game.num_states
    cost = np.zeros(num_states)
    transition = np.zeros((num_states, num_states))
    for s in range(num_states):
        for ja in range(game.num_joint_actions):
            acts = game.joint_tuple(ja)
            weight = 1.0
            for j, a in enumerate(acts):
                weight *= probs_by_player[j][s, a]
            cost[s] += weight * game.costs[player][s, ja]
            transition[s] += weight * game.kernel[s, ja]
    beta = game.discounts[player]
    if beta == 0.0:
        return cost
    threshold = tol * (1.0 - beta) / (2.0 * beta)
    values = np.zeros(num_states)
    while True:
        updated = cost + beta * (transition @ values)
        gap = float(np.abs(updated - values).max())
        values = updated
        if gap <= threshold:
            return values


def br_hat_bruteforce(values: np.ndarray, eps: float) -> set[tuple[int, ...]]:
    """Filter the whole deterministic policy space by the per-state
    eps-greedy condition."""
    num_states, num_actions = values.shape
    out = set()
    for choice in enumerate_deterministic_policies(num_states, num_actions):
        if all(values[x, a] <= values[x].min() + eps for x, a in enumerate(choice)):
            out.add(choice)
    return out


def active_phases_bruteforce(schedule) -> list[tuple[int, int]]:
    """Literal scan of the active-phase recursion over integer stage times.

    Returns (tau_min, tau_max) pairs including the degenerate phase (0, 0);
    stops when the finite schedule can no longer decide the recursion.
    """
    per_player = [list(b[1:]) for b in schedule.boundaries]
    merged = sorted({t for row in per_player for t in row})
    coverage = min(row[-1] for row in per_player)
    n = len(per_player)
    min_length = schedule.min_length

    phases = [(0, 0)]
    tau_max = 0
    while True:
        later = [t for t in merged if t > tau_max]
        if not later:
            break
        tau_min = later[0]
        found = None
        for t in range(tau_min, coverage):
            if not all(any(tau_min <= b <= t for b in row) for row in per_player):
                continue
            upcoming = [b for b in merged if b > t]
            if not upcoming:
                break
            if n * (upcoming[0] - t) >= min_length:
                found = t
                break
        if found is None:
            break
        phases.append((tau_min, found))
        tau_max = found
    return phases


def random_game(rng: np.random.Generator, num_players=2, max_states=3, max_actions=3, beta=0.9) -> StochasticGame:
    """Random dense game: costs uniform in [0, 10], kernel rows normalized
    uniforms, uniform initial distribution."""
    num_states = int(rng.integers(1, max_states + 1))
    counts = [int(rng.integers(1, max_actions + 1)) for _ in range(num_players)]
    num_joint = int(np.prod(counts))
    costs = tuple(rng.uniform(0.0, 10.0, size=(num_states, num_joint)) for _ in range(num_players))
    kernel = rng.uniform(0.1, 1.0, size=(num_states, num_joint, num_states))
    kernel /= kernel.sum(axis=2, keepdims=True)
    return StochasticGame(
        states=tuple(f"s{k}" for k in range(num_states)),
        action_sets=tuple(tuple(f"a{k}" for k in range(m)) for m in counts),
        costs=costs,
        discounts=(beta,) * num_players,
        kernel=kernel,
        initial_dist=np.full(num_states, 1.0 / num_states),
    )


def random_stationary(rng: np.random.Generator, player: int, num_states: int, num_actions: int):
    from decqlearn.game_model import StationaryPolicy

    probs = rng.uniform(0.05, 1.0, size=(num_states, num_actions))
    probs /= probs.sum(axis=1, keepdims=True)
    return StationaryPolicy(player, probs)


def simulate_stepwise(
    game, agents, streams, horizon, record_times, equilibria, policy_updates, record_q
):
    """Stage-by-stage episode loop with the signature and results of
    ``orchestrator._simulate``: every stage calls ``Agent.select_action``,
    ``sample_transition`` and ``Agent.q_update`` in turn."""
    n = game.num_players
    strides = game.joint_strides
    w_draws = streams.transition_uniforms(horizon).tolist()
    hot = []
    for i, ag in enumerate(agents):
        hot.append(
            (
                ag,
                streams.experimentation_uniforms(i, horizon).tolist(),
                streams.action_draws(i, horizon, game.action_counts[i]).tolist(),
                game.costs[i].tolist(),
                strides[i],
            )
        )

    sorted_records = sorted(set(int(t) for t in record_times))
    if sorted_records and not 0 <= sorted_records[0] <= sorted_records[-1] < horizon:
        raise ValueError("record times must lie in [0, horizon)")
    rec_idx = 0
    next_record = sorted_records[0] if sorted_records else -1

    def next_boundary_time() -> int:
        pending = [ag.next_update_time for ag in agents if ag.next_update_time >= 0]
        return min(pending) if pending else -1

    next_boundary = next_boundary_time() if policy_updates else -1

    current_joint = tuple(tuple(ag.baseline) for ag in agents)
    current_eq = current_joint in equilibria if equilibria is not None else False
    initial_joint, initial_eq = current_joint, current_eq

    events = []
    records = []

    x = sample_initial_state(game, streams.initial_state_uniform())
    actions = [0] * n

    for t in range(horizon):
        if t == next_boundary:
            for i, ag in enumerate(agents):
                if ag.next_update_time == t:
                    lam_draw = streams.inertia_uniform(i, t)
                    if ag.end_phase_update(t, lam_draw, partial(streams.policy_draw, i, t)):
                        current_joint = tuple(tuple(a.baseline) for a in agents)
                        current_eq = (
                            current_joint in equilibria if equilibria is not None else False
                        )
                        events.append(PolicyChange(t, i, current_joint, current_eq))
            next_boundary = next_boundary_time()
        if t == next_record:
            snapshots = tuple(np.array(ag.q) for ag in agents) if record_q else None
            records.append(TraceRecord(t, current_joint, current_eq, snapshots))
            rec_idx += 1
            next_record = sorted_records[rec_idx] if rec_idx < len(sorted_records) else -1

        ja = 0
        for i, (ag, rho_row, act_row, _costs, stride) in enumerate(hot):
            a = ag.select_action(x, rho_row[t], act_row[t])
            actions[i] = a
            ja += a * stride
        x_next = sample_transition(game, x, ja, w_draws[t])
        for i, (ag, _rho, _act, costs, _stride) in enumerate(hot):
            ag.q_update(x, actions[i], costs[x][ja], x_next)
        x = x_next

    return events, records, initial_joint, initial_eq
