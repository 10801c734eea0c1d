"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: policy
iteration instead of value iteration, Gauss-style iterative evaluation
instead of a direct linear solve, full-policy-space filtering instead of
product construction, a literal integer-time scan of the active-phase
recursion instead of the event-driven transcription, a stage-by-stage
episode loop instead of the segment-vectorized one (with its own copies of
the boundary scan, the experimentation test, the bisect inverse CDF and the
Q-update formula; only the phase-end appraisal is the agent module's), a
Q-factor recursion that scans each next row for its minimum instead of
caching the row minima, and one value-iteration solve per opponent joint
instead of the stacked best-response table (with the stack solvers' per-member
product shape, so that tables compare by their bytes), and a
stacked value iteration that allocates its arrays every sweep and tests every
member at every sweep (``value_iteration_stack``) instead of the in-place one.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from functools import partial
from typing import NamedTuple

import numpy as np

from decqlearn.agent import end_phase_update
from decqlearn.exact_solver import InducedMdp
from decqlearn.game_model import (
    DeterministicPolicy,
    StochasticGame,
    enumerate_deterministic_policies,
    soften_policy,
)


def q_star_policy_iteration(mdp: InducedMdp, max_iter: int = 1000) -> np.ndarray:
    """Exact optimal Q-factors by policy iteration with linear-solve
    evaluation; keeps the incumbent action unless another is lower by more
    than (S + 2) u max|c| / (1 - beta), u the unit roundoff (the rounding of
    a backup of values near max|c| / (1 - beta)), so neither ties nor their
    rounding can cycle."""
    num_states, _ = mdp.cost.shape
    beta = mdp.discount
    idx = np.arange(num_states)
    slack = (num_states + 2) * (np.finfo(float).eps / 2.0) * np.abs(mdp.cost).max() / (1.0 - beta)
    policy = np.zeros(num_states, dtype=int)
    for _ in range(max_iter):
        transition = mdp.kernel[idx, policy]
        cost = mdp.cost[idx, policy]
        values = np.linalg.solve(np.eye(num_states) - beta * transition, cost)
        q = mdp.cost + beta * (mdp.kernel @ values)
        greedy = q.argmin(axis=1)
        keep = q[idx, policy] <= q[idx, greedy] + slack
        new_policy = np.where(keep, policy, greedy)
        if np.array_equal(new_policy, policy):
            return q
        policy = new_policy
    raise RuntimeError("policy iteration did not settle")


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


def seeded_game(rng, counts, num_states, costs=None, team=False, discounts=None) -> StochasticGame:
    """A game of ``num_states`` states whose player i has ``counts[i]``
    actions, at ``discounts[i]`` (0.8 by default): per player, ``costs[i]``
    or (drawn first, in player order) costs uniform in [0, 10), player 0's
    for all if ``team``; then kernel rows from a flat Dirichlet and a
    uniform initial distribution."""
    joint = int(np.prod(counts))
    if costs is None:
        costs = [rng.uniform(0.0, 10.0, size=(num_states, joint)) for _ in counts]
        if team:
            costs = costs[:1] * len(counts)
    return StochasticGame(
        states=tuple(f"s{x}" for x in range(num_states)),
        action_sets=tuple(tuple(f"a{a}" for a in range(m)) for m in counts),
        costs=tuple(costs),
        discounts=(0.8,) * len(counts) if discounts is None else discounts,
        kernel=rng.dirichlet(np.ones(num_states), size=(num_states, joint)),
        initial_dist=np.full(num_states, 1.0 / num_states),
    )


def matrix_game(cost0, cost1) -> StochasticGame:
    """One-state two-player game at discount 0.5 in which both players have m
    actions and player i pays cost_i[a_0][a_1] (each an m x m nested list)."""
    m = len(cost0)
    return StochasticGame(
        states=("s0",),
        action_sets=(tuple(f"a{k}" for k in range(m)),) * 2,
        costs=tuple(np.array(c, dtype=float).reshape(1, -1) for c in (cost0, cost1)),
        discounts=(0.5, 0.5),
        kernel=np.ones((1, m * m, 1)),
        initial_dist=np.array([1.0]),
    )


def random_stationary(rng: np.random.Generator, player: int, num_states: int, num_actions: int):
    from decqlearn.game_model import StationaryPolicy

    probs = rng.uniform(0.05, 1.0, size=(num_states, num_actions))
    probs /= probs.sum(axis=1, keepdims=True)
    return StationaryPolicy(player, probs)


def _inverse_cdf(cumulative, w, fallback):
    """First index whose cumulative mass strictly exceeds w; ``fallback``
    (the last index of positive mass) catches w at the very top of the CDF."""
    idx = bisect_right(cumulative, w)
    if idx >= len(cumulative):
        return fallback
    return idx


def _last_positive(masses):
    positive = [k for k, m in enumerate(masses) if m > 0.0]
    return positive[-1] if positive else len(masses) - 1


def simulate_stepwise(game, configs, baselines, streams, horizon, record_times, boundaries, record_q):
    """Stage-by-stage episode loop with the signature and results of
    ``orchestrator._simulate``: each trial of the batch plays alone, from
    one horizon-sized draw of each per-step family, with its own copies of
    its first baselines (row k of each ``baselines[i]``)."""
    return [
        _simulate_one_stepwise(
            game, configs, [base[k].tolist() for base in baselines], trial_streams,
            horizon, record_times, rows, record_q,
        )
        for k, (trial_streams, rows) in enumerate(zip(streams, boundaries))
    ]


def _simulate_one_stepwise(
    game, configs, baseline, streams, horizon, record_times, boundaries, record_q
):
    """One trial, written with its own copies of the stage rules, its own
    baselines (``baseline[i]`` a list, an action per state) and its own
    Q tables as lists: at every stage each player whose boundary
    (``boundaries[i][1:]``) falls on it appraises its baseline against its
    table, each player experiments iff its draw is <= rho, the next state
    comes from a bisect over the cumulative kernel row, and each player's Q
    entry gets the constant-step update."""
    n = game.num_players
    strides = game.joint_strides
    cumulative = np.cumsum(game.kernel, axis=2).tolist()
    fallback = [[_last_positive(row) for row in block] for block in game.kernel.tolist()]
    w_draws = streams.transition_generator().random(horizon).tolist()
    hot = []
    for i, cfg in enumerate(configs):
        hot.append(
            (
                cfg,
                streams.experimentation_generator(i).random(horizon).tolist(),
                streams.action_generator(i)
                .integers(0, game.action_counts[i], size=horizon)
                .tolist(),
                game.costs[i].tolist(),
                strides[i],
            )
        )
    q_tables = [
        np.zeros((game.num_states, m)).tolist() if cfg.initial_q is None else cfg.initial_q.tolist()
        for cfg, m in zip(configs, game.action_counts)
    ]
    max_abs_q = [max((abs(v) for row in q for v in row), default=0.0) for q in q_tables]

    sorted_records = sorted(set(int(t) for t in record_times))
    if sorted_records and not 0 <= sorted_records[0] <= sorted_records[-1] < horizon:
        raise ValueError("record times must lie in [0, horizon)")

    initial_joint = current_joint = tuple(tuple(b) for b in baseline)

    events = []
    records = []

    w0 = streams.initial_state_uniform()
    x = _inverse_cdf(
        np.cumsum(game.initial_dist).tolist(), w0, _last_positive(game.initial_dist.tolist())
    )
    actions = [0] * n

    for t in range(horizon):
        for i, row in enumerate(boundaries):
            if t > 0 and t in row:
                # drawn at every boundary, read or not
                lam_draw = streams.inertia_uniform(i, t)
                new = end_phase_update(
                    configs[i], np.array(q_tables[i]), baseline[i], lambda: lam_draw,
                    partial(streams.policy_draw, i, t),
                )
                if new is not None:
                    baseline[i] = list(new)
                    current_joint = tuple(tuple(b) for b in baseline)
                    events.append((t, i, current_joint))
        if t in sorted_records:
            snapshots = tuple(np.array(q) for q in q_tables) if record_q else None
            records.append((t, current_joint, snapshots))

        ja = 0
        for i, (cfg, rho_row, act_row, _costs, stride) in enumerate(hot):
            a = act_row[t] if rho_row[t] <= cfg.rho else baseline[i][x]
            actions[i] = a
            ja += a * stride
        x_next = _inverse_cdf(cumulative[x][ja], w_draws[t], fallback[x][ja])
        for i, (cfg, _rho, _act, costs, _stride) in enumerate(hot):
            q = q_tables[i]
            u = actions[i]
            value = (1.0 - cfg.alpha) * q[x][u] + cfg.alpha * (
                costs[x][ja] + game.discounts[i] * min(q[x_next])
            )
            q[x][u] = value
            if abs(value) > max_abs_q[i]:
                max_abs_q[i] = abs(value)
        x = x_next

    return initial_joint, events, records, tuple(np.array(q) for q in q_tables), tuple(max_abs_q)


def learn_reference(q, alpha, beta, max_abs_q, states, actions, costs, next_states):
    """``orchestrator._learn`` without its cache of row minima: every step
    calls ``min`` on its next row, and the running max |Q| keeps the largest
    magnitude written."""
    for x, u, c, x_next in zip(states, actions, costs, next_states):
        value = (1.0 - alpha) * q[x][u] + alpha * (c + beta * min(q[x_next]))
        q[x][u] = value
        magnitude = value if value >= 0.0 else -value
        if magnitude > max_abs_q:
            max_abs_q = magnitude
    return max_abs_q


def induced_mdp_single(game: StochasticGame, player: int, others) -> InducedMdp:
    """One induced MDP: opponent weights multiplied in the order given,
    marginalized over the opponents' action axes."""
    counts = game.action_counts
    n = game.num_players
    w = np.ones((game.num_states,) + counts)
    for pol in others:
        shape = [1] * (n + 1)
        shape[0] = game.num_states
        shape[pol.player + 1] = counts[pol.player]
        w = w * pol.probs.reshape(shape)
    opp_axes = tuple(j + 1 for j in range(n) if j != player)
    cost_full = game.costs[player].reshape((game.num_states,) + counts)
    cost = (cost_full * w).sum(axis=opp_axes)
    kernel_full = game.kernel.reshape((game.num_states,) + counts + (game.num_states,))
    kernel = (kernel_full * w[..., None]).sum(axis=opp_axes)
    return InducedMdp(game.states, game.action_sets[player], cost, kernel, game.discounts[player])


def q_value_iteration_single(mdp: InducedMdp, tol: float) -> tuple[np.ndarray, int]:
    """Value iteration on one MDP's Q-factors from the zero table, stopping
    at the first gap <= tol * (1 - beta) / (2 * beta); a direct pass for
    beta = 0. Returns the table and the number of sweeps.

    Each sweep multiplies the kernel as one (S * A, S) matrix by the row
    minima, the product shape the library's stack solvers use per member.
    The shape must match for the tables to be compared by their bytes: BLAS
    picks its summation order from the matrix's row count, so S products of
    (A, S) (or S dots at A = 1) can differ from one (S * A, S) product in the
    last bits (seen with OpenBLAS at A = 1, and at S = 8 with A = 2, 3, 5)."""
    beta = mdp.discount
    if beta == 0.0:
        return mdp.cost.copy(), 0
    threshold = tol * (1.0 - beta) / (2.0 * beta)
    num_states = mdp.cost.shape[0]
    kernel = mdp.kernel.reshape(-1, num_states)
    q = np.zeros_like(mdp.cost)
    sweeps = 0
    while True:
        q_next = mdp.cost + beta * (kernel @ q.min(axis=1)).reshape(mdp.cost.shape)
        gap = float(np.abs(q_next - q).max())
        q = q_next
        sweeps += 1
        if gap <= threshold:
            return q, sweeps


def value_iteration_stack(
    cost: np.ndarray, kernel: np.ndarray, beta: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked value iteration as ``exact_solver._value_iteration`` once ran
    it: fresh arrays every sweep and the per-member stop test at every sweep,
    with the same float operations (elementwise minimums of the action
    columns, one (S * A, S) gemv per member, cost + beta * product), so the
    tables compare by their bytes. Returns the table and each member's
    stopping sweep (0 for the direct pass at beta = 0)."""
    if beta == 0.0:
        return cost.copy(), np.zeros(len(cost), dtype=int)
    threshold = tol * (1.0 - beta) / (2.0 * beta)
    out, sweeps = np.empty_like(cost), np.empty(len(cost), dtype=int)
    live = np.arange(len(cost))
    q = np.zeros_like(cost)
    sweep = 0
    while live.size:
        sweep += 1
        low = functools.reduce(np.minimum, [q[..., a] for a in range(q.shape[-1])])
        flat = kernel.reshape(len(kernel), -1, kernel.shape[-1])
        q_next = cost + beta * (flat @ low[:, :, None]).reshape(cost.shape)
        done = (np.abs(q_next - q) <= threshold).reshape(len(q), -1).all(axis=1)
        out[live[done]], sweeps[live[done]] = q_next[done], sweep
        live, cost, kernel, q = (a[~done] for a in (live, cost, kernel, q_next))
    return out, sweeps


def softened_stack(game: StochasticGame, player: int, rho, opponents: np.ndarray):
    """Costs (K, S, A) and kernels (K, S, A, S) of the MDPs the player faces
    against (K, N - 1, S) opponent choice arrays, each opponent j softened
    by rho[j]: one broadcast product per joint over every state, with the
    opponents' one-hot factors multiplied in id order and marginalized, as
    the library once built its stacks; the library's gathered rows must
    match these by their bytes."""
    counts, num_states = game.action_counts, game.num_states
    others = [j for j in range(game.num_players) if j != player]
    w = np.ones((len(opponents), num_states) + counts)
    for k, j in enumerate(others):
        probs = rho[j] / counts[j] + (opponents[:, k, :, None] == np.arange(counts[j])) * (1.0 - rho[j])
        shape = [len(opponents), num_states] + [1] * game.num_players
        shape[j + 2] = counts[j]
        w = w * probs.reshape(shape)
    opp_axes = tuple(j + 2 for j in others)
    cost_full = game.costs[player].reshape((num_states,) + counts)
    kernel_full = game.kernel.reshape((num_states,) + counts + (num_states,))
    return (cost_full * w).sum(axis=opp_axes), (kernel_full * w[..., None]).sum(axis=opp_axes)


def q_star_single(game: StochasticGame, player: int, others, tol: float) -> np.ndarray:
    return q_value_iteration_single(induced_mdp_single(game, player, others), tol)[0]


def opponent_joints(game: StochasticGame, player: int):
    """All deterministic opponent joint policies, as per-player choice
    tuples keyed by opponent id order."""
    per_player = [
        enumerate_deterministic_policies(game.num_states, game.action_counts[j])
        for j in range(game.num_players)
        if j != player
    ]
    return itertools.product(*per_player)


def opponent_policies(game: StochasticGame, player: int, opp, rhos=None) -> list:
    """Indicator policies of one opponent joint, softened by rhos when given."""
    others_ids = [j for j in range(game.num_players) if j != player]
    out = []
    for j, choice in zip(others_ids, opp):
        pol = DeterministicPolicy(j, choice)
        m = game.action_counts[j]
        out.append(soften_policy(pol, 0.0 if rhos is None else rhos[j], m))
    return out


def _choice_is_greedy(values: np.ndarray, choice, eps: float) -> bool:
    for x, a in enumerate(choice):
        row = values[x]
        if row[a] > row.min() + eps:
            return False
    return True


def equilibrium_set_enumerated(game: StochasticGame, tol: float) -> frozenset:
    """Every deterministic joint checked in turn, with one cached solve per
    (player, opponent joint)."""
    per_player = [
        enumerate_deterministic_policies(game.num_states, count)
        for count in game.action_counts
    ]
    cache = {}
    result = []
    for joint in itertools.product(*per_player):
        ok = True
        for i in range(game.num_players):
            opp = tuple(c for j, c in enumerate(joint) if j != i)
            values = cache.get((i, opp))
            if values is None:
                values = q_star_single(game, i, opponent_policies(game, i, opp), tol)
                cache[(i, opp)] = values
            if not _choice_is_greedy(values, joint[i], tol):
                ok = False
                break
        if ok:
            result.append(joint)
    return frozenset(result)


def delta_bar_enumerated(game: StochasticGame, tol: float) -> float:
    zero_cutoff = 10.0 * tol
    best = math.inf
    for i in range(game.num_players):
        for opp in opponent_joints(game, i):
            for row in q_star_single(game, i, opponent_policies(game, i, opp), tol):
                gaps = np.abs(row[:, None] - row[None, :])
                nonzero = gaps[gaps >= zero_cutoff]
                if nonzero.size:
                    best = min(best, float(nonzero.min()))
    return best


def perturbation_gap_enumerated(game: StochasticGame, rhos, tol: float) -> float:
    worst = 0.0
    for i in range(game.num_players):
        for opp in opponent_joints(game, i):
            q_base = q_star_single(game, i, opponent_policies(game, i, opp), tol)
            q_soft = q_star_single(game, i, opponent_policies(game, i, opp, rhos), tol)
            worst = max(worst, float(np.abs(q_base - q_soft).max()))
    return worst


class EnumeratedGraph(NamedTuple):
    """The strict best-response graph as plain fields: per node its
    per-player choice tuples, the (E, 3) (source, target, deviator) edge
    array, the equilibrium node indices and the float path lengths."""

    nodes: tuple
    edges: np.ndarray
    equilibria: frozenset
    path_len: np.ndarray


def br_graph_enumerated(game: StochasticGame, tol: float) -> EnumeratedGraph:
    """Node-by-node construction: per-state allowed-action lists cached per
    (player, opponent joint), edges from their product, then a reverse
    breadth-first search from the equilibria."""
    per_player = [
        enumerate_deterministic_policies(game.num_states, count)
        for count in game.action_counts
    ]
    joints = list(itertools.product(*per_player))
    index = {joint: k for k, joint in enumerate(joints)}
    allowed_cache = {}

    def allowed_actions(player, joint):
        opp = tuple(c for j, c in enumerate(joint) if j != player)
        hit = allowed_cache.get((player, opp))
        if hit is None:
            values = q_star_single(game, player, opponent_policies(game, player, opp), tol)
            hit = []
            for row in values:
                cutoff = row.min() + tol
                hit.append([a for a in range(row.shape[0]) if row[a] <= cutoff])
            allowed_cache[(player, opp)] = hit
        return hit

    edges = []
    equilibria = set()
    incoming = [[] for _ in joints]
    for k, joint in enumerate(joints):
        at_equilibrium = True
        for i in range(game.num_players):
            allowed = allowed_actions(i, joint)
            if any(joint[i][x] not in allowed[x] for x in range(game.num_states)):
                at_equilibrium = False
            for replacement in itertools.product(*allowed):
                if replacement == joint[i]:
                    continue
                t = index[joint[:i] + (replacement,) + joint[i + 1 :]]
                edges.append((k, t, i))
                incoming[t].append(k)
        if at_equilibrium:
            equilibria.add(k)

    path_len = [math.inf] * len(joints)
    frontier = sorted(equilibria)
    for k in frontier:
        path_len[k] = 0.0
    while frontier:
        nxt = []
        for t in frontier:
            for s in incoming[t]:
                if math.isinf(path_len[s]):
                    path_len[s] = path_len[t] + 1.0
                    nxt.append(s)
        frontier = nxt

    return EnumeratedGraph(
        nodes=tuple(joints),
        edges=np.array(edges, dtype=np.intp).reshape(-1, 3),
        equilibria=frozenset(equilibria),
        path_len=np.array(path_len),
    )
