"""Exact model-based computations for stochastic games.

Fixing the other players' stationary policies turns one player's problem into
a single-agent MDP; everything here is built on that reduction: optimal
Q-functions (value iteration on Q-factors, and one batched solve,
``_solve_stack``, by policy iteration, behind both the labels of visited
joints and the analysis, which solves again by value iteration wherever its
digits could reach a result), policy evaluation, epsilon-greedy policy sets,
equilibrium tests, a joint-reachability check, and one :class:`ExactAnalysis`,
the one entry point for the equilibria, the best-response graph's arrays, the
minimum nonzero Q-gap ``delta_bar`` and the experimentation perturbation gap.
These are the ground-truth oracles the learning code is tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .game_model import (
    DeterministicPolicy,
    JointDeterministicPolicy,
    StationaryPolicy,
    StochasticGame,
    _check,
    _choice_for,
    _player_id,
    _softened,
    enumerate_deterministic_policies,
)

__all__ = [
    "QTable",
    "InducedMdp",
    "induced_mdp",
    "q_star",
    "policy_value",
    "br_hat",
    "is_equilibrium",
    "label_equilibria",
    "ExactAnalysis",
    "check_reachability",
    "EnumerationBudgetError",
]

_MAX_VALUE_ITERATIONS = 5_000_000
_MAX_POLICY_ITERATIONS = 1000
DEFAULT_SOLVE_BUDGET = 10**6
# Members of one stack-solver call (players of one group times rho sets
# times opponent joints); bounds the call's kernels at
# _SOLVE_MEMBERS * S * A * S floats.
_SOLVE_MEMBERS = 1024


class EnumerationBudgetError(RuntimeError):
    """Raised when an exhaustive computation would exceed its solve budget."""


# The kind of each analysis input (its range rule in ``game_model._RULES``).
_KINDS = {
    "tol": "positive", "rho": "rho", "delta": "positive", "lambda": "unit", "eps": "unit", "ratio": "count"
}


def check_input(name: str, value):
    """``value`` as a Python number (``game_model._check``); a ValueError
    unless it lies in the range of input ``name``."""
    return _check(_KINDS[name], name, value)


def check_per_player(game: StochasticGame, name: str, values: Sequence[float]) -> tuple:
    """One value of input ``name`` per player, each in its range, as Python numbers."""
    if len(values) != game.num_players:
        raise ValueError(f"need one {name} per player")
    return tuple(check_input(name, value) for value in values)


@dataclass(frozen=True)
class QTable:
    """One player's Q-function: a finite table over (state, own action).
    ``player`` is a nonnegative integer id (``game_model._player_id``)."""

    player: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "player", _player_id(self.player))
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ValueError("Q values must be a (num_states, num_actions) array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("Q values must be finite")


@dataclass(frozen=True)
class InducedMdp:
    """The single-agent MDP one player faces when opponents play fixed
    stationary policies: marginalized cost and kernel plus own discount."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    cost: np.ndarray
    kernel: np.ndarray
    discount: float

    def __post_init__(self) -> None:
        rows = self.kernel.sum(axis=2)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError("induced kernel rows must sum to 1")


def _induced_stack(
    game: StochasticGame, player: int, states: np.ndarray, factors: Sequence[tuple[int, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """The player's induced cost rows (K, A) and kernel rows (K, A, S), row k
    at state states[k] against the opponents' action probabilities there,
    given per opponent j as (j, probs (K, m_j)): the one construction behind
    ``induced_mdp`` (every state once) and every row ``_solve_stack``
    gathers (``_row_stack``). Each entry is the product of the factors in
    the given order, times the game's entry, summed over the opponents'
    actions."""
    counts, num_players = game.action_counts, game.num_players
    cost = game.costs[player].reshape((game.num_states,) + counts)[states]
    kernel = game.kernel.reshape((game.num_states,) + counts + (game.num_states,))[states]
    w = np.ones((len(states),) + counts)
    for j, probs in factors:
        shape = [len(states)] + [1] * num_players
        shape[j + 1] = counts[j]
        w = w * probs.reshape(shape)
    opp_axes = tuple(j + 1 for j in range(num_players) if j != player)
    return (cost * w).sum(axis=opp_axes), (kernel * w[..., None]).sum(axis=opp_axes)


def induced_mdp(
    game: StochasticGame, player: int, others: Sequence[StationaryPolicy]
) -> InducedMdp:
    """Marginalize the opponents' stationary policies out of the game: the
    rows of ``_induced_stack`` at every state, one factor per opponent in
    the order of ``others``."""
    if not 0 <= player < game.num_players:
        raise ValueError(f"player id {player} out of range")
    seen = sorted(pol.player for pol in others)
    expected = [j for j in range(game.num_players) if j != player]
    if seen != expected:
        raise ValueError(f"opponent policies must cover players {expected}, got {seen}")
    for pol in others:
        if pol.probs.shape != (game.num_states, game.action_counts[pol.player]):
            raise ValueError(f"policy for player {pol.player} has the wrong shape")
    factors = [(pol.player, pol.probs) for pol in others]
    cost, kernel = _induced_stack(game, player, np.arange(game.num_states), factors)
    return InducedMdp(
        states=game.states,
        actions=game.action_sets[player],
        cost=cost,
        kernel=kernel,
        discount=game.discounts[player],
    )


def _check_finite(cost: np.ndarray, kernel: np.ndarray) -> None:
    """Refuse a stack with a non-finite cost or kernel entry: a NaN gap would
    never stop value iteration, and policy iteration would report it as lost
    precision."""
    if not (np.isfinite(cost).all() and np.isfinite(kernel).all()):
        raise ValueError("the stack solvers need finite costs and kernels")


def _backup(
    cost: np.ndarray,
    kernel: np.ndarray,
    beta: float,
    values: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """cost + beta * P values for a stack: cost (K, S, A), kernel (K, S, A, S),
    values (K, S), written into ``out`` (a C-contiguous (K, S, A) array) when
    given. The product is one (S * A, S) gemv per member, the form of both
    stack solvers and of the single-solve oracle: BLAS sums in an order that
    depends on the matrix's row count, so another shape of the same product
    (such as K * S gemvs of (A, S)) can differ in the last bits."""
    flat = kernel.reshape(len(kernel), -1, kernel.shape[-1])
    out = np.empty(cost.shape) if out is None else out
    np.matmul(flat, values[:, :, None], out=out.reshape(flat.shape[:2] + (1,)))
    out *= beta
    out += cost
    return out


def _value_iteration(
    cost: np.ndarray, kernel: np.ndarray, beta: float, tol: float
) -> np.ndarray:
    """Value iteration on Q-factors for a stack of MDPs with one discount:
    cost (K, S, A), kernel (K, S, A, S), both finite (else ValueError). Each
    member starts from the zero table and leaves the stack at its own first
    sweep whose successive gap is <= tol * (1 - beta) / (2 * beta) (a direct
    pass for beta = 0), so its result does not depend on the other members.

    A sweep takes the min over actions as elementwise minimums of the action
    columns, multiplies by each member's kernel as one gemv (``_backup``) and
    stops a member when every entry's gap is within the threshold. The min
    and the stop are exact: they equal, bit for bit, ``q.min(axis=-1)`` and
    the test on the largest gap per member. The sweeps run in place on
    buffers of the live members, and the per-member stop test runs only on a
    sweep where at least S * A entries of the stack are within the threshold,
    which any stopping member needs (a NaN gap never counts)."""
    _check_finite(cost, kernel)
    if beta == 0.0:
        return cost.copy()
    threshold = tol * (1.0 - beta) / (2.0 * beta)
    entries = math.prod(cost.shape[1:])
    out = np.empty(cost.shape)
    live = np.arange(len(cost))
    q, q_next, gap = np.zeros(cost.shape), np.empty(cost.shape), np.empty(cost.shape)
    low, within = np.empty(cost.shape[:2]), np.empty(cost.shape, dtype=bool)
    for _ in range(_MAX_VALUE_ITERATIONS):
        np.copyto(low, q[..., 0])
        for a in range(1, cost.shape[-1]):
            np.minimum(low, q[..., a], out=low)
        _backup(cost, kernel, beta, low, out=q_next)
        np.abs(np.subtract(q_next, q, out=gap), out=gap)
        if np.count_nonzero(np.less_equal(gap, threshold, out=within)) >= entries:
            done = within.reshape(len(live), -1).all(axis=1)
            if done.any():
                out[live[done]] = q_next[done]
                keep = ~done
                live, cost, kernel = live[keep], cost[keep], kernel[keep]
                if not live.size:
                    return out
                q_next[: live.size] = q_next[keep]
                q, q_next, gap, low, within = (
                    a[: live.size] for a in (q, q_next, gap, low, within)
                )
        q, q_next = q_next, q
    raise RuntimeError("value iteration failed to reach the stopping threshold")


def _policy_iteration(
    cost: np.ndarray, kernel: np.ndarray, beta: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Howard policy iteration on the stacks ``_value_iteration`` takes, with
    its product (``_backup``, one gemv per member). Each member starts from
    its greedy policy on cost, is evaluated by one batched linear solve of
    I - beta P_pi per step, and keeps each action unless another is lower by
    more than gamma Q (below), so neither ties nor their rounding can cycle;
    the steps grow with the policies tried, not with 1 / (1 - beta). A stable
    member leaves the stack and must pass one Bellman check,
    max |T q - q| <= max(tol, floor), which bounds its sup error by that over
    1 - beta, or raise RuntimeError (precision lost), as does a member not
    settled within _MAX_POLICY_ITERATIONS steps. A non-finite cost or kernel
    entry is a ValueError. Returns the tables and each member's Bellman
    residual as computed (0 for beta = 0).

    The floor is 5 gamma Q, with gamma = (S + 2) u, u = eps / 2,
    Q = M / (1 - beta) and M = max |c| of the member: what rounding alone
    leaves. Q bounds every policy's value (M + beta Q = Q), and a backup
    fl(c + beta K w), S products summed in any order, a scale and an add,
    lies within gamma Q of c + beta K w for |w| <= Q. At a stable policy pi
    the member holds the solve's v and p = fl(c + beta K v), with
    p_pi = v + s + e, s = c_pi + beta K_pi v - v the solve's residual,
    |e| <= gamma Q, and min p >= p_pi - gamma Q. The check's backup of min p
    lies within beta (|s| + 2 gamma Q) + gamma Q of c + beta K v, and p
    within gamma Q, so the computed residual is at most
    (1 + u) (|s| + 4 gamma Q). The fifth gamma Q is room for |s|, which LU
    with partial pivoting keeps to a few u |v| on these diagonally dominant
    matrices (``test_residuals_stay_below_the_floor`` scans for it)."""
    _check_finite(cost, kernel)
    if beta == 0.0:
        return cost.copy(), np.zeros(len(cost))
    num_states = cost.shape[1]
    states, eye = np.arange(num_states), np.eye(num_states)
    # gamma Q per member (see above): the switching slack and the floor's unit
    slack = (num_states + 2) * (np.finfo(float).eps / 2.0) / (1.0 - beta)
    slack = slack * np.abs(cost).reshape(len(cost), -1).max(axis=1)
    out, residuals = np.empty_like(cost), np.empty(len(cost))
    live = np.arange(len(cost))
    policy = cost.argmin(axis=-1)
    for _ in range(_MAX_POLICY_ITERATIONS):
        rows = np.arange(len(live))[:, None]
        chosen = np.linalg.solve(
            eye - beta * kernel[rows, states, policy], cost[rows, states, policy][..., None]
        )
        q = _backup(cost, kernel, beta, chosen[..., 0])
        best = q.argmin(axis=-1)
        better = q[rows, states, best] < q[rows, states, policy] - slack[:, None]
        done = ~better.any(axis=1)
        if done.any():
            q, settled = q[done], live[done]
            backup = _backup(cost[done], kernel[done], beta, q.min(axis=-1))
            residual = np.abs(backup - q).reshape(len(q), -1).max(axis=1)
            bound = np.maximum(tol, 5.0 * slack[done])
            if not (residual <= bound).all():
                k = np.argmax(residual - bound)
                raise RuntimeError(
                    f"policy iteration lost precision: Bellman residual {residual[k]:.3g} "
                    f"above {bound[k]:.3g} (tol {tol:.3g} or its float floor) at discount {beta}"
                )
            out[settled], residuals[settled] = q, residual
            live, cost, kernel, slack = (a[~done] for a in (live, cost, kernel, slack))
            if not live.size:
                return out, residuals
        policy = np.where(better, best, policy)[~done]
    raise RuntimeError("policy iteration did not settle")


def _up(x: np.ndarray | float) -> np.ndarray:
    """The next float above x: an upper bound on the exact result of the
    one rounded-to-nearest operation that gave x."""
    return np.nextafter(x, np.inf)


def _down(x: np.ndarray | float) -> np.ndarray:
    """The next float below x: a lower bound, as ``_up`` is an upper one."""
    return np.nextafter(x, -np.inf)


# a tol near the float maximum overflows the margin to inf, which is its value
@np.errstate(over="ignore")
def _margin(
    q: np.ndarray, residual: np.ndarray, kernel: np.ndarray, beta: float, tol: float
) -> np.ndarray:
    """Per member of a policy-iteration stack, from its table p (K, S, A),
    its computed Bellman residual and its kernel: a margin m such that every
    test ``ExactAnalysis`` reads off two entries decides on p as on the
    table v of ``_value_iteration`` unless the test's operand lies within 2m
    of its threshold (m + m' for entries of two members).

    Derivation, with u = eps / 2 the unit roundoff, gamma = (S + 1) u /
    (1 - (S + 1) u) (Higham's gamma_{S+1}), |.| the max norm of a member's
    table, P = |p| and T the exact Bellman operator of the stored cost c and
    kernel, T q = c + beta K min q (min over actions):
    - T is a kappa-contraction, kappa = beta rho with rho the largest row
      mass of K, whose float sum of S terms is within gamma of it.
    - One float backup fl(T) q, a sum of S products (BLAS, any order), a
      scale and an add, satisfies |fl(T) q - T q| <= gamma (|q| + |fl(T) q|).
    - Value iteration stops at v = fl(T) w once its computed gap is at most
      its computed threshold th, so the exact gap g = |v - w| <= th / (1 - u).
      From |v - q*| <= |fl(T) w - T w| + kappa |w - q*| and
      |w - q*| <= g + |v - q*|: (1 - kappa) |v - q*| <= kappa g
      + gamma (2 |v| + g).
    - Policy iteration's computed residual r bounds the exact
      |fl(T) p - p| by r / (1 - u), so (1 - kappa) |p - q*| <= r / (1 - u)
      + gamma (2 P + r / (1 - u)).
    - With |v| <= P + D, the distance D = |v - p| satisfies
      D <= (kappa th' + r' + gamma (4 P + th' + r')) / (1 - kappa - 2 gamma),
      th' = th / (1 - u), r' = r / (1 - u).
    The tests take float differences of two entries, each operation moving
    its result by at most u times its magnitude:
    - greedy, v_a <= fl(v_b + tol) (``_greedy_mask``, whose min + tol is the
      least of these): if v and p decide it apart, |(p_a - p_b) - tol| <=
      2 D + u (P + D + tol), and ``_reaching`` reads that through
      fl(|fl(|fl(p_a - p_b)|) - tol|), within u (4 P + tol) (1 + u) more;
    - ``delta_bar``, the least gap fl(|v_a - v_b|) >= 10 tol: the two
      tables' gaps differ by at most 2 D + u (4 P + 2 D), and ``_reaching``
      adds 2m to or takes it from a gap, one rounding of u (2 P + 2 m);
    - ``gap``, the largest shift fl(|v - v'|) of a plain and a softened
      member: the two readings differ by at most D + D' + u (2 P + 2 P' +
      D + D'), and the sum m + m' and the bounds round by u (P + P' +
      2 m + 2 m').
    So m = D + 4 u (P + D + tol) covers each: 2m (m + m' for two members)
    exceeds every sum above. Every operation here is evaluated in float and
    stepped one float outwards (``_up``, ``_down``), so the computed m bounds
    the exact one. With 1 - kappa - 2 gamma <= 0 the margin is inf.
    ``_solve_stack`` takes it, with ``refine``, for each call at beta > 0;
    at beta = 0 both solvers return the costs, and the margin is 0."""
    u = np.finfo(float).eps / 2.0
    n = kernel.shape[-1] + 1
    gamma = _up(n * u / (1.0 - n * u))
    rho = _up(kernel.sum(axis=-1).reshape(len(q), -1).max(axis=1) * _up(1.0 + 2.0 * gamma))
    kappa = _up(beta * rho)
    room = _down(_down(1.0 - kappa) - 2.0 * gamma)
    th = _up(tol * (1.0 - beta) / (2.0 * beta) / (1.0 - u))
    r = _up(residual / (1.0 - u))
    size = np.abs(q).reshape(len(q), -1).max(axis=1)
    spread = _up(gamma * _up(_up(4.0 * size + th) + r))
    dist = _up(_up(_up(kappa * th) + r) + spread)
    dist = np.where(room > 0.0, _up(dist / np.maximum(room, u)), np.inf)
    return _up(dist + _up(4.0 * u * _up(_up(size + dist) + tol)))


def q_star(
    game: StochasticGame, player: int, others: Sequence[StationaryPolicy], tol: float
) -> QTable:
    """Optimal Q-function against the opponents' stationary policies.

    Runs value iteration on Q-factors from the all-zero table; the stopping
    rule (successive gap <= tol * (1 - beta) / (2 * beta), direct pass for
    beta = 0) guarantees a sup-norm error of at most ``tol``.
    """
    tol = check_input("tol", tol)
    mdp = induced_mdp(game, player, others)
    values = _value_iteration(mdp.cost[None], mdp.kernel[None], mdp.discount, tol)
    return QTable(player, values[0])


def policy_value(
    game: StochasticGame, player: int, joint: Sequence[StationaryPolicy]
) -> np.ndarray:
    """Player's expected discounted cost per initial state when everyone
    (player included) follows the given joint stationary policy: the player's
    own policy evaluated on ``induced_mdp``'s rows against the others, by a
    direct solve."""
    seen = sorted(pol.player for pol in joint)
    if seen != list(range(game.num_players)):
        raise ValueError("joint policy must contain exactly one policy per player")
    mdp = induced_mdp(game, player, [pol for pol in joint if pol.player != player])
    (own,) = (pol.probs for pol in joint if pol.player == player)
    if own.shape != mdp.cost.shape:
        raise ValueError(f"policy for player {player} has the wrong shape")
    cost = (mdp.cost * own).sum(axis=1)
    transition = (mdp.kernel * own[..., None]).sum(axis=1)
    return np.linalg.solve(np.eye(game.num_states) - mdp.discount * transition, cost)


def _greedy_mask(values: np.ndarray, eps: float) -> np.ndarray:
    """Actions within eps of their state's best value (over the last axis):
    the one eps-greedy rule behind ``br_hat``, the equilibrium tests and the
    best-response graph."""
    return values <= values.min(axis=-1, keepdims=True) + eps


def br_hat(q: QTable, eps: float) -> list[DeterministicPolicy]:
    """All deterministic policies that are eps-greedy with respect to q
    in every state. Nonempty for eps >= 0."""
    eps = _check("nonnegative", "eps", eps)
    allowed = [np.flatnonzero(row).tolist() for row in _greedy_mask(q.values, eps)]
    return [DeterministicPolicy(q.player, combo) for combo in itertools.product(*allowed)]


def is_equilibrium(
    game: StochasticGame, joint: JointDeterministicPolicy, eps: float, tol: float
) -> bool:
    """True iff every player's policy is an eps-best-response to the rest,
    judged on exact Q-values with numerical slack tol."""
    return label_equilibria(game, [joint.choices], tol, eps)[0]


def label_equilibria(
    game: StochasticGame,
    joints: Sequence[Sequence[Sequence[int]]],
    tol: float,
    eps: float = 0.0,
) -> list[bool]:
    """Per joint (per-player choice tuples), whether every player's policy is
    an eps-best-response to the others', judged on exact Q-values with
    numerical slack tol: the rule of ``ExactAnalysis.grids``, and the same
    label alone or among any other joints. Each player solves only the
    distinct opponent joints among ``joints``, one choice array per player,
    all in one ``_solve_stack`` call (one solver call per group of players
    that share a discount and an action count), so the work grows with the
    joints given, not with the joint-policy space.
    A joint without one policy per player, or with a policy that breaks the
    choice rule (``game_model._choice_for``), is a ValueError naming it.

    The stacks are solved as the analysis solves them, by policy iteration
    (``_solve_stack``), but no member is solved again by value iteration:
    every member of a game with exactly tied Q-values would be. So a label
    equals membership in ``ExactAnalysis(game, tol).equilibria`` except
    where some Q-gap lies within the member's margin (``_margin``) of the tol
    slack, where the analysis reads value iteration's digits."""
    tol, eps = check_input("tol", tol), _check("nonnegative", "eps", eps)
    num_players, num_states = game.num_players, game.num_states
    checked = []
    for joint in joints:
        try:
            if len(joint) != num_players:
                raise ValueError(f"{len(joint)} policies for {num_players} players")
            checked.append(tuple(_choice_for(game, i, c) for i, c in enumerate(joint)))
        except ValueError as exc:
            raise ValueError(f"joint {joint!r} is not a joint policy of this game: {exc}") from None
    opponents, rows = {}, []
    for i in range(num_players):
        # each distinct opponent joint and the stack row that solves it
        distinct: dict[tuple[tuple[int, ...], ...], int] = {}
        rows.append([distinct.setdefault(joint[:i] + joint[i + 1 :], len(distinct)) for joint in checked])
        opponents[i] = np.array(list(distinct), dtype=np.intp).reshape(
            len(distinct), num_players - 1, num_states
        )
    solved = _solve_stack(game, tol, [(0.0,) * num_players], opponents)
    labels = np.ones(len(checked), dtype=bool)
    for i, rows_i in enumerate(rows):
        own = np.array([joint[i] for joint in checked], dtype=np.intp).reshape(-1, num_states)
        rows_of = np.array(rows_i, dtype=np.intp)[:, None]
        mask = _greedy_mask(solved[i][0], eps + tol)
        labels &= mask[rows_of, np.arange(num_states), own].all(axis=1)
    return labels.tolist()


def _action_gaps(q: np.ndarray) -> np.ndarray:
    """|q[..., a] - q[..., b]| over the action pairs a < b of each state:
    (..., A (A - 1) / 2). A float difference only changes sign when its
    operands swap, so these hold every gap between two distinct actions."""
    a, b = _action_pairs(q.shape[-1])
    return np.abs(q[..., a] - q[..., b])


@functools.cache
def _action_pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The action pairs a < b of ``count`` actions (``np.triu_indices``),
    computed once per count and read-only, as they are shared."""
    pairs = np.triu_indices(count, 1)
    for half in pairs:
        half.setflags(write=False)
    return pairs


def _solve_stack(
    game: StochasticGame,
    tol: float,
    rhos: Sequence[Sequence[float]],
    opponents: Mapping[int, np.ndarray],
    refine: bool = False,
) -> dict[int, np.ndarray]:
    """Q* of each player i of ``opponents`` against its deterministic opponent
    joints ``opponents[i]``, a (K_i, N - 1, S) int array of the opponents'
    action ids (joint, opponent in id order, state), once per rho set of
    ``rhos``, each opponent j softened by rho[j] as ``soften_policy`` does:
    ``{i: (R, K_i, S, A_i)}``, one row per rho set and per joint.

    Players that share a discount and an action count form one group, whose
    members (player, then rho set, then joint) are solved in calls of at
    most _SOLVE_MEMBERS, so a game whose players all share both makes one
    call. Each call is solved by policy iteration (``_policy_iteration``),
    whose cost does not grow like 1 / (1 - beta) with the discount and whose
    Bellman check reads tol, or the float floor where tol lies below it.
    Each member's result does not depend on the others in its call.

    A member's cost and kernel row at state s depend only on its opponents'
    actions at s, so each run (one player and one rho set) has at most
    S * C distinct rows, C the product of the opponents' action counts,
    however many joints it solves. Each player builds the rows its members
    use once (``_row_stack``, by ``_row_codes``), and each call's stacks are
    one gather from the group's row tables, with the bytes of a product per
    member: 15 rows per run on a 2p5s3a game, whose 243 joints hold 1 215
    member rows, and never more rows than the members hold.

    Policy iteration's tables differ from value iteration's in the last
    digits, within each member's margin (``_margin``; 0 at beta = 0). With
    ``refine`` (``ExactAnalysis``), the joints whose value-iteration digits
    can reach a result (``_reaching``) are solved again by value iteration
    at every rho set, gathered from the same rows, so every digit the
    analysis reports is value iteration's, whichever solver ran first:
    neither a member's induced MDP nor its value-iteration table depends on
    the other members of its call."""
    num_states = game.num_states
    out, margins, solved = {}, {}, []
    groups: dict[tuple[float, int], list[int]] = {}
    for i in opponents:
        groups.setdefault((game.discounts[i], game.action_counts[i]), []).append(i)
    for (beta, count), players in groups.items():
        # the group's row tables, player by player, and each member's row
        # per state: its player's offset plus its pair's row at its rho set
        tables, index, offset = [], [], 0
        for i in players:
            codes = _row_codes(game, i, opponents[i])
            lookup, cost, kernel = _row_stack(game, i, rhos, codes)
            runs = offset + np.arange(len(rhos))[:, None, None]
            index.append((runs + lookup[codes] * len(rhos)).reshape(-1, num_states))
            tables.append((cost, kernel))
            offset += len(cost)
        cost_rows, kernel_rows = (np.concatenate(parts) for parts in zip(*tables))
        index = np.concatenate(index)
        q, m = np.empty((len(index), num_states, count)), np.zeros(len(index))
        for lo in range(0, len(index), _SOLVE_MEMBERS):
            call = slice(lo, lo + _SOLVE_MEMBERS)
            cost, kernel = cost_rows[index[call]], kernel_rows[index[call]]
            q[call], residual = _policy_iteration(cost, kernel, beta, tol)
            if refine and beta > 0.0:
                m[call] = _margin(q[call], residual, kernel, beta, tol)
        first = 0
        for i in players:
            size = len(rhos) * len(opponents[i])
            out[i] = q[first : first + size].reshape(len(rhos), -1, num_states, count)
            margins[i] = m[first : first + size].reshape(len(rhos), -1)
            first += size
        solved.append((beta, players, q, cost_rows, kernel_rows, index))
    if refine:
        marked = _reaching(out, margins, tol)
        for beta, players, q, cost_rows, kernel_rows, index in solved:
            # each marked joint at every rho set, written into the group's
            # flat table, of which out[i] are views
            picked = np.flatnonzero(np.concatenate([np.tile(marked[i], len(rhos)) for i in players]))
            for lo in range(0, len(picked), _SOLVE_MEMBERS):
                call = picked[lo : lo + _SOLVE_MEMBERS]
                q[call] = _value_iteration(cost_rows[index[call]], kernel_rows[index[call]], beta, tol)
    return out


def _reaching(
    tables: Mapping[int, np.ndarray], margins: Mapping[int, np.ndarray], tol: float
) -> dict[int, np.ndarray]:
    """Per player, the (K,) opponent joints of ``_solve_stack``'s ``tables``
    ({i: (R, K, S, A)}, R = 1 or 2) whose value-iteration digits can reach
    a result of ``ExactAnalysis``, with m each member's margin (``margins``,
    {i: (R, K)}; see ``_margin``, whose derivation covers the float
    operations here), a member at beta = 0 (m = 0, value iteration's bytes
    already) never marking its joint:
    - a member with a gap within 2m of tol, where a greedy test of
      ``grids`` may flip;
    - a member with a gap that may count for ``delta_bar`` (at least
      10 * tol - 2m) and may be its minimum (at most 2m below the least
      upper end among the gaps that surely count);
    - with R = 2 (the softened table), the plain and softened members of a
      joint whose shift may be the ``gap`` maximum (at most m_plain + m_soft
      above the greatest lower end).
    Once these hold value iteration's bytes, each of those results
    equals, bit for bit, the one read off a table solved by value
    iteration alone: its deciding entries carry those bytes, and every
    other entry lies on the same side of every test."""
    marked = {}
    gaps = {i: _action_gaps(q[0]) for i, q in tables.items()}
    reach = {i: 2.0 * m[0][:, None, None] for i, m in margins.items()}
    sure = [(g + reach[i])[g - reach[i] >= 10.0 * tol] for i, g in gaps.items()]
    upper = min(s.min(initial=math.inf) for s in sure)
    for i, g in gaps.items():
        may_be_least = (g + reach[i] >= 10.0 * tol) & (g - reach[i] <= upper)
        near = np.abs(g - tol) <= reach[i]
        marked[i] = (near | may_be_least).any(axis=(1, 2)) & (margins[i][0] > 0.0)
    shift = {i: np.abs(q[0] - q[1]).reshape(q.shape[1], -1) for i, q in tables.items() if len(q) == 2}
    if shift:
        both = {i: margins[i].sum(axis=0)[:, None] for i in shift}
        lower = max((s - both[i]).max(initial=-math.inf) for i, s in shift.items())
        for i, s in shift.items():
            marked[i] |= (s + both[i] >= lower).any(axis=1) & (margins[i] > 0.0).any(axis=0)
    return marked


def _row_stack(
    game: StochasticGame, player: int, rhos: Sequence[Sequence[float]], codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows among ``codes`` (``_row_codes``) at each rho set of
    ``rhos``: one ``_induced_stack`` at the U (state, combination) pairs
    that occur, each at each rho set, opponent j's factor its action there
    softened by rho[j] (``game_model._softened``, the rule of
    ``soften_policy``). Returns the (S * C,) index of each pair among the U
    (``lookup``), costs (U * R, A) and kernels (U * R, A, S); pair p's row
    at rho set r is lookup[p] * R + r, with the bytes of ``induced_mdp``'s
    row at p's state against any such softened opponents that play p: the
    same factors, multiplied and summed in the same order."""
    counts = game.action_counts
    others = [j for j in range(game.num_players) if j != player]
    combos = math.prod(counts[j] for j in others)
    present = np.zeros(game.num_states * combos, dtype=bool)
    present[codes] = True
    states, combo = np.divmod(np.flatnonzero(present), combos)
    rho = np.array(rhos, dtype=float).T[:, :, None]
    factors = []
    for j in reversed(others):
        combo, digit = np.divmod(combo, counts[j])
        factors.append((j, _softened(digit[:, None], rho[j], counts[j]).reshape(-1, counts[j])))
    cost, kernel = _induced_stack(game, player, states.repeat(len(rhos)), factors[::-1])
    return np.cumsum(present, dtype=np.intp) - 1, cost, kernel


def _row_codes(game: StochasticGame, player: int, opponents: np.ndarray) -> np.ndarray:
    """The (K, S) row code of each of the (K, N - 1, S) opponent choice
    arrays at each state: the state times C plus the opponents' combination
    there (mixed radix in id order, the first slowest; C the product of
    their action counts). Computed in ``np.intp``: the choice arrays may be
    one byte wide, and a narrow product would wrap."""
    code = np.zeros((len(opponents), game.num_states), dtype=np.intp)
    code += np.arange(game.num_states)
    for k, j in enumerate(j for j in range(game.num_players) if j != player):
        code *= game.action_counts[j]
        code += opponents[:, k]
    return code


class ExactAnalysis:
    """The exact analysis of one game at one tolerance.

    It takes only the inputs it reads: the game, ``tol``, ``budget`` and,
    for the softened table and the perturbation bound, ``rhos`` and
    ``deltas``; the constructor checks each one given (``budget`` is a
    count), whatever else is given, and holds it as Python numbers. Each
    attribute is built on first use and cached:
    ``table`` (per player, Q* against every deterministic opponent joint in
    ``itertools.product`` order), the greedy ``grids``, ``equilibria``,
    ``delta_bar``, ``softened`` (the table against opponents softened by
    ``rhos``), ``gap`` and ``bound``. Each player's opponent joints are
    decoded once, and every player's are solved in one ``_solve_stack``
    call: one policy-iteration stack per group of players that share a
    discount and an action count, holding the plain and, when ``rhos`` are
    given, the softened members together, so ``table`` and ``softened``
    share one cached solve.

    The digits the results read are value iteration's: the same call
    (``refine``) solves again by value iteration the joints whose digits can
    reach a result (``_reaching``), so the grids, ``equilibria``, path
    lengths, ``delta_bar`` and ``gap`` equal, bit for bit, those of a solve of
    every member by value iteration. ``table`` and ``softened`` hold value
    iteration's bytes on those members and policy iteration's elsewhere.

    The best-response graph is held as arrays over the nodes, the joint
    policies in ``itertools.product`` order (the flat (C) order of the
    grids): ``equilibrium_mask`` and the float ``path_len``, both read off
    the grids. One decode turns flat indices into choice arrays, both for
    the opponent joints the table solves and for ``choices`` of nodes. The
    sorted ``edges`` array is built only when it is read; the report never
    reads it (``acyclicity.build_br_graph`` is a view of these arrays).

    ``table`` and ``softened`` refuse, before any solve, more solves than
    ``budget``; ``grids`` (behind the equilibria and the graph arrays) hold
    one boolean per joint policy and first refuse more joint policies than that.
    """

    def __init__(
        self,
        game: StochasticGame,
        tol: float,
        budget: int = DEFAULT_SOLVE_BUDGET,
        rhos: Sequence[float] | None = None,
        deltas: Sequence[float] | None = None,
    ) -> None:
        self.game, self.tol = game, check_input("tol", tol)
        self.budget = _check("count", "budget", budget)
        self.rhos, self.deltas = (
            None if values is None else check_per_player(game, name, values)
            for name, values in (("rho", rhos), ("delta", deltas))
        )
        self._sizes = [count**game.num_states for count in game.action_counts]

    @functools.cached_property
    def _solved(self) -> list[np.ndarray]:
        """Per player, Q* against every opponent joint, from one grouped
        ``_solve_stack`` call, with value iteration again on the joints
        ``_reaching`` marks: (1, K, S, A), the plain table, or (2, K, S, A)
        with the softened one. Both solves gather from one build of each
        player's rows (``_row_stack``)."""
        sizes = self._sizes
        solves = sum(math.prod(sizes[:i] + sizes[i + 1 :]) for i in range(len(sizes)))
        if solves > self.budget:
            raise EnumerationBudgetError(
                f"the best-response table needs {solves} exact solves, "
                f"above the budget of {self.budget}"
            )
        rhos = [(0.0,) * self.game.num_players]
        if self.rhos is not None:
            rhos.append(self.rhos)
        players = range(len(sizes))
        opponents = {}
        for i in players:
            others = [j for j in players if j != i]
            opponents[i] = self._decode(others, np.arange(math.prod(sizes[j] for j in others)))
        solved = _solve_stack(self.game, self.tol, rhos, opponents, refine=True)
        return [solved[i] for i in players]

    @functools.cached_property
    def table(self) -> list[np.ndarray]:
        return [q[0] for q in self._solved]

    @functools.cached_property
    def softened(self) -> list[np.ndarray]:
        if self.rhos is None:
            raise ValueError("the softened table needs rhos")
        return [q[1] for q in self._solved]

    @functools.cached_property
    def _policies(self) -> list[np.ndarray]:
        """Per player, every deterministic policy as a (P, S) choice array."""
        num_states = self.game.num_states
        return [
            np.array(enumerate_deterministic_policies(num_states, m), dtype=np.intp)
            for m in self.game.action_counts
        ]

    def _decode(self, players: Sequence[int], flat: np.ndarray) -> np.ndarray:
        """Choice arrays (K, len(players), S) of flat indices over the joint
        policies of ``players`` (``itertools.product`` order of their
        policies); no players give (K, 0, S). The entries take the smallest
        dtype that holds an action id, as ``_solved`` keeps every player's
        opponent joints at once."""
        dtype = np.min_scalar_type(max(self.game.action_counts) - 1)
        out = np.empty((len(flat), len(players), self.game.num_states), dtype=dtype)
        if players:
            digits = np.unravel_index(flat, [self._sizes[j] for j in players])
            for k, (j, digit) in enumerate(zip(players, digits)):
                out[:, k] = self._policies[j][digit]
        return out

    @functools.cached_property
    def grids(self) -> list[np.ndarray]:
        """Per player i, a boolean array over the deterministic joint policies
        (indexed by policy, shape (P_0, ..., P_{N-1})): True where i's policy
        is tol-greedy against the others' in every state."""
        sizes = self._sizes
        if math.prod(sizes) > self.budget:
            raise EnumerationBudgetError(
                f"joint policy space has {math.prod(sizes)} nodes, "
                f"above the budget of {self.budget}"
            )
        grids = []
        for i, q in enumerate(self.table):
            mask = _greedy_mask(q, self.tol)
            choices = self._policies[i]
            greedy = np.ones((len(q), sizes[i]), dtype=bool)
            for x in range(self.game.num_states):
                greedy &= mask[:, x, choices[:, x]]
            shape = sizes[:i] + sizes[i + 1 :] + [sizes[i]]
            grids.append(np.moveaxis(greedy.reshape(shape), -1, i))
        return grids

    def choices(self, nodes: Sequence[int]) -> list[tuple[tuple[int, ...], ...]]:
        """Per-player choice tuples of the given nodes, in the order given."""
        players = range(self.game.num_players)
        joints = self._decode(players, np.asarray(nodes, dtype=np.intp)).tolist()
        return [tuple(map(tuple, joint)) for joint in joints]

    @functools.cached_property
    def equilibrium_mask(self) -> np.ndarray:
        """True at each node that is an equilibrium, over the nodes in flat order."""
        return functools.reduce(np.logical_and, self.grids).ravel()

    @functools.cached_property
    def equilibria(self) -> frozenset[tuple[tuple[int, ...], ...]]:
        return frozenset(self.choices(np.flatnonzero(self.equilibrium_mask)))

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """Strict best-response edges as (source, target, deviator) rows,
        sorted by source, then deviator, then target, read-only; built only
        when read."""
        grids = self.grids
        sizes = self._sizes
        num_nodes = grids[0].size
        edges = []
        for i, grid in enumerate(grids):
            # Every node whose player-i policy is a best response receives an
            # edge from each node that differs from it in player i's policy only.
            stride = num_nodes // math.prod(sizes[: i + 1])
            target = np.flatnonzero(grid)[:, None]
            source = target + (np.arange(sizes[i]) - target // stride % sizes[i]) * stride
            rows = np.stack(np.broadcast_arrays(source, target, i), axis=-1)
            edges.append(rows[source != target])
        edges = np.concatenate(edges)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 2], edges[:, 0]))]
        edges.setflags(write=False)
        return edges

    @functools.cached_property
    def path_len(self) -> np.ndarray:
        """Per node, the length of a shortest strict best-response path into
        the equilibria (``math.inf`` if none), by reverse breadth-first search
        on the grids: a frontier node where ``grids[i]`` is True is the target
        of an edge from every other node on its player-i line. Read-only, as
        ``acyclicity.build_br_graph`` shares it."""
        grids = self.grids
        frontier = self.equilibrium_mask.reshape(grids[0].shape)
        path_len, level = np.where(frontier, 0.0, math.inf), 0.0
        while frontier.any():
            level += 1.0
            reached = np.zeros_like(frontier)
            for i, grid in enumerate(grids):
                reached |= (frontier & grid).any(axis=i, keepdims=True)
            frontier = reached & np.isinf(path_len)
            path_len[frontier] = level
        path_len = path_len.ravel()
        path_len.setflags(write=False)
        return path_len

    @functools.cached_property
    def delta_bar(self) -> float:
        """Minimum nonzero same-state gap between optimal Q-factors, over all
        players and opponent joints; gaps below 10 * tol count as exact ties
        (solver noise), and ``math.inf`` means no nonzero gap remains."""
        gaps = np.concatenate([_action_gaps(q).ravel() for q in self.table])
        nonzero = gaps[gaps >= 10.0 * self.tol]
        return float(nonzero.min()) if nonzero.size else math.inf

    @functools.cached_property
    def gap(self) -> float:
        """Largest sup-norm shift of any player's optimal Q-function when
        every opponent joint is softened by ``rhos``."""
        return max(float(np.abs(q - s).max()) for q, s in zip(self.table, self.softened))

    @functools.cached_property
    def bound(self) -> float:
        """The gap's tolerance margin, min_i min(delta_i, delta_bar - delta_i) / 4."""
        if self.deltas is None:
            raise ValueError("the perturbation bound needs deltas")
        return min(min(d, self.delta_bar - d) for d in self.deltas) / 4.0


def check_reachability(game: StochasticGame) -> bool:
    """True iff the state graph (edge s -> s' when some joint action moves
    s to s' with positive probability) is strongly connected."""
    n = game.num_states
    positive = game.kernel.max(axis=1) > 0.0
    forward = [np.nonzero(positive[s])[0].tolist() for s in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    for s in range(n):
        for t in forward[s]:
            backward[t].append(s)

    def covers_all(adj: list[list[int]]) -> bool:
        seen = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for t in adj[s]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return len(seen) == n

    return covers_all(forward) and covers_all(backward)
