"""Differential tests: the stacked best-response table of ``exact_solver``
against one value-iteration solve per opponent joint (``tests/oracles.py``).

Solvers that run the same float operations compare by bytes: the stack against
the single solves (so every derived object, from the equilibria to the report's
path bound, is exactly equal) and the in-place value iteration against the
allocating one. Solvers that run other float operations (policy against value
iteration) agree within their documented error bounds, on every greedy mask and
on every object read off the masks.
"""

import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decqlearn import exact_solver
from decqlearn.acyclicity import build_br_graph, is_weakly_acyclic, path_bound_L
from decqlearn.exact_solver import (
    ExactAnalysis,
    InducedMdp,
    _greedy_mask,
    _margin,
    _policy_iteration,
    _solve_stack,
    _value_iteration,
    delta_bar,
    equilibrium_set,
    label_equilibria,
    perturbation_gap,
    q_star,
)
from decqlearn.experiments import analyze_game, build_benchmark_game
from decqlearn.game_model import (
    JointDeterministicPolicy,
    StochasticGame,
    enumerate_deterministic_policies,
)
from oracles import (
    _choice_is_greedy,
    opponent_policies,
    br_graph_enumerated,
    delta_bar_enumerated,
    equilibrium_set_enumerated,
    induced_mdp_single,
    matrix_game,
    opponent_joints,
    perturbation_gap_enumerated,
    q_star_policy_iteration,
    q_star_single,
    q_value_iteration_single,
    random_game,
    random_stationary,
    seeded_game,
    softened_stack,
    value_iteration_stack,
)

TOL = 1e-9
RHOS = (0.05, 0.1, 0.2)
# 1 and 7 split the solver calls unevenly, across players and rho sets; the
# default solves each game's group in one call.
BLOCKS = (1, 7, exact_solver._SOLVE_MEMBERS)
# (states, action counts): at most 6561 joint policies each.
SHAPES = [
    (5, (3,)),
    (4, (3, 3)),
    (5, (2, 2)),
    (3, (3, 2)),
    (3, (2, 2, 2)),
    (2, (3, 2, 3)),
    (2, (3, 3, 3)),
    # Player 0 has one action, so each sweep of its stack multiplies by a
    # (1, S) kernel row block: a dot where the other players get a gemv.
    (3, (1, 3)),
]


def _shaped_game(rng, num_states, counts, beta=0.6, ties=False) -> StochasticGame:
    """Random dense game of the given shape; with ``ties``, 0/1 costs and one
    shared uniform kernel row, so many Q-values tie exactly."""
    num_joint = int(np.prod(counts))
    if ties:
        costs = tuple(rng.integers(0, 2, size=(num_states, num_joint)) * 1.0 for _ in counts)
        kernel = np.full((num_states, num_joint, num_states), 1.0 / num_states)
    else:
        costs = tuple(rng.uniform(0.0, 10.0, size=(num_states, num_joint)) for _ in counts)
        kernel = rng.uniform(0.1, 1.0, size=(num_states, num_joint, num_states))
        kernel /= kernel.sum(axis=2, keepdims=True)
    return StochasticGame(
        states=tuple(f"s{k}" for k in range(num_states)),
        action_sets=tuple(tuple(f"a{k}" for k in range(m)) for m in counts),
        costs=costs,
        discounts=(beta,) * len(counts),
        kernel=kernel,
        initial_dist=np.full(num_states, 1.0 / num_states),
    )


def _staggered_game() -> StochasticGame:
    """Player 1's action scales player 0's costs by 1e-6 or 10, so player 0's
    best responses to different opponent joints need very different numbers
    of sweeps; player 0 has discount 0 in the direct-pass variant."""
    rng = np.random.default_rng(11)
    base = rng.uniform(1.0, 2.0, size=(3, 2))
    scale = np.array([1e-6, 10.0])
    cost0 = (base[:, :, None] * scale[None, None, :]).reshape(3, 4)
    kernel = rng.uniform(0.1, 1.0, size=(3, 4, 3))
    kernel /= kernel.sum(axis=2, keepdims=True)
    return StochasticGame(
        states=("s0", "s1", "s2"),
        action_sets=(("a0", "a1"), ("b0", "b1")),
        costs=(cost0, rng.uniform(0.0, 1.0, size=(3, 4))),
        discounts=(0.95, 0.9),
        kernel=kernel,
        initial_dist=np.full(3, 1.0 / 3.0),
    )


def _games():
    yield "benchmark", build_benchmark_game()
    # Matching pennies: no deterministic equilibrium, not weakly acyclic.
    yield "pennies", matrix_game([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    # Matching pennies on actions {0, 1} (player 0 matches, player 1
    # mismatches) and an equilibrium at (2, 2), each player's only best
    # response to the other's 2. A node that plays 2 reaches it; the pennies
    # cycle never leaves {0, 1}, so its four nodes have no path.
    yield "dead-end", matrix_game(
        [[0, 1, 1], [1, 0, 1], [2, 2, 0]], [[1, 0, 2], [0, 1, 2], [1, 1, 0]]
    )
    for seed, (num_states, counts) in enumerate(SHAPES):
        game = _shaped_game(np.random.default_rng(seed), num_states, counts)
        yield f"random-{len(counts)}p{num_states}s-{seed}", game
    yield "ties", _shaped_game(np.random.default_rng(8), 3, (2, 3), ties=True)
    zero = _shaped_game(np.random.default_rng(7), 3, (3, 2))
    yield "beta-zero", dataclasses.replace(zero, discounts=(0.0, 0.6))
    yield "staggered", _staggered_game()


GAMES = dict(_games())


@pytest.fixture(params=sorted(GAMES))
def game(request):
    return GAMES[request.param]


def _rhos(game):
    return RHOS[: game.num_players]


def _opponents(game, i):
    """Every opponent joint of player i as a (K, N - 1, S) choice array, in
    the oracle's ``itertools.product`` order."""
    joints = list(opponent_joints(game, i))
    shape = (len(joints), game.num_players - 1, game.num_states)
    return np.array(joints, dtype=np.intp).reshape(shape)


def _solver_bound(beta):
    """Sup distance between a policy- and a value-iteration table of one
    MDP: value iteration's bound tol / 2 plus policy iteration's, its
    Bellman residual (at most tol) over 1 - beta."""
    return TOL * (0.5 + 1.0 / (1.0 - beta))


def test_tables_match_single_solves(game, monkeypatch):
    # The value-iteration stack against single solves by bytes; the
    # analysis's tables, policy iteration's but where value iteration's
    # digits reach a result, within the solver bound.
    rhos, plain = _rhos(game), (0.0,) * game.num_players
    rng = np.random.default_rng(game.num_states)
    analysis = ExactAnalysis(game, TOL, rhos=rhos)
    players = range(game.num_players)
    opponents = {i: _opponents(game, i) for i in players}
    base, soft = {}, {}
    for i in players:
        joints = list(opponent_joints(game, i))
        base[i] = [q_star_single(game, i, opponent_policies(game, i, opp), TOL) for opp in joints]
        soft[i] = [
            q_star_single(game, i, opponent_policies(game, i, opp, rhos), TOL) for opp in joints
        ]
        bound = _solver_bound(game.discounts[i])
        assert np.abs(analysis.table[i] - base[i]).max() <= bound
        assert np.abs(analysis.softened[i] - soft[i]).max() <= bound
    # chosen rows, out of order and repeated, solve to the same rows
    members = {i: rng.integers(0, len(opponents[i]), size=11).tolist() for i in players}
    for block in BLOCKS:
        monkeypatch.setattr(exact_solver, "_SOLVE_MEMBERS", block)
        solved, chosen = _by_value_iteration(monkeypatch, lambda: (
            _solve_stack(game, TOL, [plain, rhos], opponents),
            _solve_stack(game, TOL, [rhos], {i: opponents[i][members[i]] for i in players}),
        ))
        for i in players:
            table, softened = solved[i]
            assert [q.tobytes() for q in table] == [q.tobytes() for q in base[i]]
            assert [q.tobytes() for q in softened] == [q.tobytes() for q in soft[i]]
            assert [q.tobytes() for q in chosen[i][0]] == [soft[i][k].tobytes() for k in members[i]]
    # a member of the merged stack, solved alone
    for i in players:
        for k in members[i]:
            for r, rho in enumerate((plain, rhos)):
                solve = lambda: _solve_stack(game, TOL, [rho], {i: opponents[i][k : k + 1]})
                (alone,) = _by_value_iteration(monkeypatch, solve).values()
                assert alone.shape == (1, 1) + solved[i][r, k].shape
                assert alone[0, 0].tobytes() == solved[i][r, k].tobytes()


def _random_stack(rng, size, num_states, num_actions):
    """A stack of random MDPs: costs (K, S, A) uniform in [0, 10], kernel
    rows normalized uniforms."""
    cost = rng.uniform(0.0, 10.0, size=(size, num_states, num_actions))
    kernel = rng.uniform(0.1, 1.0, size=(size, num_states, num_actions, num_states))
    return cost, kernel / kernel.sum(axis=-1, keepdims=True)


def _assert_in_place_matches(cost, kernel, beta):
    # Bytes and stopping sweeps of the in-place stack against the allocating
    # one; returns each member's stopping sweep.
    expected, sweeps = value_iteration_stack(cost, kernel, beta, TOL)
    assert _value_iteration(cost, kernel, beta, TOL).tobytes() == expected.tobytes()
    return sweeps


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99])
def test_value_iteration_matches_broadcast_product(beta):
    # Bytes against the allocating stack (one gemv broadcast over the members):
    # every S in 1..8 with every A in 1..5 below beta = 0.99; at 0.99, whose
    # ~3000 sweeps make the reference slow, each S with one A.
    rng = np.random.default_rng(int(100 * beta))
    for num_states in range(1, 9):
        actions = range(1, 6) if beta < 0.99 else [1 + num_states % 5]
        for num_actions in actions:
            size = int(rng.integers(1, 65))
            _assert_in_place_matches(*_random_stack(rng, size, num_states, num_actions), beta)


@settings(max_examples=25, deadline=None)
@given(
    num_states=st.integers(1, 8),
    num_actions=st.integers(1, 5),
    size=st.integers(1, 64),
    beta=st.sampled_from([0.0, 0.5, 0.9, 0.99]),
    seed=st.integers(0, 2**32 - 1),
)
def test_value_iteration_matches_broadcast_product_drawn(num_states, num_actions, size, beta, seed):
    rng = np.random.default_rng(seed)
    _assert_in_place_matches(*_random_stack(rng, size, num_states, num_actions), beta)


def test_value_iteration_matches_single_solves_at_eight_states():
    # At S = 8, A = 2, OpenBLAS sums K * S (2, 8) products in another order
    # than one (16, 8) product per member; the stack and the single-solve
    # oracle share the per-member shape, so they agree by bytes.
    cost, kernel = _random_stack(np.random.default_rng(8), 40, 8, 2)
    got = exact_solver._value_iteration(cost, kernel, 0.9, TOL)
    states, actions = tuple(f"s{x}" for x in range(8)), ("a0", "a1")
    for member, c, k in zip(got, cost, kernel):
        mdp = InducedMdp(states, actions, c, k, 0.9)
        assert member.tobytes() == q_value_iteration_single(mdp, TOL)[0].tobytes()


@pytest.mark.parametrize("beta", [0.5, 0.8, 0.99])
def test_in_place_value_iteration_matches_allocating_sweeps(beta):
    # Every S in 1..8 with every A in 1..5, a stack whose members retire at
    # different sweeps (costs scaled by 1e-6, 1e-3 or 1), with a zero-cost
    # member that stops at sweep 1. Then its last member alone (K = 1) and
    # three copies of it, which all retire at one sweep; at beta = 0.99,
    # whose ~3000 sweeps make the allocating reference slow, for one A per S.
    rng = np.random.default_rng(int(100 * beta))
    for num_states in range(1, 9):
        for num_actions in range(1, 6):
            cost, kernel = _random_stack(rng, 4, num_states, num_actions)
            cost *= np.array([0.0, 1e-6, 1e-3, 1.0])[:, None, None]
            sweeps = _assert_in_place_matches(cost, kernel, beta)
            assert sweeps[0] == 1 and len(set(sweeps.tolist())) == 4
            if beta == 0.99 and num_actions != 1 + num_states % 5:
                continue
            _assert_in_place_matches(cost[3:], kernel[3:], beta)
            copies = [np.repeat(a[3:], 3, axis=0) for a in (cost, kernel)]
            assert len(set(_assert_in_place_matches(*copies, beta).tolist())) == 1


@pytest.mark.parametrize("solver", [_value_iteration, _policy_iteration])
def test_stack_solvers_refuse_non_finite_input(solver):
    cost, kernel = _random_stack(np.random.default_rng(3), 5, 3, 2)
    for name, value in itertools.product(("cost", "kernel"), (np.nan, np.inf)):
        bad = {"cost": cost.copy(), "kernel": kernel.copy()}
        bad[name][4, 2, 1, ...] = value
        for beta in (0.0, 0.9):
            with pytest.raises(ValueError, match="finite costs and kernels"):
                solver(bad["cost"], bad["kernel"], beta, TOL)


def test_analysis_and_labels_refuse_a_nan_cost():
    # Value iteration would sweep a NaN gap up to _MAX_VALUE_ITERATIONS
    # times, and policy iteration would fail its Bellman check.
    game = build_benchmark_game()
    cost = game.costs[1].copy()
    cost[1, 2] = np.nan
    game = dataclasses.replace(game, costs=(game.costs[0], cost))
    with pytest.raises(ValueError, match="finite costs and kernels"):
        ExactAnalysis(game, TOL).delta_bar
    with pytest.raises(ValueError, match="finite costs and kernels"):
        label_equilibria(game, [((0, 0), (0, 1))], TOL)


def _grouped_games():
    """Games whose players split into solver groups in different ways."""
    rng = np.random.default_rng(23)
    yield "one-group", _shaped_game(rng, 3, (2, 2), beta=0.8)
    yield "unequal-actions", _shaped_game(rng, 2, (3, 2), beta=0.8)
    three = _shaped_game(rng, 2, (2, 2, 2), beta=0.8)
    yield "unequal-discounts", dataclasses.replace(three, discounts=(0.8, 0.9, 0.8))
    mixed = _shaped_game(rng, 2, (2, 3, 2), beta=0.8)
    yield "two-groups", dataclasses.replace(mixed, discounts=(0.8, 0.9, 0.8))


GROUPED = dict(_grouped_games())


@pytest.mark.parametrize("block", [3, exact_solver._SOLVE_MEMBERS])
@pytest.mark.parametrize("solver", [_value_iteration, _policy_iteration])
@pytest.mark.parametrize("name", sorted(GROUPED))
def test_grouped_solve_matches_per_player_solves(name, solver, block, monkeypatch):
    # Each player's rows and margins equal its own stacks solved one per rho
    # set, by bytes; the group of each (discount, action count) goes to the
    # solver in ceil(members / block) calls, and a block of 3 cuts across
    # players and rho sets. For value iteration, a stand-in for policy
    # iteration solves each call (_as_policy_iteration, residual 0). The
    # margins are those _reaching receives, made to mark no joint.
    game = GROUPED[name]
    players = range(game.num_players)
    rho_sets = [(0.0,) * game.num_players, _rhos(game)]
    opponents = {i: _opponents(game, i) for i in players}
    calls, seen = [], {}
    solve = _as_policy_iteration if solver is _value_iteration else solver

    def counted(cost, kernel, beta, tol):
        calls.append((len(cost), beta, cost.shape[-1]))
        return solve(cost, kernel, beta, tol)

    def unmarked(tables, margins, tol):
        seen.update(margins)
        return _unmarked(tables, margins, tol)

    monkeypatch.setattr(exact_solver, "_SOLVE_MEMBERS", block)
    monkeypatch.setattr(exact_solver, "_reaching", unmarked)
    monkeypatch.setattr(exact_solver, "_policy_iteration", counted)
    got = _solve_stack(game, TOL, rho_sets, opponents, refine=True)
    assert sorted(got) == sorted(seen) == list(players)
    for i in players:
        beta = game.discounts[i]
        tables, margins = [], []
        for rho in rho_sets:
            cost, kernel = softened_stack(game, i, rho, opponents[i])
            q, residual = solve(cost, kernel, beta, TOL)
            tables.append(q)
            margins.append(_margin(q, residual, kernel, beta, TOL))
        assert got[i].tobytes() == np.stack(tables).tobytes()
        assert seen[i].tobytes() == np.stack(margins).tobytes()
    groups: dict[tuple[float, int], int] = {}
    for i in players:
        key = (game.discounts[i], game.action_counts[i])
        groups[key] = groups.get(key, 0) + len(rho_sets) * len(opponents[i])
    assert len(groups) == (1 if name == "one-group" else 2)
    assert len(calls) == sum(-(-members // block) for members in groups.values())
    for key, members in groups.items():
        sizes = [size for size, *rest in calls if tuple(rest) == key]
        assert sum(sizes) == members and max(sizes) <= block


def _built_rows(monkeypatch) -> list:
    """Each later ``_row_stack`` call as (player, its rows), in call order."""
    built = []
    row_stack = exact_solver._row_stack

    def kept(game, player, rhos, codes):
        built.append((player, row_stack(game, player, rhos, codes)))
        return built[-1][1]

    monkeypatch.setattr(exact_solver, "_row_stack", kept)
    return built


def _unsolved(cost, kernel, beta, tol):
    """A stand-in for ``_policy_iteration`` that solves nothing."""
    return np.zeros(cost.shape), np.zeros(len(cost))


def _row_cases():
    """Games for the gathered stacks: 1 to 3 players, 1 to 5 states, 12
    actions for two players (past numpy's 8-term pairwise-sum block), -0.0
    costs and kernel rows whose tail states have zero mass."""
    rng = np.random.default_rng(24)
    shapes = [
        ((4,), 3), ((12, 12), 1), ((12, 5), 2), ((3, 12), 3), ((2, 3), 5),
        ((2, 3, 2), 4), ((4, 4, 4), 2), ((6, 5, 4), 1), ((3, 1, 2), 3),
    ]
    for counts, num_states in shapes:
        game = seeded_game(rng, counts, num_states)
        costs = [np.where(rng.random(c.shape) < 0.3, -0.0, c) for c in game.costs]
        kernel = game.kernel.copy()
        if num_states > 1:
            tail = rng.random(kernel.shape[:2]) < 0.5
            kernel[tail, num_states // 2 :] = 0.0
            kernel[tail] /= kernel[tail].sum(axis=-1, keepdims=True)
        game = dataclasses.replace(game, costs=tuple(costs), kernel=kernel)
        yield f"{len(counts)}p{num_states}s{'x'.join(map(str, counts))}", game


ROW_CASES = dict(_row_cases())


@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_gathered_stacks_match_per_member_product(name, monkeypatch):
    # Every stack a solver call receives against the per-member broadcast
    # product (oracles.softened_stack), by bytes: 40 drawn opponent joints
    # per player in the analysis's one-byte choice arrays, at an all-zero
    # and a mixed rho set, in calls of 7 members that cut across rho sets
    # and players.
    game = ROW_CASES[name]
    rho_sets = [(0.0,) * game.num_players, (0.3, 0.0, 0.05)[: game.num_players]]
    rng = np.random.default_rng(len(name))
    players = range(game.num_players)
    dtype = np.min_scalar_type(max(game.action_counts) - 1)
    opponents = {}
    for i in players:
        others = [j for j in players if j != i]
        opponents[i] = np.empty((40, len(others), game.num_states), dtype=dtype)
        for k, j in enumerate(others):
            opponents[i][:, k] = rng.integers(0, game.action_counts[j], size=(40, game.num_states))
    calls: dict[tuple[float, int], list] = {}

    def recorded(cost, kernel, beta, tol):
        calls.setdefault((beta, cost.shape[-1]), []).append((cost, kernel))
        return _unsolved(cost, kernel, beta, tol)

    monkeypatch.setattr(exact_solver, "_SOLVE_MEMBERS", 7)
    monkeypatch.setattr(exact_solver, "_policy_iteration", recorded)
    built = _built_rows(monkeypatch)
    _solve_stack(game, TOL, rho_sets, opponents)
    rows = dict(built)
    assert len(built) == len(rows) == game.num_players
    for i in players:
        # one row per (state, opponents' actions there) pair the joints play
        pairs = {(x, tuple(opp[:, x])) for opp in opponents[i] for x in range(game.num_states)}
        assert len(rows[i][1]) == len(rho_sets) * len(pairs)
    expected: dict[tuple[float, int], list] = {}
    for i in players:
        key = (game.discounts[i], game.action_counts[i])
        expected.setdefault(key, []).extend(softened_stack(game, i, rho, opponents[i]) for rho in rho_sets)
    assert sorted(calls) == sorted(expected)
    for key, stacks in expected.items():
        for got, want in zip(zip(*calls[key]), zip(*stacks)):
            got, want = np.concatenate(got), np.concatenate(want)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rows_per_run_against_every_joint(monkeypatch):
    # Every opponent joint of a 2p5s3a game: 243 joints, 1 215 member rows
    # per run, built from 5 * 3 = 15 distinct rows.
    game = _shaped_game(np.random.default_rng(5), 5, (3, 3))
    monkeypatch.setattr(exact_solver, "_policy_iteration", _unsolved)
    built = _built_rows(monkeypatch)
    _solve_stack(game, TOL, [(0.0, 0.0), (0.05, 0.05)], {i: _opponents(game, i) for i in range(2)})
    assert [(i, len(rows[1])) for i, rows in built] == [(0, 2 * 15), (1, 2 * 15)]


def test_analysis_builds_each_players_rows_once(monkeypatch):
    # The benchmark game with rhos, whose tied gaps send all 16 members
    # (2 players x 4 joints x 2 rho sets) to the value-iteration re-solve:
    # that re-solve gathers from the rows of the first solve, and so one
    # analysis builds each player's rows once. So do the labels.
    game = build_benchmark_game()
    built = _built_rows(monkeypatch)
    resolved = []
    value_iteration = exact_solver._value_iteration

    def counted(cost, kernel, beta, tol):
        resolved.append(len(cost))
        return value_iteration(cost, kernel, beta, tol)

    monkeypatch.setattr(exact_solver, "_value_iteration", counted)
    _solved(game, (0.05, 0.05))
    assert [i for i, _ in built] == [0, 1] and resolved == [16]
    label_equilibria(game, _every_joint(game), TOL)
    assert [i for i, _ in built] == [0, 1, 0, 1]


def _wide_game(counts):
    """A one-state team game at discount 0.8 with the given action counts."""
    return seeded_game(np.random.default_rng(sum(counts)), counts, 1, team=True)


@pytest.mark.parametrize("counts", [(17, 17, 17), (5,)])
def test_row_index_does_not_wrap(counts):
    # Seventeen actions fit the analysis's one-byte choice arrays, but a
    # member's row index reaches 16 * 17 + 16 = 288, past a byte: the index
    # is computed in np.intp. One player faces no opponents (one row).
    game = _wide_game(counts)
    joints = _every_joint(game)
    expected = equilibrium_set_enumerated(game, TOL)
    assert 0 < len(expected) < len(joints)
    assert ExactAnalysis(game, TOL).equilibria == expected
    assert label_equilibria(game, joints, TOL) == [joint in expected for joint in joints]
    assert label_equilibria(game, [], TOL) == []


def test_analysis_matches_broadcast_product(game, monkeypatch):
    # The exact analysis against one whose stacks policy iteration alone
    # solves (no member solved again by value iteration), at the game's own
    # discounts and with each nonzero discount at 0.99: the same greedy
    # masks, equilibria, path lengths and report fields, and delta_bar and
    # the gap within twice the sum of the two solvers' error bounds,
    # tol + tol / (1 - beta).
    at_099 = tuple(0.99 if beta else 0.0 for beta in game.discounts)
    for variant in (game, dataclasses.replace(game, discounts=at_099)):
        rhos = _rhos(variant)
        analysis = ExactAnalysis(variant, TOL, rhos=rhos)
        with monkeypatch.context() as patch:
            patch.setattr(exact_solver, "_reaching", _unmarked)
            reference = ExactAnalysis(variant, TOL, rhos=rhos)
            reference.path_len, reference.gap, reference.delta_bar
        for table in ("table", "softened"):
            for q, r in zip(getattr(analysis, table), getattr(reference, table)):
                assert np.array_equal(_greedy_mask(q, TOL), _greedy_mask(r, TOL))
        assert np.array_equal(analysis.equilibrium_mask, reference.equilibrium_mask)
        assert np.array_equal(analysis.path_len, reference.path_len)
        weakly = is_weakly_acyclic(analysis)
        assert weakly is is_weakly_acyclic(reference)
        if weakly:
            assert path_bound_L(analysis) == path_bound_L(reference)
        bound = 2.0 * TOL * (1.0 + 1.0 / (1.0 - max(variant.discounts)))
        assert analysis.delta_bar == pytest.approx(reference.delta_bar, rel=0.0, abs=bound)
        assert analysis.gap == pytest.approx(reference.gap, rel=0.0, abs=bound)


def _report(game, rhos=None, deltas=None) -> str:
    """The ``analyze`` report as the console prints it, with the
    ``exact-grid`` benchmark's lambda, eps and ratio."""
    lambdas = (0.2,) * game.num_players
    report = analyze_game(game, rhos=rhos, deltas=deltas, lambdas=lambdas, eps=0.1, ratio=3, tol=TOL)
    return json.dumps(report, indent=2, sort_keys=True)


def _solved(game, rhos=None) -> ExactAnalysis:
    """The analysis with its tables solved, so that no later read solves."""
    analysis = ExactAnalysis(game, TOL, rhos=rhos)
    analysis._solved
    return analysis


def _as_policy_iteration(cost, kernel, beta, tol):
    """A stand-in for ``_policy_iteration`` that solves by value iteration,
    with residual 0."""
    return _value_iteration(cost, kernel, beta, tol), np.zeros(len(cost))


def _by_value_iteration(monkeypatch, build):
    """``build()`` with every stack of the analysis solved by value iteration
    alone, as a full solve gives it: value iteration stands in for policy
    iteration, and no member is solved again."""
    with monkeypatch.context() as patch:
        patch.setattr(exact_solver, "_policy_iteration", _as_policy_iteration)
        patch.setattr(exact_solver, "_reaching", _unmarked)
        return build()


def _assert_value_iteration_bytes(game, monkeypatch, rhos=None, deltas=None) -> None:
    """The report of ``game`` equals, byte for byte, the report of a full
    value-iteration solve; so do the grids and path lengths, and every table
    entry lies within the solver bound of value iteration's."""
    report = _report(game, rhos, deltas)
    assert report == _by_value_iteration(monkeypatch, lambda: _report(game, rhos, deltas))
    analysis = ExactAnalysis(game, TOL, rhos=rhos)
    reference = _by_value_iteration(monkeypatch, lambda: _solved(game, rhos))
    for grid, expected in zip(analysis.grids, reference.grids):
        assert np.array_equal(grid, expected)
    assert np.array_equal(analysis.path_len, reference.path_len)
    for i, (q, r) in enumerate(zip(analysis._solved, reference._solved)):
        assert np.abs(q - r).max() <= _solver_bound(game.discounts[i])


def test_report_matches_value_iteration(game, monkeypatch):
    # Policy iteration, with value iteration again for the members whose
    # digits reach the report, at the game's own discounts and with each
    # nonzero discount at 0.99.
    at_099 = tuple(0.99 if beta else 0.0 for beta in game.discounts)
    deltas = (0.5,) * game.num_players
    for variant in (game, dataclasses.replace(game, discounts=at_099)):
        _assert_value_iteration_bytes(variant, monkeypatch, _rhos(variant), deltas)
        _assert_value_iteration_bytes(variant, monkeypatch)


def test_report_matches_value_iteration_at_0_999(monkeypatch):
    # value iteration needs about 2.5e4 sweeps here, policy iteration a few steps
    game = _shaped_game(np.random.default_rng(999), 2, (2, 2), beta=0.999)
    _assert_value_iteration_bytes(game, monkeypatch, _rhos(game), (0.5, 0.5))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("tag, counts, states", [(1, (3, 3), 4), (2, (2, 2, 2), 3), (3, (3, 3), 5)])
def test_exact_grid_reports_match_value_iteration(seed, tag, counts, states, monkeypatch):
    # The random games of the exact-grid benchmark workload at its seeds 0
    # and 1, with its arguments (the benchmark game is in GAMES).
    game = seeded_game(np.random.default_rng([seed, tag]), counts, states)
    _assert_value_iteration_bytes(game, monkeypatch, (0.05,) * len(counts))


def test_benchmark_report_matches_value_iteration(monkeypatch):
    # the exact-grid workload's benchmark arguments, and the README's
    game = build_benchmark_game()
    _assert_value_iteration_bytes(game, monkeypatch, (0.05, 0.05), (0.5, 0.5))


def _near_tie_game(seed, player, scale) -> StochasticGame:
    """A 2-player x 2-state x 2-action game at discount 0.9 with spiky
    kernel rows (a flat Dirichlet at 0.2, so value iteration's error differs
    from entry to entry), ``player``'s costs scaled by ``scale``. The scales
    below put a tested quantity halfway between its policy- and its
    value-iteration reading, a few 1e-12 to 1e-10 from each, far above
    rounding."""
    rng = np.random.default_rng(seed)
    costs = [rng.uniform(0.0, 10.0, size=(2, 4)) for _ in range(2)]
    costs[player] = costs[player] * scale
    return StochasticGame(
        states=("s0", "s1"),
        action_sets=(("a0", "a1"),) * 2,
        costs=tuple(costs),
        discounts=(0.9, 0.9),
        kernel=rng.dirichlet(np.full(2, 0.2), size=(2, 4)),
        initial_dist=np.full(2, 0.5),
    )


def _unmarked(tables, margins, tol):
    """A stand-in for ``_reaching`` that marks no joint."""
    return {i: np.zeros(m.shape[1], dtype=bool) for i, m in margins.items()}


def _policy_iteration_alone(monkeypatch, build):
    """``build()`` with no member solved again by value iteration."""
    with monkeypatch.context() as patch:
        patch.setattr(exact_solver, "_reaching", _unmarked)
        return build()


def _least_gaps(analysis):
    """Per player, the least gap of its table that counts for delta_bar."""
    gaps = [exact_solver._action_gaps(q) for q in analysis.table]
    return [g[g >= 10.0 * TOL].min() for g in gaps]


def _largest_shifts(analysis):
    return [np.abs(q - s).max() for q, s in zip(analysis.table, analysis.softened)]


def test_greedy_test_inside_the_margin(monkeypatch):
    # Player 0's costs scaled so that one gap lies 6e-12 below tol by policy
    # iteration and 6e-12 above it by value iteration: the two solvers alone
    # give other grids.
    game = _near_tie_game(14, 0, 4.531003489959477e-09)
    alone = _policy_iteration_alone(monkeypatch, lambda: _solved(game))
    reference = _by_value_iteration(monkeypatch, lambda: _solved(game))
    assert not np.array_equal(alone.grids[0], reference.grids[0])
    _assert_value_iteration_bytes(game, monkeypatch)
    # the labels, not solved again by value iteration, read policy
    # iteration's side of the test
    joints = _every_joint(game)
    assert label_equilibria(game, joints, TOL) == [joint in alone.equilibria for joint in joints]


def test_delta_bar_minimum_inside_the_margin(monkeypatch):
    # Player 1's costs scaled so that its least gap lies 2e-12 above player
    # 0's by policy iteration and 2e-12 below it by value iteration: the
    # minimum sits on another member by each solver.
    game = _near_tie_game(16, 1, 0.5522554979532047)
    alone = _policy_iteration_alone(monkeypatch, lambda: _solved(game))
    reference = _by_value_iteration(monkeypatch, lambda: _solved(game))
    assert np.argmin(_least_gaps(alone)) != np.argmin(_least_gaps(reference))
    _assert_value_iteration_bytes(game, monkeypatch)


def test_gap_maximum_inside_the_margin(monkeypatch):
    # Player 1's costs scaled so that its largest shift lies 1e-10 below
    # player 0's by policy iteration and 1e-10 above it by value iteration.
    game, rhos = _near_tie_game(12, 1, 0.5573583366584419), (0.1, 0.1)
    alone = _policy_iteration_alone(monkeypatch, lambda: _solved(game, rhos))
    reference = _by_value_iteration(monkeypatch, lambda: _solved(game, rhos))
    assert np.argmax(_largest_shifts(alone)) != np.argmax(_largest_shifts(reference))
    _assert_value_iteration_bytes(game, monkeypatch, rhos)


@pytest.mark.parametrize("beta", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_margin_bounds_the_distance_from_value_iteration(beta, scale):
    # Every entry of a policy-iteration table lies within its member's margin
    # of value iteration's. At beta = 0.5 and costs in [0, 10] the bound is
    # within 0.1% of tight. With costs to 1e4 at beta >= 0.99 the distance
    # exceeds the margin's terms without rounding, the stopping bound and
    # the residual's, (beta th + r) / (1 - beta), by 10x or more: the
    # rounding terms decide there.
    cost, kernel = _random_stack(np.random.default_rng(7), 64, 4, 3)
    cost = cost * scale
    q, residual = _policy_iteration(cost, kernel, beta, TOL)
    margin = _margin(q, residual, kernel, beta, TOL)
    distance = np.abs(_value_iteration(cost, kernel, beta, TOL) - q).reshape(64, -1).max(axis=1)
    assert (distance <= margin).all()
    threshold = TOL * (1.0 - beta) / (2.0 * beta)
    without_rounding = (beta * threshold + residual) / (1.0 - beta)
    if beta >= 0.99 and scale > 1.0:
        assert (distance > 10.0 * without_rounding).any()
    if beta == 0.5 and scale == 1.0:
        assert (distance / margin).max() > 0.999


def test_decode_follows_product_order(game):
    # Opponent joints (a (1, 0, S) array for a 1-player game, one byte per
    # action id at these action counts) and nodes.
    analysis = ExactAnalysis(game, TOL)
    for i in range(game.num_players):
        others = [j for j in range(game.num_players) if j != i]
        opponents = _opponents(game, i)
        decoded = analysis._decode(others, np.arange(len(opponents)))
        assert decoded.shape == opponents.shape and np.array_equal(decoded, opponents)
        assert decoded.itemsize == 1
    joints = _every_joint(game)
    assert analysis.choices(range(len(joints))) == joints


def _assert_policy_iteration_matches(game, monkeypatch):
    # Against every opponent joint, plain and softened: within tol of both
    # single-solve oracles, with the value-iteration stack's greedy masks.
    opponents = {i: _opponents(game, i) for i in range(game.num_players)}
    for rhos in ((0.0,) * game.num_players, _rhos(game)):
        solve = lambda: _solve_stack(game, TOL, [rhos], opponents)
        by_pi, by_vi = solve(), _by_value_iteration(monkeypatch, solve)
        for i in range(game.num_players):
            (pi,), (vi,) = by_pi[i], by_vi[i]
            mdps = [
                induced_mdp_single(game, i, opponent_policies(game, i, opp, rhos))
                for opp in opponent_joints(game, i)
            ]
            assert np.abs(pi - [q_value_iteration_single(m, TOL)[0] for m in mdps]).max() <= TOL
            assert np.abs(pi - [q_star_policy_iteration(m) for m in mdps]).max() <= TOL
            assert np.array_equal(_greedy_mask(pi, TOL), _greedy_mask(vi, TOL))


def test_policy_iteration_matches_oracles(game, monkeypatch):
    _assert_policy_iteration_matches(game, monkeypatch)


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("num_states, counts", [(3, (2, 2)), (2, (3, 2)), (2, (2, 2, 2))])
def test_policy_iteration_matches_oracles_across_discounts(beta, num_states, counts, monkeypatch):
    rng = np.random.default_rng(int(100 * beta) + num_states)
    _assert_policy_iteration_matches(_shaped_game(rng, num_states, counts, beta=beta), monkeypatch)


def _assert_labels_match_analysis(game, joints, tol):
    equilibria = ExactAnalysis(game, tol).equilibria
    assert label_equilibria(game, joints, tol) == [joint in equilibria for joint in joints]


def _floor(cost, beta):
    """The float floor of ``_policy_iteration``'s Bellman check per member:
    5 (S + 2) u max |c| / (1 - beta), u = eps / 2."""
    size = np.abs(cost).reshape(len(cost), -1).max(axis=1)
    return 5.0 * (cost.shape[1] + 2) * (np.finfo(float).eps / 2.0) * size / (1.0 - beta)


def test_policy_iteration_refuses_lost_precision(monkeypatch):
    # At beta = 0.9999 no float table meets tol 1e-15: policy iteration
    # passes each member within its float floor instead, and the labels
    # equal the analysis. A residual above the floor, from an evaluation
    # made to err by 1e-6, still raises.
    game = _shaped_game(np.random.default_rng(5), 3, (2, 2), beta=0.9999)
    cost, kernel = softened_stack(game, 0, (0.0, 0.0), _opponents(game, 0))
    _, residual = _policy_iteration(cost, kernel, 0.9999, 1e-15)
    assert residual.max() > 1e-15 and (residual <= _floor(cost, 0.9999)).all()
    _assert_labels_match_analysis(game, _every_joint(game), 1e-15)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-6))
    with pytest.raises(RuntimeError, match="Bellman residual .* above"):
        _policy_iteration(cost, kernel, 0.9999, 1e-15)


def test_policy_iteration_refuses_unsettled_members(monkeypatch):
    # Greedy on cost is not optimal against every opponent joint here, so a
    # one-step cap leaves members unsettled: policy iteration, the labels
    # and the analysis all raise.
    game = _shaped_game(np.random.default_rng(0), 3, (3, 3), beta=0.9)
    monkeypatch.setattr(exact_solver, "_MAX_POLICY_ITERATIONS", 1)
    cost, kernel = softened_stack(game, 0, (0.0, 0.0), _opponents(game, 0))
    with pytest.raises(RuntimeError, match="policy iteration did not settle"):
        _policy_iteration(cost, kernel, 0.9, TOL)
    with pytest.raises(RuntimeError, match="policy iteration did not settle"):
        label_equilibria(game, _every_joint(game), TOL)
    with pytest.raises(RuntimeError, match="policy iteration did not settle"):
        ExactAnalysis(game, TOL).equilibria


def test_labels_where_the_float_floor_binds():
    # At beta = 0.999 with costs to 1e4, policy iteration's Bellman residual
    # (7.45e-9, 1 ulp of |Q| = 4.4e7) exceeds tol 1e-9 but not the float
    # floor: the labels a simulation of this game takes after play are
    # policy iteration's, and equal the analysis.
    game = seeded_game(np.random.default_rng(0), (2, 2), 3, discounts=(0.999, 0.999))
    game = dataclasses.replace(game, costs=tuple(c * 1e4 for c in game.costs))
    cost, kernel = softened_stack(game, 0, (0.0, 0.0), _opponents(game, 0))
    _, residual = _policy_iteration(cost, kernel, 0.999, TOL)
    assert residual.max() > TOL and (residual <= _floor(cost, 0.999)).all()
    joints = [((0, 0, 0), (0, 0, 0)), ((1, 0, 1), (0, 1, 1))]
    assert label_equilibria(game, joints, TOL) == [False, False]
    _assert_labels_match_analysis(game, joints, TOL)


def _scan_stack(rng):
    """A random stack for the floor scan: S 1-32, A 2-5, K 1-8, beta 0.5 to
    0.99999, costs of either sign and of magnitude 1e-2 to 1e6. Some take
    three cost levels with the least at action 0, so that the optimal values
    are constant and every least action ties exactly, through other kernel
    rows; some give actions 0 and 1 equal costs or equal kernel rows, and
    some have deterministic kernels."""
    num_states, num_actions = int(rng.integers(1, 33)), int(rng.integers(2, 6))
    size = int(rng.integers(1, 9))
    beta = float(rng.choice([0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999]))
    scale = 10.0 ** rng.uniform(-2.0, 6.0)
    cost = rng.uniform(-scale, scale, size=(size, num_states, num_actions))
    if rng.random() < 0.3:
        cost = scale * rng.integers(-1, 2, size=cost.shape)
        cost[..., 0] = -scale
    if rng.random() < 0.3:
        cost[..., 1] = cost[..., 0]
    if rng.random() < 0.3:
        kernel = np.zeros((size, num_states, num_actions, num_states))
        successor = rng.integers(0, num_states, size=(size, num_states, num_actions))
        np.put_along_axis(kernel, successor[..., None], 1.0, axis=-1)
    else:
        kernel = rng.dirichlet(np.full(num_states, rng.choice([0.2, 1.0])), size=(size, num_states, num_actions))
        if rng.random() < 0.3:
            kernel[..., 1, :] = kernel[..., 0, :]
    return cost, kernel, beta


def test_residuals_stay_below_the_floor():
    # 1 000 seeded random stacks: every member settles within
    # _MAX_POLICY_ITERATIONS, and at a tol below any float resolution each
    # Bellman residual lies within its member's float floor. On about half
    # the stacks with constant optimal values, switching wherever another
    # action is strictly lower cycles on the rounding of the exact ties;
    # the switching slack of policy iteration keeps them from cycling.
    rng = np.random.default_rng(26)
    for _ in range(1000):
        cost, kernel, beta = _scan_stack(rng)
        _, residual = _policy_iteration(cost, kernel, beta, 1e-300)
        assert (residual <= np.maximum(1e-300, _floor(cost, beta))).all()


def _every_joint(game):
    return [
        tuple(joint)
        for joint in itertools.product(
            *(enumerate_deterministic_policies(game.num_states, m) for m in game.action_counts)
        )
    ]


def test_labels_match_enumeration(game):
    # Every joint labelled at once, and a sample of joints each labelled
    # alone: the labels are membership in the enumerated equilibrium set.
    joints = _every_joint(game)
    expected = equilibrium_set_enumerated(game, TOL)
    labels = label_equilibria(game, joints, TOL)
    assert labels == [joint in expected for joint in joints]
    rng = np.random.default_rng(len(joints))
    for k in rng.choice(len(joints), size=min(len(joints), 25), replace=False).tolist():
        assert label_equilibria(game, [joints[k]], TOL) == [labels[k]]


@pytest.mark.parametrize(
    "joint",
    [
        ((0, -1), (0, 0)),  # wraps around under numpy indexing
        ((0, 2), (0, 0)),  # past the action count
        ((0, 0.5), (0, 0)),  # not an action id
        ((0, True), (0, 0)),  # a bool, not an action id
        ((0, 0, 0), (0, 0)),  # one action id too many
        ((0,), (0, 0)),  # one too few
        ((0, 0),),  # a player missing
    ],
)
def test_labels_reject_malformed_joints(joint):
    game = build_benchmark_game()
    with pytest.raises(ValueError, match=r"joint .* is not a joint policy of this game"):
        label_equilibria(game, [((0, 0), (0, 1)), joint], TOL)
    with pytest.raises(ValueError, match=re.escape(repr(joint))):
        label_equilibria(game, [joint], TOL)


def test_labels_past_int64():
    # A 2-player x 2-action x 64-state team game: an opponent joint's index
    # in product order would reach 2**64 - 1, past int64; its choice array
    # needs no index. Best-response dynamics from all-ones give joints on
    # and off the equilibria.
    game = _shaped_game(np.random.default_rng(64), 64, (2, 2))
    game = dataclasses.replace(game, costs=(game.costs[0], game.costs[0]))

    def q(i, joint):
        return q_star_single(game, i, opponent_policies(game, i, joint[1 - i : 2 - i]), TOL)

    rng = np.random.default_rng(3)
    joints = [tuple(tuple(rng.integers(0, 2, size=64).tolist()) for _ in range(2))]
    joint = [(1,) * 64, (1,) * 64]
    for i in (0, 1, 0):
        joints.append(tuple(joint))
        joint[i] = tuple(q(i, joint).argmin(axis=1).tolist())
    joints.append(tuple(joint))
    for eps in (0.0, 0.5):
        expected = [
            all(_choice_is_greedy(q(i, joint), joint[i], eps + TOL) for i in range(2))
            for joint in joints
        ]
        assert True in expected and False in expected
        assert label_equilibria(game, joints, TOL, eps) == expected


def test_derived_objects_match_enumeration(game):
    # The derived objects read only the table, whose block split is covered
    # by the test above.
    rhos = _rhos(game)
    expected_eq = equilibrium_set_enumerated(game, TOL)
    expected_dbar = delta_bar_enumerated(game, TOL)
    expected_gap = perturbation_gap_enumerated(game, rhos, TOL)
    expected_graph = br_graph_enumerated(game, TOL)
    assert equilibrium_set(game, TOL) == expected_eq
    assert delta_bar(game, TOL) == expected_dbar
    assert perturbation_gap(game, rhos, TOL) == expected_gap
    # the export, a view of the analysis's arrays, against the oracle's tuples
    graph = build_br_graph(game, TOL)
    assert graph == expected_graph
    assert graph.to_json_dict() == expected_graph.to_json_dict()
    report = analyze_game(game, rhos=rhos, tol=TOL)
    assert report["equilibria"] == sorted([list(c) for c in joint] for joint in expected_eq)
    assert report["num_joint_policies"] == len(expected_graph.nodes) == len(graph.nodes)
    assert report["delta_bar"] == (None if np.isinf(expected_dbar) else expected_dbar)
    assert report["perturbation"]["gap"] == expected_gap
    path_len = expected_graph.path_len
    weakly = bool(expected_graph.equilibria) and all(map(math.isfinite, path_len))
    assert report["weakly_acyclic"] is weakly is is_weakly_acyclic(graph)
    assert report["path_bound_L"] == (1 + int(max(path_len)) if weakly else None)
    if weakly:
        assert path_bound_L(graph) == report["path_bound_L"]


def test_analyze_builds_no_joint_policy_per_node(monkeypatch):
    # 6561 joint policies, four of them equilibria. The report decodes only
    # the equilibria and reads the path lengths off the grids, never the edge
    # array; the graph export builds neither a node's policy until the node
    # is read nor the edge array until its edges are read.
    game = _shaped_game(np.random.default_rng(17), 4, (3, 3))
    built = 0
    post_init = JointDeterministicPolicy.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        post_init(self)

    def no_edges(self):
        raise AssertionError("the edge array was built")

    monkeypatch.setattr(JointDeterministicPolicy, "__post_init__", counted)
    with monkeypatch.context() as patch:
        patch.setattr(exact_solver.ExactAnalysis, "edges", property(no_edges))
        report = analyze_game(game, rhos=RHOS[:2], lambdas=(0.2, 0.2), eps=0.1, tol=TOL)
        assert built <= 4
        built = 0
        graph = build_br_graph(game, TOL)
        assert (len(graph.nodes), len(graph.equilibria)) == (6561, 4)
        assert is_weakly_acyclic(graph)
        assert built == 0
        node = graph.nodes[6560]
        assert built == 1
    assert (report["num_joint_policies"], report["num_equilibria"]) == (6561, 4)
    assert report["path_bound_L"] is not None
    assert node.choices == ((2, 2, 2, 2), (2, 2, 2, 2))
    assert len(graph.edges) == 12960
    assert graph == br_graph_enumerated(game, TOL)


def test_graph_export_allocates_no_object_per_node():
    # 59 049 joint policies and 117 612 edges: one Python object per node
    # and edge would take about 36 MB here; the export holds the analysis's
    # arrays, under half a megabyte for its path lengths, until a node or
    # the edges are read.
    game = _shaped_game(np.random.default_rng(5), 5, (3, 3))
    build_br_graph(_shaped_game(np.random.default_rng(4), 2, (3, 3)), TOL)
    tracemalloc.start()
    try:
        graph = build_br_graph(game, TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(graph.nodes) == 59049
    assert peak <= 4 * 2**20


def test_staggered_members_stop_at_their_own_sweep():
    game = _staggered_game()
    joints = opponent_joints(game, 0)
    mdps = [induced_mdp_single(game, 0, opponent_policies(game, 0, opp)) for opp in joints]
    sweeps = {q_value_iteration_single(mdp, TOL)[1] for mdp in mdps}
    assert len(sweeps) > 1
    assert max(sweeps) - min(sweeps) >= 50


@pytest.mark.parametrize("players", [2, 3, 4])
def test_q_star_matches_single_solve_for_stationary_opponents(players):
    # Opponents given out of id order: the weights are multiplied in the
    # order given, which matters for three or more opponents.
    rng = np.random.default_rng(100 + players)
    for _ in range(5):
        game = random_game(rng, players, 3, 3, beta=0.85)
        for i in range(players):
            others = [
                random_stationary(rng, j, game.num_states, game.action_counts[j])
                for j in reversed(range(players))
                if j != i
            ]
            got = q_star(game, i, others, TOL).values
            assert got.tobytes() == q_star_single(game, i, others, TOL).tobytes()
