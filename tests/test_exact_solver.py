import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from decqlearn import exact_solver
from decqlearn.exact_solver import (
    EnumerationBudgetError,
    ExactAnalysis,
    InducedMdp,
    QTable,
    br_hat,
    check_reachability,
    induced_mdp,
    is_equilibrium,
    label_equilibria,
    policy_value,
    q_star,
)
from decqlearn.experiments import analyze_game
from decqlearn.game_model import (
    DeterministicPolicy,
    JointDeterministicPolicy,
    StationaryPolicy,
    StochasticGame,
    soften_policy,
)
from oracles import (
    br_hat_bruteforce,
    policy_value_iterative,
    q_star_policy_iteration,
    random_game,
    random_stationary,
)


def _single_player_game(costs, beta, kernel=None, states=1):
    costs = np.asarray(costs, dtype=float)
    num_states, num_actions = costs.shape
    if kernel is None:
        kernel = np.tile(np.eye(num_states)[:, None, :], (1, num_actions, 1))
    return StochasticGame(
        states=tuple(f"s{k}" for k in range(num_states)),
        action_sets=(tuple(f"a{k}" for k in range(num_actions)),),
        costs=(costs,),
        discounts=(beta,),
        kernel=kernel,
        initial_dist=np.eye(num_states)[0],
    )


def _indicator(player, choice, num_actions=2):
    return DeterministicPolicy(player, choice).as_stationary(num_actions)


def _forbid_solves(monkeypatch):
    def fail(*args):
        raise AssertionError("a best-response solve ran before the budget check")

    monkeypatch.setattr(exact_solver, "_solve_stack", fail)


# q_star against the unique-best-response structure of the benchmark game,
# derived in closed form: V(s0) = 50/3, V(s1) = 25, with per-state gaps
# 2 and 10/3.
BENCH_Q_VS_FIXED_OPPONENT = np.array([[50 / 3, 50 / 3 + 2.0], [25.0, 85 / 3]])


class TestQStar:
    def test_zero_discount_is_expected_immediate_cost(self, benchmark_game):
        game = StochasticGame(
            states=benchmark_game.states,
            action_sets=benchmark_game.action_sets,
            costs=benchmark_game.costs,
            discounts=(0.0, 0.0),
            kernel=benchmark_game.kernel,
            initial_dist=benchmark_game.initial_dist,
        )
        opponent = StationaryPolicy(1, np.array([[0.5, 0.5], [0.25, 0.75]]))
        q = q_star(game, 0, [opponent], 1e-10)
        expected = np.empty((2, 2))
        for s in range(2):
            for a in range(2):
                expected[s, a] = sum(
                    opponent.probs[s, b] * game.costs[0][s, game.joint_index((a, b))]
                    for b in range(2)
                )
        assert_allclose(q.values, expected, atol=1e-12)

    def test_single_state_geometric(self):
        game = _single_player_game([[0.0, 1.0]], beta=0.8)
        q = q_star(game, 0, [], 1e-10)
        assert_allclose(q.values, [[0.0, 1.0]], atol=1e-9)

    def test_benchmark_against_policy_iteration(self, benchmark_game):
        opponent = _indicator(1, (0, 1))
        q = q_star(benchmark_game, 0, [opponent], 1e-10)
        reference = q_star_policy_iteration(induced_mdp(benchmark_game, 0, [opponent]))
        assert_allclose(q.values, reference, atol=1e-8)
        assert_allclose(q.values, BENCH_Q_VS_FIXED_OPPONENT, atol=1e-8)

    def test_policy_iteration_oracle_settles_on_high_discount_ties(self):
        # At beta = 0.9999 every state's least cost -M sits at action 0 (and
        # ties elsewhere), so V* = -M / (1 - beta) in every state: Q-values
        # near 1e8 whose ties round apart by far more than 1e-12. The oracle
        # keeps its incumbent within the rounding of such values, settles,
        # and lands on Q* = c - beta M / (1 - beta).
        rng = np.random.default_rng(2026)
        beta = 0.9999
        for _ in range(200):
            num_states, num_actions = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            scale = 10.0 ** rng.uniform(0.0, 4.0)
            cost = rng.integers(-1, 2, size=(num_states, num_actions)) * scale
            cost[:, 0] = -scale
            kernel = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
            mdp = InducedMdp(
                tuple(map(str, range(num_states))),
                tuple(map(str, range(num_actions))),
                cost,
                kernel,
                beta,
            )
            value = scale / (1.0 - beta)
            q = q_star_policy_iteration(mdp)
            assert np.abs(q - (cost - beta * value)).max() <= 1e-10 * value

    def test_bellman_residual(self, rng):
        for _ in range(10):
            game = random_game(rng, beta=float(rng.choice([0.0, 0.5, 0.9])))
            others = [
                random_stationary(rng, 1, game.num_states, game.action_counts[1])
            ]
            tol = 1e-9
            q = q_star(game, 0, others, tol)
            mdp = induced_mdp(game, 0, others)
            backup = mdp.cost + mdp.discount * (mdp.kernel @ q.values.min(axis=1))
            assert np.abs(q.values - backup).max() <= 2 * tol

    def test_tol_must_be_positive(self, benchmark_game):
        with pytest.raises(ValueError):
            q_star(benchmark_game, 0, [_indicator(1, (0, 0))], 0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_tol_must_be_finite(self, benchmark_game, tol):
        with pytest.raises(ValueError, match="tol"):
            q_star(benchmark_game, 0, [_indicator(1, (0, 0))], tol)

    def test_opponents_must_cover_everybody_else(self, benchmark_game):
        with pytest.raises(ValueError):
            q_star(benchmark_game, 0, [], 1e-8)


class TestPolicyValue:
    def test_zero_costs(self, benchmark_game):
        game = StochasticGame(
            states=benchmark_game.states,
            action_sets=benchmark_game.action_sets,
            costs=(np.zeros((2, 4)), np.zeros((2, 4))),
            discounts=benchmark_game.discounts,
            kernel=benchmark_game.kernel,
            initial_dist=benchmark_game.initial_dist,
        )
        joint = [_indicator(0, (0, 0)), _indicator(1, (1, 1))]
        assert_allclose(policy_value(game, 0, joint), 0.0, atol=1e-12)

    def test_constant_cost_geometric_series(self):
        game = _single_player_game([[3.0, 3.0]], beta=0.8)
        value = policy_value(game, 0, [_indicator(0, (0,))])
        assert_allclose(value, [15.0], atol=1e-9)

    def test_benchmark_equilibrium_values_match_iterative_oracle(self, benchmark_game):
        # equilibrium joint: both a0 in s0, a0 vs a1 in s1
        probs = {
            0: _indicator(0, (0, 0)).probs,
            1: _indicator(1, (0, 1)).probs,
        }
        joint = [_indicator(0, (0, 0)), _indicator(1, (0, 1))]
        for player in range(2):
            mine = policy_value(benchmark_game, player, joint)
            reference = policy_value_iterative(benchmark_game, player, probs, 1e-10)
            assert_allclose(mine, reference, atol=1e-8)


class TestQTable:
    @pytest.mark.parametrize("player", [True, "x", 0.0, None])
    def test_player_id_must_be_an_integer(self, player):
        with pytest.raises(ValueError, match=re.escape(f"player id {player!r} is not an integer")):
            QTable(player, np.zeros((2, 2)))

    def test_player_id_nonnegative_and_a_python_int(self):
        with pytest.raises(ValueError, match="player id -3 must be nonnegative"):
            QTable(-3, np.zeros((2, 2)))
        table = QTable(np.int64(1), np.zeros((2, 2)))
        assert type(table.player) is int and table.player == 1


class TestBrHat:
    def test_unique_minimizers_give_singleton(self):
        q = QTable(0, np.array([[0.0, 1.0], [2.0, 0.5]]))
        policies = br_hat(q, 0.0)
        assert [p.choice for p in policies] == [(0, 1)]

    def test_large_eps_gives_everything(self):
        q = QTable(0, np.array([[0.0, 1.0], [2.0, 0.5]]))
        assert len(br_hat(q, 10.0)) == 4

    def test_partial_freedom(self):
        # per-state gaps 0.3 and 0.7; eps = 0.5 frees only the first state
        q = QTable(0, np.array([[0.0, 0.3], [0.0, 0.7]]))
        policies = br_hat(q, 0.5)
        assert {p.choice for p in policies} == {(0, 0), (1, 0)}

    def test_matches_bruteforce_filter(self, rng):
        for _ in range(25):
            values = rng.uniform(0.0, 3.0, size=(3, 3))
            eps = float(rng.uniform(0.0, 1.5))
            mine = {p.choice for p in br_hat(QTable(0, values), eps)}
            assert mine == br_hat_bruteforce(values, eps)

    def test_negative_eps(self):
        # NaN, too: it fails eps < 0 and would give no policy at all
        for eps in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="eps must be nonnegative"):
                br_hat(QTable(0, np.zeros((1, 2))), eps)


class TestIsEquilibrium:
    def test_benchmark_equilibrium_joint(self, benchmark_game):
        joint = JointDeterministicPolicy.from_choices([(0, 0), (0, 1)])
        assert is_equilibrium(benchmark_game, joint, 0.0, 1e-9)

    def test_benchmark_match_everywhere_is_not(self, benchmark_game):
        joint = JointDeterministicPolicy.from_choices([(0, 0), (0, 0)])
        assert not is_equilibrium(benchmark_game, joint, 0.0, 1e-9)

    def test_single_player_greedy_is_equilibrium(self, rng):
        game = random_game(rng, num_players=1, beta=0.5)
        q = q_star(game, 0, [], 1e-10)
        greedy = tuple(int(a) for a in q.values.argmin(axis=1))
        joint = JointDeterministicPolicy.from_choices([greedy])
        assert is_equilibrium(game, joint, 0.0, 1e-9)

    @pytest.mark.parametrize("eps", [-0.1, float("nan")])
    def test_eps_must_be_nonnegative(self, benchmark_game, eps):
        # ((0, 0), (0, 1)) is an equilibrium, which a NaN eps labelled False
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            label_equilibria(benchmark_game, [((0, 0), (0, 1))], 1e-9, eps)
        joint = JointDeterministicPolicy.from_choices([(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            is_equilibrium(benchmark_game, joint, eps, 1e-9)

    def test_monotone_in_eps(self, benchmark_game):
        joint = JointDeterministicPolicy.from_choices([(0, 0), (0, 0)])
        flags = [
            is_equilibrium(benchmark_game, joint, eps, 1e-9)
            for eps in (0.0, 1.0, 2.0, 3.0, 5.0)
        ]
        assert flags == sorted(flags)  # False before True, never back
        assert flags[-1]  # eps beyond the largest gap accepts everything


class TestEquilibriumSet:
    def test_benchmark_has_the_four_coordination_joints(self, benchmark_game):
        expected = {
            ((0, 0), (0, 1)),
            ((0, 1), (0, 0)),
            ((1, 0), (1, 1)),
            ((1, 1), (1, 0)),
        }
        assert ExactAnalysis(benchmark_game, 1e-9).equilibria == expected

    def test_agrees_with_is_equilibrium(self, benchmark_game):
        from decqlearn.game_model import enumerate_deterministic_policies
        import itertools

        per_player = [
            enumerate_deterministic_policies(2, 2),
            enumerate_deterministic_policies(2, 2),
        ]
        eqs = ExactAnalysis(benchmark_game, 1e-9).equilibria
        for joint in itertools.product(*per_player):
            direct = is_equilibrium(
                benchmark_game, JointDeterministicPolicy.from_choices(joint), 0.0, 1e-9
            )
            assert (joint in eqs) == direct

    def test_budget_guard(self, benchmark_game, monkeypatch):
        _forbid_solves(monkeypatch)
        with pytest.raises(EnumerationBudgetError):
            ExactAnalysis(benchmark_game, 1e-9, budget=7).equilibria

    def test_node_budget_guard(self, monkeypatch):
        # 2 players, 2 actions, 10 states: the 2048 solves fit a budget of
        # 4096, the 1024 x 1024 joint policies the search marks do not
        game = StochasticGame(
            states=tuple(f"s{k}" for k in range(10)),
            action_sets=(("a0", "a1"), ("a0", "a1")),
            costs=(np.zeros((10, 4)), np.zeros((10, 4))),
            discounts=(0.8, 0.8),
            kernel=np.full((10, 4, 10), 0.1),
            initial_dist=np.full(10, 0.1),
        )
        _forbid_solves(monkeypatch)
        with pytest.raises(EnumerationBudgetError, match="1048576 nodes"):
            ExactAnalysis(game, 1e-9, budget=4096).equilibria


class TestDeltaBar:
    def test_two_costs_single_state(self):
        game = _single_player_game([[0.0, 1.0]], beta=0.0)
        assert ExactAnalysis(game, 1e-10).delta_bar == pytest.approx(1.0, abs=1e-9)

    def test_identical_costs_give_infinity(self):
        game = _single_player_game([[2.0, 2.0]], beta=0.5)
        assert math.isinf(ExactAnalysis(game, 1e-10).delta_bar)

    def test_benchmark_value_and_tolerance_stability(self, benchmark_game):
        d8 = ExactAnalysis(benchmark_game, 1e-8).delta_bar
        d10 = ExactAnalysis(benchmark_game, 1e-10).delta_bar
        assert d8 > 0.0
        assert abs(d8 - d10) <= 1e-6
        assert d10 == pytest.approx(2.0, abs=1e-8)

    def test_relabeling_invariance(self, benchmark_game):
        # swap the two states and both players' action labels
        perm_s = [1, 0]
        perm_a = [1, 0]
        remap_ja = {}
        for ja in range(4):
            a, b = benchmark_game.joint_tuple(ja)
            remap_ja[ja] = benchmark_game.joint_index((perm_a[a], perm_a[b]))
        costs = []
        for c in benchmark_game.costs:
            out = np.empty_like(c)
            for s in range(2):
                for ja in range(4):
                    out[perm_s[s], remap_ja[ja]] = c[s, ja]
            costs.append(out)
        kernel = np.empty_like(benchmark_game.kernel)
        for s in range(2):
            for ja in range(4):
                for t in range(2):
                    kernel[perm_s[s], remap_ja[ja], perm_s[t]] = benchmark_game.kernel[
                        s, ja, t
                    ]
        relabeled = StochasticGame(
            states=("s0", "s1"),
            action_sets=benchmark_game.action_sets,
            costs=tuple(costs),
            discounts=benchmark_game.discounts,
            kernel=kernel,
            initial_dist=benchmark_game.initial_dist,
        )
        assert ExactAnalysis(relabeled, 1e-10).delta_bar == pytest.approx(
            ExactAnalysis(benchmark_game, 1e-10).delta_bar, abs=1e-6
        )

    def test_budget_guard(self, benchmark_game):
        with pytest.raises(EnumerationBudgetError):
            ExactAnalysis(benchmark_game, 1e-9, budget=3).delta_bar

    def test_needs_the_solve_budget_only(self, solve_calls):
        # The 2p2a10s game of test_node_budget_guard: its 2048 solves fit a
        # budget of 4096, and neither delta_bar nor the gap marks its
        # 1024 x 1024 joint policies.
        game = StochasticGame(
            states=tuple(f"s{k}" for k in range(10)),
            action_sets=(("a0", "a1"), ("a0", "a1")),
            costs=(np.zeros((10, 4)), np.zeros((10, 4))),
            discounts=(0.8, 0.8),
            kernel=np.full((10, 4, 10), 0.1),
            initial_dist=np.full(10, 0.1),
        )
        assert math.isinf(ExactAnalysis(game, 1e-9, budget=4096).delta_bar)
        assert ExactAnalysis(game, 1e-10, budget=4096, rhos=(0.1, 0.1)).gap == 0.0
        # one call for both players' tables behind delta_bar, then one for
        # the gap's plain and softened tables together; each call solves by
        # policy iteration, then again by value iteration the members whose
        # digits can reach the result: here every member, as every Q-value
        # is 0 and so every gap lies at 0, within the margin of tol
        plain, rhos, joints = (0.0, 0.0), (0.1, 0.1), (1024, 1024)
        assert solve_calls == [((0, 1), (plain,), joints), ((0, 1), (plain, rhos), joints)]


class TestPerturbation:
    def test_zero_rho_zero_gap(self, benchmark_game):
        gap = ExactAnalysis(benchmark_game, 1e-10, rhos=(0.0, 0.0)).gap
        assert gap == pytest.approx(0.0, abs=1e-8)

    def test_benchmark_gap_and_predicate(self, benchmark_game):
        analysis = ExactAnalysis(benchmark_game, 1e-10, rhos=(0.05, 0.05), deltas=(0.5, 0.5))
        gap, bound = analysis.gap, analysis.bound
        assert np.isfinite(gap) and gap > 0.0
        assert bound == pytest.approx(min(0.5, 2.0 - 0.5) / 4.0, abs=1e-9)
        report = analyze_game(benchmark_game, rhos=(0.05, 0.05), deltas=(0.5, 0.5), tol=1e-10)
        assert report["perturbation"]["within_bound"] == (gap < bound)

    def test_check_builds_the_table_once(self, solve_calls):
        game = random_game(np.random.default_rng(11), num_players=2, max_states=3)
        rhos, deltas = (0.05, 0.1), (0.3, 0.4)
        analysis = ExactAnalysis(game, 1e-10, rhos=rhos, deltas=deltas)
        gap, bound = analysis.gap, analysis.bound
        # one call for both players, the table and the softened table
        # together (one state: player 0 has one action against three opponent
        # policies), which also solves again by value iteration the joints
        # whose digits reach the report: delta_bar's and the gap's
        assert solve_calls == [((0, 1), ((0.0, 0.0), rhos), (3, 1))]
        assert gap == ExactAnalysis(game, 1e-10, rhos=rhos).gap
        dbar = ExactAnalysis(game, 1e-10).delta_bar
        assert bound == min(min(d, dbar - d) for d in deltas) / 4.0

    def test_check_rejects_bad_deltas(self, benchmark_game):
        for deltas in ((0.5,), (0.5, -0.1)):
            with pytest.raises(ValueError, match="delta"):
                ExactAnalysis(benchmark_game, 1e-10, rhos=(0.05, 0.05), deltas=deltas)

    def test_monotone_on_benchmark(self, benchmark_game):
        small = ExactAnalysis(benchmark_game, 1e-10, rhos=(0.01, 0.01)).gap
        large = ExactAnalysis(benchmark_game, 1e-10, rhos=(0.30, 0.30)).gap
        assert small <= large

    def test_softening_consistency(self, benchmark_game):
        # the softened environment the gap uses is exactly soften_policy
        pol = DeterministicPolicy(1, (0, 1))
        soft = soften_policy(pol, 0.05, 2)
        direct = q_star(benchmark_game, 0, [soft], 1e-10)
        base = q_star(benchmark_game, 0, [_indicator(1, (0, 1))], 1e-10)
        gap = ExactAnalysis(benchmark_game, 1e-10, rhos=(0.05, 0.05)).gap
        assert float(np.abs(direct.values - base.values).max()) <= gap + 1e-9

    def test_budget_guard(self, benchmark_game, monkeypatch):
        _forbid_solves(monkeypatch)
        with pytest.raises(EnumerationBudgetError):
            ExactAnalysis(benchmark_game, 1e-10, budget=7, rhos=(0.05, 0.05)).gap


class TestReachability:
    def test_benchmark_reachable(self, benchmark_game):
        assert check_reachability(benchmark_game)

    def test_absorbing_state(self):
        kernel = np.zeros((2, 2, 2))
        kernel[0, :, 0] = 1.0  # s0 absorbs
        kernel[1, :, 0] = 1.0  # s1 moves to s0
        game = StochasticGame(
            states=("s0", "s1"),
            action_sets=(("a0", "a1"),),
            costs=(np.zeros((2, 2)),),
            discounts=(0.5,),
            kernel=kernel,
            initial_dist=np.array([1.0, 0.0]),
        )
        assert not check_reachability(game)

    def test_single_state(self):
        game = _single_player_game([[0.0, 1.0]], beta=0.5)
        assert check_reachability(game)
