import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from decqlearn import cli
from decqlearn.acyclicity import build_br_graph, p_min, solve_theta, xi_bound
from decqlearn.agent import AgentConfig
from decqlearn.exact_solver import ExactAnalysis, QTable, br_hat, check_input, label_equilibria
from decqlearn.experiments import ExperimentConfig, analyze_game
from decqlearn.game_model import (
    DeterministicPolicy,
    JointDeterministicPolicy,
    StationaryPolicy,
    StochasticGame,
    _choice_for,
    _softened,
    game_from_dict,
    game_to_dict,
    load_game,
    sample_initial_state,
    sample_transition,
    save_game,
    soften_policy,
    validate_game,
)
from decqlearn.orchestrator import RandomnessStreams, Schedule, _first_baselines, draw_schedule
from oracles import _inverse_cdf as bisect_inverse_cdf
from oracles import _last_positive as last_positive


def _single_state_game(kernel_row, initial=(1.0,)):
    states = tuple(f"s{i}" for i in range(len(kernel_row)))
    kernel = np.tile(np.asarray(kernel_row, dtype=float), (len(states), 2, 1))
    return StochasticGame(
        states=states,
        action_sets=(("a0", "a1"),),
        costs=(np.zeros((len(states), 2)),),
        discounts=(0.5,),
        kernel=kernel,
        initial_dist=np.asarray(initial + (0.0,) * (len(states) - len(initial))),
    )


class TestValidateGame:
    def test_benchmark_game_is_valid(self, benchmark_game):
        assert validate_game(benchmark_game) == []

    def test_bad_kernel_row_is_named(self, benchmark_game):
        kernel = np.array(benchmark_game.kernel)
        kernel[1, 2] = kernel[1, 2] * 0.9  # row sums to 0.9
        game = StochasticGame(
            states=benchmark_game.states,
            action_sets=benchmark_game.action_sets,
            costs=benchmark_game.costs,
            discounts=benchmark_game.discounts,
            kernel=kernel,
            initial_dist=benchmark_game.initial_dist,
        )
        violations = validate_game(game)
        assert len(violations) == 1
        assert "s1" in violations[0] and "(1, 0)" in violations[0]

    def test_discount_at_one_is_flagged(self, benchmark_game):
        game = StochasticGame(
            states=benchmark_game.states,
            action_sets=benchmark_game.action_sets,
            costs=benchmark_game.costs,
            discounts=(1.0, 0.8),
            kernel=benchmark_game.kernel,
            initial_dist=benchmark_game.initial_dist,
        )
        violations = validate_game(game)
        assert len(violations) == 1
        assert "discount" in violations[0] and "player 0" in violations[0]

    def test_nonfinite_cost_and_bad_initial_dist(self, benchmark_game):
        costs = (np.array(benchmark_game.costs[0]), np.array(benchmark_game.costs[1]))
        costs[0][0, 1] = np.inf
        game = StochasticGame(
            states=benchmark_game.states,
            action_sets=benchmark_game.action_sets,
            costs=costs,
            discounts=benchmark_game.discounts,
            kernel=benchmark_game.kernel,
            initial_dist=np.array([0.7, 0.7]),
        )
        violations = validate_game(game)
        assert any("finite" in v for v in violations)
        assert any("initial_dist" in v for v in violations)

    def test_nan_kernel_and_initial_dist_are_flagged(self, benchmark_game):
        # abs(nan - 1) > tol is False, so only a "not <=" test flags NaN.
        kernel = np.array(benchmark_game.kernel)
        kernel[0, 0] = [np.nan, 1.0]
        game = dataclasses.replace(
            benchmark_game, kernel=kernel, initial_dist=np.array([np.nan, 1.0])
        )
        assert validate_game(game) == [
            "kernel row (state s0, joint action (0, 0)) sums to nan, expected 1",
            "initial_dist sums to nan, expected 1",
        ]

    def test_kernel_messages_follow_the_row_loop(self):
        # Nine states, so each row sum runs numpy's pairwise summation; the
        # expected messages are the row-by-row loop's, in (state, joint
        # action) order, a negative entry before a bad sum.
        rng = np.random.default_rng(9)
        kernel = rng.dirichlet(np.ones(9), size=(9, 4))
        kernel[2, 1, 3] = -0.25
        kernel[2, 3] *= 1.0 + 1e-9
        kernel[5, 0, :2] += [-0.1, 0.1]
        kernel[6, 2, 8] = np.inf
        kernel[8, 3] *= 0.5
        game = StochasticGame(
            states=tuple(f"s{x}" for x in range(9)),
            action_sets=(("a0", "a1"), ("b0", "b1")),
            costs=(np.zeros((9, 4)), np.zeros((9, 4))),
            discounts=(0.5, 0.5),
            kernel=kernel,
            initial_dist=np.full(9, 1.0 / 9.0),
        )
        expected = []
        for s in range(9):
            for ja in range(4):
                row = game.kernel[s, ja]
                where = f"kernel row (state s{s}, joint action {game.joint_tuple(ja)})"
                if np.any(row < 0.0):
                    expected.append(f"{where} has a negative entry")
                total = float(row.sum())
                if abs(total - 1.0) > 1e-12:
                    expected.append(f"{where} sums to {total!r}, expected 1")
        assert len(expected) >= 6
        assert validate_game(game) == expected

    def test_nan_kernel_exits_2_from_simulate_and_1_from_analyze(
        self, benchmark_game, tmp_path, capsys
    ):
        kernel = np.array(benchmark_game.kernel)
        kernel[0, 0] = [np.nan, 1.0]
        save_game(dataclasses.replace(benchmark_game, kernel=kernel), tmp_path / "game.json")
        config = {"trials": 2, "horizon": 1200, "record_times": [0, 600], "min_phase": 300}
        (tmp_path / "config.json").write_text(json.dumps(config))
        game = str(tmp_path / "game.json")
        argv = ["simulate", game, "--config", str(tmp_path / "config.json")]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert "sums to nan" in capsys.readouterr().err
        assert cli.main(["analyze", game]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == [
            "kernel row (state s0, joint action (0, 0)) sums to nan, expected 1"
        ]


class TestSoftenPolicy:
    def test_rho_zero_is_indicator(self):
        policy = DeterministicPolicy(0, (1, 0))
        soft = soften_policy(policy, 0.0, 2)
        assert_allclose(soft.probs, [[0.0, 1.0], [1.0, 0.0]])

    def test_rho_one_is_uniform(self):
        soft = soften_policy(DeterministicPolicy(0, (0, 0)), 1.0, 2)
        assert_allclose(soft.probs, 0.5)

    def test_benchmark_rate(self):
        soft = soften_policy(DeterministicPolicy(0, (0,)), 0.05, 2)
        assert_allclose(soft.probs, [[0.975, 0.025]])
        assert soft.is_soft(0.025)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            soften_policy(DeterministicPolicy(0, (0,)), 1.5, 2)
        with pytest.raises(ValueError):
            soften_policy(DeterministicPolicy(0, (0,)), -0.1, 2)

    def test_argmax_recovers_original(self, rng):
        # softened row still peaks at the chosen action whenever
        # (1 - rho) + rho/m > rho/m
        for _ in range(50):
            m = int(rng.integers(2, 5))
            states = int(rng.integers(1, 4))
            choice = tuple(int(a) for a in rng.integers(0, m, size=states))
            rho = float(rng.uniform(0.0, (m - 1) / m - 1e-9))
            soft = soften_policy(DeterministicPolicy(0, choice), rho, m)
            assert tuple(np.argmax(soft.probs, axis=1)) == choice

    def test_one_softening_rule(self, rng):
        # soften_policy holds the bytes of the shared rule, and of the
        # per-entry form: rho / m everywhere, then 1 - rho added at the choice
        for _ in range(2000):
            m = int(rng.integers(1, 6))
            choice = tuple(int(a) for a in rng.integers(0, m, size=int(rng.integers(1, 5))))
            rho = float(rng.choice([0.0, 1.0, rng.uniform()]))
            probs = soften_policy(DeterministicPolicy(0, choice), rho, m).probs
            assert probs.tobytes() == _softened(np.array(choice), rho, m).tobytes()
            entries = np.full((len(choice), m), rho / m)
            entries[np.arange(len(choice)), choice] += 1.0 - rho
            assert probs.tobytes() == entries.tobytes()


class TestSampleTransition:
    def test_deterministic_row(self):
        game = _single_state_game((1.0, 0.0), initial=(1.0, 0.0))
        for w in (0.0, 0.3, 0.999, 1.0):
            assert sample_transition(game, 0, 0, w) == 0

    def test_benchmark_matched_row(self, benchmark_game):
        # matched actions in s1: mass 0.25 on s0, so w = 0.2 selects s0
        ja = benchmark_game.joint_index((0, 0))
        assert sample_transition(benchmark_game, 1, ja, 0.2) == 0
        assert sample_transition(benchmark_game, 1, ja, 0.25) == 1  # boundary goes later

    def test_top_of_cdf_goes_to_last_positive(self):
        game = _single_state_game((0.25, 0.75, 0.0), initial=(1.0, 0.0, 0.0))
        assert sample_transition(game, 0, 0, 1.0) == 1

    def test_invalid_ids(self, benchmark_game):
        with pytest.raises(ValueError):
            sample_transition(benchmark_game, 5, 0, 0.5)
        with pytest.raises(ValueError):
            sample_transition(benchmark_game, 0, 99, 0.5)
        with pytest.raises(ValueError):
            sample_transition(benchmark_game, 0, 0, 1.5)

    @pytest.mark.parametrize(
        "state, joint_action, w, text",
        [
            (5, 0, 0.5, "state id 5 out of range"),
            (-1, 0, 0.5, "state id -1 out of range"),
            (np.array([0, 1, 2]), 0, 0.5, "state id [0 1 2] out of range"),
            (0, 4, 0.5, "joint action index 4 out of range"),
            (0, np.array([[0, -1]]), 0.5, "joint action index [[ 0 -1]] out of range"),
            (0, 0, float("nan"), "w must lie in [0, 1], got nan"),
            (0, 0, -1e-300, "w must lie in [0, 1], got -1e-300"),
            (0, 0, 1.5, "w must lie in [0, 1], got 1.5"),
            (0, 0, np.array([0.5, np.nan]), "w must lie in [0, 1], got [0.5 nan]"),
            (0, 0, np.array([0.5, 1.0000000000000002]), "w must lie in [0, 1], got [0.5 1. ]"),
            # the state is checked first, then the joint action, then w
            (2, 9, 7.0, "state id 2 out of range"),
            (0, 9, float("nan"), "joint action index 9 out of range"),
        ],
    )
    def test_rejection_texts(self, benchmark_game, state, joint_action, w, text):
        with pytest.raises(ValueError) as excinfo:
            sample_transition(benchmark_game, state, joint_action, w)
        assert str(excinfo.value) == text

    def test_empty_and_zero_d_inputs(self, benchmark_game):
        empty = sample_transition(benchmark_game, np.array([], dtype=int), 0, 0.5)
        assert empty.shape == (0,) and empty.dtype == np.int64
        wide = sample_transition(benchmark_game, 0, np.zeros((0, 3), dtype=int), np.zeros((2, 0, 1)))
        assert wide.shape == (2, 0, 3)
        scalar = sample_transition(benchmark_game, np.int64(1), np.intp(2), np.float64(0.3))
        assert np.ndim(scalar) == 0 and scalar.dtype == np.int64
        assert scalar == sample_transition(benchmark_game, 1, 2, 0.3) == 0
        assert sample_transition(benchmark_game, 0, 0, -0.0) == 0

    def test_matches_bisect_with_massless_next_states(self):
        # zero masses inside and at the end of rows, and w on every CDF step,
        # at 0 and at 1: the table's +inf tail must give the bisect rule and
        # its fallback to the last next-state of positive mass
        rng = np.random.default_rng(41)
        for num_states in (1, 2, 3, 5):
            kernel = rng.uniform(0.0, 1.0, size=(num_states, 3, num_states))
            kernel[rng.random(kernel.shape) < 0.4] = 0.0
            kernel[..., 0] += 0.01
            kernel /= kernel.sum(axis=2, keepdims=True)
            game = StochasticGame(
                states=tuple(f"s{x}" for x in range(num_states)),
                action_sets=(("a0", "a1", "a2"),),
                costs=(np.zeros((num_states, 3)),),
                discounts=(0.5,),
                kernel=kernel,
                initial_dist=np.full(num_states, 1.0 / num_states),
            )
            cumulative = np.cumsum(kernel, axis=2)
            w = np.concatenate([cumulative.ravel(), [0.0, 1.0], rng.random(50)])
            state = rng.integers(num_states, size=(w.size, 1))
            joint = rng.integers(3, size=(1, 4))
            expected = [
                [
                    bisect_inverse_cdf(
                        cumulative[x, u].tolist(), v, last_positive(kernel[x, u].tolist())
                    )
                    for u in joint[0]
                ]
                for x, v in zip(state[:, 0], w)
            ]
            got = sample_transition(game, state, joint, w[:, None])
            assert got.tolist() == expected

    def test_monte_carlo_matches_row(self, rng):
        game = _single_state_game((0.25, 0.75), initial=(1.0, 0.0))
        draws = rng.random(1_000_000)
        hits = np.count_nonzero(sample_transition(game, 0, 0, draws) == 0)
        assert abs(hits / 1_000_000 - 0.25) <= 0.002

    def test_every_benchmark_row_within_three_se(self, benchmark_game, rng):
        n = 100_000
        for s in range(benchmark_game.num_states):
            for ja in range(benchmark_game.num_joint_actions):
                draws = rng.random(n)
                counts = np.bincount(
                    sample_transition(benchmark_game, s, ja, draws),
                    minlength=benchmark_game.num_states,
                )
                freqs = counts / n
                for t, p in enumerate(benchmark_game.kernel[s, ja]):
                    if p == 0.0:
                        assert counts[t] == 0
                    else:
                        se = np.sqrt(p * (1 - p) / n)
                        assert abs(freqs[t] - p) <= 3 * se


class TestInitialState:
    def test_inverse_cdf_rule(self, benchmark_game):
        assert sample_initial_state(benchmark_game, 0.2) == 0
        assert sample_initial_state(benchmark_game, 0.5) == 1
        assert sample_initial_state(benchmark_game, 1.0) == 1


class TestJointIndexing:
    def test_round_trip(self, benchmark_game):
        for ja in range(benchmark_game.num_joint_actions):
            assert benchmark_game.joint_index(benchmark_game.joint_tuple(ja)) == ja

    def test_player_zero_most_significant(self, benchmark_game):
        assert benchmark_game.joint_index((1, 0)) == 2
        assert benchmark_game.joint_tuple(1) == (0, 1)


# Each integer input given a bool, a float or a value out of its range, with
# the input its error names.
_STREAMS = RandomnessStreams(0)
_BAD_INTEGERS = {
    "seed-float": ("master_seed", lambda g: RandomnessStreams(1.7)),
    "seed-bool": ("master_seed", lambda g: RandomnessStreams(True)),
    "seed-np-float": ("master_seed", lambda g: RandomnessStreams(np.float64(3.9))),
    "trial-float": ("trial", lambda g: RandomnessStreams(0, trial=1.5)),
    "schedule-min-length": ("min_length", lambda g: Schedule(2.5, 2, ((3,),))),
    "schedule-ratio": ("ratio", lambda g: Schedule(2, 2.0, ((3,),))),
    # a phase length was held as int(v): 2.5 as 2, True as 1 and "3" as 3
    "schedule-phase-length": ("phase length of player 0", lambda g: Schedule(1, 3, ((2.5, 3),))),
    "schedule-phase-length-bool": ("phase length of player 1", lambda g: Schedule(1, 3, ((3,), (True, 3)))),
    "schedule-phase-length-string": ("phase length of player 0", lambda g: Schedule(1, 3, (("3", 3),))),
    "draw-min-length": ("min_length", lambda g: draw_schedule(_STREAMS, 2, 2.5, 2, 10)),
    "draw-min-length-bool": ("min_length", lambda g: draw_schedule(_STREAMS, 2, True, 2, 10)),
    "draw-ratio": ("ratio", lambda g: draw_schedule(_STREAMS, 2, 2, 1.5, 10)),
    "check-ratio-bool": ("ratio", lambda g: check_input("ratio", True)),
    "analyze-ratio-bool": ("ratio", lambda g: analyze_game(g, ratio=True)),
    "p-min-L": ("L", lambda g: p_min(g, (0.2, 0.2), 3, 2.5)),
    "xi-N": ("N", lambda g: xi_bound(0.1, 3, 2.0, 2, (0.5, 0.5), 1.0)),
    "xi-L-bool": ("L", lambda g: xi_bound(0.1, 3, 2, True, (0.5, 0.5), 1.0)),
    # min_length 0 drew zero-length phases forever, ratio 0 reached numpy's
    # "low > high", horizon 0 drew no phase
    "phase-lengths-min-length": ("min_length", lambda g: _STREAMS.phase_lengths(0, 0, 3, 10)),
    "phase-lengths-ratio": ("ratio", lambda g: _STREAMS.phase_lengths(0, 2, 0, 10)),
    "phase-lengths-horizon": ("horizon", lambda g: _STREAMS.phase_lengths(0, 2, 3, 0)),
    "draw-no-players": ("num_players", lambda g: draw_schedule(_STREAMS, 0, 2, 2, 10)),
    "config-seed-negative": ("master_seed", lambda g: ExperimentConfig(master_seed=-1)),
    "config-seed-past-64-bits": ("master_seed", lambda g: ExperimentConfig(master_seed=2**64)),
    # a string raised TypeError ("'>' not supported"), -1 was accepted, and
    # NaN switched the budget off
    "analysis-budget-string": ("budget", lambda g: ExactAnalysis(g, 1e-9, "5")),
    "analysis-budget-negative": ("budget", lambda g: ExactAnalysis(g, 1e-9, -1)),
    "analysis-budget-nan": ("budget", lambda g: ExactAnalysis(g, 1e-9, math.nan)),
    "analyze-budget-nan": ("budget", lambda g: analyze_game(g, budget=math.nan)),
    "graph-budget-negative": ("budget", lambda g: build_br_graph(g, 1e-9, -1)),
    # a string raised TypeError in np.arange
    "soften-num-actions": ("num_actions", lambda g: soften_policy(DeterministicPolicy(0, (0, 1)), 0.1, "2")),
    "soften-num-actions-float": ("num_actions", lambda g: soften_policy(DeterministicPolicy(0, (0, 1)), 0.1, 2.0)),
    # the longest phase is one 64-bit draw: past it numpy raised "high is out
    # of bounds for int64", naming no input, and only once play had begun
    "phase-lengths-longest": (r"ratio \* min_length", lambda g: _STREAMS.phase_lengths(0, 2**62, 2, 10)),
    "draw-longest-phase": (r"ratio \* min_length", lambda g: draw_schedule(_STREAMS, 2, 2**32, 2**31, 10)),
    "config-longest-phase": (r"ratio \* min_phase", lambda g: ExperimentConfig(min_phase=2**62, ratio=2)),
}

# Each real input, as a call on one value, with the input its error names.
_BAD_REALS = {
    "agent-rho": ("rho", lambda g, v: AgentConfig(0, v, 0.2, 0.5, 0.1)),
    "agent-lam": ("lam", lambda g, v: AgentConfig(0, 0.05, v, 0.5, 0.1)),
    "agent-delta": ("delta", lambda g, v: AgentConfig(0, 0.05, 0.2, v, 0.1)),
    "agent-alpha": ("alpha", lambda g, v: AgentConfig(0, 0.05, 0.2, 0.5, v)),
    "xi-theta": ("theta", lambda g, v: xi_bound(v, 3, 2, 2, (0.5, 0.5), 1.0)),
    "analyze-tol": ("tol", lambda g, v: analyze_game(g, tol=v)),
    "analyze-rho": ("rho", lambda g, v: analyze_game(g, rhos=(0.05, v))),
    "analyze-delta": ("delta", lambda g, v: analyze_game(g, rhos=(0.05, 0.05), deltas=(0.5, v))),
    "analyze-lambda": ("lambda", lambda g, v: analyze_game(g, lambdas=(0.2, v))),
    "analyze-eps": ("eps", lambda g, v: analyze_game(g, eps=v)),
    "config-rho": ("rho", lambda g, v: ExperimentConfig(rho=v)),
    "soften-rho": ("rho", lambda g, v: soften_policy(DeterministicPolicy(0, (0, 1)), v, 2)),
    "br-hat-eps": ("eps", lambda g, v: br_hat(QTable(0, np.zeros((2, 2))), v)),
    "label-eps": ("eps", lambda g, v: label_equilibria(g, [((0, 0), (0, 1))], 1e-9, v)),
    # a string raised TypeError in these four, and True passed as 1
    "theta-p-min": ("p_min", lambda g, v: solve_theta(v, 0.1)),
    "xi-delta": ("delta", lambda g, v: xi_bound(0.1, 3, 2, 2, (0.5, v), 1.0)),
    "initial-state-w": ("w", lambda g, v: sample_initial_state(g, v)),
}
# Cases whose range has no upper end (eps >= 0): infinity passes them.
_UNBOUNDED = {"br-hat-eps", "label-eps"}


class TestPolicies:
    def test_deterministic_validation(self, benchmark_game):
        with pytest.raises(ValueError):
            DeterministicPolicy(0, (0, 5)).validate_for(benchmark_game)
        with pytest.raises(ValueError, match="action id 5 out of range for 2 actions"):
            DeterministicPolicy(0, (0, 5)).as_stationary(2)
        with pytest.raises(ValueError):
            DeterministicPolicy(0, (0,)).validate_for(benchmark_game)

    @pytest.mark.parametrize("action", [1.7, 1.0, "1", True, np.bool_(True), None])
    def test_action_ids_must_be_integers(self, action):
        with pytest.raises(ValueError, match=re.escape(f"action id {action!r} is not an integer")):
            DeterministicPolicy(0, (0, action))

    @pytest.mark.parametrize("player", [0.0, True, "0", np.bool_(False)])
    def test_player_ids_must_be_integers(self, player):
        message = re.escape(f"player id {player!r} is not an integer")
        with pytest.raises(ValueError, match=message):
            DeterministicPolicy(player, (0, 1))
        with pytest.raises(ValueError, match=message):
            StationaryPolicy(player, np.array([[0.5, 0.5]]))

    def test_player_ids_nonnegative_and_python_ints(self):
        with pytest.raises(ValueError, match="player id -1 must be nonnegative"):
            DeterministicPolicy(-1, (0, 1))
        with pytest.raises(ValueError, match="player id -1 must be nonnegative"):
            StationaryPolicy(-1, np.array([[0.5, 0.5]]))
        for policy in (
            DeterministicPolicy(np.uint8(1), (0, 1)),
            StationaryPolicy(np.int64(1), np.array([[0.5, 0.5]])),
        ):
            assert type(policy.player) is int and policy.player == 1

    @pytest.mark.parametrize(
        "choice, message",
        [
            ((0, 2), "action id 2 invalid for player 0 in state 1"),
            ((0,), "must choose an action in every state: 1 action ids for 2 states"),
            ((0, 0, 0), "must choose an action in every state: 3 action ids for 2 states"),
            ((0, 0.5), "action id 0.5 is not an integer"),
        ],
    )
    def test_one_choice_rule(self, benchmark_game, choice, message):
        # A policy, a forced first baseline and a labelled joint all break
        # the one rule the same way.
        configs = [AgentConfig(player=i, rho=0.05, lam=0.2, delta=0.5, alpha=0.1) for i in (0, 1)]
        message = re.escape(message)
        with pytest.raises(ValueError, match=message):
            _choice_for(benchmark_game, 0, choice)
        with pytest.raises(ValueError, match=message):
            DeterministicPolicy(0, choice).validate_for(benchmark_game)
        with pytest.raises(ValueError, match=message):
            _first_baselines(benchmark_game, configs, [RandomnessStreams(0)], (choice, (0, 0)))
        with pytest.raises(ValueError, match=r"joint .* is not a joint policy of this game: "):
            label_equilibria(benchmark_game, [(choice, (0, 0))], 1e-9)
        with pytest.raises(ValueError, match=message):
            label_equilibria(benchmark_game, [(choice, (0, 0))], 1e-9)
        assert _choice_for(benchmark_game, 1, (np.int64(1), np.uint8(0))) == (1, 0)

    @pytest.mark.parametrize("case", sorted(_BAD_INTEGERS))
    def test_integer_inputs_follow_the_id_rule(self, benchmark_game, case):
        # A bool or a float is a ValueError naming the input, not an integer.
        name, call = _BAD_INTEGERS[case]
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            call(benchmark_game)

    @pytest.mark.parametrize("case", sorted(_BAD_REALS))
    def test_real_inputs_follow_their_range_rule(self, benchmark_game, case):
        # NaN, infinity, a string and a bool are each a ValueError naming the
        # input, not a TypeError, a NaN result or a run with the bool's value;
        # infinity is the one exception, and passes, where no upper end bounds
        # the range (the greedy slack eps).
        name, call = _BAD_REALS[case]
        for value in (math.nan, math.inf, "0.1", True):
            if value == math.inf and case in _UNBOUNDED:
                call(benchmark_game, value)
                continue
            with pytest.raises(ValueError, match=rf"^{name} must .*, got {re.escape(repr(value))}$"):
                call(benchmark_game, value)

    def test_numpy_integer_action_ids(self):
        choice = DeterministicPolicy(0, (np.int64(1), np.uint8(0))).choice
        assert choice == (1, 0) and all(type(a) is int for a in choice)

    def test_numpy_integer_seeds_and_lengths(self):
        streams = RandomnessStreams(np.uint64(3), trial=np.int32(1))
        assert (streams.master_seed, streams.trial) == (3, 1)
        drawn = draw_schedule(streams, 2, np.int64(5), np.int8(2), 50)
        assert drawn == draw_schedule(streams, 2, 5, 2, 50)
        # held as Python ints: a numpy one reached the trace's JSON, which
        # could not hold it, and np.int8(100) * np.int8(2) wrapped to -56
        assert repr(drawn) == repr(draw_schedule(streams, 2, 5, 2, 50))
        assert draw_schedule(streams, 2, np.int8(100), np.int8(2), 500) == draw_schedule(
            streams, 2, 100, 2, 500
        )

    def test_stationary_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            StationaryPolicy(0, np.array([[0.5, 0.4]]))

    def test_joint_ordering(self):
        with pytest.raises(ValueError):
            JointDeterministicPolicy(
                (DeterministicPolicy(1, (0,)), DeterministicPolicy(0, (0,)))
            )
        joint = JointDeterministicPolicy.from_choices([(0, 1), (1, 0)])
        assert joint.choices == ((0, 1), (1, 0))


class TestGameIo:
    def test_round_trip(self, benchmark_game, tmp_path):
        path = tmp_path / "game.json"
        save_game(benchmark_game, path)
        loaded = load_game(path)
        assert loaded.states == benchmark_game.states
        assert loaded.action_sets == benchmark_game.action_sets
        assert loaded.discounts == benchmark_game.discounts
        assert_allclose(loaded.kernel, benchmark_game.kernel)
        assert_allclose(loaded.initial_dist, benchmark_game.initial_dist)
        for mine, theirs in zip(loaded.costs, benchmark_game.costs):
            assert_allclose(mine, theirs)

    def test_missing_key_is_reported(self):
        data = game_to_dict(_single_state_game((1.0, 0.0), initial=(1.0, 0.0)))
        del data["kernel"]
        with pytest.raises(ValueError, match="kernel"):
            game_from_dict(data)

    @pytest.mark.parametrize("document", ["top-level list", "actions not a list"])
    def test_wrong_json_types_raise_value_error(self, benchmark_game, document):
        if document == "top-level list":
            data = [1, 2]
        else:
            data = game_to_dict(benchmark_game)
            data["actions"] = 5
        with pytest.raises(ValueError):
            game_from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("states", "s0"),
            ("actions", [["a0", "a1"], "a0"]),
            ("actions", "ab"),
            ("players", "p0"),
        ],
    )
    def test_string_names_are_rejected(self, benchmark_game, tmp_path, capsys, key, value):
        # Each string has as many characters as the list it replaces, so
        # reading it one character per name would give a well-shaped game.
        data = game_to_dict(benchmark_game)
        data[key] = value
        with pytest.raises(ValueError, match=r"must be a list of names"):
            game_from_dict(data)
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        assert cli.main(["analyze", str(path)]) == 2
        assert "must be a list of names" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValueError):
            load_game(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            load_game(bad)

    def test_shape_mismatch_raises_at_construction(self):
        with pytest.raises(ValueError):
            StochasticGame(
                states=("s0",),
                action_sets=(("a0",),),
                costs=(np.zeros((1, 2)),),
                discounts=(0.5,),
                kernel=np.ones((1, 1, 1)),
                initial_dist=np.array([1.0]),
            )

    def test_json_doc_example(self, benchmark_game, tmp_path):
        path = tmp_path / "game.json"
        save_game(benchmark_game, path, players=("row", "col"))
        data = json.loads(path.read_text())
        assert data["players"] == ["row", "col"]
        assert data["states"] == ["s0", "s1"]
        # kernel uses [state][joint][next] nesting
        assert data["kernel"][1][0][0] == 0.25


# JSON integers are unbounded: include ones beyond the float range.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@st.composite
def _game_documents(draw):
    """Arbitrary JSON, or the benchmark game's document with one value
    somewhere inside it replaced by arbitrary JSON."""
    from decqlearn.experiments import build_benchmark_game

    if draw(st.booleans()):
        return draw(_JSON_VALUES)
    doc = game_to_dict(build_benchmark_game())
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], list) and parent[key] and draw(st.booleans()):
        parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
    parent[key] = draw(_JSON_VALUES)
    return doc


def _with(key, value):
    from decqlearn.experiments import build_benchmark_game

    doc = game_to_dict(build_benchmark_game())
    doc[key] = value
    return doc


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(document=_game_documents())
    @example(document=_with("discounts", [10**400, 0.8]))
    @example(document=_with("initial_dist", [1, -(10**400)]))
    def test_document_gives_a_game_or_value_error(self, document):
        try:
            game = game_from_dict(document)
        except ValueError:
            return
        assert isinstance(game, StochasticGame)

    # np.asarray(..., dtype=np.float64) and float() read each of these as a
    # number, so the game loaded and validate_game reported nothing
    @pytest.mark.parametrize(
        "key, where, value",
        [
            ("discounts", (), [False, False]),
            ("discounts", (0,), "0.8"),
            ("costs", (1, 0, 0), "7"),
            ("costs", (0, 1, 2), True),
            ("kernel", (1, 2), ["0.5", "0.5"]),
            ("kernel", (0, 0, 1), False),
            ("initial_dist", (), [True, False]),
            ("initial_dist", (1,), True),
        ],
    )
    def test_non_numbers_are_refused_by_key(
        self, benchmark_game, tmp_path, capsys, key, where, value
    ):
        document = game_to_dict(benchmark_game)
        parent, index = document, key
        for step in where:
            parent, index = parent[index], step
        parent[index] = value
        with pytest.raises(ValueError, match=rf"^{key}(\[\d\])? must hold numbers only"):
            game_from_dict(document)
        path = tmp_path / "game.json"
        path.write_text(json.dumps(document))
        assert cli.main(["analyze", str(path)]) == 2
        assert key in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(document=_game_documents())
    def test_analyze_exits_2_on_a_malformed_file(self, document):
        try:
            game_from_dict(document)
        except ValueError:
            pass
        else:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "game.json"
            path.write_text(json.dumps(document))
            with contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(["analyze", str(path)]) == 2
