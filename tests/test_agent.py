import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decqlearn.agent import AgentConfig, end_phase_update
from decqlearn.exact_solver import QTable
from decqlearn.game_model import DeterministicPolicy, StochasticGame
from decqlearn.orchestrator import RandomnessStreams, _first_baselines, _learn, _QStack, _simulate
from oracles import learn_reference


def _config(lam=0.2, delta=0.5):
    return AgentConfig(player=0, rho=0.05, lam=lam, delta=delta, alpha=0.5)


class TestAgentConfig:
    def test_open_interval_validation(self):
        with pytest.raises(ValueError):
            AgentConfig(player=0, rho=0.0, lam=0.2, delta=0.5, alpha=0.1)
        with pytest.raises(ValueError):
            AgentConfig(player=0, rho=0.05, lam=1.0, delta=0.5, alpha=0.1)
        with pytest.raises(ValueError):
            AgentConfig(player=0, rho=0.05, lam=0.2, delta=0.0, alpha=0.1)
        with pytest.raises(ValueError):
            AgentConfig(player=0, rho=0.05, lam=0.2, delta=0.5, alpha=1.0)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, -math.inf])
    def test_delta_must_be_finite(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            AgentConfig(player=0, rho=0.05, lam=0.2, delta=delta, alpha=0.1)

    @pytest.mark.parametrize("player", [0.0, True, "0", None])
    def test_player_id_must_be_an_integer(self, player):
        with pytest.raises(ValueError, match=re.escape(f"player id {player!r} is not an integer")):
            AgentConfig(player=player, rho=0.05, lam=0.2, delta=0.5, alpha=0.1)

    def test_player_id_nonnegative_and_a_python_int(self):
        with pytest.raises(ValueError, match="player id -1 must be nonnegative"):
            AgentConfig(player=-1, rho=0.05, lam=0.2, delta=0.5, alpha=0.1)
        cfg = AgentConfig(player=np.int64(1), rho=0.05, lam=0.2, delta=0.5, alpha=0.1)
        assert type(cfg.player) is int and cfg.player == 1

    def test_initial_policy_player_must_match(self):
        with pytest.raises(ValueError):
            AgentConfig(
                player=0,
                rho=0.05,
                lam=0.2,
                delta=0.5,
                alpha=0.1,
                initial_policy=DeterministicPolicy(1, (0, 0)),
            )

    def test_initial_q_player_must_match(self):
        with pytest.raises(ValueError, match="initial_q belongs to a different player"):
            AgentConfig(
                player=0,
                rho=0.05,
                lam=0.2,
                delta=0.5,
                alpha=0.1,
                initial_q=QTable(1, np.zeros((2, 2))),
            )

    def test_from_config_fills_zero_q(self):
        cfg = AgentConfig(
            player=0,
            rho=0.05,
            lam=0.2,
            delta=0.5,
            alpha=0.1,
            initial_policy=DeterministicPolicy(0, (1, 0)),
        )
        stack = _QStack(_one_player_game(), [cfg], 1)
        assert stack.table(0, 0).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert stack.max_abs_q.tolist() == [0.0]
        (baselines,) = _first_baselines(_one_player_game(), [cfg], [RandomnessStreams(0)])
        assert baselines.tolist() == [[1, 0]]

    def test_initial_q_accepts_qtable(self):
        cfg = AgentConfig(
            player=0,
            rho=0.05,
            lam=0.2,
            delta=0.5,
            alpha=0.1,
            initial_policy=DeterministicPolicy(0, (0, 0)),
            initial_q=QTable(0, np.full((2, 2), 3.0)),
        )
        stack = _QStack(_one_player_game(), [cfg], 1)
        assert stack.table(0, 0).tolist() == [[3.0, 3.0], [3.0, 3.0]]
        # the engine's running max |Q| starts from the initial table
        assert stack.max_abs_q.tolist() == [3.0]


class _Constant:
    """Stand-in generator whose every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, out):
        out[...] = self.value
        return out

    def integers(self, low, high, size):
        return np.full(size, self.value, dtype=np.int64)


class _Draws:
    """Stand-in streams for a one-stage episode: start in state 0,
    experimentation uniform ``explore``, uniform action 0."""

    def __init__(self, explore):
        self.explore = explore

    def transition_generator(self):
        return _Constant(0.5)

    def experimentation_generator(self, player):
        return _Constant(self.explore)

    def action_generator(self, player):
        return _Constant(0)

    def initial_state_uniform(self):
        return 0.0


def _one_player_game():
    """One player, two states, two actions, every cost 1; starts in state 0."""
    return StochasticGame(
        states=("s0", "s1"),
        action_sets=(("a0", "a1"),),
        costs=(np.ones((2, 2)),),
        discounts=(0.8,),
        kernel=np.full((2, 2, 2), 0.5),
        initial_dist=np.array([1.0, 0.0]),
    )


def _played_action(rho, explore, baseline=(1, 0)):
    """The action the episode engine plays for a one-player game at its first
    stage, read off the one Q entry that stage updates (every cost is 1).
    The config is a stand-in, so rho = 0 (outside AgentConfig's range)
    stays reachable."""
    config = SimpleNamespace(rho=rho, alpha=0.5, initial_q=None)
    ((*_, (q,), _),) = _simulate(
        _one_player_game(),
        [config],
        [np.array([baseline])],
        [_Draws(explore)],
        horizon=1,
        record_times=(),
        boundaries=[()],
        record_q=False,
    )
    (played,) = [u for u in range(2) if q[0][u] != 0.0]
    return played


class TestSelectAction:
    """The experimentation rule of the episode engine: a player plays its
    uniform action iff its experimentation draw is <= rho."""

    def test_draw_above_rho_uses_baseline(self):
        assert _played_action(rho=0.05, explore=0.9) == 1

    def test_draw_at_or_below_rho_experiments(self):
        assert _played_action(rho=0.05, explore=0.01) == 0
        assert _played_action(rho=0.05, explore=0.05) == 0  # boundary draw experiments

    def test_rho_zero_always_baseline(self):
        for draw in (1e-12, 0.3, 0.9999, 1.0):
            assert _played_action(rho=0.0, explore=draw) == 1


class TestQUpdate:
    """The constant-step Q-learning update on a table held as lists,
    ``orchestrator._learn``."""

    def test_arithmetic_example(self):
        q = [[0.0, 0.0], [0.0, 0.0]]
        _learn(q, 0.5, 0.8, 0.0, [0], [1], [2.0], [1])
        assert q == [[0.0, 1.0], [0.0, 0.0]]

    def test_alpha_one_full_replacement(self):
        q = [[5.0, 5.0], [1.0, 3.0]]
        _learn(q, 1.0, 0.8, 5.0, [0], [0], [2.0], [1])
        assert q[0][0] == 2.0 + 0.8 * 1.0

    def test_fixed_point_entry_unchanged(self):
        # entry already equals cost + beta * min next row
        q = [[2.0, 0.0], [2.0, 2.0]]
        _learn(q, 0.5, 0.5, 2.0, [0], [0], [1.0], [1])  # 1 + 0.5 * 2 = 2
        assert q[0][0] == 2.0

    def test_touches_exactly_one_entry(self, rng):
        q = rng.normal(size=(2, 2)).tolist()
        for _ in range(200):
            before = [row[:] for row in q]
            x = int(rng.integers(2))
            u = int(rng.integers(2))
            x_next = int(rng.integers(2))
            _learn(q, 0.3, 0.8, 0.0, [x], [u], [float(rng.normal())], [x_next])
            diffs = [
                (s, a)
                for s in range(2)
                for a in range(2)
                if q[s][a] != before[s][a]
            ]
            assert diffs in ([], [(x, u)])

    def test_uses_pre_update_next_row(self):
        # self-referential update (x_next == x): the min must be taken
        # before the entry is overwritten
        q = [[1.0, 4.0], [0.0, 0.0]]
        _learn(q, 1.0, 0.5, 4.0, [0], [0], [0.0], [0])
        assert q[0][0] == 0.5 * 1.0

    def test_path_applies_updates_in_order(self):
        # a path that stays in state 0 (x_next == x) before leaving it: each
        # update reads the row as the previous update left it
        q = [[4.0, 2.0], [0.0, 0.0]]
        max_abs_q = _learn(
            q, 0.5, 0.5, 4.0, [0, 0, 0, 1], [1, 1, 0, 0], [0.0, 0.0, 1.0, 3.0], [0, 0, 0, 1]
        )
        # q[0][1]: 0.5 * 2 + 0.5 * (0 + 0.5 * 2) = 1.5,
        #          then 0.5 * 1.5 + 0.5 * (0 + 0.5 * 1.5) = 1.125
        # q[0][0]: 0.5 * 4 + 0.5 * (1 + 0.5 * 1.125) = 2.78125
        # q[1][0]: 0.5 * 0 + 0.5 * (3 + 0.5 * 0) = 1.5
        assert q == [[2.78125, 1.125], [1.5, 0.0]]
        assert max_abs_q == 4.0

    def test_tracks_running_max(self):
        q = [[0.0, 0.0], [0.0, 0.0]]
        max_abs_q = _learn(q, 1.0, 0.0, 0.0, [0], [0], [-7.0], [1])
        max_abs_q = _learn(q, 1.0, 0.0, max_abs_q, [0], [1], [3.0], [1])
        assert max_abs_q == 7.0


# Few distinct values, so rows tie and entries repeat; both signed zeros.
_TIED = st.sampled_from([-3.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])


@st.composite
def _learn_cases(draw):
    """Arguments of ``_learn``: a table of 1-4 states and 1-4 actions with
    tied, negative or signed-zero entries, a path of updates whose next
    states may equal their states, costs that are small integers, signed
    zeros or any finite float, and a starting max |Q| below or above the
    table's largest |entry|, or even negative."""
    num_states = draw(st.integers(1, 4))
    num_actions = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([_TIED, st.floats(-50.0, 50.0)]))
    q = draw(
        st.lists(
            st.lists(entry, min_size=num_actions, max_size=num_actions),
            min_size=num_states,
            max_size=num_states,
        )
    )
    length = draw(st.integers(0, 60))
    state = st.integers(0, num_states - 1)
    states = draw(st.lists(state, min_size=length, max_size=length))
    if draw(st.booleans()):  # a path: each step starts where the last one ended
        next_states = (states[1:] + [draw(state)])[:length]
    else:
        next_states = draw(st.lists(state, min_size=length, max_size=length))
    actions = draw(st.lists(st.integers(0, num_actions - 1), min_size=length, max_size=length))
    cost = draw(
        st.sampled_from(
            [
                st.integers(-2, 2).map(float),
                st.sampled_from([0.0, -0.0]),
                st.floats(-10.0, 10.0),
            ]
        )
    )
    costs = draw(st.lists(cost, min_size=length, max_size=length))
    alpha = draw(st.sampled_from([1.0, 0.5, 0.08]) | st.floats(0.01, 1.0))
    beta = draw(st.sampled_from([0.0, 0.5, 0.8]) | st.floats(0.0, 0.99))
    largest = max(abs(v) for row in q for v in row)
    max_abs_q = draw(st.sampled_from([-1.0, 0.0, largest / 2, largest, largest + 1.0]))
    return q, alpha, beta, max_abs_q, states, actions, costs, next_states


def _bits(q, max_abs_q):
    return [[v.hex() for v in row] for row in q], max_abs_q.hex()


class TestLearnMatchesReference:
    """``_learn``, which caches each row's minimum, against
    ``oracles.learn_reference``, which scans the row at every step: every
    table entry and the returned max |Q| agree bit for bit."""

    @staticmethod
    def _assert_same_bits(q, alpha, beta, max_abs_q, states, actions, costs, next_states):
        fast, slow = [row[:] for row in q], [row[:] for row in q]
        got = _learn(fast, alpha, beta, max_abs_q, states, actions, costs, next_states)
        want = learn_reference(slow, alpha, beta, max_abs_q, states, actions, costs, next_states)
        assert _bits(fast, got) == _bits(slow, want)

    @settings(max_examples=400, deadline=None)
    @given(case=_learn_cases())
    # alpha = 1 and beta = 0 write the cost itself: -0.0 over 0.0 and back
    # moves which zero min() returns
    @example(
        case=(
            [[0.0, 0.0], [0.0, -0.0]], 1.0, 0.0, 0.0,
            [0, 0, 1, 0], [0, 1, 0, 0], [-0.0, -0.0, 0.0, 0.0], [1, 0, 0, 1],
        )
    )
    @example(
        case=([[-0.0, 0.0, -0.0]], 1.0, 0.0, 0.0, [0, 0, 0], [0, 2, 1], [0.0, 0.0, -0.0], [0, 0, 0])
    )
    # 0.0 written before a -0.0 minimum: min() now returns the 0.0, which
    # the second step reads through its next row
    @example(case=([[1.0, -0.0], [-1.0, -1.0]], 1.0, 0.0, 0.0, [0, 1], [0, 0], [0.0, -0.0], [0, 0]))
    # integer costs on a tied row: the minimum is overwritten and restored
    @example(
        case=(
            [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], 1.0, 0.5, 0.5,
            [0, 0, 1, 0], [0, 0, 2, 1], [3.0, 0.0, 1.0, 1.0], [0, 1, 1, 0],
        )
    )
    # a negative starting max |Q|: the first magnitude written replaces it
    @example(case=([[0.0]], 0.5, 0.0, -1.0, [0, 0], [0, 0], [-1.0, 0.5], [0, 0]))
    def test_random_paths(self, case):
        self._assert_same_bits(*case)

    def test_seeded_long_paths(self):
        # long paths on small tables with integer costs and integer initial
        # entries, so rows tie again and again
        rng = np.random.default_rng(13)
        for _ in range(200):
            num_states, num_actions = rng.integers(1, 5, size=2)
            q = rng.integers(-3, 4, size=(num_states, num_actions)).astype(float).tolist()
            length = int(rng.integers(1, 2000))
            path = rng.integers(num_states, size=length + 1).tolist()
            self._assert_same_bits(
                q,
                float(rng.choice([1.0, 0.5, 0.25])),
                float(rng.choice([0.0, 0.5])),
                float(rng.choice([0.0, 1.0, 10.0])),
                path[:-1],
                rng.integers(num_actions, size=length).tolist(),
                rng.integers(-2, 3, size=length).astype(float).tolist(),
                path[1:],
            )


class TestEndPhaseUpdate:
    def _no_draw(self, allowed):
        raise AssertionError("subset draw must not be consulted")

    def _no_inertia(self):
        raise AssertionError("inertia draw must not be consulted")

    def test_greedy_baseline_kept_regardless_of_draws(self):
        # kept outright: neither the inertia nor the policy draw is taken
        q = np.array([[0.0, 10.0], [0.0, 10.0]])
        config = _config(delta=0.5)
        assert end_phase_update(config, q, [0, 0], self._no_inertia, self._no_draw) is None

    def test_inertia_keeps_poor_baseline(self):
        calls = []

        def inertia():
            calls.append(None)
            return 0.1

        q = np.array([[0.0, 10.0], [0.0, 10.0]])
        config = _config(lam=0.2, delta=0.5)
        assert end_phase_update(config, q, [1, 1], inertia, self._no_draw) is None
        assert len(calls) == 1

    def test_switch_draws_from_greedy_set(self):
        seen = {}

        def draw(allowed):
            seen["allowed"] = allowed
            return (0, 1)

        q = np.array([[0.0, 10.0], [0.0, 0.3]])
        assert end_phase_update(_config(lam=0.2, delta=0.5), q, [1, 1], lambda: 0.9, draw) == (0, 1)
        assert seen["allowed"] == ((0,), (0, 1))

    def test_huge_delta_accepts_everything(self):
        q = np.array([[0.0, 10.0], [0.0, 10.0]])
        config = _config(delta=100.0)
        assert end_phase_update(config, q, [1, 1], self._no_inertia, self._no_draw) is None

    def test_keep_frequency_matches_inertia(self, rng):
        # forced-switch situation: keep happens iff draw < lam
        lam = 0.2
        q = np.array([[0.0, 10.0], [0.0, 10.0]])
        draws = rng.random(100_000)
        keeps = 0
        config = _config(lam=lam, delta=0.5)
        for draw in draws.tolist():
            if end_phase_update(config, q, [1, 1], lambda: draw, lambda allowed: (0, 0)) is None:
                keeps += 1
        se = np.sqrt(lam * (1 - lam) / draws.size)
        assert abs(keeps / draws.size - lam) <= 3 * se
