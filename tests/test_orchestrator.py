import itertools
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from decqlearn import orchestrator
from decqlearn.agent import AgentConfig
from decqlearn.exact_solver import ExactAnalysis, q_star
from decqlearn.game_model import DeterministicPolicy, StochasticGame, soften_policy
from decqlearn.orchestrator import (
    PolicyChange,
    RandomnessStreams,
    Schedule,
    SimulationTrace,
    active_phases,
    draw_schedule,
    equilibrium_frequency,
    frozen_q_run,
    run_episodes,
)
from oracles import (
    active_phases_bruteforce,
    matrix_game,
    random_game,
    seeded_game,
    simulate_stepwise,
)


def _configs(n=2, rho=0.05, lam=0.2, delta=0.5, alpha=0.08, **kwargs):
    return tuple(
        AgentConfig(player=i, rho=rho, lam=lam, delta=delta, alpha=alpha, **kwargs)
        for i in range(n)
    )


class TestRandomnessStreams:
    def test_regeneration_is_identical(self):
        a = RandomnessStreams(123, trial=4)
        b = RandomnessStreams(123, trial=4)
        assert_allclose(a.transition_generator().random(100), b.transition_generator().random(100))
        assert_allclose(
            a.experimentation_generator(1).random(100), b.experimentation_generator(1).random(100)
        )
        assert a.inertia_uniform(0, 17) == b.inertia_uniform(0, 17)
        assert a.policy_draw(0, 17, ((0, 1), (1,))) == b.policy_draw(0, 17, ((0, 1), (1,)))

    def test_trials_are_distinct(self):
        a = RandomnessStreams(123, trial=0)
        b = RandomnessStreams(123, trial=1)
        assert not np.allclose(a.transition_generator().random(50), b.transition_generator().random(50))

    def test_family_cross_correlations_small(self):
        streams = RandomnessStreams(99)
        n = 100_000
        families = {
            "transition": streams.transition_generator().random(n),
            "experiment0": streams.experimentation_generator(0).random(n),
            "experiment1": streams.experimentation_generator(1).random(n),
            "action0": streams.action_generator(0).integers(0, 5, size=n).astype(float),
            "inertia0": np.array(
                [streams.inertia_uniform(0, t) for t in range(n)]
            ),
        }
        names = list(families)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                corr = np.corrcoef(families[names[i]], families[names[j]])[0, 1]
                assert abs(corr) < 0.01, (names[i], names[j], corr)

    def test_policy_draw_stays_inside_and_is_uniform(self):
        streams = RandomnessStreams(5)
        allowed = ((0, 1), (0, 1))
        counts = {}
        n = 20_000
        for t in range(n):
            pick = streams.policy_draw(0, t, allowed)
            assert pick[0] in allowed[0] and pick[1] in allowed[1]
            counts[pick] = counts.get(pick, 0) + 1
        se = np.sqrt(0.25 * 0.75 / n)
        for combo in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert abs(counts.get(combo, 0) / n - 0.25) <= 4 * se

    def test_policy_draw_depends_on_subset(self):
        streams = RandomnessStreams(5)
        full = [streams.policy_draw(0, t, ((0, 1), (0, 1))) for t in range(200)]
        half = [streams.policy_draw(0, t, ((0, 1), (1,))) for t in range(200)]
        assert any(f != h for f, h in zip(full, half))
        assert all(h[1] == 1 for h in half)

    def test_policy_draw_of_2_pow_63_policies_keeps_one_index(self):
        # 63 states of two actions: the largest set one integer draw
        # indexes; the pick is pinned to that draw's bits
        pick = RandomnessStreams(7, trial=3).policy_draw(1, 500, ((0, 1),) * 63)
        assert int("".join(map(str, pick)), 2) == 0x5551B5CE87C499A2

    def test_policy_draw_past_2_pow_63_policies(self):
        # 64 states of two actions (and a 128-state set of 3**128) overflow
        # an int64 index: one draw per state, still keyed and uniform
        streams = RandomnessStreams(7, trial=3)
        allowed = ((0, 1),) * 64
        picks = np.array([streams.policy_draw(1, t, allowed) for t in range(200)])
        assert picks.shape == (200, 64)
        assert abs(picks.mean() - 0.5) <= 4 * np.sqrt(0.25 / picks.size)
        assert streams.policy_draw(1, 7, allowed) == tuple(picks[7])
        wide = ((0, 2, 5),) * 128
        pick = streams.policy_draw(0, 1, wide)
        assert len(pick) == 128 and set(pick) <= {0, 2, 5}

    def test_rejects_bad_seed_and_empty_subset(self):
        with pytest.raises(ValueError):
            RandomnessStreams(-1)
        with pytest.raises(ValueError):
            RandomnessStreams(2**64)
        with pytest.raises(ValueError):
            RandomnessStreams(0).policy_draw(0, 0, ((0,), ()))


class TestDrawSchedule:
    def test_lengths_within_bounds_and_cover(self):
        streams = RandomnessStreams(1)
        schedule = draw_schedule(streams, 2, 5000, 3, 100_000)
        for row in schedule.phase_lengths:
            assert all(5000 <= v <= 15000 for v in row)
        assert schedule.covers(100_000)

    def test_ratio_one_is_degenerate(self):
        schedule = draw_schedule(RandomnessStreams(1), 2, 400, 1, 5000)
        assert all(v == 400 for row in schedule.phase_lengths for v in row)

    def test_uniform_mean(self):
        # lengths ~ Unif{100..300}: mean 200, var (201^2 - 1)/12
        streams = RandomnessStreams(2)
        draws = []
        for player in range(50):
            draws.extend(streams.phase_lengths(player, 100, 3, 45_000))
        draws = np.array(draws[:10_000], dtype=float)
        assert draws.size == 10_000
        se = np.sqrt(((201**2 - 1) / 12) / draws.size)
        assert abs(draws.mean() - 200.0) <= 3 * se

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule(min_length=10, ratio=2, phase_lengths=((5, 10),))
        with pytest.raises(ValueError):
            Schedule(min_length=10, ratio=2, phase_lengths=((25,),))
        with pytest.raises(ValueError):
            Schedule(min_length=0, ratio=2, phase_lengths=((1,),))


class TestActivePhases:
    def test_hand_example_two_players(self):
        # both players update at 4, 8, 12, ...: with T = 4, N = 2 every
        # boundary is its own zero-width phase
        schedule = Schedule(min_length=4, ratio=1, phase_lengths=((4,) * 5, (4,) * 5))
        result = active_phases(schedule)
        first = result.phases[1]
        assert (first.tau_min, first.tau_max) == (4, 4)

    def test_single_player_zero_width(self):
        schedule = Schedule(min_length=5, ratio=2, phase_lengths=((5, 7, 6, 9, 5),))
        result = active_phases(schedule)
        boundaries = schedule.boundaries[0][1:]
        for phase, b in zip(result.phases[1:], boundaries):
            assert phase.tau_min == phase.tau_max == b

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 4))
            min_length = int(rng.integers(3, 13))
            ratio = int(rng.integers(1, 4))
            lengths = tuple(
                tuple(
                    int(rng.integers(min_length, ratio * min_length + 1))
                    for _ in range(int(rng.integers(2, 7)))
                )
                for _ in range(n)
            )
            schedule = Schedule(min_length=min_length, ratio=ratio, phase_lengths=lengths)
            mine = [(p.tau_min, p.tau_max) for p in active_phases(schedule).phases]
            reference = active_phases_bruteforce(schedule)
            shared = min(len(mine), len(reference))
            assert mine[:shared] == reference[:shared]
            assert shared >= 1

    def test_separation_and_boundary_count_properties(self, rng):
        # separation and boundary-count invariants on a random sweep (the
        # large sweep lives in the acceptance suite)
        for _ in range(200):
            n = int(rng.choice([2, 3, 5]))
            min_length = int(rng.integers(2, 30))
            ratio = int(rng.integers(1, 4))
            streams = RandomnessStreams(int(rng.integers(0, 2**32)))
            schedule = draw_schedule(streams, n, min_length, ratio, min_length * 40)
            result = active_phases(schedule)
            phases = result.phases
            for prev, curr in zip(phases, phases[1:]):
                assert n * (curr.tau_min - prev.tau_max) >= min_length
            for phase in phases[1:]:
                for row in schedule.boundaries:
                    count = sum(1 for b in row[1:] if phase.tau_min <= b <= phase.tau_max)
                    assert count <= ratio + 1


class TestRunEpisode:
    def test_identical_seeds_identical_traces(self, benchmark_game):
        results = []
        for _ in range(2):
            streams = RandomnessStreams(42, trial=3)
            schedule = draw_schedule(streams, 2, 500, 3, 5000)
            (trace,) = run_episodes(
                benchmark_game,
                _configs(),
                [schedule],
                [streams],
                5000,
                record_times=(0, 2500, 4999),
                record_q=True,
            )
            results.append(trace)
        a, b = results
        assert a.to_json_dict() == b.to_json_dict()
        for ra, rb in zip(a.records, b.records):
            for qa, qb in zip(ra.q_tables, rb.q_tables):
                assert np.array_equal(qa, qb)

    def test_policy_changes_only_at_own_boundaries(self, benchmark_game):
        streams = RandomnessStreams(7, trial=0)
        schedule = draw_schedule(streams, 2, 300, 3, 20_000)
        (trace,) = run_episodes(benchmark_game, _configs(), [schedule], [streams], 20_000)
        assert trace.events, "expected at least one policy change in 20k steps"
        for event in trace.events:
            assert event.t in schedule.boundaries[event.player]

    def test_policy_changes_inside_active_phases(self, benchmark_game):
        streams = RandomnessStreams(11, trial=0)
        schedule = draw_schedule(streams, 2, 300, 3, 20_000)
        (trace,) = run_episodes(benchmark_game, _configs(), [schedule], [streams], 20_000)
        result = active_phases(schedule)
        covered = [(p.tau_min, p.tau_max) for p in result.phases]
        horizon_checked = max(t for _, t in covered)
        for event in trace.events:
            if event.t <= horizon_checked:
                assert any(lo <= event.t <= hi for lo, hi in covered)

    def test_max_abs_q_bounded(self, benchmark_game):
        # cost bound 11, discount 0.8, zero initialization: M = 55
        streams = RandomnessStreams(3, trial=0)
        schedule = draw_schedule(streams, 2, 1000, 3, 30_000)
        (trace,) = run_episodes(benchmark_game, _configs(), [schedule], [streams], 30_000)
        assert max(trace.max_abs_q) <= 55.0

    def test_equilibrium_flag_matches_exact_solver(self, benchmark_game):
        eq = ExactAnalysis(benchmark_game, 1e-9).equilibria
        streams = RandomnessStreams(19, trial=0)
        schedule = draw_schedule(streams, 2, 500, 3, 10_000)
        (trace,) = run_episodes(benchmark_game, _configs(), [schedule], [streams], 10_000)
        assert trace.initial_at_equilibrium == (trace.initial_joint in eq)
        for event in trace.events:
            assert event.at_equilibrium == (event.joint in eq)

    def test_argument_validation(self, benchmark_game):
        streams = RandomnessStreams(1)
        schedule = draw_schedule(streams, 2, 100, 2, 1000)
        with pytest.raises(ValueError):
            run_episodes(benchmark_game, _configs(), [schedule], [streams], 0)
        with pytest.raises(ValueError):
            run_episodes(benchmark_game, _configs(n=1), [schedule], [streams], 100)
        with pytest.raises(ValueError):
            # the schedule covers only 1000
            run_episodes(benchmark_game, _configs(), [schedule], [streams], 5000)
        with pytest.raises(ValueError):
            run_episodes(
                benchmark_game, _configs(), [schedule], [streams], 500, record_times=(600,)
            )

    @pytest.mark.parametrize("value", [100.0, 100.5, True, "100"], ids=repr)
    def test_lengths_must_be_integers(self, benchmark_game, value):
        # a run's length goes through the one count rule at every entry point
        streams = RandomnessStreams(1)
        schedule = draw_schedule(streams, 2, 100, 2, 1000)
        with pytest.raises(ValueError, match="horizon must be a positive integer"):
            draw_schedule(streams, 2, 100, 2, value)
        with pytest.raises(ValueError, match="horizon must be a positive integer"):
            run_episodes(benchmark_game, _configs(), [schedule], [streams], value)
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            frozen_q_run(benchmark_game, _configs(), ((0, 0), (0, 0)), [streams], value)

    def test_record_times_must_be_integers(self, benchmark_game):
        streams = RandomnessStreams(1)
        schedule = draw_schedule(streams, 2, 100, 2, 1000)
        with pytest.raises(ValueError, match=re.escape("must be integers in [0, horizon), got (0, 50.5)")):
            run_episodes(
                benchmark_game, _configs(), [schedule], [streams], 100, record_times=(0, 50.5)
            )
        # numpy integers are integers, and give the JSON of Python ints
        (wide,) = run_episodes(
            benchmark_game,
            _configs(),
            [schedule],
            [streams],
            np.int64(100),
            record_times=(np.int32(50),),
        )
        (plain,) = run_episodes(
            benchmark_game, _configs(), [schedule], [streams], 100, record_times=(50,)
        )
        assert json.dumps(wide.to_json_dict()) == json.dumps(plain.to_json_dict())

    def test_batch_argument_validation(self, benchmark_game):
        streams = [RandomnessStreams(1, trial=k) for k in range(2)]
        schedules = [draw_schedule(s, 2, 100, 2, 1000) for s in streams]
        with pytest.raises(ValueError, match="one schedule per trial"):
            run_episodes(benchmark_game, _configs(), schedules[:1], streams, 1000)
        with pytest.raises(ValueError, match="at least one trial"):
            run_episodes(benchmark_game, _configs(), [], [], 1000)
        with pytest.raises(ValueError, match="at least one trial"):
            frozen_q_run(benchmark_game, _configs(), ((0, 0), (0, 0)), [], 100)
        for action in (0.5, True, "1"):
            with pytest.raises(ValueError, match=f"action id {action!r} is not an integer"):
                frozen_q_run(benchmark_game, _configs(), ((0, action), (0, 0)), streams, 100)
        # a lone RandomnessStreams is no batch: a ValueError naming streams,
        # not a TypeError from len()
        lone = streams[0]
        for call in (
            lambda: run_episodes(benchmark_game, _configs(), schedules[:1], lone, 1000),
            lambda: frozen_q_run(benchmark_game, _configs(), ((0, 0), (0, 0)), lone, 100),
            lambda: run_episodes(benchmark_game, _configs(), schedules[0], streams[:1], 1000),
        ):
            with pytest.raises(ValueError, match="^(streams must be a sequence|need one schedule)"):
                call()

    def test_explicit_initial_policies_respected(self, benchmark_game):
        configs = tuple(
            AgentConfig(
                player=i,
                rho=0.05,
                lam=0.2,
                delta=0.5,
                alpha=0.08,
                initial_policy=DeterministicPolicy(i, (0, i)),
            )
            for i in range(2)
        )
        streams = RandomnessStreams(2, trial=0)
        schedule = draw_schedule(streams, 2, 2000, 2, 4000)
        (trace,) = run_episodes(benchmark_game, configs, [schedule], [streams], 4000)
        assert trace.initial_joint == ((0, 0), (0, 1))
        assert trace.initial_at_equilibrium

    def test_initial_equilibrium_rate_near_quarter(self, benchmark_game):
        # 4 of 16 joint policies are equilibria under uniform initialization
        streams = [RandomnessStreams(77, trial=trial) for trial in range(400)]
        schedules = [draw_schedule(s, 2, 200, 2, 200) for s in streams]
        traces = run_episodes(benchmark_game, _configs(), schedules, streams, 200)
        flags = [trace.initial_at_equilibrium for trace in traces]
        rate = sum(flags) / len(flags)
        se = np.sqrt(0.25 * 0.75 / len(flags))
        assert abs(rate - 0.25) <= 3 * se


class _Choice:
    """Stand-in generator drawing uniformly from ``values``; successive calls
    continue one stream, as a numpy Generator's do."""

    def __init__(self, seed, values):
        self.rng = np.random.default_rng(seed)
        self.values = np.asarray(values, dtype=float)

    def random(self, size=None, out=None):
        n = size if out is None else len(out)
        draws = self.values[self.rng.integers(0, len(self.values), size=n)]
        if out is None:
            return draws
        out[...] = draws
        return out


class TestBlockDraws:
    """The engine takes the per-step draws from open generators a block at a
    time; the blocks must equal one horizon-sized draw byte for byte."""

    @pytest.mark.parametrize(
        "family, num_actions",
        [("transition", None), ("experimentation", None), ("action", 2), ("action", 3), ("action", 5)],
    )
    def test_blocks_equal_one_draw(self, family, num_actions):
        rng = np.random.default_rng(num_actions or len(family))
        horizon = 20_011
        lengths = []
        while sum(lengths) < horizon:
            lengths.append(min(2 * int(rng.integers(0, 600)) + 1, horizon - sum(lengths)))
        streams = RandomnessStreams(11, trial=4)
        if family == "transition":
            whole = streams.transition_generator().random(horizon)
            gen = streams.transition_generator()
            blocks = [gen.random(out=np.empty(n)) for n in lengths]
        elif family == "experimentation":
            whole = streams.experimentation_generator(1).random(horizon)
            gen = streams.experimentation_generator(1)
            blocks = [gen.random(out=np.empty(n)) for n in lengths]
        else:
            whole = streams.action_generator(1).integers(0, num_actions, size=horizon)
            gen = streams.action_generator(1)
            blocks = [gen.integers(0, num_actions, size=n) for n in lengths]
        assert len(lengths) > 30
        assert np.concatenate(blocks).tobytes() == whole.tobytes()


class TestSegmentEngine:
    """The segment-vectorized engine against the stage-by-stage loop of
    ``oracles.simulate_stepwise``: every trial of a batch of 1, 2 or 7,
    played alone (Python recursion) or in lockstep (the Q stack), must give
    the oracle's trace with Q snapshots and its frozen-run tables bit for
    bit."""

    @staticmethod
    def _assert_matches_stepwise(
        monkeypatch,
        game,
        min_length,
        ratio,
        horizon,
        record_times=(),
        seed=0,
        configs=None,
        batches=(1, 2, 7),
    ):
        if configs is None:
            configs = _configs(game.num_players, rho=0.2, alpha=0.1)
        frozen = [
            RandomnessStreams(seed).initial_policy_choices(i, game.num_states, m)
            for i, m in enumerate(game.action_counts)
        ]

        def outputs(batch):
            streams = [RandomnessStreams(seed, trial=k) for k in range(1, batch + 1)]
            schedules = [
                draw_schedule(s, game.num_players, min_length, ratio, horizon) for s in streams
            ]
            traces = run_episodes(
                game,
                configs,
                schedules,
                streams,
                horizon,
                record_times,
                record_q=True,
            )
            frozen_streams = [RandomnessStreams(seed, trial=100 + k) for k in range(batch)]
            tables = frozen_q_run(game, configs, frozen, frozen_streams, horizon)
            return [
                (json.dumps(trace.to_json_dict()), [t.values.tobytes() for t in trial])
                for trace, trial in zip(traces, tables)
            ]

        with monkeypatch.context() as patch:
            patch.setattr(orchestrator, "_simulate", simulate_stepwise)
            slow = outputs(max(batches))
        for lockstep_min in (1, 10**9):
            with monkeypatch.context() as patch:
                patch.setattr(orchestrator, "_LOCKSTEP_MIN", lockstep_min)
                for batch in batches:
                    assert outputs(batch) == slow[:batch], (lockstep_min, batch)
        return [json.loads(trace) for trace, _ in slow]

    def test_benchmark_game(self, monkeypatch, benchmark_game):
        traces = self._assert_matches_stepwise(
            monkeypatch,
            benchmark_game,
            500,
            3,
            20_000,
            (0, 1, 4321, 19_999),
            seed=5,
        )
        # every trial switches (3 to 7 times), so the engine's baseline rows
        # change mid-run
        assert min(len(trace["events"]) for trace in traces) >= 1

    @pytest.mark.parametrize("num_players", [1, 2, 3])
    def test_random_games(self, monkeypatch, num_players):
        rng = np.random.default_rng(num_players)
        for seed in range(4):
            game = random_game(rng, num_players=num_players, max_states=5, max_actions=3)
            min_length = int(rng.integers(5, 60))
            self._assert_matches_stepwise(
                monkeypatch, game, min_length, 3, 3000, (0, 999, 2999), seed=seed
            )

    def test_unequal_action_counts(self, monkeypatch):
        # two and three actions: the stack pads player 0's rows with +inf;
        # costs of both signs, and each player its own alpha and discount
        rng = np.random.default_rng(23)
        kernel = rng.uniform(0.1, 1.0, size=(3, 6, 3))
        kernel /= kernel.sum(axis=2, keepdims=True)
        game = StochasticGame(
            states=("s0", "s1", "s2"),
            action_sets=(("a0", "a1"), ("a0", "a1", "a2")),
            costs=(rng.uniform(-10.0, 5.0, size=(3, 6)), rng.uniform(-5.0, 10.0, size=(3, 6))),
            discounts=(0.9, 0.7),
            kernel=kernel,
            initial_dist=np.full(3, 1.0 / 3.0),
        )
        configs = (
            AgentConfig(player=0, rho=0.2, lam=0.2, delta=0.5, alpha=0.1),
            AgentConfig(player=1, rho=0.3, lam=0.4, delta=0.8, alpha=0.04),
        )
        self._assert_matches_stepwise(
            monkeypatch, game, 40, 3, 3000, (0, 1500, 2999), seed=9, configs=configs
        )

    def test_tied_integer_rows(self, monkeypatch):
        # three actions, integer costs, tied initial rows and dyadic steps
        # (alpha and both discounts 1/2): updates write their row's minimum
        # again and overwrite it, so the per-trial pass (_LOCKSTEP_MIN forced
        # to 10**9) rescans rows for its cached minima
        rng = np.random.default_rng(31)
        kernel = rng.uniform(0.1, 1.0, size=(3, 9, 3))
        kernel /= kernel.sum(axis=2, keepdims=True)
        game = StochasticGame(
            states=("s0", "s1", "s2"),
            action_sets=(("a0", "a1", "a2"), ("a0", "a1", "a2")),
            costs=tuple(rng.integers(0, 3, size=(3, 9)).astype(float) for _ in range(2)),
            discounts=(0.5, 0.5),
            kernel=kernel,
            initial_dist=np.full(3, 1.0 / 3.0),
        )
        configs = _configs(2, rho=0.2, alpha=0.5, initial_q=np.ones((3, 3)))
        self._assert_matches_stepwise(
            monkeypatch, game, 40, 3, 3000, (0, 1500, 2999), seed=11, configs=configs
        )

    def test_wide_game_in_narrow_tables(self, monkeypatch):
        # 7 actions fit the action tables' uint8, but 343 joint actions and
        # the 3 x 3 x 32 = 288 entries of one action's block of the stack
        # do not: the joint action, the stack entries and the transition
        # rows must be computed in a wide type
        rng = np.random.default_rng(37)
        kernel = rng.uniform(0.1, 1.0, size=(3, 343, 3))
        kernel /= kernel.sum(axis=2, keepdims=True)
        game = StochasticGame(
            states=("s0", "s1", "s2"),
            action_sets=(tuple(f"a{a}" for a in range(7)),) * 3,
            costs=tuple(rng.uniform(0.0, 10.0, size=(3, 343)) for _ in range(3)),
            discounts=(0.8, 0.8, 0.8),
            kernel=kernel,
            initial_dist=np.full(3, 1.0 / 3.0),
        )
        assert game.num_players * game.num_states * 32 > 255
        configs = _configs(3, rho=0.3, lam=0.3, delta=2.0, alpha=0.1)
        traces = self._assert_matches_stepwise(
            monkeypatch, game, 40, 3, 1500, (0, 1499), seed=12, configs=configs, batches=(1, 32)
        )
        assert sum(len(trace["events"]) for trace in traces) > 0

    def test_signed_zero_ties(self, monkeypatch):
        # every cost and initial Q entry is 0.0 or -0.0, so every value
        # written is a signed zero and every next-row minimum a tie, which
        # min() breaks by order: of 0.0 and -0.0 it keeps the first
        rng = np.random.default_rng(41)

        def signed_zeros(*shape):
            return np.where(rng.random(shape) < 0.8, -0.0, 0.0)

        game = seeded_game(rng, (2, 3), 3, costs=(signed_zeros(3, 6), signed_zeros(3, 6)))
        configs = tuple(
            AgentConfig(player=i, rho=0.2, lam=0.2, delta=0.5, alpha=0.1, initial_q=signed_zeros(3, m))
            for i, m in enumerate(game.action_counts)
        )
        traces = self._assert_matches_stepwise(
            monkeypatch, game, 20, 3, 300, (0, 30, 100, 299), seed=13, configs=configs
        )
        # -0.0 is written only where the cost, the old entry and the next
        # row's minimum are all -0.0, so it dies out; records keep some
        assert any("-0.0" in json.dumps(r["q_tables"]) for tr in traces for r in tr["records"][1:])

    def test_one_action_each(self, monkeypatch):
        # A = 1: the next row's minimum is its one entry, with no fold
        game = seeded_game(np.random.default_rng(43), (1, 1), 3)
        self._assert_matches_stepwise(monkeypatch, game, 40, 2, 1500, (0, 1499), seed=14)

    def test_four_actions_beside_two(self, monkeypatch):
        # A = 4: three folds of the minimum, over +inf padding for player 1
        game = seeded_game(np.random.default_rng(47), (4, 2), 3)
        self._assert_matches_stepwise(monkeypatch, game, 40, 3, 1500, (0, 700, 1499), seed=15)

    def test_boundary_at_every_stage(self, monkeypatch, benchmark_game):
        self._assert_matches_stepwise(monkeypatch, benchmark_game, 1, 1, 300, (0, 150), seed=2)

    def test_record_time_on_a_boundary(self, monkeypatch, benchmark_game):
        schedule = draw_schedule(RandomnessStreams(4, trial=1), 2, 200, 2, 3000)
        boundary = schedule.boundaries[1][2]
        self._assert_matches_stepwise(
            monkeypatch, benchmark_game, 200, 2, 3000, (boundary,), seed=4
        )

    def test_uniforms_on_cdf_steps(self, monkeypatch):
        # every W_t sits on a step of some kernel row's CDF, or at 0 or 1, and
        # the last next-state of half the rows has no mass: exercises the
        # tie rule and the fallback at the top of the CDF
        rng = np.random.default_rng(8)
        game = random_game(rng, num_players=2, max_states=3, max_actions=2)
        while game.num_states < 2:
            game = random_game(rng, num_players=2, max_states=3, max_actions=2)
        kernel = game.kernel.copy()
        kernel[:, ::2, -1] = 0.0
        kernel /= kernel.sum(axis=2, keepdims=True)
        game = StochasticGame(
            game.states, game.action_sets, game.costs, game.discounts, kernel, game.initial_dist
        )
        steps = np.unique(np.concatenate([np.cumsum(kernel, axis=2).ravel(), [0.0, 1.0]]))

        def transition_generator(streams):
            return _Choice(streams.trial, steps)

        monkeypatch.setattr(RandomnessStreams, "transition_generator", transition_generator)
        self._assert_matches_stepwise(monkeypatch, game, 50, 2, 2000, (0, 1000), seed=8)

    def test_experimentation_uniforms_on_rho(self, monkeypatch, benchmark_game):
        # every experimentation uniform is exactly rho (0.2 here), 0 or 1:
        # a draw equal to rho experiments
        def experimentation_generator(streams, player):
            return _Choice([streams.trial, player], [0.2, 0.0, 1.0])

        monkeypatch.setattr(
            RandomnessStreams, "experimentation_generator", experimentation_generator
        )
        self._assert_matches_stepwise(monkeypatch, benchmark_game, 50, 2, 2000, (0, 1000), seed=3)

    def test_horizon_one(self, monkeypatch, benchmark_game):
        self._assert_matches_stepwise(monkeypatch, benchmark_game, 1, 1, 1, (0,), seed=6)

    @pytest.mark.parametrize("block", [1, 7])
    def test_short_blocks(self, monkeypatch, block):
        # segments of at most ``block`` trial-stages, draws taken a few
        # stages at a time, blocks of draws and segments ending apart
        monkeypatch.setattr(orchestrator, "_BLOCK", block)
        monkeypatch.setattr(orchestrator, "_DRAWS", 5 * block + 3)
        monkeypatch.setattr(orchestrator, "_DRAWS_MIN_STAGES", 1)
        game = random_game(np.random.default_rng(block), num_players=2, max_states=4)
        self._assert_matches_stepwise(monkeypatch, game, 40, 2, 1500, (0, 700), seed=block)

    def test_dense_phases(self, monkeypatch, benchmark_game):
        # phases of 10 to 30 stages: in lockstep the stage loop pauses at
        # many phase ends per segment, and the trials that switch there have
        # their columns rebuilt while the others play on
        traces = self._assert_matches_stepwise(
            monkeypatch, benchmark_game, 10, 3, 2000, (0, 999, 1999), seed=16, batches=(1, 9, 40)
        )
        switches = [{(e["t"], e["player"]) for e in trace["events"]} for trace in traces]
        segment_length = orchestrator._BLOCK // 40
        assert sum(any(0 < t < segment_length for t, _ in trial) for trial in switches) >= 5
        # both players of one trial switch at one time
        assert any((t, 0) in trial and (t, 1) in trial for trial in switches for t, _ in trial)

    def test_switches_next_to_cuts(self, monkeypatch):
        # segments of 5, 22 and 200 stages at batches of 40, 9 and 1, draw
        # blocks of 11, 49 and 443 stages, and phases of 4 to 12 stages:
        # trials switch on the first, the second and the last stage of a
        # segment, beside draw-block ends and beside record times
        monkeypatch.setattr(orchestrator, "_BLOCK", 200)
        monkeypatch.setattr(orchestrator, "_DRAWS", 40 * 11 + 3)
        monkeypatch.setattr(orchestrator, "_DRAWS_MIN_STAGES", 1)
        game = random_game(np.random.default_rng(17), num_players=2, max_states=4)
        records = (0, 37, 400, 1199)
        traces = self._assert_matches_stepwise(
            monkeypatch, game, 4, 3, 1200, records, seed=17, batches=(1, 9, 40)
        )
        # the switch times, against the segments of the batch of 40
        times = {e["t"] for trace in traces for e in trace["events"]}
        cuts = _segment_cuts(1200, 5, 11, records)
        block_ends = set(range(11, 1200, 11))
        for near in (cuts, {t - 1 for t in cuts}, {t + 1 for t in cuts}):
            assert times & near
        assert times & {t - 1 for t in block_ends} and times & {t + 1 for t in block_ends}
        assert times & {36, 38, 399, 401}

    @pytest.mark.parametrize("lockstep_min", [None, 10**9], ids=["lockstep", "per-trial"])
    def test_segments_outlive_appraisals(self, monkeypatch, benchmark_game, lockstep_min):
        # the benchmark run's size and parameters, in lockstep and trial by
        # trial: a segment ends only at the stage cap, a draw-block end, a
        # record time or the horizon, and a switch rebuilds its own trial's
        # columns only
        if lockstep_min is not None:
            monkeypatch.setattr(orchestrator, "_LOCKSTEP_MIN", lockstep_min)
        built = []
        build = orchestrator._Segment.build

        def counted(segment, k0, k1, u):
            built.append((k0, k1, u))
            build(segment, k0, k1, u)

        monkeypatch.setattr(orchestrator._Segment, "build", counted)
        batch, horizon, records = 32, 100_000, tuple(range(0, 100_000, 10_000))
        streams = [RandomnessStreams(0, trial=k) for k in range(batch)]
        schedules = [draw_schedule(s, 2, 5000, 3, horizon) for s in streams]
        traces = run_episodes(benchmark_game, _configs(), schedules, streams, horizon, records)

        cuts = _segment_cuts(
            horizon,
            orchestrator._BLOCK // batch,
            max(orchestrator._DRAWS_MIN_STAGES, orchestrator._DRAWS // batch),
            records,
        )
        segments = [call for call in built if call == (0, batch, 0)]
        rebuilds = [call for call in built if call != (0, batch, 0)]
        assert len(segments) == len(cuts) <= 400
        # the phase-end times inside segments, where play pauses
        phase_ends = {t for s in schedules for row in s.boundaries for t in row[1:] if t < horizon}
        assert len(phase_ends - cuts) > 300
        switched = {(e.t, tr.trial) for tr in traces for e in tr.events if e.t not in cuts}
        assert switched
        assert all(k1 == k0 + 1 and u > 0 for k0, k1, u in rebuilds)
        assert len(rebuilds) == len(switched)

    def test_trace_does_not_depend_on_the_batch(self, monkeypatch, benchmark_game):
        monkeypatch.setattr(orchestrator, "_LOCKSTEP_MIN", 1)

        def traces(trials):
            streams = [RandomnessStreams(4, trial=k) for k in trials]
            schedules = [draw_schedule(s, 2, 300, 3, 6000) for s in streams]
            out = run_episodes(
                benchmark_game, _configs(), schedules, streams, 6000, (0, 2999),
                record_q=True,
            )
            return {tr.trial: json.dumps(tr.to_json_dict()) for tr in out}

        alone = traces([5])[5]
        for trials in ([5, 0, 1], [9, 5], list(range(12))):
            assert traces(trials)[5] == alone


def _segment_cuts(horizon, segment_length, block_length, record_times):
    """The start times of the engine's segments: a segment ends at
    ``segment_length`` stages, at the end of a block of draws (every
    ``block_length`` stages from 0), at a record time or at the horizon."""
    cuts, t = set(), 0
    while t < horizon:
        cuts.add(t)
        later = [r for r in record_times if r > t]
        t = min(t + segment_length, (t // block_length + 1) * block_length, *later, horizon)
    return cuts


def _tie_game() -> StochasticGame:
    """Two players, two states, two actions; player 0's costs and the kernel
    depend on player 1's action only, so player 0's Q-values tie exactly."""
    rng = np.random.default_rng(12)
    by_opponent = rng.uniform(0.0, 5.0, size=(2, 2))
    kernel = rng.uniform(0.1, 1.0, size=(2, 2, 2))
    kernel /= kernel.sum(axis=2, keepdims=True)
    return StochasticGame(
        states=("s0", "s1"),
        action_sets=(("a0", "a1"), ("a0", "a1")),
        costs=(np.tile(by_opponent, (1, 2)), rng.uniform(0.0, 5.0, size=(2, 4))),
        discounts=(0.8, 0.8),
        kernel=np.tile(kernel, (1, 2, 1)),
        initial_dist=np.array([0.5, 0.5]),
    )


class TestLazyInertia:
    def test_inertia_drawn_only_for_non_greedy_baselines(self, monkeypatch, benchmark_game):
        # the engine calls the keyed inertia draw only where the appraisal
        # reads it, for a baseline that is not delta-greedy; the oracle
        # draws it at every boundary, and the traces agree
        configs = _configs(rho=0.1, delta=0.5)
        streams = [RandomnessStreams(3, trial=k) for k in range(9)]
        schedules = [draw_schedule(s, 2, 300, 3, 6000) for s in streams]
        appraisals, non_greedy, draws = [], [], []
        appraise = orchestrator.end_phase_update
        inertia_uniform = RandomnessStreams.inertia_uniform

        def counted_appraisal(config, q, baseline, inertia_draw, subset_draw):
            values = q[np.arange(len(baseline)), baseline]
            appraisals.append(None)
            if not (values <= q.min(axis=1) + config.delta).all():
                non_greedy.append(None)
            return appraise(config, q, baseline, inertia_draw, subset_draw)

        def counted_draw(streams, player, t):
            draws.append((streams.trial, player, t))
            return inertia_uniform(streams, player, t)

        def traces():
            out = run_episodes(
                benchmark_game, configs, schedules, streams, 6000, (0, 2999), record_q=True
            )
            return [json.dumps(trace.to_json_dict()) for trace in out]

        monkeypatch.setattr(RandomnessStreams, "inertia_uniform", counted_draw)
        with monkeypatch.context() as patch:
            patch.setattr(orchestrator, "end_phase_update", counted_appraisal)
            lazy = traces()
        assert len(draws) == len(set(draws)) == len(non_greedy)
        assert 0 < len(non_greedy) < len(appraisals)
        draws.clear()
        with monkeypatch.context() as patch:
            patch.setattr(orchestrator, "_simulate", simulate_stepwise)
            assert traces() == lazy
        assert len(draws) == len(appraisals)


class TestLazyLabels:
    """Labels computed after play for the visited joints only against
    membership in the enumerated set."""

    def test_traces_equal_eager_labels(self, pennies_game):
        rng = np.random.default_rng(31)
        games = [
            random_game(rng, num_players=n, max_states=3, max_actions=3)
            for n in (1, 2, 2, 3, 3)
        ]
        # labels by policy iteration at a discount where value iteration,
        # behind the analysis, needs thousands of sweeps
        games += [
            random_game(rng, num_players=2, max_states=3, max_actions=3, beta=0.99)
            for _ in range(2)
        ]
        games += [pennies_game, _tie_game()]
        labels = set()
        for game in games:
            eq = ExactAnalysis(game, 1e-9).equilibria
            streams = [RandomnessStreams(7, trial=k) for k in range(9)]
            schedules = [draw_schedule(s, game.num_players, 30, 3, 3000) for s in streams]
            traces = run_episodes(
                game, _configs(game.num_players, rho=0.2), schedules, streams, 3000,
                (0, 1500, 2999),
            )
            for trace in traces:
                labelled = [(trace.initial_joint, trace.initial_at_equilibrium)]
                labelled += [(e.joint, e.at_equilibrium) for e in trace.events]
                labelled += [(r.joint, r.at_equilibrium) for r in trace.records]
                for joint, flag in labelled:
                    assert flag == (joint in eq), joint
                labels.update(e.at_equilibrium for e in trace.events)
        assert labels == {False, True}


class TestFrozenQRun:
    def test_coincides_with_episode_before_any_boundary(self, benchmark_game):
        # no boundary occurs in [0, steps), so the frozen trajectory is the
        # sample trajectory and the Q tables agree bitwise
        steps = 2000
        frozen = ((0, 0), (0, 1))
        configs = tuple(
            AgentConfig(
                player=i,
                rho=0.05,
                lam=0.2,
                delta=0.5,
                alpha=0.08,
                initial_policy=DeterministicPolicy(i, frozen[i]),
            )
            for i in range(2)
        )
        streams = RandomnessStreams(31, trial=0)
        (frozen_tables,) = frozen_q_run(benchmark_game, configs, frozen, [streams], steps)

        schedule = Schedule(
            min_length=steps + 1, ratio=2, phase_lengths=((steps + 1,), (steps + 1,))
        )
        (trace,) = run_episodes(
            benchmark_game,
            configs,
            [schedule],
            [streams],
            steps + 1,
            record_times=(steps,),
            record_q=True,
        )
        snapshot = trace.records[0]
        assert snapshot.t == steps
        for i in range(2):
            assert np.array_equal(frozen_tables[i].values, snapshot.q_tables[i])

    def test_zero_costs_keep_zero_q(self, benchmark_game):
        from decqlearn.game_model import StochasticGame

        game = StochasticGame(
            states=benchmark_game.states,
            action_sets=benchmark_game.action_sets,
            costs=(np.zeros((2, 4)), np.zeros((2, 4))),
            discounts=benchmark_game.discounts,
            kernel=benchmark_game.kernel,
            initial_dist=benchmark_game.initial_dist,
        )
        (tables,) = frozen_q_run(
            game, _configs(), ((0, 0), (0, 0)), [RandomnessStreams(1)], 5000
        )
        for table in tables:
            assert_allclose(table.values, 0.0, atol=0.0)

    def test_tracks_exact_q_against_softened_opponent(self, benchmark_game):
        # medium-accuracy smoke version of the frozen-run diagnostic
        frozen = ((0, 0), (0, 1))
        configs = _configs(alpha=0.01)
        streams = RandomnessStreams(13, trial=0)
        (tables,) = frozen_q_run(benchmark_game, configs, frozen, [streams], 150_000)
        for i in range(2):
            j = 1 - i
            soft = soften_policy(DeterministicPolicy(j, frozen[j]), 0.05, 2)
            target = q_star(benchmark_game, i, [soft], 1e-10)
            assert float(np.abs(tables[i].values - target.values).max()) < 1.0

    def test_signed_zero_tie_in_both_forms(self, monkeypatch):
        # row [0.0, -0.0], whose min() is 0.0: the update of entry 1 writes
        # (1 - alpha) * -0.0 + alpha * (-0.0 + beta * 0.0) = 0.0, at every
        # batch size
        zeros = [[-0.0, -0.0], [-0.0, -0.0]]
        game = matrix_game(zeros, zeros)
        configs = _configs(initial_q=np.array([[0.0, -0.0]]))
        streams = [RandomnessStreams(3, trial=k) for k in range(8)]
        for lockstep_min in (1, 10**9):
            monkeypatch.setattr(orchestrator, "_LOCKSTEP_MIN", lockstep_min)
            tables = frozen_q_run(game, configs, ((1,), (1,)), streams, 5)
            for trial in tables:
                for table in trial:
                    assert table.values.tobytes() == np.zeros((1, 2)).tobytes(), lockstep_min

    def test_numpy_rates_play_as_their_python_values(self, benchmark_game):
        # float32 rates for every player made a float32 stack row, where the
        # lockstep form took 1 - alpha in float32
        rates = dict(rho=0.05, lam=0.2, delta=0.5, alpha=0.08)
        streams = [RandomnessStreams(5, trial=k) for k in range(orchestrator._LOCKSTEP_MIN)]
        runs = []
        for kind in (np.float32, lambda v: np.float32(v).item()):
            configs = _configs(**{key: kind(value) for key, value in rates.items()})
            tables = frozen_q_run(benchmark_game, configs, ((0, 0), (0, 1)), streams, 200)
            runs.append((repr(configs), [t.values.tobytes() for trial in tables for t in trial]))
        assert runs[0] == runs[1]

    def test_steps_must_be_positive(self, benchmark_game):
        with pytest.raises(ValueError):
            frozen_q_run(
                benchmark_game, _configs(), ((0, 0), (0, 0)), [RandomnessStreams(1)], 0
            )


class TestSimulationTrace:
    def test_joint_at_follows_the_events(self):
        # Player 0 switches at its boundary 5, player 1 at its boundary 7.
        joints = [((0, 0), (1, 1)), ((1, 0), (1, 1)), ((1, 0), (0, 1))]
        schedule = Schedule(min_length=3, ratio=2, phase_lengths=((5, 5), (3, 4, 3)))
        events = (PolicyChange(5, 0, joints[1], True), PolicyChange(7, 1, joints[2], False))
        trace = SimulationTrace(0, 0, 10, schedule, joints[0], False, events, (), (0.0, 0.0))
        for t, k in {0: 0, 4: 0, 5: 1, 6: 1, 7: 2, 9: 2}.items():
            assert (trace.joint_at(t), trace.at_equilibrium(t)) == (joints[k], k == 1)
        for t, lookup in itertools.product((10, -1), (trace.joint_at, trace.at_equilibrium)):
            with pytest.raises(ValueError, match=f"time {t} is beyond the simulated horizon 10"):
                lookup(t)
        # a time that is not an integer is refused, as a record time is, not
        # truncated to the stage before it
        lookups = (trace.joint_at, trace.at_equilibrium, lambda t: equilibrium_frequency([trace], [t]))
        for t, lookup in itertools.product((5.5, 9.9, True, np.float64(3.0)), lookups):
            with pytest.raises(ValueError, match=re.escape(f"time {t!r} is not an integer")):
                lookup(t)


class TestEquilibriumFrequency:
    def _mini_traces(self, benchmark_game, trials=20, horizon=3000):
        streams = [RandomnessStreams(55, trial=trial) for trial in range(trials)]
        schedules = [draw_schedule(s, 2, 400, 2, horizon) for s in streams]
        return run_episodes(benchmark_game, _configs(), schedules, streams, horizon)

    def test_all_at_equilibrium_gives_one(self, benchmark_game):
        configs = tuple(
            AgentConfig(
                player=i,
                rho=0.05,
                lam=0.2,
                delta=0.5,
                alpha=0.08,
                initial_policy=DeterministicPolicy(i, (0, i)),
            )
            for i in range(2)
        )
        streams = RandomnessStreams(9, trial=0)
        schedule = Schedule(min_length=601, ratio=1, phase_lengths=((601,), (601,)))
        (trace,) = run_episodes(benchmark_game, configs, [schedule], [streams], 600)
        freqs = equilibrium_frequency([trace], [0, 100, 599])
        assert freqs == {0: 1.0, 100: 1.0, 599: 1.0}

    def test_piecewise_constant_between_events(self, benchmark_game):
        traces = self._mini_traces(benchmark_game, trials=5)
        for trace in traces:
            for event, nxt in zip(trace.events, trace.events[1:]):
                if nxt.t - event.t >= 2:
                    mid = (event.t + nxt.t) // 2
                    assert trace.at_equilibrium(mid) == trace.at_equilibrium(event.t)

    def test_beyond_horizon_rejected(self, benchmark_game):
        traces = self._mini_traces(benchmark_game, trials=2)
        with pytest.raises(ValueError):
            equilibrium_frequency(traces, [traces[0].horizon])

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            equilibrium_frequency([], [0])
