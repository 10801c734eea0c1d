import math
from types import SimpleNamespace

import numpy as np
import pytest

from decqlearn.acyclicity import (
    build_br_graph,
    is_weakly_acyclic,
    p_min,
    path_bound_L,
    solve_theta,
    xi_bound,
)
from decqlearn.exact_solver import EnumerationBudgetError, _greedy_mask, q_star
from decqlearn.game_model import DeterministicPolicy, StochasticGame, soften_policy


def _stay_vs_move(theta, p):
    return (1.0 - theta) * p / (theta + (1.0 - theta) * p) - theta


@pytest.fixture(scope="module")
def benchmark_graph(benchmark_game):
    return build_br_graph(benchmark_game, 1e-9)


class TestBrGraph:
    def test_team_game(self, team_game):
        graph = build_br_graph(team_game, 1e-9)
        assert len(graph.nodes) == 4
        assert len(graph.equilibria) == 2
        eq_choices = {graph.nodes[k].choices for k in graph.equilibria}
        assert eq_choices == {((0,), (0,)), ((1,), (1,))}
        # both mismatched nodes are one strict best response away
        lens = {graph.nodes[k].choices: v for k, v in enumerate(graph.path_len)}
        assert lens[((0,), (1,))] == 1 and lens[((1,), (0,))] == 1
        assert is_weakly_acyclic(graph)
        assert path_bound_L(graph) == 2

    def test_pennies_game(self, pennies_game):
        graph = build_br_graph(pennies_game, 1e-9)
        assert len(graph.equilibria) == 0
        assert not is_weakly_acyclic(graph)
        assert all(math.isinf(v) for v in graph.path_len)
        with pytest.raises(ValueError):
            path_bound_L(graph)

    def test_weak_acyclicity_reads_only_path_len(self):
        # Finite path lengths put some node at 0, an equilibrium.
        assert is_weakly_acyclic(SimpleNamespace(path_len=np.array([0.0, 1.0, 2.0])))
        assert not is_weakly_acyclic(SimpleNamespace(path_len=np.array([0.0, math.inf])))
        assert not is_weakly_acyclic(SimpleNamespace(path_len=(math.inf, math.inf)))

    def test_benchmark_structure(self, benchmark_game, benchmark_graph):
        graph = benchmark_graph
        assert len(graph.nodes) == 16
        assert len(graph.equilibria) == 4
        assert is_weakly_acyclic(graph)
        # every deviation lands on an equilibrium, so the longest shortest
        # path is 1 and L = 2
        assert path_bound_L(graph) == 2

    def test_every_equilibrium_node_has_zero_length(self, benchmark_graph):
        for k, length in enumerate(benchmark_graph.path_len):
            assert (length == 0) == (k in benchmark_graph.equilibria)

    def test_edges_change_exactly_one_player(self, benchmark_graph):
        for s, t, deviator in benchmark_graph.edges:
            src = benchmark_graph.nodes[s].choices
            dst = benchmark_graph.nodes[t].choices
            diff = [i for i in range(len(src)) if src[i] != dst[i]]
            assert diff == [deviator]

    def test_edge_targets_are_best_responses(self, benchmark_game, benchmark_graph):
        tol = 1e-9
        for s, t, deviator in benchmark_graph.edges:
            src = benchmark_graph.nodes[s].choices
            dst = benchmark_graph.nodes[t].choices
            others = [
                soften_policy(DeterministicPolicy(j, c), 0.0, 2)
                for j, c in enumerate(src)
                if j != deviator
            ]
            q = q_star(benchmark_game, deviator, others, tol)
            greedy = _greedy_mask(q.values, tol)
            assert all(greedy[x, a] for x, a in enumerate(dst[deviator]))

    def test_path_len_bellman_consistency(self, benchmark_graph, team_game):
        for graph in (benchmark_graph, build_br_graph(team_game, 1e-9)):
            successors = {}
            for s, t, _ in graph.edges:
                successors.setdefault(s, []).append(t)
            for k, length in enumerate(graph.path_len):
                if k in graph.equilibria or math.isinf(length):
                    continue
                assert length == 1 + min(graph.path_len[t] for t in successors[k])

    def test_greedy_descent_reaches_equilibrium(self, benchmark_graph):
        graph = benchmark_graph
        longest = int(max(graph.path_len))
        successors = {}
        for s, t, _ in graph.edges:
            successors.setdefault(s, []).append(t)
        for start in range(len(graph.nodes)):
            node, steps = start, 0
            while node not in graph.equilibria:
                node = min(successors[node], key=lambda t: graph.path_len[t])
                steps += 1
                assert steps <= longest
            assert steps <= longest

    @pytest.mark.parametrize("kind", [int, np.int64, np.intp, np.uint8, np.int8])
    def test_nodes_index_by_python_and_numpy_ints(self, benchmark_graph, kind):
        # the rows of ``edges`` are numpy ints, and they index ``nodes``
        nodes = benchmark_graph.nodes
        listed = list(nodes)
        assert len(listed) == len(nodes) == 16
        for k in range(16):
            assert nodes[kind(k)] == listed[k]
        assert nodes[-1] == nodes[np.int8(-1)] == listed[15]
        assert nodes[np.int64(-16)] == listed[0]
        for s, t, _ in benchmark_graph.edges:
            assert nodes[s] == listed[int(s)] and nodes[t] == listed[int(t)]
        with pytest.raises(IndexError):
            nodes[kind(16)]
        with pytest.raises(TypeError):
            nodes[1.0]

    def test_budget_guard(self, benchmark_game):
        with pytest.raises(EnumerationBudgetError):
            build_br_graph(benchmark_game, 1e-9, budget=4)


class TestPMin:
    def test_single_player_tabulated_example(self):
        # one state, two actions: policy space size 2
        game = StochasticGame(
            states=("s0",),
            action_sets=(("a0", "a1"),),
            costs=(np.zeros((1, 2)),),
            discounts=(0.5,),
            kernel=np.ones((1, 2, 1)),
            initial_dist=np.array([1.0]),
        )
        assert p_min(game, (0.2,), R=1, L=1) == min(0.4, 0.2) ** 2

    def test_benchmark_shapes_tabulated_example(self, benchmark_game):
        # two players with 4 deterministic policies each: the exponent
        # (R+1) L = 12 applies per player
        expected = min(0.2, 0.2) ** 12 * min(0.2, 0.2) ** 12
        assert p_min(benchmark_game, (0.2, 0.2), R=3, L=3) == expected

    def test_monotone_in_lambda_on_benchmark(self, benchmark_game):
        assert p_min(benchmark_game, (0.5, 0.5), R=3, L=2) >= p_min(
            benchmark_game, (0.01, 0.01), R=3, L=2
        )

    @pytest.mark.parametrize("kind", [np.int64, np.int16, np.int8])
    def test_numpy_integer_counts_give_the_same_bits(self, benchmark_game, kind):
        # the exponent (R + 1) L is Python-int arithmetic: no numpy power on a
        # numpy exponent, and no overflow in a narrow type ((100 + 1) * 100)
        for R, L in ((3, 2), (100, 100)):
            expected = p_min(benchmark_game, (0.2, 0.2), R, L)
            out = p_min(benchmark_game, (0.2, 0.2), kind(R), kind(L))
            assert type(out) is float
            assert out.hex() == expected.hex()
        assert p_min(benchmark_game, (0.2, 0.2), 100, 100) == 0.0

    def test_lambda_range(self, benchmark_game):
        with pytest.raises(ValueError):
            p_min(benchmark_game, (0.0, 0.5), R=1, L=1)
        with pytest.raises(ValueError):
            p_min(benchmark_game, (1.0, 0.5), R=1, L=1)


class TestThetaAndXi:
    def test_p_one_closed_form(self):
        for eps in (0.05, 0.1, 0.5, 0.9):
            assert solve_theta(1.0, eps) == pytest.approx(eps / 2.0, abs=1e-12)

    def test_residual_small(self, rng):
        for _ in range(100):
            eps = float(rng.uniform(0.01, 0.99))
            p = float(10.0 ** rng.uniform(-20.0, 0.0))
            theta = solve_theta(p, eps)
            assert 0.0 < theta < 1.0
            assert abs(_stay_vs_move(theta, p) - (1.0 - eps)) <= 1e-10

    def test_xi_formula_example(self):
        # theta = 0.1, (R+1) N L = 24, margin = min(0.1, 0.25)
        assert xi_bound(0.1, R=3, N=2, L=3, deltas=(0.5, 0.5), dbar=2.0) == pytest.approx(
            0.1 / 24.0, abs=1e-15
        )

    @pytest.mark.parametrize("kind", [np.int64, np.int16, np.int8])
    def test_numpy_integer_counts_give_the_same_bits(self, kind):
        for R, N, L in ((3, 2, 3), (3, 100, 100)):
            expected = xi_bound(0.3, R, N, L, (0.5, 0.5), 2.0)
            out = xi_bound(0.3, kind(R), kind(N), kind(L), (0.5, 0.5), 2.0)
            assert type(out) is float
            assert out.hex() == expected.hex()
        assert xi_bound(0.3, 3, 100, 100, (0.5, 0.5), 2.0) == 0.25 / 40_000

    def test_delta_outside_range_rejected(self):
        with pytest.raises(ValueError):
            xi_bound(0.1, R=3, N=2, L=3, deltas=(2.5,), dbar=2.0)
        with pytest.raises(ValueError):
            xi_bound(0.1, R=3, N=2, L=3, deltas=(0.0,), dbar=2.0)

    def test_combined(self):
        theta = solve_theta(0.04, 0.1)
        xi = xi_bound(theta, R=3, N=2, L=3, deltas=(0.5, 0.5), dbar=2.0)
        assert abs(_stay_vs_move(theta, 0.04) - 0.9) <= 1e-10
        assert xi == pytest.approx(min(theta, 0.25) / 24.0, rel=1e-12)

    def test_infinite_dbar_allows_any_delta(self):
        xi = xi_bound(0.2, R=1, N=1, L=1, deltas=(5.0,), dbar=math.inf)
        assert xi == pytest.approx(min(0.2, 2.5) / 2.0)
