import numpy as np
import pytest

from decqlearn import exact_solver
from decqlearn.experiments import build_benchmark_game
from decqlearn.game_model import StochasticGame


@pytest.fixture(scope="session")
def benchmark_game():
    return build_benchmark_game()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def team_game():
    """Single-state 2x2 team game: cost 0 on matching actions, 1 otherwise,
    for both players."""
    cost = np.array([[0.0, 1.0, 1.0, 0.0]])
    kernel = np.ones((1, 4, 1))
    return StochasticGame(
        states=("s0",),
        action_sets=(("a0", "a1"), ("a0", "a1")),
        costs=(cost, cost.copy()),
        discounts=(0.5, 0.5),
        kernel=kernel,
        initial_dist=np.array([1.0]),
    )


@pytest.fixture(scope="session")
def pennies_game():
    """Single-state matcher-vs-mismatcher game: player 0 pays 1 on a
    mismatch, player 1 pays 1 on a match. No deterministic equilibrium."""
    cost0 = np.array([[0.0, 1.0, 1.0, 0.0]])
    cost1 = np.array([[1.0, 0.0, 0.0, 1.0]])
    kernel = np.ones((1, 4, 1))
    return StochasticGame(
        states=("s0",),
        action_sets=(("a0", "a1"), ("a0", "a1")),
        costs=(cost0, cost1),
        discounts=(0.5, 0.5),
        kernel=kernel,
        initial_dist=np.array([1.0]),
    )


@pytest.fixture()
def solve_calls(monkeypatch):
    """Every best-response solve ``exact_solver`` makes during the test, in
    call order: per ``_solve_stack`` call, the players it solves and its rho
    sets, as (tuple of players, tuple of rho tuples)."""
    solve = exact_solver._solve_stack
    calls = []

    def counted(game, tol, rhos, opponents, _solver=exact_solver._value_iteration):
        calls.append((tuple(opponents), tuple(map(tuple, rhos))))
        return solve(game, tol, rhos, opponents, _solver)

    monkeypatch.setattr(exact_solver, "_solve_stack", counted)
    return calls
