import signal

import numpy as np
import pytest

from decqlearn import exact_solver
from decqlearn.experiments import build_benchmark_game
from oracles import matrix_game


# Wall-clock seconds one test may run: the slowest takes seconds, so a test
# past this limit hangs, and it fails instead of stalling the whole run.
_TEST_SECONDS = 300


@pytest.fixture(autouse=True)
def _wall_clock_limit():
    """Raise TimeoutError in a test still running after ``_TEST_SECONDS``,
    by SIGALRM; a platform without SIGALRM runs tests without a limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {_TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    return matrix_game([[0, 1], [1, 0]], [[0, 1], [1, 0]])


@pytest.fixture(scope="session")
def pennies_game():
    """Single-state matcher-vs-mismatcher game: player 0 pays 1 on a
    mismatch, player 1 pays 1 on a match. No deterministic equilibrium."""
    return matrix_game([[0, 1], [1, 0]], [[1, 0], [0, 1]])


@pytest.fixture()
def solve_calls(monkeypatch):
    """Every best-response solve ``exact_solver`` makes during the test, in
    call order: per ``_solve_stack`` call, the players it solves, its rho
    sets and each player's number of opponent joints, as (tuple of players,
    tuple of rho tuples, tuple of counts). Any further argument goes to
    ``_solve_stack`` unchanged."""
    solve = exact_solver._solve_stack
    calls = []

    def counted(game, tol, rhos, opponents, *args, **kwargs):
        counts = tuple(len(opp) for opp in opponents.values())
        calls.append((tuple(opponents), tuple(map(tuple, rhos)), counts))
        return solve(game, tol, rhos, opponents, *args, **kwargs)

    monkeypatch.setattr(exact_solver, "_solve_stack", counted)
    return calls
