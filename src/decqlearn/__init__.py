"""Decentralized Q-learning for finite stochastic games.

Library layers: ``game_model`` (games, policies, transition sampling),
``exact_solver`` (model-based Q-functions, equilibrium tests, and
``ExactAnalysis``, the one exact analysis of a game),
``acyclicity`` (best-response graph view and weak-acyclicity certificate),
``agent`` (a learner's parameters and phase-end appraisal),
``orchestrator`` (seeded episodes), and ``experiments``/``cli`` (batch
runs and the command line).
"""

from .acyclicity import (
    BrGraph,
    build_br_graph,
    is_weakly_acyclic,
    p_min,
    path_bound_L,
    solve_theta,
    xi_bound,
)
from .agent import AgentConfig
from .exact_solver import (
    EnumerationBudgetError,
    ExactAnalysis,
    InducedMdp,
    QTable,
    check_reachability,
    induced_mdp,
    is_equilibrium,
    label_equilibria,
    q_star,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    analyze_game,
    build_benchmark_game,
    run_experiment,
)
from .game_model import (
    DeterministicPolicy,
    JointDeterministicPolicy,
    StationaryPolicy,
    StochasticGame,
    enumerate_deterministic_policies,
    game_from_dict,
    game_to_dict,
    load_game,
    sample_initial_state,
    sample_transition,
    save_game,
    soften_policy,
    validate_game,
)
from .orchestrator import (
    ActivePhase,
    ActivePhaseList,
    RandomnessStreams,
    Schedule,
    SimulationTrace,
    active_phases,
    draw_schedule,
    frozen_q_run,
    run_episodes,
)

__version__ = "0.1.0"
