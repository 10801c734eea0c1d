"""One input contract over every public entry point, checked by one
property: each scalar input, drawn from one strategy, either behaves exactly
as the Python value it equals (the same outputs, byte for byte) or is
refused by a ValueError that names it, and a refused call writes no file.

The strategy holds bools, strings, NaN, +-inf, negatives, 2**64, the valid
neighbours of each bound of the input, and numpy integers and floats of
those values. An input of the command line is the text of the value drawn,
which argparse or the library refuses, so exit code 2 with the input named
on stderr is its refusal; the text is its own Python value.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import decqlearn as dq
from decqlearn import cli
from decqlearn.game_model import _is_id

_GAME = dq.build_benchmark_game()
_RATES = dict(rho=0.05, lam=0.2, delta=0.5, alpha=0.08)

_SPECIAL = [True, False, "1", "0.5", "", "nan", math.nan, math.inf, -math.inf, -1, -0.5, 0, 0.5, 2, 2**64]
_NUMPY = (np.bool_, np.int8, np.uint8, np.int32, np.int64, np.uint64, np.float16, np.float32, np.float64)

# The valid neighbours of each bound of each range: the least count, the
# first and last seeds, the floats just inside an open or closed bound.
_TINY, _HUGE, _BELOW_ONE = math.ulp(0.0), sys.float_info.max, 1.0 - 2**-53
_NEIGHBOURS = {
    "count": (1,),
    "seed": (0, 2**64 - 1),
    "action": (0, 1),
    "unit": (_TINY, _BELOW_ONE),
    "rho": (0.0, _BELOW_ONE),
    "probability": (0.0, 1.0),
    "nonnegative": (0.0, _HUGE),
    "positive": (_TINY, _HUGE),
}


def _as_numpy(kind, value):
    """``value`` as a numpy scalar of ``kind``, or None where it has none."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return kind(value)
        except (OverflowError, ValueError):
            return None


def scalars(range_kind: str) -> st.SearchStrategy:
    """The one strategy of a scalar input whose range is ``range_kind``."""
    plain = _SPECIAL + list(_NEIGHBOURS[range_kind])
    numbers = [v for v in plain if isinstance(v, (int, float)) and not isinstance(v, bool)]
    numpy = [x for kind in _NUMPY for v in numbers if (x := _as_numpy(kind, v)) is not None]
    return st.one_of(
        st.sampled_from(plain),
        st.sampled_from([x for x in numpy if isinstance(x, (np.integer, np.bool_))]),
        st.sampled_from([x for x in numpy if isinstance(x, np.floating)]),
    )


@dataclass(frozen=True)
class Slot:
    """One scalar input of one entry point: ``call(value, out)`` makes the
    call with ``value`` in that input and returns its outputs as text or
    bytes; a file it writes goes under ``out``. A refusal must name
    ``name``. ``most``: a valid count above it asks for that much play
    (2**64 stages, trials, players or actions), which no test can wait
    for, so such an example is drawn but not run. ``text``: the input is
    command-line text."""

    id: str
    range_kind: str
    name: str
    call: Callable[[object, Path], object]
    most: int | None = None
    text: bool = False


def _configs(**first):
    return (dq.AgentConfig(**{"player": 0, **_RATES, **first}), dq.AgentConfig(1, **_RATES))


def _traces(configs, horizon=60, record_times=(0, 30), trials=8):
    # eight trials play in lockstep, where a numpy rate would reach the stack
    streams = [dq.RandomnessStreams(5, trial=k) for k in range(trials)]
    schedules = [dq.draw_schedule(s, 2, 10, 2, 60) for s in streams]
    traces = dq.run_episodes(_GAME, configs, schedules, streams, horizon, record_times, record_q=True)
    return json.dumps([trace.to_json_dict() for trace in traces])


def _agent(field):
    def call(value, out):
        configs = _configs(**{field: value})
        return repr(configs) + _traces(configs)

    return call


def _experiment(field, entry=None):
    def call(value, out):
        base = dict(trials=1, horizon=60, min_phase=10, ratio=2, record_times=(0, 30), workers=1)
        config = dq.ExperimentConfig(**{**base, field: value if entry is None else entry(value)})
        result = dq.run_experiment(config, out)
        paths = (result.csv_path, result.summary_path)
        return repr((config, result.frequencies, result.flags_by_trial, result.max_abs_q_by_trial)), [
            path.read_bytes() for path in paths
        ]

    return call


def _frozen(steps=40, action=1):
    streams = [dq.RandomnessStreams(3, trial=k) for k in range(2)]
    tables = dq.frozen_q_run(_GAME, _configs(), ((0, action), (0, 1)), streams, steps)
    return [table.values.tobytes() for trial in tables for table in trial]


def _schedule(num_players=2, min_length=10, ratio=2, horizon=60):
    return repr(dq.draw_schedule(dq.RandomnessStreams(1), num_players, min_length, ratio, horizon))


def _phase_lengths(length):
    return repr(dq.Schedule(min_length=1, ratio=3, phase_lengths=((2, 3), (3, length))))


_ANALYZE = dict(rhos=(0.05, 0.05), deltas=(0.5, 0.5), lambdas=(0.2, 0.2), eps=0.1, ratio=3)


def _analyze(**given):
    return json.dumps(dq.analyze_game(_GAME, **{**_ANALYZE, **given}), sort_keys=True)


def _analysis(tol=1e-9, rhos=(0.05, 0.05), deltas=(0.5, 0.5)):
    analysis = dq.ExactAnalysis(_GAME, tol, rhos, deltas)
    facts = (sorted(analysis.equilibria), analysis.delta_bar, analysis.gap, analysis.bound)
    return repr(facts), analysis.path_len.tobytes()


def _opponents(player):
    """Softened policies of every player of the benchmark game but
    ``player``."""
    return [dq.soften_policy(dq.DeterministicPolicy(j, (0, 1)), 0.1, 2) for j in range(2) if j != player]


def _induced(player):
    mdp = dq.induced_mdp(_GAME, player, _opponents(player))
    return mdp.cost.tobytes(), mdp.kernel.tobytes()


def _q_star(player):
    return dq.q_star(_GAME, player, _opponents(player), 1e-9).values.tobytes()


def _draws(player=1, t=3):
    streams = dq.RandomnessStreams(5)
    return repr(
        (
            streams.inertia_uniform(player, t),
            streams.policy_draw(player, t, ((0, 1), (1,))),
            streams.phase_lengths(player, 10, 2, 60),
            streams.initial_policy_choices(player, 2, 2),
        )
    )


def _soften(rho=0.1, num_actions=2):
    policy = dq.soften_policy(dq.DeterministicPolicy(0, (0, 0)), rho, num_actions)
    return repr(policy.probs.dtype), policy.probs.tobytes()


def _labels(tol=1e-9, eps=0.0, action=1):
    joints = [((0, 0), (0, action)), ((1, 1), (0, 1))]
    return repr(dq.label_equilibria(_GAME, joints, tol, eps))


def _transition(state=1, joint_action=2, w=0.3):
    return repr(dq.sample_transition(_GAME, state, joint_action, w))


def _cli(command, option, base):
    """``decqlearn <command>`` with ``option`` given the value's text; an
    exit code of 2 raises a ValueError carrying stderr, which must name the
    option."""

    def call(value, out):
        argv = [*command(out), *base, option, str(value)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's refusal
                code = exc.code
        if code == 2:
            raise ValueError(stderr.getvalue())
        assert code == 0, stderr.getvalue()
        return stdout.getvalue()

    return call


def _analyze_command(out):
    return ["analyze", "benchmark", "--out", str(out)]


def _simulate_command(out):
    config = out.parent / "exp.json"
    config.write_text(json.dumps(dict(trials=1, horizon=60, min_phase=10, record_times=[0, 30])))
    return ["simulate", "benchmark", "--config", str(config), "--out-dir", str(out)]


def _benchmark_command(out):
    return ["reproduce-benchmark", "--out-dir", str(out)]


# Each option the property varies comes last, and argparse keeps the last
# occurrence of an option.
_ANALYZE_ARGS = ["--rho", "0.05", "--delta", "0.5", "--lam", "0.2", "--eps", "0.1", "--ratio", "3"]
_BENCHMARK_ARGS = ["--trials", "1", "--horizon", "60"]


def _in_times(value):
    return (0, value)

SLOTS = [
    *(Slot(f"agent-{f}", "positive" if f == "delta" else "unit", f, _agent(f)) for f in _RATES),
    Slot("agent-player", "action", "player", _agent("player")),
    *(
        Slot(f"experiment-{f}", "positive" if f == "delta" else "unit", f, _experiment(f))
        for f in _RATES
    ),
    Slot("experiment-min_phase", "count", "min_phase", _experiment("min_phase")),
    Slot("experiment-ratio", "count", "ratio", _experiment("ratio")),
    Slot("experiment-horizon", "count", "horizon", _experiment("horizon"), most=10**4),
    Slot("experiment-trials", "count", "trials", _experiment("trials"), most=8),
    Slot("experiment-workers", "count", "workers", _experiment("workers")),
    Slot("experiment-master_seed", "seed", "master_seed", _experiment("master_seed")),
    Slot("experiment-record-time", "action", "record.time", _experiment("record_times", _in_times)),
    Slot("experiment-rho-entry", "unit", "rho", _experiment("rho", lambda v: [0.05, v])),
    Slot("episodes-horizon", "count", "horizon", lambda v, out: _traces(_configs(), horizon=v)),
    Slot(
        "episodes-record-time",
        "action",
        "record.time",
        lambda v, out: _traces(_configs(), record_times=_in_times(v)),
    ),
    Slot("frozen-steps", "count", "steps", lambda v, out: _frozen(steps=v), most=10**4),
    Slot("frozen-action", "action", "action id", lambda v, out: _frozen(action=v)),
    Slot("schedule-players", "count", "num_players", lambda v, out: _schedule(num_players=v), most=64),
    Slot("schedule-min_length", "count", "min_length", lambda v, out: _schedule(min_length=v)),
    Slot("schedule-ratio", "count", "ratio", lambda v, out: _schedule(ratio=v)),
    Slot("schedule-horizon", "count", "horizon", lambda v, out: _schedule(horizon=v), most=10**4),
    Slot("schedule-phase-length", "count", "phase length of player 1", lambda v, out: _phase_lengths(v)),
    Slot("analyze-tol", "positive", "tol", lambda v, out: _analyze(tol=v)),
    Slot("analyze-eps", "unit", "eps", lambda v, out: _analyze(eps=v)),
    Slot("analyze-ratio", "count", "ratio", lambda v, out: _analyze(ratio=v)),
    Slot("analyze-rho", "rho", "rho", lambda v, out: _analyze(rhos=(0.05, v))),
    Slot("analyze-delta", "positive", "delta", lambda v, out: _analyze(deltas=(v, 0.5))),
    Slot("analyze-lambda", "unit", "lambda", lambda v, out: _analyze(lambdas=(0.2, v))),
    Slot("analysis-tol", "positive", "tol", lambda v, out: _analysis(tol=v)),
    Slot("analysis-rho", "rho", "rho", lambda v, out: _analysis(rhos=(v, 0.05))),
    Slot("analysis-delta", "positive", "delta", lambda v, out: _analysis(deltas=(0.5, v))),
    Slot("induced-player", "action", "player id", lambda v, out: _induced(v)),
    Slot("q-star-player", "action", "player id", lambda v, out: _q_star(v)),
    Slot("draws-player", "action", "player", lambda v, out: _draws(player=v)),
    Slot("draws-time", "action", "t must", lambda v, out: _draws(t=v)),
    Slot("soften-rho", "probability", "rho", lambda v, out: _soften(rho=v)),
    Slot("soften-actions", "count", "num_actions", lambda v, out: _soften(num_actions=v), most=64),
    Slot("labels-tol", "positive", "tol", lambda v, out: _labels(tol=v)),
    Slot("labels-eps", "nonnegative", "eps", lambda v, out: _labels(eps=v)),
    Slot("labels-action", "action", "action id", lambda v, out: _labels(action=v)),
    Slot("transition-state", "action", "state id", lambda v, out: _transition(state=v)),
    Slot("transition-joint", "action", "joint action index", lambda v, out: _transition(joint_action=v)),
    Slot("transition-w", "probability", "w must", lambda v, out: _transition(w=v)),
    *(
        Slot(f"cli-analyze-{o}", kind, o, _cli(_analyze_command, f"--{o}", _ANALYZE_ARGS), text=True)
        for o, kind in (
            ("rho", "rho"),
            ("delta", "positive"),
            ("lam", "unit"),
            ("eps", "unit"),
            ("ratio", "count"),
            ("tol", "positive"),
        )
    ),
    *(
        Slot(f"cli-simulate-{o}", kind, o, _cli(_simulate_command, f"--{o}", []), text=True)
        for o, kind in (("seed", "seed"), ("workers", "count"))
    ),
    *(
        Slot(f"cli-benchmark-{o}", kind, o, _cli(_benchmark_command, f"--{o}", _BENCHMARK_ARGS), most, True)
        for o, kind, most in (
            ("trials", "count", 8),
            ("horizon", "count", 10**4),
            ("seed", "seed", None),
            ("workers", "count", None),
        )
    ),
]


def _outcome(slot: Slot, value) -> tuple:
    """("ran", outputs) or ("refused",), after checking that a refusal is a
    ValueError naming the input and that the refused call wrote nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        try:
            return ("ran", slot.call(value, out))
        except ValueError as exc:
            assert re.search(slot.name, str(exc)), f"{slot.id}: {value!r}: {exc}"
            assert not out.exists(), f"{slot.id}: {value!r} wrote {out} before it was refused"
            return ("refused",)


@pytest.mark.parametrize("slot", SLOTS, ids=lambda slot: slot.id)
@settings(
    derandomize=True,
    database=None,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_each_scalar_is_its_python_value_or_refused_by_name(slot, data):
    value = data.draw(scalars(slot.range_kind), label=slot.id)
    python = value.item() if isinstance(value, np.generic) else value
    if slot.most is not None and _is_id(python) and python > slot.most:
        return  # a valid count of that much play, which no test can wait for
    outcome = _outcome(slot, value)
    if python is not value and not slot.text:
        assert _outcome(slot, python) == outcome, f"{slot.id}: {value!r} against {python!r}"
