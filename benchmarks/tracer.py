"""Per-layer tracing of decqlearn from outside the package.

``Tracer`` replaces the public functions of each decqlearn module (and the
hot methods of ``Agent`` and ``RandomnessStreams``) with timing wrappers for
the duration of a ``with`` block, then puts every original back. A wrapped
function is replaced wherever a decqlearn module holds it, because modules
import each other's functions by name (``orchestrator`` calls its own
``sample_transition`` binding, ``cli`` its own ``run_experiment``).

Per-step functions are called millions of times, so every span is folded
into aggregate counters (calls, total time, self time) instead of being kept
one by one; only ``run_episode`` keeps its per-trial durations. Self time is
a span's duration minus the time of the traced spans it directly caused.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# (layer name, module, attribute); "Class.method" attributes patch the class.
# Names shared by several attributes aggregate into one counter.
SPANS = (
    ("cli.main", "decqlearn.cli", "main"),
    ("experiments.run_experiment", "decqlearn.experiments", "run_experiment"),
    ("experiments.analyze_game", "decqlearn.experiments", "analyze_game"),
    ("game_model.load_game", "decqlearn.game_model", "load_game"),
    ("game_model.validate_game", "decqlearn.game_model", "validate_game"),
    ("game_model.sample_transition", "decqlearn.game_model", "sample_transition"),
    ("agent.select_action", "decqlearn.agent", "Agent.select_action"),
    ("agent.q_update", "decqlearn.agent", "Agent.q_update"),
    ("agent.end_phase_update", "decqlearn.agent", "Agent.end_phase_update"),
    ("orchestrator.streams", "decqlearn.orchestrator", "RandomnessStreams.transition_uniforms"),
    ("orchestrator.streams", "decqlearn.orchestrator", "RandomnessStreams.experimentation_uniforms"),
    ("orchestrator.streams", "decqlearn.orchestrator", "RandomnessStreams.action_draws"),
    ("orchestrator.policy_draw", "decqlearn.orchestrator", "RandomnessStreams.policy_draw"),
    ("orchestrator.inertia_uniform", "decqlearn.orchestrator", "RandomnessStreams.inertia_uniform"),
    ("orchestrator.draw_schedule", "decqlearn.orchestrator", "draw_schedule"),
    ("orchestrator.run_episode", "decqlearn.orchestrator", "run_episode"),
    ("exact_solver.equilibrium_set", "decqlearn.exact_solver", "equilibrium_set"),
    ("exact_solver.q_star", "decqlearn.exact_solver", "q_star"),
    ("exact_solver.delta_bar", "decqlearn.exact_solver", "delta_bar"),
    ("exact_solver.perturbation_gap", "decqlearn.exact_solver", "perturbation_gap"),
    ("acyclicity.build_br_graph", "decqlearn.acyclicity", "build_br_graph"),
)


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] | None = None


@dataclass
class Counters:
    """Counts taken from the arguments and results of traced calls."""

    stream_bytes: int = 0
    switches: int = 0
    br_nodes: int = 0
    br_edges: int = 0
    q_star_keys: set = field(default_factory=set)
    # Games seen by q_star, kept alive so their ids stay unique in the keys.
    q_star_games: dict = field(default_factory=dict)


def _decqlearn_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "decqlearn"]


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {layer: Span() for layer, _, _ in SPANS}
        self.spans["orchestrator.run_episode"].durations = []
        self.counters = Counters()
        # Functions a later version of the program no longer has; their
        # layers read 0 instead of stopping the traced run.
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []

    def __enter__(self) -> "Tracer":
        try:
            for layer, module_name, attr in SPANS:
                self._install(layer, module_name, attr)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install(self, layer: str, module_name: str, attr: str) -> None:
        try:
            target = importlib.import_module(module_name)
        except ImportError:
            target = None
        for part in attr.split("."):
            target = getattr(target, part, None)
        if target is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        if "." in attr:
            cls_name, method = attr.split(".")
            owners = [(getattr(sys.modules[module_name], cls_name), method)]
        else:
            owners = [
                (m, name)
                for m in _decqlearn_modules()
                for name, value in vars(m).items()
                if value is target
            ]
        wrapper = self._wrap(layer, target)
        for owner, name in owners:
            self._patches.append((owner, name, vars(owner)[name]))
            setattr(owner, name, wrapper)

    def _wrap(self, layer: str, fn):
        span = self.spans[layer]
        on_result = getattr(self, "_on_" + layer.split(".")[-1], None)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
                if span.durations is not None:
                    span.durations.append(elapsed)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # Result hooks, looked up by the last part of the layer name.

    def _on_streams(self, args, result) -> None:
        self.counters.stream_bytes += result.nbytes

    def _on_end_phase_update(self, args, result) -> None:
        self.counters.switches += bool(result)

    def _on_build_br_graph(self, args, result) -> None:
        self.counters.br_nodes += len(result.nodes)
        self.counters.br_edges += len(result.edges)

    def _on_q_star(self, args, result) -> None:
        game, player, others = args[:3]
        self.counters.q_star_games[id(game)] = game
        key = (id(game), player, tuple((p.player, p.probs.tobytes()) for p in others))
        self.counters.q_star_keys.add(key)


def snapshot() -> dict:
    """Every attribute of every decqlearn module and of the classes they
    define, by identity. If every entry of an earlier snapshot is unchanged
    in a later one, nothing is left patched."""
    out = {}
    for module in _decqlearn_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(module.__name__, f"{name}.{attr}")] = id(member)
    return out
