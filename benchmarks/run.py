#!/usr/bin/env python3
"""Layered benchmark for decqlearn.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload batch-bench --seed 0 --seconds 30 --trace 0

Each workload is a closed loop of entry calls into ``decqlearn.cli.main``
from this one process, importing the package from ``src/`` of the checkout.
With ``--trace 0`` the run measures set-up, then makes timed entry calls
until ``--seconds`` is spent, checks every call's outputs, and reports the
end-to-end metrics. With ``--trace 1`` it makes the untraced calls that the
traced one is compared with, then one call with every layer wrapped (see
``tracer.py``), checks that tracing changed no output, and reports the
per-layer metrics and the tracing overhead.

Earlier lines of standard output give the machine facts and every metric
with its unit; the last line is the JSON result. Exits 1 without a result
when the decqlearn sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0


def import_program():
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    if not (SRC / "decqlearn" / "__init__.py").is_file():
        raise SystemExit(f"error: no decqlearn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import decqlearn

    if Path(decqlearn.__file__).resolve().parent != SRC / "decqlearn":
        raise SystemExit(f"error: imported decqlearn from {decqlearn.__file__}, not {SRC}")


def machine_facts(workload) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
        "workload": workload.name,
        "seed": workload.seed,
        "params": workload.params(),
    }


def high_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    level in percent; the maximum (level 100) when there are ten or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


class Ledger:
    """Attempted and failed entry calls, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def call(self, fn, *args, **kwargs):
        """Time one entry call; an exception counts as a failed call."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record([traceback.format_exc(limit=3)])
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start


def reference_problems(workload, outputs: dict) -> list[str]:
    """For the reference seed, compare against the outputs recorded from the
    seed commit in ``reference.json``."""
    reference = json.loads(REFERENCE.read_text())
    if workload.seed != reference["seed"]:
        return []
    expected = reference[workload.name]
    actual = workload.reference(outputs)
    if actual != expected:
        return [f"outputs differ from the reference: {actual} != {expected}"]
    return []


def check_first(workload, outputs: dict) -> list[str]:
    return workload.check(outputs) + workload.deep_check(outputs) + reference_problems(workload, outputs)


def run_untraced(workload, seconds: float, ledger: Ledger) -> dict:
    """Set-up calls and timed calls alternate, so that both sets of samples
    span the whole run. Times are scaled to the reference speed (see
    ``speed.py``): the set-up calls, a few milliseconds each, by kernel runs
    just before them; the timed call by the samples of its round."""
    from speed import REFERENCE_PROBE_S, Speedometer, kernel_cpu_s

    start = time.perf_counter()
    setups: list[float] = []
    walls: list[float] = []
    raw_walls: list[float] = []
    scales: list[float] = []
    rounds: list[float] = []
    first = None
    with Speedometer() as meter:
        # Start another round while it is expected to end less than half a
        # round past the budget, so that a run lasts about --seconds on average.
        while not rounds or time.perf_counter() - start + statistics.median(rounds) / 2 <= seconds:
            round_start = time.perf_counter()
            setup_scale = REFERENCE_PROBE_S / statistics.median(kernel_cpu_s() for _ in range(3))
            since = len(meter.samples)
            round_setups = []
            for _ in range(workload.setup_repeats):
                code, elapsed = ledger.call(workload.setup)
                round_setups.append(elapsed)
                if code is not None:
                    ledger.record([] if code == 0 else [f"set-up call exited with {code}"])
            outputs, elapsed = ledger.call(workload.call)
            scales.append(meter.scale(since))
            setups.extend(t * setup_scale for t in round_setups)
            walls.append(elapsed * scales[-1])
            raw_walls.append(elapsed)
            if outputs is None:
                pass
            elif first is None:
                first = outputs
                ledger.record(check_first(workload, outputs))
            elif outputs != first:
                ledger.record(["outputs differ between calls with one seed"])
            else:
                ledger.record(workload.check(outputs))
            rounds.append(time.perf_counter() - round_start)

    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    hi, level = high_percentile(walls)
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    print(f"info wall_s samples={len(walls)} p50={wall_s!r} p{level:.0f}={hi!r} s all={walls}")
    print(f"info raw wall_s p50={statistics.median(raw_walls)!r} s all={raw_walls}")
    print(f"info speed scales={scales} probes={len(meter.samples)}")
    print(f"info setup_s samples={len(setups)}")
    return {
        "wall_s": (wall_s, "s"),
        "throughput_per_s": (workload.work / (wall_s - setup_s), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def run_traced(workload, ledger: Ledger) -> dict:
    from tracer import Tracer, snapshot

    untraced, wall = ledger.call(workload.call)
    if untraced is not None:
        ledger.record(check_first(workload, untraced))
    serial, serial_wall = untraced, wall
    if workload.workers > 1:
        serial, serial_wall = ledger.call(workload.call, workers=1)
        if serial is not None:
            ledger.record([] if serial == untraced else ["1 worker and the workload's workers disagree"])

    before = snapshot()
    with Tracer() as tracer:
        traced, traced_wall = ledger.call(workload.call, workers=1)
    after = snapshot()
    leftover = sorted(f"{m}.{n}" for (m, n), v in before.items() if after.get((m, n)) != v)
    if traced is not None:
        ledger.record(
            ([] if traced == untraced else ["traced outputs differ from untraced ones"])
            + ([f"still patched after tracing: {leftover}"] if leftover else [])
        )

    if tracer.missing:
        print(f"info not in this version of the program, so reading 0: {tracer.missing}")
    spans, counters = tracer.spans, tracer.counters
    episodes = spans["orchestrator.run_episode"].durations or [0.0]
    hi, level = high_percentile(episodes)
    print(f"info orchestrator.run_episode samples={len(episodes)} hi=p{level:.0f}")
    appraisals = spans["agent.end_phase_update"].calls
    solves = spans["exact_solver.q_star"].calls
    return {
        "game_model.sample_transition.calls": (spans["game_model.sample_transition"].calls, "count"),
        "game_model.sample_transition.self_s": (spans["game_model.sample_transition"].self_s, "s"),
        "game_model.load_game.s": (spans["game_model.load_game"].total_s, "s"),
        "game_model.validate_game.s": (spans["game_model.validate_game"].total_s, "s"),
        "agent.q_update.calls": (spans["agent.q_update"].calls, "count"),
        "agent.q_update.self_s": (spans["agent.q_update"].self_s, "s"),
        "agent.select_action.calls": (spans["agent.select_action"].calls, "count"),
        "agent.select_action.self_s": (spans["agent.select_action"].self_s, "s"),
        "agent.end_phase_update.calls": (appraisals, "count"),
        "agent.switch_ratio": (counters.switches / appraisals if appraisals else 0.0, "ratio"),
        "orchestrator.streams.s": (spans["orchestrator.streams"].total_s, "s"),
        "orchestrator.streams.bytes_computed": (counters.stream_bytes, "bytes"),
        "orchestrator.run_episode.p50_s": (statistics.median(episodes), "s"),
        "orchestrator.run_episode.hi_s": (hi, "s"),
        "orchestrator.loop.self_s": (spans["orchestrator.run_episode"].self_s, "s"),
        "orchestrator.policy_draw.calls": (spans["orchestrator.policy_draw"].calls, "count"),
        "orchestrator.inertia_uniform.calls": (spans["orchestrator.inertia_uniform"].calls, "count"),
        "orchestrator.draw_schedule.s": (spans["orchestrator.draw_schedule"].total_s, "s"),
        "exact_solver.equilibrium_set.s": (spans["exact_solver.equilibrium_set"].total_s, "s"),
        "exact_solver.q_star.calls": (solves, "count"),
        "exact_solver.q_star.self_s": (spans["exact_solver.q_star"].self_s, "s"),
        "exact_solver.q_star.unique_ratio": (len(counters.q_star_keys) / solves if solves else 0.0, "ratio"),
        "exact_solver.delta_bar.s": (spans["exact_solver.delta_bar"].total_s, "s"),
        "exact_solver.perturbation_gap.s": (spans["exact_solver.perturbation_gap"].total_s, "s"),
        "acyclicity.build_br_graph.s": (spans["acyclicity.build_br_graph"].total_s, "s"),
        "acyclicity.build_br_graph.nodes": (counters.br_nodes, "count"),
        "acyclicity.build_br_graph.edges": (counters.br_edges, "count"),
        "experiments.run_experiment.s": (spans["experiments.run_experiment"].total_s, "s"),
        # One worker does all the work of a single-process workload.
        "experiments.parallel_efficiency": (serial_wall / (workload.workers * wall), "ratio"),
        "cli.self_s": (spans["cli.main"].self_s, "s"),
        "trace.overhead_ratio": (traced_wall / serial_wall, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["batch-bench", "long-horizon", "exact-grid"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        print("machine " + json.dumps(machine_facts(workload), sort_keys=True))
        ledger = Ledger()
        if args.trace:
            metrics = run_traced(workload, ledger)
        else:
            metrics = run_untraced(workload, args.seconds, ledger)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in ledger.problems:
        print(f"problem {problem}")
    print(f"metric failed_ratio = {ledger.failed / max(ledger.attempted, 1)!r} ratio "
          f"({ledger.failed} of {ledger.attempted} entry calls)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
