#!/usr/bin/env python3
"""Self-test of the benchmark's tracing, on shrunken workloads (about 30 s).

Checks that a traced call and an untraced call with one seed give identical
outputs, that tracing leaves no function patched (also when the traced call
raises), and that the traced counts are the exact step counts. Run from the
root of a checkout:

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import os
import shutil
import sys

import run


def shrink(workload) -> None:
    """Few short trials and a two-game grid, so the whole test is quick."""
    if workload.name == "exact-grid":
        workload.GRID = workload.GRID[:2]
    else:
        workload.trials, workload.horizon, workload.record_times = 3, 20_000, (0, 10_000)
    if workload.name == "long-horizon":
        workload.config_path = workload._write_config(
            "experiment.json", workload.trials, workload.horizon, workload.record_times
        )


def check_workload(cls, seed: int) -> list[str]:
    work_dir = run.WORK_ROOT / f"selftest-{cls.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = cls(seed, work_dir)
        shrink(workload)
        ledger = run.Ledger()
        metrics = run.run_traced(workload, ledger)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = list(ledger.problems)
    if workload.name != "exact-grid":
        steps = workload.trials * workload.horizon
        for name, expected in (
            ("game_model.sample_transition.calls", steps),
            ("agent.q_update.calls", steps * workload.game.num_players),
        ):
            if metrics[name][0] != expected:
                problems.append(f"{name} is {metrics[name][0]}, expected {expected}")
    return [f"{cls.name}: {p}" for p in problems]


def check_restore_on_error() -> list[str]:
    from decqlearn import orchestrator
    from decqlearn.experiments import build_benchmark_game
    from tracer import Tracer, snapshot

    before = snapshot()
    tracer = Tracer()
    try:
        with tracer:
            orchestrator.sample_transition(build_benchmark_game(), 99, 0, 0.5)
    except ValueError:
        pass
    problems = []
    if tracer.spans["game_model.sample_transition"].calls != 1:
        problems.append("the call that raised was not traced")
    after = snapshot()
    if any(after.get(key) != value for key, value in before.items()):
        problems.append("a traced call that raised left functions patched")
    return problems


def main() -> int:
    run.import_program()
    from workloads import WORKLOADS

    problems = check_restore_on_error()
    for cls in WORKLOADS.values():
        problems += check_workload(cls, seed=7)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
