#!/usr/bin/env python3
"""Record ``reference.json``: the outputs of one call of every workload at
the default seed, which ``run.py`` compares against on that seed.

Rerun only for a change that is meant to alter outputs:

    python3 benchmarks/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil

import run


def main() -> None:
    run.import_program()
    from workloads import WORKLOADS

    reference = {"seed": run.DEFAULT_SEED}
    for name, cls in WORKLOADS.items():
        work_dir = run.WORK_ROOT / f"reference-{name}-{os.getpid()}"
        work_dir.mkdir(parents=True)
        try:
            workload = cls(run.DEFAULT_SEED, work_dir)
            outputs = workload.call()
            problems = workload.check(outputs) + workload.deep_check(outputs)
            if problems:
                raise SystemExit(f"{name}: {problems}")
            reference[name] = workload.reference(outputs)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
