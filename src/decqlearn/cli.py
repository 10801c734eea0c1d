"""Command-line interface.

Subcommands: ``analyze`` (exact structural report for a game), ``simulate``
(batch experiment from a JSON config), and ``reproduce-benchmark`` (the
canned benchmark experiment with its standard parameters). All randomness
flows from ``--seed``; omitting it means seed 0, never wall-clock entropy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .exact_solver import EnumerationBudgetError
from .experiments import (
    BENCHMARK_NAME,
    DEFAULT_RECORD_TIMES,
    ExperimentConfig,
    analyze_game,
    resolve_game,
    run_experiment,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state
    between calls, so each call's options start from the defaults."""
    parser = argparse.ArgumentParser(
        prog="decqlearn",
        description="Decentralized Q-learning for finite stochastic games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="exact structural report for a game (JSON to stdout)"
    )
    analyze.add_argument("game", help=f"game JSON file or '{BENCHMARK_NAME}'")
    each = "one value, or one per player"
    analyze.add_argument("--rho", type=float, nargs="+", help=f"experimentation in [0, 1); {each}")
    analyze.add_argument("--delta", type=float, nargs="+", help=f"greedy tolerance, finite and > 0; {each}")
    analyze.add_argument("--lam", type=float, nargs="+", help=f"inertia in (0, 1); {each}")
    analyze.add_argument("--eps", type=float, help="theta/xi target in (0, 1)")
    analyze.add_argument("--ratio", type=int, help="phase-length ratio, integer >= 1 (default 1)")
    analyze.add_argument("--tol", type=float, default=1e-9, help="solver tolerance, finite and > 0")
    analyze.add_argument("--out", type=Path, default=None, help="also write to file")

    simulate = sub.add_parser("simulate", help="run a batch experiment")
    simulate.add_argument("game", help=f"game JSON file or '{BENCHMARK_NAME}'")
    simulate.add_argument("--config", type=Path, required=True, help="experiment JSON")
    simulate.add_argument("--out-dir", type=Path, default=Path("out"))
    simulate.add_argument("--seed", type=int, default=None, help="override config seed")
    simulate.add_argument("--workers", type=int, default=None)

    bench = sub.add_parser(
        "reproduce-benchmark",
        help="run the built-in benchmark with its standard parameters",
    )
    bench.add_argument("--trials", type=int, default=500)
    length = bench.add_mutually_exclusive_group()
    length.add_argument("--horizon", type=int, default=100_000)
    length.add_argument("--full", action="store_true", help="use the 10^6 stage horizon")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--workers", type=int, default=1)
    bench.add_argument("--out-dir", type=Path, default=Path("out"))
    return parser


def _expand(values, n):
    if values is None:
        return None
    if len(values) == 1:
        return values * n
    return values


def _cmd_analyze(args: argparse.Namespace) -> int:
    game = resolve_game(args.game)
    n = game.num_players
    report = analyze_game(
        game,
        rhos=_expand(args.rho, n),
        deltas=_expand(args.delta, n),
        lambdas=_expand(args.lam, n),
        eps=args.eps,
        ratio=args.ratio,
        tol=args.tol,
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 1 if report.get("violations") else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    overrides = {"game": args.game}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    config = dataclasses.replace(config, **overrides)
    result = run_experiment(config, out_dir=args.out_dir)
    for t in sorted(result.frequencies):
        print(f"t={t}: equilibrium frequency {result.frequencies[t]:.4f}")
    print(f"wrote {result.csv_path} and {result.summary_path}")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    horizon = 1_000_000 if args.full else args.horizon
    record_times = tuple(t for t in DEFAULT_RECORD_TIMES if t < horizon) or (0,)
    config = ExperimentConfig(
        game=BENCHMARK_NAME,
        trials=args.trials,
        horizon=horizon,
        master_seed=args.seed,
        workers=args.workers,
        record_times=record_times,
    )
    result = run_experiment(config, out_dir=args.out_dir)
    print("time      frequency")
    for t in sorted(result.frequencies):
        print(f"{t:<9d} {result.frequencies[t]:.4f}")
    print(f"wrote {result.csv_path} and {result.summary_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_benchmark(args)
    except (ValueError, OSError, EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
