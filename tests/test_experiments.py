import json
import math

import numpy as np
import pytest

from decqlearn import acyclicity, experiments, orchestrator
from decqlearn.cli import main
from decqlearn.exact_solver import ExactAnalysis
from decqlearn.experiments import (
    ExperimentConfig,
    analyze_game,
    build_benchmark_game,
    resolve_game,
    run_experiment,
)
from decqlearn.game_model import save_game, validate_game


class TestBenchmarkGame:
    def test_valid(self):
        assert validate_game(build_benchmark_game()) == []

    def test_kernel_numbers(self):
        game = build_benchmark_game()
        # state s0 ignores the joint action; s1 leaves faster on a mismatch
        for ja in range(4):
            assert game.kernel[0, ja, 0] == 0.5
        assert game.kernel[1, game.joint_index((0, 0)), 0] == 0.25
        assert game.kernel[1, game.joint_index((0, 1)), 0] == 0.9
        assert game.costs[0][0, game.joint_index((1, 1))] == 0.0
        assert game.costs[1][1, game.joint_index((1, 0))] == 11.0

    def test_equilibrium_count(self):
        assert len(ExactAnalysis(build_benchmark_game(), 1e-9).equilibria) == 4


class TestExperimentConfig:
    def test_round_trip(self):
        config = ExperimentConfig(
            trials=7, horizon=2000, record_times=(0, 1000), master_seed=5, rho=(0.05, 0.1)
        )
        again = ExperimentConfig.from_json_dict(config.to_json_dict())
        assert again == config

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(min_phase=0)
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(horizon=100, record_times=(100,))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trials", "x"),
            ("trials", True),
            ("workers", 1.5),
            ("record_times", 0),
            ("record_times", [0.7]),
            ("master_seed", "3"),
            ("alpha", "0.1"),
            ("rho", [0.05, "0.1"]),
        ],
    )
    def test_simulate_rejects_mistyped_config(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({key: value}))
        argv = ["simulate", "benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("document", ["[1, 2]", "null", '"x"', "3"])
    def test_simulate_rejects_a_config_that_is_not_an_object(self, tmp_path, capsys, document):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(document)
        argv = ["simulate", "benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: experiment config must be a JSON object")
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize(
        "game", [5, None, b"benchmark", build_benchmark_game()], ids=["int", "None", "bytes", "game"]
    )
    def test_game_must_be_a_name_or_a_path(self, game):
        with pytest.raises(ValueError, match="game must be a name or a path"):
            ExperimentConfig(game=game)

    def test_a_game_path_is_held_as_a_str(self, tmp_path):
        path = tmp_path / "game.json"
        assert ExperimentConfig(game=path) == ExperimentConfig(game=str(path))
        assert ExperimentConfig(game=path).game == str(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rho", 5),
            ("lam", 0.0),
            ("alpha", 1.0),
            ("delta", -0.5),
            ("rho", [0.05, 1.5]),
            ("delta", (0.5, math.inf)),
            ("lam", math.nan),
        ],
    )
    def test_rates_are_checked_at_construction(self, key, value):
        # each value, or each list entry, by the learner's rule, before any run
        with pytest.raises(ValueError, match=rf"^{key} must "):
            ExperimentConfig(**{key: value})

    def test_lists_are_held_as_tuples(self):
        config = ExperimentConfig(rho=[0.05, 0.1], record_times=[0, 10])
        assert config == ExperimentConfig(rho=(0.05, 0.1), record_times=(0, 10))

    def test_agent_configs_broadcast(self):
        game = build_benchmark_game()
        configs = ExperimentConfig(rho=0.07).agent_configs(game)
        assert [c.rho for c in configs] == [0.07, 0.07]
        configs = ExperimentConfig(rho=(0.07, 0.2)).agent_configs(game)
        assert [c.rho for c in configs] == [0.07, 0.2]
        with pytest.raises(ValueError):
            ExperimentConfig(rho=(0.07,)).agent_configs(game)


class TestRunExperiment:
    def test_single_trial_flags(self, tmp_path):
        config = ExperimentConfig(
            trials=1, horizon=10, record_times=(0, 5, 9), min_phase=11, ratio=1
        )
        result = run_experiment(config, out_dir=tmp_path)
        lines = (tmp_path / "frequencies.csv").read_text().splitlines()
        assert lines[0] == "time,frequency,trials"
        assert len(lines) == 4
        for line in lines[1:]:
            _, freq, trials = line.split(",")
            assert freq in ("0.0", "1.0")
            assert trials == "1"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"] == config.to_json_dict()
        assert "num_equilibria" not in summary
        assert result.frequencies.keys() == {0, 5, 9}

    def test_numpy_counts_write_the_python_int_bytes(self, tmp_path):
        # numpy integers for the counts and the seed are held as Python ints,
        # so summary.json can hold them, with the bytes of a plain-int run
        counts = dict(min_phase=20, ratio=2, horizon=100, trials=2, workers=1, master_seed=3)
        plain = ExperimentConfig(record_times=(0, 50), **counts)
        run_experiment(plain, out_dir=tmp_path / "int")
        kinds = (np.int64, np.int32, np.uint16, np.int64, np.int8, np.uint64)
        config = ExperimentConfig(
            record_times=(0, 50), **{k: kind(v) for kind, (k, v) in zip(kinds, counts.items())}
        )
        assert all(type(getattr(config, key)) is int for key in counts)
        run_experiment(config, out_dir=tmp_path / "numpy")
        for name in ("frequencies.csv", "summary.json"):
            assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()

    def test_numpy_rates_write_the_python_number_bytes(self, tmp_path):
        # a numpy rate is held as the Python number it equals: a float32 or
        # an int64 would not reach summary.json, a float64 would as itself
        rates = dict(rho=0.25, lam=(0.5, 0.125), delta=1, alpha=0.0625)
        base = dict(trials=2, horizon=100, record_times=(0, 50), min_phase=20)
        run_experiment(ExperimentConfig(**base, **rates), out_dir=tmp_path / "plain")
        config = ExperimentConfig(
            **base, rho=np.float32(0.25), lam=[np.float64(0.5), np.float16(0.125)],
            delta=np.int64(1), alpha=np.float64(0.0625),
        )
        assert config == ExperimentConfig(**base, **rates)
        assert type(config.delta) is int and type(config.lam[1]) is float
        run_experiment(config, out_dir=tmp_path / "numpy")
        for name in ("frequencies.csv", "summary.json"):
            assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_identical_seeds_identical_outputs(self, tmp_path):
        config = ExperimentConfig(trials=4, horizon=3000, record_times=(0, 1500), min_phase=500)
        run_experiment(config, out_dir=tmp_path / "a")
        run_experiment(config, out_dir=tmp_path / "b")
        assert (tmp_path / "a/frequencies.csv").read_bytes() == (
            tmp_path / "b/frequencies.csv"
        ).read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (
            tmp_path / "b/summary.json"
        ).read_bytes()

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        # each worker plays a contiguous slice as one batch: with B0 the
        # smallest lockstep batch, 3 * B0 - 2 trials are one lockstep batch on
        # one worker, two on two, and B0 - 1, B0 - 1 and B0 trials on three,
        # so the two smaller slices play trial by trial
        lockstep_min = orchestrator._LOCKSTEP_MIN
        base = dict(
            trials=3 * lockstep_min - 2, horizon=3000, record_times=(0, 1500, 2999), min_phase=300
        )
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"workers{workers}"
            run_experiment(ExperimentConfig(workers=workers, **base), out_dir=out)
            summary = json.loads((out / "summary.json").read_text())
            assert summary["config"].pop("workers") == workers
            outputs.append(((out / "frequencies.csv").read_bytes(), summary))
        assert outputs[0] == outputs[1] == outputs[2]
        assert {"frequencies", "max_abs_q"} <= set(outputs[0][1])
        assert "num_equilibria" not in outputs[0][1]

    def test_unreachable_game_warns(self, tmp_path):
        import numpy as np

        from decqlearn.game_model import StochasticGame, save_game

        kernel = np.zeros((2, 2, 2))
        kernel[:, :, 0] = 1.0  # s0 absorbs
        game = StochasticGame(
            states=("s0", "s1"),
            action_sets=(("a0", "a1"),),
            costs=(np.zeros((2, 2)),),
            discounts=(0.5,),
            kernel=kernel,
            initial_dist=np.array([1.0, 0.0]),
        )
        path = tmp_path / "absorbing.json"
        save_game(game, path)
        config = ExperimentConfig(
            game=str(path), trials=1, horizon=20, record_times=(0,), min_phase=21,
        )
        with pytest.warns(UserWarning, match="strongly connected"):
            run_experiment(config)

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment config"):
            ExperimentConfig.from_json_dict({"trials": 2, "horizons": 10})

    def test_invalid_game_rejected(self, tmp_path):
        game_path = tmp_path / "bad.json"
        game = build_benchmark_game()
        data = json.loads(json.dumps({
            "players": ["p0", "p1"],
            "states": list(game.states),
            "actions": [list(a) for a in game.action_sets],
            "discounts": [1.5, 0.8],
            "costs": [c.tolist() for c in game.costs],
            "kernel": game.kernel.tolist(),
            "initial_dist": game.initial_dist.tolist(),
        }))
        game_path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="discount"):
            run_experiment(ExperimentConfig(game=str(game_path), trials=1, horizon=10, record_times=(0,), min_phase=11))


class TestAnalyzeGame:
    def test_benchmark_report(self):
        report = analyze_game(
            "benchmark",
            rhos=(0.05, 0.05),
            deltas=(0.5, 0.5),
            lambdas=(0.2, 0.2),
            eps=0.1,
            ratio=3,
        )
        assert report["violations"] == []
        assert report["num_equilibria"] == 4
        assert report["weakly_acyclic"] is True
        assert report["path_bound_L"] == 2
        assert report["delta_bar"] == pytest.approx(2.0, abs=1e-8)
        assert report["reachable"] is True
        assert report["perturbation"]["gap"] > 0.0
        assert report["perturbation"]["bound"] == pytest.approx(0.125)
        diag = report["update_diagnostics"]
        # (R+1) L = 8 per player, two players
        assert diag["p_min"] == pytest.approx(0.2**16, rel=1e-9)
        assert 0.0 < diag["theta"] < 1.0
        assert diag["xi"] > 0.0

    def test_pennies_report(self, pennies_game):
        report = analyze_game(pennies_game)
        assert report["num_equilibria"] == 0
        assert report["weakly_acyclic"] is False
        assert report["path_bound_L"] is None

    def test_single_player_mdp_as_game(self, rng):
        from oracles import random_game

        game = random_game(rng, num_players=1, beta=0.5)
        report = analyze_game(game)
        assert report["weakly_acyclic"] is True
        assert report["num_equilibria"] >= 1

    def test_invalid_game_short_circuits(self, benchmark_game):
        from decqlearn.game_model import StochasticGame

        bad = StochasticGame(
            states=benchmark_game.states,
            action_sets=benchmark_game.action_sets,
            costs=benchmark_game.costs,
            discounts=(1.0, 0.8),
            kernel=benchmark_game.kernel,
            initial_dist=benchmark_game.initial_dist,
        )
        report = analyze_game(bad)
        assert report["violations"]
        assert "equilibria" not in report

    def test_solves_each_stack_once(self, solve_calls):
        # one call for every player, holding the table and the softened
        # table, whatever is derived; the same call solves again by value
        # iteration the members whose digits reach the report, here all four
        # joints of each player, whose delta_bar gaps tie
        analyze_game(
            "benchmark",
            rhos=(0.05, 0.05),
            deltas=(0.5, 0.5),
            lambdas=(0.2, 0.2),
            eps=0.1,
            ratio=3,
        )
        assert solve_calls == [((0, 1), ((0.0, 0.0), (0.05, 0.05)), (4, 4))]

    @pytest.mark.parametrize(
        "deltas", [(0.5, 0.6, 0.7), (0.5,), (-1.0, -1.0), (0.5, 0.0), (0.5, math.inf), (math.nan, 0.5)]
    )
    def test_deltas_one_positive_value_per_player(self, benchmark_game, deltas):
        with pytest.raises(ValueError, match="delta"):
            analyze_game(benchmark_game, rhos=(0.05, 0.05), deltas=deltas)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ratio", np.int64(3)),
            ("eps", np.float32(0.1)),
            ("rhos", [np.float32(0.05)] * 2),
            ("deltas", [np.float16(0.5), np.float32(0.3)]),
            ("lambdas", [np.float32(0.2)] * 2),
            ("tol", np.float32(1e-9)),
        ],
        ids=["ratio", "eps", "rhos", "deltas", "lambdas", "tol"],
    )
    def test_numpy_inputs_report_the_python_number_bytes(self, benchmark_game, key, value):
        # the report held numpy scalars, and json.dumps raised TypeError
        plain = dict(rhos=[0.05, 0.05], deltas=[0.5, 0.5], lambdas=[0.2, 0.2], eps=0.1, ratio=3)
        python = value.item() if isinstance(value, np.generic) else [v.item() for v in value]
        given = analyze_game(benchmark_game, **{**plain, key: value})
        expected = analyze_game(benchmark_game, **{**plain, key: python})
        assert json.dumps(given, sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestCli:
    def test_analyze_benchmark(self, capsys):
        code = main(["analyze", "benchmark", "--rho", "0.05", "--delta", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["num_equilibria"] == 4
        assert report["weakly_acyclic"] is True

    def test_analyze_game_file(self, tmp_path, capsys, pennies_game):
        path = tmp_path / "pennies.json"
        save_game(pennies_game, path)
        code = main(["analyze", str(path), "--out", str(tmp_path / "report.json")])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["weakly_acyclic"] is False
        assert report["num_equilibria"] == 0

    @pytest.mark.parametrize("deltas", [["0.5", "0.6", "0.7"], ["-1"], ["inf"], ["0.5", "inf"]])
    def test_analyze_rejects_bad_deltas(self, capsys, deltas):
        code = main(["analyze", "benchmark", "--rho", "0.05", "--delta", *deltas])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, name",
        [
            (["--lam", "0.2", "--eps", "-5", "--ratio", "3"], "eps"),
            (["--eps", "7"], "eps"),
            (["--lam", "5"], "lambda"),
            (["--ratio", "-3"], "ratio"),
            (["--tol", "nan"], "tol"),
            (["--tol", "inf"], "tol"),
        ],
    )
    def test_analyze_checks_each_input_alone(self, capsys, args, name):
        code = main(["analyze", "benchmark", *args])
        assert code == 2
        assert f"{name} must" in capsys.readouterr().err

    def test_analyze_reports_underflowed_p_min(self, capsys):
        # L = 2, so p_min = 0.2 ** (4 (R + 1)) is below the smallest float at
        # R = 1000, and theta and xi are unknown.
        code = main(
            ["analyze", "benchmark", "--rho", "0.05", "--delta", "0.5", "--lam", "0.2",
             "--eps", "0.1", "--ratio", "1000"]
        )
        assert code == 0
        diag = json.loads(capsys.readouterr().out)["update_diagnostics"]
        assert diag["p_min"] == 0.0 and diag["theta"] is None and diag["xi"] is None

    @pytest.mark.parametrize("deltas", [["2.5"], ["0.5", "3.0"]])
    def test_analyze_reports_delta_outside_delta_bar(self, capsys, deltas):
        # delta_bar is 2 on the benchmark game: a delta past it leaves
        # xi undefined, but the report, theta and the failed bound still print.
        code = main(
            ["analyze", "benchmark", "--rho", "0.05", "--delta", *deltas, "--lam", "0.2",
             "--eps", "0.1", "--ratio", "3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["perturbation"]["within_bound"] is False
        diag = report["update_diagnostics"]
        assert diag["theta"] == acyclicity.solve_theta(diag["p_min"], 0.1)
        assert diag["xi"] is None

    def test_analyze_missing_file(self, capsys):
        code = main(["analyze", "nowhere/missing.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_with_config_file(self, tmp_path, capsys):
        config = ExperimentConfig(trials=2, horizon=1200, record_times=(0, 600), min_phase=300)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config.to_json_dict()))
        code = main(
            [
                "simulate",
                "benchmark",
                "--config",
                str(cfg_path),
                "--out-dir",
                str(tmp_path / "out"),
                "--seed",
                "9",
            ]
        )
        assert code == 0
        assert (tmp_path / "out/frequencies.csv").exists()
        summary = json.loads((tmp_path / "out/summary.json").read_text())
        assert summary["config"]["master_seed"] == 9

    def test_reproduce_benchmark_small(self, tmp_path, capsys):
        code = main(
            [
                "reproduce-benchmark",
                "--trials",
                "2",
                "--horizon",
                "1500",
                "--seed",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "frequency" in out
        assert (tmp_path / "frequencies.csv").exists()

    def test_unusable_out_dir_fails_before_play(self, tmp_path, capsys, monkeypatch):
        # an existing file where the output directory should be: exit 2
        # before any trial is played
        blocker = tmp_path / "taken"
        blocker.write_text("")

        def no_play(*args):
            raise AssertionError("trials played before the output directory was made")

        monkeypatch.setattr(experiments, "_run_trials", no_play)
        code = main(["reproduce-benchmark", "--trials", "2", "--horizon", "1500", "--out-dir", str(blocker)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_simulate_past_the_enumeration_budget(self, tmp_path, capsys, monkeypatch):
        # 2 players x 16 states x 2 actions: 2**32 joint policies, past the
        # budget of 10**6, but tiny learners; simulate labels only the joints
        # its trials visit and never builds the greedy grids.
        import numpy as np

        from decqlearn.exact_solver import ExactAnalysis
        from decqlearn.game_model import StochasticGame

        rng = np.random.default_rng(16)
        kernel = rng.dirichlet(np.ones(16), size=(16, 4))
        game = StochasticGame(
            states=tuple(f"s{x}" for x in range(16)),
            action_sets=(("a0", "a1"), ("a0", "a1")),
            costs=(rng.uniform(0.0, 10.0, size=(16, 4)), rng.uniform(0.0, 10.0, size=(16, 4))),
            discounts=(0.8, 0.8),
            kernel=kernel,
            initial_dist=np.full(16, 1.0 / 16.0),
        )
        game_path = tmp_path / "game.json"
        save_game(game, game_path)
        config = ExperimentConfig(trials=9, horizon=4000, record_times=(0, 3999), min_phase=200)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config.to_json_dict()))

        def no_grids(self):
            raise AssertionError("simulate enumerated the joint-policy space")

        with monkeypatch.context() as patch:
            patch.setattr(ExactAnalysis, "grids", property(no_grids))
            code = main(
                ["simulate", str(game_path), "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]
            )
        assert code == 0
        summary = json.loads((tmp_path / "out/summary.json").read_text())
        assert "num_equilibria" not in summary
        assert set(summary["frequencies"]) == {"0", "3999"}
        capsys.readouterr()
        assert main(["analyze", str(game_path)]) == 2
        err = capsys.readouterr().err
        assert "joint policy space has 4294967296 nodes, above the budget" in err


def test_resolve_game_passthrough(benchmark_game):
    assert resolve_game(benchmark_game) is benchmark_game
