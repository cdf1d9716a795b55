import json
import re

import numpy as np
import pytest

import mograd.cli
import mograd.optimize
from mograd.cli import _write_trace, main, train_imbalanced
from mograd.data import Dataset, class_batches, save_csv, synth_imbalanced
from mograd.direction import stationarity_residual
from mograd.minnorm import FwConfig
from mograd.neural import MlpParams, init_mlp, per_class_losses
from mograd.optimize import IterationTrace, _epoch_batch_oracle


def read_json(path):
    return json.loads(path.read_text())


def write_grads(path, lines):
    path.write_text("\n".join(lines) + "\n")


TINY_IMBALANCED = ["--epochs", "2", "--batches-per-epoch", "2", "--synthetic", "60,12,3,3.0",
                   "--hidden", "5"]
TINY_MULTITASK = ["--epochs", "1", "--n", "200", "--m", "4"]


class TestDirectionCommand:
    def test_edm_report(self, tmp_path, capsys):
        grads = tmp_path / "g.txt"
        write_grads(grads, ["2,0", "0,1"])
        rc = main(["direction", str(grads), "--method", "edm", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = read_json(tmp_path / "direction_report.json")
        assert np.allclose(report["normalized_direction"], [2 / 3, 2 / 3], atol=1e-10)
        assert report["gamma"] == pytest.approx(4 / 3)
        assert not report["stationary"]
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    def test_mgda_report(self, tmp_path):
        grads = tmp_path / "g.txt"
        write_grads(grads, ["2,0", "0,1"])
        rc = main(["direction", str(grads), "--method", "mgda", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = read_json(tmp_path / "direction_report.json")
        assert np.allclose(report["normalized_direction"], [0.4, 0.8], atol=1e-10)
        assert report["gamma"] is None

    def test_antipodal_is_stationary(self, tmp_path):
        grads = tmp_path / "g.txt"
        write_grads(grads, ["1,0", "-1,0"])
        rc = main(["direction", str(grads), "--method", "edm", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = read_json(tmp_path / "direction_report.json")
        assert report["stationary"]
        assert np.allclose(report["normalized_direction"], [0.0, 0.0], atol=1e-12)

    def test_malformed_file_is_data_error(self, tmp_path):
        grads = tmp_path / "g.txt"
        write_grads(grads, ["1,0", "abc,1"])
        assert main(["direction", str(grads), "--method", "edm"]) == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["direction", str(tmp_path / "none.txt"), "--method", "edm"]) == 2

    def test_empty_file_is_data_error(self, tmp_path):
        grads = tmp_path / "g.txt"
        grads.write_text("")
        assert main(["direction", str(grads), "--method", "edm"]) == 2


class TestSolveCommand:
    def test_quadratic_converges_to_segment(self, tmp_path):
        rc = main(
            ["solve", "--problem", "quadratic2", "--method", "edm", "--lr", "0.1",
             "--iters", "5000", "--seed", "0", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        summary = read_json(tmp_path / "summary_quadratic2_edm_0.json")
        assert summary["converged"]
        assert summary["segment_distance"] <= 1e-3
        assert (tmp_path / "trace_quadratic2_edm_0.csv").exists()

    def test_degenerate_tolerance_converges_immediately(self, tmp_path):
        rc = main(
            ["solve", "--problem", "quadratic2", "--method", "edm", "--eps", "1e30",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        summary = read_json(tmp_path / "summary_quadratic2_edm_0.json")
        assert summary["converged"]
        assert summary["iterations"] == 0

    def test_unknown_problem_is_usage_error(self, tmp_path):
        assert main(["solve", "--problem", "nope", "--out-dir", str(tmp_path)]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["solve", "--frobnicate", "1"]) == 1

    def test_weighted_sum_needs_weights_parsing(self, tmp_path):
        rc = main(
            ["solve", "--problem", "quadratic2", "--method", "weighted_sum",
             "--weights", "1,3", "--lr", "0.1", "--iters", "4000",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        summary = read_json(tmp_path / "summary_quadratic2_weighted_sum_0.json")
        expected = (np.array([-1.0, 0.0]) + 3 * np.array([1.0, 0.0])) / 4
        assert np.max(np.abs(np.array(summary["final_point"]) - expected)) <= 1e-3


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"problem": "quadratic10", "lr": 0.1, "iters": 3000}))
        rc = main(["solve", "--config", str(config), "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "summary_quadratic10_edm_0.json").exists()

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"problem": "quadratic10"}))
        rc = main(
            ["solve", "--config", str(config), "--problem", "quadratic2",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "summary_quadratic2_edm_0.json").exists()

    def test_unknown_config_field_named_in_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"learning": 0.1}))
        assert main(["solve", "--config", str(config)]) == 1
        assert "learning" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        assert main(["solve", "--config", str(config)]) == 1


class TestImbalancedCommand:
    def test_synthetic_run_writes_per_seed_files_and_aggregate(self, tmp_path):
        rc = main(
            ["imbalanced", "--method", "sgd", "--mu", "1", "--lr", "2e-5",
             "--epochs", "50", "--batches-per-epoch", "1",
             "--synthetic", "200,20,4,3.0", "--repeats", "2",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        for seed in (0, 1):
            summary = read_json(tmp_path / f"summary_imbalanced_sgd_{seed}.json")
            assert summary["mu"] == 1.0
            assert len(summary["per_class_accuracy"]) == 2
            assert (tmp_path / f"trace_imbalanced_sgd_{seed}.csv").exists()
        aggregate = read_json(tmp_path / "aggregate_imbalanced_sgd.json")
        assert len(aggregate["mean_accuracy"]) == 2
        assert len(aggregate["std_accuracy"]) == 2

    def test_csv_data_error_exit_code(self, tmp_path):
        rc = main(
            ["imbalanced", "--csv", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path)]
        )
        assert rc == 2

    def test_csv_path_works(self, tmp_path):
        from mograd.data import save_csv, synth_imbalanced

        ds = synth_imbalanced(120, 30, 3, 3.0, seed=5)
        csv_path = tmp_path / "ds.csv"
        save_csv(ds, csv_path)
        rc = main(
            ["imbalanced", "--csv", str(csv_path), "--method", "edm", "--lr", "1e-3",
             "--epochs", "30", "--batches-per-epoch", "1", "--out-dir", str(tmp_path)]
        )
        assert rc == 0

    def test_csv_is_loaded_once_per_run(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "ds.csv"
        save_csv(synth_imbalanced(60, 12, 3, 3.0, seed=5), csv_path)
        args = ["imbalanced", "--csv", str(csv_path), *TINY_IMBALANCED]
        for seed in range(3):  # one run per seed: the files as each seed wrote them alone
            assert main(args + ["--seed", str(seed), "--out-dir", str(tmp_path / "one")]) == 0
        loads, real_load = [], mograd.cli.load_csv

        def counted(*a, **kw):
            loads.append(a)
            return real_load(*a, **kw)

        monkeypatch.setattr(mograd.cli, "load_csv", counted)
        assert main(args + ["--repeats", "3", "--out-dir", str(tmp_path / "three")]) == 0
        assert len(loads) == 1
        names = [f"{kind}_imbalanced_edm_{seed}.{ext}" for seed in range(3)
                 for kind, ext in (("trace", "csv"), ("summary", "json"))]
        assert sorted(p.name for p in (tmp_path / "three").iterdir()) == sorted(
            names + ["aggregate_imbalanced_edm.json"])
        for name in names:
            one, three = (tmp_path / d / name for d in ("one", "three"))
            if name.endswith(".csv"):
                assert one.read_bytes() == three.read_bytes()
            else:
                assert {**read_json(one), "wall_time_ms": 0} == {
                    **read_json(three), "wall_time_ms": 0}

    def test_bad_mu_rejected(self, tmp_path):
        rc = main(["imbalanced", "--mu", "0", "--out-dir", str(tmp_path)])
        assert rc == 1


class TestMultitaskCommand:
    def test_kappa_run_writes_summaries(self, tmp_path):
        rc = main(
            ["multitask", "--method", "edm", "--kappa", "50", "--epochs", "2",
             "--n", "300", "--m", "4", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        summary = read_json(tmp_path / "summary_multitask_edm_k50_0.json")
        assert summary["kappa"] == 50.0
        assert len(summary["per_class_accuracy"]) == 2
        trace = (tmp_path / "trace_multitask_edm_k50_0.csv").read_text().splitlines()
        assert len(trace) == 3  # header + one row per epoch

    def test_kappa_below_one_rejected(self, tmp_path):
        assert main(["multitask", "--kappa", "0.5", "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_kappa_rejected(self, tmp_path, capsys, value):
        assert main(["multitask", "--kappa", value, "--out-dir", str(tmp_path)]) == 1
        assert f"kappa must be >= 1 and finite, got {value}" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        rc = main(
            ["multitask", "--method", "weighted_sum", "--lr", "1e12", "--epochs", "3",
             "--n", "200", "--m", "4", "--out-dir", str(tmp_path)]
        )
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


class TestNonFiniteSettings:
    @pytest.mark.parametrize("args, setting", [
        (["imbalanced", *TINY_IMBALANCED, "--mu", "nan"], "mu"),
        (["imbalanced", *TINY_IMBALANCED, "--mu", "inf"], "mu"),
        (["imbalanced", *TINY_IMBALANCED, "--lr", "nan"], "learning_rate"),
        (["imbalanced", *TINY_IMBALANCED, "--lr", "inf"], "learning_rate"),
        (["solve", "--iters", "5", "--eps", "nan"], "stop_tolerance"),
        (["solve", "--iters", "5", "--fw-tol", "inf"], "tolerance"),
    ])
    def test_non_finite_settings_are_usage_errors(self, tmp_path, capsys, args, setting):
        assert main(args + ["--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {setting} must be positive and finite, got {args[-1]}")

    def test_non_finite_weights_are_usage_errors(self, tmp_path, capsys):
        args = ["solve", "--method", "weighted_sum", "--weights", "1,nan", "--iters", "5"]
        assert main(args + ["--out-dir", str(tmp_path)]) == 1
        assert "weights must be a vector of finite" in capsys.readouterr().err


def subcommand_args(command, tmp_path):
    if command == "direction":
        grads = tmp_path / "g.txt"
        write_grads(grads, ["2,0", "0,1"])
        return ["direction", str(grads)]
    if command == "imbalanced":
        return ["imbalanced", *TINY_IMBALANCED]
    if command == "multitask":
        return ["multitask", *TINY_MULTITASK]
    return ["solve", "--iters", "5"]


class TestRepeats:
    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("command", ["solve", "imbalanced", "multitask"])
    def test_below_one_is_usage_error_without_output(self, tmp_path, capsys, command, value,
                                                      via):
        out = tmp_path / "out"
        args = subcommand_args(command, tmp_path)
        if via == "flag":
            args += ["--repeats", str(value)]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"repeats": value}))
            args += ["--config", str(config)]
        assert main(args + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: repeats must be >= 1, got {value}\n"
        assert not out.exists()


class TestErrorsLeaveNoOutput:
    @pytest.mark.parametrize("args, code", [
        (["imbalanced", *TINY_IMBALANCED, "--lr", "nan"], 1),
        (["imbalanced", *TINY_IMBALANCED, "--test-fraction", "2"], 1),
        (["imbalanced", *TINY_IMBALANCED, "--epochs", "-1"], 1),
        (["imbalanced", *TINY_IMBALANCED, "--batches-per-epoch", "0"], 1),
        (["imbalanced", "--csv", "missing.csv"], 2),
        (["multitask", *TINY_MULTITASK, "--batch-size", "0"], 1),
        (["multitask", *TINY_MULTITASK, "--test-fraction", "2"], 1),
        (["multitask", *TINY_MULTITASK, "--n", "0"], 1),
        (["multitask", *TINY_MULTITASK, "--kappa", "nan"], 1),
        (["solve", "--method", "weighted_sum", "--weights", "1,1,1", "--iters", "5"], 1),
    ])
    def test_error_exits_without_output(self, tmp_path, args, code):
        out = tmp_path / "out"
        assert main(args + ["--out-dir", str(out)]) == code
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--hidden", "0"], "layer width must be >= 1, got 0"),
        (["--hidden", "-1"], "layer width must be >= 1, got -1"),
        (["--synthetic", "60,12,3.9,3.0"], "--synthetic counts must be integers"),
        (["--synthetic", "60,12,inf,3.0"], "--synthetic counts must be integers"),
        (["--synthetic", "60,12,3,nan"], "separation must be finite, got nan"),
        (["--synthetic", "60,12,3,inf"], "separation must be finite, got inf"),
    ])
    def test_imbalanced_usage_errors(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["imbalanced", *TINY_IMBALANCED, *flags, "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_integral_synthetic_counts_in_float_notation_run(self, tmp_path):
        args = ["imbalanced", *TINY_IMBALANCED, "--synthetic", "6e1,12.0,3,3.0"]
        assert main(args + ["--out-dir", str(tmp_path)]) == 0


class TestStudyFrame:
    @pytest.mark.parametrize("args, name", [
        (["solve", "--iters", "5"], "quadratic2_edm"),
        (["imbalanced", *TINY_IMBALANCED], "imbalanced_edm"),
        (["multitask", *TINY_MULTITASK], "multitask_edm_k1"),
    ])
    def test_files_lines_and_seeds_per_repeat(self, tmp_path, capsys, args, name):
        assert main(args + ["--seed", "3", "--repeats", "2", "--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
            f"aggregate_{name}.json",
            f"summary_{name}_3.json", f"summary_{name}_4.json",
            f"trace_{name}_3.csv", f"trace_{name}_4.csv",
        ])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["seed 3", "seed 4"]
        assert read_json(tmp_path / f"aggregate_{name}.json")["seeds"] == [3, 4]


class TestMethodValidation:
    @pytest.mark.parametrize("command", ["direction", "solve", "imbalanced", "multitask"])
    def test_unknown_method_is_usage_error_without_output(self, tmp_path, command):
        out = tmp_path / "out"
        args = subcommand_args(command, tmp_path) + ["--method", "adam", "--out-dir", str(out)]
        assert main(args) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["direction", "imbalanced"])
    def test_weighted_sum_rejected(self, tmp_path, command):
        out = tmp_path / "out"
        args = subcommand_args(command, tmp_path)
        assert main(args + ["--method", "weighted_sum", "--out-dir", str(out)]) == 1
        assert not out.exists()


class TestLoopBindings:
    """The benchmark's tracer wraps the mograd.optimize attributes, so the
    CLI must reach the loops and the directions through them."""

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        original = getattr(mograd.optimize, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(mograd.optimize, name, wrapper)
        return calls

    def test_solve_calls_the_module_attributes(self, tmp_path, monkeypatch):
        loops = self.spy(monkeypatch, "run_edm")
        directions = self.spy(monkeypatch, "edm_direction")
        args = ["solve", "--method", "edm", "--iters", "5", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        assert loops == ["run_edm"]
        assert len(directions) >= 5

    @pytest.mark.parametrize("method, loop", [
        ("edm", "run_edm"), ("mgda", "run_mgda"), ("sgd", "run_weighted_sum")])
    def test_imbalanced_calls_the_module_loop(self, tmp_path, monkeypatch, method, loop):
        loops = self.spy(monkeypatch, loop)
        args = ["imbalanced", "--method", method, *TINY_IMBALANCED, "--out-dir", str(tmp_path)]
        assert main(args) == 0
        assert loops == [loop]

    @pytest.mark.parametrize("method", ["edm", "mgda"])
    @pytest.mark.parametrize("command, steps", [
        ("imbalanced", 4),  # 2 epochs of 2 batches
        ("multitask", 3),  # 1 epoch of the 150 training rows in batches of 64
    ])
    def test_training_steps_call_the_module_directions(
        self, tmp_path, monkeypatch, command, steps, method
    ):
        directions = self.spy(monkeypatch, f"{method}_direction")
        args = subcommand_args(command, tmp_path) + ["--method", method, "--out-dir", str(tmp_path)]
        assert main(args) == 0
        assert len(directions) == steps


class TestTrainImbalanced:
    @pytest.mark.parametrize("method", ["edm", "mgda", "sgd"])
    def test_returned_net_holds_the_final_point(self, method):
        ds = synth_imbalanced(60, 12, 3, 3.0, seed=2)
        net, result = train_imbalanced(ds, method, 2.0, 1e-3, 2, 3, seed=2, hidden=5)
        assert np.array_equal(net.flat, result.final_point)
        assert result.iterations_used == 6

    @pytest.mark.parametrize("mu", [-1.0, np.nan])
    def test_bad_minor_class_weight_is_rejected_before_any_step(self, mu, monkeypatch):
        steps = []
        monkeypatch.setattr(mograd.optimize, "_grouped_losses", lambda *args: steps.append(args))
        ds = synth_imbalanced(60, 12, 3, 3.0, seed=2)
        with pytest.raises(ValueError, match="weights must be a vector of finite"):
            train_imbalanced(ds, "sgd", mu, 1e-3, 2, 3, seed=2, hidden=5)
        assert steps == []


def multiclass_dataset(c, seed):
    """A c-class dataset with unequal class sizes and rows in shuffled order."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(c), [23, 9, 14, 7, 11][:c])
    rng.shuffle(labels)
    return Dataset(rng.standard_normal((labels.size, 3)), labels)


def old_epoch_batch_oracle(net, ds, batches_per_epoch, seed, epochs):
    """The oracle as it was: every batch of ``epochs + 1`` epochs in turn,
    each through the public, checked ``per_class_losses``; the loop's final
    call reads the first batch of the spare last epoch."""
    X, y = ds.features, ds.labels
    batch_iter = (
        idx for epoch in class_batches(ds, batches_per_epoch, seed, epochs + 1) for idx in epoch
    )

    def problem(theta):
        net.flat[:] = theta
        idx = next(batch_iter)
        return per_class_losses(net, X[idx], y[idx])

    return problem


def assert_same_bits(a, b):
    """Equal shape, dtype and bytes: unlike ``np.array_equal``, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestEpochBatchOracle:
    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_batches_and_results_match_the_old_oracle(self, c, monkeypatch):
        ds = multiclass_dataset(c, seed=c)
        batches_per_epoch, seed, epochs = 3, 40 + c, 2
        net = init_mlp([3, 6, c], c)
        old_net = init_mlp([3, 6, c], c)
        problem = _epoch_batch_oracle(net, ds, batches_per_epoch, seed, epochs)
        old_problem = old_epoch_batch_oracle(old_net, ds, batches_per_epoch, seed, epochs)
        batches = [idx for epoch in class_batches(ds, batches_per_epoch, seed, epochs)
                   for idx in epoch]

        seen = []

        def spy(net, X, class_plan):
            seen.append(X.copy())
            return core(net, X, class_plan)

        core = mograd.optimize._grouped_losses
        monkeypatch.setattr(mograd.optimize, "_grouped_losses", spy)
        rng = np.random.default_rng(c)
        for k in range(epochs * batches_per_epoch):
            theta = rng.standard_normal(net.n_params)
            losses, grads = problem(theta)
            old_losses, old_grads = old_problem(theta)
            assert_same_bits(seen[k], ds.features[batches[k]])
            assert_same_bits(losses, old_losses)
            assert_same_bits(grads, old_grads)
            assert_same_bits(net.flat, theta)

        # The schedule is spent: the next call evaluates every training row.
        theta = rng.standard_normal(net.n_params)
        losses, grads = problem(theta)
        assert_same_bits(net.flat, theta)
        for got, want in zip((losses, grads), per_class_losses(net, ds.features, ds.labels)):
            assert_same_bits(got, want)
        assert len(seen) == epochs * batches_per_epoch

    @pytest.mark.parametrize("c", [2, 3, 5])
    @pytest.mark.parametrize("method", ["edm", "mgda", "sgd"])
    def test_training_matches_the_old_oracle_bitwise(self, c, method, monkeypatch):
        ds = multiclass_dataset(c, seed=10 + c)
        args = (ds, method, 2.0, 1e-2, 3, 2)
        net, result = train_imbalanced(*args, seed=c, hidden=5)
        monkeypatch.setattr(mograd.optimize, "_epoch_batch_oracle", old_epoch_batch_oracle)
        old_net, old_result = train_imbalanced(*args, seed=c, hidden=5)
        assert_same_bits(result.final_point, old_result.final_point)
        assert_same_bits(net.flat, old_net.flat)
        assert result.iterations_used == old_result.iterations_used == 6
        for t, old in zip(result.trace, old_result.trace, strict=True):
            assert_same_bits(t.losses, old.losses)
            assert_same_bits(t.weights, old.weights)
            assert (t.direction_norm, t.gamma, t.step_norm) == (
                old.direction_norm, old.gamma, old.step_norm)

    @pytest.mark.parametrize("c", [2, 3, 5])
    @pytest.mark.parametrize("method", ["edm", "mgda", "sgd"])
    def test_stationarity_is_the_training_set_residual(self, c, method, monkeypatch):
        ds = multiclass_dataset(c, seed=20 + c)
        drawn = []

        def counted(*args, **kwargs):
            for epoch in class_batches(*args, **kwargs):
                drawn.append(epoch)
                yield epoch

        monkeypatch.setattr(mograd.optimize, "class_batches", counted)
        fw = FwConfig()
        net, result = train_imbalanced(ds, method, 2.0, 1e-2, 3, 2, seed=c, hidden=5, fw=fw)
        assert len(drawn) == 3
        final = MlpParams.from_flat(result.final_point, net.dims)
        _, grads = per_class_losses(final, ds.features, ds.labels)
        assert result.stationarity == stationarity_residual(grads, fw)[0]

    def test_class_missing_from_the_spec_is_rejected(self):
        ds = multiclass_dataset(3, seed=0)
        net = init_mlp([3, 4, 2], 0)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            _epoch_batch_oracle(net, ds, 2, 0, 1)


class TestWriteTrace:
    @staticmethod
    def reference_text(trace, n_losses):
        header = (["iter"] + [f"loss_{i}" for i in range(n_losses)] + ["dir_norm", "gamma"]
                  + [f"beta_{i}" for i in range(n_losses)] + ["step_norm"])
        lines = [",".join(header)]
        for t in trace:
            cells = [str(t.iteration)]
            cells += [repr(float(v)) for v in t.losses]
            cells.append(repr(float(t.direction_norm)))
            cells.append("" if t.gamma is None else repr(float(t.gamma)))
            cells += [repr(float(v)) for v in t.weights]
            cells.append(repr(float(t.step_norm)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("c", [2, 5])
    @pytest.mark.parametrize("with_gamma", [False, True])
    def test_text_matches_per_cell_repr(self, tmp_path, c, with_gamma):
        rng = np.random.default_rng(c + 10 * with_gamma)
        special = np.array([0.0, -0.0, 1.0, 0.1, 5e-324, 2.2250738585072014e-308, 1e300, -1e-5])

        def values(n):
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
            return np.where(rng.random(n) < 0.3, rng.choice(special, size=n), v)

        trace = [
            IterationTrace(
                k, values(c), float(values(1)[0]),
                float(values(1)[0]) if with_gamma else None,
                values(c), np.float64(values(1)[0]),
            )
            for k in range(40)
        ]
        path = tmp_path / "trace.csv"
        _write_trace(path, trace, c)
        assert path.read_text(encoding="utf-8") == self.reference_text(trace, c)


class TestDeterminism:
    def test_identical_runs_write_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["solve", "--problem", "quadratic2", "--method", "mgda", "--lr", "0.1",
                "--iters", "500", "--seed", "7"]
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        trace1 = (out1 / "trace_quadratic2_mgda_7.csv").read_bytes()
        trace2 = (out2 / "trace_quadratic2_mgda_7.csv").read_bytes()
        assert trace1 == trace2
        s1 = read_json(out1 / "summary_quadratic2_mgda_7.json")
        s2 = read_json(out2 / "summary_quadratic2_mgda_7.json")
        s1.pop("wall_time_ms")
        s2.pop("wall_time_ms")
        assert s1 == s2

    def test_multitask_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["multitask", "--method", "mgda", "--epochs", "2", "--n", "200",
                "--m", "4", "--seed", "11"]
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        name = "trace_multitask_mgda_k1_11.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestHelp:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_subcommand_required(self):
        assert main([]) == 1


def flag_args(settings):
    return [f for key, value in settings.items()
            for f in (f"--{key.replace('_', '-')}", str(value))]


def assert_same_outputs(a, b):
    """The same files: traces byte-identical, JSON equal except ``wall_time_ms``."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert any(name.startswith("trace_") for name in names)
    for name in names:
        if name.endswith(".csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        else:
            ja, jb = read_json(a / name), read_json(b / name)
            ja.pop("wall_time_ms", None)
            jb.pop("wall_time_ms", None)
            assert ja == jb


class TestOptionTable:
    # (subcommand, flag) pairs that no subcommand reads, so none accepts them
    UNREAD = [("direction", "lr", "0.1"), ("direction", "eps", "1e-6"),
              ("direction", "seed", "1"), ("direction", "repeats", "2"),
              ("imbalanced", "eps", "1e-6"), ("multitask", "eps", "1e-6")]

    @pytest.mark.parametrize("command, key, value", UNREAD)
    def test_unread_flag_is_usage_error_without_output(self, tmp_path, command, key, value):
        out = tmp_path / "out"
        args = subcommand_args(command, tmp_path) + [f"--{key}", value, "--out-dir", str(out)]
        assert main(args) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", UNREAD)
    def test_unread_config_field_is_rejected(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "out"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: float(value)}))
        args = subcommand_args(command, tmp_path) + ["--config", str(config),
                                                     "--out-dir", str(out)]
        assert main(args) == 1
        assert f"unknown config field {key!r} for {command}" in capsys.readouterr().err
        assert not out.exists()

    SHARED = {"--method", "--fw-tol", "--fw-max-iters", "--out-dir", "--config", "--help"}
    RUNS = {"--lr", "--seed", "--repeats"}

    @pytest.mark.parametrize("command, flags", [
        ("direction", SHARED),
        ("solve", SHARED | RUNS | {"--eps", "--problem", "--iters", "--weights"}),
        ("imbalanced", SHARED | RUNS | {"--mu", "--csv", "--label-column", "--synthetic",
                                        "--test-fraction", "--batches-per-epoch", "--hidden",
                                        "--epochs"}),
        ("multitask", SHARED | RUNS | {"--kappa", "--epochs", "--n", "--m", "--test-fraction",
                                       "--batch-size"}),
    ])
    def test_help_lists_exactly_the_options_read(self, capsys, command, flags):
        assert main([command, "--help"]) == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == flags

    @pytest.mark.parametrize("as_strings", [False, True])
    @pytest.mark.parametrize("command, settings", [
        ("solve", {"problem": "quadratic10", "method": "mgda", "lr": 0.05, "eps": 1e-7,
                   "iters": 30, "seed": 4, "repeats": 2, "fw_tol": 1e-11, "fw_max_iters": 50}),
        ("solve", {"method": "weighted_sum", "weights": "1,3", "lr": 0.2, "iters": 12}),
        ("imbalanced", {"method": "edm", "mu": 2.5, "lr": 0.002, "epochs": 2,
                        "batches_per_epoch": 2, "synthetic": "60,12,3,3.0", "hidden": 5,
                        "test_fraction": 0.25, "seed": 1, "fw_tol": 1e-10}),
        ("multitask", {"method": "mgda", "kappa": 2.5, "epochs": 2, "n": 200, "m": 4,
                       "test_fraction": 0.3, "batch_size": 50, "lr": 0.02, "seed": 3,
                       "repeats": 2, "fw_max_iters": 40}),
    ])
    def test_config_runs_like_the_same_flags(self, tmp_path, capsys, command, settings,
                                             as_strings):
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        assert main([command, *flag_args(settings), "--out-dir", str(by_flags)]) == 0
        config = tmp_path / "cfg.json"
        values = {k: str(v) for k, v in settings.items()} if as_strings else settings
        config.write_text(json.dumps(values))
        assert main([command, "--config", str(config), "--out-dir", str(by_config)]) == 0
        assert_same_outputs(by_flags, by_config)

    @pytest.mark.parametrize("key, value, shown", [
        ("iters", 2.9, "2.9"), ("iters", 3.0, "3.0"), ("repeats", True, "True"),
        ("iters", "2.9", "'2.9'"), ("lr", True, "True"), ("lr", "fast", "'fast'"),
    ])
    def test_config_value_coerced_like_flag_text(self, tmp_path, capsys, key, value, shown):
        out = tmp_path / "out"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        assert main(["solve", "--config", str(config), "--out-dir", str(out)]) == 1
        assert f"config field {key!r} has invalid value {shown}" in capsys.readouterr().err
        assert not out.exists()
        # the same text as a flag is rejected too
        assert main(["solve", f"--{key}", str(value), "--out-dir", str(out)]) == 1
        assert not out.exists()

    def test_null_config_value_keeps_the_default(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"lr": None, "seed": None, "iters": 3}))
        assert main(["solve", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "summary_quadratic2_edm_0.json")
        assert summary["iterations"] == 3
