import json

import numpy as np
import pytest

import mograd.optimize
from mograd.cli import main, train_imbalanced
from mograd.data import synth_imbalanced


def read_json(path):
    return json.loads(path.read_text())


def write_grads(path, lines):
    path.write_text("\n".join(lines) + "\n")


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

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        rc = main(
            ["multitask", "--method", "weighted_sum", "--lr", "1e12", "--epochs", "3",
             "--n", "200", "--m", "4", "--out-dir", str(tmp_path)]
        )
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


TINY_IMBALANCED = ["--epochs", "2", "--batches-per-epoch", "2", "--synthetic", "60,12,3,3.0",
                   "--hidden", "5"]


def subcommand_args(command, tmp_path):
    if command == "direction":
        grads = tmp_path / "g.txt"
        write_grads(grads, ["2,0", "0,1"])
        return ["direction", str(grads)]
    if command == "imbalanced":
        return ["imbalanced", *TINY_IMBALANCED]
    if command == "multitask":
        return ["multitask", "--epochs", "1", "--n", "200", "--m", "4"]
    return ["solve", "--iters", "5"]


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

    def test_imbalanced_sgd_calls_run_weighted_sum(self, tmp_path, monkeypatch):
        loops = self.spy(monkeypatch, "run_weighted_sum")
        args = ["imbalanced", "--method", "sgd", *TINY_IMBALANCED, "--out-dir", str(tmp_path)]
        assert main(args) == 0
        assert loops == ["run_weighted_sum"]


class TestTrainImbalanced:
    @pytest.mark.parametrize("method", ["edm", "mgda", "sgd"])
    def test_returned_net_holds_the_final_point(self, method):
        ds = synth_imbalanced(60, 12, 3, 3.0, seed=2)
        net, result = train_imbalanced(ds, method, 2.0, 1e-3, 2, 3, seed=2, hidden=5)
        assert np.array_equal(net.flat, result.final_point)
        assert result.iterations_used == 6


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
