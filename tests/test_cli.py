import json

import pytest

from sparseball.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "n": 3,
        "a": [1.0, -2.0, 0.5],
        "c": [0.5, -0.25, 0.1],
        "zfam": {"kind": "free"},
    }))
    return path


@pytest.fixture
def robust_file(tmp_path):
    code = main(["gen", "--n", "6", "--k", "2", "--b", "4.0", "--seed", "11",
                 "--out", str(tmp_path / "robust.json")])
    assert code == EXIT_OK
    return tmp_path / "robust.json"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSolve:
    def test_bruteforce(self, capsys, problem_file):
        code, out = _run(capsys, ["solve", "--instance", str(problem_file)])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["method"] == "bruteforce"
        assert len(payload["z"]) == 3
        assert payload["value"] <= 0.0

    def test_sort_requires_card_eq(self, capsys, problem_file):
        code, _ = _run(capsys, ["solve", "--instance", str(problem_file), "--method", "sort"])
        assert code == EXIT_USAGE

    def test_sort(self, capsys, tmp_path):
        path = tmp_path / "sortable.json"
        path.write_text(json.dumps({
            "n": 3, "a": [3.0, 1.0, 2.0], "c": [0.0, 0.0, 0.0],
            "zfam": {"kind": "card_eq", "k": 1},
        }))
        code, out = _run(capsys, ["solve", "--instance", str(path), "--method", "sort"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["z"] == [1.0, 0.0, 0.0]
        assert payload["value"] == -3.0

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _ = _run(capsys, ["solve", "--instance", str(tmp_path / "nope.json")])
        assert code == EXIT_IO

    def test_nan_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "a": [NaN], "c": [0], "zfam": {"kind": "free"}}')
        code, _ = _run(capsys, ["solve", "--instance", str(path)])
        assert code == EXIT_IO


class TestCuts:
    def test_violated_point(self, capsys):
        code, out = _run(capsys, [
            "cuts", "--point", '{"x": [0.5, 0.5], "z": [0.0, 0.0]}',
            "--alpha", "[1.0, 1.0]", "--mode", "exact",
        ])
        assert code == EXIT_OK
        cuts = json.loads(out)
        assert cuts, "expected at least one violated cut"
        assert cuts[0]["violation"] >= cuts[-1]["violation"]
        assert set(cuts[0]) == {"pi_abs", "rho_z", "rhs", "violation"}

    def test_feasible_point_yields_empty_list(self, capsys):
        code, out = _run(capsys, [
            "cuts", "--point", '{"x": [0.5, 0.0], "z": [1.0, 0.0]}',
            "--alpha", "[1.0, 1.0]", "--mode", "exact",
        ])
        assert code == EXIT_OK
        assert json.loads(out) == []

    def test_dimension_mismatch_is_usage(self, capsys):
        code, _ = _run(capsys, [
            "cuts", "--point", '{"x": [0.5], "z": [0.0]}', "--alpha", "[1.0, 1.0]",
        ])
        assert code == EXIT_USAGE

    def test_exact_mode_past_the_guard_is_usage(self, capsys):
        n = 17
        code = main([
            "cuts", "--point", json.dumps({"x": [0.1] * n, "z": [0.5] * n}),
            "--alpha", json.dumps([1.0] * n), "--mode", "exact",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "n <= 16" in captured.err

    def test_top_limits_output(self, capsys):
        code, out = _run(capsys, [
            "cuts", "--point", '{"x": [0.9, 0.9], "z": [0.0, 0.1]}',
            "--alpha", "[1.0, 2.0]", "--mode", "exact", "--top", "1",
        ])
        assert code == EXIT_OK
        assert len(json.loads(out)) == 1


class TestRobust:
    def test_solves_and_reports(self, capsys, robust_file):
        code, out = _run(capsys, ["robust", "--method", "perspective",
                                  "--instance", str(robust_file)])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {"y", "objective", "worst_case", "nominal_value", "iterations"}
        assert abs(sum(payload["y"]) - 1.0) < 1e-9
        assert payload["worst_case"] >= payload["nominal_value"]

    def test_iteration_cap_is_solver_failure(self, capsys, robust_file):
        code, _ = _run(capsys, ["robust", "--method", "perspective",
                                "--instance", str(robust_file), "--max-iter", "50"])
        assert code == EXIT_SOLVER

    def test_bad_method_is_usage(self, capsys, robust_file):
        code, _ = _run(capsys, ["robust", "--method", "psychic",
                                "--instance", str(robust_file)])
        assert code == EXIT_USAGE


class TestGenEval:
    def test_gen_writes_valid_instance(self, robust_file):
        payload = json.loads(robust_file.read_text())
        assert payload["n"] == 6 and payload["k"] == 2 and payload["b"] == 4.0
        assert all(0.0 <= v <= 1.0 for v in payload["a_tilde"])

    def test_gen_stdout(self, capsys):
        code, out = _run(capsys, ["gen", "--n", "3", "--k", "1", "--b", "1.0", "--seed", "5"])
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 3

    def test_eval(self, capsys, robust_file):
        y = [1.0 / 6] * 6
        code, out = _run(capsys, ["eval", "--instance", str(robust_file), "--y", json.dumps(y)])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["worst_case"] >= payload["nominal_value"]

    def test_eval_dimension_mismatch(self, capsys, robust_file):
        code, _ = _run(capsys, ["eval", "--instance", str(robust_file), "--y", "[1.0]"])
        assert code == EXIT_USAGE


class TestExperiment:
    def test_small_grid(self, capsys, tmp_path):
        config = {
            "n": 10, "k_list": [2], "b_list": [1.0], "instances_per_cell": 1,
            "seed": 3, "record_wall_time": False,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, out = _run(capsys, ["experiment", "--config", str(config_path),
                                  "--out", str(out_dir)])
        assert code == EXIT_OK
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "metadata.json").exists()
        assert (out_dir / "cell_k2_b1.svg").exists()
        assert "wrote 4 records" in out


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["solve", "--wat"]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["transcend"]) == EXIT_USAGE
