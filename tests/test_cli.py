import json

import numpy as np
import pytest

from sparseball import robust
from sparseball.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main
from sparseball.core import DEFAULT_TOL, MixedPoint
from sparseball.hull import submodular_cut_1, submodular_cut_2

import oracles


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

    @pytest.mark.parametrize("alpha, message", [
        ('{"a": 1}', "alpha must be an array of real numbers"),
        ("[[1.0]]", "alpha must be one-dimensional"),
    ])
    def test_malformed_alpha_is_input_error(self, capsys, alpha, message):
        code = main(["cuts", "--point", '{"x": [0.5], "z": [0]}', "--alpha", alpha])
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and message in captured.err

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

    def test_top_zero_emits_nothing(self, capsys):
        code, out = _run(capsys, [
            "cuts", "--point", '{"x": [0.9, 0.9], "z": [0.0, 0.1]}',
            "--alpha", "[1.0, 2.0]", "--mode", "exact", "--top", "0",
        ])
        assert code == EXIT_OK
        assert json.loads(out) == []

    def test_negative_top_is_usage(self, capsys):
        code = main([
            "cuts", "--point", '{"x": [0.9, 0.9], "z": [0.0, 0.1]}',
            "--alpha", "[1.0, 2.0]", "--mode", "exact", "--top", "-1",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "--top" in captured.err

    @pytest.mark.parametrize("mode", ["heuristic", "exact"])
    def test_emits_the_oracle_violated_set_in_order(self, capsys, mode):
        rng = np.random.default_rng(17)
        for n in (1, 3, 6):
            x = np.round(rng.normal(size=n), 1)
            z = np.round(rng.uniform(size=n), 1)
            alpha = np.round(rng.normal(size=n))
            code, out = _run(capsys, [
                "cuts", "--point", json.dumps({"x": x.tolist(), "z": z.tolist()}),
                "--alpha", json.dumps(alpha.tolist()), "--mode", mode,
            ])
            assert code == EXIT_OK
            cuts = json.loads(out)
            p = MixedPoint(x, z)
            if mode == "heuristic":
                subsets = oracles.prefix_sets(z.tolist())
            else:
                subsets = [np.flatnonzero(m) for m in oracles.family_members("free", n)]
            reference = oracles.cut_violations(p, alpha, subsets)
            violated = []
            for row, family in zip(*np.nonzero(reference > DEFAULT_TOL.feas_abs)):
                make = (submodular_cut_1, submodular_cut_2)[family]
                violated.append(make(subsets[row], alpha))
            expected_cuts = sorted((tuple(c.pi_abs.tolist()), tuple(c.rho_z.tolist()), c.rhs)
                                   for c in violated)
            assert sorted((tuple(e["pi_abs"]), tuple(e["rho_z"]), e["rhs"]) for e in cuts) == expected_cuts
            emitted = sorted(e["violation"] for e in cuts)
            expected = np.sort(reference[reference > DEFAULT_TOL.feas_abs])
            assert np.allclose(emitted, expected, rtol=1e-12, atol=1e-12)
            assert all(a["violation"] >= b["violation"] for a, b in zip(cuts, cuts[1:]))
            for e in cuts:
                lhs = np.abs(x) @ np.array(e["pi_abs"]) + z @ np.array(e["rho_z"])
                assert lhs - e["rhs"] == pytest.approx(e["violation"], rel=1e-12, abs=1e-12)


class TestRobust:
    def test_solves_and_reports(self, capsys, robust_file):
        code, out = _run(capsys, ["robust", "--method", "perspective",
                                  "--instance", str(robust_file)])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {"y", "objective", "worst_case", "nominal_value", "iterations"}
        assert abs(sum(payload["y"]) - 1.0) < 1e-9
        assert payload["worst_case"] >= payload["nominal_value"]

    def test_iteration_cap_is_solver_failure(self, capsys, robust_file, monkeypatch):
        monkeypatch.setattr(robust, "_MAX_ITER", 50)
        code, _ = _run(capsys, ["robust", "--method", "perspective",
                                "--instance", str(robust_file)])
        assert code == EXIT_SOLVER

    @pytest.mark.parametrize("flags", [["--max-iter", "50"], ["--tol", "1e-3"]])
    def test_solver_flags_are_gone(self, capsys, robust_file, flags):
        code = main(["robust", "--method", "perspective", "--instance", str(robust_file), *flags])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

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

    def test_eval_accepts_an_object_with_y(self, capsys, robust_file):
        y = [1.0 / 6] * 6
        _, plain = _run(capsys, ["eval", "--instance", str(robust_file), "--y", json.dumps(y)])
        code, wrapped = _run(capsys, ["eval", "--instance", str(robust_file),
                                      "--y", json.dumps({"y": y})])
        assert code == EXIT_OK and wrapped == plain

    @pytest.mark.parametrize("y, message", [
        ('{"w": [1, 0, 0, 0, 0, 0]}', "y must be a JSON array or an object with a 'y' array"),
        ('{"y": {"a": 1}}', "y must be an array of real numbers"),
        ("[[0.5, 0.5, 0], [0, 0, 0]]", "y must be one-dimensional"),
        ('[0.5, "x", 0, 0, 0, 0.5]', "y must be an array of real numbers"),
        ("[-1, 2, 0, 0, 0, 0]", "y must be nonnegative"),
        ("[5, 5, 0, 0, 0, 0]", "y must sum to one"),
    ])
    def test_malformed_y_is_input_error(self, capsys, robust_file, y, message):
        code = main(["eval", "--instance", str(robust_file), "--y", y])
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and message in captured.err


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

    @pytest.mark.parametrize("extra, message", [
        ({"solver": {"max_iter": 10}}, "counterpart solver settings were removed"),
        ({"k_lsit": [2]}, "unknown experiment config key 'k_lsit'"),
        ({"methods": ["nominal", "nominal"]}, "methods must not repeat an entry"),
    ])
    def test_bad_config_is_input_error(self, capsys, tmp_path, extra, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": 10, "k_list": [2], "b_list": [1.0],
                                           "instances_per_cell": 1, **extra}))
        code = main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert "Traceback" not in captured.err
        assert captured.err.startswith("input error: ") and message in captured.err
        assert not (tmp_path / "out").exists()

    def test_failed_solves_exit_2_and_keep_the_rest(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(robust, "_MAX_ITER", 10)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": 10, "k_list": [2], "b_list": [1.0],
                                           "instances_per_cell": 2, "record_wall_time": False}))
        out_dir = tmp_path / "out"
        code, out = _run(capsys, ["experiment", "--config", str(config_path),
                                  "--out", str(out_dir)])
        assert code == EXIT_SOLVER
        assert "wrote 2 records" in out and "6 solves failed" in out
        rows = (out_dir / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["nominal", "nominal"]
        failures = json.loads((out_dir / "metadata.json").read_text())["failures"]
        assert sorted(f["method"] for f in failures) == sorted(["budgeted", "ellipsoidal",
                                                                "perspective"] * 2)

    def test_every_solve_failing_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(robust, "_MAX_ITER", 10)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": 10, "k_list": [2], "b_list": [1.0],
                                           "instances_per_cell": 1, "methods": ["perspective"]}))
        code = main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_SOLVER
        assert "every solve in the grid failed" in captured.err


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["solve", "--wat"]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["transcend"]) == EXIT_USAGE
