"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/tests -q

A tiny run of each workload must print every declared metric with its unit,
and a deliberately wrong answer must be counted as failed, not passed.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

from sparseball import discrete, hull, robust  # noqa: E402
from sparseball.core import SolverError  # noqa: E402

import spans  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# answer-quality figures each workload prints beside its timings
QUALITY = {
    "portfolio_grid": ("worst_case_mean", "perspective_win_frac"),
    "discrete_exact": ("relax_tight_share", "relax_loose_share", "relax_fractional_share"),
    "hull_oracles": ("relax_gap_mean",),
}

# wall-clock figures printed beside the reference-speed end-to-end metrics
WALL = {"wall.ops_per_s": "1/s", "wall.op_ms_p50": "ms", "wall.op_ms_tail": "ms",
        "probe_speed": "ratio"}


def run_tiny(capsys, tmp_path, workload, trace=False):
    result = run.run_benchmark(workload, seed=7, seconds=0.05, trace=trace, sizes="tiny",
                               out_dir=tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, _value, unit = line.split()[:3]
            printed[name] = unit
    return result, printed


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert set(WORKLOADS) == set(QUALITY)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(capsys, tmp_path, workload, trace):
    result, printed = run_tiny(capsys, tmp_path, workload, trace)
    declared = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert {name: printed[name] for name in declared} == declared
    assert printed["failed_frac"] == "ratio"
    assert all(name in printed for name in QUALITY[workload])
    if not trace:
        assert {name: printed[name] for name in WALL} == WALL
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert (tmp_path / f"{workload}-seed7-trace{int(trace)}.json").is_file()


def test_perturbed_portfolio_is_counted_failed(capsys, tmp_path, monkeypatch):
    solve = robust.solve_counterpart

    def perturbed(method, inst, *args, **kwargs):
        res = solve(method, inst, *args, **kwargs)
        # still on the simplex, but no longer the point the objective was computed at
        return dataclasses.replace(res, y_star=robust.PortfolioPoint(np.roll(res.y_star.y, 1)))

    monkeypatch.setattr(robust, "solve_counterpart", perturbed)
    result, printed = run_tiny(capsys, tmp_path, "portfolio_grid")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_wrong_support_is_counted_failed(capsys, tmp_path, monkeypatch):
    solve = discrete.solve_discrete_bruteforce

    def wrong_support(inst):
        sol = solve(inst)
        z = sol.z_opt.copy()
        z[0] = 1.0 - z[0]
        return dataclasses.replace(sol, z_opt=z)

    monkeypatch.setattr(discrete, "solve_discrete_bruteforce", wrong_support)
    result, _ = run_tiny(capsys, tmp_path, "discrete_exact")
    assert not result["correct"]
    # the sort ops fail too: their brute-force reference was rejected
    assert result["failed"] == result["attempted"]


def test_unviolated_cut_is_counted_failed(capsys, tmp_path, monkeypatch):
    def slack_cut(p, alpha, mode="heuristic", tol=None):
        return hull.LinearCut(np.zeros(p.n), np.zeros(p.n), 1.0)

    monkeypatch.setattr(hull, "separate_submodular", slack_cut)
    result, _ = run_tiny(capsys, tmp_path, "hull_oracles")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_capped_relaxation_is_cut_at_its_best_iterate(capsys, tmp_path, monkeypatch):
    solve = hull.solve_relaxation

    def capped(inst, *args, **kwargs):
        res = solve(inst, *args, **kwargs)
        if inst.zfam.kind == "free":
            return res
        raise SolverError("capped", best=res.z_bar, best_value=res.value, gap=0.0)

    monkeypatch.setattr(hull, "solve_relaxation", capped)
    result, _ = run_tiny(capsys, tmp_path, "hull_oracles", trace=True)
    assert result["correct"]
    record = json.loads((tmp_path / "hull_oracles-seed7-trace1.json").read_text())
    kinds = [s["tag"] for s in record["spans"]
             if s["name"] == "hull.solve_relaxation" and s["op"].startswith("op:")]
    capped_share = sum(kind != "free" for kind in kinds) / len(kinds)
    assert 0.0 < capped_share < 1.0
    assert result["metrics"]["hull.relaxation.unconverged_share"]["value"] == pytest.approx(capped_share)


def test_speed_probe_scales_by_the_probes_around_the_step(monkeypatch):
    probe = run.SpeedProbe()
    readings = iter([2 * run.PROBE_REF_S, 4 * run.PROBE_REF_S])
    monkeypatch.setattr(probe, "run", lambda: next(readings))
    probe.scale(0.0)
    # the step ran between probes of 2 and 4 reference times: at a third of full speed
    assert probe.scale(3.0) == pytest.approx(1.0)


def test_tail_is_the_sample_with_ten_beyond_it():
    assert spans.tail(range(1, 101)) == (90.0, 90.0, 100)
    assert spans.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_excludes_children():
    tracer = spans.Tracer(True)
    tracer.op = "op:0"
    with tracer.span("discrete.solve"):
        with tracer.span("core.enumerate_Z"):
            pass
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"]
    layers = spans.self_time_by_layer(tracer.spans)
    assert layers["discrete"] == pytest.approx(spans.duration(outer) - spans.duration(inner))
    assert layers["core"] == pytest.approx(spans.duration(inner))
