"""The pure helpers of scripts/bench_pairs.py, which writes the BENCH files."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_parse_seeds_reads_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("901-903,905") == [901, 902, 903, 905]
    assert bench_pairs.parse_seeds("7") == [7]


def _pairs(**metrics):
    """Pairs from {name: (parent values, change values)}."""
    count = len(next(iter(metrics.values()))[0])
    return [{"parent": {name: p[i] for name, (p, _) in metrics.items()},
             "change": {name: c[i] for name, (_, c) in metrics.items()}} for i in range(count)]


def test_summarize_counts_wins_by_direction_and_ignores_ties():
    pairs = _pairs(ops=([10.0, 10.0, 10.0, 12.0], [11.0, 10.0, 9.0, 13.0]),
                   ms=([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 2.5, 3.0]))
    out = bench_pairs.summarize(pairs, {"ops": "higher", "ms": "lower"})
    # a tie (the second pair of each) counts for neither side
    assert out["ops"]["change_wins"] == "2/4"
    assert out["ms"]["change_wins"] == "3/4"
    assert out["ops"]["better"] == "higher" and out["ms"]["better"] == "lower"
    assert (out["ms"]["parent_median"], out["ms"]["change_median"]) == (2.5, 2.25)
    assert out["ms"]["ratio_change_over_parent"] == pytest.approx(0.9, abs=0.0)
    # parent quartiles of 1, 2, 3, 4 are 1.75 and 3.25
    assert out["ms"]["parent_iqr_over_median"] == pytest.approx(1.5 / 2.5, abs=0.0)
    assert out["ms"]["median_gap_exceeds_parent_iqr"] is False
    # a gap of 0.5 equal to the parent IQR (10 to 10.5) does not exceed it
    assert (out["ops"]["parent_median"], out["ops"]["change_median"]) == (10.0, 10.5)
    assert out["ops"]["median_gap_exceeds_parent_iqr"] is False


def test_summarize_flags_a_gap_past_the_parent_spread():
    pairs = _pairs(mb=([40.0, 40.0, 40.0], [41.0, 41.0, 40.5]))
    out = bench_pairs.summarize(pairs, {"mb": "lower"})["mb"]
    assert out["median_gap_exceeds_parent_iqr"] is True
    assert out["change_wins"] == "0/3"
    assert out["parent_iqr_over_median"] == 0.0
    assert out["ratio_change_over_parent"] == pytest.approx(41.0 / 40.0, abs=0.0)


def _bench(parent, seeds):
    pairs = [{"seed": seed, "first": "parent",
              "parent": {"ms": 2.0, "peak_rss_mb": 40.0, "correct": True, "failed": 0, "attempted": 100},
              "change": {"ms": 1.0, "peak_rss_mb": 40.0, "correct": True, "failed": 1, "attempted": 200}}
             for seed in seeds]
    return {"parent": parent, "workloads": {"grid": {"seeds": list(seeds), "pairs": pairs}}}


def test_new_pairs_join_the_entry_measured_against_the_same_parent():
    bench = _bench("abc", [1, 2])
    prior = bench_pairs.prior_pairs(bench, "abc", "grid", [3])
    assert [pair["seed"] for pair in prior] == [1, 2]
    new = {"seed": 3, "first": "change",
           "parent": {"ms": 4.0, "peak_rss_mb": 40.0, "correct": True, "failed": 0, "attempted": 100},
           "change": {"ms": 1.0, "peak_rss_mb": 40.0, "correct": False, "failed": 0, "attempted": 200}}
    entry = bench_pairs.workload_entry(prior + [new], {"ms": "lower"}, 30, {"nproc": 2})
    assert entry["seeds"] == [1, 2, 3]
    assert entry["pairs"][:2] == bench["workloads"]["grid"]["pairs"]
    # the summary covers every pair, the recorded ones too
    assert entry["metrics"]["ms"]["parent_median"] == 2.0
    assert entry["metrics"]["ms"]["change_wins"] == "3/3"
    assert entry["failed_ops"] == {"parent": 0, "change": 2}
    assert entry["all_correct"] is False


def test_a_recorded_seed_is_an_error_and_another_parent_replaces_the_entry():
    bench = _bench("abc", [1, 2])
    with pytest.raises(ValueError, match=r"seeds \[2\]"):
        bench_pairs.prior_pairs(bench, "abc", "grid", [2, 3])
    assert bench_pairs.prior_pairs(bench, "def", "grid", [2, 3]) == []
    assert bench_pairs.prior_pairs(bench, "abc", "hull", [1]) == []
    assert bench_pairs.prior_pairs({}, "abc", "grid", [1]) == []


@pytest.mark.parametrize("parent, change, better, expected", [
    # the parent's runs spread wider than the bound (IQR 10 on a median of 15)
    ([10.0, 20.0, 10.0, 20.0], [12.0, 12.0, 12.0, 12.0], "lower", "unresolved"),
    # ... unless every change run beats every parent run
    ([10.0, 20.0, 10.0, 20.0], [9.0, 9.5, 9.0, 9.5], "lower", "better"),
    # 9 of 10 pairs won and a median gap past the parent's IQR
    ([10.0] * 10, [9.0] * 9 + [11.0], "lower", "better"),
    # 8 of 10 pairs are not enough, and the medians are equal
    ([10.0] * 10, [9.0] * 8 + [11.0] * 2, "lower", "within_bound"),
    ([10.0] * 4, [12.0] * 4, "lower", "within_bound"),
    ([10.0] * 4, [13.0] * 4, "lower", "worse"),
    ([100.0] * 4, [80.0] * 4, "higher", "within_bound"),
    ([100.0] * 4, [70.0] * 4, "higher", "worse"),
    ([100.0, 101.0, 100.0, 101.0], [102.0, 103.0, 102.0, 103.0], "higher", "better"),
])
def test_verdict_reads_the_bound_and_the_parent_spread(parent, change, better, expected):
    assert bench_pairs.verdict(parent, change, better, 0.25) == expected


def test_summarize_gives_a_verdict_for_each_bounded_metric():
    pairs = _pairs(ms=([10.0, 10.0, 10.0], [13.0, 13.0, 13.0]),
                   mb=([40.0, 40.0, 40.0], [41.0, 41.0, 41.0]))
    out = bench_pairs.summarize(pairs, {"ms": "lower", "mb": "lower"}, {"ms": 0.25, "mb": 0.1})
    assert (out["ms"]["verdict"], out["ms"]["bound"]) == ("worse", 0.25)
    assert (out["mb"]["verdict"], out["mb"]["bound"]) == ("within_bound", 0.1)
    assert "verdict" not in bench_pairs.summarize(pairs, {"ms": "lower"})["ms"]


def test_workload_entry_records_each_sides_median_op_count():
    # a peak_rss_mb move is read against the op count, since perfbench keeps
    # every op's output
    pairs = _pairs(peak_rss_mb=([40.0, 40.0, 40.0], [44.0, 44.0, 44.0]))
    for seed, pair, (p_ops, c_ops) in zip([1, 2, 3], pairs, [(300, 700), (310, 650), (290, 720)]):
        pair["seed"] = seed
        pair["parent"].update(attempted=p_ops, correct=True, failed=0)
        pair["change"].update(attempted=c_ops, correct=True, failed=0)
    entry = bench_pairs.workload_entry(pairs, {"peak_rss_mb": "lower"}, 30, {"nproc": 2})
    assert entry["attempted_median"] == {"parent": 300, "change": 700}


def test_summary_prints_each_sides_op_count_under_the_verdicts():
    pairs = _pairs(peak_rss_mb=([40.0, 40.0, 40.0], [44.0, 44.0, 44.0]))
    for pair, (p_ops, c_ops) in zip(pairs, [(300, 700), (310, 650), (290, 720)]):
        pair["seed"] = p_ops
        pair["parent"].update(attempted=p_ops, correct=True, failed=0)
        pair["change"].update(attempted=c_ops, correct=True, failed=0)
    entry = bench_pairs.workload_entry(pairs, {"peak_rss_mb": "lower"}, 30, {"nproc": 2},
                                       {"peak_rss_mb": 0.1})
    verdict_line, attempted_line = bench_pairs.summary_lines(entry)[:2]
    assert verdict_line.startswith("peak_rss_mb ") and verdict_line.endswith("within_bound")
    assert attempted_line.split() == ["attempted", "parent", "300", "change", "700"]


def test_rss_per_1000_ops_tells_an_op_count_move_from_a_change():
    # the change peaks 10% higher on twice the ops: less RSS per 1000 ops
    pairs = _pairs(peak_rss_mb=([40.0, 42.0, 41.0], [44.0, 46.0, 45.0]))
    for seed, pair, (p_ops, c_ops) in zip([1, 2, 3], pairs, [(2000, 4000), (2100, 4000), (2000, 4500)]):
        pair["seed"] = seed
        pair["parent"].update(attempted=p_ops, correct=True, failed=0)
        pair["change"].update(attempted=c_ops, correct=True, failed=0)
    entry = bench_pairs.workload_entry(pairs, {"peak_rss_mb": "lower"}, 30, {"nproc": 2},
                                       {"peak_rss_mb": 0.1})
    assert entry["rss_mb_per_kop"] == {"parent": 20.0, "change": 11.0}
    assert bench_pairs.summary_lines(entry)[2].split() == ["rss_per_kop", "parent", "20", "change", "11"]


def test_rss_slope_reads_kb_per_extra_op_and_the_base():
    # 1 KB per op over a 40 MB base; rss_per_kop divides the base in too
    pairs = _pairs(peak_rss_mb=([41.0, 42.0, 43.0], [42.0, 44.0, 46.0]))
    for seed, pair, (p_ops, c_ops) in zip([1, 2, 3], pairs, [(1024, 2048), (2048, 4096), (3072, 6144)]):
        pair["seed"] = seed
        pair["parent"].update(attempted=p_ops, correct=True, failed=0)
        pair["change"].update(attempted=c_ops, correct=True, failed=0)
    entry = bench_pairs.workload_entry(pairs, {"peak_rss_mb": "lower"}, 30, {"nproc": 2},
                                       {"peak_rss_mb": 0.1})
    assert entry["rss_slope"] == {"kb_per_op": pytest.approx(1.0, rel=1e-12, abs=0.0),
                                  "intercept_mb": pytest.approx(40.0, rel=1e-12, abs=0.0)}
    assert bench_pairs.summary_lines(entry)[3].split() == ["rss_slope", "1", "KB/op", "intercept", "40", "MB"]
    # with one op count for every run no line fits, and none is printed
    for pair in pairs:
        pair["parent"]["attempted"] = pair["change"]["attempted"] = 100
    entry = bench_pairs.workload_entry(pairs, {"peak_rss_mb": "lower"}, 30, {"nproc": 2},
                                       {"peak_rss_mb": 0.1})
    assert entry["rss_slope"] == {"kb_per_op": None, "intercept_mb": None}
    assert not any(line.startswith("rss_slope") for line in bench_pairs.summary_lines(entry))


def _fake_run(failed_side):
    """A run_once stand-in whose failed_side runs have one failed op."""
    def run_once(tree, workload, seed, seconds):
        side = "parent" if tree != bench_pairs.ROOT else "change"
        metrics = {"setup_s": 1.0, "ops_per_s": 10.0, "op_ms_p50": 1.0, "op_ms_tail": 2.0,
                   "peak_rss_mb": 40.0}
        return {**metrics, "correct": True, "failed": int(side == failed_side),
                "attempted": 100, "wall_s": 1.0}, {"nproc": 2}
    return run_once


@pytest.mark.parametrize("failed_side, code", [(None, 0), ("change", 1), ("parent", 1)])
def test_prints_correct_runs_and_failed_ops_and_exits_1_on_a_failed_op(
        monkeypatch, tmp_path, capsys, failed_side, code):
    monkeypatch.setattr(bench_pairs, "resolve", lambda rev: "abc")
    monkeypatch.setattr(bench_pairs, "export", lambda sha, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run(failed_side))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--workload", "grid", "--seeds", "1-2", "--out", str(out)]
    assert bench_pairs.main(argv) == code
    # the file is written either way
    entry = json.loads(out.read_text())["workloads"]["grid"]
    assert entry["correct_runs"] == {"parent": 2, "change": 2}
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split() == ["correct", "parent", "2/2", "change", "2/2"]
    failed = {side: 2 * (side == failed_side) for side in ("parent", "change")}
    assert lines[-1].split() == ["failed_ops", "parent", str(failed["parent"]),
                                 "change", str(failed["change"])]


def test_an_incorrect_run_is_not_clean():
    pairs = _pairs(ms=([1.0, 1.0], [1.0, 1.0]), peak_rss_mb=([40.0, 40.0], [40.0, 40.0]))
    for seed, pair, correct in zip((1, 2), pairs, (True, False)):
        pair["seed"] = seed
        pair["parent"].update(correct=True, failed=0, attempted=10)
        pair["change"].update(correct=correct, failed=0, attempted=10)
    entry = bench_pairs.workload_entry(pairs, {"ms": "lower"}, 30, {"nproc": 2})
    assert entry["correct_runs"] == {"parent": 2, "change": 1}
    assert not bench_pairs.clean(entry)
    pairs[1]["change"]["correct"] = True
    assert bench_pairs.clean(bench_pairs.workload_entry(pairs, {"ms": "lower"}, 30, {"nproc": 2}))
