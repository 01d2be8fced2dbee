#!/usr/bin/env python3
"""Benchmark a parent commit against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD --workload portfolio_grid \\
        --seeds 901-910 --out BENCH_9.json

For each seed it runs ``python3 perfbench/run.py --trace 0`` for the
run_seconds of BENCHMARK.json once in a temporary export of the parent
commit and once in the working tree; pair i runs the parent first when i
is even.  It writes (or updates, one workload at a time) a BENCH json at
the repository root: per end-to-end metric of BENCHMARK.json the two
medians, their IQR over median, how many pairs the change wins and whether
the medians differ by more than the parent's IQR; each metric's verdict
under its bound (better, within_bound, worse, or unresolved when the
parent's own runs spread wider than the bound); each side's median count
of attempted ops, against which a peak_rss_mb move is read, and its median
peak_rss_mb per 1000 attempted ops; the least-squares slope of peak_rss_mb on
attempted ops over all runs, in KB per extra op, and its intercept in MB;
each side's correct runs and failed ops; every run's metrics, correctness and failed
ops; and the machine data that perfbench records.  It prints the verdicts
with each side's op count, RSS per 1000 ops, the RSS slope and intercept,
correct runs and failed ops under them, and
exits 1, after writing the file, when any run was incorrect or had a
failed op.  When the file was measured against the same parent commit,
the new pairs join the workload's recorded ones and the summary covers
them all; a seed already recorded there is an error before anything runs.
Against a different parent the workload's entry is replaced.  The parent
is exported with ``git archive``, so the run leaves nothing behind in the
repository's git metadata.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu_affinity", "cpu_model", "python", "numpy", "blas", "threads")
# build paths are left out of the BLAS entry
BLAS_KEYS = ("name", "version", "openblas configuration")
EXTRA_KEYS = ("perspective_win_frac", "failed_frac")


def parse_seeds(text: str) -> list:
    """Seeds from "901-910", "901,905" or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def resolve(rev: str) -> str:
    """The full hash of commit rev."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """Write the tree of commit sha into dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One untraced perfbench run in tree: (its metrics and extras, machine data)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    out = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 2 and fields[0] in EXTRA_KEYS:
            out[fields[0]] = float(fields[1])
    out.update(correct=result["correct"], failed=result["failed"],
               attempted=result["attempted"], wall_s=round(wall, 1))
    record = tree / ".perfbench" / f"{workload}-seed{seed}-trace0.json"
    machine = {key: json.loads(record.read_text())["meta"][key] for key in MACHINE_KEYS}
    if isinstance(machine["blas"], dict):
        machine["blas"] = {key: value for key, value in machine["blas"].items() if key in BLAS_KEYS}
    return out, machine


def iqr(values) -> float:
    q1, q3 = np.percentile(values, [25, 75])
    return float(q3 - q1)


def verdict(parent, change, better: str, bound: float) -> str:
    """How the change's runs of one metric compare with the parent's.

    "unresolved" when the parent's IQR over its median exceeds the bound
    and not every change run beats every parent run; else "better" when
    every change run beats every parent run, or the change wins at least
    nine tenths of the pairs (ties count for neither) and the medians
    differ by more than the parent's IQR; else "worse" when the change's
    median is worse than the parent's by more than the bound, relative to
    the parent's median; else "within_bound".
    """
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    every_run = all(sign * (c - p) > 0.0 for c in change for p in parent)
    if iqr(parent) / p_med > bound and not every_run:
        return "unresolved"
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    if every_run or (wins >= 0.9 * len(parent) and sign * (c_med - p_med) > iqr(parent)):
        return "better"
    if sign * (c_med - p_med) < -bound * p_med:
        return "worse"
    return "within_bound"


def summarize(pairs, metrics, bounds=None) -> dict:
    """Per metric (name -> "higher" or "lower" is better): medians, spreads
    and wins, plus the verdict under the metric's regression bound when
    bounds (name -> bound) gives one."""
    out = {}
    for name, better in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
        out[name] = {
            "better": better,
            "parent_median": p_med,
            "change_median": c_med,
            "ratio_change_over_parent": c_med / p_med,
            "parent_iqr_over_median": iqr(parent) / p_med,
            "change_iqr_over_median": iqr(change) / c_med,
            "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > iqr(parent),
            "change_wins": f"{wins}/{len(pairs)}",
        }
        if bounds and name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["verdict"] = verdict(parent, change, better, bounds[name])
    return out


def rss_per_kop(pairs) -> dict:
    """Each side's median peak_rss_mb per 1000 attempted ops.  perfbench keeps
    every op's output, so a side that runs more ops peaks higher; this ratio
    tells an RSS move that follows the op count from one that does not."""
    return {side: statistics.median(1000.0 * p[side]["peak_rss_mb"] / p[side]["attempted"]
                                    for p in pairs)
            for side in ("parent", "change")}


def rss_slope(pairs) -> dict:
    """The least-squares line of peak_rss_mb on attempted ops over every run
    of both sides: its slope in KB per op (peak_rss_mb is ru_maxrss / 1024,
    so 1024 KB to the MB) and its intercept in MB, the RSS a run holds
    before its ops add to it.  Both are None when every run attempted as
    many ops, since no line then fits."""
    ops = np.array([p[side]["attempted"] for p in pairs for side in ("parent", "change")], dtype=float)
    rss = np.array([p[side]["peak_rss_mb"] for p in pairs for side in ("parent", "change")])
    dx = ops - ops.mean()
    spread = float(dx @ dx)
    if spread == 0.0:
        return {"kb_per_op": None, "intercept_mb": None}
    slope = float(dx @ (rss - rss.mean())) / spread
    return {"kb_per_op": 1024.0 * slope, "intercept_mb": float(rss.mean()) - slope * float(ops.mean())}


def prior_pairs(bench: dict, sha: str, workload: str, seeds) -> list:
    """The recorded pairs that new pairs of workload join in bench, a BENCH
    file's contents: the workload's pairs when bench was measured against
    the parent commit sha, else none, so that the entry is replaced.  A seed
    already among them is a ValueError."""
    entry = bench.get("workloads", {}).get(workload)
    if entry is None or bench.get("parent") != sha:
        return []
    repeated = sorted(set(seeds) & {pair["seed"] for pair in entry["pairs"]})
    if repeated:
        raise ValueError(f"{workload} already has pairs for seeds {repeated} against parent {sha}")
    return list(entry["pairs"])


def workload_entry(pairs, metrics, seconds: float, machine, bounds=None) -> dict:
    """A BENCH file's entry for one workload, summarized over all its pairs."""
    return {
        "seeds": [pair["seed"] for pair in pairs],
        "order": "alternating; pair i of each batch runs the parent first when i is even",
        "run_seconds": seconds,
        "all_correct": all(p[side]["correct"] for p in pairs for side in ("parent", "change")),
        "correct_runs": {side: sum(bool(p[side]["correct"]) for p in pairs)
                         for side in ("parent", "change")},
        "failed_ops": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
        # perfbench keeps every op's output, so peak_rss_mb moves with the op count
        "attempted_median": {side: statistics.median(p[side]["attempted"] for p in pairs)
                             for side in ("parent", "change")},
        "rss_mb_per_kop": rss_per_kop(pairs),
        "rss_slope": rss_slope(pairs),
        "metrics": summarize(pairs, metrics, bounds),
        "machine": machine,
        "pairs": pairs,
    }


def summary_lines(entry) -> list:
    """The printed summary of a workload entry: one verdict line per metric,
    then each side's median count of attempted ops, against which a
    peak_rss_mb move is read, its peak_rss_mb per 1000 ops, the RSS slope
    per op and its intercept (when the runs' op counts differ), its correct
    runs and its failed ops."""
    lines = [f"{name:<12} parent {m['parent_median']:.6g}  change {m['change_median']:.6g}  "
             f"ratio {m['ratio_change_over_parent']:.3f}  wins {m['change_wins']}  "
             f"gap>IQR {m['median_gap_exceeds_parent_iqr']}  {m['verdict']}"
             for name, m in entry["metrics"].items()]
    attempted, correct, failed = entry["attempted_median"], entry["correct_runs"], entry["failed_ops"]
    rss = entry["rss_mb_per_kop"]
    runs = len(entry["pairs"])
    lines.append(f"{'attempted':<12} parent {attempted['parent']:.6g}  "
                 f"change {attempted['change']:.6g}")
    lines.append(f"{'rss_per_kop':<12} parent {rss['parent']:.4g}  change {rss['change']:.4g}")
    slope = entry["rss_slope"]
    if slope["kb_per_op"] is not None:
        lines.append(f"{'rss_slope':<12} {slope['kb_per_op']:.3g} KB/op  "
                     f"intercept {slope['intercept_mb']:.3g} MB")
    lines.append(f"{'correct':<12} parent {correct['parent']}/{runs}  change {correct['change']}/{runs}")
    lines.append(f"{'failed_ops':<12} parent {failed['parent']}  change {failed['change']}")
    return lines


def clean(entry) -> bool:
    """Whether every run of a workload entry was correct with no failed op."""
    return entry["all_correct"] and not any(entry["failed_ops"].values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "901-910"')
    parser.add_argument("--out", required=True, type=Path, help="BENCH json to write or update")
    parser.add_argument("--change", default=None, help="one-line description of the change")
    parser.add_argument("--claim", nargs=2, metavar=("METRIC", "PREDICTED"), default=None,
                        help="claimed metric of this workload and the predicted move")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out_path = args.out if args.out.is_absolute() else ROOT / args.out
    bench = json.loads(out_path.read_text()) if out_path.exists() else {}
    sha = resolve(args.parent)
    try:
        pairs = prior_pairs(bench, sha, args.workload, args.seeds)
    except ValueError as exc:
        parser.error(str(exc))

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export(sha, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        machine = None
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], machine = run_once(trees[side], args.workload, seed, seconds)
                print(f"seed {seed} {side}: " + " ".join(
                    f"{name} {pair[side][name]:.6g}" for name in metrics), flush=True)
            pairs.append(pair)

    if args.change is not None:
        bench["change"] = args.change
    if args.claim is not None:
        bench["claim"] = {"workload": args.workload, "metric": args.claim[0],
                          "predicted": args.claim[1]}
    bench["run"] = ("python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                    f"{seconds:g} --trace 0, in an export of the parent and in the working tree")
    bench["parent"] = sha
    bench.setdefault("workloads", {})[args.workload] = workload_entry(pairs, metrics, seconds,
                                                                      machine, bounds)
    out_path.write_text(json.dumps(bench, indent=2) + "\n")
    entry = bench["workloads"][args.workload]
    print("\n".join(summary_lines(entry)))
    return 0 if clean(entry) else 1


if __name__ == "__main__":
    sys.exit(main())
