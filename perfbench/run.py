"""Run one workload of the sparseball benchmark and print its metrics.

    python3 perfbench/run.py --workload portfolio_grid --seed 1 --seconds 30 --trace 0

Workloads: portfolio_grid, discrete_exact, hull_oracles (see README.md
beside this file).  The package is imported from the ``src`` directory next
to this one and from nowhere else; without it the run fails before printing
a result.

With ``--trace 0`` the run sets up the workload, then runs ops for
``--seconds`` (and at least one full cycle of the op mix) and reports the
end-to-end metrics.  Their times are scaled to a reference machine speed by
a speed probe timed before and after each timed step; the wall-clock
figures are printed beside them.  With ``--trace 1`` it runs each op twice,
back to back, untraced and traced, alternating which goes first.  Then it
sweeps the layers the workload does not call with one small cycle of each
other workload, and reports the per-layer metrics and the tracing overhead.

Every metric is printed as ``name value unit``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The full record (metadata, metrics and, when traced, the spans) is
written to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
IMPORT_REPS = 5
# The speed probe: fixed interpreter and small-numpy work, the kind the
# package does, timed outside the steps it calibrates.  PROBE_REF_S is its
# time on an idle core of a 2-vCPU Intel Xeon virtual machine with Python
# 3.11 and numpy 2.4.  A step's reference time is its wall time times
# PROBE_REF_S over the mean of the probe times just before and after it.
PROBE_REF_S = 1.3e-3
PROBE_LOOP = 15000
PROBE_CALLS = 150
PROBE_N = 200
KINDS = ("free", "card_le", "card_eq")
METHODS = ("nominal", "budgeted", "ellipsoidal", "perspective")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"robust.solve_counterpart_ms.{m}": "ms" for m in METHODS},
    **{f"robust.iterations.{m}": "count" for m in METHODS[1:]},
    **{f"robust.{name}_us": "us" for name in (
        "perspective_value", "top_k_sq_sum", "project_simplex", "budgeted_value",
        "ellipsoidal_value", "worst_case", "optimal_multipliers")},
    "harness.generate_instance_ms": "ms",
    **{f"core.enumerate_Z_ms.{k}": "ms" for k in KINDS},
    "core.enumerate_Z.rows": "count",
    **{f"discrete.solve_discrete_bruteforce_ms.{k}": "ms" for k in KINDS},
    "discrete.solve_discrete_sort_us": "us",
    "discrete.peak_alloc_mb": "MB",
    "discrete.supports_per_s": "1/s",
    **{f"hull.solve_relaxation_ms.{k}": "ms" for k in KINDS},
    **{f"hull.solve_relaxation_tail_ms.{k}": "ms" for k in KINDS},
    "hull.relaxation.fractional_share": "ratio",
    "hull.relaxation.unconverged_share": "ratio",
    "hull.separate_submodular_ms.heuristic": "ms",
    "hull.separate_submodular_ms.exact": "ms",
    "hull.separate.violated_share": "ratio",
    "hull.perspective_membership_us": "us",
    "hull.find_violating_alpha_us": "us",
    "tracing_overhead_pct": "%",
}


class SpeedProbe:
    """Tracks the machine's speed with the speed probe, and scales the wall
    time of each step measured between two probes to reference speed."""

    def __init__(self):
        import numpy as np

        self.vector = np.random.default_rng(0).normal(size=PROBE_N)
        self.run()  # the first run pays for numpy's lazy set-up
        self.last = self.run()

    def run(self) -> float:
        """Run the probe once on its fixed vector; return its wall time."""
        import numpy as np

        vector = self.vector
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        for _ in range(PROBE_CALLS):
            np.sort(vector)
            vector.sum()
            np.maximum(vector, 0.0)
        return time.perf_counter() - start

    def scale(self, seconds: float) -> float:
        """Run the probe again and return ``seconds``, the wall time of the
        step since the previous probe, at reference speed."""
        before, self.last = self.last, self.run()
        return seconds * PROBE_REF_S / (0.5 * (before + self.last))


def import_package() -> float:
    """Import numpy, then sparseball from ROOT/src, then the benchmark modules.

    Returns the median time, at reference speed, of importing sparseball,
    which is imported afresh IMPORT_REPS times; numpy, a dependency, is not
    counted.  Fails if sparseball resolves anywhere but ROOT/src."""
    src = ROOT / "src"
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy  # noqa: F401

    probe = SpeedProbe()
    times = []
    for _ in range(IMPORT_REPS):
        for name in [m for m in sys.modules if m == "sparseball" or m.startswith("sparseball.")]:
            del sys.modules[name]
        start = time.perf_counter()
        sparseball = importlib.import_module("sparseball")
        times.append(probe.scale(time.perf_counter() - start))
    if Path(sparseball.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"sparseball was imported from {sparseball.__file__}, not {src}")
    import workloads  # noqa: F401

    return sorted(times)[len(times) // 2]


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas, "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python_threads": threading.active_count(), "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the repository the benchmark sits in, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(cls, sizes: dict, seed: int, tracer, reps: int, label: str, probe: SpeedProbe):
    """Build the workload ``reps`` times (inputs from the seed, then one
    warm-up op); return the last build and the time of each at reference
    speed."""
    from spans import Tracer

    times = []
    for _ in range(reps):
        start = time.perf_counter()
        wl = cls(sizes)
        tracer.op = label
        wl.setup(seed, tracer)
        wl.run(wl.schedule[0], Tracer(False))
        times.append(probe.scale(time.perf_counter() - start))
    return wl, times


def run_op(wl, op, tracer):
    """Run one op, timing only the op itself, then check its output."""
    from workloads import Record

    begin = time.perf_counter()
    try:
        out = wl.run(op, tracer)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        return Record(op, None, time.perf_counter() - begin, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - begin
    try:
        error = wl.check(op, out)
    except Exception as exc:  # an output the check cannot read is wrong
        error = f"check raised {type(exc).__name__}: {exc}"
    return Record(op, out, elapsed, error)


def measure(wl, seconds: float, tracers, label: str, probe: SpeedProbe) -> list:
    """Closed loop: run ops one after another until ``seconds`` have passed
    and at least one full cycle is done.  Each op runs once under each
    tracer, back to back and alternating which goes first, so that runs under
    different tracers see the same ops at nearly the same time.  The speed
    probe runs after every op and sets the record's ``ref_seconds``.  Returns
    one record list per tracer."""
    runs = [[] for _ in tracers]
    start = time.perf_counter()
    probe.scale(0.0)
    i = 0
    while i < wl.cycle_len or time.perf_counter() - start < seconds:
        op = wl.schedule[i % len(wl.schedule)]
        pairs = list(zip(tracers, runs))
        for tracer, records in pairs if i % 2 == 0 else pairs[::-1]:
            tracer.op = f"{label}:{i}"
            record = run_op(wl, op, tracer)
            record.ref_seconds = probe.scale(record.seconds)
            records.append(record)
        i += 1
    return runs


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer metrics derivable from the spans of ``ops`` ops; a metric
    whose layer has no span here is left out."""
    from spans import duration, median, tail

    groups = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        groups[s["name"], s["tag"]].append(s)
        named[s["name"]].append(s)
    out = {}

    def put(metric, values, scale=1.0, stat=median):
        if values:
            out[metric] = scale * stat(values)

    def times(name, tag=""):
        return [duration(s) for s in groups[name, tag]]

    def p_tail(values):
        return tail(values)[0]

    def share(values):
        return sum(values) / len(values)

    for m in METHODS:
        put(f"robust.solve_counterpart_ms.{m}", times("robust.solve_counterpart", m), 1e3)
    for m in METHODS[1:]:
        put(f"robust.iterations.{m}",
            [s["info"]["iterations"] for s in groups["robust.solve_counterpart", m]])
    put("harness.generate_instance_ms", times("harness.generate_instance"), 1e3)
    for k in KINDS:
        put(f"core.enumerate_Z_ms.{k}", times("core.enumerate_Z", k), 1e3)
        put(f"discrete.solve_discrete_bruteforce_ms.{k}",
            times("discrete.solve_discrete_bruteforce", k), 1e3)
        put(f"hull.solve_relaxation_ms.{k}", times("hull.solve_relaxation", k), 1e3)
        put(f"hull.solve_relaxation_tail_ms.{k}", times("hull.solve_relaxation", k), 1e3, p_tail)
    if named["core.enumerate_Z"]:
        out["core.enumerate_Z.rows"] = sum(s["info"]["rows"] for s in named["core.enumerate_Z"]) / ops
    put("discrete.solve_discrete_sort_us", times("discrete.solve_discrete_sort"), 1e6)
    put("discrete.supports_per_s", [s["info"]["supports"] / duration(s)
                                    for s in named["discrete.solve_discrete_bruteforce"]])
    put("hull.relaxation.fractional_share",
        [s["info"]["fractional"] > 0 for s in named["hull.solve_relaxation"]], stat=share)
    put("hull.relaxation.unconverged_share",
        [not s["info"]["converged"] for s in named["hull.solve_relaxation"]], stat=share)
    for mode in ("heuristic", "exact"):
        put(f"hull.separate_submodular_ms.{mode}", times("hull.separate_submodular", mode), 1e3)
    put("hull.separate.violated_share",
        [s["info"]["violated"] for s in named["hull.separate_submodular"]], stat=share)
    put("hull.perspective_membership_us", times("hull.perspective_membership"), 1e6)
    put("hull.find_violating_alpha_us", times("hull.find_violating_alpha"), 1e6)
    return out


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes: str = "full", import_s: float = 0.0,
                  out_dir: Path = ROOT / ".perfbench") -> dict:
    """Run one workload, print its metrics and return the result object.

    ``sizes`` is "full" for the benchmark, or "tiny" for a quick run of the
    same code at small sizes."""
    from spans import Tracer, median, self_time_by_layer, tail, traced_enumeration
    from workloads import WORKLOADS, DiscreteExact, PortfolioGrid

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[workload]
    tiny = sizes == "tiny"
    meta = metadata(workload, seed, seconds, trace)
    tracer = Tracer(trace)
    untraced = Tracer(False)
    probe = SpeedProbe()
    wl, setup_times = set_up(cls, cls.TINY if tiny else cls.FULL, seed, tracer,
                             SETUP_REPS, "setup", probe)
    notes = {}
    extra = {}  # printed beside the declared metrics: name -> (value, unit, note)

    if not trace:
        names = END_TO_END
        [own] = measure(wl, seconds, [untraced], "op", probe)
        home = every = own
        op_times = [r.ref_seconds for r in own]
        tail_ms, tail_pct, tail_count = tail([1e3 * t for t in op_times])
        metrics = {
            "setup_s": import_s + median(setup_times),
            "ops_per_s": len(own) / sum(op_times),
            "op_ms_p50": 1e3 * median(op_times),
            "op_ms_tail": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes["op_ms_tail"] = f"p{tail_pct:.2f} of {tail_count} ops"
        wall = [r.seconds for r in own]
        extra["wall.ops_per_s"] = (len(own) / sum(wall), "1/s", "")
        extra["wall.op_ms_p50"] = (1e3 * median(wall), "ms", "")
        extra["wall.op_ms_tail"] = (tail([1e3 * t for t in wall])[0], "ms", "")
        extra["probe_speed"] = (median([r.ref_seconds / r.seconds for r in own]), "ratio",
                                "reference speed is 1")
    else:
        names = PER_LAYER
        with traced_enumeration(tracer):
            plain, own = measure(wl, seconds, [untraced, tracer], "op", probe)
            swept = {}
            for name, other in WORKLOADS.items():
                if other is not cls:
                    small, _ = set_up(other, other.TINY if tiny else other.PROBE, seed,
                                      tracer, 1, "sweep:setup", probe)
                    [swept[name]] = measure(small, 0.0, [tracer], "sweep", probe)
        home = plain + own
        every = home + [r for rs in swept.values() for r in rs]
        own_spans = [s for s in tracer.spans if s["op"] == "setup" or s["op"].startswith("op:")]
        sweep_spans = [s for s in tracer.spans if s["op"].startswith("sweep")]
        metrics = layer_metrics(own_spans, len(own))
        for name, value in layer_metrics(sweep_spans, sum(map(len, swept.values()))).items():
            metrics.setdefault(name, value)
        by_workload = {**swept, workload: own}
        metrics.update(PortfolioGrid.oracle_micro_us(by_workload["portfolio_grid"]))
        metrics["discrete.peak_alloc_mb"] = DiscreteExact.peak_alloc_mb(by_workload["discrete_exact"])
        traced_s = sum(r.seconds for r in own)
        untraced_s = sum(r.seconds for r in plain)
        metrics["tracing_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
        extra["ops_per_s.untraced"] = (len(plain) / untraced_s, "1/s", "")
        extra["ops_per_s.traced"] = (len(own) / traced_s, "1/s", "")
        measured = [s for s in own_spans if s["op"].startswith("op:")]
        for layer, busy in sorted(self_time_by_layer(measured).items()):
            extra[f"self_ms_per_op.{layer}"] = (1e3 * busy / len(own), "ms", "")

    missing = sorted(set(names) - set(metrics))
    bad = sorted(n for n, v in metrics.items() if not math.isfinite(v))
    if missing or bad:
        raise RuntimeError(f"metrics missing {missing} or not finite {bad}")

    failed = [r for r in every if r.error is not None]
    extra["failed_frac"] = (len(failed) / len(every), "ratio", f"{len(failed)} of {len(every)} ops")
    quality = wl.summary(home)
    for name, (value, unit) in quality.items():
        extra[name] = (value, unit, "")
    gate = wl.gate(quality)
    report = {name: (metrics[name], unit, notes.get(name, "")) for name, unit in names.items()}
    report.update(extra)

    print(f"# perfbench {json.dumps(meta, sort_keys=True)}")
    for name, (value, unit, note) in report.items():
        print(f"{name:<42} {value:<14.6g} {unit:<6} {note}".rstrip())
    for r in failed[:10]:
        print(f"# failed {r.op.kind} op: {r.error}")
    if gate:
        print(f"# gate: {gate}")
    result = {
        "correct": not failed and gate is None,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": names[name]} for name in names},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "result": result,
              "report": {n: {"value": v, "unit": u, "note": note}
                         for n, (v, u, note) in report.items()},
              "errors": [f"{r.op.kind}: {r.error}" for r in failed],
              "spans": tracer.spans}
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, default=str))
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_s = import_package()
    run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
