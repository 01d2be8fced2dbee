"""The benchmark's three workloads.

Each workload builds a schedule of ops from the seed during set-up, runs one
op at a time (a closed loop with one caller), and checks every op's output.
Sizes come from a dict so that the same code runs the full workload, the
small probe used by the traced run's sweep, and the tiny one the tests use.

- ``portfolio_grid``: the paper's robust-portfolio grid.  Loads ``robust``.
- ``discrete_exact``: exact brute-force and sort solves.  Loads ``discrete``
  and ``core.enumerate_Z``.
- ``hull_oracles``: one cutting-plane round per op.  Loads ``hull``, and
  ``core.enumerate_Z`` small and often through exact separation.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from sparseball import core, discrete, harness, hull, robust

from spans import median, per_call_seconds

# relative tolerance for values the package computes twice by the same formula
SAME_FORMULA_RTOL = 1e-9
# relative tolerance of the certificate identity, as in acceptance criterion C8
CERTIFICATE_RTOL = 1e-8
# C10: perspective wins when its worst case is within this of the best baseline
WIN_SLACK = 1e-9
# C10 gate on the share of instances perspective wins
WIN_GATE = 0.9


def _close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * max(1.0, abs(reference))


@dataclass(frozen=True)
class Op:
    """One call the closed loop makes.  ``kind`` is the method, the family
    or the separation mode; ``key`` identifies the instance."""

    kind: str
    inst: object
    key: object


@dataclass
class Record:
    """One run of an op: its output, its wall time and, once the run loop
    has timed the speed probe on both sides of it, that time scaled to the
    reference machine speed (``ref_seconds``)."""

    op: Op
    out: object
    seconds: float
    error: str | None
    ref_seconds: float = math.nan


@dataclass(frozen=True)
class Relaxation:
    """``solve_relaxation``'s answer, or its best iterate when Frank-Wolfe
    stops at the iteration cap (``converged`` False).  ``lower`` is a valid
    lower bound on the relaxed optimum either way: the value itself, or the
    best value minus its linearization gap, since the objective is convex."""

    z_bar: np.ndarray
    value: float
    lower: float
    rounded_value: float
    fractional_count: int
    converged: bool


def relax(inst) -> Relaxation:
    """Solve the relaxation as a cutting-plane loop would: a capped
    Frank-Wolfe solve still yields a point to cut at and a bound."""
    try:
        r = hull.solve_relaxation(inst)
    except core.SolverError as exc:
        z = np.asarray(exc.best, dtype=float)
        fractional = int(np.sum(np.minimum(z, 1.0 - z) > hull.FRACTIONAL_EPS))
        return Relaxation(z, exc.best_value, exc.best_value - exc.gap, math.inf, fractional, False)
    return Relaxation(r.z_bar, r.value, r.value, r.rounded_value, r.fractional_count, True)


class PortfolioGrid:
    """Robust counterparts on the paper's (k, b) grid at n = 200.

    One op is ``solve_counterpart`` plus ``worst_case`` of its solution.
    Cells run in a Latin-square order, so every run of three consecutive
    cells covers each k and each b once, and a run that stops mid-cycle still
    samples the grid evenly.
    """

    name = "portfolio_grid"
    FULL = {"n": 200, "instances": 4,
            "cells": ((5, 5.0), (10, 10.0), (20, 20.0), (5, 10.0), (10, 20.0),
                      (20, 5.0), (5, 20.0), (10, 5.0), (20, 10.0))}
    PROBE = {"n": 200, "instances": 1, "cells": ((10, 10.0),)}
    TINY = {"n": 8, "instances": 1, "cells": ((2, 1.0), (3, 2.0))}

    def __init__(self, sizes: dict):
        self.sizes = sizes

    def setup(self, seed: int, tracer) -> None:
        cells = self.sizes["cells"]
        k_list = sorted({k for k, _ in cells})
        b_list = sorted({b for _, b in cells})
        self.schedule = []
        for i in range(self.sizes["instances"]):
            for k, b in cells:
                inst_seed = harness.instance_seed(seed, k_list.index(k), b_list.index(b), i)
                with tracer.span("harness.generate_instance"):
                    inst = harness.generate_instance(self.sizes["n"], k, b, inst_seed)
                self.schedule.extend(Op(m, inst, (k, b, i)) for m in robust.METHODS)
        self.cycle_len = len(cells) * len(robust.METHODS)

    def run(self, op: Op, tracer):
        with tracer.span("robust.solve_counterpart", op.kind) as info:
            res = robust.solve_counterpart(op.kind, op.inst)
            info["iterations"] = res.iterations
        with tracer.span("robust.worst_case"):
            wc = robust.worst_case(res.y_star, op.inst)
        return res, wc

    def check(self, op: Op, out):
        res, wc = out
        y = np.asarray(res.y_star.y, dtype=float)
        if np.any(y < 0.0) or abs(float(y.sum()) - 1.0) > core.DEFAULT_TOL.feas_abs:
            return "y is not on the simplex"
        if not _close(res.objective, robust.method_value(op.kind, y, op.inst), SAME_FORMULA_RTOL):
            return "objective differs from method_value at y"
        if op.kind == "perspective":
            cert = robust.optimal_multipliers(y, op.inst)
            if not _close(robust.certificate_objective(cert, y, op.inst), res.objective,
                          CERTIFICATE_RTOL):
                return "certificate objective differs from the objective (C8)"
        if not math.isfinite(wc):
            return "worst case is not finite"
        return None

    def summary(self, records) -> dict:
        worst = {}
        for r in records:
            if r.error is None:
                worst.setdefault(r.op.key, {})[r.op.kind] = r.out[1]
        persp = [w["perspective"] for w in worst.values() if "perspective" in w]
        compared = [w for w in worst.values()
                    if {"perspective", "budgeted", "ellipsoidal"} <= w.keys()]
        wins = sum(w["perspective"] <= min(w["budgeted"], w["ellipsoidal"]) + WIN_SLACK
                   for w in compared)
        return {
            "worst_case_mean": (float(np.mean(persp)) if persp else math.nan, "cost"),
            "perspective_win_frac": (wins / len(compared) if compared else math.nan, "ratio"),
        }

    def gate(self, summary: dict):
        win = summary["perspective_win_frac"][0]
        if not win >= WIN_GATE:
            return f"perspective_win_frac {win} is below the C10 gate {WIN_GATE}"
        return None

    ORACLES = {
        "perspective_value": lambda y, inst: robust.perspective_value(y, inst),
        "top_k_sq_sum": lambda y, inst: robust.top_k_sq_sum(y, inst),
        "project_simplex": lambda y, inst: robust.project_simplex(y - 0.1 * inst.a_tilde),
        "budgeted_value": lambda y, inst: robust.budgeted_value(y, inst),
        "ellipsoidal_value": lambda y, inst: robust.ellipsoidal_value(y, inst),
        "worst_case": lambda y, inst: robust.worst_case(y, inst),
        "optimal_multipliers": lambda y, inst: robust.optimal_multipliers(y, inst),
    }

    @classmethod
    def oracle_micro_us(cls, records) -> dict:
        """Per-call time of each inner-loop oracle, evaluated at the perspective
        solutions of the given records: median over instances."""
        points = {r.op.key: (np.asarray(r.out[0].y_star.y), r.op.inst)
                  for r in records if r.error is None and r.op.kind == "perspective"}
        return {
            f"robust.{name}_us": 1e6 * median(
                [per_call_seconds(lambda: fn(y, inst), reps=50) for y, inst in points.values()])
            for name, fn in cls.ORACLES.items()
        }


class DiscreteExact:
    """Exact discrete solves: brute force over every support, and the sort
    solver on zero-cost exactly-k instances.

    Costs are a ~ N(0, 1) and c ~ U(0, 1), which leaves the root relaxation
    fractional (and so loose) on a share of the instances and tight on the
    rest.  Free n = 22 runs twice per cycle so that both the median and the
    tail of op time fall inside one op type rather than between two.
    """

    name = "discrete_exact"
    # (family, n, k, zero cost); a zero-cost exactly-k solve is followed by a sort solve
    FULL = {"instances": 4, "cycle": (
        ("free", 16, None, False), ("free", 22, None, False), ("card_le", 20, 5, False),
        ("card_eq", 24, 5, True), ("free", 20, None, False), ("free", 22, None, False),
        ("card_le", 24, 4, False), ("card_eq", 20, 10, False), ("card_eq", 24, 5, False))}
    PROBE = {"instances": 1, "cycle": (
        ("free", 16, None, False), ("card_le", 20, 5, False), ("card_eq", 24, 5, True))}
    TINY = {"instances": 1, "cycle": (
        ("free", 5, None, False), ("card_le", 6, 2, False), ("card_eq", 6, 3, True))}

    def __init__(self, sizes: dict):
        self.sizes = sizes
        self.brute_values = {}
        self.roots = {}

    def setup(self, seed: int, tracer) -> None:
        rng = np.random.default_rng(seed)
        self.schedule = []
        for i in range(self.sizes["instances"]):
            for slot, (kind, n, k, zero_cost) in enumerate(self.sizes["cycle"]):
                a = rng.normal(size=n)
                c = np.zeros(n) if zero_cost else rng.uniform(0.0, 1.0, n)
                inst = core.ProblemInstance(a, c, core.ZFamily(kind, n, k))
                self.schedule.append(Op(kind, inst, (i, slot)))
                if zero_cost:
                    self.schedule.append(Op("sort", inst, (i, slot)))
        self.cycle_len = len(self.schedule) // self.sizes["instances"]

    def run(self, op: Op, tracer):
        if op.kind == "sort":
            with tracer.span("discrete.solve_discrete_sort"):
                return discrete.solve_discrete_sort(op.inst.a, op.inst.zfam.k)
        supports = op.inst.zfam.member_count()
        with tracer.span("discrete.solve_discrete_bruteforce", op.kind) as info:
            info["supports"] = supports
            return discrete.solve_discrete_bruteforce(op.inst)

    def root(self, op: Op):
        """The instance's root relaxation: the check's bounds, computed once
        per instance outside op timing.  Frank-Wolfe takes seconds on a few
        cardinality instances, so it is not part of set-up either."""
        if op.key not in self.roots:
            self.roots[op.key] = relax(op.inst)
        return self.roots[op.key]

    def check(self, op: Op, sol):
        inst, root = op.inst, self.root(op)
        if not inst.zfam.contains(sol.z_opt):
            return "z is not in the family"
        support = np.flatnonzero(np.asarray(sol.z_opt) > 0.5)
        if not _close(sol.value, discrete.support_value(support, inst).value, SAME_FORMULA_RTOL):
            return "value differs from support_value of the returned support"
        slack = SAME_FORMULA_RTOL * max(1.0, abs(root.value))
        if sol.value < root.lower - slack:
            return "value is below the relaxation lower bound"
        if sol.value > root.rounded_value + slack:
            return "value is above the edge-rounded feasible value"
        if op.kind != "sort":
            self.brute_values[op.key] = sol.value
        elif not _close(sol.value, self.brute_values.get(op.key, math.nan), SAME_FORMULA_RTOL):
            return "sort solver disagrees with brute force"
        return None

    def summary(self, records) -> dict:
        exact = {r.op.key: (self.root(r.op), r.out.value) for r in records
                 if r.error is None and r.op.kind != "sort"}
        if not exact:
            return {f"relax_{name}_share": (math.nan, "ratio")
                    for name in ("tight", "loose", "fractional")}
        tight = sum(root.lower >= value - SAME_FORMULA_RTOL * max(1.0, abs(value))
                    for root, value in exact.values())
        fractional = sum(root.fractional_count > 0 for root, _ in exact.values())
        return {
            "relax_tight_share": (tight / len(exact), "ratio"),
            "relax_loose_share": (1.0 - tight / len(exact), "ratio"),
            "relax_fractional_share": (fractional / len(exact), "ratio"),
        }

    def gate(self, summary: dict):
        return None

    @staticmethod
    def peak_alloc_mb(records) -> float:
        """Largest tracemalloc peak of one brute-force solve, over the
        configurations in the records; each is solved once more, untimed."""
        first = {}
        for r in records:
            if r.op.kind != "sort":
                zfam = r.op.inst.zfam
                first.setdefault((zfam.kind, zfam.n, zfam.k), r.op.inst)
        peaks = []
        for inst in first.values():
            tracemalloc.start()
            try:
                discrete.solve_discrete_bruteforce(inst)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return max(peaks) / 2 ** 20


def lift(inst, z_bar) -> core.MixedPoint:
    """The relaxation point lifted to (x, z): x minimizes a'x over the unit
    ball with x_i = 0 where z_i = 0.  It violates the perspective inequality
    exactly when some supported z_i is fractional."""
    on = np.asarray(z_bar) > 0.0
    a_on = inst.a[on]
    norm = math.sqrt(float(a_on @ a_on))
    x = np.zeros(inst.n)
    if norm > 0.0:
        x[on] = -a_on / norm
    return core.MixedPoint(x, z_bar)


class HullOracles:
    """One cutting-plane round per op: relax, lift, test the perspective
    inequality, certify, separate.

    Heuristic separation runs at n = 200 and exact separation at n = 16, two
    heuristic rounds for each exact one, so the median op is a heuristic
    round and the tail is an exact one.  The instance pool is larger than a
    run uses, so no instance repeats: Frank-Wolfe takes seconds on a few
    cardinality instances in a thousand, and a repeated one would dominate
    the run.  On about one in a thousand it stops at its iteration cap; the
    round then cuts at the best iterate, and the per-layer metric
    ``hull.relaxation.unconverged_share`` counts it.
    """

    name = "hull_oracles"
    # (family, n, k, separation mode)
    FULL = {"instances": 128, "cycle": (
        ("free", 200, None, "heuristic"), ("card_le", 200, 20, "heuristic"),
        ("card_eq", 200, 20, "heuristic"), ("free", 16, None, "exact"),
        ("free", 200, None, "heuristic"), ("card_le", 200, 20, "heuristic"),
        ("card_eq", 200, 20, "heuristic"), ("card_le", 16, 4, "exact"),
        ("card_eq", 16, 4, "exact"))}
    PROBE = {"instances": 1, "cycle": (
        ("free", 200, None, "heuristic"), ("card_le", 200, 20, "heuristic"),
        ("card_eq", 200, 20, "heuristic"), ("free", 16, None, "exact"),
        ("card_le", 16, 4, "exact"), ("card_eq", 16, 4, "exact"))}
    TINY = {"instances": 1, "cycle": (
        ("free", 10, None, "heuristic"), ("card_le", 10, 3, "heuristic"),
        ("card_eq", 10, 3, "heuristic"), ("free", 5, None, "exact"),
        ("card_le", 5, 2, "exact"), ("card_eq", 5, 2, "exact"))}

    def __init__(self, sizes: dict):
        self.sizes = sizes

    def setup(self, seed: int, tracer) -> None:
        rng = np.random.default_rng(seed)
        self.schedule = []
        for i in range(self.sizes["instances"]):
            for slot, (kind, n, k, mode) in enumerate(self.sizes["cycle"]):
                inst = core.ProblemInstance(rng.normal(size=n), rng.uniform(0.0, 1.0, n),
                                            core.ZFamily(kind, n, k))
                self.schedule.append(Op(mode, inst, (i, slot)))
        self.cycle_len = len(self.sizes["cycle"])

    def run(self, op: Op, tracer):
        inst = op.inst
        with tracer.span("hull.solve_relaxation", inst.zfam.kind) as info:
            rel = relax(inst)
            info["fractional"] = rel.fractional_count
            info["converged"] = rel.converged
        p = lift(inst, rel.z_bar)
        with tracer.span("hull.perspective_membership"):
            member = hull.perspective_membership(p, inst.zfam)
        with tracer.span("hull.find_violating_alpha"):
            cert = hull.find_violating_alpha(p)
        alpha = cert if cert is not None else inst.a
        with tracer.span("hull.separate_submodular", op.kind) as info:
            cut = hull.separate_submodular(p, alpha, op.kind)
            info["violated"] = cut is not None
        return rel, p, member, cert, cut

    def check(self, op: Op, out):
        rel, p, member, cert, cut = out
        if op.inst.zfam.kind == core.FREE and rel.fractional_count > 1:
            return "free relaxation has more than one fractional coordinate (edge property)"
        if rel.value > rel.rounded_value + SAME_FORMULA_RTOL * max(1.0, abs(rel.value)):
            return "relaxation value is above its rounded value"
        if cut is not None and not cut.violation_at(p) > core.DEFAULT_TOL.feas_abs:
            return "returned cut is not violated at the point"
        if cert is not None:
            alpha = cert.alpha
            lhs = float(np.abs(alpha * p.x).sum())
            rhs = math.sqrt(float((alpha * alpha) @ p.z))
            if not lhs > rhs:
                return "find_violating_alpha certificate is not violated"
        if member != (cert is None):
            return "perspective membership disagrees with the certificate"
        return None

    def summary(self, records) -> dict:
        gaps = {r.op.key: r.out[0].rounded_value - r.out[0].value
                for r in records if r.error is None and r.out[0].converged}
        return {"relax_gap_mean": (float(np.mean(list(gaps.values()))) if gaps else math.nan,
                                   "cost")}

    def gate(self, summary: dict):
        return None


WORKLOADS = {cls.name: cls for cls in (PortfolioGrid, DiscreteExact, HullOracles)}
