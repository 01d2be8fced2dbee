"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; the two grid criteria solve the full 200-asset experiment and take
a few minutes.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sparseball.core import MixedPoint, ProblemInstance, ZFamily, is_in_X, satisfies_bigM
from sparseball.discrete import solve_discrete_bruteforce, solve_discrete_sort, support_value
from sparseball.harness import ExperimentConfig, records_to_csv, run_experiment
from sparseball.hull import (
    base_inequality,
    find_violating_alpha,
    perspective_membership,
    solve_relaxation,
    submodular_cut_1,
    submodular_cut_2,
)
from sparseball.robust import (
    RobustInstance,
    certificate_objective,
    fenchel_identity,
    optimal_multipliers,
    perspective_value,
    solve_counterpart,
    worst_case,
)

import oracles


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {label}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {label}: PASS")


def test_c01_closed_form_exactness():
    with criterion("C1 closed-form support values vs ball grid search"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(500):
            n = int(rng.integers(1, 4))
            a = rng.uniform(-1.0, 1.0, n)
            c = rng.uniform(-1.0, 1.0, n)
            inst = ProblemInstance(a, c, ZFamily.free(n))
            size = int(rng.integers(0, n + 1))
            S = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            sol = support_value(S, inst)
            ref = oracles.min_linear_on_ball(a[list(S)], offset=float(c[list(S)].sum()))
            assert abs(sol.value - ref) <= 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_c02_discrete_core_equivalence():
    with criterion("C2 brute-force solutions feasible and optimal over enumerations"):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for kind in ("free", "card_le", "card_eq"):
            for _ in range(200):
                n = int(rng.integers(2, 13))
                k = int(rng.integers(1, n + 1)) if kind != "free" else None
                fam = ZFamily(kind, n, k)
                inst = ProblemInstance(rng.normal(size=n), rng.normal(size=n), fam)
                sol = solve_discrete_bruteforce(inst)
                assert is_in_X(MixedPoint(sol.x_opt, sol.z_opt), fam)
                # independent enumeration of every (S, closed-form-x) alternative
                alts = []
                for member in oracles.family_members(kind, n, k):
                    sel = np.flatnonzero(member > 0.5)
                    alts.append(float(np.sum(inst.c[sel]))
                                - math.sqrt(float(np.sum(inst.a[sel] ** 2))))
                amin = min(alts)
                sel = np.flatnonzero(sol.z_opt > 0.5)
                own = float(np.sum(inst.c[sel])) - math.sqrt(float(np.sum(inst.a[sel] ** 2)))
                assert own == amin  # exact: the winner is one of the alternatives
                assert sol.value == own
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"enumeration sweep took {elapsed:.1f}s"


def test_c03_sorting_case():
    with criterion("C3 sorting solver equals brute force on zero-cost exactly-k"):
        rng = np.random.default_rng(303)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, n + 1))
            a = rng.normal(size=n)
            fast = solve_discrete_sort(a, k)
            slow = solve_discrete_bruteforce(
                ProblemInstance(a, np.zeros(n), ZFamily.card_eq(n, k)))
            assert fast.value == slow.value
            assert np.array_equal(fast.z_opt, slow.z_opt)


def test_c04_cut_validity():
    with criterion("C4 submodular and base cuts valid on enumerated vertices"):
        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            alpha = rng.normal(size=n)
            members = oracles.family_members("free", n)
            abs_rows, z_rows, z_masks = [], [], []
            nz = np.flatnonzero(alpha != 0.0)
            for z in members:
                g_z = math.sqrt(float((alpha ** 2) @ z))
                mask = int(sum(1 << i for i in range(n) if z[i] > 0.5))
                abs_rows.append(np.zeros(n))
                z_rows.append(z)
                z_masks.append(mask)
                for i in nz:
                    row = np.zeros(n)
                    row[i] = g_z / abs(alpha[i])
                    abs_rows.append(row)
                    z_rows.append(z)
                    z_masks.append(mask)
            abs_rows = np.array(abs_rows)
            z_rows = np.array(z_rows)
            z_masks = np.array(z_masks)
            for _ in range(200):
                S = [i for i in range(n) if rng.integers(0, 2)]
                for make in (submodular_cut_1, submodular_cut_2):
                    cut = make(S, alpha)
                    viol = abs_rows @ cut.pi_abs + z_rows @ cut.rho_z - cut.rhs
                    assert float(viol.max()) <= 1e-9
                # base inequality only on the face with z = 0 off S
                s_mask = int(sum(1 << i for i in S))
                keep = (z_masks & ~s_mask) == 0
                cut = base_inequality(S, alpha)
                viol = abs_rows[keep] @ cut.pi_abs + z_rows[keep] @ cut.rho_z - cut.rhs
                assert float(viol.max()) <= 1e-9


def test_c05_perspective_equivalence():
    with criterion("C5 perspective membership equivalent to violated-weights search"):
        rng = np.random.default_rng(505)
        fam = ZFamily.free(6)
        for _ in range(10_000):
            z = rng.uniform(size=6)
            if rng.uniform() < 0.15:
                z[rng.integers(0, 6)] = 0.0
            scale = rng.choice([0.2, 0.5, 1.0])
            p = MixedPoint(rng.normal(size=6) * scale, z)
            member = perspective_membership(p, fam)
            alpha = find_violating_alpha(p)
            assert member == (alpha is None)
            if alpha is not None:
                a = alpha.alpha
                lhs = float(np.abs(a * p.x).sum())
                rhs = math.sqrt(float((a * a) @ p.z))
                assert lhs > rhs


def test_c06_bigM_not_implied():
    with criterion("C6 witness passes perspective membership but fails big-M"):
        p = MixedPoint([0.5], [0.4])
        assert perspective_membership(p, ZFamily.free(1))
        assert not satisfies_bigM(p)


def test_c07_edge_property_and_bounds():
    with criterion("C7 relaxation edge property and value sandwich"):
        rng = np.random.default_rng(707)
        chain_a_violations = 0
        chain_b_violations = 0
        for _ in range(100):
            n = int(rng.integers(2, 15))
            inst = ProblemInstance(rng.normal(size=n), -rng.uniform(0.0, 1.0, n),
                                   ZFamily.free(n))
            relax = solve_relaxation(inst)
            exact = solve_discrete_bruteforce(inst)
            assert relax.fractional_count <= 1
            assert relax.value <= exact.value + 1e-9
            assert exact.value <= relax.rounded_value + 1e-9
            # printed constant-factor chains, reported rather than asserted
            if 0.8 * relax.value < exact.value - 1e-9:
                chain_a_violations += 1
            if exact.value < 1.25 * relax.rounded_value - 1e-9:
                chain_b_violations += 1
        print(f"\n[ACCEPTANCE] C7 finding: constant-factor chain violations: "
              f"(4/5) relaxation bound {chain_a_violations}/100, "
              f"(5/4) rounding bound {chain_b_violations}/100")


def _grid_fenchel_max(x, z):
    bound = 4.0 * (abs(x) + 1.0) / max(z, 1e-3)
    ps = np.linspace(-bound, bound, 2001)
    vals = ps * x - ps * ps * z / 4.0
    j = int(np.argmax(vals))
    lo, hi = ps[max(j - 1, 0)], ps[min(j + 1, 2000)]
    ps = np.linspace(lo, hi, 2001)
    vals = ps * x - ps * ps * z / 4.0
    return float(vals.max())


def test_c08_dual_chain():
    with criterion("C8 scalar conjugate closed form and multiplier identity"):
        rng = np.random.default_rng(808)
        for _ in range(1000):
            x = float(rng.uniform(-2.0, 2.0))
            z = float(rng.uniform(0.01, 1.0))
            value, p_star = fenchel_identity(x, z)
            assert abs(value - _grid_fenchel_max(x, z)) <= 1e-6
            assert p_star == pytest.approx(2.0 * x / z, rel=1e-12, abs=0.0)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            inst = RobustInstance(rng.uniform(0.0, 1.0, n), rng.uniform(0.05, 1.0, n),
                                  float(rng.uniform(0.5, 20.0)), k, n)
            y = oracles.sample_simplex(n, rng)
            cert = optimal_multipliers(y, inst)
            obj = certificate_objective(cert, y, inst)
            ref = perspective_value(y, inst)
            assert abs(obj - ref) <= 1e-8 * max(abs(ref), 1e-12)


def test_c09_worst_case_exactness():
    with criterion("C9 worst-case closed form vs subset brute force; counterpart tightness"):
        rng = np.random.default_rng(909)
        mask_cache = {}
        for _ in range(500):
            n = int(rng.integers(4, 17))
            k = int(rng.integers(1, n + 1))
            inst = RobustInstance(rng.uniform(0.0, 1.0, n), rng.uniform(0.05, 1.0, n),
                                  float(rng.uniform(0.5, 20.0)), k, n)
            y = oracles.sample_simplex(n, rng)
            mask = mask_cache.setdefault((n, k), oracles.supports_mask(n, k))
            r = (y / inst.d) ** 2
            ref = float(inst.a_tilde @ y) + math.sqrt(inst.b * float((mask @ r).max()))
            assert abs(worst_case(y, inst) - ref) <= 1e-10
        for _ in range(50):
            n = int(rng.integers(4, 17))
            k = int(rng.integers(1, n + 1))
            inst = RobustInstance(rng.uniform(0.0, 1.0, n), rng.uniform(0.05, 1.0, n),
                                  float(rng.uniform(0.5, 20.0)), k, n)
            res = solve_counterpart("perspective", inst)
            assert abs(res.objective - worst_case(res.y_star, inst)) <= 1e-4 * abs(res.objective)


FULL_GRID_CONFIG = ExperimentConfig(seed=20260809)


@pytest.fixture(scope="module")
def full_grid_run():
    start = time.perf_counter()
    run = run_experiment(FULL_GRID_CONFIG)
    duration = time.perf_counter() - start
    return run, duration


def test_c10_experiment_replication(full_grid_run):
    with criterion("C10 full-grid replication: perspective best worst case"):
        run, duration = full_grid_run
        cells = len(FULL_GRID_CONFIG.k_list) * len(FULL_GRID_CONFIG.b_list)
        expected = cells * FULL_GRID_CONFIG.instances_per_cell * len(FULL_GRID_CONFIG.methods)
        assert len(run.records) == expected
        assert all(r.solve_time <= 10.0 for r in run.records)
        assert duration <= 1800.0, f"grid took {duration:.0f}s"

        by_instance = {}
        for r in run.records:
            by_instance.setdefault((r.k, r.b, r.instance), {})[r.method] = r
        wins = 0
        for key, group in by_instance.items():
            persp = group["perspective"].worst_case
            others = min(group["budgeted"].worst_case, group["ellipsoidal"].worst_case)
            if persp <= others + 1e-9:
                wins += 1
        total = len(by_instance)
        assert total == cells * FULL_GRID_CONFIG.instances_per_cell
        assert wins >= 0.9 * total, f"perspective best in only {wins}/{total}"
        print(f"\n[ACCEPTANCE] C10 stats: perspective best worst-case in {wins}/{total} "
              f"instances; grid wall time {duration:.0f}s")

        # soft, reported-only statistic: nominal-value ordering at the largest k
        big_k = max(FULL_GRID_CONFIG.k_list)
        ell_better = sum(
            1 for (k, b, i), group in by_instance.items()
            if k == big_k and group["ellipsoidal"].nominal_value
            <= group["budgeted"].nominal_value
        )
        big_k_total = sum(1 for (k, _, _) in by_instance if k == big_k)
        print(f"[ACCEPTANCE] C10 soft stat: at k={big_k} the ellipsoidal nominal value "
              f"beats budgeted in {ell_better}/{big_k_total} instances (reported only)")


def test_c11_determinism(full_grid_run):
    with criterion("C11 byte-identical CSV under a repeated run"):
        run, _ = full_grid_run
        timeless = [dataclasses.replace(r, solve_time=0.0) for r in run.records]
        csv_a = records_to_csv(timeless)
        config = dataclasses.replace(FULL_GRID_CONFIG, record_wall_time=False)
        rerun = run_experiment(config)
        csv_b = records_to_csv(rerun.records)
        assert csv_a == csv_b
