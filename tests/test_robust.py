import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseball.core import SolverError
from sparseball.robust import (
    METHODS,
    _subgradient,
    PortfolioPoint,
    RobustInstance,
    SubgradientConfig,
    budgeted_value,
    certificate_objective,
    ellipsoidal_value,
    fenchel_identity,
    load_robust_instance,
    method_value,
    optimal_multipliers,
    parse_robust_instance,
    perspective_value,
    project_simplex,
    robust_instance_to_dict,
    solve_counterpart,
    top_k_sq_sum,
    worst_case,
)

import oracles


def _random_instance(rng, n=None, k=None, b=None):
    n = n or int(rng.integers(2, 9))
    k = k or int(rng.integers(1, n + 1))
    b = b if b is not None else float(rng.uniform(0.5, 20.0))
    return RobustInstance(rng.uniform(0.0, 1.0, n), rng.uniform(0.1, 1.0, n), b, k, n)


class TestRobustInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            RobustInstance([1.0], [0.0], 1.0, 1, 1)  # d not positive
        with pytest.raises(ValueError):
            RobustInstance([1.0], [1.0], -1.0, 1, 1)  # negative budget
        with pytest.raises(ValueError):
            RobustInstance([1.0], [1.0], 1.0, 2, 1)  # k > n
        with pytest.raises(ValueError):
            RobustInstance([1.0, 1.0], [1.0], 1.0, 1, 2)  # length mismatch

    @given(st.integers(1, 6), st.sampled_from([int, np.int16, np.int64, np.uint8]), st.data())
    def test_accepts_any_integral_and_stores_int(self, n, to_int, data):
        k = data.draw(st.integers(1, n))
        inst = RobustInstance(np.ones(n), np.ones(n), np.float32(2.0), to_int(k), to_int(n))
        assert type(inst.n) is int and type(inst.k) is int and type(inst.b) is float
        assert (inst.n, inst.k, inst.b) == (n, k, 2.0)
        with pytest.raises(ValueError, match="1 <= k <= n"):
            RobustInstance(np.ones(n), np.ones(n), 1.0, to_int(n + 1), to_int(n))
        bad = data.draw(st.one_of(st.booleans(), st.just(np.bool_(False)), st.text(max_size=2),
                                  st.floats(allow_nan=False, allow_infinity=False)))
        with pytest.raises(ValueError, match="k must be an integer"):
            RobustInstance(np.ones(n), np.ones(n), 1.0, bad, n)
        with pytest.raises(ValueError, match="n must be an integer"):
            RobustInstance(np.ones(n), np.ones(n), 1.0, k, bad)

    @given(st.integers(1, 6), st.data())
    def test_parse_round_trips_and_names_bad_fields(self, n, data):
        k = data.draw(st.integers(1, n))
        b = data.draw(st.floats(0.0, 1e6))
        a = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
        d = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
        obj = robust_instance_to_dict(RobustInstance(a, d, b, k, n))
        back = parse_robust_instance(json.loads(json.dumps(obj)))
        assert (back.n, back.k, back.b) == (n, k, b)
        assert np.array_equal(back.a_tilde, a) and np.array_equal(back.d, d)
        bad = data.draw(st.one_of(st.booleans(), st.text(max_size=2), st.just(2.5)))
        for key in ("n", "k"):
            with pytest.raises(ValueError, match=f"{key} must be an integer"):
                parse_robust_instance({**obj, key: bad})
        with pytest.raises(ValueError, match="budget b must be a real number"):
            parse_robust_instance({**obj, "b": data.draw(st.one_of(st.booleans(), st.text(max_size=2)))})
        with pytest.raises(ValueError, match="budget b must be finite and nonnegative"):
            parse_robust_instance({**obj, "b": data.draw(st.sampled_from([-1.0, math.inf]))})
        with pytest.raises(ValueError, match="1 <= k <= n"):
            parse_robust_instance({**obj, "k": n + 1})
        with pytest.raises(ValueError, match="malformed"):
            parse_robust_instance({key: v for key, v in obj.items() if key != "d"})

    def test_json_round_trip(self, tmp_path):
        inst = RobustInstance([0.25, 0.5], [1.0, 2.0], 5.0, 1, 2)
        path = tmp_path / "robust.json"
        path.write_text(json.dumps(robust_instance_to_dict(inst)))
        back = load_robust_instance(path)
        assert np.array_equal(back.a_tilde, inst.a_tilde)
        assert np.array_equal(back.d, inst.d)
        assert back.b == inst.b and back.k == inst.k

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            parse_robust_instance({"n": 1, "a_tilde": [float("nan")], "d": [1.0],
                                   "b": 1.0, "k": 1})


class TestPortfolioPoint:
    def test_accepts_simplex(self):
        PortfolioPoint([0.25, 0.75])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PortfolioPoint([-0.1, 1.1])

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError):
            PortfolioPoint([0.25, 0.25])


class TestTopKSqSum:
    def test_uniform_example(self):
        inst = RobustInstance(np.zeros(4), np.ones(4), 1.0, 2, 4)
        assert top_k_sq_sum(np.full(4, 0.25), inst) == pytest.approx(0.125)

    def test_full_k_is_full_sum(self, rng):
        n = 6
        inst = _random_instance(rng, n=n, k=n)
        y = oracles.sample_simplex(n, rng)
        assert top_k_sq_sum(y, inst) == pytest.approx(float(np.sum((y / inst.d) ** 2)))

    def test_matches_subset_bruteforce(self, rng):
        for _ in range(50):
            inst = _random_instance(rng)
            y = oracles.sample_simplex(inst.n, rng)
            r = (y / inst.d) ** 2
            mask = oracles.supports_mask(inst.n, inst.k)
            assert top_k_sq_sum(y, inst) == pytest.approx(float((mask @ r).max()), abs=1e-12)


class TestObjectiveOracles:
    def test_perspective_single_asset(self):
        inst = RobustInstance([0.3, 0.7], [1.0, 1.0], 1.0, 1, 2)
        y = np.array([1.0, 0.0])
        assert perspective_value(y, inst) == pytest.approx(0.3 + 1.0)

    def test_zero_budget_degenerates_to_nominal(self, rng):
        inst = _random_instance(rng, b=0.0)
        y = oracles.sample_simplex(inst.n, rng)
        assert perspective_value(y, inst) == pytest.approx(float(inst.a_tilde @ y))
        assert budgeted_value(y, inst) == pytest.approx(float(inst.a_tilde @ y))

    def test_budgeted_single_asset(self):
        inst = RobustInstance([0.3, 0.7], [1.0, 1.0], 1.0, 2, 2)
        assert budgeted_value([1.0, 0.0], inst) == pytest.approx(1.3)

    def test_ellipsoidal_equals_perspective_at_full_k(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            inst = _random_instance(rng, n=n, k=n)
            y = oracles.sample_simplex(n, rng)
            assert ellipsoidal_value(y, inst) == pytest.approx(perspective_value(y, inst), rel=1e-12)

    def test_budgeted_matches_extreme_point_bruteforce(self, rng):
        # inner adversary: per-coordinate box extremes on supports of size <= k
        for _ in range(25):
            inst = _random_instance(rng, n=int(rng.integers(2, 8)))
            y = oracles.sample_simplex(inst.n, rng)
            bound = math.sqrt(inst.b) / inst.d
            mask = oracles.supports_mask(inst.n, inst.k)
            inner = float((mask @ (y * bound)).max())
            assert budgeted_value(y, inst) == pytest.approx(float(inst.a_tilde @ y) + inner, abs=1e-12)

    def test_perspective_matches_relaxed_inner_grid(self, rng):
        # the relaxed inner problem's activation profile is optimized at a
        # binary point, so a grid containing binary values is exact
        for _ in range(10):
            n = int(rng.integers(2, 5))
            inst = _random_instance(rng, n=n)
            y = oracles.sample_simplex(n, rng)
            r = (y / inst.d) ** 2
            levels = np.linspace(0.0, 1.0, 5)
            best = 0.0
            for z in np.stack(np.meshgrid(*[levels] * n), axis=-1).reshape(-1, n):
                if z.sum() <= inst.k + 1e-12:
                    best = max(best, float(r @ z))
            inner = math.sqrt(inst.b * best)
            assert perspective_value(y, inst) == pytest.approx(float(inst.a_tilde @ y) + inner, abs=1e-3)

    def test_midpoint_convexity(self, rng):
        names = ("budgeted", "ellipsoidal", "perspective")
        for _ in range(300):
            inst = _random_instance(rng)
            y1 = oracles.sample_simplex(inst.n, rng)
            y2 = oracles.sample_simplex(inst.n, rng)
            mid = 0.5 * (y1 + y2)
            for name in names:
                f1 = method_value(name, y1, inst)
                f2 = method_value(name, y2, inst)
                fm = method_value(name, mid, inst)
                assert fm <= 0.5 * (f1 + f2) + 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        inst = _random_instance(rng)
        y = oracles.sample_simplex(inst.n, rng)
        perm = rng.permutation(inst.n)
        permuted = RobustInstance(inst.a_tilde[perm], inst.d[perm], inst.b, inst.k, inst.n)
        for name in METHODS:
            assert method_value(name, y, inst) == pytest.approx(
                method_value(name, y[perm], permuted), rel=1e-12, abs=1e-12)


class TestWorstCase:
    def test_single_asset(self):
        inst = RobustInstance([0.3, 0.7], [0.5, 1.0], 4.0, 1, 2)
        assert worst_case([1.0, 0.0], inst) == pytest.approx(0.3 + 2.0 / 0.5)

    def test_matches_subset_bruteforce(self, rng):
        for _ in range(60):
            inst = _random_instance(rng, n=int(rng.integers(2, 10)))
            y = oracles.sample_simplex(inst.n, rng)
            r = (y / inst.d) ** 2
            mask = oracles.supports_mask(inst.n, inst.k)
            ref = float(inst.a_tilde @ y) + math.sqrt(inst.b * float((mask @ r).max()))
            assert worst_case(y, inst) == pytest.approx(ref, abs=1e-10)

    def test_baselines_upper_bound_worst_case(self, rng):
        for _ in range(400):
            inst = _random_instance(rng)
            y = oracles.sample_simplex(inst.n, rng)
            wc = worst_case(y, inst)
            assert wc <= budgeted_value(y, inst) + 1e-10
            assert wc <= ellipsoidal_value(y, inst) + 1e-10

    def test_conservative_approximation(self, rng):
        # the counterpart objective never undercuts the exact worst case
        for _ in range(10_000):
            inst = _random_instance(rng)
            y = oracles.sample_simplex(inst.n, rng)
            assert perspective_value(y, inst) - worst_case(y, inst) >= -1e-12


class TestFenchel:
    def test_zero_zero(self):
        value, p = fenchel_identity(0.0, 0.0)
        assert value == 0.0 and p == 0.0

    def test_infinite_flag(self):
        value, p = fenchel_identity(1.0, 0.0)
        assert value == math.inf and p == math.inf
        value, p = fenchel_identity(-1.0, 0.0)
        assert value == math.inf and p == -math.inf

    def test_hand_case_and_grid(self):
        value, p = fenchel_identity(1.0, 0.5)
        assert value == pytest.approx(2.0) and p == pytest.approx(4.0)
        _, grid_val = oracles.refined_grid_max(lambda q: q * 1.0 - q * q * 0.5 / 4.0, -10.0, 10.0)
        assert value == pytest.approx(grid_val, abs=1e-6)

    def test_rejects_out_of_range_z(self):
        with pytest.raises(ValueError):
            fenchel_identity(1.0, 1.5)

    def test_grid_cross_check(self, rng):
        for _ in range(30):
            x = float(rng.uniform(-2.0, 2.0))
            z = float(rng.uniform(0.05, 1.0))
            value, p_star = fenchel_identity(x, z)
            bound = 4.0 * (abs(x) + 1.0) / z
            _, grid_val = oracles.refined_grid_max(lambda q: q * x - q * q * z / 4.0, -bound, bound)
            assert value == pytest.approx(grid_val, abs=1e-6)
            assert p_star == pytest.approx(2.0 * x / z, rel=1e-12)


class TestOptimalMultipliers:
    def test_certificate_identity(self, rng):
        for _ in range(300):
            inst = _random_instance(rng)
            y = oracles.sample_simplex(inst.n, rng)
            cert = optimal_multipliers(y, inst)
            obj = certificate_objective(cert, y, inst)
            ref = perspective_value(y, inst)
            assert obj == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_nonnegativity_and_product(self, rng):
        for _ in range(100):
            inst = _random_instance(rng)
            y = oracles.sample_simplex(inst.n, rng)
            cert = optimal_multipliers(y, inst)
            assert cert.lam >= 0.0 and cert.mu >= 0.0 and cert.gamma >= 0.0
            assert np.all(cert.t >= 0.0)
            assert cert.gamma == pytest.approx(cert.lam * cert.mu, rel=1e-12, abs=1e-15)

    def test_t_zero_off_top_k(self, rng):
        for _ in range(100):
            inst = _random_instance(rng)
            y = oracles.sample_simplex(inst.n, rng)
            cert = optimal_multipliers(y, inst)
            r = (y / inst.d) ** 2
            top = set(np.argsort(-r, kind="stable")[: inst.k].tolist())
            for i in range(inst.n):
                if i not in top:
                    assert cert.t[i] == 0.0

    def test_full_k_uniform_edge_case(self):
        n = 4
        inst = RobustInstance(np.full(n, 0.5), np.ones(n), 2.0, n, n)
        y = np.full(n, 0.25)
        cert = optimal_multipliers(y, inst)
        assert cert.gamma == 0.0
        assert certificate_objective(cert, y, inst) == pytest.approx(perspective_value(y, inst), rel=1e-12)

    def test_zero_direction_degenerates_cleanly(self):
        inst = RobustInstance([0.5, 0.5], [1.0, 1.0], 2.0, 1, 2)
        cert = optimal_multipliers(np.zeros(2), inst)
        assert cert.lam == 0.0 and cert.mu == 0.0 and cert.gamma == 0.0
        assert np.array_equal(cert.t, np.zeros(2))
        assert np.array_equal(cert.p, np.zeros(2))


class TestProjectSimplex:
    def test_already_on_simplex(self):
        y = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(y), y)

    def test_projection_properties(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 12))
            v = rng.normal(scale=3.0, size=n)
            w = project_simplex(v)
            assert np.all(w >= 0.0)
            assert float(w.sum()) == pytest.approx(1.0, abs=1e-9)
            # no sampled feasible point is closer to v than the projection
            for _ in range(20):
                other = oracles.sample_simplex(n, rng)
                assert np.linalg.norm(w - v) <= np.linalg.norm(other - v) + 1e-9


class TestSolveCounterpart:
    def test_nominal_exact(self):
        inst = RobustInstance([0.5, 0.2, 0.9], [1.0, 1.0, 1.0], 1.0, 1, 3)
        res = solve_counterpart("nominal", inst)
        assert res.objective == 0.2
        assert np.array_equal(res.y_star.y, [0.0, 1.0, 0.0])
        assert res.iterations == 0

    def test_unknown_method(self):
        inst = RobustInstance([0.5], [1.0], 1.0, 1, 1)
        with pytest.raises(ValueError):
            solve_counterpart("antifragile", inst)

    def test_two_asset_matches_golden_section(self, rng):
        for _ in range(8):
            inst = _random_instance(rng, n=2, b=float(rng.uniform(0.5, 5.0)))
            for method in ("budgeted", "ellipsoidal", "perspective"):
                res = solve_counterpart(method, inst)

                def f(t):
                    return method_value(method, np.array([1.0 - t, t]), inst)

                _, ref = oracles.golden_min(f, 0.0, 1.0, iters=200)
                assert res.objective <= ref + 1e-5 * max(1.0, abs(ref))
                assert res.objective >= ref - 1e-9  # cannot beat the optimum

    def test_objective_matches_oracle_at_solution(self, rng):
        inst = _random_instance(rng, n=6)
        for method in METHODS:
            res = solve_counterpart(method, inst)
            assert res.objective == method_value(method, res.y_star, inst)

    def test_deterministic(self, rng):
        inst = _random_instance(rng, n=5)
        r1 = solve_counterpart("perspective", inst)
        r2 = solve_counterpart("perspective", inst)
        assert np.array_equal(r1.y_star.y, r2.y_star.y)
        assert r1.objective == r2.objective
        assert r1.iterations == r2.iterations

    def test_iteration_cap_raises_with_best_iterate(self, rng):
        inst = _random_instance(rng, n=4)
        config = SubgradientConfig(max_iter=100, window=500)
        with pytest.raises(SolverError) as info:
            solve_counterpart("perspective", inst, config)
        assert info.value.best is not None
        assert info.value.best_value is not None
        # the gap is the simplex linearization gap at the best iterate, an
        # upper bound on its suboptimality, not the progress of one window
        y = info.value.best
        g = _subgradient("perspective", y, inst)
        assert info.value.gap == pytest.approx(float(g @ y - g.min()), rel=1e-12, abs=1e-15)
        assert info.value.best_value == pytest.approx(method_value("perspective", y, inst), rel=1e-12)
        assert info.value.gap >= 0.0
        optimum = solve_counterpart("perspective", inst).objective
        assert info.value.best_value - optimum <= info.value.gap + 1e-9

    def test_perspective_tightness_against_worst_case(self, rng):
        for _ in range(5):
            inst = _random_instance(rng, n=8)
            res = solve_counterpart("perspective", inst)
            assert abs(res.objective - worst_case(res.y_star, inst)) <= 1e-4 * abs(res.objective)

    def test_factor_guarantee_against_simplex_grid(self, rng):
        # with nonnegative nominal costs the counterpart optimum stays within
        # a 5/4 factor of the exact robust optimum; here the inner problem is
        # tight, so the empirical gap should be essentially zero
        steps = 20
        grid = []
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                grid.append(np.array([i, j, steps - i - j]) / steps)
        for _ in range(5):
            inst = _random_instance(rng, n=3)
            res = solve_counterpart("perspective", inst)
            robust_min = min(worst_case(y, inst) for y in grid)
            assert res.objective <= 1.25 * robust_min + 1e-9
            # grid resolution limits how far below the grid minimum we can sit
            assert res.objective <= robust_min + 1e-9
            assert robust_min - res.objective <= 0.05 * abs(robust_min)
