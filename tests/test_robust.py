import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseball import harness, robust
from sparseball.robust import (
    METHODS,
    _budgeted_subgradient,
    PortfolioPoint,
    RobustInstance,
    budgeted_value,
    certificate_objective,
    ellipsoidal_value,
    fenchel_identity,
    load_robust_instance,
    method_value,
    nominal_value,
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
        assert top_k_sq_sum(np.full(4, 0.25), inst) == pytest.approx(0.125, abs=0.0)

    def test_full_k_is_full_sum(self, rng):
        n = 6
        inst = _random_instance(rng, n=n, k=n)
        y = oracles.sample_simplex(n, rng)
        assert top_k_sq_sum(y, inst) == pytest.approx(float(np.sum((y / inst.d) ** 2)), abs=0.0)

    def test_matches_subset_bruteforce(self, rng):
        for _ in range(50):
            inst = _random_instance(rng)
            y = oracles.sample_simplex(inst.n, rng)
            r = (y / inst.d) ** 2
            mask = oracles.supports_mask(inst.n, inst.k)
            assert top_k_sq_sum(y, inst) == pytest.approx(float((mask @ r).max()), abs=1e-12)

    def test_square_past_the_float_range_is_inf(self):
        # (y_i / d_i)^2 = 2.5e319
        inst = RobustInstance(np.zeros(2), np.full(2, 1e-160), 1e-300, 1, 2)
        assert top_k_sq_sum(np.array([0.5, 0.5]), inst) == math.inf

    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(-500, 500),
                              st.floats(0.5, 1.0), st.integers(-500, 500)), min_size=1, max_size=6),
           st.integers(1, 6))
    @settings(max_examples=400)
    def test_within_k_plus_2_ulps_of_exact(self, entries, k):
        # y and d at scales 2^+-500: the bound in top_k_sq_sum
        n, k = len(entries), min(k, len(entries))
        y = np.array([math.ldexp(m, s) for m, s, _, _ in entries])
        d = np.array([math.ldexp(m, s) for _, _, m, s in entries])
        inst = RobustInstance(np.zeros(n), d, 1.0, k, n)
        exact = oracles.top_k_sq_sum_exact(y, d, k)
        assert oracles.ulps_off(top_k_sq_sum(y, inst), exact) <= k + 2


class TestObjectiveOracles:
    def test_perspective_single_asset(self):
        inst = RobustInstance([0.3, 0.7], [1.0, 1.0], 1.0, 1, 2)
        y = np.array([1.0, 0.0])
        assert perspective_value(y, inst) == pytest.approx(0.3 + 1.0, abs=0.0)

    def test_zero_budget_degenerates_to_nominal(self, rng):
        inst = _random_instance(rng, b=0.0)
        y = oracles.sample_simplex(inst.n, rng)
        assert perspective_value(y, inst) == pytest.approx(float(inst.a_tilde @ y), abs=0.0)
        assert budgeted_value(y, inst) == pytest.approx(float(inst.a_tilde @ y), abs=0.0)

    def test_budgeted_single_asset(self):
        inst = RobustInstance([0.3, 0.7], [1.0, 1.0], 1.0, 2, 2)
        assert budgeted_value([1.0, 0.0], inst) == pytest.approx(1.3, abs=0.0)

    def test_ellipsoidal_equals_perspective_at_full_k(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            inst = _random_instance(rng, n=n, k=n)
            y = oracles.sample_simplex(n, rng)
            assert ellipsoidal_value(y, inst) == pytest.approx(perspective_value(y, inst), rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("oracle", [top_k_sq_sum, perspective_value, budgeted_value, ellipsoidal_value],
                             ids=lambda oracle: oracle.__name__)
    def test_quotient_past_the_float_range_is_inf(self, oracle):
        # y / d = 1e310 overflows: inf, with no warning (the suite turns them into errors)
        inst = RobustInstance([0.0], [1e-310], 1.0, 1, 1)
        assert oracle([1.0], inst) == math.inf


_MAGNITUDES = st.builds(math.ldexp, st.floats(0.0, 1.0), st.integers(-500, 500))
_SCALINGS = st.one_of(st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-500, 500)),
                      st.floats(5e-324, 1e-300))
_OBJECTIVE_CASES = (st.lists(st.tuples(_MAGNITUDES, _SCALINGS, _MAGNITUDES, st.booleans()),
                             min_size=1, max_size=6),
                    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-500, 500)),
                    st.integers(1, 6))


def _assert_within_ulps_of_exact(oracle, exact, ulps, entries, b, k):
    """The oracle within ulps(n, k) ulps of its exact twin, in ulps of the sum
    of its terms' magnitudes, or inf where some y_i/d_i is past the float
    range.  y, a~ and d are at scales 2^+-500, d also tiny (subnormal too)."""
    n, k = len(entries), min(k, len(entries))
    y = np.array([yi for yi, _, _, _ in entries])
    d = np.array([di for _, di, _, _ in entries])
    a = np.array([-ai if negative else ai for _, _, ai, negative in entries])
    inst = RobustInstance(a, d, b, k, n)
    if any(Fraction(yi) / Fraction(di) > sys.float_info.max for yi, di in zip(y, d)):
        assert oracle(y, inst) == math.inf
    else:
        value, scale = exact(y, inst)
        assert oracles.ulps_off(oracle(y, inst), value, scale) <= ulps(n, k)


class TestExactObjectives:
    """Each objective oracle against its exact twin in tests/oracles.py, within
    the bound its docstring states."""

    @given(*_OBJECTIVE_CASES)
    @settings(max_examples=300)
    def test_budgeted_within_n_plus_k_plus_2_ulps(self, entries, b, k):
        _assert_within_ulps_of_exact(budgeted_value, oracles.budgeted_value_exact,
                                     lambda n, k: n + k + 2, entries, b, k)

    @given(*_OBJECTIVE_CASES)
    @settings(max_examples=300)
    def test_ellipsoidal_within_n_plus_4_ulps(self, entries, b, k):
        _assert_within_ulps_of_exact(ellipsoidal_value, oracles.ellipsoidal_value_exact,
                                     lambda n, k: n + 4, entries, b, k)

    @given(*_OBJECTIVE_CASES)
    @settings(max_examples=300)
    def test_perspective_within_n_plus_4_ulps(self, entries, b, k):
        _assert_within_ulps_of_exact(perspective_value, oracles.perspective_value_exact,
                                     lambda n, k: n + 4, entries, b, k)

    @given(_OBJECTIVE_CASES[0])
    @settings(max_examples=300)
    def test_nominal_within_n_ulps(self, entries):
        n = len(entries)
        y = np.array([yi for yi, _, _, _ in entries])
        a = np.array([-ai if negative else ai for _, _, ai, negative in entries])
        inst = RobustInstance(a, np.ones(n), 1.0, 1, n)
        value, scale = oracles.nominal_value_exact(y, inst)
        assert oracles.ulps_off(nominal_value(y, inst), value, scale) <= n


class TestWorstCase:
    def test_single_asset(self):
        inst = RobustInstance([0.3, 0.7], [0.5, 1.0], 4.0, 1, 2)
        assert worst_case([1.0, 0.0], inst) == pytest.approx(0.3 + 2.0 / 0.5, abs=0.0)

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
        assert value == pytest.approx(2.0, abs=0.0) and p == pytest.approx(4.0, abs=0.0)
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
            assert p_star == pytest.approx(2.0 * x / z, rel=1e-12, abs=0.0)


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
        assert certificate_objective(cert, y, inst) == pytest.approx(perspective_value(y, inst),
                                                                       rel=1e-12, abs=0.0)

    def test_zero_direction_degenerates_cleanly(self):
        inst = RobustInstance([0.5, 0.5], [1.0, 1.0], 2.0, 1, 2)
        cert = optimal_multipliers(np.zeros(2), inst)
        assert cert.lam == 0.0 and cert.mu == 0.0 and cert.gamma == 0.0
        assert np.array_equal(cert.t, np.zeros(2))
        assert np.array_equal(cert.p, np.zeros(2))

    def test_overflowing_multipliers_raise(self):
        # lam* = 2.5e309 at the exact perspective y
        inst = RobustInstance(np.zeros(2), np.full(2, 1e-160), 1e-300, 1, 2)
        with pytest.raises(ValueError, match="multipliers overflow the float range"):
            optimal_multipliers(np.array([0.5, 0.5]), inst)

    def test_quotient_past_the_float_range_raises(self):
        # y / d = 1e310: no multiplier is finite, and no warning comes first
        inst = RobustInstance([0.0], [1e-310], 1.0, 1, 1)
        with pytest.raises(ValueError, match="multipliers overflow the float range"):
            optimal_multipliers([1.0], inst)

    def test_squares_past_the_float_range_still_certify(self):
        # (y_i/d_i)^2 = 2.5e319 overflows, but every multiplier is finite
        inst = RobustInstance(np.zeros(2), np.full(2, 1e-160), 1.0, 2, 2)
        y = np.array([0.5, 0.5])
        cert = optimal_multipliers(y, inst)
        assert certificate_objective(cert, y, inst) == pytest.approx(perspective_value(y, inst),
                                                                       rel=1e-12, abs=0.0)


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
        with pytest.raises(ValueError, match="unknown method 'antifragile'; expected one of"):
            method_value("antifragile", [1.0], inst)

    def test_methods_are_the_oracle_table_in_order(self):
        assert METHODS == ("nominal", "budgeted", "ellipsoidal", "perspective")
        inst = RobustInstance([0.3, 0.7], [0.5, 1.0], 4.0, 1, 2)
        y = np.array([0.25, 0.75])
        oracle = (robust.nominal_value, robust.budgeted_value, robust.ellipsoidal_value,
                  robust.perspective_value)
        assert [method_value(m, y, inst) for m in METHODS] == [f(y, inst) for f in oracle]

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

    def test_iteration_cap_returns_best_iterate_and_bound(self, rng, monkeypatch):
        # k = 1: the cheapest vertex is not optimal, so the loop runs
        inst = _random_instance(rng, n=4, k=1)
        monkeypatch.setattr(robust, "_MAX_ITER", 100)
        res = solve_counterpart("budgeted", inst)
        assert res.iterations == 100
        y = res.y_star.y
        assert res.objective == method_value("budgeted", y, inst)
        # the bound is the objective minus the simplex linearization gap at
        # the returned point, a certified lower bound on the optimum
        g = _budgeted_subgradient(robust._budgeted_top(y, inst)[1], inst)
        assert res.objective - res.bound == pytest.approx(float(g @ y - g.min()), rel=1e-12, abs=1e-15)
        points = np.vstack([np.eye(inst.n), rng.dirichlet(np.ones(inst.n), size=200)])
        assert all(res.bound <= budgeted_value(p, inst) for p in points)

    def test_each_iterate_takes_one_top_k_set(self, rng, monkeypatch):
        # the loop's own top-k sets, not its polish's: one per iterate, one
        # per 32 iterates for the average, one each for the start and the gap
        top_k_set, segment_min = robust._topk_set, robust._segment_min
        calls, in_segments = [], []
        monkeypatch.setattr(robust, "_topk_set", lambda *args: calls.append(1) or top_k_set(*args))

        def counted(*args):
            before = len(calls)
            found = segment_min(*args)
            in_segments.append(len(calls) - before)
            return found

        monkeypatch.setattr(robust, "_segment_min", counted)
        monkeypatch.setattr(robust, "_MAX_ITER", 200)
        res = solve_counterpart("budgeted", _random_instance(rng, n=8, k=1))
        assert res.iterations == 200 and in_segments
        assert len(calls) - sum(in_segments) == 200 + 200 // 32 + 2

    @pytest.mark.parametrize("k", [1, 2])
    def test_an_asset_whose_end_overflows_gets_no_weight(self, k):
        # sqrt(b)/d_0 = 1e310 overflows, so the loop runs on asset 1 alone,
        # with no warning (the suite turns them into errors)
        inst = RobustInstance([0.0, 0.1], [1e-310, 1.0], 1.0, k, 2)
        res = solve_counterpart("budgeted", inst)
        assert np.array_equal(res.y_star.y, [0.0, 1.0])
        assert res.objective == budgeted_value(res.y_star, inst) == 1.1
        assert res.bound == 1.1

    def test_one_live_asset_is_its_vertex_without_iterating(self):
        # asset 0's end overflows; asset 1 alone is live, and k = 1 is its count
        inst = RobustInstance([0.0, 0.1], [1e-310, 1.0], 1.0, 1, 2)
        res = solve_counterpart("budgeted", inst)
        assert res.iterations == 0 and np.array_equal(res.y_star.y, [0.0, 1.0])
        assert res.objective == res.bound == 1.1

    def test_k_equal_n_is_the_cheapest_vertex_without_iterating(self):
        # at k = n, ||w||_1 / k <= ||w||_inf, so the least end hi is the optimum
        rng = np.random.default_rng(65)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            inst = RobustInstance(rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 1.0, n),
                                  float(rng.uniform(0.1, 20.0)), n, n)
            ends = inst.a_tilde + math.sqrt(inst.b) / inst.d
            res = solve_counterpart("budgeted", inst)
            assert res.iterations == 0
            assert np.array_equal(res.y_star.y, np.eye(n)[int(np.argmin(ends))])
            scale = float(np.abs(inst.a_tilde).max() + math.sqrt(inst.b) / inst.d.min())
            for value in (res.objective, res.bound):
                assert abs(value - float(ends.min())) <= 4 * math.ulp(scale)

    def test_zero_budget_is_the_nominal_vertex_without_iterating(self):
        config = harness.ExperimentConfig(seed=20260809)
        inst = harness.generate_instance(config.n, 10, 0.0, harness.instance_seed(config.seed, 0, 0, 0))
        res, nominal = solve_counterpart("budgeted", inst), solve_counterpart("nominal", inst)
        assert res.iterations == 0
        assert np.array_equal(res.y_star.y, nominal.y_star.y)
        assert (res.objective, res.bound) == (nominal.objective, nominal.bound)

    def test_dual_solves_do_not_loop(self, rng, monkeypatch):
        monkeypatch.setattr(robust, "_MAX_ITER", 10)
        inst = _random_instance(rng, n=8)
        for method in ("ellipsoidal", "perspective"):
            res = solve_counterpart(method, inst)
            assert res.iterations == 0
            assert res.objective - res.bound <= 1e-12 * max(1.0, abs(res.objective))

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


class TestBudgetedOptimum:
    """The budgeted solve against t* = min(t_inf, t_1) in exact arithmetic
    (``oracles.budgeted_optimum``), on seeded instances at n <= 10 whose
    budget is a dyadic square, so that sqrt(b) is exact."""

    def test_bound_and_objective_bracket_the_optimum(self):
        # objective is within n + k + 2 ulps of its exact value at y
        # (budgeted_value), which is at least t*; bound is objective minus
        # g'y - min g, with g rounded, within 2n + k + 9 ulps of a valid lower
        # bound; both in ulps of s = max |a~| + sqrt(b) / min d, which bounds
        # every term.  Where the vertex test passes, y attains t* exactly.
        rng = np.random.default_rng(66)
        exits = loops = 0
        for _ in range(60):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, n + 1))
            inst = RobustInstance(rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 1.0, n),
                                  (int(rng.integers(1, 33)) / 8.0) ** 2, k, n)
            t_star = oracles.budgeted_optimum(inst)
            res = solve_counterpart("budgeted", inst)
            ulp = Fraction(math.ulp(float(np.abs(inst.a_tilde).max() + math.sqrt(inst.b) / inst.d.min())))
            assert Fraction(res.bound) <= t_star + (2 * n + k + 9) * ulp
            assert t_star <= Fraction(res.objective) + (n + k + 2) * ulp
            if res.iterations == 0:
                exits += 1
                assert oracles.budgeted_value_exact(res.y_star.y, inst)[0] == t_star
            else:
                loops += 1
        assert exits > 0 and loops > 0


def _segments(rng, count):
    """Seeded (inst, y, direction) triples as the budgeted polish walks them:
    from a simplex point toward a vertex or away from a supported coordinate.
    n <= 11 and b = 0 in about one in six; a third lie on a coarse grid, and y
    has zeros or is proportional to d, so ties in y/d and flat pieces are common."""
    triples = []
    while len(triples) < count:
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, n + 1))
        b = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.5, 20.0))
        a, d = rng.uniform(0.0, 1.0, n), rng.uniform(0.1, 1.0, n)
        if rng.random() < 0.3:
            a, d = np.round(4.0 * a) / 4.0, (np.round(2.0 * d) + 1.0) / 4.0
        y = rng.dirichlet(np.ones(n))
        if rng.random() < 0.4:
            y[rng.random(n) < 0.4] = 0.0
            y[0] += float(y.sum() == 0.0)
        elif rng.random() < 0.3:
            y = d.copy()
        y /= y.sum()
        j = int(rng.integers(n))
        if rng.random() < 0.5 or not 0.0 < y[j] < 1.0:
            w = np.eye(n)[j]
        else:
            w = y.copy()
            w[j] = 0.0
            w /= w.sum()
        if np.any(w != y):
            triples.append((RobustInstance(a, d, b, k, n), y, w - y))
    return triples


def _grid_min(inst, y, direction, points=2001):
    """Least budgeted objective over an even grid of t in [0, 1], all points at once."""
    x = y + np.linspace(0.0, 1.0, points)[:, None] * direction
    top = np.sort(x / inst.d, axis=1)[:, inst.n - inst.k:]
    return float((x @ inst.a_tilde + math.sqrt(inst.b) * top.sum(axis=1)).min())


class TestSegmentSearch:
    """robust._segment_min: the exact minimum of the budgeted objective on a segment."""

    def test_matches_golden_section_and_a_dense_grid(self, rng):
        for inst, y, direction in _segments(rng, 400):
            t, value = robust._segment_min(inst, y, direction)
            assert 0.0 <= t <= 1.0
            assert value == budgeted_value(y + t * direction, inst)
            _, golden = oracles.golden_min(lambda s: budgeted_value(y + s * direction, inst), 0.0, 1.0,
                                           iters=200)
            ref = min(golden, _grid_min(inst, y, direction))
            assert value <= ref + 2e-15 * max(1.0, abs(ref))

    def test_optimum_at_either_end(self):
        # b = 0: phi(t) = a~'(y + t dir) falls along e0 -> e1 and rises back
        inst = RobustInstance([1.0, 0.0], [1.0, 1.0], 0.0, 1, 2)
        e0, e1 = np.eye(2)
        assert robust._segment_min(inst, e0, e1 - e0) == (1.0, 0.0)
        assert robust._segment_min(inst, e1, e0 - e1) == (0.0, 0.0)

    def test_interior_kink(self):
        # phi(t) = max(1 - t, t) on e0 -> e1
        inst = RobustInstance([0.0, 0.0], [1.0, 1.0], 1.0, 1, 2)
        e0, e1 = np.eye(2)
        assert robust._segment_min(inst, e0, e1 - e0) == (0.5, 0.5)

    def test_flat_pieces(self):
        # equal costs and b = 0: phi is constant, so t = 0 is certified
        inst = RobustInstance([0.3, 0.3, 0.5], np.ones(3), 0.0, 1, 3)
        e0, e1 = np.eye(3)[:2]
        assert robust._segment_min(inst, e0, e1 - e0) == (0.0, 0.3)
        # y + t dir = (0.7 - 0.7t, 0.3 + 0.1t, 0.6t) with a~ = (0, -1, 0):
        # slopes -0.8, 0 and 0.5 on [0, 0.5], [0.5, 0.6] and [0.6, 1]
        inst = RobustInstance([0.0, -1.0, 0.0], np.ones(3), 1.0, 1, 3)
        y = np.array([0.7, 0.3, 0.0])
        t, value = robust._segment_min(inst, y, np.array([0.0, 0.4, 0.6]) - y)
        assert 0.5 <= t <= 0.6 and value == 0.0

    def test_polish_never_worsens_its_incumbent(self, rng):
        for inst, y, _ in _segments(rng, 60):
            value = budgeted_value(y, inst)
            polished, polished_value = robust._polish(inst, y, value, rounds=2)
            assert polished_value <= value
            assert polished_value == budgeted_value(polished, inst)
            PortfolioPoint(polished)  # raises unless the point is on the simplex

    def test_grid_segment_searches_take_few_top_k_sets(self, monkeypatch):
        # a default-grid budgeted solve (seed 20260809, k = 10, b = 10,
        # instance 0) searches about 650 segments with 1-5 top-k sets each,
        # median 3; a fixed-iteration search takes one per objective value
        top_k_set, segment_min = robust._topk_set, robust._segment_min
        calls, per_segment = [], []
        monkeypatch.setattr(robust, "_topk_set", lambda *args: calls.append(1) or top_k_set(*args))

        def counted(*args):
            calls.clear()
            found = segment_min(*args)
            per_segment.append(len(calls))
            return found

        monkeypatch.setattr(robust, "_segment_min", counted)
        config = harness.ExperimentConfig(seed=20260809)
        inst = harness.generate_instance(config.n, 10, 10.0, harness.instance_seed(config.seed, 1, 1, 0))
        solve_counterpart("budgeted", inst)
        assert len(per_segment) > 100
        assert np.median(per_segment) <= 3 and max(per_segment) <= 8, np.bincount(per_segment)


def _certificate_instances():
    """Seeded instances for the dual-solve certificate checks: n in 1..40,
    b log-uniform in [1e-4, 1e4], every third one on a quarter grid so that
    a~ and d tie, then the edges b = 0, k = n, n = 1, all-equal a~, the
    extreme budgets 5e-324 and 1e300, an overflowing bracket end, squared
    d that underflow (one live asset, or two beside a dead one with the
    largest d), a halved bracket, optima exactly on a breakpoint a~_j,
    every asset active, and all-equal a~ with unequal d at a small
    budget."""
    rng = np.random.default_rng(8080)
    out = []
    for i in range(3000):
        n = int(rng.integers(1, 41))
        k = int(rng.integers(1, n + 1))
        b = float(10.0 ** rng.uniform(-4.0, 4.0))
        a, d = rng.uniform(0.0, 1.0, n), rng.uniform(0.05, 1.0, n)
        if i % 3 == 0:
            a, d = np.round(4.0 * a) / 4.0, np.maximum(np.round(4.0 * d), 1.0) / 4.0
        out.append(RobustInstance(a, d, b, k, n))
    for n in (1, 2, 5, 17, 40):
        a, d = rng.uniform(-1.0, 1.0, n), rng.uniform(0.05, 1.0, n)
        for k in sorted({1, (n + 1) // 2, n}):
            out += [RobustInstance(a, d, b, k, n) for b in (0.0, 5e-324, 1e-4, 3.0, 1e4, 1e300)]
            out += [RobustInstance(np.full(n, 0.25), d, 3.0, k, n),
                    RobustInstance(np.full(n, 0.25), np.full(n, 0.5), 3.0, k, n)]
    # a~ = 0 leaves the whole objective to the budget term
    out += [RobustInstance(np.zeros(3), np.full(3, 0.5), 5e-324, 1, 3),
            RobustInstance(np.zeros(3), np.full(3, 1e-6), 1e300, 1, 3)]
    # sqrt(b)/d_0 overflows, so the search starts from the other vertex
    out.append(RobustInstance(np.array([0.0, 0.5]), np.array([1e-160, 1.0]), 1e300, 1, 2))
    # (d_0 / max d)^2 underflows to 0, and asset 0 alone is active
    out.append(RobustInstance(np.array([0.0, 1e200]), np.array([1e-170, 1.0]), 1.0, 1, 2))
    for k in (2, 3):
        # two live assets whose (d / max d)^2 both underflow; the largest d
        # is on a dead asset, so d is scaled by the largest live one instead
        # (ellipsoidal ignores k; at k = 1 the perspective multiplier gamma*
        # is about 2.5e335, so optimal_multipliers rightly raises there)
        out.append(RobustInstance(np.array([0.0, 0.1, 1e200]), np.array([1e-170, 1e-169, 1.0]),
                                  1.0, k, 3))
    # the first piece's root leaves the bracket, so the search halves it
    out.append(RobustInstance(np.array([-0.142, 0.217, -0.156, -0.162, -0.067, 0.126]),
                              np.array([0.0154, 7.98, 0.0108, 0.0324, 0.00155, 1.58]), 1e-4, 6, 6))
    for k in (1, 2, 3):
        # t* = a~_1 exactly: the cheaper assets alone reach the budget there,
        # in both the l2 and the k = 1 (l1 dual) norm
        out += [RobustInstance(np.array([0.0, 1.0, 5.0]), np.ones(3), 1.0, k, 3),
                RobustInstance(np.array([0.0, 0.5, 2.0]), np.array([0.5, 1.0, 1.0]), 0.0625, k, 3)]
    for k in (1, 3, 6):
        # t* lies above every a~_i, so every asset is active: a large budget,
        # and all-equal a~ with unequal d at a small one
        out += [RobustInstance(np.linspace(0.0, 0.5, 6), np.linspace(0.2, 1.0, 6), 50.0, k, 6),
                RobustInstance(np.full(6, -0.5), np.array([0.1, 1.0, 0.3, 0.3, 0.05, 0.7]), 1e-4, k, 6)]
    return out


class TestDualCertificate:
    """perspective and ellipsoidal are exact dual solves; their bound is
    the dual optimum and no simplex point may beat it."""

    @pytest.fixture(scope="class")
    def solved(self):
        return [(inst, {m: solve_counterpart(m, inst) for m in ("ellipsoidal", "perspective")})
                for inst in _certificate_instances()]

    def test_objective_meets_bound(self, solved):
        for inst, results in solved:
            for res in results.values():
                assert res.iterations == 0
                assert abs(res.objective - res.bound) <= 1e-12 * max(1.0, abs(res.objective))

    def test_objective_meets_bound_within_a_few_ulps(self, solved):
        # t is taken once more from the last piece's own quadratic; a root
        # carried over from a distant piece is off by up to 4e-14
        for _, results in solved:
            for res in results.values():
                assert abs(res.objective - res.bound) <= 4e-15 * max(1.0, abs(res.objective))

    def test_no_vertex_or_sampled_point_beats_bound(self, solved):
        rng = np.random.default_rng(8081)
        for inst, results in solved:
            points = [*np.eye(inst.n), *(oracles.sample_simplex(inst.n, rng) for _ in range(3))]
            for method, res in results.items():
                slack = 1e-14 * max(1.0, abs(res.bound))
                assert all(res.bound <= method_value(method, y, inst) + slack for y in points)

    def test_ellipsoidal_is_perspective_at_full_k(self, solved):
        for inst, results in solved:
            full = RobustInstance(inst.a_tilde, inst.d, inst.b, inst.n, inst.n)
            persp = solve_counterpart("perspective", full)
            ell = results["ellipsoidal"]
            assert abs(persp.objective - ell.objective) <= 1e-12 * max(1.0, abs(ell.objective))
            assert abs(persp.bound - ell.bound) <= 1e-12 * max(1.0, abs(ell.bound))

    def test_multipliers_certify_the_perspective_solution(self, solved):
        # C8's identity at the exact perspective y (undefined for b = 0)
        for inst, results in solved:
            res = results["perspective"]
            if inst.b > 0.0:
                cert = optimal_multipliers(res.y_star, inst)
                obj = certificate_objective(cert, res.y_star, inst)
                assert abs(obj - res.objective) <= 1e-12 * max(1.0, abs(res.objective))

    def test_zero_budget_is_the_nominal_vertex(self, solved):
        for inst, results in solved:
            if inst.b == 0.0:
                nominal = solve_counterpart("nominal", inst)
                for res in results.values():
                    assert np.array_equal(res.y_star.y, nominal.y_star.y)
                    assert res.bound == res.objective == nominal.objective

    def test_repeated_calls_are_byte_identical(self, solved):
        for inst, results in solved[::10]:
            for method, res in results.items():
                again = solve_counterpart(method, inst)
                assert again.y_star.y.tobytes() == res.y_star.y.tobytes()
                assert (again.objective, again.bound) == (res.objective, res.bound)

    @pytest.mark.parametrize("b, d", [(5e-324, 0.5), (1e300, 1e-6)])
    def test_extreme_budgets_are_exact_to_relative_precision(self, b, d):
        # with a~ = 0 and equal d the optimum is the uniform y:
        # sqrt(b) / (3 d) for perspective at k = 1, sqrt(b) / (sqrt(3) d) for ellipsoidal
        inst = RobustInstance(np.zeros(3), np.full(3, d), b, 1, 3)
        expected = {"ellipsoidal": math.sqrt(b) / (math.sqrt(3.0) * d),
                    "perspective": math.sqrt(b) / (3.0 * d)}
        for method, value in expected.items():
            res = solve_counterpart(method, inst)
            assert abs(res.objective - value) <= 1e-12 * value
            assert abs(res.bound - value) <= 1e-12 * value
        # C8 at the perspective solution, the last one solved
        cert = optimal_multipliers(res.y_star, inst)
        assert abs(certificate_objective(cert, res.y_star, inst) - res.objective) <= 1e-12 * res.objective

    @pytest.fixture
    def probe_calls(self, monkeypatch):
        """One entry per evaluation of a piece of the k-support norm."""
        probe = robust._ksupport_probe
        calls = []
        monkeypatch.setattr(robust, "_ksupport_probe", lambda *args: calls.append(1) or probe(*args))
        return calls

    def test_grid_solves_probe_few_pieces(self, probe_calls):
        # on the nine n = 200 cells of the acceptance grid (seed 20260809,
        # instance 0) a perspective solve takes 1-2 piece evaluations, where
        # halving the bracket took about 14; an ellipsoidal solve takes none,
        # as its l2 dual is solved in closed form from one sort of a~
        config = harness.ExperimentConfig(seed=20260809)
        counts = {"perspective": [], "ellipsoidal": []}
        for ki, k in enumerate(config.k_list):
            for bi, b in enumerate(config.b_list):
                inst = harness.generate_instance(config.n, k, b,
                                                 harness.instance_seed(config.seed, ki, bi, 0))
                for method, count in counts.items():
                    probe_calls.clear()
                    solve_counterpart(method, inst)
                    count.append(len(probe_calls))
        persp = counts["perspective"]
        assert np.median(persp) <= 2 and max(persp) <= 8, persp
        assert counts["ellipsoidal"] == [0] * 9

    @pytest.mark.parametrize("method", ["ellipsoidal", "perspective"])
    @pytest.mark.parametrize("d0, b", [(1.0, 0.01), (1.1, 0.02), (0.45, 0.07), (0.3, 0.03)])
    def test_vertex_optimum_takes_at_most_two_probes(self, method, d0, b, probe_calls):
        # only the cheapest asset is active at the optimum sqrt(b)/d0, the
        # right end of the starting bracket, so the first probe's own root is
        # the optimum up to rounding, even when it rounds past that end
        inst = RobustInstance(np.array([0.0, 1.0, 2.0]), np.array([d0, 1.0, 1.0]), b, 1, 3)
        res = solve_counterpart(method, inst)
        assert len(probe_calls) <= 2
        assert np.array_equal(res.y_star.y, [1.0, 0.0, 0.0])
        assert res.bound == pytest.approx(math.sqrt(b) / d0, rel=1e-15, abs=0.0)
        assert res.objective == pytest.approx(math.sqrt(b) / d0, rel=1e-15, abs=0.0)

    def test_tiny_d_keeps_the_bound_below_the_objective(self):
        # at d near 1e-160 the piece quadratics' sums of d^2 would be
        # subnormal without the division by max d, and lose digits
        rng = np.random.default_rng(3)
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, n + 1))
            inst = RobustInstance(1e10 * rng.uniform(0.0, 1.0, n),
                                  1e-160 * rng.uniform(0.05, 1.0, n), 1e-300, k, n)
            for method in ("perspective", "ellipsoidal"):
                res = solve_counterpart(method, inst)
                assert res.bound <= res.objective * (1.0 + 4e-15)

    @pytest.mark.parametrize("method", ["ellipsoidal", "perspective"])
    @pytest.mark.parametrize("a, d, b", [((0.0, 1e17), (1e-18, 1.0), 1.0),
                                         ((0.0, 1e300), (1e-320, 1.0), 1.0),
                                         ((0.0, 0.5), (1e-320, 1.0), 5e-324)])
    def test_hi_set_by_an_asset_that_is_not_live(self, method, a, d, b):
        # a~_1 + sqrt(b)/d_1 rounds to a~_1, so asset 1 sets hi but is not
        # below it; asset 0 alone stays far below the norm at hi, so the
        # optimum rounds to hi at e_1 (y on asset 0 cost 1e18, 0/0 or inf)
        for k in (1, 2):
            res = solve_counterpart(method, RobustInstance(np.array(a), np.array(d), b, k, 2))
            assert np.array_equal(res.y_star.y, [0.0, 1.0])
            assert math.isfinite(res.objective)
            assert res.bound <= res.objective * (1.0 + 4e-15)

    @pytest.mark.parametrize("method", ["budgeted", "ellipsoidal", "perspective"])
    def test_overflowing_objective_raises(self, method):
        # every bracket end a~_i + sqrt(b)/d_i overflows; the optimum is about 5e309
        inst = RobustInstance(np.zeros(2), np.full(2, 1e-160), 1e300, 1, 2)
        with pytest.raises(ValueError, match="objective overflows the float range"):
            solve_counterpart(method, inst)

    def test_budgeted_and_nominal_bounds_are_lower_bounds(self, rng):
        for _ in range(10):
            inst = _random_instance(rng)
            for method in ("nominal", "budgeted"):
                res = solve_counterpart(method, inst)
                assert res.bound <= res.objective
                assert all(res.bound <= method_value(method, e, inst) for e in np.eye(inst.n))
            # budgeted loops unless its cheapest vertex passes the dual-norm test
            assert res.iterations > 0 or np.count_nonzero(res.y_star.y) == 1
            nominal = solve_counterpart("nominal", inst)
            assert (nominal.bound, nominal.iterations) == (nominal.objective, 0)
