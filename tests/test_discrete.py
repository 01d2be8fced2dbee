import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseball.core import (
    DEFAULT_TOL,
    MixedPoint,
    ProblemInstance,
    ZFamily,
    enumerate_Z,
    is_in_X,
    scale_back,
)
from sparseball.discrete import (
    BRUTEFORCE_GUARD,
    discrete_objective,
    solve_discrete_bruteforce,
    solve_discrete_sort,
    support_value,
)
from sparseball.hull import (
    base_inequality,
    c_alpha_membership,
    g_value,
    p0_membership,
    reported_cuts,
    rho,
    separate_submodular,
    solve_relaxation,
    submodular_cut_1,
    submodular_cut_2,
    violated_cuts,
)
from sparseball.robust import RobustInstance, ellipsoidal_value, perspective_value

import oracles


def _inst(a, c, zfam=None):
    a = np.asarray(a, dtype=float)
    if zfam is None:
        zfam = ZFamily.free(a.size)
    return ProblemInstance(a, np.asarray(c, dtype=float), zfam)


class TestSupportValue:
    def test_empty_support(self):
        sol = support_value((), _inst([1.0], [5.0]))
        assert sol.value == 0.0
        assert np.array_equal(sol.x_opt, [0.0])

    def test_unit_problem(self):
        sol = support_value((0,), _inst([1.0], [0.0]))
        assert sol.value == -1.0
        assert np.array_equal(sol.x_opt, [-1.0])

    def test_three_four_example(self):
        sol = support_value((0, 1), _inst([3.0, 4.0], [1.0, 1.0]))
        assert sol.value == pytest.approx(-3.0, abs=1e-12)
        assert np.allclose(sol.x_opt, [-0.6, -0.8])
        oracle = oracles.min_linear_on_ball([3.0, 4.0], offset=2.0)
        assert abs(sol.value - oracle) <= 1e-3

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            support_value((2,), _inst([1.0, 1.0], [0.0, 0.0]))

    def test_zero_direction_gives_zero_x(self):
        sol = support_value((0,), _inst([0.0, 1.0], [2.0, 0.0]))
        assert sol.value == 2.0
        assert np.array_equal(sol.x_opt, [0.0, 0.0])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_matches_support_objective_and_attains_inner_min(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        inst = _inst(rng.normal(size=n), rng.normal(size=n))
        size = int(rng.integers(0, n + 1))
        S = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        sol = support_value(S, inst)
        z = np.zeros(n)
        z[list(S)] = 1.0
        ref = discrete_objective(z, inst.a, inst.c)
        assert sol.value == pytest.approx(ref, rel=1e-12, abs=1e-12)
        # the minimizer closes the inner bound: a'x = -sqrt(sum_{i in S} a_i^2)
        inner = float(inst.a @ sol.x_opt)
        target = -math.sqrt(float(np.sum(inst.a[list(S)] ** 2)))
        assert inner == pytest.approx(target, rel=1e-12, abs=1e-12)
        assert np.linalg.norm(sol.x_opt) <= 1.0 + 1e-12


class TestBruteforce:
    def test_costly_activation_stays_off(self):
        sol = solve_discrete_bruteforce(_inst([1.0], [10.0]))
        assert sol.value == 0.0
        assert np.array_equal(sol.z_opt, [0.0])

    def test_profitable_activation(self):
        sol = solve_discrete_bruteforce(_inst([1.0], [-1.0]))
        assert sol.value == -2.0
        assert np.array_equal(sol.z_opt, [1.0])

    def test_solution_is_feasible_and_matches_grid(self, rng):
        for _ in range(25):
            n = 3
            inst = _inst(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
            sol = solve_discrete_bruteforce(inst)
            assert is_in_X(MixedPoint(sol.x_opt, sol.z_opt), inst.zfam)
            # grid oracle: every activation pattern paired with a ball grid search
            best = math.inf
            for z in oracles.all_binary_vectors(n):
                support = np.flatnonzero(z > 0.5)
                best = min(best, oracles.min_linear_on_ball(
                    inst.a[support], offset=float(inst.c[support].sum())))
            assert abs(sol.value - best) <= 1e-3

    def test_lexicographic_tie_break(self):
        # supports {1} and {0,1} tie at -3; z=(0,1) is lexicographically smaller
        sol = solve_discrete_bruteforce(_inst([3.0, 4.0], [1.0, 1.0]))
        assert np.array_equal(sol.z_opt, [0.0, 1.0])

    def test_sign_flip_invariance(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=n)
            c = rng.normal(size=n)
            flips = rng.choice([-1.0, 1.0], size=n)
            v1 = solve_discrete_bruteforce(_inst(a, c)).value
            v2 = solve_discrete_bruteforce(_inst(a * flips, c)).value
            assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)

    def test_cardinality_families(self, rng):
        for kind in ("card_le", "card_eq"):
            for _ in range(10):
                n = int(rng.integers(2, 9))
                k = int(rng.integers(1, n + 1))
                fam = ZFamily(kind, n, k)
                inst = _inst(rng.normal(size=n), rng.normal(size=n), fam)
                sol = solve_discrete_bruteforce(inst)
                assert is_in_X(MixedPoint(sol.x_opt, sol.z_opt), fam)
                # independent enumeration of the same family
                best = min(
                    discrete_objective(z, inst.a, inst.c)
                    for z in oracles.family_members(kind, n, k)
                )
                assert sol.value <= best + 1e-12


@st.composite
def _tied_instances(draw):
    """Instances on a half-integer grid, so every sum is exact and ties are
    exact too; zeroed and duplicated coordinates make them common."""
    n = draw(st.integers(1, 13))
    kind = draw(st.sampled_from(["free", "card_le", "card_eq"]))
    k = None if kind == "free" else draw(st.integers(1, n))
    entries = st.integers(-4, 4).map(lambda v: v / 2.0)
    a = draw(st.lists(entries, min_size=n, max_size=n))
    c = draw(st.lists(entries, min_size=n, max_size=n))
    for vec in (a, c):
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            vec[i] = 0.0
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
            vec[i] = vec[j]
    return ProblemInstance(a, c, ZFamily(kind, n, k))


def _first_lexicographic_minimizer(inst):
    best_z, best = None, math.inf
    for z in oracles.family_members(inst.zfam.kind, inst.n, inst.zfam.k):
        value = discrete_objective(z, inst.a, inst.c)
        if value < best:
            best_z, best = z, value
    return best_z


class TestBruteforceScan:
    @given(_tied_instances())
    @settings(max_examples=300)
    def test_returns_first_lexicographic_minimizer(self, inst):
        sol = solve_discrete_bruteforce(inst)
        assert np.array_equal(sol.z_opt, _first_lexicographic_minimizer(inst))
        assert is_in_X(MixedPoint(sol.x_opt, sol.z_opt), inst.zfam)

    @pytest.mark.parametrize("fam", [
        ZFamily.free(BRUTEFORCE_GUARD),
        ZFamily.card_le(BRUTEFORCE_GUARD, BRUTEFORCE_GUARD // 2),
        ZFamily.card_eq(BRUTEFORCE_GUARD, BRUTEFORCE_GUARD // 2),
    ], ids=lambda fam: fam.kind)
    def test_guard_limit_is_safe_in_memory(self, fam, rng):
        n = fam.n
        a = rng.normal(size=n)
        inst = _inst(a, rng.normal(size=n), fam)
        # a cold solve: no cached halves, and a fresh thread makes its own block buffers
        enumerate_Z.cache_clear()
        solved = []
        worker = threading.Thread(target=lambda: solved.append(solve_discrete_bruteforce(inst)))
        tracemalloc.start()
        try:
            worker.start()
            worker.join(timeout=60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not worker.is_alive()
        (sol,) = solved
        assert peak < 32 * 2**20
        assert is_in_X(MixedPoint(sol.x_opt, sol.z_opt), fam)
        # with zero activation costs the optimum is known in closed form:
        # every coordinate (free) or the k largest |a_i| (cardinality)
        ref = solve_discrete_bruteforce(_inst(a, np.zeros(n), fam))
        if fam.kind == "free":
            assert np.array_equal(ref.z_opt, np.ones(n))
        else:
            assert np.array_equal(ref.z_opt, solve_discrete_sort(a, fam.k).z_opt)

    @pytest.mark.parametrize("fam", [ZFamily.free(22), ZFamily.card_eq(24, 5)],
                             ids=lambda fam: fam.kind)
    def test_concurrent_solves_match_serial_bits(self, fam, rng):
        insts = [_inst(rng.normal(size=fam.n), rng.normal(size=fam.n), fam) for _ in range(6)]
        serial = [solve_discrete_bruteforce(inst) for inst in insts]
        solved = [[] for _ in range(4)]

        def solve_all(out, shift):
            for i in range(shift, shift + len(insts)):
                i %= len(insts)
                out.append((i, solve_discrete_bruteforce(insts[i])))

        workers = [threading.Thread(target=solve_all, args=(out, shift)) for shift, out in enumerate(solved)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for out in solved:
            assert len(out) == len(insts)
            for i, sol in out:
                assert np.array_equal(sol.z_opt, serial[i].z_opt)
                assert sol.value.hex() == serial[i].value.hex()

    def test_guard(self):
        n = BRUTEFORCE_GUARD + 1
        with pytest.raises(ValueError, match="guarded to n <= 24"):
            solve_discrete_bruteforce(_inst(np.ones(n), np.zeros(n)))


_SCALES = pytest.mark.parametrize("s", [1e160, 1e-160, 1e-170, 2.0 ** 600, 2.0 ** -600],
                                  ids=["1e160", "1e-160", "1e-170", "2^600", "2^-600"])


class TestScale:
    """a = (3, -4, 1) s and c = (0.5, 0.2, 0.1) s, where a^2 over- or
    underflows: the solvers score on the data divided by a power of two, so
    every scale gives the unit-scale z and s times the unit value (warnings
    fail the suite)."""

    @_SCALES
    @pytest.mark.parametrize("fam", [ZFamily.free(3), ZFamily.card_le(3, 1), ZFamily.card_eq(3, 2)],
                             ids=lambda fam: fam.kind)
    def test_bruteforce_at_extreme_scales(self, fam, s):
        a, c = np.array([3.0, -4.0, 1.0]), np.array([0.5, 0.2, 0.1])
        unit = solve_discrete_bruteforce(_inst(a, c, fam))
        sol = solve_discrete_bruteforce(_inst(a * s, c * s, fam))
        assert np.array_equal(sol.z_opt, unit.z_opt)
        assert sol.value == pytest.approx(s * unit.value, rel=1e-15, abs=0.0)
        assert np.allclose(sol.x_opt, unit.x_opt, rtol=1e-15, atol=0.0)

    @_SCALES
    def test_sort_at_extreme_scales(self, s):
        a = np.array([3.0, -4.0, 1.0])
        for k in (1, 2, 3):
            unit = solve_discrete_sort(a, k)
            sol = solve_discrete_sort(a * s, k)
            assert np.array_equal(sol.z_opt, unit.z_opt)
            assert sol.value == pytest.approx(s * unit.value, rel=1e-15, abs=0.0)

    @_SCALES
    @pytest.mark.parametrize("fam", [ZFamily.free(3), ZFamily.card_le(3, 1), ZFamily.card_eq(3, 2)],
                             ids=lambda fam: fam.kind)
    def test_relaxation_at_extreme_scales(self, fam, s):
        # the free unit optimum is tied along z_2, so z_bar may move there by rounding
        a, c = np.array([3.0, -4.0, 1.0]), np.array([0.5, 0.2, 0.1])
        unit = solve_relaxation(_inst(a, c, fam))
        sol = solve_relaxation(_inst(a * s, c * s, fam))
        assert np.allclose(sol.z_bar, unit.z_bar, rtol=0.0, atol=1e-12)
        assert np.array_equal(sol.rounded_z, unit.rounded_z)
        assert sol.fractional_count == unit.fractional_count
        assert sol.value == pytest.approx(s * unit.value, rel=1e-15, abs=0.0)
        assert sol.rounded_value == pytest.approx(s * unit.value, rel=1e-15, abs=0.0)
        exact = solve_discrete_bruteforce(_inst(a * s, c * s, fam))
        assert sol.rounded_value == pytest.approx(exact.value, rel=1e-15, abs=0.0)

    @_SCALES
    def test_objective_at_extreme_scales(self, s):
        a, c = np.array([3.0, -4.0, 1.0]), np.array([0.5, 0.2, 0.1])
        for z in ([1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.25, 1.0]):
            expected = s * discrete_objective(z, a, c)
            assert discrete_objective(z, a * s, c * s) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @_SCALES
    @pytest.mark.parametrize("mode", ["heuristic", "exact"])
    def test_separation_at_extreme_scales(self, mode, s):
        # alpha = (3, -4, 1) s at x = (0.5, 0.5, 0), z = (0.3, 0.3, 0): the
        # scores and cuts are s times the unit-scale ones, and a cut is
        # reported while its violation exceeds the absolute feas_abs
        p = MixedPoint([0.5, 0.5, 0.0], [0.3, 0.3, 0.0])
        alpha = np.array([3.0, -4.0, 1.0])
        unit_sets, unit_scores = violated_cuts(p, alpha, mode)
        sets, scores = violated_cuts(p, alpha * s, mode)
        assert np.allclose(scores / s, unit_scores, rtol=1e-14, atol=1e-14)
        for row in range(scores.shape[0]):
            assert np.array_equal(sets(row), unit_sets(row))
        units = list(reported_cuts(p, alpha, mode))
        assert units and separate_submodular(p, alpha, mode) is not None
        expected = [u for u in units if s * u.violation_at(p) > DEFAULT_TOL.feas_abs]
        cuts = list(reported_cuts(p, alpha * s, mode))
        first = separate_submodular(p, alpha * s, mode)
        assert len(cuts) == len(expected) and (first is None) == (not expected)
        for cut, unit in zip(cuts + [first] * bool(expected), expected + expected[:1]):
            assert np.array_equal(cut.pi_abs, np.abs(alpha * s))
            assert np.allclose(cut.rho_z / s, unit.rho_z, rtol=1e-14, atol=1e-14)
            assert cut.rhs / s == pytest.approx(unit.rhs, rel=1e-14, abs=1e-14)

    @staticmethod
    def _unit_data(v, s):
        """(k, v / 2**k) for the power of two 2**k nearest s: v * s rounds where s
        is not a power of two, and a marginal that cancels, as rho_2({0, 1}) =
        5.099 - 5 does, amplifies that rounding, so the unit-scale reference
        is taken on the scaled data itself, divided exactly."""
        k = round(math.log2(s))
        return k, np.ldexp(v * s, -k)

    @_SCALES
    def test_set_function_at_extreme_scales(self, s):
        alpha = np.array([3.0, -4.0, 1.0])
        k, unit = self._unit_data(alpha, s)
        for S in ([], [0], [1, 2], [0, 1, 2]):
            assert g_value(S, alpha * s) == pytest.approx(math.ldexp(g_value(S, unit), k), rel=1e-15, abs=0.0)
            assert g_value(S, alpha * s) == pytest.approx(s * g_value(S, alpha), rel=1e-15, abs=0.0)
        for i, S in ((0, []), (1, [0]), (2, [0, 1]), (0, [1, 2])):
            expected = math.ldexp(rho(i, S, unit), k)
            assert rho(i, S, alpha * s) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @_SCALES
    @pytest.mark.parametrize("cut", [submodular_cut_1, submodular_cut_2, base_inequality],
                             ids=lambda cut: cut.__name__)
    def test_cut_generators_at_extreme_scales(self, cut, s):
        alpha = np.array([3.0, -4.0, 1.0])
        k, unit_alpha = self._unit_data(alpha, s)
        for S in ([], [0], [1, 2], [0, 1, 2]):
            unit, scaled = cut(S, unit_alpha), cut(S, alpha * s)
            assert np.array_equal(scaled.pi_abs, np.abs(alpha * s))
            assert np.allclose(scaled.rho_z, np.ldexp(unit.rho_z, k), rtol=1e-15, atol=0.0)
            assert scaled.rhs == pytest.approx(math.ldexp(unit.rhs, k), rel=1e-15, abs=0.0)

    @_SCALES
    @pytest.mark.parametrize("member", [p0_membership, c_alpha_membership],
                             ids=lambda member: member.__name__)
    def test_memberships_at_extreme_scales(self, member, s):
        # sum |alpha_i x_i| = 1.8 s against sqrt(sum alpha_i^2 z_i) = 1.41 s:
        # outside at every scale but by the absolute feas_abs, so inside
        # once 0.39 s <= 1e-9
        p, fam = MixedPoint([0.9, 0.9], [1.0, 1.0]), ZFamily.free(2)
        assert not member(p, [1.0, 1.0], fam)
        expected = s * (1.8 - math.sqrt(2.0)) <= DEFAULT_TOL.feas_abs
        assert member(p, [s, s], fam) == expected
        inside = MixedPoint([0.5, 0.5], [1.0, 1.0])
        assert member(inside, [s, s], fam) and member(inside, [1.0, 1.0], fam)

    @_SCALES
    def test_support_value_at_extreme_scales(self, s):
        a, c = np.array([3.0, -4.0, 1.0]), np.array([0.5, 0.2, 0.1])
        for S in ([], [0], [1, 2], [0, 1, 2]):
            unit, sol = support_value(S, _inst(a, c)), support_value(S, _inst(a * s, c * s))
            assert sol.value == pytest.approx(s * unit.value, rel=1e-15, abs=0.0)
            assert np.allclose(sol.x_opt, unit.x_opt, rtol=1e-15, atol=0.0)

    @_SCALES
    @pytest.mark.parametrize("value", [perspective_value, ellipsoidal_value],
                             ids=lambda value: value.__name__)
    def test_robust_objectives_at_extreme_scales(self, value, s):
        # a~ times s and d over s scale both terms of a~'y + sqrt(b) ||.|| by s
        a, d, y = np.array([0.3, -0.2, 0.1]), np.array([0.5, 1.0, 0.25]), np.array([0.2, 0.5, 0.3])
        for b, k in ((1.0, 1), (2.0, 2), (0.5, 3)):
            unit = value(y, RobustInstance(a, d, b, k, 3))
            scaled = value(y, RobustInstance(a * s, d / s, b, k, 3))
            assert scaled == pytest.approx(s * unit, rel=1e-15, abs=0.0)

    def test_unit_scale_optima(self):
        a, c = [3.0, -4.0, 1.0], [0.5, 0.2, 0.1]
        assert solve_discrete_bruteforce(_inst(a, c)).z_opt.tolist() == [1.0, 1.0, 0.0]
        sol = solve_discrete_bruteforce(_inst(a, c, ZFamily.card_eq(3, 2)))
        assert sol.z_opt.tolist() == [1.0, 1.0, 0.0]
        assert sol.value == pytest.approx(-4.3, rel=1e-15, abs=0.0)


class TestPastTheFloatRange:
    """a = 1.5e308: every square of a over- and every sum of them is past
    the float range, but each result comes back finite where it is finite
    and as +-inf where it is not (core.scale_back), never as an error."""

    A = np.full(3, 1.5e308)

    def test_support_value_and_objective(self):
        inst = _inst(self.A, np.zeros(3))
        assert support_value([0, 1, 2], inst).value == -math.inf
        assert np.allclose(support_value([0, 1, 2], inst).x_opt, -1.0 / math.sqrt(3.0), rtol=1e-15, atol=0.0)
        assert support_value([1], inst).value == -1.5e308
        assert discrete_objective(np.ones(3), self.A, np.zeros(3)) == -math.inf
        assert discrete_objective([0.0, 1.0, 0.0], self.A, np.zeros(3)) == -1.5e308

    @pytest.mark.parametrize("fam, value", [(ZFamily.free(3), -math.inf), (ZFamily.card_le(3, 1), -1.5e308),
                                            (ZFamily.card_eq(3, 2), -math.inf)],
                             ids=lambda v: getattr(v, "kind", ""))
    def test_exact_and_relaxed_solves(self, fam, value):
        inst = _inst(self.A, np.zeros(3), fam)
        sol = solve_discrete_bruteforce(inst)
        assert sol.value == value and fam.contains(sol.z_opt)
        relaxed = solve_relaxation(inst)
        assert relaxed.value == value and relaxed.rounded_value == value
        assert fam.contains(relaxed.rounded_z)

    @pytest.mark.parametrize("member", [p0_membership, c_alpha_membership],
                             ids=lambda member: member.__name__)
    def test_memberships_compare_past_the_range(self, member):
        # sum |alpha_i x_i| against sqrt(sum alpha_i^2 z_i): 2.7e308 > 2.1e308
        # at x = 0.9, 1.5e308 < 2.1e308 at x = 0.5, both sides inf unscaled
        fam, alpha = ZFamily.free(2), self.A[:2]
        assert not member(MixedPoint([0.9, 0.9], [1.0, 1.0]), alpha, fam)
        assert member(MixedPoint([0.5, 0.5], [1.0, 1.0]), alpha, fam)
        # sum |alpha_i x_i| = 4e308 against 2 at alpha = 1
        assert not member(MixedPoint(np.full(4, 1e308), np.ones(4)), np.ones(4), ZFamily.free(4))

    @pytest.mark.parametrize("mode, infinite", [("heuristic", 9), ("exact", 14910)])
    def test_separation_past_the_range(self, mode, infinite):
        # the scores are those at alpha / 2**10 scaled back, +inf past the range
        p, alpha = MixedPoint(np.full(16, 0.2), np.full(16, 0.1)), np.full(16, 1.5e308)
        _, violations = violated_cuts(p, alpha, mode)
        _, small = violated_cuts(p, alpha / 1024.0, mode)
        assert np.count_nonzero(violations == math.inf) == infinite
        assert np.array_equal(violations, scale_back(small, 10))
        # the top candidate is the empty set's family-1 cut, sum |alpha_i x_i|
        # <= sum |alpha_i| z_i, violated by 2.4e308: past the range, not inf - inf
        cut = separate_submodular(p, alpha, mode)
        assert cut.rhs == 0.0 and np.array_equal(cut.rho_z, -alpha)
        assert cut.violation_at(p) == math.inf
        assert next(reported_cuts(p, alpha, mode)).rhs == cut.rhs

    def test_set_function_and_cuts(self):
        alpha = np.full(16, 1.5e308)
        assert g_value([0, 1, 2], alpha) == math.inf and g_value([0], alpha) == 1.5e308
        # a difference of square roots, exact to a few ulps of g
        assert rho(2, [0, 1], alpha) == pytest.approx((math.sqrt(3.0) - math.sqrt(2.0)) * 1.5e308,
                                                      rel=1e-14, abs=0.0)
        # g(N) - sum_i rho_i(N - i) is about 2 |alpha_i| at n = 16
        for cut in (submodular_cut_1, submodular_cut_2, base_inequality):
            built = cut(range(16), alpha)
            assert built.rhs == math.inf and np.all(np.isfinite(built.rho_z))


class TestSort:
    def test_single_largest(self):
        sol = solve_discrete_sort([3.0, 4.0, 0.0], 1)
        assert np.array_equal(sol.z_opt, [0.0, 1.0, 0.0])
        assert sol.value == -4.0

    def test_full_support(self):
        sol = solve_discrete_sort([1.0, 1.0], 2)
        assert sol.value == pytest.approx(-math.sqrt(2.0), abs=1e-15)

    def test_smallest_index_tie_break(self):
        sol = solve_discrete_sort([2.0, -2.0, 1.0], 1)
        assert np.array_equal(sol.z_opt, [1.0, 0.0, 0.0])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            solve_discrete_sort([1.0, 2.0], 3)

    def test_k_accepts_numpy_integers_and_rejects_bool(self):
        assert np.array_equal(solve_discrete_sort([1.0, 2.0], np.int64(1)).z_opt, [0.0, 1.0])
        with pytest.raises(ValueError, match="k must be an integer"):
            solve_discrete_sort([1.0, 2.0], True)

    def test_matches_bruteforce(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, n + 1))
            a = rng.normal(size=n)
            sol = solve_discrete_sort(a, k)
            ref = solve_discrete_bruteforce(_inst(a, np.zeros(n), ZFamily.card_eq(n, k)))
            assert sol.value == ref.value
            assert np.array_equal(sol.z_opt, ref.z_opt)

    def test_permutation_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            a = rng.normal(size=n)
            perm = rng.permutation(n)
            v1 = solve_discrete_sort(a, k)
            v2 = solve_discrete_sort(a[perm], k)
            assert v1.value == pytest.approx(v2.value, rel=1e-12, abs=1e-15)
            assert np.array_equal(v1.z_opt[perm], v2.z_opt)
