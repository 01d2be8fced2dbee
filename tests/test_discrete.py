import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseball.core import ENUMERATION_GUARD, MixedPoint, ProblemInstance, ZFamily, is_in_X
from sparseball.discrete import (
    discrete_objective,
    solve_discrete_bruteforce,
    solve_discrete_sort,
    support_value,
)

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
    n = draw(st.integers(1, 10))
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
        ZFamily.free(ENUMERATION_GUARD),
        ZFamily.card_le(ENUMERATION_GUARD, ENUMERATION_GUARD // 2),
        ZFamily.card_eq(ENUMERATION_GUARD, ENUMERATION_GUARD // 2),
    ], ids=lambda fam: fam.kind)
    def test_guard_limit_is_safe_in_memory(self, fam, rng):
        n = fam.n
        a = rng.normal(size=n)
        tracemalloc.start()
        try:
            sol = solve_discrete_bruteforce(_inst(a, rng.normal(size=n), fam))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert is_in_X(MixedPoint(sol.x_opt, sol.z_opt), fam)
        # with zero activation costs the optimum is known in closed form:
        # every coordinate (free) or the k largest |a_i| (cardinality)
        ref = solve_discrete_bruteforce(_inst(a, np.zeros(n), fam))
        if fam.kind == "free":
            assert np.array_equal(ref.z_opt, np.ones(n))
        else:
            assert np.array_equal(ref.z_opt, solve_discrete_sort(a, fam.k).z_opt)

    def test_guard(self):
        n = ENUMERATION_GUARD + 1
        with pytest.raises(ValueError, match="guarded to n <= 24"):
            solve_discrete_bruteforce(_inst(np.ones(n), np.zeros(n)))


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
