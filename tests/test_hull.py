import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseball.core import DEFAULT_TOL, MixedPoint, ProblemInstance, ZFamily
from sparseball import core, hull
from sparseball.discrete import discrete_objective, solve_discrete_bruteforce, support_value
from sparseball.hull import (
    LinearCut,
    base_inequality,
    c_alpha_membership,
    cardinality_cut,
    find_violating_alpha,
    g_value,
    p0_membership,
    perspective_membership,
    perspective_sum,
    quad_reformulate,
    reported_cuts,
    rho,
    separate_submodular,
    solve_relaxation,
    submodular_cut_1,
    submodular_cut_2,
    violated_cuts,
)

import oracles


def _p0_vertices(alpha, members):
    """Vertex list of the weighted-inequality set: for each binary z, the
    signed extreme points +-(g_z/|alpha_i|) e_i plus the origin."""
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.size
    pts = []
    nz = np.flatnonzero(alpha != 0.0)
    for z in members:
        g_z = math.sqrt(float((alpha ** 2) @ z))
        pts.append((np.zeros(n), z))
        for i in nz:
            for sign in (1.0, -1.0):
                x = np.zeros(n)
                x[i] = sign * g_z / abs(alpha[i])
                pts.append((x, z))
    return pts


class TestGAndRho:
    def test_g_empty(self):
        assert g_value((), [3.0, 4.0]) == 0.0

    def test_g_pythagorean(self):
        assert g_value((0, 1), [3.0, 4.0]) == 5.0

    def test_rho_of_empty_is_abs(self):
        assert rho(0, (), [3.0, -4.0]) == 3.0
        assert rho(1, (), [3.0, -4.0]) == 4.0

    def test_rho_drop_example(self):
        assert rho(0, (1,), [3.0, 4.0]) == 1.0  # 5 - 4

    def test_rho_rejects_member(self):
        with pytest.raises(ValueError):
            rho(0, (0,), [1.0, 1.0])

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=50)
    def test_submodularity_spot_check(self, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.normal(size=2)
        assert g_value((0,), alpha) + g_value((1,), alpha) >= g_value((0, 1), alpha) + g_value((), alpha) - 1e-12

    def test_rho_nonincreasing_exhaustive(self, rng):
        # rho_i(S) >= rho_i(T) for S subset of T, every pair, n <= 8
        for _ in range(5):
            n = int(rng.integers(2, 9))
            alpha = rng.normal(size=n)
            for T_mask in range(2 ** n):
                T = [i for i in range(n) if T_mask >> i & 1]
                # iterate submasks of T_mask
                S_mask = T_mask
                while True:
                    S = [i for i in range(n) if S_mask >> i & 1]
                    for i in range(n):
                        if not T_mask >> i & 1:
                            assert rho(i, S, alpha) >= rho(i, T, alpha) - 1e-9
                    if S_mask == 0:
                        break
                    S_mask = (S_mask - 1) & T_mask


_BAD_INDEX_CALLS = {
    "g_value-float": lambda: g_value((1.7,), [3.0, 4.0]),
    "rho-float-i": lambda: rho(0.9, (1,), [3.0, 4.0]),
    "rho-float-S": lambda: rho(0, (1.2,), [3.0, 4.0]),
    "rho-bool-i": lambda: rho(True, (), [3.0, 4.0]),
    "cut1-bool": lambda: submodular_cut_1([True], [3.0, 4.0]),
    "cut2-float": lambda: submodular_cut_2([0.0], [3.0, 4.0]),
    "base-bool-array": lambda: base_inequality(np.array([True, False]), [3.0, 4.0]),
    "support-float": lambda: support_value(
        (0.7, 1.9), ProblemInstance([3.0, 4.0], [0.0, 0.0], ZFamily.free(2))),
}


class TestIndexSets:
    @pytest.mark.parametrize("name", sorted(_BAD_INDEX_CALLS))
    def test_non_integer_indices_are_rejected(self, name):
        with pytest.raises(ValueError, match="integer"):
            _BAD_INDEX_CALLS[name]()

    def test_numpy_integer_indices_match_plain_ones(self):
        alpha = [3.0, -4.0, 1.0]
        S = np.flatnonzero([1, 0, 1])
        assert g_value(S, alpha) == g_value((0, 2), alpha)
        assert rho(np.int64(1), S, alpha) == rho(1, [0, 2], alpha)
        for make in (submodular_cut_1, submodular_cut_2, base_inequality):
            assert make(S, alpha).to_dict() == make([2, 0], alpha).to_dict()
        assert submodular_cut_1(np.array([], dtype=int), alpha).to_dict() == \
            submodular_cut_1((), alpha).to_dict()


class TestCutGenerators:
    def test_cut1_empty_set(self):
        # S = {} reads sum |alpha_i x_i| <= sum |alpha_i| z_i
        cut = submodular_cut_1((), [3.0, -4.0])
        assert np.array_equal(cut.pi_abs, [3.0, 4.0])
        assert np.array_equal(cut.rho_z, [-3.0, -4.0])
        assert cut.rhs == 0.0

    def test_cut1_full_set_has_no_outside_terms(self):
        alpha = np.array([3.0, 4.0])
        cut = submodular_cut_1((0, 1), alpha)
        # rhs = g(N) - sum rho_i(N - i); coefficients are the drop marginals
        drop0 = 5.0 - 4.0
        drop1 = 5.0 - 3.0
        assert cut.rhs == pytest.approx(5.0 - drop0 - drop1, abs=0.0)
        assert np.allclose(cut.rho_z, [-drop0, -drop1])

    def test_cut2_equals_cut1_at_full_set(self):
        alpha = np.array([1.0, 2.0, -2.0])
        c1 = submodular_cut_1((0, 1, 2), alpha)
        c2 = submodular_cut_2((0, 1, 2), alpha)
        assert np.allclose(c1.rho_z, c2.rho_z)
        assert c1.rhs == pytest.approx(c2.rhs, abs=0.0)

    def test_base_inequality_example(self):
        cut = base_inequality((0,), [1.0, 1.0])
        assert np.array_equal(cut.pi_abs, [1.0, 1.0])
        assert np.array_equal(cut.rho_z, [-1.0, 0.0])
        assert cut.rhs == 0.0

    def test_base_equals_cut1_at_full_set(self):
        alpha = np.array([0.5, -1.5, 2.0])
        b = base_inequality((0, 1, 2), alpha)
        c1 = submodular_cut_1((0, 1, 2), alpha)
        assert np.allclose(b.rho_z, c1.rho_z)
        assert b.rhs == pytest.approx(c1.rhs, abs=0.0)

    def test_cuts_and_rho_match_g_values(self, rng):
        # against oracles that take every marginal from math.fsum set sums
        # and differences of square roots.  An added marginal sqrt(q + a_i^2)
        # - sqrt(q) is off by a few ulps of g(N), and so is a dropped one: it
        # adds i back to the rest of the set, summed from nonnegative terms,
        # so the rest (here entries near 1e-8) is kept even with a_i^2 near
        # q.  rhs adds up to n dropped marginals.
        makers = {1: submodular_cut_1, 2: submodular_cut_2, "base": base_inequality}
        eps = np.finfo(float).eps
        for _ in range(300):
            n = int(rng.integers(1, 13))
            alpha = rng.normal(size=n)
            alpha[rng.random(n) < 0.2] = 0.0
            alpha[rng.random(n) < 0.2] = 1e-8 * rng.uniform(0.5, 2.0)
            alpha[rng.random(n) < 0.3] = alpha[0]
            S = np.flatnonzero(rng.random(n) < 0.5)
            g_N = oracles.g_fsum(range(n), alpha)
            added = dropped = 8 * (n + 1) * eps * g_N
            in_S = np.isin(np.arange(n), S)
            for family, make in makers.items():
                cut = make(S, alpha)
                rho_z, rhs = oracles.cut_from_g(S, alpha, family)
                assert np.array_equal(cut.pi_abs, np.abs(alpha))
                assert np.all(np.abs(cut.rho_z - rho_z) <= np.where(in_S, dropped, added))
                assert abs(cut.rhs - rhs) <= n * dropped
            for i in np.flatnonzero(~in_S):
                assert abs(rho(i, S, alpha) - oracles.rho_from_g(i, S, alpha)) <= added

    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                              st.one_of(st.floats(0.0, 1.0), st.integers(1, 2**52 - 1).map(lambda k: k * 5e-324)),
                              st.booleans()), min_size=1, max_size=8),
           st.sampled_from([-600, 0, 600]), st.sampled_from([-600, 0, 600]),
           st.sampled_from([submodular_cut_1, submodular_cut_2, base_inequality]))
    @settings(max_examples=400)
    def test_lhs_is_within_n_plus_1_ulps_of_exact(self, entries, alpha_scale, x_scale, make):
        # alpha and x at scales 2^+-600, z in [0, 1] or subnormal, S the
        # flagged entries: the bound in LinearCut.lhs, +-inf past the range,
        # and no warning (the suite turns warnings into errors)
        alpha = np.array([math.ldexp(a, alpha_scale) for a, _, _, _ in entries])
        x = np.array([math.ldexp(xi, x_scale) for _, xi, _, _ in entries])
        z = np.array([zi for _, _, zi, _ in entries])
        cut = make([i for i, entry in enumerate(entries) if entry[3]], alpha)
        lhs = cut.lhs(x, z)
        exact, magnitude = oracles.cut_lhs_exact(cut, x, z)
        try:
            float(exact)
        except OverflowError:
            assert lhs == (math.inf if exact > 0 else -math.inf)
        else:
            assert abs(Fraction(lhs) - exact) <= (len(entries) + 1) * Fraction(math.ulp(float(magnitude)))

    def test_lhs_past_the_range_in_parts(self):
        # each part of the sum is past the float range, inf + (-inf) unscaled,
        # but the sum is not
        cut = LinearCut([1.5e308, 1.5e308], [-1.5e308, -1.5e308], 0.0)
        assert cut.lhs([1.0, 1.0], [1.0, 1.0]) == 0.0
        assert cut.lhs([1.0, 1.0], [0.5, 0.5]) == 1.5e308
        assert cut.lhs([1.0, 1.0], [0.0, 0.5]) == math.inf
        assert cut.violation([0.0, 0.0], [1.0, 0.5]) == -math.inf

    def test_linear_cut_rejects_negative_pi(self):
        with pytest.raises(ValueError):
            LinearCut([-1.0], [0.0], 0.0)

    def test_validity_on_enumerated_vertices(self, rng):
        # both submodular families hold at every vertex for every subset
        for _ in range(40):
            n = int(rng.integers(2, 7))
            alpha = rng.normal(size=n)
            members = oracles.family_members("free", n)
            pts = _p0_vertices(alpha, members)
            abs_x = np.array([np.abs(x) for x, _ in pts])
            zs = np.array([z for _, z in pts])
            for _ in range(40):
                S = [i for i in range(n) if rng.integers(0, 2)]
                for make in (submodular_cut_1, submodular_cut_2):
                    cut = make(S, alpha)
                    viol = abs_x @ cut.pi_abs + zs @ cut.rho_z - cut.rhs
                    assert float(viol.max()) <= 1e-9

    def test_base_validity_on_restricted_vertices(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            alpha = rng.normal(size=n)
            S = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            outside = [i for i in range(n) if i not in S]
            members = [z for z in oracles.family_members("free", n)
                       if all(z[i] == 0.0 for i in outside)]
            cut = base_inequality(S, alpha)
            for x, z in _p0_vertices(alpha, members):
                assert cut.violation(x, z) <= 1e-9


class TestSeparation:
    def test_none_on_valid_points(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            alpha = rng.normal(size=n)
            x, z = oracles.sample_X_point("free", n, None, rng)
            # feasible points satisfy the weighted inequality for every alpha
            p = MixedPoint(x, z)
            assert separate_submodular(p, alpha, mode="exact") is None

    def test_zero_activation_with_nonzero_x_is_cut(self):
        p = MixedPoint([0.5, 0.0], [0.0, 0.0])
        cut = separate_submodular(p, [1.0, 1.0], mode="exact")
        assert cut is not None
        assert cut.violation_at(p) > 0.0

    def test_spurious_top_score_falls_through_to_a_violated_cut(self):
        # the top exact score, 1.19e-9, takes its dropped marginal from
        # q - a_i^2 and its cut is not violated past feas_abs; the walk goes
        # on to a candidate whose cut is violated by 1.18e-9
        alpha = [-0.49766507562265827, 3.5874683690849527e-09, -4.2861888364689066e-07]
        p = MixedPoint([0.0, 0.008392513593145402, 1.0027098324501365], [0.0, 1.0, 1.0])
        sets, violations = violated_cuts(p, alpha, "exact")
        row, family = divmod(int(np.argmax(violations)), 2)
        top = (submodular_cut_1, submodular_cut_2)[family](sets(row), alpha)
        assert violations.max() > DEFAULT_TOL.feas_abs >= top.violation_at(p)
        cut = separate_submodular(p, alpha, mode="exact")
        assert cut is not None and cut.violation_at(p) > DEFAULT_TOL.feas_abs

    def test_separation_is_the_first_reported_cut(self):
        for mode, n, p, alpha in _scorer_cases():
            cut = separate_submodular(p, alpha, mode=mode)
            cuts = list(reported_cuts(p, alpha, mode))
            assert all(c.violation_at(p) > DEFAULT_TOL.feas_abs for c in cuts)
            keys = [(tuple(c.pi_abs.tolist()), tuple(c.rho_z.tolist()), c.rhs) for c in cuts]
            assert len(set(keys)) == len(keys)
            if cut is None:
                # heuristic separation leaves out the tail, violated only by rounding
                assert mode == "heuristic" or not cuts
                continue
            if mode == "exact":
                assert keys[0] == (tuple(cut.pi_abs.tolist()), tuple(cut.rho_z.tolist()), cut.rhs)
            best = max(c.violation_at(p) for c in cuts)
            assert cut.violation_at(p) >= best - 1e-12 * max(1.0, best)

    def test_heuristic_never_beats_exact(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            alpha = rng.normal(size=n)
            p = MixedPoint(rng.normal(size=n), rng.uniform(size=n))
            exact = separate_submodular(p, alpha, mode="exact")
            heur = separate_submodular(p, alpha, mode="heuristic")
            exact_v = exact.violation_at(p) if exact is not None else 0.0
            heur_v = heur.violation_at(p) if heur is not None else 0.0
            assert heur_v <= exact_v + 1e-9

    def test_exact_guard(self):
        p = MixedPoint(np.zeros(17), np.zeros(17))
        with pytest.raises(ValueError):
            separate_submodular(p, np.ones(17), mode="exact")

    def test_unknown_mode(self):
        p = MixedPoint([0.0], [0.0])
        with pytest.raises(ValueError):
            separate_submodular(p, [1.0], mode="fast")

    def test_returns_the_oracle_maximum(self):
        for mode, n, p, alpha in _scorer_cases():
            subsets = _oracle_subsets(mode, p)
            reference = oracles.cut_violations(p, alpha, subsets)
            cut = separate_submodular(p, alpha, mode=mode)
            best = float(reference.max())
            if best <= DEFAULT_TOL.feas_abs:
                assert cut is None
                continue
            assert cut is not None
            assert abs(cut.violation_at(p) - best) <= 1e-12 * max(1.0, abs(best))
            # ties keep the first candidate in scan order, first family first
            sets, violations = violated_cuts(p, alpha, mode)
            row, family = divmod(int(np.argmax(violations)), 2)
            first = (submodular_cut_1, submodular_cut_2)[family](sets(row), alpha)
            assert np.array_equal(cut.rho_z, first.rho_z) and cut.rhs == first.rhs

    def test_exact_at_the_guard_stays_small(self, rng):
        # 2^16 candidate rows: the member matrix and the violations take 1 MiB
        # each; the subset-sum table and the block work stay within the 1 MiB
        # over the 3.1 MiB the block scorer before them peaked at, at a fully
        # fractional z and at a z of 0/1 entries but one alike
        n = 16
        for z in (rng.uniform(size=n), np.concatenate(([0.5], rng.integers(0, 2, size=n - 1)))):
            p = MixedPoint(rng.normal(size=n), z)
            cut, peak = _traced(separate_submodular, p, rng.normal(size=n), mode="exact")
            assert cut is not None
            assert peak < 4.1 * 2**20

    @pytest.mark.parametrize("mode", ["heuristic", "exact"])
    def test_x_near_the_float_maximum_scores_without_overflow(self, mode):
        # |alpha|'|x| is past the float range: every score is +inf, with no
        # warning (the suite turns warnings into errors), and the top
        # candidate, the empty set's family-1 cut, is violated by inf
        p, alpha = MixedPoint(np.full(4, 1e308), np.full(4, 0.5)), np.ones(4)
        assert np.all(violated_cuts(p, alpha, mode)[1] == math.inf)
        cut = separate_submodular(p, alpha, mode)
        first = submodular_cut_1([], alpha)
        assert np.array_equal(cut.rho_z, first.rho_z) and cut.rhs == first.rhs == 0.0
        assert cut.violation_at(p) == math.inf

    def test_heuristic_at_n_2000_stays_small(self, rng):
        # all-fractional z: both marginal triangles are full, ~2e6 entries each
        n = 2000
        p = MixedPoint(rng.normal(size=n) * 0.05, rng.uniform(0.01, 0.99, n))
        cut, peak = _traced(separate_submodular, p, rng.normal(size=n))
        assert cut is not None
        assert peak < 16 * 2**20

    def test_head_maximum_is_the_prefix_maximum(self):
        # separation scores only the prefixes through the last positive z;
        # the z = 0 tail may beat them by rounding alone
        for p, alpha in _dominance_cases():
            cut = separate_submodular(p, alpha)
            reference = oracles.cut_violations(p, alpha, oracles.prefix_sets(p.z.tolist()))
            best = float(reference.max())
            slack = 1e-12 * max(1.0, abs(best))
            if cut is None:
                assert best <= DEFAULT_TOL.feas_abs + slack
                continue
            assert abs(cut.violation_at(p) - best) <= slack
            sets, violations = violated_cuts(p, alpha, "heuristic")
            head = violations[:np.count_nonzero(p.z > 0.0) + 1]
            row, family = divmod(int(np.argmax(head)), 2)
            first = (submodular_cut_1, submodular_cut_2)[family](sets(row), alpha)
            assert np.array_equal(cut.rho_z, first.rho_z) and cut.rhs == first.rhs

    def test_heuristic_skips_the_zero_tail(self, monkeypatch):
        # a lifted point at n = 2000 with at most 20 positive z: separation
        # evaluates O(m^2) marginals, not the ~n^2/2 of the z = 0 tail
        rng = np.random.default_rng(9)
        n = 2000
        inst = ProblemInstance(rng.normal(size=n), rng.uniform(size=n), ZFamily("card_le", n, 19))
        p = _lifted_point(inst)
        m = int(np.count_nonzero(p.z > 0.0))
        assert 0 < m <= 20
        cert = find_violating_alpha(p)
        alpha = inst.a if cert is None else cert.alpha
        triangle, entries = hull._triangle_sums, []

        def counted(gain):
            def spy(r, j):
                out = gain(r, j)
                entries.append(out.size)
                return out
            return spy

        monkeypatch.setattr(hull, "_triangle_sums",
                            lambda *args: triangle(*(counted(x) if callable(x) else x for x in args)))
        separate_submodular(p, alpha)
        assert 0 < sum(entries) <= 2 * (m + 1) ** 2
        # violated_cuts still scores every prefix
        sets, violations = violated_cuts(p, alpha, "heuristic")
        assert violations.shape == (n + 1, 2)
        rows = np.concatenate(([0, 1, m - 1, m, m + 1, n - 1, n],
                               rng.choice(np.arange(m + 2, n - 1), size=30, replace=False)))
        reference = oracles.cut_violations(p, alpha, [sets(r) for r in rows])
        assert np.all(np.abs(violations[rows] - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))


def _rebuilt_walk(p, alpha, mode, violated):
    """``reported_cuts``' walk rebuilt from public pieces: the candidates of
    ``violated_cuts``, the top score first, then every other one scored above
    feas_abs by score descending (stable, so family 1 first on a row); each
    cut built by ``submodular_cut_1``/``_2`` and kept when ``violated(cut, S,
    family)`` holds and its (rho_z, rhs) is new."""
    sets, violations = violated_cuts(p, alpha, mode)
    flat = violations.ravel()
    top = int(np.argmax(flat))
    order = [top] + [int(i) for i in np.argsort(-flat, kind="stable")
                     if flat[i] > DEFAULT_TOL.feas_abs and i != top]
    cuts, seen = [], set()
    for row, family in (divmod(index, 2) for index in order):
        make = (submodular_cut_1, submodular_cut_2)[family]
        cut = make(sets(row), alpha)
        key = (tuple(cut.rho_z.tolist()), cut.rhs)
        if violated(cut, sets(row), make) and key not in seen:
            seen.add(key)
            cuts.append(cut)
    return cuts


def _bits(cut):
    return cut.pi_abs.tobytes(), cut.rho_z.tobytes(), float(cut.rhs).hex()


class TestWalk:
    def test_reported_cuts_are_the_rebuilt_walk(self):
        # seeded points at n <= 12 with half-integer alpha, x and z (ties),
        # zero alpha and 0/1 z: the same cuts, bit for bit, in the same order
        rng = np.random.default_rng(22)
        for mode in ("heuristic", "exact"):
            for variant in range(40):
                n = int(rng.integers(1, 13 if variant % 4 else 9))
                x, z, alpha = rng.normal(size=n), rng.uniform(size=n), rng.normal(size=n)
                if variant % 2:
                    alpha, x, z = np.round(alpha * 2.0) / 2.0, np.round(x * 2.0) / 2.0, np.round(z * 2.0) / 2.0
                if variant % 5 == 0:
                    alpha[rng.random(n) < 0.3] = 0.0
                if variant % 3 == 0:
                    z = rng.integers(0, 2, size=n).astype(float)
                p = MixedPoint(x, z)
                expected = _rebuilt_walk(p, alpha, mode,
                                         lambda cut, S, make: cut.violation_at(p) > DEFAULT_TOL.feas_abs)
                assert [_bits(c) for c in reported_cuts(p, alpha, mode)] == [_bits(c) for c in expected]

    def test_cuts_share_one_frozen_pi_abs_and_their_own_rho_z(self, monkeypatch):
        # |alpha| is frozen once per walk and each rho_z before its cut is
        # built, so LinearCut copies neither (core.as_vector makes the copies)
        p, alpha = MixedPoint(np.full(6, 0.3), np.full(6, 0.2)), np.ones(6)
        copies, as_vector = [], core.as_vector
        monkeypatch.setattr(core, "as_vector", lambda *args: copies.append(args) or as_vector(*args))
        for mode in ("heuristic", "exact"):
            cuts = list(reported_cuts(p, alpha, mode))
            assert len(cuts) > 1 and all(cut.pi_abs is cuts[0].pi_abs for cut in cuts)
            assert not any(cut.pi_abs.flags.writeable or cut.rho_z.flags.writeable for cut in cuts)
        assert copies == []

    def test_past_the_range_the_walk_follows_the_exact_sign(self):
        # alpha near 1.5e308: each cut is tested as the exact violation of
        # the same cut at alpha / 2^10 says, where the unscaled lhs can read
        # inf + (-inf), which was once taken as "not violated"
        rng = np.random.default_rng(23)

        def exact_sign(p, alpha):
            def violated(cut, S, make):
                small = make(S, alpha / 1024.0)
                lhs, _ = oracles.cut_lhs_exact(small, p.x, p.z)
                return 1024 * (lhs - Fraction(small.rhs)) > DEFAULT_TOL.feas_abs
            return violated

        both_parts_past = 0
        for mode in ("heuristic", "exact"):
            for _ in range(12):
                n = int(rng.integers(2, 9))
                alpha = 1.5e308 * rng.choice([-1.0, -0.5, 0.5, 1.0], n)
                p = MixedPoint(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], n), rng.choice([0.0, 0.5, 1.0], n))
                cuts = list(reported_cuts(p, alpha, mode))
                assert [_bits(c) for c in cuts] == [_bits(c) for c in _rebuilt_walk(p, alpha, mode, exact_sign(p, alpha))]
                with np.errstate(over="ignore"):
                    both_parts_past += sum(math.isinf(float(c.pi_abs @ np.abs(p.x))) and
                                           math.isinf(float(c.rho_z @ p.z)) for c in cuts)
        assert both_parts_past > 0


def _traced(f, *args, **kwargs):
    """f(*args, **kwargs) after one warm call, and its tracemalloc peak in bytes."""
    f(*args, **kwargs)
    tracemalloc.start()
    try:
        out = f(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _scorer_cases():
    """(mode, n, point, alpha) cases with ties, zeros and 0/1 activations,
    and heuristic ones at n = 200."""
    rng = np.random.default_rng(5)
    cases = []
    sizes = [("heuristic", n) for n in (1, 2, 5, 40)] + [("exact", n) for n in range(1, 11)]
    for mode, n in sizes:
        for variant in range(8):
            x = rng.normal(size=n)
            z = rng.uniform(size=n)
            alpha = rng.normal(size=n)
            if variant == 1:  # tied z and rounded data, so exact ties occur
                z = np.round(z * 2.0) / 2.0
                x = np.round(x)
                alpha = np.round(alpha)
            elif variant == 2:  # zero and duplicated alpha
                alpha[rng.random(n) < 0.3] = 0.0
                alpha[rng.random(n) < 0.3] = alpha[0]
            elif variant == 3:
                x = np.zeros(n)
            elif variant == 4:
                z = rng.integers(0, 2, size=n).astype(float)
            elif variant == 5:
                alpha = np.zeros(n)
            elif variant == 6:  # a feasible point: no cut is violated
                x, z = oracles.sample_X_point("free", n, None, rng)
            cases.append((mode, n, MixedPoint(x, z), alpha))
    # heuristic at n = 200: lifted relaxation points (z is 0/1 but for at
    # most two coordinates) for every family, then all-fractional z, z
    # exactly 0/1, zero and duplicated alpha, and x = 0
    rng = np.random.default_rng(6)
    n = 200
    for kind, k in (("free", None), ("card_le", 20), ("card_eq", 20)):
        seen = set()  # one integral and one fractional point per family
        while len(seen) < 2:
            inst = ProblemInstance(rng.normal(size=n), rng.uniform(size=n), ZFamily(kind, n, k))
            p = _lifted_point(inst)
            fractional = bool(np.any((p.z > 0.0) & (p.z < 1.0)))
            if fractional not in seen:
                seen.add(fractional)
                cert = find_violating_alpha(p)
                cases.append(("heuristic", n, p, inst.a if cert is None else cert.alpha))
    x, z, alpha = rng.normal(size=n) * 0.1, rng.uniform(0.01, 0.99, n), rng.normal(size=n)
    cases.append(("heuristic", n, MixedPoint(x, z), alpha))
    cases.append(("heuristic", n, MixedPoint(x, rng.integers(0, 2, size=n)), alpha))
    dup = alpha.copy()
    dup[rng.random(n) < 0.3] = 0.0
    dup[rng.random(n) < 0.3] = dup[0]
    cases.append(("heuristic", n, MixedPoint(x, z), dup))
    cases.append(("heuristic", n, MixedPoint(np.zeros(n), z), alpha))
    return cases


def _dominance_cases():
    """(point, alpha) cases for heuristic separation: random points with
    tied z and rounded data, zero alpha, alpha near 1e-8 on the z = 0 tail,
    z exactly 0/1 and sparse z; then lifted relaxation points at n = 200
    for every family, with the perspective certificate or a as alpha."""
    rng = np.random.default_rng(13)
    cases = []
    for _ in range(60):
        n = int(rng.integers(1, 41))
        x, z, alpha = rng.normal(size=n), rng.uniform(size=n), rng.normal(size=n)
        z[rng.random(n) < 0.5] = 0.0
        tied = np.round(z * 2.0) / 2.0
        zero = alpha.copy()
        zero[rng.random(n) < 0.3] = 0.0
        tiny = np.where(z == 0.0, 1e-8 * rng.normal(size=n), alpha)
        binary = rng.integers(0, 2, size=n).astype(float)
        sparse = np.where(rng.random(n) < 0.2, z, 0.0)
        cases += [(MixedPoint(np.round(x), tied), np.round(alpha)), (MixedPoint(x, z), zero),
                  (MixedPoint(x, z), tiny), (MixedPoint(x, binary), alpha),
                  (MixedPoint(x, sparse), np.where(sparse == 0.0, 1e-8 * alpha, alpha))]
    for kind, k in (("free", None), ("card_le", 20), ("card_eq", 20)):
        for _ in range(4):
            inst = ProblemInstance(rng.normal(size=200), rng.uniform(size=200), ZFamily(kind, 200, k))
            p = _lifted_point(inst)
            cert = find_violating_alpha(p)
            cases.append((p, inst.a if cert is None else cert.alpha))
    return cases

def _lifted_point(inst):
    """The relaxation point lifted to (x, z): x minimizes a'x over the unit
    ball with x_i = 0 where z_i = 0."""
    z = solve_relaxation(inst).z_bar
    on = z > 0.0
    x = np.zeros(inst.n)
    norm = float(np.linalg.norm(inst.a[on]))
    if norm > 0.0:
        x[on] = -inst.a[on] / norm
    return MixedPoint(x, z)


def _oracle_subsets(mode, p):
    if mode == "heuristic":
        return oracles.prefix_sets(p.z.tolist())
    return [np.flatnonzero(z) for z in oracles.family_members("free", p.n)]


class TestViolatedCuts:
    def test_matches_the_per_subset_oracle(self):
        for mode, n, p, alpha in _scorer_cases():
            subsets = _oracle_subsets(mode, p)
            sets, violations = violated_cuts(p, alpha, mode)
            for row, S in enumerate(subsets):
                assert sets(row).tolist() == sorted(S)
            reference = oracles.cut_violations(p, alpha, subsets)
            assert violations.shape == reference.shape
            assert np.all(np.abs(violations - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))

    def test_scores_past_one_block(self, rng):
        n = 13  # 2^13 rows, four scoring blocks
        p = MixedPoint(rng.normal(size=n), rng.uniform(size=n))
        alpha = rng.normal(size=n)
        sets, violations = violated_cuts(p, alpha, "exact")
        rows = rng.choice(violations.shape[0], size=50, replace=False)
        reference = oracles.cut_violations(p, alpha, [sets(r) for r in rows])
        assert np.all(np.abs(violations[rows] - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))

    def test_heuristic_scores_past_one_block(self, rng):
        # all-fractional z at n = 2000: each marginal triangle takes ~250 row blocks
        n = 2000
        p = MixedPoint(rng.normal(size=n) * 0.05, rng.uniform(0.01, 0.99, n))
        alpha = rng.normal(size=n)
        sets, violations = violated_cuts(p, alpha, "heuristic")
        rows = np.concatenate(([0, 1, n - 1, n], rng.choice(np.arange(2, n - 1), size=40, replace=False)))
        reference = oracles.cut_violations(p, alpha, [sets(r) for r in rows])
        assert np.all(np.abs(violations[rows] - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))

    def test_heuristic_listing_at_n_2000_stays_small(self, rng):
        # the sets are read from the z order: no (n + 1, n) member matrix
        n = 2000
        p = MixedPoint(rng.normal(size=n) * 0.05, rng.uniform(0.01, 0.99, n))
        (sets, violations), peak = _traced(violated_cuts, p, rng.normal(size=n), "heuristic")
        assert violations.shape == (n + 1, 2) and sets(n).size == n
        assert peak < 2 * 2**20

    def test_family_two_scores_with_one_dominant_alpha(self):
        # rho_0(N - 0) adds a_0^2 back to the rest of N; a drop from a^2(N)
        # = 1e16 + 2 loses that rest, and with it the scores' last 1e-8
        alpha = np.array([1e8, 1.0, 1.0])
        p = MixedPoint(np.array([0.3, 0.5, 0.5]), np.array([0.5, 0.9, 0.2]))
        for mode in ("heuristic", "exact"):
            sets, violations = violated_cuts(p, alpha, mode)
            reference = oracles.cut_violations(p, alpha, [sets(r) for r in range(violations.shape[0])])
            assert np.all(np.abs(violations[:, 1] - reference[:, 1]) <= 1e-12 * np.abs(reference[:, 1]))

    @pytest.mark.parametrize("mode", [
        pytest.param(mode, marks=pytest.mark.xfail(strict=True, reason=(
            f"family 1's dropped marginals come from q - a_i^2 (_drop_gain), which loses the rest "
            f"of S to cancellation: measured {error} ulps of s at this point")))
        for mode, error in (("heuristic", "7.0e4"), ("exact", "2.0e5"))])
    def test_family_one_within_family_two_bound_with_one_dominant_alpha(self, mode):
        # a_0^2 is all of a^2(S) but 2e-12 on the sets holding 0; family 2's
        # stated bound, 2n ulps of s = |alpha|'|x| + ||alpha||_1, taken for
        # family 1 against the exact violation of each cut
        alpha = np.array([1.0, 1e-6, 1e-6])
        p = MixedPoint(np.array([0.3, 0.2, 0.1]), np.array([0.0, 0.5, 0.5]))
        size = float(np.abs(alpha) @ np.abs(p.x)) + float(np.abs(alpha).sum())
        sets, violations = violated_cuts(p, alpha, mode)
        for row in range(violations.shape[0]):
            exact = oracles.cut_violation_exact(p, alpha, sets(row).tolist(), 1)
            assert abs(Fraction(float(violations[row, 0])) - exact) <= 2 * p.n * math.ulp(size)

    def test_exact_scores_match_the_block_reference(self):
        # the subset-sum tables change only the order of the sums: within n
        # ulps of |alpha|'|x| + ||alpha||_1 of the block scorer they replaced,
        # at z fully fractional, z with 0/1 entries and z all 0/1, and at
        # alpha scales 2^-600, 1 and 2^600
        rng = np.random.default_rng(23)
        for n in range(1, 13):
            for kind in ("fractional", "mixed", "binary"):
                z = {"fractional": rng.uniform(0.01, 0.99, n),
                     "mixed": rng.choice([0.0, 1.0, 0.3, 0.5], n),
                     "binary": rng.integers(0, 2, n).astype(float)}[kind]
                p = MixedPoint(rng.normal(size=n) * 0.5, z)
                for scale in (-600, 0, 600):
                    alpha = np.ldexp(rng.normal(size=n), scale)
                    violations = violated_cuts(p, alpha, "exact")[1]
                    reference = oracles.exact_scores_reference(p, alpha)
                    size = float(np.abs(alpha) @ np.abs(p.x)) + float(np.abs(alpha).sum())
                    assert np.all(np.abs(violations - reference) <= n * math.ulp(size))

    @pytest.mark.parametrize("mode", ["heuristic", "exact"])
    def test_scores_within_the_stated_bound_of_exact(self, mode):
        # the violated_cuts bound against the fractions twin of each cut's
        # violation, at n <= 6: family 2 within 2n ulps of |alpha|'|x| +
        # ||alpha||_1, family 1 within that plus its dropped marginals'
        # cancellation; alpha over 2^+-600 and spread over 8 decades
        rng = np.random.default_rng(29)
        eps = 2.0 ** -52
        for trial in range(60):
            n = int(rng.integers(1, 7))
            z = (rng.uniform(0.0, 1.0, n), rng.choice([0.0, 1.0, 0.3, 0.5], n))[trial % 2]
            p = MixedPoint(rng.normal(size=n) * 0.5, z)
            unit = rng.normal(size=n) * (10.0 ** rng.integers(-8, 1, n) if trial % 3 == 0 else 1.0)
            scale = int(rng.choice([-600, 0, 600]))
            alpha = np.ldexp(unit, scale)
            size = float(np.abs(alpha) @ np.abs(p.x)) + float(np.abs(alpha).sum())
            sets, violations = violated_cuts(p, alpha, mode)
            for row in range(violations.shape[0]):
                S = sets(row).tolist()
                g_S = math.sqrt(math.fsum(unit[S] ** 2))
                cancellation = math.fsum(
                    (1.0 - p.z[i]) * min(math.sqrt(n * eps) * g_S,
                                         n * eps * g_S ** 2 / max(oracles.g_fsum(set(S) - {i}, unit), 1e-300))
                    for i in S)
                for family, extra in ((1, math.ldexp(cancellation, scale)), (2, 0.0)):
                    exact = oracles.cut_violation_exact(p, alpha, S, family)
                    error = abs(Fraction(float(violations[row, family - 1])) - exact)
                    assert error <= 2 * n * math.ulp(size) + extra

    def test_rejects_bad_input(self):
        p = MixedPoint([0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            violated_cuts(p, [1.0], "heuristic")
        with pytest.raises(ValueError, match="unknown separation mode"):
            violated_cuts(p, [1.0, 1.0], "fast")
        with pytest.raises(ValueError, match="n <= 16"):
            violated_cuts(MixedPoint(np.zeros(17), np.zeros(17)), np.ones(17), "exact")


class TestMemberships:
    def test_origin_in_p0(self):
        p = MixedPoint([0.0, 0.0], [0.0, 0.0])
        assert p0_membership(p, [1.0, 2.0], ZFamily.free(2))

    def test_feasible_points_in_p0(self, rng):
        # containment of the feasible set holds for every weight vector
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            alpha = rng.normal(size=n)
            x, z = oracles.sample_X_point("free", n, None, rng)
            assert p0_membership(MixedPoint(x, z), alpha, ZFamily.free(n))

    def test_p0_requires_binary_z(self):
        p = MixedPoint([0.0, 0.0], [0.5, 0.0])
        assert not p0_membership(p, [1.0, 1.0], ZFamily.free(2))

    def test_unit_alpha_reduces_to_sqrt_bound(self):
        # alpha = e_i tests |x_i| <= sqrt(z_i); binary z makes it |x_i| <= z_i
        fam = ZFamily.free(2)
        alpha = np.array([0.0, 1.0])
        assert p0_membership(MixedPoint([5.0, 1.0], [0.0, 1.0]), alpha, fam)
        assert not p0_membership(MixedPoint([0.0, 0.5], [0.0, 0.0]), alpha, fam)

    def test_c_alpha_unit_vector_matches_bigM_on_binary_z(self, rng):
        fam = ZFamily.free(3)
        for _ in range(100):
            x = rng.normal(size=3)
            z = rng.integers(0, 2, size=3).astype(float)
            p = MixedPoint(x, z)
            for i in range(3):
                alpha = np.zeros(3)
                alpha[i] = 1.0
                expected = abs(x[i]) <= z[i] + 1e-9
                assert c_alpha_membership(p, alpha, fam) == expected

    def test_c_alpha_checks_conv_membership(self):
        fam = ZFamily.card_eq(2, 1)
        p = MixedPoint([0.0, 0.0], [1.0, 1.0])  # sum 2 != 1
        assert not c_alpha_membership(p, [1.0, 1.0], fam)


class TestPerspective:
    def test_active_unit(self):
        assert perspective_membership(MixedPoint([1.0], [1.0]), ZFamily.free(1))

    def test_halved_activation_fails(self):
        assert not perspective_membership(MixedPoint([1.0], [0.5]), ZFamily.free(1))

    def test_bigM_not_implied(self):
        from sparseball.core import satisfies_bigM

        p = MixedPoint([0.5], [0.4])
        assert perspective_sum(p.x, p.z) == pytest.approx(0.625, abs=0.0)
        assert perspective_membership(p, ZFamily.free(1))
        assert not satisfies_bigM(p)

    def test_violating_alpha_hand_case(self):
        alpha = find_violating_alpha(MixedPoint([1.0], [0.25]))
        assert np.allclose(alpha.alpha, [4.0])
        assert 4.0 > math.sqrt(16.0 * 0.25)

    def test_violating_alpha_zero_activation_branch(self):
        alpha = find_violating_alpha(MixedPoint([0.0, 0.3], [1.0, 0.0]))
        assert np.array_equal(alpha.alpha, [0.0, 1.0])

    @pytest.mark.parametrize("x, z, i", [
        # x_0^2 / z_0 overflows: the sum is inf with every z positive
        ([1.0, 0.0], [1e-310, 1.0], 0),
        # z_1 = 0 with x_1 != 0 is an infinite term, taken before the finite 4
        ([2.0, 1e-200], [1.0, 0.0], 1),
    ], ids=["overflow", "zero_activation"])
    def test_violating_alpha_at_the_largest_infinite_term(self, x, z, i):
        p = MixedPoint(x, z)
        assert perspective_sum(p.x, p.z) == math.inf
        alpha = find_violating_alpha(p).alpha
        assert np.array_equal(alpha, np.eye(2)[i])
        assert abs(p.x[i]) > math.sqrt(p.z[i])

    def test_feasible_gives_none(self):
        assert find_violating_alpha(MixedPoint([0.5], [0.5])) is None

    def test_subnormal_activation(self):
        # x^2 = 1.18e-323 is subnormal: squared raw it rounds to 2 z, and the
        # sum reads 1.0; the exact x^2 / z is 1.1976
        p = MixedPoint([3.44e-162], [1e-323])
        exact = oracles.perspective_sum_exact(p.x, p.z)
        assert oracles.ulps_off(perspective_sum(p.x, p.z), exact) <= 1.0
        assert float(exact) == pytest.approx(1.1975736523686955, rel=1e-15, abs=0.0)
        assert not perspective_membership(p, ZFamily.free(1))
        alpha = find_violating_alpha(p)
        assert alpha is not None and not c_alpha_membership(p, alpha, ZFamily.free(1))

    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(-500, 500),
                              st.one_of(st.floats(0.0, 1.0), st.integers(1, 2**52 - 1).map(lambda k: k * 5e-324))),
                    min_size=1, max_size=8))
    @settings(max_examples=400)
    def test_sum_is_within_2n_ulps_of_exact(self, terms):
        # x at scales 2^+-500, z in [0, 1] or subnormal: n live terms are
        # within 2n ulps of the exact sum (the bound in perspective_sum)
        x = np.array([math.ldexp(m, s) for m, s, _ in terms])
        z = np.array([zi for _, _, zi in terms])
        live = int(np.count_nonzero(z))
        assert oracles.ulps_off(perspective_sum(x, z), oracles.perspective_sum_exact(x, z)) <= 2 * live

    def test_violating_alpha_keeps_x_over_z_finite(self):
        # the sum is about 1e300, but x_0 / z_0 = 4.5e311 would overflow: x is
        # divided by a power of two first, and the certificate still holds
        p = MixedPoint([2.2e-12, 0.0], [5e-324, 1.0])
        alpha = find_violating_alpha(p)
        assert np.all(np.isfinite(alpha.alpha))
        assert alpha.alpha[0] > 0.0 and alpha.alpha[1] == 0.0
        assert not c_alpha_membership(p, alpha, ZFamily.free(2))

    def test_equivalence_and_certificate(self, rng):
        fam_cache = {}
        for _ in range(2000):
            n = int(rng.integers(1, 7))
            z = rng.uniform(size=n)
            if rng.uniform() < 0.2:
                z[rng.integers(0, n)] = 0.0
            x = rng.normal(size=n) * rng.uniform(0.0, 1.5)
            p = MixedPoint(x, z)
            fam = fam_cache.setdefault(n, ZFamily.free(n))
            member = perspective_membership(p, fam)
            alpha = find_violating_alpha(p)
            assert member == (alpha is None)
            if alpha is not None:
                a = alpha.alpha
                lhs = float(np.abs(a * p.x).sum())
                rhs = math.sqrt(float((a * a) @ p.z))
                assert lhs > rhs


class TestCardinalityCut:
    def test_k_one(self):
        cut = cardinality_cut(ZFamily.card_eq(3, 1))
        assert cut.rhs == 1.0
        assert np.array_equal(cut.pi_abs, np.ones(3))
        assert np.array_equal(cut.rho_z, np.zeros(3))

    def test_wrong_family(self):
        with pytest.raises(ValueError):
            cardinality_cut(ZFamily.card_le(3, 1))

    def test_valid_on_sampled_points(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            cut = cardinality_cut(ZFamily.card_eq(n, k))
            x, z = oracles.sample_X_point("card_eq", n, k, rng)
            assert cut.violation(x, z) <= 1e-9

    def test_dominates_full_set_submodular_cut_on_face(self):
        # restricted to sum z = k the all-ones submodular cut gives
        # sqrt(n) - (n - k)(sqrt(n) - sqrt(n-1)); the budget cut sqrt(k) is
        # at least as strong, with equality exactly when k in {n-1, n}
        for n in range(2, 12):
            sub = submodular_cut_1(range(n), np.ones(n))
            # rho_z is constant over coordinates here
            assert np.allclose(sub.rho_z, sub.rho_z[0])
            for k in range(1, n + 1):
                face_rhs = sub.rhs + float(-sub.rho_z[0]) * k
                budget_rhs = cardinality_cut(ZFamily.card_eq(n, k)).rhs
                assert budget_rhs <= face_rhs + 1e-12
                if k >= n - 1:
                    assert budget_rhs == pytest.approx(face_rhs, abs=1e-12)


class TestSolveRelaxationFree:
    def test_both_terms_favor_activation(self):
        sol = solve_relaxation(ProblemInstance([1.0], [-1.0], ZFamily.free(1)))
        assert np.array_equal(sol.z_bar, [1.0])
        assert sol.value == -2.0
        assert sol.fractional_count == 0

    def test_interior_stationarity_against_grid(self):
        inst = ProblemInstance([2.0], [2.0], ZFamily.free(1))
        sol = solve_relaxation(inst)
        zs = np.linspace(0.0, 1.0, 2_000_001)
        vals = 2.0 * zs - np.sqrt(4.0 * zs)
        j = int(np.argmin(vals))
        assert abs(sol.z_bar[0] - zs[j]) <= 1e-6
        assert sol.value == pytest.approx(float(vals[j]), abs=1e-6)
        assert sol.fractional_count == 1

    def test_edge_property_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 13))
            inst = ProblemInstance(rng.normal(size=n), rng.normal(size=n), ZFamily.free(n))
            sol = solve_relaxation(inst)
            assert sol.fractional_count <= 1
            assert sol.value <= sol.rounded_value + 1e-9

    def test_sandwich_against_bruteforce(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 11))
            inst = ProblemInstance(rng.normal(size=n), rng.normal(size=n), ZFamily.free(n))
            relax = solve_relaxation(inst)
            exact = solve_discrete_bruteforce(inst)
            assert relax.value <= exact.value + 1e-9
            assert exact.value <= relax.rounded_value + 1e-9

    def test_matches_bruteforce_grid_on_unit_interval(self, rng):
        # 1-D instances: the relaxation minimum over [0,1] against a grid
        for _ in range(20):
            a = float(rng.uniform(-2, 2))
            c = float(rng.uniform(-2, 2))
            sol = solve_relaxation(ProblemInstance([a], [c], ZFamily.free(1)))
            zs = np.linspace(0.0, 1.0, 200_001)
            vals = c * zs - np.sqrt(a * a * zs)
            assert sol.value <= float(vals.min()) + 1e-8


class TestSolveRelaxationCardinality:
    def test_matches_bruteforce_on_integral_cases(self, rng):
        # with c <= 0 and strong curvature separation the optimum is a vertex
        for kind in ("card_le", "card_eq"):
            for _ in range(20):
                n = int(rng.integers(2, 9))
                k = int(rng.integers(1, n + 1))
                fam = ZFamily(kind, n, k)
                inst = ProblemInstance(rng.normal(size=n), -rng.uniform(0.5, 1.5, size=n), fam)
                relax = solve_relaxation(inst)
                exact = solve_discrete_bruteforce(inst)
                assert relax.value <= exact.value + 1e-7
                assert exact.value <= relax.rounded_value + 1e-9

    def test_fractional_edge_solution(self):
        # trade-off between the cheap coordinate and the high-curvature one
        inst = ProblemInstance([1.0, 2.0], [-1.0, 0.9], ZFamily.card_le(2, 1))
        sol = solve_relaxation(inst)
        zs = np.linspace(0.0, 1.0, 1_000_001)
        # parametrize the best profile: either coordinate alone (z_other = 0)
        v0 = -1.0 * zs - np.sqrt(1.0 * zs)
        v1 = 0.9 * zs - np.sqrt(4.0 * zs)
        best = min(float(v0.min()), float(v1.min()))
        # mixed profiles on the simplex face z0 + z1 <= 1
        t0 = zs[:, None][::1000]
        t1 = zs[None, ::1000]
        mask = t0 + t1 <= 1.0
        grid = -1.0 * t0 + 0.9 * t1 - np.sqrt(t0 + 4.0 * t1)
        best = min(best, float(grid[mask].min()))
        assert sol.value == pytest.approx(best, abs=1e-5)

    @pytest.mark.parametrize("kind", ["card_le", "card_eq"])
    def test_instance_that_attains_four_fifths(self, kind):
        # C7's exact/relaxation constant 4/5 is attained here.  C7's free
        # instances with c <= 0 cannot attain it: z = 1 solves both problems.
        inst = ProblemInstance([0.0, 3.0], [-3.0, 0.0], ZFamily(kind, 2, 1))
        exact, relax = solve_discrete_bruteforce(inst), solve_relaxation(inst)

        def ulps_off(value, ref):
            return abs(value - ref) / math.ulp(ref)

        # z = (1, 0) ties at -3; the tie rule keeps the lexicographically smaller
        assert np.array_equal(exact.z_opt, [0.0, 1.0])
        assert ulps_off(exact.value, -3.0) <= 2
        assert ulps_off(relax.value, -15 / 4) <= 2
        assert all(ulps_off(v, ref) <= 2 for v, ref in zip(relax.z_bar, (0.75, 0.25)))
        assert ulps_off(relax.rounded_value, -3.0) <= 2
        # each value's 2 ulps, and the division's rounding
        assert ulps_off(exact.value / relax.value, 4 / 5) <= 5

    def test_k_equals_n_is_trivial_for_eq(self, rng):
        n = 4
        inst = ProblemInstance(rng.normal(size=n), rng.normal(size=n), ZFamily.card_eq(n, n))
        sol = solve_relaxation(inst)
        assert np.array_equal(sol.z_bar, np.ones(n))
        assert sol.fractional_count == 0

    def test_sandwich_against_bruteforce_mixed_sign_costs(self, rng):
        for kind in ("card_le", "card_eq"):
            for _ in range(30):
                n = int(rng.integers(2, 10))
                k = int(rng.integers(1, n + 1))
                inst = ProblemInstance(rng.normal(size=n), rng.normal(size=n), ZFamily(kind, n, k))
                relax = solve_relaxation(inst)
                exact = solve_discrete_bruteforce(inst)
                assert relax.value <= exact.value + 1e-9
                assert exact.value <= relax.rounded_value + 1e-9

    def test_rounded_point_is_family_member(self, rng):
        for kind in ("card_le", "card_eq"):
            for _ in range(25):
                n = int(rng.integers(2, 9))
                k = int(rng.integers(1, n + 1))
                fam = ZFamily(kind, n, k)
                inst = ProblemInstance(rng.normal(size=n), rng.normal(size=n) * 0.5, fam)
                sol = solve_relaxation(inst)
                assert fam.contains(sol.rounded_z)
                assert sol.rounded_value == pytest.approx(
                    discrete_objective(sol.rounded_z, inst.a, inst.c), abs=1e-12)


FRACTIONAL_BOUND = {"free": 1, "card_le": 2, "card_eq": 2}


def _certify(inst, sol):
    """Checks every relaxation answer must pass, whatever the data."""
    kind, k = inst.zfam.kind, inst.zfam.k
    assert inst.zfam.conv_contains(sol.z_bar)
    assert sol.value == discrete_objective(sol.z_bar, inst.a, inst.c)
    gap = oracles.relaxation_gap(sol.z_bar, inst.a, inst.c, kind, k)
    assert gap <= 1e-9 * max(1.0, abs(sol.value))
    assert sol.value <= sol.rounded_value + 1e-9 * max(1.0, abs(sol.value))


# hull_oracles benchmark instances, card_le(16, 4): seed 206 pool index 592
# stopped a conditional-gradient solve at its 50 000-iteration cap; 206/628
# and 101/889 took seconds, the last with six fractional coordinates
REGRESSION_CASES = {
    "seed206-592": (
        [-0.972624945000833, 0.6959648322018755, 0.6683389877598693, -0.5597693483585191,
         0.5640471740571753, -0.7438408436406596, -0.06782099209782833, 0.09573427075981573,
         0.2850112532571645, 2.032496202026524, -0.10424707416453327, -0.8269988399333769,
         0.7489584453169053, 0.4134503736744219, 0.2612763314470488, 0.4054072168192203],
        [0.15465986852064562, 0.10766571194999874, 0.01187572787117952, 0.6774813723661886,
         0.9771631713977237, 0.060088618901309676, 0.9171326496861033, 0.13885755510263176,
         0.2625186314709158, 0.9855093514971477, 0.07368995897903252, 0.7445081336762045,
         0.7912367825971531, 0.35457782410315153, 0.19028389744488794, 0.7738390118834206],
    ),
    "seed206-628": (
        [0.001028057705723344, -0.1840297891350215, -1.7112930716277837, 1.5877129606790137,
         0.2614404145111181, -0.3427150835432386, -0.24356939312918846, 1.370907569379035,
         -0.8178647222808983, 0.8389902950248463, 0.8398425174643817, 0.5015603911937841,
         -0.025363162527526774, 0.9393885301451006, 0.7865885168823346, 1.6702514474783494],
        [0.5089247570875454, 0.005666033218789779, 0.7200842843115963, 0.3306464532282727,
         0.8509071066360505, 0.9127631764848347, 0.6966163452669792, 0.9286602290756685,
         0.8292106644763368, 0.004876239084022682, 0.03062826631865423, 0.4262649861527994,
         0.9942178733644649, 0.6064320957261413, 0.7632281728827386, 0.6315536294795482],
    ),
    "seed101-889": (
        [-1.9003239349094794, -0.43868631761242616, 0.3152581386579026, -0.42236843790532874,
         0.9819488509791365, -0.10532179482828041, 1.4097977956415333, -0.3042468289099698,
         -0.1322536481142176, -0.6938986685684482, 0.5045555008845267, -1.1496251339691768,
         1.2348386178518092, -0.31852131655324883, -1.6598839702984909, -0.7497043399969749],
        [0.8362376941374976, 0.6379319198977333, 0.017002648062595327, 0.31452576675158084,
         0.16442020606725805, 0.7498116242916957, 0.24401581394677951, 0.9826927218424434,
         0.6203255021433515, 0.03488923015145773, 0.14496273725264652, 0.7136014589605649,
         0.4132351535695322, 0.6954724938521206, 0.9582907890302789, 0.7565782026125784],
    ),
}


class TestRelaxationCertificate:
    @pytest.mark.parametrize("n", [5, 16, 200])
    @pytest.mark.parametrize("kind", ["free", "card_le", "card_eq"])
    def test_gap_value_and_edge_property(self, rng, n, kind):
        for _ in range(25):
            k = None if kind == "free" else int(rng.integers(1, n + 1))
            inst = ProblemInstance(rng.normal(size=n), rng.normal(size=n), ZFamily(kind, n, k))
            sol = solve_relaxation(inst)
            _certify(inst, sol)
            assert sol.fractional_count <= FRACTIONAL_BOUND[kind]

    @pytest.mark.parametrize("name", sorted(REGRESSION_CASES))
    def test_benchmark_regression_cases(self, name):
        a, c = REGRESSION_CASES[name]
        inst = ProblemInstance(a, c, ZFamily.card_le(16, 4))
        sol = solve_relaxation(inst)
        _certify(inst, sol)
        assert sol.fractional_count <= 2
        exact = solve_discrete_bruteforce(inst)
        assert sol.value <= exact.value + 1e-9
        assert exact.value <= sol.rounded_value + 1e-9


def _degenerate_instances():
    rng = np.random.default_rng(7)
    a = rng.normal(size=8)
    c = rng.normal(size=8)
    some_zero_a = a.copy()
    some_zero_a[[1, 4, 6]] = 0.0
    zero_c = c.copy()
    zero_c[[0, 3, 5]] = 0.0
    dup_a = np.repeat(a[:4], 2)
    dup_c = np.repeat(c[:4], 2)
    cases = []
    for fam in (ZFamily.free(8), ZFamily.card_le(8, 3), ZFamily.card_eq(8, 3)):
        cases += [
            (f"some-a-zero-{fam.kind}", some_zero_a, c, fam),
            (f"all-a-zero-{fam.kind}", np.zeros(8), c, fam),
            (f"all-zero-{fam.kind}", np.zeros(8), np.zeros(8), fam),
            (f"c-zero-entries-{fam.kind}", a, zero_c, fam),
            (f"c-all-zero-{fam.kind}", a, np.zeros(8), fam),
            (f"duplicated-{fam.kind}", dup_a, dup_c, fam),
            (f"duplicated-c-positive-{fam.kind}", dup_a, np.abs(dup_c), fam),
        ]
    for kind in ("card_le", "card_eq"):
        cases.append((f"k-equals-n-{kind}", a, c, ZFamily(kind, 8, 8)))
        cases.append((f"n-one-{kind}", a[:1], c[:1], ZFamily(kind, 1, 1)))
    for a1, c1 in ((1.5, 0.4), (1.5, -0.4), (0.0, 0.4), (0.0, -0.4), (2.0, 0.0), (0.0, 0.0)):
        cases.append((f"n-one-free-{a1}-{c1}", [a1], [c1], ZFamily.free(1)))
    return cases


DEGENERATE = _degenerate_instances()


class TestRelaxationDegenerateAndTies:
    @pytest.mark.parametrize("name,a,c,fam", DEGENERATE, ids=[case[0] for case in DEGENERATE])
    def test_repeatable_feasible_and_certified(self, name, a, c, fam):
        inst = ProblemInstance(a, c, fam)
        first = solve_relaxation(inst)
        again = solve_relaxation(ProblemInstance(a, c, fam))
        assert first.z_bar.tobytes() == again.z_bar.tobytes()
        assert first.value == again.value
        _certify(inst, first)
        exact = solve_discrete_bruteforce(inst)
        assert first.value <= exact.value + 1e-9
        assert exact.value <= first.rounded_value + 1e-9

    def test_all_zero_weights_return_the_lp_vertex_of_c(self):
        c = np.array([0.5, -1.0, 0.0, -0.25, -1.0])
        expected = {
            ZFamily.free(5): [0.0, 1.0, 0.0, 1.0, 1.0],
            ZFamily.card_le(5, 2): [0.0, 1.0, 0.0, 0.0, 1.0],
            ZFamily.card_eq(5, 4): [0.0, 1.0, 1.0, 1.0, 1.0],
        }
        for fam, z in expected.items():
            sol = solve_relaxation(ProblemInstance(np.zeros(5), c, fam))
            assert np.array_equal(sol.z_bar, z)
            assert sol.value == float(c @ np.array(z))

    def test_tied_coordinates_prefer_the_smallest_index(self):
        # two identical coordinates; card_le(2, 1) can take only one whole
        inst = ProblemInstance([1.0, 1.0], [-1.0, -1.0], ZFamily.card_le(2, 1))
        sol = solve_relaxation(inst)
        assert np.array_equal(sol.z_bar, [1.0, 0.0])


class TestRelaxationSearch:
    def test_few_lp_vertices_per_solve(self, monkeypatch):
        # each probe adds a piece of the lower envelope, so a solve needs
        # only a few LP vertices, fractional or not
        calls = []
        lp_vertex = hull._lp_vertex
        monkeypatch.setattr(hull, "_lp_vertex", lambda g, zfam: calls.append(1) or lp_vertex(g, zfam))
        rng = np.random.default_rng(20261018)
        counts, fractional = [], 0
        for n in (16, 200):
            for kind in ("free", "card_le", "card_eq"):
                for _ in range(100):
                    k = None if kind == "free" else int(rng.integers(1, n + 1))
                    inst = ProblemInstance(rng.normal(size=n), rng.uniform(0.0, 1.0, n),
                                           ZFamily(kind, n, k))
                    calls.clear()
                    fractional += solve_relaxation(inst).fractional_count > 0
                    counts.append(len(calls))
        assert fractional >= 30
        assert max(counts) <= 16, max(counts)


def _spy_relax(monkeypatch):
    """Record the (z_bar, value, v_lo, v_hi) of every ``_relax`` call, value on the scaled data."""
    calls = []
    real = hull._relax

    def spy(a, c, zfam):
        out = real(a, c, zfam)
        calls.append(out)
        return out

    monkeypatch.setattr(hull, "_relax", spy)
    return calls


def _random_instances(rng, count):
    for n in (5, 16, 200):
        for kind in ("free", "card_le", "card_eq"):
            for _ in range(count):
                k = None if kind == "free" else int(rng.integers(1, n + 1))
                yield ProblemInstance(rng.normal(size=n), rng.normal(size=n), ZFamily(kind, n, k))


class TestEdgeRounding:
    def test_rounding_is_the_better_bracketing_vertex(self, rng, monkeypatch):
        calls = _spy_relax(monkeypatch)
        cases = list(_random_instances(rng, 10)) + [
            ProblemInstance(a, c, fam) for _, a, c, fam in DEGENERATE]
        for inst in cases:
            sol = solve_relaxation(inst)
            z_bar, value, v_lo, v_hi = calls.pop()
            assert inst.zfam.contains(v_lo) and inst.zfam.contains(v_hi)
            values = [discrete_objective(v, inst.a, inst.c) for v in (v_lo, v_hi)]
            best = min(values)
            winners = [v.tolist() for v, w in zip((v_lo, v_hi), values) if w == best]
            assert sol.rounded_z.tolist() == min(winners)
            assert sol.rounded_value == best
            # z_bar lies on the segment joining the two vertices
            d = v_hi - v_lo
            gamma = float(d @ (z_bar - v_lo)) / float(d @ d) if d.any() else 0.0
            assert 0.0 <= gamma <= 1.0
            assert np.allclose(z_bar, v_lo + gamma * d, rtol=0.0, atol=1e-12)

    def test_integral_relaxation_rounds_to_itself(self, rng):
        integral = 0
        for inst in _random_instances(rng, 20):
            sol = solve_relaxation(inst)
            if sol.fractional_count == 0:
                integral += 1
                assert sol.rounded_value == sol.value
                assert np.array_equal(sol.rounded_z, np.round(sol.z_bar))
        assert integral > 0

    @pytest.mark.parametrize("a, c, fam, ends, rounded", [
        ([2.0], [2.0], ZFamily.free(1), ([0.0], [1.0]), [0.0]),
        ([0.0, 2.0], [0.0, 2.0], ZFamily.card_eq(2, 1), ([1.0, 0.0], [0.0, 1.0]), [0.0, 1.0]),
    ])
    def test_tied_endpoints_go_to_the_lexicographically_smaller(self, monkeypatch, a, c, fam,
                                                                ends, rounded):
        # both endpoints have objective 0; the optimum is inside the edge
        calls = _spy_relax(monkeypatch)
        sol = solve_relaxation(ProblemInstance(a, c, fam))
        _, _, v_lo, v_hi = calls.pop()
        assert (v_lo.tolist(), v_hi.tolist()) == ends
        assert sol.value == -0.5
        assert sol.rounded_value == 0.0
        assert sol.rounded_z.tolist() == rounded

    def test_rounding_does_not_alias_z_bar(self):
        sol = solve_relaxation(ProblemInstance(np.zeros(3), [-1.0, 0.5, -0.5], ZFamily.free(3)))
        assert np.array_equal(sol.rounded_z, sol.z_bar)
        assert sol.rounded_z is not sol.z_bar

    def test_tied_data_rounds_to_an_edge_endpoint(self):
        # coordinates 0 and 2 are exact ties and share the fraction, so the
        # edge runs from the empty set to {0, 2}; the integral point {2} has
        # the relaxation value but is not an endpoint of that edge
        inst = ProblemInstance([-1.0, -0.5, -1.0], [0.5, 1.0, 0.5], ZFamily.free(3))
        first = solve_relaxation(inst)
        again = solve_relaxation(ProblemInstance([-1.0, -0.5, -1.0], [0.5, 1.0, 0.5],
                                                 ZFamily.free(3)))
        assert np.array_equal(first.z_bar, [0.5, 0.0, 0.5])
        assert first.fractional_count == 2
        assert inst.zfam.contains(first.rounded_z)
        assert first.rounded_value >= first.value
        assert first.rounded_value == discrete_objective(first.rounded_z, inst.a, inst.c)
        assert np.array_equal(first.rounded_z, [1.0, 0.0, 1.0])
        for field in ("z_bar", "rounded_z"):
            assert getattr(first, field).tobytes() == getattr(again, field).tobytes()
        assert (first.value, first.rounded_value) == (again.value, again.rounded_value)


class TestQuadReformulate:
    def test_diagonal_case(self):
        Sigma = np.diag([4.0, 9.0])
        lifted = quad_reformulate(Sigma, b=4.0, D=[4.0, 9.0])
        assert np.allclose(lifted.scale, [1.0, 1.5])
        assert np.allclose(lifted.residual, np.zeros((2, 2)))
        assert lifted.dim == 3
        assert lifted.fixed_activation_index == 0

    def test_identity_plus_ones(self):
        n = 4
        Sigma = np.eye(n) + np.ones((n, n))
        lifted = quad_reformulate(Sigma, b=2.0, D=np.ones(n))
        assert np.allclose(lifted.scale, np.full(n, 1.0 / math.sqrt(2.0)))
        assert np.allclose(lifted.residual, np.ones((n, n)) / 2.0)

    def test_oversized_diagonal_fails_with_pivot(self, rng):
        # construct a PSD matrix with known smallest eigenvalue, then ask
        # for a diagonal extraction that exceeds it
        n = 5
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = rng.uniform(1.0, 2.0, size=n)
        Sigma = basis @ np.diag(eigs) @ basis.T
        Sigma = 0.5 * (Sigma + Sigma.T)
        bad = float(eigs.min()) + 0.5
        with pytest.raises(ValueError, match="pivot"):
            quad_reformulate(Sigma, b=1.0, D=np.full(n, bad))

    def test_zero_pivot_with_nonzero_column_entry_fails(self):
        # Sigma - diag(D) has a zero pivot 0 above column entries 2 and 3;
        # the message names the first
        R = np.array([[0.0, 2.0, 3.0], [2.0, 5.0, 0.0], [3.0, 0.0, 5.0]])
        with pytest.raises(ValueError, match=r"zero pivot 0 with nonzero column entry 2\.000000e\+00"):
            quad_reformulate(R + np.eye(3), b=1.0, D=np.ones(3))

    def test_late_bad_pivot_is_named_at_n_200(self, rng):
        # a dense positive definite residual whose pivot 150 is made
        # negative; the leading 150 x 150 block is untouched, so pivots
        # 0..149 pass and 150 is the first offending one
        n, j = 200, 150
        G = rng.normal(size=(n, n))
        R = G @ G.T / n + np.eye(n)
        head = R[:j, :j]
        schur = R[j, j] - R[j, :j] @ np.linalg.solve(head, R[:j, j])
        R[j, j] -= schur + 1.0
        with pytest.raises(ValueError, match=rf"pivot {j} evaluates to -1\.0"):
            quad_reformulate(R + np.eye(n), b=1.0, D=np.ones(n))

    def test_accepts_modest_diagonal(self, rng):
        n = 5
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = rng.uniform(1.0, 2.0, size=n)
        Sigma = basis @ np.diag(eigs) @ basis.T
        Sigma = 0.5 * (Sigma + Sigma.T)
        good = float(eigs.min()) / 2.0
        lifted = quad_reformulate(Sigma, b=3.0, D=np.full(n, good))
        assert np.allclose(lifted.residual * 3.0 + np.diag(np.full(n, good)), Sigma)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            quad_reformulate([[1.0, 0.5], [0.0, 1.0]], b=1.0, D=[0.5, 0.5])

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            quad_reformulate(np.eye(2), b=1.0, D=[1.0, 0.0])

    @pytest.mark.parametrize("b, message", [(math.inf, "finite and nonnegative"),
                                            (True, "real number"), ("3", "real number"),
                                            (0.0, "positive")])
    def test_rejects_malformed_budget(self, b, message):
        with pytest.raises(ValueError, match=f"budget b must be .*{message}"):
            quad_reformulate(np.eye(2), b=b, D=[0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_diagonal(self, bad):
        with pytest.raises(ValueError, match="D must contain only finite entries"):
            quad_reformulate(np.eye(2), b=1.0, D=[0.5, bad])

    def test_overflowing_lifted_coefficients_raise(self):
        # the residual I / 5e-324 overflows; with no residual, the scale
        # sqrt(1 / 5e-324) = 4.5e161 is finite
        with pytest.raises(ValueError, match="lifted coefficients overflow the float range"):
            quad_reformulate(2.0 * np.eye(2), 5e-324, [1.0, 1.0])
        lifted = quad_reformulate(np.eye(2), 5e-324, [1.0, 1.0])
        assert np.allclose(lifted.scale, 1.0 / math.sqrt(5e-324), rtol=1e-15, atol=0.0)

    def test_accepts_diagonal_matrix_form(self):
        lifted = quad_reformulate(np.eye(2), b=1.0, D=np.diag([0.5, 0.5]))
        assert np.allclose(lifted.scale, [math.sqrt(0.5), math.sqrt(0.5)])
