import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseball.core import (
    MixedPoint,
    ProblemInstance,
    Tolerance,
    ZFamily,
    as_index_set,
    as_vector,
    enumerate_Z,
    is_in_X,
    load_problem_instance,
    loads_strict,
    parse_problem_instance,
    problem_instance_to_dict,
    safe_div,
    safe_div_arr,
    satisfies_bigM,
)

import oracles


class TestSafeDiv:
    def test_convention(self):
        assert safe_div(0.0, 0.0) == 0.0
        assert safe_div(1.0, 0.0) == math.inf
        assert safe_div(-2.0, 0.0) == -math.inf
        assert safe_div(1.0, 4.0) == 0.25

    def test_array_variant(self):
        out = safe_div_arr([0.0, 1.0, -1.0, 3.0], [0.0, 0.0, 0.0, 2.0])
        assert out[0] == 0.0
        assert out[1] == math.inf
        assert out[2] == -math.inf
        assert out[3] == 1.5

    def test_array_broadcast_scalar_denominator(self):
        out = safe_div_arr([1.0, 0.0], 0.0)
        assert out[0] == math.inf and out[1] == 0.0


class TestIndexSet:
    @pytest.mark.parametrize("S, expected", [
        ((), []),
        ([], []),
        (np.array([]), []),
        ((3, 1, 3), [1, 3]),
        ({2, 0}, [0, 2]),
        (range(3), [0, 1, 2]),
        (np.array([4, 0], dtype=np.uint8), [0, 4]),
        (np.flatnonzero([0, 1, 0, 1, 1]), [1, 3, 4]),
        ((np.int32(2), 1), [1, 2]),
    ])
    def test_accepts_integer_collections(self, S, expected):
        idx = as_index_set(S, 5)
        assert idx.dtype == int
        assert idx.tolist() == expected

    @pytest.mark.parametrize("S, error", [
        ((1.7,), ValueError),
        ((0.0,), ValueError),
        ([True], ValueError),
        (np.array([False, True]), ValueError),
        ("01", ValueError),
        ([[0, 1]], ValueError),
        (3, ValueError),
        ((5,), IndexError),
        ((-1, 2), IndexError),
    ])
    def test_rejects_non_integers_and_out_of_range(self, S, error):
        with pytest.raises(error):
            as_index_set(S, 5)


class TestTolerance:
    def test_defaults(self):
        assert Tolerance().feas_abs == 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerance(feas_abs=0.0)


class TestZFamily:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZFamily("weird", 3)
        with pytest.raises(ValueError):
            ZFamily.card_le(3, 0)
        with pytest.raises(ValueError):
            ZFamily.card_eq(3, 4)
        with pytest.raises(ValueError):
            ZFamily("free", 3, k=1)

    @given(st.integers(-3, 30), st.integers(-3, 30),
           st.sampled_from([int, np.int8, np.int32, np.int64]),
           st.sampled_from(["card_le", "card_eq"]))
    def test_accepts_any_integral_and_stores_int(self, n, k, to_int, kind):
        if n < 1:
            with pytest.raises(ValueError, match="n must be at least 1"):
                ZFamily.free(to_int(n))
            return
        free = ZFamily.free(to_int(n))
        assert type(free.n) is int and free == ZFamily.free(n)
        if not 1 <= k <= n:
            with pytest.raises(ValueError, match="1 <= k <= n"):
                ZFamily(kind, to_int(n), to_int(k))
            return
        fam = ZFamily(kind, to_int(n), to_int(k))
        assert type(fam.n) is int and type(fam.k) is int
        assert fam == ZFamily(kind, n, k) and hash(fam) == hash(ZFamily(kind, n, k))

    @given(st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                     st.none(), st.just(np.bool_(True)), st.just(np.float64(3.0))))
    def test_non_integers_are_named_as_type_errors(self, bad):
        with pytest.raises(ValueError, match="n must be an integer"):
            ZFamily.free(bad)
        with pytest.raises(ValueError, match="k must be an integer"):
            ZFamily.card_le(5, bad)
        with pytest.raises(ValueError, match="k must be an integer"):
            ZFamily.card_eq(5, bad)

    def test_reported_numpy_cases(self):
        assert ZFamily("card_le", 5, np.int64(2)) == ZFamily.card_le(5, 2)
        assert ZFamily("free", np.int64(3)).n == 3
        assert ZFamily.card_eq(np.uint16(4), np.uint8(4)) == ZFamily.card_eq(4, 4)
        with pytest.raises(ValueError, match="k must be an integer.*bool"):
            ZFamily("card_le", 5, True)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_member_counts_match_enumeration(self, n):
        fams = [ZFamily.free(n)]
        for k in range(1, n + 1):
            fams.append(ZFamily.card_le(n, k))
            fams.append(ZFamily.card_eq(n, k))
        for fam in fams:
            members = enumerate_Z(fam)
            assert members.shape[0] == fam.member_count()

    def test_contains(self):
        fam = ZFamily.card_le(3, 1)
        assert fam.contains([0.0, 1.0, 0.0])
        assert fam.contains([0.0, 1.0 - 1e-12, 0.0])
        assert not fam.contains([1.0, 1.0, 0.0])  # too many ones
        assert not fam.contains([0.5, 0.0, 0.0])  # not binary

    def test_conv_contains(self):
        fam = ZFamily.card_eq(3, 2)
        assert fam.conv_contains([0.5, 0.75, 0.75])
        assert not fam.conv_contains([0.5, 0.5, 0.5])  # sum 1.5 != 2
        assert not fam.conv_contains([1.5, 0.5, 0.0])  # above box


class TestMixedPoint:
    def test_clamps_z(self):
        p = MixedPoint([0.5], [1.0 + 1e-12])
        assert p.z[0] == 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MixedPoint([math.nan], [0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            MixedPoint([1.0, 2.0], [1.0])

    def test_immutable(self):
        p = MixedPoint([0.5, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            p.x[0] = 2.0


class TestIsInX:
    def test_origin_always_feasible(self):
        assert is_in_X(MixedPoint([0.0, 0.0], [0.0, 0.0]), ZFamily.free(2))

    def test_unit_vector_on_active_coordinate(self):
        assert is_in_X(MixedPoint([1.0, 0.0], [1.0, 0.0]), ZFamily.free(2))

    def test_complementarity_violation(self):
        assert not is_in_X(MixedPoint([0.5, 0.5], [1.0, 0.0]), ZFamily.free(2))

    def test_norm_violation(self):
        assert not is_in_X(MixedPoint([0.9, 0.9], [1.0, 1.0]), ZFamily.free(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_in_X(MixedPoint([0.0], [0.0]), ZFamily.free(2))

    def test_monotone_in_feas_abs(self, rng):
        # feasible at a tolerance stays feasible at any looser tolerance
        for _ in range(200):
            n = int(rng.integers(1, 6))
            x, z = oracles.sample_X_point("free", n, None, rng)
            x = x + rng.normal(scale=2e-9, size=n)
            p = MixedPoint(x, z)
            tight = Tolerance(feas_abs=1e-9)
            loose = Tolerance(feas_abs=1e-6)
            if is_in_X(p, ZFamily.free(n), tight):
                assert is_in_X(p, ZFamily.free(n), loose)


class TestBigM:
    def test_boundary(self):
        assert satisfies_bigM(MixedPoint([0.3], [0.3]))

    def test_violated(self):
        assert not satisfies_bigM(MixedPoint([0.5], [0.4]))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_membership_implies_bigM(self, n, seed):
        # |x_i| <= 1 plus complementarity force the big-M inequality
        rng = np.random.default_rng(seed)
        x, z = oracles.sample_X_point("free", n, None, rng)
        p = MixedPoint(x, z)
        if is_in_X(p, ZFamily.free(n)):
            assert satisfies_bigM(p)


class TestEnumerate:
    def test_free_two(self):
        assert enumerate_Z(ZFamily.free(2)).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_card_le_one(self):
        assert enumerate_Z(ZFamily.card_le(2, 1)).tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_card_eq_two(self):
        assert enumerate_Z(ZFamily.card_eq(3, 2)).tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_lexicographic_order(self):
        members = enumerate_Z(ZFamily.card_le(5, 3))
        rows = [tuple(r) for r in members.tolist()]
        assert rows == sorted(rows)

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_Z(ZFamily.free(25))

    def test_matches_independent_enumeration(self):
        for n in range(1, 9):
            families = [(ZFamily.free(n), "free", None)]
            for k in range(1, n + 1):
                families += [(ZFamily.card_le(n, k), "card_le", k), (ZFamily.card_eq(n, k), "card_eq", k)]
            for fam, kind, k in families:
                members = enumerate_Z(fam)
                assert members.dtype == np.int8 and members.shape == (fam.member_count(), n)
                ours = [tuple(r) for r in members.tolist()]
                theirs = [tuple(int(v) for v in m) for m in oracles.family_members(kind, n, k)]
                assert ours == theirs

    def test_cardinality_at_the_guard_stays_small(self):
        fam = ZFamily.card_le(20, 10)
        tracemalloc.start()
        try:
            members = enumerate_Z(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert members.shape == (fam.member_count(), 20)
        assert peak < 32 * 2**20


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        inst = ProblemInstance([1.0, -2.0], [0.5, 0.0], ZFamily.card_le(2, 1))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(problem_instance_to_dict(inst)))
        back = load_problem_instance(path)
        assert np.array_equal(back.a, inst.a)
        assert np.array_equal(back.c, inst.c)
        assert back.zfam == inst.zfam

    def test_rejects_nan_token(self):
        with pytest.raises(ValueError):
            loads_strict('{"n": 1, "a": [NaN], "c": [0], "zfam": {"kind": "free"}}')

    def test_rejects_infinity_token(self):
        with pytest.raises(ValueError):
            loads_strict('{"n": 1, "a": [Infinity], "c": [0], "zfam": {"kind": "free"}}')

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError):
            parse_problem_instance({"n": 1, "a": [1.0]})

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            parse_problem_instance({"n": 2, "a": [1.0], "c": [0.0, 0.0], "zfam": {"kind": "free"}})

    @given(st.integers(1, 6), st.sampled_from(["free", "card_le", "card_eq"]), st.data())
    def test_parse_round_trips_and_names_bad_fields(self, n, kind, data):
        k = None if kind == "free" else data.draw(st.integers(1, n))
        entries = st.floats(-1e6, 1e6, allow_nan=False)
        a = data.draw(st.lists(entries, min_size=n, max_size=n))
        c = data.draw(st.lists(entries, min_size=n, max_size=n))
        obj = problem_instance_to_dict(ProblemInstance(a, c, ZFamily(kind, n, k)))
        back = parse_problem_instance(json.loads(json.dumps(obj)))
        assert back.zfam == ZFamily(kind, n, k)
        assert np.array_equal(back.a, a) and np.array_equal(back.c, c)
        bad = data.draw(st.one_of(st.booleans(), st.text(max_size=2),
                                  st.floats(allow_nan=False, allow_infinity=False)))
        with pytest.raises(ValueError, match="n must be an integer"):
            parse_problem_instance({**obj, "n": bad})
        if k is not None:
            with pytest.raises(ValueError, match="k must be an integer"):
                parse_problem_instance({**obj, "zfam": {"kind": kind, "k": bad}})
            with pytest.raises(ValueError, match="1 <= k <= n"):
                parse_problem_instance({**obj, "zfam": {"kind": kind, "k": n + 1}})
        with pytest.raises(ValueError, match="malformed"):
            parse_problem_instance({key: v for key, v in obj.items() if key != "zfam"})

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0]], "a")

    @pytest.mark.parametrize("bad", [{"a": 1}, [1.0, {"a": 1}], [[1.0], [1.0, 2.0]], ["x"]])
    def test_as_vector_non_numeric_is_value_error(self, bad):
        with pytest.raises(ValueError, match="a must be an array of real numbers"):
            as_vector(bad, "a")
