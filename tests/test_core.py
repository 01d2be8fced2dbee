import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseball.core import (
    MixedPoint,
    ProblemInstance,
    ZFamily,
    as_index_set,
    as_vector,
    enumerate_Z,
    is_in_X,
    load_problem_instance,
    loads_strict,
    norm,
    parse_problem_instance,
    problem_instance_to_dict,
    safe_div,
    safe_div_arr,
    satisfies_bigM,
    scale_back,
    to_unit,
)
from sparseball.hull import CutVector, LinearCut, solve_relaxation
from sparseball.robust import DualCertificate, PortfolioPoint, RobustInstance

import oracles


class TestScaleRule:
    def test_only_core_chooses_a_scale(self):
        # every other module squares user data through core.to_unit or
        # core.norm and scales results, scalar or array, back through
        # core.scale_back
        package = Path(__file__).resolve().parents[1] / "src" / "sparseball"
        modules = sorted(package.glob("*.py"))
        assert any(path.name == "core.py" for path in modules)
        scale = re.compile(r"\bunit_scale\(|ldexp\(")
        callers = [path.name for path in modules
                   if path.name != "core.py" and scale.search(path.read_text())]
        assert callers == []

    def test_to_unit_and_norm(self):
        e, u, v = to_unit(np.array([3.0, -4.0]), [1e-3])
        assert e == 3 and u.tolist() == [0.375, -0.5] and v.tolist() == [1e-3 / 8]
        assert to_unit(np.zeros(2))[0] == 0 and norm(np.zeros(0)) == 0.0
        for s in (1.0, 1e160, 1e-170, 2.0 ** -1000):
            assert norm(np.array([3.0, -4.0]) * s) == pytest.approx(5.0 * s, rel=1e-15, abs=0.0)
        assert norm(np.full(3, 1.5e308)) == math.inf

    def test_infinite_entries_leave_the_scale_to_the_finite_ones(self):
        # y / d past the float range reaches to_unit as inf; the finite
        # entries are still scaled, so their squares stay finite and warn of nothing
        e, u = to_unit(np.array([-math.inf, 1e300]))
        assert e == 997 and u.tolist() == [-math.inf, 1e300 / 2.0 ** 997]
        assert norm(np.array([1e308, 1e308, math.inf])) == math.inf
        assert to_unit(np.array([math.inf]))[0] == 0

    def test_scale_back_is_inf_past_the_range(self):
        assert scale_back(0.75, 3) == 6.0 and scale_back(-0.75, -1) == -0.375
        assert scale_back(1.5, 1024) == math.inf and scale_back(-1.5, 1024) == -math.inf
        assert scale_back(0.0, 2000) == 0.0 and scale_back(0.5, -1100) == 0.0
        # arrays: same rule, shape kept, input unchanged, no warning
        r = np.array([[1.5, -1.5], [0.5, 0.0]])
        out = scale_back(r, 1024)
        assert out.shape == (2, 2) and r.tolist() == [[1.5, -1.5], [0.5, 0.0]]
        assert out.tolist() == [[math.inf, -math.inf], [2.0 ** 1023, 0.0]]
        assert scale_back(r, -1100).tolist() == [[0.0, -0.0], [0.0, 0.0]]
        assert scale_back(r, 3).tolist() == [[12.0, -12.0], [4.0, 0.0]]
        # an array of exponents, one per entry
        assert scale_back(np.array([0.5, 0.5, 0.5]), np.array([1, 1025, -1074])).tolist() == [1.0, math.inf, 0.0]


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

    def test_shares_the_relaxation_point(self):
        inst = ProblemInstance([-1.0, -0.5, 0.3], [0.2, 0.9, 0.1], ZFamily.card_le(3, 2))
        rel = solve_relaxation(inst)
        assert not rel.z_bar.flags.writeable and not rel.rounded_z.flags.writeable
        p = MixedPoint(np.zeros(3), rel.z_bar)
        assert p.z is rel.z_bar


def _frozen(values, dtype=np.float64):
    v = np.array(values, dtype=dtype)
    v.setflags(write=False)
    return v


# each class that freezes its vectors, built from one vector v of length 2
_FROZEN_FIELDS = {
    "MixedPoint.z": (lambda v: MixedPoint([0.1, 0.2], v), "z"),
    "ProblemInstance.a": (lambda v: ProblemInstance(v, [0.0, 0.0], ZFamily.free(2)), "a"),
    "RobustInstance.d": (lambda v: RobustInstance([0.0, 0.0], v, 1.0, 1, 2), "d"),
    "PortfolioPoint.y": (lambda v: PortfolioPoint(v), "y"),
    "DualCertificate.t": (lambda v: DualCertificate(1.0, 0.0, 0.0, v, [0.0, 0.0]), "t"),
    "CutVector.alpha": (lambda v: CutVector(v), "alpha"),
    "LinearCut.pi_abs": (lambda v: LinearCut(v, [0.0, 0.0], 1.0), "pi_abs"),
}


class TestFreezeFields:
    @pytest.mark.parametrize("name", sorted(_FROZEN_FIELDS))
    def test_a_frozen_owned_vector_is_shared(self, name):
        make, field = _FROZEN_FIELDS[name]
        v = _frozen([0.25, 0.75])
        assert getattr(make(v), field) is v

    @pytest.mark.parametrize("name", sorted(_FROZEN_FIELDS))
    def test_anything_else_is_copied_and_frozen(self, name):
        make, field = _FROZEN_FIELDS[name]
        writeable = np.array([0.25, 0.75])
        base = np.array([0.25, 0.75, 0.5])
        view = base[:2]
        view.setflags(write=False)  # frozen, but its base is not
        for v in (writeable, view, [0.25, 0.75], _frozen([0.25, 0.75], np.float32)):
            obj = make(v)
            stored = getattr(obj, field)
            assert stored is not v and not stored.flags.writeable and stored.dtype == np.float64
            writeable[0] = base[0] = 0.5
            assert stored.tolist() == [0.25, 0.75]
            writeable[0] = base[0] = 0.25

    @pytest.mark.parametrize("name", sorted(_FROZEN_FIELDS))
    def test_non_finite_and_matrix_input_raise(self, name):
        make, field = _FROZEN_FIELDS[name]
        for bad in (_frozen([math.nan, 0.5]), _frozen([math.inf, 0.5])):
            with pytest.raises(ValueError, match=f"{field} must contain only finite entries"):
                make(bad)
        with pytest.raises(ValueError, match=f"{field} must be one-dimensional"):
            make(_frozen([[0.25, 0.75]]))


class TestIsInX:
    def test_origin_always_feasible(self):
        assert is_in_X(MixedPoint([0.0, 0.0], [0.0, 0.0]), ZFamily.free(2))

    def test_unit_vector_on_active_coordinate(self):
        assert is_in_X(MixedPoint([1.0, 0.0], [1.0, 0.0]), ZFamily.free(2))

    def test_complementarity_violation(self):
        assert not is_in_X(MixedPoint([0.5, 0.5], [1.0, 0.0]), ZFamily.free(2))

    def test_norm_violation(self):
        assert not is_in_X(MixedPoint([0.9, 0.9], [1.0, 1.0]), ZFamily.free(2))

    def test_norm_past_the_float_range(self):
        # x'x is past the float range; it is summed on x / 2**e
        assert not is_in_X(MixedPoint(np.full(4, 1e308), np.ones(4)), ZFamily.free(4))
        assert is_in_X(MixedPoint(np.full(4, 0.5), np.ones(4)), ZFamily.free(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_in_X(MixedPoint([0.0], [0.0]), ZFamily.free(2))


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
        with pytest.raises(ValueError, match="n <= 16"):
            enumerate_Z(ZFamily.free(17))

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

    @pytest.mark.parametrize("fam", [ZFamily.free(5), ZFamily.card_le(5, 2), ZFamily.card_eq(5, 2)],
                             ids=lambda fam: fam.kind)
    def test_memoized_and_read_only(self, fam):
        members = enumerate_Z(fam)
        assert enumerate_Z(fam) is members
        assert enumerate_Z(ZFamily(fam.kind, fam.n, fam.k)) is members
        with pytest.raises(ValueError, match="read-only"):
            members[0, 0] = 1

    def test_every_family_to_n_12_holds_under_a_mebibyte(self):
        # brute force's halves up to n = 24: 0.74 MiB of members in all
        enumerate_Z.cache_clear()
        tracemalloc.start()
        try:
            for n in range(1, 13):
                enumerate_Z(ZFamily.free(n))
                for k in range(1, n + 1):
                    enumerate_Z(ZFamily.card_le(n, k))
                    enumerate_Z(ZFamily.card_eq(n, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_free_at_the_guard_stays_small(self):
        # the output alone is 1 MiB; a cold build, not a cached one
        fam = ZFamily.free(16)
        enumerate_Z.cache_clear()
        tracemalloc.start()
        try:
            members = enumerate_Z(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert members.shape == (fam.member_count(), 16)
        assert peak < 4 * 2**20


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
