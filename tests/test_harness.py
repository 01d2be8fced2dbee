import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseball import robust
from sparseball._rng import MASK64, Xoshiro256StarStar, splitmix64_mix
from sparseball.harness import (
    CSV_HEADER,
    D_FLOOR,
    PRNG_NAME,
    ExperimentConfig,
    ExperimentRecord,
    cell_scatter_svg,
    emit_report,
    experiment_config_to_dict,
    generate_instance,
    instance_seed,
    load_experiment_config,
    parse_experiment_config,
    parse_report_csv,
    records_to_csv,
    run_experiment,
)


SMOKE = ExperimentConfig(
    n=16,
    k_list=(3,),
    b_list=(2.0,),
    instances_per_cell=2,
    seed=7,
)


@pytest.fixture(scope="module")
def smoke_run():
    return run_experiment(SMOKE)


class TestRng:
    def test_stream_is_deterministic(self):
        a = Xoshiro256StarStar(123)
        b = Xoshiro256StarStar(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = Xoshiro256StarStar(1)
        b = Xoshiro256StarStar(2)
        assert a.next_u64() != b.next_u64()

    def test_uniform_range(self):
        rng = Xoshiro256StarStar(99)
        vals = rng.uniforms(1000)
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_mix_is_64_bit(self):
        assert 0 <= splitmix64_mix(2**64 - 1) <= MASK64

    @pytest.mark.parametrize("seed, head", [
        (0, [0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0]),
        (123, [0x325A8FA1D1A069F9, 0xF835E3C7656D4D5E, 0x77AA2B46C3F2A62F]),
        (2**64 - 1, [0x8F5520D52A7EAD08, 0xC476A018CAA1802D, 0x81DE31C0D260469E]),
    ])
    def test_stream_is_pinned(self, seed, head):
        # generated instances are byte-stable only while these stay fixed
        rng = Xoshiro256StarStar(seed)
        assert [rng.next_u64() for _ in range(3)] == head


class TestGenerateInstance:
    def test_deterministic(self):
        a = generate_instance(10, 2, 5.0, 42)
        b = generate_instance(10, 2, 5.0, 42)
        assert np.array_equal(a.a_tilde, b.a_tilde)
        assert np.array_equal(a.d, b.d)

    def test_mean_is_near_half(self):
        inst = generate_instance(100_000, 5, 5.0, 1)
        assert 0.49 <= float(inst.a_tilde.mean()) <= 0.51
        assert 0.49 <= float(inst.d.mean()) <= 0.51

    def test_d_floor(self):
        for seed in range(20):
            inst = generate_instance(500, 5, 5.0, seed)
            assert np.all(inst.d >= D_FLOOR)

    def test_instance_seeds_distinct(self):
        seeds = {instance_seed(0, ki, bi, i) for ki in range(3) for bi in range(3) for i in range(10)}
        assert len(seeds) == 90

    @pytest.mark.parametrize("to_int", [np.int64, np.uint64, np.int32, np.uint8])
    def test_numpy_integer_seeds_match_plain_ints(self, to_int):
        plain = generate_instance(6, 2, 1.0, 5)
        typed = generate_instance(to_int(6), to_int(2), 1.0, to_int(5))
        assert np.array_equal(plain.a_tilde, typed.a_tilde) and np.array_equal(plain.d, typed.d)
        assert (typed.n, typed.k) == (6, 2) and type(typed.n) is int and type(typed.k) is int
        assert instance_seed(to_int(3), to_int(0), to_int(1), to_int(2)) == instance_seed(3, 0, 1, 2)

    @pytest.mark.parametrize("n, k, b, seed, message", [
        (6, 2.7, 1.0, 1, "k must be an integer, got 2.7"),
        (6, True, 1.0, 1, "k must be an integer, got True of type bool"),
        (6, 2, True, 1, "budget b must be a real number, got True"),
        (6, 2, "1", 1, "budget b must be a real number"),
        (6.0, 2, 1.0, 1, "n must be an integer, got 6.0"),
        (6, 2, 1.0, 1.5, "seed must be an integer, got 1.5"),
        (6, 2, 1.0, True, "seed must be an integer, got True of type bool"),
    ])
    def test_wrong_types_are_not_cast(self, n, k, b, seed, message):
        with pytest.raises(ValueError, match=message):
            generate_instance(n, k, b, seed)

    def test_instance_seed_rejects_non_integers(self):
        with pytest.raises(ValueError, match="base_seed must be an integer"):
            instance_seed(3.0, 0, 0, 0)
        with pytest.raises(ValueError, match="instance must be an integer"):
            instance_seed(3, 0, 0, True)


class TestConfig:
    def test_defaults_match_protocol(self):
        config = ExperimentConfig()
        assert config.n == 200
        assert config.k_list == (5, 10, 20)
        assert config.b_list == (5.0, 10.0, 20.0)
        assert config.instances_per_cell == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=())
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("nominal", "psychic"))
        with pytest.raises(ValueError):
            ExperimentConfig(n=4, k_list=(5,))

    def test_json_round_trip(self, tmp_path):
        config = ExperimentConfig(n=20, k_list=(2, 3), b_list=(1.0,), seed=9,
                                  instances_per_cell=3, record_wall_time=False)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(experiment_config_to_dict(config)))
        assert load_experiment_config(path) == config


DEFAULT_CONFIG_JSON = (
    '{"b_list": [5.0, 10.0, 20.0], "instances_per_cell": 10, "k_list": [5, 10, 20], '
    '"methods": ["nominal", "budgeted", "ellipsoidal", "perspective"], "n": 200, '
    '"record_wall_time": true, "seed": 0}'
)

NOT_INTEGERS = st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                         st.none(), st.just(np.bool_(True)), st.just(np.float64(3.0)))
NOT_REALS = st.one_of(st.booleans(), st.text(max_size=3), st.none(), st.just(np.bool_(False)),
                      st.just(1j), st.just([1.0]))
INTEGER_TYPES = st.sampled_from([int, np.int16, np.int32, np.int64, np.uint32])


class TestConfigTypes:
    def test_default_config_is_unchanged(self):
        text = json.dumps(experiment_config_to_dict(ExperimentConfig()), sort_keys=True)
        assert text == DEFAULT_CONFIG_JSON
        assert parse_experiment_config(json.loads(text)) == ExperimentConfig()

    def test_reported_casting_case_is_rejected(self):
        with pytest.raises(ValueError, match="n must be an integer, got 16.9 of type float"):
            parse_experiment_config({"n": 16.9, "k_list": [2.7, True], "instances_per_cell": True})
        with pytest.raises(ValueError, match="k must be an integer, got 2.7"):
            parse_experiment_config({"n": 16, "k_list": [2.7]})
        with pytest.raises(ValueError, match="k must be an integer, got True of type bool"):
            parse_experiment_config({"n": 16, "k_list": [2, True]})
        with pytest.raises(ValueError, match="instances_per_cell must be an integer"):
            parse_experiment_config({"n": 16, "k_list": [2], "instances_per_cell": True})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 50), st.lists(st.integers(1, 50), min_size=1, max_size=3, unique=True),
           st.integers(1, 20), st.integers(0, 2**15 - 1), INTEGER_TYPES)
    def test_integral_fields_accept_any_integer_type(self, n, k_list, per_cell, seed, to_int):
        kwargs = {"n": n, "k_list": tuple(k_list), "instances_per_cell": per_cell, "seed": seed}
        if any(k > n for k in k_list):
            with pytest.raises(ValueError, match="1 <= k <= n"):
                ExperimentConfig(**kwargs)
            return
        plain = ExperimentConfig(**kwargs)
        typed = ExperimentConfig(n=to_int(n), k_list=tuple(to_int(k) for k in k_list),
                                 instances_per_cell=to_int(per_cell), seed=to_int(seed))
        assert typed == plain
        assert all(type(v) is int for v in (typed.n, typed.instances_per_cell, typed.seed))
        assert all(type(k) is int for k in typed.k_list)
        assert parse_experiment_config(kwargs | {"k_list": k_list}) == plain

    @settings(max_examples=60, deadline=None)
    @given(NOT_INTEGERS, st.sampled_from(["n", "instances_per_cell", "seed", "k"]))
    def test_non_integers_are_rejected_by_name(self, bad, field_name):
        obj = {"n": 8, "k_list": [2]}
        if field_name == "k":
            obj["k_list"] = [2, bad]
        else:
            obj[field_name] = bad
        with pytest.raises(ValueError, match=f"{field_name} must be an integer"):
            parse_experiment_config(obj)
        kwargs = dict(obj, k_list=tuple(obj["k_list"]))
        with pytest.raises(ValueError, match=f"{field_name} must be an integer"):
            ExperimentConfig(**kwargs)

    @settings(max_examples=40, deadline=None)
    @given(NOT_REALS)
    def test_budgets_must_be_real(self, bad):
        with pytest.raises(ValueError, match="budget b must be a real number"):
            parse_experiment_config({"n": 8, "k_list": [2], "b_list": [1.0, bad]})
        with pytest.raises(ValueError, match="budget b must be a real number"):
            ExperimentConfig(n=8, k_list=(2,), b_list=(bad,))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_budgets_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ExperimentConfig(n=8, k_list=(2,), b_list=(1.0, bad))

    def test_budgets_accept_integers_and_numpy_reals(self):
        config = ExperimentConfig(n=8, k_list=(2,), b_list=(1, np.float32(2.5), np.int64(3)))
        assert config.b_list == (1.0, 2.5, 3.0)
        assert all(type(b) is float for b in config.b_list)

    @pytest.mark.parametrize("bad", [1, 0, "true", None, np.bool_(True)])
    def test_record_wall_time_must_be_bool(self, bad):
        with pytest.raises(ValueError, match="record_wall_time must be a bool"):
            parse_experiment_config({"record_wall_time": bad})
        with pytest.raises(ValueError, match="record_wall_time must be a bool"):
            ExperimentConfig(record_wall_time=bad)

    @pytest.mark.parametrize("obj, message", [
        ({"solver": {"max_iter": 10}}, "unknown experiment config key 'solver'"),
        ({"n": 8, "k_list": [2], "solver": {}}, "unknown experiment config key 'solver'"),
        ({"k_lsit": [2]}, "unknown experiment config key 'k_lsit'"),
        ({"n": 40, "k_list": [2], "instances_per_cel": 1}, "unknown experiment config key 'instances_per_cel'"),
    ])
    def test_unknown_and_removed_keys_are_rejected(self, obj, message):
        with pytest.raises(ValueError, match=message):
            parse_experiment_config(obj)

    @pytest.mark.parametrize("kwargs, name", [
        ({"k_list": (2, 2)}, "k_list"),
        ({"k_list": (2, np.int64(2))}, "k_list"),
        ({"b_list": (1.0, 1)}, "b_list"),
        ({"methods": ("nominal", "nominal")}, "methods"),
    ])
    def test_duplicate_entries_are_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must not repeat an entry"):
            ExperimentConfig(n=40, **kwargs)
        obj = {key: list(value) for key, value in kwargs.items()}
        with pytest.raises(ValueError, match=f"{name} must not repeat an entry"):
            parse_experiment_config({"n": 40, **obj})

    def test_non_list_fields_and_non_objects_are_value_errors(self):
        with pytest.raises(ValueError, match="k_list must be a list"):
            parse_experiment_config({"n": 8, "k_list": 2})
        with pytest.raises(ValueError, match="experiment config must be a JSON object"):
            parse_experiment_config([8])


class TestRunExperiment:
    def test_smoke_grid_counts(self, smoke_run):
        assert len(smoke_run.records) == 2 * len(SMOKE.methods)

    def test_worst_case_dominates_nominal(self, smoke_run):
        for record in smoke_run.records:
            assert record.worst_case >= record.nominal_value - 1e-9

    def test_record_ordering(self, smoke_run):
        pos = {m: i for i, m in enumerate(SMOKE.methods)}
        keys = [(r.k, r.b, r.instance, pos[r.method]) for r in smoke_run.records]
        assert keys == sorted(keys)

    def test_metadata_documents_generator(self, smoke_run):
        assert smoke_run.metadata["prng"] == PRNG_NAME
        assert "seed_rule" in smoke_run.metadata
        assert smoke_run.metadata["config"]["seed"] == 7

    def test_capped_solves_keep_every_record(self, monkeypatch):
        monkeypatch.setattr(robust, "_MAX_ITER", 10)
        run = run_experiment(dataclasses.replace(SMOKE, record_wall_time=False))
        assert [(r.k, r.b, r.instance, r.method) for r in run.records] == [
            (3, 2.0, i, m) for i in range(2) for m in SMOKE.methods]
        assert "failures" not in run.metadata
        exact = ("nominal", "ellipsoidal", "perspective")
        exact_only = dataclasses.replace(SMOKE, record_wall_time=False, methods=exact)
        assert [r for r in run.records if r.method in exact] == run_experiment(exact_only).records

    def test_deterministic_csv_without_timings(self):
        config = dataclasses.replace(SMOKE, record_wall_time=False)
        csv_a = records_to_csv(run_experiment(config).records)
        csv_b = records_to_csv(run_experiment(config).records)
        assert csv_a == csv_b


class TestReporting:
    def test_csv_round_trip(self, smoke_run, tmp_path):
        paths = emit_report(smoke_run.records, tmp_path)
        [path] = [p for p in paths if p.name == "results.csv"]
        back = parse_report_csv(path)
        assert back == smoke_run.records

    def test_csv_header(self, smoke_run):
        text = records_to_csv(smoke_run.records)
        assert text.splitlines()[0] == ",".join(CSV_HEADER)

    def test_empty_records_error(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path)

    def test_svg_marker_counts(self, smoke_run, tmp_path):
        paths = emit_report(smoke_run.records, tmp_path)
        [path] = [p for p in paths if p.suffix == ".svg"]  # one cell
        svg = path.read_text()
        assert svg.count('class="pt ') == len(smoke_run.records)
        for method in SMOKE.methods:
            assert svg.count(f'class="pt m-{method}"') == 2

    def test_svg_single_record_cell(self):
        record = ExperimentRecord(k=1, b=1.0, instance=0, method="nominal",
                                  nominal_value=0.5, worst_case=1.5, solve_time=0.0)
        svg = cell_scatter_svg([record], title="cell")
        assert svg.count('class="pt ') == 1

    def test_metadata_written(self, smoke_run, tmp_path):
        paths = emit_report(smoke_run.records, tmp_path, metadata=smoke_run.metadata)
        names = {p.name for p in paths}
        assert "metadata.json" in names
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["prng"] == PRNG_NAME

    def test_cell_label(self):
        record = ExperimentRecord(k=5, b=10.0, instance=0, method="nominal",
                                  nominal_value=0.0, worst_case=0.0, solve_time=0.0)
        assert record.cell == "k5_b10"
