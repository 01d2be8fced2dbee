import dataclasses
import json

import numpy as np
import pytest

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
from sparseball.robust import SubgradientConfig


SMOKE = ExperimentConfig(
    n=16,
    k_list=(3,),
    b_list=(2.0,),
    instances_per_cell=2,
    seed=7,
    solver=SubgradientConfig(),
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


class TestRunExperiment:
    def test_smoke_grid_counts(self, smoke_run):
        assert len(smoke_run.records) == 2 * len(SMOKE.methods)
        assert not smoke_run.failures

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

    def test_deterministic_csv_without_timings(self):
        config = dataclasses.replace(SMOKE, record_wall_time=False)
        csv_a = records_to_csv(run_experiment(config).records)
        csv_b = records_to_csv(run_experiment(config).records)
        assert csv_a == csv_b


class TestReporting:
    def test_csv_round_trip(self, smoke_run, tmp_path):
        paths = emit_report(smoke_run.records, tmp_path, formats=("csv",))
        assert paths[0].name == "results.csv"
        back = parse_report_csv(paths[0])
        assert back == smoke_run.records

    def test_csv_header(self, smoke_run):
        text = records_to_csv(smoke_run.records)
        assert text.splitlines()[0] == ",".join(CSV_HEADER)

    def test_empty_records_error(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path)

    def test_svg_marker_counts(self, smoke_run, tmp_path):
        paths = emit_report(smoke_run.records, tmp_path, formats=("svg",))
        assert len(paths) == 1  # one cell
        svg = paths[0].read_text()
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

    def test_config_solver_parsing(self):
        config = parse_experiment_config({"n": 8, "k_list": [2], "b_list": [1.0],
                                          "instances_per_cell": 1, "seed": 3,
                                          "solver": {"max_iter": 1000}})
        assert config.solver.max_iter == 1000
