"""Scenario sampling, the two batch experiments, and their file formats."""

import filecmp
import json

import numpy as np
import pytest

from rigidnet.control import ControlParams, RigidityLostError
from rigidnet.experiments import (
    CONTROL_COLUMNS,
    ENSEMBLE_COLUMNS,
    ConfigError,
    ScenarioConfig,
    framework_from_json,
    framework_to_json,
    generate_scenario,
    network_record,
    reference_control_config,
    run_control_experiment,
    run_ensemble_experiment,
    sample_framework,
)
from rigidnet.graphs import Graph, is_connected
from rigidnet.rigidity import Framework


def small_config(**kw):
    base = dict(seed=3, n=16, width=90.0, height=90.0, comm_range=40.0,
                ensemble_count=6, duration=1.0)
    base.update(kw)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_default_controller_inherits_range(self):
        cfg = small_config(comm_range=25.0)
        assert isinstance(cfg.control, ControlParams)
        assert cfg.control.comm_range == 25.0

    def test_explicit_controller_kept(self):
        p = ControlParams(comm_range=40.0, dt=0.2)
        assert small_config(control=p).control is p

    @pytest.mark.parametrize("kw", [
        dict(n=1),
        dict(n=2),  # rigid scenarios need n > dim
        dict(width=0.0),
        dict(height=-5.0),
        dict(comm_range=0.0),
        dict(dim=4),
        dict(ensemble_count=0),
        dict(duration=-1.0),
        dict(noise_std=-0.1),
        dict(rejection_budget=0),
        dict(anchors=(16,)),
        dict(anchors=(-1,)),
        dict(initial_estimate_error=-0.5),
    ])
    def test_invalid_fields_raise(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw)

    def test_pair_allowed_when_rigidity_not_required(self):
        cfg = small_config(n=2, require_rigid=False)
        assert cfg.n == 2


class TestSampling:
    def test_same_seed_same_framework(self):
        cfg = small_config()
        a = generate_scenario(cfg)
        b = generate_scenario(small_config())
        assert a.graph.edges == b.graph.edges
        assert np.array_equal(a.positions, b.positions)

    def test_accepted_framework_is_connected_and_in_region(self):
        cfg = small_config()
        fw = generate_scenario(cfg)
        assert is_connected(fw.graph)
        assert fw.positions.min() >= 0.0
        assert fw.positions[:, 0].max() <= cfg.width
        assert fw.positions[:, 1].max() <= cfg.height

    def test_reject_count_is_deterministic(self):
        cfg = ScenarioConfig(seed=0, n=12, width=120.0, height=120.0,
                             comm_range=40.0)
        _, r1 = sample_framework(np.random.default_rng(0), cfg)
        _, r2 = sample_framework(np.random.default_rng(0), cfg)
        assert r1 == r2 == 132

    def test_budget_exhaustion_raises(self):
        cfg = ScenarioConfig(seed=1, n=10, width=5000.0, height=5000.0,
                             comm_range=40.0, rejection_budget=3)
        with pytest.raises(ConfigError):
            sample_framework(np.random.default_rng(1), cfg)

    def test_flexible_pair_accepted_without_rigidity(self):
        cfg = ScenarioConfig(seed=1, n=2, width=10.0, height=10.0,
                             comm_range=40.0, require_rigid=False)
        fw, rejects = sample_framework(np.random.default_rng(1), cfg)
        assert len(fw.graph.edges) == 1
        assert rejects == 0


class TestFrameworkJson:
    def test_round_trip(self):
        fw = generate_scenario(small_config())
        back = framework_from_json(framework_to_json(fw))
        assert back.graph.edges == fw.graph.edges
        assert np.array_equal(back.positions, fw.positions)

    def test_json_is_serializable(self):
        fw = generate_scenario(small_config())
        text = json.dumps(framework_to_json(fw))
        assert json.loads(text)["n"] == fw.graph.n


class TestNetworkRecord:
    def test_complete_graph_sits_at_the_load_floor(self):
        g = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        x = np.random.default_rng(2).uniform(0, 10, size=(6, 2))
        rec = network_record(Framework(g, x), index=4, rejects=7)
        assert rec["m"] == 15 and rec["diameter"] == 1 and rec["eta"] == 1
        assert rec["load_ratio"] == 1.0
        assert rec["upper_load_ratio"] == 1.0
        assert rec["index"] == 4 and rec["rejects"] == 7

    def test_upper_load_dominates(self):
        rec = network_record(generate_scenario(small_config()))
        assert rec["upper_load"] >= rec["load"]
        assert rec["load_ratio"] >= 1.0


class TestEnsemble:
    def test_records_and_summary(self):
        cfg = small_config()
        records, summary = run_ensemble_experiment(cfg)
        assert len(records) == cfg.ensemble_count
        assert summary["count"] == cfg.ensemble_count
        assert summary["comm_range"] == cfg.comm_range
        assert 0.0 <= summary["eta_at_most_5"] <= 1.0
        assert summary["diameter_mode"] in summary["diameter_histogram"]
        assert sum(summary["diameter_histogram"].values()) == len(records)
        assert summary["total_rejects"] == sum(r["rejects"] for r in records)

    def test_child_seeds_decouple_networks(self):
        # same root seed, different count: shared prefix stays identical
        recs_a, _ = run_ensemble_experiment(small_config(ensemble_count=3))
        recs_b, _ = run_ensemble_experiment(small_config(ensemble_count=6))
        assert recs_a == recs_b[:3]

    def test_csv_deterministic_and_headed(self, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ensemble_experiment(small_config(), csv_path=pa)
        run_ensemble_experiment(small_config(), csv_path=pb)
        assert filecmp.cmp(pa, pb, shallow=False)
        header = pa.read_text().splitlines()[0]
        assert header == ",".join(ENSEMBLE_COLUMNS)

    def test_json_export(self, tmp_path):
        path = tmp_path / "ensemble.json"
        _, summary = run_ensemble_experiment(small_config(), json_path=path)
        data = json.loads(path.read_text())
        assert data["summary"]["count"] == summary["count"]
        assert len(data["networks"]) == summary["count"]


class TestControlExperiment:
    def test_short_run_logs_rows(self):
        world, rows, error = run_control_experiment(small_config())
        assert error is None
        assert len(rows) == 21  # the start, then 1.0 / 0.05 ticks
        times = [r["t"] for r in rows]
        assert times == sorted(times)
        assert all(r["rho_min"] > 0 for r in rows)
        assert set(rows[0]) == set(CONTROL_COLUMNS)

    @pytest.mark.parametrize("duration, rows", [(0.5, 11), (3.0, 61)])
    def test_ticks_are_counted_not_timed(self, duration, rows):
        # a float clock would pass 0.5 only after 11 steps of 0.05 and 3.0
        # after 61, one row too many each
        world, got, error = run_control_experiment(
            small_config(duration=duration))
        assert error is None
        assert len(got) == rows
        assert world.time == pytest.approx(duration)

    def test_zero_duration_gives_no_rows(self):
        _, rows, error = run_control_experiment(small_config(duration=0.0))
        assert rows == [] and error is None

    def test_rigidity_loss_is_returned_with_snapshot(self, tmp_path):
        bad = ControlParams(comm_range=40.0, dt=1e9, max_step_retries=1)
        snap = tmp_path / "snapshot.json"
        _, rows, error = run_control_experiment(
            small_config(control=bad), snapshot_path=snap)
        assert isinstance(error, RigidityLostError)
        data = json.loads(snap.read_text())
        assert "error" in data and data["framework"]["n"] == 16

    def test_no_snapshot_on_clean_run(self, tmp_path):
        snap = tmp_path / "snapshot.json"
        _, _, error = run_control_experiment(small_config(),
                                             snapshot_path=snap)
        assert error is None and not snap.exists()

    def test_csv_deterministic(self, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        run_control_experiment(small_config(), csv_path=pa)
        run_control_experiment(small_config(), csv_path=pb)
        assert filecmp.cmp(pa, pb, shallow=False)
        assert pa.read_text().splitlines()[0] == ",".join(CONTROL_COLUMNS)


class TestReferenceConfig:
    def test_pins_the_published_scenario(self):
        cfg = reference_control_config()
        assert cfg.n == 60
        assert cfg.comm_range == 40.0
        assert cfg.duration == 200.0
        assert cfg.control.dt == 0.1
