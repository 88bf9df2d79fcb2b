"""Scenario sampling, the two batch experiments, and their file formats."""

import contextlib
import fcntl
import filecmp
import functools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from support import FakeBlas, reject_every_step

from rigidnet import experiments, rigidity, simnet
from rigidnet.control import (
    ControlParams, RigidityLostError, build_control_state
)
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
from rigidnet.graphs import (
    Graph,
    disk_proximity_graph,
    is_biconnected,
    is_connected,
)
from rigidnet.rigidity import Framework, rigidity_report


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
        dict(duration=float("inf")),
        dict(duration=float("nan")),
        dict(noise_std=float("nan")),
        dict(width=float("inf")),
        dict(comm_range=float("nan")),
        dict(initial_estimate_error=float("inf")),
        dict(seed=-1),
        dict(seed=1.5),
        dict(seed=True),
        # the controller's range is the scenario's
        dict(control=ControlParams(comm_range=25.0)),
        dict(range_variance=0.0),
        dict(initial_variance=-1.0),
    ])
    def test_invalid_fields_raise(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw)

    def test_tick_count_is_bounded(self):
        # dt = 1e-300 would ask for 2e300 ticks and never end
        dt = 0.05
        small_config(duration=0.999 * experiments.MAX_TICKS * dt)
        with pytest.raises(ConfigError, match="MAX_TICKS"):
            small_config(duration=1.001 * experiments.MAX_TICKS * dt)
        with pytest.raises(ConfigError, match="MAX_TICKS"):
            small_config(control=ControlParams(comm_range=40.0, dt=1e-300))

    def test_robot_count_is_bounded(self):
        # a config is only checked here: no network of this size is drawn
        small_config(n=experiments.MAX_ROBOTS)
        for n in (experiments.MAX_ROBOTS + 1, 10**30):
            with pytest.raises(ConfigError, match="MAX_ROBOTS"):
                small_config(n=n)

    def test_ensemble_count_is_bounded(self):
        small_config(ensemble_count=experiments.MAX_NETWORKS)
        for count in (experiments.MAX_NETWORKS + 1, 10**30):
            with pytest.raises(ConfigError, match="MAX_NETWORKS"):
                small_config(ensemble_count=count)

    def test_rejection_budget_is_bounded(self):
        small_config(rejection_budget=experiments.MAX_DRAWS)
        for budget in (experiments.MAX_DRAWS + 1, 10**30):
            with pytest.raises(ConfigError, match="MAX_DRAWS"):
                small_config(rejection_budget=budget)

    def test_fields_accept_numpy_scalars(self):
        cfg = small_config(width=150.0 * np.sqrt(2.0), n=np.int64(12),
                           anchors=(np.int64(0), 1))
        assert cfg.n == 12 and cfg.width == 150.0 * np.sqrt(2.0)

    @pytest.mark.parametrize("kw, message", [
        (dict(n=True), "field 'n' must be of type int"),
        (dict(anchors=[0, 1]), "field 'anchors' must be of type list of int"),
        (dict(anchors=(0, 1.0)), "field 'anchors' must be of type list of int"),
        (dict(control={"dt": 0.1}), "field 'control' must be of type ControlParams"),
        (dict(dim=2.0), "field 'dim' must be of type int"),
    ])
    def test_fields_of_the_wrong_type_raise(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            small_config(**kw)

    def test_config_errors_share_one_class(self):
        from rigidnet import control
        assert ConfigError is control.ConfigError
        assert issubclass(control.NonFiniteCommandError, ConfigError)
        assert issubclass(ConfigError, ValueError)

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

    @pytest.mark.parametrize("dim, n, range_", [(2, 100, 17.5), (3, 40, 45.0)])
    def test_matches_a_connectivity_and_report_loop(self, dim, n, range_):
        # the sampler skips the report on cut-vertex draws; it must still
        # accept the same draw after the same rejects
        cut = 0
        for seed in range(3):
            cfg = ScenarioConfig(seed=seed, n=n, width=100.0, height=100.0,
                                 comm_range=range_, dim=dim)
            fw, rejects = sample_framework(np.random.default_rng(seed), cfg)
            rng = np.random.default_rng(seed)
            for expected_rejects in range(cfg.rejection_budget):
                x = rng.uniform(0.0, 100.0, size=(n, dim))
                g = disk_proximity_graph(x, range_)
                if is_connected(g):
                    cut += not is_biconnected(g)
                    if rigidity_report(Framework(g, x)).rigid:
                        break
            assert rejects == expected_rejects
            assert np.array_equal(fw.positions, x)
        assert cut > 0

    def test_flexible_pair_accepted_without_rigidity(self):
        cfg = ScenarioConfig(seed=1, n=2, width=10.0, height=10.0,
                             comm_range=40.0, require_rigid=False)
        fw, rejects = sample_framework(np.random.default_rng(1), cfg)
        assert len(fw.graph.edges) == 1
        assert rejects == 0


class TestFrameworkJson:
    @pytest.mark.parametrize("n", [3.7, 3.0, True, "3"])
    def test_n_must_be_an_integer(self, n):
        data = framework_to_json(generate_scenario(small_config()))
        with pytest.raises(ValueError, match="n must be an integer"):
            framework_from_json({**data, "n": n})

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


def cores(count):
    """A stand-in for os.sched_getaffinity: a process with count cores."""
    return lambda pid: set(range(count))


def ensemble_at(kw):
    """A 100 m square ensemble of 100 robots from seed 11, kw (pairs of
    field and value) aside."""
    return ScenarioConfig(**{**dict(seed=11, n=100, width=100.0,
                                    height=100.0), **dict(kw)})


@functools.cache
def one_core_run(kw):
    """The repr of ensemble_at(kw)'s records and summary on one core."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", cores(1))
        return repr(run_ensemble_experiment(ensemble_at(kw)))


def forks(monkeypatch):
    """Count the processes forked from here on, in the returned list."""
    started = []
    fork = os.fork

    def counted():
        started.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return started


def eigh_workers():
    """The names of the live eigh worker threads."""
    return [t.name for t in threading.enumerate()
            if t.name.startswith("rigidnet-eigh")]


def fail_at(monkeypatch, errors):
    """Patch network_record to raise errors[index] for each index it names."""
    record = experiments.network_record

    def failing(fw, index=0, rejects=0):
        if index in errors:
            raise errors[index]
        return record(fw, index=index, rejects=rejects)

    monkeypatch.setattr(experiments, "network_record", failing)


def logged(monkeypatch, log, held=None, until=0):
    """Patch network_record to tag each record with its process's pid and
    log each measured network's index as one line of the file log.  The
    process whose first network is index held (0: the caller) holds it
    until log has until lines, all of them the other processes', or for
    30 s at most."""
    record = experiments.network_record
    parent = os.getpid()

    def logging(fw, index=0, rejects=0):
        if index == held and (os.getpid() == parent) == (held == 0):
            deadline = time.monotonic() + 30
            while (time.monotonic() < deadline and
                   (not log.exists() or
                    len(log.read_text().splitlines()) < until)):
                time.sleep(0.005)
        got = {**record(fw, index=index, rejects=rejects),
               "pid": os.getpid()}
        with open(log, "a") as fp:
            fp.write(f"{index}\n")
        return got

    monkeypatch.setattr(experiments, "network_record", logging)


def untagged(records):
    """records without the pid that logged() tags them with."""
    return [{k: v for k, v in r.items() if k != "pid"} for r in records]


class Hung(BaseException):
    """Raised by bounded() when its time is up; no except Exception in the
    library catches it, so a hang fails the test instead of passing."""


@contextlib.contextmanager
def bounded(seconds):
    """Raise Hung in the block if it runs longer than seconds."""
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestForkedEnsemble:
    """On k usable cores the caller and k - 1 forked children each measure
    a first network and then claim the next unclaimed one when free;
    records, summary and errors are a one-core run's."""

    @pytest.mark.parametrize("kw", [
        # 17.5 m rejects draws, so the shares differ in their sampler work
        (("comm_range", 17.5), ("ensemble_count", 7)),
        (("comm_range", 40.0), ("ensemble_count", 4), ("n", 40), ("dim", 3)),
    ])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_records_equal_a_one_core_run(self, monkeypatch, kw, count):
        started = forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", cores(count))
        forked = run_ensemble_experiment(ensemble_at(kw))
        assert len(started) == count - 1
        assert forked[1]["total_rejects"] > 0
        # repr spells every float to its last bit
        assert repr(forked) == one_core_run(kw)
        assert multiprocessing.active_children() == []

    def test_no_eigh_worker_is_alive_at_a_fork(self, monkeypatch):
        # a state with vectors on two cores starts the worker thread, and
        # forking beside a live thread is unsafe (Python 3.12 warns of it)
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        config = small_config()
        build_control_state(generate_scenario(config), config.control)
        assert eigh_workers() != []
        alive = []
        process = multiprocessing.get_context("fork").Process
        start = process.start

        def checked(child):
            alive.append(eigh_workers())
            return start(child)

        monkeypatch.setattr(process, "start", checked)
        run_ensemble_experiment(config)
        assert alive == [[]]

    def test_one_network_starts_no_child(self, monkeypatch):
        def no_fork():
            raise AssertionError("a one-network ensemble forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        records, _ = run_ensemble_experiment(small_config(ensemble_count=1))
        assert [r["index"] for r in records] == [0]

    def test_csv_equals_a_one_core_run(self, monkeypatch, tmp_path):
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        monkeypatch.setattr(os, "sched_getaffinity", cores(1))
        run_ensemble_experiment(small_config(), csv_path=one)
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        run_ensemble_experiment(small_config(), csv_path=two)
        assert filecmp.cmp(one, two, shallow=False)

    @pytest.mark.parametrize("errors, raised", [
        # the parent measures 0 first and the child 1; the rest go to
        # whichever process is free, and any failure sends the caller
        # into the one-core pass
        ({0: LookupError("network 0"), 1: ValueError("network 1")},
         LookupError("network 0")),
        ({1: LookupError("network 1"), 2: ValueError("network 2")},
         LookupError("network 1")),
        ({3: LookupError("network 3"), 4: ValueError("network 4")},
         LookupError("network 3")),
        ({5: LookupError("network 5")}, LookupError("network 5")),
        ({4: ValueError("network 4")}, ValueError("network 4")),
    ])
    def test_the_lowest_index_error_wins(self, monkeypatch, errors, raised):
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        fail_at(monkeypatch, errors)
        with pytest.raises(type(raised)) as info:
            run_ensemble_experiment(small_config())
        assert type(info.value) is type(raised)
        assert str(info.value) == str(raised)
        assert multiprocessing.active_children() == []

    def test_a_parent_interrupt_stops_the_child(self, monkeypatch):
        # the child would take a minute over its share; it is terminated,
        # not waited for
        parent = os.getpid()
        record = experiments.network_record

        def interrupted(fw, index=0, rejects=0):
            if os.getpid() != parent:
                time.sleep(60)
            elif index == 2:
                raise KeyboardInterrupt
            return record(fw, index=index, rejects=rejects)

        monkeypatch.setattr(experiments, "network_record", interrupted)
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_ensemble_experiment(small_config())
        assert time.perf_counter() - t0 < 30
        assert multiprocessing.active_children() == []

    def test_an_interrupt_is_not_retried(self, monkeypatch):
        # the one-core pass follows a failed share, not an interrupt: one
        # Ctrl-C stops the run
        interrupts = []
        record = experiments.network_record

        def interrupted_once(fw, index=0, rejects=0):
            if not interrupts:
                interrupts.append(index)
                raise KeyboardInterrupt
            return record(fw, index=index, rejects=rejects)

        monkeypatch.setattr(experiments, "network_record", interrupted_once)
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        with pytest.raises(KeyboardInterrupt):
            run_ensemble_experiment(small_config())
        assert multiprocessing.active_children() == []

    def test_every_process_measures_on_one_blas_thread(self, monkeypatch):
        # the processes share the cores; each BLAS at its default thread
        # count would oversubscribe them
        blas = FakeBlas(2)
        record = experiments.network_record

        def recorded(fw, index=0, rejects=0):
            return {**record(fw, index=index, rejects=rejects),
                    "blas_threads": blas.threads, "pid": os.getpid()}

        monkeypatch.setattr(rigidity, "_openblas_thread_counts",
                            lambda: ((blas.get, blas.set),))
        monkeypatch.setattr(experiments, "network_record", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        records, _ = run_ensemble_experiment(small_config())
        assert [r["blas_threads"] for r in records] == [1] * 6
        assert len({r["pid"] for r in records}) == 2
        assert blas.threads == 2

    def test_an_error_that_does_not_unpickle_keeps_its_type(self,
                                                            monkeypatch):
        # a local class does not pickle: the child sends nothing, and the
        # parent measures the child's share and meets the error itself
        class LocalError(Exception):
            pass

        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        fail_at(monkeypatch, {1: LocalError("network 1")})
        with pytest.raises(LocalError, match="network 1"):
            run_ensemble_experiment(small_config())
        assert multiprocessing.active_children() == []

    def test_a_killed_child_leaves_its_share_to_the_parent(self,
                                                           monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", cores(1))
        serial = run_ensemble_experiment(small_config())
        parent = os.getpid()
        record = experiments.network_record

        def dying(fw, index=0, rejects=0):
            # the child's first network is 1, so it surely dies
            if os.getpid() != parent and index == 1:
                os._exit(1)
            return record(fw, index=index, rejects=rejects)

        monkeypatch.setattr(experiments, "network_record", dying)
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        started = forks(monkeypatch)
        assert repr(run_ensemble_experiment(small_config())) == repr(serial)
        assert len(started) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("held", [0, 1])
    def test_a_held_process_leaves_the_rest_to_the_other(
            self, monkeypatch, tmp_path, held):
        # the caller (held 0) or the child (held 1) holds its first network
        # until the other process has measured all 16 others; a fixed share
        # would leave each 8 or 9 of the 17
        monkeypatch.setattr(os, "sched_getaffinity", cores(1))
        serial, _ = run_ensemble_experiment(small_config(ensemble_count=17))
        logged(monkeypatch, tmp_path / "log", held=held, until=16)
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        records, _ = run_ensemble_experiment(small_config(ensemble_count=17))
        assert untagged(records) == serial
        pids = [r["pid"] for r in records]
        assert (pids[held] == os.getpid()) == (held == 0)
        assert pids.count(pids[held]) == 1 and len(set(pids)) == 2
        assert multiprocessing.active_children() == []

    def test_more_processes_than_cores_claim_each_network_once(
            self, monkeypatch, tmp_path):
        # four processes on two cores contend for the counter; a lost
        # update would have two of them measure one network
        monkeypatch.setattr(os, "sched_getaffinity", cores(1))
        serial, _ = run_ensemble_experiment(small_config(ensemble_count=40))
        log = tmp_path / "log"
        logged(monkeypatch, log)
        monkeypatch.setattr(os, "sched_getaffinity", cores(4))
        with bounded(60):
            records, _ = run_ensemble_experiment(
                small_config(ensemble_count=40))
        assert untagged(records) == serial
        assert sorted(map(int, log.read_text().split())) == list(range(40))
        assert len({r["pid"] for r in records}) == 4
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_holding_the_counter_blocks_no_one(
            self, monkeypatch, tmp_path):
        # the kernel frees a lockf lock when its holder exits; a lock that
        # stayed held would stop the caller at its next claim for good
        monkeypatch.setattr(os, "sched_getaffinity", cores(1))
        serial = run_ensemble_experiment(small_config())
        parent = os.getpid()
        died = tmp_path / "died"
        lockf = fcntl.lockf

        def dying(fd, cmd, *args):
            lockf(fd, cmd, *args)
            if cmd == fcntl.LOCK_EX and os.getpid() != parent:
                died.touch()
                os._exit(1)

        monkeypatch.setattr(fcntl, "lockf", dying)
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        with bounded(60):
            got = run_ensemble_experiment(small_config())
        assert died.exists()
        assert repr(got) == repr(serial)
        assert multiprocessing.active_children() == []

    def test_a_failure_only_in_a_child_gives_the_one_core_records(
            self, monkeypatch):
        # two processes can exhaust memory where one does not; the child
        # sends nothing, and the caller measures every network in turn
        monkeypatch.setattr(os, "sched_getaffinity", cores(1))
        serial = run_ensemble_experiment(small_config())
        parent = os.getpid()
        record = experiments.network_record

        def short_of_memory(fw, index=0, rejects=0):
            if os.getpid() != parent:
                raise MemoryError
            return record(fw, index=index, rejects=rejects)

        monkeypatch.setattr(experiments, "network_record", short_of_memory)
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        assert repr(run_ensemble_experiment(small_config())) == repr(serial)
        assert multiprocessing.active_children() == []

    def test_a_failed_fork_leaves_its_share_to_the_parent(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", cores(1))
        serial = run_ensemble_experiment(small_config())
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", cores(3))
        assert repr(run_ensemble_experiment(small_config())) == repr(serial)

    def test_a_daemonic_process_measures_in_turn(self, monkeypatch):
        # a daemonic process may start no child, so it runs the serial loop
        monkeypatch.setattr(os, "sched_getaffinity", cores(1))
        serial = run_ensemble_experiment(small_config())
        monkeypatch.setattr(os, "sched_getaffinity", cores(2))
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=_ensemble_into, args=(writer,),
                                daemon=True)
        child.start()
        writer.close()
        try:
            got = reader.recv()
        finally:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
        assert got == repr(serial)
        assert child.exitcode == 0

    def test_a_daemonic_caller_gets_no_fork_context(self, monkeypatch):
        # the stdlib refuses a daemon's child only by an assert, which
        # python -O strips, so the split checks for itself
        assert experiments._fork_context(2) is not None
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert experiments._fork_context(2) is None

    def test_importing_rigidnet_loads_no_multiprocessing(self):
        # the split imports it when it first runs; a cold import stays cheap
        src = Path(experiments.__file__).resolve().parents[1]
        code = ("import sys; import rigidnet; "
                "sys.exit('multiprocessing' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                timeout=60)
        assert result.returncode == 0


def _ensemble_into(conn):
    """In a daemonic child: send the repr of the small ensemble."""
    conn.send(repr(run_ensemble_experiment(small_config())))
    conn.close()


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

    def test_rigidity_loss_is_returned_with_snapshot(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setattr(simnet, "guarded_refresh", reject_every_step)
        bad = ControlParams(comm_range=40.0, max_step_retries=1)
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
