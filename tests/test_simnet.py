"""Message engine: round counts, routing discipline, closed-loop stepping."""

import dataclasses
import io
import json
import re

import numpy as np
import pytest

from rigidnet.control import (
    ConfigError,
    ControlParams,
    EigenvectorsNotSolvedError,
    RigidityLostError,
    build_control_state,
    velocity_field,
)
from rigidnet import rigidity, simnet
from rigidnet.experiments import (
    ScenarioConfig,
    run_control_experiment,
    sample_framework,
)
from rigidnet.graphs import Graph, geodesics
from rigidnet.rigidity import (
    REL_TOL,
    Framework,
    framework_gram,
    is_infinitesimally_rigid,
    rigidity_spectrum,
)
from rigidnet.simnet import (
    Message,
    ProtocolViolation,
    WorldConfig,
    _check_edge,
    broadcast_estimates,
    decentralized_velocity,
    make_world,
    run_exchange_phase,
    run_message_engine,
    run_simulation,
    step_simulation,
)

from support import (
    log_arrays,
    pair_rounds,
    random_disk_framework,
    reject_every_step,
)


def apex_framework():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 4), (3, 4)])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.7, 0.8]])
    return Framework(g, x)


def wheel_framework(k=5):
    # hub 0 linked to a rim cycle; every 1-hop ball is rigid
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, i % k + 1) for i in range(1, k + 1)]
    ang = 2 * np.pi * np.arange(k) / k
    x = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
    return Framework(Graph(k + 1, edges), x)


def rigid_disk(rng, n, side, range_, dim=2):
    while True:
        fw = random_disk_framework(rng, n, side=side, range_=range_, dim=dim)
        if is_infinitesimally_rigid(fw):
            return fw


def test_message_validation():
    with pytest.raises(ValueError):
        Message(kind="gossip", origin=0, payload=None, ttl=1, path=(0,))
    with pytest.raises(ValueError):
        Message(kind="position_flood", origin=0, payload=None, ttl=-1,
                path=(0,))


def test_non_edge_send_rejected():
    adj = [set([1]), set([0]), set()]
    with pytest.raises(ProtocolViolation):
        _check_edge(adj, 0, 2)


def test_all_unit_extents_complete_in_two_rounds():
    fw = wheel_framework()
    params = ControlParams(comm_range=3.0)
    state = build_control_state(fw, params)
    assert state.extents.max() == 1
    contributions, log = run_message_engine(fw, state.extents, params)
    assert log.completion_round == 2
    # every node's ball is itself and its neighbors, and every pair of it
    # is delivered once
    expected = {(j, i) for j in range(fw.n)
                for i in [j, *fw.graph.neighbors(j).tolist()]}
    assert len(log.center) == len(expected)
    assert set(pair_rounds(log)) == expected


def test_hub_contribution_reaches_rim_in_round_two():
    fw = wheel_framework()
    params = ControlParams(comm_range=3.0)
    state = build_control_state(fw, params)
    _, log = run_message_engine(fw, state.extents, params)
    landed = pair_rounds(log)
    for rim in range(1, 6):
        assert landed[(0, rim)] == 2
    assert landed[(0, 0)] <= 1


def test_exchange_meets_round_bound_on_disk_frameworks():
    rng = np.random.default_rng(42)
    for _ in range(25):
        fw = rigid_disk(rng, int(rng.integers(10, 18)), 90.0, 40.0)
        params = ControlParams(comm_range=40.0, steepness=0.5)
        state = build_control_state(fw, params)
        _, log = run_message_engine(fw, state.extents, params)
        assert log.completion_round <= 2 * int(state.extents.max())


def test_every_expected_pair_is_delivered():
    fw = apex_framework()
    params = ControlParams(comm_range=2.0, steepness=2.0)
    state = build_control_state(fw, params)
    contributions, log = run_message_engine(fw, state.extents, params)
    hops = geodesics(fw.graph).dist
    assert set(contributions) == {
        (j, i) for j in range(fw.n) for i in range(fw.n)
        if hops[j, i] <= state.extents[j]}
    # the log holds the contributions' pairs, in delivery order
    assert list(contributions) == list(pair_rounds(log))
    # completion round equals the latest delivery and respects the bound
    assert log.completion_round == max(pair_rounds(log).values())
    assert log.completion_round == 2 * int(state.extents.max())


def test_compiled_log_reads_as_the_engine_log_in_any_order():
    # the compiled log holds the engine's deliveries in the engine's order,
    # and its counts read off them
    fw = apex_framework()
    params = ControlParams(comm_range=2.0, steepness=2.0)
    state = build_control_state(fw, params)
    _, engine = run_message_engine(fw, state.extents, params)
    log = run_exchange_phase(fw, state.extents)[1]
    assert log_arrays(log) == log_arrays(engine)
    assert log.rounds == engine.rounds
    assert log.completion_round == engine.completion_round


def test_floods_one_hop_short_leave_the_exchange_incomplete(monkeypatch):
    fw = apex_framework()
    params = ControlParams(comm_range=2.0, steepness=2.0)
    state = build_control_state(fw, params)
    real_ball_set = simnet.ball_set

    def short_floods(*args):
        balls = real_ball_set(*args)
        return dataclasses.replace(balls, ttl=balls.ttl - 1)

    monkeypatch.setattr(simnet, "ball_set", short_floods)
    with pytest.raises(ProtocolViolation,
                       match="exchange incomplete after 4") as engine:
        run_message_engine(fw, state.extents, params)
    # the routing formula finds the same pairs missing
    with pytest.raises(ProtocolViolation) as routing:
        run_exchange_phase(fw, state.extents)
    assert str(routing.value) == str(engine.value)


def test_trace_lines_are_wellformed():
    fw = apex_framework()
    params = ControlParams(comm_range=2.0, steepness=2.0)
    state = build_control_state(fw, params)
    buf = io.StringIO()
    run_message_engine(fw, state.extents, params, trace=buf)
    lines = [json.loads(s) for s in buf.getvalue().splitlines()]
    assert lines
    kinds = {ln["kind"] for ln in lines}
    assert kinds <= {"position_flood", "gradient_return"}
    assert all(set(ln) == {"round", "kind", "origin", "target", "ttl"}
               for ln in lines)
    assert max(ln["round"] for ln in lines) <= 2 * int(state.extents.max())


def test_decentralized_field_matches_centralized():
    fw = apex_framework()
    params = ControlParams(comm_range=2.0, steepness=2.0)
    state = build_control_state(fw, params)
    u_dec, _ = decentralized_velocity(fw, state.extents, params)
    u_cen = velocity_field(state)
    assert np.allclose(u_dec, u_cen, atol=1e-12)


def assert_decentralized_field_matches(side, dim):
    rng = np.random.default_rng(9)
    for _ in range(5):
        fw = rigid_disk(rng, int(rng.integers(12, 20)), side, 40.0, dim)
        params = ControlParams(comm_range=40.0, steepness=0.5,
                               k_rigidity=3.0, k_load=0.5, k_collision=2.0)
        state = build_control_state(fw, params)
        u_dec, _ = decentralized_velocity(fw, state.extents, params)
        u_cen = velocity_field(state)
        scale = max(float(np.abs(u_cen).max()), 1e-30)
        assert np.abs(u_dec - u_cen).max() / scale < 1e-9


def test_decentralized_field_matches_on_random_networks():
    assert_decentralized_field_matches(side=90.0, dim=2)


def test_decentralized_field_matches_on_random_networks_in_3d():
    # balls in space need more links to be rigid, hence the smaller region
    assert_decentralized_field_matches(side=60.0, dim=3)


def test_estimate_broadcast_is_one_hop():
    fw = apex_framework()
    est = fw.positions + 0.5
    inbox = broadcast_estimates(fw, est)
    heard = {0: [1, 2, 3], 1: [0, 2, 4], 2: [0, 1, 3], 3: [0, 2, 4],
             4: [1, 3]}
    slots = fw.graph.slots
    assert len(inbox) == slots[-1] == 2 * fw.graph.m
    for i, senders in heard.items():
        own = inbox[slots[i]:slots[i + 1]]
        assert own.shape == (len(senders), 2)
        assert np.array_equal(own, est[senders])


@pytest.mark.parametrize("field, value", [
    ("noise_std", -1.0),
    ("initial_estimate_error", -3.0),
    ("initial_variance", -1.0),
    ("range_variance", 0.0),
    ("range_variance", -0.01),
    ("noise_std", float("nan")),
    ("initial_estimate_error", float("inf")),
    ("initial_variance", float("inf")),
    ("range_variance", float("nan")),
    ("range_variance", float("inf")),
])
def test_world_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        WorldConfig(**{field: value})


def test_world_freezes_extents_and_logs_metrics():
    rng = np.random.default_rng(5)
    fw = rigid_disk(rng, 15, 90.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.05)
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    frozen = world.extents.copy()
    step_simulation(world)
    step_simulation(world)
    assert np.array_equal(world.extents, frozen)
    assert len(world.metrics) == 3
    row = world.metrics[-1]
    for key in ("t", "min_rho", "mean_rho", "max_rho", "framework_rho",
                "load_ratio", "edge_count", "min_distance",
                "max_estimate_error", "exchange_rounds"):
        assert key in row
    assert row["min_rho"] > 0
    assert row["framework_rho"] > 0


def test_zero_gain_world_is_static():
    rng = np.random.default_rng(5)
    fw = rigid_disk(rng, 12, 80.0, 40.0)
    params = ControlParams(comm_range=40.0, k_rigidity=0.0, k_load=0.0,
                           k_collision=0.0, dt=0.1)
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    x0 = world.framework.positions.copy()
    for _ in range(3):
        step_simulation(world)
    assert np.array_equal(world.framework.positions, x0)
    vals = [m["min_rho"] for m in world.metrics]
    assert np.ptp(vals) == 0.0


def test_truthful_estimates_reproduce_ground_truth_run():
    rng = np.random.default_rng(5)
    fw = rigid_disk(rng, 12, 80.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.02,
                           k_rigidity=10.0, k_load=1.0, k_collision=1.0)
    truth = make_world(fw, params, WorldConfig(use_estimates=False))
    believed = make_world(fw, params, WorldConfig(
        use_estimates=True, initial_estimate_error=0.0, noise_std=0.0))
    for _ in range(4):
        step_simulation(truth)
        step_simulation(believed)
    assert np.allclose(truth.framework.positions,
                       believed.framework.positions, atol=1e-12)


def test_sufficiency_holds_along_a_run():
    rng = np.random.default_rng(11)
    fw = rigid_disk(rng, 14, 85.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.02,
                           k_rigidity=10.0, k_load=1.0, k_collision=1.0)
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    run_simulation(world, 0.2)
    for row in world.metrics:
        assert row["min_rho"] > 0
        assert row["framework_rho"] > 0


@pytest.mark.parametrize("duration",
                         [1e300, float("nan"), float("inf"), -5.0])
def test_tick_count_is_bounded_before_the_first_tick(monkeypatch, duration):
    # a library caller pairs a WorldConfig with a duration no ScenarioConfig
    # has checked; a run that ticked would stop at the third tick here
    fw = rigid_disk(np.random.default_rng(11), 12, 85.0, 40.0)
    world = make_world(fw, ControlParams(comm_range=40.0),
                       WorldConfig(use_estimates=False))
    ticks = []

    def counted(w):
        ticks.append(1)
        if len(ticks) > 2:
            raise RuntimeError("the run did not stop at the tick bound")
        return w

    monkeypatch.setattr(simnet, "step_simulation", counted)
    # a negative duration once asked for -50 ticks and ran none, silently
    message = ("duration must be non-negative, got -5.0" if duration < 0
               else "MAX_TICKS" if np.isfinite(duration)
               else f"duration must be finite, got {duration!r}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_simulation(world, duration)
    assert ticks == []
    # a duration within the bound runs its ticks
    run_simulation(world, 2 * world.params.dt)
    assert len(ticks) == 2
    assert simnet.tick_count(simnet.MAX_TICKS * world.params.dt,
                             world.params.dt) == simnet.MAX_TICKS


def test_halved_step_counts_as_one_tick(monkeypatch):
    fw = rigid_disk(np.random.default_rng(11), 14, 85.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1)
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    refresh = simnet.guarded_refresh
    calls = []

    def every_full_step_rejected(*args, **kwargs):
        calls.append(args)
        return (None, None) if len(calls) % 2 else refresh(*args, **kwargs)

    monkeypatch.setattr(simnet, "guarded_refresh", every_full_step_rejected)
    run_simulation(world, 0.5)
    assert len(world.metrics) == 6
    assert world.time == pytest.approx(0.25)


def test_framework_check_is_relative_to_lam_max():
    # a thin triangle whose rho clears REL_TOL but not REL_TOL * lam_max
    params = ControlParams(comm_range=40.0)
    fw = Framework(Graph(3, [(0, 1), (1, 2), (0, 2)]),
                   [[0.0, 0.0], [1.0, 0.0], [0.5, 5e-5]])
    spectrum = rigidity_spectrum(framework_gram(fw), fw.dim, vectors=False)
    assert REL_TOL < spectrum.rho < REL_TOL * spectrum.lam_max
    with pytest.raises(RigidityLostError, match="flexible framework"):
        simnet._framework_rho_if_rigid(spectrum)


def test_untenable_step_raises_rigidity_lost(monkeypatch):
    monkeypatch.setattr(simnet, "guarded_refresh", reject_every_step)
    rng = np.random.default_rng(5)
    fw = rigid_disk(rng, 12, 80.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1,
                           k_rigidity=50.0, k_load=5.0, k_collision=50.0,
                           max_step_retries=1)
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    with pytest.raises(RigidityLostError):
        step_simulation(world)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_three_dimensional_runs_start(seed):
    # each of these 3-D draws has a nearly flexible ball at t=0, whose
    # barrier slope commands steps of many kilometres; without the step cap no
    # halving of dt could bring them down to a step the guard accepts
    config = ScenarioConfig(seed=seed, n=40, width=100.0, height=100.0,
                            dim=3, comm_range=45.0, duration=1.0,
                            use_estimates=False)
    _, rows, error = run_control_experiment(config)
    assert error is None and len(rows) == 21
    assert min(row["rho_min"] for row in rows) > 0.0


def test_same_seed_gives_identical_runs():
    rng = np.random.default_rng(7)
    fw = rigid_disk(rng, 12, 80.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.02,
                           k_rigidity=10.0, k_load=1.0, k_collision=1.0)
    cfg = WorldConfig(use_estimates=True, anchors=(0, 1), noise_std=0.05,
                      initial_estimate_error=0.5, seed=13)
    runs = []
    for _ in range(2):
        world = make_world(fw, params, cfg)
        for _ in range(3):
            step_simulation(world)
        runs.append((world.framework.positions.copy(), world.metrics))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def engine_checked_run(monkeypatch, world, ticks):
    """Step a world, holding every tick's commands to the engine oracle.

    Returns the Graph of every tick and how many times that tick called
    run_exchange_phase to compile the topology's routing.
    """
    replay_or_compile = simnet.tick_velocity
    compile_exchange = simnet.run_exchange_phase
    calls = []
    ticks_seen = []

    def counted(*args, **kwargs):
        calls.append(1)
        return compile_exchange(*args, **kwargs)

    def checked(w, positions):
        before = len(calls)
        u, log = replay_or_compile(w, positions)
        ticks_seen.append((w.framework.graph, len(calls) - before))
        u_engine, log_engine = decentralized_velocity(
            Framework(w.framework.graph, positions), w.extents, w.params)
        assert u.tobytes() == u_engine.tobytes()
        # every log handed out came from an engine run on this topology
        assert log_arrays(log) == log_arrays(log_engine)
        assert log.completion_round == log_engine.completion_round
        return u, log

    with monkeypatch.context() as patch:
        patch.setattr(simnet, "run_exchange_phase", counted)
        patch.setattr(simnet, "tick_velocity", checked)
        for _ in range(ticks):
            step_simulation(world)
    return ticks_seen


def hits_and_misses(ticks_seen):
    runs = [n for _, n in ticks_seen]
    assert set(runs) <= {0, 1}
    return runs.count(0), runs.count(1)


def test_command_equals_the_two_pass_formula_bit_for_bit():
    # the command subtracts every payload in delivery order and then adds
    # the collision terms in edge order: np.subtract.at, then np.add.at
    rng = np.random.default_rng(27)
    for n, dim in [(14, 2), (20, 3)]:
        fw = random_disk_framework(rng, n, side=80.0, range_=40.0, dim=dim)
        params = ControlParams(comm_range=40.0, k_rigidity=0.5, k_load=1.3,
                               k_collision=20.0)
        members = rng.integers(0, n, size=5 * n)
        rigidity = rng.normal(size=(len(members), dim))
        load = rng.normal(size=(len(members), dim)) * 1e-3
        rigidity[::7] = -0.0
        u = np.zeros((n, dim))
        gains = np.empty((2 * len(members), dim))
        gains[0::2] = params.k_rigidity * rigidity
        gains[1::2] = params.k_load * load
        np.subtract.at(u, np.repeat(members, 2), gains)
        g = -params.k_collision * simnet._collision_slopes(
            fw, params.collision_exponent)
        np.add.at(u, fw.graph.edge_array().ravel(),
                  np.stack([g, -g], axis=1).reshape(-1, dim))
        got = simnet._command(fw, params, members, rigidity, load)
        assert got.tobytes() == u.tobytes()


@pytest.mark.parametrize("use_estimates", [False, True])
def test_replayed_commands_equal_the_engine(monkeypatch, use_estimates):
    rng = np.random.default_rng(6)
    fw = rigid_disk(rng, 14, 85.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1,
                           k_rigidity=10.0, k_load=1.0, k_collision=1.0)
    cfg = WorldConfig(use_estimates=use_estimates, anchors=(0, 1),
                      noise_std=0.05, initial_estimate_error=0.3, seed=3)
    world = make_world(fw, params, cfg)
    hits, misses = hits_and_misses(engine_checked_run(monkeypatch, world, 30))
    assert hits >= 1
    assert misses >= 2  # the first tick, then at least one new topology


def test_replay_in_three_dimensions(monkeypatch):
    config = ScenarioConfig(seed=1, n=12, dim=3, width=50.0, height=50.0,
                            comm_range=40.0)
    fw, _ = sample_framework(np.random.default_rng(1), config)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1,
                           k_rigidity=10.0, k_load=1.0, k_collision=1.0)
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    hits, misses = hits_and_misses(engine_checked_run(monkeypatch, world, 12))
    assert hits >= 1
    assert misses >= 2
    assert all(row["min_rho"] > 0 for row in world.metrics)


@pytest.mark.parametrize("use_estimates", [False, True])
def test_closed_loop_sends_no_message(monkeypatch, use_estimates):
    """The loop compiles and replays its exchanges without the engine:
    with the engine and the message type patched to raise, a run across
    several topologies still steps and logs every tick's rounds."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed loop ran the message engine")

    fw = rigid_disk(np.random.default_rng(6), 14, 85.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1,
                           k_rigidity=10.0, k_load=1.0, k_collision=1.0)
    world = make_world(fw, params, WorldConfig(
        use_estimates=use_estimates, anchors=(0, 1), noise_std=0.05,
        initial_estimate_error=0.3, seed=3))
    graphs = {id(fw.graph)}
    monkeypatch.setattr(simnet, "run_message_engine", forbidden)
    monkeypatch.setattr(simnet, "Message", forbidden)
    for _ in range(30):
        step_simulation(world)
        graphs.add(id(world.framework.graph))
    assert len(graphs) >= 2
    assert all(row["exchange_rounds"] >= 1 for row in world.metrics[1:])


def test_each_new_graph_runs_the_engine_once(monkeypatch):
    """run_exchange_phase, which compiles a topology's routing, is called
    once on each new Graph and never on a known one."""
    rng = np.random.default_rng(0)
    fw = rigid_disk(rng, 14, 85.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1,
                           k_rigidity=10.0, k_load=1.0, k_collision=1.0)
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    ticks_seen = engine_checked_run(monkeypatch, world, 30)
    graphs = []
    for graph, runs in ticks_seen:
        new = not any(graph is g for g in graphs)
        assert runs == (1 if new else 0)
        if new:
            graphs.append(graph)
    assert 2 <= len(graphs) < len(ticks_seen)


def test_layouts_are_built_on_a_topology_s_first_tick_only(monkeypatch):
    """Over 20 ticks on one topology, the stacks of its balls and of its
    whole framework, with the layouts of their S, are built on the first
    tick and kept on the graph."""
    fw = rigid_disk(np.random.default_rng(6), 14, 85.0, 40.0)
    # steps short enough that no link comes or goes in 20 ticks
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=1e-4)
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    # the same topology on a new Graph, which keeps nothing yet
    graph = Graph(fw.n, fw.graph.edge_array())
    world.framework, world.accepted = Framework(graph, fw.positions), None
    build = rigidity._stack
    calls = []

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(rigidity, "_stack", counted)
    per_tick = []
    for _ in range(20):
        before = len(calls)
        step_simulation(world)
        assert world.framework.graph is graph
        per_tick.append(len(calls) - before)
    # the balls' layouts, and the whole framework's
    assert per_tick[0] >= 2 and per_tick[1:] == [0] * 19


def test_worlds_sharing_a_graph_share_its_schedule(monkeypatch):
    fw = rigid_disk(np.random.default_rng(6), 14, 85.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1,
                           k_rigidity=10.0, k_load=1.0, k_collision=1.0)
    cfg = WorldConfig(use_estimates=False)
    first = make_world(fw, params, cfg)
    assert engine_checked_run(monkeypatch, first, 1) == [(fw.graph, 1)]
    # the same graph and extents at other positions: a translated copy
    moved = Framework(fw.graph, fw.positions + np.array([3.0, -2.0]))
    second = make_world(moved, params, cfg)
    assert second.framework.graph is fw.graph
    assert second.extents.tobytes() == first.extents.tobytes()
    ticks_seen = engine_checked_run(monkeypatch, second, 1)
    assert ticks_seen == [(fw.graph, 0)]


def test_first_tick_on_ground_truth_solves_no_ball(monkeypatch):
    fw = rigid_disk(np.random.default_rng(6), 14, 85.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1)
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    calls = []

    def counted(name):
        original = getattr(simnet, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    with monkeypatch.context() as patch:
        for name in ("rigidity_spectrum", "run_exchange_phase"):
            patch.setattr(simnet, name, counted(name))
        u, _ = simnet.tick_velocity(world, world.framework.positions)
    # the routing was compiled without payloads, and the replay reused
    # the eigendata of the accepted control state
    assert calls == ["run_exchange_phase"]
    u_engine, _ = decentralized_velocity(fw, world.extents, params)
    assert u.tobytes() == u_engine.tobytes()


def counted_builds(monkeypatch):
    """Every control state simnet builds itself (the replay's), by time."""
    built = []
    original = simnet.build_control_state

    def counted(fw, *args, **kwargs):
        built.append(fw)
        return original(fw, *args, **kwargs)

    monkeypatch.setattr(simnet, "build_control_state", counted)
    return built


def test_guard_on_estimates_solves_eigenvalues_only(monkeypatch):
    fw = rigid_disk(np.random.default_rng(6), 14, 85.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1)
    cfg = WorldConfig(use_estimates=True, anchors=(0, 1), noise_std=0.05,
                      initial_estimate_error=0.3, seed=3)
    world = make_world(fw, params, cfg)
    built = counted_builds(monkeypatch)
    for tick in range(1, 6):
        step_simulation(world)
        state = world.accepted
        assert not state.vectors
        assert all(nu is None for nu in state.verdicts.nu)
        grams = state.ball_set.stack.grams(state.framework.units,
                                           state.weights)
        solved = [rigidity_spectrum(S, fw.dim, vectors=False) for S in grams]
        assert list(zip(state.rhos.tolist(),
                        state.verdicts.rigid.tolist())) == [
            (s.rho, s.rigid) for s in solved]
        # the replay builds its own state, with vectors, at the estimates
        assert len(built) == tick
    with pytest.raises(EigenvectorsNotSolvedError, match="eigenvalues only"):
        world.accepted.rigidity_slopes()


def test_guard_on_ground_truth_keeps_eigenvectors_for_the_replay(monkeypatch):
    fw = rigid_disk(np.random.default_rng(6), 14, 85.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1)
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    built = counted_builds(monkeypatch)
    for _ in range(5):
        step_simulation(world)
        state = world.accepted
        assert state.vectors
        assert all(nu is not None for nu in state.verdicts.nu)
    # every replay reused the accepted state's eigendata
    assert built == []


def flexible_ball_world():
    """A world, and a placement of its robots where no ball is rigid."""
    fw = rigid_disk(np.random.default_rng(6), 14, 85.0, 40.0)
    params = ControlParams(comm_range=40.0, steepness=0.5, dt=0.1)
    h = build_control_state(fw, params).extents
    assert h.max() > h.min()
    # relabel so node 0 has the widest ball: centers fire in order of
    # extent, so the first ball the engine finds flexible is not node 0's
    old = np.argsort(-h, kind="stable")
    new = np.argsort(old)
    fw = Framework(Graph(fw.graph.n, [(new[a], new[b])
                                      for a, b in fw.graph.edges]),
                   fw.positions[old])
    world = make_world(fw, params, WorldConfig(use_estimates=False))
    # distinct points on one line: no ball of the plane can be rigid there
    line = np.column_stack([np.arange(fw.graph.n, dtype=float),
                            np.zeros(fw.graph.n)])
    return world, line


def assert_fails_like_the_engine(world, positions):
    fw = Framework(world.framework.graph, positions)
    with pytest.raises(RigidityLostError) as engine:
        decentralized_velocity(fw, world.extents, world.params)
    with pytest.raises(RigidityLostError) as replay:
        simnet.tick_velocity(world, positions)
    assert str(replay.value) == str(engine.value)
    assert str(engine.value) != "subframework of node 0 is not rigid"


def test_replay_fails_like_the_engine_on_a_flexible_ball():
    world, line = flexible_ball_world()
    simnet.tick_velocity(world, world.framework.positions)
    assert_fails_like_the_engine(world, line)


def test_first_tick_fails_like_the_engine_on_a_flexible_ball():
    world, line = flexible_ball_world()
    assert_fails_like_the_engine(world, line)
