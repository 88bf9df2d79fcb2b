"""Controller math: weights, potentials, analytic gradients, stepping, refresh."""

import numpy as np
import pytest
from support import (
    central_difference,
    floyd_warshall,
    hop_ball,
    random_disk_framework,
)

from rigidnet import control
from rigidnet.control import (
    ControlParams,
    RigidityLostError,
    ball_load_slopes,
    ball_rigidity_slopes,
    build_control_state,
    collision_gradient_all,
    collision_potential,
    guarded_refresh,
    load_gradient_all,
    load_potential,
    refresh_topology,
    rigidity_gradient_all,
    rigidity_potential,
    total_potential,
    velocity_field,
)
from rigidnet.graphs import Graph, geodesics
from rigidnet.rigidity import Framework
from rigidnet.simnet import WorldConfig, make_world, step_simulation
from rigidnet.subframeworks import ball_set


def apex_framework():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 4), (3, 4)])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.7, 0.8]])
    return Framework(g, x)


def default_params(**kw):
    kw.setdefault("comm_range", 3.0)
    return ControlParams(**kw)


def fd_state(rng, n=8, dim=2, **exponents):
    """Random rigid disk framework plus its control state, skipping tight gaps.

    In space the balls need more nodes and links to be rigid, so the
    network is larger and the range longer there.  exponents are passed
    on to ControlParams.
    """
    n, range_ = (n, 0.55) if dim == 2 else (n + 2, 0.8)
    fw = random_disk_framework(rng, n, side=1.0, range_=range_, dim=dim)
    params = ControlParams(comm_range=range_, steepness=4.0, **exponents)
    try:
        state = build_control_state(fw, params)
    except RigidityLostError:
        return None
    if any(s.gap < 1e-4 * max(s.lam_max, 1e-12) for s in state.spectra):
        return None
    return state


class TestEdgeWeight:
    def test_half_at_range(self):
        assert control._logistic(2.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_frozen_value(self):
        w = control._logistic(30.0, 40.0, 0.5)
        assert w == pytest.approx(1.0 / (1.0 + np.exp(-5.0)), rel=1e-12)

    def test_decreasing_in_distance(self):
        ws = control._logistic(np.linspace(0.1, 6.0, 40), 3.0, 0.8)
        assert (np.diff(ws) < 0).all()
        assert 0.0 < ws[-1] < ws[0] < 1.0


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ControlParams(comm_range=0.0)
        with pytest.raises(ValueError):
            ControlParams(comm_range=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            ControlParams(comm_range=1.0, weight_prune=1.5)
        with pytest.raises(ValueError):
            ControlParams(comm_range=1.0, k_load=-1.0)
        with pytest.raises(ValueError):
            ControlParams(comm_range=1.0, max_step_retries=-1)


class TestStateBuild:
    def test_fields_consistent(self):
        state = build_control_state(apex_framework(), default_params())
        assert state.extents.tolist() == [1, 2, 1, 2, 2]
        assert ((0 < state.weights) & (state.weights < 1)).all()
        assert np.isfinite(state.rhos).all() and (state.rhos > 0).all()
        assert len(state.spectra) == 5
        balls, g = state.ball_set, state.framework.graph
        assert len(balls.inside) == 5
        for j, row in enumerate(balls.inside):
            nodes = balls.stack.nodes[balls.stack.offsets[j]:balls.stack.offsets[j + 1]]
            assert np.flatnonzero(row).tolist() == hop_ball(g, j, state.extents[j])
            assert nodes.tolist() == hop_ball(g, j, state.extents[j])

    def test_flexible_balls_rejected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        rng = np.random.default_rng(30)
        fw = Framework(g, rng.uniform(0, 1, size=(4, 2)))
        with pytest.raises(RigidityLostError):
            build_control_state(fw, default_params(), extents=[1, 1, 1, 1])

    def test_too_small_ball_is_named(self):
        # node 0 hangs off the triangle 1-2-3: its unit ball has two nodes,
        # too few for the eigenvalue test, while node 1's ball is flexible
        g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.5, 1.0]])
        state = build_control_state(Framework(g, x), default_params(),
                                    extents=[1, 1, 1, 1], require_rigid=False)
        too_small = state.spectra[0]
        assert not too_small.rigid and len(too_small.eigenvalues) == 0
        assert not state.spectra[1].rigid
        assert np.isnan(state.rhos[0])
        with pytest.raises(RigidityLostError,
                           match=r"node 0 lost rigidity \(rho=None\)"):
            state.require_rigid()

    def test_degenerate_balls_flagged(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        state = build_control_state(Framework(g, x), default_params())
        assert all(s.degenerate for s in state.spectra)
        assert np.isfinite(rigidity_gradient_all(state)).all()


class TestPotentials:
    def test_rigidity_potential_is_inverse_power_sum(self):
        state = build_control_state(apex_framework(), default_params())
        assert rigidity_potential(state) == pytest.approx(
            float((state.rhos ** -1.0).sum())
        )

    def test_shrinking_strengthens_weighted_rigidity(self):
        fw = apex_framework()
        state = build_control_state(fw, default_params(comm_range=2.0))
        assert rigidity_potential(state, 0.5 * fw.positions) < rigidity_potential(state)

    def test_load_matches_weighted_communication_load(self):
        state = build_control_state(apex_framework(), default_params())
        g = state.framework.graph
        delta = np.zeros(g.n)
        e = g.edge_array()
        np.add.at(delta, e[:, 0], state.weights)
        np.add.at(delta, e[:, 1], state.weights)
        # the weighted load: max(0, h_j - g_ji) from the textbook hop
        # counts, weighing each node's summed link weights
        c = np.maximum(0.0, state.extents[:, None] - floyd_warshall(g))
        assert load_potential(state) == pytest.approx((c @ delta).sum())

    def test_collision_frozen_pair(self):
        fw = Framework(Graph(2, [(0, 1)]), [[0.0, 0.0], [1.0, 0.0]])
        assert collision_potential(fw, exponent=2.0) == pytest.approx(1.0)

    def test_rotation_leaves_values_alone(self):
        rng = np.random.default_rng(31)
        state = None
        while state is None:
            state = fd_state(rng)
        x = state.framework.positions
        th = 1.234
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        xr = x @ rot.T
        assert rigidity_potential(state, xr) == pytest.approx(
            rigidity_potential(state), rel=1e-10
        )
        assert collision_potential(state.framework, xr) == pytest.approx(
            collision_potential(state.framework), rel=1e-10
        )
        assert load_potential(state, xr) == pytest.approx(
            load_potential(state), rel=1e-10
        )


def assert_gradients_match_finite_differences(dim, seed, **exponents):
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < 8:
        state = fd_state(rng, dim=dim, **exponents)
        if state is None:
            continue
        checked += 1
        fw = state.framework
        shape = fw.positions.shape

        for grad, func, tol in [
            (rigidity_gradient_all(state),
             lambda xf: rigidity_potential(state, xf.reshape(shape)), 1e-4),
            (load_gradient_all(state),
             lambda xf: load_potential(state, xf.reshape(shape)), 1e-4),
            (collision_gradient_all(state),
             lambda xf: collision_potential(fw, xf.reshape(shape),
                                            state.params.collision_exponent),
             1e-6),
        ]:
            fd = central_difference(func, fw.positions.ravel(), eps=1e-6)
            scale = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad.ravel() - fd) <= tol * scale


class TestGradients:
    def test_match_finite_differences(self):
        assert_gradients_match_finite_differences(dim=2, seed=32)

    def test_match_finite_differences_in_3d(self):
        assert_gradients_match_finite_differences(dim=3, seed=32)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_match_finite_differences_at_other_exponents(self, dim):
        assert_gradients_match_finite_differences(
            dim=dim, seed=32, rigidity_exponent=2.0, collision_exponent=3.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(33)
        state = None
        while state is None:
            state = fd_state(rng)
        for grad in (
            rigidity_gradient_all(state),
            load_gradient_all(state),
            collision_gradient_all(state),
        ):
            assert np.allclose(grad.sum(axis=0), 0.0, atol=1e-8)

    def test_per_center_pieces_sum_to_totals(self):
        rng = np.random.default_rng(34)
        state = None
        while state is None:
            state = fd_state(rng)
        n, d = state.framework.positions.shape
        e = state.framework.graph.edge_array()
        stack = state.ball_set.stack
        nus = np.concatenate([s.nu for s in state.spectra]).reshape(-1, d)
        rigidity = ball_rigidity_slopes(
            stack, state.rhos, nus, state.framework.units,
            state.framework.lengths, state.weights, state.params)
        acc = np.zeros((n, d))
        np.add.at(acc, stack.nodes, rigidity)
        assert np.allclose(acc, rigidity_gradient_all(state), atol=1e-12)
        # the load total sums whole-node coefficients over all edges, not
        # ball by ball, so the two sums meet only to rounding
        load = ball_load_slopes(stack, state.ball_set.c, e,
                                state.framework.units, state.weights,
                                state.params)
        acc = np.zeros((n, d))
        np.add.at(acc, stack.nodes, load)
        assert np.allclose(acc, load_gradient_all(state), atol=1e-12)

    def test_load_term_pushes_pair_apart(self):
        fw = Framework(Graph(2, [(0, 1)]), [[0.0, 0.0], [1.0, 0.0]])
        state = build_control_state(
            fw, default_params(comm_range=2.0), extents=[1, 1], require_rigid=False
        )
        r01 = (fw.positions[0] - fw.positions[1]) / 1.0
        descent = -load_gradient_all(state)[0]
        assert descent @ r01 > 0

    def test_edgeless_load_gradient_is_zero(self):
        fw = Framework(Graph(3, []), np.eye(3, 2) * 3.0)
        state = build_control_state(
            fw, default_params(), extents=[1, 1, 1], require_rigid=False
        )
        assert np.allclose(load_gradient_all(state), 0.0)
        # the other edge terms also sum over an empty edge set
        assert state.weights.shape == (0,)
        assert collision_potential(fw) == 0.0
        assert collision_potential(fw, 2.0 * fw.positions) == 0.0
        assert load_potential(state) == 0.0
        assert np.array_equal(collision_gradient_all(state), np.zeros((3, 2)))

    def test_collision_pair_antisymmetry(self):
        fw = Framework(Graph(2, [(0, 1)]), [[0.0, 0.0], [0.4, 0.3]])
        state = build_control_state(
            fw, default_params(), extents=[1, 1], require_rigid=False
        )
        g = collision_gradient_all(state)
        assert np.allclose(g[0], -g[1], atol=1e-14)


# the closed loop on true positions, with no range filter in it
GROUND_TRUTH = WorldConfig(use_estimates=False)


class TestStepping:
    def test_small_steps_descend_total_cost(self):
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 20:
            state = fd_state(rng)
            if state is None:
                continue
            checked += 1
            u = velocity_field(state)
            dt = 1e-4 / (1.0 + np.abs(u).max())
            x_new = state.framework.positions + dt * u
            j0 = total_potential(state)
            j1 = total_potential(state, x_new)
            assert j1 <= j0 + 1e-10 * abs(j0)

    def test_rigidity_only_descent_raises_min_rho(self):
        fw = apex_framework()
        params = default_params(
            comm_range=3.0, k_load=0.0, k_collision=0.0, dt=2e-3
        )
        world = make_world(fw, params, GROUND_TRUTH)
        prev = float(np.min(world.accepted.rhos))
        for _ in range(20):
            step_simulation(world)
            cur = float(np.min(world.accepted.rhos))
            assert cur >= prev - 1e-9
            prev = cur

    def test_zero_gains_fixed_point(self):
        # a disk framework is already consistent with the refresh rule, so a
        # zero velocity field must reproduce it exactly
        rng = np.random.default_rng(37)
        params = ControlParams(
            comm_range=0.5, k_rigidity=0.0, k_load=0.0, k_collision=0.0
        )
        world = None
        while world is None:
            fw = random_disk_framework(rng, 10, side=1.0, range_=0.5)
            try:
                world = make_world(fw, params, GROUND_TRUTH)
            except RigidityLostError:
                continue
        before = world.accepted
        step_simulation(world)
        after = world.accepted
        assert np.array_equal(after.framework.positions, before.framework.positions)
        assert after.framework.graph == before.framework.graph
        assert after.time == pytest.approx(before.time + params.dt)

    def test_extents_carried_through(self):
        world = make_world(apex_framework(), default_params(dt=1e-3),
                           GROUND_TRUTH)
        before = world.accepted
        step_simulation(world)
        assert np.array_equal(world.accepted.extents, before.extents)

    def test_runaway_step_raises(self):
        params = default_params(k_rigidity=1e9, max_step_retries=2)
        world = make_world(apex_framework(), params, GROUND_TRUTH)
        with pytest.raises(RigidityLostError, match="no acceptable step size"):
            step_simulation(world)

    def test_mini_run_stays_rigid(self):
        rng = np.random.default_rng(36)
        fw = random_disk_framework(rng, 12, side=1.0, range_=0.5)
        params = ControlParams(comm_range=0.5, steepness=8.0, dt=5e-4,
                               k_load=0.1, k_collision=1e-4)
        world = make_world(fw, params, GROUND_TRUTH)
        for _ in range(10):
            step_simulation(world)
            assert (world.accepted.rhos > 0).all()
        assert world.accepted.time == pytest.approx(10 * params.dt)


class TestRefresh:
    def test_prune_add_and_hysteresis(self):
        # range 1, steepness 5: weight hits 0.01 near distance 1.92
        g = Graph(8, [(0, 1), (2, 3)])
        x = np.array(
            [[0.0, 0.0], [2.5, 0.0],    # stale edge, weight below prune
             [0.0, 2.0], [1.5, 2.0],    # stretched edge, inside hysteresis band
             [0.0, 4.0], [1.5, 4.0],    # same gap but no edge: must stay unlinked
             [0.0, 6.0], [0.8, 6.0]]    # close pair, gets linked
        )
        params = ControlParams(comm_range=1.0, steepness=5.0)
        out = refresh_topology(g, x, params)
        assert (0, 1) not in out.edges          # pruned
        assert (2, 3) in out.edges              # kept by hysteresis
        assert (4, 5) not in out.edges          # not close enough to create
        assert (6, 7) in out.edges              # newly linked

    def test_new_edge_needs_strictly_closer_than_range(self):
        g = Graph(2, [])
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        params = ControlParams(comm_range=1.0, steepness=5.0)
        assert refresh_topology(g, x, params).edges == []


class TestGuard:
    # two triangles sharing the bar 1-2, node 4 braced to 1 and 3; in the
    # candidate node 4 sits on node 0, which it is not linked to
    GRAPH = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)])
    CANDIDATE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                          [0.0, 0.0]])
    PARAMS = ControlParams(comm_range=5.0)

    def test_coincident_link_is_deferred(self):
        graph, state = guarded_refresh(self.GRAPH, self.CANDIDATE,
                                       self.PARAMS, [2] * 5)
        assert state is not None
        assert (0, 4) not in graph.edges
        assert {(0, 3), (2, 4)} <= set(graph.edges)

    def test_coincident_edge_rejects_the_candidate(self):
        x = self.CANDIDATE.copy()
        x[3] = x[1]
        assert guarded_refresh(self.GRAPH, x, self.PARAMS, [2] * 5) == (
            None, None)

    def test_unrelated_value_error_propagates(self):
        with pytest.raises(ValueError, match="extents"):
            guarded_refresh(self.GRAPH, self.CANDIDATE, self.PARAMS, [2] * 4)


class TestTopologyCache:
    """What a Graph keeps for its control states never leaks between them."""

    PARAMS = ControlParams(comm_range=0.55, steepness=4.0)

    def setup_method(self):
        rng = np.random.default_rng(42)
        self.fw = random_disk_framework(rng, 12, side=1.0, range_=0.55)
        self.extents = build_control_state(self.fw, self.PARAMS).extents

    def build(self, graph, x):
        return build_control_state(Framework(graph, x), self.PARAMS,
                                   extents=self.extents, require_rigid=False)

    @staticmethod
    def eigendata(state):
        """Every ball's eigendata, copied, with nu as a tuple of floats."""
        return [None if s is None else (s.rho, tuple(s.nu), s.lam_max, s.gap,
                                        s.rigid, s.degenerate)
                for s in state.spectra]

    def test_refresh_keeps_the_graph_while_edges_hold(self):
        fw = self.fw
        assert refresh_topology(fw.graph, fw.positions, self.PARAMS) is fw.graph
        twin = Graph(fw.n, fw.graph.edges)
        assert refresh_topology(twin, fw.positions, self.PARAMS) is twin
        x = fw.positions.copy()
        x[0] += 5.0
        moved = refresh_topology(fw.graph, x, self.PARAMS)
        assert moved is not fw.graph and moved.m < fw.graph.m

    def test_failed_unchanged_edge_set_is_built_once(self, monkeypatch):
        # with the edges held the wholesale candidate is the graph itself,
        # so its failure is final without a second, identical build
        built = []

        def failing(graph, *args):
            built.append(graph)
            return None

        monkeypatch.setattr(control, "_state_if_rigid", failing)
        fw = self.fw
        assert guarded_refresh(fw.graph, fw.positions, self.PARAMS,
                               self.extents) == (None, None)
        assert len(built) == 1 and built[0] is fw.graph

    def test_a_second_state_leaves_the_first_alone(self):
        fw = self.fw
        first = self.build(fw.graph, fw.positions)
        before = self.eigendata(first)
        second = self.build(fw.graph, 1.1 * fw.positions)
        assert second.ball_set is first.ball_set
        assert self.eigendata(second) != before
        assert self.eigendata(first) == before
        cached = ball_set(fw.graph, first.extents, fw.dim)
        # the cache holds a bare membership mask, each state its own eigendata
        assert not hasattr(cached, "balls")
        assert cached.inside.dtype == bool and cached.inside.shape == (fw.n, fw.n)
        assert not cached.inside.flags.writeable
        assert not cached.stack.nodes.flags.writeable
        for a, b in zip(first.spectra, second.spectra):
            assert a is not b
        assert not geodesics(fw.graph).dist.flags.writeable

    def test_cached_state_equals_a_fresh_build(self):
        fw = self.fw
        self.build(fw.graph, fw.positions)
        x = fw.positions + np.random.default_rng(45).normal(0, 0.01, (fw.n, 2))
        cached = self.build(fw.graph, x)
        fresh = self.build(Graph(fw.n, fw.graph.edges), x)
        assert fresh.ball_set is not cached.ball_set
        assert np.array_equal(cached.weights, fresh.weights)
        for name in ("units", "lengths"):
            assert np.array_equal(getattr(cached.framework, name),
                                  getattr(fresh.framework, name))
        for name in ("c", "coeff"):
            assert np.array_equal(getattr(cached.ball_set, name),
                                  getattr(fresh.ball_set, name))
        assert np.array_equal(geodesics(fw.graph).dist,
                              geodesics(fresh.framework.graph).dist)
        assert self.eigendata(cached) == self.eigendata(fresh)
        assert np.array_equal(cached.ball_set.inside, fresh.ball_set.inside)
        for name in ("nodes", "offsets", "edge", "ends", "ball"):
            assert np.array_equal(getattr(cached.ball_set.stack, name),
                                  getattr(fresh.ball_set.stack, name))
        assert np.array_equal(velocity_field(cached), velocity_field(fresh))
