"""Ball stacks, extent search, inclusion groups and the communication-load accounting."""

import re
from dataclasses import dataclass

import numpy as np
import pytest
from support import floyd_warshall, hop_ball, random_disk_framework, random_graph

from rigidnet.control import ControlParams, build_control_state
from rigidnet.experiments import ConfigError, ScenarioConfig, sample_framework
from rigidnet.graphs import GeodesicTable, Graph, disk_proximity_graph
from rigidnet.rigidity import (
    Framework,
    flexible_by_count,
    framework_gram,
    is_infinitesimally_rigid,
    rigidity_report,
    rigidity_spectrum,
    stack_balls,
)
from rigidnet.simnet import (
    World, WorldConfig, make_world, run_exchange_phase, run_message_engine
)
from rigidnet.subframeworks import (
    ball_set,
    communication_load,
    extent_assignment,
    extract_subframework,
    inclusion_group,
    verify_extents,
)


@dataclass
class Ball:
    """Reference: one center's hop-ball as index masks, built on its own.

    local maps a node to its row among the sorted nodes (-1 outside) and
    edge_idx lists the edges with both endpoints inside.
    """

    nodes: np.ndarray
    local: np.ndarray
    edge_idx: np.ndarray

    @classmethod
    def of(cls, edge_endpoints, n, nodes):
        nodes = np.asarray(nodes, dtype=np.intp)
        local = np.full(n, -1, dtype=np.intp)
        local[nodes] = np.arange(len(nodes))
        in_ball = local >= 0
        edge_idx = np.flatnonzero(in_ball[edge_endpoints[:, 0]]
                                  & in_ball[edge_endpoints[:, 1]])
        return cls(nodes, local, edge_idx)


def reference_stack(balls, edge_endpoints):
    """The balls laid end to end by a loop over them, field by field."""
    offsets = np.cumsum([0] + [len(b.nodes) for b in balls])
    ball = np.repeat(np.arange(len(balls)), [len(b.edge_idx) for b in balls])
    ends = np.concatenate([b.local[edge_endpoints[b.edge_idx]] for b in balls])
    return {
        "nodes": np.concatenate([b.nodes for b in balls]),
        "offsets": offsets,
        "edge": np.concatenate([b.edge_idx for b in balls]),
        "ends": ends + offsets[ball][:, None],
        "ball": ball,
    }


def assert_stacks_equal(g, inside, d=2):
    e = g.edge_array()
    balls = [Ball.of(e, g.n, np.flatnonzero(row)) for row in inside]
    expected = reference_stack(balls, e)
    stack = stack_balls(inside, e, d)
    for name, want in expected.items():
        got = getattr(stack, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


class TestStackBalls:
    """stack_balls on a membership mask against the ball-by-ball loop."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_disk_frameworks_at_several_radii(self, d):
        rng = np.random.default_rng(90 + d)
        for _ in range(5):
            fw = random_disk_framework(rng, int(rng.integers(6, 20)), side=1.0,
                                       range_=(0.4, 0.6)[d - 2], dim=d)
            dist = GeodesicTable.compute(fw.graph).dist
            for h in range(4):
                assert_stacks_equal(fw.graph, dist <= h, d)
            mixed = rng.integers(0, 4, size=fw.n)
            assert_stacks_equal(fw.graph, dist <= mixed[:, None], d)
            # a subset of the centers, out of order, one of them twice
            rows = rng.permutation(fw.n)[:4].tolist() + [0]
            assert_stacks_equal(fw.graph, dist[rows] <= 2, d)

    def test_disconnected_graph(self):
        g = random_graph(np.random.default_rng(94), 12, 0.15)
        dist = GeodesicTable.compute(g).dist
        assert np.isinf(dist).any()
        for h in (1, 2, 12):
            assert_stacks_equal(g, dist <= h)

    def test_edgeless_graph(self):
        g = Graph(5, [])
        dist = GeodesicTable.compute(g).dist
        assert_stacks_equal(g, dist <= 3)
        stack = stack_balls(dist <= 3, g.edge_array(), 2)
        assert stack.nodes.tolist() == list(range(5))
        assert stack.ends.shape == (0, 2)

    def test_single_node_ball(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        inside = np.zeros((1, 4), dtype=bool)
        inside[0, 2] = True
        assert_stacks_equal(g, inside)
        stack = stack_balls(inside, g.edge_array(), 2)
        assert stack.nodes.tolist() == [2] and stack.offsets.tolist() == [0, 1]
        assert len(stack.edge) == 0
        assert_stacks_equal(Graph(1, []), np.ones((1, 1), dtype=bool))


def braced_square_with_apex():
    """Braced square 0..3 plus node 4 tied to opposite corners 1 and 3.

    The 1-balls of 1, 3 and 4 all flex (a triangle with a pendant, or a
    two-edge path), so the extents come out (1, 2, 1, 2, 2).
    """
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 4), (3, 4)])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.7, 0.8]])
    return Framework(g, x)


def triangle_with_pendant():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9], [-0.8, 0.3]])
    return Framework(g, x)


def complete_positions(n, rng):
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    return Framework(g, rng.uniform(-1, 1, size=(n, 2)))


class TestExtract:
    def test_ball_and_induced_edges(self):
        fw = braced_square_with_apex()
        sub, nodes = extract_subframework(fw, 4, 1)
        assert nodes == [1, 3, 4]
        assert sub.graph.edges == [(0, 2), (1, 2)]
        assert np.array_equal(sub.positions, fw.positions[[1, 3, 4]])

    def test_zero_extent_is_single_node(self):
        fw = braced_square_with_apex()
        sub, nodes = extract_subframework(fw, 2, 0)
        assert nodes == [2]
        assert sub.graph.m == 0

    def test_full_extent_recovers_framework(self):
        fw = braced_square_with_apex()
        sub, nodes = extract_subframework(fw, 0, 2)
        assert nodes == list(range(5))
        assert sub.graph == fw.graph

    def test_rejects_a_center_out_of_range(self):
        # numpy would read -1 as node 4 and return its ball
        fw = braced_square_with_apex()
        for center in (-1, 5):
            with pytest.raises(ConfigError, match=re.escape(
                    f"center must be a node id in 0..4, got {center}")):
                extract_subframework(fw, center, 1)

    def test_rejects_a_nan_extent(self):
        with pytest.raises(ValueError, match="extents must be at least 0"):
            extract_subframework(braced_square_with_apex(), 0, float("nan"))

    @pytest.mark.parametrize("extent", [1.5, float("inf")])
    def test_rejects_an_extent_that_is_not_a_whole_hop_count(self, extent):
        # read as a float, 1.5 gave the radius-1 ball and inf the whole
        # component
        with pytest.raises(ValueError,
                           match="extents must be whole hop counts"):
            extract_subframework(braced_square_with_apex(), 0, extent)

    def test_rejects_a_fractional_center(self):
        # numpy raised its own IndexError for a fractional index
        with pytest.raises(ConfigError, match=re.escape(
                "center must be a node id in 0..4, got 1.5")):
            extract_subframework(braced_square_with_apex(), 1.5, 1)


class TestExtent:
    def test_mixed_extents_frozen_example(self):
        fw = braced_square_with_apex()
        assert is_infinitesimally_rigid(fw)
        asg = extent_assignment(fw)
        assert asg.tolist() == [1, 2, 1, 2, 2]
        assert asg.all()

    def test_complete_graph_extents_all_one(self):
        fw = complete_positions(6, np.random.default_rng(20))
        asg = extent_assignment(fw)
        assert asg.tolist() == [1] * 6

    def test_flexible_framework_leaves_gaps(self):
        # nodes 1 and 2 still own a rigid triangle, but the pendant node and
        # its attachment never see a rigid ball at any radius
        fw = triangle_with_pendant()
        assert not is_infinitesimally_rigid(fw)
        asg = extent_assignment(fw)
        assert asg.tolist() == [0, 1, 1, 0]
        assert not asg.all()

    def test_path_has_no_extents(self):
        g = Graph(5, [(i, i + 1) for i in range(4)])
        rng = np.random.default_rng(21)
        fw = Framework(g, rng.uniform(-1, 1, size=(5, 2)))
        assert extent_assignment(fw)[2] == 0

    def test_complete_assignment_iff_rigid(self):
        rng = np.random.default_rng(22)
        hits = 0
        for _ in range(20):
            n = int(rng.integers(5, 11))
            fw = random_disk_framework(rng, n, side=1.0, range_=0.55)
            rigid = is_infinitesimally_rigid(fw)
            asg = extent_assignment(fw)
            assert asg.all() == rigid
            hits += rigid
        assert 0 < hits < 20

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_a_ball_by_ball_scan(self, d):
        # the search assembles the balls of one radius together; each
        # extent must still be the first radius whose extracted ball passes
        # the dense rank-and-eigenvalue test, stopping once it stops growing
        rng = np.random.default_rng(23 + d)
        for _ in range(4):
            fw = random_disk_framework(rng, 14, side=1.0,
                                       range_=(0.4, 0.65)[d - 2], dim=d)
            expected = []
            for j in range(fw.n):
                prev, found = None, 0
                for h in range(1, fw.n + 1):
                    sub, nodes = extract_subframework(fw, j, h)
                    if nodes == prev:
                        break
                    prev = nodes
                    if sub.n > d and is_infinitesimally_rigid(sub):
                        found = h
                        break
                expected.append(found)
            assert extent_assignment(fw).tolist() == expected
            if all(h != 0 for h in expected):
                assert verify_extents(fw, expected)


class TestCountingRuleOnEnsembleDraws:
    """The extent search leaves unsolved every ball that the counting rule
    flags; on the ensemble's own draws each must be flexible."""

    @pytest.mark.parametrize("range_", [17.5, 20.0])
    def test_every_flagged_ball_is_flexible(self, range_):
        # raw sampler draws, rejected ones among them: 100 robots in the
        # 100 m square, every ball at every radius where it still grows
        rng = np.random.default_rng(int(10 * range_))
        flagged = 0
        for _ in range(4):
            x = rng.uniform(0.0, 100.0, size=(100, 2))
            fw = Framework(disk_proximity_graph(x, range_), x)
            dist = GeodesicTable.compute(fw.graph).dist
            for h in range(1, int(dist[np.isfinite(dist)].max()) + 1):
                grows = np.flatnonzero((dist == h).any(axis=1))
                flags = flexible_by_count(fw.graph, dist[grows] <= h, 2)
                for center in grows[flags].tolist():
                    sub, _ = extract_subframework(fw, center, h)
                    S = framework_gram(sub)
                    assert not rigidity_spectrum(S, 2, vectors=False).rigid
                    flagged += 1
        assert flagged > 40

    @pytest.mark.parametrize("range_", [17.5, 20.0])
    def test_extents_equal_a_per_node_report_scan(self, range_):
        # the first radius whose extracted ball passes the rank-checked
        # report, node by node, stopping once the ball stops growing
        config = ScenarioConfig(n=100, comm_range=range_, ensemble_count=1)
        fw, _ = sample_framework(np.random.default_rng(int(range_)), config)
        expected = []
        for j in range(fw.n):
            prev, found = None, 0
            for h in range(1, fw.n + 1):
                sub, nodes = extract_subframework(fw, j, h)
                if nodes == prev:
                    break
                prev = nodes
                if sub.n > 2 and rigidity_report(sub, vectors=False).rigid:
                    found = h
                    break
            expected.append(found)
        assert extent_assignment(fw).tolist() == expected
        assert all(expected)


class TestVerify:
    def test_assigned_extents_certify(self):
        fw = braced_square_with_apex()
        assert verify_extents(fw, [1, 2, 1, 2, 2])
        assert verify_extents(fw, [2, 2, 2, 2, 2])
        assert not verify_extents(fw, [1, 1, 1, 1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_extents(braced_square_with_apex(), [1, 1])

    def test_missing_extent_rejected(self):
        # a None (or NaN) extent must not mask its ball empty and read as
        # a plain "not rigid"
        fw = braced_square_with_apex()
        with pytest.raises(TypeError):
            verify_extents(fw, [1, 2, None, 2, 2])
        with pytest.raises(ValueError):
            verify_extents(fw, [1, 2, float("nan"), 2, 2])


class TestInclusionGroup:
    def test_frozen_example(self):
        fw = braced_square_with_apex()
        h = [1, 2, 1, 2, 2]
        assert inclusion_group(fw.graph, h, 4) == [1, 3, 4]
        assert inclusion_group(fw.graph, h, 0) == [0, 1, 2, 3, 4]

    def test_membership_duality(self):
        fw = braced_square_with_apex()
        h = [1, 2, 1, 2, 2]
        for i in range(fw.n):
            group = inclusion_group(fw.graph, h, i)
            for j in range(fw.n):
                assert (j in group) == (i in hop_ball(fw.graph, j, h[j]))

    def test_contains_self_and_neighbors(self):
        # extents are at least 1, so i and every neighbor's center reach i
        rng = np.random.default_rng(23)
        fw = random_disk_framework(rng, 12, side=1.0, range_=0.6)
        h = np.ones(fw.n, dtype=int)
        for i in range(fw.n):
            group = inclusion_group(fw.graph, h, i)
            assert i in group
            for j in fw.graph.neighbors(i):
                assert j in group

    def test_rejects_a_node_out_of_range(self):
        # numpy would read -1 as node 3 and return its group [2, 3]
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        for i in (-1, 4):
            with pytest.raises(ConfigError, match=re.escape(
                    f"i must be a node id in 0..3, got {i}")):
                inclusion_group(g, [1] * 4, i)

    def test_rejects_a_fractional_node(self):
        # numpy raised its own IndexError for a fractional index
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ConfigError, match=re.escape(
                "i must be a node id in 0..3, got 1.5")):
            inclusion_group(g, [1] * 4, 1.5)


class TestLoad:
    def test_path_frozen_example(self):
        g = Graph(3, [(0, 1), (1, 2)])
        rep = communication_load(g, [2, 1, 2])
        assert rep.tolist() == [4.0, 2.0, 4.0]
        assert rep.sum() == 10.0

    def test_unit_extents_give_twice_edge_count(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 20)), 0.3)
            rep = communication_load(g, np.ones(g.n, dtype=int))
            assert rep.sum() == pytest.approx(2.0 * g.m)

    def test_monotone_in_extents(self):
        rng = np.random.default_rng(25)
        fw = random_disk_framework(rng, 15, side=1.0, range_=0.5)
        g = fw.graph
        table = GeodesicTable.compute(g)
        ecc = table.eccentricities().astype(int)
        h = np.array([int(rng.integers(1, e + 1)) for e in ecc])
        small = communication_load(g, h)
        big = communication_load(g, ecc)
        assert (small <= big + 1e-12).all()
        assert small.sum() <= big.sum() + 1e-12

    def test_shared_table_follows_the_extents(self):
        # communication_load and the BallSet read one coefficient table
        # kept on the graph; whatever was asked for last, each call must
        # see the coefficients of its own extents
        rng = np.random.default_rng(26)
        fw = random_disk_framework(rng, 15, side=1.0, range_=0.5)
        g = fw.graph
        dist = floyd_warshall(g)
        ecc = dist.max(axis=1).astype(int)
        h = np.array([int(rng.integers(1, e + 1)) for e in ecc])

        def oracle(extents):
            c = np.maximum(0.0, np.asarray(extents)[:, None] - dist)
            return c @ g.degrees()

        before = communication_load(g, h)
        balls = ball_set(g, h, fw.dim)
        after = communication_load(g, h)
        other = communication_load(g, ecc)
        again = communication_load(g, h)
        assert np.array_equal(before, oracle(h))
        assert np.array_equal(after, oracle(h))
        assert np.array_equal(other, oracle(ecc))
        assert np.array_equal(again, oracle(h))
        assert np.array_equal(balls.c, np.maximum(0.0, h[:, None] - dist))
        assert np.array_equal(ball_set(g, h, fw.dim).c, balls.c)

    def test_rejects_zero_extent(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            communication_load(g, [0, 1, 1])

    def test_rejects_a_nan_extent(self):
        # NaN < 1 is false, so a NaN extent once gave a NaN load
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="extents must be at least 1"):
            communication_load(g, [1, 1, 1, float("nan")])


PARAMS = ControlParams(comm_range=3.0)

# every function that reads extents, on a framework and its extents
EXTENT_READERS = {
    "build_control_state": lambda fw, h: build_control_state(fw, PARAMS, h),
    "ball_set": lambda fw, h: ball_set(fw.graph, h, fw.dim),
    "communication_load": lambda fw, h: communication_load(fw.graph, h),
    "inclusion_group": lambda fw, h: inclusion_group(fw.graph, h, 0),
    "verify_extents": verify_extents,
    "run_exchange_phase": run_exchange_phase,
    "run_message_engine": lambda fw, h: run_message_engine(fw, h, PARAMS),
}

# extents for the five nodes of braced_square_with_apex, with the error
# and the whole message each reader raises for them
BAD_EXTENTS = {
    "short": ([2, 2, 2, 2], ValueError, "expected 5 extents, got shape (4,)"),
    "nan": ([2, 2, float("nan"), 2, 2], ValueError,
            "extents must be at least 1"),
    "inf": ([2, 2, float("inf"), 2, 2], ValueError,
            "extents must be whole hop counts"),
    "-inf": ([2, 2, -float("inf"), 2, 2], ValueError,
             "extents must be at least 1"),
    "none": ([2, 2, None, 2, 2], TypeError,
             "extents must be numbers, got dtype object"),
    "zero": ([2, 2, 0, 2, 2], ValueError, "extents must be at least 1"),
    "fraction": ([2, 2, 1.5, 2, 2], ValueError,
                 "extents must be whole hop counts"),
}


class TestExtentsReader:
    """Every function that takes extents reads them one way: n whole hop
    counts of at least 1 (verify_extents alone also takes 0), frozen as
    one read-only intp array."""

    @pytest.mark.parametrize("case", BAD_EXTENTS)
    @pytest.mark.parametrize("reader", EXTENT_READERS)
    def test_every_reader_names_the_fault(self, reader, case):
        fw = braced_square_with_apex()
        extents, error, message = BAD_EXTENTS[case]
        if reader == "verify_extents":
            # a radius-0 ball is one node, which is never rigid
            if case == "zero":
                assert verify_extents(fw, extents) is False
                return
            message = message.replace("at least 1", "at least 0")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            EXTENT_READERS[reader](fw, extents)

    def test_a_fraction_is_no_load_coefficient(self):
        # the load table once read float extents as they stood: on this
        # network h + 0.5 gave center 0 a load of 69.5, where a state built
        # on the same extents truncated them and its table gave 11.0
        config = ScenarioConfig(seed=11, n=30, comm_range=40.0)
        fw, _ = sample_framework(np.random.default_rng(config.seed), config)
        h = build_control_state(fw, config.control).extents
        with pytest.raises(ValueError, match="whole hop counts"):
            communication_load(fw.graph, h + 0.5)
        # whole floats read as the intp array they hold, so the ball set,
        # the load table and the load are kept under the same bytes
        floats = h.astype(float)
        assert ball_set(fw.graph, floats, fw.dim) is ball_set(
            fw.graph, h, fw.dim)
        assert (communication_load(fw.graph, floats).tobytes()
                == communication_load(fw.graph, h).tobytes())

    def test_frozen_extents_are_read_only_and_the_callers_stay_writable(self):
        fw = braced_square_with_apex()
        mine = np.array([1, 2, 1, 2, 2], dtype=np.intp)
        state = build_control_state(fw, PARAMS, mine)
        world = make_world(fw, PARAMS, WorldConfig(use_estimates=False))
        # make_world shares its state's array, and a build on frozen
        # extents keeps them as they are
        assert world.extents is world.accepted.extents
        assert build_control_state(fw, PARAMS,
                                   state.extents).extents is state.extents
        own = World(framework=fw, params=PARAMS, config=world.config,
                    extents=mine, filters=world.filters, rng=world.rng)
        for frozen in (state.extents, world.extents, own.extents):
            assert frozen.dtype == np.intp and frozen.tolist() == [1, 2, 1,
                                                                   2, 2]
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 3
        assert mine.flags.writeable
        mine[0] = 3
        assert own.extents[0] == state.extents[0] == 1
