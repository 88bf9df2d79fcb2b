"""Ball stacks, extent search, inclusion groups and the communication-load accounting."""

from dataclasses import dataclass

import numpy as np
import pytest
from support import floyd_warshall, hop_ball, random_disk_framework, random_graph

from rigidnet.graphs import GeodesicTable, Graph
from rigidnet.rigidity import Framework, is_infinitesimally_rigid
from rigidnet.subframeworks import (
    ball_set,
    communication_load,
    extent_assignment,
    extract_subframework,
    inclusion_group,
    stack_balls,
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


def assert_stacks_equal(g, inside):
    e = g.edge_array()
    balls = [Ball.of(e, g.n, np.flatnonzero(row)) for row in inside]
    expected = reference_stack(balls, e)
    stack = stack_balls(inside, e)
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
                assert_stacks_equal(fw.graph, dist <= h)
            mixed = rng.integers(0, 4, size=fw.n)
            assert_stacks_equal(fw.graph, dist <= mixed[:, None])
            # a subset of the centers, out of order, one of them twice
            rows = rng.permutation(fw.n)[:4].tolist() + [0]
            assert_stacks_equal(fw.graph, dist[rows] <= 2)

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
        stack = stack_balls(dist <= 3, g.edge_array())
        assert stack.nodes.tolist() == list(range(5))
        assert stack.ends.shape == (0, 2)

    def test_single_node_ball(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        inside = np.zeros((1, 4), dtype=bool)
        inside[0, 2] = True
        assert_stacks_equal(g, inside)
        stack = stack_balls(inside, g.edge_array())
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
