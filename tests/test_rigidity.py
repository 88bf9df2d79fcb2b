"""Rigidity matrix construction, eigenvalue/rank tests and the diameter bound."""

import ctypes
import itertools
import json
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit
from support import (
    FakeBlas,
    groupings,
    random_connected_graph,
    random_disk_framework,
    random_framework,
    random_graph,
    random_rigid_framework,
)

from rigidnet import _cores, rigidity
from rigidnet.experiments import ConfigError, ScenarioConfig, generate_scenario
from rigidnet.graphs import (
    Graph,
    GeodesicTable,
    disk_proximity_graph,
    is_biconnected,
    is_connected,
    laplacian_matrix,
)
from rigidnet.rigidity import (
    CoincidentNodesError,
    Framework,
    FrameworkTooSmallError,
    RankMismatchError,
    diameter_bound_certificate,
    diameter_eigenvalue_bound,
    flexible_by_count,
    framework_gram,
    framework_stack,
    is_infinitesimally_rigid,
    rigid_body_dim,
    rigidity_matrix,
    rigidity_report,
    rigidity_spectrum,
    stack_balls,
    symmetric_rigidity_matrix,
)
from rigidnet.subframeworks import extract_subframework


def triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    return Framework(g, x)


def square_cycle():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Framework(g, x)


def complete_framework(x):
    n = len(x)
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    return Framework(g, np.asarray(x, dtype=float))


class TestRigidityMatrix:
    def test_single_edge_row(self):
        fw = Framework(Graph(2, [(0, 1)]), [[0.0, 0.0], [1.0, 0.0]])
        R = rigidity_matrix(fw)
        assert R.shape == (1, 4)
        assert np.allclose(R, [[-1.0, 0.0, 1.0, 0.0]])

    def test_row_norms_are_sqrt2(self):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            fw = random_framework(rng, 8, d, p=0.5)
            R = rigidity_matrix(fw)
            if R.shape[0]:
                assert np.allclose(np.linalg.norm(R, axis=1), np.sqrt(2.0))

    def test_rejects_coincident_adjacent_nodes(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            Framework(g, [[1.0, 2.0], [1.0, 2.0]])

    def test_annihilates_trivial_motions(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            fw = random_framework(rng, 7, d, p=0.6)
            x = fw.positions
            # the d translations and a rotation in each coordinate plane
            motions = [np.tile(np.eye(d)[a], fw.n) for a in range(d)]
            for a, b in itertools.combinations(range(d), 2):
                v = np.zeros_like(x)
                v[:, a], v[:, b] = -x[:, b], x[:, a]
                motions.append(v.ravel())
            T = np.column_stack(motions)
            assert np.linalg.matrix_rank(T) == rigid_body_dim(d)
            assert np.allclose(rigidity_matrix(fw) @ T, 0.0, atol=1e-12)


class TestFrameworkGeometry:
    """A framework measures its edges once, when it is built."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_units_and_lengths_match_a_per_edge_loop(self, d):
        rng = np.random.default_rng(60 + d)
        for _ in range(10):
            fw = random_framework(rng, int(rng.integers(2, 12)), d, p=0.6)
            m = len(fw.graph.edges)
            assert fw.units.shape == (m, d) and fw.lengths.shape == (m,)
            for k, (i, j) in enumerate(fw.graph.edges):
                diff = fw.positions[i] - fw.positions[j]
                length = np.linalg.norm(diff)
                # a scalar norm may differ from a row norm in the last bit
                np.testing.assert_allclose(fw.lengths[k], length, rtol=1e-15)
                np.testing.assert_allclose(fw.units[k], diff / length,
                                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_edgeless_shapes(self, d):
        fw = Framework(Graph(d + 2, []), np.eye(d + 2, d))
        assert fw.units.shape == (0, d)
        assert fw.lengths.shape == (0,)
        assert rigidity_matrix(fw).shape == (0, d * (d + 2))

    def test_geometry_is_read_only(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        fw = Framework(Graph(3, [(0, 1), (1, 2)]), x)
        for name in ("positions", "units", "lengths"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(fw, name)[0] = 1.0
        # the framework keeps its own copy: writing to the caller's array
        # leaves its positions and edge geometry alone
        x[1] = [6.0, 8.0]
        assert fw.positions[1].tolist() == [3.0, 4.0]
        assert fw.lengths[0] == 5.0

    def test_coincident_edge_raises(self):
        x = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(CoincidentNodesError, match=r"edge \(1, 2\)"):
            Framework(Graph(4, [(0, 1), (1, 2), (2, 3)]), x)
        # coincident nodes that share no edge are allowed
        fw = Framework(Graph(4, [(0, 1), (1, 3), (2, 3)]), x)
        assert fw.lengths.min() == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_raises(self, bad):
        # an isolated node too: no edge length would show it
        x = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, bad]]
        with pytest.raises(ValueError, match="positions must be finite"):
            Framework(Graph(4, [(0, 1), (1, 2), (0, 2)]), x)

    def test_overflowing_edge_length_raises(self):
        # finite positions whose lengths overflow once read as a framework
        # with zero unit vectors, flexible, and warned about on the way
        x = [[0.0, 0.0], [1.0, 0.0], [0.0, 1e200]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"length of edge \(1, 2\) overflows"):
                Framework(Graph(3, [(0, 1), (1, 2)]), x)


class TestSymmetricMatrix:
    def test_single_edge_spectrum(self):
        fw = Framework(Graph(2, [(0, 1)]), [[0.0, 0.0], [1.0, 0.0]])
        S = symmetric_rigidity_matrix(rigidity_matrix(fw), np.ones(1))
        assert np.allclose(np.sort(np.linalg.eigvalsh(S)), [0.0, 0.0, 0.0, 2.0])

    def test_trace_is_twice_weight_sum(self):
        rng = np.random.default_rng(13)
        fw = random_framework(rng, 9, 2, p=0.5)
        R = rigidity_matrix(fw)
        w = rng.uniform(0.1, 2.0, size=R.shape[0])
        S = symmetric_rigidity_matrix(R, w)
        assert np.trace(S) == pytest.approx(2.0 * w.sum())

    def test_scaling_weights_scales_eigenvalues(self):
        fw = triangle()
        R = rigidity_matrix(fw)
        S1 = symmetric_rigidity_matrix(R, np.ones(3))
        S2 = symmetric_rigidity_matrix(R, 2.0 * np.ones(3))
        assert np.allclose(np.linalg.eigvalsh(S2), 2.0 * np.linalg.eigvalsh(S1))

    def test_rejects_nonpositive_weights(self):
        fw = triangle()
        R = rigidity_matrix(fw)
        with pytest.raises(ValueError):
            symmetric_rigidity_matrix(R, np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        R = rigidity_matrix(triangle())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^weights must be positive and finite$"):
                symmetric_rigidity_matrix(R, np.array([bad, 1.0, 1.0]))


def assert_matches_dense(S, reference):
    scale = np.abs(reference).max(initial=0.0)
    assert np.abs(S - reference).max(initial=0.0) <= 1e-13 * scale
    assert np.array_equal(S, S.T)


def dense_gram(R, w):
    """R^T W R over the edges whose weight did not underflow to zero."""
    keep = w > 0
    return symmetric_rigidity_matrix(R[keep], w[keep])


def underflowing_weights(lengths, rng):
    """Logistic weights steep enough that the longest edges weigh exactly 0."""
    cut = np.quantile(lengths, 0.7)
    w = expit(1e5 * (cut - lengths)) * rng.uniform(0.5, 1.0, len(lengths))
    assert (w == 0).any() and (w > 0).any()
    return w


def stacked_grams(inside, e, d, units, weights):
    return stack_balls(inside, e, d).grams(units, weights)


class TestBlockAssembly:
    """The block-assembled S against the dense R^T W R it replaces."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_whole_frameworks(self, d):
        rng = np.random.default_rng(70 + d)
        for _ in range(12):
            fw = random_framework(rng, int(rng.integers(d + 1, 12)), d, p=0.5)
            R = rigidity_matrix(fw)
            assert_matches_dense(framework_gram(fw), dense_gram(R, np.ones(len(R))))
            if len(R) > 1:
                w = underflowing_weights(fw.lengths, rng)
                [S] = framework_stack(fw).grams(fw.units, w)
                assert_matches_dense(S, dense_gram(R, w))

    @pytest.mark.parametrize("d", [2, 3])
    def test_stacked_index_mask_balls(self, d):
        rng = np.random.default_rng(80 + d)
        fw = random_disk_framework(rng, 16, side=1.0, range_=0.45 + 0.2 * (d - 2),
                                   dim=d)
        e = fw.graph.edge_array()
        dist = GeodesicTable.compute(fw.graph).dist
        units = fw.units
        w = underflowing_weights(fw.lengths, rng)
        centers = [(j, h) for j in range(fw.n) for h in (1, 2)]
        inside = np.array([dist[j] <= h for j, h in centers])
        for weights in (None, w):
            stacked = stacked_grams(inside, e, d, units, weights)
            for t, ((j, h), S) in enumerate(zip(centers, stacked)):
                # a ball's S has the same bits alone as in the stack
                [alone] = stacked_grams(inside[t:t + 1], e, d, units, weights)
                assert np.array_equal(S, alone)
                sub, _ = extract_subframework(fw, j, h)
                R = rigidity_matrix(sub)
                edge_idx = np.flatnonzero(inside[t, e[:, 0]] & inside[t, e[:, 1]])
                assert len(R) == len(edge_idx)
                bw = np.ones(len(R)) if weights is None else w[edge_idx]
                assert_matches_dense(S, dense_gram(R, bw))


def per_entry_grams(stack, units, weights):
    """Each ball's S by the per-entry formula that the gather replaced:
    every block entry forms its edge's outer product, weight product and
    sign product on its own, and one bincount over the whole stack sums
    them at the stack's index, moved from its group's flat array to the
    whole stack's."""
    r = units[stack.edge]
    blocks = r[:, None, :, None] * r[:, None, None, :]
    if weights is not None:
        blocks = weights[stack.edge][:, None, None, None] * blocks
    signed = blocks * np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
    sizes = stack.sides * stack.sides
    starts = np.cumsum(sizes) - sizes
    first, entry = stack.cuts.T
    base = np.repeat(starts[first[:-1]], np.diff(entry))
    flat = np.bincount(stack.index + base, signed.ravel(),
                       minlength=sizes.sum())
    return [flat[o:o + k * k].reshape(k, k)
            for o, k in zip(starts, stack.sides)]


class TestGatheredAssembly:
    """Every S gathered from the per-edge blocks has the bits of the
    per-entry formula, however the stack's balls are grouped."""

    @staticmethod
    def assert_same_bits(got, want):
        assert len(got) == len(want)
        for S, ref in zip(got, want):
            assert S.shape == ref.shape and S.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_balls_equal_the_per_entry_formula(self, d, monkeypatch):
        rng = np.random.default_rng(110 + d)
        for n, range_ in ((14, 0.5), (30, 0.35), (6, 0.05)):
            x = rng.uniform(size=(n, d))
            fw = Framework(disk_proximity_graph(x, range_), x)
            e = fw.graph.edge_array()
            dist = GeodesicTable.compute(fw.graph).dist
            # radius-0 balls are one node with no edge; a range of 0.05
            # leaves most balls of every radius edgeless
            inside = np.concatenate([dist <= h for h in (0, 1, 2)]
                                    + [dist <= rng.integers(0, 4, size=(n, 1))])
            w = (underflowing_weights(fw.lengths, rng) if fw.graph.m > 1
                 else rng.uniform(0.5, 1.0, fw.graph.m))
            want = {}
            for entries in groupings(monkeypatch):
                stack = stack_balls(inside, e, d)
                assert stack.index.dtype == np.int32
                assert not any(a.flags.writeable
                               for a in vars(stack).values())
                groups = len(stack.cuts) - 1
                if entries == 1:
                    assert groups >= len(np.unique(stack.ball))
                elif entries == 2**62:
                    assert groups == 1
                for weights in (None, w):
                    got = stack.grams(fw.units, weights)
                    self.assert_same_bits(
                        got, per_entry_grams(stack, fw.units, weights))
                    # every grouping gives the same bits
                    self.assert_same_bits(
                        got, want.setdefault(weights is None, got))

    @pytest.mark.parametrize("d", [2, 3])
    def test_whole_framework_equals_the_per_entry_formula(self, d,
                                                          monkeypatch):
        rng = np.random.default_rng(120 + d)
        for n, p in ((d + 2, 0.0), (9, 0.6), (25, 0.3)):
            fw = random_framework(rng, n, d, p)
            e = fw.graph.edge_array()
            for _ in groupings(monkeypatch):
                # a new graph keeps no stack yet
                fresh = Framework(Graph(n, e), fw.positions)
                stack = framework_stack(fresh)
                # the one ball of every node and every edge
                assert stack.nodes.tolist() == list(range(n))
                assert stack.offsets.tolist() == [0, n]
                assert stack.edge.tolist() == list(range(len(e)))
                assert np.array_equal(stack.ends, e)
                assert not stack.ball.any() and len(stack.cuts) == 2
                [want] = per_entry_grams(stack, fw.units, None)
                assert framework_gram(fresh).tobytes() == want.tobytes()

    @staticmethod
    def layout_by_loop(d, counts, ends, ball):
        """rigidity._stack's sides, index and cuts, one ball and one
        edge's entries at a time: a ball opens a new group when its block
        entries would take the open group past rigidity.GROUP_ENTRIES."""
        sides = [d * int(c) for c in counts]
        held = [4 * d * d * int((ball == t).sum()) for t in range(len(sides))]
        cuts, group, starts, start = [0], 0, [], 0
        for t, k in enumerate(held):
            if t > cuts[-1] and group + k > rigidity.GROUP_ENTRIES:
                cuts.append(t)
                group = start = 0
            group += k
            starts.append(start)
            start += sides[t] * sides[t]
        cuts.append(len(sides))
        index = []
        for k, (a, b) in enumerate(ends.tolist()):
            t = int(ball[k])
            for r, c in ((a, a), (b, b), (a, b), (b, a)):
                for p in range(d):
                    for q in range(d):
                        index.append(starts[t] + (d * r + p) * sides[t]
                                     + d * c + q)
        entries = [4 * d * d * int((ball < t).sum()) for t in cuts]
        return sides, index, [list(c) for c in zip(cuts, entries)]

    @pytest.mark.parametrize("d", [2, 3])
    # the layout holds positions within a group only, so an edge index
    # above 2^28 leaves it in int32
    @pytest.mark.parametrize("shift, dtype", [(0, np.int32),
                                              (2**28 + 5, np.int32)])
    def test_layout_equals_a_per_edge_loop(self, d, shift, dtype,
                                           monkeypatch):
        rng = np.random.default_rng(130 + d)
        x = rng.uniform(size=(14, d))
        fw = Framework(disk_proximity_graph(x, 0.5), x)
        dist = GeodesicTable.compute(fw.graph).dist
        inside = np.concatenate([dist <= h for h in (0, 1, 2)])
        stack = stack_balls(inside, fw.graph.edge_array(), d)
        edge = stack.edge + shift
        ends = stack.ends - stack.offsets[stack.ball][:, None]
        for _ in groupings(monkeypatch):
            got = rigidity._stack(d, stack.nodes, stack.offsets, edge,
                                  stack.ends, stack.ball)
            want = self.layout_by_loop(d, np.diff(stack.offsets), ends,
                                       stack.ball)
            assert got.index.dtype == dtype
            assert [got.sides.tolist(), got.index.tolist(),
                    got.cuts.tolist()] == list(want)

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_group_past_int32_lays_out_in_intp(self, d):
        # one ball of 23,171 nodes and one edge: its S alone spans more
        # than 2^31 - 1 flat entries, so the layout falls back to intp
        n = 23171
        ends = np.array([[0, n - 1]])
        ball = np.zeros(1, dtype=np.intp)
        got = rigidity._stack(d, np.arange(n), np.array([0, n]),
                              np.zeros(1, dtype=np.intp), ends, ball)
        assert got.index.dtype == np.intp
        assert [got.sides.tolist(), got.index.tolist(),
                got.cuts.tolist()] == list(self.layout_by_loop(
                    d, [n], ends, ball))


class TestOneUnweightedProduct:
    """rigidity_report and the simulator's whole-framework check solve the
    same block-assembled S."""

    def test_estimated_loop_framework(self):
        # the 120-robot framework that the estimated loop starts from
        side = 150.0 * np.sqrt(2.0)
        fw = generate_scenario(ScenarioConfig(seed=8, n=120, width=side,
                                              height=side, comm_range=40.0))
        S = framework_gram(fw)
        assert rigidity_report(fw).rho == rigidity_spectrum(S, fw.dim).rho

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_frameworks(self, d):
        rng = np.random.default_rng(90 + d)
        for _ in range(8):
            fw = random_rigid_framework(rng, int(rng.integers(d + 3, 12)), d)
            report = rigidity_report(fw)
            spectrum = rigidity_spectrum(framework_gram(fw), d)
            assert report.rho == spectrum.rho
            assert np.array_equal(report.eigenvalues, spectrum.eigenvalues)


class TestRigidityVerdicts:
    def test_triangle_rigid(self):
        assert is_infinitesimally_rigid(triangle())

    def test_square_cycle_flexes(self):
        assert not is_infinitesimally_rigid(square_cycle())

    def test_braced_square_rigid(self):
        fw = square_cycle()
        g = Graph(4, fw.graph.edges + [(0, 2)])
        assert is_infinitesimally_rigid(Framework(g, fw.positions))

    def test_collinear_triangle_flexes(self):
        fw = complete_framework([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert not is_infinitesimally_rigid(fw)

    def test_tetrahedron_rigid_in_3d(self):
        fw = complete_framework(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert is_infinitesimally_rigid(fw)

    def test_coplanar_complete_graph_flexes_in_3d(self):
        fw = complete_framework(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        )
        assert not is_infinitesimally_rigid(fw)

    def test_disconnected_not_rigid(self):
        g = Graph(4, [(0, 1), (2, 3)])
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert not is_infinitesimally_rigid(Framework(g, x))

    def test_too_few_nodes_rejected(self):
        fw = Framework(Graph(2, [(0, 1)]), [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(FrameworkTooSmallError):
            is_infinitesimally_rigid(fw)
        x3 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(FrameworkTooSmallError):
            is_infinitesimally_rigid(complete_framework(x3))

    def test_fast_path_agrees_with_cross_check(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            d = int(rng.choice([2, 3]))
            fw = random_framework(rng, int(rng.integers(d + 2, 12)), d, p=0.5)
            fast = (is_connected(fw.graph)
                    and rigidity_spectrum(framework_gram(fw), d,
                                          vectors=False).rigid)
            assert is_infinitesimally_rigid(fw) == fast

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("vectors", [True, False])
    def test_a_non_finite_s_is_named(self, bad, vectors):
        # LAPACK would report no convergence, which names the wrong fault
        S = framework_gram(triangle()).copy()
        S[1, 4] = S[4, 1] = bad
        with pytest.raises(ValueError, match="^S must be finite$"):
            rigidity_spectrum(S, 2, vectors=vectors)

    @pytest.mark.parametrize("dim, n, range_", [
        (2, 100, 17.5), (2, 100, 20.0), (3, 40, 40.0)])
    def test_cut_vertex_draws_are_flexible(self, dim, n, range_):
        # the structural rejection must never reject a framework that the
        # cross-checked report would accept
        rng = np.random.default_rng(int(10 * range_) + dim)
        cut = 0
        for _ in range(100):
            x = rng.uniform(0.0, 100.0, size=(n, dim))
            g = disk_proximity_graph(x, range_)
            if is_connected(g) and not is_biconnected(g):
                cut += 1
                fw = Framework(g, x)
                assert not rigidity_report(fw).rigid
                assert not is_infinitesimally_rigid(fw)
        assert cut >= 5


def whole(g):
    """The mask of one ball holding every node of g."""
    return np.ones((1, g.n), dtype=bool)


class TestCountingRule:
    LEAF = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    SQUARE = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])
    # two triangles sharing the edge (1, 2): its degree-2 nodes 0 and 3
    # are not adjacent
    KITE = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])

    def test_hand_built_balls(self):
        for g, flexible in ((self.LEAF, True), (self.SQUARE, True),
                            (self.TRIANGLE, False), (self.KITE, False),
                            (Graph(3, [(0, 1), (1, 2)]), True),
                            (Graph(2, [(0, 1)]), False)):
            assert flexible_by_count(g, whole(g), 2).tolist() == [flexible]
        # several balls of one graph at once, among them an empty and a
        # one-node ball; {0, 1, 3} holds node 0 with one induced edge
        inside = np.array([[1, 1, 1, 0], [1, 1, 1, 1], [0, 1, 1, 1],
                           [1, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 1]], bool)
        assert flexible_by_count(self.KITE, inside, 2).tolist() == [
            False, False, False, True, False, False]

    def test_no_ball_is_flagged_in_3d(self):
        rng = np.random.default_rng(51)
        for g in (self.LEAF, self.SQUARE, self.TRIANGLE, self.KITE,
                  Graph(5, [(i, i + 1) for i in range(4)])):
            assert flexible_by_count(g, whole(g), 3).tolist() == [False]
        g = random_graph(rng, 12, 0.3)
        inside = rng.random((40, 12)) < 0.6
        assert not flexible_by_count(g, inside, 3).any()

    def test_every_flagged_graph_on_five_nodes_is_flexible(self):
        # every labelled graph on 3, 4 and 5 nodes, each at generic
        # positions: the rule flags only graphs that the eigenvalue test
        # finds flexible
        rng = np.random.default_rng(52)
        flagged = 0
        for n in (3, 4, 5):
            pairs = list(itertools.combinations(range(n), 2))
            x = rng.uniform(-1, 1, size=(n, 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
                if flexible_by_count(g, whole(g), 2)[0]:
                    flagged += 1
                    S = framework_gram(Framework(g, x))
                    assert not rigidity_spectrum(S, 2, vectors=False).rigid
        assert flagged > 500

    def test_flagged_balls_of_random_graphs_are_flexible(self):
        # every hop-ball of random graphs, at every radius, through
        # extract_subframework: a flagged ball never passes the
        # rank-checked report, and the rule leaves rigid balls alone
        rng = np.random.default_rng(53)
        flagged = rigid = 0
        for _ in range(60):
            fw = random_framework(rng, int(rng.integers(4, 11)), 2,
                                  p=rng.uniform(0.2, 0.7))
            dist = GeodesicTable.compute(fw.graph).dist
            for h in range(1, fw.n):
                inside = dist <= h
                flags = flexible_by_count(fw.graph, inside, 2)
                for center, flag in enumerate(flags.tolist()):
                    sub, _ = extract_subframework(fw, center, h)
                    if sub.n <= 2:
                        assert not flag
                        continue
                    verdict = rigidity_report(sub, vectors=False).rigid
                    assert not (flag and verdict)
                    flagged += flag
                    rigid += verdict
        assert flagged > 100 and rigid > 100

    def test_flagged_frameworks_skip_the_report(self, monkeypatch):
        # a cycle of four nodes or more is biconnected, and its adjacent
        # degree-2 nodes make it flexible: no SVD-checked report runs for
        # it, while a triangle and the kite still take one each
        rng = np.random.default_rng(54)
        cycles = [Framework(Graph(n, [(i, (i + 1) % n) for i in range(n)]),
                            rng.uniform(-1, 1, size=(n, 2))) for n in (4, 5, 9)]
        assert not any(rigidity_report(fw).rigid for fw in cycles)
        calls = []
        monkeypatch.setattr(rigidity, "rigidity_report", lambda fw, **kw:
                            calls.append(fw) or rigidity_report(fw, **kw))
        assert not any(is_infinitesimally_rigid(fw) for fw in cycles)
        assert calls == []
        kite = Framework(self.KITE, [[0, 0], [1, 0], [0, 1], [1, 1]])
        assert is_infinitesimally_rigid(triangle())
        assert is_infinitesimally_rigid(kite)
        assert len(calls) == 2


class TestReport:
    def test_fields_consistent(self):
        fw = triangle()
        rep = rigidity_report(fw)
        assert rep.f == 3
        assert rep.rank_R == 3
        assert rep.rigid
        assert rep.rho == pytest.approx(rep.eigenvalues[3])
        assert rep.rho > 0

    def test_equilateral_triangle_spectrum(self):
        # symmetry makes the rigidity eigenvalue a double one: {0,0,0,3/2,3/2,3}
        rep = rigidity_report(triangle())
        assert np.allclose(rep.eigenvalues, [0.0, 0.0, 0.0, 1.5, 1.5, 3.0], atol=1e-9)
        assert rep.degenerate

    def test_scalene_triangle_not_degenerate(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        x = np.array([[0.0, 0.0], [1.3, 0.1], [0.4, 0.9]])
        rep = rigidity_report(Framework(g, x))
        assert rep.rigid
        assert not rep.degenerate

    def test_eigenpair_matches_report(self):
        fw = triangle()
        R = rigidity_matrix(fw)
        S = symmetric_rigidity_matrix(R, np.ones(3))
        spectrum = rigidity_spectrum(S, 2)
        rho, nu = spectrum.rho, spectrum.nu
        rep = rigidity_report(fw)
        assert rho == pytest.approx(rep.rho)
        assert np.allclose(S @ nu, rho * nu, atol=1e-9)
        assert np.linalg.norm(nu) == pytest.approx(1.0)

    def test_json_keys(self):
        rep = rigidity_report(triangle())
        payload = json.loads(rep.to_json())
        assert set(payload) == {
            "rank_R",
            "eigenvalues",
            "rho",
            "nu",
            "rigid",
            "f",
            "degenerate",
            "tol_abs",
        }
        assert payload["rigid"] is True

    def test_json_writes_null_nu_without_vectors(self):
        payload = json.loads(rigidity_report(triangle(),
                                             vectors=False).to_json())
        assert payload["nu"] is None and payload["rigid"] is True

    @pytest.mark.parametrize("dim, n, range_", [
        (2, 100, 17.5), (2, 100, 20.0), (3, 40, 40.0)])
    def test_eigenvalue_only_report_matches_full(self, dim, n, range_):
        # the sampler's report: same verdict and rank on biconnected draws,
        # rigid and flexible alike, with no eigenvector
        rng = np.random.default_rng(0)
        seen = {True: 0, False: 0}
        for _ in range(500):
            x = rng.uniform(0.0, 100.0, size=(n, dim))
            g = disk_proximity_graph(x, range_)
            if not is_biconnected(g):
                continue
            fw = Framework(g, x)
            full, light = rigidity_report(fw), rigidity_report(fw,
                                                               vectors=False)
            assert light.nu is None
            assert (light.rigid, light.rank_R) == (full.rigid, full.rank_R)
            assert np.allclose(light.eigenvalues, full.eigenvalues,
                               rtol=0.0, atol=1e-9 * full.eigenvalues[-1])
            seen[full.rigid] += 1
            if min(seen.values()) >= 3:
                break
        assert min(seen.values()) >= 3

    def test_sampler_verdict_is_still_rank_checked(self, monkeypatch):
        # an SVD that finds no rank contradicts the positive eigenvalue
        monkeypatch.setattr(rigidity.sla, "svdvals",
                            lambda R, **kwargs: np.zeros(min(R.shape)))
        with pytest.raises(RankMismatchError):
            is_infinitesimally_rigid(triangle())

    def test_rank_drop_for_flexible_framework(self):
        rep = rigidity_report(square_cycle())
        assert not rep.rigid
        assert rep.rank_R < 2 * 4 - 3
        assert rep.rho == pytest.approx(0.0, abs=1e-9)


class TestDiameterBound:
    def test_bound_formula(self):
        assert diameter_eigenvalue_bound(10, 2) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            diameter_eigenvalue_bound(3, 0)

    def test_certificate_sits_between_fiedler_and_bound(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 14)), 0.35)
            table = GeodesicTable.compute(g)
            quotient = diameter_bound_certificate(g)
            lam2 = np.linalg.eigvalsh(laplacian_matrix(g))[1]
            bound = diameter_eigenvalue_bound(g.m, table.diameter())
            assert lam2 <= quotient + 1e-9
            assert quotient <= bound + 1e-9

    def test_certificate_rejects_a_single_node(self):
        # D = 0 would divide 0 by 0
        with pytest.raises(ConfigError,
                           match=r"^D must be at least 1, got 0$"):
            diameter_bound_certificate(Graph(1, []))

    def test_certificate_rejects_a_graph_with_no_node(self):
        with pytest.raises(ValueError, match="graph with no node"):
            diameter_bound_certificate(Graph(0, []))

    def test_rho_below_bound_random_planar_frameworks(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(4, 12)), 0.4)
            fw = Framework(g, rng.uniform(-5, 5, size=(g.n, 2)))
            rep = rigidity_report(fw)
            D = GeodesicTable.compute(g).diameter()
            assert rep.rho <= diameter_eigenvalue_bound(g.m, D) + 1e-9


class TestOneBlasThread:
    def fake(self, monkeypatch, *threads):
        libs = [FakeBlas(t) for t in threads]
        monkeypatch.setattr(_cores, "_openblas_thread_counts",
                            lambda: tuple((b.get, b.set) for b in libs))
        return libs

    def test_restores_each_library_after_a_normal_exit(self, monkeypatch):
        libs = self.fake(monkeypatch, 2, 3)
        with _cores.one_blas_thread():
            assert [b.threads for b in libs] == [1, 1]
        assert [b.threads for b in libs] == [2, 3]

    def test_restores_after_an_exception(self, monkeypatch):
        libs = self.fake(monkeypatch, 2, 3)
        with pytest.raises(ZeroDivisionError):
            with _cores.one_blas_thread():
                1 / 0
        assert [b.threads for b in libs] == [2, 3]

    def test_nested_blocks_restore_in_turn(self, monkeypatch):
        libs = self.fake(monkeypatch, 2, 3)
        with _cores.one_blas_thread():
            with _cores.one_blas_thread():
                assert [b.threads for b in libs] == [1, 1]
            assert [b.threads for b in libs] == [1, 1]
        assert [b.threads for b in libs] == [2, 3]
        # one object entered twice keeps what each entry found
        block = _cores.one_blas_thread()
        with block:
            with block:
                pass
            assert [b.threads for b in libs] == [1, 1]
        assert [b.threads for b in libs] == [2, 3]

    def test_a_decorated_call_runs_on_one_thread(self, monkeypatch):
        [lib] = self.fake(monkeypatch, 2)
        seen = []
        svdvals = rigidity.sla.svdvals

        def recorded(R, **kwargs):
            seen.append(lib.threads)
            return svdvals(R, **kwargs)

        monkeypatch.setattr(rigidity.sla, "svdvals", recorded)
        assert rigidity_report(triangle()).rigid
        assert seen == [1] and lib.threads == 2

    def test_no_openblas_is_a_no_op(self, monkeypatch):
        real = _cores._openblas_thread_counts()
        before = [get() for get, _ in real]
        monkeypatch.setattr(_cores, "_openblas_thread_counts", lambda: ())
        try:
            for _, set_ in real:
                set_(2)
            with _cores.one_blas_thread():
                assert [get() for get, _ in real] == [2] * len(real)
            assert rigidity_report(triangle()).rigid
        finally:
            for (_, set_), n in zip(real, before):
                set_(n)

    def test_the_loaded_libraries_get_their_counts_back(self):
        libs = _cores._openblas_thread_counts()
        if not libs:
            pytest.skip("no OpenBLAS is loaded")
        before = [get() for get, _ in libs]
        # distinct counts, so that a swapped restore shows
        wanted = [2 - k % 2 for k in range(len(libs))]
        try:
            for (_, set_), n in zip(libs, wanted):
                set_(n)
            with _cores.one_blas_thread():
                assert [get() for get, _ in libs] == [1] * len(libs)
            assert [get() for get, _ in libs] == wanted
        finally:
            for (_, set_), n in zip(libs, before):
                set_(n)


def gil_free_eigvalsh():
    """The GIL-free kernel, or a skip where the process has none."""
    kernel = _cores._gil_free_eigvalsh()
    if kernel is None:
        pytest.skip("numpy's OpenBLAS is not loaded, so there is no "
                    "GIL-free eigvalsh")
    return kernel


def kernel_matrices():
    """Symmetric matrices of sides 4 to 640, on both sides of the 500 under
    which numpy's eigvalsh keeps the GIL: the S of random frameworks in the
    plane and in space, the weighted S of hop-balls, and random ones."""
    rng = np.random.default_rng(28)
    for n, d in [(3, 2), (12, 2), (60, 2), (260, 2), (5, 3), (40, 3),
                 (170, 3)]:
        yield framework_gram(random_framework(rng, n, d))
    fw = random_disk_framework(rng, 60, side=100.0, range_=30.0)
    e = fw.graph.edge_array()
    inside = GeodesicTable.compute(fw.graph).dist <= 2
    weights = expit(0.5 * (30.0 - fw.lengths))
    yield from stack_balls(inside, e, 2).grams(fw.units, weights)
    for side in (4, 7, 33, 128, 499, 501, 640):
        a = rng.normal(size=(side, side))
        yield a + a.T


class TestGilFreeEigvalsh:
    """_cores._gil_free_eigvalsh calls the LAPACK behind numpy's eigvalsh
    without the GIL, and gives its bits."""

    def test_equals_numpy_bit_for_bit(self):
        kernel = gil_free_eigvalsh()
        sides = set()
        with _cores.one_blas_thread():
            for S in kernel_matrices():
                sides.add(len(S))
                assert (kernel(S).tobytes()
                        == np.linalg.eigvalsh(S).tobytes()), len(S)
        assert min(sides) == 4 and max(sides) > 500

    def test_two_threads_at_once_give_the_same_bits(self):
        kernel = gil_free_eigvalsh()
        matrices = list(kernel_matrices())
        with _cores.one_blas_thread():
            want = [np.linalg.eigvalsh(S).tobytes() for S in matrices]
            with ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(lambda S: kernel(S).tobytes(), matrices))
        assert got == want

    def test_a_failed_solve_is_a_lin_alg_error(self):
        def dsyevd(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork,
                   info):
            # the query asks for the smallest workspace; the solve fails
            if ctypes.c_int64.from_address(lwork).value == -1:
                ctypes.c_double.from_address(work).value = 9.0
                ctypes.c_int64.from_address(iwork).value = 1
            else:
                ctypes.c_int64.from_address(info).value = 2

        with pytest.raises(np.linalg.LinAlgError):
            _cores._eigvalsh_by(dsyevd)(np.eye(4))

    def test_a_matrix_that_is_not_square_is_refused(self):
        kernel = gil_free_eigvalsh()
        for bad in (np.ones((4, 3)), np.ones(4), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="square"):
                kernel(bad)

    def test_only_numpys_openblas_serves(self, monkeypatch):
        loaded = _cores._loaded_openblas()
        probe = _cores._gil_free_eigvalsh.__wrapped__
        # scipy's OpenBLAS gives other bits
        others = tuple((path, lib) for path, lib in loaded
                       if "numpy.libs" not in path)
        monkeypatch.setattr(_cores, "_loaded_openblas", lambda: others)
        assert probe() is None
        monkeypatch.setattr(_cores, "_loaded_openblas", lambda: ())
        assert probe() is None

    def test_importing_rigidnet_runs_no_probe(self):
        # the memory map is read on the first solve that needs it, so a
        # cold import stays as cheap as it was
        src = Path(rigidity.__file__).resolve().parents[1]
        code = ("import sys; import rigidnet; "
                "sys.exit(rigidnet._cores._loaded_openblas.cache_info()"
                ".currsize)")
        result = subprocess.run([sys.executable, "-c", code],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                timeout=60)
        assert result.returncode == 0

    def test_without_the_kernel_numpy_gives_the_same_bits(self, monkeypatch):
        kernel = gil_free_eigvalsh()
        fw = random_rigid_framework(np.random.default_rng(3), 30, 2)
        S = framework_gram(fw)
        want = rigidity._spectrum(rigidity._verdicts(
            [rigidity._solve(S, 2, False, kernel)], 2), 0)
        monkeypatch.setattr(_cores, "_loaded_openblas", lambda: ())
        assert _cores._gil_free_eigvalsh.__wrapped__() is None
        got = rigidity_spectrum(S, 2, vectors=False)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert (got.rho, got.rigid) == (want.rho, want.rigid)
