"""Graph container, BFS distances, diameter and disk-proximity construction."""

import json

import numpy as np
import pytest
from support import floyd_warshall, random_graph

from rigidnet.graphs import (
    UNREACHABLE,
    GeodesicTable,
    Graph,
    GraphDisconnectedError,
    bfs_distances,
    diameter,
    disk_proximity_graph,
    eccentricity,
    is_connected,
    laplacian_matrix,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestGraph:
    def test_edges_are_canonical_and_sorted(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 2)])
        assert g.edges == [(0, 1), (0, 2), (2, 3)]
        assert g.m == 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_degree_sum_is_twice_edge_count(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 15)), 0.4)
            assert g.degrees().sum() == 2 * g.m

    def test_neighbors_sorted(self):
        g = Graph(5, [(0, 4), (0, 2), (0, 1)])
        assert list(g.neighbors(0)) == [1, 2, 4]
        assert list(g.neighbors(3)) == []

    def test_edge_array_is_read_only_and_shaped(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 2)])
        e = g.edge_array()
        assert e.tolist() == [[0, 1], [0, 2], [2, 3]] and e.dtype == np.intp
        assert e is g.edge_array() and not e.flags.writeable
        empty = Graph(3, []).edge_array()
        assert empty.shape == (0, 2) and empty.dtype == np.intp

    def test_json_round_trip(self):
        g = Graph(5, [(0, 1), (2, 4), (1, 3)])
        payload = json.loads(g.to_json())
        assert payload["n"] == 5
        assert Graph.from_json(g.to_json()) == g


class TestBfs:
    def test_path_from_end(self):
        assert bfs_distances(path(3), 0).tolist() == [0, 1, 2]

    def test_complete_graph(self):
        assert bfs_distances(complete(4), 2).tolist() == [1, 1, 0, 1]

    def test_disconnected_marks_unreachable(self):
        g = Graph(4, [(0, 1)])
        h = bfs_distances(g, 0)
        assert h[1] == 1
        assert h[2] == UNREACHABLE and h[3] == UNREACHABLE

    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 16)), 0.3)
            ref = floyd_warshall(g)
            for s in range(g.n):
                assert np.array_equal(bfs_distances(g, s), ref[s])


class TestGeodesicTable:
    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(1, 16)), 0.3)
            table = GeodesicTable.compute(g)
            assert np.array_equal(table.dist, floyd_warshall(g))

    def test_cycle6_diameter(self):
        table = GeodesicTable.compute(cycle(6))
        assert table.diameter() == 3
        assert diameter(cycle(6)) == 3

    def test_eccentricity_consistency(self):
        g = path(5)
        table = GeodesicTable.compute(g)
        assert table.eccentricities().tolist() == [4, 3, 2, 3, 4]
        assert eccentricity(g, 1) == 3

    def test_diameter_raises_when_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphDisconnectedError):
            GeodesicTable.compute(g).diameter()

    def test_ball_on_cycle(self):
        table = GeodesicTable.compute(cycle(6))
        assert table.ball(0, 0) == [0]
        assert table.ball(0, 1) == [0, 1, 5]
        assert table.ball(0, 2) == [0, 1, 2, 4, 5]
        assert table.ball(0, 3) == [0, 1, 2, 3, 4, 5]

    def test_ball_excludes_unreachable(self):
        g = Graph(4, [(0, 1)])
        assert GeodesicTable.compute(g).ball(0, 5) == [0, 1]


class TestConnectivity:
    def test_connected_cases(self):
        assert is_connected(path(4))
        assert not is_connected(Graph(3, [(0, 1)]))
        assert is_connected(Graph(1, []))

    def test_laplacian_row_sums_vanish(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 10, 0.4)
        L = laplacian_matrix(g)
        assert np.allclose(L.sum(axis=1), 0.0)
        assert np.allclose(L, L.T)

    def test_fiedler_value_positive_iff_connected(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 12)), 0.3)
            lam2 = np.linalg.eigvalsh(laplacian_matrix(g))[1]
            assert (lam2 > 1e-9) == is_connected(g)


class TestDiskProximity:
    def test_strictly_below_range(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        g = disk_proximity_graph(x, 1.0)
        assert g.edges == []
        g = disk_proximity_graph(x, 1.5)
        assert g.edges == [(0, 1)]

    def test_matches_pairwise_check(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            x = rng.uniform(0, 10, size=(n, 2))
            r = float(rng.uniform(1, 8))
            g = disk_proximity_graph(x, r)
            expected = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if np.linalg.norm(x[i] - x[j]) < r
            ]
            assert g.edges == expected
