"""Graph container, geodesic table, diameter and disk-proximity construction."""

import numpy as np
import pytest
from support import (
    biconnected_by_deletion,
    floyd_warshall,
    random_graph,
    reference_graph_layout,
)

from rigidnet.graphs import (
    UNREACHABLE,
    GeodesicTable,
    Graph,
    GraphDisconnectedError,
    diameter,
    disk_proximity_graph,
    induced_subgraph,
    is_biconnected,
    is_connected,
    laplacian_matrix,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


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

    def test_rejects_negative_node_count(self):
        with pytest.raises(ValueError, match="n must be non-negative, got -1"):
            Graph(-1, [])

    def test_degree_sum_is_twice_edge_count(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 15)), 0.4)
            assert g.degrees().sum() == 2 * g.m

    def test_neighbors_sorted(self):
        g = Graph(5, [(0, 4), (0, 2), (0, 1)])
        assert list(g.neighbors(0)) == [1, 2, 4]
        assert list(g.neighbors(3)) == []

    @pytest.mark.parametrize("make", [
        lambda rng: disk_proximity_graph(rng.uniform(0, 10, (14, 2)), 4.0),
        lambda rng: disk_proximity_graph(rng.uniform(0, 10, (14, 3)), 5.0),
        lambda rng: Graph(5, []),
        lambda rng: Graph(6, [(0, 3), (3, 5), (0, 5)]),  # 1, 2 and 4 isolated
        lambda rng: Graph(0, []),
        lambda rng: Graph(1, []),
    ], ids=["disk-2d", "disk-3d", "edgeless", "isolated", "n0", "n1"])
    def test_slot_layout_matches_a_per_edge_loop(self, make):
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = make(rng)
            owned = [[] for _ in range(g.n)]
            for k, (i, j) in enumerate(g.edges):
                owned[i].append((j, k))
                owned[j].append((i, k))
            owned = [sorted(slots) for slots in owned]
            assert g.slots.tolist() == np.cumsum(
                [0] + [len(o) for o in owned]).tolist()
            assert g.degrees().tolist() == [len(o) for o in owned]
            for i in range(g.n):
                own = slice(g.slots[i], g.slots[i + 1])
                assert g.neighbors(i).tolist() == [j for j, _ in owned[i]]
                assert g.slot_node[own].tolist() == [j for j, _ in owned[i]]
                assert g.slot_edge[own].tolist() == [k for _, k in owned[i]]
            dense = np.zeros((g.n, g.n))
            for i, j in g.edges:
                dense[i, j] = dense[j, i] = 1.0
            assert np.array_equal(g.adjacency_sparse().toarray(), dense)
            for a in (g.slots, g.slot_node, g.slot_edge):
                assert a.dtype == np.intp and not a.flags.writeable
            # the degree groups hold every node once, by ascending degree,
            # each beside its own slots
            groups = g.degree_groups()
            assert sorted(i for nodes, _ in groups
                          for i in nodes.tolist()) == list(range(g.n))
            assert ([len(owned[nodes[0]]) for nodes, _ in groups]
                    == sorted({len(o) for o in owned}))
            for nodes, own in groups:
                for i, row in zip(nodes.tolist(), own.tolist()):
                    assert row == list(range(g.slots[i], g.slots[i + 1]))

    def test_edge_array_is_read_only_and_shaped(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 2)])
        e = g.edge_array()
        assert e.tolist() == [[0, 1], [0, 2], [2, 3]] and e.dtype == np.intp
        assert e is g.edge_array() and not e.flags.writeable
        empty = Graph(3, []).edge_array()
        assert empty.shape == (0, 2) and empty.dtype == np.intp


def _assert_layout_as_reference(g, n, edges):
    ref = reference_graph_layout(n, edges)
    assert g.n == n and g.m == len(ref.edges)
    assert g.edges == ref.edges
    assert g.edge_array().tolist() == [list(e) for e in ref.edges]
    assert g.slots.tolist() == ref.slots
    assert g.slot_node.tolist() == ref.slot_node
    assert g.slot_edge.tolist() == ref.slot_edge
    for a in (g.edge_array(), g.slots, g.slot_node, g.slot_edge):
        assert a.dtype == np.intp and not a.flags.writeable


class TestEdgeArrayConstruction:
    """The constructor validates and sorts its edge array in numpy; a loop
    over the edges (support.reference_graph_layout) is the reference."""

    @pytest.mark.parametrize("form", [
        lambda e: [tuple(p) for p in e],
        lambda e: [list(p) for p in e],
        lambda e: np.array(e, dtype=np.int64).reshape(-1, 2),
        lambda e: np.array(e, dtype=np.int32).reshape(-1, 2),
    ], ids=["tuples", "lists", "int64-array", "int32-array"])
    def test_shuffled_and_reversed_edges_match_a_loop(self, form):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(0, 25))
            g = random_graph(rng, n, float(rng.uniform(0.0, 0.6)))
            edges = [(j, i) if rng.random() < 0.5 else (i, j)
                     for i, j in g.edges]
            edges = [edges[k] for k in rng.permutation(len(edges))]
            _assert_layout_as_reference(Graph(n, form(edges)), n, edges)

    @pytest.mark.parametrize("edges", [
        [], (), np.empty((0, 2), dtype=np.intp), np.empty((0, 2), dtype=int)])
    def test_empty_edge_lists(self, edges):
        g = Graph(4, edges)
        _assert_layout_as_reference(g, 4, [])
        assert g.edge_array().shape == (0, 2)

    def test_set_and_generator_inputs(self):
        edges = [(2, 0), (1, 2), (3, 1)]
        for given in (set(edges), (e for e in edges)):
            _assert_layout_as_reference(Graph(4, given), 4, edges)

    @pytest.mark.parametrize("n, edges", [
        (3, [(1, 1)]),
        (3, [(0, 3)]),
        (3, [(-1, 2)]),
        (3, [(0, 1), (1, 0)]),
        (3, [(0, 1), (0, 1)]),
        (4, [(0, 1), (1, 2), (2, 1), (3, 3)]),
        (4, [(0, 1), (3, 3), (1, 0)]),
        (4, [(0, 9), (1, 1)]),
        (4, [(0, 1), (2, 3), (3, 2), (1, 0)]),
        (3, np.array([[2, 2], [0, 1]])),
    ], ids=["self-loop", "too-high", "negative", "reversed-duplicate",
            "duplicate", "duplicate-first", "self-loop-first", "range-first",
            "earliest-repeat", "array"])
    def test_errors_name_the_first_bad_edge_as_the_loop_does(self, n, edges):
        with pytest.raises(ValueError) as want:
            reference_graph_layout(n, edges)
        with pytest.raises(ValueError) as got:
            Graph(n, edges)
        assert str(got.value) == str(want.value)

    def test_random_bad_edge_lists_fail_as_the_loop_does(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            edges = rng.integers(-1, n + 1, size=(int(rng.integers(1, 10)),
                                                  2)).tolist()
            try:
                ref = reference_graph_layout(n, edges)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    Graph(n, edges)
                assert str(got.value) == str(exc)
            else:
                assert Graph(n, edges).edges == ref.edges

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1, 2), (1, 2, 0)], "edges must be pairs of node ids, "
                                 "got shape (2, 3)"),
        ([0, 1, 1, 2], "edges must be pairs of node ids, got shape (4,)"),
        ([[0, 1.5], [1, 2]], "node ids must be integers, got dtype float64"),
        ([[0, 1.0], [1, 2]], "node ids must be integers, got dtype float64"),
        ([[True, False]], "node ids must be integers, got dtype bool"),
        ([[0, "1"]], "node ids must be integers, got dtype "
                     f"{np.asarray([[0, '1']]).dtype}"),
    ], ids=["three-wide", "flat", "fractional", "float", "bool", "string"])
    def test_rejects_what_is_not_integer_pairs(self, edges, message):
        with pytest.raises(ValueError) as exc:
            Graph(3, edges)
        assert str(exc.value) == message

    def test_edges_list_is_kept_and_not_settable(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert g.edges is g.edges
        with pytest.raises(AttributeError):
            g.edges = []

    def test_equality_compares_node_count_and_edge_arrays(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert g == Graph(4, np.array([[0, 1], [2, 3]]))
        assert g != Graph(5, [(0, 1), (2, 3)])
        assert g != Graph(4, [(0, 1), (1, 3)])
        assert Graph(2, []) == Graph(2, ())


class TestGeodesicTable:
    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(1, 16)), 0.3)
            table = GeodesicTable.compute(g)
            assert np.array_equal(table.dist, floyd_warshall(g))

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_edgeless_graph_reaches_only_itself(self, n):
        dist = GeodesicTable.compute(Graph(n, [])).dist
        assert dist.shape == (n, n) and dist.dtype == float
        assert np.array_equal(dist, np.where(np.eye(n, dtype=bool), 0.0,
                                             UNREACHABLE))

    def test_cycle6_diameter(self):
        table = GeodesicTable.compute(cycle(6))
        assert table.diameter() == 3
        assert diameter(cycle(6)) == 3

    def test_eccentricity_consistency(self):
        g = path(5)
        table = GeodesicTable.compute(g)
        assert table.eccentricities().tolist() == [4, 3, 2, 3, 4]

    def test_diameter_raises_when_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphDisconnectedError):
            GeodesicTable.compute(g).diameter()


class TestConnectivity:
    def test_connected_cases(self):
        assert is_connected(path(4))
        assert not is_connected(Graph(3, [(0, 1)]))
        assert is_connected(Graph(1, []))
        assert is_connected(Graph(0, []))
        assert not is_connected(Graph(2, []))

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


class TestBiconnectivity:
    @pytest.mark.parametrize("g, expected", [
        (cycle(3), True),
        (path(4), False),
        (cycle(6), True),
        (Graph(5, [(0, k) for k in range(1, 5)]), False),
        # two triangles sharing node 2
        (Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]), False),
        (Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]), False),
        (Graph(1, []), True),
        (Graph(2, [(0, 1)]), True),
        (Graph(2, []), False),
    ], ids=["triangle", "path", "cycle", "star", "two-triangles-one-node",
            "disconnected", "n1", "n2-edge", "n2-no-edge"])
    def test_named_cases(self, g, expected):
        assert is_biconnected(g) == expected
        assert biconnected_by_deletion(g) == expected

    def test_matches_deletion_on_random_graphs(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(300):
            g = random_graph(rng, int(rng.integers(0, 14)), rng.uniform(0.1, 0.8))
            verdict = is_biconnected(g)
            assert verdict == biconnected_by_deletion(g)
            seen.add((verdict, is_connected(g)))
        assert seen == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_deletion_on_disk_graphs(self, dim):
        rng = np.random.default_rng(32 + dim)
        verdicts = []
        for _ in range(40):
            x = rng.uniform(0.0, 100.0, size=(int(rng.integers(3, 40)), dim))
            g = disk_proximity_graph(x, rng.uniform(25.0, 60.0))
            verdicts.append(is_biconnected(g))
            assert verdicts[-1] == biconnected_by_deletion(g)
        assert any(verdicts) and not all(verdicts)


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


def test_induced_subgraph_keeps_the_edges_inside():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_graph(rng, 12, 0.4)
        nodes = sorted(rng.choice(12, size=int(rng.integers(0, 13)),
                                  replace=False).tolist())
        sub, kept = induced_subgraph(g, nodes[::-1])
        assert kept == nodes and sub.n == len(nodes)
        assert sub.edges == [(nodes.index(i), nodes.index(j))
                             for i, j in g.edges
                             if i in nodes and j in nodes]
