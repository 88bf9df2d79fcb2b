"""Graph container, geodesic table, diameter and disk-proximity construction."""

import collections
import dataclasses
import gc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from support import (
    FakeBlas,
    biconnected_by_deletion,
    floyd_warshall,
    log_arrays,
    random_graph,
    reference_graph_layout,
)

from rigidnet import _cores, control, graphs
from rigidnet.experiments import reference_control_config, sample_framework
from rigidnet.graphs import (
    UNREACHABLE,
    GeodesicTable,
    Graph,
    GraphDisconnectedError,
    diameter,
    disk_proximity_graph,
    edited,
    geodesics,
    induced_subgraph,
    is_biconnected,
    is_connected,
    laplacian_matrix,
    proximity,
    separations,
)
from rigidnet.simnet import make_world, run_exchange_phase, step_simulation
from rigidnet.subframeworks import ball_set


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
            adjacency = g.adjacency()
            assert np.array_equal(adjacency, dense)
            # one float32 matrix, kept on the graph and read-only
            assert adjacency.dtype == np.float32
            assert not adjacency.flags.writeable
            assert g.adjacency() is adjacency
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
    """The constructor validates and sorts its edge array in numpy, or
    only checks one already in canonical form; a loop over the edges
    (support.reference_graph_layout) is the reference."""

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

    @pytest.mark.parametrize("dtype", [np.int32, np.intp])
    def test_canonical_arrays_match_a_loop_and_stay_the_callers(self, dtype):
        # an array already in canonical form skips the sort; the graph
        # keeps a read-only copy and leaves the given array as it was
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(0, 25))
            g = random_graph(rng, n, float(rng.uniform(0.0, 0.6)))
            given = g.edge_array().astype(dtype)
            built = Graph(n, given)
            _assert_layout_as_reference(built, n, g.edges)
            assert given.flags.writeable
            assert not np.shares_memory(built.edge_array(), given)

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
        # ascending rows, but not canonical
        (3, np.array([[0, 1], [0, 1]])),
        (3, np.array([[0, 1], [1, 3]])),
    ], ids=["self-loop", "too-high", "negative", "reversed-duplicate",
            "duplicate", "duplicate-first", "self-loop-first", "range-first",
            "earliest-repeat", "array", "sorted-duplicate", "sorted-too-high"])
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


def adjacency_lists(g):
    """Each node's neighbors, by a loop over the edge list."""
    nbrs = [[] for _ in range(g.n)]
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return nbrs


def bfs_table(g):
    """All-pairs hop counts by one plain breadth-first search per node,
    UNREACHABLE where the search never arrives."""
    nbrs = adjacency_lists(g)
    dist = np.full((g.n, g.n), UNREACHABLE)
    for s in range(g.n):
        dist[s, s] = 0.0
        queue = collections.deque([s])
        while queue:
            v = queue.popleft()
            for w in nbrs[v]:
                if dist[s, w] == UNREACHABLE:
                    dist[s, w] = dist[s, v] + 1.0
                    queue.append(w)
    return dist


def drawn_graphs(dim):
    """Disk graphs in the unit square or cube: none to many nodes, and
    ranges from edgeless through disconnected to well connected."""
    rng = np.random.default_rng(40 + dim)
    for n in (0, 1, 2, 3, 7, 20, 45, 130):
        for range_ in (0.01, 0.2, 0.35, 0.6):
            yield disk_proximity_graph(rng.uniform(size=(n, dim)), range_)


class TestHopTableByBreadthFirstSearch:
    """GeodesicTable.compute, the frontier products, against a plain
    breadth-first search from each node, and the slot-layout connectivity
    test and Laplacian against their definitions."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_a_plain_search_on_drawn_graphs(self, dim):
        kinds = set()
        for g in drawn_graphs(dim):
            want = bfs_table(g)
            got = GeodesicTable.compute(g).dist
            assert got.dtype == np.float64 and got.shape == (g.n, g.n)
            assert got.tobytes() == want.tobytes()
            kinds.add((g.n <= 1, g.m == 0, bool(np.isinf(want).any())))
        # one node or none, edgeless graphs, disconnected and connected ones
        assert {(True, True, False), (False, True, True),
                (False, False, True), (False, False, False)} <= kinds

    @pytest.mark.parametrize("dim", [2, 3])
    def test_connectivity_and_laplacian_by_definition(self, dim):
        for g in drawn_graphs(dim):
            assert is_connected(g) == bool(np.isfinite(bfs_table(g)).all())
            L = np.zeros((g.n, g.n))
            for i, nbrs in enumerate(adjacency_lists(g)):
                L[i, i] = len(nbrs)
                L[i, nbrs] = -1.0
            assert laplacian_matrix(g).tobytes() == L.tobytes()

    def test_products_run_on_one_blas_thread(self, monkeypatch):
        # the frontier products enter the BLAS pin and give the count back
        blas = FakeBlas(2)
        seen = []

        def set_(n):
            seen.append(n)
            blas.set(n)

        monkeypatch.setattr(_cores, "_openblas_thread_counts",
                            lambda: ((blas.get, set_),))
        g = cycle(9)
        assert GeodesicTable.compute(g).dist.tobytes() == bfs_table(
            g).tobytes()
        assert seen == [1, 2] and blas.threads == 2


def edit_sequence(rng, n, kind):
    """Edge arrays of n nodes, each a few edits from the one before it:
    additions, deletions, both, or deletions down to an edgeless graph."""
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    on = rng.random(len(pairs)) < min(1.0, 4.0 / n)
    if kind == "disconnect":
        on = rng.random(len(pairs)) < min(1.0, 3.0 / n)
    for _ in range(12):
        k = int(rng.integers(1, 5))
        if kind == "add":
            flip = rng.choice(np.flatnonzero(~on), min(k, (~on).sum()),
                              replace=False)
        elif kind in ("delete", "disconnect"):
            flip = rng.choice(np.flatnonzero(on), min(k, on.sum()),
                              replace=False)
        else:
            flip = rng.choice(len(pairs), k, replace=False)
        on[flip] = ~on[flip]
        yield pairs[on]


class TestInheritedHopTable:
    """A Graph made by graphs.edited inherits its parent's hop table and
    adjacency, derived by the edit between them; both must equal those of
    a Graph built cold on the same edges, bit for bit."""

    @pytest.mark.parametrize("kind", ["add", "delete", "mixed", "disconnect"])
    def test_equals_a_cold_table_along_seeded_edits(self, kind):
        rng = np.random.default_rng(["add", "delete", "mixed",
                                     "disconnect"].index(kind))
        unreachable = False
        for n in (8, 13, 30, 60, 120):
            parent = Graph(n, np.empty((0, 2), dtype=np.intp))
            geodesics(parent)
            for edges in edit_sequence(rng, n, kind):
                child = edited(parent, edges)
                cold = Graph(n, edges)
                dist = geodesics(child).dist
                assert dist.tobytes() == GeodesicTable.compute(
                    cold).dist.tobytes()
                assert np.array_equal(child.adjacency(),
                                      graphs._adjacency(cold))
                assert child.adjacency().dtype == np.float32
                for a in (dist, child.adjacency()):
                    assert not a.flags.writeable
                unreachable |= bool(np.isinf(dist).any())
                parent = child
        assert unreachable

    def test_a_child_holds_no_reference_to_its_parent(self):
        rng = np.random.default_rng(3)
        parent = disk_proximity_graph(rng.uniform(0, 10, (40, 2)), 3.0)
        geodesics(parent)
        child = edited(parent, parent.edge_array()[1:])
        gone = weakref.ref(parent)
        del parent
        gc.collect()
        assert gone() is None
        assert geodesics(child).dist.tobytes() == GeodesicTable.compute(
            Graph(40, child.edge_array())).dist.tobytes()

    def test_a_parent_without_a_table_gives_a_cold_child(self, monkeypatch):
        parent = cycle(7)
        child = edited(parent, parent.edge_array()[1:])
        computed = []
        compute = GeodesicTable.compute.__func__
        monkeypatch.setattr(GeodesicTable, "compute", classmethod(
            lambda cls, g: computed.append(g) or compute(cls, g)))
        assert geodesics(child).dist.tobytes() == bfs_table(child).tobytes()
        assert computed == [child]


def _estimated_scenario():
    """120 robots at the reference density, steering on their estimates."""
    side = 150.0 * np.sqrt(2.0)
    return dataclasses.replace(
        reference_control_config(), n=120, width=side, height=side,
        noise_std=0.05, anchors=(0, 1), use_estimates=True,
        initial_estimate_error=0.5)


@pytest.mark.parametrize("scenario", [reference_control_config,
                                      _estimated_scenario],
                         ids=["opening", "estimated"])
def test_refreshed_graphs_build_as_cold_ones(monkeypatch, scenario):
    # every Graph the loop's refreshes and guard trials derive over 40
    # ticks: its balls, their layouts and its exchange compile equal a
    # cold Graph's on the same edges
    config = scenario()
    fw, _ = sample_framework(np.random.default_rng(config.seed), config)
    world = make_world(fw, config.control, config)
    derived, computed = [], []

    def recorded(parent, edges):
        derived.append(edited(parent, edges))
        return derived[-1]

    compute = GeodesicTable.compute.__func__
    with monkeypatch.context() as patch:
        patch.setattr(control, "edited", recorded)
        patch.setattr(GeodesicTable, "compute", classmethod(
            lambda cls, g: computed.append(g) or compute(cls, g)))
        for _ in range(40):
            step_simulation(world)
    # every table of the run is derived from the first one
    assert len(derived) >= 5 and computed == []
    h, d = world.extents, fw.dim
    for graph in derived:
        twin = Graph(graph.n, graph.edge_array())
        assert geodesics(graph).dist.tobytes() == geodesics(
            twin).dist.tobytes()
        got, want = ball_set(graph, h, d), ball_set(twin, h, d)
        for name in ("inside", "c", "coeff", "ttl"):
            assert getattr(got, name).tobytes() == getattr(
                want, name).tobytes()
        for name in ("nodes", "offsets", "edge", "ends", "ball"):
            a, b = getattr(got.stack, name), getattr(want.stack, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert len(got.layouts) == len(want.layouts)
        for a, b in zip(got.layouts, want.layouts):
            for name in ("sides", "index", "src"):
                assert getattr(a, name).tobytes() == getattr(
                    b, name).tobytes()
        (rows, log), (cold_rows, cold_log) = (
            run_exchange_phase(SimpleNamespace(graph=g, dim=d), h)
            for g in (graph, twin))
        assert np.array_equal(rows, cold_rows)
        assert log_arrays(log) == log_arrays(cold_log)


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
        (Graph(4, [(0, 1), (0, 2), (1, 2)]), False),
    ], ids=["triangle", "path", "cycle", "star", "two-triangles-one-node",
            "disconnected", "n1", "n2-edge", "n2-no-edge",
            "triangle-and-isolated-node"])
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

    def test_overflowing_distance_is_out_of_range_without_a_warning(self):
        # the squared distance of nodes 0 and 1 overflows float64: it is inf,
        # which is never in range, and numpy does not warn on the way
        x = np.array([[0.0, 0.0], [1e300, 0.0], [1e300, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist, linked = proximity(x, 2.0)
        assert np.isinf(dist[0, 1]) and dist[1, 2] == 1.0
        assert np.argwhere(linked).tolist() == [[1, 2]]


class TestSeparations:
    def test_lengths_equal_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(27)
        for d in (2, 3):
            a = rng.normal(size=(5000, d)) * 10.0 ** rng.integers(
                -6, 7, size=(5000, 1))
            b = rng.uniform(-100, 100, size=(5000, d))
            diff, lengths = separations(a, b)
            assert diff.tobytes() == (a - b).tobytes()
            assert lengths.tobytes() == np.linalg.norm(
                a - b, axis=-1).tobytes()
        # a pair table, as proximity measures it
        x = rng.uniform(0, 150, size=(120, 2))
        _, table = separations(x[:, None, :], x[None, :, :])
        assert table.tobytes() == np.linalg.norm(
            x[:, None, :] - x[None, :, :], axis=2).tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_bits_hold_from_1e_minus_300_to_1e300(self, d):
        # squares underflow to 0 and overflow to inf at the ends of the
        # range; the lengths must still be norm's, bit for bit
        rng = np.random.default_rng(40 + d)
        scale = 10.0 ** rng.integers(-300, 301, size=(20000, 1))
        a = rng.normal(size=(20000, d)) * scale
        b = rng.normal(size=(20000, d)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diff, lengths = separations(a, b)
        with np.errstate(over="ignore"):
            expected = np.linalg.norm(a - b, axis=-1)
        assert lengths.tobytes() == expected.tobytes()
        assert diff.tobytes() == (a - b).tobytes()
        assert np.isinf(lengths).any() and (lengths == 0).any()

    @pytest.mark.parametrize("d", [2, 3])
    def test_proximity_table_keeps_norms_bits(self, d):
        # a 150-node table at several scales, as proximity builds it one
        # coordinate at a time, against norm over the (n, n, d) differences
        rng = np.random.default_rng(44 + d)
        for scale in (1e-150, 1e-3, 1.0, 150.0, 1e5, 1e150, 1e154):
            x = rng.uniform(0, 1, size=(150, d)) * scale
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dist, linked = proximity(x, 0.3 * scale)
            with np.errstate(over="ignore"):
                expected = np.linalg.norm(x[:, None, :] - x[None, :, :],
                                          axis=2)
            assert dist.tobytes() == expected.tobytes()
            assert np.array_equal(linked, np.triu(expected < 0.3 * scale, 1))
            _, table = separations(x[:, None, :], x[None, :, :])
            assert table.tobytes() == expected.tobytes()

    def test_nan_and_inf_inputs_keep_norms_bits(self):
        values = [0.0, -1.5, 2.0, np.nan, np.inf, -np.inf]
        a = np.array([[p, q] for p in values for q in values])
        b = a[::-1].copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, lengths = separations(a, b)
            dist, linked = proximity(a, 3.0)
        with np.errstate(invalid="ignore"):
            expected = np.linalg.norm(a - b, axis=-1)
            table = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2)
        assert lengths.tobytes() == expected.tobytes()
        assert dist.tobytes() == table.tobytes()
        # a NaN or infinite distance is never in range
        assert not linked[~np.isfinite(table)].any()

    def test_overflow_to_inf_near_sqrt_of_the_largest_double(self):
        # a length whose square overflows float64 is inf, as norm gives it,
        # although the length itself is representable: 1.3e154 squared is
        # finite, 1.35e154 squared and the sum of two 1e154 squares are not
        a = np.array([[1.3e154, 0.0], [1.35e154, 0.0], [1e154, 1e154],
                      [0.0, 1.3e154]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, lengths = separations(a, np.zeros(2))
            dist, _ = proximity(np.vstack([np.zeros(2), a]), 1.0)
        assert lengths.tolist() == [1.3e154, np.inf, np.inf, 1.3e154]
        with np.errstate(over="ignore"):
            assert lengths.tobytes() == np.linalg.norm(a, axis=-1).tobytes()
        assert dist[0, 1:].tobytes() == lengths.tobytes()

    def test_an_overflowing_length_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diff, lengths = separations(np.array([[1e200, 0.0], [3.0, 4.0]]),
                                        np.zeros(2))
        assert np.isinf(lengths[0]) and lengths[1] == 5.0
        assert diff[0].tolist() == [1e200, 0.0]


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
