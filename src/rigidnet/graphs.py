"""Undirected graphs, hop-count geodesics and the disk-proximity generator.

Nodes are dense integers 0..n-1.  Graphs are immutable after construction;
topology changes produce a new Graph.  So the edge array is built with
the graph, and whatever else depends on the edge set alone (the geodesic
table, the controller's balls) is computed once per Graph and kept on it
(Graph.cached).  The geodesic table, all-pairs shortest paths from
scipy's csgraph, is the one source of hop counts, and the connectivity
test counts csgraph's connected components.  Unreachable node
pairs are marked with the UNREACHABLE sentinel (float inf) rather than a
large finite hop count, so accidental arithmetic on them propagates loudly
instead of producing plausible-looking numbers.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

UNREACHABLE = np.inf


class GraphDisconnectedError(ValueError):
    """Raised when an operation requires a connected graph."""


class Graph:
    """Simple undirected graph with dense integer node ids.

    Edges are stored lexicographically sorted as (i, j) with i < j; the
    ordering fixes row order in rigidity matrices and serialized output.
    """

    def __init__(self, n, edges):
        self.n = int(n)
        seen = set()
        norm = []
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            e = (i, j) if i < j else (j, i)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        norm.sort()
        self.edges = norm
        self.m = len(norm)
        adj = [[] for _ in range(self.n)]
        for i, j in norm:
            adj[i].append(j)
            adj[j].append(i)
        self._adj = tuple(np.array(sorted(a), dtype=np.intp) for a in adj)
        self._edges = np.array(norm, dtype=np.intp).reshape(-1, 2)
        self._edges.setflags(write=False)

    def neighbors(self, i):
        return self._adj[i]

    def degrees(self):
        return np.array([len(a) for a in self._adj], dtype=np.intp)

    def edge_array(self):
        """Read-only m x 2 integer array of edges in lexicographic order."""
        return self._edges

    def cached(self, name, key, build):
        """build(self), kept on this graph under name for as long as key holds.

        A graph never changes, so what depends only on it and on key is
        computed once.  Each name keeps one value: a call with another key
        computes and keeps that key's value instead.
        """
        memo = self.__dict__.setdefault("_memo", {})
        hit = memo.get(name)
        if hit is None or hit[0] != key:
            hit = memo[name] = (key, build(self))
        return hit[1]

    def adjacency_sparse(self):
        e = self.edge_array()
        data = np.ones(2 * self.m)
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def diameter(g):
    """Maximum eccentricity over all nodes.  Errors out on disconnected graphs."""
    return geodesics(g).diameter()


def is_connected(g):
    if g.n == 0:
        return True
    return csgraph.connected_components(
        g.adjacency_sparse(), directed=False, return_labels=False) == 1


def disk_proximity_graph(positions, range_):
    """Graph with an edge wherever the inter-point distance is strictly below range_.

    Strictness keeps the discrete edge set consistent with logistic link
    weights above one half; ties at exactly range_ are measure zero.
    """
    if range_ <= 0:
        raise ValueError("range must be positive")
    x = np.asarray(positions, dtype=float)
    n = len(x)
    diff = x[:, None, :] - x[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    ii, jj = np.where(np.triu(d < range_, k=1))
    return Graph(n, list(zip(ii.tolist(), jj.tolist())))


def induced_subgraph(g, nodes):
    """Subgraph on the given nodes with relabeled ids following the sorted node order.

    Returns the local graph and the sorted global ids, so local node k
    corresponds to global node nodes[k].
    """
    nodes = sorted(set(int(v) for v in nodes))
    if nodes and not (0 <= nodes[0] and nodes[-1] < g.n):
        raise ValueError("node ids out of range")
    local = {v: k for k, v in enumerate(nodes)}
    in_set = np.zeros(g.n, dtype=bool)
    in_set[nodes] = True
    edges = []
    for v in nodes:
        for w in g.neighbors(v):
            if v < w and in_set[w]:
                edges.append((local[v], local[int(w)]))
    return Graph(len(nodes), edges), nodes


def laplacian_matrix(g):
    """Dense combinatorial Laplacian L = D - A."""
    L = np.zeros((g.n, g.n))
    for i, j in g.edges:
        L[i, i] += 1.0
        L[j, j] += 1.0
        L[i, j] -= 1.0
        L[j, i] -= 1.0
    return L


class GeodesicTable:
    """All-pairs hop counts, with UNREACHABLE marking disconnected pairs."""

    def __init__(self, dist):
        self.dist = np.asarray(dist, dtype=float)

    @classmethod
    def compute(cls, g):
        if g.n == 0:
            return cls(np.zeros((0, 0)))
        if g.m == 0:
            d = np.full((g.n, g.n), UNREACHABLE)
            np.fill_diagonal(d, 0.0)
            return cls(d)
        d = csgraph.shortest_path(g.adjacency_sparse(), method="D", unweighted=True)
        return cls(d)

    def eccentricities(self):
        return self.dist.max(axis=1)

    def diameter(self):
        ecc = self.eccentricities()
        if np.isinf(ecc).any():
            raise GraphDisconnectedError("diameter undefined for disconnected graph")
        return int(ecc.max())


def _frozen_table(g):
    table = GeodesicTable.compute(g)
    table.dist.setflags(write=False)
    return table


def geodesics(g):
    """The graph's geodesic table, computed on first use and kept read-only."""
    return g.cached("geodesics", None, _frozen_table)
