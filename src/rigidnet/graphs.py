"""Undirected graphs, hop-count geodesics and the disk-proximity generator.

Nodes are dense integers 0..n-1.  Graphs are immutable after construction;
topology changes produce a new Graph.  A Graph is built from its edge
array, validated and sorted in numpy, and the slot layout (one slot per
node and neighbor, see Graph) is built with it.  Whatever else depends on
the edge set alone (the edge list, the geodesic table, the controller's
balls) is computed once per Graph and kept on it (Graph.cached).  The
geodesic table, all-pairs shortest paths from scipy's csgraph, is the one
source of hop counts, and the connectivity test counts csgraph's
connected components.  The biconnectivity test (no cut vertex) is one
depth-first search over the slot layout.  Unreachable node pairs are
marked with the UNREACHABLE sentinel (float inf) rather than a large
finite hop count, so accidental arithmetic on them propagates loudly
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

    A graph is built from its edge array: any (m, 2) array or sequence of
    integer id pairs, checked and put in canonical form in numpy, one row
    (i, j) with i < j per edge, rows sorted lexicographically.  That order
    fixes row order in rigidity matrices and serialized output.  The list
    of tuples in edges is derived from the array on first read.

    Every per-neighbor array reads one read-only slot layout: node i owns
    slots slots[i]:slots[i + 1], one per neighbor in ascending order, and
    slot_node and slot_edge hold each slot's neighbor and edge index.
    """

    def __init__(self, n, edges):
        self.n = int(n)
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        given = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges))
        if given.shape == (0,):
            given = np.empty((0, 2), dtype=np.intp)
        if given.ndim != 2 or given.shape[1] != 2:
            raise ValueError(
                f"edges must be pairs of node ids, got shape {given.shape}")
        if not np.issubdtype(given.dtype, np.integer):
            raise ValueError(
                f"node ids must be integers, got dtype {given.dtype}")
        given = given.astype(np.intp, copy=False)
        lo, hi = given.min(axis=1), given.max(axis=1)
        order = np.lexsort((hi, lo))
        e = np.stack([lo[order], hi[order]], axis=1)
        self._reject_invalid(given, e, order)
        self.m = len(e)
        # a stable sort by owner puts node i's lower neighbors j (edges
        # (j, i), ascending j) before its higher ones (edges (i, j))
        owner = np.concatenate([e[:, 1], e[:, 0]])
        by_owner = np.argsort(owner, kind="stable")
        self._edges = e
        self.slots = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner, minlength=self.n), out=self.slots[1:])
        self.slot_node = np.concatenate([e[:, 0], e[:, 1]])[by_owner]
        self.slot_edge = np.tile(np.arange(self.m), 2)[by_owner]
        for a in (self._edges, self.slots, self.slot_node, self.slot_edge):
            a.setflags(write=False)

    def _reject_invalid(self, given, e, order):
        """Raise for the first given edge, in input order, that is a
        self-loop, out of range or a repeat of an earlier edge.

        e is given canonicalized and stably sorted by order, so a row equal
        to the one before it is a repeat, and order names its input index.
        """
        invalid = (given[:, 0] == given[:, 1]) | (
            (given < 0) | (given >= self.n)).any(axis=1)
        bad = invalid.copy()
        bad[order[1:][(e[1:] == e[:-1]).all(axis=1)]] = True
        if not bad.any():
            return
        k = int(np.argmax(bad))
        i, j = given[k].tolist()
        if not invalid[k]:
            raise ValueError(f"duplicate edge {(min(i, j), max(i, j))}")
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")

    @property
    def edges(self):
        """The edges as a list of (i, j) tuples, in edge_array order.

        Built from the edge array on first read and kept; do not modify it.
        """
        return self.cached("edges", None, _edge_list)

    def neighbors(self, i):
        return self.slot_node[self.slots[i]:self.slots[i + 1]]

    def degrees(self):
        return np.diff(self.slots)

    def degree_groups(self):
        """(nodes, own) per distinct degree k, ascending, where own[t] are
        node nodes[t]'s k slots; built on first call and kept."""
        return self.cached("degree_groups", None, _degree_groups)

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
        return sp.csr_matrix((np.ones(2 * self.m), self.slot_node, self.slots),
                             shape=(self.n, self.n))

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._edges, other._edges)
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _edge_list(g):
    return list(zip(*g.edge_array().T.tolist()))


def _degree_groups(g):
    degrees = g.degrees()
    groups = [np.flatnonzero(degrees == k) for k in np.unique(degrees)]
    return [(v, g.slots[v, None] + np.arange(degrees[v[0]])) for v in groups]


def diameter(g):
    """Maximum eccentricity over all nodes.  Errors out on disconnected graphs."""
    return geodesics(g).diameter()


def is_connected(g):
    return csgraph.connected_components(
        g.adjacency_sparse(), directed=False, return_labels=False) <= 1


def is_biconnected(g):
    """True iff g is connected and no single node's removal disconnects it.

    One iterative depth-first search from node 0 over the slot layout
    (Tarjan's low-link): low[v] is the earliest discovery time reachable
    from v's subtree by one back edge.  A non-root node p is a cut vertex
    when a child c has low[c] >= disc[p], the root when it has two children.
    """
    n = g.n
    if n == 0:
        return True
    slots, nbr = g.slots.tolist(), g.slot_node.tolist()
    disc, low, parent = [-1] * n, [0] * n, [-1] * n
    nxt = slots[:n]
    disc[0] = 0
    found, root_children = 1, 0
    stack = [0]
    while stack:
        v = stack[-1]
        if nxt[v] < slots[v + 1]:
            w = nbr[nxt[v]]
            nxt[v] += 1
            if disc[w] < 0:
                disc[w] = low[w] = found
                found += 1
                parent[w] = v
                stack.append(w)
            elif w != parent[v] and disc[w] < low[v]:
                low[v] = disc[w]
            continue
        stack.pop()
        p = parent[v]
        if p == 0:
            root_children += 1
            if root_children > 1:
                return False
        elif p > 0:
            if low[v] >= disc[p]:
                return False
            if low[v] < low[p]:
                low[p] = low[v]
    return found == n


def proximity(positions, range_):
    """Dense pairwise distances, and the upper-triangle mask of the pairs
    strictly closer than range_: the one rule by which two nodes gain a link.

    Strictness keeps the discrete edge set consistent with logistic link
    weights above one half; ties at exactly range_ are measure zero.
    """
    x = np.asarray(positions, dtype=float)
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return dist, np.triu(dist < range_, k=1)


def disk_proximity_graph(positions, range_):
    """Graph with an edge wherever two points are in range (see proximity)."""
    if range_ <= 0:
        raise ValueError("range must be positive")
    dist, linked = proximity(positions, range_)
    return Graph(len(dist), np.argwhere(linked))


def induced_subgraph(g, nodes):
    """Subgraph on the given nodes with relabeled ids following the sorted node order.

    Returns the local graph and the sorted global ids, so local node k
    corresponds to global node nodes[k].
    """
    nodes = sorted(set(int(v) for v in nodes))
    if nodes and not (0 <= nodes[0] and nodes[-1] < g.n):
        raise ValueError("node ids out of range")
    local = np.full(g.n, -1, dtype=np.intp)
    local[nodes] = np.arange(len(nodes))
    e = local[g.edge_array()]
    return Graph(len(nodes), e[(e >= 0).all(axis=1)]), nodes


def laplacian_matrix(g):
    """Dense combinatorial Laplacian L = D - A."""
    return np.diag(g.degrees().astype(float)) - g.adjacency_sparse().toarray()


class GeodesicTable:
    """All-pairs hop counts, with UNREACHABLE marking disconnected pairs."""

    def __init__(self, dist):
        self.dist = np.asarray(dist, dtype=float)

    @classmethod
    def compute(cls, g):
        # csgraph marks unreachable pairs inf (UNREACHABLE), edgeless or not
        return cls(csgraph.shortest_path(g.adjacency_sparse(), method="D",
                                         unweighted=True))

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
