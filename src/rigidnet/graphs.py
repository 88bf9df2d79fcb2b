"""Undirected graphs, hop-count geodesics and the disk-proximity generator.

Nodes are dense integers 0..n-1.  Graphs are immutable after construction;
topology changes produce a new Graph.  A Graph is built from its edge
array, validated and sorted in numpy (an array already sorted is only
checked), and the slot layout (one slot per node and neighbor, see
Graph) is built with it.  Whatever else depends on the edge set alone,
or on it and a key such as the frozen extents, is computed once per Graph
and kept as one of its records (Graph.record, their one reader and the
one place a key is compared).  The geodesic table, a breadth-first
search from every node at once, is the one source of hop counts.  A
topology change costs its edit: the Graph that edited builds inherits its
parent's hop table and dense adjacency, derived by the edit between the
two edge sets with the same search, equal to the computed ones bit for
bit, and written into its records.  The connectivity test is one
depth-first search over the slot layout, and the biconnectivity test (no cut vertex) another, after a
degree check.
Unreachable node pairs are marked with the UNREACHABLE sentinel (float
inf) rather than a large finite hop count, so accidental arithmetic on
them propagates loudly instead of producing plausible-looking numbers.
Every distance in the library comes from one kernel, separations, which
adds the squares one coordinate at a time.
"""

import numpy as np

from . import _cores
from ._checks import _node_ids, _number

UNREACHABLE = np.inf


class GraphDisconnectedError(ValueError):
    """Raised when an operation requires a connected graph."""


class Graph:
    """Simple undirected graph with dense integer node ids.

    A graph is built from its edge array: any (m, 2) array or sequence of
    integer id pairs, checked and put in canonical form in numpy, one row
    (i, j) with i < j per edge, rows sorted lexicographically.  That order
    fixes row order in rigidity matrices and serialized output; an array
    already in that form, as a topology refresh builds it, is only checked
    and needs no sort.  The list of tuples in edges is derived from the
    array on first read.

    Every per-neighbor array reads one read-only slot layout: node i owns
    slots slots[i]:slots[i + 1], one per neighbor in ascending order, and
    slot_node and slot_edge hold each slot's neighbor and edge index.
    """

    def __init__(self, n, edges):
        self.n = _number("n", n, int, "non-negative")
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
        lo, hi = given.T
        key = lo * self.n + hi
        if ((lo < hi) & (lo >= 0) & (hi < self.n)).all() and (
                key[1:] > key[:-1]).all():
            # in canonical form already: in range, i < j, rows ascending
            e = given.copy()
        else:
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
        self._records = {}

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
        return self.record("edges", _edge_list)

    def neighbors(self, i):
        return self.slot_node[self.slots[i]:self.slots[i + 1]]

    def degrees(self):
        return np.diff(self.slots)

    def degree_groups(self):
        """(nodes, own) per distinct degree k, ascending, where own[t] are
        node nodes[t]'s k slots; built on first call and kept."""
        return self.record("degree_groups", _degree_groups)

    def edge_array(self):
        """Read-only m x 2 integer array of edges in lexicographic order."""
        return self._edges

    def record(self, name, build, *key):
        """build(self, *key), kept under name for as long as key holds.

        A graph never changes, so what depends only on it and on key is
        computed once.  Each name keeps one value: a call with another key
        computes and keeps that key's value instead.  Here alone is a key
        compared: an array in it by its bytes, anything else by ==.
        """
        code = tuple(k.tobytes() if isinstance(k, np.ndarray) else k
                     for k in key)
        hit = self._records.get(name)
        if hit is None or hit[0] != code:
            hit = self._records[name] = (code, build(self, *key))
        return hit[1]

    def adjacency(self):
        """The dense n x n float32 adjacency matrix, one 1.0 per slot; built
        on first call, kept and read-only.  Products with it count exactly
        below 2^24."""
        return self.record("adjacency", _adjacency)

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


def _adjacency(g):
    a = np.zeros((g.n, g.n), dtype=np.float32)
    a[np.repeat(np.arange(g.n), g.degrees()), g.slot_node] = 1.0
    a.setflags(write=False)
    return a


def _degree_groups(g):
    degrees = g.degrees()
    groups = [np.flatnonzero(degrees == k) for k in np.unique(degrees)]
    return [(v, g.slots[v, None] + np.arange(degrees[v[0]])) for v in groups]


def diameter(g):
    """Maximum eccentricity over all nodes.  Errors out on disconnected
    graphs and on a graph with no node."""
    return geodesics(g).diameter()


def is_connected(g):
    """True iff a depth-first search from node 0 over the slot layout
    reaches every node; a graph of at most one node is connected."""
    slots, nbr = g.slots.tolist(), g.slot_node.tolist()
    seen = set(range(min(g.n, 1)))
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in nbr[slots[v]:slots[v + 1]]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_biconnected(g):
    """True iff g is connected and no single node's removal disconnects it.

    A graph of three nodes or more with a node of degree below 2 is not,
    and needs no search.  Otherwise one iterative depth-first search from
    node 0 over the slot layout (Tarjan's low-link): low[v] is the earliest
    discovery time reachable from v's subtree by one back edge.  A non-root
    node p is a cut vertex when a child c has low[c] >= disc[p], the root
    when it has two children.
    """
    n = g.n
    if n == 0:
        return True
    if n >= 3 and g.degrees().min() < 2:
        return False
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


def _lengths(coordinates):
    """The square root of the sum of the squares of the given per-coordinate
    differences, added left to right as np.linalg.norm(axis=-1) adds a
    row's squares, so with its bits.  Call under an errstate that ignores
    overflow and invalid values."""
    squares = (c * c for c in coordinates)
    total = next(squares)
    for square in squares:
        total += square
    return np.sqrt(total)


def separations(a, b):
    """a - b and its lengths along the last axis, with the bits of
    np.linalg.norm(a - b, axis=-1); a length too large for float64 is inf,
    not a warning, and each caller judges it in its own terms."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.subtract(a, b)
        return diff, _lengths(diff[..., k] for k in range(diff.shape[-1]))


def proximity(positions, range_):
    """Dense pairwise distances, and the upper-triangle mask of the pairs
    strictly closer than range_: the one rule by which two nodes gain a link.

    The distances are separations' lengths, with its bits, formed one
    coordinate at a time, so no (n, n, d) difference array is built.
    Strictness keeps the discrete edge set consistent with logistic link
    weights above one half; ties at exactly range_ are measure zero.  A
    distance that overflows float64 is inf, which is never in range.
    """
    x = np.asarray(positions, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        dist = _lengths(np.subtract.outer(c, c) for c in x.T)
    i = np.arange(len(x))
    return dist, (dist < range_) & (i[:, None] < i)


def disk_proximity_graph(positions, range_):
    """Graph with an edge wherever two points are in range (see proximity)."""
    dist, linked = proximity(positions,
                             _number("range", range_, float, "positive"))
    return Graph(len(dist), np.stack(np.divmod(np.flatnonzero(linked),
                                               len(dist)), axis=1))


def induced_subgraph(g, nodes):
    """Subgraph on the given nodes with relabeled ids following the sorted node order.

    Returns the local graph and the sorted global ids, so local node k
    corresponds to global node nodes[k].
    """
    nodes = sorted(set(_node_ids(nodes, g.n, "nodes")))
    local = np.full(g.n, -1, dtype=np.intp)
    local[nodes] = np.arange(len(nodes))
    e = local[g.edge_array()]
    return Graph(len(nodes), e[(e >= 0).all(axis=1)]), nodes


def laplacian_matrix(g):
    """Dense combinatorial Laplacian L = D - A."""
    return np.diag(g.degrees().astype(float)) - g.adjacency()


class GeodesicTable:
    """All-pairs hop counts, with UNREACHABLE marking disconnected pairs."""

    def __init__(self, dist):
        self.dist = np.asarray(dist, dtype=float)

    @classmethod
    def compute(cls, g):
        """A breadth-first search from every node at once (_search)."""
        return cls(_search(g.adjacency(), np.arange(g.n)))

    def eccentricities(self):
        return self.dist.max(axis=1)

    def diameter(self):
        if not len(self.dist):
            raise ValueError("diameter undefined for a graph with no node")
        ecc = self.eccentricities()
        if np.isinf(ecc).any():
            raise GraphDisconnectedError("diameter undefined for disconnected graph")
        return int(ecc.max())


def _search(adjacency, sources):
    """Hop counts from each of sources to every node, one row per source:
    a breadth-first search from all of them at once, level by level, where
    the nodes first reached at hop h are the new nonzeros of the frontier
    times the dense adjacency.  The product is float32 and exact, since no
    count exceeds n < 2^24, and runs with BLAS on one thread, whose threads
    would otherwise wait on the cores that the eigensolves use."""
    n, k = len(adjacency), len(sources)
    dist = np.full((k, n), UNREACHABLE)
    reached = np.zeros((k, n), dtype=bool)
    reached[np.arange(k), sources] = True
    dist[reached] = 0.0
    frontier = reached.astype(np.float32)
    with _cores.one_blas_thread():
        for hops in range(1, n):
            new = (frontier @ adjacency > 0) & ~reached
            if not new.any():
                break
            dist[new] = hops
            reached |= new
            frontier = new.astype(np.float32)
    return dist


def _frozen_table(g):
    table = GeodesicTable.compute(g)
    table.dist.setflags(write=False)
    return table


def geodesics(g):
    """The graph's geodesic table, computed on first use and kept read-only."""
    return g.record("geodesics", _frozen_table)


def _edit(parent, child):
    """The edges of parent that child lacks and those child adds, each an
    (k, 2) array in edge order."""
    edges = (parent.edge_array(), child.edge_array())
    keys = [e[:, 0] * parent.n + e[:, 1] for e in edges]
    return tuple(e[~_found(a, b)]
                 for e, a, b in zip(edges, keys, keys[::-1]))


def _found(a, b):
    """Which entries of the ascending array a the ascending array b holds,
    by one binary search each (no sort)."""
    if not len(b):
        return np.zeros(len(a), dtype=bool)
    return b[np.minimum(np.searchsorted(b, a), len(b) - 1)] == a


def _edited_table(dist, adjacency, removed, added):
    """Edit in place the hop table dist and the dense adjacency of a graph
    into those of the graph without the edges removed and with added.

    Removing edge (u, v) leaves source s's row as it was when its farther
    endpoint f (if one is farther) still has a neighbour one hop nearer
    to s: by induction on the hop count, every node then keeps a neighbour
    one hop nearer.  The rows where some farther endpoint has none are
    searched again on the graph without the removed edges.  Adding edge
    (a, b) then shortens a path only through it, and only from a source
    more than one hop nearer to one end than to the other: from those
    rows, dist becomes min(dist, dist[:, a] + 1 + dist[b]), or with a and
    b swapped, exact in float64, an edge at a time.
    """
    if len(removed):
        u, v = removed.T
        adjacency[u, v] = adjacency[v, u] = 0.0
        # nearer_u[s, k]: node u[k] has a neighbour one hop nearer to s
        nearer_u, nearer_v = (np.stack([
            (dist[:, adjacency[x] > 0] == dist[:, x, None] - 1.0).any(axis=1)
            for x in ends.tolist()], axis=1) for ends in (u, v))
        du, dv = dist[:, u], dist[:, v]
        lost = (du != dv) & ~np.where(du > dv, nearer_u, nearer_v)
        stale = np.flatnonzero(lost.any(axis=1))
        if len(stale):
            dist[stale] = _search(adjacency, stale)
    for a, b in added.tolist():
        adjacency[a, b] = adjacency[b, a] = 1.0
        for near, far in ((a, b), (b, a)):
            rows = np.flatnonzero(dist[:, near] + 1.0 < dist[:, far])
            dist[rows] = np.minimum(dist[rows],
                                    dist[rows, near, None] + (dist[far] + 1.0))


def edited(parent, edges):
    """Graph(parent.n, edges), which inherits parent's hop table and dense
    adjacency where parent holds its table: they are derived by the edit
    from parent's edge set to edges (_edited_table), equal the computed
    ones bit for bit, and are written into the new graph's records.  The
    new graph holds no reference to parent.
    """
    g = Graph(parent.n, edges)
    hit = parent._records.get("geodesics")
    if hit is not None:
        dist, adjacency = hit[1].dist.copy(), parent.adjacency().copy()
        _edited_table(dist, adjacency, *_edit(parent, g))
        for a in (dist, adjacency):
            a.setflags(write=False)
        g._records.update(adjacency=((), adjacency),
                          geodesics=((), GeodesicTable(dist)))
    return g
