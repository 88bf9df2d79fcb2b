"""Hop-limited subframeworks: rigidity extents, inclusion groups, communication load.

Each node i looks only at its hop-ball V_i = {j : g_ij <= h_i} and the edges
induced there.  The smallest h_i whose ball is rigid is the rigidity extent of
i; when every node has one, local rigidity everywhere certifies rigidity of
the whole framework, so maintenance can run on subframeworks alone.

A Ball is a hop-ball as index masks into its framework, and stack_balls
is the one place that lays balls end to end (a BallStack): the per-ball
slopes, the GramLayouts that assemble every ball's S by d x d blocks, a
group of balls per bincount, the extent search and the message engine's
centers all read their balls from one.  What a graph and the frozen
extents fix for every ball (hop counts, load coefficients, the balls in
center order with their stack and layouts) is a BallSet, computed once
per Graph and kept on it (ball_set).  The extent search stacks the balls
of all centers still searching at one radius the same way.
"""

from dataclasses import dataclass, field

import numpy as np

from .graphs import GeodesicTable, geodesics, induced_subgraph
from .rigidity import REL_TOL, Framework, GramLayout, rigidity_spectrum


@dataclass
class Subframework:
    """Hop-ball of a center node realized as a framework with local node ids."""

    center: int
    extent: int
    nodes: list
    framework: Framework

    @property
    def n(self):
        return len(self.nodes)


def extract_subframework(fw, center, extent, table=None):
    """Framework induced by the ball of the given hop radius around center."""
    if extent < 0:
        raise ValueError("extent must be nonnegative")
    if table is None:
        table = geodesics(fw.graph)
    nodes = table.ball(center, extent)
    sub, nodes = induced_subgraph(fw.graph, nodes)
    local = Framework(sub, fw.positions[nodes], fw.dim)
    return Subframework(center, extent, nodes, local)


@dataclass
class Ball:
    """Hop-ball of one center as index masks into its framework.

    local maps a node to its row among the sorted nodes (-1 outside) and
    edge_idx lists the edges with both endpoints inside.
    """

    center: int
    nodes: np.ndarray
    local: np.ndarray
    edge_idx: np.ndarray

    @classmethod
    def of(cls, edge_endpoints, n, center, nodes):
        nodes = np.asarray(nodes, dtype=np.intp)
        local = np.full(n, -1, dtype=np.intp)
        local[nodes] = np.arange(len(nodes))
        in_ball = local >= 0
        edge_idx = np.flatnonzero(in_ball[edge_endpoints[:, 0]]
                                  & in_ball[edge_endpoints[:, 1]])
        return cls(center, nodes, local, edge_idx)


@dataclass(frozen=True, eq=False)
class BallStack:
    """Balls laid end to end, one row per member of each ball.

    Rows offsets[t]:offsets[t + 1] are ball t's members nodes[...], in the
    ball's own order.  For every induced edge of every ball, balls in
    order and each ball's edges in edge order, edge is its index in the
    framework, ends the rows of its two endpoints and ball its ball.
    """

    nodes: np.ndarray
    offsets: np.ndarray
    edge: np.ndarray
    ends: np.ndarray
    ball: np.ndarray


def stack_balls(balls, edge_endpoints):
    """The BallStack of the balls, in the order given."""
    offsets = np.cumsum([0] + [len(b.nodes) for b in balls])
    ball = np.repeat(np.arange(len(balls)), [len(b.edge_idx) for b in balls])
    ends = np.concatenate([b.local[edge_endpoints[b.edge_idx]] for b in balls])
    return BallStack(
        nodes=np.concatenate([b.nodes for b in balls]),
        offsets=offsets,
        edge=np.concatenate([b.edge_idx for b in balls]),
        ends=ends + offsets[ball][:, None],
        ball=ball,
    )


# Block entries assembled per bincount.  One pass over all the balls of a
# 120-robot network would hold a few MB of temporaries; passes of this size
# keep each temporary near 128 kB at the same speed.
GROUP_ENTRIES = 1 << 14


def stack_layouts(stack, d):
    """GramLayouts of runs of consecutive balls of a stack, each run holding
    at most GROUP_ENTRIES block entries (or one ball alone when it has more)."""
    counts = np.diff(stack.offsets)
    edges = np.bincount(stack.ball, minlength=len(counts))
    first = np.concatenate([[0], np.cumsum(edges)])
    cuts, entries = [0], 0
    for t, k in enumerate((4 * d * d * edges).tolist()):
        if t and entries + k > GROUP_ENTRIES:
            cuts.append(t)
            entries = 0
        entries += k
    cuts.append(len(counts))
    layouts = []
    for t0, t1 in zip(cuts, cuts[1:]):
        rows = slice(first[t0], first[t1])
        ball = stack.ball[rows]
        layouts.append(GramLayout.of(
            d, counts[t0:t1], stack.edge[rows],
            stack.ends[rows] - stack.offsets[ball][:, None], ball - t0))
    return tuple(layouts)


def ball_grams(layouts, units, weights=None):
    """Every ball's S, in layout order, from every edge's units and weights."""
    return [S for layout in layouts for S in layout.grams(units, weights)]


@dataclass(frozen=True, eq=False)
class BallSet:
    """What a graph and the frozen extents fix for every node's ball.

    c[j, i] = max(0, h_j - g_ji) is node i's load coefficient for center j
    and coeff its column sums; ttl[i] is the widest extent among the
    centers whose balls hold node i, so a flood from i that many hops deep
    reaches all of them.  balls are the index-mask balls in center order,
    stack lays them end to end in that order, and layouts assemble their S
    group by group of consecutive balls.  Nothing here depends on
    positions, and every array is read-only.
    """

    table: GeodesicTable
    c: np.ndarray
    coeff: np.ndarray
    ttl: np.ndarray
    balls: tuple
    stack: BallStack
    layouts: tuple

    def grams(self, units, weights=None):
        """Every ball's S, in center order, from every edge's units and weights."""
        return ball_grams(self.layouts, units, weights)


def _build_ball_set(extents, d):
    def build(graph):
        e = graph.edge_array()
        table = geodesics(graph)
        balls = tuple(Ball.of(e, graph.n, j, table.ball(j, int(h)))
                      for j, h in enumerate(extents))
        stack = stack_balls(balls, e)
        layouts = stack_layouts(stack, d)
        c = np.maximum(0.0, extents[:, None] - table.dist)
        coeff = c.sum(axis=0)
        ttl = np.where(table.dist <= extents[:, None], extents[:, None],
                       0).max(axis=0)
        arrays = [c, coeff, ttl, *vars(stack).values()]
        for layout in layouts:
            arrays += [layout.sides, layout.edge, layout.index]
        for b in balls:
            arrays += [b.nodes, b.local, b.edge_idx]
        for a in arrays:
            a.setflags(write=False)
        return BallSet(table, c, coeff, ttl, balls, stack, layouts)
    return build


def ball_set(graph, extents, d):
    """The BallSet of a graph at these extents in d dimensions, computed
    once and kept on the graph for the latest extents."""
    extents = np.asarray(extents, dtype=np.intp)
    return graph.cached("ball_set", (d, extents.tobytes()),
                        _build_ball_set(extents, d))


def ball_spectrum(S, d, tol=REL_TOL, vectors=True):
    """Spectrum of a ball's S, or None when the ball is too small to test."""
    if S.shape[0] <= d * d:
        return None
    return rigidity_spectrum(S, d, tol, vectors)


def _rigid_balls(fw, balls, tol):
    """Whether each ball's unweighted S passes the eigenvalue test."""
    # balls with too few nodes cannot pass the eigenvalue test; they count
    # as not rigid rather than erroring
    layouts = stack_layouts(stack_balls(balls, fw.graph.edge_array()), fw.dim)
    spectra = [ball_spectrum(S, fw.dim, tol, vectors=False)
               for S in ball_grams(layouts, fw.units)]
    return [s is not None and s.rigid for s in spectra]


def rigidity_extent(fw, center, table=None, tol=REL_TOL):
    """Smallest hop radius whose ball around center is rigid, or None.

    Rigidity of growing balls is not monotone (a pendant node entering the
    ball with a single induced edge breaks it), so every radius is tested in
    turn.  The scan stops once the ball stops growing: from there on the
    subframework never changes again.
    """
    if table is None:
        table = geodesics(fw.graph)
    return _extents(fw, [center], table, tol)[0]


def _extents(fw, centers, table, tol):
    """rigidity_extent of every center, radius by radius: the balls of all
    centers still searching at one radius are assembled together."""
    e = fw.graph.edge_array()
    found = dict.fromkeys(centers)
    prev = dict.fromkeys(centers)
    pending = list(centers)
    for h in range(1, fw.n + 1):
        balls = []
        for j in pending:
            nodes = table.ball(j, h)
            if nodes != prev[j]:
                prev[j] = nodes
                balls.append(Ball.of(e, fw.n, j, nodes))
        if not balls:
            break
        pending = []
        for ball, rigid in zip(balls, _rigid_balls(fw, balls, tol)):
            if rigid:
                found[ball.center] = h
            else:
                pending.append(ball.center)
    return [found[j] for j in centers]


@dataclass
class ExtentAssignment:
    """Per-node rigidity extents; None marks nodes with no rigid ball at all."""

    extents: list = field(default_factory=list)

    @property
    def complete(self):
        return all(h is not None for h in self.extents)

    def worst_case(self):
        """Largest extent, or None when some node has no rigid ball."""
        if not self.complete:
            return None
        return max(self.extents)

    def as_array(self):
        if not self.complete:
            raise ValueError("assignment is incomplete")
        return np.array(self.extents, dtype=np.intp)


def extent_assignment(fw, table=None, tol=REL_TOL):
    """Rigidity extent of every node, sharing one geodesic table."""
    if table is None:
        table = geodesics(fw.graph)
    return ExtentAssignment(_extents(fw, range(fw.n), table, tol))


def verify_extents(fw, extents, table=None, tol=REL_TOL):
    """True iff the ball of every node at its assigned radius is rigid."""
    if len(extents) != fw.n:
        raise ValueError(f"expected {fw.n} extents, got {len(extents)}")
    if table is None:
        table = geodesics(fw.graph)
    e = fw.graph.edge_array()
    balls = [Ball.of(e, fw.n, i, table.ball(i, int(h)))
             for i, h in enumerate(extents)]
    return all(_rigid_balls(fw, balls, tol))


def inclusion_group(table, extents, i):
    """Sorted centers whose subframework contains node i: {j : g_ij <= h_j}."""
    h = np.asarray(extents, dtype=float)
    return [int(j) for j in np.flatnonzero(table.dist[i] <= h)]


@dataclass
class LoadReport:
    """Measurement-forwarding cost of maintaining every subframework."""

    per_center: np.ndarray
    total: float


def communication_load(g, extents, table=None, degrees=None):
    """Load sum_i sum_{j in V_i} max(0, h_i - g_ij) * delta_j.

    A member j of the ball of center i relays measurements for h_i - g_ij
    hops, once per incident edge, so nodes deep inside large balls dominate.
    Passing weighted degrees gives the smooth variant used by the controller;
    the default integer degrees give 2m when every extent is 1.
    """
    h = np.asarray(extents, dtype=float)
    if h.shape != (g.n,):
        raise ValueError(f"expected {g.n} extents, got shape {h.shape}")
    if (h < 1).any():
        raise ValueError("extents must be at least 1")
    if table is None:
        table = geodesics(g)
    if degrees is None:
        degrees = g.degrees().astype(float)
    degrees = np.asarray(degrees, dtype=float)
    c = np.maximum(0.0, h[:, None] - table.dist)
    per_center = c @ degrees
    return LoadReport(per_center, float(per_center.sum()))
