"""Hop-limited subframeworks: rigidity extents, inclusion groups, communication load.

Each node i looks only at its hop-ball V_i = {j : g_ij <= h_i} and the edges
induced there.  The smallest h_i whose ball is rigid is the rigidity extent of
i; when every node has one, local rigidity everywhere certifies rigidity of
the whole framework, so maintenance can run on subframeworks alone.

Hop-balls are rows of one boolean membership mask, inside[t, j] = g_tj <=
h_t, read off the graph's geodesic table, and stack_balls is the one place
that turns such a mask into balls laid end to end (a BallStack): the
per-ball slopes, the GramLayouts that assemble every ball's S by d x d
blocks, a group of balls per bincount, the extent search and the message
engine's centers all read their balls from one.  What a graph and the
frozen extents fix for every ball (the membership mask, load coefficients,
flood ttls, the stack and its layouts) is a BallSet, computed once per
Graph and kept on it (ball_set).  The extent search stacks the balls of
all centers still searching at one radius the same way.
"""

from dataclasses import dataclass, field

import numpy as np

from .graphs import geodesics, induced_subgraph
from .rigidity import Framework, GramLayout, rigidity_spectrum


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


def extract_subframework(fw, center, extent):
    """Framework induced by the ball of the given hop radius around center."""
    if extent < 0:
        raise ValueError("extent must be nonnegative")
    nodes = np.flatnonzero(geodesics(fw.graph).dist[center] <= extent)
    sub, nodes = induced_subgraph(fw.graph, nodes)
    local = Framework(sub, fw.positions[nodes], fw.dim)
    return Subframework(center, extent, nodes, local)


@dataclass(frozen=True, eq=False)
class BallStack:
    """Balls laid end to end, one row per member of each ball.

    Rows offsets[t]:offsets[t + 1] are ball t's members nodes[...], in
    ascending order.  For every induced edge of every ball, balls in
    order and each ball's edges in edge order, edge is its index in the
    framework, ends the rows of its two endpoints and ball its ball.
    """

    nodes: np.ndarray
    offsets: np.ndarray
    edge: np.ndarray
    ends: np.ndarray
    ball: np.ndarray


def stack_balls(inside, edge_endpoints):
    """The BallStack of the balls whose members are the true entries of the
    rows of the (balls x n) boolean mask inside, in row order."""
    nodes = np.nonzero(inside)[1]
    offsets = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
    # a member's row within its ball: how many members precede it
    local = np.cumsum(inside, axis=1) - 1
    ball, edge = np.nonzero(inside[:, edge_endpoints[:, 0]]
                            & inside[:, edge_endpoints[:, 1]])
    ends = local[ball[:, None], edge_endpoints[edge]]
    return BallStack(nodes=nodes, offsets=offsets, edge=edge,
                     ends=ends + offsets[ball][:, None], ball=ball)


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

    inside[j, i] = g_ji <= h_j says whether node i is in center j's ball.
    c[j, i] = max(0, h_j - g_ji) is node i's load coefficient for center j
    and coeff its column sums; ttl[i] is the widest extent among the
    centers whose balls hold node i, so a flood from i that many hops deep
    reaches all of them.  stack lays the balls end to end in center order,
    and layouts assemble their S group by group of consecutive balls.
    Nothing here depends on positions, and every array is read-only.
    """

    inside: np.ndarray
    c: np.ndarray
    coeff: np.ndarray
    ttl: np.ndarray
    stack: BallStack
    layouts: tuple

    def grams(self, units, weights=None):
        """Every ball's S, in center order, from every edge's units and weights."""
        return ball_grams(self.layouts, units, weights)


def _build_ball_set(extents, d):
    def build(graph):
        dist = geodesics(graph).dist
        inside = dist <= extents[:, None]
        stack = stack_balls(inside, graph.edge_array())
        layouts = stack_layouts(stack, d)
        c = np.maximum(0.0, extents[:, None] - dist)
        coeff = c.sum(axis=0)
        ttl = np.where(inside, extents[:, None], 0).max(axis=0)
        arrays = [inside, c, coeff, ttl, *vars(stack).values()]
        for layout in layouts:
            arrays += [layout.sides, layout.edge, layout.index]
        for a in arrays:
            a.setflags(write=False)
        return BallSet(inside, c, coeff, ttl, stack, layouts)
    return build


def ball_set(graph, extents, d):
    """The BallSet of a graph at these extents in d dimensions, computed
    once and kept on the graph for the latest extents."""
    extents = np.asarray(extents, dtype=np.intp)
    return graph.cached("ball_set", (d, extents.tobytes()),
                        _build_ball_set(extents, d))


def ball_spectrum(S, d, vectors=True):
    """Spectrum of a ball's S, or None when the ball is too small to test."""
    if S.shape[0] <= d * d:
        return None
    return rigidity_spectrum(S, d, vectors)


def _rigid_balls(fw, inside):
    """Whether the unweighted S of each ball, a row of the membership mask
    inside, passes the eigenvalue test."""
    # balls with too few nodes cannot pass the eigenvalue test; they count
    # as not rigid rather than erroring
    layouts = stack_layouts(stack_balls(inside, fw.graph.edge_array()), fw.dim)
    spectra = [ball_spectrum(S, fw.dim, vectors=False)
               for S in ball_grams(layouts, fw.units)]
    return np.array([s is not None and s.rigid for s in spectra], dtype=bool)


def rigidity_extent(fw, center):
    """Smallest hop radius whose ball around center is rigid, or None.

    Rigidity of growing balls is not monotone (a pendant node entering the
    ball with a single induced edge breaks it), so every radius is tested in
    turn.  The scan stops once the ball stops growing: from there on the
    subframework never changes again.
    """
    return _extents(fw, [center])[0]


def _extents(fw, centers):
    """rigidity_extent of every center, radius by radius: the balls of all
    centers still searching at one radius are assembled together.  A
    center searches at radius h only while some node lies exactly h hops
    away, that is while its ball still grows."""
    dist = geodesics(fw.graph).dist[centers]
    found = [None] * len(dist)
    pending = np.arange(len(dist))
    for h in range(1, fw.n + 1):
        pending = pending[(dist[pending] == h).any(axis=1)]
        if not len(pending):
            break
        rigid = _rigid_balls(fw, dist[pending] <= h)
        for k in pending[rigid].tolist():
            found[k] = h
        pending = pending[~rigid]
    return found


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


def extent_assignment(fw):
    """Rigidity extent of every node."""
    return ExtentAssignment(_extents(fw, np.arange(fw.n)))


def verify_extents(fw, extents):
    """True iff the ball of every node at its assigned radius is rigid."""
    if len(extents) != fw.n:
        raise ValueError(f"expected {fw.n} extents, got {len(extents)}")
    # int() rejects a None or NaN extent instead of masking its ball empty
    h = np.array([int(v) for v in extents], dtype=np.intp)
    return bool(_rigid_balls(fw, geodesics(fw.graph).dist <= h[:, None]).all())


def inclusion_group(graph, extents, i):
    """Sorted centers whose subframework contains node i: {j : g_ij <= h_j}."""
    h = np.asarray(extents, dtype=float)
    return [int(j) for j in np.flatnonzero(geodesics(graph).dist[i] <= h)]


@dataclass
class LoadReport:
    """Measurement-forwarding cost of maintaining every subframework."""

    per_center: np.ndarray
    total: float


def communication_load(g, extents, degrees=None):
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
    if degrees is None:
        degrees = g.degrees().astype(float)
    degrees = np.asarray(degrees, dtype=float)
    c = np.maximum(0.0, h[:, None] - geodesics(g).dist)
    per_center = c @ degrees
    return LoadReport(per_center, float(per_center.sum()))
