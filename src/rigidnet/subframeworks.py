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
all centers still searching at one radius the same way and solves them as
one batch on one BLAS thread, each ball by rigidity's one verdict
(rigidity._spectrum; TOO_SMALL for a ball of at most d nodes), apart from
the balls that rigidity's counting rule (flexible_by_count) already
proves flexible, which it never stacks.  The load
coefficients max(0, h_j - g_ji) are one table, kept on the Graph under the
extents, that the BallSet and communication_load both read.
"""

from dataclasses import dataclass

import numpy as np

from . import _cores
from .graphs import geodesics, induced_subgraph
from .rigidity import (
    Framework, GramLayout, _spectrum, edge_blocks, flexible_by_count
)


def extract_subframework(fw, center, extent):
    """Framework induced by the ball of the given hop radius around center,
    with local node ids, and the sorted global ids of its nodes."""
    if extent < 0:
        raise ValueError("extent must be nonnegative")
    nodes = np.flatnonzero(geodesics(fw.graph).dist[center] <= extent)
    sub, nodes = induced_subgraph(fw.graph, nodes)
    return Framework(sub, fw.positions[nodes]), nodes


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
    balls, n = inside.shape
    a, b = edge_endpoints.T
    member = np.flatnonzero(inside)
    offsets = np.zeros(balls + 1, dtype=np.intp)
    np.cumsum(np.bincount(member // n, minlength=balls), out=offsets[1:])
    # row[t * n + j]: the stack row of node j in ball t, where j is a member
    row = np.empty(balls * n, dtype=np.intp)
    row[member] = np.arange(len(member))
    ball, edge = np.divmod(np.flatnonzero(inside[:, a] & inside[:, b]),
                           len(a))
    at = ball * n
    ends = np.stack([row[at + a[edge]], row[at + b[edge]]], axis=1)
    return BallStack(nodes=member % n, offsets=offsets, edge=edge, ends=ends,
                     ball=ball)


# Block entries assembled per bincount.  One pass over all the balls of a
# 120-robot network would hold a few MB of temporaries; passes of this size
# keep each temporary near 128 kB at the same speed.
GROUP_ENTRIES = 1 << 14


def stack_layouts(stack, d):
    """GramLayouts of runs of consecutive balls of a stack, each run holding
    at most GROUP_ENTRIES block entries (or one ball alone when it has more)."""
    counts = np.diff(stack.offsets)
    # the block entries through ball t, and each ball's first stack edge
    total = np.cumsum(4 * d * d * np.bincount(stack.ball,
                                                minlength=len(counts)))
    first = np.searchsorted(stack.ball, np.arange(len(counts) + 1))
    ends = stack.ends - stack.offsets[stack.ball][:, None]
    layouts, t0 = [], 0
    while t0 < len(counts):
        # the longest run from t0 within GROUP_ENTRIES, one ball at least
        held = total[t0 - 1] + GROUP_ENTRIES if t0 else GROUP_ENTRIES
        t1 = max(t0 + 1, int(np.searchsorted(total, held, side="right")))
        rows = slice(first[t0], first[t1])
        layouts.append(GramLayout.of(d, counts[t0:t1], stack.edge[rows],
                                     ends[rows], stack.ball[rows] - t0))
        t0 = t1
    return tuple(layouts)


def ball_grams(layouts, units, weights=None):
    """Every ball's S, in layout order, from every edge's units and weights:
    the edges' signed blocks are formed once, and each layout gathers its
    own."""
    blocks = edge_blocks(units, weights)
    return [S for layout in layouts for S in layout.grams(blocks)]


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


def _load_table(graph, extents):
    """c[j, i] = max(0, h_j - g_ji), node i's load coefficient for center j,
    read-only, computed once and kept on the graph for the latest extents."""
    h = np.asarray(extents, dtype=float)

    def build(graph):
        c = np.maximum(0.0, h[:, None] - geodesics(graph).dist)
        c.setflags(write=False)
        return c
    return graph.cached("load_table", h.tobytes(), build)


def _build_ball_set(extents, d):
    def build(graph):
        inside = geodesics(graph).dist <= extents[:, None]
        stack = stack_balls(inside, graph.edge_array())
        layouts = stack_layouts(stack, d)
        c = _load_table(graph, extents)
        coeff = c.sum(axis=0)
        ttl = np.where(inside, extents[:, None], 0).max(axis=0)
        for a in (inside, c, coeff, ttl, *vars(stack).values()):
            a.setflags(write=False)
        return BallSet(inside, c, coeff, ttl, stack, layouts)
    return build


def ball_set(graph, extents, d):
    """The BallSet of a graph at these extents in d dimensions, computed
    once and kept on the graph for the latest extents."""
    extents = np.asarray(extents, dtype=np.intp)
    return graph.cached("ball_set", (d, extents.tobytes()),
                        _build_ball_set(extents, d))


@_cores.one_blas_thread()
def _rigid_balls(fw, inside):
    """Whether the unweighted S of each ball, a row of the membership mask
    inside, passes the eigenvalue test (rigidity.TOO_SMALL for a ball of
    at most d nodes does not).

    A ball that rigidity.flexible_by_count finds flexible is not rigid at
    any realization, so only the others are stacked, assembled and
    solved."""
    rigid = np.zeros(len(inside), dtype=bool)
    solve = np.flatnonzero(~flexible_by_count(fw.graph, inside, fw.dim))
    layouts = stack_layouts(
        stack_balls(inside[solve], fw.graph.edge_array()), fw.dim)
    rigid[solve] = [_spectrum(S, fw.dim, False, np.linalg.eigvalsh).rigid
                    for S in ball_grams(layouts, fw.units)]
    return rigid


def extent_assignment(fw):
    """Rigidity extent of every node, as an intp array: the smallest hop
    radius whose ball around it is rigid, or 0 when no ball around it is
    (a radius-0 ball is one node and never passes).

    Rigidity of growing balls is not monotone (a pendant node entering the
    ball with a single induced edge breaks it), so every radius is tested
    in turn, and the balls of all nodes still searching at one radius are
    tested together: those that rigidity.flexible_by_count finds flexible
    by their edge counts are not solved, and the rest are assembled and
    solved as one batch.  A node searches at radius h only while some node
    lies exactly h hops away, that is while its ball still grows: from
    there on its subframework never changes again.
    """
    dist = geodesics(fw.graph).dist
    found = np.zeros(fw.n, dtype=np.intp)
    pending = np.arange(fw.n)
    for h in range(1, fw.n + 1):
        pending = pending[(dist[pending] == h).any(axis=1)]
        if not len(pending):
            break
        rigid = _rigid_balls(fw, dist[pending] <= h)
        found[pending[rigid]] = h
        pending = pending[~rigid]
    return found


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


def communication_load(g, extents):
    """Each center i's load sum_{j in V_i} max(0, h_i - g_ij) * delta_j;
    the network's load is their sum.

    A member j of the ball of center i relays measurements for h_i - g_ij
    hops, once per incident edge, so nodes deep inside large balls dominate.
    With every extent 1 the network's load is 2m.
    """
    h = np.asarray(extents, dtype=float)
    if h.shape != (g.n,):
        raise ValueError(f"expected {g.n} extents, got shape {h.shape}")
    if (h < 1).any():
        raise ValueError("extents must be at least 1")
    return _load_table(g, h) @ g.degrees().astype(float)
