"""Hop-limited subframeworks: rigidity extents, inclusion groups, communication load.

Each node i looks only at its hop-ball V_i = {j : g_ij <= h_i} and the edges
induced there.  The smallest h_i whose ball is rigid is the rigidity extent of
i; when every node has one, local rigidity everywhere certifies rigidity of
the whole framework, so maintenance can run on subframeworks alone.

Hop-balls are rows of one boolean membership mask, inside[t, j] = g_tj <=
h_t, read off the graph's geodesic table, and rigidity.stack_balls is the
one place that turns such a mask into balls laid end to end, with the
layout of their S (a BallStack): the per-ball slopes, the assembly of
every ball's S by d x d blocks, a group of balls per bincount, the extent
search and the message engine's centers all read their balls from one.
What a graph and the frozen extents fix for every ball (the membership
mask, load coefficients, flood ttls and the stack) is a BallSet, computed
once per Graph and kept as its ball_set record (Graph.record).  The
extent search stacks the balls of all centers still searching at one
radius the same way and tests them as one batch on one BLAS thread:
rigidity's counting rule
(flexible_by_count) proves some flexible, and they are never stacked;
its Cholesky certificate (rigid_by_cholesky) proves most of the rest
rigid; and only the balls that neither decides are solved, each by one
eigvalsh and all of them by rigidity's one verdict pass
(rigidity._verdicts; not rigid for a ball of at most d nodes).  A proven
ball is rigid by that verdict too, so the extents are the same.
The load coefficients max(0, h_j - g_ji) are one table, the Graph's
load_table record under the extents as _extents reads them, that the
BallSet and communication_load both read.
"""

from dataclasses import dataclass

import numpy as np

from . import _cores
from ._checks import _node_ids
from .graphs import geodesics, induced_subgraph
from .rigidity import (
    BallStack, Framework, _solve, _verdicts, flexible_by_count,
    rigid_by_cholesky, stack_balls
)


def extract_subframework(fw, center, extent):
    """Framework induced by the ball of the given hop radius, a whole hop
    count of at least 0, around center, with local node ids, and the
    sorted global ids of its nodes."""
    center = _node_ids(center, fw.n, "center")
    [extent] = _extents([extent], 1, least=0)
    nodes = np.flatnonzero(geodesics(fw.graph).dist[center] <= extent)
    sub, nodes = induced_subgraph(fw.graph, nodes)
    return Framework(sub, fw.positions[nodes]), nodes


@dataclass(frozen=True, eq=False)
class BallSet:
    """What a graph and the frozen extents fix for every node's ball.

    inside[j, i] = g_ji <= h_j says whether node i is in center j's ball.
    c[j, i] = max(0, h_j - g_ji) is node i's load coefficient for center j
    and coeff its column sums; ttl[i] is the widest extent among the
    centers whose balls hold node i, so a flood from i that many hops deep
    reaches all of them.  stack lays the balls end to end in center order,
    with the layout of their S.  Nothing here depends on positions, and
    every array is read-only.
    """

    inside: np.ndarray
    c: np.ndarray
    coeff: np.ndarray
    ttl: np.ndarray
    stack: BallStack


def _extents(extents, n, least=1):
    """The extents as one read-only intp array of n whole hop counts of at
    least least.  A read-only intp array, as every tick passes, is kept;
    any other input is copied, so a caller's own array stays writable."""
    h = np.asarray(extents)
    if h.dtype.kind not in "biuf":
        raise TypeError(f"extents must be numbers, got dtype {h.dtype}")
    if h.shape != (n,):
        raise ValueError(f"expected {n} extents, got shape {h.shape}")
    if not (h >= least).all():  # false for NaN too
        raise ValueError(f"extents must be at least {least}")
    if h.dtype != np.intp or h.flags.writeable:
        with np.errstate(invalid="ignore"):
            whole = h.astype(np.intp)
        # inf, a fraction or a float past intp's range casts to another value
        if not (whole == h).all():
            raise ValueError("extents must be whole hop counts")
        h = whole
        h.setflags(write=False)
    return h


def _load_table(graph, h):
    """c[j, i] = max(0, h_j - g_ji), node i's load coefficient for center j,
    read-only: the builder of the graph's load_table record."""
    c = np.maximum(0.0, h[:, None] - geodesics(graph).dist)
    c.setflags(write=False)
    return c


def _ball_set(graph, extents, d):
    """The builder of the graph's ball_set record (ball_set)."""
    inside = geodesics(graph).dist <= extents[:, None]
    stack = stack_balls(inside, graph.edge_array(), d)
    c = graph.record("load_table", _load_table, extents)
    coeff = c.sum(axis=0)
    ttl = np.where(inside, extents[:, None], 0).max(axis=0)
    for a in (inside, c, coeff, ttl):
        a.setflags(write=False)
    return BallSet(inside, c, coeff, ttl, stack)


def ball_set(graph, extents, d):
    """The BallSet of a graph at these extents in d dimensions, computed
    once and kept on the graph for the latest extents."""
    return graph.record("ball_set", _ball_set, _extents(extents, graph.n), d)


@_cores.one_blas_thread()
def _rigid_balls(fw, inside):
    """Whether the unweighted S of each ball, a row of the membership mask
    inside, passes the eigenvalue test (a ball of at most d nodes does
    not).

    A ball that rigidity.flexible_by_count finds flexible is not rigid at
    any realization, so only the others are stacked and assembled; those
    that rigidity.rigid_by_cholesky proves rigid are rigid by the
    eigenvalue test too, so only the rest are solved."""
    rigid = np.zeros(len(inside), dtype=bool)
    test = np.flatnonzero(~flexible_by_count(fw.graph, inside, fw.dim))
    grams = stack_balls(inside[test], fw.graph.edge_array(),
                        fw.dim).grams(fw.units)
    proven = rigid_by_cholesky(grams, fw.dim)
    rigid[test] = proven
    solve = np.flatnonzero(~proven)
    rigid[test[solve]] = _verdicts(
        [_solve(grams[j], fw.dim, False, np.linalg.eigvalsh) for j in solve],
        fw.dim).rigid
    return rigid


def extent_assignment(fw):
    """Rigidity extent of every node, as an intp array: the smallest hop
    radius whose ball around it is rigid, or 0 when no ball around it is
    (a radius-0 ball is one node and never passes).

    Rigidity of growing balls is not monotone (a pendant node entering the
    ball with a single induced edge breaks it), so every radius is tested
    in turn, and the balls of all nodes still searching at one radius are
    tested together: those that rigidity.flexible_by_count finds flexible
    by their edge counts are not solved, the rest are assembled, and those
    that rigidity.rigid_by_cholesky does not prove rigid are solved as one
    batch.  A node searches at radius h only while some node lies exactly
    h hops away, that is while its ball still grows: from there on its
    subframework never changes again.
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
    h = _extents(extents, fw.n, least=0)
    return bool(_rigid_balls(fw, geodesics(fw.graph).dist <= h[:, None]).all())


def inclusion_group(graph, extents, i):
    """Sorted centers whose subframework contains node i: {j : g_ij <= h_j}."""
    i = _node_ids(i, graph.n, "i")
    h = _extents(extents, graph.n)
    return [int(j) for j in np.flatnonzero(geodesics(graph).dist[i] <= h)]


def communication_load(g, extents):
    """Each center i's load sum_{j in V_i} max(0, h_i - g_ij) * delta_j;
    the network's load is their sum.

    A member j of the ball of center i relays measurements for h_i - g_ij
    hops, once per incident edge, so nodes deep inside large balls dominate.
    With every extent 1 the network's load is 2m.
    """
    c = g.record("load_table", _load_table, _extents(extents, g.n))
    return c @ g.degrees().astype(float)
