"""Hop-limited subframeworks: rigidity extents, inclusion groups, communication load.

Each node i looks only at its hop-ball V_i = {j : g_ij <= h_i} and the edges
induced there.  The smallest h_i whose ball is rigid is the rigidity extent of
i; when every node has one, local rigidity everywhere certifies rigidity of
the whole framework, so maintenance can run on subframeworks alone.
"""

from dataclasses import dataclass, field

import numpy as np

from .graphs import GeodesicTable, induced_subgraph
from .rigidity import (
    REL_TOL,
    Framework,
    edge_unit_vectors,
    rigidity_matrix,
    rigidity_spectrum,
    weighted_gram,
)


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
        table = GeodesicTable.compute(fw.graph)
    nodes = table.ball(center, extent)
    sub, nodes = induced_subgraph(fw.graph, nodes)
    local = Framework(sub, fw.positions[nodes], fw.dim)
    return Subframework(center, extent, nodes, local)


@dataclass
class SubframeworkState:
    """Ball of one center as index masks into its framework, plus its eigendata.

    local maps a node to its row among the sorted nodes (-1 outside) and
    edge_idx lists the edges with both endpoints inside.
    """

    center: int
    nodes: np.ndarray
    local: np.ndarray
    edge_idx: np.ndarray
    rho: float = None
    nu: np.ndarray = None
    lam_max: float = 0.0
    gap: float = np.inf
    rigid: bool = False
    degenerate: bool = False

    @classmethod
    def of(cls, edge_endpoints, n, center, nodes):
        nodes = np.asarray(nodes, dtype=np.intp)
        local = np.full(n, -1, dtype=np.intp)
        local[nodes] = np.arange(len(nodes))
        in_ball = local >= 0
        edge_idx = np.flatnonzero(in_ball[edge_endpoints[:, 0]]
                                  & in_ball[edge_endpoints[:, 1]])
        return cls(center, nodes, local, edge_idx)


def ball_structures(graph, extents, table):
    """Index-mask ball of every node at its extent."""
    e = graph.edge_array()
    return [SubframeworkState.of(e, graph.n, j, table.ball(j, int(extents[j])))
            for j in range(graph.n)]


def ball_spectrum(fw, ball, units, weights=None, tol=REL_TOL, vectors=True):
    """Spectrum of a ball's S from every edge's units and weights (None:
    unweighted), or None when the ball is too small to test."""
    if len(ball.nodes) <= fw.dim:
        return None
    R = rigidity_matrix(fw, units, ball)
    S = weighted_gram(R, None if weights is None else weights[ball.edge_idx])
    return rigidity_spectrum(S, fw.dim, tol, vectors)


def _ball_is_rigid(fw, units, center, nodes, tol):
    # balls with too few nodes cannot pass the eigenvalue test; they count
    # as not rigid rather than erroring
    ball = SubframeworkState.of(fw.graph.edge_array(), fw.n, center, nodes)
    spectrum = ball_spectrum(fw, ball, units, tol=tol, vectors=False)
    return spectrum is not None and spectrum.rigid


def rigidity_extent(fw, center, table=None, tol=REL_TOL):
    """Smallest hop radius whose ball around center is rigid, or None.

    Rigidity of growing balls is not monotone (a pendant node entering the
    ball with a single induced edge breaks it), so every radius is tested in
    turn.  The scan stops once the ball stops growing: from there on the
    subframework never changes again.
    """
    if table is None:
        table = GeodesicTable.compute(fw.graph)
    units, _ = edge_unit_vectors(fw.positions, fw.graph.edge_array())
    prev = None
    for h in range(1, fw.n + 1):
        nodes = table.ball(center, h)
        if nodes == prev:
            return None
        prev = nodes
        if _ball_is_rigid(fw, units, center, nodes, tol):
            return h
    return None


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
        table = GeodesicTable.compute(fw.graph)
    return ExtentAssignment(
        [rigidity_extent(fw, i, table, tol) for i in range(fw.n)]
    )


def verify_extents(fw, extents, table=None, tol=REL_TOL):
    """True iff the ball of every node at its assigned radius is rigid."""
    if len(extents) != fw.n:
        raise ValueError(f"expected {fw.n} extents, got {len(extents)}")
    if table is None:
        table = GeodesicTable.compute(fw.graph)
    units, _ = edge_unit_vectors(fw.positions, fw.graph.edge_array())
    return all(
        _ball_is_rigid(fw, units, i, table.ball(i, int(h)), tol)
        for i, h in enumerate(extents)
    )


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
        table = GeodesicTable.compute(g)
    if degrees is None:
        degrees = g.degrees().astype(float)
    degrees = np.asarray(degrees, dtype=float)
    c = np.maximum(0.0, h[:, None] - table.dist)
    per_center = c @ degrees
    return LoadReport(per_center, float(per_center.sum()))
