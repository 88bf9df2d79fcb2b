"""Rigidity matrices, eigenvalue tests and the diameter-based eigenvalue bound.

A framework is a graph together with a d-dimensional realization (d = 2 or 3).
It measures its edges once, when it is built (graphs.separations), and
every rigidity matrix, S, gradient, metric and range reads its r_ij and
lengths.
Infinitesimal rigidity is tested two ways: the rank of the rigidity matrix R
must equal d*n - f, and the (f+1)-th smallest eigenvalue of S = R^T W R must
be positive, where f = d(d+1)/2 counts the rigid-body degrees of freedom.
The two verdicts always agree; a mismatch raises, it is never papered over.
is_infinitesimally_rigid first rejects a graph that is not biconnected:
a cut vertex forces a non-trivial motion at every realization in 2-D and
3-D, so this structural rejection is exact, never a heuristic, and spares
the numeric test on most flexible random draws.  In 2-D it then applies
the one counting rule, flexible_by_count, which the extent search applies
to every ball: fewer induced edges touch one or two members than their
degrees of freedom, so the rank falls short at every realization.  Its
verdict on the remaining draws solves S for eigenvalues only, since it
reads no eigenvector; the SVD rank cross-check still runs on every one
of them.
rigidity_spectrum is the one verdict on an S, for whole frameworks and
hop-balls alike: the shared read-only TOO_SMALL for an S of at most d
nodes, whose framework rigidity_report and is_infinitesimally_rigid
refuse (FrameworkTooSmallError), and otherwise rho against one threshold,
REL_TOL relative to the largest eigenvalue; the rank test reads it too.
Every S it is given is assembled by d x d blocks, S = sum over edges of
w r r^T, by a GramLayout: each edge's signed blocks are formed once
(edge_blocks), and one gather and one bincount build the S of one
framework or of many stacked balls, with no dense R.
The dense R (rigidity_matrix) and R^T W R (symmetric_rigidity_matrix) stay
as the reference the blocks are tested against and for the SVD rank test.
Every dense solve runs with BLAS on one thread, and a state build's batch
may share its solves with a worker thread: see _cores.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg as sla

from . import _cores
from .graphs import geodesics, is_biconnected, separations

# Zero-eigenvalue tolerance, relative to the largest eigenvalue of S.  Over
# 20,160 balls of sampled 2-D and 3-D networks, 2,819 of the 2,821 flexible
# verdicts were roundoff (rho < 1e-14 * lam_max), two were weak balls at
# 1.0-1.75e-9 * lam_max, and the smallest rigid ball had rho = 2.4e-7 *
# lam_max.  So the threshold sits about 6x above the largest flexible rho
# and about 24x below the smallest rigid one.
REL_TOL = 1e-8

# Relative gap under which the rigidity eigenvalue is treated as multiple and
# its eigenvector only defines a subgradient direction.
DEGENERATE_GAP_REL = 1e-6

_COINCIDENT = 1e-12


class FrameworkTooSmallError(ValueError):
    """Rigidity tests need n >= d + 1 nodes."""


class CoincidentNodesError(ValueError):
    """Two adjacent nodes sit at one point, so their edge has no direction."""


class RankMismatchError(RuntimeError):
    """The rank test and the eigenvalue test disagree on one framework."""


def rigid_body_dim(d):
    """Dimension f of the trivial-motion space in d dimensions."""
    return d * (d + 1) // 2


class Framework:
    """A graph realized by positions in the plane or in space.

    The construction measures every edge once and keeps what it measured:
    units holds r_ij = (x_i - x_j)/|x_i - x_j| and lengths |x_i - x_j|, one
    row per edge in edge_array order.  positions is the framework's own
    copy, and positions, units and lengths are read-only, so the edge
    geometry always matches the positions.  Positions and edge lengths
    must be finite float64 values, or the construction is a ValueError.
    """

    def __init__(self, graph, positions):
        positions = np.array(positions, dtype=float)
        if positions.ndim != 2:
            raise ValueError("positions must be an n x d array")
        dim = positions.shape[1]
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if len(positions) != graph.n:
            raise ValueError(
                f"{len(positions)} positions for a graph of {graph.n} nodes")
        if not np.isfinite(positions).all():
            raise ValueError("positions must be finite")
        e = graph.edge_array()
        diff, lengths = separations(positions[e[:, 0]], positions[e[:, 1]])
        if not np.isfinite(lengths).all():
            k = int(np.argmax(~np.isfinite(lengths)))
            raise ValueError(
                f"the length of edge {graph.edges[k]} overflows float64")
        if (lengths < _COINCIDENT).any():
            k = int(np.argmin(lengths))
            raise CoincidentNodesError(
                f"coincident adjacent nodes on edge {graph.edges[k]}")
        self.graph = graph
        self.positions = _read_only(positions)
        self.units = _read_only(diff / lengths[:, None])
        self.lengths = _read_only(lengths)
        self.dim = dim

    @property
    def n(self):
        return self.graph.n


def _read_only(a):
    a.flags.writeable = False
    return a


def rigidity_matrix(fw):
    """m x dn matrix whose row for edge {i,j} holds r_ij in block i and -r_ij in block j."""
    d, n, e = fw.dim, fw.n, fw.graph.edge_array()
    R = np.zeros((len(e), d * n))
    rows = np.arange(len(e))[:, None]
    R[rows, e[:, 0, None] * d + np.arange(d)] = fw.units
    R[rows, e[:, 1, None] * d + np.arange(d)] = -fw.units
    return R


def _checked_weights(weights, m):
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"expected {m} weights, got shape {w.shape}")
    if (w <= 0).any():
        raise ValueError("weights must be positive")
    return w


def symmetric_rigidity_matrix(R, weights):
    """Dense S = R^T W R, symmetrized, for positive weights (all-ones: normalized case).

    The reference that the block assembly of GramLayout is checked against.
    """
    w = _checked_weights(weights, R.shape[0])
    S = R.T @ (w[:, None] * R)
    return 0.5 * (S + S.T)


# which of an edge's two signed blocks each of its four blocks (a, a),
# (b, b), (a, b), (b, a) reads (0: +, 1: -)
_BLOCK_NEGATED = np.array([0, 0, 1, 1])


def edge_blocks(units, weights=None):
    """The signed d x d blocks +w r r^T and -w r r^T of every edge, an
    (m, 2, d, d) array, from each edge's unit vector and weight (None:
    unweighted).

    A block entry is w * (r_p * r_q), symmetric bit for bit, and its
    negation is exact.
    """
    blocks = units[:, :, None] * units[:, None, :]
    if weights is not None:
        blocks = weights[:, None, None] * blocks
    return np.stack([blocks, -blocks], axis=1)


@dataclass(frozen=True, eq=False)
class GramLayout:
    """Where the d x d blocks of every edge land in one or more stacked S.

    Ball t of a BallStack (a whole framework is a stack of one ball)
    has S of side sides[t] = d * n_t, its rows in the order of the ball's
    members, and the balls' S lie end to end in one flat array.
    Each block entry of an edge of a ball has its flat position in index
    and, in src, its place in the framework's edge_blocks: the four blocks
    aa, bb, ab, ba of each of the ball's edges, each row-major, edge after
    edge.  Every S entry therefore sums its terms in edge order, and a
    ball's S comes out the same bits whatever it is stacked with.  Both
    arrays are read-only.
    """

    sides: np.ndarray
    index: np.ndarray
    src: np.ndarray

    @classmethod
    def of(cls, d, counts, edge, ends, ball):
        """Layout of framework edges edge[k] joining rows ends[k] of ball
        ball[k]; counts[t] is ball t's size."""
        edge = np.asarray(edge, dtype=np.intp)
        sides = d * np.asarray(counts, dtype=np.intp)
        sizes = sides * sides
        span = max(sizes.sum(), 2 * d * d * (edge.max(initial=-1) + 1))
        dtype = np.int32 if span <= np.iinfo(np.int32).max else np.intp
        # entry (p, q) of block (r, c) of an edge of ball t lies at flat
        # start[t] + (d * r + p) * side[t] + d * c + q.  Each block's corner
        # (p = q = 0) and each row's offset are formed once, in dtype and
        # edge-last, so that one broadcast adds them up along the edges (a
        # broadcast along the d entries of a row runs 3-4 times slower);
        # one transposing copy then lays them out edge after edge.  No
        # partial sum exceeds span.
        side = sides.astype(dtype)[ball]
        a, b = (d * ends.T).astype(dtype)
        # the flat starts of the rows of a and of b
        ra = (np.cumsum(sizes) - sizes).astype(dtype)[ball]
        rb = b * side + ra
        ra += a * side
        corner = np.stack([ra + a, rb + b, ra + b, rb + a])
        rows = np.arange(d, dtype=dtype)[:, None] * side
        index = (corner[:, None, None] + rows[:, None]
                 + np.arange(d, dtype=dtype)[:, None])
        # entry (p, q) of the signed block s of edge k is edge_blocks's
        # flat (2k + s) * d * d + p * d + q, laid out edge after edge
        block = (_BLOCK_NEGATED[:, None] * d * d + np.arange(d * d)).ravel()
        src = ((2 * d * d) * edge).astype(dtype)[:, None] + block.astype(dtype)
        layout = cls(sides, index.transpose(3, 0, 1, 2).ravel(), src.ravel())
        for a in (layout.sides, layout.index, layout.src):
            a.setflags(write=False)
        return layout

    def grams(self, blocks):
        """Each ball's S = sum of w r r^T over its edges, gathered from
        the framework's edge_blocks; an off-diagonal block holds one
        edge's block, so every S is exactly symmetric."""
        sizes = self.sides * self.sides
        # np.take reads an int32 index faster than blocks.ravel()[src] does
        flat = np.bincount(self.index, np.take(blocks, self.src),
                           minlength=sizes.sum())
        starts = np.cumsum(sizes) - sizes
        return [flat[o:o + k * k].reshape(k, k)
                for o, k in zip(starts.tolist(), self.sides.tolist())]


def _framework_layout(d):
    def build(graph):
        m = graph.m
        return GramLayout.of(d, [graph.n], np.arange(m), graph.edge_array(),
                             np.zeros(m, dtype=np.intp))
    return build


def framework_gram(fw):
    """Block-assembled unweighted S of a whole framework, by the layout
    kept on its graph."""
    layout = fw.graph.cached("framework_layout", fw.dim,
                             _framework_layout(fw.dim))
    return layout.grams(edge_blocks(fw.units))[0]


@dataclass(frozen=True)
class Spectrum:
    """Rigidity eigendata of one S; rigid is rho > tol_abs.

    tol_abs = REL_TOL * max(lam_max, 0), and nu is the rigidity
    eigenvector, largest entry positive, or None.
    """

    eigenvalues: np.ndarray
    rho: float
    nu: np.ndarray
    lam_max: float
    gap: float
    tol_abs: float
    rigid: bool
    degenerate: bool


# the verdict on every S of at most d nodes, too small to take the
# eigenvalue test: no eigenvalues, no rho, not rigid
TOO_SMALL = Spectrum(_read_only(np.empty(0)), None, None, np.nan, np.nan,
                     np.nan, False, False)


@_cores.one_blas_thread()
def rigidity_spectrum(S, d, vectors=True):
    """The rigidity eigenvalue test on S, by eigh or, without vectors,
    eigvalsh; TOO_SMALL when S has at most d nodes.

    The two LAPACK drivers differ in the last bits, so each caller keeps
    the one it has always used.  Either solves with BLAS on one thread, so
    its bits do not depend on the process's thread count.
    """
    return _spectrum(S, d, vectors, np.linalg.eigvalsh)


def _spectrum(S, d, vectors, eigvalsh):
    """rigidity_spectrum inside a one_blas_thread block that the caller
    holds, solved without vectors by eigvalsh: numpy's, or
    _cores._gil_free_eigvalsh, which gives the same bits."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0] // d
    if S.shape != (n * d, n * d):
        raise ValueError("S must be dn x dn")
    if n <= d:
        return TOO_SMALL
    f = rigid_body_dim(d)
    nu = None
    if vectors:
        vals, vecs = np.linalg.eigh(S)
        nu = vecs[:, f]
        if nu[np.argmax(np.abs(nu))] < 0:
            nu = -nu
    else:
        vals = eigvalsh(S)
    rho, lam_max = float(vals[f]), float(vals[-1])
    tol_abs = REL_TOL * max(lam_max, 0.0)
    gap = float(vals[f + 1] - vals[f]) if len(vals) > f + 1 else np.inf
    return Spectrum(
        vals, rho, nu, lam_max, gap, tol_abs, rho > tol_abs,
        bool(gap <= DEGENERATE_GAP_REL * max(lam_max, 1e-300)),
    )


@_cores.one_blas_thread()
def _spectra(grams, d, vectors):
    """The Spectrum of each S in grams, in order, by rigidity_spectrum's
    test; an S solved without vectors, as vectors[j] says, gets
    eigenvalues only.

    Two S or more go to the caller and the worker thread
    (_cores.threaded_map) at a cost of side^3, twice that for eigh, where
    the process may use two cores and has the GIL-free kernel, which then
    solves every eigenvalue-only S; elsewhere the caller solves them in
    turn with numpy.  An S gives the same bits either way.
    """
    kernel = (len(grams) > 1 and _cores.usable_cores() > 1
              and _cores._gil_free_eigvalsh())
    if not kernel:
        return [_spectrum(S, d, v, np.linalg.eigvalsh)
                for S, v in zip(grams, vectors)]
    return _cores.threaded_map(
        lambda j: _spectrum(grams[j], d, vectors[j], kernel),
        [len(S) ** 3 * (2 if v else 1) for S, v in zip(grams, vectors)])


@dataclass(eq=False)
class RigidityReport:
    """Spectral rigidity summary of a framework's unweighted S, with the rank of R.

    nu is None in a report solved without eigenvectors.
    """

    rank_R: int
    eigenvalues: np.ndarray
    rho: float
    nu: np.ndarray
    rigid: bool
    f: int
    degenerate: bool
    tol_abs: float

    def to_json(self):
        nu = None if self.nu is None else [float(v) for v in self.nu]
        return json.dumps({**asdict(self),
                           "eigenvalues": [float(v) for v in self.eigenvalues],
                           "nu": nu})


def _require_testable(fw):
    """FrameworkTooSmallError unless fw has more than d nodes."""
    if fw.n <= fw.dim:
        raise FrameworkTooSmallError(
            f"framework too small for the rigidity eigenvalue test "
            f"(n={fw.n} <= d={fw.dim})"
        )


@_cores.one_blas_thread()
def rigidity_report(fw, vectors=True):
    """Full spectrum, rank and rigidity verdict of the unweighted S; rank and
    eigenvalue tests must agree.

    Without vectors, S is solved by eigvalsh and nu is None; the rank
    cross-check runs either way.  A framework of at most d nodes is a
    FrameworkTooSmallError.
    """
    _require_testable(fw)
    d, n = fw.dim, fw.n
    f = rigid_body_dim(d)
    R = rigidity_matrix(fw)
    spectrum = _spectrum(framework_gram(fw), d, vectors, np.linalg.eigvalsh)
    sv = sla.svdvals(R) if R.shape[0] else np.zeros(0)
    sv_max = float(sv[0]) if len(sv) else 0.0
    rank_R = int((sv > np.sqrt(REL_TOL) * sv_max).sum()) if sv_max > 0 else 0
    if spectrum.rigid != (rank_R == d * n - f):
        raise RankMismatchError(
            f"rank test ({rank_R} vs {d * n - f}) and eigenvalue test "
            f"(rho={spectrum.rho:.3e}, tol={spectrum.tol_abs:.3e}) disagree"
        )
    return RigidityReport(rank_R, spectrum.eigenvalues, spectrum.rho,
                          spectrum.nu, spectrum.rigid, f, spectrum.degenerate,
                          spectrum.tol_abs)


@_cores.one_blas_thread()
def flexible_by_count(graph, inside, d):
    """Whether each ball, a row of the (balls x n) boolean membership mask
    inside, is flexible at every realization by counting its induced edges
    alone, in 2-D; in 3-D no ball is.

    A ball of k nodes is rigid only if R, one row per induced edge, has
    rank 2k - 3.  Split R's rows into the edges that touch a set X of
    members and the rest: the rest is the rigidity matrix of the other
    k - |X| members, of rank at most 2(k - |X|) - 3 when they are two or
    more.  So when fewer than 2|X| edges touch X, R's rank is at most
    2k - 4 wherever the nodes are.  Two such sets are counted: a member
    with at most one induced edge (k > 2), and two adjacent members with
    two induced edges each, three edges in all (k > 3).  The induced
    degrees are float32 products with the graph's kept adjacency, exact
    below 2^24.
    """
    inside = np.asarray(inside, dtype=bool)
    if d != 2:
        return np.zeros(len(inside), dtype=bool)
    adjacency = graph.adjacency()
    degree = inside.astype(np.float32) @ adjacency
    size = inside.sum(axis=1)
    loose = (inside & (degree <= 1)).any(axis=1)
    two = inside & (degree == 2)
    paired = (two & (two.astype(np.float32) @ adjacency > 0)).any(axis=1)
    return (loose & (size > 2)) | (paired & (size > 3))


def is_infinitesimally_rigid(fw):
    """True iff every zero-strain velocity field is a rigid-body motion.

    Frameworks with n <= d are rejected because the trivial-motion
    dimension assumption behind the lambda_{f+1} test breaks down there.
    Two structural rules report a framework as not rigid without a
    numeric test, and exactly so.  First, a graph that is not biconnected
    (disconnected, or with a cut vertex).  If a cut vertex v splits the
    graph into two sides of n_A and n_B nodes, each counting v (n_A + n_B
    = n + 1), R's rank is at most the sum of the sides' ranks, and a side
    of k >= 2 nodes has rank at most d*k - f (one more for k = 2 in 3-D).
    The sum stays below d*n - f in 2-D and 3-D at every realization: one
    side can turn about v.  Second, in 2-D, a framework that
    flexible_by_count finds flexible as a ball of all its nodes: after
    the first rule, two adjacent nodes of degree 2 in more than 3 nodes.
    So the numeric test could never accept either.  Every other framework
    gets rigidity_report's verdict, solved for eigenvalues only (the
    verdict reads no eigenvector), and the rank of R still cross-checks
    the eigenvalue test.
    """
    _require_testable(fw)
    if not is_biconnected(fw.graph) or flexible_by_count(
            fw.graph, np.ones((1, fw.n), dtype=bool), fw.dim)[0]:
        return False
    return rigidity_report(fw, vectors=False).rigid


def diameter_eigenvalue_bound(m, D):
    """Upper bound 2m/D^2 on the normalized rigidity eigenvalue of a connected framework."""
    if D < 1:
        raise ValueError("diameter must be at least 1")
    return 2.0 * m / D**2


def diameter_bound_certificate(g):
    """Rayleigh quotient of the Laplacian at the hop-count test vector.

    Picks a pair (p, q) realizing the diameter D, sets u_i = g_pi / D and
    mean-centers it.  The returned quotient sits between lambda_2(L) and
    2m/D^2, certifying the diameter bound without any eigensolve.
    """
    table = geodesics(g)
    D = table.diameter()
    p = int(np.argmax(table.eccentricities()))
    u = table.dist[p] / D
    ut = u - u.mean()
    num = 0.0
    for i, j in g.edges:
        num += (u[i] - u[j]) ** 2
    den = float(ut @ ut)
    return num / den
