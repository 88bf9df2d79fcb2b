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
of them.  The extent search also applies the converse test,
rigid_by_cholesky: a ball whose S, less a few pinned coordinates and less
REL_TOL times a bound on lam_max, has a Cholesky factor is rigid by the
eigenvalue test, so only the balls that neither test decides are solved.
rigidity_spectrum is the one verdict on an S, for whole frameworks and
hop-balls alike: the shared read-only TOO_SMALL for an S of at most d
nodes, whose framework rigidity_report and is_infinitesimally_rigid
refuse (FrameworkTooSmallError), and otherwise rho against one threshold,
REL_TOL relative to the largest eigenvalue; the rank test reads it too.
It is a batch of one: every batch (_spectra, the undecided balls of the
extent search) makes one LAPACK call per S (_solve) and judges them all
in one vectorized pass (_verdicts), the verdict's one formula, into one
record (Verdicts).
Every S it is given is assembled by d x d blocks, S = sum over edges of
w r r^T, by a BallStack (a whole framework is the stack of one ball):
each edge's signed blocks are formed once (edge_blocks), and one gather
and one bincount per group of balls build every S, with no dense R.
The dense R (rigidity_matrix) and R^T W R (symmetric_rigidity_matrix) stay
as the reference the blocks are tested against and for the SVD rank test.
Every dense solve runs with BLAS on one thread, and a state build's batch
may share its solves with a worker thread: see _cores.
"""

import functools
import json
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg as sla

from . import _cores
from ._checks import _number
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
        dim = _number("dim", positions.shape[1], int, "2 or 3")
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
    """m x dn matrix whose row for edge {i,j} holds r_ij in block i and -r_ij in block j.

    Laid out in column (Fortran) order, as LAPACK reads it, so the rank
    test's SVD factors it in place.
    """
    d, n, e = fw.dim, fw.n, fw.graph.edge_array()
    R = np.zeros((len(e), d * n), order="F")
    rows = np.arange(len(e))[:, None]
    R[rows, e[:, 0, None] * d + np.arange(d)] = fw.units
    R[rows, e[:, 1, None] * d + np.arange(d)] = -fw.units
    return R


def symmetric_rigidity_matrix(R, weights):
    """Dense S = R^T W R, symmetrized, for positive finite weights (all-ones: normalized).

    The reference that the block assembly of BallStack is checked against.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (R.shape[0],):
        raise ValueError(f"expected {R.shape[0]} weights, got shape {w.shape}")
    if not ((w > 0) & (w < np.inf)).all():  # false for NaN too
        raise ValueError("weights must be positive and finite")
    S = R.T @ (w[:, None] * R)
    return 0.5 * (S + S.T)


def edge_blocks(units, weights=None):
    """The d x d blocks of every edge's S at its endpoints a and b, an
    (m, 4, d, d) array: +w r r^T at (a, a) and (b, b), -w r r^T at (a, b)
    and (b, a), from each edge's unit vector and weight (None:
    unweighted).

    A block entry is w * (r_p * r_q), symmetric bit for bit, and its
    negation is exact.
    """
    blocks = units[:, :, None] * units[:, None, :]
    if weights is not None:
        blocks = weights[:, None, None] * blocks
    return np.stack([blocks, blocks, -blocks, -blocks], axis=1)


# Block entries assembled per bincount.  One pass over all the balls of a
# 120-robot network would hold a few MB of temporaries; passes of this size
# keep each temporary near 128 kB at the same speed.
GROUP_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)
class BallStack:
    """Balls laid end to end, and where every block entry of their S lands.

    Rows offsets[t]:offsets[t + 1] are ball t's members nodes[...], in
    ascending order.  For every induced edge of every ball, balls in
    order and each ball's edges in edge order, edge is its index in the
    framework, ends the stack rows of its two endpoints and ball its ball.
    Ball t's S has side sides[t] = d * n_t.  Runs of balls of at most
    GROUP_ENTRIES block entries (or one ball alone) form groups, each with
    its S end to end in one flat array; row g of cuts is group g's first
    ball and block entry.  Each induced edge gives its ball's S the 4d^2
    entries of its row of the framework's edge_blocks, blocks aa, bb, ab,
    ba, row-major, and index holds their flat positions in the group, edge
    after edge.  So every S entry sums its terms in edge order, the same
    bits however the balls are stacked or grouped.  Every array is
    read-only.
    """

    nodes: np.ndarray
    offsets: np.ndarray
    edge: np.ndarray
    ends: np.ndarray
    ball: np.ndarray
    sides: np.ndarray
    index: np.ndarray
    cuts: np.ndarray

    def grams(self, units, weights=None):
        """Each ball's S = sum of w r r^T over its edges, from every edge's
        units and weights (None: unweighted): the edges' blocks are formed
        once, and each group takes the rows of its edges and sums them
        with one bincount.  An off-diagonal block holds one edge's block,
        so every S is exactly symmetric."""
        blocks = edge_blocks(units, weights)
        per_edge = int(np.prod(blocks.shape[1:]))
        sides, cuts, grams = self.sides.tolist(), self.cuts.tolist(), []
        for (t0, i0), (t1, i1) in zip(cuts, cuts[1:]):
            edges = self.edge[i0 // per_edge:i1 // per_edge]
            flat = np.bincount(self.index[i0:i1],
                               np.take(blocks, edges, axis=0).ravel(),
                               minlength=sum(k * k for k in sides[t0:t1]))
            o = 0
            for k in sides[t0:t1]:
                grams.append(flat[o:o + k * k].reshape(k, k))
                o += k * k
        return grams


def _stack(d, nodes, offsets, edge, ends, ball):
    """The BallStack of ball t's members nodes[offsets[t]:offsets[t + 1]]
    and of edges edge[k] joining stack rows ends[k] of ball ball[k]."""
    sides = d * np.diff(offsets)
    sizes = sides * sides
    # first[t]: ball t's first block entry.  A group is the longest run of
    # balls from its first within GROUP_ENTRIES, one ball at least.
    first = 4 * d * d * np.searchsorted(ball, np.arange(len(sides) + 1))
    cuts = [0]
    while cuts[-1] < len(sides):
        t1 = np.searchsorted(first, first[cuts[-1]] + GROUP_ENTRIES, "right")
        cuts.append(max(cuts[-1] + 1, int(t1) - 1))
    # each ball's flat start within its group
    start = np.cumsum(sizes) - sizes
    start -= np.repeat(start[cuts[:-1]], np.diff(cuts))
    span = (start + sizes).max(initial=0)
    dtype = np.int32 if span <= np.iinfo(np.int32).max else np.intp
    # entry (p, q) of block (r, c) of an edge of ball t lies at flat
    # start[t] + (d * r + p) * side[t] + d * c + q, r and c counted from
    # the ball's first row.  Block corners (p = q = 0) and row offsets are
    # formed once, in dtype and edge-last, so one broadcast adds them up
    # along the edges (along a row's d entries it runs 3-4 times slower);
    # one transposing copy lays them out edge after edge.  No partial sum
    # exceeds span.
    side = sides.astype(dtype)[ball]
    a, b = (d * (ends - offsets[ball][:, None]).T).astype(dtype)
    # the flat starts of the rows of a and of b
    ra = start.astype(dtype)[ball]
    rb = b * side + ra
    ra += a * side
    corner = np.stack([ra + a, rb + b, ra + b, rb + a])
    rows = np.arange(d, dtype=dtype)[:, None] * side
    index = (corner[:, None, None] + rows[:, None]
             + np.arange(d, dtype=dtype)[:, None])
    stack = BallStack(nodes, offsets, edge, ends, ball, sides,
                      index.transpose(3, 0, 1, 2).ravel(),
                      np.stack([cuts, first[cuts]], axis=1))
    for a in vars(stack).values():
        a.setflags(write=False)
    return stack


def stack_balls(inside, edge_endpoints, d):
    """The BallStack in d dimensions of the balls whose members are the
    true entries of the rows of the (balls x n) boolean mask inside, in
    row order."""
    balls, n = inside.shape
    a, b = edge_endpoints.T
    member = np.flatnonzero(inside)
    offsets = np.searchsorted(member, n * np.arange(balls + 1))
    # row[t * n + j]: the stack row of node j in ball t, where j is a member
    row = np.empty(balls * n, dtype=np.intp)
    row[member] = np.arange(len(member))
    ball, edge = np.divmod(np.flatnonzero(inside[:, a] & inside[:, b]),
                           len(a))
    ends = row[ball[:, None] * n + edge_endpoints[edge]]
    return _stack(d, member % n, offsets, edge, ends, ball)


def _framework_stack(graph, d):
    """The BallStack of one ball of all n nodes, holding every edge."""
    n, m = graph.n, graph.m
    return _stack(d, np.arange(n), np.array([0, n]), np.arange(m),
                  graph.edge_array(), np.zeros(m, dtype=np.intp))


def framework_stack(fw):
    """The BallStack of a whole framework, kept on its graph."""
    return fw.graph.record("framework_stack", _framework_stack, fw.dim)


def framework_gram(fw):
    """Block-assembled unweighted S of a whole framework, by the stack kept
    on its graph."""
    return framework_stack(fw).grams(fw.units)[0]


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


@dataclass(frozen=True, eq=False)
class Verdicts:
    """Each Spectrum field of every S of a batch, in batch order, sliced as
    one: read-only arrays, and tuples of each S's eigenvalues (None for an
    S of at most d nodes, whose numbers read NaN) and of its eigenvector
    nu as LAPACK returned it, unsigned (None without vectors).  The slopes,
    nu^T (dS) nu, are even in nu; only a Spectrum signs it (_spectrum)."""

    eigenvalues: tuple
    rho: np.ndarray
    nu: tuple
    lam_max: np.ndarray
    gap: np.ndarray
    tol_abs: np.ndarray
    rigid: np.ndarray
    degenerate: np.ndarray

    def __getitem__(self, rows):
        return Verdicts(*(a[rows] for a in vars(self).values()))


def _spectrum(v, j):
    """Row j of the Verdicts v as a Spectrum, nu signed, or TOO_SMALL."""
    if v.eigenvalues[j] is None:
        return TOO_SMALL
    return Spectrum(v.eigenvalues[j], float(v.rho[j]), _signed(v.nu[j]),
                    float(v.lam_max[j]), float(v.gap[j]), float(v.tol_abs[j]),
                    bool(v.rigid[j]), bool(v.degenerate[j]))


def rigidity_spectrum(S, d, vectors=True):
    """The rigidity eigenvalue test on S in d = 2 or 3 dimensions, by eigh
    or, without vectors, eigvalsh; TOO_SMALL when S has at most d nodes.

    The two LAPACK drivers differ in the last bits, so each caller keeps
    the one it has always used.  Either solves with BLAS on one thread, so
    its bits do not depend on the process's thread count.  S is a batch
    of one (_spectra), so its verdict is every batch's.  An S with a NaN
    or an inf is a ValueError; no batch is handed one.
    """
    d = _number("d", d, int, "2 or 3")
    S = np.asarray(S, dtype=float)
    n = S.shape[0] // d
    if S.shape != (n * d, n * d):
        raise ValueError("S must be dn x dn")
    if not np.isfinite(S).all():
        raise ValueError("S must be finite")
    return _spectrum(_spectra([S], d, [vectors]), 0)


def _solve(S, d, vectors, eigvalsh):
    """One S's LAPACK call and nothing more: with vectors, eigh's
    eigenvalues and its rigidity eigenvector (column f, copied so that
    no record keeps the whole matrix), else (eigenvalues, None) by
    eigvalsh (numpy's, or _cores._gil_free_eigvalsh, which gives the
    same bits), inside a one_blas_thread block that the caller holds.
    An S of at most d nodes is not solved: None."""
    if len(S) <= d * d:
        return None
    if vectors:
        vals, vecs = np.linalg.eigh(S)
        return vals, vecs[:, rigid_body_dim(d)].copy()
    return eigvalsh(S), None


def _verdicts(solved, d):
    """The Verdicts of the _solve results in solved, by one pass over
    their eigenvalues laid end to end; a None (too small) is f + 2 NaNs.

    rho is the (f+1)-th eigenvalue and lam_max the last; gap is the next
    one's distance from rho, inf without one; rigid is rho > tol_abs =
    REL_TOL * max(lam_max, 0); degenerate is gap <= DEGENERATE_GAP_REL *
    max(lam_max, 1e-300).  Every number is the one a scalar formula gives,
    bit for bit (np.where takes max's place: np.maximum would turn -0.0
    into 0.0).
    """
    f = rigid_body_dim(d)
    vals, nus = (tuple(s and s[k] for s in solved) for k in (0, 1))
    blocks = [np.full(f + 2, np.nan) if v is None else v for v in vals]
    sizes = np.array([len(v) for v in blocks], dtype=np.intp)
    start = np.cumsum(sizes) - sizes
    flat = np.concatenate([np.empty(0), *blocks])
    rho = flat[start + f]
    lam_max = flat[start + sizes - 1]
    gap = np.full(len(solved), np.inf)
    more = sizes > f + 1
    gap[more] = flat[start[more] + f + 1] - rho[more]
    tol_abs = REL_TOL * np.where(0.0 > lam_max, 0.0, lam_max)
    rigid = rho > tol_abs
    degenerate = gap <= DEGENERATE_GAP_REL * np.where(
        1e-300 > lam_max, 1e-300, lam_max)
    for a in (rho, lam_max, gap, tol_abs, rigid, degenerate):
        a.setflags(write=False)
    return Verdicts(vals, rho, nus, lam_max, gap, tol_abs, rigid, degenerate)


def _signed(nu):
    """nu negated where its first entry of largest magnitude, as np.argmax
    finds it, is negative, so never a column that holds a NaN; None stays."""
    if nu is None or np.isnan(nu).any() or nu[np.argmax(np.abs(nu))] >= 0:
        return nu
    return -nu


@_cores.one_blas_thread()
def _spectra(grams, d, vectors):
    """The Verdicts of the S in grams, in order; S j is solved for its
    eigenvalues only unless vectors[j].

    Each S is one LAPACK call (_solve), and one pass over the batch's
    eigenvalues gives every verdict (_verdicts), so the threads run
    nothing but the solves.  Two S or more go to the caller and the
    worker thread (_cores.threaded_map) at a cost of side^3, twice that
    for eigh, where the process may use two cores and has the GIL-free
    kernel, which then solves every eigenvalue-only S; elsewhere the
    caller solves them in turn with numpy.  An S gives the same bits
    either way.
    """
    kernel = (len(grams) > 1 and _cores.usable_cores() > 1
              and _cores._gil_free_eigvalsh())
    if not kernel:
        return _verdicts([_solve(S, d, v, np.linalg.eigvalsh)
                          for S, v in zip(grams, vectors)], d)
    return _verdicts(_cores.threaded_map(
        lambda j: _solve(grams[j], d, vectors[j], kernel),
        [len(S) ** 3 * (2 if v else 1) for S, v in zip(grams, vectors)]), d)


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
    cross-check runs either way.  S is solved before R is built, and the
    SVD overwrites R, which nothing else reads, so LAPACK works on it with
    no copy.  A framework of at most d nodes is a FrameworkTooSmallError.
    """
    _require_testable(fw)
    d, n = fw.dim, fw.n
    f = rigid_body_dim(d)
    spectrum = rigidity_spectrum(framework_gram(fw), d, vectors)
    R = rigidity_matrix(fw)
    sv = sla.svdvals(R, overwrite_a=True) if R.shape[0] else np.zeros(0)
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


@functools.cache
def _pin_keep(k, d):
    """The coordinates of an S of k > d nodes that the pin keeps: all but
    its f coordinates, the last d of node k - 1, the last d - 1 of node
    k - 2, ..., the last one of node k - d.  In 2-D they are S's leading
    2k - 3.  Kept per (k, d), read-only, since building them costs about
    what the Cholesky that follows does."""
    pinned = [(k - 1 - j) * d + c for j in range(d) for c in range(j, d)]
    keep = np.delete(np.arange(k * d), pinned)
    keep.setflags(write=False)
    return keep


@_cores.one_blas_thread()
def rigid_by_cholesky(grams, d):
    """Whether each unweighted S in grams, the sum of r r^T over edges of
    unit r, is proven rigid by one Cholesky factorization; False proves
    nothing.

    Drop the f coordinates of a pin from an S of k > d nodes
    (_pin_keep).  By Cauchy interlacing, the smallest eigenvalue of
    the block B that is left is at most rho = lambda_{f+1}(S).  S <= L (x)
    I_d, with L the ball's Laplacian, and lambda_max(L) <= 2 max_i deg_i,
    so U = 2 max_i (trace of node i's diagonal block of S), twice the
    largest induced degree, bounds lam_max.  If B less (REL_TOL + margin)
    U on its diagonal factors, rho > REL_TOL lam_max, the eigenvalue
    test's verdict: the margin, 8 side^2 eps, covers the factorization's
    backward error and eigvalsh's (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), so eigvalsh calls every proven S
    rigid.  A flexible or weak S does not factor, nor does a rigid one
    whose pinned nodes leave a rigid motion free (in 2-D, the last two on
    one vertical line), nor one with a NaN or an inf.  B is factored by
    LAPACK's dpotrf, in place, and proven only where it reports success
    and the factor's diagonal is finite.
    """
    eps = np.finfo(float).eps
    proven = np.zeros(len(grams), dtype=bool)
    for t, S in enumerate(grams):
        k = len(S) // d
        if k <= d:
            continue
        U = 2.0 * S.diagonal().reshape(k, d).sum(axis=1).max()
        if not U < np.inf:  # false for NaN too
            continue
        keep = _pin_keep(k, d)
        B = S.take(keep, 0).take(keep, 1)
        B.ravel()[::len(B) + 1] -= (REL_TOL + 8 * len(S) ** 2 * eps) * U
        # B is symmetric, so its transpose is B in column order, which
        # LAPACK factors in place; looked up per call, not bound at import
        factor, info = sla.lapack.dpotrf(B.T, lower=0, clean=0, overwrite_a=1)
        proven[t] = info == 0 and np.isfinite(factor.diagonal()).all()
    return proven


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
    m = _number("m", m, int, "non-negative")
    return 2.0 * m / _number("D", D, int, "at least 1") ** 2


def diameter_bound_certificate(g):
    """Rayleigh quotient of the Laplacian at the hop-count test vector.

    Picks a pair (p, q) realizing the diameter D, sets u_i = g_pi / D and
    mean-centers it.  The returned quotient sits between lambda_2(L) and
    2m/D^2, certifying the diameter bound without any eigensolve.  A graph
    of one node (D = 0) is a ValueError, as in diameter_eigenvalue_bound.
    """
    table = geodesics(g)
    D = _number("D", table.diameter(), int, "at least 1")
    p = int(np.argmax(table.eccentricities()))
    u = table.dist[p] / D
    ut = u - u.mean()
    num = 0.0
    for i, j in g.edges:
        num += (u[i] - u[j]) ** 2
    den = float(ut @ ut)
    return num / den
