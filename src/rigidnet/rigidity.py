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
the numeric test on most flexible random draws.  Its verdict on the
remaining draws solves S for eigenvalues only, since it reads no
eigenvector; the SVD rank cross-check still runs on every one of them.
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
Every dense solve of the library, and the hop table's frontier products
(graphs.GeodesicTable), runs under one_blas_thread, which sets
every loaded OpenBLAS to one thread for its duration: its threads, woken
for each solve between stretches of Python work, cost more than they give,
and one thread gives the same bits whatever the process's setting.
rigidity_spectrum enters it once per call; a batch (_spectra, the extent
search's _rigid_balls, rigidity_report with its SVD) enters it once and
solves each S by _spectrum, which does not enter it again.
numpy's eigh releases the GIL, but its eigvalsh keeps it unless (stack
count x side) exceeds 500, so two threads calling it take turns on every S
the library solves.  So the caller and one worker thread take a state
build's batch (_spectra) from one queue, the free thread the next S, only
where the process may use two cores and has _gil_free_eigvalsh, numpy's
own LAPACK dsyevd called through ctypes without the GIL and with numpy's
bits: there every eigh is numpy's and every eigenvalue-only solve the
kernel's.  Elsewhere the caller solves the batch in turn with numpy,
whose eigvalsh wrapper costs less.
"""

import collections
import ctypes
import functools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg as sla

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


@functools.cache
def _loaded_openblas():
    """(path, CDLL) of every OpenBLAS the process has loaded, found once in
    its memory map: numpy's libscipy_openblas64_, scipy's libscipy_openblas,
    or a plain libopenblas.  Empty where the map cannot be read or names
    none."""
    try:
        with open("/proc/self/maps") as fp:
            paths = sorted({line.split()[-1] for line in fp
                            if "openblas" in line.split()[-1].lower()})
    except OSError:
        return ()
    return tuple((path, ctypes.CDLL(path)) for path in paths)


@functools.cache
def _openblas_thread_counts():
    """(get, set) of the thread count of every loaded OpenBLAS."""
    found = []
    for _, lib in _loaded_openblas():
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                found.append((get, set_))
                break
    return tuple(found)


@functools.cache
def _gil_free_eigvalsh():
    """numpy.linalg.eigvalsh's own solve, called through ctypes so that it
    releases the GIL, or None where numpy's OpenBLAS is not loaded.

    numpy's eigvalsh keeps the GIL unless (stack count x side) exceeds 500,
    and every S the loops solve is smaller, so two threads calling it take
    turns.  This calls the LAPACK that numpy's wrapper calls, dsyevd of
    numpy's ILP64 OpenBLAS (numpy.libs/libscipy_openblas64_*), in the same
    way: eigenvalues only (jobz N) from the lower triangle (uplo L) of a
    Fortran-order copy, with the workspace sizes of LAPACK's own query,
    since dsytrd's blocking depends on them.  So its bits are numpy's.
    scipy's OpenBLAS is never used: its dsyevd gives other bits.
    """
    for path, lib in _loaded_openblas():
        dsyevd = getattr(lib, "scipy_dsyevd_64_", None)
        if dsyevd is not None and os.path.basename(
                os.path.dirname(path)) == "numpy.libs":
            return _eigvalsh_by(dsyevd)
    return None


# dsyevd's integer arguments: n, lda, lwork, liwork, info, and the
# queried liwork, in ILP64 LAPACK's 64-bit integers
_DsyevdInts = ctypes.c_int64 * 6


def _address(a):
    """The address of a C-contiguous array's first element."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _eigvalsh_by(dsyevd):
    """An eigvalsh of S by the ILP64 LAPACK routine dsyevd; a
    np.linalg.LinAlgError when it does not converge.  Every buffer is an
    array of the call's own, so threads may call it at once."""
    dsyevd.restype = None
    dsyevd.argtypes = (ctypes.c_char_p,) * 2 + (ctypes.c_void_p,) * 9

    def eigvalsh(S):
        a = np.array(S, dtype=float, order="F")
        n = len(a)
        # dsyevd reads n x n doubles from a: anything else is out of bounds
        if a.shape != (n, n):
            raise ValueError(f"S must be a square matrix, got {a.shape}")
        ints = _DsyevdInts(n, max(n, 1), -1, -1)
        i = ctypes.addressof(ints)
        # the eigenvalues, then the queried lwork
        w = np.empty(n + 1)
        pa, pw = _address(a.T), _address(w)
        dsyevd(b"N", b"L", i, pa, i + 8, pw, pw + 8 * n, i + 16, i + 40,
               i + 24, i + 32)
        lwork = int(w[n])
        ints[2], ints[3] = lwork, ints[5]
        # the work array, then iwork
        work = np.empty(lwork + ints[3])
        pk = _address(work)
        dsyevd(b"N", b"L", i, pa, i + 8, pw, pk, i + 16, pk + 8 * lwork,
               i + 24, i + 32)
        if ints[4]:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return w[:n].copy()

    return eigvalsh


class one_blas_thread:
    """Run a with block, or each call of a function it decorates, with
    every loaded OpenBLAS on one thread, and give each back its previous
    thread count on exit, also when the block raises; nested blocks
    restore in turn.  Where no OpenBLAS is found this does nothing.

    The count is the process's.  A block entered where every count is
    already one only reads them, so threads started inside an outer block
    may enter their own; outside one, enter it from one thread at a time.
    """

    def __init__(self):
        self._saved = []

    def __enter__(self):
        changed = [(set_, n) for get, set_ in _openblas_thread_counts()
                   if (n := get()) != 1]
        for set_, _ in changed:
            set_(1)
        self._saved.append(changed)
        return self

    def __exit__(self, *exc):
        for set_, n in self._saved.pop():
            set_(n)

    def __call__(self, fn):
        @functools.wraps(fn)
        def on_one_thread(*args, **kwargs):
            with one_blas_thread():
                return fn(*args, **kwargs)
        return on_one_thread


def usable_cores():
    """How many cores the process may run on, read at each call; 1 where
    the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


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


# the four blocks of an edge {a, b}: (a, a), (b, b), (a, b), (b, a), and
# which of the edge's two signed blocks each one reads (0: +, 1: -)
_BLOCK_ROWS, _BLOCK_COLS = np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0])
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
        side = sides[ball]
        corner = ((np.cumsum(sizes) - sizes)[ball]
                  + d * (ends.T[_BLOCK_ROWS] * side + ends.T[_BLOCK_COLS])
                  ).astype(dtype)
        rows = (np.arange(d)[:, None] * side).astype(dtype)
        index = (corner[:, None, None] + rows[:, None]
                 + np.arange(d, dtype=dtype)[:, None])
        # entry (p, q) of the signed block s of edge k is edge_blocks's
        # flat (2k + s) * d * d + p * d + q
        src = (((2 * edge + _BLOCK_NEGATED[:, None]) * d * d).astype(dtype)
               [:, None] + np.arange(d * d, dtype=dtype)[:, None])
        layout = cls(sides, index.transpose(3, 0, 1, 2).ravel(),
                     src.transpose(2, 0, 1).ravel())
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


@one_blas_thread()
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
    _gil_free_eigvalsh, which gives the same bits."""
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


@functools.cache
def _eigh_worker():
    """The one worker thread that shares a batch's solves with the caller,
    started on first use."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="rigidnet-eigh")


def _stop_eigh_worker():
    """Join the worker thread, as a fork needs (Python 3.12 warns of a live
    thread); the next two-core batch starts another."""
    _eigh_worker().shutdown()
    _eigh_worker.cache_clear()


# a forked child has no worker thread, only its parent's record of one
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_eigh_worker.cache_clear)


@one_blas_thread()
def _spectra(grams, d, vectors):
    """The Spectrum of each S in grams, in order, by rigidity_spectrum's
    test; an S solved without vectors, as vectors[j] says, gets
    eigenvalues only.

    Where the process may use two cores, has the GIL-free kernel
    (_gil_free_eigvalsh) and is given two S or more, the caller and one
    worker thread share the solves: numpy's eigh, and the kernel for every
    eigenvalue-only solve.  Elsewhere the caller solves them in turn with
    numpy.  The threads pop the S from one queue ordered by cost, side^3
    and twice that for eigh: the caller from the costly end, the worker
    from the cheap end, its first S handed over before it starts.  So the
    free thread takes the next S, and small solves, mostly Python that
    holds the GIL, run beside large ones, mostly LAPACK that does not.  A
    failure empties the queue; the caller's error surfaces once the worker
    has returned, and an S gives the same bits on either thread.
    """
    kernel = len(grams) > 1 and usable_cores() > 1 and _gil_free_eigvalsh()
    if not kernel:
        return [_spectrum(S, d, v, np.linalg.eigvalsh)
                for S, v in zip(grams, vectors)]
    spectra = [None] * len(grams)
    queue = collections.deque(sorted(range(len(grams)), key=lambda j: (
        -len(grams[j]) ** 3 * (2 if vectors[j] else 1))))

    def solve(j, take):
        try:
            while True:
                spectra[j] = _spectrum(grams[j], d, vectors[j], kernel)
                try:
                    j = take()
                except IndexError:
                    return
        except BaseException:
            queue.clear()
            raise

    first = queue.popleft()
    worker = _eigh_worker().submit(solve, queue.pop(), queue.pop)
    try:
        solve(first, queue.popleft)
    finally:
        # the worker's solves end before the BLAS setting is restored
        worker.result()
    return spectra


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


@one_blas_thread()
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


def is_infinitesimally_rigid(fw):
    """True iff every zero-strain velocity field is a rigid-body motion.

    Frameworks with n <= d are rejected because the trivial-motion
    dimension assumption behind the lambda_{f+1} test breaks down there.
    A graph that is not biconnected (disconnected, or with a cut vertex)
    is reported as not rigid without a numeric test, and exactly so.  If
    a cut vertex v splits the graph into two sides of n_A and n_B nodes,
    each counting v (n_A + n_B = n + 1), R's rank is at most the sum of
    the sides' ranks, and a side of k >= 2 nodes has rank at most
    d*k - f (one more for k = 2 in 3-D).  The sum stays below d*n - f in
    2-D and 3-D at every realization: one side can turn about v.  So the
    numeric test could never accept such a framework.  Every other
    framework gets rigidity_report's verdict, solved for eigenvalues only
    (the verdict reads no eigenvector), and the rank of R still
    cross-checks the eigenvalue test.
    """
    _require_testable(fw)
    if not is_biconnected(fw.graph):
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
